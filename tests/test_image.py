"""Preparation pipelines: geometry, rounding, and content placement."""

import numpy as np
import pytest

from amcr.errors import ParameterError, ShapeError
from amcr.image import aab_prepare, preprocess_crop, preprocess_resize


def test_aab_square_input_passes_through():
    rng = np.random.default_rng(0)
    x = rng.standard_normal((3, 8, 8))
    out = aab_prepare(x, 8)
    assert isinstance(out, np.ndarray) and out.dtype == np.float64
    assert out.shape == (3, 8, 8)
    np.testing.assert_allclose(out, x, rtol=0, atol=1e-12)


def test_aab_portrait_content_centered_with_zero_margins():
    out = aab_prepare(np.ones((1, 10, 5)), 10)
    # long edge already 10 so no resampling; content spans 5 middle columns
    assert out.shape == (1, 10, 10)
    np.testing.assert_array_equal(out[0, :, 2:7], 1.0)
    np.testing.assert_array_equal(out[0, :, :2], 0.0)
    np.testing.assert_array_equal(out[0, :, 7:], 0.0)


def test_aab_odd_margin_extra_pixel_goes_right():
    out = aab_prepare(np.ones((1, 8, 5)), 8)
    # width margin 3 splits 1 left / 2 right
    np.testing.assert_array_equal(out[0, :, 0], 0.0)
    np.testing.assert_array_equal(out[0, :, 1:6], 1.0)
    np.testing.assert_array_equal(out[0, :, 6:], 0.0)


def test_aab_odd_margin_extra_pixel_goes_bottom():
    out = aab_prepare(np.ones((1, 5, 8)), 8)
    np.testing.assert_array_equal(out[0, 0, :], 0.0)
    np.testing.assert_array_equal(out[0, 1:6, :], 1.0)
    np.testing.assert_array_equal(out[0, 6:, :], 0.0)


def test_aab_short_edge_rounds_half_away_from_zero():
    # 3 * 6 / 4 = 4.5: banker's rounding would give 4 columns, the rule gives 5
    out = aab_prepare(np.ones((1, 4, 3)), 6)
    widths = (out[0] != 0).sum(axis=1)
    assert widths.max() == 5


def test_aab_preserves_content_aspect_ratio():
    for h, w in [(100, 10), (10, 100), (64, 48), (7, 31), (200, 20)]:
        out = aab_prepare(np.ones((1, h, w)), 48)
        rows = (out[0].sum(axis=1) > 0).sum()
        cols = (out[0].sum(axis=0) > 0).sum()
        want = h / w
        got = rows / cols
        # rounding the short edge to a whole pixel bounds the ratio error
        assert abs(got - want) <= want * (1.0 / min(rows, cols) + 1e-9)


def test_aab_extreme_ratios_never_lose_all_content():
    for h, w in [(300, 3), (3, 300), (100, 1), (1, 100)]:
        out = aab_prepare(np.full((2, h, w), 2.0), 32)
        assert out.shape == (2, 32, 32)
        assert out.max() > 0.0  # the short edge clamps to >= 1 pixel


def test_aab_no_content_discarded_constant_mass():
    # constant image: bilinear keeps the value, so nonzero area carries it all
    out = aab_prepare(np.full((1, 20, 10), 3.0), 16)
    nonzero = out[out != 0]
    np.testing.assert_allclose(nonzero, 3.0, rtol=0, atol=1e-12)
    assert nonzero.size == 16 * 8


def test_aab_validation():
    with pytest.raises(ParameterError):
        aab_prepare(np.ones((1, 4, 4)), 0)
    with pytest.raises(ShapeError):
        aab_prepare(np.ones((4, 4)), 8)


# ---------------------------------------------------------------------------
# crop


def test_crop_identity_on_matching_square():
    rng = np.random.default_rng(1)
    x = rng.standard_normal((3, 16, 16))
    np.testing.assert_allclose(preprocess_crop(x, 16), x, rtol=0, atol=1e-12)


def test_crop_takes_central_window():
    # width 8 scaled with short edge already at target: central 4 columns kept
    x = np.zeros((1, 4, 8))
    x[0, :, 2:6] = 7.0
    out = preprocess_crop(x, 4)
    assert out.shape == (1, 4, 4)
    np.testing.assert_array_equal(out, 7.0)


def test_crop_output_shape_for_odd_geometry():
    for h, w in [(5, 13), (13, 5), (9, 9), (3, 50)]:
        out = preprocess_crop(np.ones((2, h, w)), 8)
        assert out.shape == (2, 8, 8)
        np.testing.assert_allclose(out, 1.0, rtol=0, atol=1e-12)


def test_crop_discards_the_long_edge_extremes():
    # gradient along the wide axis: the crop keeps the middle values
    x = np.arange(20, dtype=np.float64)[None, None, :].repeat(10, axis=1)
    out = preprocess_crop(x, 10)
    assert out.shape == (1, 10, 10)
    assert out.min() >= 4.0 and out.max() <= 15.0


def test_crop_validation():
    with pytest.raises(ParameterError):
        preprocess_crop(np.ones((1, 4, 4)), -1)


# ---------------------------------------------------------------------------
# stretch resize


def test_resize_prep_output_square_and_constant_preserved():
    out = preprocess_resize(np.full((3, 9, 17), 1.5), 12)
    assert out.shape == (3, 12, 12)
    np.testing.assert_allclose(out, 1.5, rtol=0, atol=1e-12)


def test_resize_prep_distorts_aspect_ratio():
    # a half-black half-white wide image maps its split to the middle
    x = np.zeros((1, 4, 16))
    x[0, :, 8:] = 1.0
    out = preprocess_resize(x, 8)
    assert out.shape == (1, 8, 8)
    assert out[0, 0, 0] == 0.0 and out[0, 0, 7] == 1.0


def test_resize_prep_identity_when_matching():
    rng = np.random.default_rng(2)
    x = rng.standard_normal((1, 6, 6))
    np.testing.assert_allclose(preprocess_resize(x, 6), x, rtol=0, atol=1e-12)
