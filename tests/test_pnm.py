"""Image file round-trips and the malformed-input contract."""

import numpy as np
import pytest

from amcr.errors import FormatError
from amcr.pnm import load_pnm, save_pnm


def test_load_known_color_fixture(tmp_path):
    # 2x2 P6: red, green / blue, white
    raster = bytes([255, 0, 0, 0, 255, 0, 0, 0, 255, 255, 255, 255])
    p = tmp_path / "rgbw.ppm"
    p.write_bytes(b"P6\n2 2\n255\n" + raster)
    t = load_pnm(p)
    assert isinstance(t, np.ndarray) and t.dtype == np.float64
    assert t.shape == (3, 2, 2)
    np.testing.assert_allclose(t[0], [[1, 0], [0, 1]])
    np.testing.assert_allclose(t[1], [[0, 1], [0, 1]])
    np.testing.assert_allclose(t[2], [[0, 0], [1, 1]])


def test_load_known_gray_fixture(tmp_path):
    p = tmp_path / "ramp.pgm"
    p.write_bytes(b"P5\n3 1\n255\n" + bytes([0, 128, 255]))
    t = load_pnm(p)
    assert t.shape == (1, 1, 3)
    np.testing.assert_allclose(t[0, 0], [0.0, 128 / 255, 1.0])


def test_header_comments_and_whitespace(tmp_path):
    p = tmp_path / "c.pgm"
    p.write_bytes(b"P5 # a comment\n# another line\n 2\t1 \n255\n" + bytes([7, 9]))
    t = load_pnm(p)
    np.testing.assert_allclose(t[0, 0], [7 / 255, 9 / 255])


def test_uint8_roundtrip_exact(tmp_path):
    rng = np.random.default_rng(0)
    img = rng.integers(0, 256, size=(3, 5, 4), dtype=np.uint8)
    p = tmp_path / "r.ppm"
    save_pnm(p, img)
    back = load_pnm(p)
    np.testing.assert_array_equal(
        np.floor(back * 255.0 + 0.5).astype(np.uint8), img)


def test_float_roundtrip_quantizes_half_up(tmp_path):
    x = np.array([[[0.0, 1.0, 0.5, 0.5019607843137255]]])  # 128/255
    p = tmp_path / "q.pgm"
    save_pnm(p, x)
    back = load_pnm(p)
    np.testing.assert_allclose(back[0, 0],
                               [0.0, 1.0, 128 / 255, 128 / 255])


def test_float_values_clipped_before_write(tmp_path):
    p = tmp_path / "clip.pgm"
    save_pnm(p, np.array([[[-0.5, 2.0]]]))
    np.testing.assert_allclose(load_pnm(p)[0, 0], [0.0, 1.0])


def test_gray_roundtrip_shape(tmp_path):
    rng = np.random.default_rng(1)
    img = rng.uniform(0, 1, size=(1, 7, 3))
    p = tmp_path / "g.pgm"
    save_pnm(p, img)
    back = load_pnm(p)
    assert back.shape == (1, 7, 3)
    assert np.abs(back - img).max() <= 0.5 / 255 + 1e-12


def test_save_rejects_bad_shapes(tmp_path):
    with pytest.raises(FormatError):
        save_pnm(tmp_path / "x.ppm", np.zeros((2, 4, 4)))
    with pytest.raises(FormatError):
        save_pnm(tmp_path / "y.ppm", np.zeros((4, 4)))


@pytest.mark.parametrize("payload", [
    b"",                                   # empty file
    b"P7\n2 2\n255\n" + bytes(12),         # unknown magic
    b"P6\n2 2\n65535\n" + bytes(12),       # unsupported depth
    b"P6\n0 2\n255\n",                     # degenerate width
    b"P6\nw 2\n255\n" + bytes(12),         # non-numeric token
    b"P6\n2 2\n255\n" + bytes(11),         # short raster
    b"P6\n2 2\n",                          # truncated header
])
def test_malformed_files_raise_format_error(tmp_path, payload):
    p = tmp_path / "bad.ppm"
    p.write_bytes(payload)
    with pytest.raises(FormatError):
        load_pnm(p)


def test_extra_raster_bytes_are_ignored_but_counted_exactly(tmp_path):
    # the reader takes exactly w*h*c bytes; trailing junk beyond the raster
    # does not corrupt pixel values
    p = tmp_path / "t.pgm"
    p.write_bytes(b"P5\n2 1\n255\n" + bytes([10, 20]) + b"JUNK")
    t = load_pnm(p)
    np.testing.assert_allclose(t[0, 0], [10 / 255, 20 / 255])
