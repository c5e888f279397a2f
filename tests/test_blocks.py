"""Building blocks: attention kernel rule, reweighting network shape and
neutrality, backbone geometry, and gradient flow through full forwards."""

import hashlib

import numpy as np
import pytest

from amcr import tensor as T
from amcr.blocks import (AestheticNet, Mrn, eca_forward, eca_kernel_size,
                         mrn_forward)
from amcr.errors import DataError, ParameterError, ShapeError
from amcr.image import aab_prepare
from amcr.tensor import Tensor

from helpers import numerical_grad, rel_err


# ---------------------------------------------------------------------------
# attention kernel rule


def test_kernel_size_anchor_values():
    # log2(1792)/2 + 1/2 = 5.9036...: the ceiling, not ECA's nearest odd 5
    assert eca_kernel_size(1792) == 7
    assert eca_kernel_size(448) == 5


def test_kernel_size_small_channels():
    # C=2: t = 1.0 is already odd
    assert eca_kernel_size(2) == 1
    # C=4: t = 1.5 rounds up to 3
    assert eca_kernel_size(4) == 3


def test_kernel_size_always_odd_and_positive():
    for c in range(2, 3000, 37):
        k = eca_kernel_size(c)
        assert k >= 1 and k % 2 == 1


def test_kernel_size_monotone_in_channels():
    prev = 0
    for c in (2, 8, 64, 448, 1792, 4096):
        k = eca_kernel_size(c)
        assert k >= prev
        prev = k


def test_kernel_size_validation():
    with pytest.raises(ParameterError):
        eca_kernel_size(1)


# ---------------------------------------------------------------------------
# channel attention


def eca_kernel(channels, rng):
    """An attention kernel that tracks gradients, drawn as the backbone draws it."""
    k = eca_kernel_size(channels)
    return Tensor(rng.normal(scale=1.0 / np.sqrt(k), size=k), requires_grad=True)


def test_eca_zero_kernel_halves_channels():
    # zero kernel -> zero pre-activation -> sigmoid 0.5 on every channel
    x = Tensor(np.arange(2 * 3 * 3, dtype=np.float64).reshape(1, 2, 3, 3))
    out = eca_forward(x, Tensor(np.zeros(eca_kernel_size(2))))
    np.testing.assert_allclose(out.data, 0.5 * x.data, rtol=0, atol=1e-12)


def test_eca_gate_depends_on_channel_means():
    rng = np.random.default_rng(0)
    kernel = eca_kernel(8, rng)
    x = rng.standard_normal((2, 8, 4, 4))
    out = eca_forward(Tensor(x), kernel).data
    # each channel of each image is scaled by one scalar in (0,1)
    with np.errstate(invalid="ignore", divide="ignore"):
        ratio = out / x
    for n in range(2):
        for c in range(8):
            vals = ratio[n, c][np.isfinite(ratio[n, c])]
            assert vals.size > 0
            assert np.allclose(vals, vals.flat[0])
            assert 0.0 < vals.flat[0] < 1.0


def test_eca_preserves_shape_and_backprops():
    rng = np.random.default_rng(1)
    kernel = eca_kernel(4, rng)
    x = Tensor(rng.standard_normal((2, 4, 5, 5)), requires_grad=True)
    out = eca_forward(x, kernel)
    assert out.shape == (2, 4, 5, 5)
    T.tsum(out).backward()
    assert x.grad is not None and np.any(x.grad != 0)
    assert kernel.grad is not None and np.any(kernel.grad != 0)


def test_eca_kernel_gradient_matches_fd():
    rng = np.random.default_rng(2)
    x = rng.standard_normal((2, 8, 3, 3))
    arrs = {"k": eca_kernel(8, rng).data.copy()}

    def f():
        k = Tensor(arrs["k"], requires_grad=True)
        return float(T.tsum(eca_forward(Tensor(x), k)).data)

    kt = Tensor(arrs["k"].copy(), requires_grad=True)
    T.tsum(eca_forward(Tensor(x), kt)).backward()
    num = numerical_grad(f, arrs)["k"]
    assert rel_err(kt.grad, num) < 1e-6


def test_eca_rejects_wrong_channel_count():
    # a 4-channel kernel (k=3) is longer than a 2-channel input
    kernel = Tensor(np.zeros(eca_kernel_size(4)))
    with pytest.raises(ParameterError):
        eca_forward(Tensor(np.zeros((1, 2, 4, 4))), kernel)
    with pytest.raises(ShapeError):  # one image is a batch of one
        eca_forward(Tensor(np.zeros((4, 4, 4))), kernel)


# ---------------------------------------------------------------------------
# reweighting network


def test_mrn_zero_params_gives_half_weights():
    mrn = Mrn(hidden=16)
    out = mrn_forward(np.array([0.0, 1.0, 100.0, 1e6]), mrn)
    np.testing.assert_allclose(out.data, 0.5, rtol=0, atol=1e-15)


def test_mrn_random_init_still_starts_neutral():
    # only the hidden basis is drawn; the output layer starts at zero so
    # the first forward is exactly 0.5 everywhere regardless of the seed
    for seed in range(5):
        mrn = Mrn(rng=np.random.default_rng(seed))
        out = mrn_forward(np.array([0.1, 3.0, 9.0]), mrn)
        np.testing.assert_allclose(out.data, 0.5, rtol=0, atol=1e-15)
        assert np.any(mrn.params["mrn.w1"].data != 0)


def test_mrn_outputs_in_open_unit_interval():
    # moderate parameter scales keep the sigmoid away from float saturation
    rng = np.random.default_rng(4)
    mrn = Mrn(rng=rng)
    for name in ("mrn.w2", "mrn.b2"):
        shape = mrn.params[name].data.shape
        mrn.params[name].data = rng.normal(scale=0.1, size=shape)
    out = mrn_forward(rng.uniform(0, 5, 64), mrn).data
    assert np.all(out > 0.0) and np.all(out < 1.0)
    assert out.std() > 0.0  # the drawn basis actually differentiates losses


def test_mrn_override_params_do_not_mutate():
    rng = np.random.default_rng(5)
    mrn = Mrn(hidden=8, rng=rng)
    base = {n: p.data.copy() for n, p in mrn.params.items()}
    override = {"mrn.b2": Tensor(np.array([3.0]), requires_grad=True)}
    out = mrn_forward(np.array([1.0, 2.0]), mrn, params=override)
    assert np.all(out.data > 0.9)  # b2=3 pushes the sigmoid up
    for n, v in base.items():
        np.testing.assert_array_equal(mrn.params[n].data, v)


def test_mrn_gradient_matches_fd():
    rng = np.random.default_rng(6)
    mrn = Mrn(hidden=12, rng=rng)
    # give the output layer some structure so gradients are nonzero
    mrn.params["mrn.w2"].data = rng.normal(scale=0.3, size=(12, 1))
    mrn.params["mrn.b2"].data = rng.normal(scale=0.3, size=(1,))
    losses = rng.uniform(0.1, 4.0, 6)
    arrs = {n: p.data.copy() for n, p in mrn.params.items()}

    def f():
        override = {n: Tensor(a, requires_grad=True) for n, a in arrs.items()}
        return float(T.tsum(mrn_forward(losses, mrn, override)).data)

    out = T.tsum(mrn_forward(losses, mrn))
    out.backward()
    nums = numerical_grad(f, arrs)
    for n in arrs:
        assert rel_err(mrn.params[n].grad, nums[n]) < 1e-6, n


def test_mrn_rejects_bad_inputs():
    mrn = Mrn(hidden=4)
    with pytest.raises(ShapeError):
        mrn_forward(np.zeros((2, 2)), mrn)
    with pytest.raises(DataError):
        mrn_forward(np.array([1.0, np.nan]), mrn)
    with pytest.raises(ParameterError):
        Mrn(hidden=0)


# ---------------------------------------------------------------------------
# backbone


def small_net(rng, **kw):
    args = dict(in_channels=3, stem_channels=4, stage_channels=(4, 8),
                head_width=8, num_classes=10)
    args.update(kw)
    return AestheticNet(rng, **args)


def param_digest(params):
    """sha256 over every parameter's name and little-endian float64 bytes,
    in dict order."""
    h = hashlib.sha256()
    for name, p in params.items():
        h.update(name.encode())
        h.update(np.ascontiguousarray(p.data, dtype="<f8").tobytes())
    return h.hexdigest()


def test_net_random_init_is_pinned():
    # the draw order (stem, then each stage's conv and attention kernel,
    # then the heads) decides every seeded run's starting point
    net = small_net(np.random.default_rng(0))
    assert list(net.params) == [
        "stem.w", "stage0.w", "stage0.eca", "stage1.w", "stage1.eca",
        "head.reduce.w", "head.class.w", "head.class.b", "head.reg.w",
        "head.reg.b"]
    assert param_digest(net.params) == (
        "1e969efe2a187a83e85fc44df3efeef36ad75ce8c1280e36061ee7131c7915ad")


def test_mrn_random_init_is_pinned():
    mrn = Mrn(rng=np.random.default_rng(0))
    assert param_digest(mrn.params) == (
        "ab1dc733e53929de8def63dd06feca44ed3ff5fed78f99e2d7634a9add8ce946")


def test_net_forward_shapes():
    net = small_net(np.random.default_rng(7))
    img = np.random.default_rng(8).standard_normal((2, 3, 16, 16))
    assert net.forward(img).shape == (2, 10)
    assert net.score(img).shape == (2,)
    assert net.features(img).shape == (2, 8)


def test_net_heads_take_image_batches_only():
    net = small_net(np.random.default_rng(19))
    img = np.random.default_rng(20).standard_normal((2, 3, 16, 16))
    feat = net.features(img).data
    for head in (net.score, net.forward):
        with pytest.raises(ShapeError):
            head(feat)
        with pytest.raises(ShapeError):
            head(img[0])


def test_net_score_is_forward_regression_output():
    net = small_net(np.random.default_rng(22))
    img = np.random.default_rng(23).standard_normal((2, 3, 16, 16))
    feat = net.features(img).data
    head = (feat @ net.params["head.reg.w"].data
            + net.params["head.reg.b"].data[None, :])
    np.testing.assert_array_equal(net.score(img).data, head.reshape(-1))
    # each entry point evaluates its own head only
    net.score(img).backward()
    assert net.params["head.class.w"].grad is None
    assert net.params["head.reg.w"].grad is not None
    net.params["head.reg.w"].zero_grad()
    T.tsum(net.forward(img)).backward()
    assert net.params["head.reg.w"].grad is None
    assert net.params["head.class.w"].grad is not None
    with pytest.raises(ShapeError):
        net.score(np.zeros((1, 7)))


def test_cross_entropy_uniform_logits():
    # with every weight zero the class head is uniform
    drawn = small_net(np.random.default_rng(0)).params
    zeros = {n: Tensor(np.zeros(p.shape)) for n, p in drawn.items()}
    zeros["head.reg.b"] = Tensor(np.full(1, AestheticNet.MID_SCORE))
    net = small_net(None, params=zeros)
    img = np.random.default_rng(21).standard_normal((1, 3, 16, 16))
    logits, reg = net.forward(img), net.score(img)
    assert all(np.all(p.data == 0.0) for n, p in net.params.items()
               if n != "head.reg.b")
    assert float(reg.data[0]) == 5.0
    for label in (0, 5, 9):
        loss = T.cross_entropy_logits(logits, [label])
        assert float(loss.data[0]) == pytest.approx(np.log(10.0), abs=1e-12)


def test_net_takes_given_parameters_that_fit_its_layout():
    drawn = small_net(np.random.default_rng(3)).params
    net = small_net(None, params=dict(reversed(drawn.items())))
    assert list(net.params) == list(drawn)
    assert all(net.params[n] is p for n, p in drawn.items())
    misfits = ({n: p for n, p in drawn.items() if n != "stem.w"},
               {**drawn, "extra.w": Tensor(np.zeros(2))},
               {**drawn, "head.reg.b": Tensor(np.zeros(2))})
    for params in misfits:
        with pytest.raises(ShapeError, match="do not fit the architecture"):
            small_net(None, params=params)
    with pytest.raises(ParameterError, match="rng"):
        small_net(None)


def test_net_regression_starts_at_midscore():
    net = small_net(np.random.default_rng(9))
    assert float(net.params["head.reg.b"].data[0]) == 5.0


def test_net_binary_head_variant():
    net = small_net(np.random.default_rng(10), num_classes=2)
    assert net.forward(np.zeros((1, 3, 16, 16))).shape == (1, 2)


def test_net_eca_toggle_changes_parameter_set():
    on = small_net(np.random.default_rng(11), eca=True)
    off = small_net(np.random.default_rng(11), eca=False)
    assert any(".eca" in n for n in on.params)
    assert not any(".eca" in n for n in off.params)


def test_net_pool_target_fixes_feature_geometry():
    # with adaptive pooling after the stem, different input sizes reach the
    # same downstream geometry; without it they still pool to 1x1 at the end
    net = small_net(np.random.default_rng(12), pool_target=6)
    for side in (16, 24, 30):
        assert net.features(np.zeros((1, 3, side, side))).shape == (1, 8)


def test_aab_pool_reduces_to_square(monkeypatch):
    # the stem output of a non-square image pools to pool_target x
    # pool_target; without a target the backbone never pools adaptively
    shapes = []
    pool = T.adaptive_avg_pool2d

    def recording_pool(x, target):
        out = pool(x, target)
        shapes.append(out.shape)
        return out

    monkeypatch.setattr(T, "adaptive_avg_pool2d", recording_pool)
    img = np.random.default_rng(3).standard_normal((1, 3, 18, 26))
    small_net(np.random.default_rng(24), pool_target=4).features(img)
    assert shapes == [(1, 4, 4, 4)]
    small_net(np.random.default_rng(24)).features(img)
    assert shapes == [(1, 4, 4, 4)]


@pytest.mark.parametrize("kw", [{"eca": True}, {"eca": False},
                                {"pool_target": 6}],
                         ids=["eca-on", "eca-off", "aab-pool-target"])
def test_batched_forward_equals_batch_of_one_forwards(kw):
    rng = np.random.default_rng(25)
    net = small_net(rng, **kw)
    if "pool_target" in kw:  # aab squares of differently shaped images
        images = np.stack([aab_prepare(rng.uniform(0, 1, (3, h, w)), 16)
                           for h, w in ((12, 20), (18, 10), (16, 16), (9, 14))])
    else:
        images = rng.standard_normal((4, 3, 16, 16))

    def outputs(batch):
        feats = net.features(batch).data
        return {"logits": net.forward(batch).data, "features": feats,
                "scores": net.score(batch).data}

    batched = outputs(images)
    for i in range(len(images)):
        for name, value in outputs(images[i:i + 1]).items():
            np.testing.assert_allclose(batched[name][i], value[0], rtol=1e-12,
                                       atol=0, err_msg=name)


def test_net_forward_full_gradient_matches_fd():
    rng = np.random.default_rng(14)
    net = AestheticNet(rng, in_channels=2, stem_channels=4, stage_channels=(4,),
                       head_width=4, num_classes=3)
    img = rng.standard_normal((1, 2, 8, 8))
    names = [n for n in net.params]

    def loss_under(params):
        reg = net.score(img, params)
        return T.tsum(T.add(T.cross_entropy_logits(net.forward(img, params), [1]),
                            T.mul(reg, reg)))

    out = loss_under(None)
    out.backward()
    # spot-check three parameters spanning the depth of the graph
    for name in ("stem.w", "head.class.w", "head.reg.b"):
        arrs = {name: net.params[name].data.copy()}

        def f(name=name, arrs=arrs):
            override = {name: Tensor(arrs[name], requires_grad=True)}
            return float(loss_under(override).data)

        num = numerical_grad(f, arrs, eps=1e-5)[name]
        assert rel_err(net.params[name].grad, num) < 2e-4, name


def test_net_override_params_leave_model_unchanged():
    rng = np.random.default_rng(15)
    net = small_net(rng)
    img = rng.standard_normal((1, 3, 16, 16))
    base = {n: p.data.copy() for n, p in net.params.items()}
    shifted = {n: Tensor(p.data + 0.05) for n, p in net.params.items()}
    a = net.score(img).data
    b = net.score(img, shifted).data
    assert a != b
    for n, v in base.items():
        np.testing.assert_array_equal(net.params[n].data, v)


def test_net_input_validation():
    net = small_net(np.random.default_rng(16))
    with pytest.raises(ShapeError):
        net.forward(np.zeros((1, 1, 16, 16)))
    with pytest.raises(ShapeError):  # one image is a batch of one
        net.forward(np.zeros((3, 16, 16)))
    with pytest.raises(ParameterError):
        small_net(np.random.default_rng(17), num_classes=1)
    with pytest.raises(ParameterError):
        small_net(np.random.default_rng(18), stem_channels=1)
