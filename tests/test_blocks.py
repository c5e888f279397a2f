"""Building blocks: attention kernel rule, reweighting network shape and
neutrality, backbone geometry, and gradient flow through full forwards."""

import numpy as np
import pytest

from amcr import tensor as T
from amcr.blocks import (AestheticNet, EcaBlock, Mrn, aab_pool, eca_forward,
                         eca_kernel_size, mrn_forward)
from amcr.errors import DataError, ParameterError, ShapeError
from amcr.tensor import Tensor

from helpers import numerical_grad, rel_err


# ---------------------------------------------------------------------------
# attention kernel rule


def test_kernel_size_anchor_values():
    # log2(1792)/2 + 1/2 = 5.9036...: the two modes disagree here by design
    assert eca_kernel_size(1792, "ceil_odd") == 7
    assert eca_kernel_size(1792, "nearest_odd") == 5
    assert eca_kernel_size(448, "ceil_odd") == 5
    assert eca_kernel_size(448, "nearest_odd") == 5


def test_kernel_size_small_channels():
    # C=2: t = 1.0 is already odd, both modes return it
    assert eca_kernel_size(2, "ceil_odd") == 1
    assert eca_kernel_size(2, "nearest_odd") == 1
    # C=4: t = 1.5 is 0.5 from 1 and 1.5 from 3
    assert eca_kernel_size(4, "ceil_odd") == 3
    assert eca_kernel_size(4, "nearest_odd") == 1
    # C=8: t = 2.0 sits exactly between 1 and 3; the tie resolves upward
    assert eca_kernel_size(8, "nearest_odd") == 3


def test_kernel_size_always_odd_and_positive():
    for c in range(2, 3000, 37):
        for mode in ("ceil_odd", "nearest_odd"):
            k = eca_kernel_size(c, mode)
            assert k >= 1 and k % 2 == 1


def test_kernel_size_monotone_in_channels():
    prev = 0
    for c in (2, 8, 64, 448, 1792, 4096):
        k = eca_kernel_size(c, "ceil_odd")
        assert k >= prev
        prev = k


def test_kernel_size_validation():
    with pytest.raises(ParameterError):
        eca_kernel_size(1)
    with pytest.raises(ParameterError):
        eca_kernel_size(64, "floor_odd")


# ---------------------------------------------------------------------------
# channel attention block


def test_eca_zero_kernel_halves_channels():
    # zero kernel -> zero pre-activation -> sigmoid 0.5 on every channel
    x = Tensor(np.arange(2 * 3 * 3, dtype=np.float64).reshape(2, 3, 3))
    block = EcaBlock(2)
    out = block(x)
    np.testing.assert_allclose(out.data, 0.5 * x.data, rtol=0, atol=1e-12)


def test_eca_gate_depends_on_channel_means():
    rng = np.random.default_rng(0)
    block = EcaBlock(8, rng=rng)
    x = rng.standard_normal((8, 4, 4))
    out = block(Tensor(x)).data
    # each channel is scaled by one scalar in (0,1)
    with np.errstate(invalid="ignore", divide="ignore"):
        ratio = out / x
    for c in range(8):
        vals = ratio[c][np.isfinite(ratio[c])]
        assert vals.size > 0
        assert np.allclose(vals, vals.flat[0])
        assert 0.0 < vals.flat[0] < 1.0


def test_eca_preserves_shape_and_backprops():
    rng = np.random.default_rng(1)
    block = EcaBlock(4, rng=rng)
    x = Tensor(rng.standard_normal((4, 5, 5)), requires_grad=True)
    out = block(x)
    assert out.shape == (4, 5, 5)
    T.tsum(out).backward()
    assert x.grad is not None and np.any(x.grad != 0)
    assert block.kernel.grad is not None and np.any(block.kernel.grad != 0)


def test_eca_kernel_gradient_matches_fd():
    rng = np.random.default_rng(2)
    block = EcaBlock(8, rng=rng)
    x = rng.standard_normal((8, 3, 3))
    arrs = {"k": block.kernel.data.copy()}

    def f():
        k = Tensor(arrs["k"], requires_grad=True)
        return float(T.tsum(eca_forward(Tensor(x), block, k)).data)

    kt = Tensor(arrs["k"].copy(), requires_grad=True)
    T.tsum(eca_forward(Tensor(x), block, kt)).backward()
    num = numerical_grad(f, arrs)["k"]
    assert rel_err(kt.grad, num) < 1e-6


def test_eca_rejects_wrong_channel_count():
    block = EcaBlock(4)
    with pytest.raises(ShapeError):
        block(Tensor(np.zeros((3, 4, 4))))


# ---------------------------------------------------------------------------
# pooling helper


def test_aab_pool_reduces_to_square():
    x = Tensor(np.random.default_rng(3).standard_normal((2, 9, 13)))
    out = aab_pool(x, 4)
    assert out.shape == (2, 4, 4)


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


def test_net_forward_shapes():
    net = small_net(np.random.default_rng(7))
    logits, reg, feat = net(np.random.default_rng(8).standard_normal((3, 16, 16)))
    assert logits.shape == (10,)
    assert reg.shape == ()
    assert feat.shape == (8,)


def test_net_feature_vector_skips_backbone():
    net = small_net(np.random.default_rng(19))
    img = np.random.default_rng(20).standard_normal((3, 16, 16))
    logits, reg, feat = net(img)
    from_feat = net(feat.data)
    np.testing.assert_array_equal(from_feat[0].data, logits.data)
    np.testing.assert_array_equal(from_feat[1].data, reg.data)
    np.testing.assert_array_equal(from_feat[2].data, feat.data)
    with pytest.raises(ShapeError):
        net(np.zeros(7))


def test_cross_entropy_uniform_logits():
    # without an rng every weight is zero, so the class head is uniform
    net = small_net(None)
    logits, reg, _ = net(np.random.default_rng(21).standard_normal((3, 16, 16)))
    assert all(np.all(p.data == 0.0) for n, p in net.params.items()
               if n != "head.reg.b")
    assert float(reg.data) == 5.0
    for label in (0, 5, 9):
        loss = T.cross_entropy_logits(logits, label)
        assert float(loss.data) == pytest.approx(np.log(10.0), abs=1e-12)


def test_net_regression_starts_at_midscore():
    net = small_net(np.random.default_rng(9), reg_bias=5.0)
    assert float(net.params["head.reg.b"].data[0]) == 5.0


def test_net_binary_head_variant():
    net = small_net(np.random.default_rng(10), num_classes=2)
    logits, _, _ = net(np.zeros((3, 16, 16)))
    assert logits.shape == (2,)


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
        logits, reg, feat = net(np.zeros((3, side, side)))
        assert feat.shape == (8,)


def test_net_trainable_name_phases():
    net = small_net(np.random.default_rng(13))
    names = set(net.params)
    cls = set(net.trainable_names("class"))
    reg = set(net.trainable_names("reg"))
    assert reg == {"head.reg.w", "head.reg.b"}
    assert cls | reg == names
    assert cls & reg == set()
    assert set(net.trainable_names("all")) == names
    with pytest.raises(ParameterError):
        net.trainable_names("warmup")


def test_net_forward_full_gradient_matches_fd():
    rng = np.random.default_rng(14)
    net = AestheticNet(rng, in_channels=2, stem_channels=4, stage_channels=(4,),
                       head_width=4, num_classes=3)
    img = rng.standard_normal((2, 8, 8))
    names = [n for n in net.params]

    def loss_under(params):
        logits, reg, _ = net(img, params)
        return T.add(T.cross_entropy_logits(logits, 1), T.mul(reg, reg))

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
    img = rng.standard_normal((3, 16, 16))
    base = {n: p.data.copy() for n, p in net.params.items()}
    shifted = {n: Tensor(p.data + 0.05) for n, p in net.params.items()}
    a = net(img)[1].data
    b = net(img, shifted)[1].data
    assert a != b
    for n, v in base.items():
        np.testing.assert_array_equal(net.params[n].data, v)


def test_net_input_validation():
    net = small_net(np.random.default_rng(16))
    with pytest.raises(ShapeError):
        net(np.zeros((1, 16, 16)))
    with pytest.raises(ShapeError):
        net(np.zeros((16, 16)))
    with pytest.raises(ParameterError):
        small_net(np.random.default_rng(17), num_classes=1)
    with pytest.raises(ParameterError):
        small_net(np.random.default_rng(18), stem_channels=1)
