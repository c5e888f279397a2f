"""Gradient and contract checks for the tensor engine."""

import threading

import numpy as np
import pytest

import amcr.tensor as T
from amcr.blocks import AestheticNet
from amcr.errors import DataError, ParameterError, ShapeError, TapeError
from amcr.tensor import Tensor, no_grad

from helpers import (batch_of_one_gradients, gradients_from_factors,
                     numerical_grad, rel_err)


def leaf(rng, *shape):
    return Tensor(rng.normal(size=shape), requires_grad=True)


def row_sums(x):
    """(N, ...) -> (N,) per-row sums, built from ops that
    per_sample_gradients splits by row."""
    flat = T.reshape(x, (x.shape[0], -1))
    return T.reshape(T.matmul(flat, Tensor(np.ones((flat.shape[1], 1)))), (-1,))


def check_grads(build, tensors, tol=1e-4, eps=1e-6):
    """build() -> scalar Tensor from the given name -> Tensor leaves."""
    out = build()
    for t in tensors.values():
        t.zero_grad()
    out.backward()
    num = numerical_grad(lambda: build().data, {n: t.data for n, t in tensors.items()}, eps)
    for name, t in tensors.items():
        got = t.grad if t.grad is not None else np.zeros_like(t.data)
        err = rel_err(got, num[name])
        assert err < tol, f"{name}: rel err {err:.3e}"


def test_add_mul_chain_gradients():
    rng = np.random.default_rng(0)
    for _ in range(10):
        a = leaf(rng, 4, 3)
        b = leaf(rng, 4, 3)
        check_grads(lambda: T.tsum(T.mul(T.add(a, b), T.sub(a, b))), {"a": a, "b": b})


def test_relu_gradient_away_from_kink():
    rng = np.random.default_rng(1)
    for _ in range(10):
        x = Tensor(rng.normal(size=(5, 5)), requires_grad=True)
        # keep values off the kink so finite differences are valid
        x.data[np.abs(x.data) < 1e-3] = 0.5
        check_grads(lambda: T.tsum(T.relu(x)), {"x": x})


def test_sigmoid_matches_closed_form_gradient():
    rng = np.random.default_rng(2)
    x = leaf(rng, 40)
    out = T.tsum(T.sigmoid(x))
    out.backward()
    s = 1.0 / (1.0 + np.exp(-x.data))
    assert rel_err(x.grad, s * (1 - s)) < 1e-12


def test_sigmoid_stable_at_large_magnitude():
    x = Tensor(np.array([-800.0, -30.0, 0.0, 30.0, 800.0]), requires_grad=True)
    y = T.sigmoid(x)
    assert np.all(np.isfinite(y.data))
    assert y.data[0] == pytest.approx(0.0, abs=1e-300)
    assert y.data[-1] == pytest.approx(1.0)
    T.tsum(y).backward()
    assert np.all(np.isfinite(x.grad))


def test_matmul_and_rowvec_gradients():
    rng = np.random.default_rng(3)
    for _ in range(5):
        a = leaf(rng, 6, 4)
        w = leaf(rng, 4, 3)
        b = leaf(rng, 3)
        check_grads(lambda: T.tsum(T.add_rowvec(T.matmul(a, w), b)),
                    {"a": a, "w": w, "b": b})


def test_cross_entropy_matches_log_softmax():
    rng = np.random.default_rng(6)
    for _ in range(20):
        logits = rng.normal(size=11) * 5
        label = int(rng.integers(11))
        out = T.cross_entropy_logits(Tensor(logits[None]), [label])
        shifted = logits - logits.max()
        expect = -(shifted[label] - np.log(np.exp(shifted).sum()))
        assert out.data == pytest.approx(expect, rel=1e-12)


def test_cross_entropy_gradient():
    rng = np.random.default_rng(7)
    for _ in range(5):
        x = leaf(rng, 1, 8)
        label = int(rng.integers(8))
        check_grads(lambda: T.tsum(T.cross_entropy_logits(x, [label])), {"x": x})


def test_cross_entropy_shift_invariance():
    # the fused log-sum-exp stays exact for logits far from zero
    rng = np.random.default_rng(5)
    x = rng.normal(size=9)
    a = T.cross_entropy_logits(Tensor(x[None]), [4])
    b = T.cross_entropy_logits(Tensor(x[None] + 1000.0), [4])
    assert np.allclose(a.data, b.data, atol=1e-12)


def test_cross_entropy_label_check():
    x = Tensor(np.zeros((1, 6)))
    for label in (-1, 6):
        with pytest.raises(DataError):
            T.cross_entropy_logits(x, [label])


def test_reshape_gradients():
    rng = np.random.default_rng(9)
    a = leaf(rng, 2, 6)
    b = leaf(rng, 3, 4)
    def build():
        s0 = T.tsum(T.reshape(a, (3, 4)))
        s1 = T.tsum(T.reshape(b, (-1,)))
        return T.add(T.mul(s0, s0), T.mul(s1, s1))
    check_grads(build, {"a": a, "b": b})


def test_scale_and_mean():
    rng = np.random.default_rng(10)
    x = leaf(rng, 7)
    check_grads(lambda: T.mul(T.tmean(x), Tensor(np.array(3.5))), {"x": x})


def test_conv2d_gradient():
    rng = np.random.default_rng(11)
    x = leaf(rng, 2, 2, 6, 6)
    k = leaf(rng, 3, 2, 3, 3)
    check_grads(lambda: T.tsum(T.conv2d(x, k, stride=2, padding=1)),
                {"x": x, "k": k}, tol=3e-4)


def test_conv2d_rejects_even_kernel_and_empty_output():
    rng = np.random.default_rng(12)
    x = leaf(rng, 1, 1, 4, 4)
    with pytest.raises(ParameterError):
        T.conv2d(x, leaf(rng, 1, 1, 2, 2))
    with pytest.raises(ShapeError):
        T.conv2d(leaf(rng, 1, 1, 1, 1), leaf(rng, 1, 1, 5, 5), stride=1, padding=0)
    with pytest.raises(ShapeError):  # one image is a batch of one
        T.conv2d(leaf(rng, 1, 4, 4), leaf(rng, 1, 1, 3, 3))
    with pytest.raises(ShapeError):
        T.conv2d(Tensor(np.zeros((0, 1, 4, 4))), leaf(rng, 1, 1, 3, 3))


def test_conv2d_backward_computes_only_the_needed_gradients(monkeypatch):
    # one batched kernel call per pass over the whole batch of three, and
    # none for a gradient no parent needs
    rng = np.random.default_rng(20)
    image = rng.normal(size=(3, 2, 5, 5))
    k = leaf(rng, 3, 2, 3, 3)
    x = Tensor(image, requires_grad=True)
    T.tsum(T.conv2d(x, k, stride=2, padding=1)).backward()
    want = k.grad
    calls = {"conv2d_forward_batch": 0, "conv2d_backward_input_batch": 0,
             "conv2d_backward_kernel_batch": 0}
    for name in calls:
        def counted(*args, _name=name, _fn=getattr(T.kernels, name)):
            calls[_name] += 1
            return _fn(*args)
        monkeypatch.setattr(T.kernels, name, counted)
    k.zero_grad()
    T.tsum(T.conv2d(Tensor(image), k, stride=2, padding=1)).backward()
    assert calls == {"conv2d_forward_batch": 1, "conv2d_backward_input_batch": 0,
                     "conv2d_backward_kernel_batch": 1}
    np.testing.assert_array_equal(k.grad, want)
    frozen = Tensor(k.data)
    T.tsum(T.conv2d(Tensor(image, requires_grad=True), frozen, padding=1)).backward()
    assert calls == {"conv2d_forward_batch": 2, "conv2d_backward_input_batch": 1,
                     "conv2d_backward_kernel_batch": 1}


def test_conv1d_channel_oracle_and_gradient():
    # correlate([1,2,3], [1,1,1], same) with zero ends -> [3, 6, 5]
    x = Tensor(np.array([[1.0, 2.0, 3.0]]), requires_grad=True)
    k = Tensor(np.array([1.0, 1.0, 1.0]), requires_grad=True)
    y = T.conv1d_channel(x, k)
    assert np.allclose(y.data, [3.0, 6.0, 5.0])
    rng = np.random.default_rng(13)
    for c, kk in ((8, 3), (16, 5), (5, 5)):
        x = leaf(rng, 2, c)
        k = leaf(rng, kk)
        check_grads(lambda: T.tsum(T.mul(T.conv1d_channel(x, k), x)),
                    {"x": x, "k": k})
    with pytest.raises(ParameterError):
        T.conv1d_channel(leaf(rng, 1, 3), leaf(rng, 5))


def test_adaptive_pool_ramp_oracle():
    # blocks {0,1,4,5}, {2,3,6,7}, {8,9,12,13}, {10,11,14,15}
    ramp = Tensor(np.arange(16, dtype=np.float64).reshape(1, 1, 4, 4))
    out = T.adaptive_avg_pool2d(ramp, (2, 2))
    assert np.allclose(out.data, [[[2.5, 4.5], [10.5, 12.5]]])


def test_adaptive_and_global_pool_gradients():
    rng = np.random.default_rng(14)
    x = leaf(rng, 2, 3, 7, 5)
    w = Tensor(rng.normal(size=(2, 3, 2, 2)))
    check_grads(lambda: T.tsum(T.mul(T.adaptive_avg_pool2d(x, (2, 2)), w)),
                {"x": x})
    check_grads(lambda: T.tsum(T.global_avg_pool(x)), {"x": x})


def test_scale_channels_gradient():
    rng = np.random.default_rng(15)
    x = leaf(rng, 2, 4, 3, 3)
    s = leaf(rng, 2, 4)
    check_grads(lambda: T.tsum(T.scale_channels(x, s)), {"x": x, "s": s})


def test_backward_accumulates_into_shared_leaf():
    x = Tensor(np.array([2.0]), requires_grad=True)
    y = T.add(T.mul(x, x), T.mul(x, x))
    T.tsum(y).backward()
    assert x.grad == pytest.approx(np.array([8.0]))


def test_backward_keeps_leaves_sharing_one_gradient_apart():
    # add hands one upstream array to both parents
    a = Tensor(np.array([1.0, 2.0]), requires_grad=True)
    b = Tensor(np.array([3.0, 4.0]), requires_grad=True)
    T.tsum(T.add(a, b)).backward()
    T.tsum(T.mul(a, Tensor(np.full(2, 2.0)))).backward()
    np.testing.assert_array_equal(a.grad, [3.0, 3.0])
    np.testing.assert_array_equal(b.grad, [1.0, 1.0])


def test_backward_seed():
    x = Tensor(np.array([1.0, 2.0, 3.0]), requires_grad=True)
    y = T.mul(x, x)
    y.backward(seed=np.array([1.0, 0.0, 2.0]))
    assert np.allclose(x.grad, [2.0, 0.0, 12.0])


def test_no_grad_blocks_tape():
    x = Tensor(np.ones(3), requires_grad=True)
    with no_grad():
        y = T.mul(x, x)
    assert y._prev == ()
    assert not y.requires_grad


def test_no_grad_in_another_thread_keeps_this_threads_tape():
    entered, release = threading.Event(), threading.Event()

    def hold_no_grad():
        with no_grad():
            entered.set()
            release.wait(timeout=30)

    helper = threading.Thread(target=hold_no_grad)
    helper.start()
    try:
        assert entered.wait(timeout=30)
        x = Tensor(np.ones(3), requires_grad=True)
        y = T.mul(x, x)
        assert T.grad_enabled()
        assert y.requires_grad
        assert y._prev == (x, x)
    finally:
        release.set()
        helper.join(timeout=30)
    assert not helper.is_alive()


def test_non_finite_input_rejected():
    with pytest.raises(DataError):
        Tensor(np.array([1.0, np.inf]))
    with pytest.raises(DataError):
        Tensor(np.array([np.nan]))


def test_matmul_shape_mismatch():
    rng = np.random.default_rng(16)
    with pytest.raises(ShapeError):
        T.matmul(leaf(rng, 2, 3), leaf(rng, 4, 2))


def test_per_sample_gradients_match_seeded_backward():
    rng = np.random.default_rng(17)
    for _ in range(5):
        w = leaf(rng, 3, 2)
        b = leaf(rng, 2)
        xs = rng.normal(size=(4, 3))
        def loss_vec():
            rows = T.add_rowvec(T.matmul(Tensor(xs), w), b)
            return row_sums(T.mul(rows, rows))
        params = {"w": w, "b": b}
        per = gradients_from_factors(T.per_sample_gradients(loss_vec(), params),
                                     params, 4)
        for i in range(4):
            fresh = loss_vec()
            w.zero_grad(); b.zero_grad()
            seed = np.zeros(4); seed[i] = 1.0
            fresh.backward(seed=seed)
            assert rel_err(per[i]["w"], w.grad) < 1e-12
            assert rel_err(per[i]["b"], b.grad) < 1e-12


def test_per_sample_gradients_ignore_a_stale_grad():
    w = Tensor(np.array([[2.0]]), requires_grad=True)

    def losses():  # [4w, 3w]
        return T.reshape(T.matmul(Tensor(np.array([[4.0], [3.0]])), w), (-1,))

    T.tmean(losses()).backward()
    assert float(w.grad[0, 0]) == 3.5  # left over from the mean-loss backward
    factors = T.per_sample_gradients(losses(), {"w": w})
    per = gradients_from_factors(factors, {"w": w}, 2)
    assert [float(g["w"][0, 0]) for g in per] == [4.0, 3.0]
    assert w.grad is None


def test_per_sample_gradient_factors_rebuild_dense_kernel_gradients():
    # stride 1 and 2, pad 0 and 1, a kernel applied twice per sample, one
    # whose term only odd samples' losses keep, one reached by no sample,
    # and channel attention's kernel
    rng = np.random.default_rng(21)
    kernels = {"down": leaf(rng, 3, 2, 3, 3), "twice": leaf(rng, 3, 3, 3, 3),
               "odd": leaf(rng, 2, 3, 1, 1), "unused": leaf(rng, 2, 2, 3, 3)}
    params = {**kernels, "eca": leaf(rng, 3)}
    images = rng.normal(size=(4, 2, 7, 7))
    odd_samples = np.arange(len(images)) % 2.0

    def losses(idx):
        x = T.relu(T.conv2d(Tensor(images[idx]), kernels["down"], stride=2, padding=1))
        x = T.scale_channels(x, T.sigmoid(T.conv1d_channel(T.global_avg_pool(x),
                                                           params["eca"])))
        x = T.relu(T.conv2d(x, kernels["twice"], stride=1, padding=1))
        x = T.conv2d(x, kernels["twice"], stride=1, padding=1)
        odd = T.conv2d(x, kernels["odd"], stride=1, padding=0)
        return T.add(row_sums(T.mul(x, x)),
                     T.mul(Tensor(odd_samples[idx]), row_sums(T.mul(odd, odd))))

    everyone = list(range(len(images)))
    want = batch_of_one_gradients(losses, everyone, params)
    factors = T.per_sample_gradients(losses(everyone), params)
    for i, grads in enumerate(gradients_from_factors(factors, params, len(images))):
        for name, g in grads.items():
            np.testing.assert_allclose(g, want[i][name], rtol=1e-12, atol=0)
    assert not want[0]["odd"].any() and not want[2]["odd"].any()
    left, right, owner = factors
    for name, k in params.items():
        assert k.grad is None
    for name in left:
        assert left[name].shape[1] == right[name].shape[1] == owner[name].size
    # a conv kernel: one record per application, its images in order and
    # the later application first, with a column per output position (4x4)
    assert left["down"].shape == (3, 4 * 16) and right["down"].shape == (18, 4 * 16)
    np.testing.assert_array_equal(owner["twice"], np.repeat([0, 1, 2, 3] * 2, 16))
    np.testing.assert_array_equal(owner["odd"], np.repeat([0, 1, 2, 3], 16))
    # conv1d_channel's kernel: the per-sample rows and ones, a column each
    assert left["eca"].shape == (3, 4) and right["eca"].shape == (1, 4)
    np.testing.assert_array_equal(right["eca"], 1.0)
    np.testing.assert_array_equal(owner["eca"], [0, 1, 2, 3])
    # no sample reaches it: no factors at all
    assert list(left) == list(right) == list(owner) == ["down", "twice", "odd", "eca"]
    assert owner["odd"].dtype == np.int64


@pytest.mark.parametrize("stride,padding", [(1, 0), (2, 1)])
def test_conv_factors_are_the_per_image_records_side_by_side(stride, padding):
    # one record per conv application, laid out as the per-image records
    # (output gradient, unfolded input) side by side in image order
    rng = np.random.default_rng(23)
    k = leaf(rng, 4, 2, 3, 1)
    images = rng.normal(size=(3, 2, 7, 6))
    y = T.conv2d(Tensor(images), k, stride=stride, padding=padding)
    weights = rng.normal(size=y.shape)
    left, right, owner = T.per_sample_gradients(
        row_sums(T.mul(y, Tensor(weights))), {"k": k})
    cols = [T.kernels.unfold(image[None], 3, 1, stride, padding) for image in images]
    np.testing.assert_array_equal(
        left["k"], np.hstack([g.reshape(4, -1) for g in weights]))
    np.testing.assert_array_equal(right["k"], np.hstack(cols))
    np.testing.assert_array_equal(
        owner["k"], np.concatenate([np.full(c.shape[1], i) for i, c in enumerate(cols)]))


def test_per_sample_gradient_factors_need_conv_only_kernels():
    rng = np.random.default_rng(22)
    k = leaf(rng, 2, 1, 3, 3)
    image = Tensor(rng.normal(size=(2, 1, 4, 4)))

    def losses():
        y = T.conv2d(image, k, padding=1)
        # k also reaches the loss through reshape, which records nothing
        return T.add(row_sums(y), row_sums(T.reshape(k, (2, 9))))

    with pytest.raises(TapeError):
        T.per_sample_gradients(losses(), {"k": k})
    assert k.grad is None
    with pytest.raises(ParameterError):
        T.per_sample_gradients(losses(), {"k": k, "again": k})
    # the recording ends with the call: a later backward fills .grad again
    k.zero_grad()
    T.tsum(T.conv2d(image, k, padding=1)).backward()
    assert k.grad is not None


def test_per_sample_gradients_reject_detached():
    with pytest.raises(TapeError):
        T.per_sample_gradients(Tensor(np.ones(3)), {})


def test_per_sample_gradients_from_one_batched_backward():
    # a stride-2 stage, padding 1 and channel attention; the class loss
    # never reaches head.reg.*, which has no factors
    rng = np.random.default_rng(18)
    net = AestheticNet(rng, stem_channels=4, stage_channels=(4, 6), head_width=8)
    images = rng.normal(size=(5, 3, 8, 8))
    labels = rng.integers(0, 10, size=5)

    def losses(idx):
        return T.cross_entropy_logits(net.forward(Tensor(images[idx])), labels[idx])

    factors = T.per_sample_gradients(losses(np.arange(5)), net.params)
    want = batch_of_one_gradients(losses, range(5), net.params)
    for i, grads in enumerate(gradients_from_factors(factors, net.params, 5)):
        for n, g in grads.items():
            np.testing.assert_allclose(g, want[i][n], rtol=1e-12, atol=0)
    left, right, owner = factors
    # matmul's right operand: the input rows and output gradients, a
    # column per sample
    assert left["head.class.w"].shape == (8, 5) and right["head.class.w"].shape == (10, 5)
    np.testing.assert_array_equal(owner["head.class.w"], np.arange(5))
    for n in ("head.reg.w", "head.reg.b"):
        assert n not in left and n not in right and n not in owner
    assert len(left) == len(net.params) - 2
    # stacked in C order, a lone matmul record (a transposed view) too
    assert all(a.flags.c_contiguous for part in (left, right) for a in part.values())

    # a recorded parameter reaching the loss through any other op, or
    # meeting a batch that is not the loss's samples, is refused
    feats = net.features(Tensor(images))
    w = net.params["head.class.w"]
    for routed in (T.reshape(w, w.shape), T.add(w, w)):
        losses = T.cross_entropy_logits(T.matmul(feats, routed), labels)
        with pytest.raises(TapeError, match="head.class.w"):
            T.per_sample_gradients(losses, {"head.class.w": w})
        assert w.grad is None
    one_row = T.reshape(T.matmul(Tensor(np.ones((1, 8))), w), (-1,))
    with pytest.raises(TapeError, match="batch of 1 rows"):
        T.per_sample_gradients(one_row, {"head.class.w": w})


def test_toposort_handles_deep_chain():
    # iterative traversal must not hit the recursion limit
    x = Tensor(np.array([1.0]), requires_grad=True)
    y = x
    for _ in range(5000):
        y = T.add(y, x)
    T.tsum(y).backward()
    assert x.grad[0] == pytest.approx(5001.0)
