"""Gradient and contract checks for the tensor engine."""

import threading

import numpy as np
import pytest

import amcr.tensor as T
from amcr.errors import DataError, ParameterError, ShapeError, TapeError
from amcr.tensor import Tensor, no_grad

from helpers import numerical_grad, rel_err


def leaf(rng, *shape):
    return Tensor(rng.normal(size=shape), requires_grad=True)


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
        out = T.cross_entropy_logits(Tensor(logits), label)
        shifted = logits - logits.max()
        expect = -(shifted[label] - np.log(np.exp(shifted).sum()))
        assert out.data == pytest.approx(expect, rel=1e-12)


def test_cross_entropy_gradient():
    rng = np.random.default_rng(7)
    for _ in range(5):
        x = leaf(rng, 8)
        label = int(rng.integers(8))
        check_grads(lambda: T.cross_entropy_logits(x, label), {"x": x})


def test_cross_entropy_shift_invariance():
    # the fused log-sum-exp stays exact for logits far from zero
    rng = np.random.default_rng(5)
    x = rng.normal(size=9)
    a = T.cross_entropy_logits(Tensor(x), 4)
    b = T.cross_entropy_logits(Tensor(x + 1000.0), 4)
    assert np.allclose(a.data, b.data, atol=1e-12)


def test_cross_entropy_label_check():
    x = Tensor(np.zeros(6))
    for label in (-1, 6):
        with pytest.raises(DataError):
            T.cross_entropy_logits(x, label)


def test_reshape_flatten_stack_gradients():
    rng = np.random.default_rng(9)
    a = leaf(rng, 2, 6)
    b = leaf(rng, 3, 4)
    def build():
        s0 = T.tsum(T.reshape(a, (3, 4)))
        s1 = T.tsum(T.flatten(b))
        return T.tsum(T.mul(T.stack([s0, s1]), T.stack([s0, s1])))
    check_grads(build, {"a": a, "b": b})


def test_scale_and_mean():
    rng = np.random.default_rng(10)
    x = leaf(rng, 7)
    check_grads(lambda: T.scale(T.tmean(x), 3.5), {"x": x})


def test_conv2d_gradient():
    rng = np.random.default_rng(11)
    x = leaf(rng, 2, 6, 6)
    k = leaf(rng, 3, 2, 3, 3)
    check_grads(lambda: T.tsum(T.conv2d(x, k, stride=2, padding=1)),
                {"x": x, "k": k}, tol=3e-4)


def test_conv2d_rejects_even_kernel_and_empty_output():
    rng = np.random.default_rng(12)
    x = leaf(rng, 1, 4, 4)
    with pytest.raises(ParameterError):
        T.conv2d(x, leaf(rng, 1, 1, 2, 2))
    with pytest.raises(ShapeError):
        T.conv2d(leaf(rng, 1, 1, 1), leaf(rng, 1, 1, 5, 5), stride=1, padding=0)


def test_conv1d_channel_oracle_and_gradient():
    # correlate([1,2,3], [1,1,1], same) with zero ends -> [3, 6, 5]
    x = Tensor(np.array([1.0, 2.0, 3.0]), requires_grad=True)
    k = Tensor(np.array([1.0, 1.0, 1.0]), requires_grad=True)
    y = T.conv1d_channel(x, k)
    assert np.allclose(y.data, [3.0, 6.0, 5.0])
    rng = np.random.default_rng(13)
    for c, kk in ((8, 3), (16, 5), (5, 5)):
        x = leaf(rng, c)
        k = leaf(rng, kk)
        check_grads(lambda: T.tsum(T.mul(T.conv1d_channel(x, k), x)),
                    {"x": x, "k": k})
    with pytest.raises(ParameterError):
        T.conv1d_channel(leaf(rng, 3), leaf(rng, 5))


def test_adaptive_pool_ramp_oracle():
    # blocks {0,1,4,5}, {2,3,6,7}, {8,9,12,13}, {10,11,14,15}
    ramp = Tensor(np.arange(16, dtype=np.float64).reshape(1, 4, 4))
    out = T.adaptive_avg_pool2d(ramp, (2, 2))
    assert np.allclose(out.data, [[[2.5, 4.5], [10.5, 12.5]]])


def test_adaptive_and_global_pool_gradients():
    rng = np.random.default_rng(14)
    x = leaf(rng, 3, 7, 5)
    w = Tensor(rng.normal(size=(3, 2, 2)))
    check_grads(lambda: T.tsum(T.mul(T.adaptive_avg_pool2d(x, (2, 2)), w)),
                {"x": x})
    check_grads(lambda: T.tsum(T.global_avg_pool(x)), {"x": x})


def test_scale_channels_gradient():
    rng = np.random.default_rng(15)
    x = leaf(rng, 4, 3, 3)
    s = leaf(rng, 4)
    check_grads(lambda: T.tsum(T.scale_channels(x, s)), {"x": x, "s": s})


def test_backward_accumulates_into_shared_leaf():
    x = Tensor(np.array([2.0]), requires_grad=True)
    y = T.add(T.mul(x, x), T.mul(x, x))
    T.tsum(y).backward()
    assert x.grad == pytest.approx(np.array([8.0]))


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
            rows = []
            for i in range(4):
                row = T.add_rowvec(T.matmul(Tensor(xs[i:i + 1]), w), b)
                rows.append(T.tsum(T.mul(row, row)))
            return T.stack(rows)
        losses = loss_vec()
        per = T.per_sample_gradients(losses, {"w": w, "b": b})
        for i in range(4):
            fresh = loss_vec()
            w.zero_grad(); b.zero_grad()
            seed = np.zeros(4); seed[i] = 1.0
            fresh.backward(seed=seed)
            assert rel_err(per[i]["w"], w.grad) < 1e-12
            assert rel_err(per[i]["b"], b.grad) < 1e-12


def test_per_sample_gradients_reject_detached():
    with pytest.raises(TapeError):
        T.per_sample_gradients(Tensor(np.ones(3)), {})


def test_per_sample_gradients_require_stacked_scalars():
    rng = np.random.default_rng(18)
    w = leaf(rng, 3)
    with pytest.raises(TapeError):
        T.per_sample_gradients(T.mul(w, w), {"w": w})


def test_toposort_handles_deep_chain():
    # iterative traversal must not hit the recursion limit
    x = Tensor(np.array([1.0]), requires_grad=True)
    y = x
    for _ in range(5000):
        y = T.add(y, x)
    T.tsum(y).backward()
    assert x.grad[0] == pytest.approx(5001.0)
