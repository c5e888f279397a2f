"""Optimizer and plateau-schedule behavior pinned against hand traces."""

import tracemalloc

import numpy as np
import pytest

from amcr.errors import ParameterError
from amcr.optim import Adam, PlateauScheduler
from amcr.tensor import Tensor


def adam_reference(x0, grads, lr, b1, b2, eps, wd):
    """Straight-line transcription of the update rule for one array."""
    x = np.array(x0, dtype=np.float64)
    m = np.zeros_like(x)
    v = np.zeros_like(x)
    for t, g in enumerate(grads, start=1):
        g = np.asarray(g, dtype=np.float64) + wd * x
        m = b1 * m + (1 - b1) * g
        v = b2 * v + (1 - b2) * g * g
        mhat = m / (1 - b1 ** t)
        vhat = v / (1 - b2 ** t)
        x = x - lr * mhat / (np.sqrt(vhat) + eps)
    return x


@pytest.mark.parametrize("wd", [0.0, 1e-4, 0.1])
def test_adam_matches_reference_trace(wd):
    rng = np.random.default_rng(0)
    x0 = rng.standard_normal((3, 4))
    grads = [rng.standard_normal((3, 4)) for _ in range(25)]
    p = Tensor(x0.copy())
    opt = Adam(1e-2, betas=(0.9, 0.999), weight_decay=wd)
    for g in grads:
        opt.step({"p": p}, {"p": g})
    want = adam_reference(x0, grads, 1e-2, 0.9, 0.999, 1e-8, wd)
    np.testing.assert_array_equal(p.data, want)


def test_adam_first_step_size_is_lr():
    # bias correction makes the very first step lr * g/|g| up to eps
    p = Tensor(np.array([0.0]))
    opt = Adam(0.05)
    opt.step({"p": p}, {"p": np.array([3.0])})
    assert p.data[0] == pytest.approx(-0.05, rel=1e-6)
    p2 = Tensor(np.array([0.0]))
    opt2 = Adam(0.05)
    opt2.step({"p": p2}, {"p": np.array([-0.001])})
    assert p2.data[0] == pytest.approx(0.05, rel=1e-4)


def test_adam_default_betas():
    opt = Adam(1e-3)
    assert opt.b1 == 0.98 and opt.b2 == 0.999


def test_adam_updates_only_named_parameters():
    a, b = Tensor(np.array([1.0])), Tensor(np.array([1.0]))
    Adam(0.1).step({"a": a, "b": b}, {"a": np.array([1.0])})
    assert a.data[0] != 1.0
    assert b.data[0] == 1.0


def test_adam_parameter_validation():
    with pytest.raises(ParameterError):
        Adam(0.0)
    with pytest.raises(ParameterError):
        Adam(-1e-3)
    with pytest.raises(ParameterError):
        Adam(1e-3, betas=(1.0, 0.999))
    with pytest.raises(ParameterError):
        Adam(1e-3, betas=(0.9, -0.1))


def test_adam_rejects_gradient_shape_mismatch():
    p = Tensor(np.zeros((2, 2)))
    with pytest.raises(ParameterError):
        Adam(1e-3).step({"p": p}, {"p": np.zeros(3)})


def test_rejected_adam_step_changes_nothing():
    a, b = Tensor(np.array([1.0, 2.0])), Tensor(np.zeros((2, 2)))
    opt = Adam(0.1, weight_decay=0.01)
    opt.step({"a": a, "b": b}, {"a": np.array([1.0, -1.0])})
    before = a.data.copy(), b.data.copy(), opt.m["a"].copy(), opt.v["a"].copy()
    with pytest.raises(ParameterError):
        opt.step({"a": a, "b": b}, {"a": np.array([0.5, 0.5]), "b": np.zeros(3)})
    assert opt.t == 1
    assert set(opt.m) == set(opt.v) == {"a"}
    for got, want in zip((a.data, b.data, opt.m["a"], opt.v["a"]), before):
        np.testing.assert_array_equal(got, want)


def test_adam_step_memory_is_a_scratch_pair_and_the_new_parameter():
    # the moments exist after the first step; the second allocates two
    # scratch arrays and the replacing parameter array, nothing more
    p = Tensor(np.ones((1000, 1000)))
    grad = np.full((1000, 1000), 0.5)
    opt = Adam(1e-3, weight_decay=1e-4)
    opt.step({"p": p}, {"p": grad})
    tracemalloc.start()
    try:
        opt.step({"p": p}, {"p": grad})
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4 * p.data.nbytes, peak / p.data.nbytes


# ---------------------------------------------------------------------------
# plateau schedule


def test_plateau_halves_after_two_flat_rounds():
    opt = Adam(1.0)
    sched = PlateauScheduler(opt, mode="higher", patience=2)
    assert sched.observe(0.7) is False
    assert sched.observe(0.69) is False
    assert sched.observe(0.68) is True
    assert opt.lr == 0.5


def test_plateau_improvement_resets_streak():
    opt = Adam(1.0)
    sched = PlateauScheduler(opt, mode="higher", patience=2)
    for v in (0.5, 0.45, 0.6, 0.55):  # the 0.6 wipes out the 0.45 streak
        sched.observe(v)
    assert opt.lr == 1.0
    assert sched.observe(0.5) is True  # second flat round after the reset
    assert opt.lr == 0.5


def test_plateau_lower_mode():
    opt = Adam(1.0)
    sched = PlateauScheduler(opt, mode="lower", patience=2)
    trace = [sched.observe(v) for v in (1.0, 0.9, 0.95, 0.97)]
    assert trace == [False, False, False, True]
    assert opt.lr == 0.5


def test_plateau_halving_resets_the_streak():
    opt = Adam(1.0)
    sched = PlateauScheduler(opt, mode="higher", patience=2)
    for v in (0.9, 0.1, 0.1, 0.1):
        sched.observe(v)
    # halved once at the 3rd value; the 4th starts a new streak of one
    assert opt.lr == 0.5
    assert sched.streak == 1


def test_plateau_equal_value_is_not_improvement():
    opt = Adam(1.0)
    sched = PlateauScheduler(opt, mode="higher", patience=2)
    sched.observe(0.7)
    sched.observe(0.7)
    assert sched.streak == 1


def test_plateau_parameter_validation():
    opt = Adam(1.0)
    with pytest.raises(ParameterError):
        PlateauScheduler(opt, mode="sideways")
    with pytest.raises(ParameterError):
        PlateauScheduler(opt, factor=1.0)
    with pytest.raises(ParameterError):
        PlateauScheduler(opt, patience=0)
