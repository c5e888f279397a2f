"""Shared test utilities: central finite differences, error measures,
batch-of-one reference gradients, a tensor sum and a call spy."""

import collections

import numpy as np

from amcr import tensor as T


def numerical_grad(f, arrays, eps=1e-6):
    """Central-difference gradient of scalar f() w.r.t. each array.

    `arrays` maps name -> np.ndarray; entries are perturbed in place and
    restored, so f must read them afresh on every call.
    """
    grads = {}
    for name, arr in arrays.items():
        g = np.zeros_like(arr, dtype=np.float64)
        flat = arr.reshape(-1)
        gf = g.reshape(-1)
        for i in range(flat.size):
            keep = flat[i]
            flat[i] = keep + eps
            hi = float(f())
            flat[i] = keep - eps
            lo = float(f())
            flat[i] = keep
            gf[i] = (hi - lo) / (2.0 * eps)
        grads[name] = g
    return grads


def plus(a, b):
    """a + b as a - (0 - b): bitwise the sum, and each operand's gradient
    the upstream one."""
    return T.sub(a, T.sub(T.Tensor(np.zeros(b.shape)), b))


def rel_err(a, b):
    """Max elementwise difference over the max magnitude of either side."""
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    scale = max(1e-8, float(np.abs(a).max(initial=0.0)),
                float(np.abs(b).max(initial=0.0)))
    if a.size == 0:
        return 0.0
    return float(np.abs(a - b).max() / scale)


def batch_of_one_gradients(loss_of, samples, params):
    """Each sample's gradients taken the plain way, independent of
    per_sample_gradients: a .backward() of loss_of([sample]), the sample's
    loss vector as a batch of one. Returns one name -> array dict per
    sample, zeros for a parameter its loss does not reach, and leaves
    every parameter's .grad cleared."""
    grads = []
    for sample in samples:
        for p in params.values():
            p.zero_grad()
        loss_of([sample]).backward()
        grads.append({name: np.zeros_like(p.data) if p.grad is None else p.grad.copy()
                      for name, p in params.items()})
    for p in params.values():
        p.zero_grad()
    return grads


def gradients_from_factors(factors, params, samples):
    """One name -> array dict per sample, rebuilt from the (left, right)
    factors of per_sample_gradients: sample n's gradient is left @ right.T
    over the columns n, n + samples, n + 2 * samples, ..."""
    left, right = factors
    return [{name: (left[name][:, n::samples] @ right[name][:, n::samples].T
                    ).reshape(params[name].shape) for name in left}
            for n in range(samples)]


def spy_calls(monkeypatch, module, names):
    """Wrap each function in `names` on `module`, for the test's duration,
    so that every call first appends (name, args) to the returned list.
    The callers look the functions up on the module at call time."""
    calls = []
    for name in names:
        def spy(*args, _fn=getattr(module, name), _name=name):
            calls.append((_name, args))
            return _fn(*args)
        monkeypatch.setattr(module, name, spy)
    return calls


def call_counts(calls):
    """name -> number of calls in a spy_calls list."""
    return collections.Counter(name for name, _ in calls)
