"""Dense float64 tensor with reverse-mode differentiation.

Define-by-run: every op whose inputs require gradients records its parents
and a local backward closure on the result, so backward() can replay the
graph in reverse topological order. The graph for one training step is
rebuilt each iteration; nothing is compiled or cached.

Values are numpy float64 arrays. Non-finite elements are rejected at op
boundaries (every Tensor construction checks). Scalars are 0-d arrays.
"""

import math
from contextlib import contextmanager
from contextvars import ContextVar

import numpy as np

from . import kernels
from .errors import DataError, ParameterError, ShapeError, TapeError

# per thread (and per asyncio task): one thread's no_grad() block cannot
# detach the graphs another thread is building
_grad_enabled = ContextVar("amcr_grad_enabled", default=True)


@contextmanager
def no_grad():
    """Disable graph recording inside the block (inference/eval paths)."""
    token = _grad_enabled.set(False)
    try:
        yield
    finally:
        _grad_enabled.reset(token)


def grad_enabled() -> bool:
    return _grad_enabled.get()


class Tensor:
    """n-d float64 value, optionally participating in the gradient graph."""

    __slots__ = ("data", "grad", "requires_grad", "_prev", "_backward", "_op")

    def __init__(self, data, requires_grad=False, _prev=(), _backward=None, _op=""):
        arr = np.asarray(data, dtype=np.float64)
        if not np.all(np.isfinite(arr)):
            raise DataError("non-finite element entering tensor op")
        self.data = arr
        self.grad = None
        self.requires_grad = bool(requires_grad)
        self._prev = _prev
        self._backward = _backward
        self._op = _op

    @property
    def shape(self):
        return self.data.shape

    def item(self) -> float:
        return float(self.data)

    def detach(self) -> "Tensor":
        return Tensor(self.data.copy())

    def zero_grad(self):
        self.grad = None

    def _accumulate(self, g):
        if self.grad is None:
            self.grad = np.zeros_like(self.data)
        self.grad += g

    def backward(self, seed=None):
        """Backpropagate from this tensor.

        `seed` is the upstream gradient (defaults to ones, so a scalar
        gets the usual d(self)/d(self) = 1). Leaf tensors with
        requires_grad accumulate into .grad.
        """
        if not self.requires_grad:
            raise TapeError("backward() on a tensor detached from the graph")
        topo = _toposort(self)
        grads = {id(self): np.ones_like(self.data) if seed is None
                 else np.asarray(seed, dtype=np.float64)}
        for node in reversed(topo):
            g = grads.pop(id(node), None)
            if g is None:
                continue
            if node._backward is None:
                node._accumulate(g)
                continue
            for parent, pg in node._backward(g):
                if not parent.requires_grad:
                    continue
                key = id(parent)
                if key in grads:
                    grads[key] = grads[key] + pg
                else:
                    grads[key] = pg

    def __repr__(self):
        return f"Tensor(shape={self.data.shape}, requires_grad={self.requires_grad})"

    # operator sugar; the named functions below do the work
    def __add__(self, other):
        return add(self, other)

    def __sub__(self, other):
        return sub(self, other)

    def __mul__(self, other):
        if isinstance(other, (int, float)):
            return scale(self, float(other))
        return mul(self, other)

    def __rmul__(self, other):
        return scale(self, float(other))

    def __neg__(self):
        return scale(self, -1.0)

    def __matmul__(self, other):
        return matmul(self, other)


def _toposort(root):
    order, visited = [], set()
    stack = [(root, False)]
    while stack:
        node, done = stack.pop()
        if done:
            order.append(node)
            continue
        if id(node) in visited:
            continue
        visited.add(id(node))
        stack.append((node, True))
        for p in node._prev:
            if id(p) not in visited:
                stack.append((p, False))
    return order


def as_tensor(x) -> Tensor:
    return x if isinstance(x, Tensor) else Tensor(x)


def _make(data, parents, backward, op):
    track = _grad_enabled.get() and any(p.requires_grad for p in parents)
    if track:
        return Tensor(data, requires_grad=True, _prev=tuple(parents),
                      _backward=backward, _op=op)
    return Tensor(data)


# ---------------------------------------------------------------------------
# elementwise suite


def add(a: Tensor, b: Tensor) -> Tensor:
    a, b = as_tensor(a), as_tensor(b)
    if a.shape != b.shape:
        raise ShapeError(f"add: {a.shape} vs {b.shape}")
    return _make(a.data + b.data, (a, b), lambda g: ((a, g), (b, g)), "add")


def sub(a: Tensor, b: Tensor) -> Tensor:
    a, b = as_tensor(a), as_tensor(b)
    if a.shape != b.shape:
        raise ShapeError(f"sub: {a.shape} vs {b.shape}")
    return _make(a.data - b.data, (a, b), lambda g: ((a, g), (b, -g)), "sub")


def mul(a: Tensor, b: Tensor) -> Tensor:
    a, b = as_tensor(a), as_tensor(b)
    if a.shape != b.shape:
        raise ShapeError(f"mul: {a.shape} vs {b.shape}")
    return _make(a.data * b.data, (a, b),
                 lambda g: ((a, g * b.data), (b, g * a.data)), "mul")


def scale(a: Tensor, s: float) -> Tensor:
    a = as_tensor(a)
    s = float(s)
    return _make(a.data * s, (a,), lambda g: ((a, g * s),), "scale")


def relu(a: Tensor) -> Tensor:
    a = as_tensor(a)
    mask = a.data > 0.0  # subgradient at 0 is 0
    return _make(np.where(mask, a.data, 0.0), (a,),
                 lambda g: ((a, g * mask),), "relu")


def _sigmoid(x):
    out = np.empty_like(x)
    pos = x >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ex = np.exp(x[~pos])
    out[~pos] = ex / (1.0 + ex)
    return out


def sigmoid(a: Tensor) -> Tensor:
    a = as_tensor(a)
    s = _sigmoid(np.atleast_1d(a.data)).reshape(a.shape)
    return _make(s, (a,), lambda g: ((a, g * s * (1.0 - s)),), "sigmoid")


def tsum(a: Tensor) -> Tensor:
    a = as_tensor(a)
    return _make(a.data.sum(), (a,),
                 lambda g: ((a, np.broadcast_to(g, a.shape).copy()),), "sum")


def tmean(a: Tensor) -> Tensor:
    a = as_tensor(a)
    n = a.data.size
    return _make(a.data.sum() / n, (a,),
                 lambda g: ((a, np.broadcast_to(g / n, a.shape).copy()),), "mean")


def reshape(a: Tensor, shape) -> Tensor:
    a = as_tensor(a)
    return _make(a.data.reshape(shape), (a,),
                 lambda g: ((a, g.reshape(a.shape)),), "reshape")


def flatten(a: Tensor) -> Tensor:
    return reshape(a, (-1,))


def stack(tensors) -> Tensor:
    """Stack same-shaped tensors along a new leading axis.

    per_sample_gradients accepts only a stack of per-sample scalars, so
    loss vectors must be built with this op.
    """
    tensors = [as_tensor(t) for t in tensors]
    if not tensors:
        raise ShapeError("stack: empty input")
    base = tensors[0].shape
    if any(t.shape != base for t in tensors):
        raise ShapeError("stack: mismatched shapes")
    data = np.stack([t.data for t in tensors])

    def backward(g):
        return tuple((t, g[i]) for i, t in enumerate(tensors))

    return _make(data, tensors, backward, "stack")


# ---------------------------------------------------------------------------
# linear algebra


def matmul(a: Tensor, b: Tensor) -> Tensor:
    a, b = as_tensor(a), as_tensor(b)
    if a.data.ndim != 2 or b.data.ndim != 2:
        raise ShapeError("matmul expects 2-d operands")
    if a.shape[1] != b.shape[0]:
        raise ShapeError(f"matmul: inner dims {a.shape} x {b.shape}")

    def backward(g):
        return ((a, g @ b.data.T), (b, a.data.T @ g))

    return _make(a.data @ b.data, (a, b), backward, "matmul")


def add_rowvec(m: Tensor, v: Tensor) -> Tensor:
    """Add a length-k vector to every row of an (n, k) matrix."""
    m, v = as_tensor(m), as_tensor(v)
    if m.data.ndim != 2 or v.data.ndim != 1 or m.shape[1] != v.shape[0]:
        raise ShapeError(f"add_rowvec: {m.shape} vs {v.shape}")
    return _make(m.data + v.data[None, :], (m, v),
                 lambda g: ((m, g), (v, g.sum(axis=0))), "add_rowvec")


# ---------------------------------------------------------------------------
# convolution / pooling ops (hot kernels live in kernels.py)


def conv2d(x: Tensor, k: Tensor, stride: int = 1, padding: int = 0) -> Tensor:
    x, k = as_tensor(x), as_tensor(k)
    if x.data.ndim != 3 or k.data.ndim != 4:
        raise ShapeError("conv2d expects x (C,H,W) and kernels (Co,Ci,kh,kw)")
    cin, h, w = x.shape
    cout, kcin, kh, kw = k.shape
    if kcin != cin:
        raise ShapeError(f"conv2d: input channels {cin} vs kernel {kcin}")
    if kh % 2 == 0 or kw % 2 == 0:
        raise ParameterError("conv2d kernel extent must be odd")
    ho = (h + 2 * padding - kh) // stride + 1
    wo = (w + 2 * padding - kw) // stride + 1
    if ho < 1 or wo < 1:
        raise ShapeError(f"conv2d: output extent {ho}x{wo} < 1")
    xd = np.ascontiguousarray(x.data)
    kd = np.ascontiguousarray(k.data)
    out = kernels.conv2d_forward(xd, kd, stride, padding)

    def backward(g):
        g = np.ascontiguousarray(g)
        return ((x, kernels.conv2d_backward_input(g, kd, stride, padding, h, w)),
                (k, kernels.conv2d_backward_kernel(g, xd, stride, padding, kh, kw)))

    return _make(out, (x, k), backward, "conv2d")


def conv1d_channel(x: Tensor, kernel: Tensor) -> Tensor:
    """Channel-wise 1D convolution with one shared odd-length kernel, zero padded."""
    x, kernel = as_tensor(x), as_tensor(kernel)
    if x.data.ndim != 1 or kernel.data.ndim != 1:
        raise ShapeError("conv1d_channel expects vectors")
    k = kernel.shape[0]
    if k % 2 == 0:
        raise ParameterError("conv1d_channel kernel length must be odd")
    c = x.shape[0]
    if k > c:
        raise ParameterError(f"conv1d_channel kernel {k} longer than channels {c}")
    # out[i] = sum_j kernel[j] * x[i + j - k//2], zeros outside
    out = np.correlate(x.data, kernel.data, mode="same")

    def backward(g):
        dx = np.convolve(g, kernel.data, mode="same")
        half = k // 2
        padded = np.zeros(c + 2 * half)
        padded[half:half + c] = x.data
        dk = np.array([float(np.dot(g, padded[j:j + c])) for j in range(k)])
        return ((x, dx), (kernel, dk))

    return _make(out, (x, kernel), backward, "conv1d")


def adaptive_avg_pool2d(x: Tensor, target) -> Tensor:
    x = as_tensor(x)
    if x.data.ndim != 3:
        raise ShapeError("adaptive_avg_pool2d expects (C,H,W)")
    th, tw = int(target[0]), int(target[1])
    c, h, w = x.shape
    if th > h or tw > w or th < 1 or tw < 1:
        raise ShapeError(f"adaptive_avg_pool2d: target {th}x{tw} vs input {h}x{w}")
    out = kernels.adaptive_avg_pool_forward(np.ascontiguousarray(x.data), th, tw)

    def backward(g):
        return ((x, kernels.adaptive_avg_pool_backward(np.ascontiguousarray(g), h, w)),)

    return _make(out, (x,), backward, "adaptive_avg_pool2d")


def global_avg_pool(x: Tensor) -> Tensor:
    """(C, H, W) -> (C,) per-channel spatial mean."""
    x = as_tensor(x)
    if x.data.ndim != 3:
        raise ShapeError("global_avg_pool expects (C,H,W)")
    c, h, w = x.shape
    area = h * w

    def backward(g):
        return ((x, np.repeat(g / area, area).reshape(c, h, w)),)

    return _make(x.data.sum(axis=(1, 2)) / area, (x,), backward, "global_avg_pool")


def scale_channels(x: Tensor, s: Tensor) -> Tensor:
    """Multiply each channel of (C, H, W) by the matching entry of s (C,)."""
    x, s = as_tensor(x), as_tensor(s)
    if x.data.ndim != 3 or s.data.ndim != 1 or x.shape[0] != s.shape[0]:
        raise ShapeError(f"scale_channels: {x.shape} vs {s.shape}")

    def backward(g):
        return ((x, g * s.data[:, None, None]),
                (s, (g * x.data).sum(axis=(1, 2))))

    return _make(x.data * s.data[:, None, None], (x, s), backward, "scale_channels")


def cross_entropy_logits(z: Tensor, label: int) -> Tensor:
    """Scalar cross-entropy of one logits vector against an integer label.

    Fused log-sum-exp keeps the op stable for large logits; composing
    softmax then log would lose precision for near-zero probabilities.
    """
    z = as_tensor(z)
    if z.data.ndim != 1:
        raise ShapeError("cross_entropy_logits expects a logits vector")
    label = int(label)
    if not 0 <= label < z.shape[0]:
        raise DataError(f"label {label} outside 0..{z.shape[0] - 1}")
    m = z.data.max()
    e = np.exp(z.data - m)
    lse = m + math.log(e.sum())
    p = e / e.sum()

    def backward(g):
        dz = p.copy()
        dz[label] -= 1.0
        return ((z, dz * g),)

    return _make(np.float64(lse - z.data[label]), (z,), backward, "cross_entropy")


# ---------------------------------------------------------------------------
# per-sample gradients


def per_sample_gradients(loss_vector: Tensor, params):
    """Gradient of each entry of `loss_vector` w.r.t. every tensor in `params`.

    `loss_vector` must be a `stack` of per-sample scalars. Returns a list
    (one dict per sample) mapping parameter name to its gradient array;
    parameters a sample does not reach get zeros. The mean of the
    returned gradients equals the gradient of the mean loss up to float
    summation order.
    """
    if not isinstance(loss_vector, Tensor) or not loss_vector.requires_grad:
        raise TapeError("per_sample_gradients: loss vector is detached from the graph")
    if loss_vector.data.ndim != 1:
        raise ShapeError("per_sample_gradients expects a loss vector")
    if loss_vector._op != "stack" or len(loss_vector._prev) != loss_vector.shape[0]:
        raise TapeError("per_sample_gradients: loss vector must be a stack "
                        "of per-sample scalars")
    named = dict(params) if isinstance(params, dict) else {str(i): p for i, p in enumerate(params)}

    def snapshot():
        out = {}
        for name, p in named.items():
            out[name] = np.zeros_like(p.data) if p.grad is None else p.grad.copy()
            p.grad = None
        return out

    grads = []
    for scalar in loss_vector._prev:
        # each per-sample scalar backpropagates through its own subgraph
        if scalar.requires_grad:
            scalar.backward()
        grads.append(snapshot())
    return grads
