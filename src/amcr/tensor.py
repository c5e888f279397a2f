"""Dense float64 tensor with reverse-mode differentiation.

Define-by-run: every op whose inputs require gradients records its parents
and a local backward closure on the result, so backward() can replay the
graph in reverse topological order. The graph for one training step is
rebuilt each iteration; nothing is compiled or cached.

Values are numpy float64 arrays. Non-finite elements are rejected at op
boundaries (every Tensor construction checks). Scalars are 0-d arrays.

The network ops take a batch: images are (N, C, H, W), feature and logit
rows (N, K), and row n of every op belongs to sample n, so one graph
serves the whole batch and per_sample_gradients can split its one
backward by sample. It keeps every sample's gradient as two factors,
never formed whole: a conv kernel's as its output gradients and unfolded
inputs, a matmul operand's or a vector's as rank-one columns. Image
batches are batch-last, (N, C, H, W) views of (C, H, W, N) memory, and
the image ops keep them so: no conv pass transposes a batch. A conv
whose kernel may take a gradient keeps its unfolded input from its
forward until its backward, so neither pass unfolds the batch again.
"""

from contextlib import contextmanager
from contextvars import ContextVar

import numpy as np

from . import kernels
from .errors import DataError, ParameterError, ShapeError, TapeError

# per thread (and per asyncio task): one thread's no_grad() block cannot
# detach the graphs another thread is building
_grad_enabled = ContextVar("amcr_grad_enabled", default=True)
# (samples, id(parameter) -> records) while per_sample_gradients runs:
# each op applying a recorded parameter appends one (left, right) record
# of its per-sample gradients instead of summing them over the batch
_recording = ContextVar("amcr_recording", default=None)


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

    __slots__ = ("data", "grad", "requires_grad", "_prev", "_backward")

    def __init__(self, data, requires_grad=False, _prev=(), _backward=None):
        arr = np.asarray(data, dtype=np.float64)
        if not np.isfinite(arr).all():
            raise DataError("non-finite element entering tensor op")
        self.data = arr
        self.grad = None
        self.requires_grad = bool(requires_grad)
        self._prev = _prev
        self._backward = _backward

    @property
    def shape(self):
        return self.data.shape

    def zero_grad(self):
        self.grad = None

    def _accumulate(self, g):
        # never in place: g may be an array another node holds too (sub
        # hands its upstream gradient on as it is) or the caller's seed
        self.grad = g if self.grad is None else self.grad + g

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


def _make(data, parents, backward):
    track = _grad_enabled.get() and any(p.requires_grad for p in parents)
    if track:
        return Tensor(data, requires_grad=True, _prev=tuple(parents),
                      _backward=backward)
    return Tensor(data)


# ---------------------------------------------------------------------------
# elementwise suite


def sub(a: Tensor, b: Tensor) -> Tensor:
    a, b = as_tensor(a), as_tensor(b)
    if a.shape != b.shape:
        raise ShapeError(f"sub: {a.shape} vs {b.shape}")
    return _make(a.data - b.data, (a, b), lambda g: ((a, g), (b, -g)))


def mul(a: Tensor, b: Tensor) -> Tensor:
    a, b = as_tensor(a), as_tensor(b)
    if a.shape != b.shape:
        raise ShapeError(f"mul: {a.shape} vs {b.shape}")
    return _make(a.data * b.data, (a, b),
                 lambda g: ((a, g * b.data), (b, g * a.data)))


def relu(a: Tensor) -> Tensor:
    a = as_tensor(a)
    mask = a.data > 0.0  # subgradient at 0 is 0
    return _make(np.where(mask, a.data, 0.0), (a,),
                 lambda g: ((a, g * mask),))


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
    return _make(s, (a,), lambda g: ((a, g * s * (1.0 - s)),))


def tsum(a: Tensor) -> Tensor:
    a = as_tensor(a)
    return _make(a.data.sum(), (a,),
                 lambda g: ((a, np.broadcast_to(g, a.shape).copy()),))


def tmean(a: Tensor) -> Tensor:
    a = as_tensor(a)
    n = a.data.size
    return _make(a.data.sum() / n, (a,),
                 lambda g: ((a, np.broadcast_to(g / n, a.shape).copy()),))


def reshape(a: Tensor, shape) -> Tensor:
    a = as_tensor(a)
    return _make(a.data.reshape(shape), (a,),
                 lambda g: ((a, g.reshape(a.shape)),))


# ---------------------------------------------------------------------------
# linear algebra


def matmul(a: Tensor, b: Tensor) -> Tensor:
    a, b = as_tensor(a), as_tensor(b)
    if a.data.ndim != 2 or b.data.ndim != 2:
        raise ShapeError("matmul expects 2-d operands")
    if a.shape[1] != b.shape[0]:
        raise ShapeError(f"matmul: inner dims {a.shape} x {b.shape}")

    def backward(g):
        n = a.shape[0]
        rec = _recorder(b, n)
        if rec is None:
            return ((a, g @ b.data.T), (b, a.data.T @ g))
        rec.append((a.data.T, g.T))  # sample i: a_i outer g_i
        return ((a, g @ b.data.T),)

    return _make(a.data @ b.data, (a, b), backward)


def add_rowvec(m: Tensor, v: Tensor) -> Tensor:
    """Add a length-k vector to every row of an (n, k) matrix."""
    m, v = as_tensor(m), as_tensor(v)
    if m.data.ndim != 2 or v.data.ndim != 1 or m.shape[1] != v.shape[0]:
        raise ShapeError(f"add_rowvec: {m.shape} vs {v.shape}")

    def backward(g):
        n = m.shape[0]
        rec = _recorder(v, n)
        if rec is None:
            return ((m, g), (v, g.sum(axis=0)))
        rec.append((g.T, np.ones((1, n))))
        return ((m, g),)

    return _make(m.data + v.data[None, :], (m, v), backward)


# ---------------------------------------------------------------------------
# convolution / pooling ops (hot kernels live in kernels.py)


def conv2d(x: Tensor, k: Tensor, stride: int = 1, padding: int = 0) -> Tensor:
    """Convolve every image of an (N, Cin, H, W) batch with the kernels
    (Cout, Cin, kh, kw): a batch-last (N, Cout, Ho, Wo) batch. Each pass
    is one product over the whole batch, whatever N.

    The forward unfolds x once (kernels.unfold). When the kernel may take
    a gradient (it requires one and grad mode is on), the result keeps
    those columns until its first backward, which multiplies them into
    the kernel gradient, or hands them to per_sample_gradients as the
    gradient's right factor, and lets them go; a later backward through
    the same graph unfolds again, to the same bits."""
    x, k = as_tensor(x), as_tensor(k)
    if x.data.ndim != 4 or k.data.ndim != 4:
        raise ShapeError("conv2d expects x (N,C,H,W) and kernels (Co,Ci,kh,kw)")
    n, cin, h, w = x.shape
    cout, kcin, kh, kw = k.shape
    if kcin != cin:
        raise ShapeError(f"conv2d: input channels {cin} vs kernel {kcin}")
    if kh % 2 == 0 or kw % 2 == 0:
        raise ParameterError("conv2d kernel extent must be odd")
    ho = (h + 2 * padding - kh) // stride + 1
    wo = (w + 2 * padding - kw) // stride + 1
    if ho < 1 or wo < 1:
        raise ShapeError(f"conv2d: output extent {ho}x{wo} < 1")
    if n < 1:
        raise ShapeError("conv2d: empty batch")
    xd, kd = x.data, k.data  # batch-last x: no kernel copies it to transpose
    cols = kernels.unfold(xd, kh, kw, stride, padding)
    out = kernels.conv2d_forward_cols(cols, kd, ho, wo)
    # the kernel gradient's right factor, for the first backward only
    kept = [cols] if k.requires_grad and _grad_enabled.get() else []

    def backward(g):
        # skip the gradient no parent needs (the stem's input is the image)
        # the kernel's pass first: its columns are freed before dx exists
        grads = []
        if k.requires_grad:
            cols = kept.pop() if kept else kernels.unfold(xd, kh, kw, stride, padding)
            rec = _recorder(k, n)
            if rec is None:
                grads.append((k, kernels.conv2d_backward_kernel_cols(g, cols, k.shape)))
            else:
                rec.append((g.transpose(1, 2, 3, 0).reshape(cout, -1), cols))
            del cols
        if x.requires_grad:
            grads.append((x, kernels.conv2d_backward_input_batch(
                g, kd, stride, padding, h, w)))
        return grads

    return _make(out, (x, k), backward)


def _correlate_rows(rows, taps):
    """Each row of the (N, C) `rows` correlated with the odd-length `taps`
    to C outputs, zero padded: out[n, i] = sum_j taps[j] rows[n, i + j - k//2].
    The rows run end to end through one np.correlate, each between k//2
    zeros on both sides, so no window reaches into another row."""
    n, c = rows.shape
    half = taps.size // 2
    width = c + 2 * half
    flat = np.zeros(n * width + 2 * half)
    flat[:n * width].reshape(n, width)[:, half:half + c] = rows
    return np.correlate(flat, taps, mode="valid").reshape(n, width)[:, :c]


def conv1d_channel(x: Tensor, kernel: Tensor) -> Tensor:
    """Convolve each row of an (N, C) matrix along its C channels with one
    shared odd-length kernel, zero padded."""
    x, kernel = as_tensor(x), as_tensor(kernel)
    if x.data.ndim != 2 or kernel.data.ndim != 1:
        raise ShapeError("conv1d_channel expects (N, C) rows and a kernel vector")
    k = kernel.shape[0]
    if k % 2 == 0:
        raise ParameterError("conv1d_channel kernel length must be odd")
    n, c = x.shape
    if k > c:
        raise ParameterError(f"conv1d_channel kernel {k} longer than channels {c}")

    def backward(g):
        half = k // 2
        padded = np.zeros((n, c + 2 * half))
        padded[:, half:half + c] = x.data
        # row n: sample n's kernel gradient, one step per tap
        dk = np.stack([(g * padded[:, j:j + c]).sum(axis=1) for j in range(k)],
                      axis=1)
        dx = _correlate_rows(g, kernel.data[::-1])
        rec = _recorder(kernel, n)
        if rec is None:
            return ((x, dx), (kernel, dk.sum(axis=0)))
        rec.append((dk.T, np.ones((1, n))))
        return ((x, dx),)

    return _make(_correlate_rows(x.data, kernel.data), (x, kernel), backward)


def adaptive_avg_pool2d(x: Tensor, target) -> Tensor:
    x = as_tensor(x)
    if x.data.ndim != 4:
        raise ShapeError("adaptive_avg_pool2d expects (N,C,H,W)")
    th, tw = int(target[0]), int(target[1])
    n, c, h, w = x.shape
    if th > h or tw > w or th < 1 or tw < 1:
        raise ShapeError(f"adaptive_avg_pool2d: target {th}x{tw} vs input {h}x{w}")
    # the pooling kernels take (C, H, W, N) maps: one call pools the batch
    out = kernels.adaptive_avg_pool_forward(x.data.transpose(1, 2, 3, 0), th, tw)

    def backward(g):
        dx = kernels.adaptive_avg_pool_backward(g.transpose(1, 2, 3, 0), h, w)
        return ((x, dx.transpose(3, 0, 1, 2)),)

    return _make(out.transpose(3, 0, 1, 2), (x,), backward)


def global_avg_pool(x: Tensor) -> Tensor:
    """(N, C, H, W) -> (N, C) per-channel spatial mean."""
    x = as_tensor(x)
    if x.data.ndim != 4:
        raise ShapeError("global_avg_pool expects (N,C,H,W)")
    n, c, h, w = x.shape

    def backward(g):
        dx = np.broadcast_to((g.T / (h * w))[:, None, None], (c, h, w, n))
        return ((x, dx.copy().transpose(3, 0, 1, 2)),)

    return _make(x.data.transpose(1, 2, 3, 0).sum(axis=(1, 2)).T / (h * w), (x,), backward)


def scale_channels(x: Tensor, s: Tensor) -> Tensor:
    """Multiply each channel map of (N, C, H, W) by the matching entry of
    s (N, C), on the (C, H, W, N) views: there numpy keeps x batch-last."""
    x, s = as_tensor(x), as_tensor(s)
    if x.data.ndim != 4 or s.data.ndim != 2 or x.shape[:2] != s.shape:
        raise ShapeError(f"scale_channels: {x.shape} vs {s.shape}")
    xl = x.data.transpose(1, 2, 3, 0)
    sl = s.data.T[:, None, None]

    def backward(g):
        gl = g.transpose(1, 2, 3, 0)
        return ((x, (gl * sl).transpose(3, 0, 1, 2)),
                (s, (gl * xl).sum(axis=(1, 2)).T))

    return _make((xl * sl).transpose(3, 0, 1, 2), (x, s), backward)


def cross_entropy_logits(z: Tensor, labels) -> Tensor:
    """Cross-entropy of each row of (N, K) logits against its integer
    label in `labels`: the (N,) loss vector.

    Fused log-sum-exp keeps the op stable for large logits; composing
    softmax then log would lose precision for near-zero probabilities.
    """
    z = as_tensor(z)
    if z.data.ndim != 2:
        raise ShapeError("cross_entropy_logits expects (N, K) logits")
    n, k = z.shape
    labels = np.asarray(labels, dtype=np.int64)
    if labels.shape != (n,):
        raise ShapeError(f"cross_entropy_logits: labels {labels.shape} for {n} rows")
    outside = labels[(labels < 0) | (labels >= k)]
    if outside.size:
        raise DataError(f"label {outside[0]} outside 0..{k - 1}")
    rows = np.arange(n)
    m = z.data.max(axis=1)
    e = np.exp(z.data - m[:, None])
    total = e.sum(axis=1)
    p = e / total[:, None]

    def backward(g):
        dz = p.copy()
        dz[rows, labels] -= 1.0
        return ((z, dz * g[:, None]),)

    return _make(m + np.log(total) - z.data[rows, labels], (z,), backward)


# ---------------------------------------------------------------------------
# per-sample gradients


def _recorder(p, rows: int):
    """The list of p's per-sample gradient records while
    per_sample_gradients records p, else None. `rows` is the leading
    extent of the batch the op applies p to, which must be the loss
    vector's samples."""
    recording = _recording.get()
    if recording is None:
        return None
    samples, recorders = recording
    rec = recorders.get(id(p))
    if rec is not None and rows != samples:
        raise TapeError(f"per_sample_gradients: a recorded parameter met a "
                        f"batch of {rows} rows, the loss has {samples} samples")
    return rec


def per_sample_gradients(loss_vector: Tensor, params: dict):
    """Gradient of each entry of the (N,) `loss_vector` w.r.t. every tensor
    in the name -> Tensor dict `params`, from one backward of the batch,
    kept as two factors per parameter.

    Entry n must depend on row n of the batch alone, and every parameter
    must reach the loss only as the kernel of conv2d or conv1d_channel,
    the right operand of matmul or the vector of add_rowvec. While this
    call runs, those ops record each row's share of a parameter's gradient
    instead of its sum over the batch (the per-example trick of Goodfellow
    2015, arXiv:1510.01799). A parameter that reaches the loss through any
    other op, or meets a batch of other than N rows, raises TapeError.

    Every application adds one record, a left and a right block whose
    columns belong to samples, sample index innermost: conv2d the output
    gradients (cout, Ho*Wo*N) and the unfolded inputs (cin*kh*kw, Ho*Wo*N);
    matmul the input rows a.T and the output gradient g.T; add_rowvec and
    conv1d_channel the per-sample gradient rows .T and ones (1, N).

    Returns (left, right), two name -> array dicts holding each
    parameter's records side by side in C order: left (p_out, M) and
    right (p_in, M) over M columns, a multiple of N, p_out the parameter's
    leading extent and p_in the product of the rest. Column m belongs to
    sample m mod N, so sample n's gradient is
        (left[:, n::N] @ right[:, n::N].T).reshape(p.shape).
    A parameter that no sample reaches has no records and is absent from
    both. Every parameter's `.grad` is cleared before the backward, so a
    gradient left from an earlier backward is not taken for a leak, and
    is left cleared.
    """
    if not isinstance(loss_vector, Tensor) or not loss_vector.requires_grad:
        raise TapeError("per_sample_gradients: loss vector is detached from the graph")
    if loss_vector.data.ndim != 1:
        raise ShapeError("per_sample_gradients expects a loss vector")
    if len({id(p) for p in params.values()}) != len(params):
        raise ParameterError("per_sample_gradients: a parameter is named twice")
    recorders = {}
    for p in params.values():
        recorders[id(p)] = []
        p.grad = None
    token = _recording.set((loss_vector.shape[0], recorders))
    try:
        loss_vector.backward()
    finally:
        _recording.reset(token)
    leaked = [name for name, p in params.items() if p.grad is not None]
    for p in params.values():
        p.grad = None
    if leaked:
        raise TapeError(f"per_sample_gradients: {', '.join(leaked)} reached the "
                        "loss outside the ops that record per-sample gradients")
    left, right = {}, {}
    for name, p in params.items():
        # one parameter at a time, dropping its records once stacked in C
        # order; a lone one already in it (a batch-last conv's) is not copied
        records = recorders.pop(id(p))
        if records:
            left[name], right[name] = (
                np.hstack(side) if len(side) > 1 else np.ascontiguousarray(side[0])
                for side in zip(*records))
    return left, right
