"""Hot numeric kernels: 2D convolution, adaptive average pooling, bilinear resize.

Vectorized numpy: each conv pass is one im2col gather and one matrix
product over the whole (N, C, H, W) batch, pooling is two products with
window-averaging matrices, and resizing is gather arithmetic. Each conv
shape gets two cached index maps: `_tap_index`, the pixel each im2col
entry reads, and its inverse `_fold_index`, the entries that read each
pixel. `unfold`, the im2col, is one integer-array index through the
first; backward-input writes k^T dy as im2col entries and folds them onto
the pixels with one gather and one add per slot of the second, so no
conv takes a Python step per image or per kernel tap. The forward and
kernel-gradient products take `unfold`'s columns, so `tensor` unfolds a
batch once for both, and also records them as one factor of a conv
kernel's per-sample gradient. `tensor` and `image` look the kernels up on
this module by attribute at call time.

All arrays are float64. Conv batches are (N, C, H, W), fastest batch-last
(over (C, H, W, N) memory, as `tensor` passes and the kernels return
them); pooling takes (C, H, W, ...) maps and resizing (C, H, W) maps.
"""

import functools
import math
import mmap

import numpy as np

# conv shapes whose index maps stay cached, per map; a model has a handful
TAP_INDEX_SHAPES = 64


def off_heap(a: np.ndarray) -> np.ndarray:
    """A copy of `a` in an anonymous mapping of its own, not heap memory:
    a block that outlives training and sits on the heap above what
    training freed keeps all of that resident."""
    out = off_heap_zeros(a.shape, a.dtype)
    out[...] = a
    return out


def off_heap_zeros(shape, dtype=np.float64) -> np.ndarray:
    """A zero array in an anonymous mapping of its own (see off_heap)."""
    nbytes = math.prod(shape) * np.dtype(dtype).itemsize
    return np.frombuffer(mmap.mmap(-1, nbytes), dtype=dtype).reshape(shape)

# ---------------------------------------------------------------------------
# conv2d: x (N, Cin, H, W) * k (Cout, Cin, kh, kw) -> (N, Cout, Ho, Wo)
#
# The batch kernels work on im2col columns with the image index innermost,
# (Cin*kh*kw, Ho*Wo*N): the layout one integer-array index through the
# tap-index map gives, one GEMM's operand for the whole batch, and the
# memory order of a batch-last (N, C, H, W) batch, so no pass transposes.


@functools.lru_cache(maxsize=TAP_INDEX_SHAPES)
def _tap_index(cin, h, w, kh, kw, stride, pad):
    """The im2col map of one conv shape: an int64 (cin*kh*kw, Ho*Wo) array
    whose entry is the flat (ci, y, x) index into a (cin, h, w) image of the
    pixel that im2col entry reads. Taps landing in the padding read index
    cin*h*w, one past the image, where the callers keep a zero. Read-only,
    since every call for the shape shares it."""
    ho = (h + 2 * pad - kh) // stride + 1
    wo = (w + 2 * pad - kw) // stride + 1
    # tap (u, v) of output cell (i, j) reads pixel (i*stride + u - pad, j*stride + v - pad)
    y = (np.arange(kh) - pad)[:, None, None, None] + stride * np.arange(ho)[:, None]
    x = (np.arange(kw) - pad)[:, None, None] + stride * np.arange(wo)
    inside = (y >= 0) & (y < h) & (x >= 0) & (x < w)  # (kh, kw, ho, wo)
    pixel = (np.arange(cin) * (h * w))[:, None, None, None, None] + y * w + x
    # cached from midway through training, when the heap is at its largest
    out = off_heap(np.where(inside, pixel, cin * h * w).reshape(cin * kh * kw, ho * wo))
    out.flags.writeable = False
    return out


@functools.lru_cache(maxsize=TAP_INDEX_SHAPES)
def _fold_index(cin, h, w, kh, kw, stride, pad):
    """The inverse of `_tap_index` for one conv shape: an int64
    (T, cin*h*w) array whose column p lists, in increasing order, the flat
    indices into the (cin*kh*kw, Ho*Wo) im2col matrix of the entries that
    read pixel p, T being the most entries any pixel has. A pixel's slots
    past its own entries hold cin*kh*kw*Ho*Wo, one past the matrix, where
    the caller keeps a zero; so does every slot of a pixel no entry reads.
    Entries of one pixel ascend in (u, v) tap order. Read-only, since every
    call for the shape shares it."""
    taps = _tap_index(cin, h, w, kh, kw, stride, pad).ravel()
    pixels = cin * h * w
    entries = np.flatnonzero(taps < pixels)
    entries = entries[np.argsort(taps[entries], kind="stable")]
    owner = taps[entries]
    counts = np.bincount(owner, minlength=pixels)
    # an entry's slot is its rank among its pixel's entries
    slot = np.arange(entries.size) - np.repeat(np.cumsum(counts) - counts, counts)
    fold = np.full((max(int(counts.max()), 1), pixels), taps.size)
    fold[slot, owner] = entries
    out = off_heap(fold)
    out.flags.writeable = False
    return out


def _items(a):
    """The rows of the C-contiguous 2-d `a` as one opaque item each, so a
    gather of whole rows is numpy's fast one-axis index: an index, not
    take, since take copies a read-only index array on every call."""
    return a.view(np.dtype((np.void, a.itemsize * a.shape[1]))).ravel()


def unfold(x, kh, kw, stride, pad):
    """im2col of a batch x (N, Cin, H, W) with the image index innermost:
    (Cin*kh*kw, Ho*Wo*N), rows ordered (ci, u, v) as in k.reshape(cout, -1),
    column m reading image m mod N."""
    n, cin, h, w = x.shape
    idx = _tap_index(cin, h, w, kh, kw, stride, pad)
    pixels = np.empty((cin * h * w + 1, n))
    pixels[:-1].reshape(cin, h, w, n)[...] = x.transpose(1, 2, 3, 0)
    pixels[-1] = 0.0
    return _items(pixels)[idx].view(np.float64).reshape(idx.shape[0], -1)


def _image_last(a):
    """(N, C, H, W) -> (C, H*W*N), the layout of `unfold`'s columns: a
    view of a batch-last a, a copy of any other."""
    return a.transpose(1, 2, 3, 0).reshape(a.shape[1], -1)


def conv2d_forward_cols(cols, k, ho, wo):
    """The kernels k applied to a batch's `unfold` columns: the batch-last
    (N, Cout, Ho, Wo) output."""
    cout = k.shape[0]
    out = k.reshape(cout, -1) @ cols
    return out.reshape(cout, ho, wo, -1).transpose(3, 0, 1, 2)


def conv2d_backward_input_batch(dy, k, stride, pad, h, w):
    """dx of a conv from its output gradient dy: k^T dy as im2col entries,
    each pixel then summing the entries that read it (`_fold_index`) in
    (u, v) tap order from the first, one gather and one add per slot."""
    n, cout, ho, wo = dy.shape
    _, cin, kh, kw = k.shape
    fold = _fold_index(cin, h, w, kh, kw, stride, pad)
    dcols = np.empty((cin * kh * kw * ho * wo + 1, n))
    np.matmul(k.reshape(cout, -1).T, _image_last(dy),
              out=dcols[:-1].reshape(cin * kh * kw, -1))
    dcols[-1] = 0.0
    items = _items(dcols)
    dx = items[fold[0]].view(np.float64)
    for slot in fold[1:]:
        dx += items[slot].view(np.float64)
    return dx.reshape(cin, h, w, n).transpose(3, 0, 1, 2)


def conv2d_backward_kernel_cols(dy, cols, kshape):
    """dk of a conv from its output gradient dy and its input's `unfold`
    columns, shaped `kshape`, the kernels' (Cout, Cin, kh, kw)."""
    return (_image_last(dy) @ cols.T).reshape(kshape)


# the (C, H, W) kernels of one image: nothing in amcr calls these names
# now; they stay, since perfbench/tracing.py wraps them


def conv2d_forward(x, k, stride, pad):
    _, h, w = x.shape
    _, _, kh, kw = k.shape
    ho = (h + 2 * pad - kh) // stride + 1
    wo = (w + 2 * pad - kw) // stride + 1
    return conv2d_forward_cols(unfold(x[None], kh, kw, stride, pad), k, ho, wo)[0]


def conv2d_backward_input(dy, k, stride, pad, h, w):
    return conv2d_backward_input_batch(dy[None], k, stride, pad, h, w)[0]


def conv2d_backward_kernel(dy, x, stride, pad, kh, kw):
    return conv2d_backward_kernel_cols(dy[None], unfold(x[None], kh, kw, stride, pad),
                                       (dy.shape[0], x.shape[0], kh, kw))


# ---------------------------------------------------------------------------
# adaptive average pooling: (C, H, W, ...) -> (C, Th, Tw, ...), any trailing
# axes (a batch-last batch's images) riding along; both names stay, since
# perfbench/tracing.py wraps them
# window for output cell (i, j): rows [floor(i*H/Th), ceil((i+1)*H/Th))


def _pool_matrix(target, size):
    """The (target, size) averaging matrix: row i is 1/width over cell i's
    window [floor(i*size/target), ceil((i+1)*size/target)), 0 elsewhere."""
    i = np.arange(target)[:, None]
    lo, hi = (i * size) // target, -((-(i + 1) * size) // target)
    cols = np.arange(size)
    return ((cols >= lo) & (cols < hi)) / (hi - lo)


def _pool_rows_cols(x, rows, cols):
    """rows @ x @ cols.T over axes 1 and 2 of x (C, H, W, ...)."""
    c, h, w = x.shape[:3]
    out = cols @ (rows @ x.reshape(c, h, -1)).reshape(c * len(rows), w, -1)
    return out.reshape((c, len(rows), len(cols)) + x.shape[3:])


def adaptive_avg_pool_forward(x, th, tw):
    return _pool_rows_cols(x, _pool_matrix(th, x.shape[1]), _pool_matrix(tw, x.shape[2]))


def adaptive_avg_pool_backward(dy, h, w):
    return _pool_rows_cols(dy, _pool_matrix(dy.shape[1], h).T,
                           _pool_matrix(dy.shape[2], w).T)


# ---------------------------------------------------------------------------
# bilinear resize (half-pixel centers, clamped): (C, H, W) -> (C, Ho, Wo)
# Preprocessing only; never differentiated.


def bilinear_resize(x, ho, wo):
    c, h, w = x.shape
    sy = np.clip((np.arange(ho) + 0.5) * (h / ho) - 0.5, 0.0, h - 1.0)
    sx = np.clip((np.arange(wo) + 0.5) * (w / wo) - 0.5, 0.0, w - 1.0)
    y0 = sy.astype(np.int64)
    x0 = sx.astype(np.int64)
    y1 = np.minimum(y0 + 1, h - 1)
    x1 = np.minimum(x0 + 1, w - 1)
    fy = (sy - y0)[None, :, None]
    fx = (sx - x0)[None, None, :]
    top = x[:, y0][:, :, x0] * (1.0 - fx) + x[:, y0][:, :, x1] * fx
    bot = x[:, y1][:, :, x0] * (1.0 - fx) + x[:, y1][:, :, x1] * fx
    return top * (1.0 - fy) + bot * fy
