"""Hot numeric kernels: 2D convolution, adaptive average pooling, bilinear resize.

Vectorized numpy: each conv pass is one im2col gather or scatter and one
matrix product over the whole (N, C, H, W) batch, pooling is two products
with window-averaging matrices, and resizing is gather arithmetic. Each
conv shape gets one cached tap-index map (`_tap_index`): the im2col
gather is one integer-array index through it, and the backward-input
scatter adds one slice per kernel tap, so no conv takes a Python step per
image. `unfold` is that im2col; `tensor` also records it as one factor
of a conv kernel's per-sample gradient. `tensor` and `image` look the
kernels up on this module by attribute at call time.

All arrays are float64. Conv batches are (N, C, H, W), fastest batch-last
(over (C, H, W, N) memory, as `tensor` passes and the kernels return
them); pooling takes (C, H, W, ...) maps and resizing (C, H, W) maps.
"""

import functools
import mmap

import numpy as np

# conv shapes whose tap-index maps stay cached; a model has a handful
TAP_INDEX_SHAPES = 64


def off_heap(a: np.ndarray) -> np.ndarray:
    """A copy of `a` in an anonymous mapping of its own, not heap memory:
    a block that outlives training and sits on the heap above what
    training freed keeps all of that resident."""
    out = np.frombuffer(mmap.mmap(-1, a.nbytes), dtype=a.dtype).reshape(a.shape)
    out[...] = a
    return out

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


def unfold(x, kh, kw, stride, pad):
    """im2col of a batch x (N, Cin, H, W) with the image index innermost:
    (Cin*kh*kw, Ho*Wo*N), rows ordered (ci, u, v) as in k.reshape(cout, -1),
    column m reading image m mod N."""
    n, cin, h, w = x.shape
    idx = _tap_index(cin, h, w, kh, kw, stride, pad)
    pixels = np.empty((cin * h * w + 1, n))
    pixels[:-1].reshape(cin, h, w, n)[...] = x.transpose(1, 2, 3, 0)
    pixels[-1] = 0.0
    # each pixel's n values as one opaque item, so the gather is numpy's
    # fast one-axis index: an index, not take, since take copies a
    # read-only index array on every call
    items = pixels.view(np.dtype((np.void, pixels.itemsize * n))).ravel()
    return items[idx].view(np.float64).reshape(idx.shape[0], -1)


def _image_last(a):
    """(N, C, H, W) -> (C, H*W*N), the layout of `unfold`'s columns: a
    view of a batch-last a, a copy of any other."""
    return a.transpose(1, 2, 3, 0).reshape(a.shape[1], -1)


def conv2d_forward_batch(x, k, stride, pad):
    n, _, h, w = x.shape
    cout, _, kh, kw = k.shape
    ho = (h + 2 * pad - kh) // stride + 1
    wo = (w + 2 * pad - kw) // stride + 1
    out = k.reshape(cout, -1) @ unfold(x, kh, kw, stride, pad)
    return out.reshape(cout, ho, wo, n).transpose(3, 0, 1, 2)


def conv2d_backward_input_batch(dy, k, stride, pad, h, w):
    n, cout, ho, wo = dy.shape
    _, cin, kh, kw = k.shape
    # scatter k^T @ dy back one kernel tap at a time into the padded
    # input: each pixel adds its taps in (u, v) order from zero
    dcols = (k.reshape(cout, -1).T @ _image_last(dy)).reshape(cin, kh, kw, ho, wo, n)
    dxp = np.zeros((cin, h + 2 * pad, w + 2 * pad, n))
    for u in range(kh):
        for v in range(kw):
            dxp[:, u:u + stride * (ho - 1) + 1:stride,
                v:v + stride * (wo - 1) + 1:stride] += dcols[:, u, v]
    return dxp[:, pad:pad + h, pad:pad + w].transpose(3, 0, 1, 2)


def conv2d_backward_kernel_batch(dy, x, stride, pad, kh, kw):
    cout = dy.shape[1]
    cin = x.shape[1]
    dk = _image_last(dy) @ unfold(x, kh, kw, stride, pad).T
    return dk.reshape(cout, cin, kh, kw)


# the (C, H, W) kernels of one image: nothing in amcr calls these names
# now; they stay, since perfbench/tracing.py wraps them


def conv2d_forward(x, k, stride, pad):
    return conv2d_forward_batch(x[None], k, stride, pad)[0]


def conv2d_backward_input(dy, k, stride, pad, h, w):
    return conv2d_backward_input_batch(dy[None], k, stride, pad, h, w)[0]


def conv2d_backward_kernel(dy, x, stride, pad, kh, kw):
    return conv2d_backward_kernel_batch(dy[None], x[None], stride, pad, kh, kw)


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
