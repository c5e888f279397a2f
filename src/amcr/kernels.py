"""Hot numeric kernels: 2D convolution, adaptive average pooling, bilinear resize.

Vectorized numpy: convolution goes through im2col and one matrix product,
pooling and resizing are slicing and gather arithmetic. The conv kernels
take one Python step per kernel tap (u, v), and each step moves all input
channels in one slice, so a 3x3 conv costs nine steps whatever its width.
`unfold` is that im2col; `tensor` also records it as one factor of a
conv kernel's per-sample gradient. `tensor` and `image` look the kernels
up on this module by attribute at call time.

All arrays are float64 and C-contiguous. Channel-first layout (C, H, W).
"""

import numpy as np

# ---------------------------------------------------------------------------
# conv2d: x (Cin, H, W) * k (Cout, Cin, kh, kw) -> (Cout, Ho, Wo)


def unfold(x, kh, kw, stride, pad):
    """im2col of x (Cin, H, W): (Cin*kh*kw, Ho*Wo), one column per output
    position, rows ordered (ci, u, v) as in k.reshape(cout, -1), so a
    conv is k.reshape(cout, -1) @ unfold(x, ...)."""
    cin, h, w = x.shape
    ho = (h + 2 * pad - kh) // stride + 1
    wo = (w + 2 * pad - kw) // stride + 1
    xp = np.zeros((cin, h + 2 * pad, w + 2 * pad))
    xp[:, pad:pad + h, pad:pad + w] = x
    cols = np.empty((cin, kh, kw, ho, wo))
    for u in range(kh):
        for v in range(kw):
            cols[:, u, v] = xp[:, u:u + ho * stride:stride, v:v + wo * stride:stride]
    return cols.reshape(cin * kh * kw, ho * wo)


def conv2d_forward(x, k, stride, pad):
    _, h, w = x.shape
    cout, _, kh, kw = k.shape
    ho = (h + 2 * pad - kh) // stride + 1
    wo = (w + 2 * pad - kw) // stride + 1
    out = k.reshape(cout, -1) @ unfold(x, kh, kw, stride, pad)
    return np.ascontiguousarray(out.reshape(cout, ho, wo))


def conv2d_backward_input(dy, k, stride, pad, h, w):
    cout, ho, wo = dy.shape
    _, cin, kh, kw = k.shape
    # scatter k^T @ dy back through the im2col mapping, one kernel tap at a time
    dcols = k.reshape(cout, -1).T @ dy.reshape(cout, -1)
    dcols = dcols.reshape(cin, kh, kw, ho, wo)
    dxp = np.zeros((cin, h + 2 * pad, w + 2 * pad))
    for u in range(kh):
        for v in range(kw):
            dxp[:, u:u + ho * stride:stride, v:v + wo * stride:stride] += dcols[:, u, v]
    if pad == 0:
        return dxp
    return np.ascontiguousarray(dxp[:, pad:pad + h, pad:pad + w])


def conv2d_backward_kernel(dy, x, stride, pad, kh, kw):
    cout = dy.shape[0]
    cin = x.shape[0]
    dk = dy.reshape(cout, -1) @ unfold(x, kh, kw, stride, pad).T
    return np.ascontiguousarray(dk.reshape(cout, cin, kh, kw))


# ---------------------------------------------------------------------------
# adaptive average pooling: (C, H, W) -> (C, Th, Tw)
# window for output cell (i, j): rows [floor(i*H/Th), ceil((i+1)*H/Th))


def adaptive_avg_pool_forward(x, th, tw):
    c, h, w = x.shape
    out = np.empty((c, th, tw))
    for i in range(th):
        r0, r1 = (i * h) // th, -((-(i + 1) * h) // th)
        for j in range(tw):
            c0, c1 = (j * w) // tw, -((-(j + 1) * w) // tw)
            out[:, i, j] = x[:, r0:r1, c0:c1].sum(axis=(1, 2)) / ((r1 - r0) * (c1 - c0))
    return out


def adaptive_avg_pool_backward(dy, h, w):
    c, th, tw = dy.shape
    dx = np.zeros((c, h, w))
    for i in range(th):
        r0, r1 = (i * h) // th, -((-(i + 1) * h) // th)
        for j in range(tw):
            c0, c1 = (j * w) // tw, -((-(j + 1) * w) // tw)
            dx[:, r0:r1, c0:c1] += (dy[:, i, j] / ((r1 - r0) * (c1 - c0)))[:, None, None]
    return dx


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
