"""Kernel correctness: kernels match brute-force references, adjoints match
forwards, and hand-checkable cases come out exact."""

import math
import mmap
import sys
import threading

import numpy as np
import pytest

from amcr import kernels as K


def rng_for(seed):
    return np.random.default_rng(seed)


def conv_sizes(h, w, kh, kw, stride, pad):
    return (h + 2 * pad - kh) // stride + 1, (w + 2 * pad - kw) // stride + 1


# ---------------------------------------------------------------------------
# brute-force conv oracle, written against the definition rather than any
# kernel code path

def conv_reference(x, k, stride, pad):
    cin, h, w = x.shape
    cout, _, kh, kw = k.shape
    xp = np.zeros((cin, h + 2 * pad, w + 2 * pad))
    xp[:, pad:pad + h, pad:pad + w] = x
    ho, wo = conv_sizes(h, w, kh, kw, stride, pad)
    out = np.zeros((cout, ho, wo))
    for co in range(cout):
        for i in range(ho):
            for j in range(wo):
                patch = xp[:, i * stride:i * stride + kh, j * stride:j * stride + kw]
                out[co, i, j] = np.sum(patch * k[co])
    return out


def conv_backward_input_reference(dy, k, stride, pad, h, w):
    # output cell (i, j) read input pixel (i*stride + u - pad, j*stride +
    # v - pad) through tap (u, v); padding pixels take no gradient
    cout, ho, wo = dy.shape
    _, cin, kh, kw = k.shape
    dx = np.zeros((cin, h, w))
    for co in range(cout):
        for i in range(ho):
            for j in range(wo):
                for u in range(kh):
                    for v in range(kw):
                        y, x = i * stride + u - pad, j * stride + v - pad
                        if 0 <= y < h and 0 <= x < w:
                            dx[:, y, x] += dy[co, i, j] * k[co, :, u, v]
    return dx


def conv_backward_kernel_reference(dy, x, stride, pad, kh, kw):
    cout, ho, wo = dy.shape
    cin, h, w = x.shape
    dk = np.zeros((cout, cin, kh, kw))
    for co in range(cout):
        for u in range(kh):
            for v in range(kw):
                for i in range(ho):
                    for j in range(wo):
                        y, xx = i * stride + u - pad, j * stride + v - pad
                        if 0 <= y < h and 0 <= xx < w:
                            dk[co, :, u, v] += dy[co, i, j] * x[:, y, xx]
    return dk


CONV_CASES = [
    # (cin, h, w, cout, kh, kw, stride, pad)
    (1, 5, 5, 1, 3, 3, 1, 0),
    (3, 8, 6, 4, 3, 3, 1, 1),
    (2, 9, 9, 3, 5, 5, 2, 2),
    (4, 7, 11, 2, 1, 1, 1, 0),
    (2, 6, 6, 2, 3, 3, 2, 0),
    (1, 4, 4, 5, 3, 3, 1, 2),  # padding larger than usual
    (3, 9, 10, 2, 3, 5, 2, 1),  # kh != kw
    (4, 8, 8, 6, 3, 3, 2, 1),  # the model's stages: even input, stride 2
]


@pytest.mark.parametrize("cin,h,w,cout,kh,kw,stride,pad", CONV_CASES)
def test_conv_forward_matches_reference(cin, h, w, cout, kh, kw, stride, pad):
    rng = rng_for(hash((cin, h, w, cout, kh, kw, stride, pad)) % 2**32)
    x = rng.standard_normal((cin, h, w))
    k = rng.standard_normal((cout, cin, kh, kw))
    want = conv_reference(x, k, stride, pad)
    np.testing.assert_allclose(K.conv2d_forward(x, k, stride, pad), want,
                               rtol=0, atol=1e-12)


@pytest.mark.parametrize("cin,h,w,cout,kh,kw,stride,pad", CONV_CASES)
def test_conv_backward_adjoint_identity(cin, h, w, cout, kh, kw, stride, pad):
    # conv is linear in x and in k, so its backward passes are exact
    # adjoints: <conv(x,k), dy> == <x, d_input(dy,k)> == <k, d_kernel(dy,x)>
    rng = rng_for(hash(("adj", cin, h, w, cout, kh, kw, stride, pad)) % 2**32)
    x = rng.standard_normal((cin, h, w))
    k = rng.standard_normal((cout, cin, kh, kw))
    y = K.conv2d_forward(x, k, stride, pad)
    dy = rng.standard_normal(y.shape)
    lhs = np.sum(y * dy)
    dx = K.conv2d_backward_input(dy, k, stride, pad, h, w)
    dk = K.conv2d_backward_kernel(dy, x, stride, pad, kh, kw)
    assert abs(lhs - np.sum(x * dx)) < 1e-9 * max(1.0, abs(lhs))
    assert abs(lhs - np.sum(k * dk)) < 1e-9 * max(1.0, abs(lhs))


def conv_backward_case(cin, h, w, cout, kh, kw, stride, pad):
    # ints hash the same in every process, so each case draws fixed data
    rng = rng_for(hash((2, cin, h, w, cout, kh, kw, stride, pad)) % 2**32)
    x = rng.standard_normal((cin, h, w))
    k = rng.standard_normal((cout, cin, kh, kw))
    dy = rng.standard_normal((cout,) + conv_sizes(h, w, kh, kw, stride, pad))
    return x, k, dy


@pytest.mark.parametrize("cin,h,w,cout,kh,kw,stride,pad", CONV_CASES)
def test_conv_backward_input_matches_reference(cin, h, w, cout, kh, kw,
                                               stride, pad):
    _, k, dy = conv_backward_case(cin, h, w, cout, kh, kw, stride, pad)
    np.testing.assert_allclose(
        K.conv2d_backward_input(dy, k, stride, pad, h, w),
        conv_backward_input_reference(dy, k, stride, pad, h, w),
        rtol=0, atol=1e-12)


@pytest.mark.parametrize("cin,h,w,cout,kh,kw,stride,pad", CONV_CASES)
def test_conv_backward_kernel_matches_reference(cin, h, w, cout, kh, kw,
                                                stride, pad):
    x, _, dy = conv_backward_case(cin, h, w, cout, kh, kw, stride, pad)
    np.testing.assert_allclose(
        K.conv2d_backward_kernel(dy, x, stride, pad, kh, kw),
        conv_backward_kernel_reference(dy, x, stride, pad, kh, kw),
        rtol=0, atol=1e-12)


@pytest.mark.parametrize("cin,h,w,cout,kh,kw,stride,pad", CONV_CASES)
def test_conv_passes_are_gemms_of_unfold(cin, h, w, cout, kh, kw, stride, pad):
    # the factored per-sample gradients rely on the kernel gradient being
    # exactly this product of the output gradient and the unfolded input
    x, k, dy = conv_backward_case(cin, h, w, cout, kh, kw, stride, pad)
    cols = K.unfold(x[None], kh, kw, stride, pad)
    assert cols.shape == (cin * kh * kw, dy.shape[1] * dy.shape[2])
    np.testing.assert_array_equal(
        K.conv2d_backward_kernel(dy, x, stride, pad, kh, kw),
        (dy.reshape(cout, -1) @ cols.T).reshape(k.shape))
    np.testing.assert_array_equal(
        K.conv2d_forward(x, k, stride, pad),
        (k.reshape(cout, -1) @ cols).reshape(dy.shape))


# the batched kernels: N images in one call, against the per-image
# references stacked (the kernel gradient summed over the images)
BATCH_CASES = [
    # (cin, h, w, cout, kh, kw, stride, pad): non-square images, kh != kw
    (2, 7, 5, 3, 3, 1, 1, 0),
    (3, 6, 9, 2, 1, 3, 1, 1),
    (2, 9, 6, 4, 3, 5, 2, 0),
    (3, 8, 7, 2, 5, 3, 2, 1),
]


def assert_close_relative(got, want, rtol=1e-12):
    assert got.shape == want.shape
    np.testing.assert_allclose(got, want, rtol=0,
                               atol=rtol * max(1.0, np.abs(want).max()))


@pytest.mark.parametrize("n", [1, 3])
@pytest.mark.parametrize("cin,h,w,cout,kh,kw,stride,pad", BATCH_CASES)
def test_batched_conv_kernels_match_stacked_references(cin, h, w, cout, kh, kw,
                                                       stride, pad, n):
    rng = rng_for(hash((3, n, cin, h, w, cout, kh, kw, stride, pad)) % 2**32)
    x = rng.standard_normal((n, cin, h, w))
    k = rng.standard_normal((cout, cin, kh, kw))
    dy = rng.standard_normal((n, cout) + conv_sizes(h, w, kh, kw, stride, pad))
    assert_close_relative(
        K.conv2d_forward_batch(x, k, stride, pad),
        np.stack([conv_reference(xi, k, stride, pad) for xi in x]))
    assert_close_relative(
        K.conv2d_backward_input_batch(dy, k, stride, pad, h, w),
        np.stack([conv_backward_input_reference(g, k, stride, pad, h, w)
                  for g in dy]))
    assert_close_relative(
        K.conv2d_backward_kernel_batch(dy, x, stride, pad, kh, kw),
        sum(conv_backward_kernel_reference(g, xi, stride, pad, kh, kw)
            for g, xi in zip(dy, x)))
    # unfold keeps the images side by side, each as the per-tap im2col
    np.testing.assert_array_equal(
        K.unfold(x, kh, kw, stride, pad),
        np.hstack([unfold_per_tap(xi, kh, kw, stride, pad) for xi in x]))


def test_conv_zero_padding_contributes_zero():
    # an all-ones kernel over an all-ones image counts only real pixels
    x = np.ones((1, 3, 3))
    k = np.ones((1, 1, 3, 3))
    out = K.conv2d_forward(x, k, 1, 1)
    assert out[0, 1, 1] == 9.0   # center window fully inside
    assert out[0, 0, 0] == 4.0   # corner window covers a 2x2 of real pixels
    assert out[0, 0, 1] == 6.0


# ---------------------------------------------------------------------------
# the tap-index map: unfold and the backward-input scatter go through one
# cached index map per conv shape, and must match, bit for bit, the per-tap
# slicing they replaced, kept here as references

# the conv shapes of the README quick-start config (24x24 crops, stem 8,
# stages 8, 16, head 32) and of the default config (32x32 crops, stem 24,
# stages 48, 96, 128, head 448): stem, stages, head.reduce
BENCHMARK_CONV_SHAPES = [
    (3, 24, 24, 8, 3, 3, 2, 1),
    (8, 12, 12, 8, 3, 3, 2, 1),
    (8, 6, 6, 16, 3, 3, 2, 1),
    (16, 3, 3, 32, 3, 3, 1, 1),
    (3, 32, 32, 24, 3, 3, 2, 1),
    (24, 16, 16, 48, 3, 3, 2, 1),
    (48, 8, 8, 96, 3, 3, 2, 1),
    (96, 4, 4, 128, 3, 3, 2, 1),
    (128, 2, 2, 448, 3, 3, 1, 1),
]


def unfold_per_tap(x, kh, kw, stride, pad):
    cin, h, w = x.shape
    ho, wo = conv_sizes(h, w, kh, kw, stride, pad)
    xp = np.zeros((cin, h + 2 * pad, w + 2 * pad))
    xp[:, pad:pad + h, pad:pad + w] = x
    cols = np.empty((cin, kh, kw, ho, wo))
    for u in range(kh):
        for v in range(kw):
            cols[:, u, v] = xp[:, u:u + ho * stride:stride, v:v + wo * stride:stride]
    return cols.reshape(cin * kh * kw, ho * wo)


def backward_input_per_tap(dy, k, stride, pad, h, w):
    cout, ho, wo = dy.shape
    _, cin, kh, kw = k.shape
    dcols = (k.reshape(cout, -1).T @ dy.reshape(cout, -1)).reshape(cin, kh, kw, ho, wo)
    dxp = np.zeros((cin, h + 2 * pad, w + 2 * pad))
    for u in range(kh):
        for v in range(kw):
            dxp[:, u:u + ho * stride:stride, v:v + wo * stride:stride] += dcols[:, u, v]
    return dxp[:, pad:pad + h, pad:pad + w]


def conv_per_tap_results(x, k, dy, stride, pad):
    """unfold, forward, backward-input and backward-kernel as the per-tap
    kernels computed them."""
    cout, _, kh, kw = k.shape
    h, w = x.shape[1:]
    cols = unfold_per_tap(x, kh, kw, stride, pad)
    return (cols,
            (k.reshape(cout, -1) @ cols).reshape(dy.shape),
            backward_input_per_tap(dy, k, stride, pad, h, w),
            (dy.reshape(cout, -1) @ cols.T).reshape(k.shape))


def conv_map_results(x, k, dy, stride, pad):
    kh, kw = k.shape[2:]
    h, w = x.shape[1:]
    return (K.unfold(x[None], kh, kw, stride, pad),
            K.conv2d_forward(x, k, stride, pad),
            K.conv2d_backward_input(dy, k, stride, pad, h, w),
            K.conv2d_backward_kernel(dy, x, stride, pad, kh, kw))


@pytest.mark.parametrize("cin,h,w,cout,kh,kw,stride,pad",
                         CONV_CASES + BENCHMARK_CONV_SHAPES)
def test_conv_kernels_bitwise_equal_per_tap(cin, h, w, cout, kh, kw, stride, pad):
    x, k, dy = conv_backward_case(cin, h, w, cout, kh, kw, stride, pad)
    for got, want in zip(conv_map_results(x, k, dy, stride, pad),
                         conv_per_tap_results(x, k, dy, stride, pad)):
        assert got.shape == want.shape
        np.testing.assert_array_equal(got, want, strict=True)


@pytest.mark.parametrize("cin,h,w,cout,kh,kw,stride,pad", CONV_CASES)
def test_tap_index_points_at_pixels_and_padding_at_zero_slot(
        cin, h, w, cout, kh, kw, stride, pad):
    # unfolding the pixel numbers gives each real tap's source, and
    # unfolding ones marks the real taps; every other tap is padding
    idx = K._tap_index(cin, h, w, kh, kw, stride, pad)
    numbers = np.arange(cin * h * w, dtype=np.float64).reshape(cin, h, w)
    real = unfold_per_tap(np.ones((cin, h, w)), kh, kw, stride, pad) == 1.0
    want = np.where(real, unfold_per_tap(numbers, kh, kw, stride, pad), cin * h * w)
    assert idx.dtype == np.int64
    np.testing.assert_array_equal(idx, want.astype(np.int64))
    # a padded image's border taps read the zero slot
    assert (idx == cin * h * w).any() == (pad > 0)
    assert not K.unfold(np.full((1, cin, h, w), 7.0), kh, kw, stride, pad)[~real].any()


def test_off_heap_copies_into_a_mapping_of_its_own():
    a = np.arange(24, dtype=np.int64).reshape(2, 3, 4)
    out = K.off_heap(a)
    assert out.dtype == a.dtype and out.shape == a.shape
    np.testing.assert_array_equal(out, a)
    base = out
    while isinstance(base, np.ndarray):
        base = base.base
    assert isinstance(base.obj, mmap.mmap)  # frombuffer wraps a memoryview


def test_tap_index_is_read_only():
    idx = K._tap_index(2, 5, 5, 3, 3, 1, 1)
    with pytest.raises(ValueError):
        idx[0, 0] = 0
    with pytest.raises(ValueError):
        idx.ravel()[0] = 0


def test_tap_index_second_call_is_a_cache_hit():
    first = K._tap_index(3, 7, 6, 3, 3, 2, 1)
    hits = K._tap_index.cache_info().hits
    assert K._tap_index(3, 7, 6, 3, 3, 2, 1) is first
    assert K._tap_index.cache_info().hits == hits + 1


def test_tap_index_cache_is_bounded():
    assert K._tap_index.cache_info().maxsize == K.TAP_INDEX_SHAPES
    for side in range(1, K.TAP_INDEX_SHAPES + 6):
        K._tap_index(1, side, 1, 1, 1, 1, 0)
    assert K._tap_index.cache_info().currsize == K.TAP_INDEX_SHAPES


def test_conv_kernels_on_two_threads_match_single_threaded():
    # two threads fill the cache and run the kernels on different shapes at
    # once; each must get what one thread alone computes
    shapes = [BENCHMARK_CONV_SHAPES[1], BENCHMARK_CONV_SHAPES[5]]
    cases = [conv_backward_case(*shape) + shape[6:] for shape in shapes]
    want = [conv_map_results(*case) for case in cases]
    K._tap_index.cache_clear()
    start = threading.Barrier(2, timeout=10)
    done = []

    def run(i):
        start.wait()
        for _ in range(50):
            got = conv_map_results(*cases[i])
            if not all(np.array_equal(g, w) for g, w in zip(got, want[i])):
                return
        done.append(i)

    threads = [threading.Thread(target=run, args=(i,)) for i in range(2)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert sorted(done) == [0, 1]


# ---------------------------------------------------------------------------
# adaptive average pooling


def pool_reference(x, th, tw):
    c, h, w = x.shape
    out = np.empty((c, th, tw))
    for i in range(th):
        r0 = (i * h) // th
        r1 = int(np.ceil((i + 1) * h / th))
        for j in range(tw):
            c0 = (j * w) // tw
            c1 = int(np.ceil((j + 1) * w / tw))
            out[:, i, j] = x[:, r0:r1, c0:c1].mean(axis=(1, 2))
    return out


POOL_CASES = [(1, 4, 4, 2, 2), (3, 7, 5, 3, 3), (2, 10, 10, 3, 7),
              (1, 5, 5, 5, 5), (2, 6, 9, 1, 1), (1, 3, 3, 2, 2)]


@pytest.mark.parametrize("c,h,w,th,tw", POOL_CASES)
def test_pool_forward_matches_reference(c, h, w, th, tw):
    rng = rng_for(hash((c, h, w, th, tw)) % 2**32)
    x = rng.standard_normal((c, h, w))
    want = pool_reference(x, th, tw)
    np.testing.assert_allclose(K.adaptive_avg_pool_forward(x, th, tw), want,
                               rtol=0, atol=1e-12)


def test_pool_hand_case():
    # 4x4 ramp 0..15 pooled to 2x2: each quadrant averages its four cells
    x = np.arange(16, dtype=np.float64).reshape(1, 4, 4)
    want = np.array([[[2.5, 4.5], [10.5, 12.5]]])
    np.testing.assert_allclose(K.adaptive_avg_pool_forward(x, 2, 2), want)


def test_pool_identity_when_same_size():
    rng = rng_for(11)
    x = rng.standard_normal((2, 5, 5))
    np.testing.assert_allclose(K.adaptive_avg_pool_forward(x, 5, 5), x)


@pytest.mark.parametrize("c,h,w,th,tw", POOL_CASES)
def test_pool_backward_adjoint_identity(c, h, w, th, tw):
    rng = rng_for(hash(("padj", c, h, w, th, tw)) % 2**32)
    x = rng.standard_normal((c, h, w))
    dy = rng.standard_normal((c, th, tw))
    lhs = np.sum(K.adaptive_avg_pool_forward(x, th, tw) * dy)
    dx = K.adaptive_avg_pool_backward(dy, h, w)
    assert abs(lhs - np.sum(x * dx)) < 1e-9 * max(1.0, abs(lhs))


# ---------------------------------------------------------------------------
# bilinear resize


def test_resize_identity_same_size():
    rng = rng_for(21)
    x = rng.standard_normal((3, 6, 7))
    np.testing.assert_allclose(K.bilinear_resize(x, 6, 7), x, rtol=0, atol=1e-12)


def test_resize_constant_image_stays_constant():
    x = np.full((2, 5, 9), 3.25)
    out = K.bilinear_resize(x, 13, 4)
    np.testing.assert_allclose(out, 3.25, rtol=0, atol=1e-12)


def test_resize_hand_case_upsample():
    # [0,1] widened to 4 samples with half-pixel centers: the outer source
    # positions clamp to the edges, the inner two interpolate at 1/4 and 3/4
    x = np.array([[[0.0, 1.0]]])
    out = K.bilinear_resize(x, 1, 4)
    np.testing.assert_allclose(out, [[[0.0, 0.25, 0.75, 1.0]]], rtol=0, atol=1e-12)


def test_resize_hand_case_2_to_3():
    x = np.array([[[0.0, 1.0]]])
    out = K.bilinear_resize(x, 1, 3)
    np.testing.assert_allclose(out, [[[0.0, 0.5, 1.0]]], rtol=0, atol=1e-12)


def test_resize_downsample_range_bounded():
    # interpolation is a convex combination, so outputs stay in the input range
    rng = rng_for(31)
    x = rng.uniform(2.0, 7.0, size=(3, 17, 23))
    out = K.bilinear_resize(x, 5, 6)
    assert out.min() >= 2.0 - 1e-12 and out.max() <= 7.0 + 1e-12


RESIZE_CASES = [(1, 4, 4, 8, 8), (3, 7, 5, 3, 11), (2, 16, 9, 16, 9),
                (1, 2, 2, 5, 3), (2, 13, 4, 4, 13)]


def resize_reference(x, ho, wo):
    # half-pixel centres: output cell i samples source row (i + 0.5) * h / ho
    # - 0.5, clamped to [0, h - 1]; rows and columns past the edge repeat it
    c, h, w = x.shape
    out = np.empty((c, ho, wo))
    for i in range(ho):
        sy = min(max((i + 0.5) * h / ho - 0.5, 0.0), h - 1.0)
        y0 = math.floor(sy)
        y1 = min(y0 + 1, h - 1)
        fy = sy - y0
        for j in range(wo):
            sx = min(max((j + 0.5) * w / wo - 0.5, 0.0), w - 1.0)
            x0 = math.floor(sx)
            x1 = min(x0 + 1, w - 1)
            fx = sx - x0
            for ch in range(c):
                top = (1.0 - fx) * x[ch, y0, x0] + fx * x[ch, y0, x1]
                bot = (1.0 - fx) * x[ch, y1, x0] + fx * x[ch, y1, x1]
                out[ch, i, j] = (1.0 - fy) * top + fy * bot
    return out


@pytest.mark.parametrize("c,h,w,ho,wo", RESIZE_CASES)
def test_resize_matches_reference(c, h, w, ho, wo):
    rng = rng_for(hash(("rs", c, h, w, ho, wo)) % 2**32)
    x = rng.standard_normal((c, h, w))
    np.testing.assert_allclose(K.bilinear_resize(x, ho, wo),
                               resize_reference(x, ho, wo),
                               rtol=0, atol=1e-12)
