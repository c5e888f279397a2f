"""Image preparation: pad-to-square, center-crop, and stretch pipelines.

All three run before the network and are never differentiated, so they
take and return plain float64 arrays. Scaling is bilinear
with half-pixel centers (kernels.bilinear_resize).
"""

import numpy as np

from . import kernels
from .errors import ParameterError, ShapeError


def _round_half_away(x: float) -> int:
    # np.round ties to even; the padding rule wants 0.5 to round up
    return int(np.floor(x + 0.5)) if x >= 0 else int(np.ceil(x - 0.5))


def _as_chw(img) -> np.ndarray:
    arr = np.asarray(img, dtype=np.float64)
    if arr.ndim != 3:
        raise ShapeError(f"expected (C,H,W) image, got {arr.shape}")
    if arr.shape[1] < 1 or arr.shape[2] < 1:
        raise ShapeError(f"degenerate image {arr.shape}")
    return np.ascontiguousarray(arr, dtype=np.float64)


def _resize(arr: np.ndarray, ho: int, wo: int) -> np.ndarray:
    if (ho, wo) == arr.shape[1:]:
        return arr.copy()
    return kernels.bilinear_resize(arr, ho, wo)


def aab_prepare(img, square_side: int) -> np.ndarray:
    """Scale the long edge to `square_side`, center on a zero square canvas.

    The short edge scales proportionally (half-away-from-zero rounding)
    so content keeps its aspect ratio; leftover padding splits evenly
    with the odd pixel going to the bottom or right. No content pixels
    are discarded, which is the point of this preparation over cropping.
    """
    arr = _as_chw(img)
    s = int(square_side)
    if s < 1:
        raise ParameterError(f"square side must be positive, got {s}")
    c, h, w = arr.shape
    if h >= w:
        nh = s
        nw = max(1, _round_half_away(w * s / h))
    else:
        nw = s
        nh = max(1, _round_half_away(h * s / w))
    content = _resize(arr, nh, nw)
    canvas = np.zeros((c, s, s))
    top = (s - nh) // 2
    left = (s - nw) // 2
    canvas[:, top:top + nh, left:left + nw] = content
    return canvas


def preprocess_crop(img, side: int) -> np.ndarray:
    """Scale the short edge to `side`, then take the central side x side window."""
    arr = _as_chw(img)
    s = int(side)
    if s < 1:
        raise ParameterError(f"crop side must be positive, got {s}")
    c, h, w = arr.shape
    if h <= w:
        nh = s
        nw = max(s, _round_half_away(w * s / h))
    else:
        nw = s
        nh = max(s, _round_half_away(h * s / w))
    scaled = _resize(arr, nh, nw)
    top = (nh - s) // 2
    left = (nw - s) // 2
    return scaled[:, top:top + s, left:left + s].copy()


def preprocess_resize(img, side: int) -> np.ndarray:
    """Stretch both edges to `side`, ignoring aspect ratio."""
    arr = _as_chw(img)
    s = int(side)
    if s < 1:
        raise ParameterError(f"resize side must be positive, got {s}")
    return _resize(arr, s, s)
