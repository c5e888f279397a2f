"""Binary PPM (P6, color) and PGM (P5, gray) reading and writing.

These two headers-plus-raster formats need no external decoder, which
keeps the dataset pipeline self-contained. Pixels map to float64 arrays
in [0,1]; writing quantizes to 8-bit.
"""

import numpy as np

from .errors import FormatError

_MAXVAL = 255


def _read_token(data: bytes, pos: int):
    """Next whitespace-delimited header token, skipping '#' comments."""
    n = len(data)
    while pos < n:
        c = data[pos:pos + 1]
        if c == b"#":
            while pos < n and data[pos:pos + 1] != b"\n":
                pos += 1
        elif c.isspace():
            pos += 1
        else:
            break
    if pos >= n:
        raise FormatError("truncated image header")
    start = pos
    while pos < n and not data[pos:pos + 1].isspace():
        pos += 1
    return data[start:pos], pos


def load_pnm(path) -> np.ndarray:
    """Read a P6 file to a (3,H,W) array or a P5 file to (1,H,W)."""
    with open(path, "rb") as fh:
        data = fh.read()
    if len(data) < 2:
        raise FormatError(f"{path}: not an image file")
    magic = data[:2]
    if magic not in (b"P5", b"P6"):
        raise FormatError(f"{path}: unsupported magic {magic!r}")
    pos = 2
    fields = []
    for _ in range(3):
        token, pos = _read_token(data, pos)
        if not token.isdigit():
            raise FormatError(f"{path}: malformed header token {token!r}")
        fields.append(int(token))
    width, height, maxval = fields
    if width < 1 or height < 1:
        raise FormatError(f"{path}: degenerate dimensions {width}x{height}")
    if maxval != _MAXVAL:
        raise FormatError(f"{path}: unsupported max value {maxval}")
    pos += 1  # single whitespace byte separates header from raster
    channels = 3 if magic == b"P6" else 1
    expected = width * height * channels
    raster = data[pos:pos + expected]
    if len(raster) != expected:
        raise FormatError(f"{path}: raster holds {len(raster)} of {expected} bytes")
    arr = np.frombuffer(raster, dtype=np.uint8).astype(np.float64) / _MAXVAL
    chw = arr.reshape(height, width, channels).transpose(2, 0, 1)
    return np.ascontiguousarray(chw)


def save_pnm(path, image):
    """Write a (3,H,W) array as P6 or a (1,H,W) array as P5.

    Values may be floats in [0,1] (quantized) or uint8 (taken as is).
    """
    arr = np.asarray(image)
    if arr.ndim != 3 or arr.shape[0] not in (1, 3):
        raise FormatError(f"expected (1|3,H,W), got {arr.shape}")
    if arr.dtype != np.uint8:
        arr = np.clip(np.asarray(arr, dtype=np.float64), 0.0, 1.0)
        arr = np.floor(arr * _MAXVAL + 0.5).astype(np.uint8)
    c, h, w = arr.shape
    magic = b"P6" if c == 3 else b"P5"
    header = magic + b"\n%d %d\n%d\n" % (w, h, _MAXVAL)
    raster = arr.transpose(1, 2, 0).tobytes()
    with open(path, "wb") as fh:
        fh.write(header + raster)
