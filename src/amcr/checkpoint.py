"""Binary checkpoint format for model parameters.

Layout (all integers little-endian):

    magic   b"AMCR"
    u32     format version (currently 1)
    32 B    config hash (sha256 of the architecture-relevant settings)
    u64     iteration counter
    u32     record count
    records u16 name length, utf-8 name,
            u8 ndim, ndim * u32 extents,
            extent-product * f64 values

Float64 bytes round-trip bit-exactly. The writer checks every record
before it opens the file, so a rejected one leaves no file, and then
writes each contiguous float64 array's own buffer, with no copy. The
loader reads the header fields with small reads and each record's values
with one `readinto` straight into a fresh aligned, native float64 array
of the record's shape, so no whole-file buffer is kept and no two
records share memory. A record's byte
count is checked against the bytes left in the file before its array is
allocated, so a corrupted extent is a FormatError, not an allocation
failure. The format itself is just named arrays; the CLI writes one
"p."-prefixed record per model parameter and no optimizer state, so
training does not resume from a checkpoint. Loading makes each such
array, as read, the data of that parameter's Tensor, whose construction
is the one finiteness check; no model is built first and overwritten.
"""

import math
import os
import struct

import numpy as np

from .errors import ConfigError, FormatError, VersionError

MAGIC = b"AMCR"
VERSION = 1
_HASH_BYTES = 32


def save_checkpoint(path, arrays: dict, iteration: int, config_hash: bytes):
    """Write named float arrays plus the iteration counter and config hash,
    checking every record before the file is opened."""
    if len(config_hash) != _HASH_BYTES:
        raise FormatError(f"config hash must be {_HASH_BYTES} bytes")
    records = []
    for name, value in arrays.items():
        arr = np.asarray(value, dtype=np.float64)
        if arr.ndim > 0:  # ascontiguousarray would widen 0-d to (1,)
            arr = np.ascontiguousarray(arr)
        encoded = name.encode("utf-8")
        if len(encoded) > 0xFFFF:
            raise FormatError(f"record name too long: {name[:40]}...")
        if arr.ndim > 0xFF:
            raise FormatError(f"record rank {arr.ndim} too large")
        if max(arr.shape, default=0) > 0xFFFFFFFF:
            raise FormatError(f"record extent in {arr.shape} too large")
        records.append((encoded, arr))
    with open(path, "wb") as fh:
        fh.write(MAGIC + struct.pack("<I", VERSION) + bytes(config_hash)
                 + struct.pack("<QI", int(iteration), len(records)))
        for encoded, arr in records:
            fh.write(struct.pack("<H", len(encoded)) + encoded
                     + struct.pack(f"<B{arr.ndim}I", arr.ndim, *arr.shape))
            fh.write(arr)


def _read(fh, count: int, what: str) -> bytes:
    data = fh.read(count)
    if len(data) != count:
        raise FormatError(f"checkpoint truncated reading {what}")
    return data


def load_checkpoint(path, expect_hash: bytes = None):
    """Read a checkpoint back as (arrays, iteration, config_hash).

    A provided expect_hash must match the stored one; loading a
    checkpoint written under different architecture settings is refused.
    """
    with open(path, "rb") as fh:
        size = os.fstat(fh.fileno()).st_size
        magic = _read(fh, 4, "magic")
        if magic != MAGIC:
            raise FormatError(f"{path}: bad magic {magic!r}")
        (version,) = struct.unpack("<I", _read(fh, 4, "version"))
        if version != VERSION:
            raise VersionError(f"{path}: format version {version}, expected {VERSION}")
        stored_hash = _read(fh, _HASH_BYTES, "config hash")
        if expect_hash is not None and bytes(expect_hash) != stored_hash:
            raise ConfigError(
                f"{path}: checkpoint was written under different architecture settings")
        (iteration,) = struct.unpack("<Q", _read(fh, 8, "iteration"))
        (count,) = struct.unpack("<I", _read(fh, 4, "record count"))
        arrays = {}
        for _ in range(count):
            (name_len,) = struct.unpack("<H", _read(fh, 2, "name length"))
            try:
                name = _read(fh, name_len, "name").decode("utf-8")
            except UnicodeDecodeError:
                raise FormatError(f"{path}: record name is not utf-8") from None
            if name in arrays:
                raise FormatError(f"{path}: record {name!r} repeated")
            ndim = _read(fh, 1, "rank")[0]
            shape = struct.unpack(f"<{ndim}I", _read(fh, 4 * ndim, "extents"))
            # size the record against the file before allocating for it
            nbytes = 8 * math.prod(shape)
            if nbytes > size - fh.tell():
                raise FormatError(f"checkpoint truncated reading data of {name}")
            arr = np.empty(shape, dtype="<f8")
            if fh.readinto(arr) != nbytes:
                raise FormatError(f"checkpoint truncated reading data of {name}")
            arrays[name] = arr.astype(np.float64, copy=False)
        trailing = size - fh.tell()
        if trailing:
            raise FormatError(f"{path}: {trailing} trailing bytes")
    return arrays, int(iteration), stored_hash
