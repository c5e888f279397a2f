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

Float64 bytes round-trip bit-exactly. The format itself is just named
arrays; the CLI writes one "p."-prefixed record per model parameter and
no optimizer state, so training does not resume from a checkpoint.
"""

import struct

import numpy as np

from .errors import ConfigError, FormatError, VersionError

MAGIC = b"AMCR"
VERSION = 1
_HASH_BYTES = 32


def save_checkpoint(path, arrays: dict, iteration: int, config_hash: bytes):
    """Write named float arrays plus the iteration counter and config hash."""
    if len(config_hash) != _HASH_BYTES:
        raise FormatError(f"config hash must be {_HASH_BYTES} bytes")
    parts = [MAGIC, struct.pack("<I", VERSION), bytes(config_hash),
             struct.pack("<Q", int(iteration)), struct.pack("<I", len(arrays))]
    for name, value in arrays.items():
        arr = np.asarray(value, dtype=np.float64)
        if arr.ndim > 0:  # ascontiguousarray would widen 0-d to (1,)
            arr = np.ascontiguousarray(arr)
        encoded = name.encode("utf-8")
        if len(encoded) > 0xFFFF:
            raise FormatError(f"record name too long: {name[:40]}...")
        if arr.ndim > 0xFF:
            raise FormatError(f"record rank {arr.ndim} too large")
        parts.append(struct.pack("<H", len(encoded)))
        parts.append(encoded)
        parts.append(struct.pack("<B", arr.ndim))
        for extent in arr.shape:
            parts.append(struct.pack("<I", extent))
        parts.append(arr.tobytes())
    blob = b"".join(parts)
    with open(path, "wb") as fh:
        fh.write(blob)


def _need(data: bytes, pos: int, count: int, what: str) -> int:
    if pos + count > len(data):
        raise FormatError(f"checkpoint truncated reading {what}")
    return pos + count


def load_checkpoint(path, expect_hash: bytes = None):
    """Read a checkpoint back as (arrays, iteration, config_hash).

    A provided expect_hash must match the stored one; loading a
    checkpoint written under different architecture settings is refused.
    """
    with open(path, "rb") as fh:
        data = fh.read()
    pos = _need(data, 0, 4, "magic")
    if data[:4] != MAGIC:
        raise FormatError(f"{path}: bad magic {data[:4]!r}")
    end = _need(data, pos, 4, "version")
    (version,) = struct.unpack("<I", data[pos:end])
    pos = end
    if version != VERSION:
        raise VersionError(f"{path}: format version {version}, expected {VERSION}")
    end = _need(data, pos, _HASH_BYTES, "config hash")
    stored_hash = data[pos:end]
    pos = end
    if expect_hash is not None and bytes(expect_hash) != stored_hash:
        raise ConfigError(
            f"{path}: checkpoint was written under different architecture settings")
    end = _need(data, pos, 8, "iteration")
    (iteration,) = struct.unpack("<Q", data[pos:end])
    pos = end
    end = _need(data, pos, 4, "record count")
    (count,) = struct.unpack("<I", data[pos:end])
    pos = end
    arrays = {}
    for _ in range(count):
        end = _need(data, pos, 2, "name length")
        (name_len,) = struct.unpack("<H", data[pos:end])
        pos = end
        end = _need(data, pos, name_len, "name")
        name = data[pos:end].decode("utf-8")
        pos = end
        end = _need(data, pos, 1, "rank")
        ndim = data[pos]
        pos = end
        shape = []
        for _ in range(ndim):
            end = _need(data, pos, 4, "extent")
            shape.append(struct.unpack("<I", data[pos:end])[0])
            pos = end
        size = 1
        for extent in shape:
            size *= extent
        end = _need(data, pos, size * 8, f"data of {name}")
        arrays[name] = np.frombuffer(
            data[pos:end], dtype="<f8").reshape(shape).copy()
        pos = end
    if pos != len(data):
        raise FormatError(f"{path}: {len(data) - pos} trailing bytes")
    return arrays, int(iteration), stored_hash
