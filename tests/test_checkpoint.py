"""Checkpoint format: bit-exact round-trips, hash guarding, and the
truncation/corruption contract."""

import hashlib
import struct
import tracemalloc

import numpy as np
import pytest

from amcr.checkpoint import MAGIC, VERSION, load_checkpoint, save_checkpoint
from amcr.errors import ConfigError, FormatError, VersionError


def fake_hash(tag: bytes = b"x") -> bytes:
    return hashlib.sha256(tag).digest()


def random_arrays(rng, n=6):
    out = {}
    for i in range(n):
        ndim = int(rng.integers(0, 4))
        shape = tuple(int(rng.integers(1, 5)) for _ in range(ndim))
        out[f"p.block{i}.w"] = rng.standard_normal(shape)
    out["k.t"] = np.array(float(rng.integers(0, 1000)))
    return out


def test_roundtrip_bit_exact(tmp_path):
    rng = np.random.default_rng(0)
    for trial in range(20):
        arrays = random_arrays(rng)
        path = tmp_path / f"c{trial}.ckpt"
        save_checkpoint(path, arrays, iteration=trial * 7, config_hash=fake_hash())
        back, iteration, stored = load_checkpoint(path)
        assert iteration == trial * 7
        assert stored == fake_hash()
        assert set(back) == set(arrays)
        for name in arrays:
            got = back[name]
            want = np.asarray(arrays[name], dtype=np.float64)
            assert got.shape == want.shape
            assert got.tobytes() == want.tobytes()  # bitwise, not approx


def test_roundtrip_preserves_special_values(tmp_path):
    arrays = {"p.x": np.array([0.0, -0.0, 1e-310, np.pi, 1e308])}
    path = tmp_path / "s.ckpt"
    save_checkpoint(path, arrays, 0, fake_hash())
    back, _, _ = load_checkpoint(path)
    assert back["p.x"].tobytes() == arrays["p.x"].tobytes()


def test_identical_inputs_identical_bytes(tmp_path):
    rng = np.random.default_rng(1)
    arrays = random_arrays(rng)
    a, b = tmp_path / "a.ckpt", tmp_path / "b.ckpt"
    save_checkpoint(a, arrays, 5, fake_hash())
    save_checkpoint(b, arrays, 5, fake_hash())
    assert a.read_bytes() == b.read_bytes()


def test_expected_hash_must_match(tmp_path):
    path = tmp_path / "h.ckpt"
    save_checkpoint(path, {"p.w": np.ones(3)}, 1, fake_hash(b"arch-a"))
    load_checkpoint(path, expect_hash=fake_hash(b"arch-a"))
    with pytest.raises(ConfigError):
        load_checkpoint(path, expect_hash=fake_hash(b"arch-b"))


def test_version_mismatch_rejected(tmp_path):
    path = tmp_path / "v.ckpt"
    save_checkpoint(path, {"p.w": np.zeros(2)}, 0, fake_hash())
    raw = bytearray(path.read_bytes())
    raw[4:8] = struct.pack("<I", VERSION + 1)
    path.write_bytes(bytes(raw))
    with pytest.raises(VersionError):
        load_checkpoint(path)


def test_bad_magic_rejected(tmp_path):
    path = tmp_path / "m.ckpt"
    save_checkpoint(path, {"p.w": np.zeros(2)}, 0, fake_hash())
    raw = bytearray(path.read_bytes())
    raw[:4] = b"NOPE"
    path.write_bytes(bytes(raw))
    with pytest.raises(FormatError):
        load_checkpoint(path)


def test_every_truncation_point_rejected(tmp_path):
    # cutting the file anywhere must fail loudly, never return partial state
    path = tmp_path / "t.ckpt"
    save_checkpoint(path, {"p.a": np.arange(4.0), "p.b": np.ones((2, 3))},
                    9, fake_hash())
    blob = path.read_bytes()
    for cut in range(len(blob)):
        short = tmp_path / "short.ckpt"
        short.write_bytes(blob[:cut])
        with pytest.raises(FormatError):
            load_checkpoint(short)


def test_trailing_garbage_rejected(tmp_path):
    path = tmp_path / "g.ckpt"
    save_checkpoint(path, {"p.w": np.zeros(2)}, 0, fake_hash())
    path.write_bytes(path.read_bytes() + b"\x00")
    with pytest.raises(FormatError):
        load_checkpoint(path)


def test_bad_hash_length_rejected_on_save(tmp_path):
    with pytest.raises(FormatError):
        save_checkpoint(tmp_path / "x.ckpt", {}, 0, b"short")


@pytest.mark.parametrize("bad", [
    {"n" * 0x10000: np.zeros(1)},
    {"p.wide": np.zeros((0, 0x100000000))},
])
def test_rejected_record_leaves_no_file(tmp_path, bad):
    path = tmp_path / "r.ckpt"
    with pytest.raises(FormatError):
        save_checkpoint(path, {"p.ok": np.zeros(3), **bad}, 0, fake_hash())
    assert not path.exists()


def test_save_writes_records_without_copying_them(tmp_path):
    arrays = {"p.big": np.ones((1000, 1000)), "p.small": np.ones(7)}
    tracemalloc.start()
    try:
        save_checkpoint(tmp_path / "big.ckpt", arrays, 0, fake_hash())
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < arrays["p.big"].nbytes / 10, peak


def test_scalar_and_empty_name_records(tmp_path):
    arrays = {"": np.array(3.5), "p.deep.nested.name": np.zeros(())}
    path = tmp_path / "e.ckpt"
    save_checkpoint(path, arrays, 2, fake_hash())
    back, _, _ = load_checkpoint(path)
    assert back[""].shape == ()
    assert float(back[""]) == 3.5


def test_zero_size_records_roundtrip(tmp_path):
    arrays = {"p.rows": np.zeros((0, 3)), "p.cols": np.zeros((2, 0)),
              "p.after": np.arange(3.0)}
    path = tmp_path / "z.ckpt"
    save_checkpoint(path, arrays, 1, fake_hash())
    back, _, _ = load_checkpoint(path)
    assert back["p.rows"].shape == (0, 3)
    assert back["p.cols"].shape == (2, 0)
    assert back["p.after"].tobytes() == arrays["p.after"].tobytes()


def test_huge_extent_rejected_before_allocating(tmp_path):
    # an extent field corrupted to 0xFFFFFFFF claims ~96 GiB of values; the
    # loader must compare that with the file size, not try to allocate it
    path = tmp_path / "x.ckpt"
    save_checkpoint(path, {"p.w": np.ones((3, 4))}, 0, fake_hash())
    raw = bytearray(path.read_bytes())
    extent_at = 52 + 2 + len(b"p.w") + 1  # header, name length, name, rank
    assert struct.unpack_from("<I", raw, extent_at)[0] == 3
    struct.pack_into("<I", raw, extent_at, 0xFFFFFFFF)
    path.write_bytes(bytes(raw))
    with pytest.raises(FormatError):
        load_checkpoint(path)


def record(name: bytes, values) -> bytes:
    values = np.asarray(values, dtype="<f8")
    return (struct.pack("<H", len(name)) + name
            + struct.pack("<B", values.ndim)
            + b"".join(struct.pack("<I", e) for e in values.shape)
            + values.tobytes())


def header(count: int) -> bytes:
    return (MAGIC + struct.pack("<I", VERSION) + fake_hash()
            + struct.pack("<Q", 0) + struct.pack("<I", count))


def test_non_utf8_record_name_rejected(tmp_path):
    path = tmp_path / "u.ckpt"
    path.write_bytes(header(1) + record(b"p.\xff", [1.0]))
    with pytest.raises(FormatError):
        load_checkpoint(path)


def test_repeated_record_name_rejected(tmp_path):
    path = tmp_path / "d.ckpt"
    path.write_bytes(header(2) + record(b"p.w", [1.0, 2.0])
                     + record(b"p.w", [3.0, 4.0]))
    with pytest.raises(FormatError):
        load_checkpoint(path)
    # the same bytes with distinct names load
    path.write_bytes(header(2) + record(b"p.w", [1.0, 2.0])
                     + record(b"p.v", [3.0, 4.0]))
    back, _, _ = load_checkpoint(path)
    assert back["p.w"].tolist() == [1.0, 2.0]
    assert back["p.v"].tolist() == [3.0, 4.0]
