"""Synthetic dataset generation, manifest round-trips, dataset views,
and the split rule."""

import ast
import hashlib
import math
import os
import re

import numpy as np
import pytest

from amcr.data import (MANIFEST_HEADER, THRESHOLD, Sample, SynthSpec,
                       binarize_label, generate_dataset, load_manifest,
                       make_amdc, save_manifest, segment_of, split_811,
                       split_of, ten_class_label, true_score)
from amcr.errors import ConfigError, DataError, FormatError
from amcr.pnm import load_pnm

SMALL = SynthSpec(image_height=8, image_width=8)


def gen(tmp_path, n=20, seed=0, spec=SMALL, sub="d"):
    out = tmp_path / sub
    return generate_dataset(spec, n, seed, str(out)), str(out)


# ---------------------------------------------------------------------------
# generation


def test_generate_writes_images_and_manifest(tmp_path):
    samples, out = gen(tmp_path, n=12)
    assert len(samples) == 12
    assert os.path.exists(os.path.join(out, "manifest.csv"))
    for s in samples:
        assert os.path.exists(os.path.join(out, s.path))
        assert 0.0 <= s.score <= 10.0
        assert s.binary_label == int(s.score >= 5.0)
        assert not s.corrupted
    assert sorted(s.split for s in samples) == ["test"] + ["train"] * 10 + ["valid"]
    assert load_manifest(os.path.join(out, "manifest.csv")) == samples


def test_generate_deterministic_bitwise(tmp_path):
    a, dir_a = gen(tmp_path, n=15, seed=42, sub="a")
    b, dir_b = gen(tmp_path, n=15, seed=42, sub="b")
    assert [s.score for s in a] == [s.score for s in b]
    with open(os.path.join(dir_a, "manifest.csv"), "rb") as fh:
        ma = fh.read()
    with open(os.path.join(dir_b, "manifest.csv"), "rb") as fh:
        mb = fh.read()
    assert ma == mb
    for s in a[:3]:
        with open(os.path.join(dir_a, s.path), "rb") as fh:
            ia = fh.read()
        with open(os.path.join(dir_b, s.path), "rb") as fh:
            ib = fh.read()
        assert ia == ib


def test_generate_different_seeds_differ(tmp_path):
    a, _ = gen(tmp_path, n=15, seed=1, sub="a")
    b, _ = gen(tmp_path, n=15, seed=2, sub="b")
    assert [s.score for s in a] != [s.score for s in b]


# sha256 of every file of a 12-sample 8x8 dataset at seed 0 with a quarter
# corrupted: a change that moves the generated data fails here on purpose,
# and must update these digests knowingly. Corruption comes after
# rendering, so both kinds share their images.
PINNED_IMAGES = {
    3: ["c4e7fa92b70da819d329f1a76af6b99032330bc01e1fd526ba87fa46c38cdf1f",
        "f144f67862801f85dce19ff8ce4b96e158f7be810b768ec183d94222903318a8",
        "81aac8950ff31084dcb28b80bc109565f0e031efbf66d1e9c27fed07d04acb24",
        "c73fc3b218f64dadfde8462abac0b07d67daa1fad2e3219d529dee49b5fae21f",
        "fc8f702cf618018fa30f96b78ad02251ed5c9953a1bc26b82da7feff823c5fcc",
        "310d74f62ce4da3fbf8036cd3f7ef5fce9ac835eaab5c27418d4cfe805ce2c08",
        "29a9022949bc2ad0d064eac2cd59ea2d16909768c687ada3734835814820ce5b",
        "6a14521c23c4bca6fcee5f86a5047e8e22b7f4194032dd3d76cae3a9b74d7114",
        "9089d7fa566502b95cc9d61198c5702eeefbbf80d1b05e7e5082c9ac7da42e57",
        "91eaee626e12a6f81bf138eb7d665788837ab01c1cf9ba1b101b03ad5b53fb62",
        "8917c3c23f6b99f0dfaa0c3bf5ec8f08e882e79bbaa19af3ea62413a2c72ee8e",
        "92ff3b20957bb3caaf9b2153e2cf378323be39c3ccba124c5a7e22ea7f04cf98"],
    1: ["a5db54c67bddb3ab92e5a8ca4103ad404e686448b5f81edf2e57ceadfb5c55cc",
        "545b4bd46daf3d0c24546e84989d6720f91904d5b92d361d3c31281c86fdfae8",
        "799f98fd529d94754717fe96666c64f3a8ea3507c28f7e0625caa8167e0c8ca2",
        "1f1526fc6a8b0fd6501b455290b15ab4a6037dec4c409db3e04eabd08b56e587",
        "89add3caac29f35293001d3a2d0fd4487b162b56761692993e874093aacf3d1e",
        "5c63e8f83c4a733d31a683615415b71ed88c4d5c23bd6d7aa97ae336243568c0",
        "14948af7ba3e3f656e33015a5c0ac2429d98579431665953980cbca4cda2d96b",
        "beba78274999a87f35b0c467e39f09fe1b696ae20b4bcf990788970c3dac7645",
        "9e72ce0d189bbef959cdafb13ab702cbe5355d178dde03aed7b566ca0557e940",
        "423f59f730793b388f94e3cb655a89a1f91f517fe1250dc49641bb9107332000",
        "bcb51560d368b1a6b2504120830af0f6bcb8fa042072e44c047dc7c39b0beb6a",
        "f74ddf2b6697605508aabd0d70baaabb51ce966327f51992e35d8c28ae8ffe3d"],
}
PINNED_MANIFESTS = {
    (3, "score-shift"):
        "18041f95b2c4442f5e2334366bdd45c95c810ad2a6a6c44908ab0f28666b6126",
    (3, "label-flip"):
        "392be59807ed4f2902f90d50066fb36526b60b3424c82b62fe0848a0720ad816",
    (1, "score-shift"):
        "97a8e30445d87a9beb86c609abd9049eb0346e483dd0de8b90898ee18d231737",
    (1, "label-flip"):
        "f6026dfc6e34b78015328e0bf7e0e47f65020a817124427ac1c8b3e71de47237",
}


@pytest.mark.parametrize("channels, kind", sorted(PINNED_MANIFESTS))
def test_generated_bytes_are_pinned(tmp_path, channels, kind):
    spec = SynthSpec(image_height=8, image_width=8, corrupt_fraction=0.25,
                     corrupt_kind=kind, channels=channels)
    samples, out = gen(tmp_path, n=12, spec=spec)

    def digest(rel):
        with open(os.path.join(out, rel), "rb") as fh:
            return hashlib.sha256(fh.read()).hexdigest()

    assert digest("manifest.csv") == PINNED_MANIFESTS[(channels, kind)]
    assert [digest(s.path) for s in samples] == PINNED_IMAGES[channels]


def test_generate_minimum_size(tmp_path):
    with pytest.raises(ConfigError):
        gen(tmp_path, n=9)


def test_spec_validation():
    with pytest.raises(ConfigError):
        SynthSpec(image_height=2).validate()
    with pytest.raises(ConfigError):
        SynthSpec(corrupt_fraction=1.5).validate()
    with pytest.raises(ConfigError):
        SynthSpec(corrupt_kind="swap").validate()
    with pytest.raises(ConfigError):
        SynthSpec(channels=2).validate()


def test_score_statistics_match_population(tmp_path):
    # the latent quality is N(5, SIGMA_POP) lightly clamped, so the sample
    # mean and spread of 10k scores pin the generator's distribution
    spec = SynthSpec(image_height=4, image_width=4)
    samples, _ = gen(tmp_path, n=10000, seed=7, spec=spec)
    scores = np.array([s.score for s in samples])
    assert abs(scores.mean() - 5.0) < 0.1
    assert abs(scores.std() - 1.8) < 0.18
    assert scores.min() >= 0.0 and scores.max() <= 10.0


def test_images_reflect_score_ordering(tmp_path):
    # brightness contributes positively, so bright images should score
    # higher on average: check the correlation over a generated set
    samples, out = gen(tmp_path, n=60, seed=3)
    means = np.array([load_pnm(os.path.join(out, s.path)).mean()
                      for s in samples])
    scores = np.array([s.score for s in samples])
    r = np.corrcoef(means, scores)[0, 1]
    assert r > 0.5


def test_true_score_is_monotone_in_each_attribute():
    base = true_score(0.5, 0.5, 0.5, 0.5)
    assert true_score(0.6, 0.5, 0.5, 0.5) > base   # brighter
    assert true_score(0.5, 0.6, 0.5, 0.5) > base   # more contrast
    assert true_score(0.5, 0.5, 0.6, 0.5) < base   # more off-center
    assert true_score(0.5, 0.5, 0.5, 0.6) < base   # noisier
    assert true_score(0.5, 0.5, 0.5, 0.5) == pytest.approx(5.0)


# ---------------------------------------------------------------------------
# corruption


def test_zero_fraction_means_no_corruption(tmp_path):
    samples, _ = gen(tmp_path, n=30)
    assert not any(s.corrupted for s in samples)


def test_corruption_count_is_rounded_fraction(tmp_path):
    spec = SynthSpec(image_height=8, image_width=8, corrupt_fraction=0.3)
    samples, _ = gen(tmp_path, n=30, spec=spec)
    assert sum(s.corrupted for s in samples) == 9
    spec2 = SynthSpec(image_height=8, image_width=8, corrupt_fraction=0.25)
    samples2, _ = gen(tmp_path, n=30, spec=spec2, sub="e")
    assert sum(s.corrupted for s in samples2) == 8  # round(7.5) ties to even


def test_score_shift_moves_scores_and_labels(tmp_path):
    spec = SynthSpec(image_height=8, image_width=8, corrupt_fraction=0.5)
    clean_spec = SynthSpec(image_height=8, image_width=8)
    corrupted, _ = gen(tmp_path, n=40, seed=11, spec=spec, sub="c")
    reference, _ = gen(tmp_path, n=40, seed=11, spec=clean_spec, sub="r")
    for c, r in zip(corrupted, reference):
        if c.corrupted:
            moved = abs(c.score - r.score)
            # a 2..4 point shift, unless the clamp at 0/10 absorbed part
            assert moved > 0.0
            if 0.0 < c.score < 10.0:
                assert 2.0 - 1e-9 <= moved <= 4.0 + 1e-9
            assert c.binary_label == int(c.score >= 5.0)
        else:
            assert c.score == r.score


def test_label_flip_keeps_scores(tmp_path):
    spec = SynthSpec(image_height=8, image_width=8, corrupt_fraction=0.4,
                     corrupt_kind="label-flip")
    clean_spec = SynthSpec(image_height=8, image_width=8)
    corrupted, _ = gen(tmp_path, n=30, seed=5, spec=spec, sub="c")
    reference, _ = gen(tmp_path, n=30, seed=5, spec=clean_spec, sub="r")
    for c, r in zip(corrupted, reference):
        assert c.score == r.score
        if c.corrupted:
            assert c.binary_label == 1 - r.binary_label
        else:
            assert c.binary_label == r.binary_label


# (module, top-level function) of the only code that may touch the
# corruption flag: the generator sets it and the manifest writer stores it
CORRUPTION_FLAG_OWNERS = {("data", "generate_dataset"),
                          ("data", "save_manifest")}


def test_training_code_never_reads_the_corruption_flag():
    # the mask exists for evaluation only; no learning path may branch on
    # it. Checked on the parsed source of every module, so prose naming
    # the flag does not count and no module is left out
    import amcr
    root = os.path.dirname(amcr.__file__)
    found = []
    for name in sorted(os.listdir(root)):
        if not name.endswith(".py"):
            continue
        with open(os.path.join(root, name)) as fh:
            tree = ast.parse(fh.read())
        for top in tree.body:
            owner = getattr(top, "name", "<module>")
            if (name[:-3], owner) in CORRUPTION_FLAG_OWNERS:
                continue
            for node in ast.walk(top):
                if (isinstance(node, ast.Attribute) and node.attr == "corrupted"
                        or isinstance(node, ast.keyword)
                        and node.arg == "corrupted"):
                    found.append(f"{name}:{node.lineno} in {owner}")
    assert not found


# ---------------------------------------------------------------------------
# manifest round-trip


def test_manifest_roundtrip_identity(tmp_path):
    samples = [
        Sample("a", "images/a.ppm", 7.25, 1, False, "train"),
        Sample("b", "images/b.ppm", 0.123456789012345, 0, True, "valid"),
        Sample("c", "images/c.ppm", 10.0, 1, False, ""),
        Sample("d", "images/d.ppm", 5.0, 1, True, "test"),
    ]
    path = tmp_path / "m.csv"
    save_manifest(path, samples)
    back = load_manifest(path)
    assert back == samples


def test_manifest_roundtrip_many_random(tmp_path):
    rng = np.random.default_rng(13)
    for trial in range(25):
        samples = []
        for i in range(int(rng.integers(1, 30))):
            samples.append(Sample(
                f"s{i}", f"images/s{i}.ppm", float(rng.uniform(0, 10)),
                int(rng.integers(0, 2)), bool(rng.integers(0, 2)),
                str(rng.choice(["train", "valid", "test", ""]))))
        path = tmp_path / f"m{trial}.csv"
        save_manifest(path, samples)
        assert load_manifest(path) == samples


def test_manifest_rejects_malformed(tmp_path):
    p = tmp_path / "bad.csv"
    p.write_text("id,path,score\n")
    with pytest.raises(FormatError):
        load_manifest(p)
    p2 = tmp_path / "bad2.csv"
    p2.write_text(",".join(MANIFEST_HEADER) + "\nx,y,1.0,1,0,nowhere\n")
    with pytest.raises(FormatError):
        load_manifest(p2)
    p3 = tmp_path / "bad3.csv"
    p3.write_text(",".join(MANIFEST_HEADER) + "\nx,y,1.0,1\n")
    with pytest.raises(FormatError):
        load_manifest(p3)
    for row in ("x,y,,1,0,train", "x,y,high,1,0,train", "x,y,1.0,yes,0,train"):
        p4 = tmp_path / "bad4.csv"
        p4.write_text(",".join(MANIFEST_HEADER) + "\n" + row + "\n")
        with pytest.raises(FormatError, match="must be numbers"):
            load_manifest(p4)


FLAGS = "binary_label and corrupted must be 0 or 1, got "


@pytest.mark.parametrize("row, message", [
    ("z,w,12.5,1,0,train", "score '12.5' outside [0, 10]"),
    ("z,w,-0.5,0,0,train", "score '-0.5' outside [0, 10]"),
    ("z,w,nan,0,0,train", "score 'nan' outside [0, 10]"),
    ("z,w,inf,1,0,train", "score 'inf' outside [0, 10]"),
    ("z,w,7.0,3,0,train", FLAGS + "'3', '0'"),
    ("z,w,7.0,-1,0,train", FLAGS + "'-1', '0'"),
    ("z,w,7.0,1,2,train", FLAGS + "'1', '2'"),
    ("x,w,7.0,1,0,train", "id 'x' repeats line 2"),
])
def test_manifest_rejects_out_of_range_values(tmp_path, row, message):
    # every stage takes scores in [0, 10] and 0/1 flags, so a value out
    # of range is a malformed manifest, named by its line
    p = tmp_path / "m.csv"
    p.write_text(",".join(MANIFEST_HEADER) + "\nx,y,10.0,1,1,test\n"
                 + row + "\n")
    with pytest.raises(FormatError, match=r"m\.csv:3: " + re.escape(message)):
        load_manifest(p)


def test_manifest_rejects_meta_split(tmp_path):
    # no stage reads a "meta" split, so such a row would drop out of
    # every split unnoticed
    p = tmp_path / "m.csv"
    p.write_text(",".join(MANIFEST_HEADER) + "\nx,y,1.0,0,0,test\n"
                 "z,w,9.0,1,0,meta\n")
    with pytest.raises(FormatError, match=r"m\.csv:3: unknown split 'meta'"):
        load_manifest(p)


# ---------------------------------------------------------------------------
# score rules


def test_segment_of_bins_an_array_and_rejects_nan():
    segs = segment_of([0.0, 0.999, 1.0, 5.0, 9.999, 10.0])
    assert segs.dtype == np.int64
    assert segs.tolist() == [0, 0, 1, 5, 9, 9]
    assert segment_of([]).shape == (0,)
    for bad in ([3.0, np.nan], [np.inf], [2.0, -1e-9]):
        with pytest.raises(DataError, match=r"outside \[0, 10\]"):
            segment_of(bad)


def test_label_rules_label_an_array_as_the_scalar_rules_do():
    grid = [0.0, 0.25, 1.0, 1.5, 4.0, np.nextafter(5.0, 0.0), 5.0,
            np.nextafter(5.0, 6.0), 7.0, 9.999, 10.0]
    classes, labels = ten_class_label(grid), binarize_label(grid)
    assert classes.dtype == labels.dtype == np.int64
    assert classes.tolist() == [max(math.ceil(s) - 1, 0) for s in grid]
    assert labels.tolist() == [int(s >= THRESHOLD) for s in grid]
    assert classes.tolist() == [ten_class_label(s) for s in grid]
    assert labels.tolist() == [binarize_label(s) for s in grid]
    assert ten_class_label([]).shape == binarize_label([]).shape == (0,)
    for bad in ([3.0, np.nan], [np.inf], [2.0, -1e-9], [10.5]):
        for rule in (ten_class_label, binarize_label):
            with pytest.raises(DataError, match=r"outside \[0, 10\]"):
                rule(bad)


# ---------------------------------------------------------------------------
# dataset views


def scored(scores):
    return [Sample(f"s{i}", f"p{i}", sc, int(sc >= 5.0)) for i, sc in enumerate(scores)]


def test_amdc_removes_open_mid_interval():
    samples = scored([3.0, 4.0, 4.5, 5.0, 5.999, 6.0, 7.0])
    out = make_amdc(samples, np.random.default_rng(0))
    kept_scores = sorted(s.score for s in out)
    assert 4.5 not in kept_scores and 5.0 not in kept_scores
    assert 4.0 in kept_scores and 6.0 in kept_scores  # boundary points stay


def test_amdc_balances_classes_exactly():
    rng = np.random.default_rng(1)
    # 14 negatives, 6 positives after mid-removal
    samples = scored([1.0] * 14 + [8.0] * 6)
    out = make_amdc(samples, rng)
    pos = sum(s.binary_label == 1 for s in out)
    neg = sum(s.binary_label == 0 for s in out)
    assert pos == neg == 6


def test_amdc_balanced_input_unchanged():
    samples = scored([2.0, 3.0, 7.0, 8.0])
    out = make_amdc(samples, np.random.default_rng(2))
    assert out == samples


def test_amdc_preserves_order_of_kept_samples():
    samples = scored([8.0, 1.0, 9.0, 2.0, 7.0, 3.0])
    out = make_amdc(samples, np.random.default_rng(3))
    ids = [s.id for s in out]
    assert ids == sorted(ids, key=lambda i: ids.index(i))  # stable subsequence
    orig_order = [s.id for s in samples]
    assert [i for i in orig_order if i in set(ids)] == ids


def test_amdc_empty_class_raises():
    with pytest.raises(DataError):
        make_amdc(scored([1.0, 2.0, 3.0]), np.random.default_rng(4))
    with pytest.raises(DataError):
        make_amdc(scored([7.0, 8.0]), np.random.default_rng(5))


# ---------------------------------------------------------------------------
# split


def test_split_100_gives_80_10_10():
    samples = scored(list(np.linspace(0, 10, 100)))
    out = split_811(samples, np.random.default_rng(0))
    assert len(split_of(out, "train")) == 80
    assert len(split_of(out, "valid")) == 10
    assert len(split_of(out, "test")) == 10


def test_split_101_gives_81_10_10():
    samples = scored(list(np.linspace(0, 10, 101)))
    out = split_811(samples, np.random.default_rng(1))
    assert len(split_of(out, "train")) == 81
    assert len(split_of(out, "valid")) == 10
    assert len(split_of(out, "test")) == 10


def test_split_partition_property():
    samples = scored(list(np.linspace(0, 10, 57)))
    out = split_811(samples, np.random.default_rng(2))
    ids = set()
    for name in ("train", "valid", "test"):
        part = {s.id for s in split_of(out, name)}
        assert not (ids & part)
        ids |= part
    assert ids == {s.id for s in samples}


def test_split_deterministic_and_seed_sensitive():
    samples = scored(list(np.linspace(0, 10, 40)))
    a = split_811(samples, np.random.default_rng(5))
    b = split_811(samples, np.random.default_rng(5))
    c = split_811(samples, np.random.default_rng(6))
    assert [s.split for s in a] == [s.split for s in b]
    assert [s.split for s in a] != [s.split for s in c]


def test_split_does_not_mutate_input():
    samples = scored(list(np.linspace(0, 10, 12)))
    split_811(samples, np.random.default_rng(7))
    assert all(s.split == "" for s in samples)


def test_split_minimum_size():
    with pytest.raises(DataError):
        split_811(scored([1.0] * 9), np.random.default_rng(8))
