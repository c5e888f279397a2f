"""Synthetic dataset generation, manifest round-trips, dataset views,
and the split rule."""

import os

import numpy as np
import pytest

from amcr.data import (MANIFEST_HEADER, Sample, SynthSpec, generate_dataset,
                       load_image, load_manifest, make_amdc,
                       save_manifest, split_811, split_of, true_score)
from amcr.errors import ConfigError, DataError, FormatError

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
        assert s.split == ""


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
        SynthSpec(sigma_pop=0.0).validate()


def test_score_statistics_match_population(tmp_path):
    # the latent quality is N(5, sigma_pop) lightly clamped, so the sample
    # mean and spread of 10k scores pin the generator's distribution
    spec = SynthSpec(image_height=4, image_width=4, sigma_pop=1.8)
    samples, _ = gen(tmp_path, n=10000, seed=7, spec=spec)
    scores = np.array([s.score for s in samples])
    assert abs(scores.mean() - 5.0) < 0.1
    assert abs(scores.std() - 1.8) < 0.18
    assert scores.min() >= 0.0 and scores.max() <= 10.0


def test_images_reflect_score_ordering(tmp_path):
    # brightness contributes positively, so bright images should score
    # higher on average: check the correlation over a generated set
    samples, out = gen(tmp_path, n=60, seed=3)
    means = np.array([load_image(os.path.join(out, s.path)).data.mean()
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


def test_training_code_never_reads_the_corruption_flag():
    # the mask exists for evaluation only; no learning path may branch on it
    import amcr
    root = os.path.dirname(amcr.__file__)
    for mod in ("training.py", "meta.py", "pipeline.py", "blocks.py",
                "tensor.py", "optim.py"):
        with open(os.path.join(root, mod)) as fh:
            assert "corrupted" not in fh.read(), mod


# ---------------------------------------------------------------------------
# manifest round-trip


def test_manifest_roundtrip_identity(tmp_path):
    samples = [
        Sample("a", "images/a.ppm", 7.25, 1, False, "train"),
        Sample("b", "images/b.ppm", 0.123456789012345, 0, True, "valid"),
        Sample("c", "images/c.ppm", None, 1, False, ""),
        Sample("d", "images/d.ppm", 5.0, 1, True, "meta"),
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
            score = None if rng.random() < 0.2 else float(rng.uniform(0, 10))
            samples.append(Sample(
                f"s{i}", f"images/s{i}.ppm", score,
                int(rng.integers(0, 2)), bool(rng.integers(0, 2)),
                str(rng.choice(["train", "valid", "test", "meta", ""]))))
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
