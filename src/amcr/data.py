"""Synthetic aesthetic dataset with known ground truth.

Each procedural image is rendered from four visual attributes —
brightness, contrast, blob offset from center, and pixel noise level —
and its true score is a fixed linear function of them:

    score = 10 * (0.25*brightness + 0.25*contrast
                  + 0.25*(1 - offset) + 0.25*(1 - noise))

A latent quality z ~ N(5, SIGMA_POP) clamped to [0.5, 9.5] drives the
attributes; a zero-sum jitter decorrelates them without moving the
score, and the recorded label adds Gaussian noise. The corruption mask
(score shifts of 2..4 points, or flipped binary labels) is stored in
the manifest but never shown to training code — separating corrupted
from clean samples is the reweighting network's job.
"""

import csv
import math
import os
from dataclasses import dataclass, replace

import numpy as np

from . import pnm
from .errors import ConfigError, DataError, FormatError

ATTRIBUTE_WEIGHTS = (0.25, 0.25, 0.25, 0.25)  # brightness, contrast, 1-offset, 1-noise
MANIFEST_HEADER = ["id", "path", "score", "binary_label", "corrupted", "split"]
SPLITS = ("train", "valid", "test", "")
SIGMA_POP = 1.8     # latent quality spread around 5
SIGMA_LABEL = 0.25  # honest labeling noise
JITTER = 0.06       # zero-sum attribute jitter scale


@dataclass
class Sample:
    id: str
    path: str
    score: float
    binary_label: int
    corrupted: bool = False
    split: str = ""


@dataclass
class SynthSpec:
    image_height: int = 32
    image_width: int = 32
    corrupt_fraction: float = 0.0
    corrupt_kind: str = "score-shift"   # or "label-flip"
    channels: int = 3           # 3 writes color PPM, 1 gray PGM

    def validate(self):
        if self.image_height < 4 or self.image_width < 4:
            raise ConfigError(f"image size {self.image_height}x{self.image_width} too small")
        if not 0.0 <= self.corrupt_fraction <= 1.0:
            raise ConfigError(f"corrupt fraction {self.corrupt_fraction} outside [0,1]")
        if self.corrupt_kind not in ("score-shift", "label-flip"):
            raise ConfigError(f"unknown corruption kind {self.corrupt_kind!r}")
        if self.channels not in (1, 3):
            raise ConfigError(f"a PNM image holds 1 or 3 channels, not {self.channels}")


# ---------------------------------------------------------------------------
# score rules: every label and bin cut from the 0..10 score scale
#
# The ten classes are the classification stage's targets and are
# left-open: class A holds (A, A+1]. The segments bin the segment report
# and the meta-set quotas and are left-closed: segment S holds [S, S+1).
# So an integer score tops its class but opens its segment (5.0 is class
# 4, segment 5), and each rule folds its odd end point in: 0 into class
# 0, 10 into segment 9.

THRESHOLD = 5.0  # binary quality boundary; a score of exactly 5 is positive


def _checked_scores(scores) -> np.ndarray:
    """`scores` as a float64 array, each in [0, 10]; NaN is outside."""
    s = np.asarray(scores, dtype=np.float64)
    outside = ~((s >= 0.0) & (s <= 10.0))
    if outside.any():
        raise DataError(f"score {s[outside][0]} outside [0, 10]")
    return s


def binarize_label(scores) -> np.ndarray:
    """Binary label of each 0..10 score, as int64: 1 at or above
    THRESHOLD, so THRESHOLD itself is 1."""
    return (_checked_scores(scores) >= THRESHOLD).astype(np.int64)


def ten_class_label(scores) -> np.ndarray:
    """Class of each score, as int64: class A covers scores in (A, A+1];
    an exact 0 stays in class 0."""
    return np.maximum(np.ceil(_checked_scores(scores)).astype(np.int64) - 1, 0)


def segment_of(scores) -> np.ndarray:
    """Score segment of each score, as int64: [0,1) -> 0 ... [9,10] -> 9."""
    return np.minimum(_checked_scores(scores).astype(np.int64), 9)


# ---------------------------------------------------------------------------
# rendering


def true_score(brightness, contrast, offset, noise) -> float:
    """The fixed monotone score function of the four attributes."""
    w = ATTRIBUTE_WEIGHTS
    return 10.0 * (w[0] * brightness + w[1] * contrast
                   + w[2] * (1.0 - offset) + w[3] * (1.0 - noise))


def render_image(brightness, contrast, offset, noise, rng,
                 yy, xx, pattern) -> np.ndarray:
    """Draw one (3,H,W) uint8 image exhibiting the four attributes, on
    the (H,W) coordinates yy, xx in [-1, 1] and the zero-mean wave
    `pattern` over them, which generate_dataset builds once per size.

    brightness sets the mean level; contrast scales the pattern; offset
    slides a zero-mean blob from the center toward the bottom-right
    corner; noise adds per-pixel jitter. Pattern and blob are mean-free
    so the attributes stay separately recoverable.
    """
    cy = cx = 0.55 * offset
    blob = np.exp(-((yy - cy) ** 2 + (xx - cx) ** 2) / (2 * 0.18 ** 2))
    blob -= blob.mean()
    base = (brightness
            + 0.35 * contrast * pattern
            + 0.30 * blob
            + 0.25 * noise * rng.uniform(-1.0, 1.0, size=yy.shape))
    tints = np.array([1.0, 0.97, 0.94]).reshape(3, 1, 1)
    img = np.clip(base * tints + (1 - tints) * 0.5, 0.0, 1.0)
    return np.floor(img * 255.0 + 0.5).astype(np.uint8)


def generate_dataset(spec: SynthSpec, n: int, seed: int, out_dir) -> list:
    """Write n images plus a manifest under out_dir; return the samples.

    Deterministic in (spec, n, seed): same inputs give bit-identical
    files. Corruption hits round(corrupt_fraction * n) samples, and then
    split_811 tags the samples with its own generator seeded by `seed`. A
    1-channel dataset holds the first, untinted channel of the same
    renders, so its scores and splits equal the 3-channel dataset's.
    """
    spec.validate()
    if n < 10:
        raise ConfigError(f"dataset needs at least 10 samples, got {n}")
    rng = np.random.default_rng(seed)
    image_dir = os.path.join(out_dir, "images")
    os.makedirs(image_dir, exist_ok=True)
    extension = ".ppm" if spec.channels == 3 else ".pgm"

    yy, xx = np.meshgrid(np.linspace(-1.0, 1.0, spec.image_height),
                         np.linspace(-1.0, 1.0, spec.image_width), indexing="ij")
    pattern = np.sin(2.5 * math.pi * xx) * np.sin(2.5 * math.pi * yy)
    pattern -= pattern.mean()
    samples = []
    for i in range(n):
        z = float(np.clip(rng.normal(5.0, SIGMA_POP), 0.5, 9.5))
        d = (z - 5.0) / 10.0
        contrib = np.array([0.5 + d, 0.5 + d, 0.5 + d, 0.5 + d])
        j = rng.normal(scale=JITTER, size=4)
        contrib += j - j.mean()
        contrib = np.clip(contrib, 0.02, 0.98)
        brightness, contrast = contrib[0], contrib[1]
        offset, noise = 1.0 - contrib[2], 1.0 - contrib[3]
        img = render_image(brightness, contrast, offset, noise, rng,
                           yy, xx, pattern)
        label_noise = rng.normal(0.0, SIGMA_LABEL)
        score = float(np.clip(true_score(brightness, contrast, offset, noise)
                              + label_noise, 0.0, 10.0))
        sid = f"syn{i:05d}"
        rel_path = os.path.join("images", sid + extension)
        pnm.save_pnm(os.path.join(out_dir, rel_path), img[:spec.channels])
        samples.append(Sample(id=sid, path=rel_path, score=score,
                              binary_label=0))

    k = int(round(spec.corrupt_fraction * n))
    hit = sorted(rng.choice(n, size=k, replace=False)) if k > 0 else []
    for idx in hit:
        samples[idx].corrupted = True
        if spec.corrupt_kind == "score-shift":
            shift = float(rng.uniform(2.0, 4.0)) * float(rng.choice([-1.0, 1.0]))
            samples[idx].score = float(np.clip(samples[idx].score + shift,
                                               0.0, 10.0))
    labels = binarize_label([s.score for s in samples]).tolist()
    for s, label in zip(samples, labels):
        # a flipped label is the one corruption that leaves the score alone
        flip = s.corrupted and spec.corrupt_kind == "label-flip"
        s.binary_label = 1 - label if flip else label

    samples = split_811(samples, np.random.default_rng(seed))
    save_manifest(os.path.join(out_dir, "manifest.csv"), samples)
    return samples


# ---------------------------------------------------------------------------
# manifest


def save_manifest(path, samples):
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(MANIFEST_HEADER)
        for s in samples:
            writer.writerow([s.id, s.path, repr(float(s.score)),
                             int(s.binary_label),
                             int(bool(s.corrupted)), s.split])


def load_manifest(path) -> list:
    samples = []
    line_of = {}  # id -> its line; images are keyed by id
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header != MANIFEST_HEADER:
            raise FormatError(f"{path}: manifest header {header} != {MANIFEST_HEADER}")
        for lineno, row in enumerate(reader, start=2):
            if len(row) != len(MANIFEST_HEADER):
                raise FormatError(f"{path}:{lineno}: {len(row)} fields")
            sid, rel, score, binary, corrupted, split = row
            if sid in line_of:
                raise FormatError(
                    f"{path}:{lineno}: id {sid!r} repeats line {line_of[sid]}")
            line_of[sid] = lineno
            if split not in SPLITS:
                raise FormatError(f"{path}:{lineno}: unknown split {split!r}")
            try:
                value, label, flag = float(score), int(binary), int(corrupted)
            except ValueError:
                # an empty score lands here too: no stage can train on it
                raise FormatError(
                    f"{path}:{lineno}: score, binary_label and corrupted "
                    f"must be numbers, got {score!r}, {binary!r}, "
                    f"{corrupted!r}") from None
            if not 0.0 <= value <= 10.0:  # NaN fails this too
                raise FormatError(
                    f"{path}:{lineno}: score {score!r} outside [0, 10]")
            if label not in (0, 1) or flag not in (0, 1):
                raise FormatError(
                    f"{path}:{lineno}: binary_label and corrupted must be "
                    f"0 or 1, got {binary!r}, {corrupted!r}")
            samples.append(Sample(sid, rel, value, label, bool(flag), split))
    return samples


# ---------------------------------------------------------------------------
# dataset variants


def drop_mid_scores(samples) -> list:
    """Samples outside the open mid-range band that the binary task
    leaves out."""
    return [s for s in samples if not 4.0 < s.score < 6.0]


def make_amdc(samples, rng) -> list:
    """Binary-task view: drop mid-range scores (see drop_mid_scores) and
    balance the classes 1:1 by seeded downsampling of the majority."""
    kept = drop_mid_scores(samples)
    pos = [i for i, s in enumerate(kept) if s.binary_label == 1]
    neg = [i for i, s in enumerate(kept) if s.binary_label == 0]
    if not pos or not neg:
        raise DataError("one binary class is empty after removing mid scores")
    small, large = sorted((pos, neg), key=len)
    if len(large) > len(small):
        large = [large[j] for j in
                 rng.choice(len(large), size=len(small), replace=False)]
    return [kept[i] for i in sorted(small + large)]


def split_811(samples, rng) -> list:
    """Tag samples train/valid/test 8:1:1 after a seeded shuffle.

    Counts use largest-remainder rounding with ties resolved in the
    order train, valid, test.
    """
    n = len(samples)
    if n < 10:
        raise DataError(f"need at least 10 samples to split, got {n}")
    fractions = (0.8, 0.1, 0.1)
    base = [int(math.floor(f * n)) for f in fractions]
    remainders = [f * n - b for f, b in zip(fractions, base)]
    leftover = n - sum(base)
    for idx in sorted(range(3), key=lambda i: -remainders[i])[:leftover]:
        base[idx] += 1
    order = rng.permutation(n)
    tags = ["train"] * base[0] + ["valid"] * base[1] + ["test"] * base[2]
    out = list(samples)
    for pos, sample_idx in enumerate(order):
        out[sample_idx] = replace(samples[sample_idx], split=tags[pos])
    return out


def split_of(samples, name: str) -> list:
    part = [s for s in samples if s.split == name]
    return part
