"""Synthetic aesthetic dataset with known ground truth.

Each procedural image is rendered from four visual attributes —
brightness, contrast, blob offset from center, and pixel noise level —
and its true score is a fixed linear function of them:

    score = 10 * (0.25*brightness + 0.25*contrast
                  + 0.25*(1 - offset) + 0.25*(1 - noise))

A latent quality z ~ N(5, sigma_pop) clamped to [0.5, 9.5] drives the
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
from .tensor import Tensor

ATTRIBUTE_WEIGHTS = (0.25, 0.25, 0.25, 0.25)  # brightness, contrast, 1-offset, 1-noise
MANIFEST_HEADER = ["id", "path", "score", "binary_label", "corrupted", "split"]
SPLITS = ("train", "valid", "test", "meta", "")


@dataclass
class Sample:
    id: str
    path: str
    score: float          # None for discrete (binary-only) samples
    binary_label: int
    corrupted: bool = False
    split: str = ""


@dataclass
class SynthSpec:
    image_height: int = 32
    image_width: int = 32
    sigma_pop: float = 1.8      # latent quality spread around 5
    sigma_label: float = 0.25   # honest labeling noise
    jitter: float = 0.06        # zero-sum attribute jitter scale
    corrupt_fraction: float = 0.0
    corrupt_kind: str = "score-shift"   # or "label-flip"

    def validate(self):
        if self.image_height < 4 or self.image_width < 4:
            raise ConfigError(f"image size {self.image_height}x{self.image_width} too small")
        if self.sigma_pop <= 0 or self.sigma_label < 0 or self.jitter < 0:
            raise ConfigError("spread parameters must be positive")
        if not 0.0 <= self.corrupt_fraction <= 1.0:
            raise ConfigError(f"corrupt fraction {self.corrupt_fraction} outside [0,1]")
        if self.corrupt_kind not in ("score-shift", "label-flip"):
            raise ConfigError(f"unknown corruption kind {self.corrupt_kind!r}")


def true_score(brightness, contrast, offset, noise) -> float:
    """The fixed monotone score function of the four attributes."""
    w = ATTRIBUTE_WEIGHTS
    return 10.0 * (w[0] * brightness + w[1] * contrast
                   + w[2] * (1.0 - offset) + w[3] * (1.0 - noise))


def render_image(brightness, contrast, offset, noise, rng,
                 height: int, width: int) -> np.ndarray:
    """Draw one (3,H,W) uint8 image exhibiting the four attributes.

    brightness sets the mean level; contrast scales a zero-mean wave
    pattern; offset slides a zero-mean blob from the center toward the
    bottom-right corner; noise adds per-pixel jitter. Pattern and blob
    are mean-free so the attributes stay separately recoverable.
    """
    yy, xx = np.meshgrid(np.linspace(-1.0, 1.0, height),
                         np.linspace(-1.0, 1.0, width), indexing="ij")
    pattern = np.sin(2.5 * math.pi * xx) * np.sin(2.5 * math.pi * yy)
    pattern -= pattern.mean()
    cy = cx = 0.55 * offset
    blob = np.exp(-((yy - cy) ** 2 + (xx - cx) ** 2) / (2 * 0.18 ** 2))
    blob -= blob.mean()
    base = (brightness
            + 0.35 * contrast * pattern
            + 0.30 * blob
            + 0.25 * noise * rng.uniform(-1.0, 1.0, size=(height, width)))
    tints = (1.0, 0.97, 0.94)
    img = np.stack([np.clip(base * t + (1 - t) * 0.5, 0.0, 1.0) for t in tints])
    return np.floor(img * 255.0 + 0.5).astype(np.uint8)


def generate_dataset(spec: SynthSpec, n: int, seed: int, out_dir) -> list:
    """Write n images plus a manifest under out_dir; return the samples.

    Deterministic in (spec, n, seed): same inputs give bit-identical
    files. Corruption hits round(corrupt_fraction * n) samples.
    """
    spec.validate()
    if n < 10:
        raise ConfigError(f"dataset needs at least 10 samples, got {n}")
    rng = np.random.default_rng(seed)
    image_dir = os.path.join(out_dir, "images")
    os.makedirs(image_dir, exist_ok=True)

    samples = []
    for i in range(n):
        z = float(np.clip(rng.normal(5.0, spec.sigma_pop), 0.5, 9.5))
        d = (z - 5.0) / 10.0
        contrib = np.array([0.5 + d, 0.5 + d, 0.5 + d, 0.5 + d])
        j = rng.normal(scale=spec.jitter, size=4)
        contrib += j - j.mean()
        contrib = np.clip(contrib, 0.02, 0.98)
        brightness, contrast = contrib[0], contrib[1]
        offset, noise = 1.0 - contrib[2], 1.0 - contrib[3]
        img = render_image(brightness, contrast, offset, noise, rng,
                           spec.image_height, spec.image_width)
        label_noise = rng.normal(0.0, spec.sigma_label)
        score = float(np.clip(true_score(brightness, contrast, offset, noise)
                              + label_noise, 0.0, 10.0))
        sid = f"syn{i:05d}"
        rel_path = os.path.join("images", sid + ".ppm")
        pnm.save_pnm(os.path.join(out_dir, rel_path), img)
        samples.append(Sample(id=sid, path=rel_path, score=score,
                              binary_label=int(score >= 5.0)))

    k = int(round(spec.corrupt_fraction * n))
    if k > 0:
        hit = rng.choice(n, size=k, replace=False)
        for idx in sorted(hit):
            s = samples[idx]
            if spec.corrupt_kind == "score-shift":
                shift = float(rng.uniform(2.0, 4.0)) * float(rng.choice([-1.0, 1.0]))
                new_score = float(np.clip(s.score + shift, 0.0, 10.0))
                samples[idx] = replace(s, score=new_score,
                                       binary_label=int(new_score >= 5.0),
                                       corrupted=True)
            else:
                samples[idx] = replace(s, binary_label=1 - s.binary_label,
                                       corrupted=True)

    save_manifest(os.path.join(out_dir, "manifest.csv"), samples)
    return samples


# ---------------------------------------------------------------------------
# manifest


def save_manifest(path, samples):
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(MANIFEST_HEADER)
        for s in samples:
            score = "" if s.score is None else repr(float(s.score))
            writer.writerow([s.id, s.path, score, int(s.binary_label),
                             int(bool(s.corrupted)), s.split])


def load_manifest(path) -> list:
    samples = []
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header != MANIFEST_HEADER:
            raise FormatError(f"{path}: manifest header {header} != {MANIFEST_HEADER}")
        for lineno, row in enumerate(reader, start=2):
            if len(row) != len(MANIFEST_HEADER):
                raise FormatError(f"{path}:{lineno}: {len(row)} fields")
            sid, rel, score, binary, corrupted, split = row
            if split not in SPLITS:
                raise FormatError(f"{path}:{lineno}: unknown split {split!r}")
            samples.append(Sample(
                id=sid, path=rel,
                score=None if score == "" else float(score),
                binary_label=int(binary),
                corrupted=bool(int(corrupted)),
                split=split))
    return samples


def load_image(path) -> Tensor:
    """Read one PPM/PGM image as a float (C,H,W) tensor in [0,1]."""
    return pnm.load_pnm(path)


# ---------------------------------------------------------------------------
# dataset variants


def make_amdc(samples, rng) -> list:
    """Binary-task view: drop mid-range scores (open interval (4,6)) and
    balance the classes 1:1 by seeded downsampling of the majority."""
    kept = [s for s in samples if s.score is None or not 4.0 < s.score < 6.0]
    pos = [s for s in kept if s.binary_label == 1]
    neg = [s for s in kept if s.binary_label == 0]
    if not pos or not neg:
        raise DataError("one binary class is empty after removing mid scores")
    target = min(len(pos), len(neg))

    def pick(group):
        if len(group) == target:
            return set(range(len(group)))
        return set(rng.choice(len(group), size=target, replace=False).tolist())

    keep_pos, keep_neg = pick(pos), pick(neg)
    ip = in_ = 0
    out = []
    for s in kept:
        if s.binary_label == 1:
            if ip in keep_pos:
                out.append(s)
            ip += 1
        else:
            if in_ in keep_neg:
                out.append(s)
            in_ += 1
    return out


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
