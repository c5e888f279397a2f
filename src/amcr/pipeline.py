"""Staged training pipeline: binary routing, pseudo-label split, per-branch
classification-then-regression training, and fused scoring.

Three variants share one backbone architecture:

  r    one regressor trained end to end on raw scores.
  cr   ten-class training first, then the regression head on the frozen
       backbone's features.
  pcr  a binary classifier routes every sample to one of two branches by
       its own prediction (not the ground-truth label); each branch is a
       cr-style regressor, and scores fuse with the all-data regressor.

Branch weighting, when enabled, reuses the reweighting loop: the
loss-to-weight network is trained during the classification phase and
frozen for the regression phase.
"""

from __future__ import annotations

import dataclasses
import math
import os
import warnings

import numpy as np

from . import training as TR
from .data import make_amdc, load_image
from .errors import ConfigError, DataError
from .image import aab_prepare, preprocess_crop, preprocess_resize
from .metrics import evaluate_scores, segment_report
from .training import TrainSettings, train_model

__all__ = [
    "binarize_label", "ten_class_label", "train_binary", "pseudo_split",
    "train_branch", "fuse_score", "run_pipeline", "run_ablation",
    "SplitAssignment", "PipelineArtifacts", "prepare_images",
]


def binarize_label(score: float) -> int:
    """Threshold a 0..10 score at the 5-point boundary; 5.0 itself is 1."""
    s = float(score)
    if not 0.0 <= s <= 10.0:
        raise DataError(f"score {s} outside [0, 10]")
    return 1 if s >= 5.0 else 0


def ten_class_label(score: float) -> int:
    """Class A covers scores in (A, A+1]; an exact 0 stays in class 0."""
    s = float(score)
    if not 0.0 <= s <= 10.0:
        raise DataError(f"score {s} outside [0, 10]")
    if s == 0.0:
        return 0
    return int(math.ceil(s)) - 1


# ---------------------------------------------------------------------------
# preprocessing


def prepare_images(samples, base_dir, prep: str, *, crop_side: int = 32,
                   square_side: int = 64) -> dict:
    """Load and preprocess every sample once; id -> (C,H,W) float array."""
    out = {}
    for s in samples:
        img = load_image(os.path.join(base_dir, s.path))
        if prep == "crop":
            out[s.id] = preprocess_crop(img, crop_side).data
        elif prep == "resize":
            out[s.id] = preprocess_resize(img, crop_side).data
        elif prep == "aab":
            out[s.id] = aab_prepare(img, square_side).data
        else:
            raise ConfigError(f"unknown preprocessing {prep!r}")
    return out


# ---------------------------------------------------------------------------
# binary stage


def train_binary(model, train, valid, images, settings: TrainSettings, rng, *,
                 use_mrn: bool = False, meta_samples=None,
                 mrn=None) -> TR.TrainResult:
    """Fit a 2-way classifier on threshold labels, tracking best validation
    accuracy; the best parameters are left on the model."""
    if model.num_classes != 2:
        raise ConfigError(
            f"binary stage needs a 2-class head, got {model.num_classes}")
    if not valid:
        raise DataError("empty validation split")
    label_of = lambda s: binarize_label(s.score)
    loss_fn = TR.class_loss_fn(model, images, label_of)
    valid_fn = lambda: TR.eval_class_accuracy(model, valid, images, label_of)
    return train_model(model, loss_fn, train, valid_fn, settings, rng,
                       metric_mode="higher", use_mrn=use_mrn,
                       meta_samples=meta_samples, mrn=mrn)


@dataclasses.dataclass
class SplitAssignment:
    """Pseudo-label routing of the train and validation sets."""

    pseudo: dict
    train0: list
    train1: list
    valid0: list
    valid1: list

    def counts(self):
        return {
            "train0": len(self.train0), "train1": len(self.train1),
            "valid0": len(self.valid0), "valid1": len(self.valid1),
        }


def pseudo_split(model, train, valid, images) -> SplitAssignment:
    """Route every sample by the classifier's own prediction.

    Ground-truth scores play no part; a branch left empty only produces
    a warning here, the fallback happens at fuse time.
    """
    pseudo = {}
    buckets = {("t", 0): [], ("t", 1): [], ("v", 0): [], ("v", 1): []}
    for tag, group in (("t", train), ("v", valid)):
        for s in group:
            label = TR.predict_class(model, images[s.id])
            label = 1 if label >= 1 else 0
            pseudo[s.id] = label
            buckets[(tag, label)].append(s)
    split = SplitAssignment(pseudo, buckets[("t", 0)], buckets[("t", 1)],
                            buckets[("v", 0)], buckets[("v", 1)])
    for name in ("train0", "train1"):
        if not getattr(split, name):
            warnings.warn(f"pseudo split left {name} empty", stacklevel=2)
    return split


# ---------------------------------------------------------------------------
# branch training


def train_branch(model, train, valid, images, class_settings: TrainSettings,
                 reg_settings: TrainSettings, rng, *, use_mrn: bool = False,
                 meta_samples=None):
    """Two-phase fit: ten-class backbone training, then the regression head
    on frozen features.

    Phase 1 keeps the regression head untouched; phase 2 trains only the
    regression head, with the backbone, class head, and (when enabled)
    the trained loss-to-weight network all frozen. Returns the phase
    results as a dict.
    """
    if len(train) < class_settings.batch_size or len(train) < reg_settings.batch_size:
        raise DataError(
            f"branch of {len(train)} samples is smaller than one batch")
    if not valid:
        raise DataError("empty validation split")
    label_of = lambda s: ten_class_label(s.score)
    mrn = None
    if use_mrn:
        from .blocks import Mrn
        mrn = Mrn(hidden=class_settings.mrn_hidden, rng=rng)

    loss_fn = TR.class_loss_fn(model, images, label_of)
    valid_fn = lambda: TR.eval_class_accuracy(model, valid, images, label_of)
    phase1 = train_model(model, loss_fn, train, valid_fn, class_settings, rng,
                         trainable=model.trainable_names("class"),
                         metric_mode="higher", use_mrn=use_mrn,
                         meta_samples=meta_samples, mrn=mrn)

    # the backbone is frozen now, so each image collapses to one feature row
    feats = TR.cache_features(model, list(train) + list(valid) +
                              list(meta_samples or []), images)
    reg_loss = TR.reg_loss_fn(model, feats)
    reg_valid = lambda: TR.eval_reg_feature_mse(model, valid, feats)
    phase2 = train_model(model, reg_loss, train, reg_valid, reg_settings, rng,
                         trainable=model.trainable_names("reg"),
                         metric_mode="lower",
                         use_mrn=use_mrn, meta_samples=meta_samples,
                         mrn=mrn, freeze_mrn=True)
    return {"class": phase1, "reg": phase2}


# ---------------------------------------------------------------------------
# fused scoring


def _clamp_score(x: float) -> float:
    return float(min(10.0, max(0.0, x)))


def fuse_score(c2, r0, r1, r_all, image) -> float:
    """Route by the binary prediction, average the branch and all-data
    regressors, clamp to the score scale.

    A missing branch model (None) degrades to the all-data regressor.
    """
    side = TR.predict_class(c2, image)
    branch = r1 if side >= 1 else r0
    all_score = TR.predict_score(r_all, image)
    if branch is None:
        return _clamp_score(all_score)
    return _clamp_score(0.5 * (TR.predict_score(branch, image) + all_score))


# ---------------------------------------------------------------------------
# variant runner


@dataclasses.dataclass
class PipelineArtifacts:
    """Trained models plus the records needed to audit a run."""

    variant: str
    r_all: object
    c2: object = None
    r0: object = None
    r1: object = None
    split: SplitAssignment = None
    history: dict = dataclasses.field(default_factory=dict)
    binary_report: list = None

    def predict(self, image) -> float:
        if self.variant == "pcr":
            return fuse_score(self.c2, self.r0, self.r1, self.r_all, image)
        return _clamp_score(TR.predict_score(self.r_all, image))

    def predict_samples(self, samples, images) -> np.ndarray:
        return np.array([self.predict(images[s.id]) for s in samples])


def run_pipeline(variant: str, train, valid, images, model_factory,
                 class_settings: TrainSettings, reg_settings: TrainSettings,
                 rng, *, use_mrn: bool = False, meta_samples=None,
                 amdc_rng=None) -> PipelineArtifacts:
    """Train one variant end to end and return every produced model.

    `model_factory(rng, num_classes)` builds a fresh backbone; all models
    of a run share the architecture it encodes. The binary stage trains
    on the distilled two-sided subset of `train` (mid scores removed).
    """
    if variant not in ("r", "cr", "pcr"):
        raise ConfigError(f"unknown pipeline variant {variant!r}")
    if use_mrn and not meta_samples:
        raise DataError("reweighted training needs a meta set")
    art = PipelineArtifacts(variant=variant, r_all=None)

    if variant == "r":
        model = model_factory(rng, 10)
        loss_fn = TR.reg_loss_fn(model, images)
        valid_fn = lambda: TR.eval_reg_mse(model, valid, images)
        art.history["r"] = train_model(
            model, loss_fn, train, valid_fn, reg_settings, rng,
            metric_mode="lower", use_mrn=use_mrn, meta_samples=meta_samples)
        art.r_all = model
        return art

    # cr and pcr both need the all-data branch model
    r_all = model_factory(rng, 10)
    art.history["r_all"] = train_branch(
        r_all, train, valid, images, class_settings, reg_settings, rng,
        use_mrn=use_mrn, meta_samples=meta_samples)
    art.r_all = r_all
    if variant == "cr":
        return art

    # binary router, trained on the two-sided subset
    amdc_rng = np.random.default_rng(0) if amdc_rng is None else amdc_rng
    amdc_train = make_amdc(train, amdc_rng)
    amdc_valid = [s for s in valid if not 4.0 < s.score < 6.0]
    if not amdc_valid:
        amdc_valid = valid
    c2 = model_factory(rng, 2)
    art.history["c2"] = train_binary(
        c2, amdc_train, amdc_valid, images, class_settings, rng,
        use_mrn=use_mrn, meta_samples=meta_samples)
    art.c2 = c2
    preds = [TR.predict_class(c2, images[s.id]) for s in valid]
    art.binary_report = segment_report(preds, [s.score for s in valid])

    split = pseudo_split(c2, train, valid, images)
    art.split = split
    for name, btrain, bvalid in (("r0", split.train0, split.valid0),
                                 ("r1", split.train1, split.valid1)):
        if len(btrain) < max(class_settings.batch_size, reg_settings.batch_size):
            warnings.warn(
                f"branch {name} has {len(btrain)} samples, falling back to "
                "the all-data regressor", stacklevel=2)
            continue
        model = model_factory(rng, 10)
        art.history[name] = train_branch(
            model, btrain, bvalid or valid, images, class_settings,
            reg_settings, rng, use_mrn=use_mrn, meta_samples=meta_samples)
        setattr(art, name, model)
    return art


# ---------------------------------------------------------------------------
# ablation harness


def run_ablation(requests, train, valid, test, images_by_prep, model_factory,
                 class_settings, reg_settings, *, meta_samples=None,
                 base_seed: int = 0):
    """Run each requested (variant, prep, eca, mrn) cell and score it.

    `images_by_prep` maps prep name -> id -> array (see prepare_images);
    `model_factory(rng, num_classes, eca, prep)` builds the cell's model.
    Cells run in order, each with its own RNG stream seeded from
    `base_seed` and the cell index.
    """
    requests = list(requests)
    for req in requests:
        unknown = set(req) - {"variant", "prep", "eca", "mrn"}
        if unknown:
            raise ConfigError(f"unknown ablation keys {sorted(unknown)}")
        if req["variant"] not in ("r", "cr", "pcr"):
            raise ConfigError(f"unknown pipeline variant {req['variant']!r}")
        if req["prep"] not in images_by_prep:
            raise ConfigError(f"no prepared images for prep {req['prep']!r}")

    def run_cell(index, req):
        rng = np.random.default_rng((base_seed, index))
        images = images_by_prep[req["prep"]]
        factory = lambda r, k: model_factory(r, k, req["eca"], req["prep"])
        art = run_pipeline(req["variant"], train, valid, images, factory,
                           class_settings, reg_settings, rng,
                           use_mrn=req["mrn"], meta_samples=meta_samples)
        preds = art.predict_samples(test, images)
        report = evaluate_scores(preds, [s.score for s in test])
        return {**req, "report": report, "artifacts": art}

    return [run_cell(index, req) for index, req in enumerate(requests)]
