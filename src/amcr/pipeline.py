"""Staged training pipeline: binary routing, pseudo-label split, per-branch
classification-then-regression training, and fused scoring.

Three variants share one backbone architecture:

  r    one regressor trained end to end on raw scores.
  cr   ten-class training first, then the regression head solved in
       closed form on the frozen backbone's features.
  pcr  a binary classifier routes every sample to one of two branches by
       its own prediction (not the ground-truth label); each branch is a
       cr-style regressor, and scores fuse with the all-data regressor.

Every trained stage is reweighted exactly when it is handed a meta set:
then `train_model` draws and learns the loss-to-weight network on that
stage's own loss. A branch learns it during the classification phase
only; the regression solve that follows weighs every sample alike.
"""

from __future__ import annotations

import dataclasses
import os

import numpy as np

from . import pnm
from . import training as TR
from .data import drop_mid_scores, make_amdc, ten_class_label
from .errors import ConfigError, DataError, warn
from .image import aab_prepare, preprocess_crop, preprocess_resize
from .kernels import off_heap_zeros
from .metrics import evaluate_scores
from .training import TrainSettings, train_model

__all__ = [
    "router_sets", "train_binary", "route", "pseudo_split", "train_branch",
    "fuse_score", "run_pipeline", "run_ablation", "PipelineArtifacts",
    "load_image", "prepare_image", "prepare_images",
]


# ---------------------------------------------------------------------------
# preprocessing


def prepare_image(img, prep: str, crop_side: int, square_side: int):
    """One loaded (C,H,W) image preprocessed as `prep` names: crop,
    resize or aab."""
    if prep == "crop":
        return preprocess_crop(img, crop_side)
    if prep == "resize":
        return preprocess_resize(img, crop_side)
    if prep == "aab":
        return aab_prepare(img, square_side)
    raise ConfigError(f"unknown preprocessing {prep!r}")


def load_image(path, in_channels: int):
    """The (C,H,W) image at `path`; one with other than `in_channels`
    channels, the count the model takes, is bad data."""
    image = pnm.load_pnm(path)
    if image.shape[0] != in_channels:
        raise DataError(f"{path}: a {image.shape[0]}-channel image, but the "
                        f"model takes {in_channels} channels")
    return image


def prepare_images(samples, base_dir, prep: str, *, crop_side: int = 32,
                   square_side: int = 64, in_channels: int = 3) -> dict:
    """Load and preprocess every sample once; id -> (C,H,W) float array.

    The arrays are the rows of one block off the heap
    (kernels.off_heap_zeros), which training's small blocks would
    otherwise keep resident once the images are freed. Each image's
    channel count is checked (load_image) before its row is written."""
    samples = list(samples)
    images, block = {}, None
    for i, s in enumerate(samples):
        image = prepare_image(load_image(os.path.join(base_dir, s.path), in_channels),
                              prep, crop_side, square_side)
        if block is None:  # every prepared image has the first one's shape
            block = off_heap_zeros((len(samples),) + image.shape)
        block[i] = image
        images[s.id] = block[i]
    return images


# ---------------------------------------------------------------------------
# binary stage


def router_sets(train, valid):
    """The binary router's (train, valid) sets: the two-sided subset of
    `train` (make_amdc, downsampled with a fixed seed 0, so the run's RNG
    is not drawn), and `valid` without mid scores, or all of `valid` when
    the filter leaves nothing."""
    return (make_amdc(train, np.random.default_rng(0)),
            drop_mid_scores(valid) or list(valid))


def _fit_classifier(model, train, valid, images, settings: TrainSettings, rng,
                    labels_of, meta_samples) -> TR.TrainResult:
    """Fit what the class loss reaches to the labels `labels_of(samples)`,
    tracking best validation accuracy; the best parameters stay on the model."""
    if not valid:
        raise DataError("empty validation split")
    loss_fn = TR.class_loss_fn(model, images, labels_of)
    valid_fn = lambda: TR.eval_class_accuracy(model, valid, images, labels_of)
    return train_model(model, loss_fn, train, valid_fn, settings, rng,
                       metric_mode="higher", meta_samples=meta_samples)


def train_binary(model, train, valid, images, settings: TrainSettings, rng, *,
                 meta_samples=None) -> TR.TrainResult:
    """Fit a 2-way classifier on the manifest's `binary_label` (the AMD-CR
    class label: the score's `data.binarize_label` unless the data flipped it)."""
    if model.num_classes != 2:
        raise ConfigError(
            f"binary stage needs a 2-class head, got {model.num_classes}")
    return _fit_classifier(model, train, valid, images, settings, rng,
                           lambda batch: [s.binary_label for s in batch],
                           meta_samples)


def route(c2, inputs) -> np.ndarray:
    """The branch, 0 or 1, of each image in the list `inputs`: the binary
    router c2's predicted class. The one routing rule of pcr, by which
    pseudo_split splits and fuse_score scores."""
    return TR.predict_class(c2, inputs)


# a router sending more than this share of the train set to one branch
# has collapsed: its branches split nothing
MAX_BRANCH_SHARE = 0.95


def pseudo_split(model, train, valid, images) -> dict:
    """The id -> branch map of every train and valid sample, each routed
    by the router's own prediction (route).

    Ground-truth scores play no part. A router that sends more than
    MAX_BRANCH_SHARE of `train` to one branch (an empty branch included)
    only warns here; run_pipeline trains no model (None) for a branch
    under one batch, and fuse_score scores that branch's inputs with
    r_all alone.
    """
    routed = [*train, *valid]
    branches = route(model, [images[s.id] for s in routed]).tolist()
    ones = sum(branches[:len(train)])
    larger = max(ones, len(train) - ones)
    if larger > MAX_BRANCH_SHARE * len(train):
        warn(f"router sent {larger} of {len(train)} train samples to one "
             "branch")
    return dict(zip([s.id for s in routed], branches))


# ---------------------------------------------------------------------------
# branch training


def train_branch(model, train, valid, images, settings: TrainSettings, rng,
                 *, meta_samples=None):
    """Two-phase fit: ten-class backbone training, then the regression head
    on frozen features.

    Phase 1 keeps the regression head untouched and, given a meta set,
    learns a loss-to-weight network on the ten-class loss. Phase 2 is
    one unweighted least-squares solve of the regression head
    (training.solve_reg_head) with the same weight decay; it uses no
    network and draws nothing from `rng`. Returns the phase results as a
    dict.
    """
    phase1 = _fit_classifier(
        model, train, valid, images, settings, rng,
        lambda batch: ten_class_label([s.score for s in batch]), meta_samples)

    # the backbone is frozen now, so each image collapses to one feature row
    rows = TR.cache_features(model, [*train, *valid], images)
    n = len(train)
    phase2 = TR.solve_reg_head(model, rows[:n], [s.score for s in train],
                               rows[n:], [s.score for s in valid],
                               settings.weight_decay)
    return {"class": phase1, "reg": phase2}


# ---------------------------------------------------------------------------
# fused scoring


def fuse_score(c2, r0, r1, r_all, inputs) -> np.ndarray:
    """Route the list `inputs` with one route call, and average each
    branch regressor with the all-data regressor on the inputs routed to
    it: branch b scores the inputs with route(...) == b. The result is
    not clamped.

    A missing branch model (None) degrades to the all-data regressor. A
    branch may also be a function of no arguments that returns its model,
    called only when some input is routed to the branch.
    """
    inputs = list(inputs)
    branch_of = route(c2, inputs)
    fused = TR.predict_score(r_all, inputs)
    for b, branch in enumerate((r0, r1)):
        idx = np.flatnonzero(branch_of == b)
        if callable(branch) and idx.size:
            branch = branch()
        if branch is not None and idx.size:
            own = TR.predict_score(branch, [inputs[i] for i in idx])
            fused[idx] = 0.5 * (own + fused[idx])
    return fused


# ---------------------------------------------------------------------------
# variant runner


@dataclasses.dataclass
class PipelineArtifacts:
    """Trained models plus the records needed to audit a run. A pcr
    branch, r0 or r1, is its model, None, or a loader of its model (see
    fuse_score); `split` is pcr's pseudo_split map."""

    variant: str
    r_all: object
    c2: object = None
    r0: object = None
    r1: object = None
    split: dict = None
    history: dict = dataclasses.field(default_factory=dict)

    def predict(self, inputs) -> np.ndarray:
        """Scores of the list of images `inputs`, clamped to 0..10; the one
        scoring entry point of every command."""
        if self.variant == "pcr":
            scores = fuse_score(self.c2, self.r0, self.r1, self.r_all, inputs)
        else:
            scores = TR.predict_score(self.r_all, inputs)
        return np.clip(scores, 0.0, 10.0)


def run_pipeline(variant: str, train, valid, images, model_factory,
                 class_settings: TrainSettings, reg_settings: TrainSettings,
                 rng, *, meta_samples=None) -> PipelineArtifacts:
    """Train one variant end to end and return every produced model.

    `model_factory(rng, num_classes)` builds a fresh backbone; all models
    of a run share the architecture it encodes. `reg_settings` trains
    variant r only, `class_settings` every other stage. The binary stage
    trains on `router_sets(train, valid)`. Every stage is reweighted when
    `meta_samples` is given.
    """
    if variant not in ("r", "cr", "pcr"):
        raise ConfigError(f"unknown pipeline variant {variant!r}")
    art = PipelineArtifacts(variant=variant, r_all=None)

    if variant == "r":
        model = model_factory(rng, 10)
        loss_fn = TR.reg_loss_fn(model, images)
        valid_fn = lambda: TR.eval_reg_mse(model, valid, images)
        art.history["r"] = train_model(
            model, loss_fn, train, valid_fn, reg_settings, rng,
            metric_mode="lower", meta_samples=meta_samples)
        art.r_all = model
        return art

    # cr and pcr both need the all-data branch model
    r_all = model_factory(rng, 10)
    art.history["r_all"] = train_branch(
        r_all, train, valid, images, class_settings, rng,
        meta_samples=meta_samples)
    art.r_all = r_all
    if variant == "cr":
        return art

    # binary router, trained on the two-sided subset
    c2 = model_factory(rng, 2)
    art.history["c2"] = train_binary(
        c2, *router_sets(train, valid), images, class_settings, rng,
        meta_samples=meta_samples)
    art.c2 = c2

    art.split = pseudo_split(c2, train, valid, images)
    for b, name in enumerate(("r0", "r1")):
        btrain = [s for s in train if art.split[s.id] == b]
        bvalid = [s for s in valid if art.split[s.id] == b]
        if len(btrain) < class_settings.batch_size:
            warn(f"branch {name} has {len(btrain)} samples, falling back to "
                 "the all-data regressor")
            continue
        model = model_factory(rng, 10)
        art.history[name] = train_branch(
            model, btrain, bvalid or valid, images, class_settings, rng,
            meta_samples=meta_samples)
        setattr(art, name, model)
    return art


# ---------------------------------------------------------------------------
# ablation harness


def run_ablation(requests, train, valid, test, images, model_factory,
                 class_settings, reg_settings, *, meta_samples=None,
                 base_seed: int = 0):
    """Run each requested (variant, mrn) cell and score it.

    `images` and `model_factory(rng, num_classes)` are those run_pipeline
    takes; every cell shares them, and only the MRN-on cells get
    `meta_samples`. Cells run in order, each with its own RNG stream
    seeded from `base_seed` and the cell index.
    """
    requests = list(requests)
    for req in requests:
        unknown = set(req) - {"variant", "mrn"}
        if unknown:
            raise ConfigError(f"unknown ablation keys {sorted(unknown)}")
        if req["variant"] not in ("r", "cr", "pcr"):
            raise ConfigError(f"unknown pipeline variant {req['variant']!r}")

    def run_cell(index, req):
        rng = np.random.default_rng((base_seed, index))
        # an MRN-on cell without a meta set fails in train_model
        meta = (meta_samples or []) if req["mrn"] else None
        art = run_pipeline(req["variant"], train, valid, images, model_factory,
                           class_settings, reg_settings, rng,
                           meta_samples=meta)
        preds = art.predict([images[s.id] for s in test])
        report = evaluate_scores(preds, [s.score for s in test])
        return {**req, "report": report, "predictions": preds,
                "artifacts": art}

    return [run_cell(index, req) for index, req in enumerate(requests)]
