"""Training loops shared by every stage: plain Adam on the mean batch
loss, or the three-stage reweighted iteration, both with plateau learning
rate halving and best-validation parameter tracking."""

from dataclasses import dataclass, field

import numpy as np

from . import tensor as T
from .blocks import Mrn
from .errors import DataError, ParameterError
from .meta import MetaConfig, MetaState
from .optim import Adam, PlateauScheduler
from .tensor import Tensor


@dataclass
class TrainSettings:
    """Knobs for one training phase. Defaults follow the reference
    hyperparameters (step size 1e-4, decay 1e-4, betas (0.98, 0.999));
    desk-scale runs override them from the config file."""

    epochs: int = 4
    batch_size: int = 32
    lr: float = 1e-4
    weight_decay: float = 1e-4
    betas: tuple = (0.98, 0.999)
    mrn_lr: float = 1e-4
    mrn_hidden: int = 100
    meta_batch: int = 32
    normalize_weights: bool = True
    plateau_patience: int = 2
    plateau_factor: float = 0.5

    def validate(self):
        if self.epochs < 1 or self.batch_size < 1 or self.meta_batch < 1:
            raise ParameterError("epochs and batch sizes must be >= 1")
        if self.lr <= 0 or self.mrn_lr <= 0:
            raise ParameterError("step sizes must be positive")


@dataclass
class TrainResult:
    history: list = field(default_factory=list)   # one dict per epoch
    best_metric: float = None
    iterations: int = 0
    sample_weights: dict = field(default_factory=dict)  # id -> last weight


class _Cycler:
    """Endless batches over a sample list, reshuffled each full pass."""

    def __init__(self, items, batch_size, rng):
        self.items = list(items)
        self.batch_size = int(batch_size)
        self.rng = rng
        self.order = []
        self.pos = 0

    def next(self):
        out = []
        while len(out) < self.batch_size:
            if self.pos >= len(self.order):
                self.order = self.rng.permutation(len(self.items))
                self.pos = 0
            out.append(self.items[self.order[self.pos]])
            self.pos += 1
        return out


def train_model(model, loss_fn, train_samples, valid_fn, settings: TrainSettings,
                rng, *, trainable=None, metric_mode="lower", use_mrn=False,
                meta_samples=None, mrn=None, freeze_mrn=False) -> TrainResult:
    """Fit `trainable` parameters of `model` and leave the best-validation
    values in place.

    loss_fn(batch, override) must return the per-sample loss vector;
    valid_fn() the validation metric (metric_mode says which direction
    improves). With use_mrn, every batch runs the full three-stage
    reweighted iteration against batches cycled from meta_samples;
    freeze_mrn keeps the provided loss-to-weight network fixed while its
    weights still scale each batch.
    """
    settings.validate()
    train_samples = list(train_samples)
    if not train_samples:
        raise DataError("empty training set")
    params = model.parameters()
    trainable = list(params) if trainable is None else list(trainable)
    result = TrainResult()

    state = None
    adam = None
    if use_mrn:
        if not meta_samples:
            raise DataError("reweighted training needs a meta set")
        if mrn is None:
            mrn = Mrn(hidden=settings.mrn_hidden, rng=rng)
        cfg = MetaConfig(alpha=settings.lr, beta=settings.mrn_lr,
                         normalize_weights=settings.normalize_weights,
                         betas=settings.betas,
                         weight_decay=settings.weight_decay)
        state = MetaState(params, mrn, loss_fn, cfg, trainable=trainable,
                          freeze_mrn=freeze_mrn)
        optimizer = state.adam_main
        meta_cycler = _Cycler(meta_samples, settings.meta_batch, rng)
    else:
        adam = Adam(settings.lr, settings.betas, weight_decay=settings.weight_decay)
        optimizer = adam
    scheduler = PlateauScheduler(optimizer, mode=metric_mode,
                                 factor=settings.plateau_factor,
                                 patience=settings.plateau_patience)

    best = None
    best_params = None
    for epoch in range(settings.epochs):
        order = rng.permutation(len(train_samples))
        epoch_loss = 0.0
        seen = 0
        for start in range(0, len(order), settings.batch_size):
            batch = [train_samples[i] for i in order[start:start + settings.batch_size]]
            if use_mrn:
                weights = state.meta_iteration(batch, meta_cycler.next())
                for s, w in zip(batch, weights):
                    result.sample_weights[s.id] = float(w)
                epoch_loss += float(np.sum(state.last_losses))
            else:
                losses = loss_fn(batch, None)
                mean = T.tmean(losses)
                for name in trainable:
                    params[name].zero_grad()
                mean.backward()
                grads = {}
                for name in trainable:
                    g = params[name].grad
                    grads[name] = np.zeros_like(params[name].data) if g is None else g
                adam.step(params, grads)
                epoch_loss += float(losses.data.sum())
            seen += len(batch)
            result.iterations += 1
        value = float(valid_fn())
        improved = (best is None
                    or (value > best if metric_mode == "higher" else value < best))
        if improved:
            best = value
            result.best_metric = value
            best_params = {n: params[n].data.copy() for n in trainable}
        scheduler.observe(value)
        result.history.append({
            "epoch": epoch,
            "train_loss": epoch_loss / max(seen, 1),
            "valid": value,
            "lr": optimizer.lr,
        })
    # leave the best-validation parameters on the model
    for name, value in best_params.items():
        params[name].data = value
    return result


# ---------------------------------------------------------------------------
# loss builders and evaluation helpers


def class_loss_fn(model, images: dict, label_of):
    """Per-sample cross-entropy through the model's class head."""
    def fn(batch, override):
        scalars = []
        for s in batch:
            logits, _, _ = model.forward(Tensor(images[s.id]), override)
            scalars.append(T.cross_entropy_logits(logits, label_of(s)))
        return T.stack(scalars)
    return fn


def reg_loss_fn(model, inputs: dict):
    """Per-sample squared error through the model's regression head;
    `inputs` maps sample id to an image or to its cached feature vector."""
    def fn(batch, override):
        scalars = []
        for s in batch:
            _, pred, _ = model.forward(Tensor(inputs[s.id]), override)
            d = T.sub(pred, Tensor(np.float64(s.score)))
            scalars.append(T.mul(d, d))
        return T.stack(scalars)
    return fn


def cache_features(model, samples, images: dict) -> dict:
    """Sample id -> pooled feature vector under the current parameters."""
    feats = {}
    with T.no_grad():
        for s in samples:
            feats[s.id] = model.features(Tensor(images[s.id])).data
    return feats


def predict_class(model, image) -> int:
    with T.no_grad():
        logits, _, _ = model.forward(T.as_tensor(image))
    return int(np.argmax(logits.data))


def predict_score(model, image) -> float:
    with T.no_grad():
        _, pred, _ = model.forward(T.as_tensor(image))
    return float(pred.data)


def eval_class_accuracy(model, samples, images: dict, label_of) -> float:
    if not samples:
        raise DataError("empty validation set")
    hits = sum(predict_class(model, images[s.id]) == label_of(s) for s in samples)
    return hits / len(samples)


def eval_reg_mse(model, samples, inputs: dict) -> float:
    """Mean squared score error over images or cached feature vectors."""
    if not samples:
        raise DataError("empty validation set")
    total = sum((predict_score(model, inputs[s.id]) - s.score) ** 2
                for s in samples)
    return total / len(samples)


# phase 2 of pipeline.train_branch validates through this name, which
# perfbench/tracing.py looks up to time feature-cache validation
eval_reg_feature_mse = eval_reg_mse
