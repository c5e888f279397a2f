"""Training loop shared by every stage: one Adam step per batch on the
mean batch loss, or the three-stage iteration that learns the reweighting
network, both with plateau learning rate halving and best-validation
parameter tracking; and the closed-form regression head on frozen features.

A stage trains what its loss reaches: the backward pass decides which
parameters take steps, and a parameter the loss does not reach keeps its
value bitwise, weight decay or not."""

from dataclasses import dataclass, field

import numpy as np

from . import metrics
from . import tensor as T
from .blocks import Mrn
from .errors import DataError, ParameterError
from .meta import MetaState
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
    # Under Adam every reweighting-network component moves up to mrn_lr per
    # iteration, so the output bias can shift all weights together by mrn_lr
    # each step while the loss-shape signal has to accumulate across the
    # hidden layer. A step much above 1e-4 lets that common drift saturate
    # the sigmoid over long runs before the per-sample ordering is learned.
    mrn_lr: float = 1e-4
    mrn_hidden: int = 100
    meta_batch: int = 32
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
    mrn: object = None  # the loss-to-weight network of a reweighted run


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
                rng, *, metric_mode="lower", meta_samples=None) -> TrainResult:
    """Fit the parameters of `model` that the loss reaches and leave the
    best-validation values in place.

    loss_fn(batch, override) must return the per-sample loss vector;
    valid_fn() the validation metric (metric_mode says which direction
    improves). Without meta_samples every batch takes one backward and
    one Adam step on the mean loss. Given meta_samples, training is
    reweighted and learned: the loss-to-weight network is drawn from
    `rng`, returned on `TrainResult.mrn`, and every batch runs the
    three-stage meta.MetaState iteration against batches cycled from
    meta_samples.
    """
    settings.validate()
    train_samples = list(train_samples)
    if not train_samples:
        raise DataError("empty training set")
    params = model.params
    result = TrainResult()

    state = None
    if meta_samples is not None:
        if not meta_samples:
            raise DataError("reweighted training needs a meta set")
        result.mrn = Mrn(hidden=settings.mrn_hidden, rng=rng)
        state = MetaState(params, result.mrn, loss_fn, settings)
        optimizer = state.adam_main
        meta_cycler = _Cycler(meta_samples, settings.meta_batch, rng)
    else:
        optimizer = Adam(settings.lr, settings.betas,
                         weight_decay=settings.weight_decay)
    scheduler = PlateauScheduler(optimizer, mode=metric_mode,
                                 factor=settings.plateau_factor,
                                 patience=settings.plateau_patience)

    best_params = None
    for epoch in range(settings.epochs):
        order = rng.permutation(len(train_samples))
        epoch_loss = 0.0
        seen = 0
        for start in range(0, len(order), settings.batch_size):
            batch = [train_samples[i] for i in order[start:start + settings.batch_size]]
            if state is not None:
                weights = state.meta_iteration(batch, meta_cycler.next())
                losses = state.last_losses
                result.sample_weights.update(zip([s.id for s in batch],
                                                 weights.tolist()))
            else:
                loss_vector = loss_fn(batch, None)
                losses = loss_vector.data
                for p in params.values():
                    p.zero_grad()
                T.tmean(loss_vector).backward()
                optimizer.step(params, {n: p.grad for n, p in params.items()
                                        if p.grad is not None})
            epoch_loss += float(np.sum(losses))
            seen += len(batch)
            result.iterations += 1
        value = float(valid_fn())
        if scheduler.improved(value):
            result.best_metric = value
            best_params = {n: p.data.copy() for n, p in params.items()}
        scheduler.observe(value)
        result.history.append({"epoch": epoch, "valid": value, "lr": optimizer.lr,
                               "train_loss": epoch_loss / max(seen, 1)})
    # leave the best-validation parameters on the model
    for name, value in best_params.items():
        params[name].data = value
    return result


# ---------------------------------------------------------------------------
# closed-form regression head


def solve_reg_head(model, train, valid, feats: dict,
                   weight_decay: float) -> TrainResult:
    """Set `head.reg.{w,b}` to the minimizer of the objective full-batch
    Adam with coupled decay descends, (1/n) sum_i (x_i . theta - y_i)^2 +
    (lambda/2)|theta|^2 with theta = [w; b], x_i = [feats[id_i]; 1] and
    lambda = weight_decay: the min-norm least-squares solution of the
    sqrt(1/n)-scaled rows over sqrt(lambda/2) I. Every sample weighs the
    same: the reweighting network of a reweighted run is learned on its
    own training loss, not on these residuals. Returns no iterations,
    the valid MSE and one history record."""
    x = np.array([np.append(feats[s.id], 1.0) for s in train])
    y = np.array([s.score for s in train])
    root = np.sqrt(1.0 / len(y))
    ridge = np.sqrt(weight_decay / 2.0) * np.eye(x.shape[1])
    theta = np.linalg.lstsq(np.vstack([x * root, ridge]), np.append(
        y * root, np.zeros(len(ridge))), rcond=None)[0]
    w, b = model.params["head.reg.w"], model.params["head.reg.b"]
    w.data, b.data = theta[:-1].reshape(w.shape), theta[-1:]
    rows = np.array([np.append(feats[s.id], 1.0) for s in valid])
    mse = metrics.mse(rows @ theta, [s.score for s in valid])
    return TrainResult(best_metric=mse, history=[{"valid": mse}])


# ---------------------------------------------------------------------------
# loss builders and evaluation helpers


# inputs per no-grad forward in predict_class, predict_score and
# cache_features: scoring a list holds one chunk's activations at a time,
# however long the list
SCORE_CHUNK = 64


def _stacked(inputs: dict, batch) -> Tensor:
    """The inputs of the samples in `batch`, stacked along a leading axis."""
    return Tensor(np.array([inputs[s.id] for s in batch]))


def _no_grad_rows(fn, inputs) -> np.ndarray:
    """fn's output rows for the list `inputs`, evaluated without a graph on
    SCORE_CHUNK stacked inputs at a time."""
    inputs = list(inputs)
    if not inputs:
        raise DataError("nothing to score")
    with T.no_grad():
        return np.concatenate([
            fn(Tensor(np.array(inputs[i:i + SCORE_CHUNK]))).data
            for i in range(0, len(inputs), SCORE_CHUNK)])


def class_loss_fn(model, images: dict, labels_of):
    """Per-sample cross-entropy through the model's class head, one graph
    per batch; `labels_of` maps a list of samples to their class labels."""
    def fn(batch, override):
        logits = model.forward(_stacked(images, batch), override)
        return T.cross_entropy_logits(logits, labels_of(batch))
    return fn


def reg_loss_fn(model, images: dict):
    """Per-sample squared error through the model's regression head, one
    graph per batch; `images` maps sample id to an image."""
    def fn(batch, override):
        d = T.sub(model.score(_stacked(images, batch), override),
                  Tensor(np.array([s.score for s in batch], dtype=np.float64)))
        return T.mul(d, d)
    return fn


def cache_features(model, samples, images: dict) -> dict:
    """Sample id -> pooled feature vector under the current parameters."""
    feats = _no_grad_rows(model.features, [images[s.id] for s in samples])
    return dict(zip([s.id for s in samples], feats))


def predict_class(model, inputs) -> np.ndarray:
    """Argmax class of each image in the list `inputs`."""
    return np.argmax(_no_grad_rows(model.forward, inputs), axis=1).astype(np.int64)


def predict_score(model, inputs) -> np.ndarray:
    """Regression score of each image in the list `inputs`."""
    return _no_grad_rows(model.score, inputs)


def eval_class_accuracy(model, samples, images: dict, labels_of) -> float:
    preds = predict_class(model, [images[s.id] for s in samples])
    hits = int(np.sum(preds == labels_of(samples)))
    return hits / len(samples)


def eval_reg_mse(model, samples, images: dict) -> float:
    """Mean squared score error over images."""
    preds = predict_score(model, [images[s.id] for s in samples])
    return metrics.mse(preds, [s.score for s in samples])


# nothing in amcr calls this name now; perfbench/tracing.py wraps it
eval_reg_feature_mse = eval_reg_mse
