"""Bilevel sample reweighting: a lookahead step on the main parameters,
an analytic meta-gradient update of the reweighting network, then the
weighted main update.

One iteration runs three stages in a fixed order on the same train
batch:

  1. lookahead_update: per-sample losses L_i and gradients g_i under the
     current parameters w; weights v_i from the reweighting network;
     hypothetical parameters w_hat = w - alpha * sum_i c_i g_i, where
     c_i is v_i/n (plain mode) or v_i/(sum v + eps) (normalized mode).
  2. meta_step: mean loss of a clean meta batch evaluated at w_hat;
     because w_hat is linear in the weights and the cached g_i do not
     depend on Theta, the exact gradient w.r.t. Theta is
         sum_i coef_i * dv_i/dTheta,
     with coef_i = -alpha/n * d_i (plain) or
     coef_i = -alpha/S * (d_i - D) (normalized, S = sum v + eps,
     D = sum_i (v_i/S) d_i), where d_i = g_i . grad_{w_hat}(meta loss).
     One backward pass over sum_i coef_i * v_i yields it; Theta then
     takes an Adam step.
  3. main_step: weights recomputed under the updated Theta, main
     parameters take an Adam step on grad = sum_i c_i g_i, reusing the
     cached g_i (w has not moved since they were taken).

The lookahead uses plain SGD while both outer updates use Adam; the
analytic meta-gradient is exact only for the SGD form of the lookahead.
"""

import warnings
from dataclasses import dataclass

import numpy as np

from . import tensor as T
from .blocks import Mrn, mrn_forward
from .errors import DataError, ParameterError, ShapeError, StateError
from .optim import Adam
from .tensor import Tensor

EPS_NORMALIZE = 1e-8


@dataclass
class MetaConfig:
    """Step sizes and optimizer settings for one bilevel training context."""

    alpha: float = 1e-4        # main-network step size
    # Under Adam every Theta component moves up to beta per iteration, so the
    # output bias can shift all weights together by beta each step while the
    # loss-shape signal has to accumulate across the hidden layer. A beta much
    # above 1e-4 lets that common drift saturate the sigmoid over long runs
    # before the per-sample ordering is learned.
    beta: float = 1e-4         # reweighting-network step size
    normalize_weights: bool = True
    betas: tuple = (0.98, 0.999)
    weight_decay: float = 1e-4
    eps: float = 1e-8

    def __post_init__(self):
        if self.alpha <= 0 or self.beta <= 0:
            raise ParameterError("step sizes must be positive")


def weight_coefficients(values: np.ndarray, normalize: bool):
    """Per-sample loss coefficients c_i and the normalizer S.

    Plain mode: c_i = v_i / n. Normalized mode: c_i = v_i / (sum v + eps),
    which keeps the effective step size stable when the weights saturate.
    """
    values = np.asarray(values, dtype=np.float64)
    n = values.shape[0]
    if normalize:
        s = values.sum() + EPS_NORMALIZE
        if values.sum() == 0.0:
            warnings.warn("all sample weights are zero; weighted loss collapses to 0")
        return values / s, s
    return values / n, float(n)


def weighted_loss(losses: Tensor, weights, normalize: bool) -> Tensor:
    """Scalar weighted training loss.

    Plain mode: (1/n) sum v_i L_i. Normalized: (sum v_i L_i)/(sum v + eps).
    The weights enter the denominator as values, so the result stays
    linear in both inputs' graphs; gradients w.r.t. w flow through the
    losses only, which is how the main update uses it.
    """
    losses = T.as_tensor(losses)
    w = T.as_tensor(weights)
    if losses.data.ndim != 1 or losses.shape != w.shape:
        raise ShapeError(f"weighted_loss: {losses.shape} vs {w.shape}")
    total = T.tsum(T.mul(losses, w))
    if normalize:
        s = w.data.sum() + EPS_NORMALIZE
        if w.data.sum() == 0.0:
            warnings.warn("all sample weights are zero; weighted loss collapses to 0")
        return T.scale(total, 1.0 / s)
    return T.scale(total, 1.0 / losses.shape[0])


class MetaState:
    """Owns the main parameters, the reweighting network, both Adam
    optimizers, and the per-iteration cache shared by the three stages.

    `loss_fn(batch, params)` must return the per-sample loss vector for
    a batch, built so each entry is its own scalar subgraph (stacked),
    evaluated under `params` when given (a name -> Tensor override) or
    the live parameters when None.
    """

    def __init__(self, params: dict, mrn: Mrn, loss_fn, cfg: MetaConfig,
                 trainable=None, freeze_mrn: bool = False):
        self.params = params
        self.mrn = mrn
        self.loss_fn = loss_fn
        self.cfg = cfg
        self.trainable = list(params) if trainable is None else list(trainable)
        unknown = [n for n in self.trainable if n not in params]
        if unknown:
            raise ParameterError(f"unknown trainable parameters {unknown}")
        self.freeze_mrn = bool(freeze_mrn)
        # One weight-decay setting serves both optimizers. On Theta the
        # decay doubles as a restoring force: a saturated sigmoid emits
        # near-zero gradients, and without decay Adam's normalized steps
        # keep pushing in the stale direction instead of backing out.
        self.adam_main = Adam(cfg.alpha, cfg.betas, cfg.eps, cfg.weight_decay)
        self.adam_mrn = Adam(cfg.beta, cfg.betas, cfg.eps, cfg.weight_decay)
        self.t = 0
        self._cache = None
        self.last_losses = np.zeros(0)  # per-sample losses of the last lookahead

    # stage 1 -------------------------------------------------------------

    def lookahead_update(self, batch):
        """Cache L_i, g_i, v_i for `batch` and build the lookahead
        parameters w_hat = w - alpha * sum_i c_i g_i (plain SGD step)."""
        if len(batch) == 0:
            raise DataError("empty train batch")
        losses = self.loss_fn(batch, None)
        if losses.data.ndim != 1 or losses.shape[0] != len(batch):
            raise ShapeError(
                f"loss_fn returned {losses.shape} for a batch of {len(batch)}")
        subset = {n: self.params[n] for n in self.trainable}
        g_list = T.per_sample_gradients(losses, subset)
        loss_values = losses.data.copy()
        v = mrn_forward(loss_values, self.mrn)
        coeff, _ = weight_coefficients(v.data, self.cfg.normalize_weights)
        w_hat = {}
        for name in self.trainable:
            step = np.zeros_like(self.params[name].data)
            for i in range(len(batch)):
                step += coeff[i] * g_list[i][name]
            w_hat[name] = Tensor(self.params[name].data - self.cfg.alpha * step,
                                 requires_grad=True)
        self._cache = {
            "stage": "lookahead",
            "batch": batch,
            "loss_values": loss_values,
            "g_list": g_list,
            "v": v,
            "w_hat": w_hat,
        }
        self.last_losses = loss_values
        return w_hat

    # stage 2 -------------------------------------------------------------

    def meta_gradient(self, meta_batch) -> dict:
        """Exact gradient of the meta loss at w_hat(Theta) w.r.t. Theta.

        Needs the lookahead cache; does not modify any parameter, so it
        can be checked directly against finite differences.
        """
        cache = self._cache
        if cache is None or cache["stage"] != "lookahead":
            raise StateError("meta_gradient needs the lookahead cache of this iteration")
        if len(meta_batch) == 0:
            raise DataError("empty meta batch")
        w_hat = cache["w_hat"]
        meta_losses = self.loss_fn(meta_batch, w_hat)
        meta_loss = T.tmean(meta_losses)
        for p in w_hat.values():
            p.zero_grad()
        meta_loss.backward()

        g_list = cache["g_list"]
        n = len(cache["batch"])
        d = np.zeros(n)
        for name in self.trainable:
            gw = w_hat[name].grad
            if gw is None:
                continue
            for i in range(n):
                d[i] += float(np.sum(g_list[i][name] * gw))

        v = cache["v"]
        if self.cfg.normalize_weights:
            s = v.data.sum() + EPS_NORMALIZE
            big_d = float(np.sum((v.data / s) * d))
            coef = -(self.cfg.alpha / s) * (d - big_d)
        else:
            coef = -(self.cfg.alpha / n) * d
        surrogate = T.tsum(T.mul(v, Tensor(coef)))
        theta = self.mrn.params
        for p in theta.values():
            p.zero_grad()
        surrogate.backward()
        return {name: (p.grad.copy() if p.grad is not None else np.zeros_like(p.data))
                for name, p in theta.items()}

    def meta_step(self, meta_batch):
        """Adam-update Theta from the exact meta-gradient; no-op when the
        reweighting network is frozen (moments stay untouched too)."""
        cache = self._cache
        if cache is None or cache["stage"] != "lookahead":
            raise StateError("meta_step needs the lookahead cache of this iteration")
        if self.freeze_mrn:
            cache["stage"] = "meta"
            return
        grads = self.meta_gradient(meta_batch)
        self.adam_mrn.step(self.mrn.params, grads)
        cache["stage"] = "meta"

    # stage 3 -------------------------------------------------------------

    def main_step(self):
        """Recompute the weights under the updated Theta and Adam-step the
        main parameters on sum_i c_i g_i with the cached gradients."""
        cache = self._cache
        if cache is None or cache["stage"] != "meta":
            raise StateError("main_step needs meta_step to have run this iteration")
        with T.no_grad():
            v_new = mrn_forward(cache["loss_values"], self.mrn)
        coeff, _ = weight_coefficients(v_new.data, self.cfg.normalize_weights)
        g_list = cache["g_list"]
        n = len(cache["batch"])
        grads = {}
        for name in self.trainable:
            acc = np.zeros_like(self.params[name].data)
            for i in range(n):
                acc += coeff[i] * g_list[i][name]
            grads[name] = acc
        self.adam_main.step(self.params, grads)
        self._cache = None
        return v_new.data

    # ---------------------------------------------------------------------

    def meta_iteration(self, train_batch, meta_batch):
        """lookahead -> meta -> main on one batch pair; returns the sample
        weights used by the main update."""
        self.lookahead_update(train_batch)
        self.meta_step(meta_batch)
        weights = self.main_step()
        self.t += 1
        return weights


def segment_of(score: float) -> int:
    """Score segment index: [0,1) -> 0 ... [9,10] -> 9."""
    s = float(score)
    if not 0.0 <= s <= 10.0:
        raise DataError(f"score {s} outside [0,10]")
    return min(int(s), 9)


def build_meta_set(samples, quota: int, rng):
    """Pick a balanced clean subset: `quota` per score segment.

    Segments run [0,1), [1,2), ..., [9,10]. Each segment in ascending
    order first draws from its own (seeded-shuffled) pool; a shortfall
    borrows from the nearest segments' unclaimed samples, alternating
    lower then higher at each distance. A dataset smaller than 10*quota
    is returned whole with a warning.
    """
    quota = int(quota)
    if quota < 1:
        raise ParameterError(f"quota must be >= 1, got {quota}")
    samples = list(samples)
    if len(samples) < 10 * quota:
        warnings.warn(
            f"dataset of {len(samples)} cannot fill 10 segments of {quota}; using all")
        return samples

    pools = {seg: [] for seg in range(10)}
    for idx, sample in enumerate(samples):
        pools[segment_of(sample.score)].append(idx)
    for seg in range(10):
        pools[seg] = [pools[seg][j] for j in rng.permutation(len(pools[seg]))]
    cursor = {seg: 0 for seg in range(10)}  # claimed prefix of each pool

    def take(seg, k):
        got = pools[seg][cursor[seg]:cursor[seg] + k]
        cursor[seg] += len(got)
        return got

    chosen = []
    for seg in range(10):
        mine = take(seg, quota)
        deficit = quota - len(mine)
        distance = 1
        while deficit > 0 and distance < 10:
            for neighbor in (seg - distance, seg + distance):
                if deficit > 0 and 0 <= neighbor <= 9:
                    borrowed = take(neighbor, deficit)
                    mine.extend(borrowed)
                    deficit -= len(borrowed)
            distance += 1
        chosen.extend(mine)
    return [samples[i] for i in chosen]
