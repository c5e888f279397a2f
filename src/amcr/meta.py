"""Bilevel sample reweighting: a lookahead step on the main parameters,
an analytic meta-gradient update of the reweighting network, then the
weighted main update.

One iteration runs three stages in a fixed order on the same train
batch:

  1. lookahead_update: per-sample losses L_i and gradients g_i under the
     current parameters w; weights v_i from the reweighting network;
     hypothetical parameters w_hat = w - alpha * sum_i c_i g_i, where
     c_i = v_i/S, S = sum v + eps: the weights are normalised per batch,
     so a network that weighs every sample alike gives plain training.
  2. meta_step: mean loss of a clean meta batch evaluated at w_hat;
     because w_hat is linear in the weights and the cached g_i do not
     depend on Theta, the exact gradient w.r.t. Theta is
         sum_i coef_i * dv_i/dTheta,
     with coef_i = -alpha/S * (d_i - D), D = sum_i c_i d_i, where
     d_i = g_i . grad_{w_hat}(meta loss). One backward pass over
     sum_i coef_i * v_i yields it; Theta then takes an Adam step.
  3. main_step: weights recomputed under the updated Theta, main
     parameters take an Adam step on grad = sum_i c_i g_i, reusing the
     cached g_i (w has not moved since they were taken).

The cached g_i all come from one backward of the batch's loss vector,
and are never formed whole: tensor.per_sample_gradients keeps those of
every parameter the loss reaches as two factors stacked over the batch
of n, left L (p_out, M) and right R (p_in, M), column m belonging to
sample m mod n, so g_i is L @ R.T over the columns i, i + n, ... Both
updates move only those parameters: one the loss does not reach keeps
its value. A conv kernel's L and R are its output gradients and
unfolded inputs, one column per output position and sample; a dense
layer's or a vector's have one column per sample. Then, for every
parameter alike, with L's rows viewed as blocks of n columns,
    sum_i c_i g_i = (L * c, block by block) @ R.T        (one GEMM)
    d_i = sum of entries i, i + n, ... of the column sums of (G @ R) * L
with G the parameter's meta-loss gradient at w_hat, reshaped to
(p_out, p_in).

Each cache entry lives only while a stage still reads it. The factors,
losses and weights stay until main_step; w_hat, and with it the G on its
tensors, stays until meta_step, which drops it once meta_gradient
returns. lookahead_update builds each w_hat tensor in the buffer of its
own weighted sum, one parameter at a time, so the whole step and the
alpha * g temporaries never exist together.

The lookahead uses plain SGD while both outer updates use Adam; the
analytic meta-gradient is exact only for the SGD form of the lookahead.

The network weights only the loss it is learned on: the regression head
that training.solve_reg_head fits after a ten-class phase is unweighted.
"""

import warnings

import numpy as np

from . import tensor as T
from .blocks import Mrn, mrn_forward
from .data import segment_of
from .errors import DataError, ParameterError, ShapeError, StateError
from .optim import Adam
from .tensor import Tensor

EPS_NORMALIZE = 1e-8


def weight_coefficients(values: np.ndarray):
    """Per-sample loss coefficients c_i = v_i / S and the normalizer
    S = sum v + eps, which keeps the effective step size stable when the
    weights saturate."""
    values = np.asarray(values, dtype=np.float64)
    s = values.sum() + EPS_NORMALIZE
    if values.sum() == 0.0:
        warnings.warn("all sample weights are zero; weighted loss collapses to 0")
    return values / s, s


class MetaState:
    """Owns the main parameters, the reweighting network it learns, both
    Adam optimizers, and the per-iteration cache shared by the three
    stages.

    `loss_fn(batch, params)` must return the per-sample loss vector of a
    batch from one batched graph whose entry i depends on sample i alone
    (see tensor.per_sample_gradients), evaluated under `params` when
    given (a name -> Tensor override) or the live parameters when None.

    `settings` is the phase's training.TrainSettings: `lr` is the main
    step size alpha, `mrn_lr` the reweighting network's step size beta,
    and `betas` and `weight_decay` apply as named.

    Every parameter the loss reaches must reach it only through the ops
    that record per-sample gradients; the cache holds their factors (see
    the module docstring), and only they take steps.
    """

    def __init__(self, params: dict, mrn: Mrn, loss_fn, settings):
        self.params = params
        self.mrn = mrn
        self.loss_fn = loss_fn
        self.settings = settings
        # One weight-decay setting serves both optimizers. On Theta the
        # decay doubles as a restoring force: a saturated sigmoid emits
        # near-zero gradients, and without decay Adam's normalized steps
        # keep pushing in the stale direction instead of backing out.
        self.adam_main = Adam(settings.lr, settings.betas,
                              weight_decay=settings.weight_decay)
        self.adam_mrn = Adam(settings.mrn_lr, settings.betas,
                             weight_decay=settings.weight_decay)
        self._cache = None
        self.last_losses = np.zeros(0)  # per-sample losses of the last lookahead

    def _weighted_sums(self, coeff, factors):
        """(name, sum_i c_i g_i) for every parameter the loss reaches,
        from its factors, one parameter at a time; each sum is a fresh
        array the caller may write into."""
        left, right = factors
        for name, lf in left.items():
            yield name, ((lf.reshape(-1, coeff.size) * coeff).reshape(lf.shape)
                         @ right[name].T).reshape(self.params[name].shape)

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
        factors = T.per_sample_gradients(losses, self.params)
        loss_values = losses.data.copy()
        v = mrn_forward(loss_values, self.mrn)
        coeff, s = weight_coefficients(v.data)
        w_hat = {}
        for name, g in self._weighted_sums(coeff, factors):
            g *= self.settings.lr  # w - alpha * g, built in the sum's buffer
            w_hat[name] = Tensor(np.subtract(self.params[name].data, g, out=g),
                                 requires_grad=True)
        self._cache = {
            "stage": "lookahead",
            "loss_values": loss_values,
            "factors": factors,
            "v": v,
            "coeff": coeff,
            "s": s,
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

        # d_i = g_i . grad_{w_hat}(meta loss); the same loss_fn reaches
        # every parameter of w_hat
        left, right = cache["factors"]
        d = np.zeros(cache["loss_values"].size)
        for name, lf in left.items():
            grad = w_hat[name].grad.reshape(lf.shape[0], -1)
            per_col = np.einsum("ij,ij->j", grad @ right[name], lf)
            d += per_col.reshape(-1, d.size).sum(axis=0)

        big_d = float(np.sum(cache["coeff"] * d))
        coef = -(self.settings.lr / cache["s"]) * (d - big_d)
        surrogate = T.tsum(T.mul(cache["v"], Tensor(coef)))
        theta = self.mrn.params
        for p in theta.values():
            p.zero_grad()
        surrogate.backward()
        return {name: (p.grad.copy() if p.grad is not None else np.zeros_like(p.data))
                for name, p in theta.items()}

    def meta_step(self, meta_batch):
        """Adam-update Theta from the exact meta-gradient (which checks
        that the lookahead cache of this iteration exists)."""
        grads = self.meta_gradient(meta_batch)
        # nothing reads w_hat again, nor the meta-loss gradients on its tensors
        del self._cache["w_hat"]
        self.adam_mrn.step(self.mrn.params, grads)
        self._cache["stage"] = "meta"

    # stage 3 -------------------------------------------------------------

    def main_step(self):
        """Recompute the weights under the updated Theta and Adam-step the
        main parameters on sum_i c_i g_i with the cached gradients."""
        cache = self._cache
        if cache is None or cache["stage"] != "meta":
            raise StateError("main_step needs meta_step to have run this iteration")
        with T.no_grad():
            v_new = mrn_forward(cache["loss_values"], self.mrn).data
        coeff, _ = weight_coefficients(v_new)
        grads = dict(self._weighted_sums(coeff, cache["factors"]))
        self.adam_main.step(self.params, grads)
        self._cache = None
        return v_new

    # ---------------------------------------------------------------------

    def meta_iteration(self, train_batch, meta_batch):
        """lookahead -> meta -> main on one batch pair; returns the sample
        weights used by the main update."""
        self.lookahead_update(train_batch)
        self.meta_step(meta_batch)
        return self.main_step()


def build_meta_set(samples, quota: int, rng):
    """Pick a score-balanced subset: `quota` per score segment. Nothing
    filters label noise, so the subset is as clean as `samples`.

    Segments run [0,1), [1,2), ..., [9,10] (data.segment_of). Each segment
    in ascending order first draws from its own (seeded-shuffled) pool; a
    shortfall borrows from the nearest segments' unclaimed samples, lower
    before higher at each distance. A dataset smaller than 10*quota is
    returned whole with a warning.
    """
    quota = int(quota)
    if quota < 1:
        raise ParameterError(f"quota must be >= 1, got {quota}")
    samples = list(samples)
    if len(samples) < 10 * quota:
        warnings.warn(
            f"dataset of {len(samples)} cannot fill 10 segments of {quota}; using all")
        return samples

    segments = segment_of([s.score for s in samples])
    pools = [np.flatnonzero(segments == seg) for seg in range(10)]
    pools = [pool[rng.permutation(pool.size)] for pool in pools]
    chosen = []
    for seg in range(10):
        need = quota
        for near in sorted(range(10), key=lambda t: (abs(t - seg), t)):
            got, pools[near] = pools[near][:need], pools[near][need:]
            chosen.extend(got)
            need -= got.size
    return [samples[i] for i in chosen]
