"""Adam with decoupled-style L2 weight decay and a halve-on-plateau
learning-rate rule driven by validation history."""

import numpy as np

from .errors import ParameterError


class Adam:
    """Adam over a name -> Tensor parameter dict with explicit gradients.

    The caller passes gradients rather than relying on .grad so the
    training loops can hand over analytically accumulated gradients.
    Weight decay is added to the gradient before the moment updates
    (L2 style). Moments are exposed for checkpointing.
    """

    def __init__(self, lr: float, betas=(0.98, 0.999), eps: float = 1e-8,
                 weight_decay: float = 0.0):
        if lr <= 0:
            raise ParameterError(f"step size must be positive, got {lr}")
        b1, b2 = float(betas[0]), float(betas[1])
        if not (0.0 <= b1 < 1.0 and 0.0 <= b2 < 1.0):
            raise ParameterError(f"betas must lie in [0,1), got {betas}")
        self.lr = float(lr)
        self.b1 = b1
        self.b2 = b2
        self.eps = float(eps)
        self.weight_decay = float(weight_decay)
        self.m = {}
        self.v = {}
        self.t = 0

    def step(self, params: dict, grads: dict):
        """Update every parameter named in `grads` in place."""
        self.t += 1
        for name, g in grads.items():
            p = params[name]
            g = np.asarray(g, dtype=np.float64)
            if g.shape != p.data.shape:
                raise ParameterError(
                    f"gradient shape {g.shape} vs parameter {p.data.shape} for {name}")
            if self.weight_decay != 0.0:
                g = g + self.weight_decay * p.data
            m = self.m.get(name)
            if m is None:
                m = np.zeros_like(p.data)
                self.v[name] = np.zeros_like(p.data)
            m = self.b1 * m + (1.0 - self.b1) * g
            v = self.b2 * self.v[name] + (1.0 - self.b2) * g * g
            self.m[name] = m
            self.v[name] = v
            mhat = m / (1.0 - self.b1 ** self.t)
            vhat = v / (1.0 - self.b2 ** self.t)
            p.data = p.data - self.lr * mhat / (np.sqrt(vhat) + self.eps)

    def state(self) -> dict:
        """Moment arrays keyed for checkpointing."""
        out = {}
        for name in self.m:
            out["m." + name] = self.m[name]
            out["v." + name] = self.v[name]
        return out

    def load_state(self, arrays: dict, t: int):
        self.m = {k[2:]: np.array(v) for k, v in arrays.items() if k.startswith("m.")}
        self.v = {k[2:]: np.array(v) for k, v in arrays.items() if k.startswith("v.")}
        self.t = int(t)


class PlateauScheduler:
    """Halve the optimizer's step size after `patience` consecutive
    validation rounds without improving on the best value seen.

    An improvement resets the streak; so does a halving, so a fresh
    plateau must build up again before the next cut.
    """

    def __init__(self, optimizer: Adam, mode: str = "higher",
                 factor: float = 0.5, patience: int = 2):
        if mode not in ("higher", "lower"):
            raise ParameterError(f"mode must be higher or lower, got {mode!r}")
        if not 0.0 < factor < 1.0:
            raise ParameterError(f"factor must lie in (0,1), got {factor}")
        if patience < 1:
            raise ParameterError(f"patience must be >= 1, got {patience}")
        self.optimizer = optimizer
        self.mode = mode
        self.factor = factor
        self.patience = patience
        self.best = None
        self.streak = 0

    def _improved(self, value: float) -> bool:
        if self.best is None:
            return True
        return value > self.best if self.mode == "higher" else value < self.best

    def observe(self, value: float) -> bool:
        """Record one validation result; True when the rate was halved."""
        value = float(value)
        if self._improved(value):
            self.best = value
            self.streak = 0
            return False
        self.streak += 1
        if self.streak >= self.patience:
            self.optimizer.lr *= self.factor
            self.streak = 0
            return True
        return False
