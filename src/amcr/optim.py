"""Adam with coupled L2 weight decay (lambda * p joins the gradient before
the moments) and a halve-on-plateau learning-rate rule driven by
validation history."""

import numpy as np

from .errors import ParameterError

EPS = 1e-8  # keeps the step finite where the second moment is zero


class Adam:
    """Adam over a name -> Tensor parameter dict with explicit gradients.

    The caller passes gradients rather than relying on .grad so the
    training loops can hand over analytically accumulated gradients.
    Weight decay is added to the gradient before the moment updates
    (L2 style).
    """

    def __init__(self, lr: float, betas=(0.98, 0.999), weight_decay: float = 0.0):
        if lr <= 0:
            raise ParameterError(f"step size must be positive, got {lr}")
        b1, b2 = float(betas[0]), float(betas[1])
        if not (0.0 <= b1 < 1.0 and 0.0 <= b2 < 1.0):
            raise ParameterError(f"betas must lie in [0,1), got {betas}")
        self.lr = float(lr)
        self.b1 = b1
        self.b2 = b2
        self.weight_decay = float(weight_decay)
        self.m = {}
        self.v = {}
        self.t = 0

    def step(self, params: dict, grads: dict):
        """Take one Adam step on every parameter named in `grads`.

        Every gradient's shape is checked before anything moves, so a
        rejected step changes nothing: not `t`, the moments or any
        parameter. The moments `m` and `v` are updated in place; each
        parameter's `p.data` is replaced by a new array, never written
        into. The rest of the update runs through one scratch pair sized
        to the largest gradient and allocated once per step, with the
        operations of the textbook form in its order, so the results are
        bitwise those of `p - lr * mhat / (sqrt(vhat) + eps)`.
        """
        work = []
        for name, g in grads.items():
            p = params[name]
            g = np.asarray(g, dtype=np.float64)
            if g.shape != p.data.shape:
                raise ParameterError(
                    f"gradient shape {g.shape} vs parameter {p.data.shape} for {name}")
            work.append((name, p, g))
        self.t += 1
        bias1 = 1.0 - self.b1 ** self.t
        bias2 = 1.0 - self.b2 ** self.t
        size = max((g.size for _, _, g in work), default=0)
        scratch_a, scratch_b = np.empty(size), np.empty(size)
        for name, p, g in work:
            a = scratch_a[:g.size].reshape(g.shape)
            b = scratch_b[:g.size].reshape(g.shape)
            if self.weight_decay != 0.0:
                g = np.add(g, np.multiply(self.weight_decay, p.data, out=a), out=a)
            m = self.m.get(name)
            if m is None:
                m = self.m[name] = np.zeros_like(p.data)
                self.v[name] = np.zeros_like(p.data)
            v = self.v[name]
            m *= self.b1  # m = b1 * m + (1 - b1) * g
            m += np.multiply(1.0 - self.b1, g, out=b)
            v *= self.b2  # v = b2 * v + (1 - b2) * g * g
            v += np.multiply(np.multiply(1.0 - self.b2, g, out=b), g, out=b)
            step = np.divide(m, bias1, out=a)  # lr * mhat / (sqrt(vhat) + eps)
            step *= self.lr
            denom = np.sqrt(np.divide(v, bias2, out=b), out=b)
            denom += EPS
            step /= denom
            p.data = p.data - step


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

    def improved(self, value: float) -> bool:
        """Whether `value` beats the best value observed so far."""
        if self.best is None:
            return True
        return value > self.best if self.mode == "higher" else value < self.best

    def observe(self, value: float) -> bool:
        """Record one validation result; True when the rate was halved."""
        value = float(value)
        if self.improved(value):
            self.best = value
            self.streak = 0
            return False
        self.streak += 1
        if self.streak >= self.patience:
            self.optimizer.lr *= self.factor
            self.streak = 0
            return True
        return False
