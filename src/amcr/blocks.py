"""Network building blocks: channel attention, adaptive pooling after the
stem, a small convolutional backbone with multi-task heads, and the sample
reweighting network.

Every block keeps its parameters in a flat name -> Tensor dict and takes
an optional override dict on forward, so a training step can evaluate
the same architecture under hypothetical parameters without mutating
anything (the lookahead step of the reweighting scheme needs this).
"""

import math

import numpy as np

from . import tensor as T
from .errors import DataError, ParameterError, ShapeError
from .tensor import Tensor

ECA_GAMMA = 2.0
ECA_B = 1.0


def eca_kernel_size(channels: int, mode: str = "ceil_odd") -> int:
    """Odd 1D kernel extent derived from the channel count.

    t = log2(C)/gamma + b/gamma. ceil_odd takes the smallest odd integer
    at or above t; nearest_odd takes the odd integer closest to t with
    ties resolved upward. Both floor at 1.
    """
    c = int(channels)
    if c < 2:
        raise ParameterError(f"channel attention needs >= 2 channels, got {c}")
    t = math.log2(c) / ECA_GAMMA + ECA_B / ECA_GAMMA
    if mode == "ceil_odd":
        k = int(math.ceil(t))
        if k % 2 == 0:
            k += 1
    elif mode == "nearest_odd":
        lo = int(math.floor(t))
        if lo % 2 == 0:
            lo -= 1
        hi = lo + 2
        k = lo if (t - lo) < (hi - t) else hi
    else:
        raise ParameterError(f"unknown kernel mode {mode!r}")
    return max(k, 1)


class EcaBlock:
    """Channel attention: squeeze to a channel vector, convolve each
    channel with its k neighbors, gate the input by the sigmoid output."""

    def __init__(self, channels: int, kernel_mode: str = "ceil_odd", rng=None):
        self.channels = int(channels)
        self.kernel_mode = kernel_mode
        self.k = eca_kernel_size(self.channels, kernel_mode)
        if self.k > self.channels:
            raise ParameterError(
                f"attention kernel {self.k} exceeds channel count {self.channels}")
        if rng is None:
            weights = np.zeros(self.k)
        else:
            weights = rng.normal(scale=1.0 / math.sqrt(self.k), size=self.k)
        self.kernel = Tensor(weights, requires_grad=True)

    def __call__(self, x: Tensor, kernel: Tensor = None) -> Tensor:
        return eca_forward(x, self, kernel)


def eca_forward(x: Tensor, block: EcaBlock, kernel: Tensor = None) -> Tensor:
    x = T.as_tensor(x)
    if x.data.ndim != 3 or x.shape[0] != block.channels:
        raise ShapeError(f"expected ({block.channels},h,w), got {x.shape}")
    k = block.kernel if kernel is None else kernel
    pooled = T.global_avg_pool(x)
    attention = T.sigmoid(T.conv1d_channel(pooled, k))
    return T.scale_channels(x, attention)


def aab_pool(features: Tensor, pool_target: int) -> Tensor:
    """Adaptive average pool of the stem output down to a fixed square."""
    t = int(pool_target)
    return T.adaptive_avg_pool2d(features, (t, t))


# ---------------------------------------------------------------------------
# sample reweighting network


class Mrn:
    """Loss -> weight network: scalar in, 100 relu units, sigmoid scalar out.

    With all parameters zero every sample weight is exactly 0.5, which
    is the neutral configuration the reduction checks train against.

    Random construction draws only the hidden basis (w1, b1); the output
    layer starts at zero, so every weight begins at exactly 0.5 and the
    early loss-to-weight mapping is learned, never an artifact of the
    draw. A biased start can latch onto the transient phase where every
    high-loss sample still helps and saturate before the signal flips.
    """

    def __init__(self, hidden: int = 100, rng=None):
        h = int(hidden)
        if h < 1:
            raise ParameterError(f"hidden width must be positive, got {h}")
        self.hidden = h
        if rng is None:
            w1 = np.zeros((1, h))
            b1 = np.zeros(h)
        else:
            w1 = rng.normal(scale=1.0, size=(1, h))
            b1 = rng.normal(scale=1.0, size=h)
        w2 = np.zeros((h, 1))
        b2 = np.zeros(1)
        self.params = {
            "mrn.w1": Tensor(w1, requires_grad=True),
            "mrn.b1": Tensor(b1, requires_grad=True),
            "mrn.w2": Tensor(w2, requires_grad=True),
            "mrn.b2": Tensor(b2, requires_grad=True),
        }

    def parameters(self):
        return self.params

    def __call__(self, losses, params=None) -> Tensor:
        return mrn_forward(losses, self, params)


def mrn_forward(losses, mrn: Mrn, params=None) -> Tensor:
    """Map n detached sample losses to n weights in (0,1).

    The losses enter as constants; the result is differentiable with
    respect to the reweighting parameters only.
    """
    if isinstance(losses, Tensor):
        values = losses.data
    else:
        values = np.asarray(losses, dtype=np.float64)
    if values.ndim != 1:
        raise ShapeError(f"expected a loss vector, got shape {values.shape}")
    if not np.all(np.isfinite(values)):
        raise DataError("non-finite sample loss entering the reweighting network")
    p = mrn.params if params is None else {**mrn.params, **params}
    x = Tensor(values.reshape(-1, 1))
    h = T.relu(T.add_rowvec(T.matmul(x, p["mrn.w1"]), p["mrn.b1"]))
    out = T.add_rowvec(T.matmul(h, p["mrn.w2"]), p["mrn.b2"])
    return T.reshape(T.sigmoid(out), (-1,))


# ---------------------------------------------------------------------------
# backbone and heads


class AestheticNet:
    """Small convolutional network with a ten-way class head and a scalar
    regression head sharing one pooled feature vector.

    Layout: stem conv (stride 2) -> optional adaptive square pooling
    (pad-to-square preparation feeds this) -> stride-2 stages with
    optional channel attention -> reduce conv -> 1x1 pool -> heads.
    `num_classes` is 10 for score-decile classification and 2 for the
    binary quality model used to route samples. Without an rng every
    weight starts at zero, ready to be overwritten from a checkpoint.
    """

    STEM_STRIDE = 2

    def __init__(self, rng=None, in_channels: int = 3, stem_channels: int = 24,
                 stage_channels=(48, 96, 128), head_width: int = 448,
                 num_classes: int = 10, eca: bool = True,
                 eca_mode: str = "ceil_odd", pool_target: int = None,
                 reg_bias: float = 5.0):
        if stem_channels < 2 or any(c < 2 for c in stage_channels):
            raise ParameterError("channel counts must be >= 2")
        if head_width < 1:
            raise ParameterError("head width must be positive")
        if num_classes < 2:
            raise ParameterError("need at least two classes")
        self.in_channels = int(in_channels)
        self.stem_channels = int(stem_channels)
        self.stage_channels = tuple(int(c) for c in stage_channels)
        self.head_width = int(head_width)
        self.num_classes = int(num_classes)
        self.eca = bool(eca)
        self.eca_mode = eca_mode
        self.pool_target = None if pool_target is None else int(pool_target)
        self.eca_blocks = {}
        self.params = {}

        def draw(scale, size):
            if rng is None:
                return np.zeros(size)
            return rng.normal(scale=scale, size=size)

        def conv(name, cout, cin, k=3):
            scale = math.sqrt(2.0 / (cin * k * k))
            self.params[name] = Tensor(
                draw(scale, (cout, cin, k, k)), requires_grad=True)

        def linear(name, fan_in, fan_out):
            scale = math.sqrt(1.0 / fan_in)
            self.params[name + ".w"] = Tensor(
                draw(scale, (fan_in, fan_out)), requires_grad=True)
            self.params[name + ".b"] = Tensor(
                np.zeros(fan_out), requires_grad=True)

        conv("stem.w", self.stem_channels, self.in_channels)
        prev = self.stem_channels
        for i, c in enumerate(self.stage_channels):
            conv(f"stage{i}.w", c, prev)
            if self.eca:
                block = EcaBlock(c, eca_mode, rng=rng)
                self.eca_blocks[i] = block
                self.params[f"stage{i}.eca"] = block.kernel
            prev = c
        conv("head.reduce.w", self.head_width, prev)
        linear("head.class", self.head_width, self.num_classes)
        linear("head.reg", self.head_width, 1)
        # scores live on a 0..10 scale; starting the regression output at
        # the midpoint keeps first-iteration losses near the score variance
        self.params["head.reg.b"].data[:] = float(reg_bias)

    def parameters(self):
        return self.params

    def trainable_names(self, phase: str = "all"):
        """Parameter names updated in a phase: classification trains
        everything but the regression head; regression trains only it."""
        if phase == "all":
            return list(self.params)
        if phase == "class":
            return [n for n in self.params if not n.startswith("head.reg")]
        if phase == "reg":
            return [n for n in self.params if n.startswith("head.reg")]
        raise ParameterError(f"unknown phase {phase!r}")

    def features(self, img, params=None) -> Tensor:
        """Pooled feature vector (head_width,) for one (C,H,W) image."""
        p = self.params if params is None else {**self.params, **params}
        x = T.as_tensor(img)
        if x.data.ndim != 3 or x.shape[0] != self.in_channels:
            raise ShapeError(f"expected ({self.in_channels},H,W), got {x.shape}")
        x = T.relu(T.conv2d(x, p["stem.w"], stride=self.STEM_STRIDE, padding=1))
        if self.pool_target is not None:
            x = aab_pool(x, self.pool_target)
        for i in range(len(self.stage_channels)):
            x = T.relu(T.conv2d(x, p[f"stage{i}.w"], stride=2, padding=1))
            if self.eca:
                x = eca_forward(x, self.eca_blocks[i], p[f"stage{i}.eca"])
        x = T.relu(T.conv2d(x, p["head.reduce.w"], stride=1, padding=1))
        x = T.adaptive_avg_pool2d(x, (1, 1))
        return T.flatten(x)

    def forward(self, x, params=None):
        """(class logits, regression score, pooled features) for one
        (C,H,W) image or one cached (head_width,) feature vector; a vector
        skips the backbone and goes straight to the heads."""
        p = self.params if params is None else {**self.params, **params}
        x = T.as_tensor(x)
        if x.data.ndim != 1:
            feat = self.features(x, params)
        elif x.shape[0] == self.head_width:
            feat = x
        else:
            raise ShapeError(f"expected ({self.head_width},) features, got {x.shape}")
        row = T.reshape(feat, (1, self.head_width))
        logits = T.flatten(T.add_rowvec(
            T.matmul(row, p["head.class.w"]), p["head.class.b"]))
        reg = T.reshape(T.add_rowvec(
            T.matmul(row, p["head.reg.w"]), p["head.reg.b"]), ())
        return logits, reg, feat

    def __call__(self, x, params=None):
        return self.forward(x, params)
