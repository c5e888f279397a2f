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


def eca_kernel_size(channels: int) -> int:
    """Odd 1D kernel extent derived from the channel count: the smallest
    odd integer at or above t = log2(C)/gamma + b/gamma, at least 1.

    ECA (Wang et al. 2020, arXiv:1910.03151) writes the odd integer
    nearest t; this net keeps the ceiling, since changing the rule would
    change every stage's kernel sizes.
    """
    c = int(channels)
    if c < 2:
        raise ParameterError(f"channel attention needs >= 2 channels, got {c}")
    t = math.log2(c) / ECA_GAMMA + ECA_B / ECA_GAMMA
    k = int(math.ceil(t))
    if k % 2 == 0:
        k += 1
    return max(k, 1)


def eca_forward(x: Tensor, kernel: Tensor) -> Tensor:
    """Channel attention on an (N,C,H,W) batch: squeeze each map to a
    channel vector, convolve each channel with its len(kernel) neighbors,
    gate the input by the sigmoid output."""
    attention = T.sigmoid(T.conv1d_channel(T.global_avg_pool(x), kernel))
    return T.scale_channels(x, attention)


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


def mrn_forward(losses, mrn: Mrn, params=None) -> Tensor:
    """Map an array of n sample losses to n weights in (0,1).

    The losses enter as constants; the result is differentiable with
    respect to the reweighting parameters only: the network's own, or
    the tensors `params` puts in their place by name.
    """
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
    optional channel attention -> reduce conv -> global pool -> heads.
    `num_classes` is 10 for score-decile classification and 2 for the
    binary quality model used to route samples. The weights are drawn
    from `rng`, or taken as given from `params`, a name -> Tensor dict
    (a loaded checkpoint) that must hold exactly the layout's names and
    shapes; its tensors become the net's parameters, uncopied.
    """

    STEM_STRIDE = 2
    # scores live on a 0..10 scale; starting the regression output at the
    # midpoint keeps first-iteration losses near the score variance
    MID_SCORE = 5.0

    def __init__(self, rng=None, in_channels: int = 3, stem_channels: int = 24,
                 stage_channels=(48, 96, 128), head_width: int = 448,
                 num_classes: int = 10, eca: bool = True,
                 pool_target: int = None, params: dict = None):
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
        self.pool_target = None if pool_target is None else int(pool_target)
        layout = self._layout()
        if params is not None:
            if params.keys() != layout.keys() or any(
                    params[name].shape != shape
                    for name, (shape, _scale) in layout.items()):
                raise ShapeError("parameters do not fit the architecture")
            self.params = {name: params[name] for name in layout}
            return
        if rng is None:
            raise ParameterError("need an rng to draw the weights, or the weights")
        self.params = {
            name: Tensor(np.zeros(shape) if scale is None
                         else rng.normal(scale=scale, size=shape),
                         requires_grad=True)
            for name, (shape, scale) in layout.items()}
        self.params["head.reg.b"].data[:] = self.MID_SCORE

    def _layout(self) -> dict:
        """Parameter name -> (shape, init scale), in draw order; a bias has
        scale None and starts at zero."""
        layout = {}

        def conv(name, cout, cin, k=3):
            layout[name] = ((cout, cin, k, k), math.sqrt(2.0 / (cin * k * k)))

        def linear(name, fan_in, fan_out):
            layout[name + ".w"] = ((fan_in, fan_out), math.sqrt(1.0 / fan_in))
            layout[name + ".b"] = ((fan_out,), None)

        conv("stem.w", self.stem_channels, self.in_channels)
        prev = self.stem_channels
        for i, c in enumerate(self.stage_channels):
            conv(f"stage{i}.w", c, prev)
            if self.eca:
                k = eca_kernel_size(c)
                layout[f"stage{i}.eca"] = ((k,), 1.0 / math.sqrt(k))
            prev = c
        conv("head.reduce.w", self.head_width, prev)
        linear("head.class", self.head_width, self.num_classes)
        linear("head.reg", self.head_width, 1)
        return layout

    def features(self, images, params=None) -> Tensor:
        """Pooled feature rows (N, head_width) of an (N,C,H,W) batch."""
        p = self.params if params is None else {**self.params, **params}
        x = T.as_tensor(images)
        if x.data.ndim != 4 or x.shape[1] != self.in_channels:
            raise ShapeError(f"expected (N,{self.in_channels},H,W), got {x.shape}")
        x = T.relu(T.conv2d(x, p["stem.w"], stride=self.STEM_STRIDE, padding=1))
        if self.pool_target is not None:
            x = T.adaptive_avg_pool2d(x, (self.pool_target, self.pool_target))
        for i in range(len(self.stage_channels)):
            x = T.relu(T.conv2d(x, p[f"stage{i}.w"], stride=2, padding=1))
            if self.eca:
                x = eca_forward(x, p[f"stage{i}.eca"])
        x = T.relu(T.conv2d(x, p["head.reduce.w"], stride=1, padding=1))
        return T.global_avg_pool(x)

    def score(self, images, params=None) -> Tensor:
        """Regression scores (N,) of an (N,C,H,W) batch; the class head is
        not evaluated."""
        p = self.params if params is None else {**self.params, **params}
        x = T.matmul(self.features(images, params), p["head.reg.w"])
        return T.reshape(T.add_rowvec(x, p["head.reg.b"]), (-1,))

    def forward(self, images, params=None) -> Tensor:
        """Class logits (N, num_classes) of an (N,C,H,W) batch; the
        regression head is not evaluated."""
        p = self.params if params is None else {**self.params, **params}
        return T.add_rowvec(T.matmul(self.features(images, params),
                                     p["head.class.w"]), p["head.class.b"])
