"""Shared training loop: convergence on toy problems, best-checkpoint
restoration, reweighted mode, the loss/eval helpers, and the closed-form
regression head."""

import numpy as np
import pytest

from amcr import tensor as T
from amcr import training
from amcr.blocks import AestheticNet, Mrn
from amcr.data import Sample
from amcr.errors import DataError, ParameterError
from amcr.training import (TrainSettings, _Cycler, cache_features,
                           class_loss_fn, eval_class_accuracy, eval_reg_mse,
                           predict_class, predict_score, reg_loss_fn,
                           solve_reg_head, train_model)
from amcr.tensor import Tensor


def line_losses(p, xs, ts):
    """(a*x + b - t)^2 of each sample, as one graph over the batch; a is
    (1, 1) and b (1,), so both reach the loss through ops that record
    per-sample gradients."""
    pred = T.add_rowvec(T.matmul(Tensor(np.reshape(xs, (-1, 1))), p["a"]), p["b"])
    d = T.sub(T.reshape(pred, (-1,)), Tensor(np.asarray(ts, dtype=np.float64)))
    return T.mul(d, d)


class LineModel:
    """y = a*x + b; per-sample loss (y - t)^2. Fits in a handful of steps."""

    def __init__(self, a0=0.0, b0=0.0):
        self.params = {"a": Tensor(np.array([[a0]]), requires_grad=True),
                       "b": Tensor(np.array([b0]), requires_grad=True)}

    def parameters(self):
        return self.params

    def loss_fn(self):
        def fn(batch, override):
            p = self.params if override is None else {**self.params, **override}
            return line_losses(p, [x for x, _ in batch], [t for _, t in batch])
        return fn


def line_data(rng, n, a=2.0, b=-1.0, noise=0.0):
    xs = rng.uniform(-2, 2, n)
    return [(x, a * x + b + noise * rng.normal()) for x in xs]


def test_settings_validation():
    with pytest.raises(ParameterError):
        TrainSettings(epochs=0).validate()
    with pytest.raises(ParameterError):
        TrainSettings(lr=0.0).validate()
    with pytest.raises(ParameterError):
        TrainSettings(batch_size=0).validate()


def test_cycler_covers_all_items_each_pass():
    rng = np.random.default_rng(0)
    cyc = _Cycler(list(range(10)), 3, rng)
    seen = []
    for _ in range(10):  # 30 draws = 3 full passes
        seen.extend(cyc.next())
    # every pass of 10 consecutive draws is a permutation
    assert sorted(seen[:10]) == list(range(10))
    assert sorted(seen[10:20]) == list(range(10))


def test_plain_training_fits_a_line():
    rng = np.random.default_rng(1)
    model = LineModel()
    data = line_data(rng, 64)
    valid = line_data(rng, 16)

    def valid_fn():
        a = float(model.params["a"].data[0, 0])
        b = float(model.params["b"].data[0])
        return float(np.mean([(a * x + b - t) ** 2 for x, t in valid]))

    settings = TrainSettings(epochs=30, batch_size=8, lr=0.05, weight_decay=0.0,
                             betas=(0.9, 0.999))
    result = train_model(model, model.loss_fn(), data, valid_fn, settings, rng,
                         metric_mode="lower")
    assert float(model.params["a"].data[0, 0]) == pytest.approx(2.0, abs=0.05)
    assert float(model.params["b"].data[0]) == pytest.approx(-1.0, abs=0.05)
    assert result.best_metric < 1e-3
    assert len(result.history) == 30
    assert result.iterations == 30 * 8


def test_training_restores_best_validation_parameters():
    rng = np.random.default_rng(2)
    model = LineModel()
    data = line_data(rng, 32)
    seq = iter([3.0, 1.0, 2.0, 4.0, 5.0, 6.0])  # scripted: best at epoch 2
    snaps = []

    def valid_fn():
        # called once per epoch, right before the improvement check, so the
        # snapshot taken here is exactly what a better metric would store
        snaps.append({n: p.data.copy() for n, p in model.params.items()})
        return next(seq)

    settings = TrainSettings(epochs=6, batch_size=8, lr=0.05, weight_decay=0.0)
    result = train_model(model, model.loss_fn(), data, valid_fn, settings, rng,
                         metric_mode="lower")
    assert result.best_metric == 1.0
    assert len(result.history) == 6
    for n, p in model.params.items():
        np.testing.assert_array_equal(p.data, snaps[1][n])
    # training kept moving afterwards, so restoration actually rewound
    assert any(not np.array_equal(snaps[-1][n], snaps[1][n]) for n in snaps[1])


def test_higher_metric_mode_keeps_the_maximum():
    rng = np.random.default_rng(12)
    model = LineModel()
    data = line_data(rng, 16)
    seq = iter([0.2, 0.9, 0.4, 0.1])
    settings = TrainSettings(epochs=4, batch_size=8, lr=0.05, weight_decay=0.0)
    result = train_model(model, model.loss_fn(), data, lambda: next(seq),
                         settings, rng, metric_mode="higher")
    assert result.best_metric == 0.9


def test_history_records_lr_halving():
    rng = np.random.default_rng(3)
    model = LineModel()
    data = line_data(rng, 16)
    values = iter([1.0, 2.0, 3.0, 4.0, 5.0, 6.0])  # never improves after first

    settings = TrainSettings(epochs=6, batch_size=8, lr=0.04, weight_decay=0.0,
                             plateau_patience=2)
    train_result = train_model(model, model.loss_fn(), data,
                               lambda: next(values), settings, rng,
                               metric_mode="lower")
    lrs = [h["lr"] for h in train_result.history]
    assert lrs[0] == 0.04
    assert lrs[2] == 0.02   # halved after two flat epochs
    assert lrs[4] == 0.01   # and again two epochs later


def test_empty_training_set_rejected():
    model = LineModel()
    with pytest.raises(DataError):
        train_model(model, model.loss_fn(), [], lambda: 0.0,
                    TrainSettings(), np.random.default_rng(0))


def test_mrn_mode_needs_meta_samples():
    model = LineModel()
    with pytest.raises(DataError, match="needs a meta set"):
        train_model(model, model.loss_fn(), [(0.0, 0.0)], lambda: 0.0,
                    TrainSettings(), np.random.default_rng(0), meta_samples=[])


class Pt:
    def __init__(self, i, x, t):
        self.id = f"pt{i}"
        self.x, self.t = x, t


def point_loss_fn(model):
    def fn(batch, override):
        p = model.params if override is None else {**model.params, **override}
        return line_losses(p, [s.x for s in batch], [s.t for s in batch])
    return fn


@pytest.mark.parametrize("mode", ["plain", "meta"])
def test_unreached_parameter_keeps_its_value(mode):
    # a stage trains what its loss reaches: "c" takes no step, so weight
    # decay leaves it bitwise as it was
    rng = np.random.default_rng(4)
    model = LineModel(a0=0.5, b0=0.25)
    model.params["c"] = Tensor(np.array([0.75, -1.5]), requires_grad=True)
    pts = [Pt(i, x, t) for i, (x, t) in enumerate(line_data(rng, 32))]
    meta = pts[:8] if mode == "meta" else None
    settings = TrainSettings(epochs=4, batch_size=8, lr=0.05, meta_batch=4,
                             weight_decay=0.1)
    train_model(model, point_loss_fn(model), pts, lambda: 0.0, settings, rng,
                metric_mode="lower", meta_samples=meta)
    assert not np.array_equal(model.params["a"].data, np.array([[0.5]]))
    assert not np.array_equal(model.params["b"].data, np.array([0.25]))
    np.testing.assert_array_equal(model.params["c"].data, [0.75, -1.5])


def test_mrn_mode_records_sample_weights():
    rng = np.random.default_rng(5)
    model = LineModel()
    pts = [Pt(i, x, t) for i, (x, t) in enumerate(line_data(rng, 24))]
    meta = [Pt(100 + i, x, t) for i, (x, t) in enumerate(line_data(rng, 8))]
    settings = TrainSettings(epochs=2, batch_size=8, lr=0.05, meta_batch=4,
                             weight_decay=0.0)
    result = train_model(model, point_loss_fn(model), pts, lambda: 0.0,
                         settings, rng, metric_mode="lower", meta_samples=meta)
    assert isinstance(result.mrn, Mrn)
    assert set(result.sample_weights) == {p.id for p in pts}
    assert all(0.0 < w < 1.0 for w in result.sample_weights.values())


# ---------------------------------------------------------------------------
# loss builders and evaluators on the real backbone


def tiny_net(rng, **kw):
    args = dict(in_channels=3, stem_channels=4, stage_channels=(4,),
                head_width=4, num_classes=10)
    args.update(kw)
    return AestheticNet(rng, **args)


def fixture_samples(rng, n=6, side=8):
    samples, images = [], {}
    for i in range(n):
        sid = f"f{i}"
        score = float(rng.uniform(0, 10))
        samples.append(Sample(sid, sid + ".ppm", score, int(score >= 5.0)))
        images[sid] = rng.uniform(0, 1, (3, side, side))
    return samples, images


def binary_labels(batch):
    return [s.binary_label for s in batch]


def test_class_loss_fn_shape_and_positivity():
    rng = np.random.default_rng(7)
    net = tiny_net(rng)
    samples, images = fixture_samples(rng)
    fn = class_loss_fn(net, images, binary_labels)
    losses = fn(samples, None)
    assert losses.shape == (6,)
    assert np.all(losses.data >= 0.0)


def test_reg_loss_fn_matches_prediction_error():
    rng = np.random.default_rng(8)
    net = tiny_net(rng)
    samples, images = fixture_samples(rng)
    fn = reg_loss_fn(net, images)
    losses = fn(samples, None).data
    preds = predict_score(net, [images[s.id] for s in samples])
    for s, loss, pred in zip(samples, losses, preds):
        assert loss == pytest.approx((pred - s.score) ** 2, rel=1e-12)


def test_cached_features_match_live_forward():
    rng = np.random.default_rng(9)
    net = tiny_net(rng)
    samples, images = fixture_samples(rng)
    feats = cache_features(net, samples, images)
    live = net.features(np.stack([images[s.id] for s in samples])).data
    np.testing.assert_allclose(np.stack([feats[s.id] for s in samples]), live,
                               rtol=0, atol=1e-12)


def test_eval_class_accuracy_counts_argmax_hits():
    rng = np.random.default_rng(10)
    net = tiny_net(rng, num_classes=2)
    samples, images = fixture_samples(rng)
    acc = eval_class_accuracy(net, samples, images, binary_labels)
    preds = predict_class(net, [images[s.id] for s in samples])
    hits = sum(p == s.binary_label for p, s in zip(preds, samples))
    assert acc == hits / len(samples)
    with pytest.raises(DataError):
        eval_class_accuracy(net, [], images, binary_labels)


def test_scoring_walks_a_long_list_in_fixed_chunks(monkeypatch):
    # one chunk's activations at a time, whatever the list's length
    rng = np.random.default_rng(13)
    net = tiny_net(rng)
    samples, images = fixture_samples(rng, n=training.SCORE_CHUNK + 5)
    inputs = [images[s.id] for s in samples]
    batches = []
    features = net.features

    def recording_features(x, params=None):
        batches.append((x.shape[0], T.grad_enabled()))
        return features(x, params)

    monkeypatch.setattr(net, "features", recording_features)
    classes = predict_class(net, inputs)
    scores = predict_score(net, inputs)
    feats = cache_features(net, samples, images)
    chunks = [(training.SCORE_CHUNK, False), (5, False)]
    assert batches == chunks * 3
    whole = np.stack(inputs)
    np.testing.assert_array_equal(
        classes, np.argmax(features(whole).data @ net.params["head.class.w"].data
                           + net.params["head.class.b"].data, axis=1))
    np.testing.assert_allclose(scores, net.score(whole).data, rtol=1e-12, atol=0)
    np.testing.assert_allclose(np.stack([feats[s.id] for s in samples]),
                               features(whole).data, rtol=1e-12, atol=0)


@pytest.mark.parametrize("loss", ["class", "reg"])
def test_one_iteration_builds_as_many_nodes_at_any_batch(loss, monkeypatch):
    # counts Tensor constructions as the benchmark's tensor.nodes does: a
    # per-sample loop in loss building, the step or validation would make
    # the count grow with the batch
    def nodes_per_iteration(batch):
        rng = np.random.default_rng(14)
        net = tiny_net(rng)
        samples, images = fixture_samples(rng, n=batch)
        if loss == "class":
            loss_fn = class_loss_fn(net, images, binary_labels)
            valid_fn = lambda: eval_class_accuracy(net, samples, images, binary_labels)
        else:
            loss_fn = reg_loss_fn(net, images)
            valid_fn = lambda: eval_reg_mse(net, samples, images)
        settings = TrainSettings(epochs=1, batch_size=batch, lr=0.01)
        count = [0]
        init = Tensor.__init__

        def counted(self, *args, **kwargs):
            count[0] += 1
            init(self, *args, **kwargs)

        monkeypatch.setattr(Tensor, "__init__", counted)
        result = train_model(net, loss_fn, samples, valid_fn, settings, rng)
        monkeypatch.undo()
        assert result.iterations == 1
        return count[0]

    assert nodes_per_iteration(4) == nodes_per_iteration(16)


def test_eval_reg_mse_empty_rejected():
    rng = np.random.default_rng(11)
    net = tiny_net(rng)
    with pytest.raises(DataError):
        eval_reg_mse(net, [], {})


# ---------------------------------------------------------------------------
# closed-form regression head

REG_HEAD = ("head.reg.w", "head.reg.b")


def solve_fixture(seed=20, n=16):
    """A tiny net, its samples, images and cached feature rows (a quarter
    of their entries are ReLU zeros)."""
    rng = np.random.default_rng(seed)
    net = tiny_net(rng)
    samples, images = fixture_samples(rng, n=n)
    return net, samples, images, cache_features(net, samples, images)


def reg_head(net):
    return np.append(net.params["head.reg.w"].data, net.params["head.reg.b"].data)


def test_solved_head_zeroes_the_mean_loss_gradient():
    # the solve is the stationary point of mean_i L_i + (lambda/2)|theta|^2,
    # with L_i taken through the live network on the images
    lam = 1e-2
    net, samples, images, feats = solve_fixture()
    result = solve_reg_head(net, samples, samples, feats, lam)
    assert result.iterations == 0
    assert result.history == [{"valid": result.best_metric}]
    assert result.best_metric == pytest.approx(
        eval_reg_mse(net, samples, images), rel=1e-12)
    losses = reg_loss_fn(net, images)(samples, None)
    for name in REG_HEAD:
        net.params[name].zero_grad()
    T.tmean(losses).backward()
    for name in REG_HEAD:
        p = net.params[name]
        assert np.abs(p.grad + lam * p.data).max() <= 1e-9, name


class HeadModel:
    """The regression head alone, on cached feature rows: its parameters
    are the net's own head.reg tensors."""

    def __init__(self, net, feats):
        self.params = {n: net.params[n] for n in REG_HEAD}
        self.feats = feats

    def loss_fn(self, batch, override):
        p = self.params if override is None else {**self.params, **override}
        rows = Tensor(np.stack([self.feats[s.id] for s in batch]))
        pred = T.reshape(T.add_rowvec(T.matmul(rows, p["head.reg.w"]),
                                      p["head.reg.b"]), (-1,))
        d = T.sub(pred, Tensor(np.array([s.score for s in batch])))
        return T.mul(d, d)


def test_full_batch_adam_never_beats_the_solve():
    lam = 1e-2
    net, samples, images, feats = solve_fixture()
    x = np.hstack([np.stack([feats[s.id] for s in samples]),
                   np.ones((len(samples), 1))])
    y = np.array([s.score for s in samples])

    def objective():
        theta = reg_head(net)
        r = x @ theta - y
        return float(np.mean(r * r) + 0.5 * lam * theta @ theta)

    start = {n: net.params[n].data.copy() for n in REG_HEAD}
    solve_reg_head(net, samples, samples, feats, lam)
    solved = objective()
    for name, value in start.items():
        net.params[name].data = value
    seen = []
    settings = TrainSettings(epochs=400, batch_size=len(samples), lr=0.1,
                             weight_decay=lam, betas=(0.9, 0.999),
                             plateau_patience=400)
    head = HeadModel(net, feats)
    train_model(head, head.loss_fn, samples,
                lambda: seen.append(objective()) or seen[-1], settings,
                np.random.default_rng(0))
    assert min(seen) >= solved - 1e-12 * solved
    # and Adam gets there: both minimize the same objective
    assert min(seen) <= solved + 1e-9 * solved
