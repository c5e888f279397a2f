"""Shared training loop: convergence on toy problems, best-checkpoint
restoration, reweighted mode, and the loss/eval helpers."""

import numpy as np
import pytest

from amcr import tensor as T
from amcr.blocks import AestheticNet, Mrn
from amcr.data import Sample
from amcr.errors import DataError, ParameterError
from amcr.training import (TrainSettings, _Cycler, cache_features,
                           class_loss_fn, eval_class_accuracy, eval_reg_mse,
                           eval_reg_feature_mse, predict_class, predict_score,
                           reg_loss_fn, train_model)
from amcr.tensor import Tensor


class LineModel:
    """y = a*x + b; per-sample loss (y - t)^2. Fits in a handful of steps."""

    def __init__(self, a0=0.0, b0=0.0):
        self.params = {"a": Tensor(np.array([a0]), requires_grad=True),
                       "b": Tensor(np.array([b0]), requires_grad=True)}

    def parameters(self):
        return self.params

    def loss_fn(self):
        def fn(batch, override):
            p = self.params if override is None else {**self.params, **override}
            a = T.reshape(p["a"], ())
            b = T.reshape(p["b"], ())
            out = []
            for x, t in batch:
                pred = T.add(T.mul(a, T.as_tensor(float(x))), b)
                d = T.sub(pred, T.as_tensor(float(t)))
                out.append(T.mul(d, d))
            return T.stack(out)
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
        a = float(model.params["a"].data[0])
        b = float(model.params["b"].data[0])
        return float(np.mean([(a * x + b - t) ** 2 for x, t in valid]))

    settings = TrainSettings(epochs=30, batch_size=8, lr=0.05, weight_decay=0.0,
                             betas=(0.9, 0.999))
    result = train_model(model, model.loss_fn(), data, valid_fn, settings, rng,
                         metric_mode="lower")
    assert float(model.params["a"].data[0]) == pytest.approx(2.0, abs=0.05)
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


def test_trainable_subset_freezes_the_rest():
    rng = np.random.default_rng(4)
    model = LineModel(a0=0.5, b0=0.25)
    data = line_data(rng, 32)
    b_before = model.params["b"].data.copy()
    settings = TrainSettings(epochs=4, batch_size=8, lr=0.05, weight_decay=0.0)
    train_model(model, model.loss_fn(), data, lambda: 0.0, settings, rng,
                metric_mode="lower", trainable=["a"])
    assert not np.array_equal(model.params["a"].data, np.array([0.5]))
    np.testing.assert_array_equal(model.params["b"].data, b_before)


def test_empty_training_set_rejected():
    model = LineModel()
    with pytest.raises(DataError):
        train_model(model, model.loss_fn(), [], lambda: 0.0,
                    TrainSettings(), np.random.default_rng(0))


def test_mrn_mode_needs_meta_samples():
    model = LineModel()
    with pytest.raises(DataError):
        train_model(model, model.loss_fn(), [(0.0, 0.0)], lambda: 0.0,
                    TrainSettings(), np.random.default_rng(0), use_mrn=True)


def test_mrn_mode_records_sample_weights():
    rng = np.random.default_rng(5)
    model = LineModel()

    class Pt:
        def __init__(self, i, x, t):
            self.id = f"pt{i}"
            self.x, self.t = x, t

    pts = [Pt(i, x, t) for i, (x, t) in enumerate(line_data(rng, 24))]
    meta = [Pt(100 + i, x, t) for i, (x, t) in enumerate(line_data(rng, 8))]

    def fn(batch, override):
        p = model.params if override is None else {**model.params, **override}
        a = T.reshape(p["a"], ())
        b = T.reshape(p["b"], ())
        out = []
        for s in batch:
            d = T.sub(T.add(T.mul(a, T.as_tensor(s.x)), b), T.as_tensor(s.t))
            out.append(T.mul(d, d))
        return T.stack(out)

    settings = TrainSettings(epochs=2, batch_size=8, lr=0.05, meta_batch=4,
                             weight_decay=0.0)
    result = train_model(model, fn, pts, lambda: 0.0, settings, rng,
                         metric_mode="lower", use_mrn=True, meta_samples=meta)
    assert set(result.sample_weights) == {p.id for p in pts}
    assert all(0.0 < w < 1.0 for w in result.sample_weights.values())


def test_mrn_frozen_mode_keeps_network_fixed():
    rng = np.random.default_rng(6)
    model = LineModel()

    class Pt:
        def __init__(self, i, x, t):
            self.id = f"pt{i}"
            self.x, self.t = x, t

    pts = [Pt(i, x, t) for i, (x, t) in enumerate(line_data(rng, 16))]
    meta = pts[:4]

    def fn(batch, override):
        p = model.params if override is None else {**model.params, **override}
        a = T.reshape(p["a"], ())
        b = T.reshape(p["b"], ())
        return T.stack([T.mul(T.sub(T.add(T.mul(a, T.as_tensor(s.x)), b),
                                    T.as_tensor(s.t)),
                              T.sub(T.add(T.mul(a, T.as_tensor(s.x)), b),
                                    T.as_tensor(s.t))) for s in batch])

    mrn = Mrn(hidden=8, rng=rng)
    before = {n: p.data.copy() for n, p in mrn.params.items()}
    settings = TrainSettings(epochs=2, batch_size=8, lr=0.05, meta_batch=4,
                             weight_decay=0.0)
    train_model(model, fn, pts, lambda: 0.0, settings, rng,
                metric_mode="lower", use_mrn=True, meta_samples=meta,
                mrn=mrn, freeze_mrn=True)
    for n, v in before.items():
        np.testing.assert_array_equal(mrn.params[n].data, v)


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


def test_class_loss_fn_shape_and_positivity():
    rng = np.random.default_rng(7)
    net = tiny_net(rng)
    samples, images = fixture_samples(rng)
    fn = class_loss_fn(net, images, lambda s: s.binary_label)
    losses = fn(samples, None)
    assert losses.shape == (6,)
    assert np.all(losses.data >= 0.0)


def test_reg_loss_fn_matches_prediction_error():
    rng = np.random.default_rng(8)
    net = tiny_net(rng)
    samples, images = fixture_samples(rng)
    fn = reg_loss_fn(net, images)
    losses = fn(samples, None).data
    for s, loss in zip(samples, losses):
        pred = predict_score(net, images[s.id])
        assert loss == pytest.approx((pred - s.score) ** 2, rel=1e-12)


def test_cached_features_match_live_forward():
    rng = np.random.default_rng(9)
    net = tiny_net(rng)
    samples, images = fixture_samples(rng)
    feats = cache_features(net, samples, images)
    fn = reg_loss_fn(net, feats)
    cached = fn(samples, None).data
    live = reg_loss_fn(net, images)(samples, None).data
    np.testing.assert_allclose(cached, live, rtol=0, atol=1e-12)
    assert eval_reg_feature_mse(net, samples, feats) == \
        pytest.approx(eval_reg_mse(net, samples, images), rel=1e-12)


def test_eval_class_accuracy_counts_argmax_hits():
    rng = np.random.default_rng(10)
    net = tiny_net(rng, num_classes=2)
    samples, images = fixture_samples(rng)
    acc = eval_class_accuracy(net, samples, images, lambda s: s.binary_label)
    hits = sum(predict_class(net, images[s.id]) == s.binary_label for s in samples)
    assert acc == hits / len(samples)
    with pytest.raises(DataError):
        eval_class_accuracy(net, [], images, lambda s: s.binary_label)


def test_eval_reg_mse_empty_rejected():
    rng = np.random.default_rng(11)
    net = tiny_net(rng)
    with pytest.raises(DataError):
        eval_reg_mse(net, [], {})
