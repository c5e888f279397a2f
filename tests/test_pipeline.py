"""Staged pipeline: label maps, routing, branch training, fused scoring,
and the ablation harness, all at toy scale."""

import os
import re
import warnings

import numpy as np
import pytest

from amcr import pipeline
from amcr.blocks import AestheticNet
from amcr.data import Sample, binarize_label, ten_class_label
from amcr.errors import ConfigError, DataError
from amcr.pipeline import (PipelineArtifacts, fuse_score, prepare_image,
                           prepare_images, pseudo_split, route, run_ablation,
                           run_pipeline, train_binary, train_branch)
from amcr.pnm import load_pnm, save_pnm
from amcr.tensor import Tensor
from amcr.training import (TrainSettings, cache_features, predict_class,
                           predict_score, solve_reg_head)


# ---------------------------------------------------------------------------
# label maps


def test_binarize_label_threshold_boundary():
    assert binarize_label(5.0) == 1
    assert binarize_label(np.nextafter(5.0, 0.0)) == 0
    assert binarize_label(0.0) == 0
    assert binarize_label(10.0) == 1
    for bad in (-0.1, 10.1):
        with pytest.raises(DataError):
            binarize_label(bad)


def test_ten_class_label_covers_left_open_bins():
    # class A holds (A, A+1]; integer scores sit at the top of their bin
    assert ten_class_label(0.0) == 0
    for k in range(1, 11):
        assert ten_class_label(float(k)) == k - 1
        assert ten_class_label(k - 0.5) == k - 1
    assert ten_class_label(np.nextafter(1.0, 2.0)) == 1
    for bad in (-0.001, 10.001):
        with pytest.raises(DataError):
            ten_class_label(bad)


def test_label_maps_agree_on_their_shared_boundary():
    # samples the binary head calls positive all land in the top five bins
    for s in np.linspace(0.01, 10.0, 200):
        if binarize_label(s) == 1:
            assert ten_class_label(s) >= 4  # (4,5] is the first positive bin


# ---------------------------------------------------------------------------
# fixtures


def tiny_factory(rng, num_classes):
    return AestheticNet(rng, in_channels=3, stem_channels=4,
                        stage_channels=(4,), head_width=4,
                        num_classes=num_classes, eca=True)


def spread_samples(rng, n=24, side=8):
    """Scores deliberately avoid the (4,6) band so the distilled binary set
    keeps most of the data, with both classes populated."""
    samples, images = [], {}
    lows = np.linspace(0.5, 3.9, n // 2)
    highs = np.linspace(6.1, 9.5, n - n // 2)
    for i, score in enumerate(np.concatenate([lows, highs])):
        sid = f"s{i}"
        samples.append(Sample(sid, sid + ".ppm", float(score),
                              int(score >= 5.0)))
        images[sid] = rng.uniform(0, 1, (3, side, side))
    order = rng.permutation(len(samples))
    return [samples[i] for i in order], images


def fast_settings(**kw):
    base = dict(epochs=1, batch_size=4, lr=1e-3, weight_decay=0.0,
                plateau_patience=2)
    base.update(kw)
    return TrainSettings(**base)


def set_constant_head(model, value, *, classes=None):
    """Zero the relevant head weights so the model's output is a constant
    the test controls exactly."""
    if classes is None:
        model.params["head.reg.w"].data[:] = 0.0
        model.params["head.reg.b"].data[:] = float(value)
    else:
        model.params["head.class.w"].data[:] = 0.0
        b = np.zeros(model.num_classes)
        b[classes] = 1.0
        model.params["head.class.b"].data[:] = b


# ---------------------------------------------------------------------------
# preprocessing


def test_prepare_images_all_modes(tmp_path):
    rng = np.random.default_rng(0)
    samples = []
    for i, (h, w) in enumerate([(6, 9), (9, 6), (7, 7)]):
        sid = f"p{i}"
        img = rng.uniform(0, 1, (3, h, w))
        save_pnm(tmp_path / f"{sid}.ppm", img)
        samples.append(Sample(sid, f"{sid}.ppm", 5.0, 1))
    crop = prepare_images(samples, str(tmp_path), "crop", crop_side=4)
    resize = prepare_images(samples, str(tmp_path), "resize", crop_side=4)
    aab = prepare_images(samples, str(tmp_path), "aab", square_side=8)
    for sid in ("p0", "p1", "p2"):
        assert crop[sid].shape == (3, 4, 4)
        assert resize[sid].shape == (3, 4, 4)
        assert aab[sid].shape == (3, 8, 8)
    with pytest.raises(ConfigError):
        prepare_images(samples, str(tmp_path), "mosaic")


def test_prepare_images_copies_each_image_as_prepared(tmp_path):
    # every image keeps its prepared values in its row of the block; a gray
    # image among color ones is bad data, named by its path
    rng = np.random.default_rng(20)
    samples = []
    for i, channels in enumerate((3, 3, 1)):
        sid = f"g{i}"
        path = f"{sid}.{'ppm' if channels == 3 else 'pgm'}"
        save_pnm(tmp_path / path, rng.uniform(0, 1, (channels, 6, 6)))
        samples.append(Sample(sid, path, 5.0, 1))
    color = prepare_images(samples[:2], str(tmp_path), "crop", crop_side=4)
    for s in samples[:2]:
        np.testing.assert_array_equal(color[s.id], prepare_image(
            load_pnm(str(tmp_path / s.path)), "crop", 4, 64), strict=True)
    path = os.path.join(str(tmp_path), samples[2].path)
    with pytest.raises(DataError, match=re.escape(
            f"{path}: a 1-channel image, but the model takes 3 channels")):
        prepare_images(samples, str(tmp_path), "crop", crop_side=4)
    gray = prepare_images(samples[2:], str(tmp_path), "crop", crop_side=4,
                          in_channels=1)
    assert gray["g2"].shape == (1, 4, 4)


# ---------------------------------------------------------------------------
# binary stage and routing


def test_train_binary_needs_two_class_head():
    rng = np.random.default_rng(1)
    samples, images = spread_samples(rng, n=8)
    with pytest.raises(ConfigError):
        train_binary(tiny_factory(rng, 10), samples, samples, images,
                     fast_settings(), rng)
    with pytest.raises(DataError):
        train_binary(tiny_factory(rng, 2), samples, [], images,
                     fast_settings(), rng)


def test_train_binary_reports_accuracy():
    rng = np.random.default_rng(2)
    samples, images = spread_samples(rng, n=12)
    model = tiny_factory(rng, 2)
    result = train_binary(model, samples, samples, images,
                          fast_settings(epochs=2), rng)
    assert 0.0 <= result.best_metric <= 1.0
    assert len(result.history) == 2


def test_train_binary_learns_the_manifest_binary_label():
    # a router that calls every image class 1 is right on every sample
    # whose binary_label is 1, whatever its score says
    rng = np.random.default_rng(13)
    samples, images = spread_samples(rng, n=8)
    labelled = [Sample(s.id, s.path, s.score, 1) for s in samples]
    model = tiny_factory(rng, 2)
    set_constant_head(model, None, classes=1)
    result = train_binary(model, labelled, labelled, images,
                          fast_settings(lr=1e-12), rng)
    assert result.best_metric == 1.0


@pytest.mark.parametrize("mrn", [False, True])
def test_train_binary_leaves_the_regression_head_as_drawn(mrn):
    # the router's loss never reaches head.reg, so weight decay must not
    # move it either
    rng = np.random.default_rng(23)
    samples, images = spread_samples(rng, n=8)
    model = tiny_factory(rng, 2)
    drawn = {n: p.data.copy() for n, p in model.params.items()
             if n.startswith("head.reg.")}
    settings = fast_settings(weight_decay=0.1, meta_batch=4, mrn_hidden=4)
    train_binary(model, samples, samples, images, settings, rng,
                 meta_samples=samples[:4] if mrn else None)
    assert set(drawn) == {"head.reg.w", "head.reg.b"}
    for name, value in drawn.items():
        np.testing.assert_array_equal(model.params[name].data, value)


def test_pseudo_split_partitions_by_prediction_only():
    rng = np.random.default_rng(3)
    samples, images = spread_samples(rng, n=16)
    model = tiny_factory(rng, 2)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        split = pseudo_split(model, samples[:12], samples[12:], images)

    labels = predict_class(model, [images[s.id] for s in samples])
    assert split == {s.id: int(label) for s, label in zip(samples, labels)}
    assert route(model, [images[s.id] for s in samples]).tolist() == \
        labels.tolist()

    # ground-truth scores cannot influence routing
    flipped = [Sample(s.id, s.path, 10.0 - s.score, 1 - s.binary_label)
               for s in samples]
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        split2 = pseudo_split(model, flipped[:12], flipped[12:], images)
    assert split2 == split


def test_pseudo_split_warns_on_empty_branch():
    rng = np.random.default_rng(4)
    samples, images = spread_samples(rng, n=8)
    model = tiny_factory(rng, 2)
    set_constant_head(model, None, classes=1)  # every prediction is class 1
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        split = pseudo_split(model, samples, samples, images)
    assert [str(w.message) for w in caught] == [
        "router sent 8 of 8 train samples to one branch"]
    assert split == {s.id: 1 for s in samples}


# of 40 train samples, 38 in one branch is exactly the 95% share that is
# still a split; the 4 valid samples all go to branch 0 and count for nothing
@pytest.mark.parametrize("ones, larger", [(40, 40), (39, 39), (38, None),
                                          (2, None), (1, 39), (0, 40)])
def test_pseudo_split_warns_once_above_the_branch_share(monkeypatch, ones,
                                                        larger):
    rng = np.random.default_rng(21)
    samples, images = spread_samples(rng, n=44)
    label_of = {id(images[s.id]): int(i < ones) for i, s in enumerate(samples)}
    monkeypatch.setattr(pipeline.TR, "predict_class", lambda model, inputs:
                        np.array([label_of[id(x)] for x in inputs]))
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        split = pseudo_split(None, samples[:40], samples[40:], images)
    assert [split[s.id] for s in samples] == [int(i < ones) for i in range(44)]
    assert [str(w.message) for w in caught] == (
        [] if larger is None
        else [f"router sent {larger} of 40 train samples to one branch"])


# ---------------------------------------------------------------------------
# branch training


def test_train_branch_two_phases_and_freeze(monkeypatch):
    rng = np.random.default_rng(5)
    samples, images = spread_samples(rng, n=12)
    model = tiny_factory(rng, 10)
    before = {n: p.data.copy() for n, p in model.params.items()}
    after_phase1 = {}
    solve = pipeline.TR.solve_reg_head

    def recording_solve(model, *args):
        after_phase1.update({n: p.data.copy() for n, p in model.params.items()})
        return solve(model, *args)

    monkeypatch.setattr(pipeline.TR, "solve_reg_head", recording_solve)
    out = train_branch(model, samples[:8], samples[8:], images,
                       fast_settings(), rng)
    assert set(out) == {"class", "reg"}
    assert out["class"].iterations == 2   # one epoch of 8 samples, batch 4
    assert out["reg"].iterations == 0     # phase 2 is one solve
    reg_names = {n for n in model.params if n.startswith("head.reg")}

    def moved(start, end):
        return {n for n in model.params if not np.array_equal(end[n], start[n])}

    # phase 1 trains what the class loss reaches and leaves the regression
    # head as drawn; phase 2 moves the regression head alone
    assert moved(before, after_phase1) == set(model.params) - reg_names
    now = {n: p.data for n, p in model.params.items()}
    assert moved(after_phase1, now) == reg_names


def test_train_branch_solve_ignores_the_mrn():
    # phase 1 learns an MRN on the ten-class loss; the regression solve
    # is the uniform one on the frozen backbone's features all the same
    rng = np.random.default_rng(15)
    samples, images = spread_samples(rng, n=12)
    model = tiny_factory(rng, 10)
    train, valid = samples[:8], samples[8:]
    settings = fast_settings(meta_batch=4, mrn_hidden=4, weight_decay=1e-2)
    out = train_branch(model, train, valid, images, settings, rng,
                       meta_samples=samples[:4])
    assert out["class"].mrn is not None
    assert out["reg"].mrn is None and out["reg"].sample_weights == {}
    head = ("head.reg.w", "head.reg.b")
    solved = [model.params[n].data.copy() for n in head]
    rows = cache_features(model, [*train, *valid], images)
    solve_reg_head(model, rows[:8], [s.score for s in train], rows[8:],
                   [s.score for s in valid], settings.weight_decay)
    for name, value in zip(head, solved):
        assert np.array_equal(model.params[name].data, value), name


def test_train_branch_draws_nothing_after_phase_one(monkeypatch):
    # phase 2 is a solve: it shuffles nothing, so the run's RNG leaves
    # train_branch where phase 1 left it
    rng = np.random.default_rng(18)
    samples, images = spread_samples(rng, n=12)
    model = tiny_factory(rng, 10)
    after_phase_one = []
    train_model = pipeline.train_model

    def recording_train_model(*args, **kwargs):
        result = train_model(*args, **kwargs)
        after_phase_one.append(rng.bit_generator.state)
        return result

    monkeypatch.setattr(pipeline, "train_model", recording_train_model)
    settings = fast_settings(meta_batch=4, mrn_hidden=4)
    train_branch(model, samples[:8], samples[8:], images, settings, rng,
                 meta_samples=samples[:4])
    assert after_phase_one == [rng.bit_generator.state]


def test_train_branch_rejects_an_empty_validation_split():
    rng = np.random.default_rng(6)
    samples, images = spread_samples(rng, n=8)
    with pytest.raises(DataError, match="empty validation split"):
        train_branch(tiny_factory(rng, 10), samples, [], images,
                     fast_settings(), rng)


# ---------------------------------------------------------------------------
# fused scoring


def test_fuse_score_routes_averages_and_clamps():
    rng = np.random.default_rng(7)
    image = rng.uniform(0, 1, (3, 8, 8))
    c2 = tiny_factory(rng, 2)
    r_all = tiny_factory(rng, 10)
    r0 = tiny_factory(rng, 10)
    r1 = tiny_factory(rng, 10)
    set_constant_head(r_all, 7.0)
    set_constant_head(r0, 2.0)
    set_constant_head(r1, 9.0)

    set_constant_head(c2, None, classes=1)
    assert fuse_score(c2, r0, r1, r_all, [image]) == pytest.approx([8.0])  # (9+7)/2
    set_constant_head(c2, None, classes=0)
    assert fuse_score(c2, r0, r1, r_all, [image]) == pytest.approx([4.5])  # (2+7)/2

    # a missing branch degrades to the all-data regressor
    assert fuse_score(c2, None, r1, r_all, [image]) == pytest.approx([7.0])

    # the average clamps to the score scale on both ends
    art = PipelineArtifacts("pcr", r_all, c2, r0, r1)
    set_constant_head(r0, -9.0)
    assert art.predict([image]).tolist() == [0.0]
    set_constant_head(r0, 25.0)
    assert art.predict([image]).tolist() == [10.0]


class BrightnessRouter:
    """A stand-in binary router: class 1 exactly when the image is bright."""

    def forward(self, images):
        means = images.data.mean(axis=(1, 2, 3))
        return Tensor(np.stack([np.full_like(means, 0.5), means], axis=1))


def test_fuse_score_scores_each_branch_on_its_routed_inputs():
    rng = np.random.default_rng(17)
    dark, bright = np.full((3, 8, 8), 0.1), np.full((3, 8, 8), 0.9)
    r_all, r0, r1 = (tiny_factory(rng, 10) for _ in range(3))
    set_constant_head(r_all, 7.0)
    set_constant_head(r0, 2.0)
    set_constant_head(r1, 9.0)
    inputs = [dark, bright, dark, bright, bright]
    fused = fuse_score(BrightnessRouter(), r0, r1, r_all, inputs)
    assert fused.tolist() == [4.5, 8.0, 4.5, 8.0, 8.0]
    fused = fuse_score(BrightnessRouter(), None, r1, r_all, inputs)
    assert fused.tolist() == [7.0, 8.0, 7.0, 8.0, 8.0]


# ---------------------------------------------------------------------------
# variant runner


def test_run_pipeline_rejects_bad_requests():
    rng = np.random.default_rng(8)
    samples, images = spread_samples(rng, n=8)
    with pytest.raises(ConfigError):
        run_pipeline("rc", samples, samples, images, tiny_factory,
                     fast_settings(), fast_settings(), rng)
    with pytest.raises(DataError, match="needs a meta set"):
        run_pipeline("r", samples, samples, images, tiny_factory,
                     fast_settings(), fast_settings(), rng, meta_samples=[])


def test_run_pipeline_r_variant():
    rng = np.random.default_rng(9)
    samples, images = spread_samples(rng, n=12)
    art = run_pipeline("r", samples[:8], samples[8:], images, tiny_factory,
                       fast_settings(), fast_settings(), rng)
    assert art.variant == "r"
    assert art.r_all is not None and art.c2 is None
    assert set(art.history) == {"r"}
    img = images[samples[0].id]
    assert art.predict([img]).tolist() == [
        min(10.0, max(0.0, predict_score(art.r_all, [img])[0]))]


def test_run_pipeline_cr_variant():
    rng = np.random.default_rng(10)
    samples, images = spread_samples(rng, n=12)
    art = run_pipeline("cr", samples[:8], samples[8:], images, tiny_factory,
                       fast_settings(), fast_settings(), rng)
    assert set(art.history) == {"r_all"}
    assert set(art.history["r_all"]) == {"class", "reg"}
    assert art.c2 is None and art.split is None
    preds = art.predict([images[s.id] for s in samples[8:]])
    assert preds.shape == (4,)
    assert np.all((preds >= 0.0) & (preds <= 10.0))


def test_run_pipeline_pcr_variant():
    rng = np.random.default_rng(11)
    samples, images = spread_samples(rng, n=28)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # small branches may fall back
        art = run_pipeline("pcr", samples[:20], samples[20:], images,
                           tiny_factory, fast_settings(batch_size=2),
                           fast_settings(batch_size=2), rng)
    assert art.c2 is not None and art.c2.num_classes == 2
    assert art.split is not None
    assert set(art.split) == {s.id for s in samples}
    assert {"r_all", "c2"} <= set(art.history)
    img = images[samples[0].id]
    assert art.predict([img]).tolist() == [min(10.0, max(0.0, fuse_score(
        art.c2, art.r0, art.r1, art.r_all, [img])[0]))]


def halving_split(model, train, valid, images):
    # whatever the router predicts, each branch gets half of the train set
    half = len(train) // 2
    return {**{s.id: 0 for s in valid},
            **{s.id: int(i >= half) for i, s in enumerate(train)}}


def test_run_pipeline_pcr_branch_fallback(monkeypatch):
    rng = np.random.default_rng(12)
    samples, images = spread_samples(rng, n=12)
    train, valid = samples[:8], samples[8:]
    # each branch gets 4 of the 8 train samples: less than one batch of 8
    monkeypatch.setattr(pipeline, "pseudo_split", halving_split)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        art = run_pipeline("pcr", train, valid, images, tiny_factory,
                           fast_settings(batch_size=8),
                           fast_settings(batch_size=8), rng)
    assert [str(w.message) for w in caught] == [
        f"branch {name} has 4 samples, falling back to the all-data regressor"
        for name in ("r0", "r1")]
    assert art.r0 is None and art.r1 is None
    assert set(art.history) == {"r_all", "c2"}
    img = images[samples[0].id]
    assert art.predict([img]) == pytest.approx(
        [min(10.0, max(0.0, predict_score(art.r_all, [img])[0]))])


def test_run_pipeline_pcr_trains_a_branch_of_one_class_batch(monkeypatch):
    # the regression solve takes no batches, so a branch of exactly one
    # class batch trains even when it holds less than one reg batch
    rng = np.random.default_rng(22)
    samples, images = spread_samples(rng, n=12)
    monkeypatch.setattr(pipeline, "pseudo_split", halving_split)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        art = run_pipeline("pcr", samples[:8], samples[8:], images,
                           tiny_factory, fast_settings(batch_size=4),
                           fast_settings(batch_size=8), rng)
    assert [str(w.message) for w in caught] == []
    assert art.r0 is not None and art.r1 is not None
    assert set(art.history) == {"r_all", "c2", "r0", "r1"}


# ---------------------------------------------------------------------------
# ablation harness


def ablation_fixture(rng):
    samples, images = spread_samples(rng, n=16)
    return samples[:10], samples[10:13], samples[13:], images


def test_run_ablation_validates_requests():
    rng = np.random.default_rng(13)
    train, valid, test, images = ablation_fixture(rng)
    with pytest.raises(ConfigError):
        run_ablation([{"variant": "r", "mrn": False, "prep": "crop"}],
                     train, valid, test, images, tiny_factory,
                     fast_settings(), fast_settings())
    with pytest.raises(ConfigError):
        run_ablation([{"variant": "x", "mrn": False}], train, valid, test,
                     images, tiny_factory, fast_settings(), fast_settings())


def test_run_ablation_runs_cells_in_order():
    rng = np.random.default_rng(14)
    train, valid, test, images = ablation_fixture(rng)
    requests = [{"variant": "r", "mrn": False},
                {"variant": "cr", "mrn": False}]
    results = run_ablation(requests, train, valid, test, images, tiny_factory,
                           fast_settings(), fast_settings())
    assert [(r["variant"], r["mrn"]) for r in results] == [("r", False),
                                                           ("cr", False)]
    for r in results:
        assert isinstance(r["artifacts"], PipelineArtifacts)
        assert r["artifacts"].variant == r["variant"]
        assert np.isfinite(r["report"].mse)

    # every cell runs on its own seeded stream, so a rerun reproduces
    # each cell's scores exactly
    again = run_ablation(requests, train, valid, test, images, tiny_factory,
                         fast_settings(), fast_settings())
    for first, second in zip(results, again):
        np.testing.assert_array_equal(first["predictions"],
                                      second["predictions"])



def _stage_results(artifacts):
    for stage in artifacts.history.values():
        yield from (stage.values() if isinstance(stage, dict) else [stage])


def test_run_ablation_hands_the_meta_set_to_mrn_on_cells_only():
    rng = np.random.default_rng(16)
    train, valid, test, images = ablation_fixture(rng)
    requests = [{"variant": "cr", "mrn": False}, {"variant": "cr", "mrn": True}]
    settings = fast_settings(meta_batch=4, mrn_hidden=4)
    off, on = run_ablation(requests, train, valid, test, images, tiny_factory,
                           settings, settings, meta_samples=train[:4])
    assert all(res.mrn is None for res in _stage_results(off["artifacts"]))
    # the MRN lives where it is learned: the trained phases, not the solves
    assert all((res.mrn is not None) == (res.iterations > 0)
               for res in _stage_results(on["artifacts"]))
    # an MRN-on cell without a meta set is refused
    with pytest.raises(DataError, match="needs a meta set"):
        run_ablation(requests[1:], train, valid, test, images, tiny_factory,
                     settings, settings)
