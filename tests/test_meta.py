"""Bilevel reweighting: coefficient algebra, the three-stage state
machine, exact meta-gradients against finite differences, and balanced
meta-set construction."""

import weakref

import numpy as np
import pytest

from amcr import tensor as T
from amcr.blocks import AestheticNet, Mrn, mrn_forward
from amcr.errors import DataError, ParameterError, StateError
from amcr.data import segment_of
from amcr.meta import (EPS_NORMALIZE, MetaState, build_meta_set,
                       weight_coefficients)
from amcr.optim import Adam
from amcr.tensor import Tensor
from amcr.training import TrainSettings

from helpers import (batch_of_one_gradients, gradients_from_factors,
                     numerical_grad, rel_err)


# ---------------------------------------------------------------------------
# a one-parameter quadratic model: loss_i = (w - t_i)^2, grad_i = 2(w - t_i)


class ToyModel:
    def __init__(self, w0: float):
        self.params = {"w": Tensor(np.array([w0]), requires_grad=True)}


def toy_loss_fn(model: ToyModel):
    def loss_fn(batch, params):
        p = model.params if params is None else {**model.params, **params}
        # w on every row through add_rowvec, which records per-sample gradients
        w = T.add_rowvec(Tensor(np.zeros((len(batch), 1))), p["w"])
        d = T.sub(T.reshape(w, (-1,)), Tensor(np.asarray(batch, dtype=np.float64)))
        return T.mul(d, d)
    return loss_fn


# ---------------------------------------------------------------------------
# coefficient algebra


def test_weight_coefficients_normalized():
    v = np.array([1.0, 3.0])
    c, s = weight_coefficients(v)
    assert s == pytest.approx(4.0 + EPS_NORMALIZE)
    np.testing.assert_allclose(c, v / s)
    assert c.sum() == pytest.approx(1.0, abs=1e-8)


def test_weight_coefficients_zero_weights_warn():
    with pytest.warns(UserWarning):
        c, _ = weight_coefficients(np.zeros(3))
    np.testing.assert_array_equal(c, 0.0)


def test_meta_config_validation():
    model = ToyModel(0.0)
    for bad in ({"lr": 0.0}, {"lr": -1.0}, {"mrn_lr": 0.0},
                {"mrn_lr": -1.0}):
        with pytest.raises(ParameterError):
            MetaState(model.params, Mrn(hidden=2), toy_loss_fn(model),
                      TrainSettings(**bad))


# ---------------------------------------------------------------------------
# stage 1: lookahead closed form


def test_lookahead_normalized_coefficients():
    model = ToyModel(1.0)
    mrn = Mrn(hidden=4)  # all zero: every weight 0.5
    cfg = TrainSettings(lr=0.2, weight_decay=0.0)
    state = MetaState(model.params, mrn, toy_loss_fn(model), cfg)
    w_hat = state.lookahead_update([0.0, 3.0])
    # v = (0.5, 0.5): normalized c_i = 0.5/(1+eps); g = [2, -4]
    s = 1.0 + EPS_NORMALIZE
    want = 1.0 - 0.2 * (0.5 / s * 2.0 + 0.5 / s * -4.0)
    assert float(w_hat["w"].data[0]) == pytest.approx(want, abs=1e-12)
    # the live parameter is untouched
    assert float(model.params["w"].data[0]) == 1.0


def test_lookahead_records_last_losses():
    model = ToyModel(2.0)
    state = MetaState(model.params, Mrn(hidden=4), toy_loss_fn(model),
                      TrainSettings())
    assert state.last_losses.shape == (0,)
    state.lookahead_update([0.0, 1.0, 5.0])
    np.testing.assert_array_equal(state.last_losses, [4.0, 1.0, 9.0])


def test_lookahead_rejects_empty_batch():
    model = ToyModel(0.0)
    state = MetaState(model.params, Mrn(hidden=2), toy_loss_fn(model),
                      TrainSettings())
    with pytest.raises(DataError):
        state.lookahead_update([])


def test_state_machine_order_enforced():
    model = ToyModel(0.5)
    state = MetaState(model.params, Mrn(hidden=2), toy_loss_fn(model),
                      TrainSettings())
    with pytest.raises(StateError):
        state.meta_step([1.0])
    with pytest.raises(StateError):
        state.main_step()
    state.lookahead_update([0.0, 1.0])
    with pytest.raises(StateError):
        state.main_step()  # meta_step has not run yet
    state.meta_step([0.5, 0.5])
    state.main_step()
    with pytest.raises(StateError):
        state.main_step()  # cache consumed


# ---------------------------------------------------------------------------
# stage 2: exact meta-gradient vs finite differences


def test_meta_gradient_matches_fd():
    rng = np.random.default_rng(42)
    model = ToyModel(1.5)
    mrn = Mrn(hidden=8, rng=rng)
    # nonzero output layer so dv/dTheta is nontrivial everywhere; the large
    # alpha keeps gradient entries well above finite-difference roundoff
    mrn.params["mrn.w2"].data = rng.normal(scale=1.0, size=(8, 1))
    mrn.params["mrn.b2"].data = rng.normal(scale=1.0, size=(1,))
    cfg = TrainSettings(lr=0.5, mrn_lr=0.01, weight_decay=0.0)
    loss_fn = toy_loss_fn(model)
    state = MetaState(model.params, mrn, loss_fn, cfg)
    batch = [0.0, 1.0, 2.5, 4.0]
    meta_batch = [1.0, 1.5, 2.0]

    state.lookahead_update(batch)
    analytic = state.meta_gradient(meta_batch)

    arrs = {n: p.data.copy() for n, p in mrn.params.items()}

    def meta_loss_at():
        override = {n: Tensor(a) for n, a in arrs.items()}
        with T.no_grad():
            losses = loss_fn(batch, None)
        v = mrn_forward(losses.data, mrn, override)
        coeff, _ = weight_coefficients(v.data)
        g = [2.0 * (float(model.params["w"].data[0]) - t) for t in batch]
        step = sum(c * gi for c, gi in zip(coeff, g))
        w_hat = {"w": Tensor(model.params["w"].data - cfg.lr * step)}
        with T.no_grad():
            meta_losses = loss_fn(meta_batch, w_hat)
        return float(np.mean(meta_losses.data))

    nums = numerical_grad(meta_loss_at, arrs)
    for n in arrs:
        # absolute floor covers entries whose true value sits below the
        # central-difference roundoff (~1e-10 for an O(1) function)
        diff = float(np.abs(analytic[n] - nums[n]).max())
        scale = float(np.abs(analytic[n]).max())
        assert diff < 1e-9 + 1e-6 * scale, (n, diff, scale)


def test_meta_gradient_matches_fd_on_a_conv_net():
    # stride-2 stage, padding 1, channel attention: the meta-gradient's
    # d_i come from the conv kernels' factors
    net, mrn, loss_fn, settings = tiny_net_setup(lr=0.5)
    state = MetaState(net.params, mrn, loss_fn, settings)
    batch, meta_batch = [0, 1, 2, 3], [4, 5, 6]

    w_hat = state.lookahead_update(batch)
    ref_net, ref_mrn, ref_loss_fn, _ = tiny_net_setup(lr=0.5)
    ref_w_hat = reference_lookahead(ref_net.params, ref_mrn, ref_loss_fn,
                                    settings, batch)[-1]
    for name, p in ref_w_hat.items():
        np.testing.assert_allclose(w_hat[name].data, p.data, rtol=1e-12,
                                   atol=1e-15)
    analytic = state.meta_gradient(meta_batch)

    losses = loss_fn(batch, None)
    g_list = batch_of_one_gradients(lambda b: loss_fn(b, None), batch, net.params)
    arrs = {n: p.data.copy() for n, p in mrn.params.items()}

    def meta_loss_at():
        override = {n: Tensor(a) for n, a in arrs.items()}
        v = mrn_forward(losses.data, mrn, override)
        coeff, _ = weight_coefficients(v.data)
        w_hat = {name: Tensor(p.data - settings.lr * sum(
                     c * g[name] for c, g in zip(coeff, g_list)))
                 for name, p in net.params.items()}
        with T.no_grad():
            return float(np.mean(loss_fn(meta_batch, w_hat).data))

    nums = numerical_grad(meta_loss_at, arrs)
    for n in arrs:
        diff = float(np.abs(analytic[n] - nums[n]).max())
        scale = float(np.abs(analytic[n]).max())
        assert scale > 1e-6, n
        assert diff < 1e-9 + 1e-6 * scale, (n, diff, scale)


def test_meta_iteration_returns_weights_and_counts():
    model = ToyModel(0.0)
    mrn = Mrn(hidden=4, rng=np.random.default_rng(9))
    state = MetaState(model.params, mrn, toy_loss_fn(model),
                      TrainSettings())
    w = state.meta_iteration([0.0, 1.0, 2.0], [0.5, 1.5])
    assert w.shape == (3,)
    assert np.all((w > 0) & (w < 1))


# ---------------------------------------------------------------------------
# the factored per-sample gradients against per-sample dict loops on a
# small network


def tiny_net_setup(lr=0.05):
    """A small AestheticNet and reweighting network, built fresh from
    fixed seeds so two calls give bitwise-equal starting points."""
    rng = np.random.default_rng(31)
    net = AestheticNet(rng, stem_channels=4, stage_channels=(4,), head_width=8)
    mrn = Mrn(hidden=6, rng=rng)
    mrn.params["mrn.w2"].data = rng.normal(size=(6, 1))
    mrn.params["mrn.b2"].data = rng.normal(size=(1,))
    images = rng.normal(size=(8, 3, 8, 8))
    labels = rng.integers(0, 10, size=8)

    def loss_fn(batch, override):
        # the class loss never reaches head.reg.*: no sample's gradient does
        return T.cross_entropy_logits(
            net.forward(Tensor(images[batch]), override), labels[batch])

    settings = TrainSettings(lr=lr, mrn_lr=0.01)
    return net, mrn, loss_fn, settings


def reached(params):
    """The parameters tiny_net_setup's class loss reaches: all but the
    regression head."""
    return {n: p for n, p in params.items() if not n.startswith("head.reg.")}


def reference_lookahead(params, mrn, loss_fn, settings, batch):
    """Stage 1 written with one gradient dict per sample, each from a
    backward of that sample alone."""
    losses = loss_fn(batch, None)
    g_list = batch_of_one_gradients(lambda b: loss_fn(b, None), batch, params)
    v = mrn_forward(losses.data, mrn)
    coeff, s = weight_coefficients(v.data)
    w_hat = {}
    for name in reached(params):
        step = np.zeros_like(params[name].data)
        for i in range(len(batch)):
            step += coeff[i] * g_list[i][name]
        w_hat[name] = Tensor(params[name].data - settings.lr * step,
                             requires_grad=True)
    return losses.data.copy(), g_list, v, coeff, s, w_hat


def reference_meta_gradient(mrn, loss_fn, settings, meta_batch, cache):
    loss_values, g_list, v, coeff, s, w_hat = cache
    T.tmean(loss_fn(meta_batch, w_hat)).backward()
    d = np.zeros(len(g_list))
    for name, p in w_hat.items():
        if p.grad is not None:
            for i in range(len(g_list)):
                d[i] += float(np.sum(g_list[i][name] * p.grad))
    big_d = float(np.sum(coeff * d))
    T.tsum(T.mul(v, Tensor(-(settings.lr / s) * (d - big_d)))).backward()
    return {n: p.grad for n, p in mrn.params.items()}


def reference_main_grads(params, mrn, settings, cache):
    loss_values, g_list = cache[:2]
    with T.no_grad():
        v_new = mrn_forward(loss_values, mrn)
    coeff, _ = weight_coefficients(v_new.data)
    grads = {}
    for name in reached(params):
        acc = np.zeros_like(params[name].data)
        for i in range(len(g_list)):
            acc += coeff[i] * g_list[i][name]
        grads[name] = acc
    return grads


def test_meta_iteration_matches_per_sample_loops():
    batch, meta_batch = [0, 1, 2, 3, 4], [5, 6, 7]
    net, mrn, loss_fn, settings = tiny_net_setup()
    state = MetaState(net.params, mrn, loss_fn, settings)
    ref_net, ref_mrn, ref_loss_fn, _ = tiny_net_setup()
    ref_params = ref_net.params

    w_hat = state.lookahead_update(batch)
    cache = reference_lookahead(ref_params, ref_mrn, ref_loss_fn, settings, batch)
    # only the summation order of sum_i c_i g_i differs
    for name, p in cache[-1].items():
        np.testing.assert_allclose(w_hat[name].data, p.data, rtol=1e-12,
                                   atol=1e-15)
    # every parameter the loss reaches keeps factors, and each sample's
    # factors rebuild its gradients
    factors = state._cache["factors"]
    assert list(factors[0]) == list(reached(net.params))
    rebuilt = gradients_from_factors(factors, net.params, len(batch))
    for mine, grads in zip(rebuilt, cache[1]):
        for name in reached(grads):
            np.testing.assert_allclose(mine[name], grads[name], rtol=1e-12, atol=0)

    state.meta_step(meta_batch)
    ref_grads = reference_meta_gradient(ref_mrn, ref_loss_fn, settings,
                                        meta_batch, cache)
    Adam(settings.mrn_lr, settings.betas, weight_decay=settings.weight_decay
         ).step(ref_mrn.params, ref_grads)
    for name, p in ref_mrn.params.items():
        # only the summation order of d_i differs
        np.testing.assert_allclose(mrn.params[name].data, p.data, rtol=1e-12)

    # the main step from the same reweighting network is the loop's, up
    # to the summation order of sum_i c_i g_i
    for name, p in mrn.params.items():
        ref_mrn.params[name].data = p.data.copy()
    state.main_step()
    Adam(settings.lr, settings.betas, weight_decay=settings.weight_decay
         ).step(ref_params, reference_main_grads(ref_params, ref_mrn, settings, cache))
    for name, p in ref_params.items():
        np.testing.assert_allclose(net.params[name].data, p.data, rtol=1e-12,
                                   atol=1e-15)


@pytest.mark.parametrize("decay", [0.0, 1e-2])
def test_neutral_mrn_is_plain_training(decay):
    # an all-zero network weighs every sample 0.5, so c_i = 1/n up to eps
    # and each iteration's main step is Adam on the mean loss; relu'(0) = 0
    # leaves w1 and b1 no gradient, so the weights stay equal throughout
    net, _, loss_fn, _ = tiny_net_setup()
    ref_net, _, ref_loss_fn, _ = tiny_net_setup()
    mrn = Mrn(hidden=6)
    settings = TrainSettings(lr=0.05, mrn_lr=0.01, weight_decay=decay)
    state = MetaState(net.params, mrn, loss_fn, settings)
    adam = Adam(settings.lr, settings.betas, weight_decay=settings.weight_decay)
    rng = np.random.default_rng(8)
    for k in range(8):
        batch = list(rng.choice(8, size=5 if k % 2 else 2, replace=False))
        weights = state.meta_iteration(batch, list(rng.choice(8, size=3)))
        assert np.all(weights == weights[0])
        for p in ref_net.params.values():
            p.zero_grad()
        T.tmean(ref_loss_fn(batch, None)).backward()
        adam.step(ref_net.params, {n: p.grad for n, p in ref_net.params.items()
                                   if p.grad is not None})
    for name in ref_net.params:
        # against the parameter's scale too: an entry that crosses zero
        # has no relative error of its own
        want = ref_net.params[name].data
        np.testing.assert_allclose(net.params[name].data, want, rtol=1e-6,
                                   atol=1e-6 * np.abs(want).max())
    for name in ("mrn.w1", "mrn.b1"):
        assert not mrn.params[name].data.any()


def test_lookahead_cache_is_small_next_to_dense_rows():
    # conv kernels hold most of P; their factors scale with the output
    # positions instead, so the cache is far below n dense rows
    rng = np.random.default_rng(33)
    net = AestheticNet(rng, stem_channels=8, stage_channels=(16, 32),
                       head_width=128)
    images = rng.normal(size=(6, 3, 8, 8))

    def loss_fn(batch, override):
        return T.cross_entropy_logits(
            net.forward(Tensor(images[batch]), override), batch)

    state = MetaState(net.params, Mrn(hidden=4), loss_fn, TrainSettings())
    n = len(images)
    state.lookahead_update(list(range(n)))
    total = sum(p.data.size for p in net.params.values())
    conv = sum(p.data.size for p in net.params.values() if p.data.ndim == 4)
    assert conv > 0.9 * total
    held = sum(a.size for part in state._cache["factors"] for a in part.values())
    assert held < n * total / 10, (held, n * total)


def test_lookahead_parameters_die_with_the_meta_step():
    # w_hat and the meta-loss gradients on its tensors are read by
    # meta_gradient alone, so the cache lets go of them at meta_step
    rng = np.random.default_rng(34)
    net = AestheticNet(rng, stem_channels=4, stage_channels=(8,),
                       head_width=16)
    images = rng.normal(size=(6, 3, 8, 8))

    def loss_fn(batch, override):
        return T.cross_entropy_logits(
            net.forward(Tensor(images[batch]), override), batch)

    state = MetaState(net.params, Mrn(hidden=4), loss_fn, TrainSettings())
    w_hat = state.lookahead_update([0, 1, 2, 3])
    refs = [weakref.ref(p.data) for p in w_hat.values()]
    assert len(refs) > 1
    del w_hat
    state.meta_step([4, 5])
    assert [ref() is None for ref in refs] == [True] * len(refs)
    state.main_step()


def test_main_step_gradient_is_one_backward_of_weighted_loss():
    batch, meta_batch = [0, 1, 2, 3, 4], [5, 6, 7]
    net, mrn, loss_fn, settings = tiny_net_setup()
    state = MetaState(net.params, mrn, loss_fn, settings)
    steps = []
    adam_step = state.adam_main.step

    def recording_step(params, grads):
        steps.append({n: g.copy() for n, g in grads.items()})
        adam_step(params, grads)

    state.adam_main.step = recording_step
    state.lookahead_update(batch)
    state.meta_step(meta_batch)
    # the oracle: one backward of sum_i c_i L_i at the unmoved main
    # parameters, c_i from the updated network on the cached losses
    with T.no_grad():
        v = mrn_forward(state.last_losses, mrn).data
    coeff, _ = weight_coefficients(v)
    ref_net, _, ref_loss_fn, _ = tiny_net_setup()
    T.tsum(T.mul(ref_loss_fn(batch, None), Tensor(coeff))).backward()
    state.main_step()
    assert len(steps) == 1
    assert list(steps[0]) == list(reached(ref_net.params))
    for name, p in reached(ref_net.params).items():
        np.testing.assert_allclose(steps[0][name], p.grad, rtol=1e-12, atol=0)


def test_meta_gradient_matches_fd_after_a_main_step():
    # the second lookahead, on another batch: one full iteration has moved
    # the main parameters and Theta, and consumed its own cache
    net, mrn, loss_fn, settings = tiny_net_setup(lr=0.5)
    state = MetaState(net.params, mrn, loss_fn, settings)
    state.meta_iteration([0, 1, 2, 3], [4, 5, 6])
    batch, meta_batch = [7, 2, 5, 0], [4, 5, 6]
    state.lookahead_update(batch)
    analytic = state.meta_gradient(meta_batch)

    losses = loss_fn(batch, None)
    g_list = batch_of_one_gradients(lambda b: loss_fn(b, None), batch, net.params)
    arrs = {n: p.data.copy() for n, p in mrn.params.items()}

    def meta_loss_at():
        override = {n: Tensor(a) for n, a in arrs.items()}
        v = mrn_forward(losses.data, mrn, override)
        coeff, _ = weight_coefficients(v.data)
        w_hat = {name: Tensor(p.data - settings.lr * sum(
                     c * g[name] for c, g in zip(coeff, g_list)))
                 for name, p in net.params.items()}
        with T.no_grad():
            return float(np.mean(loss_fn(meta_batch, w_hat).data))

    nums = numerical_grad(meta_loss_at, arrs)
    for n in arrs:
        diff = float(np.abs(analytic[n] - nums[n]).max())
        scale = float(np.abs(analytic[n]).max())
        assert scale > 1e-6, n
        assert diff < 1e-9 + 1e-6 * scale, (n, diff, scale)


def test_unreached_parameter_keeps_its_value():
    # the class loss never reaches head.reg.*: it has no factors, no
    # lookahead or main step, and weight decay does not move it either
    net, mrn, loss_fn, _ = tiny_net_setup()
    settings = TrainSettings(lr=0.05, mrn_lr=0.01, weight_decay=1e-2)
    state = MetaState(net.params, mrn, loss_fn, settings)
    unreached = ("head.reg.w", "head.reg.b")
    before = {n: p.data.copy() for n, p in net.params.items()}
    steps = []
    adam_step = state.adam_main.step

    def recording_step(params, grads):
        steps.append(set(grads))
        adam_step(params, grads)

    state.adam_main.step = recording_step
    for batch in ([0, 1, 2, 3], [7, 2, 5]):
        w_hat = state.lookahead_update(batch)
        for part in state._cache["factors"]:
            assert not set(part) & set(unreached)
        assert set(w_hat) == set(reached(net.params))
        state.meta_step([4, 5, 6])
        state.main_step()
    assert steps == [set(reached(net.params))] * 2
    for n, p in net.params.items():
        # everything the loss reaches moved; the rest is bitwise as drawn
        assert np.array_equal(p.data, before[n]) == (n in unreached), n


# ---------------------------------------------------------------------------
# segments and the balanced meta set


def test_segment_of_boundaries():
    assert segment_of(0.0) == 0
    assert segment_of(0.999) == 0
    assert segment_of(5.0) == 5
    assert segment_of(9.999) == 9
    assert segment_of(10.0) == 9
    with pytest.raises(DataError):
        segment_of(-0.1)
    with pytest.raises(DataError):
        segment_of(10.5)


class FakeSample:
    def __init__(self, sid, score):
        self.id = sid
        self.score = score


def make_pool(counts, start=0.5):
    """counts[seg] samples per segment, scores at the segment midpoints."""
    out = []
    i = 0
    for seg, n in counts.items():
        for _ in range(n):
            out.append(FakeSample(f"s{i}", seg + start))
            i += 1
    return out


def test_meta_set_balanced_when_pools_suffice():
    pool = make_pool({seg: 5 for seg in range(10)})
    chosen = build_meta_set(pool, 2, np.random.default_rng(0))
    assert len(chosen) == 20
    per_seg = {seg: 0 for seg in range(10)}
    for s in chosen:
        per_seg[segment_of(s.score)] += 1
    assert all(v == 2 for v in per_seg.values())


def test_meta_set_no_duplicates():
    pool = make_pool({seg: 3 for seg in range(10)})
    chosen = build_meta_set(pool, 3, np.random.default_rng(1))
    ids = [s.id for s in chosen]
    assert len(ids) == len(set(ids)) == 30


def test_meta_set_borrows_from_nearest_lower_first():
    counts = {seg: 4 for seg in range(10)}
    counts[3] = 0  # segment 3 empty; neighbors 2 and 4 have spares
    pool = make_pool(counts)
    chosen = build_meta_set(pool, 2, np.random.default_rng(2))
    assert len(chosen) == 20
    segs = [segment_of(s.score) for s in chosen]
    # segment 3's two replacements came from distance 1: the lower neighbor
    # is asked first and has enough spare, so both land in segment 2
    assert segs.count(2) == 4
    assert segs.count(3) == 0
    assert segs.count(4) == 2


def test_meta_set_borrow_walks_outward():
    counts = {seg: 2 for seg in range(10)}
    counts[5] = 0
    counts[4] = 2   # fully claimed by segment 4 itself
    counts[6] = 3   # one spare at distance 1
    counts[3] = 9   # plenty at distance 2
    pool = make_pool(counts)
    chosen = build_meta_set(pool, 2, np.random.default_rng(3))
    segs = [segment_of(s.score) for s in chosen]
    assert len(chosen) == 20
    assert segs.count(5) == 0
    assert segs.count(6) == 3    # own 2 plus 1 lent to segment 5
    assert segs.count(3) == 3    # own 2 plus 1 more at distance 2
    assert segs.count(4) == 2


def test_meta_set_small_dataset_returned_whole_with_warning():
    pool = make_pool({seg: 1 for seg in range(5)})
    with pytest.warns(UserWarning):
        chosen = build_meta_set(pool, 2, np.random.default_rng(4))
    assert len(chosen) == 5


def test_meta_set_deterministic_under_seed():
    pool = make_pool({seg: 6 for seg in range(10)})
    a = build_meta_set(pool, 2, np.random.default_rng(11))
    b = build_meta_set(pool, 2, np.random.default_rng(11))
    assert [s.id for s in a] == [s.id for s in b]


def test_meta_set_quota_validation():
    pool = make_pool({seg: 3 for seg in range(10)})
    with pytest.raises(ParameterError):
        build_meta_set(pool, 0, np.random.default_rng(6))
