"""Bilevel reweighting: coefficient algebra, the three-stage state
machine, exact meta-gradients against finite differences, the frozen-
baseline reduction, and balanced meta-set construction."""

import numpy as np
import pytest

from amcr import tensor as T
from amcr.blocks import Mrn, mrn_forward
from amcr.errors import DataError, ParameterError, StateError
from amcr.meta import (EPS_NORMALIZE, MetaConfig, MetaState, build_meta_set,
                       segment_of, weight_coefficients, weighted_loss)
from amcr.optim import Adam
from amcr.tensor import Tensor

from helpers import numerical_grad, rel_err


# ---------------------------------------------------------------------------
# a one-parameter quadratic model: loss_i = (w - t_i)^2, grad_i = 2(w - t_i)


class ToyModel:
    def __init__(self, w0: float):
        self.params = {"w": Tensor(np.array([w0]), requires_grad=True)}


def toy_loss_fn(model: ToyModel):
    def loss_fn(batch, params):
        p = model.params if params is None else {**model.params, **params}
        w = T.reshape(p["w"], ())
        per = []
        for t in batch:
            d = T.sub(w, T.as_tensor(float(t)))
            per.append(T.mul(d, d))
        return T.stack(per)
    return loss_fn


# ---------------------------------------------------------------------------
# coefficient algebra


def test_weight_coefficients_plain():
    c, s = weight_coefficients(np.array([1.0, 3.0]), normalize=False)
    np.testing.assert_allclose(c, [0.5, 1.5])
    assert s == 2.0


def test_weight_coefficients_normalized():
    v = np.array([1.0, 3.0])
    c, s = weight_coefficients(v, normalize=True)
    assert s == pytest.approx(4.0 + EPS_NORMALIZE)
    np.testing.assert_allclose(c, v / s)
    assert c.sum() == pytest.approx(1.0, abs=1e-8)


def test_weight_coefficients_zero_weights_warn():
    with pytest.warns(UserWarning):
        c, _ = weight_coefficients(np.zeros(3), normalize=True)
    np.testing.assert_array_equal(c, 0.0)


def test_weighted_loss_uniform_weights_is_mean():
    losses = Tensor(np.array([2.0, 4.0, 6.0]))
    out = weighted_loss(losses, np.ones(3), normalize=False)
    assert float(out.data) == pytest.approx(4.0)
    out_n = weighted_loss(losses, np.ones(3), normalize=True)
    assert float(out_n.data) == pytest.approx(12.0 / (3.0 + EPS_NORMALIZE))


def test_weighted_loss_gradient_through_losses():
    losses = Tensor(np.array([1.0, 2.0]), requires_grad=True)
    out = weighted_loss(losses, np.array([0.25, 0.75]), normalize=False)
    out.backward()
    np.testing.assert_allclose(losses.grad, [0.125, 0.375])


def test_weighted_loss_shape_check():
    with pytest.raises(Exception):
        weighted_loss(Tensor(np.zeros(3)), np.zeros(4), False)


def test_meta_config_validation():
    with pytest.raises(ParameterError):
        MetaConfig(alpha=0.0)
    with pytest.raises(ParameterError):
        MetaConfig(beta=-1.0)


# ---------------------------------------------------------------------------
# stage 1: lookahead closed form


def test_lookahead_matches_closed_form():
    model = ToyModel(2.0)
    mrn = Mrn(hidden=4)  # all zero: every weight 0.5
    cfg = MetaConfig(alpha=0.1, beta=0.01, normalize_weights=False,
                     weight_decay=0.0)
    state = MetaState(model.params, mrn, toy_loss_fn(model), cfg)
    batch = [0.0, 1.0, 5.0]
    w_hat = state.lookahead_update(batch)
    # g_i = 2(2 - t_i) = [4, 2, -6]; c_i = 0.5/3; step = sum c_i g_i = 0
    g = [2.0 * (2.0 - t) for t in batch]
    want = 2.0 - 0.1 * sum(0.5 / 3.0 * gi for gi in g)
    assert float(w_hat["w"].data[0]) == pytest.approx(want, abs=1e-15)
    # the live parameter is untouched
    assert float(model.params["w"].data[0]) == 2.0


def test_lookahead_normalized_coefficients():
    model = ToyModel(1.0)
    mrn = Mrn(hidden=4)
    cfg = MetaConfig(alpha=0.2, normalize_weights=True, weight_decay=0.0)
    state = MetaState(model.params, mrn, toy_loss_fn(model), cfg)
    w_hat = state.lookahead_update([0.0, 3.0])
    # v = (0.5, 0.5): normalized c_i = 0.5/(1+eps); g = [2, -4]
    s = 1.0 + EPS_NORMALIZE
    want = 1.0 - 0.2 * (0.5 / s * 2.0 + 0.5 / s * -4.0)
    assert float(w_hat["w"].data[0]) == pytest.approx(want, abs=1e-12)


def test_lookahead_records_last_losses():
    model = ToyModel(2.0)
    state = MetaState(model.params, Mrn(hidden=4), toy_loss_fn(model),
                      MetaConfig())
    assert state.last_losses.shape == (0,)
    state.lookahead_update([0.0, 1.0, 5.0])
    np.testing.assert_array_equal(state.last_losses, [4.0, 1.0, 9.0])


def test_lookahead_rejects_empty_batch():
    model = ToyModel(0.0)
    state = MetaState(model.params, Mrn(hidden=2), toy_loss_fn(model), MetaConfig())
    with pytest.raises(DataError):
        state.lookahead_update([])


def test_state_machine_order_enforced():
    model = ToyModel(0.5)
    state = MetaState(model.params, Mrn(hidden=2), toy_loss_fn(model),
                      MetaConfig())
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


def test_unknown_trainable_names_rejected():
    model = ToyModel(0.0)
    with pytest.raises(ParameterError):
        MetaState(model.params, Mrn(hidden=2), toy_loss_fn(model), MetaConfig(),
                  trainable=["w", "ghost"])


# ---------------------------------------------------------------------------
# stage 2: exact meta-gradient vs finite differences


@pytest.mark.parametrize("normalize", [False, True])
def test_meta_gradient_matches_fd(normalize):
    rng = np.random.default_rng(42 if normalize else 24)
    model = ToyModel(1.5)
    mrn = Mrn(hidden=8, rng=rng)
    # nonzero output layer so dv/dTheta is nontrivial everywhere; the large
    # alpha keeps gradient entries well above finite-difference roundoff
    mrn.params["mrn.w2"].data = rng.normal(scale=1.0, size=(8, 1))
    mrn.params["mrn.b2"].data = rng.normal(scale=1.0, size=(1,))
    cfg = MetaConfig(alpha=0.5, beta=0.01, normalize_weights=normalize,
                     weight_decay=0.0)
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
        coeff, _ = weight_coefficients(v.data, normalize)
        g = [2.0 * (float(model.params["w"].data[0]) - t) for t in batch]
        step = sum(c * gi for c, gi in zip(coeff, g))
        w_hat = {"w": Tensor(model.params["w"].data - cfg.alpha * step)}
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


def test_meta_step_skipped_when_frozen():
    rng = np.random.default_rng(7)
    model = ToyModel(0.8)
    mrn = Mrn(hidden=4, rng=rng)
    state = MetaState(model.params, mrn, toy_loss_fn(model),
                      MetaConfig(), freeze_mrn=True)
    before = {n: p.data.copy() for n, p in mrn.params.items()}
    state.lookahead_update([0.0, 2.0])
    state.meta_step([1.0, 1.0])
    state.main_step()
    for n, v in before.items():
        np.testing.assert_array_equal(mrn.params[n].data, v)
    assert state.adam_mrn.t == 0  # moments never engaged


def test_meta_iteration_returns_weights_and_counts():
    model = ToyModel(0.0)
    mrn = Mrn(hidden=4, rng=np.random.default_rng(9))
    state = MetaState(model.params, mrn, toy_loss_fn(model),
                      MetaConfig())
    w = state.meta_iteration([0.0, 1.0, 2.0], [0.5, 1.5])
    assert w.shape == (3,)
    assert np.all((w > 0) & (w < 1))
    assert state.t == 1


# ---------------------------------------------------------------------------
# reduction: frozen zero Theta + plain mode == Adam on the half-scaled loss


def test_reduction_to_half_weighted_adam():
    cfg = MetaConfig(alpha=0.03, normalize_weights=False, weight_decay=1e-4)
    model = ToyModel(3.0)
    state = MetaState(model.params, Mrn(hidden=4), toy_loss_fn(model), cfg,
                      freeze_mrn=True)
    ref = Tensor(np.array([3.0]), requires_grad=True)
    ref_opt = Adam(cfg.alpha, cfg.betas, cfg.eps, cfg.weight_decay)
    rng = np.random.default_rng(3)
    for _ in range(10):
        batch = list(rng.uniform(0.0, 6.0, 4))
        state.meta_iteration(batch, [1.0, 2.0])
        # same accumulation order as the weighted update: c_i = 0.5/n
        acc = np.zeros(1)
        for t in batch:
            acc += (0.5 / 4.0) * np.array([2.0 * (float(ref.data[0]) - t)])
        ref_opt.step({"w": ref}, {"w": acc})
        assert float(model.params["w"].data[0]) == float(ref.data[0])  # bitwise


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
