"""Metric suite checked against brute-force references and scipy."""

import numpy as np
import pytest
from scipy import stats

from amcr.errors import DataError
from amcr.metrics import (THRESHOLD, MetricsReport, accuracy, accuracy_within_1,
                          collapse_warnings, evaluate_scores, mae, mse, ranks,
                          segment_report, srocc)


def test_mse_mae_brute_force_loop():
    rng = np.random.default_rng(0)
    for _ in range(200):
        n = int(rng.integers(1, 40))
        p = rng.normal(5, 3, n)
        t = rng.normal(5, 3, n)
        want_mse = sum((a - b) ** 2 for a, b in zip(p, t)) / n
        want_mae = sum(abs(a - b) for a, b in zip(p, t)) / n
        assert abs(mse(p, t) - want_mse) < 1e-12
        assert abs(mae(p, t) - want_mae) < 1e-12


def test_ranks_no_ties_is_argsort_of_argsort():
    rng = np.random.default_rng(1)
    x = rng.permutation(20).astype(float)
    want = np.argsort(np.argsort(x)) + 1
    np.testing.assert_allclose(ranks(x), want)


def test_ranks_ties_average():
    np.testing.assert_allclose(ranks([10.0, 20.0, 20.0, 30.0]), [1, 2.5, 2.5, 4])
    np.testing.assert_allclose(ranks([5.0, 5.0, 5.0]), [2, 2, 2])
    np.testing.assert_allclose(ranks([2.0, 1.0, 2.0, 1.0]), [3.5, 1.5, 3.5, 1.5])


def test_srocc_hand_case():
    # rank vectors (1,2,3,4) and (1,3,2,4): two pairs differ by one place,
    # 1 - 6*2/(64-4) = 0.8
    assert abs(srocc([1, 2, 3, 4], [1, 3, 2, 4]) - 0.8) < 1e-15


def test_srocc_perfect_and_reversed():
    assert abs(srocc([1, 2, 3, 4, 5], [10, 20, 30, 40, 50]) - 1.0) < 1e-15
    assert abs(srocc([1, 2, 3, 4, 5], [50, 40, 30, 20, 10]) + 1.0) < 1e-15


def test_srocc_matches_scipy_no_ties():
    rng = np.random.default_rng(2)
    for _ in range(100):
        n = int(rng.integers(2, 30))
        p = rng.permutation(n) + rng.uniform(0, 0.4, n)  # distinct values
        t = rng.normal(size=n)
        want = stats.spearmanr(p, t).statistic
        assert abs(srocc(p, t) - want) < 1e-12


def test_srocc_matches_closed_form_without_ties():
    # without ties Spearman's rho is 1 - 6*sum(d^2)/(n^3 - n) over the
    # rank differences d
    rng = np.random.default_rng(4)
    for _ in range(100):
        n = int(rng.integers(2, 40))
        p, t = rng.normal(size=n), rng.normal(size=n)
        d = np.argsort(np.argsort(p)) - np.argsort(np.argsort(t))
        want = 1.0 - 6.0 * np.sum(d * d) / (n ** 3 - n)
        assert abs(srocc(p, t) - want) < 1e-12


def test_srocc_matches_scipy_with_ties():
    rng = np.random.default_rng(3)
    for _ in range(100):
        n = int(rng.integers(3, 30))
        p = rng.integers(0, 5, n).astype(float)   # heavy ties
        t = rng.integers(0, 5, n).astype(float)
        if np.all(p == p[0]) or np.all(t == t[0]):
            continue
        want = stats.spearmanr(p, t).statistic
        assert abs(srocc(p, t) - want) < 1e-12


def test_srocc_invariant_under_monotone_transform():
    rng = np.random.default_rng(4)
    p = rng.normal(size=25)
    t = rng.normal(size=25)
    base = srocc(p, t)
    assert abs(srocc(np.exp(p), t) - base) < 1e-12
    assert abs(srocc(p, 3.0 * t + 7.0) - base) < 1e-12
    assert abs(srocc(np.tanh(p), np.expm1(t)) - base) < 1e-12


def test_srocc_constant_vector_warns_and_returns_zero():
    with pytest.warns(UserWarning):
        assert srocc([2.0, 2.0, 2.0], [1.0, 2.0, 3.0]) == 0.0
    with pytest.warns(UserWarning):
        assert srocc([1.0, 2.0, 3.0], [4.0, 4.0, 4.0]) == 0.0


def test_srocc_needs_two_samples():
    with pytest.raises(DataError):
        srocc([1.0], [2.0])


def test_accuracy_threshold_boundary():
    # the threshold itself counts as the positive side on both vectors
    assert accuracy([THRESHOLD], [THRESHOLD]) == 1.0
    assert accuracy([4.999], [5.0]) == 0.0
    assert accuracy([0.0, 9.0, 5.0, 4.0], [1.0, 8.0, 6.0, 3.0]) == 1.0


def test_accuracy_within_1_inclusive_boundary():
    assert accuracy_within_1([4.0], [5.0]) == 1.0
    assert accuracy_within_1([4.0], [5.0 + 1e-9]) == 0.0
    assert accuracy_within_1([1.0, 2.0, 3.0], [1.5, 4.0, 3.0]) == pytest.approx(2 / 3)


def test_accuracy_brute_force_random():
    rng = np.random.default_rng(5)
    for _ in range(100):
        n = int(rng.integers(1, 50))
        p = rng.uniform(0, 10, n)
        t = rng.uniform(0, 10, n)
        want_acc = np.mean([(a >= 5.0) == (b >= 5.0) for a, b in zip(p, t)])
        want_w1 = np.mean([abs(a - b) <= 1.0 for a, b in zip(p, t)])
        assert abs(accuracy(p, t) - want_acc) < 1e-12
        assert abs(accuracy_within_1(p, t) - want_w1) < 1e-12


def test_metric_input_validation():
    with pytest.raises(DataError):
        mse([], [])
    with pytest.raises(DataError):
        mae([1.0, 2.0], [1.0])
    with pytest.raises(DataError):
        mse([np.nan], [1.0])
    with pytest.raises(DataError):
        accuracy([1.0], [np.inf])


# ---------------------------------------------------------------------------
# segment report


def test_segment_report_hand_case():
    scores = [0.5, 3.2, 3.9, 5.5, 9.1, 10.0]
    labels = [0, 0, 1, 1, 0, 1]  # wrong on 3.9 (truth 0) and 9.1 (truth 1)
    rows = segment_report(labels, scores)
    assert len(rows) == 10
    assert [r.segment for r in rows][:2] == ["0.0-1.0", "1.0-2.0"]
    assert rows[0].count == 1 and rows[0].correct_rate == 1.0
    assert rows[3].count == 2 and rows[3].correct_rate == 0.5
    assert rows[5].count == 1 and rows[5].correct_rate == 1.0
    assert rows[9].count == 2  # 9.1 and the top score 10.0 share the last bin
    assert rows[9].correct_rate == 0.5 and rows[9].error_rate == 0.5


def test_segment_report_empty_segment_has_none_rates():
    rows = segment_report([1], [7.5])
    empty = [r for r in rows if r.count == 0]
    assert len(empty) == 9
    assert all(r.correct_rate is None and r.error_rate is None for r in empty)


def test_segment_report_counts_partition_input():
    rng = np.random.default_rng(6)
    scores = rng.uniform(0, 10, 500)
    labels = rng.integers(0, 2, 500)
    rows = segment_report(labels, scores)
    assert sum(r.count for r in rows) == 500


def test_segment_report_rejects_nan_score():
    # a NaN score belongs to no segment
    with pytest.raises(DataError, match="score nan outside"):
        segment_report([0, 1], [5.0, np.nan])


def test_segment_report_rejects_out_of_range():
    with pytest.raises(DataError):
        segment_report([0], [10.5])
    with pytest.raises(DataError):
        segment_report([0], [-0.1])
    with pytest.raises(DataError):
        segment_report([0, 1], [5.0])


# ---------------------------------------------------------------------------
# full report


def test_evaluate_scores_perfect_prediction():
    t = np.array([1.0, 3.5, 6.0, 8.2, 9.9])
    rep = evaluate_scores(t, t)
    assert isinstance(rep, MetricsReport)
    assert rep.mse == 0.0 and rep.mae == 0.0
    assert rep.srocc == 1.0
    assert rep.accuracy == 1.0 and rep.accuracy_err_le_1 == 1.0
    assert rep.n == 5


def test_evaluate_scores_fields_consistent():
    rng = np.random.default_rng(7)
    t = rng.uniform(0, 10, 80)
    p = np.clip(t + rng.normal(0, 2, 80), 0, 10)
    rep = evaluate_scores(p, t)
    assert abs(rep.mse - mse(p, t)) < 1e-15
    assert abs(rep.srocc - srocc(p, t)) < 1e-15
    assert 0.0 <= rep.accuracy <= 1.0
    assert -1.0 <= rep.srocc <= 1.0
    assert rep.mse >= 0.0 and rep.mae >= 0.0


def test_collapse_warnings_flag_constant_predictor():
    truth = np.linspace(1.0, 9.0, 40)
    constant = collapse_warnings(np.full(40, 5.0), truth)
    assert len(constant) == 1 and "barely spread" in constant[0]
    # spread just under and over a fifth of the truth's
    centred = truth - truth.mean()
    assert collapse_warnings(5.0 + 0.19 * centred, truth)
    assert collapse_warnings(5.0 + 0.21 * centred, truth) == []
    assert collapse_warnings(truth[::-1], truth) == []
