"""Evaluation metrics: mse, mae, rank correlation, threshold accuracy,
within-one-point accuracy, and the per-segment correctness table."""

from dataclasses import dataclass

import numpy as np

from .data import THRESHOLD, segment_of
from .errors import DataError, warn


def _pair(pred, truth):
    p = np.asarray(pred, dtype=np.float64).reshape(-1)
    t = np.asarray(truth, dtype=np.float64).reshape(-1)
    if p.size == 0:
        raise DataError("empty metric input")
    if p.shape != t.shape:
        raise DataError(f"length mismatch: {p.size} vs {t.size}")
    if not (np.all(np.isfinite(p)) and np.all(np.isfinite(t))):
        raise DataError("non-finite metric input")
    return p, t


def mse(pred, truth) -> float:
    p, t = _pair(pred, truth)
    return float(np.mean((p - t) ** 2))


def mae(pred, truth) -> float:
    p, t = _pair(pred, truth)
    return float(np.mean(np.abs(p - t)))


def ranks(values) -> np.ndarray:
    """1-based ranks with tied values sharing their average rank."""
    x = np.asarray(values, dtype=np.float64).reshape(-1)
    _, group, counts = np.unique(x, return_inverse=True, return_counts=True)
    # a group of k ties ending at rank r holds ranks r-k+1 .. r
    return (np.cumsum(counts) - (counts - 1) / 2.0)[group]


def srocc(pred, truth) -> float:
    """Spearman rank correlation: the Pearson correlation of the rank
    vectors, tied values sharing their average rank. A constant input has
    no defined rank order, so the result is reported as 0 with a warning.
    """
    p, t = _pair(pred, truth)
    if p.size < 2:
        raise DataError("rank correlation needs at least two samples")
    if np.all(p == p[0]) or np.all(t == t[0]):
        warn("rank correlation undefined for a constant vector; reporting 0")
        return 0.0
    rp, rt = ranks(p), ranks(t)
    rp = rp - rp.mean()
    rt = rt - rt.mean()
    return float(np.sum(rp * rt) / np.sqrt(np.sum(rp * rp) * np.sum(rt * rt)))


def accuracy(pred, truth) -> float:
    """Agreement of the two vectors binarized at the quality threshold."""
    p, t = _pair(pred, truth)
    return float(np.mean((p >= THRESHOLD) == (t >= THRESHOLD)))


def accuracy_within_1(pred, truth) -> float:
    """Fraction of predictions within one point of the truth, inclusive."""
    p, t = _pair(pred, truth)
    return float(np.mean(np.abs(p - t) <= 1.0))


@dataclass
class SegmentRow:
    segment: str           # e.g. "3.0-4.0"
    count: int
    correct_rate: float    # None when the segment holds no samples
    error_rate: float


def segment_report(pred_labels, truth_scores):
    """Ten rows of binary-classification correctness by score segment.

    Segments are [0,1), [1,2), ..., [9,10] (data.segment_of). Correctness
    compares the binary prediction against the threshold label of the
    true score.
    """
    labels = np.asarray(pred_labels, dtype=np.int64).reshape(-1)
    scores = np.asarray(truth_scores, dtype=np.float64).reshape(-1)
    if labels.shape != scores.shape:
        raise DataError(f"length mismatch: {labels.size} vs {scores.size}")
    seg_idx = segment_of(scores)
    truth_labels = (scores >= THRESHOLD).astype(np.int64)
    rows = []
    for seg in range(10):
        mask = seg_idx == seg
        count = int(mask.sum())
        if count == 0:
            rows.append(SegmentRow(f"{seg}.0-{seg + 1}.0", 0, None, None))
            continue
        correct = float(np.mean(labels[mask] == truth_labels[mask]))
        rows.append(SegmentRow(f"{seg}.0-{seg + 1}.0", count, correct, 1.0 - correct))
    return rows


@dataclass
class MetricsReport:
    mse: float
    mae: float
    srocc: float
    accuracy: float
    accuracy_err_le_1: float
    n: int


def evaluate_scores(pred, truth) -> MetricsReport:
    """Full report for continuous score predictions against true scores."""
    p, t = _pair(pred, truth)
    return MetricsReport(
        mse=mse(p, t),
        mae=mae(p, t),
        srocc=srocc(p, t),
        accuracy=accuracy(p, t),
        accuracy_err_le_1=accuracy_within_1(p, t),
        n=int(p.size),
    )


# a predictor spreading its scores less than this fraction of the truth's
# spread has collapsed: its metrics score a near-constant, not a model
MIN_SPREAD_RATIO = 0.2


def collapse_warnings(pred, truth) -> list:
    """One message per sign that a predictor collapsed, empty when none
    shows."""
    p, t = _pair(pred, truth)
    found = []
    pred_std, truth_std = float(np.std(p)), float(np.std(t))
    if pred_std < MIN_SPREAD_RATIO * truth_std:
        found.append(f"predictions barely spread: std {pred_std:.4g} is "
                     f"{pred_std / truth_std:.3f} of the truth std "
                     f"{truth_std:.4g}")
    return found
