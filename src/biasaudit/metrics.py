"""Classification metrics for binary risk scores.

All functions take plain label/score sequences so they can run on any slice
of a cohort.  Where a metric has no defined value (a subgroup with one class,
a zero denominator) the convention is: ratio fields inside result objects are
``None``, while the scalar entry points ``auroc`` and ``youden_threshold``
raise ``UndefinedMetricError`` so callers decide whether skipping is
acceptable.

One count kernel computes every AUROC, Youden threshold and confusion count
in the package.  ``np.unique`` finds a sample's distinct scores (its grid)
and each record's rank on it once; one ``bincount`` over (level, label,
rank) then gives the positives and negatives per level at each distinct
score.  The rule ``score >= t`` predicts positive for the ranks from
``searchsorted(grid, t)`` up, so tp and fp are sums over a rank suffix and
tn and fn the per-level totals less them.  The Youden threshold maximizes the
integer ``tp*N + tn*P`` over the scores present, the smallest winning a tie.
At cut c that integer is ``P*N + sum_{k<c} (neg[k]*P - pos[k]*N)``, so one
prefix sum of the per-score gain scores every cut; a score absent from the
table has the same value as the next present one, to which a winning absent
cut is advanced.  AUROC is the Mann-Whitney U over P*N, the doubled U being
``sum(pos * (2*neg_below + neg_at))``.  Counts, the doubled U and ``tp*N +
tn*P`` are exact integers below 2**53 for any sample under 9e7 records, so
every metric is one correctly rounded division of exact values.  A
sequential scan (``cumsum``) costs about ten times an elementwise pass, so a
replicate makes one for the threshold and one per level row for AUROC.  A
bootstrap replicate gathers precomputed per-record keys and counts them
again; it sorts nothing.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import UndefinedMetricError

METRICS = ("PPV", "SENS", "SPEC", "FNR", "FPR", "AUROC")
_THRESHOLD_METRICS = ("PPV", "SENS", "SPEC", "FNR", "FPR")


@dataclass(frozen=True)
class ConfusionCounts:
    tp: int
    fp: int
    tn: int
    fn: int

    def __post_init__(self):
        for name in ("tp", "fp", "tn", "fn"):
            value = getattr(self, name)
            if not isinstance(value, (int, np.integer)) or value < 0:
                raise ValueError(f"{name} must be a non-negative integer, got {value!r}")
            object.__setattr__(self, name, int(value))

    @property
    def total(self) -> int:
        return self.tp + self.fp + self.tn + self.fn

    @property
    def positives(self) -> int:
        return self.tp + self.fn

    @property
    def negatives(self) -> int:
        return self.tn + self.fp


@dataclass(frozen=True)
class ThresholdMetrics:
    """Ratio metrics at a fixed decision threshold; None where undefined."""

    threshold: float
    ppv: float | None
    sensitivity: float | None
    specificity: float | None
    fnr: float | None
    fpr: float | None


@dataclass(frozen=True)
class CalibrationBin:
    mean_score: float
    positive_fraction: float
    count: int


@dataclass(frozen=True)
class CalibrationCurve:
    """Equal-width reliability bins over [0, 1]; empty bins are dropped."""

    bins: tuple[CalibrationBin, ...]
    n_bins: int


def _validate(labels, scores) -> tuple[np.ndarray, np.ndarray]:
    y = np.asarray(labels)
    s = np.asarray(scores, dtype=float)
    if y.ndim != 1 or s.ndim != 1 or y.shape != s.shape:
        raise ValueError(f"labels and scores must be equal-length 1-d, got {y.shape} and {s.shape}")
    if y.size == 0:
        raise ValueError("empty input")
    if not np.all((y == 0) | (y == 1)):
        raise ValueError("labels must be 0 or 1")
    if not np.all(np.isfinite(s)):
        raise ValueError("scores must be finite")
    return y.astype(np.int64), s


def _tabulate(labels: np.ndarray, scores: np.ndarray, codes, n_levels: int) -> tuple[np.ndarray, np.ndarray]:
    """The score grid of a sample and its count table (see ``_count_table``)."""
    grid, ranks = np.unique(scores, return_inverse=True)
    return grid, _count_table(_count_keys(ranks, labels, codes, grid.size), n_levels, grid.size)


def _count_keys(ranks: np.ndarray, labels: np.ndarray, codes, n_grid: int) -> np.ndarray:
    """Per-record bincount keys ``((code + 1) * 2 + label) * n_grid + rank``.

    ``codes`` are level codes in ``range(n_levels)``, or -1 for a record in
    no level; a scalar code puts every record in that level.
    """
    return ((np.asarray(codes, dtype=np.int64) + 1) * 2 + labels) * n_grid + ranks


def _count_table(keys: np.ndarray, n_levels: int, n_grid: int) -> np.ndarray:
    """Counts of ``keys`` shaped (n_levels + 1, 2, n_grid): [code + 1, label, rank].

    Row 0 holds the records with code -1, so ``table[1:]`` is the per-level
    table and ``table.sum(0)`` the pooled one.
    """
    return np.bincount(keys, minlength=(n_levels + 1) * 2 * n_grid).reshape(n_levels + 1, 2, n_grid)


def _youden_cut(pooled: np.ndarray) -> int | None:
    """Grid index of the Youden threshold of a pooled (2, n_grid) table.

    Only scores present in the table are candidates; None on one class.
    J = tp/P + tn/N - 1, and maximizing the integer ``tp*N + tn*P`` instead
    makes the tie toward the smallest threshold exact.  At cut c that integer
    is ``P*N + sum_{k<c} gain[k]`` with ``gain = neg*P - pos*N``, so the
    first maximum of the exclusive prefix sum of ``gain`` (0 at cut 0) is the
    smallest winning cut.  A cut at an absent score counts the same records
    as the cut at the next present score, so it ties with that score, and a
    winning absent cut advances to it.  Every partial sum lies within
    [-P*N, P*N].
    """
    neg, pos = pooled
    n_neg, n_pos = int(neg.sum()), int(pos.sum())
    if n_neg == 0 or n_pos == 0:
        return None
    gain = neg * n_pos
    gain -= pos * n_neg
    value = np.empty_like(gain)  # value[c] = tp*N + tn*P at cut c, less P*N
    value[0] = 0
    np.cumsum(gain[:-1], out=value[1:])
    cut = int(np.argmax(value))
    while neg[cut] == 0 and pos[cut] == 0:
        cut += 1
    return cut


def _level_counts(table: np.ndarray) -> tuple[np.ndarray, ...]:
    """(neg, pos, n_neg, n_pos) of a (n_levels, 2, n_grid) table: the count
    rows per level and their per-level totals."""
    neg, pos = table[:, 0], table[:, 1]
    return neg, pos, neg.sum(axis=1), pos.sum(axis=1)


def _confusion_at(counts: tuple[np.ndarray, ...], cut: int) -> tuple[np.ndarray, ...]:
    """Per-level (tp, fp, tn, fn) at ``cut`` from ``_level_counts``."""
    neg, pos, n_neg, n_pos = counts
    tp = pos[:, cut:].sum(axis=1)
    fp = neg[:, cut:].sum(axis=1)
    return tp, fp, n_neg - fp, n_pos - tp


def _ratio_terms(tp, fp, tn, fn) -> dict:
    """(numerator, denominator) of each ratio metric; a zero denominator
    leaves the metric undefined."""
    return {
        "PPV": (tp, tp + fp),
        "SENS": (tp, tp + fn),
        "SPEC": (tn, tn + fp),
        "FNR": (fn, tp + fn),
        "FPR": (fp, tn + fp),
    }


def _metric_table(table: np.ndarray, metrics: tuple[str, ...], cut: int | None) -> np.ndarray:
    """Metric values per level of a (n_levels, 2, n_grid) count table.

    Shape (n_levels, len(metrics)), nan where undefined.  Threshold metrics
    need ``cut`` (None leaves them nan).
    """
    out = np.full((table.shape[0], len(metrics)), np.nan)
    counts = _level_counts(table)
    terms = {} if cut is None else _ratio_terms(*_confusion_at(counts, cut))
    if "AUROC" in metrics:
        neg, pos, n_neg, n_pos = counts
        # weight = 2*cumsum(neg) - neg = 2*neg_below + neg_at, built in place;
        # contracting pos with it gives the doubled U.
        weight = np.cumsum(neg, axis=1)
        weight += weight
        weight -= neg
        terms["AUROC"] = (np.einsum("lg,lg->l", pos, weight) / 2.0, n_pos * n_neg)
    for j, m in enumerate(metrics):
        if m in terms:
            num, den = terms[m]
            np.divide(num, den, out=out[:, j], where=den > 0)
    return out


def confusion(labels, scores, threshold: float) -> ConfusionCounts:
    """Count outcomes of the decision rule ``score >= threshold``."""
    grid, table = _tabulate(*_validate(labels, scores), 0, 1)
    cut = np.searchsorted(grid, threshold)
    tp, fp, tn, fn = (int(c[0]) for c in _confusion_at(_level_counts(table[1:]), cut))
    return ConfusionCounts(tp=tp, fp=fp, tn=tn, fn=fn)


def threshold_metrics(counts: ConfusionCounts, threshold: float = float("nan")) -> ThresholdMetrics:
    """Derive ratio metrics from confusion counts.

    ppv = tp/(tp+fp), sensitivity = tp/(tp+fn), specificity = tn/(tn+fp),
    fnr = fn/(tp+fn), fpr = fp/(tn+fp).  A zero denominator yields None for
    that field only; sensitivity + fnr = 1 and specificity + fpr = 1 hold to
    float rounding whenever both terms are defined (shared denominators).
    """
    terms = _ratio_terms(counts.tp, counts.fp, counts.tn, counts.fn)
    r = {m: None if den == 0 else num / den for m, (num, den) in terms.items()}
    return ThresholdMetrics(
        threshold=threshold, ppv=r["PPV"], sensitivity=r["SENS"],
        specificity=r["SPEC"], fnr=r["FNR"], fpr=r["FPR"],
    )


def auroc(labels, scores) -> float:
    """Area under the ROC curve: P(score_pos > score_neg) + 0.5 P(tie).

    The Mann-Whitney U over P*N, which is exactly the average over all
    positive/negative pairs.  Raises UndefinedMetricError when only one class
    is present; callers auditing subgroups catch this and record the skip.
    """
    _, table = _tabulate(*_validate(labels, scores), 0, 1)
    value = _metric_table(table[1:], ("AUROC",), None)[0, 0]
    if np.isnan(value):
        raise UndefinedMetricError("AUROC undefined: labels contain a single class")
    return float(value)


def youden_threshold(labels, scores) -> float:
    """Threshold maximizing Youden's J = sensitivity + specificity - 1.

    Candidates are the distinct observed scores (the decision rule is
    ``score >= t``, so other cut points change nothing); among maximizers the
    smallest threshold wins.  Raises UndefinedMetricError on single-class
    input.
    """
    grid, table = _tabulate(*_validate(labels, scores), 0, 1)
    cut = _youden_cut(table[1])
    if cut is None:
        raise UndefinedMetricError("Youden threshold undefined: labels contain a single class")
    return float(grid[cut])


def calibration_curve(labels, scores, n_bins: int = 10) -> CalibrationCurve:
    """Reliability curve over equal-width score bins on [0, 1].

    Each non-empty bin reports its mean score, observed positive fraction,
    and member count; empty bins are dropped rather than zero-filled.  A
    score of exactly 1.0 lands in the last bin.  Requires n_bins >= 2: one
    bin cannot show miscalibration, so asking for it is a caller bug.
    """
    y, s = _validate(labels, scores)
    if n_bins < 2:
        raise ValueError(f"n_bins must be >= 2, got {n_bins}")
    if np.any(s < 0) or np.any(s > 1):
        raise ValueError("calibration expects scores in [0, 1]")
    idx = np.minimum((s * n_bins).astype(int), n_bins - 1)
    bins = []
    for b in np.unique(idx).tolist():
        mask = idx == b
        count = int(np.sum(mask))
        bins.append(
            CalibrationBin(
                mean_score=float(np.mean(s[mask])),
                positive_fraction=float(np.mean(y[mask])),
                count=count,
            )
        )
    return CalibrationCurve(bins=tuple(bins), n_bins=n_bins)
