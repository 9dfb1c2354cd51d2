"""Classification metrics for binary risk scores.

All functions take plain label/score sequences so they can run on any slice
of a cohort.  Where a metric has no defined value (a subgroup with one class,
a zero denominator) the convention is: ratio fields inside result objects are
``None``, while the scalar entry points ``auroc`` and ``youden_threshold``
raise ``UndefinedMetricError`` so callers decide whether skipping is
acceptable.

One count kernel computes every AUROC, Youden threshold and confusion count
in the package, and ``_Sample`` is the only way into it: a sample and its
partitions into levels are built once, and ``_Sample.evaluate`` turns a
(k, n) block of draws into each partition's (k, name, level) values.  It
owns the decision threshold: it cuts each draw at a ``ThresholdPolicy``'s
fixed value or at the draw's Youden threshold, and the name "threshold"
reads that back.  A point estimate is the identity draw ``range(n)``, so
it takes the same code path as a bootstrap or matched replicate.
``np.unique`` finds a sample's distinct scores (its pooled grid) and each
record's rank on it once.  Each level then gets its own grid,
the distinct scores of its records, laid out as one segment of a count
table (``_LevelGrids``): a table is (label, column) with one column per
distinct (level, score) pair, so an attribute's table has about n columns
whatever its level count, where a dense (level, label, score) table over
the pooled grid would have L times the pooled grid.  One ``bincount`` fills
it; records in no level go to one trailing dump column.  The rule
``score >= t`` predicts positive from each level's local cut
``searchsorted(level_grid, t)`` up, so fn and tn are sums over a segment
prefix and tp and fp over the suffix; one ``np.add.reduceat`` over the
(start, cut, end) span of every segment takes them all.  AUROC is the
Mann-Whitney U over P*N, the doubled U being
``sum(pos * (2*neg_below + neg_at))`` within a level: one prefix sum of
the whole negative row counts the negatives below each column from the
table's start, and subtracting its value at a segment's start makes it the
level's own.  The Youden threshold maximizes
the integer ``tp*N + tn*P`` over the scores present in a pooled (2, grid)
table of the same sample, the smallest winning a tie.  At cut c that
integer is ``P*N + sum_{k<c} (neg[k]*P - pos[k]*N)``, so one prefix sum of
the per-score gain scores every cut; a score absent from the table has the
same value as the next present one, to which a winning absent cut is
advanced.  Counts, the doubled U and ``tp*N + tn*P`` are exact integers
below 2**53 for any sample under 9e7 records (partial sums stay far below
2**63), so every metric is one correctly rounded division of exact values.
A sequential scan (``cumsum``) costs about ten times an elementwise pass, so
a replicate makes one over about n columns per attribute for AUROC and one
over the pooled grid for the threshold.  A bootstrap replicate gathers
precomputed per-record keys and counts them again; it sorts nothing.

The kernel takes a block of k draws' tables at once, shaped (k, 2,
width): one ``bincount`` of keys offset by ``draw * 2 * width`` fills
them, and every step above runs once along the leading block axis, so a
small sample pays numpy's per-call overhead once per block, not once per
replicate.  ``block_size`` makes k the most that keeps a block within
``_BLOCK_CELLS`` cells, so a table of about n columns gets k = 1 from
n = 8192 up and a block never leaves the cache.  Each value is still one
division of exact integers, so a replicate's values do not depend on its
block.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, UndefinedMetricError

METRICS = ("PPV", "SENS", "SPEC", "FNR", "FPR", "AUROC")
_THRESHOLD_METRICS = ("PPV", "SENS", "SPEC", "FNR", "FPR")

# The most cells a block of count tables holds (256 KB of int64, so a block
# stays in cache); see ``block_size``.
_BLOCK_CELLS = 2**15


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

    n_bins: int
    bins: tuple[CalibrationBin, ...]


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


def _row_cumsums(rows: np.ndarray, out: np.ndarray) -> None:
    """``np.cumsum(rows, axis=1, out=out)`` one row at a time: numpy holds
    the interpreter lock through a 2-d scan but releases it in a 1-d one, so
    only row scans let replicate threads overlap."""
    for row, prefix in zip(rows, out):
        np.cumsum(row, out=prefix)


def block_size(width: int) -> int:
    """Replicates per block for count tables of ``width`` columns: the most
    whose (k, 2, width) tables fit in ``_BLOCK_CELLS`` cells, at least one."""
    return max(1, _BLOCK_CELLS // (2 * width))


class _LevelGrids:
    """Each level's distinct scores, laid out as one segment of a count table.

    Built from the records' ranks on a pooled grid of ``n_grid`` scores and
    their level ``codes`` in ``range(n_levels)``, or -1 for a record in no
    level.  ``keys`` lists the (level, rank) pairs present as
    ``level * (n_grid + 1) + rank`` in ascending order, so column j of a
    table holds the score ranked ``keys[j] % (n_grid + 1)`` and each level's
    columns are one ascending run.  A scalar code (0 or more) puts every
    record in that level; the ranks of a sample cover its pooled grid, so
    that segment is the whole grid and a record's column is its rank, with
    no ``np.unique``.  A table has ``width = size + 1`` columns; the last one
    collects the records in no level.  A level's segment ends where the next
    one's starts.
    """

    def __init__(self, ranks: np.ndarray, codes, n_levels: int, n_grid: int):
        codes = np.asarray(codes, dtype=np.int64)
        if codes.ndim:
            in_level = codes >= 0
            self.keys, inverse = np.unique(codes[in_level] * (n_grid + 1) + ranks[in_level], return_inverse=True)
            self.positions = np.full(ranks.shape, self.keys.size, dtype=np.int64)
            self.positions[in_level] = inverse
        else:
            self.keys = codes * (n_grid + 1) + np.arange(n_grid, dtype=np.int64)
            self.positions = np.asarray(ranks, dtype=np.int64)
        self.size = int(self.keys.size)
        self.width = self.size + 1
        self._offsets = np.arange(n_levels, dtype=np.int64) * (n_grid + 1)
        self.starts, self.ends = self.cuts(np.array([0, n_grid]))
        self._spans = np.stack([self.starts, self.ends], axis=-1).ravel()
        self._empty = self.starts == self.ends
        self._triples = np.stack([self.starts, np.zeros_like(self.starts), self.ends], axis=-1)

    def cuts(self, cuts: np.ndarray) -> np.ndarray:
        """Each level's first column at or above each pooled grid index in
        ``cuts``: its local cut for the rule ``score >= grid[cut]``, shape
        (len(cuts), n_levels).  A cut of -1 gives the level's start."""
        return np.searchsorted(self.keys, self._offsets + cuts[:, None])

    def count(self, keys: np.ndarray, draws: np.ndarray) -> np.ndarray:
        """The (k, 2, width) count tables, [draw, label, column], of a (k, n)
        block of ``draws`` of the columns of ``keys``, the (units, n) records'
        ``label * width + column``: the keys are gathered, offset by
        ``draw * 2 * width`` and counted by one ``bincount``."""
        k = draws.shape[0]
        gathered = np.take(keys, draws, axis=1)
        if k > 1:
            gathered += (np.arange(k, dtype=np.int64) * (2 * self.width))[:, None]
        return np.bincount(gathered.ravel(), minlength=2 * self.width * k).reshape(k, 2, self.width)

    def split(self, tables: np.ndarray, lows: np.ndarray) -> np.ndarray:
        """Per replicate, label and level of a (k, 2, width) block, the counts
        of the level's columns below its local cut ``lows`` (k, n_levels) in
        ``[..., 0]`` and from the cut to the level's end in ``[..., 1]``;
        shape (k, 2, n_levels, 3), ``[..., 2]`` being scratch.

        One ``reduceat`` over the flat block takes every sum: each segment
        adds the span triple (start, cut, end), offset to its table row.
        """
        rows = np.arange(0, tables.size, self.width, dtype=np.intp).reshape(-1, 2, 1, 1)
        spans = rows + self._triples
        spans[..., 1] += lows[:, None, :]
        sums = np.add.reduceat(tables.ravel(), spans.ravel()).reshape(spans.shape)
        np.copyto(sums[..., 0], 0, where=(lows == self.starts)[:, None, :])
        np.copyto(sums[..., 1], 0, where=(lows == self.ends)[:, None, :])
        return sums

    def doubled_u(self, tables: np.ndarray, n_pos: np.ndarray) -> np.ndarray:
        """Each level's doubled Mann-Whitney U per replicate of a (k, 2,
        width) block, ``sum(pos * (2*neg_below + neg_at))`` within its
        segment, from one prefix sum of each whole negative row."""
        neg, pos = tables[:, 0], tables[:, 1]
        below = np.empty((neg.shape[0], neg.shape[1] + 1), dtype=np.int64)  # below[:, j] = neg[:, :j].sum(1)
        below[:, 0] = 0
        _row_cumsums(neg, below[:, 1:])
        # below[j] + below[j + 1] is 2*neg_below + neg_at counted from the
        # table's first column; a level's segment starts below[start] later.
        weight = below[:, :-1] + below[:, 1:]
        weight *= pos
        # One reduceat over the (start, end) pairs sums each segment; the
        # dump column keeps every bound inside the table.  An empty segment
        # gives weight[start], so it is zeroed.
        sums = np.add.reduceat(weight, self._spans, axis=-1)[..., 0::2]
        sums[..., self._empty] = 0
        return sums - 2 * below[:, self.starts] * n_pos


def _youden_cuts(pooled: np.ndarray) -> np.ndarray:
    """Grid index of the Youden threshold of each pooled table in a (k, 2,
    n_grid) block; -1 where a table holds one class.

    Only scores present in a table are candidates.  J = tp/P + tn/N - 1,
    and maximizing the integer ``tp*N + tn*P`` instead makes the tie toward
    the smallest threshold exact.  At cut c that integer is
    ``P*N + sum_{k<c} gain[k]`` with ``gain = neg*P - pos*N``, so the first
    maximum of the exclusive prefix sum of ``gain`` (0 at cut 0) is the
    smallest winning cut.  A cut at an absent score counts the same records
    as the cut at the next present score, so it ties with that score, and a
    winning absent cut advances to it.  Every partial sum lies within
    [-P*N, P*N].
    """
    neg, pos = pooled[:, 0], pooled[:, 1]
    n = pooled.sum(axis=-1)  # (k, 2): N, P
    if not pooled.shape[-1]:
        return np.full(n.shape[0], -1)
    gain = neg * n[:, 1:]
    gain -= pos * n[:, :1]
    value = np.empty_like(gain)  # value[:, c] = tp*N + tn*P at cut c, less P*N
    value[:, 0] = 0
    _row_cumsums(gain[:, :-1], value[:, 1:])
    cuts = np.argmax(value, axis=1).tolist()
    for r, (n_neg, n_pos) in enumerate(n.tolist()):
        if n_neg == 0 or n_pos == 0:
            cuts[r] = -1
            continue
        while neg[r, cuts[r]] == 0 and pos[r, cuts[r]] == 0:
            cuts[r] += 1
    return np.array(cuts)


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


def _metric_block(tables: np.ndarray, levels: _LevelGrids, metrics: tuple[str, ...],
                  cuts: np.ndarray | None) -> np.ndarray:
    """Values per replicate and level of a (k, 2, width) block of count
    tables over ``levels``, for each name in ``metrics``: one of METRICS, or
    an exact count, "n" records or "tp", "fp", "tn", "fn" at the cut.

    Shape (k, len(metrics), n_levels), nan where undefined.  Threshold
    metrics and the counts at the cut need ``cuts``, each replicate's index
    on the pooled grid or -1 for none; None leaves them nan.  Every value is
    one division of exact integers, so a replicate's values do not depend on
    its block.
    """
    k = tables.shape[0]
    sums = levels.split(tables, levels.cuts(np.full(k, -1) if cuts is None else cuts))
    below, above = sums[..., 0], sums[..., 1]
    totals = below + above
    n_neg, n_pos = totals[:, 0], totals[:, 1]
    terms = {"n": (n_neg + n_pos, 1)}
    if cuts is not None:
        tp, fp, tn, fn = above[:, 1], above[:, 0], below[:, 0], below[:, 1]
        terms.update(_ratio_terms(tp, fp, tn, fn), tp=(tp, 1), fp=(fp, 1), tn=(tn, 1), fn=(fn, 1))
    if "AUROC" in metrics:
        terms["AUROC"] = (levels.doubled_u(tables, n_pos), 2 * n_pos * n_neg)
    out = np.full((k, len(metrics), n_neg.shape[1]), np.nan)
    for j, m in enumerate(metrics):
        if m in terms:
            num, den = terms[m]
            np.divide(num, den, out=out[:, j], where=den > 0)
    if cuts is not None and (cuts < 0).any():
        out[np.ix_(cuts < 0, [j for j, m in enumerate(metrics) if m not in ("AUROC", "n")])] = np.nan
    return out


@dataclass(frozen=True)
class ThresholdPolicy:
    """How the decision threshold is chosen for threshold metrics.

    "youden" re-derives the threshold on the pooled data of every bootstrap
    replicate, so threshold uncertainty propagates into the cells; "fixed"
    uses the given value everywhere.
    """

    kind: str
    value: float | None = None

    def __post_init__(self):
        if self.kind not in ("youden", "fixed"):
            raise ConfigError(f"threshold policy kind must be 'youden' or 'fixed', got {self.kind!r}")
        if self.kind == "fixed" and self.value is None:
            raise ConfigError("fixed threshold policy needs a value")
        if self.kind == "youden" and self.value is not None:
            raise ConfigError("youden threshold policy takes no value")
        if self.value is not None and not math.isfinite(self.value):
            raise ConfigError(f"fixed threshold must be finite, got {self.value}")

    @classmethod
    def youden(cls) -> "ThresholdPolicy":
        return cls(kind="youden")

    @classmethod
    def fixed(cls, value: float) -> "ThresholdPolicy":
        return cls(kind="fixed", value=float(value))


class _Sample:
    """A sample as the count kernel sees it: its pooled score grid, the
    whole sample's level grid (for the Youden cut) and each partition's, all
    with their count keys, and its block size ``k``.

    ``scores`` and ``labels`` hold ``units`` rows of ``n`` records; a draw
    picks ``n`` columns.  The bootstrap and the point estimates have one row
    of records; a matched contrast has its treated records in row 0 and
    their controls in row 1, so a column is a pair.  ``partitions`` holds a
    ``(codes, n_levels)`` per partition, codes in the flattened record
    order; ``(0, 1)`` is the whole sample as one level.
    """

    def __init__(self, scores: np.ndarray, labels: np.ndarray, partitions, units: int = 1):
        self.grid, ranks = np.unique(scores, return_inverse=True)
        self.n = scores.size // units
        grids = [_LevelGrids(ranks, codes, n_levels, self.grid.size) for codes, n_levels in [(0, 1), *partitions]]
        labels = np.asarray(labels, dtype=np.int64)
        self.whole, *self.parts = [(levels, (labels * levels.width + levels.positions).reshape(units, self.n))
                                   for levels in grids]
        self.k = block_size(max(levels.width for levels, _ in (self.whole, *self.parts)))

    def evaluate(self, names: tuple[str, ...], policy: ThresholdPolicy | None = None,
                 draws: np.ndarray | None = None) -> list[np.ndarray]:
        """Each partition's (k, name, level) values over a (k, n) block of
        ``draws``, by default the identity draw ``range(n)`` (k = 1) that
        gives the point estimate.

        A name is ``_metric_block``'s or "threshold", each draw's threshold
        in every level.  Only a name that needs a cut takes one: at a fixed
        policy's value, or at each draw's Youden threshold, with none (and a
        nan threshold) where the draw holds one class.  Without a policy
        those names are nan.
        """
        if draws is None:
            draws = np.arange(self.n)[None]
        cuts = None
        if policy is not None and any(m not in ("AUROC", "n") for m in names):
            if policy.kind == "fixed":
                cuts = np.full(draws.shape[0], np.searchsorted(self.grid, policy.value))
            else:
                # The whole sample's one level spans the pooled grid, and its
                # dump column is empty.
                whole, keys = self.whole
                cuts = _youden_cuts(whole.count(keys, draws)[..., :-1])
        blocks = [_metric_block(levels.count(keys, draws), levels, names, cuts) for levels, keys in self.parts]
        if cuts is not None and "threshold" in names:
            # A Youden cut of -1 picks the appended nan.
            thresholds = (np.full(cuts.shape, policy.value) if policy.kind == "fixed"
                          else np.append(self.grid, np.nan)[cuts])
            for block in blocks:
                block[:, names.index("threshold")] = thresholds[:, None]
        return blocks


def confusion(labels, scores, threshold: float) -> ConfusionCounts:
    """Count outcomes of the decision rule ``score >= threshold``; a
    non-finite threshold raises ConfigError."""
    y, s = _validate(labels, scores)
    (values,) = _Sample(s, y, [(0, 1)]).evaluate(("tp", "fp", "tn", "fn"), ThresholdPolicy.fixed(threshold))
    return ConfusionCounts(*map(int, values[0, :, 0]))


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
    y, s = _validate(labels, scores)
    (values,) = _Sample(s, y, [(0, 1)]).evaluate(("AUROC",))
    value = values[0, 0, 0]
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
    y, s = _validate(labels, scores)
    (values,) = _Sample(s, y, [(0, 1)]).evaluate(("threshold",), ThresholdPolicy.youden())
    value = values[0, 0, 0]
    if np.isnan(value):
        raise UndefinedMetricError("Youden threshold undefined: labels contain a single class")
    return float(value)


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
    return CalibrationCurve(n_bins=n_bins, bins=tuple(bins))
