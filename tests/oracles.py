"""Independent reference implementations used to check the package.

Everything here deliberately takes a different computational route from the
code under test: AUROC by explicit pair enumeration instead of ranks, Youden
by an exact-rational exhaustive scan instead of the cumulative-count trick,
the Youden cut of a count table by the masked two-scan route that the
prefix-gain scan replaced, t-tail probabilities by high-precision quadrature
of the density instead of the incomplete-beta closed form, gradients by
finite differences, greedy matching by scanning every live control instead
of a sorted index and by the linked-slot search that the descending sweep
replaced, subgroup metric matrices by per-level masks and midranks
instead of one count table, the AUROC standard error by DeLong's placement
values instead of the bootstrap, bootstrap and matched replicates one at a
time with a column loop for the diffs instead of blocks of replicates, a
contrast's records by walking the pool in Python instead of one array of
side codes, cohort reading and writing by per-row
records instead of columns, pair files and cohorts through ``csv.writer``
instead of joined rows, design matrices by one loop that fits and
builds each column together instead of descriptors applied afterwards, and
calibration bins by a mask per ``np.unique`` level instead of the level
counts ``np.unique`` returns.
"""

from __future__ import annotations

import csv
import io
import logging
import os
import warnings
from dataclasses import dataclass, field
from fractions import Fraction

import mpmath as mp
import numpy as np
from scipy.stats import rankdata

from biasaudit._rng import stream
from biasaudit.cohort import (MISSING, MISSING_LABEL, CohortRecord, CohortSchema, _level_members, attribute_values,
                              subset_positions)
from biasaudit.errors import CohortValidationError, ConfigError, InsufficientDataError, RowIssue, SchemaError
from biasaudit.glm import DesignMatrix, FeatureColumn
from biasaudit.matching import MatchedPair, MatchedSample, _logit
from biasaudit.metrics import _THRESHOLD_METRICS, _metric_block, _youden_cuts


def pairwise_auroc(labels, scores) -> float:
    """AUROC as the literal average over positive/negative pairs.

    Each pair contributes 1 for a correctly ordered pair, 0.5 for a tie,
    0 otherwise.  O(P*N); fine for the n <= a few hundred used in tests.
    """
    y = np.asarray(labels)
    s = np.asarray(scores, dtype=float)
    pos = s[y == 1]
    neg = s[y == 0]
    if pos.size == 0 or neg.size == 0:
        raise ValueError("AUROC needs both classes")
    diff = pos[:, None] - neg[None, :]
    wins = np.sum(diff > 0) + 0.5 * np.sum(diff == 0)
    return float(wins) / (pos.size * neg.size)


def exhaustive_youden(labels, scores) -> float:
    """Youden-optimal threshold by exact-rational scan of observed scores.

    Evaluates J = sensitivity + specificity - 1 with Fraction arithmetic at
    every distinct observed score (the decision rule is ``score >= t`` so no
    other cut point yields a new confusion table), keeping the smallest
    threshold among the maximizers.
    """
    y = np.asarray(labels)
    s = np.asarray(scores, dtype=float)
    n_pos = int(np.sum(y == 1))
    n_neg = int(np.sum(y == 0))
    if n_pos == 0 or n_neg == 0:
        raise ValueError("Youden needs both classes")
    best_t = None
    best_j = None
    for t in sorted(set(s.tolist())):
        pred = s >= t
        tp = int(np.sum(pred & (y == 1)))
        tn = int(np.sum(~pred & (y == 0)))
        j = Fraction(tp, n_pos) + Fraction(tn, n_neg) - 1
        if best_j is None or j > best_j:
            best_j = j
            best_t = t
    return float(best_t)


def block_exhaustive_youden(labels, scores, draws) -> np.ndarray:
    """Youden threshold of each row of ``draws`` (record indices into
    ``labels`` and ``scores``), every observed score of every row scanned at
    once: the exact integer ``tp*N + tn*P`` at each candidate threshold
    (the rule is ``score >= t``), the smallest maximizer winning, and nan for
    a row that holds one class."""
    pos = np.asarray(labels)[draws] == 1
    s = np.asarray(scores, dtype=float)[draws]
    pred = s[:, None, :] >= s[:, :, None]  # (row, candidate, record)
    tp = (pred & pos[:, None, :]).sum(axis=2)
    tn = (~pred & ~pos[:, None, :]).sum(axis=2)
    n_pos = pos.sum(axis=1, keepdims=True)
    n_neg = pos.shape[1] - n_pos
    j = tp * n_neg + tn * n_pos
    best = np.where(j == j.max(axis=1, keepdims=True), s, np.inf).min(axis=1)
    return np.where((n_pos[:, 0] > 0) & (n_neg[:, 0] > 0), best, np.nan)


def masked_youden_cut(pooled: np.ndarray) -> int | None:
    """Grid index of the Youden threshold of a pooled (2, n_grid) count table
    by the two-scan route: tp and tn at every cut from two cumulative sums,
    ``tp*N + tn*P`` at each, absent scores masked out, first maximum.

    Same contract as ``biasaudit.metrics._youden_cuts`` on one table: only
    scores present in it are candidates, the smallest wins a tie, and one
    class gives None (-1 there).
    """
    neg, pos = pooled
    n_neg, n_pos = int(neg.sum()), int(pos.sum())
    if n_neg == 0 or n_pos == 0:
        return None
    tn = np.cumsum(neg) - neg
    tp = n_pos - np.cumsum(pos) + pos
    j_num = tp * n_neg + tn * n_pos
    j_num[neg + pos == 0] = -1
    return int(np.argmax(j_num))


def masked_calibration_bins(labels, scores, n_bins: int) -> list[tuple[float, float, int]]:
    """(mean score, positive fraction, count) of each non-empty bin: a mask
    and a sum per level of ``np.unique``."""
    y = np.asarray(labels, dtype=np.int64)
    s = np.asarray(scores, dtype=float)
    idx = np.minimum((s * n_bins).astype(int), n_bins - 1)
    rows = []
    for b in np.unique(idx).tolist():
        mask = idx == b
        rows.append((float(np.mean(s[mask])), float(np.mean(y[mask])), int(np.sum(mask))))
    return rows


def t_two_sided_p(t_stat: float, df: int) -> float:
    """Two-sided Student-t p-value by 50-digit quadrature of the density.

    The integrand is the density divided by its value at |t|, so it starts
    at 1: mpmath's quadrature stops on an absolute error, and a far-tail
    density (1e-80 and below) would otherwise stop it after a few digits.
    """
    with mp.workdps(50):
        v = mp.mpf(df)
        t = abs(mp.mpf(repr(float(t_stat))))
        if t == 0:
            return 1.0
        const = mp.gamma((v + 1) / 2) / (mp.sqrt(v * mp.pi) * mp.gamma(v / 2))
        at_t = (1 + t * t / v) ** (-(v + 1) / 2)
        tail = mp.quad(lambda u: ((v + u * u) / (v + t * t)) ** (-(v + 1) / 2), [t, mp.inf])
        return float(min(2 * const * at_t * tail, mp.mpf(1)))


def fd_gradient(f, x: np.ndarray, h: float = 1e-6) -> np.ndarray:
    """Central finite-difference gradient of a scalar function."""
    x = np.asarray(x, dtype=float)
    g = np.zeros_like(x)
    for i in range(x.size):
        step = np.zeros_like(x)
        step[i] = h
        g[i] = (f(x + step) - f(x - step)) / (2 * h)
    return g


def scan_greedy_match(propensities, treated, caliper_multiplier=0.2) -> MatchedSample:
    """Greedy 1:1 matching by an O(n_t * n_c) scan of every live control.

    Same contract as ``biasaudit.matching.greedy_match``: treated records
    choose in descending logit order (ties by ascending position), each takes
    the live control at the smallest float distance with ties to the lower
    control index, and the caliper is ``caliper_multiplier`` times the
    standard deviation of all logits (disabled, with a warning, at zero
    spread).
    """
    prop = np.asarray(propensities, dtype=float)
    flags = np.asarray(treated, dtype=bool)
    logits = _logit(prop)

    caliper = None
    if caliper_multiplier is not None and logits.size:
        # Equal logits are zero spread even where np.std rounds to a few ulps.
        spread = 0.0 if logits.min() == logits.max() else float(np.std(logits))
        if spread == 0.0:
            warnings.warn(
                "logit propensities have zero spread; caliper disabled for this match",
                stacklevel=2,
            )
        else:
            caliper = caliper_multiplier * spread

    treated_pos = np.flatnonzero(flags)
    control_pos = np.flatnonzero(~flags)
    order = np.lexsort((treated_pos, -logits[treated_pos]))
    control_logits = logits[control_pos]
    available = np.ones(control_pos.size, dtype=bool)

    pairs = []
    unmatched = 0
    for t in treated_pos[order]:
        if not available.any():
            unmatched += 1
            continue
        live = np.flatnonzero(available)
        dist = np.abs(control_logits[live] - logits[t])
        best = live[int(np.argmin(dist))]  # first minimum: lowest control index
        d = float(abs(control_logits[best] - logits[t]))
        if caliper is not None and d > caliper:
            unmatched += 1
            continue
        available[best] = False
        pairs.append(MatchedPair(treated=int(t), control=int(control_pos[best]), distance=d))

    pairs.sort(key=lambda p: p.treated)
    return MatchedSample(
        treated=np.array([p.treated for p in pairs], dtype=np.int64),
        control=np.array([p.control for p in pairs], dtype=np.int64),
        distance=np.array([p.distance for p in pairs], dtype=float),
        unmatched_treated=unmatched,
        caliper=caliper,
    )



def linked_greedy_match(propensities, treated, caliper_multiplier=0.2) -> MatchedSample:
    """Greedy 1:1 matching by a two-sided search over linked live slots.

    The O(n log n) matcher that the descending sweep replaced, kept as a fast
    exact reference for inputs too large for ``scan_greedy_match``.  Same
    contract as ``biasaudit.matching.greedy_match``.  Each treated record
    binary-searches its logit among the sorted controls and walks outward;
    removed controls are skipped through path-compressed "next/previous
    live slot" links, and runs of equal logits are crossed whole.
    """
    prop = np.asarray(propensities, dtype=float)
    flags = np.asarray(treated, dtype=bool)
    logits = _logit(prop)

    caliper = None
    if caliper_multiplier is not None and logits.size:
        # Equal logits are zero spread even where np.std rounds to a few ulps.
        spread = 0.0 if logits.min() == logits.max() else float(np.std(logits))
        if spread == 0.0:
            warnings.warn(
                "logit propensities have zero spread; caliper disabled for this match",
                stacklevel=2,
            )
        else:
            caliper = caliper_multiplier * spread

    treated_pos = np.flatnonzero(flags)
    control_pos = np.flatnonzero(~flags)
    order = np.lexsort((treated_pos, -logits[treated_pos]))
    visit = treated_pos[order]

    # Controls sorted once by (logit, position).  Slot k of the sorted array
    # holds the control at position ``c_pos[k]``; equal logits form a run
    # [run_start, run_end] whose slots ascend by position, so a run's first
    # live slot is its lowest-index live control.
    slot_control = np.argsort(logits[control_pos], kind="stable")
    sorted_logits = logits[control_pos[slot_control]]
    m = sorted_logits.size
    _, starts, lengths = np.unique(sorted_logits, return_index=True, return_counts=True)
    run_start = np.repeat(starts, lengths).tolist()
    run_end = np.repeat(starts + lengths - 1, lengths).tolist()
    visit_logits = logits[visit]
    insert_at = np.searchsorted(sorted_logits, visit_logits, side="left").tolist()
    c_logit = sorted_logits.tolist()
    c_pos = control_pos[slot_control].tolist()

    # Path-compressed "next live slot >= k" (sentinel m) and "previous live
    # slot <= k" (stored shifted by one, sentinel -1 at position 0).
    nxt = list(range(m + 1))
    prv = list(range(m + 1))

    def next_live(k: int) -> int:
        while nxt[k] != k:
            nxt[k] = nxt[nxt[k]]
            k = nxt[k]
        return k

    def prev_live(k: int) -> int:
        k += 1
        while prv[k] != k:
            prv[k] = prv[prv[k]]
            k = prv[k]
        return k - 1

    pairs: list[tuple[int, int, float]] = []
    unmatched = 0
    live = m
    for t, tl, pos in zip(visit.tolist(), visit_logits.tolist(), insert_at):
        if live == 0:
            unmatched += 1
            continue
        best_d = np.inf
        best_slot = -1
        # Right of the insertion point (logits >= tl): the next live slot opens
        # the nearest run.  Rounding can give further runs the same float
        # distance, so keep walking while the distance holds.
        k = next_live(pos)
        side_d = abs(c_logit[k] - tl) if k < m else np.inf
        while k < m and abs(c_logit[k] - tl) == side_d:
            if side_d < best_d or (side_d == best_d and c_pos[k] < c_pos[best_slot]):
                best_d, best_slot = side_d, k
            k = next_live(run_end[k] + 1)
        # Left of it (logits < tl): the previous live slot lies in the nearest
        # run, whose first live slot holds its lowest-index live control.
        k = prev_live(pos - 1)
        side_d = abs(c_logit[k] - tl) if k >= 0 else np.inf
        while k >= 0 and abs(c_logit[k] - tl) == side_d:
            first = next_live(run_start[k])
            if side_d < best_d or (side_d == best_d and c_pos[first] < c_pos[best_slot]):
                best_d, best_slot = side_d, first
            k = prev_live(run_start[k] - 1)
        if caliper is not None and best_d > caliper:
            unmatched += 1
            continue
        nxt[best_slot] = best_slot + 1
        prv[best_slot + 1] = best_slot
        live -= 1
        pairs.append((t, c_pos[best_slot], best_d))

    pairs.sort()
    columns = np.array(pairs, dtype=[("treated", np.int64), ("control", np.int64), ("distance", float)])
    return MatchedSample(columns["treated"], columns["control"], columns["distance"],
                         unmatched_treated=unmatched, caliper=caliper)

_THRESHOLD_METRICS = ("PPV", "SENS", "SPEC", "FNR", "FPR")


def rank_metric_matrix(y: np.ndarray, s: np.ndarray, codes: np.ndarray, n_levels: int,
                       metrics: tuple[str, ...], threshold: float | None) -> np.ndarray:
    """Per-level metric values, nan where undefined.  Shape (n_levels, n_metrics).

    Level by level: a boolean mask per level, confusion counts by comparing
    each score with the threshold, and AUROC from midranks.
    """
    out = np.full((n_levels, len(metrics)), np.nan)
    need_threshold = any(m in _THRESHOLD_METRICS for m in metrics)
    for g in range(n_levels):
        mask = codes == g
        if not mask.any():
            continue
        yg = y[mask]
        sg = s[mask]
        pos = yg == 1
        n_pos = int(pos.sum())
        n_neg = yg.size - n_pos
        tp = fp = tn = fn = 0
        if need_threshold and threshold is not None:
            pred = sg >= threshold
            tp = int(np.count_nonzero(pred & pos))
            fp = int(np.count_nonzero(pred & ~pos))
            fn = n_pos - tp
            tn = n_neg - fp
        for j, m in enumerate(metrics):
            if m == "AUROC":
                if n_pos and n_neg:
                    ranks = rankdata(sg)
                    out[g, j] = (float(ranks[pos].sum()) - n_pos * (n_pos + 1) / 2.0) / (n_pos * n_neg)
            elif threshold is not None:
                if m == "PPV" and tp + fp:
                    out[g, j] = tp / (tp + fp)
                elif m == "SENS" and n_pos:
                    out[g, j] = tp / n_pos
                elif m == "SPEC" and n_neg:
                    out[g, j] = tn / n_neg
                elif m == "FNR" and n_pos:
                    out[g, j] = fn / n_pos
                elif m == "FPR" and n_neg:
                    out[g, j] = fp / n_neg
    return out


def bucket_partition(cohort, attribute: str, min_group_size: int, positions):
    """``(groups, excluded)`` of ``cohort._partition`` by the walk it made
    before partitions held level codes: one Python list per level, filled
    record by record in position order.  Raises InsufficientDataError as it
    does."""
    values = attribute_values(cohort, attribute)
    pool = range(cohort.n) if positions is None else np.sort(positions).tolist()
    missing_idx: list[int] = []
    buckets: dict = {level: [] for level in cohort.attribute_levels[attribute]}
    buckets.update(dict.fromkeys(_level_members(MISSING_LABEL), missing_idx))
    for i in pool:
        buckets[values[i]].append(i)

    groups: list[tuple[str, tuple[int, ...]]] = []
    excluded: list[tuple[str, int, str]] = []
    for level, idx in buckets.items():
        if idx is missing_idx:
            continue
        if not idx:
            excluded.append((level, 0, "empty"))
        elif len(idx) < min_group_size:
            excluded.append((level, len(idx), "too small"))
        else:
            groups.append((level, tuple(idx)))
    if missing_idx:
        if len(missing_idx) >= min_group_size:
            groups.append((MISSING_LABEL, tuple(missing_idx)))
        else:
            excluded.append((MISSING_LABEL, len(missing_idx), "missing"))

    if len(groups) < 2:
        raise InsufficientDataError(
            f"partition on {attribute!r} leaves {len(groups)} group(s) at "
            f"min_group_size={min_group_size}; nothing to compare"
        )
    return tuple(groups), tuple(excluded)


def walk_contrast(cohort, attribute: str, treated_level: str, control_level: str, subset):
    """``(indices, flags, n_treated, n_control)`` for one contrast by the
    walks ``match_contrast`` and ``estimate_propensity`` made before they
    shared ``matching._contrast_records``: a generator count of each level
    over the pool, then the records at either level in pool order and their
    treated flags by two list comprehensions."""
    values = attribute_values(cohort, attribute)
    pool = range(cohort.n) if subset is None else subset_positions(subset, cohort.n).tolist()
    members_a, members_b = _level_members(treated_level), _level_members(control_level)
    n_a = sum(1 for i in pool if values[i] in members_a)
    n_b = sum(1 for i in pool if values[i] in members_b)
    is_treated = {**dict.fromkeys(_level_members(control_level), False),
                  **dict.fromkeys(_level_members(treated_level), True)}
    indices = [i for i in pool if values[i] in is_treated]
    flags = np.asarray([is_treated[values[i]] for i in indices], dtype=bool)
    return indices, flags, n_a, n_b


def delong_auroc_se(labels, scores) -> float:
    """Standard error of the AUROC by DeLong, DeLong & Clarke-Pearson (1988).

    Each positive's placement is its win fraction over all negatives (ties
    count half), each negative's the positives' win fraction over it; the
    AUROC variance is var(positive placements)/P + var(negative
    placements)/N.  O(P*N) pairs; fine for a few thousand records.
    """
    y = np.asarray(labels)
    s = np.asarray(scores, dtype=float)
    pos = s[y == 1]
    neg = s[y == 0]
    if pos.size < 2 or neg.size < 2:
        raise ValueError("DeLong needs at least two records of each class")
    diff = pos[:, None] - neg[None, :]
    psi = (diff > 0) + 0.5 * (diff == 0)
    v10 = psi.mean(axis=1)
    v01 = psi.mean(axis=0)
    return float(np.sqrt(v10.var(ddof=1) / pos.size + v01.var(ddof=1) / neg.size))


# --- The record-based cohort reader, kept as the reference for the columnar
# one: every row becomes a CohortRecord of dicts, continuous attributes are
# binned value by value, and the writer walks the records.


@dataclass(frozen=True)
class RecordCohort:
    """What the record-based parser returns: the rows plus the level order,
    bin breakpoints and dropped-row diagnostics derived from them."""

    records: tuple[CohortRecord, ...]
    schema: CohortSchema
    attribute_levels: dict[str, tuple[str, ...]]
    breakpoints: dict[str, tuple[float, ...]] = field(default_factory=dict)
    diagnostics: tuple[RowIssue, ...] = ()

    @property
    def n(self) -> int:
        return len(self.records)


def _fmt_edge(x: float) -> str:
    return format(x, "g")


def _bin_labels(breakpoints: tuple[float, ...]) -> tuple[str, ...]:
    for fmt_edge in (_fmt_edge, repr):  # colliding 6-digit labels: exact edges instead
        labels = []
        for i in range(len(breakpoints) - 1):
            close = "]" if i == len(breakpoints) - 2 else ")"
            labels.append(f"[{fmt_edge(breakpoints[i])} - {fmt_edge(breakpoints[i + 1])}{close}")
        if len(set(labels)) == len(labels):
            break
    return tuple(labels)


def _resolve_breakpoints(observed: np.ndarray, edges: tuple[float, ...] | None) -> tuple[float, ...]:
    """Breakpoints for binning: explicit edges, or min/tertile/tertile/max."""
    if edges is not None:
        bp = tuple(float(e) for e in edges)
        if len(bp) < 2:
            raise ValueError("explicit bin edges need at least two breakpoints")
    else:
        if observed.size == 0:
            raise ValueError("cannot derive tertiles: no observed values")
        if observed.size < 3:
            raise ValueError(
                f"tertile binning needs at least 3 non-missing values, got {observed.size}"
            )
        q1, q2 = np.quantile(observed, [1.0 / 3.0, 2.0 / 3.0])
        bp = (float(observed.min()), float(q1), float(q2), float(observed.max()))
    for a, b in zip(bp, bp[1:]):
        if not a < b:
            raise ValueError(
                f"bin breakpoints must be strictly increasing, got {bp}; "
                "the data is too tied for tertiles, supply explicit bin edges"
            )
    return bp


def _assign_bin(value: float, breakpoints: tuple[float, ...], labels: tuple[str, ...]) -> str:
    if value < breakpoints[0] or value > breakpoints[-1]:
        raise ValueError(
            f"value {value!r} falls outside the bin range "
            f"[{breakpoints[0]}, {breakpoints[-1]}]"
        )
    if value == breakpoints[-1]:
        return labels[-1]
    idx = int(np.searchsorted(breakpoints, value, side="right")) - 1
    return labels[idx]


def record_attribute_values(cohort: RecordCohort, attribute: str) -> list:
    """Per-record level labels for one protected attribute.

    Categorical values come back as-is; continuous values are mapped through
    the cohort's stored breakpoints.  MISSING stays MISSING.
    """
    col = cohort.schema.protected(attribute)
    raw = [rec.protected[attribute] for rec in cohort.records]
    if col.kind == "categorical":
        return raw
    bp = cohort.breakpoints[attribute]
    labels = _bin_labels(bp)
    return [v if v is MISSING else _assign_bin(float(v), bp, labels) for v in raw]


def _record_build(records: list[CohortRecord], schema: CohortSchema, diagnostics: tuple[RowIssue, ...] = ()) -> RecordCohort:
    """Assemble a Cohort: derive attribute level order and bin breakpoints."""
    attribute_levels: dict[str, tuple[str, ...]] = {}
    breakpoints: dict[str, tuple[float, ...]] = {}
    for col in schema.protected_columns:
        raw = [rec.protected[col.name] for rec in records]
        if col.kind == "categorical":
            seen: list[str] = []
            for v in raw:
                if v is not MISSING and v not in seen:
                    seen.append(v)
            attribute_levels[col.name] = tuple(seen)
        else:
            observed = np.asarray([v for v in raw if v is not MISSING], dtype=float)
            bp = _resolve_breakpoints(observed, col.bin_edges)
            breakpoints[col.name] = bp
            attribute_levels[col.name] = _bin_labels(bp)
    return RecordCohort(
        records=tuple(records),
        schema=schema,
        attribute_levels=attribute_levels,
        breakpoints=breakpoints,
        diagnostics=diagnostics,
    )


def _parse_float(text: str) -> float:
    value = float(text)
    if not np.isfinite(value):
        raise ValueError("non-finite")
    return value


def record_parse_cohort(source, schema: CohortSchema) -> RecordCohort:
    """Read and validate a delimited cohort file.

    ``source`` is a path or an open text stream.  Rows with a missing label or
    with every score missing are dropped and logged in ``diagnostics``; any
    other defect (malformed number, label outside {0, 1}, score outside
    [0, 1], missing or duplicate id, ragged row) is collected and raised as a
    CohortValidationError listing each offending line.
    """
    if hasattr(source, "read"):
        text = source.read()
    else:
        with open(os.fspath(source), "r", encoding="utf-8", newline="") as fh:
            text = fh.read()
    reader = csv.reader(io.StringIO(text), delimiter=schema.delimiter)
    # Each row with the physical line its record starts on.
    rows, line = [], 1
    for row in reader:
        rows.append((line, row))
        line = reader.line_num + 1
    if not rows:
        raise CohortValidationError([RowIssue(None, None, "empty cohort file")])

    header = [h.strip() for h in rows[0][1]]
    required = [schema.id_column, schema.label_column]
    required += [c for _, c in schema.score_columns]
    required += [p.name for p in schema.protected_columns]
    required += [c.name for c in schema.covariate_columns]
    absent = [c for c in required if c not in header]
    if absent:
        raise SchemaError(f"cohort header is missing column(s): {', '.join(absent)}")
    repeated = [c for c in required if header.count(c) > 1]
    if repeated:
        raise SchemaError(f"cohort header names column(s) more than once: {', '.join(repeated)}")
    pos = {name: header.index(name) for name in required}

    tokens = set(schema.missing_tokens)
    issues: list[RowIssue] = []
    dropped: list[RowIssue] = []
    records: list[CohortRecord] = []
    seen_ids: set[str] = set()

    for line_no, row in rows[1:]:
        if not row or all(not f.strip() for f in row):
            continue
        if len(row) != len(header):
            issues.append(RowIssue(line_no, None, f"expected {len(header)} fields, found {len(row)}"))
            continue

        def cell(name: str):
            raw = row[pos[name]].strip()
            return MISSING if raw in tokens else raw

        row_bad = False

        rid = cell(schema.id_column)
        if rid is MISSING:
            issues.append(RowIssue(line_no, schema.id_column, "missing id"))
            row_bad = True
        elif rid in seen_ids:
            issues.append(RowIssue(line_no, schema.id_column, f"duplicate id {rid!r}"))
            row_bad = True
        else:
            seen_ids.add(rid)

        label_raw = cell(schema.label_column)
        label: int | None = None
        if label_raw is MISSING:
            label = None
        elif label_raw in ("0", "1"):
            label = int(label_raw)
        else:
            issues.append(RowIssue(line_no, schema.label_column, f"label must be 0 or 1, got {label_raw!r}"))
            row_bad = True

        scores: dict = {}
        for model, colname in schema.score_columns:
            raw = cell(colname)
            if raw is MISSING:
                continue
            try:
                value = _parse_float(raw)
            except ValueError:
                issues.append(RowIssue(line_no, colname, f"unparseable score {raw!r}"))
                row_bad = True
                continue
            if not 0.0 <= value <= 1.0:
                issues.append(RowIssue(line_no, colname, f"score {value} outside [0, 1]"))
                row_bad = True
                continue
            scores[model] = value

        protected: dict = {}
        for col in schema.protected_columns:
            raw = cell(col.name)
            if raw is MISSING:
                protected[col.name] = MISSING
            elif col.kind == "categorical":
                protected[col.name] = raw
            else:
                try:
                    protected[col.name] = _parse_float(raw)
                except ValueError:
                    issues.append(RowIssue(line_no, col.name, f"unparseable numeric value {raw!r}"))
                    row_bad = True

        covariates: dict = {}
        for col in schema.covariate_columns:
            raw = cell(col.name)
            if raw is MISSING:
                covariates[col.name] = MISSING
            elif col.kind == "categorical":
                covariates[col.name] = raw
            elif col.kind == "binary":
                if raw in ("0", "1"):
                    covariates[col.name] = int(raw)
                else:
                    issues.append(RowIssue(line_no, col.name, f"binary covariate must be 0 or 1, got {raw!r}"))
                    row_bad = True
            else:
                try:
                    covariates[col.name] = _parse_float(raw)
                except ValueError:
                    issues.append(RowIssue(line_no, col.name, f"unparseable numeric value {raw!r}"))
                    row_bad = True

        if row_bad:
            continue
        if label is None:
            dropped.append(RowIssue(line_no, schema.label_column, "label missing; row dropped"))
            continue
        if not scores:
            dropped.append(RowIssue(line_no, None, "all scores missing; row dropped"))
            continue
        records.append(
            CohortRecord(id=rid, label=label, scores=scores, protected=protected, covariates=covariates)
        )

    if issues:
        raise CohortValidationError(issues)
    if not records:
        raise CohortValidationError([RowIssue(None, None, "no usable rows after validation")])

    try:
        return _record_build(records, schema, diagnostics=tuple(dropped))
    except ValueError as exc:
        raise CohortValidationError([RowIssue(None, None, str(exc))]) from exc


def _render_value(value, kind: str, missing_token: str) -> str:
    if value is MISSING:
        return missing_token
    if kind == "float":
        return repr(float(value))
    if kind == "int":
        return str(int(value))
    return str(value)


def record_write_cohort(cohort: RecordCohort, path) -> None:
    """Serialize a cohort so that re-parsing it yields an equal Cohort.

    ``path`` may also be an open text stream, mirroring ``parse_cohort``.
    Floats are written with ``repr`` (exact round-trip); continuous protected
    attributes are written as their raw values, not bin labels, so the
    re-parsed cohort re-derives identical bins.
    """
    schema = cohort.schema
    if not schema.missing_tokens:
        has_missing = any(
            v is MISSING
            for rec in cohort.records
            for v in (*rec.protected.values(), *rec.covariates.values())
        ) or any(len(rec.scores) < len(schema.score_columns) for rec in cohort.records)
        if has_missing:
            raise ValueError("cohort has missing values but the schema declares no missing tokens")
        token = ""
    else:
        token = schema.missing_tokens[0]

    header = [schema.id_column, schema.label_column]
    header += [c for _, c in schema.score_columns]
    header += [p.name for p in schema.protected_columns]
    header += [c.name for c in schema.covariate_columns]

    def _emit(fh) -> None:
        writer = _RowWriter(fh, delimiter=schema.delimiter)
        writer.writerow(header)
        for rec in cohort.records:
            row = [rec.id, str(rec.label)]
            for model, _ in schema.score_columns:
                row.append(repr(float(rec.scores[model])) if model in rec.scores else token)
            for col in schema.protected_columns:
                kind = "float" if col.kind == "continuous" else "str"
                row.append(_render_value(rec.protected[col.name], kind, token))
            for col in schema.covariate_columns:
                kind = {"numeric": "float", "binary": "int", "categorical": "str"}[col.kind]
                row.append(_render_value(rec.covariates[col.name], kind, token))
            writer.writerow(row)

    if hasattr(path, "write"):
        _emit(path)
        return
    with open(os.fspath(path), "w", encoding="utf-8", newline="") as fh:
        _emit(fh)


class _RowWriter:
    """``csv.writer`` rows ending in ``\\n`` that quote a field holding a bare
    carriage return too: each row is written with the ``\\r\\n`` terminator,
    whose characters make the writer quote, and the terminator is swapped."""

    def __init__(self, fh, delimiter: str = ","):
        self.fh = fh
        self.buf = io.StringIO()
        self.writer = csv.writer(self.buf, delimiter=delimiter, lineterminator="\r\n")

    def writerow(self, row) -> None:
        self.buf.seek(0)
        self.buf.truncate()
        self.writer.writerow(row)
        self.fh.write(self.buf.getvalue()[:-2] + "\n")

    def writerows(self, rows) -> None:
        for row in rows:
            self.writerow(row)


def writer_export_pairs(cohort, matched: MatchedSample, path) -> None:
    """Matched pairs written row by row through ``csv.writer``: the pair
    file writer that joined rows replaced."""
    with open(os.fspath(path), "w", encoding="utf-8", newline="") as fh:
        writer = _RowWriter(fh)
        writer.writerow(["treated_id", "control_id", "distance"])
        ids = np.asarray(cohort.ids, dtype=object)
        writer.writerows(zip(ids[matched.treated], ids[matched.control], map(repr, matched.distance.tolist())))


# --- The design-matrix encoder as one loop that derives each covariate's
# statistics and builds its vectors in the same pass, kept as the reference
# for ``encode_design``'s describe-then-apply route.

log = logging.getLogger(__name__)


def _covariate_kind(cohort, name: str) -> str:
    for col in cohort.schema.covariate_columns:
        if col.name == name:
            return col.kind
    raise ConfigError(f"unknown covariate {name!r}")


def _groups(cohort, idx: list[int], name: str) -> tuple[np.ndarray, tuple[str, ...]]:
    """Group codes of a categorical covariate on rows ``idx``, indexing the
    group names returned with them.  Missing values group under
    MISSING_LABEL, together with a level that carries that very name."""
    names = (*cohort.covariate_levels[name], MISSING_LABEL)
    remap = np.asarray([names.index(level) for level in names])
    return remap[cohort.covariates[name][idx]], names


def loop_encode_design(cohort, indices, covariates) -> DesignMatrix:
    """A fresh encode (no ``reuse``) by one loop over the covariates."""
    idx = [int(i) for i in indices]
    if not idx:
        raise ValueError("cannot encode an empty row subset")
    names = list(covariates)

    columns: list[FeatureColumn] = [FeatureColumn(kind="intercept")]
    vectors: list[np.ndarray] = [np.ones(len(idx))]
    dropped: list[str] = []

    for name in names:
        kind = _covariate_kind(cohort, name)
        if kind in ("numeric", "binary"):
            raw = cohort.covariates[name][idx]
            missing = np.isnan(raw)
            observed = raw[~missing]
            if observed.size == 0:
                raise ConfigError(f"covariate {name!r} is entirely missing on the encoded subset")
            mean = float(observed.mean())
            filled = np.where(missing, mean, raw)
            has_missing = observed.size < raw.size
            if kind == "numeric":
                sd = float(filled.std())
                if sd == 0.0:
                    dropped.append(name)
                    log.warning("dropping zero-variance covariate column %r", name)
                else:
                    columns.append(
                        FeatureColumn(kind="numeric", name=name, center=mean, scale=sd, impute=mean)
                    )
                    vectors.append((filled - mean) / sd)
            else:
                if filled.std() == 0.0:
                    dropped.append(name)
                    log.warning("dropping constant binary covariate column %r", name)
                else:
                    columns.append(FeatureColumn(kind="numeric", name=name, impute=mean))
                    vectors.append(filled)
            if has_missing and name not in dropped:
                columns.append(FeatureColumn(kind="indicator", name=name, level=MISSING_LABEL))
                vectors.append(missing.astype(float))
        else:
            groups, group_names = _groups(cohort, idx, name)
            _, first = np.unique(groups, return_index=True)
            # Every group but the first to appear gets an indicator.
            for g in groups[np.sort(first)][1:].tolist():
                columns.append(FeatureColumn(kind="indicator", name=name, level=group_names[g]))
                vectors.append((groups == g).astype(float))

    values = np.column_stack(vectors)
    return DesignMatrix(columns=tuple(columns), values=values, dropped=tuple(dropped))


# --- The replicate loops as they ran before blocks: one replicate per call,
# each with its own count tables, Youden cut and column-wise diffs; the
# reference for ``audit._replicates``.


def column_diffs(values: np.ndarray) -> np.ndarray:
    """Column-wise diff-from-average of a (level, metric) table, each column
    compressed to its defined entries; columns with < 2 go all-nan."""
    out = np.full_like(values, np.nan)
    for j in range(values.shape[1]):
        col = values[:, j]
        defined = np.isfinite(col)
        if int(defined.sum()) >= 2:
            out[defined, j] = col[defined] - col[defined].mean()
    return out


def _one_table(levels, keys: np.ndarray, draw: np.ndarray) -> np.ndarray:
    """The (1, 2, width) count table of one draw: its keys gathered and
    counted, with no block offset."""
    width = levels.size + 1
    return np.bincount(np.take(keys, draw, axis=1).ravel(), minlength=2 * width).reshape(1, 2, width)


def loop_replicates(sample, config, tokens: tuple, matched: bool) -> np.ndarray:
    """The replicate matrix of a ``metrics._Sample``, one replicate at a time.

    Replicate b draws from ``stream(config.seed, *tokens, b)``, counts one
    table per level grid and takes its threshold cut on the pooled table of
    its own draw.  A bootstrap row holds each partition's (level, metric)
    diffs from the average; a matched row the half arm difference per metric.
    """
    metrics, policy = config.metrics, config.threshold_policy
    whole, whole_keys = sample.whole
    rows = []
    for b in range(config.n_bootstrap):
        draw = stream(config.seed, *tokens, b).integers(0, sample.n, sample.n)
        cuts = None
        if any(m in _THRESHOLD_METRICS for m in metrics):
            if policy.kind == "fixed":
                cuts = np.array([np.searchsorted(sample.grid, policy.value)])
            else:
                cuts = _youden_cuts(_one_table(whole, whole_keys, draw)[:, :, :-1])
        tables = [_metric_block(_one_table(levels, keys, draw), levels, metrics, cuts)[0].T
                  for levels, keys in sample.parts]
        if matched:
            (mat,) = tables
            rows.append((mat[0] - mat[1]) / 2.0)
        else:
            rows.append(np.concatenate([column_diffs(t).ravel() for t in tables]))
    return np.vstack(rows)
