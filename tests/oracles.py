"""Independent reference implementations used to check the package.

Everything here deliberately takes a different computational route from the
code under test: AUROC by explicit pair enumeration instead of ranks, Youden
by an exact-rational exhaustive scan instead of the cumulative-count trick,
t-tail probabilities by high-precision quadrature of the density instead of
the incomplete-beta closed form, gradients by finite differences, greedy
matching by scanning every live control instead of a sorted index, subgroup
metric matrices by per-level masks and midranks instead of one count table,
and the AUROC standard error by DeLong's placement values instead of the
bootstrap.
"""

from __future__ import annotations

from fractions import Fraction

import warnings

import mpmath as mp
import numpy as np
from scipy.stats import rankdata

from biasaudit.matching import MatchedPair, MatchedSample, _logit


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


def t_two_sided_p(t_stat: float, df: int) -> float:
    """Two-sided Student-t p-value by 50-digit quadrature of the density."""
    with mp.workdps(50):
        v = mp.mpf(df)
        t = abs(mp.mpf(repr(float(t_stat))))
        if t == 0:
            return 1.0
        const = mp.gamma((v + 1) / 2) / (mp.sqrt(v * mp.pi) * mp.gamma(v / 2))
        tail = mp.quad(lambda u: (1 + u * u / v) ** (-(v + 1) / 2), [t, mp.inf])
        return float(min(2 * const * tail, mp.mpf(1)))


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
    if caliper_multiplier is not None:
        spread = float(np.std(logits))
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
    return MatchedSample(pairs=tuple(pairs), unmatched_treated=unmatched, caliper=caliper)


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
