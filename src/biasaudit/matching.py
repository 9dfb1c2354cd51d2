"""Propensity-score matching between two protected-attribute levels.

The pipeline mirrors the usual observational-study recipe: estimate the
probability of belonging to the smaller ("treated") level from covariates,
then greedily pair each treated record with the nearest unmatched control on
the logit-propensity scale, subject to a caliper.  Balance is judged by
standardized mean differences before and after matching.
"""

from __future__ import annotations

import csv
import os
import warnings
from dataclasses import dataclass, replace
from functools import cached_property

import numpy as np

from .cohort import Cohort, _level_members, attribute_values
from .errors import PropensityError
from .glm import LogisticModel, encode_design, fit_logistic, predict_proba

_CLIP = 1e-12


@dataclass(frozen=True)
class MatchedPair:
    """One pair as ``MatchedSample.pairs`` presents it."""

    treated: int
    control: int
    distance: float


@dataclass(frozen=True, eq=False)
class MatchedSample:
    """Matched pairs as read-only columns in ascending treated order:
    ``treated`` and ``control`` are int64 positions in whatever array the
    matcher was handed (``match_contrast`` rewrites them to cohort record
    positions), ``distance`` the float64 logit distance of each pair."""

    treated: np.ndarray
    control: np.ndarray
    distance: np.ndarray
    unmatched_treated: int
    caliper: float | None
    attribute: str | None = None
    treated_level: str | None = None
    control_level: str | None = None

    def __post_init__(self):
        for arr in (self.treated, self.control, self.distance):
            arr.flags.writeable = False

    def __eq__(self, other):
        if not isinstance(other, MatchedSample):
            return NotImplemented
        fields = ("pairs", "unmatched_treated", "caliper", "attribute", "treated_level", "control_level")
        return all(getattr(self, f) == getattr(other, f) for f in fields)

    @property
    def n_matched(self) -> int:
        return 2 * self.treated.size

    @cached_property
    def pairs(self) -> tuple[MatchedPair, ...]:
        """The pairs as MatchedPairs, built on first access."""
        return tuple(
            MatchedPair(treated=t, control=c, distance=d)
            for t, c, d in zip(self.treated.tolist(), self.control.tolist(), self.distance.tolist())
        )


@dataclass(frozen=True)
class CovariateBalance:
    name: str
    smd_before: float | None
    smd_after: float | None


@dataclass(frozen=True)
class BalanceReport:
    covariates: tuple[CovariateBalance, ...]
    matched_n: int
    passes_min_n: bool


@dataclass(frozen=True, eq=False)
class PropensityResult:
    """Two-level subset with fitted membership probabilities.

    ``indices`` are cohort record positions; ``treated`` flags membership in
    the treated level, aligned with ``indices``.
    """

    indices: np.ndarray
    treated: np.ndarray
    propensities: np.ndarray
    model: LogisticModel
    attribute: str
    treated_level: str
    control_level: str


def estimate_propensity(
    cohort: Cohort,
    attribute: str,
    treated_level: str,
    control_level: str,
    covariates,
    ridge: float = 1e-6,
    subset=None,
) -> PropensityResult:
    """Fit P(level = treated | covariates) on the two-level subset.

    Protected attributes must not appear among the covariates: the propensity
    model is supposed to explain membership through legitimate clinical
    variables, and including the attribute itself (or another protected
    column) would let group identity leak into the match.  ``subset``
    optionally restricts the rows considered (record positions).
    """
    names = list(covariates)
    protected_names = {p.name for p in cohort.schema.protected_columns}
    leaked = [n for n in names if n in protected_names]
    if leaked:
        raise PropensityError(
            f"propensity covariates must exclude protected attributes, got {', '.join(leaked)}"
        )
    if not names:
        raise PropensityError("propensity estimation needs at least one covariate")
    if treated_level == control_level:
        raise PropensityError("treated and control levels are identical")

    values = attribute_values(cohort, attribute)
    pool = range(cohort.n) if subset is None else [int(i) for i in subset]
    is_treated = {**dict.fromkeys(_level_members(control_level), False),
                  **dict.fromkeys(_level_members(treated_level), True)}
    indices = [i for i in pool if values[i] in is_treated]
    flags = np.asarray([is_treated[values[i]] for i in indices], dtype=bool)
    n_treated = int(flags.sum())
    n_control = len(indices) - n_treated
    if n_treated < 2 or n_control < 2:
        raise PropensityError(
            f"need at least two records per level, got {n_treated} {treated_level!r} "
            f"and {n_control} {control_level!r} on {attribute!r}"
        )

    design = encode_design(cohort, indices, names)
    model = fit_logistic(design, flags.astype(float), ridge=ridge)
    prop = predict_proba(model, design)
    return PropensityResult(
        indices=np.asarray(indices, dtype=np.int64),
        treated=flags,
        propensities=prop,
        model=model,
        attribute=attribute,
        treated_level=treated_level,
        control_level=control_level,
    )


def _logit(p: np.ndarray) -> np.ndarray:
    q = np.clip(p, _CLIP, 1.0 - _CLIP)
    return np.log(q) - np.log1p(-q)


def greedy_match(
    propensities,
    treated,
    caliper_multiplier: float | None = 0.2,
) -> MatchedSample:
    """Greedy 1:1 nearest-neighbor matching without replacement.

    Distance is absolute difference of logit propensities.  Treated records
    choose in descending propensity order (hardest to match first); each takes
    the nearest still-unmatched control, ties going to the lower control
    index.  "Nearest" is judged on the rounded float distance
    ``abs(control_logit - treated_logit)``: two different control logits can
    round to the same distance, and then the lower control index wins even if
    it is farther in exact arithmetic.  A pair is rejected when its distance
    exceeds the caliper, ``caliper_multiplier`` times the pooled standard
    deviation of the logit propensities; pass ``caliper_multiplier=None`` to
    disable the caliper.  Rejected and unmatchable treated records are
    counted, never silently dropped.

    Cost is O(n log n): the controls are sorted once, each treated record
    binary-searches its logit, and removed controls are skipped through
    path-compressed "next/previous live slot" links.
    """
    prop = np.asarray(propensities, dtype=float)
    flags = np.asarray(treated, dtype=bool)
    if prop.shape != flags.shape or prop.ndim != 1:
        raise ValueError("propensities and treated flags must be equal-length 1-d")
    if not np.all(np.isfinite(prop)):
        raise ValueError("propensities must be finite")
    logits = _logit(prop)

    caliper: float | None = None
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
    # Descending propensity; ties broken by ascending original position so the
    # visit order is deterministic.
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


def match_contrast(
    cohort: Cohort,
    attribute: str,
    level_a: str,
    level_b: str,
    covariates,
    caliper_multiplier: float | None = 0.2,
    ridge: float = 1e-6,
    subset=None,
) -> tuple[MatchedSample, PropensityResult]:
    """Full pipeline for one level pair: propensity fit plus greedy matching.

    The smaller level is treated (tie broken toward ``level_a``), so every
    treated record can in principle find a control.  Pair indices in the
    returned sample are cohort record positions.  A propensity fit that did
    not converge raises PropensityError rather than matching on its scores.
    """
    values = attribute_values(cohort, attribute)
    pool = range(cohort.n) if subset is None else [int(i) for i in subset]
    members_a, members_b = _level_members(level_a), _level_members(level_b)
    n_a = sum(1 for i in pool if values[i] in members_a)
    n_b = sum(1 for i in pool if values[i] in members_b)
    if n_a <= n_b:
        treated_level, control_level = level_a, level_b
    else:
        treated_level, control_level = level_b, level_a

    prop = estimate_propensity(
        cohort, attribute, treated_level, control_level, covariates, ridge=ridge, subset=subset
    )
    if not prop.model.converged:
        raise PropensityError(
            f"propensity fit did not converge after {prop.model.iterations} iterations "
            f"(gradient norm {prop.model.final_gradient_norm:.3g})"
        )
    raw = greedy_match(prop.propensities, prop.treated, caliper_multiplier)
    sample = replace(
        raw,
        treated=prop.indices[raw.treated],
        control=prop.indices[raw.control],
        attribute=attribute,
        treated_level=treated_level,
        control_level=control_level,
    )
    return sample, prop


def smd(values, group_a, group_b) -> float | None:
    """Absolute standardized mean difference between two index groups.

    Pooled scale is ``sqrt((var_a + var_b) / 2)`` with sample (n-1)
    variances.  Missing entries (nan) are ignored per group.  Returns None
    when the pooled variance is zero or either group has fewer than two
    observed values, since the ratio is undefined rather than zero.
    """
    vals = np.asarray(values, dtype=float)
    a = vals[np.asarray(group_a, dtype=np.int64)]
    b = vals[np.asarray(group_b, dtype=np.int64)]
    a = a[np.isfinite(a)]
    b = b[np.isfinite(b)]
    if a.size < 2 or b.size < 2:
        return None
    pooled_var = (float(np.var(a, ddof=1)) + float(np.var(b, ddof=1))) / 2.0
    if pooled_var == 0.0:
        return None
    return float(abs(a.mean() - b.mean()) / np.sqrt(pooled_var))


def _covariate_numeric_views(cohort: Cohort, name: str, kind: str) -> list[tuple[str, np.ndarray]]:
    """Numeric view(s) of one covariate for SMD purposes.

    Numeric and binary covariates yield themselves (nan for missing);
    categorical covariates yield one 0/1 indicator per observed level.
    """
    values = cohort.covariates[name]
    if kind in ("numeric", "binary"):
        return [(name, values)]
    return [
        (f"{name}={level}", (values == code).astype(float))
        for code, level in enumerate(cohort.covariate_levels[name])
    ]


def balance_report(
    cohort: Cohort,
    matched: MatchedSample,
    covariates,
    min_matched_n: int = 100,
    *,
    propensity: PropensityResult,
) -> BalanceReport:
    """Covariate SMDs before and after matching for one contrast.

    "Before" compares the two levels over the records the propensity model
    saw (``propensity``, from match_contrast); "after" compares the two arms
    of the matched pairs.  ``passes_min_n`` reports whether the matched
    sample reaches ``min_matched_n`` records counting both arms.
    """
    if (propensity.attribute, propensity.treated_level, propensity.control_level) != (
        matched.attribute, matched.treated_level, matched.control_level
    ):
        raise ValueError("propensity result belongs to a different contrast than the matched sample; "
                         "build both via match_contrast")
    before_a = propensity.indices[propensity.treated]
    before_b = propensity.indices[~propensity.treated]

    rows: list[CovariateBalance] = []
    for name in covariates:
        kind = next((col.kind for col in cohort.schema.covariate_columns if col.name == name), None)
        if kind is None:
            raise PropensityError(f"unknown covariate {name!r} in balance report")
        for label, arr in _covariate_numeric_views(cohort, name, kind):
            rows.append(
                CovariateBalance(
                    name=label,
                    smd_before=smd(arr, before_a, before_b),
                    smd_after=smd(arr, matched.treated, matched.control) if matched.treated.size else None,
                )
            )
    return BalanceReport(
        covariates=tuple(rows),
        matched_n=matched.n_matched,
        passes_min_n=matched.n_matched >= min_matched_n,
    )


def export_pairs(cohort: Cohort, matched: MatchedSample, path) -> None:
    """Write matched pairs as csv: treated_id, control_id, distance."""
    with open(os.fspath(path), "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["treated_id", "control_id", "distance"])
        ids = np.asarray(cohort.ids, dtype=object)
        writer.writerows(zip(ids[matched.treated], ids[matched.control], map(repr, matched.distance.tolist())))
