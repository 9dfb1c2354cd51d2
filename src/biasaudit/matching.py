"""Propensity-score matching between two protected-attribute levels.

The pipeline mirrors the usual observational-study recipe: estimate the
probability of belonging to the smaller ("treated") level from covariates,
then greedily pair each treated record with the nearest unmatched control on
the logit-propensity scale, subject to a caliper.  Balance is judged by
standardized mean differences before and after matching.
"""

from __future__ import annotations

import os
import warnings
from dataclasses import dataclass, replace
from functools import cached_property
from itertools import repeat

import numpy as np

from .cohort import Cohort, _csv_fields, _level_members, attribute_values, subset_positions
from .errors import PropensityError
from .glm import LogisticModel, encode_design, fit_logistic, predict_proba

_CLIP = 1e-12
# The visits ``greedy_match`` takes as Python numbers at a time.
_VISIT_BLOCK = 4096


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
        scalars = ("unmatched_treated", "caliper", "attribute", "treated_level", "control_level")
        columns = ("treated", "control", "distance")
        return (all(getattr(self, f) == getattr(other, f) for f in scalars)
                and all(np.array_equal(getattr(self, f), getattr(other, f)) for f in columns))

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
    optionally restricts the rows considered (distinct record positions, see
    ``subset_positions``); ``indices`` keep its order.
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

    indices, flags = _contrast_records(cohort, attribute, treated_level, control_level, subset)
    n_control, n_treated = np.bincount(flags, minlength=2).tolist()
    if n_treated < 2 or n_control < 2:
        raise PropensityError(
            f"need at least two records per level, got {n_treated} {treated_level!r} "
            f"and {n_control} {control_level!r} on {attribute!r}"
        )

    design = encode_design(cohort, indices, names)
    model = fit_logistic(design, flags.astype(float), ridge=ridge)
    prop = predict_proba(model, design)
    return PropensityResult(
        indices=indices,
        treated=flags,
        propensities=prop,
        model=model,
        attribute=attribute,
        treated_level=treated_level,
        control_level=control_level,
    )


def _contrast_records(cohort: Cohort, attribute: str, treated_level: str, control_level: str,
                      subset) -> tuple[np.ndarray, np.ndarray]:
    """The int64 positions of the ``subset`` records (all when None) at either
    level, in its order, and a bool array flagging the treated ones."""
    values = attribute_values(cohort, attribute)
    side = {**dict.fromkeys(_level_members(control_level), 0), **dict.fromkeys(_level_members(treated_level), 1)}
    pool = np.arange(cohort.n) if subset is None else subset_positions(subset, cohort.n)
    sides = np.fromiter(map(side.get, values, repeat(-1)), np.int8, count=len(values))[pool]
    return pool[sides >= 0], sides[sides >= 0] == 1


def _logit(p: np.ndarray) -> np.ndarray:
    q = np.clip(p, _CLIP, 1.0 - _CLIP)
    return np.log(q) - np.log1p(-q)


def _ascending(values: np.ndarray) -> np.ndarray:
    """Indices that sort ``values`` ascending, equal values by index.

    An unstable sort is several times faster on float64; it only needs
    redoing as a stable one when some values are equal.
    """
    order = np.argsort(values)
    ranked = values[order]
    if np.any(ranked[1:] == ranked[:-1]):
        order = np.argsort(values, kind="stable")
    return order


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
    disable the caliper (an empty input has none).  Rejected and unmatchable
    treated records are counted, never silently dropped.

    The match is one sweep down the logits.  Controls sorted by (logit,
    index) form runs of equal logits, and a run gives out its controls lowest
    index first, so it is a queue: ``live[r]`` is its next slot, and it is
    empty when that reaches ``end[r]``.  Since treated logits only fall, every
    run at or above the current one has been passed; the passed runs sit on a
    stack, lowest on top, so the top is the nearest run above.  The nearest
    run below is ``q``, the highest run not yet passed, which only moves
    down.  A treated record compares the two and takes the nearer front.

    Ties need a look past the nearest run on each side.  Two controls whose
    logits differ can round to the same distance only if they lie within
    ``spacing(max logit - min logit)`` of each other, so a tie walk steps to
    the next run only across a gap of at most four such spacings (``close``),
    and walks over empty runs while the distance still ties.  A tie can thus
    empty a run anywhere, so each visit first pops empty runs off the top and
    moves ``q`` down past empty runs.  Cost: an O(n log n) sort and an O(n)
    sweep, since each run is pushed and popped at most once and the tie walks
    only cross float-close runs.  The visits arrive ``_VISIT_BLOCK`` at a
    time, each block's logits and nearest runs as Python numbers and its
    claimed slots written into one int64 array, so the sweep never holds
    every visit as Python objects at once.
    """
    prop = np.asarray(propensities, dtype=float)
    flags = np.asarray(treated, dtype=bool)
    if prop.shape != flags.shape or prop.ndim != 1:
        raise ValueError("propensities and treated flags must be equal-length 1-d")
    if not np.all(np.isfinite(prop)):
        raise ValueError("propensities must be finite")
    logits = _logit(prop)

    caliper: float | None = None
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

    # Descending propensity; ties broken by ascending original position so the
    # visit order is deterministic.
    treated_pos = np.flatnonzero(flags)
    visit = treated_pos[_ascending(-logits[treated_pos])]

    # Slot k holds the control at position ``slot_control[k]``.
    control_pos = np.flatnonzero(~flags)
    slot_control = control_pos[_ascending(logits[control_pos])]
    sorted_logits = logits[slot_control]
    tie_gap = 4 * np.spacing(logits.max() - logits.min()) if sorted_logits.size else 0.0
    limit = float(np.finfo(float).max) if caliper is None else caliper
    # The sweep's Python lists are gone before the pairs are built.
    slots = _sweep(logits[visit], sorted_logits, slot_control, tie_gap, limit)

    hit = np.flatnonzero(slots >= 0)
    by_treated = hit[np.argsort(visit[hit])]
    treated_out, slots = visit[by_treated], slots[by_treated]
    return MatchedSample(treated_out, slot_control[slots], np.abs(sorted_logits[slots] - logits[treated_out]),
                         unmatched_treated=int(visit.size - treated_out.size), caliper=caliper)


def _sweep(visit_logits: np.ndarray, sorted_logits: np.ndarray, slot_control: np.ndarray,
           tie_gap: float, limit: float) -> np.ndarray:
    """The control slot each visit of ``greedy_match`` claims, -1 where the
    nearest is farther than ``limit``: the sweep its docstring describes,
    over the visits' logits in visit order and the controls' ascending
    ``sorted_logits``, slot k holding the control at ``slot_control[k]``."""
    # Run r spans slots [live[r], end[r]) at logit ``run_logit[r]``.
    m = sorted_logits.size
    starts = np.flatnonzero(np.diff(sorted_logits, prepend=-np.inf))
    run_logits = sorted_logits[starts]
    live = starts.tolist()
    end = [*live[1:], m]
    # close[r]: run r + 1 lies within tie_gap of run r; the trailing False
    # also stops a walk below run 0, which reads close[-1].
    close = np.append(np.diff(run_logits) <= tie_gap, False).tolist()
    run_logit = run_logits.tolist()

    stack: list[int] = []
    q = len(run_logit) - 1
    inf = np.inf
    slots = np.empty(visit_logits.size, dtype=np.int64)

    for b in range(0, visit_logits.size, _VISIT_BLOCK):
        block = visit_logits[b:b + _VISIT_BLOCK]
        chosen: list[int] = []
        for tl, lo in zip(block.tolist(), np.searchsorted(run_logits, block).tolist()):
            # Pass every run with logit >= tl.
            if q >= lo:
                stack.extend(range(q, lo - 1, -1))
                q = lo - 1
            # Drop emptied runs from both fronts.
            while stack and live[stack[-1]] == end[stack[-1]]:
                stack.pop()
            while q >= 0 and live[q] == end[q]:
                q -= 1
            best, d = -1, inf  # an empty side's infinite distance fails the limit
            if stack:
                r = best = stack[-1]
                d = run_logit[r] - tl
                while close[r] and run_logit[r + 1] - tl == d:
                    r += 1
                    if live[r] < end[r] and slot_control[live[r]] < slot_control[live[best]]:
                        best = r
            if q >= 0 and (dq := tl - run_logit[q]) <= d:
                if dq < d or slot_control[live[q]] < slot_control[live[best]]:
                    best, d = q, dq
                r = q
                while close[r - 1] and tl - run_logit[r - 1] == d:
                    r -= 1
                    if live[r] < end[r] and slot_control[live[r]] < slot_control[live[best]]:
                        best = r
            if d > limit:
                chosen.append(-1)
                continue
            s = live[best]
            chosen.append(s)
            live[best] = s + 1
        slots[b:b + block.size] = chosen

    return slots


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
    returned sample are cohort record positions.  ``subset`` restricts the
    records as in ``estimate_propensity``.  A propensity fit that did not
    converge raises PropensityError rather than matching on its scores.
    """
    if subset is not None:
        subset = subset_positions(subset, cohort.n)
    n_b, n_a = np.bincount(_contrast_records(cohort, attribute, level_a, level_b, subset)[1], minlength=2)
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
    """Write matched pairs as csv: treated_id, control_id, distance.

    Only the matched ids are gathered, each side quoted as
    ``cohort._csv_fields`` says (only an id that holds a comma, a quote or a
    line break needs quotes), and the rows, each distance as its repr, are
    joined and written in one piece.
    """
    ids = cohort.ids  # indexing one id at a time is faster than gathering a block, then converting it
    treated = _csv_fields([ids[i] for i in matched.treated.tolist()])
    control = _csv_fields([ids[i] for i in matched.control.tolist()])
    body = "".join([f"{t},{c},{d!r}\n" for t, c, d in zip(treated, control, matched.distance.tolist())])
    with open(os.fspath(path), "w", encoding="utf-8", newline="") as fh:
        fh.write("treated_id,control_id,distance\n" + body)
