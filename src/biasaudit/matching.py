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

    The match is one sweep down the logits.  Controls sit in slots sorted by
    (logit, index); equal logits form a run.  Since treated logits only
    fall, every control at or above the current one has been passed, and the
    live ones sit on a stack in slot order, lowest on top: the top is the
    nearest control above.  The nearest below is the run ending at the claim
    pointer, the highest slot not yet passed, which only moves down.  A
    treated record compares the two and pops the top or claims below.  A run
    gives up its members from its lowest slot, so its live members stay a
    contiguous block of slots (and of stack entries).

    Ties need a look past the nearest run on each side.  Two controls whose
    logits differ can round to the same distance only if they lie within
    ``spacing(max logit - min logit)`` of each other, so only a gap of at
    most four such spacings (the ``close`` flags) lets the search step on to
    the next run.  A tie won below the nearest run leaves a claimed slot
    under the pointer; once one exists, passing the pointer and reading
    below it skip claimed slots.  Cost: an O(n log n) sort and an O(n)
    sweep, since each control is pushed and removed at most once and the
    tie steps only cross float-close runs.
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
    visit_logits = logits[visit]

    # Slot k holds the control at position ``slot_control[k]``; a run of equal
    # logits spans slots [run_start, run_end], ascending by position.
    control_pos = np.flatnonzero(~flags)
    slot_control = control_pos[_ascending(logits[control_pos])]
    sorted_logits = logits[slot_control]
    m = sorted_logits.size
    new_run = np.ones(m, dtype=bool)
    new_run[1:] = sorted_logits[1:] != sorted_logits[:-1]
    starts = np.flatnonzero(new_run)
    run = np.cumsum(new_run) - 1
    run_start = starts[run]
    run_end = np.append(starts[1:], m)[run] - 1
    tie_gap = 4 * np.spacing(logits.max() - logits.min()) if m else 0.0
    close = np.diff(sorted_logits) <= tie_gap
    close_up = np.append(close, False)[run_end].tolist()  # the gap above the slot's run
    close_down = np.insert(close, 0, False)[run_start].tolist()  # the gap below it
    c_logit = sorted_logits.tolist()

    stack: list[int] = []
    p = m - 1  # the claim pointer
    low = run_start.tolist()  # at a run's last slot, its lowest live slot until passed
    taken = [False] * m
    holes = False
    limit = float(np.finfo(float).max) if caliper is None else caliper
    chosen: list[int] = []  # the claimed slot per visit, -1 when unmatched

    def tie_above(best: int, d: float, tl: float) -> tuple[int, int]:
        """The winning slot at or above ``tl`` and its stack index."""
        i = best_i = len(stack) - 1
        s = best
        while close_up[s]:
            i -= run_end[s] - s + 1
            if i < 0:
                break
            s = stack[i]
            if c_logit[s] - tl != d:
                break
            if slot_control[s] < slot_control[best]:
                best, best_i = s, i
        return best, best_i

    def tie_below(best: int, k: int, d: float, tl: float) -> int:
        """The winning slot below ``tl``; ``k`` ends the nearest live run."""
        while close_down[k]:
            k = run_start[k] - 1
            if low[k] > k:  # every member claimed
                continue
            if tl - c_logit[k] != d:
                break
            if slot_control[low[k]] < slot_control[best]:
                best = low[k]
        return best

    for tl, lo in zip(visit_logits.tolist(), np.searchsorted(sorted_logits, visit_logits).tolist()):
        # Pass every slot with logit >= tl.
        if p >= lo:
            stack.extend([s for s in range(p, lo - 1, -1) if not taken[s]] if holes else range(p, lo - 1, -1))
            p = lo - 1
        if holes:
            while p >= 0 and taken[p]:
                p -= 1
        up, d_up, up_i = -1, np.inf, -1
        if stack:
            up = stack[-1]
            d_up = c_logit[up] - tl
            if close_up[up]:
                up, up_i = tie_above(up, d_up, tl)
        down, d_down = -1, np.inf
        if p >= 0:
            down = low[p]
            d_down = tl - c_logit[p]
            if close_down[p]:
                down = tie_below(down, p, d_down, tl)
        # An empty side's infinite distance always fails the limit.
        if d_down < d_up or (d_down == d_up and d_down <= limit and slot_control[down] < slot_control[up]):
            if d_down > limit:
                chosen.append(-1)
            elif down == p:
                p -= 1
                chosen.append(down)
            else:
                taken[down] = True
                low[run_end[down]] = down + 1
                holes = True
                chosen.append(down)
        elif d_up <= limit:
            del stack[up_i]
            chosen.append(up)
        else:
            chosen.append(-1)

    slots = np.asarray(chosen, dtype=np.int64)
    hit = slots >= 0
    by_treated = np.argsort(visit[hit])
    treated_out = visit[hit][by_treated]
    slots = slots[hit][by_treated]
    return MatchedSample(treated_out, slot_control[slots], np.abs(sorted_logits[slots] - logits[treated_out]),
                         unmatched_treated=int(visit.size - treated_out.size), caliper=caliper)


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

    The id column is encoded once per call, quoted as
    ``cohort._csv_fields`` says (only an id that holds a comma, a quote or a
    line break needs quotes), and the rows, each distance as its repr, are
    joined and written in one piece.
    """
    ids = np.asarray(_csv_fields(list(cohort.ids)), dtype=object)
    treated, control = ids[matched.treated].tolist(), ids[matched.control].tolist()
    body = "".join([f"{t},{c},{d!r}\n" for t, c, d in zip(treated, control, matched.distance.tolist())])
    with open(os.fspath(path), "w", encoding="utf-8", newline="") as fh:
        fh.write("treated_id,control_id,distance\n" + body)
