"""Bootstrap subgroup audits, matched audits, and discrepancy summaries.

The central quantity everywhere is the diff-from-average: a subgroup's metric
minus the unweighted mean of that metric over all defined subgroups of the
same attribute.  Within every bootstrap replicate these diffs sum to zero
across defined levels by construction, so a positive cell always has a
negative counterweight somewhere in the same table.

Uncertainty: each cell collects one diff per bootstrap replicate.  The spread
of those replicate diffs is itself the standard error of the point estimate,
so the cell statistic is ``t = mean / sd`` (not mean / (sd/sqrt(B)) - the
replicates are B re-measurements of one quantity, not B independent
observations; dividing by sqrt(B) would let the false-positive rate grow
toward 1 as B grows, and a resampling check confirms exactly that).  Two-sided
p-values use a Student t reference with B - 1 degrees of freedom.
"""

from __future__ import annotations

import logging
import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from itertools import combinations

import numpy as np

from ._rng import stream
from .cohort import (Cohort, SubgroupPartition, _partition, label_values, score_values, subgroup_partition,
                     subset_positions)
from .errors import ConfigError, FitError, InsufficientDataError, PropensityError
from .matching import match_contrast
from .metrics import _THRESHOLD_METRICS, METRICS, ThresholdPolicy, _Sample

log = logging.getLogger(__name__)

STATUS_OK = "ok"
STATUS_INSUFFICIENT = "insufficient"
STATUS_SKIPPED = "skipped"
STATUS_FAILED = "failed"


@dataclass(frozen=True)
class AuditConfig:
    """Knobs shared by the subgroup and matched audits."""

    metrics: tuple[str, ...] = METRICS
    n_bootstrap: int = 150
    alpha: float = 0.05
    seed: int = 0
    threshold_policy: ThresholdPolicy = field(default_factory=ThresholdPolicy.youden)
    propensity_covariates: tuple[str, ...] = ()
    caliper_multiplier: float | None = 0.2
    min_group_size: int = 100
    min_matched_n: int = 100
    rounding: int = 2
    ridge: float = 1e-6

    def __post_init__(self):
        object.__setattr__(self, "metrics", tuple(self.metrics))
        object.__setattr__(self, "propensity_covariates", tuple(self.propensity_covariates))
        if not self.metrics:
            raise ConfigError("metrics list is empty")
        unknown = [m for m in self.metrics if m not in METRICS]
        if unknown:
            raise ConfigError(f"unknown metric(s) {', '.join(unknown)}; choose from {METRICS}")
        if len(set(self.metrics)) != len(self.metrics):
            raise ConfigError("duplicate metrics in config")
        if len(set(self.propensity_covariates)) != len(self.propensity_covariates):
            raise ConfigError(f"propensity_covariates must be a list of distinct names, "
                              f"got {list(self.propensity_covariates)}")
        if self.n_bootstrap < 2:
            raise ConfigError(f"n_bootstrap must be >= 2, got {self.n_bootstrap}")
        for name in ("alpha", "ridge", "caliper_multiplier"):
            value = getattr(self, name)
            if value is not None and not math.isfinite(value):
                raise ConfigError(f"{name} must be finite, got {value}")
        if not 0.0 < self.alpha < 1.0:
            raise ConfigError(f"alpha must be in (0, 1), got {self.alpha}")
        if self.min_group_size < 0:
            raise ConfigError("min_group_size must be >= 0")
        if self.min_matched_n < 0:
            raise ConfigError("min_matched_n must be >= 0")
        # Rounded values lie in [-2, 2], and rounding quantizes in the default
        # 28-digit decimal context, so 27 places is the most that always fits.
        if not 0 <= self.rounding <= 27:
            raise ConfigError(f"rounding must be in [0, 27], got {self.rounding}")
        if self.caliper_multiplier is not None and self.caliper_multiplier <= 0:
            raise ConfigError("caliper_multiplier must be positive or None")
        if self.ridge < 0:
            raise ConfigError("ridge must be >= 0")


@dataclass(frozen=True)
class TTestResult:
    t_stat: float
    p_value: float
    df: int
    degenerate: bool = False


@dataclass(frozen=True)
class SubgroupAuditResult:
    """One audited cell: (model, attribute, level, metric)."""

    model: str
    attribute: str
    level: str
    metric: str
    mean_diff: float | None
    sd: float | None
    t_stat: float | None
    p_value: float | None
    significant: bool | None
    n_effective: int
    status: str = STATUS_OK


@dataclass(frozen=True)
class MatchedCell:
    """One level-vs-opponent matched contrast seen from the level's side."""

    opponent: str
    status: str
    detail: str = ""
    result: SubgroupAuditResult | None = None


@dataclass(frozen=True)
class MatchedAuditResult:
    model: str
    attribute: str
    level: str
    cells: tuple[MatchedCell, ...]


@dataclass(frozen=True)
class DiscrepancySummary:
    """Largest minus smallest subgroup diff for one attribute and metric."""

    model: str
    attribute: str
    metric: str
    matching: str  # "before" or "after"
    gap: float
    n_levels: int


@dataclass(frozen=True)
class GroupDiff:
    value: float | None
    diff: float | None
    n: int


@dataclass(frozen=True)
class DeltaCell:
    attribute: str
    level: str
    metric: str
    phase: str  # "before" or "after"
    opponent: str | None
    delta: float | None


@dataclass(frozen=True)
class ComparisonReport:
    model_a: str
    model_b: str
    subgroup_a: tuple[SubgroupAuditResult, ...]
    subgroup_b: tuple[SubgroupAuditResult, ...]
    matched_a: tuple[MatchedAuditResult, ...]
    matched_b: tuple[MatchedAuditResult, ...]
    deltas: tuple[DeltaCell, ...]
    overall: dict


def _log_gamma_ratio_half(a: float) -> float:
    """``log(Gamma(a + 1/2) / Gamma(a))`` to near double precision at any ``a > 0``.

    Beyond a = 20 the difference of two ``lgamma`` values, each near
    ``a log(a)``, would keep their rounding error (about 1e-8 at a = 5e7), so
    the asymptotic series in odd powers of 1/a (error below 1e-15 there)
    takes over.
    """
    if a < 20.0:
        return math.lgamma(a + 0.5) - math.lgamma(a)
    u = 1.0 / (a * a)
    return 0.5 * math.log(a) - (1.0 - u * (1.0 / 24 - u * (1.0 / 80 - u * 17.0 / 1792))) / (8.0 * a)


def _beta_fraction(a: float, b: float, x: float) -> float:
    """Continued fraction of ``I_x(a, b) = x^a (1-x)^b / (a B(a, b)) * fraction``.

    Modified Lentz evaluation (Numerical Recipes 6.4), valid for
    ``x < (a+1)/(a+b+2)``, where it converges in O(sqrt(max(a, b))) terms.
    """
    tiny = 1e-300
    c = 1.0
    d = 1.0 - (a + b) * x / (a + 1.0)
    d = 1.0 / (d if abs(d) > tiny else tiny)
    h = d
    for m in range(1, 10_000):
        for numerator in (
            m * (b - m) * x / ((a + 2 * m - 1.0) * (a + 2 * m)),
            -(a + m) * (a + b + m) * x / ((a + 2 * m) * (a + 2 * m + 1.0)),
        ):
            d = 1.0 + numerator * d
            d = 1.0 / (d if abs(d) > tiny else tiny)
            c = 1.0 + numerator / c
            c = c if abs(c) > tiny else tiny
            h *= d * c
        if abs(d * c - 1.0) <= 2.3e-16:
            return h
    raise ArithmeticError(f"incomplete beta fraction did not converge (a={a}, b={b}, x={x})")


def _t_two_sided(t_stat: float, df: int) -> float:
    """Two-sided Student-t tail probability via the regularized beta function.

    P(|T| >= |t|) = I_x(df/2, 1/2) with x = df / (df + t^2).  The far tail,
    x < (df/2 + 1)/(df/2 + 5/2), is the continued fraction itself, so it keeps
    its relative precision; nearer the centre, where p is at least ~0.09, it is
    1 - I_{1-x}(1/2, df/2).  The logs of x and 1 - x come from t^2/df directly.
    """
    if df < 1:
        raise ValueError(f"df must be >= 1, got {df}")
    if math.isinf(t_stat):
        return 0.0
    if math.isnan(t_stat):
        return math.nan
    t2 = t_stat * t_stat
    if t2 == 0.0:
        return 1.0
    a = df / 2.0
    # x^a (1-x)^(1/2) / B(a, 1/2), with B(a, 1/2) = Gamma(a) sqrt(pi) / Gamma(a + 1/2)
    front = math.exp(
        -a * math.log1p(t2 / df) - 0.5 * math.log1p(df / t2)
        + _log_gamma_ratio_half(a) - 0.5 * math.log(math.pi)
    )
    x = df / (df + t2)
    if x < (a + 1.0) / (a + 2.5):
        return front / a * _beta_fraction(a, 0.5, x)
    return 1.0 - 2.0 * front * _beta_fraction(0.5, a, t2 / (df + t2))


def t_test_one_sample(samples, mu0: float = 0.0) -> TTestResult:
    """Classic one-sample t-test of H0: mean == mu0.

    ``t = (mean - mu0) / (sd / sqrt(n))`` with sample sd and ``df = n - 1``.
    Zero-variance input is flagged degenerate with p = 1 when the common
    value equals mu0 and p = 0 otherwise.
    """
    x = np.asarray(samples, dtype=float)
    if x.ndim != 1 or x.size < 2:
        raise ValueError("t-test needs a 1-d sample of size >= 2")
    if not np.all(np.isfinite(x)):
        raise ValueError("t-test input must be finite")
    n = x.size
    mean = float(x.mean())
    sd = float(x.std(ddof=1))
    df = n - 1
    if sd == 0.0:
        if mean == mu0:
            return TTestResult(t_stat=0.0, p_value=1.0, df=df, degenerate=True)
        sign = 1.0 if mean > mu0 else -1.0
        return TTestResult(t_stat=sign * math.inf, p_value=0.0, df=df, degenerate=True)
    t_stat = (mean - mu0) / (sd / math.sqrt(n))
    return TTestResult(t_stat=t_stat, p_value=_t_two_sided(t_stat, df), df=df)


def _diffs_from_values(values: np.ndarray) -> np.ndarray:
    """Diff-from-average along the last axis of ``values``; a row with fewer
    than 2 defined entries goes all-nan.

    A fully defined row is reduced in place, which sums it as its compressed
    copy would be (the same pairwise order over the same contiguous values);
    only rows with an undefined entry are compressed one by one.
    """
    out = values - values.mean(axis=-1, keepdims=True)
    for row in zip(*np.nonzero(~np.isfinite(values).all(axis=-1))):
        col = values[row]
        defined = np.isfinite(col)
        out[row] = np.nan
        if int(defined.sum()) >= 2:
            out[row][defined] = col[defined] - col[defined].mean()
    return out


def attribute_plan(cohort: Cohort, min_group_size: int, model: str | None = None):
    """Which protected attributes partition over the records ``model`` scored:
    ``(subset, partitions, skipped)``, where ``subset`` holds the scored record
    positions, read-only (None without a model: every record), ``partitions``
    the SubgroupPartition of each attribute that leaves two groups or more, in
    schema order, and ``skipped`` an ``(attribute, reason)`` for each other
    one.  Raises InsufficientDataError when the model scored no records."""
    subset = None
    if model is not None:
        subset = np.flatnonzero(~np.isnan(score_values(cohort, model)))
        if subset.size == 0:
            raise InsufficientDataError(f"model {model!r} scored no records")
        subset.flags.writeable = False  # the partitions share it
    partitions: list[SubgroupPartition] = []
    skipped: list[tuple[str, str]] = []
    for col in cohort.schema.protected_columns:
        try:
            partitions.append(subgroup_partition(cohort, col.name, min_group_size, subset=subset))
        except InsufficientDataError as exc:
            log.info("skipping attribute %r: %s", col.name, exc)
            skipped.append((col.name, str(exc)))
    return subset, tuple(partitions), tuple(skipped)


def _bootstrap_sample(cohort: Cohort, model: str, plan):
    """The ``_Sample`` of a model's eligible records with one partition per
    attribute of its ``attribute_plan`` (whose codes follow those records in
    order), and the attributes' (name, levels)."""
    eligible, partitions, _ = plan
    scores = score_values(cohort, model)[eligible]
    y = label_values(cohort)[eligible]
    codes = [(part.codes, len(part.levels)) for part in partitions]
    return _Sample(scores, y, codes), [(part.attribute, part.levels) for part in partitions]


def _run_replicates(fn, items: range, workers: int) -> list:
    """``[fn(item) for item in items]`` on ``n = min(workers, len(items))``
    threads: thread ``w`` runs items ``w``, ``w + n``, ``w + 2n`` and so on,
    the calling thread being thread 0 and ``n - 1`` helpers the rest, so the
    list does not depend on which thread finished first.  A helper's
    exception reaches the caller through its future.
    """
    n = min(workers, len(items))
    if n <= 1:
        return [fn(item) for item in items]
    results = [None] * len(items)
    with ThreadPoolExecutor(max_workers=n - 1) as pool:
        futures = [pool.submit(lambda w: [fn(item) for item in items[w::n]], w) for w in range(1, n)]
        results[0::n] = [fn(item) for item in items[0::n]]
        for w, future in enumerate(futures, 1):
            results[w::n] = future.result()
    return results


def _bootstrap_reduce(values: list[np.ndarray]) -> np.ndarray:
    """Each partition's (k, metric, level) values as diffs from the average,
    one row per replicate in (partition, level, metric) order."""
    return np.hstack([_diffs_from_values(v).transpose(0, 2, 1).reshape(v.shape[0], -1) for v in values])


def _matched_reduce(values: list[np.ndarray]) -> np.ndarray:
    """The treated-perspective diff per replicate and metric of the arms'
    (k, metric, 2) values: half the arm difference, nan unless both arms are
    defined."""
    (arms,) = values
    return (arms[..., 0] - arms[..., 1]) / 2.0


def _replicates(sample: _Sample, config: AuditConfig, tokens: tuple, reduce, workers: int = 1) -> np.ndarray:
    """The (n_bootstrap, columns) replicate matrix of ``sample``.

    Replicate b draws from ``stream(config.seed, *tokens, b)``, so a row does
    not depend on its block or on ``workers``.  Replicates run in blocks of
    ``sample.k``: one ``_Sample.evaluate`` counts and scores a block, and
    ``reduce`` runs once along its leading axis.
    """

    def block(lo: int) -> np.ndarray:
        rows = [stream(config.seed, *tokens, b).integers(0, sample.n, sample.n)
                for b in range(lo, min(lo + sample.k, config.n_bootstrap))]
        draws = rows[0][None] if len(rows) == 1 else np.stack(rows)
        return reduce(sample.evaluate(config.metrics, config.threshold_policy, draws))

    return np.vstack(_run_replicates(block, range(0, config.n_bootstrap, sample.k), workers))


def _cell_result(model: str, attribute: str, level: str, metric: str,
                 diffs: np.ndarray, alpha: float) -> SubgroupAuditResult:
    finite = diffs[np.isfinite(diffs)]
    n_eff = int(finite.size)
    if n_eff < 2:
        return SubgroupAuditResult(
            model=model, attribute=attribute, level=level, metric=metric,
            mean_diff=None, sd=None, t_stat=None, p_value=None,
            significant=None, n_effective=n_eff, status=STATUS_INSUFFICIENT,
        )
    mean = float(finite.mean())
    sd = float(finite.std(ddof=1))
    if sd == 0.0:
        t_stat = 0.0 if mean == 0.0 else math.copysign(math.inf, mean)
        p_value = 1.0 if mean == 0.0 else 0.0
    else:
        t_stat = mean / sd
        p_value = _t_two_sided(t_stat, n_eff - 1)
    return SubgroupAuditResult(
        model=model, attribute=attribute, level=level, metric=metric,
        mean_diff=mean, sd=sd, t_stat=t_stat, p_value=p_value,
        significant=bool(p_value < alpha), n_effective=n_eff, status=STATUS_OK,
    )


def group_diffs(cohort: Cohort, indices, attribute: str, metric: str, model: str,
                threshold: float | None = None, min_group_size: int = 1) -> dict:
    """Single-pass subgroup metric values and diff-from-average.

    Groups ``indices`` by attribute level, computes ``metric`` per group
    (None where undefined), and subtracts the unweighted mean over defined
    groups.  ``indices`` may repeat records, as a bootstrap resample does;
    each repeat counts.  Returns {level: GroupDiff(value, diff, n)} in
    partition order.  Threshold metrics require ``threshold``; a given one
    must be finite (ConfigError otherwise).  Raises InsufficientDataError
    when fewer than two levels have a defined metric, since no average exists
    to diff against.
    """
    if metric not in METRICS:
        raise ConfigError(f"unknown metric {metric!r}; choose from {METRICS}")
    if metric in _THRESHOLD_METRICS and threshold is None:
        raise ConfigError(f"metric {metric} needs a threshold")
    policy = None if threshold is None else ThresholdPolicy.fixed(threshold)
    part = _partition(cohort, attribute, min_group_size, subset_positions(indices, cohort.n, distinct=False))
    s = score_values(cohort, model)[part.positions]
    keep = ~np.isnan(s)
    sample = _Sample(s[keep], label_values(cohort)[part.positions][keep], [(part.codes[keep], len(part.levels))])
    (block,) = sample.evaluate((metric, "n"), policy)
    values, counts = block[0]
    defined = values[~np.isnan(values)]
    if defined.size < 2:
        raise InsufficientDataError(
            f"{metric} is defined for {defined.size} level(s) of {attribute!r}; "
            "need at least 2 to diff against their average"
        )
    avg = float(np.mean(defined))
    return {
        level: GroupDiff(value=None, diff=None, n=int(n)) if np.isnan(v)
        else GroupDiff(value=float(v), diff=float(v) - avg, n=int(n))
        for level, v, n in zip(part.levels, values, counts)
    }


def bootstrap_audit(cohort: Cohort, model: str, config: AuditConfig, workers: int = 1,
                    plan=None) -> list[SubgroupAuditResult]:
    """Bootstrap diff-from-average audit of one model across all attributes.

    Each replicate resamples the scored records with replacement (replicate
    ``b`` draws from its own random stream, so results do not depend on
    evaluation order or ``workers``), re-derives the decision threshold under
    the configured policy, and computes per-level diffs for every requested
    metric.  Cells with fewer than two defined replicates come back with
    status "insufficient" instead of fabricated statistics.  ``plan`` is the
    model's ``attribute_plan``, made here when not given.
    """
    if plan is None:
        plan = attribute_plan(cohort, config.min_group_size, model)
    sample, attributes = _bootstrap_sample(cohort, model, plan)
    if not attributes:
        return []
    cells = [(attr, level, m) for attr, names in attributes for level in names for m in config.metrics]
    draws = _replicates(sample, config, ("bootstrap",), _bootstrap_reduce, workers)
    return [
        _cell_result(model, attr, level, metric, draws[:, j], config.alpha)
        for j, (attr, level, metric) in enumerate(cells)
    ]


def matched_contrasts(cohort: Cohort, partitions, config: AuditConfig, subset):
    """Yield ``(attribute, level_a, level_b, status, detail, sample,
    propensity)`` for every pair of levels of every partition, in partition
    and level order, matched over the records in ``subset`` with the config's
    covariates, caliper and ridge.  A failed propensity fit gives "failed"
    with the error as detail and no sample; a matched sample below
    ``config.min_matched_n`` records gives "skipped" with its counts;
    otherwise "ok", with a detail only when the caliper fell back to none
    because the logit propensities have zero spread."""
    pairs = ((part.attribute, a, b) for part in partitions for a, b in combinations(part.levels, 2))
    for attribute, level_a, level_b in pairs:
        try:
            sample, prop = match_contrast(
                cohort, attribute, level_a, level_b, config.propensity_covariates,
                caliper_multiplier=config.caliper_multiplier, ridge=config.ridge, subset=subset,
            )
        except (FitError, PropensityError) as exc:
            yield attribute, level_a, level_b, STATUS_FAILED, str(exc), None, None
            continue
        if sample.n_matched < config.min_matched_n:
            detail = (f"{sample.treated.size} pairs ({sample.n_matched} records) "
                      f"below min_matched_n={config.min_matched_n}")
            yield attribute, level_a, level_b, STATUS_SKIPPED, detail, sample, prop
        else:
            zero_spread = config.caliper_multiplier is not None and sample.caliper is None
            detail = "caliper disabled: logit propensities have zero spread" if zero_spread else ""
            yield attribute, level_a, level_b, STATUS_OK, detail, sample, prop


def matched_audit(cohort: Cohort, model: str, config: AuditConfig, plan=None) -> list[MatchedAuditResult]:
    """Re-run the subgroup audit on propensity-matched pairs.

    Every pair of surviving levels is matched separately (smaller level
    treated); the paired structure is preserved by resampling pairs, not
    records.  With two matched arms the diff-from-average reduces to half the
    arm difference, mirrored in sign between the two perspectives.  Contrasts
    whose matched sample is too small are reported "skipped" with counts;
    propensity failures surface as "failed" cells rather than exceptions.
    ``plan`` is the model's ``attribute_plan``, made here when not given.
    Its replicates run on the calling thread, since threads made them slower.
    """
    if not config.propensity_covariates:
        raise ConfigError("matched audit needs propensity_covariates in the config")
    if plan is None:
        plan = attribute_plan(cohort, config.min_group_size, model)
    subset, partitions, _ = plan

    metrics = config.metrics
    y_all = label_values(cohort)
    s_all = score_values(cohort, model)

    per_level_cells: dict[tuple[str, str], list[MatchedCell]] = {
        (part.attribute, level): [] for part in partitions for level in part.levels
    }
    for attr, li, lj, status, detail, sample, _ in matched_contrasts(cohort, partitions, config, subset):
        if status != STATUS_OK:
            per_level_cells[(attr, li)].append(MatchedCell(opponent=lj, status=status, detail=detail))
            per_level_cells[(attr, lj)].append(MatchedCell(opponent=li, status=status, detail=detail))
            continue

        # Treated records are arm 0, their controls arm 1, each arm on its
        # own level grid; a replicate resamples pairs.
        pair_idx = np.concatenate([sample.treated, sample.control])
        n_pairs = sample.treated.size
        pairs = _Sample(s_all[pair_idx], y_all[pair_idx], [(np.repeat([0, 1], n_pairs), 2)], units=2)
        draws = _replicates(pairs, config, ("matched", attr, li, lj), _matched_reduce)
        arms = ((sample.treated_level, sample.control_level, 1.0),
                (sample.control_level, sample.treated_level, -1.0))
        for m_j, metric in enumerate(metrics):
            for level, opponent, sign in arms:
                res = _cell_result(model, attr, level, metric, sign * draws[:, m_j], config.alpha)
                per_level_cells[(attr, level)].append(
                    MatchedCell(opponent=opponent, status=res.status, detail=f"{n_pairs} pairs", result=res)
                )

    # Contrasts run in level order, so each level's cells are already in
    # opponent order.
    return [
        MatchedAuditResult(model=model, attribute=attr, level=level, cells=tuple(cells))
        for (attr, level), cells in per_level_cells.items()
    ]


def audit_model(cohort: Cohort, model: str, config: AuditConfig, workers: int = 1
                ) -> tuple[list[SubgroupAuditResult], list[MatchedAuditResult], tuple[tuple[str, str], ...]]:
    """``(subgroup, matched, skipped)`` of one model, planned once: its
    subgroup cells, its matched rows (only when the config names propensity
    covariates, none otherwise) and its plan's ``(attribute, reason)`` skips.
    ``workers`` threads share the bootstrap loop only."""
    plan = attribute_plan(cohort, config.min_group_size, model)
    subgroup = bootstrap_audit(cohort, model, config, workers, plan=plan)
    matched = matched_audit(cohort, model, config, plan=plan) if config.propensity_covariates else []
    return subgroup, matched, plan[2]


def summarize_discrepancy(
    subgroup_results,
    matched_results,
    metric: str,
) -> list[DiscrepancySummary]:
    """Max minus min subgroup diff per (model, attribute), before and after matching.

    Matched cells are collapsed per level first (unweighted mean over that
    level's ok contrasts), so a level matched against several opponents
    contributes one number.  Gaps are order-invariant in the levels and left
    unrounded; rendering applies display rounding.  Summaries run model by
    model, each model's attributes in their order of first appearance over
    all rows, "before" ahead of "after".
    """
    rows = (*subgroup_results, *matched_results)
    models = dict.fromkeys(r.model for r in rows)
    attrs = dict.fromkeys(r.attribute for r in rows)
    diffs: dict[tuple[str, str, str], list[float]] = {}
    for r in subgroup_results:
        if r.metric == metric and r.status == STATUS_OK and r.mean_diff is not None:
            diffs.setdefault((r.model, r.attribute, "before"), []).append(r.mean_diff)
    for row in matched_results:
        vals = [c.result.mean_diff for c in row.cells
                if c.status == STATUS_OK and c.result is not None
                and c.result.metric == metric and c.result.mean_diff is not None]
        if vals:
            diffs.setdefault((row.model, row.attribute, "after"), []).append(float(np.mean(vals)))
    return [
        DiscrepancySummary(model=model, attribute=attr, metric=metric, matching=matching,
                           gap=float(max(values) - min(values)), n_levels=len(values))
        for model in models for attr in attrs for matching in ("before", "after")
        for values in [diffs.get((model, attr, matching), ())] if len(values) >= 2
    ]


def compare_models(cohort: Cohort, model_a: str, model_b: str, config: AuditConfig, workers: int = 1) -> ComparisonReport:
    """Audit two score columns side by side on the same cohort.

    Replicate randomness depends only on (seed, replicate), so when both
    models score the same records the two audits resample identical index
    sets and cell deltas are paired.  Deltas are model_b minus model_a,
    None when either side is unavailable.
    """
    if model_a == model_b:
        raise ConfigError("compare_models needs two distinct score columns")
    for m in (model_a, model_b):
        if m not in cohort.model_names:
            raise ConfigError(f"unknown model {m!r}; cohort has {cohort.model_names}")

    sub_a, mat_a, _ = audit_model(cohort, model_a, config, workers)
    sub_b, mat_b, _ = audit_model(cohort, model_b, config, workers)
    return build_comparison(cohort, model_a, model_b, config, sub_a, sub_b, mat_a, mat_b)


def build_comparison(
    cohort: Cohort,
    model_a: str,
    model_b: str,
    config: AuditConfig,
    sub_a,
    sub_b,
    mat_a=(),
    mat_b=(),
) -> ComparisonReport:
    """Pair already-computed audit results of two models into a comparison.

    Each of model_a's subgroup cells, then each of its matched cells with a
    result, gives one delta: model_b's cell minus model_a's when both exist
    and are "ok", None otherwise."""
    def cells(subgroup, matched):
        # ((attribute, level, metric, phase, opponent), status, mean_diff)
        for r in subgroup:
            yield (r.attribute, r.level, r.metric, "before", None), r.status, r.mean_diff
        for row in matched:
            for c in row.cells:
                if c.result is not None:
                    key = (row.attribute, row.level, c.result.metric, "after", c.opponent)
                    yield key, c.status, c.result.mean_diff

    cells_b = {key: (status, diff) for key, status, diff in cells(sub_b, mat_b)}
    deltas = []
    for key, status, diff in cells(sub_a, mat_a):
        status_b, diff_b = cells_b.get(key, (None, None))
        deltas.append(DeltaCell(*key, delta=diff_b - diff if status == status_b == STATUS_OK else None))

    overall: dict = {}
    # Each row names its threshold ahead of the metrics when a metric needs one.
    names = (("threshold",) if any(m in _THRESHOLD_METRICS for m in config.metrics) else ()) + config.metrics
    for m in (model_a, model_b):
        scores = score_values(cohort, m)
        keep = ~np.isnan(scores)
        sample = _Sample(scores[keep], label_values(cohort)[keep], [(0, 1)])
        (values,) = sample.evaluate(names, config.threshold_policy)
        entry: dict = {"n": int(keep.sum())}
        for name, v in zip(names, values[0, :, 0]):
            entry[name] = None if np.isnan(v) else float(v)
        overall[m] = entry

    return ComparisonReport(
        model_a=model_a, model_b=model_b,
        subgroup_a=tuple(sub_a), subgroup_b=tuple(sub_b),
        matched_a=tuple(mat_a), matched_b=tuple(mat_b),
        deltas=tuple(deltas), overall=overall,
    )
