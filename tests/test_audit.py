"""Subgroup audits: t-tests, diff-from-average, bootstrap cells, matching, comparison."""

import math
import threading
import warnings
from concurrent.futures import Future
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra.numpy import arrays
from scipy.special import expit

from biasaudit import audit, metrics
from biasaudit._rng import stream

from biasaudit.audit import (
    METRICS,
    STATUS_FAILED,
    STATUS_INSUFFICIENT,
    STATUS_OK,
    STATUS_SKIPPED,
    AuditConfig,
    MatchedAuditResult,
    MatchedCell,
    SubgroupAuditResult,
    ThresholdPolicy,
    audit_model,
    bootstrap_audit,
    build_comparison,
    compare_models,
    group_diffs,
    matched_audit,
    summarize_discrepancy,
    _t_two_sided,
    t_test_one_sample,
)
from biasaudit.cohort import label_values
from biasaudit.metrics import auroc, confusion, threshold_metrics, youden_threshold
from biasaudit.errors import ConfigError, InsufficientDataError

from helpers import build_cohort
from oracles import loop_replicates, pairwise_auroc, t_two_sided_p


def auroc_group(n_neg: int, wins: int):
    """Labels/scores whose AUROC is exactly wins/n_neg.

    One positive sits strictly between the wins-th and (wins+1)-th of
    ``n_neg`` distinct negatives, so the pair count is exact and the
    final float division is the only rounding step.
    """
    scores = [(j + 1) / (n_neg + 2) for j in range(n_neg)]
    scores.append((wins + 0.5) / (n_neg + 2))
    labels = [0] * n_neg + [1]
    return labels, scores


def grouped_cohort(groups):
    """Concatenate (labels, scores) per level into one cohort with attribute g."""
    labels, scores, level_col = [], [], []
    for level, (yg, sg) in groups.items():
        labels.extend(yg)
        scores.extend(sg)
        level_col.extend([level] * len(yg))
    return build_cohort(labels=labels, scores=scores, protected={"g": level_col})


class TestTTestOneSample:
    def test_worked_example_one_through_five(self):
        result = t_test_one_sample([1, 2, 3, 4, 5])
        assert result.t_stat == pytest.approx(3.0 * math.sqrt(2.0), abs=1e-12)
        assert result.df == 4
        assert result.p_value == pytest.approx(0.0132, abs=0.0005)
        assert not result.degenerate

    def test_p_value_matches_integration_oracle(self):
        result = t_test_one_sample([1, 2, 3, 4, 5])
        assert result.p_value == pytest.approx(
            t_two_sided_p(result.t_stat, result.df), abs=1e-10
        )

    def test_tail_matches_oracle_to_relative_precision(self):
        # Far-tail p-values reach 1e-80 and below; each must keep its
        # relative precision, which a 1 - I_x complement would lose.
        for df in (1, 2, 3, 29, 149, 2999):
            for t in np.concatenate([[0.0], np.geomspace(1e-3, 60.0, 19)]):
                expected = t_two_sided_p(t, df)
                for signed in (t, -t):
                    p = _t_two_sided(signed, df)
                    if expected < 1e-300:
                        assert p < 1e-300, (df, signed, p)
                    else:
                        assert abs(p - expected) <= 1e-12 * expected, (df, signed, p, expected)

    def test_sample_centred_on_mu0_gives_t_zero_p_one(self):
        result = t_test_one_sample([1, 2, 3, 4, 5], mu0=3.0)
        assert result.t_stat == 0.0
        assert result.p_value == 1.0

    def test_constant_sample_at_mu0_is_degenerate_p_one(self):
        result = t_test_one_sample([2.0, 2.0, 2.0], mu0=2.0)
        assert result.degenerate
        assert result.t_stat == 0.0
        assert result.p_value == 1.0
        assert result.df == 2

    def test_constant_sample_off_mu0_is_degenerate_p_zero(self):
        result = t_test_one_sample([2.0, 2.0, 2.0], mu0=1.0)
        assert result.degenerate
        assert result.t_stat == math.inf
        assert result.p_value == 0.0
        below = t_test_one_sample([2.0, 2.0, 2.0], mu0=3.0)
        assert below.t_stat == -math.inf
        assert below.p_value == 0.0

    def test_too_small_sample_rejected(self):
        with pytest.raises(ValueError):
            t_test_one_sample([1.0])

    def test_non_finite_sample_rejected(self):
        with pytest.raises(ValueError):
            t_test_one_sample([1.0, math.nan, 2.0])

    @given(
        st.lists(st.floats(-50, 50), min_size=2, max_size=30),
        st.floats(-5, 5),
    )
    def test_p_value_always_in_unit_interval(self, xs, mu0):
        result = t_test_one_sample(xs, mu0=mu0)
        assert 0.0 <= result.p_value <= 1.0

    @given(st.lists(st.floats(-20, 20), min_size=3, max_size=20))
    def test_shift_negates_t(self, xs):
        x = np.asarray(xs)
        r_pos = t_test_one_sample(x, mu0=-1.0)
        r_neg = t_test_one_sample(-x, mu0=1.0)
        if not r_pos.degenerate:
            assert r_neg.t_stat == pytest.approx(-r_pos.t_stat, rel=1e-9, abs=1e-9)
            assert r_neg.p_value == pytest.approx(r_pos.p_value, rel=1e-9, abs=1e-12)


class TestThresholdPolicy:
    def test_factories(self):
        assert ThresholdPolicy.youden().kind == "youden"
        fixed = ThresholdPolicy.fixed(0.3)
        assert fixed.kind == "fixed" and fixed.value == 0.3

    def test_unknown_kind_rejected(self):
        with pytest.raises(ConfigError, match="youden"):
            ThresholdPolicy(kind="quantile")

    def test_fixed_needs_value(self):
        with pytest.raises(ConfigError, match="value"):
            ThresholdPolicy(kind="fixed")

    def test_youden_takes_no_value(self):
        with pytest.raises(ConfigError, match="no value"):
            ThresholdPolicy(kind="youden", value=0.5)


class TestAuditConfig:
    def test_defaults(self):
        config = AuditConfig()
        assert config.metrics == METRICS
        assert config.n_bootstrap == 150
        assert config.alpha == 0.05
        assert config.threshold_policy.kind == "youden"

    @pytest.mark.parametrize(
        "kwargs, fragment",
        [
            ({"metrics": ()}, "empty"),
            ({"metrics": ("AUROC", "NPV")}, "unknown metric"),
            ({"metrics": ("AUROC", "AUROC")}, "duplicate"),
            ({"n_bootstrap": 1}, "n_bootstrap"),
            ({"alpha": 0.0}, "alpha"),
            ({"alpha": 1.0}, "alpha"),
            ({"min_group_size": -1}, "min_group_size"),
            ({"min_matched_n": -1}, "min_matched_n"),
            ({"rounding": -1}, "rounding"),
            ({"caliper_multiplier": 0.0}, "caliper"),
            ({"ridge": -1e-3}, "ridge"),
            ({"rounding": 28}, "rounding"),
        ],
    )
    def test_invalid_settings_rejected(self, kwargs, fragment):
        with pytest.raises(ConfigError, match=fragment):
            AuditConfig(**kwargs)

    def test_metric_list_coerced_to_tuple(self):
        config = AuditConfig(metrics=["AUROC", "SENS"])
        assert config.metrics == ("AUROC", "SENS")


class TestGroupDiffs:
    def test_resample_counts_repeats_and_rejects_bad_positions(self):
        cohort = grouped_cohort({"a": auroc_group(5, 4), "b": auroc_group(10, 9)})
        twice = group_diffs(cohort, list(range(cohort.n)) * 2, "g", "AUROC", "score")
        assert (twice["a"].n, twice["b"].n) == (12, 22)
        assert twice["a"].value == 0.8
        with pytest.raises(ValueError, match="lie in"):
            group_diffs(cohort, [-1, 0, 1], "g", "AUROC", "score")

    def test_two_groups_auroc_080_vs_090(self):
        cohort = grouped_cohort({"a": auroc_group(5, 4), "b": auroc_group(10, 9)})
        diffs = group_diffs(cohort, range(cohort.n), "g", "AUROC", "score")
        assert diffs["a"].value == 0.8
        assert diffs["b"].value == 0.9
        assert diffs["a"].diff == pytest.approx(-0.05, abs=1e-12)
        assert diffs["b"].diff == pytest.approx(0.05, abs=1e-12)
        assert diffs["a"].n == 6
        assert diffs["b"].n == 11

    def test_three_groups_around_085(self):
        cohort = grouped_cohort(
            {"x": auroc_group(50, 43), "y": auroc_group(20, 17), "z": auroc_group(25, 21)}
        )
        diffs = group_diffs(cohort, range(cohort.n), "g", "AUROC", "score")
        assert diffs["x"].value == 0.86
        assert diffs["y"].value == 0.85
        assert diffs["z"].value == 0.84
        assert diffs["x"].diff == pytest.approx(0.01, abs=1e-12)
        assert diffs["y"].diff == pytest.approx(0.0, abs=1e-12)
        assert diffs["z"].diff == pytest.approx(-0.01, abs=1e-12)

    def test_identical_groups_have_zero_diffs(self):
        labels, scores = auroc_group(8, 6)
        cohort = grouped_cohort({"a": (labels, scores), "b": (labels, scores)})
        diffs = group_diffs(cohort, range(cohort.n), "g", "AUROC", "score")
        assert diffs["a"].diff == 0.0
        assert diffs["b"].diff == 0.0

    def test_undefined_level_is_reported_but_excluded_from_average(self):
        groups = {
            "a": auroc_group(5, 4),
            "b": auroc_group(10, 9),
            "c": ([1, 1, 1, 1], [0.2, 0.4, 0.6, 0.8]),  # single class: AUROC undefined
        }
        cohort = grouped_cohort(groups)
        diffs = group_diffs(cohort, range(cohort.n), "g", "AUROC", "score")
        assert diffs["c"].value is None
        assert diffs["c"].diff is None
        assert diffs["c"].n == 4
        assert diffs["a"].diff == pytest.approx(-0.05, abs=1e-12)
        assert diffs["b"].diff == pytest.approx(0.05, abs=1e-12)

    def test_fewer_than_two_defined_levels_is_an_error(self):
        groups = {
            "a": auroc_group(5, 4),
            "c": ([1, 1, 1, 1], [0.2, 0.4, 0.6, 0.8]),
        }
        cohort = grouped_cohort(groups)
        with pytest.raises(InsufficientDataError, match="1 level"):
            group_diffs(cohort, range(cohort.n), "g", "AUROC", "score")

    def test_unknown_metric_rejected(self):
        cohort = grouped_cohort({"a": auroc_group(5, 4), "b": auroc_group(5, 3)})
        with pytest.raises(ConfigError, match="unknown metric"):
            group_diffs(cohort, range(cohort.n), "g", "NPV", "score")

    def test_threshold_metric_without_threshold_rejected(self):
        cohort = grouped_cohort({"a": auroc_group(5, 4), "b": auroc_group(5, 3)})
        with pytest.raises(ConfigError, match="threshold"):
            group_diffs(cohort, range(cohort.n), "g", "SENS", "score")

    def test_threshold_metric_with_threshold(self):
        groups = {
            "a": ([1, 1, 0, 0], [0.9, 0.2, 0.1, 0.1]),  # SENS at 0.5: 1/2
            "b": ([1, 1, 0, 0], [0.9, 0.8, 0.1, 0.1]),  # SENS at 0.5: 2/2
        }
        cohort = grouped_cohort(groups)
        diffs = group_diffs(cohort, range(cohort.n), "g", "SENS", "score", threshold=0.5)
        assert diffs["a"].value == 0.5
        assert diffs["b"].value == 1.0
        assert diffs["a"].diff == pytest.approx(-0.25, abs=1e-12)
        assert diffs["b"].diff == pytest.approx(0.25, abs=1e-12)

    def test_model_argument_selects_score_column(self):
        labels = [0, 0, 0, 1, 1, 0, 0, 1]
        s1 = [0.1, 0.2, 0.3, 0.9, 0.8, 0.4, 0.5, 0.6]
        s2 = [1.0 - v for v in s1]
        cohort = build_cohort(
            labels=labels,
            scores={"m1": s1, "m2": s2},
            protected={"g": ["a"] * 4 + ["b"] * 4},
        )
        d1 = group_diffs(cohort, range(cohort.n), "g", "AUROC", "m1")
        d2 = group_diffs(cohort, range(cohort.n), "g", "AUROC", "m2")
        for level in ("a", "b"):
            assert d2[level].value == pytest.approx(1.0 - d1[level].value, abs=1e-12)

    def test_small_levels_dropped_by_min_group_size(self):
        groups = {
            "a": auroc_group(8, 6),
            "b": auroc_group(8, 5),
            "tiny": ([0, 1], [0.2, 0.9]),
        }
        cohort = grouped_cohort(groups)
        diffs = group_diffs(cohort, range(cohort.n), "g", "AUROC", "score", min_group_size=5)
        assert set(diffs) == {"a", "b"}

    @given(st.data())
    @settings(max_examples=60)
    def test_defined_diffs_sum_to_zero(self, data):
        n_groups = data.draw(st.integers(2, 5))
        labels, scores, level_col = [], [], []
        for g in range(n_groups):
            size = data.draw(st.integers(2, 12))
            yg = data.draw(
                st.lists(st.integers(0, 1), min_size=size, max_size=size).filter(
                    lambda v: 0 < sum(v) < len(v)
                )
            )
            sg = data.draw(st.lists(st.floats(0.0, 1.0), min_size=size, max_size=size))
            labels.extend(yg)
            scores.extend(sg)
            level_col.extend([f"g{g}"] * size)
        cohort = build_cohort(labels=labels, scores=scores, protected={"g": level_col})
        diffs = group_diffs(cohort, range(cohort.n), "g", "AUROC", "score")
        total = sum(d.diff for d in diffs.values() if d.diff is not None)
        assert abs(total) <= 1e-12

    def test_auroc_values_equal_pairwise_auroc(self):
        # Tied scores, a resample that repeats records, and a tenth of the
        # records unscored by "score" (a second model keeps them in the
        # cohort); level c is small enough to hold one class in some draws.
        rng = np.random.default_rng(17)
        n = 240
        labels = (rng.random(n) < 0.4).astype(int)
        full = np.round(rng.random(n), 1)
        scores = full.copy()
        scores[rng.choice(n, n // 10, replace=False)] = np.nan
        groups = rng.choice(["a", "b", "c"], n, p=[0.5, 0.45, 0.05])
        cohort = build_cohort(labels=labels.tolist(), protected={"g": groups.tolist()},
                              scores={"score": [None if np.isnan(v) else v for v in scores], "full": full.tolist()})
        for idx in (np.arange(n), rng.integers(0, n, n)):
            diffs = group_diffs(cohort, idx, "g", "AUROC", "score")
            for level in ("a", "b", "c"):
                mask = (groups[idx] == level) & ~np.isnan(scores[idx])
                y, s = labels[idx][mask], scores[idx][mask]
                assert diffs[level].n == mask.sum()
                if 0 < y.sum() < y.size:
                    assert diffs[level].value == pairwise_auroc(y, s)
                else:
                    assert diffs[level].value is None

    @pytest.mark.parametrize("threshold", [math.nan, math.inf, -math.inf])
    def test_non_finite_threshold_rejected(self, threshold):
        cohort = grouped_cohort({"a": auroc_group(5, 4), "b": auroc_group(5, 3)})
        for metric in ("SENS", "AUROC"):
            with pytest.raises(ConfigError, match="finite"):
                group_diffs(cohort, range(cohort.n), "g", metric, "score", threshold=threshold)


def signal_cohort(seed, n_per_group, levels, noise=None, extra_models=None):
    """Cohort where score tracks the label logit, optionally degraded per level.

    ``noise`` maps a level name to extra logit noise added to that level's
    scores, which lowers its AUROC relative to the others.
    """
    rng = np.random.default_rng(seed)
    labels, level_col = [], []
    score_cols = {"score": []}
    for m in extra_models or ():
        score_cols[m] = []
    for level in levels:
        x = rng.normal(0.0, 1.0, n_per_group)
        y = (rng.uniform(0, 1, n_per_group) < expit(2.0 * x)).astype(int)
        bump = rng.normal(0.0, noise[level], n_per_group) if noise and level in noise else 0.0
        labels.extend(y.tolist())
        level_col.extend([level] * n_per_group)
        score_cols["score"].extend(expit(2.0 * x + bump).tolist())
        for m in extra_models or ():
            score_cols[m].extend(expit(2.0 * x + bump + rng.normal(0, 0.01, n_per_group)).tolist())
    scores = score_cols if extra_models else score_cols["score"]
    return build_cohort(labels=labels, scores=scores, protected={"g": level_col})


class TestBootstrapAudit:
    def test_two_replicates_use_df_one(self):
        cohort = signal_cohort(0, 200, ("a", "b"))
        config = AuditConfig(metrics=("AUROC",), n_bootstrap=2, min_group_size=10, seed=3)
        results = bootstrap_audit(cohort, "score", config)
        assert len(results) == 2
        for cell in results:
            assert cell.status == STATUS_OK
            assert cell.n_effective == 2
            if cell.sd > 0:
                # df = 1: two-sided tail has the closed form 1 - (2/pi) atan|t|
                expected = 1.0 - (2.0 / math.pi) * math.atan(abs(cell.t_stat))
                assert cell.p_value == pytest.approx(expected, rel=1e-12)

    def test_deterministic_across_calls_and_workers(self):
        cohort = signal_cohort(1, 150, ("a", "b", "c"))
        config = AuditConfig(n_bootstrap=25, min_group_size=10, seed=11)
        serial = bootstrap_audit(cohort, "score", config, workers=1)
        again = bootstrap_audit(cohort, "score", config, workers=1)
        threaded = bootstrap_audit(cohort, "score", config, workers=4)
        assert serial == again
        assert serial == threaded

    def test_cells_cover_attribute_level_metric_grid(self):
        cohort = signal_cohort(2, 120, ("a", "b"))
        config = AuditConfig(metrics=("AUROC", "SENS"), n_bootstrap=5, min_group_size=10)
        results = bootstrap_audit(cohort, "score", config)
        keys = [(r.attribute, r.level, r.metric) for r in results]
        assert keys == [
            ("g", "a", "AUROC"),
            ("g", "a", "SENS"),
            ("g", "b", "AUROC"),
            ("g", "b", "SENS"),
        ]
        assert all(r.model == "score" for r in results)

    def test_significance_flag_matches_p_threshold(self):
        cohort = signal_cohort(3, 200, ("a", "b", "c"), noise={"c": 1.5})
        config = AuditConfig(n_bootstrap=40, min_group_size=10, alpha=0.2, seed=5)
        results = bootstrap_audit(cohort, "score", config)
        assert results
        for cell in results:
            if cell.status == STATUS_OK:
                assert cell.significant == (cell.p_value < 0.2)

    def test_mean_diffs_sum_to_zero_per_metric(self):
        cohort = signal_cohort(4, 300, ("a", "b", "c"))
        config = AuditConfig(
            metrics=("AUROC", "SENS", "FNR"), n_bootstrap=30, min_group_size=10, seed=7
        )
        results = bootstrap_audit(cohort, "score", config)
        for metric in ("AUROC", "SENS", "FNR"):
            cells = [r for r in results if r.metric == metric]
            assert all(c.status == STATUS_OK and c.n_effective == 30 for c in cells)
            assert abs(sum(c.mean_diff for c in cells)) <= 1e-12

    def test_degraded_group_flagged_negative_and_significant(self):
        cohort = signal_cohort(5, 750, ("f", "m"), noise={"f": 2.0})
        config = AuditConfig(metrics=("AUROC",), n_bootstrap=60, min_group_size=10, seed=9)
        results = {r.level: r for r in bootstrap_audit(cohort, "score", config)}
        assert results["f"].mean_diff < 0
        assert results["f"].significant
        assert results["m"].mean_diff > 0
        assert results["m"].significant

    def test_single_class_level_comes_back_insufficient(self):
        labels, scores, level_col = [], [], []
        rng = np.random.default_rng(6)
        for level in ("a", "c"):
            y = rng.integers(0, 2, 60)
            labels.extend(y.tolist())
            scores.extend(rng.uniform(0, 1, 60).tolist())
            level_col.extend([level] * 60)
        labels.extend([1] * 60)  # level b: positives only, AUROC never defined
        scores.extend(rng.uniform(0, 1, 60).tolist())
        level_col.extend(["b"] * 60)
        cohort = build_cohort(labels=labels, scores=scores, protected={"g": level_col})
        config = AuditConfig(metrics=("AUROC",), n_bootstrap=10, min_group_size=10)
        results = {r.level: r for r in bootstrap_audit(cohort, "score", config)}
        assert results["b"].status == STATUS_INSUFFICIENT
        assert results["b"].n_effective == 0
        assert results["b"].mean_diff is None
        assert results["b"].p_value is None
        assert results["b"].significant is None
        assert results["a"].status == STATUS_OK
        assert results["c"].status == STATUS_OK

    def test_attribute_below_min_size_is_left_out(self):
        rng = np.random.default_rng(7)
        n = 120
        y = rng.integers(0, 2, n)
        cohort = build_cohort(
            labels=y.tolist(),
            scores=rng.uniform(0, 1, n).tolist(),
            protected={
                "big": (["a"] * 60 + ["b"] * 60),
                "small": (["x"] * 3 + ["y"] * 117),
            },
        )
        config = AuditConfig(metrics=("AUROC",), n_bootstrap=5, min_group_size=50)
        results = bootstrap_audit(cohort, "score", config)
        assert {r.attribute for r in results} == {"big"}

    def test_unscored_model_rejected(self):
        # Rows survive parsing thanks to m1; m2 never scored anything.
        cohort = build_cohort(
            labels=[0, 1, 0, 1],
            scores={"m1": [0.1, 0.9, 0.2, 0.8], "m2": [None, None, None, None]},
            protected={"g": ["a", "a", "b", "b"]},
        )
        config = AuditConfig(metrics=("AUROC",), n_bootstrap=5, min_group_size=1)
        with pytest.raises(InsufficientDataError, match="scored no records"):
            bootstrap_audit(cohort, "m2", config)

    def test_fixed_threshold_policy_applies_everywhere(self):
        # Level a: every positive scores above 0.5, so SENS is 1.0 in every
        # replicate under a fixed 0.5 threshold and its diff is never negative.
        labels_a = [1] * 30 + [0] * 30
        scores_a = [0.8] * 30 + [0.2] * 30
        labels_b = [1] * 30 + [0] * 30
        scores_b = [0.8] * 15 + [0.2] * 15 + [0.2] * 30
        cohort = grouped_cohort({"a": (labels_a, scores_a), "b": (labels_b, scores_b)})
        config = AuditConfig(
            metrics=("SENS",),
            n_bootstrap=30,
            min_group_size=5,
            threshold_policy=ThresholdPolicy.fixed(0.5),
            seed=2,
        )
        results = {r.level: r for r in bootstrap_audit(cohort, "score", config)}
        assert results["a"].mean_diff > 0
        assert results["b"].mean_diff < 0


def paired_clone_cohort(n_pairs=120, seed=0):
    """Every record appears once per level with identical covariate/label/score."""
    rng = np.random.default_rng(seed)
    labels, scores, level_col, cov = [], [], [], []
    for _ in range(n_pairs):
        y = int(rng.integers(0, 2))
        s = float(rng.uniform(0, 1))
        for level in ("a", "b"):
            labels.append(y)
            scores.append(s)
            level_col.append(level)
            cov.append(50.0)
    return build_cohort(
        labels=labels, scores=scores, protected={"g": level_col}, covariates={"age": cov}
    )


class TestMatchedAudit:
    def test_requires_propensity_covariates(self):
        cohort = paired_clone_cohort()
        config = AuditConfig(metrics=("AUROC",), n_bootstrap=5, min_group_size=10)
        with pytest.raises(ConfigError, match="propensity_covariates"):
            matched_audit(cohort, "score", config)

    def test_identical_arms_give_exact_zero_diffs(self):
        cohort = paired_clone_cohort()
        config = AuditConfig(
            metrics=("AUROC", "SENS"),
            n_bootstrap=25,
            min_group_size=50,
            min_matched_n=50,
            propensity_covariates=("age",),
            seed=4,
        )
        with pytest.warns(UserWarning, match="caliper"):
            results = matched_audit(cohort, "score", config)
        assert len(results) == 2
        for row in results:
            assert len(row.cells) == 2  # one opponent, two metrics
            for cell in row.cells:
                assert cell.status == STATUS_OK
                assert cell.detail == "120 pairs"
                assert cell.result.mean_diff == 0.0
                assert cell.result.sd == 0.0
                assert cell.result.t_stat == 0.0
                assert cell.result.p_value == 1.0
                assert cell.result.significant is False

    def test_two_level_mirror_is_exact(self):
        rng = np.random.default_rng(8)
        n = 300
        x = rng.normal(0, 1, 2 * n)
        group = np.array(["a"] * n + ["b"] * n)
        y = (rng.uniform(0, 1, 2 * n) < expit(1.5 * x)).astype(int)
        s = expit(1.5 * x + rng.normal(0, 0.5, 2 * n))
        s[group == "b"] = expit(1.5 * x[group == "b"] + rng.normal(0, 1.5, n))
        cohort = build_cohort(
            labels=y.tolist(),
            scores=s.tolist(),
            protected={"g": group.tolist()},
            covariates={"x": x.tolist()},
        )
        config = AuditConfig(
            metrics=("AUROC",),
            n_bootstrap=30,
            min_group_size=50,
            min_matched_n=50,
            propensity_covariates=("x",),
            seed=6,
        )
        results = {r.level: r for r in matched_audit(cohort, "score", config)}
        cell_a = results["a"].cells[0]
        cell_b = results["b"].cells[0]
        assert cell_a.opponent == "b"
        assert cell_b.opponent == "a"
        assert cell_a.result.mean_diff == -cell_b.result.mean_diff
        assert cell_a.result.sd == cell_b.result.sd
        assert cell_a.result.t_stat == -cell_b.result.t_stat
        assert cell_a.result.p_value == cell_b.result.p_value
        assert cell_a.result.n_effective == cell_b.result.n_effective

    def test_numpy_string_levels_draw_the_same_replicates(self):
        # repr(np.str_('a')) is "np.str_('a')": the replicate streams key on
        # the level's Python value, so an equal cohort gives equal cells.
        rng = np.random.default_rng(10)
        n = 1500
        x = rng.normal(0, 1, n)
        group = rng.choice(["Black", "White", "Other"], n)
        y = (rng.uniform(0, 1, n) < expit(x)).astype(int)
        s = expit(x + rng.normal(0, 1, n))
        cohort = build_cohort(labels=y.tolist(), scores=s.tolist(), protected={"race": group.tolist()},
                              covariates={"x": x.tolist()})
        numpy_levels = replace(cohort, attribute_levels={
            name: tuple(np.str_(level) for level in levels) for name, levels in cohort.attribute_levels.items()})
        assert numpy_levels == cohort
        assert type(numpy_levels.attribute_levels["race"][0]) is np.str_
        config = AuditConfig(metrics=("AUROC",), n_bootstrap=20, min_group_size=50, min_matched_n=50,
                             propensity_covariates=("x",), seed=2)
        want = matched_audit(cohort, "score", config)
        assert all(cell.status == "ok" for row in want for cell in row.cells)
        assert matched_audit(numpy_levels, "score", config) == want

    def test_three_levels_audit_every_pairing_in_level_order(self):
        rng = np.random.default_rng(9)
        n = 150
        labels, scores, level_col, cov = [], [], [], []
        for level in ("x", "y", "z"):
            xv = rng.normal(0, 1, n)
            yv = (rng.uniform(0, 1, n) < expit(xv)).astype(int)
            labels.extend(yv.tolist())
            scores.extend(expit(xv + rng.normal(0, 0.3, n)).tolist())
            level_col.extend([level] * n)
            cov.extend(xv.tolist())
        cohort = build_cohort(
            labels=labels, scores=scores, protected={"g": level_col}, covariates={"c": cov}
        )
        config = AuditConfig(
            metrics=("AUROC", "SENS"),
            n_bootstrap=10,
            min_group_size=50,
            min_matched_n=20,
            propensity_covariates=("c",),
            seed=10,
        )
        results = {r.level: r for r in matched_audit(cohort, "score", config)}
        assert [c.opponent for c in results["x"].cells] == ["y", "y", "z", "z"]
        assert [c.opponent for c in results["y"].cells] == ["x", "x", "z", "z"]
        assert [c.opponent for c in results["z"].cells] == ["x", "x", "y", "y"]
        assert [c.result.metric for c in results["x"].cells] == ["AUROC", "SENS"] * 2

    def test_missing_level_is_matched_like_any_other(self):
        # 900 records, 20% missing g: the MISSING pseudo-level's contrasts
        # match its records, not a level literally named "MISSING".
        rng = np.random.default_rng(12)
        n = 900
        x = rng.normal(0, 1, n)
        y = (rng.uniform(0, 1, n) < expit(x)).astype(int)
        g = rng.choice(np.array(["a", "b"], dtype=object), n)
        g[rng.uniform(0, 1, n) < 0.2] = None
        cohort = build_cohort(
            labels=y.tolist(), scores=expit(x + rng.normal(0, 0.5, n)).tolist(),
            protected={"g": g.tolist()}, covariates={"c": x.tolist()},
        )
        config = AuditConfig(metrics=("AUROC",), n_bootstrap=5, min_group_size=50, min_matched_n=20,
                             propensity_covariates=("c",), seed=4)
        results = {r.level: r for r in matched_audit(cohort, "score", config)}
        assert list(results) == ["a", "b", "MISSING"]
        for level, row in results.items():
            for cell in row.cells:
                if "MISSING" in (level, cell.opponent):
                    assert cell.status == STATUS_OK, cell.detail
                    assert cell.result.metric == "AUROC"
                    assert int(cell.detail.removesuffix(" pairs")) > 0
        assert [c.opponent for c in results["MISSING"].cells] == ["a", "b"]

    def test_small_matched_sample_is_skipped_with_counts(self):
        rng = np.random.default_rng(10)
        n = 30
        labels, scores, level_col, cov = [], [], [], []
        for level in ("a", "b"):
            labels.extend(rng.integers(0, 2, n).tolist())
            scores.extend(rng.uniform(0, 1, n).tolist())
            level_col.extend([level] * n)
            cov.extend(rng.normal(0, 1, n).tolist())
        cohort = build_cohort(
            labels=labels, scores=scores, protected={"g": level_col}, covariates={"c": cov}
        )
        config = AuditConfig(
            metrics=("AUROC",),
            n_bootstrap=5,
            min_group_size=10,
            min_matched_n=100,
            propensity_covariates=("c",),
        )
        results = matched_audit(cohort, "score", config)
        assert len(results) == 2
        for row in results:
            (cell,) = row.cells
            assert cell.status == STATUS_SKIPPED
            assert cell.result is None
            assert "below min_matched_n=100" in cell.detail
            assert "pairs" in cell.detail and "records" in cell.detail

    def test_unfittable_contrast_is_failed_not_raised(self):
        rng = np.random.default_rng(11)
        labels, scores, level_col, cov = [], [], [], []
        sizes = {"a": 1, "b": 80, "c": 80}
        for level, n in sizes.items():
            labels.extend(rng.integers(0, 2, n).tolist())
            scores.extend(rng.uniform(0, 1, n).tolist())
            level_col.extend([level] * n)
            cov.extend(rng.normal(0, 1, n).tolist())
        cohort = build_cohort(
            labels=labels, scores=scores, protected={"g": level_col}, covariates={"c": cov}
        )
        config = AuditConfig(
            metrics=("AUROC",),
            n_bootstrap=8,
            min_group_size=1,
            min_matched_n=20,
            propensity_covariates=("c",),
            seed=12,
        )
        results = {r.level: r for r in matched_audit(cohort, "score", config)}
        statuses_a = [c.status for c in results["a"].cells]
        assert statuses_a == [STATUS_FAILED, STATUS_FAILED]
        assert all("two records" in c.detail for c in results["a"].cells)
        b_by_opp = {}
        for c in results["b"].cells:
            b_by_opp.setdefault(c.opponent, []).append(c.status)
        assert b_by_opp["a"] == [STATUS_FAILED]
        assert b_by_opp["c"] == [STATUS_OK]

    def test_non_converged_fit_is_failed_not_skipped(self):
        # Level a sits far out on x, so without a ridge its contrasts have a
        # separating covariate and the propensity fit cannot converge.
        rng = np.random.default_rng(13)
        n = 90
        x = rng.normal(0, 1, 3 * n)
        x[:n] += 20.0
        cohort = build_cohort(
            labels=rng.integers(0, 2, 3 * n).tolist(),
            scores=rng.uniform(0, 1, 3 * n).tolist(),
            protected={"g": ["a"] * n + ["b"] * n + ["c"] * n},
            covariates={"x": x.tolist()},
        )
        config = AuditConfig(
            metrics=("AUROC",),
            n_bootstrap=8,
            min_group_size=10,
            min_matched_n=20,
            propensity_covariates=("x",),
            ridge=0.0,
            seed=14,
        )
        results = {r.level: r for r in matched_audit(cohort, "score", config)}
        for cell in results["a"].cells:
            assert cell.status == STATUS_FAILED
            assert "propensity fit did not converge" in cell.detail
        b_vs = {c.opponent: c.status for c in results["b"].cells}
        assert b_vs == {"a": STATUS_FAILED, "c": STATUS_OK}

    def test_exchangeable_levels_rarely_flag(self):
        # Levels drawn from one distribution: any single cohort can land on a
        # real sample-level gap, so the check is a rate over seeds, not one run.
        flagged = 0
        diffs = []
        for seed in range(20):
            rng = np.random.default_rng(seed)
            n = 300
            x = rng.normal(0, 1, 2 * n)
            y = (rng.uniform(0, 1, 2 * n) < expit(x)).astype(int)
            s = expit(x + rng.normal(0, 0.5, 2 * n))
            cohort = build_cohort(
                labels=y.tolist(),
                scores=s.tolist(),
                protected={"g": ["a"] * n + ["b"] * n},
                covariates={"x": x.tolist()},
            )
            config = AuditConfig(
                metrics=("AUROC",),
                n_bootstrap=30,
                min_group_size=50,
                min_matched_n=50,
                propensity_covariates=("x",),
                seed=seed,
            )
            results = {r.level: r for r in matched_audit(cohort, "score", config)}
            cell = results["a"].cells[0].result
            flagged += int(cell.significant)
            diffs.append(cell.mean_diff)
        assert flagged <= 4
        assert abs(float(np.mean(diffs))) < 0.02

    def test_matched_deterministic_across_workers(self):
        rng = np.random.default_rng(15)
        n = 200
        x = rng.normal(0, 1, 2 * n)
        y = (rng.uniform(0, 1, 2 * n) < expit(x)).astype(int)
        cohort = build_cohort(
            labels=y.tolist(),
            scores=expit(x + rng.normal(0, 0.4, 2 * n)).tolist(),
            protected={"g": ["a"] * n + ["b"] * n, "h": ["u"] * (2 * n)},
            covariates={"x": x.tolist()},
        )
        config = AuditConfig(
            metrics=("AUROC", "SENS"),
            n_bootstrap=20,
            min_group_size=50,
            min_matched_n=50,
            propensity_covariates=("x",),
            seed=16,
        )
        # Threads share the bootstrap loop only; no output may depend on them.
        serial = audit_model(cohort, "score", config, workers=1)
        subgroup, matched, skipped = serial
        assert subgroup and matched and [attr for attr, _ in skipped] == ["h"]
        assert audit_model(cohort, "score", config, workers=4) == serial


def ok_cell(model, attr, level, metric, mean_diff):
    return SubgroupAuditResult(
        model=model, attribute=attr, level=level, metric=metric,
        mean_diff=mean_diff, sd=0.01, t_stat=mean_diff / 0.01,
        p_value=0.5, significant=False, n_effective=150,
    )


def matched_row(model, attr, level, contrasts):
    """contrasts: list of (opponent, mean_diff or None-for-skip)."""
    cells = []
    for opponent, diff in contrasts:
        if diff is None:
            cells.append(MatchedCell(opponent=opponent, status=STATUS_SKIPPED, detail="skipped"))
        else:
            cells.append(
                MatchedCell(
                    opponent=opponent,
                    status=STATUS_OK,
                    result=ok_cell(model, attr, level, "AUROC", diff),
                    detail="10 pairs",
                )
            )
    return MatchedAuditResult(model=model, attribute=attr, level=level, cells=tuple(cells))


class TestReplicateEngine:
    """The block engine (``audit._replicates``) against the one-replicate
    loop it replaced (``oracles.loop_replicates``), byte for byte."""

    @staticmethod
    def engine(sample, config, matched, budget, workers):
        reduce = audit._matched_reduce if matched else audit._bootstrap_reduce
        saved = metrics._BLOCK_CELLS
        metrics._BLOCK_CELLS = budget
        try:
            blocked = metrics._Sample(*sample)
            return blocked, audit._replicates(blocked, config, ("case",), reduce, workers)
        finally:
            metrics._BLOCK_CELLS = saved

    @st.composite
    def cases(draw):
        """A sample, its config, whether it is matched, a block budget and a
        worker count.  Scores sit on a coarse grid so ties and absent scores
        come up; labels may be nearly one class, so some replicates pool one
        class (no Youden cut) and some levels hold one class; a dense case
        puts both classes in each of up to 64 levels."""
        matched = draw(st.booleans())
        dense = not matched and draw(st.booleans())
        if dense:
            n_levels = draw(st.integers(2, 64))
            n = n_levels * draw(st.integers(2, 8))
        else:
            n = draw(st.integers(1, 40))
        units = 2 if matched else 1
        scores = draw(arrays(np.float64, units * n, elements=st.sampled_from(np.linspace(0, 1, 13))))
        if dense:
            labels = np.arange(n) // n_levels % 2
        else:
            rate = draw(st.sampled_from((0.03, 0.2, 0.5, 0.97)))
            labels = (draw(arrays(np.float64, units * n, elements=st.floats(0, 1))) < rate).astype(np.int64)
        if matched:
            partitions = [(np.repeat([0, 1], n), 2)]
        elif dense:
            partitions = [(np.arange(n) % n_levels, n_levels)]
        else:
            partitions = []
            for _ in range(draw(st.integers(1, 3))):
                n_levels = draw(st.integers(2, 64))
                codes = draw(arrays(np.int64, n, elements=st.integers(-1, n_levels - 1)))
                partitions.append((codes, n_levels))
        policy = draw(st.one_of(st.just(ThresholdPolicy.youden()),
                                st.sampled_from(np.linspace(-0.1, 1.1, 7)).map(ThresholdPolicy.fixed)))
        config = AuditConfig(
            metrics=tuple(draw(st.lists(st.sampled_from(METRICS), min_size=1, max_size=6, unique=True))),
            n_bootstrap=draw(st.integers(2, 41)), seed=draw(st.integers(0, 2**32)), threshold_policy=policy,
        )
        budget = draw(st.sampled_from((1, 8, 60, 300, 2**15)))
        return (scores, labels, partitions, units), config, matched, budget, draw(st.integers(1, 3))

    @settings(max_examples=150, deadline=None)
    @given(cases())
    def test_blocks_equal_one_replicate_loop(self, case):
        sample, config, matched, budget, workers = case
        blocked, got = self.engine(sample, config, matched, budget, workers)
        want = loop_replicates(blocked, config, ("case",), matched)
        assert got.shape == want.shape
        assert got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("policy", [ThresholdPolicy.youden(), ThresholdPolicy.fixed(0.5)])
    def test_partial_blocks_and_replicates_without_a_cut(self, policy):
        # One positive in three records: a replicate misses it with
        # probability 8/27, so some of the 37 have no Youden cut.  Blocks of
        # 4 leave a partial block of 1.
        scores = np.array([0.2, 0.4, 0.6])
        labels = np.array([0, 0, 1])
        sample = (scores, labels, [(np.array([0, 1, 1]), 2)], 1)
        config = AuditConfig(metrics=METRICS, n_bootstrap=37, seed=5, threshold_policy=policy)
        blocked, got = self.engine(sample, config, False, 4 * 2 * 4, 2)
        assert blocked.k == 4
        want = loop_replicates(blocked, config, ("case",), False)
        assert got.tobytes() == want.tobytes()
        draws = [stream(5, "case", b).integers(0, 3, 3) for b in range(37)]
        assert any(not labels[d].any() for d in draws)

    def test_block_size_keeps_tables_in_the_cell_budget(self):
        assert metrics.block_size(4001) == 4
        assert metrics.block_size(2**14) == 1
        assert metrics.block_size(2**14 + 1) == 1
        assert metrics.block_size(50_001) == 1
        assert metrics.block_size(1) == 2**14


def test_numpy_scalar_tokens_key_as_their_python_values():
    def draws(*tokens):
        return stream(7, *tokens).integers(0, 2**62, 4).tolist()

    assert draws(np.int64(3)) == draws(3)
    assert draws(np.str_("Black"), np.int64(3), np.float64(0.5)) == draws("Black", 3, 0.5)
    assert draws(np.int64(3)) != draws("3")


class TestReplicatePool:
    """``audit._run_replicates``: the calling thread runs its share of the
    blocks next to its helper threads."""

    def test_helpers_are_at_most_blocks_less_one(self, monkeypatch):
        created = []

        class RecordingExecutor:
            """Records the pool asked for and runs each helper's share inline: no thread starts."""

            def __init__(self, max_workers):
                created.append(max_workers)
                self.submitted = 0

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                created.append(("submitted", self.submitted))

            def submit(self, fn, *args):
                self.submitted += 1
                future = Future()
                future.set_result(fn(*args))
                return future

        monkeypatch.setattr("concurrent.futures.ThreadPoolExecutor", RecordingExecutor)
        assert audit._run_replicates(lambda i: i * i, range(5), 10**6) == [0, 1, 4, 9, 16]
        assert created == [4, ("submitted", 4)]
        assert audit._run_replicates(lambda i: i * i, range(7), 3) == [i * i for i in range(7)]
        assert created[2:] == [2, ("submitted", 2)]
        assert audit._run_replicates(lambda i: i, range(1), 10**6) == [0]
        assert audit._run_replicates(lambda i: i, range(0), 10**6) == []
        assert len(created) == 4  # one block or none: the caller alone, no pool

    def test_bootstrap_matrix_equal_at_any_worker_count(self, monkeypatch):
        matrices = []

        def spy(*args):
            matrices.append(replicates(*args))
            return matrices[-1]

        replicates = audit._replicates
        monkeypatch.setattr(audit, "_replicates", spy)
        monkeypatch.setattr(metrics, "_BLOCK_CELLS", 1)  # one replicate a block: 25 blocks
        cohort = signal_cohort(1, 150, ("a", "b", "c"))
        config = AuditConfig(n_bootstrap=25, min_group_size=10, seed=11)
        results = [bootstrap_audit(cohort, "score", config, workers=w) for w in (1, 2, 3, 100)]
        assert all(r == results[0] for r in results)
        assert matrices[0].shape[0] == 25
        assert all(m.tobytes() == matrices[0].tobytes() for m in matrices)

    def test_a_helpers_exception_reaches_the_caller(self):
        helper_started = threading.Event()

        def fn(item):
            if threading.current_thread() is threading.main_thread():
                assert helper_started.wait(timeout=30)  # the caller holds its blocks until a helper fails
                return item
            helper_started.set()
            raise RuntimeError(f"block {item} failed")

        with pytest.raises(RuntimeError, match=r"block 1 failed"):  # only a helper raises
            audit._run_replicates(fn, range(6), 2)


class TestSummarizeDiscrepancy:
    def test_before_gap_is_max_minus_min(self):
        rows = [
            ok_cell("m", "race", "a", "AUROC", 0.02),
            ok_cell("m", "race", "b", "AUROC", -0.01),
            ok_cell("m", "race", "c", "AUROC", -0.01),
        ]
        (summary,) = summarize_discrepancy(rows, [], "AUROC")
        assert summary.matching == "before"
        assert summary.gap == pytest.approx(0.03, abs=1e-15)
        assert summary.n_levels == 3

    def test_after_gap_collapses_each_level_first(self):
        matched = [
            matched_row("m", "race", "a", [("b", 0.01), ("c", -0.0)]),
            matched_row("m", "race", "b", [("a", -0.0), ("c", 0.0)]),
            matched_row("m", "race", "c", [("a", 0.0), ("b", -0.01)]),
        ]
        (summary,) = summarize_discrepancy([], matched, "AUROC")
        assert summary.matching == "after"
        assert summary.gap == pytest.approx(0.01, abs=1e-15)
        assert summary.n_levels == 3

    def test_identical_diffs_give_zero_gap(self):
        rows = [ok_cell("m", "g", lv, "AUROC", 0.0) for lv in ("a", "b", "c")]
        (summary,) = summarize_discrepancy(rows, [], "AUROC")
        assert summary.gap == 0.0

    def test_level_order_does_not_change_gaps(self):
        rows = [
            ok_cell("m", "g", "a", "AUROC", 0.03),
            ok_cell("m", "g", "b", "AUROC", -0.02),
            ok_cell("m", "g", "c", "AUROC", -0.01),
        ]
        forward = summarize_discrepancy(rows, [], "AUROC")
        backward = summarize_discrepancy(list(reversed(rows)), [], "AUROC")
        assert [(s.model, s.attribute, s.gap) for s in forward] == [
            (s.model, s.attribute, s.gap) for s in backward
        ]

    def test_non_ok_cells_and_other_metrics_ignored(self):
        rows = [
            ok_cell("m", "g", "a", "AUROC", 0.05),
            ok_cell("m", "g", "b", "AUROC", -0.05),
            ok_cell("m", "g", "c", "SENS", 0.5),
            SubgroupAuditResult(
                model="m", attribute="g", level="d", metric="AUROC",
                mean_diff=None, sd=None, t_stat=None, p_value=None,
                significant=None, n_effective=0, status=STATUS_INSUFFICIENT,
            ),
        ]
        (summary,) = summarize_discrepancy(rows, [], "AUROC")
        assert summary.gap == pytest.approx(0.1, abs=1e-15)
        assert summary.n_levels == 2

    def test_single_defined_level_yields_no_summary(self):
        rows = [ok_cell("m", "g", "a", "AUROC", 0.05)]
        assert summarize_discrepancy(rows, [], "AUROC") == []

    def test_models_and_attributes_kept_separate(self):
        rows = [
            ok_cell("m1", "g", "a", "AUROC", 0.02),
            ok_cell("m1", "g", "b", "AUROC", -0.02),
            ok_cell("m2", "g", "a", "AUROC", 0.1),
            ok_cell("m2", "g", "b", "AUROC", -0.1),
            ok_cell("m1", "h", "x", "AUROC", 0.01),
            ok_cell("m1", "h", "y", "AUROC", -0.01),
        ]
        summaries = {(s.model, s.attribute): s.gap for s in summarize_discrepancy(rows, [], "AUROC")}
        assert summaries[("m1", "g")] == pytest.approx(0.04, abs=1e-15)
        assert summaries[("m2", "g")] == pytest.approx(0.2, abs=1e-15)
        assert summaries[("m1", "h")] == pytest.approx(0.02, abs=1e-15)

    def test_output_runs_model_by_model_then_attribute_by_first_appearance(self):
        # m1 has matched rows only for "k", an attribute no subgroup row
        # names; m2 has them only for "g".  Each model lists the attributes
        # in their order of first appearance over all rows, before then after.
        rows = [ok_cell(m, attr, lv, "AUROC", d) for m in ("m1", "m2")
                for attr, levels in (("g", "ab"), ("h", "xy")) for lv, d in zip(levels, (0.01, -0.01))]
        matched = [
            matched_row("m2", "g", "a", [("b", 0.02)]),
            matched_row("m2", "g", "b", [("a", -0.02)]),
            matched_row("m1", "k", "p", [("q", 0.03), ("r", 0.01)]),
            matched_row("m1", "k", "q", [("p", -0.03)]),
            matched_row("m1", "k", "r", [("p", None)]),  # no ok contrast: no level value
        ]
        summaries = summarize_discrepancy(rows, matched, "AUROC")
        assert [(s.model, s.attribute, s.matching, s.n_levels) for s in summaries] == [
            ("m1", "g", "before", 2), ("m1", "h", "before", 2), ("m1", "k", "after", 2),
            ("m2", "g", "before", 2), ("m2", "g", "after", 2), ("m2", "h", "before", 2),
        ]
        assert summaries[2].gap == pytest.approx(0.05, abs=1e-15)


class TestCompareModels:
    def duplicate_column_cohort(self, seed=0, n=400):
        rng = np.random.default_rng(seed)
        x = rng.normal(0, 1, n)
        y = (rng.uniform(0, 1, n) < expit(1.5 * x)).astype(int)
        s = expit(1.5 * x + rng.normal(0, 0.4, n)).tolist()
        return build_cohort(
            labels=y.tolist(),
            scores={"m1": s, "m2": list(s)},
            protected={"g": ["a" if i % 2 else "b" for i in range(n)]},
        )

    def test_same_scores_under_two_names_give_zero_deltas(self):
        cohort = self.duplicate_column_cohort()
        config = AuditConfig(metrics=("AUROC", "SENS"), n_bootstrap=15, min_group_size=20, seed=21)
        report = compare_models(cohort, "m1", "m2", config)
        assert report.deltas
        for cell in report.deltas:
            assert cell.phase == "before"
            assert cell.delta == 0.0
        assert report.overall["m1"] == report.overall["m2"]

    def test_same_name_twice_rejected(self):
        cohort = self.duplicate_column_cohort()
        config = AuditConfig(metrics=("AUROC",), n_bootstrap=5, min_group_size=20)
        with pytest.raises(ConfigError, match="distinct"):
            compare_models(cohort, "m1", "m1", config)

    def test_unknown_model_rejected(self):
        cohort = self.duplicate_column_cohort()
        config = AuditConfig(metrics=("AUROC",), n_bootstrap=5, min_group_size=20)
        with pytest.raises(ConfigError, match="unknown model"):
            compare_models(cohort, "m1", "m9", config)

    def test_degradation_in_one_model_flips_significance(self):
        rng = np.random.default_rng(22)
        n = 600
        x = rng.normal(0, 1, 2 * n)
        group = ["f"] * n + ["m"] * n
        y = (rng.uniform(0, 1, 2 * n) < expit(2.0 * x)).astype(int)
        s1 = expit(2.0 * x + rng.normal(0, 0.1, 2 * n))
        s2 = s1.copy()
        s2[:n] = expit(2.0 * x[:n] + rng.normal(0, 2.0, n))  # degrade f under m2 only
        cohort = build_cohort(
            labels=y.tolist(),
            scores={"m1": s1.tolist(), "m2": s2.tolist()},
            protected={"g": group},
        )
        config = AuditConfig(metrics=("AUROC",), n_bootstrap=60, min_group_size=50, seed=23)
        report = compare_models(cohort, "m1", "m2", config)
        by_level_a = {r.level: r for r in report.subgroup_a}
        by_level_b = {r.level: r for r in report.subgroup_b}
        assert not by_level_a["f"].significant
        assert by_level_b["f"].significant
        f_delta = [d for d in report.deltas if d.level == "f" and d.metric == "AUROC"]
        assert f_delta[0].delta < -0.02

    def test_overall_block_reports_each_model(self):
        cohort = self.duplicate_column_cohort(seed=3)
        config = AuditConfig(metrics=("AUROC", "SENS"), n_bootstrap=10, min_group_size=20)
        report = compare_models(cohort, "m1", "m2", config)
        for name in ("m1", "m2"):
            entry = report.overall[name]
            assert entry["n"] == cohort.n
            assert "threshold" in entry
            assert 0.0 <= entry["AUROC"] <= 1.0
            assert 0.0 <= entry["SENS"] <= 1.0

    @pytest.mark.parametrize("value", [0.5, 1.5])
    def test_overall_block_reports_a_fixed_threshold_as_given(self, value):
        # 1.5 lies above every score: its cut is past the pooled grid, and
        # nothing is predicted positive.
        cohort = self.duplicate_column_cohort(seed=3)
        config = AuditConfig(metrics=("SENS", "SPEC"), n_bootstrap=10, min_group_size=20,
                             threshold_policy=ThresholdPolicy.fixed(value))
        entry = build_comparison(cohort, "m1", "m2", config, [], []).overall["m1"]
        scores, labels = np.array(cohort.scores["m1"]), np.array(label_values(cohort))
        assert entry["threshold"] == value
        assert entry["SENS"] == np.mean(scores[labels == 1] >= value)
        assert entry["SPEC"] == np.mean(scores[labels == 0] < value)

    @pytest.mark.parametrize("policy", [ThresholdPolicy.youden(), ThresholdPolicy.fixed(0.5)])
    def test_overall_block_equals_point_estimates(self, policy):
        # m2 leaves every seventh record unscored, so its block covers fewer
        # records than m1's.
        base = self.duplicate_column_cohort(seed=5)
        s1 = np.array(base.scores["m1"])
        s2 = np.where(np.arange(base.n) % 7 == 0, np.nan, s1)
        labels = np.array(label_values(base))
        cohort = build_cohort(labels=labels.tolist(),
                              scores={"m1": s1.tolist(), "m2": [None if np.isnan(v) else v for v in s2]})
        config = AuditConfig(metrics=METRICS, n_bootstrap=5, min_group_size=20, threshold_policy=policy)
        overall = build_comparison(cohort, "m1", "m2", config, [], []).overall
        for name, scores in (("m1", s1), ("m2", s2)):
            keep = ~np.isnan(scores)
            y, s = labels[keep], scores[keep]
            entry = overall[name]
            threshold = youden_threshold(y, s) if policy.kind == "youden" else policy.value
            assert entry["n"] == keep.sum()
            assert entry["threshold"] == threshold
            assert entry["AUROC"] == auroc(y, s)
            rates = threshold_metrics(confusion(y, s, threshold))
            assert [entry[m] for m in ("PPV", "SENS", "SPEC", "FNR", "FPR")] == [
                rates.ppv, rates.sensitivity, rates.specificity, rates.fnr, rates.fpr]
            assert entry["SENS"] == np.mean(s[y == 1] >= threshold)

    def test_build_comparison_pairs_matched_cells(self):
        sub_a = [ok_cell("m1", "g", "a", "AUROC", 0.01), ok_cell("m1", "g", "b", "AUROC", -0.01)]
        sub_b = [ok_cell("m2", "g", "a", "AUROC", 0.04), ok_cell("m2", "g", "b", "AUROC", -0.04)]
        mat_a = [matched_row("m1", "g", "a", [("b", 0.02)]), matched_row("m1", "g", "b", [("a", -0.02)])]
        mat_b = [matched_row("m2", "g", "a", [("b", 0.05)]), matched_row("m2", "g", "b", [("a", -0.05)])]
        cohort = self.duplicate_column_cohort(seed=4, n=50)
        config = AuditConfig(metrics=("AUROC",), n_bootstrap=5, min_group_size=5)
        report = build_comparison(cohort, "m1", "m2", config, sub_a, sub_b, mat_a, mat_b)
        before = {(d.level, d.phase): d.delta for d in report.deltas if d.phase == "before"}
        after = {(d.level, d.opponent): d.delta for d in report.deltas if d.phase == "after"}
        assert before[("a", "before")] == pytest.approx(0.03, abs=1e-15)
        assert before[("b", "before")] == pytest.approx(-0.03, abs=1e-15)
        assert after[("a", "b")] == pytest.approx(0.03, abs=1e-15)
        assert after[("b", "a")] == pytest.approx(-0.03, abs=1e-15)

    def test_skipped_matched_cells_produce_no_after_delta(self):
        sub_a = [ok_cell("m1", "g", "a", "AUROC", 0.01), ok_cell("m1", "g", "b", "AUROC", -0.01)]
        sub_b = [ok_cell("m2", "g", "a", "AUROC", 0.02), ok_cell("m2", "g", "b", "AUROC", -0.02)]
        mat_a = [matched_row("m1", "g", "a", [("b", None)])]
        mat_b = [matched_row("m2", "g", "a", [("b", 0.05)])]
        cohort = self.duplicate_column_cohort(seed=5, n=50)
        config = AuditConfig(metrics=("AUROC",), n_bootstrap=5, min_group_size=5)
        report = build_comparison(cohort, "m1", "m2", config, sub_a, sub_b, mat_a, mat_b)
        assert [d for d in report.deltas if d.phase == "after"] == []

    def test_deltas_follow_model_a_and_are_none_without_two_ok_cells(self):
        insufficient = SubgroupAuditResult(
            model="m1", attribute="g", level="d", metric="AUROC", mean_diff=None, sd=None, t_stat=None,
            p_value=None, significant=None, n_effective=1, status=STATUS_INSUFFICIENT)
        sub_a = [ok_cell("m1", "g", lv, "AUROC", d) for lv, d in (("a", 0.01), ("b", -0.01), ("c", 0.0))]
        sub_a.append(insufficient)
        sub_b = [ok_cell("m2", "g", lv, "AUROC", d) for lv, d in (("b", -0.03), ("a", 0.03), ("d", 0.0))]
        mat_a = [
            matched_row("m1", "g", "a", [("b", 0.02), ("c", None)]),
            matched_row("m1", "g", "b", [("a", -0.02)]),
            MatchedAuditResult(model="m1", attribute="g", level="c", cells=(
                MatchedCell(opponent="a", status=STATUS_INSUFFICIENT, result=insufficient),
                MatchedCell(opponent="b", status=STATUS_OK, result=ok_cell("m1", "g", "c", "AUROC", 0.01)),
            )),
        ]
        mat_b = [
            matched_row("m2", "g", "a", [("b", 0.05)]),
            matched_row("m2", "g", "b", [("a", None)]),  # b's cell has no result
            matched_row("m2", "g", "c", [("a", 0.04)]),
        ]
        cohort = self.duplicate_column_cohort(seed=6, n=50)
        config = AuditConfig(metrics=("AUROC",), n_bootstrap=5, min_group_size=5)
        report = build_comparison(cohort, "m1", "m2", config, sub_a, sub_b, mat_a, mat_b)
        got = [(d.level, d.phase, d.opponent, None if d.delta is None else round(d.delta, 12))
               for d in report.deltas]
        assert got == [
            ("a", "before", None, 0.02), ("b", "before", None, -0.02),
            ("c", "before", None, None),  # b has no cell
            ("d", "before", None, None),  # a's cell is insufficient
            ("a", "after", "b", 0.03),
            ("b", "after", "a", None),  # b's cell has no result
            ("c", "after", "a", None),  # a's cell is insufficient
            ("c", "after", "b", None),  # b has no cell
        ]
