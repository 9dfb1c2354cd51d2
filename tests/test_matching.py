import csv
import json
import warnings
from dataclasses import replace
from itertools import combinations
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.special import expit

from biasaudit.cohort import MISSING_LABEL, subgroup_partition
from biasaudit.errors import PropensityError
from biasaudit.matching import (
    MatchedSample,
    _contrast_records,
    balance_report,
    estimate_propensity,
    export_pairs,
    greedy_match,
    match_contrast,
    smd,
)
from biasaudit.synth import config_from_dict, generate

from helpers import build_cohort
from oracles import linked_greedy_match, scan_greedy_match, walk_contrast, writer_export_pairs

DEMOS = Path(__file__).resolve().parent.parent / "demos"


def confounded_cohort(seed: int, n: int = 1200, effect: float = 1.2):
    """Two-level cohort where covariate x shifts group membership."""
    rng = np.random.default_rng(seed)
    x = rng.normal(0.0, 1.0, n)
    z = rng.uniform(0, 1, n) < expit(effect * x)
    groups = np.where(z, "A", "B")
    return build_cohort(
        labels=[i % 2 for i in range(n)],
        scores=[0.5] * n,
        protected={"g": groups.tolist()},
        covariates={"x": x.tolist()},
    )


match_case = st.integers(2, 40).flatmap(
    lambda n: st.tuples(
        st.lists(st.floats(0.01, 0.99), min_size=n, max_size=n),
        st.lists(st.booleans(), min_size=n, max_size=n),
    )
)

# Propensities from a small discrete set or rounded to 2 decimals, so equal
# logits (and equal distances) are common.
tied_props = st.one_of(
    st.sampled_from([0.05, 0.2, 0.25, 0.5, 0.75, 0.8, 0.95]),
    st.floats(0.01, 0.99).map(lambda v: round(v, 2)),
)
tied_case = st.integers(2, 60).flatmap(
    lambda n: st.tuples(
        st.lists(tied_props, min_size=n, max_size=n),
        st.lists(st.booleans(), min_size=n, max_size=n),
    )
)

# Propensities 0.5 + k * 2**-54 give logits a few ulps apart around 0, and
# expit(-20) * (1 + j * 2**-48) logits one ulp (3.6e-15) apart around -20,
# next to logits near +-10 and +-28 (the clipped end).  Distances near 28 or
# 48 round to a grid wider than a cluster, so distinct controls tie in float
# distance both below a high treated record and above a low one.
ulp_props = st.one_of(
    st.integers(-8, 8).map(lambda k: 0.5 + k * 2.0**-54),
    st.integers(-4, 4).map(lambda j: expit(-20.0) * (1 + j * 2.0**-48)),
    st.sampled_from([expit(-30.0), expit(-10.0), expit(10.0), expit(30.0)]),
)
ulp_case = st.integers(2, 40).flatmap(
    lambda n: st.tuples(
        st.lists(ulp_props, min_size=n, max_size=n),
        st.lists(st.booleans(), min_size=n, max_size=n),
    )
)


@pytest.fixture(scope="module")
def demo_contrasts():
    """The demo synth config at n=50,000: every contrast's propensities and
    treated flags, smaller level treated as match_contrast does."""
    doc = json.loads((DEMOS / "synth_demo.json").read_text(encoding="utf-8"))
    cohort, _ = generate(config_from_dict(dict(doc, n=50_000)))
    fits = []
    for attr in ("race", "sex"):
        for a, b in combinations(subgroup_partition(cohort, attr, 1).levels, 2):
            _, prop = match_contrast(cohort, attr, a, b, ["severity"])
            fits.append((prop.propensities, prop.treated))
    return fits


class TestEstimatePropensity:
    def test_unrelated_covariates_give_flat_propensity(self):
        rng = np.random.default_rng(505)
        n = 2000
        z = rng.uniform(0, 1, n) < 0.3
        groups = np.where(z, "A", "B")
        x = rng.normal(0, 1, n)  # independent of membership
        cohort = build_cohort(
            labels=[i % 2 for i in range(n)],
            scores=[0.5] * n,
            protected={"g": groups.tolist()},
            covariates={"x": x.tolist()},
        )
        result = estimate_propensity(cohort, "g", "A", "B", ["x"])
        treated_fraction = result.treated.mean()
        assert np.all(np.abs(result.propensities - treated_fraction) < 0.05)

    def test_deterministic_confounder_orders_propensity(self):
        x = np.linspace(-2, 2, 50)
        z = x > 0
        groups = np.where(z, "A", "B")
        cohort = build_cohort(
            labels=[i % 2 for i in range(50)],
            scores=[0.5] * 50,
            protected={"g": groups.tolist()},
            covariates={"x": x.tolist()},
        )
        result = estimate_propensity(cohort, "g", "A", "B", ["x"], ridge=1.0)
        e_sorted_by_x = result.propensities[np.argsort(x[result.indices])]
        assert np.all(np.diff(e_sorted_by_x) > 0)

    def test_absent_level_rejected(self):
        cohort = build_cohort(
            labels=[0, 1, 0, 1],
            scores=[0.5] * 4,
            protected={"g": ["A", "A", "B", "B"]},
            covariates={"x": [1.0, 2.0, 3.0, 4.0]},
        )
        with pytest.raises(PropensityError, match="at least two records per level"):
            estimate_propensity(cohort, "g", "C", "B", ["x"])

    def test_protected_attribute_as_covariate_rejected(self):
        cohort = confounded_cohort(1, n=40)
        with pytest.raises(PropensityError, match="must exclude protected attributes"):
            estimate_propensity(cohort, "g", "A", "B", ["x", "g"])

    def test_needs_a_covariate(self):
        cohort = confounded_cohort(2, n=40)
        with pytest.raises(PropensityError, match="at least one covariate"):
            estimate_propensity(cohort, "g", "A", "B", [])

    def test_bad_subset_rejected(self):
        cohort = confounded_cohort(4, n=40)
        with pytest.raises(ValueError, match="must not repeat"):
            estimate_propensity(cohort, "g", "A", "B", ["x"], subset=[0, 1, 2, 3, 1])
        with pytest.raises(ValueError, match=r"lie in \[0, 40\)"):
            estimate_propensity(cohort, "g", "A", "B", ["x"], subset=range(-5, 30))

    def test_subset_order_kept(self):
        cohort = confounded_cohort(5, n=40)
        result = estimate_propensity(cohort, "g", "A", "B", ["x"], subset=range(39, -1, -1))
        assert result.indices.tolist() == list(range(39, -1, -1))

    def test_identical_levels_rejected(self):
        cohort = confounded_cohort(3, n=40)
        with pytest.raises(PropensityError, match="identical"):
            estimate_propensity(cohort, "g", "A", "A", ["x"])


class TestGreedyMatch:
    def test_distance_tie_goes_to_lower_control_index(self):
        # logits are exactly {0, -log 3, +log 3}: both controls are equally
        # far from the single treated record, down to the last bit
        props = [0.5, 0.25, 0.75]
        l_low = np.log(0.25) - np.log1p(-0.25)
        l_high = np.log(0.75) - np.log1p(-0.75)
        assert abs(l_low) == abs(l_high)  # the tie is real, not approximate
        sample = greedy_match(props, [True, False, False], caliper_multiplier=None)
        (pair,) = sample.pairs
        assert (pair.treated, pair.control) == (0, 1)
        assert pair.distance == abs(l_low)

    def test_treated_matched_in_descending_propensity_order(self):
        props = [0.9, 0.5, 0.55, 0.88]
        flags = [True, True, False, False]
        sample = greedy_match(props, flags, caliper_multiplier=None)
        assert [(p.treated, p.control) for p in sample.pairs] == [(0, 3), (1, 2)]
        assert sample.unmatched_treated == 0

    def test_caliper_excludes_distant_treated(self):
        props = [0.99, 0.5, 0.51]
        sample = greedy_match(props, [True, False, False], caliper_multiplier=0.2)
        assert sample.pairs == ()
        assert sample.unmatched_treated == 1
        assert sample.caliper is not None

    @pytest.mark.parametrize("props", [[0.25, 0.75], [0.75, 0.25]])
    def test_distance_equal_to_the_caliper_matches(self, props):
        # logits -+log 3: the standard deviation is log 3 exactly, so a
        # multiplier of 2 puts the caliper exactly on the pair's distance.
        sample = greedy_match(props, [True, False], caliper_multiplier=2.0)
        assert sample.distance.tolist() == [sample.caliper]

    def test_zero_spread_disables_caliper_with_warning(self):
        with pytest.warns(UserWarning, match="caliper disabled"):
            sample = greedy_match([0.5, 0.5], [True, False], caliper_multiplier=0.2)
        assert sample.caliper is None
        assert len(sample.pairs) == 1
        assert sample.pairs[0].distance == 0.0

    @pytest.mark.parametrize("caliper_multiplier", [0.2, None])
    def test_empty_input_has_no_caliper_and_no_warning(self, caliper_multiplier):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            sample = greedy_match([], [], caliper_multiplier)
        assert sample.caliper is None
        assert (sample.treated.size, sample.unmatched_treated) == (0, 0)

    def test_without_replacement_leaves_extra_treated_unmatched(self):
        props = [0.6, 0.55, 0.5]
        sample = greedy_match(props, [True, True, False], caliper_multiplier=None)
        assert len(sample.pairs) == 1
        assert sample.pairs[0].treated == 0  # higher propensity chooses first
        assert sample.unmatched_treated == 1

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValueError, match="equal-length"):
            greedy_match([0.5, 0.6], [True])

    @given(match_case)
    def test_no_record_reuse(self, case):
        props, flags = case
        sample = greedy_match(props, flags, caliper_multiplier=None)
        used = [p.treated for p in sample.pairs] + [p.control for p in sample.pairs]
        assert len(used) == len(set(used))
        assert len(sample.pairs) + sample.unmatched_treated == sum(flags)

    @given(match_case)
    def test_caliper_soundness(self, case):
        props, flags = case
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")  # zero-spread draws disable the caliper
            sample = greedy_match(props, flags, caliper_multiplier=0.3)
        if sample.caliper is None:
            return
        for p in sample.pairs:
            assert p.distance <= sample.caliper

    @given(tied_case, st.sampled_from([None, 0.2, 0.05]))
    def test_equals_scan_oracle(self, case, cm):
        props, flags = case
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")  # zero-spread draws disable the caliper
            assert greedy_match(props, flags, cm) == scan_greedy_match(props, flags, cm)

    @pytest.mark.parametrize("sign", [1.0, -1.0])
    def test_float_distance_tie_goes_to_lower_control_index(self, sign):
        # Control logits {-2.2e-16, 0, 4.4e-16, 8.9e-16} are distinct, but each
        # lies at float distance exactly 10 from a treated logit of +-10.  The
        # control at index 0 is the farthest in exact arithmetic and still wins.
        u = 2.0**-54
        control_props = [0.5 - u, 0.5, 0.5 + 2 * u, 0.5 + 4 * u]
        if sign < 0:
            control_props = control_props[::-1]
        props = control_props + [expit(sign * 10.0)]
        logits = np.log(props) - np.log1p(-np.asarray(props))
        assert len(set(logits[:4].tolist())) == 4
        assert len({abs(c - logits[4]) for c in logits[:4].tolist()}) == 1
        flags = [False] * 4 + [True]
        sample = greedy_match(props, flags, caliper_multiplier=None)
        assert [(p.treated, p.control) for p in sample.pairs] == [(4, 0)]
        assert sample == scan_greedy_match(props, flags, caliper_multiplier=None)

    def test_float_distance_tie_across_a_one_ulp_gap(self):
        # Two control logits near -20 lie one ulp of 20 (3.6e-15) apart, more
        # than a quarter of the spacing at the match's span of 47.6, yet lie
        # at one float distance from a treated logit of 27.6 (the clip edge).
        props = [expit(-20.0) * (1 + j * 2.0**-48) for j in (0, 1)] + [1 - 1e-12]
        logits = np.log(props) - np.log1p(-np.asarray(props))
        assert logits[1] - logits[0] > np.spacing(logits.max() - logits.min()) / 4
        assert logits[2] - logits[0] == logits[2] - logits[1]
        sample = greedy_match(props, [False, False, True], caliper_multiplier=None)
        assert [(p.treated, p.control) for p in sample.pairs] == [(2, 0)]

    def test_float_distance_ties_skip_claimed_controls(self):
        # Five controls a few ulps above 0.5, lowest logit at the lowest index,
        # and four treated records at the clip edge.  Control 4 is nearest
        # after rounding; controls 0-3 tie one rounding step farther, so each
        # later treated record takes the lowest-index control left, below the
        # nearest live one, and passes the claimed ones on the way down.
        props = [0.5 + k * 2.0**-53 for k in range(5)] + [1 - 1e-12] * 4
        flags = [False] * 5 + [True] * 4
        sample = greedy_match(props, flags, caliper_multiplier=None)
        assert [(p.treated, p.control) for p in sample.pairs] == [(5, 4), (6, 0), (7, 1), (8, 2)]
        assert sample == scan_greedy_match(props, flags, caliper_multiplier=None)

    @pytest.mark.parametrize("cm", [None, 0.2])
    def test_long_removed_chains_match_scan_oracle(self, cm):
        # ~3,000 records on 2-decimal propensities with nearly half treated:
        # runs of equal logits empty out, so the live-slot search skips long
        # stretches of removed controls.
        rng = np.random.default_rng(3001)
        n = 3000
        props = np.round(expit(rng.normal(0.0, 1.5, n)), 2).clip(0.01, 0.99)
        flags = rng.uniform(0, 1, n) < 0.45
        assert greedy_match(props, flags, cm) == scan_greedy_match(props, flags, cm)

    @given(ulp_case, st.sampled_from([None, 0.2]))
    def test_ulp_clusters_equal_scan_oracle(self, case, cm):
        props, flags = case
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")  # zero-spread draws disable the caliper
            assert greedy_match(props, flags, cm) == scan_greedy_match(props, flags, cm)

    def test_equal_logits_are_zero_spread(self):
        # np.std of 800 equal logits of 0.1 is 4.4e-16, not 0; the caliper
        # still falls back to none.
        logit = np.log(0.1) - np.log1p(-0.1)
        assert np.std(np.full(800, logit)) > 0.0
        with pytest.warns(UserWarning, match="caliper disabled"):
            sample = greedy_match(np.full(800, 0.1), np.arange(800) % 2 == 0, caliper_multiplier=0.2)
        assert sample.caliper is None
        assert sample.treated.size == 400

    @pytest.mark.parametrize("cm", [0.2, None])
    def test_demo_contrasts_equal_linked_oracle(self, demo_contrasts, cm):
        assert len(demo_contrasts) == 4
        for props, flags in demo_contrasts:
            sample = greedy_match(props, flags, cm)
            assert sample == linked_greedy_match(props, flags, cm)
            assert sample.treated.size > 0.9 * flags.sum()

    @given(match_case)
    def test_deterministic(self, case):
        props, flags = case
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            assert greedy_match(props, flags, 0.25) == greedy_match(props, flags, 0.25)


class TestSmd:
    def test_identical_groups_zero(self):
        values = [1.0, 2.0, 3.0, 1.0, 2.0, 3.0]
        assert smd(values, [0, 1, 2], [3, 4, 5]) == 0.0

    def test_unit_shift_unit_variance(self):
        values = [0.0, 1.0, 2.0, -1.0, 0.0, 1.0]
        assert smd(values, [0, 1, 2], [3, 4, 5]) == 1.0

    def test_constant_everywhere_undefined(self):
        assert smd([5.0] * 6, [0, 1, 2], [3, 4, 5]) is None

    def test_asymmetric_formula(self):
        values = [0.0, 2.0, 10.0, 11.0]
        expected = abs(1.0 - 10.5) / np.sqrt((2.0 + 0.5) / 2)
        assert smd(values, [0, 1], [2, 3]) == pytest.approx(expected, rel=1e-12)

    def test_missing_values_ignored(self):
        values = [0.0, 2.0, np.nan, 10.0, 11.0, np.nan]
        assert smd(values, [0, 1, 2], [3, 4, 5]) == smd(
            [0.0, 2.0, 10.0, 11.0], [0, 1], [2, 3]
        )

    def test_too_few_observed_undefined(self):
        assert smd([1.0, np.nan, 2.0, 3.0], [0, 1], [2, 3]) is None

    def test_symmetric_in_groups(self):
        values = [0.1, 0.9, 0.4, 0.7, 0.2, 0.6]
        assert smd(values, [0, 1, 2], [3, 4, 5]) == smd(values, [3, 4, 5], [0, 1, 2])


class TestMatchContrast:
    def test_smaller_level_is_treated(self):
        cohort = build_cohort(
            labels=[0, 1] * 10,
            scores=[0.5] * 20,
            protected={"g": ["A"] * 6 + ["B"] * 14},
            covariates={"x": list(np.linspace(-1, 1, 20))},
        )
        sample, prop = match_contrast(cohort, "g", "A", "B", ["x"])
        assert sample.treated_level == "A"
        assert prop.treated_level == "A"
        sample2, _ = match_contrast(cohort, "g", "B", "A", ["x"])
        assert sample2.treated_level == "A"

    def test_equal_sizes_tie_toward_first_argument(self):
        cohort = build_cohort(
            labels=[0, 1] * 10,
            scores=[0.5] * 20,
            protected={"g": ["A"] * 10 + ["B"] * 10},
            covariates={"x": list(np.linspace(-1, 1, 20))},
        )
        sample, _ = match_contrast(cohort, "g", "B", "A", ["x"])
        assert sample.treated_level == "B"

    def test_pair_indices_are_cohort_positions(self):
        cohort = confounded_cohort(77, n=300)
        sample, _ = match_contrast(cohort, "g", "A", "B", ["x"])
        values = [rec.protected["g"] for rec in cohort.records]
        for p in sample.pairs:
            assert values[p.treated] == sample.treated_level
            assert values[p.control] == sample.control_level

    def test_subset_restricts_matching(self):
        cohort = confounded_cohort(78, n=300)
        sample, _ = match_contrast(cohort, "g", "A", "B", ["x"], subset=range(150))
        for p in sample.pairs:
            assert p.treated < 150 and p.control < 150

    def test_repeated_or_negative_subset_rejected(self):
        cohort = confounded_cohort(81, n=300)
        with pytest.raises(ValueError, match="must not repeat"):
            match_contrast(cohort, "g", "A", "B", ["x"], subset=list(range(300)) * 2)
        with pytest.raises(ValueError, match=r"lie in \[0, 300\)"):
            match_contrast(cohort, "g", "A", "B", ["x"], subset=[-i for i in range(1, 151)])

    def test_non_converged_fit_raises(self):
        # x > 0 separates the levels completely; without a ridge the fit runs
        # off to infinity and reports converged=False.
        x = np.random.default_rng(79).normal(0.0, 1.0, 200)
        cohort = build_cohort(
            labels=[i % 2 for i in range(200)],
            scores=[0.5] * 200,
            protected={"g": np.where(x > 0, "A", "B").tolist()},
            covariates={"x": x.tolist()},
        )
        assert not estimate_propensity(cohort, "g", "A", "B", ["x"], ridge=0.0).model.converged
        with pytest.raises(PropensityError, match=r"did not converge after \d+ iterations \(gradient norm"):
            match_contrast(cohort, "g", "A", "B", ["x"], ridge=0.0)
        sample, prop = match_contrast(cohort, "g", "A", "B", ["x"], ridge=1.0)
        assert prop.model.converged


    def test_missing_level_holds_missing_values_and_the_literal_level(self):
        # 20% of the records miss g; a few carry a literal level "MISSING".
        rng = np.random.default_rng(80)
        n = 900
        x = rng.normal(0.0, 1.0, n)
        g = np.where(rng.uniform(0, 1, n) < expit(x), "A", "B").astype(object)
        g[rng.uniform(0, 1, n) < 0.2] = None
        g[:30] = "MISSING"
        cohort = build_cohort(labels=[i % 2 for i in range(n)], scores=[0.5] * n,
                              protected={"g": g.tolist()}, covariates={"x": x.tolist()})
        missing = [i for i, v in enumerate(g) if v in (None, "MISSING")]
        prop = estimate_propensity(cohort, "g", "MISSING", "A", ["x"])
        assert prop.indices[prop.treated].tolist() == missing
        sample, prop = match_contrast(cohort, "g", "A", "MISSING", ["x"])
        assert sample.treated_level == "MISSING" and sample.treated.size > 0
        assert set(sample.treated.tolist()) <= set(missing)
        balance_report(cohort, sample, ["x"], propensity=prop)


class TestContrastRecords:
    @settings(max_examples=150)
    @given(data=st.data())
    def test_equals_the_walk(self, data):
        # Missing values and a literal MISSING level (one contrast level
        # between them), levels empty in the cohort or in the subset, and a
        # shuffled subset, a shuffled prefix or none.
        counts = data.draw(st.tuples(*[st.integers(0, 6)] * 5))
        values = data.draw(st.permutations([v for v, c in zip(["A", "B", "C", "MISSING", None], counts)
                                            for _ in range(c)]))
        n = len(values)
        if n == 0:
            values, n = ["A"], 1
        cohort = build_cohort(labels=[i % 2 for i in range(n)], scores=[0.5] * n, protected={"g": values})
        treated, control = data.draw(st.lists(st.sampled_from(["A", "B", "C", "D", MISSING_LABEL]),
                                              min_size=2, max_size=2, unique=True))
        subset = data.draw(st.one_of(st.none(), st.permutations(range(n)).flatmap(
            lambda order: st.integers(0, n).map(lambda k: order[:k]))))
        indices, flags, n_treated, n_control = walk_contrast(cohort, "g", treated, control, subset)
        got_indices, got_flags = _contrast_records(cohort, "g", treated, control, subset)
        assert got_indices.dtype == np.int64 and got_flags.dtype == bool
        assert got_indices.tolist() == indices
        assert got_flags.tolist() == flags.tolist()
        assert np.bincount(got_flags, minlength=2).tolist() == [n_control, n_treated]


class TestBalanceReport:
    def test_matching_repairs_confounded_balance(self):
        cohort = confounded_cohort(424)
        sample, prop = match_contrast(cohort, "g", "A", "B", ["x"])
        bal = balance_report(cohort, sample, ["x"], propensity=prop)
        (row,) = bal.covariates
        assert row.smd_before > 0.2  # the confounding is material
        assert row.smd_after < row.smd_before

    def test_unconfounded_balance_stays_good(self):
        rng = np.random.default_rng(427)
        n = 1200
        z = rng.uniform(0, 1, n) < 0.4
        x = rng.normal(0, 1, n)
        cohort = build_cohort(
            labels=[i % 2 for i in range(n)],
            scores=[0.5] * n,
            protected={"g": np.where(z, "A", "B").tolist()},
            covariates={"x": x.tolist()},
        )
        sample, prop = match_contrast(cohort, "g", "A", "B", ["x"])
        bal = balance_report(cohort, sample, ["x"], propensity=prop)
        (row,) = bal.covariates
        assert row.smd_before < 0.1
        assert row.smd_after < 0.1

    def test_min_n_threshold(self):
        cohort = confounded_cohort(426, n=80)
        sample, prop = match_contrast(cohort, "g", "A", "B", ["x"], caliper_multiplier=None)
        bal = balance_report(cohort, sample, ["x"], min_matched_n=100, propensity=prop)
        assert bal.matched_n == 2 * len(sample.pairs)
        assert bal.matched_n < 100
        assert not bal.passes_min_n
        bal_ok = balance_report(cohort, sample, ["x"], min_matched_n=10, propensity=prop)
        assert bal_ok.passes_min_n

    def test_categorical_covariates_expand_per_level(self):
        n = 60
        rng = np.random.default_rng(9)
        cohort = build_cohort(
            labels=[i % 2 for i in range(n)],
            scores=[0.5] * n,
            protected={"g": (["A"] * 30 + ["B"] * 30)},
            covariates={
                "x": rng.normal(0, 1, n).tolist(),
                "unit": rng.choice(["icu", "ward"], n).tolist(),
            },
            covariate_kinds={"unit": "categorical"},
        )
        sample, prop = match_contrast(cohort, "g", "A", "B", ["x"])
        bal = balance_report(cohort, sample, ["x", "unit"], propensity=prop)
        names = [c.name for c in bal.covariates]
        assert names[0] == "x"
        assert "unit=icu" in names and "unit=ward" in names

    def test_before_uses_the_population_the_model_saw(self):
        # Records 300+ are left out of the match and pull level A's x down; the
        # "before" SMDs must describe the 300 records the match drew from.
        cohort = confounded_cohort(428, n=400)
        x = np.asarray([rec.covariates["x"] for rec in cohort.records])
        groups = np.asarray([rec.protected["g"] for rec in cohort.records])
        x[300:][groups[300:] == "A"] = -2.0
        cohort = build_cohort(
            labels=[i % 2 for i in range(400)],
            scores=[0.5] * 400,
            protected={"g": groups.tolist()},
            covariates={"x": x.tolist()},
        )
        sample, prop = match_contrast(cohort, "g", "A", "B", ["x"], subset=range(300))
        (row,) = balance_report(cohort, sample, ["x"], propensity=prop).covariates
        seen = np.arange(300)
        assert row.smd_before == smd(
            x, seen[groups[:300] == sample.treated_level], seen[groups[:300] == sample.control_level]
        )

    def test_propensity_from_another_contrast_rejected(self):
        cohort = confounded_cohort(429, n=120)
        sample, _ = match_contrast(cohort, "g", "A", "B", ["x"])
        _, other = match_contrast(cohort, "g", "A", "B", ["x"], subset=range(60))
        other = replace(other, treated_level=other.control_level, control_level=other.treated_level)
        with pytest.raises(ValueError, match="different contrast"):
            balance_report(cohort, sample, ["x"], propensity=other)

    def test_unknown_covariate_rejected(self):
        cohort = confounded_cohort(11, n=60)
        sample, prop = match_contrast(cohort, "g", "A", "B", ["x"])
        with pytest.raises(PropensityError, match="unknown covariate"):
            balance_report(cohort, sample, ["ghost"], propensity=prop)

    def test_unlabelled_sample_rejected(self):
        cohort = confounded_cohort(12, n=60)
        _, prop = match_contrast(cohort, "g", "A", "B", ["x"])
        empty = np.empty(0, dtype=np.int64)
        bare = MatchedSample(treated=empty, control=empty, distance=np.empty(0), unmatched_treated=0, caliper=None)
        with pytest.raises(ValueError, match="match_contrast"):
            balance_report(cohort, bare, ["x"], propensity=prop)


class TestExportPairs:
    def test_writes_ids_and_distances(self, tmp_path):
        cohort = confounded_cohort(13, n=120)
        sample, _ = match_contrast(cohort, "g", "A", "B", ["x"])
        path = tmp_path / "pairs.csv"
        export_pairs(cohort, sample, path)
        lines = path.read_text().splitlines()
        assert lines[0] == "treated_id,control_id,distance"
        assert len(lines) == 1 + len(sample.pairs)
        first = lines[1].split(",")
        assert first[0] == cohort.records[sample.pairs[0].treated].id
        assert float(first[2]) == sample.pairs[0].distance

    # Ids a csv writer must quote (a bare carriage return too, or the reader
    # rejects it), beside plain ones.
    IDS = ("plain", "a,b", 'say "hi"', "two\nlines", "crlf\r\nend", "bare\rcr", " padded ", "", "é,ü")

    @pytest.mark.parametrize("distance", [[0.0, 1e-17, 0.5, 3.0], []])
    def test_same_bytes_as_csv_writer(self, tmp_path, distance):
        cohort = replace(confounded_cohort(13, n=len(self.IDS)), ids=self.IDS)
        k = len(distance)
        sample = MatchedSample(treated=np.arange(k), control=np.arange(k, 2 * k)[::-1].copy(),
                               distance=np.array(distance), unmatched_treated=0, caliper=None)
        export_pairs(cohort, sample, tmp_path / "joined.csv")
        writer_export_pairs(cohort, sample, tmp_path / "writer.csv")
        assert (tmp_path / "joined.csv").read_bytes() == (tmp_path / "writer.csv").read_bytes()

    @given(st.lists(st.text(alphabet='ab ,"\n\r\t', max_size=5), min_size=2, max_size=8))
    def test_drawn_ids_same_bytes_as_csv_writer(self, tmp_path_factory, ids):
        cohort = replace(confounded_cohort(13, n=len(ids)), ids=tuple(ids))
        order = np.arange(len(ids))
        sample = MatchedSample(treated=order[::2].copy(), control=order[1::2][::-1].copy(),
                               distance=np.linspace(0.0, 1.0, len(ids) // 2), unmatched_treated=0, caliper=None)
        tmp = tmp_path_factory.mktemp("pairs")
        export_pairs(cohort, sample, tmp / "joined.csv")
        writer_export_pairs(cohort, sample, tmp / "writer.csv")
        assert (tmp / "joined.csv").read_bytes() == (tmp / "writer.csv").read_bytes()

    def test_bare_carriage_return_ids_read_back(self, tmp_path):
        ids = ("bare\rcr", "plain", "\r", "tail\r")
        cohort = replace(confounded_cohort(13, n=len(ids)), ids=ids)
        sample = MatchedSample(treated=np.array([0, 2]), control=np.array([1, 3]),
                               distance=np.array([0.25, 0.5]), unmatched_treated=0, caliper=None)
        path = tmp_path / "pairs.csv"
        export_pairs(cohort, sample, path)
        assert path.read_bytes().split(b"\n")[1] == b'"bare\rcr",plain,0.25'
        with open(path, encoding="utf-8", newline="\n") as fh:
            rows = list(csv.reader(fh))
        assert rows == [["treated_id", "control_id", "distance"],
                        ["bare\rcr", "plain", "0.25"], ["\r", "tail\r", "0.5"]]

    def test_quoted_ids_read_back(self, tmp_path):
        ids = ("a,b", 'say "hi"', "two\nlines", "crlf\r\nend")
        cohort = replace(confounded_cohort(13, n=len(ids)), ids=ids)
        sample = MatchedSample(treated=np.array([0, 2]), control=np.array([3, 1]),
                               distance=np.array([0.25, 0.5]), unmatched_treated=0, caliper=None)
        path = tmp_path / "pairs.csv"
        export_pairs(cohort, sample, path)
        with open(path, encoding="utf-8", newline="") as fh:
            rows = list(csv.reader(fh))
        assert rows == [["treated_id", "control_id", "distance"],
                        ["a,b", "crlf\r\nend", "0.25"], ["two\nlines", 'say "hi"', "0.5"]]
