from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra.numpy import arrays

import biasaudit
from biasaudit.errors import ConfigError, UndefinedMetricError
from biasaudit.metrics import (
    METRICS,
    CalibrationCurve,
    ConfusionCounts,
    ThresholdPolicy,
    auroc,
    calibration_curve,
    confusion,
    threshold_metrics,
    youden_threshold,
)
from biasaudit.metrics import _Sample, _youden_cuts

from oracles import (block_exhaustive_youden, delong_auroc_se, exhaustive_youden, masked_youden_cut, pairwise_auroc,
                     rank_metric_matrix)

LABELS4 = [0, 0, 1, 1]
SCORES4 = [0.1, 0.4, 0.35, 0.8]

# Labels and scores with heavy ties, drawn from a coarse score grid so every
# tie-handling branch gets exercised.
tied_instances = st.integers(min_value=2, max_value=200).flatmap(
    lambda n: st.tuples(
        st.lists(st.integers(0, 1), min_size=n, max_size=n),
        st.lists(
            st.sampled_from([0.0, 0.1, 0.25, 0.5, 0.5, 0.75, 0.9, 1.0]),
            min_size=n,
            max_size=n,
        ),
    )
)


def both_classes(y) -> bool:
    return 0 in y and 1 in y


class TestConfusion:
    def test_counts_at_threshold(self):
        counts = confusion(LABELS4, SCORES4, 0.35)
        assert (counts.tp, counts.fp, counts.tn, counts.fn) == (2, 1, 1, 0)

    def test_rule_is_greater_equal(self):
        counts = confusion([1], [0.5], 0.5)
        assert counts.tp == 1

    def test_totals(self):
        counts = confusion(LABELS4, SCORES4, 0.35)
        assert counts.total == 4
        assert counts.positives == 2
        assert counts.negatives == 2

    def test_rejects_bad_labels(self):
        with pytest.raises(ValueError, match="0 or 1"):
            confusion([0, 2], [0.1, 0.2], 0.5)

    def test_rejects_negative_counts(self):
        with pytest.raises(ValueError):
            ConfusionCounts(tp=-1, fp=0, tn=0, fn=0)

    def test_rejects_length_mismatch(self):
        with pytest.raises(ValueError):
            confusion([0, 1], [0.5], 0.5)

    def test_rejects_nan_scores(self):
        with pytest.raises(ValueError, match="finite"):
            confusion([0, 1], [0.5, float("nan")], 0.5)

    @pytest.mark.parametrize("threshold", [float("nan"), float("inf"), float("-inf")])
    def test_rejects_non_finite_threshold(self, threshold):
        # A nan threshold used to count every record negative.
        with pytest.raises(ConfigError, match="finite"):
            confusion([0, 1, 1, 0], [0.1, 0.9, 0.8, 0.3], threshold)


class TestThresholdMetrics:
    def test_worked_example(self):
        m = threshold_metrics(confusion(LABELS4, SCORES4, 0.35), 0.35)
        assert m.ppv == pytest.approx(2 / 3)
        assert m.sensitivity == 1.0
        assert m.specificity == 0.5
        assert m.fnr == 0.0
        assert m.fpr == 0.5
        assert m.threshold == 0.35

    def test_no_positives_leaves_sensitivity_undefined(self):
        m = threshold_metrics(ConfusionCounts(tp=0, fp=2, tn=3, fn=0))
        assert m.sensitivity is None
        assert m.fnr is None
        assert m.specificity is not None

    def test_no_negatives_leaves_specificity_undefined(self):
        m = threshold_metrics(ConfusionCounts(tp=2, fp=0, tn=0, fn=1))
        assert m.specificity is None
        assert m.fpr is None

    def test_no_predicted_positives_leaves_ppv_undefined(self):
        m = threshold_metrics(ConfusionCounts(tp=0, fp=0, tn=3, fn=2))
        assert m.ppv is None

    @given(
        st.integers(0, 40), st.integers(0, 40), st.integers(0, 40), st.integers(0, 40)
    )
    def test_error_rate_complements(self, tp, fp, tn, fn):
        m = threshold_metrics(ConfusionCounts(tp=tp, fp=fp, tn=tn, fn=fn))
        if m.sensitivity is not None:
            assert m.sensitivity + m.fnr == pytest.approx(1.0, abs=1e-12)
        if m.specificity is not None:
            assert m.specificity + m.fpr == pytest.approx(1.0, abs=1e-12)


class TestAuroc:
    def test_worked_example(self):
        assert auroc(LABELS4, SCORES4) == 0.75

    def test_all_tied_scores_give_half(self):
        assert auroc([0, 1, 0, 1], [0.5, 0.5, 0.5, 0.5]) == 0.5

    def test_perfect_separation(self):
        assert auroc([0, 0, 1, 1], [0.1, 0.2, 0.7, 0.9]) == 1.0

    def test_single_class_raises(self):
        with pytest.raises(UndefinedMetricError, match="single class"):
            auroc([1, 1, 1], [0.1, 0.2, 0.3])

    @given(tied_instances)
    def test_equals_pairwise_enumeration_exactly(self, case):
        y, s = case
        if not both_classes(y):
            return
        assert auroc(y, s) == pairwise_auroc(y, s)

    @given(tied_instances)
    def test_complement_under_label_flip(self, case):
        y, s = case
        if not both_classes(y):
            return
        flipped = [1 - v for v in y]
        assert auroc(flipped, s) == pytest.approx(1.0 - auroc(y, s), abs=1e-12)

    @given(tied_instances)
    def test_invariant_under_monotone_transform(self, case):
        y, s = case
        if not both_classes(y):
            return
        transformed = [3.0 * v + 1.0 for v in s]
        assert auroc(y, transformed) == auroc(y, s)


class TestYoudenThreshold:
    def test_tie_broken_toward_smallest_threshold(self):
        # J peaks at 0.5 for both 0.35 and 0.8; the smaller one wins.
        assert youden_threshold(LABELS4, SCORES4) == 0.35

    def test_perfect_separation_picks_min_positive_score(self):
        assert youden_threshold([0, 0, 1, 1], [0.1, 0.2, 0.7, 0.9]) == 0.7

    def test_constant_scores_return_that_score(self):
        assert youden_threshold([0, 1], [0.5, 0.5]) == 0.5

    def test_single_class_raises(self):
        with pytest.raises(UndefinedMetricError, match="single class"):
            youden_threshold([0, 0], [0.1, 0.2])

    @given(tied_instances)
    def test_matches_exact_rational_scan(self, case):
        y, s = case
        if not both_classes(y):
            return
        assert youden_threshold(y, s) == exhaustive_youden(y, s)

    @given(tied_instances)
    def test_threshold_is_an_observed_score(self, case):
        y, s = case
        if not both_classes(y):
            return
        assert youden_threshold(y, s) in s


GRID = (0.0, 0.1, 0.25, 0.5, 0.75, 0.9, 1.0)


@st.composite
def leveled_instances(draw):
    """Tie-heavy labels/scores with level codes in [-1, n_levels); levels may
    be empty or hold one class, and -1 marks records in no level."""
    n = draw(st.integers(1, 150))
    n_levels = draw(st.integers(1, 4))
    y = np.array(draw(st.lists(st.integers(0, 1), min_size=n, max_size=n)), dtype=np.int64)
    s = np.array(draw(st.lists(st.sampled_from(GRID), min_size=n, max_size=n)))
    codes = np.array(draw(st.lists(st.integers(-1, n_levels - 1), min_size=n, max_size=n)), dtype=np.int64)
    threshold = draw(st.one_of(
        st.none(),
        st.sampled_from(GRID),  # on a grid value
        st.sampled_from((-0.5, 0.05, 0.3, 0.8, 0.95, 1.5)),  # between or outside
    ))
    return y, s, codes, n_levels, threshold


@st.composite
def pooled_tables(draw):
    """Raw pooled (2, G) count tables with G from 1 to 300: small counts, up
    to eight cells as large as 2**26, runs of absent scores at the start, in
    the middle and on both sides of the Youden maximiser, and tables that
    hold one class or none."""
    g = draw(st.integers(1, 260))
    table = draw(arrays(np.int64, (2, g), elements=st.integers(0, 3)))
    big = st.tuples(st.integers(0, 1), st.integers(0, g - 1), st.integers(0, 2**26))
    for label, k, count in draw(st.lists(big, max_size=8)):
        table[label, k] = count
    table[:, :draw(st.integers(0, 20))] = 0
    start = draw(st.integers(0, g))
    table[:, start:start + draw(st.integers(0, 20))] = 0
    empty_class = draw(st.sampled_from((None, 0, 1)))
    if empty_class is not None:
        table[empty_class] = 0
    cut = masked_youden_cut(table)
    if cut is not None:
        before, after = draw(st.integers(0, 20)), draw(st.integers(0, 20))
        table = np.insert(table, [cut] * before + [cut + 1] * after, 0, axis=1)
    return table


COUNTS = ("n", "tp", "fp", "tn", "fn")


def level_reference(y, s, codes, n_levels, threshold):
    """The rank reference's (level, metric) matrix with each level's exact
    counts by masks beside it, (level, METRICS + COUNTS); the counts at the
    cut are nan without a threshold."""
    counts = np.full((n_levels, len(COUNTS)), np.nan)
    for g in range(n_levels):
        yg, sg = y[codes == g], s[codes == g]
        counts[g, 0] = yg.size
        if threshold is not None:
            pred, pos = sg >= threshold, yg == 1
            counts[g, 1:] = [np.sum(pred & pos), np.sum(pred & ~pos), np.sum(~pred & ~pos), np.sum(~pred & pos)]
    return np.hstack([rank_metric_matrix(y, s, codes, n_levels, METRICS, threshold), counts])


YOUDEN = ThresholdPolicy.youden()


def fixed_rule(threshold):
    """The policy of a fixed threshold, None for none."""
    return None if threshold is None else ThresholdPolicy.fixed(threshold)


def kernel(sample, policy, draws=None):
    """The draw's "threshold" and ``_Sample.evaluate`` of METRICS and COUNTS
    over the sample's one partition, shaped (level, name) like
    ``level_reference``.  Every level holds the same threshold."""
    (values,) = sample.evaluate(("threshold",) + METRICS + COUNTS, policy, draws)
    thresholds = values[0, 0]
    assert np.array_equal(thresholds, np.full_like(thresholds, thresholds[0]), equal_nan=True)
    return float(thresholds[0]), values[0, 1:].T


class TestCountKernel:
    """The level-segmented count kernel, entered through ``_Sample``, against
    the per-level rank reference and the masked Youden scan."""

    @settings(max_examples=400, deadline=None)
    @given(pooled_tables())
    def test_youden_cut_equals_masked_scan(self, pooled):
        (cut,) = _youden_cuts(pooled[None])
        assert (None if cut < 0 else cut) == masked_youden_cut(pooled)
        if not (pooled[0].any() and pooled[1].any()):
            assert cut == -1

    @given(leveled_instances())
    def test_level_segments_hold_each_levels_distinct_scores(self, case):
        y, s, codes, n_levels, _ = case
        sample = _Sample(s, y, [(codes, n_levels)])
        (levels, keys), = sample.parts
        table = levels.count(keys, np.arange(y.size)[None])
        assert table.shape == (1, 2, levels.size + 1)
        scores = sample.grid[levels.keys % (sample.grid.size + 1)]
        for g in range(n_levels):
            segment = scores[levels.starts[g]:levels.ends[g]]
            assert np.array_equal(segment, np.unique(s[codes == g]))
        # The last column counts the records in no level.
        assert table[0, :, -1].sum() == np.sum(codes == -1)

    @given(leveled_instances())
    def test_point_values_equal_rank_reference_bit_for_bit(self, case):
        y, s, codes, n_levels, threshold = case
        value, got = kernel(_Sample(s, y, [(codes, n_levels)]), fixed_rule(threshold))
        assert np.isnan(value) if threshold is None else value == threshold
        assert np.array_equal(got, level_reference(y, s, codes, n_levels, threshold), equal_nan=True)

    @given(leveled_instances(), st.integers(0, 2**32 - 1))
    def test_resample_over_full_grid_equals_reference(self, case, seed):
        # A bootstrap replicate counts gathered keys over the full sample's
        # level grids, so some scores inside a level's segment are absent from
        # the replicate, and whole levels may be; a draw shorter than the
        # sample, down to no record at all, leaves more of them absent.
        y, s, codes, n_levels, threshold = case
        sample = _Sample(s, y, [(codes, n_levels)])
        rng = np.random.default_rng(seed)
        idx = rng.integers(0, y.size, rng.integers(0, y.size + 1))
        yb, sb = y[idx], s[idx]
        youden, got = kernel(sample, YOUDEN, idx[None])
        if both_classes(yb.tolist()):
            assert youden == exhaustive_youden(yb, sb)
        else:
            assert np.isnan(youden)
        # The case's fixed threshold when it has one, else the Youden one.
        if threshold is None:
            threshold = None if np.isnan(youden) else youden
        else:
            value, got = kernel(sample, fixed_rule(threshold), idx[None])
            assert value == threshold
        assert np.array_equal(got, level_reference(yb, sb, codes[idx], n_levels, threshold), equal_nan=True)

    @settings(max_examples=50, deadline=None)
    @given(leveled_instances(), st.integers(0, 2**32 - 1))
    def test_block_thresholds_equal_youden_threshold_per_draw(self, case, seed):
        # A block of bootstrap draws, as ``audit._replicates`` evaluates it:
        # each row's threshold is the Youden threshold of that draw's records.
        y, s, codes, n_levels, _ = case
        sample = _Sample(s, y, [(codes, n_levels)])
        rng = np.random.default_rng(seed)
        draws = rng.integers(0, y.size, (sample.k, y.size))
        (values,) = sample.evaluate(("threshold",), YOUDEN, draws)
        assert values.shape == (sample.k, 1, n_levels)
        expected = block_exhaustive_youden(y, s, draws)[:, None]
        assert np.array_equal(values[:, 0], np.broadcast_to(expected, (sample.k, n_levels)), equal_nan=True)

    @pytest.mark.parametrize("threshold", [None, -0.5, 0.0, 0.3, 0.5, 0.95, 1.0, 1.5])
    def test_empty_and_one_record_levels(self, threshold):
        # Levels 0, 3 and 5 are empty (5 is the last, so its segment ends on
        # the dump column), 1 holds one record and 4 one record per class;
        # three records are in no level.
        codes = np.array([1, 2, 2, 2, 2, 2, -1, 4, 4, -1, -1])
        y = np.array([1, 0, 1, 1, 0, 0, 1, 0, 1, 0, 1])
        s = np.array([0.5, 0.1, 0.9, 0.5, 0.5, 0.0, 0.7, 1.0, 0.3, 0.2, 0.5])
        value, got = kernel(_Sample(s, y, [(codes, 6)]), fixed_rule(threshold))
        assert np.isnan(value) if threshold is None else value == threshold
        assert np.array_equal(got, level_reference(y, s, codes, 6, threshold), equal_nan=True)

    def test_no_records(self):
        # A matched contrast with no pairs counts an empty sample.
        empty = np.array([], dtype=np.int64)
        sample = _Sample(empty.astype(float), empty, [(empty, 2)])
        (levels, keys), = sample.parts
        assert levels.count(keys, empty[None]).shape == (1, 2, 1)
        value, got = kernel(sample, fixed_rule(0.5))
        assert value == 0.5
        assert np.array_equal(got[:, METRICS.index("AUROC"):], [[np.nan, 0, 0, 0, 0, 0]] * 2, equal_nan=True)
        assert np.isnan(got[:, :len(METRICS)]).all()
        assert np.isnan(kernel(sample, YOUDEN)[0])


def test_only_metrics_reaches_inside_the_count_kernel():
    # Every other module goes through ``_Sample``: the level grids, the
    # count-table layout and the threshold cut stay behind it.
    package = Path(biasaudit.__file__).parent
    modules = sorted(package.glob("*.py"))
    assert package / "metrics.py" in modules
    for path in modules:
        if path.name != "metrics.py":
            text = path.read_text(encoding="utf-8")
            for name in ("_LevelGrids", "_metric_block", "_youden_cuts"):
                assert name not in text, (path.name, name)


class TestBootstrapAurocSpread:
    def test_bootstrap_sd_is_within_15_percent_of_delong_se(self):
        # Three synthetic groups of 2,000 records with different separation.
        rng = np.random.default_rng(20240611)
        for shift in (0.5, 1.0, 1.8):
            y = (rng.random(2000) < 0.3).astype(np.int64)
            s = 1.0 / (1.0 + np.exp(-(rng.normal(size=2000) + shift * y)))
            draws = [auroc(y[i], s[i]) for i in (rng.integers(0, 2000, 2000) for _ in range(400))]
            se = delong_auroc_se(y, s)
            assert abs(np.std(draws, ddof=1) / se - 1.0) < 0.15, (shift, np.std(draws, ddof=1), se)


class TestCalibrationCurve:
    def test_rejects_single_bin(self):
        with pytest.raises(ValueError, match="n_bins"):
            calibration_curve([0, 1], [0.2, 0.8], n_bins=1)

    def test_single_occupied_bin(self):
        n = 40
        labels = [i % 2 for i in range(n)]
        curve = calibration_curve(labels, [0.05] * n, n_bins=10)
        assert len(curve.bins) == 1
        b = curve.bins[0]
        assert b.mean_score == pytest.approx(0.05)
        assert b.positive_fraction == 0.5
        assert b.count == n

    def test_extreme_scores_land_in_terminal_bins(self):
        curve = calibration_curve([0, 1], [0.0, 1.0], n_bins=10)
        assert len(curve.bins) == 2
        assert curve.bins[0].mean_score == 0.0
        assert curve.bins[-1].mean_score == 1.0

    def test_counts_cover_all_records(self):
        rng = np.random.default_rng(3)
        s = rng.uniform(0, 1, 500)
        y = (rng.uniform(0, 1, 500) < s).astype(int)
        curve = calibration_curve(y, s, n_bins=10)
        assert sum(b.count for b in curve.bins) == 500

    def test_well_calibrated_scores_track_diagonal(self):
        rng = np.random.default_rng(12)
        n = 10000
        s = rng.uniform(0, 1, n)
        y = (rng.uniform(0, 1, n) < s).astype(int)
        curve = calibration_curve(y, s, n_bins=10)
        assert len(curve.bins) == 10
        for b in curve.bins:
            assert abs(b.positive_fraction - b.mean_score) < 0.05

    def test_rejects_scores_outside_unit_interval(self):
        with pytest.raises(ValueError, match=r"\[0, 1\]"):
            calibration_curve([0, 1], [0.5, 1.2], n_bins=5)

    def test_result_type(self):
        curve = calibration_curve([0, 1], [0.2, 0.8], n_bins=4)
        assert isinstance(curve, CalibrationCurve)
        assert curve.n_bins == 4
