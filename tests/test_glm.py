import logging
import math
import re
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.special import expit, logit

from biasaudit.cohort import MISSING_LABEL
from biasaudit.errors import ConfigError, FitError
from biasaudit.glm import (
    DesignMatrix,
    FeatureColumn,
    encode_design,
    export_model,
    fit_logistic,
    load_model,
    predict_proba,
)
from biasaudit.glm import expit as glm_expit

from helpers import build_cohort
from oracles import fd_gradient, loop_encode_design


def labelled(design: DesignMatrix) -> dict[str, list[float]]:
    return {
        col.label(): design.values[:, j].tolist()
        for j, col in enumerate(design.columns)
    }


def penalized_loglik(X: np.ndarray, y: np.ndarray, ridge: float, mask: np.ndarray):
    def f(beta: np.ndarray) -> float:
        eta = X @ beta
        ll = float(np.sum(y * eta - np.logaddexp(0.0, eta)))
        return ll - 0.5 * ridge * float(np.sum(mask * beta * beta))

    return f


def analytic_gradient(X, y, beta, ridge, mask) -> np.ndarray:
    return X.T @ (y - expit(X @ beta)) - ridge * mask * beta


def intercept_mask(design: DesignMatrix) -> np.ndarray:
    return np.asarray([0.0 if c.kind == "intercept" else 1.0 for c in design.columns])


def random_fit_problem(seed: int, n: int = 200):
    """A cohort with one numeric and one categorical covariate plus labels
    generated from a known logistic model on the encoded features."""
    rng = np.random.default_rng(seed)
    x = rng.normal(0, 1, n)
    cat = rng.choice(["a", "b", "c"], n)
    cohort = build_cohort(
        labels=[0, 1] * (n // 2),
        scores=[0.5] * n,
        covariates={"x": x.tolist(), "grp": cat.tolist()},
        covariate_kinds={"grp": "categorical"},
    )
    design = encode_design(cohort, range(n), ["x", "grp"])
    eta = design.values @ np.array([-0.3, 1.1, 0.6, -0.8])[: design.p]
    y = (rng.uniform(0, 1, n) < expit(eta)).astype(float)
    if y.min() == y.max():  # pragma: no cover - seeds below avoid this
        raise AssertionError("degenerate draw")
    return design, y


class TestEncodeDesign:
    def test_numeric_standardized_to_population_sd(self):
        cohort = build_cohort(
            labels=[0, 1, 0], scores=[0.5] * 3, covariates={"x": [1.0, 2.0, 3.0]}
        )
        design = encode_design(cohort, range(3), ["x"])
        cols = labelled(design)
        assert cols["intercept"] == [1.0, 1.0, 1.0]
        root32 = math.sqrt(3 / 2)
        assert cols["x"] == pytest.approx([-root32, 0.0, root32], rel=1e-12)
        (_, xcol) = design.columns
        assert xcol.center == 2.0
        assert xcol.scale == pytest.approx(math.sqrt(2 / 3), rel=1e-12)

    @pytest.mark.parametrize("values", [[-1e308, -1e308, -1e308], [1e308, -1e308, 1e308]])
    def test_overflowing_moments_name_the_covariate(self, values):
        # The mean overflows in the first case, the sd in the second.
        cohort = build_cohort(labels=[0, 1, 0], scores=[0.5] * 3, covariates={"x": values})
        with pytest.raises(FitError, match="covariate 'x' overflows standardization"):
            encode_design(cohort, range(3), ["x"])

    def test_categorical_reference_is_first_observed(self):
        cohort = build_cohort(
            labels=[0, 1, 0],
            scores=[0.5] * 3,
            covariates={"grp": ["A", "A", "B"]},
            covariate_kinds={"grp": "categorical"},
        )
        design = encode_design(cohort, range(3), ["grp"])
        cols = labelled(design)
        assert set(cols) == {"intercept", "grp=B"}
        assert cols["grp=B"] == [0.0, 0.0, 1.0]

    def test_missing_numeric_imputed_and_flagged(self):
        cohort = build_cohort(
            labels=[0, 1, 0], scores=[0.5] * 3, covariates={"x": [1.0, None, 3.0]}
        )
        design = encode_design(cohort, range(3), ["x"])
        cols = labelled(design)
        root32 = math.sqrt(3 / 2)
        assert cols["x"] == pytest.approx([-root32, 0.0, root32], rel=1e-12)
        assert cols[f"x={MISSING_LABEL}"] == [0.0, 1.0, 0.0]

    def test_missing_categorical_is_its_own_level(self):
        cohort = build_cohort(
            labels=[0, 1, 0],
            scores=[0.5] * 3,
            covariates={"grp": ["A", None, "B"]},
            covariate_kinds={"grp": "categorical"},
        )
        cols = labelled(encode_design(cohort, range(3), ["grp"]))
        assert cols[f"grp={MISSING_LABEL}"] == [0.0, 1.0, 0.0]
        assert cols["grp=B"] == [0.0, 0.0, 1.0]

    def test_binary_passes_through_raw(self):
        cohort = build_cohort(
            labels=[0, 1, 0, 1],
            scores=[0.5] * 4,
            covariates={"flag": [0, 1, 1, 0]},
            covariate_kinds={"flag": "binary"},
        )
        cols = labelled(encode_design(cohort, range(4), ["flag"]))
        assert cols["flag"] == [0.0, 1.0, 1.0, 0.0]

    def test_zero_variance_column_dropped(self):
        cohort = build_cohort(
            labels=[0, 1, 0],
            scores=[0.5] * 3,
            covariates={"x": [2.0, 2.0, 2.0], "y": [1.0, 2.0, 3.0]},
        )
        design = encode_design(cohort, range(3), ["x", "y"])
        assert design.dropped == ("x",)
        assert set(labelled(design)) == {"intercept", "y"}

    def test_entirely_missing_covariate_rejected(self):
        cohort = build_cohort(
            labels=[0, 1], scores=[0.5] * 2, covariates={"x": [None, None]}
        )
        with pytest.raises(ConfigError, match="entirely missing"):
            encode_design(cohort, range(2), ["x"])

    def test_unknown_covariate_rejected(self):
        cohort = build_cohort(labels=[0, 1], scores=[0.5] * 2)
        with pytest.raises(ConfigError, match="unknown covariate"):
            encode_design(cohort, range(2), ["ghost"])

    def test_empty_subset_rejected(self):
        cohort = build_cohort(labels=[0, 1], scores=[0.5] * 2)
        with pytest.raises(ValueError, match="empty"):
            encode_design(cohort, [], [])

    def test_reuse_applies_training_statistics(self):
        cohort = build_cohort(
            labels=[0, 1, 0, 1],
            scores=[0.5] * 4,
            covariates={"x": [1.0, 2.0, 3.0, 10.0]},
        )
        train = encode_design(cohort, [0, 1, 2], ["x"])
        held_out = encode_design(cohort, [3], ["x"], reuse=train.columns)
        xcol = train.columns[1]
        assert held_out.values[0, 1] == pytest.approx((10.0 - xcol.center) / xcol.scale)
        assert held_out.columns == train.columns

    def test_reuse_imputes_with_training_mean(self):
        cohort = build_cohort(
            labels=[0, 1, 0, 1],
            scores=[0.5] * 4,
            covariates={"x": [1.0, 2.0, 3.0, None]},
        )
        train = encode_design(cohort, [0, 1, 2], ["x"])
        held_out = encode_design(cohort, [3], ["x"], reuse=train.columns)
        # training rows had no missing x, so reuse has no flag column and the
        # held-out missing value imputes to the training mean (encodes to 0)
        assert held_out.values[0, 1] == 0.0

    def test_constant_categorical_dropped_like_constant_numeric(self, caplog):
        cohort = build_cohort(
            labels=[0, 1, 0, 1],
            scores=[0.5] * 4,
            covariates={"x": [2.0, 2.0, 2.0, 5.0], "grp": ["A", "A", "A", "B"], "y": [1.0, 2.0, 3.0, 4.0]},
            covariate_kinds={"grp": "categorical"},
        )
        with caplog.at_level(logging.WARNING, logger="biasaudit.glm"):
            design = encode_design(cohort, range(3), ["x", "grp", "y"])
        assert design.dropped == ("x", "grp")
        assert set(labelled(design)) == {"intercept", "y"}
        assert [r.getMessage() for r in caplog.records] == [
            "dropping constant numeric covariate 'x'",
            "dropping constant categorical covariate 'grp'",
        ]


def _column(draw, kind: str, n: int) -> list:
    """``n`` values of one covariate drawn from a pool of at most three, so
    constant columns and ties are common; None is a missing value."""
    value = {
        "numeric": st.floats(-1e6, 1e6),
        "binary": st.sampled_from([0, 1]),
        "categorical": st.sampled_from(["a", "b", "c", "MISSING"]),
    }[kind]
    pool = draw(st.lists(value, min_size=1, max_size=3))
    return draw(st.lists(st.sampled_from([*pool, None]) | st.sampled_from(pool), min_size=n, max_size=n))


@st.composite
def encoding_problems(draw):
    """A cohort of numeric, binary and categorical covariates with missing
    values, a row subset (unsorted, repeats allowed) and covariate names."""
    n = draw(st.integers(1, 20))
    kinds = draw(st.lists(st.sampled_from(["numeric", "binary", "categorical"]), max_size=4))
    columns = {f"c{j}": _column(draw, kind, n) for j, kind in enumerate(kinds)}
    cohort = build_cohort(
        labels=[i % 2 for i in range(n)], scores=[0.5] * n, covariates=columns,
        covariate_kinds={f"c{j}": kind for j, kind in enumerate(kinds)},
    )
    rows = draw(st.lists(st.integers(0, n - 1), min_size=1, max_size=2 * n))
    names = draw(st.permutations(list(columns)))
    return cohort, columns, dict(zip(columns, kinds)), rows, names


class TestEncodeOracle:
    @settings(max_examples=400, deadline=None)
    @given(problem=encoding_problems())
    def test_encode_design_equals_loop_oracle(self, problem):
        cohort, columns, kinds, rows, names = problem
        try:
            expected = loop_encode_design(cohort, rows, names)
        except ConfigError as exc:
            with pytest.raises(ConfigError, match=re.escape(str(exc))):
                encode_design(cohort, rows, names)
            return
        design = encode_design(cohort, rows, names)
        assert design.columns == expected.columns
        assert design.values.shape == expected.values.shape
        assert design.values.tobytes() == expected.values.tobytes()
        # The oracle leaves a constant categorical out of ``dropped``.
        constant_categorical = {
            name for name in names
            if kinds[name] == "categorical" and len({columns[name][i] or "MISSING" for i in rows}) == 1
        }
        assert design.dropped == tuple(n for n in names if n in expected.dropped or n in constant_categorical)
        # Applying the fitted descriptors to the same rows rebuilds the matrix.
        again = encode_design(cohort, rows, names, reuse=design.columns)
        assert again.columns == design.columns and again.dropped == ()
        assert again.values.tobytes() == design.values.tobytes()


class TestFitLogistic:
    def test_intercept_only_balanced(self):
        cohort = build_cohort(labels=[0, 1, 0, 1], scores=[0.5] * 4)
        design = encode_design(cohort, range(4), [])
        model = fit_logistic(design, [0, 1, 0, 1], ridge=0.0)
        assert model.converged
        assert model.coefficients[0] == pytest.approx(0.0, abs=1e-9)
        assert predict_proba(model, design) == pytest.approx([0.5] * 4)

    def test_intercept_only_matches_base_rate(self):
        y = [1, 0, 0, 0, 0, 0, 0, 0, 0, 0] * 3  # prevalence 0.1
        cohort = build_cohort(labels=y, scores=[0.5] * 30)
        design = encode_design(cohort, range(30), [])
        model = fit_logistic(design, y, ridge=0.0)
        assert model.coefficients[0] == pytest.approx(logit(0.1), abs=1e-8)
        assert predict_proba(model, design)[0] == pytest.approx(0.1, abs=1e-9)

    def test_predict_recovers_known_probability(self):
        column = (FeatureColumn(kind="intercept"),)
        design = DesignMatrix(columns=column, values=np.ones((1, 1)))
        from biasaudit.glm import LogisticModel

        model = LogisticModel(
            columns=column,
            coefficients=np.array([float(logit(0.3))]),
            converged=True,
            iterations=0,
            final_gradient_norm=0.0,
            ridge=0.0,
        )
        assert predict_proba(model, design)[0] == pytest.approx(0.3, rel=1e-12)

    @pytest.mark.parametrize("seed", [11, 12, 13])
    def test_score_equation_at_mle(self, seed):
        design, y = random_fit_problem(seed)
        model = fit_logistic(design, y, ridge=0.0)
        assert model.converged
        score = design.values.T @ (y - expit(design.values @ model.coefficients))
        assert np.max(np.abs(score)) <= 1e-8

    @pytest.mark.parametrize("ridge", [0.0, 0.5])
    def test_gradient_matches_finite_differences(self, ridge):
        design, y = random_fit_problem(21)
        model = fit_logistic(design, y, ridge=ridge)
        mask = intercept_mask(design)
        f = penalized_loglik(design.values, y, ridge, mask)
        rng = np.random.default_rng(5)
        for beta in [model.coefficients, rng.normal(0, 0.5, design.p)]:
            g_exact = analytic_gradient(design.values, y, beta, ridge, mask)
            g_fd = fd_gradient(f, beta)
            rel = np.max(np.abs(g_exact - g_fd)) / max(1.0, np.max(np.abs(g_fd)))
            assert rel <= 1e-5

    def test_separable_data_flagged_not_converged(self):
        x = [-2.0, -1.5, -1.0, 1.0, 1.5, 2.0]
        y = [0, 0, 0, 1, 1, 1]
        cohort = build_cohort(labels=y, scores=[0.5] * 6, covariates={"x": x})
        design = encode_design(cohort, range(6), ["x"])
        model = fit_logistic(design, y, ridge=0.0)
        assert not model.converged
        # the runaway slope is the divergence: every record is fitted to
        # within float fuzz of its label
        assert abs(model.coefficients[1]) > 10

    def test_ridge_restores_convergence_on_separable_data(self):
        x = [-2.0, -1.5, -1.0, 1.0, 1.5, 2.0]
        y = [0, 0, 0, 1, 1, 1]
        cohort = build_cohort(labels=y, scores=[0.5] * 6, covariates={"x": x})
        design = encode_design(cohort, range(6), ["x"])
        model = fit_logistic(design, y, ridge=1.0)
        assert model.converged
        assert np.all(np.isfinite(model.coefficients))

    def test_collinear_columns_raise_with_advice(self):
        cohort = build_cohort(
            labels=[0, 1, 0, 1],
            scores=[0.5] * 4,
            covariates={"x": [1.0, 2.0, 3.0, 4.0], "x2": [1.0, 2.0, 3.0, 4.0]},
        )
        design = encode_design(cohort, range(4), ["x", "x2"])
        with pytest.raises(FitError, match="ridge"):
            fit_logistic(design, [0, 1, 0, 1], ridge=0.0)

    def test_recovers_generating_coefficients(self):
        rng = np.random.default_rng(99)
        n = 20000
        x = rng.normal(0, 1, n)
        true = np.array([-0.4, 0.9])
        y = (rng.uniform(0, 1, n) < expit(true[0] + true[1] * x)).astype(int)
        cohort = build_cohort(labels=y.tolist(), scores=[0.5] * n, covariates={"x": x.tolist()})
        design = encode_design(cohort, range(n), ["x"])
        model = fit_logistic(design, y, ridge=0.0)
        # x is standardized, so the slope estimate scales by sd(x)
        sd = design.columns[1].scale
        assert model.coefficients[0] == pytest.approx(true[0] + true[1] * design.columns[1].center, abs=0.06)
        assert model.coefficients[1] * (1 / sd) == pytest.approx(true[1], abs=0.06)

    def test_predictions_monotone_in_positive_feature(self):
        design, y = random_fit_problem(31)
        model = fit_logistic(design, y, ridge=1e-6)
        beta = model.coefficients
        x_idx = [j for j, c in enumerate(design.columns) if c.label() == "x"][0]
        order = np.argsort(design.values[:, x_idx])
        p = predict_proba(model, design)
        contrib = beta[x_idx] * design.values[order, x_idx]
        other = design.values[order] @ beta - contrib
        # holding everything else fixed, the x contribution is monotone
        assert np.all(np.diff(np.sign(beta[x_idx]) * design.values[order, x_idx]) >= 0)
        assert p.shape == y.shape

    def test_fit_is_deterministic(self):
        design, y = random_fit_problem(41)
        a = fit_logistic(design, y, ridge=1e-4)
        b = fit_logistic(design, y, ridge=1e-4)
        assert np.array_equal(a.coefficients, b.coefficients)
        assert a.iterations == b.iterations

    def test_single_class_outcomes_rejected(self):
        cohort = build_cohort(labels=[1, 1], scores=[0.5] * 2)
        design = encode_design(cohort, range(2), [])
        with pytest.raises(ValueError, match="single-class"):
            fit_logistic(design, [1, 1])

    def test_negative_ridge_rejected(self):
        cohort = build_cohort(labels=[0, 1], scores=[0.5] * 2)
        design = encode_design(cohort, range(2), [])
        with pytest.raises(ValueError, match="ridge"):
            fit_logistic(design, [0, 1], ridge=-1.0)

    def test_mismatched_outcomes_rejected(self):
        cohort = build_cohort(labels=[0, 1], scores=[0.5] * 2)
        design = encode_design(cohort, range(2), [])
        with pytest.raises(ValueError, match="does not match"):
            fit_logistic(design, [0, 1, 1])


class TestExpit:
    def test_extremes_are_exact_and_silent(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            p = glm_expit([-1000.0, -710.0, 0.0, 710.0, 1000.0, math.nan])
        assert p[0] == 0.0 and 0.0 <= p[1] <= 1e-300
        assert p[2] == 0.5 and p[3] == 1.0 and p[4] == 1.0
        assert math.isnan(p[5])

    def test_matches_scipy_to_rounding(self):
        # numpy's vectorised exp differs from libm's in the last ulp for a
        # few percent of inputs; 1 + exp(-x) can round that to two ulps of
        # the result (worst near x = -37), so the bound is 3 eps relative.
        rng = np.random.default_rng(8)
        x = np.concatenate([rng.normal(0.0, 20.0, 50_000), rng.uniform(-800.0, 800.0, 50_000)])
        np.testing.assert_allclose(glm_expit(x), expit(x), rtol=3 * np.finfo(float).eps, atol=0)


class TestPredictProba:
    def test_requires_matching_descriptors(self):
        cohort = build_cohort(
            labels=[0, 1, 0, 1], scores=[0.5] * 4, covariates={"x": [1.0, 2.0, 3.0, 4.0]}
        )
        design = encode_design(cohort, range(4), ["x"])
        model = fit_logistic(design, [0, 1, 0, 1], ridge=0.1)
        other = encode_design(cohort, range(2), ["x"])  # different stats
        with pytest.raises(ValueError, match="descriptors"):
            predict_proba(model, other)

    def test_probabilities_clipped_inside_unit_interval(self):
        x = [-30.0, -20.0, -10.0, 10.0, 20.0, 30.0]
        y = [0, 0, 0, 1, 1, 1]
        cohort = build_cohort(labels=y, scores=[0.5] * 6, covariates={"x": x})
        design = encode_design(cohort, range(6), ["x"])
        model = fit_logistic(design, y, ridge=1e-8)
        p = predict_proba(model, design)
        assert np.all(p > 0) and np.all(p < 1)


class TestModelSerialization:
    def test_round_trip_preserves_model(self, tmp_path):
        design, y = random_fit_problem(61)
        model = fit_logistic(design, y, ridge=1e-3)
        path = tmp_path / "model.json"
        export_model(model, path)
        again = load_model(path)
        assert again.columns == model.columns
        assert np.array_equal(again.coefficients, model.coefficients)
        assert again.converged == model.converged
        assert again.ridge == model.ridge
        assert np.array_equal(predict_proba(again, design), predict_proba(model, design))

    def test_load_from_text(self):
        design, y = random_fit_problem(62)
        model = fit_logistic(design, y, ridge=1e-3)
        again = load_model(export_model(model))
        assert np.array_equal(again.coefficients, model.coefficients)
