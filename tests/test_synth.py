"""Synthetic cohort generator: configs, twin cohorts, splits, demo training."""

import json
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.special import expit

from biasaudit.cohort import (
    attribute_values,
    label_values,
    score_values,
    write_cohort,
)
from biasaudit.errors import AuditError, ConfigError, InsufficientDataError
from biasaudit.matching import smd
from biasaudit.metrics import auroc
from biasaudit.synth import (
    CovariateSpec,
    Injection,
    OutcomeModel,
    ProtectedSpec,
    ScoreModel,
    SynthConfig,
    config_from_dict,
    demo_train,
    generate,
    split_train_test,
)

import io

from oracles import pairwise_auroc


def base_config(**overrides):
    settings = dict(
        n=1000,
        seed=0,
        protected=(ProtectedSpec("g", ("a", "b"), (0.6, 0.4)),),
        covariates=(CovariateSpec("x"),),
        outcome=OutcomeModel(intercept=-0.5, weights={"x": 1.5}),
        score=ScoreModel(kind="oracle_noise", noise_sd=0.05),
    )
    settings.update(overrides)
    return SynthConfig(**settings)


def cohort_bytes(cohort):
    buf = io.StringIO()
    write_cohort(cohort, buf)
    return buf.getvalue()


# Every value kind a JSON document can hold, NaN and the infinities included.
JSON_VALUES = st.one_of(
    st.text(max_size=8), st.integers(-5, 500), st.floats(), st.booleans(), st.none(),
    st.lists(st.one_of(st.text(max_size=6), st.integers(), st.floats(), st.none()), max_size=3),
    st.dictionaries(st.text(max_size=4), st.one_of(st.text(max_size=6), st.floats(),
                                                   st.dictionaries(st.text(max_size=4), st.floats())),
                    max_size=3),
)


def fuzz_keys(keys):
    """Some of ``keys``, each with any JSON value."""
    return st.dictionaries(st.sampled_from(keys), JSON_VALUES)


def covariate_array(cohort, name):
    return np.asarray([float(rec.covariates[name]) for rec in cohort.records])


class TestConfigValidation:
    @pytest.mark.parametrize(
        "overrides, fragment",
        [
            ({"n": 0}, "size must be >= 1"),
            ({"score_name": ""}, "score_name"),
            (
                {"protected": (ProtectedSpec("g", ("a", "b"), (1.0,)),)},
                "differ in length",
            ),
            (
                {"protected": (ProtectedSpec("g", ("a", "a"), (0.5, 0.5)),)},
                "duplicate levels",
            ),
            (
                {"protected": (ProtectedSpec("g", ("a", "b"), (-0.1, 1.1)),)},
                "non-negative",
            ),
            (
                {"protected": (ProtectedSpec("g", ("a", "b"), (0.0, 0.0)),)},
                "positive sum",
            ),
            (
                {"covariates": (CovariateSpec("x"), CovariateSpec("x"))},
                "duplicate covariate",
            ),
            ({"covariates": (CovariateSpec("x", kind="poisson"),)}, "gaussian or bernoulli"),
            ({"covariates": (CovariateSpec("x", sigma=0.0),)}, "sigma"),
            ({"covariates": (CovariateSpec("x", kind="bernoulli", p=1.0),)}, "inside"),
            (
                {"covariates": (CovariateSpec("x", shifts={"h": {"a": 1.0}}),)},
                "unknown attribute",
            ),
            (
                {"covariates": (CovariateSpec("x", shifts={"g": {"zz": 1.0}}),)},
                "unknown level",
            ),
            ({"outcome": OutcomeModel(weights={"q": 1.0})}, "unknown covariate 'q'"),
            (
                {"outcome": OutcomeModel(protected_weights={"h": {"a": 1.0}})},
                "unknown attribute",
            ),
            (
                {"outcome": OutcomeModel(protected_weights={"g": {"zz": 1.0}})},
                "unknown level",
            ),
            ({"score": ScoreModel(kind="calibrated")}, "oracle_noise or trained_logistic"),
            ({"score": ScoreModel(noise_sd=-0.1)}, "noise_sd"),
            ({"score": ScoreModel(kind="trained_logistic")}, "needs features"),
            (
                {"score": ScoreModel(kind="trained_logistic", features=("q",))},
                "not among covariates",
            ),
            (
                {"injections": (Injection("g", "a", "swap", 0.1),)},
                "unknown injection mechanism",
            ),
            (
                {"injections": (Injection("h", "a", "score_noise", 0.1),)},
                "unknown attribute",
            ),
            (
                {"injections": (Injection("g", "zz", "score_noise", 0.1),)},
                "unknown level",
            ),
            (
                {"injections": (Injection("g", "a", "label_flip", 1.5),)},
                "probability",
            ),
            (
                {"injections": (Injection("g", "a", "score_noise", -0.2),)},
                "must be >= 0",
            ),
            ({"protected": (ProtectedSpec("g", ("a", "b"), (math.nan, 0.3)),)}, "protected 'g' weights must be finite"),
            ({"outcome": OutcomeModel(intercept=math.nan, weights={"x": 1.5})}, "outcome intercept must be finite"),
            ({"outcome": OutcomeModel(weights={"x": math.inf})}, "outcome weights.x must be finite"),
            ({"covariates": (CovariateSpec("x", mu=-math.inf),)}, "covariate 'x' mu must be finite"),
            ({"covariates": (CovariateSpec("x", shifts={"g": {"a": math.nan}}),)}, "shifts.g.a must be finite"),
            ({"score": ScoreModel(noise_sd=math.inf)}, "score noise_sd must be finite"),
            ({"injections": (Injection("g", "b", "score_shift", math.nan),)}, "injection 0 amount must be finite"),
            ({"protected": (ProtectedSpec("g", ("a", "b"), (1e308, 1e308)),)}, "does not overflow"),
            ({"covariates": (CovariateSpec("x", mu=1e308, sigma=1e308),)}, "overflow to non-finite values"),
            (
                {"covariates": (CovariateSpec("x", mu=5.0), CovariateSpec("z", mu=5.0)),
                 "outcome": OutcomeModel(weights={"x": 1e308, "z": -1e308})},
                "undefined log-odds",
            ),
            (
                {"n": 50, "outcome": OutcomeModel(intercept=50.0, weights={"x": 1.5}),
                 "score": ScoreModel(kind="trained_logistic", features=("x",))},
                "needs both outcome classes",
            ),
        ],
    )
    def test_bad_configs_rejected(self, overrides, fragment):
        with pytest.raises(ConfigError, match=fragment):
            generate(base_config(**overrides))

    def test_zero_weight_level_cannot_be_injected(self):
        config = base_config(
            protected=(ProtectedSpec("g", ("a", "b", "c"), (0.5, 0.5, 0.0)),),
            injections=(Injection("g", "c", "score_noise", 0.3),),
        )
        with pytest.raises(ConfigError, match="probability 0"):
            generate(config)


class TestConfigFromDict:
    def full_doc(self):
        return {
            "n": 200,
            "seed": 7,
            "score_name": "risk",
            "protected": [{"name": "race", "levels": ["x", "y"], "weights": [0.7, 0.3]}],
            "covariates": [
                {"name": "sofa", "kind": "gaussian", "mu": 1.0, "sigma": 2.0,
                 "shifts": {"race": {"y": 0.4}}},
                {"name": "icu", "kind": "bernoulli", "p": 0.25},
            ],
            "outcome": {"intercept": -1.0, "weights": {"sofa": 1.5}},
            "score": {"kind": "oracle_noise", "noise_sd": 0.1},
            "injections": [
                {"attribute": "race", "level": "y", "mechanism": "score_noise", "amount": 0.3}
            ],
        }

    def test_round_trips_every_field(self):
        config = config_from_dict(self.full_doc())
        assert config.n == 200
        assert config.seed == 7
        assert config.score_name == "risk"
        assert config.protected[0].levels == ("x", "y")
        assert config.covariates[0].shifts == {"race": {"y": 0.4}}
        assert config.covariates[1].kind == "bernoulli"
        assert config.outcome.weights == {"sofa": 1.5}
        assert config.score.noise_sd == 0.1
        assert config.injections[0].mechanism == "score_noise"

    def test_minimal_doc_needs_only_n(self):
        config = config_from_dict({"n": 50})
        assert config.n == 50
        assert config.protected == ()
        cohort, manifest = generate(config)
        assert cohort.n == 50
        assert manifest["n"] == 50

    @pytest.mark.parametrize(
        "mutate, fragment",
        [
            (lambda d: d.update(extra=1), "synth config"),
            (lambda d: d["protected"][0].update(color="blue"), "protected spec"),
            (lambda d: d["covariates"][0].update(scale=2), "covariate spec"),
            (lambda d: d["outcome"].update(slope=1), "outcome model"),
            (lambda d: d["score"].update(bias=0.1), "score model"),
            (lambda d: d["injections"][0].update(target="y"), "injection"),
        ],
    )
    def test_unknown_keys_fail_loudly(self, mutate, fragment):
        doc = self.full_doc()
        mutate(doc)
        with pytest.raises(ConfigError, match=fragment):
            config_from_dict(doc)

    def test_missing_n_rejected(self):
        with pytest.raises(ConfigError, match="'n'"):
            config_from_dict({"seed": 3})


    @pytest.mark.parametrize(
        "doc, fragment",
        [
            ({"n": "many"}, "n must be an integer"),
            ([1, 2], "synth config must be a JSON object"),
            ({"n": 10, "covariates": [{"name": "x", "mu": "a"}]}, "mu must be a number"),
            ({"n": 10, "protected": ["race"]}, "protected spec must be a JSON object"),
            ({"n": 10, "outcome": {"weights": {"x": "heavy"}}}, "weights.x must be a number"),
            ({"n": 10, "injections": [{"attribute": "g", "level": "a"}]}, "injection needs 'mechanism'"),
            ({"n": 2.7}, "n must be an integer"),
            ({"n": 10, "seed": "3"}, "seed must be an integer"),
            ({"n": 10, "seed": True}, "seed must be an integer"),
            ({"n": 10, "covariates": [{"name": "x", "mu": "0.05"}]}, "mu must be a number"),
            ({"n": 10, "covariates": [{"name": "x", "sigma": True}]}, "sigma must be a number"),
        ],
    )
    def test_malformed_values_raise_config_errors(self, doc, fragment):
        with pytest.raises(ConfigError, match=fragment):
            config_from_dict(doc)

    def test_integral_float_count_accepted(self):
        # JSON writes 1000 as 1e3 as readily as 1000.
        assert config_from_dict({"n": 1e3, "seed": 3.0}).n == 1000

    @settings(max_examples=300, deadline=None)
    @given(root=fuzz_keys(("n", "seed", "score_name", "protected", "covariates", "outcome", "score",
                           "injections")),
           protected=fuzz_keys(("name", "levels", "weights")),
           covariate=fuzz_keys(("name", "kind", "mu", "sigma", "p", "shifts")),
           outcome=fuzz_keys(("intercept", "weights", "protected_weights")),
           score=fuzz_keys(("kind", "noise_sd", "features")),
           injection=fuzz_keys(("attribute", "level", "mechanism", "amount")))
    def test_fuzzed_config_raises_only_config_errors(self, root, protected, covariate, outcome, score,
                                                     injection):
        doc = self.full_doc()
        for block, drawn in ((doc["protected"][0], protected), (doc["covariates"][0], covariate),
                             (doc["outcome"], outcome), (doc["score"], score),
                             (doc["injections"][0], injection)):
            block.update(drawn)
        doc.update(root)
        try:
            config_from_dict(doc)
        except ConfigError:
            pass


# Non-finite and extreme numbers, drawn in about one slot in eight.
WILD_NUMBERS = st.sampled_from([math.nan, math.inf, -math.inf, 1e308, -1e308, 0.0, 5e-324, 50.0, -1.0])


@st.composite
def synth_docs(draw):
    """A synth config document over every block, with drawn numbers."""

    def num(low=0.05):
        if draw(st.integers(0, 7)) == 0:
            return draw(WILD_NUMBERS)
        return draw(st.floats(low, 3.0))

    levels = ["x", "y", "z"][: draw(st.integers(1, 3))]
    score = draw(st.sampled_from(["oracle_noise", "trained_logistic"]))
    return {
        "n": draw(st.integers(1, 200)),
        "seed": draw(st.integers(0, 3)),
        "protected": [{"name": "race", "levels": levels, "weights": [num() for _ in levels]}],
        "covariates": [
            {"name": "sofa", "kind": "gaussian", "mu": num(-3.0), "sigma": num(),
             "shifts": {"race": {levels[0]: num(-3.0)}}},
            {"name": "icu", "kind": "bernoulli", "p": num() / 3.0, "shifts": {"race": {levels[-1]: num(-3.0)}}},
        ],
        "outcome": {"intercept": num(-3.0), "weights": {"sofa": num(-3.0), "icu": num(-3.0)},
                    "protected_weights": {"race": {levels[0]: num(-3.0)}}},
        "score": {"kind": score, "noise_sd": num() / 10.0,
                  "features": ["sofa", "icu"] if score == "trained_logistic" else []},
        "injections": [{"attribute": "race", "level": draw(st.sampled_from(levels)),
                        "mechanism": draw(st.sampled_from(["score_noise", "score_shift", "label_flip"])),
                        "amount": num() / 3.0}],
    }


class TestGenerate:
    @settings(max_examples=300, deadline=None)
    @given(doc=synth_docs())
    def test_fuzzed_generate_fails_only_with_exit_2_errors(self, doc):
        try:
            cohort, manifest = generate(config_from_dict(doc))
        except AuditError as exc:
            # The CLI maps every AuditError but InsufficientDataError to exit 2.
            assert not isinstance(exc, InsufficientDataError)
            return
        scores = score_values(cohort, "score")
        assert np.all((scores >= 0.0) & (scores <= 1.0))
        assert set(label_values(cohort).tolist()) <= {0, 1}
        json.dumps(manifest, allow_nan=False)

    def test_reproducible_to_the_byte(self):
        config = base_config(injections=(Injection("g", "b", "score_noise", 0.3),))
        cohort_1, manifest_1 = generate(config)
        cohort_2, manifest_2 = generate(config)
        assert cohort_bytes(cohort_1) == cohort_bytes(cohort_2)
        assert manifest_1 == manifest_2

    def test_seed_changes_output(self):
        a, _ = generate(base_config(seed=0))
        b, _ = generate(base_config(seed=1))
        assert cohort_bytes(a) != cohort_bytes(b)

    def test_injection_touches_only_its_subgroup(self):
        clean, _ = generate(base_config())
        biased, _ = generate(base_config(injections=(Injection("g", "b", "score_shift", 0.2),)))
        groups = attribute_values(clean, "g")
        assert attribute_values(biased, "g") == groups
        assert label_values(biased).tolist() == label_values(clean).tolist()
        assert covariate_array(biased, "x").tolist() == covariate_array(clean, "x").tolist()
        s_clean = score_values(clean, "score")
        s_biased = score_values(biased, "score")
        for i, g in enumerate(groups):
            if g == "a":
                assert s_biased[i] == s_clean[i]
            else:
                assert s_biased[i] == np.clip(s_clean[i] + 0.2, 0.0, 1.0)

    def test_level_frequencies_track_weights(self):
        config = base_config(
            n=5000, protected=(ProtectedSpec("g", ("a", "b", "c"), (0.5, 0.3, 0.2)),)
        )
        cohort, manifest = generate(config)
        values = attribute_values(cohort, "g")
        for level, weight in zip(("a", "b", "c"), (0.5, 0.3, 0.2)):
            count = sum(1 for v in values if v == level)
            assert abs(count - weight * 5000) <= 0.1 * weight * 5000
        assert manifest["protected"][0]["weights"] == [0.5, 0.3, 0.2]

    def test_weights_are_normalized(self):
        config = base_config(protected=(ProtectedSpec("g", ("a", "b"), (3.0, 1.0)),))
        _, manifest = generate(config)
        assert manifest["protected"][0]["weights"] == [0.75, 0.25]

    def test_covariate_shift_confounds_the_attribute(self):
        config = base_config(
            n=4000,
            covariates=(CovariateSpec("x", shifts={"g": {"b": 1.0}}),),
        )
        cohort, _ = generate(config)
        groups = np.asarray(attribute_values(cohort, "g"))
        x = covariate_array(cohort, "x")
        gap = float(np.nanmean(x[groups == "b"]) - np.nanmean(x[groups == "a"]))
        assert gap == pytest.approx(1.0, abs=0.15)
        assert smd(x, np.flatnonzero(groups == "a"), np.flatnonzero(groups == "b")) > 0.2

    def test_bernoulli_covariate_rates(self):
        config = base_config(
            n=4000, covariates=(CovariateSpec("flag", kind="bernoulli", p=0.25),),
            outcome=OutcomeModel(intercept=-0.5),
        )
        cohort, _ = generate(config)
        values = covariate_array(cohort, "flag")
        assert set(np.unique(values)) <= {0.0, 1.0}
        assert float(values.mean()) == pytest.approx(0.25, abs=0.03)

    def test_prevalence_matches_outcome_model(self):
        config = base_config(n=8000)
        cohort, manifest = generate(config)
        z, w = np.polynomial.hermite_e.hermegauss(80)
        expected = float(np.sum(w * expit(-0.5 + 1.5 * z)) / np.sum(w))
        assert float(label_values(cohort).mean()) == pytest.approx(expected, abs=0.03)
        assert manifest["empirical"]["prevalence"] == pytest.approx(expected, abs=0.03)

    def test_protected_outcome_weight_shifts_prevalence(self):
        config = base_config(
            n=6000,
            outcome=OutcomeModel(intercept=-0.5, weights={"x": 1.0},
                                 protected_weights={"g": {"b": 1.5}}),
        )
        cohort, _ = generate(config)
        groups = np.asarray(attribute_values(cohort, "g"))
        y = label_values(cohort)
        assert y[groups == "b"].mean() > y[groups == "a"].mean() + 0.15

    def test_low_noise_oracle_score_is_predictive(self):
        # Slope 1.5 on one gaussian covariate caps the oracle score near 0.8.
        cohort, manifest = generate(base_config(n=3000))
        assert manifest["empirical"]["auroc_overall"] > 0.75
        for row in manifest["empirical"]["subgroups"]:
            assert row["n"] > 0
        assert sum(r["n"] for r in manifest["empirical"]["subgroups"]) == 3000

    def test_empirical_summary_equals_pairwise_auroc_and_level_counts(self):
        protected = (ProtectedSpec("g", ("a", "b", "c"), (0.5, 0.3, 0.2)),
                     ProtectedSpec("h", ("u", "v"), (0.5, 0.5)))
        cohort, manifest = generate(base_config(n=600, protected=protected))
        y, s = label_values(cohort), score_values(cohort, "score")
        empirical = manifest["empirical"]
        assert empirical["auroc_overall"] == pairwise_auroc(y, s)
        want = {}
        for spec in protected:
            groups = np.asarray(attribute_values(cohort, spec.name))
            for level in spec.levels:
                mask = groups == level
                want[spec.name, level] = (int(mask.sum()), pairwise_auroc(y[mask], s[mask]))
        got = {(r["attribute"], r["level"]): (r["n"], r["auroc"]) for r in empirical["subgroups"]}
        assert got == want

    def test_scores_stay_inside_unit_interval(self):
        config = base_config(injections=(Injection("g", "b", "score_shift", 0.9),))
        cohort, _ = generate(config)
        s = score_values(cohort, "score")
        assert float(s.min()) >= 0.0
        assert float(s.max()) <= 1.0

    def test_label_flip_injection_flips_only_target_level(self):
        clean, _ = generate(base_config())
        flipped, _ = generate(base_config(injections=(Injection("g", "b", "label_flip", 0.5),)))
        groups = np.asarray(attribute_values(clean, "g"))
        y0 = label_values(clean)
        y1 = label_values(flipped)
        assert (y0[groups == "a"] == y1[groups == "a"]).all()
        changed = int((y0[groups == "b"] != y1[groups == "b"]).sum())
        n_b = int((groups == "b").sum())
        assert 0.35 * n_b < changed < 0.65 * n_b

    def test_added_injection_leaves_earlier_streams_alone(self):
        one, _ = generate(base_config(injections=(Injection("g", "b", "score_shift", 0.1),)))
        two, _ = generate(
            base_config(
                injections=(
                    Injection("g", "b", "score_shift", 0.1),
                    Injection("g", "a", "score_shift", -0.05),
                )
            )
        )
        groups = np.asarray(attribute_values(one, "g"))
        s1 = score_values(one, "score")
        s2 = score_values(two, "score")
        assert (s1[groups == "b"] == s2[groups == "b"]).all()

    def test_trained_logistic_score_model(self):
        config = base_config(
            n=2000,
            score=ScoreModel(kind="trained_logistic", features=("x",)),
        )
        cohort, manifest = generate(config)
        assert manifest["score_model"]["kind"] == "trained_logistic"
        assert manifest["empirical"]["auroc_overall"] > 0.7
        again, _ = generate(config)
        assert cohort_bytes(cohort) == cohort_bytes(again)

    @pytest.mark.parametrize("mechanism, amount",
                             [("score_noise", 0.2), ("score_shift", 0.1), ("label_flip", 0.3)])
    def test_trained_injection_moves_only_its_target_level(self, mechanism, amount):
        # Label flips move labels (the refit then moves every score); score
        # injections move scores and leave labels alone.
        trained = ScoreModel(kind="trained_logistic", features=("x",))
        clean, _ = generate(base_config(score=trained))
        biased, _ = generate(base_config(score=trained, injections=(Injection("g", "b", mechanism, amount),)))
        target = np.asarray(attribute_values(clean, "g")) == "b"
        if mechanism == "label_flip":
            before, after = label_values(clean), label_values(biased)
        else:
            assert (label_values(clean) == label_values(biased)).all()
            before, after = score_values(clean, "score"), score_values(biased, "score")
        assert (before[~target] == after[~target]).all()
        assert (before[target] != after[target]).any()

    def test_custom_score_name(self):
        config = base_config(score_name="risk_v2")
        cohort, manifest = generate(config)
        assert cohort.model_names == ("risk_v2",)
        assert manifest["score_name"] == "risk_v2"

    def test_manifest_echoes_injections(self):
        config = base_config(injections=(Injection("g", "b", "score_noise", 0.3),))
        _, manifest = generate(config)
        assert manifest["injections"] == [
            {"attribute": "g", "level": "b", "mechanism": "score_noise", "amount": 0.3}
        ]
        assert manifest["schema_version"] == 1


class TestSplitTrainTest:
    def make_cohort(self, n_pos, n_neg, seed=0):
        config = base_config(n=n_pos + n_neg)
        cohort, _ = generate(config)
        # Rebuild labels deterministically: first n_pos positive, rest negative.
        from helpers import build_cohort

        return build_cohort(
            labels=[1] * n_pos + [0] * n_neg,
            scores=[0.5] * (n_pos + n_neg),
        )

    def test_class_counts_follow_fraction(self):
        cohort = self.make_cohort(400, 1600)
        train, test = split_train_test(cohort, 0.3, seed=1)
        y = label_values(cohort)
        assert len(test) == 600
        assert int(y[list(test)].sum()) == 120
        assert int(y[list(train)].sum()) == 280

    def test_split_is_a_partition(self):
        cohort = self.make_cohort(50, 70)
        train, test = split_train_test(cohort, 0.25, seed=2)
        assert sorted(train + test) == list(range(120))
        assert not set(train) & set(test)

    def test_tiny_classes_keep_both_sides_populated(self):
        cohort = self.make_cohort(3, 3)
        train, test = split_train_test(cohort, 1 / 3, seed=3)
        y = label_values(cohort)
        for split in (train, test):
            classes = set(y[list(split)].tolist())
            assert classes == {0, 1}

    def test_extreme_fractions_are_clamped(self):
        cohort = self.make_cohort(5, 5)
        _, test_low = split_train_test(cohort, 0.01, seed=4)
        train_high, _ = split_train_test(cohort, 0.99, seed=4)
        y = label_values(cohort)
        assert int(y[list(test_low)].sum()) == 1
        assert len(test_low) == 2
        assert int(y[list(train_high)].sum()) == 1
        assert len(train_high) == 2

    def test_deterministic_per_seed(self):
        cohort = self.make_cohort(40, 60)
        assert split_train_test(cohort, 0.3, seed=5) == split_train_test(cohort, 0.3, seed=5)
        assert split_train_test(cohort, 0.3, seed=5) != split_train_test(cohort, 0.3, seed=6)

    @pytest.mark.parametrize("fraction", [0.0, 1.0, -0.2, 1.7])
    def test_fraction_must_be_interior(self, fraction):
        cohort = self.make_cohort(10, 10)
        with pytest.raises(ConfigError, match="inside"):
            split_train_test(cohort, fraction, seed=0)

    def test_single_class_cohort_rejected(self):
        from helpers import build_cohort

        cohort = build_cohort(labels=[1] * 10, scores=[0.5] * 10)
        with pytest.raises(ValueError, match="single-class"):
            split_train_test(cohort, 0.3, seed=0)


class TestDemoTrain:
    def test_informative_features_score_well(self):
        config = base_config(
            n=2000,
            covariates=(CovariateSpec("x"), CovariateSpec("z")),
            outcome=OutcomeModel(intercept=0.0, weights={"x": 4.0, "z": 3.0}),
        )
        cohort, _ = generate(config)
        train, test = split_train_test(cohort, 0.3, seed=0)
        scored, model = demo_train(cohort, train, ("x", "z"))
        assert model.converged
        y = label_values(scored)[list(test)]
        s = score_values(scored, "trained")[list(test)]
        assert auroc(y.tolist(), s.tolist()) > 0.95

    def test_unrelated_features_hover_at_chance(self):
        aurocs = []
        for seed in range(50):
            config = base_config(
                n=400, seed=seed,
                covariates=(CovariateSpec("x"),),
                outcome=OutcomeModel(intercept=0.0),
            )
            cohort, _ = generate(config)
            train, test = split_train_test(cohort, 0.3, seed=seed)
            scored, _ = demo_train(cohort, train, ("x",))
            y = label_values(scored)[list(test)]
            s = score_values(scored, "trained")[list(test)]
            aurocs.append(auroc(y.tolist(), s.tolist()))
        assert 0.45 <= float(np.mean(aurocs)) <= 0.55

    def test_empty_feature_list_scores_at_chance_exactly(self):
        cohort, _ = generate(base_config(n=300))
        train, test = split_train_test(cohort, 0.3, seed=1)
        scored, _ = demo_train(cohort, train, ())
        y = label_values(scored)[list(test)]
        s = score_values(scored, "trained")[list(test)]
        assert len(set(s.tolist())) == 1  # constant score
        assert auroc(y.tolist(), s.tolist()) == 0.5

    def test_original_cohort_is_untouched(self):
        cohort, _ = generate(base_config(n=300))
        train, _ = split_train_test(cohort, 0.3, seed=2)
        scored, _ = demo_train(cohort, train, ("x",), score_name="v2")
        assert cohort.model_names == ("score",)
        assert scored.model_names == ("score", "v2")
        assert score_values(scored, "score").tolist() == score_values(cohort, "score").tolist()
