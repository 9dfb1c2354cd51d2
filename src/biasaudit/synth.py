"""Synthetic cohorts with known ground truth.

The generator draws protected attributes, covariates shifted per level,
outcome labels from a logistic model, and a risk score that is either the
true probability plus noise or a logistic model trained on the generated
data.  Bias is then injected per subgroup (extra score noise, a score shift,
or label flips), each injection drawing from its own random stream so that
two configs differing only in injections share identical base data.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, field, replace

import numpy as np
from numpy.dtypes import StringDType

from ._rng import stream
from .cohort import (
    Cohort,
    CohortSchema,
    CovariateColumn,
    ProtectedColumn,
    label_values,
    with_score_column,
)
from .errors import ConfigError, _check_keys, _convert, _names, _typed
from .glm import encode_design, expit, fit_logistic, predict_proba
from .metrics import _Sample

_MECHANISMS = ("score_noise", "score_shift", "label_flip")


@dataclass(frozen=True)
class ProtectedSpec:
    name: str
    levels: tuple[str, ...]
    weights: tuple[float, ...]


@dataclass(frozen=True)
class CovariateSpec:
    """One synthetic covariate.

    ``shifts`` moves the covariate per protected level: a gaussian covariate
    gets its mean shifted, a bernoulli covariate gets the shift added on the
    log-odds scale.  Keyed as {attribute: {level: shift}}.
    """

    name: str
    kind: str = "gaussian"
    mu: float = 0.0
    sigma: float = 1.0
    p: float = 0.5
    shifts: dict = field(default_factory=dict)


@dataclass(frozen=True)
class OutcomeModel:
    """Logistic outcome: logit P(y=1) = intercept + sum(weights * covariate)
    plus optional per-level protected terms."""

    intercept: float = 0.0
    weights: dict = field(default_factory=dict)
    protected_weights: dict = field(default_factory=dict)


@dataclass(frozen=True)
class ScoreModel:
    """How the risk score is produced.

    "oracle_noise": the true outcome probability plus N(0, noise_sd), clamped
    to [0, 1].  "trained_logistic": fit a logistic model on ``features`` over
    the generated data and use its predictions.
    """

    kind: str = "oracle_noise"
    noise_sd: float = 0.05
    features: tuple[str, ...] = ()


@dataclass(frozen=True)
class Injection:
    """Deliberate degradation of one subgroup.

    mechanism "score_noise": add N(0, amount) to the subgroup's scores;
    "score_shift": add ``amount`` to the subgroup's scores;
    "label_flip": flip each subgroup label with probability ``amount``.
    Scores are re-clamped to [0, 1] after every injection.
    """

    attribute: str
    level: str
    mechanism: str
    amount: float


@dataclass(frozen=True)
class SynthConfig:
    n: int
    protected: tuple[ProtectedSpec, ...] = ()
    covariates: tuple[CovariateSpec, ...] = ()
    outcome: OutcomeModel = field(default_factory=OutcomeModel)
    score: ScoreModel = field(default_factory=ScoreModel)
    injections: tuple[Injection, ...] = ()
    seed: int = 0
    score_name: str = "score"


def _numbers(config: SynthConfig):
    """Every number of the config, each with the key that names it."""
    yield from (("outcome intercept", config.outcome.intercept), ("score noise_sd", config.score.noise_sd))
    yield from ((f"protected {spec.name!r} weights", w) for spec in config.protected for w in spec.weights)
    for cov in config.covariates:
        yield from ((f"covariate {cov.name!r} {key}", getattr(cov, key)) for key in ("mu", "sigma", "p"))
        yield from ((f"covariate {cov.name!r} shifts.{a}.{lv}", v)
                    for a, by_level in cov.shifts.items() for lv, v in by_level.items())
    yield from ((f"outcome weights.{k}", v) for k, v in config.outcome.weights.items())
    yield from ((f"outcome protected_weights.{a}.{lv}", v)
                for a, by_level in config.outcome.protected_weights.items() for lv, v in by_level.items())
    yield from ((f"injection {i} amount", j.amount) for i, j in enumerate(config.injections))


def _validate(config: SynthConfig) -> dict[str, dict[str, float]]:
    """Cross-field checks; returns normalized level weights per attribute."""
    if config.n < 1:
        raise ConfigError(f"synthetic cohort size must be >= 1, got {config.n}")
    if not config.score_name:
        raise ConfigError("score_name must be non-empty")
    for key, value in _numbers(config):
        if not math.isfinite(value):
            raise ConfigError(f"{key} must be finite, got {value}")
    weights: dict[str, dict[str, float]] = {}
    for spec in config.protected:
        if len(spec.levels) != len(spec.weights):
            raise ConfigError(f"protected {spec.name!r}: levels and weights differ in length")
        if len(set(spec.levels)) != len(spec.levels):
            raise ConfigError(f"protected {spec.name!r}: duplicate levels")
        w = np.asarray(spec.weights, dtype=float)
        with np.errstate(over="ignore"):  # an overflowing sum is rejected just below
            total = w.sum()
        if np.any(w < 0) or not 0 < total < np.inf:
            raise ConfigError(f"protected {spec.name!r}: weights must be non-negative "
                              "with positive sum that does not overflow")
        weights[spec.name] = dict(zip(spec.levels, (w / total).tolist()))
    cov_names = [c.name for c in config.covariates]
    if len(set(cov_names)) != len(cov_names):
        raise ConfigError("duplicate covariate names")
    for cov in config.covariates:
        if cov.kind not in ("gaussian", "bernoulli"):
            raise ConfigError(f"covariate {cov.name!r}: kind must be gaussian or bernoulli")
        if cov.kind == "gaussian" and cov.sigma <= 0:
            raise ConfigError(f"covariate {cov.name!r}: sigma must be positive")
        if cov.kind == "bernoulli" and not 0 < cov.p < 1:
            raise ConfigError(f"covariate {cov.name!r}: p must be inside (0, 1)")
        for attr, by_level in cov.shifts.items():
            if attr not in weights:
                raise ConfigError(f"covariate {cov.name!r}: shift references unknown attribute {attr!r}")
            for level in by_level:
                if level not in weights[attr]:
                    raise ConfigError(f"covariate {cov.name!r}: shift references unknown level {level!r}")
    for name in config.outcome.weights:
        if name not in cov_names:
            raise ConfigError(f"outcome model references unknown covariate {name!r}")
    for attr, by_level in config.outcome.protected_weights.items():
        if attr not in weights:
            raise ConfigError(f"outcome model references unknown attribute {attr!r}")
        for level in by_level:
            if level not in weights[attr]:
                raise ConfigError(f"outcome model references unknown level {level!r}")
    if config.score.kind not in ("oracle_noise", "trained_logistic"):
        raise ConfigError(f"score model kind must be oracle_noise or trained_logistic, got {config.score.kind!r}")
    if config.score.kind == "oracle_noise" and config.score.noise_sd < 0:
        raise ConfigError("score noise_sd must be >= 0")
    if config.score.kind == "trained_logistic":
        missing = [f for f in config.score.features if f not in cov_names]
        if missing:
            raise ConfigError(f"score model features not among covariates: {', '.join(missing)}")
        if not config.score.features:
            raise ConfigError("trained_logistic score model needs features")
    for inj in config.injections:
        if inj.mechanism not in _MECHANISMS:
            raise ConfigError(f"unknown injection mechanism {inj.mechanism!r}; choose from {_MECHANISMS}")
        if inj.attribute not in weights:
            raise ConfigError(f"injection references unknown attribute {inj.attribute!r}")
        if inj.level not in weights[inj.attribute]:
            raise ConfigError(f"injection references unknown level {inj.level!r} of {inj.attribute!r}")
        if weights[inj.attribute][inj.level] == 0.0:
            raise ConfigError(
                f"injection targets level {inj.level!r} of {inj.attribute!r}, which has probability 0"
            )
        if inj.mechanism == "label_flip" and not 0 <= inj.amount <= 1:
            raise ConfigError("label_flip amount is a probability and must lie in [0, 1]")
        if inj.mechanism == "score_noise" and inj.amount < 0:
            raise ConfigError("score_noise amount must be >= 0")
    return weights


def generate(config: SynthConfig) -> tuple[Cohort, dict]:
    """Generate a scored cohort plus a manifest of the planted truth.

    Every stochastic step has its own stream keyed by purpose, so editing one
    part of the config (say, adding an injection) leaves all other one draws
    untouched: a biased cohort and its bias-free twin differ only where the
    injection touched.
    """
    weights = _validate(config)
    # The draws die with ``_draw_cohort``, before the summary counts the cohort.
    cohort = _draw_cohort(config, weights)
    # Each block is its spec's fields in declaration order; protected
    # weights are the normalized ones the draws used.
    manifest = {
        "schema_version": 1,
        "seed": config.seed,
        "n": config.n,
        "score_name": config.score_name,
        "protected": [{**asdict(s), "weights": [weights[s.name][lv] for lv in s.levels]} for s in config.protected],
        "covariates": [asdict(c) for c in config.covariates],
        "outcome": asdict(config.outcome),
        "score_model": asdict(config.score),
        "injections": [asdict(j) for j in config.injections],
        "empirical": _empirical_summary(cohort, config.score_name),
    }
    return cohort, manifest


def _draw_cohort(config: SynthConfig, weights: dict[str, dict[str, float]]) -> Cohort:
    """The scored cohort of a validated config, ``weights`` its normalized
    level weights.  It keeps only the arrays the cohort holds."""
    n = config.n

    # Each record's level of each attribute, drawn as an index into the
    # spec's levels (the same draws as choosing among the level names) and
    # kept as its code: levels are numbered in first-appearance order, as
    # parsing the written cohort numbers them.  ``code_of`` maps each spec
    # level to its code, -1 for a level no record drew.
    levels, codes, code_of = {}, {}, {}
    for spec in config.protected:
        rng = stream(config.seed, "protected", spec.name)
        p = np.asarray([weights[spec.name][lv] for lv in spec.levels])
        draws = rng.choice(len(spec.levels), size=n, p=p)
        present, first = np.unique(draws, return_index=True)
        present = present[np.argsort(first)]
        code = np.full(len(spec.levels), -1, dtype=np.int64)
        code[present] = np.arange(present.size)
        levels[spec.name] = tuple(spec.levels[i] for i in present.tolist())
        codes[spec.name] = code[draws]
        code_of[spec.name] = dict(zip(spec.levels, code.tolist()))

    def members(attribute: str, level: str) -> np.ndarray:
        return codes[attribute] == code_of[attribute][level]

    # Float from the draw on: the cohort holds these arrays themselves.
    cov_values: dict[str, np.ndarray] = {}
    for cov in config.covariates:
        rng = stream(config.seed, "covariate", cov.name)
        shift = np.zeros(n)
        # A Gaussian that overflows is rejected; a Bernoulli log-odds that
        # overflows to +-inf is a probability of 1 or 0.
        with np.errstate(over="ignore", invalid="ignore"):
            for attr, by_level in cov.shifts.items():
                for level, delta in by_level.items():
                    shift[members(attr, level)] += delta
            if cov.kind == "gaussian":
                cov_values[cov.name] = rng.normal(cov.mu, cov.sigma, n) + shift
                if not np.all(np.isfinite(cov_values[cov.name])):
                    raise ConfigError(f"covariate {cov.name!r}: mu, sigma and shifts overflow to non-finite values")
            else:
                base = np.log(cov.p) - np.log1p(-cov.p)
                prob = expit(base + shift)
                cov_values[cov.name] = (rng.random(n) < prob).astype(float)

    eta = np.full(n, float(config.outcome.intercept))
    with np.errstate(over="ignore", invalid="ignore"):  # an undefined log-odds is rejected just below
        for name, w in config.outcome.weights.items():
            eta += float(w) * cov_values[name]
        for attr, by_level in config.outcome.protected_weights.items():
            for level, w in by_level.items():
                eta[members(attr, level)] += float(w)
    if np.isnan(eta).any():
        raise ConfigError("outcome model overflows: its weights and intercept give an undefined log-odds")
    p_true = expit(eta)
    labels = (stream(config.seed, "outcome").random(n) < p_true).astype(np.int64)

    for i, inj in enumerate(config.injections):
        if inj.mechanism == "label_flip":
            u = stream(config.seed, "injection", i).random(n)
            labels = np.where(members(inj.attribute, inj.level) & (u < inj.amount), 1 - labels, labels)

    width = max(4, len(str(n)))
    schema = CohortSchema(
        id_column="id",
        label_column="label",
        score_columns=((config.score_name, config.score_name),),
        protected_columns=tuple(ProtectedColumn(name=s.name) for s in config.protected),
        covariate_columns=tuple(
            CovariateColumn(name=c.name, kind="numeric" if c.kind == "gaussian" else "binary")
            for c in config.covariates
        ),
    )
    cohort = Cohort(
        schema=schema,
        ids=np.strings.add("r", np.strings.zfill(np.arange(1, n + 1).astype(StringDType()), width)),
        labels=labels,
        scores={config.score_name: np.full(n, np.nan)},
        codes=codes,
        covariates=cov_values,
        attribute_levels=levels,
    )

    if config.score.kind == "oracle_noise":
        noise = stream(config.seed, "score").normal(0.0, config.score.noise_sd, n) \
            if config.score.noise_sd > 0 else np.zeros(n)
        scores = np.clip(p_true + noise, 0.0, 1.0)
    else:
        # trained scores see post-injection labels, as a refit in the wild would
        if labels.min() == labels.max():
            raise ConfigError(f"trained_logistic score model needs both outcome classes, "
                              f"but all {n} labels are {labels[0]}")
        design = encode_design(cohort, range(n), config.score.features)
        model = fit_logistic(design, labels.astype(float), ridge=1e-6)
        scores = predict_proba(model, design)

    for i, inj in enumerate(config.injections):
        if inj.mechanism == "label_flip":
            continue
        rng = stream(config.seed, "injection", i)
        extra = rng.normal(0.0, inj.amount, n) if inj.mechanism == "score_noise" else inj.amount
        scores = np.clip(np.where(members(inj.attribute, inj.level), scores + extra, scores), 0.0, 1.0)
    return replace(cohort, scores={config.score_name: scores})


def _empirical_summary(cohort: Cohort, model: str) -> dict:
    y = cohort.labels
    columns = cohort.schema.protected_columns
    partitions = [(cohort.codes[col.name], len(cohort.attribute_levels[col.name])) for col in columns]
    whole, *parts = _Sample(cohort.scores[model], y, [(0, 1), *partitions]).evaluate(("AUROC", "n"))
    auc = whole[0, 0, 0]
    out: dict = {
        "prevalence": float(y.mean()),
        "auroc_overall": None if np.isnan(auc) else float(auc),
        "subgroups": [],
    }
    for col, values in zip(columns, parts):
        levels = cohort.attribute_levels[col.name]
        for level, auc, n in zip(levels, *values[0]):
            if n:
                out["subgroups"].append(
                    {
                        "attribute": col.name,
                        "level": level,
                        "n": int(n),
                        "auroc": None if np.isnan(auc) else float(auc),
                    }
                )
    return out


def _number_map(value, key: str, depth: int = 1) -> dict:
    """A JSON object of numbers (``depth`` 1) or of such objects (``depth``
    2), every number converted to float; ConfigError naming ``key`` otherwise."""
    return {
        k: _number_map(v, f"{key}.{k}", depth - 1) if depth > 1 else _convert(float, v, f"{key}.{k}")
        for k, v in _typed(value, dict, key).items()
    }


def config_from_dict(doc: dict) -> SynthConfig:
    """Build a SynthConfig from a plain JSON document.

    Expected shape::

        {"n": 3000, "seed": 7, "score_name": "score",
         "protected": [{"name": "race", "levels": [...], "weights": [...]}],
         "covariates": [{"name": "sofa", "kind": "gaussian", "mu": 0, "sigma": 1,
                         "shifts": {"race": {"Black": 0.4}}}],
         "outcome": {"intercept": -1.0, "weights": {"sofa": 1.5},
                     "protected_weights": {}},
         "score": {"kind": "oracle_noise", "noise_sd": 0.05},
         "injections": [{"attribute": "race", "level": "Black",
                         "mechanism": "score_noise", "amount": 0.3}]}

    Unknown keys anywhere, a block that is not an object and a number that
    does not convert raise ConfigError so typos fail loudly.
    """
    _check_keys(doc, ("n", "seed", "score_name", "protected", "covariates",
                      "outcome", "score", "injections"), "synth config", required=("n",))
    protected = []
    for p in _typed(doc.get("protected", []), list, "protected"):
        _check_keys(p, ("name", "levels", "weights"), "protected spec", required=("name", "levels", "weights"))
        protected.append(
            ProtectedSpec(
                name=_typed(p["name"], str, "protected spec name"),
                levels=_names(p["levels"], "levels"),
                weights=tuple(_convert(float, w, "weights") for w in _typed(p["weights"], list, "weights")),
            )
        )
    covariates = []
    for c in _typed(doc.get("covariates", []), list, "covariates"):
        _check_keys(c, ("name", "kind", "mu", "sigma", "p", "shifts"), "covariate spec", required=("name",))
        covariates.append(
            CovariateSpec(
                name=_typed(c["name"], str, "covariate spec name"), kind=c.get("kind", "gaussian"),
                mu=_convert(float, c.get("mu", 0.0), "mu"), sigma=_convert(float, c.get("sigma", 1.0), "sigma"),
                p=_convert(float, c.get("p", 0.5), "p"), shifts=_number_map(c.get("shifts", {}), "shifts", 2),
            )
        )
    o = doc.get("outcome", {})
    _check_keys(o, ("intercept", "weights", "protected_weights"), "outcome model")
    outcome = OutcomeModel(
        intercept=_convert(float, o.get("intercept", 0.0), "intercept"),
        weights=_number_map(o.get("weights", {}), "weights"),
        protected_weights=_number_map(o.get("protected_weights", {}), "protected_weights", 2),
    )
    s = doc.get("score", {})
    _check_keys(s, ("kind", "noise_sd", "features"), "score model")
    score = ScoreModel(
        kind=s.get("kind", "oracle_noise"),
        noise_sd=_convert(float, s.get("noise_sd", 0.05), "noise_sd"),
        features=_names(s.get("features", []), "features"),
    )
    injections = []
    for j in _typed(doc.get("injections", []), list, "injections"):
        _check_keys(j, ("attribute", "level", "mechanism", "amount"), "injection",
                    required=("attribute", "level", "mechanism", "amount"))
        injections.append(
            Injection(attribute=_typed(j["attribute"], str, "injection attribute"),
                      level=_typed(j["level"], str, "injection level"),
                      mechanism=j["mechanism"], amount=_convert(float, j["amount"], "amount"))
        )
    return SynthConfig(
        n=_convert(int, doc["n"], "n"),
        protected=tuple(protected),
        covariates=tuple(covariates),
        outcome=outcome,
        score=score,
        injections=tuple(injections),
        seed=_convert(int, doc.get("seed", 0), "seed"),
        score_name=_typed(doc.get("score_name", "score"), str, "score_name"),
    )


def split_train_test(cohort: Cohort, test_fraction: float, seed: int) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """Label-stratified train/test split of record positions.

    Each class is permuted in its own stream and ``round(fraction * n_class)``
    members go to test, clamped so both splits keep both classes whenever a
    class has at least two records.
    """
    if not 0.0 < test_fraction < 1.0:
        raise ConfigError(f"test fraction must lie inside (0, 1), got {test_fraction}")
    y = label_values(cohort)
    if y.min() == y.max():
        raise ValueError("cohort is single-class; stratified split impossible")
    test: list[int] = []
    train: list[int] = []
    for cls in (0, 1):
        idx = np.flatnonzero(y == cls)
        rng = stream(seed, "split", cls)
        perm = rng.permutation(idx.size)
        k = round(test_fraction * idx.size)
        if idx.size >= 2:
            k = min(max(k, 1), idx.size - 1)
        chosen = idx[perm[:k]]
        rest = idx[perm[k:]]
        test.extend(int(i) for i in chosen)
        train.extend(int(i) for i in rest)
    return tuple(sorted(train)), tuple(sorted(test))


def demo_train(cohort: Cohort, train_indices, features, ridge: float = 1e-6,
               score_name: str = "trained"):
    """Fit a logistic model on the training rows and score the whole cohort.

    Returns (cohort with the new score column, fitted model).  Encoding
    statistics come from the training rows only; the rest of the cohort is
    scored through the stored descriptors, as held-out data should be.
    """
    idx = [int(i) for i in train_indices]
    y = label_values(cohort)
    design = encode_design(cohort, idx, features)
    model = fit_logistic(design, y[idx].astype(float), ridge=ridge)
    full = encode_design(cohort, range(cohort.n), features, reuse=model.columns)
    preds = predict_proba(model, full)
    return with_score_column(cohort, score_name, score_name, preds), model
