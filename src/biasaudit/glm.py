"""Design-matrix encoding and Newton-method logistic regression.

The solver is deliberately small: dense numpy linear algebra, an optional
ridge penalty on non-intercept terms, and honest convergence reporting.  It
exists so propensity models and synthetic demo models run identically
everywhere with no modelling-framework dependency.

Feature descriptors make encodings reusable: encoding a new subset against a
fitted model's columns applies the stored centering, scaling, and imputation
rather than re-deriving them, which is what scoring held-out data requires.
"""

from __future__ import annotations

import json
import logging
import os
from dataclasses import asdict, dataclass, fields

import numpy as np

from .cohort import MISSING_LABEL, Cohort
from .errors import ConfigError, FitError

log = logging.getLogger(__name__)

_CLIP = 1e-12


def expit(x):
    """Logistic sigmoid ``1 / (1 + exp(-x))``, exactly 0.0 and 1.0 at the extremes.

    ``exp(-x)`` overflows to inf below x = -709, which gives the exact 0.0;
    the overflow is expected, so it is not warned about.
    """
    with np.errstate(over="ignore"):
        return 1.0 / (1.0 + np.exp(-np.asarray(x, dtype=float)))


@dataclass(frozen=True)
class FeatureColumn:
    """One column of a design matrix.

    kind "intercept": constant 1.
    kind "numeric":   (value - center) / scale, missing values imputed with
                      ``impute`` before the transform.
    kind "indicator": 1 when the record's value equals ``level`` (missing
                      values compare as MISSING_LABEL, so an indicator with
                      level MISSING_LABEL is a missingness flag).
    """

    kind: str
    name: str = ""
    level: str | None = None
    center: float = 0.0
    scale: float = 1.0
    impute: float = 0.0

    def label(self) -> str:
        if self.kind == "intercept":
            return "intercept"
        if self.kind == "numeric":
            return self.name
        return f"{self.name}={self.level}"


@dataclass(frozen=True, eq=False)
class DesignMatrix:
    """Encoded rows: ``values[:, j]`` is column ``columns[j]`` on the i-th
    encoded row; ``dropped`` names the covariates that were constant there
    and so got no column."""

    columns: tuple[FeatureColumn, ...]
    values: np.ndarray
    dropped: tuple[str, ...] = ()

    @property
    def n(self) -> int:
        return self.values.shape[0]

    @property
    def p(self) -> int:
        return self.values.shape[1]


@dataclass(frozen=True, eq=False)
class LogisticModel:
    columns: tuple[FeatureColumn, ...]
    coefficients: np.ndarray
    converged: bool
    iterations: int
    final_gradient_norm: float
    ridge: float


def _covariate_kind(cohort: Cohort, name: str) -> str:
    for col in cohort.schema.covariate_columns:
        if col.name == name:
            return col.kind
    raise ConfigError(f"unknown covariate {name!r}")


def _groups(cohort: Cohort, idx: np.ndarray, name: str) -> tuple[np.ndarray, tuple[str, ...]]:
    """Group codes of a categorical covariate on rows ``idx``, indexing the
    group names returned with them.  Missing values group under
    MISSING_LABEL, together with a level that carries that very name."""
    names = (*cohort.covariate_levels[name], MISSING_LABEL)
    remap = np.asarray([names.index(level) for level in names])
    return remap[cohort.covariates[name][idx]], names


def _describe(cohort: Cohort, idx: np.ndarray, names) -> tuple[tuple[FeatureColumn, ...], tuple[str, ...]]:
    """Fit the feature descriptors on rows ``idx``: the columns to encode and
    the covariates dropped as constant there."""
    columns = [FeatureColumn(kind="intercept")]
    dropped: list[str] = []
    for name in names:
        kind = _covariate_kind(cohort, name)
        if kind == "categorical":
            groups, group_names = _groups(cohort, idx, name)
            _, first = np.unique(groups, return_index=True)
            # Every group but the first to appear gets an indicator.
            levels = [group_names[g] for g in groups[np.sort(first)].tolist()]
            columns += [FeatureColumn(kind="indicator", name=name, level=level) for level in levels[1:]]
            constant = len(levels) == 1
        else:
            raw = cohort.covariates[name][idx]
            missing = np.isnan(raw)
            if missing.all():
                raise ConfigError(f"covariate {name!r} is entirely missing on the encoded subset")
            with np.errstate(over="ignore", invalid="ignore"):
                mean = float(raw[~missing].mean())
                sd = float(np.where(missing, mean, raw).std())
            if not np.isfinite([mean, sd]).all():
                raise FitError(f"covariate {name!r} overflows standardization (mean {mean}, sd {sd})")
            constant = sd == 0.0
            if not constant:
                # Binary covariates pass through as 0/1: centre 0, scale 1.
                scaled = dict(center=mean, scale=sd) if kind == "numeric" else {}
                columns.append(FeatureColumn(kind="numeric", name=name, impute=mean, **scaled))
                if missing.any():
                    columns.append(FeatureColumn(kind="indicator", name=name, level=MISSING_LABEL))
        if constant:
            dropped.append(name)
            log.warning("dropping constant %s covariate %r", kind, name)
    return tuple(columns), tuple(dropped)


def encode_design(
    cohort: Cohort,
    indices,
    covariates,
    reuse: tuple[FeatureColumn, ...] | None = None,
) -> DesignMatrix:
    """Encode cohort rows into a numeric design matrix.

    Fit the feature descriptors, then apply them.  The intercept column comes
    first.  Numeric covariates are standardized to mean 0, sd 1 on the
    encoded rows (population sd), with missing values imputed at the
    observed mean and flagged by an extra indicator column.  Binary
    covariates pass through as 0/1 (imputed at the observed rate when
    missing).  Categorical covariates become k-1 indicators against the first
    observed level, with missingness as its own level.  Constant covariates
    get no column and are listed in ``dropped`` and logged.

    With ``reuse`` the stored descriptors are applied verbatim instead, so a
    model fitted on one subset can score another.
    """
    idx = np.asarray(indices, dtype=np.int64)
    if idx.size == 0:
        raise ValueError("cannot encode an empty row subset")
    columns, dropped = (reuse, ()) if reuse is not None else _describe(cohort, idx, covariates)

    values = np.empty((idx.size, len(columns)))
    for j, col in enumerate(columns):
        if col.kind == "intercept":
            values[:, j] = 1.0
            continue
        kind = _covariate_kind(cohort, col.name)
        # Numeric terms need a numeric or binary covariate, indicators a
        # categorical one, unless they flag missing values.
        if (col.kind == "numeric") == (kind == "categorical") and col.level != MISSING_LABEL:
            raise ConfigError(f"covariate {col.name!r} is {kind}, the model has the term {col.label()!r}")
        if kind == "categorical":
            groups, group_names = _groups(cohort, idx, col.name)
            values[:, j] = np.isin(groups, [g for g, level in enumerate(group_names) if level == col.level])
            continue
        raw = cohort.covariates[col.name][idx]
        if col.kind == "numeric":
            values[:, j] = (np.where(np.isnan(raw), col.impute, raw) - col.center) / col.scale
        else:
            values[:, j] = np.isnan(raw)
    return DesignMatrix(columns=columns, values=values, dropped=dropped)


def fit_logistic(
    design: DesignMatrix,
    outcomes,
    ridge: float = 1e-6,
    max_iter: int = 100,
    tol: float = 1e-8,
) -> LogisticModel:
    """Fit logistic regression by Newton's method from a zero start.

    Maximizes the log-likelihood minus ``ridge/2 * ||beta||^2`` over the
    non-intercept coefficients.  Stops when the penalized gradient max-norm
    or the step max-norm drops to ``tol``; ``converged`` reports whether the
    final gradient actually meets the tolerance.  A singular Hessian on the
    very first step is structural (collinear columns with ridge=0) and raises
    FitError; singularity appearing later, the signature of separation-driven
    divergence, ends the fit with ``converged=False``.

    Complete separation at ridge=0 can also saturate the gradient to zero at
    enormous coefficients instead of breaking the Hessian.  That case is
    caught directly: when every fitted probability lies within 1e-6 of its
    label, the coefficients themselves witness a separating hyperplane, the
    true maximum is at infinity, and the fit is reported ``converged=False``.
    """
    y = np.asarray(outcomes, dtype=float)
    X = design.values
    if y.shape != (X.shape[0],):
        raise ValueError(f"outcomes shape {y.shape} does not match design rows {X.shape[0]}")
    if not np.all((y == 0) | (y == 1)):
        raise ValueError("outcomes must be 0 or 1")
    if y.min() == y.max():
        raise ValueError("outcomes are single-class; nothing to fit")
    if ridge < 0:
        raise ValueError(f"ridge must be >= 0, got {ridge}")

    mask = np.asarray([0.0 if c.kind == "intercept" else 1.0 for c in design.columns])
    beta = np.zeros(X.shape[1])
    iterations = 0
    stepped_to_tol = False
    # Each pass evaluates the fit at ``beta`` once; the pass that stops keeps
    # it as the final state.
    while True:
        p_hat = expit(X @ beta)
        g = X.T @ (y - p_hat) - ridge * mask * beta
        if stepped_to_tol or iterations == max_iter or np.max(np.abs(g)) <= tol:
            break
        w = p_hat * (1.0 - p_hat)
        hess = (X * w[:, None]).T @ X + ridge * np.diag(mask)
        try:
            step = np.linalg.solve(hess, g)
        except np.linalg.LinAlgError:
            step = None
        if step is None or not np.all(np.isfinite(step)):
            if iterations == 0:
                raise FitError(
                    "Hessian is singular at the start: the design has collinear "
                    "columns; drop redundant covariates or set ridge > 0"
                )
            break
        beta = beta + step
        iterations += 1
        stepped_to_tol = np.max(np.abs(step)) <= tol

    norm = float(np.max(np.abs(g)))
    separated = ridge == 0.0 and bool(np.max(np.abs(p_hat - y)) < 1e-6)
    return LogisticModel(
        columns=design.columns,
        coefficients=beta,
        converged=bool(norm <= tol) and not separated,
        iterations=iterations,
        final_gradient_norm=norm,
        ridge=float(ridge),
    )


def predict_proba(model: LogisticModel, design: DesignMatrix) -> np.ndarray:
    """Predicted probabilities, clipped away from exact 0 and 1.

    The design must carry the same feature descriptors the model was fitted
    with (encode with ``reuse=model.columns`` for new rows).
    """
    if design.columns != model.columns:
        raise ValueError("design matrix columns do not match the model's feature descriptors")
    return np.clip(expit(design.values @ model.coefficients), _CLIP, 1.0 - _CLIP)


def export_model(model: LogisticModel, path=None) -> str:
    """Serialize a fitted model to JSON; optionally write it to ``path``."""
    doc = {"schema_version": 1, **asdict(model), "coefficients": model.coefficients.tolist()}
    text = json.dumps(doc, indent=2)
    if path is not None:
        with open(os.fspath(path), "w", encoding="utf-8") as fh:
            fh.write(text + "\n")
    return text


def load_model(source) -> LogisticModel:
    """Inverse of export_model; accepts a path or the JSON text itself."""
    if isinstance(source, (str, os.PathLike)) and os.path.exists(os.fspath(source)):
        with open(os.fspath(source), "r", encoding="utf-8") as fh:
            doc = json.load(fh)
    else:
        doc = json.loads(source)
    return LogisticModel(**{
        **{f.name: doc[f.name] for f in fields(LogisticModel)},
        "columns": tuple(FeatureColumn(**c) for c in doc["columns"]),
        "coefficients": np.asarray(doc["coefficients"], dtype=float),
    })
