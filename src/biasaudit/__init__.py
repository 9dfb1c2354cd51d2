"""Subgroup bias audits for binary risk-prediction scores.

The package takes a scored patient cohort, splits it along protected
attributes (race, sex, age band, ...), and asks whether discrimination or
error-rate metrics for any subgroup sit meaningfully away from the average
subgroup.  Uncertainty comes from bootstrap resampling; confounding is
addressed by re-evaluating on propensity-matched subsets.

Layout:

``cohort``    cohort ingestion, validation, binning, subgroup partitions
``metrics``   confusion counts, threshold metrics, AUROC, Youden, calibration
``glm``       design-matrix encoding and a small Newton logistic regression
``matching``  propensity estimation, greedy caliper matching, balance checks
``audit``     bootstrap subgroup audits, matched audits, discrepancy summaries
``synth``     synthetic cohort generation with controllable bias injection
              (loaded on first use of ``biasaudit.synth`` or one of its names)
``report``    report bundle assembly and rendering (json/csv/markdown/svg)
``cli``       command-line front end
"""

__version__ = "0.1.0"


def _load_numpy() -> None:
    # OpenBLAS sizes its pool once, as numpy loads, from the first of these
    # names set.  The package's BLAS work is a few p x p products, so an idle
    # pool only spins CPU: numpy loads with one thread unless the caller chose.
    import os
    import sys

    if "numpy" in sys.modules or {"OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS"} & os.environ.keys():
        return
    os.environ["OPENBLAS_NUM_THREADS"] = "1"
    try:
        import numpy  # noqa: F401
    finally:
        del os.environ["OPENBLAS_NUM_THREADS"]  # subprocesses see the environment as it was


_load_numpy()
del _load_numpy

from .cohort import (
    MISSING,
    MISSING_LABEL,
    Cohort,
    CohortRecord,
    CohortSchema,
    CovariateColumn,
    ProtectedColumn,
    SubgroupPartition,
    bin_continuous,
    parse_cohort,
    subgroup_partition,
    write_cohort,
)
from .metrics import (
    CalibrationBin,
    CalibrationCurve,
    ConfusionCounts,
    ThresholdMetrics,
    ThresholdPolicy,
    auroc,
    calibration_curve,
    confusion,
    threshold_metrics,
    youden_threshold,
)
from .glm import (
    DesignMatrix,
    FeatureColumn,
    LogisticModel,
    encode_design,
    export_model,
    fit_logistic,
    load_model,
    predict_proba,
)
from .matching import (
    BalanceReport,
    CovariateBalance,
    MatchedPair,
    MatchedSample,
    PropensityResult,
    balance_report,
    estimate_propensity,
    export_pairs,
    greedy_match,
    match_contrast,
    smd,
)
from .audit import (
    AuditConfig,
    ComparisonReport,
    DeltaCell,
    DiscrepancySummary,
    MatchedAuditResult,
    MatchedCell,
    SubgroupAuditResult,
    TTestResult,
    attribute_plan,
    audit_model,
    bootstrap_audit,
    compare_models,
    group_diffs,
    matched_audit,
    summarize_discrepancy,
    t_test_one_sample,
)
from .errors import (
    AuditError,
    CohortValidationError,
    ConfigError,
    FitError,
    InsufficientDataError,
    PropensityError,
    SchemaError,
    UndefinedMetricError,
)

__all__ = [
    "__version__",
    # cohort
    "MISSING",
    "MISSING_LABEL",
    "Cohort",
    "CohortRecord",
    "CohortSchema",
    "CovariateColumn",
    "ProtectedColumn",
    "SubgroupPartition",
    "bin_continuous",
    "parse_cohort",
    "subgroup_partition",
    "write_cohort",
    # metrics
    "CalibrationBin",
    "CalibrationCurve",
    "ConfusionCounts",
    "ThresholdMetrics",
    "auroc",
    "calibration_curve",
    "confusion",
    "threshold_metrics",
    "youden_threshold",
    # glm
    "DesignMatrix",
    "FeatureColumn",
    "LogisticModel",
    "encode_design",
    "export_model",
    "fit_logistic",
    "load_model",
    "predict_proba",
    # matching
    "BalanceReport",
    "CovariateBalance",
    "MatchedPair",
    "MatchedSample",
    "PropensityResult",
    "balance_report",
    "estimate_propensity",
    "export_pairs",
    "greedy_match",
    "match_contrast",
    "smd",
    # audit
    "AuditConfig",
    "ComparisonReport",
    "DeltaCell",
    "DiscrepancySummary",
    "MatchedAuditResult",
    "MatchedCell",
    "SubgroupAuditResult",
    "ThresholdPolicy",
    "TTestResult",
    "attribute_plan",
    "audit_model",
    "bootstrap_audit",
    "compare_models",
    "group_diffs",
    "matched_audit",
    "summarize_discrepancy",
    "t_test_one_sample",
    # synth
    "CovariateSpec",
    "Injection",
    "OutcomeModel",
    "ProtectedSpec",
    "ScoreModel",
    "SynthConfig",
    "demo_train",
    "generate",
    "split_train_test",
    # errors
    "AuditError",
    "CohortValidationError",
    "ConfigError",
    "FitError",
    "InsufficientDataError",
    "PropensityError",
    "SchemaError",
    "UndefinedMetricError",
]

# Only the ``synth`` subcommand generates cohorts, so synth loads on first
# access to the module or one of its names here (PEP 562).
_SYNTH_NAMES = frozenset({"CovariateSpec", "Injection", "OutcomeModel", "ProtectedSpec", "ScoreModel",
                          "SynthConfig", "demo_train", "generate", "split_train_test"})


def __getattr__(name: str):
    if name == "synth" or name in _SYNTH_NAMES:
        import importlib

        synth = importlib.import_module(".synth", __name__)
        return synth if name == "synth" else getattr(synth, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__() -> list[str]:
    return sorted(globals().keys() | _SYNTH_NAMES)
