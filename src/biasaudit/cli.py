"""Command-line front end.

Subcommands:

``audit``     bootstrap + matched subgroup audit of one or more score columns
``compare``   side-by-side audit of exactly two score columns
``match``     propensity matching and balance diagnostics only
``synth``     generate a synthetic cohort from a config
``validate``  parse a cohort and emit a machine-readable validation report

Exit codes: 0 success, 2 configuration or validation failure, 3 statistical
failure (every audited cell insufficient), 4 report rendering failure.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import sys
from dataclasses import dataclass, replace
from itertools import combinations

import numpy as np

from . import __version__
from .audit import (
    STATUS_OK,
    AuditConfig,
    attribute_plan,
    audit_model,
    build_comparison,
    matched_contrasts,
    summarize_discrepancy,
)
from .cohort import (
    CohortSchema,
    CovariateColumn,
    ProtectedColumn,
    label_values,
    parse_cohort,
    score_values,
    write_cohort,
)
from .errors import (
    AuditError,
    CohortValidationError,
    ConfigError,
    InsufficientDataError,
    SchemaError,
    _check_keys,
    _convert,
    _names,
    _typed,
)
from .matching import balance_report, export_pairs
from .metrics import ThresholdPolicy, calibration_curve
from .report import _FORMATS, build_bundle, render, safe_name
from .synth import config_from_dict as synth_config_from_dict
from .synth import generate

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_STATISTICAL = 3
EXIT_RENDER = 4

_RUN_KEYS = ("cohort", "schema", "audit", "output_dir", "formats", "workers",
             "calibration_bins", "models")
_SCHEMA_KEYS = ("id_column", "label_column", "score_columns", "protected",
                "covariates", "missing_tokens", "delimiter")
_AUDIT_KEYS = ("metrics", "n_bootstrap", "alpha", "seed", "threshold",
               "propensity_covariates", "caliper_multiplier", "min_group_size",
               "min_matched_n", "rounding", "ridge")


@dataclass(frozen=True)
class RunConfig:
    cohort: str
    schema: CohortSchema
    audit: AuditConfig
    output_dir: str = "report"
    formats: tuple[str, ...] = ("json", "csv", "markdown", "svg")
    workers: int = 1
    calibration_bins: int = 10
    models: tuple[str, ...] | None = None
    config_hash: str = ""


def _schema_from_dict(doc: dict) -> CohortSchema:
    _check_keys(doc, _SCHEMA_KEYS, "schema", required=("id_column", "label_column", "score_columns"))
    score_columns: list[tuple[str, str]] = []
    for entry in _typed(doc["score_columns"], list, "score_columns"):
        if isinstance(entry, str):
            score_columns.append((entry, entry))
        elif isinstance(entry, (list, tuple)) and len(entry) == 2:
            score_columns.append((str(entry[0]), str(entry[1])))
        else:
            raise ConfigError(
                "score_columns entries must be 'name' or ['model', 'column'], "
                f"got {entry!r}"
            )
    protected = []
    for p in _typed(doc.get("protected", []), list, "protected"):
        _check_keys(p, ("name", "kind", "bin_edges"), "protected column", required=("name",))
        edges = p.get("bin_edges")
        protected.append(
            ProtectedColumn(
                name=_typed(p["name"], str, "protected column name"),
                kind=p.get("kind", "categorical"),
                bin_edges=None if edges is None else tuple(
                    _convert(float, e, "bin_edges") for e in _typed(edges, list, "bin_edges")),
            )
        )
    covariates = []
    for c in _typed(doc.get("covariates", []), list, "covariates"):
        _check_keys(c, ("name", "kind"), "covariate column", required=("name",))
        covariates.append(CovariateColumn(name=_typed(c["name"], str, "covariate column name"),
                                          kind=c.get("kind", "numeric")))
    delimiter = _typed(doc.get("delimiter", ","), str, "delimiter")
    if len(delimiter) != 1:
        raise ConfigError(f"delimiter must be one character, got {delimiter!r}")
    return CohortSchema(
        id_column=_typed(doc["id_column"], str, "id_column"),
        label_column=_typed(doc["label_column"], str, "label_column"),
        score_columns=tuple(score_columns),
        protected_columns=tuple(protected),
        covariate_columns=tuple(covariates),
        missing_tokens=_names(doc.get("missing_tokens", ["", "NA"]), "missing_tokens"),
        delimiter=delimiter,
    )


def _threshold_from_value(value) -> ThresholdPolicy:
    if value is None or value == "youden":
        return ThresholdPolicy.youden()
    if isinstance(value, (int, float)):
        return ThresholdPolicy.fixed(_convert(float, value, "threshold"))
    if isinstance(value, dict):
        _check_keys(value, ("kind", "value"), "threshold policy")
        kind = value.get("kind", "youden")
        if kind == "youden":
            return ThresholdPolicy.youden()
        if kind == "fixed":
            _check_keys(value, ("kind", "value"), "fixed threshold policy", required=("value",))
            return ThresholdPolicy.fixed(_convert(float, value["value"], "threshold value"))
    raise ConfigError(f"cannot interpret threshold policy {value!r}")


def _audit_from_dict(doc: dict) -> AuditConfig:
    kwargs: dict = {}
    for key in ("metrics", "propensity_covariates"):
        if key in doc:
            kwargs[key] = _names(doc[key], key)
    for key in ("n_bootstrap", "seed", "min_group_size", "min_matched_n", "rounding"):
        if key in doc:
            kwargs[key] = _convert(int, doc[key], key)
    for key in ("alpha", "ridge"):
        if key in doc:
            kwargs[key] = _convert(float, doc[key], key)
    if "caliper_multiplier" in doc:
        cm = doc["caliper_multiplier"]
        kwargs["caliper_multiplier"] = None if cm is None else _convert(float, cm, "caliper_multiplier")
    if "threshold" in doc:
        kwargs["threshold_policy"] = _threshold_from_value(doc["threshold"])
    return AuditConfig(**kwargs)


def _read_json(path):
    try:
        with open(os.fspath(path), "r", encoding="utf-8") as fh:
            doc = json.load(fh)
    except FileNotFoundError as exc:
        raise ConfigError(f"config file not found: {path}") from exc
    except OSError as exc:
        raise ConfigError(f"cannot read config file {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config file is not valid JSON: {exc}") from exc
    # A "\ud800" escape decodes to a lone surrogate, which no UTF-8 file the
    # run writes can hold.
    try:
        json.dumps(doc, ensure_ascii=False).encode("utf-8")
    except UnicodeEncodeError as exc:
        raise ConfigError(f"config file {path} holds a lone surrogate {exc.object[exc.start:exc.end]!r}, "
                          "which UTF-8 cannot encode") from exc
    return doc


def load_run_config(path, overrides: dict | None = None) -> RunConfig:
    """Load a run config JSON file; ``overrides`` are flag values that win
    over file values (None entries are ignored)."""
    doc = _read_json(path)
    _check_keys(doc, _RUN_KEYS, "run config", required=("cohort", "schema"))
    for key in ("cohort", "output_dir"):
        _typed(doc.get(key, ""), str, key)
    formats = _names(doc.get("formats", list(_FORMATS)), "formats")
    if not set(formats) <= set(_FORMATS):
        raise ConfigError(f"formats must be among {_FORMATS}, got {list(formats)}")

    overrides = {k: v for k, v in (overrides or {}).items() if v is not None}
    output_dir = overrides.get("output_dir", doc.get("output_dir", "report"))
    if not output_dir:
        raise ConfigError("output_dir must be a directory path, got ''")
    _check_keys(doc.get("audit", {}), _AUDIT_KEYS, "audit config")
    audit_doc = dict(doc.get("audit", {}))
    for key in ("seed", "n_bootstrap"):
        if key in overrides:
            audit_doc[key] = overrides[key]

    schema = _schema_from_dict(doc["schema"])
    audit = _audit_from_dict(audit_doc)
    stray = [n for n in audit.propensity_covariates if n not in {c.name for c in schema.covariate_columns}]
    if stray:
        raise ConfigError(f"propensity_covariates must name declared covariates (not protected attributes), "
                          f"got {', '.join(map(repr, stray))}")

    cohort_path = doc["cohort"]
    if not os.path.isabs(cohort_path):
        cohort_path = os.path.join(os.path.dirname(os.path.abspath(os.fspath(path))), cohort_path)

    # The hash fingerprints the analysis, not the execution: where the report
    # lands, which formats get rendered, and how many worker threads run must
    # not change it, or identical analyses would disagree about provenance.
    execution_keys = ("output_dir", "formats", "workers")
    hashed_doc = {k: v for k, v in doc.items() if k not in execution_keys}
    hashed_overrides = {k: v for k, v in overrides.items() if k not in execution_keys}
    canonical = json.dumps({"config": hashed_doc, "overrides": hashed_overrides},
                           sort_keys=True, separators=(",", ":"))
    config_hash = hashlib.sha256(canonical.encode("utf-8")).hexdigest()[:16]

    calibration_bins = _convert(int, doc.get("calibration_bins", 10), "calibration_bins")
    if not 2 <= calibration_bins <= 2**53:  # beyond 2**53 bin indices are no longer exact
        raise ConfigError(f"calibration_bins must be in [2, 2**53], got {calibration_bins}")
    workers = _convert(int, overrides.get("workers", doc.get("workers", 1)), "workers")
    if workers < 1:
        raise ConfigError(f"workers must be >= 1, got {workers}")
    models = doc.get("models")
    if models is not None:
        models = _names(models, "models")
        if not models or len(set(models)) != len(models):
            raise ConfigError(f"models must be a non-empty list of distinct names, got {list(models)}")
    return RunConfig(
        cohort=cohort_path,
        schema=schema,
        audit=audit,
        output_dir=output_dir,
        formats=formats,
        workers=workers,
        calibration_bins=calibration_bins,
        models=models,
        config_hash=config_hash,
    )


def _read_cohort(rc: RunConfig):
    try:
        return parse_cohort(rc.cohort, rc.schema)
    except OSError as exc:
        raise ConfigError(f"cannot read cohort file {rc.cohort!r}: {exc}") from exc


def _metadata(rc: RunConfig, cohort, models, skipped: list[dict]) -> dict:
    cfg = rc.audit
    policy = cfg.threshold_policy
    return {
        "version": __version__,
        "config_hash": rc.config_hash,
        "models": list(models),
        "n_records": cohort.n,
        "n_dropped_rows": len(cohort.diagnostics),
        "seed": cfg.seed,
        "n_bootstrap": cfg.n_bootstrap,
        "alpha": cfg.alpha,
        "rounding": cfg.rounding,
        "metrics": list(cfg.metrics),
        "threshold_policy": policy.kind if policy.value is None else f"{policy.kind}={policy.value}",
        "min_group_size": cfg.min_group_size,
        "min_matched_n": cfg.min_matched_n,
        "caliper_multiplier": cfg.caliper_multiplier,
        "propensity_covariates": list(cfg.propensity_covariates),
        "skipped_attributes": skipped,
    }


def _distinct_files(owners) -> None:
    """ConfigError when two owners would write one file; ``owners`` yields
    (owner description, names of the files it may write)."""
    seen: dict[str, str] = {}
    for owner, names in owners:
        for name in names:
            if seen.setdefault(name, owner) != owner:
                raise ConfigError(f"{seen[name]} and {owner} both map to the file name {name!r}")


def _pairs_name(attribute: str, treated: str, control: str) -> str:
    return f"pairs_{safe_name(attribute)}_{safe_name(treated)}_vs_{safe_name(control)}.csv"


def _match_rows(cohort, cfg: AuditConfig, model: str | None = None,
                pairs_dir: str | None = None) -> list[dict]:
    """Matching diagnostics, one row per contrast of the attribute plan.

    With ``model`` the contrasts mirror the matched audit's: only that model's
    scored records take part and each row leads with the model name.  With
    ``pairs_dir`` each contrast's pairs are exported there and named in its
    row, and skipped attributes are noted on stderr; two contrasts that could
    write the same pair file raise ConfigError before any is written.
    """
    subset, partitions, skipped = attribute_plan(cohort, cfg.min_group_size, model)
    lead = {} if model is None else {"model": model}
    if pairs_dir is not None:
        for attr, reason in skipped:
            print(f"note: skipping {attr!r}: {reason}", file=sys.stderr)
        # Either level may end up treated, so a contrast may write either name.
        _distinct_files((f"contrast {part.attribute!r}: {a!r} vs {b!r}",
                         {_pairs_name(part.attribute, a, b), _pairs_name(part.attribute, b, a)})
                        for part in partitions for a, b in combinations(part.levels, 2))

    rows: list[dict] = []
    for attribute, level_a, level_b, status, detail, sample, prop in matched_contrasts(
            cohort, partitions, cfg, subset):
        row = {**lead, "attribute": attribute}
        if sample is None:
            row.update(treated_level=level_a, control_level=level_b, status=status, detail=detail)
            if model is not None:
                # report.json's failed balance rows list covariates before
                # the counts; update() below keeps a key where it stands.
                row["covariates"] = []
            row.update(matched_n=0, passes_min_n=False, covariates=[])
            rows.append(row)
            continue
        bal = balance_report(cohort, sample, cfg.propensity_covariates,
                             cfg.min_matched_n, propensity=prop)
        row.update(
            treated_level=sample.treated_level,
            control_level=sample.control_level,
            caliper=sample.caliper,
            unmatched_treated=sample.unmatched_treated,
            matched_n=bal.matched_n,
            passes_min_n=bal.passes_min_n,
            status=status,
            detail=detail,
        )
        if pairs_dir is not None:
            name = _pairs_name(attribute, sample.treated_level, sample.control_level)
            pair_path = os.path.join(pairs_dir, name)
            export_pairs(cohort, sample, pair_path)
            print(pair_path)
            row["pairs_file"] = name
        row["covariates"] = [
            {"name": c.name, "smd_before": c.smd_before, "smd_after": c.smd_after}
            for c in bal.covariates
        ]
        rows.append(row)
    return rows


def _audit_pipeline(rc: RunConfig, models) -> int:
    """Run the full audit for the given models and render the report;
    returns the exit code."""
    cohort = _read_cohort(rc)
    available = cohort.model_names
    for m in models or ():
        if m not in available:
            raise ConfigError(f"unknown model {m!r}; cohort has {available}")
    models = tuple(models) if models else available
    _distinct_files((f"model {m!r}", {f"calibration_{safe_name(m)}.svg"}) for m in models)

    cfg = rc.audit
    results = {}
    skipped: list[dict] = []
    balance_rows: list[dict] = []
    calibration = {}
    for model in models:
        subgroup, matched, skips = audit_model(cohort, model, cfg, rc.workers)
        results[model] = subgroup, matched
        skipped.extend({"model": model, "attribute": attr, "reason": reason} for attr, reason in skips)
        if matched:  # balance rows describe the contrasts behind the matched rows
            balance_rows.extend(_match_rows(cohort, cfg, model=model))
        scores = score_values(cohort, model)
        keep = ~np.isnan(scores)
        calibration[model] = calibration_curve(label_values(cohort)[keep], scores[keep], rc.calibration_bins)
    subgroup_all = [r for subgroup, _ in results.values() for r in subgroup]
    matched_all = [r for _, matched in results.values() for r in matched]

    discrepancy = [s for metric in cfg.metrics for s in summarize_discrepancy(subgroup_all, matched_all, metric)]

    comparison = None
    if len(models) == 2:
        (sub_a, mat_a), (sub_b, mat_b) = results.values()
        comparison = build_comparison(cohort, *models, cfg, sub_a, sub_b, mat_a, mat_b)

    bundle = build_bundle(
        metadata=_metadata(rc, cohort, models, skipped),
        subgroup=subgroup_all,
        matched=matched_all,
        discrepancy=discrepancy,
        balance=balance_rows,
        calibration=calibration,
        comparison=comparison,
    )
    code = EXIT_OK
    if not subgroup_all or all(r.status != STATUS_OK for r in subgroup_all):
        print("warning: no audited cell reached sufficiency", file=sys.stderr)
        code = EXIT_STATISTICAL
    try:
        paths = render(bundle, rc.output_dir, rc.formats)
    except OSError as exc:
        print(f"error: could not write report: {exc}", file=sys.stderr)
        return EXIT_RENDER
    for p in paths:
        print(p)
    return code


def cmd_audit(args) -> int:
    rc = load_run_config(args.config, {
        "seed": args.seed, "n_bootstrap": args.n_bootstrap,
        "workers": args.workers, "output_dir": args.output_dir,
    })
    return _audit_pipeline(rc, rc.models)


def cmd_compare(args) -> int:
    rc = load_run_config(args.config, {
        "seed": args.seed, "n_bootstrap": args.n_bootstrap,
        "workers": args.workers, "output_dir": args.output_dir,
    })
    models = tuple(args.models or rc.models or rc.schema.model_names)
    if len(models) != 2:
        raise ConfigError(f"compare needs exactly two models, got {list(models)}")
    if models[0] == models[1]:
        raise ConfigError("compare needs two distinct models")
    return _audit_pipeline(rc, models)


def cmd_match(args) -> int:
    rc = load_run_config(args.config, {"output_dir": args.output_dir})
    if not rc.audit.propensity_covariates:
        raise ConfigError("match needs audit.propensity_covariates in the config")
    cohort = _read_cohort(rc)
    os.makedirs(rc.output_dir, exist_ok=True)

    rows = _match_rows(cohort, rc.audit, pairs_dir=rc.output_dir)

    summary_path = os.path.join(rc.output_dir, "matching.json")
    try:
        with open(summary_path, "w", encoding="utf-8") as fh:
            json.dump({"schema_version": 1, "contrasts": rows}, fh, indent=2)
            fh.write("\n")
    except OSError as exc:
        print(f"error: could not write matching summary: {exc}", file=sys.stderr)
        return EXIT_RENDER
    print(summary_path)
    return EXIT_OK


def cmd_synth(args) -> int:
    config = synth_config_from_dict(_read_json(args.config))
    if args.seed is not None:
        config = replace(config, seed=args.seed)
    cohort, manifest = generate(config)
    try:
        write_cohort(cohort, args.output)
        manifest_path = args.manifest or f"{args.output}.manifest.json"
        with open(manifest_path, "w", encoding="utf-8") as fh:
            json.dump(manifest, fh, indent=2)
            fh.write("\n")
    except OSError as exc:
        print(f"error: could not write output: {exc}", file=sys.stderr)
        return EXIT_RENDER
    print(args.output)
    print(manifest_path)
    return EXIT_OK


def _print_issues(issues, prefix: str) -> None:
    for issue in issues:
        loc = f"line {issue.line}" if issue.line else "file"
        col = f", column {issue.column}" if issue.column else ""
        print(f"{prefix}: {loc}{col}: {issue.message}", file=sys.stderr)


def cmd_validate(args) -> int:
    rc = load_run_config(args.config, {})
    report_path = args.report or os.path.join(rc.output_dir, "validation_report.json")
    os.makedirs(os.path.dirname(report_path) or ".", exist_ok=True)

    def emit(doc: dict) -> None:
        with open(report_path, "w", encoding="utf-8") as fh:
            json.dump(doc, fh, indent=2)
            fh.write("\n")

    try:
        cohort = _read_cohort(rc)
    except CohortValidationError as exc:
        emit({"valid": False, "issues": [i.to_dict() for i in exc.issues], "dropped_rows": []})
        _print_issues(exc.issues, "invalid")
        print(report_path)
        return EXIT_CONFIG
    except SchemaError as exc:
        emit({"valid": False, "issues": [{"line": None, "column": None, "message": str(exc)}],
              "dropped_rows": []})
        print(f"invalid: {exc}", file=sys.stderr)
        print(report_path)
        return EXIT_CONFIG
    emit({
        "valid": True,
        "n_records": cohort.n,
        "issues": [],
        "dropped_rows": [i.to_dict() for i in cohort.diagnostics],
    })
    print(report_path)
    return EXIT_OK


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="biasaudit",
        description="Subgroup bias audits for binary risk scores",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("config", help="run config JSON file")
        p.add_argument("--seed", type=int, default=None, help="override audit seed")
        p.add_argument("--n-bootstrap", type=int, default=None, help="override replicate count")
        p.add_argument("--workers", type=int, default=None, help="override worker threads")
        p.add_argument("--output-dir", default=None, help="override output directory")

    p_audit = sub.add_parser("audit", help="run the subgroup bias audit")
    common(p_audit)
    p_audit.set_defaults(func=cmd_audit)

    p_cmp = sub.add_parser("compare", help="audit two models side by side")
    common(p_cmp)
    p_cmp.add_argument("--models", nargs=2, metavar=("A", "B"), default=None)
    p_cmp.set_defaults(func=cmd_compare)

    p_match = sub.add_parser("match", help="propensity matching and balance only")
    p_match.add_argument("config")
    p_match.add_argument("--output-dir", default=None)
    p_match.set_defaults(func=cmd_match)

    p_synth = sub.add_parser("synth", help="generate a synthetic cohort")
    p_synth.add_argument("config", help="synth config JSON file")
    p_synth.add_argument("output", help="cohort csv to write")
    p_synth.add_argument("--manifest", default=None, help="manifest path (default: <output>.manifest.json)")
    p_synth.add_argument("--seed", type=int, default=None, help="override generator seed")
    p_synth.set_defaults(func=cmd_synth)

    p_val = sub.add_parser("validate", help="validate a cohort file")
    p_val.add_argument("config")
    p_val.add_argument("--report", default=None, help="validation report path")
    p_val.set_defaults(func=cmd_validate)

    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return args.func(args)
    except CohortValidationError as exc:
        _print_issues(exc.issues, "error")
        return EXIT_CONFIG
    except (ConfigError, SchemaError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except InsufficientDataError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_STATISTICAL
    except AuditError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except OSError as exc:
        print(f"error: file operation failed: {exc}", file=sys.stderr)
        return EXIT_RENDER


if __name__ == "__main__":
    sys.exit(main())
