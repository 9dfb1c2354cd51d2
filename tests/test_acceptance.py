"""Release criteria.

Ten end-to-end gates, one test each, run in order.  Every test prints a
single ``criterion NN PASS/FAIL`` line before asserting, so a plain test log
doubles as the release checklist.  Tolerances and seed counts are part of the
contract and must not be loosened to make a run green; a red criterion means
the code (or a documented known deviation) needs attention, not the test.
"""

from __future__ import annotations

import json
import time
from pathlib import Path

import numpy as np
from scipy.special import expit

from biasaudit.audit import (
    STATUS_OK,
    AuditConfig,
    MatchedAuditResult,
    MatchedCell,
    SubgroupAuditResult,
    bootstrap_audit,
    group_diffs,
    summarize_discrepancy,
    t_test_one_sample,
)
from biasaudit.cli import EXIT_OK, main
from biasaudit.cohort import (
    CohortSchema,
    CovariateColumn,
    attribute_values,
    label_values,
    parse_cohort,
    score_values,
    write_cohort,
)
from biasaudit.glm import encode_design, fit_logistic, predict_proba
from biasaudit.matching import match_contrast, smd
from biasaudit.metrics import auroc, youden_threshold
from biasaudit.report import round_half_even
from biasaudit._rng import stream
from biasaudit.synth import (
    CovariateSpec,
    Injection,
    OutcomeModel,
    ProtectedSpec,
    ScoreModel,
    SynthConfig,
    demo_train,
    generate,
    split_train_test,
)

from helpers import build_cohort
from oracles import fd_gradient, pairwise_auroc, t_two_sided_p


def verdict(number: int, ok: bool, detail: str) -> None:
    print(f"criterion {number:02d} {'PASS' if ok else 'FAIL'}: {detail}")
    assert ok, detail


# --------------------------------------------------------------------------
# criterion 1: reconstruct a transcribed reference summary
# --------------------------------------------------------------------------
#
# External benchmark fixture: per-subgroup AUROC diff-from-average values for
# two clinical cohorts, transcribed together with the max-discrepancy
# summaries published alongside them.  Scalar entries are single contrasts;
# nested lists are one matched cell per opponent level.  Two of the 24
# summaries disagree with the collapse-then-gap rule by one display unit
# (rounding artifacts in the source material), so the gate is at least 10
# matches out of 12 per cohort rather than 12/12.

REFERENCE_DIFFS = {
    ("epic", "sex", "with", "before"): [-0.01, 0.01],
    ("epic", "sex", "with", "after"): [-0.01, 0.01],
    ("epic", "race", "with", "before"): [-0.01, 0.01],
    ("epic", "race", "with", "after"): [0.02, -0.02],
    ("epic", "age", "with", "before"): [0.02, -0.01, -0.01],
    ("epic", "age", "with", "after"): [0.01, [-0.01, 0.0], 0.0],
    ("epic", "sex", "without", "before"): [-0.01, 0.01],
    ("epic", "sex", "without", "after"): [-0.01, 0.01],
    ("epic", "race", "without", "before"): [-0.01, 0.01],
    ("epic", "race", "without", "after"): [[0.01], [-0.01]],
    ("epic", "age", "without", "before"): [0.02, -0.01, -0.02],
    ("epic", "age", "without", "after"): [-0.0, [0.0, 0.0], -0.0],
    ("mimic", "race", "with", "before"): [0.02, -0.01, -0.01],
    ("mimic", "race", "with", "after"): [[0.03, 0.01], [-0.01, -0.01], [0.01, -0.03]],
    ("mimic", "sex", "with", "before"): [0.01, -0.01],
    ("mimic", "sex", "with", "after"): [0.02, -0.02],
    ("mimic", "age", "with", "before"): [-0.01, 0.0, 0.01],
    ("mimic", "age", "with", "after"): [0.01, [-0.01, -0.01], 0.01],
    ("mimic", "race", "without", "before"): [0.0, 0.0, 0.01],
    ("mimic", "race", "without", "after"): [[0.01, -0.0], [-0.0, 0.0], [0.0, -0.01]],
    ("mimic", "sex", "without", "before"): [0.01, -0.01],
    ("mimic", "sex", "without", "after"): [0.01, -0.01],
    ("mimic", "age", "without", "before"): [-0.01, 0.01, 0.01],
    ("mimic", "age", "without", "after"): [0.0, [0.0, 0.0], 0.0],
}

REFERENCE_GAPS = {
    ("epic", "race", "with", "before"): 0.02,
    ("epic", "race", "with", "after"): 0.04,
    ("epic", "sex", "with", "before"): 0.02,
    ("epic", "sex", "with", "after"): 0.02,
    ("epic", "age", "with", "before"): 0.03,
    ("epic", "age", "with", "after"): 0.01,
    ("epic", "race", "without", "before"): 0.02,
    ("epic", "race", "without", "after"): 0.02,
    ("epic", "sex", "without", "before"): 0.02,
    ("epic", "sex", "without", "after"): 0.02,
    ("epic", "age", "without", "before"): 0.04,
    ("epic", "age", "without", "after"): 0.0,
    ("mimic", "race", "with", "before"): 0.03,
    ("mimic", "race", "with", "after"): 0.04,
    ("mimic", "sex", "with", "before"): 0.02,
    ("mimic", "sex", "with", "after"): 0.04,
    ("mimic", "age", "with", "before"): 0.02,
    ("mimic", "age", "with", "after"): 0.02,
    ("mimic", "race", "without", "before"): 0.01,
    ("mimic", "race", "without", "after"): 0.01,
    ("mimic", "sex", "without", "before"): 0.02,
    ("mimic", "sex", "without", "after"): 0.02,
    ("mimic", "age", "without", "before"): 0.02,
    ("mimic", "age", "without", "after"): 0.0,
}


def _subgroup_row(model, attr, level, diff):
    return SubgroupAuditResult(
        model=model, attribute=attr, level=level, metric="AUROC",
        mean_diff=diff, sd=0.005, t_stat=1.0, p_value=0.5,
        significant=False, n_effective=150, status=STATUS_OK,
    )


def test_criterion_01_reference_summary_reconstruction():
    start = time.perf_counter()
    matches = {"epic": 0, "mimic": 0}
    for dataset in ("epic", "mimic"):
        subgroup, matched = [], []
        for (ds, attr, model, matching), values in REFERENCE_DIFFS.items():
            if ds != dataset:
                continue
            for i, v in enumerate(values):
                level = f"L{i}"
                if matching == "before":
                    subgroup.append(_subgroup_row(model, attr, level, v))
                else:
                    contrasts = v if isinstance(v, list) else [v]
                    cells = tuple(
                        MatchedCell(
                            opponent=f"O{j}", status=STATUS_OK,
                            result=_subgroup_row(model, attr, level, c),
                        )
                        for j, c in enumerate(contrasts)
                    )
                    matched.append(
                        MatchedAuditResult(model=model, attribute=attr,
                                           level=level, cells=cells)
                    )
        summaries = summarize_discrepancy(subgroup, matched, "AUROC")
        gaps = {(s.model, s.attribute, s.matching): s.gap for s in summaries}
        for (ds, attr, model, matching), expected in REFERENCE_GAPS.items():
            if ds != dataset:
                continue
            got = round_half_even(gaps[(model, attr, matching)], 2)
            matches[dataset] += got == expected
    elapsed = time.perf_counter() - start
    ok = matches["epic"] >= 10 and matches["mimic"] >= 10 and elapsed < 1.0
    verdict(1, ok, f"summary cells matched epic {matches['epic']}/12, "
                   f"mimic {matches['mimic']}/12 (gate >= 10 each), {elapsed:.2f}s")


# --------------------------------------------------------------------------
# criterion 2: rank AUROC == brute-force pair enumeration, exactly
# --------------------------------------------------------------------------

def test_criterion_02_auroc_matches_pairwise_oracle():
    rng = np.random.default_rng(20260825)
    start = time.perf_counter()
    exact = 0
    trials = 1000
    for i in range(trials):
        n = int(rng.integers(2, 201))
        labels = rng.integers(0, 2, n)
        labels[0], labels[1] = 0, 1  # both classes always present
        if i % 2 == 0:
            scores = rng.integers(0, 11, n) / 10.0  # heavy ties
        else:
            scores = np.round(rng.random(n), 3)  # occasional ties
        exact += auroc(labels, scores) == pairwise_auroc(labels, scores)
    elapsed = time.perf_counter() - start
    ok = exact == trials and elapsed < 10.0
    verdict(2, ok, f"{exact}/{trials} instances bitwise equal to the "
                   f"pair-enumeration oracle, {elapsed:.1f}s (limit 10s)")


# --------------------------------------------------------------------------
# criterion 3: t-distribution tail accuracy
# --------------------------------------------------------------------------

def _standardized_base(n: int) -> np.ndarray:
    v = np.arange(n, dtype=float) - (n - 1) / 2.0
    return v / v.std(ddof=1)


def test_criterion_03_t_pvalues_match_quadrature_oracle():
    worst = 0.0
    for df in (1, 4, 29, 149):
        n = df + 1
        base = _standardized_base(n)
        for target in (0.0, 0.5, 2.0, 4.2426, 8.0):
            samples = base + target / np.sqrt(n)
            res = t_test_one_sample(samples)
            assert res.df == df
            assert abs(res.t_stat - target) <= 1e-8
            gap = abs(res.p_value - t_two_sided_p(res.t_stat, df))
            worst = max(worst, gap)
    example = t_test_one_sample([1.0, 2.0, 3.0, 4.0, 5.0])
    example_ok = (abs(example.t_stat - 4.2426) < 1e-4
                  and abs(example.p_value - 0.0132) <= 0.0005)
    ok = worst <= 1e-8 and example_ok
    verdict(3, ok, f"max |p - oracle| = {worst:.2e} over df x |t| grid "
                   f"(tolerance 1e-8); worked example t={example.t_stat:.4f}, "
                   f"p={example.p_value:.4f}")


# --------------------------------------------------------------------------
# criterion 4: logistic regression internals
# --------------------------------------------------------------------------

def test_criterion_04_logistic_regression_correctness():
    rng = np.random.default_rng(42)
    n = 400
    x1, x2, x3 = rng.normal(0, 1, (3, n))
    logits = 0.3 + 0.8 * x1 - 0.6 * x2 + 0.4 * x3
    labels = (rng.uniform(0, 1, n) < expit(logits)).astype(int)
    cohort = build_cohort(
        labels=labels.tolist(),
        scores=rng.uniform(0, 1, n).tolist(),
        covariates={"x1": x1.tolist(), "x2": x2.tolist(), "x3": x3.tolist()},
    )
    design = encode_design(cohort, range(n), ("x1", "x2", "x3"))
    y = label_values(cohort).astype(float)
    X = design.values
    mask = np.asarray([0.0 if c.kind == "intercept" else 1.0 for c in design.columns])
    ridge = 1e-3

    model = fit_logistic(design, y, ridge=ridge)
    assert model.converged

    def objective(b):
        z = X @ b
        return float(np.sum(y * z - np.logaddexp(0.0, z)) - 0.5 * ridge * np.sum(mask * b * b))

    def analytic(b):
        return X.T @ (y - expit(X @ b)) - ridge * mask * b

    rel = 0.0
    offsets = [np.zeros(X.shape[1]),
               rng.normal(0, 0.3, X.shape[1]),
               rng.normal(0, 0.3, X.shape[1])]
    for off in offsets:
        point = model.coefficients + off
        g_fd = fd_gradient(objective, point)
        g_an = analytic(point)
        rel = max(rel, float(np.max(np.abs(g_fd - g_an)) / max(1.0, np.max(np.abs(g_an)))))
    gradient_ok = rel <= 1e-5

    plain = fit_logistic(design, y, ridge=0.0)
    score_eq = abs(float(np.sum(y - predict_proba(plain, design))))
    score_ok = plain.converged and score_eq <= 1e-8

    sep_labels = (x1 > 0).astype(int)
    sep_cohort = build_cohort(
        labels=sep_labels.tolist(),
        scores=rng.uniform(0, 1, n).tolist(),
        covariates={"x1": x1.tolist()},
    )
    sep_design = encode_design(sep_cohort, range(n), ("x1",))
    separated = fit_logistic(sep_design, label_values(sep_cohort).astype(float), ridge=0.0)
    separation_ok = not separated.converged

    ok = gradient_ok and score_ok and separation_ok
    verdict(4, ok, f"gradient rel err {rel:.2e} (<=1e-5), score equation "
                   f"{score_eq:.2e} (<=1e-8), separation detected: {separation_ok}")


# --------------------------------------------------------------------------
# criterion 5: propensity matching removes an injected confound
# --------------------------------------------------------------------------

def _confounded_config(seed: int) -> SynthConfig:
    return SynthConfig(
        n=2000,
        protected=(ProtectedSpec("g", ("t", "c"), (0.3, 0.7)),),
        covariates=(CovariateSpec("x", shifts={"g": {"t": 0.8}}),),
        outcome=OutcomeModel(intercept=-0.5, weights={"x": 1.5}),
        score=ScoreModel(kind="oracle_noise", noise_sd=0.05),
        seed=seed,
    )


def test_criterion_05_matching_improves_balance():
    start = time.perf_counter()
    improved, balanced = 0, 0
    seeds = 100
    for seed in range(seeds):
        cohort, _ = generate(_confounded_config(seed))
        x = np.asarray([float(r.covariates["x"]) for r in cohort.records])
        values = attribute_values(cohort, "g")
        idx_t = [i for i, v in enumerate(values) if v == "t"]
        idx_c = [i for i, v in enumerate(values) if v == "c"]
        pre = smd(x, idx_t, idx_c)
        sample, _ = match_contrast(cohort, "g", "t", "c", ("x",))
        post = smd(x, [p.treated for p in sample.pairs], [p.control for p in sample.pairs])
        improved += post < pre
        balanced += post < 0.1
    elapsed = time.perf_counter() - start
    ok = improved >= 95 and balanced >= 80 and elapsed < 60.0
    verdict(5, ok, f"post-match SMD < pre in {improved}/{seeds} (gate 95), "
                   f"< 0.1 in {balanced}/{seeds} (gate 80), {elapsed:.0f}s (limit 60s)")


# --------------------------------------------------------------------------
# criteria 6 and 7: detection power and null behavior
# --------------------------------------------------------------------------

def _power_config(seed: int, inject: bool) -> SynthConfig:
    injections = (Injection("g", "b", "score_noise", 0.3),) if inject else ()
    return SynthConfig(
        n=3000,
        protected=(ProtectedSpec("g", ("a", "b"), (0.5, 0.5)),),
        covariates=(CovariateSpec("x"),),
        outcome=OutcomeModel(intercept=-0.5, weights={"x": 1.5}),
        score=ScoreModel(kind="oracle_noise", noise_sd=0.05),
        injections=injections,
        seed=seed,
    )


def test_criterion_06_injected_degradation_is_flagged():
    start = time.perf_counter()
    flagged = 0
    seeds = 100
    for seed in range(seeds):
        cohort, _ = generate(_power_config(seed, inject=True))
        config = AuditConfig(metrics=("AUROC",), n_bootstrap=150, alpha=0.05, seed=seed)
        results = bootstrap_audit(cohort, "score", config)
        cell = next(r for r in results if r.level == "b")
        flagged += (cell.status == STATUS_OK and cell.significant
                    and cell.mean_diff < 0)
    elapsed = time.perf_counter() - start
    ok = flagged >= 95 and elapsed < 300.0
    verdict(6, ok, f"degraded subgroup flagged (negative, significant) in "
                   f"{flagged}/{seeds} seeds (gate 95), {elapsed:.0f}s (limit 300s)")


def test_criterion_07_null_significance_rate_in_band():
    # Two attributes and all six metrics so the rate estimate does not hinge
    # on a single mirrored level pair.  The band is wide on purpose: the
    # bootstrap-scale t cell test is known to run hot or cold relative to
    # nominal alpha, and this documents the achieved range instead of
    # pretending to exact calibration.
    sig, total = 0, 0
    seeds = 100
    for seed in range(seeds):
        config = SynthConfig(
            n=3000,
            protected=(
                ProtectedSpec("g", ("a", "b"), (0.5, 0.5)),
                ProtectedSpec("h", ("u", "v", "w"), (0.4, 0.35, 0.25)),
            ),
            covariates=(CovariateSpec("x"),),
            outcome=OutcomeModel(intercept=-0.5, weights={"x": 1.5}),
            score=ScoreModel(kind="oracle_noise", noise_sd=0.05),
            seed=seed,
        )
        cohort, _ = generate(config)
        audit_config = AuditConfig(n_bootstrap=150, alpha=0.05, seed=seed)
        for r in bootstrap_audit(cohort, "score", audit_config):
            if r.status == STATUS_OK:
                total += 1
                sig += r.significant
    rate = sig / total
    ok = 0.01 <= rate <= 0.15
    verdict(7, ok, f"null significance rate {rate:.3f} over {total} cells "
                   f"from {seeds} seeds (band [0.01, 0.15])")


# --------------------------------------------------------------------------
# criterion 8: per-replicate diffs sum to zero
# --------------------------------------------------------------------------

def test_criterion_08_replicate_diffs_sum_to_zero():
    # The replicate index draws below come from the same named streams the
    # bootstrap audit uses, so each checked vector is exactly one replicate
    # of a real audit run.
    config = SynthConfig(
        n=1500,
        protected=(
            ProtectedSpec("g", ("a", "b"), (0.5, 0.5)),
            ProtectedSpec("h", ("u", "v", "w"), (0.4, 0.35, 0.25)),
        ),
        covariates=(CovariateSpec("x"),),
        outcome=OutcomeModel(intercept=-0.5, weights={"x": 1.5}),
        score=ScoreModel(kind="oracle_noise", noise_sd=0.05),
        seed=3,
    )
    cohort, _ = generate(config)
    y = label_values(cohort)
    s = score_values(cohort, "score")
    worst = 0.0
    checked = 0
    for seed in (0, 7):
        for b in range(150):
            idx = stream(seed, "bootstrap", b).integers(0, cohort.n, cohort.n)
            threshold = youden_threshold(y[idx], s[idx])
            for attribute in ("g", "h"):
                for metric in ("AUROC", "SENS", "FPR"):
                    thr = None if metric == "AUROC" else threshold
                    diffs = group_diffs(cohort, idx, attribute, metric, "score",
                                        threshold=thr)
                    total = sum(d.diff for d in diffs.values() if d.diff is not None)
                    worst = max(worst, abs(total))
                    checked += 1
    ok = worst <= 1e-12
    verdict(8, ok, f"max |sum of diffs| = {worst:.2e} over {checked} "
                   f"(attribute, metric, replicate) vectors (tolerance 1e-12)")


# --------------------------------------------------------------------------
# criterion 9: worker count never changes the written report
# --------------------------------------------------------------------------

def test_criterion_09_worker_count_byte_identical(tmp_path):
    synth_doc = {
        "n": 1200,
        "seed": 17,
        "protected": [
            {"name": "race", "levels": ["Black", "White", "Other"],
             "weights": [0.3, 0.5, 0.2]},
            {"name": "sex", "levels": ["F", "M"], "weights": [0.5, 0.5]},
        ],
        "covariates": [{"name": "x", "shifts": {"race": {"Black": 0.4}}}],
        "outcome": {"intercept": -0.5, "weights": {"x": 1.5}},
        "score": {"kind": "oracle_noise", "noise_sd": 0.05},
    }
    synth_path = tmp_path / "synth.json"
    synth_path.write_text(json.dumps(synth_doc))
    cohort_path = str(tmp_path / "cohort.csv")
    assert main(["synth", str(synth_path), cohort_path]) == EXIT_OK

    run_doc = {
        "cohort": cohort_path,
        "schema": {
            "id_column": "id", "label_column": "label", "score_columns": ["score"],
            "protected": [{"name": "race"}, {"name": "sex"}],
            "covariates": [{"name": "x", "kind": "numeric"}],
        },
        "audit": {"n_bootstrap": 60, "seed": 9, "min_group_size": 50,
                  "min_matched_n": 40, "propensity_covariates": ["x"]},
        "formats": ["json", "csv"],
    }
    run_path = tmp_path / "run.json"
    run_path.write_text(json.dumps(run_doc))

    dir_1, dir_8 = str(tmp_path / "w1"), str(tmp_path / "w8")
    assert main(["audit", str(run_path), "--workers", "1", "--output-dir", dir_1]) == EXIT_OK
    assert main(["audit", str(run_path), "--workers", "8", "--output-dir", dir_8]) == EXIT_OK

    import os
    names_1 = sorted(n for n in os.listdir(dir_1) if n.endswith((".json", ".csv")))
    names_8 = sorted(n for n in os.listdir(dir_8) if n.endswith((".json", ".csv")))
    identical = names_1 == names_8 and all(
        Path(dir_1, n).read_bytes() == Path(dir_8, n).read_bytes()
        for n in names_1
    )
    verdict(9, identical, f"{len(names_1)} csv/json files byte-identical "
                          f"between 1 and 8 worker threads: {names_1}")


# --------------------------------------------------------------------------
# criterion 10: full pipeline smoke test
# --------------------------------------------------------------------------

def test_criterion_10_end_to_end_pipeline(tmp_path):
    start = time.perf_counter()
    synth_doc = {
        "n": 5000,
        "seed": 29,
        "protected": [
            {"name": "race", "levels": ["Black", "White", "Other"],
             "weights": [0.25, 0.55, 0.2]},
            {"name": "sex", "levels": ["F", "M"], "weights": [0.5, 0.5]},
        ],
        "covariates": [
            {"name": "x", "shifts": {"race": {"Black": 0.5}}},
            {"name": "z"},
        ],
        "outcome": {"intercept": -1.0, "weights": {"x": 0.9, "z": 0.7},
                    "protected_weights": {"race": {"Black": 0.4}}},
        "score": {"kind": "oracle_noise", "noise_sd": 0.05},
    }
    synth_path = tmp_path / "synth.json"
    synth_path.write_text(json.dumps(synth_doc))
    raw_path = str(tmp_path / "cohort.csv")
    assert main(["synth", str(synth_path), raw_path]) == EXIT_OK

    # Training view: protected columns double as categorical features so one
    # model can be fit with them and one without.
    train_schema = CohortSchema(
        id_column="id", label_column="label",
        score_columns=(("score", "score"),),
        covariate_columns=(
            CovariateColumn("x"), CovariateColumn("z"),
            CovariateColumn("race", "categorical"), CovariateColumn("sex", "categorical"),
        ),
    )
    cohort = parse_cohort(raw_path, train_schema)
    train_idx, test_idx = split_train_test(cohort, 0.3, seed=1)
    cohort, m1 = demo_train(cohort, train_idx, ("x", "z"), score_name="m1")
    cohort, m2 = demo_train(cohort, train_idx, ("x", "z", "race", "sex"), score_name="m2")
    assert m1.converged and m2.converged

    scored_path = tmp_path / "scored.csv"
    write_cohort(cohort, scored_path)
    test_ids = {cohort.records[i].id for i in test_idx}
    import csv as _csv
    test_path = tmp_path / "test.csv"
    with open(scored_path, newline="") as src, open(test_path, "w", newline="") as dst:
        reader = _csv.reader(src)
        writer = _csv.writer(dst, lineterminator="\n")
        header = next(reader)
        writer.writerow(header)
        id_pos = header.index("id")
        for row in reader:
            if row[id_pos] in test_ids:
                writer.writerow(row)

    run_doc = {
        "cohort": str(test_path),
        "schema": {
            "id_column": "id", "label_column": "label",
            "score_columns": ["m1", "m2"],
            "protected": [{"name": "race"}, {"name": "sex"}],
            "covariates": [{"name": "x"}, {"name": "z"}],
        },
        "audit": {"n_bootstrap": 150, "seed": 2, "min_group_size": 50,
                  "min_matched_n": 50, "propensity_covariates": ["x", "z"]},
        "output_dir": str(tmp_path / "report"),
        "formats": ["json", "csv", "markdown"],
    }
    run_path = tmp_path / "run.json"
    run_path.write_text(json.dumps(run_doc))
    assert main(["compare", str(run_path)]) == EXIT_OK

    doc = json.loads((tmp_path / "report" / "report.json").read_text())
    subgroup_shape = {(r["model"], r["attribute"]) for r in doc["subgroup"]}
    expected_shape = {(m, a) for m in ("m1", "m2") for a in ("race", "sex")}
    per_level_ok = (subgroup_shape == expected_shape
                    and any(r["status"] == "ok" for r in doc["subgroup"])
                    and bool(doc["matched"]))
    phases = {(r["model"], r["matching"]) for r in doc["discrepancy"]}
    summary_ok = phases >= {(m, p) for m in ("m1", "m2") for p in ("before", "after")}
    comparison = doc["comparison"]
    compare_ok = (comparison is not None and comparison["model_a"] == "m1"
                  and comparison["model_b"] == "m2"
                  and set(comparison["overall"]) == {"m1", "m2"}
                  and bool(comparison["deltas"]))
    md = (tmp_path / "report" / "report.md").read_text()
    md_ok = ("## Max discrepancy across subgroups" in md
             and "## Model comparison: m2 minus m1" in md)
    elapsed = time.perf_counter() - start
    ok = per_level_ok and summary_ok and compare_ok and md_ok and elapsed < 300.0
    verdict(10, ok, f"synth -> train M1/M2 -> compare completed in "
                    f"{elapsed:.0f}s (limit 300s); per-level, summary, and "
                    f"comparison reports all populated")
