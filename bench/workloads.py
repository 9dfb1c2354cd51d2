"""The benchmark's workloads: how each one's inputs are made, run and checked.

Every input comes from the workload seed: the synthetic cohort (written as
CSV) and the run config (written as JSON).  The CLI sees only those files.

Why these four:

* ``audit_matched_50k`` - the demo configs at n=50,000, ``audit --workers 1``:
  the matching-heavy path and the single-threaded baseline.
* ``compare_bootstrap_50k`` - two score columns, four race levels, sex and a
  continuous age, all six metrics and no propensity covariates,
  ``compare --workers 2``: the bootstrap loop and the thread pool with
  matching bypassed, so a matching change should not move it.
* ``audit_small_4k`` - the shipped demo cohort (n=4,000), ``audit --workers 2``:
  start-up and per-call overhead dominate, so a change that costs small
  inputs shows here.
* ``match_export_50k`` - the inputs of ``audit_matched_50k`` run through
  ``match``: the only path that writes per-contrast pair files.
"""

from __future__ import annotations

import copy
import json
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
DEMOS = ROOT / "demos"


def _demo(name: str) -> dict:
    return json.loads((DEMOS / name).read_text(encoding="utf-8"))


@dataclass(frozen=True)
class Workload:
    name: str
    subcommand: str
    workers: int | None  # --workers for the timed runs; None where the subcommand has none
    n: int
    synth_doc: Callable[[int, int], dict]  # (seed, n) -> synth config
    run_doc: Callable[[int], dict]  # seed -> run config
    fair_twin: bool = False  # add an injection-free "fair" score column, 10% unscored

    @property
    def report_name(self) -> str:
        return "matching.json" if self.subcommand == "match" else "report.json"

    def cli_args(self, config: Path, out_dir: Path, workers: int | None = None) -> list[str]:
        args = [self.subcommand, str(config), "--output-dir", str(out_dir)]
        workers = self.workers if workers is None else workers
        if workers is not None:
            args += ["--workers", str(workers)]
        return args


def _demo_synth(seed: int, n: int) -> dict:
    doc = _demo("synth_demo.json")
    doc.update(n=n, seed=seed)
    return doc


def _demo_run(seed: int) -> dict:
    doc = _demo("audit_demo.json")
    doc["cohort"] = "cohort.csv"
    doc["audit"]["seed"] = seed
    return doc


def _compare_synth(seed: int, n: int) -> dict:
    return {
        "n": n,
        "seed": seed,
        "protected": [
            {"name": "race", "levels": ["Black", "White", "Asian", "Other"],
             "weights": [0.25, 0.45, 0.15, 0.15]},
            {"name": "sex", "levels": ["F", "M"], "weights": [0.5, 0.5]},
        ],
        "covariates": [
            {"name": "severity", "kind": "gaussian", "mu": 0.0, "sigma": 1.0,
             "shifts": {"race": {"Black": 0.5}}},
            {"name": "age", "kind": "gaussian", "mu": 55.0, "sigma": 15.0,
             "shifts": {"race": {"Asian": 3.0}}},
        ],
        "outcome": {"intercept": -2.65, "weights": {"severity": 1.6, "age": 0.03}},
        "score": {"kind": "oracle_noise", "noise_sd": 0.05},
        "injections": [
            {"attribute": "race", "level": "Black", "mechanism": "score_noise", "amount": 0.3},
        ],
    }


def _compare_run(seed: int) -> dict:
    return {
        "cohort": "cohort.csv",
        "schema": {
            "id_column": "id",
            "label_column": "label",
            "score_columns": ["score", "fair"],
            "protected": [{"name": "race"}, {"name": "sex"},
                          {"name": "age", "kind": "continuous"}],
            "covariates": [{"name": "severity", "kind": "numeric"}],
        },
        "audit": {"n_bootstrap": 150, "alpha": 0.05, "seed": seed, "min_group_size": 100},
    }


WORKLOADS = {
    w.name: w
    for w in (
        Workload("audit_matched_50k", "audit", 1, 50_000, _demo_synth, _demo_run),
        Workload("compare_bootstrap_50k", "compare", 2, 50_000, _compare_synth, _compare_run,
                 fair_twin=True),
        Workload("audit_small_4k", "audit", 2, 4_000, _demo_synth, _demo_run),
        Workload("match_export_50k", "match", None, 50_000, _demo_synth, _demo_run),
    )
}


def prepare(workload: Workload, seed: int, work_dir: Path, tracer, n: int | None = None) -> Path:
    """Generate the cohort and run config into ``work_dir``; returns the config path.

    Cohort generation is recorded as the ``synth.generate`` span and file
    writing as ``synth.write``.
    """
    from biasaudit.cohort import score_values, with_score_column, write_cohort
    from biasaudit.synth import config_from_dict, generate

    n = workload.n if n is None else n
    doc = workload.synth_doc(seed, n)
    with tracer.span("synth.generate"):
        cohort, _ = generate(config_from_dict(doc))
        if workload.fair_twin:
            twin_doc = copy.deepcopy(doc)
            twin_doc["injections"] = []
            twin, _ = generate(config_from_dict(twin_doc))
            fair = score_values(twin, "score")
            rng = np.random.default_rng([seed, 1])
            fair[rng.choice(n, n // 10, replace=False)] = np.nan
            cohort = with_score_column(cohort, "fair", "fair", fair)
    with tracer.span("synth.write"):
        work_dir.mkdir(parents=True, exist_ok=True)
        write_cohort(cohort, work_dir / "cohort.csv")
        config = work_dir / "run.json"
        config.write_text(json.dumps(workload.run_doc(seed), indent=2) + "\n", encoding="utf-8")
    return config


def _black_auroc_problems(report: dict) -> list[str]:
    """The injected model must show race=Black AUROC significantly low, before
    matching and in every matched Black cell."""
    problems = []
    before = [r for r in report["subgroup"]
              if (r["model"], r["attribute"], r["level"], r["metric"]) == ("score", "race", "Black", "AUROC")]
    if len(before) != 1:
        problems.append(f"expected one race=Black AUROC row before matching, found {len(before)}")
    for r in before:
        if not (r["status"] == "ok" and r["significant"] and r["mean_diff"] < 0):
            problems.append(f"race=Black AUROC before matching is not significantly negative: "
                            f"t={r['t_stat']}, status={r['status']}")
    for row in report["matched"]:
        if (row["model"], row["attribute"], row["level"]) != ("score", "race", "Black"):
            continue
        for cell in row["cells"]:
            res = cell["result"]
            if res is None:
                problems.append(f"matched Black vs {cell['opponent']} has no result: {cell['status']}")
                continue
            if res["metric"] != "AUROC":
                continue
            if not (cell["status"] == "ok" and res["significant"] and res["mean_diff"] < 0):
                problems.append(f"matched race=Black AUROC vs {cell['opponent']} is not "
                                f"significantly negative: t={res['t_stat']}")
    return problems


def _match_problems(summary: dict, out_dir: Path) -> list[str]:
    problems = []
    contrasts = summary["contrasts"]
    if len(contrasts) != 4 or any(c["status"] != "ok" for c in contrasts):
        problems.append("expected 4 contrasts, all ok: got "
                        + ", ".join(f"{c['treated_level']}/{c['control_level']}={c['status']}"
                                    for c in contrasts))
    for c in contrasts:
        if "pairs_file" not in c:
            continue
        with open(out_dir / c["pairs_file"], encoding="utf-8") as fh:
            rows = sum(1 for _ in fh) - 1
        if 2 * rows != c["matched_n"]:
            problems.append(f"{c['pairs_file']}: {rows} pairs, matched_n={c['matched_n']}")
        for cov in c["covariates"]:
            before, after = cov["smd_before"], cov["smd_after"]
            if before is not None and before > 0.1 and not (after is not None and after < before):
                problems.append(f"{c['pairs_file']}: {cov['name']} SMD {before} -> {after} not reduced")
    return problems


def check_output(workload: Workload, out_dir: Path) -> list[str]:
    """Problems with one run's output directory; empty when it passes."""
    path = out_dir / workload.report_name
    if not path.is_file():
        return [f"{workload.report_name} was not written"]
    doc = json.loads(path.read_text(encoding="utf-8"))
    if workload.subcommand == "match":
        return _match_problems(doc, out_dir)
    problems = _black_auroc_problems(doc)
    if workload.subcommand == "audit" and not any(
            row["level"] == "Black" and row["cells"] for row in doc["matched"]):
        problems.append("the audit produced no matched race=Black cells")
    return problems
