"""Smoke test of the benchmark harness at tiny n.

    python -m pytest bench

The repository's own test suite does not collect this file (its testpaths
are ``tests``).
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH))

import run  # noqa: E402
from tracing import PER_LAYER_UNITS  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

SPEC = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
TINY_N = 1500


@pytest.fixture
def work(tmp_path, monkeypatch):
    monkeypatch.setattr(run, "WORK", tmp_path)
    return tmp_path


def test_spec_names_what_the_harness_reports():
    assert [w["name"] for w in SPEC["workloads"]] == list(WORKLOADS)
    assert {m["name"]: m["unit"] for m in SPEC["end_to_end"]} == run.END_TO_END_UNITS
    assert {m["name"]: m["unit"] for m in SPEC["per_layer"]} == PER_LAYER_UNITS


def test_timed_run_reports_every_end_to_end_metric(work):
    metrics, detail = run.timed_run(WORKLOADS["match_export_50k"], seed=0, seconds=0, n=TINY_N)
    assert set(metrics) == set(run.END_TO_END_UNITS)
    assert all(v > 0 for v in metrics.values())
    assert len(detail["setup_s"]) >= run.SETUP_MIN_REPS
    [only] = detail["runs"]
    assert only["exit_code"] == 0 and only["problems"] == ()


def test_gate_rejects_a_report_that_changed(work):
    workload = WORKLOADS["match_export_50k"]
    (work / "shas.json").write_text(json.dumps({run.ledger_key(workload, 0, TINY_N): "0" * 64}))
    _, detail = run.timed_run(workload, seed=0, seconds=0, n=TINY_N)
    assert any("differs" in p for p in detail["runs"][0]["problems"])


def test_traced_audit_accounts_for_its_wall_time(work):
    # The 4k demo size: at tiny n the injected race=Black gap is not reliably
    # significant, and the gate checks that it is.
    metrics, detail = run.traced_run(WORKLOADS["audit_small_4k"], seed=0)
    assert set(metrics) == set(PER_LAYER_UNITS)
    assert [r["label"] for r in detail["runs"]] == ["child", "workers1", "in_process", "traced"]
    assert all(r["problems"] == () for r in detail["runs"])
    assert len({r["sha256"] for r in detail["runs"]}) == 1
    assert abs(detail["unaccounted_s"]) < 0.01
    # Seed-state counts: 4 contrasts, each matched once by the matched audit
    # and once more for the balance rows.
    assert metrics["matching.match_calls"] == 8
    assert metrics["matching.greedy_calls"] == 8
    assert metrics["cohort.accessor_calls"] >= 28
    assert metrics["audit.replicates"] == 150 * (1 + 4)
    assert metrics["matching.export_s"] == 0.0


def test_traced_compare_bypasses_matching(work):
    metrics, detail = run.traced_run(WORKLOADS["compare_bootstrap_50k"], seed=0, n=TINY_N)
    assert all(r["problems"] == () for r in detail["runs"])
    assert not any(v for k, v in detail["counts"].items() if k.startswith(("matching.", "glm.")))
    assert metrics["audit.comparison_s"] > 0


def test_exits_nonzero_without_the_sources(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("_work", "__pycache__"))
    shutil.copy(BENCH.parent / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "audit_small_4k", "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
