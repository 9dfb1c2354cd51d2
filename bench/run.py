"""Benchmark of the biasaudit command line.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root or anywhere else; paths resolve from this file.
The workloads are defined in ``bench/workloads.py``.

``--trace 0`` is the timed run.  The cohort and run config are generated
from the seed several times (the median is ``setup_s``), then the real CLI
runs as a child process, ``python -m biasaudit`` with ``src`` on
``PYTHONPATH``, in a closed loop: the next run starts when the previous one
exits, until ``--seconds`` have passed (at least one run).  ``wall_s``,
``cpu_s`` (user + sys) and ``peak_rss_mb`` are medians over the runs.

``--trace 1`` is the traced run; ``--seconds`` is not used.  It times a child
that only imports ``biasaudit.cli``, runs the CLI once as a child, reruns a
``--workers 2`` workload at ``--workers 1``, then calls ``biasaudit.cli.main``
in this process twice, untraced and traced (see ``bench/tracing.py``), and
prints the per-layer metrics.

Every run passes a correctness gate: exit code 0, the workload's checks on
its output (``workloads.check_output``), and a report whose sha256 equals
that of every other run of the same workload, seed, size and sources, including
runs of earlier invocations in this checkout (kept in ``bench/_work/shas.json``).
The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the full record with
the machine, the report sha256 and every run goes to ``bench/_work/results``.
"""

from __future__ import annotations

import argparse
import hashlib
import io
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from contextlib import redirect_stdout
from dataclasses import asdict, dataclass
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORK = BENCH / "_work"

sys.path.insert(0, str(SRC))

from tracing import PER_LAYER_UNITS, Tracer, install, layer_metrics  # noqa: E402
from workloads import DEMOS, WORKLOADS, Workload, check_output, prepare  # noqa: E402

END_TO_END_UNITS = {"wall_s": "s", "cpu_s": "s", "peak_rss_mb": "MB", "setup_s": "s"}

# Set-up is repeated at least SETUP_MIN_REPS times and until SETUP_MIN_S
# seconds have gone into it, so the 4k cohort gets enough repetitions for a
# steady median.
SETUP_MIN_REPS = 3
SETUP_MIN_S = 2.0
SETUP_MAX_REPS = 15
STARTUP_REPS = 3


@dataclass
class Run:
    label: str
    exit_code: int
    wall_s: float
    cpu_s: float | None = None
    peak_rss_mb: float | None = None
    sha256: str | None = None
    problems: tuple[str, ...] = ()


def _child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    return env


def run_child(label: str, python_args: list[str], log_path: Path) -> Run:
    """Run ``python <python_args>`` to completion; wall, CPU and peak RSS come
    from this child alone."""
    with open(log_path, "wb") as log:
        start = time.perf_counter()
        proc = subprocess.Popen([sys.executable, *python_args], cwd=ROOT, env=_child_env(),
                                stdin=subprocess.DEVNULL, stdout=subprocess.DEVNULL, stderr=log)
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return Run(label, proc.returncode, wall, usage.ru_utime + usage.ru_stime, usage.ru_maxrss / 1024.0)


def _sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def _source_digest() -> str:
    h = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        h.update(str(path.relative_to(SRC)).encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def ledger_key(workload: Workload, seed: int, n: int | None) -> str:
    """Runs with equal keys must write byte-identical reports."""
    return f"{workload.name}/n={n or workload.n}/seed={seed}/src={_source_digest()[:16]}"


class Gate:
    """Correctness gate shared by every run of one invocation."""

    def __init__(self, workload: Workload, seed: int, n: int | None) -> None:
        self.workload = workload
        self.key = ledger_key(workload, seed, n)
        self.ledger_path = WORK / "shas.json"
        self.ledger = json.loads(self.ledger_path.read_text()) if self.ledger_path.is_file() else {}
        self.runs: list[Run] = []

    def check(self, run: Run, out_dir: Path, log_path: Path | None = None) -> Run:
        problems: list[str] = []
        if run.exit_code != 0:
            tail = log_path.read_text(errors="replace")[-2000:] if log_path else ""
            problems.append(f"exit code {run.exit_code}: {tail}")
        else:
            problems += check_output(self.workload, out_dir)
            report = out_dir / self.workload.report_name
            if report.is_file():
                run.sha256 = _sha256(report)
                expected = self.ledger.setdefault(self.key, run.sha256)
                if run.sha256 != expected:
                    problems.append(f"{report.name} sha256 {run.sha256} differs from {expected}")
        run.problems = tuple(problems)
        self.runs.append(run)
        for p in problems:
            print(f"FAIL {run.label}: {p}", file=sys.stderr)
        return run

    def save(self) -> None:
        WORK.mkdir(parents=True, exist_ok=True)
        tmp = self.ledger_path.with_suffix(".tmp")
        tmp.write_text(json.dumps(self.ledger, indent=2, sort_keys=True) + "\n")
        os.replace(tmp, self.ledger_path)


def _cli_child(gate: Gate, label: str, config: Path, work: Path, workers: int | None = None) -> Run:
    out = work / "out"
    shutil.rmtree(out, ignore_errors=True)
    log = work / "stderr.log"
    run = run_child(label, ["-m", "biasaudit", *gate.workload.cli_args(config, out, workers)], log)
    return gate.check(run, out, log)


def timed_run(workload: Workload, seed: int, seconds: float, n: int | None = None) -> tuple[dict, dict]:
    """The untraced run: set-up repetitions, then the closed loop of CLI children."""
    work = WORK / workload.name
    gate = Gate(workload, seed, n)
    setup: list[float] = []
    while len(setup) < SETUP_MIN_REPS or (sum(setup) < SETUP_MIN_S and len(setup) < SETUP_MAX_REPS):
        start = time.perf_counter()
        config = prepare(workload, seed, work, Tracer(), n)
        setup.append(time.perf_counter() - start)

    start = time.perf_counter()
    while not gate.runs or time.perf_counter() - start < seconds:
        _cli_child(gate, f"run{len(gate.runs)}", config, work)
    gate.save()

    metrics = {
        "wall_s": statistics.median(r.wall_s for r in gate.runs),
        "cpu_s": statistics.median(r.cpu_s for r in gate.runs),
        "peak_rss_mb": statistics.median(r.peak_rss_mb for r in gate.runs),
        "setup_s": statistics.median(setup),
    }
    return metrics, {"setup_s": setup, "runs": [asdict(r) for r in gate.runs]}


def _in_process(gate: Gate, label: str, argv: list[str], out: Path, tracer: Tracer | None) -> Run:
    from biasaudit import cli

    shutil.rmtree(out, ignore_errors=True)
    uninstall = install(tracer) if tracer is not None else None
    try:
        with redirect_stdout(io.StringIO()):
            start = time.perf_counter()
            if tracer is not None:
                with tracer.span("cli.main"):
                    code = cli.main(argv)
            else:
                code = cli.main(argv)
            wall = time.perf_counter() - start
    finally:
        if uninstall is not None:
            uninstall()
    return gate.check(Run(label, code, wall), out)


def traced_run(workload: Workload, seed: int, n: int | None = None) -> tuple[dict, dict]:
    """The traced run: per-layer metrics plus the worker-count check."""
    work = WORK / workload.name
    gate = Gate(workload, seed, n)
    tracer = Tracer()
    config = prepare(workload, seed, work, tracer, n)

    startup = [run_child("startup", ["-c", "import biasaudit.cli"], work / "startup.log")
               for _ in range(STARTUP_REPS)]
    if any(r.exit_code != 0 for r in startup):
        raise RuntimeError(f"importing biasaudit.cli failed; see {work / 'startup.log'}")
    _cli_child(gate, "child", config, work)
    if workload.workers is not None and workload.workers > 1:
        _cli_child(gate, "workers1", config, work, workers=1)

    out = work / "out"
    argv = workload.cli_args(config, out)
    plain = _in_process(gate, "in_process", argv, out, None)
    traced = _in_process(gate, "traced", argv, out, tracer)
    gate.save()

    bytes_written = sum(p.stat().st_size for p in out.rglob("*") if p.is_file())
    metrics = layer_metrics(tracer, {
        "cli.startup_s": statistics.median(r.wall_s for r in startup),
        "report.bytes_written": bytes_written,
        "bench.trace_overhead_s": traced.wall_s - plain.wall_s,
    })
    if not workload.run_doc(seed)["audit"].get("propensity_covariates"):
        calls = {k: v for k, v in tracer.counts.items()
                 if k.startswith(("matching.", "glm.")) and k.endswith("_calls") and v}
        if calls:
            traced.problems += (f"matching was bypassed but the trace counted {calls}",)
            print(f"FAIL traced: {traced.problems[-1]}", file=sys.stderr)
    (work / "spans.json").write_text(json.dumps(tracer.to_json()) + "\n")
    accounted = sum(v for k, v in metrics.items() if PER_LAYER_UNITS[k] == "s"
                    and not k.startswith(("cli.startup", "synth.", "bench.")))
    detail = {
        "runs": [asdict(r) for r in gate.runs],
        "startup_s": [r.wall_s for r in startup],
        "traced_wall_s": traced.wall_s,
        "unaccounted_s": traced.wall_s - accounted,
        "counts": dict(tracer.counts),
    }
    return metrics, detail


def machine_record() -> dict:
    import numpy
    import scipy

    try:
        commit = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"], capture_output=True,
                                text=True, check=True).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        commit = None  # not a git checkout
    return {
        "cores": os.cpu_count(),
        "usable_cores": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "commit": commit,
        "src_sha256": _source_digest(),
    }


def _missing_inputs() -> list[str]:
    needed = [SRC / "biasaudit" / "cli.py", DEMOS / "synth_demo.json", DEMOS / "audit_demo.json"]
    return [str(p.relative_to(ROOT)) for p in needed if not p.is_file()]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args(argv)

    missing = _missing_inputs()
    if missing:
        print(f"error: the benchmark needs the biasaudit sources; missing {', '.join(missing)}",
              file=sys.stderr)
        return 2
    import biasaudit

    if Path(biasaudit.__file__).resolve().parent != SRC / "biasaudit":
        print(f"error: imported biasaudit from {biasaudit.__file__}, not {SRC}", file=sys.stderr)
        return 2

    workload = WORKLOADS[args.workload]
    if args.trace:
        metrics, detail = traced_run(workload, args.seed)
        units = PER_LAYER_UNITS
    else:
        metrics, detail = timed_run(workload, args.seed, args.seconds)
        units = END_TO_END_UNITS
    gate_runs = detail["runs"]
    failed = sum(1 for r in gate_runs if r["problems"])
    shas = sorted({r["sha256"] for r in gate_runs if r["sha256"]})
    machine = machine_record()
    record = {
        "workload": workload.name, "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
        "machine": machine, "report_sha256": shas, **detail,
    }
    results = WORK / "results"
    results.mkdir(parents=True, exist_ok=True)
    (results / f"{workload.name}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=2) + "\n")

    print(f"machine {json.dumps(machine)}")
    print(f"{workload.name} report sha256 {' '.join(shas)}")
    for name, value in metrics.items():
        print(f"{workload.name} {name} = {value:.6g} {units[name]}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": len(gate_runs),
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": units[name]} for name in units},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
