"""Outside-in tracing of biasaudit's layers for the benchmark.

Nothing under ``src/`` knows about this module.  ``install`` wraps the
public functions listed in ``LAYERS`` and rebinds every name in a loaded
``biasaudit.*`` module that refers to the same function object, so calls made
through ``from .cohort import parse_cohort`` style imports are seen too.
Spans (name, start, end, parent) are kept in memory; ``layer_metrics`` turns
them into per-layer self times and counts.

A layer's self time is its spans' durations minus the time their child spans
cover.  The traced ``cli.main`` call is itself a span, so its self time is
the CLI glue and the self times of all spans under it add up to its wall time.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import itertools
import sys
import threading
import time
from collections import Counter, defaultdict
from contextlib import contextmanager
from dataclasses import asdict, dataclass


@dataclass(frozen=True)
class Span:
    id: int
    name: str
    start: float
    end: float
    parent: int | None


class Tracer:
    """Span and counter store for one traced run."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.counts: Counter = Counter()
        self._ids = itertools.count()
        self._local = threading.local()
        self._lock = threading.Lock()

    @contextmanager
    def span(self, name: str):
        # A span's parent is the innermost span open on the same thread.
        stack = self._local.__dict__.setdefault("stack", [])
        sid = next(self._ids)
        parent = stack[-1] if stack else None
        stack.append(sid)
        start = time.perf_counter()
        try:
            yield
        finally:
            end = time.perf_counter()
            stack.pop()
            self.spans.append(Span(sid, name, start, end, parent))

    def count(self, key: str, amount: float = 1) -> None:
        with self._lock:
            self.counts[key] += amount

    def to_json(self) -> dict:
        return {"spans": [asdict(s) for s in self.spans], "counts": dict(self.counts)}


def _argument(fn, args, kwargs, name: str):
    return inspect.signature(fn).bind(*args, **kwargs).arguments[name]


def _observe_fit(tracer: Tracer, fn, args, kwargs, model) -> None:
    tracer.count("glm.newton_iters", model.iterations)
    tracer.count("glm.fits_not_converged", 0 if model.converged else 1)


def _observe_greedy(tracer: Tracer, fn, args, kwargs, sample) -> None:
    tracer.count("matching.pairs", len(sample.pairs))
    tracer.count("matching.unmatched_treated", sample.unmatched_treated)


def _observe_bootstrap(tracer: Tracer, fn, args, kwargs, results) -> None:
    config = _argument(fn, args, kwargs, "config")
    if results:
        tracer.count("audit.replicates", config.n_bootstrap)
    tracer.count("audit.cells", len(results))
    tracer.count("audit.cells_ok", sum(r.status == "ok" for r in results))


def _observe_matched(tracer: Tracer, fn, args, kwargs, rows) -> None:
    config = _argument(fn, args, kwargs, "config")
    resampled = set()
    for row in rows:
        for cell in row.cells:
            tracer.count("audit.cells")
            tracer.count("audit.cells_ok", cell.status == "ok")
            if cell.result is not None:
                resampled.add((row.attribute, frozenset((row.level, cell.opponent))))
    tracer.count("audit.replicates", len(resampled) * config.n_bootstrap)


# (module, function) -> (layer name, record a span, observer of the result).
# Layer names give the metrics "<layer>_s" (self time) and "<layer>_calls".
# match_contrast is counted but not spanned: its own work is a few index
# loops, which then show in the caller's self time instead of a layer no
# metric reports.
LAYERS = {
    ("biasaudit.cli", "load_run_config"): ("cli.config", True, None),
    ("biasaudit.cohort", "parse_cohort"): ("cohort.parse", True, None),
    ("biasaudit.cohort", "subgroup_partition"): ("cohort.partition", True, None),
    ("biasaudit.cohort", "label_values"): ("cohort.accessor", True, None),
    ("biasaudit.cohort", "score_values"): ("cohort.accessor", True, None),
    ("biasaudit.cohort", "attribute_values"): ("cohort.accessor", True, None),
    ("biasaudit.glm", "encode_design"): ("glm.encode", True, None),
    ("biasaudit.glm", "fit_logistic"): ("glm.fit", True, _observe_fit),
    ("biasaudit.matching", "estimate_propensity"): ("matching.propensity", True, None),
    ("biasaudit.matching", "greedy_match"): ("matching.greedy", True, _observe_greedy),
    ("biasaudit.matching", "match_contrast"): ("matching.match", False, None),
    ("biasaudit.matching", "balance_report"): ("matching.balance", True, None),
    ("biasaudit.matching", "export_pairs"): ("matching.export", True, None),
    ("biasaudit.audit", "bootstrap_audit"): ("audit.bootstrap", True, _observe_bootstrap),
    ("biasaudit.audit", "matched_audit"): ("audit.matched", True, _observe_matched),
    ("biasaudit.audit", "build_comparison"): ("audit.comparison", True, None),
    ("biasaudit.metrics", "calibration_curve"): ("metrics.calibration", True, None),
    ("biasaudit.report", "build_bundle"): ("report.bundle", True, None),
    ("biasaudit.report", "render"): ("report.render", True, None),
}


def _wrap(tracer: Tracer, fn, layer: str, spanned: bool, observe):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        tracer.count(f"{layer}_calls")
        if spanned:
            with tracer.span(layer):
                result = fn(*args, **kwargs)
        else:
            result = fn(*args, **kwargs)
        if observe is not None:
            observe(tracer, fn, args, kwargs, result)
        return result

    return wrapper


def install(tracer: Tracer):
    """Wrap every function in ``LAYERS``; returns a callable that undoes it."""
    wrappers = {}
    for (module, name), (layer, spanned, observe) in LAYERS.items():
        fn = getattr(importlib.import_module(module), name)
        wrappers[id(fn)] = (fn, _wrap(tracer, fn, layer, spanned, observe))
    rebound = []
    for mod_name, mod in list(sys.modules.items()):
        if mod is None or not (mod_name == "biasaudit" or mod_name.startswith("biasaudit.")):
            continue
        for attr, value in list(vars(mod).items()):
            entry = wrappers.get(id(value))
            if entry is not None and entry[0] is value:
                rebound.append((mod, attr, value))
                setattr(mod, attr, entry[1])

    def uninstall() -> None:
        for mod, attr, value in rebound:
            setattr(mod, attr, value)

    return uninstall


# Per-layer metric names and units, in the order BENCHMARK.json lists them.
PER_LAYER_UNITS = {
    "cli.startup_s": "s",
    "cli.config_s": "s",
    "cli.glue_s": "s",
    "cohort.parse_s": "s",
    "cohort.partition_s": "s",
    "cohort.partition_calls": "count",
    "cohort.accessor_s": "s",
    "cohort.accessor_calls": "count",
    "glm.encode_s": "s",
    "glm.fit_s": "s",
    "glm.fit_calls": "count",
    "glm.newton_iters": "count",
    "glm.fits_not_converged": "count",
    "matching.propensity_s": "s",
    "matching.greedy_s": "s",
    "matching.greedy_calls": "count",
    "matching.match_calls": "count",
    "matching.pairs": "count",
    "matching.unmatched_treated": "count",
    "matching.pair_yield": "ratio",
    "matching.balance_s": "s",
    "matching.export_s": "s",
    "audit.bootstrap_s": "s",
    "audit.matched_s": "s",
    "audit.replicates": "count",
    "audit.replicates_per_s": "1/s",
    "audit.cells": "count",
    "audit.cells_ok_frac": "ratio",
    "audit.comparison_s": "s",
    "metrics.calibration_s": "s",
    "report.bundle_s": "s",
    "report.render_s": "s",
    "report.bytes_written": "B",
    "synth.generate_s": "s",
    "synth.write_s": "s",
    "bench.trace_overhead_s": "s",
}


def self_times(spans: list[Span]) -> dict[str, float]:
    """Summed self time per span name."""
    covered: dict[int, float] = defaultdict(float)
    for s in spans:
        if s.parent is not None:
            covered[s.parent] += s.end - s.start
    out: dict[str, float] = defaultdict(float)
    for s in spans:
        out[s.name] += (s.end - s.start) - covered[s.id]
    return dict(out)


def layer_metrics(tracer: Tracer, extra: dict[str, float]) -> dict[str, float]:
    """Every per-layer metric from the tracer's spans and counts.

    ``extra`` supplies the values measured outside the traced call
    (``cli.startup_s``, ``report.bytes_written``, ``bench.trace_overhead_s``).
    The glue is the self time of the ``cli.main`` span.
    """
    selfs = self_times(tracer.spans)
    counts = tracer.counts
    offered = counts["matching.pairs"] + counts["matching.unmatched_treated"]
    loop_s = selfs.get("audit.bootstrap", 0.0) + selfs.get("audit.matched", 0.0)
    derived = {
        "cli.glue_s": selfs.get("cli.main", 0.0),
        "matching.pair_yield": counts["matching.pairs"] / offered if offered else 0.0,
        "audit.replicates_per_s": counts["audit.replicates"] / loop_s if loop_s > 0 else 0.0,
        "audit.cells_ok_frac": counts["audit.cells_ok"] / counts["audit.cells"] if counts["audit.cells"] else 0.0,
        **extra,
    }
    values: dict[str, float] = {}
    for name, unit in PER_LAYER_UNITS.items():
        if name in derived:
            values[name] = derived[name]
        elif unit == "s":
            values[name] = selfs.get(name[:-2], 0.0)
        else:
            values[name] = counts.get(name, 0)
    return values
