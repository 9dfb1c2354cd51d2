"""Report assembly and rendering.

A ReportBundle is a JSON-native snapshot of one audit run: every field is
plain dict/list/scalar data, so ``render`` + ``parse_bundle`` round-trip
exactly and rendered artifacts are byte-identical for identical analyses
(no timestamps, no environment-dependent content, fixed numeric formatting).

Display rounding is half-even at the configured number of decimals, with
negative zero normalized to plain zero so a hair-below-zero diff renders as
"0.0" rather than the alarming-looking "-0.0".  Rounding happens only here;
bundle payloads keep full precision.
"""

from __future__ import annotations

import contextlib
import json
import math
import os
from dataclasses import dataclass, field, fields, is_dataclass
from decimal import ROUND_HALF_EVEN, Decimal

from .audit import STATUS_FAILED, STATUS_INSUFFICIENT, STATUS_OK, STATUS_SKIPPED, ComparisonReport
from .cohort import _csv_fields

_FORMATS = ("json", "csv", "markdown", "svg")


@dataclass(frozen=True)
class ReportBundle:
    metadata: dict
    subgroup: list = field(default_factory=list)
    matched: list = field(default_factory=list)
    discrepancy: list = field(default_factory=list)
    balance: list = field(default_factory=list)
    calibration: dict = field(default_factory=dict)
    comparison: dict | None = None
    schema_version: int = 1


def round_half_even(x: float, places: int = 2) -> float:
    """Round to ``places`` decimals, ties to even, -0.0 normalized to 0.0."""
    q = Decimal(1).scaleb(-places)
    return float(Decimal(repr(float(x))).quantize(q, rounding=ROUND_HALF_EVEN)) + 0.0


def fmt_rounded(x: float | None, places: int = 2) -> str:
    """Compact decimal string of the rounded value; empty string for None."""
    if x is None:
        return ""
    return repr(round_half_even(x, places))


def safe_name(text: str) -> str:
    """``text`` with every character but letters, digits and ``-_.`` turned
    into ``-``: a model or level name fit for a file name."""
    return "".join(ch if ch.isalnum() or ch in "-_." else "-" for ch in text)


def _md_cell(text) -> str:
    """A name fit for one markdown line or table cell: backslashes and ``|``
    escaped, line breaks turned into spaces."""
    return str(text).replace("\\", "\\\\").replace("|", "\\|").replace("\r", " ").replace("\n", " ")


def _fmt_stat(x: float | None) -> str:
    if x is None:
        return ""
    return format(x, ".4g")


def _json_native(value):
    """``value`` as JSON data: a dataclass as a dict of its fields in
    declaration order, a tuple or list as a list, a dict key by key, and a
    nan or infinite float as None."""
    if is_dataclass(value):
        return {f.name: _json_native(getattr(value, f.name)) for f in fields(value)}
    if isinstance(value, (list, tuple)):
        return [_json_native(v) for v in value]
    if isinstance(value, dict):
        return {k: _json_native(v) for k, v in value.items()}
    if isinstance(value, float) and not math.isfinite(value):
        return None
    return value


def build_bundle(
    metadata: dict,
    subgroup=(),
    matched=(),
    discrepancy=(),
    balance=(),
    calibration: dict | None = None,
    comparison: ComparisonReport | None = None,
) -> ReportBundle:
    """Convert analysis results into a JSON-native ReportBundle.

    Each result list or tuple goes through ``_json_native``, so a row holds
    its dataclass's fields in declaration order.  ``balance`` rows are
    pre-assembled dicts (the matching context lives with the caller);
    ``calibration`` maps model name to CalibrationCurve.  The comparison
    keeps its model names, ``overall`` and ``deltas``.
    """
    return ReportBundle(
        metadata=dict(metadata),
        subgroup=_json_native(subgroup),
        matched=_json_native(matched),
        discrepancy=_json_native(discrepancy),
        balance=_json_native(balance),
        calibration=_json_native(calibration or {}),
        comparison=None if comparison is None else {
            "model_a": comparison.model_a,
            "model_b": comparison.model_b,
            "overall": _json_native(comparison.overall),
            "deltas": _json_native(comparison.deltas),
        },
    )


def bundle_to_json(bundle: ReportBundle) -> str:
    """The bundle's fields in declaration order, led by ``schema_version``."""
    doc = {"schema_version": bundle.schema_version, **vars(bundle)}
    return json.dumps(doc, indent=2, allow_nan=False) + "\n"


def parse_bundle(text: str) -> ReportBundle:
    doc = json.loads(text)
    return ReportBundle(
        metadata=doc["metadata"],
        subgroup=doc.get("subgroup", []),
        matched=doc.get("matched", []),
        discrepancy=doc.get("discrepancy", []),
        balance=doc.get("balance", []),
        calibration=doc.get("calibration", {}),
        comparison=doc.get("comparison"),
        schema_version=doc.get("schema_version", 1),
    )


def _star(row: dict) -> str:
    return "*" if row.get("significant") else ""


def _cell_text(row: dict, places: int) -> str:
    """A subgroup cell's rounded diff, starred when significant, or its status."""
    if row["status"] == STATUS_OK:
        return fmt_rounded(row["mean_diff"], places) + _star(row)
    return row["status"]


_STATUS_WORDS = {STATUS_INSUFFICIENT: "ins", STATUS_SKIPPED: "skip", STATUS_FAILED: "fail"}


def _matched_cell_text(cells: list[dict], metric: str, places: int) -> str:
    """Render one level's matched contrasts for one metric.

    One opponent shows bare; several show bracketed in opponent order, e.g.
    "[0.01*, 0.0]".  Non-ok contrasts render as their status keyword.
    """
    parts = []
    for c in cells:
        res = c.get("result")
        if res is not None and res.get("metric") != metric:
            continue
        if c["status"] == STATUS_OK and res is not None:
            parts.append(fmt_rounded(res["mean_diff"], places) + _star(res))
        elif c["status"] in _STATUS_WORDS:
            parts.append(_STATUS_WORDS[c["status"]])
    if not parts:
        return ""
    if len(parts) == 1:
        return parts[0]
    return "[" + ", ".join(parts) + "]"


def _md_table(header: list[str], rows) -> list[str]:
    """A markdown table's lines from already-formatted cells: the header
    row, the separator, one line per row, then a blank line."""
    return ["| " + " | ".join(header) + " |", "|" + "---|" * len(header),
            *("| " + " | ".join(cells) + " |" for cells in rows), ""]


def _csv(header: list[str], rows) -> str:
    """``header`` and ``rows`` as CSV text, each row quoted by the cohort
    file's rule (``cohort._csv_fields``); None is an empty field."""
    return "".join(",".join(_csv_fields(["" if v is None else str(v) for v in row])) + "\n"
                   for row in (header, *rows))


def _flag(value) -> str:
    return "" if value is None else str(bool(value)).lower()


def _subgroup_csv(bundle: ReportBundle, places: int) -> str:
    return _csv(
        ["model", "attribute", "level", "metric", "mean_diff", "sd", "t_stat",
         "p_value", "significant", "n_effective", "status"],
        ([r["model"], r["attribute"], r["level"], r["metric"],
          fmt_rounded(r["mean_diff"], places), fmt_rounded(r["sd"], 4),
          _fmt_stat(r["t_stat"]), _fmt_stat(r["p_value"]), _flag(r["significant"]),
          r["n_effective"], r["status"]] for r in bundle.subgroup),
    )


def _matched_csv(bundle: ReportBundle, places: int) -> str:
    return _csv(
        ["model", "attribute", "level", "opponent", "metric", "mean_diff", "sd",
         "t_stat", "p_value", "significant", "n_effective", "status", "detail"],
        ([row["model"], row["attribute"], row["level"], c["opponent"], res.get("metric", ""),
          fmt_rounded(res.get("mean_diff"), places), fmt_rounded(res.get("sd"), 4),
          _fmt_stat(res.get("t_stat")), _fmt_stat(res.get("p_value")), _flag(res.get("significant")),
          res.get("n_effective", ""), c["status"], c["detail"]]
         for row in bundle.matched for c in row["cells"] for res in [c["result"] or {}]),
    )


def _discrepancy_csv(bundle: ReportBundle, places: int) -> str:
    return _csv(
        ["model", "attribute", "metric", "matching", "gap", "n_levels"],
        ([r["model"], r["attribute"], r["metric"], r["matching"],
          fmt_rounded(r["gap"], places), r["n_levels"]] for r in bundle.discrepancy),
    )


def _balance_csv(bundle: ReportBundle) -> str:
    return _csv(
        ["model", "attribute", "treated_level", "control_level", "covariate",
         "smd_before", "smd_after", "matched_n", "passes_min_n", "status", "detail"],
        ([r.get("model", ""), r["attribute"], r["treated_level"], r["control_level"],
          c.get("name", ""), fmt_rounded(c.get("smd_before"), 4),
          fmt_rounded(c.get("smd_after"), 4), r.get("matched_n", ""),
          str(bool(r["passes_min_n"])).lower() if "passes_min_n" in r else "",
          r.get("status", ""), r.get("detail", "")]
         for r in bundle.balance for c in r.get("covariates") or [{}]),
    )


def _calibration_csv(bundle: ReportBundle) -> str:
    return _csv(
        ["model", "bin", "mean_score", "positive_fraction", "count"],
        ([model, i, _fmt_stat(b["mean_score"]), _fmt_stat(b["positive_fraction"]), b["count"]]
         for model, entry in bundle.calibration.items() for i, b in enumerate(entry["bins"])),
    )


def _comparison_csv(bundle: ReportBundle, places: int) -> str:
    return _csv(
        ["attribute", "level", "metric", "phase", "opponent", "delta"],
        ([d["attribute"], d["level"], d["metric"], d["phase"],
          d["opponent"] or "", fmt_rounded(d["delta"], places)] for d in bundle.comparison["deltas"]),
    )


def _markdown(bundle: ReportBundle, places: int) -> str:
    lines: list[str] = ["# Subgroup bias audit", ""]
    meta = bundle.metadata
    for key in sorted(meta):
        value = meta[key]
        if key == "skipped_attributes":  # one nested bullet per skip
            lines.append(f"- {key}: ")
            lines += (f"  - {_md_cell(s['model'])}: {_md_cell(s['attribute'])} ({_md_cell(s['reason'])})"
                      for s in value)
            continue
        if isinstance(value, (list, tuple)):
            value = ", ".join(str(v) for v in value)
        lines.append(f"- {key}: {_md_cell(value)}")
    lines.append("")

    metrics = list(dict.fromkeys(r["metric"] for r in bundle.subgroup))
    subgroup_by_key = {(r["model"], r["attribute"], r["level"], r["metric"]): r for r in bundle.subgroup}
    matched_by_key: dict[tuple[str, str, str], list[dict]] = {}
    for row in bundle.matched:
        matched_by_key.setdefault((row["model"], row["attribute"], row["level"]), []).extend(row["cells"])
    groups_by_model: dict[str, dict[tuple[str, str], None]] = {}
    for model, attr, level, _ in subgroup_by_key:
        groups_by_model.setdefault(model, {})[attr, level] = None

    for model, groups in groups_by_model.items():
        has_matched = any((model, *group) in matched_by_key for group in groups)
        header = ["Group"]
        for m in metrics:
            header += [m, f"{m} (matched)"] if has_matched else [m]
        rows = []
        for attr, level in groups:
            cells = [_md_cell(f"{attr} = {level}")]
            for m in metrics:
                row = subgroup_by_key.get((model, attr, level, m))
                cells.append("" if row is None else _cell_text(row, places))
                if has_matched:
                    cells.append(_matched_cell_text(matched_by_key.get((model, attr, level), []), m, places))
            rows.append(cells)
        lines += [f"## Subgroup audit: {_md_cell(model)}", "", *_md_table(header, rows)]

    if bundle.discrepancy:
        lines += ["## Max discrepancy across subgroups", "", *_md_table(
            ["Model", "Attribute", "Metric", "Matching", "Gap", "Levels"],
            ([_md_cell(r["model"]), _md_cell(r["attribute"]), r["metric"], r["matching"],
              fmt_rounded(r["gap"], places), str(r["n_levels"])] for r in bundle.discrepancy))]

    if bundle.balance:
        rows = []
        for r in bundle.balance:
            model = _md_cell(r.get("model", ""))
            contrast = _md_cell(f"{r['attribute']}: {r['treated_level']} vs {r['control_level']}")
            if r.get("status") and r["status"] != STATUS_OK:
                # The status spans both SMD cells, which stay single-spaced.
                rows.append([model, contrast, f"({r['status']}: {_md_cell(r.get('detail', ''))}) | |"])
                continue
            rows += ([model, contrast, _md_cell(c["name"]), fmt_rounded(c["smd_before"], 4),
                      fmt_rounded(c["smd_after"], 4)] for c in r.get("covariates", []))
        lines += ["## Covariate balance (matched contrasts)", "", *_md_table(
            ["Model", "Contrast", "Covariate", "SMD before", "SMD after"], rows)]

    if bundle.calibration:
        names = [safe_name(m) for m in bundle.calibration]
        lines += ["## Calibration", "", *(f"![calibration {n}](calibration_{n}.svg)" for n in names), ""]

    if bundle.comparison is not None:
        cmp = bundle.comparison
        metric_names = [k for k in next(iter(cmp["overall"].values())) if k not in ("n", "threshold")]
        overall = _md_table(["Model", "n", *metric_names],
                            ([_md_cell(m), str(entry["n"]), *(_fmt_stat(entry[name]) for name in metric_names)]
                             for m, entry in cmp["overall"].items()))
        deltas = _md_table(["Attribute", "Level", "Metric", "Phase", "Opponent", "Delta"],
                           ([_md_cell(d["attribute"]), _md_cell(d["level"]), d["metric"], d["phase"],
                             _md_cell(d["opponent"] or ""), fmt_rounded(d["delta"], places)]
                            for d in cmp["deltas"]))
        lines += [f"## Model comparison: {_md_cell(cmp['model_b'])} minus {_md_cell(cmp['model_a'])}", "",
                  "### Overall performance", "", *overall, "### Cell deltas", "", *deltas]

    return "\n".join(lines)


def _svg_calibration(model: str, entry: dict) -> str:
    """Minimal reliability plot: unit square, diagonal, one dot per bin."""
    size, margin = 360, 40
    span = size - 2 * margin

    def sx(v: float) -> str:
        return format(margin + v * span, ".2f")

    def sy(v: float) -> str:
        return format(size - margin - v * span, ".2f")

    # XML text escapes (ampersand first); XML parsers read a raw carriage
    # return back as a line feed, so it becomes a character reference.
    title = model.replace("&", "&amp;").replace(">", "&gt;").replace("<", "&lt;").replace("\r", "&#13;")
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{size}" height="{size}" '
        f'viewBox="0 0 {size} {size}">',
        f'<rect x="{margin}" y="{margin}" width="{span}" height="{span}" '
        'fill="none" stroke="#333" stroke-width="1"/>',
        f'<line x1="{sx(0)}" y1="{sy(0)}" x2="{sx(1)}" y2="{sy(1)}" '
        'stroke="#999" stroke-dasharray="4 3" stroke-width="1"/>',
        f'<text x="{size // 2}" y="20" text-anchor="middle" font-size="13">'
        f"calibration: {title}</text>",
        f'<text x="{size // 2}" y="{size - 8}" text-anchor="middle" font-size="11">mean score</text>',
        f'<text x="12" y="{size // 2}" text-anchor="middle" font-size="11" '
        f'transform="rotate(-90 12 {size // 2})">positive fraction</text>',
    ]
    for tick in (0.0, 0.5, 1.0):
        parts.append(
            f'<text x="{sx(tick)}" y="{size - margin + 14}" text-anchor="middle" '
            f'font-size="10">{tick:g}</text>'
        )
        parts.append(
            f'<text x="{margin - 6}" y="{sy(tick)}" text-anchor="end" '
            f'font-size="10">{tick:g}</text>'
        )
    for b in entry["bins"]:
        parts.append(
            f'<circle cx="{sx(b["mean_score"])}" cy="{sy(b["positive_fraction"])}" '
            'r="3.5" fill="#1f6f8b"/>'
        )
    parts.append("</svg>")
    return "\n".join(parts) + "\n"


def render(bundle: ReportBundle, out_dir, formats=_FORMATS) -> list[str]:
    """Write the bundle to ``out_dir`` in the requested formats.

    Returns the paths written.  Formats: "json" (full bundle), "csv" (one
    file per table), "markdown" (single human-readable report), "svg" (one
    calibration plot per model).  Unknown format names raise ValueError;
    filesystem problems propagate as OSError.  Every file's text is formatted
    before any file is written; each file is then written under a temporary
    name in ``out_dir``, and only when all are written are they renamed over
    their final names.  A failure before the renames changes nothing in
    ``out_dir`` and leaves no temporary file behind.
    """
    unknown = [f for f in formats if f not in _FORMATS]
    if unknown:
        raise ValueError(f"unknown report format(s): {', '.join(unknown)}")
    places = int(bundle.metadata.get("rounding", 2))
    texts: list[tuple[str, str]] = []
    if "json" in formats:
        texts.append(("report.json", bundle_to_json(bundle)))
    if "csv" in formats:
        texts.append(("subgroup.csv", _subgroup_csv(bundle, places)))
        if bundle.matched:
            texts.append(("matched.csv", _matched_csv(bundle, places)))
        if bundle.discrepancy:
            texts.append(("discrepancy.csv", _discrepancy_csv(bundle, places)))
        if bundle.balance:
            texts.append(("balance.csv", _balance_csv(bundle)))
        if bundle.calibration:
            texts.append(("calibration.csv", _calibration_csv(bundle)))
        if bundle.comparison is not None:
            texts.append(("comparison.csv", _comparison_csv(bundle, places)))
    if "markdown" in formats:
        texts.append(("report.md", _markdown(bundle, places)))
    if "svg" in formats:
        for model, entry in bundle.calibration.items():
            texts.append((f"calibration_{safe_name(model)}.svg", _svg_calibration(model, entry)))

    out = os.fspath(out_dir)
    os.makedirs(out, exist_ok=True)
    paths = [os.path.join(out, name) for name, _ in texts]
    temps = [os.path.join(out, f".{name}.tmp") for name, _ in texts]
    try:
        for tmp, (_, text) in zip(temps, texts):
            with open(tmp, "w", encoding="utf-8", newline="") as fh:
                fh.write(text)
        for tmp, path in zip(temps, paths):
            os.replace(tmp, path)
    except BaseException:
        for tmp in temps:
            with contextlib.suppress(FileNotFoundError):
                os.remove(tmp)
        raise
    return paths
