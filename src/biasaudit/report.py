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

from .audit import STATUS_OK, ComparisonReport
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
    doc = {
        "schema_version": bundle.schema_version,
        "metadata": bundle.metadata,
        "subgroup": bundle.subgroup,
        "matched": bundle.matched,
        "discrepancy": bundle.discrepancy,
        "balance": bundle.balance,
        "calibration": bundle.calibration,
        "comparison": bundle.comparison,
    }
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
        elif c["status"] == "insufficient":
            parts.append("ins")
        elif c["status"] == "skipped":
            parts.append("skip")
        elif c["status"] == "failed":
            parts.append("fail")
    if not parts:
        return ""
    if len(parts) == 1:
        return parts[0]
    return "[" + ", ".join(parts) + "]"


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
        if isinstance(value, (list, tuple)):
            value = ", ".join(str(v) for v in value)
        lines.append(f"- {key}: {_md_cell(value)}")
    lines.append("")

    models = list(dict.fromkeys(r["model"] for r in bundle.subgroup))
    metrics = list(dict.fromkeys(r["metric"] for r in bundle.subgroup))

    matched_by_key: dict[tuple[str, str, str], list[dict]] = {}
    for row in bundle.matched:
        matched_by_key.setdefault((row["model"], row["attribute"], row["level"]), []).extend(row["cells"])

    for model in models:
        rows = [r for r in bundle.subgroup if r["model"] == model]
        lines.append(f"## Subgroup audit: {_md_cell(model)}")
        lines.append("")
        has_matched = any((model, r["attribute"], r["level"]) in matched_by_key for r in rows)
        header = ["Group"]
        for m in metrics:
            header.append(m)
            if has_matched:
                header.append(f"{m} (matched)")
        lines.append("| " + " | ".join(header) + " |")
        lines.append("|" + "---|" * len(header))
        for attr, level in dict.fromkeys((r["attribute"], r["level"]) for r in rows):
            cells = [_md_cell(f"{attr} = {level}")]
            for m in metrics:
                cell = ""
                for r in rows:
                    if r["attribute"] == attr and r["level"] == level and r["metric"] == m:
                        if r["status"] == STATUS_OK:
                            cell = fmt_rounded(r["mean_diff"], places) + _star(r)
                        else:
                            cell = r["status"]
                cells.append(cell)
                if has_matched:
                    mcells = matched_by_key.get((model, attr, level), [])
                    cells.append(_matched_cell_text(mcells, m, places))
            lines.append("| " + " | ".join(cells) + " |")
        lines.append("")

    if bundle.discrepancy:
        lines.append("## Max discrepancy across subgroups")
        lines.append("")
        lines.append("| Model | Attribute | Metric | Matching | Gap | Levels |")
        lines.append("|---|---|---|---|---|---|")
        for r in bundle.discrepancy:
            lines.append(
                f"| {_md_cell(r['model'])} | {_md_cell(r['attribute'])} | {r['metric']} | {r['matching']} "
                f"| {fmt_rounded(r['gap'], places)} | {r['n_levels']} |"
            )
        lines.append("")

    if bundle.balance:
        lines.append("## Covariate balance (matched contrasts)")
        lines.append("")
        lines.append("| Model | Contrast | Covariate | SMD before | SMD after |")
        lines.append("|---|---|---|---|---|")
        for r in bundle.balance:
            model = _md_cell(r.get("model", ""))
            contrast = _md_cell(f"{r['attribute']}: {r['treated_level']} vs {r['control_level']}")
            if r.get("status") and r["status"] != STATUS_OK:
                detail = _md_cell(r.get("detail", ""))
                lines.append(f"| {model} | {contrast} | ({r['status']}: {detail}) | | |")
                continue
            for c in r.get("covariates", []):
                lines.append(
                    f"| {model} | {contrast} | {_md_cell(c['name'])} "
                    f"| {fmt_rounded(c['smd_before'], 4)} | {fmt_rounded(c['smd_after'], 4)} |"
                )
        lines.append("")

    if bundle.calibration:
        lines.append("## Calibration")
        lines.append("")
        for model in bundle.calibration:
            lines.append(f"![calibration {safe_name(model)}](calibration_{safe_name(model)}.svg)")
        lines.append("")

    if bundle.comparison is not None:
        cmp = bundle.comparison
        lines.append(f"## Model comparison: {_md_cell(cmp['model_b'])} minus {_md_cell(cmp['model_a'])}")
        lines.append("")
        lines.append("### Overall performance")
        lines.append("")
        metric_names = [k for k in next(iter(cmp["overall"].values())) if k not in ("n", "threshold")]
        lines.append("| Model | n | " + " | ".join(metric_names) + " |")
        lines.append("|---|---|" + "---|" * len(metric_names))
        for m, entry in cmp["overall"].items():
            cells = [_md_cell(m), str(entry["n"])]
            cells += [_fmt_stat(entry[name]) for name in metric_names]
            lines.append("| " + " | ".join(cells) + " |")
        lines.append("")
        lines.append("### Cell deltas")
        lines.append("")
        lines.append("| Attribute | Level | Metric | Phase | Opponent | Delta |")
        lines.append("|---|---|---|---|---|---|")
        for d in cmp["deltas"]:
            lines.append(
                f"| {_md_cell(d['attribute'])} | {_md_cell(d['level'])} | {d['metric']} | {d['phase']} "
                f"| {_md_cell(d['opponent'] or '')} | {fmt_rounded(d['delta'], places)} |"
            )
        lines.append("")

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
