"""Rendering: rounding rules, bundle round-trips, and output formats."""

import csv
import json
import math

import pytest
from hypothesis import given, strategies as st
from xml.sax.saxutils import escape

from biasaudit.audit import (
    STATUS_INSUFFICIENT,
    STATUS_OK,
    STATUS_SKIPPED,
    AuditConfig,
    DiscrepancySummary,
    MatchedAuditResult,
    MatchedCell,
    SubgroupAuditResult,
    build_comparison,
)
from biasaudit import report
from biasaudit.metrics import calibration_curve
from biasaudit.report import (
    ReportBundle,
    build_bundle,
    bundle_to_json,
    fmt_rounded,
    parse_bundle,
    render,
    round_half_even,
)

from helpers import build_cohort


def subgroup_cell(level, mean_diff, significant=False, metric="AUROC", model="m1", status=STATUS_OK):
    if status != STATUS_OK:
        return SubgroupAuditResult(
            model=model, attribute="race", level=level, metric=metric,
            mean_diff=None, sd=None, t_stat=None, p_value=None,
            significant=None, n_effective=0, status=status,
        )
    return SubgroupAuditResult(
        model=model, attribute="race", level=level, metric=metric,
        mean_diff=mean_diff, sd=0.008, t_stat=mean_diff / 0.008,
        p_value=0.01 if significant else 0.4, significant=significant,
        n_effective=150, status=STATUS_OK,
    )


def matched_cell(level, opponent, mean_diff, significant=False, metric="AUROC", model="m1"):
    return MatchedCell(
        opponent=opponent,
        status=STATUS_OK,
        result=SubgroupAuditResult(
            model=model, attribute="race", level=level, metric=metric,
            mean_diff=mean_diff, sd=0.01, t_stat=mean_diff / 0.01,
            p_value=0.02 if significant else 0.6, significant=significant,
            n_effective=150, status=STATUS_OK,
        ),
        detail="60 pairs",
    )


class TestRounding:
    @pytest.mark.parametrize(
        "value, places, expected",
        [
            (0.015, 2, 0.02),   # tie: 2 is even
            (0.025, 2, 0.02),
            (0.125, 2, 0.12),
            (0.005, 2, 0.0),
            (2.5, 0, 2.0),
            (3.5, 0, 4.0),
            (0.0149, 2, 0.01),
            (1.0 / 3.0, 2, 0.33),
        ],
    )
    def test_half_even(self, value, places, expected):
        assert round_half_even(value, places) == expected

    def test_ties_judged_on_decimal_repr_not_binary_expansion(self):
        # 2.675 is stored as 2.67499...; rounding its shortest decimal form
        # keeps the intuitive tie behavior instead of dropping to 2.67.
        assert round_half_even(2.675, 2) == 2.68

    def test_negative_zero_is_normalized(self):
        result = round_half_even(-0.004, 2)
        assert result == 0.0
        assert math.copysign(1.0, result) == 1.0
        assert fmt_rounded(-0.004, 2) == "0.0"
        assert round_half_even(-0.0, 2) == 0.0

    def test_fmt_rounded_strings(self):
        assert fmt_rounded(None) == ""
        assert fmt_rounded(0.1 + 0.2, 1) == "0.3"
        assert fmt_rounded(-0.049999, 2) == "-0.05"
        assert fmt_rounded(0.012, 2) == "0.01"
        assert fmt_rounded(1.0, 2) == "1.0"


class TestBundleRoundTrip:
    def representative_bundle(self):
        subgroup = [
            subgroup_cell("Black", -0.021, significant=True),
            subgroup_cell("White", 0.021),
            subgroup_cell("Other", None, status=STATUS_INSUFFICIENT),
        ]
        matched = [
            MatchedAuditResult(
                model="m1", attribute="race", level="Black",
                cells=(
                    matched_cell("Black", "White", 0.012, significant=True),
                    matched_cell("Black", "Other", -0.004),
                ),
            ),
            MatchedAuditResult(
                model="m1", attribute="race", level="White",
                cells=(
                    MatchedCell(opponent="Other", status=STATUS_SKIPPED,
                                detail="12 pairs (24 records) below min_matched_n=100"),
                ),
            ),
        ]
        discrepancy = [
            DiscrepancySummary(model="m1", attribute="race", metric="AUROC",
                               matching="before", gap=0.042, n_levels=2),
        ]
        balance = [
            {
                "model": "m1", "attribute": "race", "treated_level": "Black",
                "control_level": "White", "matched_n": 120, "passes_min_n": True,
                "status": "ok", "detail": "",
                "covariates": [
                    {"name": "age", "smd_before": 0.31, "smd_after": 0.04},
                    {"name": "sofa", "smd_before": 0.18, "smd_after": 0.06},
                ],
            }
        ]
        curve = calibration_curve(
            [0, 1, 0, 1, 1, 0, 1, 0], [0.1, 0.9, 0.3, 0.7, 0.8, 0.2, 0.6, 0.4], n_bins=4
        )
        return build_bundle(
            metadata={"cohort": "demo.csv", "seed": 7, "rounding": 2,
                      "metrics": ["AUROC"], "n_bootstrap": 150},
            subgroup=subgroup,
            matched=matched,
            discrepancy=discrepancy,
            balance=balance,
            calibration={"m1": curve},
        )

    def test_json_round_trip_is_exact(self):
        bundle = self.representative_bundle()
        assert parse_bundle(bundle_to_json(bundle)) == bundle

    def test_json_carries_schema_version(self):
        doc = json.loads(bundle_to_json(self.representative_bundle()))
        assert doc["schema_version"] == 1

    def test_infinite_statistics_become_null(self):
        degenerate = SubgroupAuditResult(
            model="m1", attribute="race", level="x", metric="AUROC",
            mean_diff=0.25, sd=0.0, t_stat=math.inf, p_value=0.0,
            significant=True, n_effective=150, status=STATUS_OK,
        )
        bundle = build_bundle(metadata={"rounding": 2}, subgroup=[degenerate])
        text = bundle_to_json(bundle)  # must not raise on allow_nan=False
        row = json.loads(text)["subgroup"][0]
        assert row["t_stat"] is None
        assert row["p_value"] == 0.0
        assert row["significant"] is True

    def test_bundle_json_ends_with_newline(self):
        assert bundle_to_json(self.representative_bundle()).endswith("\n")


class TestMarkdown:
    def render_markdown(self, bundle, tmp_path):
        render(bundle, tmp_path, formats=("markdown",))
        return (tmp_path / "report.md").read_text()

    def test_multi_contrast_cell_brackets_in_opponent_order(self, tmp_path):
        bundle = TestBundleRoundTrip().representative_bundle()
        text = self.render_markdown(bundle, tmp_path)
        assert "[0.01*, 0.0]" in text

    def test_star_marks_only_significant_cells(self, tmp_path):
        bundle = TestBundleRoundTrip().representative_bundle()
        text = self.render_markdown(bundle, tmp_path)
        assert "-0.02*" in text   # significant subgroup cell
        assert "0.02 " in text or "| 0.02" in text  # non-significant mirror, no star

    def test_non_ok_statuses_render_as_words(self, tmp_path):
        bundle = TestBundleRoundTrip().representative_bundle()
        text = self.render_markdown(bundle, tmp_path)
        assert "insufficient" in text
        assert "skip" in text

    def test_discrepancy_and_balance_sections(self, tmp_path):
        bundle = TestBundleRoundTrip().representative_bundle()
        text = self.render_markdown(bundle, tmp_path)
        assert "## Max discrepancy across subgroups" in text
        assert "| m1 | race | AUROC | before | 0.04 | 2 |" in text
        assert "## Covariate balance (matched contrasts)" in text
        assert "| m1 | race: Black vs White | age | 0.31 | 0.04 |" in text

    def test_names_with_line_breaks_pipes_and_backslashes_stay_in_their_cell(self, tmp_path):
        # A quoted csv level may hold any of these; each row stays one line.
        bundle = build_bundle(metadata={"rounding": 2, "models": ["m\n1"]},
                              subgroup=[subgroup_cell("A\r\n| in\\|jected", 0.01), subgroup_cell("B", -0.01)])
        lines = self.render_markdown(bundle, tmp_path).splitlines()
        assert "- models: m 1" in lines
        assert "| race = A  \\| in\\\\\\|jected | 0.01 |" in lines

    def test_metadata_listed_in_sorted_order(self, tmp_path):
        bundle = TestBundleRoundTrip().representative_bundle()
        text = self.render_markdown(bundle, tmp_path)
        lines = [l for l in text.splitlines() if l.startswith("- ")]
        keys = [l[2:].split(":")[0] for l in lines]
        assert keys == sorted(keys)
        assert "- metrics: AUROC" in lines

    def test_comparison_section(self, tmp_path):
        cohort = build_cohort(
            labels=[0, 1, 0, 1],
            scores={"m1": [0.2, 0.8, 0.3, 0.7], "m2": [0.2, 0.9, 0.3, 0.7]},
        )
        config = AuditConfig(metrics=("AUROC",), n_bootstrap=5, min_group_size=1)
        sub_a = [subgroup_cell("a", 0.01, model="m1"), subgroup_cell("b", -0.01, model="m1")]
        sub_b = [subgroup_cell("a", 0.03, model="m2"), subgroup_cell("b", -0.03, model="m2")]
        comparison = build_comparison(cohort, "m1", "m2", config, sub_a, sub_b)
        bundle = build_bundle(
            metadata={"rounding": 2}, subgroup=sub_a + sub_b, comparison=comparison
        )
        text = self.render_markdown(bundle, tmp_path)
        assert "## Model comparison: m2 minus m1" in text
        assert "### Overall performance" in text
        assert "### Cell deltas" in text
        assert "| race | a | AUROC | before |  | 0.02 |" in text


class TestCsv:
    def test_csv_numbers_match_markdown(self, tmp_path):
        bundle = TestBundleRoundTrip().representative_bundle()
        render(bundle, tmp_path, formats=("csv", "markdown"))
        text = (tmp_path / "report.md").read_text()
        with open(tmp_path / "subgroup.csv") as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 3
        for row in rows:
            if row["status"] != STATUS_OK:
                assert row["mean_diff"] == ""
                continue
            shown = row["mean_diff"] + ("*" if row["significant"] == "true" else "")
            assert shown in text

    def test_matched_csv_has_detail_column(self, tmp_path):
        bundle = TestBundleRoundTrip().representative_bundle()
        render(bundle, tmp_path, formats=("csv",))
        with open(tmp_path / "matched.csv") as fh:
            rows = list(csv.DictReader(fh))
        by_status = {r["status"] for r in rows}
        assert by_status == {"ok", "skipped"}
        skipped = [r for r in rows if r["status"] == "skipped"][0]
        assert "below min_matched_n=100" in skipped["detail"]
        assert skipped["mean_diff"] == ""

    def test_empty_sections_write_no_files(self, tmp_path):
        bundle = build_bundle(metadata={"rounding": 2}, subgroup=[subgroup_cell("a", 0.01)])
        written = render(bundle, tmp_path, formats=("csv",))
        names = {p.split("/")[-1] for p in written}
        assert names == {"subgroup.csv"}
        assert not (tmp_path / "matched.csv").exists()

    def test_comparison_csv(self, tmp_path):
        cohort = build_cohort(labels=[0, 1], scores={"m1": [0.2, 0.8], "m2": [0.3, 0.9]})
        config = AuditConfig(metrics=("AUROC",), n_bootstrap=5, min_group_size=1)
        sub_a = [subgroup_cell("a", 0.01, model="m1"), subgroup_cell("b", -0.01, model="m1")]
        sub_b = [subgroup_cell("a", 0.02, model="m2"), subgroup_cell("b", -0.02, model="m2")]
        comparison = build_comparison(cohort, "m1", "m2", config, sub_a, sub_b)
        bundle = build_bundle(metadata={"rounding": 2}, comparison=comparison)
        render(bundle, tmp_path, formats=("csv",))
        with open(tmp_path / "comparison.csv") as fh:
            rows = list(csv.DictReader(fh))
        assert [r["delta"] for r in rows] == ["0.01", "-0.01"]


SVG_ENTRY = TestBundleRoundTrip().representative_bundle().calibration["m1"]


class TestRender:
    def test_unknown_format_rejected(self, tmp_path):
        bundle = build_bundle(metadata={})
        with pytest.raises(ValueError, match="unknown report format"):
            render(bundle, tmp_path, formats=("json", "pdf"))

    def test_all_formats_write_expected_files(self, tmp_path):
        bundle = TestBundleRoundTrip().representative_bundle()
        written = render(bundle, tmp_path)
        names = sorted(p.split("/")[-1] for p in written)
        assert names == [
            "balance.csv",
            "calibration.csv",
            "calibration_m1.svg",
            "discrepancy.csv",
            "matched.csv",
            "report.json",
            "report.md",
            "subgroup.csv",
        ]

    def test_rendering_is_byte_deterministic(self, tmp_path):
        bundle = TestBundleRoundTrip().representative_bundle()
        dir_a = tmp_path / "a"
        dir_b = tmp_path / "b"
        paths_a = render(bundle, dir_a)
        paths_b = render(bundle, dir_b)
        for pa, pb in zip(paths_a, paths_b):
            assert open(pa, "rb").read() == open(pb, "rb").read()

    def test_svg_plots_one_dot_per_bin(self, tmp_path):
        bundle = TestBundleRoundTrip().representative_bundle()
        render(bundle, tmp_path, formats=("svg",))
        svg = (tmp_path / "calibration_m1.svg").read_text()
        n_bins_with_data = len(bundle.calibration["m1"]["bins"])
        assert svg.count("<circle") == n_bins_with_data
        assert "calibration: m1" in svg
        assert svg.startswith("<svg ")

    @given(st.text())
    def test_svg_title_escaped_like_saxutils(self, name):
        # The title keeps the bytes of saxutils' escape, with a carriage
        # return written as a character reference.
        svg = report._svg_calibration(name, SVG_ENTRY)
        title = escape(name, {"\r": "&#13;"})
        assert f">calibration: {title}</text>" in svg

    def test_write_failure_raises_oserror(self, tmp_path):
        blocker = tmp_path / "not_a_dir"
        blocker.write_text("occupied")
        bundle = build_bundle(metadata={})
        with pytest.raises(OSError):
            render(bundle, blocker)

    @pytest.mark.parametrize("failure", ["markdown", "third temp write"])
    def test_failed_render_leaves_previous_report_untouched(self, tmp_path, monkeypatch, failure):
        first = TestBundleRoundTrip().representative_bundle()
        render(first, tmp_path)
        before = {p.name: p.read_bytes() for p in tmp_path.iterdir()}

        if failure == "markdown":
            def broken_markdown(bundle, places):
                raise RuntimeError("render failed")

            monkeypatch.setattr(report, "_markdown", broken_markdown)
            error = RuntimeError
        else:
            calls = []

            def failing_open(*args, **kwargs):
                calls.append(args[0])
                if len(calls) == 3:
                    raise OSError("render failed")
                return open(*args, **kwargs)

            monkeypatch.setattr(report, "open", failing_open, raising=False)
            error = OSError
        # Three files: report.json, subgroup.csv and report.md.
        second = build_bundle(metadata={"rounding": 3}, subgroup=[subgroup_cell("a", 0.5)])
        with pytest.raises(error, match="render failed"):
            render(second, tmp_path)
        assert {p.name: p.read_bytes() for p in tmp_path.iterdir()} == before

    def test_rounding_follows_metadata(self, tmp_path):
        rows = [subgroup_cell("a", 0.0123456), subgroup_cell("b", -0.0123456)]
        bundle = build_bundle(metadata={"rounding": 3}, subgroup=rows)
        render(bundle, tmp_path, formats=("markdown",))
        text = (tmp_path / "report.md").read_text()
        assert "0.012" in text
        assert "0.0123" not in text
