"""Rendering: rounding rules, bundle round-trips, and output formats."""

import csv
import json
import math
from pathlib import Path

import pytest
from hypothesis import given, strategies as st
from xml.sax.saxutils import escape

from biasaudit.audit import (
    STATUS_FAILED,
    STATUS_INSUFFICIENT,
    STATUS_OK,
    STATUS_SKIPPED,
    AuditConfig,
    ComparisonReport,
    DeltaCell,
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
            assert Path(pa).read_bytes() == Path(pb).read_bytes()

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


def golden_bundle():
    """Two models' worth of every report section, with names that need
    escaping, every cell status and both balance row shapes."""

    def sub(model, attr, level, metric, mean_diff=None, significant=False, status=STATUS_OK):
        ok = status == STATUS_OK
        return SubgroupAuditResult(
            model=model, attribute=attr, level=level, metric=metric,
            mean_diff=mean_diff, sd=0.0123 if ok else None, t_stat=1.5 if ok else None,
            p_value=(0.001 if significant else 0.25) if ok else None,
            significant=significant if ok else None, n_effective=150 if ok else 1, status=status,
        )

    def contrast(model, attr, level, opponent, diffs, status=STATUS_OK):
        # diffs: {metric: mean_diff}, one cell with a result per metric; only
        # a diff of 0.031 is significant.
        return [MatchedCell(opponent=opponent, status=status, detail="40 pairs",
                            result=sub(model, attr, level, metric, diff, significant=diff == 0.031,
                                       status=status))
                for metric, diff in diffs.items()]

    subgroup = [
        sub("m1", "race", "A", "AUROC", 0.031, significant=True),
        sub("m1", "race", "A", "SENS", -0.0049),
        sub("m1", "race", "B|x", "AUROC", -0.016),
        sub("m1", "race", "B|x", "SENS", status=STATUS_INSUFFICIENT),
        sub("m1", "race", "C", "AUROC", -0.015),  # no SENS cell for C
        sub("m1", "sex", "F", "AUROC", 0.002),
        sub("m1", "sex", "F", "SENS", 0.125),
        sub("m1", "sex", "M", "AUROC", -0.002),
        sub("m1", "sex", "M", "SENS", -0.125),
        sub("m|2", "race", "A", "AUROC", 0.05),
        sub("m|2", "race", "A", "SENS", 0.0),
        sub("m|2", "race", "B|x", "AUROC", -0.05, significant=True),
        sub("m|2", "race", "B|x", "SENS", -0.0),
    ]
    matched = [
        MatchedAuditResult("m1", "race", "A", (
            *contrast("m1", "race", "A", "B|x", {"AUROC": 0.031, "SENS": 0.011}),
            *contrast("m1", "race", "A", "C", {"AUROC": None, "SENS": None}, status=STATUS_INSUFFICIENT),
        )),
        MatchedAuditResult("m1", "race", "B|x", (
            *contrast("m1", "race", "B|x", "A", {"AUROC": -0.031, "SENS": -0.011}),
            MatchedCell(opponent="C", status=STATUS_SKIPPED, detail="3 pairs (6 records) below min_matched_n=50"),
        )),
        MatchedAuditResult("m1", "race", "C", (
            MatchedCell(opponent="A", status=STATUS_FAILED, detail="propensity fit failed: boom"),
            MatchedCell(opponent="B|x", status=STATUS_SKIPPED, detail="3 pairs (6 records) below min_matched_n=50"),
        )),
        MatchedAuditResult("m|2", "race", "A", contrast("m|2", "race", "A", "B|x", {"AUROC": 0.044, "SENS": 0.0})),
        MatchedAuditResult("m|2", "race", "B|x", contrast("m|2", "race", "B|x", "A", {"AUROC": -0.044, "SENS": -0.0})),
    ]
    discrepancy = [
        DiscrepancySummary("m1", "race", "AUROC", "before", 0.047, 3),
        DiscrepancySummary("m1", "race", "AUROC", "after", 0.062, 2),
        DiscrepancySummary("m|2", "race", "AUROC", "before", 0.1, 2),
    ]
    covariates = [{"name": "age", "smd_before": 0.3125, "smd_after": 0.04},
                  {"name": "sofa|x", "smd_before": -0.18, "smd_after": None}]
    balance = [
        # The audit's shape: led by the model; a failed row lists covariates first.
        {"model": "m1", "attribute": "race", "treated_level": "C", "control_level": "A", "caliper": 0.2,
         "unmatched_treated": 1, "matched_n": 80, "passes_min_n": True, "status": "ok", "detail": "",
         "covariates": covariates},
        {"model": "m1", "attribute": "race", "treated_level": "B|x", "control_level": "C", "caliper": None,
         "unmatched_treated": 9, "matched_n": 6, "passes_min_n": False, "status": "skipped",
         "detail": "3 pairs (6 records) below min_matched_n=50", "covariates": covariates[:1]},
        {"model": "m|2", "attribute": "race", "treated_level": "A", "control_level": "C", "status": "failed",
         "detail": "propensity fit failed: boom", "covariates": [], "matched_n": 0, "passes_min_n": False},
        # match's shape: no model, counts before the covariates.
        {"attribute": "sex", "treated_level": "F", "control_level": "M", "caliper": 0.1,
         "unmatched_treated": 0, "matched_n": 200, "passes_min_n": True, "status": "ok", "detail": "",
         "pairs_file": "pairs_sex_F_vs_M.csv", "covariates": covariates},
        {"attribute": "race", "treated_level": "C", "control_level": "B|x", "caliper": 0.1,
         "unmatched_treated": 3, "matched_n": 4, "passes_min_n": False, "status": "skipped",
         "detail": "2 pairs (4 records) below min_matched_n=50", "pairs_file": "pairs_race_C_vs_B-x.csv",
         "covariates": covariates[1:]},
        {"attribute": "race", "treated_level": "A", "control_level": "C", "status": "failed",
         "detail": "boom\nagain", "matched_n": 0, "passes_min_n": False, "covariates": []},
    ]
    comparison = ComparisonReport(
        model_a="m1", model_b="m|2", subgroup_a=(), subgroup_b=(), matched_a=(), matched_b=(),
        deltas=(
            DeltaCell("race", "A", "AUROC", "before", None, 0.019),
            DeltaCell("race", "B|x", "SENS", "before", None, None),
            DeltaCell("race", "A", "AUROC", "after", "B|x", 0.013),
            DeltaCell("race", "C", "AUROC", "after", "A", None),
        ),
        overall={"m1": {"n": 400, "threshold": 0.4375, "AUROC": 0.8123456, "SENS": None},
                 "m|2": {"n": 380, "threshold": 0.5, "AUROC": 0.79, "SENS": 0.625}},
    )
    curve = calibration_curve([0, 1, 0, 1], [0.1, 0.9, 0.3, 0.7], n_bins=2)
    return build_bundle(
        metadata={"models": ["m1", "m|2"], "rounding": 2, "seed": 7, "skipped_attributes": [],
                  "metrics": ["AUROC", "SENS"], "threshold_policy": "youden"},
        subgroup=subgroup, matched=matched, discrepancy=discrepancy, balance=balance,
        calibration={"m1": curve, "m|2": curve}, comparison=comparison,
    )


# golden_bundle's markdown report and CSVs, byte for byte.
GOLDEN_TEXT = {
    'subgroup.csv': (
        'model,attribute,level,metric,mean_diff,sd,t_stat,p_value,significant,n_effective,status\n'
        'm1,race,A,AUROC,0.03,0.0123,1.5,0.001,true,150,ok\n'
        'm1,race,A,SENS,0.0,0.0123,1.5,0.25,false,150,ok\n'
        'm1,race,B|x,AUROC,-0.02,0.0123,1.5,0.25,false,150,ok\n'
        'm1,race,B|x,SENS,,,,,,1,insufficient\n'
        'm1,race,C,AUROC,-0.02,0.0123,1.5,0.25,false,150,ok\n'
        'm1,sex,F,AUROC,0.0,0.0123,1.5,0.25,false,150,ok\n'
        'm1,sex,F,SENS,0.12,0.0123,1.5,0.25,false,150,ok\n'
        'm1,sex,M,AUROC,0.0,0.0123,1.5,0.25,false,150,ok\n'
        'm1,sex,M,SENS,-0.12,0.0123,1.5,0.25,false,150,ok\n'
        'm|2,race,A,AUROC,0.05,0.0123,1.5,0.25,false,150,ok\n'
        'm|2,race,A,SENS,0.0,0.0123,1.5,0.25,false,150,ok\n'
        'm|2,race,B|x,AUROC,-0.05,0.0123,1.5,0.001,true,150,ok\n'
        'm|2,race,B|x,SENS,0.0,0.0123,1.5,0.25,false,150,ok\n'
    ),
    'matched.csv': (
        'model,attribute,level,opponent,metric,mean_diff,sd,t_stat,p_value,significant,n_effective,status,detail\n'
        'm1,race,A,B|x,AUROC,0.03,0.0123,1.5,0.001,true,150,ok,40 pairs\n'
        'm1,race,A,B|x,SENS,0.01,0.0123,1.5,0.25,false,150,ok,40 pairs\n'
        'm1,race,A,C,AUROC,,,,,,1,insufficient,40 pairs\n'
        'm1,race,A,C,SENS,,,,,,1,insufficient,40 pairs\n'
        'm1,race,B|x,A,AUROC,-0.03,0.0123,1.5,0.25,false,150,ok,40 pairs\n'
        'm1,race,B|x,A,SENS,-0.01,0.0123,1.5,0.25,false,150,ok,40 pairs\n'
        'm1,race,B|x,C,,,,,,,,skipped,3 pairs (6 records) below min_matched_n=50\n'
        'm1,race,C,A,,,,,,,,failed,propensity fit failed: boom\n'
        'm1,race,C,B|x,,,,,,,,skipped,3 pairs (6 records) below min_matched_n=50\n'
        'm|2,race,A,B|x,AUROC,0.04,0.0123,1.5,0.25,false,150,ok,40 pairs\n'
        'm|2,race,A,B|x,SENS,0.0,0.0123,1.5,0.25,false,150,ok,40 pairs\n'
        'm|2,race,B|x,A,AUROC,-0.04,0.0123,1.5,0.25,false,150,ok,40 pairs\n'
        'm|2,race,B|x,A,SENS,0.0,0.0123,1.5,0.25,false,150,ok,40 pairs\n'
    ),
    'discrepancy.csv': (
        'model,attribute,metric,matching,gap,n_levels\n'
        'm1,race,AUROC,before,0.05,3\n'
        'm1,race,AUROC,after,0.06,2\n'
        'm|2,race,AUROC,before,0.1,2\n'
    ),
    'balance.csv': (
        'model,attribute,treated_level,control_level,covariate,smd_before,smd_after,matched_n,passes_min_n,status,detail\n'
        'm1,race,C,A,age,0.3125,0.04,80,true,ok,\n'
        'm1,race,C,A,sofa|x,-0.18,,80,true,ok,\n'
        'm1,race,B|x,C,age,0.3125,0.04,6,false,skipped,3 pairs (6 records) below min_matched_n=50\n'
        'm|2,race,A,C,,,,0,false,failed,propensity fit failed: boom\n'
        ',sex,F,M,age,0.3125,0.04,200,true,ok,\n'
        ',sex,F,M,sofa|x,-0.18,,200,true,ok,\n'
        ',race,C,B|x,sofa|x,-0.18,,4,false,skipped,2 pairs (4 records) below min_matched_n=50\n'
        ',race,A,C,,,,0,false,failed,"boom\n'
        'again"\n'
    ),
    'calibration.csv': (
        'model,bin,mean_score,positive_fraction,count\n'
        'm1,0,0.2,0,2\n'
        'm1,1,0.8,1,2\n'
        'm|2,0,0.2,0,2\n'
        'm|2,1,0.8,1,2\n'
    ),
    'comparison.csv': (
        'attribute,level,metric,phase,opponent,delta\n'
        'race,A,AUROC,before,,0.02\n'
        'race,B|x,SENS,before,,\n'
        'race,A,AUROC,after,B|x,0.01\n'
        'race,C,AUROC,after,A,\n'
    ),
    'report.md': (
        '# Subgroup bias audit\n'
        '\n'
        '- metrics: AUROC, SENS\n'
        '- models: m1, m\\|2\n'
        '- rounding: 2\n'
        '- seed: 7\n'
        '- skipped_attributes: \n'
        '- threshold_policy: youden\n'
        '\n'
        '## Subgroup audit: m1\n'
        '\n'
        '| Group | AUROC | AUROC (matched) | SENS | SENS (matched) |\n'
        '|---|---|---|---|---|\n'
        '| race = A | 0.03* | [0.03*, ins] | 0.0 | [0.01, ins] |\n'
        '| race = B\\|x | -0.02 | [-0.03, skip] | insufficient | [-0.01, skip] |\n'
        '| race = C | -0.02 | [fail, skip] |  | [fail, skip] |\n'
        '| sex = F | 0.0 |  | 0.12 |  |\n'
        '| sex = M | 0.0 |  | -0.12 |  |\n'
        '\n'
        '## Subgroup audit: m\\|2\n'
        '\n'
        '| Group | AUROC | AUROC (matched) | SENS | SENS (matched) |\n'
        '|---|---|---|---|---|\n'
        '| race = A | 0.05 | 0.04 | 0.0 | 0.0 |\n'
        '| race = B\\|x | -0.05* | -0.04 | 0.0 | 0.0 |\n'
        '\n'
        '## Max discrepancy across subgroups\n'
        '\n'
        '| Model | Attribute | Metric | Matching | Gap | Levels |\n'
        '|---|---|---|---|---|---|\n'
        '| m1 | race | AUROC | before | 0.05 | 3 |\n'
        '| m1 | race | AUROC | after | 0.06 | 2 |\n'
        '| m\\|2 | race | AUROC | before | 0.1 | 2 |\n'
        '\n'
        '## Covariate balance (matched contrasts)\n'
        '\n'
        '| Model | Contrast | Covariate | SMD before | SMD after |\n'
        '|---|---|---|---|---|\n'
        '| m1 | race: C vs A | age | 0.3125 | 0.04 |\n'
        '| m1 | race: C vs A | sofa\\|x | -0.18 |  |\n'
        '| m1 | race: B\\|x vs C | (skipped: 3 pairs (6 records) below min_matched_n=50) | | |\n'
        '| m\\|2 | race: A vs C | (failed: propensity fit failed: boom) | | |\n'
        '|  | sex: F vs M | age | 0.3125 | 0.04 |\n'
        '|  | sex: F vs M | sofa\\|x | -0.18 |  |\n'
        '|  | race: C vs B\\|x | (skipped: 2 pairs (4 records) below min_matched_n=50) | | |\n'
        '|  | race: A vs C | (failed: boom again) | | |\n'
        '\n'
        '## Calibration\n'
        '\n'
        '![calibration m1](calibration_m1.svg)\n'
        '![calibration m-2](calibration_m-2.svg)\n'
        '\n'
        '## Model comparison: m\\|2 minus m1\n'
        '\n'
        '### Overall performance\n'
        '\n'
        '| Model | n | AUROC | SENS |\n'
        '|---|---|---|---|\n'
        '| m1 | 400 | 0.8123 |  |\n'
        '| m\\|2 | 380 | 0.79 | 0.625 |\n'
        '\n'
        '### Cell deltas\n'
        '\n'
        '| Attribute | Level | Metric | Phase | Opponent | Delta |\n'
        '|---|---|---|---|---|---|\n'
        '| race | A | AUROC | before |  | 0.02 |\n'
        '| race | B\\|x | SENS | before |  |  |\n'
        '| race | A | AUROC | after | B\\|x | 0.01 |\n'
        '| race | C | AUROC | after | A |  |\n'
    ),
}


class TestGoldenText:
    def test_report_text_is_unchanged(self, tmp_path):
        written = render(golden_bundle(), tmp_path, formats=("csv", "markdown"))
        texts = {p.split("/")[-1]: Path(p).read_bytes().decode("utf-8") for p in written}
        assert list(texts) == list(GOLDEN_TEXT)
        for name, expected in GOLDEN_TEXT.items():
            assert texts[name] == "".join(expected), name
