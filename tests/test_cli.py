"""Command-line interface: configs, subcommands, exit codes, output stability."""

import csv
import json
import math
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from biasaudit.cli import (
    _AUDIT_KEYS,
    _RUN_KEYS,
    _SCHEMA_KEYS,
    EXIT_CONFIG,
    EXIT_OK,
    EXIT_RENDER,
    EXIT_STATISTICAL,
    load_run_config,
    main,
)
from biasaudit.cohort import CohortSchema, parse_cohort
from biasaudit.errors import CohortValidationError, ConfigError, SchemaError
from biasaudit.matching import smd

from helpers import read_csv_outputs


SYNTH_DOC = {
    "n": 800,
    "seed": 11,
    "protected": [
        {"name": "race", "levels": ["Black", "White", "Other"], "weights": [0.3, 0.5, 0.2]},
        {"name": "sex", "levels": ["F", "M"], "weights": [0.5, 0.5]},
    ],
    "covariates": [
        {"name": "sofa", "kind": "gaussian", "mu": 0.0, "sigma": 1.0,
         "shifts": {"race": {"Black": 0.5}}},
    ],
    "outcome": {"intercept": -0.5, "weights": {"sofa": 1.5}},
    "score": {"kind": "oracle_noise", "noise_sd": 0.05},
    "injections": [],
}

RUN_SCHEMA = {
    "id_column": "id",
    "label_column": "label",
    "score_columns": ["score"],
    "protected": [{"name": "race"}, {"name": "sex"}],
    "covariates": [{"name": "sofa", "kind": "numeric"}],
}

RUN_AUDIT = {
    "metrics": ["AUROC", "SENS"],
    "n_bootstrap": 20,
    "seed": 5,
    "min_group_size": 30,
    "min_matched_n": 30,
    "propensity_covariates": ["sofa"],
}


def write_json(path, doc):
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=2)
    return str(path)


def make_cohort(tmp_path, synth_overrides=None, name="cohort.csv"):
    doc = dict(SYNTH_DOC)
    doc.update(synth_overrides or {})
    config = write_json(tmp_path / "synth.json", doc)
    out = str(tmp_path / name)
    assert main(["synth", config, out]) == EXIT_OK
    return out


def make_separated_config(tmp_path):
    """sofa separates Black from the other race levels and the fit has no
    ridge, so those contrasts' propensity fits cannot converge."""
    covariates = [dict(SYNTH_DOC["covariates"][0], shifts={"race": {"Black": 30.0}})]
    cohort = make_cohort(tmp_path, synth_overrides={"covariates": covariates})
    return make_run_config(tmp_path, cohort, audit=dict(RUN_AUDIT, ridge=0.0))


def write_aged_cohort(tmp_path):
    """A four-row cohort with a continuous age binned at [18, 45, 90]; the
    record on line 3 is aged 100, outside the edges."""
    path = tmp_path / "aged.csv"
    path.write_text(
        "id,label,score,race,sex,sofa,age\n"
        "r1,1,0.9,Black,F,0.1,30\n"
        "r2,0,0.4,White,M,0.2,100\n"
        "r3,0,0.2,White,F,0.3,90\n"
        "r4,1,0.7,Black,M,0.4,18\n"
    )
    schema = dict(RUN_SCHEMA, protected=RUN_SCHEMA["protected"] + [
        {"name": "age", "kind": "continuous", "bin_edges": [18, 45, 90]}])
    return make_run_config(tmp_path, str(path), schema=schema)


AGE_ISSUE = {"line": 3, "column": "age",
             "message": "value 100.0 falls outside the bin range [18.0, 90.0]"}


def make_run_config(tmp_path, cohort_path, name="run.json", **overrides):
    doc = {
        "cohort": cohort_path,
        "schema": RUN_SCHEMA,
        "audit": dict(RUN_AUDIT),
        "output_dir": str(tmp_path / "report"),
        "formats": ["json", "csv", "markdown", "svg"],
    }
    doc.update(overrides)
    return write_json(tmp_path / name, doc)


class TestLoadRunConfig:
    def test_missing_file(self, tmp_path):
        with pytest.raises(ConfigError, match="not found"):
            load_run_config(tmp_path / "nope.json")

    def test_invalid_json(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        with pytest.raises(ConfigError, match="not valid JSON"):
            load_run_config(path)

    def test_non_object_root(self, tmp_path):
        path = tmp_path / "arr.json"
        path.write_text("[1, 2]")
        with pytest.raises(ConfigError, match="JSON object"):
            load_run_config(path)

    def test_unknown_top_level_key(self, tmp_path):
        path = write_json(tmp_path / "run.json",
                          {"cohort": "c.csv", "schema": RUN_SCHEMA, "extra": 1})
        with pytest.raises(ConfigError, match="run config"):
            load_run_config(path)

    @pytest.mark.parametrize("missing", ["cohort", "schema"])
    def test_required_keys(self, tmp_path, missing):
        doc = {"cohort": "c.csv", "schema": RUN_SCHEMA}
        del doc[missing]
        path = write_json(tmp_path / "run.json", doc)
        with pytest.raises(ConfigError, match=missing):
            load_run_config(path)

    def test_relative_cohort_path_resolves_against_config_dir(self, tmp_path):
        sub = tmp_path / "configs"
        sub.mkdir()
        path = write_json(sub / "run.json", {"cohort": "data.csv", "schema": RUN_SCHEMA})
        rc = load_run_config(path)
        assert rc.cohort == str(sub / "data.csv")

    def test_absolute_cohort_path_kept(self, tmp_path):
        path = write_json(tmp_path / "run.json",
                          {"cohort": "/data/c.csv", "schema": RUN_SCHEMA})
        assert load_run_config(path).cohort == "/data/c.csv"

    def test_overrides_beat_file_values(self, tmp_path):
        path = write_json(
            tmp_path / "run.json",
            {"cohort": "c.csv", "schema": RUN_SCHEMA,
             "audit": {"seed": 1, "n_bootstrap": 10}, "workers": 2},
        )
        rc = load_run_config(path, {"seed": 99, "workers": 8, "n_bootstrap": None})
        assert rc.audit.seed == 99
        assert rc.audit.n_bootstrap == 10  # None override ignored
        assert rc.workers == 8

    def test_score_column_forms(self, tmp_path):
        schema = dict(RUN_SCHEMA)
        schema["score_columns"] = ["plain", ["model_a", "col_a"]]
        path = write_json(tmp_path / "run.json", {"cohort": "c.csv", "schema": schema})
        rc = load_run_config(path)
        assert rc.schema.score_columns == (("plain", "plain"), ("model_a", "col_a"))

    def test_bad_score_column_entry(self, tmp_path):
        schema = dict(RUN_SCHEMA)
        schema["score_columns"] = [{"model": "m"}]
        path = write_json(tmp_path / "run.json", {"cohort": "c.csv", "schema": schema})
        with pytest.raises(ConfigError, match="score_columns"):
            load_run_config(path)

    @pytest.mark.parametrize(
        "value, kind, fixed",
        [
            (None, "youden", None),
            ("youden", "youden", None),
            (0.4, "fixed", 0.4),
            ({"kind": "fixed", "value": 0.3}, "fixed", 0.3),
            ({"kind": "youden"}, "youden", None),
        ],
    )
    def test_threshold_forms(self, tmp_path, value, kind, fixed):
        audit = {} if value is None else {"threshold": value}
        path = write_json(tmp_path / "run.json",
                          {"cohort": "c.csv", "schema": RUN_SCHEMA, "audit": audit})
        policy = load_run_config(path).audit.threshold_policy
        assert policy.kind == kind
        assert policy.value == fixed

    def test_bad_threshold_rejected(self, tmp_path):
        path = write_json(tmp_path / "run.json",
                          {"cohort": "c.csv", "schema": RUN_SCHEMA,
                           "audit": {"threshold": "best"}})
        with pytest.raises(ConfigError, match="threshold policy"):
            load_run_config(path)

    def test_unknown_audit_key(self, tmp_path):
        path = write_json(tmp_path / "run.json",
                          {"cohort": "c.csv", "schema": RUN_SCHEMA,
                           "audit": {"bootstraps": 100}})
        with pytest.raises(ConfigError, match="audit config"):
            load_run_config(path)

    def test_unknown_schema_key(self, tmp_path):
        schema = dict(RUN_SCHEMA)
        schema["sep"] = ";"
        path = write_json(tmp_path / "run.json", {"cohort": "c.csv", "schema": schema})
        with pytest.raises(ConfigError, match="schema"):
            load_run_config(path)

    # Every value kind a JSON document can hold, NaN and the infinities included.
    JSON_VALUES = st.one_of(
        st.text(max_size=8), st.integers(-5, 500), st.floats(), st.booleans(), st.none(),
        st.lists(st.one_of(st.text(max_size=6), st.integers(), st.none()), max_size=3),
        st.dictionaries(st.text(max_size=8), st.one_of(st.text(max_size=6), st.floats()), max_size=3),
    )

    @settings(max_examples=300)
    @given(run=st.dictionaries(st.sampled_from(_RUN_KEYS), JSON_VALUES),
           audit=st.dictionaries(st.sampled_from(_AUDIT_KEYS), JSON_VALUES))
    def test_fuzzed_config_raises_only_config_errors(self, tmp_path_factory, run, audit):
        doc = {"cohort": "c.csv", "schema": RUN_SCHEMA, "audit": audit}
        doc.update(run)
        path = write_json(tmp_path_factory.mktemp("fuzz") / "run.json", doc)
        try:
            load_run_config(path)
        except (ConfigError, SchemaError):
            pass

    @settings(max_examples=300, deadline=None)
    @given(schema=st.dictionaries(st.sampled_from(_SCHEMA_KEYS), JSON_VALUES),
           protected=st.dictionaries(st.sampled_from(("name", "kind", "bin_edges")), JSON_VALUES),
           covariate=st.dictionaries(st.sampled_from(("name", "kind")), JSON_VALUES),
           extra=st.lists(JSON_VALUES, max_size=2))
    def test_fuzzed_schema_entries_raise_only_config_errors(self, tmp_path_factory, schema, protected,
                                                            covariate, extra):
        """Values drawn inside the schema's entries, and odd entries appended,
        end in a config, schema or validation error when loading the config
        and parsing a cohort with it, never in another exception."""
        tmp = tmp_path_factory.mktemp("fuzz")
        (tmp / "c.csv").write_text("id,label,score,race,sex,sofa\n"
                                   "r1,1,0.9,Black,F,0.1\n"
                                   "r2,0,0.2,White,M,0.3\n")
        doc = dict(RUN_SCHEMA, protected=[{"name": "race", **protected}, {"name": "sex"}, *extra],
                   covariates=[{"name": "sofa", **covariate}, *extra])
        doc.update(schema)
        path = write_json(tmp / "run.json", {"cohort": "c.csv", "schema": doc})
        try:
            parse_cohort(tmp / "c.csv", load_run_config(path).schema)
        except (ConfigError, SchemaError, CohortValidationError):
            pass

    def test_config_hash_tracks_analysis_content(self, tmp_path):
        p1 = write_json(tmp_path / "a.json", {"cohort": "c.csv", "schema": RUN_SCHEMA})
        p2 = write_json(tmp_path / "b.json",
                        {"cohort": "c.csv", "schema": RUN_SCHEMA, "audit": {"seed": 3}})
        h1 = load_run_config(p1).config_hash
        h2 = load_run_config(p2).config_hash
        assert len(h1) == 16 and all(c in "0123456789abcdef" for c in h1)
        assert h1 != h2
        assert load_run_config(p1).config_hash == h1

    def test_config_hash_ignores_execution_settings(self, tmp_path):
        base = {"cohort": "c.csv", "schema": RUN_SCHEMA}
        p1 = write_json(tmp_path / "a.json", base)
        p2 = write_json(tmp_path / "b.json",
                        {**base, "workers": 3, "output_dir": "elsewhere",
                         "formats": ["json"]})
        h1 = load_run_config(p1).config_hash
        assert load_run_config(p2).config_hash == h1
        assert load_run_config(p1, {"workers": 8}).config_hash == h1
        assert load_run_config(p1, {"seed": 8}).config_hash != h1


class TestSynthCommand:
    def test_writes_cohort_and_manifest(self, tmp_path, capsys):
        config = write_json(tmp_path / "synth.json", SYNTH_DOC)
        out = str(tmp_path / "c.csv")
        assert main(["synth", config, out]) == EXIT_OK
        printed = capsys.readouterr().out.splitlines()
        assert printed == [out, out + ".manifest.json"]
        manifest = json.loads(Path(out + ".manifest.json").read_text())
        assert manifest["n"] == 800
        assert manifest["schema_version"] == 1
        header = Path(out).read_text().splitlines()[0]
        assert header == "id,label,score,race,sex,sofa"

    def test_deterministic_for_same_seed(self, tmp_path):
        config = write_json(tmp_path / "synth.json", SYNTH_DOC)
        a, b = str(tmp_path / "a.csv"), str(tmp_path / "b.csv")
        assert main(["synth", config, a]) == EXIT_OK
        assert main(["synth", config, b]) == EXIT_OK
        assert Path(a).read_bytes() == Path(b).read_bytes()

    def test_seed_flag_overrides_config(self, tmp_path):
        config = write_json(tmp_path / "synth.json", SYNTH_DOC)
        a, b = str(tmp_path / "a.csv"), str(tmp_path / "b.csv")
        assert main(["synth", config, a]) == EXIT_OK
        assert main(["synth", config, b, "--seed", "99"]) == EXIT_OK
        assert Path(a).read_bytes() != Path(b).read_bytes()

    def test_custom_manifest_path(self, tmp_path):
        config = write_json(tmp_path / "synth.json", SYNTH_DOC)
        out = str(tmp_path / "c.csv")
        manifest = str(tmp_path / "truth.json")
        assert main(["synth", config, out, "--manifest", manifest]) == EXIT_OK
        assert json.loads(Path(manifest).read_text())["seed"] == 11

    def test_bad_config_exits_2(self, tmp_path, capsys):
        doc = dict(SYNTH_DOC)
        doc["mystery"] = True
        config = write_json(tmp_path / "synth.json", doc)
        assert main(["synth", config, str(tmp_path / "c.csv")]) == EXIT_CONFIG
        assert "mystery" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "doc, fragment",
        [
            ({"n": "many"}, "n must be an integer"),
            ([1, 2], "synth config must be a JSON object"),
            (dict(SYNTH_DOC, covariates=[{"name": "sofa", "mu": "a"}]), "mu must be a number"),
            (dict(SYNTH_DOC, protected=[{"name": "race", "levels": ["Black", "White", "Other"],
                                         "weights": [math.nan, 0.5, 0.2]}]),
             "protected 'race' weights must be finite"),
            (dict(SYNTH_DOC, outcome={"intercept": math.nan, "weights": {"sofa": 1.5}}),
             "outcome intercept must be finite"),
            (dict(SYNTH_DOC, n=50, outcome={"intercept": 50.0},
                  score={"kind": "trained_logistic", "features": ["sofa"]}),
             "trained_logistic score model needs both outcome classes"),
        ],
    )
    def test_malformed_config_exits_2(self, tmp_path, capsys, doc, fragment):
        config = write_json(tmp_path / "synth.json", doc)
        assert main(["synth", config, str(tmp_path / "c.csv")]) == EXIT_CONFIG
        assert f"error: {fragment}" in capsys.readouterr().err
        assert not (tmp_path / "c.csv").exists()

    def test_missing_config_exits_2(self, tmp_path, capsys):
        code = main(["synth", str(tmp_path / "nope.json"), str(tmp_path / "c.csv")])
        assert code == EXIT_CONFIG
        assert "not found" in capsys.readouterr().err

    def test_trained_score_on_overflowing_covariate_exits_2(self, tmp_path, capsys):
        covariates = [{"name": "sofa", "kind": "gaussian", "mu": -1e308, "sigma": 1.0}]
        config = write_json(tmp_path / "synth.json", dict(
            SYNTH_DOC, covariates=covariates, outcome={"intercept": -0.5, "weights": {}},
            score={"kind": "trained_logistic", "features": ["sofa"]}))
        assert main(["synth", config, str(tmp_path / "c.csv")]) == EXIT_CONFIG
        assert "covariate 'sofa' overflows standardization" in capsys.readouterr().err


class TestValidateCommand:
    def test_valid_cohort(self, tmp_path, capsys):
        cohort = make_cohort(tmp_path)
        config = make_run_config(tmp_path, cohort)
        capsys.readouterr()  # discard the synth command's path printout
        assert main(["validate", config]) == EXIT_OK
        report_path = capsys.readouterr().out.strip()
        doc = json.loads(Path(report_path).read_text())
        assert doc["valid"] is True
        assert doc["n_records"] == 800
        assert doc["issues"] == []
        assert doc["dropped_rows"] == []

    def test_dropped_rows_are_reported_but_valid(self, tmp_path, capsys):
        cohort_path = tmp_path / "c.csv"
        cohort_path.write_text(
            "id,label,score,race,sex,sofa\n"
            "r1,1,0.9,Black,F,0.1\n"
            "r2,,0.4,White,M,0.2\n"   # missing label: dropped, not fatal
            "r3,0,0.2,White,F,0.3\n"
        )
        config = make_run_config(tmp_path, str(cohort_path))
        assert main(["validate", config]) == EXIT_OK
        report_path = capsys.readouterr().out.strip()
        doc = json.loads(Path(report_path).read_text())
        assert doc["valid"] is True
        assert doc["n_records"] == 2
        assert len(doc["dropped_rows"]) == 1
        assert doc["dropped_rows"][0]["line"] == 3

    def test_invalid_cohort_exits_2_with_report(self, tmp_path, capsys):
        cohort_path = tmp_path / "c.csv"
        cohort_path.write_text(
            "id,label,score,race,sex,sofa\n"
            "r1,2,0.9,Black,F,0.1\n"   # label outside {0, 1}
            "r2,0,1.7,White,M,0.2\n"   # score outside [0, 1]
        )
        config = make_run_config(tmp_path, str(cohort_path))
        assert main(["validate", config]) == EXIT_CONFIG
        captured = capsys.readouterr()
        report_path = captured.out.strip()
        doc = json.loads(Path(report_path).read_text())
        assert doc["valid"] is False
        assert len(doc["issues"]) == 2
        assert all(i["line"] is not None for i in doc["issues"])
        assert "invalid: line 2" in captured.err

    def test_missing_cohort_file_exits_2(self, tmp_path, capsys):
        config = make_run_config(tmp_path, str(tmp_path / "ghost.csv"))
        assert main(["validate", config]) == EXIT_CONFIG
        assert "cannot read cohort file" in capsys.readouterr().err

    def test_value_outside_bin_edges_is_invalid(self, tmp_path, capsys):
        config = write_aged_cohort(tmp_path)
        assert main(["validate", config]) == EXIT_CONFIG
        captured = capsys.readouterr()
        doc = json.loads(Path(captured.out.strip()).read_text())
        assert doc["valid"] is False
        assert doc["issues"] == [AGE_ISSUE]
        assert "invalid: line 3, column age: value 100.0 falls outside" in captured.err

    @pytest.mark.parametrize(
        "entries, fragment",
        [
            ({"protected": ["race"]}, "protected column must be a JSON object"),
            ({"covariates": [7]}, "covariate column must be a JSON object"),
            ({"score_columns": 5}, "score_columns must be a list"),
            ({"missing_tokens": 5}, "missing_tokens must be a list of names"),
            ({"protected": [{"name": "race"}, {"name": "sex"},
                            {"name": "age", "kind": "continuous", "bin_edges": ["x"]}]},
             "bin_edges must be a number"),
            ({"delimiter": ";;"}, "delimiter must be one character"),
            ({"id_column": 5}, "id_column must be a string"),
            ({"delimiter": '"'}, "delimiter '\"' cannot separate fields"),
            ({"delimiter": "\r"}, "delimiter '\\r' cannot separate fields"),
            ({"delimiter": "\n"}, "delimiter '\\n' cannot separate fields"),
        ],
    )
    def test_malformed_schema_entry_exits_2(self, tmp_path, capsys, entries, fragment):
        cohort_path = tmp_path / "c.csv"
        cohort_path.write_text("id,label,score,race,sex,sofa,age\nr1,1,0.9,Black,F,0.1,30\n")
        config = make_run_config(tmp_path, str(cohort_path), schema=dict(RUN_SCHEMA, **entries))
        assert main(["validate", config]) == EXIT_CONFIG
        assert f"error: {fragment}" in capsys.readouterr().err

    def test_custom_report_path(self, tmp_path):
        cohort = make_cohort(tmp_path)
        config = make_run_config(tmp_path, cohort)
        report = str(tmp_path / "deep" / "check.json")
        assert main(["validate", config, "--report", report]) == EXIT_OK
        assert json.loads(Path(report).read_text())["valid"] is True


def corrupt_line(cohort_path, edit, line_no=5) -> None:
    """Rewrite one line of a cohort file through ``edit`` (bytes to bytes)."""
    lines = Path(cohort_path).read_bytes().split(b"\n")
    lines[line_no - 1] = edit(lines[line_no - 1])
    Path(cohort_path).write_bytes(b"\n".join(lines))


def _first_field(value: bytes):
    return lambda line: value + line[line.index(b","):]


# (edit of line 5, the issue's line, a fragment of its message)
MALFORMED_BYTES = {
    "bare carriage return": (_first_field(b"r\rx"), 5, "new-line character seen in unquoted field"),
    "oversized field": (_first_field(b"x" * (csv.field_size_limit() + 1)), 5, "field larger than field limit"),
    "not utf-8": (lambda line: b"\xff" + line, None, "is not valid UTF-8"),
}


class TestMalformedCohortBytes:
    """Bytes the csv reader or the UTF-8 decoder rejects are a validation
    issue (exit 2), not a traceback."""

    @pytest.mark.parametrize("case", sorted(MALFORMED_BYTES))
    def test_validate_reports_the_issue(self, tmp_path, capsys, case):
        edit, line, fragment = MALFORMED_BYTES[case]
        cohort = make_cohort(tmp_path)
        corrupt_line(cohort, edit)
        config = make_run_config(tmp_path, cohort)
        capsys.readouterr()
        assert main(["validate", config]) == EXIT_CONFIG
        captured = capsys.readouterr()
        doc = json.loads(Path(captured.out.strip()).read_text())
        assert doc["valid"] is False
        [issue] = doc["issues"]
        assert (issue["line"], issue["column"]) == (line, None)
        assert fragment in issue["message"]
        assert f"invalid: {'file' if line is None else f'line {line}'}: " in captured.err

    @pytest.mark.parametrize("case", sorted(MALFORMED_BYTES))
    @pytest.mark.parametrize("command", ["audit", "compare", "match"])
    def test_commands_exit_2(self, tmp_path, capsys, case, command):
        edit, _, fragment = MALFORMED_BYTES[case]
        cohort = make_cohort(tmp_path)
        # A copy of the score column as a second model, for compare.
        lines = Path(cohort).read_text().splitlines()
        Path(cohort).write_text("\n".join([lines[0] + ",twin"] + [
            line + "," + line.split(",")[2] for line in lines[1:]]) + "\n")
        corrupt_line(cohort, edit)
        config = make_run_config(tmp_path, cohort, schema=dict(RUN_SCHEMA, score_columns=["score", "twin"]))
        assert main([command, config]) == EXIT_CONFIG
        assert fragment in capsys.readouterr().err


class TestAuditCommand:
    def test_end_to_end_outputs(self, tmp_path, capsys):
        cohort = make_cohort(tmp_path)
        config = make_run_config(tmp_path, cohort)
        capsys.readouterr()  # discard the synth command's path printout
        assert main(["audit", config]) == EXIT_OK
        printed = capsys.readouterr().out.splitlines()
        report_dir = tmp_path / "report"
        expected = {"report.json", "subgroup.csv", "matched.csv", "discrepancy.csv",
                    "balance.csv", "calibration.csv", "report.md", "calibration_score.svg"}
        assert {os.path.basename(p) for p in printed} == expected
        doc = json.loads((report_dir / "report.json").read_text())
        assert doc["schema_version"] == 1
        assert doc["metadata"]["models"] == ["score"]
        assert doc["metadata"]["seed"] == 5
        assert doc["metadata"]["n_records"] == 800
        assert len(doc["metadata"]["config_hash"]) == 16
        assert doc["subgroup"]
        assert doc["matched"]
        assert doc["balance"]
        assert doc["discrepancy"]
        md = (report_dir / "report.md").read_text()
        assert "(matched)" in md

    def test_run_to_run_byte_stability(self, tmp_path):
        cohort = make_cohort(tmp_path)
        config_a = make_run_config(tmp_path, cohort, name="ra.json",
                                   output_dir=str(tmp_path / "out_a"))
        config_b = make_run_config(tmp_path, cohort, name="rb.json",
                                   output_dir=str(tmp_path / "out_b"))
        assert main(["audit", config_a]) == EXIT_OK
        assert main(["audit", config_b]) == EXIT_OK
        for name in ("report.md", "subgroup.csv", "matched.csv"):
            a = (tmp_path / "out_a" / name).read_bytes()
            b = (tmp_path / "out_b" / name).read_bytes()
            assert a == b

    def test_worker_count_does_not_change_results(self, tmp_path):
        cohort = make_cohort(tmp_path)
        config = make_run_config(tmp_path, cohort)
        assert main(["audit", config, "--workers", "1",
                     "--output-dir", str(tmp_path / "w1")]) == EXIT_OK
        assert main(["audit", config, "--workers", "8",
                     "--output-dir", str(tmp_path / "w8")]) == EXIT_OK
        for name in ("report.json", "subgroup.csv"):
            a = (tmp_path / "w1" / name).read_bytes()
            b = (tmp_path / "w8" / name).read_bytes()
            assert a == b
        # The 4k demo runs its replicates in blocks of several; 37 replicates
        # end every loop on a partial block, which the workers split
        # differently.
        demos = Path(__file__).resolve().parent.parent / "demos"
        demo_cohort = str(tmp_path / "demo_cohort.csv")
        assert main(["synth", str(demos / "synth_demo.json"), demo_cohort]) == EXIT_OK
        doc = json.loads((demos / "audit_demo.json").read_text())
        demo_config = write_json(tmp_path / "demo_run.json", dict(doc, cohort=demo_cohort, formats=["json"]))
        reports = set()
        for workers in ("1", "2", "3"):
            out = tmp_path / f"demo_w{workers}"
            assert main(["audit", demo_config, "--workers", workers, "--n-bootstrap", "37",
                         "--output-dir", str(out)]) == EXIT_OK
            reports.add((out / "report.json").read_bytes())
        assert len(reports) == 1

    def test_seed_override_changes_report(self, tmp_path):
        cohort = make_cohort(tmp_path)
        config = make_run_config(tmp_path, cohort)
        assert main(["audit", config, "--seed", "1",
                     "--output-dir", str(tmp_path / "s1")]) == EXIT_OK
        assert main(["audit", config, "--seed", "2",
                     "--output-dir", str(tmp_path / "s2")]) == EXIT_OK
        a = json.loads((tmp_path / "s1" / "report.json").read_text())
        b = json.loads((tmp_path / "s2" / "report.json").read_text())
        assert a["metadata"]["seed"] == 1
        assert a["subgroup"] != b["subgroup"]

    def test_unknown_protected_column_exits_2_naming_it(self, tmp_path, capsys):
        cohort = make_cohort(tmp_path)
        schema = dict(RUN_SCHEMA)
        schema["protected"] = [{"name": "zodiac"}]
        config = make_run_config(tmp_path, cohort, schema=schema)
        assert main(["audit", config]) == EXIT_CONFIG
        assert "zodiac" in capsys.readouterr().err

    def test_unknown_model_exits_2_naming_it(self, tmp_path, capsys):
        cohort = make_cohort(tmp_path)
        config = make_run_config(tmp_path, cohort, models=["phantom"])
        assert main(["audit", config]) == EXIT_CONFIG
        assert "phantom" in capsys.readouterr().err

    def test_all_cells_insufficient_exits_3(self, tmp_path, capsys):
        cohort_path = tmp_path / "onesided.csv"
        lines = ["id,label,score,g"]
        for i in range(40):
            level = "a" if i < 20 else "b"
            lines.append(f"r{i},1,0.{50 + i % 40:02d},{level}")
        cohort_path.write_text("\n".join(lines) + "\n")
        config = write_json(
            tmp_path / "run.json",
            {
                "cohort": str(cohort_path),
                "schema": {
                    "id_column": "id", "label_column": "label",
                    "score_columns": ["score"], "protected": [{"name": "g"}],
                },
                "audit": {"metrics": ["AUROC"], "n_bootstrap": 10, "min_group_size": 5},
                "output_dir": str(tmp_path / "report"),
                "formats": ["json"],
            },
        )
        assert main(["audit", config]) == EXIT_STATISTICAL
        assert "no audited cell reached sufficiency" in capsys.readouterr().err
        # the report is still written for inspection
        doc = json.loads((tmp_path / "report" / "report.json").read_text())
        assert all(r["status"] == "insufficient" for r in doc["subgroup"])

    def test_contrasts_with_no_pairs_give_insufficient_cells(self, tmp_path):
        # A caliper of 1e-300 standard deviations pairs no record of the demo
        # cohort, and min_matched_n 0 still sends every empty contrast
        # through the matched replicate loop, which resamples zero pairs.
        demos = Path(__file__).resolve().parent.parent / "demos"
        cohort = str(tmp_path / "demo_cohort.csv")
        assert main(["synth", str(demos / "synth_demo.json"), cohort]) == EXIT_OK
        doc = json.loads((demos / "audit_demo.json").read_text())
        doc["audit"].update(caliper_multiplier=1e-300, min_matched_n=0, n_bootstrap=5)
        config = write_json(tmp_path / "run.json", dict(doc, cohort=cohort, output_dir=str(tmp_path / "report")))
        assert main(["audit", config]) == EXIT_OK
        report = json.loads((tmp_path / "report" / "report.json").read_text())
        cells = [c for r in report["matched"] for c in r["cells"]]
        # race has three contrasts seen from two sides, sex one.
        assert len(cells) == 2 * (3 + 1) * len(doc["audit"]["metrics"])
        assert {(c["status"], c["detail"]) for c in cells} == {("insufficient", "0 pairs")}
        assert all(r["status"] == "ok" for r in report["subgroup"])

    def test_non_converged_propensity_fit_reported_failed(self, tmp_path):
        config = make_separated_config(tmp_path)
        assert main(["audit", config]) == EXIT_OK
        doc = json.loads((tmp_path / "report" / "report.json").read_text())
        failed = [r for r in doc["balance"] if "Black" in (r["treated_level"], r["control_level"])]
        assert len(failed) == 2
        for row in failed:
            assert list(row) == ["model", "attribute", "treated_level", "control_level",
                                 "status", "detail", "covariates", "matched_n", "passes_min_n"]
            assert row["status"] == "failed"
            assert row["detail"].startswith("propensity fit did not converge after")
        cells = [c for r in doc["matched"] if r["level"] == "Black" for c in r["cells"]]
        assert cells and all(c["status"] == "failed" for c in cells)
        assert all("did not converge" in c["detail"] for c in cells)

    def test_matched_cells_and_balance_rows_agree(self, tmp_path):
        # Black is separated by sofa (fits fail), White vs Other has fewer than
        # 250 pairs (skipped) and F vs M about 400 (ok).
        config = make_separated_config(tmp_path)
        doc = json.loads(Path(config).read_text())
        doc["audit"]["min_matched_n"] = 500
        write_json(config, doc)
        assert main(["audit", config]) == EXIT_OK
        report = json.loads((tmp_path / "report" / "report.json").read_text())
        cells: dict = {}
        for r in report["matched"]:
            for c in r["cells"]:
                cells.setdefault((r["attribute"], r["level"], c["opponent"]), []).append(c)
        statuses = set()
        for row in report["balance"]:
            attr, treated, control = row["attribute"], row["treated_level"], row["control_level"]
            pair = cells.pop((attr, treated, control)) + cells.pop((attr, control, treated))
            statuses.add(row["status"])
            if row["status"] == "ok":
                assert {c["detail"] for c in pair} == {f"{row['matched_n'] // 2} pairs"}
                assert all(c["result"] is not None for c in pair)
            else:
                assert {(c["status"], c["detail"]) for c in pair} == {(row["status"], row["detail"])}
        assert statuses == {"ok", "skipped", "failed"}
        assert not cells

    def test_balance_before_uses_scored_records(self, tmp_path):
        # A second model scores every record; "score" leaves every third record
        # unscored, and those records, when Black, gain 4 on sofa.  The "before"
        # SMD of "score"'s balance rows must ignore them.
        cohort_path = make_cohort(tmp_path)
        with open(cohort_path, newline="") as fh:
            rows = list(csv.DictReader(fh))
        for i, row in enumerate(rows):
            row["full"] = row["score"]
            if i % 3 == 0:
                row["score"] = ""
                if row["race"] == "Black":
                    row["sofa"] = repr(float(row["sofa"]) + 4.0)
        with open(cohort_path, "w", newline="") as fh:
            writer = csv.DictWriter(fh, fieldnames=list(rows[0]), lineterminator="\n")
            writer.writeheader()
            writer.writerows(rows)
        schema = dict(RUN_SCHEMA, score_columns=["score", "full"])
        config = make_run_config(tmp_path, cohort_path, schema=schema)
        assert main(["audit", config]) == EXIT_OK
        doc = json.loads((tmp_path / "report" / "report.json").read_text())
        (bal,) = [r for r in doc["balance"] if r["model"] == "score"
                  and {r["treated_level"], r["control_level"]} == {"Black", "White"}]
        sofa = np.asarray([float(r["sofa"]) for r in rows])
        race = np.asarray([r["race"] for r in rows])
        scored = np.asarray([r["score"] != "" for r in rows])
        treated = race == bal["treated_level"]
        control = race == bal["control_level"]
        expected = smd(sofa, np.flatnonzero(treated & scored), np.flatnonzero(control & scored))
        everyone = smd(sofa, np.flatnonzero(treated), np.flatnonzero(control))
        assert bal["covariates"][0]["smd_before"] == pytest.approx(expected, rel=1e-12)
        assert abs(everyone - expected) > 0.2

    def test_render_failure_exits_4(self, tmp_path, capsys):
        cohort = make_cohort(tmp_path)
        blocker = tmp_path / "blocked"
        blocker.write_text("a file, not a directory")
        config = make_run_config(tmp_path, cohort, output_dir=str(blocker))
        assert main(["audit", config]) == EXIT_RENDER
        assert "could not write report" in capsys.readouterr().err

    def test_missing_cohort_exits_2(self, tmp_path, capsys):
        config = make_run_config(tmp_path, str(tmp_path / "ghost.csv"))
        assert main(["audit", config]) == EXIT_CONFIG
        assert "cannot read cohort file" in capsys.readouterr().err


    @pytest.mark.parametrize("key, value", [
        ("alpha", float("nan")),
        ("ridge", float("inf")),
        ("caliper_multiplier", float("nan")),
        ("caliper_multiplier", float("inf")),
        ("threshold", float("nan")),
        ("threshold", {"kind": "fixed", "value": float("-inf")}),
        ("n_bootstrap", "NaN"),
        ("calibration_bins", "ten"),
        ("alpha", "x"),
        ("workers", "two"),
        ("n_bootstrap", 2.7),
        ("seed", "3"),
        ("workers", True),
        ("alpha", True),
        ("models", ["score", "score"]),
        ("models", []),
        ("propensity_covariates", ["sofa", "sofa"]),
        ("output_dir", ""),
    ])
    def test_non_finite_config_float_exits_2(self, tmp_path, capsys, key, value):
        unread = str(tmp_path / "unread.csv")
        if key in ("calibration_bins", "workers", "models", "output_dir"):
            config = make_run_config(tmp_path, unread, **{key: value})
        else:
            config = make_run_config(tmp_path, unread, audit=dict(RUN_AUDIT, **{key: value}))
        # The non-finite floats are the NaN/Infinity literals that json.dump
        # writes and json.load accepts; strings, bools and a fractional count
        # are malformed numbers, and an empty or repeated name list or an empty
        # path is malformed.
        number = value["value"] if isinstance(value, dict) else value
        malformed = not (type(number) is float and not math.isfinite(number))
        if not malformed:
            assert "NaN" in Path(config).read_text() or "Infinity" in Path(config).read_text()
        assert main(["audit", config]) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert err.startswith("error: ") and key in err
        assert ("must be a" if malformed else "must be finite") in err
        assert not (tmp_path / "report").exists()

    @pytest.mark.parametrize("command", ["audit", "match"])
    @pytest.mark.parametrize("covariate", ["race", "nope"])
    def test_propensity_covariate_not_declared_exits_2(self, tmp_path, capsys, command, covariate):
        # A protected attribute or an unknown column can never be matched on,
        # so the config is refused before the cohort is read.
        config = make_run_config(tmp_path, str(tmp_path / "unread.csv"),
                                 audit=dict(RUN_AUDIT, propensity_covariates=["sofa", covariate]))
        assert main([command, config]) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert err.startswith("error: propensity_covariates") and repr(covariate) in err
        assert not (tmp_path / "report").exists()

    # An empty output_dir in an audit config file is a case of the test above.
    @pytest.mark.parametrize("command, from_flag", [("audit", True), ("match", False), ("match", True)])
    def test_empty_output_dir_exits_2_before_the_cohort_is_read(self, tmp_path, capsys, command, from_flag):
        unread = str(tmp_path / "unread.csv")
        config = make_run_config(tmp_path, unread, **({} if from_flag else {"output_dir": ""}))
        argv = [command, config] + (["--output-dir", ""] if from_flag else [])
        assert main(argv) == EXIT_CONFIG
        assert capsys.readouterr().err == "error: output_dir must be a directory path, got ''\n"
        assert not (tmp_path / "report").exists()

    @pytest.mark.parametrize("doc_workers, flag", [(0, None), (-1, None), (2, "-7"), (1, "0")])
    def test_workers_below_one_exits_2(self, tmp_path, capsys, doc_workers, flag):
        config = make_run_config(tmp_path, str(tmp_path / "unread.csv"), workers=doc_workers)
        argv = ["audit", config] + ([] if flag is None else ["--workers", flag])
        assert main(argv) == EXIT_CONFIG
        bad = doc_workers if flag is None else flag
        assert f"error: workers must be >= 1, got {bad}" in capsys.readouterr().err
        assert not (tmp_path / "report").exists()

    def test_value_outside_bin_edges_exits_2(self, tmp_path, capsys):
        config = write_aged_cohort(tmp_path)
        assert main(["audit", config]) == EXIT_CONFIG
        assert "error: line 3, column age: value 100.0 falls outside" in capsys.readouterr().err
        assert not (tmp_path / "report").exists()

    def test_models_sharing_a_file_name_exit_2(self, tmp_path, capsys):
        cohort_path, schema = TestCompareCommand().two_model_cohort(tmp_path)
        schema = dict(schema, score_columns=[["a/b", "m1"], ["a-b", "m2"]])
        for command in ("audit", "compare"):
            config = make_run_config(tmp_path, cohort_path, schema=schema, audit={"n_bootstrap": 20})
            assert main([command, config]) == EXIT_CONFIG
            err = capsys.readouterr().err
            assert "'a/b'" in err and "'a-b'" in err and "calibration_a-b.svg" in err
            assert not (tmp_path / "report").exists()

    def test_awkward_model_name_renders_every_format(self, tmp_path):
        import xml.etree.ElementTree as ET

        cohort = make_cohort(tmp_path)
        for name, svg_name in (("risk v2/<b>|x", "calibration_risk-v2--b--x.svg"),
                               ("risk v2\n| x", "calibration_risk-v2---x.svg"),
                               ("risk\r\n| v2\nx", "calibration_risk----v2-x.svg"),
                               ("risk\rv2", "calibration_risk-v2.svg")):
            report_dir = tmp_path / svg_name
            config = make_run_config(tmp_path, cohort, output_dir=str(report_dir),
                                     schema=dict(RUN_SCHEMA, score_columns=[[name, "score"]]))
            assert main(["audit", config]) == EXIT_OK
            assert {p.name for p in report_dir.iterdir()} == {
                "report.json", "subgroup.csv", "matched.csv", "discrepancy.csv", "balance.csv",
                "calibration.csv", "report.md", svg_name}
            assert json.loads((report_dir / "report.json").read_text())["metadata"]["models"] == [name]
            for header, *rows in read_csv_outputs(report_dir).values():
                if "model" in header:
                    assert {row[header.index("model")] for row in rows} == {name}
            svg = ET.parse(report_dir / svg_name).getroot()
            assert any(el.text == f"calibration: {name}" for el in svg.iter())
            md = (report_dir / "report.md").read_text()
            assert f"]({svg_name})" in md
            # The name stays on one line wherever the report shows it.
            assert "- models: " + name.replace("|", "\\|").replace("\r", " ").replace("\n", " ") in md.splitlines()
            tables = 0
            columns = None
            for line in md.splitlines():
                if not line.startswith("|"):
                    columns = None
                    continue
                # Cells split on unescaped pipes; the first row is the header.
                n = len(re.split(r"(?<!\\)\|", line)) - 2
                if columns is None:
                    columns, tables = n, tables + 1
                assert n == columns, line
            assert tables >= 3

    def test_awkward_level_name_reads_back_from_every_csv(self, tmp_path):
        # The cohort quotes the bare carriage return; the report CSVs must too.
        protected = [{"name": "race", "levels": ["Black", "White", "A\rB"], "weights": [0.3, 0.5, 0.2]},
                     SYNTH_DOC["protected"][1]]
        cohort = make_cohort(tmp_path, synth_overrides={"protected": protected})
        config = make_run_config(tmp_path, cohort)
        assert main(["audit", config]) == EXIT_OK
        tables = read_csv_outputs(tmp_path / "report")
        header, *rows = tables["subgroup.csv"]
        race = {row[header.index("level")] for row in rows if row[header.index("attribute")] == "race"}
        assert race == {"Black", "White", "A\rB"}
        header, *rows = tables["balance.csv"]
        assert "A\rB" in {row[header.index("treated_level")] for row in rows} | {
            row[header.index("control_level")] for row in rows}

    @pytest.mark.parametrize("name", ["m\u0001x", "\x00", "m\x0b", "m\x1f", "m\ufffe", "m\uffff"])
    def test_model_name_xml_cannot_carry_exits_2(self, tmp_path, capsys, name):
        # Such a name would title the calibration SVG and leave it unparseable.
        cohort = make_cohort(tmp_path)
        config = make_run_config(tmp_path, cohort, schema=dict(RUN_SCHEMA, score_columns=[[name, "score"]]))
        assert main(["audit", config]) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert err.startswith("error: ") and repr(name) in err and "XML 1.0" in err
        assert not (tmp_path / "report").exists()
        # A surrogate cannot come through a config file (see the test below),
        # so the schema itself is checked for one.
        with pytest.raises(SchemaError, match="XML 1.0"):
            CohortSchema(id_column="id", label_column="label", score_columns=(("m\ud800", "score"),))

    def test_lone_surrogate_in_a_config_exits_2(self, tmp_path, capsys):
        cohort = make_cohort(tmp_path)
        config = make_run_config(tmp_path, cohort, schema=dict(RUN_SCHEMA, score_columns=[["m\ud800", "score"]]))
        assert "\\ud800" in Path(config).read_text()
        assert main(["audit", config]) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "lone surrogate '\\ud800'" in err
        assert not (tmp_path / "report").exists()

        protected = [{"name": "race", "levels": ["Black", "W\udfffte"], "weights": [0.5, 0.5]}]
        synth = write_json(tmp_path / "bad_synth.json", dict(SYNTH_DOC, protected=protected))
        out = tmp_path / "bad.csv"
        assert main(["synth", synth, str(out)]) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "lone surrogate '\\udfff'" in err
        assert not out.exists() and not (tmp_path / "bad.csv.manifest.json").exists()


class TestAuditFuzz:
    """End to end: any value of the numeric audit and run keys ends in one of
    the documented exit codes, never in an exception out of ``main``."""

    HUGE = st.integers(min_value=-2**70, max_value=2**70)
    COUNT = st.one_of(st.integers(-2, 400), HUGE)
    NUMBER = st.one_of(st.floats(0.0, 1.0), st.floats(), st.sampled_from([5e-324, 1e-300, 1e300, 1.7e308]), HUGE)
    # Each key is left at its default or drawn at its edges; workers stays small.
    RUN = st.fixed_dictionaries({"workers": st.integers(-1, 3)}, optional={
        "calibration_bins": st.one_of(st.integers(-2, 12), st.integers(2**53 - 1, 2**53 + 1), HUGE,
                                      st.sampled_from([1e30, 2.5])),
    })
    AUDIT = st.fixed_dictionaries({}, optional={
        "rounding": st.one_of(st.integers(-2, 30), HUGE),
        "min_group_size": COUNT, "min_matched_n": COUNT,
        "caliper_multiplier": st.one_of(st.none(), NUMBER), "ridge": NUMBER, "alpha": NUMBER,
        "threshold": st.one_of(st.just("youden"), NUMBER), "seed": HUGE,
    })

    @pytest.fixture(scope="class")
    def cohort(self, tmp_path_factory):
        return make_cohort(tmp_path_factory.mktemp("fuzz_cohort"), synth_overrides={"n": 300})

    # Bytes put into the cohort file at a drawn offset: a bare carriage
    # return, a NUL, a byte that is not UTF-8, or a field over the csv limit.
    MUTATION = st.one_of(st.none(), st.tuples(
        st.sampled_from([b"\r", b"\x00", b"\xff", b"x" * (csv.field_size_limit() + 1)]),
        st.integers(0, 2**20)))

    # A huge ridge gives equal propensities, and matching's zero-spread
    # fallback warns; the matched cell's detail still reports it.
    @pytest.mark.filterwarnings("ignore:logit propensities have zero spread:UserWarning")
    @settings(max_examples=200)
    @given(run=RUN, audit=AUDIT, mutation=MUTATION)
    def test_fuzzed_audit_exits_with_a_documented_code(self, tmp_path_factory, cohort, run, audit, mutation):
        tmp = tmp_path_factory.mktemp("fuzz_run")
        if mutation is not None:
            insert, at = mutation
            data = Path(cohort).read_bytes()
            at %= len(data) + 1
            cohort = str(tmp / "mutated.csv")
            Path(cohort).write_bytes(data[:at] + insert + data[at:])
        config = make_run_config(tmp, cohort, audit=dict(RUN_AUDIT, n_bootstrap=3, **audit), **run)
        assert main(["audit", config]) in (EXIT_OK, EXIT_CONFIG, EXIT_STATISTICAL, EXIT_RENDER)


class TestCompareCommand:
    def two_model_cohort(self, tmp_path):
        import numpy as np
        from scipy.special import expit

        from biasaudit.cohort import write_cohort
        from helpers import build_cohort

        rng = np.random.default_rng(31)
        n = 600
        x = rng.normal(0, 1, n)
        y = (rng.uniform(0, 1, n) < expit(1.5 * x)).astype(int)
        s1 = expit(1.5 * x + rng.normal(0, 0.3, n))
        s2 = expit(1.5 * x + rng.normal(0, 0.3, n))
        group = ["a" if i % 2 else "b" for i in range(n)]
        cohort = build_cohort(
            labels=y.tolist(),
            scores={"m1": s1.tolist(), "m2": s2.tolist()},
            protected={"g": group},
        )
        path = tmp_path / "two.csv"
        write_cohort(cohort, path)
        schema = {
            "id_column": "pid", "label_column": "label",
            "score_columns": ["m1", "m2"], "protected": [{"name": "g"}],
        }
        return str(path), schema

    def test_compare_writes_comparison_section(self, tmp_path):
        cohort_path, schema = self.two_model_cohort(tmp_path)
        config = write_json(
            tmp_path / "run.json",
            {"cohort": cohort_path, "schema": schema,
             "audit": {"metrics": ["AUROC"], "n_bootstrap": 15, "min_group_size": 20},
             "output_dir": str(tmp_path / "report"), "formats": ["json", "markdown", "csv"]},
        )
        assert main(["compare", config]) == EXIT_OK
        doc = json.loads((tmp_path / "report" / "report.json").read_text())
        assert doc["comparison"] is not None
        assert doc["comparison"]["model_a"] == "m1"
        assert doc["comparison"]["model_b"] == "m2"
        assert set(doc["comparison"]["overall"]) == {"m1", "m2"}
        assert doc["comparison"]["deltas"]
        md = (tmp_path / "report" / "report.md").read_text()
        assert "## Model comparison: m2 minus m1" in md
        assert (tmp_path / "report" / "comparison.csv").exists()

    def test_library_comparison_equals_the_command_output(self, tmp_path):
        import numpy as np

        from biasaudit.audit import compare_models
        from biasaudit.cohort import parse_cohort, with_score_column, write_cohort
        from biasaudit.report import build_bundle, bundle_to_json
        from biasaudit.synth import config_from_dict, generate

        cohort, _ = generate(config_from_dict(SYNTH_DOC))
        fair = cohort.scores["score"][::-1].copy()
        fair[::7] = np.nan  # the second model leaves some records unscored
        path = tmp_path / "two.csv"
        write_cohort(with_score_column(cohort, "fair", "fair", fair), path)
        config = make_run_config(tmp_path, str(path), schema=dict(RUN_SCHEMA, score_columns=["score", "fair"]),
                                 formats=["json"])
        assert main(["compare", config]) == EXIT_OK
        written = json.loads((tmp_path / "report" / "report.json").read_text())["comparison"]
        assert written["deltas"] and any(d["phase"] == "after" for d in written["deltas"])

        rc = load_run_config(config)
        report = compare_models(parse_cohort(rc.cohort, rc.schema), "score", "fair", rc.audit)
        assert json.loads(bundle_to_json(build_bundle({}, comparison=report)))["comparison"] == written

    def test_report_json_key_order_of_every_table(self, tmp_path):
        # report.json writes each result dataclass's fields in declaration
        # order, so this pins both the JSON keys and the field order.
        from biasaudit.cohort import with_score_column, write_cohort
        from biasaudit.synth import config_from_dict, generate

        cohort, _ = generate(config_from_dict(SYNTH_DOC))
        path = tmp_path / "two.csv"
        write_cohort(with_score_column(cohort, "fair", "fair", cohort.scores["score"][::-1].copy()), path)
        config = make_run_config(tmp_path, str(path), schema=dict(RUN_SCHEMA, score_columns=["score", "fair"]),
                                 formats=["json"])
        assert main(["compare", config]) == EXIT_OK
        doc = json.loads((tmp_path / "report" / "report.json").read_text())

        def key_lists(rows) -> set:
            rows = list(rows)
            assert rows
            return {tuple(r) for r in rows}

        result = ("model", "attribute", "level", "metric", "mean_diff", "sd", "t_stat",
                  "p_value", "significant", "n_effective", "status")
        cells = [c for r in doc["matched"] for c in r["cells"]]
        cmp = doc["comparison"]
        assert key_lists(doc["subgroup"]) == {result}
        assert key_lists(doc["matched"]) == {("model", "attribute", "level", "cells")}
        assert key_lists(cells) == {("opponent", "status", "detail", "result")}
        assert key_lists(c["result"] for c in cells if c["result"] is not None) == {result}
        assert key_lists(doc["discrepancy"]) == {("model", "attribute", "metric", "matching", "gap", "n_levels")}
        assert key_lists(doc["calibration"].values()) == {("n_bins", "bins")}
        assert key_lists(b for e in doc["calibration"].values() for b in e["bins"]) == {
            ("mean_score", "positive_fraction", "count")}
        assert list(cmp) == ["model_a", "model_b", "overall", "deltas"]
        assert key_lists(cmp["overall"].values()) == {("n", "threshold", "AUROC", "SENS")}
        assert key_lists(cmp["deltas"]) == {("attribute", "level", "metric", "phase", "opponent", "delta")}
        assert key_lists(r for r in doc["balance"] if r["status"] == "ok") == {
            ("model", "attribute", "treated_level", "control_level", "caliper", "unmatched_treated",
             "matched_n", "passes_min_n", "status", "detail", "covariates")}
        assert key_lists(c for r in doc["balance"] for c in r["covariates"]) == {
            ("name", "smd_before", "smd_after")}

    def test_models_flag_selects_and_orders(self, tmp_path):
        cohort_path, schema = self.two_model_cohort(tmp_path)
        config = write_json(
            tmp_path / "run.json",
            {"cohort": cohort_path, "schema": schema,
             "audit": {"metrics": ["AUROC"], "n_bootstrap": 10, "min_group_size": 20},
             "output_dir": str(tmp_path / "report"), "formats": ["json"]},
        )
        assert main(["compare", config, "--models", "m2", "m1"]) == EXIT_OK
        doc = json.loads((tmp_path / "report" / "report.json").read_text())
        assert doc["comparison"]["model_a"] == "m2"
        assert doc["comparison"]["model_b"] == "m1"

    def test_single_model_cohort_exits_2(self, tmp_path, capsys):
        cohort = make_cohort(tmp_path)
        config = make_run_config(tmp_path, cohort)
        assert main(["compare", config]) == EXIT_CONFIG
        assert "exactly two models" in capsys.readouterr().err

    def test_same_model_twice_exits_2(self, tmp_path, capsys):
        cohort_path, schema = self.two_model_cohort(tmp_path)
        config = write_json(
            tmp_path / "run.json",
            {"cohort": cohort_path, "schema": schema,
             "audit": {"metrics": ["AUROC"], "n_bootstrap": 10, "min_group_size": 20},
             "output_dir": str(tmp_path / "report"), "formats": ["json"]},
        )
        assert main(["compare", config, "--models", "m1", "m1"]) == EXIT_CONFIG
        assert "distinct" in capsys.readouterr().err

    def test_audit_on_two_model_cohort_also_compares(self, tmp_path):
        # audit with exactly two score columns includes the comparison block
        cohort_path, schema = self.two_model_cohort(tmp_path)
        config = write_json(
            tmp_path / "run.json",
            {"cohort": cohort_path, "schema": schema,
             "audit": {"metrics": ["AUROC"], "n_bootstrap": 10, "min_group_size": 20},
             "output_dir": str(tmp_path / "report"), "formats": ["json"]},
        )
        assert main(["audit", config]) == EXIT_OK
        doc = json.loads((tmp_path / "report" / "report.json").read_text())
        assert doc["comparison"] is not None


class TestMatchCommand:
    def test_writes_pairs_and_summary(self, tmp_path, capsys):
        cohort = make_cohort(tmp_path)
        config = make_run_config(tmp_path, cohort)
        capsys.readouterr()  # discard the synth command's path printout
        assert main(["match", config]) == EXIT_OK
        printed = capsys.readouterr().out.splitlines()
        names = {os.path.basename(p) for p in printed}
        # race has 3 levels (3 contrasts) and sex has 2 (1 contrast)
        pair_files = {n for n in names if n.startswith("pairs_")}
        assert len(pair_files) == 4
        assert "matching.json" in names
        doc = json.loads((tmp_path / "report" / "matching.json").read_text())
        assert doc["schema_version"] == 1
        assert len(doc["contrasts"]) == 4
        for row in doc["contrasts"]:
            assert row["status"] in ("ok", "skipped", "failed")
            if row["status"] == "ok":
                assert row["covariates"]
                assert row["pairs_file"] in pair_files
        one_pair_file = tmp_path / "report" / sorted(pair_files)[0]
        header = Path(one_pair_file).read_text().splitlines()[0]
        assert header == "treated_id,control_id,distance"

    def test_non_converged_propensity_fit_reported_failed(self, tmp_path, capsys):
        config = make_separated_config(tmp_path)
        capsys.readouterr()
        assert main(["match", config]) == EXIT_OK
        printed = {os.path.basename(p) for p in capsys.readouterr().out.splitlines()}
        doc = json.loads((tmp_path / "report" / "matching.json").read_text())
        by_status = {}
        for row in doc["contrasts"]:
            by_status.setdefault(row["status"], []).append(row)
        assert len(by_status["failed"]) == 2
        for row in by_status["failed"]:
            assert list(row) == ["attribute", "treated_level", "control_level", "status",
                                 "detail", "matched_n", "passes_min_n", "covariates"]
            assert "Black" in (row["treated_level"], row["control_level"])
            assert row["detail"].startswith("propensity fit did not converge after")
        assert not any("Black" in name for name in printed)

    def test_match_needs_covariates(self, tmp_path, capsys):
        cohort = make_cohort(tmp_path)
        audit = {k: v for k, v in RUN_AUDIT.items() if k != "propensity_covariates"}
        config = make_run_config(tmp_path, cohort, audit=audit)
        assert main(["match", config]) == EXIT_CONFIG
        assert "propensity_covariates" in capsys.readouterr().err

    def test_contrasts_sharing_a_pair_file_exit_2(self, tmp_path, capsys):
        protected = [{"name": "race", "levels": ["x/y", "x-y", "z"], "weights": [0.3, 0.3, 0.4]}]
        covariates = [dict(SYNTH_DOC["covariates"][0], shifts={})]
        cohort = make_cohort(tmp_path, synth_overrides={"protected": protected, "covariates": covariates})
        schema = dict(RUN_SCHEMA, protected=[{"name": "race"}])
        config = make_run_config(tmp_path, cohort, schema=schema)
        capsys.readouterr()
        assert main(["match", config]) == EXIT_CONFIG
        captured = capsys.readouterr()
        assert "'x/y' vs 'z'" in captured.err and "'x-y' vs 'z'" in captured.err
        assert captured.out == ""
        assert not list((tmp_path / "report").glob("pairs_*"))

    def test_skipped_attribute_reported_alike_by_audit_and_match(self, tmp_path, capsys):
        protected = [SYNTH_DOC["protected"][0], {"name": "sex", "levels": ["F"], "weights": [1.0]}]
        cohort = make_cohort(tmp_path, synth_overrides={"protected": protected})
        config = make_run_config(tmp_path, cohort)
        assert main(["audit", config]) == EXIT_OK
        doc = json.loads((tmp_path / "report" / "report.json").read_text())
        [skipped] = doc["metadata"]["skipped_attributes"]
        assert skipped["attribute"] == "sex" and "leaves 1 group(s)" in skipped["reason"]
        assert {r["attribute"] for r in doc["matched"]} == {"race"}
        assert {r["attribute"] for r in doc["balance"]} == {"race"}
        capsys.readouterr()
        assert main(["match", config, "--output-dir", str(tmp_path / "match")]) == EXIT_OK
        assert f"note: skipping 'sex': {skipped['reason']}" in capsys.readouterr().err.splitlines()
        contrasts = json.loads((tmp_path / "match" / "matching.json").read_text())["contrasts"]
        assert {r["attribute"] for r in contrasts} == {"race"}

    def test_skipped_attribute_is_a_bullet_in_report_md(self, tmp_path):
        # "se|x" has one level; the model's name holds a pipe and a line break.
        protected = [SYNTH_DOC["protected"][0], {"name": "se|x", "levels": ["F"], "weights": [1.0]}]
        cohort = make_cohort(tmp_path, synth_overrides={"protected": protected})
        schema = dict(RUN_SCHEMA, protected=[{"name": "race"}, {"name": "se|x"}],
                      score_columns=[["m|1\r\nb", "score"]])
        config = make_run_config(tmp_path, cohort, schema=schema)
        assert main(["audit", config]) == EXIT_OK
        lines = (tmp_path / "report" / "report.md").read_text().splitlines()
        at = lines.index("- skipped_attributes: ")
        assert lines[at + 1:at + 3] == [
            "  - m\\|1  b: se\\|x (partition on 'se\\|x' leaves 1 group(s) at min_group_size=30; nothing to compare)",
            "- threshold_policy: youden",
        ]

    def test_skip_for_one_model_is_listed_with_that_model(self, tmp_path):
        # "s2" scores only the sex=F records, so sex leaves it one group.
        cohort_path = make_cohort(tmp_path)
        with open(cohort_path, newline="") as fh:
            rows = list(csv.DictReader(fh))
        for row in rows:
            row["s2"] = row["score"] if row["sex"] == "F" else ""
        with open(cohort_path, "w", newline="") as fh:
            writer = csv.DictWriter(fh, fieldnames=list(rows[0]), lineterminator="\n")
            writer.writeheader()
            writer.writerows(rows)
        config = make_run_config(tmp_path, cohort_path, schema=dict(RUN_SCHEMA, score_columns=["score", "s2"]))
        assert main(["audit", config]) == EXIT_OK
        doc = json.loads((tmp_path / "report" / "report.json").read_text())
        [skipped] = doc["metadata"]["skipped_attributes"]
        assert (skipped["model"], skipped["attribute"]) == ("s2", "sex")
        assert "leaves 1 group(s)" in skipped["reason"]
        assert {r["attribute"] for r in doc["subgroup"] if r["model"] == "s2"} == {"race"}
        assert {r["attribute"] for r in doc["subgroup"] if r["model"] == "score"} == {"race", "sex"}

    def test_overflowing_covariate_reported_failed(self, tmp_path):
        covariates = [{"name": "sofa", "kind": "gaussian", "mu": -1e308, "sigma": 1.0}]
        cohort = make_cohort(tmp_path, synth_overrides={
            "covariates": covariates, "outcome": {"intercept": -0.5, "weights": {}}})
        config = make_run_config(tmp_path, cohort)
        assert main(["match", config]) == EXIT_OK
        contrasts = json.loads((tmp_path / "report" / "matching.json").read_text())["contrasts"]
        assert len(contrasts) == 4
        for row in contrasts:
            assert row["status"] == "failed"
            assert row["detail"].startswith("covariate 'sofa' overflows standardization")

    def test_zero_spread_caliper_fallback_reported(self, tmp_path, caplog):
        # sofa is constant, so it is dropped and every propensity fit keeps
        # only its intercept: the logits have zero spread and no caliper.
        cohort = make_cohort(tmp_path)
        with open(cohort, encoding="utf-8", newline="") as fh:
            rows = list(csv.DictReader(fh))
        for row in rows:
            row["sofa"] = "1.5"
        with open(cohort, "w", encoding="utf-8", newline="") as fh:
            writer = csv.DictWriter(fh, fieldnames=list(rows[0]), lineterminator="\n")
            writer.writeheader()
            writer.writerows(rows)
        config = make_run_config(tmp_path, cohort)
        with pytest.warns(UserWarning, match="zero spread; caliper disabled"):
            assert main(["match", config]) == EXIT_OK
        assert "dropping constant numeric covariate 'sofa'" in caplog.messages
        contrasts = json.loads((tmp_path / "report" / "matching.json").read_text())["contrasts"]
        assert len(contrasts) == 4
        for row in contrasts:
            assert row["status"] == "ok"
            assert row["caliper"] is None
            assert row["detail"] == "caliper disabled: logit propensities have zero spread"
        with pytest.warns(UserWarning, match="zero spread; caliper disabled"):
            assert main(["audit", config]) == EXIT_OK
        balance = json.loads((tmp_path / "report" / "report.json").read_text())["balance"]
        assert [(r["caliper"], r["detail"]) for r in balance] == [(row["caliper"], row["detail"]) for row in contrasts]

    def test_small_contrasts_marked_skipped(self, tmp_path):
        cohort = make_cohort(tmp_path, synth_overrides={"n": 120})
        audit = dict(RUN_AUDIT)
        audit["min_group_size"] = 10
        audit["min_matched_n"] = 500
        config = make_run_config(tmp_path, cohort, audit=audit)
        assert main(["match", config]) == EXIT_OK
        doc = json.loads((tmp_path / "report" / "matching.json").read_text())
        assert doc["contrasts"]
        for row in doc["contrasts"]:
            assert row["status"] == "skipped"
            assert "below min_matched_n=500" in row["detail"]


class TestParser:
    def test_version_flag(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["--version"])
        assert exc.value.code == 0
        assert "biasaudit" in capsys.readouterr().out

    def test_missing_subcommand_is_usage_error(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main([])
        assert exc.value.code == 2


def test_runtime_imports_no_scipy():
    # numpy is the only runtime dependency; scipy serves the tests' oracles.
    # A fresh interpreter imports every module of the package and checks
    # that none of them pulled scipy in, nor the network and XML stacks
    # (xml.sax.saxutils drags in urllib.request and http.client) that no
    # command needs.
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p))
    code = (
        "import importlib, pkgutil, sys, biasaudit, biasaudit.cli\n"
        "for m in pkgutil.iter_modules(biasaudit.__path__):\n"
        "    if m.name != '__main__':\n"
        "        importlib.import_module('biasaudit.' + m.name)\n"
        "assert not any(m == 'scipy' or m.startswith('scipy.') for m in sys.modules), "
        "sorted(m for m in sys.modules if m.startswith('scipy'))[:5]\n"
        "heavy = [m for m in ('urllib.request', 'http.client', 'xml.sax') if m in sys.modules]\n"
        "assert not heavy, heavy\n"
    )
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr[-2000:]


@pytest.mark.skipif(not Path("/proc/self/task").is_dir(), reason="counts OS threads through /proc/self/task")
@pytest.mark.parametrize("preset", [None, "2"])
def test_import_sizes_the_blas_pool_and_restores_the_environment(preset):
    # Unless the caller sized OpenBLAS's pool, importing the package loads
    # numpy with one thread, and the environment reads as before either way.
    src = str(Path(__file__).resolve().parent.parent / "src")
    names = ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS")
    env = {k: v for k, v in os.environ.items() if k not in names}
    env["PYTHONPATH"] = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
    if preset is not None:
        env["OPENBLAS_NUM_THREADS"] = preset
    code = (
        "import os, sys\n"
        "before = dict(os.environ)\n"
        "import biasaudit\n"
        "assert 'numpy' in sys.modules\n"
        "assert dict(os.environ) == before, set(os.environ.items()) ^ set(before.items())\n"
        "print(len(os.listdir('/proc/self/task')), os.environ.get('OPENBLAS_NUM_THREADS'))\n"
    )
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr[-2000:]
    threads, value = proc.stdout.split()
    if preset is None:
        assert (threads, value) == ("1", "None")
    else:
        assert value == preset
