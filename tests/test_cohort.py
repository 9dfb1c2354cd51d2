import csv
import io
import json
import re
from dataclasses import replace
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from biasaudit import cohort as cohort_module
from biasaudit.audit import attribute_plan
from biasaudit.cohort import (
    MISSING,
    MISSING_LABEL,
    Cohort,
    CohortSchema,
    CovariateColumn,
    ProtectedColumn,
    SubgroupPartition,
    _level_members,
    _partition,
    attribute_values,
    bin_continuous,
    label_values,
    parse_cohort,
    score_values,
    subgroup_partition,
    subset_positions,
    with_score_column,
    write_cohort,
)
from biasaudit.errors import (
    CohortValidationError,
    ConfigError,
    InsufficientDataError,
    RowIssue,
    SchemaError,
)
from biasaudit.synth import config_from_dict, generate

from helpers import build_cohort, traced
from oracles import bucket_partition, record_attribute_values, record_parse_cohort, record_write_cohort


def simple_schema(**kwargs) -> CohortSchema:
    base = dict(
        id_column="pid",
        label_column="label",
        score_columns=(("m", "score"),),
    )
    base.update(kwargs)
    return CohortSchema(**base)


def parse_text(text: str, schema: CohortSchema) -> Cohort:
    return parse_cohort(io.StringIO(text), schema)


class TestSchema:
    def test_requires_a_score_column(self):
        with pytest.raises(SchemaError, match="score column"):
            CohortSchema(id_column="pid", label_column="label", score_columns=())

    def test_rejects_column_role_overlap(self):
        with pytest.raises(SchemaError, match="multiple roles"):
            simple_schema(protected_columns=(ProtectedColumn(name="label"),))

    def test_rejects_duplicate_model_names(self):
        with pytest.raises(SchemaError, match="duplicate model"):
            simple_schema(score_columns=(("m", "s1"), ("m", "s2")))

    def test_rejects_unknown_protected_kind(self):
        with pytest.raises(SchemaError, match="kind"):
            ProtectedColumn(name="age", kind="ordinal")

    def test_bin_edges_require_continuous_kind(self):
        with pytest.raises(SchemaError, match="bin_edges"):
            ProtectedColumn(name="race", kind="categorical", bin_edges=(0, 1))

    def test_unknown_attribute_lookup(self):
        with pytest.raises(ConfigError, match="unknown protected attribute"):
            simple_schema().protected("ghost")

    @pytest.mark.parametrize("delimiter", ['"', "\r", "\n"])
    def test_rejects_a_delimiter_csv_reserves(self, delimiter):
        # Written with such a delimiter, a cohort does not parse back.
        with pytest.raises(SchemaError, match=f"delimiter {re.escape(repr(delimiter))} cannot separate fields"):
            simple_schema(delimiter=delimiter)

    @pytest.mark.parametrize("delimiter", [",", ";", "\t", " ", "|"])
    def test_quoted_cells_round_trip_at_an_accepted_delimiter(self, tmp_path, delimiter):
        schema = simple_schema(protected_columns=(ProtectedColumn(name="g"),))
        text = 'pid,label,score,g\nr1,1,0.7,a\n"r""2",0,0.2,"b""x"\n"r,3",1,0.5,a\n'
        cohort = replace(parse_text(text, schema), schema=replace(schema, delimiter=delimiter))
        assert cohort.ids.tolist() == ["r1", 'r"2', "r,3"]
        write_cohort(cohort, tmp_path / "c.csv")
        assert parse_cohort(tmp_path / "c.csv", cohort.schema) == cohort


class TestParseCohort:
    def test_four_row_file_echoes_input(self):
        text = (
            "pid,label,score,sex\n"
            "a,0,0.1,F\n"
            "b,0,0.4,M\n"
            "c,1,0.35,F\n"
            "d,1,0.8,M\n"
        )
        schema = simple_schema(protected_columns=(ProtectedColumn(name="sex"),))
        cohort = parse_text(text, schema)
        assert cohort.n == 4
        assert [r.id for r in cohort.records] == ["a", "b", "c", "d"]
        assert list(label_values(cohort)) == [0, 0, 1, 1]
        assert list(score_values(cohort, "m")) == [0.1, 0.4, 0.35, 0.8]
        assert cohort.attribute_levels["sex"] == ("F", "M")
        assert cohort.diagnostics == ()

    def test_ids_are_a_read_only_string_column(self):
        cohort = parse_text("pid,label,score\na,0,0.1\nb,1,0.4\n", simple_schema())
        assert cohort.ids.dtype == np.dtypes.StringDType() and not cohort.ids.flags.writeable
        again = replace(cohort, ids=("a", "b"))
        assert again.ids.dtype == np.dtypes.StringDType() and not again.ids.flags.writeable
        assert again == cohort
        assert replace(cohort, ids=["a", "c"]) != cohort

    def test_bad_label_cites_its_line(self):
        text = "pid,label,score\na,0,0.1\nb,2,0.4\n"
        with pytest.raises(CohortValidationError) as err:
            parse_text(text, simple_schema())
        (issue,) = err.value.issues
        assert issue.line == 3
        assert issue.column == "label"
        assert "0 or 1" in issue.message

    def test_lines_are_physical_after_a_quoted_line_break(self):
        # The id "a\nx" spans lines 2 and 3, so the fourth record starts on
        # line 5.
        text = 'pid,label,score\n"a\nx",0,0.1\nb,0,0.2\nc,2,0.4\n'
        with pytest.raises(CohortValidationError) as err:
            parse_text(text, simple_schema())
        assert [(i.line, i.column) for i in err.value.issues] == [(5, "label")]
        text = 'pid,label,score\n"a\nx",0,0.1\nb,1,0.\r4\n'
        with pytest.raises(CohortValidationError) as err:
            parse_text(text, simple_schema())
        assert err.value.issues == [
            RowIssue(4, None, "unreadable csv record: new-line character seen in unquoted field")]
        # A quoted line break in the rejected record itself still names the
        # line the record starts on.
        text = 'pid,label,score\na,0,0.1\n"b\ny",1,0.\r4\n'
        with pytest.raises(CohortValidationError) as err:
            parse_text(text, simple_schema())
        assert [i.line for i in err.value.issues] == [3]

    def test_score_out_of_range(self):
        text = "pid,label,score\na,0,1.2\nb,1,0.4\n"
        with pytest.raises(CohortValidationError) as err:
            parse_text(text, simple_schema())
        (issue,) = err.value.issues
        assert issue.line == 2
        assert "outside [0, 1]" in issue.message

    def test_unparseable_score(self):
        text = "pid,label,score\na,0,high\n"
        with pytest.raises(CohortValidationError, match="unparseable score"):
            parse_text(text, simple_schema())

    def test_non_finite_score_rejected(self):
        text = "pid,label,score\na,0,inf\nb,1,0.5\n"
        with pytest.raises(CohortValidationError, match="unparseable score"):
            parse_text(text, simple_schema())

    def test_duplicate_id(self):
        text = "pid,label,score\na,0,0.1\na,1,0.4\n"
        with pytest.raises(CohortValidationError) as err:
            parse_text(text, simple_schema())
        (issue,) = err.value.issues
        assert issue.line == 3
        assert "duplicate id" in issue.message

    def test_missing_id(self):
        text = "pid,label,score\n,0,0.1\nb,1,0.4\n"
        with pytest.raises(CohortValidationError, match="missing id"):
            parse_text(text, simple_schema())

    def test_ragged_row(self):
        text = "pid,label,score\na,0,0.1\nb,1\n"
        with pytest.raises(CohortValidationError, match="expected 3 fields, found 2"):
            parse_text(text, simple_schema())

    def test_header_missing_columns_named(self):
        text = "pid,label\na,0\n"
        with pytest.raises(SchemaError, match="score"):
            parse_text(text, simple_schema())

    def test_header_naming_a_read_column_twice_is_a_schema_error(self):
        text = "pid,label,score,score\na,0,0.1,0.5\n"
        for parse in (parse_text, lambda text, schema: record_parse_cohort(io.StringIO(text), schema)):
            with pytest.raises(SchemaError, match=r"more than once: score$"):
                parse(text, simple_schema())
        # A column the schema does not read may repeat.
        assert parse_text("pid,label,score,x,x\na,0,0.1,1,2\n", simple_schema()).n == 1

    def test_lone_surrogate_id_in_a_stream_is_an_issue(self):
        # A StringDType id is UTF-8 inside, which a lone surrogate cannot be.
        with pytest.raises(CohortValidationError) as err:
            parse_text("pid,label,score\na\ud800,0,0.1\n", simple_schema())
        assert err.value.issues == [RowIssue(None, None, "cohort stream is not valid UTF-8: surrogates not allowed")]

    @pytest.mark.parametrize("from_path", [False, True])
    def test_byte_order_mark_opening_the_file_is_dropped(self, from_path, tmp_path):
        text = "pid,label,score\na,0,0.1\nb,1,0.4\n"
        if from_path:
            source = tmp_path / "bom.csv"
            source.write_bytes(b"\xef\xbb\xbf" + text.encode("utf-8"))
            cohort = parse_cohort(source, simple_schema())
        else:
            cohort = parse_text("\ufeff" + text, simple_schema())
        assert cohort == parse_text(text, simple_schema())

    def test_all_issues_collected_not_just_first(self):
        text = "pid,label,score\na,2,0.1\nb,0,1.5\nb,1,0.4\n"
        with pytest.raises(CohortValidationError) as err:
            parse_text(text, simple_schema())
        assert len(err.value.issues) == 3
        assert [i.line for i in err.value.issues] == [2, 3, 4]

    def test_missing_label_row_dropped_with_diagnostic(self):
        text = "pid,label,score\na,,0.1\nb,1,0.4\nc,0,0.2\n"
        cohort = parse_text(text, simple_schema())
        assert cohort.n == 2
        assert len(cohort.diagnostics) == 1
        assert cohort.diagnostics[0].line == 2
        assert "label missing" in cohort.diagnostics[0].message

    def test_all_scores_missing_row_dropped(self):
        text = "pid,label,s1,s2\na,0,,NA\nb,1,0.4,0.5\nc,0,0.2,\n"
        schema = simple_schema(score_columns=(("m1", "s1"), ("m2", "s2")))
        cohort = parse_text(text, schema)
        assert cohort.n == 2
        assert "all scores missing" in cohort.diagnostics[0].message
        # partial scores survive as absent keys, surfaced as nan
        assert np.isnan(score_values(cohort, "m2")[1])

    def test_missing_tokens_normalized(self):
        text = "pid,label,score,sex\na,0,0.1,NA\nb,1,0.4,F\n"
        schema = simple_schema(protected_columns=(ProtectedColumn(name="sex"),))
        cohort = parse_text(text, schema)
        assert cohort.records[0].protected["sex"] is MISSING
        assert cohort.attribute_levels["sex"] == ("F",)

    def test_blank_lines_skipped(self):
        text = "pid,label,score\na,0,0.1\n\nb,1,0.4\n"
        assert parse_text(text, simple_schema()).n == 2

    def test_empty_file(self):
        with pytest.raises(CohortValidationError, match="empty cohort"):
            parse_text("", simple_schema())

    def test_no_usable_rows(self):
        text = "pid,label,score\na,,0.1\n"
        with pytest.raises(CohortValidationError, match="no usable rows"):
            parse_text(text, simple_schema())

    def test_binary_covariate_domain(self):
        text = "pid,label,score,flag\na,0,0.1,2\n"
        schema = simple_schema(covariate_columns=(CovariateColumn(name="flag", kind="binary"),))
        with pytest.raises(CohortValidationError, match="binary covariate"):
            parse_text(text, schema)

    @pytest.mark.parametrize("bad", [None, "0x10", "infinity", "1e500"])
    def test_numbers_parse_as_float_does(self, bad):
        # numpy converts a column whole; a cell it rejects sends the column
        # through float() cell by cell, and both must agree with float().
        good = ["1_0", "١٢", " 2e3 ", "0.5", "1e-400", "NA"]
        cells = good + ([] if bad is None else [bad])
        text = "pid,label,score,x\n" + "".join(f"r{k},{k % 2},0.5,{c}\n" for k, c in enumerate(cells))
        schema = simple_schema(covariate_columns=(CovariateColumn(name="x"),))
        if bad is None:
            values = parse_text(text, schema).covariates["x"]
            assert np.array_equal(values, [10.0, 12.0, 2000.0, 0.5, 0.0, np.nan], equal_nan=True)
            return
        with pytest.raises(CohortValidationError) as err:
            parse_text(text, schema)
        assert err.value.issues == [RowIssue(8, "x", f"unparseable numeric value {bad!r}")]

    @pytest.mark.parametrize("line, issue", [
        ("b,1,0.\r4", RowIssue(3, None, "unreadable csv record: new-line character seen in unquoted field")),
        ("b,1," + "9" * (csv.field_size_limit() + 1),
         RowIssue(3, None, f"unreadable csv record: field larger than field limit ({csv.field_size_limit()})")),
    ])
    def test_record_the_csv_reader_rejects_is_an_issue(self, line, issue):
        text = "pid,label,score\na,0,0.1\n" + line + "\nc,0,0.5\n"
        with pytest.raises(CohortValidationError) as err:
            parse_text(text, simple_schema())
        assert err.value.issues == [issue]

    def test_bytes_not_utf8_name_the_file(self, tmp_path):
        path = tmp_path / "latin1.csv"
        path.write_bytes("pid,label,score\nJosé,0,0.1\n".encode("latin-1"))
        with pytest.raises(CohortValidationError) as err:
            parse_cohort(path, simple_schema())
        [issue] = err.value.issues
        assert (issue.line, issue.column) == (None, None)
        assert issue.message.startswith(f"cohort file {str(path)!r} is not valid UTF-8")

    def test_tab_delimiter(self):
        text = "pid\tlabel\tscore\na\t0\t0.1\nb\t1\t0.9\n"
        cohort = parse_text(text, simple_schema(delimiter="\t"))
        assert cohort.n == 2


    def test_value_outside_explicit_edges_is_an_issue(self):
        # Line 5's label is missing, so the row is dropped before binning and
        # its age is never checked.
        text = "pid,label,score,age\na,0,0.1,30\nb,1,0.2,100\nc,0,0.3,17.5\nd,,0.4,120\ne,1,0.5,90\n"
        schema = simple_schema(
            protected_columns=(ProtectedColumn(name="age", kind="continuous", bin_edges=(18, 45, 90)),)
        )
        with pytest.raises(CohortValidationError) as info:
            parse_text(text, schema)
        assert [i.to_dict() for i in info.value.issues] == [
            {"line": 3, "column": "age", "message": "value 100.0 falls outside the bin range [18.0, 90.0]"},
            {"line": 4, "column": "age", "message": "value 17.5 falls outside the bin range [18.0, 90.0]"},
        ]


# Cells the equivalence test draws from, per column: (valid values, values
# each parser must reject).  Ages 10 and 95 are valid for the record-based
# parser and for the edges (0, 50, 100), outside the edges (18, 45, 90).
# Quoted cells hold the delimiter, a quote, or a line break.
_CELLS = {
    "label": (["0", "1", " 1 ", '"0"'], ["2", "yes"]),
    "s1": (["0", "0.25", "0.5", "1", "1.0", " 0.75 ", "1e-1", '" 0.5"'], ["1.5", "-0.1", "nan", "inf", "abc"]),
    "s2": (["0.1", "0.9", "0.5"], ["2"]),
    "g": (["A", "B", "C", " A ", "MISSING", '"A,B"', '"A""B"', '"A\nB"', '" C\r\nD "'], []),
    "age": (["18", "30", "45", "45.0", "60", "90", " 60 "], ["10", "95", "old", "inf"]),
    "x": (["0.5", "-1", "2e3", "1_0", "3", " -1 ", "\t3"], ["y", "nan", '"1,5"']),
    "b": (["0", "1"], ["2"]),
    "u": (["icu", "ward", "MISSING", '"icu, ward"', '"ward\n"'], []),
}


@st.composite
def _cohort_csv(draw):
    """CSV text with missing, bad, duplicate, ragged and blank cells or rows,
    and its schema.  Each example draws its own rates of missing and bad
    cells, so clean files and broken ones both come up."""
    tokens = draw(st.sampled_from([("", "NA"), ("", "NA"), ("NA",), ()]))
    missing_rate = draw(st.sampled_from([0.0, 0.05, 0.2]))
    bad_rate = draw(st.sampled_from([0.0, 0.0, 0.0, 0.02, 0.1]))

    def roll(rate):
        return rate > 0 and draw(st.floats(0, 1)) < rate

    def cell(name):
        valid, bad = _CELLS[name]
        if roll(missing_rate):
            return draw(st.sampled_from(tokens or ("",)))
        if bad and roll(bad_rate):
            return draw(st.sampled_from(bad))
        return draw(st.sampled_from(valid))

    lines = [",".join(["pid", *_CELLS])]
    for k in range(draw(st.integers(0, 12))):
        pid = draw(st.sampled_from([f"p{k}", f"p{k}", f" p{k} ", f'"p,{k}"', f'"p""{k}"', f'"p\r\n{k}"']))
        if roll(bad_rate):
            pid = draw(st.sampled_from(["p0", "", "NA"]))
        row = [pid, *(cell(name) for name in _CELLS)]
        if roll(bad_rate):
            row = row[:-1] if draw(st.booleans()) else row + ["extra"]
        lines.append("" if roll(missing_rate / 2) else ",".join(row))
    edges = draw(st.sampled_from([None, (18.0, 45.0, 90.0), (0.0, 50.0, 100.0)]))
    schema = CohortSchema(
        id_column="pid",
        label_column="label",
        score_columns=(("m1", "s1"), ("m2", "s2")),
        protected_columns=(ProtectedColumn("g"), ProtectedColumn("age", "continuous", edges)),
        covariate_columns=(CovariateColumn("x"), CovariateColumn("b", "binary"),
                           CovariateColumn("u", "categorical")),
        missing_tokens=tokens,
    )
    newline = draw(st.sampled_from(["\n", "\r\n"]))
    return newline.join(lines) + newline, schema


def _outcome(parse, text, schema):
    try:
        return parse(io.StringIO(text), schema), None
    except CohortValidationError as exc:
        return None, exc.issues


def _written(write, cohort):
    buf = io.StringIO()
    try:
        write(cohort, buf)
    except ValueError as exc:
        return str(exc)
    return buf.getvalue()


# Block sizes small enough that a drawn cohort crosses block boundaries.
_SMALL_BLOCKS = st.sampled_from([1, 2, 3, 5])


def _blocks_of(rows: int):
    """Read and write cohorts ``rows`` rows at a time."""
    return mock.patch.object(cohort_module, "_BLOCK_ROWS", rows)


class TestRecordParserEquivalence:
    """The columnar parser against the record-based one it replaced
    (``oracles.record_parse_cohort``), reading and writing in small blocks."""

    @settings(max_examples=400)
    @given(_cohort_csv(), _SMALL_BLOCKS)
    def test_same_cohort_or_same_issues(self, drawn, block_rows):
        with _blocks_of(block_rows):
            self._same_cohort_or_same_issues(*drawn)

    def _same_cohort_or_same_issues(self, text, schema):
        old, old_issues = _outcome(record_parse_cohort, text, schema)
        new, new_issues = _outcome(parse_cohort, text, schema)
        if old is None:
            assert new_issues == old_issues
            return
        # The record-based cohort bins at first use and raises there; the
        # columnar one bins while parsing and reports each such value.
        edges = old.breakpoints.get("age")
        if schema.protected("age").bin_edges is not None:
            line_of, line_no = {}, 1
            reader = csv.reader(io.StringIO(text))
            for row in reader:
                line_of.setdefault(row[0].strip() if row else "", line_no)
                line_no = reader.line_num + 1
            expected = [
                RowIssue(line_of[r.id], "age", f"value {r.protected['age']!r} falls outside the "
                                               f"bin range [{edges[0]}, {edges[-1]}]")
                for r in old.records
                if r.protected["age"] is not MISSING and not edges[0] <= r.protected["age"] <= edges[-1]
            ]
            if expected:
                assert new_issues == expected
                return
        assert new_issues is None
        assert new.records == old.records
        assert (new.attribute_levels, new.breakpoints, new.diagnostics) == (
            old.attribute_levels, old.breakpoints, old.diagnostics)
        for attribute in ("g", "age"):
            assert attribute_values(new, attribute) == record_attribute_values(old, attribute)
        assert label_values(new).tolist() == [r.label for r in old.records]
        for model in ("m1", "m2"):
            assert np.array_equal(score_values(new, model),
                                  [r.scores.get(model, np.nan) for r in old.records], equal_nan=True)
        written = _written(write_cohort, new)
        assert written == _written(record_write_cohort, old)
        if not written.startswith("cohort has missing"):
            # Dropped rows are not written, so only their diagnostics differ.
            assert replace(parse_text(written, schema), diagnostics=new.diagnostics) == new

    @settings(max_examples=100)
    @given(_cohort_csv(), st.one_of(st.none(), st.integers(0, 2**16)), _SMALL_BLOCKS)
    def test_path_parses_like_stream(self, tmp_path_factory, drawn, cr_at, block_rows):
        """A path reads like its text as a stream, also with a bare carriage
        return put in anywhere."""
        text, schema = drawn
        if cr_at is not None:
            cr_at %= len(text) + 1
            text = text[:cr_at] + "\r" + text[cr_at:]
        path = tmp_path_factory.mktemp("fuzz_path") / "cohort.csv"
        path.write_bytes(text.encode("utf-8"))
        with _blocks_of(block_rows):
            from_stream, stream_issues = _outcome(parse_cohort, text, schema)
            try:
                from_path, path_issues = parse_cohort(path, schema), None
            except CohortValidationError as exc:
                from_path, path_issues = None, exc.issues
        assert path_issues == stream_issues
        assert from_path == from_stream


def _parse_from(text: str, schema: CohortSchema, path: Path | None) -> Cohort:
    """Parse ``text`` as a stream, or from ``path`` when one is given."""
    if path is None:
        return parse_text(text, schema)
    path.write_text(text, encoding="utf-8")
    return parse_cohort(path, schema)


class TestBlockBoundaries:
    """Named cases at two rows a block."""

    @pytest.fixture(autouse=True)
    def two_row_blocks(self):
        with _blocks_of(2):
            yield

    def test_issue_on_the_first_row_of_a_later_block(self):
        # Line 3 is ragged, so lines 2 and 4 fill the first block and line 5 starts the second.
        text = "pid,label,score\na,0,0.1\nb,1\nc,1,0.2\nd,2,0.3\ne,0,1.5\n"
        with pytest.raises(CohortValidationError) as err:
            parse_text(text, simple_schema())
        assert err.value.issues == [
            RowIssue(3, None, "expected 3 fields, found 2"),
            RowIssue(5, "label", "label must be 0 or 1, got '2'"),
            RowIssue(6, "score", "score 1.5 outside [0, 1]"),
        ]

    def test_duplicate_id_across_blocks(self):
        # Row c is dropped, yet its id still counts.
        text = "pid,label,score\na,0,0.1\nc,,0.2\nb,1,0.3\na,0,0.4\nc,1,0.5\n"
        with pytest.raises(CohortValidationError) as err:
            parse_text(text, simple_schema())
        assert err.value.issues == [
            RowIssue(5, "pid", "duplicate id 'a'"),
            RowIssue(6, "pid", "duplicate id 'c'"),
        ]

    @pytest.mark.parametrize("block_rows", [1, 2, 3, 4096])
    def test_id_issues_across_a_block_boundary_and_on_a_dropped_row(self, block_rows):
        # Rows b (line 3) and e (line 6) are dropped for a missing label; the
        # ids of dropped rows still count, and a missing id is never a repeat.
        text = ("pid,label,score\na,0,0.1\nb,,0.2\nNA,1,0.3\n,0,0.4\ne,,0.5\n"
                "b,1,0.6\na,0,0.7\nNA,,0.8\ne,1,0.9\nb,0,0.1\n")
        with _blocks_of(block_rows), pytest.raises(CohortValidationError) as err:
            parse_text(text, simple_schema())
        assert err.value.issues == [
            RowIssue(4, "pid", "missing id"),
            RowIssue(5, "pid", "missing id"),
            RowIssue(7, "pid", "duplicate id 'b'"),
            RowIssue(8, "pid", "duplicate id 'a'"),
            RowIssue(9, "pid", "missing id"),
            RowIssue(10, "pid", "duplicate id 'e'"),
            RowIssue(11, "pid", "duplicate id 'b'"),
        ]

    def test_level_first_seen_in_a_dropped_row_is_numbered_where_kept(self):
        text = "pid,label,score,g\na,0,0.1,A\nb,,0.2,C\nc,1,0.3,B\nd,0,0.4,C\ne,1,,D\nf,0,0.6,A\n"
        cohort = parse_text(text, simple_schema(protected_columns=(ProtectedColumn("g"),)))
        assert cohort.attribute_levels["g"] == ("A", "B", "C")
        assert cohort.codes["g"].tolist() == [0, 1, 2, 0]
        assert cohort.ids.tolist() == ["a", "c", "d", "f"]
        assert [(i.line, i.message) for i in cohort.diagnostics] == [
            (3, "label missing; row dropped"), (6, "all scores missing; row dropped")]

    def test_continuous_values_are_binned_over_every_block(self):
        text = "pid,label,score,age\n" + "".join(f"r{k},{k % 2},0.5,{k}\n" for k in range(1, 10))
        schema = simple_schema(protected_columns=(ProtectedColumn("age", "continuous"),))
        cohort = parse_text(text, schema)
        assert cohort.breakpoints["age"] == (1.0, 11 / 3, 19 / 3, 9.0)
        assert cohort.codes["age"].tolist() == [0, 0, 0, 1, 1, 1, 2, 2, 2]

    def test_outside_edges_cites_the_line_in_a_later_block(self):
        text = "pid,label,score,age\na,0,0.1,30\nb,,0.2,99\nc,1,0.3,40\nd,0,0.4,95\n"
        schema = simple_schema(protected_columns=(ProtectedColumn("age", "continuous", (18, 45, 90)),))
        with pytest.raises(CohortValidationError) as err:
            parse_text(text, schema)
        assert err.value.issues == [RowIssue(5, "age", "value 95.0 falls outside the bin range [18.0, 90.0]")]

    @pytest.mark.parametrize("from_path", [False, True])
    def test_unreadable_record_in_a_later_block_wins(self, from_path, tmp_path):
        # Line 2's bad label is in the first block, read before the record the
        # csv reader rejects; only that record is reported.
        text = "pid,label,score\na,7,0.1\nb,1,0.2\nc,0,0.3\nd,1,0.\r4\ne,0,0.5\n"
        with pytest.raises(CohortValidationError) as err:
            _parse_from(text, simple_schema(), tmp_path / "cohort.csv" if from_path else None)
        assert err.value.issues == [
            RowIssue(5, None, "unreadable csv record: new-line character seen in unquoted field")]

    @pytest.mark.parametrize("from_path", [False, True])
    def test_unreadable_record_wins_over_a_missing_header_column(self, from_path, tmp_path):
        text = "pid,label\na,0\nb,1\nc,0\nd,1,0.\r4\n"
        with pytest.raises(CohortValidationError) as err:
            _parse_from(text, simple_schema(), tmp_path / "cohort.csv" if from_path else None)
        assert err.value.issues == [
            RowIssue(5, None, "unreadable csv record: new-line character seen in unquoted field")]

    @pytest.mark.parametrize("from_path", [False, True])
    def test_bytes_not_utf8_in_a_later_block(self, from_path, tmp_path):
        # Past the text layer's first read of 8 KiB, so whole blocks are
        # parsed before the bad byte is decoded.
        rows = "".join(f"r{k:05d},{k % 2},0.5\n" for k in range(3000))
        data = ("pid,label,score\nbad,9,0.5\n" + rows).encode("utf-8") + b"x\xff,0,0.5\n"
        if from_path:
            source = tmp_path / "latin1.csv"
            source.write_bytes(data)
            named = f"cohort file {str(source)!r}"
        else:
            source, named = io.TextIOWrapper(io.BytesIO(data), encoding="utf-8", newline="\n"), "cohort stream"
        with pytest.raises(CohortValidationError) as err:
            parse_cohort(source, simple_schema())
        assert err.value.issues == [RowIssue(None, None, f"{named} is not valid UTF-8: invalid start byte")]


class TestBinContinuous:
    def test_uniform_tertiles_near_equal_thirds(self):
        rng = np.random.default_rng(20240811)
        ages = rng.uniform(14, 102, size=1200).tolist()
        bins = bin_continuous(ages)
        counts = {}
        for b in bins:
            counts[b] = counts.get(b, 0) + 1
        assert all(abs(c - 400) <= 1 for c in counts.values()), counts
        # cross-check against direct quantile counting
        q1, q2 = np.quantile(ages, [1 / 3, 2 / 3])
        assert sum(a < q1 for a in ages) in (399, 400, 401)
        assert sum(a >= q2 for a in ages) in (399, 400, 401)

    def test_explicit_edges_and_closed_last_band(self):
        edges = (18.0, 57.0, 74.0, 90.0)
        values = [18, 56.9, 57, 73, 74, 89, 90]
        bins = bin_continuous(values, edges=edges)
        assert bins == [
            "[18 - 57)",
            "[18 - 57)",
            "[57 - 74)",
            "[57 - 74)",
            "[74 - 90]",
            "[74 - 90]",
            "[74 - 90]",
        ]

    def test_value_outside_explicit_edges(self):
        with pytest.raises(ValueError, match="outside"):
            bin_continuous([17.0, 60.0], edges=(18.0, 57.0, 90.0))

    def test_all_ties_degenerate_quantiles(self):
        with pytest.raises(ValueError, match="explicit bin edges"):
            bin_continuous([1.0, 1.0, 1.0, 1.0])

    def test_all_missing(self):
        with pytest.raises(ValueError, match="no observed values"):
            bin_continuous([MISSING, MISSING])

    def test_fewer_than_three_values(self):
        with pytest.raises(ValueError, match="at least 3"):
            bin_continuous([1.0, 2.0])

    def test_missing_passes_through(self):
        bins = bin_continuous([1.0, MISSING, 2.0, 3.0])
        assert bins[1] is MISSING
        assert bins[0] != bins[3]

    def test_edges_must_increase(self):
        with pytest.raises(ValueError, match="strictly increasing"):
            bin_continuous([1.0, 2.0, 3.0], edges=(0.0, 5.0, 5.0))

    @given(
        st.lists(
            st.floats(min_value=-1e6, max_value=1e6, allow_nan=False),
            min_size=3,
            max_size=60,
        ),
        st.randoms(use_true_random=False),
    )
    def test_tertile_edges_permutation_invariant(self, values, rnd):
        try:
            bins = bin_continuous(values)
        except ValueError:
            return  # tied quantiles: nothing to compare
        perm = list(range(len(values)))
        rnd.shuffle(perm)
        shuffled = bin_continuous([values[i] for i in perm])
        assert [bins[i] for i in perm] == shuffled


class TestSubgroupPartition:
    def test_population_shaped_partition_excludes_small_missing(self):
        race = ["Black"] * 971 + ["White"] * 2747 + [None] * 94
        n = len(race)
        cohort = build_cohort(
            labels=[i % 2 for i in range(n)],
            scores=[0.5] * n,
            protected={"race": race},
        )
        part = subgroup_partition(cohort, "race", min_group_size=100)
        assert {level: len(idx) for level, idx in part.groups} == {
            "Black": 971,
            "White": 2747,
        }
        assert part.excluded == ((MISSING_LABEL, 94, "missing"),)

    def test_missing_becomes_its_own_level_when_large(self):
        race = ["A"] * 150 + ["B"] * 150 + [None] * 120
        cohort = build_cohort(
            labels=[i % 2 for i in range(420)],
            scores=[0.5] * 420,
            protected={"race": race},
        )
        part = subgroup_partition(cohort, "race", min_group_size=100)
        assert part.levels == ("A", "B", MISSING_LABEL)
        assert len(part.groups[-1][1]) == 120

    def test_literal_missing_level_merges_with_missing_values(self):
        g = ["A", "A", "MISSING", None, "B", "B", "A", "B"] * 20
        cohort = build_cohort(labels=[i % 2 for i in range(160)], scores=[0.5] * 160, protected={"g": g})
        part = subgroup_partition(cohort, "g", min_group_size=10)
        assert part.levels == ("A", "B", MISSING_LABEL)
        assert part.groups[-1][1] == tuple(i for i, v in enumerate(g) if v in ("MISSING", None))
        small = subgroup_partition(cohort, "g", min_group_size=50)
        assert small.excluded == ((MISSING_LABEL, 40, "missing"),)

    @given(st.lists(st.sampled_from(["A", "MISSING", None]), min_size=2, max_size=60),
           st.integers(min_value=0, max_value=5))
    def test_partition_labels_are_unique(self, values, min_size):
        n = len(values)
        cohort = build_cohort(labels=[i % 2 for i in range(n)], scores=[0.5] * n, protected={"g": values})
        try:
            part = subgroup_partition(cohort, "g", min_group_size=min_size)
        except InsufficientDataError:
            return
        labels = [level for level, _ in part.groups] + [level for level, _, _ in part.excluded]
        assert len(labels) == len(set(labels))
        groups = dict(part.groups)
        if MISSING_LABEL in groups:
            assert groups[MISSING_LABEL] == tuple(i for i, v in enumerate(values) if v in ("MISSING", None))

    def test_single_level_nothing_to_compare(self):
        cohort = build_cohort(
            labels=[0, 1, 0, 1],
            scores=[0.1, 0.2, 0.3, 0.4],
            protected={"sex": ["F", "F", "F", "F"]},
        )
        with pytest.raises(InsufficientDataError, match="nothing to compare"):
            subgroup_partition(cohort, "sex", min_group_size=1)

    def test_min_zero_keeps_singletons(self):
        cohort = build_cohort(
            labels=[0, 1],
            scores=[0.1, 0.9],
            protected={"sex": ["F", "M"]},
        )
        part = subgroup_partition(cohort, "sex", min_group_size=0)
        assert part.levels == ("F", "M")
        assert all(len(idx) == 1 for _, idx in part.groups)

    def test_too_small_reason(self):
        cohort = build_cohort(
            labels=[0, 1] * 60,
            scores=[0.5] * 120,
            protected={"g": ["A"] * 100 + ["B"] * 15 + ["C"] * 5},
        )
        with pytest.raises(InsufficientDataError):
            subgroup_partition(cohort, "g", min_group_size=100)
        part = subgroup_partition(cohort, "g", min_group_size=10)
        assert part.levels == ("A", "B")
        assert ("C", 5, "too small") in part.excluded

    def test_subset_restricts_counts(self):
        cohort = build_cohort(
            labels=[0, 1] * 10,
            scores=[0.5] * 20,
            protected={"g": ["A", "B"] * 10},
        )
        part = subgroup_partition(cohort, "g", min_group_size=1, subset=range(10))
        assert {level: len(idx) for level, idx in part.groups} == {"A": 5, "B": 5}
        assert all(i < 10 for _, idx in part.groups for i in idx)

    @pytest.mark.parametrize("subset, message", [
        ([-1, -2, 3], r"lie in \[0, 20\)"),
        ([0, 20], r"lie in \[0, 20\)"),
        ([0, 1, 2, 1], "must not repeat"),
        ([0.0, 1.0], "integer record positions"),
        ([[0, 1]], "integer record positions"),
        (np.array([True, False]), "integer record positions"),
    ])
    def test_bad_subset_rejected(self, subset, message):
        cohort = build_cohort(labels=[0, 1] * 10, scores=[0.5] * 20, protected={"g": ["A", "B"] * 10})
        with pytest.raises(ValueError, match=message):
            subgroup_partition(cohort, "g", min_group_size=1, subset=subset)

    def test_subset_positions_keep_the_callers_order(self):
        assert subset_positions([5, 0, 3], 6).tolist() == [5, 0, 3]
        assert subset_positions(np.flatnonzero([0, 1, 1, 0]), 4).dtype == np.int64
        assert subset_positions([], 0).size == 0
        assert subset_positions([2, 2, 0], 3, distinct=False).tolist() == [2, 2, 0]
        with pytest.raises(ValueError, match="must not repeat"):
            subset_positions([2, 0, 2], 3)

    def test_plan_partitions_share_its_read_only_subset(self):
        cohort = build_cohort(labels=[0, 1] * 10, scores=[None, 0.5, 0.6, 0.7] * 5,
                              protected={"g": ["A", "B"] * 10, "h": ["x"] * 10 + ["y"] * 10})
        subset, partitions, _ = attribute_plan(cohort, 1, "score")
        assert not subset.flags.writeable
        assert len(partitions) == 2
        for part in partitions:
            assert np.shares_memory(part.positions, subset)
            assert not part.positions.flags.writeable

    def test_partition_copies_a_writable_subset(self):
        cohort = build_cohort(labels=[0, 1] * 10, scores=[0.5] * 20, protected={"g": ["A", "A", "B", "B"] * 5})
        for subset in (np.arange(1, 20, 2), np.arange(19, 0, -2)):  # sorted, and not
            kept = subset.copy()
            part = subgroup_partition(cohort, "g", min_group_size=1, subset=subset)
            assert not np.shares_memory(part.positions, subset)
            assert subset.flags.writeable
            assert np.array_equal(subset, kept)
            assert part.positions.tolist() == sorted(kept.tolist())

    def test_continuous_attribute_partitions_on_bins(self):
        rng = np.random.default_rng(7)
        ages = rng.uniform(20, 80, size=90).tolist()
        cohort = build_cohort(
            labels=[i % 2 for i in range(90)],
            scores=[0.5] * 90,
            protected={"age": ages},
            protected_kinds={"age": "continuous"},
        )
        part = subgroup_partition(cohort, "age", min_group_size=10)
        assert part.levels == cohort.attribute_levels["age"]
        assert len(part.levels) == 3

    def test_edges_equal_to_six_digits_keep_their_bands_apart(self):
        # Formatted with :g, the first two bands would both read
        # "[1.23456e+06 - 1.23456e+06)" and partition as one level.
        edges = (1234560.0, 1234560.1, 1234560.2, 1234600.0)
        income = [1234560.05, 1234560.15, 1234570.0] * 300
        cohort = build_cohort(
            labels=[i % 2 for i in range(900)],
            scores=[0.5] * 900,
            protected={"income": income},
            protected_kinds={"income": "continuous"},
            bin_edges={"income": edges},
        )
        part = subgroup_partition(cohort, "income", min_group_size=10)
        assert part.levels == ("[1234560.0 - 1234560.1)", "[1234560.1 - 1234560.2)", "[1234560.2 - 1234600.0]")
        assert [len(members) for _, members in part.groups] == [300, 300, 300]
        assert part.excluded == ()
        assert bin_continuous(income[:3], edges=edges) == list(part.levels)

    @given(
        st.lists(st.sampled_from(["A", "B", "C", None]), min_size=2, max_size=80),
        st.integers(min_value=0, max_value=10),
    )
    def test_partition_covers_every_record_once(self, values, min_size):
        n = len(values)
        cohort = build_cohort(
            labels=[i % 2 for i in range(n)],
            scores=[0.5] * n,
            protected={"g": values},
        )
        try:
            part = subgroup_partition(cohort, "g", min_group_size=min_size)
        except InsufficientDataError:
            return
        included = [i for _, idx in part.groups for i in idx]
        assert len(included) == len(set(included))
        assert len(included) + sum(c for _, c, _ in part.excluded) == n
        for level, idx in part.groups:
            assert len(idx) >= (min_size if level != MISSING_LABEL else min_size)

    @settings(max_examples=150)
    @given(data=st.data())
    def test_codes_agree_with_the_bucket_walk(self, data):
        # Missing values, a literal MISSING level, levels the subset leaves
        # empty or small, and repeated positions as group_diffs passes them.
        # Each value's count is drawn, so small and missing levels come up often.
        counts = data.draw(st.tuples(st.integers(1, 8), st.integers(0, 8), st.integers(0, 3), st.integers(0, 3),
                                     st.integers(0, 3)))
        values = data.draw(st.permutations([v for v, c in zip(["A", "B", "C", "MISSING", None], counts)
                                            for _ in range(c)]))
        n = len(values)
        cohort = build_cohort(labels=[i % 2 for i in range(n)], scores=[0.5] * n, protected={"g": values})
        min_size = data.draw(st.integers(0, 4))
        kind = data.draw(st.sampled_from(["all", "distinct", "repeated"]))
        if kind == "all":
            positions = None
        elif kind == "distinct":
            positions = subset_positions(data.draw(st.permutations(range(n)))[:data.draw(st.integers(0, n))], n)
        else:
            positions = subset_positions(data.draw(st.lists(st.integers(0, n - 1), max_size=2 * n)), n, distinct=False)
        try:
            groups, excluded = bucket_partition(cohort, "g", min_size, positions)
        except InsufficientDataError as exc:
            with pytest.raises(InsufficientDataError) as raised:
                _partition(cohort, "g", min_size, positions)
            assert str(raised.value) == str(exc)
            return
        part = _partition(cohort, "g", min_size, positions)
        assert "groups" not in vars(part)  # built only when read
        assert part.levels == tuple(level for level, _ in groups)
        assert part.excluded == excluded
        assert part.groups == groups
        assert part.positions.tolist() == sorted(range(n) if positions is None else positions.tolist())
        for g, (_, idx) in enumerate(groups):
            assert part.positions[part.codes == g].tolist() == list(idx)
        out = {v for level, _, _ in excluded for v in _level_members(level)}
        decoded = attribute_values(cohort, "g")
        assert (part.codes == -1).tolist() == [decoded[i] in out for i in part.positions.tolist()]
        assert part == _partition(cohort, "g", min_size, positions)
        if part.positions.size:
            try:
                fewer = _partition(cohort, "g", min_size, part.positions[1:])
            except InsufficientDataError:
                return
            assert fewer != part

    def test_equality_reads_every_field(self):
        cohort = build_cohort(labels=[0, 1] * 10, scores=[0.5] * 20, protected={"g": ["A", "B"] * 10})
        part = subgroup_partition(cohort, "g", min_group_size=1)
        assert part == SubgroupPartition("g", ("A", "B"), np.arange(20), np.arange(20) % 2)
        for change in ({"attribute": "h"}, {"levels": ("B", "A")}, {"positions": part.positions[::-1]},
                       {"codes": part.codes[::-1]}, {"excluded": (("C", 0, "empty"),)}):
            assert part != replace(part, **change)


    def test_arrays_are_read_only(self):
        cohort = build_cohort(labels=[0, 1] * 10, scores=[0.5] * 20, protected={"g": ["A", "B", "B", "C", "C"] * 4})
        part = subgroup_partition(cohort, "g", min_group_size=5)
        groups = part.groups
        for arr in (part.positions, part.codes):
            with pytest.raises(ValueError):
                arr[:] = 0
        assert groups == tuple((level, tuple(part.positions[part.codes == g].tolist()))
                               for g, level in enumerate(part.levels))


class TestRoundTrip:
    def make_rich_cohort(self) -> Cohort:
        return build_cohort(
            labels=[0, 1, 0, 1, 1, 0],
            scores={
                "m1": [0.1, 0.7, None, 0.3, 0.9, 0.2],
                "m2": [0.2, 0.8, 0.5, None, 0.6, 0.1],
            },
            protected={
                "sex": ["F", "M", None, "F", "M", "F"],
                "age": [22.5, 47.0, 61.25, None, 80.0, 35.5],
            },
            protected_kinds={"age": "continuous"},
            bin_edges={"age": (18.0, 45.0, 65.0, 90.0)},
            covariates={
                "bmi": [21.5, None, 30.0, 24.25, 28.0, 22.0],
                "dm": [0, 1, 1, None, 0, 0],
                "unit": ["icu", "ward", "icu", "ward", None, "icu"],
            },
            covariate_kinds={"dm": "binary", "unit": "categorical"},
        )

    def test_write_then_parse_is_identity(self, tmp_path):
        cohort = self.make_rich_cohort()
        path = tmp_path / "cohort.csv"
        write_cohort(cohort, path)
        again = parse_cohort(path, cohort.schema)
        assert again == cohort

    def test_write_is_idempotent_at_byte_level(self, tmp_path):
        cohort = self.make_rich_cohort()
        p1, p2 = tmp_path / "one.csv", tmp_path / "two.csv"
        write_cohort(cohort, p1)
        write_cohort(parse_cohort(p1, cohort.schema), p2)
        assert p1.read_bytes() == p2.read_bytes()

    def test_bare_carriage_return_survives_write_then_parse(self, tmp_path):
        # The builder's cells are csv text, so the quoted ones hold a bare
        # carriage return after parsing.
        cohort = build_cohort(
            labels=[0, 1, 0],
            scores=[0.1, 0.2, 0.3],
            ids=['"x\ry"', "plain", '"p\rq"'],
            protected={"unit": ['"a\rb"', "icu", "icu"]},
        )
        assert cohort.ids.tolist() == ["x\ry", "plain", "p\rq"]
        path = tmp_path / "c.csv"
        write_cohort(cohort, path)
        assert path.read_bytes().split(b"\n")[1] == b'"x\ry",0,0.1,"a\rb"'
        assert parse_cohort(path, cohort.schema) == cohort
        buf = io.StringIO()
        write_cohort(cohort, buf)
        assert parse_cohort(io.StringIO(buf.getvalue()), cohort.schema) == cohort

    def test_continuous_values_round_trip_as_raw_floats(self, tmp_path):
        cohort = build_cohort(
            labels=[0, 1, 0, 1],
            scores=[0.1, 0.2, 0.3, 0.4],
            protected={"age": [1 / 3, 2 / 3, 0.1, 0.9]},
            protected_kinds={"age": "continuous"},
        )
        path = tmp_path / "c.csv"
        write_cohort(cohort, path)
        again = parse_cohort(path, cohort.schema)
        assert [r.protected["age"] for r in again.records] == [1 / 3, 2 / 3, 0.1, 0.9]
        assert again.breakpoints == cohort.breakpoints


class TestMissingTokenGuard:
    """A cohort with a missing value cannot be written under a schema with no
    missing token, and the refusal comes before anything is written."""

    def cohort_missing(self, column: str) -> Cohort:
        values = {"m1": [0.1, 0.2, 0.3], "m2": [0.4, 0.5, 0.6], "sex": ["F", "M", "F"], "age": [30.0, 40.0, 50.0],
                  "bmi": [21.5, 22.5, 23.5], "dm": [0, 1, 0], "unit": ["icu", "ward", "icu"]}
        values[column][1] = None
        cohort = build_cohort(
            labels=[0, 1, 0],
            scores={m: values[m] for m in ("m1", "m2")},
            protected={p: values[p] for p in ("sex", "age")},
            covariates={c: values[c] for c in ("bmi", "dm", "unit")},
            protected_kinds={"age": "continuous"},
            bin_edges={"age": (18.0, 45.0, 90.0)},
            covariate_kinds={"dm": "binary", "unit": "categorical"},
        )
        return replace(cohort, schema=replace(cohort.schema, missing_tokens=()))

    @pytest.mark.parametrize("column", ["m1", "sex", "age", "bmi", "dm", "unit"])
    def test_refused_before_a_byte_is_written(self, column, tmp_path):
        cohort = self.cohort_missing(column)
        path = tmp_path / "cohort.csv"
        with pytest.raises(ValueError, match="declares no missing tokens"):
            write_cohort(cohort, path)
        assert not path.exists()
        buf = io.StringIO()
        with pytest.raises(ValueError, match="declares no missing tokens"):
            write_cohort(cohort, buf)
        assert buf.getvalue() == ""

    def test_complete_cohort_writes_without_tokens(self):
        cohort = self.cohort_missing("m1")
        complete = replace(cohort, scores={**cohort.scores, "m1": np.array([0.1, 0.2, 0.3])})
        buf = io.StringIO()
        write_cohort(complete, buf)
        assert buf.getvalue().splitlines()[2] == "r0001,1,0.2,0.5,M,40.0,22.5,1,ward"


_DEMO_SYNTH = Path(__file__).resolve().parent.parent / "demos" / "synth_demo.json"


def _demo_cohort(n: int) -> Cohort:
    doc = json.loads(_DEMO_SYNTH.read_text(encoding="utf-8"))
    return generate(config_from_dict(dict(doc, n=n)))[0]


class TestMemory:
    """Cohort text is read and written a block of rows at a time, so the
    text of the whole file is never held at once."""

    def test_write_peak_does_not_grow_with_n(self, tmp_path):
        peaks = []
        for n in (20_000, 40_000):
            cohort = _demo_cohort(n)
            peaks.append(traced(lambda: write_cohort(cohort, tmp_path / "cohort.csv"))[2])
        # 6.7 and 13.2 MB when every cell's text was built before the first line was written.
        assert peaks[1] <= 1.25 * peaks[0], peaks

    def test_parse_holds_little_beyond_the_cohort(self, tmp_path):
        cohort = _demo_cohort(40_000)
        path = tmp_path / "cohort.csv"
        write_cohort(cohort, path)
        parsed, held, peak = traced(lambda: parse_cohort(path, cohort.schema))
        assert parsed == cohort
        # 13.7 MB when every cell's text was held until all columns were read.
        assert peak - held < 8e6, (peak, held)

    def test_ids_hold_under_20_bytes_a_record(self, tmp_path):
        cohort = _demo_cohort(20_000)
        path = tmp_path / "cohort.csv"
        write_cohort(cohort, path)
        parse_cohort(path, cohort.schema)  # numpy's first use of the string type allocates once
        ids, held, _ = traced(lambda: parse_cohort(path, cohort.schema).ids)
        # About 63 bytes a record when the ids were a tuple of str.
        assert held < 20 * len(ids), held


class TestWithScoreColumn:
    def test_appends_model(self):
        cohort = build_cohort(labels=[0, 1], scores=[0.1, 0.9])
        out = with_score_column(cohort, "m2", "m2", [0.3, np.nan])
        assert out.model_names == ("score", "m2")
        assert out.records[0].scores["m2"] == 0.3
        assert "m2" not in out.records[1].scores

    def test_rejects_existing_name(self):
        cohort = build_cohort(labels=[0, 1], scores=[0.1, 0.9])
        with pytest.raises(ConfigError, match="already present"):
            with_score_column(cohort, "score", "s", [0.1, 0.2])

    def test_rejects_out_of_range(self):
        cohort = build_cohort(labels=[0, 1], scores=[0.1, 0.9])
        with pytest.raises(ValueError, match=r"\[0, 1\]"):
            with_score_column(cohort, "m2", "m2", [0.5, 1.5])


class TestAttributeAccess:
    def test_attribute_values_bins_continuous(self):
        cohort = build_cohort(
            labels=[0, 1, 0, 1],
            scores=[0.1, 0.2, 0.3, 0.4],
            protected={"age": [20.0, None, 50.0, 80.0]},
            protected_kinds={"age": "continuous"},
            bin_edges={"age": (18.0, 45.0, 90.0)},
        )
        vals = attribute_values(cohort, "age")
        assert vals[0] == "[18 - 45)"
        assert vals[1] is MISSING
        assert vals[2] == "[45 - 90]"
        assert cohort.attribute_levels["age"] == ("[18 - 45)", "[45 - 90]")

    def test_accessors_return_fresh_copies(self):
        cohort = build_cohort(labels=[0, 1], scores=[0.1, 0.9])
        scores = score_values(cohort, "score")
        scores[0] = np.nan
        labels = label_values(cohort)
        labels[0] = 1
        assert score_values(cohort, "score").tolist() == [0.1, 0.9]
        assert label_values(cohort).tolist() == [0, 1]

    def test_records_are_built_once(self):
        cohort = build_cohort(labels=[0, 1], scores={"m1": [0.1, None], "m2": [0.2, 0.3]},
                              covariates={"x": [None, 2.5]})
        assert cohort.records is cohort.records
        assert cohort.records[1].scores == {"m2": 0.3}
        assert cohort.records[0].covariates == {"x": MISSING}

    def test_score_values_unknown_model(self):
        cohort = build_cohort(labels=[0, 1], scores=[0.1, 0.9])
        with pytest.raises(ConfigError, match="unknown model"):
            score_values(cohort, "ghost")
