"""Cohort data model: ingestion, validation, binning, and subgroup partitions.

A cohort is a flat table of patients: one id column, one binary outcome label,
one score column per model, plus protected attributes and covariates.  Parsing
is strict about anything that would silently corrupt an audit (bad labels,
out-of-range scores, duplicate ids) and lenient only where the downstream
analysis has a well-defined answer (missing values).

A parsed cohort is a set of columns: labels, one score array per model,
level codes per protected attribute and one array per covariate.  Missing
values are nan in a float column and -1 in a code column; wherever values
are handed out one by one (``attribute_values``, ``Cohort.records``) an
absent value is the ``MISSING`` sentinel rather than ``nan`` or ``None``, so
that "absent" is distinguishable from both legitimate data and from bugs.
"""

from __future__ import annotations

import collections
import csv
import itertools
import math
import os
import re
from dataclasses import dataclass, field, fields, replace
from functools import cached_property

import numpy as np
from numpy.dtypes import StringDType

from .errors import (
    CohortValidationError,
    ConfigError,
    InsufficientDataError,
    RowIssue,
    SchemaError,
)


class _MissingType:
    """Singleton marker for an absent value."""

    _instance = None

    def __new__(cls):
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self) -> str:
        return "MISSING"

    def __reduce__(self):
        return (_MissingType, ())


MISSING = _MissingType()

# Pseudo-level label under which records missing a protected attribute are
# grouped, appended last in partitions.
MISSING_LABEL = "MISSING"

# The characters XML 1.0 cannot carry, escaped or not: C0 controls other than
# tab, LF and CR, surrogates, U+FFFE and U+FFFF.  A model name titles its
# calibration SVG, so a name holding one would make that file unparseable.
_NOT_XML = re.compile(r"[\x00-\x08\x0b\x0c\x0e-\x1f\ud800-\udfff\ufffe\uffff]")


def _level_members(level: str) -> tuple:
    """The ``attribute_values`` entries that partition level ``level`` holds:
    MISSING_LABEL stands for the records missing the attribute, merged with a
    literal level of that name."""
    return (level, MISSING) if level == MISSING_LABEL else (level,)


def _same(a, b) -> bool:
    """Field values equal: arrays by value (nan equals nan in float ones),
    dicts key by key whatever their order, anything else by ``==``."""
    if isinstance(a, np.ndarray):
        return isinstance(b, np.ndarray) and np.array_equal(a, b, equal_nan=a.dtype.kind == "f")
    if isinstance(a, dict):
        return isinstance(b, dict) and a.keys() == b.keys() and all(_same(v, b[k]) for k, v in a.items())
    return a == b


def _fields_equal(a, b):
    """``__eq__`` of a dataclass that holds arrays: ``b`` of the same class
    whose every field is ``_same`` as ``a``'s."""
    if not isinstance(b, type(a)):
        return NotImplemented
    return all(_same(getattr(a, f.name), getattr(b, f.name)) for f in fields(a))


_PROTECTED_KINDS = ("categorical", "continuous")
_COVARIATE_KINDS = ("numeric", "binary", "categorical")


@dataclass(frozen=True)
class ProtectedColumn:
    """A protected attribute column.

    Continuous attributes are binned into ordered bands before any grouping:
    either at explicit ``bin_edges`` (a full, strictly increasing breakpoint
    list) or, when ``bin_edges`` is None, at observed tertiles.
    """

    name: str
    kind: str = "categorical"
    bin_edges: tuple[float, ...] | None = None

    def __post_init__(self):
        if self.kind not in _PROTECTED_KINDS:
            raise SchemaError(
                f"protected column {self.name!r}: kind must be one of "
                f"{_PROTECTED_KINDS}, got {self.kind!r}"
            )
        if self.bin_edges is not None:
            if self.kind != "continuous":
                raise SchemaError(
                    f"protected column {self.name!r}: bin_edges only apply to "
                    "continuous columns"
                )
            object.__setattr__(self, "bin_edges", tuple(float(e) for e in self.bin_edges))


@dataclass(frozen=True)
class CovariateColumn:
    name: str
    kind: str = "numeric"

    def __post_init__(self):
        if self.kind not in _COVARIATE_KINDS:
            raise SchemaError(
                f"covariate column {self.name!r}: kind must be one of "
                f"{_COVARIATE_KINDS}, got {self.kind!r}"
            )


@dataclass(frozen=True)
class CohortSchema:
    """Names and roles of every column the parser should read.

    ``score_columns`` maps model names to file columns, in report order.
    ``missing_tokens`` are the exact strings (after whitespace stripping)
    treated as absent values; matching is case-sensitive.
    """

    id_column: str
    label_column: str
    score_columns: tuple[tuple[str, str], ...]
    protected_columns: tuple[ProtectedColumn, ...] = ()
    covariate_columns: tuple[CovariateColumn, ...] = ()
    missing_tokens: tuple[str, ...] = ("", "NA")
    delimiter: str = ","

    def __post_init__(self):
        object.__setattr__(self, "score_columns", tuple((str(m), str(c)) for m, c in self.score_columns))
        object.__setattr__(self, "protected_columns", tuple(self.protected_columns))
        object.__setattr__(self, "covariate_columns", tuple(self.covariate_columns))
        object.__setattr__(self, "missing_tokens", tuple(self.missing_tokens))
        if not self.score_columns:
            raise SchemaError("schema needs at least one score column")
        if self.delimiter in ('"', "\r", "\n"):
            raise SchemaError(f"delimiter {self.delimiter!r} cannot separate fields: "
                              "csv keeps the quote and line breaks for quoting and records")
        names = [self.id_column, self.label_column]
        names += [c for _, c in self.score_columns]
        names += [p.name for p in self.protected_columns]
        names += [c.name for c in self.covariate_columns]
        dupes = sorted({n for n in names if names.count(n) > 1})
        if dupes:
            raise SchemaError(f"schema assigns multiple roles to column(s): {', '.join(dupes)}")
        models = [m for m, _ in self.score_columns]
        if len(set(models)) != len(models):
            raise SchemaError("duplicate model names in score_columns")
        bad = [m for m in models if _NOT_XML.search(m)]
        if bad:
            raise SchemaError(f"model name(s) {', '.join(map(repr, bad))} hold a character XML 1.0 cannot carry "
                              "(a control character, a surrogate, U+FFFE or U+FFFF)")

    @property
    def model_names(self) -> tuple[str, ...]:
        return tuple(m for m, _ in self.score_columns)

    def protected(self, name: str) -> ProtectedColumn:
        for col in self.protected_columns:
            if col.name == name:
                return col
        raise ConfigError(f"unknown protected attribute {name!r}")


@dataclass(frozen=True)
class CohortRecord:
    """One row of the cohort, as ``Cohort.records`` presents it.

    ``scores`` holds only the models that scored this record (absent scores
    are simply missing keys); ``protected`` keeps continuous attributes as raw
    floats; ``covariates`` values are float, int 0/1, str, or MISSING
    depending on the declared kind.
    """

    id: str
    label: int
    scores: dict
    protected: dict
    covariates: dict


@dataclass(frozen=True, eq=False)
class Cohort:
    """An immutable, validated cohort stored as read-only columns.

    ``labels`` is int64; ``scores`` holds a float array per model, nan where
    unscored; ``codes`` holds per protected attribute int64 codes into
    ``attribute_levels``, -1 where missing; ``continuous`` keeps the raw
    floats of continuous attributes; ``covariates`` holds floats for numeric
    and binary covariates (nan where missing) and codes into
    ``covariate_levels`` for categorical ones.

    ``ids`` is a ``StringDType`` array, made from any sequence of ``str``.
    ``attribute_levels`` fixes the reporting order of subgroup levels: for
    categorical attributes (and categorical covariates), distinct values in
    first-appearance order; for continuous attributes, bin labels in
    ascending order of the resolved ``breakpoints``.  ``diagnostics`` records
    rows dropped during parsing (and why).
    """

    schema: CohortSchema
    ids: np.ndarray
    labels: np.ndarray
    scores: dict[str, np.ndarray]
    codes: dict[str, np.ndarray]
    covariates: dict[str, np.ndarray]
    attribute_levels: dict[str, tuple[str, ...]]
    covariate_levels: dict[str, tuple[str, ...]] = field(default_factory=dict)
    continuous: dict[str, np.ndarray] = field(default_factory=dict)
    breakpoints: dict[str, tuple[float, ...]] = field(default_factory=dict)
    diagnostics: tuple[RowIssue, ...] = ()

    def __post_init__(self):
        if not (isinstance(self.ids, np.ndarray) and self.ids.dtype == StringDType()):
            object.__setattr__(self, "ids", np.array(self.ids, dtype=StringDType()))
        for arr in (self.ids, *self._arrays()):
            arr.flags.writeable = False

    def _arrays(self) -> tuple[np.ndarray, ...]:
        return (self.labels, *self.scores.values(), *self.codes.values(),
                *self.continuous.values(), *self.covariates.values())

    __eq__ = _fields_equal

    @property
    def n(self) -> int:
        return len(self.ids)

    @property
    def model_names(self) -> tuple[str, ...]:
        return self.schema.model_names

    @cached_property
    def records(self) -> tuple[CohortRecord, ...]:
        """The rows as CohortRecords, built on first access."""
        columns = _python_columns(self)
        scores = [(model, columns[name]) for model, name in self.schema.score_columns]
        protected = [(col.name, columns[col.name]) for col in self.schema.protected_columns]
        covariates = [(col.name, columns[col.name]) for col in self.schema.covariate_columns]
        return tuple(
            CohortRecord(
                id=rid,
                label=label,
                scores={m: s[i] for m, s in scores if s[i] is not MISSING},
                protected={name: v[i] for name, v in protected},
                covariates={name: v[i] for name, v in covariates},
            )
            for i, (rid, label) in enumerate(zip(self.ids.tolist(), columns[self.schema.label_column]))
        )


def _present(values: np.ndarray, cast) -> list:
    """Python values of a float column, MISSING where nan."""
    out = values.tolist() if cast is float else [v if v != v else cast(v) for v in values.tolist()]
    for k in np.flatnonzero(np.isnan(values)).tolist():
        out[k] = MISSING
    return out


def _decode(codes: np.ndarray, levels: tuple) -> list:
    """The level each code names, MISSING where the code is -1."""
    lookup = np.empty(len(levels) + 1, dtype=object)
    lookup[:] = (*levels, MISSING)
    return lookup[codes].tolist()


def _bin_labels(breakpoints: tuple[float, ...]) -> tuple[str, ...]:
    """Band labels with edges formatted ``:g``; where two such labels collide
    (``:g`` keeps 6 significant digits), every edge is its exact ``repr``."""
    last = len(breakpoints) - 2
    for edge in ("{:g}", "{!r}"):
        labels = tuple(f"[{edge.format(a)} - {edge.format(b)}{']' if i == last else ')'}"
                       for i, (a, b) in enumerate(zip(breakpoints, breakpoints[1:])))
        if len(set(labels)) == len(labels):
            break
    return labels


def _resolve_breakpoints(observed: np.ndarray, edges: tuple[float, ...] | None) -> tuple[float, ...]:
    """Breakpoints for binning: explicit edges, or min/tertile/tertile/max."""
    if edges is not None:
        bp = tuple(float(e) for e in edges)
        if len(bp) < 2:
            raise ValueError("explicit bin edges need at least two breakpoints")
    else:
        if observed.size == 0:
            raise ValueError("cannot derive tertiles: no observed values")
        if observed.size < 3:
            raise ValueError(
                f"tertile binning needs at least 3 non-missing values, got {observed.size}"
            )
        q1, q2 = np.quantile(observed, [1.0 / 3.0, 2.0 / 3.0])
        bp = (float(observed.min()), float(q1), float(q2), float(observed.max()))
    for a, b in zip(bp, bp[1:]):
        if not a < b:
            raise ValueError(
                f"bin breakpoints must be strictly increasing, got {bp}; "
                "the data is too tied for tertiles, supply explicit bin edges"
            )
    return bp


def _outside_message(value: float, breakpoints: tuple[float, ...]) -> str:
    return f"value {value!r} falls outside the bin range [{breakpoints[0]}, {breakpoints[-1]}]"


def _bin_codes(values: np.ndarray, breakpoints: tuple[float, ...]) -> np.ndarray:
    """Band index of each value: bands are left-closed, the last one also
    right-closed; -1 for nan and for values outside the breakpoints."""
    codes = np.searchsorted(breakpoints, values, side="right") - 1
    codes[values == breakpoints[-1]] = len(breakpoints) - 2
    codes[np.isnan(values) | (values < breakpoints[0]) | (values > breakpoints[-1])] = -1
    return codes


def bin_continuous(values, edges: tuple[float, ...] | None = None) -> list:
    """Bin numeric values into labelled bands; MISSING passes through.

    With ``edges=None`` the bands are observed tertiles: breakpoints at the
    minimum, the 1/3 and 2/3 quantiles (linear interpolation), and the
    maximum.  Explicit ``edges`` are taken as the full breakpoint list.  Bands
    are left-closed, the last band right-closed, labelled like
    ``"[14 - 52)"`` and ``"[67 - 102]"`` (see ``_bin_labels``).

    Raises ValueError when breakpoints are not strictly increasing (tied
    data under tertiles) or an observed value falls outside explicit edges.
    """
    vals = list(values)
    present = np.asarray([v is not MISSING for v in vals], dtype=bool)
    raw = np.asarray([np.nan if v is MISSING else float(v) for v in vals], dtype=float)
    bp = _resolve_breakpoints(raw[present], edges)
    codes = _bin_codes(raw, bp)
    outside = np.flatnonzero(present & (codes < 0))
    if outside.size:
        raise ValueError(_outside_message(float(raw[outside[0]]), bp))
    return _decode(codes, _bin_labels(bp))


def attribute_values(cohort: Cohort, attribute: str) -> list:
    """Per-record level labels for one protected attribute.

    Categorical values come back as-is; continuous values as the label of
    their bin.  MISSING stays MISSING.
    """
    cohort.schema.protected(attribute)
    return _decode(cohort.codes[attribute], cohort.attribute_levels[attribute])


def label_values(cohort: Cohort) -> np.ndarray:
    """Labels as a fresh int64 array."""
    return cohort.labels.copy()


def score_values(cohort: Cohort, model: str) -> np.ndarray:
    """Scores for one model as a fresh float array, nan where the record was unscored."""
    if model not in cohort.model_names:
        raise ConfigError(f"unknown model {model!r}; cohort has {cohort.model_names}")
    return cohort.scores[model].copy()


@dataclass(frozen=True, eq=False)
class SubgroupPartition:
    """One protected attribute's kept ``levels`` in reporting order (missing
    pseudo-level last), the sorted record ``positions`` covered (repeats
    allowed), each one's ``codes`` (its level's index in ``levels``, -1 where
    excluded) and the ``excluded`` (level, count, reason), reason "too small",
    "missing" or "empty".  ``groups``, (level, positions) per kept level, is
    built when first read."""

    attribute: str
    levels: tuple[str, ...]
    positions: np.ndarray
    codes: np.ndarray
    excluded: tuple[tuple[str, int, str], ...] = ()

    def __post_init__(self):
        for arr in (self.positions, self.codes):
            arr.flags.writeable = False

    __eq__ = _fields_equal

    @cached_property
    def groups(self) -> tuple[tuple[str, tuple[int, ...]], ...]:
        return tuple((level, tuple(self.positions[self.codes == g].tolist())) for g, level in enumerate(self.levels))


def subset_positions(subset, n: int, *, distinct: bool = True) -> np.ndarray:
    """``subset`` as int64 record positions, in the caller's order.

    Raises ValueError unless ``subset`` is a 1-d sequence of integers in
    ``[0, n)`` that, with ``distinct``, repeats no position.  An increasing
    array, such as ``np.flatnonzero`` output, needs no repeat count.
    """
    positions = np.asarray(subset if isinstance(subset, np.ndarray) else list(subset))
    if positions.ndim != 1 or (positions.size and not np.issubdtype(positions.dtype, np.integer)):
        raise ValueError("a subset must be a 1-d sequence of integer record positions")
    positions = positions.astype(np.int64, copy=False)
    if positions.size and (positions.min() < 0 or positions.max() >= n):
        raise ValueError(f"subset positions must lie in [0, {n}), "
                         f"got {positions.min()} to {positions.max()}")
    if distinct and np.any(positions[1:] <= positions[:-1]) and np.bincount(positions).max() > 1:
        raise ValueError("a subset must not repeat a record position")
    return positions


def subgroup_partition(
    cohort: Cohort,
    attribute: str,
    min_group_size: int = 100,
    subset=None,
) -> SubgroupPartition:
    """Split record indices by protected-attribute level.

    Levels with fewer than ``min_group_size`` members are excluded (reason
    "too small"); records missing the attribute form their own pseudo-level
    MISSING_LABEL, merged with a literal level of that name and placed last,
    kept if it clears the same threshold and excluded with reason "missing"
    otherwise.  ``subset`` restricts the records considered (distinct
    positions, e.g. only those a model actually scored; see
    ``subset_positions``).  Raises InsufficientDataError when fewer than two
    groups survive, since a diff-from-average audit needs something to
    compare.
    """
    positions = None if subset is None else subset_positions(subset, cohort.n)
    return _partition(cohort, attribute, min_group_size, positions)


def _partition(cohort: Cohort, attribute: str, min_group_size: int, positions) -> SubgroupPartition:
    """``subgroup_partition`` over checked ``positions`` (all records when
    None), which may repeat a record: a group then lists it as often.  A
    value's slot is its level's index; MISSING and a literal MISSING level
    share one more, last.  One ``bincount`` sizes every slot.  Read-only
    sorted ``positions``, such as a plan's subset, are kept as they are."""
    levels = cohort.attribute_levels[attribute]
    slot_of = {level: s for s, level in enumerate(levels)}
    slot_of.update(dict.fromkeys(_level_members(MISSING_LABEL), len(levels)))
    values = attribute_values(cohort, attribute)
    if positions is None:
        positions = np.arange(cohort.n)
    elif positions.flags.writeable or np.any(positions[1:] < positions[:-1]):
        positions = np.sort(positions)  # a copy: the caller's array is never aliased or frozen
    slots = np.fromiter(map(slot_of.__getitem__, values), dtype=np.int64, count=len(values))[positions]
    sizes = np.bincount(slots, minlength=len(levels) + 1).tolist()

    kept, excluded = [], []
    for s, (level, size) in enumerate(zip((*levels, MISSING_LABEL), sizes)):
        last = s == len(levels)
        if level == MISSING_LABEL and not last or last and not size:
            continue  # a literal MISSING level counts in the last slot, omitted when empty
        if size and size >= min_group_size:
            kept.append(s)
        else:
            excluded.append((level, size, "missing" if last else "too small" if size else "empty"))

    if len(kept) < 2:
        raise InsufficientDataError(
            f"partition on {attribute!r} leaves {len(kept)} group(s) at "
            f"min_group_size={min_group_size}; nothing to compare"
        )
    code_of = np.full(len(levels) + 1, -1, dtype=np.int64)
    code_of[kept] = range(len(kept))
    return SubgroupPartition(attribute, tuple((*levels, MISSING_LABEL)[s] for s in kept), positions,
                             code_of[slots], tuple(excluded))


def _to_float(text) -> float:
    """``float(text)``, nan when it does not parse (or is None)."""
    try:
        return float(text)
    except (TypeError, ValueError):
        return math.nan


# The code of each cell a 0/1 column may hold, and the value of each code.
# Any other text codes as 3; it is an issue, so its value is never used.
_ZERO_ONE = {"0": 0, "1": 1, None: 2}
_ZERO_ONE_VALUES = np.array([0.0, 1.0, np.nan, 0.0])

# Cohort text is read and written this many rows at a time, in the manner of
# ``metrics._BLOCK_CELLS``, so no step holds every cell as a Python string.
_BLOCK_ROWS = 4096


def _file_columns(schema: CohortSchema) -> list[str]:
    """The columns a schema reads, in column rank order: id, label, scores,
    protected attributes, covariates."""
    return [schema.id_column, schema.label_column, *(c for _, c in schema.score_columns),
            *(p.name for p in schema.protected_columns), *(c.name for c in schema.covariate_columns)]


def _read_table(fh, delimiter: str, issues: list):
    """Yield the stripped header of a delimited stream, then its other
    non-blank rows of the header's width in blocks of up to ``_BLOCK_ROWS``:
    each the list of its rows' line numbers and their cells in one flat
    row-major list.  A ragged row adds a (line, -1, issue) entry to
    ``issues`` instead.  A byte order mark opening the header is dropped.

    A row's line number is the physical line its record starts on, so a
    quoted line break inside an earlier record moves it.  A record the csv
    reader rejects (a bare carriage return in an unquoted field, a field over
    ``csv.field_size_limit()``) stops the read with a CohortValidationError
    naming the line it starts on.
    """
    reader = csv.reader(fh, delimiter=delimiter)
    last = 0  # the last physical line of the last record read
    try:
        header = next(reader, None)
        if header is None:
            raise CohortValidationError([RowIssue(None, None, "empty cohort file")])
        last = reader.line_num
        if header:
            header[0] = header[0].removeprefix("\ufeff")  # a stream's byte order mark
        yield [h.strip() for h in header]
        width = len(header)
        lines: list[int] = []
        flat: list[str] = []
        for row in reader:
            line_no, last = last + 1, reader.line_num
            if not "".join(row).strip():
                continue
            if len(row) != width:
                issues.append((line_no, -1, RowIssue(line_no, None, f"expected {width} fields, found {len(row)}")))
                continue
            lines.append(line_no)
            flat += row
            if len(lines) == _BLOCK_ROWS:
                yield lines, flat
                lines, flat = [], []
        if lines:
            yield lines, flat
    except csv.Error as exc:
        # Drop the reader's hint about newline="", which does not apply here.
        reason = str(exc).split(" - do you need")[0]
        raise CohortValidationError([RowIssue(last + 1, None, f"unreadable csv record: {reason}")]) from None


def parse_cohort(source, schema: CohortSchema) -> Cohort:
    """Read and validate a delimited cohort file.

    ``source`` is a path or an open text stream.  Rows with a missing label or
    with every score missing are dropped and logged in ``diagnostics``; any
    other defect (malformed number, label outside {0, 1}, score outside
    [0, 1], missing or duplicate id, ragged row, continuous value outside its
    explicit bin edges) is collected and raised as a CohortValidationError
    listing each offending line.  So is a file that is not UTF-8 or holds a
    record the csv reader rejects, wherever it lies.  A header that lacks a
    column the schema reads, or names one more than once, is a SchemaError.

    Issues come in line order, and within a line in column order (id,
    label, scores, protected attributes, covariates).

    The csv reader runs on the open file or stream; a path is opened as
    UTF-8, with or without a byte order mark, and split into lines at
    ``\\n`` only.  Rows are read ``_BLOCK_ROWS`` at a time, and each block's
    cells become column pieces (ids, numbers, 0/1 codes, level codes) before
    the next block is read, so only one block's cell text is alive at once.
    Each row leaves its id and its line number, and each kept row its
    values.  After the last block, duplicate ids are found by one stable
    sort of every row's id, and continuous attributes are binned.
    """
    if hasattr(source, "read"):
        return _parse(source, schema, "cohort stream")
    with open(os.fspath(source), "r", encoding="utf-8-sig", newline="\n") as fh:
        return _parse(fh, schema, f"cohort file {os.fspath(source)!r}")


def _parse(fh, schema: CohortSchema, where: str) -> Cohort:
    """``parse_cohort`` on an open text stream, which ``where`` names."""
    required = _file_columns(schema)
    rank = {name: r for r, name in enumerate(required)}
    tokens = set(schema.missing_tokens)
    token_ids = np.array(schema.missing_tokens, dtype=StringDType())
    # issues: (line, column rank, issue), raised in line-then-column order.
    issues: list = []
    dropped: list[RowIssue] = []
    # Per row, gathered a block at a time after an empty first piece: its id,
    # its line and whether it is kept.
    row_ids: list[np.ndarray] = [np.array([], dtype=StringDType())]
    row_lines: list[np.ndarray] = [np.array([], dtype=np.int64)]
    row_kept: list[np.ndarray] = [np.array([], dtype=bool)]
    # Per kept row, each column's value.
    pieces: dict[str, list[np.ndarray]] = {name: [] for name in required[1:]}
    # Categorical levels, numbered in first-appearance order among kept rows.
    level_index: dict[str, dict[str, int]] = {
        col.name: {} for col in (*schema.protected_columns, *schema.covariate_columns) if col.kind == "categorical"}

    def check() -> None:
        if issues:
            raise CohortValidationError([issue for *_, issue in sorted(issues, key=lambda t: t[:2])])

    # The helpers below read the block at hand: its ``lines``, ``table`` and size ``m``.
    def flag(rows_at, name: str, message) -> None:
        for k in np.asarray(rows_at, dtype=np.int64).tolist():
            line = int(lines[k])
            issues.append((line, rank[name], RowIssue(line, name, message(k))))

    def cells(name: str) -> list:
        """Stripped cells of one column, None for a missing token."""
        return [None if c in tokens else c for c in map(str.strip, table[name])]

    def floats(name: str, what: str) -> np.ndarray:
        raw = cells(name)
        try:
            # numpy converts text as float() does, and None to nan.
            values = np.array(raw, dtype=float)
        except (TypeError, ValueError):
            values = np.fromiter(map(_to_float, raw), dtype=float, count=m)
        unparseable = [k for k in np.flatnonzero(~np.isfinite(values)).tolist() if raw[k] is not None]
        flag(unparseable, name, lambda k: f"unparseable {what} {raw[k]!r}")
        values[unparseable] = np.nan
        return values

    def zero_one(name: str, what: str) -> np.ndarray:
        raw = cells(name)
        codes = np.fromiter(map(_ZERO_ONE.get, raw, itertools.repeat(3)), dtype=np.int64, count=m)
        flag(np.flatnonzero(codes == 3), name, lambda k: f"{what} must be 0 or 1, got {raw[k]!r}")
        return _ZERO_ONE_VALUES[codes]

    rows = _read_table(fh, schema.delimiter, issues)
    try:
        header = next(rows)
        absent = [c for c in required if c not in header]
        repeated = [c for c in required if header.count(c) > 1]
        if absent or repeated:
            collections.deque(rows, maxlen=0)  # an unreadable record or byte later on still wins
            raise SchemaError(f"cohort header is missing column(s): {', '.join(absent)}" if absent else
                              f"cohort header names column(s) more than once: {', '.join(repeated)}")
        position = {name: header.index(name) for name in required}
        for lines, flat in rows:
            m = len(lines)
            table = {name: flat[position[name]::len(header)] for name in required}
            del flat

            block_ids = np.array(list(map(str.strip, table[schema.id_column])), dtype=StringDType())
            flag(np.flatnonzero(np.isin(block_ids, token_ids)), schema.id_column, lambda k: "missing id")
            read: dict[str, list | np.ndarray] = {schema.label_column: zero_one(schema.label_column, "label")}
            for _, name in schema.score_columns:
                values = read[name] = floats(name, "score")
                flag(np.flatnonzero((values < 0.0) | (values > 1.0)), name,
                     lambda k: f"score {float(values[k])} outside [0, 1]")
            for col in (*schema.protected_columns, *schema.covariate_columns):
                if col.kind == "categorical":
                    read[col.name] = cells(col.name)
                elif col.kind == "binary":
                    read[col.name] = zero_one(col.name, "binary covariate")
                else:
                    read[col.name] = floats(col.name, "numeric value")
            del table

            unscored = ~np.any([np.isfinite(read[name]) for _, name in schema.score_columns], axis=0)
            unlabelled = np.isnan(read[schema.label_column])
            dropped += (
                RowIssue(lines[k], schema.label_column, "label missing; row dropped") if unlabelled[k]
                else RowIssue(lines[k], None, "all scores missing; row dropped")
                for k in np.flatnonzero(unlabelled | unscored).tolist()
            )
            usable = ~(unlabelled | unscored)
            keep = np.flatnonzero(usable)
            # With no row dropped, every column is used as read.
            kept = None if keep.size == m else keep.tolist()
            row_ids.append(block_ids)
            row_lines.append(np.asarray(lines, dtype=np.int64))
            row_kept.append(usable)
            for name, values in read.items():
                if isinstance(values, list):
                    index = level_index[name]
                    if kept is not None:
                        values = [values[k] for k in kept]
                    for v in dict.fromkeys(values):  # the block's levels in first-appearance order
                        if v is not None:
                            index.setdefault(v, len(index))
                    values = np.fromiter(map(index.get, values, itertools.repeat(-1)),
                                         dtype=np.int64, count=keep.size)
                elif kept is not None:
                    values = values[keep]
                pieces[name].append(values)
            del read  # its categorical cells are the last of this block's text
    except UnicodeError as exc:  # undecodable bytes, or a lone surrogate in a stream's id
        raise CohortValidationError([RowIssue(None, None, f"{where} is not valid UTF-8: {exc.reason}")]) from None

    ids, lines, kept_rows = np.concatenate(row_ids), np.concatenate(row_lines), np.concatenate(row_kept)
    del row_ids, row_lines, row_kept
    # A stable sort keeps each id's rows in file order, so every row after its id's first is a repeat.
    order = np.argsort(ids, kind="stable")
    ranked = ids[order]
    again = order[1:][ranked[1:] == ranked[:-1]]
    del order, ranked
    flag(again[~np.isin(ids[again], token_ids)], schema.id_column, lambda k: f"duplicate id {ids[k]!r}")
    check()
    if not kept_rows.any():
        raise CohortValidationError([RowIssue(None, None, "no usable rows after validation")])
    if not kept_rows.all():
        ids, lines = ids[kept_rows], lines[kept_rows]  # from here on, ``flag`` cites kept rows

    # Each column is joined as its pieces are let go, so no two copies of all columns are alive.
    columns = {name: np.concatenate(pieces.pop(name)) for name in required[1:]}
    codes: dict[str, np.ndarray] = {}
    continuous: dict[str, np.ndarray] = {}
    breakpoints: dict[str, tuple[float, ...]] = {}
    for col in schema.protected_columns:
        if col.kind == "categorical":
            codes[col.name] = columns[col.name]
            continue
        values = continuous[col.name] = columns[col.name]
        try:
            bp = breakpoints[col.name] = _resolve_breakpoints(values[~np.isnan(values)], col.bin_edges)
        except ValueError as exc:
            raise CohortValidationError([RowIssue(None, None, str(exc))]) from exc
        codes[col.name] = _bin_codes(values, bp)
        flag(np.flatnonzero(~np.isnan(values) & (codes[col.name] < 0)), col.name,
             lambda k: _outside_message(float(values[k]), bp))
    check()

    levels = {name: tuple(index) for name, index in level_index.items()}
    levels.update((name, _bin_labels(bp)) for name, bp in breakpoints.items())
    return Cohort(
        schema=schema,
        ids=ids,
        labels=columns[schema.label_column].astype(np.int64),
        scores={model: columns[name] for model, name in schema.score_columns},
        codes=codes,
        covariates={col.name: columns[col.name] for col in schema.covariate_columns},
        attribute_levels={col.name: levels[col.name] for col in schema.protected_columns},
        covariate_levels={col.name: levels[col.name] for col in schema.covariate_columns
                          if col.kind == "categorical"},
        continuous=continuous,
        breakpoints=breakpoints,
        diagnostics=tuple(dropped),
    )


def _python_columns(cohort: Cohort, rows: slice = slice(None)) -> dict[str, list]:
    """Every file column but the id, in file order, as Python values of the
    records in ``rows``: int labels, float scores and numbers, int 0/1, str
    levels, and MISSING where a value is absent."""
    schema = cohort.schema
    out = {schema.label_column: cohort.labels[rows].tolist()}
    for model, name in schema.score_columns:
        out[name] = _present(cohort.scores[model][rows], float)
    for col in schema.protected_columns:
        if col.kind == "continuous":
            out[col.name] = _present(cohort.continuous[col.name][rows], float)
        else:
            out[col.name] = _decode(cohort.codes[col.name][rows], cohort.attribute_levels[col.name])
    for col in schema.covariate_columns:
        values = cohort.covariates[col.name][rows]
        if col.kind == "categorical":
            out[col.name] = _decode(values, cohort.covariate_levels[col.name])
        else:
            out[col.name] = _present(values, float if col.kind == "numeric" else int)
    return out


def _has_missing(cohort: Cohort) -> bool:
    """Whether a written column holds an absent value: nan in a float
    column, -1 in a level-code column."""
    schema = cohort.schema
    written = [*cohort.scores.values(), *cohort.continuous.values(), *cohort.covariates.values()]
    written += [cohort.codes[col.name] for col in schema.protected_columns if col.kind == "categorical"]
    return any((np.isnan(a) if a.dtype.kind == "f" else a < 0).any() for a in written)


def write_cohort(cohort: Cohort, path) -> None:
    """Serialize a cohort so that re-parsing it yields an equal Cohort.

    ``path`` may also be an open text stream, mirroring ``parse_cohort``.
    Floats are written with ``repr`` (exact round-trip); continuous protected
    attributes are written as their raw values, not bin labels, so the
    re-parsed cohort re-derives identical bins.  Fields are quoted as
    ``_csv_fields`` says.  Rows are formatted from the columns and written
    ``_BLOCK_ROWS`` at a time, so one block's text is held at once.  A
    ValueError for a missing value with no missing token to write comes
    before any file is opened or byte written.
    """
    schema = cohort.schema
    if not schema.missing_tokens:
        if _has_missing(cohort):
            raise ValueError("cohort has missing values but the schema declares no missing tokens")
        token = ""
    else:
        token = schema.missing_tokens[0]
    delimiter = schema.delimiter

    def _emit(fh) -> None:
        fh.write(delimiter.join(_csv_fields(_file_columns(schema), delimiter)) + "\n")
        for start in range(0, cohort.n, _BLOCK_ROWS):
            rows = slice(start, start + _BLOCK_ROWS)
            # str() of a float is its repr, so every value renders with str().
            cells = [cohort.ids[rows].tolist(), *([token if v is MISSING else str(v) for v in values]
                                               for values in _python_columns(cohort, rows).values())]
            fields = zip(*(_csv_fields(column, delimiter) for column in cells))
            fh.write("".join([delimiter.join(row) + "\n" for row in fields]))

    if hasattr(path, "write"):
        _emit(path)
        return
    with open(os.fspath(path), "w", encoding="utf-8", newline="") as fh:
        _emit(fh)


def _csv_fields(cells: list[str], delimiter: str = ",") -> list[str]:
    """``cells`` as fields of a delimited row of two fields or more: quoted,
    with each quote doubled, where a cell holds the delimiter, a quote, a
    line feed or a carriage return, and as they are otherwise.

    That is ``csv.writer``'s minimal quoting with a ``\\n`` line terminator,
    except that a bare carriage return is quoted too: unquoted, the csv
    reader rejects it.
    """
    special = delimiter + '"\r\n'
    for i in range(0, len(cells), 4096):  # joined in chunks, to hold little text at once
        text = "".join(cells[i:i + 4096])
        if any(ch in text for ch in special):
            break
    else:
        return cells
    return ['"' + cell.replace('"', '""') + '"' if any(ch in cell for ch in special) else cell for cell in cells]


def with_score_column(cohort: Cohort, model: str, column: str, scores) -> Cohort:
    """Return a new cohort with one extra score column appended.

    ``scores`` aligns with record order; nan entries mean "unscored".  Used by
    the synthetic training helper to attach model outputs.
    """
    if model in cohort.model_names:
        raise ConfigError(f"model name {model!r} already present")
    schema = replace(cohort.schema, score_columns=cohort.schema.score_columns + ((model, column),))
    arr = np.array(scores, dtype=float)
    if arr.shape != (cohort.n,):
        raise ValueError(f"scores must align with {cohort.n} records, got shape {arr.shape}")
    if np.any((arr < 0) & ~np.isnan(arr)) or np.any((arr > 1) & ~np.isnan(arr)):
        raise ValueError("scores must lie in [0, 1]")
    return replace(cohort, schema=schema, scores={**cohort.scores, model: arr})
