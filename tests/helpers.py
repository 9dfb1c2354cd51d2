"""Builders shared by the test modules.

Cohorts are always constructed through the real CSV parser so every test
exercises the same ingestion path as production data.
"""

from __future__ import annotations

import csv
import io
from pathlib import Path

from biasaudit.cohort import (
    CohortSchema,
    CovariateColumn,
    ProtectedColumn,
    parse_cohort,
)


def _cell(value) -> str:
    if value is None:
        return ""
    if isinstance(value, float):
        return repr(float(value))  # plain float repr even for np.float64
    return str(value)


def build_cohort(
    labels,
    scores,
    protected=None,
    covariates=None,
    protected_kinds=None,
    bin_edges=None,
    covariate_kinds=None,
    ids=None,
    missing_tokens=("", "NA"),
):
    """Assemble a Cohort by writing CSV text and parsing it back.

    ``scores`` is either a list (single model named "score") or a dict of
    model name -> list.  ``None`` anywhere becomes the missing token.
    Protected columns default to categorical, covariates to numeric; override
    per name via ``protected_kinds`` / ``covariate_kinds`` / ``bin_edges``.
    """
    if not isinstance(scores, dict):
        scores = {"score": list(scores)}
    protected = protected or {}
    covariates = covariates or {}
    protected_kinds = protected_kinds or {}
    bin_edges = bin_edges or {}
    covariate_kinds = covariate_kinds or {}
    n = len(labels)
    ids = list(ids) if ids is not None else [f"r{i:04d}" for i in range(n)]

    header = ["pid", "label", *scores, *protected, *covariates]
    lines = [",".join(header)]
    for i in range(n):
        row = [ids[i], _cell(labels[i])]
        row += [_cell(scores[m][i]) for m in scores]
        row += [_cell(protected[p][i]) for p in protected]
        row += [_cell(covariates[c][i]) for c in covariates]
        lines.append(",".join(row))
    text = "\n".join(lines) + "\n"

    schema = CohortSchema(
        id_column="pid",
        label_column="label",
        score_columns=tuple((m, m) for m in scores),
        protected_columns=tuple(
            ProtectedColumn(
                name=p,
                kind=protected_kinds.get(p, "categorical"),
                bin_edges=bin_edges.get(p),
            )
            for p in protected
        ),
        covariate_columns=tuple(
            CovariateColumn(name=c, kind=covariate_kinds.get(c, "numeric"))
            for c in covariates
        ),
        missing_tokens=tuple(missing_tokens),
    )
    return parse_cohort(io.StringIO(text), schema)


def read_csv_outputs(directory) -> dict[str, list[list[str]]]:
    """Every CSV file a run wrote to ``directory``, read back by
    ``csv.reader`` on a file opened with ``newline=""``, as the csv module
    requires: {file name: rows, header first}.  Asserts that every row has
    the header's number of fields."""
    tables = {}
    for path in sorted(Path(directory).glob("*.csv")):
        with open(path, encoding="utf-8", newline="") as fh:
            rows = list(csv.reader(fh))
        widths = {len(row) for row in rows}
        assert rows and widths == {len(rows[0])}, (path.name, widths)
        tables[path.name] = rows
    return tables
