"""Long-format CSV ingestion and writing.

A dataset file is UTF-8, comma-separated, with a header row carrying the
required columns

    sequence, subject, period, treatment, response_index, value

(1-based integer labels, float values); any additional columns are treated
as subject-level covariates.  Values and covariates must be finite and
below 1e150 in magnitude.  Each subject must contribute exactly one
record per (period, response_index) cell; subjects with missing cells are
excluded with a warning, duplicated cells and inconsistent treatment
assignments are errors.  The trial layout (sequences, periods, treatments,
responses, assignment table) is inferred from the records.
"""

from __future__ import annotations

import csv
import warnings

import numpy as np

from .design import CrossoverLayout, TrialData, assemble_trial

REQUIRED_COLUMNS = ("sequence", "subject", "period", "treatment", "response_index", "value")
# Largest magnitude accepted for a value or covariate: its square must not overflow.
_MAX_ABS_VALUE = 1e150


class DataFormatError(ValueError):
    """The input file violates the long-format contract."""


def _parse_int(text: str, column: str, line: int) -> int:
    try:
        value = int(text)
    except ValueError:
        raise DataFormatError(f"line {line}: non-integer {column} {text!r}") from None
    if value < 1:
        raise DataFormatError(f"line {line}: {column} must be >= 1, got {value}")
    return value


def _parse_float(text: str, column: str, line: int) -> float:
    try:
        value = float(text)
    except ValueError:
        raise DataFormatError(f"line {line}: non-numeric {column} {text!r}") from None
    if not abs(value) < _MAX_ABS_VALUE:  # also false for nan
        raise DataFormatError(
            f"line {line}: {column} {text!r} is not a finite number "
            f"below {_MAX_ABS_VALUE:g} in magnitude"
        )
    return value


def read_long_csv(path) -> TrialData:
    """Read a long-format trial CSV into a TrialData.

    Layout is inferred: label maxima give s, p, t, m (labels must cover
    1..max contiguously) and the observed (sequence, period) -> treatment
    pairs give the assignment table.  Subjects with any missing cell or
    missing value are dropped with a warning naming them.
    """
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise DataFormatError(f"{path}: empty file") from None
        header = [h.strip() for h in header]
        missing = [c for c in REQUIRED_COLUMNS if c not in header]
        if missing:
            raise DataFormatError(f"{path}: missing required columns {missing}")
        covariate_names = tuple(h for h in header if h not in REQUIRED_COLUMNS)
        col = {name: header.index(name) for name in header}

        records = []
        for line_no, row in enumerate(reader, start=2):
            if not row or all(not cell.strip() for cell in row):
                continue
            if len(row) != len(header):
                raise DataFormatError(f"line {line_no}: expected {len(header)} fields, got {len(row)}")
            rec = {
                "sequence": _parse_int(row[col["sequence"]], "sequence", line_no),
                "subject": _parse_int(row[col["subject"]], "subject", line_no),
                "period": _parse_int(row[col["period"]], "period", line_no),
                "treatment": _parse_int(row[col["treatment"]], "treatment", line_no),
                "response_index": _parse_int(row[col["response_index"]], "response_index", line_no),
                "line": line_no,
            }
            value_text = row[col["value"]].strip()
            rec["value"] = None if value_text == "" else _parse_float(value_text, "value", line_no)
            for name in covariate_names:
                rec[name] = _parse_float(row[col[name]], name, line_no)
            records.append(rec)

    if not records:
        raise DataFormatError(f"{path}: no data rows")

    s = max(r["sequence"] for r in records)
    p = max(r["period"] for r in records)
    t = max(r["treatment"] for r in records)
    m = max(r["response_index"] for r in records)
    for label, top in (
        ("sequence", s), ("period", p), ("treatment", t), ("response_index", m)
    ):
        seen = {r[label] for r in records}
        if seen != set(range(1, top + 1)):
            raise DataFormatError(f"{label} labels must cover 1..{top} contiguously")

    assignment = {}
    for r in records:
        key = (r["sequence"], r["period"])
        if key in assignment and assignment[key] != r["treatment"]:
            raise DataFormatError(
                f"line {r['line']}: sequence {key[0]} period {key[1]} has "
                f"conflicting treatments {assignment[key]} and {r['treatment']}"
            )
        assignment[key] = r["treatment"]
    table = []
    for i in range(1, s + 1):
        row = []
        for u in range(1, p + 1):
            if (i, u) not in assignment:
                raise DataFormatError(f"no records for sequence {i}, period {u}")
            row.append(assignment[(i, u)])
        table.append(tuple(row))

    cells: dict[tuple[int, int], dict[tuple[int, int], float | None]] = {}
    covs: dict[tuple[int, int], dict[str, float]] = {}
    for r in records:
        subj = (r["sequence"], r["subject"])
        cell = (r["period"], r["response_index"])
        bucket = cells.setdefault(subj, {})
        if cell in bucket:
            raise DataFormatError(
                f"line {r['line']}: duplicate record for sequence {subj[0]} "
                f"subject {subj[1]} period {cell[0]} response {cell[1]}"
            )
        bucket[cell] = r["value"]
        prev = covs.setdefault(subj, {name: r[name] for name in covariate_names})
        for name in covariate_names:
            if prev[name] != r[name]:
                raise DataFormatError(
                    f"line {r['line']}: covariate {name!r} varies within "
                    f"sequence {subj[0]} subject {subj[1]}"
                )

    pm = p * m
    full_cells = [(u, k) for u in range(1, p + 1) for k in range(1, m + 1)]
    kept: dict[tuple[int, int], np.ndarray] = {}
    n_per_seq = [0] * s
    for subj in sorted(cells):
        bucket = cells[subj]
        complete = len(bucket) == pm and all(bucket.get(c) is not None for c in full_cells)
        if not complete:
            warnings.warn(
                f"sequence {subj[0]} subject {subj[1]} has missing observations; excluded"
            )
            continue
        kept[subj] = np.array([bucket[c] for c in full_cells])
        n_per_seq[subj[0] - 1] += 1
    if not kept:
        raise DataFormatError(f"{path}: no subject has a complete record")

    # Re-number kept subjects within each sequence so n_per_seq stays dense.
    renumbered: dict[tuple[int, int], np.ndarray] = {}
    renumbered_covs: dict[tuple[int, int], dict[str, float]] = {}
    counters = [0] * s
    for (i, j) in sorted(kept):
        counters[i - 1] += 1
        renumbered[(i, counters[i - 1])] = kept[(i, j)]
        renumbered_covs[(i, counters[i - 1])] = covs[(i, j)]

    if any(c == 0 for c in counters):
        raise DataFormatError("a sequence lost all its subjects to missing data")
    layout = CrossoverLayout(
        n_per_seq=tuple(counters),
        assignment=tuple(table),
        n_treatments=t,
        n_responses=m,
        covariates=covariate_names,
    )
    return assemble_trial(layout, renumbered, renumbered_covs)


def write_long_csv(path, data: TrialData) -> None:
    """Write a TrialData back to the long format (inverse of read_long_csv)."""
    layout = data.layout
    header = list(REQUIRED_COLUMNS) + list(layout.covariates)
    cells = [(u, k) for u in range(1, layout.n_periods + 1) for k in range(1, layout.n_responses + 1)]
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for row_i in range(data.n_subjects):
            seq = int(data.sequences[row_i])
            subj = int(data.subjects[row_i])
            covs = [repr(float(v)) for v in data.covariate_values[row_i]]
            for cell_i, (u, k) in enumerate(cells):
                treatment = layout.assignment[seq - 1][u - 1]
                writer.writerow(
                    [seq, subj, u, treatment, k, repr(float(data.y[row_i, cell_i]))] + covs
                )
