"""Loading, validation and merging of expression / CNA / clinical tables.

All tables are delimited UTF-8 text. Expression and CNA files share one
layout: header ``patient_id,<gene>,<gene>,...`` with one row per patient.
Clinical files use the header ``patient_id,time_months,event,age,group``.

Files are written as ``csv.writer`` writes them: CRLF line ends, a field
quoted only when it holds ``,``, ``"`` or a line break, floats by ``repr``,
so a load -> store -> load round trip is bit-identical. A matrix is written
one joined line per row, and only an id that needs quotes goes through
``csv.writer``. A matrix is read as one numeric block by numpy's C tokenizer;
text that only the csv module reads right (quotes, a lone ``\r``) or that
numpy rejects (``1_0``, an empty cell, a ragged row) goes through the
per-cell path instead, which accepts exactly what ``float`` accepts. Both
give the same bits, and every cell error names the file, line and column.
"""

from __future__ import annotations

import csv
import io
import re
from collections import Counter
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .errors import DataError

CNA_CATEGORIES = (-2, -1, 0, 1, 2)

CLINICAL_HEADER = ["patient_id", "time_months", "event", "age", "group"]


@dataclass(frozen=True)
class ExpressionMatrix:
    """Patients x genes real-valued matrix with platform and scale metadata."""

    platform_id: str
    patient_ids: list[str]
    gene_ids: list[str]
    values: np.ndarray  # shape (n_patients, n_genes), float64
    scale: str = "linear"  # "linear" or "log2"

    def __post_init__(self):
        _check_matrix_ids(self.patient_ids, self.gene_ids, self.values)
        if self.scale not in ("linear", "log2"):
            raise DataError(f"unknown scale {self.scale!r}")
        if not np.all(np.isfinite(self.values)):
            raise DataError("expression values must be finite")
        if self.scale == "linear" and np.any(self.values < 0):
            raise DataError("linear-scale expression values must be >= 0")

    @property
    def n_patients(self) -> int:
        return len(self.patient_ids)

    @property
    def n_genes(self) -> int:
        return len(self.gene_ids)


@dataclass(frozen=True)
class CnaMatrix:
    """Patients x genes GISTIC copy-number categories in {-2,-1,0,1,2}."""

    patient_ids: list[str]
    gene_ids: list[str]
    values: np.ndarray  # shape (n_patients, n_genes), int64

    def __post_init__(self):
        _check_matrix_ids(self.patient_ids, self.gene_ids, self.values)
        bad = ~np.isin(self.values, CNA_CATEGORIES)
        if bad.any():
            r, c = np.argwhere(bad)[0]
            raise DataError(
                f"CNA value {self.values[r, c]} at ({r},{c}) is not one of "
                f"the GISTIC categories {list(CNA_CATEGORIES)}"
            )


@dataclass(frozen=True)
class ClinicalRecord:
    """One patient's follow-up: observed time C = min(death, last-seen)."""

    patient_id: str
    observed_time_months: float
    event: bool  # True: death observed; False: lost to follow-up
    age_years: float | None = None
    group_label: str | None = None

    def __post_init__(self):
        if not self.patient_id:
            raise DataError("patient_id must be non-empty")
        if self.observed_time_months < 0:
            raise DataError(
                f"negative observed time for {self.patient_id}: "
                f"{self.observed_time_months}"
            )
        if self.age_years is not None and self.age_years < 0:
            raise DataError(f"negative age for {self.patient_id}")


@dataclass(frozen=True)
class FeatureMatrix:
    """Patients x named features, dense reals, no NaN."""

    patient_ids: list[str]
    feature_names: list[str]
    values: np.ndarray

    def __post_init__(self):
        _check_matrix_ids(self.patient_ids, self.feature_names, self.values)
        if not np.all(np.isfinite(self.values)):
            raise DataError("feature values must be finite")

    @property
    def n_patients(self) -> int:
        return len(self.patient_ids)

    @property
    def n_features(self) -> int:
        return len(self.feature_names)


@dataclass
class MergeReport:
    """Bookkeeping of a multi-source merge."""

    source_patient_counts: dict[str, int] = field(default_factory=dict)
    union_patient_count: int = 0
    intersection_gene_count: int = 0
    # patient_id -> platform_id of the source whose values won
    resolutions: dict[str, str] = field(default_factory=dict)


def _duplicates(ids) -> list[str]:
    return sorted(x for x, n in Counter(ids).items() if n > 1)


def _check_matrix_ids(row_ids, col_ids, values):
    if len(row_ids) == 0 or len(col_ids) == 0:
        raise DataError("empty matrix")
    if values.shape != (len(row_ids), len(col_ids)):
        raise DataError(
            f"matrix shape {values.shape} does not match "
            f"{len(row_ids)} row ids x {len(col_ids)} column ids"
        )
    for name, ids in (("row", row_ids), ("column", col_ids)):
        if len(set(ids)) != len(ids):
            raise DataError(f"duplicate {name} ids: {_duplicates(ids)}")


def _first_repeat(ids) -> int | None:
    seen = set()
    for k, x in enumerate(ids):
        if x in seen:
            return k
        seen.add(x)
    return None


def _located(path, line, column, what) -> DataError:
    return DataError(f"{path}: line {line}, column {column}: {what}")


class _Table(NamedTuple):
    """A matrix CSV as read, in file orientation."""

    col_ids: list[str]
    row_ids: list[str]
    values: np.ndarray  # float64, one row per data line
    lines: list[int]  # 1-based file line of each data row

    def check_ids(self, path) -> None:
        k = _first_repeat(self.col_ids)
        if k is not None:
            raise _located(path, 1, k + 2,
                           f"duplicate column ids: {_duplicates(self.col_ids)}")
        k = _first_repeat(self.row_ids)
        if k is not None:
            raise _located(path, self.lines[k], 1,
                           f"duplicate row ids: {_duplicates(self.row_ids)}")

    def reject(self, path, bad: np.ndarray, what: str) -> None:
        """Raise at the first ``bad`` cell in file order."""
        if bad.any():
            i, j = divmod(int(np.argmax(bad)), bad.shape[1])
            raise _located(path, self.lines[i], j + 2,
                           f"{what}, got {float(self.values[i, j])!r}")


def _read_text(path) -> str:
    with open(path, newline="", encoding="utf-8") as fh:
        return fh.read()


def _read_delimited(text: str, path) -> tuple[list[list[str]], list[int]]:
    """The non-empty csv rows of ``text`` and the line each one ends on."""
    reader = csv.reader(io.StringIO(text, newline=""))
    rows, lines = [], []
    for row in reader:
        if row:
            rows.append(row)
            lines.append(reader.line_num)
    if len(rows) < 2:
        raise DataError(f"{path}: no data rows")
    width = len(rows[0])
    for i, row in enumerate(rows):
        if len(row) != width:
            raise DataError(f"{path}: ragged row {i} ({len(row)} cells, expected {width})")
    return rows, lines


def _parse_cells(rows, lines, path) -> np.ndarray:
    out = np.empty((len(rows) - 1, len(rows[0]) - 1), dtype=np.float64)
    for i, row in enumerate(rows[1:]):
        for j, cell in enumerate(row[1:]):
            try:
                out[i, j] = float(cell)
            except ValueError:
                raise _located(path, lines[i + 1], j + 2,
                               f"non-numeric cell at ({i},{j}): {cell!r}") from None
    return out


# Characters the block parse leaves to the csv module and float(): a quote,
# NUL, and \x1c-\x1f, which numpy strips from a number as whitespace while
# float() rejects them.
_NOT_IN_A_BLOCK = '"\x00\x1c\x1d\x1e\x1f'


def _parse_block(text: str) -> _Table | None:
    """The table parsed by numpy's C tokenizer, or None if it cannot be."""
    if (any(c in text for c in _NOT_IN_A_BLOCK)
            or text.count("\r") != text.count("\r\n")):  # a lone \r breaks lines
        return None
    numbered = [(n, line) for n, line
                in enumerate(text.replace("\r\n", "\n").split("\n"), 1) if line]
    if len(numbered) < 2:
        return None
    row_ids, rests = [], []
    for _, line in numbered[1:]:
        row_id, _, rest = line.partition(",")
        row_ids.append(row_id)
        rests.append(rest)
    if not all(rests):  # loadtxt would skip the line, or warn of no data
        return None
    try:
        values = np.loadtxt(rests, delimiter=",", dtype=np.float64,
                            comments=None, ndmin=2)
    except ValueError:
        return None
    header = numbered[0][1].split(",")
    if values.shape != (len(rests), len(header) - 1):
        return None
    return _Table(header[1:], row_ids, values, [n for n, _ in numbered[1:]])


def _read_matrix(path) -> _Table:
    text = _read_text(path)
    table = _parse_block(text)
    if table is None:
        rows, lines = _read_delimited(text, path)
        table = _Table(rows[0][1:], [row[0] for row in rows[1:]],
                       _parse_cells(rows, lines, path), lines[1:])
    table.check_ids(path)
    return table


def load_expression(path, orientation: str = "patients_as_rows",
                    platform_id: str | None = None,
                    scale: str = "linear") -> ExpressionMatrix:
    """Load an expression CSV.

    ``genes_as_rows`` input (header = patient ids, one row per gene) is
    transposed on load so the result is always patients x genes.
    """
    if orientation not in ("patients_as_rows", "genes_as_rows"):
        raise DataError(f"unknown orientation {orientation!r}")
    table = _read_matrix(path)
    values = table.values
    table.reject(path, ~np.isfinite(values), "expression values must be finite")
    if scale == "linear":
        table.reject(path, values < 0, "linear-scale expression values must be >= 0")
    if orientation == "genes_as_rows":
        patient_ids, gene_ids = table.col_ids, table.row_ids
        values = values.T.copy()
    else:
        patient_ids, gene_ids = table.row_ids, table.col_ids
    return ExpressionMatrix(
        platform_id=platform_id or str(path),
        patient_ids=patient_ids,
        gene_ids=gene_ids,
        values=values,
        scale=scale,
    )


def load_cna(path) -> CnaMatrix:
    """Load a CNA CSV of GISTIC categories (same layout as expression)."""
    table = _read_matrix(path)
    values = table.values
    table.reject(path, values != np.round(values), "non-integer CNA cell")
    table.reject(path, ~np.isin(values, CNA_CATEGORIES),
                 f"CNA value is not one of the GISTIC categories {list(CNA_CATEGORIES)}")
    return CnaMatrix(patient_ids=table.row_ids, gene_ids=table.col_ids,
                     values=values.astype(np.int64))


def load_clinical(path) -> list[ClinicalRecord]:
    """Load clinical records, one per patient_id; empty age/group -> None."""
    rows, _ = _read_delimited(_read_text(path), path)
    if [h.strip() for h in rows[0]] != CLINICAL_HEADER:
        raise DataError(f"{path}: expected header {','.join(CLINICAL_HEADER)}")
    records = []
    first_row = {}
    for i, row in enumerate(rows[1:]):
        pid, time_s, event_s, age_s, group_s = [c.strip() for c in row]
        if not pid:
            raise DataError(f"{path}: missing patient_id at row {i}")
        if pid in first_row:
            raise DataError(f"{path}: duplicate patient_id {pid!r} at row {i} "
                            f"(first at row {first_row[pid]})")
        first_row[pid] = i
        if event_s not in ("0", "1"):
            raise DataError(f"{path}: event must be 0 or 1, got {event_s!r} at row {i}")
        try:
            time = float(time_s)
        except ValueError:
            raise DataError(f"{path}: non-numeric time at row {i}: {time_s!r}") from None
        age = float(age_s) if age_s else None
        records.append(ClinicalRecord(
            patient_id=pid,
            observed_time_months=time,
            event=event_s == "1",
            age_years=age,
            group_label=group_s or None,
        ))
    return records


def _fmt(x: float) -> str:
    # repr gives the shortest decimal that round-trips exactly
    return repr(float(x))


# The characters for which csv.writer's minimal quoting quotes a field.
_NEEDS_QUOTES = re.compile('[,"\r\n]')


def _write_matrix(path, col_ids, row_ids, rows: list[list], fmt) -> None:
    """Write the bytes csv.writer would, joining each row's cells at once."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["patient_id", *col_ids])
        for row_id, row in zip(row_ids, rows):
            if _NEEDS_QUOTES.search(row_id):
                writer.writerow([row_id, *map(fmt, row)])
            else:
                fh.write(row_id + "," + ",".join(map(fmt, row)) + "\r\n")


def save_expression(matrix: ExpressionMatrix | FeatureMatrix, path) -> None:
    if isinstance(matrix, ExpressionMatrix):
        col_ids = matrix.gene_ids
    else:
        col_ids = matrix.feature_names
    _write_matrix(path, col_ids, matrix.patient_ids,
                  matrix.values.astype(np.float64, copy=False).tolist(), repr)


def save_cna(matrix: CnaMatrix, path) -> None:
    _write_matrix(path, matrix.gene_ids, matrix.patient_ids,
                  matrix.values.astype(np.int64, copy=False).tolist(), str)


def save_clinical(records: list[ClinicalRecord], path) -> None:
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(CLINICAL_HEADER)
        for r in records:
            writer.writerow([
                r.patient_id,
                _fmt(r.observed_time_months),
                "1" if r.event else "0",
                "" if r.age_years is None else _fmt(r.age_years),
                r.group_label or "",
            ])


def load_features(path) -> FeatureMatrix:
    table = _read_matrix(path)
    table.reject(path, ~np.isfinite(table.values), "feature values must be finite")
    return FeatureMatrix(patient_ids=table.row_ids, feature_names=table.col_ids,
                         values=table.values)


def merge(sources: list[ExpressionMatrix]) -> tuple[ExpressionMatrix, MergeReport]:
    """Merge expression sources: patient union, gene intersection.

    A patient present in several sources takes all values from the earliest
    source in the list; every such resolution is recorded in the report.
    """
    if len(sources) < 2:
        raise DataError("merge requires at least 2 sources")
    scales = {s.scale for s in sources}
    if len(scales) != 1:
        raise DataError(f"scale mismatch across sources: {sorted(scales)}")

    common = set(sources[0].gene_ids)
    for s in sources[1:]:
        common &= set(s.gene_ids)
    if not common:
        raise DataError("empty gene intersection across sources")
    # keep the first source's gene order for determinism
    genes = [g for g in sources[0].gene_ids if g in common]

    report = MergeReport(intersection_gene_count=len(genes))
    patient_order: list[str] = []
    winner: dict[str, tuple[ExpressionMatrix, int]] = {}
    for src in sources:
        report.source_patient_counts[src.platform_id] = src.n_patients
        for i, pid in enumerate(src.patient_ids):
            if pid not in winner:
                patient_order.append(pid)
                winner[pid] = (src, i)
            else:
                # duplicate patient: earliest source wins
                report.resolutions[pid] = winner[pid][0].platform_id
    report.union_patient_count = len(patient_order)

    out = np.empty((len(patient_order), len(genes)))
    col_cache: dict[int, np.ndarray] = {}
    for r, pid in enumerate(patient_order):
        src, i = winner[pid]
        key = id(src)
        if key not in col_cache:
            gene_pos = {g: j for j, g in enumerate(src.gene_ids)}
            col_cache[key] = np.array([gene_pos[g] for g in genes])
        out[r] = src.values[i, col_cache[key]]

    merged = ExpressionMatrix(
        platform_id="+".join(s.platform_id for s in sources),
        patient_ids=patient_order,
        gene_ids=genes,
        values=out,
        scale=sources[0].scale,
    )
    return merged, report


def subset_patients(matrix: ExpressionMatrix, patient_ids: list[str]) -> ExpressionMatrix:
    """Row-restrict a matrix to the given patients, in the given order."""
    pos = {p: i for i, p in enumerate(matrix.patient_ids)}
    missing = [p for p in patient_ids if p not in pos]
    if missing:
        raise DataError(f"patients not in matrix: {missing[:5]}")
    idx = np.array([pos[p] for p in patient_ids])
    return ExpressionMatrix(
        platform_id=matrix.platform_id,
        patient_ids=list(patient_ids),
        gene_ids=matrix.gene_ids,
        values=matrix.values[idx].copy(),
        scale=matrix.scale,
    )


def build_features(expr: ExpressionMatrix, clinical: list[ClinicalRecord],
                   include_age: bool = False,
                   cna: CnaMatrix | None = None) -> FeatureMatrix:
    """Assemble the model input: expression, then CNA (as reals), then age.

    Rows are restricted to patients present in every input actually used.
    Patients lacking a clinical record are dropped rather than imputed only
    when age is requested; without age the expression rows pass through.
    """
    by_id = {r.patient_id: r for r in clinical}
    keep = list(expr.patient_ids)
    if cna is not None:
        cna_pos = {p: i for i, p in enumerate(cna.patient_ids)}
        keep = [p for p in keep if p in cna_pos]
    if include_age:
        present = [p for p in keep if p in by_id]
        for p in present:
            if by_id[p].age_years is None:
                raise DataError(f"include_age requested but age missing for {p}")
        keep = present
    if not keep:
        raise DataError("no patients shared across the provided inputs")

    expr_pos = {p: i for i, p in enumerate(expr.patient_ids)}
    idx = np.array([expr_pos[p] for p in keep])
    blocks = [expr.values[idx]]
    names = list(expr.gene_ids)
    if cna is not None:
        cidx = np.array([cna_pos[p] for p in keep])
        blocks.append(cna.values[cidx].astype(np.float64))
        names += [f"cna:{g}" for g in cna.gene_ids]
    if include_age:
        ages = np.array([[by_id[p].age_years] for p in keep])
        blocks.append(ages)
        names.append("age")
    return FeatureMatrix(patient_ids=keep, feature_names=names,
                         values=np.hstack(blocks))
