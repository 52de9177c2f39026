"""Loading, validation and merging of matrix, clinical and labels tables;
the one module that writes a table or aligns tables by id, and the owner of
``BLOCK_CELLS`` and ``block_slices``, the blocks of every memory-bounded pass.

All tables are delimited UTF-8 text. Expression and CNA files share one
layout: header ``patient_id,<gene>,<gene>,...`` with one row per patient.
Clinical files use the header ``patient_id,time_months,event,age,group``,
and labels files ``patient_id,label`` with one 0/1 label per patient.

Files are written as ``csv.writer`` writes them: CRLF line ends, a field
quoted only when it holds ``,``, ``"`` or a line break, floats as ``repr``
formats them, so a load -> store -> load round trip is bit-identical. The
numbers of a matrix file go through orjson both ways. A write formats whole
rows of about ``_WRITE_BLOCK_CELLS`` cells with one ``orjson.dumps`` (Ryu's
shortest round-trip digits, the digits ``repr`` picks); its layout is
``repr``'s for a value of magnitude in [1e-4, 1e16) and for zero, and every
other cell is formatted again by ``repr``. A CNA matrix's integers are
written the same way. Only the header and an id that needs quotes go
through ``csv.writer``.

A matrix file is streamed in; one that cannot seek, such as a pipe, is read
into memory first. A first binary pass counts its lines and looks for text
that only the csv module reads right (a quote, NUL or a lone ``\r``). Then
about ``_READ_BLOCK_BYTES`` of lines at a time have their cells counted and
joined, and one ``orjson.loads`` (a correctly rounded parser) reads their
numbers into one preallocated array. A file that the first pass flags, or
that holds in any block a line that is not UTF-8, a ragged row, or a cell
that JSON reads differently from ``float`` or not at all (``-0``, ``+1``,
``.5``, ``1_0``, ``nan``, ``1e400``, an empty cell), goes whole through the
located per-cell path instead, which holds the text in memory and accepts
exactly what ``float`` accepts. Both give the same bits, and every cell
error names the file, line and column.
"""

from __future__ import annotations

import csv
import io
import math
import re
from collections import Counter
from dataclasses import dataclass, field, replace
from typing import NamedTuple

import numpy as np
import orjson

from .errors import DataError

CNA_CATEGORIES = (-2, -1, 0, 1, 2)

CLINICAL_HEADER = ["patient_id", "time_months", "event", "age", "group"]

LABELS_HEADER = ["patient_id", "label"]


@dataclass(frozen=True)
class ExpressionMatrix:
    """Patients x genes matrix of finite real values from one platform. A
    value may have either sign: a table on a log scale may hold negative
    values, and only ``normalize.log2_transform`` needs them >= 0."""

    platform_id: str
    patient_ids: list[str]
    gene_ids: list[str]
    values: np.ndarray  # shape (n_patients, n_genes), float64

    def __post_init__(self):
        _check_matrix_ids(self.patient_ids, self.gene_ids, self.values)
        if _first_bad(self.values, _not_finite):
            raise DataError("expression values must be finite")

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
        bad = _first_bad(self.values, _not_gistic)
        if bad:
            r, c = bad
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
        if not math.isfinite(self.observed_time_months):
            raise DataError(f"observed time for {self.patient_id} must be finite, "
                            f"got {self.observed_time_months}")
        if self.observed_time_months < 0:
            raise DataError(
                f"negative observed time for {self.patient_id}: "
                f"{self.observed_time_months}"
            )
        if self.age_years is not None and not math.isfinite(self.age_years):
            raise DataError(f"age for {self.patient_id} must be finite, "
                            f"got {self.age_years}")
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
        if _first_bad(self.values, _not_finite):
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

    union_patient_count: int = 0
    intersection_gene_count: int = 0
    # patient_id -> platform_id of the source whose values won
    resolutions: dict[str, str] = field(default_factory=dict)


# Cells of each block of a memory-bounded pass, about (512 KiB of float64): the
# value checks, build_features, fsqn, the t-SNE distances, bandwidth search and
# P, and the SVM kernel. No output file depends on it.
BLOCK_CELLS = 1 << 16


def block_slices(n: int, width: int, cells: int | None = None) -> list[slice]:
    """Consecutive slices of ``range(n)``, all but the last of ``max(1, cells //
    width)`` items, ``cells`` defaulting to ``BLOCK_CELLS`` as read at the call."""
    step = max(1, (cells or BLOCK_CELLS) // max(width, 1))
    return [slice(start, min(start + step, n)) for start in range(0, n, step)]


def _not_finite(block: np.ndarray) -> np.ndarray:
    return ~np.isfinite(block)


def _negative(block: np.ndarray) -> np.ndarray:
    return block < 0


def _not_gistic(block: np.ndarray) -> np.ndarray:
    return ~np.isin(block, CNA_CATEGORIES)


def _first_bad(values: np.ndarray, bad) -> tuple[int, int] | None:
    """The (row, column) of the first cell of the 2-D ``values``, in row-major
    order, where the mask ``bad`` gives for its block of rows is true; None if
    there is none. ``bad`` sees about ``BLOCK_CELLS`` cells at a time, so no
    mask of the whole table is made."""
    for rows in block_slices(len(values), values.shape[1]):
        mask = bad(values[rows])
        if mask.any():
            i, j = divmod(int(np.argmax(mask)), mask.shape[1])
            return rows.start + i, j
    return None


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
    """A matrix CSV as read: its header's ids, then one row per data line."""

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

    def reject(self, path, bad, what: str) -> None:
        """Raise at the first cell in file order where the mask ``bad`` gives
        for a block of rows is true."""
        first = _first_bad(self.values, bad)
        if first:
            i, j = first
            raise _located(path, self.lines[i], j + 2,
                           f"{what}, got {float(self.values[i, j])!r}")


def _utf8(data: bytes, path) -> str:
    """``data``, read from ``path``, as text; bytes that are not UTF-8 are a
    DataError."""
    try:
        return data.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise DataError(f"{path}: not UTF-8 text (byte {exc.object[exc.start]:#04x} "
                        f"at offset {exc.start})") from None


def _open(path):
    """``path`` opened for binary reading; a file that cannot be opened is a
    DataError that names it."""
    try:
        return open(path, "rb")
    except OSError as exc:
        raise DataError(f"{path}: {exc.strerror}") from exc


def read_text(path) -> str:
    """The whole file as text; a file that cannot be opened or is not UTF-8
    is a DataError."""
    with _open(path) as fh:
        return _utf8(fh.read(), path)


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
    return rows, lines


def _parse_cells(rows, lines, path) -> np.ndarray:
    width = len(rows[0])
    for line, row in zip(lines, rows):
        if len(row) != width:
            raise DataError(f"{path}: line {line}: ragged row "
                            f"({len(row)} cells, expected {width})")
    out = np.empty((len(rows) - 1, len(rows[0]) - 1), dtype=np.float64)
    for i, row in enumerate(rows[1:]):
        for j, cell in enumerate(row[1:]):
            try:
                out[i, j] = float(cell)
            except ValueError:
                raise _located(path, lines[i + 1], j + 2,
                               f"non-numeric cell at ({i},{j}): {cell!r}") from None
    return out


# Bytes of the lines that one block parse takes, about: the Python numbers
# that orjson makes of a block stay small next to the array.
_READ_BLOCK_BYTES = 1 << 17

# A \r that does not end a line, which the block parse leaves to the csv
# module, as it does a quote and NUL.
_LONE_CR = re.compile(rb"\r(?!\n)")

# The bytes of a block's cells that JSON and float() can both read; a -0 that
# is neither an exponent nor followed by a fraction or an exponent, which
# JSON reads as the integer 0 where float() reads -0.0.
_NUMBER_BYTES = b"0123456789.eE+-, \t"
_INTEGER_MINUS_ZERO = re.compile(rb"-0(?<![eE]-0)(?![.eE])")


def _count_lines(fh) -> int | None:
    """The number of lines of a binary file, or None if it holds text the
    block parse leaves to the csv module."""
    newlines, last = 0, b""
    while chunk := fh.read(_READ_BLOCK_BYTES):
        if chunk.endswith(b"\r"):  # keep a \r\n in one chunk
            chunk += fh.read(1)
        if b'"' in chunk or b"\x00" in chunk or _LONE_CR.search(chunk):
            return None
        newlines += chunk.count(b"\n")
        last = chunk[-1:]
    return newlines + (last not in (b"", b"\n"))


def _parse_blocks(fh) -> _Table | None:
    """The table in the seekable binary file ``fh``, read about
    ``_READ_BLOCK_BYTES`` of lines at a time into one array, each block's
    numbers by one ``orjson.loads``; None if it cannot be."""
    line_count = _count_lines(fh)
    if line_count is None or line_count < 2:
        return None
    fh.seek(0)
    header, row_ids, lines, values = None, [], [], None
    number = 0
    while block := fh.readlines(_READ_BLOCK_BYTES):
        rests = []
        for raw in block:
            number += 1
            line = raw.rstrip(b"\r\n")
            if not line:
                continue
            if header is None:
                header = line
                width = header.count(b",")
                values = np.empty((line_count - number, width))
                continue
            row_id, _, rest = line.partition(b",")
            if rest.count(b",") != width - 1:  # a ragged row
                return None
            row_ids.append(row_id)
            rests.append(rest)
            lines.append(number)
        if not rests:
            continue
        cells = b",".join(rests)
        if cells.translate(None, _NUMBER_BYTES) or _INTEGER_MINUS_ZERO.search(cells):
            return None
        try:
            parsed = orjson.loads(b"[" + cells + b"]")
        except orjson.JSONDecodeError:
            return None
        if len(parsed) != len(rests) * width:  # one row, no cell or a blank one
            return None
        values[len(row_ids) - len(rests):len(row_ids)].reshape(-1)[:] = parsed
    if not row_ids:
        return None
    if len(row_ids) < len(values):  # blank lines
        values = values[:len(row_ids)]
    try:
        return _Table(header.decode("utf-8").split(",")[1:],
                      [row_id.decode("utf-8") for row_id in row_ids], values, lines)
    except UnicodeDecodeError:
        return None


def _read_matrix(path) -> _Table:
    with _open(path) as fh:
        # both parses read from the start, so a pipe is read into memory once
        source = fh if fh.seekable() else io.BytesIO(fh.read())
        table = _parse_blocks(source)
        if table is None:
            source.seek(0)
            rows, lines = _read_delimited(_utf8(source.read(), path), path)
            table = _Table(rows[0][1:], [row[0] for row in rows[1:]],
                           _parse_cells(rows, lines, path), lines[1:])
    table.check_ids(path)
    return table


def load_expression(path, platform_id: str | None = None,
                    nonnegative: bool = False) -> ExpressionMatrix:
    """Load an expression CSV: one row per patient, one column per gene.
    With ``nonnegative`` (a linear-scale table that is to be log2-transformed)
    the first negative cell is an error naming its line and column."""
    table = _read_matrix(path)
    table.reject(path, _not_finite, "expression values must be finite")
    if nonnegative:
        table.reject(path, _negative, "linear-scale expression values must be >= 0")
    return ExpressionMatrix(
        platform_id=platform_id or str(path),
        patient_ids=table.row_ids,
        gene_ids=table.col_ids,
        values=table.values,
    )


def load_cna(path) -> CnaMatrix:
    """Load a CNA CSV of GISTIC categories (same layout as expression)."""
    table = _read_matrix(path)
    values = table.values
    table.reject(path, lambda block: block != np.round(block), "non-integer CNA cell")
    table.reject(path, _not_gistic,
                 f"CNA value is not one of the GISTIC categories {list(CNA_CATEGORIES)}")
    return CnaMatrix(patient_ids=table.row_ids, gene_ids=table.col_ids,
                     values=values.astype(np.int64))


def _clinical_number(text: str, what: str) -> float:
    try:
        return float(text)
    except ValueError:
        raise DataError(f"non-numeric {what} {text!r}") from None


def _clinical_record(row: list[str]) -> tuple[str, ClinicalRecord]:
    """One data row as (id, record); a DataError says what is wrong, not where."""
    if len(row) != len(CLINICAL_HEADER):
        raise DataError(f"ragged row ({len(row)} cells, expected {len(CLINICAL_HEADER)})")
    pid, time_s, event_s, age_s, group_s = [c.strip() for c in row]
    if event_s not in ("0", "1"):
        raise DataError(f"event must be 0 or 1, got {event_s!r}")
    return pid, ClinicalRecord(
        patient_id=pid,
        observed_time_months=_clinical_number(time_s, "time"),
        event=event_s == "1",
        age_years=_clinical_number(age_s, "age") if age_s else None,
        group_label=group_s or None,
    )


def _label_row(row: list[str]) -> tuple[str, int]:
    label = row[1].strip() if len(row) > 1 else ""
    if label not in ("0", "1"):
        raise DataError(f"label must be 0 or 1, got {label!r}")
    return row[0], int(label)


def _read_keyed(path, header_ok, header: list[str], parse_row,
                id_name: str) -> dict:
    """``{id: value}`` of a table's data rows, in file order, from ``parse_row``
    of each; ``header_ok`` checks the first row. Every error names
    ``<file>: line L``, the header being line 1."""
    rows, lines = _read_delimited(read_text(path), path)
    if not header_ok(rows[0]):
        raise DataError(f"{path}: expected header {','.join(header)}")
    out, first_line = {}, {}
    for line, row in zip(lines[1:], rows[1:]):
        try:
            key, value = parse_row(row)
        except DataError as exc:
            raise DataError(f"{path}: line {line}: {exc}") from None
        if key in first_line:
            raise DataError(f"{path}: line {line}: duplicate {id_name} {key!r} "
                            f"(first at line {first_line[key]})")
        first_line[key] = line
        out[key] = value
    return out


def load_clinical(path) -> list[ClinicalRecord]:
    """Load clinical records, one per patient_id; empty age/group -> None."""
    return list(_read_keyed(
        path, lambda head: [h.strip() for h in head] == CLINICAL_HEADER,
        CLINICAL_HEADER, _clinical_record, "patient_id").values())


def load_labels(path) -> dict[str, int]:
    """``{patient_id: 0 or 1}`` in file order; later columns are ignored."""
    return _read_keyed(path, lambda head: head[:2] == LABELS_HEADER,
                       LABELS_HEADER, _label_row, "patient id")


# The characters for which csv.writer's minimal quoting quotes a field.
_NEEDS_QUOTES = re.compile('[,"\r\n]')

# Cells that one block of a matrix write formats, about; a block holds whole
# rows, at least one. A write is faster at this size than at BLOCK_CELLS.
_WRITE_BLOCK_CELLS = 1 << 14


def _csv_line(cells) -> str:
    """One row as csv.writer writes it: minimal quoting, CRLF line end."""
    out = io.StringIO()
    csv.writer(out).writerow(cells)
    return out.getvalue()


def _id_field(row_id: str) -> bytes:
    """A row's id as csv.writer writes it."""
    if _NEEDS_QUOTES.search(row_id):
        return _csv_line([row_id]).removesuffix("\r\n").encode("utf-8")
    return row_id.encode("utf-8")


def _row_cells(block: np.ndarray) -> list[bytes]:
    """For each row of a float64 or int64 block, its cells joined by commas,
    each as ``repr`` writes it: one ``orjson.dumps`` of the block, split into
    rows. Outside [1e-4, 1e16), where orjson's layout differs from ``repr``'s
    (``1e16``/``1e+16``, ``0.00001``/``1e-05``), a nonzero float is
    formatted again by ``repr``; a non-finite one is a ValueError."""
    text = orjson.dumps(np.ascontiguousarray(block), option=orjson.OPT_SERIALIZE_NUMPY)
    rows = text[2:-2].split(b"],[")
    if block.dtype.kind == "f":
        size = np.abs(block)
        other = ~(size < 1e16) | ((size < 1e-4) & (size != 0))
        for i in np.flatnonzero(other.any(axis=1)).tolist():
            cells = rows[i].split(b",")
            for j in np.flatnonzero(other[i]).tolist():
                x = float(block[i, j])
                if not math.isfinite(x):
                    raise ValueError(f"cannot format a non-finite value: {x!r}")
                cells[j] = repr(x).encode("ascii")
            rows[i] = b",".join(cells)
    return rows


def _write_matrix(path, col_ids, row_ids, values: np.ndarray) -> None:
    """Write the bytes csv.writer would. The header and the ids go through
    its quoting; the cells, a block of about ``_WRITE_BLOCK_CELLS`` at a
    time, through ``_row_cells``."""
    with open(path, "wb") as fh:
        fh.write(_csv_line(["patient_id", *col_ids]).encode("utf-8"))
        for rows in block_slices(len(row_ids), values.shape[1], _WRITE_BLOCK_CELLS):
            cells = _row_cells(values[rows])
            fh.write(b"".join(piece for row_id, row in zip(row_ids[rows], cells)
                              for piece in (_id_field(row_id), b",", row, b"\r\n")))


def save_expression(matrix: ExpressionMatrix | FeatureMatrix, path) -> None:
    if isinstance(matrix, ExpressionMatrix):
        col_ids = matrix.gene_ids
    else:
        col_ids = matrix.feature_names
    _write_matrix(path, col_ids, matrix.patient_ids,
                  matrix.values.astype(np.float64, copy=False))


def save_cna(matrix: CnaMatrix, path) -> None:
    _write_matrix(path, matrix.gene_ids, matrix.patient_ids,
                  matrix.values.astype(np.int64, copy=False))


def _cell(x):
    # repr gives the shortest decimal that round-trips exactly
    return repr(float(x)) if isinstance(x, (float, np.floating)) else x


def save_rows(path, header: list[str], rows) -> None:
    """Write a table as ``csv.writer`` writes it to a UTF-8 file: CRLF line
    ends, a field quoted only when it needs it, ``None`` as an empty cell and
    every float (numpy floats too) as ``repr(float(x))``."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows([_cell(x) for x in row] for row in rows)


def save_clinical(records: list[ClinicalRecord], path) -> None:
    save_rows(path, CLINICAL_HEADER, (
        [r.patient_id, float(r.observed_time_months), int(r.event),
         None if r.age_years is None else float(r.age_years), r.group_label]
        for r in records))


def save_labels(labels: dict[str, int], path) -> None:
    save_rows(path, LABELS_HEADER, labels.items())


def load_features(path) -> FeatureMatrix:
    table = _read_matrix(path)
    table.reject(path, _not_finite, "feature values must be finite")
    return FeatureMatrix(patient_ids=table.row_ids, feature_names=table.col_ids,
                         values=table.values)


def positions(ids: list[str], wanted: list[str], what: str) -> np.ndarray:
    """The index in ``ids`` of each id of ``wanted``, in ``wanted``'s order;
    a DataError names the first ``wanted`` ids that ``ids`` lacks."""
    pos = {x: i for i, x in enumerate(ids)}
    missing = [x for x in wanted if x not in pos]
    if missing:
        raise DataError(f"{what} not in matrix: {missing[:5]}")
    return np.array([pos[x] for x in wanted], dtype=np.intp)


def common_genes(sources: list[ExpressionMatrix], order: list[str]) -> list[str]:
    """The genes of ``order`` that every source has, in ``order``'s order."""
    common = set(order).intersection(*(s.gene_ids for s in sources))
    if not common:
        raise DataError("empty gene intersection across sources")
    return [g for g in order if g in common]


def merge(sources: list[ExpressionMatrix]) -> tuple[ExpressionMatrix, MergeReport]:
    """Merge expression sources: patient union, gene intersection.

    A patient present in several sources takes all values from the earliest
    source in the list; every such resolution is recorded in the report.
    """
    if len(sources) < 2:
        raise DataError("merge requires at least 2 sources")
    # keep the first source's gene order for determinism
    genes = common_genes(sources, sources[0].gene_ids)

    report = MergeReport(intersection_gene_count=len(genes))
    first: dict[str, int] = {}  # patient_id -> index of the first source with it
    for k, src in enumerate(sources):
        for pid in src.patient_ids:
            if pid not in first:
                first[pid] = k
            else:
                # duplicate patient: earliest source wins
                report.resolutions[pid] = sources[first[pid]].platform_id
    report.union_patient_count = len(first)

    # a source's first-seen patients are one contiguous block of the output,
    # copied a row at a time so that no second output-sized array is made
    out = np.empty((len(first), len(genes)))
    r = 0
    for k, src in enumerate(sources):
        cols = positions(src.gene_ids, genes, "genes")
        for i, pid in enumerate(src.patient_ids):
            if first[pid] == k:
                out[r] = src.values[i, cols]
                r += 1

    merged = ExpressionMatrix(
        platform_id="+".join(s.platform_id for s in sources),
        patient_ids=list(first),
        gene_ids=genes,
        values=out,
    )
    return merged, report


def subset_patients(matrix: ExpressionMatrix, patient_ids: list[str]) -> ExpressionMatrix:
    """Row-restrict a matrix to the given patients, in the given order."""
    rows = positions(matrix.patient_ids, patient_ids, "patients")
    return replace(matrix, patient_ids=list(patient_ids), values=matrix.values[rows])


def ages(clinical: list[ClinicalRecord], patient_ids: list[str],
         clinical_source: str = "clinical records") -> list[float]:
    """The age of each of ``patient_ids`` in ``clinical``, read from
    ``clinical_source``, which a missing record or age names in its DataError."""
    by_id = {r.patient_id: r.age_years for r in clinical}
    for p in patient_ids:
        if by_id.get(p) is None:
            raise DataError(f"{clinical_source}: age missing for patient {p!r}")
    return [by_id[p] for p in patient_ids]


def build_features(expr: ExpressionMatrix, clinical: list[ClinicalRecord],
                   include_age: bool = False, cna: CnaMatrix | None = None,
                   clinical_source: str = "clinical records") -> FeatureMatrix:
    """Assemble the model input: expression, then CNA (as reals), then age.

    Rows are restricted to patients present in every input actually used.
    Patients lacking a clinical record are dropped rather than imputed only
    when age is requested; without age the expression rows pass through.
    """
    keep = list(expr.patient_ids)
    if cna is not None:
        in_cna = set(cna.patient_ids)
        keep = [p for p in keep if p in in_cna]
    if include_age:
        with_record = {r.patient_id for r in clinical}
        keep = [p for p in keep if p in with_record]
        age = ages(clinical, keep, clinical_source)
    if not keep:
        raise DataError("no patients shared across the provided inputs")

    names = list(expr.gene_ids)
    sources = [(expr.values, positions(expr.patient_ids, keep, "patients"))]
    if cna is not None:
        sources.append((cna.values, positions(cna.patient_ids, keep, "patients")))
        names += [f"cna:{g}" for g in cna.gene_ids]
    if include_age:
        names.append("age")
    # one (patients x features) array; each table's rows are taken into their
    # columns a block of rows at a time, the CNA rows cast to reals
    values = np.empty((len(keep), len(names)))
    col = 0
    for table, rows in sources:
        cols = slice(col, col + table.shape[1])
        for block in block_slices(len(keep), len(names)):
            values[block, cols] = table[rows[block]]
        col = cols.stop
    if include_age:
        values[:, -1] = age
    return FeatureMatrix(patient_ids=keep, feature_names=names, values=values)
