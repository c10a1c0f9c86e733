"""Core dataset container, train-fitted imputation, and dataset CSV I/O.

A :class:`Dataset` is a dense float matrix with per-column kind (binary or
numeric), a 0/1 label vector, and each row's two parents: -1 for an original
row, row numbers of the dataset it was made from for a synthetic one.  Missing
cells are NaN.
"""

from __future__ import annotations

import csv
import json
import math
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path

import numpy as np

BINARY = "binary"
NUMERIC = "numeric"

LABEL_COLUMN = "label"


@dataclass(frozen=True)
class Column:
    name: str
    kind: str  # BINARY or NUMERIC

    def __post_init__(self):
        if self.kind not in (BINARY, NUMERIC):
            raise ValueError(f"unknown column kind {self.kind!r} for {self.name!r}")


def _zero_one(x: np.ndarray) -> np.ndarray:
    """Per column of ``x``: whether every cell is 0, 1 or NaN."""
    return (np.isnan(x) | (x == 0.0) | (x == 1.0)).all(axis=0)


def _integers(values, name: str) -> np.ndarray:
    """``values`` as int64; fails naming ``name`` unless each one is an int64 value."""
    a = np.asarray(values)
    if a.dtype.kind not in "biuf":
        raise ValueError(f"{name} must hold integers, got dtype {a.dtype}")
    if a.dtype.kind == "f":
        bad = ~(np.abs(a) < 2.0**63) | (a != np.trunc(a))  # NaN fails both tests
        if bad.any():
            raise ValueError(f"{name} must hold integers, got {float(a[bad][0])!r}")
    return a.astype(np.int64)


@dataclass(frozen=True)
class Dataset:
    """Immutable feature matrix with labels and parent lineage.

    Invariants are checked on construction: consistent shapes, distinct
    column names, no infinite cell, labels in {0,1}, binary columns
    containing only {0,1} or NaN, both parents or none.
    """

    columns: tuple[Column, ...]
    x: np.ndarray  # (n, p) float64, NaN marks a missing cell
    y: np.ndarray  # (n,) int
    parents: np.ndarray | None = None  # (n, 2) int, -1 = no parent; None = all -1

    def __post_init__(self):
        x = np.asarray(self.x, dtype=np.float64)
        y = _integers(self.y, "y")
        parents = (np.full(x.shape[:1] + (2,), -1, dtype=np.int64) if self.parents is None
                   else _integers(self.parents, "parents"))
        object.__setattr__(self, "x", x)
        object.__setattr__(self, "y", y)
        object.__setattr__(self, "parents", parents)
        if x.ndim != 2:
            raise ValueError("x must be a 2-D matrix")
        n, p = x.shape
        if len(self.columns) != p:
            raise ValueError(f"{len(self.columns)} columns declared for {p}-wide matrix")
        names = [c.name for c in self.columns]
        if len(set(names)) < p:
            repeated = next(nm for j, nm in enumerate(names) if nm in names[:j])
            raise ValueError(f"column name {repeated!r} appears more than once")
        infinite = np.isinf(x).any(axis=0)
        if infinite.any():
            raise ValueError(f"column {names[infinite.argmax()]!r} has an infinite cell")
        if y.shape != (n,):
            raise ValueError("label vector length does not match row count")
        if parents.shape != (n, 2):
            raise ValueError(f"parents must be an ({n}, 2) array, got shape {parents.shape}")
        if (parents < -1).any() or ((parents[:, 0] >= 0) != (parents[:, 1] >= 0)).any():
            raise ValueError("each row needs both parents (row numbers >= 0) or neither (-1)")
        if n and not np.isin(y, (0, 1)).all():
            raise ValueError("labels must be 0 or 1")
        bad = np.array([c.kind == BINARY for c in self.columns], dtype=bool) & ~_zero_one(x)
        if bad.any():
            raise ValueError(f"binary column {names[bad.argmax()]!r} has values outside {{0,1}}")

    @property
    def synthetic(self) -> np.ndarray:
        """Boolean mask of the rows that have parents."""
        return self.parents[:, 0] >= 0

    @property
    def n_rows(self) -> int:
        return self.x.shape[0]

    @property
    def n_cols(self) -> int:
        return self.x.shape[1]

    @property
    def column_names(self) -> list[str]:
        return [c.name for c in self.columns]

    def class_counts(self) -> dict[int, int]:
        return {0: int((self.y == 0).sum()), 1: int((self.y == 1).sum())}

    def fingerprint(self) -> dict:
        counts = self.class_counts()
        return {
            "rows": self.n_rows,
            "columns": self.n_cols,
            "positives": counts[1],
            "negatives": counts[0],
            "synthetic_rows": int(self.synthetic.sum()),
        }


@dataclass(frozen=True)
class ImputerModel:
    """Per-column fill values fitted on a chosen row subset.

    Numeric columns fill with the mean of observed cells, binary columns
    with the mode (ties resolved to 0).
    """

    columns: tuple[Column, ...]
    fill: np.ndarray  # (p,) float64

    def __post_init__(self):
        fill = np.asarray(self.fill, dtype=np.float64)
        object.__setattr__(self, "fill", fill)
        if fill.shape != (len(self.columns),):
            raise ValueError("one fill value per column required")
        if not np.isfinite(fill).all():
            raise ValueError("fill values must be finite")


def fit_imputer(ds: Dataset, rows) -> ImputerModel:
    """Fit per-column fill values using only the cells in ``rows``.

    Raises ValueError if ``rows`` is empty or some column has no observed
    value within ``rows`` (the error names the column).
    """
    rows = np.asarray(rows, dtype=np.intp)
    if rows.size == 0:
        raise ValueError("cannot fit an imputer on an empty row set")
    sub = ds.x[rows]
    fill = np.empty(ds.n_cols, dtype=np.float64)
    for j, col in enumerate(ds.columns):
        v = sub[:, j]
        observed = v[~np.isnan(v)]
        if observed.size == 0:
            raise ValueError(f"column {col.name!r} is fully missing within the fit rows")
        if col.kind == BINARY:
            ones = int((observed == 1.0).sum())
            zeros = observed.size - ones
            fill[j] = 1.0 if ones > zeros else 0.0  # tie -> 0
        else:
            fill[j] = float(observed.mean())
    return ImputerModel(columns=ds.columns, fill=fill)


def apply_imputer(ds: Dataset, model: ImputerModel) -> Dataset:
    """Replace every missing cell with its column fill; observed cells unchanged."""
    if tuple(model.columns) != tuple(ds.columns):
        raise ValueError("imputer columns do not match dataset columns")
    x = np.where(np.isnan(ds.x), model.fill, ds.x)
    return Dataset(columns=ds.columns, x=x, y=ds.y, parents=ds.parents)


# ---------------------------------------------------------------------------
# CSV + JSON sidecar serialization (shared by the ETL, synth, and run CLIs).
# Missing cells are written as empty fields; the final column is the label.
# ---------------------------------------------------------------------------

def _not_utf8(path, lines) -> ValueError:
    """The error for a file that is not UTF-8, naming ``path`` and its first line
    that is not; ``lines`` are its lines as its reader splits them, decoded with
    ``errors="surrogateescape"`` so that each undecodable byte is kept."""
    for number, line in enumerate(lines, start=1):
        try:
            line.encode("utf-8", "surrogateescape").decode("utf-8")
        except UnicodeDecodeError as exc:
            return ValueError(f"{path}: line {number}: {exc}")
    return ValueError(f"{path}: not UTF-8")  # the file changed since the failed read


@contextmanager
def _csv_reader(path):
    """A ``csv.reader`` over the UTF-8 file ``path``, open while the block runs.

    A byte that is not UTF-8, or a cell over csv's size limit, anywhere the
    block reads raises ``ValueError`` naming the file and the line.
    """
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        try:
            yield reader
        except csv.Error as exc:
            raise ValueError(f"{path}: line {reader.line_num}: {exc}") from None
        except UnicodeDecodeError:  # the decoder reads ahead: reader.line_num may be early
            with open(path, newline="", encoding="utf-8", errors="surrogateescape") as again:
                raise _not_utf8(path, again) from None


def _format_cell(v: float) -> str:
    if math.isnan(v):
        return ""
    if v == int(v):
        return str(int(v))
    return repr(v)  # full precision for an exact round-trip


def write_dataset(ds: Dataset, csv_path) -> None:
    """Write ``ds`` as CSV plus a JSON sidecar next to it.

    The sidecar (same stem, ``.json``) records column names, kinds, and
    class counts so a round-trip read restores exact column kinds.
    """
    csv_path = Path(csv_path)
    with open(csv_path, "w", newline="", encoding="utf-8") as fh:
        w = csv.writer(fh)
        w.writerow(ds.column_names + [LABEL_COLUMN])
        for row, label in zip(ds.x, ds.y.tolist()):
            w.writerow([*map(_format_cell, row.tolist()), label])
    sidecar = {
        "columns": [{"name": c.name, "kind": c.kind} for c in ds.columns],
        "counts": ds.fingerprint(),
    }
    with open(csv_path.with_suffix(".json"), "w", encoding="utf-8") as fh:
        json.dump(sidecar, fh, indent=2, sort_keys=True)
        fh.write("\n")


def parse_finite(cell: str) -> float | None:
    """``cell`` as a float, or None unless it reads as a finite number."""
    try:
        v = float(cell)
    except ValueError:
        return None
    return v if math.isfinite(v) else None


def _parse_cell(cell: str, csv_path, line: int, column: str, binary: bool) -> float:
    v = parse_finite(cell)
    if v is None:
        problem = "is not a finite number"
    elif binary and v not in (0.0, 1.0):
        problem = "is not 0 or 1 in a binary column"
    else:
        return v
    raise ValueError(f"{csv_path}: row {line}, column {column!r}: {cell!r} {problem}")


def read_dataset(csv_path) -> Dataset:
    """Read a dataset CSV written by :func:`write_dataset`.

    Column kinds come from the JSON sidecar when present; without one, a
    column is binary when it has a filled cell and every filled cell is 0
    or 1, else (an all-blank column too) numeric.  Every
    row is original.  A repeated header name, a feature cell that is not a
    finite number, a cell other than 0/1 in a column the sidecar declares
    binary, or a label other than 0/1, is rejected with its file, row and
    column; a byte that is not UTF-8 or a cell over csv's size limit, with its
    file and line; a malformed sidecar, naming the sidecar.  A path that names
    a directory counts as missing.
    """
    csv_path = Path(csv_path)
    if not csv_path.is_file():
        raise FileNotFoundError(f"dataset file not found: {csv_path}")
    with _csv_reader(csv_path) as reader:
        header = next(reader, None)
        rows = list(reader)
    if header is None:
        raise ValueError(f"{csv_path}: empty file, expected a header row")
    if not header or header[-1] != LABEL_COLUMN:
        raise ValueError(f"{csv_path}: last column must be {LABEL_COLUMN!r}")
    for j, name in enumerate(header):
        if name in header[:j]:
            raise ValueError(f"{csv_path}: row 1 (the header), column {j + 1}: "
                             f"name {name!r} repeats column {header.index(name) + 1}")
    names = header[:-1]
    sidecar_path = csv_path.with_suffix(".json")
    columns = None  # without a sidecar, kinds are inferred once the cells are read
    if sidecar_path.is_file():
        try:
            with open(sidecar_path, encoding="utf-8") as fh:
                declared = {c["name"]: c["kind"] for c in json.load(fh)["columns"]}
            missing = [nm for nm in names if nm not in declared]
            if missing:
                raise ValueError(f"no kind declared for columns {missing}")
            columns = tuple(Column(nm, declared[nm]) for nm in names)
        except (KeyError, TypeError):  # a key missing, or a value of the wrong type
            raise ValueError(f'{sidecar_path}: expected {{"columns": '
                             f'[{{"name": ..., "kind": ...}}, ...]}}') from None
        except ValueError as exc:  # not JSON, or an unknown kind
            raise ValueError(f"{sidecar_path}: {exc}") from None
    binary_names = {c.name for c in columns or () if c.kind == BINARY}
    n, p = len(rows), len(names)
    x = np.full((n, p), np.nan)
    y = np.zeros(n, dtype=np.int64)
    for i, row in enumerate(rows):
        line = i + 2  # the header is line 1
        if len(row) != p + 1:
            raise ValueError(f"{csv_path}: row {line} has {len(row)} fields, expected {p + 1}")
        for j, cell in enumerate(row[:-1]):
            if cell.strip() != "":
                x[i, j] = _parse_cell(cell, csv_path, line, names[j], names[j] in binary_names)
        if row[-1].strip() not in ("0", "1"):
            raise ValueError(f"{csv_path}: row {line}, column {LABEL_COLUMN!r}: "
                             f"label {row[-1]!r} is not 0 or 1")
        y[i] = int(row[-1])

    if columns is None:
        binary = _zero_one(x) & ~np.isnan(x).all(axis=0)  # an all-blank column is numeric
        columns = tuple(Column(nm, BINARY if b else NUMERIC) for nm, b in zip(names, binary))
    return Dataset(columns=columns, x=x, y=y)
