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

    Invariants are checked on construction: consistent shapes, labels in
    {0,1}, binary columns containing only {0,1} or NaN, both parents or none.
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
        if y.shape != (n,):
            raise ValueError("label vector length does not match row count")
        if parents.shape != (n, 2):
            raise ValueError(f"parents must be an ({n}, 2) array, got shape {parents.shape}")
        if (parents < -1).any() or ((parents[:, 0] >= 0) != (parents[:, 1] >= 0)).any():
            raise ValueError("each row needs both parents (row numbers >= 0) or neither (-1)")
        if n and not np.isin(y, (0, 1)).all():
            raise ValueError("labels must be 0 or 1")
        for j, col in enumerate(self.columns):
            if col.kind == BINARY and n:
                v = x[:, j]
                ok = np.isnan(v) | (v == 0.0) | (v == 1.0)
                if not ok.all():
                    raise ValueError(f"binary column {col.name!r} has values outside {{0,1}}")

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
    x = ds.x.copy()
    nan_mask = np.isnan(x)
    if nan_mask.any():
        x[nan_mask] = np.broadcast_to(model.fill, x.shape)[nan_mask]
    return Dataset(columns=ds.columns, x=x, y=ds.y.copy(), parents=ds.parents.copy())


# ---------------------------------------------------------------------------
# CSV + JSON sidecar serialization (shared by the ETL, synth, and run CLIs).
# Missing cells are written as empty fields; the final column is the label.
# ---------------------------------------------------------------------------

def _format_cell(v: float, kind: str) -> str:
    if math.isnan(v):
        return ""
    if kind == BINARY or v == int(v):
        return str(int(v))
    return repr(float(v))  # full precision for an exact round-trip


def write_dataset(ds: Dataset, csv_path) -> None:
    """Write ``ds`` as CSV plus a JSON sidecar next to it.

    The sidecar (same stem, ``.json``) records column names, kinds, and
    class counts so a round-trip read restores exact column kinds.
    """
    csv_path = Path(csv_path)
    with open(csv_path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(ds.column_names + [LABEL_COLUMN])
        for i in range(ds.n_rows):
            row = [_format_cell(ds.x[i, j], c.kind) for j, c in enumerate(ds.columns)]
            row.append(str(int(ds.y[i])))
            w.writerow(row)
    sidecar = {
        "columns": [{"name": c.name, "kind": c.kind} for c in ds.columns],
        "counts": ds.fingerprint(),
    }
    with open(csv_path.with_suffix(".json"), "w") as fh:
        json.dump(sidecar, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _parse_cell(cell: str, csv_path, line: int, column: str) -> float:
    try:
        v = float(cell)
    except ValueError:
        v = math.nan  # text that is no number gets the same diagnostic
    if not math.isfinite(v):
        raise ValueError(f"{csv_path}: row {line}, column {column!r}: "
                         f"{cell!r} is not a finite number")
    return v


def read_dataset(csv_path) -> Dataset:
    """Read a dataset CSV written by :func:`write_dataset`.

    Column kinds come from the JSON sidecar when present; without one, a
    column whose observed values are all 0/1 is treated as binary.  Every
    row is original.  A feature cell that is not a finite number,
    or a label other than 0/1, is rejected with its file, row and column; a
    malformed sidecar is rejected naming the sidecar.
    """
    csv_path = Path(csv_path)
    if not csv_path.exists():
        raise FileNotFoundError(f"dataset file not found: {csv_path}")
    with open(csv_path, newline="") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise ValueError(f"{csv_path}: empty file, expected a header row") from None
        rows = list(reader)
    if not header or header[-1] != LABEL_COLUMN:
        raise ValueError(f"{csv_path}: last column must be {LABEL_COLUMN!r}")
    names = header[:-1]
    n, p = len(rows), len(names)
    x = np.full((n, p), np.nan)
    y = np.zeros(n, dtype=np.int64)
    for i, row in enumerate(rows):
        line = i + 2  # the header is line 1
        if len(row) != p + 1:
            raise ValueError(f"{csv_path}: row {line} has {len(row)} fields, expected {p + 1}")
        for j, cell in enumerate(row[:-1]):
            if cell.strip() != "":
                x[i, j] = _parse_cell(cell, csv_path, line, names[j])
        if row[-1].strip() not in ("0", "1"):
            raise ValueError(f"{csv_path}: row {line}, column {LABEL_COLUMN!r}: "
                             f"label {row[-1]!r} is not 0 or 1")
        y[i] = int(row[-1])

    sidecar_path = csv_path.with_suffix(".json")
    if sidecar_path.exists():
        try:
            with open(sidecar_path) as fh:
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
    else:
        kinds = []
        for j in range(p):
            v = x[:, j]
            obs = v[~np.isnan(v)]
            binary = obs.size > 0 and np.isin(obs, (0.0, 1.0)).all()
            kinds.append(BINARY if binary else NUMERIC)
        columns = tuple(Column(nm, k) for nm, k in zip(names, kinds))
    return Dataset(columns=columns, x=x, y=y)
