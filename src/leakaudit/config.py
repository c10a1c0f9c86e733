"""Plain key-value config files.

Format: one ``key = value`` pair per line, ``#`` starts a comment, blank
lines ignored, list values comma-separated.  The accepted keys are the
entries of :data:`KEYS` plus ``schema.<table>.<field>`` for a table and
field of ``cohort_etl.DEFAULT_SCHEMA``.  Any other key, a value that its
parser or its config dataclass refuses, or one longer than a CSV cell may
be, is rejected with the file, line and key.  CLI flags set the same keys
and override file values; a key set by neither keeps the default of the
dataclass field it maps to.
"""

from __future__ import annotations

import csv
from pathlib import Path

from .cohort_etl import DEFAULT_SCHEMA, CohortConfig
from .experiment import RunConfig
from .forest import ForestConfig
from .resampling import AdasynConfig
from .tabular import _not_utf8


def _split_list(value: str) -> tuple[str, ...]:
    return tuple(item.strip() for item in value.split(",") if item.strip())


_TRUE = {"1", "true", "yes", "on"}
_FALSE = {"0", "false", "no", "off"}


def _bool(value: str) -> bool:
    if value.lower() in _TRUE:
        return True
    if value.lower() in _FALSE:
        return False
    raise ValueError(f"expected a boolean, got {value!r}")


# dotted key -> (config dataclass of its section, field it sets, parser)
KEYS = {
    "run.folds": (RunConfig, "folds", int),
    "run.seed": (RunConfig, "master_seed", int),
    "run.repeats": (RunConfig, "repeats", int),
    "run.holdout_test_fraction": (RunConfig, "holdout_test_fraction", float),
    "adasyn.k_neighbors": (AdasynConfig, "k_neighbors", int),
    "adasyn.beta": (AdasynConfig, "beta", float),
    "forest.trees": (ForestConfig, "n_trees", int),
    "forest.max_depth": (ForestConfig, "max_depth", int),
    "forest.min_leaf": (ForestConfig, "min_leaf", int),
    "forest.mtry": (ForestConfig, "mtry", int),
    "forest.bootstrap": (ForestConfig, "bootstrap", _bool),
    "cohort.diagnosis_keyword": (CohortConfig, "diagnosis_keyword", str),
    "cohort.icd9_prefixes": (CohortConfig, "icd9_prefixes", _split_list),
    "cohort.los_threshold_days": (CohortConfig, "los_threshold_days", float),
    "cohort.age_cutoff_years": (CohortConfig, "age_cutoff_years", float),
    "features.medications": (CohortConfig, "medication_keys", _split_list),
    "features.labs": (CohortConfig, "lab_keys", _split_list),
}

# schema.<table>.<field> for every table and field (``file`` included) of DEFAULT_SCHEMA
_SCHEMA_KEYS = {f"schema.{table}.{field}"
                for table, fields in DEFAULT_SCHEMA.items() for field in fields}


def parse_value(key: str, value: str, where: str):
    """``value`` parsed for ``key``, once its parser and config dataclass accept it.

    A refused value raises ``ValueError`` that starts with ``where`` (a
    file's ``path:line``, or a CLI flag) and names the key and the reason.
    """
    cls, field, parse = KEYS[key]
    try:
        parsed = parse(value)
        cls(**{field: parsed})  # the dataclass checks the value's range
    except ValueError as exc:
        raise ValueError(f"{where}: bad value for config key {key!r}: {exc}") from None
    return parsed


def parse_config(path) -> dict:
    """Parse a config file into {dotted key: parsed value}.

    ``schema.*`` values stay strings.  Unknown keys, unparseable values and
    values their section's dataclass rejects raise ``ValueError`` naming
    the file, line and key, as does a value longer than a CSV cell may be; a
    byte that is not UTF-8, the file and line.  A refusal that spans keys is
    checked once every line is read; it names the last line of its section.
    """
    path = Path(path)
    if not path.is_file():
        raise FileNotFoundError(f"config file not found: {path}")
    try:
        text = path.read_text(encoding="utf-8")
    except UnicodeDecodeError:
        text = path.read_text(encoding="utf-8", errors="surrogateescape")
        raise _not_utf8(path, text.splitlines()) from None
    values: dict = {}
    last: dict = {}  # config dataclass -> (line, key) of the last line setting one of its fields
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ValueError(f"{path}:{lineno}: expected 'key = value', got {raw!r}")
        key, value = (part.strip() for part in line.split("=", 1))
        if len(value) > csv.field_size_limit():  # it would name or become a CSV cell
            raise ValueError(f"{path}:{lineno}: value of {key!r} is longer than "
                             f"{csv.field_size_limit()} characters, a CSV cell's limit")
        if key in _SCHEMA_KEYS:
            values[key] = value
        elif key in KEYS:
            values[key] = parse_value(key, value, f"{path}:{lineno}")
            last[KEYS[key][0]] = (lineno, key)
        else:
            raise ValueError(f"{path}:{lineno}: unknown config key {key!r}")
    for cls, (lineno, key) in last.items():  # a check that spans keys sees their final values
        try:
            cls(**section(values, cls))
        except ValueError as exc:
            raise ValueError(f"{path}:{lineno}: bad value for config key {key!r}: {exc}") from None
    return values


def section(values: dict, cls) -> dict:
    """The fields of config dataclass ``cls`` that ``values`` sets, as {field: value}."""
    return {KEYS[key][1]: value for key, value in values.items()
            if key in KEYS and KEYS[key][0] is cls}


def schema_from_config(values: dict) -> dict:
    """Collect ``schema.<table>.<field>`` overrides into a nested map."""
    schema: dict[str, dict[str, str]] = {}
    for key, value in values.items():
        if key.startswith("schema."):
            _, table, field = key.split(".")
            schema.setdefault(table, {})[field] = value
    return schema
