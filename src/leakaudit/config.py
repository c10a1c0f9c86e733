"""Plain key-value config files.

Format: one ``key = value`` pair per line, ``#`` starts a comment, blank
lines ignored, list values comma-separated.  The accepted keys are the
entries of :data:`KEYS` plus ``schema.<table>.<field>`` (checked against
``cohort_etl.DEFAULT_SCHEMA`` by ``load_tables``).  Any other key, or a
value its parser refuses, is rejected with the file, line and key.  CLI
flags set the same keys and override file values; a key set by neither
keeps the default of the dataclass field it maps to.
"""

from __future__ import annotations

from pathlib import Path

from .cohort_etl import CohortConfig


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


# dotted key -> (section, field of the section's config dataclass, parser);
# the sections are RunConfig, AdasynConfig, ForestConfig and CohortConfig
KEYS = {
    "run.folds": ("run", "folds", int),
    "run.seed": ("run", "master_seed", int),
    "run.repeats": ("run", "repeats", int),
    "run.holdout_test_fraction": ("run", "holdout_test_fraction", float),
    "adasyn.k_neighbors": ("adasyn", "k_neighbors", int),
    "adasyn.beta": ("adasyn", "beta", float),
    "forest.trees": ("forest", "n_trees", int),
    "forest.max_depth": ("forest", "max_depth", int),
    "forest.min_leaf": ("forest", "min_leaf", int),
    "forest.mtry": ("forest", "mtry", int),
    "forest.bootstrap": ("forest", "bootstrap", _bool),
    "cohort.diagnosis_keyword": ("cohort", "diagnosis_keyword", str),
    "cohort.icd9_prefixes": ("cohort", "icd9_prefixes", _split_list),
    "cohort.los_threshold_days": ("cohort", "los_threshold_days", float),
    "cohort.age_cutoff_years": ("cohort", "age_cutoff_years", float),
    "features.medications": ("cohort", "medication_keys", _split_list),
    "features.labs": ("cohort", "lab_keys", _split_list),
}


def parse_config(path) -> dict:
    """Parse a config file into {dotted key: parsed value}.

    ``schema.*`` values stay strings.  Unknown keys and unparseable values
    raise ``ValueError`` naming the file, line and key.
    """
    path = Path(path)
    if not path.exists():
        raise FileNotFoundError(f"config file not found: {path}")
    values: dict = {}
    for lineno, raw in enumerate(path.read_text().splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ValueError(f"{path}:{lineno}: expected 'key = value', got {raw!r}")
        key, value = (part.strip() for part in line.split("=", 1))
        parts = key.split(".")
        if len(parts) == 3 and parts[0] == "schema":
            values[key] = value
        elif key in KEYS:
            try:
                values[key] = KEYS[key][2](value)
            except ValueError as exc:
                raise ValueError(f"{path}:{lineno}: bad value for config key {key!r}: "
                                 f"{exc}") from None
        else:
            raise ValueError(f"{path}:{lineno}: unknown config key {key!r}")
    return values


def section(values: dict, name: str) -> dict:
    """The keys of one section that ``values`` sets, as {field: value}."""
    return {KEYS[key][1]: value for key, value in values.items()
            if key in KEYS and KEYS[key][0] == name}


def schema_from_config(values: dict) -> dict:
    """Collect ``schema.<table>.<field>`` overrides into a nested map."""
    schema: dict[str, dict[str, str]] = {}
    for key, value in values.items():
        if key.startswith("schema."):
            _, table, field = key.split(".")
            schema.setdefault(table, {})[field] = value
    return schema


def cohort_config_from_config(values: dict) -> CohortConfig:
    """Build extraction settings from ``cohort.*`` and ``features.*`` keys."""
    return CohortConfig(**section(values, "cohort"))
