"""Synthetic stand-in cohorts with controlled size, imbalance, and signal.

Lets the leakage experiments run without access to the credentialed ICU
database: exact class counts, a tunable mean shift on the informative
features, and MCAR missingness on the numeric features only.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .tabular import BINARY, NUMERIC, Column, Dataset


@dataclass(frozen=True)
class SynthConfig:
    n_total: int = 112
    n_minority: int = 10
    n_binary_features: int = 10
    n_numeric_features: int = 10
    signal_strength: float = 1.0  # class mean shift, in units of feature std
    n_informative: int = 4
    missing_rate: float = 0.1  # numeric cells only, MCAR
    seed: int = 0

    def __post_init__(self):
        # each message names every field its check reads: the CLI maps them to flags
        if not 0 < self.n_minority < self.n_total:
            raise ValueError("need 0 < n_minority < n_total")
        for name in ("n_binary_features", "n_numeric_features", "n_informative"):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be non-negative")
        if self.n_informative > self.n_binary_features + self.n_numeric_features:
            raise ValueError("n_informative exceeds n_binary_features + n_numeric_features")
        if not 0 <= self.missing_rate < 1:
            raise ValueError("missing_rate must be in [0, 1)")
        if not 0 <= self.signal_strength < math.inf:
            raise ValueError("signal_strength must be non-negative and finite")


def generate_cohort(cfg: SynthConfig) -> Dataset:
    """Generate a labeled dataset with exactly ``cfg.n_minority`` positives.

    Informative slots are assigned to numeric features first (standard
    normal vs. mean ``signal_strength`` for positives), then to binary
    features (Bernoulli 0.3 vs. ``min(0.9, 0.3 + 0.2*signal_strength)``).
    Identical config implies an identical dataset.
    """
    rng = np.random.default_rng(cfg.seed)
    n, s = cfg.n_total, cfg.signal_strength
    n_num, n_bin = cfg.n_numeric_features, cfg.n_binary_features
    informative_num = min(cfg.n_informative, n_num)
    informative_bin = cfg.n_informative - informative_num

    y = np.zeros(n, dtype=np.int64)
    y[: cfg.n_minority] = 1
    rng.shuffle(y)
    pos = y == 1

    x_num = rng.standard_normal((n, n_num))
    x_num[pos, :informative_num] += s

    p_pos = min(0.9, 0.3 + 0.2 * s)
    x_bin = (rng.random((n, n_bin)) < 0.3).astype(float)
    draws = rng.random((int(pos.sum()), informative_bin))
    x_bin[pos, :informative_bin] = (draws < p_pos).astype(float)

    if cfg.missing_rate > 0 and n_num:
        mask = rng.random((n, n_num)) < cfg.missing_rate
        x_num[mask] = np.nan

    columns = tuple(
        [Column(f"bin_{j:02d}", BINARY) for j in range(n_bin)]
        + [Column(f"num_{j:02d}", NUMERIC) for j in range(n_num)]
    )
    x = np.hstack([x_bin, x_num])
    return Dataset(columns=columns, x=x, y=y)
