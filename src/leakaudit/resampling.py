"""Adaptive synthetic minority oversampling with exact count accounting.

Follows the classic adaptive scheme: each minority seed point is weighted
by the fraction of majority points among its K nearest neighbors, the
total synthetic budget G = round(beta * (majority - minority)) is split
across seeds by largest remainder so the counts are exact, and each
synthetic sample is a uniform interpolation between a seed and one of its
K nearest minority neighbors.  One neighbour search per seed (a stable sort
of its distances to every selected row, ties going to the lower row) feeds
both its weight and its partners.  Generated rows record their two parents,
so downstream contamination checks can find them and trace them back.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .tabular import BINARY, Dataset


@dataclass(frozen=True)
class AdasynConfig:
    k_neighbors: int = 5
    beta: float = 1.0  # 1.0 = fully balanced output
    seed: int = 0

    def __post_init__(self):
        if self.k_neighbors < 1:
            raise ValueError("k_neighbors must be at least 1")
        if not 0 <= self.beta <= 1:
            raise ValueError("beta must be in [0, 1]")


def allocate_counts(weights, total: int) -> np.ndarray:
    """Split ``total`` units over normalized ``weights`` by largest remainder.

    Counts are floor(weight*total) plus one unit to the largest remainders,
    ties going to the lower index, so the result always sums to ``total``.
    """
    w = np.asarray(weights, dtype=np.float64)
    if w.size and (~np.isfinite(w)).any():
        raise ValueError("weights must be finite")
    if w.size and (w < 0).any():
        raise ValueError("weights must be non-negative")
    if abs(float(w.sum()) - 1.0) > 1e-9:
        raise ValueError(f"weights must sum to 1 (got {float(w.sum())!r})")
    raw = w * total
    counts = np.floor(raw).astype(np.int64)
    short = int(total - counts.sum())
    if short > 0:
        remainders = raw - counts
        # stable sort on negated remainders: ties resolve to the lower index
        for i in np.argsort(-remainders, kind="stable")[:short]:
            counts[i] += 1
    return counts


def adasyn(ds: Dataset, rows, cfg: AdasynConfig) -> Dataset:
    """Oversample the minority class among ``rows``.

    Returns a new dataset holding the selected rows unchanged (in order)
    followed by G synthetic minority rows, whose ``parents`` are two of
    ``rows``.  Requires both classes present and no missing cells among the
    selected rows; impute first.
    """
    rows = np.asarray(rows, dtype=np.intp)
    x = ds.x[rows]
    y = ds.y[rows]
    if np.isnan(x).any():
        raise ValueError("selected rows contain missing cells; impute before oversampling")
    n_pos = int((y == 1).sum())
    n_neg = int((y == 0).sum())
    if n_pos == 0 or n_neg == 0:
        raise ValueError("oversampling requires both classes among the selected rows")

    minority_label = 1 if n_pos <= n_neg else 0
    m_s = min(n_pos, n_neg)
    m_l = max(n_pos, n_neg)
    g_total = int(math.floor(cfg.beta * (m_l - m_s) + 0.5))

    parents = ds.parents[rows]
    if g_total == 0:
        return Dataset(columns=ds.columns, x=x.copy(), y=y.copy(), parents=parents)

    is_min = y == minority_label
    minority_idx = np.flatnonzero(is_min)
    k = cfg.k_neighbors
    k_all = min(k, len(y) - 1)
    # a lone minority point is its own partner: its distance is inf, so it sorts last
    k_min = max(min(k, m_s - 1), 1)

    # one neighbour search per seed: its K nearest rows give its weight (their
    # majority share), its K nearest minority rows its interpolation partners
    nearest = np.empty((m_s, k_all), dtype=np.intp)
    partners = []
    for i, mi in enumerate(minority_idx):
        d = np.linalg.norm(x - x[mi], axis=1)
        d[mi] = np.inf  # never pick the seed itself
        order = np.argsort(d, kind="stable")  # ties go to the lower row
        nearest[i] = order[:k_all]
        partners.append(order[is_min[order]][:k_min])
    r = (~is_min[nearest]).sum(axis=1) / k
    if r.sum() > 0:
        weights = r / r.sum()
    else:
        # no seed has majority neighbors; fall back to uniform weights
        weights = np.full(m_s, 1.0 / m_s)
    g_counts = allocate_counts(weights, g_total)

    # the draw order fixes the output: per seed in order, per sample, a partner then a lambda
    rng = np.random.default_rng(cfg.seed)
    partner_rows, lam = [], []
    for i in np.repeat(np.arange(m_s), g_counts):
        partner_rows.append(partners[i][rng.integers(len(partners[i]))])
        lam.append(rng.random())
    seed_rows = np.repeat(minority_idx, g_counts)
    partner_rows = np.array(partner_rows)
    # seed + lam * (partner - seed), in place to spare three (G, p) temporaries
    samples = x[partner_rows] - x[seed_rows]
    samples *= np.array(lam)[:, None]
    samples += x[seed_rows]
    binary_cols = np.array([c.kind == BINARY for c in ds.columns], dtype=bool)
    samples[:, binary_cols] = samples[:, binary_cols] >= 0.5

    new_x = np.vstack([x, samples])
    new_y = np.concatenate([y, np.full(g_total, minority_label, dtype=y.dtype)])
    new_parents = np.vstack([parents, np.column_stack([rows[seed_rows], rows[partner_rows]])])
    return Dataset(columns=ds.columns, x=new_x, y=new_y, parents=new_parents)
