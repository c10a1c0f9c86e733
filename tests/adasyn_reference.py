"""Reference ADASYN: the two-pass implementation ``adasyn`` replaced.

``_synthesize`` searched each seed's minority neighbours a second time, after
``adasyn`` had searched all rows for the seed's weight.  ``adasyn`` now does
one search per seed; ``tests/test_resampling.py`` checks that it still
returns the same bytes as this copy.  Its draw step follows ``adasyn``'s
order, every sample's neighbour pick in one call and then every lambda in
another; keep the rest unchanged.
"""

from __future__ import annotations

import math

import numpy as np

from leakaudit.resampling import AdasynConfig, allocate_counts
from leakaudit.tabular import BINARY, Dataset


def _nearest(dists: np.ndarray, k: int) -> np.ndarray:
    """Indices of the k smallest entries, ties to the lower index."""
    order = np.argsort(dists, kind="stable")
    return order[:k]


def _synthesize(x, y, columns, minority_label, k_cfg, g_counts, rng):
    """Generate sum(g_counts) samples; returns (rows, parent index pairs).

    ``g_counts[i]`` samples are interpolated from minority seed i toward a
    uniformly drawn member of its K nearest minority neighbors (K clamped
    to the available neighbor count).  Binary cells are thresholded at 0.5.
    """
    minority_idx = np.flatnonzero(y == minority_label)
    x_min = x[minority_idx]
    m_s = len(minority_idx)
    k_min = min(k_cfg, m_s - 1)
    binary_cols = np.array([c.kind == BINARY for c in columns])

    neighbors = []
    for i in range(m_s):
        if k_min >= 1:
            d = np.linalg.norm(x_min - x_min[i], axis=1)
            d[i] = np.inf  # never pick the seed itself
            neighbors.append(_nearest(d, k_min))
        else:
            neighbors.append(np.array([i]))  # lone minority point: duplicate it
    # every sample's neighbour pick first, then every lambda
    seed_of = np.repeat(np.arange(m_s), g_counts)
    n_partners = np.array([len(nb) for nb in neighbors])
    picks = rng.integers(0, n_partners[seed_of])
    lams = rng.random(len(seed_of))

    samples, parents = [], []
    for i, pick, lam in zip(seed_of, picks, lams):
        z = neighbors[i][pick]
        s = x_min[i] + lam * (x_min[z] - x_min[i])
        if binary_cols.any():
            s[binary_cols] = np.where(s[binary_cols] >= 0.5, 1.0, 0.0)
        samples.append(s)
        parents.append((int(minority_idx[i]), int(minority_idx[z])))
    return samples, parents


def reference_adasyn(ds: Dataset, rows, cfg: AdasynConfig) -> Dataset:
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

    minority_idx = np.flatnonzero(y == minority_label)
    majority_mask = y != minority_label

    # seed weights: majority density among each seed's K nearest neighbors
    k = cfg.k_neighbors
    delta = np.empty(len(minority_idx))
    for i, mi in enumerate(minority_idx):
        d = np.linalg.norm(x - x[mi], axis=1)
        d[mi] = np.inf
        neighbors = _nearest(d, min(k, len(y) - 1))
        delta[i] = majority_mask[neighbors].sum()
    r = delta / k
    if r.sum() > 0:
        weights = r / r.sum()
    else:
        # no seed has majority neighbors; fall back to uniform weights
        weights = np.full(len(minority_idx), 1.0 / len(minority_idx))
    g_counts = allocate_counts(weights, g_total)

    rng = np.random.default_rng(cfg.seed)
    # _synthesize numbers parents within the subset; rows maps them back to ds
    samples, pairs = _synthesize(x, y, ds.columns, minority_label, k, g_counts, rng)

    new_x = np.vstack([x, np.array(samples)])
    new_y = np.concatenate([y, np.full(g_total, minority_label, dtype=y.dtype)])
    new_parents = np.vstack([parents, rows[np.array(pairs)]])
    return Dataset(columns=ds.columns, x=new_x, y=new_y, parents=new_parents)
