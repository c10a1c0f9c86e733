"""Adaptive synthetic minority oversampling with exact count accounting.

Follows the classic adaptive scheme: each minority seed point is weighted
by the fraction of majority points among its K nearest neighbors, the
total synthetic budget G = round(beta * (majority - minority)) is split
across seeds by largest remainder so the counts are exact, and each
synthetic sample is a uniform interpolation between a seed and one of its
K nearest minority neighbors.  One neighbour search per seed feeds both its
weight and its partners.  Seeds are searched a block at a time: one matrix
product screens the block against every row, the rows within a proven
rounding margin of a seed's K-th smallest screen value get exact distances
(the same sum per row as a full search, so the same bits), and the K
smallest of those, ties going to the lower row, are what a stable sort of
every distance would return.  Generated rows record their two parents, so
downstream contamination checks can find them and trace them back.
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
        counts[np.argsort(-remainders, kind="stable")[:short]] += 1
    return counts


# screen cells (seeds x rows) per neighbour-search block; bounds the block's temporaries
_SCREEN_CELLS = 1 << 17


def _screen_input(x: np.ndarray) -> tuple[np.ndarray, float]:
    """The screen's input ``w`` and the margin that makes the screen sound.

    ``w`` is ``x`` halved, centred per column on its midrange and scaled by a
    power of two so that its largest cell lies in [0.5, 1): nothing overflows,
    and the Gram terms are small.  Write s for the total scaling, a power of
    two, u = 2**-53 and p for the column count.  For rows a and b let S be
    the screen value ``sq[a] + sq[b] - 2 * (w[a] @ w[b])``, Q the exact
    ||x[a] - x[b]||**2 / s**2, and d the distance ``adasyn`` computes.  Then

        |S - Q|         <= (4p + 19) p u + p 2**-1070 / s
        |d**2/s**2 - Q| <= 4 (p + 4) p u + p 2**-1075 / s**2    (d finite)

    The first bound covers the Gram terms' rounding (a dot product of p
    terms, three additions) and the centring's; its last term is the cells
    that halving leaves subnormal.  The second covers d's p squares, their
    sum and the square root; its last term is the squares that underflow.
    The margin returned, 64 (p + 5) p u + p 2**-1068 / s**2, is at least
    twice the first bound plus four times the second (see ``_confirm``).
    """
    p = x.shape[1]
    w = np.ldexp(x, -1)
    w -= np.ldexp(w.max(axis=0), -1) + np.ldexp(w.min(axis=0), -1)
    _, e = np.frexp(np.abs(w).max(initial=0.0))
    np.ldexp(w, -int(e), out=w)
    under = -1068 - 2 * (1 + int(e))
    return w, 64 * (p + 5) * p * 2.0 ** -53 + (math.inf if under > 1000 else math.ldexp(p, under))


def _exact(x: np.ndarray, cand, seeds) -> np.ndarray:
    """Distances from rows ``seeds`` to rows ``cand`` of ``x``, pair by pair.

    Each pair's squared cells are summed along one row, so a distance has the
    same bits however many pairs are computed together.  A distance that
    overflows is inf, which ``_confirm`` handles.
    """
    with np.errstate(over="ignore"):
        diff = x[cand] - x[seeds]
        diff *= diff
        return np.sqrt(np.add.reduce(diff, axis=1))


def _confirm(x, seeds, screen, cols, k, margin) -> np.ndarray:
    """Each seed's ``k`` nearest rows among ``cols``, in stable-argsort order.

    ``screen`` holds the seeds' screen values against ``cols`` (inf for a
    seed itself).  A seed's candidates are the columns within ``margin`` of
    its k-th smallest screen value; their exact distances are sorted by
    (distance, column), so ties go to the lower column.  By the bounds in
    ``_screen_input``, a column left out has a larger exact distance than
    each of the k columns with the smallest screen values, unless both
    overflow to inf.  So while the k-th candidate distance is finite the
    picks are a full search's; a seed whose k-th distance overflows is
    searched over every column, where ties at inf go to the lower column.
    """
    kth = np.partition(screen, k - 1, axis=1)[:, k - 1]
    # flatnonzero: a 2-D nonzero takes ten times as long
    seed_of, cand = np.divmod(np.flatnonzero(screen <= (kth + margin)[:, None]), len(cols))
    cand = cols[cand]
    d = _exact(x, cand, seeds[seed_of])
    d[cand == seeds[seed_of]] = np.inf  # never pick the seed itself
    order = np.lexsort((d, seed_of))  # stable: a tie keeps the lower column first
    first = np.searchsorted(seed_of, np.arange(len(seeds)))
    picked = order[first[:, None] + np.arange(k)]
    out = cand[picked]
    for i in np.flatnonzero(np.isinf(d[picked[:, -1]])):
        d = _exact(x, cols, seeds[i])
        d[cols == seeds[i]] = np.inf
        out[i] = cols[np.argsort(d, kind="stable")[:k]]
    return out


def _neighbours(x: np.ndarray, minority_idx: np.ndarray, k_all: int, k_min: int):
    """Each minority seed's ``k_all`` nearest rows and ``k_min`` nearest minority rows.

    A block of seeds is screened against every row with one matrix product,
    and only the rows the screen cannot rule out get an exact distance
    (``_confirm``), so the picks are those of a full search.
    """
    w, margin = _screen_input(x)
    sq = np.einsum("ij,ij->i", w, w)
    rows = np.arange(len(x))
    nearest = np.empty((len(minority_idx), k_all), dtype=np.intp)
    partners = np.empty((len(minority_idx), k_min), dtype=np.intp)
    step = max(1, _SCREEN_CELLS // len(x))
    for a in range(0, len(minority_idx), step):
        seeds = minority_idx[a:a + step]
        screen = w[seeds] @ w.T
        screen *= -2.0
        screen += sq
        screen += sq[seeds, None]
        screen[np.arange(len(seeds)), seeds] = np.inf
        nearest[a:a + step] = _confirm(x, seeds, screen, rows, k_all, margin)
        partners[a:a + step] = _confirm(x, seeds, screen[:, minority_idx], minority_idx,
                                        k_min, margin)
    return nearest, partners


def adasyn(ds: Dataset, rows, cfg: AdasynConfig) -> Dataset:
    """Oversample the minority class among ``rows``.

    Returns a new dataset holding the selected rows unchanged (in order)
    followed by G synthetic minority rows, whose ``parents`` are two of
    ``rows``.  Requires both classes present and no missing cells among the
    selected rows; impute first.  A synthetic cell that overflows raises
    ``ValueError`` naming its column.
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
        return Dataset(columns=ds.columns, x=x, y=y, parents=parents)

    is_min = y == minority_label
    minority_idx = np.flatnonzero(is_min)
    k = cfg.k_neighbors
    k_all = min(k, len(y) - 1)
    # a lone minority point is its own partner: its distance is inf, so it sorts last
    k_min = max(min(k, m_s - 1), 1)

    # one search per seed: its K nearest rows give its weight (their majority
    # share), its K nearest minority rows its interpolation partners
    nearest, partners = _neighbours(x, minority_idx, k_all, k_min)
    r = (~is_min[nearest]).sum(axis=1) / k
    if r.sum() > 0:
        weights = r / r.sum()
    else:
        # no seed has majority neighbors; fall back to uniform weights
        weights = np.full(m_s, 1.0 / m_s)
    g_counts = allocate_counts(weights, g_total)

    # the draw order fixes the output: every sample's partner pick, then every lambda
    rng = np.random.default_rng(cfg.seed)
    seed_of = np.repeat(np.arange(m_s), g_counts)
    partner_rows = partners[seed_of, rng.integers(0, k_min, size=g_total)]
    lam = rng.random(g_total)
    seed_rows = minority_idx[seed_of]
    with np.errstate(over="ignore", invalid="ignore"):
        samples = x[seed_rows] + lam[:, None] * (x[partner_rows] - x[seed_rows])
    # finite cells of opposite sign near the float limit overflow, and a lambda of
    # 0 times inf is NaN; either would pass on as a cell the input does not have
    if not (finite := np.isfinite(samples).all(axis=0)).all():
        raise ValueError(f"column {ds.columns[np.argmin(finite)].name!r}: "
                         f"ADASYN interpolation overflowed")
    binary_cols = np.array([c.kind == BINARY for c in ds.columns], dtype=bool)
    samples[:, binary_cols] = samples[:, binary_cols] >= 0.5

    new_x = np.vstack([x, samples])
    new_y = np.concatenate([y, np.full(g_total, minority_label, dtype=y.dtype)])
    new_parents = np.vstack([parents, np.column_stack([rows[seed_rows], rows[partner_rows]])])
    return Dataset(columns=ds.columns, x=new_x, y=new_y, parents=new_parents)
