"""Random forest probability classifier, plus the majority-class baseline.

Axis-aligned trees, greedy Gini splits over a per-node random feature
subset, bootstrap resampling per tree.  Scores are the mean over trees of
the positive-class fraction in the reached leaf.  Growth and prediction both
move a row from node i to ``left[i] + (x[feature[i]] > threshold[i])``; a
leaf (feature -1, threshold +inf) is its own ``left``.  The model keeps the
nodes in growth's level order: tree t's root is node t and each child comes
after its parent; ``ForestModel.trees`` numbers children within each tree.

All trees grow together, one depth level per pass, as in presorted
level-wise split search (SLIQ): each feature is ranked once, and a level's
search is one argsort of (node, candidate, rank) keys followed by segmented
cumulative sums of the Gini counts.  A binary (0/1) column's cells are its
ranks; a numeric column is ranked by ``np.unique``.  A pass whose keys are
all below 2**16 sorts them as ``uint16``, which numpy radix-sorts; the order
within a run of equal keys, which hold equal values, changes no split.
One generator, ``default_rng(derive_seed(seed, "bootstrap"))``, draws every
tree's bootstrap sample as one (n_trees, n) array; tree t's draw is row t,
kept as per-row counts.  A node's candidate features come from a
counter-based key: tree t's root key is mix(derive_seed(seed, "tree"), t), a
child's is mix(parent key, side), and the candidates are the ``mtry``
features with the smallest mix(key, feature), drawn once per level.  Neither
growth order nor scheduling can change the model, and a tree does not depend
on how many trees grow.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .seeding import derive_seed
from .tabular import BINARY, Column, Dataset

# (instance, candidate) pairs per split-search pass; bounds the working set
_PAIRS_PER_PASS = 4096
# keys below this bound fit uint16, which numpy's stable argsort radix-sorts
_RADIX_BOUND = 1 << 16


@dataclass(frozen=True)
class ForestConfig:
    n_trees: int = 100
    max_depth: int | None = None  # None = grow to purity
    min_leaf: int = 1
    mtry: int | None = None  # None = floor(sqrt(p))
    bootstrap: bool = True
    seed: int = 0

    def __post_init__(self):
        if self.n_trees < 1:
            raise ValueError("n_trees must be at least 1")
        if self.min_leaf < 1:
            raise ValueError("min_leaf must be at least 1")
        if self.max_depth is not None and self.max_depth < 1:
            raise ValueError("max_depth must be at least 1 (or None to grow to purity)")
        if self.mtry is not None and self.mtry < 1:
            raise ValueError("mtry must be at least 1 (or None for floor(sqrt(p)))")


class _Nodes(NamedTuple):
    # a row goes to left + (its feature cell > threshold); a leaf has feature -1,
    # threshold +inf and is its own left.  value is the node's positive fraction
    feature: np.ndarray
    threshold: np.ndarray
    left: np.ndarray
    value: np.ndarray


@dataclass(frozen=True)
class ForestModel:
    nodes: _Nodes  # every tree's, in level order: tree t's root is node t
    node_tree: np.ndarray  # the tree each node belongs to
    columns: tuple[Column, ...]

    @property
    def trees(self) -> tuple[_Nodes, ...]:
        """Each tree's nodes in level order, its children numbered within the tree."""
        order = np.argsort(self.node_tree, kind="stable")  # by tree, level order within
        ends = np.cumsum(np.bincount(self.node_tree))
        within = np.argsort(order) - np.r_[0, ends[:-1]][self.node_tree]  # index within its tree
        nodes = self.nodes._replace(left=within[self.nodes.left])
        return tuple(map(_Nodes, *(np.split(a[order], ends[:-1]) for a in nodes)))


def _mix(key: np.ndarray, salt: np.ndarray) -> np.ndarray:
    """SplitMix64 finaliser of ``key + (salt + 1) * golden gamma``, on uint64 arrays."""
    z = key + (salt + np.uint64(1)) * np.uint64(0x9E3779B97F4A7C15)
    z = (z ^ (z >> np.uint64(30))) * np.uint64(0xBF58476D1CE4E5B9)
    z = (z ^ (z >> np.uint64(27))) * np.uint64(0x94D049BB133111EB)
    return z ^ (z >> np.uint64(31))


def _candidates(keys: np.ndarray, p: int, mtry: int) -> np.ndarray:
    """Each node's ``mtry`` features with the smallest mix(key, feature), in hash order."""
    if mtry == p:  # every feature, in index order: no draw
        return np.broadcast_to(np.arange(p), (len(keys), p))
    h = _mix(keys[:, None], np.arange(p, dtype=np.uint64))
    return np.argsort(h, axis=1, kind="stable")[:, :mtry]


def _step(x, row, feature, threshold, left, node):
    """Where each (row, node) pair moves: a leaf keeps it, a split sends it to left or left + 1.

    Cells are read through flat indices of the C-contiguous ``x``.  A leaf's
    feature -1 reads some other cell, which its +inf threshold ignores.
    """
    return left[node] + (x.ravel()[row * x.shape[1] + feature[node]] > threshold[node])


def _argsort(keys: np.ndarray, bound: int, kind: str | None = None) -> np.ndarray:
    """``np.argsort(keys, kind=kind)`` of non-negative integer keys below ``bound``,
    radix-sorted (so stable) when they fit 16 bits."""
    if bound <= _RADIX_BOUND:
        return np.argsort(keys.astype(np.uint16), kind="stable")
    return np.argsort(keys, kind=kind)


def _split_pass(x, y, ranks, node, row, w, size, pos, cands, min_leaf):
    """Per node, the first lowest-cost (feature, threshold); (-1, +inf) if none.

    Instances are grouped by ``node`` (0, 1, ...) and weigh ``w``; node i's
    candidate features are ``cands[i]``, searched in that order.  Cost is
    the size-weighted Gini, lp*(ln-lp)/ln + rp*(rn-rp)/rn, on exact integer
    counts.  The first candidate with the strictly lowest cost wins, and
    within it the lowest threshold: the midpoint of two consecutive values,
    or the left one when the midpoint rounds up to the right one.  Ranks are
    read through flat indices of the C-contiguous ``ranks``.
    """
    n, p = ranks.shape
    m, mtry = cands.shape
    feats = np.take(cands, node, axis=0)  # gathers whole rows faster than cands[node]
    key = ((node * (mtry * n))[:, None] + np.arange(0, mtry * n, n)
           + ranks.ravel()[(row * p)[:, None] + feats]).ravel()
    order = _argsort(key, m * mtry * n)  # equal keys hold equal values
    key, inst = key[order], order // mtry
    ws, wys = w[inst], (w * y[row])[inst]
    cw, cp = np.cumsum(ws), np.cumsum(wys)
    seg_len = np.repeat(np.bincount(node, minlength=m), mtry)
    start = np.cumsum(seg_len) - seg_len
    # a split point ends a run of equal ranks before its (node, candidate) segment ends
    edge = key[:-1] != key[1:]
    edge[start[1:] - 1] = False
    v = np.flatnonzero(edge)
    sv = key[v] // n  # each split point's segment
    at = sv // mtry  # and its node
    ln = cw[v] - (cw[start] - ws[start])[sv]
    rn = size[at] - ln
    ok = (ln >= min_leaf) & (rn >= min_leaf)
    v, sv, at, ln, rn = v[ok], sv[ok], at[ok], ln[ok], rn[ok]
    lp = cp[v] - (cp[start] - wys[start])[sv]
    rp = pos[at] - lp
    cost = np.full(len(key), np.inf)
    split_cost = lp * (ln - lp) / ln + rp * (rn - rp) / rn
    cost[v] = split_cost
    lowest = np.minimum.reduceat(cost, start[::mtry])
    hit = split_cost == lowest[at]
    best, at = v[hit], at[hit]
    first = np.ones(len(at), dtype=bool)  # a node's first hit: its first candidate, lowest rank
    np.not_equal(at[1:], at[:-1], out=first[1:])
    best, at = best[first], at[first]
    f = feats.ravel()[order[best]]
    lo, hi = x[row[inst[best]], f], x[row[inst[best + 1]], f]
    thr = 0.5 * (lo + hi)
    feature, threshold = np.full(m, -1), np.full(m, np.inf)
    feature[at], threshold[at] = f, np.where(thr >= hi, lo, thr)
    return feature, threshold


def _best_splits(x, y, ranks, node, row, w, size, pos, keys, mtry, min_leaf):
    """Run ``_split_pass`` over passes of whole nodes.

    A pass holds at most ``_PAIRS_PER_PASS`` (instance, candidate) pairs,
    unless one node alone has more.  Instances are grouped by ``node``.  The
    level's candidates are drawn once, and each pass reads its nodes' rows.
    """
    cands = _candidates(keys, x.shape[1], mtry)
    first = np.concatenate(([0], np.cumsum(np.bincount(node, minlength=len(keys)))))
    passes, a = [], 0
    while a < len(keys):
        b = max(a + 1, int(np.searchsorted(first, first[a] + _PAIRS_PER_PASS // mtry,
                                           "right")) - 1)
        i, j = first[a], first[b]
        passes.append(_split_pass(x, y, ranks, node[i:j] - a, row[i:j], w[i:j], size[a:b],
                                  pos[a:b], cands[a:b], min_leaf))
        a = b
    return [np.concatenate(z) for z in zip(*passes)]


def _bootstrap(n: int, cfg: ForestConfig):
    """(tree, row, count) for each row that tree's bootstrap draw holds.

    One generator draws every tree's sample as an (n_trees, n) array, filled
    row by row, so tree t's draw is row t whatever the number of trees.  The
    counts are kept flat, at index tree * n + row, and read in that order.
    """
    trees = cfg.n_trees
    if cfg.bootstrap:
        rng = np.random.default_rng(derive_seed(cfg.seed, "bootstrap"))
        draw = rng.integers(0, n, size=(trees, n)) + n * np.arange(trees)[:, None]
        counts = np.bincount(draw.ravel(), minlength=trees * n)
    else:
        counts = np.ones(trees * n, dtype=np.int64)
    held = np.flatnonzero(counts)
    tree, row = np.divmod(held, n)
    return tree, row, counts[held].astype(np.float64)


def _grow_forest(x, y, kinds, cfg: ForestConfig, mtry: int):
    """Grow every tree together, one depth level per pass.

    An instance is a (tree, distinct bootstrap row) pair weighing the row's
    count.  Returns each node's tree and the node arrays, in level order.
    """
    n, p = x.shape
    ranks = np.empty((n, p), dtype=np.int32)
    for f, kind in enumerate(kinds):  # a 0/1 column's cells are its ranks
        ranks[:, f] = x[:, f] if kind == BINARY else np.unique(x[:, f], return_inverse=True)[1]
    node, row, w = _bootstrap(n, cfg)
    node_tree = np.arange(cfg.n_trees)
    keys = _mix(np.uint64(derive_seed(cfg.seed, "tree")), node_tree.astype(np.uint64))
    levels, off, depth = [], 0, 0
    while len(keys):
        m = len(keys)
        size = np.bincount(node, w, minlength=m)
        pos = np.bincount(node, w * y[row], minlength=m)
        split = (pos > 0) & (pos < size) & (size >= 2 * cfg.min_leaf)
        split &= cfg.max_depth is None or depth < cfg.max_depth
        feature, threshold = np.full(m, -1), np.full(m, np.inf)
        keep = split[node]
        node, row, w = node[keep], row[keep], w[keep]
        if split.any() and p:  # with no feature, every node is a leaf
            feature[split], threshold[split] = _best_splits(
                x, y, ranks, (np.cumsum(split) - 1)[node], row, w, size[split], pos[split],
                keys[split], mtry, cfg.min_leaf)
        has = feature >= 0
        left = np.where(has, off + m + 2 * (np.cumsum(has) - 1), off + np.arange(m))
        levels.append((node_tree, feature, threshold, left, pos / size))
        # send the split nodes' instances to their children, grouped by child
        keep = has[node]
        node, row, w = node[keep], row[keep], w[keep]
        child = _step(x, row, feature, threshold, left - off - m, node)
        order = _argsort(child, 2 * has.sum(), kind="stable")
        node, row, w = child[order], row[order], w[order]
        keys = _mix(keys[has, None], np.arange(2, dtype=np.uint64)).ravel()
        node_tree = np.repeat(node_tree[has], 2)
        off, depth = off + m, depth + 1
    return [np.concatenate(a) for a in zip(*levels)]


def train_forest(ds: Dataset, rows, cfg: ForestConfig) -> ForestModel:
    """Fit ``cfg.n_trees`` trees on bootstrap resamples of ``rows``."""
    rows = np.asarray(rows, dtype=np.intp)
    if rows.size == 0:
        raise ValueError("cannot train on an empty row set")
    x = ds.x[rows]
    y = ds.y[rows].astype(np.float64)
    if np.isnan(x).any():
        raise ValueError("training rows contain missing cells; impute first")
    p = x.shape[1]
    mtry = cfg.mtry if cfg.mtry is not None else max(1, int(np.sqrt(p)))
    node_tree, *nodes = _grow_forest(x, y, [c.kind for c in ds.columns], cfg, min(mtry, p))
    return ForestModel(_Nodes(*nodes), node_tree, ds.columns)


def predict_proba(model: ForestModel, ds: Dataset, rows) -> np.ndarray:
    """Positive-class score in [0, 1] for each requested row."""
    if tuple(model.columns) != tuple(ds.columns):
        raise ValueError("dataset columns do not match the model schema")
    rows = np.asarray(rows, dtype=np.intp)
    x = ds.x[rows]
    if np.isnan(x).any():
        raise ValueError("evaluation rows contain missing cells; impute first")
    # walk every tree at once; a row that reached its leaf stays there
    nodes = model.nodes
    node = np.repeat(np.arange(model.node_tree.max() + 1)[:, None], len(x), axis=1)
    col = np.arange(len(x))
    while (nodes.feature[node] >= 0).any():
        node = _step(x, col, nodes.feature, nodes.threshold, nodes.left, node)
    # a sum along the slow axis adds the trees one by one, in tree order (no pairwise sum)
    return nodes.value[node].sum(axis=0) / len(node)


def majority_baseline(labels) -> dict:
    """Constant-prediction baseline: modal label (tie -> 0) and its accuracy."""
    y = np.asarray(labels)
    if y.size == 0:
        raise ValueError("labels must be non-empty")
    ones = int((y == 1).sum())
    zeros = int(y.size - ones)
    predicted = 1 if ones > zeros else 0
    accuracy = max(zeros, ones) / y.size
    return {"predicted_class": predicted, "accuracy": accuracy}
