"""Random forest probability classifier, plus the majority-class baseline.

Axis-aligned trees, greedy Gini splits over a per-node random feature
subset, bootstrap resampling per tree.  Scores are the mean over trees of
the positive-class fraction in the reached leaf.  Per-tree seeds are
derived from the forest seed by label, so training order or parallel
scheduling cannot change the model.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .seeding import derive_seed
from .tabular import Column, Dataset


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


@dataclass(frozen=True)
class _Tree:
    # feature < 0 marks a leaf; value is the leaf positive fraction
    feature: np.ndarray
    threshold: np.ndarray
    left: np.ndarray
    right: np.ndarray
    value: np.ndarray


@dataclass(frozen=True)
class ForestModel:
    trees: tuple[_Tree, ...]
    columns: tuple[Column, ...]


def _best_split(x, y, candidates, min_leaf):
    """Best (feature, threshold) among candidate features, or None.

    Thresholds are midpoints between consecutive sorted unique values.
    Cost is the size-weighted Gini impurity; the first candidate feature
    achieving the strictly lowest cost wins, and within a feature the
    lowest qualifying threshold wins, which keeps the search deterministic.
    """
    n = len(y)
    total_pos = y.sum()
    left_n = np.arange(1, n)
    right_n = n - left_n
    sizes_ok = (left_n >= min_leaf) & (right_n >= min_leaf)
    best_cost, best_feat, best_thr = np.inf, -1, 0.0
    for f in candidates:
        v = x[:, f]
        order = np.argsort(v, kind="stable")
        vs = v[order]
        boundaries = (vs[:-1] < vs[1:]) & sizes_ok
        if not boundaries.any():
            continue
        left_pos = np.cumsum(y[order])[:-1]
        right_pos = total_pos - left_pos
        # per-side pos*neg/size, proportional to the weighted Gini
        cost = (left_pos * (left_n - left_pos) / left_n
                + right_pos * (right_n - right_pos) / right_n)
        cost[~boundaries] = np.inf
        i = int(np.argmin(cost))
        if cost[i] < best_cost:
            thr = 0.5 * (vs[i] + vs[i + 1])
            if thr >= vs[i + 1]:  # midpoint rounded up to the right value
                thr = vs[i]
            best_cost, best_feat, best_thr = float(cost[i]), int(f), float(thr)
    if best_feat < 0:
        return None
    return best_feat, best_thr


def _grow_tree(x, y, cfg: ForestConfig, mtry: int, rng) -> _Tree:
    feature, threshold, left, right, value = [], [], [], [], []

    def new_node():
        feature.append(-1)
        threshold.append(0.0)
        left.append(-1)
        right.append(-1)
        value.append(0.0)
        return len(feature) - 1

    p = x.shape[1]
    stack = [(new_node(), np.arange(len(y)), 0)]
    while stack:
        node, idx, depth = stack.pop()
        ys = y[idx]
        pos = ys.sum()
        value[node] = pos / len(ys)
        pure = pos == 0 or pos == len(ys)
        at_depth = cfg.max_depth is not None and depth >= cfg.max_depth
        if pure or at_depth or len(ys) < 2 * cfg.min_leaf:
            continue
        candidates = rng.choice(p, size=mtry, replace=False) if mtry < p else np.arange(p)
        split = _best_split(x[idx], ys, candidates, cfg.min_leaf)
        if split is None:
            continue
        f, thr = split
        go_left = x[idx, f] <= thr
        feature[node], threshold[node] = f, thr
        left[node] = new_node()
        right[node] = new_node()
        stack.append((right[node], idx[~go_left], depth + 1))
        stack.append((left[node], idx[go_left], depth + 1))
    return _Tree(feature=np.array(feature, dtype=np.int32),
                 threshold=np.array(threshold, dtype=np.float64),
                 left=np.array(left, dtype=np.int32),
                 right=np.array(right, dtype=np.int32),
                 value=np.array(value, dtype=np.float64))


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
    mtry = min(mtry, p)
    trees = []
    for t in range(cfg.n_trees):
        rng = np.random.default_rng(derive_seed(cfg.seed, "tree", t))
        if cfg.bootstrap:
            sample = rng.integers(0, len(y), size=len(y))
            trees.append(_grow_tree(x[sample], y[sample], cfg, mtry, rng))
        else:
            trees.append(_grow_tree(x, y, cfg, mtry, rng))
    return ForestModel(trees=tuple(trees), columns=ds.columns)


def _tree_scores(tree: _Tree, x: np.ndarray) -> np.ndarray:
    node = np.zeros(len(x), dtype=np.int32)
    arange = np.arange(len(x))
    while True:
        feat = tree.feature[node]
        at_leaf = feat < 0
        if at_leaf.all():
            return tree.value[node]
        go_left = x[arange, np.maximum(feat, 0)] <= tree.threshold[node]
        nxt = np.where(go_left, tree.left[node], tree.right[node])
        node = np.where(at_leaf, node, nxt)


def predict_proba(model: ForestModel, ds: Dataset, rows) -> np.ndarray:
    """Positive-class score in [0, 1] for each requested row."""
    if tuple(model.columns) != tuple(ds.columns):
        raise ValueError("dataset columns do not match the model schema")
    rows = np.asarray(rows, dtype=np.intp)
    x = ds.x[rows]
    if np.isnan(x).any():
        raise ValueError("evaluation rows contain missing cells; impute first")
    if rows.size == 0:
        return np.zeros(0)
    scores = np.zeros(len(x))
    for tree in model.trees:
        scores += _tree_scores(tree, x)
    return scores / len(model.trees)


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
