"""Reference forest: the per-node, tree-by-tree grower the batched one replaced.

Each tree grows depth-first, one node at a time, from its bootstrap sample:
row t of the one (n_trees, n) draw that ``train_forest`` makes from
``default_rng(derive_seed(seed, "bootstrap"))``.  At ``mtry == p`` no
candidate is drawn, so ``tests/test_forest.py`` requires ``train_forest`` plus
``predict_proba`` to return the same bits as ``reference_scores``.  Keep the
grower unchanged; only the line that draws ``sample`` follows the forest's
bootstrap draw.
"""

from __future__ import annotations

import numpy as np

from leakaudit.forest import ForestConfig
from leakaudit.seeding import derive_seed


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


def _grow_tree(x, y, cfg: ForestConfig, mtry: int, rng):
    """One tree as (feature, threshold, left, right, value) arrays; feature < 0 is a leaf."""
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
    return (np.array(feature), np.array(threshold), np.array(left), np.array(right),
            np.array(value))


def _tree_scores(tree, x: np.ndarray) -> np.ndarray:
    feature, threshold, left, right, value = tree
    node = np.zeros(len(x), dtype=np.int32)
    arange = np.arange(len(x))
    while True:
        feat = feature[node]
        at_leaf = feat < 0
        if at_leaf.all():
            return value[node]
        go_left = x[arange, np.maximum(feat, 0)] <= threshold[node]
        nxt = np.where(go_left, left[node], right[node])
        node = np.where(at_leaf, node, nxt)


def reference_scores(x_train, y_train, x_eval, cfg: ForestConfig) -> np.ndarray:
    """Mean positive fraction over ``cfg.n_trees`` trees, summed in tree order."""
    y = np.asarray(y_train, dtype=np.float64)
    p = x_train.shape[1]
    mtry = min(cfg.mtry if cfg.mtry is not None else max(1, int(np.sqrt(p))), p)
    scores = np.zeros(len(x_eval))
    for t in range(cfg.n_trees):
        rng = np.random.default_rng(derive_seed(cfg.seed, "tree", t))
        if cfg.bootstrap:
            sample = np.random.default_rng(derive_seed(cfg.seed, "bootstrap")).integers(
                0, len(y), size=(cfg.n_trees, len(y)))[t]
            tree = _grow_tree(x_train[sample], y[sample], cfg, mtry, rng)
        else:
            tree = _grow_tree(x_train, y, cfg, mtry, rng)
        scores += _tree_scores(tree, x_eval)
    return scores / cfg.n_trees
