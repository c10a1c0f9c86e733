import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra.numpy import arrays

from leakaudit import forest
from leakaudit.evaluation import auroc
from leakaudit.forest import (ForestConfig, majority_baseline, predict_proba,
                              train_forest)
from leakaudit.tabular import BINARY, NUMERIC

from conftest import make_dataset
from forest_reference import reference_scores


def _forest(**kw):
    return ForestConfig(**{"n_trees": 20, "seed": 0, **kw})


@pytest.mark.parametrize("value", [0, -1])
@pytest.mark.parametrize("field", ["n_trees", "min_leaf", "max_depth", "mtry"])
def test_config_rejects_settings_below_one(field, value):
    with pytest.raises(ValueError, match=f"^{field} must be at least 1"):
        ForestConfig(**{field: value})


def test_perfectly_separable_in_sample():
    y = np.array([0, 0, 0, 0, 1, 1, 1, 1])
    ds = make_dataset(y.astype(float), y)
    model = train_forest(ds, range(8), _forest())
    scores = predict_proba(model, ds, range(8))
    assert auroc(scores, y) == 1.0


def test_same_seed_same_predictions():
    rng = np.random.default_rng(2)
    ds = make_dataset(rng.standard_normal((30, 4)), rng.integers(0, 2, 30))
    m1 = train_forest(ds, range(30), _forest(seed=5))
    m2 = train_forest(ds, range(30), _forest(seed=5))
    probe = make_dataset(rng.standard_normal((10, 4)), np.zeros(10, dtype=int))
    np.testing.assert_array_equal(predict_proba(m1, probe, range(10)),
                                  predict_proba(m2, probe, range(10)))


@pytest.mark.parametrize("seed", [-1, 2**70], ids=["negative", "above-2**64"])
def test_any_int_seed_trains_the_same_model_twice(seed):
    # a seed reaches numpy only through derive_seed, which hashes its decimal form
    rng = np.random.default_rng(4)
    ds = make_dataset(rng.standard_normal((30, 4)), rng.integers(0, 2, 30))
    first, second = (train_forest(ds, range(30), _forest(seed=seed)) for _ in range(2))
    for a, b in zip([*first.nodes, first.node_tree], [*second.nodes, second.node_tree],
                    strict=True):
        np.testing.assert_array_equal(a, b)


def test_different_seed_changes_forest():
    rng = np.random.default_rng(3)
    ds = make_dataset(rng.standard_normal((40, 3)), rng.integers(0, 2, 40))
    m1 = train_forest(ds, range(40), _forest(seed=1))
    m2 = train_forest(ds, range(40), _forest(seed=2))
    probe = make_dataset(rng.standard_normal((20, 3)), np.zeros(20, dtype=int))
    assert not np.array_equal(predict_proba(m1, probe, range(20)),
                              predict_proba(m2, probe, range(20)))


def test_single_class_predicts_constant():
    ds = make_dataset(np.linspace(0, 1, 6), np.ones(6, dtype=int))
    model = train_forest(ds, range(6), _forest())
    scores = predict_proba(model, ds, range(6))
    np.testing.assert_array_equal(scores, np.ones(6))
    zeros = make_dataset(np.linspace(0, 1, 6), np.zeros(6, dtype=int))
    model0 = train_forest(zeros, range(6), _forest())
    np.testing.assert_array_equal(predict_proba(model0, zeros, range(6)), np.zeros(6))


def test_no_feature_gives_each_tree_one_leaf():
    ds = make_dataset(np.zeros((4, 0)), [0, 1, 1, 1])
    model = train_forest(ds, range(4), _forest(bootstrap=False))
    assert all(len(tree.feature) == 1 for tree in model.trees)
    np.testing.assert_array_equal(predict_proba(model, ds, range(4)), np.full(4, 0.75))


def test_stump_routes_to_pure_leaf():
    ds = make_dataset([0.0, 1.0], [0, 1])
    model = train_forest(ds, [0, 1], ForestConfig(n_trees=1, max_depth=1,
                                                  bootstrap=False, seed=0))
    scores = predict_proba(model, ds, [0, 1])
    assert scores[0] == 0.0 and scores[1] == 1.0


def test_scores_in_unit_interval():
    rng = np.random.default_rng(9)
    ds = make_dataset(rng.standard_normal((50, 5)), rng.integers(0, 2, 50))
    model = train_forest(ds, range(50), _forest())
    probe = make_dataset(rng.standard_normal((30, 5)) * 10, np.zeros(30, dtype=int))
    scores = predict_proba(model, probe, range(30))
    assert ((scores >= 0) & (scores <= 1)).all()


def test_prediction_is_stateless_under_permutation():
    rng = np.random.default_rng(12)
    ds = make_dataset(rng.standard_normal((25, 2)), rng.integers(0, 2, 25))
    model = train_forest(ds, range(25), _forest())
    rows = np.arange(25)
    perm = rng.permutation(25)
    base = predict_proba(model, ds, rows)
    np.testing.assert_array_equal(predict_proba(model, ds, perm), base[perm])


def test_monotone_transform_keeps_scores():
    # seed-identical draws + order-statistic splits => identical routing of
    # the training rows under any increasing transform; off-sample points
    # are preserved too when the transform maps midpoints to midpoints
    rng = np.random.default_rng(15)
    x = rng.standard_normal((40, 1))
    y = rng.integers(0, 2, 40)
    # no bootstrap: every scored row is a training value at every node,
    # so nonlinear increasing transforms cannot move it across a midpoint
    cfg = _forest(seed=31, bootstrap=False)
    ds = make_dataset(x, y)
    base = predict_proba(train_forest(ds, range(40), cfg), ds, range(40))
    for transform in (np.exp, lambda v: v ** 3, lambda v: 10 * v + 4):
        t_ds = make_dataset(transform(x), y)
        scores = predict_proba(train_forest(t_ds, range(40), cfg), t_ds, range(40))
        np.testing.assert_allclose(scores, base, atol=1e-12)

    # affine maps preserve midpoints exactly, so bootstrap + off-sample
    # evaluation points are covered too
    cfg_bs = _forest(seed=31)
    eval_x = rng.standard_normal((15, 1))
    base_eval = predict_proba(train_forest(ds, range(40), cfg_bs),
                              make_dataset(eval_x, np.zeros(15, dtype=int)), range(15))
    affine = lambda v: 10 * v + 4
    scores = predict_proba(train_forest(make_dataset(affine(x), y), range(40), cfg_bs),
                           make_dataset(affine(eval_x), np.zeros(15, dtype=int)), range(15))
    np.testing.assert_allclose(scores, base_eval, atol=1e-12)


def test_missing_cells_rejected():
    ds = make_dataset([[np.nan], [1.0]], [0, 1])
    with pytest.raises(ValueError, match="missing"):
        train_forest(ds, [0, 1], _forest())
    clean = make_dataset([[0.0], [1.0]], [0, 1])
    model = train_forest(clean, [0, 1], _forest())
    with pytest.raises(ValueError, match="missing"):
        predict_proba(model, ds, [0, 1])


def test_schema_mismatch_rejected():
    a = make_dataset([[0.0], [1.0]], [0, 1])
    b = make_dataset([[0.0, 1.0], [1.0, 0.0]], [0, 1])
    model = train_forest(a, [0, 1], _forest())
    with pytest.raises(ValueError, match="schema"):
        predict_proba(model, b, [0, 1])


def test_predict_on_no_rows_returns_an_empty_float_array():
    ds = make_dataset([[0.0], [1.0]], [0, 1])
    scores = predict_proba(train_forest(ds, [0, 1], _forest()), ds, [])
    assert scores.shape == (0,) and scores.dtype == np.float64


def test_a_leaf_is_its_own_left_child_with_an_infinite_threshold():
    # tied rows with mixed labels leave nodes that may split but have no valid split
    rng = np.random.default_rng(5)
    ds = make_dataset(rng.integers(0, 3, (60, 2)).astype(float), rng.integers(0, 2, 60))
    nodes = train_forest(ds, range(60), _forest(mtry=2, min_leaf=2)).nodes
    index, leaf = np.arange(len(nodes.feature)), nodes.feature < 0
    np.testing.assert_array_equal(nodes.left[leaf], index[leaf])
    assert np.isposinf(nodes.threshold[leaf]).all()
    assert np.isfinite(nodes.threshold[~leaf]).all() and (nodes.left[~leaf] > index[~leaf]).all()


def test_min_leaf_limits_growth():
    y = np.array([0, 1] * 10)
    ds = make_dataset(np.arange(20.0), y)
    model = train_forest(ds, range(20), ForestConfig(n_trees=1, min_leaf=10,
                                                     bootstrap=False, seed=0))
    tree = model.trees[0]
    # one split at most: both children must hold >= 10 rows
    assert (tree.feature >= 0).sum() <= 1


# --- the batched grower against the per-node reference -------------------

def _scores(x, y, x_eval, cfg, kinds=None):
    model = train_forest(make_dataset(x, y, kinds), range(len(y)), cfg)
    return predict_proba(model, make_dataset(x_eval, np.zeros(len(x_eval), dtype=int), kinds),
                         range(len(x_eval)))


@st.composite
def tie_heavy(draw):
    """Values on a 0.1 grid, so many rows tie; both labels may be absent."""
    n = draw(st.integers(1, 40))
    p = draw(st.integers(1, 4))
    x = draw(arrays(np.float64, (n, p), elements=st.integers(-8, 8).map(lambda v: v / 10)))
    y = draw(arrays(np.int64, n, elements=st.integers(0, 1)))
    return x, y


@settings(max_examples=150, deadline=None)
@given(tie_heavy(), st.sampled_from([1, 2, 3, None]), st.integers(1, 3), st.booleans(),
       st.integers(1, 12), st.integers(0, 2**32))
def test_matches_the_reference_grower_exactly_at_full_mtry(data, max_depth, min_leaf,
                                                           bootstrap, n_trees, seed):
    # mtry = p draws no candidates, so the split kernel alone decides every tree;
    # probes between grid values also pin the thresholds
    x, y = data
    cfg = ForestConfig(n_trees=n_trees, max_depth=max_depth, min_leaf=min_leaf,
                       mtry=x.shape[1], bootstrap=bootstrap, seed=seed)
    x_eval = np.vstack([x, x + 0.05, x - 0.05])
    np.testing.assert_array_equal(_scores(x, y, x_eval, cfg), reference_scores(x, y, x_eval, cfg))


@st.composite
def binary_beside_numeric(draw):
    """0/1 columns declared binary beside tie-heavy numeric ones, in a drawn order."""
    n = draw(st.integers(1, 40))
    kinds = draw(st.lists(st.sampled_from([BINARY, NUMERIC]), min_size=1, max_size=4))
    cells = {BINARY: st.integers(0, 1).map(float),
             NUMERIC: st.integers(-8, 8).map(lambda v: v / 10)}
    x = np.column_stack([draw(arrays(np.float64, n, elements=cells[k])) for k in kinds])
    y = draw(arrays(np.int64, n, elements=st.integers(0, 1)))
    return x, y, kinds


@settings(max_examples=150, deadline=None)
@given(binary_beside_numeric(), st.sampled_from([1, 2, None]), st.integers(1, 3),
       st.booleans(), st.integers(1, 12), st.integers(0, 2**32))
def test_binary_columns_ranked_as_their_cells_match_the_reference(data, max_depth, min_leaf,
                                                                  bootstrap, n_trees, seed):
    # a binary column skips np.unique: its 0/1 cells are its ranks.  Probes move
    # only numeric cells, since a binary column holds 0 and 1 alone
    x, y, kinds = data
    cfg = ForestConfig(n_trees=n_trees, max_depth=max_depth, min_leaf=min_leaf,
                       mtry=x.shape[1], bootstrap=bootstrap, seed=seed)
    step = 0.05 * (np.array(kinds) == NUMERIC)
    x_eval = np.vstack([x, x + step, x - step])
    np.testing.assert_array_equal(_scores(x, y, x_eval, cfg, kinds),
                                  reference_scores(x, y, x_eval, cfg))


def test_passes_on_both_sides_of_the_radix_bound_match_the_reference(monkeypatch):
    # deep levels put many nodes in one pass, so some passes' keys pass 2**16
    # and are sorted as int64; the shallow ones are radix-sorted as uint16
    sorts = []  # (bound, largest key) of each sort
    argsort = forest._argsort

    def spy(keys, bound, kind=None):
        sorts.append((bound, keys.max(initial=0)))
        return argsort(keys, bound, kind)

    monkeypatch.setattr(forest, "_argsort", spy)
    rng = np.random.default_rng(21)
    x = np.round(rng.standard_normal((300, 3)), 2)
    y = rng.integers(0, 2, 300)
    cfg = ForestConfig(n_trees=20, mtry=3, seed=4)
    np.testing.assert_array_equal(_scores(x, y, x, cfg), reference_scores(x, y, x, cfg))
    assert any(bound <= forest._RADIX_BOUND for bound, _ in sorts)
    assert any(top >= forest._RADIX_BOUND for _, top in sorts)


@pytest.mark.parametrize("budget, n_trees, bootstrap", [
    (16, 1, False),  # the root's 120 pairs exceed a pass: it gets one alone
    (7, 12, True),  # three instances a pass: many tiny nodes, cut at node borders
], ids=["node-larger-than-a-pass", "tiny-nodes-across-passes"])
def test_small_passes_match_the_reference(monkeypatch, budget, n_trees, bootstrap):
    monkeypatch.setattr(forest, "_PAIRS_PER_PASS", budget)
    rng = np.random.default_rng(21)
    p = 3 if n_trees == 1 else 2
    x = np.round(rng.standard_normal((40, p)), 1)
    y = rng.integers(0, 2, 40)
    cfg = ForestConfig(n_trees=n_trees, mtry=p, bootstrap=bootstrap, seed=4)
    np.testing.assert_array_equal(_scores(x, y, x, cfg), reference_scores(x, y, x, cfg))


# --- growth order cannot change a tree -------------------------------------

def test_first_trees_do_not_depend_on_how_many_grow():
    rng = np.random.default_rng(6)
    ds = make_dataset(rng.standard_normal((50, 9)), rng.integers(0, 2, 50))
    ten = train_forest(ds, range(50), _forest(n_trees=10, seed=8))
    three = train_forest(ds, range(50), _forest(n_trees=3, seed=8))
    for big, small in zip(ten.trees[:3], three.trees, strict=True):
        for a, b in zip(big, small, strict=True):
            np.testing.assert_array_equal(a, b)


def test_pass_size_does_not_change_the_model(monkeypatch):
    rng = np.random.default_rng(7)
    ds = make_dataset(rng.standard_normal((60, 9)), rng.integers(0, 2, 60))
    cfg = _forest(seed=3)
    default = train_forest(ds, range(60), cfg)
    monkeypatch.setattr(forest, "_PAIRS_PER_PASS", 5)
    small = train_forest(ds, range(60), cfg)
    for a, b in zip([*default.nodes, default.node_tree], [*small.nodes, small.node_tree],
                    strict=True):
        np.testing.assert_array_equal(a, b)


def test_radix_sort_does_not_change_the_model(monkeypatch):
    rng = np.random.default_rng(7)
    x = np.column_stack([rng.standard_normal((60, 5)), rng.integers(0, 2, (60, 4))])
    ds = make_dataset(x, rng.integers(0, 2, 60), [NUMERIC] * 5 + [BINARY] * 4)
    cfg = _forest(seed=3)
    default = train_forest(ds, range(60), cfg)
    monkeypatch.setattr(forest, "_RADIX_BOUND", 0)  # every pass sorts as int64
    wide = train_forest(ds, range(60), cfg)
    for a, b in zip([*default.nodes, default.node_tree], [*wide.nodes, wide.node_tree],
                    strict=True):
        np.testing.assert_array_equal(a, b)


# --- majority baseline --------------------------------------------------

def test_majority_104_15():
    labels = np.array([0] * 104 + [1] * 15)
    out = majority_baseline(labels)
    assert out["predicted_class"] == 0
    assert out["accuracy"] == pytest.approx(104 / 119, abs=1e-15)


def test_majority_balanced_tie():
    out = majority_baseline([0, 1, 0, 1])
    assert out["predicted_class"] == 0
    assert out["accuracy"] == 0.5


def test_majority_all_ones():
    out = majority_baseline([1, 1, 1])
    assert out["predicted_class"] == 1
    assert out["accuracy"] == 1.0


def test_majority_empty_rejected():
    with pytest.raises(ValueError):
        majority_baseline([])
