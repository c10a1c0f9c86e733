import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra.numpy import arrays

from leakaudit import resampling
from leakaudit.resampling import AdasynConfig, adasyn, allocate_counts
from leakaudit.synth import SynthConfig, generate_cohort
from leakaudit.tabular import BINARY, Column, Dataset, NUMERIC, apply_imputer, fit_imputer

from adasyn_reference import reference_adasyn
from conftest import make_dataset, random_imbalanced


# --- allocate_counts ---------------------------------------------------

def test_allocate_tie_goes_to_lower_index():
    np.testing.assert_array_equal(allocate_counts([0.5, 0.5], 3), [2, 1])


def test_allocate_all_weight_on_first():
    np.testing.assert_array_equal(allocate_counts([1.0, 0.0], 5), [5, 0])


def test_allocate_total_zero():
    np.testing.assert_array_equal(allocate_counts([0.3, 0.7], 0), [0, 0])


def test_allocate_unnormalized_rejected():
    with pytest.raises(ValueError, match="sum to 1"):
        allocate_counts([0.5, 0.6], 3)


@pytest.mark.parametrize("weights, match", [
    ([np.nan, 1.0], "weights must be finite"),
    ([np.inf, 0.0], "weights must be finite"),
    ([-0.5, 1.5], "weights must be non-negative"),
], ids=["nan", "inf", "negative"])
def test_allocate_rejects_non_finite_and_negative_weights(weights, match):
    with pytest.raises(ValueError, match=match):
        allocate_counts(weights, 3)


@given(st.lists(st.floats(min_value=0.01, max_value=10.0), min_size=1, max_size=12),
       st.integers(min_value=0, max_value=200))
def test_allocate_sums_to_total_and_respects_floor(raw, total):
    w = np.array(raw) / np.sum(raw)
    counts = allocate_counts(w, total)
    assert counts.sum() == total
    assert (counts >= np.floor(w * total)).all()
    assert (counts <= np.floor(w * total) + 1).all()


# --- adasyn ------------------------------------------------------------

def _cfg(**kw):
    return AdasynConfig(**{"k_neighbors": 3, "seed": 0, **kw})


def test_balanced_input_returned_exactly():
    balanced = make_dataset(np.arange(8.0).reshape(4, 2), [0, 1, 0, 1])
    # G = 0 at beta=0 on a subset: one minority row, K above the row count, a synthetic row
    subset = Dataset(columns=(Column("a", NUMERIC), Column("b", NUMERIC)),
                     x=np.arange(12.0).reshape(6, 2), y=[0, 1, 0, 0, 1, 0],
                     parents=[[-1, -1]] * 5 + [[0, 2]])
    for ds, rows, cfg in ((balanced, [0, 1, 2, 3], _cfg()),
                          (subset, [5, 1, 2], _cfg(beta=0.0, k_neighbors=10))):
        out = adasyn(ds, rows, cfg)
        for got, source in ((out.x, ds.x), (out.y, ds.y), (out.parents, ds.parents)):
            np.testing.assert_array_equal(got, source[rows])
            assert not np.shares_memory(got, source)


def test_table_counts_104_15():
    rng = np.random.default_rng(7)
    x = rng.standard_normal((119, 3))
    y = np.array([1] * 15 + [0] * 104)
    ds = make_dataset(x, y)
    out = adasyn(ds, range(119), AdasynConfig(k_neighbors=5, beta=1.0, seed=1))
    assert out.n_rows == 208
    assert out.class_counts() == {0: 104, 1: 104}
    assert (out.parents[:119] == -1).all()
    assert out.synthetic[119:].all()


def test_two_point_minority_hand_fixture():
    # minority (0,0) and (10,10); majority (0,1), (1,0), (0,2); K=3
    x = np.array([[0.0, 0.0], [10.0, 10.0], [0.0, 1.0], [1.0, 0.0], [0.0, 2.0]])
    y = np.array([1, 1, 0, 0, 0])
    ds = make_dataset(x, y)
    out = adasyn(ds, range(5), _cfg(seed=42))
    assert out.n_rows == 6  # G = 3 - 2 = 1
    np.testing.assert_array_equal(out.x[:5], x)
    s = out.x[5]
    assert out.y[5] == 1 and out.synthetic[5]
    # the only minority pair is (0,0)-(10,10): the sample sits on that segment
    assert s[0] == pytest.approx(s[1], abs=1e-12)
    assert 0.0 <= s[0] <= 10.0


def test_majority_rows_passed_through_identically():
    rng = np.random.default_rng(3)
    ds = random_imbalanced(rng)
    rows = np.arange(ds.n_rows)
    out = adasyn(ds, rows, _cfg(seed=5))
    np.testing.assert_array_equal(out.x[: ds.n_rows], ds.x)
    np.testing.assert_array_equal(out.y[: ds.n_rows], ds.y)


def test_row_subset_is_respected():
    x = np.vstack([np.zeros((4, 2)), np.ones((4, 2)) * 50])
    y = np.array([0, 0, 0, 1, 0, 0, 1, 1])
    ds = make_dataset(x, y)
    rows = [0, 1, 2, 3]  # 3 majority + 1 minority among the selected rows
    out = adasyn(ds, rows, _cfg(k_neighbors=2, seed=9))
    assert out.n_rows == 6  # 4 selected + G=2
    assert (out.x[4:] < 10).all()  # synthetics built only from selected rows


def test_deterministic_given_config():
    rng = np.random.default_rng(21)
    ds = random_imbalanced(rng)
    rows = np.arange(ds.n_rows)
    a = adasyn(ds, rows, _cfg(seed=77))
    b = adasyn(ds, rows, _cfg(seed=77))
    np.testing.assert_array_equal(a.x, b.x)
    np.testing.assert_array_equal(a.y, b.y)
    np.testing.assert_array_equal(a.parents, b.parents)


def test_beta_scales_generated_count():
    rng = np.random.default_rng(5)
    x = rng.standard_normal((30, 2))
    y = np.array([1] * 10 + [0] * 20)
    ds = make_dataset(x, y)
    out = adasyn(ds, range(30), _cfg(beta=0.5, seed=2))
    assert out.n_rows == 35  # G = round(0.5 * 10) = 5


def test_single_class_rejected():
    ds = make_dataset(np.zeros((3, 1)), [1, 1, 1])
    with pytest.raises(ValueError, match="both classes"):
        adasyn(ds, range(3), _cfg())


def test_missing_cells_rejected():
    ds = make_dataset([[np.nan], [1.0], [2.0]], [1, 0, 0])
    with pytest.raises(ValueError, match="missing"):
        adasyn(ds, range(3), _cfg())


def test_uniform_fallback_when_no_majority_neighbors():
    # minority cluster far from majority: every seed's K neighbors are minority
    x = np.vstack([np.zeros((4, 2)) + [[0], [1], [2], [3]],
                   np.full((6, 2), 1000.0) + [[0], [1], [2], [3], [4], [5]]])
    y = np.array([1, 1, 1, 1, 0, 0, 0, 0, 0, 0])
    ds = make_dataset(x, y)
    out = adasyn(ds, range(10), _cfg(k_neighbors=2, seed=11))
    assert out.n_rows == 12  # G=2 still generated via uniform weights
    assert (out.x[10:, 0] < 10).all()  # interpolated inside the minority cluster


def test_lone_minority_point_duplicates_itself():
    x = np.array([[5.0, 5.0], [0.0, 0.0], [1.0, 1.0], [2.0, 2.0]])
    y = np.array([1, 0, 0, 0])
    ds = make_dataset(x, y)
    out = adasyn(ds, range(4), _cfg(k_neighbors=2, seed=0))
    assert out.n_rows == 6
    np.testing.assert_array_equal(out.x[4:], np.array([[5.0, 5.0], [5.0, 5.0]]))


def test_k_reduced_when_minority_small():
    # m_s = 2 with K=5: the neighbor draw must clamp to m_s - 1 = 1
    x = np.vstack([[[0.0]], [[1.0]], np.linspace(10, 20, 8)[:, None]])
    y = np.array([1, 1] + [0] * 8)
    ds = make_dataset(x, y)
    out = adasyn(ds, range(10), AdasynConfig(k_neighbors=5, beta=1.0, seed=3))
    assert out.n_rows == 16
    assert ((out.x[10:, 0] >= 0.0) & (out.x[10:, 0] <= 1.0)).all()


def test_synthetics_between_their_parents_pre_threshold():
    rng = np.random.default_rng(17)
    for _ in range(20):
        ds = random_imbalanced(rng)
        y = ds.y
        minority = 1 if (y == 1).sum() <= (y == 0).sum() else 0
        out = adasyn(ds, range(ds.n_rows), _cfg(seed=1))
        samples, parents = out.x[ds.n_rows:], out.parents[ds.n_rows:]
        for s, (a, b) in zip(samples, parents):
            lo = np.minimum(ds.x[a], ds.x[b])
            hi = np.maximum(ds.x[a], ds.x[b])
            assert ((s >= lo - 1e-12) & (s <= hi + 1e-12)).all()
            assert y[a] == minority and y[b] == minority


@st.composite
def dataset_and_rows(draw):
    """A small dataset, some of whose rows already have parents, and a row
    subset holding both classes."""
    n = draw(st.integers(2, 40))
    p = draw(st.integers(1, 3))
    kinds = draw(st.lists(st.sampled_from([NUMERIC, BINARY]), min_size=p, max_size=p))
    x = draw(arrays(np.float64, (n, p), elements=st.floats(-100, 100)))
    binary = np.array([k == BINARY for k in kinds])
    x[:, binary] = x[:, binary] > 0
    y = np.array(draw(st.lists(st.integers(0, 1), min_size=n, max_size=n)))
    y[:2] = (0, 1)
    parents = draw(arrays(np.int64, (n, 2), elements=st.integers(0, n - 1)))
    parents[~draw(arrays(bool, n))] = -1
    ds = Dataset(columns=tuple(Column(f"f{j}", k) for j, k in enumerate(kinds)),
                 x=x, y=y, parents=parents)
    # a draw per row keeps subsets often above 17 rows, where numpy's default
    # sort stops being stable (st.sets keeps them to a few rows)
    keep = np.array(draw(st.lists(st.booleans(), min_size=n, max_size=n)))
    keep[[draw(st.sampled_from(np.flatnonzero(y == c).tolist())) for c in (0, 1)]] = True
    return ds, np.flatnonzero(keep)


@settings(max_examples=200, deadline=None)
@given(dataset_and_rows(), st.integers(1, 6), st.sampled_from([0.0, 0.5, 1.0]),
       st.integers(0, 2**32 - 1))
def test_lineage_stays_within_the_oversampled_rows(data, k, beta, seed):
    ds, rows = data
    out = adasyn(ds, rows, AdasynConfig(k_neighbors=k, beta=beta, seed=seed))
    sub = ds.y[rows]
    minority = 1 if (sub == 1).sum() <= (sub == 0).sum() else 0
    g = int(np.floor(beta * abs(int((sub == 1).sum()) - int((sub == 0).sum())) + 0.5))
    assert out.n_rows == len(rows) + g
    # carried-over rows keep their lineage; only the G new rows are added
    np.testing.assert_array_equal(out.parents[:len(rows)], ds.parents[rows])
    assert out.fingerprint()["synthetic_rows"] == g + int(ds.synthetic[rows].sum())
    # setup (i)'s rule: synthetic rows are interpolated from the given rows only
    new = out.parents[len(rows):]
    assert np.isin(new, rows).all()
    assert (ds.y[new] == minority).all()
    lo = np.minimum(ds.x[new[:, 0]], ds.x[new[:, 1]])
    hi = np.maximum(ds.x[new[:, 0]], ds.x[new[:, 1]])
    cells = out.x[len(rows):]
    assert ((cells >= lo - 1e-9) & (cells <= hi + 1e-9)).all()


@st.composite
def tie_heavy_case(draw):
    """A dataset full of tied distances (integer grids, duplicate rows), some
    binary columns, and a row subset holding both classes, sometimes with a
    lone minority row."""
    n = draw(st.integers(2, 60))
    # p >= 9 reaches numpy's 8-lane pairwise sum, and 20 is the benchmark's width
    p = draw(st.integers(1, 24))
    kinds = draw(st.lists(st.sampled_from([NUMERIC, BINARY]), min_size=p, max_size=p))
    cells = draw(st.sampled_from([st.integers(-2, 2).map(float), st.floats(-100, 100)]))
    pool = draw(arrays(np.float64, (draw(st.integers(1, n)), p), elements=cells))
    x = pool[draw(arrays(np.intp, n, elements=st.integers(0, len(pool) - 1)))]
    binary = np.array([k == BINARY for k in kinds])
    x[:, binary] = x[:, binary] > 0
    if draw(st.booleans()):
        y = np.zeros(n, dtype=int)
        y[draw(st.integers(0, n - 1))] = 1
    else:
        y = np.array(draw(st.lists(st.integers(0, 1), min_size=n, max_size=n)))
        y[:2] = (0, 1)
    ds = make_dataset(x, y, kinds)
    # numpy's default sort keeps ties in order on short inputs (insertion sort
    # below 17 items), so keep subsets large enough for an unstable sort to show
    keep = np.array(draw(st.lists(st.booleans(), min_size=n, max_size=n)))
    keep[[draw(st.sampled_from(np.flatnonzero(y == c).tolist())) for c in (0, 1)]] = True
    return ds, np.flatnonzero(keep)


@settings(max_examples=300, deadline=None)
@given(tie_heavy_case(), st.integers(1, 7), st.sampled_from([0.0, 0.5, 1.0]),
       st.integers(0, 2**32 - 1))
def test_adasyn_matches_the_two_pass_reference_bitwise(data, k, beta, seed):
    ds, rows = data
    cfg = AdasynConfig(k_neighbors=k, beta=beta, seed=seed)
    out, ref = adasyn(ds, rows, cfg), reference_adasyn(ds, rows, cfg)
    assert out.x.tobytes() == ref.x.tobytes()
    np.testing.assert_array_equal(out.y, ref.y)
    np.testing.assert_array_equal(out.parents, ref.parents)


# (scale, offset) of the numeric cells: squares that underflow, small
# differences on a large offset, and squares or sums that overflow to inf
SCALES = [(1e-160, 0.0), (1.0, 0.0), (1e-3, 1e6), (1e155, 0.0), (1e300, 0.0)]


@st.composite
def scaled_case(draw):
    """A ``tie_heavy_case`` with its numeric cells scaled and offset by one of SCALES."""
    ds, rows = draw(tie_heavy_case())
    scale, offset = draw(st.sampled_from(SCALES))
    numeric = np.array([c.kind == NUMERIC for c in ds.columns])
    x = ds.x.copy()
    x[:, numeric] = x[:, numeric] * scale + offset
    return Dataset(columns=ds.columns, x=x, y=ds.y), rows


@pytest.mark.parametrize("seeds_per_block", [1, 3])
@settings(max_examples=150, deadline=None)
@given(data=scaled_case(), k=st.integers(1, 7), seed=st.integers(0, 2**32 - 1))
def test_screened_search_matches_the_reference_at_every_scale(seeds_per_block, data, k, seed):
    ds, rows = data
    cfg = AdasynConfig(k_neighbors=k, seed=seed)
    with pytest.MonkeyPatch.context() as mp:
        # a few seeds per block: the search spans several blocks and ends with a partial one
        mp.setattr(resampling, "_SCREEN_CELLS", seeds_per_block * len(rows))
        out = adasyn(ds, rows, cfg)
    with np.errstate(over="ignore"):  # the reference's distances overflow to inf too
        ref = reference_adasyn(ds, rows, cfg)
    assert out.x.tobytes() == ref.x.tobytes()
    np.testing.assert_array_equal(out.parents, ref.parents)


@pytest.mark.parametrize("x", [
    # 1e-160 and 1.0001e-160 square to the same subnormal: rows 0 and 1 tie for
    # row 2's partner, though the screen sees row 1 nearer
    [1e-160 * (1 + 1e-4), 1e-160, 0.0] + [5e-160] * 6,
    # every distance from row 2 overflows to inf, so row 0, the lowest row, is
    # its partner, though the screen sees row 1 nearer (and row 0 is its own)
    [2e155, 1.5e154, 0.0] + [5e155] * 5,
], ids=["squares-underflow", "distances-overflow"])
def test_ties_the_screen_cannot_see_go_to_the_lower_row(x):
    ds = make_dataset(x, [1, 1, 1] + [0] * (len(x) - 3))
    cfg = AdasynConfig(k_neighbors=1, seed=0)
    out = adasyn(ds, range(len(x)), cfg)
    with np.errstate(over="ignore"):
        ref = reference_adasyn(ds, range(len(x)), cfg)
    np.testing.assert_array_equal(out.parents[len(x):], ref.parents[len(x):])
    assert out.x.tobytes() == ref.x.tobytes()


def test_one_adasyn_call_stays_within_its_memory_bound():
    ds = generate_cohort(SynthConfig(n_total=6000, n_minority=300))
    rows = np.arange(ds.n_rows)
    ds = apply_imputer(ds, fit_imputer(ds, rows))
    tracemalloc.start()
    try:
        adasyn(ds, rows, AdasynConfig())
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # synthesis peaks at about 5.3 MB and the search's blocks stay below it;
    # screening all 300 seeds at once would take 14.4 MB per screen matrix
    assert peak < 7e6


def _ties_case(extra_majority):
    """Seed A, the last row, sits at 0.  Rows 0-39 are all at distance 1
    from it: minority rows at -1 and majority rows at 1, two of each in turn
    (0 and 1 minority, 2 and 3 majority, ...).  Minority row 40 sits at -0.5,
    closer but later; the rows after it are majority.  With K = 3, A's K-th
    distance ties over 40 rows."""
    tied_minority = np.arange(40) % 4 < 2
    x = np.concatenate([np.where(tied_minority, -1.0, 1.0), [-0.5], extra_majority, [0.0]])
    y = np.zeros(len(x), dtype=int)
    y[:40], y[40], y[-1] = tied_minority, 1, 1
    out = adasyn(make_dataset(x, y), range(len(x)), AdasynConfig(k_neighbors=3, seed=4))
    return len(x) - 1, out.parents[len(x):].T


def test_ties_at_the_kth_distance_go_to_the_lowest_rows():
    # a smaller distance after the tied ones is what an unstable sort reorders
    a, (seeds, _) = _ties_case(np.full(30, 1000.0))
    # nearest: A's are rows 40, 0 and 1, all minority, as every other seed's
    # are, so no seed has a majority neighbour and the weights are uniform
    minority = np.r_[np.flatnonzero(np.arange(40) % 4 < 2), 40, a]
    counts = np.bincount(seeds, minlength=a + 1)[minority]
    np.testing.assert_array_equal(counts, [2] * 6 + [1] * 16)  # G = 50 - 22

    # majority rows at 0.1 give A, alone, majority neighbours: every sample is A's
    a, (seeds, partners) = _ties_case(np.r_[[0.1] * 3, [1000.0] * 40])
    assert (seeds == a).all() and len(seeds) == 41
    # partners: A's three nearest minority rows are 40, 0 and 1
    assert set(partners) == {0, 1, 40}


def test_infinite_cells_are_refused_before_adasyn():
    # inf - inf would give NaN distances and NaN synthetic cells; no dataset holds one
    x = np.array([[0.0, np.inf], [1.0, np.inf], [2.0, 0.0], [3.0, np.inf],
                  [4.0, 1.0], [5.0, 2.0], [6.0, np.inf], [7.0, 0.0]])
    for cells in (x, -x):
        with pytest.raises(ValueError, match="column 'f1' has an infinite cell"):
            make_dataset(cells, [1, 1, 0, 1, 0, 0, 0, 0])


# minority cells of opposite sign near the float limit: 1e308 - -1e308 overflows
OVERFLOWING = make_dataset([1e308, -1e308, 5e307, 0, 1, 2, 3, 4, 5, 6], [1] * 3 + [0] * 7)


def test_interpolation_overflow_is_refused_naming_the_column():
    with pytest.raises(ValueError, match="^column 'f0': ADASYN interpolation overflowed$"):
        adasyn(OVERFLOWING, range(10), _cfg(seed=0))


def test_a_zero_lambda_times_an_overflowed_difference_is_refused(monkeypatch):
    # 0 * inf is NaN, which would otherwise pass on as a missing cell
    rng = np.random.default_rng

    class ZeroLambda:
        def __init__(self, seed):
            self.integers = rng(seed).integers

        def random(self, size):
            return np.zeros(size)

    monkeypatch.setattr(np.random, "default_rng", ZeroLambda)
    with pytest.raises(ValueError, match="^column 'f0': ADASYN interpolation overflowed$"):
        adasyn(OVERFLOWING, range(10), _cfg(seed=0))


def test_binary_cells_thresholded_to_parent_value():
    rng = np.random.default_rng(23)
    ds = random_imbalanced(rng, binary=True)
    out = adasyn(ds, range(ds.n_rows), _cfg(seed=6))
    synth_rows = out.x[out.synthetic]
    assert np.isin(synth_rows, (0.0, 1.0)).all()


def test_minority_count_formula_over_random_datasets():
    rng = np.random.default_rng(31)
    for _ in range(30):
        ds = random_imbalanced(rng)
        beta = float(rng.choice([0.0, 0.25, 0.5, 1.0]))
        counts = ds.class_counts()
        m_s, m_l = min(counts.values()), max(counts.values())
        minority = 1 if counts[1] <= counts[0] else 0
        expected_g = int(np.floor(beta * (m_l - m_s) + 0.5))
        out = adasyn(ds, range(ds.n_rows), AdasynConfig(k_neighbors=3, beta=beta, seed=1))
        assert out.n_rows == ds.n_rows + expected_g
        assert out.class_counts()[minority] == m_s + expected_g
