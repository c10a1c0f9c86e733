import numpy as np
import pytest

from leakaudit.synth import SynthConfig, generate_cohort
from leakaudit.tabular import BINARY, NUMERIC


def test_table_shape_counts():
    ds = generate_cohort(SynthConfig(n_total=112, n_minority=10, seed=3))
    assert ds.n_rows == 112
    assert ds.class_counts() == {0: 102, 1: 10}
    assert (ds.parents == -1).all()


def test_class_counts_exact_across_configs():
    for seed in range(5):
        cfg = SynthConfig(n_total=53, n_minority=7, seed=seed)
        assert generate_cohort(cfg).class_counts()[1] == 7


def test_identical_seed_identical_dataset():
    cfg = SynthConfig(n_total=40, n_minority=5, seed=99)
    a, b = generate_cohort(cfg), generate_cohort(cfg)
    np.testing.assert_array_equal(np.isnan(a.x), np.isnan(b.x))
    np.testing.assert_array_equal(a.x[~np.isnan(a.x)], b.x[~np.isnan(b.x)])
    np.testing.assert_array_equal(a.y, b.y)


def test_different_seed_differs():
    a = generate_cohort(SynthConfig(n_total=40, n_minority=5, seed=1))
    b = generate_cohort(SynthConfig(n_total=40, n_minority=5, seed=2))
    assert not np.array_equal(a.y, b.y) or not np.array_equal(
        np.nan_to_num(a.x), np.nan_to_num(b.x))


def test_binary_columns_are_binary():
    ds = generate_cohort(SynthConfig(n_total=60, n_minority=9, seed=5, missing_rate=0.3))
    for j, col in enumerate(ds.columns):
        v = ds.x[:, j]
        if col.kind == BINARY:
            assert not np.isnan(v).any()  # missingness hits numeric cells only
            assert np.isin(v, (0.0, 1.0)).all()
        else:
            assert col.kind == NUMERIC


def test_missing_rate_zero_means_no_missing():
    ds = generate_cohort(SynthConfig(n_total=50, n_minority=6, missing_rate=0.0, seed=2))
    assert not np.isnan(ds.x).any()


def test_missing_fraction_near_rate():
    # MCAR on numeric cells; observed fraction within 3 standard errors
    rate = 0.2
    cfg = SynthConfig(n_total=400, n_minority=40, n_numeric_features=10,
                      n_binary_features=0, n_informative=2, missing_rate=rate, seed=8)
    ds = generate_cohort(cfg)
    cells = ds.x.size
    observed = np.isnan(ds.x).mean()
    se = np.sqrt(rate * (1 - rate) / cells)
    assert abs(observed - rate) < 3 * se


def test_signal_separates_class_means():
    cfg = SynthConfig(n_total=600, n_minority=300, signal_strength=2.0,
                      n_numeric_features=4, n_binary_features=0, n_informative=2,
                      missing_rate=0.0, seed=13)
    ds = generate_cohort(cfg)
    pos, neg = ds.x[ds.y == 1], ds.x[ds.y == 0]
    assert pos[:, 0].mean() - neg[:, 0].mean() > 1.5   # informative
    assert abs(pos[:, 3].mean() - neg[:, 3].mean()) < 0.5  # noise


def test_informative_slots_past_the_numeric_columns_shift_binary_columns():
    # 4 informative slots, 2 numeric columns: bin_00 and bin_01 are informative
    cfg = SynthConfig(n_total=2000, n_minority=1000, n_binary_features=3,
                      n_numeric_features=2, n_informative=4, signal_strength=3.0,
                      missing_rate=0.0, seed=4)
    ds = generate_cohort(cfg)
    pos, neg = ds.x[ds.y == 1], ds.x[ds.y == 0]
    np.testing.assert_allclose(pos[:, :2].mean(axis=0), 0.9, atol=0.05)  # min(0.9, 0.3 + 0.6)
    np.testing.assert_allclose(neg[:, :3].mean(axis=0), 0.3, atol=0.05)
    assert abs(pos[:, 2].mean() - 0.3) < 0.05  # bin_02 is noise


@pytest.mark.parametrize("bad", [
    dict(n_total=10, n_minority=10),
    dict(n_total=10, n_minority=0),
    dict(n_total=10, n_minority=3, n_binary_features=1, n_numeric_features=1, n_informative=3),
    dict(n_total=10, n_minority=3, missing_rate=1.0),
    dict(n_total=10, n_minority=3, signal_strength=-0.1),
    dict(n_total=10, n_minority=3, signal_strength=float("nan")),
    dict(n_total=10, n_minority=3, signal_strength=float("inf")),
    dict(n_total=10, n_minority=3, n_binary_features=-1),
    dict(n_total=10, n_minority=3, n_numeric_features=-1),
    dict(n_total=10, n_minority=3, n_informative=-1),
])
def test_invalid_configs_rejected(bad):
    with pytest.raises(ValueError):
        SynthConfig(**bad)
