import numpy as np
import pytest
from hypothesis import given, strategies as st

from leakaudit.tabular import (BINARY, Column, Dataset, NUMERIC, apply_imputer,
                               fit_imputer, read_dataset, write_dataset)

from conftest import make_dataset


def test_dataset_validates_binary_columns():
    with pytest.raises(ValueError, match="outside"):
        make_dataset([[0.5]], [0], kinds=[BINARY])


def test_dataset_validates_labels():
    with pytest.raises(ValueError, match="labels"):
        make_dataset([[1.0]], [2])


@pytest.mark.parametrize("y, match", [
    ([0.7, 1.2], "y must hold integers, got 0.7"),
    ([np.nan, 1], "y must hold integers, got nan"),
    ([np.inf, 1], "y must hold integers, got inf"),
], ids=["fractional", "nan", "inf"])
def test_dataset_rejects_non_integral_labels(y, match):
    with pytest.raises(ValueError, match=match):
        make_dataset([[0.0], [1.0]], y)
    assert make_dataset([[0.0], [1.0]], [0.0, 1.0]).y.tolist() == [0, 1]


def test_dataset_shape_mismatch():
    with pytest.raises(ValueError):
        Dataset(columns=(Column("a", NUMERIC),), x=np.zeros((3, 1)),
                y=np.zeros(2, dtype=int))


@pytest.mark.parametrize("parents, match", [
    (np.full((3, 1), -1), r"\(3, 2\) array"),
    (np.full((2, 2), -1), r"\(3, 2\) array"),
    ([[-1, -1], [-2, -2], [-1, -1]], "both parents"),
    ([[-1, -1], [0, -1], [-1, -1]], "both parents"),
    ([[-1, -1], [0.7, 1.9], [-1, -1]], "parents must hold integers, got 0.7"),
    ([[-1, -1], [np.nan, 1], [-1, -1]], "parents must hold integers, got nan"),
    ([[-1, -1], [1e30, 1e30], [-1, -1]], r"parents must hold integers, got 1e\+30"),
], ids=["wrong-width", "wrong-length", "below-minus-one", "one-parent", "fractional", "nan",
        "beyond-int64"])
def test_dataset_rejects_malformed_parents(parents, match):
    with pytest.raises(ValueError, match=match):
        Dataset(columns=(Column("a", NUMERIC),), x=np.zeros((3, 1)),
                y=np.zeros(3, dtype=int), parents=parents)


# --- imputer -----------------------------------------------------------

def test_fit_mean_over_observed_cells():
    ds = make_dataset([[1.0], [np.nan], [3.0]], [0, 1, 0])
    model = fit_imputer(ds, [0, 1, 2])
    assert model.fill[0] == 2.0


def test_fit_binary_mode_tie_goes_to_zero():
    ds = make_dataset([[0.0], [0.0], [1.0]], [0, 0, 1], kinds=[BINARY])
    assert fit_imputer(ds, [0, 1, 2]).fill[0] == 0.0
    ds_tie = make_dataset([[0.0], [1.0]], [0, 1], kinds=[BINARY])
    assert fit_imputer(ds_tie, [0, 1]).fill[0] == 0.0


def test_fit_all_missing_column_names_the_column():
    ds = make_dataset([[np.nan, 1.0], [np.nan, 2.0]], [0, 1])
    with pytest.raises(ValueError, match="f0"):
        fit_imputer(ds, [0, 1])


def test_fit_empty_rows_rejected():
    ds = make_dataset([[1.0]], [0])
    with pytest.raises(ValueError):
        fit_imputer(ds, [])


def test_apply_without_missing_is_identity():
    ds = make_dataset([[1.0, 0.0], [2.0, 1.0]], [0, 1], kinds=[NUMERIC, BINARY])
    out = apply_imputer(ds, fit_imputer(ds, [0, 1]))
    np.testing.assert_array_equal(out.x, ds.x)
    np.testing.assert_array_equal(out.parents, ds.parents)


def test_apply_fills_missing_cell():
    ds = make_dataset([[1.0], [np.nan], [3.0]], [0, 1, 0])
    out = apply_imputer(ds, fit_imputer(ds, [0, 1, 2]))
    assert out.x[1, 0] == 2.0
    assert out.x[0, 0] == 1.0 and out.x[2, 0] == 3.0


def test_apply_is_idempotent():
    rng = np.random.default_rng(4)
    x = rng.standard_normal((8, 3))
    x[rng.random((8, 3)) < 0.3] = np.nan
    x[0] = 1.0  # keep every column observed somewhere
    ds = make_dataset(x, rng.integers(0, 2, 8))
    model = fit_imputer(ds, range(8))
    once = apply_imputer(ds, model)
    twice = apply_imputer(once, model)
    np.testing.assert_array_equal(once.x, twice.x)


def test_apply_rejects_column_mismatch():
    ds_a = make_dataset([[1.0]], [0])
    ds_b = Dataset(columns=(Column("other", NUMERIC),), x=np.ones((1, 1)),
                   y=np.zeros(1, dtype=int))
    with pytest.raises(ValueError, match="columns"):
        apply_imputer(ds_b, fit_imputer(ds_a, [0]))


def test_train_fitted_fills_carry_to_test_rows():
    # 4-row fixture: train rows 0-1, test rows 2-3; hand-computed fills
    x = [[1.0, 0.0],
         [3.0, 0.0],
         [100.0, 1.0],
         [np.nan, np.nan]]
    ds = make_dataset(x, [0, 1, 0, 1], kinds=[NUMERIC, BINARY])
    model = fit_imputer(ds, [0, 1])
    assert model.fill[0] == 2.0  # mean of train cells, test's 100.0 ignored
    assert model.fill[1] == 0.0  # train mode
    out = apply_imputer(ds, model)
    assert out.x[3, 0] == 2.0 and out.x[3, 1] == 0.0


def test_perturbing_test_rows_never_changes_model():
    rng = np.random.default_rng(11)
    for _ in range(25):
        x = rng.standard_normal((10, 4))
        x[rng.random((10, 4)) < 0.2] = np.nan
        x[0] = 0.0
        ds = make_dataset(x, rng.integers(0, 2, 10))
        train = [0, 1, 2, 3, 4]
        reference = fit_imputer(ds, train).fill
        x2 = ds.x.copy()
        x2[5:] = rng.standard_normal((5, 4)) * 100
        perturbed = make_dataset(x2, ds.y)
        np.testing.assert_array_equal(fit_imputer(perturbed, train).fill, reference)


@given(st.permutations(list(range(6))))
def test_fit_invariant_to_row_order(order):
    x = np.array([[1.0], [2.0], [np.nan], [4.0], [5.0], [np.nan]])
    ds = make_dataset(x, [0, 1, 0, 1, 0, 1])
    base = fit_imputer(ds, list(range(6))).fill
    permuted = fit_imputer(ds, order).fill
    np.testing.assert_allclose(permuted, base)


# --- CSV round-trip ----------------------------------------------------

def test_csv_roundtrip_preserves_values_and_kinds(tmp_path):
    x = np.array([[1.0, 0.123456789012345], [0.0, np.nan], [1.0, -3.5]])
    ds = make_dataset(x, [1, 0, 1], kinds=[BINARY, NUMERIC])
    path = tmp_path / "ds.csv"
    write_dataset(ds, path)
    back = read_dataset(path)
    assert [c.kind for c in back.columns] == [BINARY, NUMERIC]
    np.testing.assert_array_equal(back.y, ds.y)
    np.testing.assert_array_equal(np.isnan(back.x), np.isnan(ds.x))
    np.testing.assert_allclose(back.x[~np.isnan(ds.x)], ds.x[~np.isnan(ds.x)], rtol=0)


def test_missing_cells_serialized_as_empty_fields(tmp_path):
    ds = make_dataset([[np.nan], [2.0]], [0, 1])
    path = tmp_path / "ds.csv"
    write_dataset(ds, path)
    lines = path.read_text().splitlines()
    assert lines[1].startswith(",")  # empty field, then the label


def test_read_without_sidecar_infers_binary(tmp_path):
    path = tmp_path / "plain.csv"
    path.write_text("a,b,label\n1,2.5,0\n0,1.5,1\n")
    ds = read_dataset(path)
    assert [c.kind for c in ds.columns] == [BINARY, NUMERIC]
    assert (ds.parents == -1).all()


def test_read_missing_file_raises(tmp_path):
    with pytest.raises(FileNotFoundError):
        read_dataset(tmp_path / "absent.csv")


@pytest.mark.parametrize("bad_row, message", [
    ("inf,0", "column 'a': 'inf' is not a finite number"),
    ("abc,0", "column 'a': 'abc' is not a finite number"),
    ("1.5,2", "column 'label': label '2' is not 0 or 1"),
])
def test_read_rejects_bad_cell_naming_file_row_column(tmp_path, bad_row, message):
    path = tmp_path / "bad.csv"
    path.write_text(f"a,label\n1.0,0\n{bad_row}\n")
    with pytest.raises(ValueError) as err:
        read_dataset(path)
    assert str(err.value) == f"{path}: row 3, {message}"


@pytest.mark.parametrize("sidecar, message", [
    ("not json", "Expecting value: line 1 column 1"),
    ("{}", 'expected {"columns": [{"name": ..., "kind": ...}, ...]}'),
    ('{"columns": [{"name": "bin_00"}]}', 'expected {"columns": '),
    ('{"columns": [{"name": "bin_00", "kind": "bool"}]}',
     "unknown column kind 'bool' for 'bin_00'"),
    ("[]", 'expected {"columns": '),
], ids=["not-json", "no-columns", "no-kind", "unknown-kind", "list"])
def test_read_rejects_malformed_sidecar_naming_it(tmp_path, sidecar, message):
    path = tmp_path / "d.csv"
    path.write_text("bin_00,label\n1,0\n0,1\n")
    (tmp_path / "d.json").write_text(sidecar)
    with pytest.raises(ValueError) as err:
        read_dataset(path)
    assert str(err.value).startswith(f"{tmp_path / 'd.json'}: {message}")
