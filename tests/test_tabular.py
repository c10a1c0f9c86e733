import numpy as np
import pytest
from hypothesis import given, strategies as st

from leakaudit.tabular import (BINARY, Column, Dataset, ImputerModel, NUMERIC, apply_imputer,
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
    (["0", "1"], "y must hold integers, got dtype <U1"),
], ids=["fractional", "nan", "inf", "strings"])
def test_dataset_rejects_non_integral_labels(y, match):
    with pytest.raises(ValueError, match=match):
        make_dataset([[0.0], [1.0]], y)
    assert make_dataset([[0.0], [1.0]], [0.0, 1.0]).y.tolist() == [0, 1]


def test_dataset_shape_mismatch():
    with pytest.raises(ValueError):
        Dataset(columns=(Column("a", NUMERIC),), x=np.zeros((3, 1)),
                y=np.zeros(2, dtype=int))


@pytest.mark.parametrize("x, match", [
    (np.zeros(2), "^x must be a 2-D matrix$"),
    (np.zeros((2, 2)), "^1 columns declared for 2-wide matrix$"),
], ids=["one-dimensional", "column-count"])
def test_dataset_rejects_a_matrix_its_columns_do_not_describe(x, match):
    with pytest.raises(ValueError, match=match):
        Dataset(columns=(Column("a", NUMERIC),), x=x, y=np.zeros(2, dtype=int))


def test_dataset_rejects_a_repeated_column_name():
    columns = (Column("a", NUMERIC), Column("b", NUMERIC), Column("a", BINARY))
    with pytest.raises(ValueError, match="^column name 'a' appears more than once$"):
        Dataset(columns=columns, x=np.zeros((2, 3)), y=np.zeros(2, dtype=int))


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
    for got, source in ((out.x, ds.x), (out.y, ds.y), (out.parents, ds.parents)):
        assert not np.shares_memory(got, source)


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


# two observed cells of 1e308 sum past the float limit
OVERFLOWING_MEAN = make_dataset([1e308, 1e308, np.nan, 0, 1, 2, 3, 4, 5, 6], [1] * 3 + [0] * 7)


def test_an_overflowing_mean_is_refused_naming_the_column():
    # a RuntimeWarning from the sum would fail here too: the tests run with warnings as errors
    with pytest.raises(ValueError,
                       match="^column 'f0': the mean of its observed values overflows$"):
        fit_imputer(OVERFLOWING_MEAN, range(10))
    # without both cells of 1e308 the mean is the same expression's value
    rows = [1, 2, 3, 4, 5]
    model = fit_imputer(OVERFLOWING_MEAN, rows)
    assert model.fill.tobytes() == np.array([np.mean([1e308, 0, 1, 2])]).tobytes()


@pytest.mark.parametrize("fill, match", [
    ([0.0], "one fill value per column required"),
    ([[0.0, 1.0]], "one fill value per column required"),
    ([0.0, np.nan], "fill values must be finite"),
    ([np.inf, 0.0], "fill values must be finite"),
], ids=["too-few", "two-dimensional", "nan", "inf"])
def test_imputer_model_rejects_a_malformed_fill(fill, match):
    columns = (Column("a", NUMERIC), Column("b", BINARY))
    with pytest.raises(ValueError, match=match):
        ImputerModel(columns=columns, fill=fill)


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


@pytest.mark.parametrize("rows, kinds", [
    ("1,2.5,0\n0,1.5,1\n", [BINARY, NUMERIC]),
    (",,0\n,1.5,1\n", [NUMERIC, NUMERIC]),  # an all-blank column is numeric
    ("1,,0\n,0,1\n", [BINARY, BINARY]),  # 0/1 with blanks is binary
    ("1,0,0\n2,1,1\n", [NUMERIC, BINARY]),  # a single 2 makes it numeric
], ids=["mixed", "all_blank", "blanks", "one_two"])
def test_read_without_sidecar_infers_binary(tmp_path, rows, kinds):
    path = tmp_path / "plain.csv"
    path.write_text("a,b,label\n" + rows)
    ds = read_dataset(path)
    assert [c.kind for c in ds.columns] == kinds
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


def test_read_rejects_a_cell_outside_0_1_in_a_declared_binary_column(tmp_path):
    path = tmp_path / "d.csv"
    path.write_text("a,b,label\n0.5,1,0\n1.5,1.5,1\n")
    (tmp_path / "d.json").write_text('{"columns": [{"name": "a", "kind": "numeric"}, '
                                     '{"name": "b", "kind": "binary"}]}')
    with pytest.raises(ValueError) as err:
        read_dataset(path)
    assert str(err.value) == f"{path}: row 3, column 'b': '1.5' is not 0 or 1 in a binary column"


@pytest.mark.parametrize("text, message", [
    ("", "empty file, expected a header row"),
    ("a,b\n1,0\n", "last column must be 'label'"),
    ("a,label\n1,0\n1,0,1\n", "row 3 has 3 fields, expected 2"),
], ids=["empty", "no-label-column", "field-count"])
def test_read_rejects_a_malformed_file_naming_it(tmp_path, text, message):
    path = tmp_path / "bad.csv"
    path.write_text(text)
    with pytest.raises(ValueError) as err:
        read_dataset(path)
    assert str(err.value) == f"{path}: {message}"


def test_a_sidecar_path_naming_a_directory_is_no_sidecar(tmp_path):
    path = tmp_path / "d.csv"
    path.write_text("a,b,label\n1,2.5,0\n0,1.5,1\n")
    (tmp_path / "d.json").mkdir()
    assert [c.kind for c in read_dataset(path).columns] == [BINARY, NUMERIC]


@pytest.mark.parametrize("header, message", [
    ("a,a,label", "column 2: name 'a' repeats column 1"),
    ("a,b,a,label", "column 3: name 'a' repeats column 1"),
    ("label,label", "column 2: name 'label' repeats column 1"),
], ids=["adjacent", "apart", "label"])
def test_read_rejects_a_repeated_header_name(tmp_path, header, message):
    path = tmp_path / "dup.csv"
    width = header.count(",") + 1
    path.write_text(f"{header}\n" + ",".join(["0"] * width) + "\n")
    with pytest.raises(ValueError) as err:
        read_dataset(path)
    assert str(err.value) == f"{path}: row 1 (the header), {message}"


@pytest.mark.parametrize("sidecar, message", [
    ("not json", "Expecting value: line 1 column 1"),
    ("{}", 'expected {"columns": [{"name": ..., "kind": ...}, ...]}'),
    ('{"columns": [{"name": "bin_00"}]}', 'expected {"columns": '),
    ('{"columns": [{"name": "bin_00", "kind": "bool"}]}',
     "unknown column kind 'bool' for 'bin_00'"),
    ("[]", 'expected {"columns": '),
    ('{"columns": []}', "no kind declared for columns ['bin_00']"),
], ids=["not-json", "no-columns", "no-kind", "unknown-kind", "list", "undeclared-column"])
def test_read_rejects_malformed_sidecar_naming_it(tmp_path, sidecar, message):
    path = tmp_path / "d.csv"
    path.write_text("bin_00,label\n1,0\n0,1\n")
    (tmp_path / "d.json").write_text(sidecar)
    with pytest.raises(ValueError) as err:
        read_dataset(path)
    assert str(err.value).startswith(f"{tmp_path / 'd.json'}: {message}")
