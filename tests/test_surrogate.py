import json
import re
import warnings
from dataclasses import asdict

import numpy as np
import pytest
from hypothesis import given, strategies as st

from pcmopt.surrogate import (DegenerateDataWarning, ExtrapolationWarning,
                              SurrogateModel, TrainingSet, activation,
                              load_training_csv, predict,
                              r_squared, train_lm, _forward, _jacobian,
                              _unpack)


def test_activation_values():
    assert activation(0.0) == pytest.approx(0.0)
    assert activation(1.0) == pytest.approx(0.76159, abs=1e-5)
    assert activation(50.0) == pytest.approx(1.0)
    assert activation(-50.0) == pytest.approx(-1.0)


@given(st.floats(min_value=-20.0, max_value=20.0))
def test_activation_is_odd_and_bounded(x):
    assert activation(-x) == pytest.approx(-activation(x), abs=1e-12)
    assert -1.0 <= activation(x) <= 1.0


def quadratic_set(n=200, seed=1):
    rng = np.random.default_rng(seed)
    X = rng.uniform(-2.0, 2.0, size=(n, 2))
    y = X[:, 0] ** 2 + 0.5 * np.sin(2.0 * X[:, 1])
    return TrainingSet(X, y, ["a", "b"], "f")


def test_training_fits_smooth_function():
    data = quadratic_set()
    model = train_lm(data, seed=3)
    assert r_squared(model, quadratic_set(n=150, seed=9)) > 0.99


def test_training_is_bitwise_deterministic():
    m1 = train_lm(quadratic_set(), seed=7)
    m2 = train_lm(quadratic_set(), seed=7)
    assert np.array_equal(m1.W1, m2.W1)
    assert np.array_equal(m1.b1, m2.b1)
    assert np.array_equal(m1.W2, m2.W2)
    assert np.array_equal(m1.b2, m2.b2)
    m3 = train_lm(quadratic_set(), seed=8)
    assert not np.array_equal(m1.W1, m3.W1)


def filled_jacobian(A, W2, Xn):
    """_jacobian on a fresh J whose entries are NaN but for its ones column,
    as train_lm sets it up."""
    n, h = A.shape
    J = np.full((n, h * Xn.shape[1] + 2 * h + 1), np.nan)
    J[:, -1] = 1.0
    _jacobian(J, A, W2, Xn.T.copy())
    return J


@pytest.mark.parametrize("n,n_in,h", [(1, 1, 1), (7, 2, 3), (40, 3, 10),
                                      (1700, 3, 10), (33, 5, 4)])
def test_jacobian_fills_the_bits_of_the_concatenated_construction(n, n_in,
                                                                   h):
    rng = np.random.default_rng(n * 100 + n_in * 10 + h)
    A = activation(rng.normal(size=(n, h)))
    W2 = rng.normal(size=(1, h))
    Xn = rng.uniform(-1.0, 1.0, size=(n, n_in))
    dact = (1.0 - A * A) * W2.ravel()
    reference = np.concatenate(
        [(dact[:, :, None] * Xn[:, None, :]).reshape(n, -1), dact, A,
         np.ones((n, 1))], axis=1)
    J = filled_jacobian(A, W2, Xn)
    assert J.tobytes() == reference.tobytes()


def test_jacobian_matches_central_differences():
    data = quadratic_set(n=40)
    model = train_lm(data, hidden=6, seed=0, max_epochs=20)
    Xn = np.linspace(-1.0, 1.0, 12).reshape(6, 2)
    p = np.concatenate([model.W1.ravel(), model.b1, model.W2.ravel(),
                        model.b2])
    A, _ = _forward(model.W1, model.b1, model.W2, model.b2, Xn)
    J = filled_jacobian(A, model.W2, Xn)
    eps = 1e-6
    for col in range(p.size):
        dp = np.zeros_like(p)
        dp[col] = eps
        _, y_hi = _forward(*_unpack(p + dp, 2, 6), Xn)
        _, y_lo = _forward(*_unpack(p - dp, 2, 6), Xn)
        fd = (y_hi - y_lo) / (2 * eps)
        scale = max(np.abs(J[:, col]).max(), 1e-8)
        assert np.abs(J[:, col] - fd).max() / scale < 1e-5


def test_predict_round_trips_normalization():
    data = quadratic_set()
    model = train_lm(data, seed=2)
    x = data.X[0]
    y_scalar = predict(model, x)
    y_batch = predict(model, data.X[:3])
    assert isinstance(y_scalar, float)
    assert y_batch.shape == (3,)
    assert y_batch[0] == y_scalar


@pytest.fixture(scope="module")
def geometry_model():
    """A 3-input model trained on a smooth stand-in for the geometry
    campaign's T_o_max surface."""
    rng = np.random.default_rng(0)
    X = rng.uniform([20.0, 20.0, 47.0], [100.0, 100.0, 96.0], size=(300, 3))
    y = 90.0 - 0.08 * X[:, 0] - 0.03 * X[:, 1] + 0.01 * (X[:, 2] - 77.0) ** 2
    return train_lm(TrainingSet(X, y, ["H_um", "W_um", "T_m_C"], "T"),
                    seed=0, max_epochs=40)


@given(n=st.integers(1, 64), seed=st.integers(0, 2**32 - 1))
def test_batched_predict_is_bitwise_per_row(geometry_model, n, seed):
    X = np.random.default_rng(seed).uniform(geometry_model.in_min,
                                            geometry_model.in_max,
                                            size=(n, 3))
    batched = predict(geometry_model, X)
    rows = [predict(geometry_model, x) for x in X]
    assert batched.tolist() == rows


def test_predict_warns_on_extrapolation():
    model = train_lm(quadratic_set(), seed=2)
    with pytest.warns(ExtrapolationWarning):
        predict(model, np.array([5.0, 0.0]))


def test_predict_rejects_wrong_width():
    model = train_lm(quadratic_set(), seed=2)
    with pytest.raises(ValueError):
        predict(model, np.array([1.0, 2.0, 3.0]))


def test_constant_targets_return_constant_predictor():
    X = np.linspace(0.0, 1.0, 20).reshape(-1, 1)
    data = TrainingSet(X, np.full(20, 4.2), ["x"], "c")
    with pytest.warns(DegenerateDataWarning):
        model = train_lm(data, seed=0)
    assert predict(model, np.array([0.3])) == pytest.approx(4.2)


def test_training_set_validation():
    with pytest.raises(ValueError):
        TrainingSet(np.zeros((3, 2)), np.zeros(4), ["a", "b"], "t")
    with pytest.raises(ValueError):
        TrainingSet(np.array([[np.nan, 1.0]]), np.array([1.0]), ["a", "b"], "t")
    # a name per column: a network trained on them names its inputs so
    with pytest.raises(ValueError, match=re.escape(
            "input names ['a', 'b'] do not name the 3 columns of X")):
        TrainingSet(np.zeros((12, 3)), np.zeros(12), ["a", "b"], "t")
    with pytest.raises(ValueError):
        train_lm(TrainingSet(np.zeros((4, 1)), np.arange(4.0), ["x"], "t"))
    for name in ("max_epochs", "patience"):
        with pytest.raises(ValueError, match=f"{name} must be >= 1, got 0"):
            train_lm(quadratic_set(), **{name: 0})


def test_model_json_round_trip(tmp_path):
    model = train_lm(quadratic_set(), seed=5)
    path = tmp_path / "model.json"
    model.save(path)
    loaded = SurrogateModel.load(path)
    for name in ("W1", "b1", "W2", "b2", "in_min", "in_max"):
        assert np.array_equal(getattr(loaded, name), getattr(model, name))
    x = np.array([0.4, -1.1])
    assert predict(loaded, x) == predict(model, x)
    assert (loaded.target_name, loaded.input_names) == ("f", ["a", "b"])
    assert loaded.seed == model.seed
    assert loaded.train_config == model.train_config
    # a key the model does not have fails and names the file, not dropped
    path.write_text(json.dumps({**json.loads(path.read_text()), "bias": 1}))
    with pytest.raises(ValueError, match=rf"{re.escape(str(path))}: .*'bias'"):
        SurrogateModel.load(path)


def test_model_file_is_its_record_as_indented_json(tmp_path):
    model = train_lm(quadratic_set(), hidden=4, seed=5)
    path = tmp_path / "model.json"
    model.save(path)
    assert path.read_bytes() == json.dumps(
        asdict(model), indent=2, default=np.ndarray.tolist).encode()


def test_model_file_with_a_truncated_weight_matrix_is_refused(tmp_path):
    path = tmp_path / "model.json"
    train_lm(quadratic_set(), hidden=4, seed=5).save(path)
    record = json.loads(path.read_text())
    record["W1"] = record["W1"][:-1]
    path.write_text(json.dumps(record))
    named = rf"{re.escape(str(path))}: W1 has shape \(3, 2\), not \(4, 2\)"
    with pytest.raises(ValueError, match=named):
        SurrogateModel.load(path)


def test_load_training_csv(tmp_path):
    path = tmp_path / "data.csv"
    path.write_text(
        "case_index,H_um,W_um,T_m_C,T_o_max_C,T_osc_C,config_hash\n"
        "0,20.0,30.0,50.0,90.0,10.0,0\n"
        "1,40.0,60.0,70.0,85.0,5.0,0\n")
    data = load_training_csv(path, target="T_o_max_C",
                             input_names=["H_um", "W_um", "T_m_C"])
    assert data.input_names == ["H_um", "W_um", "T_m_C"]
    assert data.X.shape == (2, 3)
    assert list(data.y) == [90.0, 85.0]
    with pytest.raises(ValueError):
        load_training_csv(path, target="missing")


def test_load_training_csv_names_the_file_of_an_unknown_input_or_no_rows(
        tmp_path):
    path = tmp_path / "data.csv"
    header = "case_index,H_um,W_um,T_m_C,T_o_max_C,T_osc_C,config_hash"
    path.write_text(f"{header}\n0,20.0,30.0,50.0,90.0,10.0,0\n")
    with pytest.raises(ValueError, match=re.escape(
            f"training file {path}: input columns ['nope'] not in "
            f"{header.split(',')}")):
        load_training_csv(path, target="T_o_max_C",
                          input_names=["H_um", "nope"])
    # a column named twice, which DictReader would read as its last copy
    path.write_text("H_um,H_um,T_m_C,T_o_max_C\n1,2,3,4\n")
    with pytest.raises(ValueError, match=re.escape(
            f"training file {path}: column 'H_um' is named more than once")):
        load_training_csv(path, target="T_o_max_C")
    # a value float() reads but no network can fit, refused on its line
    for row, bad in [("1,nan,30.0,50.0,90.0,10.0,0", ["H_um"]),
                     ("1,20.0,-inf,inf,90.0,10.0,0", ["W_um", "T_m_C"])]:
        path.write_text(f"{header}\n0,20.0,30.0,50.0,90.0,10.0,0\n{row}\n")
        with pytest.raises(ValueError, match=re.escape(
                f"training file {path}, line 3: columns {bad} are not "
                "finite")):
            load_training_csv(path, target="T_o_max_C")
    # a campaign whose every case failed writes its header alone
    path.write_text(f"{header}\n")
    for input_names in (None, ["H_um", "W_um", "T_m_C"]):
        with pytest.raises(ValueError, match=re.escape(
                f"training file {path}: no data rows")):
            load_training_csv(path, target="T_o_max_C",
                              input_names=input_names)


def test_r_squared_definition():
    X = np.arange(20.0).reshape(-1, 1)
    data = TrainingSet(X, 2.0 * X.ravel(), ["x"], "t")
    model = train_lm(data, seed=1)
    # perfect fit on a line
    assert r_squared(model, data) > 0.999
    with pytest.raises(ValueError):
        r_squared(model, TrainingSet(X[:5], np.full(5, 1.0), ["x"], "t"))
    with pytest.raises(ValueError, match="at least 2 test rows"):
        r_squared(model, data.subset([0]))


def test_validation_split_reproducible_and_disjoint():
    data = quadratic_set(n=100)
    model = train_lm(data, seed=11)
    assert model.train_config["val_fraction"] == 0.15
    assert model.hidden == [10]
    assert model.input_names == ["a", "b"]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        predict(model, data.X)  # in-range batch must not warn
