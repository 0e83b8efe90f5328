"""Feedforward surrogate networks trained with Levenberg-Marquardt.

Architecture: input layer, one sigmoid hidden layer (default 10 neurons),
and a single linear output neuron predicting one thermal metric. Inputs and
targets are min-max normalized to [-1, 1]; the ranges are stored with the
model so prediction round-trips in physical units.
"""

from __future__ import annotations

import csv
import warnings
from dataclasses import dataclass, field, asdict

import numpy as np

from .materials import check_field_types, from_record, read_json, write_json


class ExtrapolationWarning(UserWarning):
    """Prediction requested outside the training input ranges."""


class DegenerateDataWarning(UserWarning):
    """Training targets carry no variance; constant predictor returned."""


def activation(x):
    """Hidden-layer sigmoid 2/(1 + e^(-2x)) - 1 (odd, range (-1, 1))."""
    return 2.0 / (1.0 + np.exp(-2.0 * x)) - 1.0


@dataclass
class TrainingSet:
    """Rows of (input vector, scalar target) with their column names."""

    X: np.ndarray  # (n_rows, n_inputs)
    y: np.ndarray  # (n_rows,)
    input_names: list[str]
    target_name: str

    def __post_init__(self):
        self.X = np.atleast_2d(np.asarray(self.X, dtype=float))
        self.y = np.asarray(self.y, dtype=float).ravel()
        if self.X.shape[0] != self.y.size:
            raise ValueError("X and y row counts differ")
        if not (np.all(np.isfinite(self.X)) and np.all(np.isfinite(self.y))):
            raise ValueError("training data contains non-finite entries")

    def __len__(self):
        return self.y.size

    def subset(self, idx) -> "TrainingSet":
        return TrainingSet(self.X[idx], self.y[idx], self.input_names,
                           self.target_name)


def load_training_csv(path, target: str,
                      input_names: list[str] | None = None) -> TrainingSet:
    """Read a training set from a headered CSV.

    The target column is named explicitly; input columns default to every
    column that is not a known target column.
    """
    with open(path, newline="") as f:
        reader = csv.DictReader(f)
        header = reader.fieldnames or []
        if target not in header:
            raise ValueError(f"target column {target!r} not in {header}")
        if input_names is None:
            reserved = {"T_o_max_C", "T_osc_C", "case_index", "config_hash",
                        target}
            input_names = [h for h in header if h not in reserved]
        X, y = [], []
        for row in reader:
            X.append([float(row[n]) for n in input_names])
            y.append(float(row[target]))
    return TrainingSet(np.asarray(X), np.asarray(y), input_names, target)


@dataclass
class SurrogateModel:
    """Trained network weights plus normalization ranges and provenance."""

    input_dim: int
    hidden: list[int]
    W1: np.ndarray  # (hidden, input_dim)
    b1: np.ndarray  # (hidden,)
    W2: np.ndarray  # (1, hidden)
    b2: np.ndarray  # (1,)
    in_min: np.ndarray
    in_max: np.ndarray
    out_min: float
    out_max: float
    target: str
    seed: int
    train_config: dict = field(default_factory=dict)

    def __post_init__(self):
        check_field_types(self)
        n, h = self.input_dim, self.hidden  # h lists the one layer's width
        shapes = {"W1": (*h, n), "b1": (*h,), "W2": (1, *h), "b2": (1,),
                  "in_min": (n,), "in_max": (n,)}
        for name, shape in shapes.items():
            value = np.asarray(getattr(self, name), dtype=float)
            if value.shape != shape:
                raise ValueError(
                    f"{name} has shape {value.shape}, not {shape} for "
                    f"input_dim {n} and hidden {h}")
            setattr(self, name, value)

    def save(self, path) -> None:
        write_json(path, asdict(self))

    @classmethod
    def load(cls, path) -> "SurrogateModel":
        source = f"model file {path}"
        return from_record(cls, read_json(path, source), source)


def _normalize(v, lo, hi):
    span = np.where(hi > lo, hi - lo, 1.0)
    return 2.0 * (v - lo) / span - 1.0


def _denormalize(v, lo, hi):
    return (v + 1.0) / 2.0 * (hi - lo) + lo


def _forward(W1, b1, W2, b2, Xn):
    """Hidden activations and network output on normalized inputs."""
    A = activation(Xn @ W1.T + b1)
    return A, (A @ W2.T).ravel() + b2[0]


def predict(model: SurrogateModel, x) -> float | np.ndarray:
    """Metric estimate in physical units for one input vector or a batch."""
    X = np.atleast_2d(np.asarray(x, dtype=float))
    if X.shape[1] != model.input_dim:
        raise ValueError(
            f"expected {model.input_dim} inputs, got {X.shape[1]}")
    if np.any(X < model.in_min - 1e-12) or np.any(X > model.in_max + 1e-12):
        warnings.warn("input outside training bounds; extrapolating",
                      ExtrapolationWarning, stacklevel=2)
    # Stacked as (n, 1, in), each row goes through its own (1, in) @ (in, h)
    # product, so a row's estimate has the same bits whatever batch it is
    # in; a plain 2-D product blocks rows together and moves about one row
    # in nine by up to ~1e-14.
    Xn = _normalize(X, model.in_min, model.in_max)[:, None, :]
    _, yn = _forward(model.W1, model.b1, model.W2, model.b2, Xn)
    y = _denormalize(yn, model.out_min, model.out_max)
    return float(y[0]) if np.asarray(x).ndim == 1 else y


def _unpack(p, n_in, n_hid):
    i = 0
    W1 = p[i:i + n_hid * n_in].reshape(n_hid, n_in); i += n_hid * n_in
    b1 = p[i:i + n_hid]; i += n_hid
    W2 = p[i:i + n_hid].reshape(1, n_hid); i += n_hid
    b2 = p[i:i + 1]
    return W1, b1, W2, b2


def _forward_jacobian(p, Xn, n_hid):
    """Network output and its Jacobian w.r.t. every weight, both per sample."""
    n, n_in = Xn.shape
    W1, b1, W2, b2 = _unpack(p, n_in, n_hid)
    A, y = _forward(W1, b1, W2, b2, Xn)     # A: (n, h)
    dact = (1.0 - A * A) * W2.ravel()       # (n, h)
    J_W1 = dact[:, :, None] * Xn[:, None, :]  # (n, h, n_in)
    J = np.concatenate([
        J_W1.reshape(n, n_hid * n_in),
        dact,
        A,
        np.ones((n, 1)),
    ], axis=1)
    return y, J


# Levenberg-Marquardt settings of train_lm: share of rows held out for early
# stopping, initial and largest damping, and the gradient-norm stop.
VAL_FRACTION = 0.15
MU0 = 1e-3
MU_MAX = 1e10
GRAD_TOL = 1e-7


def train_lm(data: TrainingSet, hidden: int = 10, seed: int = 0,
             max_epochs: int = 300, patience: int = 6) -> SurrogateModel:
    """Fit a surrogate by damped Gauss-Newton least squares.

    Each epoch solves (J^T J + mu I) dw = J^T e, starting from mu = MU0,
    shrinking mu x0.1 on an accepted step and growing it x10 on a rejected
    one. Stops on max_epochs, mu above MU_MAX, gradient norm below GRAD_TOL,
    or validation error (on a VAL_FRACTION hold-out) rising for `patience`
    consecutive epochs. Deterministic for a given seed.
    """
    if len(data) < 10:
        raise ValueError("need at least 10 training rows")
    rng = np.random.default_rng(seed)
    n, n_in = data.X.shape

    in_min = data.X.min(axis=0)
    in_max = data.X.max(axis=0)
    out_min = float(data.y.min())
    out_max = float(data.y.max())
    config = {
        "hidden": hidden, "max_epochs": max_epochs,
        "val_fraction": VAL_FRACTION, "mu0": MU0, "mu_max": MU_MAX,
        "grad_tol": GRAD_TOL, "patience": patience,
        "init": "uniform[-0.5,0.5]",
    }

    if out_max <= out_min:
        warnings.warn("constant training targets; returning constant "
                      "predictor", DegenerateDataWarning, stacklevel=2)
        return SurrogateModel(
            input_dim=n_in, hidden=[hidden],
            W1=np.zeros((hidden, n_in)), b1=np.zeros(hidden),
            W2=np.zeros((1, hidden)), b2=np.array([0.0]),
            in_min=in_min, in_max=in_max,
            out_min=out_min - 0.5, out_max=out_min + 0.5,
            target=data.target_name, seed=seed, train_config=config)

    Xn = _normalize(data.X, in_min, in_max)
    yn = _normalize(data.y, out_min, out_max)

    order = rng.permutation(n)
    n_val = int(round(VAL_FRACTION * n))
    val_idx = order[:n_val]
    tr_idx = order[n_val:]
    Xtr, ytr = Xn[tr_idx], yn[tr_idx]
    Xval, yval = Xn[val_idx], yn[val_idx]

    n_params = hidden * n_in + hidden + hidden + 1
    p = rng.uniform(-0.5, 0.5, size=n_params)

    def sse(params, X, y):
        _, out = _forward(*_unpack(params, n_in, hidden), X)
        return float(np.sum((y - out) ** 2))

    mu = MU0
    best_val = np.inf
    best_p = p.copy()
    val_rises = 0
    train_sse = sse(p, Xtr, ytr)

    for _ in range(max_epochs):
        yhat, J = _forward_jacobian(p, Xtr, hidden)
        e = ytr - yhat
        g = J.T @ e
        if np.linalg.norm(g) < GRAD_TOL:
            break
        JtJ = J.T @ J
        accepted = False
        while mu <= MU_MAX:
            try:
                step = np.linalg.solve(JtJ + mu * np.eye(n_params), g)
            except np.linalg.LinAlgError:
                mu *= 10.0
                continue
            new_sse = sse(p + step, Xtr, ytr)
            if new_sse < train_sse:
                p = p + step
                train_sse = new_sse
                mu = max(mu * 0.1, 1e-20)
                accepted = True
                break
            mu *= 10.0
        if not accepted:
            break  # mu overflow: no descent direction left

        # the hold-out is never empty: round(VAL_FRACTION * n) >= 2 rows
        val_sse = sse(p, Xval, yval)
        if val_sse < best_val - 1e-15:
            best_val = val_sse
            best_p = p.copy()
            val_rises = 0
        else:
            val_rises += 1
            if val_rises >= patience:
                break

    W1, b1, W2, b2 = _unpack(best_p, n_in, hidden)
    return SurrogateModel(
        input_dim=n_in, hidden=[hidden],
        W1=W1.copy(), b1=b1.copy(), W2=W2.copy(), b2=b2.copy(),
        in_min=in_min, in_max=in_max, out_min=out_min, out_max=out_max,
        target=data.target_name, seed=seed, train_config=config)


def r_squared(model: SurrogateModel, test: TrainingSet) -> float:
    """Coefficient of determination on denormalized predictions."""
    if len(test) < 2:
        raise ValueError("need at least 2 test rows")
    ss_tot = float(np.sum((test.y - test.y.mean()) ** 2))
    if ss_tot == 0.0:
        raise ValueError("zero-variance test targets")
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", ExtrapolationWarning)
        pred = predict(model, test.X)
    ss_res = float(np.sum((test.y - pred) ** 2))
    return 1.0 - ss_res / ss_tot
