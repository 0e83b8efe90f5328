"""Feedforward surrogate networks trained with Levenberg-Marquardt.

Architecture: input layer, one sigmoid hidden layer (default 10 neurons),
and a single linear output neuron predicting one thermal metric. Inputs and
targets are min-max normalized to [-1, 1]; the ranges are stored with the
model so prediction round-trips in physical units. A model records the
input_names and target_name of the TrainingSet it was fitted to, in order.
"""

from __future__ import annotations

import csv
import math
import warnings
from dataclasses import dataclass, field, asdict

import numpy as np

from .materials import (check_count, check_field_types, from_record,
                        read_json, write_json)
from .metrics import OBJECTIVE_COLUMNS


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
        check_field_types(self)
        self.X = np.atleast_2d(np.asarray(self.X, dtype=float))
        self.y = np.asarray(self.y, dtype=float).ravel()
        if self.X.shape[0] != self.y.size:
            raise ValueError("X and y row counts differ")
        if len(self.input_names) != self.X.shape[1]:
            raise ValueError(f"input names {list(self.input_names)} do not "
                             f"name the {self.X.shape[1]} columns of X")
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
    column that is not a known target column. A file without the target or
    an input column, with a column named twice, or without a data row, is a
    ValueError naming the file; a row whose width is not the header's, or
    whose value there is not a finite number, one naming the file and the
    line.
    """
    with open(path, newline="") as f:
        reader = csv.DictReader(f)
        header = reader.fieldnames or []
        repeated = [h for i, h in enumerate(header) if h in header[:i]]
        if repeated:
            raise ValueError(f"training file {path}: column {repeated[0]!r} "
                             "is named more than once")
        if target not in header:
            raise ValueError(f"training file {path}: target column "
                             f"{target!r} not in {header}")
        if input_names is None:
            reserved = {*OBJECTIVE_COLUMNS.values(), "case_index",
                        "config_hash", target}
            input_names = [h for h in header if h not in reserved]
        missing = [n for n in input_names if n not in header]
        if missing:
            raise ValueError(f"training file {path}: input columns "
                             f"{missing} not in {header}")
        columns = [*input_names, target]  # the target last
        X, y = [], []
        for row in reader:
            try:
                # DictReader keys a long row's extras by None, and fills a
                # short row's gaps with None
                if None in row or None in row.values():
                    raise ValueError(f"not the header's {len(header)} fields")
                values = [float(row[n]) for n in columns]
                bad = [n for n, v in zip(columns, values)
                       if not math.isfinite(v)]
                if bad:
                    raise ValueError(f"columns {bad} are not finite")
                X.append(values[:-1])
                y.append(values[-1])
            except ValueError as e:
                raise ValueError(f"training file {path}, line "
                                 f"{reader.line_num}: {e}") from e
    if not y:
        raise ValueError(f"training file {path}: no data rows")
    return TrainingSet(np.asarray(X), np.asarray(y), input_names, target)


@dataclass
class SurrogateModel:
    """Trained network weights plus normalization ranges and provenance."""

    input_names: list[str]
    hidden: list[int]
    W1: np.ndarray  # (hidden, len(input_names))
    b1: np.ndarray  # (hidden,)
    W2: np.ndarray  # (1, hidden)
    b2: np.ndarray  # (1,)
    in_min: np.ndarray
    in_max: np.ndarray
    out_min: float
    out_max: float
    target_name: str
    seed: int
    train_config: dict = field(default_factory=dict)

    def __post_init__(self):
        check_field_types(self)
        for i, width in enumerate(self.hidden):
            check_count(f"hidden[{i}]", width, 1)
        n, h = len(self.input_names), self.hidden  # h: the one layer's width
        shapes = {"W1": (*h, n), "b1": (*h,), "W2": (1, *h), "b2": (1,),
                  "in_min": (n,), "in_max": (n,)}
        for name, shape in shapes.items():
            value = np.asarray(getattr(self, name), dtype=float)
            if value.shape != shape:
                raise ValueError(
                    f"{name} has shape {value.shape}, not {shape} for "
                    f"{n} inputs and hidden {h}")
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
    if X.shape[1] != len(model.input_names):
        raise ValueError(
            f"expected {len(model.input_names)} inputs, got {X.shape[1]}")
    if (X < model.in_min - 1e-12).any() or (X > model.in_max + 1e-12).any():
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


def _jacobian(J, A, W2, XnT):
    """Fill J with the Jacobian of the network output w.r.t. every weight,
    per sample, from the hidden activations A that the forward pass on the
    inputs XnT.T gave.

    J is C-ordered (n, n_params) with its last column (the output bias's)
    already ones; XnT is the (n_in, n) inputs, C-ordered. The W1 block is
    formed as (h, n_in, n) products along the rows, whose innermost axis is
    long, and placed by one transposing copy. Every entry is the one
    product or copy it would be in any layout, so J has the same bits.
    """
    h = A.shape[1]
    n_w1 = h * len(XnT)
    dact_T = ((1.0 - A * A) * W2.ravel()).T.copy()  # (h, n)
    J[:, :n_w1] = (dact_T[:, None, :] * XnT).reshape(n_w1, -1).T
    J[:, n_w1:n_w1 + h] = dact_T.T
    J[:, n_w1 + h:-1] = A


# Levenberg-Marquardt settings of train_lm: share of rows held out for early
# stopping, initial and largest damping, and the gradient-norm stop.
VAL_FRACTION = 0.15
MU0 = 1e-3
MU_MAX = 1e10
GRAD_TOL = 1e-7
# Fewest rows train_lm fits a network to.
MIN_TRAINING_ROWS = 10


def train_lm(data: TrainingSet, hidden: int = 10, seed: int = 0,
             max_epochs: int = 300, patience: int = 6) -> SurrogateModel:
    """Fit a surrogate by damped Gauss-Newton least squares.

    Each epoch solves (J^T J + mu I) dw = J^T e, starting from mu = MU0,
    shrinking mu x0.1 on an accepted step and growing it x10 on a rejected
    one. Stops on max_epochs, mu above MU_MAX, gradient norm below GRAD_TOL,
    or validation error (on a VAL_FRACTION hold-out) rising for `patience`
    consecutive epochs. Deterministic for a given seed.

    Refused before anything is drawn: fewer than MIN_TRAINING_ROWS rows, a
    hidden, max_epochs or patience that is not a positive integer, and a
    seed that is not a non-negative integer (bools are refused).
    """
    if len(data) < MIN_TRAINING_ROWS:
        raise ValueError(f"need at least {MIN_TRAINING_ROWS} training rows")
    for name, count in (("hidden", hidden), ("max_epochs", max_epochs),
                        ("patience", patience)):
        check_count(name, count, 1)
    check_count("seed", seed, 0)
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

    n_params = hidden * n_in + hidden + hidden + 1
    if out_max <= out_min:
        warnings.warn("constant training targets; returning constant "
                      "predictor", DegenerateDataWarning, stacklevel=2)
        out_min, out_max = out_min - 0.5, out_min + 0.5
        best_p = np.zeros(n_params)
    else:
        Xn = _normalize(data.X, in_min, in_max)
        yn = _normalize(data.y, out_min, out_max)

        order = rng.permutation(n)
        n_val = int(round(VAL_FRACTION * n))
        val_idx = order[:n_val]
        tr_idx = order[n_val:]
        Xtr, ytr = Xn[tr_idx], yn[tr_idx]
        Xval, yval = Xn[val_idx], yn[val_idx]

        p = rng.uniform(-0.5, 0.5, size=n_params)

        def residual(params, X, y):  # hidden activations, output errors
            A, out = _forward(*_unpack(params, n_in, hidden), X)
            return A, y - out

        mu = MU0
        eye = np.eye(n_params)
        best_val = np.inf
        best_p = p.copy()
        val_rises = 0
        # p's pass on the training rows, kept from the trial that accepted p
        A, e = residual(p, Xtr, ytr)
        train_sse = float(np.sum(e ** 2))
        # every epoch refills J in place; its ones column is set here once
        J = np.empty((len(ytr), n_params))
        J[:, -1] = 1.0
        XtrT = Xtr.T.copy()

        for _ in range(max_epochs):
            _jacobian(J, A, _unpack(p, n_in, hidden)[2], XtrT)
            g = J.T @ e
            if np.linalg.norm(g) < GRAD_TOL:
                break
            JtJ = J.T @ J
            while mu <= MU_MAX:
                try:
                    step = np.linalg.solve(JtJ + mu * eye, g)
                except np.linalg.LinAlgError:
                    mu *= 10.0
                    continue
                trial = p + step
                A_trial, e_trial = residual(trial, Xtr, ytr)
                new_sse = float(np.sum(e_trial ** 2))
                if new_sse < train_sse:
                    p, A, e, train_sse = trial, A_trial, e_trial, new_sse
                    mu = max(mu * 0.1, 1e-20)
                    break
                mu *= 10.0
            else:
                break  # mu overflow: no descent direction left

            # the hold-out is never empty: round(VAL_FRACTION * n) >= 2 rows
            val_sse = float(np.sum(residual(p, Xval, yval)[1] ** 2))
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
        input_names=list(data.input_names), hidden=[hidden],
        W1=W1.copy(), b1=b1.copy(), W2=W2.copy(), b2=b2.copy(),
        in_min=in_min, in_max=in_max, out_min=out_min, out_max=out_max,
        target_name=data.target_name, seed=seed, train_config=config)


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
