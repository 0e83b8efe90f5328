"""Pinned training answers: the weights and output range train_lm returns
on five fixed cases, recorded in training_answers.json and checked by the
shared rule of helpers.check_answers. The host stamps are scipy's OpenBLAS
kernel and the loop numpy runs float64 exp in: another kernel or exp loop
moves the last bits of the normal equations and of the sigmoid, and LM
carries them through every epoch, so there every value must agree within
WEIGHT_TOL.

Re-record, after a change that is meant to move the answers, with
``PYTHONPATH=src python tests/test_training_answers.py``.
"""

import warnings
from pathlib import Path

import numpy as np
from numpy.lib.introspect import opt_func_info

from pcmopt.studies import GEOMETRY_BOUNDS
from pcmopt.surrogate import DegenerateDataWarning, TrainingSet, train_lm

from helpers import check_answers, openblas_core, record_answers

ANSWERS = Path(__file__).with_name("training_answers.json")
# Largest shift of a weight or output bound allowed off the recorded kernel
# and exp loop. On a SkylakeX host, OPENBLAS_CORETYPE=Haswell moved them by
# up to 1.7e-10, =Prescott by 1.3e-10 and numpy's AVX-512 loops off by
# 4.5e-11; the bound leaves room for hosts whose epochs amplify more.
WEIGHT_TOL = 1e-8


def geometry_set() -> TrainingSet:
    """400 rows of a smooth stand-in for a geometry campaign's T_o_max
    surface, drawn inside GEOMETRY_BOUNDS."""
    lo, hi = np.array(list(GEOMETRY_BOUNDS.values())).T
    X = np.random.default_rng(0).uniform(lo, hi, size=(400, 3))
    H, W, T_m = X.T
    y = (90.0 - 0.08 * H - 0.03 * W + 0.01 * (T_m - 77.0) ** 2
         + 2.0 * np.tanh((H * W - 3000.0) / 2000.0))
    return TrainingSet(X, y, list(GEOMETRY_BOUNDS), "T_o_max_C")


def constant_set() -> TrainingSet:
    X = np.linspace(0.0, 1.0, 20).reshape(-1, 1)
    return TrainingSet(X, np.full(20, 4.2), ["x"], "c")


# name: (training set, train_lm keyword arguments)
CASES = {
    **{f"geometry_400/seed{s}": (geometry_set, {"seed": s}) for s in range(3)},
    "geometry_400/fixed_budget": (geometry_set, {"seed": 0, "max_epochs": 60,
                                                 "patience": 60}),
    "constant": (constant_set, {"seed": 0}),
}


def exp_target() -> str:
    """The CPU target of the loop numpy dispatches float64 exp to."""
    info = opt_func_info(func_name="exp", signature="float64.*")
    return info["exp"]["dd"]["current"]


HOST = (openblas_core, exp_target)


def training_answers() -> dict:
    answers = {}
    for name, (make, kwargs) in CASES.items():
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", DegenerateDataWarning)
            m = train_lm(make(), **kwargs)
        answers[name] = {
            **{k: [v.hex() for v in getattr(m, k).ravel().tolist()]
               for k in ("W1", "b1", "W2", "b2")},
            "out_min": m.out_min.hex(), "out_max": m.out_max.hex()}
    return answers


def test_trainings_reproduce_recorded_answers():
    check_answers(ANSWERS, training_answers(), HOST, WEIGHT_TOL)


if __name__ == "__main__":
    record_answers(ANSWERS, training_answers(), HOST)
