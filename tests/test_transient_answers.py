"""Pinned transient answers: counters, metrics and trace digests of eight
cases, recorded in transient_answers.json and checked by the shared rule
of helpers.check_answers. The host stamp is scipy's OpenBLAS kernel:
another kernel (another CPU class, or OPENBLAS_CORETYPE) may move the last
bits of the banded solve, so there every value must agree within
VALUE_TOL.

Re-record, after a change that is meant to move the answers, with
``PYTHONPATH=src python tests/test_transient_answers.py``.
"""

import hashlib
from pathlib import Path

import numpy as np

from pcmopt.geometry import Case, UnitCellSpec
from pcmopt.materials import builtin_material
from pcmopt.metrics import compute_metrics
from pcmopt.solver import COARSE, simulate
from pcmopt.studies import geometry_case, property_case

from helpers import check_answers, openblas_core, record_answers, steady_state

ANSWERS = Path(__file__).with_name("transient_answers.json")
HOST = (openblas_core,)
# Largest shift of a value (degC, s, or melt fraction) allowed off the
# recorded kernel; other kernels were measured to move T_max by 5.5e-8 degC.
VALUE_TOL = 1e-7

COARSE_CELL = UnitCellSpec(dx=COARSE.dx)
# Every case simulated here, beside the two 5 um references the session
# fixtures provide: (case, simulate keyword arguments).
CASES = {
    "property_10um": (property_case(
        {"T_m_C": 80.0, "L_H_J_per_kg": 30000.0, "k_W_per_mK": 20.0,
         "cp_solid_J_per_kgK": 300.0, "cp_liquid_J_per_kgK": 500.0},
        cell=COARSE_CELL), {"dt": COARSE.dt}),
    "channel_60x60_5um": (geometry_case(
        {"H_um": 60.0, "W_um": 60.0, "T_m_C": 77.0}, dx=5e-6),
        {"dt": COARSE.dt}),
    "channel_60x60_10um": (geometry_case(
        {"H_um": 60.0, "W_um": 60.0, "T_m_C": 77.0}, dx=COARSE.dx),
        {"dt": COARSE.dt}),
    "silicon_channel_10um": (Case(cell=COARSE_CELL,
                                  pcm=builtin_material("Silicon")),
                             {"dt": COARSE.dt}),
    "snapshots_10um": (Case(cell=COARSE_CELL), {"dt": COARSE.dt,
                                           "snapshot_every": 40}),
}


def _digest(*arrays) -> str:
    h = hashlib.sha256()
    for a in arrays:
        h.update(np.ascontiguousarray(a, dtype=float).tobytes())
    return h.hexdigest()


def _hex(values) -> list[str]:
    return [float(v).hex() for v in values]


def _record(h) -> dict:
    ends = slice(h.steps_per_cycle - 1, None, h.steps_per_cycle)
    metrics = {k: v.hex() if isinstance(v, float) else v
               for k, v in compute_metrics(h).to_dict().items()}
    record = {
        "steps": int(h.t.size),
        "settle_cycle": h.quasi_steady_cycle,
        "n_factorizations": h.n_factorizations,
        "metrics": metrics,
        "T_max_sha256": _digest(h.T_max),
        "phi_mean_sha256": _digest(h.phi_mean),
        "T_max_cycle_ends": _hex(h.T_max[ends]),
        "phi_mean_cycle_ends": _hex(h.phi_mean[ends]),
    }
    if h.snapshots:
        record["snapshots_sha256"] = _digest(
            *(a for snap in h.snapshots for a in snap))
        record["snapshot_T_mean"] = _hex(T.mean() for _, T, _ in h.snapshots)
        record["snapshot_phi_mean"] = _hex(phi.mean()
                                           for _, _, phi in h.snapshots)
    return record


def transient_answers(solder_history, baseline_history) -> dict:
    """The pinned answers, given the 5 um Solder 174 and solid runs."""
    answers = {"solder174_5um": _record(solder_history),
               "solid_5um": _record(baseline_history)}
    for name, (case, kwargs) in CASES.items():
        answers[name] = _record(simulate(case, **kwargs))
    field = steady_state(Case(), constant_flux=100e3)
    answers["steady_state_5um"] = {
        "shape": list(field.shape), "sha256": _digest(field),
        "max": field.max().hex(), "min": field.min().hex(),
        "mean": field.mean().hex()}
    return answers


def test_transients_reproduce_recorded_answers(solder_history,
                                               baseline_history):
    check_answers(ANSWERS, transient_answers(solder_history, baseline_history),
                  HOST, VALUE_TOL)


if __name__ == "__main__":
    record_answers(ANSWERS, transient_answers(
        simulate(Case()), simulate(Case(cell=UnitCellSpec(no_channel=True)))),
        HOST)
