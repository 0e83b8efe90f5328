"""Pinned transient answers: counters, metrics and trace digests of eight
cases, recorded in transient_answers.json.

Counters compare exactly. Values compare bitwise when scipy's OpenBLAS runs
the kernel the answers were recorded under; another kernel (another CPU
class, or OPENBLAS_CORETYPE) may move the last bits of the banded solve, so
there every value must agree within VALUE_TOL instead.

Re-record, after a change that is meant to move the answers, with
``PYTHONPATH=src python tests/test_transient_answers.py``.
"""

import ctypes
import hashlib
import importlib.util
import json
from dataclasses import replace
from pathlib import Path

import numpy as np

from pcmopt.geometry import Case, UnitCellSpec
from pcmopt.materials import builtin_material
from pcmopt.metrics import compute_metrics
from pcmopt.solver import simulate, steady_state
from pcmopt.studies import REFERENCE_CELL, geometry_case, property_case

ANSWERS = Path(__file__).with_name("transient_answers.json")
# Largest shift of a value (degC, s, or melt fraction) allowed off the
# recorded kernel; other kernels were measured to move T_max by 5.5e-8 degC.
VALUE_TOL = 1e-7

COARSE = UnitCellSpec(dx=10e-6)
# Every case simulated here, beside the two 5 um references the session
# fixtures provide: (case, simulate keyword arguments).
CASES = {
    "property_10um": (property_case(
        {"T_m_C": 80.0, "L_H_J_per_kg": 30000.0, "k_W_per_mK": 20.0,
         "cp_solid_J_per_kgK": 300.0, "cp_liquid_J_per_kgK": 500.0},
        cell=replace(REFERENCE_CELL, dx=10e-6)), {"dt": 0.025}),
    "channel_60x60_5um": (geometry_case(
        {"H_um": 60.0, "W_um": 60.0, "T_m_C": 77.0}, dx=5e-6), {"dt": 0.025}),
    "channel_60x60_10um": (geometry_case(
        {"H_um": 60.0, "W_um": 60.0, "T_m_C": 77.0}, dx=10e-6),
        {"dt": 0.025}),
    "silicon_channel_10um": (Case(cell=COARSE,
                                  pcm=builtin_material("Silicon")),
                             {"dt": 0.025}),
    "snapshots_10um": (Case(cell=COARSE), {"dt": 0.025,
                                           "snapshot_every": 40}),
}


def openblas_core() -> str | None:
    """The kernel scipy's bundled OpenBLAS picked at load, or None where
    scipy ships no such library."""
    spec = importlib.util.find_spec("scipy")
    libs = Path(spec.origin).parent.with_name("scipy.libs")
    found = sorted(libs.glob("libscipy_openblas*.so"))
    if not found:
        return None
    corename = ctypes.CDLL(str(found[0])).scipy_openblas_get_corename
    corename.restype = ctypes.c_char_p
    return corename().decode()


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
    answers = {"openblas_core": openblas_core(),
               "solder174_5um": _record(solder_history),
               "solid_5um": _record(baseline_history)}
    for name, (case, kwargs) in CASES.items():
        answers[name] = _record(simulate(case, **kwargs))
    field = steady_state(Case(), constant_flux=100e3)
    answers["steady_state_5um"] = {
        "shape": list(field.shape), "sha256": _digest(field),
        "max": field.max().hex(), "min": field.min().hex(),
        "mean": field.mean().hex()}
    return answers


def _assert_close(got, want, where="answers"):
    """got == want, except that float.hex strings may differ by VALUE_TOL
    and digests are not compared."""
    if isinstance(want, dict):
        assert got.keys() == want.keys(), where
        for k in want:
            if not k.endswith("sha256"):
                _assert_close(got[k], want[k], f"{where}.{k}")
    elif isinstance(want, list):
        assert len(got) == len(want), where
        for i, (g, w) in enumerate(zip(got, want)):
            _assert_close(g, w, f"{where}[{i}]")
    elif isinstance(want, str) and want.lstrip("-").startswith("0x"):
        shift = abs(float.fromhex(got) - float.fromhex(want))
        assert shift <= VALUE_TOL, f"{where} moved by {shift:.3g}"
    else:
        assert got == want, where


def test_transients_reproduce_recorded_answers(solder_history,
                                               baseline_history):
    recorded = json.loads(ANSWERS.read_text())
    answers = transient_answers(solder_history, baseline_history)
    if answers["openblas_core"] == recorded["openblas_core"]:
        assert answers == recorded
    else:
        del answers["openblas_core"], recorded["openblas_core"]
        _assert_close(answers, recorded)


if __name__ == "__main__":
    answers = transient_answers(
        simulate(Case()), simulate(Case(cell=UnitCellSpec(no_channel=True))))
    ANSWERS.write_text(json.dumps(answers, indent=1) + "\n")
    print(f"recorded under OpenBLAS core {answers['openblas_core']} "
          f"in {ANSWERS}")
