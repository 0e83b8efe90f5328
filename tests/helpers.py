"""Test doubles and oracles that the package itself never calls: a backend
over a plain function, the direct steady-state solve the transient is
checked against, the OpenBLAS kernel the answer pins are keyed on, and the
one rule by which every pin checks and re-records its answers."""

import ctypes
import json
from pathlib import Path

import numpy as np

from pcmopt.geometry import Case
from pcmopt.metrics import OBJECTIVE_COLUMNS
from pcmopt.optimize import Backend
from pcmopt.solver import (_factor_band, _openblas, build_case_network,
                           dpbtrs)


class FunctionBackend(Backend):
    """Objective fn(x), which is also its verified value. As a surrogate's
    verifier it names the objective and inputs the surrogate must stand
    for, as a SimulatorBackend does."""

    def __init__(self, fn, objective: str | None = None, param_names=()):
        self.fn = fn
        self.objective = objective
        self.input_names = list(param_names)
        self.target_name = OBJECTIVE_COLUMNS.get(objective)

    def evaluate(self, x):
        return float(self.fn(np.asarray(x, dtype=float)))

    verify = evaluate


def steady_state(case: Case, constant_flux: float) -> np.ndarray:
    """Direct solve of G T = b for a constant (non-cyclic) source flux,
    with every PCM node solid, through the solver's own band factor and
    triangular solve.

    Returns the nodal temperature field (degC) reshaped to (ny, nx).
    H_CONV > 0 keeps the system nonsingular.
    """
    _, net = build_case_network(case)
    chol = _factor_band(net.conductance_matrix(np.zeros(net.pcm_nodes.size)))
    T, _ = dpbtrs(chol,
                  net.source_vector(constant_flux) + net.ambient_vector())
    return net.mesh_field(T)


def openblas_core() -> str | None:
    """The kernel scipy's bundled OpenBLAS picked at load, read through the
    solver's handle, or None where scipy ships no such library."""
    if _openblas is None:
        return None
    corename = _openblas.scipy_openblas_get_corename
    corename.restype = ctypes.c_char_p
    return corename().decode()


def check_answers(path: Path, answers: dict, host=(), tol: float = 0.0):
    """Check answers against the record at path.

    host holds the pin's stamp functions, each recorded under its name.
    When every stamp matches the recorded one, the answers must be equal.
    Otherwise, stamps aside, keys and lengths must match, float.hex leaves
    may move by up to tol, sha256 digests are not compared, and every other
    leaf must be equal."""
    recorded = json.loads(path.read_text())
    stamps = {stamp.__name__: recorded.pop(stamp.__name__) for stamp in host}
    if all(stamp() == stamps[stamp.__name__] for stamp in host):
        assert answers == recorded
    else:
        _assert_close(answers, recorded, tol)


def _assert_close(got, want, tol, where="answers"):
    if isinstance(want, dict):
        assert got.keys() == want.keys(), where
        for k in want:
            if not k.endswith("sha256"):
                _assert_close(got[k], want[k], tol, f"{where}.{k}")
    elif isinstance(want, list):
        assert len(got) == len(want), where
        for i, (g, w) in enumerate(zip(got, want)):
            _assert_close(g, w, tol, f"{where}[{i}]")
    elif isinstance(want, str) and want.lstrip("-").startswith("0x"):
        shift = abs(float.fromhex(got) - float.fromhex(want))
        assert shift <= tol, f"{where} moved by {shift:.3g}"
    else:
        assert got == want, where


def record_answers(path: Path, answers: dict, host=()):
    """Write answers to path, after the value of each stamp in host; run
    after a change that is meant to move them."""
    stamps = {stamp.__name__: stamp() for stamp in host}
    path.write_text(json.dumps({**stamps, **answers}, indent=1) + "\n")
    print(f"recorded {path}", *(f"{k} {v}" for k, v in stamps.items()),
          sep=", ")
