"""Test doubles and oracles that the package itself never calls: a backend
over a plain function, the direct steady-state solve the transient is
checked against, and the OpenBLAS kernel the answer pins are keyed on."""

import ctypes
import importlib.util
from pathlib import Path

import numpy as np

from pcmopt.geometry import Case
from pcmopt.optimize import Backend
from pcmopt.solver import _factor_band, build_case_network, dpbtrs


class FunctionBackend(Backend):
    """Objective fn(x), which is also its verified value."""

    def __init__(self, fn):
        self.fn = fn

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
