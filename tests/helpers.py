"""Test doubles and oracles that the package itself never calls: a backend
over a plain function, and the direct steady-state solve the transient is
checked against."""

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
