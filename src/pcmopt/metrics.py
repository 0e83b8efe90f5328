"""Evaluation metrics reduced from a thermal history.

Metrics: overall maximum chip temperature, peak-to-peak oscillation of the
maximum-temperature trace over the settled cycle, time to the 85 degC
cutoff, and the melt-fraction swing over the settled cycle.
"""

from __future__ import annotations

from dataclasses import dataclass, asdict

import numpy as np

from .geometry import T_AMB_C, Case
from .solver import DEFAULT_DT, ThermalHistory, simulate

CUTOFF_C = 85.0  # temperature limit of dt_85, degC


@dataclass(frozen=True)
class MetricsReport:
    T_o_max: float          # degC
    T_osc: float            # degC
    dt_85: float | None     # s; None means "never"
    dPhi_melt: float        # in [0, 1]
    quasi_steady_cycle: int
    converged: bool

    def to_dict(self) -> dict:
        d = asdict(self)
        if d["dt_85"] is None:
            d["dt_85"] = "never"
        return d


def _interp_crossing(t: np.ndarray, trace: np.ndarray, cutoff: float,
                     t0: float, T0: float) -> float | None:
    """First time trace reaches cutoff, linearly interpolated."""
    above = trace >= cutoff
    if not above.any():
        return None
    i = int(np.argmax(above))
    t_prev = t[i - 1] if i > 0 else t0
    T_prev = trace[i - 1] if i > 0 else T0
    if trace[i] == T_prev:
        return float(t[i])
    frac = (cutoff - T_prev) / (trace[i] - T_prev)
    return float(t_prev + frac * (t[i] - t_prev))


def compute_metrics(history: ThermalHistory) -> MetricsReport:
    """Reduce a history to the four evaluation metrics.

    T_osc and dPhi_melt are taken over the last full simulated cycle, which
    follows quasi-steady detection when the run terminated early.
    """
    if history.n_cycles < 1:
        raise ValueError("history shorter than one full cycle")
    if history.n_cycles < 2 and not history.converged:
        raise ValueError("need >= 2 full cycles or a converged early exit")

    sl = history.cycle_slice(history.n_cycles - 1)
    last_T = history.T_max[sl]
    last_phi = history.phi_mean[sl]
    dt85 = _interp_crossing(history.t, history.T_max, CUTOFF_C,
                            t0=0.0, T0=T_AMB_C)
    return MetricsReport(
        T_o_max=float(history.T_max.max()),
        T_osc=float(last_T.max() - last_T.min()),
        dt_85=dt85,
        dPhi_melt=float(last_phi.max() - last_phi.min()),
        quasi_steady_cycle=int(history.quasi_steady_cycle),
        converged=bool(history.converged),
    )


def simulate_metrics(case: Case, dt: float = DEFAULT_DT) -> MetricsReport:
    """Convenience wrapper: run the transient at step dt and reduce it."""
    return compute_metrics(simulate(case, dt=dt))
