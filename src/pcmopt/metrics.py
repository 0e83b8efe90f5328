"""Evaluation metrics reduced from a thermal history, plus the +/-10%
property sensitivity study.

Metrics: overall maximum chip temperature, peak-to-peak oscillation of the
maximum-temperature trace over the settled cycle, time to the 85 degC
cutoff, and the melt-fraction swing over the settled cycle.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, asdict, replace as dc_replace

import numpy as np

from .geometry import Case
from .materials import Material
from .solver import ThermalHistory, resolve_pcm, simulate

DEFAULT_CUTOFF_C = 85.0


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

    def to_json(self) -> str:
        return json.dumps(self.to_dict())

    @classmethod
    def from_dict(cls, d: dict) -> "MetricsReport":
        d = dict(d)
        if d.get("dt_85") == "never":
            d["dt_85"] = None
        return cls(**d)


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


def compute_metrics(history: ThermalHistory,
                    cutoff: float = DEFAULT_CUTOFF_C) -> MetricsReport:
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
    dt85 = _interp_crossing(history.t, history.T_max, cutoff,
                            t0=0.0, T0=history.T_amb_C)
    return MetricsReport(
        T_o_max=float(history.T_max.max()),
        T_osc=float(last_T.max() - last_T.min()),
        dt_85=dt85,
        dPhi_melt=float(last_phi.max() - last_phi.min()),
        quasi_steady_cycle=int(history.quasi_steady_cycle),
        converged=bool(history.converged),
    )


def simulate_metrics(case: Case, cutoff: float = DEFAULT_CUTOFF_C,
                     **sim_kwargs) -> MetricsReport:
    """Convenience wrapper: run the transient and reduce it."""
    return compute_metrics(simulate(case, **sim_kwargs), cutoff=cutoff)


#: Properties perturbed by the sensitivity study.
SENSITIVITY_PROPERTIES = ("T_m", "L_H", "k", "cp_solid", "cp_liquid")


def _perturbed_material(base: Material, prop: str, factor: float,
                        T_amb_C: float) -> Material:
    if prop == "T_m":
        # scale the melt superheat above ambient, not T_m itself
        return dc_replace(base, T_m=T_amb_C + factor * (base.T_m - T_amb_C))
    if prop == "k":
        return dc_replace(base, k_solid=factor * base.k_solid,
                          k_liquid=factor * base.k_liquid)
    return dc_replace(base, **{prop: factor * getattr(base, prop)})


def sensitivity(base_case: Case, properties=SENSITIVITY_PROPERTIES,
                perturbation: float = 0.10,
                **sim_kwargs) -> dict[str, dict[str, float]]:
    """Mean absolute metric shift under +/-perturbation of each property.

    Returns {property: {"dT_o_max": ..., "dT_osc": ...}} where each value is
    the average over the up and down perturbations of |metric - base|.
    """
    base_mat = resolve_pcm(base_case)
    if base_mat is None or not base_mat.is_pcm:
        raise ValueError("sensitivity needs a case with a PCM channel")
    base = simulate_metrics(base_case, **sim_kwargs)
    T_amb_C = base_case.boundary.T_amb_C

    out = {}
    for prop in properties:
        deltas_max, deltas_osc = [], []
        for factor in (1.0 + perturbation, 1.0 - perturbation):
            mat = _perturbed_material(base_mat, prop, factor, T_amb_C)
            case = dc_replace(base_case, pcm_override=mat.to_dict())
            m = simulate_metrics(case, **sim_kwargs)
            deltas_max.append(abs(m.T_o_max - base.T_o_max))
            deltas_osc.append(abs(m.T_osc - base.T_osc))
        out[prop] = {
            "dT_o_max": float(np.mean(deltas_max)),
            "dT_osc": float(np.mean(deltas_osc)),
        }
    return out
