import re
from dataclasses import replace

import numpy as np
import pytest

from pcmopt import solver
from pcmopt.geometry import PERIOD, Case, PowerProfile, UnitCellSpec
from pcmopt.metrics import compute_metrics
from pcmopt.solver import COARSE, ThermalHistory, settled, simulate
from pcmopt.studies import sensitivity


def make_history(cycle_max, cycle_min, steps=10, converged=True, quasi=1,
                 phi_cycles=None):
    """Synthetic sawtooth history: each cycle ramps min -> max linearly."""
    cycle_max = np.asarray(cycle_max, dtype=float)
    cycle_min = np.asarray(cycle_min, dtype=float)
    trace = np.concatenate([np.linspace(m, M, steps)
                            for m, M in zip(cycle_min, cycle_max)])
    if phi_cycles is None:
        phi = np.zeros(trace.size)
    else:
        phi = np.concatenate([np.linspace(a, b, steps)
                              for a, b in phi_cycles])
    dt = PERIOD / steps
    t = dt * np.arange(1, trace.size + 1)
    return ThermalHistory(t=t, T_max=trace, phi_mean=phi, dt=dt,
                          quasi_steady_cycle=quasi, converged=converged)


def enumerate_first_settled(cycle_max, cycle_min, tol=0.01):
    """Independent reference for the detection rule: first cycle n whose
    comparison with n-1 starts three consecutive passing comparisons."""
    ok = [abs(a - b) < tol and abs(c - d) < tol
          for a, b, c, d in zip(cycle_max[1:], cycle_max[:-1],
                                cycle_min[1:], cycle_min[:-1])]
    run = 0
    for i, good in enumerate(ok):
        run = run + 1 if good else 0
        if run >= 3:
            # ok[i] compares cycle i+2 with i+1 (1-based); the run of three
            # started at ok[i-2], whose later cycle is cycle i
            return i, True
    return len(cycle_max), False


def detect(cycle_max, cycle_min, tol=0.01):
    """Feed per-cycle extrema to the solver's settle rule, stop at its
    first true result and report (settled cycle, True) as simulate does,
    or (cycles fed, False)."""
    extrema = []
    for hi, lo in zip(cycle_max, cycle_min):
        extrema.append((hi, lo))
        if settled(extrema, tol):
            return len(extrema) - 2, True
    return len(extrema), False


def test_exactly_periodic_sawtooth_settles_at_cycle_two():
    assert detect([50.0] * 6, [30.0] * 6) == (2, True)


def test_startup_transient_shifts_detection():
    assert detect([40.0, 50.0, 50.0, 50.0, 50.0, 50.0],
                  [25.0, 30.0, 30.0, 30.0, 30.0, 30.0]) == (3, True)


def test_exponentially_settling_trace_settles_near_cycle_35():
    tau, A, n = 5.0, 60.0, 60
    cycles = np.arange(1, n + 1)
    maxima = 90.0 - A * np.exp(-cycles / tau)
    minima = 60.0 - A * np.exp(-cycles / tau)
    got = detect(maxima, minima, tol=0.01)
    expect = enumerate_first_settled(maxima, minima, tol=0.01)
    assert got == expect
    assert got[1]
    assert 33 <= got[0] <= 38


def test_ramping_trace_never_settles():
    maxima = 50.0 + np.arange(8.0)
    cycle, converged = detect(maxima, maxima - 20.0)
    assert not converged
    assert cycle == 8


def test_cannot_settle_before_the_fourth_cycle():
    # cycle 1 has no predecessor, so three matching cycles after it are
    # needed: an exactly periodic run cannot settle before its fourth cycle
    extrema = [(50.0, 30.0)] * 3
    assert not any(settled(extrema[:n], 0.01) for n in range(4))
    assert detect([50.0] * 3, [30.0] * 3) == (3, False)
    assert settled(extrema + [(50.0, 30.0)], 0.01)
    assert detect([50.0] * 4, [30.0] * 4) == (2, True)


def test_metrics_reduce_last_cycle():
    h = make_history([70.0, 90.0, 88.0], [30.0, 40.0, 42.0],
                     phi_cycles=[(0.0, 0.2), (0.1, 0.9), (0.2, 0.8)])
    m = compute_metrics(h)
    assert m.T_o_max == 90.0
    assert m.T_osc == pytest.approx(88.0 - 42.0)
    assert m.dPhi_melt == pytest.approx(0.6)


def test_dt_85_linear_interpolation_between_samples():
    # last cycle samples hit 80 then 90 -> crossing midway
    h = make_history([90.0, 90.0], [80.0, 80.0], steps=2)
    m = compute_metrics(h)
    assert m.dt_85 == pytest.approx(0.75)


def test_dt_85_interpolates_from_ambient_start():
    h = make_history([90.0, 90.0], [88.0, 88.0], steps=2)
    m = compute_metrics(h)
    # first sample (t=0.5 s, 88 degC) already above the cutoff
    assert m.dt_85 == pytest.approx(0.5 * (85.0 - 26.85) / (88.0 - 26.85))


def test_dt_85_never_reached():
    h = make_history([80.0, 80.0], [60.0, 60.0])
    m = compute_metrics(h)
    assert m.dt_85 is None
    assert m.to_dict()["dt_85"] == "never"


def test_metrics_refuse_a_history_shorter_than_one_cycle():
    h = make_history([90.0], [30.0])
    short = replace(h, t=h.t[:-1], T_max=h.T_max[:-1],
                    phi_mean=h.phi_mean[:-1])
    with pytest.raises(ValueError, match="shorter than one full cycle"):
        compute_metrics(short)


def test_metrics_refuse_one_unsettled_cycle():
    case = Case(cell=UnitCellSpec(dx=COARSE.dx),
                power=PowerProfile(duration=1.0))
    h = simulate(case, dt=COARSE.dt)
    assert (h.n_cycles, h.converged) == (1, False)
    with pytest.raises(ValueError, match=r"need >= 2 full cycles or a "
                                         r"converged early exit"):
        compute_metrics(h)


def test_sensitivity_reports_mean_absolute_shift():
    case = Case(cell=UnitCellSpec(dx=COARSE.dx))
    out = sensitivity(case, properties=("T_m", "k"), dt=COARSE.dt)
    assert set(out) == {"T_m", "k"}
    for d in out.values():
        assert d["dT_o_max"] >= 0.0
        assert d["dT_osc"] >= 0.0
    # melt temperature is by far the dominant lever
    assert out["T_m"]["dT_o_max"] > out["k"]["dT_o_max"]
    assert out["T_m"]["dT_osc"] > out["k"]["dT_osc"]


def test_sensitivity_rejects_case_without_pcm():
    with pytest.raises(ValueError, match="PCM"):
        sensitivity(Case(cell=UnitCellSpec(no_channel=True, dx=COARSE.dx)),
                    properties=("T_m",), dt=COARSE.dt)


@pytest.mark.parametrize("properties", [("foo",), (), ("T_m", "k_W_per_mK")],
                         ids=["unknown", "none", "one_unknown"])
def test_sensitivity_refuses_what_it_cannot_perturb(monkeypatch, properties):
    """Before any transient runs, naming what it can perturb: one
    conductivity for both phases, and each numeric material field."""
    monkeypatch.setattr(solver, "simulate", None)  # so no case can run
    with pytest.raises(ValueError, match=re.escape(
            "sensitivity perturbs one or more of ['k', 'T_m', 'rho_solid', "
            "'rho_liquid', 'k_solid', 'k_liquid', 'cp_solid', 'cp_liquid', "
            f"'L_H'], got {properties!r}")):
        sensitivity(Case(cell=UnitCellSpec(dx=COARSE.dx)),
                    properties=properties, dt=COARSE.dt)
