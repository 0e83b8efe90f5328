from dataclasses import replace

import numpy as np
import pytest

from pcmopt.geometry import Case, PowerProfile, UnitCellSpec
from pcmopt.materials import builtin_material
from pcmopt.metrics import compute_metrics
from pcmopt.solver import build_case_network, simulate, steady_state

COARSE = UnitCellSpec(dx=10e-6)


def two_path_interface_temperature(q, h=500.0, T_amb_C=26.85):
    """1-D series-resistance estimate of the heated-interface temperature.

    Heat leaves through two parallel paths: up through the alumina layer and
    down through the device + cap silicon, each ending in convection.
    """
    R_up = 50e-6 / 30.0 + 1.0 / h
    R_down = (200e-6 + 50e-6) / 130.0 + 1.0 / h
    R = R_up * R_down / (R_up + R_down)
    return T_amb_C + q * R


def test_zero_power_is_a_fixed_point():
    case = Case(cell=UnitCellSpec(no_channel=True),
                power=PowerProfile(q0=0.0, duration=5.0))
    h = simulate(case)
    assert np.allclose(h.T_max, 26.85, atol=1e-9)
    assert np.allclose(h.phi_mean, 0.0)


def test_steady_state_matches_series_resistance_oracle():
    case = Case(cell=UnitCellSpec(no_channel=True))
    q = 100e3
    T = steady_state(case, q)
    # uniform columns: the 2-D field must be 1-D
    assert np.allclose(T, T[:, :1], atol=1e-9)
    mesh, _ = build_case_network(case)
    assert int(np.argmax(T.max(axis=1))) == mesh.source_row
    expect = two_path_interface_temperature(q)
    assert T.max() == pytest.approx(expect, rel=0.005)


def test_steady_state_h_dependence_follows_oracle():
    q = 100e3
    case = Case(cell=UnitCellSpec(no_channel=True),
                boundary=replace(Case().boundary, h=1000.0))
    T = steady_state(case, q)
    assert T.max() == pytest.approx(
        two_path_interface_temperature(q, h=1000.0), rel=0.005)


def test_steady_state_is_linear_in_flux():
    case = Case(cell=UnitCellSpec(no_channel=True))
    T1 = steady_state(case, 50e3)
    T2 = steady_state(case, 100e3)
    assert np.allclose(T2 - 26.85, 2.0 * (T1 - 26.85), rtol=1e-9)


def test_steady_state_grid_convergence():
    coarse = steady_state(Case(cell=UnitCellSpec(no_channel=True)), 100e3)
    fine = steady_state(
        Case(cell=UnitCellSpec(no_channel=True, dx=2.5e-6)), 100e3)
    assert fine.max() == pytest.approx(coarse.max(), rel=0.005)


def test_time_step_halving_changes_little(baseline_history):
    case = Case(cell=UnitCellSpec(no_channel=True))
    fine = simulate(case, dt=0.005)
    assert fine.T_max.max() == pytest.approx(
        baseline_history.T_max.max(), abs=0.5)


def test_energy_balance_on_reference_cases(baseline_history, solder_history):
    assert baseline_history.energy_residual < 1e-4
    assert solder_history.energy_residual < 1e-4


@pytest.mark.parametrize("q0,h", [(60e3, 500.0), (100e3, 250.0),
                                  (140e3, 800.0)])
def test_transient_invariants_across_conditions(q0, h):
    case = Case(cell=COARSE, power=PowerProfile(q0=q0),
                boundary=replace(Case().boundary, h=h))
    hist = simulate(case, dt=0.025)
    assert hist.energy_residual < 1e-4
    assert hist.T_max.min() >= 26.85 - 1e-9
    assert np.all((hist.phi_mean >= -1e-12) & (hist.phi_mean <= 1 + 1e-12))


def test_peak_temperature_monotone_in_power():
    peaks = []
    for q0 in (80e3, 100e3, 120e3):
        case = Case(cell=COARSE, power=PowerProfile(q0=q0))
        peaks.append(simulate(case, dt=0.025).T_max.max())
    assert peaks[0] < peaks[1] < peaks[2]


def test_unmeltable_pcm_equals_plain_solid():
    """A PCM that never reaches T_m must behave as its solid phase."""
    solder = builtin_material("Solder174")
    never = replace(solder, T_m=500.0)
    inert = replace(never, is_pcm=False, L_H=0.0)
    case_pcm = Case(cell=COARSE, pcm_override=never.to_dict())
    case_solid = Case(cell=COARSE, pcm_override=inert.to_dict())
    h1 = simulate(case_pcm, dt=0.025)
    h2 = simulate(case_solid, dt=0.025)
    n = min(h1.T_max.size, h2.T_max.size)
    assert np.allclose(h1.T_max[:n], h2.T_max[:n], atol=1e-9)
    assert np.allclose(h1.phi_mean, 0.0)


@pytest.mark.parametrize("change,violation", [
    ({"L_H": -1000.0}, "L_H"),
    ({"k_solid": 0.0, "k_liquid": 0.0}, "k_solid"),
    ({"rho_solid": 0.0}, "rho_solid"),
    ({"cp_solid": 0.0}, "cp_solid"),
], ids=["negative_L_H", "zero_k", "zero_rho_solid", "zero_cp_solid"])
def test_invalid_pcm_override_is_rejected(change, violation):
    bad = replace(builtin_material("Solder174"), **change)
    case = Case(cell=COARSE, pcm_override=bad.to_dict())
    with pytest.raises(ValueError, match=violation):
        simulate(case, dt=0.025)


def test_early_exit_history_covers_settled_cycles(baseline_history):
    h = baseline_history
    assert h.converged
    # the run stops after the third matching cycle pair
    assert h.n_cycles == h.quasi_steady_cycle + 2
    m = compute_metrics(h)
    assert m.quasi_steady_cycle == h.quasi_steady_cycle


def test_dt_must_divide_the_cycle():
    for dt in (0.03, 0.0, -0.025):
        with pytest.raises(ValueError, match="dt"):
            simulate(Case(cell=COARSE), dt=dt)


def test_snapshots_have_field_shapes():
    case = Case(cell=COARSE, power=PowerProfile(duration=2.0))
    h = simulate(case, dt=0.025, snapshot_every=40)
    assert len(h.snapshots) == 2
    t, T, phi = h.snapshots[0]
    assert t == pytest.approx(1.0)
    assert phi.shape == (30, 5)
    assert T.size == 150
