import os
import re
import subprocess
import sys
import time
from dataclasses import asdict, replace
from pathlib import Path

import numpy as np
import pytest
from scipy.linalg.lapack import dpbtrs

from pcmopt.geometry import PCM, Case, PowerProfile, UnitCellSpec
from pcmopt.materials import builtin_material
from pcmopt.metrics import compute_metrics
from pcmopt import network, solver
from pcmopt.network import NetworkModel
import pcmopt
from pcmopt.solver import (COARSE, MAX_STEP_RESIDUAL, PHASES,
                           QUASI_STEADY_TOL, SolverDivergence, _factor_band,
                           _Integrator, build_case_network, simulate)
from pcmopt.studies import property_case

from helpers import steady_state

COARSE_CELL = UnitCellSpec(dx=COARSE.dx)


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


def test_steady_state_h_dependence_follows_oracle(monkeypatch):
    q = 100e3
    monkeypatch.setattr(network, "H_CONV", 1000.0)
    T = steady_state(Case(cell=UnitCellSpec(no_channel=True)), q)
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
    # unpowered, no energy term is large: the steps' floors scale the
    # roundoff (divided by a zero e_in, it read 2.07e20)
    idle = simulate(Case(cell=COARSE_CELL, power=PowerProfile(q0=0.0,
                                                            duration=10.0)),
                    dt=COARSE.dt)
    assert idle.energy_residual < MAX_STEP_RESIDUAL


@pytest.mark.parametrize("q0,h", [(60e3, 500.0), (100e3, 250.0),
                                  (140e3, 800.0)])
def test_transient_invariants_across_conditions(q0, h, monkeypatch):
    monkeypatch.setattr(network, "H_CONV", h)
    hist = simulate(Case(cell=COARSE_CELL, power=PowerProfile(q0=q0)),
                    dt=COARSE.dt)
    assert hist.energy_residual < 1e-4
    assert hist.T_max.min() >= 26.85 - 1e-9
    assert np.all((hist.phi_mean >= -1e-12) & (hist.phi_mean <= 1 + 1e-12))


def test_peak_temperature_monotone_in_power():
    peaks = []
    for q0 in (80e3, 100e3, 120e3):
        case = Case(cell=COARSE_CELL, power=PowerProfile(q0=q0))
        peaks.append(simulate(case, dt=COARSE.dt).T_max.max())
    assert peaks[0] < peaks[1] < peaks[2]


def test_unmeltable_pcm_equals_plain_solid():
    """A PCM that never reaches T_m must behave as its solid phase."""
    solder = builtin_material("Solder174")
    never = replace(solder, T_m=500.0)
    inert = replace(never, is_pcm=False, L_H=0.0)
    case_pcm = Case(cell=COARSE_CELL, pcm=never)
    case_solid = Case(cell=COARSE_CELL, pcm=inert)
    h1 = simulate(case_pcm, dt=COARSE.dt)
    h2 = simulate(case_solid, dt=COARSE.dt)
    n = min(h1.T_max.size, h2.T_max.size)
    assert np.allclose(h1.T_max[:n], h2.T_max[:n], atol=1e-9)
    assert np.allclose(h1.phi_mean, 0.0)


def test_silicon_filled_channel_runs_as_the_solid_baseline():
    """A channel filled with a material that never melts builds no melt
    state; filled with silicon, it is the no_channel cell, bit for bit."""
    case = Case(cell=COARSE_CELL, pcm=builtin_material("Silicon"))
    _, net = build_case_network(case)
    assert not net.pcm.is_pcm
    assert net.pcm_nodes.size == 0
    h = simulate(case, dt=COARSE.dt)
    base = simulate(Case(cell=replace(COARSE_CELL, no_channel=True)),
                    dt=COARSE.dt)
    for key in ("t", "T_max", "phi_mean"):
        assert np.array_equal(getattr(h, key), getattr(base, key))
    assert h.n_factorizations == base.n_factorizations


@pytest.mark.parametrize("change,violation", [
    ({"L_H": -1000.0}, "L_H"),
    ({"k_solid": 0.0, "k_liquid": 0.0}, "k_solid"),
    ({"rho_solid": 0.0}, "rho_solid"),
    ({"cp_solid": 0.0}, "cp_solid"),
], ids=["negative_L_H", "zero_k", "zero_rho_solid", "zero_cp_solid"])
def test_invalid_pcm_override_is_rejected(change, violation):
    solder = builtin_material("Solder174")
    with pytest.raises(ValueError, match=violation):
        replace(solder, **change)
    with pytest.raises(ValueError, match=f"case pcm: .*{violation}"):
        Case.from_dict({"pcm": {**asdict(solder), **change}})


def test_reference_runs_match_recorded_values(solder_history, solder_metrics,
                                             baseline_history,
                                             baseline_metrics):
    """5 um, 10 ms transients against the values the sparse-LU stepper
    recorded (bench/oracle.json), with the run's own counters."""
    assert solder_history.t.size == 3300
    assert solder_history.n_factorizations == 2849
    assert solder_metrics.T_o_max == pytest.approx(79.42590782665373, abs=1e-6)
    assert solder_metrics.T_osc == pytest.approx(6.17521111674688, abs=1e-6)
    assert baseline_history.t.size == 800
    assert baseline_history.n_factorizations == 1
    assert baseline_metrics.T_o_max == pytest.approx(97.68125934945314,
                                                     abs=1e-6)
    assert baseline_metrics.T_osc == pytest.approx(41.57354567459051, abs=1e-6)
    assert baseline_metrics.dt_85 == pytest.approx(0.4919803014702346,
                                                   abs=1e-6)
    for h in (solder_history, baseline_history):
        assert 0.0 < h.worst_step_residual <= MAX_STEP_RESIDUAL


def test_factorization_rejects_indefinite_matrix():
    # [[1, 2], [2, 1]] in upper band storage: eigenvalues 3 and -1
    band = np.array([[0.0, 2.0], [1.0, 1.0]])
    with pytest.raises(SolverDivergence, match="not positive definite"):
        _factor_band(band)


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_a_non_finite_solve_raises(monkeypatch):
    # each value, on a non-PCM node and on a PCM node (where it passes
    # through the enthalpy correction), fails the first step's check
    _, net = build_case_network(Case(cell=COARSE_CELL))
    assert not net.is_pcm[7]
    for node in (7, net.pcm_nodes[0]):
        for value in (np.inf, -np.inf, np.nan):
            def non_finite(chol, rhs, *args):
                T, info = dpbtrs(chol, rhs, *args)
                T[node] = value
                return T, info

            monkeypatch.setattr(pcmopt.solver, "dpbtrs", non_finite)
            with pytest.raises(SolverDivergence,
                               match=r"non-finite temperature at t=0\.025 s"):
                simulate(Case(cell=COARSE_CELL), dt=COARSE.dt)


def test_a_step_that_breaks_the_energy_balance_raises(monkeypatch):
    # a solve 1e-5 K off everywhere leaves a ~1e-5 per-step residual
    def shifted(chol, rhs, *args):
        T, info = dpbtrs(chol, rhs, *args)
        return T + 1e-5, info

    monkeypatch.setattr(pcmopt.solver, "dpbtrs", shifted)
    with pytest.raises(SolverDivergence,
                       match=r"per-step energy residual 1\.\d+e-05 exceeds "
                             r"1\.0e-06"):
        simulate(Case(cell=COARSE_CELL), dt=COARSE.dt)


def test_early_exit_history_covers_settled_cycles(baseline_history):
    h = baseline_history
    assert h.converged
    # the run stops after the third matching cycle pair
    assert h.n_cycles == h.quasi_steady_cycle + 2
    m = compute_metrics(h)
    assert m.quasi_steady_cycle == h.quasi_steady_cycle


def test_settled_metrics_lie_near_the_long_run_limit(monkeypatch):
    """The settle rule's truncation error, bounded for one case only: the
    T_m 77 degC property case at 10 um and 25 ms settles within
    QUASI_STEADY_TOL of a 200-cycle run in T_o_max, and within twice it in
    T_osc (measured: 0.0 and 0.0102 degC). The bound does not hold in
    general: Solder 174 at 5 um and 10 ms settles with T_osc off by
    0.038 degC, 3.8 times the tolerance."""
    case = property_case({"T_m_C": 77.0}, cell=COARSE_CELL)
    settled = compute_metrics(simulate(case, dt=COARSE.dt))
    assert settled.converged
    monkeypatch.setattr(solver, "settled", lambda extrema, tol: False)
    long = simulate(replace(case, power=replace(case.power, duration=200.0)),
                    dt=COARSE.dt)
    assert long.n_cycles == 200 and not long.converged
    limit = compute_metrics(long)
    assert abs(settled.T_o_max - limit.T_o_max) <= QUASI_STEADY_TOL
    assert abs(settled.T_osc - limit.T_osc) <= 2 * QUASI_STEADY_TOL


def test_dt_must_divide_the_cycle():
    # 0.2 s divides the period but not the 0.5 s on-time; 1e300 and inf
    # leave both phases no whole step
    for dt in (0.03, 0.2, 0.0, -0.025, 1e300, float("inf")):
        with pytest.raises(ValueError, match="dt"):
            simulate(Case(cell=COARSE_CELL), dt=dt)


def test_snapshot_every_must_be_a_positive_integer():
    # 0 took no snapshot, -1 one per step and 2.5 every fifth step
    for every in (0, -1, 2.5, True, "40"):
        message = f"snapshot_every must be a positive integer, got {every!r}"
        with pytest.raises(ValueError, match=re.escape(message)):
            simulate(Case(cell=COARSE_CELL), dt=COARSE.dt,
                     snapshot_every=every)
    # any integer type, before the step is checked
    with pytest.raises(ValueError, match="dt must divide"):
        simulate(Case(cell=COARSE_CELL), dt=0.03, snapshot_every=np.int64(40))


def test_snapshots_have_field_shapes():
    case = Case(cell=COARSE_CELL, power=PowerProfile(duration=2.0))
    h = simulate(case, dt=COARSE.dt, snapshot_every=40)
    assert len(h.snapshots) == 2
    t, T, phi = h.snapshots[0]
    assert t == pytest.approx(1.0)
    assert phi.shape == (30, 5)
    assert T.size == 150


def system_band(net, phi, dt=0.01):
    """C/dt + G at the PCM melt fractions phi, in upper band storage."""
    band = net.conductance_matrix(phi)
    C = net.solid_capacitance.copy()
    C[net.pcm_nodes] = net.capacitance(phi)
    band[-1] += C / dt
    return band


def first_factorization(net, dt=0.01):
    """A freshly built integrator, factored at all-solid phi, and the U12
    slots of its factor: the band slots of the first trailing columns that
    hold rows above the block."""
    stepper = _Integrator(net, dt, 0.0)
    chol, start = stepper._factor.chol, net.melt_block_start
    kd = chol.shape[0] - 1
    r, c = np.indices(chol[:, start:start + kd].shape)
    return stepper, r < kd - c


@pytest.mark.parametrize("cell", [
    UnitCellSpec(), UnitCellSpec(dx=10e-6), UnitCellSpec(dx=2.5e-6),
    UnitCellSpec(H=200e-6), UnitCellSpec(W=100e-6),
    UnitCellSpec(no_channel=True)],
    ids=["5um", "10um", "2.5um", "full_height", "full_width", "no_channel"])
def test_trailing_refactor_matches_full_factorization(cell):
    _, net = build_case_network(Case(cell=cell))
    n_pcm = net.pcm_nodes.size
    start = net.melt_block_start
    stepper, above = first_factorization(net)
    chol = stepper._factor.chol
    kd = chol.shape[0] - 1
    u12 = chol[:, start:start + kd][above].copy()
    b = np.random.default_rng(0).uniform(1.0, 2.0, net.n_nodes)
    for phi in (np.linspace(0.0, 1.0, n_pcm), np.ones(n_pcm)):
        stepper.phi = phi
        stepper._rebuild()
        stepper._factor.refactor()
        assert stepper._factor.chol is chol
        assert np.array_equal(chol[:, start:start + kd][above], u12)
        x, _ = dpbtrs(chol, b)
        expect, _ = dpbtrs(_factor_band(system_band(net, phi)), b)
        assert np.max(np.abs(x - expect)) <= 1e-12 * np.max(np.abs(expect))


@pytest.mark.parametrize("cell", [
    UnitCellSpec(), UnitCellSpec(dx=10e-6), UnitCellSpec(dx=2.5e-6),
    UnitCellSpec(H=200e-6), UnitCellSpec(W=100e-6)],
    ids=["5um", "10um", "2.5um", "full_height", "full_width"])
def test_rebuild_writes_the_full_path_trailing_block(cell):
    """A rebuild's trailing columns are those of C/dt + G from the full
    band, less S = U12^T U12 in the block, with U12 above it."""
    _, net = build_case_network(Case(cell=cell))
    n_pcm = net.pcm_nodes.size
    start = net.melt_block_start
    stepper, above = first_factorization(net)
    chol = stepper._factor.chol
    kd, w = above.shape[0] - 1, above.shape[1]
    u12 = chol[:, start:start + w][above].copy()
    # S from U12 (rows start - kd .. start - 1), dense
    r, c = np.indices(above.shape)
    U12 = np.zeros((kd, w))
    U12[(c + r)[above], c[above]] = u12
    S = U12.T @ U12
    for phi in (np.linspace(0.0, 1.0, n_pcm), np.ones(n_pcm)):
        stepper.phi = phi
        tail = stepper._rebuild()
        assert tail.shape == (kd + 1, net.n_nodes - start)
        assert np.shares_memory(tail, chol)
        expect = system_band(net, phi)[:, start:]
        head = expect[:, :w]
        head[~above] -= S[(c - kd + r)[~above], c[~above]]
        head[above] = u12
        assert np.array_equal(tail[:-1], expect[:-1])
        assert np.max(np.abs(tail[-1] - expect[-1])
                      / np.abs(expect[-1])) <= 1e-13
        stepper._factor.refactor()
        assert stepper._factor.chol is chol
        assert np.array_equal(chol[:, start:start + w][above], u12)


def test_integrator_is_factored_when_built(monkeypatch):
    calls = []
    build = NetworkModel.conductance_matrix
    monkeypatch.setattr(NetworkModel, "conductance_matrix",
                        lambda net, *a: calls.append(a) or build(net, *a))
    _, net = build_case_network(Case(cell=COARSE_CELL))
    stepper = _Integrator(net, COARSE.dt, 100e3)
    assert stepper.n_factorizations == 1
    assert len(calls) == 1
    assert stepper.phase_s["factor"] > 0.0
    # the first step solves with that factor: nothing has melted yet
    stepper.cycle(1, np.empty(1), np.empty((1, net.n_nodes)),
                  np.empty((1, net.pcm_nodes.size)))
    assert stepper.n_factorizations == 1
    assert len(calls) == 1


def test_one_matrix_build_per_factorization(monkeypatch):
    calls = []
    build = NetworkModel.conductance_matrix

    def counted(net, *args, **kwargs):
        calls.append(args)
        return build(net, *args, **kwargs)

    monkeypatch.setattr(NetworkModel, "conductance_matrix", counted)
    h = simulate(Case(cell=COARSE_CELL), dt=COARSE.dt)
    assert 1 < h.n_factorizations < h.t.size
    assert len(calls) == h.n_factorizations


def test_phase_times_cover_the_run():
    # the solid baseline, and Solder 174, which refactors as it melts
    for cell in (UnitCellSpec(no_channel=True, dx=COARSE.dx), COARSE_CELL):
        case = Case(cell=cell, power=PowerProfile(duration=20.0))
        t0 = time.perf_counter()
        h = simulate(case, dt=COARSE.dt)
        wall = time.perf_counter() - t0
        assert tuple(h.phase_s) == PHASES
        assert all(v >= 0.0 for v in h.phase_s.values())
        assert sum(h.phase_s.values()) <= wall
        if cell.no_channel:
            # one factorization, against one solve per step
            assert h.n_factorizations == 1
            assert 0.0 < h.phase_s["factor"] < h.phase_s["solve"]
        else:
            assert h.n_factorizations > 1
            assert h.phase_s["rebuild"] > 0.0 and h.phase_s["factor"] > 0.0


def test_cycle_reductions_match_each_steps_fields():
    # Solder 174 melts and refreezes at 10 um: phi_mean moves every cycle
    case = Case(cell=COARSE_CELL, power=PowerProfile(duration=3.0))
    h = simulate(case, dt=COARSE.dt, snapshot_every=1)
    _, net = build_case_network(case)
    assert len(h.snapshots) == h.t.size == 120
    for i, (t, T, phi) in enumerate(h.snapshots):
        assert t == h.t[i]
        assert h.T_max[i] == T.max()
        # summed in node order, as the solver holds phi
        phi_pcm = phi[::-1].ravel()[net.pcm_nodes]
        assert h.phi_mean[i] == phi_pcm.sum() / net.pcm_nodes.size
    assert all(0.0 < h.phi_mean[h.cycle_slice(c)].max() < 1.0
               for c in range(h.n_cycles))


def test_snapshot_fields_keep_the_mesh_orientation():
    # Cerrolow 117 (T_m 47 degC) melts through within the first pulse
    case = Case(cell=COARSE_CELL, power=PowerProfile(duration=1.0),
                pcm=builtin_material("Cerrolow117"))
    h = simulate(case, dt=COARSE.dt, snapshot_every=20)
    mesh, _ = build_case_network(case)
    t, T, phi = h.snapshots[0]
    assert t == pytest.approx(0.5)
    assert T.shape == phi.shape == (mesh.ny, mesh.nx)
    n_cap, n_h, n_w = 5, 10, 2  # 50, 100 and 25 um at 10 um voxels
    channel = np.zeros(phi.shape, dtype=bool)
    channel[n_cap:n_cap + n_h, :n_w] = True
    assert np.all((mesh.labels == PCM) == channel)
    assert np.all(phi[channel] > 0.0)
    assert np.all(phi[~channel] == 0.0)
    # at the end of the pulse the heated source row is the hottest
    assert int(np.argmax(T.max(axis=1))) == mesh.source_row


def run_fresh_python(code: str) -> str:
    """Standard output of code run in a new interpreter on this pcmopt."""
    src = str(Path(pcmopt.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": src}
    return subprocess.run([sys.executable, "-c", code], env=env, check=True,
                          capture_output=True, text=True, timeout=120).stdout


def test_a_run_imports_neither_scipy_linalg_nor_a_process_pool():
    out = run_fresh_python("""
import sys
import pcmopt
pcmopt.simulate(pcmopt.Case(cell=pcmopt.UnitCellSpec(dx=10e-6,
                                                     no_channel=True)))
print([m for m in ("scipy.linalg", "concurrent.futures.process")
       if m in sys.modules])
""")
    assert out == "[]\n"


@pytest.mark.parametrize("first", ["pcmopt.solver", "scipy.linalg.lapack"])
def test_solver_calls_scipys_own_lapack_routines(first):
    out = run_fresh_python(f"""
import importlib
importlib.import_module({first!r})
import pcmopt.solver as solver
import scipy.linalg.lapack as lapack
print(solver.dpbtrf is lapack.dpbtrf, solver.dpbtrs is lapack.dpbtrs)
""")
    assert out == "True True\n"


@pytest.mark.skipif(solver._openblas is None,
                    reason="scipy bundles no OpenBLAS; the platform's BLAS "
                           "keeps its own thread count")
@pytest.mark.parametrize("diverges", [False, True])
def test_band_routines_run_on_one_blas_thread(diverges, monkeypatch):
    """Every dpbtrf and dpbtrs call of a run sees one OpenBLAS thread, and
    the caller's count is back after the run, also after one that raises."""
    blas = solver._openblas
    threads = blas.scipy_openblas_get_num_threads
    seen = {"dpbtrf": [], "dpbtrs": []}

    def recording(name, routine):
        def call(*args):
            seen[name].append(threads())
            out, info = routine(*args)
            if diverges and name == "dpbtrs":
                out[0] = np.nan
            return out, info
        return call

    for name in seen:
        monkeypatch.setattr(solver, name,
                            recording(name, getattr(solver, name)))
    caller = threads()
    blas.scipy_openblas_set_num_threads(3)
    try:
        if diverges:
            with pytest.raises(SolverDivergence, match="non-finite"):
                simulate(Case(cell=COARSE_CELL), dt=COARSE.dt)
        else:
            simulate(Case(cell=COARSE_CELL), dt=COARSE.dt)
        after = threads()
    finally:
        blas.scipy_openblas_set_num_threads(caller)
    assert after == 3
    assert all(seen.values())
    assert {n for calls in seen.values() for n in calls} == {1}
