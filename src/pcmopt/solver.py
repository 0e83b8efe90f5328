"""Implicit transient integration of the RC network with fixed-point melting.

Each step is a backward-Euler solve of C dT/dt = -G T + b followed by a
per-node enthalpy correction: any PCM node crossing its melt temperature has
the excess (or deficit) sensible energy converted to latent energy, and is
clamped to T_m while partially melted. Residual enthalpy past a fully
melted/solidified state is returned to sensible temperature within the same
step, so every step balances energy to solver precision.
"""

from __future__ import annotations

import ctypes
import importlib.machinery
import importlib.util
import math
import numbers
import os
import sys
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from itertools import islice
from pathlib import Path

import numpy as np

from .geometry import (PERIOD, T_AMB_C, T_ON, Case, Mesh, UnitCellSpec,
                       build_mesh)
from .materials import check_count, check_field_types
from .network import NetworkModel, assemble_network


def _load_flapack():
    """scipy's compiled LAPACK module, loaded from its file without running
    scipy.linalg's __init__ (~0.3 s of imports the stepper never uses);
    scipy.linalg.lapack re-exports its routines, so these are the very
    objects it exports, and a later scipy.linalg import reuses this module."""
    name = "scipy.linalg._flapack"
    if name in sys.modules:
        return sys.modules[name]
    scipy = importlib.util.find_spec("scipy")  # finds without importing
    if scipy is None:
        raise ImportError("pcmopt needs scipy")
    where = [os.path.join(p, "linalg")
             for p in scipy.submodule_search_locations]
    found = importlib.machinery.PathFinder.find_spec("_flapack", where)
    if found is None:
        raise ImportError(f"no _flapack extension module in {where}")
    spec = importlib.util.spec_from_file_location(name, found.origin)
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module
    spec.loader.exec_module(module)
    return module


_flapack = _load_flapack()
dpbtrf, dpbtrs = _flapack.dpbtrf, _flapack.dpbtrs


def _load_openblas():
    """The OpenBLAS that scipy's wheel bundles and its LAPACK routines run
    in, through ctypes, or None where scipy bundles none."""
    libs = Path(_flapack.__file__).parents[2] / "scipy.libs"
    found = sorted(libs.glob("libscipy_openblas*.so"))
    return ctypes.CDLL(str(found[0])) if found else None


_openblas = _load_openblas()


@contextmanager
def _one_blas_thread():
    """Run the block's band routines on one OpenBLAS thread, and give the
    caller its own count back after it, also when it raises. A band is too
    narrow for threads to pay: one trailing refactor at 2.5 um takes ~7x as
    long on two threads as on one (README, "One BLAS thread"). Where scipy
    bundles no OpenBLAS, the thread count is left to the platform's BLAS."""
    if _openblas is None:
        yield
        return
    threads = _openblas.scipy_openblas_get_num_threads()
    _openblas.scipy_openblas_set_num_threads(1)
    try:
        yield
    finally:
        _openblas.scipy_openblas_set_num_threads(threads)


# Time step of the reference transients, s.
DEFAULT_DT = 0.01
# Settle tolerance on each cycle's extrema, degC (see settled).
QUASI_STEADY_TOL = 0.01
# Largest relative energy residual a single step may leave.
MAX_STEP_RESIDUAL = 1e-6
# The factorization is rebuilt once any melt fraction moves more than this.
REBUILD_TOL = 1e-9


class SolverDivergence(RuntimeError):
    """Non-finite temperatures encountered during integration."""


#: Wall-time phases of a transient, in ThermalHistory.phase_s.
PHASES = ("assemble", "rebuild", "factor", "solve", "enthalpy", "bookkeeping")


@dataclass
class ThermalHistory:
    """Sampled time series of a transient run."""

    t: np.ndarray
    T_max: np.ndarray      # max chip temperature per sample, degC
    phi_mean: np.ndarray   # mean PCM melt fraction per sample
    dt: float
    # settled cycle, or cycles run if unsettled (see simulate)
    quasi_steady_cycle: int | None = None
    converged: bool = False
    # global |in - out - stored| over its scale (see _cycles)
    energy_residual: float = 0.0
    worst_step_residual: float = 0.0  # largest per-step relative residual
    n_factorizations: int = 0  # system-matrix factorizations in the run
    # wall seconds per phase, keyed by PHASES: mesh and network assembly;
    # the melt-fraction test, capacitance update and band rebuild; the
    # factorizations, the first with the _System set-up that builds its
    # band; right-hand side and triangular solves; the enthalpy
    # correction; and the rest (the step loop's other set-up, energy
    # balance, history and cycle-end reductions, settle test)
    phase_s: dict = field(default_factory=dict)
    snapshots: list = field(default_factory=list)  # (t, T field, phi field)

    @property
    def steps_per_cycle(self) -> int:
        return round(PERIOD / self.dt)

    @property
    def n_cycles(self) -> int:
        return self.t.size // self.steps_per_cycle

    def stats(self) -> dict:
        """The run's counters and phase wall times, as JSON-ready values."""
        return {"steps": int(self.t.size), "cycles": self.n_cycles,
                "n_factorizations": self.n_factorizations,
                "worst_step_residual": self.worst_step_residual,
                "energy_residual": self.energy_residual,
                "phase_s": dict(self.phase_s)}

    def cycle_slice(self, cycle: int) -> slice:
        """Sample range of one 0-based cycle."""
        n = self.steps_per_cycle
        return slice(cycle * n, (cycle + 1) * n)


def _factor_band(band: np.ndarray) -> np.ndarray:
    """Banded Cholesky factor of an SPD matrix in upper band storage,
    computed in place when band is Fortran-ordered float64."""
    # positional (lower, ldab, overwrite_ab): f2py parses keywords slowly
    chol, info = dpbtrf(band, 0, band.shape[0], 1)
    if info > 0:
        raise SolverDivergence(
            f"system matrix is not positive definite (leading minor of "
            f"order {info} of {band.shape[1]}); check inputs")
    if info < 0:
        raise SolverDivergence(f"dpbtrf rejected argument {-info}")
    return chol


class _System:
    """C/dt + G of a network at step dt and its banded Cholesky factor
    chol = U (A = U^T U), built and factored with every PCM node solid.
    G and C depend on state only through the melt fractions, and only in
    the trailing columns [melt_block_start, n), so a rebuild rewrites and
    refactors just those (tail, a view of chol).

    With A = [[A11, A12], [A12^T, A22]] and U = [[U11, U12], [0, U22]],
    U11 and U12 depend only on A11 and A12, and U22 is the factor of
    A22 - U12^T U12. The band couples only nx rows across the split, so
    S = U12^T U12 fills just the first nx columns of the trailing block.
    The trailing base is the fixed (phi-independent) part of A's trailing
    columns with S subtracted in the block, and U12 in the slots above it.
    rebuild(phi) copies the base into tail and adds the phi-dependent
    entries there, and refactor() factors them in place.

    C and C_dt hold each node's C and C/dt at the last build, those of
    the PCM nodes kept in work; floor is the balance floor at that build.
    """

    def __init__(self, net: NetworkModel, dt: float):
        self.net = net
        solid = np.zeros(net.pcm_nodes.size)
        self.work = work = net.melt_work(dt)
        np.copyto(work.C, net.capacitance(solid))
        np.divide(work.C, work.dt, out=work.C_dt)
        self.C = net.solid_capacitance.copy()
        self.C_dt = self.C / dt
        self._built()
        band = net.conductance_matrix(solid)
        band[-1] += self.C_dt
        start = net.melt_block_start
        self.chol = _factor_band(band)
        self.tail = self.chol[:, start:]
        kd = band.shape[0] - 1
        w = min(kd, self.tail.shape[1])
        # band row r of trailing column c holds row start + c - kd + r,
        # which lies above the block (in U12) when r < kd - c
        r, c = np.indices((kd + 1, w))
        above = r < kd - c
        # U12 holds rows start - kd .. start - 1; rows before 0 read the
        # band's unused corner, which stays zero
        head = self.tail[:, :w]
        U12 = np.zeros((kd, w))
        U12[(c + r)[above], c[above]] = head[above]
        S = U12.T @ U12
        self._base = net.fixed_band[:, start:].copy(order="F")
        self._base[-1] += np.where(net.is_pcm, 0.0, self.C_dt)[start:]
        base_head = self._base[:, :w]
        base_head[~above] -= S[(c - kd + r)[~above], c[~above]]
        base_head[above] = head[above]

    def _built(self) -> None:
        """Copy the PCM nodes' C and C/dt from work after a build."""
        idx = self.net.pcm_nodes
        self.C[idx] = self.work.C
        self.C_dt[idx] = self.work.C_dt
        # floor of the per-step balance scale: the energy of a uniform
        # millikelvin change, so a quiescent step is not judged by roundoff
        self.floor = 1e-3 * float(np.add.reduce(self.C))

    def rebuild(self, phi: np.ndarray) -> np.ndarray:
        """Write C/dt + G at melt fractions phi into tail, which it
        returns for refactor()."""
        self.tail[...] = self._base
        self.net.conductance_matrix(phi, self.tail, self.work)
        self._built()
        return self.tail

    def refactor(self) -> None:
        """Factor tail in place after rebuild()."""
        if self.tail.size and _factor_band(self.tail) is not self.tail:
            raise RuntimeError("dpbtrf copied the trailing block")


def _cycles(net: NetworkModel, dt: float, q_flux: float, steps_on: int,
            t_rows: np.ndarray, T_rows: np.ndarray, phi_rows: np.ndarray,
            phase_s: dict):
    """Backward-Euler step loop over the state T, phi and stored latent
    energy, from ambient with every PCM node solid.

    The first next() factors the system (see _System) before its first
    step; a step rebuilds and refactors it only when the melt-fraction
    field has moved since the last build. Each next() advances
    len(t_rows) steps, the source on for the first steps_on: step k writes
    its end time to t_rows[k], its temperatures to T_rows[k] and its melt
    fractions to phi_rows[k]. It then sets the rebuild, factor, solve and
    enthalpy wall times of the run so far in phase_s, and yields the
    run's energy residual (|in - out - stored| relative to its largest
    term or, if larger, to the sum of its steps' floors: each step may
    leave roundoff in proportion to its own), its worst per-step residual
    and its factorization count.
    """
    clock = time.perf_counter
    t0 = clock()
    system = _System(net, dt)
    s_factor = clock() - t0
    s_rebuild = s_solve = s_enthalpy = 0.0
    factorizations = 1
    count_nonzero, absolute = np.count_nonzero, np.abs
    minimum, maximum = np.minimum, np.maximum
    add_reduce, dot, isfinite = np.add.reduce, np.dot, math.isfinite
    solve = dpbtrs  # looked up per run, so it can be replaced
    rebuild, refactor = system.rebuild, system.refactor
    chol = system.chol
    ldab = chol.shape[0]
    idx = net.pcm_nodes
    melts = idx.size > 0
    # per-PCM-node constants: array operands are cheaper than floats
    tol = np.full(idx.size, REBUILD_TOL)
    T_m = np.full(idx.size, net.pcm.T_m)
    zero = np.zeros(idx.size)
    cap = net.latent_capacity
    C, C_dt, Cp = system.C, system.C_dt, system.work.C
    # right-hand side and interface energy of the on and off phases
    b_off = net.ambient_vector()
    b_on = net.source_vector(q_flux) + b_off
    e_on = q_flux * net.width * dt  # J (unit depth)
    conv_nodes, conv_G = net.conv_nodes, net.conv_G
    conv_G_T_amb = float(np.sum(conv_G)) * T_AMB_C
    T = np.full(net.n_nodes, T_AMB_C)
    # a step replaces phi, never writes it
    phi = phi_built = np.zeros(idx.size)
    latent = np.zeros(idx.size)  # absorbed latent, J
    floor = system.floor
    # run totals; floors sums the steps' balance floors
    now = worst = total_in = total_out = stored = floors = 0.0
    while True:
        for k in range(t_rows.size):
            heating = k < steps_on
            t0 = clock()
            moved = melts and count_nonzero(absolute(phi - phi_built) > tol)
            if moved:
                rebuild(phi)
                phi_built, floor = phi, system.floor
            t1 = clock()
            s_rebuild += t1 - t0
            if moved:
                refactor()
                factorizations += 1
                t0, t1 = t1, clock()
                s_factor += t1 - t0

            rhs = C_dt * T
            rhs += b_on if heating else b_off
            # positional (lower, ldab, overwrite_b): see _factor_band
            T_new, _ = solve(chol, rhs, 0, ldab, 1)
            e_out = (float(dot(conv_G, T_new[conv_nodes]))
                     - conv_G_T_amb) * dt
            t0, t1 = t1, clock()
            s_solve += t1 - t0

            e_lat = 0.0
            if melts:
                excess = Cp * (T_new[idx] - T_m)
                new_latent = minimum(maximum(latent + excess, zero), cap)
                d_latent = new_latent - latent
                T_new[idx] = T_m + (excess - d_latent) / Cp
                phi = new_latent / cap
                latent = new_latent
                e_lat = float(add_reduce(d_latent))
            s_enthalpy += clock() - t1

            # Per-step balance, evaluated with the matrices the solve used.
            # As C > 0 and the enthalpy correction keeps a non-finite
            # temperature non-finite, e_sens is finite only if T_new is.
            e_sens = float(dot(C, T_new - T))
            if not isfinite(e_sens):
                raise SolverDivergence(
                    f"non-finite temperature at t={now + dt:.6g} s "
                    f"(dt={dt}); reduce dt or check inputs")
            e_in = e_on if heating else 0.0
            scale = max(abs(e_in), abs(e_out), abs(e_sens) + abs(e_lat),
                        floor)
            residual = abs(e_in - e_out - e_sens - e_lat) / scale
            if residual > worst:
                worst = residual
            total_in += e_in
            total_out += e_out
            stored += e_sens + e_lat
            floors += floor
            T = T_new
            now += dt
            t_rows[k] = now
            T_rows[k] = T
            phi_rows[k] = phi
        phase_s.update(rebuild=s_rebuild, factor=s_factor, solve=s_solve,
                       enthalpy=s_enthalpy)
        scale = max(abs(total_in), abs(total_out), abs(stored), floors)
        yield (abs(total_in - total_out - stored) / scale, worst,
               factorizations)


def settled(extrema: list[tuple[float, float]], tol: float) -> bool:
    """The settle rule of the cyclic response, on the (max, min) of each
    cycle's maximum-temperature trace so far.

    A cycle matches its predecessor when both extrema agree within tol
    (QUASI_STEADY_TOL in simulate). The response has settled once each of
    the last three cycles matches its predecessor; cycle 1 has none, so a
    run cannot settle before its fourth cycle. The settled cycle is the
    first of those three, len(extrema) - 2 (1-based), at the first length
    for which this is true.
    """
    return len(extrema) >= 4 and all(
        abs(hi - prev_hi) < tol and abs(lo - prev_lo) < tol
        for (prev_hi, prev_lo), (hi, lo) in zip(extrema[-4:-1], extrema[-3:]))


def build_case_network(case: Case) -> tuple[Mesh, NetworkModel]:
    mesh = build_mesh(case.cell)
    return mesh, assemble_network(mesh, case.pcm)


def step_counts(dt: float) -> tuple[int, int]:
    """Steps of dt in the heating phase and in one cycle; ValueError
    unless dt is positive, divides both T_ON and PERIOD and leaves each of
    the heating and the cooling phase at least one step."""
    if not (isinstance(dt, numbers.Real) and dt > 0):
        raise ValueError(f"dt must be a positive number, got {dt!r}")
    steps = (T_ON / dt, PERIOD / dt)
    if any(abs(n - round(n)) > 1e-9 for n in steps):
        raise ValueError("dt must divide both T_ON and PERIOD")
    on, cycle = round(steps[0]), round(steps[1])
    if not 0 < on < cycle:
        raise ValueError("dt must leave the heating and the cooling phase "
                         f"a whole step each, got {dt!r}")
    return on, cycle


@dataclass(frozen=True)
class Fidelity:
    """Where a study's cases run: meshed at voxel edge dx, m, and stepped
    at dt, s. A function that builds its own cases takes one of these; one
    that is handed a case takes dt alone. Checked when built, with the
    messages of the solid cell at dx and of step_counts(dt)."""

    dx: float
    dt: float

    def __post_init__(self):
        check_field_types(self)
        UnitCellSpec(dx=self.dx, no_channel=True)
        step_counts(self.dt)


#: The fidelity every answer is judged at: the 5 um mesh, the 10 ms step.
REFERENCE = Fidelity(UnitCellSpec.dx, DEFAULT_DT)
#: The cheap fidelity most searches, sweeps and campaigns score at.
COARSE = Fidelity(10e-6, 0.025)


def simulate(case: Case, dt: float = DEFAULT_DT,
             snapshot_every: int | None = None) -> ThermalHistory:
    """Run the square-wave transient for a case.

    Starts from ambient with all PCM solid. Terminates early once the
    cyclic response has settled (see settled), otherwise runs the full
    duration. snapshot_every, if given, keeps the fields every that many
    steps; one that is not a positive integer (a bool, 2.5, 0) is refused
    before anything is built. The band routines
    run on one thread of scipy's OpenBLAS, and the caller's thread count
    is restored when the run ends.
    """
    if snapshot_every is not None:
        check_count("snapshot_every", snapshot_every, 1)
    steps_on, steps_cycle = step_counts(dt)
    power = case.power
    n_cycles = int(round(power.duration / PERIOD))

    t_start = time.perf_counter()
    mesh, net = build_case_network(case)
    t_loop = time.perf_counter()
    n_pcm = net.pcm_nodes.size

    # each step's time, T and phi go to one cycle's rows, reduced at its end
    t_cycle = np.empty(steps_cycle)
    T_cycle = np.empty((steps_cycle, net.n_nodes))
    phi_cycle = np.empty((steps_cycle, n_pcm))
    times, T_max, phi_mean = [], [], []
    snapshots = []
    extrema = []  # (max, min) of each cycle's T_max trace
    converged = False

    phase_s = dict.fromkeys(PHASES, 0.0)
    with _one_blas_thread():
        stepper = _cycles(net, dt, power.q0, steps_on, t_cycle, T_cycle,
                          phi_cycle, phase_s)
        for cycle, (residual, worst_residual, n_factorizations) in enumerate(
                islice(stepper, n_cycles)):
            times.append(t_cycle.copy())
            if snapshot_every:
                # the fields after every snapshot_every-th step of the run
                first = -(cycle * steps_cycle + 1) % snapshot_every
                for k in range(first, steps_cycle, snapshot_every):
                    snapshots.append((
                        float(t_cycle[k]), net.mesh_field(T_cycle[k]),
                        net.mesh_field(net.expand_phi(phi_cycle[k]))))
            trace = T_cycle.max(axis=1)
            T_max.append(trace)
            phi_mean.append(phi_cycle.sum(axis=1) / max(n_pcm, 1))
            extrema.append((float(trace.max()), float(trace.min())))
            converged = settled(extrema, QUASI_STEADY_TOL)
            if converged:
                break
    t_end = time.perf_counter()

    if worst_residual > MAX_STEP_RESIDUAL:
        raise SolverDivergence(
            f"per-step energy residual {worst_residual:.3e} exceeds "
            f"{MAX_STEP_RESIDUAL:.1e}")

    phase_s["bookkeeping"] = t_end - t_loop - sum(phase_s.values())
    phase_s["assemble"] = t_loop - t_start

    return ThermalHistory(
        t=np.concatenate(times),
        T_max=np.concatenate(T_max),
        phi_mean=np.concatenate(phi_mean),
        dt=dt,
        quasi_steady_cycle=len(extrema) - 2 if converged else len(extrema),
        converged=converged,
        energy_residual=residual,
        worst_step_residual=worst_residual,
        n_factorizations=n_factorizations,
        phase_s=phase_s,
        snapshots=snapshots,
    )
