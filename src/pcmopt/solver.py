"""Implicit transient integration of the RC network with fixed-point melting.

Each step is a backward-Euler solve of C dT/dt = -G T + b followed by a
per-node enthalpy correction: any PCM node crossing its melt temperature has
the excess (or deficit) sensible energy converted to latent energy, and is
clamped to T_m while partially melted. Residual enthalpy past a fully
melted/solidified state is returned to sensible temperature within the same
step, so every step balances energy to solver precision.
"""

from __future__ import annotations

import importlib.machinery
import importlib.util
import math
import numbers
import os
import sys
import time
from dataclasses import dataclass, field

import numpy as np

from .geometry import PERIOD, T_AMB_C, T_ON, Case, Mesh, build_mesh
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
    energy_residual: float = 0.0  # global |in - out - stored| / in
    worst_step_residual: float = 0.0  # largest per-step relative residual
    n_factorizations: int = 0  # system-matrix factorizations in the run
    # wall seconds per phase, keyed by PHASES: mesh and network assembly;
    # the melt-fraction test, capacitance update and band rebuild; the
    # factorizations, the first with its band build; right-hand side and
    # triangular solves; the enthalpy correction; and the rest (stepper
    # set-up, energy balance, history and cycle-end reductions, settle test)
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
    chol, info = dpbtrf(band, overwrite_ab=1)
    if info > 0:
        raise SolverDivergence(
            f"system matrix is not positive definite (leading minor of "
            f"order {info} of {band.shape[1]}); check inputs")
    if info < 0:
        raise SolverDivergence(f"dpbtrf rejected argument {-info}")
    return chol


class _TrailingCholesky:
    """Banded Cholesky factor U (A = U^T U) of a network's C/dt + G, whose
    leading block of columns [0, melt_block_start) never changes.

    With A = [[A11, A12], [A12^T, A22]] and U = [[U11, U12], [0, U22]],
    U11 and U12 depend only on A11 and A12, and U22 is the factor of
    A22 - U12^T U12. The band couples only nx rows across the split, so
    S = U12^T U12 fills just the first nx columns of the trailing block.

    Construction factors the full band with every PCM node solid. It keeps
    the trailing base: the fixed (phi-independent) part of A's trailing
    columns with S subtracted in the block, and U12 in the slots above it.
    A rebuild copies the base into the stored factor's trailing columns
    (load_base), adds the phi-dependent entries there, and refactor()
    factors them in place.
    """

    def __init__(self, net: NetworkModel, C_dt: np.ndarray):
        """C_dt is C/dt per node, that of the PCM nodes at phi = 0."""
        band = net.conductance_matrix(np.zeros(net.pcm_nodes.size))
        band[-1] += C_dt
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
        self._base[-1] += np.where(net.is_pcm, 0.0, C_dt)[start:]
        base_head = self._base[:, :w]
        base_head[~above] -= S[(c - kd + r)[~above], c[~above]]
        base_head[above] = head[above]

    def load_base(self) -> np.ndarray:
        """Reset the trailing columns of the factor to the base; returns
        them for the phi-dependent entries to be added."""
        self.tail[...] = self._base
        return self.tail

    def refactor(self) -> None:
        """Factor the trailing columns in place after load_base()."""
        if self.tail.size and _factor_band(self.tail) is not self.tail:
            raise RuntimeError("dpbtrf copied the trailing block")


class _Integrator:
    """Backward-Euler stepper over the state T, phi and stored latent energy.

    Construction factors C/dt + G with every PCM node solid. The factor is
    rebuilt only when the melt-fraction field has moved since the last
    build, since G and C depend on state only through phi, and then only
    in its trailing block (see _TrailingCholesky). Each step adds its
    energy terms to the run totals and its wall time to phase_s; simulate
    fills in the assemble and bookkeeping phases.
    """

    def __init__(self, network: NetworkModel, dt: float, q_flux: float):
        net = network
        self.net = net
        self.dt = dt
        self.t = 0.0
        self.T = np.full(net.n_nodes, T_AMB_C)
        self._pcm_idx = idx = net.pcm_nodes
        self._melts = idx.size > 0
        self.phi = np.zeros(idx.size)
        self.latent = np.zeros(idx.size)  # absorbed latent, J
        # per-PCM-node constants: array operands are cheaper than floats
        self._latent_cap = net.latent_capacity
        self._T_m = np.full(idx.size, net.T_m)
        self._dt_pcm = np.full(idx.size, dt)
        self._zero = np.zeros(idx.size)
        self._rebuild_tol = np.full(idx.size, REBUILD_TOL)
        self._C = net.solid_capacitance.copy()
        self._C_dt = self._C / dt
        self._update_capacitance()
        # right-hand side and interface power of the on and off phases
        self._b_off = net.ambient_vector()
        self._b_on = net.source_vector(q_flux) + self._b_off
        self._power_on = q_flux * net.width  # W (unit depth)
        self._conv_nodes = net.conv_nodes
        self._conv_G = net.conv_G
        self._conv_G_T_amb = float(np.sum(net.conv_G)) * T_AMB_C
        # run totals
        self.e_in = self.e_out = self.e_stored = 0.0
        self.worst_residual = 0.0
        self.phase_s = dict.fromkeys(PHASES, 0.0)
        t0 = time.perf_counter()
        self._factor = _TrailingCholesky(net, self._C_dt)
        self.phase_s["factor"] = time.perf_counter() - t0
        self.n_factorizations = 1

    def _update_capacitance(self) -> np.ndarray:
        """C and C/dt at the current phi; returns the PCM nodes' C/dt."""
        idx = self._pcm_idx
        C = self._C_pcm = self.net.capacitance(self.phi)
        C_dt = C / self._dt_pcm
        self._C[idx] = C
        self._C_dt[idx] = C_dt
        # floor of the per-step balance scale: the energy of a uniform
        # millikelvin change, so a quiescent step is not judged by roundoff
        self._scale_floor = 1e-3 * float(np.add.reduce(self._C))
        self._phi_at_build = self.phi  # step replaces phi, never writes it
        return C_dt

    def _rebuild(self) -> np.ndarray:
        """Capacitance update and C/dt + G at the current phi, written into
        the trailing columns of the factor, which it returns (see
        _TrailingCholesky)."""
        C_dt = self._update_capacitance()
        return self.net.conductance_matrix(self.phi, self._factor.load_base(),
                                           C_dt)

    def step(self, heating: bool) -> None:
        """Advance one dt, with the source on or off."""
        clock = time.perf_counter
        phase = self.phase_s
        dt = self.dt
        t0 = clock()
        moved = self._melts and np.count_nonzero(
            np.abs(self.phi - self._phi_at_build) > self._rebuild_tol)
        if moved:
            self._rebuild()
        t1 = clock()
        phase["rebuild"] += t1 - t0
        if moved:
            self._factor.refactor()
            self.n_factorizations += 1
            t0, t1 = t1, clock()
            phase["factor"] += t1 - t0

        rhs = self._C_dt * self.T
        rhs += self._b_on if heating else self._b_off
        T_new, _ = dpbtrs(self._factor.chol, rhs, overwrite_b=1)
        e_out = (float(np.dot(self._conv_G, T_new[self._conv_nodes]))
                 - self._conv_G_T_amb) * dt
        t0, t1 = t1, clock()
        phase["solve"] += t1 - t0

        e_lat = 0.0
        if self._melts:
            idx = self._pcm_idx
            Cp = self._C_pcm
            excess = Cp * (T_new[idx] - self._T_m)
            new_latent = np.minimum(np.maximum(self.latent + excess,
                                               self._zero), self._latent_cap)
            d_latent = new_latent - self.latent
            T_new[idx] = self._T_m + (excess - d_latent) / Cp
            self.phi = new_latent / self._latent_cap
            self.latent = new_latent
            e_lat = float(np.add.reduce(d_latent))
        phase["enthalpy"] += clock() - t1

        # Per-step balance, evaluated with the matrices the solve used. As
        # C > 0 and the enthalpy correction keeps a non-finite temperature
        # non-finite, e_sens is finite only if T_new is.
        e_sens = float(np.dot(self._C, T_new - self.T))
        if not math.isfinite(e_sens):
            raise SolverDivergence(
                f"non-finite temperature at t={self.t + dt:.6g} s "
                f"(dt={dt}); reduce dt or check inputs")
        e_in = self._power_on * dt if heating else 0.0
        scale = max(abs(e_in), abs(e_out), abs(e_sens) + abs(e_lat),
                    self._scale_floor)
        residual = abs(e_in - e_out - e_sens - e_lat) / scale
        if residual > self.worst_residual:
            self.worst_residual = residual
        self.e_in += e_in
        self.e_out += e_out
        self.e_stored += e_sens + e_lat
        self.T = T_new
        self.t += dt


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
    net = assemble_network(mesh, None if case.cell.no_channel else case.pcm)
    return mesh, net


def step_counts(dt: float) -> tuple[int, int]:
    """Steps of dt in the heating phase and in one cycle; ValueError
    unless dt is positive and divides both T_ON and PERIOD."""
    if not (isinstance(dt, numbers.Real) and dt > 0):
        raise ValueError(f"dt must be a positive number, got {dt!r}")
    steps = (T_ON / dt, PERIOD / dt)
    if any(abs(n - round(n)) > 1e-9 for n in steps):
        raise ValueError("dt must divide both T_ON and PERIOD")
    return round(steps[0]), round(steps[1])


def simulate(case: Case, dt: float = DEFAULT_DT,
             snapshot_every: int | None = None) -> ThermalHistory:
    """Run the square-wave transient for a case.

    Starts from ambient with all PCM solid. Terminates early once the
    cyclic response has settled (see settled), otherwise runs the full
    duration. snapshot_every, if given, is a positive integer (not a
    bool): the fields are kept every that many steps.
    """
    if not (snapshot_every is None or (
            isinstance(snapshot_every, numbers.Integral)
            and not isinstance(snapshot_every, bool) and snapshot_every > 0)):
        raise ValueError("snapshot_every must be a positive integer, got "
                         f"{snapshot_every!r}")
    steps_on, steps_cycle = step_counts(dt)
    power = case.power
    n_cycles = int(round(power.duration / PERIOD))

    t_start = time.perf_counter()
    mesh, net = build_case_network(case)
    t_loop = time.perf_counter()
    stepper = _Integrator(net, dt, power.q0)
    n_pcm = net.pcm_nodes.size

    # each step's T and phi go to one cycle's rows, reduced at its end
    T_cycle = np.empty((steps_cycle, net.n_nodes))
    phi_cycle = np.empty((steps_cycle, n_pcm))
    times, T_max, phi_mean = [], [], []
    snapshots = []
    extrema = []  # (max, min) of each cycle's T_max trace
    converged = False

    for cycle in range(n_cycles):
        for k in range(steps_cycle):
            stepper.step(k < steps_on)
            times.append(stepper.t)
            T_cycle[k] = stepper.T
            phi_cycle[k] = stepper.phi
            if snapshot_every and len(times) % snapshot_every == 0:
                snapshots.append((stepper.t, net.mesh_field(stepper.T),
                                  net.mesh_field(net.expand_phi(stepper.phi))))
        trace = T_cycle.max(axis=1)
        T_max.append(trace)
        phi_mean.append(phi_cycle.sum(axis=1) / max(n_pcm, 1))
        extrema.append((float(trace.max()), float(trace.min())))
        converged = settled(extrema, QUASI_STEADY_TOL)
        if converged:
            break
    t_end = time.perf_counter()

    # Global conservation check over the whole run.
    denom = max(stepper.e_in, 1e-30)
    global_residual = abs(stepper.e_in - stepper.e_out
                          - stepper.e_stored) / denom

    worst_residual = stepper.worst_residual
    if worst_residual > MAX_STEP_RESIDUAL:
        raise SolverDivergence(
            f"per-step energy residual {worst_residual:.3e} exceeds "
            f"{MAX_STEP_RESIDUAL:.1e}")

    phase_s = stepper.phase_s
    phase_s["bookkeeping"] = t_end - t_loop - sum(phase_s.values())
    phase_s["assemble"] = t_loop - t_start

    return ThermalHistory(
        t=np.asarray(times),
        T_max=np.concatenate(T_max),
        phi_mean=np.concatenate(phi_mean),
        dt=dt,
        quasi_steady_cycle=len(extrema) - 2 if converged else len(extrema),
        converged=converged,
        energy_residual=global_residual,
        worst_step_residual=worst_residual,
        n_factorizations=stepper.n_factorizations,
        phase_s=phase_s,
        snapshots=snapshots,
    )


def steady_state(case: Case, constant_flux: float) -> np.ndarray:
    """Direct solve of G T = b for a constant (non-cyclic) source flux,
    with every PCM node solid.

    Returns the nodal temperature field (degC) reshaped to (ny, nx).
    Used as a verification oracle; H_CONV > 0 keeps the system nonsingular.
    """
    _, net = build_case_network(case)
    chol = _factor_band(net.conductance_matrix(np.zeros(net.pcm_nodes.size)))
    T, _ = dpbtrs(chol, net.source_vector(constant_flux) + net.ambient_vector())
    return net.mesh_field(T)
