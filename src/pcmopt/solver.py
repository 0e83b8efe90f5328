"""Implicit transient integration of the RC network with fixed-point melting.

Each step is a backward-Euler solve of C dT/dt = -G T + b followed by a
per-node enthalpy correction: any PCM node crossing its melt temperature has
the excess (or deficit) sensible energy converted to latent energy, and is
clamped to T_m while partially melted. Residual enthalpy past a fully
melted/solidified state is returned to sensible temperature within the same
step, so every step balances energy to solver precision.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np
import scipy.sparse as sp
from scipy.sparse.linalg import splu

from .geometry import Case, Mesh, build_mesh
from .materials import Material, builtin_material, validated
from .network import NetworkModel, assemble_network

# Settle tolerance on each cycle's extrema, degC (see QuasiSteadyDetector).
QUASI_STEADY_TOL = 0.01
# Largest relative energy residual a single step may leave.
MAX_STEP_RESIDUAL = 1e-6
# The factorization is rebuilt once any melt fraction moves more than this.
REBUILD_TOL = 1e-9


class SolverDivergence(RuntimeError):
    """Non-finite temperatures encountered during integration."""


class StepDiagnostics(NamedTuple):
    """Per-step energy bookkeeping, J (residual is relative)."""

    residual: float
    e_in: float
    e_out: float
    e_sensible: float
    e_latent: float


@dataclass
class ThermalState:
    """Instantaneous solver state."""

    t: float
    T: np.ndarray          # per-node temperature, degC
    phi: np.ndarray        # per-PCM-node melt fraction in [0, 1]
    stored_latent: np.ndarray  # per-PCM-node absorbed latent energy, J


@dataclass
class ThermalHistory:
    """Sampled time series of a transient run."""

    t: np.ndarray
    T_max: np.ndarray      # max chip temperature per sample, degC
    phi_mean: np.ndarray   # mean PCM melt fraction per sample
    period: float
    t_on: float
    dt: float
    T_amb_C: float
    quasi_steady_cycle: int | None = None  # see QuasiSteadyDetector.result
    converged: bool = False
    energy_residual: float = 0.0  # global |in - out - stored| / in
    snapshots: list = field(default_factory=list)  # (t, T field, phi field)

    @property
    def steps_per_cycle(self) -> int:
        return round(self.period / self.dt)

    @property
    def n_cycles(self) -> int:
        return self.t.size // self.steps_per_cycle

    def cycle_slice(self, cycle: int) -> slice:
        """Sample range of one 0-based cycle."""
        n = self.steps_per_cycle
        return slice(cycle * n, (cycle + 1) * n)


class _Integrator:
    """Backward-Euler stepper with a reusable sparse factorization.

    The factorization is rebuilt only when the melt-fraction field has moved
    since the last build, since G and C depend on state only through phi.
    """

    def __init__(self, network: NetworkModel, dt: float, q_flux: float):
        self.net = network
        self.dt = dt
        self._phi_at_build = None
        self._lu = None
        self._C = None
        self._G = None
        # right-hand side and interface power of the on and off phases
        self._b_off = network.ambient_vector()
        self._b_on = network.source_vector(q_flux) + self._b_off
        self._power_on = q_flux * network.width  # W (unit depth)
        self._pcm_idx = network.pcm_nodes
        self._latent_cap = network.latent_capacity
        self._conv_nodes = network.conv_nodes
        self._conv_G = network.conv_G

    def _ensure_factorized(self, phi: np.ndarray) -> None:
        if self._phi_at_build is not None and (
                phi.size == 0
                or np.max(np.abs(phi - self._phi_at_build)) <= REBUILD_TOL):
            return
        net = self.net
        phi_full = net.expand_phi(phi)
        self._C = net.capacitance(phi_full)
        self._G = net.conductance_matrix(phi_full)
        A = sp.diags(self._C / self.dt) + self._G
        self._lu = splu(A.tocsc())
        self._phi_at_build = phi.copy()

    def step(self, state: ThermalState,
             heating: bool) -> tuple[ThermalState, StepDiagnostics]:
        """Advance one dt, with the source on or off."""
        net = self.net
        dt = self.dt
        self._ensure_factorized(state.phi)
        C = self._C
        b = self._b_on if heating else self._b_off
        source_power = self._power_on if heating else 0.0

        rhs = C / dt * state.T + b
        T_star = self._lu.solve(rhs)
        if not np.all(np.isfinite(T_star)):
            raise SolverDivergence(
                f"non-finite temperature at t={state.t + dt:.6g} s "
                f"(dt={dt}); reduce dt or check inputs")

        idx = self._pcm_idx
        if idx.size:
            Cp = C[idx]
            excess = Cp * (T_star[idx] - net.T_m)
            tentative = state.stored_latent + excess
            new_latent = np.clip(tentative, 0.0, self._latent_cap)
            d_latent = new_latent - state.stored_latent
            residual = excess - d_latent
            T_new = T_star.copy()
            T_new[idx] = net.T_m + residual / Cp
            phi_new = new_latent / self._latent_cap
        else:
            T_new = T_star
            new_latent = state.stored_latent
            phi_new = state.phi
            d_latent = 0.0

        # Per-step balance, evaluated with the matrices the solve used.
        e_in = source_power * dt
        e_out = float(np.sum(
            self._conv_G * (T_star[self._conv_nodes] - net.T_amb_C))) * dt
        e_sens = float(np.sum(C * (T_new - state.T)))
        e_lat = float(np.sum(d_latent))
        # floor the scale at the energy of a uniform millikelvin change so a
        # quiescent (zero-power, settled) step is not judged by roundoff
        scale = max(abs(e_in), abs(e_out), abs(e_sens) + abs(e_lat),
                    1e-3 * float(np.sum(C)))
        step_residual = abs(e_in - e_out - e_sens - e_lat) / scale

        diag = StepDiagnostics(step_residual, e_in, e_out, e_sens, e_lat)
        return ThermalState(state.t + dt, T_new, phi_new, new_latent), diag


class QuasiSteadyDetector:
    """The settle rule of the cyclic response, fed one cycle at a time.

    A cycle matches its predecessor when both the maximum and the minimum
    of its maximum-temperature trace agree with the previous cycle's within
    tol (QUASI_STEADY_TOL in simulate). The settled cycle is the 1-based
    number of the first of three consecutive cycles that each match their
    predecessor; cycle 1 has none, so a run cannot settle before its fourth
    cycle. A run that never settles reports the number of cycles run.
    """

    def __init__(self, tol: float):
        self.tol = tol
        self.cycles = 0
        self.settled_cycle: int | None = None
        self._previous: tuple[float, float] | None = None
        self._matching = 0  # current run of cycles matching their predecessor

    def add_cycle(self, cycle_max: float, cycle_min: float) -> bool:
        """Record the extrema of the next cycle; True once settled."""
        prev = self._previous
        self._previous = (cycle_max, cycle_min)
        self.cycles += 1
        if (prev is not None and abs(cycle_max - prev[0]) < self.tol
                and abs(cycle_min - prev[1]) < self.tol):
            self._matching += 1
        else:
            self._matching = 0
        if self._matching >= 3 and self.settled_cycle is None:
            self.settled_cycle = self.cycles - 2
        return self.settled_cycle is not None

    def result(self) -> tuple[int, bool]:
        """(settled cycle, or cycles run if unsettled; whether settled)."""
        if self.settled_cycle is None:
            return self.cycles, False
        return self.settled_cycle, True


def resolve_pcm(case: Case) -> Material | None:
    """The channel material of a case; None for the solid baseline."""
    if case.cell.no_channel:
        return None
    if case.pcm_override is not None:
        return validated(Material.from_dict(case.pcm_override), "pcm_override")
    return builtin_material(case.pcm_name)


def build_case_network(case: Case) -> tuple[Mesh, NetworkModel]:
    mesh = build_mesh(case.cell)
    pcm = resolve_pcm(case)
    net = assemble_network(mesh, case.boundary, pcm=pcm)
    return mesh, net


def simulate(case: Case, dt: float = 0.01,
             snapshot_every: int | None = None) -> ThermalHistory:
    """Run the square-wave transient for a case.

    Starts from ambient with all PCM solid. Terminates early once the
    cyclic response has settled (see QuasiSteadyDetector), otherwise runs
    the full duration.
    """
    case.power.validate()
    if not dt > 0:
        raise ValueError("dt must be positive")
    power = case.power
    steps_on = power.t_on / dt
    steps_cycle = power.period / dt
    if abs(steps_on - round(steps_on)) > 1e-9 or abs(steps_cycle - round(steps_cycle)) > 1e-9:
        raise ValueError("dt must divide both t_on and the period")
    steps_on = round(steps_on)
    steps_cycle = round(steps_cycle)
    n_cycles = int(round(power.duration / power.period))

    mesh, net = build_case_network(case)
    n_pcm = net.pcm_nodes.size
    state = ThermalState(
        t=0.0,
        T=np.full(net.n_nodes, net.T_amb_C),
        phi=np.zeros(n_pcm),
        stored_latent=np.zeros(n_pcm),
    )
    stepper = _Integrator(net, dt, power.q0)

    times, tmax, pmean = [], [], []
    snapshots = []
    e_in_total = e_out_total = e_stored_total = 0.0
    worst_residual = 0.0
    step_count = 0
    settle = QuasiSteadyDetector(QUASI_STEADY_TOL)

    for cycle in range(n_cycles):
        for k in range(steps_cycle):
            state, diag = stepper.step(state, k < steps_on)
            worst_residual = max(worst_residual, diag.residual)
            e_in_total += diag.e_in
            e_out_total += diag.e_out
            e_stored_total += diag.e_sensible + diag.e_latent
            step_count += 1
            times.append(state.t)
            tmax.append(float(state.T.max()))
            pmean.append(float(state.phi.mean()) if n_pcm else 0.0)
            if snapshot_every and step_count % snapshot_every == 0:
                snapshots.append((state.t, state.T.copy(),
                                  net.expand_phi(state.phi).reshape(mesh.ny, mesh.nx)))
        cycle_trace = tmax[cycle * steps_cycle:]
        if settle.add_cycle(max(cycle_trace), min(cycle_trace)):
            break
    quasi_cycle, converged = settle.result()

    # Global conservation check over the whole run.
    denom = max(e_in_total, 1e-30)
    global_residual = abs(e_in_total - e_out_total - e_stored_total) / denom

    if worst_residual > MAX_STEP_RESIDUAL:
        raise SolverDivergence(
            f"per-step energy residual {worst_residual:.3e} exceeds "
            f"{MAX_STEP_RESIDUAL:.1e}")

    return ThermalHistory(
        t=np.asarray(times),
        T_max=np.asarray(tmax),
        phi_mean=np.asarray(pmean),
        period=power.period,
        t_on=power.t_on,
        dt=dt,
        T_amb_C=net.T_amb_C,
        quasi_steady_cycle=quasi_cycle,
        converged=converged,
        energy_residual=global_residual,
        snapshots=snapshots,
    )


def steady_state(case: Case, constant_flux: float,
                 phi: np.ndarray | None = None) -> np.ndarray:
    """Direct solve of G T = b for a constant (non-cyclic) source flux.

    Returns the nodal temperature field (degC) reshaped to (ny, nx).
    Used as a verification oracle; h > 0 keeps the system nonsingular.
    """
    mesh, net = build_case_network(case)
    phi_full = net.expand_phi(phi) if phi is not None else np.zeros(net.n_nodes)
    G = net.conductance_matrix(phi_full)
    b = net.source_vector(constant_flux) + net.ambient_vector()
    T = splu(G.tocsc()).solve(b)
    return T.reshape(mesh.ny, mesh.nx)
