"""Thermal resistance/capacitance network assembled from a voxel mesh.

One node per voxel centroid; neighbor conductances use the series (harmonic
mean) combination of the two half-voxel conductivities. Convection attaches
boundary faces to a fixed ambient; the source flux is divided uniformly over
the silicon-alumina interface row. Unit depth (1 m) out of plane.

Nodes are numbered row by row from the top (alumina) down, so every matrix
entry that melting changes lies in the trailing columns of the band: the
solver refactors only that block.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import NamedTuple

import numpy as np

from .geometry import ALUMINA, H_CONV, PCM, SILICON, T_AMB_C, Mesh
from .materials import Material, builtin_material


@dataclass(frozen=True)
class NetworkModel:
    """Immutable RC network: solid node arrays, channel fill, edges,
    boundary."""

    mesh: Mesh
    # per-node properties (length n), every node solid
    k_solid: np.ndarray = field(repr=False)
    solid_capacitance: np.ndarray = field(repr=False)  # rho_s*cp_s*V, J/K
    is_pcm: np.ndarray = field(repr=False)  # bool mask
    # the channel fill; its nodes melt (is_pcm) only if pcm.is_pcm
    pcm: Material
    # edge node-index pairs (length n_edges), edge_i < edge_j
    edge_i: np.ndarray = field(repr=False)
    edge_j: np.ndarray = field(repr=False)
    # convection
    conv_nodes: np.ndarray = field(repr=False)
    conv_G: np.ndarray = field(repr=False)  # W/K per node, to T_AMB_C
    # source
    source_nodes: np.ndarray = field(repr=False)

    @property
    def n_nodes(self) -> int:
        return self.is_pcm.size

    @property
    def width(self) -> float:
        """Simulated half-pitch width, m."""
        return self.mesh.nx * self.mesh.dx

    @property
    def volume(self) -> float:
        """Per-node volume (uniform voxels, unit depth), m^3."""
        return self.mesh.dx * self.mesh.dx * 1.0

    @cached_property
    def pcm_nodes(self) -> np.ndarray:
        return np.flatnonzero(self.is_pcm)

    @property
    def latent_capacity(self) -> np.ndarray:
        """Per-PCM-node latent energy capacity, J (solid-phase mass basis)."""
        m = self.pcm
        return np.full(self.pcm_nodes.size, m.rho_solid * self.volume * m.L_H)

    @property
    def melt_block_start(self) -> int:
        """First band column holding a phi-dependent entry (n_nodes if
        none). The leading block before it never changes as the PCM melts.
        """
        return self._melt.start

    def capacitance(self, phi: np.ndarray) -> np.ndarray:
        """Sensible capacitance rho(phi)*cp(phi)*V of the PCM nodes at
        their melt fractions phi, J/K; solid_capacitance holds every
        node's at phi = 0."""
        work = self.melt_work()
        work.gather(phi)
        return work.capacitance()

    def melt_work(self, dt: float | None = None) -> "MeltWork":
        """Fresh buffers for conductance_matrix to rebuild the
        phi-dependent entries of C/dt + G at step dt, s (None: of G
        alone)."""
        return MeltWork(self._melt, dt)

    def expand_phi(self, phi: np.ndarray) -> np.ndarray:
        """Melt fractions of the PCM nodes -> full-length node array."""
        full = np.zeros(self.n_nodes)
        full[self.pcm_nodes] = phi
        return full

    def mesh_field(self, values: np.ndarray) -> np.ndarray:
        """Per-node values as a fresh (ny, nx) array in the mesh's
        orientation (row 0 is the cap underside, as in Mesh.labels)."""
        return np.ascontiguousarray(
            values.reshape(self.mesh.ny, self.mesh.nx)[::-1])

    def conductance_matrix(self, phi: np.ndarray,
                           trailing: np.ndarray | None = None,
                           work: "MeltWork | None" = None) -> np.ndarray:
        """Conduction Laplacian plus convection diagonal (SPD) at the PCM
        nodes' melt fractions phi, in LAPACK upper band storage of shape
        (nx + 1, n).

        Row nx holds the diagonal; row nx - d holds the superdiagonal at
        offset d, so A[i, j] (i <= j) sits at [nx + i - j, j]. Only offsets
        1 (horizontal edges) and nx (vertical edges) are nonzero. The
        array is Fortran-ordered so LAPACK can factor it in place.

        One gather blends every phi-dependent property (see MeltWork). One
        scatter adds the edges that touch a PCM node (the melt edges), all
        of which lie in the trailing columns [melt_block_start:], to the
        phi-independent entries, and the PCM nodes' C/dt to their
        diagonal. With trailing None it scatters into a copy of fixed_band
        with C/dt zero (+0.0, added last to a bin, keeps its bits) and
        returns the full band. Otherwise trailing is those columns of a
        band that already holds the phi-independent entries (the solver's
        factor), and work a melt_work(dt) of the caller's: the scatter
        adds to trailing in place and leaves the PCM nodes' C and C/dt in
        work.C and work.C_dt.
        """
        s = self._melt
        band = trailing
        if trailing is None:
            band = self.fixed_band.copy(order="F")
            trailing = band[:, s.start:]
            work = self.melt_work()
        elif not trailing.flags.f_contiguous:
            raise ValueError("trailing columns must be Fortran-contiguous")
        work.gather(phi)
        if work.dt is not None:
            np.divide(work.capacitance(), work.dt, out=work.C_dt)
        g = _series_conductance(work.k_i, work.k_j, out=work.g)
        trailing.ravel(order="F")[s.slots] -= g[:s.edges]  # a view: F order
        trailing[-1] += np.bincount(s.diag, work.weights, trailing.shape[1])
        return band

    @cached_property
    def fixed_band(self) -> np.ndarray:
        """The phi-independent band: every edge that touches no PCM node
        plus the convection diagonal. Shared; copy it before writing."""
        fixed = ~self._melt_edges
        i, j = self.edge_i[fixed], self.edge_j[fixed]
        g = _series_conductance(self.k_solid[i], self.k_solid[j])
        nx, n = self.mesh.nx, self.n_nodes
        band = np.zeros((nx + 1, n), order="F")
        band[nx - (j - i), j] = -g
        band[nx] = (np.bincount(i, g, n) + np.bincount(j, g, n)
                    + np.bincount(self.conv_nodes, self.conv_G, n))
        return band

    @cached_property
    def _melt_edges(self) -> np.ndarray:
        """Mask of the edges that touch a PCM node."""
        return self.is_pcm[self.edge_i] | self.is_pcm[self.edge_j]

    @cached_property
    def _melt(self) -> "_MeltPlan":
        melt = self._melt_edges
        i, j = self.edge_i[melt], self.edge_j[melt]
        ends = np.concatenate([i, i, j, j])  # see MeltWork
        pcm = self.pcm_nodes
        n_pcm = pcm.size
        start = int(np.concatenate([i, pcm]).min(initial=self.n_nodes))
        # each value's index into phi; a non-PCM end reads phi[0] times 0
        at = np.zeros(self.n_nodes, dtype=np.intp)
        at[pcm] = np.arange(n_pcm)
        m = self.pcm
        rows = self.mesh.nx - (j - i)
        return _MeltPlan(
            start=start, slots=rows + (self.mesh.nx + 1) * (j - start),
            diag=np.concatenate([i, j, pcm]) - start,
            at=np.concatenate([at[ends], at[pcm], at[pcm]]),
            base=np.concatenate([self.k_solid[ends],
                                 np.full(n_pcm, m.rho_solid),
                                 np.full(n_pcm, m.cp_solid)]),
            delta=np.concatenate([
                np.where(self.is_pcm[ends], m.k_liquid - m.k_solid, 0.0),
                np.full(n_pcm, m.rho_liquid - m.rho_solid),
                np.full(n_pcm, m.cp_liquid - m.cp_solid)]),
            volume=np.full(n_pcm, self.volume), edges=i.size)

    def source_vector(self, q_flux: float) -> np.ndarray:
        """Nodal power vector for a given interface heat flux, W."""
        b = np.zeros(self.n_nodes)
        total = q_flux * self.width * 1.0
        b[self.source_nodes] = total / self.source_nodes.size
        return b

    def ambient_vector(self) -> np.ndarray:
        """Convection contribution h*A*T_AMB_C on boundary nodes, W."""
        b = np.zeros(self.n_nodes)
        b[self.conv_nodes] += self.conv_G * T_AMB_C
        return b


class _MeltPlan(NamedTuple):
    """Where conductance_matrix reads phi and writes the melt edges, in
    trailing-column coordinates (column c is band column start + c)."""

    start: int  # NetworkModel.melt_block_start
    slots: np.ndarray  # each edge's off-diagonal, flat in Fortran order
    diag: np.ndarray  # trailing column of each i end, j end and PCM node
    # gathered value v = phi[at] * delta + base, laid out as MeltWork.values
    at: np.ndarray  # index into phi
    base: np.ndarray  # solid value
    delta: np.ndarray  # liquid - solid value (0 off the PCM)
    volume: np.ndarray  # node volume, one per PCM node
    edges: int  # number of melt edges


class MeltWork:
    """Buffers of one rebuild of the phi-dependent entries of C/dt + G
    (see NetworkModel.conductance_matrix), with views naming their parts.

    values holds what one gather blends: the conductivity at each melt
    edge's ends, laid out i, i, j, j so that the series conductance of
    k_i = [k at i, k at i] and k_j = [k at j, k at j] is [g, g], then rho
    and cp of each PCM node. weights holds what bincount adds to the band
    diagonal: g at the i ends, g at the j ends (the view g) and C/dt of
    each PCM node (the view C_dt, zero when dt is None).
    """

    def __init__(self, plan: _MeltPlan, dt: float | None):
        e, n = plan.edges, plan.volume.size
        self.plan = plan
        v = self.values = np.empty(plan.at.size)
        self.k_i, self.k_j = v[:2 * e], v[2 * e:4 * e]
        self.rho, self.cp = v[4 * e:4 * e + n], v[4 * e + n:]
        self.weights = np.zeros(2 * e + n)
        self.g, self.C_dt = self.weights[:2 * e], self.weights[2 * e:]
        self.C = np.empty(n)
        # the step, one per PCM node: array operands are cheaper than floats
        self.dt = None if dt is None else np.full(n, dt)

    def gather(self, phi: np.ndarray) -> None:
        """values at the PCM nodes' melt fractions phi."""
        p = self.plan
        # the method: np.take's Python wrapper costs more than the gather
        v = phi.take(p.at, out=self.values, mode="clip")
        v *= p.delta
        v += p.base

    def capacitance(self) -> np.ndarray:
        """C = rho * cp * V of the PCM nodes from the gathered values,
        J/K; returns the buffer C."""
        C = np.multiply(self.rho, self.cp, out=self.C)
        C *= self.plan.volume
        return C


def _series_conductance(ki: np.ndarray, kj: np.ndarray,
                        out: np.ndarray | None = None) -> np.ndarray:
    """Conductance of edges between nodes of conductivity ki and kj, W/K,
    in out if given.

    With square voxels and unit depth, the series conductance
    G = k_series * A / dx reduces to the harmonic mean 2*ki*kj/(ki+kj).
    """
    g = np.add(ki, ki, out=out)  # 2.0 * ki, exactly
    g *= kj
    g /= ki + kj
    return g


def assemble_network(mesh: Mesh, pcm: Material) -> NetworkModel:
    """Build the RC network for a mesh of built-in silicon and alumina whose
    channel voxels hold pcm. They melt only if pcm.is_pcm; a mesh without
    channel voxels (no_channel) has no node that holds it.
    """
    # node order: top row first (see the module docstring)
    labels = mesh.labels[::-1].ravel()
    by_label = {ALUMINA: builtin_material("Alumina"),
                SILICON: builtin_material("Silicon"), PCM: pcm}
    n = labels.size

    def node_array(attr: str) -> np.ndarray:
        out = np.empty(n)
        for label, mat in by_label.items():
            out[labels == label] = getattr(mat, attr)
        return out

    # node pairs of the horizontal, then the vertical, edges
    nodes = np.arange(n).reshape(mesh.ny, mesh.nx)  # row 0 is the top
    edge_i = np.concatenate([nodes[:, :-1].ravel(), nodes[:-1].ravel()])
    edge_j = np.concatenate([nodes[:, 1:].ravel(), nodes[1:].ravel()])
    idx = nodes[::-1]  # [iy, ix] -> node
    conv_nodes = np.concatenate([idx[-1], idx[0]])  # top, bottom rows

    return NetworkModel(
        mesh=mesh,
        k_solid=node_array("k_solid"),
        solid_capacitance=(node_array("rho_solid") * node_array("cp_solid")
                           * (mesh.dx * mesh.dx * 1.0)),
        is_pcm=(labels == PCM) & pcm.is_pcm,
        pcm=pcm,
        edge_i=edge_i,
        edge_j=edge_j,
        conv_nodes=conv_nodes,
        conv_G=np.full(conv_nodes.size, H_CONV * mesh.dx * 1.0),
        source_nodes=idx[mesh.source_row],
    )
