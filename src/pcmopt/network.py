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
    """Immutable RC network: solid node arrays, PCM record, edges, boundary."""

    mesh: Mesh
    # per-node properties (length n), every node solid
    k_solid: np.ndarray = field(repr=False)
    solid_capacitance: np.ndarray = field(repr=False)  # rho_s*cp_s*V, J/K
    is_pcm: np.ndarray = field(repr=False)  # bool mask
    pcm: Material | None  # the channel fill if it melts, else None
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
    def T_m(self) -> float:
        """PCM melt temperature, degC (0 without a PCM)."""
        return self.pcm.T_m if self.pcm is not None else 0.0

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
        per_node = m.rho_solid * self.volume * m.L_H if m is not None else 0.0
        return np.full(self.pcm_nodes.size, per_node)

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
        rho, drho, cp, dcp, volume = self._blend
        return (rho + phi * drho) * (cp + phi * dcp) * volume

    @cached_property
    def _blend(self) -> tuple[np.ndarray, ...]:
        """capacitance's constants, one per PCM node so that each product
        has two array operands: solid rho, liquid - solid rho, solid cp,
        liquid - solid cp and the volume."""
        m = self.pcm
        if m is None:
            return (np.zeros(0),) * 5
        return tuple(np.full(self.pcm_nodes.size, v) for v in (
            m.rho_solid, m.rho_liquid - m.rho_solid,
            m.cp_solid, m.cp_liquid - m.cp_solid, self.volume))

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
                           pcm_diag: np.ndarray | None = None) -> np.ndarray:
        """Conduction Laplacian plus convection diagonal (SPD) at the PCM
        nodes' melt fractions phi, in LAPACK upper band storage of shape
        (nx + 1, n).

        Row nx holds the diagonal; row nx - d holds the superdiagonal at
        offset d, so A[i, j] (i <= j) sits at [nx + i - j, j]. Only offsets
        1 (horizontal edges) and nx (vertical edges) are nonzero. The
        array is Fortran-ordered so LAPACK can factor it in place.

        One scatter adds the edges that touch a PCM node (the melt edges),
        all of which lie in the trailing columns [melt_block_start:], to
        the phi-independent entries, and pcm_diag (one value per PCM node)
        to the PCM nodes' diagonal. With trailing None it scatters into a
        copy of fixed_band with pcm_diag zero (+0.0, added last to a bin,
        keeps its bits) and returns the full band. Otherwise trailing is
        those columns of a band that already holds the phi-independent
        entries (the solver's factor); the scatter adds to it in place.
        """
        s = self._melt
        band = trailing
        if trailing is None:
            band = self.fixed_band.copy(order="F")
            trailing = band[:, s.start:]
            pcm_diag = np.zeros(self.pcm_nodes.size)
        elif not trailing.flags.f_contiguous:
            raise ValueError("trailing columns must be Fortran-contiguous")
        k = s.k_end + phi[s.end_pcm] * s.dk_end
        half = k.size // 2
        g = _series_conductance(k[:half], k[half:])
        trailing.ravel(order="F")[s.slots] -= g  # a view: Fortran order
        trailing[-1] += np.bincount(s.diag, np.concatenate((g, g, pcm_diag)),
                                    trailing.shape[1])
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
    def _melt(self) -> "_MeltScatter":
        melt = self._melt_edges
        i, j = self.edge_i[melt], self.edge_j[melt]
        ends = np.concatenate([i, j])
        pcm = self.pcm_nodes
        start = int(np.concatenate([i, pcm]).min(initial=self.n_nodes))
        # each end's index into phi; a non-PCM end reads phi[0] times 0
        at = np.zeros(self.n_nodes, dtype=np.intp)
        at[pcm] = np.arange(pcm.size)
        m = self.pcm
        dk = m.k_liquid - m.k_solid if m is not None else 0.0
        rows = self.mesh.nx - (j - i)
        return _MeltScatter(
            start=start, slots=rows + (self.mesh.nx + 1) * (j - start),
            end_pcm=at[ends], k_end=self.k_solid[ends],
            dk_end=np.where(self.is_pcm[ends], dk, 0.0),
            diag=np.concatenate([ends, pcm]) - start)

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


class _MeltScatter(NamedTuple):
    """Where conductance_matrix writes the melt edges, in trailing-column
    coordinates (column c is band column start + c)."""

    start: int  # NetworkModel.melt_block_start
    slots: np.ndarray  # each edge's off-diagonal, flat in Fortran order
    end_pcm: np.ndarray  # index into phi of each end, i ends then j ends
    k_end: np.ndarray  # solid conductivity of each end
    dk_end: np.ndarray  # liquid - solid conductivity (0 off the PCM)
    diag: np.ndarray  # trailing column of each end, then of each PCM node


def _series_conductance(ki: np.ndarray, kj: np.ndarray) -> np.ndarray:
    """Conductance of edges between nodes of conductivity ki and kj, W/K.

    With square voxels and unit depth, the series conductance
    G = k_series * A / dx reduces to the harmonic mean 2*ki*kj/(ki+kj).
    """
    return (ki + ki) * kj / (ki + kj)  # ki + ki is 2.0 * ki, exactly


def _grid_edges(ny: int, nx: int) -> tuple[np.ndarray, np.ndarray]:
    idx = np.arange(ny * nx).reshape(ny, nx)
    hi = idx[:, :-1].ravel()
    hj = idx[:, 1:].ravel()
    vi = idx[:-1, :].ravel()
    vj = idx[1:, :].ravel()
    return np.concatenate([hi, vi]), np.concatenate([hj, vj])


def assemble_network(mesh: Mesh, pcm: Material | None = None) -> NetworkModel:
    """Build the RC network for a mesh of built-in silicon and alumina.

    pcm may be None only for a mesh without PCM voxels.
    """
    # node order: top row first (see the module docstring)
    labels = mesh.labels[::-1].ravel()
    if pcm is None and np.any(labels == PCM):
        raise ValueError("mesh contains PCM voxels but no PCM material given")

    by_label = {ALUMINA: builtin_material("Alumina"),
                SILICON: builtin_material("Silicon")}
    if pcm is not None:
        by_label[PCM] = pcm

    n = labels.size

    def node_array(attr: str) -> np.ndarray:
        out = np.empty(n)
        for label, mat in by_label.items():
            out[labels == label] = getattr(mat, attr)
        return out

    edge_i, edge_j = _grid_edges(mesh.ny, mesh.nx)

    idx = np.arange(n).reshape(mesh.ny, mesh.nx)[::-1]  # [iy, ix] -> node
    top = idx[-1, :]
    bottom = idx[0, :]
    conv_nodes = np.concatenate([top, bottom])
    conv_G = np.full(conv_nodes.size, H_CONV * mesh.dx * 1.0)

    source_nodes = idx[mesh.source_row, :]

    # channel voxels melt only when filled with an actual PCM
    melts = pcm is not None and pcm.is_pcm
    return NetworkModel(
        mesh=mesh,
        k_solid=node_array("k_solid"),
        solid_capacitance=(node_array("rho_solid") * node_array("cp_solid")
                           * (mesh.dx * mesh.dx * 1.0)),
        is_pcm=labels == PCM if melts else np.zeros(n, dtype=bool),
        pcm=pcm if melts else None,
        edge_i=edge_i,
        edge_j=edge_j,
        conv_nodes=conv_nodes,
        conv_G=conv_G,
        source_nodes=source_nodes,
    )
