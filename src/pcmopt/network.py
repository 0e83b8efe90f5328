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

import numpy as np

from .geometry import ALUMINA, PCM, SILICON, BoundarySpec, Mesh
from .materials import Material, builtin_material


@dataclass(frozen=True)
class NetworkModel:
    """Immutable RC network: node property arrays, edges, boundary terms."""

    mesh: Mesh
    # per-node properties (length n)
    k_solid: np.ndarray = field(repr=False)
    k_liquid: np.ndarray = field(repr=False)
    rho_solid: np.ndarray = field(repr=False)
    rho_liquid: np.ndarray = field(repr=False)
    cp_solid: np.ndarray = field(repr=False)
    cp_liquid: np.ndarray = field(repr=False)
    L_H: np.ndarray = field(repr=False)
    is_pcm: np.ndarray = field(repr=False)  # bool mask
    T_m: float = 0.0  # PCM melt temperature, degC
    # edge node-index pairs (length n_edges), edge_i < edge_j
    edge_i: np.ndarray = field(repr=False, default=None)
    edge_j: np.ndarray = field(repr=False, default=None)
    # convection
    conv_nodes: np.ndarray = field(repr=False, default=None)
    conv_G: np.ndarray = field(repr=False, default=None)  # W/K per node
    T_amb_C: float = 26.85
    # source
    source_nodes: np.ndarray = field(repr=False, default=None)
    width: float = 0.0  # simulated half-pitch width, m

    @property
    def n_nodes(self) -> int:
        return self.is_pcm.size

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
        idx = self.pcm_nodes
        return self.rho_solid[idx] * self.volume * self.L_H[idx]

    @property
    def melt_block_start(self) -> int:
        """First band column holding a phi-dependent entry (n_nodes if
        none). The leading block before it never changes as the PCM melts.
        """
        _, i, _ = self._band_split
        cols = np.concatenate([i, self.pcm_nodes])
        return int(cols.min()) if cols.size else self.n_nodes

    def k_nodes(self, phi_full: np.ndarray) -> np.ndarray:
        """Per-node conductivity with melt-fraction blending."""
        return self.k_solid + phi_full * (self.k_liquid - self.k_solid)

    def capacitance(self, phi_full: np.ndarray) -> np.ndarray:
        """Per-node sensible capacitance rho(phi)*cp(phi)*V, J/K."""
        return _blended_capacitance(
            self.rho_solid, self.rho_liquid, self.cp_solid, self.cp_liquid,
            phi_full, self.volume)

    def pcm_capacitance(self, phi: np.ndarray) -> np.ndarray:
        """capacitance() on the PCM nodes only, from their melt fractions."""
        return _blended_capacitance(*self._pcm_phase_props, phi, self.volume)

    @cached_property
    def _pcm_phase_props(self) -> tuple[np.ndarray, ...]:
        idx = self.pcm_nodes
        return (self.rho_solid[idx], self.rho_liquid[idx],
                self.cp_solid[idx], self.cp_liquid[idx])

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

    def conductance_matrix(self, phi_full: np.ndarray) -> np.ndarray:
        """Conduction Laplacian plus convection diagonal (SPD), in LAPACK
        upper band storage of shape (nx + 1, n).

        Row nx holds the diagonal; row nx - d holds the superdiagonal at
        offset d, so A[i, j] (i <= j) sits at [nx + i - j, j]. Only offsets
        1 (horizontal edges) and nx (vertical edges) are nonzero. The
        array is Fortran-ordered so LAPACK can factor it in place.

        Built as a copy of the phi-independent band with the edges that
        touch a PCM node scattered in; phi_full is read on PCM nodes only.
        """
        base, i, j = self._band_split
        band = base.copy(order="F")
        if i.size:
            k = self.k_nodes(phi_full)
            _add_edges(band, i, j, k[i], k[j])
        return band

    @cached_property
    def _band_split(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """The band of every edge that touches no PCM node plus the
        convection diagonal, and (edge_i, edge_j) of the other edges."""
        melt = self.is_pcm[self.edge_i] | self.is_pcm[self.edge_j]
        i, j = self.edge_i[~melt], self.edge_j[~melt]
        n = self.n_nodes
        base = np.zeros((self.mesh.nx + 1, n), order="F")
        _add_edges(base, i, j, self.k_solid[i], self.k_solid[j])
        base[-1] += np.bincount(self.conv_nodes, self.conv_G, n)
        return base, self.edge_i[melt], self.edge_j[melt]

    def source_vector(self, q_flux: float) -> np.ndarray:
        """Nodal power vector for a given interface heat flux, W."""
        b = np.zeros(self.n_nodes)
        total = q_flux * self.width * 1.0
        b[self.source_nodes] = total / self.source_nodes.size
        return b

    def ambient_vector(self) -> np.ndarray:
        """Convection contribution h*A*T_amb on boundary nodes, W."""
        b = np.zeros(self.n_nodes)
        b[self.conv_nodes] += self.conv_G * self.T_amb_C
        return b


def _blended_capacitance(rho_solid, rho_liquid, cp_solid, cp_liquid, phi,
                         volume):
    rho = rho_solid + phi * (rho_liquid - rho_solid)
    cp = cp_solid + phi * (cp_liquid - cp_solid)
    return rho * cp * volume


def _add_edges(band: np.ndarray, i: np.ndarray, j: np.ndarray,
               ki: np.ndarray, kj: np.ndarray) -> None:
    """Add edges (i < j) between nodes of conductivity ki and kj to a band
    whose off-diagonal slots for them are still empty.

    With square voxels and unit depth, the series conductance
    G = k_series * A / dx reduces to the harmonic mean 2*ki*kj/(ki+kj), W/K.
    """
    g = 2.0 * ki * kj / (ki + kj)
    nx, n = band.shape[0] - 1, band.shape[1]
    band[nx - (j - i), j] = -g
    band[nx] += np.bincount(i, g, n) + np.bincount(j, g, n)


def _grid_edges(ny: int, nx: int) -> tuple[np.ndarray, np.ndarray]:
    idx = np.arange(ny * nx).reshape(ny, nx)
    hi = idx[:, :-1].ravel()
    hj = idx[:, 1:].ravel()
    vi = idx[:-1, :].ravel()
    vj = idx[1:, :].ravel()
    return np.concatenate([hi, vi]), np.concatenate([hj, vj])


def assemble_network(mesh: Mesh, boundary: BoundarySpec,
                     pcm: Material | None = None) -> NetworkModel:
    """Build the RC network for a mesh of built-in silicon and alumina.

    pcm may be None only for a mesh without PCM voxels.
    """
    boundary.validate()
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
    conv_G = np.full(conv_nodes.size, boundary.h * mesh.dx * 1.0)

    source_nodes = idx[mesh.source_row, :]

    return NetworkModel(
        mesh=mesh,
        k_solid=node_array("k_solid"),
        k_liquid=node_array("k_liquid"),
        rho_solid=node_array("rho_solid"),
        rho_liquid=node_array("rho_liquid"),
        cp_solid=node_array("cp_solid"),
        cp_liquid=node_array("cp_liquid"),
        L_H=node_array("L_H"),
        # channel voxels melt only when filled with an actual PCM
        is_pcm=(labels == PCM) if (pcm is not None and pcm.is_pcm
                                   and pcm.L_H > 0.0)
        else np.zeros(n, dtype=bool),
        T_m=pcm.T_m if pcm is not None else 0.0,
        edge_i=edge_i,
        edge_j=edge_j,
        conv_nodes=conv_nodes,
        conv_G=conv_G,
        T_amb_C=boundary.T_amb_C,
        source_nodes=source_nodes,
        width=mesh.nx * mesh.dx,
    )
