"""Thermal resistance/capacitance network assembled from a voxel mesh.

One node per voxel centroid; neighbor conductances use the series (harmonic
mean) combination of the two half-voxel conductivities. Convection attaches
boundary faces to a fixed ambient; the source flux is divided uniformly over
the silicon-alumina interface row. Unit depth (1 m) out of plane.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp

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
    # edge node-index pairs (length n_edges)
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

    @property
    def pcm_nodes(self) -> np.ndarray:
        return np.flatnonzero(self.is_pcm)

    @property
    def latent_capacity(self) -> np.ndarray:
        """Per-PCM-node latent energy capacity, J (solid-phase mass basis)."""
        idx = self.pcm_nodes
        return self.rho_solid[idx] * self.volume * self.L_H[idx]

    def k_nodes(self, phi_full: np.ndarray) -> np.ndarray:
        """Per-node conductivity with melt-fraction blending."""
        return self.k_solid + phi_full * (self.k_liquid - self.k_solid)

    def capacitance(self, phi_full: np.ndarray) -> np.ndarray:
        """Per-node sensible capacitance rho(phi)*cp(phi)*V, J/K."""
        rho = self.rho_solid + phi_full * (self.rho_liquid - self.rho_solid)
        cp = self.cp_solid + phi_full * (self.cp_liquid - self.cp_solid)
        return rho * cp * self.volume

    def expand_phi(self, phi: np.ndarray) -> np.ndarray:
        """Melt fractions of the PCM nodes -> full-length node array."""
        full = np.zeros(self.n_nodes)
        full[self.pcm_nodes] = phi
        return full

    def edge_conductances(self, phi_full: np.ndarray) -> np.ndarray:
        """Series conductance per edge, W/K.

        With square voxels and unit depth, G = k_series * A / dx reduces
        numerically to the harmonic mean 2*ki*kj/(ki+kj).
        """
        k = self.k_nodes(phi_full)
        ki = k[self.edge_i]
        kj = k[self.edge_j]
        return 2.0 * ki * kj / (ki + kj)

    def conductance_matrix(self, phi_full: np.ndarray) -> sp.csc_matrix:
        """Full conduction Laplacian plus convection diagonal (SPD)."""
        g = self.edge_conductances(phi_full)
        n = self.n_nodes
        rows = np.concatenate([self.edge_i, self.edge_j,
                               self.edge_i, self.edge_j, self.conv_nodes])
        cols = np.concatenate([self.edge_j, self.edge_i,
                               self.edge_i, self.edge_j, self.conv_nodes])
        data = np.concatenate([-g, -g, g, g, self.conv_G])
        return sp.coo_matrix((data, (rows, cols)), shape=(n, n)).tocsc()

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
    labels = mesh.labels.ravel()
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

    idx = np.arange(n).reshape(mesh.ny, mesh.nx)
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
