import numpy as np
import pytest

from pcmopt.geometry import PCM, UnitCellSpec, build_mesh
from pcmopt.materials import builtin_material
from pcmopt.network import assemble_network


@pytest.fixture(scope="module")
def net():
    mesh = build_mesh(UnitCellSpec())
    return assemble_network(mesh, pcm=builtin_material("Solder174"))


def node_conductivity(net, phi_full):
    """Per-node conductivity blended by melt fraction (reference)."""
    return net.k_solid + phi_full * (net.pcm.k_liquid - net.pcm.k_solid)


def band_edge_conductances(net, phi):
    """Each edge's conductance, read from the off-diagonal of the band."""
    band = net.conductance_matrix(phi)
    return -band[net.mesh.nx - (net.edge_j - net.edge_i), net.edge_j]


def test_edge_conductance_is_harmonic_mean(net):
    phi = np.zeros(net.pcm_nodes.size)
    g = band_edge_conductances(net, phi)
    k = node_conductivity(net, net.expand_phi(phi))
    # silicon-silicon edge reduces to k itself
    si_si = (k[net.edge_i] == 130.0) & (k[net.edge_j] == 130.0)
    assert np.allclose(g[si_si], 130.0)
    # silicon-alumina interface: 2*130*30/160
    si_al = ((k[net.edge_i] == 130.0) & (k[net.edge_j] == 30.0)) | \
            ((k[net.edge_i] == 30.0) & (k[net.edge_j] == 130.0))
    assert si_al.any()
    assert np.allclose(g[si_al], 2 * 130.0 * 30.0 / 160.0)
    # silicon-solder (solid): 2*130*35.8/165.8
    si_pcm = ((k[net.edge_i] == 130.0) & (k[net.edge_j] == 35.8)) | \
             ((k[net.edge_i] == 35.8) & (k[net.edge_j] == 130.0))
    assert np.allclose(g[si_pcm], 2 * 130.0 * 35.8 / 165.8)
    assert np.allclose(g[si_pcm], 56.1399, atol=1e-3)


def test_edge_count_matches_grid(net):
    ny, nx = net.mesh.ny, net.mesh.nx
    assert net.edge_i.size == ny * (nx - 1) + (ny - 1) * nx


def test_convection_attaches_top_and_bottom(net):
    assert net.conv_nodes.size == 2 * net.mesh.nx
    assert np.allclose(net.conv_G, 500.0 * net.mesh.dx)


def test_source_vector_total_power(net):
    q = 100e3
    b = net.source_vector(q)
    assert b.sum() == pytest.approx(q * net.width)
    assert np.count_nonzero(b) == net.mesh.nx
    assert set(np.flatnonzero(b)) == set(net.source_nodes)


def band_to_dense(band):
    """Expand LAPACK upper band storage (kd + 1, n) to the full matrix."""
    kd, n = band.shape[0] - 1, band.shape[1]
    A = np.zeros((n, n))
    for d in range(kd + 1):
        A += np.diag(band[kd - d, d:], d)
        if d:
            A += np.diag(band[kd - d, d:], -d)
    return A


def dense_laplacian(net, phi_full):
    """Conduction Laplacian plus convection, assembled edge by edge."""
    A = np.zeros((net.n_nodes, net.n_nodes))
    k = node_conductivity(net, phi_full)
    for i, j in zip(net.edge_i, net.edge_j):
        g = 2.0 * k[i] * k[j] / (k[i] + k[j])
        A[i, i] += g
        A[j, j] += g
        A[i, j] -= g
        A[j, i] -= g
    for node, g in zip(net.conv_nodes, net.conv_G):
        A[node, node] += g
    return A


def test_conductance_rows_sum_to_convection(net):
    phi = np.zeros(net.pcm_nodes.size)
    rows = band_to_dense(net.conductance_matrix(phi)).sum(axis=1)
    expect = np.zeros(net.n_nodes)
    expect[net.conv_nodes] = net.conv_G
    assert np.allclose(rows, expect, rtol=0.0, atol=1e-10)


def test_conductance_matrix_symmetric_positive_definite(net):
    phi = np.zeros(net.pcm_nodes.size)
    G = band_to_dense(net.conductance_matrix(phi))
    assert abs(G - G.T).max() < 1e-12
    # diagonally dominant with positive diagonal -> SPD
    d = G.diagonal()
    off = abs(G).sum(axis=1) - abs(d)
    assert np.all(d > 0)
    assert np.all(d >= off - 1e-10)


@pytest.mark.parametrize("cell", [
    UnitCellSpec(), UnitCellSpec(dx=10e-6), UnitCellSpec(H=200e-6),
    UnitCellSpec(W=100e-6), UnitCellSpec(no_channel=True)],
    ids=["5um", "10um", "full_height", "full_width", "no_channel"])
def test_conductance_band_matches_dense_laplacian(cell):
    mesh = build_mesh(cell)
    net = assemble_network(mesh, pcm=builtin_material("Solder174"))
    # a graded melt field exercises the blended conductivities
    phi = np.linspace(0.0, 1.0, net.pcm_nodes.size)
    band = net.conductance_matrix(phi)
    assert band.shape == (mesh.nx + 1, net.n_nodes)
    expect = dense_laplacian(net, net.expand_phi(phi))
    assert np.allclose(band_to_dense(band), expect, rtol=1e-14, atol=0.0)
    # only the diagonal and offsets 1 and nx are populated
    d = np.arange(mesh.nx + 1)
    empty = (d != 0) & (d != 1) & (d != mesh.nx)
    assert not np.any(band[mesh.nx - d[empty]])


def test_nodes_are_numbered_top_down(net):
    mesh = net.mesh
    assert np.all(net.mesh_field(net.is_pcm) == (mesh.labels == PCM))
    # node 0 sits in the top (alumina) row, the last node on the cap underside
    assert net.k_solid[0] == 30.0 and net.k_solid[-1] == 130.0
    assert set(net.source_nodes) == set(
        np.flatnonzero(net.mesh_field(np.arange(net.n_nodes)).ravel()
                       // mesh.nx == mesh.source_row))
    assert np.all(net.edge_i < net.edge_j)


@pytest.mark.parametrize("cell,trailing", [
    (UnitCellSpec(), 310), (UnitCellSpec(dx=10e-6), 80),
    (UnitCellSpec(dx=2.5e-6), 1220), (UnitCellSpec(no_channel=True), 0)],
    ids=["5um", "10um", "2.5um", "no_channel"])
def test_melting_changes_only_the_trailing_block(cell, trailing):
    mesh = build_mesh(cell)
    net = assemble_network(mesh, pcm=builtin_material("Solder174"))
    start = net.melt_block_start
    assert net.n_nodes - start == trailing
    solid = net.conductance_matrix(np.zeros(net.pcm_nodes.size))
    melted = net.conductance_matrix(np.linspace(0.5, 1.0,
                                                net.pcm_nodes.size))
    r, j = np.nonzero(solid != melted)
    # band slot [r, j] holds the entry in row j - nx + r
    assert np.all(j - mesh.nx + r >= start)
    if trailing:
        assert j.min() == start
    # capacitance, too, varies only on the PCM nodes
    assert np.all(net.pcm_nodes >= start)


def test_capacitance_blends_with_melt_fraction(net):
    V = net.volume
    solder = builtin_material("Solder174")
    idx = net.pcm_nodes
    c0 = net.capacitance(np.zeros(idx.size))
    c1 = net.capacitance(np.ones(idx.size))
    assert c0 == pytest.approx(solder.rho_solid * solder.cp_solid * V)
    assert c1 == pytest.approx(solder.rho_liquid * solder.cp_liquid * V)
    assert np.array_equal(c0, net.solid_capacitance[idx])
    si = builtin_material("Silicon")
    non_pcm = np.flatnonzero(~net.is_pcm)[0]
    assert net.solid_capacitance[non_pcm] in (
        pytest.approx(si.rho_solid * si.cp_solid * V),
        pytest.approx(3950.0 * 775.0 * V))


def test_latent_capacity_uses_solid_mass(net):
    solder = builtin_material("Solder174")
    expect = solder.rho_solid * net.volume * solder.L_H
    assert np.allclose(net.latent_capacity, expect)
    assert net.latent_capacity.size == net.pcm_nodes.size == 100


def test_missing_pcm_material_rejected():
    # a no-channel mesh has no node that holds its PCM
    solid = build_mesh(UnitCellSpec(no_channel=True))
    net = assemble_network(solid, pcm=builtin_material("Solder174"))
    assert net.pcm_nodes.size == 0
