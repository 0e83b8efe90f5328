import json

import numpy as np
import pytest
from hypothesis import given, strategies as st

from pcmopt.geometry import (ALUMINA, PCM, SILICON, BoundarySpec, Case,
                             PowerProfile, UnitCellSpec, build_mesh)


def test_default_mesh_dimensions():
    mesh = build_mesh(UnitCellSpec())
    # 300 um stack at 5 um voxels, half of a 100 um pitch across
    assert (mesh.ny, mesh.nx) == (60, 10)
    assert mesh.n_nodes == 600
    assert mesh.dx == 5e-6


def test_default_mesh_labels():
    mesh = build_mesh(UnitCellSpec())
    counts = {label: int(np.sum(mesh.labels == label))
              for label in (ALUMINA, SILICON, PCM)}
    # 100x50 um channel -> 20 rows x 5 half-width columns
    assert counts[PCM] == 100
    # 50 um alumina layer spans the full 10-column width
    assert counts[ALUMINA] == 100
    assert counts[SILICON] == 600 - 200
    # channel sits on the cap (10 rows), against the symmetry plane
    assert mesh.labels[9, 0] == SILICON
    assert mesh.labels[10, 0] == PCM
    assert mesh.labels[29, 4] == PCM
    assert mesh.labels[29, 5] == SILICON
    assert mesh.labels[30, 0] == SILICON
    # alumina occupies the top 10 rows
    assert np.all(mesh.labels[50:] == ALUMINA)
    assert np.all(mesh.labels[:50] != ALUMINA)


def test_source_row_is_top_device_row():
    mesh = build_mesh(UnitCellSpec())
    assert mesh.source_row == 49
    assert np.all(mesh.labels[mesh.source_row] == SILICON)


def test_no_channel_mesh_has_no_pcm():
    mesh = build_mesh(UnitCellSpec(no_channel=True))
    assert not np.any(mesh.labels == PCM)
    assert (mesh.ny, mesh.nx) == (60, 10)


def test_full_width_channel_spans_half_pitch():
    mesh = build_mesh(UnitCellSpec(H=100e-6, W=100e-6))
    assert np.all(mesh.labels[10:30, :] == PCM)


def test_snapping_rounds_to_voxel_multiples():
    spec = UnitCellSpec(H=98e-6, W=52e-6).snapped()
    assert spec.H == pytest.approx(100e-6)
    assert spec.W == pytest.approx(50e-6)


@given(h=st.floats(min_value=20e-6, max_value=200e-6),
       w=st.floats(min_value=20e-6, max_value=100e-6))
def test_snapping_is_idempotent(h, w):
    once = UnitCellSpec(H=h, W=w).snapped()
    assert once.snapped() == once


def test_validate_rejects_oversized_channel():
    with pytest.raises(ValueError, match="height"):
        UnitCellSpec(H=250e-6).validate()
    with pytest.raises(ValueError, match="width"):
        UnitCellSpec(W=150e-6).validate()
    with pytest.raises(ValueError):
        UnitCellSpec(H=0.0).validate()
    UnitCellSpec(no_channel=True, H=0.0).validate()  # baseline is exempt
    for dx in (0.0, -5e-6):
        with pytest.raises(ValueError, match="dx"):
            UnitCellSpec(dx=dx).validate()


def test_power_profile_validation():
    with pytest.raises(ValueError):
        PowerProfile(t_on=1.5, period=1.0).validate()
    with pytest.raises(ValueError):
        PowerProfile(q0=-1.0).validate()
    with pytest.raises(ValueError):
        PowerProfile(duration=0.5).validate()


def test_boundary_defaults_and_celsius():
    b = BoundarySpec()
    assert b.h == 500.0
    assert b.T_amb == 300.0
    assert b.T_amb_C == pytest.approx(26.85)


def test_case_json_round_trip(tmp_path):
    case = Case(cell=UnitCellSpec(H=60e-6, W=40e-6),
                power=PowerProfile(q0=75e3),
                pcm_name="WoodsMetal")
    path = tmp_path / "case.json"
    path.write_text(json.dumps(case.to_dict()))
    assert Case.from_json_file(path) == case
