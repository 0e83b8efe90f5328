import json
from dataclasses import asdict, replace

import numpy as np
import pytest
from hypothesis import given, strategies as st

from pcmopt.geometry import (ALUMINA, H_CONV, PCM, SILICON, T_AMB_C, Case,
                             PowerProfile, UnitCellSpec, build_mesh)
from pcmopt.materials import UnknownMaterialError, builtin_material


def test_default_mesh_dimensions():
    mesh = build_mesh(UnitCellSpec())
    # 300 um stack at 5 um voxels, half of a 100 um pitch across
    assert (mesh.ny, mesh.nx) == (60, 10)
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
        UnitCellSpec(H=250e-6)
    with pytest.raises(ValueError, match="width"):
        UnitCellSpec(W=150e-6)
    with pytest.raises(ValueError):
        UnitCellSpec(H=0.0)
    UnitCellSpec(no_channel=True, H=0.0)  # baseline is exempt
    for dx in (0.0, -5e-6):
        with pytest.raises(ValueError, match="dx"):
            UnitCellSpec(dx=dx)
    # the 50 um alumina and cap layers snap to no voxels at 101 um
    with pytest.raises(ValueError, match="dx=0.000101 is too large: the "
                                         "alumina layer snaps to no voxels"):
        UnitCellSpec(dx=101e-6, no_channel=True)


def test_power_profile_validation():
    with pytest.raises(ValueError):
        PowerProfile(q0=-1.0)
    with pytest.raises(ValueError):
        PowerProfile(duration=0.5)


def test_boundary_defaults_and_celsius():
    assert H_CONV == 500.0
    # 300 K in degC, with the bits of the subtraction (not the literal)
    assert T_AMB_C == 300.0 - 273.15 == pytest.approx(26.85)


def test_case_json_round_trip(tmp_path):
    custom = replace(builtin_material("WoodsMetal"), name="custom",
                     T_m=66.5, k_liquid=12.25)
    for pcm in (builtin_material("WoodsMetal"), custom):
        case = Case(cell=UnitCellSpec(H=60e-6, W=40e-6),
                    power=PowerProfile(q0=75e3), pcm=pcm)
        path = tmp_path / "case.json"
        path.write_text(json.dumps(asdict(case)))
        assert Case.from_json_file(path) == case
        assert Case.from_json_file(path).pcm == pcm


def test_case_file_errors_name_the_file(tmp_path):
    path = tmp_path / "case.json"
    # the fixed stack and the convection are constants, not case keys
    for d, error, named in [
            ({"cell": {"no_channel": "false"}}, ValueError, "no_channel"),
            ({"pcm": "Adamantium"}, UnknownMaterialError, "Adamantium"),
            ({"boundary": {"h": 500}}, ValueError, "'boundary'"),
            ({"cell": {"pitch": 1e-4}}, ValueError, "'pitch'")]:
        path.write_text(json.dumps(d))
        with pytest.raises(error) as err:
            Case.from_json_file(path)
        assert err.value.args[0].startswith(f"case file {path}: ")
        assert named in err.value.args[0]


def test_case_from_dict_names_a_builtin_pcm_and_rejects_unknown_keys():
    case = Case.from_dict({"pcm": "WoodsMetal"})
    assert case.pcm == builtin_material("WoodsMetal")
    assert Case.from_dict({}) == Case()
    # the old field name and a misspelling both fail instead of running
    # the default Solder 174
    for key in ("pcm_name", "pcm_nmae"):
        with pytest.raises(ValueError, match=key):
            Case.from_dict({key: "WoodsMetal"})
    with pytest.raises(UnknownMaterialError):
        Case.from_dict({"pcm": "Adamantium"})
    # a string is no bool: "false" would run the solid-silicon baseline
    with pytest.raises(ValueError,
                       match="case cell: no_channel must be a bool"):
        Case.from_dict({"cell": {"no_channel": "false"}})


@pytest.mark.parametrize("section,record,named", [
    ("cell", {"H_um": 20}, "H_um"),
    ("power", {"q0": 75e3, "duty": 0.5}, "duty"),
    ("pcm", {"name": "partial", "T_m": 60.0}, "L_H"),
], ids=["cell", "power", "pcm"])
def test_case_from_dict_names_a_bad_key_in_each_section(section, record,
                                                        named):
    with pytest.raises(ValueError, match=rf"case {section}: .*'{named}'"):
        Case.from_dict({section: record})
    with pytest.raises(ValueError, match=f"case {section}: .*mapping"):
        Case.from_dict({section: [record]})
