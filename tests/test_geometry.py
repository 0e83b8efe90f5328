import json
from dataclasses import asdict, replace

import numpy as np
import pytest
from hypothesis import given, strategies as st

from pcmopt.geometry import (ALUMINA, H_CONV, PCM, PITCH, SILICON, T_ALUMINA,
                             T_AMB_C, T_CAP, T_DEVICE, Case, PowerProfile,
                             UnitCellSpec, build_mesh)
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


def test_snapped_width_is_the_meshed_channel():
    # 50 um is 5 voxels at 10 um; the simulated half holds 2 of them
    assert UnitCellSpec(dx=10e-6).snapped().W == 4e-05
    assert int(np.sum(build_mesh(UnitCellSpec(dx=10e-6)).labels[10] == PCM)
               ) == 2


@given(h=st.floats(min_value=20e-6, max_value=200e-6),
       w=st.floats(min_value=20e-6, max_value=100e-6),
       dx=st.sampled_from([5e-6, 10e-6]))
def test_snapping_is_idempotent(h, w, dx):
    once = UnitCellSpec(H=h, W=w, dx=dx).snapped()
    assert once.snapped() == once
    assert np.array_equal(build_mesh(once).labels,
                          build_mesh(UnitCellSpec(H=h, W=w, dx=dx)).labels)


def _reference_labels(H, W, dx):
    """Labels by the earlier rule: validation snapped H and W to whole
    voxels, and the mesh halved the snapped width's voxel count, an odd
    count rounded to even. None where it refused the cell."""
    def snap(length):
        return max(round(length / dx), 0) * dx

    H, W = snap(H), snap(W)
    if H <= 0 or W <= 0 or H > snap(T_DEVICE) or W > snap(PITCH):
        return None
    n_cap = round(snap(T_CAP) / dx)
    n_dev = round(snap(T_DEVICE) / dx)
    n_al = round(snap(T_ALUMINA) / dx)
    n_half_pitch = round(round(snap(PITCH) / dx) / 2)
    labels = np.full((n_cap + n_dev + n_al, n_half_pitch), SILICON,
                     dtype=np.int8)
    labels[n_cap + n_dev:, :] = ALUMINA
    n_h = round(H / dx)
    n_w = round(round(W / dx) / 2)
    if n_h > 0 and n_w > 0:
        labels[n_cap:n_cap + n_h, :n_w] = PCM
    return labels


@pytest.mark.parametrize("dx_um", [2.5, 5.0, 10.0, 12.5, 20.0])
def test_every_channel_meshes_as_before_or_is_refused(dx_um):
    """Each H, W on a 1 um grid up to the device layer and the pitch meshes
    the earlier rule's labels; a cell that rule meshed with no PCM voxel
    (a height or a half width under one voxel) is refused, naming dx."""
    dx = dx_um * 1e-6
    n_meshed = n_refused = 0
    for h_um in range(1, 201):
        for w_um in range(1, 101):
            H, W = h_um * 1e-6, w_um * 1e-6
            expected = _reference_labels(H, W, dx)
            if expected is not None and np.any(expected == PCM):
                mesh = build_mesh(UnitCellSpec(H=H, W=W, dx=dx))
                assert np.array_equal(mesh.labels, expected), (h_um, w_um)
                n_meshed += 1
            else:
                with pytest.raises(ValueError, match=f"dx={dx!r}"):
                    UnitCellSpec(H=H, W=W, dx=dx)
                n_refused += 1
    assert n_meshed > 0 and n_refused > 0


@pytest.mark.parametrize("dx_um", [2.5, 12.5])
def test_both_spellings_of_a_voxel_mesh_every_width_alike(dx_um):
    """dx written as a literal and as dx_um * 1e-6 differ in the last bit
    (the CLI divides by 1e6, which gives the literal); the half width counts
    whole voxels, so the two mesh each channel width on the 1 um grid the
    same way."""
    literal, scaled = float(f"{dx_um}e-6"), dx_um * 1e-6
    assert literal != scaled

    def labels(W, dx):
        try:
            return build_mesh(UnitCellSpec(W=W, dx=dx)).labels
        except ValueError:
            return None

    for w_um in range(1, 101):
        a, b = (labels(w_um * 1e-6, dx) for dx in (literal, scaled))
        assert (a is None) == (b is None), w_um
        assert a is None or np.array_equal(a, b), w_um


def test_validate_rejects_oversized_channel():
    with pytest.raises(ValueError, match="height"):
        UnitCellSpec(H=250e-6)
    with pytest.raises(ValueError, match="width"):
        UnitCellSpec(W=150e-6)
    with pytest.raises(ValueError):
        UnitCellSpec(H=0.0)
    # a channel one voxel wide has no voxel in its simulated half
    for dx in (5e-6, 10e-6):
        with pytest.raises(ValueError, match=f"at dx={dx!r} the height or "
                                             "half width"):
            UnitCellSpec(W=dx, dx=dx)
    UnitCellSpec(no_channel=True, H=0.0)  # baseline is exempt
    for dx in (0.0, -5e-6):
        with pytest.raises(ValueError, match="dx"):
            UnitCellSpec(dx=dx)
    # the 50 um alumina and cap layers snap to no voxels at 101 um
    with pytest.raises(ValueError, match="dx=0.000101 is too large: the "
                                         "alumina layer snaps to no voxels"):
        UnitCellSpec(dx=101e-6, no_channel=True)
    # from ~66.7 to 100 um the pitch snaps to one voxel, and its half to none
    for dx in (70e-6, 99e-6):
        with pytest.raises(ValueError, match=f"dx={dx!r} is too large: half "
                                             "the channel pitch snaps to no "
                                             "voxels"):
            UnitCellSpec(dx=dx, no_channel=True)
    assert build_mesh(UnitCellSpec(dx=66e-6, no_channel=True)).nx == 1


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
            ({"cell": {"pitch": 1e-4}}, ValueError, "'pitch'"),
            ({"cell": {"dx": 7e-5, "no_channel": True}}, ValueError,
             "half the channel pitch")]:
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
    with pytest.raises(ValueError,
                       match=f"case {section}: expected an object .*, got "
                             "list"):
        Case.from_dict({section: [record]})
