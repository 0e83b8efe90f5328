import json
import re
from dataclasses import asdict, replace

import numpy as np
import pytest
from hypothesis import given, strategies as st

from pcmopt.geometry import PowerProfile, UnitCellSpec, build_mesh
from pcmopt.materials import (Material, PCM_NAMES, UnknownMaterialError,
                              builtin_material, load_material_file,
                              write_json)
from pcmopt.network import assemble_network
from pcmopt.optimize import GAConfig, ParameterSpec, PSOConfig


def test_seven_pcms_ordered_by_melt_temperature():
    assert len(PCM_NAMES) == 7
    tms = [builtin_material(n).T_m for n in PCM_NAMES]
    assert tms == sorted(tms)
    assert PCM_NAMES[0] == "Cerrolow117"
    assert PCM_NAMES[-1] == "Solder174"


def test_builtin_database_values():
    s = builtin_material("Solder174")
    assert s.is_pcm
    assert s.T_m == 77.0
    assert s.rho_solid == 8780.0 and s.rho_liquid == 8200.0
    assert s.k_solid == 35.8 and s.k_liquid == 28.8
    assert s.cp_solid == 401.0 and s.cp_liquid == 883.0
    assert s.L_H == 47730.0

    si = builtin_material("Silicon")
    assert not si.is_pcm
    assert (si.rho_solid, si.k_solid, si.cp_solid) == (2329.0, 130.0, 700.0)

    al = builtin_material("Alumina")
    assert not al.is_pcm
    assert (al.rho_solid, al.k_solid) == (3950.0, 30.0)


def test_unknown_material_lists_valid_names():
    with pytest.raises(UnknownMaterialError, match="Solder174"):
        builtin_material("Unobtainium")


def test_all_builtins_validate_clean():
    for name in PCM_NAMES + ("Silicon", "Alumina"):
        m = builtin_material(name)
        assert Material(**asdict(m)) == m


def test_validate_flags_bad_records():
    with pytest.raises(ValueError) as err:
        Material("bad", True, 50.0, -1.0, 1000.0, 10.0, 10.0,
                 100.0, 100.0, 0.0)
    assert "rho_solid" in str(err.value)
    assert "L_H" in str(err.value)


_MESH = build_mesh(UnitCellSpec(dx=10e-6))
_NETWORKS = {name: assemble_network(_MESH, pcm=builtin_material(name))
             for name in PCM_NAMES}


def effective_properties(name, phi):
    """Phase-blended k, cp*rho*V on every node of a channel of one PCM,
    with every PCM node at melt fraction phi."""
    net = _NETWORKS[name]
    phi_pcm = np.full(net.pcm_nodes.size, phi)
    k = net.k_solid + net.expand_phi(phi_pcm) * (net.pcm.k_liquid
                                                 - net.pcm.k_solid)
    c = net.solid_capacitance.copy()
    c[net.pcm_nodes] = net.capacitance(phi_pcm)
    return net, k, c


def test_effective_property_endpoints_and_midpoint():
    m = builtin_material("Solder174")
    net, k0, c0 = effective_properties("Solder174", 0.0)
    _, k1, c1 = effective_properties("Solder174", 1.0)
    _, k_mid, c_mid = effective_properties("Solder174", 0.5)
    idx = net.pcm_nodes
    V = net.volume
    assert np.all(k0[idx] == m.k_solid)
    assert np.all(k1[idx] == m.k_liquid)
    assert k_mid[idx] == pytest.approx((m.k_solid + m.k_liquid) / 2)
    assert c0[idx] == pytest.approx(m.rho_solid * m.cp_solid * V)
    assert c1[idx] == pytest.approx(m.rho_liquid * m.cp_liquid * V)
    rho_mid = (m.rho_solid + m.rho_liquid) / 2
    cp_mid = (m.cp_solid + m.cp_liquid) / 2
    assert c_mid[idx] == pytest.approx(rho_mid * cp_mid * V)


def test_effective_property_non_pcm_ignores_phi():
    net, k0, c0 = effective_properties("Solder174", 0.0)
    for phi in (0.5, 1.0):
        _, k, c = effective_properties("Solder174", phi)
        assert np.array_equal(k[~net.is_pcm], k0[~net.is_pcm])
        assert np.array_equal(c[~net.is_pcm], c0[~net.is_pcm])
    solids = [builtin_material(n).k_solid for n in ("Silicon", "Alumina")]
    assert np.all(np.isin(k0[~net.is_pcm], solids))


@given(phi=st.floats(min_value=0.0, max_value=1.0),
       name=st.sampled_from(PCM_NAMES))
def test_effective_property_stays_between_phases(phi, name):
    m = builtin_material(name)
    net, k, c = effective_properties(name, phi)
    idx = net.pcm_nodes
    lo, hi = sorted((m.k_solid, m.k_liquid))
    assert np.all((lo - 1e-9 <= k[idx]) & (k[idx] <= hi + 1e-9))
    # rho and cp each blend linearly, so C is bounded by its extreme corners
    V = net.volume
    corners = [r * cp * V for r in (m.rho_solid, m.rho_liquid)
               for cp in (m.cp_solid, m.cp_liquid)]
    tol = 1e-9 * max(corners)
    assert np.all((min(corners) - tol <= c[idx])
                  & (c[idx] <= max(corners) + tol))


def test_material_json_round_trip():
    m = builtin_material("Cerrolow136")
    assert Material(**json.loads(json.dumps(asdict(m)))) == m


def test_load_material_file(tmp_path):
    path = tmp_path / "mat.json"
    m = builtin_material("WoodsMetal")
    path.write_text(json.dumps(asdict(m)))
    assert load_material_file(path) == m


def test_write_json_replaces_a_file_whole_or_not_at_all(tmp_path):
    path = tmp_path / "record.json"
    write_json(path, {"a": np.arange(2)})
    assert [p.name for p in tmp_path.iterdir()] == ["record.json"]
    assert path.read_text() == '{\n  "a": [\n    0,\n    1\n  ]\n}'
    # a value JSON cannot hold fails the write and leaves the old file
    with pytest.raises(TypeError):
        write_json(path, {"a": object()})
    assert json.loads(path.read_text()) == {"a": [0, 1]}


def test_load_material_file_rejects_invalid(tmp_path):
    path = tmp_path / "mat.json"
    d = asdict(builtin_material("WoodsMetal"))
    d["k_solid"] = 0.0
    path.write_text(json.dumps(d))
    named = rf"{re.escape(str(path))}: invalid material: k_solid"
    with pytest.raises(ValueError, match=named):
        load_material_file(path)


def test_load_material_file_names_missing_keys(tmp_path):
    path = tmp_path / "mat.json"
    d = asdict(builtin_material("WoodsMetal"))
    del d["cp_liquid"]
    path.write_text(json.dumps(d))
    with pytest.raises(ValueError, match="missing .*'cp_liquid'"):
        load_material_file(path)


@pytest.mark.parametrize("key,value", [("k_solid", "31.6"), ("T_m", "70"),
                                       ("is_pcm", "false")])
def test_load_material_file_rejects_a_string_number(tmp_path, key, value):
    path = tmp_path / "mat.json"
    d = asdict(builtin_material("WoodsMetal"))
    kind = "bool" if isinstance(d[key], bool) else "number"
    path.write_text(json.dumps({**d, key: value}))
    named = rf"{re.escape(str(path))}: {key} must be a {kind}"
    with pytest.raises(ValueError, match=named):
        load_material_file(path)



@pytest.mark.parametrize("key,value", [("T_m", "NaN"), ("k_solid", "Infinity"),
                                       ("L_H", "-Infinity")])
def test_load_material_file_rejects_a_non_finite_number(tmp_path, key, value):
    # Python's json writes and reads NaN and Infinity, though JSON has neither
    path = tmp_path / "mat.json"
    d = asdict(builtin_material("WoodsMetal"))
    path.write_text(json.dumps({**d, key: float(value)}))
    assert f'"{key}": {value}' in path.read_text()
    named = (rf"{re.escape(str(path))}: {key} must be finite, "
             rf"got {float(value)!r}")
    with pytest.raises(ValueError, match=named):
        load_material_file(path)

_VALID_RECORDS = {
    "Material": builtin_material("Solder174"),
    "UnitCellSpec": UnitCellSpec(),
    "PowerProfile": PowerProfile(),
    "ParameterSpec": ParameterSpec("x", 0.0, 1.0, step=0.1),
    "GAConfig": GAConfig(),
    "PSOConfig": PSOConfig(),
}


@pytest.mark.parametrize("record,key,value,message", [
    ("Material", "k_solid", 0.0, "k_solid must be strictly positive"),
    ("Material", "T_m", "70", "T_m must be a number"),
    ("Material", "is_pcm", "false", "is_pcm must be a bool"),
    ("Material", "is_pcm", 0, "is_pcm must be a bool"),
    ("Material", "T_m", float("nan"), "T_m must be finite, got nan"),
    ("Material", "rho_solid", [8780.0], "rho_solid must be a number"),
    ("UnitCellSpec", "H", 250e-6, "height exceeds"),
    ("UnitCellSpec", "dx", None, "dx must be a number"),
    ("UnitCellSpec", "dx", float("inf"), "dx must be finite, got inf"),
    ("UnitCellSpec", "no_channel", "false", "no_channel must be a bool"),
    ("UnitCellSpec", "no_channel", None, "no_channel must be a bool"),
    ("PowerProfile", "q0", -1.0, "q0 must be non-negative"),
    ("PowerProfile", "duration", True, "duration must be a number"),
    ("PowerProfile", "q0", float("inf"), "q0 must be finite, got inf"),
    ("PowerProfile", "q0", "300", "q0 must be a number"),
    ("PowerProfile", "duration", 0.5, "duration must cover at least one"),
    ("ParameterSpec", "lower", 2.0, "lower must be < upper"),
    ("ParameterSpec", "step", "0.1", "step must be a number"),
    ("ParameterSpec", "lower", -float("inf"), "lower must be finite, got -inf"),
    ("GAConfig", "population", 2, "elite"),
    ("GAConfig", "tol", None, "tol must be a number"),
    ("GAConfig", "population", float("inf"), "population must be finite"),
    ("PSOConfig", "swarm", 0, ">= 1"),
    ("PSOConfig", "max_iterations", "100", "max_iterations must be a number"),
    ("PSOConfig", "tol", float("nan"), "tol must be finite, got nan"),
])
def test_every_record_checks_itself_when_built(record, key, value, message):
    valid = _VALID_RECORDS[record]
    kind = type(valid)
    with pytest.raises(ValueError, match=message):
        kind(**{**asdict(valid), key: value})
    with pytest.raises(ValueError, match=message):
        replace(valid, **{key: value})
    # the builders pass numpy scalars
    scalar = np.bool_ if isinstance(getattr(valid, key), bool) else np.float64
    assert replace(valid, **{key: scalar(getattr(valid, key))}) == valid
