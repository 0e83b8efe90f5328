import json
import re
from dataclasses import asdict, replace

import numpy as np
import pytest
from hypothesis import given, strategies as st

from pcmopt.cli import _ProblemFile
from pcmopt.geometry import Case, PowerProfile, UnitCellSpec, build_mesh
from pcmopt.materials import (Material, PCM_NAMES, UnknownMaterialError,
                              builtin_material, load_material_file,
                              write_json)
from pcmopt.network import assemble_network
from pcmopt import studies
from pcmopt.optimize import (GAConfig, OptimizationProblem, PSOConfig,
                             repeat_with_seeds)
from pcmopt.solver import COARSE, simulate
from pcmopt.surrogate import SurrogateModel, TrainingSet, train_lm

from helpers import FunctionBackend


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
    # a value JSON cannot hold fails the write by its type, and leaves the
    # old file and no other
    with pytest.raises(TypeError, match="^Object of type object is not JSON "
                                        "serializable$"):
        write_json(path, {"a": object()})
    assert json.loads(path.read_text()) == {"a": [0, 1]}
    assert [p.name for p in tmp_path.iterdir()] == ["record.json"]


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
    "GAConfig": GAConfig(),
    "PSOConfig": PSOConfig(),
    "Fidelity": COARSE,
    "SurrogateModel": SurrogateModel(
        ["x"], [1], W1=[[0.5]], b1=[0.0], W2=[[1.0]], b2=[0.0], in_min=[0.0],
        in_max=[1.0], out_min=0.0, out_max=1.0, target_name="T_osc_C",
        seed=0),
    "_ProblemFile": _ProblemFile(bounds={"H_um": [20.0, 100.0]}),
    "TrainingSet": TrainingSet(np.array([[0.5]]), np.array([1.0]), ["x"],
                               "f"),
    "OptimizationProblem": OptimizationProblem(
        {"x": (0.0, 1.0)}, "f", FunctionBackend(float)),
}


@pytest.mark.parametrize("record,key,value,message", [
    ("Material", "k_solid", 0.0, "k_solid must be strictly positive"),
    ("Material", "T_m", "70", "T_m must be a number"),
    ("Material", "is_pcm", "false", "is_pcm must be a bool"),
    ("Material", "is_pcm", 0, "is_pcm must be a bool"),
    ("Material", "T_m", float("nan"), "T_m must be finite, got nan"),
    ("Material", "rho_solid", [8780.0], "rho_solid must be a number"),
    ("Material", "name", None, "name must be a string, got None"),
    ("Material", "name", 5, "name must be a string, got 5"),
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
    ("PowerProfile", "duration", 2.6,
     "duration must be a whole number of periods, got 2.6"),
    ("GAConfig", "population", 2, "elite"),
    ("GAConfig", "tol", None, "tol must be a number"),
    ("GAConfig", "population", float("inf"),
     "population must be a non-negative integer, got inf"),
    ("GAConfig", "population", 10.5,
     "population must be a non-negative integer, got 10.5"),
    ("GAConfig", "population", np.float64(50.0),
     "population must be a non-negative integer, got "
     + re.escape(repr(np.float64(50.0)))),
    ("GAConfig", "stall_generations", True,
     "stall_generations must be a non-negative integer, got True"),
    ("GAConfig", "max_generations", 0,
     "max_generations must be a positive integer, got 0"),
    ("PSOConfig", "swarm", 0, "swarm must be a positive integer, got 0"),
    ("PSOConfig", "swarm", 7.5, "swarm must be a non-negative integer, "
     "got 7.5"),
    ("PSOConfig", "max_iterations", "100",
     "max_iterations must be a non-negative integer, got '100'"),
    ("PSOConfig", "tol", float("nan"), "tol must be finite, got nan"),
    ("Fidelity", "dt", True, "dt must be a number, got True"),
    ("Fidelity", "dt", float("nan"), "dt must be finite, got nan"),
    ("Fidelity", "dt", 0.03, "dt must divide both T_ON and PERIOD"),
    ("Fidelity", "dt", 1e300, r"dt must leave the heating and the cooling "
     r"phase a whole step each, got 1e\+300"),
    ("Fidelity", "dx", 70e-6,
     "dx=7e-05 is too large: half the channel pitch snaps to no voxels"),
    ("SurrogateModel", "seed", 1.5, "seed must be a non-negative integer, "
     "got 1.5"),
    ("SurrogateModel", "seed", -1, "seed must be a non-negative integer, "
     "got -1"),
    ("SurrogateModel", "seed", True, "seed must be a non-negative integer, "
     "got True"),
    ("SurrogateModel", "target_name", 5, "target_name must be a string, "
     "got 5"),
    ("_ProblemFile", "objective", 5, "objective must be a string, got 5"),
    ("_ProblemFile", "objective", None, "objective must be a string, "
     "got None"),
    ("SurrogateModel", "hidden", [True],
     r"hidden\[0\] must be a positive integer, got True"),
    ("SurrogateModel", "hidden", [1.0],
     r"hidden\[0\] must be a positive integer, got 1\.0"),
    ("SurrogateModel", "input_names", [1],
     r"input_names\[0\] must be a string, got 1"),
    ("TrainingSet", "target_name", None, "target_name must be a string, "
     "got None"),
    ("TrainingSet", "input_names", [1],
     r"input_names\[0\] must be a string, got 1"),
    ("OptimizationProblem", "objective", 5, "objective must be a string, "
     "got 5"),
])
def test_every_record_checks_itself_when_built(record, key, value, message):
    valid = _VALID_RECORDS[record]
    kind = type(valid)
    with pytest.raises(ValueError, match=message):
        kind(**{**asdict(valid), key: value})
    with pytest.raises(ValueError, match=message):
        replace(valid, **{key: value})
    # the builders pass numpy scalars, also as a list's elements
    def as_numpy(value):
        if isinstance(value, list):
            return [as_numpy(item) for item in value]
        return {bool: np.bool_, int: np.int64, str: np.str_}.get(
            type(value), np.float64)(value)

    assert replace(valid, **{key: as_numpy(getattr(valid, key))}) == valid


def _count_call(call, tmp_path):
    """call's function, taking the argument under test as a keyword."""
    x = np.linspace(0.0, 1.0, 12)
    return {
        "train_lm": lambda **kw: train_lm(
            TrainingSet(x[:, None], x ** 2, ["x"], "f"), **kw),
        "campaign": lambda **kw: studies.generate_training_data(
            "geometry", **{"n": 2, **kw}, out_dir=tmp_path / "c",
            fidelity=COARSE),
        # at a step that does not divide the cycle, which is checked after
        # snapshot_every
        "simulate": lambda **kw: simulate(
            Case(cell=UnitCellSpec(dx=COARSE.dx)), dt=0.03, **kw),
        "repeat": lambda **kw: repeat_with_seeds(studies.problem_from_bounds(
            {"x": (0.0, 1.0)}, "f", FunctionBackend(float)), "ga", **kw),
    }[call]


POSITIVE = "must be a positive integer, got"
NON_NEGATIVE = "must be a non-negative integer, got"
AT_LEAST_2 = "must be an integer of at least 2, got"
_COUNT_ROWS = [
    ("train_lm", "hidden", 2.5, f"hidden {POSITIVE} 2.5"),
    ("train_lm", "hidden", True, f"hidden {POSITIVE} True"),
    ("train_lm", "hidden", 0, f"hidden {POSITIVE} 0"),
    ("train_lm", "max_epochs", 2.5, f"max_epochs {POSITIVE} 2.5"),
    ("train_lm", "max_epochs", 0, f"max_epochs {POSITIVE} 0"),
    ("train_lm", "patience", 1.5, f"patience {POSITIVE} 1.5"),
    ("train_lm", "patience", 0, f"patience {POSITIVE} 0"),
    ("train_lm", "seed", -1, f"seed {NON_NEGATIVE} -1"),
    ("train_lm", "seed", 1.5, f"seed {NON_NEGATIVE} 1.5"),
    ("train_lm", "seed", True, f"seed {NON_NEGATIVE} True"),
    ("campaign", "n", 2.5, f"n {POSITIVE} 2.5"),
    ("campaign", "n", True, f"n {POSITIVE} True"),
    ("campaign", "n", 0, f"n {POSITIVE} 0"),
    ("campaign", "seed", -1, f"seed {NON_NEGATIVE} -1"),
    ("campaign", "seed", 1.5, f"seed {NON_NEGATIVE} 1.5"),
    ("simulate", "snapshot_every", 0, f"snapshot_every {POSITIVE} 0"),
    ("simulate", "snapshot_every", -1, f"snapshot_every {POSITIVE} -1"),
    ("simulate", "snapshot_every", 2.5, f"snapshot_every {POSITIVE} 2.5"),
    ("simulate", "snapshot_every", True, f"snapshot_every {POSITIVE} True"),
    ("simulate", "snapshot_every", "40", f"snapshot_every {POSITIVE} '40'"),
    # a numpy integer passes, on to the step check
    ("simulate", "snapshot_every", np.int64(40), "dt must divide"),
    ("repeat", "n_runs", 2.5, f"n_runs {AT_LEAST_2} 2.5"),
    ("repeat", "n_runs", True, f"n_runs {AT_LEAST_2} True"),
    ("repeat", "n_runs", 1, f"n_runs {AT_LEAST_2} 1"),
]


@pytest.mark.parametrize("call,key,value,message", _COUNT_ROWS,
                         ids=[f"{c}-{k}-{v!r}" for c, k, v, _ in _COUNT_ROWS])
def test_a_count_or_seed_argument_is_refused_by_name(
        tmp_path, monkeypatch, call, key, value, message):
    """A hidden or max_epochs that is not an integer died in range or in
    numpy, a bool hidden in numpy, a fractional patience trained, and a
    bad seed failed in numpy's words or trained; a fractional campaign
    size died in numpy and a bool one ran. Each is refused naming the
    argument, before any case runs or any file is written. snapshot_every
    was refused so before and goes through the same rule now; a problem's
    seed is checked in test_optimize.py."""
    ran = []
    monkeypatch.setattr(studies, "evaluate_cases",
                        lambda *a, **kw: ran.append(a))
    with pytest.raises(ValueError, match=re.escape(message)):
        _count_call(call, tmp_path)(**{key: value})
    assert ran == [] and not any(tmp_path.iterdir())
