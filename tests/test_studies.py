import concurrent.futures
import csv
import json
import os
import pickle
import re
import traceback
import warnings
from functools import partial
from types import SimpleNamespace

import numpy as np
import pytest

from pcmopt import metrics, solver, studies
from pcmopt.geometry import Case, UnitCellSpec, build_mesh
from pcmopt.metrics import MetricsReport, simulate_metrics
from pcmopt.solver import (COARSE, REFERENCE, Fidelity, SolverDivergence,
                           ThermalHistory)
from pcmopt.optimize import (Backend, GAConfig, PSOConfig, ga_minimize,
                             parametric_sweep, pso_minimize,
                             repeat_with_seeds, value_range)
from pcmopt.studies import (GEOMETRY_BOUNDS, PROPERTY_BOUNDS,
                            ResamplingSurrogateBackend, SimulatorBackend,
                            SurrogateBackend, config_hash, default_workers,
                            emit_surface, generate_training_data,
                            geometry_case, problem_from_bounds, property_case,
                            run_ablation, run_pcm_comparison, run_tm_study,
                            sensitivity, simulator)
from pcmopt.surrogate import TrainingSet, predict, r_squared, train_lm

from helpers import FunctionBackend

COARSE_CELL = UnitCellSpec(dx=COARSE.dx)
#: what a stand-in verifier of a surrogate search stands for
T_OSC_VERIFIER = {"objective": "T_osc", "param_names": list(GEOMETRY_BOUNDS)}


def read_csv(path):
    with open(path, newline="") as f:
        return list(csv.DictReader(f))


def test_config_hash_stable_and_order_insensitive():
    a = config_hash({"x": 1, "y": [2, 3]})
    b = config_hash({"y": [2, 3], "x": 1})
    assert a == b
    assert len(a) == 12
    assert config_hash({"x": 2, "y": [2, 3]}) != a


def test_default_workers_env_override(monkeypatch):
    monkeypatch.setenv("PCMOPT_WORKERS", "3")
    assert default_workers() == 3
    monkeypatch.delenv("PCMOPT_WORKERS")
    assert default_workers() >= 1


def test_default_workers_refuses_a_non_integer_by_name(monkeypatch):
    monkeypatch.setenv("PCMOPT_WORKERS", "abc")
    with pytest.raises(ValueError,
                       match="PCMOPT_WORKERS='abc' is not an integer"):
        default_workers()
    for low in ("0", "-3"):
        monkeypatch.setenv("PCMOPT_WORKERS", low)
        assert default_workers() == 1


def test_case_builders():
    values = {name: lo for name, (lo, hi) in PROPERTY_BOUNDS.items()}
    case = property_case(values)
    mat = case.pcm
    assert mat.T_m == 47.0
    assert mat.k_solid == mat.k_liquid == 10.0
    assert mat.rho_solid == 8780.0  # density stays at the base material

    geo = geometry_case({"H_um": 60.0, "W_um": 40.0, "T_m_C": 70.0},
                        dx=COARSE.dx)
    assert geo.cell.H == 60e-6
    assert geo.cell.dx == COARSE.dx
    assert geo.pcm.T_m == 70.0
    assert geo.pcm.L_H == 47730.0
    # the swept channel meshes at 40 um, where the reference one does not
    wide = geometry_case({"H_um": 100.0, "W_um": 100.0}, dx=40e-6)
    assert (wide.cell.H, wide.cell.W) == (100e-6, 100e-6)

    tm = property_case({"T_m_C": 55.0})
    assert tm.pcm.T_m == 55.0
    assert tm.cell == UnitCellSpec(H=100e-6, W=50e-6)

    # channel and material names apply together
    both = property_case({"H_um": 20.0, "W_um": 30.0, "T_m_C": 60.0,
                          "k_W_per_mK": 12.0}, cell=COARSE_CELL)
    assert (both.cell.H, both.cell.W) == (20e-6, 30e-6)
    assert both.cell.dx == COARSE.dx
    assert (both.pcm.T_m, both.pcm.k_liquid) == (60.0, 12.0)


def test_channel_dimensions_convert_to_their_literal_meters():
    """H_um and W_um become the channel their literal spelling names, to
    the bit: the reference design, and a channel at a voxel tie (1.5 and
    5.5 voxels of 10 um) meshed as its literal spelling meshes."""
    assert geometry_case({"H_um": 100.0, "W_um": 50.0}).cell == UnitCellSpec()
    tie = geometry_case({"H_um": 15.0, "W_um": 55.0}, dx=10e-6)
    literal = UnitCellSpec(H=15e-6, W=55e-6, dx=10e-6)
    assert np.array_equal(build_mesh(tie.cell).labels,
                          build_mesh(literal).labels)


@pytest.mark.parametrize("name", ["H", "tm_C", "rho_solid"])
def test_property_case_rejects_unknown_names(name):
    with pytest.raises(ValueError, match=f"'{name}'.*H_um"):
        property_case({"T_m_C": 70.0, name: 1.0})
    with pytest.raises(ValueError, match=f"'{name}'"):
        geometry_case({name: 1.0}, dx=10e-6)


def test_simulator_refuses_an_unknown_name_when_built(monkeypatch):
    """A name no case can take is refused by simulator itself, naming it
    and the known names, before any case runs."""
    ran = []
    monkeypatch.setattr(solver, "simulate", lambda case, **_: ran.append(case))
    with pytest.raises(ValueError, match=re.escape(
            "unknown swept parameters ['nope']; known: ['T_m_C', "
            "'L_H_J_per_kg', 'k_W_per_mK', 'cp_solid_J_per_kgK', "
            "'cp_liquid_J_per_kgK', 'H_um', 'W_um']")):
        simulator(["nope"], "T_o_max", COARSE)
    assert ran == []


def test_simulator_refuses_a_negative_power_when_built(monkeypatch):
    """A power no case can take is refused by simulator itself, not by the
    first case a search or a verification builds."""
    ran = []
    monkeypatch.setattr(solver, "simulate", lambda case, **_: ran.append(case))
    with pytest.raises(ValueError, match="q0 must be non-negative"):
        simulator(list(GEOMETRY_BOUNDS), "T_o_max", COARSE, power=-5)
    assert ran == []


def test_pcm_comparison_rows_and_artifacts(tmp_path):
    rows = run_pcm_comparison(out_dir=tmp_path, fidelity=COARSE)
    assert [r["material"] for r in rows[:2]] == ["Silicon", "Cerrolow117"]
    assert len(rows) == 8
    tms = [r["T_m_C"] for r in rows[1:]]
    assert tms == sorted(tms)
    assert len({r["config_hash"] for r in rows}) == 1
    assert (tmp_path / "results.csv").exists()
    summary = json.loads((tmp_path / "summary.json").read_text())
    assert summary["best_T_o_max"] == "Solder174"


def test_tm_study_band_and_optima(tmp_path):
    res = run_tm_study(power_levels=(100e3,), tm_step=10.0, out_dir=tmp_path,
                       fidelity=COARSE)
    d = res[100e3]
    assert [r["T_m_C"] for r in d["table"]] == [47.0, 57.0, 67.0, 77.0, 87.0]
    for r in d["table"]:
        assert r["band_hi_C"] >= r["band_lo_C"]
        assert r["T_osc"] == pytest.approx(r["band_hi_C"] - r["band_lo_C"])
    assert d["opt_T_m_for_T_o_max"] in [r["T_m_C"] for r in d["table"]]
    assert len(read_csv(tmp_path / "results.csv")) == 5


@pytest.mark.parametrize("study,refused", [
    (lambda: run_tm_study((100e3, 50e3, 100e3), 49.0, fidelity=COARSE),
     "power level 100000.0 is given more than once"),
    (lambda: run_tm_study((100e3,), 1e-4, fidelity=COARSE),
     "a grid from 47.0 to 96.0 at step 0.0001 exceeds cap 200000 points"),
    (lambda: run_tm_study((100e3,), np.inf, fidelity=COARSE),
     "a grid from 47.0 to 96.0 needs a finite positive step and lower <= "
     "upper, got step inf"),
    (lambda: emit_surface(
        SimpleNamespace(target_name="T_o_max_C",
                        input_names=list(GEOMETRY_BOUNDS)),
        fixed_tm=77.0, h_grid=np.linspace(20.0, 100.0, 1000),
        w_grid=np.linspace(20.0, 100.0, 1000), fidelity=COARSE),
     "1000000 grid points exceed cap 200000")],
    ids=["repeated_power", "tm_grid_past_the_cap", "tm_grid_infinite_step",
         "surface_past_the_cap"])
def test_a_study_refuses_a_repeated_power_or_a_grid_past_the_cap(
        monkeypatch, study, refused):
    """Before any case is built: a T_m study that would run a power level
    twice and report it once, a grid of more points than the cap, on one
    axis or across them, and a T_m step so long that it would give a grid
    of NaN (inf * 0)."""
    def never(*args, **kwargs):
        raise AssertionError("a case was built")

    for name in ("property_case", "geometry_case"):
        monkeypatch.setattr(studies, name, never)
    with pytest.raises(ValueError, match=re.escape(refused)):
        study()


@pytest.fixture(scope="module")
def small_campaign(tmp_path_factory):
    out = tmp_path_factory.mktemp("campaign")
    with pytest.MonkeyPatch.context() as mp:
        mp.setenv("PCMOPT_WORKERS", "1")
        csv_path = generate_training_data(
            "geometry", 10, out, seed=3, fidelity=COARSE)
    return out, csv_path


def test_campaign_rows_within_bounds(small_campaign):
    out, csv_path = small_campaign
    rows = read_csv(csv_path)
    assert len(rows) == 10
    for row in rows:
        for name, (lo, hi) in GEOMETRY_BOUNDS.items():
            assert lo <= float(row[name]) <= hi
        assert float(row["T_o_max_C"]) > 26.85
    assert len({row["config_hash"] for row in rows}) == 1
    summary = json.loads((out / "summary.json").read_text())
    assert summary["n_complete"] == 10 and summary["n_failed"] == 0


def test_campaign_resume_is_byte_identical(small_campaign, tmp_path):
    out, csv_path = small_campaign
    original = csv_path.read_bytes()
    # drop the assembled CSV and two per-case artifacts, then resume
    csv_path.unlink()
    (out / "cases" / "case_000003.json").unlink()
    (out / "cases" / "case_000007.json").unlink()
    again = generate_training_data("geometry", 10, out, seed=3,
                                   fidelity=COARSE)
    assert again.read_bytes() == original


def test_campaign_worker_count_does_not_change_results(small_campaign,
                                                       tmp_path, monkeypatch):
    out, csv_path = small_campaign
    monkeypatch.setenv("PCMOPT_WORKERS", "2")
    parallel = generate_training_data("geometry", 10, tmp_path, seed=3,
                                      fidelity=COARSE)
    assert parallel.read_bytes() == csv_path.read_bytes()


def test_a_failed_campaign_case_is_kept_out_and_not_rerun(tmp_path,
                                                         monkeypatch):
    monkeypatch.setenv("PCMOPT_WORKERS", "1")
    calls = []

    def third_fails(case, **settings):
        calls.append(case)
        if len(calls) == 3:
            raise SolverDivergence("diverged on purpose")
        return case

    # the seams: each case's transient, then the campaign's reduction of it
    monkeypatch.setattr(solver, "simulate", third_fails)
    monkeypatch.setattr(metrics, "compute_metrics",
                        lambda case: SimpleNamespace(
                            T_o_max=50.0 + case.cell.H * 1e6,
                            T_osc=case.cell.W * 1e6))
    with pytest.warns(UserWarning, match="case 2 failed: diverged on purpose"):
        csv_path = generate_training_data("geometry", 8, tmp_path,
                                          fidelity=COARSE)
    assert len(calls) == 8
    record = json.loads((tmp_path / "cases" / "case_000002.json").read_text())
    assert record["failed"] == "diverged on purpose"
    assert [int(r["case_index"]) for r in read_csv(csv_path)] == [
        0, 1, 3, 4, 5, 6, 7]
    summary = json.loads((tmp_path / "summary.json").read_text())
    assert (summary["n_requested"], summary["n_complete"],
            summary["n_failed"]) == (8, 7, 1)

    # a resume keeps the failure: nothing re-runs, and it warns again
    original = csv_path.read_bytes()
    with pytest.warns(UserWarning, match="case 2 failed"):
        again = generate_training_data("geometry", 8, tmp_path,
                                       fidelity=COARSE)
    assert len(calls) == 8
    assert again.read_bytes() == original


def test_a_dead_worker_aborts_the_campaign_and_loses_no_case(
        small_campaign, tmp_path, monkeypatch):
    """A worker that dies is no failed case: the campaign raises, the case
    it ran has no case file, and a resume completes the campaign."""
    out, csv_path = small_campaign
    inputs = json.loads((out / "cases" / "case_000004.json").read_text())
    doomed = geometry_case(inputs["inputs"], dx=COARSE.dx)
    parent, simulate = os.getpid(), solver.simulate

    def dies_in_a_worker(case, **settings):
        if case == doomed and os.getpid() != parent:
            os._exit(1)
        return simulate(case, **settings)

    monkeypatch.setenv("PCMOPT_WORKERS", "2")
    monkeypatch.setattr(solver, "simulate", dies_in_a_worker)
    with pytest.raises(concurrent.futures.BrokenExecutor):
        generate_training_data("geometry", 10, tmp_path, seed=3,
                               fidelity=COARSE)
    assert not (tmp_path / "cases" / "case_000004.json").exists()
    monkeypatch.setattr(solver, "simulate", simulate)
    again = generate_training_data("geometry", 10, tmp_path, seed=3,
                                   fidelity=COARSE)
    assert again.read_bytes() == csv_path.read_bytes()


def test_a_compact_case_file_still_resumes(tmp_path, monkeypatch):
    """Case files once were compact JSON with sorted keys; a campaign that
    holds them resumes without running a case."""
    monkeypatch.setenv("PCMOPT_WORKERS", "1")
    monkeypatch.setattr(solver, "simulate", lambda case, **settings: case)
    monkeypatch.setattr(metrics, "compute_metrics",
                        lambda case: SimpleNamespace(T_o_max=case.cell.H,
                                                     T_osc=case.cell.W))
    csv_path = generate_training_data("geometry", 3, tmp_path,
                                      fidelity=COARSE)
    written = csv_path.read_bytes()
    for path in (tmp_path / "cases").iterdir():
        path.write_text(json.dumps(json.loads(path.read_text()),
                                   sort_keys=True))
    csv_path.unlink()
    monkeypatch.setattr(solver, "simulate", None)  # so no case can run
    again = generate_training_data("geometry", 3, tmp_path, fidelity=COARSE)
    assert again.read_bytes() == written


def test_properties_campaign_honours_dx(tmp_path):
    csv_path = generate_training_data("properties", 1, tmp_path,
                                      fidelity=COARSE)
    inputs = json.loads(
        (tmp_path / "cases" / "case_000000.json").read_text())["inputs"]
    expect = simulate_metrics(property_case(inputs, cell=COARSE_CELL),
                              dt=COARSE.dt)
    assert float(read_csv(csv_path)[0]["T_o_max_C"]) == expect.T_o_max


def test_campaign_input_validation(tmp_path):
    with pytest.raises(ValueError):
        generate_training_data("geometry", 0, tmp_path)
    with pytest.raises(ValueError):
        generate_training_data("shapes", 5, tmp_path)
    with pytest.raises(ValueError):
        generate_training_data("tm", 5, tmp_path)
    assert not any(tmp_path.iterdir())


def test_campaign_resume_refuses_another_config(tmp_path):
    generate_training_data("geometry", 2, tmp_path, seed=0, fidelity=COARSE)
    files = sorted(p for p in tmp_path.rglob("*") if p.is_file())
    before = [p.read_bytes() for p in files]
    seed0 = config_hash(json.loads((tmp_path / "config.json").read_text()))
    with pytest.raises(ValueError, match=seed0) as err:
        generate_training_data("geometry", 2, tmp_path, seed=1,
                               fidelity=COARSE)
    assert len(set(re.findall(r"\b[0-9a-f]{12}\b", str(err.value)))) == 2
    assert sorted(p for p in tmp_path.rglob("*") if p.is_file()) == files
    assert [p.read_bytes() for p in files] == before


def test_campaign_resume_without_config_checks_each_case(tmp_path):
    own = {"seed": 0, "power": 100e3, "fidelity": COARSE}
    generate_training_data("geometry", 2, tmp_path, **own)
    (tmp_path / "config.json").unlink()
    files = sorted(p for p in tmp_path.rglob("*") if p.is_file())
    before = [p.read_bytes() for p in files]
    # another seed moves the sampled inputs; another power, mesh or solver
    # setting leaves them alone and is caught by each case's config hash
    for changed in ({"seed": 1}, {"power": 50e3},
                    {"fidelity": Fidelity(5e-6, COARSE.dt)},
                    {"fidelity": Fidelity(COARSE.dx, 0.05)}):
        with pytest.raises(ValueError, match="case_000000.json"):
            generate_training_data("geometry", 2, tmp_path,
                                   **{**own, **changed})
        assert sorted(p for p in tmp_path.rglob("*") if p.is_file()) == files
        assert [p.read_bytes() for p in files] == before
    # the campaign's own settings still resume it
    generate_training_data("geometry", 2, tmp_path, **own)
    assert [p.read_bytes() for p in files] == before


def test_campaign_resume_names_a_malformed_file(tmp_path):
    own = {"seed": 0, "fidelity": COARSE}
    generate_training_data("geometry", 2, tmp_path, **own)
    # each case file is written under a temporary name, then renamed
    assert sorted(p.name for p in (tmp_path / "cases").iterdir()) == [
        "case_000000.json", "case_000001.json"]
    for path, source in [(tmp_path / "cases" / "case_000001.json",
                          "case file"),
                         (tmp_path / "config.json", "file")]:
        intact = path.read_text()
        path.write_text(intact[:30])
        with pytest.raises(ValueError,
                           match=re.escape(f"{source} {path}: ")):
            generate_training_data("geometry", 2, tmp_path, **own)
        path.write_text(intact)
    # JSON, but not a record
    path = tmp_path / "cases" / "case_000000.json"
    path.write_text("[]")
    with pytest.raises(ValueError, match=re.escape(f"{path} is not a case")):
        generate_training_data("geometry", 2, tmp_path, **own)


def test_simulator_backend_evaluate_and_verify():
    backend = SimulatorBackend(
        lambda v: property_case(v, cell=COARSE_CELL), ["T_m_C"], "T_o_max",
        sim_kwargs={"dt": COARSE.dt})
    x = np.array([77.0])
    assert backend.evaluate(x) == pytest.approx(backend.verify(x))
    # one function on the class, which a wrapper there can time by name
    assert SimulatorBackend.__dict__["verify"] is \
        SimulatorBackend.__dict__["evaluate"]
    with pytest.raises(ValueError):
        SimulatorBackend(property_case, ["T_m_C"], "dt_85")


def test_simulator_scores_as_a_backend_built_by_hand():
    """simulator at COARSE scores a property point and a geometry point to
    the bits of a SimulatorBackend built by hand, pickled or not, and at
    REFERENCE as simulate_metrics scores the case geometry_case builds."""
    for names, x, power, builder in [
            (list(PROPERTY_BOUNDS), [76.33, 44907.0, 34.86, 401.0, 883.0],
             100e3, partial(property_case, cell=COARSE_CELL)),
            (list(GEOMETRY_BOUNDS), [60.0, 90.0, 77.0],
             75e3, partial(geometry_case, power=75e3, dx=COARSE.dx))]:
        by_hand = SimulatorBackend(builder, names, "T_o_max",
                                   sim_kwargs={"dt": COARSE.dt})
        backend = simulator(names, "T_o_max", COARSE, power)
        x = np.array(x)
        want = by_hand.evaluate(x)
        assert backend.evaluate(x) == want
        assert pickle.loads(pickle.dumps(backend)).evaluate(x) == want
    x = np.array([60.0, 90.0, 77.0])
    case = geometry_case(dict(zip(GEOMETRY_BOUNDS, x.tolist())))
    assert (simulator(list(GEOMETRY_BOUNDS), "T_osc").evaluate(x)
            == simulate_metrics(case).T_osc)


@pytest.mark.parametrize("settings,message", [
    ({"dt": 0.03}, "dt must divide both T_ON and PERIOD"),
    ({"dt": 1e300}, "dt must leave the heating and the cooling phase a "
                    "whole step each, got 1e+300"),
    ({"dtt": 0.025}, "unknown simulation settings ['dtt']; the only one is "
                     "'dt'"),
    ({"snapshot_every": 40}, "unknown simulation settings ['snapshot_every']; "
                             "the only one is 'dt'")],
    ids=["dt", "dt_beyond_the_phases", "unknown_key", "snapshot_every"])
def test_settings_simulate_refuses_are_refused_before_any_case_runs(
        tmp_path, monkeypatch, settings, message):
    """A backend's settings dict may set only dt. A bad dt is refused by
    its message where it is given: by a fidelity when built, and by a
    study handed a case, which takes dt alone. Any other setting is an
    unexpected keyword to every study; each is refused before a case runs
    or a pool starts."""
    def never(*args, **kwargs):
        raise AssertionError("a case ran or a worker pool started")

    # two workers, so that every study but the smallest would fan out
    monkeypatch.setenv("PCMOPT_WORKERS", "2")
    for owner, name in [(solver, "simulate"), (metrics, "simulate"),
                        (concurrent.futures, "ProcessPoolExecutor")]:
        monkeypatch.setattr(owner, name, never)
    with pytest.raises(ValueError, match=re.escape(message)):
        SimulatorBackend(geometry_case, list(GEOMETRY_BOUNDS), "T_o_max",
                         sim_kwargs=settings)
    if "dt" in settings:
        with pytest.raises(ValueError, match=re.escape(message)):
            Fidelity(COARSE.dx, **settings)
        with pytest.raises(ValueError, match=re.escape(message)):
            sensitivity(Case(cell=COARSE_CELL), **settings)
    else:
        with pytest.raises(TypeError, match="unexpected keyword argument"):
            generate_training_data("geometry", 3, tmp_path, fidelity=COARSE,
                                   **settings)
        for study, run in STUDIES.items():
            with pytest.raises(TypeError,
                               match="unexpected keyword argument"):
                run(tmp_path / study, COARSE, **settings)
    assert not any(tmp_path.iterdir())
    # so the directory still takes the corrected settings
    monkeypatch.undo()
    monkeypatch.setenv("PCMOPT_WORKERS", "1")
    generate_training_data("geometry", 3, tmp_path, fidelity=COARSE)
    summary = json.loads((tmp_path / "summary.json").read_text())
    assert (summary["n_complete"], summary["n_failed"]) == (3, 0)


def test_a_plain_wrapper_on_simulate_leaves_dt_settable(tmp_path,
                                                        monkeypatch):
    """A timer put on simulate without its signature, as (case, **kw),
    changes no study's or backend's settings: they run at the dt given."""
    monkeypatch.setenv("PCMOPT_WORKERS", "1")
    steps, simulate = [], solver.simulate

    def timed(case, **kw):
        steps.append(kw["dt"])
        return simulate(case, **kw)

    monkeypatch.setattr(solver, "simulate", timed)
    run_tm_study(power_levels=(100e3,), tm_step=49.0, fidelity=COARSE)
    generate_training_data("geometry", 1, tmp_path, fidelity=COARSE)
    backend = SimulatorBackend(lambda v: property_case(v, cell=COARSE_CELL),
                               ["T_m_C"], "T_o_max",
                               sim_kwargs={"dt": COARSE.dt})
    assert backend.evaluate(np.array([77.0])) > 26.85
    assert steps == [COARSE.dt] * 4


def test_equal_settings_hash_equally(tmp_path, monkeypatch):
    """A study's config records the fidelity's values themselves: the
    default fidelity given or left out, and a numpy float or a Python one,
    is one config."""
    monkeypatch.setenv("PCMOPT_WORKERS", "1")
    monkeypatch.setattr(solver, "simulate", lambda case, **settings: case)
    monkeypatch.setattr(metrics, "compute_metrics",
                        lambda case: SimpleNamespace(T_o_max=50.0, T_osc=1.0))

    def campaign_hash(name, **settings):
        generate_training_data("geometry", 1, tmp_path / name, **settings)
        summary = json.loads((tmp_path / name / "summary.json").read_text())
        return summary["config_hash"]

    assert campaign_hash("default") == campaign_hash(
        "given", fidelity=Fidelity(UnitCellSpec.dx, solver.DEFAULT_DT))
    assert campaign_hash("numpy", fidelity=Fidelity(
        np.float64(COARSE.dx), np.float64(COARSE.dt))) == campaign_hash(
        "float", fidelity=COARSE) != campaign_hash("default")


@pytest.mark.parametrize("fidelity,recorded", [
    (REFERENCE, {"pcm_comparison": "2688fe782dc6", "tm_study": "3007fa0f6e6d",
                 "campaign": "99de2aa85c1e"}),
    (COARSE, {"pcm_comparison": "5a88d19d5511", "tm_study": "f59a7731e7b9",
              "campaign": "cbdaad243c16"})], ids=["REFERENCE", "COARSE"])
def test_a_fidelity_keeps_the_config_hash_of_its_pieces(fidelity, recorded,
                                                        tmp_path,
                                                        monkeypatch):
    """Each study's config hash at a named fidelity is the one recorded
    when the studies took a cell (or dx) and dt in its place, which written
    studies and campaign case files carry. No transient runs: each is a
    one-cycle stand-in history, and every metrics report is the same."""
    monkeypatch.setenv("PCMOPT_WORKERS", "1")
    monkeypatch.setattr(solver, "simulate", lambda case, **_: ThermalHistory(
        t=np.array([0.5, 1.0]), T_max=np.array([50.0, 40.0]),
        phi_mean=np.zeros(2), dt=0.5, converged=True))
    monkeypatch.setattr(metrics, "compute_metrics", lambda history:
                        MetricsReport(50.0, 1.0, None, 0.0, 1, True))
    generate_training_data("geometry", 1, tmp_path, fidelity=fidelity)
    tm_rows = run_tm_study((100e3,), 49.0, fidelity=fidelity)[100e3]["table"]
    assert {"pcm_comparison":
            run_pcm_comparison(fidelity=fidelity)[0]["config_hash"],
            "tm_study": tm_rows[0]["config_hash"],
            "campaign": json.loads((tmp_path / "summary.json").read_text())[
                "config_hash"]} == recorded


def synthetic_pool(n, seed=0, target="T_osc_C"):
    rng = np.random.default_rng(seed)
    names = list(GEOMETRY_BOUNDS)
    lo = np.array([GEOMETRY_BOUNDS[k][0] for k in names])
    hi = np.array([GEOMETRY_BOUNDS[k][1] for k in names])
    X = rng.uniform(lo, hi, size=(n, 3))
    y = (100.0 - 0.1 * X[:, 0] - 0.05 * X[:, 1]
         + 0.01 * (X[:, 2] - 77.0) ** 2)
    return TrainingSet(X, y, names, target)


def test_surrogate_backend_verifies_through_simulator_stub():
    pool = synthetic_pool(200)
    model = train_lm(pool, seed=0)
    truth = FunctionBackend(lambda x: 100.0 - 0.1 * x[0] - 0.05 * x[1]
                            + 0.01 * (x[2] - 77.0) ** 2, **T_OSC_VERIFIER)
    backend = SurrogateBackend(model, truth)
    x = np.array([60.0, 60.0, 77.0])
    assert backend.evaluate(x) == pytest.approx(backend.verifier.verify(x),
                                                abs=2.0)
    assert backend.verifier.verify(x) == truth.evaluate(x)


def test_a_surrogate_search_verifies_its_optimum_once():
    def fn(x):
        return float(np.sum(x))

    calls = []

    class CountingTruth(FunctionBackend):
        def verify(self, x):
            calls.append(tuple(x))
            return super().verify(x)

    backend = SurrogateBackend(train_lm(synthetic_pool(200), seed=0),
                               CountingTruth(fn, **T_OSC_VERIFIER))
    # the network never answers for the simulator
    assert not hasattr(backend, "verify")
    problem = problem_from_bounds(
        GEOMETRY_BOUNDS, "T_osc", backend, seed=3,
        steps={"H_um": 20.0, "W_um": 20.0, "T_m_C": 7.0})
    for run in (lambda p: ga_minimize(p, GAConfig(max_generations=5)),
                lambda p: pso_minimize(p, PSOConfig(max_iterations=5)),
                lambda p: parametric_sweep(p)[0]):
        calls.clear()
        result = run(problem)
        assert calls == [tuple(result.parameters.values())]
        assert result.verified_objective == fn(np.array(calls[0]))
        assert result.verified_objective != result.objective_value


class RowwiseSurrogateBackend(SurrogateBackend):
    """SurrogateBackend without its batch override: the base class scores a
    population with one single-row predict per row."""

    evaluate_batch = Backend.evaluate_batch

    def evaluate(self, x):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            return predict(self.model, x)


@pytest.mark.parametrize("search", ["ga", "pso", "sweep"])
def test_batched_surrogate_search_matches_row_by_row(search):
    model = train_lm(synthetic_pool(200), seed=0)
    truth = FunctionBackend(lambda x: float(np.sum(x)), **T_OSC_VERIFIER)
    run = {"ga": lambda p: ga_minimize(p, GAConfig(max_generations=15)),
           "pso": lambda p: pso_minimize(p, PSOConfig(max_iterations=15)),
           "sweep": parametric_sweep}[search]
    results = []
    for backend in (SurrogateBackend(model, truth),
                    RowwiseSurrogateBackend(model, truth)):
        problem = problem_from_bounds(
            GEOMETRY_BOUNDS, "T_osc", backend, seed=3,
            steps={"H_um": 10.0, "W_um": 10.0, "T_m_C": 7.0})
        results.append(run(problem))
    batched, rowwise = results
    if search == "sweep":
        assert batched[1] == rowwise[1]  # every grid value, bit for bit
        batched, rowwise = batched[0], rowwise[0]
    for key in ("parameters", "objective_value", "verified_objective",
                "trace", "n_evaluations", "n_calls"):
        assert getattr(batched, key) == getattr(rowwise, key), key


def test_resampling_backend_fresh_retrains(monkeypatch):
    pool = synthetic_pool(120)
    truth = FunctionBackend(lambda x: float(x[0]), **T_OSC_VERIFIER)
    backend = ResamplingSurrogateBackend(pool, 60, truth, seed=0)
    x = np.array([50.0, 50.0, 70.0])
    assert backend.fresh(0) is backend
    other = backend.fresh(1)
    assert other.evaluate(x) != backend.evaluate(x)
    # a new backend, built (not copied) once per seed and then kept
    assert type(other) is ResamplingSurrogateBackend
    assert other.model.seed == 1
    assert backend.fresh(1) is other
    direct = ResamplingSurrogateBackend(pool, 60, truth, seed=1)
    for name in ("W1", "b1", "W2", "b2"):
        assert np.array_equal(getattr(other.model, name),
                              getattr(direct.model, name))
    with pytest.raises(ValueError):
        ResamplingSurrogateBackend(pool, 500, truth)
    # a 3-run search trains 3 models: its first run reuses the backend's own
    trained = []
    monkeypatch.setattr(studies, "train_lm", lambda *a, **kw: (
        trained.append(a) or train_lm(*a, **kw)))
    problem = problem_from_bounds(
        GEOMETRY_BOUNDS, "T_osc",
        ResamplingSurrogateBackend(pool, 60, truth, seed=0))
    repeat_with_seeds(problem, "ga", n_runs=3,
                      config=GAConfig(population=8, max_generations=3))
    assert len(trained) == 3


@pytest.mark.parametrize("size", [5, -3, 40])
def test_a_resampling_backend_refuses_an_untrainable_size_before_training(
        monkeypatch, size):
    """A size below train_lm's minimum, below zero or beyond the pool is
    refused by check_sizes' rule, naming the size and the pool, before a
    network trains."""
    trained = []
    monkeypatch.setattr(studies, "train_lm",
                        lambda *a, **kw: trained.append(a))
    with pytest.raises(ValueError, match=re.escape(
            f"training-set size {size} is not from 10 to 30, the pool's "
            "rows")):
        ResamplingSurrogateBackend(synthetic_pool(30), size,
                                   FunctionBackend(float, **T_OSC_VERIFIER))
    assert trained == []


def test_a_surrogate_backend_refuses_a_model_of_another_objective():
    """A network must predict the verifier's objective column from the
    search parameters, by name and in their order, whichever backend
    builds on it."""
    pool = synthetic_pool(120)  # T_osc_C from the three geometry inputs
    model = train_lm(pool, seed=0)
    for objective, names in [("T_o_max", list(GEOMETRY_BOUNDS)),
                             ("T_osc", ["H_um", "W_um"]),
                             ("T_osc", ["W_um", "H_um", "T_m_C"])]:
        verifier = FunctionBackend(float, objective, names)
        with pytest.raises(ValueError, match=re.escape(
                f"the model predicts 'T_osc_C' from {list(GEOMETRY_BOUNDS)}; "
                f"{objective} needs {objective + '_C'!r} from {names}, in "
                "that order")):
            SurrogateBackend(model, verifier)
    with pytest.raises(ValueError, match=re.escape(
            "the pool predicts 'T_osc_C' from ['H_um', 'W_um', 'T_m_C']; "
            "T_o_max needs 'T_o_max_C' from ['H_um', 'W_um', 'T_m_C'], in "
            "that order")):
        ResamplingSurrogateBackend(
            pool, 60, FunctionBackend(float, "T_o_max", GEOMETRY_BOUNDS))


@pytest.mark.parametrize("names,target", [
    (list(GEOMETRY_BOUNDS), "T_o_max_C"),
    (list(PROPERTY_BOUNDS)[:3], "T_osc_C")],
    ids=["another_target", "other_names"])
def test_a_resampling_backend_refuses_a_pool_of_other_columns_before_training(
        monkeypatch, names, target):
    """A pool of another target, or of other inputs as many as the
    verifier's, is refused before a network trains on it."""
    data = synthetic_pool(60)
    pool = TrainingSet(data.X, data.y, names, target)
    trained = []
    monkeypatch.setattr(studies, "train_lm",
                        lambda *a, **kw: trained.append(a))
    with pytest.raises(ValueError, match=re.escape(
            f"the pool predicts {target!r} from {names}; T_osc needs "
            "'T_osc_C' from ['H_um', 'W_um', 'T_m_C'], in that order")):
        ResamplingSurrogateBackend(pool, 40,
                                   FunctionBackend(float, **T_OSC_VERIFIER))
    assert trained == []


def test_problem_from_bounds():
    problem = problem_from_bounds(GEOMETRY_BOUNDS, "T_osc",
                                  FunctionBackend(lambda x: 0.0),
                                  steps={"T_m_C": 1.0})
    assert problem.names == ["H_um", "W_um", "T_m_C"]
    assert problem.parameters[2].step == 1.0
    assert list(problem.lower) == [20.0, 20.0, 47.0]


SWAPPED = {name: GEOMETRY_BOUNDS[name] for name in ("W_um", "H_um", "T_m_C")}


@pytest.mark.parametrize("bounds,objective,backend,refused", [
    (SWAPPED, "T_o_max", "T_o_max", "the backend predicts 'T_o_max_C' from "
     "['H_um', 'W_um', 'T_m_C']; T_o_max needs 'T_o_max_C' from "
     "['W_um', 'H_um', 'T_m_C'], in that order"),
    (GEOMETRY_BOUNDS, "T_osc", "T_o_max", "the backend predicts 'T_o_max_C' "
     "from ['H_um', 'W_um', 'T_m_C']; T_osc needs 'T_osc_C' from "
     "['H_um', 'W_um', 'T_m_C'], in that order"),
    (SWAPPED, "T_osc", "surrogate", "the verifier predicts 'T_osc_C' from "
     "['H_um', 'W_um', 'T_m_C']; T_osc needs 'T_osc_C' from "
     "['W_um', 'H_um', 'T_m_C'], in that order"),
    (GEOMETRY_BOUNDS, "T_o_max", "verified_as_T_osc", "the verifier predicts "
     "'T_osc_C' from ['H_um', 'W_um', 'T_m_C']; T_o_max needs 'T_o_max_C' "
     "from ['H_um', 'W_um', 'T_m_C'], in that order"),
    (GEOMETRY_BOUNDS, "foo", "T_o_max", "unknown objective 'foo'; known: "
     "['T_o_max', 'T_osc']")],
    ids=["order", "objective", "surrogate_verifier", "verifier",
         "unknown_objective"])
def test_problem_from_bounds_refuses_a_backend_of_other_names(
        bounds, objective, backend, refused):
    """A backend reads a point's values by its own parameter names, so one
    that names others, or another objective, than the problem is refused by
    check_columns, as is a surrogate's or a simulator's verifier that does,
    and a problem objective no column holds."""
    if backend == "surrogate":
        backend = SurrogateBackend(train_lm(synthetic_pool(60), seed=0),
                                   FunctionBackend(float, **T_OSC_VERIFIER))
    elif backend == "verified_as_T_osc":
        backend = simulator(list(GEOMETRY_BOUNDS), "T_o_max", COARSE)
        backend.verifier = simulator(list(GEOMETRY_BOUNDS), "T_osc")
    else:
        backend = simulator(list(GEOMETRY_BOUNDS), backend, COARSE)
    with pytest.raises(ValueError, match=re.escape(refused)):
        problem_from_bounds(bounds, objective, backend)


def test_ablation_structure_with_synthetic_truth(monkeypatch):
    pool = synthetic_pool(300, seed=1)
    test = synthetic_pool(100, seed=2)
    truth = FunctionBackend(lambda x: 100.0 - 0.1 * x[0] - 0.05 * x[1]
                            + 0.01 * (x[2] - 77.0) ** 2, **T_OSC_VERIFIER)
    trained = []
    monkeypatch.setattr(studies, "train_lm", lambda *a, **kw: (
        trained.append(a) or train_lm(*a, **kw)))
    report = run_ablation(pool, test, sizes=(40, 200), verifier=truth,
                          repeats=3)
    # one network per (size, seed), scored and searched alike
    assert len(trained) == 3 * 2
    monkeypatch.undo()
    for entry in report:
        assert entry["r_squared"] == value_range(
            [r_squared(ResamplingSurrogateBackend(pool, entry["size"], truth,
                                                  seed=s).model, test)
             for s in range(3)])
    assert [e["size"] for e in report] == [40, 200]
    for entry in report:
        assert entry["r_squared"]["min"] <= entry["r_squared"]["mean"] \
            <= entry["r_squared"]["max"]
        assert entry["ga"]["n_runs"] == entry["pso"]["n_runs"] == 3
    assert report[1]["r_squared"]["mean"] >= report[0]["r_squared"]["mean"]


def test_ablation_refuses_a_test_set_of_another_column_before_training(
        monkeypatch):
    """A T_o_max_C test set against a T_osc verifier is refused before any
    network trains, naming both columns, rather than scored."""
    trained = []
    monkeypatch.setattr(studies, "train_lm",
                        lambda *a, **kw: trained.append(a))
    truth = FunctionBackend(float, **T_OSC_VERIFIER)
    with pytest.raises(ValueError, match=re.escape(
            "the test set predicts 'T_o_max_C' from ['H_um', 'W_um', "
            "'T_m_C']; T_osc needs 'T_osc_C' from ['H_um', 'W_um', "
            "'T_m_C'], in that order")):
        run_ablation(synthetic_pool(60), synthetic_pool(60, target="T_o_max_C"),
                     sizes=(40,), verifier=truth, repeats=2)
    assert trained == []


def properties_pool(n):
    """A T_osc_C pool over the five property inputs."""
    X = np.random.default_rng(0).uniform(size=(n, len(PROPERTY_BOUNDS)))
    return TrainingSet(X, X.sum(axis=1), list(PROPERTY_BOUNDS), "T_osc_C")


def swapped(data):
    """data with its W_um column ahead of its H_um one."""
    return TrainingSet(data.X[:, [1, 0, 2]], data.y,
                       ["W_um", "H_um", "T_m_C"], data.target_name)


#: what the ablation's T_osc verifier needs of the pool and the test set
T_OSC_NEEDS = ("; T_osc needs 'T_osc_C' from ['H_um', 'W_um', 'T_m_C'], in "
               "that order")


@pytest.mark.parametrize("pool,test,refused", [
    (swapped(synthetic_pool(60)), synthetic_pool(60),
     "the pool predicts 'T_osc_C' from ['W_um', 'H_um', 'T_m_C']"),
    (synthetic_pool(60), swapped(synthetic_pool(60)),
     "the test set predicts 'T_osc_C' from ['W_um', 'H_um', 'T_m_C']"),
    (properties_pool(60), synthetic_pool(60),
     f"the pool predicts 'T_osc_C' from {list(PROPERTY_BOUNDS)}"),
    (synthetic_pool(60, target="T_o_max_C"), synthetic_pool(60),
     "the pool predicts 'T_o_max_C' from ['H_um', 'W_um', 'T_m_C']")],
    ids=["pool_order", "test_order", "properties_pool", "pool_target"])
def test_ablation_refuses_a_set_of_other_columns_before_training(
        monkeypatch, pool, test, refused):
    """The pool, like the test set, must target the verifier's column from
    GEOMETRY_BOUNDS' inputs in their order, since its rows train the
    network that the search reads by those names; it is refused before
    any network trains."""
    trained = []
    monkeypatch.setattr(studies, "train_lm",
                        lambda *a, **kw: trained.append(a))
    with pytest.raises(ValueError, match=re.escape(refused + T_OSC_NEEDS)):
        run_ablation(pool, test, sizes=(40,),
                     verifier=FunctionBackend(float, **T_OSC_VERIFIER),
                     repeats=2)
    assert trained == []


@pytest.mark.parametrize("sizes,repeats,refused", [
    ((40, 9), 2, "training-set size 9 is not from 10 to 60, the pool's rows"),
    ((40, 61), 2,
     "training-set size 61 is not from 10 to 60, the pool's rows"),
    ((40, 40), 2, "training-set size 40 is given more than once"),
    ((40,), 1, "repeats must be at least 2, got 1"),
    ((40,), 0, "repeats must be at least 2, got 0"),
    ((40,), -2, "repeats must be at least 2, got -2")],
    ids=["9", "61", "repeated_size", "repeats_1", "repeats_0", "repeats_-2"])
def test_ablation_refuses_an_untrainable_size_before_training(
        monkeypatch, sizes, repeats, refused):
    """A size below train_lm's minimum or above the pool, a size given
    twice (which would train and search it twice), or fewer than the two
    repeats a spread needs, is refused before the sizes ahead of it train
    and search."""
    trained = []
    monkeypatch.setattr(studies, "train_lm",
                        lambda *a, **kw: trained.append(a))
    truth = FunctionBackend(float, **T_OSC_VERIFIER)
    with pytest.raises(ValueError, match=re.escape(refused)):
        run_ablation(synthetic_pool(60), synthetic_pool(60), sizes=sizes,
                     verifier=truth, repeats=repeats)
    assert trained == []


def test_ablation_refuses_a_verifier_of_other_names_before_training(
        monkeypatch):
    """A verifier that reads a point as W, H, T_m scores no optimum of the
    H, W, T_m search; it is refused before any network trains."""
    trained = []
    monkeypatch.setattr(studies, "train_lm",
                        lambda *a, **kw: trained.append(a))
    verifier = FunctionBackend(float, "T_osc", ["W_um", "H_um", "T_m_C"])
    with pytest.raises(ValueError, match=re.escape(
            "the backend predicts 'T_osc_C' from ['W_um', 'H_um', 'T_m_C']; "
            "T_osc needs 'T_osc_C' from ['H_um', 'W_um', 'T_m_C'], in that "
            "order")):
        run_ablation(synthetic_pool(60), synthetic_pool(60), sizes=(40,),
                     verifier=verifier, repeats=3)
    assert trained == []


def test_emit_surface(tmp_path):
    pool = synthetic_pool(150, target="T_o_max_C")
    model = train_lm(pool, seed=4)
    out = tmp_path / "surface.csv"
    rows = emit_surface(model, fixed_tm=77.0, h_grid=[40.0, 100.0],
                        w_grid=[40.0, 100.0], out_path=out, fidelity=COARSE)
    assert len(rows) == 4
    for r in rows:
        assert r["T_sim_C"] > 26.85
    assert len(read_csv(out)) == 4
    assert list(read_csv(out)[0]) == ["H_um", "W_um", "T_m_C", "T_nn_C",
                                      "T_sim_C"]


def test_emit_surface_refuses_a_model_of_another_objective(tmp_path,
                                                           monkeypatch):
    monkeypatch.setenv("PCMOPT_WORKERS", "1")
    ran = []
    monkeypatch.setattr(solver, "simulate",
                        lambda case, **_: ran.append(case))
    out = tmp_path / "surface.csv"
    with pytest.raises(ValueError, match=re.escape(
            "the model predicts 'T_osc_C' from ['H_um', 'W_um', 'T_m_C']; "
            "T_o_max needs 'T_o_max_C' from ['H_um', 'W_um', 'T_m_C'], in "
            "that order")):
        emit_surface(train_lm(synthetic_pool(150), seed=4), fixed_tm=77.0,
                     h_grid=[40.0], w_grid=[40.0], out_path=out,
                     fidelity=COARSE)
    assert ran == [] and not out.exists()


def _surface(out, fidelity, **settings):
    model = train_lm(synthetic_pool(150, target="T_o_max_C"), seed=4)
    return emit_surface(model, fixed_tm=77.0, h_grid=[40.0, 70.0, 100.0],
                        w_grid=[40.0, 100.0], out_path=out / "surface.csv",
                        fidelity=fidelity, **settings)


#: Every study but the campaign: (out_dir, fidelity, **settings) -> its
#: return value. Sensitivity is handed the reference channel at the
#: fidelity's mesh, and takes its step.
STUDIES = {
    "pcm_comparison": lambda out, fidelity, **settings: run_pcm_comparison(
        out_dir=out, fidelity=fidelity, **settings),
    "tm_study": lambda out, fidelity, **settings: run_tm_study(
        power_levels=(50e3, 100e3), tm_step=10.0, out_dir=out,
        fidelity=fidelity, **settings),
    "sensitivity": lambda out, fidelity, **settings: sensitivity(
        Case(cell=UnitCellSpec(dx=fidelity.dx)), dt=fidelity.dt, **settings),
    "surface": _surface,
}


@pytest.mark.parametrize("study", list(STUDIES))
def test_study_results_do_not_depend_on_worker_count(study, tmp_path,
                                                     monkeypatch):
    results, files = [], []
    for workers in ("1", "2"):
        monkeypatch.setenv("PCMOPT_WORKERS", workers)
        out = tmp_path / workers
        out.mkdir()
        results.append(STUDIES[study](out, COARSE))
        files.append({p.name: p.read_bytes() for p in out.iterdir()})
    assert results[0] == results[1]
    assert files[0] == files[1]


@pytest.mark.parametrize("workers", ["1", "2"])
def test_the_case_runner_yields_each_transient_with_its_stats(workers,
                                                             monkeypatch):
    """evaluate_cases yields each case's whole history, also from a worker
    process, so the parent reduces it and reads its stats()."""
    monkeypatch.setenv("PCMOPT_WORKERS", workers)
    cases = [property_case({"T_m_C": tm}, cell=COARSE_CELL)
             for tm in (60.0, 77.0)]
    for case, h in zip(cases, studies.evaluate_cases(cases, COARSE.dt)):
        alone = solver.simulate(case, dt=COARSE.dt)
        assert isinstance(h, solver.ThermalHistory)
        assert np.array_equal(h.T_max, alone.T_max)
        stats, want = h.stats(), alone.stats()
        assert stats.pop("phase_s").keys() == want.pop("phase_s").keys()
        assert stats == want


@pytest.mark.parametrize("workers", ["1", "2"])
def test_a_failed_case_raises_its_own_exception_from_a_study(workers,
                                                             monkeypatch):
    """A study other than the campaign raises its first failed case's
    exception, type and message, also across the worker process boundary."""
    monkeypatch.setenv("PCMOPT_WORKERS", workers)
    base = Case(cell=COARSE_CELL)

    def diverges_at_higher_k(case, **settings):
        if case.pcm.k_solid > base.pcm.k_solid:
            raise SolverDivergence(f"diverged in process {os.getpid()}")
        return case

    monkeypatch.setattr(solver, "simulate", diverges_at_higher_k)
    monkeypatch.setattr(metrics, "compute_metrics",
                        lambda case: SimpleNamespace(T_o_max=case.pcm.T_m,
                                                     T_osc=case.pcm.L_H))
    # 11 cases: at two workers, the k + 10 % case runs in a worker
    with pytest.raises(SolverDivergence, match="diverged in process") as err:
        sensitivity(base, dt=COARSE.dt)
    in_worker = str(err.value) != f"diverged in process {os.getpid()}"
    assert in_worker == (workers == "2")
    # the raising function is named, from the worker's traceback there
    assert "diverges_at_higher_k" in "".join(
        traceback.format_exception(err.value))


def test_a_failed_case_raises_from_the_simulator_backend(monkeypatch):
    def diverges(case, **settings):
        raise SolverDivergence("diverged on purpose")

    monkeypatch.setattr(solver, "simulate", diverges)
    backend = SimulatorBackend(lambda v: property_case(v, cell=COARSE_CELL),
                               ["T_m_C"], "T_o_max",
                               sim_kwargs={"dt": COARSE.dt})
    with pytest.raises(SolverDivergence, match="diverged on purpose"):
        backend.evaluate(np.array([77.0]))
    # so a search scores the point +inf and names the reason
    problem = problem_from_bounds({"T_m_C": (70.0, 80.0)}, "T_o_max", backend,
                                  steps={"T_m_C": 10.0})
    with pytest.warns(UserWarning, match=re.escape(
            "objective evaluation failed (diverged on purpose); "
            "penalized with +inf")):
        _, table = parametric_sweep(problem)
    assert [row["T_o_max"] for row in table] == [np.inf, np.inf]
