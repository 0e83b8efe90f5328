import csv
import json
import os
import re
import subprocess
import sys
import warnings
from dataclasses import asdict
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

import pcmopt
from pcmopt import metrics, solver, studies
from pcmopt.cli import _load_problem, build_parser, main
from pcmopt.geometry import Case, PowerProfile, UnitCellSpec
from pcmopt.materials import PCM_NAMES, builtin_material
from pcmopt.metrics import simulate_metrics
from pcmopt.solver import (COARSE, DEFAULT_DT, MAX_STEP_RESIDUAL, PHASES,
                           REFERENCE, Fidelity)
from pcmopt.studies import (GEOMETRY_BOUNDS, PROPERTY_BOUNDS,
                            SENSITIVITY_PROPERTIES)
from pcmopt.surrogate import SurrogateModel, load_training_csv, train_lm

SUBCOMMANDS = ["simulate", "metrics", "compare-pcms", "sweep", "optimize",
               "generate", "train", "ablation", "surface", "sensitivity"]


# a stand-in for SurrogateModel.load that gives what surface accepts: a
# T_o_max network over the three geometry inputs
SURFACE_MODEL = staticmethod(
    lambda _: SimpleNamespace(target_name="T_o_max_C",
                              input_names=list(GEOMETRY_BOUNDS)))


def coarse_case_file(tmp_path, **cell_kwargs):
    path = tmp_path / "case.json"
    case = Case(cell=UnitCellSpec(dx=COARSE.dx, **cell_kwargs),
                power=PowerProfile(q0=100e3))
    path.write_text(json.dumps(asdict(case)))
    return str(path)


def test_every_subcommand_is_registered():
    parser = build_parser()
    for sub in SUBCOMMANDS:
        with pytest.raises(SystemExit) as exc:
            parser.parse_args([sub, "--help"])
        assert exc.value.code == 0


def test_metrics_command_prints_report(tmp_path, capsys):
    case = coarse_case_file(tmp_path, no_channel=True)
    out = tmp_path / "metrics.json"
    assert main(["metrics", "--case", case, "--dt-ms", "25",
                 "--out", str(out)]) == 0
    report = json.loads(out.read_text())
    assert report["T_o_max"] == pytest.approx(97.7, abs=3.0)
    assert report["dPhi_melt"] == 0.0
    assert report["converged"] is True
    # the file is the printed text, ending as every JSON file written does
    assert out.read_text() + "\n" == capsys.readouterr().out


def test_material_and_material_file_are_exclusive(tmp_path, capsys):
    material = tmp_path / "material.json"
    material.write_text(json.dumps(asdict(builtin_material("WoodsMetal"))))
    with pytest.raises(SystemExit) as exc:
        main(["metrics", "--material", "Solder174",
              "--material-file", str(material)])
    assert exc.value.code == 2
    assert "not allowed with argument" in capsys.readouterr().err


def test_metrics_stats_flag_adds_run_counters(tmp_path, capsys):
    case = coarse_case_file(tmp_path)
    assert main(["metrics", "--case", case, "--dt-ms", "25"]) == 0
    plain = json.loads(capsys.readouterr().out)
    assert "stats" not in plain
    assert main(["metrics", "--case", case, "--dt-ms", "25", "--stats"]) == 0
    report = json.loads(capsys.readouterr().out)
    stats = report.pop("stats")
    assert report == plain
    # the 10 um Solder 174 channel at 25 ms: 1080 steps, 921 factorizations
    assert stats["steps"] == 1080
    assert stats["cycles"] == 1080 // 40
    assert stats["n_factorizations"] == 921
    assert 0.0 <= stats["worst_step_residual"] <= MAX_STEP_RESIDUAL
    assert 0.0 <= stats["energy_residual"] < 1e-6
    assert tuple(stats["phase_s"]) == PHASES
    assert all(v >= 0.0 for v in stats["phase_s"].values())


def test_metrics_rejects_unknown_material(capsys):
    assert main(["metrics", "--material", "Adamantium"]) == 2
    valid = ", ".join(sorted([*PCM_NAMES, "Alumina", "Silicon"]))
    assert capsys.readouterr().err == (
        "pcmopt metrics: error: unknown material 'Adamantium'; "
        f"valid names: {valid}\n")


def test_input_error_is_one_stderr_line(tmp_path, capsys):
    case = tmp_path / "case.json"
    case.write_text(json.dumps({"cell": {"no_channel": "false"}}))
    # the convection and the fixed stack are constants, not case keys
    boundary = tmp_path / "boundary.json"
    boundary.write_text(json.dumps({"boundary": {"h": 500}}))
    pitch = tmp_path / "pitch.json"
    pitch.write_text(json.dumps({"cell": {"pitch": 1e-4}}))
    # builds no mesh: the half pitch snaps to no voxels
    coarse = tmp_path / "coarse.json"
    coarse.write_text(json.dumps({"cell": {"dx": 7e-5, "no_channel": True}}))
    # 2.6 s would run three cycles
    duration = tmp_path / "duration.json"
    duration.write_text(json.dumps({"power": {"duration": 2.6}}))
    material = tmp_path / "material.json"
    material.write_text(json.dumps(
        {**asdict(builtin_material("WoodsMetal")), "T_m": float("nan")}))
    campaign = ["generate", "--n", "3", "--out", str(tmp_path / "o")]
    for argv, message in [
            (["metrics", "--flux-kw-m2", "-5"], "q0 must be non-negative"),
            (["simulate", "--material-file", str(material),
              "--out", str(tmp_path / "o")],
             f"file {material}: T_m must be finite, got nan"),
            (["simulate", "--case", str(case), "--out", str(tmp_path / "o")],
             f"case file {case}: case cell: no_channel must be a bool, "
             "got 'false'"),
            (["simulate", "--case", str(boundary), "--out",
              str(tmp_path / "o")],
             f"case file {boundary}: case: unknown keys ['boundary']; "
             "expected an object with keys cell, power, pcm"),
            (["metrics", "--case", str(pitch)],
             f"case file {pitch}: case cell: unknown keys ['pitch']; "
             "expected an object with keys H, W, dx, no_channel"),
            (["metrics", "--case", str(coarse)],
             f"case file {coarse}: case cell: dx=7e-05 is too large: half "
             "the channel pitch snaps to no voxels"),
            (["metrics", "--case", str(duration)],
             f"case file {duration}: case power: duration must be a whole "
             "number of periods, got 2.6"),
            # a campaign refuses what no sample could run with
            (campaign + ["--kind", "geometry", "--dx-um", "0"],
             "dx must be positive"),
            (campaign + ["--kind", "properties", "--power", "-5"],
             "q0 must be non-negative"),
            # no properties sample moves the reference channel off 40 um
            (campaign + ["--kind", "properties", "--dx-um", "40"],
             "at dx=4e-05 the height or half width of channel H=0.0001, "
             "W=5e-05 snaps to no voxels; use no_channel for the "
             "solid-silicon baseline"),
            # one voxel wide: the simulated half holds none of it
            (["metrics", "--width-um", "5"],
             "at dx=5e-06 the height or half width of channel H=0.0001, "
             "W=5e-06 snaps to no voxels; use no_channel for the "
             "solid-silicon baseline"),
            (["simulate", "--no-channel", "--snapshot-every", "0", "--out",
              str(tmp_path / "o")],
             "snapshot_every must be a positive integer, got 0"),
            # no whole step in either phase (numpy's reduction error before)
            (["metrics", "--dt-ms", "1e303"],
             "dt must leave the heating and the cooling phase a whole step "
             "each, got 1e+300")]:
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"pcmopt {argv[0]}: error: ")
        assert err.count("\n") == 1 and err.endswith(f"{message}\n")
    assert not (tmp_path / "o").exists()


def test_module_entry_point_exits_2_with_one_stderr_line():
    """python -m pcmopt.cli passes main's status to the shell."""
    src = str(Path(pcmopt.__file__).resolve().parents[1])
    proc = subprocess.run(
        [sys.executable, "-m", "pcmopt.cli", "metrics", "--flux-kw-m2", "-5"],
        env={**os.environ, "PYTHONPATH": src}, capture_output=True,
        text=True, timeout=120)
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert proc.stderr == ("pcmopt metrics: error: q0 must be "
                           "non-negative\n")


# each JSON input file, as the last argument of a command that reads it
JSON_INPUTS = {
    "case": ["simulate", "--out", "{tmp}/o", "--case"],
    "material": ["simulate", "--out", "{tmp}/o", "--material-file"],
    "problem": ["optimize", "--strategy", "ga", "--problem"],
    "model": ["surface", "--tm", "70", "--out", "{tmp}/o", "--model"],
}


@pytest.mark.parametrize("kind", list(JSON_INPUTS))
def test_missing_or_malformed_input_file_is_one_line_naming_it(
        tmp_path, capsys, kind):
    missing = tmp_path / "missing.json"
    malformed = tmp_path / "malformed.json"
    malformed.write_text('{"cell": {"dx": 1e-5}\n"power": {}}\n')
    for path, reason in [(missing, "No such file or directory"),
                         (malformed, "Expecting ',' delimiter")]:
        argv = [a.format(tmp=tmp_path) for a in JSON_INPUTS[kind]]
        assert main([*argv, str(path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"pcmopt {argv[0]}: error: ")
        assert err.count("\n") == 1
        assert str(path) in err and reason in err
    assert not (tmp_path / "o").exists()


def test_simulate_writes_history_and_snapshots(tmp_path):
    case = coarse_case_file(tmp_path)
    out = tmp_path / "run"
    assert main(["simulate", "--case", case, "--dt-ms", "25",
                 "--out", str(out), "--snapshot-every", "40"]) == 0
    with open(out / "history.csv", newline="") as f:
        rows = list(csv.DictReader(f))
    assert rows and set(rows[0]) == {"t_s", "T_max_C", "phi_mean"}
    config = json.loads((out / "config.json").read_text())
    assert config["converged"] is True
    snaps = sorted(out.glob("snapshot_*.csv"))
    assert snaps
    with open(snaps[0], newline="") as f:
        srows = list(csv.DictReader(f))
    assert set(srows[0]) == {"x_um", "y_um", "T_C", "phi"}
    assert len(srows) == 150  # 30 x 5 voxels at dx = 10 um


def test_generate_train_optimize_surface_chain(tmp_path, capsys):
    camp = tmp_path / "camp"
    assert main(["generate", "--kind", "geometry", "--n", "12",
                 "--out", str(camp), "--dx-um", "10", "--seed", "5"]) == 0

    model = tmp_path / "model.json"
    capsys.readouterr()
    assert main(["train", "--data", str(camp / "results.csv"),
                 "--target", "tomax", "--out", str(model)]) == 0
    record = json.loads(model.read_text())
    assert (record["target_name"], record["input_names"]) == (
        "T_o_max_C", ["H_um", "W_um", "T_m_C"])
    # the columns it trained on, to match a problem file's bounds against
    assert capsys.readouterr().out.startswith(
        f"model saved to {model}: T_o_max_C from ['H_um', 'W_um', 'T_m_C'] "
        "(train R^2 = ")

    problem = tmp_path / "problem.json"
    problem.write_text(json.dumps({
        "objective": "T_o_max", "dx": COARSE.dx, "dt": COARSE.dt,
        "bounds": {"H_um": [20, 100], "W_um": [20, 100],
                   "T_m_C": [47, 96]}}))
    result_path = tmp_path / "result.json"
    assert main(["optimize", "--problem", str(problem), "--strategy", "ga",
                 "--backend", f"nn:{model}", "--seed", "0",
                 "--out", str(result_path)]) == 0
    result = json.loads(result_path.read_text())["result"]
    assert set(result["parameters"]) == {"H_um", "W_um", "T_m_C"}
    assert result["strategy"] == "ga"
    # the verified value always comes from the simulator
    assert result["verified_objective"] > 26.85

    surface = tmp_path / "surface.csv"
    assert main(["surface", "--model", str(model), "--tm", "77",
                 "--h-grid", "40:100:60", "--w-grid", "40:100:60",
                 "--dx-um", "10", "--out", str(surface)]) == 0
    with open(surface, newline="") as f:
        rows = list(csv.DictReader(f))
    assert len(rows) == 4
    capsys.readouterr()


def test_sweep_command_with_grid_problem(tmp_path, capsys):
    problem = tmp_path / "problem.json"
    problem.write_text(json.dumps({
        "objective": "T_o_max",
        "dt": 0.025,
        "bounds": {"T_m_C": [70, 80]}, "steps": {"T_m_C": 5.0}}))
    # grid sweeps run through the same optimize entry point
    assert main(["optimize", "--problem", str(problem),
                 "--strategy", "sweep"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert len(payload["table"]) == 3
    assert payload["result"]["strategy"] == "sweep"


def test_grids_end_at_or_below_their_upper_end(tmp_path, capsys,
                                              monkeypatch):
    """A step that does not divide the range stops short of its upper end,
    in the T_m sweep and on both surface axes; the default grids are the
    inclusive ones they always were, to the bit."""
    monkeypatch.setenv("PCMOPT_WORKERS", "1")
    # the case runner's seams: no transient runs, and each T_m point's
    # history reduces to a constant row
    monkeypatch.setattr(solver, "simulate", lambda case, **_: None)
    monkeypatch.setattr(studies, "_tm_row", lambda history: {
        "T_o_max": 0.0, "T_osc": 0.0, "band_hi_C": 0.0, "band_lo_C": 0.0})
    monkeypatch.setattr(SurrogateModel, "load", SURFACE_MODEL)
    grids = []
    monkeypatch.setattr(studies, "emit_surface",
                        lambda model, fixed_tm, h_grid, w_grid, **_:
                        grids.append((h_grid.tolist(), w_grid.tolist())) or [])

    def swept(*flags):
        out = tmp_path / "sweep"
        assert main(["sweep", *flags, "--out", str(out)]) == 0
        with open(out / "results.csv", newline="") as f:
            return [float(r["T_m_C"]) for r in csv.DictReader(f)]

    assert swept("--tm-step", "30") == [47.0, 77.0]
    assert swept("--tm-step", "0.6")[-1] == 47.0 + 0.6 * 81 < 96.0
    assert swept() == np.arange(47.0, 96.5, 1.0).tolist()
    for flags in (["--h-grid", "20:100:30", "--w-grid", "20:100:30"], []):
        assert main(["surface", "--model", "m.json", "--tm", "77",
                     "--out", str(tmp_path / "s.csv"), *flags]) == 0
    capsys.readouterr()
    assert grids == [([20.0, 50.0, 80.0], [20.0, 50.0, 80.0]),
                     (np.arange(20.0, 105.0, 10.0).tolist(),) * 2]


KIND_BOUNDS = {"tm": {"T_m_C": (47.0, 96.0)},
               "properties": PROPERTY_BOUNDS,
               "geometry": GEOMETRY_BOUNDS}


@pytest.mark.parametrize("kind", list(KIND_BOUNDS))
def test_problem_file_dx_sets_the_mesh_of_every_kind(tmp_path, kind):
    bounds = KIND_BOUNDS[kind]
    problem = tmp_path / "problem.json"
    problem.write_text(json.dumps({
        "dx": 1e-5, "power": 50e3,
        "bounds": {k: list(v) for k, v in bounds.items()}}))
    args = build_parser().parse_args(["optimize", "--problem", str(problem),
                                      "--strategy", "ga"])
    backend = _load_problem(args).backend
    lows = {k: lo for k, (lo, hi) in bounds.items()}
    case = backend.case_builder(lows)
    assert case.cell.dx == 1e-5
    assert case.power.q0 == 50e3
    # the bounds' names alone define the case: geometry bounds resize it
    if "H_um" in lows:
        assert (case.cell.H, case.cell.W) == (lows["H_um"] / 1e6,
                                              lows["W_um"] / 1e6)
    else:
        assert (case.cell.H, case.cell.W) == (100e-6, 50e-6)
    assert case.pcm.T_m == bounds["T_m_C"][0]


@pytest.mark.parametrize("extra", [{"kind": "geometry"}, {"bound": {}},
                                   {"seed": 1}])
def test_problem_file_rejects_unknown_keys(tmp_path, extra):
    problem = tmp_path / "problem.json"
    problem.write_text(json.dumps({"bounds": {"T_m_C": [47, 96]}, **extra}))
    args = build_parser().parse_args(["optimize", "--problem", str(problem),
                                      "--strategy", "ga"])
    with pytest.raises(ValueError, match=repr(next(iter(extra)))):
        _load_problem(args)


def test_problem_file_rejects_unknown_bound_names(tmp_path):
    problem = tmp_path / "problem.json"
    problem.write_text(json.dumps({"bounds": {"H_um": [20, 100],
                                              "Tm_C": [47, 96]}}))
    args = build_parser().parse_args(["optimize", "--problem", str(problem),
                                      "--strategy", "ga"])
    with pytest.raises(ValueError, match="'Tm_C'"):
        _load_problem(args)
    # a file without bounds is refused by name, not with a bare KeyError
    problem.write_text(json.dumps({"power": 50e3}))
    named = rf"{re.escape(str(problem))}: .*'bounds'"
    with pytest.raises(ValueError, match=named):
        _load_problem(args)
    # and so is a file that is not an object
    problem.write_text(json.dumps([{"bounds": {"T_m_C": [47, 96]}}]))
    with pytest.raises(ValueError, match=rf"{re.escape(str(problem))}: "
                                         "expected an object .*, got list"):
        _load_problem(args)


PROBLEM_KEYS = ("expected an object with keys bounds, power, objective, "
                "steps, dx, dt")


@pytest.mark.parametrize("setting,message", [
    ({"dt": 0.03}, "dt must divide both T_ON and PERIOD"),
    ({"dtt": 0.025}, f"unknown keys ['dtt']; {PROBLEM_KEYS}"),
    ({"dt": "0.025"}, "dt must be a number, got '0.025'"),
    # simulate takes snapshot_every, but a search keeps no snapshots
    ({"snapshot_every": 40}, f"unknown keys ['snapshot_every']; "
                             f"{PROBLEM_KEYS}"),
    # the settings dict of earlier problem files
    ({"sim_kwargs": {"dt": 0.025}}, f"unknown keys ['sim_kwargs']; "
                                    f"{PROBLEM_KEYS}"),
    # bounds and steps of the wrong shape, refused when the file is read
    ({"bounds": [1, 2]}, "bounds must be an object, got [1, 2]"),
    ({"bounds": {"T_m_C": 5}}, "bounds must map each name to a [lower, "
                               "upper] pair, got {'T_m_C': 5}"),
    ({"bounds": {"T_m_C": [47]}}, "bounds must map each name to a [lower, "
                                  "upper] pair, got {'T_m_C': [47]}"),
    ({"steps": [1]}, "steps must be an object, got [1]"),
    # and bounds and steps the search itself refuses
    ({"bounds": {"T_m_C": [96, 47]}}, "T_m_C: lower must be < upper"),
    ({"steps": {"T_m_C": -5}}, "T_m_C: grid step must be positive"),
    ({"steps": {"Tm_C": 5}}, "steps ['Tm_C'] name no bound; the bounds are "
                             "['T_m_C']"),
    # a lower corner whose channel no mesh holds, refused by building its
    # case, not scored +inf at every point the search visits
    ({"bounds": {"H_um": [1, 100], "T_m_C": [70, 80]}, "dt": 0.025},
     "at dx=1e-05 the height or half width of channel H=1e-06, W=5e-05 "
     "snaps to no voxels; use no_channel for the solid-silicon baseline"),
    # and an upper corner whose channel the device layer cannot hold
    ({"bounds": {"H_um": [20, 250], "T_m_C": [70, 80]},
      "steps": {"H_um": 115, "T_m_C": 10}, "dt": 0.025},
     "channel height exceeds device layer"),
    # a problem with nothing to search, refused before any case runs
    ({"bounds": {}, "steps": {}},
     "a problem needs at least one parameter to search, got none")],
    ids=["dt", "unknown_key", "dt_text", "snapshot_every", "sim_kwargs",
         "bounds_list", "bound_number", "bound_single", "steps_list",
         "bounds_reversed", "step_negative", "step_unknown_name",
         "lower_corner_unmeshable", "upper_corner_beyond_the_device_layer",
         "no_parameters"])
def test_problem_file_settings_are_refused_before_the_search(
        tmp_path, capsys, setting, message):
    problem = tmp_path / "problem.json"
    problem.write_text(json.dumps({
        "dx": 10e-6, "steps": {"T_m_C": 24.5},
        "bounds": {"T_m_C": [47, 96]}, **setting}))
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # no case runs to be penalized
        assert main(["optimize", "--problem", str(problem),
                     "--strategy", "sweep"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (f"pcmopt optimize: error: problem file "
                            f"{problem}: {message}\n")


def test_a_grid_without_a_positive_step_is_refused(tmp_path, capsys):
    """Refused before the surface reads its model file, in one line: an
    infinite step too, which would give a grid of NaN."""
    out = tmp_path / "o"
    for step in ("0", "inf"):
        for argv, (lo, hi) in [
                (["sweep", "--tm-step", step], (47.0, 96.0)),
                (["surface", "--model", "m.json", "--tm", "77",
                  "--h-grid", f"20:100:{step}"], (20.0, 100.0))]:
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                assert main([*argv, "--out", str(out)]) == 2
            assert capsys.readouterr().err == (
                f"pcmopt {argv[0]}: error: a grid from {lo} to {hi} needs a "
                "finite positive step and lower <= upper, got step "
                f"{float(step)}\n")
    assert not out.exists()


@pytest.mark.parametrize("flags,settings", [
    ([], {}), (["--dx-um", "20"], {"fidelity": Fidelity(20e-6, DEFAULT_DT)})],
    ids=["defaults", "dx_20um"])
def test_a_cli_campaign_resumes_through_the_api(tmp_path, capsys,
                                                monkeypatch, flags,
                                                settings):
    """The CLI's defaults and unit flags name the API's campaign to the bit:
    the same config hash, so a resume runs no case and rewrites the CSV."""
    monkeypatch.setenv("PCMOPT_WORKERS", "1")
    ran = []
    # the case runner's seams: no transient runs
    monkeypatch.setattr(solver, "simulate",
                        lambda case, **_: ran.append(case) or case)
    monkeypatch.setattr(metrics, "compute_metrics", lambda case:
                        SimpleNamespace(T_o_max=case.pcm.T_m, T_osc=0.0))
    out = tmp_path / "camp"
    assert main(["generate", "--kind", "properties", "--n", "2",
                 "--out", str(out), *flags]) == 0
    capsys.readouterr()
    written = (out / "results.csv").read_bytes()
    again = studies.generate_training_data("properties", 2, out, **settings)
    assert again.read_bytes() == written
    fidelity = settings.get("fidelity", REFERENCE)
    assert [case.cell.dx for case in ran] == [fidelity.dx] * 2


def test_a_cli_campaign_records_a_sample_no_mesh_holds(tmp_path, capsys,
                                                       monkeypatch):
    """LHS sample 3 has W = 22.95 um, whose half holds no 20 um voxel: that
    case fails alone, as a transient that raises, and is not rerun."""
    monkeypatch.setenv("PCMOPT_WORKERS", "1")
    ran = []
    # the case runner's seams: no transient runs
    monkeypatch.setattr(solver, "simulate",
                        lambda case, **_: ran.append(case) or case)
    monkeypatch.setattr(metrics, "compute_metrics", lambda case:
                        SimpleNamespace(T_o_max=case.pcm.T_m, T_osc=0.0))
    out = tmp_path / "D"
    argv = ["generate", "--kind", "geometry", "--n", "5", "--dx-um", "20",
            "--out", str(out)]
    # plain floats in the message, not numpy's scalar repr
    message = re.escape("case 3 failed: at dx=2e-05 the height or half "
                        "width of channel H=5.3038841219395706e-05, "
                        "W=2.2946343134055485e-05 snaps to no voxels")
    for _ in range(2):  # run, then resume
        with pytest.warns(UserWarning, match=message):
            assert main(argv) == 0
        assert capsys.readouterr().err == ""
        assert len(ran) == 4
    record = json.loads((out / "cases" / "case_000003.json").read_text())
    assert "snaps to no voxels" in record["failed"]
    with open(out / "results.csv", newline="") as f:
        assert [r["case_index"] for r in csv.DictReader(f)] == [
            "0", "1", "2", "4"]
    summary = json.loads((out / "summary.json").read_text())
    assert (summary["n_complete"], summary["n_failed"]) == (4, 1)


def synthetic_campaign(tmp_path, n=30):
    """A campaign-shaped results.csv over GEOMETRY_BOUNDS with smooth
    made-up targets, so no transient runs to build it."""
    rng = np.random.default_rng(0)
    lows, highs = np.array(list(GEOMETRY_BOUNDS.values())).T
    X = rng.uniform(lows, highs, size=(n, 3))
    H, W, Tm = X.T
    path = tmp_path / "campaign.csv"
    with open(path, "w", newline="") as f:
        w = csv.writer(f)
        w.writerow([*GEOMETRY_BOUNDS, "T_o_max_C", "T_osc_C"])
        w.writerows(zip(H, W, Tm, 90.0 - 0.05 * H - 0.04 * W + 0.1 * Tm,
                        1.0 + 0.001 * (Tm - 77.0) ** 2 + 0.01 * H))
    return str(path)


@pytest.mark.parametrize("edit,reason", [
    (lambda text: text + "12,50.0\n", ", line 13: not the header's 5 fields"),
    (lambda text: text + "40,50,60,80.5,2.5,7\n",
     ", line 13: not the header's 5 fields"),
    (lambda text: text + "40,50,abc,80.5,2.5\n",
     ", line 13: could not convert string to float: 'abc'"),
    (lambda text: text + "40,50,nan,80.5,2.5\n",
     ", line 13: columns ['T_m_C'] are not finite"),
    (lambda text: text + "40,50,60,inf,2.5\n",
     ", line 13: columns ['T_o_max_C'] are not finite"),
    (lambda text: text.replace("T_o_max_C", "T_max_C"),
     ": target column 'T_o_max_C' not in ['H_um', 'W_um', 'T_m_C', "
     "'T_max_C', 'T_osc_C']"),
    (lambda text: "", ": target column 'T_o_max_C' not in []"),
    (lambda text: text.splitlines(keepends=True)[0], ": no data rows")],
    ids=["short", "long", "not_a_number", "nan_input", "inf_target",
         "no_target_column", "empty", "no_rows"])
def test_a_malformed_training_row_is_one_line_naming_it(tmp_path, capsys,
                                                        edit, reason):
    campaign = Path(synthetic_campaign(tmp_path, n=11))
    campaign.write_text(edit(campaign.read_text()))
    model = tmp_path / "m.json"
    assert main(["train", "--data", str(campaign), "--target", "tomax",
                 "--out", str(model)]) == 2
    assert capsys.readouterr().err == (
        f"pcmopt train: error: training file {campaign}{reason}\n")
    assert not model.exists()


@pytest.mark.parametrize("hidden", ["0", "-1"])
def test_train_refuses_a_network_without_hidden_neurons(tmp_path, capsys,
                                                        hidden):
    model = tmp_path / "m.json"
    assert main(["train", "--data", synthetic_campaign(tmp_path, n=11),
                 "--target", "tomax", "--hidden", hidden,
                 "--out", str(model)]) == 2
    assert capsys.readouterr().err == (
        f"pcmopt train: error: hidden must be a positive integer, got {hidden}\n")
    assert not model.exists()


@pytest.mark.parametrize("flags,cell", [
    (["--no-channel"], {"no_channel": True}),
    (["--height-um", "60", "--width-um", "40"], {"H": 60e-6, "W": 40e-6})],
    ids=["no_channel", "height_width"])
def test_case_flags_override_the_case_file(tmp_path, capsys, flags, cell):
    case = coarse_case_file(tmp_path)
    assert main(["metrics", "--case", case, "--dt-ms", "25", *flags]) == 0
    expected = simulate_metrics(
        Case(cell=UnitCellSpec(dx=COARSE.dx, **cell),
             power=PowerProfile(q0=100e3)), dt=COARSE.dt)
    assert json.loads(capsys.readouterr().out) == expected.to_dict()


def test_compare_pcms_command(tmp_path, capsys):
    out = tmp_path / "compare"
    assert main(["compare-pcms", "--out", str(out)]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert [line.split()[0] for line in lines] == ["Silicon", *PCM_NAMES]
    with open(out / "results.csv", newline="") as f:
        rows = list(csv.DictReader(f))
    assert [r["material"] for r in rows] == ["Silicon", *PCM_NAMES]
    for line, r in zip(lines, rows):
        assert f"T_o_max={float(r['T_o_max']):.2f}" in line
    best = min(rows[1:], key=lambda r: float(r["T_o_max"]))["material"]
    summary = json.loads((out / "summary.json").read_text())
    assert summary["best_T_o_max"] == best


def test_sweep_command_writes_the_study(tmp_path, capsys):
    out = tmp_path / "sweep"
    assert main(["sweep", "--tm-step", "49", "--out", str(out)]) == 0
    with open(out / "results.csv", newline="") as f:
        rows = list(csv.DictReader(f))
    assert [float(r["T_m_C"]) for r in rows] == [47.0, 96.0]
    best = {m: min(rows, key=lambda r: float(r[m]))["T_m_C"]
            for m in ("T_o_max", "T_osc")}
    assert capsys.readouterr().out == (
        f"power 100000 W/m2: optimal T_m (T_o_max) = "
        f"{float(best['T_o_max']):g} C, (T_osc) = "
        f"{float(best['T_osc']):g} C\n")


def test_sweep_prints_a_sub_degree_optimum_as_its_grid_value(
        tmp_path, capsys, monkeypatch):
    """A half-degree grid's optima print as the grid values they are, not
    rounded to a whole degree."""
    monkeypatch.setenv("PCMOPT_WORKERS", "1")
    # the seams: each T_m point's transient is its case, and its row
    # scores the distance from a half-degree optimum
    monkeypatch.setattr(solver, "simulate", lambda case, **_: case)
    monkeypatch.setattr(studies, "_tm_row", lambda case: {
        "T_o_max": abs(case.pcm.T_m - 76.5), "T_osc": abs(case.pcm.T_m - 77.5),
        "band_hi_C": 0.0, "band_lo_C": 0.0})
    assert main(["sweep", "--tm-step", "0.5",
                 "--out", str(tmp_path / "sweep")]) == 0
    assert capsys.readouterr().out == (
        "power 100000 W/m2: optimal T_m (T_o_max) = 76.5 C, "
        "(T_osc) = 77.5 C\n")


def test_sensitivity_command_writes_each_property(tmp_path, capsys):
    case = coarse_case_file(tmp_path)
    out = tmp_path / "sensitivity.csv"
    assert main(["sensitivity", "--case", case, "--dt-ms", "25",
                 "--out", str(out)]) == 0
    with open(out, newline="") as f:
        rows = list(csv.DictReader(f))
    assert [r["property"] for r in rows] == list(SENSITIVITY_PROPERTIES)
    lines = capsys.readouterr().out.splitlines()
    for line, r in zip(lines, rows, strict=True):
        assert line == (f"{r['property']:>12}: |dT_o_max| = "
                        f"{float(r['dTo_max']):.4f} C, |dT_osc| = "
                        f"{float(r['dTosc']):.4f} C")
        assert float(r["dTo_max"]) >= 0.0 and float(r["dTosc"]) >= 0.0


def test_optimize_repeats_and_pso_on_a_surrogate(tmp_path, capsys):
    model = tmp_path / "model.json"
    assert main(["train", "--data", synthetic_campaign(tmp_path),
                 "--target", "tomax", "--out", str(model)]) == 0
    assert json.loads(model.read_text())["target_name"] == "T_o_max_C"
    problem = tmp_path / "problem.json"
    problem.write_text(json.dumps({
        "objective": "T_o_max", "dx": COARSE.dx, "dt": COARSE.dt,
        "bounds": {k: list(v) for k, v in GEOMETRY_BOUNDS.items()}}))
    argv = ["optimize", "--problem", str(problem), "--strategy", "pso",
            "--backend", f"nn:{model}"]
    capsys.readouterr()
    assert main([*argv, "--repeats", "2"]) == 0
    repeated = json.loads(capsys.readouterr().out)
    assert main(argv) == 0
    single = json.loads(capsys.readouterr().out)["result"]

    runs = repeated["runs"]
    assert [(r["strategy"], r["seed"]) for r in runs] == [("pso", 0),
                                                         ("pso", 1)]
    # run 0 is the single run with the same seed
    for key in ("parameters", "objective_value", "verified_objective"):
        assert runs[0][key] == single[key]
    summary = repeated["summary"]
    assert (summary["strategy"], summary["n_runs"]) == ("pso", 2)
    verified = [r["verified_objective"] for r in runs]
    assert summary["verified_objective"] == {
        "mean": float(np.mean(verified)), "min": min(verified),
        "max": max(verified)}

    for repeats in ("0", "1", "-3"):
        assert main([*argv, "--repeats", repeats]) == 2
        assert capsys.readouterr().err == (
            f"pcmopt optimize: error: --repeats must be an integer of at "
            f"least 2, got {repeats}\n")


@pytest.mark.parametrize("argv,message", [
    (["sweep", "--powers", "1e5,100000"],
     "power level 100000.0 is given more than once"),
    (["sweep", "--tm-step", "0.0001"],
     "a grid from 47.0 to 96.0 at step 0.0001 exceeds cap 200000 points"),
    (["optimize", "--problem", "{tmp}/missing.json", "--strategy", "sweep",
      "--repeats", "2"],
     "only the seeded searches ['ga', 'pso'] repeat, not 'sweep'")],
    ids=["repeated_power", "tm_grid_past_the_cap", "repeated_sweep"])
def test_a_repeat_or_a_grid_past_the_cap_is_one_line(
        tmp_path, capsys, monkeypatch, argv, message):
    """Refused before any case is built or any file is read or written: a
    power level given twice (two spellings of one number), a T_m grid past
    the cap, and a sweep to repeat, which draws no seed and so would give
    one answer twice."""
    def never(*args, **kwargs):
        raise AssertionError("a case was built")

    monkeypatch.setattr(studies, "property_case", never)
    argv = [a.format(tmp=tmp_path) for a in argv]
    assert main([*argv, "--out", str(tmp_path / "o")]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"pcmopt {argv[0]}: error: {message}\n"
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("objective,bounds,old_format", [
    ("T_o_max", ["H_um", "W_um"], False),
    ("T_osc", ["H_um", "W_um", "T_m_C"], False),
    ("T_osc", ["W_um", "H_um"], False),
    ("T_osc", ["H_um", "W_um"], True)],
    ids=["another_target", "another_input_count", "another_order",
         "old_format"])
def test_a_model_that_does_not_stand_for_the_objective_is_refused(
        tmp_path, capsys, monkeypatch, objective, bounds, old_format):
    """A T_osc network over H and W, in that order, is refused before any
    case or search: by a T_o_max search over the same inputs, by a T_osc
    search over three or over W and H, and by the surface, which needs
    T_o_max over all three. A model file of the old format, which named
    its target and counted its inputs, is refused by both, naming its
    keys."""
    monkeypatch.setenv("PCMOPT_WORKERS", "1")
    ran = []
    monkeypatch.setattr(solver, "simulate",
                        lambda case, **_: ran.append(case))
    monkeypatch.setattr(studies.SurrogateBackend, "evaluate_batch",
                        lambda self, X: ran.append(X))
    data = load_training_csv(synthetic_campaign(tmp_path), target="T_osc_C",
                             input_names=["H_um", "W_um"])
    model = tmp_path / "model.json"
    train_lm(data, hidden=3, max_epochs=5).save(model)
    refused = "the model predicts 'T_osc_C' from ['H_um', 'W_um']; "
    needs = {"optimize": f"{objective} needs {objective + '_C'!r} from "
                         f"{bounds}, in that order",
             "surface": "T_o_max needs 'T_o_max_C' from ['H_um', 'W_um', "
                        "'T_m_C'], in that order"}
    if old_format:
        record = json.loads(model.read_text())
        record["input_dim"] = len(record.pop("input_names"))
        record["target"] = record.pop("target_name")
        model.write_text(json.dumps(record))
        refused = (f"model file {model}: unknown keys ['input_dim', "
                   "'target']; missing keys ['input_names', 'target_name']; "
                   "expected an object with keys input_names, hidden, W1, "
                   "b1, W2, b2, in_min, in_max, out_min, out_max, "
                   "target_name, seed, train_config")
        needs = dict.fromkeys(needs, "")
    problem = tmp_path / "problem.json"
    problem.write_text(json.dumps({
        "objective": objective, "dx": COARSE.dx, "dt": COARSE.dt,
        "bounds": {k: list(GEOMETRY_BOUNDS[k]) for k in bounds}}))
    out = tmp_path / "o"
    for argv in (["optimize", "--problem", str(problem), "--strategy", "ga",
                  "--backend", f"nn:{model}"],
                 ["surface", "--model", str(model), "--tm", "77"]):
        capsys.readouterr()
        assert main([*argv, "--out", str(out)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            f"pcmopt {argv[0]}: error: {refused}{needs[argv[0]]}\n")
    assert ran == [] and not out.exists()


SURFACE = ["surface", "--model", "m.json", "--tm", "77", "--out", "{tmp}/o"]
ABLATION = ["ablation", "--pool", "p.csv", "--test", "p.csv", "--target",
            "tomax", "--out", "{tmp}/o"]
#: on synthetic_campaign's 30 rows
ABLATION_ON_CAMPAIGN = ["ablation", "--pool", "{tmp}/campaign.csv", "--test",
                        "{tmp}/campaign.csv", "--target", "tomax", "--out",
                        "{tmp}/o"]
REPEATS_ON_CAMPAIGN = [*ABLATION_ON_CAMPAIGN, "--sizes", "12"]


#: the refusal of a count below 2 and of a negative seed
AT_LEAST_2 = "must be an integer of at least 2"
NON_NEGATIVE = "must be a non-negative integer"


def _untrainable(size):
    return f": training-set size {size} is not from 10 to 30, the pool's rows"


@pytest.mark.parametrize("argv,flag,value,why", [
    (SURFACE, "--h-grid", "20:100", " is not lower:upper:step"),
    (SURFACE, "--h-grid", "a:b:c", " is not lower:upper:step"),
    (SURFACE, "--w-grid", "20:100:10:5", " is not lower:upper:step"),
    (["sweep", "--out", "{tmp}/o"], "--powers", "1e5,x",
     " is not a comma-separated list of numbers"),
    (ABLATION, "--sizes", "12,abc",
     " is not a comma-separated list of integers"),
    (ABLATION_ON_CAMPAIGN, "--sizes", "0", _untrainable(0)),
    (ABLATION_ON_CAMPAIGN, "--sizes", "-3",
     ": training-set size must be a non-negative integer, got -3"),
    (ABLATION_ON_CAMPAIGN, "--sizes", "40", _untrainable(40)),
    (ABLATION_ON_CAMPAIGN, "--sizes", "12,12",
     ": training-set size 12 is given more than once"),
    # a count, named as optimize names its --repeats
    (REPEATS_ON_CAMPAIGN, "--repeats", "1", AT_LEAST_2),
    (REPEATS_ON_CAMPAIGN, "--repeats", "0", AT_LEAST_2),
    (REPEATS_ON_CAMPAIGN, "--repeats", "-2", AT_LEAST_2),
    # a seed, refused before the file it names is read
    (["optimize", "--problem", "p.json", "--strategy", "ga"], "--seed", "-1",
     NON_NEGATIVE),
    (["generate", "--kind", "geometry", "--n", "2", "--out", "{tmp}/o"],
     "--seed", "-1", NON_NEGATIVE),
    (["train", "--data", "p.csv", "--target", "tomax", "--out", "{tmp}/o"],
     "--seed", "-1", NON_NEGATIVE),
    ([*ABLATION, "--sizes", "12"], "--seed", "-1", NON_NEGATIVE),
    # a backend with no colon, refused before the problem file is read
    (["optimize", "--problem", "p.json", "--strategy", "sweep"], "--backend",
     "nn_model.json", " is not 'sim' or 'nn:<model file>'")],
    ids=["too_few", "not_numbers", "too_many", "powers", "sizes",
         "size_zero", "size_negative", "size_above_pool", "repeated_size",
         "repeats_one",
         "repeats_zero", "repeats_negative", "seed_optimize", "seed_generate",
         "seed_train", "seed_ablation", "backend_without_colon"])
def test_a_malformed_list_flag_is_one_line_naming_it(
        tmp_path, capsys, monkeypatch, argv, flag, value, why):
    """Refused before any case runs, any network trains or any output is
    written; a list that does not parse, before any input file is read."""
    ran = []
    monkeypatch.setattr(solver, "simulate",
                        lambda case, **_: ran.append(case))
    monkeypatch.setattr(studies, "train_lm", lambda *a, **_: ran.append(a))
    if "{tmp}/campaign.csv" in argv:
        synthetic_campaign(tmp_path)
    argv = [a.format(tmp=tmp_path) for a in argv]
    assert main([*argv, flag, value]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    named = (f"{flag} {why}, got {value}" if why.startswith("must")
             else f"{flag} {value!r}{why}")
    assert captured.err == f"pcmopt {argv[0]}: error: {named}\n"
    assert ran == [] and not (tmp_path / "o").exists()


def test_ablation_refuses_a_negative_power_before_training(
        tmp_path, capsys, monkeypatch):
    trained = []
    monkeypatch.setattr(studies, "train_lm",
                        lambda *a, **_: trained.append(a))
    argv = [a.format(tmp=tmp_path) for a in REPEATS_ON_CAMPAIGN]
    synthetic_campaign(tmp_path)
    assert main([*argv, "--repeats", "2", "--power", "-5"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == ("pcmopt ablation: error: q0 must be "
                            "non-negative\n")
    assert trained == [] and not (tmp_path / "o").exists()


def test_ablation_refuses_a_training_file_without_rows(tmp_path, capsys):
    campaign = Path(synthetic_campaign(tmp_path, n=11))
    header = campaign.read_text().splitlines(keepends=True)[0]
    empty = tmp_path / "header.csv"
    empty.write_text(header)
    for pool, test in [(empty, campaign), (campaign, empty)]:
        assert main(["ablation", "--pool", str(pool), "--test", str(test),
                     "--target", "tosc", "--sizes", "5"]) == 2
        assert capsys.readouterr().err == (
            f"pcmopt ablation: error: training file {empty}: no data "
            "rows\n")


def test_ablation_command_on_a_synthetic_campaign(tmp_path, capsys):
    campaign = synthetic_campaign(tmp_path)
    out = tmp_path / "ablation.json"
    assert main(["ablation", "--pool", campaign, "--test", campaign,
                 "--target", "tosc", "--sizes", "12", "--repeats", "2",
                 "--dx-um", "10", "--out", str(out)]) == 0
    report = json.loads(out.read_text())
    assert json.loads(capsys.readouterr().out) == report
    [entry] = report
    assert entry["size"] == 12
    r2 = entry["r_squared"]
    assert r2["min"] <= r2["mean"] <= r2["max"] <= 1.0
    for strategy in ("ga", "pso"):
        summary = entry[strategy]
        assert (summary["strategy"], summary["n_runs"]) == (strategy, 2)
        assert set(summary["parameters"]) == set(GEOMETRY_BOUNDS)
        # each optimum is verified on the simulator's T_osc, not the
        # network trained on the made-up one
        verified = summary["verified_objective"]
        assert 0.0 < verified["min"] <= verified["max"] < 50.0
        assert verified != summary["objective_value"]
