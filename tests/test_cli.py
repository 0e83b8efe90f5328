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
from pcmopt.solver import MAX_STEP_RESIDUAL, PHASES
from pcmopt.studies import (GEOMETRY_BOUNDS, PROPERTY_BOUNDS,
                            SENSITIVITY_PROPERTIES)
from pcmopt.surrogate import SurrogateModel

SUBCOMMANDS = ["simulate", "metrics", "compare-pcms", "sweep", "optimize",
               "generate", "train", "ablation", "surface", "sensitivity"]


def coarse_case_file(tmp_path, **cell_kwargs):
    path = tmp_path / "case.json"
    case = Case(cell=UnitCellSpec(dx=10e-6, **cell_kwargs),
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
    material = tmp_path / "material.json"
    material.write_text(json.dumps(
        {**asdict(builtin_material("WoodsMetal")), "T_m": float("nan")}))
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
            # one voxel wide: the simulated half holds none of it
            (["metrics", "--width-um", "5"],
             "at dx=5e-06 the height or half width of channel H=0.0001, "
             "W=5e-06 snaps to no voxels; use no_channel for the "
             "solid-silicon baseline"),
            (["simulate", "--no-channel", "--snapshot-every", "0", "--out",
              str(tmp_path / "o")],
             "snapshot_every must be a positive integer, got 0")]:
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
    assert main(["train", "--data", str(camp / "results.csv"),
                 "--target", "tomax", "--out", str(model)]) == 0
    assert json.loads(model.read_text())["target"] == "T_o_max_C"

    problem = tmp_path / "problem.json"
    problem.write_text(json.dumps({
        "objective": "T_o_max", "dx": 10e-6,
        "dt": 0.025,
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
    monkeypatch.setattr(SurrogateModel, "load", staticmethod(lambda _: None))
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
                             "['T_m_C']")],
    ids=["dt", "unknown_key", "dt_text", "snapshot_every", "sim_kwargs",
         "bounds_list", "bound_number", "bound_single", "steps_list",
         "bounds_reversed", "step_negative", "step_unknown_name"])
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


def test_a_grid_without_a_positive_step_is_refused(tmp_path, capsys,
                                                   monkeypatch):
    monkeypatch.setattr(SurrogateModel, "load", staticmethod(lambda _: None))
    out = tmp_path / "o"
    for argv, (lo, hi) in [(["sweep", "--tm-step", "0"], (47.0, 96.0)),
                           (["surface", "--model", "m.json", "--tm", "77",
                             "--h-grid", "20:100:0"], (20.0, 100.0))]:
        assert main([*argv, "--out", str(out)]) == 2
        assert capsys.readouterr().err == (
            f"pcmopt {argv[0]}: error: a grid from {lo} to {hi} needs a "
            "positive step and lower <= upper, got step 0.0\n")
    assert not out.exists()


@pytest.mark.parametrize("flags,settings", [([], {}),
                                            (["--dx-um", "20"],
                                             {"dx": 20e-6})],
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
    assert [case.cell.dx for case in ran] == [settings.get("dx", 5e-6)] * 2


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


@pytest.mark.parametrize("flags,cell", [
    (["--no-channel"], {"no_channel": True}),
    (["--height-um", "60", "--width-um", "40"], {"H": 60e-6, "W": 40e-6})],
    ids=["no_channel", "height_width"])
def test_case_flags_override_the_case_file(tmp_path, capsys, flags, cell):
    case = coarse_case_file(tmp_path)
    assert main(["metrics", "--case", case, "--dt-ms", "25", *flags]) == 0
    expected = simulate_metrics(
        Case(cell=UnitCellSpec(dx=10e-6, **cell),
             power=PowerProfile(q0=100e3)), dt=0.025)
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
        f"{float(best['T_o_max']):.0f} C, (T_osc) = "
        f"{float(best['T_osc']):.0f} C\n")


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
    assert json.loads(model.read_text())["target"] == "T_o_max_C"
    problem = tmp_path / "problem.json"
    problem.write_text(json.dumps({
        "objective": "T_o_max", "dx": 10e-6, "dt": 0.025,
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
            f"pcmopt optimize: error: --repeats must be at least 2, "
            f"got {repeats}\n")


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
