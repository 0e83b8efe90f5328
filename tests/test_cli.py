import csv
import json
import re
from dataclasses import asdict

import pytest

from pcmopt.cli import _load_problem, build_parser, main
from pcmopt.geometry import Case, PowerProfile, UnitCellSpec
from pcmopt.materials import PCM_NAMES, builtin_material
from pcmopt.solver import MAX_STEP_RESIDUAL, PHASES
from pcmopt.studies import GEOMETRY_BOUNDS, PROPERTY_BOUNDS

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
    assert json.loads(capsys.readouterr().out) == report


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
             "got 'false'")]:
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"pcmopt {argv[0]}: error: ")
        assert err.count("\n") == 1 and err.endswith(f"{message}\n")
    assert not (tmp_path / "o").exists()


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
        "sim_kwargs": {"dt": 0.025},
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
        "sim_kwargs": {"dt": 0.025},
        "bounds": {"T_m_C": [70, 80]}, "steps": {"T_m_C": 5.0}}))
    # grid sweeps run through the same optimize entry point
    assert main(["optimize", "--problem", str(problem),
                 "--strategy", "sweep"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert len(payload["table"]) == 3
    assert payload["result"]["strategy"] == "sweep"


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
        assert (case.cell.H, case.cell.W) == (lows["H_um"] * 1e-6,
                                              lows["W_um"] * 1e-6)
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
