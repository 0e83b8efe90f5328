"""Command line entry point (`pcmopt`)."""

from __future__ import annotations

import argparse
import csv
import json
import sys
from dataclasses import replace as dc_replace
from pathlib import Path

import numpy as np

from . import studies
from .geometry import Case, PowerProfile, UnitCellSpec
from .materials import builtin_material, load_material_file
from .metrics import compute_metrics, sensitivity
from .optimize import (GAConfig, PSOConfig, ga_minimize, parametric_sweep,
                       pso_minimize, repeat_with_seeds)
from .solver import simulate
from .surrogate import (SurrogateModel, load_training_csv, train_lm,
                        r_squared)

_TARGET_COLUMNS = {"tomax": "T_o_max_C", "tosc": "T_osc_C"}
_TARGET_OBJECTIVES = {"tomax": "T_o_max", "tosc": "T_osc"}


def _case_from_args(args) -> Case:
    if args.case:
        case = Case.from_json_file(args.case)
    else:
        case = Case()
    cell = case.cell
    if args.no_channel:
        cell = dc_replace(cell, no_channel=True)
    if args.height_um is not None:
        cell = dc_replace(cell, H=args.height_um * 1e-6)
    if args.width_um is not None:
        cell = dc_replace(cell, W=args.width_um * 1e-6)
    power = case.power
    if args.flux_kw_m2 is not None:
        power = dc_replace(power, q0=args.flux_kw_m2 * 1e3)
    pcm_name, pcm_override = case.pcm_name, case.pcm_override
    if args.material:
        pcm_name, pcm_override = args.material, None
        builtin_material(args.material)  # fail fast on unknown names
    if args.material_file:
        pcm_override = load_material_file(args.material_file).to_dict()
    return Case(cell=cell, power=power, boundary=case.boundary,
                pcm_name=pcm_name, pcm_override=pcm_override)


def _add_case_flags(p):
    p.add_argument("--case", help="case JSON file")
    p.add_argument("--material", help="builtin PCM name")
    p.add_argument("--material-file", help="material JSON file")
    p.add_argument("--height-um", type=float)
    p.add_argument("--width-um", type=float)
    p.add_argument("--flux-kw-m2", type=float)
    p.add_argument("--no-channel", action="store_true")
    p.add_argument("--dt-ms", type=float, default=10.0)


def _cmd_simulate(args):
    case = _case_from_args(args)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    h = simulate(case, dt=args.dt_ms * 1e-3,
                 snapshot_every=args.snapshot_every)
    with open(out / "history.csv", "w", newline="") as f:
        w = csv.writer(f)
        w.writerow(["t_s", "T_max_C", "phi_mean"])
        w.writerows(zip(h.t, h.T_max, h.phi_mean))
    for i, (t, T, phi) in enumerate(h.snapshots):
        ny, nx = phi.shape
        dx_um = case.cell.snapped().dx * 1e6
        with open(out / f"snapshot_{i:04d}.csv", "w", newline="") as f:
            w = csv.writer(f)
            w.writerow(["x_um", "y_um", "T_C", "phi"])
            field = T.reshape(ny, nx)
            for iy in range(ny):
                for ix in range(nx):
                    w.writerow([(ix + 0.5) * dx_um, (iy + 0.5) * dx_um,
                                field[iy, ix], phi[iy, ix]])
    with open(out / "config.json", "w") as f:
        json.dump({"case": case.to_dict(),
                   "snapped_cell": case.cell.snapped().to_dict(),
                   "dt_s": args.dt_ms * 1e-3,
                   "quasi_steady_cycle": h.quasi_steady_cycle,
                   "converged": h.converged}, f, indent=2)
    print(f"simulated {h.t[-1]:.1f} s "
          f"({'converged' if h.converged else 'full duration'}); "
          f"history in {out}")


def _cmd_metrics(args):
    case = _case_from_args(args)
    report = compute_metrics(simulate(case, dt=args.dt_ms * 1e-3))
    text = json.dumps(report.to_dict(), indent=2)
    if args.out:
        Path(args.out).write_text(text + "\n")
    print(text)


def _cmd_compare_pcms(args):
    rows = studies.run_pcm_comparison(power=args.power, out_dir=args.out)
    for r in rows:
        print(f"{r['material']:>12}  T_o_max={r['T_o_max']:.2f}  "
              f"T_osc={r['T_osc']:.2f}  dt_85={r['dt_85']}  "
              f"dPhi={r['dPhi_melt']:.2f}")


def _cmd_sweep(args):
    powers = [float(p) for p in args.powers.split(",")]
    result = studies.run_tm_study(power_levels=powers, tm_step=args.tm_step,
                                  out_dir=args.out)
    for power, d in result.items():
        print(f"power {power:.0f} W/m2: optimal T_m "
              f"(T_o_max) = {d['opt_T_m_for_T_o_max']:.0f} C, "
              f"(T_osc) = {d['opt_T_m_for_T_osc']:.0f} C")


def _load_problem(args):
    with open(args.problem) as f:
        spec = json.load(f)
    kind = spec.get("kind", "tm")
    power = spec.get("power", 100e3)
    objective = spec.get("objective", "T_o_max")
    bounds = {k: tuple(v) for k, v in spec["bounds"].items()}
    steps = spec.get("steps")
    dx = spec.get("dx", 5e-6)
    sim_kwargs = spec.get("sim_kwargs", {})

    builder = studies.case_builder(kind, power=power, dx=dx)
    verifier = studies.SimulatorBackend(builder, list(bounds), objective,
                                        sim_kwargs=sim_kwargs)
    if args.backend.startswith("nn:"):
        model = SurrogateModel.load(args.backend[3:])
        backend = studies.SurrogateBackend(model, verifier)
    else:
        backend = verifier
    return studies.problem_from_bounds(bounds, objective, backend,
                                       seed=args.seed, steps=steps)


def _cmd_optimize(args):
    problem = _load_problem(args)
    if args.repeats:
        out = repeat_with_seeds(problem, args.strategy, n_runs=args.repeats)
        payload = {"summary": out["summary"],
                   "runs": [r.to_dict() for r in out["runs"]]}
    elif args.strategy == "sweep":
        result, table = parametric_sweep(problem)
        payload = {"result": result.to_dict(), "table": table}
    elif args.strategy == "ga":
        payload = {"result": ga_minimize(problem).to_dict()}
    elif args.strategy == "pso":
        payload = {"result": pso_minimize(problem).to_dict()}
    else:
        raise SystemExit(f"unknown strategy {args.strategy}")
    text = json.dumps(payload, indent=2)
    if args.out:
        Path(args.out).write_text(text + "\n")
    print(text)


def _cmd_generate(args):
    path = studies.generate_training_data(
        kind=args.kind, n=args.n, out_dir=args.out, seed=args.seed,
        sampler=args.sampler, power=args.power, dx=args.dx_um * 1e-6,
        workers=args.workers)
    print(f"campaign written to {path}")


def _cmd_train(args):
    data = load_training_csv(args.data, target=_TARGET_COLUMNS[args.target])
    model = train_lm(data, hidden=args.hidden, seed=args.seed)
    model.save(args.out)
    print(f"model saved to {args.out} "
          f"(train R^2 = {r_squared(model, data):.4f})")


def _cmd_ablation(args):
    target_col = _TARGET_COLUMNS[args.target]
    pool = load_training_csv(args.pool, target=target_col)
    test = load_training_csv(args.test, target=target_col)
    sizes = [int(s) for s in args.sizes.split(",")]
    objective = _TARGET_OBJECTIVES[args.target]

    def verifier_factory(_):
        builder = studies.case_builder("geometry", power=args.power,
                                       dx=args.dx_um * 1e-6)
        return studies.SimulatorBackend(builder, list(studies.GEOMETRY_BOUNDS),
                                        objective)

    report = studies.run_ablation(pool, test, sizes, verifier_factory,
                                  repeats=args.repeats, base_seed=args.seed)
    text = json.dumps(report, indent=2)
    if args.out:
        Path(args.out).write_text(text + "\n")
    print(text)


def _cmd_surface(args):
    model = SurrogateModel.load(args.model)

    def parse_grid(s):
        lo, hi, step = (float(v) for v in s.split(":"))
        return np.arange(lo, hi + step / 2, step)

    rows = studies.emit_surface(model, fixed_tm=args.tm,
                                h_grid=parse_grid(args.h_grid),
                                w_grid=parse_grid(args.w_grid),
                                out_path=args.out, power=args.power,
                                dx=args.dx_um * 1e-6)
    print(f"{len(rows)} surface rows written to {args.out}")


def _cmd_sensitivity(args):
    case = _case_from_args(args)
    result = sensitivity(case, dt=args.dt_ms * 1e-3)
    if args.out:
        with open(args.out, "w", newline="") as f:
            w = csv.writer(f)
            w.writerow(["property", "dTo_max", "dTosc"])
            for prop, d in result.items():
                w.writerow([prop, d["dT_o_max"], d["dT_osc"]])
    for prop, d in result.items():
        print(f"{prop:>12}: |dT_o_max| = {d['dT_o_max']:.4f} C, "
              f"|dT_osc| = {d['dT_osc']:.4f} C")


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="pcmopt",
                                description=__doc__)
    sub = p.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("simulate", help="run one transient case")
    _add_case_flags(sp)
    sp.add_argument("--out", required=True)
    sp.add_argument("--snapshot-every", type=int)
    sp.set_defaults(func=_cmd_simulate)

    sp = sub.add_parser("metrics", help="simulate and report metrics")
    _add_case_flags(sp)
    sp.add_argument("--out")
    sp.set_defaults(func=_cmd_metrics)

    sp = sub.add_parser("compare-pcms", help="run the PCM comparison study")
    sp.add_argument("--power", type=float, default=100e3)
    sp.add_argument("--out")
    sp.set_defaults(func=_cmd_compare_pcms)

    sp = sub.add_parser("sweep", help="melt-temperature sweep study")
    sp.add_argument("--powers", default="100000")
    sp.add_argument("--tm-step", type=float, default=1.0)
    sp.add_argument("--out")
    sp.set_defaults(func=_cmd_sweep)

    sp = sub.add_parser("optimize", help="run an optimization problem")
    sp.add_argument("--problem", required=True)
    sp.add_argument("--strategy", choices=["sweep", "ga", "pso"],
                    required=True)
    sp.add_argument("--backend", default="sim",
                    help="'sim' or 'nn:<model.json>'")
    sp.add_argument("--seed", type=int, default=0)
    sp.add_argument("--repeats", type=int)
    sp.add_argument("--out")
    sp.set_defaults(func=_cmd_optimize)

    sp = sub.add_parser("generate", help="generate a training campaign")
    sp.add_argument("--kind", choices=["geometry", "properties"],
                    required=True)
    sp.add_argument("--n", type=int, required=True)
    sp.add_argument("--out", required=True)
    sp.add_argument("--seed", type=int, default=0)
    sp.add_argument("--sampler", choices=["lhs", "grid"], default="lhs")
    sp.add_argument("--power", type=float, default=100e3)
    sp.add_argument("--dx-um", type=float, default=5.0)
    sp.add_argument("--workers", type=int)
    sp.set_defaults(func=_cmd_generate)

    sp = sub.add_parser("train", help="train a surrogate network")
    sp.add_argument("--data", required=True)
    sp.add_argument("--target", choices=["tomax", "tosc"], required=True)
    sp.add_argument("--seed", type=int, default=0)
    sp.add_argument("--hidden", type=int, default=10)
    sp.add_argument("--out", required=True)
    sp.set_defaults(func=_cmd_train)

    sp = sub.add_parser("ablation", help="training-set-size ablation")
    sp.add_argument("--pool", required=True)
    sp.add_argument("--test", required=True)
    sp.add_argument("--target", choices=["tomax", "tosc"], required=True)
    sp.add_argument("--sizes", required=True)
    sp.add_argument("--repeats", type=int, default=10)
    sp.add_argument("--seed", type=int, default=0)
    sp.add_argument("--power", type=float, default=100e3)
    sp.add_argument("--dx-um", type=float, default=5.0)
    sp.add_argument("--out")
    sp.set_defaults(func=_cmd_ablation)

    sp = sub.add_parser("surface", help="paired NN/simulator surface")
    sp.add_argument("--model", required=True)
    sp.add_argument("--tm", type=float, required=True)
    sp.add_argument("--h-grid", default="20:100:10")
    sp.add_argument("--w-grid", default="20:100:10")
    sp.add_argument("--power", type=float, default=100e3)
    sp.add_argument("--dx-um", type=float, default=5.0)
    sp.add_argument("--out", required=True)
    sp.set_defaults(func=_cmd_surface)

    sp = sub.add_parser("sensitivity", help="+/-10 percent property sensitivity")
    _add_case_flags(sp)
    sp.add_argument("--out")
    sp.set_defaults(func=_cmd_sensitivity)

    return p


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    args.func(args)
    return 0


if __name__ == "__main__":
    sys.exit(main())
