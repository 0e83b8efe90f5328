"""Command line entry point (`pcmopt`)."""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import asdict, dataclass, replace as dc_replace
from pathlib import Path

from . import studies
from .geometry import Case, PowerProfile, UnitCellSpec
from .materials import (UnknownMaterialError, builtin_material,
                        check_field_types, from_record, load_material_file,
                        read_json, write_json)
from .metrics import OBJECTIVE_COLUMNS, compute_metrics
from .optimize import (STRATEGIES, check_repeats, grid_points,
                       parametric_sweep, repeat_with_seeds)
from .solver import DEFAULT_DT, Fidelity, simulate
from .surrogate import (SurrogateModel, load_training_csv, train_lm,
                        r_squared)

#: --target tag -> the metric it trains on, read from the metric's
#: OBJECTIVE_COLUMNS column of a campaign's results.csv.
_TARGETS = {"tomax": "T_o_max", "tosc": "T_osc"}


def _case_from_args(args) -> Case:
    case = Case.from_json_file(args.case) if args.case else Case()
    cell = {k: um / 1e6 for k, um in [("H", args.height_um),
                                      ("W", args.width_um)] if um is not None}
    if args.no_channel:
        cell["no_channel"] = True
    power = case.power
    if args.flux_kw_m2 is not None:
        power = dc_replace(power, q0=args.flux_kw_m2 * 1e3)
    pcm = case.pcm
    if args.material:
        pcm = builtin_material(args.material)
    elif args.material_file:
        pcm = load_material_file(args.material_file)
    return dc_replace(case, cell=dc_replace(case.cell, **cell), power=power,
                      pcm=pcm)


def _add_case_flags(p):
    p.add_argument("--case", help="case JSON file")
    pcm = p.add_mutually_exclusive_group()
    pcm.add_argument("--material", help="builtin PCM name")
    pcm.add_argument("--material-file", help="material JSON file")
    p.add_argument("--height-um", type=float)
    p.add_argument("--width-um", type=float)
    p.add_argument("--flux-kw-m2", type=float)
    p.add_argument("--no-channel", action="store_true")
    p.add_argument("--dt-ms", type=float, default=DEFAULT_DT * 1e3)


def _cmd_simulate(args):
    case = _case_from_args(args)
    dt = args.dt_ms / 1e3
    h = simulate(case, dt=dt, snapshot_every=args.snapshot_every)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    studies.write_csv(out / "history.csv", ["t_s", "T_max_C", "phi_mean"],
                      zip(h.t, h.T_max, h.phi_mean))
    dx_um = case.cell.dx * 1e6
    for i, (t, T, phi) in enumerate(h.snapshots):
        ny, nx = phi.shape
        studies.write_csv(
            out / f"snapshot_{i:04d}.csv", ["x_um", "y_um", "T_C", "phi"],
            ([(ix + 0.5) * dx_um, (iy + 0.5) * dx_um, T[iy, ix], phi[iy, ix]]
             for iy in range(ny) for ix in range(nx)))
    write_json(out / "config.json",
               {"case": asdict(case),
                "snapped_cell": asdict(case.cell.snapped()),
                "dt_s": dt,
                "quasi_steady_cycle": h.quasi_steady_cycle,
                "converged": h.converged})
    print(f"simulated {h.t[-1]:.1f} s "
          f"({'converged' if h.converged else 'full duration'}); "
          f"history in {out}")


def _emit(payload, out) -> None:
    """Print payload as indented JSON, and also write it to out if given."""
    if out:
        write_json(out, payload)
    print(json.dumps(payload, indent=2))


def _cmd_metrics(args):
    case = _case_from_args(args)
    history = simulate(case, dt=args.dt_ms / 1e3)
    report = compute_metrics(history).to_dict()
    if args.stats:
        report["stats"] = history.stats()
    _emit(report, args.out)


def _cmd_compare_pcms(args):
    rows = studies.run_pcm_comparison(power=args.power, out_dir=args.out)
    for r in rows:
        print(f"{r['material']:>12}  T_o_max={r['T_o_max']:.2f}  "
              f"T_osc={r['T_osc']:.2f}  dt_85={r['dt_85']}  "
              f"dPhi={r['dPhi_melt']:.2f}")


def _flag_values(flag: str, text: str, form: str, kind=float, sep: str = ",",
                 count: int | None = None) -> list:
    """The sep-separated values of a list flag, each a kind, and count of
    them if given; otherwise a ValueError naming the flag and its form."""
    try:
        values = [kind(v) for v in text.split(sep)]
    except ValueError:
        values = None
    if values is None or count not in (None, len(values)):
        raise ValueError(f"{flag} {text!r} is not {form}")
    return values


def _cmd_sweep(args):
    powers = _flag_values("--powers", args.powers,
                          "a comma-separated list of numbers")
    result = studies.run_tm_study(power_levels=powers, tm_step=args.tm_step,
                                  out_dir=args.out)
    for power, d in result.items():
        print(f"power {power:.0f} W/m2: optimal T_m "
              f"(T_o_max) = {d['opt_T_m_for_T_o_max']:g} C, "
              f"(T_osc) = {d['opt_T_m_for_T_osc']:g} C")


@dataclass(frozen=True)
class _ProblemFile:
    """The keys a problem file may set; its bounds' names define the case."""

    bounds: dict
    power: float = PowerProfile.q0
    objective: str = "T_o_max"
    steps: dict | None = None
    dx: float = UnitCellSpec.dx
    dt: float = DEFAULT_DT

    def __post_init__(self):
        check_field_types(self)
        if not all(isinstance(v, list) and len(v) == 2
                   for v in self.bounds.values()):
            raise ValueError("bounds must map each name to a [lower, upper] "
                             f"pair, got {self.bounds!r}")


def _load_problem(args):
    model_file = args.backend[3:] if args.backend.startswith("nn:") else ""
    if args.backend != "sim" and not model_file:
        raise ValueError(f"--backend {args.backend!r} is not 'sim' or "
                         "'nn:<model file>'")
    source = f"problem file {args.problem}"
    spec = from_record(_ProblemFile, read_json(args.problem, source), source)
    try:  # fail before searching
        verifier = studies.simulator(list(spec.bounds), spec.objective,
                                     Fidelity(spec.dx, spec.dt), spec.power)
        # simulator has refused a name no case takes; building both
        # corners' cases refuses what only a case shows, such as a corner
        # channel that no mesh or device layer holds, before the points
        # beyond it score +inf
        for corner in zip(*spec.bounds.values()):
            verifier.case_builder(dict(zip(spec.bounds, corner)))
        problem = studies.problem_from_bounds(
            spec.bounds, spec.objective, verifier, seed=args.seed,
            steps=spec.steps)
    except ValueError as e:
        raise ValueError(f"{source}: {e}") from e
    if model_file:
        problem = dc_replace(problem, backend=studies.SurrogateBackend(
            SurrogateModel.load(model_file), verifier))
    return problem


def _add_seed_flag(p):
    """--seed, which main refuses below 0 before the command runs."""
    p.add_argument("--seed", type=int, default=0)


def _fidelity(args) -> Fidelity:
    """The --dx-um mesh at the reference step."""
    return Fidelity(args.dx_um / 1e6, DEFAULT_DT)


def _cmd_optimize(args):
    if args.repeats is not None:
        check_repeats(args.repeats, [args.strategy], "--repeats")
    problem = _load_problem(args)
    if args.repeats is not None:
        out = repeat_with_seeds(problem, args.strategy, n_runs=args.repeats)
        payload = {"summary": out["summary"],
                   "runs": [asdict(r) for r in out["runs"]]}
    elif args.strategy == "sweep":
        result, table = parametric_sweep(problem)
        payload = {"result": asdict(result), "table": table}
    else:
        payload = {"result": asdict(STRATEGIES[args.strategy](problem))}
    _emit(payload, args.out)


def _cmd_generate(args):
    path = studies.generate_training_data(
        kind=args.kind, n=args.n, out_dir=args.out, seed=args.seed,
        sampler=args.sampler, power=args.power, fidelity=_fidelity(args))
    print(f"campaign written to {path}")


def _cmd_train(args):
    column = OBJECTIVE_COLUMNS[_TARGETS[args.target]]
    data = load_training_csv(args.data, column)
    model = train_lm(data, hidden=args.hidden, seed=args.seed)
    model.save(args.out)
    print(f"model saved to {args.out}: {model.target_name} from "
          f"{model.input_names} (train R^2 = {r_squared(model, data):.4f})")


def _cmd_ablation(args):
    sizes = _flag_values("--sizes", args.sizes,
                         "a comma-separated list of integers", int)
    check_repeats(args.repeats, (), "--repeats")
    fidelity = _fidelity(args)
    objective = _TARGETS[args.target]
    pool = load_training_csv(args.pool, OBJECTIVE_COLUMNS[objective])
    test = load_training_csv(args.test, OBJECTIVE_COLUMNS[objective])
    try:  # fail before training
        studies.check_sizes(sizes, pool)
    except ValueError as e:
        raise ValueError(f"--sizes {args.sizes!r}: {e}") from e

    verifier = studies.simulator(list(studies.GEOMETRY_BOUNDS), objective,
                                 fidelity, args.power)
    report = studies.run_ablation(pool, test, sizes, verifier,
                                  repeats=args.repeats, base_seed=args.seed)
    _emit(report, args.out)


def _cmd_surface(args):
    h_grid, w_grid = (
        grid_points(*_flag_values(flag, text, "lower:upper:step", sep=":",
                                  count=3))
        for flag, text in [("--h-grid", args.h_grid),
                           ("--w-grid", args.w_grid)])
    fidelity = _fidelity(args)
    rows = studies.emit_surface(SurrogateModel.load(args.model),
                                fixed_tm=args.tm, h_grid=h_grid,
                                w_grid=w_grid, out_path=args.out,
                                power=args.power, fidelity=fidelity)
    print(f"{len(rows)} surface rows written to {args.out}")


def _cmd_sensitivity(args):
    case = _case_from_args(args)
    result = studies.sensitivity(case, dt=args.dt_ms / 1e3)
    if args.out:
        studies.write_csv(args.out, ["property", "dTo_max", "dTosc"],
                          ([prop, d["dT_o_max"], d["dT_osc"]]
                           for prop, d in result.items()))
    for prop, d in result.items():
        print(f"{prop:>12}: |dT_o_max| = {d['dT_o_max']:.4f} C, "
              f"|dT_osc| = {d['dT_osc']:.4f} C")


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="pcmopt", description=__doc__)
    sub = p.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("simulate", help="run one transient case")
    _add_case_flags(sp)
    sp.add_argument("--out", required=True)
    sp.add_argument("--snapshot-every", type=int)
    sp.set_defaults(func=_cmd_simulate)

    sp = sub.add_parser("metrics", help="simulate and report metrics")
    _add_case_flags(sp)
    sp.add_argument("--out")
    sp.add_argument("--stats", action="store_true",
                    help="add the run's counters and phase times")
    sp.set_defaults(func=_cmd_metrics)

    sp = sub.add_parser("compare-pcms", help="run the PCM comparison study")
    sp.add_argument("--power", type=float, default=PowerProfile.q0)
    sp.add_argument("--out")
    sp.set_defaults(func=_cmd_compare_pcms)

    sp = sub.add_parser("sweep", help="melt-temperature sweep study")
    sp.add_argument("--powers", default="100000")
    sp.add_argument("--tm-step", type=float, default=1.0)
    sp.add_argument("--out")
    sp.set_defaults(func=_cmd_sweep)

    sp = sub.add_parser("optimize", help="run an optimization problem")
    sp.add_argument("--problem", required=True)
    sp.add_argument("--strategy", choices=["sweep", *STRATEGIES],
                    required=True)
    sp.add_argument("--backend", default="sim",
                    help="'sim' or 'nn:<model.json>'")
    _add_seed_flag(sp)
    sp.add_argument("--repeats", type=int)
    sp.add_argument("--out")
    sp.set_defaults(func=_cmd_optimize)

    sp = sub.add_parser("generate", help="generate a training campaign")
    sp.add_argument("--kind", choices=["geometry", "properties"],
                    required=True)
    sp.add_argument("--n", type=int, required=True)
    sp.add_argument("--out", required=True)
    _add_seed_flag(sp)
    sp.add_argument("--sampler", choices=["lhs", "grid"], default="lhs")
    sp.add_argument("--power", type=float, default=PowerProfile.q0)
    sp.add_argument("--dx-um", type=float, default=UnitCellSpec.dx * 1e6)
    sp.set_defaults(func=_cmd_generate)

    sp = sub.add_parser("train", help="train a surrogate network")
    sp.add_argument("--data", required=True)
    sp.add_argument("--target", choices=list(_TARGETS), required=True)
    _add_seed_flag(sp)
    sp.add_argument("--hidden", type=int, default=10)
    sp.add_argument("--out", required=True)
    sp.set_defaults(func=_cmd_train)

    sp = sub.add_parser("ablation", help="training-set-size ablation")
    sp.add_argument("--pool", required=True)
    sp.add_argument("--test", required=True)
    sp.add_argument("--target", choices=list(_TARGETS), required=True)
    sp.add_argument("--sizes", required=True)
    sp.add_argument("--repeats", type=int, default=10)
    _add_seed_flag(sp)
    sp.add_argument("--power", type=float, default=PowerProfile.q0)
    sp.add_argument("--dx-um", type=float, default=UnitCellSpec.dx * 1e6)
    sp.add_argument("--out")
    sp.set_defaults(func=_cmd_ablation)

    sp = sub.add_parser("surface", help="paired NN/simulator surface")
    sp.add_argument("--model", required=True)
    sp.add_argument("--tm", type=float, required=True)
    sp.add_argument("--h-grid", default="20:100:10")
    sp.add_argument("--w-grid", default="20:100:10")
    sp.add_argument("--power", type=float, default=PowerProfile.q0)
    sp.add_argument("--dx-um", type=float, default=UnitCellSpec.dx * 1e6)
    sp.add_argument("--out", required=True)
    sp.set_defaults(func=_cmd_surface)

    sp = sub.add_parser("sensitivity", help="+/-10 percent property sensitivity")
    _add_case_flags(sp)
    sp.add_argument("--out")
    sp.set_defaults(func=_cmd_sensitivity)

    return p


def main(argv=None) -> int:
    """Run one command; an input error is one stderr line and exit status 2,
    as argparse reports its own."""
    args = build_parser().parse_args(argv)
    try:
        if getattr(args, "seed", 0) < 0:
            raise ValueError("--seed must be a non-negative integer, got "
                             f"{args.seed}")
        args.func(args)
    except (ValueError, UnknownMaterialError) as exc:
        # args[0], since str() of a KeyError quotes its message
        print(f"pcmopt {args.command}: error: {exc.args[0]}", file=sys.stderr)
        return 2
    except OSError as exc:
        # strerror and filename, since an OSError's args[0] is its errno
        where = f": {exc.filename}" if exc.filename is not None else ""
        print(f"pcmopt {args.command}: error: {exc.strerror}{where}",
              file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
