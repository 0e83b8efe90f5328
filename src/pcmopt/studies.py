"""Study orchestration: PCM comparison, melt-temperature sweeps, five-property
sensitivity, training campaigns, the training-set-size ablation, and surface
emission. A study that builds its own cases takes one solver.Fidelity, the
mesh size dx and the step dt (REFERENCE by default); one that is handed a
case, as sensitivity is, takes dt alone. Every study runs its transients
through one case runner, evaluate_cases, which checks dt before any case
runs and yields each case's ThermalHistory or its exception; the study
reduces each history itself. A training campaign records a failed case, and
every other study (and SimulatorBackend.evaluate) raises the first.

check_columns is the one names rule for every record a search reads a point
through: a network, a training set, a backend or a verifier stands for an
objective only if it maps the search parameters, in order, to its column.

Every simulator objective, a search's and its verifier's, comes from one
call, simulator(param_names, objective, fidelity, power), which runs
geometry_case's cases at the fidelity's mesh and step. SimulatorBackend's
own constructor, with a case builder and a settings dict that may set only
dt, stays for the benchmark, which builds it that way until ROADMAP item 2.

Each study writes a directory with config.json, results.csv, and
summary.json; training campaigns additionally keep one artifact per case so
an interrupted run resumes to a byte-identical CSV.
"""

from __future__ import annotations

import csv
import hashlib
import json
import os
import warnings
from collections import deque
from contextlib import closing
from dataclasses import asdict, replace as dc_replace
from functools import partial
from pathlib import Path

import numpy as np

from . import metrics, solver
from .geometry import T_AMB_C, Case, PowerProfile, UnitCellSpec
from .materials import (PCM_NAMES, Material, builtin_material, read_json,
                        write_json)
from .optimize import (Backend, OptimizationProblem, ParameterSpec,
                       check_repeats, grid, grid_points, repeat_with_seeds,
                       value_range)
from .surrogate import (MIN_TRAINING_ROWS, ExtrapolationWarning,
                        SurrogateModel, TrainingSet, predict, train_lm,
                        r_squared)

# Parameter bounds for the two optimization campaigns.
PROPERTY_BOUNDS = {
    "T_m_C": (47.0, 96.0),
    "L_H_J_per_kg": (25000.0, 48000.0),
    "k_W_per_mK": (10.0, 36.0),
    "cp_solid_J_per_kgK": (146.0, 401.0),
    "cp_liquid_J_per_kgK": (167.0, 883.0),
}
GEOMETRY_BOUNDS = {
    "H_um": (20.0, 100.0),
    "W_um": (20.0, 100.0),
    "T_m_C": (47.0, 96.0),
}

DEFAULT_POWER_LEVELS = (50e3, 75e3, 100e3, 125e3)


def default_workers() -> int:
    """PCMOPT_WORKERS (at least 1) if set, else the CPU count."""
    env = os.environ.get("PCMOPT_WORKERS")
    if not env:
        return os.cpu_count() or 1
    try:
        return max(int(env), 1)
    except ValueError:
        raise ValueError(f"PCMOPT_WORKERS={env!r} is not an integer") from None


def _run_case(case: Case, dt: float = solver.DEFAULT_DT):
    """The case's transient at step dt. simulate is looked up on its module
    at call time, where a tracer may have wrapped it."""
    return solver.simulate(case, dt=dt)


def evaluate_cases(cases, dt: float = solver.DEFAULT_DT):
    """Check dt, then return an iterator over each case's ThermalHistory,
    or the Exception its transient raised, in input order, from up to
    default_workers() processes. The pool keeps the platform's start
    method (fork on Linux): a spawned worker spends 0.2-0.3 s starting
    Python and importing numpy and pcmopt, the time of several coarse
    evaluations."""
    solver.step_counts(dt)
    cases = list(cases)
    return _fan_out(partial(_run_case, dt=dt), cases,
                    min(default_workers(), len(cases)))


def _fan_out(fn, items, workers):
    """fn of each item, or the Exception it raised, one pool task per item.
    A worker's exception carries the worker's traceback as its __cause__. A
    dead worker (BrokenExecutor) or a non-Exception is raised, and closing
    the iterator cancels the tasks not yet started."""
    if workers <= 1:
        for item in items:
            try:
                result = fn(item)
            except Exception as exc:  # noqa: BLE001 - each caller's policy
                result = exc
            yield result
        return
    # ~40 ms of multiprocessing and logging imports a serial run skips
    from concurrent.futures import BrokenExecutor, ProcessPoolExecutor
    pool = ProcessPoolExecutor(max_workers=workers)
    try:
        futures = deque(pool.submit(fn, item) for item in items)
        while futures:
            # popped, so each result is freed once the caller is done with it
            future = futures.popleft()
            exc = future.exception()
            if exc is None:
                yield future.result()
            elif (isinstance(exc, Exception)
                  and not isinstance(exc, BrokenExecutor)):
                yield exc
            else:
                raise exc
    finally:
        pool.shutdown(cancel_futures=True)


def _values(results):
    """Each result, or its exception raised; the first failure drops the
    cases to come."""
    with closing(results):
        for result in results:
            if isinstance(result, Exception):
                raise result
            yield result


def config_hash(config: dict) -> str:
    """Short stable hash of a JSON-serializable config."""
    blob = json.dumps(config, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()[:12]


def write_csv(path, header, rows):
    """Write a header row, then rows, as CSV."""
    with open(path, "w", newline="") as f:
        w = csv.writer(f)
        w.writerow(header)
        w.writerows(rows)


def _write_study(out_dir, config, header, rows, summary) -> Path:
    """Write config.json, results.csv and summary.json; returns the CSV."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    write_json(out / "config.json", config)
    write_csv(out / "results.csv", header, rows)
    write_json(out / "summary.json",
               {"config_hash": config_hash(config), **summary})
    return out / "results.csv"


# ---------------------------------------------------------------------------
# Case builder for every swept parameterization


#: Swept material parameter -> the Case.pcm fields it sets. A single
#: conductivity applies to both phases; densities are never swept.
_PCM_PARAMETERS = {
    "T_m_C": ("T_m",),
    "L_H_J_per_kg": ("L_H",),
    "k_W_per_mK": ("k_solid", "k_liquid"),
    "cp_solid_J_per_kgK": ("cp_solid",),
    "cp_liquid_J_per_kgK": ("cp_liquid",),
}
#: Swept channel dimension (um) -> the UnitCellSpec field (m) it sets.
_CHANNEL_PARAMETERS = {"H_um": "H", "W_um": "W"}


def _swept_channel(values: dict) -> dict:
    """The UnitCellSpec fields, in m, that the swept values set."""
    return {field: values[name] / 1e6
            for name, field in _CHANNEL_PARAMETERS.items() if name in values}


def _check_swept(names) -> None:
    """ValueError on a swept parameter name neither table knows."""
    unknown = set(names) - set(_PCM_PARAMETERS) - set(_CHANNEL_PARAMETERS)
    if unknown:
        known = [*_PCM_PARAMETERS, *_CHANNEL_PARAMETERS]
        raise ValueError(f"unknown swept parameters {sorted(unknown)}; "
                         f"known: {known}")


def property_case(values: dict, power: float = PowerProfile.q0,
                  cell: UnitCellSpec = UnitCellSpec()) -> Case:
    """Case.pcm, the reference Solder 174, in a channel of cell, with every
    swept parameter in values applied; ValueError on a name neither table
    knows."""
    _check_swept(values)
    cell = dc_replace(cell, **_swept_channel(values))
    pcm = dc_replace(Case.pcm, name="swept",
                     **{field: values[name]
                        for name, fields in _PCM_PARAMETERS.items()
                        if name in values for field in fields})
    return Case(cell=cell, power=PowerProfile(q0=power), pcm=pcm)


def geometry_case(values: dict, power: float = PowerProfile.q0,
                  dx: float = UnitCellSpec.dx) -> Case:
    """property_case on the reference cell meshed at dx, with the swept
    channel in place of the reference one, which need not mesh at dx."""
    return property_case(values, power,
                         UnitCellSpec(dx=dx, **_swept_channel(values)))


def _objective_column(objective: str) -> str:
    """objective's OBJECTIVE_COLUMNS column; ValueError naming it if none."""
    if objective not in metrics.OBJECTIVE_COLUMNS:
        raise ValueError(f"unknown objective {objective!r}; known: "
                         f"{list(metrics.OBJECTIVE_COLUMNS)}")
    return metrics.OBJECTIVE_COLUMNS[objective]


class SimulatorBackend(Backend):
    """Objective: a metric of the transient of the case case_builder
    returns, run by _run_case at the step dt that sim_kwargs may set,
    checked when built.
    A dict, since the benchmark passes sim_kwargs={"dt": ...} until ROADMAP
    item 2; every other caller builds one through simulator(). verify is
    evaluate, bound on the class, so a wrapper put on an instance's
    evaluate (as the benchmark's timers are) never counts a
    verification. It names its inputs and its column as a network does."""

    def __init__(self, case_builder, param_names, objective: str,
                 sim_kwargs: dict | None = None):
        self.target_name = _objective_column(objective)
        self.case_builder = case_builder
        self.input_names = list(param_names)
        self.objective = objective
        settings = dict(sim_kwargs or {})
        self.dt = settings.pop("dt", solver.DEFAULT_DT)
        if settings:
            raise ValueError(f"unknown simulation settings {sorted(settings)}"
                             "; the only one is 'dt'")
        solver.step_counts(self.dt)

    def evaluate(self, x):
        values = dict(zip(self.input_names, map(float, x)))
        report = metrics.compute_metrics(
            _run_case(self.case_builder(values), self.dt))
        return float(getattr(report, self.objective))

    verify = evaluate


def simulator(param_names, objective: str,
              fidelity: solver.Fidelity = solver.REFERENCE,
              power: float = PowerProfile.q0) -> SimulatorBackend:
    """The SimulatorBackend of objective over param_names, on
    geometry_case's cases at power, meshed at fidelity.dx and stepped at
    fidelity.dt. A point that sweeps no channel dimension keeps the
    reference channel, so it builds the case property_case builds in a
    cell meshed at fidelity.dx. A name no case takes, and a negative
    power, are refused here."""
    _check_swept(param_names)
    PowerProfile(q0=power)
    return SimulatorBackend(partial(geometry_case, power=power,
                                    dx=fidelity.dx),
                            param_names, objective,
                            sim_kwargs={"dt": fidelity.dt})


def check_columns(what: str, record, objective: str, param_names) -> None:
    """Refuse record (a model, a training set or a backend) unless it maps
    param_names, in that order, to objective's column; what names it."""
    have = (record.target_name, list(record.input_names))
    need = (_objective_column(objective), list(param_names))
    if have != need:
        raise ValueError(f"the {what} predicts {have[0]!r} from {have[1]}; "
                         f"{objective} needs {need[0]!r} from {need[1]}, "
                         "in that order")


class SurrogateBackend(Backend):
    """Objective evaluated by a trained network, simulator-verified. A batch
    is one predict call, which scores each row to the same bits as alone."""

    def __init__(self, model: SurrogateModel, verifier: Backend):
        check_columns("model", model, verifier.objective,
                      verifier.input_names)
        self.model = model
        self.verifier = verifier

    def evaluate(self, x):
        return float(self.evaluate_batch(np.asarray(x, dtype=float)[None])[0])

    def evaluate_batch(self, X):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", ExtrapolationWarning)
            return predict(self.model, X)


class ResamplingSurrogateBackend(SurrogateBackend):
    """Surrogate trained on `size` rows of pool drawn without replacement
    by seed, a size check_sizes allows from a pool whose columns
    check_columns allows. fresh(seed) builds a new backend the first time
    it sees a seed and returns that one after: one network per seed."""

    def __init__(self, pool: TrainingSet, size: int, verifier: Backend,
                 seed: int = 0, **train_kwargs):
        check_columns("pool", pool, verifier.objective, verifier.input_names)
        check_sizes([size], pool)
        self.pool = pool
        self.size = size
        self.train_kwargs = train_kwargs
        idx = np.random.default_rng(seed).choice(len(pool), size=size,
                                                 replace=False)
        super().__init__(train_lm(pool.subset(idx), seed=seed,
                                  **train_kwargs), verifier)
        self._built = {seed: self}

    def fresh(self, seed: int) -> "ResamplingSurrogateBackend":
        if seed not in self._built:
            self._built[seed] = ResamplingSurrogateBackend(
                self.pool, self.size, self.verifier, seed=seed,
                **self.train_kwargs)
        return self._built[seed]


def problem_from_bounds(bounds: dict, objective: str, backend: Backend,
                        seed: int = 0, steps: dict | None = None
                        ) -> OptimizationProblem:
    """The problem of minimizing objective over bounds, in their order, on
    backend. A backend, or its verifier, that names its objective (as a
    SimulatorBackend and a surrogate's verifier do) must pass check_columns
    for it, since it reads a point's values by its own names; one that names
    nothing is taken as it is."""
    for what, named in (("backend", backend), ("verifier", backend.verifier)):
        if getattr(named, "objective", None) is not None:
            check_columns(what, named, objective, bounds)
    steps = steps or {}
    if set(steps) - set(bounds):
        raise ValueError(f"steps {sorted(set(steps) - set(bounds))} name no "
                         f"bound; the bounds are {list(bounds)}")
    params = [ParameterSpec(name, lo, hi, steps.get(name))
              for name, (lo, hi) in bounds.items()]
    return OptimizationProblem(params, objective, backend, seed=seed)


# ---------------------------------------------------------------------------
# Study 1: commercial PCM comparison


def run_pcm_comparison(power: float = PowerProfile.q0, out_dir=None,
                       fidelity: solver.Fidelity = solver.REFERENCE
                       ) -> list[dict]:
    """Seven PCMs plus the solid-silicon baseline, ordered by T_m, in the
    reference channel at fidelity."""
    cell = UnitCellSpec(dx=fidelity.dx)
    config = {"study": "pcm-compare", "power_W_m2": power,
              "cell": asdict(cell), "dt": fidelity.dt}
    chash = config_hash(config)

    profile = PowerProfile(q0=power)
    cases = [Case(cell=dc_replace(cell, no_channel=True), power=profile)] + [
        Case(cell=cell, power=profile, pcm=builtin_material(name))
        for name in PCM_NAMES]
    reports = map(metrics.compute_metrics,
                  _values(evaluate_cases(cases, fidelity.dt)))
    rows = [{"material": name, "T_m_C": tm, **m.to_dict(),
             "config_hash": chash}
            for m, name, tm in zip(
                reports, ["Silicon", *PCM_NAMES],
                [None] + [builtin_material(n).T_m for n in PCM_NAMES])]

    if out_dir:
        header = list(rows[0])
        best = min(rows[1:], key=lambda r: r["T_o_max"])
        _write_study(out_dir, config, header,
                     [[r[h] for h in header] for r in rows],
                     {"best_T_o_max": best["material"]})
    return rows


# ---------------------------------------------------------------------------
# Study 2: melt-temperature sweeps across power levels


def _tm_row(h) -> dict:
    """Metrics and settled-cycle band of one T_m point's history."""
    m = metrics.compute_metrics(h)
    last = h.T_max[h.cycle_slice(h.n_cycles - 1)]
    return {"T_o_max": m.T_o_max, "T_osc": m.T_osc,
            "band_hi_C": float(last.max()), "band_lo_C": float(last.min())}


def run_tm_study(power_levels=DEFAULT_POWER_LEVELS, tm_step: float = 1.0,
                 out_dir=None, fidelity: solver.Fidelity = solver.REFERENCE
                 ) -> dict:
    """Sweep T_m over its bounds per power level, in the reference channel
    at fidelity: oscillation bands, optima; a repeated power is refused."""
    power_levels = list(power_levels)
    for i, power in enumerate(power_levels):
        if power in power_levels[:i]:
            raise ValueError(f"power level {power} is given more than once")
    cell = UnitCellSpec(dx=fidelity.dx)
    config = {"study": "tm-sweep", "power_levels": power_levels,
              "tm_step": tm_step, "cell": asdict(cell), "dt": fidelity.dt}
    chash = config_hash(config)
    tms = grid_points(*PROPERTY_BOUNDS["T_m_C"], tm_step)
    points = grid([power_levels, tms]).tolist()

    cases = [property_case({"T_m_C": tm}, power, cell)
             for power, tm in points]
    rows = [{"T_m_C": tm, **r, "config_hash": chash} for (_, tm), r in zip(
        points, map(_tm_row, _values(evaluate_cases(cases, fidelity.dt))))]
    tables = [rows[k:k + tms.size] for k in range(0, len(rows), tms.size)]
    per_power = {power: {
        "table": table,
        "opt_T_m_for_T_o_max": min(table, key=lambda r: r["T_o_max"])["T_m_C"],
        "opt_T_m_for_T_osc": min(table, key=lambda r: r["T_osc"])["T_m_C"]}
        for power, table in zip(power_levels, tables)}

    if out_dir:
        header = ["power_W_m2", "T_m_C", "T_o_max", "T_osc",
                  "band_hi_C", "band_lo_C", "config_hash"]
        _write_study(out_dir, config, header,
                     [[p] + [r[h] for h in header[1:]]
                      for p, d in per_power.items() for r in d["table"]],
                     {"optima": {str(p): {"T_o_max": d["opt_T_m_for_T_o_max"],
                                          "T_osc": d["opt_T_m_for_T_osc"]}
                                 for p, d in per_power.items()}})
    return per_power


# ---------------------------------------------------------------------------
# Training-data campaigns


_CAMPAIGN_BOUNDS = {"geometry": GEOMETRY_BOUNDS, "properties": PROPERTY_BOUNDS}


def _sample_inputs(sampler: str, n: int, bounds: dict, seed: int) -> np.ndarray:
    names = list(bounds)
    lows = np.array([bounds[k][0] for k in names])
    highs = np.array([bounds[k][1] for k in names])
    if sampler == "lhs":
        from scipy.stats import qmc  # ~0.9 s to import; only LHS needs it
        lhs = qmc.LatinHypercube(d=len(names), seed=seed)
        return qmc.scale(lhs.random(n), lows, highs)
    if sampler == "grid":
        d = len(names)
        per_axis = round(n ** (1.0 / d))
        if per_axis ** d != n:
            k = int(n ** (1.0 / d) + 1e-9)
            raise ValueError(f"a grid campaign needs a whole {d}-th power "
                             f"of cases, got {n}; nearest sizes are "
                             f"{k ** d} and {(k + 1) ** d}")
        axes = [np.linspace(lo, hi, per_axis) for lo, hi in zip(lows, highs)]
        return np.array(np.meshgrid(*axes, indexing="ij")).reshape(d, -1).T
    raise ValueError(f"unknown sampler {sampler!r} (use 'lhs' or 'grid')")


def generate_training_data(kind: str, n: int, out_dir, seed: int = 0,
                           sampler: str = "lhs",
                           power: float = PowerProfile.q0,
                           fidelity: solver.Fidelity = solver.REFERENCE
                           ) -> Path:
    """Sample, simulate, and persist a training campaign at fidelity.

    Writes one JSON artifact per case under out_dir/cases/ (the resume
    markers, each stamped with the campaign's config hash) and assembles
    results.csv ordered by case index, so a resumed campaign reproduces the
    identical file. A directory that holds another campaign's config.json,
    or a case file that carries another (or no) config hash or whose inputs
    this campaign does not sample at its index, is refused before anything
    runs or is written. Returns the CSV path.
    """
    if n < 1:
        raise ValueError("campaign size must be >= 1")
    if kind not in _CAMPAIGN_BOUNDS:
        raise ValueError(f"kind must be one of {list(_CAMPAIGN_BOUNDS)}")
    # what every sample shares: settings no sample could run with are
    # refused here, not recorded as n failed cases. The fidelity has
    # meshed the solid cell; geometry samples sweep the channel, but a
    # properties sample keeps the reference one, which must mesh too.
    PowerProfile(q0=power)
    if kind == "properties":
        UnitCellSpec(dx=fidelity.dx)
    bounds = _CAMPAIGN_BOUNDS[kind]
    names = list(bounds)
    X = _sample_inputs(sampler, n, bounds, seed)

    config = {"study": "campaign", "kind": kind, "n": n, "seed": seed,
              "sampler": sampler, "power_W_m2": power, "dx_m": fidelity.dx,
              "bounds": {k: list(v) for k, v in bounds.items()},
              "dt": fidelity.dt}
    chash = config_hash(config)
    out = Path(out_dir)
    config_path = out / "config.json"
    if config_path.exists():
        found = config_hash(read_json(config_path, f"file {config_path}"))
        if found != chash:
            raise ValueError(f"{out} holds campaign {found}, not {chash}; "
                             "resume it with its own settings or use a new "
                             "directory")
    # every case already on disk must be the one this config samples
    cases_dir = out / "cases"
    records = {}
    for path in sorted(cases_dir.glob("case_*.json")):
        i = path.stem[len("case_"):]
        rec = read_json(path, f"case file {path}")
        if not (i.isdigit() and int(i) < n and isinstance(rec, dict)
                and rec.get("config_hash") == chash and rec.get("inputs")
                == dict(zip(names, X[int(i)].tolist()))):
            raise ValueError(f"{path} is not a case of campaign {chash}; "
                             "resume it with its own settings or use a new "
                             "directory")
        records[int(i)] = rec
    inputs = {i: dict(zip(names, X[i].tolist()))
              for i in range(n) if i not in records}
    cases = {}
    for i, values in inputs.items():
        try:
            cases[i] = geometry_case(values, power, fidelity.dx)
        except ValueError as exc:  # a sample no mesh holds fails alone
            cases[i] = exc
    results = evaluate_cases(
        [c for c in cases.values() if isinstance(c, Case)], fidelity.dt)
    cases_dir.mkdir(parents=True, exist_ok=True)
    write_json(config_path, config)

    with closing(results):
        for i, case in cases.items():
            h = next(results) if isinstance(case, Case) else case
            if isinstance(h, Exception):
                record = {"failed": str(h)}
            else:
                m = metrics.compute_metrics(h)
                record = {column: getattr(m, objective) for objective, column
                          in metrics.OBJECTIVE_COLUMNS.items()}
            records[i] = {"inputs": inputs[i], **record, "config_hash": chash}
            # the case file marks the case done
            write_json(cases_dir / f"case_{i:06d}.json", records[i])

    for i, rec in sorted(records.items()):
        if "failed" in rec:
            warnings.warn(f"case {i} failed: {rec['failed']}", stacklevel=2)
    columns = list(metrics.OBJECTIVE_COLUMNS.values())
    rows = [[i] + [rec["inputs"][k] for k in names]
            + [rec[c] for c in columns] + [chash]
            for i, rec in sorted(records.items()) if "failed" not in rec]
    return _write_study(out, config, ["case_index"] + names + columns
                        + ["config_hash"], rows,
                        {"n_requested": n, "n_complete": len(rows),
                         "n_failed": n - len(rows)})


# ---------------------------------------------------------------------------
# Training-set-size ablation


def check_sizes(sizes, pool: TrainingSet) -> None:
    """Refuse a training-set size that train_lm cannot fit or that pool
    cannot draw without replacement."""
    for size in sizes:
        if not MIN_TRAINING_ROWS <= size <= len(pool):
            raise ValueError(f"training-set size {size} is not from "
                             f"{MIN_TRAINING_ROWS} to {len(pool)}, the "
                             "pool's rows")


def run_ablation(pool: TrainingSet, test: TrainingSet, sizes,
                 verifier: Backend, repeats: int = 10, base_seed: int = 0,
                 strategies=("ga", "pso"), optimizer_config=None
                 ) -> list[dict]:
    """Train/optimize/verify over GEOMETRY_BOUNDS across training-set sizes.

    verifier scores each optimum over GEOMETRY_BOUNDS (a SimulatorBackend
    of the ablated metric); pool and test must map those inputs to its
    column. Each size trains one network per repeat seed, for its R^2 and
    for every strategy. The verifier, both sets, every size, the repeats
    and the strategies (check_repeats) are checked before any training.
    """
    problem = problem_from_bounds(GEOMETRY_BOUNDS, verifier.objective,
                                  verifier, seed=base_seed)
    check_columns("test set", test, verifier.objective, GEOMETRY_BOUNDS)
    check_sizes(sizes, pool)
    check_repeats(repeats, strategies, "repeats")
    report = []
    for size in sizes:
        backend = ResamplingSurrogateBackend(pool, int(size), verifier,
                                             seed=base_seed)
        seeds = range(base_seed, base_seed + repeats)
        entry = {"size": int(size), "r_squared": value_range(
            [r_squared(backend.fresh(seed).model, test) for seed in seeds])}
        for strategy in strategies:
            entry[strategy] = repeat_with_seeds(
                dc_replace(problem, backend=backend), strategy,
                n_runs=repeats, config=optimizer_config)["summary"]
        report.append(entry)
    return report


# ---------------------------------------------------------------------------
# Fig. 7-style surface comparison


def emit_surface(model: SurrogateModel, fixed_tm: float, h_grid, w_grid,
                 out_path=None, power: float = PowerProfile.q0,
                 fidelity: solver.Fidelity = solver.REFERENCE) -> list[dict]:
    """Paired NN/simulator T_o_max surface over an H/W grid at fixed T_m,
    simulated at fidelity; the network scores it as a SurrogateBackend."""
    verifier = simulator(list(GEOMETRY_BOUNDS), "T_o_max", fidelity, power)
    backend = SurrogateBackend(model, verifier)
    points = grid([h_grid, w_grid, [fixed_tm]])
    cases = [verifier.case_builder(dict(zip(GEOMETRY_BOUNDS, x)))
             for x in points]
    reports = map(metrics.compute_metrics,
                  _values(evaluate_cases(cases, fidelity.dt)))
    t_nn = backend.evaluate_batch(points).tolist()
    rows = [{"H_um": x[0], "W_um": x[1], "T_m_C": x[2], "T_nn_C": t,
             "T_sim_C": m.T_o_max} for m, x, t in zip(reports, points, t_nn)]
    if out_path:
        header = list(rows[0])
        write_csv(out_path, header, [[r[h] for h in header] for r in rows])
    return rows


# ---------------------------------------------------------------------------
# Property sensitivity


#: Properties perturbed by the sensitivity study, the paper's five; k is
#: one conductivity for both phases.
SENSITIVITY_PROPERTIES = ("T_m", "L_H", "k", "cp_solid", "cp_liquid")
# Relative up and down step of each property in the sensitivity study.
PERTURBATION = 0.10


def _perturbed_material(base: Material, prop: str, factor: float) -> Material:
    if prop == "T_m":
        # scale the melt superheat above ambient, not T_m itself
        return dc_replace(base, T_m=T_AMB_C + factor * (base.T_m - T_AMB_C))
    if prop == "k":
        return dc_replace(base, k_solid=factor * base.k_solid,
                          k_liquid=factor * base.k_liquid)
    return dc_replace(base, **{prop: factor * getattr(base, prop)})


def sensitivity(base_case: Case, dt: float = solver.DEFAULT_DT
                ) -> dict[str, dict[str, float]]:
    """Mean absolute metric shift under +/-PERTURBATION of each property.

    Returns {property: {"dT_o_max": ..., "dT_osc": ...}} where each value is
    the average over the up and down perturbations of |metric - base|.
    """
    if base_case.cell.no_channel or not base_case.pcm.is_pcm:
        raise ValueError("sensitivity needs a case with a PCM channel")
    cases = [base_case] + [
        dc_replace(base_case, pcm=_perturbed_material(base_case.pcm, prop,
                                                      factor))
        for prop in SENSITIVITY_PROPERTIES
        for factor in (1.0 + PERTURBATION, 1.0 - PERTURBATION)]
    base, *runs = map(metrics.compute_metrics,
                      _values(evaluate_cases(cases, dt)))
    return {prop: {"dT_o_max": float(np.mean([abs(m.T_o_max - base.T_o_max)
                                              for m in pair])),
                   "dT_osc": float(np.mean([abs(m.T_osc - base.T_osc)
                                            for m in pair]))}
            for prop, pair in zip(SENSITIVITY_PROPERTIES,
                                  zip(runs[0::2], runs[1::2]))}
