"""Study orchestration: PCM comparison, melt-temperature sweeps, training
campaigns, the training-set-size ablation, and surface emission.

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
from concurrent.futures import ProcessPoolExecutor
from dataclasses import replace as dc_replace
from functools import partial
from pathlib import Path

import numpy as np
from scipy.stats import qmc

from .geometry import Case, PowerProfile, UnitCellSpec
from .materials import PCM_NAMES, builtin_material
from .metrics import simulate_metrics
from .optimize import Backend, OptimizationProblem, ParameterSpec
from .solver import simulate
from .surrogate import (SurrogateModel, TrainingSet, predict, train_lm,
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

REFERENCE_CELL = UnitCellSpec(H=100e-6, W=50e-6)
# Every swept PCM starts from this material.
BASE_PCM = "Solder174"
REFERENCE_POWER = PowerProfile(q0=100e3)
DEFAULT_POWER_LEVELS = (50e3, 75e3, 100e3, 125e3)


def default_workers() -> int:
    env = os.environ.get("PCMOPT_WORKERS")
    if env:
        return max(int(env), 1)
    return os.cpu_count() or 1


def config_hash(config: dict) -> str:
    """Short stable hash of a JSON-serializable config."""
    blob = json.dumps(config, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()[:12]


def _write_csv(path, header, rows):
    with open(path, "w", newline="") as f:
        w = csv.writer(f)
        w.writerow(header)
        w.writerows(rows)


def _write_json(path, obj):
    with open(path, "w") as f:
        json.dump(obj, f, indent=2)


# ---------------------------------------------------------------------------
# Case builders for the optimization parameterizations


def _swept_case(cell: UnitCellSpec, power: float, **properties) -> Case:
    """BASE_PCM with some properties overridden, in a channel of cell."""
    mat = dc_replace(builtin_material(BASE_PCM), name="swept", **properties)
    return Case(cell=cell, power=PowerProfile(q0=power),
                pcm_override=mat.to_dict())


def property_case(values: dict, power: float = 100e3,
                  cell: UnitCellSpec = REFERENCE_CELL) -> Case:
    """BASE_PCM with the five swept properties overridden.

    A single conductivity value applies to both phases; densities stay at
    the base material's values.
    """
    return _swept_case(
        cell, power,
        T_m=values["T_m_C"],
        L_H=values["L_H_J_per_kg"],
        k_solid=values["k_W_per_mK"],
        k_liquid=values["k_W_per_mK"],
        cp_solid=values["cp_solid_J_per_kgK"],
        cp_liquid=values["cp_liquid_J_per_kgK"],
    )


def geometry_case(values: dict, power: float = 100e3,
                  dx: float = 5e-6) -> Case:
    """Channel height/width plus melt temperature; other properties fixed."""
    cell = UnitCellSpec(H=values["H_um"] * 1e-6, W=values["W_um"] * 1e-6,
                        dx=dx)
    return _swept_case(cell, power, T_m=values["T_m_C"])


def tm_case(values: dict, power: float = 100e3,
            cell: UnitCellSpec = REFERENCE_CELL) -> Case:
    """Melt temperature only; everything else BASE_PCM at fixed geometry."""
    return _swept_case(cell, power, T_m=values["T_m_C"])


#: The case builder of each case kind, called as build(values, power, dx).
#: Kinds at a fixed geometry mesh the reference cell at dx.
CASE_KINDS = {
    "geometry": lambda values, power, dx: geometry_case(
        values, power=power, dx=dx),
    "properties": lambda values, power, dx: property_case(
        values, power=power, cell=dc_replace(REFERENCE_CELL, dx=dx)),
    "tm": lambda values, power, dx: tm_case(
        values, power=power, cell=dc_replace(REFERENCE_CELL, dx=dx)),
}


def case_builder(kind: str, power: float = 100e3, dx: float = 5e-6):
    """Builder values -> Case of one case kind at a given power and mesh."""
    if kind not in CASE_KINDS:
        raise ValueError(f"kind must be one of {list(CASE_KINDS)}")
    return partial(CASE_KINDS[kind], power=power, dx=dx)


#: MetricsReport fields a simulator-backed search can minimize.
_OBJECTIVES = ("T_o_max", "T_osc")


class SimulatorBackend(Backend):
    """Objective evaluated by running the transient simulator.

    evaluate() and verify() both simulate the case with sim_kwargs; the
    cell (and so the mesh) is whatever case_builder returns. verify() calls
    the shared helper, not evaluate(), so a wrapper put on an instance's
    evaluate() (as the benchmark's timers do) never counts verifications.
    """

    def __init__(self, case_builder, param_names, objective: str,
                 sim_kwargs: dict | None = None):
        if objective not in _OBJECTIVES:
            raise ValueError(f"objective must be one of {list(_OBJECTIVES)}")
        self.case_builder = case_builder
        self.param_names = list(param_names)
        self.objective = objective
        self.sim_kwargs = dict(sim_kwargs or {})

    def _metric(self, x) -> float:
        values = dict(zip(self.param_names, np.asarray(x, dtype=float)))
        case = self.case_builder(values)
        report = simulate_metrics(case, **self.sim_kwargs)
        return float(getattr(report, self.objective))

    def evaluate(self, x):
        return self._metric(x)

    def verify(self, x):
        return self._metric(x)


class SurrogateBackend(Backend):
    """Objective evaluated by a trained network, simulator-verified."""

    def __init__(self, model: SurrogateModel, verifier: SimulatorBackend):
        self.model = model
        self.verifier = verifier

    def evaluate(self, x):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            return float(predict(self.model, np.asarray(x, dtype=float)))

    def verify(self, x):
        return self.verifier.verify(x)


class ResamplingSurrogateBackend(SurrogateBackend):
    """Surrogate retrained on a freshly resampled subset per repeat seed."""

    def __init__(self, pool: TrainingSet, size: int,
                 verifier: SimulatorBackend, seed: int = 0, **train_kwargs):
        if size > len(pool):
            raise ValueError("subset size exceeds pool")
        self.pool = pool
        self.size = size
        self.train_kwargs = train_kwargs
        model = self._train(seed)
        super().__init__(model, verifier)

    def _train(self, seed: int) -> SurrogateModel:
        rng = np.random.default_rng(seed)
        idx = rng.choice(len(self.pool), size=self.size, replace=False)
        return train_lm(self.pool.subset(idx), seed=seed, **self.train_kwargs)

    def fresh(self, seed: int) -> "ResamplingSurrogateBackend":
        return ResamplingSurrogateBackend(self.pool, self.size, self.verifier,
                                          seed=seed, **self.train_kwargs)


def problem_from_bounds(bounds: dict, objective: str, backend: Backend,
                        seed: int = 0, steps: dict | None = None
                        ) -> OptimizationProblem:
    steps = steps or {}
    params = [ParameterSpec(name, lo, hi, steps.get(name))
              for name, (lo, hi) in bounds.items()]
    return OptimizationProblem(params, objective, backend, seed=seed)


# ---------------------------------------------------------------------------
# Study 1: commercial PCM comparison


def run_pcm_comparison(power: float = 100e3, out_dir=None,
                       cell: UnitCellSpec = REFERENCE_CELL,
                       **sim_kwargs) -> list[dict]:
    """Seven PCMs plus the solid-silicon baseline, ordered by T_m."""
    config = {"study": "pcm-compare", "power_W_m2": power,
              "cell": cell.to_dict(), "sim_kwargs": repr(sim_kwargs)}
    chash = config_hash(config)

    rows = []
    baseline = Case(cell=dc_replace(cell, no_channel=True),
                    power=PowerProfile(q0=power))
    m = simulate_metrics(baseline, **sim_kwargs)
    rows.append({"material": "Silicon", "T_m_C": None, **m.to_dict(),
                 "config_hash": chash})
    for name in PCM_NAMES:
        case = Case(cell=cell, power=PowerProfile(q0=power), pcm_name=name)
        m = simulate_metrics(case, **sim_kwargs)
        rows.append({"material": name, "T_m_C": builtin_material(name).T_m,
                     **m.to_dict(), "config_hash": chash})

    if out_dir:
        out = Path(out_dir)
        out.mkdir(parents=True, exist_ok=True)
        _write_json(out / "config.json", config)
        header = list(rows[0])
        _write_csv(out / "results.csv", header,
                   [[r[h] for h in header] for r in rows])
        best = min((r for r in rows if r["material"] != "Silicon"),
                   key=lambda r: r["T_o_max"])
        _write_json(out / "summary.json",
                    {"config_hash": chash, "best_T_o_max": best["material"]})
    return rows


# ---------------------------------------------------------------------------
# Study 2: melt-temperature sweeps across power levels


def run_tm_study(power_levels=DEFAULT_POWER_LEVELS, tm_step: float = 1.0,
                 tm_range=(47.0, 96.0), out_dir=None,
                 cell: UnitCellSpec = REFERENCE_CELL,
                 **sim_kwargs) -> dict:
    """Sweep T_m per power level; emits oscillation-band data and optima."""
    config = {"study": "tm-sweep", "power_levels": list(power_levels),
              "tm_step": tm_step, "tm_range": list(tm_range),
              "cell": cell.to_dict(), "sim_kwargs": repr(sim_kwargs)}
    chash = config_hash(config)
    tms = np.arange(tm_range[0], tm_range[1] + tm_step / 2, tm_step)

    per_power = {}
    for power in power_levels:
        table = []
        for tm in tms:
            case = tm_case({"T_m_C": float(tm)}, power=power, cell=cell)
            h = simulate(case, **sim_kwargs)
            last = h.T_max[h.cycle_slice(h.n_cycles - 1)]
            table.append({
                "T_m_C": float(tm),
                "T_o_max": float(h.T_max.max()),
                "T_osc": float(last.max() - last.min()),
                "band_hi_C": float(last.max()),
                "band_lo_C": float(last.min()),
                "config_hash": chash,
            })
        i_max = min(range(len(table)), key=lambda i: table[i]["T_o_max"])
        i_osc = min(range(len(table)), key=lambda i: table[i]["T_osc"])
        per_power[power] = {
            "table": table,
            "opt_T_m_for_T_o_max": table[i_max]["T_m_C"],
            "opt_T_m_for_T_osc": table[i_osc]["T_m_C"],
        }

    if out_dir:
        out = Path(out_dir)
        out.mkdir(parents=True, exist_ok=True)
        _write_json(out / "config.json", config)
        header = ["power_W_m2", "T_m_C", "T_o_max", "T_osc",
                  "band_hi_C", "band_lo_C", "config_hash"]
        rows = [[p, r["T_m_C"], r["T_o_max"], r["T_osc"],
                 r["band_hi_C"], r["band_lo_C"], chash]
                for p, d in per_power.items() for r in d["table"]]
        _write_csv(out / "results.csv", header, rows)
        _write_json(out / "summary.json", {
            "config_hash": chash,
            "optima": {str(p): {"T_o_max": d["opt_T_m_for_T_o_max"],
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
        lhs = qmc.LatinHypercube(d=len(names), seed=seed)
        return qmc.scale(lhs.random(n), lows, highs)
    if sampler == "grid":
        per_axis = int(np.ceil(n ** (1.0 / len(names))))
        axes = [np.linspace(lo, hi, per_axis) for lo, hi in zip(lows, highs)]
        full = np.array(np.meshgrid(*axes, indexing="ij")).reshape(
            len(names), -1).T
        return full[:n]
    raise ValueError(f"unknown sampler {sampler!r} (use 'lhs' or 'grid')")


def _run_campaign_case(args):
    index, names, x, kind, power, dx, sim_kwargs = args
    values = dict(zip(names, x))
    case = case_builder(kind, power=power, dx=dx)(values)
    try:
        m = simulate_metrics(case, **sim_kwargs)
        return index, {"inputs": values, "T_o_max_C": m.T_o_max,
                       "T_osc_C": m.T_osc}
    except Exception as exc:  # noqa: BLE001 - skip failed case, keep campaign
        return index, {"inputs": values, "failed": str(exc)}


def generate_training_data(kind: str, n: int, out_dir, seed: int = 0,
                           sampler: str = "lhs", power: float = 100e3,
                           dx: float = 5e-6, workers: int | None = None,
                           sim_kwargs: dict | None = None) -> Path:
    """Sample, simulate, and persist a training campaign.

    Writes one JSON artifact per case under out_dir/cases/ (the resume
    markers) and assembles results.csv ordered by case index, so a resumed
    campaign reproduces the identical file. Returns the CSV path.
    """
    if n < 1:
        raise ValueError("campaign size must be >= 1")
    if kind not in _CAMPAIGN_BOUNDS:
        raise ValueError(f"kind must be one of {list(_CAMPAIGN_BOUNDS)}")
    bounds = _CAMPAIGN_BOUNDS[kind]
    sim_kwargs = sim_kwargs or {}
    workers = workers or default_workers()
    out = Path(out_dir)
    cases_dir = out / "cases"
    cases_dir.mkdir(parents=True, exist_ok=True)

    config = {"study": "campaign", "kind": kind, "n": n, "seed": seed,
              "sampler": sampler, "power_W_m2": power, "dx_m": dx,
              "bounds": {k: list(v) for k, v in bounds.items()},
              "sim_kwargs": repr(sim_kwargs)}
    chash = config_hash(config)
    _write_json(out / "config.json", config)

    names = list(bounds)
    X = _sample_inputs(sampler, n, bounds, seed)

    pending = []
    for i in range(n):
        if not (cases_dir / f"case_{i:06d}.json").exists():
            pending.append((i, names, X[i], kind, power, dx, sim_kwargs))

    def store(index, record):
        with open(cases_dir / f"case_{index:06d}.json", "w") as f:
            json.dump(record, f, sort_keys=True)

    if workers > 1 and pending:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            for index, record in pool.map(_run_campaign_case, pending,
                                          chunksize=4):
                store(index, record)
    else:
        for task in pending:
            index, record = _run_campaign_case(task)
            store(index, record)

    rows = []
    n_failed = 0
    for i in range(n):
        with open(cases_dir / f"case_{i:06d}.json") as f:
            rec = json.load(f)
        if "failed" in rec:
            n_failed += 1
            warnings.warn(f"case {i} failed: {rec['failed']}", stacklevel=2)
            continue
        rows.append([i] + [rec["inputs"][k] for k in names]
                    + [rec["T_o_max_C"], rec["T_osc_C"], chash])

    csv_path = out / "results.csv"
    _write_csv(csv_path, ["case_index"] + names
               + ["T_o_max_C", "T_osc_C", "config_hash"], rows)
    _write_json(out / "summary.json", {"config_hash": chash,
                                       "n_requested": n,
                                       "n_complete": len(rows),
                                       "n_failed": n_failed})
    return csv_path


# ---------------------------------------------------------------------------
# Training-set-size ablation


def run_ablation(pool: TrainingSet, test: TrainingSet, sizes,
                 verifier_factory, repeats: int = 10, base_seed: int = 0,
                 strategies=("ga", "pso"), optimizer_config=None
                 ) -> list[dict]:
    """Train/optimize/verify over GEOMETRY_BOUNDS across training-set sizes.

    verifier_factory(objective) must return the SimulatorBackend used for
    verification. pool and test must target the same metric pair; pool's
    target_name selects the metric being ablated.
    """
    from .optimize import repeat_with_seeds  # local to avoid cycle at import

    report = []
    for size in sizes:
        entry = {"size": int(size)}
        r2_values = []
        for rep in range(repeats):
            seed = base_seed + rep
            rng = np.random.default_rng(seed)
            idx = rng.choice(len(pool), size=int(size), replace=False)
            model = train_lm(pool.subset(idx), seed=seed)
            r2_values.append(r_squared(model, test))
        entry["r_squared"] = {"mean": float(np.mean(r2_values)),
                              "min": float(np.min(r2_values)),
                              "max": float(np.max(r2_values))}

        for strategy in strategies:
            backend = ResamplingSurrogateBackend(
                pool, int(size), verifier_factory(pool.target_name),
                seed=base_seed)
            problem = problem_from_bounds(GEOMETRY_BOUNDS, pool.target_name,
                                          backend, seed=base_seed)
            out = repeat_with_seeds(problem, strategy, n_runs=repeats,
                                    config=optimizer_config)
            entry[strategy] = out["summary"]
        report.append(entry)
    return report


# ---------------------------------------------------------------------------
# Fig. 7-style surface comparison


def emit_surface(model: SurrogateModel, fixed_tm: float, h_grid, w_grid,
                 out_path=None, power: float = 100e3, dx: float = 5e-6,
                 training_points: np.ndarray | None = None,
                 sim_kwargs: dict | None = None) -> list[dict]:
    """Paired NN/simulator T_o_max surface over an H/W grid at fixed T_m."""
    sim_kwargs = sim_kwargs or {}
    train_set = set()
    if training_points is not None:
        train_set = {(round(float(h), 6), round(float(w), 6))
                     for h, w, *_ in training_points}
    rows = []
    for h_um in h_grid:
        for w_um in w_grid:
            x = np.array([float(h_um), float(w_um), float(fixed_tm)])
            with warnings.catch_warnings():
                warnings.simplefilter("ignore")
                t_nn = float(predict(model, x))
            case = geometry_case({"H_um": x[0], "W_um": x[1],
                                  "T_m_C": x[2]}, power=power, dx=dx)
            t_sim = simulate_metrics(case, **sim_kwargs).T_o_max
            rows.append({"H_um": x[0], "W_um": x[1], "T_m_C": x[2],
                         "T_nn_C": t_nn, "T_sim_C": t_sim,
                         "is_training_point":
                             (round(x[0], 6), round(x[1], 6)) in train_set})
    if out_path:
        header = list(rows[0])
        _write_csv(out_path, header, [[r[h] for h in header] for r in rows])
    return rows
