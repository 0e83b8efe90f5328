"""Bound-constrained minimization: exhaustive sweep, real-coded genetic
algorithm, and particle swarm, over objectives backed by the simulator or a
trained surrogate. Only the seeded searches (STRATEGIES: GA, PSO) repeat.

Every result carries both the backend's best objective and a simulator-
verified value (for surrogate backends the optimum is always re-simulated
before reporting).
"""

from __future__ import annotations

import itertools
import math
import time
import warnings
from dataclasses import dataclass, field, asdict, replace as dc_replace

import numpy as np

from .materials import check_count, check_field_types, check_number

# Fixed GA operators: survivors per generation, share of children bred by
# crossover (the rest by mutation), and tournament size.
GA_ELITE = 2
GA_CROSSOVER_FRACTION = 0.8
GA_TOURNAMENT = 3
# PSO inertia, annealed linearly from start to end, and acceleration weights.
PSO_INERTIA_START = 0.9
PSO_INERTIA_END = 0.4
PSO_COGNITIVE = 1.49
PSO_SOCIAL = 1.49
# Largest grid a sweep or study enumerates, and largest grid axis.
SWEEP_GRID_CAP = 200_000


class Backend:
    """Objective backend: evaluate_batch() drives the search; an optimum
    reports verifier.verify() if a `verifier` is set, else its search
    value."""

    verifier: Backend | None = None

    def evaluate(self, x: np.ndarray) -> float:
        raise NotImplementedError

    def evaluate_batch(self, X: np.ndarray) -> np.ndarray:
        """Objective of each row of X. The default calls evaluate() row by
        row, looked up on the instance so that a wrapper set there (as the
        benchmark's timers are) sees every evaluation; a row that raises
        scores +inf with a warning and the other rows still run."""
        return np.array([_penalized(self.evaluate, x) for x in X])

    def fresh(self, seed: int) -> "Backend":
        """Per-repeat variant (e.g. retrained surrogate); default is self."""
        return self


@dataclass
class OptimizationProblem:
    bounds: dict  # name -> (lower, upper), in search order; kept as a copy
    objective: str  # metric tag, e.g. "T_o_max" or "T_osc"
    backend: Backend
    seed: int = 0
    steps: dict = field(default_factory=dict)  # name -> a sweep's grid step

    def __post_init__(self):
        if not self.bounds:
            raise ValueError("a problem needs at least one parameter to "
                             "search, got none")
        if not isinstance(self.bounds, dict) or not all(
                isinstance(v, (list, tuple)) and len(v) == 2
                for v in self.bounds.values()):
            raise ValueError("bounds must map each name to a [lower, upper] "
                             f"pair, got {self.bounds!r}")
        self.bounds = {name: tuple(v) for name, v in self.bounds.items()}
        self.steps = dict(self.steps)
        unknown = sorted(set(self.steps) - set(self.bounds))
        if unknown:
            raise ValueError(f"steps {unknown} name no bound; the bounds are "
                             f"{self.names}")
        for name, (lower, upper) in self.bounds.items():
            check_number(f"{name}: lower", lower)
            check_number(f"{name}: upper", upper)
            if not lower < upper:
                raise ValueError(f"{name}: lower must be < upper")
        for name, step in self.steps.items():
            check_number(f"{name}: grid step", step)
            if step <= 0:
                raise ValueError(f"{name}: grid step must be positive")
        check_field_types(self)

    @property
    def names(self) -> list[str]:
        return list(self.bounds)

    @property
    def lower(self) -> np.ndarray:
        return np.array([lower for lower, _ in self.bounds.values()])

    @property
    def upper(self) -> np.ndarray:
        return np.array([upper for _, upper in self.bounds.values()])


@dataclass(frozen=True)
class GAConfig:
    population: int = 50
    mutation_sigma_frac: float = 0.05  # of each parameter's range
    stall_generations: int = 10
    max_generations: int = 100
    tol: float = 1e-3

    def __post_init__(self):
        check_field_types(self)
        for name in ("population", "stall_generations", "max_generations"):
            check_count(name, getattr(self, name), 1)
        if self.population <= GA_ELITE:
            raise ValueError(f"GA population must exceed the {GA_ELITE} "
                             f"elite survivors, got {self.population}")


@dataclass(frozen=True)
class PSOConfig:
    swarm: int = 40
    stall_iterations: int = 15
    max_iterations: int = 100
    tol: float = 1e-3

    def __post_init__(self):
        check_field_types(self)
        for name in ("swarm", "stall_iterations", "max_iterations"):
            check_count(name, getattr(self, name), 1)


#: The config class each seeded search in STRATEGIES takes.
_CONFIGS = {"ga": GAConfig, "pso": PSOConfig}


def _config(strategy: str, config):
    """config, or its search's default for None; a config of another class
    is refused, before the search draws or evaluates anything."""
    cls = _CONFIGS[strategy]
    if config is None:
        return cls()
    if not isinstance(config, cls):
        raise ValueError(f"the {strategy} search takes a {cls.__name__}, "
                         f"got {type(config).__name__}")
    return config


@dataclass
class OptimizationResult:
    parameters: dict[str, float]
    objective_value: float        # backend value at the optimum
    verified_objective: float     # simulator-verified value
    n_evaluations: int            # unique points the backend scored
    n_calls: int                  # points requested, cache hits included
    wall_time: float
    trace: list[float]            # best-so-far objective per generation
    generation_s: list[float]     # wall seconds behind each trace entry
    strategy: str
    seed: int | None
    config: dict = field(default_factory=dict)


def _penalized(evaluate, X, failed=np.inf) -> np.ndarray | float:
    """evaluate(X) as floats, or `failed` (+inf) with a warning if it
    raises."""
    try:
        return np.asarray(evaluate(X), dtype=float)
    except Exception as exc:  # noqa: BLE001 - penalize, keep optimizing
        warnings.warn(f"objective evaluation failed ({exc}); "
                      "penalized with +inf", stacklevel=2)
        return failed


class _Search:
    """One search's books: the memoized objective (failures score +inf,
    never abort), the best-so-far trace with the wall seconds behind each
    entry, and the result they report.

    Each batch sends the backend its uncached rows once each, in first-seen
    order, in one evaluate_batch call: X's own rows, the first of each key
    (a row's tuple of floats, so -0.0 and 0.0 share one key and a row
    holding NaN is scored anew each time). A batch call that raises scores
    all of them +inf. Non-finite values score +inf. A result that does not
    hold one value per row raises ValueError.
    """

    def __init__(self, backend: Backend):
        self.backend = backend
        self.cache: dict[tuple, float] = {}
        self.n_evaluations = 0
        self.n_calls = 0
        self.best: list[float] = []
        self.seconds: list[float] = []
        self.start = self._last = time.perf_counter()

    def batch(self, X: np.ndarray) -> np.ndarray:
        X = np.asarray(X, dtype=float)
        keys = [tuple(row) for row in X.tolist()]
        new = {}  # each uncached key -> the row it is first seen at
        for i, k in enumerate(keys):
            if k not in self.cache:
                new.setdefault(k, i)
        if new:
            values = _penalized(self.backend.evaluate_batch,
                                X[list(new.values())],
                                failed=np.full(len(new), np.inf))
            if values.shape != (len(new),):
                raise ValueError(f"backend returned {values.size} values "
                                 f"for {len(new)} rows")
            values = np.where(np.isfinite(values), values, np.inf)
            self.cache.update(zip(new, values.tolist()))
            self.n_evaluations += len(new)
        self.n_calls += len(keys)
        return np.array([self.cache[k] for k in keys])

    def append(self, best: float) -> None:
        now = time.perf_counter()
        self.best.append(float(best))
        self.seconds.append(now - self._last)
        self._last = now

    def stalled(self, window: int, tol: float) -> bool:
        """True once the best objective has improved by less than tol over
        the last window generations (iterations)."""
        return (len(self.best) > window
                and self.best[-window - 1] - self.best[-1] < tol)

    def result(self, problem, strategy, x_best, f_best, seed, config
               ) -> OptimizationResult:
        v = self.backend.verifier
        verified = f_best if v is None else v.verify(np.asarray(x_best))
        return OptimizationResult(
            parameters=dict(zip(problem.names, map(float, x_best))),
            objective_value=float(f_best),
            verified_objective=float(verified),
            n_evaluations=self.n_evaluations,
            n_calls=self.n_calls,
            wall_time=time.perf_counter() - self.start,
            trace=self.best,
            generation_s=self.seconds,
            strategy=strategy,
            seed=seed,
            config=config,
        )


def grid_points(lower: float, upper: float, step: float) -> np.ndarray:
    """lower, lower + step, ... for as long as the points stay within
    upper; upper itself is the last point when step divides the range
    (to 1e-9 of a step). More than SWEEP_GRID_CAP points are refused."""
    if not (0 < step < math.inf and lower <= upper):
        raise ValueError(f"a grid from {lower} to {upper} needs a finite "
                         f"positive step and lower <= upper, got step {step}")
    n = np.floor((upper - lower) / step + 1e-9) + 1
    if n > SWEEP_GRID_CAP:
        raise ValueError(f"a grid from {lower} to {upper} at step {step} "
                         f"exceeds cap {SWEEP_GRID_CAP} points")
    return lower + step * np.arange(int(n))


def grid(axes) -> np.ndarray:
    """One row per combination of the axes' values, the last varying
    fastest; more than SWEEP_GRID_CAP rows are refused before any is built."""
    total = math.prod(len(axis) for axis in axes)
    if total > SWEEP_GRID_CAP:
        raise ValueError(f"{total} grid points exceed cap {SWEEP_GRID_CAP}")
    return np.array(list(itertools.product(*axes)), dtype=float)


def parametric_sweep(problem: OptimizationProblem
                     ) -> tuple[OptimizationResult, list[dict]]:
    """Evaluate every grid point; returns the argmin (deterministic
    first-lowest tie break) plus the full table for plotting."""
    search = _Search(problem.backend)
    axes = []
    for name, (lower, upper) in problem.bounds.items():
        if name not in problem.steps:
            raise ValueError(f"{name} has no grid step; use GA or PSO")
        axes.append(grid_points(lower, upper, problem.steps[name]))
    points = grid(axes)
    values = search.batch(points)
    best = int(np.argmin(values))  # first of the lowest
    search.append(values[best])
    table = [{**dict(zip(problem.names, combo)), problem.objective: f}
             for combo, f in zip(points.tolist(), values.tolist())]
    return search.result(problem, "sweep", points[best], values[best], None,
                         {"grid_cap": SWEEP_GRID_CAP}), table


def ga_minimize(problem: OptimizationProblem,
                config: GAConfig | None = None) -> OptimizationResult:
    """Real-coded GA seeded by problem.seed: tournament selection, blend
    crossover, annealed single-coordinate Gaussian mutation, elitism; stalls
    out when the best objective stops improving.

    Seed contract: each child makes its draws in a fixed order, children in
    turn. A crossover child draws its two tournaments, then its blend
    weights; a mutant draws its tournament, then the coordinate, then the
    normal step. A tournament goes to the fittest of its draws, and a tie
    to the first drawn.

    A generation makes all of its children's draws first, then decides
    every tournament at once: one argmin per row of the drawn table.
    """
    config = _config("ga", config)
    rng = np.random.default_rng(problem.seed)
    search = _Search(problem.backend)

    lower, upper = problem.lower, problem.upper
    span = upper - lower
    dim = lower.size
    n_children = config.population - GA_ELITE
    n_xover = int(round(GA_CROSSOVER_FRACTION * n_children))
    mutants = np.arange(n_xover, n_children)

    pop = rng.uniform(lower, upper, size=(config.population, dim))
    fitness = search.batch(pop)

    for gen in range(config.max_generations):
        order = np.argsort(fitness, kind="stable")
        pop, fitness = pop[order], fitness[order]
        search.append(fitness[0])
        if search.stalled(config.stall_generations, config.tol):
            break

        sigma = config.mutation_sigma_frac * span * (
            1.0 - 0.9 * gen / config.max_generations)
        drawn, blends, coords, steps = [], [], [], []
        for _ in range(n_xover):
            drawn.append(rng.integers(0, config.population,
                                      size=2 * GA_TOURNAMENT))
            blends.append(rng.uniform(-0.25, 1.25, size=dim))
        for _ in mutants:
            # One coordinate at a time: a steep valley in one variable must
            # not veto exploration along directions the objective barely
            # resolves.
            drawn.append(rng.integers(0, config.population,
                                      size=GA_TOURNAMENT))
            coords.append(int(rng.integers(dim)))
            steps.append(rng.normal(0.0, 1.0))
        # One tournament per row: argmin keeps the first of equal values, so
        # a tie goes to the first drawn; fitness is never NaN (the cache
        # scores non-finite values +inf).
        drawn = np.concatenate(drawn).reshape(-1, GA_TOURNAMENT)
        won = drawn[np.arange(len(drawn)), fitness[drawn].argmin(axis=1)]
        parents = np.concatenate([won[:2 * n_xover:2], won[2 * n_xover:]])
        mates = won[1:2 * n_xover:2]
        children = pop[parents]
        bred = children[:n_xover]  # a view: the first parents, blended
        bred += (np.concatenate(blends).reshape(n_xover, dim)
                 * (pop[mates] - bred))
        children[mutants, coords] += np.array(steps) * sigma[coords]
        np.clip(children, lower, upper, out=children)

        pop = np.vstack([pop[:GA_ELITE], children])
        fitness = np.concatenate([fitness[:GA_ELITE],
                                  search.batch(children)])

    best = int(np.argmin(fitness))
    return search.result(problem, "ga", pop[best], fitness[best],
                         problem.seed, asdict(config))


def pso_minimize(problem: OptimizationProblem,
                 config: PSOConfig | None = None) -> OptimizationResult:
    """Particle swarm seeded by problem.seed, with linearly annealed
    inertia; positions clipped to bounds with the wall-normal velocity
    zeroed."""
    config = _config("pso", config)
    rng = np.random.default_rng(problem.seed)
    search = _Search(problem.backend)

    lower, upper = problem.lower, problem.upper
    span = upper - lower
    dim = lower.size

    x = rng.uniform(lower, upper, size=(config.swarm, dim))
    v = rng.uniform(-1.0, 1.0, size=(config.swarm, dim)) * span * 0.1
    f = search.batch(x)
    p_best_x, p_best_f = x.copy(), f.copy()
    g = int(np.argmin(f))
    g_best_x, g_best_f = x[g].copy(), float(f[g])

    for it in range(config.max_iterations):
        search.append(g_best_f)
        if search.stalled(config.stall_iterations, config.tol):
            break

        w = PSO_INERTIA_START + (PSO_INERTIA_END - PSO_INERTIA_START
                                 ) * it / max(config.max_iterations - 1, 1)
        r1 = rng.uniform(size=(config.swarm, dim))
        r2 = rng.uniform(size=(config.swarm, dim))
        v = (w * v + PSO_COGNITIVE * r1 * (p_best_x - x)
             + PSO_SOCIAL * r2 * (g_best_x - x))
        x = x + v
        v[(x < lower) | (x > upper)] = 0.0
        np.clip(x, lower, upper, out=x)

        f = search.batch(x)
        improved = f < p_best_f
        p_best_x[improved] = x[improved]
        p_best_f[improved] = f[improved]
        g = int(np.argmin(p_best_f))
        if p_best_f[g] < g_best_f:
            g_best_f = float(p_best_f[g])
            g_best_x = p_best_x[g].copy()

    return search.result(problem, "pso", g_best_x, g_best_f, problem.seed,
                         asdict(config))


#: The seeded searches a repeat spreads over: name -> minimize(problem,
#: config). Each holds the function object bound here, so a wrapper later
#: set on a module name (as the benchmark's tracer does) does not run
#: inside a repeat.
STRATEGIES = {"ga": ga_minimize, "pso": pso_minimize}


def value_range(values) -> dict[str, float]:
    """Mean, min and max of values: the paper's range convention."""
    arr = np.asarray(values, dtype=float)
    return {"mean": float(arr.mean()), "min": float(arr.min()),
            "max": float(arr.max())}


def check_repeats(n_runs: int, strategies, count: str = "n_runs") -> None:
    """The pre-flight of a repeated search: refuse a run count that is not
    an integer of at least the two runs a spread needs, naming n_runs as
    count, or a strategy not in STRATEGIES."""
    check_count(count, n_runs, 2)
    for strategy in strategies:
        if strategy not in STRATEGIES:
            raise ValueError(f"only the seeded searches {list(STRATEGIES)} "
                             f"repeat, not {strategy!r}")


def repeat_with_seeds(problem: OptimizationProblem, strategy: str,
                      n_runs: int = 10, config=None) -> dict:
    """Repeat a seeded search from STRATEGIES n_runs times with the seeds
    problem.seed, problem.seed + 1, ...

    Surrogate backends resample their training subset and retrain per run
    (via Backend.fresh). Reports the value_range of each parameter and of
    the simulator-verified objective.
    """
    check_repeats(n_runs, [strategy])
    run = STRATEGIES[strategy]
    config = _config(strategy, config)  # refused before any backend.fresh

    results = [run(dc_replace(problem, backend=problem.backend.fresh(seed),
                              seed=seed), config)
               for seed in range(problem.seed, problem.seed + n_runs)]

    summary = {
        "strategy": strategy,
        "n_runs": n_runs,
        "parameters": {
            name: value_range([r.parameters[name] for r in results])
            for name in problem.names
        },
        "verified_objective": value_range([r.verified_objective
                                           for r in results]),
        "objective_value": value_range([r.objective_value for r in results]),
    }
    return {"summary": summary, "runs": results}
