import math
import re
from dataclasses import asdict, replace
from pathlib import Path

import numpy as np
import pytest

from pcmopt.optimize import (Backend, GAConfig, OptimizationProblem,
                             PSOConfig, STRATEGIES, _Search, check_repeats,
                             ga_minimize, parametric_sweep, pso_minimize,
                             repeat_with_seeds)

from helpers import FunctionBackend, check_answers, record_answers


def sphere(x):
    return float(np.sum(x * x))


def rosenbrock(x):
    return float(np.sum(100.0 * (x[1:] - x[:-1] ** 2) ** 2
                        + (1.0 - x[:-1]) ** 2))


def make_problem(fn, dim, lo=-5.0, hi=5.0, step=None, objective="f",
                 seed=0):
    names = [f"x{i}" for i in range(dim)]
    return OptimizationProblem(dict.fromkeys(names, (lo, hi)), objective,
                               FunctionBackend(fn), seed=seed,
                               steps={} if step is None
                               else dict.fromkeys(names, step))


def test_ga_solves_sphere():
    problem = make_problem(sphere, 5)
    cfg = GAConfig(max_generations=200, stall_generations=50, tol=1e-12)
    result = ga_minimize(problem, cfg)
    assert result.objective_value < 1e-3
    assert all(abs(v) < 0.05 for v in result.parameters.values())
    assert result.strategy == "ga"


def test_pso_solves_rosenbrock():
    problem = make_problem(rosenbrock, 2, lo=-2.0, hi=2.0, seed=1)
    cfg = PSOConfig(max_iterations=300, stall_iterations=100, tol=1e-12)
    result = pso_minimize(problem, cfg)
    assert result.objective_value < 1e-2
    assert result.parameters["x0"] == pytest.approx(1.0, abs=0.1)
    assert result.parameters["x1"] == pytest.approx(1.0, abs=0.1)


def test_same_seed_is_bitwise_deterministic():
    problem = make_problem(sphere, 3, seed=42)
    for run in (ga_minimize, pso_minimize):
        r1 = run(problem)
        r2 = run(problem)
        assert r1.parameters == r2.parameters
        assert r1.objective_value == r2.objective_value
        assert r1.trace == r2.trace
        assert r1.seed == 42
        r3 = run(replace(problem, seed=43))
        assert r3.parameters != r1.parameters


def test_optimizers_respect_bounds():
    # optimum outside the box: both must pin to the boundary
    problem = make_problem(lambda x: sphere(x - 10.0), 2, lo=-1.0, hi=2.0,
                           seed=3)
    for run in (ga_minimize, pso_minimize):
        r = run(problem)
        for v in r.parameters.values():
            assert -1.0 - 1e-12 <= v <= 2.0 + 1e-12
        assert r.parameters["x0"] == pytest.approx(2.0, abs=1e-6)


def test_best_so_far_trace_is_monotone():
    problem = make_problem(sphere, 4, seed=5)
    for run in (ga_minimize, pso_minimize):
        trace = run(problem).trace
        assert all(b <= a + 1e-15 for a, b in zip(trace, trace[1:]))


def test_sweep_enumerates_grid_and_breaks_ties_first_lowest():
    calls = []

    def stepped(x):
        calls.append(tuple(x))
        return float(np.floor(abs(x[0])))  # flat around zero -> tie

    problem = make_problem(stepped, 1, lo=-1.0, hi=1.0, step=0.5)
    result, table = parametric_sweep(problem)
    # grid order, and no second call for the optimum's verified value
    assert [c[0] for c in calls] == [-1.0, -0.5, 0.0, 0.5, 1.0]
    assert len(table) == 5
    # -0.5, 0.0 and 0.5 all score 0; the first seen wins
    assert result.parameters["x0"] == -0.5
    assert result.objective_value == 0.0


def test_sweep_requires_steps_and_caps_grid():
    with pytest.raises(ValueError, match="step"):
        parametric_sweep(make_problem(sphere, 1))
    big = make_problem(sphere, 3, step=0.01)
    with pytest.raises(ValueError, match="cap"):
        parametric_sweep(big)


def test_failed_evaluations_are_penalized_not_fatal():
    def flaky(x):
        if x[0] > 0:
            raise RuntimeError("boom")
        return float(x[0] ** 2)

    problem = make_problem(flaky, 1, lo=-1.0, hi=1.0, step=0.25)
    with pytest.warns(UserWarning, match="penalized"):
        result, table = parametric_sweep(problem)
    assert result.parameters["x0"] == 0.0
    assert any(row["f"] == np.inf for row in table)


def test_sweep_where_every_point_fails_reports_the_first():
    def broken(x):
        raise RuntimeError("boom")

    problem = make_problem(broken, 1, lo=0.0, hi=1.0, step=0.5)
    with pytest.warns(UserWarning, match="penalized"):
        result, table = parametric_sweep(problem)
    assert result.parameters == {"x0": 0.0}
    assert result.objective_value == np.inf
    assert [row["f"] for row in table] == [np.inf] * 3


def test_evaluation_cache_avoids_repeat_calls():
    count = {"n": 0}

    def counted(x):
        count["n"] += 1
        return sphere(x)

    problem = make_problem(counted, 2)
    r = ga_minimize(problem, GAConfig(max_generations=30))
    # cache hits are not re-evaluated, nor is the optimum to verify it
    assert count["n"] == r.n_evaluations
    assert r.n_calls >= r.n_evaluations
    assert len(r.generation_s) == len(r.trace)
    assert all(s >= 0.0 for s in r.generation_s)
    assert r.verified_objective == r.objective_value


class RecordingBackend(Backend):
    """sphere(x), recording each batch sent and each row evaluated; the
    row `fail` raises."""

    def __init__(self, fail=None):
        self.sent, self.evaluated = [], []
        self.fail = fail

    def evaluate(self, x):
        self.evaluated.append(tuple(x))
        if tuple(x) == self.fail:
            raise RuntimeError("boom")
        return sphere(x)

    def evaluate_batch(self, X):
        self.sent.append([tuple(x) for x in X.tolist()])
        return super().evaluate_batch(X)


def test_cached_batch_sends_each_uncached_row_once_in_order():
    backend = RecordingBackend()
    cached = _Search(backend)
    a, b, c, d = (1.0, 2.0), (0.5, 0.0), (3.0, -1.0), (0.0, 0.0)
    assert cached.batch(np.array([a, b, a, c])).tolist() == [5, 0.25, 5, 10]
    assert backend.sent == [[a, b, c]]
    assert cached.batch(np.array([c, d, b, d])).tolist() == [10, 0, 0.25, 0]
    assert backend.sent[1] == [d]
    cached.batch(np.array([a, c]))  # all cached: no backend call
    assert len(backend.sent) == 2
    assert (cached.n_evaluations, cached.n_calls) == (4, 10)


def test_cached_batch_penalizes_a_failing_row_without_rerunning_others():
    backend = RecordingBackend(fail=(1.0, 1.0))
    cached = _Search(backend)
    X = np.array([[0.0, 1.0], [1.0, 1.0], [2.0, 0.0]])
    with pytest.warns(UserWarning, match="penalized"):
        assert cached.batch(X).tolist() == [1.0, np.inf, 4.0]
    cached.batch(X)
    assert backend.evaluated == [(0.0, 1.0), (1.0, 1.0), (2.0, 0.0)]
    assert cached.n_evaluations == 3


def test_cached_batch_penalizes_a_failing_batch_and_non_finite_values():
    class Broken(Backend):
        calls = 0

        def evaluate_batch(self, X):
            self.calls += 1
            raise RuntimeError("boom")

    backend = Broken()
    cached = _Search(backend)
    X = np.array([[0.0], [1.0]])
    with pytest.warns(UserWarning, match="penalized"):
        assert cached.batch(X).tolist() == [np.inf, np.inf]
    cached.batch(X)
    assert backend.calls == 1
    nan_or_inf = FunctionBackend(lambda x: np.nan if x[0] else -np.inf)
    assert _Search(nan_or_inf).batch(X).tolist() == [np.inf] * 2


def test_repeat_with_seeds_summary():
    problem = make_problem(sphere, 2, seed=10)
    cfg = GAConfig(max_generations=40)
    out = repeat_with_seeds(problem, "ga", n_runs=3, config=cfg)
    s = out["summary"]
    assert s["n_runs"] == 3
    assert len(out["runs"]) == 3
    assert [r.seed for r in out["runs"]] == [10, 11, 12]
    v = s["verified_objective"]
    assert v["min"] <= v["mean"] <= v["max"]
    assert set(s["parameters"]) == {"x0", "x1"}
    with pytest.raises(ValueError,
                       match="n_runs must be an integer of at least 2, got 1"):
        repeat_with_seeds(problem, "ga", n_runs=1)
    # only a seeded search repeats; a sweep would give one answer n times
    for strategy in ("annealing", "sweep"):
        with pytest.raises(ValueError, match=re.escape(
                f"only the seeded searches ['ga', 'pso'] repeat, not "
                f"{strategy!r}")):
            repeat_with_seeds(problem, strategy, n_runs=3)


def test_ga_config_validation():
    for population in (1, 2):
        with pytest.raises(ValueError, match="elite"):
            GAConfig(population=population)
    for name in ("population", "stall_generations", "max_generations"):
        with pytest.raises(ValueError,
                           match=f"{name} must be a positive integer, got 0"):
            GAConfig(**{name: 0})
    GAConfig(population=3)


def test_parameter_spec_validation():
    """A parameter's bound and grid step are checked where the problem
    holds them."""
    with pytest.raises(ValueError):
        make_problem(sphere, 1, lo=2.0, hi=1.0)
    with pytest.raises(ValueError):
        make_problem(sphere, 1, lo=0.0, hi=1.0, step=-0.1)


@pytest.mark.parametrize("bounds,steps,message", [
    ({"x": (2.0, 1.0)}, {}, "x: lower must be < upper"),
    ({"x": (0.0, 1.0)}, {"x": -0.1}, "x: grid step must be positive"),
    ({"x": (0.0, 1.0)}, {"x": "0.1"}, "x: grid step must be a number, got "
                                      "'0.1'"),
    ({"x": (-math.inf, 1.0)}, {}, "x: lower must be finite, got -inf"),
    ({"T_m_C": ("47", 96.0)}, {}, "T_m_C: lower must be a number, got '47'"),
    ({"x": [0.0, math.nan]}, {}, "x: upper must be finite, got nan"),
    ({"x": (True, 2.0)}, {}, "x: lower must be a number, got True"),
    ({"x": (0.0, 1.0), "y": (0.0, None)}, {},
     "y: upper must be a number, got None"),
    ({"x": (0.0, 1.0, 2.0)}, {}, "bounds must map each name to a [lower, "
                                 "upper] pair, got {'x': (0.0, 1.0, 2.0)}"),
    ([("x", 0.0, 1.0)], {}, "bounds must map each name to a [lower, upper] "
                            "pair, got [('x', 0.0, 1.0)]"),
    ({"x": (0.0, 1.0)}, {"y": 0.5}, "steps ['y'] name no bound; the bounds "
                                    "are ['x']")],
    ids=["lower_not_below_upper", "step_negative", "step_text",
         "lower_minus_inf", "lower_text", "upper_nan", "lower_bool",
         "upper_none", "bound_triple", "bounds_list", "step_unknown_name"])
def test_a_malformed_search_space_is_refused_when_built(bounds, steps,
                                                        message):
    """Each bound and step is a finite number, refused under its bound's
    name otherwise, and a pair whose lower is below its upper; a replace
    is checked as a new problem is."""
    with pytest.raises(ValueError, match=re.escape(message)):
        OptimizationProblem(bounds, "f", FunctionBackend(sphere),
                            steps=steps)
    with pytest.raises(ValueError, match=re.escape(message)):
        replace(make_problem(sphere, 1), bounds=bounds, steps=steps)


def test_a_problem_keeps_its_own_search_space():
    """A later edit of the caller's dicts moves no built problem; numpy
    scalars and a JSON list pass, and the arrays keep the given order."""
    bounds = {"b": [np.float64(-1.0), 1], "a": (0, np.int64(2))}
    steps = {"a": 0.5}
    problem = OptimizationProblem(bounds, "f", FunctionBackend(sphere),
                                  steps=steps)
    bounds["b"][0] = 5.0
    bounds["c"] = (0.0, 1.0)
    steps["a"] = -1.0
    assert problem.names == ["b", "a"]
    assert problem.lower.tolist() == [-1.0, 0.0]
    assert problem.upper.tolist() == [1.0, 2.0]
    assert problem.steps == {"a": 0.5}


@pytest.mark.parametrize("seed", [1.5, -1, True, "0", None],
                         ids=["float", "negative", "bool", "text", "none"])
def test_a_bad_seed_is_refused_when_built(seed):
    """A float failed at the first draw inside numpy, a negative seed with
    numpy's own words, and True ran and reported "seed": true."""
    message = f"seed must be a non-negative integer, got {seed!r}"
    with pytest.raises(ValueError, match=re.escape(message)):
        OptimizationProblem({"x": (0.0, 1.0)}, "f", FunctionBackend(sphere),
                            seed=seed)
    with pytest.raises(ValueError, match=re.escape(message)):
        replace(make_problem(sphere, 1), seed=seed)
    assert make_problem(sphere, 1, seed=np.int64(3)).seed == 3


@pytest.mark.parametrize("n_runs", [2.5, np.float64(3.0), True],
                         ids=["float", "numpy_float", "bool"])
def test_check_repeats_refuses_a_count_that_is_not_an_integer(n_runs):
    """2.5 passed, and repeat_with_seeds then died in range with a
    TypeError; a numpy integer passes."""
    message = f"n_runs must be an integer of at least 2, got {n_runs!r}"
    with pytest.raises(ValueError, match=re.escape(message)):
        check_repeats(n_runs, ["ga"])
    with pytest.raises(ValueError, match=re.escape(message)):
        repeat_with_seeds(make_problem(sphere, 1), "ga", n_runs=n_runs)
    check_repeats(np.int64(2), ["ga"])


def test_result_rounding_and_serialization():
    problem = make_problem(sphere, 1, seed=2)
    r = ga_minimize(problem, GAConfig(max_generations=20))
    d = asdict(r)
    assert d["strategy"] == "ga"
    assert "trace" in d


def on_bound(x):
    """Minimum 0.27 at (1, 0.3, 0): on the upper bound of a, the lower of c."""
    return float((x[0] - 1.5) ** 2 + (x[1] - 0.3) ** 2
                 + 0.5 * (x[2] + 0.2) ** 2)


_SEEDED_RUNS = {
    "ga": ga_minimize,
    "ga_small": lambda p: ga_minimize(p, GAConfig(population=10,
                                                  max_generations=3)),
    "pso": pso_minimize,
}
SEEDED_ANSWERS = Path(__file__).with_name("seeded_search_answers.json")


def plateau(x):
    """Flat steps, +inf for b > 0.6: the GA's tournaments tie often, so the
    pin tells the first drawn of the fittest from the smallest index."""
    if x[1] > 0.6:
        return math.inf
    return float(math.floor(4 * x[0]) + math.floor(4 * x[2]))


def seeded_answers() -> dict:
    """Each strategy's answer on on_bound, and the GA's on plateau, for
    seeds 0-3, floats as float.hex. With no host stamp, they compare
    exactly."""
    bounds = {"a": (0.0, 1.0), "b": (-1.0, 1.0), "c": (0.0, 2.0)}
    runs = [(name, run, on_bound) for name, run in _SEEDED_RUNS.items()]
    runs += [(f"{name}/plateau", _SEEDED_RUNS[name], plateau)
             for name in ("ga", "ga_small")]
    answers = {}
    for key, run, fn in runs:
        for seed in range(4):
            r = run(OptimizationProblem(bounds, "f", FunctionBackend(fn),
                                        seed=seed))
            answers[f"{key}/{seed}"] = {
                "parameters": {k: v.hex() for k, v in r.parameters.items()},
                "objective_value": r.objective_value.hex(),
                "trace": [v.hex() for v in r.trace],
                "n_evaluations": r.n_evaluations,
                "n_calls": r.n_calls,
            }
    return answers


def test_seeded_searches_reproduce_recorded_answers():
    answers = seeded_answers()
    check_answers(SEEDED_ANSWERS, answers)
    # clipping to the bounds breeds duplicate children: cache hits
    assert any(a["n_calls"] > a["n_evaluations"]
               for key, a in answers.items() if key.startswith("ga"))


class RecordingRng:
    """A Generator that records each call it serves as (method, size)."""

    def __init__(self, rng, calls):
        self.rng, self.calls = rng, calls

    def __getattr__(self, name):
        method = getattr(self.rng, name)

        def record(*args, **kwargs):
            self.calls.append((name, kwargs.get("size")))
            return method(*args, **kwargs)
        return record


def test_ga_makes_the_seed_contracts_draws_in_order(monkeypatch):
    """One generation of a population of 10: 6 crossover children draw two
    tournaments of 3, then their blend weights; then 2 mutants draw one
    tournament, the coordinate and the normal step."""
    calls = []
    default_rng = np.random.default_rng
    monkeypatch.setattr(np.random, "default_rng",
                        lambda seed: RecordingRng(default_rng(seed), calls))
    dim = 3
    ga_minimize(make_problem(sphere, dim),
                GAConfig(population=10, max_generations=1))
    assert calls == ([("uniform", (10, dim))]
                     + 6 * [("integers", 6), ("uniform", dim)]
                     + 2 * [("integers", 3), ("integers", None),
                            ("normal", None)])


class CountingBackend(Backend):
    """sphere(x), counting the rows it scores and the variants it makes."""

    def __init__(self):
        self.evaluated, self.fresh_seeds = 0, []

    def evaluate(self, x):
        self.evaluated += 1
        return sphere(x)

    def fresh(self, seed):
        self.fresh_seeds.append(seed)
        return self


@pytest.mark.parametrize("search", ["sweep", "ga", "pso"])
def test_a_problem_with_no_parameters_is_refused_when_built(search):
    """Nothing is searched: GA failed after one evaluation, and PSO and the
    sweep reported the empty point as an optimum."""
    run = {"sweep": parametric_sweep, **STRATEGIES}[search]
    backend = CountingBackend()
    with pytest.raises(ValueError, match=re.escape(
            "a problem needs at least one parameter to search, got none")):
        run(OptimizationProblem({}, "f", backend))
    with pytest.raises(ValueError, match="at least one parameter"):
        run(replace(make_problem(sphere, 1), bounds={}))
    assert backend.evaluated == 0


@pytest.mark.parametrize("strategy,config,takes,repeated", [
    ("ga", PSOConfig(), "GAConfig", False),
    ("pso", GAConfig(), "PSOConfig", False),
    ("ga", PSOConfig(), "GAConfig", True),
    ("pso", GAConfig(), "PSOConfig", True)],
    ids=["ga", "pso", "repeat_ga", "repeat_pso"])
def test_a_search_refuses_the_other_searchs_config(monkeypatch, strategy,
                                                    config, takes, repeated):
    """Refused naming the class the search takes, before it draws, makes a
    backend variant or evaluates, not as an AttributeError."""
    calls = []
    default_rng = np.random.default_rng
    monkeypatch.setattr(np.random, "default_rng",
                        lambda seed: RecordingRng(default_rng(seed), calls))
    backend = CountingBackend()
    problem = replace(make_problem(sphere, 2), backend=backend)
    with pytest.raises(ValueError, match=re.escape(
            f"the {strategy} search takes a {takes}, got "
            f"{type(config).__name__}")):
        if repeated:
            repeat_with_seeds(problem, strategy, n_runs=2, config=config)
        else:
            STRATEGIES[strategy](problem, config)
    assert (calls, backend.fresh_seeds, backend.evaluated) == ([], [], 0)


@pytest.mark.parametrize("result", [np.array([1.0]), 1.0, np.ones(4)])
def test_cached_batch_refuses_a_result_of_the_wrong_length(result):
    class Short(Backend):
        def evaluate_batch(self, X):
            return result

    cached = _Search(Short())
    X = np.array([[0.0], [1.0], [2.0]])
    with pytest.raises(ValueError, match=r"returned \d+ values for 3 rows"):
        cached.batch(X)
    assert cached.cache == {} and cached.n_evaluations == 0


if __name__ == "__main__":
    # re-record the seeded searches, after a change meant to move them
    record_answers(SEEDED_ANSWERS, seeded_answers())
