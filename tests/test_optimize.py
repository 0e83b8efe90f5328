from dataclasses import replace

import numpy as np
import pytest

from pcmopt.optimize import (FunctionBackend, GAConfig, OptimizationProblem,
                             ParameterSpec, PSOConfig, ga_minimize,
                             parametric_sweep, pso_minimize,
                             repeat_with_seeds)


def sphere(x):
    return float(np.sum(x * x))


def rosenbrock(x):
    return float(np.sum(100.0 * (x[1:] - x[:-1] ** 2) ** 2
                        + (1.0 - x[:-1]) ** 2))


def make_problem(fn, dim, lo=-5.0, hi=5.0, step=None, objective="f",
                 seed=0):
    params = [ParameterSpec(f"x{i}", lo, hi, step) for i in range(dim)]
    return OptimizationProblem(params, objective, FunctionBackend(fn),
                               seed=seed)


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
    # grid order first; the trailing call is the final verification pass
    assert [c[0] for c in calls[:5]] == [-1.0, -0.5, 0.0, 0.5, 1.0]
    assert len(calls) == 6
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


def test_evaluation_cache_avoids_repeat_calls():
    count = {"n": 0}

    def counted(x):
        count["n"] += 1
        return sphere(x)

    problem = make_problem(counted, 2)
    r = ga_minimize(problem, GAConfig(max_generations=30))
    # cache hits are not re-evaluated; verification adds exactly one call
    assert count["n"] == r.n_evaluations + 1


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
    with pytest.raises(ValueError):
        repeat_with_seeds(problem, "ga", n_runs=1)
    with pytest.raises(ValueError):
        repeat_with_seeds(problem, "annealing", n_runs=3)


def test_parameter_spec_validation():
    with pytest.raises(ValueError):
        ParameterSpec("x", 2.0, 1.0).validate()
    with pytest.raises(ValueError):
        ParameterSpec("x", 0.0, 1.0, step=-0.1).validate()


def test_result_rounding_and_serialization():
    problem = make_problem(sphere, 1, seed=2)
    r = ga_minimize(problem, GAConfig(max_generations=20))
    d = r.to_dict()
    assert d["strategy"] == "ga"
    assert "trace" in d
