"""End-to-end validation of the toolkit's headline results.

Covers the reference thermal metrics, the commercial-PCM ranking, melt
temperature optima across power levels, property and geometry optimization,
surrogate accuracy versus training-set size, optimization dispersion, the
property sensitivity ordering, and the always-on physics/numerics checks.

Optimizer and sweep evaluations run on a coarse 10 um mesh with a 25 ms
step (cross-checked against the default 5 um mesh by the final
verification simulations asserted below); the geometry search evaluates on
the 5 um mesh because channel dimensions snap to voxels and the 10 um mesh
flattens that landscape into plateaus. Long computations are cached
under .acceptance_cache keyed by their configuration hash, so reruns are
incremental; deleting the directory reproduces everything from scratch.
"""

import dataclasses
import json
from pathlib import Path

import numpy as np
import pytest

from pcmopt.geometry import Case, UnitCellSpec
from pcmopt.metrics import compute_metrics, simulate_metrics
from pcmopt.optimize import GAConfig, PSOConfig, ga_minimize, pso_minimize
from pcmopt.solver import simulate
from pcmopt.studies import (GEOMETRY_BOUNDS, PROPERTY_BOUNDS,
                            SimulatorBackend, config_hash,
                            generate_training_data, geometry_case,
                            problem_from_bounds, property_case,
                            run_ablation, run_pcm_comparison, run_tm_study,
                            sensitivity)
from pcmopt.surrogate import load_training_csv, r_squared, train_lm

CACHE = Path(__file__).parent / ".acceptance_cache"
CACHE.mkdir(exist_ok=True)

COARSE_CELL = UnitCellSpec(dx=10e-6)
COARSE_DX = 10e-6
COARSE_DT = 0.025
COARSE_SIM = {"dt": COARSE_DT}

GA_CFG = GAConfig(population=30, max_generations=40, stall_generations=8)
PSO_CFG = PSOConfig(swarm=25, max_iterations=40, stall_iterations=10)
# The five-property landscape is nearly flat along the liquid heat capacity,
# so the GA needs a longer leash there to push it to its bound.
PROP_GA_CFG = GAConfig(population=30, max_generations=120,
                       stall_generations=30, tol=1e-4)
# Geometry snaps to the mesh, so the 10 um mesh turns the channel search
# into wide flat plateaus that hide the full-channel corner. Evaluate that
# problem on the 5 um mesh (finer plateaus, smooth descent to the corner)
# with smaller optimizer budgets to compensate for the slower simulations.
GEO_DX = 5e-6
# The wide mutation keeps the GA able to hop the ridge between the
# small-channel and full-channel basins of the oscillation objective.
GEO_GA_CFG = GAConfig(population=24, max_generations=40,
                      stall_generations=10, mutation_sigma_frac=0.2)
GEO_PSO_CFG = PSOConfig(swarm=20, max_iterations=40, stall_iterations=10)

slow = pytest.mark.slow


def cached(name: str, config: dict, compute):
    """Memoize a deterministic computation as JSON keyed by its config."""
    path = CACHE / f"{name}_{config_hash(config)}.json"
    if path.exists():
        return json.loads(path.read_text())
    value = compute()
    path.write_text(json.dumps(value))
    return value


# -------------------------------------------------------------------------
# 1. Solid-silicon baseline


def test_baseline_chip_metrics(baseline_metrics):
    m = baseline_metrics
    assert m.T_o_max == pytest.approx(97.3, abs=3.0)
    assert m.T_osc == pytest.approx(40.5, abs=3.0)
    assert m.dt_85 is not None and m.dt_85 <= 0.6
    assert m.converged


# -------------------------------------------------------------------------
# 2. Solder 174 reference channel


def test_solder_reference_channel_metrics(solder_metrics):
    m = solder_metrics
    assert m.T_o_max == pytest.approx(79.4, abs=3.0)
    assert m.T_osc == pytest.approx(5.0, abs=2.0)
    assert m.dt_85 is None
    assert m.dPhi_melt >= 0.95
    assert m.converged


# -------------------------------------------------------------------------
# 3. Commercial PCM ranking


@slow
def test_solder_ranks_first_among_commercial_pcms():
    rows = cached("pcm_compare", {"power": 100e3},
                  lambda: run_pcm_comparison(100e3))
    pcms = [r for r in rows if r["material"] != "Silicon"]
    solder = next(r for r in pcms if r["material"] == "Solder174")
    others = [r for r in pcms if r["material"] != "Solder174"]
    assert all(solder["T_o_max"] < r["T_o_max"] for r in others)
    assert all(solder["T_osc"] < r["T_osc"] for r in others)
    # the cutoff is never reached with Solder 174, and is with every other
    assert solder["dt_85"] == "never"
    assert all(r["dt_85"] != "never" for r in others)
    for name in ("Cerrolow117", "Cerrolow136"):
        row = next(r for r in pcms if r["material"] == name)
        assert row["dPhi_melt"] <= 1e-9


# -------------------------------------------------------------------------
# 4. Melt-temperature optimum at 100 kW/m^2


@pytest.fixture(scope="module")
def tm_sweep_table():
    def compute():
        res = run_tm_study(power_levels=(100e3,), tm_step=1.0)
        return res[100e3]["table"]
    return cached("tm_sweep_default",
                  {"power": 100e3, "step": 1.0, "mesh": "default"}, compute)


@slow
def test_tm_sweep_optimum_is_77(tm_sweep_table):
    table = tm_sweep_table
    best_max = min(table, key=lambda r: r["T_o_max"])["T_m_C"]
    best_osc = min(table, key=lambda r: r["T_osc"])["T_m_C"]
    assert best_max == pytest.approx(77.0, abs=1.0)
    assert best_osc == pytest.approx(77.0, abs=1.0)


@slow
def test_tm_landscape_has_two_plateaus_and_a_dip(tm_sweep_table):
    by_tm = {r["T_m_C"]: r["T_o_max"] for r in tm_sweep_table}
    low = [by_tm[t] for t in np.arange(47.0, 63.0)]
    high = [by_tm[t] for t in (94.0, 95.0, 96.0)]
    assert max(low) - min(low) < 0.5
    assert max(high) - min(high) < 0.5
    dip = min(by_tm.values())
    assert dip < min(low) - 5.0
    assert dip < min(high) - 5.0


def _tm_problem(objective="T_o_max"):
    backend = SimulatorBackend(lambda v: property_case(v, cell=COARSE_CELL),
                               ["T_m_C"], objective, sim_kwargs=COARSE_SIM)
    return problem_from_bounds({"T_m_C": PROPERTY_BOUNDS["T_m_C"]},
                               objective, backend)


@slow
def test_ga_and_pso_find_the_tm_optimum():
    cfg_ga = GAConfig(population=16, max_generations=30, stall_generations=6)
    cfg_pso = PSOConfig(swarm=12, max_iterations=30, stall_iterations=8)

    def compute():
        ga = ga_minimize(_tm_problem(), cfg_ga)
        pso = pso_minimize(_tm_problem(), cfg_pso)
        return {"ga": ga.parameters["T_m_C"], "pso": pso.parameters["T_m_C"]}

    found = cached("tm_optimizers", {"seed": 0, "mesh": "coarse"}, compute)
    assert found["ga"] == pytest.approx(77.0, abs=1.0)
    assert found["pso"] == pytest.approx(77.0, abs=1.0)


# -------------------------------------------------------------------------
# 5. Optimal melt temperature versus power level


@slow
def test_optimal_tm_rises_with_power():
    powers = (50e3, 75e3, 100e3, 125e3)

    def compute():
        res = run_tm_study(power_levels=powers, tm_step=1.0,
                           cell=COARSE_CELL, dt=COARSE_DT)
        return {str(p): {"T_o_max": res[p]["opt_T_m_for_T_o_max"],
                         "T_osc": res[p]["opt_T_m_for_T_osc"]}
                for p in powers}

    optima = cached("power_trend", {"powers": list(powers)}, compute)
    tm_max = [optima[str(p)]["T_o_max"] for p in powers]
    tm_osc = [optima[str(p)]["T_osc"] for p in powers]
    assert all(b >= a for a, b in zip(tm_max, tm_max[1:]))
    assert all(b >= a for a, b in zip(tm_osc, tm_osc[1:]))
    assert tm_max[-1] >= tm_osc[-1]


# -------------------------------------------------------------------------
# 6. Five-property optimization


@pytest.fixture(scope="module")
def property_optima():
    backend = SimulatorBackend(
        lambda v: property_case(v, cell=COARSE_CELL),
        list(PROPERTY_BOUNDS), "T_o_max", sim_kwargs=COARSE_SIM)
    problem = problem_from_bounds(PROPERTY_BOUNDS, "T_o_max", backend)

    def run(strategy):
        def compute():
            if strategy == "ga":
                r = ga_minimize(problem, PROP_GA_CFG)
            else:
                r = pso_minimize(problem, PSO_CFG)
            verified = simulate_metrics(property_case(r.parameters)).T_o_max
            return {"parameters": r.parameters, "verified": verified}
        cfg = PROP_GA_CFG if strategy == "ga" else PSO_CFG
        return cached(f"property_opt_{strategy}",
                      {"seed": 0, "strategy": strategy,
                       "config": dataclasses.asdict(cfg)}, compute)

    return {s: run(s) for s in ("ga", "pso")}


@slow
@pytest.mark.parametrize("strategy", ["ga", "pso"])
def test_property_optimum_matches_reference(property_optima, strategy):
    out = property_optima[strategy]
    p = out["parameters"]
    assert 76.0 <= p["T_m_C"] <= 79.0
    for name in ("L_H_J_per_kg", "cp_solid_J_per_kgK", "cp_liquid_J_per_kgK"):
        lo, hi = PROPERTY_BOUNDS[name]
        assert p[name] >= 0.9 * hi, f"{name} stopped at {p[name]}"
    assert out["verified"] == pytest.approx(79.4, abs=3.0)


# -------------------------------------------------------------------------
# 7. Geometry optimization


@pytest.fixture(scope="module")
def geometry_optima():
    backend = SimulatorBackend(
        lambda v: geometry_case(v, dx=GEO_DX),
        list(GEOMETRY_BOUNDS), "T_osc", sim_kwargs=COARSE_SIM)
    problem = problem_from_bounds(GEOMETRY_BOUNDS, "T_osc", backend)

    def run(strategy):
        def compute():
            if strategy == "ga":
                r = ga_minimize(problem, GEO_GA_CFG)
            else:
                r = pso_minimize(problem, GEO_PSO_CFG)
            verified = simulate_metrics(
                geometry_case(r.parameters, dx=5e-6)).T_osc
            return {"parameters": r.parameters, "verified": verified}
        cfg = GEO_GA_CFG if strategy == "ga" else GEO_PSO_CFG
        return cached(f"geometry_opt_{strategy}",
                      {"seed": 0, "strategy": strategy, "dx": GEO_DX,
                       "config": dataclasses.asdict(cfg)}, compute)

    return {s: run(s) for s in ("ga", "pso")}


@slow
@pytest.mark.parametrize("strategy", ["ga", "pso"])
def test_geometry_optimum_fills_the_device_layer(geometry_optima, strategy):
    out = geometry_optima[strategy]
    p = out["parameters"]
    assert p["H_um"] >= 95.0
    assert p["W_um"] >= 95.0
    assert p["T_m_C"] == pytest.approx(77.0, abs=1.0)
    assert out["verified"] <= 4.0


# -------------------------------------------------------------------------
# 8. Surrogate accuracy versus training-set size


N_CAMPAIGN, N_POOL = 2500, 2000
CAMPAIGN = {"kind": "geometry", "n": N_CAMPAIGN, "seed": 0, "sampler": "lhs",
            "power": 100e3, "dx": COARSE_DX, "dt": COARSE_DT}


@pytest.fixture(scope="module")
def geometry_campaign_csv(tmp_path_factory):
    """The campaign's results.csv, generated in a temporary directory and
    cached as its text (bytes and CRLF line ends kept)."""
    tmp = tmp_path_factory.mktemp("geometry_campaign")

    def compute():
        csv_path = generate_training_data(out_dir=tmp / "run", **CAMPAIGN)
        return csv_path.read_bytes().decode()

    path = tmp / "results.csv"
    path.write_bytes(cached("geometry_campaign", CAMPAIGN, compute).encode())
    return path


def split_pool_test(csv_path, target):
    data = load_training_csv(csv_path, target=target,
                             input_names=["H_um", "W_um", "T_m_C"])
    assert len(data) == N_CAMPAIGN
    return data.subset(np.arange(N_POOL)), \
        data.subset(np.arange(N_POOL, N_CAMPAIGN))


@pytest.fixture(scope="module")
def surrogate_scores(geometry_campaign_csv):
    pool, test = split_pool_test(geometry_campaign_csv, "T_o_max_C")

    def compute():
        scores = {}
        for size in (30, 100, N_POOL):
            r2 = []
            for seed in range(10):
                if size < len(pool):
                    idx = np.random.default_rng(seed).choice(
                        len(pool), size=size, replace=False)
                    subset = pool.subset(idx)
                else:
                    subset = pool
                model = train_lm(subset, seed=seed)
                r2.append(r_squared(model, test))
            scores[str(size)] = {"mean": float(np.mean(r2)),
                                 "values": [float(v) for v in r2]}
        return scores

    return cached("surrogate_scores", {"sizes": [30, 100, N_POOL],
                                       "seeds": 10}, compute)


@slow
def test_surrogate_accuracy_improves_with_training_size(surrogate_scores):
    s = surrogate_scores
    assert s[str(N_POOL)]["mean"] >= 0.97
    assert 0.75 <= s["100"]["mean"] <= 0.97
    assert s[str(N_POOL)]["mean"] > s["30"]["mean"]


# -------------------------------------------------------------------------
# 9. Optimization dispersion shrinks with training data


@slow
def test_surrogate_optimization_dispersion_shrinks(geometry_campaign_csv):
    pool, test = split_pool_test(geometry_campaign_csv, "T_osc_C")

    verifier = SimulatorBackend(lambda v: geometry_case(v, dx=COARSE_DX),
                                list(GEOMETRY_BOUNDS), "T_osc",
                                sim_kwargs=COARSE_SIM)

    def compute():
        report = run_ablation(
            pool, test, sizes=(50, 250), verifier=verifier,
            repeats=10, base_seed=0, strategies=("ga",),
            optimizer_config=GAConfig(population=24, max_generations=30,
                                      stall_generations=8))
        return {str(e["size"]): e["ga"]["verified_objective"]
                for e in report}

    spread = cached("ablation_dispersion", {"sizes": [50, 250],
                                            "repeats": 10}, compute)
    width_small = spread["50"]["max"] - spread["50"]["min"]
    width_large = spread["250"]["max"] - spread["250"]["min"]
    assert width_large < width_small


# -------------------------------------------------------------------------
# 10. Property sensitivity ordering


@slow
def test_melt_temperature_dominates_sensitivity():
    out = cached("sensitivity_reference", {"case": "solder-default"},
                 lambda: sensitivity(Case()))
    for metric in ("dT_o_max", "dT_osc"):
        tm = out["T_m"][metric]
        for prop in ("L_H", "k", "cp_solid", "cp_liquid"):
            assert out[prop][metric] < tm
        assert out["k"][metric] <= tm / 10.0


# -------------------------------------------------------------------------
# 11. Always-on physics and numerics checks (full detail in the unit files)


def test_core_invariants(baseline_history, solder_history):
    from pcmopt.surrogate import activation
    from pcmopt.solver import steady_state

    assert baseline_history.energy_residual < 1e-4
    assert solder_history.energy_residual < 1e-4

    # two parallel escape paths: up through the alumina, down through the
    # silicon, each ending in convection
    R_up = 50e-6 / 30.0 + 1.0 / 500.0
    R_down = 250e-6 / 130.0 + 1.0 / 500.0
    expect = 26.85 + 100e3 * R_up * R_down / (R_up + R_down)
    T = steady_state(Case(cell=UnitCellSpec(no_channel=True)), 100e3)
    assert T.max() == pytest.approx(expect, rel=0.005)

    assert activation(0.0) == 0.0
    assert activation(1.0) == pytest.approx(0.76159, abs=1e-5)
    assert activation(-1.0) == pytest.approx(-activation(1.0), abs=1e-12)
