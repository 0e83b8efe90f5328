"""End-to-end validation of the toolkit's headline results.

Covers the reference thermal metrics, the commercial-PCM ranking, melt
temperature optima across power levels, property and geometry optimization,
surrogate accuracy versus training-set size, optimization dispersion, the
property sensitivity ordering, and the always-on physics/numerics checks.

Every case runs at one of three fidelities, each a solver.Fidelity (a mesh
size dx and a step dt): REFERENCE, the 5 um mesh and 10 ms step; COARSE,
10 um and 25 ms, for most optimizer and sweep evaluations; and GEOMETRY,
named below, the 5 um mesh at the coarse step, for the geometry search,
because channel dimensions snap to voxels and the 10 um mesh flattens that
landscape into plateaus. Every optimum is verified at REFERENCE.

Each long computation is an entry of TABLE: a name, a module-level
function and its keyword arguments. Its value is cached as JSON in
<name>_<key>.json under .acceptance_cache, or the directory
PCMOPT_ACCEPTANCE_CACHE names, and every key follows one rule, entry_key:
the hash of the function's bound arguments with its defaults applied,
dataclasses encoded through asdict. So the mesh, the step, both fidelities
of a search, the GA/PSO configs, the campaign and train_lm's settings enter
every key they affect, and a search builds its backends through
studies.simulator from its fidelities, so no setting hides in a closure.
A changed setting re-keys its entry, which must then be re-derived cold
(from an empty cache directory) and the re-derivation logged in
CHANGES.md. A key sees the call, not the code: a change to the simulator,
the optimizers or the surrogate reaches an entry only through a cold run.
"""

import dataclasses
import inspect
import json
import os
import tempfile
from pathlib import Path

import numpy as np
import pytest

import cache_diff
from pcmopt.geometry import Case, UnitCellSpec
from pcmopt.metrics import OBJECTIVE_COLUMNS
from pcmopt.optimize import GAConfig, PSOConfig, ga_minimize, pso_minimize
from pcmopt.solver import COARSE, REFERENCE, Fidelity
from pcmopt.studies import (GEOMETRY_BOUNDS, PROPERTY_BOUNDS, config_hash,
                            generate_training_data, problem_from_bounds,
                            run_ablation, run_pcm_comparison, run_tm_study,
                            sensitivity, simulator)
from pcmopt.surrogate import load_training_csv, r_squared, train_lm

COMMITTED = Path(__file__).parent / ".acceptance_cache"
CACHE = Path(os.environ.get("PCMOPT_ACCEPTANCE_CACHE", COMMITTED))
CACHE.mkdir(parents=True, exist_ok=True)


# The 10 um mesh turns the channel search into wide flat plateaus that hide
# the full-channel corner, so the geometry search evaluates on the reference
# mesh (finer plateaus, smooth descent to the corner) at the coarse step,
# with smaller optimizer budgets to compensate for the slower simulations.
GEOMETRY = Fidelity(REFERENCE.dx, COARSE.dt)

PSO_CFG = PSOConfig(swarm=25, max_iterations=40, stall_iterations=10)
# The five-property landscape is nearly flat along the liquid heat capacity,
# so the GA needs a longer leash there to push it to its bound.
PROP_GA_CFG = GAConfig(population=30, max_generations=120,
                       stall_generations=30, tol=1e-4)
# The wide mutation keeps the GA able to hop the ridge between the
# small-channel and full-channel basins of the oscillation objective.
GEO_GA_CFG = GAConfig(population=24, max_generations=40,
                      stall_generations=10, mutation_sigma_frac=0.2)
GEO_PSO_CFG = PSOConfig(swarm=20, max_iterations=40, stall_iterations=10)

N_CAMPAIGN, N_POOL = 2500, 2000
#: train_lm's settings but the seed (each network sets its own), read from
#: its defaults so that a changed default re-keys every entry that trains
TRAIN = {name: p.default
         for name, p in inspect.signature(train_lm).parameters.items()
         if p.default is not p.empty and name != "seed"}

slow = pytest.mark.slow


# -------------------------------------------------------------------------
# The slow tier's computations, each keyed on its arguments


SEARCHES = {GAConfig: ga_minimize, PSOConfig: pso_minimize}


def search(bounds, objective, config, fidelity, verify=None):
    """config's search (GA or PSO) of objective over bounds at fidelity;
    given verify, the optimum is verified at that fidelity."""
    backend = simulator(list(bounds), objective, fidelity)
    if verify is not None:
        backend.verifier = simulator(list(bounds), objective, verify)
    problem = problem_from_bounds(bounds, objective, backend)
    return SEARCHES[type(config)](problem, config)


def optimum(bounds, objective, config, fidelity, verify):
    """The optimum's parameters and its objective verified at verify."""
    r = search(bounds, objective, config, fidelity, verify)
    return {"parameters": r.parameters, "verified": r.verified_objective}


def tm_optima(bounds, objective, ga, pso, fidelity):
    """The T_m the GA and the PSO find within bounds, other properties at
    Solder 174's."""
    return {name: search(bounds, objective, config,
                         fidelity).parameters["T_m_C"]
            for name, config in (("ga", ga), ("pso", pso))}


def tm_table(power, tm_step, fidelity):
    """The T_m sweep's table at one power."""
    return run_tm_study((power,), tm_step, fidelity=fidelity)[power]["table"]


def tm_trend(power_levels, tm_step, fidelity):
    """The optimal T_m of each objective at each power."""
    res = run_tm_study(power_levels, tm_step, fidelity=fidelity)
    return {str(p): {"T_o_max": res[p]["opt_T_m_for_T_o_max"],
                     "T_osc": res[p]["opt_T_m_for_T_osc"]}
            for p in power_levels}


def campaign_csv(kind, n, seed, sampler, power, fidelity):
    """The campaign's results.csv text (bytes and CRLF line ends kept),
    generated in a temporary directory."""
    with tempfile.TemporaryDirectory() as tmp:
        path = generate_training_data(kind, n, Path(tmp) / "run", seed,
                                      sampler, power, fidelity)
        return path.read_bytes().decode()


def campaign_sets(campaign, n_pool, objective):
    """The campaign's first n_pool rows and the rest, as training sets of
    objective's column."""
    text = cached("geometry_campaign", campaign_csv, campaign)
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "results.csv"
        path.write_bytes(text.encode())
        data = load_training_csv(path, target=OBJECTIVE_COLUMNS[objective],
                                 input_names=list(GEOMETRY_BOUNDS))
    assert len(data) == campaign["n"]
    return (data.subset(np.arange(n_pool)),
            data.subset(np.arange(n_pool, len(data))))


def surrogate_scores(campaign, n_pool, objective, sizes, seeds, train):
    """R^2 on the held-out rows of networks trained on sizes pool rows,
    one per seed."""
    pool, test = campaign_sets(campaign, n_pool, objective)
    scores = {}
    for size in sizes:
        r2 = []
        for seed in range(seeds):
            if size < len(pool):
                idx = np.random.default_rng(seed).choice(
                    len(pool), size=size, replace=False)
                subset = pool.subset(idx)
            else:
                subset = pool
            model = train_lm(subset, seed=seed, **train)
            r2.append(r_squared(model, test))
        scores[str(size)] = {"mean": float(np.mean(r2)),
                             "values": [float(v) for v in r2]}
    return scores


def dispersion(campaign, n_pool, objective, sizes, repeats, config,
               fidelity, train):
    """The range of the verified optima of repeated surrogate GA searches
    per training-set size, verified at fidelity. run_ablation trains with
    train_lm's defaults, so train only records them in the key."""
    assert train == TRAIN, "run_ablation trains with train_lm's defaults"
    pool, test = campaign_sets(campaign, n_pool, objective)
    verifier = simulator(list(GEOMETRY_BOUNDS), objective, fidelity)
    report = run_ablation(pool, test, sizes=sizes, verifier=verifier,
                          repeats=repeats, base_seed=0, strategies=("ga",),
                          optimizer_config=config)
    return {str(e["size"]): e["ga"]["verified_objective"] for e in report}


def entries(reference, coarse, geometry):
    """Every cached computation of the slow tier at the three fidelities:
    name -> (function, keyword arguments)."""
    campaign = dict(kind="geometry", n=N_CAMPAIGN, seed=0, sampler="lhs",
                    power=100e3, fidelity=coarse)
    table = {
        "pcm_compare": (run_pcm_comparison, dict(
            power=100e3, fidelity=reference)),
        "tm_sweep_default": (tm_table, dict(
            power=100e3, tm_step=1.0, fidelity=reference)),
        "tm_optimizers": (tm_optima, dict(
            bounds={"T_m_C": PROPERTY_BOUNDS["T_m_C"]}, objective="T_o_max",
            ga=GAConfig(population=16, max_generations=30,
                        stall_generations=6),
            pso=PSOConfig(swarm=12, max_iterations=30, stall_iterations=8),
            fidelity=coarse)),
        "power_trend": (tm_trend, dict(
            power_levels=(50e3, 75e3, 100e3, 125e3), tm_step=1.0,
            fidelity=coarse)),
        "geometry_campaign": (campaign_csv, campaign),
        "surrogate_scores": (surrogate_scores, dict(
            campaign=campaign, n_pool=N_POOL, objective="T_o_max",
            sizes=(30, 100, N_POOL), seeds=10, train=TRAIN)),
        "ablation_dispersion": (dispersion, dict(
            campaign=campaign, n_pool=N_POOL, objective="T_osc",
            sizes=(50, 250), repeats=10,
            config=GAConfig(population=24, max_generations=30,
                            stall_generations=8),
            fidelity=coarse, train=TRAIN)),
        "sensitivity_reference": (sensitivity, dict(
            base_case=Case(cell=UnitCellSpec(dx=reference.dx)),
            dt=reference.dt)),
    }
    for kind, bounds, objective, at, configs in [
            ("property", PROPERTY_BOUNDS, "T_o_max", coarse,
             (PROP_GA_CFG, PSO_CFG)),
            ("geometry", GEOMETRY_BOUNDS, "T_osc", geometry,
             (GEO_GA_CFG, GEO_PSO_CFG))]:
        for strategy, config in zip(("ga", "pso"), configs):
            table[f"{kind}_opt_{strategy}"] = (optimum, dict(
                bounds=bounds, objective=objective, config=config,
                fidelity=at, verify=reference))
    return table


TABLE = entries(REFERENCE, COARSE, GEOMETRY)


def entry_key(fn, kwargs) -> str:
    """The one key rule: the hash of fn's arguments bound to kwargs with
    its defaults applied, each dataclass encoded through asdict."""
    bound = inspect.signature(fn).bind(**kwargs)
    bound.apply_defaults()
    return config_hash(json.loads(json.dumps(bound.arguments,
                                             default=dataclasses.asdict)))


def cached(name, fn, kwargs):
    """fn(**kwargs), memoized as JSON under name and its entry_key."""
    path = CACHE / f"{name}_{entry_key(fn, kwargs)}.json"
    if path.exists():
        return json.loads(path.read_text())
    value = fn(**kwargs)
    path.write_text(json.dumps(value))
    return value


def answer(name):
    """TABLE's entry name, replayed or computed."""
    return cached(name, *TABLE[name])


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
    rows = answer("pcm_compare")
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


@slow
def test_tm_sweep_optimum_is_77():
    table = answer("tm_sweep_default")
    best_max = min(table, key=lambda r: r["T_o_max"])["T_m_C"]
    best_osc = min(table, key=lambda r: r["T_osc"])["T_m_C"]
    assert best_max == pytest.approx(77.0, abs=1.0)
    assert best_osc == pytest.approx(77.0, abs=1.0)


@slow
def test_tm_landscape_has_two_plateaus_and_a_dip():
    by_tm = {r["T_m_C"]: r["T_o_max"] for r in answer("tm_sweep_default")}
    low = [by_tm[t] for t in np.arange(47.0, 63.0)]
    high = [by_tm[t] for t in (94.0, 95.0, 96.0)]
    assert max(low) - min(low) < 0.5
    assert max(high) - min(high) < 0.5
    dip = min(by_tm.values())
    assert dip < min(low) - 5.0
    assert dip < min(high) - 5.0


@slow
def test_ga_and_pso_find_the_tm_optimum():
    found = answer("tm_optimizers")
    assert found["ga"] == pytest.approx(77.0, abs=1.0)
    assert found["pso"] == pytest.approx(77.0, abs=1.0)


# -------------------------------------------------------------------------
# 5. Optimal melt temperature versus power level


@slow
def test_optimal_tm_rises_with_power():
    optima = answer("power_trend")
    powers = TABLE["power_trend"][1]["power_levels"]
    tm_max = [optima[str(p)]["T_o_max"] for p in powers]
    tm_osc = [optima[str(p)]["T_osc"] for p in powers]
    assert all(b >= a for a, b in zip(tm_max, tm_max[1:]))
    assert all(b >= a for a, b in zip(tm_osc, tm_osc[1:]))
    assert tm_max[-1] >= tm_osc[-1]


# -------------------------------------------------------------------------
# 6. Five-property optimization


@slow
@pytest.mark.parametrize("strategy", ["ga", "pso"])
def test_property_optimum_matches_reference(strategy):
    out = answer(f"property_opt_{strategy}")
    p = out["parameters"]
    assert 76.0 <= p["T_m_C"] <= 79.0
    for name in ("L_H_J_per_kg", "cp_solid_J_per_kgK", "cp_liquid_J_per_kgK"):
        lo, hi = PROPERTY_BOUNDS[name]
        assert p[name] >= 0.9 * hi, f"{name} stopped at {p[name]}"
    assert out["verified"] == pytest.approx(79.4, abs=3.0)


# -------------------------------------------------------------------------
# 7. Geometry optimization


@slow
@pytest.mark.parametrize("strategy", ["ga", "pso"])
def test_geometry_optimum_fills_the_device_layer(strategy):
    out = answer(f"geometry_opt_{strategy}")
    p = out["parameters"]
    assert p["H_um"] >= 95.0
    assert p["W_um"] >= 95.0
    assert p["T_m_C"] == pytest.approx(77.0, abs=1.0)
    assert out["verified"] <= 4.0


# -------------------------------------------------------------------------
# 8. Surrogate accuracy versus training-set size


@slow
def test_surrogate_accuracy_improves_with_training_size():
    s = answer("surrogate_scores")
    assert s[str(N_POOL)]["mean"] >= 0.97
    assert 0.75 <= s["100"]["mean"] <= 0.97
    assert s[str(N_POOL)]["mean"] > s["30"]["mean"]


# -------------------------------------------------------------------------
# 9. Optimization dispersion shrinks with training data


@slow
def test_surrogate_optimization_dispersion_shrinks():
    spread = answer("ablation_dispersion")
    width_small = spread["50"]["max"] - spread["50"]["min"]
    width_large = spread["250"]["max"] - spread["250"]["min"]
    assert width_large < width_small


# -------------------------------------------------------------------------
# 10. Property sensitivity ordering


@slow
def test_melt_temperature_dominates_sensitivity():
    out = answer("sensitivity_reference")
    for metric in ("dT_o_max", "dT_osc"):
        tm = out["T_m"][metric]
        for prop in ("L_H", "k", "cp_solid", "cp_liquid"):
            assert out[prop][metric] < tm
        assert out["k"][metric] <= tm / 10.0


# -------------------------------------------------------------------------
# 11. Always-on physics and numerics checks (full detail in the unit files)


def test_core_invariants(baseline_history, solder_history):
    from pcmopt.surrogate import activation
    from helpers import steady_state

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


# -------------------------------------------------------------------------
# 12. The cache's keys and its cold check


def test_every_entry_is_keyed_on_the_call_that_computes_it():
    """Keys are computed and nothing runs: the table names exactly the
    committed entries, and a changed setting moves the key of every entry
    it reaches, and of no other."""
    keys = {name: entry_key(fn, kwargs)
            for name, (fn, kwargs) in TABLE.items()}
    assert (sorted(f"{name}_{key}.json" for name, key in keys.items())
            == sorted(p.name for p in COMMITTED.glob("*.json")))

    def moved(**fidelities):
        table = entries(**{"reference": REFERENCE, "coarse": COARSE,
                           "geometry": GEOMETRY, **fidelities})
        return {name for name, (fn, kwargs) in table.items()
                if entry_key(fn, kwargs) != keys[name]}

    optima = {f"{kind}_opt_{s}" for kind in ("property", "geometry")
              for s in ("ga", "pso")}
    at_reference = {"pcm_compare", "tm_sweep_default",
                    "sensitivity_reference", *optima}
    at_coarse = {"tm_optimizers", "power_trend", "property_opt_ga",
                 "property_opt_pso", "geometry_campaign", "surrogate_scores",
                 "ablation_dispersion"}
    at_geometry = {"geometry_opt_ga", "geometry_opt_pso"}
    for fidelities, reached in [
            (dict(reference=dataclasses.replace(REFERENCE, dt=0.005)),
             at_reference),
            (dict(reference=Fidelity(2.5e-6, REFERENCE.dt)), at_reference),
            (dict(coarse=dataclasses.replace(COARSE, dt=0.02)), at_coarse),
            (dict(coarse=Fidelity(20e-6, COARSE.dt)), at_coarse),
            (dict(geometry=Fidelity(2.5e-6, GEOMETRY.dt)), at_geometry)]:
        assert moved(**fidelities) == reached, fidelities

    def key_with(name, **changes):
        fn, kwargs = TABLE[name]
        return entry_key(fn, {**kwargs, **changes})

    # one field of a search's config, or of train_lm's settings
    config = TABLE["geometry_opt_pso"][1]["config"]
    assert (key_with("geometry_opt_pso",
                     config=dataclasses.replace(config, swarm=21))
            != keys["geometry_opt_pso"])
    assert (key_with("surrogate_scores", train={**TRAIN, "hidden": 12})
            != keys["surrogate_scores"])
    # a default passed explicitly keys as left out; a changed default moves,
    # as it keys as its new value passed explicitly
    assert key_with("pcm_compare", out_dir=None) == keys["pcm_compare"]
    assert key_with("pcm_compare", out_dir="out") != keys["pcm_compare"]


def test_cache_diff_reports_each_entry_and_refuses_a_name_not_committed(
        tmp_path, capsys):
    """The cold job's check: every entry's largest numeric difference from
    the committed one (a CSV text field by field) is printed, not gated,
    and a file name the committed cache lacks fails it."""
    committed = tmp_path / "committed"
    cold = tmp_path / "cold"
    committed.mkdir()
    cold.mkdir()
    for name, value, cold_value in [
            ("a_0.json", {"x": [1.0, 2.0], "y": "never"},
             {"x": [1.0, 2.5], "y": "never"}),
            ("b_0.json", "H,T\r\n1,95.5\r\n", "H,T\r\n1,95.25\r\n")]:
        (committed / name).write_text(json.dumps(value))
        (cold / name).write_text(json.dumps(cold_value))
    assert cache_diff.main([str(cold), str(committed)]) == 0
    assert capsys.readouterr().out.splitlines() == [
        "a_0.json: largest difference 0.5",
        "b_0.json: largest difference 0.25"]
    (cold / "a_1.json").write_text("{}")
    assert cache_diff.main([str(cold), str(committed)]) == 1
    assert ("a_1.json: not in the committed cache"
            in capsys.readouterr().out.splitlines())
