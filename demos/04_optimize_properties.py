"""Search the five-property PCM design space with the GA and PSO.

Minimizes the peak chip temperature over melt temperature, latent heat,
conductivity, and the two specific heats, bounded by the ranges the seven
commercial alloys span. Both optimizers drive latent heat and the heat
capacities to their upper bounds and keep the melt point near 77 degC --
the recipe Solder 174 happens to approximate. The winning candidate is
re-simulated on the 5 um reference mesh for an honest final score.
"""

from pcmopt.geometry import UnitCellSpec
from pcmopt.metrics import simulate_metrics
from pcmopt.optimize import GAConfig, PSOConfig, ga_minimize, pso_minimize
from pcmopt.studies import (PROPERTY_BOUNDS, SimulatorBackend,
                            problem_from_bounds, property_case)

COARSE = UnitCellSpec(dx=10e-6)

if __name__ == "__main__":
    backend = SimulatorBackend(
        lambda v: property_case(v, cell=COARSE),
        list(PROPERTY_BOUNDS), "T_o_max", sim_kwargs={"dt": 0.025})
    problem = problem_from_bounds(PROPERTY_BOUNDS, "T_o_max", backend)

    runs = [
        ("GA", ga_minimize(problem, GAConfig(population=30,
                                             max_generations=40))),
        ("PSO", pso_minimize(problem, PSOConfig(swarm=25,
                                                max_iterations=40))),
    ]
    for label, r in runs:
        verified = simulate_metrics(property_case(r.parameters)).T_o_max
        print(f"{label}: coarse objective {r.objective_value:.2f} C, "
              f"verified {verified:.2f} C after {r.n_evaluations} "
              f"simulations ({r.wall_time:.0f} s)")
        for name, value in r.parameters.items():
            lo, hi = PROPERTY_BOUNDS[name]
            print(f"    {name:>22} = {value:10.1f}   (bounds {lo}..{hi})")
