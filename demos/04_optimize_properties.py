"""Search the five-property PCM design space with the GA and PSO.

Minimizes the peak chip temperature over melt temperature, latent heat,
conductivity, and the two specific heats, bounded by the ranges the seven
commercial alloys span. Both optimizers drive latent heat and the heat
capacities to their upper bounds and keep the melt point near 77 degC --
the recipe Solder 174 happens to approximate. The winning candidate is
re-simulated on the 5 um reference mesh for an honest final score.
"""

from pcmopt.optimize import GAConfig, PSOConfig, ga_minimize, pso_minimize
from pcmopt.solver import COARSE, REFERENCE
from pcmopt.studies import PROPERTY_BOUNDS, problem_from_bounds, simulator

if __name__ == "__main__":
    backend = simulator(list(PROPERTY_BOUNDS), "T_o_max", COARSE)
    # each optimum is re-simulated at the reference mesh and step
    backend.verifier = simulator(list(PROPERTY_BOUNDS), "T_o_max", REFERENCE)
    problem = problem_from_bounds(PROPERTY_BOUNDS, "T_o_max", backend)

    runs = [
        ("GA", ga_minimize(problem, GAConfig(population=30,
                                             max_generations=40))),
        ("PSO", pso_minimize(problem, PSOConfig(swarm=25,
                                                max_iterations=40))),
    ]
    for label, r in runs:
        print(f"{label}: coarse objective {r.objective_value:.2f} C, "
              f"verified {r.verified_objective:.2f} C after {r.n_evaluations} "
              f"simulations ({r.wall_time:.0f} s)")
        for name, value in r.parameters.items():
            lo, hi = PROPERTY_BOUNDS[name]
            print(f"    {name:>22} = {value:10.1f}   (bounds {lo}..{hi})")
