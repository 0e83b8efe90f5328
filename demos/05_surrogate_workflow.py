"""Full surrogate-assisted loop: sample, simulate, train, optimize, verify.

1. Latin-hypercube sample channel height/width and melt temperature.
2. Simulate every sample (resumable campaign; rerun to pick up where it
   stopped) and collect the metrics into a CSV.
3. Train a 10-neuron network on the peak-temperature column.
4. Run the GA against the network instead of the simulator -- thousands of
   candidate evaluations for the cost of milliseconds each.
5. The search re-simulates the winner (its verifier) to check the network
   didn't cheat.

The campaign size is deliberately small for a quick demo; accuracy climbs
steadily with more cases (see the ablation test in the test suite).
"""

import numpy as np

from pcmopt.optimize import GAConfig, ga_minimize
from pcmopt.solver import COARSE
from pcmopt.studies import (GEOMETRY_BOUNDS, SimulatorBackend,
                            SurrogateBackend, generate_training_data,
                            geometry_case, problem_from_bounds)
from pcmopt.surrogate import load_training_csv, r_squared, train_lm

N_CASES = 150

if __name__ == "__main__":
    csv_path = generate_training_data(
        "geometry", N_CASES, "out/surrogate_campaign", seed=1,
        fidelity=COARSE)
    data = load_training_csv(csv_path, target="T_o_max_C",
                             input_names=["H_um", "W_um", "T_m_C"])
    holdout = data.subset(np.arange(N_CASES - 30, N_CASES))
    model = train_lm(data.subset(np.arange(N_CASES - 30)), seed=0)
    print(f"trained on {N_CASES - 30} cases; "
          f"holdout R^2 = {r_squared(model, holdout):.3f}")

    verifier = SimulatorBackend(
        lambda v: geometry_case(v, dx=COARSE.dx),
        list(GEOMETRY_BOUNDS), "T_o_max", sim_kwargs={"dt": COARSE.dt})
    problem = problem_from_bounds(GEOMETRY_BOUNDS, "T_o_max",
                                  SurrogateBackend(model, verifier))
    result = ga_minimize(problem, GAConfig(population=40,
                                           max_generations=60))

    print("best design:", {k: round(v, 1)
                           for k, v in result.parameters.items()})
    print(f"network prediction {result.objective_value:.2f} C, "
          f"simulator says {result.verified_objective:.2f} C")
