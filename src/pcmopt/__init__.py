"""Transient thermal simulation and optimization of PCM channels embedded
in the silicon device layer of an electronic chip."""

from .geometry import Case, PowerProfile, UnitCellSpec, build_mesh
from .materials import Material, PCM_NAMES, builtin_material
from .metrics import MetricsReport, compute_metrics, simulate_metrics
from .network import NetworkModel, assemble_network
from .optimize import (GAConfig, OptimizationProblem, OptimizationResult,
                       ParameterSpec, PSOConfig, ga_minimize,
                       parametric_sweep, pso_minimize, repeat_with_seeds)
from .solver import COARSE, REFERENCE, Fidelity, ThermalHistory, simulate
from .studies import sensitivity
from .surrogate import (SurrogateModel, TrainingSet, activation,
                        load_training_csv, predict, r_squared, train_lm)

__version__ = "0.1.0"

__all__ = [
    "Case", "PowerProfile", "UnitCellSpec", "build_mesh",
    "Material", "PCM_NAMES", "builtin_material",
    "MetricsReport", "compute_metrics", "sensitivity", "simulate_metrics",
    "NetworkModel", "assemble_network",
    "GAConfig", "OptimizationProblem", "OptimizationResult", "ParameterSpec",
    "PSOConfig", "ga_minimize", "parametric_sweep", "pso_minimize",
    "repeat_with_seeds", "COARSE", "REFERENCE", "Fidelity", "ThermalHistory",
    "simulate",
    "SurrogateModel", "TrainingSet", "activation",
    "load_training_csv", "predict", "r_squared", "train_lm",
    "__version__",
]
