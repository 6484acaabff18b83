"""Discretized solver for a two-host nonlocal selection-mutation system.

Computes spectral thresholds of weighted convolution operators, endemic
steady states of the coupled fixed-point problem, their small-mutation
concentration behavior and their linearized stability.
"""

from .grid import Field, TraitGrid, integrate, l1_norm, make_grid
from .model import (
    HostParams,
    ModelParams,
    MutationKernel,
    Problem,
    build_problem,
    preset,
    scale_kernel,
)
from .spectral import SpectralResult, solve_combined_spectrum, solve_host_spectrum
from .equilibrium import EquilibriumState, SystemState, solve_coupled, solve_uncoupled
from .stability import StabilityReport, stability_report
from .dynamics import integrate as integrate_dynamics

__version__ = "0.1.0"

__all__ = [
    "Field",
    "TraitGrid",
    "make_grid",
    "integrate",
    "l1_norm",
    "HostParams",
    "ModelParams",
    "MutationKernel",
    "Problem",
    "build_problem",
    "preset",
    "scale_kernel",
    "SpectralResult",
    "solve_host_spectrum",
    "solve_combined_spectrum",
    "EquilibriumState",
    "solve_coupled",
    "solve_uncoupled",
    "StabilityReport",
    "stability_report",
    "SystemState",
    "integrate_dynamics",
    "__version__",
]
