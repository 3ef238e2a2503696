"""Numerical laboratory for smooth Degasperis-Procesi solitons and N-train orbital stability."""

__version__ = "0.1.0"  # defined before the submodules, which record it as provenance

from .grid import Field, PeriodicGrid, make_grid
from .soliton import SolitonParams, SolitonProfile, build_profile, sample_on_grid, speed_from_amplitude
from .evolution import EvolutionConfig, Trajectory, check_w_positivity, dp_rhs, evolve, evolve_stack
from .invariants import dH_dc_closed, dS_dc_closed, hamiltonian_H, momentum_S
from .linearized import assemble_L, constrained_theta, eigen_report
from .modulation import ModulationState, ProfileCache, decompose, initial_guess, track
from .diagnostics import apriori_checks, localized_momentum, psi_derivative_bounds_check, weight_psi
from .harness import Scenario, StabilityResult, SweepResult, build_initial_state, run_stability, run_sweep

__all__ = [
    "__version__",
    "Field", "PeriodicGrid", "make_grid",
    "SolitonParams", "SolitonProfile", "build_profile", "sample_on_grid", "speed_from_amplitude",
    "EvolutionConfig", "Trajectory", "check_w_positivity", "dp_rhs", "evolve", "evolve_stack",
    "dH_dc_closed", "dS_dc_closed", "hamiltonian_H", "momentum_S",
    "assemble_L", "constrained_theta", "eigen_report",
    "ModulationState", "ProfileCache", "decompose", "initial_guess", "track",
    "apriori_checks", "localized_momentum", "psi_derivative_bounds_check", "weight_psi",
    "Scenario", "StabilityResult", "SweepResult", "build_initial_state", "run_stability", "run_sweep",
]
