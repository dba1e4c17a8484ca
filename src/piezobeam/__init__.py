"""Boundary feedback amplifier design for magnetizable piezoelectric beams,
with finite-difference verification of the certified decay rates."""

from .design import (DeltaBudget, FeedbackDesign, VerifyReport, amplifier_intervals,
                     delta_budget, delta_cap_p, delta_cap_v, eps_ceiling,
                     eps_ceiling_zeros, eps_floor, eps_floor_domain, epsilon_bounds,
                     lyapunov_rate, verify_design)
from .errors import DomainError
from .materials import (TABLE1, DerivedConstants, MaterialParams, derive_constants,
                        format_config, parse_config)
from .orfd import (OrfdSystem, build_system, discrete_energy, hat_initial_condition,
                   perturbation_functional)
from .simulate import (DecayFit, EnergyTrace, EnvelopeReport, IntegrationResult,
                       envelope_check, fit_decay, integrate, modal_trace)
from .spectral import (SpectrumGrid, SpectrumResult, spectral_abscissa, spectrum,
                       sweep)

__version__ = "0.1.0"

__all__ = [
    "DomainError",
    "MaterialParams", "DerivedConstants", "TABLE1",
    "derive_constants", "parse_config", "format_config",
    "FeedbackDesign", "DeltaBudget", "VerifyReport",
    "delta_cap_v", "delta_cap_p", "eps_ceiling", "eps_ceiling_zeros",
    "eps_floor", "eps_floor_domain", "epsilon_bounds", "amplifier_intervals",
    "lyapunov_rate", "delta_budget", "verify_design",
    "OrfdSystem", "build_system", "hat_initial_condition",
    "discrete_energy", "perturbation_functional",
    "EnergyTrace", "DecayFit", "EnvelopeReport", "IntegrationResult",
    "integrate", "modal_trace", "fit_decay", "envelope_check",
    "SpectrumResult", "SpectrumGrid", "spectrum", "spectral_abscissa", "sweep",
    "__version__",
]
