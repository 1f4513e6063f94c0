"""chipgyro: design and noise-budget toolkit for atom-chip guided Sagnac
gyroscopes.

Layers, bottom up:

* :mod:`chipgyro.constants` — physical constants, species data, the ARW unit
* :mod:`chipgyro.magnetostatics` — circular-loop fields (closed form + oracle)
* :mod:`chipgyro.guide` — guide minimum, trap frequency, gradient, depth
* :mod:`chipgyro.interferometer` — scale factor, sensitivity, |H(f)|²
* :mod:`chipgyro.noise` — PSD models, phase-variance quadrature, harmonic sum
* :mod:`chipgyro.stability` — Allan deviation, mission solver
* :mod:`chipgyro.cli` — the ``chipgyro`` command

``import chipgyro`` loads no layer module: each public name below is looked
up in its layer the first time it is read (PEP 562), and each subcommand
imports only the layers it runs. scipy is loaded inside the function that
uses it, never at module level, and no subcommand imports a scipy subpackage:
the elliptic integrals and the noise quadrature load only the compiled
modules they call (``chipgyro._scipy``).
"""

import importlib

__version__ = "0.1.0"

# layer -> the public names it defines
_LAYERS = {
    "constants": (
        "ARW_DEG_SQRT_H_PER_RAD_S_SQRT_HZ",
        "HBAR",
        "K_B",
        "MU_0",
        "MU_B",
        "OMEGA_EARTH",
        "SECONDS_PER_YEAR",
        "AtomSpecies",
        "species_rb87",
    ),
    "errors": (
        "ChipgyroError",
        "ConfigError",
        "DegenerateOrientationError",
        "DivergentIntegralError",
        "InfeasibleTargetError",
        "NoGuideMinimumError",
        "NonSmoothPotentialError",
        "PhysicsError",
        "SingularPointError",
    ),
    "guide": (
        "GuideCharacterization",
        "characterize_guide",
        "find_guide_minimum",
        "radial_frequency_quadrupole",
        "trap_potential",
    ),
    "interferometer": (
        "InterferometerConfig",
        "corner_frequencies",
        "guide_radius_for",
        "rb87_config",
        "rotation_gain",
        "scale_factor",
        "shot_noise_sensitivity",
        "transfer_H_abs2",
    ),
    "magnetostatics": (
        "FieldVector",
        "GuideGeometry",
        "WireLoop",
        "field_modulus",
        "loop_field",
        "loop_field_oracle",
        "design_guide_geometry",
    ),
    "noise": (
        "DickSumResult",
        "PowerSpectralDensity",
        "VarianceResult",
        "convert_psd",
        "dick_sum_allan",
        "phase_kernel",
        "phase_variance",
    ),
    "stability": (
        "AllanCurve",
        "FeasibilityBoundary",
        "feasibility_boundary",
        "projection_allan",
        "projection_allan_curve",
        "required_interrogation_time",
    ),
}
_LAYER_OF = {name: layer for layer, names in _LAYERS.items() for name in names}

__all__ = sorted([*_LAYERS, *_LAYER_OF])


def __getattr__(name):
    if name in _LAYERS:
        return importlib.import_module(f"{__name__}.{name}")
    if name in _LAYER_OF:
        return getattr(importlib.import_module(f"{__name__}.{_LAYER_OF[name]}"), name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__():
    return sorted({*globals(), *__all__})
