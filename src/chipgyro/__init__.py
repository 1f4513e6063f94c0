"""chipgyro: design and noise-budget toolkit for atom-chip guided Sagnac
gyroscopes.

Layers, bottom up:

* :mod:`chipgyro.constants` — physical constants, species data, rotation units
* :mod:`chipgyro.magnetostatics` — circular-loop fields (closed form + oracle)
* :mod:`chipgyro.guide` — guide minimum, trap frequency, depth, corrugation
* :mod:`chipgyro.interferometer` — phases, fringe, sensitivity, g/h/|H(f)|²
* :mod:`chipgyro.noise` — PSD models and phase-variance quadrature
* :mod:`chipgyro.stability` — Allan deviation, harmonic sum, mission solver
* :mod:`chipgyro.cli` — the ``chipgyro`` command

scipy is imported inside the function that uses it, never at module level, so
``import chipgyro`` and a subcommand that needs no scipy stay cheap to start.
"""

from .constants import (
    ARW_DEG_SQRT_H_PER_RAD_S_SQRT_HZ,
    DEG_H_PER_RAD_S,
    HBAR,
    K_B,
    MU_0,
    MU_B,
    OMEGA_EARTH,
    SECONDS_PER_YEAR,
    AtomSpecies,
    RotationRate,
    convert_rotation,
    rotation_from,
    species_rb87,
)
from .errors import (
    ChipgyroError,
    ConfigError,
    DegenerateOrientationError,
    DivergentIntegralError,
    DomainMismatchError,
    InfeasibleTargetError,
    NoGuideMinimumError,
    NonSmoothPotentialError,
    PhysicsError,
    SingularPointError,
)
from .guide import (
    CorrugationModel,
    GuideCharacterization,
    characterize_guide,
    find_guide_minimum,
    modulated_roughness_average,
    potential_hessian,
    radial_frequency_quadrupole,
    roughness_potential,
)
from .interferometer import (
    FringeReadout,
    InterferometerConfig,
    acceleration_phase,
    corner_frequencies,
    fringe_population,
    guide_radius_for,
    rb87_config,
    rotation_phase_free,
    sagnac_phase,
    scale_factor,
    sensitivity_function_g,
    shot_noise_sensitivity,
    shot_noise_sensitivity_per_sqrt_hz,
    transfer_H_abs2,
    transfer_h,
    transfer_zeros,
)
from .magnetostatics import (
    FieldVector,
    GuideGeometry,
    WireLoop,
    field_modulus,
    geometry_from_records,
    loop_field,
    loop_field_oracle,
    design_guide_geometry,
    total_field,
)
from .noise import (
    PowerSpectralDensity,
    VarianceResult,
    acceleration_phase_variance,
    convert_psd,
    phase_kernel,
    phase_sigma_to_rotation_sigma,
    phase_variance,
    rotation_phase_variance,
)
from .stability import (
    AllanCurve,
    DickSumResult,
    FeasibilityBoundary,
    PhenomenonRate,
    dick_sum_allan,
    feasibility_boundary,
    phenomenon_rates,
    projection_allan,
    projection_allan_curve,
    required_interrogation_time,
)

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
