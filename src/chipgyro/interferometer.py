"""Two-pulse guided Sagnac interferometer.

Inertial phases, fringe model, scale factor, shot-noise-limited rotation
sensitivity, and the sensitivity/transfer functions g(t), h(t), |H(f)|^2 of the
two-beam-splitter sequence (the circular guide itself acts as the mirror).

Conventions (reported in every CLI output):
  * the wave packets are launched azimuthally at ``launch_velocity``
    (default: one recoil velocity), and the scale-factor geometry relation is
    2T = n_loops * pi * R / v_r;
  * the rotation phase is expressed in the time-only form
    Phi = (4/pi) (M/hbar) v_r v_launch (2T)^2 Omega sin(latitude),
    which makes equal interrogation times equivalent regardless of how the
    loop count and radius are traded against each other;
  * the shot-noise sensitivity is quoted per shot; the per-sqrt(Hz) figure
    multiplies by sqrt(cycle time).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .constants import HBAR, AtomSpecies, species_rb87
from .errors import ConfigError, DegenerateOrientationError


@dataclass(frozen=True)
class InterferometerConfig:
    species: AtomSpecies
    pulse_duration: float        # tau, s
    interrogation_time: float    # 2T, s
    guide_radius: float          # R, m
    n_loops: int = 1
    atom_number: float = 1e4
    contrast: float = 1.0        # eta in (0, 1]
    latitude: float = math.pi / 2.0  # rad; pi/2 = rotation axis normal to area
    squeezing: float = 1.0       # xi in (0, 1]
    cycle_dead_time: float = 0.0  # s
    launch_velocity: float = None  # m/s; default set to v_r in __post_init__

    def __post_init__(self):
        if self.launch_velocity is None:
            object.__setattr__(self, "launch_velocity", self.species.recoil_velocity)
        checks = {
            "pulse_duration": self.pulse_duration,
            "interrogation_time": self.interrogation_time,
            "guide_radius": self.guide_radius,
            "atom_number": self.atom_number,
            "launch_velocity": self.launch_velocity,
        }
        for name, value in checks.items():
            if not (math.isfinite(value) and value > 0):
                raise ConfigError(f"{name} must be > 0, got {value!r}")
        if self.pulse_duration >= self.interrogation_time:
            raise ConfigError(
                f"pulse_duration ({self.pulse_duration}) must be < interrogation_time "
                f"({self.interrogation_time})"
            )
        if not (0.0 < self.contrast <= 1.0):
            raise ConfigError(f"contrast must be in (0, 1], got {self.contrast!r}")
        if not (0.0 < self.squeezing <= 1.0):
            raise ConfigError(f"squeezing must be in (0, 1], got {self.squeezing!r}")
        if self.n_loops < 1 or int(self.n_loops) != self.n_loops:
            raise ConfigError(f"n_loops must be an integer >= 1, got {self.n_loops!r}")
        if self.cycle_dead_time < 0:
            raise ConfigError(f"cycle_dead_time must be >= 0, got {self.cycle_dead_time!r}")

    @property
    def half_time(self) -> float:
        """T, half the interrogation time."""
        return 0.5 * self.interrogation_time

    @property
    def k_eff(self) -> float:
        return self.species.k_eff

    @property
    def cycle_time(self) -> float:
        return self.interrogation_time + self.cycle_dead_time

    @classmethod
    def from_geometry(
        cls,
        species: AtomSpecies,
        guide_radius: float,
        n_loops: int = 1,
        **kwargs,
    ) -> "InterferometerConfig":
        """Derive the interrogation time from the guide geometry via
        2T = n_loops * pi * R / v_r."""
        two_t = n_loops * math.pi * guide_radius / species.recoil_velocity
        return cls(
            species=species,
            interrogation_time=two_t,
            guide_radius=guide_radius,
            n_loops=n_loops,
            **kwargs,
        )

    def with_interrogation_time(self, two_t: float) -> "InterferometerConfig":
        """Same configuration scaled to a new 2T, with the guide radius
        re-derived from the geometry relation."""
        radius = guide_radius_for(self.species, two_t, self.n_loops)
        return replace(self, interrogation_time=two_t, guide_radius=radius)


def guide_radius_for(species: AtomSpecies, interrogation_time: float, n_loops: int = 1) -> float:
    """Guide radius implied by 2T = n_loops * pi * R / v_r."""
    if n_loops < 1 or int(n_loops) != n_loops:
        raise ConfigError(f"n_loops must be an integer >= 1, got {n_loops!r}")
    return species.recoil_velocity * interrogation_time / (n_loops * math.pi)


def rb87_config(**kwargs) -> InterferometerConfig:
    """Convenience 87Rb configuration; accepts the same overrides as
    InterferometerConfig, deriving the radius when only 2T is given."""
    species = kwargs.pop("species", species_rb87())
    if "guide_radius" not in kwargs and "interrogation_time" in kwargs:
        kwargs["guide_radius"] = guide_radius_for(
            species, kwargs["interrogation_time"], kwargs.get("n_loops", 1)
        )
    return InterferometerConfig(species=species, **kwargs)


@dataclass(frozen=True)
class FringeReadout:
    expected_population: float     # atoms at the |p=0> output port
    operating_phase_offset: float  # rad; pi/2 at mid-fringe


def acceleration_phase(k_eff, a, T: float) -> float:
    """Inertial phase k_eff . a T^2.

    Scalar k_eff and a give the collinear case; passing two 3-vectors uses the
    full dot product.
    """
    k_eff = np.asarray(k_eff, dtype=float)
    a = np.asarray(a, dtype=float)
    if k_eff.ndim == 0 and a.ndim == 0:
        return float(k_eff * a * T * T)
    return float(np.dot(np.atleast_1d(k_eff), np.atleast_1d(a)) * T * T)


def rotation_phase_free(k_eff: float, omega: float, v: float, T: float) -> float:
    """Phase 2 k_eff Omega v T^2 of a free-space sequence under rotation
    (orthogonal-vector case)."""
    return 2.0 * k_eff * omega * v * T * T


def scale_factor(config: InterferometerConfig) -> float:
    """dPhi/dOmega of the guided Sagnac interferometer (rad per rad/s)."""
    species = config.species
    return (
        (4.0 / math.pi)
        * (species.mass / HBAR)
        * species.recoil_velocity
        * config.launch_velocity
        * config.interrogation_time ** 2
        * math.sin(config.latitude)
    )


def sagnac_phase(config: InterferometerConfig, omega: float) -> float:
    """Rotation phase of the guided interferometer: scale factor times the
    projected rotation rate."""
    return scale_factor(config) * omega


def fringe_population(config: InterferometerConfig, phase: float) -> FringeReadout:
    """Expected atom number at the |p=0> port at mid-fringe operation:
    P = (N/2) [1 - eta cos(Phi + pi/2)]."""
    n = config.atom_number
    population = 0.5 * n * (1.0 - config.contrast * math.cos(phase + math.pi / 2.0))
    return FringeReadout(expected_population=population, operating_phase_offset=math.pi / 2.0)


def shot_noise_sensitivity(config: InterferometerConfig) -> float:
    """Projection-noise-limited rotation sensitivity per shot (rad/s):

        dOmega = xi / (eta sqrt(N/2) scale_factor)

    i.e. sqrt(N/2) of population noise divided by the fringe slope.
    """
    if math.sin(config.latitude) == 0.0:
        raise DegenerateOrientationError(
            "sin(latitude) = 0: rotation has no projection on the sensing axis"
        )
    slope = config.contrast * math.sqrt(0.5 * config.atom_number) * scale_factor(config)
    return config.squeezing / slope


def shot_noise_sensitivity_per_sqrt_hz(config: InterferometerConfig) -> float:
    """Per-sqrt(Hz) reading: per-shot sensitivity times sqrt(cycle time)."""
    return shot_noise_sensitivity(config) * math.sqrt(config.cycle_time)


def sensitivity_function_g(t, config: InterferometerConfig):
    """Response of the output phase to a phase jump at time t: 0 outside
    [-T, T], linear ramps across the two pulses, 1 between them."""
    t = np.asarray(t, dtype=float)
    g = np.clip((config.half_time - np.abs(t)) / config.pulse_duration, 0.0, 1.0)
    return float(g) if g.ndim == 0 else g


def transfer_h(t, config: InterferometerConfig):
    """Time-domain transfer function: +1/tau on the first pulse window,
    -1/tau on the last, 0 elsewhere (h = dg/dt)."""
    tau = config.pulse_duration
    T = config.half_time
    t = np.asarray(t, dtype=float)
    first = (t >= -T) & (t <= -T + tau)
    last = (t >= T - tau) & (t <= T)
    h = np.where(last, -1.0, first) / tau
    return float(h) if h.ndim == 0 else h


def _sinc(x: float) -> float:
    """sin(x) / x for a float, with the limit 1 at x = 0."""
    return math.sin(x) / x if x else 1.0


def transfer_H_abs2(f, config: InterferometerConfig):
    """|H(f)|^2 of the transfer function H(f) = -(2i / (pi f tau)) sin(pi f tau)
    sin(pi f (2T - tau)); vectorized, with the analytic limit |H(0)|^2 = 0.
    A float ``f``, as QUADPACK passes one point at a time, gives a float
    computed with ``math`` in the same order as the array route."""
    tau = config.pulse_duration
    D = config.interrogation_time - tau
    if isinstance(f, float):
        return (2.0 * _sinc(math.pi * f * tau) * math.sin(math.pi * f * D)) ** 2
    f = np.asarray(f, dtype=float)
    x = np.pi * f * tau
    with np.errstate(divide="ignore", invalid="ignore"):
        ratio = np.where(x == 0.0, 1.0, np.sin(x) / np.where(x == 0.0, 1.0, x))
    return (2.0 * ratio * np.sin(np.pi * f * D)) ** 2


def corner_frequencies(config: InterferometerConfig) -> tuple:
    """(f_HP, f_LP) band-pass corners: 1/(pi tau) and 1/(pi (2T - tau))."""
    tau = config.pulse_duration
    return 1.0 / (math.pi * tau), 1.0 / (math.pi * (config.interrogation_time - tau))


def transfer_zeros(config: InterferometerConfig, f_max: float) -> np.ndarray:
    """All positive zeros of H below f_max: n/tau and n/(2T - tau), sorted."""
    tau = config.pulse_duration
    D = config.interrogation_time - tau
    zeros = []
    for period in (tau, D):
        n_max = int(math.floor(f_max * period))
        if n_max >= 1:
            zeros.append(np.arange(1, n_max + 1, dtype=float) / period)
    if not zeros:
        return np.empty(0)
    return np.unique(np.concatenate(zeros))
