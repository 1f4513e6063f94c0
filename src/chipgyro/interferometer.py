"""Two-pulse guided Sagnac interferometer.

Scale factor, shot-noise-limited rotation sensitivity and the transfer
function |H(f)|^2 of the two-beam-splitter sequence (the circular guide
itself acts as the mirror). |H|^2, the pulse shape's factor in it and that
factor's zeros are formed here only.

Conventions (reported in every CLI output):
  * the wave packets are launched azimuthally at ``launch_velocity``
    (default: one recoil velocity), and a guide radius R given to
    ``InterferometerConfig`` sets 2T = n_loops * pi * R / v_r; no R is stored;
  * the rotation phase is expressed in the time-only form
    Phi = (4/pi) (M/hbar) v_r v_launch (2T)^2 Omega sin(latitude),
    which makes equal interrogation times equivalent regardless of how the
    loop count and radius are traded against each other;
  * the shot-noise sensitivity is quoted per shot; the per-sqrt(Hz) figure
    (``stability.projection_allan`` at 1 s) multiplies by sqrt(cycle time).
"""

from __future__ import annotations

import math
from dataclasses import InitVar, dataclass

import numpy as np

from .constants import HBAR, AtomSpecies, species_rb87
from .errors import ConfigError, DegenerateOrientationError

MAX_PULSE_ZEROS = 10**6  # zeros n / tau a band may hold; each costs about 22 us of quadrature


@dataclass(frozen=True)
class InterferometerConfig:
    """One interferometer design, given 2T or the guide radius R (not both).
    R is an input only: it sets 2T = n_loops * pi * R / v_r and is not
    stored, so ``guide_radius`` reads None on every config."""

    species: AtomSpecies
    pulse_duration: float        # tau, s
    interrogation_time: float = None  # 2T, s; set from guide_radius if None
    guide_radius: InitVar[float] = None  # R, m; an input only
    n_loops: int = 1
    atom_number: float = 1e4
    contrast: float = 1.0        # eta in (0, 1]
    latitude: float = math.pi / 2.0  # rad; pi/2 = rotation axis normal to area
    squeezing: float = 1.0       # xi in (0, 1]
    cycle_dead_time: float = 0.0  # s
    launch_velocity: float = None  # m/s; default set to v_r in __post_init__

    def __post_init__(self, guide_radius):
        _check_n_loops(self.n_loops)
        if self.launch_velocity is None:
            object.__setattr__(self, "launch_velocity", self.species.recoil_velocity)
        if (self.interrogation_time is None) == (guide_radius is None):
            raise ConfigError("give exactly one of interrogation_time or guide_radius")
        if guide_radius is not None:
            # checked before 2T is set from it, so that an error names the input
            _check_positive("guide_radius", guide_radius)
            two_t = self.n_loops * math.pi * guide_radius / self.species.recoil_velocity
            object.__setattr__(self, "interrogation_time", two_t)
        for name in ("pulse_duration", "interrogation_time", "atom_number", "launch_velocity"):
            _check_positive(name, getattr(self, name))
        if self.pulse_duration >= self.interrogation_time:
            raise ConfigError(
                f"pulse_duration ({self.pulse_duration}) must be < interrogation_time "
                f"({self.interrogation_time})"
            )
        if not (0.0 < self.contrast <= 1.0):
            raise ConfigError(f"contrast must be in (0, 1], got {self.contrast!r}")
        if not (0.0 < self.squeezing <= 1.0):
            raise ConfigError(f"squeezing must be in (0, 1], got {self.squeezing!r}")
        if not (math.isfinite(self.cycle_dead_time) and self.cycle_dead_time >= 0):
            raise ConfigError(f"cycle_dead_time must be finite and >= 0, got {self.cycle_dead_time!r}")
        if not abs(self.latitude) <= math.pi / 2.0:
            raise ConfigError(f"latitude must be finite and in [-pi/2, pi/2], got {self.latitude!r}")

    @property
    def cycle_time(self) -> float:
        return self.interrogation_time + self.cycle_dead_time


def _check_positive(name: str, value) -> None:
    if not (math.isfinite(value) and value > 0):
        raise ConfigError(f"{name} must be > 0, got {value!r}")


def _check_n_loops(n_loops) -> None:
    if not (n_loops >= 1 and math.isfinite(n_loops) and int(n_loops) == n_loops):
        raise ConfigError(f"n_loops must be an integer >= 1, got {n_loops!r}")


def guide_radius_for(species: AtomSpecies, interrogation_time: float, n_loops: int = 1) -> float:
    """Guide radius implied by 2T = n_loops * pi * R / v_r."""
    _check_n_loops(n_loops)
    return species.recoil_velocity * interrogation_time / (n_loops * math.pi)


def rb87_config(**kwargs) -> InterferometerConfig:
    """Convenience 87Rb configuration; accepts the other fields of
    InterferometerConfig."""
    return InterferometerConfig(species=species_rb87(), **kwargs)


def assumptions_record(config: InterferometerConfig) -> dict:
    """The assumptions every rotation figure of ``config`` is computed under;
    the design case fixes none of them, so each output carries them."""
    return {
        "sin_latitude": math.sin(config.latitude),
        "launch_velocity_m_s": config.launch_velocity,
        "launch_velocity_over_vr": config.launch_velocity / config.species.recoil_velocity,
        "cycle_dead_time_s": config.cycle_dead_time,
        "atom_number": config.atom_number,
        "contrast": config.contrast,
        "squeezing": config.squeezing,
        "interrogation_time_s": config.interrogation_time,
        "pulse_duration_s": config.pulse_duration,
        "species": config.species.name,
    }


def scale_factor(config: InterferometerConfig) -> float:
    """dPhi/dOmega of the guided Sagnac interferometer (rad per rad/s).
    Raises DegenerateOrientationError at sin(latitude) = 0, where rotation
    has no phase to read and every rotation figure would divide by zero."""
    if math.sin(config.latitude) == 0.0:
        raise DegenerateOrientationError(
            "sin(latitude) = 0: rotation has no projection on the sensing axis"
        )
    species = config.species
    return (
        (4.0 / math.pi)
        * (species.mass / HBAR)
        * species.recoil_velocity
        * config.launch_velocity
        * config.interrogation_time ** 2
        * math.sin(config.latitude)
    )


def rotation_gain(config: InterferometerConfig) -> float:
    """``scale_factor`` over int g dt = 2T - tau, in rad per rad/s per s: a
    rotation Omega(t) gives the phase rotation_gain int g(t) Omega(t) dt."""
    return scale_factor(config) / (config.interrogation_time - config.pulse_duration)


def shot_noise_sensitivity(config: InterferometerConfig) -> float:
    """Projection-noise-limited rotation sensitivity per shot (rad/s):

        dOmega = xi / (eta sqrt(N/2) |scale_factor|)

    i.e. sqrt(N/2) of population noise divided by the fringe slope's size.
    """
    slope = config.contrast * math.sqrt(0.5 * config.atom_number) * abs(scale_factor(config))
    return config.squeezing / slope


def _pulse_factor(f, config: InterferometerConfig):
    """sinc(pi f tau), the factor of the square pulse of duration tau of
    ``config`` in H(f), with the limit 1 at f = 0; a float ``f`` gives a
    float, without numpy."""
    tau = config.pulse_duration
    if isinstance(f, float):
        x = math.pi * f * tau
        return math.sin(x) / x if x else 1.0
    x = np.pi * f * tau
    with np.errstate(divide="ignore", invalid="ignore"):
        return np.where(x == 0.0, 1.0, np.sin(x) / np.where(x == 0.0, 1.0, x))


def transfer_H_abs2(f, config: InterferometerConfig):
    """|H(f)|^2 of the transfer function H(f) = -(2i / (pi f tau)) sin(pi f tau)
    sin(pi f (2T - tau)), with the limit |H(0)|^2 = 0; a float gives a float."""
    D = config.interrogation_time - config.pulse_duration
    if isinstance(f, float):
        return (2.0 * _pulse_factor(f, config) * math.sin(math.pi * f * D)) ** 2
    f = np.asarray(f, dtype=float)
    return (2.0 * _pulse_factor(f, config) * np.sin(np.pi * f * D)) ** 2


def corner_frequencies(config: InterferometerConfig) -> tuple:
    """(f_HP, f_LP) band-pass corners: 1/(pi tau) and 1/(pi (2T - tau))."""
    tau = config.pulse_duration
    return 1.0 / (math.pi * tau), 1.0 / (math.pi * (config.interrogation_time - tau))


def band_grid(config: InterferometerConfig, f_min: float, f_max: float, *points) -> np.ndarray:
    """The sorted distinct values in [f_min, f_max] of the arrays ``points``
    and the zeros n / tau (n >= 1) of the pulse factor of ``config``, without
    the ``numpy.ma`` import that ``np.unique`` makes. Raises ConfigError when
    f_max holds more than MAX_PULSE_ZEROS zeros."""
    tau = config.pulse_duration
    if not f_max * tau < MAX_PULSE_ZEROS + 1:
        raise ConfigError(f"band top {f_max} Hz holds over {MAX_PULSE_ZEROS} zeros n / tau (tau = {tau} s)")
    values = np.sort(np.concatenate([*points, np.arange(1, math.floor(f_max * tau) + 1) / tau]))
    values = np.concatenate((values[:1], values[1:][values[1:] != values[:-1]]))
    return values[(values >= f_min) & (values <= f_max)]
