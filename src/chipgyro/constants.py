"""Physical constants, atom species data and the angular-random-walk unit.

All internal computation is SI; the one degree-based rotation unit is the
angular random walk of the sensitivity CSV.

Constants are CODATA 2018 values.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import ConfigError

HBAR = 1.054571817e-34      # reduced Planck constant (J s)
MU_B = 9.2740100783e-24     # Bohr magneton (J/T)
MU_0 = 1.25663706212e-6     # vacuum permeability (T m/A)
K_B = 1.380649e-23          # Boltzmann constant (J/K)

OMEGA_EARTH = 7.29e-5       # Earth rotation rate (rad/s)

SECONDS_PER_YEAR = 3.156e7  # Julian year, to the precision used throughout

# rad s^-1 Hz^-1/2 -> deg h^-1/2 (angular random walk)
ARW_DEG_SQRT_H_PER_RAD_S_SQRT_HZ = (180.0 / math.pi) * 60.0

# Defaults shared by a layer and the CLI's config schema, kept here so that
# reading the schema imports no layer module.
# Offset field (T) that reproduces the design case's quoted radial frequency;
# see guide.characterize_guide. Exposed in the CLI config as geometry.offset_B0_T.
DEFAULT_OFFSET_B0 = 1.5e-2
DEFAULT_F_MIN = 1e-4  # Hz, infrared cutoff of the noise band
DOMAINS = ("phase", "acceleration", "rotation")  # of a noise PSD
# rad/s, the default mission target: 5 % of the geodetic precession of 6.6
# arcsec/yr, which over the Julian year of 3.156e7 s is 1.014e-12 rad/s
# (5.2e-14 is 5.13 % of it)
GEODETIC_TARGET_SIGMA = 5.2e-14


@dataclass(frozen=True)
class AtomSpecies:
    """Atomic data for the guided species.

    ``wavevector`` and ``recoil_velocity`` are derived from ``mass`` and
    ``wavelength`` so that recoil_velocity * mass == HBAR * wavevector holds
    to the last ulp.
    """

    name: str
    mass: float               # kg
    wavelength: float         # m, optical transition driving the Bragg beams
    magnetic_moment: float    # J/T, of the guided Zeeman state

    def __post_init__(self):
        for field in ("mass", "wavelength", "magnetic_moment"):
            value = getattr(self, field)
            if not (math.isfinite(value) and value > 0):
                raise ConfigError(f"AtomSpecies.{field} must be strictly positive, got {value!r}")

    @property
    def wavevector(self) -> float:
        """Optical wavevector k = 2 pi / wavelength (rad/m)."""
        return 2.0 * math.pi / self.wavelength

    @property
    def recoil_velocity(self) -> float:
        """Single-photon recoil velocity hbar k / m (m/s)."""
        return HBAR * self.wavevector / self.mass

    @property
    def k_eff(self) -> float:
        """Effective two-photon wavevector 2k of the Bragg splitter (rad/m)."""
        return 2.0 * self.wavevector


def species_rb87() -> AtomSpecies:
    """87Rb guided in the weak-field-seeking |F=2, mF=2> state (mu = mu_B)."""
    return AtomSpecies(
        name="Rb87",
        mass=1.44316e-25,
        wavelength=780.241e-9,
        magnetic_moment=MU_B,
    )
