import math

import pytest

from chipgyro.constants import (
    ARW_DEG_SQRT_H_PER_RAD_S_SQRT_HZ,
    DEG_H_PER_RAD_S,
    HBAR,
    convert_rotation,
    rotation_from,
    species_rb87,
)
from chipgyro.errors import ConfigError


def test_rb87_derived_quantities():
    rb = species_rb87()
    assert rb.recoil_velocity == pytest.approx(5.8845e-3, rel=1e-4)
    assert rb.wavevector == pytest.approx(8.0529e6, rel=1e-4)
    assert rb.k_eff == pytest.approx(2.0 * rb.wavevector, rel=0, abs=0)
    # recoil consistency to the last ulp
    assert rb.recoil_velocity * rb.mass == HBAR * rb.wavevector
    assert rb.mass / HBAR == pytest.approx(1.3685e9, rel=1e-4)


def test_rotation_unit_factors():
    assert DEG_H_PER_RAD_S == pytest.approx(2.0626e5, rel=1e-4)
    assert ARW_DEG_SQRT_H_PER_RAD_S_SQRT_HZ == pytest.approx(3437.75, rel=1e-5)
    assert convert_rotation(1.0, "deg_h") == pytest.approx((180.0 / math.pi) * 3600.0)


def test_rotation_round_trip():
    value = 7.29e-5
    for tag in ("rad_s", "deg_h", "arw_deg_sqrt_h"):
        assert rotation_from(convert_rotation(value, tag), tag) == pytest.approx(value, rel=1e-15)


def test_unknown_unit_tag_rejected():
    with pytest.raises(ConfigError):
        convert_rotation(1.0, "furlong_per_fortnight")
    with pytest.raises(ConfigError):
        rotation_from(float("nan"), "rad_s")


def test_species_validation():
    with pytest.raises(ValueError):
        species_rb87().__class__(name="bad", mass=-1.0, wavelength=780e-9, magnetic_moment=1e-24)
