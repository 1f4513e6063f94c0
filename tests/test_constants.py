import math

import pytest

from chipgyro.constants import ARW_DEG_SQRT_H_PER_RAD_S_SQRT_HZ, HBAR, AtomSpecies, species_rb87
from chipgyro.errors import ConfigError


def test_rb87_derived_quantities():
    rb = species_rb87()
    assert rb.recoil_velocity == pytest.approx(5.8845e-3, rel=1e-4, abs=0)
    assert rb.wavevector == pytest.approx(8.0529e6, rel=1e-4, abs=0)
    assert rb.k_eff == pytest.approx(2.0 * rb.wavevector, rel=0, abs=0)
    # recoil consistency to the last ulp
    assert rb.recoil_velocity * rb.mass == HBAR * rb.wavevector
    assert rb.mass / HBAR == pytest.approx(1.3685e9, rel=1e-4, abs=0)


def test_rotation_unit_factors():
    assert ARW_DEG_SQRT_H_PER_RAD_S_SQRT_HZ == pytest.approx(3437.75, rel=1e-5, abs=0)


def test_species_validation():
    good = {"mass": 1e-25, "wavelength": 780e-9, "magnetic_moment": 1e-24}
    for field in good:
        for bad in (-1.0, 0.0, math.nan):
            with pytest.raises(ConfigError, match=f"AtomSpecies.{field}"):
                AtomSpecies(name="bad", **{**good, field: bad})
