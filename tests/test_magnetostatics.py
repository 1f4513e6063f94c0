import math

import numpy as np
import pytest
import scipy.special

from chipgyro._scipy import compiled_module
from chipgyro.constants import MU_0
from chipgyro.errors import ConfigError, SingularPointError
from chipgyro.magnetostatics import (
    GuideGeometry,
    WireLoop,
    design_guide_geometry,
    field_modulus,
    loop_field,
    loop_field_oracle,
    total_field_arrays,
)

RNG = np.random.default_rng(20260823)


def _random_points(loop, n):
    """Points around the loop, excluding a neighborhood of the filament."""
    pts = []
    while len(pts) < n:
        rho = RNG.uniform(0.0, 3.0 * loop.radius)
        z = RNG.uniform(-2.0 * loop.radius, 2.0 * loop.radius)
        if (rho - loop.radius) ** 2 + (z - loop.height) ** 2 > (0.05 * loop.radius) ** 2:
            pts.append((rho, z))
    return pts


def _agm_ke(m):
    """Complete elliptic integrals K(m), E(m) by the arithmetic-geometric-mean
    iteration: an independent route to scipy.special.ellipk and ellipe."""
    m = np.asarray(m, dtype=float)
    a = np.ones_like(m)
    b = np.sqrt(1.0 - m)
    c = np.sqrt(m)
    csum = 0.5 * c * c
    power = 1.0
    for _ in range(60):
        # c_{n+1} = c_n^2 / (4 a_{n+1}): once c is at the rounding level of a
        # every later term of the sum is below double precision
        if np.all(np.abs(c) <= np.finfo(float).eps * a):
            break
        a, b, c = 0.5 * (a + b), np.sqrt(a * b), 0.5 * (a - b)
        power *= 2.0
        csum = csum + power * 0.5 * c * c
    else:
        raise AssertionError("AGM did not converge in 60 iterations")
    K = np.pi / (2.0 * a)
    E = K * (1.0 - csum)
    return K, E


def test_elliptic_agm_against_scipy():
    m = np.linspace(0.0, 0.999999, 2001)
    K, E = _agm_ke(m)
    assert np.allclose(K, scipy.special.ellipk(m), rtol=1e-12, atol=0)
    assert np.allclose(E, scipy.special.ellipe(m), rtol=1e-12, atol=0)


def test_direct_elliptic_ufuncs_match_scipy_special():
    """The ellipk/ellipe the field kernel loads from scipy's compiled module
    give scipy.special's values bit for bit, at the singular end m -> 1, on
    m <= 0 and m > 1, and at nan. This guards the private module's name."""
    direct = compiled_module("scipy.special._special_ufuncs")
    near_one = 1.0 - 10.0 ** -np.arange(17.0)
    m = np.concatenate([RNG.uniform(-2.0, 1.0, 1_000_000), near_one, [0.0, 1.0, -1.0, 2.0, np.nan]])
    for name in ("ellipk", "ellipe"):
        ours, theirs = getattr(direct, name), getattr(scipy.special, name)
        assert np.array_equal(ours(m), theirs(m), equal_nan=True)
        assert type(ours(0.5)) is type(theirs(0.5))


def test_on_axis_closed_form():
    loop = WireLoop(radius=500e-6, current=0.1, height=0.0)
    for z in (1e-6, 50e-6, 500e-6, 5e-3):
        fv = loop_field(loop, 0.0, z)
        expected = MU_0 * loop.current * loop.radius ** 2 / (
            2.0 * (loop.radius ** 2 + z ** 2) ** 1.5
        )
        assert fv.B_z == pytest.approx(expected, rel=1e-12, abs=0)
        assert fv.B_rho == 0.0


def test_loop_center_value():
    loop = WireLoop(radius=1e-3, current=1.0, height=0.0)
    fv = loop_field(loop, 0.0, 0.0)
    assert fv.B_z == pytest.approx(MU_0 / (2.0 * loop.radius), rel=1e-12, abs=0)


def test_oracle_agreement_100_points():
    """Closed form vs 1e5-segment Biot-Savart sum: < 1e-6 relative on both
    components at 100 random points."""
    loop = WireLoop(radius=500e-6, current=0.121, height=0.0)
    worst = 0.0
    for rho, z in _random_points(loop, 100):
        exact = loop_field(loop, rho, z)
        oracle = loop_field_oracle(loop, rho, z, n_segments=100_000)
        scale = exact.modulus
        err = max(abs(exact.B_rho - oracle.B_rho), abs(exact.B_z - oracle.B_z)) / scale
        worst = max(worst, err)
    assert worst < 1e-6


def test_oracle_convergence_order_two():
    loop = WireLoop(radius=500e-6, current=0.121, height=0.0)
    rho, z = 650e-6, 40e-6
    exact = loop_field(loop, rho, z)

    def err(n):
        o = loop_field_oracle(loop, rho, z, n_segments=n)
        return math.hypot(exact.B_rho - o.B_rho, exact.B_z - o.B_z)

    e1, e2, e3 = err(400), err(800), err(1600)
    order12 = math.log2(e1 / e2)
    order23 = math.log2(e2 / e3)
    assert order12 == pytest.approx(2.0, abs=0.2)
    assert order23 == pytest.approx(2.0, abs=0.2)


@pytest.mark.parametrize("alpha", [-2.0, -1.0, 0.5, 3.0])
def test_linearity_in_current(alpha):
    base = WireLoop(radius=500e-6, current=0.1, height=0.0)
    scaled = WireLoop(radius=500e-6, current=0.1 * alpha, height=0.0)
    for rho, z in [(100e-6, 20e-6), (700e-6, -30e-6), (0.0, 80e-6)]:
        f0 = loop_field(base, rho, z)
        f1 = loop_field(scaled, rho, z)
        assert f1.B_rho == pytest.approx(alpha * f0.B_rho, rel=1e-12, abs=1e-25)
        assert f1.B_z == pytest.approx(alpha * f0.B_z, rel=1e-12, abs=1e-25)


def test_superposition():
    geometry = design_guide_geometry()
    rho, z = 520e-6, 25e-6
    B_rho, B_z = total_field_arrays(geometry, rho, z)
    parts = [loop_field(loop, rho, z) for loop in geometry.loops]
    assert B_rho == pytest.approx(sum(p.B_rho for p in parts), rel=1e-12, abs=0)
    assert B_z == pytest.approx(sum(p.B_z for p in parts), rel=1e-12, abs=0)


def test_mirror_symmetry_about_loop_plane():
    loop = WireLoop(radius=500e-6, current=0.1, height=10e-6)
    for rho, dz in [(300e-6, 15e-6), (600e-6, 40e-6)]:
        above = loop_field(loop, rho, loop.height + dz)
        below = loop_field(loop, rho, loop.height - dz)
        assert above.B_rho == pytest.approx(-below.B_rho, rel=1e-12, abs=0)
        assert above.B_z == pytest.approx(below.B_z, rel=1e-12, abs=0)


def test_far_field_dipole_decay():
    loop = WireLoop(radius=500e-6, current=0.1, height=0.0)
    b1 = loop_field(loop, 0.0, 0.1).B_z
    b2 = loop_field(loop, 0.0, 0.2).B_z
    assert b1 / b2 == pytest.approx(8.0, rel=1e-3, abs=0)


def test_singular_point_raises():
    loop = WireLoop(radius=500e-6, current=0.1, height=0.0)
    with pytest.raises(SingularPointError):
        loop_field(loop, 500e-6, 0.0)
    with pytest.raises(SingularPointError):
        loop_field_oracle(loop, 500e-6, 0.0, n_segments=100)
    with pytest.raises(SingularPointError, match="loop index"):
        total_field_arrays(design_guide_geometry(), 500e-6, 0.0)


def test_geometry_validation():
    with pytest.raises(ConfigError):
        WireLoop(radius=-1e-6, current=0.1, height=0.0)
    with pytest.raises(ConfigError, match="^loop current must be finite"):
        WireLoop(radius=5e-4, current=math.nan, height=0.0)
    with pytest.raises(ConfigError, match="^loop height must be finite"):
        WireLoop(radius=5e-4, current=0.1, height=math.inf)
    with pytest.raises(ConfigError):
        GuideGeometry(loops=())
    with pytest.raises(ConfigError):
        GuideGeometry(
            loops=(
                WireLoop(radius=500e-6, current=0.1, height=0.0),
                WireLoop(radius=400e-6, current=0.1, height=0.0),
            )
        )
    with pytest.raises(ConfigError):
        GuideGeometry(
            loops=(
                WireLoop(radius=400e-6, current=0.1, height=0.0),
                WireLoop(radius=500e-6, current=0.1, height=1e-6),
            )
        )


def test_vectorized_matches_scalar():
    geometry = design_guide_geometry()
    rho = np.array([450e-6, 500e-6, 550e-6])
    z = np.array([10e-6, 20e-6, 30e-6])
    mods = field_modulus(geometry, rho, z)
    for i in range(3):
        assert mods[i] == pytest.approx(float(field_modulus(geometry, rho[i], z[i])), rel=1e-12, abs=0)


def test_modulus_scales_with_currents_past_the_square_root_of_the_float_range():
    """|B| is linear in the currents, also where |B|^2 overflows: currents
    x 2^700 (about 5.3e210; a power of two, so that the currents scale
    exactly) give 2^700 |B|, from 5e204 to 3e207 T, on a 5 x 5 grid around
    the design guide's minimum."""
    geometry = design_guide_geometry()
    factor = 2.0**700
    scaled = GuideGeometry(tuple(WireLoop(l.radius, l.current * factor, l.height) for l in geometry.loops))
    offsets = np.linspace(-2e-6, 2e-6, 5)
    rho, z = 499.17e-6 + offsets[:, None], 12.73e-6 + offsets[None, :]
    expected = factor * field_modulus(geometry, rho, z)
    np.testing.assert_allclose(field_modulus(scaled, rho, z), expected, rtol=1e-15, atol=0)


def test_oracle_needs_eight_segments():
    with pytest.raises(ConfigError, match="^n_segments must be >= 8, got 7"):
        loop_field_oracle(WireLoop(radius=5e-4, current=0.1, height=0.0), 4e-4, 1e-5, n_segments=7)
