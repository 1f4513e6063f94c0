import math

import numpy as np
import pytest
import scipy.ndimage
import scipy.optimize

from chipgyro.constants import DEFAULT_OFFSET_B0, species_rb87
from chipgyro.errors import ConfigError, NoGuideMinimumError, NonSmoothPotentialError, PhysicsError
from chipgyro.guide import (
    COARSE_GRID,
    JACOBIAN_STEP,
    NEWTON_MAX_ITERATIONS,
    POSITION_TOLERANCE,
    _depth_field,
    _field_jacobian,
    _flood_barrier,
    _search_box,
    characterize_guide,
    find_guide_minimum,
    radial_frequency_quadrupole,
    trap_potential,
)
from chipgyro.magnetostatics import (
    GuideGeometry,
    WireLoop,
    design_guide_geometry,
    field_modulus,
    total_field_arrays,
)


RING_1MM = GuideGeometry(
    loops=(
        WireLoop(radius=974e-6, current=-0.123, height=0.0),
        WireLoop(radius=1000e-6, current=0.121, height=0.0),
        WireLoop(radius=1026e-6, current=-0.123, height=0.0),
    )
)


def _scaled(geometry, factor):
    """``geometry`` with every current multiplied by ``factor``."""
    return GuideGeometry(tuple(WireLoop(l.radius, l.current * factor, l.height) for l in geometry.loops))


def _raised(geometry, height):
    """``geometry`` with its loop plane at ``height``."""
    return GuideGeometry(tuple(WireLoop(l.radius, l.current, height) for l in geometry.loops))


GUIDES = pytest.mark.parametrize(
    "geometry", [design_guide_geometry(), RING_1MM], ids=["design", "ring"]
)


@pytest.fixture(scope="module")
def characterization():
    return characterize_guide(design_guide_geometry(), species_rb87())


def test_minimum_height(characterization):
    rho0, z0 = characterization.min_position
    assert abs(z0 - 13e-6) <= 0.2 * 13e-6
    assert rho0 == pytest.approx(500e-6, rel=0.03, abs=0)
    assert characterization.B_min < 1e-9  # true quadrupole zero line


def test_minimum_against_fine_grid_oracle():
    """Independent check: a dense brute-force grid around the reported minimum
    finds no lower modulus, and its argmin agrees to the grid spacing."""
    geometry = design_guide_geometry()
    rho0, z0, _, _, _ = find_guide_minimum(geometry)
    rho = np.linspace(rho0 - 5e-6, rho0 + 5e-6, 501)
    z = np.linspace(z0 - 5e-6, z0 + 5e-6, 501)
    RR, ZZ = np.meshgrid(rho, z, indexing="ij")
    B = field_modulus(geometry, RR, ZZ)
    i, j = np.unravel_index(np.argmin(B), B.shape)
    spacing = rho[1] - rho[0]
    assert abs(rho[i] - rho0) <= spacing
    assert abs(z[j] - z0) <= spacing
    assert float(field_modulus(geometry, rho0, z0)) <= B[i, j] + 1e-15


def test_current_scaling_leaves_minimum_position():
    geometry = design_guide_geometry()
    pos1 = find_guide_minimum(geometry)
    pos2 = find_guide_minimum(_scaled(geometry, 2.0))
    assert pos1[0] == pytest.approx(pos2[0], abs=2e-9)
    assert pos1[1] == pytest.approx(pos2[1], abs=2e-9)


def test_gradient_scales_with_current(characterization):
    doubled = characterize_guide(_scaled(design_guide_geometry(), 2.0), species_rb87())
    assert doubled.gradient == pytest.approx(2.0 * characterization.gradient, rel=1e-12, abs=0)


@pytest.mark.parametrize("height", [20e-6, 1e-3, -5e-6], ids=["20um", "1mm", "-5um"])
def test_guide_moves_with_the_loop_plane(characterization, height):
    """The guide sits above the loop plane h, not above the chip: loops at h
    keep z0 - h, rho0, the radial frequency and the depth of loops at h = 0.
    The mirror zero, as far below the loops as the guide is above them, is
    not the guide. Loops 5 um under the chip keep their guide above it."""
    moved = characterize_guide(_raised(design_guide_geometry(), height), species_rb87())
    rho0, z0 = characterization.min_position
    assert abs(moved.min_position[0] - rho0) <= 1e-12
    assert abs(moved.min_position[1] - height - z0) <= 1e-12
    assert moved.radial_frequency == pytest.approx(characterization.radial_frequency, rel=1e-9, abs=0)
    assert moved.depth_field == pytest.approx(characterization.depth_field, rel=1e-9, abs=0)


def test_guide_below_the_chip_is_not_found():
    """Loops 20 um under the chip would put the guide below its surface,
    where no atom can be, so there is none."""
    with pytest.raises(NoGuideMinimumError):
        find_guide_minimum(_raised(design_guide_geometry(), -20e-6))


def test_depth_band(characterization):
    assert 100e-6 <= characterization.depth_temperature <= 900e-6
    assert characterization.depth_field > 0


def test_radial_frequency_band(characterization):
    assert 500.0 <= characterization.radial_frequency <= 4500.0


HESSIAN_STEP = 1e-8  # m, default step of the oracle's potential stencil


def _potential_hessian(potential, rho0, z0, h=HESSIAN_STEP):
    """Oracle: 2x2 central-difference Hessian (step h) of a (rho, z)
    potential, from one call of ``potential`` on the nine stencil points."""
    d_rho = np.array([0.0, h, -h, 0.0, 0.0, h, h, -h, -h])
    d_z = np.array([0.0, 0.0, 0.0, h, -h, h, -h, h, -h])
    u0, u_e, u_w, u_n, u_s, u_ne, u_se, u_nw, u_sw = potential(rho0 + d_rho, z0 + d_z).tolist()
    uxx = (u_e - 2 * u0 + u_w) / h ** 2
    uzz = (u_n - 2 * u0 + u_s) / h ** 2
    uxz = (u_ne - u_se - u_nw + u_sw) / (4 * h ** 2)
    return np.array([[uxx, uxz], [uxz, uzz]])


def _stencil_frequency(hessian, species):
    return math.sqrt(max(np.linalg.eigvalsh(hessian)[-1], 0.0) / species.mass) / (2 * math.pi)


def test_radial_frequency_against_quadrupole_oracle(characterization):
    """The oracle's Hessian stencil applied to an ideal 2D quadrupole
    potential reproduces the analytic small-oscillation frequency."""
    rb = species_rb87()
    gradient = characterization.gradient
    b0 = characterization.offset_B0
    mu = rb.magnetic_moment

    def potential(r, z):
        return mu * np.sqrt(gradient ** 2 * ((r - 1e-4) ** 2 + (z - 2e-5) ** 2) + b0 ** 2)

    f_numeric = _stencil_frequency(_potential_hessian(potential, 1e-4, 2e-5), rb)
    assert f_numeric == pytest.approx(radial_frequency_quadrupole(gradient, b0, rb), rel=1e-4, abs=0)


@GUIDES
def test_gradient_against_symmetric_slope_oracle(geometry):
    """The gradient is the slope of |B| out of the zero along J's top right
    singular vector v: (|B|(x0 + eps v) + |B|(x0 - eps v)) / (2 eps), whose
    symmetric sum cancels the curvature of |B|."""
    ch = characterize_guide(geometry, species_rb87())
    x0 = np.array(ch.min_position)
    _, jacobian = _field_jacobian(geometry, x0)
    v = np.linalg.svd(jacobian)[2][0]
    eps = 1e-8
    plus, minus = field_modulus(geometry, *(x0[:, None] + eps * np.outer(v, [1.0, -1.0]))).tolist()
    assert (plus + minus) / (2 * eps) == pytest.approx(ch.gradient, rel=1e-8, abs=0)


@GUIDES
def test_radial_frequency_against_potential_stencil_oracle(geometry):
    """The oracle's 9-point stencil of V = mu |B|^2 / (hypot(|B|, B0) + B0),
    which is U - mu B0 without its cancellation, with a step well inside the
    harmonic core, gives the guide's frequency from B0 = 1e-6 T to 1e155 T."""
    rb = species_rb87()
    mu = rb.magnetic_moment
    for b0 in (1e-6, 2e-5, 1.5e-2, 1.0, 10.0, 30.0, 1e155):
        ch = characterize_guide(geometry, rb, offset_B0=b0)

        def potential(r, z):
            modulus = field_modulus(geometry, r, z)
            return mu * modulus * modulus / (np.hypot(modulus, b0) + b0)

        h = min(1e-3 * b0 / ch.gradient, 1e-8)
        hessian = _potential_hessian(potential, *ch.min_position, h)
        assert _stencil_frequency(hessian, rb) == pytest.approx(ch.radial_frequency, rel=5e-6, abs=0), b0


def test_gradient_does_not_depend_on_the_offset():
    """The gradient is a property of the field alone: the same float for any B0."""
    gradients = {
        characterize_guide(design_guide_geometry(), species_rb87(), offset_B0=b0).gradient
        for b0 in (2e-5, 1.5e-2, 30.0)
    }
    assert len(gradients) == 1


def test_trap_potential_offset_in_quadrature():
    geometry, species = design_guide_geometry(), species_rb87()
    b = float(field_modulus(geometry, 520e-6, 25e-6))
    b0 = 1e-4
    u = float(trap_potential(geometry, species, 520e-6, 25e-6, b0))
    assert u == pytest.approx(species.magnetic_moment * math.hypot(b, b0), rel=1e-12, abs=0)


def test_trap_potential_of_an_offset_past_the_square_root_of_the_float_range(characterization):
    """U = mu hypot(|B|, B0) stays finite where B0^2 overflows: at the
    minimum, where |B| is about 1e-17 T, B0 = 1e300 T gives mu 1e300."""
    species = species_rb87()
    u = float(trap_potential(design_guide_geometry(), species, *characterization.min_position, 1e300))
    assert u == pytest.approx(species.magnetic_moment * 1e300, rel=1e-15, abs=0)


def test_B_min_is_the_modulus_at_the_minimum(characterization):
    """B_min comes from the Jacobian's field call at the minimum: the same
    float as a field_modulus call there."""
    assert characterization.B_min == float(field_modulus(design_guide_geometry(), *characterization.min_position))


def test_hessian_symmetric():
    def potential(r, z):
        return (r - 1e-4) ** 2 + 3.0 * (z - 2e-5) ** 2 + 0.5 * (r - 1e-4) * (z - 2e-5)

    h = _potential_hessian(potential, 1e-4, 2e-5)
    assert h[0, 1] == h[1, 0]
    assert h[0, 0] == pytest.approx(2.0, rel=1e-4, abs=0)
    assert h[1, 1] == pytest.approx(6.0, rel=1e-4, abs=0)
    assert h[0, 1] == pytest.approx(0.5, rel=1e-3, abs=0)


def _bisection_barrier(B, i, j):
    """Independent route to the barrier: bisection on the level, with
    scipy.ndimage.label (4-connected) deciding whether the region {B <= level}
    holding cell (i, j) touches the edge of the grid."""
    lo, hi = float(B[i, j]), float(B.max())
    for _ in range(60):
        mid = 0.5 * (lo + hi)
        labels, _ = scipy.ndimage.label(B <= mid)
        region = labels[i, j]
        edges = (labels[0, :], labels[-1, :], labels[:, 0], labels[:, -1])
        if any((edge == region).any() for edge in edges):
            hi = mid
        else:
            lo = mid
    return 0.5 * (lo + hi)


FINE_GRID = 1001  # cells per axis of the test-side fine |B| map of the search box


def _box_map(geometry, min_position, n):
    """rho, z and |B| of an n x n map of the search box, with the z axis of
    the coarse scan (n = COARSE_GRID), and the cell (i, j) nearest the
    minimum."""
    (rho_lo, rho_hi), (z_lo, z_hi) = _search_box(geometry)
    rho = np.linspace(rho_lo, rho_hi, n)
    z = np.linspace(z_lo + (z_hi - z_lo) / n, z_hi, n)
    i = int(np.argmin(np.abs(rho - min_position[0])))
    j = int(np.argmin(np.abs(z - min_position[1])))
    return rho, z, field_modulus(geometry, rho[:, None], z[None, :]), i, j


def test_flood_barrier_on_design_map_matches_bisection(characterization):
    """On the 1001^2 map the flood equals the bisection oracle. The shipped
    depth is |B| at the escape saddle, not a grid value: it lies within the
    fine grid's resolution (2.5e-7 relative) of that map's barrier."""
    _, _, B, i, j = _box_map(design_guide_geometry(), characterization.min_position, FINE_GRID)
    flood, _ = _flood_barrier(B, i, j)
    assert flood == pytest.approx(_bisection_barrier(B, i, j), rel=1e-12, abs=0)
    assert characterization.depth_field == pytest.approx(flood - characterization.B_min, rel=1e-6, abs=0)


def test_flood_barrier_double_well_saddle():
    """f = (x^2 - 1)^2 + 2 y^2 has wells at (+-1, 0) and its saddle at the
    origin with f = 1. On x in [-2, 1] the right well sits on the edge, so the
    barrier out of the left well is the saddle value."""
    x = np.linspace(-2.0, 1.0, 301)
    y = np.linspace(-1.0, 1.0, 201)
    f = (x[:, None] ** 2 - 1.0) ** 2 + 2.0 * y[None, :] ** 2
    i, j = 100, 100  # (x, y) = (-1, 0)
    level, cell = _flood_barrier(f, i, j)
    assert level == pytest.approx(1.0, rel=1e-12, abs=0)
    assert (x[cell[0]], y[cell[1]]) == pytest.approx((0.0, 0.0), abs=1e-12)
    assert _bisection_barrier(f, i, j) == pytest.approx(1.0, rel=1e-12, abs=0)
    # a start on the edge is its own barrier
    assert _flood_barrier(f, 300, 100) == (f[300, 100], (300, 100))


def test_flood_barrier_on_random_surface_matches_bisection():
    """White noise has passes through diagonal neighbours everywhere, so a
    flood that is not 4-connected like ndimage.label disagrees here."""
    rng = np.random.default_rng(5)
    B = rng.uniform(size=(40, 30))
    for i, j in [(20, 15), (1, 1), (38, 7), (10, 28)]:
        level, (a, b) = _flood_barrier(B, i, j)
        assert level == B[a, b]
        assert level == pytest.approx(_bisection_barrier(B, i, j), rel=1e-12, abs=0)


def _modulus_gradient_oracle(geometry, x, h=1e-7):
    """Independent route to grad |B|: central differences of |B| itself,
    not of the field vector."""
    d = h * np.array([[1.0, -1.0, 0.0, 0.0], [0.0, 0.0, 1.0, -1.0]])
    east, west, north, south = field_modulus(geometry, *(np.asarray(x)[:, None] + d)).tolist()
    return np.array([east - west, north - south]) / (2 * h)


@GUIDES
def test_escape_saddle_against_root_oracle(geometry):
    """scipy's root solve of the oracle's grad |B|, started from the 1001^2
    map's barrier cell, finds the saddle to 1e-9 m and its |B| to rel 1e-9;
    the depth is within rel 1e-6 of that map's barrier less B_min."""
    ch = characterize_guide(geometry, species_rb87())
    rho, z, B, i, j = _box_map(geometry, ch.min_position, FINE_GRID)
    level, (a, b) = _flood_barrier(B, i, j)
    zero = scipy.optimize.root(
        lambda x: _modulus_gradient_oracle(geometry, x), x0=[rho[a], z[b]], options={"xtol": 1e-14}
    )
    assert zero.status in (1, 3), zero.message
    assert math.dist(zero.x, ch.saddle_position) <= 1e-9
    saddle_B = float(field_modulus(geometry, *zero.x))
    assert ch.depth_field + ch.B_min == pytest.approx(saddle_B, rel=1e-9, abs=0)
    assert ch.depth_field == pytest.approx(level - ch.B_min, rel=1e-6, abs=0)


def test_seeded_guides_escape_through_a_saddle():
    """Each seeded guide's escape is an interior saddle, reached within
    NEWTON_MAX_ITERATIONS, where the oracle's Hessian stencil of |B| has one
    negative and one positive eigenvalue."""
    for geometry, _, _ in _seeded_guides():
        rho0, z0, _, _, scan = find_guide_minimum(geometry)
        B_min = float(field_modulus(geometry, rho0, z0))
        depth, saddle, iterations, step = _depth_field(geometry, scan, (rho0, z0), B_min)
        assert saddle is not None and 0 < iterations <= NEWTON_MAX_ITERATIONS, geometry.loops
        assert depth > 0 and 0 < step <= POSITION_TOLERANCE / 10, geometry.loops
        hessian = _potential_hessian(lambda r, z: field_modulus(geometry, r, z), *saddle)
        low, high = np.linalg.eigvalsh(hessian)
        assert low < 0 < high, geometry.loops


# a five-wire guide whose flood leaves the search box through its top
EDGE_ESCAPE_GUIDE = GuideGeometry(
    tuple(
        WireLoop(1.8589004935624415e-3 + k * 2.05820425882867e-4, current, 0.0)
        for k, current in enumerate(
            (-0.10160220190601012, 0.14406977012949657, -0.08713474847618292, 0.13540995712322415,
             -0.10044226364281375)
        )
    )
)


def test_escape_through_the_box_edge_has_no_saddle():
    """The barrier cell of the coarse flood is on the box top, so there is no
    saddle to refine: the saddle is null, and the depth is the coarse map's
    barrier (the bisection oracle) less B_min, a value limited by the box."""
    ch = characterize_guide(EDGE_ESCAPE_GUIDE, species_rb87())
    assert (ch.saddle_position, ch.saddle_iterations, ch.saddle_step_m) == (None, 0, None)
    assert ch.as_record()["saddle_position_m"] is None
    _, _, B, i, j = _box_map(EDGE_ESCAPE_GUIDE, ch.min_position, COARSE_GRID)
    assert _flood_barrier(B, i, j)[1][1] == COARSE_GRID - 1
    assert ch.depth_field == pytest.approx(_bisection_barrier(B, i, j) - ch.B_min, rel=1e-12, abs=0)


def _quadric_field(rho_c, z_c, sign):
    """Stand-in field (1 + u^2 + sign v^2, 0), (u, v) = (rho - rho_c, z - z_c)
    / 10 um: |B| has a minimum (sign +1) or a saddle (sign -1) at (rho_c, z_c)."""
    def field(geometry, rho, z):
        u, v = (rho - rho_c) / 1e-5, (z - z_c) / 1e-5
        return 1.0 + u * u + sign * v * v, 0.0 * z
    return field


@pytest.mark.parametrize(
    "case, message",
    [
        ("one-iteration-cap", r"^escape saddle refinement did not converge in 1 Newton iterations$"),
        ("saddle-past-the-box", r"^refined escape saddle escaped the search box$"),
        ("minimum-not-saddle", r"^escape saddle refinement ended at \(.*\) m, where \|B\| has no saddle$"),
    ],
)
def test_failed_saddle_refinement_raises(monkeypatch, characterization, case, message):
    """The flood reads the true map; Newton is capped at one iteration, or
    reads a stand-in field whose stationary point is a saddle past the box's
    outer edge or a minimum. Each raises PhysicsError naming the escape saddle."""
    geometry = design_guide_geometry()
    rho0, z0 = characterization.min_position
    scan = find_guide_minimum(geometry)[4]
    (_, rho_hi), _ = _search_box(geometry)
    if case == "one-iteration-cap":
        monkeypatch.setattr("chipgyro.guide.NEWTON_MAX_ITERATIONS", 1)
    else:
        centre, sign = ((rho_hi + 1e-4, z0), -1.0) if case == "saddle-past-the-box" else ((rho0, z0), 1.0)
        monkeypatch.setattr("chipgyro.guide.total_field_arrays", _quadric_field(*centre, sign))
    with pytest.raises(PhysicsError, match=message) as raised:
        _depth_field(geometry, scan, (rho0, z0), characterization.B_min)
    assert type(raised.value) is PhysicsError


def test_characterization_scans_the_box_once(monkeypatch, characterization):
    """One characterize_guide on the design guide makes exactly one
    field_modulus call of COARSE_GRID^2 points: the depth search floods the
    scan that the minimum search made, and the result does not change."""
    sizes = []

    def counted(geometry, rho, z):
        sizes.append(np.broadcast(rho, z).size)
        return field_modulus(geometry, rho, z)

    monkeypatch.setattr("chipgyro.guide.field_modulus", counted)
    assert characterize_guide(design_guide_geometry(), species_rb87()) == characterization
    assert sizes.count(COARSE_GRID**2) == 1


def test_work_counters(characterization):
    assert 0 < characterization.minimizer_iterations < 4000
    assert 0 < characterization.saddle_iterations <= NEWTON_MAX_ITERATIONS
    assert 0 < characterization.saddle_step_m <= POSITION_TOLERANCE / 10
    record = characterization.as_record()
    assert record["minimizer_iterations"] == characterization.minimizer_iterations
    assert record["minimizer_step_m"] == characterization.minimizer_step_m
    assert record["saddle_position_m"] == list(characterization.saddle_position)
    assert record["saddle_iterations"] == characterization.saddle_iterations
    assert record["saddle_step_m"] == characterization.saddle_step_m
    assert record["jacobian_step_m"] == JACOBIAN_STEP == 1e-8
    assert characterize_guide(design_guide_geometry(), species_rb87()) == characterization


def _field_zero(geometry, x0):
    """Independent oracle: scipy's hybrid root solve of (B_rho, B_z) = 0.
    Status 3 (xtol below what the solver can still improve) is a zero
    reached to roundoff, as is status 1."""
    zero = scipy.optimize.root(
        lambda x: np.array(total_field_arrays(geometry, x[0], x[1])), x0=x0, options={"xtol": 1e-14}
    )
    assert zero.status in (1, 3), zero.message
    return zero.x


def test_imbalanced_ring_minimum_converges():
    """With a 2 % high centre current the refined minimum still converges in
    a few Newton iterations, at the zero of the field vector found by an
    independent root solve."""
    ring = GuideGeometry(
        loops=(
            WireLoop(radius=974e-6, current=-0.123, height=0.0),
            WireLoop(radius=1000e-6, current=0.12342, height=0.0),
            WireLoop(radius=1026e-6, current=-0.123, height=0.0),
        )
    )
    rho0, z0, iterations, _, _ = find_guide_minimum(ring)
    assert iterations <= 8

    zero = _field_zero(ring, [1e-3, 2.5e-5])
    assert rho0 == pytest.approx(zero[0], abs=2e-9)
    assert z0 == pytest.approx(zero[1], abs=2e-9)


def _seeded_guides():
    """(geometry, R, s) of 100 three-wire guides, R = 0.5-2 mm, spacing
    s = 2-8 % of R, each current within +-10 % of the design value."""
    rng = np.random.default_rng(2024)
    for _ in range(100):
        R = rng.uniform(0.5e-3, 2e-3)
        s = rng.uniform(0.02, 0.08) * R
        currents = np.array([-0.123, 0.121, -0.123]) * rng.uniform(0.9, 1.1, size=3)
        loops = tuple(WireLoop(r, i, 0.0) for r, i in zip((R - s, R, R + s), currents))
        yield GuideGeometry(loops=loops), R, s


def test_minimum_matches_root_oracle_on_seeded_guides():
    """On the seeded guides the minimum is the field zero of the root solve
    to 1e-12 m, reached in at most 8 Newton iterations."""
    for geometry, R, s in _seeded_guides():
        rho0, z0, iterations, _, _ = find_guide_minimum(geometry)
        assert iterations <= 8
        zero = _field_zero(geometry, [R, s])
        assert abs(rho0 - zero[0]) <= 1e-12 and abs(z0 - zero[1]) <= 1e-12, geometry.loops


def test_scalar_and_array_routes_agree_on_hessian_stencils():
    """|B| and U at each of the nine points of the oracle's Hessian stencil
    around the minimum, one scalar call per point, equal one array call over
    all nine bit for bit: on the design guide, the 1 mm ring and the seeded
    guides."""
    species, h = species_rb87(), HESSIAN_STEP
    d_rho = np.array([0.0, h, -h, 0.0, 0.0, h, h, -h, -h])
    d_z = np.array([0.0, 0.0, 0.0, h, -h, h, -h, h, -h])
    for geometry in (design_guide_geometry(), RING_1MM, *(g for g, _, _ in _seeded_guides())):
        rho0, z0, _, _, _ = find_guide_minimum(geometry)
        rho, z = rho0 + d_rho, z0 + d_z
        points = list(zip(rho.tolist(), z.tolist()))
        assert field_modulus(geometry, rho, z).tolist() == [
            float(field_modulus(geometry, r, zz)) for r, zz in points
        ], geometry.loops
        assert trap_potential(geometry, species, rho, z, DEFAULT_OFFSET_B0).tolist() == [
            float(trap_potential(geometry, species, r, zz, DEFAULT_OFFSET_B0)) for r, zz in points
        ], geometry.loops


def test_unconverged_refinement_raises(monkeypatch):
    """A field with no zero: B_rho = 1 + ((rho - c) / w)^2 never vanishes,
    and Newton's iterates in rho, u = (rho - c) / w, follow
    u -> (u^2 - 1) / (2 u) without settling (each step is at least w)."""
    geometry = design_guide_geometry()
    rho_c, z_c, _, _, _ = find_guide_minimum(geometry)

    def no_zero(geometry, rho, z):
        return 1.0 + ((rho - rho_c) / 1e-6) ** 2, z - z_c

    monkeypatch.setattr("chipgyro.guide.total_field_arrays", no_zero)
    with pytest.raises(NoGuideMinimumError, match="did not converge"):
        find_guide_minimum(geometry)


def test_zero_current_raises():
    with pytest.raises(NoGuideMinimumError):
        find_guide_minimum(_scaled(design_guide_geometry(), 0.0))


def test_non_smooth_without_offset():
    with pytest.raises(NonSmoothPotentialError):
        characterize_guide(design_guide_geometry(), species_rb87(), offset_B0=0.0)


def test_negative_offset_rejected():
    with pytest.raises(ConfigError):
        characterize_guide(design_guide_geometry(), species_rb87(), offset_B0=-1e-4)



@pytest.mark.parametrize("b0", [math.nan, math.inf, -math.inf])
def test_non_finite_offset_rejected(b0):
    with pytest.raises(ConfigError, match="finite"):
        characterize_guide(design_guide_geometry(), species_rb87(), offset_B0=b0)


def test_single_loop_has_no_interior_minimum():
    """One loop alone makes no zero of B above the chip: the coarse scan finds
    no interior |B| minimum and says so."""
    geometry = GuideGeometry((WireLoop(radius=5e-4, current=0.1, height=0.0),))
    with pytest.raises(NoGuideMinimumError, match=r"^no interior \|B\| minimum in the search box"):
        find_guide_minimum(geometry)


def test_newton_leaving_the_box_is_an_error(monkeypatch):
    """A Newton step that lands outside the search box stops the refinement;
    a near-singular Jacobian stands in for a bad start."""
    monkeypatch.setattr("chipgyro.guide._field_jacobian", lambda geometry, x: (np.ones(2), 1e-12 * np.eye(2)))
    with pytest.raises(NoGuideMinimumError, match="^refined minimum escaped the search box$"):
        find_guide_minimum(design_guide_geometry())


@pytest.mark.parametrize("b0", [0.0, -1e-4])
def test_quadrupole_frequency_needs_an_offset(b0):
    with pytest.raises(ConfigError, match="needs offset_B0 > 0"):
        radial_frequency_quadrupole(1.0, b0, species_rb87())
