import math

import numpy as np
import pytest
import scipy.ndimage
import scipy.optimize

from chipgyro.constants import species_rb87
from chipgyro.errors import ConfigError, NoGuideMinimumError, NonSmoothPotentialError
from chipgyro.guide import (
    DEPTH_GRID,
    DEPTH_TILE,
    CorrugationModel,
    _TiledFieldMap,
    _depth_field,
    _flood_barrier,
    _search_box,
    characterize_guide,
    find_guide_minimum,
    modulated_roughness_average,
    potential_hessian,
    radial_frequency_quadrupole,
    roughness_potential,
)
from chipgyro.magnetostatics import (
    GuideGeometry,
    WireLoop,
    design_guide_geometry,
    field_modulus,
    total_field_arrays,
)


@pytest.fixture(scope="module")
def characterization():
    return characterize_guide(design_guide_geometry(), species_rb87())


def test_minimum_height(characterization):
    rho0, z0 = characterization.min_position
    assert abs(z0 - 13e-6) <= 0.2 * 13e-6
    assert rho0 == pytest.approx(500e-6, rel=0.03)
    assert characterization.B_min < 1e-9  # true quadrupole zero line


def test_minimum_against_fine_grid_oracle():
    """Independent check: a dense brute-force grid around the reported minimum
    finds no lower modulus, and its argmin agrees to the grid spacing."""
    geometry = design_guide_geometry()
    rho0, z0 = find_guide_minimum(geometry)
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
    pos2 = find_guide_minimum(geometry.scaled(2.0))
    assert pos1[0] == pytest.approx(pos2[0], abs=2e-9)
    assert pos1[1] == pytest.approx(pos2[1], abs=2e-9)


def test_gradient_scales_with_current(characterization):
    doubled = characterize_guide(design_guide_geometry().scaled(2.0), species_rb87())
    assert doubled.gradient == pytest.approx(2.0 * characterization.gradient, rel=1e-3)


def test_depth_band(characterization):
    assert 100e-6 <= characterization.depth_temperature <= 900e-6
    assert characterization.depth_field > 0


def test_radial_frequency_band(characterization):
    assert 500.0 <= characterization.radial_frequency <= 4500.0


def test_radial_frequency_against_quadrupole_oracle(characterization):
    """The Hessian route applied to an ideal 2D quadrupole potential must
    reproduce the analytic small-oscillation frequency."""
    rb = species_rb87()
    gradient = characterization.gradient
    b0 = characterization.offset_B0
    mu = rb.magnetic_moment

    def potential(r, z):
        return mu * np.sqrt(gradient ** 2 * ((r - 1e-4) ** 2 + (z - 2e-5) ** 2) + b0 ** 2)

    hessian = potential_hessian(potential, 1e-4, 2e-5)
    f_numeric = math.sqrt(max(np.linalg.eigvalsh(hessian)[-1], 0.0) / rb.mass) / (2 * math.pi)
    f_analytic = radial_frequency_quadrupole(gradient, b0, rb)
    assert f_numeric == pytest.approx(f_analytic, rel=1e-4)
    # and the real guide is quadrupole-like near its zero line
    assert characterization.radial_frequency == pytest.approx(f_analytic, rel=0.02)


def test_hessian_symmetric():
    def potential(r, z):
        return (r - 1e-4) ** 2 + 3.0 * (z - 2e-5) ** 2 + 0.5 * (r - 1e-4) * (z - 2e-5)

    h = potential_hessian(potential, 1e-4, 2e-5, step=1e-7)
    assert h[0, 1] == h[1, 0]
    assert h[0, 0] == pytest.approx(2.0, rel=1e-4)
    assert h[1, 1] == pytest.approx(6.0, rel=1e-4)
    assert h[0, 1] == pytest.approx(0.5, rel=1e-3)


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


def test_flood_barrier_on_design_map_matches_bisection(characterization):
    geometry = design_guide_geometry()
    (rho_lo, rho_hi), (_, z_hi) = _search_box(geometry)
    rho = np.linspace(rho_lo, rho_hi, DEPTH_GRID)
    z = np.linspace(z_hi / DEPTH_GRID, z_hi, DEPTH_GRID)
    B = field_modulus(geometry, rho[:, None], z[None, :])
    rho0, z0 = characterization.min_position
    i = int(np.argmin(np.abs(rho - rho0)))
    j = int(np.argmin(np.abs(z - z0)))
    flood = _flood_barrier(B, i, j)
    assert flood == pytest.approx(_bisection_barrier(B, i, j), rel=1e-12, abs=0)
    assert characterization.depth_field == pytest.approx(
        flood - characterization.B_min, rel=1e-12, abs=0
    )


def test_flood_barrier_double_well_saddle():
    """f = (x^2 - 1)^2 + 2 y^2 has wells at (+-1, 0) and its saddle at the
    origin with f = 1. On x in [-2, 1] the right well sits on the edge, so the
    barrier out of the left well is the saddle value."""
    x = np.linspace(-2.0, 1.0, 301)
    y = np.linspace(-1.0, 1.0, 201)
    f = (x[:, None] ** 2 - 1.0) ** 2 + 2.0 * y[None, :] ** 2
    i, j = 100, 100  # (x, y) = (-1, 0)
    assert _flood_barrier(f, i, j) == pytest.approx(1.0, rel=1e-12)
    assert _bisection_barrier(f, i, j) == pytest.approx(1.0, rel=1e-12)
    # a start on the edge is its own barrier
    assert _flood_barrier(f, 300, 100) == f[300, 100]


def test_flood_barrier_on_random_surface_matches_bisection():
    """White noise has passes through diagonal neighbours everywhere, so a
    flood that is not 4-connected like ndimage.label disagrees here."""
    rng = np.random.default_rng(5)
    B = rng.uniform(size=(40, 30))
    for i, j in [(20, 15), (1, 1), (38, 7), (10, 28)]:
        assert _flood_barrier(B, i, j) == pytest.approx(
            _bisection_barrier(B, i, j), rel=1e-12, abs=0
        )


RING_1MM = GuideGeometry(
    loops=(
        WireLoop(radius=974e-6, current=-0.123, height=0.0),
        WireLoop(radius=1000e-6, current=0.121, height=0.0),
        WireLoop(radius=1026e-6, current=-0.123, height=0.0),
    )
)


def _depth_grid(geometry):
    (rho_lo, rho_hi), (_, z_hi) = _search_box(geometry)
    return np.linspace(rho_lo, rho_hi, DEPTH_GRID), np.linspace(z_hi / DEPTH_GRID, z_hi, DEPTH_GRID)


def _assert_tiled_map_matches_full(geometry, rho, z):
    rho0, z0 = find_guide_minimum(geometry)
    i = int(np.argmin(np.abs(rho - rho0)))
    j = int(np.argmin(np.abs(z - z0)))
    full = field_modulus(geometry, rho[:, None], z[None, :])
    tiled = _TiledFieldMap(geometry, rho, z)
    assert _flood_barrier(tiled, i, j) == _flood_barrier(full, i, j)
    for (ta, tb), tile in tiled.tiles.items():
        rows = slice(ta * DEPTH_TILE, (ta + 1) * DEPTH_TILE)
        cols = slice(tb * DEPTH_TILE, (tb + 1) * DEPTH_TILE)
        assert np.array_equal(tile, full[rows, cols])
    return tiled


@pytest.mark.parametrize("geometry", [design_guide_geometry(), RING_1MM], ids=["design", "ring"])
def test_tiled_map_barrier_equals_full_map(geometry):
    tiled = _assert_tiled_map_matches_full(geometry, *_depth_grid(geometry))
    assert tiled.points < DEPTH_GRID ** 2


def test_tiled_map_partial_edge_tiles():
    """75 x 50 = (2 * 32 + 11) x (32 + 18) cells with the minimum in the last,
    partial row of tiles: the flood reads a tile that is partial on both axes."""
    geometry = design_guide_geometry()
    rho0, _ = find_guide_minimum(geometry)
    rho = np.linspace(rho0 - 40e-6, rho0 + 6e-6, 75)
    z = np.linspace(1e-6, 60e-6, 50)
    tiled = _assert_tiled_map_matches_full(geometry, rho, z)
    assert (11, 18) in {tile.shape for tile in tiled.tiles.values()}


def test_depth_field_evaluates_few_map_points(monkeypatch, characterization):
    """Guards against a silent return to the full DEPTH_GRID^2 map."""
    import chipgyro.guide as guide

    points = [0]

    def counting_field_modulus(geometry, rho, z):
        points[0] += np.broadcast(rho, z).size
        return field_modulus(geometry, rho, z)

    monkeypatch.setattr(guide, "field_modulus", counting_field_modulus)
    depth, step, evaluated = _depth_field(
        design_guide_geometry(), characterization.min_position, characterization.B_min
    )
    assert depth == characterization.depth_field
    assert evaluated == points[0] == characterization.depth_map_points
    assert points[0] <= 0.05 * DEPTH_GRID ** 2


def test_work_counters(characterization):
    rho, z = _depth_grid(design_guide_geometry())
    assert characterization.depth_grid_step == (rho[1] - rho[0], z[1] - z[0])
    assert 0 < characterization.minimizer_iterations < 4000
    record = characterization.as_record()
    assert record["minimizer_iterations"] == characterization.minimizer_iterations
    assert record["depth_grid_step_m"] == list(characterization.depth_grid_step)
    assert record["depth_map_points"] == characterization.depth_map_points
    assert characterize_guide(design_guide_geometry(), species_rb87()) == characterization


def test_imbalanced_ring_minimum_converges(monkeypatch):
    """A 2 % high centre current ran Nelder-Mead to its 4000-iteration cap
    with fatol = 0. The refined minimum must converge well before that, at
    the zero of the field vector found by an independent root solve."""
    ring = GuideGeometry(
        loops=(
            WireLoop(radius=974e-6, current=-0.123, height=0.0),
            WireLoop(radius=1000e-6, current=0.12342, height=0.0),
            WireLoop(radius=1026e-6, current=-0.123, height=0.0),
        )
    )
    minimize = scipy.optimize.minimize
    results = []

    def recording_minimize(*args, **kwargs):
        results.append(minimize(*args, **kwargs))
        return results[-1]

    monkeypatch.setattr(scipy.optimize, "minimize", recording_minimize)
    rho0, z0 = find_guide_minimum(ring)
    assert results[-1].success and results[-1].nit < 4000

    zero = scipy.optimize.root(
        lambda x: np.array(total_field_arrays(ring, x[0], x[1])), x0=[1e-3, 2.5e-5]
    )
    assert zero.success
    assert rho0 == pytest.approx(zero.x[0], abs=2e-9)
    assert z0 == pytest.approx(zero.x[1], abs=2e-9)


def test_unconverged_refinement_raises(monkeypatch):
    def failing_minimize(fun, x0, **kwargs):
        return scipy.optimize.OptimizeResult(
            x=np.asarray(x0), success=False, message="Maximum number of iterations exceeded"
        )

    monkeypatch.setattr(scipy.optimize, "minimize", failing_minimize)
    with pytest.raises(NoGuideMinimumError, match="did not converge"):
        find_guide_minimum(design_guide_geometry())


def test_zero_current_raises():
    with pytest.raises(NoGuideMinimumError):
        find_guide_minimum(design_guide_geometry().scaled(0.0))


def test_non_smooth_without_offset():
    with pytest.raises(NonSmoothPotentialError):
        characterize_guide(design_guide_geometry(), species_rb87(), offset_B0=0.0)


def test_negative_offset_rejected():
    with pytest.raises(ConfigError):
        characterize_guide(design_guide_geometry(), species_rb87(), offset_B0=-1e-4)


# ---------------------------------------------------------------------------
# corrugation model


@pytest.fixture(scope="module")
def corrugation():
    return CorrugationModel(
        amplitude=1e-4, correlation_length=5e-6, seed=7, arc_length=2 * math.pi * 500e-6
    )


def test_corrugation_reproducible(corrugation):
    again = CorrugationModel(
        amplitude=1e-4, correlation_length=5e-6, seed=7, arc_length=2 * math.pi * 500e-6
    )
    assert np.array_equal(corrugation.profile, again.profile)
    other = CorrugationModel(
        amplitude=1e-4, correlation_length=5e-6, seed=8, arc_length=2 * math.pi * 500e-6
    )
    assert not np.array_equal(corrugation.profile, other.profile)


def test_corrugation_zero_mean_and_rms(corrugation):
    assert abs(corrugation.profile.mean()) < 1e-18
    assert np.sqrt(np.mean(corrugation.profile ** 2)) == pytest.approx(1e-4, rel=1e-10)


def test_roughness_odd_in_current(corrugation):
    rb = species_rb87()
    v_pos = roughness_potential(corrugation, 0.121, rb)
    v_neg = roughness_potential(corrugation, -0.121, rb)
    assert np.allclose(v_pos, -v_neg, rtol=0, atol=1e-40)
    assert np.max(np.abs(v_pos)) > 0


def test_roughness_linear_in_current(corrugation):
    rb = species_rb87()
    v1 = roughness_potential(corrugation, 0.1, rb)
    v3 = roughness_potential(corrugation, 0.3, rb)
    assert np.allclose(v3, 3.0 * v1, rtol=1e-12, atol=0)


def test_zero_mean_modulation_nulls_roughness(corrugation):
    rb = species_rb87()
    t = np.linspace(0.0, 1.0, 20001)
    current = 0.121 * np.sin(2 * math.pi * 5 * t)
    averaged = modulated_roughness_average(corrugation, t, current, rb)
    static = roughness_potential(corrugation, 0.121, rb)
    assert np.max(np.abs(averaged)) < 1e-9 * np.max(np.abs(static))


def test_dc_offset_leaves_proportional_residual(corrugation):
    rb = species_rb87()
    t = np.linspace(0.0, 1.0, 20001)
    current = 0.121 * np.sin(2 * math.pi * 5 * t) + 0.01
    averaged = modulated_roughness_average(corrugation, t, current, rb)
    static = roughness_potential(corrugation, 0.01, rb)
    assert np.allclose(averaged, static, rtol=1e-6, atol=1e-9 * np.max(np.abs(static)))


def test_corrugation_validation():
    with pytest.raises(ConfigError):
        CorrugationModel(amplitude=-1.0, correlation_length=1e-6, seed=0, arc_length=1e-3)
    with pytest.raises(ConfigError):
        CorrugationModel(amplitude=1e-4, correlation_length=0.0, seed=0, arc_length=1e-3)
    with pytest.raises(ConfigError):
        modulated_roughness_average(
            CorrugationModel(amplitude=1e-4, correlation_length=1e-6, seed=0, arc_length=1e-3),
            np.array([0.0, 1.0, 0.5]),
            np.array([1.0, 1.0, 1.0]),
            species_rb87(),
        )
