"""Characterization of the circular magnetic guide.

Locates the modulus minimum of the wire field, which above a quadrupole
guide is the zero of (B_rho, B_z), and derives the transverse gradient, the
radial frequency and the trap depth there.

The bare quadrupole modulus is non-smooth at its zero line, so the trapping
potential is regularized by a longitudinal offset field B0 added in
quadrature: U = mu * sqrt(B_rho^2 + B_z^2 + B0^2). At the zero, U's Hessian
is mu J^T J / hypot(B_min, B0), with J the Jacobian of (B_rho, B_z), so the
gradient and the radial frequency both come from J's top singular value.
B0 is always reported next to the derived quantities.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass

import numpy as np

from .constants import DEFAULT_OFFSET_B0, AtomSpecies, K_B
from .errors import ConfigError, NoGuideMinimumError, NonSmoothPotentialError, PhysicsError
from .magnetostatics import GuideGeometry, field_modulus, total_field_arrays

JACOBIAN_STEP = 1e-8         # m, central-difference step of the field Jacobian
POSITION_TOLERANCE = 1e-9    # m, Newton stops at a step of at most a tenth of it
NEWTON_MAX_ITERATIONS = 10   # cap of the minimum refinement
COARSE_GRID = 201            # coarse scan resolution per axis
DEPTH_GRID = 1001            # priority-flood barrier grid resolution per axis
DEPTH_TILE = 32              # cells per side of a lazily evaluated depth-map tile


@dataclass(frozen=True)
class GuideCharacterization:
    min_position: tuple        # (rho0, z0) in m
    B_min: float               # T, bare modulus at the minimum
    gradient: float            # T/m, steepest slope of |B| out of the zero
    offset_B0: float           # T
    radial_frequency: float    # Hz
    depth_field: float         # T
    depth_temperature: float   # K
    minimizer_iterations: int  # Newton iterations of the minimum refinement
    minimizer_step_m: float    # m, last Newton step, a bound on the position error
    depth_grid_step: tuple     # (d_rho, d_z) in m, resolution bound on depth_field
    depth_map_points: int      # depth-map cells at which |B| was evaluated

    def as_record(self) -> dict:
        return {
            "rho0_m": self.min_position[0],
            "z0_m": self.min_position[1],
            "B_min_T": self.B_min,
            "gradient_T_m": self.gradient,
            "offset_B0_T": self.offset_B0,
            "radial_frequency_Hz": self.radial_frequency,
            "depth_field_T": self.depth_field,
            "depth_temperature_K": self.depth_temperature,
            "minimizer_iterations": self.minimizer_iterations,
            "minimizer_step_m": self.minimizer_step_m,
            "depth_grid_step_m": list(self.depth_grid_step),
            "depth_map_points": self.depth_map_points,
        }


def _search_box(geometry: GuideGeometry):
    """(rho, z) box in which a guide minimum is looked for: rho in
    [0.5 R, 1.5 R] around the central loop, z in (0, 10 s] with s the wire
    spacing (falls back to 0.1 R for a single loop)."""
    radii = [loop.radius for loop in geometry.loops]
    R = radii[len(radii) // 2]
    if len(radii) > 1:
        spacing = min(b - a for a, b in zip(radii, radii[1:]))
    else:
        spacing = 0.1 * R
    return (0.5 * R, 1.5 * R), (0.0, 10.0 * spacing)


def _field_jacobian(geometry: GuideGeometry, x: np.ndarray) -> tuple:
    """(B, J) at x = (rho, z): the field vector (B_rho, B_z) and its
    central-difference Jacobian J[i, k] = dB_i / dx_k (step JACOBIAN_STEP),
    from one field call on x, x +- h e_rho and x +- h e_z."""
    h = JACOBIAN_STEP
    offsets = np.array([[0.0, 0.0], [h, 0.0], [-h, 0.0], [0.0, h], [0.0, -h]])
    B = np.array(total_field_arrays(geometry, *(x + offsets).T))
    return B[:, 0], (B[:, 1::2] - B[:, 2::2]) / (2.0 * h)


def find_guide_minimum(geometry: GuideGeometry) -> tuple:
    """Locate the minimum of |B| above the chip.

    Coarse grid scan, then Newton's method on the field vector from the
    lowest interior local minimum of the scan: the minimum is the zero of
    (B_rho, B_z). Deterministic for a fixed geometry. Newton stops once a
    step is at most POSITION_TOLERANCE / 10; near the zero it converges
    quadratically, so that last step bounds the position error. Returns
    (rho0, z0, iterations, last step size). Raises NoGuideMinimumError when
    |B| on the scan is not finite, when the box contains no interior minimum
    (e.g. all currents zero or non-trapping signs), or when Newton leaves the
    search box or does not converge within NEWTON_MAX_ITERATIONS.
    """
    (rho_lo, rho_hi), (z_lo, z_hi) = _search_box(geometry)
    if all(loop.current == 0.0 for loop in geometry.loops):
        raise NoGuideMinimumError("all currents are zero: no field, no guide")

    rho = np.linspace(rho_lo, rho_hi, COARSE_GRID)
    z = np.linspace(z_hi / COARSE_GRID, z_hi, COARSE_GRID)
    RR, ZZ = np.meshgrid(rho, z, indexing="ij")
    with np.errstate(over="ignore", invalid="ignore"):  # a field past the float range reads inf or nan
        B = field_modulus(geometry, RR, ZZ)
    if not np.all(np.isfinite(B)):
        raise NoGuideMinimumError(
            "|B| is not finite in the search box: a loop radius or current is past the float range"
        )

    # interior local minima of the coarse map (the global box minimum can sit
    # on the boundary where the far field decays; that is escape, not trapping)
    core = B[1:-1, 1:-1]
    local_min = (
        (core < B[:-2, 1:-1])
        & (core < B[2:, 1:-1])
        & (core < B[1:-1, :-2])
        & (core < B[1:-1, 2:])
    )
    if not local_min.any():
        raise NoGuideMinimumError(
            "no interior |B| minimum in the search box: current configuration does not trap"
        )
    masked = np.where(local_min, core, np.inf)
    i, j = np.unravel_index(np.argmin(masked), masked.shape)
    i, j = i + 1, j + 1

    # Newton on (B_rho, B_z)
    x = np.array([rho[i], z[j]])
    for iterations in range(1, NEWTON_MAX_ITERATIONS + 1):
        B, jacobian = _field_jacobian(geometry, x)
        step = np.linalg.solve(jacobian, -B)
        x = x + step
        if not (rho_lo <= x[0] <= rho_hi and z_lo < x[1] <= z_hi):
            raise NoGuideMinimumError("refined minimum escaped the search box")
        step_size = math.hypot(*step)
        if step_size <= POSITION_TOLERANCE / 10.0:
            break
    else:
        raise NoGuideMinimumError(
            f"minimum refinement did not converge in {NEWTON_MAX_ITERATIONS} Newton iterations"
        )
    return float(x[0]), float(x[1]), iterations, step_size


class _TiledFieldMap:
    """|B| on the grid rho x z, read as ``map[a, b]``. The field is evaluated
    one DEPTH_TILE x DEPTH_TILE tile at a time, the first time a cell of the
    tile is read; the tiles of the last row and column are partial. A cell
    reads as a Python float, which the flood's heap compares faster than a
    numpy scalar, bit-identical to the same cell of the full map. A tile with
    a non-finite |B| raises PhysicsError."""

    def __init__(self, geometry: GuideGeometry, rho: np.ndarray, z: np.ndarray):
        self.geometry, self.rho, self.z = geometry, rho, z
        self.shape = (rho.size, z.size)
        self.tiles = {}

    def __getitem__(self, cell):
        ta, a = divmod(cell[0], DEPTH_TILE)
        tb, b = divmod(cell[1], DEPTH_TILE)
        tile = self.tiles.get((ta, tb))
        if tile is None:
            rho = self.rho[ta * DEPTH_TILE:(ta + 1) * DEPTH_TILE]
            z = self.z[tb * DEPTH_TILE:(tb + 1) * DEPTH_TILE]
            with np.errstate(over="ignore", invalid="ignore"):  # a field past the float range reads inf or nan
                tile = self.tiles[ta, tb] = field_modulus(self.geometry, rho[:, None], z[None, :])
            if not np.all(np.isfinite(tile)):
                raise PhysicsError(
                    "|B| is not finite in the depth map: a loop current is past the float range there"
                )
        return tile.item(a, b)

    @property
    def points(self) -> int:
        """Number of cells evaluated so far."""
        return sum(tile.size for tile in self.tiles.values())


def _flood_barrier(B, i: int, j: int) -> float:
    """Lowest level at which the 4-connected region {B <= level} containing
    cell (i, j) touches the edge of the grid.

    Priority flood (Barnes, Lehman & Mulla, Computers & Geosciences 62, 2014):
    cells are popped lowest first from (i, j); the barrier is the highest
    level popped up to the first edge cell. Exact on the grid. ``B`` is
    anything with ``.shape`` and ``B[a, b]``: an ndarray, or a
    _TiledFieldMap, which then evaluates only the tiles the flood reaches.
    """
    n_rho, n_z = B.shape
    heap = [(B[i, j], i, j)]
    seen = {(i, j)}
    barrier = -math.inf
    while True:
        level, a, b = heapq.heappop(heap)
        barrier = max(barrier, level)
        if a in (0, n_rho - 1) or b in (0, n_z - 1):
            return float(barrier)
        for cell in ((a - 1, b), (a + 1, b), (a, b - 1), (a, b + 1)):
            if cell not in seen:
                seen.add(cell)
                heapq.heappush(heap, (B[cell], *cell))


def _depth_field(geometry: GuideGeometry, min_pos, B_min) -> tuple:
    """Escape barrier of |B| within the search box: the priority-flood
    barrier of a DEPTH_GRID^2 map, flooded from the cell nearest the minimum,
    less B_min.

    The map is a _TiledFieldMap, so only the DEPTH_TILE^2 tiles the flood
    touches are evaluated (28 of 1024 on the design guide). Returns
    (depth, (d_rho, d_z) grid step, number of cells evaluated).
    """
    (rho_lo, rho_hi), (_, z_hi) = _search_box(geometry)
    rho = np.linspace(rho_lo, rho_hi, DEPTH_GRID)
    z = np.linspace(z_hi / DEPTH_GRID, z_hi, DEPTH_GRID)
    B = _TiledFieldMap(geometry, rho, z)

    i = int(np.argmin(np.abs(rho - min_pos[0])))
    j = int(np.argmin(np.abs(z - min_pos[1])))
    depth = _flood_barrier(B, i, j) - B_min
    return depth, (float(rho[1] - rho[0]), float(z[1] - z[0])), B.points


def trap_potential(geometry: GuideGeometry, species: AtomSpecies, rho, z, offset_B0: float):
    """Trap potential U = mu sqrt(|B|^2 + B0^2) over point grids, with the
    longitudinal offset field B0 added to |B| in quadrature."""
    modulus = field_modulus(geometry, rho, z)
    return species.magnetic_moment * np.sqrt(modulus * modulus + offset_B0 * offset_B0)


def characterize_guide(
    geometry: GuideGeometry,
    species: AtomSpecies,
    offset_B0: float = DEFAULT_OFFSET_B0,
) -> GuideCharacterization:
    """Full characterization of the guide minimum for the given species.

    The gradient is the top singular value of the field Jacobian J at the
    minimum, the steepest slope of |B| out of the zero. U's Hessian there is
    mu J^T J / hypot(B_min, B0), so the radial frequency is the quadrupole
    relation at that gradient and the offset hypot(B_min, B0). Raises
    ConfigError for an offset that is not a finite number >= 0, and
    NonSmoothPotentialError for B0 = 0, where U has no trap frequency."""
    if not (math.isfinite(offset_B0) and offset_B0 >= 0):
        raise ConfigError(f"offset_B0 must be a finite number >= 0, got {offset_B0!r}")
    if offset_B0 == 0:
        raise NonSmoothPotentialError(
            "geometry.offset_B0_T = 0: U = mu |B| is a cone at the field zero, with no "
            "trap frequency; give an offset field B0 > 0"
        )
    rho0, z0, iterations, step_size = find_guide_minimum(geometry)
    B_min = float(field_modulus(geometry, rho0, z0))

    _, jacobian = _field_jacobian(geometry, np.array([rho0, z0]))
    gradient = float(np.linalg.norm(jacobian, 2))
    radial_frequency = radial_frequency_quadrupole(gradient, math.hypot(B_min, offset_B0), species)

    depth_field, depth_step, depth_points = _depth_field(geometry, (rho0, z0), B_min)
    depth_temperature = species.magnetic_moment * depth_field / K_B

    return GuideCharacterization(
        min_position=(rho0, z0),
        B_min=B_min,
        gradient=gradient,
        offset_B0=offset_B0,
        radial_frequency=radial_frequency,
        depth_field=depth_field,
        depth_temperature=depth_temperature,
        minimizer_iterations=iterations,
        minimizer_step_m=step_size,
        depth_grid_step=depth_step,
        depth_map_points=depth_points,
    )


def radial_frequency_quadrupole(
    gradient: float, offset_B0: float, species: AtomSpecies
) -> float:
    """Small-oscillation frequency of a 2D quadrupole of transverse
    gradient b' with the field B0 at its bottom:
    f = b'/(2 pi) * sqrt(mu / (m B0)) (Fortagh & Zimmermann, Rev. Mod. Phys.
    79, 235 (2007))."""
    if offset_B0 <= 0:
        raise ConfigError("the analytic quadrupole frequency needs offset_B0 > 0")
    return gradient / (2.0 * math.pi) * math.sqrt(
        species.magnetic_moment / (species.mass * offset_B0)
    )

