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
NEWTON_MAX_ITERATIONS = 10   # cap of the minimum and of the saddle refinement
COARSE_GRID = 201            # coarse scan resolution per axis; one scan serves minimum and depth
# x, x +- h e_rho and x +- h e_z, h = JACOBIAN_STEP: the central-difference stencil
_STENCIL = JACOBIAN_STEP * np.array([[0.0, 0.0], [1.0, 0.0], [-1.0, 0.0], [0.0, 1.0], [0.0, -1.0]])


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
    saddle_position: tuple | None  # (rho, z) in m of the escape saddle; None when the escape is the box edge
    saddle_iterations: int     # Newton iterations of the saddle refinement (0 without a saddle)
    saddle_step_m: float | None    # m, last saddle Newton step (None without a saddle)

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
            "saddle_position_m": None if self.saddle_position is None else list(self.saddle_position),
            "saddle_iterations": self.saddle_iterations,
            "saddle_step_m": self.saddle_step_m,
            "jacobian_step_m": JACOBIAN_STEP,
        }


def _search_box(geometry: GuideGeometry):
    """(rho, z) box in which a guide minimum is looked for: rho in
    [0.5 R, 1.5 R] around the central loop, z in (h, h + 10 s] with h the
    loop plane's height, or 0 below the chip, and s the wire spacing (falls
    back to 0.1 R for a single loop); the mirror zero under the loops is out."""
    radii = [loop.radius for loop in geometry.loops]
    R = radii[len(radii) // 2]
    if len(radii) > 1:
        spacing = min(b - a for a, b in zip(radii, radii[1:]))
    else:
        spacing = 0.1 * R
    floor = max(geometry.loops[0].height, 0.0)
    return (0.5 * R, 1.5 * R), (floor, floor + 10.0 * spacing)


def _field_jacobian(geometry: GuideGeometry, x: np.ndarray) -> tuple:
    """(B, J) at x = (rho, z): the field vector (B_rho, B_z) and its
    central-difference Jacobian J[i, k] = dB_i / dx_k (step JACOBIAN_STEP),
    from one field call on the _STENCIL around x. For points x of shape
    (n, 1, 2), B is (2, n) and J is (2, 2, n)."""
    B = np.array(total_field_arrays(geometry, *(x + _STENCIL).T))
    return B[:, 0], (B[:, 1::2] - B[:, 2::2]) / (2.0 * JACOBIAN_STEP)


def _modulus_gradient_hessian(geometry: GuideGeometry, x: np.ndarray) -> tuple:
    """(grad |B|, its Hessian) at x. grad |B| = J^T B / |B| at the _STENCIL
    around x (one field call on 25 points); the Hessian is its central
    differences."""
    B, jacobian = _field_jacobian(geometry, (x + _STENCIL)[:, None, :])
    gradient = np.einsum("ikn,in->kn", jacobian, B / np.hypot(*B))
    return gradient[:, 0], (gradient[:, 1::2] - gradient[:, 2::2]) / (2.0 * JACOBIAN_STEP)


def _newton(system, x: np.ndarray, geometry: GuideGeometry, error: type, name: str) -> tuple:
    """Newton's method on system(geometry, x) -> (F, dF/dx) from x, until a
    step is at most POSITION_TOLERANCE / 10. Returns (x, the last dF/dx,
    iterations, last step size). Raises ``error`` when an iterate leaves the
    search box or after NEWTON_MAX_ITERATIONS iterations."""
    (rho_lo, rho_hi), (z_lo, z_hi) = _search_box(geometry)
    for iterations in range(1, NEWTON_MAX_ITERATIONS + 1):
        F, jacobian = system(geometry, x)
        step = np.linalg.solve(jacobian, -F)
        x = x + step
        if not (rho_lo <= x[0] <= rho_hi and z_lo < x[1] <= z_hi):
            raise error(f"refined {name} escaped the search box")
        step_size = math.hypot(*step)
        if step_size <= POSITION_TOLERANCE / 10.0:
            return x, jacobian, iterations, step_size
    raise error(f"{name} refinement did not converge in {NEWTON_MAX_ITERATIONS} Newton iterations")


def find_guide_minimum(geometry: GuideGeometry) -> tuple:
    """Locate the minimum of |B| above the chip and the loop plane.

    A COARSE_GRID^2 scan of the search box, then Newton's method on the
    field vector from the lowest interior local minimum of the scan: the
    minimum is the zero of (B_rho, B_z). Deterministic for a fixed geometry.
    Newton stops once a step is at most POSITION_TOLERANCE / 10; near the
    zero it converges quadratically, so that last step bounds the position
    error. Returns
    (rho0, z0, iterations, last step size, scan), with scan the coarse
    scan's (rho, z, |B|), which _depth_field floods. Raises
    NoGuideMinimumError when |B| on the scan is not finite, when the box
    contains no interior minimum (e.g. all currents zero or non-trapping
    signs), or when Newton leaves the search box or does not converge within
    NEWTON_MAX_ITERATIONS.
    """
    if all(loop.current == 0.0 for loop in geometry.loops):
        raise NoGuideMinimumError("all currents are zero: no field, no guide")
    (rho_lo, rho_hi), (z_lo, z_hi) = _search_box(geometry)
    rho = np.linspace(rho_lo, rho_hi, COARSE_GRID)
    z = np.linspace(z_lo + (z_hi - z_lo) / COARSE_GRID, z_hi, COARSE_GRID)
    with np.errstate(over="ignore", invalid="ignore"):  # a field past the float range reads inf or nan
        B = field_modulus(geometry, rho[:, None], z[None, :])
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

    start = np.array([rho[i + 1], z[j + 1]])
    x, _, iterations, step_size = _newton(_field_jacobian, start, geometry, NoGuideMinimumError, "minimum")
    return float(x[0]), float(x[1]), iterations, step_size, (rho, z, B)


def _flood_barrier(B: np.ndarray, i: int, j: int) -> tuple:
    """(level, cell): the lowest level at which the 4-connected region
    {B <= level} containing cell (i, j) touches the edge of the grid, and
    the cell that sets it.

    Priority flood (Barnes, Lehman & Mulla, Computers & Geosciences 62, 2014):
    cells are popped lowest first from (i, j); the barrier is the highest
    level popped up to the first edge cell. Exact on the grid.
    """
    values = B.tolist()  # the heap compares Python floats faster than numpy scalars
    n_rho, n_z = B.shape
    heap = [(values[i][j], i, j)]
    seen = {(i, j)}
    barrier = (-math.inf, None)
    while True:
        level, a, b = heapq.heappop(heap)
        if level > barrier[0]:
            barrier = (level, (a, b))
        if a in (0, n_rho - 1) or b in (0, n_z - 1):
            return barrier
        for cell in ((a - 1, b), (a + 1, b), (a, b - 1), (a, b + 1)):
            if cell not in seen:
                seen.add(cell)
                heapq.heappush(heap, (values[cell[0]][cell[1]], *cell))


def _depth_field(geometry: GuideGeometry, scan: tuple, min_pos, B_min) -> tuple:
    """Escape barrier of |B| within the search box, less B_min.

    ``scan`` is the coarse scan (rho, z, |B|) that find_guide_minimum
    searched; it is flooded from the cell nearest the minimum, and no scan
    is made here. When the barrier cell lies inside the grid, Newton's
    method on grad |B| refines it to the escape saddle of |B|, and the depth
    is |B| there: no grid limits it. When the barrier cell is on the edge of
    the box, the escape leaves the box without a saddle, and the depth is
    that cell's |B|, a value limited by the box. Returns (depth, saddle
    (rho, z) or None, Newton iterations, last Newton step or None). Raises
    PhysicsError when Newton fails or stops where the Hessian of |B| is not
    indefinite.
    """
    rho, z, B = scan
    i = int(np.argmin(np.abs(rho - min_pos[0])))
    j = int(np.argmin(np.abs(z - min_pos[1])))
    level, (a, b) = _flood_barrier(B, i, j)
    if a in (0, rho.size - 1) or b in (0, z.size - 1):
        return level - B_min, None, 0, None

    x, hessian, iterations, step_size = _newton(
        _modulus_gradient_hessian, np.array([rho[a], z[b]]), geometry, PhysicsError, "escape saddle"
    )
    low, high = np.linalg.eigvalsh(0.5 * (hessian + hessian.T))
    saddle = (float(x[0]), float(x[1]))
    if not low < 0.0 < high:
        raise PhysicsError(f"escape saddle refinement ended at {saddle} m, where |B| has no saddle")
    return float(field_modulus(geometry, *saddle)) - B_min, saddle, iterations, step_size


def trap_potential(geometry: GuideGeometry, species: AtomSpecies, rho, z, offset_B0: float):
    """Trap potential U = mu sqrt(|B|^2 + B0^2) over point grids, with the
    longitudinal offset field B0 added to |B| in quadrature."""
    return species.magnetic_moment * np.hypot(field_modulus(geometry, rho, z), offset_B0)


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
    rho0, z0, iterations, step_size, scan = find_guide_minimum(geometry)
    B, jacobian = _field_jacobian(geometry, np.array([rho0, z0]))
    B_min = float(np.hypot(*B))
    gradient = float(np.linalg.norm(jacobian, 2))
    radial_frequency = radial_frequency_quadrupole(gradient, math.hypot(B_min, offset_B0), species)

    depth_field, saddle, saddle_iterations, saddle_step = _depth_field(geometry, scan, (rho0, z0), B_min)
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
        saddle_position=saddle,
        saddle_iterations=saddle_iterations,
        saddle_step_m=saddle_step,
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

