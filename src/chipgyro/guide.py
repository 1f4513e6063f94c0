"""Characterization of the circular magnetic guide.

Locates the modulus minimum of the wire field, derives confinement (radial
frequency from the Hessian of the regularized potential), transverse gradient
and trap depth, and provides a first-order model of wire-corrugation roughness
with its suppression under zero-mean current modulation.

The bare quadrupole modulus is non-smooth at its zero line, so the trapping
potential is regularized by a longitudinal offset field B0 added in
quadrature: U = mu * sqrt(B_rho^2 + B_z^2 + B0^2). B0 is always reported next
to the derived quantities.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass, field

import numpy as np

from .constants import AtomSpecies, K_B
from .errors import ConfigError, NoGuideMinimumError, NonSmoothPotentialError
from .magnetostatics import GuideGeometry, field_modulus

# Offset field (T) that reproduces the design case's quoted radial frequency;
# see characterize_guide. Exposed in the CLI config as geometry.offset_B0.
DEFAULT_OFFSET_B0 = 1.5e-2

HESSIAN_STEP = 1e-8          # m, central-difference step at the minimum
POSITION_TOLERANCE = 1e-9    # m, refinement tolerance of the minimizer
# T, spread of |B| over the final simplex. At a quadrupole zero line no two
# vertices give bit-equal values, so fatol = 0 never stops the minimizer.
MODULUS_TOLERANCE = 1e-16
COARSE_GRID = 201            # coarse scan resolution per axis
DEPTH_GRID = 1001            # priority-flood barrier grid resolution per axis
DEPTH_TILE = 32              # cells per side of a lazily evaluated depth-map tile

# geometric constant of the first-order corrugation model, per unit df/ds
CORRUGATION_FIELD_CONSTANT = 1.0  # T A^-1 m^-1


@dataclass(frozen=True)
class GuideCharacterization:
    min_position: tuple        # (rho0, z0) in m
    B_min: float               # T, bare modulus at the minimum
    gradient: float            # T/m, transverse slope of |B| outside the zero
    offset_B0: float           # T
    radial_frequency: float    # Hz
    depth_field: float         # T
    depth_temperature: float   # K
    minimizer_iterations: int  # Nelder-Mead iterations of the minimum refinement
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


def find_guide_minimum(geometry: GuideGeometry, full_output: bool = False) -> tuple:
    """Locate the minimum of |B| above the chip, to 1e-9 m in position.

    Coarse grid scan followed by Nelder-Mead refinement; deterministic for a
    fixed geometry. Returns (rho0, z0), or (rho0, z0, iterations) with
    ``full_output``. Raises NoGuideMinimumError when the box contains no
    interior minimum (e.g. all currents zero or non-trapping signs).
    """
    (rho_lo, rho_hi), (z_lo, z_hi) = _search_box(geometry)
    if all(loop.current == 0.0 for loop in geometry.loops):
        raise NoGuideMinimumError("all currents are zero: no field, no guide")

    rho = np.linspace(rho_lo, rho_hi, COARSE_GRID)
    z = np.linspace(z_hi / COARSE_GRID, z_hi, COARSE_GRID)
    RR, ZZ = np.meshgrid(rho, z, indexing="ij")
    B = field_modulus(geometry, RR, ZZ)

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

    def objective(x):
        r, zz = x
        if not (rho_lo <= r <= rho_hi and 0 < zz <= z_hi):
            return np.inf
        return float(field_modulus(geometry, r, zz))

    import scipy.optimize

    result = scipy.optimize.minimize(
        objective,
        x0=[rho[i], z[j]],
        method="Nelder-Mead",
        options={
            "xatol": POSITION_TOLERANCE / 10.0,
            "fatol": MODULUS_TOLERANCE,
            "maxiter": 4000,
            "initial_simplex": np.array(
                [
                    [rho[i], z[j]],
                    [rho[i] + (rho[1] - rho[0]), z[j]],
                    [rho[i], z[j] + (z[1] - z[0])],
                ]
            ),
        },
    )
    if not result.success:
        raise NoGuideMinimumError(f"minimum refinement did not converge: {result.message}")
    rho0, z0 = float(result.x[0]), float(result.x[1])
    if not (z_lo < z0 <= z_hi):
        raise NoGuideMinimumError("refined minimum escaped the search box")
    if full_output:
        return rho0, z0, int(result.nit)
    return rho0, z0


class _TiledFieldMap:
    """|B| on the grid rho x z, read as ``map[a, b]``. The field is evaluated
    one DEPTH_TILE x DEPTH_TILE tile at a time, the first time a cell of the
    tile is read; the tiles of the last row and column are partial. Each cell
    is bit-identical to the same cell of the full map."""

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
            tile = self.tiles[ta, tb] = field_modulus(self.geometry, rho[:, None], z[None, :])
        return tile[a, b]

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


def characterize_guide(
    geometry: GuideGeometry,
    species: AtomSpecies,
    offset_B0: float = DEFAULT_OFFSET_B0,
) -> GuideCharacterization:
    """Full characterization of the guide minimum for the given species."""
    if offset_B0 < 0:
        raise ConfigError(f"offset_B0 must be >= 0, got {offset_B0!r}")
    rho0, z0, iterations = find_guide_minimum(geometry, full_output=True)
    B_min = float(field_modulus(geometry, rho0, z0))

    mu = species.magnetic_moment
    if offset_B0 == 0.0 and B_min < 1e-9:
        raise NonSmoothPotentialError(
            "modulus zero at the minimum with offset_B0 = 0: the potential has no "
            "harmonic curvature; supply offset_B0 > 0"
        )

    def potential(r, zz):
        return mu * np.sqrt(field_modulus(geometry, r, zz) ** 2 + offset_B0 ** 2)

    hessian = potential_hessian(potential, rho0, z0)
    eigvals, eigvecs = np.linalg.eigh(hessian)
    lam_max = float(eigvals[-1])
    direction = eigvecs[:, -1]

    radial_frequency = math.sqrt(max(lam_max, 0.0) / species.mass) / (2.0 * math.pi)

    step = 3.0 * HESSIAN_STEP
    b_out = float(
        field_modulus(geometry, rho0 + step * direction[0], z0 + step * direction[1])
    )
    gradient = (b_out - B_min) / step

    depth_field, depth_step, depth_points = _depth_field(geometry, (rho0, z0), B_min)
    depth_temperature = mu * depth_field / K_B

    return GuideCharacterization(
        min_position=(rho0, z0),
        B_min=B_min,
        gradient=gradient,
        offset_B0=offset_B0,
        radial_frequency=radial_frequency,
        depth_field=depth_field,
        depth_temperature=depth_temperature,
        minimizer_iterations=iterations,
        depth_grid_step=depth_step,
        depth_map_points=depth_points,
    )


def potential_hessian(potential, rho0: float, z0: float, step: float = HESSIAN_STEP) -> np.ndarray:
    """2x2 central-difference Hessian of a (rho, z) potential at a point."""
    h = step
    u0 = potential(rho0, z0)
    uxx = (potential(rho0 + h, z0) - 2 * u0 + potential(rho0 - h, z0)) / h ** 2
    uzz = (potential(rho0, z0 + h) - 2 * u0 + potential(rho0, z0 - h)) / h ** 2
    uxz = (
        potential(rho0 + h, z0 + h)
        - potential(rho0 + h, z0 - h)
        - potential(rho0 - h, z0 + h)
        + potential(rho0 - h, z0 - h)
    ) / (4 * h ** 2)
    return np.array([[uxx, uxz], [uxz, uzz]])


def radial_frequency_quadrupole(
    gradient: float, offset_B0: float, species: AtomSpecies
) -> float:
    """Small-oscillation frequency of a pure 2D quadrupole of transverse
    gradient b' regularized by B0: f = b'/(2 pi) * sqrt(mu / (m B0))."""
    if offset_B0 <= 0:
        raise ConfigError("the analytic quadrupole frequency needs offset_B0 > 0")
    return gradient / (2.0 * math.pi) * math.sqrt(
        species.magnetic_moment / (species.mass * offset_B0)
    )


@dataclass(frozen=True)
class CorrugationModel:
    """Zero-mean relative current deviation f(s) along the azimuthal arc
    length, reproducible from ``seed``."""

    amplitude: float           # rms relative current deviation
    correlation_length: float  # m
    seed: int
    arc_length: float          # m, full azimuthal extent (periodic)
    n_points: int = 4096
    profile: np.ndarray = field(init=False, repr=False, compare=False)
    grid: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.amplitude < 0:
            raise ConfigError("corrugation amplitude must be >= 0")
        if self.correlation_length <= 0 or self.arc_length <= 0:
            raise ConfigError("correlation_length and arc_length must be > 0")
        s = np.linspace(0.0, self.arc_length, self.n_points, endpoint=False)
        rng = np.random.default_rng(self.seed)
        white = rng.standard_normal(self.n_points)
        f = _periodic_gaussian_filter(white, self.correlation_length, self.arc_length)
        f = f - f.mean()
        rms = float(np.sqrt(np.mean(f * f)))
        if rms > 0 and self.amplitude > 0:
            f = f * (self.amplitude / rms)
        else:
            f = np.zeros_like(f)
        f = f - f.mean()  # keep the mean at machine zero after scaling
        object.__setattr__(self, "profile", f)
        object.__setattr__(self, "grid", s)


def _periodic_gaussian_filter(values: np.ndarray, width: float, period: float) -> np.ndarray:
    """Periodic Gaussian smoothing via FFT."""
    n = values.size
    freq = np.fft.rfftfreq(n, d=period / n)
    kernel = np.exp(-2.0 * (np.pi * freq * width) ** 2)
    return np.fft.irfft(np.fft.rfft(values) * kernel, n=n)


def roughness_potential(
    corrugation: CorrugationModel,
    current: float,
    species: AtomSpecies,
    guide_height: float = 13e-6,
) -> np.ndarray:
    """First-order rough potential V(s) (J) on the corrugation grid.

    V = mu * c * I * g(s) with g the arc-length derivative of the corrugation
    profile smoothed over the guide height; odd in the sign of the current.
    """
    if guide_height <= 0:
        raise ConfigError("guide_height must be > 0")
    if not math.isfinite(current):
        raise ConfigError("current must be finite")
    ds = corrugation.arc_length / corrugation.n_points
    fprime = (np.roll(corrugation.profile, -1) - np.roll(corrugation.profile, 1)) / (2.0 * ds)
    g = _periodic_gaussian_filter(fprime, guide_height, corrugation.arc_length)
    return species.magnetic_moment * CORRUGATION_FIELD_CONSTANT * current * g


def modulated_roughness_average(
    corrugation: CorrugationModel,
    waveform_t: np.ndarray,
    waveform_current: np.ndarray,
    species: AtomSpecies,
    guide_height: float = 13e-6,
) -> np.ndarray:
    """Time average of the rough potential over one period of the current
    waveform. In the first-order (current-linear) model this equals the
    waveform mean times the unit-current potential: a zero-mean modulation
    nulls the roughness exactly; a DC offset leaves the proportional residual.
    """
    t = np.asarray(waveform_t, dtype=float)
    current = np.asarray(waveform_current, dtype=float)
    if t.ndim != 1 or t.size < 2 or t.shape != current.shape:
        raise ConfigError("waveform must be 1D arrays of equal length >= 2")
    if np.any(np.diff(t) <= 0):
        raise ConfigError("waveform times must be strictly increasing")
    mean_current = float(np.trapezoid(current, t) / (t[-1] - t[0]))
    return roughness_potential(corrugation, mean_current, species, guide_height)
