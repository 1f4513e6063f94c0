"""Static magnetic field of circular filamentary current loops.

Geometry convention: loops are concentric about the z axis; the chip surface
is z = 0 and the loop plane sits at ``height``. Azimuthal symmetry makes the
problem two-dimensional in (rho, z); the azimuthal field component is
identically zero.

The closed form uses the complete elliptic integrals K(m) and E(m) of
``scipy.special``. A straight-segment Biot-Savart sum (``loop_field_oracle``)
provides an independent slow route for validation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .constants import MU_0
from .errors import ConfigError, SingularPointError

FILAMENT_EXCLUSION = 1e-12  # m, minimum allowed distance to a wire filament


@dataclass(frozen=True)
class WireLoop:
    """Circular filamentary wire: positive current is counterclockwise seen
    from +z."""

    radius: float   # m
    current: float  # A, signed
    height: float   # m, z of the loop plane

    def __post_init__(self):
        if not (math.isfinite(self.radius) and self.radius > 0):
            raise ConfigError(f"loop radius must be > 0, got {self.radius!r}")
        if not math.isfinite(self.current):
            raise ConfigError(f"loop current must be finite, got {self.current!r}")
        if not math.isfinite(self.height):
            raise ConfigError(f"loop height must be finite, got {self.height!r}")


@dataclass(frozen=True)
class GuideGeometry:
    """Ordered set of coplanar concentric loops forming the guide."""

    loops: tuple
    label: str = ""

    def __post_init__(self):
        loops = tuple(self.loops)
        object.__setattr__(self, "loops", loops)
        if not loops:
            raise ConfigError("GuideGeometry needs at least one loop")
        heights = {loop.height for loop in loops}
        if len(heights) != 1:
            raise ConfigError("all guide loops must share the same height (coplanar chip wires)")
        radii = [loop.radius for loop in loops]
        if any(b <= a for a, b in zip(radii, radii[1:])):
            raise ConfigError("loop radii must be strictly increasing")

    def scaled(self, factor: float) -> "GuideGeometry":
        """Same geometry with every current multiplied by ``factor``."""
        return GuideGeometry(
            loops=tuple(
                WireLoop(loop.radius, loop.current * factor, loop.height) for loop in self.loops
            ),
            label=self.label,
        )


@dataclass(frozen=True)
class FieldVector:
    """Field components at an evaluation point; B_phi vanishes by symmetry."""

    B_rho: float  # T
    B_z: float    # T
    evaluated_at: tuple  # (rho, z) in m

    @property
    def modulus(self) -> float:
        return math.hypot(self.B_rho, self.B_z)


def _loop_field_arrays(loop: WireLoop, rho, z):
    """Vectorized closed-form loop field; returns (B_rho, B_z) arrays."""
    from scipy.special import ellipe, ellipk

    rho = np.asarray(rho, dtype=float)
    zp = np.asarray(z, dtype=float) - loop.height
    a = loop.radius

    dist2 = (rho - a) ** 2 + zp ** 2
    if np.any(dist2 <= FILAMENT_EXCLUSION ** 2):
        raise SingularPointError(
            f"field evaluation on the filament of loop radius {a} (distance <= {FILAMENT_EXCLUSION} m)"
        )

    denom_plus = (a + rho) ** 2 + zp ** 2
    m = 4.0 * a * rho / denom_plus
    K, E = ellipk(m), ellipe(m)

    pref = MU_0 * loop.current / (2.0 * np.pi)
    root = np.sqrt(denom_plus)
    Bz = pref / root * (K + (a * a - rho * rho - zp * zp) / dist2 * E)
    with np.errstate(divide="ignore", invalid="ignore"):
        Brho = pref * zp / (rho * root) * (-K + (a * a + rho * rho + zp * zp) / dist2 * E)
    Brho = np.where(rho == 0.0, 0.0, Brho)
    return Brho, Bz


def loop_field(loop: WireLoop, rho: float, z: float) -> FieldVector:
    """Closed-form field of a single circular loop at (rho, z)."""
    Brho, Bz = _loop_field_arrays(loop, rho, z)
    return FieldVector(B_rho=float(Brho), B_z=float(Bz), evaluated_at=(float(rho), float(z)))


def loop_field_oracle(loop: WireLoop, rho: float, z: float, n_segments: int) -> FieldVector:
    """Biot-Savart sum over ``n_segments`` straight segments approximating the
    loop. Converges to :func:`loop_field` with error O(1/n^2)."""
    if n_segments < 8:
        raise ConfigError(f"n_segments must be >= 8, got {n_segments}")
    if (rho - loop.radius) ** 2 + (z - loop.height) ** 2 <= FILAMENT_EXCLUSION ** 2:
        raise SingularPointError("oracle evaluation on the filament")

    a = loop.radius
    theta = np.linspace(0.0, 2.0 * np.pi, n_segments + 1)
    nodes = np.stack([a * np.cos(theta), a * np.sin(theta), np.full_like(theta, loop.height)], axis=1)
    dl = nodes[1:] - nodes[:-1]
    mid = 0.5 * (nodes[1:] + nodes[:-1])

    point = np.array([rho, 0.0, z])
    r = point[None, :] - mid
    rnorm = np.linalg.norm(r, axis=1)
    dB = np.cross(dl, r) / rnorm[:, None] ** 3
    B = MU_0 * loop.current / (4.0 * np.pi) * dB.sum(axis=0)
    # at y = 0 the x component is the radial one; By ~ 0 by symmetry
    return FieldVector(B_rho=float(B[0]), B_z=float(B[2]), evaluated_at=(float(rho), float(z)))


def total_field(geometry: GuideGeometry, rho: float, z: float) -> FieldVector:
    """Superposition of all loop fields of the geometry at (rho, z)."""
    Brho, Bz = total_field_arrays(geometry, rho, z)
    return FieldVector(B_rho=float(Brho), B_z=float(Bz), evaluated_at=(float(rho), float(z)))


def total_field_arrays(geometry: GuideGeometry, rho, z):
    """Vectorized superposition over point grids; returns (B_rho, B_z)."""
    rho = np.asarray(rho, dtype=float)
    z = np.asarray(z, dtype=float)
    Brho = np.zeros(np.broadcast(rho, z).shape)
    Bz = np.zeros_like(Brho)
    for i, loop in enumerate(geometry.loops):
        try:
            br, bz = _loop_field_arrays(loop, rho, z)
        except SingularPointError as exc:
            raise SingularPointError(f"loop index {i}: {exc}") from None
        Brho = Brho + br
        Bz = Bz + bz
    return Brho, Bz


def field_modulus(geometry: GuideGeometry, rho, z, offset_B0: float = 0.0):
    """|B| over point grids, with an optional longitudinal offset field added
    in quadrature."""
    Brho, Bz = total_field_arrays(geometry, rho, z)
    return np.sqrt(Brho * Brho + Bz * Bz + offset_B0 * offset_B0)


def design_guide_geometry() -> GuideGeometry:
    """Three-wire circular guide of the design case: central wire R = 500 um
    carrying +121 mA, outer wires at 487/513 um carrying -123 mA each."""
    return GuideGeometry(
        loops=(
            WireLoop(radius=487e-6, current=-123e-3, height=0.0),
            WireLoop(radius=500e-6, current=121e-3, height=0.0),
            WireLoop(radius=513e-6, current=-123e-3, height=0.0),
        ),
        label="three-wire-500um",
    )


def geometry_from_records(records: Sequence[dict], label: str = "") -> GuideGeometry:
    """Build a geometry from [{radius_m, current_A, height_m}, ...] records
    (the CLI config representation)."""
    loops = []
    for i, rec in enumerate(records):
        if not isinstance(rec, dict):
            raise ConfigError(f"geometry.loops[{i}] must be a mapping, got {rec!r}")
        unknown = sorted(str(key) for key in rec if key not in ("radius_m", "current_A", "height_m"))
        if unknown:
            raise ConfigError(f"geometry.loops[{i}]: unknown field(s) {unknown}")
        try:
            loops.append(
                WireLoop(
                    radius=float(rec["radius_m"]),
                    current=float(rec["current_A"]),
                    height=float(rec.get("height_m", 0.0)),
                )
            )
        except KeyError as exc:
            raise ConfigError(f"geometry.loops[{i}]: missing field {exc}") from None
        except (TypeError, ValueError):
            raise ConfigError(f"geometry.loops[{i}]: fields must be numbers, got {rec!r}") from None
    return GuideGeometry(loops=tuple(loops), label=label)
