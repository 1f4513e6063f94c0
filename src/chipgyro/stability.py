"""Long-term stability and mission feasibility.

Projection-noise Allan deviation, the Allan curve that carries it (and the
dead-time curve of ``noise.dick_sum_allan``), and the interrogation time
required to reach a stability target at a given launch speed.

Every result carries its assumption set (latitude projection, launch speed,
dead time, atom number, contrast, squeezing): none of these are stated
uniquely by the design case, so they must travel with the numbers.
"""

from __future__ import annotations

import math
import struct
from dataclasses import dataclass, replace

import numpy as np

from .errors import ConfigError, InfeasibleTargetError, PhysicsError
from .interferometer import InterferometerConfig, assumptions_record, shot_noise_sensitivity

INTERROGATION_BRACKET = (1e-2, 1e3)  # s, search bracket for the 2T solver


@dataclass(frozen=True)
class AllanCurve:
    points: tuple       # ((tau_I, sigma_Omega), ...)
    model_tag: str      # "projection" | "dick_sum"
    assumptions: dict

    def __post_init__(self):
        taus = [p[0] for p in self.points]
        if any(b <= a for a, b in zip(taus, taus[1:])):
            raise ConfigError("Allan curve integration times must be strictly increasing")
        for tau, sigma in self.points:
            if not (math.isfinite(sigma) and sigma > 0):
                raise PhysicsError(f"Allan deviation is {sigma} rad/s at tau_I = {tau} s")


@dataclass(frozen=True)
class FeasibilityBoundary:
    points: tuple        # ((v_launch, min_2T), ...) in the order the speeds were given
    radii: tuple         # (R, ...) in m, the guide radius of each point

    def __post_init__(self):
        # sorted by speed, a faster speed never needs a longer 2T (ties allowed)
        ordered = sorted(self.points)
        for (va, a), (vb, b) in zip(ordered, ordered[1:]):
            if vb > va and b > a:
                raise ConfigError("feasibility boundary must not increase in launch speed")


def projection_allan(config: InterferometerConfig, tau_integration: float) -> float:
    """Allan deviation of a projection-noise-limited sensor:
    sigma(tau_I) = dOmega_per_shot * sqrt(T_c / tau_I) with T_c the cycle time.

    Below one cycle this is the white-noise extrapolation, which quotes the
    1-s coefficient of a slow sensor. Raises ConfigError unless tau_I is
    finite and > 0.
    """
    if not (math.isfinite(tau_integration) and tau_integration > 0):
        raise ConfigError(f"integration time tau_I must be > 0, got {tau_integration!r}")
    return shot_noise_sensitivity(config) * math.sqrt(config.cycle_time / tau_integration)


def projection_allan_curve(config: InterferometerConfig, taus) -> AllanCurve:
    points = tuple((float(t), projection_allan(config, float(t))) for t in np.asarray(taus))
    return AllanCurve(points=points, model_tag="projection", assumptions=assumptions_record(config))


def required_interrogation_time(
    target_sigma: float,
    integration_time: float,
    launch_velocity: float,
    config_template: InterferometerConfig,
) -> tuple:
    """A crossing 2T in INTERROGATION_BRACKET, found by bisection over its
    floats: the projection-noise Allan deviation at ``integration_time``
    meets ``target_sigma`` at 2T and misses it at 2T's float predecessor.
    sigma(2T) is not monotone at the ulp level, so a 2T a few ulp lower may
    meet the target too. The bracket floor is returned when it meets it.

    Returns (min_2T, guide_radius), the radius from ``_round_trip_radius``.
    """
    if not (math.isfinite(target_sigma) and target_sigma > 0):
        raise ConfigError(f"target_sigma must be finite and > 0, got {target_sigma!r}")

    def sigma_at(two_t: float) -> float:
        config = replace(config_template, interrogation_time=two_t, launch_velocity=launch_velocity)
        sigma = projection_allan(config, integration_time)
        if math.isnan(sigma):  # the test would read it as "not met"
            raise PhysicsError(f"projection Allan deviation is NaN at 2T = {two_t} s")
        return sigma

    def as_float(bits: int) -> float:
        return struct.unpack("<d", struct.pack("<q", bits))[0]

    lo, hi = INTERROGATION_BRACKET
    floor = sigma_at(hi)
    if floor > target_sigma:
        raise InfeasibleTargetError(
            f"target {target_sigma} rad/s unreachable within 2T <= {hi} s (floor {floor:.3e} rad/s)"
        )
    two_t = lo
    if sigma_at(lo) > target_sigma:
        # both ends are > 0, so their int64 bit patterns order as the floats
        # do; keep the target missed at lo and met at hi until one ulp apart
        lo, hi = struct.unpack("<2q", struct.pack("<2d", lo, hi))
        while hi - lo > 1:
            mid = (lo + hi) // 2
            if sigma_at(as_float(mid)) <= target_sigma:
                hi = mid
            else:
                lo = mid
        two_t = as_float(hi)
    return two_t, _round_trip_radius(launch_velocity, two_t)


def _round_trip_radius(launch_velocity: float, two_t: float) -> float:
    """R = v_launch (2T) / (2 pi), the full-circumference round trip."""
    return launch_velocity * two_t / (2.0 * math.pi)


def feasibility_boundary(
    launch_velocities,
    target_sigma: float,
    integration_time: float,
    config_template: InterferometerConfig,
) -> FeasibilityBoundary:
    """2T and guide radius of :func:`required_interrogation_time` at each
    launch speed, in the order given. A faster speed never gets a longer 2T:
    sigma falls with the speed, rounding included, so at each midpoint of the
    bisection a faster speed meets the target whenever a slower one does."""
    speeds = np.asarray(launch_velocities, dtype=float).tolist()
    solved = [required_interrogation_time(target_sigma, integration_time, v, config_template) for v in speeds]
    return FeasibilityBoundary(
        points=tuple((v, two_t) for v, (two_t, _) in zip(speeds, solved)),
        radii=tuple(radius for _, radius in solved),
    )
