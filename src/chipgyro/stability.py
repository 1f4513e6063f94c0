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
from dataclasses import dataclass, replace

import numpy as np

from ._scipy import compiled_module
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
    """Smallest interrogation time 2T whose projection-noise Allan deviation
    at ``integration_time`` meets ``target_sigma``: Brent's method on the
    bracket INTERROGATION_BRACKET to a few ulp, then stepped up ulp by ulp
    until the returned 2T meets the target.

    Returns (min_2T, guide_radius), the radius from ``_round_trip_radius``.
    """
    if not (math.isfinite(target_sigma) and target_sigma > 0):
        raise ConfigError(f"target_sigma must be finite and > 0, got {target_sigma!r}")

    def sigma_at(two_t: float) -> float:
        config = replace(config_template, interrogation_time=two_t, launch_velocity=launch_velocity)
        sigma = projection_allan(config, integration_time)
        if math.isnan(sigma):  # Brent's method would take it for a number
            raise PhysicsError(f"projection Allan deviation is NaN at 2T = {two_t} s")
        return sigma

    lo, hi = INTERROGATION_BRACKET
    floor = sigma_at(hi)
    if floor > target_sigma:
        raise InfeasibleTargetError(
            f"target {target_sigma} rad/s unreachable within 2T <= {hi} s (floor {floor:.3e} rad/s)"
        )
    if sigma_at(lo) <= target_sigma:
        two_t = lo
    else:
        # brentq's arguments: maxiter 100, raise on non-convergence, and an
        # xtol of one ulp (it must be > 0), which leaves the stop to rtol
        brentq = compiled_module("scipy.optimize._zeros")._brentq
        two_t = brentq(
            lambda t: sigma_at(t) - target_sigma, lo, hi, math.ulp(lo), 1e-15, 100, (), False, True
        )
        while sigma_at(two_t) > target_sigma:
            two_t = math.nextafter(two_t, hi)
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
    """Minimum 2T and guide radius of :func:`required_interrogation_time` at
    each launch speed, in the order given; the target and integration time
    stay with the caller. A 2T that meets the target at one speed meets it at
    every faster one, rounding included, so each speed takes the shortest 2T
    solved at it or at a slower one, which Brent's last ulp may leave longer."""
    speeds = np.asarray(launch_velocities, dtype=float).tolist()
    two_ts = {
        v: required_interrogation_time(target_sigma, integration_time, v, config_template)[0] for v in speeds
    }
    shortest = math.inf
    for v in sorted(two_ts):
        shortest = two_ts[v] = min(two_ts[v], shortest)
    return FeasibilityBoundary(
        points=tuple((v, two_ts[v]) for v in speeds),
        radii=tuple(_round_trip_radius(v, two_ts[v]) for v in speeds),
    )
