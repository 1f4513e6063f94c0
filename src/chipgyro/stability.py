"""Long-term stability and mission feasibility.

Projection-noise Allan deviation, the aliasing harmonic-sum Allan variance of
a pulsed sensor sampling an external rotation-noise PSD, and the
interrogation time required to reach a stability target at a given launch
speed.

Every result carries its assumption set (latitude projection, launch speed,
dead time, atom number, contrast, squeezing): none of these are stated
uniquely by the design case, so they must travel with the numbers.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import TYPE_CHECKING

import numpy as np

from .constants import HBAR
from ._scipy import compiled_module
from .errors import ConfigError, InfeasibleTargetError, PhysicsError
from .interferometer import (
    InterferometerConfig,
    assumptions_record,
    scale_factor,
    shot_noise_sensitivity,
    transfer_H_abs2,
)

if TYPE_CHECKING:
    from .noise import PowerSpectralDensity

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


@dataclass(frozen=True)
class FeasibilityBoundary:
    points: tuple        # ((v_launch, min_2T), ...) in the order the speeds were given
    radii: tuple         # (R, ...) in m, the guide radius of each point

    def __post_init__(self):
        # sorted by speed, a faster speed needs a strictly shorter 2T; speeds that
        # meet the target at the bracket floor tie there; equal speeds are skipped
        floor = INTERROGATION_BRACKET[0]
        ordered = sorted(self.points)
        for (va, a), (vb, b) in zip(ordered, ordered[1:]):
            if vb > va and not (b < a or b == a == floor):
                raise ConfigError("feasibility boundary must be strictly decreasing in launch speed")


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


@dataclass(frozen=True)
class DickSumResult:
    sigma: float        # rad/s
    variance: float     # (rad/s)^2
    m_max: int
    tail_bound: float   # (rad/s)^2, bound on the truncated remainder
    converged: bool
    assumptions: dict


def dick_sum_allan(
    psd_rotation: PowerSpectralDensity,
    config: InterferometerConfig,
    tau_integration: float,
    m_max: int = 100_000,
) -> DickSumResult:
    """Aliasing harmonic-sum Allan variance of the pulsed sensor:

        sigma^2(tau_I) = [ (pi/4)(hbar/M) / (v_r^2 (2T)^2 sin(lat)) ]^2
                         * (4 pi / tau_I)
                         * sum_m (2 k_eff R)^2 / (2 pi m / (2T))^2
                                 * |H(m/T)|^2 * S_Omega(m/T)

    evaluated at the harmonics of 1/T (T = half the interrogation time),
    truncated at ``m_max`` with a 1/m^2-decay tail bound. The m = 0 term is a
    removable 0 * inf limit (|H(0)|^2 = 0 against the diverging weight) and is
    excluded.
    """
    if psd_rotation.domain != "rotation":
        raise ConfigError(f"dick_sum_allan needs a rotation PSD, got {psd_rotation.domain!r}")
    if m_max < 1:
        raise ConfigError(f"m_max must be >= 1, got {m_max}")
    if tau_integration < config.cycle_time:
        raise ConfigError(
            f"integration time {tau_integration} s is below one cycle ({config.cycle_time} s)"
        )

    scale_factor(config)  # raises DegenerateOrientationError at sin(latitude) = 0
    species = config.species
    two_t = config.interrogation_time
    sin_lat = math.sin(config.latitude)
    prefactor = (
        (math.pi / 4.0)
        * (HBAR / species.mass)
        / (species.recoil_velocity ** 2 * two_t ** 2 * sin_lat)
    ) ** 2

    m = np.arange(1, m_max + 1, dtype=float)
    f_m = m / config.half_time
    weight = (2.0 * config.k_eff * config.guide_radius) ** 2 / (2.0 * np.pi * m / two_t) ** 2
    terms = weight * transfer_H_abs2(f_m, config) * psd_rotation.evaluate(f_m)

    partial = np.cumsum(terms)
    total = float(partial[-1])

    # the weight decays as 1/m^2, so sum_{m>M} t_m <~ max(t_m m^2) / M
    decade_start = max(m_max // 10, 1)
    c_est = float(np.max(terms[decade_start - 1 :] * m[decade_start - 1 :] ** 2))
    tail = c_est / m_max
    converged = bool(
        total > 0 and abs(total - partial[decade_start - 1]) < 1e-4 * abs(total)
    ) or total == 0.0

    variance = prefactor * (4.0 * math.pi / tau_integration) * total
    tail_bound = prefactor * (4.0 * math.pi / tau_integration) * tail
    return DickSumResult(
        sigma=math.sqrt(variance),
        variance=variance,
        m_max=m_max,
        tail_bound=tail_bound,
        converged=converged,
        assumptions=assumptions_record(config),
    )


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

    Returns (min_2T, guide_radius) with the radius from the full-circumference
    round-trip relation R = v_launch (2T) / (2 pi).
    """
    if not (math.isfinite(target_sigma) and target_sigma > 0):
        raise ConfigError(f"target_sigma must be finite and > 0, got {target_sigma!r}")

    def sigma_at(two_t: float) -> float:
        config = replace(
            config_template, interrogation_time=two_t, guide_radius=None, launch_velocity=launch_velocity
        )
        sigma = projection_allan(config, integration_time)
        if math.isnan(sigma):  # Brent's method would take it for a number
            raise PhysicsError(f"projection Allan deviation is NaN at 2T = {two_t} s")
        return sigma

    lo, hi = INTERROGATION_BRACKET
    if sigma_at(hi) > target_sigma:
        raise InfeasibleTargetError(
            f"target {target_sigma} rad/s unreachable within 2T <= {hi} s "
            f"(floor {sigma_at(hi):.3e} rad/s)",
            achieved_floor=sigma_at(hi),
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
    return two_t, launch_velocity * two_t / (2.0 * math.pi)


def feasibility_boundary(
    launch_velocities,
    target_sigma: float,
    integration_time: float,
    config_template: InterferometerConfig,
) -> FeasibilityBoundary:
    """Minimum 2T and guide radius of :func:`required_interrogation_time` at
    each launch speed, kept in the order given. The boundary holds only those;
    the target and integration time stay with the caller."""
    speeds = np.asarray(launch_velocities, dtype=float).tolist()
    solved = [
        required_interrogation_time(target_sigma, integration_time, v, config_template)
        for v in speeds
    ]
    return FeasibilityBoundary(
        points=tuple((v, two_t) for v, (two_t, _) in zip(speeds, solved)),
        radii=tuple(radius for _, radius in solved),
    )
