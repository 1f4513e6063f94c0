import itertools
import math
import re

import numpy as np
import pytest

import chipgyro.stability as stability
from chipgyro.constants import SECONDS_PER_YEAR, AtomSpecies, species_rb87
from chipgyro.errors import (
    ConfigError,
    DegenerateOrientationError,
    InfeasibleTargetError,
    PhysicsError,
)
from chipgyro.interferometer import (
    InterferometerConfig,
    rb87_config,
    scale_factor,
    shot_noise_sensitivity,
    transfer_H_abs2,
)
from chipgyro.noise import PowerSpectralDensity, dick_sum_allan, phase_variance
from chipgyro.stability import (
    INTERROGATION_BRACKET,
    AllanCurve,
    FeasibilityBoundary,
    feasibility_boundary,
    projection_allan,
    projection_allan_curve,
    required_interrogation_time,
)

RB = species_rb87()


def _flagship_config():
    """2T = 10 s, N = 1e5, launch at 2 v_r, unit projection, no dead time."""
    return rb87_config(
        pulse_duration=20e-6,
        interrogation_time=10.0,
        atom_number=1e5,
        launch_velocity=2.0 * RB.recoil_velocity,
    )


def test_projection_allan_coefficient():
    cfg = _flagship_config()
    coeff = projection_allan(cfg, 1.0)
    assert coeff == pytest.approx(1.17e-9, rel=1e-2, abs=0)
    assert 0.5 * 1.9e-9 <= coeff <= 2.0 * 1.9e-9


def test_projection_allan_12_months():
    cfg = _flagship_config()
    sigma = projection_allan(cfg, SECONDS_PER_YEAR)
    assert 0.5 * 3.5e-13 <= sigma <= 2.0 * 3.5e-13


def test_projection_allan_exact_white_noise_ratio():
    cfg = _flagship_config()
    ratio = projection_allan(cfg, 1.0) / projection_allan(cfg, SECONDS_PER_YEAR)
    assert abs(ratio / math.sqrt(SECONDS_PER_YEAR) - 1.0) < 1e-6


def test_projection_allan_needs_finite_positive_tau():
    """Below one cycle is the white-noise extrapolation; a tau_I that is not
    finite and > 0 is named, also through the 2T solver."""
    cfg = _flagship_config()
    assert projection_allan(cfg, 1.0) == shot_noise_sensitivity(cfg) * math.sqrt(10.0)
    for tau in (0.0, -1.0, math.nan, math.inf):
        with pytest.raises(ConfigError, match="integration time tau_I must be > 0"):
            projection_allan(cfg, tau)
    with pytest.raises(ConfigError, match="got 0.0"):
        required_interrogation_time(5.2e-14, 0.0, RB.recoil_velocity, cfg)


def test_projection_allan_curve_and_assumptions():
    cfg = _flagship_config()
    curve = projection_allan_curve(cfg, np.geomspace(10.0, 1e7, 13))
    sigmas = [s for _, s in curve.points]
    assert all(b < a for a, b in zip(sigmas, sigmas[1:]))
    assert curve.assumptions["atom_number"] == 1e5
    assert curve.assumptions["launch_velocity_over_vr"] == pytest.approx(2.0)


def test_dick_sum_white_noise_tau_scaling():
    cfg = _flagship_config()
    psd = PowerSpectralDensity(domain="rotation", random_walk=1e-18)
    r1 = dick_sum_allan(psd, cfg, tau_integration=100.0, m_max=20000)
    r2 = dick_sum_allan(psd, cfg, tau_integration=400.0, m_max=20000)
    assert r1.variance / r2.variance == pytest.approx(4.0, rel=1e-12, abs=0)


def test_dick_sum_truncation_stable():
    cfg = _flagship_config()
    psd = PowerSpectralDensity(domain="rotation", random_walk=1e-18)
    r4 = dick_sum_allan(psd, cfg, tau_integration=100.0, m_max=10_000)
    r5 = dick_sum_allan(psd, cfg, tau_integration=100.0, m_max=100_000)
    assert r5.variance == pytest.approx(r4.variance, rel=1e-3, abs=0)
    assert r5.converged
    assert r5.tail_bound < 1e-3 * r5.variance
    # the reported tail bound really bounds the observed remainder
    assert abs(r5.variance - r4.variance) <= r4.tail_bound * 1.5


def test_dick_sum_rejects_wrong_domain_and_args():
    cfg = _flagship_config()
    psd = PowerSpectralDensity(domain="rotation", random_walk=1e-18)
    with pytest.raises(ConfigError):
        dick_sum_allan(psd, cfg, 100.0, m_max=0)
    with pytest.raises(ConfigError):
        dick_sum_allan(psd, cfg, tau_integration=1.0)


def test_dick_sum_rejects_zero_latitude():
    cfg = rb87_config(pulse_duration=20e-6, interrogation_time=1.0, latitude=0.0)
    psd = PowerSpectralDensity(domain="rotation", white=1e-20)
    with pytest.raises(DegenerateOrientationError):
        dick_sum_allan(psd, cfg, 10.0, m_max=10)


def test_dick_sum_has_no_tail_when_the_band_sets_the_terms():
    """With f_max T_c = M + 0.7 the band's last harmonic is the M-th, and no
    harmonic lies in the sliver above (M + 1/2) / T_c: the variance is the
    harmonic sum alone, with no tail."""
    cfg = rb87_config(pulse_duration=20e-6, interrogation_time=1.0, cycle_dead_time=1.0)
    psd = PowerSpectralDensity(domain="phase", white=1e-8, flicker=1e-9)
    t_c, n_terms = cfg.cycle_time, 1000
    result = dick_sum_allan(psd, cfg, 100.0, f_max=(n_terms + 0.7) / t_c)
    f = np.arange(1, n_terms + 1) / t_c
    explicit = float(np.sum(psd.evaluate(f) * transfer_H_abs2(f, cfg))) / (100.0 * scale_factor(cfg) ** 2)
    assert (result.m_max, result.tail_bound, result.converged) == (n_terms, 0.0, True)
    assert result.variance == pytest.approx(explicit, rel=1e-14, abs=0)


def test_dick_sum_of_rotation_noise_is_the_same_for_every_loop_speed_and_latitude():
    """The rotation kernel carries the scale factor, which the Dick variance
    divides out: at one 2T, tau and dead time it does not depend on the loop
    count, the launch speed or the hemisphere."""
    psd = PowerSpectralDensity(domain="rotation", white=1e-18, random_walk=1e-20)
    variances = [
        dick_sum_allan(psd, rb87_config(
            pulse_duration=20e-6, interrogation_time=1.0, cycle_dead_time=1.0, n_loops=n,
            launch_velocity=v * RB.recoil_velocity, latitude=math.radians(latitude),
        ), 100.0).variance
        for n, v, latitude in itertools.product((1, 2, 3), (1.0, 2.0, 4.0), (90.0, 48.85, -48.85))
    ]
    assert variances == pytest.approx([variances[0]] * 27, rel=1e-12, abs=0)


@pytest.mark.parametrize("f_max", [math.nan, math.inf, 0.05])
def test_dick_sum_rejects_a_band_without_a_harmonic(f_max):
    """A band edge that is not finite, or below the first harmonic 1 / T_c
    (0.1 Hz here), is named."""
    psd = PowerSpectralDensity(domain="rotation", random_walk=1e-18)
    with pytest.raises(ConfigError, match="band upper edge must be finite and >= 1 / T_c = 0.1 Hz"):
        dick_sum_allan(psd, _flagship_config(), 100.0, f_max=f_max)


@pytest.mark.parametrize("dead_time", [1.0, 3.0])
@pytest.mark.parametrize("v_over_vr", [1.0, 4.0])
def test_dick_sum_white_phase_identity(dead_time, v_over_vr):
    """Oracle: with dead time a shot's window (2T) is shorter than the cycle,
    so by Poisson summation white phase noise sums to the per-shot variance
    over the same band averaged over tau_I / T_c shots,
    sigma^2 = sigma_phi^2 T_c / (tau_I SF^2). Without dead time the windows
    touch and the band's edge breaks the identity (0.995 at 2T = 1 s)."""
    cfg = rb87_config(
        pulse_duration=20e-6,
        interrogation_time=1.0,
        cycle_dead_time=dead_time,
        launch_velocity=v_over_vr * RB.recoil_velocity,
    )
    psd = PowerSpectralDensity(domain="phase", white=1e-8)
    sigma_phi2 = phase_variance(psd, cfg, rtol=1e-10).value
    exact = sigma_phi2 * cfg.cycle_time / 100.0 / scale_factor(cfg) ** 2
    assert dick_sum_allan(psd, cfg, 100.0).variance == pytest.approx(exact, rel=1e-6, abs=0)


def _n_shot_allan_variance(psd, cfg, n_shots, f_max):
    """Allan variance in rad^2 of averages of ``n_shots`` shots,
    int S |H|^2 2 sin^4(pi f N T_c) / (N^2 sin^2(pi f T_c)) df over the lobes
    m >= 1, [1 / (2 T_c), f_max]: 8-point Gauss-Legendre between the zeros
    j / N of sin(pi N f T_c), taken in blocks of 20 lobes."""
    t_c = cfg.cycle_time
    nodes, weights = np.polynomial.legendre.leggauss(8)
    nodes, weights = 0.5 * (nodes + 1.0), 0.5 * weights
    n_panels = round((f_max * t_c - 0.5) * n_shots)
    total = 0.0
    for start in range(0, n_panels, 20 * n_shots):
        j = np.arange(start, min(start + 20 * n_shots, n_panels))
        x = 0.5 + (j[:, None] + nodes) / n_shots  # f T_c
        u = x - np.round(x)  # the kernel has period 1 in x; u keeps its digits
        kernel = 2.0 * np.sin(math.pi * n_shots * u) ** 4 / (n_shots * np.sin(math.pi * u)) ** 2
        f = x / t_c
        total += float(np.sum(psd.evaluate(f) * transfer_H_abs2(f, cfg) * kernel * weights))
    return total / (n_shots * t_c)


@pytest.mark.parametrize("dead_time", [0.0, 1.0])
@pytest.mark.parametrize("model", [{"white": 1e-8}, {"flicker": 1e-8}], ids=["white", "flicker"])
def test_dick_sum_is_the_limit_of_n_shot_allan_variance(dead_time, model):
    """Oracle: the Allan variance of N-shot averages tends to the harmonic sum
    at tau_I = N T_c, with a gap that falls as 1 / N."""
    cfg = rb87_config(pulse_duration=50e-3, interrogation_time=1.0, cycle_dead_time=dead_time)
    psd = PowerSpectralDensity(domain="phase", **model)
    gaps = []
    for n_shots in (100, 1000):
        exact = _n_shot_allan_variance(psd, cfg, n_shots, 10.0 / cfg.pulse_duration) / scale_factor(cfg) ** 2
        gaps.append(abs(dick_sum_allan(psd, cfg, n_shots * cfg.cycle_time).variance / exact - 1.0))
    assert gaps[1] <= 2e-3
    assert gaps[0] >= 5.0 * gaps[1]


@pytest.mark.parametrize("sigma", [math.nan, math.inf, 0.0, -1.0])
def test_allan_curve_names_a_deviation_that_is_not_finite_and_positive(sigma):
    with pytest.raises(PhysicsError, match=r"at tau_I = 2.0 s$"):
        AllanCurve(points=((1.0, 1.0), (2.0, sigma), (3.0, math.nan)), model_tag="dick_sum", assumptions={})


def test_required_interrogation_time_flagship():
    tpl = rb87_config(pulse_duration=20e-6, interrogation_time=4.0, atom_number=1e5)
    target = 5.2e-14
    two_t, radius = required_interrogation_time(
        target, SECONDS_PER_YEAR, 4.0 * RB.recoil_velocity, tpl
    )
    assert 4.5 <= two_t <= 18.0
    assert 18e-3 <= radius <= 74e-3
    # self-consistency of the bisection: the returned 2T meets the target and
    # a slightly shorter one does not
    from dataclasses import replace

    def sigma(tt):
        cfg = replace(tpl, interrogation_time=tt, launch_velocity=4.0 * RB.recoil_velocity)
        return projection_allan(cfg, SECONDS_PER_YEAR)

    assert sigma(two_t) <= target
    assert sigma(0.99 * two_t) > target


def test_required_interrogation_time_closed_form():
    """With zero dead time sigma(2T) = C (2T)^-3/2, so 2T = (C / target)^(2/3)."""
    from dataclasses import replace

    tpl = rb87_config(pulse_duration=20e-6, interrogation_time=4.0, atom_number=1e5)
    target = 5.2e-14
    for ratio in (1.0, 2.0, 4.0, 16.0):
        v = ratio * RB.recoil_velocity
        unit = replace(tpl, interrogation_time=1.0, launch_velocity=v)
        c = projection_allan(unit, SECONDS_PER_YEAR)
        two_t, radius = required_interrogation_time(target, SECONDS_PER_YEAR, v, tpl)
        assert two_t == pytest.approx((c / target) ** (2.0 / 3.0), rel=1e-12, abs=0)
        assert radius == pytest.approx(v * two_t / (2 * math.pi), rel=1e-15, abs=0)


def test_required_interrogation_time_infeasible():
    tpl = rb87_config(pulse_duration=20e-6, interrogation_time=4.0, atom_number=1e5)
    with pytest.raises(InfeasibleTargetError) as excinfo:
        required_interrogation_time(1e-20, SECONDS_PER_YEAR, RB.recoil_velocity, tpl)
    floor = float(re.search(r"\(floor (\S+) rad/s\)$", str(excinfo.value)).group(1))
    assert floor > 1e-20


def test_feasibility_boundary_monotone():
    tpl = rb87_config(pulse_duration=20e-6, interrogation_time=4.0, atom_number=1e5)
    speeds = np.array([2.0, 4.0, 8.0, 16.0]) * RB.recoil_velocity
    boundary = feasibility_boundary(speeds, 5.2e-14, SECONDS_PER_YEAR, tpl)
    twots = [tt for _, tt in boundary.points]
    assert all(b < a for a, b in zip(twots, twots[1:]))
    # sigma ~ sqrt(2T) / (v (2T)^2) = 1 / (v (2T)^1.5), so doubling the launch
    # speed divides the required 2T by 2^(2/3)
    assert twots[0] / twots[1] == pytest.approx(2 ** (2.0 / 3.0), rel=0.02, abs=0)


@pytest.mark.parametrize(
    "ratios, target, at_floor",
    [
        ([1.0, 2.0, 4.0], 1e-6, True),  # every speed meets the target at the bracket floor
        ([4.0, 2.0, 1.0], 5.2e-14, False),  # speeds not given in increasing order
    ],
    ids=["floor-ties", "reversed"],
)
def test_feasibility_boundary_valid_inputs(ratios, target, at_floor):
    tpl = rb87_config(pulse_duration=20e-6, interrogation_time=4.0, atom_number=1e5)
    speeds = [ratio * RB.recoil_velocity for ratio in ratios]
    boundary = feasibility_boundary(speeds, target, SECONDS_PER_YEAR, tpl)
    assert [v for v, _ in boundary.points] == speeds
    for (v, two_t), radius in zip(boundary.points, boundary.radii):
        assert (two_t, radius) == required_interrogation_time(target, SECONDS_PER_YEAR, v, tpl)
        assert (two_t == INTERROGATION_BRACKET[0]) == at_floor


def test_feasibility_boundary_never_rises_between_neighbouring_speeds():
    """Two speeds an ulp apart, each solved alone and in a boundary: the
    faster one gets no longer a 2T than the slower, and that 2T meets its own
    target."""
    from dataclasses import replace

    tpl = rb87_config(pulse_duration=20e-6, interrogation_time=4.0, latitude=math.radians(48.85))
    fast, slow = (ratio * RB.recoil_velocity for ratio in (15.191326049419917, 15.191326049419915))
    assert fast == math.nextafter(slow, math.inf)
    boundary = feasibility_boundary([fast, slow], 5.2e-14, SECONDS_PER_YEAR, tpl)
    (_, fast_2t), (_, slow_2t) = boundary.points
    assert fast_2t <= slow_2t
    assert fast_2t <= required_interrogation_time(5.2e-14, SECONDS_PER_YEAR, fast, tpl)[0]
    cfg = replace(tpl, interrogation_time=fast_2t, launch_velocity=fast)
    assert projection_allan(cfg, SECONDS_PER_YEAR) <= 5.2e-14
    assert boundary.radii[0] == fast * fast_2t / (2 * math.pi)


def test_required_interrogation_time_returns_a_crossing():
    """On 300 seeded cases (latitude 10-90 deg, N 3e3-3e5, target
    5.2e-14 * 10^(+-0.5), v 1-16 v_r, tau_I one day), every feasible 2T meets
    the target and its float predecessor does not, unless 2T is the bracket
    floor; an infeasible target misses it at the bracket top."""
    from dataclasses import replace

    rng = np.random.default_rng(2026)
    lo, hi = INTERROGATION_BRACKET
    feasible = 0
    for _ in range(300):
        tpl = rb87_config(
            pulse_duration=20e-6,
            interrogation_time=4.0,
            atom_number=10 ** rng.uniform(math.log10(3e3), math.log10(3e5)),
            latitude=math.radians(rng.uniform(10.0, 90.0)),
        )
        target = 5.2e-14 * 10 ** rng.uniform(-0.5, 0.5)
        v = rng.uniform(1.0, 16.0) * RB.recoil_velocity

        def sigma(two_t):
            return projection_allan(replace(tpl, interrogation_time=two_t, launch_velocity=v), 86400.0)

        try:
            two_t, _ = required_interrogation_time(target, 86400.0, v, tpl)
        except InfeasibleTargetError:
            assert sigma(hi) > target
            continue
        feasible += 1
        assert lo <= two_t <= hi
        assert sigma(two_t) <= target
        assert two_t == lo or sigma(math.nextafter(two_t, 0.0)) > target
    assert feasible > 250


def test_required_interrogation_time_never_rises_with_speed():
    """Each solve alone, on 200 seeded sorted speeds and their float
    successors, gives a faster speed no longer a 2T than a slower one."""
    tpl = rb87_config(pulse_duration=20e-6, interrogation_time=4.0, latitude=math.radians(48.85))
    rng = np.random.default_rng(7)
    speeds = rng.uniform(1.0, 16.0, 200) * RB.recoil_velocity
    speeds = sorted({*speeds.tolist(), *(math.nextafter(v, math.inf) for v in speeds.tolist())})
    two_ts = [required_interrogation_time(5.2e-14, SECONDS_PER_YEAR, v, tpl)[0] for v in speeds]
    assert all(b <= a for a, b in zip(two_ts, two_ts[1:]))


@pytest.mark.parametrize("target", [math.nan, math.inf, -math.inf], ids=["nan", "inf", "-inf"])
def test_non_finite_target_sigma_rejected(target):
    """A non-finite target is named, not handed to the bisection's test."""
    tpl = rb87_config(pulse_duration=20e-6, interrogation_time=4.0, atom_number=1e5)
    with pytest.raises(ConfigError, match="^target_sigma must be finite"):
        required_interrogation_time(target, SECONDS_PER_YEAR, RB.recoil_velocity, tpl)


def test_nan_allan_deviation_in_mission_raises(monkeypatch):
    """The bisection's test reads a NaN deviation as "target not met"; the
    solver raises a physics error naming the 2T where the deviation is NaN
    instead of returning a 2T."""
    lo, hi = INTERROGATION_BRACKET
    original = stability.projection_allan

    def nan_inside(config, *args, **kwargs):
        if lo < config.interrogation_time < hi:
            return math.nan
        return original(config, *args, **kwargs)

    monkeypatch.setattr(stability, "projection_allan", nan_inside)
    tpl = rb87_config(pulse_duration=20e-6, interrogation_time=4.0, atom_number=1e5)
    with pytest.raises(PhysicsError, match=r"NaN at 2T = \S+ s"):
        required_interrogation_time(5.2e-14, SECONDS_PER_YEAR, 4.0 * RB.recoil_velocity, tpl)


def test_finite_inputs_reach_the_nan_guard():
    """Finite inputs can still give a NaN deviation: M/hbar overflows, so the
    per-shot figure is 0, and a subnormal tau_I makes sqrt(T_c / tau_I) inf.
    The solver names the NaN instead of reading it as "target not met"."""
    heavy = AtomSpecies("heavy", 1e300, 1e-300, 9.27e-24)
    tpl = InterferometerConfig(heavy, pulse_duration=20e-6, interrogation_time=1.0)
    assert math.isnan(projection_allan(tpl, 5e-324))
    with pytest.raises(PhysicsError, match=r"NaN at 2T = \S+ s"):
        required_interrogation_time(1e-9, 5e-324, tpl.launch_velocity, tpl)


@pytest.mark.parametrize(
    "points",
    [
        ((1.0, 1.0), (2.0, 2.0)),
        ((2.0, 2.0), (1.0, 1.0)),
        ((1.0, INTERROGATION_BRACKET[0]), (2.0, 1.0)),
    ],
    ids=["rising", "rising-unsorted", "rising-from-floor"],
)
def test_feasibility_boundary_rejects_non_decreasing_2t(points):
    with pytest.raises(ConfigError):
        FeasibilityBoundary(points=points, radii=(0.1, 0.2))
