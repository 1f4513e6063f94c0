import math
import warnings

import numpy as np
import pytest
import scipy.integrate
from scipy.special import sici

from chipgyro.errors import ConfigError, DivergentIntegralError
from chipgyro.interferometer import rb87_config, scale_factor, transfer_H_abs2
from chipgyro.noise import (
    DEFAULT_F_MIN,
    PowerSpectralDensity,
    convert_psd,
    phase_kernel,
    phase_sigma_to_rotation_sigma,
    phase_variance,
)


def _small_config(**kwargs):
    kwargs.setdefault("pulse_duration", 0.01)
    kwargs.setdefault("interrogation_time", 1.0)
    return rb87_config(**kwargs)


def test_zero_psd_gives_zero_variance():
    cfg = _small_config()
    psd = PowerSpectralDensity(domain="phase")
    result = phase_variance(psd, cfg)
    assert result.value == 0.0
    assert result.sigma == 0.0


def test_parseval_white_phase_noise():
    """For white phase noise S0, the variance is S0 * int |H|^2 df, and
    Parseval fixes int_0^inf |H|^2 df = int h^2 dt / 2 = 1/tau exactly."""
    cfg = _small_config()
    s0 = 1e-8
    psd = PowerSpectralDensity(domain="phase", white=s0)
    f_max = 200.0 / cfg.pulse_duration  # leaves a ~0.1% spectral tail
    result = phase_variance(psd, cfg, f_min=1e-5, f_max=f_max)
    expected = s0 / cfg.pulse_duration
    assert result.value == pytest.approx(expected, rel=1e-2)
    assert result.error_estimate < 1e-6 * result.value


def test_quadrature_against_trapezoid_oracle():
    """Brute-force uniform trapezoid on a truncated band, resolving every
    oscillation, vs the panel quadrature."""
    cfg = _small_config()
    psd = PowerSpectralDensity(domain="phase", white=2e-9, flicker=3e-10, random_walk=5e-12)
    f_min, f_max = 1e-4, 50.0
    f = np.linspace(f_min, f_max, 2_000_001)
    integrand = psd.evaluate(f) * transfer_H_abs2(f, cfg)
    oracle = np.trapezoid(integrand, f)
    result = phase_variance(psd, cfg, f_min=f_min, f_max=f_max)
    assert result.value == pytest.approx(oracle, rel=1e-3)


def test_acceleration_kernel_against_direct_quadrature():
    cfg = _small_config()
    psd = PowerSpectralDensity(domain="acceleration", white=1e-12)
    f_min, f_max = 0.05, 20.0
    f = np.linspace(f_min, f_max, 2_000_001)
    kernel = cfg.k_eff ** 2 / (2 * np.pi * f) ** 4
    oracle = np.trapezoid(psd.evaluate(f) * kernel * transfer_H_abs2(f, cfg), f)
    result = phase_variance(psd, cfg, f_min=f_min, f_max=f_max)
    assert result.value == pytest.approx(oracle, rel=1e-3)
    assert "cutoff" in result.notes


def test_rotation_kernel_against_direct_quadrature():
    cfg = _small_config()
    psd = PowerSpectralDensity(domain="rotation", white=1e-14)
    f_min, f_max = 0.05, 20.0
    f = np.linspace(f_min, f_max, 2_000_001)
    kernel = (2 * cfg.k_eff * cfg.guide_radius) ** 2 / (2 * np.pi * f) ** 2
    oracle = np.trapezoid(psd.evaluate(f) * kernel * transfer_H_abs2(f, cfg), f)
    result = phase_variance(psd, cfg, f_min=f_min, f_max=f_max)
    assert result.value == pytest.approx(oracle, rel=1e-3)


def test_tabulated_round_trip_exact():
    """phase -> acceleration -> rotation -> phase on the tabulated grid is an
    identity to better than 1e-9 relative."""
    cfg = _small_config()
    f = np.geomspace(1e-3, 1e3, 301)
    values = 1e-8 * (1.0 + np.sin(np.log(f)) ** 2)
    psd = PowerSpectralDensity(domain="phase", frequencies=f, values=values)
    acc = convert_psd(psd, "acceleration", cfg.k_eff, cfg.guide_radius)
    rot = convert_psd(acc, "rotation", cfg.k_eff, cfg.guide_radius)
    back = convert_psd(rot, "phase", cfg.k_eff, cfg.guide_radius)
    assert np.max(np.abs(back.values - values) / values) < 1e-9


def test_variance_invariant_under_domain_conversion():
    """White acceleration noise converts to an exact 1/f^4 phase PSD (log-log
    interpolation is exact on power laws), so the two variance routes agree."""
    cfg = _small_config()
    acc = PowerSpectralDensity(domain="acceleration", white=1e-12)
    f_min, f_max = 0.05, 20.0
    grid = np.geomspace(f_min / 2, f_max * 2, 101)
    as_phase = convert_psd(acc, "phase", cfg.k_eff, cfg.guide_radius, grid=grid)
    v1 = phase_variance(acc, cfg, f_min=f_min, f_max=f_max).value
    v2 = phase_variance(as_phase, cfg, f_min=f_min, f_max=f_max).value
    assert v2 == pytest.approx(v1, rel=1e-3)


def test_interpolation_reproduces_grid_points():
    f = np.geomspace(1e-2, 1e2, 41)
    values = 1e-9 * f ** -1.3
    psd = PowerSpectralDensity(domain="phase", frequencies=f, values=values)
    assert np.allclose(psd.evaluate(f), values, rtol=1e-12)
    # and log-log interpolation is exact on the power law in between
    mid = np.sqrt(f[:-1] * f[1:])
    assert np.allclose(psd.evaluate(mid), 1e-9 * mid ** -1.3, rtol=1e-10)


def test_scalar_route_matches_array_route():
    """A float argument takes bisect + math, an array searchsorted + numpy;
    both read the same log tables."""
    f = np.geomspace(1e-2, 1e2, 41)
    values = 1e-9 * f ** -1.3 * np.exp(0.3 * np.random.default_rng(3).standard_normal(41))
    values[10:13] = 0.0  # zero-valued segments, and half-zero ones next to them
    psd = PowerSpectralDensity(domain="rotation", frequencies=f, values=values)
    points = np.concatenate(
        [
            f,                                       # on the knots
            np.sqrt(f[:-1] * f[1:]),                 # between knots
            np.geomspace(f[9], f[13], 101),          # across the zero segments
            [1e-5, 1e-3, 9.9e-3, 101.0, 1e3, 1e5],   # out of range
        ]
    )
    array = psd.evaluate(points)
    scalar = np.array([psd.evaluate(float(x)) for x in points])
    assert np.all(scalar[(points > f[10]) & (points < f[12])] == 0.0)
    np.testing.assert_allclose(scalar, array, rtol=1e-15, atol=0)
    with pytest.raises(ConfigError):
        psd.evaluate(-1.0)
    # a steep end segment extrapolates past the float range on both routes
    steep = PowerSpectralDensity(
        domain="rotation", frequencies=np.array([1.0, 2.0]), values=np.array([1.0, 1e300])
    )
    with np.errstate(over="ignore"):
        assert steep.evaluate(np.array([8.0]))[0] == steep.evaluate(8.0) == math.inf


def test_float_routes_match_array_routes():
    """QUADPACK's one-float-at-a-time calls take float routes through |H|^2,
    K and S; on 1e5 log-spaced points of the default band and on the zeros
    n/tau and m/D of H they agree with the array routes within a few ulp and
    return builtin floats, not numpy scalars."""
    cfg = rb87_config(pulse_duration=20e-6, interrogation_time=1.0)
    tau = cfg.pulse_duration
    d = cfg.interrogation_time - tau
    f = np.concatenate(
        [
            np.geomspace(DEFAULT_F_MIN, 10.0 / tau, 100_000),
            np.arange(1, 11) / tau,
            np.arange(1, 10_001) / d,
        ]
    )
    knots = np.geomspace(1e-5, 1e6, 221)
    table = 1e-20 * (1.0 + 1.0 / knots) * np.exp(0.3 * np.random.default_rng(9).standard_normal(221))
    table[100:103] = 0.0  # zero-valued segments, and half-zero ones next to them
    tabulated = PowerSpectralDensity(domain="rotation", frequencies=knots, values=table)
    analytic = PowerSpectralDensity(domain="acceleration", white=1e-12, flicker=3e-13, random_walk=2e-14)
    routes = {
        "transfer_H_abs2": lambda x: transfer_H_abs2(x, cfg),
        "analytic": analytic.evaluate,
        "tabulated": tabulated.evaluate,
    }
    for domain in ("phase", "acceleration", "rotation"):
        routes[domain] = lambda x, domain=domain: phase_kernel(domain, x, cfg.k_eff, cfg.guide_radius)
    for name, route in routes.items():
        array = route(f)
        scalar = [route(x) for x in f.tolist()]
        assert all(type(value) is float for value in scalar), name
        scalar = np.array(scalar)
        bound = np.full(f.shape, 4e-16)
        if name == "tabulated":
            # the log-log route exponentiates log S, whose last bit can differ
            # where math.log and numpy's log do; one ulp of log S is up to
            # 2.2e-16 |log S| of S
            bound += 2.3e-16 * np.abs(np.log(np.where(array > 0, array, 1.0)))
        positive = array > 0
        assert np.all(scalar[~positive] == array[~positive]), name
        rel = np.abs(scalar[positive] - array[positive]) / array[positive]
        assert np.all(rel <= bound[positive]), (name, rel.max())
    assert transfer_H_abs2(0.0, cfg) == 0.0
    assert type(transfer_H_abs2(0.0, cfg)) is float
    # past the float range the float routes read the array routes' limits, not OverflowError
    assert phase_kernel("acceleration", 1e200, cfg.k_eff, cfg.guide_radius) == 0.0
    assert phase_kernel("rotation", 1e200, cfg.k_eff, cfg.guide_radius) == 0.0
    assert analytic.evaluate(1e200) == analytic.white


def _quad_patched(monkeypatch, alter):
    """Route scipy.integrate.quad through ``alter(calls, result)``, which sees
    each call's (lo, hi) panel and its result."""
    calls = []
    quad = scipy.integrate.quad

    def patched(fn, lo, hi, **kwargs):
        calls.append((lo, hi))
        return alter(calls, quad(fn, lo, hi, **kwargs))

    monkeypatch.setattr(scipy.integrate, "quad", patched)
    return calls


def test_quadpack_warning_marks_result_unconverged(monkeypatch):
    """One IntegrationWarning: converged is false, the note names the panel,
    and the warning does not reach the caller."""
    cfg = _small_config()
    psd = PowerSpectralDensity(domain="phase", white=1e-9)
    assert phase_variance(psd, cfg).converged

    def warn_once(calls, result):
        if len(calls) == 3:
            warnings.warn("roundoff error is detected", scipy.integrate.IntegrationWarning)
        return result

    calls = _quad_patched(monkeypatch, warn_once)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        result = phase_variance(psd, cfg)
    lo, hi = calls[2]
    assert not result.converged
    assert result.notes == f"QUADPACK warning on panel [{lo}, {hi}] Hz"
    assert result.as_record()["converged"] is False


def test_error_estimate_above_rtol_marks_result_unconverged(monkeypatch):
    cfg = _small_config()
    psd = PowerSpectralDensity(domain="acceleration", white=1e-12)
    _quad_patched(monkeypatch, lambda calls, result: (result[0], 1e3 * abs(result[0])))
    result = phase_variance(psd, cfg, rtol=1e-6)
    assert result.error_estimate > 1e-6 * result.value
    assert not result.converged
    assert result.notes == "omega^-4 kernel bounded by infrared cutoff 0.0001 Hz"


@pytest.mark.parametrize("domain, white", [("phase", 1e-8), ("acceleration", 1e-12), ("rotation", 1e-14)])
@pytest.mark.parametrize("rtol", [1e-6, 1e-13])
def test_converged_at_requested_tolerance(domain, white, rtol):
    """The design pulse at 2T = 4 s over the default band meets every rtol
    the API accepts, from the default to the tightest."""
    cfg = rb87_config(pulse_duration=20e-6, interrogation_time=4.0)
    result = phase_variance(PowerSpectralDensity(domain=domain, white=white), cfg, rtol=rtol)
    assert result.converged
    assert result.error_estimate <= rtol * result.value


def test_line_at_transfer_zero_is_suppressed():
    """A narrow spectral line sitting on a zero of H contributes >= 1e6 times
    less than the same line at a transmission maximum."""
    cfg = _small_config()
    d = cfg.interrogation_time - cfg.pulse_duration
    f_zero = 5.0 / d
    f_peak = 5.5 / d
    width = 1e-6

    def line_psd(f0):
        f = np.array([f0 - width, f0 - width / 2, f0, f0 + width / 2, f0 + width])
        s = np.array([0.0, 0.5, 1.0, 0.5, 0.0]) * 1e-6
        return PowerSpectralDensity(domain="phase", frequencies=f, values=s)

    band = dict(f_min=1e-4, f_max=20.0)
    at_zero = phase_variance(line_psd(f_zero), cfg, **band).value
    at_peak = phase_variance(line_psd(f_peak), cfg, **band).value
    assert at_peak > 0
    assert at_zero < at_peak / 1e6


def test_line_at_high_transfer_zero_keeps_error_estimate():
    """A line on the zero 30/D, above the panels split into smooth and
    cosine-weight parts: the line's narrow panels are integrated whole, so
    the error estimate stays within rtol of the suppressed value."""
    cfg = _small_config()
    d = cfg.interrogation_time - cfg.pulse_duration
    width = 1e-6
    f = 30.0 / d + width * np.array([-1.0, -0.5, 0.0, 0.5, 1.0])
    s = np.array([0.0, 0.5, 1.0, 0.5, 0.0]) * 1e-6
    at_zero = phase_variance(
        PowerSpectralDensity(domain="phase", frequencies=f, values=s), cfg, f_min=1e-4, f_max=200.0
    )
    assert 0 < at_zero.value < 1e-21
    assert at_zero.error_estimate <= 1e-6 * at_zero.value


def test_acceleration_kernel_down_to_default_cutoff():
    """omega^-4 kernel from f_min = 1e-4 Hz, where S K sinc^2 exceeds the
    integrand by about 1/(2 pi f D)^2; log-grid trapezoid oracle."""
    cfg = _small_config()
    psd = PowerSpectralDensity(domain="acceleration", white=1e-12)
    f_max = 20.0
    f = np.geomspace(DEFAULT_F_MIN, f_max, 2_000_001)
    kernel = cfg.k_eff ** 2 / (2 * np.pi * f) ** 4
    oracle = np.trapezoid(psd.evaluate(f) * kernel * transfer_H_abs2(f, cfg), f)
    result = phase_variance(psd, cfg, f_max=f_max, rtol=1e-6)
    assert result.value == pytest.approx(oracle, rel=1e-6)
    assert result.error_estimate <= 1e-6 * result.value


def test_monotone_in_psd_level():
    cfg = _small_config()
    v1 = phase_variance(PowerSpectralDensity(domain="phase", white=1e-9), cfg).value
    v2 = phase_variance(PowerSpectralDensity(domain="phase", white=2e-9), cfg).value
    assert v2 == pytest.approx(2.0 * v1, rel=1e-12)


def test_divergent_cutoff_raises():
    cfg = _small_config()
    psd = PowerSpectralDensity(domain="phase", white=1e-9)
    with pytest.raises(DivergentIntegralError):
        phase_variance(psd, cfg, f_min=0.0)
    with pytest.raises(ConfigError):
        phase_variance(psd, cfg, f_min=1.0, f_max=0.5)


def test_band_edge_and_rtol_validation():
    cfg = _small_config()
    psd = PowerSpectralDensity(domain="phase", white=1e-9)
    for f_max in (math.inf, math.nan):
        with pytest.raises(ConfigError):
            phase_variance(psd, cfg, f_max=f_max)
    for f_min in (-1.0, math.nan, math.inf):
        with pytest.raises(ConfigError):
            phase_variance(psd, cfg, f_min=f_min)
    for rtol in (1e-15, 0.0, 1.0, math.nan):
        with pytest.raises(ConfigError):
            phase_variance(psd, cfg, rtol=rtol)


def _white_phase_variance(s0, tau, two_t, f_lo, f_hi):
    """Closed form of int S0 |H|^2 df over [f_lo, f_hi] for white phase noise,
    |H|^2 = 4 sinc^2(pi f tau) sin^2(pi f D), D = 2T - tau.

    4 sin^2(a) sin^2(b) expands into sum_k c_k (1 - cos(w_k f)), and
    int (1 - cos wf) / f^2 df = -(1 - cos wf) / f + w Si(wf).
    """
    d = two_t - tau
    terms = ((1.0, tau), (1.0, d), (-0.5, abs(d - tau)), (-0.5, d + tau))

    def antiderivative(f):
        total = 0.0
        for c, period in terms:
            w = 2.0 * math.pi * period
            total += c * (-2.0 * math.sin(0.5 * w * f) ** 2 / f + w * sici(w * f)[0])
        return total

    return s0 * (antiderivative(f_hi) - antiderivative(f_lo)) / (math.pi * tau) ** 2


@pytest.mark.parametrize("two_t", [4.0, 100.0])
def test_white_phase_long_interrogation_against_closed_form(two_t):
    """Design pulse, default band (f_max = 10/tau), 2T up to 100 s: about
    5e7 zeros of H in band. At 2T = 100 s the closed form itself loses about
    5e-10 to the cancellation of its Si terms."""
    cfg = rb87_config(pulse_duration=20e-6, interrogation_time=two_t)
    s0, rtol = 1e-8, 1e-6
    result = phase_variance(PowerSpectralDensity(domain="phase", white=s0), cfg, rtol=rtol)
    assert result.band == (DEFAULT_F_MIN, 10.0 / cfg.pulse_duration)
    exact = _white_phase_variance(s0, cfg.pulse_duration, two_t, *result.band)
    assert result.value == pytest.approx(exact, rel=1e-9)
    assert result.error_estimate <= rtol * result.value
    assert result.converged


def test_quadrature_cost_flat_in_interrogation_time(monkeypatch):
    """Points at which the PSD is evaluated, 2T = 1 s against 2T = 100 s."""
    points = [0]
    evaluate = PowerSpectralDensity.evaluate

    def counting_evaluate(self, f):
        points[0] += np.size(f)
        return evaluate(self, f)

    monkeypatch.setattr(PowerSpectralDensity, "evaluate", counting_evaluate)
    psds = (
        PowerSpectralDensity(domain="phase", white=1e-8),
        PowerSpectralDensity(domain="acceleration", white=1e-12),
    )
    for psd in psds:
        counts = []
        for two_t in (1.0, 100.0):
            points[0] = 0
            result = phase_variance(psd, rb87_config(pulse_duration=20e-6, interrogation_time=two_t))
            assert result.n_evals == points[0]
            counts.append(points[0])
        assert max(counts) < 2 * min(counts), (psd.domain, counts)


def test_phase_kernel_rejects_unknown_domain():
    with pytest.raises(ConfigError, match="volts"):
        phase_kernel("volts", 1.0, 1.6e7, 1e-3)


def test_psd_validation():
    with pytest.raises(ConfigError):
        PowerSpectralDensity(domain="volts", white=1.0)
    with pytest.raises(ConfigError):
        PowerSpectralDensity(domain="phase", white=-1.0)
    with pytest.raises(ConfigError):
        PowerSpectralDensity(
            domain="phase", frequencies=np.array([1.0, 0.5]), values=np.array([1.0, 1.0])
        )
    with pytest.raises(ConfigError):
        PowerSpectralDensity(domain="phase", frequencies=np.array([1.0, 2.0]), values=None)
    psd = PowerSpectralDensity(domain="phase", white=1e-9)
    with pytest.raises(ConfigError):
        psd.evaluate(np.array([-1.0, 1.0]))


def test_psd_from_csv(tmp_path):
    path = tmp_path / "psd.csv"
    path.write_text("f_hz,psd_value\n0.1,1e-8\n1.0,1e-9\n10.0,1e-10\n")
    psd = PowerSpectralDensity.from_csv(str(path), domain="phase")
    assert psd.is_tabulated
    assert psd.evaluate(1.0) == pytest.approx(1e-9)
    bad = tmp_path / "bad.csv"
    bad.write_text("freq,value\n0.1,1e-8\n1.0,1e-9\n")
    with pytest.raises(ConfigError):
        PowerSpectralDensity.from_csv(str(bad), domain="phase")


def test_phase_sigma_to_rotation_sigma_inverts_scale_factor():
    cfg = _small_config()
    sigma_phi = 0.02
    omega = phase_sigma_to_rotation_sigma(sigma_phi, cfg)
    assert omega * scale_factor(cfg) == pytest.approx(sigma_phi, rel=1e-14)
