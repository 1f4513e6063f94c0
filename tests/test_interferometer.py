import dataclasses
import math

import numpy as np
import pytest
from scipy.integrate import trapezoid

from chipgyro.constants import ARW_DEG_SQRT_H_PER_RAD_S_SQRT_HZ, HBAR, species_rb87
from chipgyro.errors import ConfigError, DegenerateOrientationError
from chipgyro.interferometer import (
    MAX_PULSE_ZEROS,
    InterferometerConfig,
    band_grid,
    corner_frequencies,
    guide_radius_for,
    rb87_config,
    scale_factor,
    shot_noise_sensitivity,
    transfer_H_abs2,
)
from chipgyro.stability import projection_allan

LAT = math.radians(48.85)


def _config(**kwargs):
    kwargs.setdefault("pulse_duration", 20e-6)
    kwargs.setdefault("interrogation_time", 4.0)
    return rb87_config(**kwargs)


def _transfer_H(f, config):
    """Oracle: the complex closed form
    H(f) = -(2i / (pi f tau)) sin(pi f tau) sin(pi f (2T - tau)), H(0) = 0."""
    tau = config.pulse_duration
    D = config.interrogation_time - tau
    f = np.atleast_1d(np.asarray(f, dtype=float))
    with np.errstate(divide="ignore", invalid="ignore"):
        H = -2.0j / (np.pi * f * tau) * np.sin(np.pi * f * tau) * np.sin(np.pi * f * D)
    return np.where(f == 0.0, 0.0 + 0.0j, H)


def _sensitivity_function_g(t, config):
    """Oracle: the sensitivity function g(t), the response of the output
    phase to a phase jump at time t: 0 outside [-T, T], linear ramps across
    the two square pulses, 1 between them (Cheinet et al., IEEE Trans.
    Instrum. Meas. 57, 1141 (2008)). |H| is 2 pi f times the modulus of its
    Fourier transform."""
    half_time = 0.5 * config.interrogation_time
    return np.clip((half_time - np.abs(t)) / config.pulse_duration, 0.0, 1.0)


def test_scale_factor_and_sagnac_phase():
    cfg = _config(latitude=math.pi / 2)
    omega = 7.29e-5
    rb = species_rb87()
    expected = (4 / math.pi) * (rb.mass / 1.054571817e-34) * rb.recoil_velocity ** 2 * 16 * omega
    assert scale_factor(cfg) * omega == pytest.approx(expected, rel=1e-12, abs=0)


def test_equal_interrogation_time_gives_equal_phase():
    """Loop count and radius trade off at fixed 2T without changing the phase."""
    rb = species_rb87()
    one = InterferometerConfig(rb, 20e-6, guide_radius=5.6e-3, n_loops=1)
    ten = InterferometerConfig(rb, 20e-6, guide_radius=5.6e-4, n_loops=10)
    assert one.interrogation_time == pytest.approx(ten.interrogation_time, rel=1e-15, abs=0)
    assert scale_factor(one) == pytest.approx(scale_factor(ten), rel=1e-15, abs=0)


def test_shot_noise_reference_value():
    cfg = _config(interrogation_time=3.0, atom_number=1e4, latitude=LAT)
    sens = shot_noise_sensitivity(cfg)
    assert sens == pytest.approx(3.459e-8, rel=1e-3, abs=0)
    arw = sens * ARW_DEG_SQRT_H_PER_RAD_S_SQRT_HZ
    assert arw == pytest.approx(1.189e-4, rel=1e-3, abs=0)


def test_shot_noise_scalings():
    base = _config(atom_number=1e4)
    assert shot_noise_sensitivity(_config(atom_number=1e6)) == pytest.approx(
        shot_noise_sensitivity(base) / 10.0, rel=1e-12, abs=0
    )
    assert shot_noise_sensitivity(_config(interrogation_time=8.0)) == pytest.approx(
        shot_noise_sensitivity(base) / 4.0, rel=1e-12, abs=0
    )
    assert shot_noise_sensitivity(_config(squeezing=0.1)) == pytest.approx(
        shot_noise_sensitivity(base) * 0.1, rel=1e-12, abs=0
    )
    assert shot_noise_sensitivity(_config(contrast=0.5)) == pytest.approx(
        shot_noise_sensitivity(base) * 2.0, rel=1e-12, abs=0
    )
    rb = species_rb87()
    assert shot_noise_sensitivity(
        _config(launch_velocity=2 * rb.recoil_velocity)
    ) == pytest.approx(shot_noise_sensitivity(base) / 2.0, rel=1e-12, abs=0)


@pytest.mark.parametrize("v_over_vr", [1.0, 4.0])
@pytest.mark.parametrize("latitude_deg", [48.85, 90.0, -48.85])
def test_shot_noise_against_explicit_closed_form(v_over_vr, latitude_deg):
    """xi pi / (2 eta sqrt(2N) (M/hbar) v_r v_launch (2T)^2 |sin(latitude)|),
    written out without the scale factor; a southern latitude is its
    northern mirror."""
    rb = species_rb87()
    cfg = _config(
        interrogation_time=3.0, atom_number=2.5e4, contrast=0.7, squeezing=0.4,
        latitude=math.radians(latitude_deg), launch_velocity=v_over_vr * rb.recoil_velocity,
    )
    denom = (
        2.0 * 0.7 * math.sqrt(2.0 * 2.5e4) * (rb.mass / HBAR) * rb.recoil_velocity
        * cfg.launch_velocity * 3.0 ** 2 * abs(math.sin(cfg.latitude))
    )
    assert shot_noise_sensitivity(cfg) == pytest.approx(0.4 * math.pi / denom, rel=1e-15, abs=0)


def test_per_sqrt_hz_uses_cycle_time():
    """The per-sqrt(Hz) figure, the projection Allan deviation at 1 s,
    multiplies the per-shot one by sqrt(2T + dead time), with no rounding."""
    cfg = _config(cycle_dead_time=1.0)
    assert projection_allan(cfg, 1.0) == shot_noise_sensitivity(cfg) * math.sqrt(5.0)


def test_degenerate_latitude_raises():
    """Every rotation figure divides by the scale factor, which raises at
    sin(latitude) = 0."""
    cfg = _config(latitude=0.0)
    for figure in (scale_factor, shot_noise_sensitivity):
        with pytest.raises(DegenerateOrientationError):
            figure(cfg)
    with pytest.raises(DegenerateOrientationError):
        0.02 / abs(scale_factor(cfg))


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf], ids=["nan", "inf", "-inf"])
@pytest.mark.parametrize("field", ["cycle_dead_time", "latitude"])
def test_non_finite_dead_time_or_latitude_rejected(field, value):
    """A non-finite dead time or latitude would carry on into every rotation
    figure as nan; it is a ConfigError naming the field."""
    with pytest.raises(ConfigError, match=f"^{field} must be finite"):
        _config(**{field: value})


def test_geometry_relation():
    rb = species_rb87()
    r = guide_radius_for(rb, 3.0, 1)
    assert r == pytest.approx(rb.recoil_velocity * 3.0 / math.pi, rel=1e-15, abs=0)
    assert r == pytest.approx(5.6e-3, rel=0.01, abs=0)


def test_config_derives_the_missing_time_or_radius():
    rb = species_rb87()
    from_radius = InterferometerConfig(rb, 20e-6, guide_radius=5.6e-3, n_loops=3)
    assert from_radius.interrogation_time == 3 * math.pi * 5.6e-3 / rb.recoil_velocity


def test_config_without_time_or_radius_raises():
    with pytest.raises(ConfigError, match="interrogation_time or guide_radius"):
        InterferometerConfig(species_rb87(), 20e-6)


def test_config_with_time_and_radius_raises():
    with pytest.raises(ConfigError, match="exactly one of interrogation_time or guide_radius"):
        InterferometerConfig(species_rb87(), 20e-6, interrogation_time=3.0, guide_radius=5.6e-3)


def test_guide_radius_is_an_input_only():
    """R sets 2T and is not stored, so a config holds no R that could
    disagree with its 2T, and a new 2T needs no other argument."""
    from_radius = InterferometerConfig(species_rb87(), 20e-6, guide_radius=5.6e-3, n_loops=3)
    assert "guide_radius" not in [field.name for field in dataclasses.fields(from_radius)]
    assert from_radius.guide_radius is None
    longer = dataclasses.replace(from_radius, interrogation_time=4.0)
    assert (longer.interrogation_time, longer.n_loops) == (4.0, 3)


def test_pulse_zeros_bound():
    """A band may hold MAX_PULSE_ZEROS zeros n / tau and not one more."""
    config = rb87_config(pulse_duration=1.0, interrogation_time=2.0)
    zeros = band_grid(config, 1.0, float(MAX_PULSE_ZEROS))
    assert zeros.size == MAX_PULSE_ZEROS
    assert (zeros[0], zeros[-1]) == (1.0, float(MAX_PULSE_ZEROS))
    with pytest.raises(ConfigError, match=f"over {MAX_PULSE_ZEROS} zeros"):
        band_grid(config, 1.0, MAX_PULSE_ZEROS + 1.0)


@pytest.mark.parametrize("radius", [-1e-3, math.nan])
def test_config_error_names_the_given_radius(radius):
    """A bad R is named as such, not through the 2T derived from it."""
    with pytest.raises(ConfigError, match="^guide_radius must be > 0"):
        InterferometerConfig(species_rb87(), 20e-6, guide_radius=radius)


@pytest.mark.parametrize("n_loops", [math.nan, math.inf, -math.inf, 0, 1.5])
@pytest.mark.parametrize("given", [{"interrogation_time": 1.0}, {"guide_radius": 5.6e-3}], ids=["2T", "R"])
def test_config_error_names_a_bad_loop_count(n_loops, given):
    """A loop count that is not an integer >= 1 is named, whichever of 2T and
    R it would derive the other from; NaN and infinity reach no int()."""
    with pytest.raises(ConfigError, match="^n_loops must be an integer >= 1"):
        rb87_config(pulse_duration=20e-6, n_loops=n_loops, **given)
    with pytest.raises(ConfigError, match="^n_loops must be an integer >= 1"):
        guide_radius_for(species_rb87(), 1.0, n_loops)


def test_config_validation():
    with pytest.raises(ConfigError):
        _config(pulse_duration=5.0)  # tau >= 2T
    with pytest.raises(ConfigError):
        _config(contrast=0.0)
    for squeezing in (0.0, 1.5, math.nan):
        with pytest.raises(ConfigError, match=r"^squeezing must be in \(0, 1\]"):
            _config(squeezing=squeezing)
    with pytest.raises(ConfigError):
        _config(n_loops=0)
    with pytest.raises(ConfigError):
        _config(interrogation_time=-1.0)
    with pytest.raises(ConfigError):
        _config(cycle_dead_time=-0.1)


# ---------------------------------------------------------------------------
# sensitivity / transfer functions


def test_sensitivity_function_shape():
    cfg = _config()
    T = 0.5 * cfg.interrogation_time
    tau = cfg.pulse_duration
    assert _sensitivity_function_g(-T - 1e-9, cfg) == 0.0
    assert _sensitivity_function_g(T + 1e-9, cfg) == 0.0
    assert _sensitivity_function_g(0.0, cfg) == 1.0
    assert _sensitivity_function_g(-T + tau / 2, cfg) == pytest.approx(0.5)
    assert _sensitivity_function_g(T - tau / 2, cfg) == pytest.approx(0.5)


def test_h_integrals():
    cfg = rb87_config(pulse_duration=0.01, interrogation_time=1.0)
    t = np.linspace(-0.6, 0.6, 1200001)
    g = _sensitivity_function_g(t, cfg)
    assert trapezoid(g, t) == pytest.approx(
        cfg.interrogation_time - cfg.pulse_duration, rel=1e-6, abs=0
    )


def test_transfer_corners():
    cfg = _config()
    f_hp, f_lp = corner_frequencies(cfg)
    assert f_hp == pytest.approx(1.0 / (math.pi * 20e-6), rel=1e-12, abs=0)
    assert f_lp == pytest.approx(1.0 / (math.pi * (4.0 - 20e-6)), rel=1e-12, abs=0)
    # mid-band plateau of |H| is 2 (at half-integer multiples of 1/(2T - tau))
    d = cfg.interrogation_time - cfg.pulse_duration
    f_plateau = (np.arange(10, 20) + 0.5) / d
    assert np.sqrt(transfer_H_abs2(f_plateau, cfg)) == pytest.approx(2.0, rel=1e-6, abs=0)


def test_transfer_zeros_are_zero():
    cfg = _config()
    # the zeros n/(2T - tau) below 10 Hz, the only zeros there (large sin
    # arguments lose accuracy to float rounding, so the full-band check uses
    # only the exactly representable pulse-duration family below)
    d = cfg.interrogation_time - cfg.pulse_duration
    zeros_low = np.arange(1, math.floor(10.0 * d) + 1) / d
    assert np.max(np.sqrt(transfer_H_abs2(zeros_low, cfg))) < 1e-12 * 2.0
    tau_family = np.arange(1, 3) / cfg.pulse_duration
    assert np.max(np.sqrt(transfer_H_abs2(tau_family, cfg))) < 1e-12 * 2.0
    assert transfer_H_abs2(0.0, cfg) == 0.0


def test_abs2_matches_transfer_H():
    cfg = _config()
    f = np.geomspace(1e-4, 1e5, 4001)
    assert np.allclose(np.abs(_transfer_H(f, cfg)) ** 2, transfer_H_abs2(f, cfg), rtol=1e-10)
    assert transfer_H_abs2(np.array([0.0]), cfg)[0] == 0.0


def test_H_equals_omega_G():
    """|H(f)| = 2 pi f |G(f)| with G the numerical Fourier integral of g."""
    cfg = rb87_config(pulse_duration=0.05, interrogation_time=1.0)
    t = np.linspace(-0.5, 0.5, 200001)
    g = _sensitivity_function_g(t, cfg)
    for f in (0.3, 0.7, 1.3, 2.7, 6.1):
        G = trapezoid(g * np.exp(-2j * math.pi * f * t), t)
        assert 2 * math.pi * f * abs(G) == pytest.approx(
            math.sqrt(transfer_H_abs2(f, cfg)), rel=1e-5, abs=1e-8
        )
