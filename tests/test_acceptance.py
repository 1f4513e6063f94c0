"""Acceptance suite: one test per shipped guarantee, each printing a single
PASS/FAIL line with the tolerance it was held to. Run with ``pytest -v`` to
see one line per criterion, or ``pytest -s`` to see the value details."""

import math

import numpy as np
import pytest

import chipgyro as cg

LAT = math.radians(48.85)


def _report(criterion, ok, detail):
    line = f"ACCEPTANCE {criterion}: {'PASS' if ok else 'FAIL'} ({detail})"
    print(line)
    assert ok, line


def test_criterion_1_transfer_corners_and_zeros():
    """Corners of |H(f)| within 0.01% of 15915.5 Hz and 0.0795783 Hz for
    tau = 20 us, 2T = 4 s; grid-pinned zeros below 1e-12 of the |H| maximum."""
    cfg = cg.rb87_config(pulse_duration=20e-6, interrogation_time=4.0)
    f_hp, f_lp = cg.corner_frequencies(cfg)
    ok_hp = abs(f_hp / 15915.494309 - 1.0) < 1e-4
    ok_lp = abs(f_lp / 0.0795783 - 1.0) < 1e-4
    tau_zeros = np.array([1.0, 2.0]) / cfg.pulse_duration
    h_at_zeros = np.max(np.sqrt(cg.transfer_H_abs2(tau_zeros, cfg)))
    ok_zeros = h_at_zeros < 1e-12 * 2.0
    _report(
        "1 transfer corners/zeros (0.01% / 1e-12)",
        ok_hp and ok_lp and ok_zeros,
        f"f_HP={f_hp:.6g} Hz, f_LP={f_lp:.6g} Hz, |H(n/tau)|max={h_at_zeros:.2e}",
    )


def test_criterion_2_shot_noise_sensitivity():
    """2T = 3 s, N = 1e4, latitude 48.85 deg: per-shot sensitivity within 10%
    of 3.4e-8 rad/s and ARW within 10% of 1.1e-4 deg/sqrt(h); single-loop
    radius 5.6 mm within 1%; ten 600-um loops give 2T within 10% of 3 s."""
    cfg = cg.rb87_config(
        pulse_duration=20e-6, interrogation_time=3.0, atom_number=1e4, latitude=LAT
    )
    sens = cg.shot_noise_sensitivity(cfg)
    arw = sens * cg.ARW_DEG_SQRT_H_PER_RAD_S_SQRT_HZ
    radius = cg.guide_radius_for(cg.species_rb87(), 3.0, 1)
    ten_loop = cg.InterferometerConfig(
        cg.species_rb87(), guide_radius=600e-6, n_loops=10, pulse_duration=20e-6
    )
    ok = (
        abs(sens / 3.4e-8 - 1.0) < 0.10
        and abs(arw / 1.1e-4 - 1.0) < 0.10
        and abs(radius / 5.6e-3 - 1.0) < 0.01
        and abs(ten_loop.interrogation_time / 3.0 - 1.0) < 0.10
    )
    _report(
        "2 shot-noise sensitivity (10% / 10% / 1% / 10%)",
        ok,
        f"dOmega={sens:.4g} rad/s, ARW={arw:.4g} deg/sqrt(h), "
        f"R={radius * 1e3:.4g} mm, 2T(10x600um)={ten_loop.interrogation_time:.4g} s",
    )


def test_criterion_3_allan_projection():
    """2T = 10 s, N = 1e5, launch 2 v_r: 1-s coefficient within 2x of 1.9e-9
    rad/s and 12-month value within 2x of 3.5e-13 rad/s; their ratio equals
    sqrt(3.156e7) to 1e-6 (pure white-noise averaging)."""
    cfg = cg.rb87_config(
        pulse_duration=20e-6,
        interrogation_time=10.0,
        atom_number=1e5,
        launch_velocity=2.0 * cg.species_rb87().recoil_velocity,
    )
    coeff = cg.projection_allan(cfg, 1.0)
    year = cg.projection_allan(cfg, cg.SECONDS_PER_YEAR)
    ratio_ok = abs(coeff / year / math.sqrt(cg.SECONDS_PER_YEAR) - 1.0) < 1e-6
    ok = 0.5 <= coeff / 1.9e-9 <= 2.0 and 0.5 <= year / 3.5e-13 <= 2.0 and ratio_ok
    _report(
        "3 projection Allan (2x / 2x / ratio 1e-6)",
        ok,
        f"sigma(1s)={coeff:.4g} rad/s, sigma(1yr)={year:.4g} rad/s",
    )


def test_criterion_4_mission_feasibility():
    """Launch at 4 v_r, target 5.2e-14 rad/s over one year, N = 1e5: required
    2T in [4.5, 18] s and guide radius in [18, 74] mm; the feasibility
    boundary decreases monotonically with launch speed."""
    rb = cg.species_rb87()
    tpl = cg.rb87_config(pulse_duration=20e-6, interrogation_time=4.0, atom_number=1e5)
    two_t, radius = cg.required_interrogation_time(
        5.2e-14, cg.SECONDS_PER_YEAR, 4.0 * rb.recoil_velocity, tpl
    )
    boundary = cg.feasibility_boundary(
        np.array([2.0, 4.0, 8.0, 16.0]) * rb.recoil_velocity,
        5.2e-14,
        cg.SECONDS_PER_YEAR,
        tpl,
    )
    twots = [tt for _, tt in boundary.points]
    monotone = all(b < a for a, b in zip(twots, twots[1:]))
    ok = 4.5 <= two_t <= 18.0 and 18e-3 <= radius <= 74e-3 and monotone
    _report(
        "4 mission feasibility (2T in [4.5,18] s, R in [18,74] mm, monotone)",
        ok,
        f"2T={two_t:.4g} s, R={radius * 1e3:.4g} mm",
    )


def test_criterion_5_guide_characterization():
    """Three-wire guide: minimum height 13 um +/- 20%, trap depth in
    [100, 900] uK, radial frequency in [0.5, 4.5] kHz."""
    ch = cg.characterize_guide(cg.design_guide_geometry(), cg.species_rb87())
    z0 = ch.z0_m
    depth_uk = ch.depth_temperature_K * 1e6
    f_khz = ch.radial_frequency_Hz / 1e3
    ok = abs(z0 - 13e-6) <= 0.2 * 13e-6 and 100 <= depth_uk <= 900 and 0.5 <= f_khz <= 4.5
    _report(
        "5 guide characterization (20% / [100,900] uK / [0.5,4.5] kHz)",
        ok,
        f"z0={z0 * 1e6:.4g} um, depth={depth_uk:.4g} uK, "
        f"f={f_khz:.4g} kHz at B0={ch.offset_B0_T} T",
    )


def test_criterion_6_magnetostatics_oracle():
    """Closed-form loop field vs 1e5-segment Biot-Savart sum: relative error
    below 1e-6 at 100 random points, with segment-count convergence of order
    2 +/- 0.2."""
    rng = np.random.default_rng(6)
    loop = cg.WireLoop(radius=500e-6, current=0.121, height=0.0)
    worst = 0.0
    checked = 0
    while checked < 100:
        rho = rng.uniform(0.0, 3.0 * loop.radius)
        z = rng.uniform(-2.0 * loop.radius, 2.0 * loop.radius)
        if (rho - loop.radius) ** 2 + z ** 2 <= (0.05 * loop.radius) ** 2:
            continue
        exact = cg.loop_field(loop, rho, z)
        oracle = cg.loop_field_oracle(loop, rho, z, n_segments=100_000)
        err = max(abs(exact.B_rho - oracle.B_rho), abs(exact.B_z - oracle.B_z)) / exact.modulus
        worst = max(worst, err)
        checked += 1

    exact = cg.loop_field(loop, 650e-6, 40e-6)

    def oracle_err(n):
        o = cg.loop_field_oracle(loop, 650e-6, 40e-6, n_segments=n)
        return math.hypot(exact.B_rho - o.B_rho, exact.B_z - o.B_z)

    order = math.log2(oracle_err(500) / oracle_err(1000))
    ok = worst < 1e-6 and abs(order - 2.0) < 0.2
    _report(
        "6 field oracle (1e-6 on 100 points, order 2 +/- 0.2)",
        ok,
        f"worst rel err={worst:.2e}, convergence order={order:.3f}",
    )


def test_criterion_7_noise_machinery():
    """Quadrature vs Parseval within 1%; tabulated domain round trips below
    1e-9 relative; a line on a transfer zero suppressed by >= 1e6."""
    cfg = cg.rb87_config(pulse_duration=0.01, interrogation_time=1.0)
    s0 = 1e-8
    psd = cg.PowerSpectralDensity(domain="phase", white=s0)
    variance = cg.phase_variance(psd, cfg, f_min=1e-5, f_max=200.0 / cfg.pulse_duration).value
    parseval = abs(variance / (s0 / cfg.pulse_duration) - 1.0)

    f = np.geomspace(1e-3, 1e3, 201)
    values = 1e-8 * (1.0 + np.cos(np.log(f)) ** 2)
    tab = cg.PowerSpectralDensity(domain="phase", frequencies=f, values=values)
    acc = cg.convert_psd(tab, "acceleration", cfg)
    rot = cg.convert_psd(acc, "rotation", cfg)
    back = cg.convert_psd(rot, "phase", cfg)
    round_trip = float(np.max(np.abs(back.values - values) / values))

    d = cfg.interrogation_time - cfg.pulse_duration

    def line(f0):
        fg = np.array([f0 - 1e-6, f0 - 5e-7, f0, f0 + 5e-7, f0 + 1e-6])
        sg = np.array([0.0, 0.5, 1.0, 0.5, 0.0]) * 1e-6
        return cg.PowerSpectralDensity(domain="phase", frequencies=fg, values=sg)

    at_zero = cg.phase_variance(line(5.0 / d), cfg, f_min=1e-4, f_max=20.0).value
    at_peak = cg.phase_variance(line(5.5 / d), cfg, f_min=1e-4, f_max=20.0).value
    suppression = at_peak / at_zero if at_zero > 0 else math.inf

    ok = parseval < 0.01 and round_trip < 1e-9 and suppression >= 1e6
    _report(
        "7 noise machinery (Parseval 1%, round trip 1e-9, suppression 1e6)",
        ok,
        f"Parseval dev={parseval:.2e}, round trip={round_trip:.2e}, "
        f"line suppression={suppression:.2e}",
    )


def test_criterion_8_property_suite():
    """Structural properties: field linearity in current, mirror symmetry,
    shot-noise scaling laws, PSD-level linearity of the variance."""
    loop = cg.WireLoop(radius=500e-6, current=0.1, height=0.0)
    f1 = cg.loop_field(loop, 300e-6, 20e-6)
    f3 = cg.loop_field(cg.WireLoop(radius=500e-6, current=0.3, height=0.0), 300e-6, 20e-6)
    linear = abs(f3.B_z - 3.0 * f1.B_z) < 1e-18 and abs(f3.B_rho - 3.0 * f1.B_rho) < 1e-18

    up = cg.loop_field(loop, 300e-6, 25e-6)
    down = cg.loop_field(loop, 300e-6, -25e-6)
    mirror = abs(up.B_rho + down.B_rho) < 1e-18 and abs(up.B_z - down.B_z) < 1e-18

    base = cg.rb87_config(pulse_duration=20e-6, interrogation_time=4.0, atom_number=1e4)
    big_n = cg.rb87_config(pulse_duration=20e-6, interrogation_time=4.0, atom_number=1e6)
    long_t = cg.rb87_config(pulse_duration=20e-6, interrogation_time=8.0, atom_number=1e4)
    s = cg.shot_noise_sensitivity
    scaling = (
        abs(s(base) / s(big_n) - 10.0) < 1e-9 and abs(s(base) / s(long_t) - 4.0) < 1e-9
    )

    cfg = cg.rb87_config(pulse_duration=0.01, interrogation_time=1.0)
    v1 = cg.phase_variance(cg.PowerSpectralDensity(domain="phase", white=1e-9), cfg).value
    v2 = cg.phase_variance(cg.PowerSpectralDensity(domain="phase", white=3e-9), cfg).value
    psd_linear = abs(v2 / v1 - 3.0) < 1e-9

    ok = linear and mirror and scaling and psd_linear
    _report(
        "8 property suite (linearity, symmetry, scaling laws)",
        ok,
        f"field linear={linear}, mirror={mirror}, shot-noise scaling={scaling}, "
        f"variance linear={psd_linear}",
    )
