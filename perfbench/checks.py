"""Answer checks on the files one CLI invocation wrote.

Each check returns ``(values, failures)``: every computed number at full
precision, and a list of the oracle checks it missed. The oracles and
tolerances are the ones the repository's acceptance tests state; none is
tightened or loosened here. Values without an oracle are only recorded, for
drift comparison between commits.
"""

from __future__ import annotations

import json
import math
import os

from scipy.special import sici

import chipgyro as cg

ORACLE_SEGMENTS = 100_000      # criterion 6: 1e5-segment Biot-Savart sum
ORACLE_REL_TOL = 1e-6          # criterion 6
PARSEVAL_REL_TOL = 0.01        # criterion 7
CORNER_REL_TOL = 1e-4          # criterion 1
ZERO_ABS_TOL = 1e-12 * 2.0     # criterion 1: 1e-12 of the |H| maximum (2)
ALLAN_RATIO_REL_TOL = 1e-6     # criterion 3: pure white-noise averaging
SCALING_REL_TOL = 1e-9         # criterion 8: shot-noise scaling laws
MISSION_REL_TOL = 1e-3         # rel_tol of required_interrogation_time


def read_csv(path):
    """(header comments, column names, rows of floats) of a CLI CSV file."""
    meta, columns, rows = {}, None, []
    with open(path) as handle:
        for line in handle:
            line = line.rstrip("\n")
            if line.startswith("# "):
                key, _, value = line[2:].partition(": ")
                meta[key] = value
            elif columns is None:
                columns = line.split(",")
            else:
                rows.append([float(x) for x in line.split(",")])
    return meta, columns, rows


def _read_json(path):
    with open(path) as handle:
        return json.load(handle)


def _fail(failures, ok, message):
    if not ok:
        failures.append(message)


def check_guide(expect, out):
    failures = []
    rec = _read_json(os.path.join(out, "guide_characterization.json"))
    values = {k: v for k, v in rec.items() if k != "loops"}
    rho0, z0 = rec["rho0_m"], rec["z0_m"]
    worst = 0.0
    for radius, current in expect["loops"]:
        loop = cg.WireLoop(radius=radius, current=current, height=0.0)
        exact = cg.loop_field(loop, rho0, z0)
        oracle = cg.loop_field_oracle(loop, rho0, z0, n_segments=ORACLE_SEGMENTS)
        err = max(abs(exact.B_rho - oracle.B_rho), abs(exact.B_z - oracle.B_z)) / exact.modulus
        worst = max(worst, err)
    values["oracle_rel_err"] = worst
    _fail(failures, worst < ORACLE_REL_TOL, f"field oracle at the minimum: {worst:.3e}")
    if expect["design"]:
        depth_uk = rec["depth_temperature_K"] * 1e6
        f_khz = rec["radial_frequency_Hz"] / 1e3
        _fail(failures, abs(z0 - 13e-6) <= 0.2 * 13e-6, f"criterion 5 z0 = {z0!r}")
        _fail(failures, 100 <= depth_uk <= 900, f"criterion 5 depth = {depth_uk!r} uK")
        _fail(failures, 0.5 <= f_khz <= 4.5, f"criterion 5 f = {f_khz!r} kHz")
    _, _, rows = read_csv(os.path.join(out, "potential_map.csv"))
    _fail(failures, len(rows) == expect["map_rows"], f"potential map has {len(rows)} rows")
    return values, failures


def white_phase_variance(s0, tau, two_t, f_lo, f_hi):
    """Closed form of int S0 |H(f)|^2 df over [f_lo, f_hi] for white phase
    noise, |H|^2 = 4 sinc^2(pi f tau) sin^2(pi f D), D = 2T - tau.

    4 sin^2(a) sin^2(b) expands into sum_k c_k (1 - cos(w_k f)), and
    int (1 - cos wf) / f^2 df = -(1 - cos wf) / f + w Si(wf). Over the whole
    axis this is Parseval's S0 / tau (criterion 7).
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


def check_noise(expect, out):
    failures = []
    rec = _read_json(os.path.join(out, "noise_budget.json"))
    entry = rec["entries"][0]
    result = entry["result"]
    values = {
        "variance_rad2": entry["variance_rad2"],
        "sigma_phi_rad": entry["sigma_phi_rad"],
        "sigma_omega_rad_s": entry["sigma_omega_rad_s"],
        "error_estimate": result["error_estimate"],
        "rel_error_estimate": result["error_estimate"] / result["value"],
    }
    variance = entry["variance_rad2"]
    _fail(failures, math.isfinite(variance) and variance > 0, f"variance = {variance!r}")
    noise, ai = expect["noise"], expect["interferometer"]
    if noise["domain"] == "phase":
        tau, two_t = ai["pulse_duration_s"], ai["interrogation_time_s"]
        band = noise.get("band", {})
        f_lo = band.get("f_min_hz", 1e-4)
        f_hi = band.get("f_max_hz", 10.0 / tau)
        exact = white_phase_variance(noise["model"]["white"], tau, two_t, f_lo, f_hi)
        dev = abs(variance / exact - 1.0)
        values["parseval_rel_dev"] = dev
        _fail(failures, dev < PARSEVAL_REL_TOL, f"criterion 7 Parseval deviation {dev:.3e}")
    return values, failures


def check_transfer(expect, out):
    failures = []
    meta, _, rows = read_csv(os.path.join(out, "transfer.csv"))
    ai, run = expect["interferometer"], expect["run"]["transfer"]
    tau, two_t = ai["pulse_duration_s"], ai["interrogation_time_s"]
    f_hp, f_lp = float(meta["f_HP_hz"]), float(meta["f_LP_hz"])
    values = {"f_HP_hz": f_hp, "f_LP_hz": f_lp, "rows": len(rows),
              "max_abs_H": max(r[1] for r in rows)}
    _fail(failures, abs(f_hp * math.pi * tau - 1.0) < CORNER_REL_TOL, f"criterion 1 f_HP = {f_hp!r}")
    _fail(failures, abs(f_lp * math.pi * (two_t - tau) - 1.0) < CORNER_REL_TOL,
          f"criterion 1 f_LP = {f_lp!r}")
    by_f = {r[0]: r[1] for r in rows}
    for n in range(1, int(math.floor(run["f_max_hz"] * tau)) + 1):
        h = by_f.get(n / tau)
        _fail(failures, h is not None and h < ZERO_ABS_TOL, f"criterion 1 |H(n/tau)| = {h!r} at n = {n}")
    return values, failures


def check_sensitivity(expect, out):
    failures = []
    _, columns, rows = read_csv(os.path.join(out, "sensitivity.csv"))
    per_shot = columns.index("delta_omega_rad_s")
    values = {"rows": len(rows), "first_delta_omega": rows[0][per_shot],
              "last_delta_omega": rows[-1][per_shot]}
    # at fixed atom number the per-shot figure scales exactly as (2T)^-2
    for n_atoms in sorted({r[1] for r in rows}):
        scaled = [r[per_shot] * r[0] ** 2 for r in rows if r[1] == n_atoms]
        spread = max(abs(s / scaled[0] - 1.0) for s in scaled)
        _fail(failures, spread < SCALING_REL_TOL, f"criterion 8 (2T)^-2 scaling spread {spread:.3e}")
    return values, failures


def check_allan(expect, out):
    failures = []
    _, _, rows = read_csv(os.path.join(out, "allan.csv"))
    coeff = [sigma * math.sqrt(tau) for tau, sigma in rows]
    spread = max(abs(c / coeff[0] - 1.0) for c in coeff)
    values = {"rows": len(rows), "sigma_first": rows[0][1], "sigma_last": rows[-1][1],
              "ratio_spread": spread}
    _fail(failures, spread < ALLAN_RATIO_REL_TOL, f"criterion 3 white averaging spread {spread:.3e}")
    return values, failures


def mission_closed_form(ai, v_launch, target, integration):
    """Minimum 2T with zero dead time, where the projection Allan deviation
    is C (2T)^(-3/2): 2T = (C / target)^(2/3)."""
    species = cg.species_rb87()
    c = (
        ai.get("squeezing", 1.0) * math.pi
        / (2.0 * ai.get("contrast", 1.0) * math.sqrt(2.0 * ai["atom_number"])
           * (species.mass / cg.HBAR) * species.recoil_velocity * v_launch
           * math.sin(math.radians(ai["latitude_deg"])))
        / math.sqrt(integration)
    )
    return (c / target) ** (2.0 / 3.0)


def check_mission(expect, out):
    failures = []
    _, _, rows = read_csv(os.path.join(out, "mission.csv"))
    ai, run = expect["interferometer"], expect["run"]["mission"]
    v_r = cg.species_rb87().recoil_velocity
    values, worst = {}, 0.0
    for ratio, two_t, _radius in rows:
        exact = mission_closed_form(ai, ratio * v_r, run["target_sigma_rad_s"], run["integration_time_s"])
        values[f"min_2T_s@{ratio:g}"] = two_t
        worst = max(worst, abs(two_t / exact - 1.0))
    values["closed_form_rel_err"] = worst
    _fail(failures, len(rows) == len(run["v_over_vr"]), f"mission has {len(rows)} rows")
    _fail(failures, worst <= MISSION_REL_TOL, f"mission closed form deviation {worst:.3e}")
    return values, failures


CHECKS = {
    "guide": check_guide,
    "noise": check_noise,
    "transfer": check_transfer,
    "sensitivity": check_sensitivity,
    "allan": check_allan,
    "mission": check_mission,
}


def check(invocation, out):
    """Run the answer check of ``invocation`` on the directory it wrote."""
    try:
        return CHECKS[invocation.command](invocation.expect, out)
    except (OSError, ValueError, KeyError, IndexError, ZeroDivisionError) as exc:
        return {}, [f"unreadable output: {type(exc).__name__}: {exc}"]


def same_outputs(out_a, out_b):
    """Failures of the byte-for-byte comparison of two output directories."""
    names_a, names_b = sorted(os.listdir(out_a)), sorted(os.listdir(out_b))
    if names_a != names_b:
        return [f"output files differ: {names_a} vs {names_b}"]
    failures = []
    for name in names_a:
        with open(os.path.join(out_a, name), "rb") as a, open(os.path.join(out_b, name), "rb") as b:
            if a.read() != b.read():
                failures.append(f"{name} is not byte-identical between runs")
    return failures


def output_bytes(out):
    return sum(os.path.getsize(os.path.join(out, name)) for name in os.listdir(out))
