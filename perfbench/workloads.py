"""Seeded input generator for the chipgyro benchmark.

Each workload is a list of CLI invocations. The generator writes the YAML
configs (as JSON, which YAML reads unchanged) and any PSD CSV files into a
directory, and returns the invocations with the inputs the answer checks
need. The program only ever receives those files.

The seed moves inputs only inside ranges that keep a workload's cost bucket
fixed: interrogation times by at most +-2 %, PSD levels and noise shapes by
factors that do not change the panel count, and guide offset fields and map
spans by +-2 %, which leave the minimum search untouched.
"""

from __future__ import annotations

import json
import math
import os
import random
from dataclasses import dataclass

TAU = 20e-6  # s, pulse duration of the design case
DEFAULT_F_MIN = 1e-4  # Hz, the CLI's infrared cutoff when no band is given

# (radius_m, current_A) of the design three-wire guide.
DESIGN_LOOPS = ((487e-6, -0.123), (500e-6, 0.121), (513e-6, -0.123))
# A 1 mm ring with 26 um spacing and the design currents: it traps near
# z0 = 25 um and costs about as much as the design guide, so a shortcut tuned
# to the design case shows. Currents carry no jitter: an imbalance of a few
# per cent can make find_guide_minimum run Nelder-Mead to its 4000-iteration
# cap (about 15.8k field calls against about 215), which would make one
# seed's pass cost several times another's.
RING_LOOPS = ((974e-6, -0.123), (1000e-6, 0.121), (1026e-6, -0.123))

WHY = {
    "guide_design": (
        "chipgyro guide on the design guide and a 1 mm ring: field map, "
        "barrier bisection and minimum search; no noise quadrature"
    ),
    "noise_wideband": (
        "chipgyro noise over the default band for white phase, accel and tabulated "
        "rotation PSDs: millions of panels that grow with 2T; no guide code"
    ),
    "design_sweep": (
        "transfer, sensitivity, allan, mission and narrow-band noise: start-up and "
        "import dominate, so import changes show and kernel changes should not"
    ),
}
WORKLOADS = tuple(WHY)


@dataclass
class Invocation:
    """One ``python -m chipgyro.cli`` call and what its answers are checked
    against."""

    slot: str      # unique name within the workload, e.g. "guide.design"
    command: str   # CLI subcommand
    config: str    # path of the generated config file
    expect: dict   # the inputs the answer checks need

    def argv(self, out_dir: str) -> list:
        return [self.command, "--config", self.config, "--out", out_dir]


def _jitter(rng, centre, rel):
    return centre * rng.uniform(1.0 - rel, 1.0 + rel) if rng else centre


def _log_uniform(rng, centre, factor):
    return centre * math.exp(rng.uniform(-math.log(factor), math.log(factor))) if rng else centre


def _write(directory, name, config):
    path = os.path.join(directory, name)
    with open(path, "w") as handle:
        json.dump(config, handle, indent=1)
    return path


def _guide(rng, directory, name, label, loops, span):
    offset = _jitter(rng, 1.5e-2, 0.02)
    config = {
        "geometry": {
            "label": label,
            "offset_B0_T": offset,
            "loops": [{"radius_m": r, "current_A": i, "height_m": 0.0} for r, i in loops],
        },
        "run": {"guide": {"map_n_rho": 101, "map_n_z": 101, "map_span_m": _jitter(rng, span, 0.02)}},
    }
    expect = {"loops": loops, "design": name == "design", "map_rows": 101 * 101}
    return Invocation(f"guide.{name}", "guide", _write(directory, f"guide_{name}.yaml", config), expect)


def _interferometer(rng, two_t, **extra):
    block = {
        "pulse_duration_s": TAU,
        "interrogation_time_s": _jitter(rng, two_t, 0.02),
        "latitude_deg": 48.85,
    }
    block.update(extra)
    return block


def _rotation_table(rng, path):
    """Tabulated rotation PSD: 20 knots per decade from 1e-5 to 1e6 Hz, a
    white-plus-flicker base with a seeded log-normal ripple. The knot count is
    fixed, so the panel count does not depend on the seed."""
    n = 221
    rows = ["f_hz,psd_value"]
    for k in range(n):
        f = 10.0 ** (-5.0 + 11.0 * k / (n - 1))
        ripple = math.exp(0.3 * rng.gauss(0.0, 1.0)) if rng else 1.0
        rows.append(f"{f!r},{1e-20 * (1.0 + 1.0 / f) * ripple!r}")
    with open(path, "w") as handle:
        handle.write("\n".join(rows) + "\n")
    return path


def _noise(rng, directory, case, two_t, noise_block):
    config = {"interferometer": _interferometer(rng, two_t), "noise": noise_block}
    expect = {"case": case, "interferometer": config["interferometer"], "noise": noise_block}
    return Invocation(f"noise.{case}", "noise", _write(directory, f"noise_{case}.yaml", config), expect)


def generate(workload: str, seed, directory: str) -> list:
    """Write the inputs of ``workload`` into ``directory`` and return its
    invocations in pass order. ``seed=None`` gives the centre inputs, which
    do not depend on any seed."""
    rng = random.Random(f"{workload}:{seed}") if seed is not None else None
    os.makedirs(directory, exist_ok=True)
    if workload == "guide_design":
        return [
            _guide(rng, directory, "design", "three-wire-500um", DESIGN_LOOPS, 40e-6),
            _guide(rng, directory, "ring", "three-wire-1mm", RING_LOOPS, 60e-6),
        ]
    if workload == "noise_wideband":
        table = _rotation_table(rng, os.path.join(directory, "rotation_psd.csv"))
        return [
            _noise(rng, directory, "phase_2T1", 1.0,
                   {"domain": "phase", "model": {"white": _log_uniform(rng, 1e-8, 2.0)}}),
            _noise(rng, directory, "accel_2T4", 4.0,
                   {"domain": "acceleration", "model": {"white": _log_uniform(rng, 1e-12, 2.0),
                                                        "flicker": _log_uniform(rng, 1e-12, 2.0)}}),
            _noise(rng, directory, "rotation_tab_2T1", 1.0, {"domain": "rotation", "file": table}),
        ]
    if workload == "design_sweep":
        ai = _interferometer(rng, 4.0, atom_number=_log_uniform(rng, 1e4, 2.0),
                             n_loops=1, dead_time_s=0.0)
        ai["latitude_deg"] = 48.85 + (rng.uniform(-2.0, 2.0) if rng else 0.0)
        noise = {"domain": "phase", "model": {"white": _log_uniform(rng, 1e-8, 2.0)},
                 "band": {"f_min_hz": DEFAULT_F_MIN, "f_max_hz": 1e3}}
        run = {
            "transfer": {"f_min_hz": 1e-3, "f_max_hz": 1e5, "points_per_decade": 250},
            "mission": {"v_over_vr": [2, 4, 8], "target_sigma_rad_s": _jitter(rng, 5.2e-14, 0.1),
                        "integration_time_s": 3.15576e7},
        }
        config = {"interferometer": ai, "noise": noise, "run": run}
        path = _write(directory, "sweep.yaml", config)
        expect = {"interferometer": ai, "noise": noise, "run": run}
        return [Invocation(f"{cmd}.sweep", cmd, path, expect)
                for cmd in ("transfer", "sensitivity", "allan", "mission", "noise")]
    raise ValueError(f"unknown workload {workload!r}; expected one of {WORKLOADS}")
