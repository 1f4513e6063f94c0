"""Command-line front end.

Subcommands emit machine-readable tables (CSV) and JSON records reproducing
the design-case figures: guide characterization and potential map, transfer
function, rotation-rate sensitivity vs interrogation time, Allan deviation,
mission feasibility boundary, and a noise budget from a PSD.

Every output embeds the assumption set it was computed under. Outputs are
deterministic: identical config (including seed) gives bitwise-identical
files. Exit codes: 0 success, 1 config/validation error, 2 physics-domain
error (no guide minimum, infeasible target).
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
import tempfile
from dataclasses import replace

import numpy as np
import yaml

from . import __version__
from .constants import (
    ARW_DEG_SQRT_H_PER_RAD_S_SQRT_HZ,
    AtomSpecies,
    SECONDS_PER_YEAR,
    species_rb87,
)
from .errors import ConfigError, PhysicsError
from .guide import DEFAULT_OFFSET_B0, characterize_guide
from .interferometer import (
    InterferometerConfig,
    corner_frequencies,
    guide_radius_for,
    shot_noise_sensitivity,
    shot_noise_sensitivity_per_sqrt_hz,
    transfer_H,
)
from .magnetostatics import field_modulus, geometry_from_records, design_guide_geometry
from .noise import (
    DEFAULT_F_MIN,
    PowerSpectralDensity,
    acceleration_phase_variance,
    phase_sigma_to_rotation_sigma,
    phase_variance,
    rotation_phase_variance,
)
from .stability import (
    GEODETIC_TARGET_SIGMA,
    assumptions_record,
    projection_allan_curve,
    required_interrogation_time,
)

CONFIG_DIR_ENV = "CHIPGYRO_CONFIG_DIR"
DEFAULT_CONFIG_NAME = "chipgyro.yaml"


def _fmt(x: float) -> str:
    """17-significant-digit float formatting for golden-file stability."""
    return format(float(x), ".17g")


def _atomic_write(path: str, text: str) -> None:
    directory = os.path.dirname(os.path.abspath(path))
    os.makedirs(directory, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".chipgyro-")
    try:
        with os.fdopen(fd, "w") as handle:
            handle.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _write_csv(path: str, header_comments: dict, columns: list, rows) -> None:
    lines = [f"# {key}: {value}" for key, value in header_comments.items()]
    lines.append(",".join(columns))
    for row in rows:
        lines.append(",".join(_fmt(v) if isinstance(v, float) else str(v) for v in row))
    _atomic_write(path, "\n".join(lines) + "\n")


def _write_json(path: str, record: dict) -> None:
    _atomic_write(path, json.dumps(record, indent=2, sort_keys=True) + "\n")


# ---------------------------------------------------------------------------
# config handling


def _set_dotted(config: dict, dotted: str, raw_value: str) -> None:
    keys = dotted.split(".")
    node = config
    for key in keys[:-1]:
        node = node.setdefault(key, {})
        if not isinstance(node, dict):
            raise ConfigError(f"override path {dotted!r} crosses a non-mapping node at {key!r}")
    node[keys[-1]] = yaml.safe_load(raw_value)


def load_config(path: str, overrides=()) -> dict:
    try:
        with open(path) as handle:
            config = yaml.safe_load(handle) or {}
    except FileNotFoundError:
        raise ConfigError(f"config file not found: {path}") from None
    except yaml.YAMLError as exc:
        raise ConfigError(f"config file {path} is not valid YAML: {exc}") from None
    if not isinstance(config, dict):
        raise ConfigError(f"config file {path} must contain a mapping at top level")
    for item in overrides:
        if "=" not in item:
            raise ConfigError(f"override {item!r} must look like key.path=value")
        dotted, raw = item.split("=", 1)
        _set_dotted(config, dotted, raw)
    return config


def _finite_float(block: dict, key: str, default, where: str) -> float:
    value = block.get(key, default)
    try:
        number = float(value)
    except (TypeError, ValueError):
        number = math.nan
    if isinstance(value, bool) or not math.isfinite(number):
        raise ConfigError(f"{where}.{key} must be a finite number, got {value!r}")
    return number


def _positive_int(block: dict, key: str, default: int, where: str) -> int:
    number = _finite_float(block, key, default, where)
    if number < 1 or number != int(number):
        raise ConfigError(f"{where}.{key} must be an integer >= 1, got {block.get(key, default)!r}")
    return int(number)


def _species_from_config(config: dict) -> AtomSpecies:
    block = config.get("species", {}) or {}
    name = str(block.get("name", "rb87")).lower()
    if {"mass_kg", "wavelength_m", "magnetic_moment_J_T"} <= set(block):
        return AtomSpecies(
            name=block.get("name", "custom"),
            mass=float(block["mass_kg"]),
            wavelength=float(block["wavelength_m"]),
            magnetic_moment=float(block["magnetic_moment_J_T"]),
        )
    if name == "rb87":
        return species_rb87()
    raise ConfigError(
        f"species.name: unknown species {name!r}; give rb87 or explicit "
        "mass_kg/wavelength_m/magnetic_moment_J_T"
    )


def _geometry_from_config(config: dict):
    block = config.get("geometry", {}) or {}
    offset_b0 = _finite_float(block, "offset_B0_T", DEFAULT_OFFSET_B0, "geometry")
    records = block.get("loops")
    if records is None:
        return design_guide_geometry(), offset_b0
    return geometry_from_records(records, label=str(block.get("label", ""))), offset_b0


def _interferometer_from_config(config: dict) -> InterferometerConfig:
    block = config.get("interferometer", {}) or {}
    species = _species_from_config(config)
    has_two_t = "interrogation_time_s" in block
    has_radius = "guide_radius_m" in block
    if has_two_t and has_radius:
        raise ConfigError(
            "interferometer: give exactly one of interrogation_time_s or guide_radius_m"
        )
    n_loops = int(block.get("n_loops", 1))
    v_over_vr = float(block.get("v_launch_over_vr", 1.0))
    if has_radius:
        radius = float(block["guide_radius_m"])
        two_t = n_loops * math.pi * radius / species.recoil_velocity
    else:
        two_t = float(block.get("interrogation_time_s", 4.0))
        radius = guide_radius_for(species, two_t, n_loops)
    return InterferometerConfig(
        species=species,
        pulse_duration=float(block.get("pulse_duration_s", 20e-6)),
        interrogation_time=two_t,
        guide_radius=radius,
        n_loops=n_loops,
        atom_number=float(block.get("atom_number", 1e4)),
        contrast=float(block.get("contrast", 1.0)),
        latitude=math.radians(float(block.get("latitude_deg", 90.0))),
        squeezing=float(block.get("squeezing", 1.0)),
        cycle_dead_time=float(block.get("dead_time_s", 0.0)),
        launch_velocity=v_over_vr * species.recoil_velocity,
    )


def _psd_from_config(config: dict) -> PowerSpectralDensity:
    block = config.get("noise", {}) or {}
    domain = block.get("domain")
    if domain is None:
        raise ConfigError("noise.domain is required (phase | acceleration | rotation)")
    if "file" in block:
        return PowerSpectralDensity.from_csv(block["file"], domain=domain)
    model = block.get("model", {}) or {}
    return PowerSpectralDensity(
        domain=domain,
        white=float(model.get("white", 0.0)),
        flicker=float(model.get("flicker", 0.0)),
        random_walk=float(model.get("random_walk", 0.0)),
    )


def _band_from_config(config: dict, ai: InterferometerConfig) -> tuple:
    block = (config.get("noise", {}) or {}).get("band", {}) or {}
    f_min = float(block.get("f_min_hz", DEFAULT_F_MIN))
    f_max = float(block.get("f_max_hz", 10.0 / ai.pulse_duration))
    return f_min, f_max


# ---------------------------------------------------------------------------
# subcommands


def cmd_guide(config: dict, out_dir: str) -> dict:
    geometry, offset_b0 = _geometry_from_config(config)
    species = _species_from_config(config)
    run = (config.get("run", {}) or {}).get("guide", {}) or {}
    n_rho = _positive_int(run, "map_n_rho", 101, "run.guide")
    n_z = _positive_int(run, "map_n_z", 101, "run.guide")
    span = _finite_float(run, "map_span_m", 40e-6, "run.guide")
    if span <= 0:
        raise ConfigError(f"run.guide.map_span_m must be > 0, got {span!r}")
    characterization = characterize_guide(geometry, species, offset_B0=offset_b0)

    record = characterization.as_record()
    record["species"] = species.name
    record["loops"] = [
        {"radius_m": l.radius, "current_A": l.current, "height_m": l.height}
        for l in geometry.loops
    ]
    json_path = os.path.join(out_dir, "guide_characterization.json")
    _write_json(json_path, record)

    rho0, z0 = characterization.min_position
    rho = np.linspace(rho0 - span, rho0 + span, n_rho)
    z = np.linspace(max(z0 - span, 1e-7), z0 + span, n_z)
    RR, ZZ = np.meshgrid(rho, z, indexing="ij")
    U = species.magnetic_moment * np.sqrt(
        field_modulus(geometry, RR, ZZ) ** 2 + offset_b0 ** 2
    )
    rows = [
        (float(RR[i, j]), float(ZZ[i, j]), float(U[i, j]))
        for i in range(n_rho)
        for j in range(n_z)
    ]
    map_path = os.path.join(out_dir, "potential_map.csv")
    _write_csv(
        map_path,
        {"offset_B0_T": _fmt(offset_b0), "species": species.name},
        ["rho_m", "z_m", "potential_J"],
        rows,
    )
    return {
        "outputs": [json_path, map_path],
        "z0_m": characterization.min_position[1],
        "radial_frequency_Hz": characterization.radial_frequency,
    }


def _transfer_grid(f_min: float, f_max: float, points_per_decade: int, config_ai) -> np.ndarray:
    decades_lo = math.log10(f_min)
    n_points = int(round((math.log10(f_max) - decades_lo) * points_per_decade)) + 1
    exponents = decades_lo + np.arange(n_points) / points_per_decade
    base = 10.0 ** exponents
    # pin the pulse-duration zeros onto the grid so the notch depth is exact
    tau = config_ai.pulse_duration
    n_zero = np.arange(1, int(math.floor(f_max * tau)) + 1, dtype=float)
    grid = np.unique(np.concatenate([base, n_zero / tau]))
    return grid[(grid >= f_min) & (grid <= f_max)]


def cmd_transfer(config: dict, out_dir: str) -> dict:
    ai = _interferometer_from_config(config)
    run = (config.get("run", {}) or {}).get("transfer", {}) or {}
    f_min = float(run.get("f_min_hz", 1e-3))
    f_max = float(run.get("f_max_hz", 1e5))
    ppd = int(run.get("points_per_decade", 250))
    grid = _transfer_grid(f_min, f_max, ppd, ai)
    H = transfer_H(grid, ai)
    f_hp, f_lp = corner_frequencies(ai)
    path = os.path.join(out_dir, "transfer.csv")
    _write_csv(
        path,
        {
            "pulse_duration_s": _fmt(ai.pulse_duration),
            "interrogation_time_s": _fmt(ai.interrogation_time),
            "f_HP_hz": _fmt(f_hp),
            "f_LP_hz": _fmt(f_lp),
        },
        ["f_hz", "abs_H", "abs_H_sq"],
        ((float(f), float(a), float(a * a)) for f, a in zip(grid, np.abs(H))),
    )
    return {"outputs": [path], "f_HP_hz": f_hp, "f_LP_hz": f_lp}


def cmd_sensitivity(config: dict, out_dir: str) -> dict:
    ai = _interferometer_from_config(config)
    run = (config.get("run", {}) or {}).get("sensitivity", {}) or {}
    two_t_grid = np.geomspace(
        float(run.get("two_t_min_s", 0.1)),
        float(run.get("two_t_max_s", 10.0)),
        int(run.get("n_points", 61)),
    )
    atom_numbers = [float(n) for n in run.get("atom_numbers", [1e4, 1e5])]
    rows = []
    for n_atoms in atom_numbers:
        for two_t in two_t_grid:
            cfg = replace(
                ai,
                interrogation_time=float(two_t),
                guide_radius=guide_radius_for(ai.species, float(two_t), ai.n_loops),
                atom_number=n_atoms,
            )
            per_shot = shot_noise_sensitivity(cfg)
            rows.append(
                (
                    float(two_t),
                    n_atoms,
                    per_shot,
                    shot_noise_sensitivity_per_sqrt_hz(cfg),
                    per_shot * ARW_DEG_SQRT_H_PER_RAD_S_SQRT_HZ,
                )
            )
    path = os.path.join(out_dir, "sensitivity.csv")
    meta = {f"assumption_{k}": v for k, v in assumptions_record(ai).items()}
    meta["convention"] = "per-shot reading; ARW converts the per-shot figure"
    _write_csv(
        path,
        meta,
        ["two_T_s", "atom_number", "delta_omega_rad_s", "delta_omega_rad_s_sqrt_hz", "arw_deg_sqrt_h"],
        rows,
    )
    return {"outputs": [path]}


def cmd_allan(config: dict, out_dir: str) -> dict:
    ai = _interferometer_from_config(config)
    run = (config.get("run", {}) or {}).get("allan", {}) or {}
    taus = np.geomspace(
        float(run.get("tau_min_s", ai.cycle_time)),
        float(run.get("tau_max_s", SECONDS_PER_YEAR)),
        int(run.get("n_points", 61)),
    )
    curve = projection_allan_curve(ai, taus)
    csv_path = os.path.join(out_dir, "allan.csv")
    _write_csv(csv_path, {"model": curve.model_tag}, ["tau_s", "sigma_rad_s"], curve.points)
    json_path = os.path.join(out_dir, "allan_assumptions.json")
    _write_json(json_path, {"model": curve.model_tag, "assumptions": curve.assumptions})
    return {"outputs": [csv_path, json_path]}


def cmd_mission(config: dict, out_dir: str) -> dict:
    ai = _interferometer_from_config(config)
    run = (config.get("run", {}) or {}).get("mission", {}) or {}
    v_over_vr = [float(v) for v in run.get("v_over_vr", [1, 2, 3, 4, 6, 8, 12, 16])]
    target = float(run.get("target_sigma_rad_s", GEODETIC_TARGET_SIGMA))
    integration = float(run.get("integration_time_s", SECONDS_PER_YEAR))
    v_r = ai.species.recoil_velocity
    rows = []
    for ratio in v_over_vr:
        two_t, radius = required_interrogation_time(target, integration, ratio * v_r, ai)
        rows.append((ratio, two_t, radius))
    path = os.path.join(out_dir, "mission.csv")
    meta = {f"assumption_{k}": v for k, v in assumptions_record(ai).items()}
    meta["target_sigma_rad_s"] = _fmt(target)
    meta["integration_time_s"] = _fmt(integration)
    _write_csv(path, meta, ["v_over_vr", "min_2T_s", "R_m"], rows)
    return {"outputs": [path]}


def cmd_noise(config: dict, out_dir: str) -> dict:
    ai = _interferometer_from_config(config)
    psd = _psd_from_config(config)
    f_min, f_max = _band_from_config(config, ai)
    if psd.domain == "phase":
        result = phase_variance(psd, ai, f_min=f_min, f_max=f_max)
    elif psd.domain == "acceleration":
        result = acceleration_phase_variance(psd, ai, f_min=f_min, f_max=f_max)
    else:
        result = rotation_phase_variance(psd, ai, f_min=f_min, f_max=f_max)
    sigma_phi = result.sigma
    record = {
        "entries": [
            {
                "domain": psd.domain,
                "variance_rad2": result.value,
                "sigma_phi_rad": sigma_phi,
                "sigma_omega_rad_s": phase_sigma_to_rotation_sigma(sigma_phi, ai),
                "result": result.as_record(),
            }
        ],
        "assumptions": assumptions_record(ai),
    }
    path = os.path.join(out_dir, "noise_budget.json")
    _write_json(path, record)
    return {"outputs": [path], "sigma_phi_rad": sigma_phi}


COMMANDS = {
    "guide": cmd_guide,
    "transfer": cmd_transfer,
    "sensitivity": cmd_sensitivity,
    "allan": cmd_allan,
    "mission": cmd_mission,
    "noise": cmd_noise,
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="chipgyro",
        description="Atom-chip guided Sagnac gyroscope design and noise-budget toolkit",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)
    for name in COMMANDS:
        p = sub.add_parser(name)
        p.add_argument("--config", default=None, help="YAML config file path")
        p.add_argument("--out", default=".", help="output directory")
        p.add_argument(
            "--override",
            action="append",
            default=[],
            metavar="KEY.PATH=VALUE",
            help="dot-path config override, repeatable",
        )
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    config_path = args.config
    if config_path is None:
        config_dir = os.environ.get(CONFIG_DIR_ENV, ".")
        config_path = os.path.join(config_dir, DEFAULT_CONFIG_NAME)
    try:
        config = load_config(config_path, overrides=args.override)
        summary = COMMANDS[args.command](config, args.out)
    except ConfigError as exc:
        print(json.dumps({"command": args.command, "status": "config-error", "error": str(exc)}))
        return 1
    except PhysicsError as exc:
        print(json.dumps({"command": args.command, "status": "physics-error", "error": str(exc)}))
        return 2
    summary = {"command": args.command, "status": "ok", **summary}
    print(json.dumps(summary, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
