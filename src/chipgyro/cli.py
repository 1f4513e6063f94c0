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

from . import __version__, noise
from .constants import (
    ARW_DEG_SQRT_H_PER_RAD_S_SQRT_HZ,
    AtomSpecies,
    SECONDS_PER_YEAR,
    species_rb87,
)
from .errors import ConfigError, PhysicsError
from .guide import DEFAULT_OFFSET_B0, characterize_guide, trap_potential
from .interferometer import (
    InterferometerConfig,
    corner_frequencies,
    guide_radius_for,
    shot_noise_sensitivity,
    shot_noise_sensitivity_per_sqrt_hz,
    transfer_H_abs2,
)
from .magnetostatics import geometry_from_records, design_guide_geometry
from .noise import DEFAULT_F_MIN, PowerSpectralDensity, phase_sigma_to_rotation_sigma
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
    tmp = None
    try:
        os.makedirs(directory, exist_ok=True)
        fd, tmp = tempfile.mkstemp(dir=directory, prefix=".chipgyro-")
        with os.fdopen(fd, "w") as handle:
            handle.write(text)
        os.replace(tmp, path)
    except OSError as exc:
        raise ConfigError(f"cannot write output file {path}: {exc}") from None
    finally:
        if tmp is not None and os.path.exists(tmp):
            os.unlink(tmp)


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
        if node.get(key) is None:
            # a null section reads as empty, as in resolve_config
            node[key] = {}
        node = node[key]
        if not isinstance(node, dict):
            raise ConfigError(f"override path {dotted!r} crosses a non-mapping node at {key!r}")
    try:
        node[keys[-1]] = yaml.safe_load(raw_value)
    except yaml.YAMLError as exc:
        raise ConfigError(f"override {dotted}={raw_value} is not valid YAML: {exc}") from None


def load_config(path: str, overrides=()) -> dict:
    try:
        with open(path, encoding="utf-8") as handle:
            config = yaml.safe_load(handle) or {}
    except FileNotFoundError:
        raise ConfigError(f"config file not found: {path}") from None
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot read config file {path}: {exc}") from None
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


# Kinds of config value; the names are also the error messages' wording.
NUMBER, POSITIVE, COUNT = "finite number", "finite number > 0", "integer >= 1"
NON_NEGATIVE = "finite number >= 0"
STRING, LIST, POSITIVES = "string", "non-empty list", "non-empty list of numbers > 0"
# Every config key the CLI reads: dotted path -> (kind, default). A default
# of None means "not given": the one subcommand that reads the key derives
# its value from other inputs or reports it missing.
SCHEMA = {
    "species.name": (STRING, None),
    "species.mass_kg": (POSITIVE, None),
    "species.wavelength_m": (POSITIVE, None),
    "species.magnetic_moment_J_T": (POSITIVE, None),
    "geometry.label": (STRING, ""),
    "geometry.offset_B0_T": (NUMBER, DEFAULT_OFFSET_B0),
    "geometry.loops": (LIST, None),
    "interferometer.pulse_duration_s": (POSITIVE, 20e-6),
    "interferometer.interrogation_time_s": (POSITIVE, None),
    "interferometer.guide_radius_m": (POSITIVE, None),
    "interferometer.n_loops": (COUNT, 1),
    "interferometer.atom_number": (POSITIVE, 1e4),
    "interferometer.contrast": (POSITIVE, 1.0),
    "interferometer.latitude_deg": (NUMBER, 90.0),
    "interferometer.squeezing": (POSITIVE, 1.0),
    "interferometer.dead_time_s": (NUMBER, 0.0),
    "interferometer.v_launch_over_vr": (POSITIVE, 1.0),
    "noise.domain": (STRING, None),
    "noise.file": (STRING, None),
    "noise.model.white": (NUMBER, None),
    "noise.model.flicker": (NUMBER, None),
    "noise.model.random_walk": (NUMBER, None),
    "noise.band.f_min_hz": (NON_NEGATIVE, DEFAULT_F_MIN),
    "noise.band.f_max_hz": (NUMBER, None),
    "run.guide.map_n_rho": (COUNT, 101),
    "run.guide.map_n_z": (COUNT, 101),
    "run.guide.map_span_m": (POSITIVE, 40e-6),
    "run.transfer.f_min_hz": (POSITIVE, 1e-3),
    "run.transfer.f_max_hz": (POSITIVE, 1e5),
    "run.transfer.points_per_decade": (COUNT, 250),
    "run.sensitivity.two_t_min_s": (POSITIVE, 0.1),
    "run.sensitivity.two_t_max_s": (POSITIVE, 10.0),
    "run.sensitivity.n_points": (COUNT, 61),
    "run.sensitivity.atom_numbers": (POSITIVES, [1e4, 1e5]),
    "run.allan.tau_min_s": (POSITIVE, None),
    "run.allan.tau_max_s": (POSITIVE, SECONDS_PER_YEAR),
    "run.allan.n_points": (COUNT, 61),
    "run.mission.v_over_vr": (POSITIVES, [1.0, 2.0, 3.0, 4.0, 6.0, 8.0, 12.0, 16.0]),
    "run.mission.target_sigma_rad_s": (POSITIVE, GEODETIC_TARGET_SIGMA),
    "run.mission.integration_time_s": (POSITIVE, SECONDS_PER_YEAR),
}
_SECTIONS = {path[:i] for path in SCHEMA for i, char in enumerate(path) if char == "."}


def _check(path: str, kind: str, value):
    """``value`` as a ``kind``; ConfigError naming ``path`` if it is not one."""
    if kind == STRING and isinstance(value, str):
        return value
    if kind in (LIST, POSITIVES) and isinstance(value, list) and value:
        if kind == LIST:
            return value
        return [_check(f"{path}[{i}]", POSITIVE, item) for i, item in enumerate(value)]
    if kind in (NUMBER, POSITIVE, NON_NEGATIVE, COUNT) and not isinstance(value, bool):
        try:
            # numeric strings count: YAML 1.1 reads 20e-6 (no dot) as a string
            number = float(value)
        except (TypeError, ValueError, OverflowError):
            number = math.nan
        in_range = kind == NUMBER or number > 0 or (kind == NON_NEGATIVE and number == 0)
        if math.isfinite(number) and in_range:
            if kind != COUNT:
                return number
            if number == int(number):
                return int(number)
    raise ConfigError(f"{path}: expected {kind}, got {value!r}")


def resolve_config(config: dict) -> dict:
    """Check a loaded config against SCHEMA in one walk.

    Returns {dotted path: checked value} for every key of the table, with
    defaults filled in. A null value, or a null section such as ``species:``
    with nothing under it, reads as not given. Raises ConfigError naming the
    dotted path for an unknown key or a value of the wrong kind.
    """
    resolved = {path: default for path, (_, default) in SCHEMA.items()}

    def walk(block: dict, prefix: str) -> None:
        for key, value in block.items():
            path = f"{prefix}{key}"
            if path in SCHEMA:
                if value is not None:
                    resolved[path] = _check(path, SCHEMA[path][0], value)
            elif isinstance(value, dict) or (value is None and path in _SECTIONS):
                walk(value or {}, f"{path}.")
            elif path in _SECTIONS:
                raise ConfigError(f"{path}: expected mapping, got {value!r}")
            else:
                import difflib  # only on the error path

                hint = difflib.get_close_matches(path, [*SCHEMA, *_SECTIONS], n=1)
                suggestion = f"; did you mean {hint[0]!r}?" if hint else ""
                raise ConfigError(f"unknown config key {path!r}{suggestion}")

    walk(config, "")
    return resolved


def _species_from_config(config: dict) -> AtomSpecies:
    name = config["species.name"]
    keys = ("species.mass_kg", "species.wavelength_m", "species.magnetic_moment_J_T")
    explicit = [config[key] for key in keys]
    if None not in explicit:
        return AtomSpecies(name if name is not None else "custom", *explicit)
    if explicit == [None, None, None] and (name is None or name.lower() == "rb87"):
        return species_rb87()
    raise ConfigError(
        f"species: give name rb87 or all of {', '.join(keys)} "
        f"(got name {name!r} and {3 - explicit.count(None)} of the three fields)"
    )


def _interferometer_from_config(config: dict) -> InterferometerConfig:
    species = _species_from_config(config)
    two_t = config["interferometer.interrogation_time_s"]
    radius = config["interferometer.guide_radius_m"]
    if two_t is not None and radius is not None:
        raise ConfigError(
            "interferometer: give exactly one of interrogation_time_s or guide_radius_m"
        )
    n_loops = config["interferometer.n_loops"]
    settings = dict(
        species=species,
        n_loops=n_loops,
        pulse_duration=config["interferometer.pulse_duration_s"],
        atom_number=config["interferometer.atom_number"],
        contrast=config["interferometer.contrast"],
        latitude=math.radians(config["interferometer.latitude_deg"]),
        squeezing=config["interferometer.squeezing"],
        cycle_dead_time=config["interferometer.dead_time_s"],
        launch_velocity=config["interferometer.v_launch_over_vr"] * species.recoil_velocity,
    )
    if radius is not None:
        return InterferometerConfig.from_geometry(guide_radius=radius, **settings)
    two_t = 4.0 if two_t is None else two_t
    return InterferometerConfig(
        interrogation_time=two_t, guide_radius=guide_radius_for(species, two_t, n_loops), **settings
    )


# ---------------------------------------------------------------------------
# subcommands


def cmd_guide(config: dict, out_dir: str) -> dict:
    records = config["geometry.loops"]
    if records is None:
        geometry = design_guide_geometry()
    else:
        geometry = geometry_from_records(records, label=config["geometry.label"])
    offset_b0 = config["geometry.offset_B0_T"]
    species = _species_from_config(config)
    span = config["run.guide.map_span_m"]
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
    rho = np.linspace(rho0 - span, rho0 + span, config["run.guide.map_n_rho"])
    z = np.linspace(max(z0 - span, 1e-7), z0 + span, config["run.guide.map_n_z"])
    RR, ZZ = np.meshgrid(rho, z, indexing="ij")
    U = trap_potential(geometry, species, RR, ZZ, offset_b0)
    rows = zip(RR.ravel().tolist(), ZZ.ravel().tolist(), U.ravel().tolist())
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
    f_min, f_max = config["run.transfer.f_min_hz"], config["run.transfer.f_max_hz"]
    if f_max <= f_min:
        raise ConfigError(f"run.transfer.f_max_hz must be > f_min_hz, got {f_max} <= {f_min}")
    grid = _transfer_grid(f_min, f_max, config["run.transfer.points_per_decade"], ai)
    abs2 = transfer_H_abs2(grid, ai)
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
        zip(grid.tolist(), np.sqrt(abs2).tolist(), abs2.tolist()),
    )
    return {"outputs": [path], "f_HP_hz": f_hp, "f_LP_hz": f_lp}


def cmd_sensitivity(config: dict, out_dir: str) -> dict:
    ai = _interferometer_from_config(config)
    two_t_min = config["run.sensitivity.two_t_min_s"]
    two_t_max = config["run.sensitivity.two_t_max_s"]
    if two_t_max <= two_t_min:
        raise ConfigError(
            "run.sensitivity.two_t_max_s must be > run.sensitivity.two_t_min_s, "
            f"got {two_t_max} <= {two_t_min}"
        )
    two_t_grid = np.geomspace(two_t_min, two_t_max, config["run.sensitivity.n_points"])
    rows = []
    for n_atoms in config["run.sensitivity.atom_numbers"]:
        for two_t in two_t_grid:
            cfg = replace(ai.with_interrogation_time(float(two_t)), atom_number=n_atoms)
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
    tau_min = config["run.allan.tau_min_s"]
    taus = np.geomspace(
        ai.cycle_time if tau_min is None else tau_min,
        config["run.allan.tau_max_s"],
        config["run.allan.n_points"],
    )
    curve = projection_allan_curve(ai, taus)
    csv_path = os.path.join(out_dir, "allan.csv")
    _write_csv(csv_path, {"model": curve.model_tag}, ["tau_s", "sigma_rad_s"], curve.points)
    json_path = os.path.join(out_dir, "allan_assumptions.json")
    _write_json(json_path, {"model": curve.model_tag, "assumptions": curve.assumptions})
    return {"outputs": [csv_path, json_path]}


def cmd_mission(config: dict, out_dir: str) -> dict:
    ai = _interferometer_from_config(config)
    target = config["run.mission.target_sigma_rad_s"]
    integration = config["run.mission.integration_time_s"]
    v_r = ai.species.recoil_velocity
    rows = []
    for ratio in config["run.mission.v_over_vr"]:
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
    domain = config["noise.domain"]
    if domain is None:
        raise ConfigError("noise.domain is required (phase | acceleration | rotation)")
    model = {key: config[f"noise.model.{key}"] for key in ("white", "flicker", "random_walk")}
    given = ", ".join(f"noise.model.{key}" for key, value in model.items() if value is not None)
    if config["noise.file"] is not None:
        psd = PowerSpectralDensity.from_csv(config["noise.file"], domain=domain)
        if given:
            raise ConfigError(f"give noise.file or noise.model, not both; got {given} too")
    else:
        model = {key: 0.0 if value is None else value for key, value in model.items()}
        psd = PowerSpectralDensity(domain=domain, **model)
    # looked up on the module at call time, so a patched or traced function is the one called
    result = noise.phase_variance(
        psd, ai, f_min=config["noise.band.f_min_hz"], f_max=config["noise.band.f_max_hz"]
    )
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
        config = resolve_config(load_config(config_path, overrides=args.override))
        if config["noise.file"] is not None:
            # a relative PSD path is read from the config file's directory
            config["noise.file"] = os.path.join(os.path.dirname(config_path), config["noise.file"])
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
