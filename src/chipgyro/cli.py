"""Command-line front end.

Subcommands emit machine-readable tables (CSV) and JSON records reproducing
the design-case figures: guide characterization and potential map, transfer
function, rotation-rate sensitivity vs interrogation time, Allan deviation,
mission feasibility boundary, and a noise budget from a PSD.

Each subcommand is a stage ``cmd_*(config) -> (files, summary)`` that only
computes; ``main`` writes the files into ``--out`` once the stage has
returned, so a stage that fails writes no file. Every output embeds the
assumption set it was computed under, and its provenance: a JSON record
carries a ``provenance`` block (``version``, the resolved ``config``,
``config_sha256`` of ``json.dumps(config, sort_keys=True,
separators=(",", ":"))`` and, when ``noise.file`` is set, ``psd_file_sha256``
of its bytes); a CSV file starts with the version and the config hash.
Outputs are deterministic: identical config (including seed) gives
bitwise-identical files. Exit codes: 0 success, 1 config/validation error,
2 physics-domain error (no guide minimum, infeasible target, a value past the
float range), 3 environment error (a compiled scipy module missing).
"""

from __future__ import annotations

import argparse
import gc
import itertools
import json
import math
import os
import sys
import tempfile
from dataclasses import asdict, replace

import numpy as np
import yaml

from . import __version__
from .constants import (
    ARW_DEG_SQRT_H_PER_RAD_S_SQRT_HZ,
    AtomSpecies,
    DEFAULT_F_MIN,
    DEFAULT_OFFSET_B0,
    DOMAINS,
    GEODETIC_TARGET_SIGMA,
    SECONDS_PER_YEAR,
    species_rb87,
)
from .errors import ConfigError, PhysicsError

CONFIG_DIR_ENV = "CHIPGYRO_CONFIG_DIR"
DEFAULT_CONFIG_NAME = "chipgyro.yaml"
MAX_TABLE_ROWS = 10**6  # rows one output table may hold; checked before its arrays are built


def _fmt(x: float) -> str:
    """17-significant-digit float formatting for golden-file stability."""
    return format(float(x), ".17g")


def _csv(header_comments: dict, columns: list, rows) -> tuple:
    """CSV spec of number ``rows``: header comments, column names and one
    line per row. Each cell is printed by "%.17g", the routine behind
    ``format(x, ".17g")``; an int of magnitude up to 2**53 prints as ``str``
    prints it."""
    template = ",".join(["%.17g"] * len(columns)) + "\n"
    return header_comments, columns, (template % tuple(row) for row in rows)


def _check_rows(rows, keys: str) -> None:
    """ConfigError naming ``keys`` when they ask for more than MAX_TABLE_ROWS rows."""
    if not rows <= MAX_TABLE_ROWS:
        raise ConfigError(f"{keys} ask for {rows} table rows, over MAX_TABLE_ROWS = {MAX_TABLE_ROWS}")


def _json_text(content, name: str, **kwargs) -> str:
    """``json.dumps(content, **kwargs)`` as valid JSON: a NaN or infinity,
    which ``json`` would write as NaN or Infinity, raises PhysicsError naming
    ``name``."""
    try:
        return json.dumps(content, allow_nan=False, **kwargs)
    except ValueError:
        raise PhysicsError(f"{name} would hold a non-finite number, which JSON cannot represent") from None


def _write_files(out_dir: str, files: dict, config: dict) -> None:
    """Write a stage's ``files`` into ``out_dir``, each under its name. A
    name maps to a JSON record, which gains the ``provenance`` block of the
    resolved ``config``, or to a CSV spec (header comments, column names, an
    iterator of lines, streamed), which gains the version and config hash.
    Files are renamed into place only once all are written, so an error
    leaves none behind."""
    import hashlib  # only on the path that writes

    canonical = json.dumps(config, sort_keys=True, separators=(",", ":"))
    config_sha256 = hashlib.sha256(canonical.encode()).hexdigest()
    provenance = {"version": __version__, "config": config, "config_sha256": config_sha256}
    if config["noise.file"] is not None:
        try:
            with open(config["noise.file"], "rb") as handle:
                provenance["psd_file_sha256"] = hashlib.sha256(handle.read()).hexdigest()
        except OSError as exc:
            raise ConfigError(f"cannot read PSD file {config['noise.file']}: {exc}") from None
    stamp = {"chipgyro_version": __version__, "config_sha256": config_sha256}
    paths, pending, path = [], [], out_dir
    try:
        os.makedirs(out_dir or ".", exist_ok=True)
        for name, content in files.items():
            path = os.path.join(out_dir, name)
            if isinstance(content, dict):
                content = {**content, "provenance": provenance}
                chunks = [_json_text(content, path, indent=2, sort_keys=True) + "\n"]
            else:
                header_comments, columns, lines = content
                head = [f"# {key}: {value}\n" for key, value in {**stamp, **header_comments}.items()]
                chunks = itertools.chain(head, [",".join(columns) + "\n"], lines)
            fd, tmp = tempfile.mkstemp(dir=os.path.abspath(out_dir), prefix=".chipgyro-")
            pending.append(tmp)
            with os.fdopen(fd, "w") as handle:
                handle.writelines(chunks)
            paths.append(path)
        for tmp, path in zip(pending, paths):
            os.replace(tmp, path)
    except OSError as exc:
        raise ConfigError(f"cannot write output file {path}: {exc}") from None
    finally:
        for tmp in pending:
            if os.path.exists(tmp):
                os.unlink(tmp)


# ---------------------------------------------------------------------------
# config handling


class _UniqueKeyLoader(yaml.SafeLoader):
    """yaml.SafeLoader that refuses a mapping key given twice; keys a merge key (<<) brings in aside."""

    def construct_mapping(self, node, deep=False):
        seen = []
        for key_node in (key for key, _ in node.value if key.tag != "tag:yaml.org,2002:merge"):
            seen.append(self.construct_object(key_node, deep=deep))
            if seen[-1] in seen[:-1]:
                problem = f"found duplicate key {seen[-1]!r}"
                raise yaml.constructor.ConstructorError(None, None, problem, key_node.start_mark)
        return super().construct_mapping(node, deep)


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
        node[keys[-1]] = yaml.load(raw_value, Loader=_UniqueKeyLoader)
    except yaml.YAMLError as exc:
        raise ConfigError(f"override {dotted}={raw_value} is not valid YAML: {exc}") from None


def load_config(path: str, overrides=()) -> dict:
    try:
        with open(path, encoding="utf-8") as handle:
            config = yaml.load(handle, Loader=_UniqueKeyLoader)
    except FileNotFoundError:
        raise ConfigError(f"config file not found: {path}") from None
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot read config file {path}: {exc}") from None
    except yaml.YAMLError as exc:
        raise ConfigError(f"config file {path} is not valid YAML: {exc}") from None
    if config is None:  # an empty file
        config = {}
    elif not isinstance(config, dict):
        raise ConfigError(f"config file {path} must contain a mapping at top level")
    for item in overrides:
        if "=" not in item:
            raise ConfigError(f"override {item!r} must look like key.path=value")
        dotted, raw = item.split("=", 1)
        _set_dotted(config, dotted, raw)
    return config


# Kinds of config value, named as the error messages word them; a tuple is a choice.
NUMBER, POSITIVE, COUNT = "finite number", "finite number > 0", "integer >= 1"
NON_NEGATIVE, FRACTION, LOOP = "finite number >= 0", "finite number in (0, 1]", "mapping"
LATITUDE = "finite number in [-90, 90]"
STRING, LOOPS, POSITIVES = "string", "non-empty list of loops", "non-empty list of numbers > 0"
# Every config key the CLI reads: dotted path -> (kind, default). A default
# of None means "not given": the one subcommand that reads the key derives
# its value from other inputs or reports it missing.
SCHEMA = {
    "species.name": (STRING, None),
    "species.mass_kg": (POSITIVE, None),
    "species.wavelength_m": (POSITIVE, None),
    "species.magnetic_moment_J_T": (POSITIVE, None),
    "geometry.label": (STRING, ""),
    "geometry.offset_B0_T": (NON_NEGATIVE, DEFAULT_OFFSET_B0),
    "geometry.loops": (LOOPS, None),
    "interferometer.pulse_duration_s": (POSITIVE, 20e-6),
    "interferometer.interrogation_time_s": (POSITIVE, None),
    "interferometer.guide_radius_m": (POSITIVE, None),
    "interferometer.n_loops": (COUNT, 1),
    "interferometer.atom_number": (POSITIVE, 1e4),
    "interferometer.contrast": (FRACTION, 1.0),
    "interferometer.latitude_deg": (LATITUDE, 90.0),
    "interferometer.squeezing": (FRACTION, 1.0),
    "interferometer.dead_time_s": (NON_NEGATIVE, 0.0),
    "interferometer.v_launch_over_vr": (POSITIVE, 1.0),
    "noise.domain": (DOMAINS, None),
    "noise.file": (STRING, None),
    "noise.model.white": (NON_NEGATIVE, None),
    "noise.model.flicker": (NON_NEGATIVE, None),
    "noise.model.random_walk": (NON_NEGATIVE, None),
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
# The fields of each geometry.loops item, as SCHEMA; a default of None marks
# a required field.
LOOP_FIELDS = {
    "radius_m": (POSITIVE, None),
    "current_A": (NUMBER, None),
    "height_m": (NUMBER, 0.0),
}
# (lower, upper) keys that must satisfy lower < upper when both are given.
PAIRS = (
    ("run.transfer.f_min_hz", "run.transfer.f_max_hz"),
    ("run.sensitivity.two_t_min_s", "run.sensitivity.two_t_max_s"),
    ("noise.band.f_min_hz", "noise.band.f_max_hz"),
)


def _check(path: str, kind, value):
    """``value`` as a ``kind``; ConfigError naming ``path`` if it is not one."""
    if (kind == STRING and isinstance(value, str)) or (isinstance(kind, tuple) and value in kind):
        return value
    if kind in (LOOPS, POSITIVES) and isinstance(value, list) and value:
        item_kind = LOOP if kind == LOOPS else POSITIVE
        return [_check(f"{path}[{i}]", item_kind, item) for i, item in enumerate(value)]
    if kind == LOOP and isinstance(value, dict):
        loop = _resolve(value, LOOP_FIELDS, f"{path}.")
        if None not in loop.values():
            return loop
        raise ConfigError(f"{path}: missing {', '.join(k for k, v in loop.items() if v is None)}")
    if kind in (NUMBER, POSITIVE, NON_NEGATIVE, FRACTION, COUNT, LATITUDE) and not isinstance(value, bool):
        try:
            # numeric strings count: YAML 1.1 reads 20e-6 (no dot) as a string
            number = float(value)
        except (TypeError, ValueError, OverflowError):
            number = math.nan
        in_range = kind in (NUMBER, LATITUDE) or number > 0 or (kind == NON_NEGATIVE and number == 0)
        ceiling = {FRACTION: 1, LATITUDE: 90}.get(kind, math.inf)
        if math.isfinite(number) and in_range and abs(number) <= ceiling:
            if kind != COUNT:
                return number
            if number == int(number):
                return int(number)
    raise ConfigError(f"{path}: expected {kind}, got {value!r}")


def _resolve(config: dict, schema: dict, prefix: str) -> dict:
    """resolve_config's walk over ``schema``; error paths start with ``prefix``."""
    resolved = {path: default for path, (_, default) in schema.items()}
    sections = {path[:i] for path in schema for i, char in enumerate(path) if char == "."}

    def walk(block: dict, at: str) -> None:
        for key, value in block.items():
            path = f"{at}{key}"
            if path in schema:
                if value is not None:
                    resolved[path] = _check(prefix + path, schema[path][0], value)
            elif (value is None or isinstance(value, dict)) and (path in sections or value):
                # an unknown mapping is walked only if it has keys, for the error to name one
                walk(value or {}, f"{path}.")
            elif path in sections:
                raise ConfigError(f"{prefix}{path}: expected mapping, got {value!r}")
            else:
                import difflib  # only on the error path

                hint = difflib.get_close_matches(path, [*schema, *sections], n=1)
                suggestion = f"; did you mean {prefix + hint[0]!r}?" if hint else ""
                raise ConfigError(f"unknown config key {prefix + path!r}{suggestion}")

    walk(config, "")
    return resolved


def resolve_config(config: dict) -> dict:
    """Check a loaded config against SCHEMA in one walk.

    Returns {dotted path: checked value} for every key of the table, with
    defaults filled in; each geometry.loops item resolves likewise against
    LOOP_FIELDS. A null value, or a null section such as ``species:`` with
    nothing under it, reads as not given. Raises ConfigError naming the
    dotted path for an unknown key, a value of the wrong kind, a missing
    loop field or a PAIRS pair out of order.
    """
    resolved = _resolve(config, SCHEMA, "")
    for lower, upper in PAIRS:
        low, high = resolved[lower], resolved[upper]
        if low is not None and high is not None and high <= low:
            raise ConfigError(f"{upper} must be > {lower}, got {high} <= {low}")
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


def _interferometer_from_config(config: dict):
    from .interferometer import InterferometerConfig

    species = _species_from_config(config)
    two_t = config["interferometer.interrogation_time_s"]
    radius = config["interferometer.guide_radius_m"]
    if two_t is not None and radius is not None:
        raise ConfigError(
            "give exactly one of interferometer.interrogation_time_s or interferometer.guide_radius_m"
        )
    if two_t is None and radius is None:
        two_t = 4.0
    return InterferometerConfig(
        species=species,
        interrogation_time=two_t,
        guide_radius=radius,
        n_loops=config["interferometer.n_loops"],
        pulse_duration=config["interferometer.pulse_duration_s"],
        atom_number=config["interferometer.atom_number"],
        contrast=config["interferometer.contrast"],
        latitude=math.radians(config["interferometer.latitude_deg"]),
        squeezing=config["interferometer.squeezing"],
        cycle_dead_time=config["interferometer.dead_time_s"],
        launch_velocity=config["interferometer.v_launch_over_vr"] * species.recoil_velocity,
    )


# ---------------------------------------------------------------------------
# subcommands


def cmd_guide(config: dict) -> tuple:
    from .guide import characterize_guide, trap_potential
    from .magnetostatics import GuideGeometry, WireLoop, design_guide_geometry

    _check_rows(config["run.guide.map_n_rho"] * config["run.guide.map_n_z"], "run.guide.map_n_rho x map_n_z")
    records = config["geometry.loops"]
    if records is None:
        geometry = design_guide_geometry()
    else:
        loops = [WireLoop(r["radius_m"], r["current_A"], r["height_m"]) for r in records]
        geometry = GuideGeometry(tuple(loops))
    offset_b0 = config["geometry.offset_B0_T"]
    species = _species_from_config(config)
    span = config["run.guide.map_span_m"]
    characterization = characterize_guide(geometry, species, offset_B0=offset_b0)

    record = asdict(characterization)
    record["species"] = species.name
    record["loops"] = [
        {"radius_m": l.radius, "current_A": l.current, "height_m": l.height}
        for l in geometry.loops
    ]
    rho0, z0 = characterization.rho0_m, characterization.z0_m
    rho = np.linspace(rho0 - span, rho0 + span, config["run.guide.map_n_rho"])
    z = np.linspace(max(z0 - span, 1e-7), z0 + span, config["run.guide.map_n_z"])
    with np.errstate(over="ignore", invalid="ignore"):  # a field past the float range reads inf or nan
        U = trap_potential(geometry, species, rho[:, None], z[None, :], offset_b0)
    if not np.all(np.isfinite(U)):
        raise PhysicsError(
            "|B| or U is not finite in the potential map: a loop radius or current, or "
            "species.magnetic_moment_J_T, is past the float range there"
        )
    # rows run over rho, then z: one "%" per rho row, on the z column's text joined by rho's
    z_cells, rho_text = [",%.17g,%%.17g\n" % v for v in z.tolist()], ["%.17g" % v for v in rho.tolist()]
    potential_map = (
        {"offset_B0_T": _fmt(offset_b0), "species": species.name},
        ["rho_m", "z_m", "potential_J"],
        ((r + r.join(z_cells)) % tuple(u) for r, u in zip(rho_text, U.tolist())),
    )
    files = {"guide_characterization.json": record, "potential_map.csv": potential_map}
    return files, {"z0_m": z0, "radial_frequency_Hz": characterization.radial_frequency_Hz}


def _transfer_grid(f_min: float, f_max: float, points_per_decade: int, config_ai) -> np.ndarray:
    from .interferometer import band_grid

    decades_lo = math.log10(f_min)
    span = (math.log10(f_max) - decades_lo) * points_per_decade
    n_points = round(span) + 1 if math.isfinite(span) else math.inf
    keys = "run.transfer.f_min_hz, f_max_hz and points_per_decade"
    _check_rows(n_points, keys)
    exponents = decades_lo + np.arange(n_points) / points_per_decade
    # pin the pulse-duration zeros onto the grid so the notch depth is exact
    grid = band_grid(config_ai, f_min, f_max, 10.0 ** exponents)
    _check_rows(grid.size, f"{keys} with interferometer.pulse_duration_s")
    return grid


def cmd_transfer(config: dict) -> tuple:
    from .interferometer import corner_frequencies, transfer_H_abs2

    ai = _interferometer_from_config(config)
    f_min, f_max = config["run.transfer.f_min_hz"], config["run.transfer.f_max_hz"]
    grid = _transfer_grid(f_min, f_max, config["run.transfer.points_per_decade"], ai)
    abs2 = transfer_H_abs2(grid, ai)
    f_hp, f_lp = corner_frequencies(ai)
    transfer = _csv(
        {
            "pulse_duration_s": _fmt(ai.pulse_duration),
            "interrogation_time_s": _fmt(ai.interrogation_time),
            "f_HP_hz": _fmt(f_hp),
            "f_LP_hz": _fmt(f_lp),
        },
        ["f_hz", "abs_H", "abs_H_sq"],
        zip(grid.tolist(), np.sqrt(abs2).tolist(), abs2.tolist()),
    )
    return {"transfer.csv": transfer}, {"f_HP_hz": f_hp, "f_LP_hz": f_lp}


def cmd_sensitivity(config: dict) -> tuple:
    from .interferometer import assumptions_record, shot_noise_sensitivity
    from .stability import projection_allan

    ai = _interferometer_from_config(config)
    two_t_min = config["run.sensitivity.two_t_min_s"]
    two_t_max = config["run.sensitivity.two_t_max_s"]
    if ai.pulse_duration >= two_t_min:
        raise ConfigError("run.sensitivity.two_t_min_s must be > interferometer.pulse_duration_s, "
                          f"got {two_t_min} <= {ai.pulse_duration}")
    n_points, atom_numbers = config["run.sensitivity.n_points"], config["run.sensitivity.atom_numbers"]
    _check_rows(n_points * len(atom_numbers), "run.sensitivity.n_points x len(atom_numbers)")
    two_t_grid = np.geomspace(two_t_min, two_t_max, n_points)
    rows = []
    for n_atoms in atom_numbers:
        for two_t in two_t_grid:
            cfg = replace(ai, interrogation_time=float(two_t), atom_number=n_atoms)
            per_shot = shot_noise_sensitivity(cfg)
            arw = per_shot * ARW_DEG_SQRT_H_PER_RAD_S_SQRT_HZ
            rows.append((float(two_t), n_atoms, per_shot, projection_allan(cfg, 1.0), arw))
    meta = {f"assumption_{k}": v for k, v in assumptions_record(ai).items()}
    meta["convention"] = "per-shot reading; ARW converts the per-shot figure"
    columns = ["two_T_s", "atom_number", "delta_omega_rad_s", "delta_omega_rad_s_sqrt_hz", "arw_deg_sqrt_h"]
    return {"sensitivity.csv": _csv(meta, columns, rows)}, {}


def cmd_allan(config: dict) -> tuple:
    from .stability import AllanCurve, projection_allan_curve

    ai = _interferometer_from_config(config)
    tau_min = config["run.allan.tau_min_s"]
    tau_lo = ai.cycle_time if tau_min is None else tau_min
    tau_max = config["run.allan.tau_max_s"]
    if tau_max <= tau_lo:
        raise ConfigError(
            "run.allan.tau_max_s must be > run.allan.tau_min_s (default: one cycle, "
            f"{ai.cycle_time} s), got {tau_max} <= {tau_lo}"
        )
    _check_rows(config["run.allan.n_points"], "run.allan.n_points")
    taus = np.geomspace(tau_lo, tau_max, config["run.allan.n_points"])
    curve = projection_allan_curve(ai, taus)
    files = {
        "allan.csv": _csv({"model": curve.model_tag}, ["tau_s", "sigma_rad_s"], curve.points),
        "allan_assumptions.json": {"model": curve.model_tag, "assumptions": curve.assumptions},
    }
    if config["noise.domain"] is not None:
        from .noise import dick_sum_allan

        # the Dick variance goes as 1 / tau_I, so one sum at one cycle gives the curve
        t_c = ai.cycle_time
        dick = dick_sum_allan(_psd_from_config(config), ai, t_c, f_max=config["noise.band.f_max_hz"])
        if dick.variance == 0.0:  # a zero PSD has no Dick curve; AllanCurve needs sigma > 0
            return files, {}
        points = tuple((tau, dick.sigma * math.sqrt(t_c / tau)) for tau, _ in curve.points if tau >= t_c)
        dick_curve = AllanCurve(points=points, model_tag="dick_sum", assumptions=curve.assumptions)
        meta = {"model": dick_curve.model_tag, "converged": json.dumps(dick.converged),
                "tail_fraction": _fmt(dick.tail_bound / dick.variance), "terms": dick.m_max}
        files["allan_dick.csv"] = _csv(meta, ["tau_s", "sigma_rad_s"], dick_curve.points)
    return files, {}


def cmd_mission(config: dict) -> tuple:
    from .interferometer import assumptions_record
    from .stability import INTERROGATION_BRACKET, feasibility_boundary

    ai = _interferometer_from_config(config)
    if ai.pulse_duration >= INTERROGATION_BRACKET[0]:
        raise ConfigError("interferometer.pulse_duration_s must be < the mission's 2T floor, "
                          f"{INTERROGATION_BRACKET[0]} s, got {ai.pulse_duration}")
    target = config["run.mission.target_sigma_rad_s"]
    integration = config["run.mission.integration_time_s"]
    ratios = config["run.mission.v_over_vr"]
    v_r = ai.species.recoil_velocity
    boundary = feasibility_boundary([ratio * v_r for ratio in ratios], target, integration, ai)
    two_ts = [two_t for _, two_t in boundary.points]
    # met at the bracket floor: the true minimum 2T is below the printed one
    at_floor = [ratio for ratio, two_t in zip(ratios, two_ts) if two_t == INTERROGATION_BRACKET[0]]
    meta = {f"assumption_{k}": v for k, v in assumptions_record(ai).items()}
    meta["target_sigma_rad_s"] = _fmt(target)
    meta["integration_time_s"] = _fmt(integration)
    meta["at_bracket_floor_v_over_vr"] = json.dumps(at_floor)
    mission = _csv(meta, ["v_over_vr", "min_2T_s", "R_m"], zip(ratios, two_ts, boundary.radii))
    return {"mission.csv": mission}, {"at_bracket_floor_v_over_vr": at_floor}


def _psd_from_config(config: dict):
    """The noise block's PSD: the table of noise.file or the noise.model, in noise.domain."""
    from .noise import PowerSpectralDensity

    domain = config["noise.domain"]
    if domain is None:
        raise ConfigError("noise.domain is required (phase | acceleration | rotation)")
    model = {key: config[f"noise.model.{key}"] for key in ("white", "flicker", "random_walk")}
    given = ", ".join(f"noise.model.{key}" for key, value in model.items() if value is not None)
    if config["noise.file"] is not None:
        if given:
            raise ConfigError(f"give noise.file or noise.model, not both; got {given} too")
        return PowerSpectralDensity.from_csv(config["noise.file"], domain=domain)
    model = {key: 0.0 if value is None else value for key, value in model.items()}
    return PowerSpectralDensity(domain=domain, **model)


def cmd_noise(config: dict) -> tuple:
    from .interferometer import assumptions_record, scale_factor
    from .noise import phase_variance

    ai = _interferometer_from_config(config)
    result = phase_variance(
        _psd_from_config(config), ai, config["noise.band.f_min_hz"], config["noise.band.f_max_hz"]
    )
    sigma_phi = result.sigma
    record = {
        "entries": [
            {
                "domain": result.domain,
                "variance_rad2": result.value,
                "sigma_phi_rad": sigma_phi,
                "sigma_omega_rad_s": sigma_phi / abs(scale_factor(ai)),
                "result": asdict(result),
            }
        ],
        "assumptions": assumptions_record(ai),
    }
    return {"noise_budget.json": record}, {"sigma_phi_rad": sigma_phi}


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
        files, summary = COMMANDS[args.command](config)
        # the summary line is formed before any file is written, so a non-finite value leaves none
        outputs = [os.path.join(args.out, name) for name in files]
        summary = {"command": args.command, "status": "ok", "outputs": outputs, **summary}
        line = _json_text(summary, "the summary line", sort_keys=True)
        _write_files(args.out, files, config)
    except ConfigError as exc:
        print(json.dumps({"command": args.command, "status": "config-error", "error": str(exc)}))
        return 1
    except (PhysicsError, ArithmeticError) as exc:
        if isinstance(exc, ArithmeticError):  # a float ** or / in the stage
            exc = f"{args.command} left the float range: {type(exc).__name__}: {exc}"
        print(json.dumps({"command": args.command, "status": "physics-error", "error": str(exc)}))
        return 2
    except ImportError as exc:
        print(json.dumps({"command": args.command, "status": "environment-error", "error": str(exc)}))
        return 3
    print(line)
    return 0


def run() -> int:
    """Process entry of ``python -m chipgyro.cli`` and the ``chipgyro``
    script: ``main()``, then ``gc.freeze()``, which moves every live object
    to the permanent generation. The interpreter's final collection then has
    no numpy or scipy objects to walk (about 0.1 s of a child's exit), while
    atexit handlers, stream flushes and module teardown still run."""
    code = main()
    gc.freeze()
    return code


if __name__ == "__main__":
    sys.exit(run())
