import dataclasses
import gc
import hashlib
import importlib
import importlib.metadata
import inspect
import json
import math
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
import yaml

import chipgyro
from chipgyro._scipy import compiled_module
from chipgyro.cli import (
    LOOP_FIELDS,
    SCHEMA,
    _csv,
    _interferometer_from_config,
    _write_files,
    load_config,
    main,
    resolve_config,
)
from chipgyro.constants import species_rb87
from chipgyro.errors import ConfigError, PhysicsError
from chipgyro.guide import (
    JACOBIAN_STEP,
    NEWTON_MAX_ITERATIONS,
    POSITION_TOLERANCE,
    GuideCharacterization,
    trap_potential,
)
from chipgyro.interferometer import rb87_config, scale_factor
from chipgyro.magnetostatics import design_guide_geometry
from chipgyro.noise import PowerSpectralDensity, dick_sum_allan

REPO = Path(__file__).resolve().parents[1]

BASE_CONFIG = {
    "interferometer": {
        "pulse_duration_s": 20e-6,
        "interrogation_time_s": 4.0,
        "latitude_deg": 48.85,
    },
    "noise": {
        "domain": "phase",
        "model": {"white": 1e-8},
        "band": {"f_min_hz": 1e-4, "f_max_hz": 1e3},
    },
    "run": {
        "transfer": {"f_min_hz": 1e-3, "f_max_hz": 1e5, "points_per_decade": 40},
        "sensitivity": {"n_points": 4},
        "allan": {"n_points": 7},
        "mission": {"v_over_vr": [2, 4]},
        "guide": {"map_n_rho": 11, "map_n_z": 11},
    },
}


@pytest.fixture
def config_path(tmp_path):
    path = tmp_path / "cfg.yaml"
    path.write_text(yaml.safe_dump(BASE_CONFIG))
    return str(path)


def _run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out.strip().splitlines()[-1]
    return code, json.loads(out)


def test_all_subcommands_succeed(tmp_path, config_path, capsys):
    for command in ("transfer", "sensitivity", "allan", "mission", "noise", "guide"):
        code, summary = _run(
            capsys, command, "--config", config_path, "--out", str(tmp_path / "out")
        )
        assert code == 0, command
        assert summary["status"] == "ok"
        for output in summary["outputs"]:
            assert (tmp_path / "out").joinpath(output.split("/")[-1]).exists()


def test_outputs_bitwise_deterministic(tmp_path, config_path, capsys, monkeypatch):
    """The second pass runs from another working directory into another
    --out, so that a path leaking into an output shows."""
    commands = ("transfer", "sensitivity", "allan", "mission", "noise", "guide")
    for command in commands:
        assert _run(capsys, command, "--config", config_path, "--out", str(tmp_path / "a"))[0] == 0
    elsewhere = tmp_path / "elsewhere"
    elsewhere.mkdir()
    monkeypatch.chdir(elsewhere)
    for command in commands:
        assert _run(capsys, command, "--config", config_path, "--out", str(tmp_path / "b"))[0] == 0
    for name in (
        "transfer.csv",
        "sensitivity.csv",
        "allan.csv",
        "allan_assumptions.json",
        "mission.csv",
        "noise_budget.json",
        "guide_characterization.json",
        "potential_map.csv",
    ):
        assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()


def test_missing_config_exit_1(tmp_path, capsys):
    code, summary = _run(capsys, "transfer", "--config", str(tmp_path / "nope.yaml"))
    assert code == 1
    assert summary["status"] == "config-error"


def test_omitted_config_is_read_from_the_config_dir(tmp_path, config_path, capsys, monkeypatch):
    """Without --config, chipgyro.yaml is read from $CHIPGYRO_CONFIG_DIR: the
    same config as naming the file, and a config error naming the path the
    directory lacks."""
    config_dir = tmp_path / "configs"
    config_dir.mkdir()
    (config_dir / "chipgyro.yaml").write_text(Path(config_path).read_text())
    monkeypatch.setenv("CHIPGYRO_CONFIG_DIR", str(config_dir))
    hashes = []
    for name, argv in (("named", ["--config", config_path]), ("from-dir", [])):
        assert _run(capsys, "guide", *argv, "--out", str(tmp_path / name))[0] == 0, name
        record = json.loads((tmp_path / name / "guide_characterization.json").read_text())
        hashes.append(record["provenance"]["config_sha256"])
    assert hashes[0] == hashes[1]

    empty = tmp_path / "empty"
    empty.mkdir()
    monkeypatch.setenv("CHIPGYRO_CONFIG_DIR", str(empty))
    code, summary = _run(capsys, "guide", "--out", str(tmp_path / "none"))
    assert (code, summary["status"]) == (1, "config-error")
    assert str(empty / "chipgyro.yaml") in summary["error"]


def test_invalid_pulse_duration_exit_1(tmp_path, config_path, capsys):
    code, summary = _run(
        capsys,
        "transfer",
        "--config",
        config_path,
        "--out",
        str(tmp_path / "out"),
        "--override",
        "interferometer.pulse_duration_s=5.0",
    )
    assert code == 1
    assert "pulse_duration" in summary["error"]


def test_zero_current_guide_exit_2(tmp_path, config_path, capsys):
    loops = "[{radius_m: 487e-6, current_A: 0, height_m: 0}, {radius_m: 500e-6, current_A: 0, height_m: 0}]"
    code, summary = _run(
        capsys,
        "guide",
        "--config",
        config_path,
        "--out",
        str(tmp_path / "out"),
        "--override",
        f"geometry.loops={loops}",
    )
    assert code == 2
    assert summary["status"] == "physics-error"


@pytest.mark.parametrize(
    "override",
    [
        "run.guide.map_n_rho=0",
        "run.guide.map_n_rho=1.5",
        "run.guide.map_span_m=-1.0",
        "run.guide.map_span_m=abc",
        "run.guide.map_n_z=abc",
        "geometry.offset_B0_T=abc",
        "geometry.offset_B0_T=-1e-3",
    ],
)
def test_bad_guide_config_exit_1(tmp_path, config_path, capsys, override):
    out = tmp_path / "out"
    code, summary = _run(
        capsys, "guide", "--config", config_path, "--out", str(out), "--override", override
    )
    assert code == 1
    assert summary["status"] == "config-error"
    assert override.split("=")[0] in summary["error"]
    assert not out.joinpath("potential_map.csv").exists()


SPECIES = ["species.wavelength_m=7.8e-7", "species.magnetic_moment_J_T=9.3e-24"]


@pytest.mark.parametrize(
    "command, overrides",
    [
        ("transfer", ["interferometer.interogation_time_s=9.0"]),
        ("transfer", ["interferometr.n_loops=2"]),
        ("noise", ["noise.model.whtie=1"]),
        ("transfer", ["interferometer.interrogation_time_s=abc"]),
        ("transfer", ["interferometer.n_loops=1.5"]),
        ("transfer", ["species.mass_kg=-1.4e-25", *SPECIES]),
        ("transfer", ["species.mass_kg=1.4e-25"]),
        ("sensitivity", ["run.sensitivity.n_points=0"]),
        ("sensitivity", ["run.sensitivity.two_t_min_s=20"]),
        ("sensitivity", ["run.sensitivity.two_t_max_s=0.1"]),
        ("transfer", ["run.transfer.points_per_decade=0"]),
        ("transfer", ["run.transfer.f_min_hz=-1"]),
        ("transfer", ["run.transfer.f_max_hz=1e-4"]),
        ("allan", ["run.allan.n_points=abc"]),
        ("allan", ["run.allan.tau_min_s=1e8"]),
        ("allan", ["run.allan.tau_max_s=1e-3"]),
        ("mission", ["run.mission.v_over_vr=abc"]),
        ("noise", ["noise.band.f_max_hz=abc"]),
        ("noise", ["noise.band.f_min_hz=-1"]),
        ("guide", ["geometry.loops=[abc]"]),
        ("guide", ["geometry.loops=[{radius_m: abc, current_A: 1}]"]),
        ("guide", ["geometry.loops=[{radius_m: 5.0e-4, current_A: 0.1, heigth_m: 0}]"]),
        ("guide", ["geometry.loops=[{radius_m: 5.0e-4, current_A: true}]"]),
        ("guide", ["geometry.loops=[{radius_m: 5.0e-4}]"]),
        ("guide", ["geometry.loops=[{radius_m: 5.0e-4, current_A: 0.1}, abc]"]),
        ("guide", ["geometry.loops=[{radius_m: .inf, current_A: 0.1}]"]),
        ("guide", ["geometry.loops=[{radius_m: -5e-4, current_A: 0.1}]"]),
        ("guide", ["geometry.loops=[{radius_m: 5.0e-4, current_A: .nan}]"]),
        ("noise", ["noise.band.f_max_hz=1e-5"]),
        ("noise", ["run.transfer.f_max_hz=1e-4"]),
        ("transfer", ["interferometer.contrast=2"]),
        ("transfer", ["interferometer.squeezing=2"]),
        ("allan", ["interferometer.dead_time_s=-1"]),
        ("noise", ["noise.model.white=-1"]),
        ("noise", ["noise.model.flicker=-1"]),
        ("noise", ["noise.model.random_walk=-1"]),
        ("noise", ["noise.domain=foo"]),
        ("noise", ["noise.domain=null"]),
        ("transfer", ["interferometr={}"]),
        ("guide", ["geometry.loops=[{radius_m: 5.0e-4, current_A: 0.1, heigth: {}}]"]),
        ("transfer", ["interferometer.guide_radius_m=5.6e-3"]),
        ("transfer", ["interferometer=5"]),
        ("transfer", ["interferometer.latitude_deg.x=1"]),
        ("sensitivity", ["interferometer.latitude_deg=180"]),
        ("mission", ["interferometer.latitude_deg=-180"]),
    ],
    ids=lambda param: param if isinstance(param, str) else param[0],
)
def test_bad_config_exit_1(tmp_path, config_path, capsys, command, overrides):
    out = tmp_path / "out"
    argv = [command, "--config", config_path, "--out", str(out)]
    for override in overrides:
        argv += ["--override", override]
    code, summary = _run(capsys, *argv)
    assert code == 1
    assert summary["status"] == "config-error"
    assert overrides[0].split("=")[0] in summary["error"]
    assert not out.exists() or not any(out.iterdir())


@pytest.mark.parametrize("text, code", [("[]", 1), ("0", 1), ("false", 1), ('""', 1), ("", 0)])
def test_only_an_empty_config_file_reads_as_empty(tmp_path, capsys, text, code):
    """A top level that is not a mapping is a config error, a falsy one too;
    only an empty file reads as a config with every default."""
    path = tmp_path / "cfg.yaml"
    path.write_text(text)
    out = tmp_path / "out"
    assert _run(capsys, "transfer", "--config", str(path), "--out", str(out))[0] == code
    if code:
        assert not out.exists()


@pytest.mark.parametrize(
    "case",
    [
        "config-is-directory", "config-not-utf8", "config-not-yaml",
        "psd-not-utf8", "psd-nan", "psd-text", "psd-inf", "psd-one-column",
        "override-not-yaml", "out-under-file",
    ],
)
def test_unreadable_input_exit_1(tmp_path, config_path, capsys, case):
    argv, named = ["--config", config_path], config_path
    if case == "config-is-directory":
        argv, named = ["--config", str(tmp_path)], str(tmp_path)
    elif case == "config-not-utf8":
        Path(config_path).write_bytes(b"interferometer:\n  latitude_deg: \xff\n")
    elif case == "config-not-yaml":
        Path(config_path).write_text("interferometer: [\n")
    elif case.startswith("psd-"):
        bad_row = {"not-utf8": b"1.0,\xff", "nan": b"nan,1e-8", "text": b"abc,1e-8",
                   "inf": b"inf,1e-8", "one-column": b"1e3"}[case[4:]]
        (tmp_path / "psd.csv").write_bytes(b"f_hz,psd_value\n0.1,1e-8\n" + bad_row + b"\n")
        argv, named = [*argv, "--override", "noise.file=psd.csv", "--override", "noise.model=null"], "psd.csv"
    elif case == "override-not-yaml":
        argv, named = [*argv, "--override", "interferometer.contrast=["], "interferometer.contrast=["
    else:
        blocker = tmp_path / "file"
        blocker.write_text("")
        argv, named = [*argv, "--out", str(blocker / "out")], str(blocker)
    code = main(["noise" if case.startswith("psd-") else "transfer", *argv])
    captured = capsys.readouterr()
    assert code == 1
    assert captured.err == ""
    summary = json.loads(captured.out)
    assert summary["status"] == "config-error"
    assert named in summary["error"]
    if case == "psd-one-column":
        assert "Line #3" in summary["error"]


@pytest.mark.parametrize(
    "text, override, named",
    [
        ("interferometer:\n  interrogation_time_s: 8.0\n  interrogation_time_s: 4.0\n", None,
         "found duplicate key 'interrogation_time_s'\n  in \"{path}\", line 3"),
        ("interferometer:\n  interrogation_time_s: 8.0\nrun:\ninterferometer:\n  latitude_deg: 45.0\n", None,
         "found duplicate key 'interferometer'\n  in \"{path}\", line 4"),
        ("", "geometry.loops=[{radius_m: 1, radius_m: 2}]", "found duplicate key 'radius_m'"),
    ],
    ids=["key", "section", "override-flow-mapping"],
)
def test_repeated_yaml_key_exits_1(tmp_path, capsys, text, override, named):
    """A key given twice in one mapping is refused, naming it and its line,
    instead of the last one silently winning; no file is written."""
    path = tmp_path / "cfg.yaml"
    path.write_text(text)
    out = tmp_path / "out"
    overrides = ["--override", override] if override else []
    code, summary = _run(capsys, "guide", "--config", str(path), "--out", str(out), *overrides)
    assert (code, summary["status"]) == (1, "config-error")
    assert named.format(path=path) in summary["error"]
    assert not out.exists()


def test_keys_a_merge_key_brings_in_may_be_given_again(tmp_path):
    """A YAML merge key (<<) is no repeated key: the mapping's own value
    overrides the merged one, as yaml.safe_load reads it."""
    text = "base: &b {white: 1.0e-8, flicker: 1.0e-9}\nnoise:\n  model:\n    <<: *b\n    white: 2.0e-8\n"
    path = tmp_path / "cfg.yaml"
    path.write_text(text)
    assert load_config(str(path)) == yaml.safe_load(text)
    assert load_config(str(path))["noise"]["model"] == {"white": 2.0e-8, "flicker": 1.0e-9}


def test_misspelled_key_suggests_the_right_one(config_path, capsys):
    code, summary = _run(
        capsys, "transfer", "--config", config_path,
        "--override", "interferometer.interogation_time_s=9.0",
    )
    assert code == 1
    assert "did you mean 'interferometer.interrogation_time_s'?" in summary["error"]


@pytest.mark.parametrize(
    "loops, message",
    [
        ("[{radius_m: 5.0e-4, current_A: 0.1}, abc]", "geometry.loops[1]: expected mapping, got 'abc'"),
        ("[{radius_m: 5.0e-4, current_A: 0.1}, {radius_m: 6.0e-4}]", "geometry.loops[1]: missing current_A"),
        ("[{radius_m: .inf, current_A: 0.1}]", "geometry.loops[0].radius_m: expected finite number > 0"),
        ("[{radius_m: 5.0e-4, current_A: .nan}]", "geometry.loops[0].current_A: expected finite number,"),
        (
            "[{radius_m: 5.0e-4, current_A: 0.1, heigth_m: 0}]",
            "unknown config key 'geometry.loops[0].heigth_m'; did you mean 'geometry.loops[0].height_m'?",
        ),
    ],
    ids=["not-a-mapping", "missing-field", "infinite-radius", "nan-current", "misspelled-field"],
)
def test_loop_errors_name_the_item_and_field(tmp_path, config_path, capsys, loops, message):
    out = tmp_path / "out"
    code, summary = _run(
        capsys, "guide", "--config", config_path, "--out", str(out), "--override", f"geometry.loops={loops}"
    )
    assert code == 1
    assert message in summary["error"]
    assert not out.exists()


def test_guide_radius_sets_the_interrogation_time(tmp_path, config_path, capsys):
    code, _ = _run(
        capsys, "transfer", "--config", config_path, "--out", str(tmp_path / "out"),
        "--override", "interferometer.interrogation_time_s=null",
        "--override", "interferometer.guide_radius_m=5.6e-3",
        "--override", "interferometer.n_loops=3",
    )
    assert code == 0
    two_t = float(_csv_header(tmp_path / "out" / "transfer.csv")["interrogation_time_s"])
    assert two_t == 3 * math.pi * 5.6e-3 / species_rb87().recoil_velocity


def test_custom_species_with_all_three_fields(tmp_path, config_path, capsys):
    rb = species_rb87()
    code, _ = _run(
        capsys, "sensitivity", "--config", config_path, "--out", str(tmp_path / "out"),
        "--override", "species.name=Rb87-custom",
        "--override", f"species.mass_kg={rb.mass!r}",
        "--override", f"species.wavelength_m={rb.wavelength!r}",
        "--override", f"species.magnetic_moment_J_T={rb.magnetic_moment!r}",
    )
    assert code == 0
    assert _csv_header(tmp_path / "out" / "sensitivity.csv")["assumption_species"] == "Rb87-custom"


def test_null_loop_height_reads_as_zero():
    loops = [{"radius_m": 5e-4, "current_A": 0.1, "height_m": None}, {"radius_m": 6e-4, "current_A": -0.1}]
    resolved = resolve_config({"geometry": {"loops": loops}})["geometry.loops"]
    assert resolved == [
        {"radius_m": 5e-4, "current_A": 0.1, "height_m": 0.0},
        {"radius_m": 6e-4, "current_A": -0.1, "height_m": 0.0},
    ]


def test_null_sections_and_numeric_strings(tmp_path, config_path, capsys):
    """A section with nothing under it reads as empty, and a number YAML 1.1
    reads as a string (20e-6 has no dot) is taken as that number."""
    text = yaml.safe_dump(BASE_CONFIG) + "species:\ngeometry:\n"
    text = text.replace("pulse_duration_s: 2.0e-05", "pulse_duration_s: 20e-6")
    assert "20e-6" in text
    other = tmp_path / "other.yaml"
    other.write_text(text)
    for path, out in ((config_path, "a"), (str(other), "b")):
        code, _ = _run(capsys, "transfer", "--config", path, "--out", str(tmp_path / out))
        assert code == 0
    a, b = (tmp_path / out / "transfer.csv" for out in "ab")
    assert a.read_bytes() == b.read_bytes()


def test_benchmark_inputs_resolve(tmp_path):
    sys.path.insert(0, str(REPO / "perfbench"))
    try:
        import workloads
    finally:
        sys.path.pop(0)
    for workload in workloads.WORKLOADS:
        for invocation in workloads.generate(workload, None, str(tmp_path / workload)):
            resolve_config(load_config(invocation.config))


def test_readme_lists_every_config_key():
    readme = (REPO / "README.md").read_text()
    paths = [*SCHEMA, *(f"geometry.loops[i].{field}" for field in LOOP_FIELDS)]
    assert [path for path in paths if f"`{path}`" not in readme] == []


def test_relative_psd_file_is_read_from_config_dir(tmp_path, capsys, monkeypatch):
    config_dir = tmp_path / "configs"
    config_dir.mkdir()
    (config_dir / "psd.csv").write_text("f_hz,psd_value\n1e-4,1e-8\n1e3,1e-8\n")
    config = dict(BASE_CONFIG, noise={"domain": "phase", "file": "psd.csv"})
    (config_dir / "cfg.yaml").write_text(yaml.safe_dump(config))
    elsewhere = tmp_path / "elsewhere"
    elsewhere.mkdir()
    monkeypatch.chdir(elsewhere)
    code, summary = _run(capsys, "noise", "--config", str(config_dir / "cfg.yaml"), "--out", "out")
    assert code == 0, summary
    assert (elsewhere / "out" / "noise_budget.json").exists()


RING_LOOPS = (
    "[{radius_m: 974e-6, current_A: -0.123}, {radius_m: 1000e-6, current_A: 0.121},"
    " {radius_m: 1026e-6, current_A: -0.123}]"
)


def test_guide_work_counters(tmp_path, config_path, capsys):
    for name, overrides in (("design", []), ("ring", ["--override", f"geometry.loops={RING_LOOPS}"])):
        out = tmp_path / name
        code, _ = _run(capsys, "guide", "--config", config_path, "--out", str(out), *overrides)
        assert code == 0, name
        record = json.loads((out / "guide_characterization.json").read_text())
        assert 0 < record["minimizer_iterations"] < 4000
        assert 0 < record["minimizer_step_m"] <= POSITION_TOLERANCE / 10
        assert len(record["saddle_position_m"]) == 2
        assert 0 < record["saddle_iterations"] <= NEWTON_MAX_ITERATIONS
        assert 0 < record["saddle_step_m"] <= POSITION_TOLERANCE / 10
        assert record["jacobian_step_m"] == JACOBIAN_STEP


def test_guide_record_is_the_characterization(tmp_path, config_path, capsys):
    """guide_characterization.json holds the GuideCharacterization fields
    under their own names, plus the species, the loops and the provenance."""
    code, _ = _run(capsys, "guide", "--config", config_path, "--out", str(tmp_path))
    assert code == 0
    record = json.loads((tmp_path / "guide_characterization.json").read_text())
    names = {field.name for field in dataclasses.fields(GuideCharacterization)}
    assert set(record) == names | {"species", "loops", "provenance"}


def test_potential_map_text_matches_per_cell_rule(tmp_path, config_path, capsys):
    """On a non-square map, so that swapped axes show: rho-major rows, every
    cell printed as format(v, ".17g"), U from the meshgrid of both axes."""
    out = tmp_path / "out"
    code, _ = _run(
        capsys, "guide", "--config", config_path, "--out", str(out),
        "--override", "run.guide.map_n_rho=7", "--override", "run.guide.map_n_z=5",
    )
    assert code == 0
    record = json.loads((out / "guide_characterization.json").read_text())
    rho0, z0, offset_b0 = record["rho0_m"], record["z0_m"], record["offset_B0_T"]
    span = SCHEMA["run.guide.map_span_m"][1]
    rho = np.linspace(rho0 - span, rho0 + span, 7)
    z = np.linspace(max(z0 - span, 1e-7), z0 + span, 5)
    RR, ZZ = np.meshgrid(rho, z, indexing="ij")
    U = trap_potential(design_guide_geometry(), species_rb87(), RR, ZZ, offset_b0)
    provenance = record["provenance"]
    expected = f"# chipgyro_version: {provenance['version']}\n# config_sha256: {provenance['config_sha256']}\n"
    expected += f"# offset_B0_T: {format(offset_b0, '.17g')}\n# species: Rb87\nrho_m,z_m,potential_J\n"
    for cells in zip(RR.ravel().tolist(), ZZ.ravel().tolist(), U.ravel().tolist()):
        expected += ",".join(format(v, ".17g") for v in cells) + "\n"
    assert (out / "potential_map.csv").read_bytes() == expected.encode()


def test_bad_override_exit_1(config_path, capsys):
    code, _ = _run(capsys, "transfer", "--config", config_path, "--override", "no-equals-sign")
    assert code == 1


def test_override_changes_result(tmp_path, config_path, capsys):
    _, s1 = _run(capsys, "transfer", "--config", config_path, "--out", str(tmp_path / "o1"))
    _, s2 = _run(
        capsys,
        "transfer",
        "--config",
        config_path,
        "--out",
        str(tmp_path / "o2"),
        "--override",
        "interferometer.interrogation_time_s=8.0",
    )
    assert s2["f_LP_hz"] == pytest.approx(s1["f_LP_hz"] / 2.0, rel=1e-3, abs=0)


def _read_transfer(path):
    return np.genfromtxt(path, delimiter=",", names=True, skip_header=6)


def test_transfer_grid_nesting(tmp_path, config_path, capsys):
    """Doubling the grid density keeps every existing frequency bitwise."""
    _run(capsys, "transfer", "--config", config_path, "--out", str(tmp_path / "lo"))
    _run(
        capsys,
        "transfer",
        "--config",
        config_path,
        "--out",
        str(tmp_path / "hi"),
        "--override",
        "run.transfer.points_per_decade=80",
    )
    f_lo = _read_transfer(tmp_path / "lo" / "transfer.csv")["f_hz"]
    f_hi = _read_transfer(tmp_path / "hi" / "transfer.csv")["f_hz"]
    assert set(f_lo).issubset(set(f_hi))


def test_transfer_pinned_zeros(tmp_path, config_path, capsys):
    _run(capsys, "transfer", "--config", config_path, "--out", str(tmp_path / "out"))
    data = _read_transfer(tmp_path / "out" / "transfer.csv")
    f, a = data["f_hz"], data["abs_H"]
    tau = 20e-6
    for n in (1, 2):
        idx = np.argmin(np.abs(f - n / tau))
        assert f[idx] == n / tau
        assert a[idx] < 1e-12 * a.max()


def test_transfer_columns(tmp_path, config_path, capsys):
    """abs_H is the square root of abs_H_sq and never exceeds the mid-band
    plateau 2 of |H|."""
    _run(capsys, "transfer", "--config", config_path, "--out", str(tmp_path / "out"))
    data = _read_transfer(tmp_path / "out" / "transfer.csv")
    np.testing.assert_allclose(data["abs_H"] ** 2, data["abs_H_sq"], rtol=1e-15, atol=0)
    assert 1.9 < data["abs_H"].max() <= 2.0


def test_sensitivity_columns_and_values(tmp_path, config_path, capsys):
    _run(capsys, "sensitivity", "--config", config_path, "--out", str(tmp_path / "out"))
    data = np.genfromtxt(
        tmp_path / "out" / "sensitivity.csv", delimiter=",", names=True, skip_header=13
    )
    assert set(data.dtype.names) == {
        "two_T_s",
        "atom_number",
        "delta_omega_rad_s",
        "delta_omega_rad_s_sqrt_hz",
        "arw_deg_sqrt_h",
    }
    # ARW column is the per-shot figure in deg/sqrt(h)
    factor = (180.0 / math.pi) * 60.0
    assert np.allclose(data["arw_deg_sqrt_h"], data["delta_omega_rad_s"] * factor, rtol=1e-12)
    # 10x atoms -> sqrt(10) better
    lo = data[data["atom_number"] == 1e4]
    hi = data[data["atom_number"] == 1e5]
    assert np.allclose(
        lo["delta_omega_rad_s"] / hi["delta_omega_rad_s"], math.sqrt(10.0), rtol=1e-12
    )


def test_allan_outputs(tmp_path, config_path, capsys):
    _run(capsys, "allan", "--config", config_path, "--out", str(tmp_path / "out"))
    data = np.genfromtxt(tmp_path / "out" / "allan.csv", delimiter=",", names=True, skip_header=3)
    assert np.all(np.diff(data["tau_s"]) > 0)
    assert np.all(np.diff(data["sigma_rad_s"]) < 0)
    record = json.loads((tmp_path / "out" / "allan_assumptions.json").read_text())
    assert record["model"] == "projection"
    assert record["assumptions"]["sin_latitude"] == pytest.approx(math.sin(math.radians(48.85)))


def _csv_header(path):
    """{key: value} of the ``# key: value`` lines of a CLI CSV file."""
    lines = Path(path).read_text().splitlines()
    return dict(line[2:].split(": ", 1) for line in lines if line.startswith("# "))


def test_allan_writes_the_dick_curve_of_the_noise_block(tmp_path, config_path, capsys):
    """With a noise block, allan adds the Dick curve on the projection curve's
    taus from one cycle up, sigma(T_c) sqrt(T_c / tau) from one harmonic sum;
    without one it writes the projection files alone."""
    out, plain = tmp_path / "out", tmp_path / "plain"
    argv = ["allan", "--config", config_path, "--override", "run.allan.tau_min_s=1.0"]
    assert _run(capsys, *argv, "--out", str(out))[0] == 0
    projection = np.genfromtxt(out / "allan.csv", delimiter=",", names=True, skip_header=3)
    dick = np.genfromtxt(out / "allan_dick.csv", delimiter=",", names=True, skip_header=6)
    header = _csv_header(out / "allan_dick.csv")
    assert (header["model"], header["converged"], header["tail_fraction"], header["terms"]) == (
        "dick_sum", "true", "0", "4000"
    )
    cfg = rb87_config(pulse_duration=20e-6, interrogation_time=4.0, latitude=math.radians(48.85))
    psd = PowerSpectralDensity(domain="phase", white=1e-8)
    sigma_cycle = dick_sum_allan(psd, cfg, 4.0, f_max=1e3).sigma
    assert list(dick["tau_s"]) == [tau for tau in projection["tau_s"] if tau >= 4.0]
    assert list(dick["sigma_rad_s"]) == [sigma_cycle * math.sqrt(4.0 / tau) for tau in dick["tau_s"]]
    assert _run(capsys, *argv, "--out", str(plain), "--override", "noise=null")[0] == 0
    assert sorted(os.listdir(plain)) == ["allan.csv", "allan_assumptions.json"]


def test_allan_writes_no_dick_curve_of_a_zero_psd(tmp_path, config_path, capsys):
    """A noise block whose PSD is zero has a zero Dick deviation, which no
    Allan curve holds: allan writes the projection files alone, as without
    a noise block."""
    out = tmp_path / "out"
    argv = ["allan", "--config", config_path, "--out", str(out), "--override", "noise.model=null"]
    assert _run(capsys, *argv)[0] == 0
    assert sorted(os.listdir(out)) == ["allan.csv", "allan_assumptions.json"]


def _without_latitude(path):
    """A CLI output file less its sin_latitude assumption and its provenance."""
    if path.suffix == ".json":
        record = json.loads(path.read_text())
        del record["provenance"], record["assumptions"]["sin_latitude"]
        return record
    skip = ("# config_sha256: ", "# assumption_sin_latitude: ")
    return [line for line in path.read_text().splitlines() if not line.startswith(skip)]


def test_southern_latitude_gives_the_northern_figures(tmp_path, config_path, capsys):
    """Rotation figures take |sin(latitude)|: at -48.85 deg each subcommand
    that reads a rotation writes the files it writes at +48.85 deg, but for
    the sign of sin_latitude and the provenance."""
    for command in ("sensitivity", "allan", "mission", "noise"):
        north, south = tmp_path / command / "north", tmp_path / command / "south"
        assert _run(capsys, command, "--config", config_path, "--out", str(north))[0] == 0
        override = ["--override", "interferometer.latitude_deg=-48.85"]
        assert _run(capsys, command, "--config", config_path, "--out", str(south), *override)[0] == 0
        names = sorted(os.listdir(north))
        assert sorted(os.listdir(south)) == names
        for name in names:
            assert _without_latitude(south / name) == _without_latitude(north / name), (command, name)


def test_allan_curve_of_nan_deviations_exits_2(tmp_path, config_path, capsys):
    """Finite inputs can make the projection deviation NaN (M / hbar
    overflows, so the per-shot figure is 0, times sqrt(T_c / 5e-324) = inf)
    and 0 above that tau: allan names the first and writes no file."""
    out = tmp_path / "out"
    overrides = [
        "species.mass_kg=1.0e300",
        "species.wavelength_m=1.0e-300",
        "species.magnetic_moment_J_T=9.27e-24",
        "run.allan.tau_min_s=5.0e-324",
        "noise=null",
    ]
    argv = ["allan", "--config", config_path, "--out", str(out)]
    code, summary = _run(capsys, *argv, *(arg for item in overrides for arg in ("--override", item)))
    assert (code, summary["status"]) == (2, "physics-error")
    assert summary["error"].endswith("at tau_I = 5e-324 s")
    assert list(out.glob("*")) == []


def test_mission_output(tmp_path, config_path, capsys):
    _, summary = _run(capsys, "mission", "--config", config_path, "--out", str(tmp_path / "out"))
    data = np.genfromtxt(
        tmp_path / "out" / "mission.csv", delimiter=",", names=True, skip_header=15
    )
    header = _csv_header(tmp_path / "out" / "mission.csv")
    assert json.loads(header["at_bracket_floor_v_over_vr"]) == []
    assert summary["at_bracket_floor_v_over_vr"] == []
    assert np.all(np.diff(data["min_2T_s"]) < 0)
    assert np.allclose(
        data["R_m"],
        data["v_over_vr"] * 5.8845e-3 * data["min_2T_s"] / (2 * math.pi),
        rtol=1e-4,
    )


@pytest.mark.parametrize(
    "command, tau, keys",
    [
        ("mission", "0.05", ["interferometer.pulse_duration_s", "0.01 s"]),
        ("sensitivity", "0.2", ["run.sensitivity.two_t_min_s", "interferometer.pulse_duration_s"]),
    ],
)
def test_a_pulse_past_the_shortest_2t_of_a_stage_names_its_keys(tmp_path, config_path, capsys, command, tau, keys):
    """A pulse shorter than the config's 2T but not shorter than the mission's
    2T floor or the sensitivity sweep's first 2T: exit 1 naming the keys
    (and the floor), not the rebuilt config's interrogation_time, and no file."""
    out = tmp_path / "out"
    argv = [command, "--config", config_path, "--out", str(out)]
    code, summary = _run(capsys, *argv, "--override", f"interferometer.pulse_duration_s={tau}")
    assert (code, summary["status"]) == (1, "config-error")
    assert all(key in summary["error"] for key in keys) and "interrogation_time" not in summary["error"]
    assert not out.exists()


# the design guide's loops with currents near 1e154 A: |B| squared overflows,
# |B| itself does not
LOOPS_1E154 = (
    "geometry.loops=[{radius_m: 4.87e-4, current_A: -1.23e154}, {radius_m: 5e-4, current_A: 1.21e154}, "
    "{radius_m: 5.13e-4, current_A: -1.23e154}]"
)
# the design currents x 1e156: |B| on the coarse scan reaches 3.7e154 T, past
# the square root of the float range
LOOPS_1E156 = (
    "geometry.loops=[{radius_m: 4.87e-4, current_A: -1.23e155}, {radius_m: 5e-4, current_A: 1.21e155}, "
    "{radius_m: 5.13e-4, current_A: -1.23e155}]"
)
ROTATION_NOISE = ("noise.domain=rotation", "noise.model.white=1e-8")


def _reject_constant(name):
    """json.loads hook for NaN and Infinity, which strict JSON does not have."""
    raise ValueError(f"{name} is not JSON")


@pytest.mark.parametrize(
    "command, overrides, code",
    [
        ("mission", ["run.mission.v_over_vr=[15.191326049419915, 15.191326049419917]"], 0),
        *(
            ("noise", ["interferometer.interrogation_time_s=1.0", f"noise.model.white={white}"], 0)
            for white in ("5e-324", "1e-323", "4e-322")
        ),
        ("noise", ["noise.band.f_max_hz=1e300"], 1),
        ("allan", ["noise.band.f_max_hz=1e300"], 1),
        ("transfer", ["run.transfer.f_max_hz=1e300"], 1),
        ("guide", ["geometry.loops=[{radius_m: 1e300, current_A: 1}]"], 2),
        ("guide", ["geometry.loops=[{radius_m: 1e-3, current_A: 1e300}]"], 2),
        (
            "guide",
            ["geometry.loops=[{radius_m: 4.87e-4, current_A: -1.23e150}, {radius_m: 5e-4, current_A: 1.21e150}, "
             "{radius_m: 5.13e-4, current_A: -1.23e150}]"],
            0,
        ),
        ("guide", ["geometry.offset_B0_T=1e-6"], 0),
        ("guide", ["geometry.offset_B0_T=1e155"], 0),
        (
            "guide",
            [LOOPS_1E154, "geometry.offset_B0_T=1.5e152", "run.guide.map_n_rho=101", "run.guide.map_n_z=101"],
            0,
        ),
        ("guide", ["geometry.offset_B0_T=1e155", LOOPS_1E154], 0),
        ("guide", [LOOPS_1E156], 0),
        (
            "guide",
            ["species.magnetic_moment_J_T=1e300", "species.name=x", "species.mass_kg=1.4e-25",
             "species.wavelength_m=7.8e-7", "geometry.offset_B0_T=1e10"],
            2,
        ),
        ("allan", [*ROTATION_NOISE, "interferometer.latitude_deg=1e-300"], 2),
        ("allan", [*ROTATION_NOISE, "interferometer.v_launch_over_vr=1e300"], 2),
        ("noise", [*ROTATION_NOISE, "interferometer.v_launch_over_vr=1e300"], 2),
        (
            "noise",
            ["noise.domain=acceleration", "noise.model.white=1e-8", "species.name=x", "species.mass_kg=1.4e-25",
             "species.wavelength_m=1e-200", "species.magnetic_moment_J_T=1e-23"],
            2,
        ),
        ("noise", [*ROTATION_NOISE, "interferometer.interrogation_time_s=1e200"], 2),
        ("sensitivity", ["run.sensitivity.two_t_max_s=1e200"], 2),
        ("allan", ["interferometer.atom_number=1e-300", "interferometer.v_launch_over_vr=1e-300"], 2),
        ("allan", ["noise.domain=phase", "noise.model.white=1e308"], 2),
    ],
    ids=[
        "mission-ulp-tie", "noise-white-5e-324", "noise-white-1e-323", "noise-white-4e-322",
        "noise-band-top-1e300", "allan-band-top-1e300", "transfer-band-top-1e300",
        "guide-loop-radius-1e300", "guide-loop-current-1e300", "guide-currents-1e150", "guide-offset-1e-6",
        "guide-offset-1e155", "guide-currents-1e154-map-overflow", "guide-currents-1e154-offset-1e155",
        "guide-currents-1e156", "guide-moment-1e300-map-overflow",
        "allan-latitude-1e-300", "allan-launch-1e300", "noise-launch-1e300", "noise-wavelength-1e-200",
        "noise-2T-1e200", "sensitivity-2T-1e200", "allan-atoms-and-launch-1e-300", "allan-phase-white-1e308",
    ],
)
def test_edge_inputs_end_in_a_json_status(tmp_path, config_path, capfd, command, overrides, code):
    """Two launch speeds an ulp apart that tie on their 2T, a subnormal PSD,
    a band top with more zeros n / tau than MAX_PULSE_ZEROS, a loop whose
    field overflows, currents of 1e150 A, a small offset field, offsets and
    currents of 1e154 to 1e156 whose |B| or U only squared would leave the
    float range (hypot keeps them finite), a magnetic moment that takes U
    past it in the potential map, and inputs whose rotation chain (scale
    factor, its square, k_eff^2, tau SF^2, the shot-noise slope, the Dick
    sum) leaves the float range: each ends in its exit code and a JSON last
    line, with nothing on stderr, on an error no file, and on success the
    files, a guide's with a finite potential map and strict JSON. A moment
    error names its key."""
    out = tmp_path / "out"
    argv = [command, "--config", config_path, "--out", str(out)]
    assert main(argv + [arg for item in overrides for arg in ("--override", item)]) == code
    captured = capfd.readouterr()
    assert captured.err == ""
    summary = json.loads(captured.out.strip().splitlines()[-1])
    assert summary["status"] == {0: "ok", 1: "config-error", 2: "physics-error"}[code]
    if code:
        assert not out.exists()
        if "magnetic_moment_J_T" in overrides[0]:
            assert "species.magnetic_moment_J_T" in summary["error"]
    elif command == "guide":
        assert sorted(path.name for path in out.iterdir()) == ["guide_characterization.json", "potential_map.csv"]
        record = json.loads((out / "guide_characterization.json").read_text(), parse_constant=_reject_constant)
        resolved = record["provenance"]["config"]
        lines = (out / "potential_map.csv").read_text().splitlines()
        rows = [line.split(",") for line in lines if not line.startswith("#")]
        assert rows[0] == ["rho_m", "z_m", "potential_J"]
        assert len(rows) == 1 + resolved["run.guide.map_n_rho"] * resolved["run.guide.map_n_z"]
        assert all(math.isfinite(float(row[2])) for row in rows[1:])
    elif command == "mission":
        data = np.genfromtxt(out / "mission.csv", delimiter=",", names=True, skip_header=15)
        assert data.size == 2


def test_allan_taus_that_do_not_increase_exit_1(tmp_path, config_path, capsys):
    """tau_min and tau_max one ulp apart put 50 log-spaced taus on two
    floats, so the curve's taus do not increase: exit 1, no file."""
    out = tmp_path / "out"
    overrides = ["run.allan.tau_min_s=1.0", "run.allan.tau_max_s=1.0000000000000002", "run.allan.n_points=50"]
    argv = ["allan", "--config", config_path, "--out", str(out)]
    code, summary = _run(capsys, *argv, *(arg for item in overrides for arg in ("--override", item)))
    assert (code, summary["status"]) == (1, "config-error")
    assert summary["error"] == "Allan curve integration times must be strictly increasing"
    assert not out.exists()


def test_mission_floor_ties_in_config_order(tmp_path, config_path, capsys):
    """Every speed meets the target at the 2T bracket floor, and the speeds
    are not in increasing order: a valid input, written in config order."""
    code, summary = _run(
        capsys,
        "mission",
        "--config",
        config_path,
        "--out",
        str(tmp_path / "out"),
        "--override",
        "run.mission.v_over_vr=[4,2,1]",
        "--override",
        "run.mission.target_sigma_rad_s=1e-6",
    )
    assert code == 0
    data = np.genfromtxt(
        tmp_path / "out" / "mission.csv", delimiter=",", names=True, skip_header=15
    )
    assert list(data["v_over_vr"]) == [4.0, 2.0, 1.0]
    assert np.all(data["min_2T_s"] == 0.01)
    header = _csv_header(tmp_path / "out" / "mission.csv")
    assert json.loads(header["at_bracket_floor_v_over_vr"]) == [4, 2, 1]
    assert summary["at_bracket_floor_v_over_vr"] == [4, 2, 1]


def test_noise_budget_zero_psd_is_exactly_zero(tmp_path, config_path, capsys):
    psd_file = tmp_path / "zero.csv"
    psd_file.write_text("f_hz,psd_value\n1e-4,0.0\n1e0,0.0\n1e3,0.0\n")
    code, _ = _run(
        capsys,
        "noise",
        "--config",
        config_path,
        "--out",
        str(tmp_path / "out"),
        "--override",
        f"noise.file={psd_file}",
        "--override",
        "noise.model=null",
    )
    assert code == 0
    record = json.loads((tmp_path / "out" / "noise_budget.json").read_text())
    for entry in record["entries"]:
        assert entry["variance_rad2"] == 0.0
        assert entry["sigma_phi_rad"] == 0.0
        assert entry["sigma_omega_rad_s"] == 0.0


def test_noise_file_and_model_together_exit_1(tmp_path, config_path, capsys):
    """Both sources are named before the file is read, so also when it is missing."""
    psd_file = tmp_path / "psd.csv"
    psd_file.write_text("f_hz,psd_value\n1e-4,1e-8\n1e3,1e-8\n")
    out = tmp_path / "out"
    for path in (psd_file, tmp_path / "missing.csv"):
        code, summary = _run(
            capsys, "noise", "--config", config_path, "--out", str(out),
            "--override", f"noise.file={path}",
        )
        assert code == 1
        assert summary["error"] == "give noise.file or noise.model, not both; got noise.model.white too"
        assert not out.exists()


def test_override_into_null_section(tmp_path, capsys):
    """An override reaches into a section the YAML leaves null, which reads
    as empty everywhere else."""
    path = tmp_path / "cfg.yaml"
    path.write_text(yaml.safe_dump(BASE_CONFIG) + "species:\n")
    assert load_config(str(path), ["species.name=rb87"])["species"] == {"name": "rb87"}
    code, summary = _run(
        capsys, "transfer", "--config", str(path), "--out", str(tmp_path / "out"),
        "--override", "species.name=rb87",
    )
    assert code == 0, summary


def test_missing_psd_file_exit_1(tmp_path, config_path, capsys):
    code, summary = _run(
        capsys,
        "noise",
        "--config",
        config_path,
        "--out",
        str(tmp_path / "out"),
        "--override",
        f"noise.file={tmp_path / 'nope.csv'}",
        "--override",
        "noise.model=null",
    )
    assert code == 1
    assert summary["status"] == "config-error"
    assert "nope.csv" in summary["error"]


def test_config_loader_overrides():
    config = {"a": {"b": 1}}
    import tempfile, os

    with tempfile.NamedTemporaryFile("w", suffix=".yaml", delete=False) as fh:
        yaml.safe_dump(config, fh)
        path = fh.name
    try:
        loaded = load_config(path, overrides=["a.b=2", "a.c.d=[1, 2]"])
        assert loaded["a"]["b"] == 2
        assert loaded["a"]["c"]["d"] == [1, 2]
    finally:
        os.unlink(path)


def test_csv_floats_full_precision(tmp_path, config_path, capsys):
    _run(capsys, "allan", "--config", config_path, "--out", str(tmp_path / "out"))
    lines = (tmp_path / "out" / "allan.csv").read_text().splitlines()
    first_row = next(l for l in lines if not l.startswith("#") and not l.startswith("tau"))
    tau_str, sigma_str = first_row.split(",")
    # round-tripping the printed value reproduces it exactly
    assert format(float(sigma_str), ".17g") == sigma_str
    assert len(sigma_str.replace("-", "").replace(".", "").split("e")[0]) >= 16


def _config_sha256(config):
    """sha256 of the canonical JSON of a resolved config."""
    return hashlib.sha256(json.dumps(config, sort_keys=True, separators=(",", ":")).encode()).hexdigest()


def test_provenance_block_hashes_its_config(tmp_path, config_path, capsys):
    """Every output of the six subcommands carries the version and the hash
    of the resolved config it holds, and one override moves the hash."""
    hashes = []
    for name, overrides in (("a", []), ("b", ["interferometer.dead_time_s=0.5"])):
        out = tmp_path / name
        argv = ["--config", config_path, "--out", str(out)]
        for override in overrides:
            argv += ["--override", override]
        for command in ("transfer", "sensitivity", "allan", "mission", "noise", "guide"):
            assert _run(capsys, command, *argv)[0] == 0, command
        records = [json.loads(path.read_text())["provenance"] for path in sorted(out.glob("*.json"))]
        assert len(records) == 3 and all(record == records[0] for record in records)
        provenance = records[0]
        assert set(provenance) == {"version", "config", "config_sha256"}
        assert provenance["version"] == chipgyro.__version__
        assert provenance["config"] == resolve_config(load_config(config_path, overrides))
        assert provenance["config_sha256"] == _config_sha256(provenance["config"])
        csv_files = sorted(out.glob("*.csv"))
        assert len(csv_files) == 6
        for path in csv_files:
            lines = path.read_text().splitlines()
            assert lines[:2] == [
                f"# chipgyro_version: {chipgyro.__version__}",
                f"# config_sha256: {provenance['config_sha256']}",
            ]
        hashes.append(provenance["config_sha256"])
    assert hashes[0] != hashes[1]


def test_provenance_hashes_the_psd_file(tmp_path, config_path, capsys):
    """A relative noise.file enters the block joined to the config's
    directory, next to the sha256 of the bytes read."""
    psd_file = tmp_path / "psd.csv"
    psd_file.write_bytes(b"f_hz,psd_value\n1e-4,1e-8\n1e3,2e-8\n")
    out = tmp_path / "out"
    code, _ = _run(
        capsys, "noise", "--config", config_path, "--out", str(out),
        "--override", "noise.file=psd.csv", "--override", "noise.model=null",
    )
    assert code == 0
    provenance = json.loads((out / "noise_budget.json").read_text())["provenance"]
    assert provenance["config"]["noise.file"] == str(psd_file)
    assert provenance["psd_file_sha256"] == hashlib.sha256(psd_file.read_bytes()).hexdigest()
    assert provenance["config_sha256"] == _config_sha256(provenance["config"])


def test_unreadable_psd_file_fails_every_subcommand(tmp_path, config_path, capsys):
    """The provenance of any subcommand hashes noise.file, so a config that
    names a missing one exits 1 naming it, with no file written."""
    out = tmp_path / "out"
    code, summary = _run(
        capsys, "transfer", "--config", config_path, "--out", str(out),
        "--override", "noise.file=missing.csv", "--override", "noise.model=null",
    )
    assert code == 1
    assert summary["status"] == "config-error"
    assert str(tmp_path / "missing.csv") in summary["error"]
    assert not out.exists()


@pytest.mark.parametrize(
    "error, code",
    [(PhysicsError, 2), (ConfigError, 1), (ImportError, 3)],
    ids=["PhysicsError", "ConfigError", "ImportError"],
)
def test_failing_stage_writes_no_file(tmp_path, config_path, capsys, monkeypatch, error, code):
    """The guide stage fails after its characterization is computed, on the
    potential map: --out is left without any file, temporary ones included."""
    trap_potential = chipgyro.guide.trap_potential

    def failing_on_the_map(geometry, species, rho, z, offset_b0):
        if np.ndim(rho) == 2:  # the map's grid; the characterization's points are 1-D or scalars
            raise error("potential map failed")
        return trap_potential(geometry, species, rho, z, offset_b0)

    monkeypatch.setattr("chipgyro.guide.trap_potential", failing_on_the_map)
    out = tmp_path / "out"
    out.mkdir()
    assert _run(capsys, "guide", "--config", config_path, "--out", str(out))[0] == code
    assert list(out.iterdir()) == []


@pytest.mark.parametrize(
    "command, overrides, keys",
    [
        ("guide", ["run.guide.map_n_rho=1000001", "run.guide.map_n_z=1"], "run.guide.map_n_rho x map_n_z"),
        (
            "transfer",
            ["run.transfer.f_min_hz=1", "run.transfer.f_max_hz=10", "run.transfer.points_per_decade=1000000"],
            "run.transfer.f_min_hz, f_max_hz and points_per_decade",
        ),
        (
            "sensitivity",
            ["run.sensitivity.n_points=1000001", "run.sensitivity.atom_numbers=[1e4]"],
            "run.sensitivity.n_points x len(atom_numbers)",
        ),
        ("allan", ["run.allan.n_points=1000001"], "run.allan.n_points"),
    ],
    ids=["guide", "transfer", "sensitivity", "allan"],
)
def test_table_over_max_rows_is_a_config_error(tmp_path, config_path, capsys, monkeypatch, command, overrides, keys):
    """MAX_TABLE_ROWS + 1 rows of a table end in exit 1 naming the keys that
    set them, before any array is built: the stages run without numpy, and
    the guide without its characterization."""
    assert chipgyro.cli.MAX_TABLE_ROWS + 1 == 1000001
    monkeypatch.setattr(chipgyro.cli, "np", None)
    monkeypatch.setattr("chipgyro.guide.characterize_guide", None)
    out = tmp_path / "out"
    argv = [command, "--config", config_path, "--out", str(out)]
    code, summary = _run(capsys, *argv, *(arg for item in overrides for arg in ("--override", item)))
    assert (code, summary["status"]) == (1, "config-error")
    assert summary["error"] == f"{keys} ask for 1000001 table rows, over MAX_TABLE_ROWS = 1000000"
    assert not out.exists()


def test_transfer_table_with_pulse_zeros_over_max_rows(tmp_path, capsys, monkeypatch):
    """The default transfer grid has 2001 log points, and the band merges the
    zeros n / tau into them: at a cap of 2001 rows the written table would
    hold 2003, so the run exits 1 naming the keys that set them."""
    monkeypatch.setattr(chipgyro.cli, "MAX_TABLE_ROWS", 2001)
    path = tmp_path / "empty.yaml"
    path.write_text("{}\n")
    out = tmp_path / "out"
    code, summary = _run(capsys, "transfer", "--config", str(path), "--out", str(out))
    assert (code, summary["status"]) == (1, "config-error")
    keys = "run.transfer.f_min_hz, f_max_hz and points_per_decade with interferometer.pulse_duration_s"
    assert summary["error"] == f"{keys} ask for 2003 table rows, over MAX_TABLE_ROWS = 2001"
    assert not out.exists()


@pytest.mark.parametrize("bad", ["record", "summary"])
def test_non_finite_json_is_a_physics_error(tmp_path, config_path, capsys, monkeypatch, bad):
    """A stage whose JSON record or summary holds a NaN or an infinity, which
    json.dumps would write as NaN or Infinity, not JSON: exit 2 naming the
    file or the summary line, and no file in --out."""

    def stage(config):
        files = {"a.csv": _csv({}, ["x"], [(1.0,)]), "b.json": {"x": math.nan if bad == "record" else 1.0}}
        return files, {"x": math.inf if bad == "summary" else 1.0}

    monkeypatch.setitem(chipgyro.cli.COMMANDS, "noise", stage)
    out = tmp_path / "out"
    out.mkdir()
    code, summary = _run(capsys, "noise", "--config", config_path, "--out", str(out))
    assert (code, summary["status"]) == (2, "physics-error")
    assert (str(out / "b.json") if bad == "record" else "the summary line") in summary["error"]
    assert list(out.iterdir()) == []


def test_failing_write_leaves_no_file(tmp_path):
    """An error while the second file is streamed names it, and removes the
    temporary file of the first as well as its own."""

    def lines():
        yield "1\n"
        raise OSError("device full")

    files = {"a.json": {"x": 1}, "b.csv": ({}, ["x"], lines())}
    with pytest.raises(ConfigError, match="b.csv: device full"):
        _write_files(str(tmp_path), files, resolve_config({}))
    assert list(tmp_path.iterdir()) == []


def test_import_loads_no_hashlib():
    """Only the writer imports hashlib."""
    assert _python("import sys, chipgyro.cli; print('hashlib' in sys.modules)").split() == ["False"]


def test_csv_text_matches_per_cell_rule(tmp_path):
    """The row template prints every cell as the per-cell rule it replaced:
    format(v, ".17g") for a float, str(v) for an int. Ints are exact up to
    2**53, the largest range in which every int is a double."""
    rows = [
        (1.0, np.float64(0.1), 3),
        (-0.0, math.inf, -math.inf),
        (0.12345678901234567, 1.2345678901234567e-300, 2 ** 53),
        (np.float64(2.0) / 3.0, 5e-324, -7),
        (1e16, 1.7976931348623157e308, 0),
        (math.pi * 1e22, np.float64(-1e-5), -(2 ** 53) + 1),
    ]
    rows += [(float(x), np.float64(x) * 3.0, int(x * 1e15)) for x in np.linspace(-1.0, 1.0, 101)]
    config = resolve_config({})
    spec = _csv({"offset_B0_T": "0.015", "species": "rb87"}, ["a", "b", "c"], iter(rows))
    _write_files(str(tmp_path), {"rows.csv": spec}, config)

    def cell(v):
        return format(v, ".17g") if isinstance(v, float) else str(v)

    expected = f"# chipgyro_version: {chipgyro.__version__}\n# config_sha256: {_config_sha256(config)}\n"
    expected += "# offset_B0_T: 0.015\n# species: rb87\na,b,c\n"
    expected += "".join(",".join(cell(v) for v in row) + "\n" for row in rows)
    assert (tmp_path / "rows.csv").read_bytes() == expected.encode()


def _child(*argv):
    """``python argv`` with this checkout's chipgyro on the path, run to exit."""
    src = os.path.dirname(os.path.dirname(chipgyro.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    return subprocess.run([sys.executable, *argv], env=env, capture_output=True, text=True)


def _python(code, *args):
    """stdout of ``python -c code args``, which must exit 0."""
    proc = _child("-c", code, *args)
    proc.check_returncode()
    return proc.stdout


@pytest.mark.parametrize(
    "module", ["scipy.ndimage", "scipy.integrate", "scipy.optimize", "scipy.special", "scipy.linalg"]
)
def test_import_leaves_out_scipy(module):
    probe = (
        f"import sys, chipgyro; print({module!r} in sys.modules); "
        f"import chipgyro.cli; print({module!r} in sys.modules)"
    )
    assert _python(probe).split() == ["False", "False"]


LAYERS = [f"chipgyro.{m}" for m in ("guide", "magnetostatics", "interferometer", "noise", "stability")]


def test_import_loads_no_layer():
    probe = (
        f"import sys, chipgyro; print([m for m in {LAYERS!r} if m in sys.modules]); "
        f"import chipgyro.cli; print([m for m in {LAYERS!r} if m in sys.modules])"
    )
    assert _python(probe).split() == ["[]", "[]"]


def test_lazy_names_are_the_layers_own():
    """Each public name, read first through the package and then by a star
    import, is the object its layer defines; a layer name is the layer."""
    probe = (
        "import importlib, sys, chipgyro\n"
        "star = {}\n"
        "exec('from chipgyro import *', star)\n"
        "assert set(chipgyro.__all__) <= set(dir(chipgyro)) & set(star)\n"
        "for name in chipgyro.__all__:\n"
        "    layer = chipgyro._LAYER_OF.get(name)\n"
        "    own = importlib.import_module(f'chipgyro.{layer or name}')\n"
        "    own = getattr(own, name) if layer else own\n"
        "    assert getattr(chipgyro, name) is own is star[name], name\n"
        "print(len(chipgyro.__all__))"
    )
    # every layer and every name it lists is one public name: none is listed twice
    table_size = sum(1 + len(names) for names in chipgyro._LAYERS.values())
    assert int(_python(probe)) == len(chipgyro.__all__) == table_size


def test_lazy_layers_in_process():
    """In this process too, a layer read through the package is the module
    imported under its own name, and dir() lists every public name. Once
    imported, the layer is a package attribute, so the module __getattr__
    is also called by name."""
    assert chipgyro.noise is sys.modules["chipgyro.noise"] is chipgyro.__getattr__("noise")
    assert set(chipgyro.__all__) <= set(dir(chipgyro))


@pytest.mark.parametrize("name", ["scipy.special._no_such_module", "scipy.nosub._x"])
def test_missing_compiled_module_raises_import_error(name):
    """A missing module is named, with the installed scipy version, and the
    ``scipy`` package is not imported to find that version."""
    probe = (
        "import sys\n"
        "from chipgyro._scipy import compiled_module\n"
        "try:\n"
        f"    compiled_module({name!r})\n"
        "except ImportError as error:\n"
        "    print(error)\n"
        "print('scipy' in sys.modules)"
    )
    message, scipy_loaded = _python(probe).splitlines()
    assert message == f"{name} is not in scipy {importlib.metadata.version('scipy')}"
    assert scipy_loaded == "False"


def test_missing_compiled_module_exits_3(tmp_path, config_path, capsys, monkeypatch):
    name = "scipy.special._special_ufuncs_renamed"
    monkeypatch.setattr("chipgyro.magnetostatics.compiled_module", lambda _: compiled_module(name))
    code = main(["guide", "--config", config_path, "--out", str(tmp_path / "out")])
    captured = capsys.readouterr()
    assert code == 3
    assert captured.err == ""
    assert json.loads(captured.out) == {
        "command": "guide",
        "status": "environment-error",
        "error": f"{name} is not in scipy {importlib.metadata.version('scipy')}",
    }


def test_exit_codes_match_their_docs():
    """The exit codes the cli docstring and README list are the ones ``main``
    returns."""

    def listed(text):
        sentence = re.search(r"Exit\s+codes:(.*?)(?:\n\n|$)", text, re.S).group(1)
        return {int(code) for code in re.findall(r"(?:^|,)\s+(\d+)\s", sentence)}

    returned = {int(code) for code in re.findall(r"return (\d+)$", inspect.getsource(main), re.M)}
    assert listed(chipgyro.cli.__doc__) == listed((REPO / "README.md").read_text()) == returned == {0, 1, 2, 3}


@pytest.mark.parametrize(
    "module, entry",
    [
        ("scipy.special._special_ufuncs", "ellipk"),
        ("scipy.special._special_ufuncs", "ellipe"),
        ("scipy.integrate._quadpack", "_qagse"),
        ("scipy.integrate._quadpack", "_qawoe"),
    ],
)
def test_compiled_entry_points_exist(module, entry):
    """Every private scipy entry point chipgyro calls is there, so a scipy
    that renames one fails here by name."""
    assert callable(getattr(compiled_module(module), entry))


def test_every_public_name_has_a_user():
    """Each public name is referenced, other than where it is defined, in the
    package's modules, the README, the acceptance tests or the benchmark: a
    name that only its own tests use is deleted, not exported."""
    exempt = {"OMEGA_EARTH"}  # the Earth-rate noise source (ROADMAP D13) needs it
    files = [path for path in (REPO / "src" / "chipgyro").glob("*.py") if path.name != "__init__.py"]
    files += [REPO / "README.md", REPO / "tests" / "test_acceptance.py"]
    files += [path for path in (REPO / "perfbench").glob("*") if path.suffix in (".py", ".md")]
    text = "\n".join(path.read_text(encoding="utf-8") for path in files)
    unused = set()
    for name in chipgyro.__all__:
        references = len(re.findall(rf"\b{name}\b", text))
        definitions = len(re.findall(rf"^(?:(?:def|class) +{name}\b|{name} *=)", text, re.M))
        if references == definitions:
            unused.add(name)
    assert unused == exempt


LAYER_ROWS = [
    ("guide", ["guide", "magnetostatics"], []),
    ("transfer", ["interferometer"], []),
    ("sensitivity", ["interferometer", "stability"], []),
    ("allan", ["interferometer", "noise", "stability"], []),
    ("allan", ["interferometer", "stability"], ["noise=null"]),
    ("mission", ["interferometer", "stability"], []),
    ("noise", ["interferometer", "noise"], []),
]


@pytest.mark.parametrize(
    "command, layers, overrides",
    LAYER_ROWS,
    ids=[f"{command}-{'+'.join(layers)}" for command, layers, _ in LAYER_ROWS],
)
def test_each_subcommand_loads_only_its_layers(tmp_path, config_path, command, layers, overrides):
    """With the test config's noise block, allan also loads noise for the
    Dick curve; without one it does not."""
    probe = (
        "import sys, chipgyro.cli\n"
        "argv = [sys.argv[1], '--config', sys.argv[2], '--out', sys.argv[3], *sys.argv[4:]]\n"
        "assert chipgyro.cli.main(argv) == 0\n"
        f"print(sorted(m for m in {LAYERS!r} if m in sys.modules))"
    )
    flags = [arg for override in overrides for arg in ("--override", override)]
    loaded = _python(probe, command, config_path, str(tmp_path / "out"), *flags).splitlines()[-1]
    assert loaded == repr(sorted(f"chipgyro.{layer}" for layer in layers))


def test_guide_loads_no_scipy_package_and_no_other_layer(tmp_path, config_path):
    """A guide child, on the design guide and a 1 mm ring, loads the elliptic
    ufuncs' compiled module and no other scipy module, the ``scipy`` package
    included, and none of the noise, interferometer or stability layers."""
    probe = (
        "import sys, chipgyro.cli\n"
        "base = ['--config', sys.argv[1], '--out', sys.argv[2]]\n"
        "for argv in (['guide'], ['guide', '--override', sys.argv[3]]):\n"
        "    assert chipgyro.cli.main(argv + base) == 0\n"
        "names = ('chipgyro.noise', 'chipgyro.interferometer', 'chipgyro.stability')\n"
        "print(sorted(m for m in sys.modules if m in names or m == 'scipy' or m.startswith('scipy.')))"
    )
    loaded = _python(probe, config_path, str(tmp_path / "out"), f"geometry.loops={RING_LOOPS}")
    assert loaded.splitlines()[-1] == "['scipy.special._special_ufuncs']"


def test_transfer_sensitivity_allan_load_no_scipy(tmp_path, config_path):
    probe = (
        "import sys, chipgyro.cli\n"
        "for command in ('transfer', 'sensitivity', 'allan'):\n"
        "    assert chipgyro.cli.main([command, '--config', sys.argv[1], '--out', sys.argv[2]]) == 0\n"
        "print(sorted(m for m in sys.modules if m == 'scipy' or m.startswith('scipy.')))"
    )
    assert _python(probe, config_path, str(tmp_path / "out")).splitlines()[-1] == "[]"


def test_mission_loads_no_scipy(tmp_path, config_path):
    """The mission solver bisects over floats with the standard library, so a
    mission child loads no scipy module, the ``scipy`` package included."""
    probe = (
        "import sys, chipgyro.cli\n"
        "assert chipgyro.cli.main(['mission', '--config', sys.argv[1], '--out', sys.argv[2]]) == 0\n"
        "print(sorted(m for m in sys.modules if m == 'scipy' or m.startswith('scipy.')))"
    )
    assert _python(probe, config_path, str(tmp_path / "out")).splitlines()[-1] == "[]"


def test_guide_and_mission_load_no_scipy_special_optimize_or_linalg(tmp_path, config_path):
    """The elliptic ufuncs are loaded from their compiled module on their own
    and mission loads no scipy module, so guide (design and 1 mm ring) and
    mission children import neither the scipy subpackages nor what their
    packages pull in."""
    ring = (
        "geometry.loops=[{radius_m: 974e-6, current_A: -0.123}, {radius_m: 1000e-6, current_A: 0.121},"
        " {radius_m: 1026e-6, current_A: -0.123}]"
    )
    probe = (
        "import sys, chipgyro.cli\n"
        "base = ['--config', sys.argv[1], '--out', sys.argv[2]]\n"
        "for argv in (['guide'], ['guide', '--override', sys.argv[3]], ['mission']):\n"
        "    assert chipgyro.cli.main(argv + base) == 0\n"
        "names = ('scipy.special', 'scipy.optimize', 'scipy.linalg', 'scipy._lib._array_api', 'numpy.f2py')\n"
        "print([m for m in names if m in sys.modules])"
    )
    assert _python(probe, config_path, str(tmp_path / "out"), ring).splitlines()[-1] == "[]"


def test_noise_loads_no_scipy_integrate_special_optimize_or_linalg(tmp_path, config_path):
    """QUADPACK's compiled module is loaded on its own, so a noise child on a
    phase, an acceleration and a tabulated rotation PSD imports none of the
    scipy subpackages ``scipy.integrate`` would pull in; nor ``numpy.ma``,
    which ``np.unique`` imports."""
    psd_file = tmp_path / "rotation.csv"
    psd_file.write_text("f_hz,psd_value\n1e-4,1e-14\n1.0,2e-15\n1e3,1e-16\n")
    probe = (
        "import sys, chipgyro.cli\n"
        "out, psd = sys.argv[2], sys.argv[3]\n"
        "for overrides in (['noise.domain=phase'], ['noise.domain=acceleration', 'noise.model.white=1e-12'],\n"
        "                  ['noise.domain=rotation', 'noise.file=' + psd, 'noise.model=null']):\n"
        "    argv = ['noise', '--config', sys.argv[1], '--out', out]\n"
        "    for override in overrides:\n"
        "        argv += ['--override', override]\n"
        "    assert chipgyro.cli.main(argv) == 0\n"
        "names = ('scipy.integrate', 'scipy.special', 'scipy.optimize', 'scipy.linalg', 'numpy.ma')\n"
        "print([m for m in names if m in sys.modules])"
    )
    assert _python(probe, config_path, str(tmp_path / "out"), str(psd_file)).splitlines()[-1] == "[]"


@pytest.mark.parametrize(
    "overrides",
    [
        ["noise.domain=acceleration", "noise.model.white=1e-12", "noise.band.f_min_hz=1e-100"],
        ["noise.domain=rotation", "noise.model.random_walk=1e-14", "noise.band.f_min_hz=1e-170"],
    ],
    ids=["acceleration-1e-100", "rotation-1e-170"],
)
def test_noise_tiny_infrared_cutoff_exits_2_naming_the_band(tmp_path, config_path, capsys, overrides):
    """A cutoff so small that a power of f underflows, on a PSD whose phase
    variance diverges like 1/f_min, gives a JSON physics error naming the
    band, not a ZeroDivisionError traceback."""
    argv = ["noise", "--config", config_path, "--out", str(tmp_path / "out")]
    for override in overrides:
        argv += ["--override", override]
    code, summary = _run(capsys, *argv)
    assert code == 2
    assert summary["status"] == "physics-error"
    f_min = overrides[-1].split("=")[1]
    assert f"band [{f_min}, 1000.0]" in summary["error"]
    assert not (tmp_path / "out" / "noise_budget.json").exists()


def _assert_cutoff_converges_to_wide_band(tmp_path, config_path, capsys, f_min, *overrides):
    """White noise whose phase variance stays finite down to DC: a noise run
    at the cutoff ``f_min`` converges to the run at 1e-150."""
    results = []
    for cutoff in ("1e-150", f_min):
        out = tmp_path / cutoff
        argv = ["noise", "--config", config_path, "--out", str(out)]
        for override in (*overrides, f"noise.band.f_min_hz={cutoff}"):
            argv += ["--override", override]
        code, _ = _run(capsys, *argv)
        assert code == 0, cutoff
        results.append(json.loads((out / "noise_budget.json").read_text())["entries"][0]["result"])
    assert all(result["converged"] for result in results)
    wide, tiny = results
    assert abs(tiny["value"] - wide["value"]) <= tiny["error_estimate"] + wide["error_estimate"]


def test_noise_white_rotation_tiny_infrared_cutoff_converges(tmp_path, config_path, capsys):
    """K |H|^2 tends to (G D)^2 at DC, G = rotation_gain, so a cutoff at which omega^2
    underflows converges for white rotation noise."""
    _assert_cutoff_converges_to_wide_band(
        tmp_path, config_path, capsys, "1e-170",
        "interferometer.interrogation_time_s=1.0",
        "noise.domain=rotation",
        "noise.model=null",
        "noise.model.white=1e-20",
    )


def test_noise_cutoff_whose_band_ratio_overflows_converges(tmp_path, config_path, capsys):
    """At 1e-306 the ratio f_max / f_min overflows to inf; the octave panel
    edges are still finite, and white phase noise converges."""
    _assert_cutoff_converges_to_wide_band(
        tmp_path, config_path, capsys, "1e-306", "interferometer.interrogation_time_s=1.0"
    )


@pytest.mark.parametrize(
    "domain, white, notes",
    [
        ("phase", 1e-8, ""),
        ("acceleration", 1e-12, "omega^-4 kernel bounded by infrared cutoff 0.0001 Hz"),
        ("rotation", 1e-14, ""),
    ],
    ids=["phase", "acceleration", "rotation"],
)
def test_noise_calls_the_variance_function_bound_at_call_time(
    tmp_path, config_path, capsys, monkeypatch, domain, white, notes
):
    results = []
    phase_variance = chipgyro.noise.phase_variance

    def recording_phase_variance(*args, **kwargs):
        results.append(phase_variance(*args, **kwargs))
        return results[-1]

    monkeypatch.setattr(chipgyro.noise, "phase_variance", recording_phase_variance)
    code, _ = _run(
        capsys, "noise", "--config", config_path, "--out", str(tmp_path / "out"),
        "--override", f"noise.domain={domain}", "--override", f"noise.model.white={white}",
    )
    assert code == 0
    assert len(results) == 1
    record = json.loads((tmp_path / "out" / "noise_budget.json").read_text())
    entry = record["entries"][0]
    assert entry["domain"] == results[0].domain == domain
    assert entry["result"]["n_evals"] == results[0].n_evals > 0
    assert entry["result"]["notes"] == notes
    assert entry["result"]["converged"] is True
    ai = _interferometer_from_config(resolve_config(load_config(config_path)))
    assert entry["sigma_omega_rad_s"] == entry["sigma_phi_rad"] / abs(scale_factor(ai)) > 0


def _cli(*argv):
    """(exit code, last stdout line as JSON) of ``python -m chipgyro.cli argv``."""
    proc = _child("-m", "chipgyro.cli", *argv)
    assert proc.stderr == ""
    return proc.returncode, json.loads(proc.stdout.splitlines()[-1])


def test_process_entry_exit_codes(tmp_path, config_path):
    out = tmp_path / "out"
    code, summary = _cli("transfer", "--config", config_path, "--out", str(out))
    assert (code, summary["status"]) == (0, "ok")
    assert summary["outputs"] and all(os.path.exists(path) for path in summary["outputs"])
    code, summary = _cli("transfer", "--config", str(tmp_path / "nope.yaml"))
    assert (code, summary["status"]) == (1, "config-error")
    loops = "[{radius_m: 487e-6, current_A: 0}, {radius_m: 500e-6, current_A: 0}]"
    code, summary = _cli(
        "guide", "--config", config_path, "--out", str(out), "--override", f"geometry.loops={loops}"
    )
    assert (code, summary["status"]) == (2, "physics-error")


def test_run_freezes_the_collector_and_main_does_not(config_path, capsys):
    assert main(["transfer", "--config", config_path + ".missing"]) == 1
    assert gc.get_freeze_count() == 0
    # the module run as __main__, as python -m runs it; atexit handlers still run
    probe = (
        "import atexit, gc, runpy, sys\n"
        "atexit.register(lambda: print('frozen', gc.get_freeze_count() > 0))\n"
        "sys.argv = ['chipgyro', 'transfer', '--config', sys.argv[1]]\n"
        "runpy.run_module('chipgyro.cli', run_name='__main__')"
    )
    proc = _child("-c", probe, config_path + ".missing")
    assert proc.returncode == 1
    assert json.loads(proc.stdout.splitlines()[0])["status"] == "config-error"
    assert proc.stdout.splitlines()[1] == "frozen True"


def test_console_script_is_the_process_entry():
    tomllib = pytest.importorskip("tomllib")
    with open(REPO / "pyproject.toml", "rb") as handle:
        target = tomllib.load(handle)["project"]["scripts"]["chipgyro"]
    assert target == "chipgyro.cli:run"
    module, name = target.split(":")
    entry = getattr(importlib.import_module(module), name)
    assert callable(entry) and entry is chipgyro.cli.run
