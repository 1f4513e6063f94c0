import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
import yaml

import chipgyro
from chipgyro.cli import SCHEMA, load_config, main, resolve_config

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


def test_outputs_bitwise_deterministic(tmp_path, config_path, capsys):
    for command in ("transfer", "sensitivity", "allan", "mission", "noise"):
        _run(capsys, command, "--config", config_path, "--out", str(tmp_path / "a"))
        _run(capsys, command, "--config", config_path, "--out", str(tmp_path / "b"))
    for name in (
        "transfer.csv",
        "sensitivity.csv",
        "allan.csv",
        "allan_assumptions.json",
        "mission.csv",
        "noise_budget.json",
    ):
        assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()


def test_missing_config_exit_1(tmp_path, capsys):
    code, summary = _run(capsys, "transfer", "--config", str(tmp_path / "nope.yaml"))
    assert code == 1
    assert summary["status"] == "config-error"


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
        ("mission", ["run.mission.v_over_vr=abc"]),
        ("noise", ["noise.band.f_max_hz=abc"]),
        ("noise", ["noise.band.f_min_hz=-1"]),
        ("guide", ["geometry.loops=[abc]"]),
        ("guide", ["geometry.loops=[{radius_m: abc, current_A: 1}]"]),
        ("guide", ["geometry.loops=[{radius_m: 5.0e-4, current_A: 0.1, heigth_m: 0}]"]),
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


@pytest.mark.parametrize(
    "case", ["config-is-directory", "config-not-utf8", "psd-not-utf8", "override-not-yaml", "out-under-file"]
)
def test_unreadable_input_exit_1(tmp_path, config_path, capsys, case):
    argv, named = ["--config", config_path], config_path
    if case == "config-is-directory":
        argv, named = ["--config", str(tmp_path)], str(tmp_path)
    elif case == "config-not-utf8":
        Path(config_path).write_bytes(b"interferometer:\n  latitude_deg: \xff\n")
    elif case == "psd-not-utf8":
        (tmp_path / "psd.csv").write_bytes(b"f_hz,psd_value\n0.1,1e-8\n1.0,\xff\n")
        argv, named = [*argv, "--override", "noise.file=psd.csv", "--override", "noise.model=null"], "psd.csv"
    elif case == "override-not-yaml":
        argv, named = [*argv, "--override", "interferometer.contrast=["], "interferometer.contrast=["
    else:
        blocker = tmp_path / "file"
        blocker.write_text("")
        argv, named = [*argv, "--out", str(blocker / "out")], str(blocker)
    code = main(["noise" if case == "psd-not-utf8" else "transfer", *argv])
    captured = capsys.readouterr()
    assert code == 1
    assert captured.err == ""
    summary = json.loads(captured.out)
    assert summary["status"] == "config-error"
    assert named in summary["error"]


def test_misspelled_key_suggests_the_right_one(config_path, capsys):
    code, summary = _run(
        capsys, "transfer", "--config", config_path,
        "--override", "interferometer.interogation_time_s=9.0",
    )
    assert code == 1
    assert "did you mean 'interferometer.interrogation_time_s'?" in summary["error"]


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
    assert [path for path in SCHEMA if f"`{path}`" not in readme] == []


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


def test_guide_work_counters(tmp_path, config_path, capsys):
    code, _ = _run(capsys, "guide", "--config", config_path, "--out", str(tmp_path))
    assert code == 0
    record = json.loads((tmp_path / "guide_characterization.json").read_text())
    assert 0 < record["minimizer_iterations"] < 4000
    assert len(record["depth_grid_step_m"]) == 2
    assert 0 < record["depth_map_points"] <= 0.05 * 1001 ** 2


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
    assert s2["f_LP_hz"] == pytest.approx(s1["f_LP_hz"] / 2.0, rel=1e-3)


def _read_transfer(path):
    return np.genfromtxt(path, delimiter=",", names=True, skip_header=4)


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
        tmp_path / "out" / "sensitivity.csv", delimiter=",", names=True, skip_header=11
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
    data = np.genfromtxt(tmp_path / "out" / "allan.csv", delimiter=",", names=True, skip_header=1)
    assert np.all(np.diff(data["tau_s"]) > 0)
    assert np.all(np.diff(data["sigma_rad_s"]) < 0)
    record = json.loads((tmp_path / "out" / "allan_assumptions.json").read_text())
    assert record["model"] == "projection"
    assert record["assumptions"]["sin_latitude"] == pytest.approx(math.sin(math.radians(48.85)))


def test_mission_output(tmp_path, config_path, capsys):
    _run(capsys, "mission", "--config", config_path, "--out", str(tmp_path / "out"))
    data = np.genfromtxt(
        tmp_path / "out" / "mission.csv", delimiter=",", names=True, skip_header=12
    )
    assert np.all(np.diff(data["min_2T_s"]) < 0)
    assert np.allclose(
        data["R_m"],
        data["v_over_vr"] * 5.8845e-3 * data["min_2T_s"] / (2 * math.pi),
        rtol=1e-4,
    )


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
    psd_file = tmp_path / "psd.csv"
    psd_file.write_text("f_hz,psd_value\n1e-4,1e-8\n1e3,1e-8\n")
    out = tmp_path / "out"
    code, summary = _run(
        capsys, "noise", "--config", config_path, "--out", str(out),
        "--override", f"noise.file={psd_file}",
    )
    assert code == 1
    assert summary["status"] == "config-error"
    assert "noise.file" in summary["error"] and "noise.model.white" in summary["error"]
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


def _python(code, *args):
    """stdout of ``python -c code args`` with this checkout's chipgyro on the path."""
    src = os.path.dirname(os.path.dirname(chipgyro.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.run(
        [sys.executable, "-c", code, *args], env=env, capture_output=True, text=True, check=True
    )
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


def test_transfer_sensitivity_allan_load_no_scipy(tmp_path, config_path):
    probe = (
        "import sys, chipgyro.cli\n"
        "for command in ('transfer', 'sensitivity', 'allan'):\n"
        "    assert chipgyro.cli.main([command, '--config', sys.argv[1], '--out', sys.argv[2]]) == 0\n"
        "print(sorted(m for m in sys.modules if m == 'scipy' or m.startswith('scipy.')))"
    )
    assert _python(probe, config_path, str(tmp_path / "out")).splitlines()[-1] == "[]"


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
