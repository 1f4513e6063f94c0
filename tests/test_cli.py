import json
import math
import os
import subprocess
import sys

import numpy as np
import pytest
import yaml

import chipgyro
from chipgyro.cli import load_config, main

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
    )
    assert code == 0
    record = json.loads((tmp_path / "out" / "noise_budget.json").read_text())
    for entry in record["entries"]:
        assert entry["variance_rad2"] == 0.0
        assert entry["sigma_phi_rad"] == 0.0
        assert entry["sigma_omega_rad_s"] == 0.0


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


@pytest.mark.parametrize("module", ["scipy.ndimage", "scipy.integrate"])
def test_import_leaves_out_scipy_ndimage(module):
    src = os.path.dirname(os.path.dirname(chipgyro.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    probe = f"import sys, chipgyro.cli; print({module!r} in sys.modules)"
    proc = subprocess.run(
        [sys.executable, "-c", probe], env=env, capture_output=True, text=True, check=True
    )
    assert proc.stdout.strip() == "False"
