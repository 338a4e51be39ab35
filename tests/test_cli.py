"""End-to-end command-line behavior: files, formats, exit codes, determinism."""
from __future__ import annotations

import csv
import filecmp
import json
import re
import subprocess
import sys

import numpy as np
import pytest

from navkit import cli, simulate, so3_exp
from navkit.cli import main
from navkit.config import build_run_config, load_config
from navkit.earth import ned_world

HASH_LINE = re.compile(r"^# config_sha256=[0-9a-f]{64}$")


def _config(**tweaks):
    cfg = {
        "schema_version": 1,
        "origin": {"latitude_deg": 45.0},
        "trajectory": {
            "segments": [
                {"type": "straight", "duration": 6.0, "speed": 20.0},
                {"type": "turn", "duration": 4.0, "yaw_rate": 0.05, "speed": 20.0},
            ]
        },
        "sensors": {"gyro_bias": [1e-5, -5e-6, 8e-6], "accel_bias": [1e-4, -2e-4, 5e-5]},
        "monte_carlo": {"n_runs": 2},
        "seed": 11,
        "autonomy": {
            "xi0": [0.01, -0.02, 0.015, 0.1, -0.05, 0.08, 20.0, -10.0, 15.0],
            "trajectory_b": {"segments": [{"type": "rest", "duration": 10.0}]},
        },
    }
    cfg.update(tweaks)
    return cfg


@pytest.fixture
def cfg_file(tmp_path):
    path = tmp_path / "config.json"
    path.write_text(json.dumps(_config()))
    return str(path)


def _read_csv(path):
    """(hash line, header row, data rows) of one output file."""
    raw = path.read_bytes().decode("utf-8")
    assert "\r\n" in raw  # RFC-4180 line endings
    lines = raw.split("\r\n")
    assert HASH_LINE.match(lines[0]), lines[0]
    rows = list(csv.reader(lines[1:]))
    assert rows[-1] == []
    return lines[0], rows[0], [r for r in rows[1:] if r]


def test_simulate_outputs(tmp_path, cfg_file):
    out = tmp_path / "sim"
    assert main(["simulate", "--config", cfg_file, "--out", str(out)]) == 0
    hash_t, head_t, rows_t = _read_csv(out / "truth.csv")
    hash_i, head_i, rows_i = _read_csv(out / "imu.csv")
    hash_o, head_o, rows_o = _read_csv(out / "odo.csv")
    assert hash_t == hash_i == hash_o
    assert head_t == ["t", "q_w", "q_x", "q_y", "q_z", "v_n", "v_e", "v_d", "r_n", "r_e", "r_d"]
    assert head_i == ["t", "omega_x", "omega_y", "omega_z", "f_x", "f_y", "f_z", "dt"]
    assert head_o == ["t", "v_x", "v_y", "v_z"]
    assert len(rows_t) == 1001  # 10 s at 100 Hz, inclusive grid
    assert len(rows_i) == 1000
    assert len(rows_o) == 100
    quat = np.array([float(x) for x in rows_t[500][1:5]])
    assert np.linalg.norm(quat) == pytest.approx(1.0, abs=1e-12)
    assert float(rows_t[-1][0]) == pytest.approx(10.0)


def test_simulate_cells_parse_back_to_the_arrays(tmp_path, cfg_file):
    out = tmp_path / "sim"
    assert main(["simulate", "--config", cfg_file, "--out", str(out)]) == 0
    cfg = build_run_config(load_config(cfg_file))
    world = ned_world(cfg.origin_e, cfg.earth)
    truth = simulate.gen_truth(cfg.traj, cfg.earth, cfg.gravity, world)
    _, bg, ba = simulate.draw_biases(cfg, 0)
    imu, _, _ = simulate.corrupt(simulate.inverse_imu(truth, cfg.earth, cfg.gravity, world),
                                 simulate.SensorErrors(bg, ba, cfg.noise, cfg.seed, 0))
    idx, v_odo = simulate.gen_odometer(truth, cfg.noise, cfg.seed, cfg.odo_rate, 0)
    quat = cli._quat_from_rot(truth.C_b_w)
    expected = {
        "truth.csv": (truth.t, np.column_stack([quat, truth.v_wb_w, truth.r_w])),
        "imu.csv": (truth.t[:-1], np.column_stack([imu.omega_ib_b, imu.f_ib_b, imu.dt])),
        "odo.csv": (truth.t[idx], v_odo),
    }
    for name, (t, values) in expected.items():
        _, _, rows = _read_csv(out / name)
        assert all(re.fullmatch(r"\d+\.\d{9}", r[0]) for r in rows), name
        assert np.all(np.abs(np.array([float(r[0]) for r in rows]) - t) <= 5e-10), name
        assert np.array_equal(np.array([[float(x) for x in r[1:]] for r in rows]), values), name


def _quat_row(C):
    """Per-row reference for cli._quat_from_rot: (q, branch, flipped), the
    branch "trace" or the index of the largest diagonal entry."""
    tr = np.trace(C)
    if tr > 0.0:
        s = 2.0 * np.sqrt(1.0 + tr)
        q = np.array([0.25 * s, (C[2, 1] - C[1, 2]) / s, (C[0, 2] - C[2, 0]) / s, (C[1, 0] - C[0, 1]) / s])
        branch = "trace"
    else:
        a = branch = int(np.argmax(np.diag(C)))
        b, c = (a + 1) % 3, (a + 2) % 3
        s = 2.0 * np.sqrt(1.0 + C[a, a] - C[b, b] - C[c, c])
        q = np.empty(4)
        q[0] = (C[c, b] - C[b, c]) / s
        q[1 + a] = 0.25 * s
        q[1 + b] = (C[b, a] + C[a, b]) / s
        q[1 + c] = (C[c, a] + C[a, c]) / s
    flipped = bool(q[0] < 0)
    if flipped:
        q = -q
    return q / np.linalg.norm(q), branch, flipped


def test_stacked_quaternions_match_the_per_row_conversion():
    # Random rotations, plus turns of 2.8 rad about +-x, +-y and +-z: a
    # negative trace with the largest diagonal entry on that axis, and a
    # negative w before the flip for the minus axes.
    rng = np.random.default_rng(12)
    axes = rng.normal(size=(400, 3))
    phi = axes / np.linalg.norm(axes, axis=1, keepdims=True) * rng.uniform(0.0, np.pi, size=(400, 1))
    phi = np.concatenate([phi, 2.8 * np.concatenate([np.eye(3), -np.eye(3)]) + rng.normal(scale=0.05, size=(6, 3))])
    C = so3_exp(phi)
    rows = [_quat_row(c) for c in C]
    assert np.array_equal(cli._quat_from_rot(C), np.stack([q for q, _, _ in rows]))
    assert {branch for _, branch, _ in rows} == {"trace", 0, 1, 2}
    assert {(branch, flipped) for _, branch, flipped in rows} >= {(a, f) for a in range(3) for f in (False, True)}


def test_simulate_rerun_is_bit_identical(tmp_path, cfg_file):
    a, b = tmp_path / "a", tmp_path / "b"
    assert main(["simulate", "--config", cfg_file, "--out", str(a)]) == 0
    assert main(["simulate", "--config", cfg_file, "--out", str(b)]) == 0
    for name in ("truth.csv", "imu.csv", "odo.csv"):
        assert filecmp.cmp(a / name, b / name, shallow=False), name


def test_seed_override_changes_noise_not_truth(tmp_path, cfg_file):
    a, b = tmp_path / "a", tmp_path / "b"
    assert main(["simulate", "--config", cfg_file, "--out", str(a)]) == 0
    assert main(["simulate", "--config", cfg_file, "--out", str(b), "--seed", "99"]) == 0
    hash_a, _, truth_a = _read_csv(a / "truth.csv")
    hash_b, _, truth_b = _read_csv(b / "truth.csv")
    assert hash_a != hash_b  # the hash covers the resolved config
    assert truth_a == truth_b  # the trajectory itself has no randomness
    _, _, imu_a = _read_csv(a / "imu.csv")
    _, _, imu_b = _read_csv(b / "imu.csv")
    assert imu_a != imu_b  # measurement noise re-keyed


def test_run_outputs(tmp_path, cfg_file):
    out = tmp_path / "run"
    assert main(["run", "--config", cfg_file, "--out", str(out)]) == 0
    hash_e, head_e, rows_e = _read_csv(out / "errors.csv")
    _, head_n, rows_n = _read_csv(out / "nees.csv")
    assert head_e == [
        "t", "att_x", "att_y", "att_z", "vel_x", "vel_y", "vel_z",
        "pos_x", "pos_y", "pos_z", "updated",
    ]
    assert head_n == ["t", "mean_nees"]
    assert len(rows_e) == len(rows_n) == 100
    assert {r[10] for r in rows_e} <= {"0", "1"}
    summary = json.loads((out / "summary.json").read_text())
    assert summary["config_sha256"] == hash_e.split("=", 1)[1]
    assert summary["n_runs"] == 2
    assert len(summary["per_run_mean_nees"]) == 2
    assert len(summary["innovation_lag1"]) == 3
    assert np.isfinite(summary["time_avg_nees"])
    assert 0.0 < summary["rmse_pos"] < 10.0


def test_run_accepts_model_overrides_and_single_run(tmp_path, cfg_file):
    out = tmp_path / "run1"
    code = main([
        "run", "--config", cfg_file, "--out", str(out),
        "--runs", "1", "--variant", "traditional-e", "--convention", "left",
    ])
    assert code == 0
    summary = json.loads((out / "summary.json").read_text())
    assert summary["n_runs"] == 1


def test_run_rerun_is_bit_identical(tmp_path, cfg_file):
    a, b = tmp_path / "a", tmp_path / "b"
    assert main(["run", "--config", cfg_file, "--out", str(a)]) == 0
    assert main(["run", "--config", cfg_file, "--out", str(b)]) == 0
    for name in ("errors.csv", "nees.csv", "summary.json"):
        assert filecmp.cmp(a / name, b / name, shallow=False), name


def test_diverged_filter_exits_3(tmp_path, capsys):
    cfg = _config(sensors={"gyro_bias": [0.05, -0.03, 0.08], "bias_known": False})
    path = tmp_path / "d.json"
    path.write_text(json.dumps(cfg))
    code = main(["run", "--config", str(path), "--out", str(tmp_path / "out"), "--runs", "2"])
    assert code == 3
    assert "diverged" in capsys.readouterr().err


def test_gated_single_run_exits_0(tmp_path):
    # Epochs where the gate rejected the only run's sample are not a
    # divergence: their mean NEES falls back to the run's own value.
    cfg = _config(
        frame="e",
        grouping="traditional",
        convention="left",
        trajectory={
            "segments": [
                {"type": "straight", "duration": 30.0, "speed": 30.0},
                {"type": "turn", "duration": 30.0, "yaw_rate": 0.02, "speed": 30.0},
            ]
        },
        filter={"gate_sigma": 3.0, "integrator": "rk4"},
    )
    path = tmp_path / "gated.json"
    path.write_text(json.dumps(cfg))
    out = tmp_path / "out"
    assert main(["run", "--config", str(path), "--out", str(out), "--runs", "1"]) == 0
    _, _, rows_e = _read_csv(out / "errors.csv")
    _, _, rows_n = _read_csv(out / "nees.csv")
    assert len(rows_n) == 600
    assert any(r[10] == "0" for r in rows_e)  # the gate fired
    assert all(np.isfinite(float(r[1])) for r in rows_n)


def test_inverse_imu_non_convergence_exits_3(tmp_path, cfg_file, capsys, monkeypatch):
    monkeypatch.setattr(simulate, "_NEWTON_TOL_ATT", 0.0)
    assert main(["simulate", "--config", cfg_file, "--out", str(tmp_path / "sim")]) == 3
    err = capsys.readouterr().err
    assert re.search(r"numerical failure: inverse_imu: Newton iteration did not converge .* t=\d+\.\d{3} s", err), err


def test_singular_innovation_exits_3_naming_run_and_epoch(tmp_path, capsys):
    # No noise and no initial uncertainty keep P at zero, so the first
    # innovation covariance is the odometer's, singular in its third axis.
    cfg = _config(
        sensors={"gyro_noise_psd": 0.0, "accel_noise_psd": 0.0, "gyro_bias_rw_psd": 0.0,
                 "accel_bias_rw_psd": 0.0, "odo_noise_var": [1e-4, 1e-4, 1e-320]},
        filter={"p0_att": 0.0, "p0_vel": 0.0, "p0_pos": 0.0, "p0_gyro_bias": 0.0, "p0_accel_bias": 0.0},
    )
    path = tmp_path / "singular.json"
    path.write_text(json.dumps(cfg))
    assert main(["run", "--config", str(path), "--out", str(tmp_path / "out"), "--runs", "2"]) == 3
    err = capsys.readouterr().err
    assert re.search(r"^numerical failure: run 0, t=0\.100 s: element 0 of the stack: innovation", err), err


def test_runtime_error_is_not_a_numerical_failure(tmp_path, cfg_file, monkeypatch):
    def broken(*args, **kwargs):
        raise RuntimeError("a bug, not a numerical failure")

    monkeypatch.setattr(cli, "run_monte_carlo", broken)
    with pytest.raises(RuntimeError, match="a bug"):
        main(["run", "--config", cfg_file, "--out", str(tmp_path / "out"), "--runs", "2"])


def test_autonomy_output(tmp_path, cfg_file):
    out = tmp_path / "auto"
    code = main([
        "autonomy", "--config", cfg_file, "--out", str(out), "--variant", "traditional-e",
    ])
    assert code == 0
    doc = json.loads((out / "autonomy.json").read_text())
    assert doc["class"] in ("perfect", "approximate", "weak")
    assert doc["divergence_metric"] >= 0.0
    assert doc["settings"]["variant"] == "traditional-e"
    assert doc["settings"]["convention"] == "right"
    assert len(doc["settings"]["xi0"]) == 9
    assert re.fullmatch(r"[0-9a-f]{64}", doc["config_sha256"])


def test_autonomy_requires_section(tmp_path):
    cfg = _config()
    del cfg["autonomy"]
    path = tmp_path / "c.json"
    path.write_text(json.dumps(cfg))
    assert main(["autonomy", "--config", str(path), "--out", str(tmp_path / "o")]) == 2


def test_compare_grid(tmp_path, cfg_file):
    out = tmp_path / "cmp"
    assert main(["compare", "--config", cfg_file, "--out", str(out), "--runs", "2"]) == 0
    _, header, rows = _read_csv(out / "compare.csv")
    assert header == ["variant", "convention", "rmse_att", "rmse_vel", "rmse_pos", "mean_nees"]
    assert [(r[0], r[1]) for r in rows] == [
        ("traditional-w", "left"),
        ("traditional-w", "right"),
        ("proposed-w", "left"),
        ("proposed-w", "right"),
    ]
    for r in rows:
        assert all(np.isfinite(float(x)) for x in r[2:])


def test_compare_shares_one_truth_across_cells(tmp_path, cfg_file, monkeypatch):
    calls = {"gen_truth": 0, "inverse_imu": 0}

    def counted(name):
        real = getattr(simulate, name)

        def wrapper(*args, **kw):
            calls[name] += 1
            return real(*args, **kw)

        return wrapper

    for name in calls:  # wherever the command or the filter loop looks them up
        wrapper = counted(name)
        monkeypatch.setattr(cli, name, wrapper)
        monkeypatch.setattr(simulate, name, wrapper)
    shared = tmp_path / "shared"
    assert main(["compare", "--config", cfg_file, "--out", str(shared), "--runs", "2"]) == 0
    assert calls == {"gen_truth": 1, "inverse_imu": 1}

    # Each cell generating its own truth and inputs writes the same bytes.
    real_monte_carlo = cli.run_monte_carlo
    monkeypatch.setattr(cli, "run_monte_carlo", lambda cfg, truth=None, imu_true=None: real_monte_carlo(cfg))
    own = tmp_path / "own"
    assert main(["compare", "--config", cfg_file, "--out", str(own), "--runs", "2"]) == 0
    assert (shared / "compare.csv").read_bytes() == (own / "compare.csv").read_bytes()


def test_missing_config_exits_2(tmp_path, capsys):
    assert main(["run", "--config", str(tmp_path / "nope.json"), "--out", str(tmp_path)]) == 2
    assert "no such file" in capsys.readouterr().err


def test_malformed_json_exits_2(tmp_path, capsys):
    path = tmp_path / "broken.json"
    path.write_text('{"schema_version": 1,,}')
    assert main(["simulate", "--config", str(path), "--out", str(tmp_path)]) == 2
    assert re.search(r"broken\.json:1:\d+:", capsys.readouterr().err)


def test_trajectory_shorter_than_one_scoring_period_exits_2(tmp_path, capsys):
    path = tmp_path / "short.json"
    path.write_text(json.dumps(_config(trajectory={"segments": [{"type": "straight", "duration": 0.05, "speed": 10.0}]})))
    assert main(["simulate", "--config", str(path), "--out", str(tmp_path / "o")]) == 2
    assert "scoring period" in capsys.readouterr().err


def test_schema_error_exits_2(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(_config(frame="q")))
    assert main(["simulate", "--config", str(path), "--out", str(tmp_path)]) == 2
    assert "$.frame" in capsys.readouterr().err


def test_non_string_choice_exits_2(tmp_path, capsys):
    # A list where a name belongs is a schema error, not a TypeError traceback.
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(_config(frame=[])))
    assert main(["run", "--config", str(path), "--out", str(tmp_path)]) == 2
    assert "config: $.frame: expected one of" in capsys.readouterr().err


def test_bad_variant_exits_2(tmp_path, cfg_file, capsys):
    code = main(["run", "--config", cfg_file, "--out", str(tmp_path), "--variant", "inertial"])
    assert code == 2
    assert "variant" in capsys.readouterr().err


def test_console_script_smoke(tmp_path, cfg_file):
    out = tmp_path / "script"
    proc = subprocess.run(
        [sys.executable, "-m", "navkit.cli", "simulate", "--config", cfg_file, "--out", str(out)],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0, proc.stderr
    assert (out / "truth.csv").exists()
