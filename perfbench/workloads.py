"""The benchmark's three workloads: inputs from a seed, one iteration, checks.

Each workload builds its inputs from ``--seed`` only, runs one iteration
through navkit's public entry points (looked up on the module at call time,
so a traced process sees its wrappers), and returns the operations it
attempted with the outcome of each check.  Checks that compare iterations
(bit-identical outputs) are made by ``run.py`` from the digests returned
here.
"""

from __future__ import annotations

import hashlib
import json
import os
import subprocess
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"

# Desk scenario of acceptance criterion 7 (latitude 45 deg).
_LAT = np.radians(45.0)
_GYRO_BIAS = [1e-5, -5e-6, 8e-6]
_ACCEL_BIAS = [1e-4, -2e-4, 5e-5]


@dataclass
class Op:
    """One checked output.  ``ok`` is every check; ``content_ok`` leaves out
    the exit status, so a refused command is a failure but not a wrong
    output."""

    name: str
    ok: bool
    content_ok: bool
    digest: str = ""
    detail: str = ""


@dataclass
class Iteration:
    """What one iteration did.  ``host_samples`` are the host-speed samples
    of the processes that ran it, when those are not the worker itself."""

    epochs: int
    ops: list
    written: int = 0
    host_samples: list | None = None
    span_totals: list | None = None


def _origin(earth):
    return earth.re * np.array([np.cos(_LAT), 0.0, np.sin(_LAT)])


def _sha(*chunks: bytes) -> str:
    h = hashlib.sha256()
    for c in chunks:
        h.update(c)
    return h.hexdigest()


# ---------------------------------------------------------------------------
# mc_batch: library Monte Carlo, 8 runs sharing one truth


MC_RUNS = 8
MC_SEGMENT_S = 12.0


def mc_build(seed: int, workdir: Path):
    from navkit import EarthParams, RunConfig, Straight, TrajectorySpec, Turn

    earth = EarthParams()
    seg = MC_SEGMENT_S
    traj = TrajectorySpec(
        (
            Straight(seg, 30.0),
            Turn(seg, 0.02, 30.0),
            Straight(seg, 30.0),
            Turn(seg, -0.02, 30.0),
            Straight(seg, 30.0),
        ),
        100.0,
    )
    return RunConfig(
        traj=traj,
        origin_e=_origin(earth),
        gyro_bias=np.array(_GYRO_BIAS),
        accel_bias=np.array(_ACCEL_BIAS),
        seed=seed,
        n_runs=MC_RUNS,
    )


def mc_run(cfg, traced: bool):
    import navkit.simulate as sim

    epochs = cfg.n_runs * int(round(cfg.traj.total_duration * cfg.traj.imu_rate))
    try:
        mc = sim.run_monte_carlo(cfg)
    except Exception as exc:  # the operation fails; the benchmark goes on
        return Iteration(epochs, [Op("batch", False, False, detail=f"{type(exc).__name__}: {exc}")])
    nees = float(mc.time_avg_nees)
    lag1 = np.abs(np.asarray(mc.innovation_lag1, dtype=float))
    ok = 11.25 < nees < 20.25 and bool(np.all(lag1 < 0.2))
    digest = _sha(np.stack([r.nees for r in mc.runs]).tobytes())
    detail = f"time_avg_nees={nees:.4f} max|lag1|={lag1.max():.4f}"
    return Iteration(epochs, [Op("batch", ok, ok, digest, detail)])


# ---------------------------------------------------------------------------
# cli_single: `navkit simulate` then `navkit run --runs 1`, fresh processes


CLI_CONFIG = {
    "schema_version": 1,
    "frame": "e",
    "grouping": "traditional",
    "convention": "left",
    "origin": {"latitude_deg": 45.0},
    "trajectory": {
        "imu_rate": 100.0,
        "segments": [
            {"type": "straight", "duration": 40.0, "speed": 30.0},
            {"type": "turn", "duration": 30.0, "yaw_rate": 0.02, "speed": 30.0},
            {"type": "climb", "duration": 20.0, "pitch": 0.05, "speed": 30.0},
            {"type": "turn", "duration": 20.0, "yaw_rate": -0.02, "speed": 30.0},
            {"type": "rest", "duration": 10.0},
        ],
    },
    "sensors": {"gyro_bias": _GYRO_BIAS, "accel_bias": _ACCEL_BIAS},
    "filter": {"gate_sigma": 3.0, "integrator": "rk4"},
}
CLI_COMMANDS = (("simulate",), ("run", "--runs", "1"))


def cli_build(seed: int, workdir: Path):
    path = workdir / "config.json"
    path.write_text(json.dumps(CLI_CONFIG, indent=2), encoding="utf-8")
    return path, seed, workdir


def _check_outputs(out_dir: Path) -> tuple[bool, str, int, str]:
    """(hash lines present, digest, bytes, detail) over a command's outputs."""
    names = sorted(os.listdir(out_dir))
    blobs = [(out_dir / n).read_bytes() for n in names]
    missing = []
    for name, blob in zip(names, blobs):
        if name.endswith(".csv"):
            present = blob.startswith(b"# config_sha256=")
        else:
            present = "config_sha256" in json.loads(blob)
        if not present:
            missing.append(name)
    digest = _sha(*(n.encode() + b"\0" + b for n, b in zip(names, blobs)))
    detail = f"files={','.join(names)}" + (f" missing_hash={','.join(missing)}" if missing else "")
    return bool(names) and not missing, digest, sum(len(b) for b in blobs), detail


def cli_run(inputs, traced: bool):
    config, seed, workdir = inputs
    env = dict(os.environ, PYTHONPATH=str(SRC))
    steps = int(round(sum(s["duration"] for s in CLI_CONFIG["trajectory"]["segments"]) * 100.0))
    ops, written, samples, totals = [], 0, [], []
    for cmd in CLI_COMMANDS:
        out_dir = workdir / cmd[0]
        base = workdir / f"child-{cmd[0]}"
        args = [*cmd, "--config", str(config), "--out", str(out_dir), "--seed", str(seed)]
        argv = [sys.executable, str(BENCH_DIR / "cli_child.py"), str(base), str(int(traced)), *args]
        proc = subprocess.run(argv, env=env, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True)
        content_ok, digest, nbytes, detail = _check_outputs(out_dir) if out_dir.is_dir() else (
            False, "", 0, "no output directory"
        )
        written += nbytes
        detail = f"exit={proc.returncode} {detail}"
        if proc.returncode != 0:
            detail += f" stderr={proc.stderr.strip()[-200:]!r}"
        ops.append(Op(cmd[0], proc.returncode == 0 and content_ok, content_ok, digest, detail))
        report = base.with_suffix(".json")
        if report.exists():
            child = json.loads(report.read_text())
            samples += child["host_samples"]
            totals += [child["totals"]] if traced else []
    # simulate generates every interval once; run filters every interval once.
    return Iteration(len(CLI_COMMANDS) * steps, ops, written, samples, totals)


# ---------------------------------------------------------------------------
# twin_autonomy: criterion-5 variants, rest vs straight


TWIN_DURATION_S = 20.0
# (frame, grouping, expected class); right convention throughout.
TWIN_VARIANTS = (
    ("i", "traditional", "perfect"),
    ("e", "traditional", "weak"),
    ("e", "proposed", "perfect"),
    ("w", "proposed", "perfect"),
)
_XI0_SCALE = np.array([0.01] * 3 + [0.1] * 3 + [20.0] * 3)


def twin_build(seed: int, workdir: Path):
    from navkit import AutonomySettings, EarthParams, Rest, Straight, TrajectorySpec, UniformGravity

    earth = EarthParams()
    # Criterion 5's xi0 scale (0.01 rad, 0.1 m/s, 20 m); signs and sizes from the seed.
    xi0 = _XI0_SCALE * np.random.default_rng(seed).uniform(-1.0, 1.0, 9)
    settings = AutonomySettings(origin_e=_origin(earth), gravity=UniformGravity(np.array([0.0, 0.0, 9.8])))
    rest = TrajectorySpec((Rest(TWIN_DURATION_S),), 100.0)
    fast = TrajectorySpec((Straight(TWIN_DURATION_S, 30.0),), 100.0)
    return xi0, settings, rest, fast


def twin_run(inputs, traced: bool):
    import navkit.simulate as sim
    from navkit import ErrorConvention, Frame, Grouping, ModelVariant

    xi0, settings, rest, fast = inputs
    steps = int(round(TWIN_DURATION_S * 100.0))
    ops = []
    for frame, grouping, expected in TWIN_VARIANTS:
        name = f"{grouping[:4]}-{frame}"
        variant = ModelVariant(Frame(frame), Grouping(grouping))
        try:
            res = sim.autonomy_experiment(variant, ErrorConvention.RIGHT, rest, fast, xi0, settings)
        except Exception as exc:  # the operation fails; the benchmark goes on
            ops.append(Op(name, False, False, detail=f"{type(exc).__name__}: {exc}"))
            continue
        metric = res.divergence_metric
        cls = res.classification.value
        side_ok = metric > 1e-6 if expected == "weak" else metric < 1e-9
        ok = cls == expected and side_ok
        digest = _sha(np.asarray(res.xi_a).tobytes(), np.asarray(res.xi_b).tobytes())
        ops.append(Op(name, ok, ok, digest, f"class={cls} metric={metric:.3e}"))
    # two trajectories x (truth, estimate) flows per variant
    return Iteration(len(TWIN_VARIANTS) * 2 * 2 * steps, ops)


# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Workload:
    build: Callable
    run: Callable
    iter_s: float  # reference seconds per iteration on a 2-core Xeon, untraced
    in_process: bool = True  # False: runs in child processes that sample the host themselves


# Why each workload was chosen: README.md and BENCHMARK.json.
WORKLOADS = {
    "mc_batch": Workload(mc_build, mc_run, 16.5),
    "cli_single": Workload(cli_build, cli_run, 6.5, in_process=False),
    "twin_autonomy": Workload(twin_build, twin_run, 8.0),
}
