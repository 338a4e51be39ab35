"""Command-line front end.

Four subcommands, all driven by a JSON config file (see config.py):

  navkit simulate  write truth.csv / imu.csv / odo.csv for one realization
  navkit run       filtered Monte-Carlo run: errors.csv / nees.csv / summary.json
  navkit autonomy  twin-trajectory error-flow comparison: autonomy.json
  navkit compare   grouping x convention grid on one scenario: compare.csv

Exit codes: 0 success, 2 config problem, 3 numerical failure or filter
divergence.  Every output embeds the sha256 of the resolved config, and a
rerun with the same config and seed reproduces each file byte for byte.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import replace

import numpy as np

from .config import (
    ConfigError,
    apply_overrides,
    build_autonomy_inputs,
    build_run_config,
    config_hash,
    load_config,
)
from .error_models import ErrorConvention
from .mechanization import Grouping
from .se23 import KernelDomainError
from .simulate import (
    NewtonNotConverged,
    SensorErrors,
    SpecInvalid,
    autonomy_experiment,
    corrupt,
    draw_biases,
    gen_odometer,
    gen_truth,
    inverse_imu,
    run_monte_carlo,
)
from .earth import ned_world

_NEES_DIVERGENCE = 1e6

_NUMERICAL_FAILURES = (
    KernelDomainError,
    NewtonNotConverged,
    np.linalg.LinAlgError,
    FloatingPointError,
)


# Row formats: t to the nanosecond, every other value round-trips exactly.
_T = "%.9f"
_V = ",%.17g"


def _write_csv(path, cfg_hash, header, fmt, rows):
    """RFC-4180 CSV with a leading comment line carrying the config hash:
    one line fmt % row per row.  No cell holds a comma, a quote or a line
    break, so none is quoted."""
    line = fmt + "\r\n"
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(f"# config_sha256={cfg_hash}\r\n")
        fh.write(",".join(header) + "\r\n")
        fh.writelines([line % tuple(row) for row in rows])


def _write_json(path, payload):
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, sort_keys=True, indent=2)
        fh.write("\n")


def _quat_from_rot(C):
    """Unit quaternion (w,x,y,z), w >= 0, from a rotation matrix."""
    tr = np.trace(C)
    if tr > 0.0:
        s = 2.0 * np.sqrt(1.0 + tr)
        q = np.array(
            [0.25 * s, (C[2, 1] - C[1, 2]) / s, (C[0, 2] - C[2, 0]) / s, (C[1, 0] - C[0, 1]) / s]
        )
    else:
        a = int(np.argmax(np.diag(C)))
        b, c = (a + 1) % 3, (a + 2) % 3
        s = 2.0 * np.sqrt(1.0 + C[a, a] - C[b, b] - C[c, c])
        q = np.empty(4)
        q[0] = (C[c, b] - C[b, c]) / s
        q[1 + a] = 0.25 * s
        q[1 + b] = (C[b, a] + C[a, b]) / s
        q[1 + c] = (C[c, a] + C[a, c]) / s
    if q[0] < 0:
        q = -q
    return q / np.linalg.norm(q)


# ---------------------------------------------------------------------------
# subcommands


def cmd_simulate(resolved, out_dir):
    cfg = build_run_config(resolved)
    h = config_hash(resolved)
    world = ned_world(cfg.origin_e, cfg.earth)
    truth = gen_truth(cfg.traj, cfg.earth, cfg.gravity, world)
    imu_true = inverse_imu(truth, cfg.earth, cfg.gravity, world)

    _, true_bg, true_ba = draw_biases(cfg, 0)
    errors = SensorErrors(true_bg, true_ba, cfg.noise, cfg.seed, 0)
    imu_meas, _, _ = corrupt(imu_true, errors)
    odo_idx, odo_v = gen_odometer(truth, cfg.noise, cfg.seed, cfg.odo_rate, 0)

    quat = [_quat_from_rot(C) for C in truth.C_b_w]
    _write_csv(
        os.path.join(out_dir, "truth.csv"),
        h,
        ["t", "q_w", "q_x", "q_y", "q_z", "v_n", "v_e", "v_d", "r_n", "r_e", "r_d"],
        _T + _V * 10,
        np.column_stack([truth.t, quat, truth.v_wb_w, truth.r_w]).tolist(),
    )
    _write_csv(
        os.path.join(out_dir, "imu.csv"),
        h,
        ["t", "omega_x", "omega_y", "omega_z", "f_x", "f_y", "f_z", "dt"],
        _T + _V * 7,
        np.column_stack([truth.t[:-1], imu_meas.omega_ib_b, imu_meas.f_ib_b, imu_meas.dt]).tolist(),
    )
    _write_csv(
        os.path.join(out_dir, "odo.csv"), h, ["t", "v_x", "v_y", "v_z"], _T + _V * 3,
        np.column_stack([truth.t[odo_idx], odo_v]).tolist(),
    )
    return 0


def cmd_run(resolved, out_dir):
    cfg = build_run_config(resolved)
    h = config_hash(resolved)
    mc = run_monte_carlo(cfg)
    run0 = mc.runs[0]

    _write_csv(
        os.path.join(out_dir, "errors.csv"),
        h,
        [
            "t",
            "att_x", "att_y", "att_z",
            "vel_x", "vel_y", "vel_z",
            "pos_x", "pos_y", "pos_z",
            "updated",
        ],
        _T + _V * 9 + ",%d",
        np.column_stack([run0.t, run0.att_err, run0.vel_err, run0.pos_err, run0.updated]).tolist(),
    )
    _write_csv(
        os.path.join(out_dir, "nees.csv"), h, ["t", "mean_nees"], _T + _V,
        np.column_stack([run0.t, mc.mean_nees_series]).tolist(),
    )

    summary = {
        "config_sha256": h,
        "n_runs": len(mc.runs),
        "time_avg_nees": mc.time_avg_nees,
        "innovation_lag1": [float(x) for x in mc.innovation_lag1],
        "rmse_att": mc.rmse_att,
        "rmse_vel": mc.rmse_vel,
        "rmse_pos": mc.rmse_pos,
        "per_run_mean_nees": [r.time_avg_nees for r in mc.runs],
    }
    _write_json(os.path.join(out_dir, "summary.json"), summary)

    nees = np.asarray(mc.mean_nees_series)
    if not np.all(np.isfinite(nees)):
        t_bad = run0.t[np.flatnonzero(~np.isfinite(nees))[0]]
        print(f"filter diverged: mean NEES is not finite at t={t_bad:.3f} s", file=sys.stderr)
        return 3
    if np.any(nees > _NEES_DIVERGENCE):
        j = int(np.flatnonzero(nees > _NEES_DIVERGENCE)[0])
        print(
            f"filter diverged: mean NEES {nees[j]:.3e} exceeded {_NEES_DIVERGENCE:.0e} "
            f"at t={run0.t[j]:.3f} s",
            file=sys.stderr,
        )
        return 3
    return 0


def cmd_autonomy(resolved, out_dir):
    variant, conv, traj_a, traj_b, xi0, settings = build_autonomy_inputs(resolved)
    h = config_hash(resolved)
    result = autonomy_experiment(variant, conv, traj_a, traj_b, xi0, settings)
    payload = {
        "config_sha256": h,
        "class": result.classification.value,
        "divergence_metric": result.divergence_metric,
        "settings": {
            "variant": variant.name,
            "convention": conv.value,
            "xi0": [float(x) for x in xi0],
            "gyro_input_error": [float(x) for x in settings.gyro_input_error],
            "accel_input_error": [float(x) for x in settings.accel_input_error],
            "gravity": resolved["gravity"],
            "origin_ecef": resolved["origin"]["ecef"],
            "trajectory_b": resolved["autonomy"]["trajectory_b"],
        },
    }
    _write_json(os.path.join(out_dir, "autonomy.json"), payload)
    return 0


def cmd_compare(resolved, out_dir):
    base = build_run_config(resolved)
    h = config_hash(resolved)
    # The four cells differ only in the filter model: they share one truth.
    world = ned_world(base.origin_e, base.earth)
    truth = gen_truth(base.traj, base.earth, base.gravity, world)
    imu_true = inverse_imu(truth, base.earth, base.gravity, world)
    rows = []
    for grouping in (Grouping.TRADITIONAL, Grouping.PROPOSED):
        for conv in (ErrorConvention.LEFT, ErrorConvention.RIGHT):
            cfg = replace(base, grouping=grouping, convention=conv)
            mc = run_monte_carlo(cfg, truth, imu_true)
            rows.append(
                (f"{grouping.value}-{base.frame.value}", conv.value, mc.rmse_att, mc.rmse_vel, mc.rmse_pos,
                 mc.time_avg_nees)
            )
    _write_csv(
        os.path.join(out_dir, "compare.csv"),
        h,
        ["variant", "convention", "rmse_att", "rmse_vel", "rmse_pos", "mean_nees"],
        "%s,%s" + _V * 4,
        rows,
    )
    return 0


# ---------------------------------------------------------------------------


def _build_parser():
    parser = argparse.ArgumentParser(
        prog="navkit",
        description="Lie-group inertial navigation: simulation, filtering, model comparison.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, runs=False, model=False):
        p.add_argument("--config", required=True, help="JSON config file")
        p.add_argument("--out", default=".", help="output directory (default: .)")
        p.add_argument("--seed", type=int, default=None, help="override config seed")
        if runs:
            p.add_argument("--runs", type=int, default=None, help="override monte_carlo.n_runs")
        if model:
            p.add_argument(
                "--variant", default=None, help="override model, e.g. proposed-w, traditional-e"
            )
            p.add_argument(
                "--convention", default=None, choices=("left", "right"),
                help="override error convention",
            )

    common(sub.add_parser("simulate", help="write truth/imu/odo series"))
    common(sub.add_parser("run", help="filtered Monte-Carlo run"), runs=True, model=True)
    common(sub.add_parser("autonomy", help="twin-trajectory error-flow comparison"), model=True)
    common(sub.add_parser("compare", help="grouping x convention comparison grid"), runs=True)
    return parser


_DISPATCH = {
    "simulate": cmd_simulate,
    "run": cmd_run,
    "autonomy": cmd_autonomy,
    "compare": cmd_compare,
}


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        resolved = load_config(args.config)
        resolved = apply_overrides(
            resolved,
            seed=args.seed,
            runs=getattr(args, "runs", None),
            variant=getattr(args, "variant", None),
            convention=getattr(args, "convention", None),
        )
    except FileNotFoundError:
        print(f"config: {args.config}: no such file", file=sys.stderr)
        return 2
    except json.JSONDecodeError as exc:
        print(f"config: {args.config}:{exc.lineno}:{exc.colno}: {exc.msg}", file=sys.stderr)
        return 2
    except ConfigError as exc:
        print(f"config: {exc}", file=sys.stderr)
        return 2

    os.makedirs(args.out, exist_ok=True)
    try:
        return _DISPATCH[args.command](resolved, args.out)
    except (SpecInvalid, ConfigError) as exc:
        print(f"config: {exc}", file=sys.stderr)
        return 2
    except _NUMERICAL_FAILURES as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
