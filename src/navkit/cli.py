"""Command-line front end.

Four subcommands, all driven by a JSON config file (see config.py):

  navkit simulate  write truth.csv / imu.csv / odo.csv for one realization
  navkit run       filtered Monte-Carlo run: errors.csv / nees.csv / summary.json
  navkit autonomy  twin-trajectory error-flow comparison: autonomy.json
  navkit compare   grouping x convention grid on one scenario: compare.csv

Exit codes: 0 success, 2 config or usage problem (an --out or output file
that cannot be made or opened included), 3 numerical failure or filter
divergence.  Every output embeds the sha256 of the resolved config,
and a rerun with the same config and seed reproduces each file byte for byte.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from contextlib import ExitStack, contextmanager
from dataclasses import replace

import numpy as np

from . import simulate
from .config import (
    ConfigError,
    apply_overrides,
    build_autonomy_inputs,
    build_run_config,
    config_hash,
    load_config,
)
from .error_models import ErrorConvention, ModelVariant
from .mechanization import Grouping
from .se23 import KernelDomainError
from .simulate import (
    NewtonNotConverged,
    _grid_blocks,
    _RunDraws,
    _scenario_blocks,
    autonomy_experiment,
    run_monte_carlo,
)

_NEES_DIVERGENCE = 1e6

_NUMERICAL_FAILURES = (KernelDomainError, NewtonNotConverged)


# Row formats: t to the nanosecond, every other value round-trips exactly.
_T = "%.9f"
_V = ",%.17g"


@contextmanager
def _csv_rows(path, cfg_hash, header, fmt):
    """An RFC-4180 CSV with a leading comment line carrying the config hash,
    open for rows: yields write(rows), which writes one line fmt % row per
    row of a list, so no result depends on how the rows are cut.  No cell
    holds a comma, a quote or a line break, so none is quoted."""
    line = fmt + "\r\n"
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(f"# config_sha256={cfg_hash}\r\n")
        fh.write(",".join(header) + "\r\n")
        yield lambda rows: fh.writelines([line % tuple(row) for row in rows])


def _write_csv(path, cfg_hash, header, fmt, blocks):
    """_csv_rows's file with the rows of blocks (which yields lists of rows)."""
    with _csv_rows(path, cfg_hash, header, fmt) as write:
        for rows in blocks:
            write(rows)


def _columns(*columns):
    """The rows of the table of the given arrays (all of one length, the
    first's), a _grid_blocks block at a time, as lists."""
    for a, z in _grid_blocks(len(columns[0])):
        yield np.column_stack([c[a:z] for c in columns]).tolist()


def _write_json(path, payload):
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, sort_keys=True, indent=2)
        fh.write("\n")


def _quat_from_rot(C):
    """Unit quaternions (w,x,y,z), w >= 0, of a stack of rotation matrices
    (n, 3, 3), (n, 4).  A row with a positive trace takes the trace branch;
    any other row the branch of its largest diagonal entry a."""
    q = np.empty((len(C), 4))
    tr = np.trace(C, axis1=-2, axis2=-1)
    pos = tr > 0.0
    Ct = C[pos]
    s = 2.0 * np.sqrt(1.0 + tr[pos])
    q[pos] = np.stack(
        [0.25 * s, (Ct[:, 2, 1] - Ct[:, 1, 2]) / s, (Ct[:, 0, 2] - Ct[:, 2, 0]) / s, (Ct[:, 1, 0] - Ct[:, 0, 1]) / s],
        axis=-1,
    )
    largest = np.argmax(np.diagonal(C, axis1=-2, axis2=-1), axis=-1)
    for a in range(3):
        rows = ~pos & (largest == a)
        Ca = C[rows]
        b, c = (a + 1) % 3, (a + 2) % 3
        s = 2.0 * np.sqrt(1.0 + Ca[:, a, a] - Ca[:, b, b] - Ca[:, c, c])
        q[rows, 0] = (Ca[:, c, b] - Ca[:, b, c]) / s
        q[rows, 1 + a] = 0.25 * s
        q[rows, 1 + b] = (Ca[:, b, a] + Ca[:, a, b]) / s
        q[rows, 1 + c] = (Ca[:, c, a] + Ca[:, a, c]) / s
    q = np.where(q[:, :1] < 0.0, -q, q)
    # sqrt of each row's dot product: the rounding of a 1-D np.linalg.norm.
    return q / np.sqrt((q[:, None, :] @ q[:, :, None])[:, 0])


def _divergence(mc):
    """How the batch mc diverged, naming the first epoch, or None: its mean
    NEES is not finite somewhere, or it exceeds _NEES_DIVERGENCE."""
    nees = mc.mean_nees_series
    if not np.all(np.isfinite(nees)):
        return f"mean NEES is not finite at t={mc.t[np.flatnonzero(~np.isfinite(nees))[0]]:.3f} s"
    if np.any(nees > _NEES_DIVERGENCE):
        j = int(np.flatnonzero(nees > _NEES_DIVERGENCE)[0])
        return f"mean NEES {nees[j]:.3e} exceeded {_NEES_DIVERGENCE:.0e} at t={mc.t[j]:.3f} s"
    return None


def _exit_code(divergences):
    """A command's exit code: 3, reporting the first of divergences (None
    stands for a batch that held), if there is one; else 0."""
    for why in divergences:
        if why:
            print(f"filter diverged: {why}", file=sys.stderr)
            return 3
    return 0


# ---------------------------------------------------------------------------
# subcommands


def cmd_simulate(resolved, out_dir):
    """truth.csv, imu.csv and odo.csv of run 0, written as the grid streams
    (_scenario_blocks): each block's truth rows, run 0's measured IMU and
    odometer rows drawn from the recipe the filter loop draws from, then
    the next block, so no file's series is held whole.  A failure part way
    leaves the rows written before it."""
    cfg = build_run_config(resolved)
    h = config_hash(resolved)
    _, blocks = _scenario_blocks(cfg)
    draws = _RunDraws(cfg, 0)
    files = (
        ("truth.csv", ["t", "q_w", "q_x", "q_y", "q_z", "v_n", "v_e", "v_d", "r_n", "r_e", "r_d"], _T + _V * 10),
        ("imu.csv", ["t", "omega_x", "omega_y", "omega_z", "f_x", "f_y", "f_z", "dt"], _T + _V * 7),
        ("odo.csv", ["t", "v_x", "v_y", "v_z"], _T + _V * 3),
    )
    with ExitStack() as stack:
        truth_rows, imu_rows, odo_rows = (
            stack.enter_context(_csv_rows(os.path.join(out_dir, name), h, header, fmt)) for name, header, fmt in files
        )
        for a, truth, imu_true in blocks:
            # A block starts on the epoch the one before ends on, written once.
            t = truth.t
            truth_rows(np.column_stack([t, _quat_from_rot(truth.C_b_w), truth.v_wb_w, truth.r_w])[a > 0:].tolist())
            imu, _ = simulate.corrupt(imu_true, cfg, 0, draws.bias0, draws)
            imu_rows(np.column_stack([t[:-1], imu.omega_ib_b, imu.f_ib_b, imu.dt]).tolist())
            idx, v = draws.odometer(a, truth)
            odo_rows(np.column_stack([t[idx - a], v]).tolist())
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
        _columns(run0.t, run0.xi, run0.updated),
    )
    nees = mc.mean_nees_series
    _write_csv(os.path.join(out_dir, "nees.csv"), h, ["t", "mean_nees"], _T + _V, _columns(run0.t, nees))

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
    return _exit_code([_divergence(mc)])


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
    """compare.csv: one row per (grouping, convention) cell, each the
    Monte-Carlo batch navkit run filters with that model.  Each cell
    streams its own scenario, the same truth for every cell, as only the
    filter model differs.  A diverged cell's row is written all the same."""
    base = build_run_config(resolved)
    h = config_hash(resolved)
    rows, diverged = [], []
    for grouping in (Grouping.TRADITIONAL, Grouping.PROPOSED):
        for conv in (ErrorConvention.LEFT, ErrorConvention.RIGHT):
            mc = run_monte_carlo(replace(base, grouping=grouping, convention=conv))
            cell = (ModelVariant(base.frame, grouping).name, conv.value)
            rows.append((*cell, mc.rmse_att, mc.rmse_vel, mc.rmse_pos, mc.time_avg_nees))
            why = _divergence(mc)
            if why:
                diverged.append(f"{cell[0]} {cell[1]}: {why}")
    _write_csv(
        os.path.join(out_dir, "compare.csv"),
        h,
        ["variant", "convention", "rmse_att", "rmse_vel", "rmse_pos", "mean_nees"],
        "%s,%s" + _V * 4,
        [rows],
    )
    return _exit_code(diverged)


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
                "--convention", default=None, choices=sorted(m.value for m in ErrorConvention),
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
    except OSError as exc:  # a directory, or a file that cannot be read
        print(f"config: {args.config}: {exc.strerror}", file=sys.stderr)
        return 2
    except UnicodeDecodeError as exc:
        print(f"config: {args.config}: {exc}", file=sys.stderr)
        return 2
    except json.JSONDecodeError as exc:
        print(f"config: {args.config}:{exc.lineno}:{exc.colno}: {exc.msg}", file=sys.stderr)
        return 2
    except ConfigError as exc:
        print(f"config: {exc}", file=sys.stderr)
        return 2

    try:
        os.makedirs(args.out, exist_ok=True)
        return _DISPATCH[args.command](resolved, args.out)
    except OSError as exc:  # --out is a file or under one, or an output file in it cannot be opened
        print(f"out: {exc.filename or args.out}: {exc.strerror}", file=sys.stderr)
        return 2
    except ConfigError as exc:  # build_autonomy_inputs: the command needs an autonomy section
        print(f"config: {exc}", file=sys.stderr)
        return 2
    except _NUMERICAL_FAILURES as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
