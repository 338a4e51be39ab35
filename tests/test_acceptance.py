"""Acceptance gate: the eight user-facing guarantees, one test per criterion.

Run `pytest tests/test_acceptance.py -v` for one pass/fail line per
criterion; each test also prints its measured numbers (visible with -s
or -rA).  Criteria with stated runtime budgets assert them.
"""
from __future__ import annotations

import filecmp
import json
import time
from dataclasses import replace

import numpy as np
import pytest

from navkit import (
    AutonomySettings,
    Climb,
    EarthParams,
    ErrorConvention,
    Frame,
    Grouping,
    ImuSample,
    ModelVariant,
    NavModel,
    Rest,
    RunConfig,
    SE23,
    SphericalGravity,
    Straight,
    TangentVector,
    TrajectorySpec,
    Turn,
    UniformGravity,
    apply_correction,
    autonomy_experiment,
    body_velocity,
    derivative,
    error_from_states,
    error_to_vector,
    gen_truth,
    inverse_imu,
    linearized_F_G,
    nav_from_physical,
    ned_world,
    odo_H,
    physical_from_nav,
    run_monte_carlo,
    se23_exp,
    se23_log,
    so3_exp,
    so3_log,
    step,
)
from navkit.cli import main as cli_main
from conftest import random_nav_state

EARTH = EarthParams()
ORIGIN = EARTH.re * np.array([np.cos(np.radians(45.0)), 0.0, np.sin(np.radians(45.0))])
WORLD = ned_world(ORIGIN, EARTH)
GRAV = SphericalGravity()

ALL_VARIANTS = [
    ModelVariant(Frame.I, Grouping.TRADITIONAL),
    ModelVariant(Frame.E, Grouping.TRADITIONAL),
    ModelVariant(Frame.W, Grouping.TRADITIONAL),
    ModelVariant(Frame.I, Grouping.PROPOSED),
    ModelVariant(Frame.E, Grouping.PROPOSED),
    ModelVariant(Frame.W, Grouping.PROPOSED),
]
PAPER_VARIANTS = ALL_VARIANTS[:3] + ALL_VARIANTS[4:]  # proposed-i duplicates traditional-i
CONVS = (ErrorConvention.RIGHT, ErrorConvention.LEFT)


def _report(n: int, detail: str) -> None:
    print(f"criterion {n} PASS: {detail}")


# ---------------------------------------------------------------------------
# 1. group axioms on 10^4 random elements


def test_criterion_1_group_axioms():
    n = 10_000
    rng = np.random.default_rng(1001)
    axes = rng.normal(size=(n, 3))
    axes /= np.linalg.norm(axes, axis=1)[:, None]
    angles = rng.uniform(0.0, 3.0, size=n)
    vels = rng.uniform(-10.0, 10.0, size=(n, 3))
    poss = rng.uniform(-100.0, 100.0, size=(n, 3))
    tangents = np.hstack(
        [axes * angles[:, None], rng.uniform(-10, 10, (n, 3)), rng.uniform(-100, 100, (n, 3))]
    )

    t0 = time.perf_counter()
    pool = [SE23(so3_exp(axes[k] * angles[k]), vels[k], poss[k]) for k in range(n)]
    worst_assoc = worst_inv = worst_round = 0.0
    eye5 = np.eye(5)
    for k in range(n):
        X, Y, Z = pool[k], pool[(k + 1) % n], pool[(k + 2) % n]
        a = X.compose(Y).compose(Z).as_matrix()
        b = X.compose(Y.compose(Z)).as_matrix()
        worst_assoc = max(worst_assoc, float(np.abs(a - b).max()))
        worst_inv = max(
            worst_inv, float(np.abs(X.compose(X.inverse()).as_matrix() - eye5).max())
        )
        xi = TangentVector.from_vector(tangents[k])
        back = se23_log(se23_exp(xi)).as_vector()
        worst_round = max(worst_round, float(np.abs(back - tangents[k]).max()))
    elapsed = time.perf_counter() - t0

    assert worst_assoc < 1e-9
    assert worst_inv < 1e-9
    assert worst_round < 1e-9
    assert elapsed < 5.0
    _report(1, f"n={n} assoc={worst_assoc:.2e} inverse={worst_inv:.2e} "
               f"exp/log={worst_round:.2e} runtime={elapsed:.2f}s (<5s)")


# ---------------------------------------------------------------------------
# 2. mechanization derivatives vs central finite difference


def _flow_fd(state, imu, model, h=1e-2):
    def at(dt):
        return step(state, replace(imu, dt=dt), model, method="rk4").x.as_matrix()

    def central(hh):
        return (at(hh) - at(-hh)) / (2.0 * hh)

    return (4.0 * central(h / 2) - central(h)) / 3.0


def test_criterion_2_derivatives_match_finite_difference():
    rng = np.random.default_rng(1002)
    t0 = time.perf_counter()
    worst = 0.0
    for var in ALL_VARIANTS:  # the 7 listed forms cover 6 unique (frame, grouping) pairs
        for _ in range(100):
            st = random_nav_state(rng, var.frame, var.grouping, EARTH, WORLD)
            imu = ImuSample(rng.normal(scale=0.2, size=3), rng.normal(scale=3.0, size=3), 0.01)
            model = NavModel.of(st, EARTH, GRAV, WORLD)
            dX, _ = derivative(st, imu, model)
            fd = _flow_fd(st, imu, model)
            rel = np.linalg.norm(dX - fd) / max(1.0, np.linalg.norm(dX))
            worst = max(worst, float(rel))
    elapsed = time.perf_counter() - t0
    assert worst < 1e-6
    assert elapsed < 30.0
    _report(2, f"6 unique variants (7 listed) x 100 states, worst rel={worst:.2e} "
               f"runtime={elapsed:.1f}s (<30s)")


# ---------------------------------------------------------------------------
# 3. frame-consistency cross-checks


def test_criterion_3_frame_consistency():
    traj = TrajectorySpec(
        (Straight(20.0, 10.0), Turn(20.0, 0.005, 10.0), Climb(20.0, 0.002, 10.0)), 100.0
    )
    truth = gen_truth(traj, EARTH, GRAV, WORLD)
    stack = inverse_imu(truth, EARTH, GRAV, WORLD)
    imu = [ImuSample(*s) for s in zip(stack.omega_ib_b, stack.f_ib_b, stack.dt.tolist())]
    trip0 = physical_from_nav(truth.state(0), EARTH, WORLD, 0.0)
    states = {
        "i": nav_from_physical(Frame.I, Grouping.TRADITIONAL, *trip0, EARTH, WORLD, t=0.0),
        "e": nav_from_physical(Frame.E, Grouping.TRADITIONAL, *trip0, EARTH, WORLD, t=0.0),
        "w": truth.state(0),
    }
    models = {f: NavModel.of(st, EARTH, GRAV, WORLD) for f, st in states.items()}
    worst = {"i-vs-e": np.zeros(3), "e-vs-w": np.zeros(3)}
    for k, s in enumerate(imu):
        t = float(truth.t[k + 1])
        for f in states:
            states[f] = step(states[f], s, models[f], method="rk4")
        trips = {f: physical_from_nav(states[f], EARTH, WORLD, t) for f in states}
        for pair, (a, b) in (("i-vs-e", ("i", "e")), ("e-vs-w", ("e", "w"))):
            Ca, va, ra = trips[a]
            Cb, vb, rb = trips[b]
            cur = np.array([
                np.linalg.norm(so3_log(Ca.T @ Cb)),
                np.linalg.norm(va - vb),
                np.linalg.norm(ra - rb),
            ])
            worst[pair] = np.maximum(worst[pair], cur)
    for pair, (att, vel, pos) in worst.items():
        assert att < 1e-9, pair
        assert vel < 1e-7, pair
        assert pos < 1e-6, pair
    _report(3, "; ".join(
        f"{pair}: att={w[0]:.1e} rad vel={w[1]:.1e} m/s pos={w[2]:.1e} m (60 s @ 100 Hz)"
        for pair, w in worst.items()))


# ---------------------------------------------------------------------------
# 4. linearization order of all 10 (variant x convention) F matrices


def test_criterion_4_linearization_second_order():
    from scipy.linalg import expm

    xi_bar = np.array([0.30, -0.25, 0.28, 3.0, -2.5, 2.6, 30.0, -25.0, 28.0,
                       0.012, -0.010, 0.011, 0.12, -0.10, 0.11])
    epsilons = [1e-2 * 2.0 ** (-j) for j in range(11)]  # 1e-2 down to ~1e-5
    traj = TrajectorySpec((Turn(10.0, 0.02, 20.0),), 100.0)
    truth = gen_truth(traj, EARTH, GRAV, WORLD)
    stack = inverse_imu(truth, EARTH, GRAV, WORLD)
    imu = [ImuSample(*s) for s in zip(stack.omega_ib_b, stack.f_ib_b, stack.dt.tolist())]
    trip0 = physical_from_nav(truth.state(0), EARTH, WORLD, 0.0)

    t0 = time.perf_counter()
    summaries = []
    for var in PAPER_VARIANTS:
        est0 = nav_from_physical(var.frame, var.grouping, *trip0, EARTH, WORLD, t=0.0)
        model = NavModel.of(est0, EARTH, GRAV, WORLD)  # every state below keeps est0's anchors
        est_path = [est0]
        for s in imu:
            est_path.append(step(est_path[-1], s, model, method="rk4"))
        for conv in CONVS:
            Xi = np.eye(15)
            for k, s in enumerate(imu):
                Fa, _ = linearized_F_G(conv, est_path[k], s, model)
                Fb, _ = linearized_F_G(conv, est_path[k + 1], s, model)
                Xi = expm(0.5 * s.dt * (Fa + Fb)) @ Xi
            d = []
            for eps in epsilons:
                e0 = eps * xi_bar
                tr = apply_correction(est0, TangentVector.from_vector(e0[:9]), conv)
                for s in imu:
                    s_true = ImuSample(s.omega_ib_b + e0[9:12], s.f_ib_b + e0[12:15], s.dt)
                    tr = step(tr, s_true, model, method="rk4")
                chart = error_to_vector(error_from_states(tr, est_path[-1], conv), conv)
                d.append(np.linalg.norm(chart.as_vector() - (Xi @ e0)[:9]))
            ratios = np.array(d[:-1]) / np.array(d[1:])
            assert np.all((ratios > 3.5) & (ratios < 4.5)), (var.name, conv.value, ratios)
            summaries.append(f"{var.name}/{conv.value}: {ratios.min():.2f}-{ratios.max():.2f}")
    elapsed = time.perf_counter() - t0
    _report(4, f"halving ratios over eps 1e-2..1e-5 all in [3.5,4.5] -- "
               + "; ".join(summaries) + f" runtime={elapsed:.1f}s")


# ---------------------------------------------------------------------------
# 5. autonomy taxonomy


def test_criterion_5_autonomy_taxonomy():
    xi0 = np.array([0.01, -0.02, 0.015, 0.1, -0.05, 0.08, 20.0, -10.0, 15.0])
    rest = TrajectorySpec((Rest(60.0),), 100.0)
    fast = TrajectorySpec((Straight(60.0, 30.0),), 100.0)
    settings = AutonomySettings(
        origin_e=ORIGIN, gravity=UniformGravity(np.array([0.0, 0.0, 9.8]))
    )

    t0 = time.perf_counter()

    def metric(frame, grouping):
        res = autonomy_experiment(
            ModelVariant(frame, grouping), ErrorConvention.RIGHT, rest, fast, xi0, settings
        )
        return res.divergence_metric, res.classification.value

    m_i, c_i = metric(Frame.I, Grouping.TRADITIONAL)
    m_te, c_te = metric(Frame.E, Grouping.TRADITIONAL)
    m_pe, c_pe = metric(Frame.E, Grouping.PROPOSED)
    m_pw, c_pw = metric(Frame.W, Grouping.PROPOSED)
    elapsed = time.perf_counter() - t0

    assert m_i < 1e-9 and c_i == "perfect"        # (a) inertial frame
    assert m_te > 1e-6 and c_te == "weak"         # (b) traditional e, 0 vs 30 m/s
    assert m_pe < 1e-9 and c_pe == "perfect"      # (c) proposed e
    assert m_pw < 1e-9 and c_pw == "perfect"      # (c) proposed w
    assert elapsed < 60.0
    _report(5, f"i={m_i:.2e} trad-e={m_te:.2e} prop-e={m_pe:.2e} prop-w={m_pw:.2e} "
               f"runtime={elapsed:.1f}s (<60s)")


# ---------------------------------------------------------------------------
# 6. measurement models vs perturbation oracle


def _numerical_H(est, conv):
    eps = [1e-6] * 3 + [1e-5] * 3 + [1e-4] * 3
    cols = []
    for k in range(9):
        xi = np.zeros(9)
        xi[k] = eps[k]
        plus = body_velocity(
            apply_correction(est, TangentVector.from_vector(xi), conv), EARTH, WORLD
        )
        minus = body_velocity(
            apply_correction(est, TangentVector.from_vector(-xi), conv), EARTH, WORLD
        )
        cols.append((minus - plus) / (2.0 * eps[k]))  # innovation = vb(est) - vb(truth)
    return np.column_stack(cols)


def test_criterion_6_measurement_models():
    rng = np.random.default_rng(1006)
    worst = 0.0
    checked = 0
    for frame in (Frame.E, Frame.W):
        for grouping in (Grouping.TRADITIONAL, Grouping.PROPOSED):
            for conv in CONVS:
                for _ in range(100):
                    est = random_nav_state(rng, frame, grouping, EARTH, WORLD)
                    H, vb = odo_H(conv, est, NavModel.of(est, EARTH, world=WORLD))
                    assert np.allclose(H[:, 9:15], 0.0)
                    Hn = _numerical_H(est, conv)
                    rel = np.linalg.norm(Hn - H[:, 0:9]) / max(1.0, np.linalg.norm(H[:, 0:9]))
                    worst = max(worst, float(rel))
                    checked += 1
    assert worst < 1e-5
    _report(6, f"8 measurement matrices x 100 states ({checked} checks), "
               f"worst rel={worst:.2e} (<1e-5)")


# ---------------------------------------------------------------------------
# 7. filter consistency on the desk scenario


def test_criterion_7_filter_consistency():
    cfg = RunConfig(
        traj=TrajectorySpec(
            (
                Straight(60.0, 30.0),
                Turn(60.0, 0.02, 30.0),
                Straight(60.0, 30.0),
                Turn(60.0, -0.02, 30.0),
                Straight(60.0, 30.0),
            ),
            100.0,
        ),
        origin_e=ORIGIN,
        gyro_bias=np.array([1e-5, -5e-6, 8e-6]),
        accel_bias=np.array([1e-4, -2e-4, 5e-5]),
        seed=42,
        n_runs=50,
    )
    t0 = time.perf_counter()
    mc = run_monte_carlo(cfg)
    elapsed = time.perf_counter() - t0
    assert 0.75 * 15.0 < mc.time_avg_nees < 1.35 * 15.0
    assert np.all(np.abs(mc.innovation_lag1) < 0.2)
    assert elapsed < 300.0
    lag = ", ".join(f"{x:+.4f}" for x in mc.innovation_lag1)
    _report(7, f"50x300s: time-avg NEES={mc.time_avg_nees:.3f} in [11.25,20.25], "
               f"innovation lag-1=({lag}) within +/-0.2, runtime={elapsed:.0f}s (<300s)")


# ---------------------------------------------------------------------------
# 8. bit-identical outputs under config+seed


def test_criterion_8_determinism(tmp_path):
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
    cfg_path = tmp_path / "config.json"
    cfg_path.write_text(json.dumps(cfg))
    produced = {
        "simulate": ("truth.csv", "imu.csv", "odo.csv"),
        "run": ("errors.csv", "nees.csv", "summary.json"),
        "autonomy": ("autonomy.json",),
        "compare": ("compare.csv",),
    }
    compared = 0
    for command, files in produced.items():
        a = tmp_path / f"{command}-a"
        b = tmp_path / f"{command}-b"
        assert cli_main([command, "--config", str(cfg_path), "--out", str(a)]) == 0
        assert cli_main([command, "--config", str(cfg_path), "--out", str(b)]) == 0
        for name in files:
            assert filecmp.cmp(a / name, b / name, shallow=False), f"{command}/{name}"
            compared += 1
    _report(8, f"4 commands rerun, {compared} output files bit-identical")
