"""Trajectory synthesis, inverse IMU, sensor corruption, runs, autonomy."""
from __future__ import annotations

import itertools
from dataclasses import fields, replace

import numpy as np
import pytest

import navkit.lgekf as lgekf
import navkit.mechanization as mechanization
import navkit.simulate as sim
from navkit import (
    SE23,
    AngleAtPi,
    AutonomySettings,
    Climb,
    CovarianceNotPSD,
    EarthParams,
    ErrorConvention,
    Frame,
    Grouping,
    ImuSample,
    ModelVariant,
    NavModel,
    NoiseConfig,
    Rest,
    RunConfig,
    SensorErrors,
    SingularRadius,
    SpecInvalid,
    SphericalGravity,
    Straight,
    TangentVector,
    TrajectorySpec,
    Turn,
    UniformGravity,
    autonomy_experiment,
    check_covariance,
    corrupt,
    error_from_states,
    gen_odometer,
    gen_truth,
    gravitation,
    gravity,
    inverse_imu,
    nav_from_physical,
    ned_world,
    physical_from_nav,
    run_monte_carlo,
    run_single,
    se23_exp,
    se23_log,
    so3_exp,
    so3_log,
    step,
    true_bias_series,
)

EARTH = EarthParams()
ORIGIN = EARTH.re * np.array([np.cos(np.radians(45.0)), 0.0, np.sin(np.radians(45.0))])
WORLD = ned_world(ORIGIN, EARTH)
GRAV = SphericalGravity()

# low-dynamics mix: the held-input re-mechanization defect stays well under
# the closure tolerances at 100 Hz (see test_inverse_imu_roundtrip_closure)
GENTLE = TrajectorySpec(
    (Straight(20.0, 10.0), Turn(20.0, 0.005, 10.0), Climb(20.0, 0.002, 10.0)), 100.0
)

QUIET = NoiseConfig(
    gyro_noise_psd=1e-18,
    accel_noise_psd=1e-16,
    gyro_bias_rw_psd=1e-24,
    accel_bias_rw_psd=1e-22,
    odo_noise_cov=np.diag([1e-12] * 3),
)


# ---------------------------------------------------------------------------
# trajectory specs and truth series


@pytest.mark.parametrize(
    "segments",
    [
        (),
        (Straight(0.0, 10.0),),
        (Straight(-1.0, 10.0),),
        (Straight(10.0, -1.0),),
        (Climb(10.0, 1.6, 5.0),),
        (Rest(4000.0),),
    ],
)
def test_invalid_specs_rejected(segments):
    with pytest.raises(SpecInvalid):
        gen_truth(TrajectorySpec(segments, 100.0), EARTH, GRAV, WORLD)


def test_low_imu_rate_rejected():
    with pytest.raises(SpecInvalid):
        gen_truth(TrajectorySpec((Rest(1.0),), 5.0), EARTH, GRAV, WORLD)


def test_run_shorter_than_one_scoring_period_rejected():
    # 0.05 s at 100 Hz with the odometer off has no scored epoch: its
    # time-averaged NEES would be the mean of nothing.
    cfg = RunConfig(traj=TrajectorySpec((Straight(0.05, 10.0),), 100.0), origin_e=ORIGIN, odo_rate=0.0)
    with pytest.raises(SpecInvalid, match="shorter than one 0.1 s scoring period"):
        run_single(cfg)
    run_single(replace(cfg, traj=TrajectorySpec((Straight(0.1, 10.0),), 100.0)))  # one period is enough


def test_rest_truth_is_constant():
    tr = gen_truth(TrajectorySpec((Rest(5.0),), 100.0), EARTH, GRAV, WORLD)
    assert np.all(tr.v_wb_w == 0.0)
    assert np.all(tr.r_w == tr.r_w[0])
    assert np.all(tr.C_b_w == tr.C_b_w[0])


def test_straight_displacement_exact():
    tr = gen_truth(TrajectorySpec((Straight(10.0, 10.0),), 100.0), EARTH, GRAV, WORLD)
    d = np.linalg.norm(tr.r_w[-1] - tr.r_w[0])
    assert abs(d - 100.0) < 1e-9
    assert np.allclose(tr.v_wb_w, tr.v_wb_w[0], atol=1e-12)


def test_semicircle_endpoint():
    # half a turn at radius v/omega = 100 m ends a diameter away
    duration = np.pi / 0.1
    tr = gen_truth(TrajectorySpec((Turn(duration, 0.1, 10.0),), 100.0), EARTH, GRAV, WORLD)
    d = np.linalg.norm(tr.r_w[-1] - tr.r_w[0])
    assert abs(d - 200.0) < 1e-6
    # the grid must land exactly on the non-integer total duration
    assert abs(tr.t[-1] - duration) < 1e-12


def test_truth_velocity_position_consistent():
    tr = gen_truth(GENTLE, EARTH, GRAV, WORLD)
    dt = np.diff(tr.t)[:, None]
    trap = (tr.v_wb_w[:-1] + tr.v_wb_w[1:]) / 2.0
    gap = np.linalg.norm(np.diff(tr.r_w, axis=0) - trap * dt, axis=1)
    assert gap.max() < 1e-7  # third-order trapezoid residue only
    # velocity is continuous: steps bounded by max accel * dt
    dv = np.linalg.norm(np.diff(tr.v_wb_w, axis=0), axis=1)
    assert dv.max() < 0.5 * 0.01


def test_truth_state_anchors():
    tr = gen_truth(GENTLE, EARTH, GRAV, WORLD)
    st = tr.state(3)
    assert st.frame is Frame.W
    assert np.array_equal(st.r0, tr.r_w[0])
    assert np.allclose(st.r0 + st.x.p, tr.r_w[3])


# ---------------------------------------------------------------------------
# inverse IMU


def test_rest_inputs_balance_gravity_and_earth_rate():
    tr = gen_truth(TrajectorySpec((Rest(2.0),), 100.0), EARTH, GRAV, WORLD)
    imu = inverse_imu(tr, EARTH, GRAV, WORLD)
    omega_e = np.array([0.0, 0.0, EARTH.omega_ie])
    C_b_e = WORLD.C_e_w.T @ tr.C_b_w[0]
    w_expect = C_b_e.T @ omega_e
    g_e = gravity(ORIGIN, GRAV, EARTH, omega=omega_e)
    f_expect = -C_b_e.T @ g_e
    assert imu.omega_ib_b.shape == imu.f_ib_b.shape == (200, 3) and imu.dt.shape == (200,)
    assert np.linalg.norm(imu.omega_ib_b - w_expect, axis=1).max() < 1e-12
    assert np.linalg.norm(imu.f_ib_b - f_expect, axis=1).max() < 1e-9


def test_free_space_straight_needs_no_inputs():
    quiet_earth = EarthParams(omega_ie=0.0)
    world = ned_world(ORIGIN, quiet_earth)
    grav = UniformGravity(np.zeros(3))
    tr = gen_truth(TrajectorySpec((Straight(5.0, 10.0),), 100.0), quiet_earth, grav, world)
    imu = inverse_imu(tr, quiet_earth, grav, world)
    assert np.linalg.norm(imu.omega_ib_b, axis=1).max() < 1e-12
    assert np.linalg.norm(imu.f_ib_b, axis=1).max() < 1e-10


def test_inverse_imu_roundtrip_closure():
    """Re-mechanizing the recovered inputs reproduces the truth grid."""
    tr = gen_truth(GENTLE, EARTH, GRAV, WORLD)
    imu = inverse_imu(tr, EARTH, GRAV, WORLD)
    st = tr.state(0)
    model = NavModel.of(st, EARTH, GRAV, WORLD)
    worst_r, worst_v, worst_att = 0.0, 0.0, 0.0
    for k, dt in enumerate(imu.dt):
        st = step(st, ImuSample(imu.omega_ib_b[k], imu.f_ib_b[k], dt), model, method="rk4")
        worst_r = max(worst_r, np.linalg.norm(st.r0 + st.x.p - tr.r_w[k + 1]))
        worst_v = max(worst_v, np.linalg.norm(st.x.v - tr.v_wb_w[k + 1]))
        ang = np.linalg.norm(so3_log(st.x.R.T @ tr.C_b_w[k + 1]))
        worst_att = max(worst_att, ang)
    assert worst_r < 1e-6
    assert worst_v < 1e-7
    assert worst_att < 1e-9


# ---------------------------------------------------------------------------
# corruption, bias walks, odometer


def _imu_series(spec=None):
    tr = gen_truth(spec or TrajectorySpec((Straight(10.0, 10.0),), 100.0), EARTH, GRAV, WORLD)
    return tr, inverse_imu(tr, EARTH, GRAV, WORLD)


def test_corrupt_is_deterministic():
    _, imu = _imu_series()
    errs = SensorErrors(np.array([1e-4, 0, 0]), np.zeros(3), NoiseConfig(), seed=9)
    a, bias_g, _ = corrupt(imu, errs)
    b, _, _ = corrupt(imu, errs)
    assert np.array_equal(a.omega_ib_b, b.omega_ib_b)
    assert np.array_equal(a.f_ib_b, b.f_ib_b)
    assert np.array_equal(a.dt, imu.dt)
    assert np.array_equal(bias_g, true_bias_series(errs, imu.dt)[0])


def test_corrupt_zero_noise_is_pure_bias():
    _, imu = _imu_series()
    zero = NoiseConfig(gyro_noise_psd=0.0, accel_noise_psd=0.0,
                       gyro_bias_rw_psd=0.0, accel_bias_rw_psd=0.0)
    bg = np.array([1e-4, -2e-4, 3e-4])
    ba = np.array([1e-3, 2e-3, -1e-3])
    out, bias_g, bias_a = corrupt(imu, SensorErrors(bg, ba, zero, seed=1))
    assert np.allclose(out.omega_ib_b - imu.omega_ib_b, bg, atol=1e-15)
    assert np.allclose(out.f_ib_b - imu.f_ib_b, ba, atol=1e-15)
    assert np.all(bias_g == bg) and np.all(bias_a == ba)


def test_corrupt_bias_recns_within_3_sigma():
    tr, imu = _imu_series(TrajectorySpec((Straight(60.0, 10.0),), 100.0))
    noise = NoiseConfig(gyro_bias_rw_psd=0.0, accel_bias_rw_psd=0.0)
    bg = np.array([2e-4, -1e-4, 5e-5])
    out, _, _ = corrupt(imu, SensorErrors(bg, np.zeros(3), noise, seed=21))
    resid = out.omega_ib_b - imu.omega_ib_b
    n = len(resid)
    sigma = np.sqrt(noise.gyro_noise_psd * 100.0)  # discrete-sample std
    assert np.all(np.abs(resid.mean(axis=0) - bg) < 3.0 * sigma / np.sqrt(n))


def test_bias_series_constant_without_walk():
    dts = np.full(100, 0.01)
    noise = NoiseConfig(gyro_bias_rw_psd=0.0, accel_bias_rw_psd=0.0)
    bg, ba = true_bias_series(SensorErrors(np.ones(3), 2 * np.ones(3), noise, seed=4), dts)
    assert np.all(bg == 1.0)
    assert np.all(ba == 2.0)


def test_bias_series_walks_and_reproduces():
    dts = np.full(2000, 0.01)
    errs = SensorErrors(np.zeros(3), np.zeros(3), NoiseConfig(), seed=17)
    bg1, _ = true_bias_series(errs, dts)
    bg2, _ = true_bias_series(errs, dts)
    assert np.array_equal(bg1, bg2)
    assert np.any(bg1[-1] != bg1[0])
    assert np.array_equal(bg1[0], np.zeros(3))


def test_odometer_rest_near_zero_noise_zero_samples():
    tr = gen_truth(TrajectorySpec((Rest(5.0),), 100.0), EARTH, GRAV, WORLD)
    quiet = NoiseConfig(odo_noise_cov=np.diag([1e-30] * 3))
    _, v = gen_odometer(tr, quiet, seed=0)
    assert np.linalg.norm(v, axis=1).max() < 1e-12


def test_odometer_straight_reads_forward_speed():
    tr = gen_truth(TrajectorySpec((Straight(5.0, 10.0),), 100.0), EARTH, GRAV, WORLD)
    quiet = NoiseConfig(odo_noise_cov=np.diag([1e-30] * 3))
    idx, v = gen_odometer(tr, quiet, seed=0)
    assert np.array_equal(idx, np.arange(10, 501, 10))
    assert v.shape == (50, 3)
    assert np.allclose(v, [10.0, 0.0, 0.0], atol=1e-12)


def test_odometer_seeded_and_per_run():
    tr = gen_truth(TrajectorySpec((Straight(2.0, 10.0),), 100.0), EARTH, GRAV, WORLD)
    _, a = gen_odometer(tr, NoiseConfig(), seed=5)
    _, b = gen_odometer(tr, NoiseConfig(), seed=5)
    _, c = gen_odometer(tr, NoiseConfig(), seed=5, run_index=1)
    assert np.array_equal(a, b)
    assert np.all(a != c)


def test_odometer_rate_must_divide():
    tr = gen_truth(TrajectorySpec((Straight(2.0, 10.0),), 100.0), EARTH, GRAV, WORLD)
    with pytest.raises(ValueError):
        gen_odometer(tr, NoiseConfig(), seed=0, odo_rate=30.0)
    idx, v = gen_odometer(tr, NoiseConfig(), seed=0, odo_rate=0.0)
    assert idx.shape == (0,) and v.shape == (0, 3)


# ---------------------------------------------------------------------------
# filtered runs


def _quiet_cfg(**kw):
    base = dict(
        traj=GENTLE,
        origin_e=ORIGIN,
        frame=Frame.W,
        grouping=Grouping.PROPOSED,
        convention=ErrorConvention.RIGHT,
        noise=QUIET,
        p0_att=1e-18,
        p0_vel=1e-16,
        p0_pos=1e-14,
        p0_gyro_bias=1e-24,
        p0_accel_bias=1e-22,
        seed=7,
    )
    base.update(kw)
    return RunConfig(**base)


@pytest.mark.parametrize("module, target, fail, exc, t", [
    # a batch of one: the failing stack has one element, element 0
    (mechanization, "_stage_gravity", lambda: gravitation(np.zeros((1, 3)), GRAV, EARTH), SingularRadius, "0.030"),
    (sim, "fuse", lambda: check_covariance(-np.eye(15)[None]), CovarianceNotPSD, "0.300"),
], ids=["kernel", "filter"])
def test_stacked_kernel_error_names_the_run(module, target, fail, exc, t, monkeypatch):
    calls = []
    real = getattr(module, target)

    def failing_at_third_call(*args, **kw):
        calls.append(None)
        if len(calls) == 3:
            fail()
        return real(*args, **kw)

    monkeypatch.setattr(module, target, failing_at_third_call)
    with pytest.raises(exc, match=rf"^run 4, t={t} s: element 0 of the stack") as info:
        run_single(_quiet_cfg(traj=TrajectorySpec((Straight(1.0, 10.0),), 100.0)), 4)
    assert info.value.element == 0


def test_midpoint_stage_gravity_error_names_the_run(monkeypatch):
    # The midpoint rule evaluates gravity at both stage positions of every
    # run as one stage-major (2, 3) stack.  Run 1 of a 3-run batch starts at
    # the earth's center: element 1 (stage 0 of run 1) fails at the first
    # sample, t = 0.010 s.
    real = lgekf.integrate

    def centered_run_1(state, imu, model, method):
        K = state.x.K.copy()
        K[1, :, 4] = -model.r_base
        return real(replace(state, x=SE23.packed(K)), imu, model, method)

    monkeypatch.setattr(lgekf, "integrate", centered_run_1)
    with pytest.raises(SingularRadius, match=r"^run 1, t=0.010 s: element 1 of the stack: radius") as info:
        run_monte_carlo(_quiet_cfg(traj=TrajectorySpec((Straight(1.0, 10.0),), 100.0), n_runs=3))
    assert info.value.element == 1


def test_stacked_linearization_error_names_the_run_and_epoch(monkeypatch):
    # predict linearizes each 10-sample interval of a 3-run batch as one
    # (10, 3) stack.  In the second interval, run 1's estimate at sample 4 is
    # moved to the earth's center: element 4*3 + 1 fails, which is run 1 at
    # the epoch after sample 14, t = 0.150 s.
    calls = []
    real = lgekf.linearized_F_G

    def centered_in_second_interval(conv, est, imu, model):
        calls.append(None)
        if len(calls) == 2:
            K = est.x.K.copy()
            K[4, 1, :, 4] = -model.r_base
            est = replace(est, x=SE23.packed(K))
        return real(conv, est, imu, model)

    monkeypatch.setattr(lgekf, "linearized_F_G", centered_in_second_interval)
    with pytest.raises(SingularRadius, match=r"^run 1, t=0.150 s: element 13 of the stack: radius") as info:
        run_monte_carlo(_quiet_cfg(traj=TrajectorySpec((Straight(1.0, 10.0),), 100.0), n_runs=3))
    assert info.value.element == 1


def _block_cfg(epochs, gate_sigma=None):
    # a straight run with `epochs` 10 Hz odometer epochs: three runs, default noise
    return RunConfig(traj=TrajectorySpec((Straight(epochs / 10.0, 20.0),), 100.0), origin_e=ORIGIN,
                     seed=21, n_runs=3, gate_sigma=gate_sigma)


@pytest.mark.parametrize("gate_sigma", [None, 1.0], ids=["ungated", "gated"])
@pytest.mark.parametrize("past_block", [-1, 0, 1], ids=["below", "equal", "above"])
@pytest.mark.parametrize("block", [7, sim._SCORE_BLOCK], ids=["block7", "default"])
def test_block_scoring_matches_per_epoch_scoring(block, past_block, gate_sigma, monkeypatch):
    # A block length of 1 scores every epoch as it is reached.
    cfg = _block_cfg(block + past_block, gate_sigma)
    monkeypatch.setattr(sim, "_SCORE_BLOCK", 1)
    per_epoch = run_monte_carlo(cfg)
    monkeypatch.setattr(sim, "_SCORE_BLOCK", block)
    blocked = run_monte_carlo(cfg)
    assert per_epoch.nees.shape == (3, block + past_block)
    for f in fields(per_epoch):
        assert np.array_equal(getattr(blocked, f.name), getattr(per_epoch, f.name)), f.name
    if gate_sigma is not None:
        assert np.any(per_epoch.updated) and not np.all(per_epoch.updated)


def _near_pi_error_at(epoch, run, monkeypatch):
    """Patch the filter loop's error_from_states so that the group error of
    run at the block's epoch sits at the angle-pi cut: se23_log refuses it."""
    real = sim.error_from_states

    def near_pi(true, est, conv):
        K = real(true, est, conv).K.copy()
        if len(K) > epoch:
            K[epoch, run, :, 0:3] = so3_exp(np.array([np.pi - 1e-8, 0.0, 0.0]))
        return SE23.packed(K)

    monkeypatch.setattr(sim, "error_from_states", near_pi)


def test_scoring_failure_names_its_run_and_epoch(monkeypatch):
    # Ten epochs, one block of a 3-run batch: element 4*3 + 1 is run 1 at the
    # fifth scored epoch, t = 0.500 s (grid index 50, not 4).
    _near_pi_error_at(4, 1, monkeypatch)
    with pytest.raises(AngleAtPi, match=r"^run 1, t=0\.500 s: element 13 of the stack: ") as info:
        run_monte_carlo(_quiet_cfg(traj=TrajectorySpec((Straight(1.0, 10.0),), 100.0), n_runs=3))
    assert info.value.element == 1


def test_scoring_failure_precedes_a_later_fuse_failure_in_its_block(monkeypatch):
    # Scoring fails at epoch 4 (t = 0.5 s) and fuse at epoch 6 (t = 0.7 s),
    # before the block is full: the earlier epoch's failure is the one raised.
    _near_pi_error_at(4, 1, monkeypatch)
    calls = []
    real_fuse = sim.fuse

    def failing_at_seventh_call(*args, **kw):
        calls.append(None)
        if len(calls) == 7:
            check_covariance(-np.eye(15)[None])
        return real_fuse(*args, **kw)

    monkeypatch.setattr(sim, "fuse", failing_at_seventh_call)
    with pytest.raises(AngleAtPi, match=r"^run 1, t=0\.500 s: ") as info:
        run_monte_carlo(_quiet_cfg(traj=TrajectorySpec((Straight(1.0, 10.0),), 100.0), n_runs=3))
    assert len(calls) == 7 and info.value.element == 1


def test_perfect_sensors_track_truth():
    res = run_single(_quiet_cfg())
    assert res.rmse_att < 1e-5
    assert res.rmse_vel < 1e-5
    assert res.rmse_pos < 1e-5
    assert np.all(res.updated)


def test_open_loop_gyro_bias_drift():
    bg = np.array([2e-5, -1e-5, 1.5e-5])
    res = run_single(_quiet_cfg(grouping=Grouping.TRADITIONAL, gyro_bias=bg,
                                odo_rate=0.0, bias_known=False))
    assert not np.any(res.updated)
    att_end = np.linalg.norm(res.att_err[-1])
    expected = np.linalg.norm(bg) * res.t[-1]
    assert abs(att_end - expected) < 0.05 * expected


def test_run_single_deterministic():
    cfg = RunConfig(traj=TrajectorySpec((Straight(10.0, 20.0),), 100.0), origin_e=ORIGIN, seed=13)
    a = run_single(cfg)
    b = run_single(cfg)
    assert np.array_equal(a.att_err, b.att_err)
    assert np.array_equal(a.nees, b.nees)
    assert np.array_equal(a.innovation, b.innovation)


def test_tight_gate_suppresses_updates():
    cfg = RunConfig(traj=TrajectorySpec((Straight(5.0, 20.0),), 100.0), origin_e=ORIGIN,
                    seed=13, gate_sigma=1e-6)
    res = run_single(cfg)
    assert not np.any(res.updated)


def test_monte_carlo_batch_of_one_is_run_single():
    cfg = RunConfig(traj=TrajectorySpec((Straight(2.0, 10.0),), 100.0), origin_e=ORIGIN, seed=3)
    batch = run_monte_carlo(replace(cfg, n_runs=1))
    assert len(batch.runs) == 1
    solo = run_single(cfg, 0)
    for f in fields(solo):
        assert np.array_equal(getattr(batch.runs[0], f.name), getattr(solo, f.name)), f.name
    with pytest.raises(ValueError, match="at least 1 run"):
        run_monte_carlo(replace(cfg, n_runs=0))


def test_monte_carlo_deterministic_and_aggregated():
    cfg = RunConfig(
        traj=TrajectorySpec((Straight(15.0, 30.0), Turn(15.0, 0.02, 30.0)), 100.0),
        origin_e=ORIGIN,
        gyro_bias=np.array([1e-5, -5e-6, 8e-6]),
        accel_bias=np.array([1e-4, -2e-4, 5e-5]),
        seed=42,
        n_runs=3,
    )
    mc1 = run_monte_carlo(cfg)
    mc2 = run_monte_carlo(cfg)
    assert mc1.time_avg_nees == mc2.time_avg_nees
    assert np.array_equal(mc1.mean_nees_series, mc2.mean_nees_series)
    assert np.array_equal(mc1.innovation_lag1, mc2.innovation_lag1)
    # runs are the same as invoking run_single with the run index directly
    solo = run_single(cfg, 1)
    assert np.array_equal(mc1.runs[1].nees, solo.nees)
    # distinct run indices produce genuinely different realizations
    assert not np.array_equal(mc1.runs[0].nees, mc1.runs[1].nees)
    assert len(mc1.mean_nees_series) == len(mc1.runs[0].t)
    assert np.all(np.isfinite(mc1.mean_nees_series))
    assert np.all(np.abs(mc1.innovation_lag1) <= 1.0)
    assert 3.0 < mc1.time_avg_nees < 40.0


@pytest.mark.parametrize("frame", list(Frame), ids=lambda f: f.value)
def test_monte_carlo_builds_each_model_once(frame, monkeypatch):
    # inverse_imu's model, truth0's anchor, the filter's model and the anchor
    # of the scored truth: four builds per batch, none per epoch.
    builds = []
    real_init = NavModel.__init__

    def counting_init(self, *args, **kwargs):
        builds.append(args[:2])
        real_init(self, *args, **kwargs)

    monkeypatch.setattr(NavModel, "__init__", counting_init)
    run_monte_carlo(_quiet_cfg(traj=TrajectorySpec((Straight(2.0, 10.0),), 100.0), frame=frame, n_runs=3))
    assert len(builds) == 4, builds


def test_monte_carlo_parallel_path_matches_serial():
    # Runs are propagated side by side in one lock-step batch; how they are
    # grouped must not change any run, bit for bit.
    cfg = RunConfig(traj=TrajectorySpec((Straight(5.0, 20.0),), 100.0), origin_e=ORIGIN,
                    seed=8, n_runs=2)
    pair = run_monte_carlo(cfg)
    triple = run_monte_carlo(replace(cfg, n_runs=3))
    for k in (0, 1):
        solo = run_single(cfg, k)
        for name in (f.name for f in fields(solo)):
            assert np.array_equal(getattr(pair.runs[k], name), getattr(triple.runs[k], name)), (k, name)
            assert np.array_equal(getattr(pair.runs[k], name), getattr(solo, name)), (k, name)
        # a batch of one reads its run's own numbers
        for name in ("rmse_att", "rmse_vel", "rmse_pos", "time_avg_nees"):
            assert getattr(pair.runs[k], name) == getattr(solo, name), (k, name)


# ---------------------------------------------------------------------------
# autonomy experiments

XI0 = np.array([0.01, -0.02, 0.015, 0.1, -0.05, 0.08, 20.0, -10.0, 15.0])
REST20 = TrajectorySpec((Rest(20.0),), 100.0)
FAST20 = TrajectorySpec((Straight(20.0, 30.0),), 100.0)
UNIFORM = AutonomySettings(origin_e=ORIGIN, gravity=UniformGravity(np.array([0.0, 0.0, 9.8])))


def test_autonomy_perfect_inertial():
    res = autonomy_experiment(
        ModelVariant(Frame.I, Grouping.TRADITIONAL), ErrorConvention.RIGHT,
        REST20, FAST20, XI0, UNIFORM,
    )
    assert res.classification.value == "perfect"
    assert res.divergence_metric < 1e-9
    assert np.allclose(res.xi_a[0], XI0, atol=1e-12)


def test_autonomy_traditional_earth_frame_breaks():
    res = autonomy_experiment(
        ModelVariant(Frame.E, Grouping.TRADITIONAL), ErrorConvention.RIGHT,
        REST20, FAST20, XI0, UNIFORM,
    )
    assert res.classification.value == "weak"
    assert res.divergence_metric > 1e-6


def test_autonomy_proposed_earth_frame_restores():
    res = autonomy_experiment(
        ModelVariant(Frame.E, Grouping.PROPOSED), ErrorConvention.RIGHT,
        REST20, FAST20, XI0, UNIFORM,
    )
    assert res.classification.value == "perfect"
    assert res.divergence_metric < 1e-9


def test_autonomy_gravity_error_classified_approximate():
    res = autonomy_experiment(
        ModelVariant(Frame.W, Grouping.PROPOSED), ErrorConvention.RIGHT,
        REST20, FAST20, XI0,
        AutonomySettings(origin_e=ORIGIN, gravity=SphericalGravity()),
    )
    assert res.classification.value == "approximate"


def test_autonomy_metric_is_integrator_truncation():
    """Perfect-case divergence is pure numerics: on a fast-rotating planet
    the 2nd-order rule loses 4x per rate doubling while rk4 stays at the
    roundoff floor."""
    fast = EarthParams(omega_ie=0.02)

    def run(rate, method):
        st = AutonomySettings(
            origin_e=ORIGIN,
            gravity=UniformGravity(np.array([0.0, 0.0, 9.8])),
            earth=fast,
            integrator=method,
        )
        return autonomy_experiment(
            ModelVariant(Frame.E, Grouping.PROPOSED), ErrorConvention.RIGHT,
            TrajectorySpec((Rest(20.0),), rate), TrajectorySpec((Straight(20.0, 30.0),), rate),
            XI0, st,
        )

    m25 = run(25.0, "midpoint").divergence_metric
    m50 = run(50.0, "midpoint").divergence_metric
    assert 3.5 < m25 / m50 < 4.5
    r50 = run(50.0, "rk4")
    assert r50.classification.value == "perfect"
    assert r50.divergence_metric < 1e-9


def test_autonomy_mismatched_grids_rejected():
    with pytest.raises(SpecInvalid):
        autonomy_experiment(
            ModelVariant(Frame.I, Grouping.TRADITIONAL), ErrorConvention.RIGHT,
            TrajectorySpec((Rest(10.0),), 100.0), TrajectorySpec((Rest(10.0),), 80.0),
            XI0, UNIFORM,
        )
    # 99.5 Hz over 1 s ends on a short interval: both grids have 101 epochs
    # and end at t=1, but disagree at every epoch in between.
    a, b = TrajectorySpec((Rest(1.0),), 100.0), TrajectorySpec((Rest(1.0),), 99.5)
    t_a, t_b = gen_truth(a, EARTH, GRAV, WORLD).t, gen_truth(b, EARTH, GRAV, WORLD).t
    assert len(t_a) == len(t_b) and t_a[-1] == t_b[-1]
    with pytest.raises(SpecInvalid):
        autonomy_experiment(ModelVariant(Frame.I, Grouping.TRADITIONAL), ErrorConvention.RIGHT,
                            a, b, XI0, UNIFORM)


def _scalar_twin_logs(variant, conv, traj, xi0, settings):
    """One trajectory's error logs from a per-flow loop of scalar steps."""
    world = ned_world(settings.origin_e, settings.earth)
    truth_w = gen_truth(traj, settings.earth, settings.gravity, world)
    trip = physical_from_nav(truth_w.state(0), settings.earth, world, 0.0)
    truth = nav_from_physical(variant.frame, variant.grouping, *trip, settings.earth, world, t=0.0)
    eta0_inv = se23_exp(TangentVector.from_vector(xi0)).inverse()
    x = eta0_inv.compose(truth.x) if conv is ErrorConvention.RIGHT else truth.x.compose(eta0_inv)
    est = replace(truth, x=x)
    logs = [se23_log(error_from_states(truth, est, conv)).as_vector()]
    model = NavModel.of(truth, settings.earth, settings.gravity, world)
    stack = inverse_imu(truth_w, settings.earth, settings.gravity, world)
    for omega, f, dt in zip(stack.omega_ib_b, stack.f_ib_b, stack.dt.tolist()):
        imu = ImuSample(omega, f, dt)
        imu_est = ImuSample(omega + settings.gyro_input_error, f + settings.accel_input_error, dt)
        truth = step(truth, imu, model, method=settings.integrator)
        est = step(est, imu_est, model, method=settings.integrator)
        logs.append(se23_log(error_from_states(truth, est, conv)).as_vector())
    return np.array(logs)


CRITERION_5_VARIANTS = [
    ModelVariant(Frame.I, Grouping.TRADITIONAL),
    ModelVariant(Frame.E, Grouping.TRADITIONAL),
    ModelVariant(Frame.E, Grouping.PROPOSED),
    ModelVariant(Frame.W, Grouping.PROPOSED),
]


@pytest.mark.parametrize(
    "variant,conv,integrator,input_errors",
    list(itertools.product(CRITERION_5_VARIANTS, ErrorConvention, ("rk4", "midpoint"), (False, True))),
    ids=lambda c: getattr(c, "name", getattr(c, "value", str(c))),
)
def test_autonomy_stacked_flows_match_scalar_loop(variant, conv, integrator, input_errors):
    settings = AutonomySettings(
        origin_e=ORIGIN, gravity=UniformGravity(np.array([0.0, 0.0, 9.8])), integrator=integrator,
        gyro_input_error=np.array([1e-5, -2e-5, 3e-5]) if input_errors else np.zeros(3),
        accel_input_error=np.array([1e-3, 2e-3, -1e-3]) if input_errors else np.zeros(3),
    )
    traj_a = TrajectorySpec((Rest(2.0),), 100.0)
    traj_b = TrajectorySpec((Straight(1.0, 30.0), Turn(1.0, 0.2, 30.0)), 100.0)
    res = autonomy_experiment(variant, conv, traj_a, traj_b, XI0, settings)
    for traj, xi in ((traj_a, res.xi_a), (traj_b, res.xi_b)):
        ref = _scalar_twin_logs(variant, conv, traj, XI0, settings)
        assert np.allclose(xi, ref, rtol=1e-12, atol=1e-13)


def test_autonomy_unequal_durations_share_the_common_epochs():
    traj_a = TrajectorySpec((Rest(2.0),), 100.0)
    traj_b = TrajectorySpec((Straight(1.0, 30.0),), 100.0)
    variant = ModelVariant(Frame.E, Grouping.PROPOSED)
    res = autonomy_experiment(variant, ErrorConvention.RIGHT, traj_a, traj_b, XI0, UNIFORM)
    assert res.t.shape == (101,) and res.xi_a.shape == res.xi_b.shape == (101, 9)
    assert res.t[-1] == pytest.approx(1.0, abs=1e-12)
    ref = _scalar_twin_logs(variant, ErrorConvention.RIGHT, traj_a, XI0, UNIFORM)
    assert np.allclose(res.xi_a, ref[:101], rtol=1e-12, atol=1e-13)


def test_autonomy_log_error_names_trajectory_and_epoch():
    xi0 = XI0.copy()
    xi0[0:3] = [np.pi - 1e-7, 0.0, 0.0]
    with pytest.raises(AngleAtPi, match=r"^trajectory a, t=0\.000 s: ") as info:
        autonomy_experiment(ModelVariant(Frame.I, Grouping.TRADITIONAL), ErrorConvention.RIGHT,
                            REST20, FAST20, xi0, UNIFORM)
    assert info.value.element == 0


def test_nees_singular_run_falls_back_alone():
    from navkit.simulate import _nees

    rng = np.random.default_rng(5)
    A = rng.normal(size=(7, 15, 15))
    P = A @ A.transpose(0, 2, 1) + np.eye(15)
    P[3] = 0.0
    P[3, :14, :14] = P[2, :14, :14]  # singular: the pseudo-inverse takes over for this element only
    e = rng.normal(size=(7, 15))
    out = _nees(e, P)
    for i in range(7):
        x = np.linalg.pinv(P[i], hermitian=True) @ e[i, :, None] if i == 3 else np.linalg.solve(P[i], e[i, :, None])
        assert out[i] == (e[i, None, :] @ x)[0, 0], i
