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
    STREAM_ACCEL_BIAS_WALK,
    STREAM_ACCEL_NOISE,
    STREAM_GYRO_BIAS_WALK,
    STREAM_GYRO_NOISE,
    STREAM_INIT_BIAS,
    STREAM_INIT_STATE,
    STREAM_ODOMETER,
    AngleAtPi,
    AutonomySettings,
    Climb,
    CovarianceNotPSD,
    EarthParams,
    ErrorConvention,
    Frame,
    GaussianStream,
    Grouping,
    ImuSample,
    ModelVariant,
    NavModel,
    NoiseConfig,
    NotARotation,
    Rest,
    RunConfig,
    SingularRadius,
    SpecInvalid,
    SphericalGravity,
    Straight,
    TangentVector,
    TrajectorySpec,
    Turn,
    UniformGravity,
    apply_correction,
    autonomy_experiment,
    check_covariance,
    corrupt,
    error_from_states,
    error_to_vector,
    gen_odometer,
    gen_truth,
    gravitation,
    inverse_imu,
    linearized_F_G,
    matvec,
    nav_from_physical,
    ned_world,
    physical_from_nav,
    run_monte_carlo,
    run_single,
    so3_exp,
    so3_log,
    step,
    substream,
    transpose,
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
        (Turn(10.0, np.nan, 30.0),),
        (Straight(5.0, 10.0), Turn(10.0, np.inf, 30.0)),
        (Turn(10.0, -np.inf, 30.0),),
        (Straight(10.0, np.nan),),
        (Turn(10.0, 0.1, np.inf),),
        (Climb(10.0, 0.1, np.nan),),
    ],
)
def test_invalid_specs_rejected(segments):
    with pytest.raises(SpecInvalid):
        gen_truth(TrajectorySpec(segments, 100.0), EARTH, GRAV, WORLD)


def test_non_finite_rate_names_its_segment():
    with pytest.raises(SpecInvalid, match="segment 1: yaw_rate must be finite, got nan") as info:
        TrajectorySpec((Straight(5.0, 10.0), Turn(10.0, np.nan, 30.0)), 100.0)
    assert info.value.field == "segments[1]"


def test_low_imu_rate_rejected():
    for rate in (5.0, np.nan, np.inf):
        with pytest.raises(SpecInvalid, match="imu_rate must be finite and at least 10 Hz"):
            gen_truth(TrajectorySpec((Rest(1.0),), rate), EARTH, GRAV, WORLD)


def test_run_shorter_than_one_scoring_period_rejected():
    # 0.05 s at 100 Hz with the odometer off has no scored epoch: its
    # time-averaged NEES would be the mean of nothing.
    with pytest.raises(SpecInvalid, match="shorter than one 0.1 s scoring period"):
        RunConfig(traj=TrajectorySpec((Straight(0.05, 10.0),), 100.0), origin_e=ORIGIN, odo_rate=0.0)
    cfg = RunConfig(traj=TrajectorySpec((Straight(0.1, 10.0),), 100.0), origin_e=ORIGIN, odo_rate=0.0)
    run_single(cfg)  # one period is enough


@pytest.mark.parametrize(
    "name", ["odo_rate", "p0_att", "p0_vel", "p0_pos", "p0_gyro_bias", "p0_accel_bias", "gate_sigma"]
)
@pytest.mark.parametrize("value", [np.nan, np.inf, -1.0], ids=["nan", "inf", "negative"])
def test_run_config_rejects_bad_rates_and_variances(name, value):
    # A variance, rate or gate that is not finite and >= 0 is refused where
    # the config is made, naming the field, not deep in the filter loop (a
    # NaN gate would reject every update, a negative one act as its
    # magnitude).  The default gate, None, is no gate.
    traj = TrajectorySpec((Straight(5.0, 10.0),), 100.0)
    with pytest.raises(ValueError, match=f"^{name} must be finite and >= 0, got {value}$"):
        RunConfig(traj=traj, origin_e=ORIGIN, **{name: value})
    RunConfig(traj=traj, origin_e=ORIGIN, **{name: 0.0})  # zero is a variance, and turns the odometer off


@pytest.mark.parametrize(
    "field, value, message",
    [
        ("n_runs", 0, "need at least 1 run, got 0"),
        ("seed", -1, r"seed must lie in \[0, 2\*\*64\), got -1"),
        ("seed", 2**64 + 5, r"seed must lie in \[0, 2\*\*64\)"),  # Philox would key it as seed 5
        ("odo_rate", 7.0, "odo_rate 7.0 must divide imu_rate 100.0"),
        # The first odometer epoch past the grid: no aiding at 0.1 Hz, and a
        # 1e302-sample decimation that no index array holds at 1e-300 Hz.
        ("odo_rate", 0.1, "odo_rate 0.1 Hz gives no sample within the trajectory"),
        ("odo_rate", 1e-300, "odo_rate 1e-300 Hz gives no sample within the trajectory"),
    ],
)
def test_run_config_refuses_what_no_run_can_use(field, value, message):
    traj = TrajectorySpec((Straight(5.0, 10.0),), 100.0)
    with pytest.raises(SpecInvalid, match=f"^{message}") as info:
        RunConfig(traj=traj, origin_e=ORIGIN, **{field: value})
    assert info.value.field == field
    RunConfig(traj=traj, origin_e=ORIGIN, seed=2**64 - 1, n_runs=1, odo_rate=25.0)
    RunConfig(traj=traj, origin_e=ORIGIN, odo_rate=0.2)  # one sample, at the last epoch


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


def test_truth_velocity_along_body_x_axis():
    # Zero roll and no sideslip: at every epoch, inside the blend windows
    # too, the velocity lies along the body x-axis and points forward.
    spec = TrajectorySpec((Straight(5.0, 10.0), Turn(5.0, 0.2, 10.0), Climb(5.0, 0.1, 12.0), Rest(5.0)), 100.0)
    tr = gen_truth(spec, EARTH, GRAV, WORLD)
    x_axis, v = tr.C_b_w[:, :, 0], tr.v_wb_w
    speed = np.linalg.norm(v, axis=1)
    assert np.all(np.linalg.norm(np.cross(x_axis, v), axis=1) <= 1e-12 * speed)
    assert np.all(np.einsum("ni,ni->n", x_axis, v) >= 0.0)
    assert speed.max() == pytest.approx(12.0) and speed[-1] == 0.0


def test_blend_keeps_the_step_profiles_integral():
    # The blends are centered on the boundaries, so once past a blend
    # window the heading is the step profile's integral and the pitch is
    # the next segment's.
    turn = gen_truth(TrajectorySpec((Turn(10.0, 0.1, 20.0), Straight(10.0, 20.0)), 100.0), EARTH, GRAV, WORLD)
    yaw = np.arctan2(turn.C_b_w[:, 1, 0], turn.C_b_w[:, 0, 0])
    assert abs(yaw[-1] - 1.0) < 1e-12
    # and it gets there without a jump: the rate stays between the segments' 0.1 and 0 rad/s
    assert np.all(np.diff(yaw) >= 0.0) and np.diff(yaw).max() <= 0.1 * 0.01 + 1e-12
    climb = gen_truth(TrajectorySpec((Climb(10.0, 0.1, 20.0), Straight(10.0, 20.0)), 100.0), EARTH, GRAV, WORLD)
    pitch = -np.arcsin(climb.C_b_w[:, 2, 0])
    assert abs(pitch[0] - 0.1) < 1e-15 and pitch[-1] == 0.0
    assert np.all(np.diff(pitch) <= 0.0)  # the ramp is monotone


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
    g_e = gravitation(ORIGIN, GRAV, EARTH) - np.cross(omega_e, np.cross(omega_e, ORIGIN))
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


def _count_steps(monkeypatch):
    calls = []
    real_step = sim.step

    def counted(*args, **kwargs):
        calls.append(1)
        return real_step(*args, **kwargs)

    monkeypatch.setattr(sim, "step", counted)
    return calls


def test_inverse_imu_takes_two_residual_evaluations_at_100_hz(monkeypatch):
    # The seed's residual, one chord correction, and the residual that
    # confirms it: no evaluation is spent on a Jacobian.
    tr = gen_truth(TrajectorySpec((Straight(2.0, 30.0), Turn(5.0, 0.2, 30.0)), 100.0), EARTH, GRAV, WORLD)
    calls = _count_steps(monkeypatch)
    inverse_imu(tr, EARTH, GRAV, WORLD)
    assert len(calls) == 2


@pytest.mark.parametrize(
    "segments",
    [
        (Turn(10.0, 1.0, 100.0),),
        (Climb(10.0, 0.3, 50.0), Turn(10.0, 1.0, 50.0)),
    ],
)
def test_inverse_imu_closes_at_10_hz(monkeypatch, segments):
    """At the 10 Hz floor, 1 rad/s turns converge and close the loop."""
    tr = gen_truth(TrajectorySpec(segments, 10.0), EARTH, GRAV, WORLD)
    calls = _count_steps(monkeypatch)
    imu = inverse_imu(tr, EARTH, GRAV, WORLD)
    assert len(calls) <= sim._NEWTON_ITERATIONS + 1
    model = NavModel.of(tr.state(0), EARTH, GRAV, WORLD)
    # Each interval, stepped from its grid state, lands on the next one.
    ends = step(tr.state(slice(None, -1)), imu, model, method="rk4").x
    assert np.abs(so3_log(np.swapaxes(ends.R, -1, -2) @ tr.C_b_w[1:])).max() < 1e-12
    assert np.abs(ends.v - tr.v_wb_w[1:]).max() < 1e-11
    # Re-mechanized end to end, the held inputs stay near the grid.  rk4
    # leaves SO(3) by about 1e-8 per 0.1 s step at 1 rad/s, which bounds
    # the attitude and, through the specific force, the velocity.
    K = mechanization.integrate(tr.state(0), imu, model, "rk4")
    assert np.linalg.norm(np.swapaxes(K[:, :, :3], -1, -2) @ tr.C_b_w - np.eye(3), axis=(1, 2)).max() < 3e-6
    assert np.linalg.norm(K[:, :, 3] - tr.v_wb_w, axis=1).max() < 3e-4
    assert np.linalg.norm(tr.r_w[0] + K[:, :, 4] - tr.r_w, axis=1).max() < 0.2


def test_grid_block_does_not_change_the_truth_or_the_inputs(monkeypatch):
    # One convergence test over the whole grid gives every interval the same
    # number of corrections whatever the block: a straight leg's blocks,
    # left to converge on their own, would stop at their seed.
    spec = TrajectorySpec((Straight(15.0, 30.0), Turn(15.0, 0.02, 30.0)), 100.0)
    out = []
    for block in (7, 10**9):
        monkeypatch.setattr(sim, "_GRID_BLOCK", block)
        tr = gen_truth(spec, EARTH, GRAV, WORLD)
        imu = inverse_imu(tr, EARTH, GRAV, WORLD)
        out.append([a.tobytes() for a in (tr.t, tr.C_b_w, tr.v_wb_w, tr.r_w, imu.omega_ib_b, imu.f_ib_b, imu.dt)])
    assert out[0] == out[1]


def test_grid_working_set_is_bounded():
    # Traced peaks over one call on a 600 s, 100 Hz grid (60,000 intervals),
    # above the traced size before it.  They cover the call's outputs
    # (gen_truth 7.7 MB, inverse_imu 3.4 MB), inverse_imu's per-interval
    # iteration state (8.6 MB) and one block of temporaries; stages formed
    # over the whole grid at once peaked at 33 and 104 MB.
    import tracemalloc

    spec = TrajectorySpec((Straight(200.0, 30.0), Turn(200.0, 0.02, 30.0), Climb(100.0, 0.05, 30.0),
                           Rest(100.0)), 100.0)
    tracemalloc.start()
    try:
        def traced_peak(call, *args):
            tracemalloc.reset_peak()
            before = tracemalloc.get_traced_memory()[0]
            out = call(*args)
            return out, (tracemalloc.get_traced_memory()[1] - before) / 1e6

        tr, truth_mb = traced_peak(gen_truth, spec, EARTH, GRAV, WORLD)
        _, inverse_mb = traced_peak(inverse_imu, tr, EARTH, GRAV, WORLD)
    finally:
        tracemalloc.stop()
    assert len(tr.t) == 60_001
    assert truth_mb < 16.0, truth_mb
    assert inverse_mb < 30.0, inverse_mb


def test_inverse_imu_kernel_error_names_its_interval_across_blocks(monkeypatch):
    # A kernel failure in the second block names the failing interval's
    # time and its index on the whole grid.
    monkeypatch.setattr(sim, "_GRID_BLOCK", 16)
    tr = gen_truth(TrajectorySpec((Straight(1.0, 10.0),), 100.0), EARTH, GRAV, WORLD)
    real_step, calls = sim.step, []

    def failing_in_second_block(state, imu, model, method):
        calls.append(1)
        if len(calls) == 2:
            raise NotARotation("element 3 of the stack: planted", element=3)
        return real_step(state, imu, model, method)

    monkeypatch.setattr(sim, "step", failing_in_second_block)
    with pytest.raises(NotARotation, match=r"^inverse_imu: interval at t=0\.190 s: element 3 of the stack") as info:
        inverse_imu(tr, EARTH, GRAV, WORLD)
    assert info.value.element == 19


# ---------------------------------------------------------------------------
# corruption, bias walks, odometer


def _imu_series(spec=None):
    tr = gen_truth(spec or TrajectorySpec((Straight(10.0, 10.0),), 100.0), EARTH, GRAV, WORLD)
    return tr, inverse_imu(tr, EARTH, GRAV, WORLD)


def _sensor_cfg(duration=10.0, **kw):
    return RunConfig(traj=TrajectorySpec((Straight(duration, 10.0),), 100.0), origin_e=ORIGIN, **kw)


def test_corrupt_is_deterministic():
    _, imu = _imu_series()
    cfg = _sensor_cfg(seed=9)
    bias0 = np.array([1e-4, 0, 0, 0, 0, 0])
    a, bias = corrupt(imu, cfg, 0, bias0)
    b, bias_again = corrupt(imu, cfg, 0, bias0)
    assert np.array_equal(a.omega_ib_b, b.omega_ib_b)
    assert np.array_equal(a.f_ib_b, b.f_ib_b)
    assert np.array_equal(a.dt, imu.dt)
    assert bias.shape == (len(imu.dt), 6)
    assert np.array_equal(bias, bias_again)
    c, _ = corrupt(imu, cfg, 1, bias0)  # another run draws other noise
    assert np.all(c.omega_ib_b != a.omega_ib_b)


def test_corrupt_zero_noise_is_pure_bias():
    _, imu = _imu_series()
    zero = NoiseConfig(gyro_noise_psd=0.0, accel_noise_psd=0.0,
                       gyro_bias_rw_psd=0.0, accel_bias_rw_psd=0.0)
    bg = np.array([1e-4, -2e-4, 3e-4])
    ba = np.array([1e-3, 2e-3, -1e-3])
    out, bias = corrupt(imu, _sensor_cfg(noise=zero, seed=1), 0, np.concatenate([bg, ba]))
    assert np.allclose(out.omega_ib_b - imu.omega_ib_b, bg, atol=1e-15)
    assert np.allclose(out.f_ib_b - imu.f_ib_b, ba, atol=1e-15)
    assert np.all(bias[:, :3] == bg) and np.all(bias[:, 3:] == ba)


def test_corrupt_bias_recns_within_3_sigma():
    tr, imu = _imu_series(TrajectorySpec((Straight(60.0, 10.0),), 100.0))
    noise = NoiseConfig(gyro_bias_rw_psd=0.0, accel_bias_rw_psd=0.0)
    bg = np.array([2e-4, -1e-4, 5e-5])
    out, _ = corrupt(imu, _sensor_cfg(60.0, noise=noise, seed=21), 0, np.concatenate([bg, np.zeros(3)]))
    resid = out.omega_ib_b - imu.omega_ib_b
    n = len(resid)
    sigma = np.sqrt(noise.gyro_noise_psd * 100.0)  # discrete-sample std
    assert np.all(np.abs(resid.mean(axis=0) - bg) < 3.0 * sigma / np.sqrt(n))


def test_bias_series_constant_without_walk():
    _, imu = _imu_series(TrajectorySpec((Straight(1.0, 10.0),), 100.0))
    noise = NoiseConfig(gyro_bias_rw_psd=0.0, accel_bias_rw_psd=0.0)
    _, bias = corrupt(imu, _sensor_cfg(1.0, noise=noise, seed=4), 0, np.array([1.0] * 3 + [2.0] * 3))
    assert np.all(bias[:, :3] == 1.0)
    assert np.all(bias[:, 3:] == 2.0)


def test_bias_series_walks_and_reproduces():
    _, imu = _imu_series(TrajectorySpec((Straight(20.0, 10.0),), 100.0))
    cfg = _sensor_cfg(20.0, seed=17)
    bias0 = np.array([1e-4, -2e-4, 3e-4, 1e-3, 2e-3, -1e-3])
    _, bias1 = corrupt(imu, cfg, 0, bias0)
    _, bias2 = corrupt(imu, cfg, 0, bias0)
    assert np.array_equal(bias1, bias2)
    assert np.all(bias1[-1] != bias1[0])
    assert np.array_equal(bias1[0], bias0)


def test_odometer_rest_near_zero_noise_zero_samples():
    tr = gen_truth(TrajectorySpec((Rest(5.0),), 100.0), EARTH, GRAV, WORLD)
    quiet = NoiseConfig(odo_noise_cov=np.diag([1e-30] * 3))
    _, v = gen_odometer(tr, _sensor_cfg(5.0, noise=quiet), 0)
    assert np.linalg.norm(v, axis=1).max() < 1e-12


def test_odometer_straight_reads_forward_speed():
    tr = gen_truth(TrajectorySpec((Straight(5.0, 10.0),), 100.0), EARTH, GRAV, WORLD)
    quiet = NoiseConfig(odo_noise_cov=np.diag([1e-30] * 3))
    idx, v = gen_odometer(tr, _sensor_cfg(5.0, noise=quiet), 0)
    assert np.array_equal(idx, np.arange(10, 501, 10))
    assert v.shape == (50, 3)
    assert np.allclose(v, [10.0, 0.0, 0.0], atol=1e-12)


def test_odometer_seeded_and_per_run():
    tr = gen_truth(TrajectorySpec((Straight(2.0, 10.0),), 100.0), EARTH, GRAV, WORLD)
    cfg = _sensor_cfg(2.0, seed=5)
    _, a = gen_odometer(tr, cfg, 0)
    _, b = gen_odometer(tr, cfg, 0)
    _, c = gen_odometer(tr, cfg, 1)
    _, d = gen_odometer(tr, replace(cfg, seed=6), 0)
    assert np.array_equal(a, b)
    assert np.all(a != c) and np.all(a != d)


def test_odometer_rate_must_divide():
    tr = gen_truth(TrajectorySpec((Straight(2.0, 10.0),), 100.0), EARTH, GRAV, WORLD)
    with pytest.raises(SpecInvalid, match="must divide imu_rate"):
        _sensor_cfg(2.0, odo_rate=30.0)
    idx, v = gen_odometer(tr, _sensor_cfg(2.0, odo_rate=0.0), 0)
    assert idx.shape == (0,) and v.shape == (0, 3)


@pytest.mark.parametrize("bias_known", [True, False])
def test_run_inputs_draw_each_quantity_from_its_channel(bias_known):
    # The recipe written out with one GaussianStream per (channel, run): each
    # drawn quantity must come from its own channel, at run k = 3.
    noise = NoiseConfig(gyro_noise_psd=2e-8, accel_noise_psd=3e-5, gyro_bias_rw_psd=4e-12,
                        accel_bias_rw_psd=5e-9, odo_noise_cov=np.diag([1e-4, 2e-4, 3e-4]))
    cfg = _sensor_cfg(2.0, noise=noise, seed=23, bias_known=bias_known,
                      gyro_bias=np.array([1e-5, -0.0, 8e-6]), accel_bias=np.array([1e-4, -2e-4, 5e-5]))
    tr, imu = _imu_series(cfg.traj)
    k = 3

    def draws(channel, rows):
        return GaussianStream(cfg.seed, substream(channel, k)).normals(3 * rows).reshape(rows, 3)

    sigma0 = np.sqrt(cfg.p0_diag())
    nominal = np.concatenate([cfg.gyro_bias, cfg.accel_bias])
    if bias_known:
        hat0, bias0 = nominal, nominal - sigma0[9:] * draws(STREAM_INIT_BIAS, 2).ravel()
    else:
        hat0, bias0 = np.zeros(6), 0.0 - (-nominal)
    n = len(imu.dt)
    measured, bias = [], []
    for true, b0, walk, walk_psd, white, white_psd in (
        (imu.omega_ib_b, bias0[:3], STREAM_GYRO_BIAS_WALK, noise.gyro_bias_rw_psd, STREAM_GYRO_NOISE,
         noise.gyro_noise_psd),
        (imu.f_ib_b, bias0[3:], STREAM_ACCEL_BIAS_WALK, noise.accel_bias_rw_psd, STREAM_ACCEL_NOISE,
         noise.accel_noise_psd),
    ):
        steps = np.sqrt(walk_psd * imu.dt)[:, None] * draws(walk, n)
        series = np.vstack([b0, b0 + np.cumsum(steps[:-1], axis=0)])
        measured.append(true + series + np.sqrt(white_psd / imu.dt)[:, None] * draws(white, n))
        bias.append(series)
    idx = np.arange(10, 201, 10)  # 10 Hz on the 100 Hz grid
    v = np.zeros((len(idx), 3))
    v[:, 0] = matvec(transpose(tr.C_b_w[idx]), tr.v_wb_w[idx])[:, 0]
    v = v + matvec(np.linalg.cholesky(noise.odo_noise_cov), draws(STREAM_ODOMETER, len(idx)))
    xi0 = sigma0[:9] * draws(STREAM_INIT_STATE, 3).ravel()

    got_hat0, got_imu, got_bias, (got_idx, got_v), got_xi0 = sim._run_inputs(cfg, tr, imu, k)
    assert np.array_equal(got_hat0, hat0)
    assert np.array_equal(got_imu.omega_ib_b, measured[0]) and np.array_equal(got_imu.f_ib_b, measured[1])
    assert np.array_equal(got_imu.dt, imu.dt)
    assert np.array_equal(got_bias, np.hstack(bias))
    assert np.array_equal(got_idx, idx) and np.array_equal(got_v, v)
    assert np.array_equal(got_xi0, xi0)
    if not bias_known:  # array_equal does not tell -0.0 from +0.0: a -0.0 nominal is a +0.0 true bias
        assert got_bias[0, 1] == 0.0 and not np.signbit(got_bias[0, 1])


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


def test_autonomy_left_start_error_is_xi0_in_the_filters_chart(monkeypatch):
    # xi0 means what navkit run's xi0 means: the start error's coordinates
    # in the filter's chart (error_to_vector, which flips phi in the left
    # convention) are xi0, not those of the raw log.
    real, etas = sim.error_from_states, []
    monkeypatch.setattr(sim, "error_from_states", lambda *args: etas.append(real(*args)) or etas[-1])
    short = TrajectorySpec((Rest(0.1),), 100.0)
    variant = ModelVariant(Frame.W, Grouping.PROPOSED)
    res = autonomy_experiment(variant, ErrorConvention.LEFT, short, short, XI0, UNIFORM)
    start = SE23.packed(etas[0].K[0])  # epoch 0 of both trajectories
    assert np.allclose(error_to_vector(start, ErrorConvention.LEFT).as_vector(), XI0, rtol=1e-12, atol=1e-12)
    assert np.allclose(res.xi_a[0], XI0, rtol=1e-12, atol=1e-12)


def test_shared_epochs_agree_with_the_whole_grids():
    # _shared_epochs reads two epochs of each grid, so resolve forms no
    # grid; the whole grids compared epoch by epoch are its reference.
    rng = np.random.default_rng(3)
    for _ in range(400):
        rate_a = rng.choice([10.0, 33.3, 99.5, 100.0, 200.0])
        rate_b = rate_a if rng.random() < 0.7 else rng.choice([rate_a * (1 + 1e-13), 10.0, 99.5, 100.0, 200.0])
        a, b = (TrajectorySpec((Rest(float(np.round(rng.uniform(0.1, 3.0), rng.integers(1, 5)))),), rate)
                for rate in (rate_a, rate_b))
        t_a, t_b = gen_truth(a, EARTH, GRAV, WORLD).t, gen_truth(b, EARTH, GRAV, WORLD).t
        m = min(len(t_a), len(t_b))
        if np.any(np.abs(t_a[:m] - t_b[:m]) > 1e-9):
            with pytest.raises(SpecInvalid, match="must share their time grid"):
                sim._shared_epochs(a, b)
        else:
            assert sim._shared_epochs(a, b) == m


def _scalar_twin_logs(variant, conv, traj, traj_a, xi0, settings):
    """One trajectory's error logs from a per-flow loop of scalar steps:
    the twins start on traj and are driven by its inputs in the right
    convention and by trajectory a's in the left one."""
    world = ned_world(settings.origin_e, settings.earth)
    truth_w = gen_truth(traj, settings.earth, settings.gravity, world)
    driver = truth_w if conv is ErrorConvention.RIGHT else gen_truth(traj_a, settings.earth, settings.gravity, world)
    trip = physical_from_nav(truth_w.state(0), settings.earth, world, 0.0)
    truth = nav_from_physical(variant.frame, variant.grouping, *trip, settings.earth, world, t=0.0)
    est = apply_correction(truth, TangentVector.from_vector(-xi0), conv)  # navkit run's start: chart error xi0
    logs = [error_to_vector(error_from_states(truth, est, conv), conv).as_vector()]
    model = NavModel.of(truth, settings.earth, settings.gravity, world)
    stack = inverse_imu(driver, settings.earth, settings.gravity, world)
    for omega, f, dt in zip(stack.omega_ib_b, stack.f_ib_b, stack.dt.tolist()):
        imu = ImuSample(omega, f, dt)
        imu_est = ImuSample(omega + settings.gyro_input_error, f + settings.accel_input_error, dt)
        truth = step(truth, imu, model, method=settings.integrator)
        est = step(est, imu_est, model, method=settings.integrator)
        logs.append(error_to_vector(error_from_states(truth, est, conv), conv).as_vector())
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
        ref = _scalar_twin_logs(variant, conv, traj, traj_a, XI0, settings)
        assert np.allclose(xi, ref, rtol=1e-12, atol=1e-13)


@pytest.mark.parametrize("variant", CRITERION_5_VARIANTS, ids=lambda v: v.name)
def test_autonomy_grade_agrees_across_conventions(variant):
    # 5 s of rest against a 30 m/s straight under uniform gravity: both
    # conventions grade alike, and a perfect grade reads at integration
    # noise in both (left twins driven by different inputs read 7.5e-4).
    rest, fast = TrajectorySpec((Rest(5.0),), 100.0), TrajectorySpec((Straight(5.0, 30.0),), 100.0)
    right, left = (autonomy_experiment(variant, conv, rest, fast, XI0, UNIFORM) for conv in ErrorConvention)
    assert left.classification is right.classification
    for res in (right, left):
        if res.classification.value == "perfect":
            assert res.divergence_metric < 1e-9


@pytest.mark.parametrize("variant", CRITERION_5_VARIANTS, ids=lambda v: v.name)
def test_autonomy_left_input_errors_keep_the_grade(variant):
    # Input errors make the right flow depend on the estimate's pose; the
    # left flow depends on the inputs alone, which its twins share.
    rest, fast = TrajectorySpec((Rest(5.0),), 100.0), TrajectorySpec((Straight(5.0, 30.0),), 100.0)
    settings = replace(UNIFORM, gyro_input_error=np.array([1e-5, -2e-5, 3e-5]),
                       accel_input_error=np.array([1e-3, 2e-3, -1e-3]))
    right, left = (autonomy_experiment(variant, conv, rest, fast, XI0, settings) for conv in ErrorConvention)
    weak = variant.grouping is Grouping.TRADITIONAL and variant.frame is not Frame.I
    assert right.classification.value == ("weak" if weak else "approximate")
    assert left.classification.value == ("weak" if weak else "perfect")
    if not weak:
        assert left.divergence_metric < 1e-9 < right.divergence_metric


def test_autonomy_unequal_durations_share_the_common_epochs():
    traj_a = TrajectorySpec((Rest(2.0),), 100.0)
    traj_b = TrajectorySpec((Straight(1.0, 30.0),), 100.0)
    variant = ModelVariant(Frame.E, Grouping.PROPOSED)
    res = autonomy_experiment(variant, ErrorConvention.RIGHT, traj_a, traj_b, XI0, UNIFORM)
    assert res.t.shape == (101,) and res.xi_a.shape == res.xi_b.shape == (101, 9)
    assert res.t[-1] == pytest.approx(1.0, abs=1e-12)
    ref = _scalar_twin_logs(variant, ErrorConvention.RIGHT, traj_a, traj_a, XI0, UNIFORM)
    assert np.allclose(res.xi_a, ref[:101], rtol=1e-12, atol=1e-13)


@pytest.mark.parametrize("frame,grouping", list(itertools.product(Frame, Grouping)), ids=lambda c: c.value)
def test_log_linear_property_holds_exactly_where_not_weak(frame, grouping):
    # Log-linearity (Barrau and Bonnabel, "The invariant extended Kalman
    # filter as a stable observer", IEEE TAC 2017, Theorem 2): in a
    # group-affine model the right error's log obeys xi' = A xi exactly, so
    # a large xi0 flows to expm(A t) xi0, A being F's navigation block.  A
    # Coriolis-fold model misses by O(|xi0|^2).  F's navigation block does
    # not read the inputs in the right convention, so a zero sample serves.
    from scipy.linalg import expm

    xi0 = np.array([0.3, -0.2, 0.1, 10.0, -5.0, 3.0, 100.0, -50.0, 30.0])
    traj = TrajectorySpec((Straight(5.0, 30.0), Turn(5.0, 0.1, 30.0)), 100.0)
    res = autonomy_experiment(ModelVariant(frame, grouping), ErrorConvention.RIGHT, traj, traj, xi0, UNIFORM)
    truth_w = gen_truth(traj, EARTH, UNIFORM.gravity, WORLD)
    start = nav_from_physical(frame, grouping, *physical_from_nav(truth_w.state(0), EARTH, WORLD, 0.0),
                              EARTH, WORLD, t=0.0)
    model = NavModel.of(start, EARTH, UNIFORM.gravity, WORLD)
    F, _ = linearized_F_G(ErrorConvention.RIGHT, start, ImuSample(np.zeros(3), np.zeros(3), 0.01), model)
    flow = np.stack([expm(F[:9, :9] * t) @ xi0 for t in res.t])
    miss = np.max(np.linalg.norm(flow - res.xi_a, axis=1))
    fold = grouping is Grouping.TRADITIONAL and frame is not Frame.I
    assert res.classification.value == ("weak" if fold else "perfect")
    if fold:
        assert miss >= 1e-4, miss
    else:
        assert miss <= 1e-9, miss


def test_autonomy_log_error_names_trajectory_and_epoch():
    xi0 = XI0.copy()
    xi0[0:3] = [np.pi - 1e-7, 0.0, 0.0]
    with pytest.raises(AngleAtPi, match=r"^trajectory a, t=0\.000 s: ") as info:
        autonomy_experiment(ModelVariant(Frame.I, Grouping.TRADITIONAL), ErrorConvention.RIGHT,
                            REST20, FAST20, xi0, UNIFORM)
    assert info.value.element == 0


def test_autonomy_log_error_in_a_later_block_names_trajectory_and_epoch(monkeypatch):
    # The error logs run a block of epochs at a time, _GRID_BLOCK elements
    # of the (m, 2) stack: element 3 of the second (8, 2) block is flat
    # element 19, epoch 9 of trajectory b.
    monkeypatch.setattr(sim, "_GRID_BLOCK", 16)
    real_log, calls = sim.error_to_vector, []

    def failing_in_second_block(eta, conv):
        calls.append(1)
        if len(calls) == 2:
            raise AngleAtPi("element 3 of the stack: planted", element=3)
        return real_log(eta, conv)

    monkeypatch.setattr(sim, "error_to_vector", failing_in_second_block)
    with pytest.raises(AngleAtPi, match=r"^trajectory b, t=0\.090 s: element 3 of the stack") as info:
        autonomy_experiment(ModelVariant(Frame.I, Grouping.TRADITIONAL), ErrorConvention.RIGHT,
                            REST20, FAST20, XI0, UNIFORM)
    assert info.value.element == 19


@pytest.mark.parametrize("integrator", ["rk4", "midpoint"])
@pytest.mark.parametrize("conv", ErrorConvention, ids=lambda c: c.value)
def test_autonomy_flows_do_not_depend_on_the_block(conv, integrator, monkeypatch):
    # The flows run one integrate call per block of intervals, each from
    # the last epoch of the one before: 2 s at 100 Hz in blocks of 7
    # intervals is 29 calls, bit for bit the one call of a single block.
    variant = ModelVariant(Frame.W, Grouping.PROPOSED)
    traj_a, traj_b = TrajectorySpec((Rest(2.0),), 100.0), TrajectorySpec((Straight(2.0, 30.0),), 100.0)
    settings = replace(UNIFORM, integrator=integrator, gyro_input_error=np.array([1e-5, -2e-5, 3e-5]))
    whole = autonomy_experiment(variant, conv, traj_a, traj_b, XI0, settings)
    real_integrate, calls = sim.integrate, []
    monkeypatch.setattr(sim, "integrate", lambda *args, **kw: calls.append(1) or real_integrate(*args, **kw))
    monkeypatch.setattr(sim, "_GRID_BLOCK", 7)
    blocked = autonomy_experiment(variant, conv, traj_a, traj_b, XI0, settings)
    assert len(calls) == 29
    assert whole.xi_a.tobytes() == blocked.xi_a.tobytes()
    assert whole.xi_b.tobytes() == blocked.xi_b.tobytes()
    # The metric is a running max over the blocks: the max over the whole grid.
    assert blocked.divergence_metric == whole.divergence_metric
    assert whole.divergence_metric == float(np.max(np.linalg.norm(whole.xi_a - whole.xi_b, axis=1)))


def test_autonomy_flow_error_in_a_later_block_names_trajectory_and_epoch(monkeypatch):
    # integrate names element l*4 + i of a block's (L, 2, 2) stack; in the
    # second block of 7 intervals, element 5 is sample 1, trajectory b,
    # so the flows fail on their way to epoch 7 + 1 + 1 = 9.
    monkeypatch.setattr(sim, "_GRID_BLOCK", 7)
    real_integrate, calls = sim.integrate, []

    def failing_in_second_block(*args, **kw):
        calls.append(1)
        if len(calls) == 2:
            raise SingularRadius("element 5 of the stack: planted", element=5)
        return real_integrate(*args, **kw)

    monkeypatch.setattr(sim, "integrate", failing_in_second_block)
    with pytest.raises(SingularRadius, match=r"^trajectory b, t=0\.090 s: element 5 of the stack") as info:
        autonomy_experiment(ModelVariant(Frame.I, Grouping.TRADITIONAL), ErrorConvention.RIGHT,
                            REST20, FAST20, XI0, UNIFORM)
    assert info.value.element == 33


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
