"""Filter building blocks: H oracle, covariance propagation, Joseph update."""
from __future__ import annotations

from dataclasses import replace

import numpy as np
import pytest

from navkit import (
    CovarianceNotPSD,
    EarthParams,
    ErrorConvention,
    FilterState,
    Frame,
    Grouping,
    ImuSample,
    NavModel,
    NoiseConfig,
    NonFiniteInnovation,
    OdoSample,
    SingularInnovation,
    SphericalGravity,
    TangentVector,
    UniformGravity,
    apply_correction,
    body_velocity,
    check_covariance,
    earth_rate,
    fuse,
    linearized_F_G,
    make_nav_state,
    odo_H,
    predict,
    skew,
    step,
)
from conftest import random_nav_state, random_rotation, wander

ALL_COMBOS = [
    (Frame.I, Grouping.TRADITIONAL),
    (Frame.I, Grouping.PROPOSED),
    (Frame.E, Grouping.TRADITIONAL),
    (Frame.E, Grouping.PROPOSED),
    (Frame.W, Grouping.TRADITIONAL),
    (Frame.W, Grouping.PROPOSED),
]
CONVS = [ErrorConvention.RIGHT, ErrorConvention.LEFT]


def test_noise_config_validation():
    with pytest.raises(ValueError):
        NoiseConfig(gyro_noise_psd=-1.0)
    with pytest.raises(ValueError):
        NoiseConfig(odo_noise_cov=np.array([[1.0, 0.5, 0], [0, 1, 0], [0, 0, 1]]))
    with pytest.raises(ValueError):
        NoiseConfig(odo_noise_cov=-np.eye(3))
    n = NoiseConfig()
    assert np.allclose(n.input_psd(), np.diag([n.gyro_noise_psd] * 3 + [n.accel_noise_psd] * 3))


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_noise_config_refuses_non_finite_values(bad):
    for name in ("gyro_noise_psd", "accel_noise_psd", "gyro_bias_rw_psd", "accel_bias_rw_psd"):
        with pytest.raises(ValueError, match=f"{name} must be finite"):
            NoiseConfig(**{name: bad})
    with pytest.raises(ValueError, match="odo_noise_cov must be finite"):
        NoiseConfig(odo_noise_cov=np.diag([1e-4, bad, 1e-4]))


def numerical_H(est, conv, earth, world):
    """Central-difference columns of the innovation w.r.t. the error chart."""
    eps = [1e-6] * 3 + [1e-5] * 3 + [1e-4] * 3
    cols = []
    for k in range(9):
        xi = np.zeros(9)
        xi[k] = eps[k]
        plus = body_velocity(apply_correction(est, TangentVector.from_vector(xi), conv), earth, world)
        minus = body_velocity(apply_correction(est, TangentVector.from_vector(-xi), conv), earth, world)
        # innovation = vb(est) - vb(truth), so the column carries a minus.
        cols.append((minus - plus) / (2.0 * eps[k]))
    return np.column_stack(cols)


@pytest.mark.parametrize("conv", CONVS, ids=lambda c: c.value)
@pytest.mark.parametrize("frame,grouping", ALL_COMBOS, ids=lambda c: getattr(c, "value", c))
def test_H_perturbation_oracle(frame, grouping, conv, earth, world):
    rng = np.random.default_rng(70)
    for _ in range(10):
        est = wander(random_nav_state(rng, frame, grouping, earth, world), rng)
        H, vb = odo_H(conv, est, NavModel.of(est, earth, world=world))
        assert np.allclose(vb, body_velocity(est, earth, world))
        Hn = numerical_H(est, conv, earth, world)
        scale = max(1.0, np.linalg.norm(H[:, 0:9]))
        assert np.linalg.norm(Hn - H[:, 0:9]) < 1e-5 * scale
        assert np.allclose(H[:, 9:15], 0.0)


def test_H_printed_forms(earth, world):
    rng = np.random.default_rng(71)
    # Left convention, traditional e-frame, at rest: innovation blind to
    # attitude, velocity block -I.
    st = make_nav_state(Frame.E, Grouping.TRADITIONAL, random_rotation(rng), np.zeros(3), world.r_ew_e.copy(), earth, world)
    H, vb = odo_H(ErrorConvention.LEFT, st, NavModel.of(st, earth, world=world))
    assert np.allclose(vb, 0.0)
    assert np.allclose(H[:, 0:3], 0.0)
    assert np.allclose(H[:, 3:6], -np.eye(3))
    assert np.allclose(H[:, 6:9], 0.0)

    # Right convention, proposed e-frame, at the anchor (p = 0):
    # [0, -C^T, C^T (omega x)].
    C = random_rotation(rng)
    st = make_nav_state(Frame.E, Grouping.PROPOSED, C, rng.normal(size=3), world.r_ew_e.copy(), earth, world)
    H, _ = odo_H(ErrorConvention.RIGHT, st, NavModel.of(st, earth, world=world))
    Om = skew(earth_rate("e", earth))
    assert np.allclose(H[:, 0:3], 0.0)
    assert np.allclose(H[:, 3:6], -C.T)
    assert np.allclose(H[:, 6:9], C.T @ Om)


def _static_filter(conv=ErrorConvention.RIGHT):
    earth = EarthParams()
    nav = make_nav_state(Frame.I, Grouping.TRADITIONAL, random_rotation(np.random.default_rng(72)), np.zeros(3), np.zeros(3), earth)
    fs = FilterState(
        nav=nav,
        bias=np.zeros(6),
        P=np.zeros((15, 15)),
        conv=conv,
        model=NavModel.of(nav, earth, UniformGravity(np.zeros(3))),
        t=0.0,
    )
    return fs


def _series(imu):
    """imu as the one-sample interval predict takes: omega and f (1, ..., 3), dt (1,)."""
    return ImuSample(imu.omega_ib_b[None], imu.f_ib_b[None], np.array([imu.dt]))


def test_predict_zero_noise_tracks_truth(earth, world):
    rng = np.random.default_rng(73)
    nav = random_nav_state(rng, Frame.E, Grouping.PROPOSED, earth, world)
    noise = NoiseConfig(gyro_noise_psd=0.0, accel_noise_psd=0.0, gyro_bias_rw_psd=0.0, accel_bias_rw_psd=0.0)
    model = NavModel.of(nav, earth, SphericalGravity(), world)
    fs = FilterState(nav, np.zeros(6), np.zeros((15, 15)), ErrorConvention.RIGHT, model, 0.0)
    truth = nav
    imu = ImuSample(np.array([0.02, -0.01, 0.05]), np.array([0.5, -0.2, 9.7]), 0.01)
    for _ in range(200):
        fs = predict(fs, _series(imu), noise)
        truth = step(truth, imu, model, method="midpoint")
    assert np.allclose(fs.nav.x.as_matrix(), truth.x.as_matrix(), atol=1e-12)
    assert np.abs(fs.P).max() == 0.0
    assert np.isclose(fs.t, 2.0)


@pytest.mark.parametrize("n", [None, 1, 3], ids=["single", "n1", "n3"])
@pytest.mark.parametrize("conv", CONVS, ids=lambda c: c.value)
@pytest.mark.parametrize("method", ["midpoint", "rk4"])
@pytest.mark.parametrize("frame,grouping", ALL_COMBOS, ids=lambda c: getattr(c, "value", c))
def test_interval_predict_matches_chained_one_sample_predicts(frame, grouping, method, conv, n, earth, world):
    # Over an interval of 0.1287 s, the covariance of an interval's predict
    # is that of predicts chained over its two sub-steps, the first seven
    # samples and the last seven, and so is the midpoint rule's pose, which
    # linearizes gravity once per sub-step; rk4's pose, the bias and the
    # clock are those of its one-sample predicts chained.
    from navkit import SE23

    rng = np.random.default_rng(81)
    shape = () if n is None else (n,)
    base = random_nav_state(rng, frame, grouping, earth, world)
    # n estimates of one anchored run (a single one without the run axis)
    xs = [wander(base, rng).x for _ in range(n or 1)]
    K = np.stack([x.K for x in xs]) if n else xs[0].K
    model = NavModel.of(base, earth, SphericalGravity(), world)
    A = rng.normal(size=(*shape, 15, 15))
    fs = FilterState(replace(base, x=SE23.packed(K)), rng.normal(scale=1e-4, size=(*shape, 6)),
                     A @ np.swapaxes(A, -1, -2) * 1e-4, conv, model, 0.25)
    dt = np.array([0.01] * 12 + [0.0037, 0.005])
    L = len(dt)
    om, f = rng.normal(scale=0.2, size=(L, *shape, 3)), rng.normal(scale=3.0, size=(L, *shape, 3))
    noise = NoiseConfig()

    def chained(bounds):
        ref = fs
        for b, e in zip(bounds[:-1], bounds[1:]):
            ref = predict(ref, ImuSample(om[b:e], f[b:e], dt[b:e]), noise, method=method)
        return ref

    out = predict(fs, ImuSample(om, f, dt), noise, method=method)
    ref, sub = chained(range(L + 1)), chained([0, 7, L])
    assert np.array_equal(out.nav.x.K, (sub if method == "midpoint" else ref).nav.x.K)
    assert np.array_equal(out.bias, ref.bias)
    assert out.t == ref.t
    assert np.array_equal(out.P, sub.P)


@pytest.mark.parametrize(
    "dt,bounds",
    [
        (np.full(10, 0.01), [0, 10]),
        (np.full(25, 0.01), [0, 8, 16, 25]),
        # 0.1507 s, whose two halves would last 0.0407 and 0.11 s: three
        # sub-steps of near-equal sample count keep each within 0.1 s.
        (np.array([0.0037] * 11 + [0.01] * 11), [0, 7, 14, 22]),
    ],
    ids=["10Hz-odometer", "0.25s", "capped"],
)
def test_an_interval_linearizes_its_sub_steps_once(dt, bounds, earth, world, monkeypatch):
    # One linearized_F_G call per interval, on an (n_sub, N) stack, and the
    # result bit for bit the predicts chained over the sub-steps.
    import navkit.lgekf as lgekf
    from navkit import SE23

    rng = np.random.default_rng(85)
    base = random_nav_state(rng, Frame.W, Grouping.PROPOSED, earth, world)
    model = NavModel.of(base, earth, SphericalGravity(), world)
    n, L = 4, len(dt)
    A = rng.normal(size=(n, 15, 15))
    fs = FilterState(replace(base, x=SE23.packed(np.stack([wander(base, rng).x.K for _ in range(n)]))),
                     rng.normal(scale=1e-4, size=(n, 6)), A @ np.swapaxes(A, -1, -2) * 1e-4,
                     ErrorConvention.LEFT, model, 0.0)
    om, f = rng.normal(scale=0.2, size=(L, n, 3)), rng.normal(scale=3.0, size=(L, n, 3))
    noise = NoiseConfig()
    shapes, real = [], lgekf.linearized_F_G

    def counted(conv, est, imu, model, **kw):
        shapes.append(est.x.K.shape)
        return real(conv, est, imu, model, **kw)

    monkeypatch.setattr(lgekf, "linearized_F_G", counted)
    out = predict(fs, ImuSample(om, f, dt), noise)
    assert shapes == [(len(bounds) - 1, n, 3, 5)]
    ref = fs
    for b, e in zip(bounds[:-1], bounds[1:]):
        ref = predict(ref, ImuSample(om[b:e], f[b:e], dt[b:e]), noise)
    assert np.array_equal(out.nav.x.K, ref.nav.x.K) and np.array_equal(out.P, ref.P)
    assert out.t == ref.t


@pytest.mark.parametrize("n", [1, 8])
@pytest.mark.parametrize("conv", CONVS, ids=lambda c: c.value)
@pytest.mark.parametrize("method", ["midpoint", "rk4"])
def test_predict_matches_the_dense_formulas(method, conv, n, earth, world):
    # predict forms Phi from F's nine navigation rows and Phi^T once per
    # sub-step; P must be bit for bit that of the interval rule written out
    # densely: 25 samples of 10 ms are three sub-steps, [0, 8), [8, 16) and
    # [16, 25), each with a dense 15x15 Phi and a dense D/2 G Q G^T at its
    # middle sample's pre-sample estimate and input, D its length.
    import math

    from navkit import SE23, integrate

    rng = np.random.default_rng(82)
    base = random_nav_state(rng, Frame.W, Grouping.PROPOSED, earth, world)
    model = NavModel.of(base, earth, SphericalGravity(), world)
    A = rng.normal(size=(n, 15, 15))
    fs = FilterState(replace(base, x=SE23.packed(np.stack([wander(base, rng).x.K for _ in range(n)]))),
                     rng.normal(scale=1e-4, size=(n, 6)), A @ np.swapaxes(A, -1, -2) * 1e-4, conv, model, 0.0)
    L = 25
    dt = np.full(L, 0.01)
    om, f = rng.normal(scale=0.2, size=(L, n, 3)), rng.normal(scale=3.0, size=(L, n, 3))
    noise = NoiseConfig()
    out = predict(fs, ImuSample(om, f, dt), noise, method=method)

    corrected = ImuSample(om - fs.bias[:, 0:3], f - fs.bias[:, 3:6], dt)
    blocks = integrate(fs.nav, corrected, model, method=method)
    P = fs.P
    for b, e in ((0, 8), (8, 16), (16, 25)):
        m, D = (b + e) // 2, math.fsum(dt[b:e])
        at_m = ImuSample(corrected.omega_ib_b[m], corrected.f_ib_b[m], dt[m])
        F, G = linearized_F_G(conv, replace(fs.nav, x=SE23.packed(blocks[m])), at_m, model)
        assert F.shape == (n, 15, 15) and G.shape == (n, 15, 6)
        FD = F * D
        Phi = np.eye(15) + FD + 0.5 * (FD @ FD)
        half_M = 0.5 * D * (G @ noise.input_psd() @ np.swapaxes(G, -1, -2))
        P = Phi @ (P + half_M) @ np.swapaxes(Phi, -1, -2) + (half_M + noise.bias_walk_psd() * D)
        P = 0.5 * (P + np.swapaxes(P, -1, -2))
    assert np.array_equal(out.nav.x.K, blocks[-1])
    assert np.array_equal(out.P, P)


@pytest.mark.parametrize("conv", CONVS, ids=lambda c: c.value)
@pytest.mark.parametrize("frame,grouping", [(Frame.W, Grouping.PROPOSED), (Frame.E, Grouping.TRADITIONAL)],
                         ids=["proposed-w", "traditional-e"])
def test_interval_phi_matches_the_finite_difference_jacobian(frame, grouping, conv, earth, world):
    # Phi of one sub-step against the Jacobian of the interval map it stands
    # for: the true state is the estimate moved along one of the 15 error
    # directions (apply_correction for the pose; the bias error is
    # b_hat - b), both integrate the interval's 10 samples under constant
    # inputs, and the error between them at its end is taken with
    # error_from_states.  Central differences give each column.  Phi is read
    # off predict: with no noise and P = e_j e_j^T, P+ = Phi_j Phi_j^T, whose
    # column j over sqrt(P+_jj) is Phi's column j (Phi_jj is near 1).  The
    # difference falls as D^3 over D = 0.1, 0.05 and 0.025 s, for the
    # Coriolis-fold model and the model without it.
    from navkit import SE23, error_from_states, error_to_vector, integrate

    rng = np.random.default_rng(84)
    base = random_nav_state(rng, frame, grouping, earth, world)
    model = NavModel.of(base, earth, SphericalGravity(), world)
    nav, bias = wander(base, rng), rng.normal(scale=1e-3, size=6)
    om = rng.normal(scale=0.3, size=3)
    f = rng.normal(scale=3.0, size=3) - nav.x.R.T @ np.array([0.0, 0.0, 9.8])
    eps = np.array([1e-6] * 3 + [1e-4] * 3 + [1e-3] * 3 + [1e-6] * 6)
    E = np.eye(15)
    still = NoiseConfig(gyro_noise_psd=0.0, accel_noise_psd=0.0, gyro_bias_rw_psd=0.0, accel_bias_rw_psd=0.0)

    def end(nav0, b, dt):
        L = len(dt)
        imu = ImuSample(np.tile(om - b[:3], (L, 1)), np.tile(f - b[3:], (L, 1)), dt)
        return replace(nav0, x=SE23.packed(integrate(nav0, imu, model)[-1]))

    errors = []
    for D in (0.1, 0.05, 0.025):
        dt = np.full(10, D / 10)
        est = end(nav, bias, dt)
        J = np.empty((9, 15))
        for j in range(15):
            xi = []
            for e in (eps[j] * E[j], -eps[j] * E[j]):
                true = end(apply_correction(nav, TangentVector.from_vector(e[:9]), conv), bias - e[9:], dt)
                xi.append(error_to_vector(error_from_states(true, est, conv), conv).as_vector())
            J[:, j] = (xi[0] - xi[1]) / (2 * eps[j])
        batch = FilterState(replace(nav, x=SE23.packed(np.broadcast_to(nav.x.K, (15, 3, 5)).copy())),
                            np.tile(bias, (15, 1)), E[:, :, None] * E[:, None, :], conv, model, 0.0)
        imu = ImuSample(np.broadcast_to(om, (10, 15, 3)), np.broadcast_to(f, (10, 15, 3)), dt)
        P = predict(batch, imu, still).P
        j = np.arange(15)
        Phi = (P[j, :, j] / np.sqrt(P[j, j, j])[:, None]).T
        errors.append(np.abs(Phi[:9] - J).max())
    assert errors[0] < 1e-2
    for coarse, fine in zip(errors, errors[1:]):
        assert 6.0 < coarse / fine < 10.0, errors


@pytest.mark.parametrize("conv", CONVS, ids=lambda c: c.value)
def test_predict_buffers_do_not_leak_between_calls(conv, earth, world):
    # One buffers dict serves batches of 3 and then 5 runs, and intervals of
    # 10 and then 7 samples: each call must equal a call on fresh arrays bit
    # for bit, and no state returned earlier may change after a later call.
    from navkit import SE23

    rng = np.random.default_rng(83)
    base = random_nav_state(rng, Frame.W, Grouping.PROPOSED, earth, world)
    model = NavModel.of(base, earth, SphericalGravity(), world)
    noise = NoiseConfig()
    buffers, kept = {}, []
    for n, L in ((3, 10), (5, 10), (5, 7), (3, 7), (3, 10)):
        A = rng.normal(size=(n, 15, 15))
        fs = FilterState(replace(base, x=SE23.packed(np.stack([wander(base, rng).x.K for _ in range(n)]))),
                         rng.normal(scale=1e-4, size=(n, 6)), A @ np.swapaxes(A, -1, -2) * 1e-4, conv, model, 0.5)
        imu = ImuSample(rng.normal(scale=0.2, size=(L, n, 3)), rng.normal(scale=3.0, size=(L, n, 3)), np.full(L, 0.01))
        out = predict(fs, imu, noise, buffers=buffers)
        fresh = predict(fs, imu, noise)
        assert np.array_equal(out.nav.x.K, fresh.nav.x.K) and np.array_equal(out.P, fresh.P), (n, L)
        assert np.array_equal(out.bias, fresh.bias) and out.t == fresh.t
        assert not any(np.shares_memory(a, buf) for a in (out.P, out.nav.x.K, out.bias) for buf in buffers.values())
        kept.append((out, out.nav.x.K.copy(), out.P.copy()))
    for out, K, P in kept:
        assert np.array_equal(out.nav.x.K, K) and np.array_equal(out.P, P)


def test_predict_attitude_random_walk():
    fs = _static_filter()
    psd = 4e-8
    noise = NoiseConfig(gyro_noise_psd=psd, accel_noise_psd=0.0, gyro_bias_rw_psd=0.0, accel_bias_rw_psd=0.0)
    imu = ImuSample(np.zeros(3), np.zeros(3), 0.01)
    for _ in range(1000):
        fs = predict(fs, _series(imu), noise)
    t = 10.0
    for k in range(3):
        assert abs(fs.P[k, k] - psd * t) < 0.05 * psd * t


def test_phi_truncation_third_order(earth, world):
    from scipy.linalg import expm

    rng = np.random.default_rng(74)
    nav = wander(random_nav_state(rng, Frame.E, Grouping.TRADITIONAL, earth, world), rng)
    imu = ImuSample(rng.normal(scale=0.2, size=3), rng.normal(scale=3.0, size=3), 0.01)
    F, _ = linearized_F_G(ErrorConvention.RIGHT, nav, imu, NavModel.of(nav, earth, SphericalGravity(), world))

    def trunc_err(dt):
        Fdt = F * dt
        Phi = np.eye(15) + Fdt + 0.5 * Fdt @ Fdt
        return np.linalg.norm(Phi - expm(Fdt))

    ratio = trunc_err(0.01) / trunc_err(0.005)
    assert 6.0 < ratio < 10.0


def _surface_filter(earth, world, conv, P0=None):
    rng = np.random.default_rng(75)
    nav = make_nav_state(Frame.E, Grouping.TRADITIONAL, np.eye(3), np.array([5.0, 1.0, 0.0]), world.r_ew_e.copy(), earth, world)
    P = np.zeros((15, 15)) if P0 is None else P0
    return FilterState(nav, np.zeros(6), P, conv, NavModel.of(nav, earth, SphericalGravity(), world), 0.0)


def test_update_scalar_gain(earth, world):
    P0 = np.zeros((15, 15))
    P0[3:6, 3:6] = 2.0 * np.eye(3)
    fs = _surface_filter(earth, world, ErrorConvention.RIGHT, P0)
    noise = NoiseConfig(odo_noise_cov=np.eye(3))
    vb = fs.nav.x.v.copy()  # C = I so body velocity is the frame velocity
    z = OdoSample(vb - np.array([1.0, 0.0, 0.0]), t=0.0)
    out = fuse(fs, z, noise)[0]
    # Kalman gain p/(p+r) = 2/3 on each axis; posterior pr/(p+r) = 2/3.
    assert np.allclose(out.nav.x.v, vb - np.array([2.0 / 3.0, 0.0, 0.0]), atol=1e-12)
    assert abs(out.P[3, 3] - 2.0 / 3.0) < 1e-12
    assert np.allclose(out.nav.x.R, fs.nav.x.R, atol=1e-12)


@pytest.mark.parametrize("conv", CONVS, ids=lambda c: c.value)
def test_update_zero_innovation_no_op(conv, earth, world):
    rng = np.random.default_rng(76)
    A = rng.normal(size=(15, 15))
    P0 = A @ A.T * 1e-4
    nav = random_nav_state(rng, Frame.W, Grouping.PROPOSED, earth, world)
    fs = FilterState(nav, np.zeros(6), P0, conv, NavModel.of(nav, earth, SphericalGravity(), world), 0.0)
    noise = NoiseConfig()
    _, vb = odo_H(conv, nav, fs.model)
    out = fuse(fs, OdoSample(vb.copy(), t=0.0), noise)[0]
    assert np.allclose(out.nav.x.as_matrix(), nav.x.as_matrix(), atol=1e-12)
    assert np.allclose(out.bias[0:3], 0.0) and np.allclose(out.bias[3:6], 0.0)
    assert np.trace(out.P) < np.trace(P0)
    check_covariance(out.P)


def test_update_joseph_keeps_psd(earth, world):
    rng = np.random.default_rng(77)
    noise = NoiseConfig()
    for _ in range(20):
        A = rng.normal(size=(15, 15))
        P0 = A @ A.T * 1e-3
        nav = wander(random_nav_state(rng, Frame.E, Grouping.PROPOSED, earth, world), rng)
        fs = FilterState(nav, np.zeros(6), P0, ErrorConvention.LEFT,
                         NavModel.of(nav, earth, SphericalGravity(), world), 0.0)
        _, vb = odo_H(fs.conv, nav, fs.model)
        z = OdoSample(vb + rng.normal(scale=0.1, size=3), t=0.0)
        out = fuse(fs, z, noise)[0]
        check_covariance(out.P)
        assert np.abs(out.P - out.P.T).max() < 1e-12


def test_update_gating_rejects_outlier(earth, world):
    P0 = np.eye(15) * 1e-6
    fs = _surface_filter(earth, world, ErrorConvention.RIGHT, P0)
    noise = NoiseConfig(odo_noise_cov=np.eye(3) * 1e-4)
    _, vb = odo_H(fs.conv, fs.nav, fs.model)
    z = OdoSample(vb + np.array([50.0, 0.0, 0.0]), t=0.0)
    out = fuse(fs, z, noise, gate_sigma=5.0)[0]
    assert out is fs  # rejected wholesale
    accepted = fuse(fs, z, noise)[0]
    assert not np.allclose(accepted.nav.x.v, fs.nav.x.v)


def test_update_time_alignment_guard(earth, world):
    fs = _surface_filter(earth, world, ErrorConvention.RIGHT)
    noise = NoiseConfig()
    with pytest.raises(ValueError):
        fuse(fs, OdoSample(np.zeros(3), t=0.5), noise)


def test_update_singular_innovation(earth, world):
    fs = _surface_filter(earth, world, ErrorConvention.RIGHT)  # P = 0
    noise = NoiseConfig(odo_noise_cov=np.diag([1e-4, 1e-4, 1e-320]))
    with pytest.raises(SingularInnovation):
        fuse(fs, OdoSample(fs.nav.x.v.copy(), t=0.0), noise)


def test_check_covariance_raises():
    P = np.eye(15)
    P[0, 1] = 1e-6  # asymmetric
    with pytest.raises(CovarianceNotPSD):
        check_covariance(P)
    P = -np.eye(15)
    with pytest.raises(CovarianceNotPSD):
        check_covariance(P)
    check_covariance(np.eye(15) * 1e-12)


def test_perfect_sensor_closed_loop_stays_put(earth, world):
    # With exact IMU, exact odometer and zero biases the closed loop must
    # not inject error.
    rng = np.random.default_rng(78)
    nav = make_nav_state(Frame.W, Grouping.PROPOSED, random_rotation(rng), np.array([10.0, 0.0, 0.0]), np.zeros(3), earth, world)
    model = NavModel.of(nav, earth, SphericalGravity(), world)
    truth = nav
    noise = NoiseConfig()
    fs = FilterState(nav, np.zeros(6), np.eye(15) * 1e-4, ErrorConvention.RIGHT, model, 0.0)
    imu = ImuSample(np.array([0.0, 0.0, 0.05]), np.array([0.3, 0.0, 9.8]), 0.01)
    for k in range(500):
        fs = predict(fs, _series(imu), noise)
        truth = step(truth, imu, model, method="midpoint")
        if (k + 1) % 10 == 0:
            vb = body_velocity(truth, earth, world)
            fs = fuse(fs, OdoSample(vb, t=fs.t), noise)[0]
    dv = fs.nav.x.v - truth.x.v
    dp = fs.nav.x.p - truth.x.p
    assert np.linalg.norm(dv) < 1e-6
    assert np.linalg.norm(dp) < 1e-5


# ---------------------------------------------------------------------------
# lock-step batches: one run per element of a leading axis


def _stack(fs, n):
    """n copies of a single filter as one lock-step batch."""
    from navkit import SE23, NavState

    def rep(a):
        return np.broadcast_to(a, (n,) + a.shape).copy()

    nav = NavState(fs.nav.frame, fs.nav.grouping, SE23(rep(fs.nav.x.R), rep(fs.nav.x.v), rep(fs.nav.x.p)),
                   fs.nav.r0, fs.nav.dv0)
    return FilterState(nav, rep(fs.bias), rep(fs.P), fs.conv, fs.model, fs.t)


def test_batched_update_gates_each_run(earth, world):
    P0 = np.eye(15) * 1e-6
    fs = _stack(_surface_filter(earth, world, ErrorConvention.RIGHT, P0), 2)
    noise = NoiseConfig(odo_noise_cov=np.eye(3) * 1e-4)
    _, vb = odo_H(fs.conv, fs.nav, fs.model)
    v = vb.copy()
    v[0, 0] += 50.0  # run 0 sees an outlier, run 1 a plausible sample
    v[1, 0] += 0.01
    out, innov, white, applied = fuse(fs, OdoSample(v, t=0.0), noise, gate_sigma=5.0)
    assert applied.tolist() == [False, True]
    assert np.array_equal(out.nav.x.v[0], fs.nav.x.v[0])
    assert np.array_equal(out.P[0], fs.P[0])
    assert not np.allclose(out.nav.x.v[1], fs.nav.x.v[1])
    assert np.allclose(innov, vb - v)
    # the run that applied its sample matches a filter of its own
    single = _surface_filter(earth, world, ErrorConvention.RIGHT, P0)
    alone = fuse(single, OdoSample(v[1], t=0.0), noise, gate_sigma=5.0)[0]
    assert np.allclose(out.nav.x.v[1], alone.nav.x.v, atol=1e-12)
    assert np.allclose(out.P[1], alone.P, atol=1e-15)


def test_batched_update_names_the_singular_run(earth, world):
    fs = _surface_filter(earth, world, ErrorConvention.RIGHT)  # P = 0
    noise = NoiseConfig(odo_noise_cov=np.diag([1e-4, 1e-4, 1e-320]))
    batch = _stack(fs, 3)
    with pytest.raises(SingularInnovation, match="^element 0 of the stack: innovation") as info:
        fuse(batch, OdoSample(batch.nav.x.v.copy(), t=0.0), noise)
    assert info.value.element == 0
    with pytest.raises(ValueError):
        fuse(batch, OdoSample(batch.nav.x.v.copy(), t=0.5), noise)


def test_fuse_names_the_run_with_a_non_finite_covariance(earth, world):
    batch = _stack(_surface_filter(earth, world, ErrorConvention.RIGHT, np.eye(15) * 1e-6), 2)
    P = batch.P.copy()
    P[1, 4, 4] = np.nan
    batch = replace(batch, P=P)
    with pytest.raises(NonFiniteInnovation, match="^element 1 of the stack: innovation covariance") as info:
        fuse(batch, OdoSample(batch.nav.x.v.copy(), t=0.0), NoiseConfig())
    assert info.value.element == 1


def test_check_covariance_names_the_bad_run():
    P = np.stack([np.eye(15), -np.eye(15), np.eye(15)])
    with pytest.raises(CovarianceNotPSD, match="^element 1 of the stack: covariance indefinite") as info:
        check_covariance(P)
    assert info.value.element == 1
    P = np.stack([np.eye(15), np.eye(15)])
    P[1, 0, 0] = np.nan
    with pytest.raises(CovarianceNotPSD, match="^element 1 of the stack: .*non-finite") as info:
        check_covariance(P)
    assert info.value.element == 1
    check_covariance(np.stack([np.eye(15)] * 2))


def test_check_covariance_accepts_what_cholesky_refuses():
    # Neither factors, so both reach the eigenvalue test, which accepts them.
    v = np.random.default_rng(82).normal(size=(15, 3))
    singular = v @ v.T  # rank 3: PSD with a twelve-dimensional null space
    indefinite = np.diag([1.0] * 14 + [-1e-10])  # -1e-10 is within -1e-9 * trace
    for P in (singular, indefinite):
        with pytest.raises(np.linalg.LinAlgError):
            np.linalg.cholesky(P)
        check_covariance(P)
        check_covariance(np.stack([np.eye(15), P]))


def test_batched_predict_matches_single_filters(earth, world):
    rng = np.random.default_rng(79)
    noise = NoiseConfig()
    navs, draws = [], []
    for _ in range(3):
        navs.append(random_nav_state(rng, Frame.E, Grouping.TRADITIONAL, earth, world))
        A = rng.normal(size=(15, 15))
        draws.append((rng.normal(scale=1e-5, size=3), rng.normal(scale=1e-4, size=3), A @ A.T * 1e-4))
    from navkit import SE23, NavState

    # random_nav_state anchors each state at its own position; share run 0's
    # anchor so the batch is one model.
    nav = NavState(Frame.E, Grouping.TRADITIONAL,
                   SE23(*(np.stack([getattr(n.x, k) for n in navs]) for k in "Rvp")), navs[0].r0, navs[0].dv0)
    model = NavModel.of(nav, earth, SphericalGravity(), world)
    singles = [FilterState(NavState(Frame.E, Grouping.TRADITIONAL, n.x, nav.r0, nav.dv0), np.concatenate([bg, ba]), P,
                           ErrorConvention.LEFT, model, 0.0) for n, (bg, ba, P) in zip(navs, draws)]
    batch = FilterState(nav, np.stack([s.bias for s in singles]),
                        np.stack([s.P for s in singles]), ErrorConvention.LEFT, model, 0.0)
    om = rng.normal(scale=0.1, size=(3, 3))
    f = rng.normal(scale=2.0, size=(3, 3))
    out = predict(batch, _series(ImuSample(om, f, 0.01)), noise, method="rk4")
    for i, s in enumerate(singles):
        ref = predict(s, _series(ImuSample(om[i], f[i], 0.01)), noise, method="rk4")
        assert np.allclose(out.nav.x.R[i], ref.nav.x.R, atol=1e-14)
        assert np.allclose(out.nav.x.p[i], ref.nav.x.p, atol=1e-9)
        assert np.allclose(out.P[i], ref.P, rtol=1e-12, atol=1e-18)
