"""Group error dynamics: exact ODEs, linearizations, autonomy classes."""
from __future__ import annotations

from dataclasses import replace

import numpy as np
import pytest

from navkit import (
    SE23,
    AutonomyClass,
    ErrorConvention,
    Frame,
    FrameMismatch,
    Grouping,
    ImuSample,
    ModelVariant,
    SphericalGravity,
    TangentVector,
    UniformGravity,
    apply_correction,
    classify_autonomy,
    derivative,
    earth_rate,
    error_from_states,
    error_to_vector,
    exact_error_derivative,
    gravitation,
    gravitation_gradient,
    linearized_F_G,
    make_nav_state,
    skew,
    step,
    vector_to_error,
)
from navkit.mechanization import NavState
from conftest import random_nav_state, random_rotation

ALL_COMBOS = [
    (Frame.I, Grouping.TRADITIONAL),
    (Frame.I, Grouping.PROPOSED),
    (Frame.E, Grouping.TRADITIONAL),
    (Frame.E, Grouping.PROPOSED),
    (Frame.W, Grouping.TRADITIONAL),
    (Frame.W, Grouping.PROPOSED),
]
CONVS = [ErrorConvention.RIGHT, ErrorConvention.LEFT]


def wander(state, rng):
    x = SE23(
        state.x.R,
        state.x.v + rng.normal(scale=5.0, size=3),
        rng.normal(scale=200.0, size=3),
    )
    return replace(state, x=x)


def random_chart(rng, scale=1.0):
    phi = rng.normal(size=3)
    phi *= scale * 0.3 / np.linalg.norm(phi)
    return TangentVector(phi, scale * rng.normal(scale=2.0, size=3), scale * rng.normal(scale=20.0, size=3))


def test_error_definitions():
    rng = np.random.default_rng(50)
    from navkit import EarthParams

    earth = EarthParams()
    t = make_nav_state(Frame.I, Grouping.TRADITIONAL, random_rotation(rng), rng.normal(size=3), rng.normal(size=3), earth)
    e = replace(t, x=SE23(random_rotation(rng), rng.normal(size=3), rng.normal(size=3)))
    eta_r = error_from_states(t, e, ErrorConvention.RIGHT)
    assert np.allclose(eta_r.as_matrix(), t.x.as_matrix() @ np.linalg.inv(e.x.as_matrix()), atol=1e-12)
    eta_l = error_from_states(t, e, ErrorConvention.LEFT)
    assert np.allclose(eta_l.as_matrix(), np.linalg.inv(e.x.as_matrix()) @ t.x.as_matrix(), atol=1e-12)
    # The two conventions are conjugate by the estimate.
    conj = e.x.inverse().compose(eta_r).compose(e.x)
    assert np.allclose(conj.as_matrix(), eta_l.as_matrix(), atol=1e-10)


def test_error_requires_matching_tags():
    rng = np.random.default_rng(51)
    from navkit import EarthParams

    earth = EarthParams()
    a = make_nav_state(Frame.I, Grouping.TRADITIONAL, np.eye(3), np.zeros(3), np.zeros(3), earth)
    b = make_nav_state(Frame.E, Grouping.TRADITIONAL, np.eye(3), np.zeros(3), np.zeros(3), earth)
    with pytest.raises(FrameMismatch):
        error_from_states(a, b, ErrorConvention.RIGHT)
    c = replace(a, r0=a.r0 + 1.0)
    with pytest.raises(FrameMismatch):
        error_from_states(a, c, ErrorConvention.RIGHT)


@pytest.mark.parametrize("conv", CONVS, ids=lambda c: c.value)
def test_chart_roundtrip(conv):
    rng = np.random.default_rng(52)
    for _ in range(50):
        xi = random_chart(rng)
        eta = vector_to_error(xi, conv)
        back = error_to_vector(eta, conv)
        assert np.allclose(back.as_vector(), xi.as_vector(), atol=1e-12)


def test_left_chart_flips_attitude_sign():
    xi = TangentVector(np.array([0.2, 0.0, 0.0]), np.zeros(3), np.zeros(3))
    eta_r = vector_to_error(xi, ErrorConvention.RIGHT)
    eta_l = vector_to_error(xi, ErrorConvention.LEFT)
    assert np.allclose(eta_l.R, eta_r.R.T, atol=1e-12)


@pytest.mark.parametrize("conv", CONVS, ids=lambda c: c.value)
def test_apply_correction_and_sampling_identity(conv, earth, world):
    rng = np.random.default_rng(53)
    for frame, grouping in ALL_COMBOS:
        truth = wander(random_nav_state(rng, frame, grouping, earth, world), rng)
        est = wander(truth, rng)
        xi = error_to_vector(error_from_states(truth, est, conv), conv)
        rec = apply_correction(est, xi, conv)
        assert np.allclose(rec.x.as_matrix(), truth.x.as_matrix(), atol=1e-9)
        # Sampling: deriving the estimate from a drawn error reproduces it.
        xi_s = random_chart(rng, scale=0.1)
        est2 = apply_correction(truth, TangentVector(-xi_s.phi, -xi_s.rho_v, -xi_s.rho_r), conv)
        xi_back = error_to_vector(error_from_states(truth, est2, conv), conv)
        assert np.allclose(xi_back.as_vector(), xi_s.as_vector(), atol=1e-10)


def _chart_series(true0, est0, imu_true, imu_est, earth, model, world, conv, hh):
    t1 = step(true0, replace(imu_true, dt=hh), earth, model, world, method="rk4")
    e1 = step(est0, replace(imu_est, dt=hh), earth, model, world, method="rk4")
    return t1, e1


def _eta_rate_fd(true0, est0, imu_true, imu_est, earth, model, world, conv, h=2e-3):
    def at(hh):
        t1, e1 = _chart_series(true0, est0, imu_true, imu_est, earth, model, world, conv, hh)
        return error_from_states(t1, e1, conv).as_matrix()

    def central(hh):
        return (at(hh) - at(-hh)) / (2.0 * hh)

    return (4.0 * central(h / 2) - central(h)) / 3.0


@pytest.mark.parametrize("conv", CONVS, ids=lambda c: c.value)
@pytest.mark.parametrize("frame,grouping", ALL_COMBOS, ids=lambda c: getattr(c, "value", c))
def test_exact_error_derivative_vs_twin_fd(frame, grouping, conv, earth, world):
    rng = np.random.default_rng(54)
    model = SphericalGravity()
    for _ in range(5):
        truth = wander(random_nav_state(rng, frame, grouping, earth, world), rng)
        est = apply_correction(truth, random_chart(rng), conv)  # large error
        imu_true = ImuSample(rng.normal(scale=0.2, size=3), rng.normal(scale=3.0, size=3), 0.01)
        imu_est = ImuSample(
            imu_true.omega_ib_b + rng.normal(scale=0.01, size=3),
            imu_true.f_ib_b + rng.normal(scale=0.1, size=3),
            0.01,
        )
        eta = error_from_states(truth, est, conv)
        d_exact = exact_error_derivative(eta, truth, est, imu_true, imu_est, earth, model, world, conv)
        d_fd = _eta_rate_fd(truth, est, imu_true, imu_est, earth, model, world, conv)
        assert np.linalg.norm(d_exact - d_fd) < 1e-6 * max(1.0, np.linalg.norm(d_fd))


def _chart_rate_fd(true0, est0, imu_true, imu_est, earth, model, world, conv, h=5e-3):
    def at(hh):
        t1, e1 = _chart_series(true0, est0, imu_true, imu_est, earth, model, world, conv, hh)
        return error_to_vector(error_from_states(t1, e1, conv), conv).as_vector()

    def central(hh):
        return (at(hh) - at(-hh)) / (2.0 * hh)

    return (4.0 * central(h / 2) - central(h)) / 3.0


_DIR_SCALE = np.array([0.5] * 3 + [5.0] * 3 + [50.0] * 3 + [0.02] * 3 + [0.2] * 3)


def numerical_F(est, imu_hat, earth, model, world, conv, delta=1e-4):
    """Column-by-column Jacobian of the error-chart rate at zero error."""
    cols = []
    for j in range(15):
        step_j = delta * _DIR_SCALE[j]
        rates = []
        for sign in (+1.0, -1.0):
            xi = np.zeros(15)
            xi[j] = sign * step_j
            truth = apply_correction(est, TangentVector.from_vector(xi[:9]), conv)
            # db = b_hat - b_true, so the truth feels inputs omega_hat + db_g.
            imu_true = ImuSample(imu_hat.omega_ib_b + xi[9:12], imu_hat.f_ib_b + xi[12:15], imu_hat.dt)
            rates.append(_chart_rate_fd(truth, est, imu_true, imu_hat, earth, model, world, conv))
        cols.append((rates[0] - rates[1]) / (2.0 * step_j))
    return np.column_stack(cols)


@pytest.mark.parametrize("conv", CONVS, ids=lambda c: c.value)
@pytest.mark.parametrize("frame,grouping", ALL_COMBOS, ids=lambda c: getattr(c, "value", c))
def test_linearized_F_matches_numerical_jacobian(frame, grouping, conv, earth, world):
    rng = np.random.default_rng(55)
    model = SphericalGravity()
    est = wander(random_nav_state(rng, frame, grouping, earth, world), rng)
    imu = ImuSample(rng.normal(scale=0.2, size=3), rng.normal(scale=3.0, size=3), 0.01)
    F, _ = linearized_F_G(ModelVariant(frame, grouping), conv, est, imu, earth, model, world)
    Fn = numerical_F(est, imu, earth, model, world, conv)
    for j in range(15):
        tol = 1e-5 * max(1.0, np.linalg.norm(F[0:9, j]))
        assert np.linalg.norm(Fn[0:9, j] - F[0:9, j]) < tol, f"column {j}"
    assert np.allclose(F[9:15, :], 0.0)


def test_linearized_F_variant_guard(earth, world):
    rng = np.random.default_rng(56)
    est = random_nav_state(rng, Frame.E, Grouping.PROPOSED, earth, world)
    imu = ImuSample(np.zeros(3), np.zeros(3), 0.01)
    with pytest.raises(FrameMismatch):
        linearized_F_G(ModelVariant(Frame.E, Grouping.TRADITIONAL), ErrorConvention.RIGHT, est, imu, earth, SphericalGravity(), world)


def test_right_F_published_blocks(earth, world):
    # At the anchor (p = 0) the right-convention blocks reduce to the
    # familiar printed forms.
    rng = np.random.default_rng(57)
    model = SphericalGravity()

    # Inertial frame: [[0,0,0],[(gam x),0,Gamma],[0,I,0]].
    st = random_nav_state(rng, Frame.I, Grouping.TRADITIONAL, earth, world)
    imu = ImuSample(rng.normal(scale=0.1, size=3), rng.normal(scale=1.0, size=3), 0.01)
    F, _ = linearized_F_G(ModelVariant(Frame.I, Grouping.TRADITIONAL), ErrorConvention.RIGHT, st, imu, earth, model, world)
    gam = gravitation(st.r0, model, earth)
    Gam = gravitation_gradient(st.r0, model, earth)
    assert np.allclose(F[0:3, 0:3], 0.0)
    assert np.allclose(F[3:6, 0:3], skew(gam), atol=1e-12)
    assert np.allclose(F[3:6, 6:9], Gam, atol=1e-15)
    assert np.allclose(F[6:9, 3:6], np.eye(3))
    assert np.allclose(F[6:9, 6:9], 0.0)

    # Proposed e-frame: every diagonal block -(Omega x), gravity column
    # gam - Omega x dv0, and no velocity/position folds.
    st = random_nav_state(rng, Frame.E, Grouping.PROPOSED, earth, world)
    F, _ = linearized_F_G(ModelVariant(Frame.E, Grouping.PROPOSED), ErrorConvention.RIGHT, st, imu, earth, model, world)
    Om = skew(earth_rate("e", earth))
    u = gravitation(st.r0, model, earth) - Om @ st.dv0
    for k in range(3):
        assert np.allclose(F[3 * k : 3 * k + 3, 3 * k : 3 * k + 3], -Om, atol=1e-18)
    assert np.allclose(F[3:6, 0:3], skew(u), atol=1e-12)
    assert np.allclose(F[6:9, 0:3], 0.0)

    # Traditional e-frame: Coriolis -2(Omega x) on velocity, zero net
    # position diagonal, centrifugal folded into the gravity column.
    st = random_nav_state(rng, Frame.E, Grouping.TRADITIONAL, earth, world)
    F, _ = linearized_F_G(ModelVariant(Frame.E, Grouping.TRADITIONAL), ErrorConvention.RIGHT, st, imu, earth, model, world)
    g = gravitation(st.r0, model, earth) - Om @ Om @ st.r0
    assert np.allclose(F[3:6, 3:6], -2.0 * Om, atol=1e-18)
    assert np.allclose(F[6:9, 6:9], 0.0, atol=1e-18)
    assert np.allclose(F[3:6, 0:3], skew(g) + skew(st.x.v) @ Om, atol=1e-12)


def test_left_F_common_form_under_uniform_gravity(earth, world):
    # With a uniform field the left-convention group blocks are the same
    # matrices for the inertial model and both proposed models, and equal
    # to the written form in the corrected body inputs alone.
    rng = np.random.default_rng(58)
    model = UniformGravity(np.array([0.0, 0.0, -9.81]))
    imu = ImuSample(rng.normal(scale=0.2, size=3), rng.normal(scale=3.0, size=3), 0.01)
    Wb = skew(imu.omega_ib_b)
    expect = np.zeros((9, 9))
    expect[0:3, 0:3] = -Wb
    expect[3:6, 0:3] = skew(imu.f_ib_b)
    expect[3:6, 3:6] = -Wb
    expect[6:9, 3:6] = np.eye(3)
    expect[6:9, 6:9] = -Wb
    for frame, grouping in [
        (Frame.I, Grouping.TRADITIONAL),
        (Frame.I, Grouping.PROPOSED),
        (Frame.E, Grouping.PROPOSED),
        (Frame.W, Grouping.PROPOSED),
    ]:
        st = wander(random_nav_state(rng, frame, grouping, earth, world), rng)
        F, _ = linearized_F_G(ModelVariant(frame, grouping), ErrorConvention.LEFT, st, imu, earth, model, world)
        assert np.abs(F[0:9, 0:9] - expect).max() < 1e-15, (frame, grouping)

    # The traditional rotating-frame models do not share it: an earth-rate
    # fold remains on the velocity and position diagonals.
    st = wander(random_nav_state(rng, Frame.E, Grouping.TRADITIONAL, earth, world), rng)
    F, _ = linearized_F_G(ModelVariant(Frame.E, Grouping.TRADITIONAL), ErrorConvention.LEFT, st, imu, earth, model, world)
    Om_b = skew(st.x.R.T @ earth_rate("e", earth))
    assert np.allclose(F[3:6, 3:6], -Wb - Om_b, atol=1e-18)
    assert np.allclose(F[6:9, 6:9], -Wb + Om_b, atol=1e-18)


def test_left_bias_blocks_are_identity(earth, world):
    rng = np.random.default_rng(59)
    st = random_nav_state(rng, Frame.W, Grouping.PROPOSED, earth, world)
    imu = ImuSample(rng.normal(scale=0.2, size=3), rng.normal(scale=3.0, size=3), 0.01)
    F, G = linearized_F_G(ModelVariant(Frame.W, Grouping.PROPOSED), ErrorConvention.LEFT, st, imu, earth, SphericalGravity(), world)
    assert np.allclose(F[0:3, 9:12], -np.eye(3))
    assert np.allclose(F[3:6, 12:15], np.eye(3))
    assert np.allclose(G[0:3, 0:3], np.eye(3))
    assert np.allclose(G[3:6, 3:6], -np.eye(3))
    assert np.allclose(G[6:15, :], 0.0)


def _f_along_trajectory(frame, grouping, conv, earth, world, n=100):
    model = UniformGravity(np.array([0.0, 0.0, -9.81]))
    rng = np.random.default_rng(60)
    st = make_nav_state(frame, grouping, random_rotation(rng), np.array([30.0, 5.0, -1.0]), np.zeros(3) if frame is Frame.W else world.r_ew_e.copy(), earth, world)
    imu = ImuSample(np.array([0.02, -0.01, 0.05]), np.array([0.5, -0.3, 9.9]), 0.05)
    variant = ModelVariant(frame, grouping)
    out = []
    for _ in range(n):
        F, _ = linearized_F_G(variant, conv, st, imu, earth, model, world)
        out.append(F)
        st = step(st, imu, earth, model, world, method="rk4")
    return np.array(out)


def test_right_F_trajectory_independence_proposed(earth, world):
    Fs = _f_along_trajectory(Frame.E, Grouping.PROPOSED, ErrorConvention.RIGHT, earth, world)
    dev = np.abs(Fs[:, 0:9, 0:9] - Fs[0, 0:9, 0:9]).max()
    assert dev < 1e-12


def test_right_F_trajectory_dependence_traditional(earth, world):
    Fs = _f_along_trajectory(Frame.E, Grouping.TRADITIONAL, ErrorConvention.RIGHT, earth, world)
    dev = np.abs(Fs[:, 0:9, 0:9] - Fs[0, 0:9, 0:9]).max()
    assert dev > 1e-6


def test_classify_autonomy(earth, world):
    rng = np.random.default_rng(61)
    model = UniformGravity(np.array([0.0, 0.0, -9.81]))
    imu = ImuSample(rng.normal(scale=0.1, size=3), rng.normal(scale=1.0, size=3), 0.01)

    def w_for(frame, grouping):
        st = random_nav_state(rng, frame, grouping, earth, world)
        _, w = derivative(st, imu, earth, model, world)
        return w

    assert classify_autonomy(w_for(Frame.I, Grouping.TRADITIONAL)) is AutonomyClass.PERFECT
    assert classify_autonomy(w_for(Frame.E, Grouping.PROPOSED)) is AutonomyClass.PERFECT
    assert classify_autonomy(w_for(Frame.W, Grouping.PROPOSED)) is AutonomyClass.PERFECT
    assert classify_autonomy(w_for(Frame.E, Grouping.TRADITIONAL)) is AutonomyClass.WEAK
    assert classify_autonomy(w_for(Frame.W, Grouping.TRADITIONAL)) is AutonomyClass.WEAK
    assert classify_autonomy(w_for(Frame.I, Grouping.TRADITIONAL), include_input_errors=True) is AutonomyClass.APPROXIMATE
    assert classify_autonomy(w_for(Frame.E, Grouping.PROPOSED), include_gravity_error=True) is AutonomyClass.APPROXIMATE
