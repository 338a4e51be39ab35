"""Group error dynamics: exact ODEs, linearizations, autonomy classes."""
from __future__ import annotations

from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from navkit import (
    SE23,
    AutonomyClass,
    EarthParams,
    ErrorConvention,
    Frame,
    FrameMismatch,
    Grouping,
    ImuSample,
    NavModel,
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
    ned_world,
    skew,
    step,
    vector_to_error,
)
from navkit.mechanization import NavState
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


def random_chart(rng, scale=1.0):
    phi = rng.normal(size=3)
    phi *= scale * 0.3 / np.linalg.norm(phi)
    return TangentVector(phi, scale * rng.normal(scale=2.0, size=3), scale * rng.normal(scale=20.0, size=3))


def test_error_definitions():
    rng = np.random.default_rng(50)
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


def _chart_series(true0, est0, imu_true, imu_est, model, hh):
    t1 = step(true0, replace(imu_true, dt=hh), model, method="rk4")
    e1 = step(est0, replace(imu_est, dt=hh), model, method="rk4")
    return t1, e1


def _eta_rate_fd(true0, est0, imu_true, imu_est, model, conv, h=2e-3):
    def at(hh):
        t1, e1 = _chart_series(true0, est0, imu_true, imu_est, model, hh)
        return error_from_states(t1, e1, conv).as_matrix()

    def central(hh):
        return (at(hh) - at(-hh)) / (2.0 * hh)

    return (4.0 * central(h / 2) - central(h)) / 3.0


@pytest.mark.parametrize("conv", CONVS, ids=lambda c: c.value)
@pytest.mark.parametrize("frame,grouping", ALL_COMBOS, ids=lambda c: getattr(c, "value", c))
def test_exact_error_derivative_vs_twin_fd(frame, grouping, conv, earth, world):
    rng = np.random.default_rng(54)
    for _ in range(5):
        truth = wander(random_nav_state(rng, frame, grouping, earth, world), rng)
        est = apply_correction(truth, random_chart(rng), conv)  # large error
        model = NavModel.of(truth, earth, SphericalGravity(), world)
        imu_true = ImuSample(rng.normal(scale=0.2, size=3), rng.normal(scale=3.0, size=3), 0.01)
        imu_est = ImuSample(
            imu_true.omega_ib_b + rng.normal(scale=0.01, size=3),
            imu_true.f_ib_b + rng.normal(scale=0.1, size=3),
            0.01,
        )
        eta = error_from_states(truth, est, conv)
        d_exact = exact_error_derivative(eta, truth, est, imu_true, imu_est, model, conv)
        d_fd = _eta_rate_fd(truth, est, imu_true, imu_est, model, conv)
        assert np.linalg.norm(d_exact - d_fd) < 1e-6 * max(1.0, np.linalg.norm(d_fd))


def _chart_rate_fd(true0, est0, imu_true, imu_est, model, conv, h=5e-3):
    def at(hh):
        t1, e1 = _chart_series(true0, est0, imu_true, imu_est, model, hh)
        return error_to_vector(error_from_states(t1, e1, conv), conv).as_vector()

    def central(hh):
        return (at(hh) - at(-hh)) / (2.0 * hh)

    return (4.0 * central(h / 2) - central(h)) / 3.0


_DIR_SCALE = np.array([0.5] * 3 + [5.0] * 3 + [50.0] * 3 + [0.02] * 3 + [0.2] * 3)


def numerical_F(est, imu_hat, model, conv, delta=1e-4, bias_delta=1e-2):
    """Column-by-column Jacobian of the error-chart rate at zero error.  The
    bias columns take numerical_G's steps: at delta their central difference
    is roundoff-limited near the 1e-5 bound."""
    cols = []
    for j in range(15):
        step_j = (delta if j < 9 else bias_delta) * _DIR_SCALE[j]
        rates = []
        for sign in (+1.0, -1.0):
            xi = np.zeros(15)
            xi[j] = sign * step_j
            truth = apply_correction(est, TangentVector.from_vector(xi[:9]), conv)
            # db = b_hat - b_true, so the truth feels inputs omega_hat + db_g.
            imu_true = ImuSample(imu_hat.omega_ib_b + xi[9:12], imu_hat.f_ib_b + xi[12:15], imu_hat.dt)
            rates.append(_chart_rate_fd(truth, est, imu_true, imu_hat, model, conv))
        cols.append((rates[0] - rates[1]) / (2.0 * step_j))
    return np.column_stack(cols)


@pytest.mark.parametrize("conv", CONVS, ids=lambda c: c.value)
@pytest.mark.parametrize("frame,grouping", ALL_COMBOS, ids=lambda c: getattr(c, "value", c))
def test_linearized_F_matches_numerical_jacobian(frame, grouping, conv, earth, world):
    rng = np.random.default_rng(55)
    est = wander(random_nav_state(rng, frame, grouping, earth, world), rng)
    imu = ImuSample(rng.normal(scale=0.2, size=3), rng.normal(scale=3.0, size=3), 0.01)
    model = NavModel.of(est, earth, SphericalGravity(), world)
    F, _ = linearized_F_G(conv, est, imu, model)
    Fn = numerical_F(est, imu, model, conv)
    for j in range(15):
        tol = 1e-5 * max(1.0, np.linalg.norm(F[0:9, j]))
        assert np.linalg.norm(Fn[0:9, j] - F[0:9, j]) < tol, f"column {j}"
    assert np.allclose(F[9:15, :], 0.0)


def numerical_G(est, imu_hat, model, conv, delta=1e-2):
    """Column-by-column Jacobian of the error-chart rate at zero error with
    respect to white noise on the estimate's inputs (n_g, n_a).  The steps
    are 100x numerical_F's: the central difference cancels the even orders,
    and smaller steps leave the chart's roundoff at 1e-5 in the i frame."""
    cols = []
    for j in range(6):
        step_j = delta * _DIR_SCALE[9 + j]
        rates = []
        for sign in (+1.0, -1.0):
            n = np.zeros(6)
            n[j] = sign * step_j
            imu_est = ImuSample(imu_hat.omega_ib_b + n[0:3], imu_hat.f_ib_b + n[3:6], imu_hat.dt)
            rates.append(_chart_rate_fd(est, est, imu_hat, imu_est, model, conv))
        cols.append((rates[0] - rates[1]) / (2.0 * step_j))
    return np.column_stack(cols)


@pytest.mark.parametrize("conv", CONVS, ids=lambda c: c.value)
@pytest.mark.parametrize("frame,grouping", ALL_COMBOS, ids=lambda c: getattr(c, "value", c))
def test_linearized_G_matches_numerical_jacobian(frame, grouping, conv, earth, world):
    rng = np.random.default_rng(61)
    est = wander(random_nav_state(rng, frame, grouping, earth, world), rng)
    imu = ImuSample(rng.normal(scale=0.2, size=3), rng.normal(scale=3.0, size=3), 0.01)
    model = NavModel.of(est, earth, SphericalGravity(), world)
    _, G = linearized_F_G(conv, est, imu, model)
    Gn = numerical_G(est, imu, model, conv)
    for j in range(6):
        tol = 1e-5 * max(1.0, np.linalg.norm(G[0:9, j]))
        assert np.linalg.norm(Gn[:, j] - G[0:9, j]) < tol, f"column {j}"
    assert np.array_equal(G[9:15, :], np.zeros((6, 6)))  # noise drives no bias


@pytest.mark.parametrize("frame,grouping", ALL_COMBOS, ids=lambda c: getattr(c, "value", c))
def test_G_is_minus_the_bias_columns_and_right_ones_are_the_adjoint(frame, grouping, earth, world):
    # One definition of the input structure on a (10, 8) stack: G = -F[:, 9:15]
    # in both conventions, and the right convention's bias columns are
    # Ad_X[:, 0:6] (Hartley et al., IJRR 2020), bit for bit.
    rng = np.random.default_rng(62)
    base = random_nav_state(rng, frame, grouping, earth, world)
    K = np.stack([wander(base, rng).x.K for _ in range(80)]).reshape(10, 8, 3, 5)
    est = replace(base, x=SE23.packed(K))
    imu = ImuSample(rng.normal(scale=0.2, size=(10, 8, 3)), rng.normal(scale=3.0, size=(10, 8, 3)), 0.01)
    model = NavModel.of(base, earth, SphericalGravity(), world)
    for conv in CONVS:
        F, G = linearized_F_G(conv, est, imu, model)
        assert G.shape == (10, 8, 15, 6) and G.dtype == np.float64
        assert np.array_equal(G, -F[..., 9:15])
    F, _ = linearized_F_G(ErrorConvention.RIGHT, est, imu, model)
    assert np.array_equal(F[..., 0:9, 9:15], est.x.adjoint()[..., 0:6])


def test_linearized_F_variant_guard(earth, world):
    rng = np.random.default_rng(56)
    est = random_nav_state(rng, Frame.E, Grouping.PROPOSED, earth, world)
    other = random_nav_state(rng, Frame.E, Grouping.TRADITIONAL, earth, world)
    imu = ImuSample(np.zeros(3), np.zeros(3), 0.01)
    with pytest.raises(FrameMismatch):
        linearized_F_G(ErrorConvention.RIGHT, est, imu, NavModel.of(other, earth, SphericalGravity(), world))


def test_right_F_published_blocks(earth, world):
    # At the anchor (p = 0) the right-convention blocks reduce to the
    # familiar printed forms.
    rng = np.random.default_rng(57)
    model = SphericalGravity()

    # Inertial frame: [[0,0,0],[(gam x),0,Gamma],[0,I,0]].
    st = random_nav_state(rng, Frame.I, Grouping.TRADITIONAL, earth, world)
    imu = ImuSample(rng.normal(scale=0.1, size=3), rng.normal(scale=1.0, size=3), 0.01)
    F, _ = linearized_F_G(ErrorConvention.RIGHT, st, imu, NavModel.of(st, earth, model, world))
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
    F, _ = linearized_F_G(ErrorConvention.RIGHT, st, imu, NavModel.of(st, earth, model, world))
    Om = skew(earth_rate("e", earth))
    u = gravitation(st.r0, model, earth) - Om @ st.dv0
    for k in range(3):
        assert np.allclose(F[3 * k : 3 * k + 3, 3 * k : 3 * k + 3], -Om, atol=1e-18)
    assert np.allclose(F[3:6, 0:3], skew(u), atol=1e-12)
    assert np.allclose(F[6:9, 0:3], 0.0)

    # Traditional e-frame: Coriolis -2(Omega x) on velocity, zero net
    # position diagonal, centrifugal folded into the gravity column.
    st = random_nav_state(rng, Frame.E, Grouping.TRADITIONAL, earth, world)
    F, _ = linearized_F_G(ErrorConvention.RIGHT, st, imu, NavModel.of(st, earth, model, world))
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
        F, _ = linearized_F_G(ErrorConvention.LEFT, st, imu, NavModel.of(st, earth, model, world))
        assert np.abs(F[0:9, 0:9] - expect).max() < 1e-15, (frame, grouping)

    # The traditional rotating-frame models do not share it: an earth-rate
    # fold remains on the velocity and position diagonals.
    st = wander(random_nav_state(rng, Frame.E, Grouping.TRADITIONAL, earth, world), rng)
    F, _ = linearized_F_G(ErrorConvention.LEFT, st, imu, NavModel.of(st, earth, model, world))
    Om_b = skew(st.x.R.T @ earth_rate("e", earth))
    assert np.allclose(F[3:6, 3:6], -Wb - Om_b, atol=1e-18)
    assert np.allclose(F[6:9, 6:9], -Wb + Om_b, atol=1e-18)


def test_left_bias_blocks_are_identity(earth, world):
    rng = np.random.default_rng(59)
    st = random_nav_state(rng, Frame.W, Grouping.PROPOSED, earth, world)
    imu = ImuSample(rng.normal(scale=0.2, size=3), rng.normal(scale=3.0, size=3), 0.01)
    F, G = linearized_F_G(ErrorConvention.LEFT, st, imu, NavModel.of(st, earth, SphericalGravity(), world))
    assert np.allclose(F[0:3, 9:12], -np.eye(3))
    assert np.allclose(F[3:6, 12:15], np.eye(3))
    assert np.allclose(G[0:3, 0:3], np.eye(3))
    assert np.allclose(G[3:6, 3:6], -np.eye(3))
    assert np.allclose(G[6:15, :], 0.0)


def _f_along_trajectory(frame, grouping, conv, earth, world, n=100):
    rng = np.random.default_rng(60)
    st = make_nav_state(frame, grouping, random_rotation(rng), np.array([30.0, 5.0, -1.0]), np.zeros(3) if frame is Frame.W else world.r_ew_e.copy(), earth, world)
    imu = ImuSample(np.array([0.02, -0.01, 0.05]), np.array([0.5, -0.3, 9.9]), 0.05)
    model = NavModel.of(st, earth, UniformGravity(np.array([0.0, 0.0, -9.81])), world)
    out = []
    for _ in range(n):
        F, _ = linearized_F_G(conv, st, imu, model)
        out.append(F)
        st = step(st, imu, model, method="rk4")
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
    uniform = UniformGravity(np.array([0.0, 0.0, -9.81]))

    def grade(frame, grouping, conv=ErrorConvention.RIGHT, gravity=uniform, input_errors=False):
        state = random_nav_state(rng, frame, grouping, earth, world)
        return classify_autonomy(NavModel.of(state, earth, gravity, world), conv, input_errors)

    for conv in CONVS:
        assert grade(Frame.I, Grouping.TRADITIONAL, conv) is AutonomyClass.PERFECT
        assert grade(Frame.E, Grouping.PROPOSED, conv) is AutonomyClass.PERFECT
        assert grade(Frame.W, Grouping.PROPOSED, conv) is AutonomyClass.PERFECT
        assert grade(Frame.E, Grouping.TRADITIONAL, conv) is AutonomyClass.WEAK
        assert grade(Frame.W, Grouping.TRADITIONAL, conv) is AutonomyClass.WEAK
        assert grade(Frame.E, Grouping.PROPOSED, conv, SphericalGravity()) is AutonomyClass.APPROXIMATE
        assert grade(Frame.E, Grouping.TRADITIONAL, conv, SphericalGravity(), True) is AutonomyClass.WEAK
    # Input errors reach the right flow through the estimate's pose; the
    # left flow depends on the inputs alone.
    assert grade(Frame.I, Grouping.TRADITIONAL, input_errors=True) is AutonomyClass.APPROXIMATE
    assert grade(Frame.I, Grouping.TRADITIONAL, ErrorConvention.LEFT, input_errors=True) is AutonomyClass.PERFECT


_EARTH = EarthParams()
_WORLD = ned_world(_EARTH.re * np.array([np.cos(np.pi / 4), 0.0, np.sin(np.pi / 4)]), _EARTH)
_IDENTITY = SE23.packed(np.eye(3, 5))


def _affine_defect(frame, grouping, gravity, seed):
    """(max|D|, max|f|, model) of derivative's field f at fixed inputs, with
    D = f(ab) - f(a) b - a f(b) + a f(I) b for two states a, b of one
    anchored run (positions out to about 1 km) and I the identity; D is
    zero exactly when the field is group-affine."""
    rng = np.random.default_rng(seed)
    base = random_nav_state(rng, frame, grouping, _EARTH, _WORLD)
    a, b = wander(base, rng).x, wander(base, rng).x
    model = NavModel.of(base, _EARTH, gravity, _WORLD)
    imu = ImuSample(rng.normal(scale=0.2, size=3), rng.normal(scale=3.0, size=3), 0.01)

    def f(x):
        return derivative(replace(base, x=x), imu, model)[0]

    A, B, fa, fb = a.as_matrix(), b.as_matrix(), f(a), f(b)
    D = f(a.compose(b)) - fa @ B - A @ fb + A @ f(_IDENTITY) @ B
    return np.abs(D).max(), max(np.abs(fa).max(), np.abs(fb).max()), model


@pytest.mark.parametrize("frame,grouping", ALL_COMBOS, ids=lambda c: getattr(c, "value", c))
@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(seed=st.integers(0, 2**32 - 1))
def test_group_affine_exactly_where_not_weak(frame, grouping, seed):
    # Under uniform gravity the field is group-affine (D at rounding,
    # below 5e-15 |f|) exactly for the models not graded weak; the fold
    # models' D is 1e-6 to 5e-3 |f|.
    d, f_max, model = _affine_defect(frame, grouping, UniformGravity(np.array([0.0, 0.0, 9.8])), seed)
    for conv in CONVS:
        assert (d <= 1e-12 * f_max) == (classify_autonomy(model, conv) is not AutonomyClass.WEAK), (conv, d / f_max)
    # A spherical field's gradient breaks it in every model (D from 3e-9 |f|
    # in the i frame, whose |f| holds the earth-rate transport), and no
    # model is graded perfect.
    d, f_max, model = _affine_defect(frame, grouping, SphericalGravity(), seed)
    assert d > 1e-10 * f_max, d / f_max
    for conv in CONVS:
        assert classify_autonomy(model, conv) is not AutonomyClass.PERFECT
