"""Strapdown mechanization: ODE oracles, integrators, groupings, frames."""
from __future__ import annotations

from dataclasses import replace

import numpy as np
import pytest

from navkit import (
    SE23,
    Frame,
    FrameMismatch,
    SingularRadius,
    Grouping,
    ImuSample,
    SphericalGravity,
    UniformGravity,
    body_velocity,
    derivative,
    earth_rate,
    gravitation,
    integrate,
    make_nav_state,
    matvec,
    nav_from_physical,
    physical_from_nav,
    skew,
    so3_exp,
    so3_log,
    step,
)
import navkit.mechanization as mechanization
from navkit.mechanization import NavModel, _input_matrix
from conftest import random_nav_state, random_rotation, wander

ALL_COMBOS = [
    (Frame.I, Grouping.TRADITIONAL),
    (Frame.I, Grouping.PROPOSED),
    (Frame.E, Grouping.TRADITIONAL),
    (Frame.E, Grouping.PROPOSED),
    (Frame.W, Grouping.TRADITIONAL),
    (Frame.W, Grouping.PROPOSED),
]
# Position-dependent and position-free gravity: rk4 steps the first in
# stages and the second as its Taylor polynomial.
gravities = pytest.mark.parametrize(
    "grav", [SphericalGravity(), UniformGravity(np.array([0.0, 0.0, 9.8]))], ids=["spherical", "uniform"]
)


def random_imu(rng, dt=0.01):
    return ImuSample(
        omega_ib_b=rng.normal(scale=0.2, size=3),
        f_ib_b=rng.normal(scale=3.0, size=3),
        dt=dt,
    )


def frame_rate_and_center(state, earth, world):
    if state.frame is Frame.I:
        return np.zeros(3), state.r0 + state.x.p
    omega = earth_rate(state.frame.value, earth, world)
    if state.frame is Frame.W:
        offset = world.C_e_w @ world.r_ew_e
    else:
        offset = np.zeros(3)
    return omega, offset + state.r0 + state.x.p


def expected_rates(state, imu, earth, world):
    """Component ODE written out longhand, as the oracle for derivative()."""
    C, v, p = state.x.R, state.x.v, state.x.p
    omega, r_c = frame_rate_and_center(state, earth, world)
    gam = gravitation(r_c, SphericalGravity(), earth)
    dC = C @ skew(imu.omega_ib_b) - skew(omega) @ C
    f_f = C @ imu.f_ib_b
    if state.grouping is Grouping.TRADITIONAL:
        g = gam - np.cross(omega, np.cross(omega, r_c))
        dv = f_f + g - 2.0 * np.cross(omega, v)
        dp = v
    else:
        dv = f_f + gam - np.cross(omega, v + state.dv0)
        dp = v - np.cross(omega, p)
    return dC, dv, dp


@pytest.mark.parametrize("frame,grouping", ALL_COMBOS, ids=lambda c: getattr(c, "value", c))
def test_derivative_matches_component_ode(frame, grouping, earth, world):
    rng = np.random.default_rng(30)
    for _ in range(20):
        st = wander(random_nav_state(rng, frame, grouping, earth, world), rng)
        imu = random_imu(rng)
        dX, w = derivative(st, imu, NavModel.of(st, earth, SphericalGravity(), world))
        dC, dv, dp = expected_rates(st, imu, earth, world)
        assert np.allclose(dX[0:3, 0:3], dC, atol=1e-10)
        assert np.allclose(dX[0:3, 3], dv, atol=1e-9)
        assert np.allclose(dX[0:3, 4], dp, atol=1e-10)
        assert np.allclose(dX[3:5, :], 0.0)
        # The returned factors must rebuild the same dense matrix.
        X = st.x.as_matrix()
        rebuilt = X @ w.W1 + w.W2 @ X + w.W3 @ X @ w.W4
        assert np.allclose(rebuilt, dX, atol=1e-12)


@pytest.mark.parametrize("frame,grouping", ALL_COMBOS, ids=lambda c: getattr(c, "value", c))
def test_w_decomposition_structure(frame, grouping, earth, world):
    rng = np.random.default_rng(31)
    st = random_nav_state(rng, frame, grouping, earth, world)
    imu = random_imu(rng)
    _, w = derivative(st, imu, NavModel.of(st, earth, SphericalGravity(), world))
    assert np.allclose(w.W1[0:3, 0:3], skew(imu.omega_ib_b))
    assert np.allclose(w.W1[0:3, 3], imu.f_ib_b)
    assert w.W1[3, 4] == 1.0
    assert w.W2[3, 4] == -1.0
    weak = grouping is Grouping.TRADITIONAL and frame is not Frame.I
    assert np.any(w.W3) == weak
    if not weak:
        assert np.allclose(w.W3, 0.0) and np.allclose(w.W4, 0.0)


def _flow_fd(state, imu, model, h=1e-2):
    """Richardson-extrapolated central difference of the rk4 flow."""

    def at(dt):
        s = step(state, replace(imu, dt=dt), model, method="rk4")
        return s.x.as_matrix()

    def central(hh):
        return (at(hh) - at(-hh)) / (2.0 * hh)

    return (4.0 * central(h / 2) - central(h)) / 3.0


@pytest.mark.parametrize("frame,grouping", ALL_COMBOS, ids=lambda c: getattr(c, "value", c))
def test_derivative_is_flow_jacobian(frame, grouping, earth, world):
    rng = np.random.default_rng(32)
    for _ in range(10):
        st = wander(random_nav_state(rng, frame, grouping, earth, world), rng)
        imu = random_imu(rng)
        model = NavModel.of(st, earth, SphericalGravity(), world)
        dX, _ = derivative(st, imu, model)
        fd = _flow_fd(st, imu, model)
        assert np.linalg.norm(dX - fd) < 1e-6 * max(1.0, np.linalg.norm(dX))


@pytest.mark.parametrize("frame", [Frame.E, Frame.W])
def test_static_equilibrium_is_fixed_point(frame, earth, world):
    rng = np.random.default_rng(33)
    C0 = random_rotation(rng)
    if frame is Frame.E:
        r = world.r_ew_e.copy()
        omega = earth_rate("e", earth)
        r_center = r
    else:
        r = np.array([10.0, -20.0, 5.0])
        omega = earth_rate("w", earth, world)
        r_center = world.C_e_w @ world.r_ew_e + r
    g = gravitation(r_center, SphericalGravity(), earth) - np.cross(omega, np.cross(omega, r_center))
    imu = ImuSample(omega_ib_b=C0.T @ omega, f_ib_b=-C0.T @ g, dt=0.01)
    st = make_nav_state(frame, Grouping.TRADITIONAL, C0, np.zeros(3), r, earth, world)
    model = NavModel.of(st, earth, SphericalGravity(), world)
    for _ in range(1000):
        st = step(st, imu, model, method="rk4")
    assert np.linalg.norm(st.x.v) < 1e-12
    assert np.linalg.norm(st.x.p) < 1e-12
    assert np.abs(st.x.R - C0).max() < 1e-12


def test_pure_rotation_angle():
    from navkit import EarthParams

    earth = EarthParams()
    imu = ImuSample(omega_ib_b=np.array([0.0, 0.0, 0.1]), f_ib_b=np.zeros(3), dt=0.01)
    st = make_nav_state(Frame.I, Grouping.TRADITIONAL, np.eye(3), np.zeros(3), np.zeros(3), earth)
    model = NavModel.of(st, earth, UniformGravity(np.zeros(3)))
    for _ in range(1000):
        st = step(st, imu, model, method="midpoint")
    phi = so3_log(st.x.R)
    assert abs(np.linalg.norm(phi) - 1.0) < 1e-9
    assert np.allclose(st.x.v, 0.0) and np.allclose(st.x.p, 0.0)


def _final_state(frame, earth, world, dt, n, method, grav=SphericalGravity()):
    rng = np.random.default_rng(34)
    C0 = random_rotation(rng)
    st = make_nav_state(frame, Grouping.TRADITIONAL, C0, np.array([30.0, 5.0, -2.0]), world.r_ew_e.copy(), earth, world)
    imu = ImuSample(omega_ib_b=np.array([0.02, -0.05, 0.1]), f_ib_b=np.array([1.0, -2.0, 9.8]), dt=dt)
    model = NavModel.of(st, earth, grav, world)
    for _ in range(n):
        st = step(st, imu, model, method=method)
    return st


def _state_distance(a, b):
    return np.linalg.norm(a.x.as_matrix() - b.x.as_matrix())


@gravities
def test_rk4_fourth_order(grav, earth, world):
    ref = _final_state(Frame.E, earth, world, 0.8 / 1024, 1024, "rk4", grav)
    e1 = _state_distance(_final_state(Frame.E, earth, world, 0.05, 16, "rk4", grav), ref)
    e2 = _state_distance(_final_state(Frame.E, earth, world, 0.025, 32, "rk4", grav), ref)
    assert 12.0 < e1 / e2 < 20.0


def test_midpoint_second_order(earth, world):
    ref = _final_state(Frame.E, earth, world, 0.8 / 1024, 1024, "rk4")
    e1 = _state_distance(_final_state(Frame.E, earth, world, 0.05, 16, "midpoint"), ref)
    e2 = _state_distance(_final_state(Frame.E, earth, world, 0.025, 32, "midpoint"), ref)
    assert 3.0 < e1 / e2 < 5.0


def test_midpoint_attitude_exact_for_constant_rate(earth, world):
    # Constant body rate: the discrete attitude equals the closed form
    # exp(-T omega_frame x) C0 exp(T omega_b x) no matter how the interval
    # is split, in every frame and grouping (the i-frame does not rotate).
    omega = np.array([0.3, -0.2, 0.5])
    C0 = random_rotation(np.random.default_rng(35))
    for frame, grouping in ALL_COMBOS:
        st = make_nav_state(frame, grouping, C0, np.zeros(3), np.zeros(3), earth, world)
        model = NavModel.of(st, earth, UniformGravity(np.zeros(3)), world)
        for _ in range(400):
            st = step(st, ImuSample(omega, np.zeros(3), 0.0025), model, method="midpoint")
        omega_frame = np.zeros(3) if frame is Frame.I else earth_rate(frame.value, earth, world)
        expected = so3_exp(-1.0 * omega_frame) @ C0 @ so3_exp(omega * 1.0)
        assert np.abs(st.x.R - expected).max() < 1e-12, (frame, grouping)


def test_inertial_frame_rotates_at_zero_rate(earth, world):
    # The i frame is the rotating frames' model at zero rate, so every kernel
    # runs one path; the earth still turns in it (earth-relative velocity).
    r = np.random.default_rng(42).normal(scale=7e6, size=(4, 3))
    for grouping in Grouping:
        model = NavModel(Frame.I, grouping, r[0], earth, world=world)
        assert np.array_equal(model.omega, np.zeros(3))
        assert np.array_equal(model.Om, np.zeros((3, 3)))
        assert np.array_equal(model.OmOm, np.zeros((3, 3)))
        assert np.array_equal(model.midpoint_terms(0.01)[0], np.eye(3))
        assert np.array_equal(model.anchor(r), np.zeros((4, 3)))
        assert np.array_equal(model.earth_omega, earth_rate("i", earth))


def test_gravity_column_is_the_velocity_rate_at_rest(earth, world):
    # Every model's velocity equation at zero specific force and zero
    # velocity is its W2 gravity column, over a stack of positions too.
    rng = np.random.default_rng(41)
    for frame, grouping in ALL_COMBOS:
        st = random_nav_state(rng, frame, grouping, earth, world)
        model = NavModel.of(st, earth, SphericalGravity(), world)
        r = model.r_base + rng.normal(scale=200.0, size=(4, 3))
        rest = model.accel(np.zeros((4, 3)), r, np.zeros((4, 3)))
        assert np.array_equal(rest, model.column(r)), (frame, grouping)


def _stacked_state(rng, frame, grouping, earth, world, n):
    """n states of one anchored run, stacked along a leading axis."""
    base = random_nav_state(rng, frame, grouping, earth, world)
    states = [wander(base, rng) for _ in range(n)]
    return replace(base, x=SE23(*(np.stack([getattr(st.x, c) for st in states]) for c in "Rvp")))


def test_step_guards(earth, world):
    rng = np.random.default_rng(36)
    st = random_nav_state(rng, Frame.E, Grouping.TRADITIONAL, earth, world)
    model = NavModel.of(st, earth, SphericalGravity(), world)
    with pytest.raises(ValueError):
        step(st, ImuSample(np.zeros(3), np.zeros(3), 0.2), model)
    with pytest.raises(ValueError):
        step(st, ImuSample(np.zeros(3), np.zeros(3), 0.01), model, method="euler")
    # The 0.1 s guard absorbs a 10 Hz time grid's roundoff, and nothing more.
    for method in ("rk4", "midpoint"):
        step(st, ImuSample(np.zeros(3), np.zeros(3), 0.1 + 1.5e-15), model, method=method)
        with pytest.raises(ValueError, match="piecewise-constant guard"):
            step(st, ImuSample(np.zeros(3), np.zeros(3), 0.1001), model, method=method)
    # A model of another frame or grouping is refused.
    prop = nav_from_physical(Frame.E, Grouping.PROPOSED, *physical_from_nav(st, earth, world), earth, world)
    with pytest.raises(FrameMismatch, match="proposed-e state given to the traditional-e model"):
        step(prop, ImuSample(np.zeros(3), np.zeros(3), 0.01), model)
    # One dt per element: a single element over the guard is enough.
    stack = _stacked_state(rng, Frame.E, Grouping.TRADITIONAL, earth, world, 3)
    zeros = np.zeros((3, 3))
    with pytest.raises(ValueError, match="exceeds"):
        step(stack, ImuSample(zeros, zeros, np.array([0.01, 0.2, 0.01])), model, method="rk4")
    # Midpoint takes one dt; at n=3 a (3,) dt would broadcast against the (3, 3) vectors unnoticed.
    with pytest.raises(ValueError, match="rk4"):
        step(stack, ImuSample(zeros, zeros, np.full(3, 0.01)), model)


@gravities
def test_packed_rate_is_the_dense_field(grav, earth, world):
    # rk4's stage rate on K = [C | v | p] is rows 0-2 of derivative's dX,
    # for every model, on a stack and on each element alone.
    rng = np.random.default_rng(42)
    n = 4
    for frame, grouping in ALL_COMBOS:
        st = _stacked_state(rng, frame, grouping, earth, world, n)
        model = NavModel.of(st, earth, grav, world)
        om, f = rng.normal(scale=0.2, size=(n, 3)), rng.normal(scale=3.0, size=(n, 3))
        K = np.concatenate((st.x.R, st.x.v[..., None], st.x.p[..., None]), axis=-1)
        stacked = model.rate(K, _input_matrix(om, f))
        for k in range(n):
            one = replace(st, x=SE23(st.x.R[k], st.x.v[k], st.x.p[k]))
            dX, _ = derivative(one, ImuSample(om[k], f[k], 0.01), model)
            single = model.rate(K[k], _input_matrix(om[k], f[k]))
            assert np.abs(single - dX[0:3]).max() <= 1e-12, (frame, grouping, k)
            assert np.abs(stacked[k] - dX[0:3]).max() <= 1e-12, (frame, grouping, k)


@pytest.mark.parametrize("shape", [(), (2, 2)], ids=["single", "stack"])
@gravities
@pytest.mark.parametrize("frame,grouping", ALL_COMBOS, ids=lambda c: getattr(c, "value", c))
def test_rate_is_the_written_out_field_bit_for_bit(frame, grouping, grav, shape, earth, world):
    # Without the fold, rate leaves out the frame-rate product of a frame
    # that does not spin and forms a gravity column that does not depend on
    # the position once; neither moves a bit, signed zeros included, from
    # the written-out K W1 - Om K + column(r_base + p).  With the fold it is
    # the written-out K W1 + Lambda vec K + gamma(r_base + p) + c0, with
    # c0 = -Om^2 r_base, and Lambda (fold_op) applied to each unit block E
    # is -Om (E d) - Om^2 E[:, 4] e3^T, d = (1, 1, 1, 2, 0).  The states
    # are random and at rest (v = p = -0, zero inputs), under the state's
    # model and under one built without dv0, as nav_from_physical builds it.
    rng = np.random.default_rng(49)
    base = random_nav_state(rng, frame, grouping, earth, world)
    n = int(np.prod(shape))
    K = np.stack([wander(base, rng).x.K for _ in range(n)]).reshape(shape + (3, 5))
    rest = K.copy()
    rest[..., 3:5] = -0.0
    moving = _input_matrix(rng.normal(scale=0.2, size=shape + (3,)), rng.normal(scale=3.0, size=shape + (3,)))
    still = _input_matrix(np.zeros(shape + (3,)), np.zeros(shape + (3,)))
    for model in (NavModel.of(base, earth, grav, world), NavModel(frame, grouping, base.r0, earth, grav, world)):
        assert model.spins is (frame is not Frame.I)
        uniform = isinstance(grav, UniformGravity)
        if model.fold:
            assert (model.column0 is not None) is uniform
            c0 = -matvec(model.OmOm, model.r_base)
            for K_s, W1 in ((K, moving), (rest, still)):
                ref = K_s @ W1 + (model.fold_op @ K_s.reshape(shape + (15, 1))).reshape(shape + (3, 5))
                ref[..., 3] += gravitation(model.r_base + K_s[..., 4], grav, earth) + c0
                assert model.rate(K_s, W1).tobytes() == ref.tobytes(), model.dv0
            d = np.array([1.0, 1.0, 1.0, 2.0, 0.0])
            for E in np.eye(15).reshape(15, 3, 5):
                want = -model.Om @ (E * d)
                want[:, 3] -= model.OmOm @ E[:, 4]
                assert np.array_equal((model.fold_op @ E.reshape(15, 1)).reshape(3, 5), want)
            continue
        assert (model.column0 is not None) is (uniform and not model.fold and model.dv0 is not None)
        if model.dv0 is None and not model.fold:
            continue  # its column needs dv0: nav_from_physical reads only the anchor
        d = np.array([1.0, 1.0, 1.0, 2.0, 0.0]) if model.fold else np.ones(5)
        for K_s, W1 in ((K, moving), (rest, still)):
            ref = K_s @ W1 - model.Om @ (K_s * d)
            ref[..., 3] += model.column(model.r_base + K_s[..., 4])
            assert model.rate(K_s, W1).tobytes() == ref.tobytes(), model.dv0


@gravities
@pytest.mark.parametrize("frame,grouping", ALL_COMBOS)
def test_rk4_dt_per_element_matches_one_element_stacks(frame, grouping, grav, earth, world):
    rng = np.random.default_rng(40)
    n = 5
    st = _stacked_state(rng, frame, grouping, earth, world, n)
    om, f = rng.normal(scale=0.2, size=(n, 3)), rng.normal(scale=3.0, size=(n, 3))
    dt = np.array([0.01, 0.01, 0.01, 0.01, 0.0037])  # the last grid interval is shorter
    model = NavModel.of(st, earth, grav, world)
    out = step(st, ImuSample(om, f, dt), model, method="rk4").x
    for k in range(n):
        one = replace(st, x=SE23(st.x.R[k : k + 1], st.x.v[k : k + 1], st.x.p[k : k + 1]))
        ref = step(one, ImuSample(om[k : k + 1], f[k : k + 1], float(dt[k])), model, method="rk4").x
        for a, b in ((out.R[k], ref.R[0]), (out.v[k], ref.v[0]), (out.p[k], ref.p[0])):
            assert np.array_equal(a, b), k


@gravities
def test_rk4_corrects_the_attitude_of_the_turning_elements_alone(grav, earth, world):
    # rk4's Newton-Schulz step acts on each element whose step turns by more
    # than _SO3_DRIFT_TURN, and on it alone: in a stack that mixes fast and
    # slow turns, each element is its one-element step, a slow one is the
    # plain rk4 step and a fast one is orthonormal to roundoff.
    rng = np.random.default_rng(41)
    st = _stacked_state(rng, Frame.W, Grouping.PROPOSED, earth, world, 4)
    om = np.array([[0.0, 0.0, 1.0], [0.0, 0.05, 0.0], [0.3, 0.2, 0.0], [1e-3, 0.0, 0.0]])
    f = rng.normal(scale=3.0, size=(4, 3))
    turning = np.linalg.norm(om, axis=1) * 0.01 > mechanization._SO3_DRIFT_TURN
    assert turning.tolist() == [True, False, True, False]
    model = NavModel.of(st, earth, grav, world)
    out = step(st, ImuSample(om, f, 0.01), model, method="rk4").x.K
    plain = mechanization._rk4_update(st.x.K, 0.01, _input_matrix(om, f), model, np.empty(st.x.K.shape))
    for k in range(4):
        one = replace(st, x=SE23.packed(st.x.K[k : k + 1]))
        assert np.array_equal(out[k], step(one, ImuSample(om[k : k + 1], f[k : k + 1], 0.01), model, "rk4").x.K[0])
    assert np.array_equal(out[~turning], plain[~turning])
    C = out[turning, :, :3]
    assert np.abs(np.swapaxes(C, -1, -2) @ C - np.eye(3)).max() < 1e-15


def _textbook_rk4(K, dt, W1, model, turning):
    """Reference for rk4: model.rate at the four stage states, summed
    ((2 k2 + k1) + 2 k3) + k4, then one Newton-Schulz step on the attitude
    of the turning elements."""
    h = 0.5 * dt
    k1 = model.rate(K, W1)
    k2 = model.rate(K + h * k1, W1)
    k3 = model.rate(K + h * k2, W1)
    k4 = model.rate(K + dt * k3, W1)
    out = K + (dt / 6.0) * (((2.0 * k2 + k1) + 2.0 * k3) + k4)
    turned = out[turning]
    C = turned[..., :3]
    turned[..., :3] = C @ (1.5 * np.eye(3) - 0.5 * (np.swapaxes(C, -1, -2) @ C))
    out[turning] = turned
    return out


@gravities
@pytest.mark.parametrize("frame,grouping", ALL_COMBOS, ids=lambda c: getattr(c, "value", c))
def test_rk4_step_is_the_textbook_stages(frame, grouping, grav, earth, world):
    # Under position-dependent gravity rk4 steps the written-out stages bit
    # for bit (the path every filter run takes).  Under a position-free
    # column it steps their Taylor polynomial, the same method rounded
    # differently.  A per-element-dt stack that mixes fast and slow turns,
    # with steps up to the 0.1 s guard so the higher-order terms show.
    rng = np.random.default_rng(48)
    n = 5
    st = _stacked_state(rng, frame, grouping, earth, world, n)
    om, f = rng.normal(scale=1.0, size=(n, 3)), rng.normal(scale=3.0, size=(n, 3))
    om[1] *= 1e-4
    dt = np.array([0.1, 0.1, 0.05, 0.01, 0.037])
    turning = np.linalg.norm(om, axis=1) * dt > mechanization._SO3_DRIFT_TURN
    assert turning.any() and not turning.all()
    model = NavModel.of(st, earth, grav, world)
    out = step(st, ImuSample(om, f, dt), model, method="rk4").x.K
    ref = _textbook_rk4(st.x.K, dt[:, None, None], _input_matrix(om, f), model, turning)
    if isinstance(grav, SphericalGravity):
        assert out.tobytes() == ref.tobytes()
    else:
        # Relative to each column's scale: the attitude, v and p.
        assert np.all(np.abs(out - ref) <= 1e-13 * np.abs(ref).max(axis=(0, 1)))


# An interval's samples: the last two dts differ from the rest, so the
# midpoint rule's frame half-rotation is formed for each distinct dt.
_INTERVAL_DT = np.array([0.01, 0.01, 0.01, 0.01, 0.01, 0.0037, 0.005])


# Two of them, 0.1174 s: the midpoint rule's two gravity sub-steps are the
# first seven samples and the last seven.
_TWO_SUBSTEP_DT, _SUBSTEP_BOUNDS = np.tile(_INTERVAL_DT, 2), [0, 7, 14]


def _interval_case(rng, frame, grouping, earth, world, n, dt):
    """A state (a single one for n None, else a stack of n) and inputs over dt."""
    if n is None:
        st, shape = wander(random_nav_state(rng, frame, grouping, earth, world), rng), ()
    else:
        st, shape = _stacked_state(rng, frame, grouping, earth, world, n), (n,)
    L = len(dt)
    return st, rng.normal(scale=0.2, size=(L, *shape, 3)), rng.normal(scale=3.0, size=(L, *shape, 3))


@gravities
@pytest.mark.parametrize("n", [None, 1, 3], ids=["single", "n1", "n3"])
@pytest.mark.parametrize("method", ["midpoint", "rk4"])
@pytest.mark.parametrize("frame,grouping", ALL_COMBOS, ids=lambda c: getattr(c, "value", c))
def test_integrate_matches_chained_steps(frame, grouping, method, n, grav, earth, world):
    # rk4's epoch l+1 is step(epoch l, sample l) bit for bit.  The midpoint
    # rule linearizes gravity once per sub-step, so an interval is the
    # integrates chained over its sub-steps bit for bit; under uniform
    # gravity, where the linearization is exact, it is the one-sample steps
    # chained too.  Either way each element of a stack is its own
    # one-element stack's integrate.
    dt = _TWO_SUBSTEP_DT
    assert mechanization._substeps(dt)[0] == _SUBSTEP_BOUNDS
    st, om, f = _interval_case(np.random.default_rng(45), frame, grouping, earth, world, n, dt)
    L = len(dt)
    model = NavModel.of(st, earth, grav, world)
    blocks = integrate(st, ImuSample(om, f, dt), model, method=method)
    assert blocks.shape == (L + 1, *st.x.K.shape)
    assert np.array_equal(blocks[0], st.x.K)
    for k in range(n or 0):
        one = replace(st, x=SE23.packed(st.x.K[k : k + 1]))
        alone = integrate(one, ImuSample(om[:, k : k + 1], f[:, k : k + 1], dt), model, method=method)
        assert np.array_equal(alone[:, 0], blocks[:, k]), k
    if method == "midpoint":
        x = st
        for b, e in zip(_SUBSTEP_BOUNDS, _SUBSTEP_BOUNDS[1:]):
            sub = integrate(x, ImuSample(om[b:e], f[b:e], dt[b:e]), model)
            assert np.array_equal(blocks[b : e + 1], sub), b
            x = replace(x, x=SE23.packed(sub[-1]))
        if isinstance(grav, SphericalGravity):
            return
    for l in range(L):
        st = step(st, ImuSample(om[l], f[l], float(dt[l])), model, method=method)
        assert np.array_equal(blocks[l + 1], st.x.K), l


@gravities
@pytest.mark.parametrize("frame,grouping", ALL_COMBOS, ids=lambda c: getattr(c, "value", c))
def test_rk4_integrate_takes_one_dt_per_sample_and_element(frame, grouping, grav, earth, world):
    # Under rk4 an (L, n) dt steps element k of an n-element stack with
    # dt[:, k], bit for bit as that element's own integrate does, so the
    # inverse IMU's per-element dt runs the one stepping path.  The midpoint
    # rule takes one dt per sample and refuses it.
    rng = np.random.default_rng(49)
    n = 3
    dt = np.stack([_INTERVAL_DT, _INTERVAL_DT[::-1], np.full(len(_INTERVAL_DT), 0.1)], axis=1)
    st, om, f = _interval_case(rng, frame, grouping, earth, world, n, _INTERVAL_DT)
    om[:, 1] *= 1e-3  # a slow element beside fast ones
    turning = np.linalg.norm(om, axis=-1) * dt > mechanization._SO3_DRIFT_TURN
    assert turning.any() and not turning.all()
    model = NavModel.of(st, earth, grav, world)
    blocks = integrate(st, ImuSample(om, f, dt), model, method="rk4")
    assert blocks.shape == (len(dt) + 1, *st.x.K.shape)
    for k in range(n):
        one = replace(st, x=SE23.packed(st.x.K[k]))
        alone = integrate(one, ImuSample(om[:, k], f[:, k], dt[:, k]), model, method="rk4")
        assert alone.tobytes() == blocks[:, k].tobytes(), k
    with pytest.raises(ValueError, match="rk4"):
        integrate(st, ImuSample(om, f, dt), model, method="midpoint")


@gravities
@pytest.mark.parametrize("method", ["midpoint", "rk4"])
@pytest.mark.parametrize("frame,grouping", ALL_COMBOS, ids=lambda c: getattr(c, "value", c))
def test_step_is_the_one_sample_integrate(frame, grouping, method, grav, earth, world):
    # step forms the one-sample view, a leading axis of 1 on omega, f and
    # dt, and returns integrate's second epoch bit for bit: for a single
    # state and for a stack with a shared dt or, under rk4, one per element.
    rng = np.random.default_rng(50)
    single = wander(random_nav_state(rng, frame, grouping, earth, world), rng)
    stack = _stacked_state(rng, frame, grouping, earth, world, 3)
    cases = [(single, (), 0.01), (stack, (3,), 0.01)]
    if method == "rk4":
        cases.append((stack, (3,), np.array([0.1, 0.01, 0.037])))
    for st, shape, dt in cases:
        om, f = rng.normal(scale=0.2, size=shape + (3,)), rng.normal(scale=3.0, size=shape + (3,))
        model = NavModel.of(st, earth, grav, world)
        stepped = step(st, ImuSample(om, f, dt), model, method=method)
        blocks = integrate(st, ImuSample(om[None], f[None], np.asarray(dt)[None]), model, method=method)
        assert stepped.x.K.tobytes() == blocks[1].tobytes(), (shape, dt)
        assert (stepped.frame, stepped.grouping) == (st.frame, st.grouping)
        assert stepped.r0 is st.r0 and stepped.dv0 is st.dv0


@pytest.mark.parametrize("n", [None, 3], ids=["single", "n3"])
@pytest.mark.parametrize("frame,grouping", ALL_COMBOS, ids=lambda c: getattr(c, "value", c))
def test_midpoint_sub_steps_stay_within_the_gravity_remainder(frame, grouping, n, earth, world):
    # Against the one-sample steps, which evaluate gravity at both stage
    # positions of every sample, the attitude is bit for bit the same and
    # the velocity differs by at most the second-order remainder of
    # gravity's expansion about each sub-step's first position p_b: at
    # most 3 mu d^2 / r^4 per stage input (the central field's second
    # derivative along a unit direction is at most 6 mu / r^4), d the
    # stage positions' greatest distance from p_b and r the least radius
    # within d of it, which enters the velocity over the sub-step's length
    # D and the position over the interval's, plus one ulp of the largest
    # value per sample for the rounding.  In the i frame, at 330 m/s, that
    # is 2.9e-11 m/s; dropping the gradient term would be 3e-6.
    dt = _TWO_SUBSTEP_DT
    st, om, f = _interval_case(np.random.default_rng(45), frame, grouping, earth, world, n, dt)
    L = len(dt)
    model = NavModel.of(st, earth, SphericalGravity(), world)
    blocks = integrate(st, ImuSample(om, f, dt), model)
    ref = [st.x.K]
    for l in range(L):
        st = step(st, ImuSample(om[l], f[l], float(dt[l])), model)
        ref.append(st.x.K)
    ref = np.stack(ref)
    assert np.array_equal(blocks[..., 0:3], ref[..., 0:3])
    remainder = 0.0
    for b, e in zip(_SUBSTEP_BOUNDS, _SUBSTEP_BOUNDS[1:]):
        p_b = ref[b, ..., 4]
        y = np.concatenate((ref[b:e, ..., 3], ref[b:e, ..., 4]), axis=-1)
        q = np.stack([y[l - b] @ model.midpoint_terms(float(dt[l]))[4] for l in range(b, e)])
        d = np.linalg.norm(q.reshape(q.shape[:-1] + (2, 3)) - p_b[..., None, :], axis=-1).max()
        r = np.linalg.norm(model.r_base + p_b, axis=-1).min() - d
        remainder += np.sum(dt[b:e]) * 3.0 * earth.mu * d * d / r**4
    for col, bound in ((3, remainder), (4, np.sum(dt) * remainder)):
        rounding = L * np.spacing(np.abs(ref[..., col]).max())
        assert np.abs(blocks[..., col] - ref[..., col]).max() <= bound + rounding, col


def test_midpoint_evaluates_gravity_once_per_sub_step(earth, world, monkeypatch):
    # 25 samples of 10 ms are three sub-steps, [0, 8), [8, 16) and [16, 25):
    # three gravitation calls, each on the stack of the three elements.
    rng = np.random.default_rng(49)
    st = _stacked_state(rng, Frame.W, Grouping.PROPOSED, earth, world, 3)
    om, f = rng.normal(scale=0.2, size=(25, 3, 3)), rng.normal(scale=3.0, size=(25, 3, 3))
    shapes, real = [], mechanization.gravitation

    def counted(r, *args):
        shapes.append(np.shape(r))
        return real(r, *args)

    monkeypatch.setattr(mechanization, "gravitation", counted)
    integrate(st, ImuSample(om, f, np.full(25, 0.01)), NavModel.of(st, earth, SphericalGravity(), world))
    assert shapes == [(3, 3)] * 3


def _columnwise_midpoint(K, om, f, dts, model):
    """Reference for the midpoint rule: per sample, the attitude H (H C B) B
    and the velocity and position rates of each column evaluated at the
    sample's start and again at its half-step state."""

    def mv(A, x):
        return (A @ x[..., None])[..., 0]

    def rates(C, v, p, f_b):
        r = model.r_base + p
        dv = mv(C, f_b) + gravitation(r, model.gravity_model, model.earth)
        if model.fold:
            return dv - mv(model.OmOm, r) - 2.0 * mv(model.Om, v), v
        return dv - mv(model.Om, v + model.dv0), v - mv(model.Om, p)

    C, v, p = K[..., 0:3], K[..., 3], K[..., 4]
    blocks = [K]
    for om_l, f_l, dt in zip(om, f, dts.tolist()):
        h = 0.5 * dt
        H, B = so3_exp(-h * model.omega), so3_exp(h * om_l)
        C_mid = H @ C @ B
        dv1, dp1 = rates(C, v, p, f_l)
        dv2, dp2 = rates(C_mid, v + h * dv1, p + h * dp1, f_l)
        C, v, p = H @ C_mid @ B, v + dt * dv2, p + dt * dp2
        blocks.append(np.concatenate((C, v[..., None], p[..., None]), axis=-1))
    return np.stack(blocks)


@gravities
@pytest.mark.parametrize("n", [None, 1, 3], ids=["single", "n1", "n3"])
@pytest.mark.parametrize("frame,grouping", ALL_COMBOS, ids=lambda c: getattr(c, "value", c))
def test_midpoint_matches_columnwise_reference(frame, grouping, n, grav, earth, world):
    # The affine velocity/position recursion is the column-wise midpoint
    # rule rearranged: equal up to rounding over a mixed-dt interval.
    rng = np.random.default_rng(47)
    if n is None:
        st, shape = wander(random_nav_state(rng, frame, grouping, earth, world), rng), ()
    else:
        st, shape = _stacked_state(rng, frame, grouping, earth, world, n), (n,)
    L = len(_INTERVAL_DT)
    om, f = rng.normal(scale=0.2, size=(L, *shape, 3)), rng.normal(scale=3.0, size=(L, *shape, 3))
    model = NavModel.of(st, earth, grav, world)
    blocks = integrate(st, ImuSample(om, f, _INTERVAL_DT), model)
    ref = _columnwise_midpoint(st.x.K, om, f, _INTERVAL_DT, model)
    assert np.abs(blocks - ref).max() <= 1e-12 * np.abs(ref).max()


def test_integrate_guards_and_names_the_failing_sample(earth, world, monkeypatch):
    rng = np.random.default_rng(46)
    st = _stacked_state(rng, Frame.E, Grouping.TRADITIONAL, earth, world, 3)
    model = NavModel.of(st, earth, SphericalGravity(), world)
    zeros = np.zeros((4, 3, 3))
    with pytest.raises(ValueError, match="exceeds"):
        integrate(st, ImuSample(zeros, zeros, np.array([0.01, 0.01, 0.2, 0.01])), model)
    with pytest.raises(ValueError, match="one dt per sample"):
        integrate(st, ImuSample(zeros[0], zeros[0], 0.01), model)
    # A failure at sample 2 on element 1 of the 3 the state holds is element
    # 2*3 + 1 of the (4, 3) stack; a single state's is element 2.
    calls = []
    real = mechanization._rk4_update

    def failing_at_third_sample(K, *args):
        calls.append(None)
        if len(calls) == 3:
            r = np.full(K[..., 0].shape, 1e7)  # one position per element
            r[bad] = 0.0
            gravitation(r, SphericalGravity(), earth)
        return real(K, *args)

    monkeypatch.setattr(mechanization, "_rk4_update", failing_at_third_sample)
    bad = 1
    with pytest.raises(SingularRadius, match="^element 1 of the stack") as info:
        integrate(st, ImuSample(zeros, zeros, np.full(4, 0.01)), model, method="rk4")
    assert info.value.element == 7
    calls.clear()
    bad = ...
    one = replace(st, x=SE23.packed(st.x.K[0]))
    with pytest.raises(SingularRadius, match="^radius") as info:
        integrate(one, ImuSample(zeros[:, 0], zeros[:, 0], np.full(4, 0.01)), model, method="rk4")
    assert info.value.element == 2


@pytest.mark.parametrize("frame", [Frame.E, Frame.W])
def test_regrouped_derivatives_agree(frame, earth, world):
    # d/dt of the conversion identities: same dp, and dv_prop = dv_trad + w x v.
    rng = np.random.default_rng(38)
    omega = earth_rate(frame.value, earth, world)
    for _ in range(20):
        st = wander(random_nav_state(rng, frame, Grouping.TRADITIONAL, earth, world), rng)
        prop = nav_from_physical(frame, Grouping.PROPOSED, *physical_from_nav(st, earth, world), earth, world,
                                 r0=st.r0)
        imu = random_imu(rng)
        dX_t, _ = derivative(st, imu, NavModel.of(st, earth, SphericalGravity(), world))
        dX_p, _ = derivative(prop, imu, NavModel.of(prop, earth, SphericalGravity(), world))
        assert np.allclose(dX_p[0:3, 4], dX_t[0:3, 4], atol=1e-10)
        assert np.allclose(dX_p[0:3, 3], dX_t[0:3, 3] + np.cross(omega, st.x.v), atol=1e-9)
        assert np.allclose(dX_p[0:3, 0:3], dX_t[0:3, 0:3], atol=1e-12)


@pytest.mark.parametrize("frame,grouping", ALL_COMBOS, ids=lambda c: getattr(c, "value", c))
def test_physical_roundtrip(frame, grouping, earth, world):
    rng = np.random.default_rng(39)
    for t in (0.0, 137.25):
        C_b_e = random_rotation(rng)
        v_eb_e = rng.normal(scale=10.0, size=3)
        r_eb_e = world.r_ew_e + rng.normal(scale=1e3, size=3)
        st = nav_from_physical(frame, grouping, C_b_e, v_eb_e, r_eb_e, earth, world, t=t)
        C2, v2, r2 = physical_from_nav(st, earth, world, t=t)
        assert np.abs(C2 - C_b_e).max() < 1e-12
        assert np.allclose(v2, v_eb_e, atol=1e-9)
        assert np.allclose(r2, r_eb_e, atol=1e-7)
        # Stored-anchor path: same physical point expressed against old anchors.
        st2 = nav_from_physical(
            frame, grouping, C_b_e, v_eb_e, r_eb_e, earth, world, t=t, r0=st.r0, dv0=st.dv0
        )
        assert np.allclose(st2.x.as_matrix(), st.x.as_matrix(), atol=1e-9)
        assert np.allclose(st2.dv0, st.dv0)


@pytest.mark.parametrize("frame,grouping", ALL_COMBOS, ids=lambda c: getattr(c, "value", c))
def test_stacked_physical_conversion_is_elementwise(frame, grouping, earth, world):
    # A stack of epochs with one t each converts, both ways, bit for bit as
    # each epoch converted alone against the same anchors.
    rng = np.random.default_rng(42)
    t = np.array([0.0, 0.01, 137.25, 3600.0])
    C_b_e = np.stack([random_rotation(rng) for _ in t])
    v_eb_e = rng.normal(scale=10.0, size=(len(t), 3))
    r_eb_e = world.r_ew_e + rng.normal(scale=1e3, size=(len(t), 3))
    anchor = nav_from_physical(frame, grouping, C_b_e[0], v_eb_e[0], r_eb_e[0], earth, world)
    stack = nav_from_physical(
        frame, grouping, C_b_e, v_eb_e, r_eb_e, earth, world, t=t, r0=anchor.r0, dv0=anchor.dv0
    )
    back = physical_from_nav(stack, earth, world, t)
    for k, tk in enumerate(t):
        one = nav_from_physical(
            frame, grouping, C_b_e[k], v_eb_e[k], r_eb_e[k], earth, world, t=tk, r0=anchor.r0, dv0=anchor.dv0
        )
        for a, b in ((stack.x.R[k], one.x.R), (stack.x.v[k], one.x.v), (stack.x.p[k], one.x.p)):
            assert np.array_equal(a, b)
        assert np.array_equal(stack.dv0, one.dv0)
        for a, b in zip(back, physical_from_nav(one, earth, world, tk)):
            assert np.array_equal(a[k], b)


def test_dv0_without_r0_rejected(earth, world):
    C_b_e, v_eb_e, r_eb_e = np.eye(3), np.zeros(3), world.r_ew_e
    with pytest.raises(ValueError, match="dv0 needs r0"):
        nav_from_physical(Frame.E, Grouping.PROPOSED, C_b_e, v_eb_e, r_eb_e, earth, world, dv0=np.zeros(3))


def test_body_velocity_definitions(earth, world):
    rng = np.random.default_rng(40)
    st = random_nav_state(rng, Frame.E, Grouping.TRADITIONAL, earth, world)
    assert np.allclose(body_velocity(st, earth, world), st.x.R.T @ st.x.v)
    # In the i-frame the earth-relative velocity subtracts the transport term.
    sti = random_nav_state(rng, Frame.I, Grouping.TRADITIONAL, earth, world)
    omega = earth_rate("i", earth)
    expect = sti.x.R.T @ (sti.x.v - np.cross(omega, sti.r0 + sti.x.p))
    assert np.allclose(body_velocity(sti, earth, world), expect)


def test_cross_frame_consistency_short(earth, world):
    # One physical motion, propagated independently in i, e and w, must give
    # the same physical trajectory.
    rng = np.random.default_rng(41)
    C_b_e = random_rotation(rng)
    v_eb_e = np.array([12.0, -3.0, 1.5])
    r_eb_e = world.r_ew_e + np.array([100.0, 50.0, -20.0])
    imu = ImuSample(np.array([0.05, -0.02, 0.3]), np.array([0.5, -1.0, 9.0]), 0.01)
    n = 200
    t_end = n * imu.dt

    states = {}
    for frame in (Frame.I, Frame.E, Frame.W):
        st = nav_from_physical(frame, Grouping.TRADITIONAL, C_b_e, v_eb_e, r_eb_e, earth, world, t=0.0)
        model = NavModel.of(st, earth, SphericalGravity(), world)
        for _ in range(n):
            st = step(st, imu, model, method="rk4")
        states[frame] = physical_from_nav(st, earth, world, t=t_end)

    for other in (Frame.E, Frame.W):
        Ci, vi, ri = states[Frame.I]
        Co, vo, ro = states[other]
        assert np.linalg.norm(ri - ro) < 1e-6
        assert np.linalg.norm(vi - vo) < 1e-7
        assert np.linalg.norm(so3_log(Ci.T @ Co)) < 1e-9
