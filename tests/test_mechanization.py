"""Strapdown mechanization: ODE oracles, integrators, regrouping, frames."""
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
    frame_velocity,
    from_proposed,
    gravitation,
    gravity,
    integrate,
    make_nav_state,
    nav_from_physical,
    physical_from_nav,
    skew,
    so3_exp,
    so3_log,
    step,
    to_proposed,
)
import navkit.mechanization as mechanization
from navkit.mechanization import NavModel, _input_matrix
from conftest import random_nav_state, random_rotation

ALL_COMBOS = [
    (Frame.I, Grouping.TRADITIONAL),
    (Frame.I, Grouping.PROPOSED),
    (Frame.E, Grouping.TRADITIONAL),
    (Frame.E, Grouping.PROPOSED),
    (Frame.W, Grouping.TRADITIONAL),
    (Frame.W, Grouping.PROPOSED),
]


def random_imu(rng, dt=0.01):
    return ImuSample(
        omega_ib_b=rng.normal(scale=0.2, size=3),
        f_ib_b=rng.normal(scale=3.0, size=3),
        dt=dt,
    )


def wander(state, rng):
    """A mid-run state of the same anchored run (nonzero group position)."""
    x = SE23(
        state.x.R,
        state.x.v + rng.normal(scale=5.0, size=3),
        rng.normal(scale=200.0, size=3),
    )
    return replace(state, x=x)


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
        rebuilt = X @ w.W1 + w.W2 @ X
        if w.has_w34:
            rebuilt = rebuilt + w.W3 @ X @ w.W4
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
    assert w.has_w34 == weak
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
    g = gravity(r_center, SphericalGravity(), earth, omega=omega)
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


def _final_state(frame, earth, world, dt, n, method):
    rng = np.random.default_rng(34)
    C0 = random_rotation(rng)
    st = make_nav_state(frame, Grouping.TRADITIONAL, C0, np.array([30.0, 5.0, -2.0]), world.r_ew_e.copy(), earth, world)
    imu = ImuSample(omega_ib_b=np.array([0.02, -0.05, 0.1]), f_ib_b=np.array([1.0, -2.0, 9.8]), dt=dt)
    model = NavModel.of(st, earth, SphericalGravity(), world)
    for _ in range(n):
        st = step(st, imu, model, method=method)
    return st


def _state_distance(a, b):
    return np.linalg.norm(a.x.as_matrix() - b.x.as_matrix())


def test_rk4_fourth_order(earth, world):
    ref = _final_state(Frame.E, earth, world, 0.8 / 1024, 1024, "rk4")
    e1 = _state_distance(_final_state(Frame.E, earth, world, 0.05, 16, "rk4"), ref)
    e2 = _state_distance(_final_state(Frame.E, earth, world, 0.025, 32, "rk4"), ref)
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
    # A model of another frame or grouping is refused.
    with pytest.raises(FrameMismatch, match="proposed-e state given to the traditional-e model"):
        step(to_proposed(st, earth, world), ImuSample(np.zeros(3), np.zeros(3), 0.01), model)
    # One dt per element: a single element over the guard is enough.
    stack = _stacked_state(rng, Frame.E, Grouping.TRADITIONAL, earth, world, 3)
    zeros = np.zeros((3, 3))
    with pytest.raises(ValueError, match="exceeds"):
        step(stack, ImuSample(zeros, zeros, np.array([0.01, 0.2, 0.01])), model, method="rk4")
    # Midpoint takes one dt; at n=3 a (3,) dt would broadcast against the (3, 3) vectors unnoticed.
    with pytest.raises(ValueError, match="rk4"):
        step(stack, ImuSample(zeros, zeros, np.full(3, 0.01)), model)


@pytest.mark.parametrize(
    "grav", [SphericalGravity(), UniformGravity(np.array([0.0, 0.0, 9.8]))], ids=["spherical", "uniform"]
)
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


@pytest.mark.parametrize("frame,grouping", ALL_COMBOS)
def test_rk4_dt_per_element_matches_one_element_stacks(frame, grouping, earth, world):
    rng = np.random.default_rng(40)
    n = 5
    st = _stacked_state(rng, frame, grouping, earth, world, n)
    om, f = rng.normal(scale=0.2, size=(n, 3)), rng.normal(scale=3.0, size=(n, 3))
    dt = np.array([0.01, 0.01, 0.01, 0.01, 0.0037])  # the last grid interval is shorter
    model = NavModel.of(st, earth, SphericalGravity(), world)
    out = step(st, ImuSample(om, f, dt), model, method="rk4").x
    for k in range(n):
        one = replace(st, x=SE23(st.x.R[k : k + 1], st.x.v[k : k + 1], st.x.p[k : k + 1]))
        ref = step(one, ImuSample(om[k : k + 1], f[k : k + 1], float(dt[k])), model, method="rk4").x
        for a, b in ((out.R[k], ref.R[0]), (out.v[k], ref.v[0]), (out.p[k], ref.p[0])):
            assert np.array_equal(a, b), k


# An interval's samples: the last two dts differ from the rest, so the
# midpoint rule's frame half-rotation is formed for each distinct dt.
_INTERVAL_DT = np.array([0.01, 0.01, 0.01, 0.01, 0.01, 0.0037, 0.005])


@pytest.mark.parametrize("n", [None, 1, 3], ids=["single", "n1", "n3"])
@pytest.mark.parametrize("method", ["midpoint", "rk4"])
@pytest.mark.parametrize("frame,grouping", ALL_COMBOS, ids=lambda c: getattr(c, "value", c))
def test_integrate_matches_chained_steps(frame, grouping, method, n, earth, world):
    rng = np.random.default_rng(45)
    if n is None:
        st, shape = wander(random_nav_state(rng, frame, grouping, earth, world), rng), ()
    else:
        st, shape = _stacked_state(rng, frame, grouping, earth, world, n), (n,)
    L = len(_INTERVAL_DT)
    om, f = rng.normal(scale=0.2, size=(L, *shape, 3)), rng.normal(scale=3.0, size=(L, *shape, 3))
    model = NavModel.of(st, earth, SphericalGravity(), world)
    blocks = integrate(st, ImuSample(om, f, _INTERVAL_DT), model, method=method)
    assert blocks.shape == (L + 1, *shape, 3, 5)
    assert np.array_equal(blocks[0], st.x.K)
    for l in range(L):
        st = step(st, ImuSample(om[l], f[l], float(_INTERVAL_DT[l])), model, method=method)
        assert np.array_equal(blocks[l + 1], st.x.K), l


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


@pytest.mark.parametrize("frame", [Frame.I, Frame.E, Frame.W])
def test_regrouping_roundtrip(frame, earth, world):
    rng = np.random.default_rng(37)
    for _ in range(20):
        st = wander(random_nav_state(rng, frame, Grouping.TRADITIONAL, earth, world), rng)
        prop = to_proposed(st, earth, world)
        assert prop.grouping is Grouping.PROPOSED
        assert np.allclose(prop.x.p, st.x.p)
        back = from_proposed(prop, earth, world)
        assert np.allclose(back.x.v, st.x.v, atol=1e-12 * max(1.0, np.abs(st.x.v).max()))
        assert np.allclose(back.x.p, st.x.p)
        assert np.allclose(back.r0, st.r0)
        # Both describe the same physics.
        assert np.allclose(frame_velocity(prop, earth, world), frame_velocity(st, earth, world), atol=1e-9)
    with pytest.raises(FrameMismatch):
        to_proposed(prop, earth, world)
    with pytest.raises(FrameMismatch):
        from_proposed(st, earth, world)


@pytest.mark.parametrize("frame", [Frame.E, Frame.W])
def test_regrouped_derivatives_agree(frame, earth, world):
    # d/dt of the conversion identities: same dp, and dv_prop = dv_trad + w x v.
    rng = np.random.default_rng(38)
    omega = earth_rate(frame.value, earth, world)
    for _ in range(20):
        st = wander(random_nav_state(rng, frame, Grouping.TRADITIONAL, earth, world), rng)
        prop = to_proposed(st, earth, world)
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
