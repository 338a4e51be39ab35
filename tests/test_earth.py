"""Earth rate, gravity models, and frame transforms."""
from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from navkit import (
    EarthParams,
    SingularRadius,
    SphericalGravity,
    UniformGravity,
    earth_rate,
    frame_transform,
    gravitation,
    gravitation_gradient,
    gravity,
    ned_world,
    so3_exp,
)


def test_earth_rate_values(earth, world):
    # i and e share their polar axis, so the rotation vector reads the same.
    assert np.allclose(earth_rate("i", earth), [0.0, 0.0, 7.2921151467e-5])
    assert np.allclose(earth_rate("e", earth), [0.0, 0.0, 7.2921151467e-5])
    # w-frame rate is the e-frame rate rotated into the world frame.
    w = earth_rate("w", earth, world)
    assert np.isclose(np.linalg.norm(w), earth.omega_ie)
    assert np.allclose(w, world.C_e_w @ [0.0, 0.0, earth.omega_ie])


def test_spherical_gravitation_surface_magnitude(earth):
    r = np.array([earth.re, 0.0, 0.0])
    g = gravitation(r, SphericalGravity(), earth)
    assert abs(np.linalg.norm(g) - 9.798) < 1e-3
    # Points toward the center.
    assert np.allclose(g / np.linalg.norm(g), [-1.0, 0.0, 0.0], atol=1e-12)


def test_equatorial_gravity_magnitude(earth):
    r = np.array([earth.re, 0.0, 0.0])
    g = gravity(r, SphericalGravity(), earth)
    assert abs(np.linalg.norm(g) - 9.7644) < 1e-3


def test_polar_gravity_equals_gravitation(earth):
    r = np.array([0.0, 0.0, earth.re])
    g = gravity(r, SphericalGravity(), earth)
    assert np.allclose(g, gravitation(r, SphericalGravity(), earth), atol=1e-12)


def test_gravity_minus_gravitation_is_centripetal(earth):
    rng = np.random.default_rng(20)
    omega = np.array([0.0, 0.0, earth.omega_ie])
    for _ in range(20):
        r = rng.normal(scale=earth.re, size=3)
        if np.linalg.norm(r) < 2e5:
            continue
        diff = gravity(r, SphericalGravity(), earth) - gravitation(r, SphericalGravity(), earth)
        assert np.allclose(diff, -np.cross(omega, np.cross(omega, r)), atol=1e-12)


def test_uniform_gravity_constant(earth):
    g0 = np.array([0.0, 0.0, -9.81])
    model = UniformGravity(g0)
    rng = np.random.default_rng(21)
    for _ in range(10):
        r = rng.normal(scale=1e6, size=3)
        assert np.allclose(gravitation(r, model, earth), g0)
        assert np.allclose(gravitation_gradient(r, model, earth), np.zeros((3, 3)))
    # gravity() with zero rotation equals gravitation.
    assert np.allclose(gravity(r, model, earth, omega=np.zeros(3)), g0)


def test_gravitation_gradient_vs_finite_difference(earth):
    rng = np.random.default_rng(22)
    model = SphericalGravity()
    for _ in range(100):
        direction = rng.normal(size=3)
        direction /= np.linalg.norm(direction)
        r = direction * rng.uniform(earth.re, 2 * earth.re)
        G = gravitation_gradient(r, model, earth)
        fd = np.zeros((3, 3))
        h = 1.0
        for j in range(3):
            dr = np.zeros(3)
            dr[j] = h
            fd[:, j] = (
                gravitation(r + dr, model, earth) - gravitation(r - dr, model, earth)
            ) / (2 * h)
        assert np.allclose(G, fd, atol=1e-6 * np.abs(G).max())


def test_gradient_radial_eigenvector(earth):
    r = np.array([earth.re, 0.0, 0.0])
    G = gravitation_gradient(r, SphericalGravity(), earth)
    rhat = r / np.linalg.norm(r)
    expected = 2 * earth.mu / np.linalg.norm(r) ** 3 * rhat
    assert np.allclose(G @ rhat, expected, rtol=1e-12)
    assert np.allclose(G, G.T, atol=1e-20)


def test_singular_radius_guard(earth):
    with pytest.raises(SingularRadius):
        gravitation(np.array([0.0, 0.0, 0.0]), SphericalGravity(), earth)
    with pytest.raises(SingularRadius):
        gravitation_gradient(np.array([1.0, 0.0, 0.0]), SphericalGravity(), earth)


def test_ned_world_axes(earth):
    lat = np.deg2rad(45.0)
    origin = earth.re * np.array([np.cos(lat), 0.0, np.sin(lat)])
    w = ned_world(origin, earth)
    assert np.allclose(w.r_ew_e, origin)
    C = w.C_e_w  # rows are N, E, D expressed in e
    down = -origin / np.linalg.norm(origin)
    assert np.allclose(C[2], down, atol=1e-12)
    east = np.cross([0.0, 0.0, 1.0], origin)
    east /= np.linalg.norm(east)
    assert np.allclose(C[1], east, atol=1e-12)
    assert np.allclose(C @ C.T, np.eye(3), atol=1e-12)
    assert np.isclose(np.linalg.det(C), 1.0)
    with pytest.raises(ValueError):
        ned_world(np.array([0.0, 0.0, earth.re]), earth)


def test_frame_transform_identity_at_t0(earth, world):
    C, o = frame_transform("i", "e", earth, t=0.0)
    assert np.allclose(C, np.eye(3))
    assert np.allclose(o, 0.0)
    C, o = frame_transform("e", "e", earth)
    assert np.allclose(C, np.eye(3))
    assert np.allclose(o, 0.0)


def test_frame_transform_i_to_e_sidereal(earth):
    t_sid = 86164.1
    C, _ = frame_transform("i", "e", earth, t=t_sid)
    angle = np.arccos(np.clip((np.trace(C) - 1) / 2, -1.0, 1.0))
    # One sidereal day ~ full turn: rotation angle is within 1e-4 of 0 mod 2*pi.
    assert angle < 1e-4
    # Quarter day rotates about the polar axis by -omega*t (i -> e).
    t = 0.25 * t_sid
    C, _ = frame_transform("i", "e", earth, t=t)
    assert np.allclose(C, so3_exp([0.0, 0.0, -earth.omega_ie * t]), atol=1e-12)


def test_frame_transform_takes_an_array_of_times(earth, world):
    t = np.array([0.0, 10.0, 4000.0])
    C, o = frame_transform("i", "w", earth, world, t=t)
    assert C.shape == (3, 3, 3)
    for k, tk in enumerate(t):
        Ck, ok = frame_transform("i", "w", earth, world, t=tk)
        assert np.array_equal(C[k], Ck) and np.array_equal(np.broadcast_to(o, (3, 3))[k], ok)


def test_frame_transform_e_w_roundtrip(earth, world):
    rng = np.random.default_rng(23)
    r_e = world.r_ew_e + rng.normal(scale=1e4, size=3)
    C_ew, o_ew = frame_transform("e", "w", earth, world)
    C_we, o_we = frame_transform("w", "e", earth, world)
    r_w = C_ew @ r_e + o_ew
    back = C_we @ r_w + o_we
    assert np.allclose(back, r_e, atol=1e-8)
    # Point at the world origin maps to zero.
    assert np.allclose(C_ew @ world.r_ew_e + o_ew, 0.0, atol=1e-8)


def test_frame_transform_composition(earth, world):
    rng = np.random.default_rng(24)
    t = 1234.5
    r_i = world.r_ew_e + rng.normal(scale=1e4, size=3)
    C_iw, o_iw = frame_transform("i", "w", earth, world, t=t)
    C_ie, o_ie = frame_transform("i", "e", earth, t=t)
    C_ew, o_ew = frame_transform("e", "w", earth, world)
    direct = C_iw @ r_i + o_iw
    via_e = C_ew @ (C_ie @ r_i + o_ie) + o_ew
    assert np.allclose(direct, via_e, atol=1e-10 * max(1.0, np.abs(via_e).max()))


def test_default_params_frozen():
    p = EarthParams()
    assert p.omega_ie == 7.2921151467e-5
    assert p.mu == 3.986004418e14
    assert p.re == 6378137.0
    with pytest.raises(Exception):
        p.mu = 0.0


def test_stacked_gravitation_matches_scalar(earth, world):
    rng = np.random.default_rng(33)
    r = world.r_ew_e + rng.normal(scale=1e4, size=(5, 3))
    model = SphericalGravity()
    g = gravitation(r, model, earth)
    G = gravitation_gradient(r, model, earth)
    for k in range(5):
        assert np.allclose(g[k], gravitation(r[k], model, earth), rtol=1e-15, atol=0.0)
        assert np.allclose(G[k], gravitation_gradient(r[k], model, earth), rtol=1e-14, atol=1e-22)
    with pytest.raises(SingularRadius, match="element 5") as info:
        gravitation(np.vstack([r, np.zeros((1, 3))]), model, earth)
    assert info.value.element == 5
    with pytest.raises(SingularRadius) as info:
        gravitation(np.zeros(3), model, earth)
    assert info.value.element is None
    assert "element" not in str(info.value)
    # NaN fails the radius guard too, single and stacked, for both kernels.
    for kernel in (gravitation, gravitation_gradient):
        with pytest.raises(SingularRadius) as info:
            kernel(np.full(3, np.nan), model, earth)
        assert info.value.element is None
        with pytest.raises(SingularRadius, match="element 3") as info:
            kernel(np.vstack([r[:3], [np.nan, 0.0, 0.0], r[3:]]), model, earth)
        assert info.value.element == 3


_POLE_BAND = 1e-6  # ned_world refuses origins whose horizontal radius is below this share of |origin|


def _near_pole(colatitude, longitude, north, earth):
    s, z = np.sin(colatitude), np.cos(colatitude) if north else -np.cos(colatitude)
    return earth.re * np.array([s * np.cos(longitude), s * np.sin(longitude), z])


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(
    colatitude=st.floats(0.0, 0.99 * _POLE_BAND) | st.floats(1.01 * _POLE_BAND, 1e-3),
    longitude=st.floats(0.0, 2.0 * np.pi),
    north=st.booleans(),
)
def test_ned_world_near_the_poles(colatitude, longitude, north):
    earth = EarthParams()
    origin = _near_pole(colatitude, longitude, north, earth)
    if colatitude < _POLE_BAND:
        with pytest.raises(ValueError, match="poles"):
            ned_world(origin, earth)
        return
    C = ned_world(origin, earth).C_e_w
    assert np.abs(C @ C.T - np.eye(3)).max() <= 1e-12
    assert np.linalg.det(C) == pytest.approx(1.0, abs=1e-12)  # right-handed
    assert np.abs(C[2] + origin / np.linalg.norm(origin)).max() <= 1e-15  # down
    assert np.abs(C[1, 2]) <= 1e-15  # east is horizontal
