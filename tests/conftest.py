"""Shared fixtures and random-state factories for the test suite."""
from __future__ import annotations

from dataclasses import replace

import numpy as np
import pytest

from navkit import (
    SE23,
    EarthParams,
    Frame,
    Grouping,
    NavState,
    TangentVector,
    WorldFrameDef,
    make_nav_state,
    ned_world,
    so3_exp,
)


def random_rotation(rng: np.random.Generator, max_angle: float = 3.0) -> np.ndarray:
    axis = rng.normal(size=3)
    axis /= np.linalg.norm(axis)
    return so3_exp(axis * rng.uniform(0.0, max_angle))


def random_se23(rng: np.random.Generator, scale_v: float = 10.0, scale_p: float = 100.0) -> SE23:
    return SE23(
        random_rotation(rng),
        rng.normal(scale=scale_v, size=3),
        rng.normal(scale=scale_p, size=3),
    )


def random_tangent(rng: np.random.Generator, max_angle: float = 3.0) -> TangentVector:
    axis = rng.normal(size=3)
    axis /= np.linalg.norm(axis)
    return TangentVector(
        axis * rng.uniform(0.0, max_angle),
        rng.normal(scale=5.0, size=3),
        rng.normal(scale=50.0, size=3),
    )


@pytest.fixture
def earth() -> EarthParams:
    return EarthParams()


@pytest.fixture
def world(earth: EarthParams) -> WorldFrameDef:
    # Mid-latitude surface point (45 deg) on the reference sphere.
    lat = np.deg2rad(45.0)
    origin = earth.re * np.array([np.cos(lat), 0.0, np.sin(lat)])
    return ned_world(origin, earth)


def random_nav_state(
    rng: np.random.Generator,
    frame: Frame,
    grouping: Grouping,
    earth: EarthParams,
    world: WorldFrameDef,
    speed: float = 10.0,
) -> NavState:
    """Kinematically sensible random state near the w-frame origin."""
    C = random_rotation(rng)
    v = rng.normal(scale=speed, size=3)
    if frame is Frame.W:
        r = rng.normal(scale=1000.0, size=3)
        return make_nav_state(frame, grouping, C, v, r, earth, world)
    r_e = world.r_ew_e + world.C_e_w.T @ rng.normal(scale=1000.0, size=3)
    if frame is Frame.E:
        return make_nav_state(frame, grouping, C, v, r_e, earth, world)
    # i-frame: treat the random velocity as earth-relative, add transport.
    omega = np.array([0.0, 0.0, earth.omega_ie])
    return make_nav_state(frame, grouping, C, v + np.cross(omega, r_e), r_e, earth, world)


def wander(state: NavState, rng: np.random.Generator) -> NavState:
    """A mid-run state of the same anchored run (nonzero group position)."""
    x = SE23(
        state.x.R,
        state.x.v + rng.normal(scale=5.0, size=3),
        rng.normal(scale=200.0, size=3),
    )
    return replace(state, x=x)
