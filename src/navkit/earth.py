"""Earth rotation, gravitation fields, and the i/e/w frame map.

Conventions: the i-frame coincides with the e-frame at t=0 and shares its
polar (z) axis, so the earth rate is (0, 0, omega_ie) in both; the w-frame
is an earth-fixed tangent frame given by a WorldFrameDef (NED at a surface
point by default).  _frame_map is the one place that knows how the three
sit relative to e; earth_rate, mechanization's conversions and NavModel
are built on it.  The Uniform gravity variant
returns its gamma0 vector unchanged in whichever frame the caller
mechanizes in — it is a constant test field, not a frame-consistent
physical one; use Spherical for cross-frame physics.  A filtered run's
w-frame truth takes the filter's gamma0 turned into w, and refuses it in i
(simulate._scenario_blocks).
"""
from __future__ import annotations

from dataclasses import dataclass, field
from typing import Union

import numpy as np

from .se23 import KernelDomainError, _domain_error, so3_exp, transpose

__all__ = [
    "SingularRadius",
    "EarthParams",
    "UniformGravity",
    "SphericalGravity",
    "GravityModel",
    "WorldFrameDef",
    "ned_world",
    "earth_rate",
    "gravitation",
    "gravitation_gradient",
]

_MIN_RADIUS = 1e5  # m; spherical field is singular at the center
_I3 = np.eye(3)


class SingularRadius(KernelDomainError):
    """Spherical gravitation evaluated too close to the earth center."""


@dataclass(frozen=True)
class EarthParams:
    """Earth rate, gravitational parameter, and reference radius."""

    omega_ie: float = 7.2921151467e-5  # rad/s
    mu: float = 3.986004418e14  # m^3/s^2
    re: float = 6378137.0  # m


@dataclass(frozen=True)
class UniformGravity:
    """Constant gravitation vector (frame of use); zero gradient."""

    gamma0: np.ndarray = field(default_factory=lambda: np.zeros(3))


@dataclass(frozen=True)
class SphericalGravity:
    """Central field -mu r / ||r||^3 about the earth center."""


GravityModel = Union[UniformGravity, SphericalGravity]


@dataclass(frozen=True)
class WorldFrameDef:
    """w-frame origin (from earth center, e coords) and e->w rotation."""

    r_ew_e: np.ndarray
    C_e_w: np.ndarray


def ned_world(origin_e: np.ndarray, params: EarthParams | None = None) -> WorldFrameDef:
    """North-east-down w-frame anchored at an e-frame surface point.  North
    is undefined at the poles (ValueError): give WorldFrameDef a C_e_w there."""
    origin_e = np.asarray(origin_e, dtype=float)
    rn = np.linalg.norm(origin_e)
    if rn < _MIN_RADIUS:
        raise SingularRadius(f"w-frame origin radius {rn:.1f} m is too small")
    down = -origin_e / rn
    east = np.cross([0.0, 0.0, 1.0], origin_e)
    en = np.linalg.norm(east)
    if en < 1e-6 * rn:
        raise ValueError("NED frame is degenerate at the poles")
    east /= en
    north = np.cross(east, down)
    C_e_w = np.vstack([north, east, down])
    return WorldFrameDef(r_ew_e=origin_e, C_e_w=C_e_w)


def earth_rate(frame: str, params: EarthParams, world: WorldFrameDef | None = None) -> np.ndarray:
    """Earth rotation rate resolved in frame 'i', 'e', or 'w'."""
    C, _, _ = _frame_map(frame, params, world)  # i at t = 0: it shares e's polar axis
    return transpose(C) @ np.array([0.0, 0.0, params.omega_ie])


def _radius(r: np.ndarray) -> np.ndarray:
    """||r|| over the last axis, guarded against the earth center."""
    rn = np.sqrt(np.add.reduce(r * r, axis=-1))
    if not np.minimum.reduce(rn, axis=None) > _MIN_RADIUS:  # a NaN minimum fails too
        raise _domain_error(
            SingularRadius, ~(rn > _MIN_RADIUS), r.ndim == 1,
            lambda i: f"radius {rn.flat[i]:.1f} m is inside the {_MIN_RADIUS:.0e} m guard",
        )
    return rn


def gravitation(r: np.ndarray, model: GravityModel, params: EarthParams) -> np.ndarray:
    """Gravitational acceleration at earth-centered radius vectors r, (..., 3).

    A uniform field returns its single gamma0 vector, which broadcasts
    against any batch.
    """
    if isinstance(model, UniformGravity):
        return np.asarray(model.gamma0, dtype=float)
    r = np.asarray(r, dtype=float)
    rn = _radius(r)
    return r * (-params.mu / (rn * rn * rn))[..., None]


def gravitation_gradient(r: np.ndarray, model: GravityModel, params: EarthParams) -> np.ndarray:
    """Jacobian of gravitation w.r.t. position at r, (..., 3).

    The uniform field's zero gradient is a single 3x3 matrix that
    broadcasts against any batch.
    """
    if isinstance(model, UniformGravity):
        return np.zeros((3, 3))
    r = np.asarray(r, dtype=float)
    rn = _radius(r)
    rhat = r / rn[..., None]
    outer = rhat[..., :, None] * rhat[..., None, :]
    return (-params.mu / (rn * rn * rn))[..., None, None] * (_I3 - 3.0 * outer)


def _frame_map(f: str, params: EarthParams, world: WorldFrameDef | None = None, t=0.0) -> tuple:
    """(C, o, w) of frame f at time t: x_e = C x_f + o for point positions,
    and w the e frame's rate relative to f in f axes (the earth rate in i,
    zero in e and w).  An array t gives one i-frame C per time, (..., 3, 3)."""
    if f == "e":
        return _I3, np.zeros(3), np.zeros(3)
    if f == "i":
        phi = np.zeros(np.shape(t) + (3,))
        phi[..., 2] = -params.omega_ie * t
        return so3_exp(phi), np.zeros(3), np.array([0.0, 0.0, params.omega_ie])
    if f == "w":
        if world is None:
            raise ValueError("the w frame needs a WorldFrameDef")
        return world.C_e_w.T, world.r_ew_e, np.zeros(3)
    raise ValueError(f"unknown frame {f!r}")

