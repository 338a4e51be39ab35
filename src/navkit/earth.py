"""Earth rotation, gravitation/gravity fields, and i/e/w frame transforms.

Conventions: the i-frame coincides with the e-frame at t=0 and shares its
polar (z) axis, so the earth rate is (0, 0, omega_ie) in both; the w-frame
is an earth-fixed tangent frame given by a WorldFrameDef (NED at a surface
point by default). The Uniform gravity variant returns its gamma0 vector
unchanged in whichever frame the caller mechanizes in — it is a constant
test field, not a frame-consistent physical one; use Spherical for
cross-frame physics.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from typing import Union

import numpy as np

from .se23 import KernelDomainError, _domain_error, matvec, so3_exp, transpose

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
    "gravity",
    "gravitation_gradient",
    "frame_transform",
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
    """North-east-down w-frame anchored at an e-frame surface point."""
    origin_e = np.asarray(origin_e, dtype=float)
    rn = np.linalg.norm(origin_e)
    if rn < _MIN_RADIUS:
        raise SingularRadius(f"w-frame origin radius {rn:.1f} m is too small")
    down = -origin_e / rn
    east = np.cross([0.0, 0.0, 1.0], origin_e)
    en = np.linalg.norm(east)
    if en < 1e-6 * rn:
        raise ValueError("NED frame is degenerate at the poles; give C_e_w explicitly")
    east /= en
    north = np.cross(east, down)
    C_e_w = np.vstack([north, east, down])
    return WorldFrameDef(r_ew_e=origin_e, C_e_w=C_e_w)


def earth_rate(frame: str, params: EarthParams, world: WorldFrameDef | None = None) -> np.ndarray:
    """Earth rotation rate resolved in frame 'i', 'e', or 'w'."""
    omega_e = np.array([0.0, 0.0, params.omega_ie])
    if frame in ("i", "e"):
        return omega_e
    if frame == "w":
        if world is None:
            raise ValueError("w-frame earth rate needs a WorldFrameDef")
        return world.C_e_w @ omega_e
    raise ValueError(f"unknown frame {frame!r}")


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


def gravity(
    r: np.ndarray,
    model: GravityModel,
    params: EarthParams,
    omega: np.ndarray | None = None,
) -> np.ndarray:
    """Gravity = gravitation - centrifugal term omega x (omega x r).

    omega defaults to the e-frame earth rate; pass the frame-resolved rate
    when r is expressed in another earth-fixed frame.
    """
    if omega is None:
        omega = np.array([0.0, 0.0, params.omega_ie])
    r = np.asarray(r, dtype=float)
    return gravitation(r, model, params) - np.cross(omega, np.cross(omega, r))


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


def frame_transform(
    frm: str,
    to: str,
    params: EarthParams,
    world: WorldFrameDef | None = None,
    t: float | np.ndarray = 0.0,
) -> tuple[np.ndarray, np.ndarray]:
    """(C, o) with r_to = C @ r_from + o for point positions.

    Positions are earth-centered in i/e and w-origin-relative in w.  An
    array t gives one i-frame rotation per time, C (..., 3, 3), and an o
    that broadcasts against it.
    """
    for f in (frm, to):
        if f not in ("i", "e", "w"):
            raise ValueError(f"unknown frame {f!r}")
        if f == "w" and world is None:
            raise ValueError("w-frame transform needs a WorldFrameDef")

    def to_e(f: str) -> tuple[np.ndarray, np.ndarray]:
        # x_e = C x_f + o
        if f == "e":
            return np.eye(3), np.zeros(3)
        if f == "i":
            phi = np.zeros(np.shape(t) + (3,))
            phi[..., 2] = -params.omega_ie * t
            return so3_exp(phi), np.zeros(3)
        return world.C_e_w.T, world.r_ew_e

    C_fe, o_fe = to_e(frm)
    C_te, o_te = to_e(to)
    # x_to = C_te^T (x_e - o_te), x_e = C_fe x_from + o_fe
    return transpose(C_te) @ C_fe, matvec(transpose(C_te), o_fe - o_te)
