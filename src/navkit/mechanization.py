"""Strapdown propagation of the SE2(3) navigation state.

Supports the inertial (i), earth-fixed (e) and world tangent (w) frames in
two groupings of the state columns:

* traditional - the group velocity column holds the frame's conventional
  velocity (v_ib^i, v_eb^e or v_wb^w),
* proposed - the column holds the inertial velocity resolved in the frame
  minus its initial value dv0, which removes the Coriolis cross terms from
  the group-level differential equation.

The position column always holds r - r0 (anchored at the initial position).
step, frame_velocity and body_velocity run one batch-shaped path: a state's
R, v and p may carry leading batch axes (one element per Monte-Carlo run or
per interval, sharing the anchors r0/dv0), with inputs of matching shape,
and a single state is a stack with no leading axis. step's rk4 also takes
one dt per element, which is how inverse_imu steps all of a grid's
intervals (the last one may be shorter) at once.
Each derivative is exposed both as a dense 5x5 matrix and as its
W-decomposition  dX/dt = X W1 + W2 X (+ W3 X W4),  whose structure drives
the autonomy classification of the error dynamics.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum

import numpy as np

from .earth import (
    EarthParams,
    GravityModel,
    WorldFrameDef,
    earth_rate,
    frame_transform,
    gravitation,
)
from .se23 import SE23, matvec, skew, so3_exp, transpose

__all__ = [
    "Frame",
    "Grouping",
    "FrameMismatch",
    "ImuSample",
    "NavState",
    "WDecomposition",
    "make_nav_state",
    "derivative",
    "step",
    "to_proposed",
    "from_proposed",
    "physical_from_nav",
    "nav_from_physical",
    "frame_velocity",
    "body_velocity",
]

_MAX_DT = 0.1  # s; piecewise-constant-input assumption guard


class Frame(Enum):
    I = "i"
    E = "e"
    W = "w"


class Grouping(Enum):
    TRADITIONAL = "traditional"
    PROPOSED = "proposed"


class FrameMismatch(ValueError):
    """States combined across incompatible frames/groupings/anchors."""


@dataclass(frozen=True)
class ImuSample:
    """Body-frame gyro/accelerometer sample held constant over dt.

    For a stack of states the inputs are (..., 3) and dt is one float or,
    for step's rk4, an array with one dt per element.
    """

    omega_ib_b: np.ndarray
    f_ib_b: np.ndarray
    dt: float | np.ndarray


@dataclass(frozen=True)
class NavState:
    """Frame-tagged SE2(3) state with initial-position/velocity anchors."""

    frame: Frame
    grouping: Grouping
    x: SE23
    r0: np.ndarray
    dv0: np.ndarray = field(default_factory=lambda: np.zeros(3))


@dataclass(frozen=True)
class WDecomposition:
    """Factors of dX/dt = X W1 + W2 X (+ W3 X W4 when has_w34)."""

    W1: np.ndarray
    W2: np.ndarray
    W3: np.ndarray
    W4: np.ndarray
    has_w34: bool


_HALF_EXP_CACHE: dict[bytes, np.ndarray] = {}


def _cached_half_exp(omega: np.ndarray, dt: float) -> np.ndarray:
    """exp(-dt/2 (omega x)) memoized; the earth rate repeats every step."""
    key = omega.tobytes() + np.float64(dt).tobytes()
    out = _HALF_EXP_CACHE.get(key)
    if out is None:
        if len(_HALF_EXP_CACHE) > 64:
            _HALF_EXP_CACHE.clear()
        out = so3_exp(-0.5 * dt * omega)
        _HALF_EXP_CACHE[key] = out
    return out


def _conversion_rate(frame: Frame, earth: EarthParams, world: WorldFrameDef | None) -> np.ndarray:
    """Earth rate used in v_ib = v_frame + omega x r relations (zero in i)."""
    if frame is Frame.I:
        return np.zeros(3)
    return earth_rate(frame.value, earth, world)


def _earth_center_offset(frame: Frame, world: WorldFrameDef | None) -> np.ndarray:
    """Vector from earth center to the frame origin, frame coords."""
    if frame is Frame.W:
        if world is None:
            raise ValueError("w-frame mechanization needs a WorldFrameDef")
        return world.C_e_w @ world.r_ew_e
    return np.zeros(3)


def make_nav_state(
    frame: Frame,
    grouping: Grouping,
    C_b_f: np.ndarray,
    v: np.ndarray,
    r: np.ndarray,
    earth: EarthParams,
    world: WorldFrameDef | None = None,
) -> NavState:
    """Anchor a state at its current position.

    v is the frame's conventional velocity (v_ib^i for i, v_eb^e for e,
    v_wb^w for w); r the frame position. The position column starts at
    zero and, for the proposed grouping, so does the velocity column.
    """
    C_b_f = np.asarray(C_b_f, dtype=float)
    v = np.asarray(v, dtype=float)
    r = np.asarray(r, dtype=float)
    if grouping is Grouping.TRADITIONAL:
        return NavState(frame, grouping, SE23(C_b_f, v.copy(), np.zeros(3)), r.copy())
    omega = _conversion_rate(frame, earth, world)
    dv0 = np.cross(omega, _earth_center_offset(frame, world) + r)
    # v_ib(0) - dv0 reduces exactly to the frame velocity at the anchor
    return NavState(frame, grouping, SE23(C_b_f, v.copy(), np.zeros(3)), r.copy(), dv0)


def frame_velocity(state: NavState, earth: EarthParams, world: WorldFrameDef | None = None) -> np.ndarray:
    """Conventional frame velocity (v_ib^i / v_eb^e / v_wb^w) of the state."""
    if state.grouping is Grouping.TRADITIONAL:
        return state.x.v.copy()
    omega = _conversion_rate(state.frame, earth, world)
    r_center = _earth_center_offset(state.frame, world) + state.r0 + state.x.p
    return state.x.v + state.dv0 - matvec(skew(omega), r_center)


def body_velocity(state: NavState, earth: EarthParams, world: WorldFrameDef | None = None) -> np.ndarray:
    """Earth-relative velocity resolved in the body frame."""
    v = frame_velocity(state, earth, world)
    if state.frame is Frame.I:
        omega = earth_rate("i", earth)
        v = v - matvec(skew(omega), state.r0 + state.x.p)
    return matvec(transpose(state.x.R), v)


class _Dynamics:
    """The parts of a model's component ODE that stay fixed over a step:
    the frame's earth rate (None in i), its skew matrix, and the
    earth-centered point the position column is measured from."""

    __slots__ = ("trad", "dv0", "omega", "Om", "OmOm", "r_base", "earth", "gravity_model")

    def __init__(self, state, earth, gravity_model, world):
        self.trad = state.grouping is Grouping.TRADITIONAL
        self.dv0 = state.dv0
        self.earth = earth
        self.gravity_model = gravity_model
        if state.frame is Frame.I:
            self.omega = self.Om = self.OmOm = None
            self.r_base = state.r0
        else:
            self.omega = earth_rate(state.frame.value, earth, world)
            self.Om = skew(self.omega)
            self.OmOm = self.Om @ self.Om
            self.r_base = _earth_center_offset(state.frame, world) + state.r0

    def cross(self, x):
        """omega x x, for x with or without leading batch axes."""
        return matvec(self.Om, x)

    def rates(self, C, v, p, W_b, f_b):
        """Component right-hand side at (C, v, p); W_b = skew(omega_ib_b)."""
        dC = C @ W_b
        if self.Om is not None:
            dC = dC - self.Om @ C
        return (dC, *self.vel_pos_rates(C, v, p, f_b))

    def vel_pos_rates(self, C, v, p, f_b):
        f_f = matvec(C, f_b)
        r_center = self.r_base + p
        gam = gravitation(r_center, self.gravity_model, self.earth)
        if self.omega is None:
            return f_f + gam, v
        if self.trad:
            return f_f + (gam - matvec(self.OmOm, r_center)) - 2.0 * self.cross(v), v
        return f_f + gam - self.cross(v + self.dv0), v - self.cross(p)


def derivative(
    state: NavState,
    imu: ImuSample,
    earth: EarthParams,
    gravity_model: GravityModel,
    world: WorldFrameDef | None = None,
) -> tuple[np.ndarray, WDecomposition]:
    """dX/dt as a dense 5x5 matrix together with its W-decomposition."""
    W1 = np.zeros((5, 5))
    W1[0:3, 0:3] = skew(imu.omega_ib_b)
    W1[0:3, 3] = imu.f_ib_b
    W1[3, 4] = 1.0

    W2 = np.zeros((5, 5))
    W2[3, 4] = -1.0
    W3 = np.zeros((5, 5))
    W4 = np.zeros((5, 5))
    has_w34 = False

    if state.frame is Frame.I:
        gam = gravitation(state.r0 + state.x.p, gravity_model, earth)
        W2[0:3, 3] = gam
    else:
        omega = earth_rate(state.frame.value, earth, world)
        r_center = _earth_center_offset(state.frame, world) + state.r0 + state.x.p
        gam = gravitation(r_center, gravity_model, earth)
        W2[0:3, 0:3] = -skew(omega)
        if state.grouping is Grouping.TRADITIONAL:
            W2[0:3, 3] = gam - np.cross(omega, np.cross(omega, r_center))
            W3[0:3, 0:3] = -skew(omega)
            W4[3, 3] = 1.0
            W4[4, 4] = -1.0
            has_w34 = True
        else:
            W2[0:3, 3] = gam - np.cross(omega, state.dv0)

    X = state.x.as_matrix()
    dX = X @ W1 + W2 @ X
    if has_w34:
        dX = dX + W3 @ X @ W4
    return dX, WDecomposition(W1, W2, W3, W4, has_w34)


def step(
    state: NavState,
    imu: ImuSample,
    earth: EarthParams,
    gravity_model: GravityModel,
    world: WorldFrameDef | None = None,
    method: str = "midpoint",
) -> NavState:
    """Advance one IMU interval.

    method="midpoint" is the filter-grade rule: exact attitude exponential
    for the constant inputs plus a midpoint step for velocity/position
    (O(dt^2) global). method="rk4" is the truth-grade 4-stage Runge-Kutta
    on the same component ODEs.

    For a stacked state imu.dt is one float for every element or, with
    rk4 only, an array of one dt per element; element k then advances as
    a one-element stack stepped with dt[k] would.
    """
    dt = dt_m = longest = imu.dt  # dt_m scales the (..., 3, 3) attitude terms
    if isinstance(dt, np.ndarray) and dt.ndim:
        if method != "rk4":
            raise ValueError(f"a dt per element needs method='rk4', not {method!r}")
        dt, dt_m, longest = dt[..., None], dt[..., None, None], dt.max()
    if longest > _MAX_DT:
        raise ValueError(f"dt {longest} exceeds the {_MAX_DT} s piecewise-constant guard")
    C, v, p = state.x.R, state.x.v, state.x.p
    om_b = np.asarray(imu.omega_ib_b, dtype=float)
    f_b = np.asarray(imu.f_ib_b, dtype=float)
    dyn = _Dynamics(state, earth, gravity_model, world)

    if method == "rk4":
        W_b = skew(om_b)
        h, h_m = 0.5 * dt, 0.5 * dt_m
        k1 = dyn.rates(C, v, p, W_b, f_b)
        k2 = dyn.rates(C + h_m * k1[0], v + h * k1[1], p + h * k1[2], W_b, f_b)
        k3 = dyn.rates(C + h_m * k2[0], v + h * k2[1], p + h * k2[2], W_b, f_b)
        k4 = dyn.rates(C + dt_m * k3[0], v + dt * k3[1], p + dt * k3[2], W_b, f_b)
        C1 = C + dt_m / 6.0 * (k1[0] + 2.0 * k2[0] + 2.0 * k3[0] + k4[0])
        v1 = v + dt / 6.0 * (k1[1] + 2.0 * k2[1] + 2.0 * k3[1] + k4[1])
        p1 = p + dt / 6.0 * (k1[2] + 2.0 * k2[2] + 2.0 * k3[2] + k4[2])
        return NavState(state.frame, state.grouping, SE23(C1, v1, p1), state.r0, state.dv0)

    if method != "midpoint":
        raise ValueError(f"unknown integration method {method!r}")

    body_half = so3_exp(0.5 * dt * om_b)
    if dyn.omega is None:
        C_mid = C @ body_half
        C_end = C_mid @ body_half
    else:
        left_half = _cached_half_exp(dyn.omega, dt)
        C_mid = left_half @ C @ body_half
        C_end = left_half @ C_mid @ body_half

    dv1, dp1 = dyn.vel_pos_rates(C, v, p, f_b)
    v_mid = v + 0.5 * dt * dv1
    p_mid = p + 0.5 * dt * dp1
    dv2, dp2 = dyn.vel_pos_rates(C_mid, v_mid, p_mid, f_b)
    return NavState(state.frame, state.grouping, SE23(C_end, v + dt * dv2, p + dt * dp2), state.r0, state.dv0)


def to_proposed(state: NavState, earth: EarthParams, world: WorldFrameDef | None = None) -> NavState:
    """Regroup a traditional state into the proposed inertial-velocity form."""
    if state.grouping is not Grouping.TRADITIONAL or np.any(state.dv0 != 0.0):
        raise FrameMismatch("to_proposed expects a traditional state with zero dv0")
    omega = _conversion_rate(state.frame, earth, world)
    r_center0 = _earth_center_offset(state.frame, world) + state.r0
    dv0 = np.cross(omega, r_center0)
    v_prop = state.x.v + np.cross(omega, state.x.p)
    return NavState(state.frame, Grouping.PROPOSED, SE23(state.x.R, v_prop, state.x.p.copy()), state.r0.copy(), dv0)


def from_proposed(state: NavState, earth: EarthParams, world: WorldFrameDef | None = None) -> NavState:
    """Inverse of to_proposed."""
    if state.grouping is not Grouping.PROPOSED:
        raise FrameMismatch("from_proposed expects a proposed-grouping state")
    omega = _conversion_rate(state.frame, earth, world)
    v_trad = state.x.v - np.cross(omega, state.x.p)
    return NavState(state.frame, Grouping.TRADITIONAL, SE23(state.x.R, v_trad, state.x.p.copy()), state.r0.copy())


def physical_from_nav(
    state: NavState,
    earth: EarthParams,
    world: WorldFrameDef | None = None,
    t: float = 0.0,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Canonical physical triplet (C_b_e, v_eb_e, r_eb_e) at time t."""
    C_f = state.x.R
    r_f = state.r0 + state.x.p
    v_f = frame_velocity(state, earth, world)
    if state.frame is Frame.E:
        return C_f.copy(), v_f, r_f
    if state.frame is Frame.W:
        if world is None:
            raise ValueError("w-frame state needs a WorldFrameDef")
        C_w_e = world.C_e_w.T
        return C_w_e @ C_f, C_w_e @ v_f, world.r_ew_e + C_w_e @ r_f
    C_i_e, _ = frame_transform("i", "e", earth, world, t)
    omega_i = earth_rate("i", earth)
    v_eb_i = v_f - np.cross(omega_i, r_f)
    return C_i_e @ C_f, C_i_e @ v_eb_i, C_i_e @ r_f


def nav_from_physical(
    frame: Frame,
    grouping: Grouping,
    C_b_e: np.ndarray,
    v_eb_e: np.ndarray,
    r_eb_e: np.ndarray,
    earth: EarthParams,
    world: WorldFrameDef | None = None,
    t: float = 0.0,
    r0: np.ndarray | None = None,
    dv0: np.ndarray | None = None,
) -> NavState:
    """Build a NavState in any frame from the canonical e-frame triplet.

    With r0/dv0 omitted the state is anchored at its current position
    (fresh t=0 anchors); pass stored anchors to express a later epoch of
    the same run; dv0 without r0 is a ValueError.
    """
    if r0 is None and dv0 is not None:
        raise ValueError("dv0 needs r0: a state anchored at its current position sets its own dv0")
    if frame is Frame.E:
        C_f, v_f, r_f = np.asarray(C_b_e, float), np.asarray(v_eb_e, float), np.asarray(r_eb_e, float)
    elif frame is Frame.W:
        if world is None:
            raise ValueError("w-frame state needs a WorldFrameDef")
        C_f = world.C_e_w @ C_b_e
        v_f = world.C_e_w @ v_eb_e
        r_f = world.C_e_w @ (np.asarray(r_eb_e, float) - world.r_ew_e)
    else:
        C_e_i, _ = frame_transform("e", "i", earth, world, t)
        omega_i = earth_rate("i", earth)
        r_f = C_e_i @ r_eb_e
        C_f = C_e_i @ C_b_e
        v_f = C_e_i @ v_eb_e + np.cross(omega_i, r_f)
    if r0 is None:
        return make_nav_state(frame, grouping, C_f, v_f, r_f, earth, world)
    r0 = np.asarray(r0, dtype=float)
    p = r_f - r0
    if grouping is Grouping.TRADITIONAL:
        return NavState(frame, grouping, SE23(C_f, v_f, p), r0.copy())
    omega = _conversion_rate(frame, earth, world)
    r_center = _earth_center_offset(frame, world) + r_f
    v_ib = v_f + np.cross(omega, r_center)
    if dv0 is None:
        dv0 = np.cross(omega, _earth_center_offset(frame, world) + r0)
    dv0 = np.asarray(dv0, dtype=float)
    return NavState(frame, grouping, SE23(C_f, v_ib - dv0, p), r0.copy(), dv0.copy())
