"""Strapdown propagation of the SE2(3) navigation state.

Supports the inertial (i), earth-fixed (e) and world tangent (w) frames in
two groupings of the state columns:

* traditional - the group velocity column holds the frame's conventional
  velocity (v_ib^i, v_eb^e or v_wb^w),
* proposed - the column holds the inertial velocity resolved in the frame
  minus its initial value dv0, which removes the Coriolis cross terms from
  the group-level differential equation.

The position column always holds r - r0 (anchored at the initial position).
NavModel is the one definition of a (frame, grouping) model: its frame
rate and earth rate, earth-centered base point, velocity anchor dv0,
velocity equation, gravity column and gradient, and whether it keeps the
Coriolis fold.  The frame rate is the earth rate in e and w and zero in i,
so the i frame is the rotating frames' model at zero rate, where the
Coriolis and frame-rotation terms vanish: every kernel runs one path for
all six models.  It is built once per batch of states sharing the
anchors (NavModel.of) and every kernel reads it: step, derivative,
error_models.linearized_F_G and exact_error_derivative,
lgekf.predict/odo_H/fuse (through the FilterState) and
simulate.inverse_imu.  The grouping conversions build their own.
step, frame_velocity and body_velocity run one batch-shaped path: a state's
packed block x.K (see se23.SE23) may carry leading batch axes (one element
per Monte-Carlo run or per interval, sharing the anchors r0/dv0), with
inputs of matching shape, and a single state is a stack with no leading
axis.  step's rk4 also takes one dt per element, which is how inverse_imu
steps all of a grid's intervals (the last one may be shorter) at once.
integrate advances a state over the L samples of an interval (inputs
(L, ..., 3), dt (L,)); lgekf.predict and the autonomy experiment propagate
with it, and step's midpoint rule is a one-sample integrate.
Each derivative is exposed both as a dense 5x5 matrix and as its
W-decomposition  dX/dt = X W1 + W2 X (+ W3 X W4),  whose structure drives
the autonomy classification of the error dynamics.  step's rk4 integrates
that decomposition directly on the state's packed block state.x.K =
[C | v | p], the top 3x5 of the group matrix: each stage is
K W1 - Om (K d) + column,  with W1 the input matrix, d the fold weight
(1, 1, 1, 2, 0) of the traditional e/w models (all ones otherwise) and the
gravity column added to v's rate.  The midpoint rule keeps its
closed-form attitude and uses that, apart from gravity, the velocity and
position are affine in (v, p) in every model (the group-affine structure):
each sample runs the attitude product and one gravity evaluation at both
stage positions, and the rest is per-dt constant matrices
(NavModel.midpoint_terms) and stacks formed once per interval.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from enum import Enum

import numpy as np

from .earth import (
    EarthParams,
    WorldFrameDef,
    earth_rate,
    frame_transform,
    gravitation,
    gravitation_gradient,
)
from .se23 import SE23, KernelDomainError, matvec, skew, so3_exp, transpose

__all__ = [
    "Frame",
    "Grouping",
    "FrameMismatch",
    "ImuSample",
    "NavState",
    "WDecomposition",
    "NavModel",
    "make_nav_state",
    "derivative",
    "step",
    "integrate",
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
    for step's rk4, an array with one dt per element.  An interval of L
    samples (integrate, lgekf.predict) has inputs (L, ..., 3) and dt (L,).
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


class NavModel:
    """One (frame, grouping) navigation model (see the module docstring),
    bound to a run's anchors, earth, gravity model and world frame.

    Build it once per batch of states sharing those anchors (NavModel.of)
    and hand it to every kernel that steps or linearizes them.  earth_omega
    is the earth rate resolved in the frame, and omega the frame's own
    rotation rate (earth_omega in e/w, zero in i, which does not rotate),
    with Om and OmOm its skew matrix and that matrix squared; offset is the
    frame origin seen from the earth center and r_base = offset + r0 the
    earth-centered point the position column is measured from; fold marks
    the models whose velocity column keeps the Coriolis fold W3 X W4; dv0
    is the state's velocity anchor and Om_dv0 = omega x dv0, the constant
    part of the gravity column without the fold.  accel is the velocity
    equation; column, its value at zero specific force and velocity, is
    W2's gravity column.
    """

    __slots__ = (
        "frame", "grouping", "fold", "dv0", "earth", "gravity_model", "earth_omega", "earth_Om",
        "omega", "Om", "OmOm", "Om_dv0", "offset", "r_base", "_terms_by_dt",
    )

    def __init__(self, frame, grouping, r0, earth, gravity_model=None, world=None, dv0=None):
        self.frame = frame
        self.grouping = grouping
        # The traditional grouping in a rotating frame keeps the fold.
        self.fold = grouping is Grouping.TRADITIONAL and frame is not Frame.I
        self.dv0 = dv0
        self.earth = earth
        self.gravity_model = gravity_model
        self.earth_omega = earth_rate(frame.value, earth, world)
        self.earth_Om = skew(self.earth_omega)
        # The e and w frames turn with the earth; the i frame does not turn.
        self.omega = np.zeros(3) if frame is Frame.I else self.earth_omega
        self.Om = skew(self.omega)
        self.OmOm = self.Om @ self.Om
        self.Om_dv0 = None if dv0 is None else self.cross(dv0)
        self.offset = world.C_e_w @ world.r_ew_e if frame is Frame.W else 0.0
        self.r_base = self.offset + r0
        self._terms_by_dt = {}  # midpoint_terms

    @classmethod
    def of(cls, state, earth, gravity_model=None, world=None):
        """The model of state's frame, grouping and anchors."""
        return cls(state.frame, state.grouping, state.r0, earth, gravity_model, world, state.dv0)

    def check(self, state) -> None:
        """FrameMismatch unless state is of this model's frame and grouping."""
        if state.frame is not self.frame or state.grouping is not self.grouping:
            raise FrameMismatch(
                f"{state.grouping.value}-{state.frame.value} state given to the "
                f"{self.grouping.value}-{self.frame.value} model"
            )

    def cross(self, x):
        """omega x x, for x with or without leading batch axes."""
        return matvec(self.Om, x)

    def anchor(self, r):
        """dv0 of a proposed state anchored at frame position r: omega x (offset + r)."""
        return np.cross(self.omega, self.offset + r)

    def column(self, r_center):
        """Gravity column of W2 at earth-centered positions r_center:
        gamma - Om^2 r with the fold, gamma - Om dv0 without it (gamma in
        i, where Om = 0)."""
        gam = gravitation(r_center, self.gravity_model, self.earth)
        if self.fold:
            return gam - matvec(self.OmOm, r_center)
        return gam - self.Om_dv0

    def accel(self, f_f, r_center, v):
        """Rate of the velocity column v at specific force f_f (frame axes):
        f_f plus the gravity column minus the Coriolis term (2 Om v with the
        fold, Om v without); at f_f = 0, v = 0 it is the column."""
        if self.fold:
            return f_f + self.column(r_center) - 2.0 * self.cross(v)
        # -Om dv0 of the column and -Om v share one product.
        return f_f + gravitation(r_center, self.gravity_model, self.earth) - self.cross(v + self.dv0)

    def gradient(self, r_center):
        """Jacobian of the gravity column with respect to the position."""
        Gamma = gravitation_gradient(r_center, self.gravity_model, self.earth)
        return Gamma - self.OmOm if self.fold else Gamma

    def half_exp(self, dt):
        """exp(-dt/2 (omega x)) in closed form from Om and OmOm:
        I - sin(a)/w Om + 2 sin^2(a/2)/w^2 Om^2 with w = |omega|, a = w dt/2."""
        h = 0.5 * dt
        w = math.sqrt(-0.5 * (self.OmOm[0, 0] + self.OmOm[1, 1] + self.OmOm[2, 2]))  # tr(Om^2) = -2 w^2
        s = _sinc(h * w) * h
        s2 = _sinc(0.5 * h * w) * h
        return _I3 - s * self.Om + (0.5 * s2 * s2) * self.OmOm

    def rate(self, K, W1):
        """Rate of the packed block K = [C | v | p] (rows 0-2 of the group
        matrix) under input matrix W1:  K W1 - Om (K d) + column,  where the
        fold weight d = (1, 1, 1, 2, 0) doubles the Coriolis term on v and
        drops it on p, and the gravity column lands on the v column."""
        dK = K @ W1
        dK -= self.Om @ (K * _FOLD_WEIGHTS if self.fold else K)
        dK[..., 3] += self.column(self.r_base + K[..., 4])
        return dK

    def midpoint_terms(self, dt):
        """The midpoint rule's constants for a sample of dt, formed once per
        distinct dt and kept: (H, H^2, [T | G]^T, S^T) with H = exp(-dt/2 Om).

        The velocity and position y = (v, p) have the affine rates
        y' = M y + F (C f + gamma(r_base + p) + c0), F = [I; 0], with
        M = [[-Om, 0], [I, -Om]] and c0 = -Om dv0 without the fold and
        M = [[-2 Om, -Om^2], [I, 0]] and c0 = -Om^2 r_base with it.  With
        h = dt/2 the midpoint step from y is  y+ = T y + G [w1; w2],  with
        T = I + dt M + dt h M^2, G = [dt h M F | dt F] and the stage inputs
        w_s = C_s f + gamma(r_base + p_s) + c0 at the start (C, p) and the
        half step (C_mid, p_mid); the stage positions [p; p_mid] = S y, with
        S = [P; P (I + h M)] and P = [0 I], do not depend on gravity."""
        terms = self._terms_by_dt.get(dt)
        if terms is None:
            h = 0.5 * dt
            M = np.zeros((6, 6))
            M[3:6, 0:3] = _I3
            if self.fold:
                M[0:3, 0:3], M[0:3, 3:6] = -2.0 * self.Om, -self.OmOm
            else:
                M[0:3, 0:3] = M[3:6, 3:6] = -self.Om
            T = _I6 + dt * M + (dt * h) * (M @ M)
            G = np.concatenate(((dt * h) * M[:, 0:3], dt * _I6[:, 0:3]), axis=1)
            S = np.concatenate((_I6[3:6], (_I6 + h * M)[3:6]))
            H = self.half_exp(dt)
            terms = self._terms_by_dt[dt] = (H, H @ H, np.concatenate((T, G), axis=1).T.copy(), S.T.copy())
        return terms

    def frame_velocity(self, x: SE23) -> np.ndarray:
        """Conventional frame velocity of a state x of this model."""
        if self.grouping is Grouping.TRADITIONAL:
            return x.v
        return x.v + self.dv0 - self.cross(self.r_base + x.p)

    def body_velocity(self, x: SE23) -> np.ndarray:
        """Earth-relative velocity of a state x of this model, body axes."""
        v = self.frame_velocity(x)
        if self.frame is Frame.I:
            v = v - matvec(self.earth_Om, self.r_base + x.p)
        return matvec(transpose(x.R), v)


_FOLD_WEIGHTS = np.array([1.0, 1.0, 1.0, 2.0, 0.0])


def _input_matrix(omega_ib_b: np.ndarray, f_ib_b: np.ndarray) -> np.ndarray:
    """W1 of the inputs, (..., 5, 5): skew(omega) and f in rows 0-2, W1[3, 4] = 1."""
    omega_ib_b = np.asarray(omega_ib_b, dtype=float)
    W1 = np.zeros(omega_ib_b.shape[:-1] + (5, 5))
    W1[..., 0:3, 0:3] = skew(omega_ib_b)
    W1[..., 0:3, 3] = f_ib_b
    W1[..., 3, 4] = 1.0
    return W1


_I3 = np.eye(3)
_I6 = np.eye(6)


def _sinc(x: float) -> float:
    return math.sin(x) / x if x else 1.0


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
    r = np.array(r, dtype=float)
    x = SE23(C_b_f, v, np.zeros(3))
    if grouping is Grouping.TRADITIONAL:
        return NavState(frame, grouping, x, r)
    dv0 = NavModel(frame, grouping, r, earth, world=world).anchor(r)
    # v_ib(0) - dv0 reduces exactly to the frame velocity at the anchor
    return NavState(frame, grouping, x, r, dv0)


def frame_velocity(state: NavState, earth: EarthParams, world: WorldFrameDef | None = None) -> np.ndarray:
    """Conventional frame velocity (v_ib^i / v_eb^e / v_wb^w) of the state."""
    if state.grouping is Grouping.TRADITIONAL:
        return state.x.v.copy()
    return NavModel.of(state, earth, world=world).frame_velocity(state.x)


def body_velocity(state: NavState, earth: EarthParams, world: WorldFrameDef | None = None) -> np.ndarray:
    """Earth-relative velocity resolved in the body frame."""
    return NavModel.of(state, earth, world=world).body_velocity(state.x)


def derivative(state: NavState, imu: ImuSample, model: NavModel) -> tuple[np.ndarray, WDecomposition]:
    """dX/dt of a single state as a dense 5x5 matrix together with its
    W-decomposition, under the state's model."""
    model.check(state)
    W1 = _input_matrix(imu.omega_ib_b, imu.f_ib_b)
    W2 = np.zeros((5, 5))
    W2[3, 4] = -1.0
    W2[0:3, 0:3] = -model.Om
    W2[0:3, 3] = model.column(model.r_base + state.x.p)
    W3 = np.zeros((5, 5))
    W4 = np.zeros((5, 5))
    if model.fold:
        W3[0:3, 0:3] = -model.Om
        W4[3, 3] = 1.0
        W4[4, 4] = -1.0

    X = state.x.as_matrix()
    dX = X @ W1 + W2 @ X
    if model.fold:
        dX = dX + W3 @ X @ W4
    return dX, WDecomposition(W1, W2, W3, W4, model.fold)


def step(state: NavState, imu: ImuSample, model: NavModel, method: str = "midpoint") -> NavState:
    """Advance one IMU interval under the state's model.

    method="midpoint" is the filter-grade rule: exact attitude exponential
    for the constant inputs plus a midpoint step for velocity/position
    (O(dt^2) global); it is a one-sample integrate.  method="rk4" is the
    truth-grade 4-stage Runge-Kutta on the group field itself: it steps the
    state's packed block x.K = [C | v | p] with NavModel.rate, one product
    with W1 per stage.

    For a stacked state imu.dt is one float for every element or, with
    rk4 only, an array of one dt per element; element k then advances as
    a one-element stack stepped with dt[k] would.
    """
    model.check(state)
    dt = longest = imu.dt
    if isinstance(dt, np.ndarray) and dt.ndim:
        if method != "rk4":
            raise ValueError(f"a dt per element needs method='rk4', not {method!r}")
        dt, longest = dt[..., None, None], dt.max()
    if method == "rk4":
        _check_dt(longest)
        K = _rk4_update(state.x.K, dt, _input_matrix(imu.omega_ib_b, imu.f_ib_b), model)
    else:
        om, f = (np.asarray(a, dtype=float)[None] for a in (imu.omega_ib_b, imu.f_ib_b))
        K = integrate(state, ImuSample(om, f, [dt]), model, method)[1]
    return NavState(state.frame, state.grouping, SE23.packed(K), state.r0, state.dv0)


def integrate(state: NavState, imu: ImuSample, model: NavModel, method: str = "midpoint") -> np.ndarray:
    """Advance a state over the L samples of an interval and return its
    packed blocks at the interval's L+1 epochs, (L+1, ..., 3, 5), the first
    being state.x.K.

    imu holds omega and f (L, ..., 3), the state's leading axes after the
    sample axis, and dt (L,).  rk4 forms the input matrices once for all L
    samples and steps the block L times.  The midpoint rule (_midpoint)
    runs only the attitude product and one gravity evaluation per sample;
    every other term is a per-dt constant of the model or a stack formed
    once.  Either way epoch l+1 is bit for bit step(epoch l, sample l).  A
    KernelDomainError raised at sample l names element l*n + i of the
    (L, ...) stack, i the failing element of the n the state holds.
    """
    model.check(state)
    dt = np.asarray(imu.dt, dtype=float)
    if dt.ndim != 1:
        raise ValueError(f"an interval takes one dt per sample, (L,), not an array of shape {dt.shape}")
    _check_dt(dt.max())
    if method == "midpoint":
        return _midpoint(state.x.K, imu, dt, model)
    if method != "rk4":
        raise ValueError(f"unknown integration method {method!r}")
    W1 = _input_matrix(imu.omega_ib_b, imu.f_ib_b)
    K = state.x.K
    out = np.empty((len(dt) + 1,) + K.shape)
    out[0] = K
    for l, dt_l in enumerate(dt.tolist()):
        try:
            out[l + 1] = _rk4_update(out[l], dt_l, W1[l], model)
        except KernelDomainError as exc:
            raise _at_sample(exc, l, K) from exc
    return out


def _check_dt(longest) -> None:
    if longest > _MAX_DT:
        raise ValueError(f"dt {longest} exceeds the {_MAX_DT} s piecewise-constant guard")


def _at_sample(exc: KernelDomainError, l: int, K: np.ndarray) -> KernelDomainError:
    """exc re-raised as element l*n + i of an interval's (L, ...) stack,
    where the failing element's index i among the n elements of the
    stepped block K is its own element modulo n."""
    n = K[..., 0, 0].size
    return type(exc)(str(exc), element=l * n + (exc.element or 0) % n)


def _rk4_update(K: np.ndarray, dt, W1, model: NavModel) -> np.ndarray:
    h = 0.5 * dt
    k1 = model.rate(K, W1)
    k2 = model.rate(K + h * k1, W1)
    k3 = model.rate(K + h * k2, W1)
    k4 = model.rate(K + dt * k3, W1)
    return K + dt / 6.0 * (k1 + 2.0 * k2 + 2.0 * k3 + k4)


def _midpoint(K: np.ndarray, imu: ImuSample, dt: np.ndarray, model: NavModel) -> np.ndarray:
    """integrate's midpoint rule from the packed blocks K over the samples
    of imu, dt (L,), in the terms of NavModel.midpoint_terms.

    With B = so3_exp(dt/2 omega) the attitude runs C+ = (H^2 C) B^2 sample
    by sample, and C_mid = H C B and C_s f + c0 of both stages are formed
    for all L samples at once.  Per sample, one gravitation call takes both
    stage positions S y (_stage_gravity), and y+ is one (..., 1, 12)
    product of the row [y | w1 | w2] with [T | G]^T per element, so no
    result depends on the batch size.
    """
    L, lead = len(dt), K.shape[:-2]
    H, H2, TG, S = zip(*(model.midpoint_terms(d) for d in dt.tolist()))
    om = np.asarray(imu.omega_ib_b, dtype=float)
    f = np.asarray(imu.f_ib_b, dtype=float)
    B = so3_exp(0.5 * dt.reshape((L,) + (1,) * (om.ndim - 1)) * om)
    B2 = B @ B
    C = np.empty((L + 1,) + lead + (3, 3))
    C[0] = K[..., 0:3]
    for l in range(L):
        np.matmul(H2[l] @ C[l], B2[l], out=C[l + 1])
    H = np.stack(H).reshape((L,) + (1,) * len(lead) + (3, 3))
    c0 = -matvec(model.OmOm, model.r_base) if model.fold else -model.Om_dv0

    Y = np.empty((L + 1,) + lead + (12,))  # rows [v | p | u1 + g1 | u2 + g2]
    Y[0, ..., 0:3], Y[0, ..., 3:6] = K[..., 3], K[..., 4]
    Y[:-1, ..., 6:9] = matvec(C[:-1], f) + c0
    Y[:-1, ..., 9:12] = matvec(H @ C[:-1] @ B, f) + c0
    # Stage-major view of the two gravity slots, (L+1, 2, ..., 3).
    stage = np.moveaxis(Y[..., 6:12].reshape(Y.shape[:-1] + (2, 3)), -2, 1)
    for l in range(L):
        row = Y[l, ..., None, :]
        try:
            stage[l] += _stage_gravity(row[..., 0:6] @ S[l], model)
        except KernelDomainError as exc:
            raise _at_sample(exc, l, K) from exc
        np.matmul(row, TG[l], out=Y[l + 1, ..., None, 0:6])

    out = np.empty((L + 1,) + K.shape)
    out[..., 0:3] = C
    out[..., 3], out[..., 4] = Y[..., 0:3], Y[..., 3:6]
    return out


def _stage_gravity(q: np.ndarray, model: NavModel) -> np.ndarray:
    """Gravitation at the midpoint rule's stage positions q = [p | p_mid],
    (..., 1, 6), as one stage-major (2, ..., 3) stack: element s*n + i is
    stage s of element i, so element modulo n names the element."""
    k = q.ndim - 2  # the stage axis after the reshape
    r = model.r_base + q.reshape(q.shape[:k] + (2, 3)).transpose((k, *range(k), k + 1))
    return gravitation(r, model.gravity_model, model.earth)


def to_proposed(state: NavState, earth: EarthParams, world: WorldFrameDef | None = None) -> NavState:
    """Regroup a traditional state into the proposed inertial-velocity form."""
    if state.grouping is not Grouping.TRADITIONAL or np.any(state.dv0 != 0.0):
        raise FrameMismatch("to_proposed expects a traditional state with zero dv0")
    model = NavModel.of(state, earth, world=world)
    v_prop = state.x.v + model.cross(state.x.p)
    x = SE23(state.x.R, v_prop, state.x.p)
    return NavState(state.frame, Grouping.PROPOSED, x, state.r0.copy(), model.anchor(state.r0))


def from_proposed(state: NavState, earth: EarthParams, world: WorldFrameDef | None = None) -> NavState:
    """Inverse of to_proposed."""
    if state.grouping is not Grouping.PROPOSED:
        raise FrameMismatch("from_proposed expects a proposed-grouping state")
    model = NavModel.of(state, earth, world=world)
    v_trad = state.x.v - model.cross(state.x.p)
    return NavState(state.frame, Grouping.TRADITIONAL, SE23(state.x.R, v_trad, state.x.p), state.r0.copy())


def physical_from_nav(
    state: NavState,
    earth: EarthParams,
    world: WorldFrameDef | None = None,
    t: float | np.ndarray = 0.0,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Canonical physical triplet (C_b_e, v_eb_e, r_eb_e) at time t; a
    stacked state takes one t for all its elements or an array of one each."""
    C_f = state.x.R
    r_f = state.r0 + state.x.p
    v_f = frame_velocity(state, earth, world)
    if state.frame is Frame.E:
        return C_f.copy(), v_f, r_f
    if state.frame is Frame.W:
        if world is None:
            raise ValueError("w-frame state needs a WorldFrameDef")
        C_w_e = world.C_e_w.T
        return C_w_e @ C_f, matvec(C_w_e, v_f), world.r_ew_e + matvec(C_w_e, r_f)
    C_i_e, _ = frame_transform("i", "e", earth, world, t)
    omega_i = earth_rate("i", earth)
    v_eb_i = v_f - np.cross(omega_i, r_f)
    return C_i_e @ C_f, matvec(C_i_e, v_eb_i), matvec(C_i_e, r_f)


def nav_from_physical(
    frame: Frame,
    grouping: Grouping,
    C_b_e: np.ndarray,
    v_eb_e: np.ndarray,
    r_eb_e: np.ndarray,
    earth: EarthParams,
    world: WorldFrameDef | None = None,
    t: float | np.ndarray = 0.0,
    r0: np.ndarray | None = None,
    dv0: np.ndarray | None = None,
) -> NavState:
    """Build a NavState in any frame from the canonical e-frame triplet.

    With r0/dv0 omitted the state is anchored at its current position
    (fresh t=0 anchors); pass stored anchors to express a later epoch of
    the same run, or a stack of its epochs (triplet (M, 3, 3), (M, 3),
    (M, 3) with an array t of M times); dv0 without r0 is a ValueError.
    """
    if r0 is None and dv0 is not None:
        raise ValueError("dv0 needs r0: a state anchored at its current position sets its own dv0")
    C_b_e, v_eb_e, r_eb_e = (np.asarray(a, dtype=float) for a in (C_b_e, v_eb_e, r_eb_e))
    if frame is Frame.E:
        C_f, v_f, r_f = C_b_e, v_eb_e, r_eb_e
    elif frame is Frame.W:
        if world is None:
            raise ValueError("w-frame state needs a WorldFrameDef")
        C_f = world.C_e_w @ C_b_e
        v_f = matvec(world.C_e_w, v_eb_e)
        r_f = matvec(world.C_e_w, r_eb_e - world.r_ew_e)
    else:
        C_e_i, _ = frame_transform("e", "i", earth, world, t)
        omega_i = earth_rate("i", earth)
        r_f = matvec(C_e_i, r_eb_e)
        C_f = C_e_i @ C_b_e
        v_f = matvec(C_e_i, v_eb_e) + np.cross(omega_i, r_f)
    if r0 is None:
        return make_nav_state(frame, grouping, C_f, v_f, r_f, earth, world)
    r0 = np.asarray(r0, dtype=float)
    p = r_f - r0
    if grouping is Grouping.TRADITIONAL:
        return NavState(frame, grouping, SE23(C_f, v_f, p), r0.copy())
    model = NavModel(frame, grouping, r0, earth, world=world)
    v_ib = v_f + model.anchor(r_f)
    dv0 = model.anchor(r0) if dv0 is None else np.asarray(dv0, dtype=float)
    return NavState(frame, grouping, SE23(C_f, v_ib - dv0, p), r0.copy(), dv0.copy())
