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
all six models.  The one place a model's constants shape that path is
rk4's rate (NavModel.rate): it has no frame-rate product where the
frame does not spin (i), forms the gravity column once where it does not
depend on the position (uniform gravity), and applies the fold's terms
as one constant operator built with the model.  The frame geometry (the frame rate and origin, and the
conversions physical_from_nav and nav_from_physical) comes from earth.py's
frame map.  A model is built once per batch of states sharing the
anchors (NavModel.of) and every kernel reads it: step, derivative,
error_models.linearized_F_G and exact_error_derivative,
lgekf.predict/odo_H/fuse (through the FilterState) and
simulate.inverse_imu.  nav_from_physical builds its own.
integrate and body_velocity run one batch-shaped path: a state's
packed block x.K (see se23.SE23) may carry leading batch axes (one element
per Monte-Carlo run or per interval, sharing the anchors r0/dv0), with
inputs of matching shape, and a single state is a stack with no leading
axis.  integrate advances a state over the L samples of an interval
(inputs (L, ..., 3), dt (L,) or, under rk4 only, (L, ...) with one dt per
sample and element) and is the one place a step is checked and set up:
step is its one-sample case under both rules.  lgekf.predict and the
autonomy experiment propagate with integrate, and inverse_imu steps a
block of a grid's intervals (the grid's last may be shorter) in one step
call with one dt per element.  An interval splits into sub-steps of at
most _MAX_DT (_substeps), the midpoint rule's gravity linearization and
predict's covariance step alike.
derivative gives the field both as a dense 5x5 matrix, from which
error_models.exact_error_derivative forms the exact error flow, and as
its W-decomposition  dX/dt = X W1 + W2 X + W3 X W4  into input, gravity
and Coriolis-fold factors (W3 and W4 are zero without the fold).  step's
rk4 integrates that decomposition directly on the state's packed block
state.x.K = [C | v | p], the top 3x5 of the group matrix: the rate is
K W1 - Om K + column  without the fold and  K W1 + Lambda vec K +
gamma(r_base + p) - Om^2 r_base  with it, W1 the input matrix and Lambda
the fold's constant 15x15 operator (NavModel.rate).  Where the column
depends on the position, the three stage inputs and the final
combination are formed in place in the step's output block; where it
does not, the rate is affine in K over the step and rk4 is its
fourth-order Taylor polynomial, three products with the linear part
(NavModel.linear_rate) and no stage state.  The additive step leaves
SO(3) by turn^6 / 72 per step, so where a step turns the attitude by
more than a milliradian one Newton-Schulz step pulls it back.  The midpoint rule keeps its
closed-form attitude and uses that, apart from gravity, the velocity and
position are affine in (v, p) in every model (the group-affine structure).
Gravity it linearizes once per sub-step, at the sub-step's first
position, so the whole (v, p) step is affine: each sample runs the
attitude product and one product of the row [v | p | stage inputs] with a
matrix formed once per sub-step and distinct dt from per-dt constants
(NavModel.midpoint_terms).
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from enum import Enum

import numpy as np

from .earth import (
    EarthParams, SingularRadius, UniformGravity, WorldFrameDef, _frame_map, _radius, earth_rate, gravitation,
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
    "physical_from_nav",
    "nav_from_physical",
    "body_velocity",
]

_MAX_DT = 0.1  # s; piecewise-constant-input assumption guard
_INTEGRATORS = ("midpoint", "rk4")  # step's and integrate's methods
_DT_ROUNDOFF = 1e-9  # s; a time grid's differences may exceed their spacing by roundoff
_HALF_THREE_I = 1.5 * np.eye(3)  # rk4's Newton-Schulz step, C (3I - C^T C) / 2
# rad per rk4 step: a smaller turn leaves SO(3) by turn^6 / 72 a step, under
# roundoff for any grid, so only a larger one takes the Newton-Schulz step.
_SO3_DRIFT_TURN = 1e-3


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
    samples (integrate, lgekf.predict) has inputs (L, ..., 3) and dt (L,)
    or, for integrate's rk4, (L, ...) with one dt per sample and element.
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
    """Factors of dX/dt = X W1 + W2 X + W3 X W4; W3 and W4 are zero
    unless the model keeps the Coriolis fold."""

    W1: np.ndarray
    W2: np.ndarray
    W3: np.ndarray
    W4: np.ndarray


class NavModel:
    """One (frame, grouping) navigation model (see the module docstring),
    bound to a run's anchors, earth, gravity model and world frame.

    Build it once per batch of states sharing those anchors (NavModel.of)
    and hand it to every kernel that steps or linearizes them.  earth_omega
    is the earth rate resolved in the frame, and omega the frame's own
    rotation rate, earth_omega less the frame map's rate w of e relative to
    the frame (so zero in i), with Om and OmOm its skew matrix and that
    matrix squared; offset is the frame origin seen from the earth center
    and r_base = offset + r0 the earth-centered point the position column
    is measured from; fold marks the models whose velocity column keeps
    the Coriolis fold W3 X W4; dv0 is the state's velocity anchor and c0
    the gravity column's constant part, -Om^2 r_base with the fold and
    -omega x dv0 without it (None without dv0).  accel is the velocity
    equation; column, its value at zero specific force and velocity, is
    W2's gravity column.  v_Om and odo_Om are body_velocity's and odo_H's
    constants.  The rest are rate's (see rate and linear_rate): spins is
    false where the frame rate is zero (the i frame), column0 holds the
    gravity column gamma0 + c0 as column 3 of a (3, 5) block, where the
    column does not depend on the position (uniform gravity, c0 known),
    else None, and fold_op is the fold models' 15x15 operator on vec K
    (None without the fold).
    """

    __slots__ = (
        "frame", "grouping", "fold", "dv0", "earth", "gravity_model", "earth_omega", "earth_Om",
        "omega", "Om", "OmOm", "c0", "offset", "r_base", "v_Om", "odo_Om", "spins", "column0",
        "fold_op", "_terms_by_dt",
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
        C, o, rel_omega = _frame_map(frame.value, earth, world)
        self.omega = self.earth_omega - rel_omega
        self.Om = skew(self.omega)
        self.OmOm = self.Om @ self.Om
        self.offset = transpose(C) @ o
        self.r_base = self.offset + r0
        # The gravity column's constant part: -Om^2 r_base with the fold, -Om dv0 without.
        if self.fold:
            self.c0 = -matvec(self.OmOm, self.r_base)
        else:
            self.c0 = None if dv0 is None else -self.cross(dv0)
        # e's rate relative to the velocity column's frame (inertial when proposed)
        self.v_Om = skew(rel_omega) if grouping is Grouping.TRADITIONAL else self.earth_Om
        self.odo_Om = np.concatenate((self.earth_Om, skew(np.cross(rel_omega, self.r_base))), axis=-1)
        # The parts of rate that do not depend on the state (see rate).
        self.spins = bool(np.any(self.omega))
        self.column0 = None
        if isinstance(gravity_model, UniformGravity) and self.c0 is not None:
            # x + -0.0 is x, signed zeros included, so adding the whole block
            # changes only the v column's bits.
            self.column0 = np.full((3, 5), -0.0)
            self.column0[:, 3] = gravitation(self.r_base, gravity_model, earth) + self.c0
        self.fold_op = None
        if self.fold:
            # (Lambda vec K)[i, j] = -Om[i, k] K[k, j] d[j] - [j = 3] OmOm[i, k] K[k, 4]
            op = -np.einsum("ik,jm->ijkm", self.Om, np.diag([1.0, 1.0, 1.0, 2.0, 0.0]))
            op[:, 3, :, 4] = -self.OmOm
            self.fold_op = op.reshape(15, 15)
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
        return gam + self.c0

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

    def linear_rate(self, K, W1, out=None):
        """rate's part linear in K, written into out if given: K W1, plus
        fold_op vec K with the fold or -Om K where the frame spins."""
        dK = np.matmul(K, W1, out=out)
        if self.fold_op is not None:
            dK += (self.fold_op @ K.reshape(K.shape[:-2] + (15, 1))).reshape(dK.shape)
        elif self.spins:
            dK -= self.Om @ K
        return dK

    def rate(self, K, W1):
        """Rate of the packed block K = [C | v | p] (rows 0-2 of the group
        matrix) under input matrix W1: linear_rate plus the gravity column
        on v's rate.  Without the fold it is  K W1 - Om K +
        column(r_base + p),  leaving out the frame-rate product where the
        frame does not spin.  With the fold it is  K W1 + fold_op vec K +
        gamma(r_base + p) + c0:  fold_op
        holds the frame-rate and Coriolis term -Om (K d), whose fold weight
        d = (1, 1, 1, 2, 0) doubles it on v and drops it on p, and the
        column's position-linear part -Om^2 p, and is applied per element as
        one (..., 15, 15) @ (..., 15, 1) product, so a stack and each of its
        elements agree bit for bit.  Where the column does not depend on
        the position, the column0 block is added in its place."""
        dK = self.linear_rate(K, W1)
        if self.column0 is None:
            dK[..., 3] += gravitation(self.r_base + K[..., 4], self.gravity_model, self.earth) + self.c0
        else:
            dK += self.column0
        return dK

    def midpoint_terms(self, dt):
        """The midpoint rule's constants for a sample of dt, formed once per
        distinct dt and kept: (H, H^2, T^T, G^T, S^T) with H = exp(-dt/2 Om).

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
            H = so3_exp(-h * self.omega)
            terms = self._terms_by_dt[dt] = (H, H @ H, T.T.copy(), G.T.copy(), S.T.copy())
        return terms

    def frame_velocity(self, x: SE23) -> np.ndarray:
        """Conventional frame velocity of a state x of this model."""
        if self.grouping is Grouping.TRADITIONAL:
            return x.v
        return x.v + self.dv0 - self.cross(self.r_base + x.p)

    def body_velocity(self, x: SE23) -> np.ndarray:
        """Earth-relative velocity of a state x of this model, body axes:
        the velocity column plus dv0, less v_Om (r_base + p)."""
        v = x.v + self.dv0 - matvec(self.v_Om, self.r_base + x.p)
        return matvec(transpose(x.R), v)


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
    return X @ W1 + W2 @ X + W3 @ X @ W4, WDecomposition(W1, W2, W3, W4)


def step(state: NavState, imu: ImuSample, model: NavModel, method: str = "midpoint") -> NavState:
    """Advance one IMU interval under the state's model: the one-sample
    integrate, whose rules and guards it shares.

    method="midpoint" is the filter-grade rule: exact attitude exponential
    for the constant inputs plus a midpoint step for velocity/position
    (O(dt^2) global).  method="rk4" is the truth-grade 4-stage Runge-Kutta
    on the group field itself: it steps the state's packed block x.K =
    [C | v | p] with NavModel.rate, in stages or, where the gravity column
    does not depend on the position, as its Taylor polynomial, and puts the
    attitude of an element that turns by more than _SO3_DRIFT_TURN back on
    SO(3) (_rk4_update).

    For a stacked state imu.dt is one float for every element or, with
    rk4 only, an array of one dt per element; element k then advances as
    a one-element stack stepped with dt[k] would.
    """
    om, f, dt = (np.asarray(a, dtype=float)[None] for a in (imu.omega_ib_b, imu.f_ib_b, imu.dt))
    K = integrate(state, ImuSample(om, f, dt), model, method)[1]
    return NavState(state.frame, state.grouping, SE23.packed(K), state.r0, state.dv0)


def integrate(state: NavState, imu: ImuSample, model: NavModel, method: str = "midpoint") -> np.ndarray:
    """Advance a state over the L samples of an interval and return its
    packed blocks at the interval's L+1 epochs, (L+1, ..., 3, 5), the first
    being state.x.K.  It is the one place a step is checked and set up.

    imu holds omega and f (L, ..., 3), the state's leading axes after the
    sample axis, and dt (L,) or, with rk4 only, (L, ...): one dt per sample
    and element.  rk4 forms the input matrices once for all L samples and
    steps the block L times, each step written straight into its epoch of
    the output, so epoch l+1 is bit for bit step(epoch l, sample l).  The
    midpoint rule (_midpoint) runs per sample only the attitude product and
    one (v, p) product; it linearizes gravity once per sub-step of at most
    _MAX_DT (_substeps), so an interval is bit for bit the integrates
    chained over its sub-steps, and within a sub-step it differs from the
    one-sample steps by gravity's second-order remainder.
    A KernelDomainError raised at sample l names element l*n + i of the
    (L, ...) stack, i the failing element of the n the state holds.
    """
    model.check(state)
    if method not in _INTEGRATORS:
        raise ValueError(f"unknown integration method {method!r}")
    om, f, dt = (np.asarray(a, dtype=float) for a in (imu.omega_ib_b, imu.f_ib_b, imu.dt))
    if dt.ndim != 1 and (dt.ndim == 0 or method != "rk4"):
        raise ValueError(f"an interval takes one dt per sample, (L,), or under rk4 one per element too, not {dt.shape}")
    longest = dt.max()
    if longest > _MAX_DT + _DT_ROUNDOFF:
        raise ValueError(f"dt {longest} exceeds the {_MAX_DT} s piecewise-constant guard")
    K = state.x.K
    if method == "midpoint":
        return _midpoint(K, om, f, dt, model)
    W1 = _input_matrix(om, f)
    turning = _turning(om, dt.reshape(dt.shape + (1,) * (K.ndim - 1 - dt.ndim)), (len(dt),) + K.shape[:-2])
    polish = [turning[l] if any_l else None for l, any_l in enumerate(turning.reshape(len(dt), -1).any(axis=1))]
    out = np.empty((len(dt) + 1,) + K.shape)
    out[0] = K
    # Python floats for one dt per sample, else each sample's (..., 1, 1) block.
    for l, dt_l in enumerate(dt.tolist() if dt.ndim == 1 else dt[..., None, None]):
        try:
            _rk4_update(out[l], dt_l, W1[l], model, out[l + 1], polish[l])
        except KernelDomainError as exc:
            raise _at_sample(exc, l, K) from exc
    return out


def _at_sample(exc: KernelDomainError, l: int, K: np.ndarray) -> KernelDomainError:
    """exc re-raised as element l*n + i of an interval's (L, ...) stack,
    where the failing element's index i among the n elements of the
    stepped block K is its own element modulo n."""
    n = K[..., 0, 0].size
    return type(exc)(str(exc), element=l * n + (exc.element or 0) % n)


def _turning(omega: np.ndarray, dt, lead: tuple) -> np.ndarray:
    """Which elements of a stack of leading shape lead an rk4 step of dt
    turns by more than _SO3_DRIFT_TURN: |omega| dt, per element, written
    into a mask of shape lead (cheaper per call than np.broadcast_to)."""
    turn = np.sqrt(np.add.reduce(np.square(omega), axis=-1)) * dt
    return np.greater(turn, _SO3_DRIFT_TURN, out=np.empty(lead, dtype=bool))


def _rk4_update(K: np.ndarray, dt, W1, model: NavModel, out: np.ndarray, turning=None) -> np.ndarray:
    """One rk4 step of the packed blocks K, written into out (K's shape).

    Where the gravity column depends on the position, out also holds the
    three stage inputs: each is formed there in place, and K + dt/6 (k1 +
    2 k2 + 2 k3 + k4) is summed in that order, ((2 k2 + k1) + 2 k3) + k4,
    as the stages go, so at most two stage rates are held.  Where it does
    not (model.column0), the rate is A K + column0 with A
    (NavModel.linear_rate) fixed over the step, so k2 = k1 + h A k1,
    k3 = k1 + h A k2 and k4 = k1 + dt A k3, and the step is its
    fourth-order Taylor polynomial  K + dt (k1 + dt/2 A (k1 + dt/3 A (k1 +
    dt/4 A k1))):  the same method with three products by A and no stage
    state, rounded differently.

    The additive step leaves SO(3) by turn^6 / 72 per step, turn = |omega|
    dt, so the elements that turning (a mask of K's leading shape, or None
    for none) marks as turning by more than _SO3_DRIFT_TURN take one
    Newton-Schulz step, C <- C (3I - C^T C) / 2 (the first-order polar
    iteration of Bjorck and Bowie, SIAM J. Numer. Anal. 1971), which pulls
    the attitude back.  It commutes with a rotation on either side, so the
    error flows of the perfect models stay trajectory-free, and it acts on
    each element alone, so a stack and each element agree bit for bit."""
    h = 0.5 * dt
    k = model.rate(K, W1)  # k1
    if model.column0 is not None:
        model.linear_rate(k, W1, out=out)
        out *= 0.25 * dt
        out += k
        z = model.linear_rate(out, W1)
        z *= dt / 3.0
        z += k
        model.linear_rate(z, W1, out=out)
        out *= h
        out += k
        out *= dt
    else:
        np.multiply(h, k, out=out)  # K + h k1
        out += K
        acc = model.rate(out, W1)  # k2
        np.multiply(h, acc, out=out)  # K + h k2
        out += K
        acc *= 2.0
        acc += k  # 2 k2 + k1
        k = model.rate(out, W1)  # k3, in place of k1
        np.multiply(dt, k, out=out)  # K + dt k3
        out += K
        k *= 2.0
        acc += k  # + 2 k3
        acc += model.rate(out, W1)  # + k4
        np.multiply(acc, dt / 6.0, out=out)
    out += K
    if turning is not None:
        turned = out[turning]
        C = turned[..., :3]
        turned[..., :3] = C @ (_HALF_THREE_I - 0.5 * (transpose(C) @ C))
        out[turning] = turned
    return out


def _substeps(dts: np.ndarray) -> tuple[list[int], list[float]]:
    """An interval's sub-steps, as the bounds 0 = b_0 < ... < b_n = L of
    their samples [b_s, b_s+1) and each one's length, the exactly rounded
    sum of its dt.  The bounds split the L samples into the least count n,
    from ceil(sum dt / _MAX_DT) on, of near-equal runs (b_s = L s // n)
    that each last at most _MAX_DT up to _DT_ROUNDOFF; n = L, one sample
    each, always does (integrate guards each dt).  The midpoint rule
    linearizes gravity once per sub-step and lgekf.predict steps the
    covariance once per sub-step."""
    L, dts = len(dts), dts.tolist()
    n = min(L, max(1, math.ceil((math.fsum(dts) - _DT_ROUNDOFF) / _MAX_DT)))
    while True:
        bounds = [L * s // n for s in range(n + 1)]
        spans = [math.fsum(dts[b:e]) for b, e in zip(bounds, bounds[1:])]
        if max(spans) <= _MAX_DT + _DT_ROUNDOFF:
            return bounds, spans
        n += 1


def _midpoint(K: np.ndarray, om: np.ndarray, f: np.ndarray, dt: np.ndarray, model: NavModel) -> np.ndarray:
    """integrate's midpoint rule from the packed blocks K over the L samples
    of inputs om and f, dt (L,), in the terms of NavModel.midpoint_terms.

    With B = so3_exp(dt/2 omega) the attitude runs C+ = (H^2 C) B^2 sample
    by sample, and C_s f of both stages (C_mid = H C B) is formed for all L
    samples at once.  Gravity is linearized once per sub-step (_substeps)
    about its first position p_b, by one gravitation and one
    gravitation_gradient call on the stack of elements: the stage inputs
    are w_s = C_s f + c + Gamma0 q_s, c = gamma0 + c0 - Gamma0 p_b, and the
    stage positions [q_1 | q_2] = y S^T are linear in the row y = [v | p],
    so the step is affine, y+ = y A + [w_1 | w_2] G^T with w_s = C_s f + c
    and A = T^T + S^T diag(Gamma0, Gamma0)^T G^T.  [A; G^T] is formed per
    distinct dt and element once per sub-step, and each sample is one
    (..., 1, 12) product of the row [v | p | w_1 | w_2] with it, so no
    result depends on the batch size and an interval is bit for bit the
    integrates chained over its sub-steps.  The dropped remainder is at
    most 3 mu d^2 / r^4 per stage input for stage positions within d of
    p_b: under 1e-9 m/s^2 at 330 m/s over 0.1 s.  Where gravity depends on
    the position, each sub-step's stage positions are then guarded as one
    stack (_check_stages).
    """
    L, lead = len(dt), K.shape[:-2]
    one = (1,) * len(lead)
    dts = dt.tolist()
    index = {d: i for i, d in enumerate(dict.fromkeys(dts))}
    pick = [index[d] for d in dts]  # each sample's distinct dt
    H, H2, Tt, Gt, St = (np.array(a) for a in zip(*map(model.midpoint_terms, index)))
    B = so3_exp(0.5 * dt.reshape((L,) + (1,) * (om.ndim - 1)) * om)
    B2 = B @ B
    C = np.empty((L + 1,) + lead + (3, 3))
    C[0] = K[..., 0:3]
    for l, d in enumerate(pick):
        np.matmul(H2[d] @ C[l], B2[l], out=C[l + 1])
    Y = np.empty((L + 1,) + lead + (12,))  # rows [v | p | w1 | w2]
    Y[0, ..., 0:3], Y[0, ..., 3:6] = K[..., 3], K[..., 4]
    Y[:-1, ..., 6:9] = matvec(C[:-1], f)
    Y[:-1, ..., 9:12] = matvec(H[pick].reshape((L,) + one + (3, 3)) @ C[:-1] @ B, f)
    w = Y[..., 6:12].reshape(Y.shape[:-1] + (2, 3))  # the stage inputs, stage by stage
    St_l = St[pick].reshape((L,) + one + (6, 6))
    # Per distinct dt, over the elements: T^T, G^T's two stage blocks and S^T.
    Tt, Gs, St = (a.reshape((len(index),) + one + a.shape[1:]) for a in (Tt, Gt.reshape(-1, 2, 3, 6), St))
    M = np.empty((len(index),) + lead + (12, 6))  # [A; G^T] per distinct dt and element
    M[..., 6:12, :] = Gt.reshape((len(index),) + one + (6, 6))
    rows = Y[..., None, :]
    bounds, _ = _substeps(dt)
    for b, e in zip(bounds, bounds[1:]):
        p_b = Y[b, ..., 3:6]
        r_b = model.r_base + p_b
        try:
            gamma0 = gravitation(r_b, model.gravity_model, model.earth)
            Gamma0 = gravitation_gradient(r_b, model.gravity_model, model.earth)
        except KernelDomainError as exc:
            raise _at_sample(exc, b, K) from exc
        GG = transpose(Gamma0)[..., None, :, :] @ Gs  # (distinct dt, ..., 2, 3, 6)
        np.add(Tt, St @ GG.reshape(GG.shape[:-3] + (6, 6)), out=M[..., 0:6, :])
        w[b:e] += (gamma0 + model.c0 - matvec(Gamma0, p_b))[..., None, :]  # + c
        for l in range(b, e):
            np.matmul(rows[l], M[pick[l]], out=rows[l + 1, ..., 0:6])
        if not isinstance(model.gravity_model, UniformGravity):
            _check_stages(rows[b:e, ..., 0:6] @ St_l[b:e], model, b, K)

    out = np.empty((L + 1,) + K.shape)
    out[..., 0:3] = C
    out[..., 3], out[..., 4] = Y[..., 0:3], Y[..., 3:6]
    return out


def _check_stages(q: np.ndarray, model: NavModel, b: int, K: np.ndarray) -> None:
    """Guard the stage positions q = [p | p_mid], (n_l, ..., 1, 6), of the
    samples b, b+1, ... of a sub-step as gravitation would, in one
    (n_l, 2, ...) stack, sample-major, then stage-major.  A SingularRadius
    names the first failing sample l as element l*n + i, i the failing
    element of the n the state holds."""
    k = q.ndim - 2  # the stage axis after the reshape
    r = model.r_base + q.reshape(q.shape[:k] + (2, 3)).transpose((0, k, *range(1, k), k + 1))
    try:
        _radius(r)
    except SingularRadius as exc:
        raise _at_sample(exc, b + exc.element // r[0, ..., 0].size, K) from exc


def physical_from_nav(
    state: NavState,
    earth: EarthParams,
    world: WorldFrameDef | None = None,
    t: float | np.ndarray = 0.0,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Canonical physical triplet (C_b_e, v_eb_e, r_eb_e) at time t, from the
    frame map's (C, o, w): v_eb_e = C (v_f - w x r_f), r_eb_e = C r_f + o.  A
    stacked state takes one t for all its elements or an array of one each."""
    C, o, w = _frame_map(state.frame.value, earth, world, t)
    r_f = state.r0 + state.x.p
    if state.grouping is Grouping.TRADITIONAL:
        v_f = state.x.v
    else:
        v_f = NavModel.of(state, earth, world=world).frame_velocity(state.x)
    return C @ state.x.R, matvec(C, v_f - np.cross(w, r_f)), matvec(C, r_f) + o


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
    """Build a NavState in any frame from the canonical e-frame triplet by
    physical_from_nav's inverse, r_f = C^T (r_eb_e - o), v_f = C^T v_eb_e + w x r_f.

    With r0/dv0 omitted the state is anchored at its current position
    (fresh t=0 anchors); pass stored anchors to express a later epoch of
    the same run, or a stack of its epochs (triplet (M, 3, 3), (M, 3),
    (M, 3) with an array t of M times); dv0 without r0 is a ValueError.
    """
    if r0 is None and dv0 is not None:
        raise ValueError("dv0 needs r0: a state anchored at its current position sets its own dv0")
    C_b_e, v_eb_e, r_eb_e = (np.asarray(a, dtype=float) for a in (C_b_e, v_eb_e, r_eb_e))
    C, o, w = _frame_map(frame.value, earth, world, t)
    Ct = np.ascontiguousarray(transpose(C))
    # Subtracting the origin first keeps w-frame positions exact.
    r_f = matvec(Ct, r_eb_e - o)
    C_f = Ct @ C_b_e
    v_f = matvec(Ct, v_eb_e) + np.cross(w, r_f)
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
