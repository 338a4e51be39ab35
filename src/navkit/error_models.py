"""Group error definitions, exact error dynamics, and linearized models.

Two error conventions relate a true state X and an estimate X~:

* right: eta = X X~^-1, chart xi = (phi, rho_v, rho_r) = log(eta),
* left:  eta = X~^-1 X, chart with the phi sign flipped so that the stored
  vector reads (phi_b, -dv^b, -dr^b) to first order and the group error's
  rotation equals exp(-phi_b x).

All deltas are estimate-minus-truth, including the bias errors
(db = b_hat - b_true) in the 15-state (phi, rho_v, rho_r, db_g, db_a)
filter chart. The linearized (F, G) pairs fold the gravity perturbation
through the gravitation gradient and are certified against the numerical
Jacobian of the exact nonlinear error flow.

error_from_states, error_to_vector, vector_to_error, apply_correction and
linearized_F_G also take states and vectors with leading batch axes (one
element per Monte-Carlo run, or per (sample, run) of a predict interval);
a single true state broadcasts against a batch of estimates.
"""
from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

import numpy as np

from .mechanization import (
    Frame,
    FrameMismatch,
    Grouping,
    ImuSample,
    NavModel,
    NavState,
    WDecomposition,
    derivative,
)
from .se23 import SE23, TangentVector, matvec, se23_exp, se23_log, skew, transpose

__all__ = [
    "ErrorConvention",
    "ModelVariant",
    "AutonomyClass",
    "error_from_states",
    "error_to_vector",
    "vector_to_error",
    "apply_correction",
    "exact_error_derivative",
    "linearized_F_G",
    "classify_autonomy",
]


class ErrorConvention(Enum):
    RIGHT = "right"
    LEFT = "left"


class AutonomyClass(Enum):
    PERFECT = "perfect"
    APPROXIMATE = "approximate"
    WEAK = "weak"


@dataclass(frozen=True)
class ModelVariant:
    """(frame, grouping) pair naming one of the mechanization models."""

    frame: Frame
    grouping: Grouping

    @property
    def name(self) -> str:
        return f"{self.grouping.value}-{self.frame.value}"


def _check_compatible(a: NavState, b: NavState) -> None:
    if a.frame is not b.frame or a.grouping is not b.grouping:
        raise FrameMismatch(f"states disagree: {a.frame}/{a.grouping} vs {b.frame}/{b.grouping}")
    if np.array_equal(a.r0, b.r0) and np.array_equal(a.dv0, b.dv0):
        return  # the same anchors, as along one run
    if not (np.allclose(a.r0, b.r0, atol=1e-6) and np.allclose(a.dv0, b.dv0, atol=1e-9)):
        raise FrameMismatch("states carry different r0/dv0 anchors")


def error_from_states(true: NavState, est: NavState, conv: ErrorConvention) -> SE23:
    """Group error eta: X X~^-1 (right) or X~^-1 X (left)."""
    _check_compatible(true, est)
    if conv is ErrorConvention.RIGHT:
        return true.x.compose(est.x.inverse())
    return est.x.inverse().compose(true.x)


def error_to_vector(eta: SE23, conv: ErrorConvention) -> TangentVector:
    """Chart coordinates of a group error (phi sign flipped on the left)."""
    raw = se23_log(eta)
    if conv is ErrorConvention.RIGHT:
        return raw
    return TangentVector(-raw.phi, raw.rho_v, raw.rho_r)


def vector_to_error(xi: TangentVector, conv: ErrorConvention) -> SE23:
    """Inverse chart: group error whose coordinates are xi."""
    if conv is ErrorConvention.RIGHT:
        return se23_exp(xi)
    return se23_exp(TangentVector(-xi.phi, xi.rho_v, xi.rho_r))


def apply_correction(est: NavState, xi: TangentVector, conv: ErrorConvention) -> NavState:
    """Recover the state whose error w.r.t. est has chart coordinates xi."""
    eta = vector_to_error(xi, conv)
    if conv is ErrorConvention.RIGHT:
        x = eta.compose(est.x)
    else:
        x = est.x.compose(eta)
    return NavState(est.frame, est.grouping, x, est.r0.copy(), est.dv0.copy())


def exact_error_derivative(
    eta: SE23,
    true: NavState,
    est: NavState,
    imu_true: ImuSample,
    imu_meas: ImuSample,
    model: NavModel,
    conv: ErrorConvention,
) -> np.ndarray:
    """d(eta)/dt as a 5x5 matrix along twin true/estimated trajectories
    that share their anchors and so their model.

    Right:  W2 eta - eta W2~ - eta (X~ dW1 X~^-1) + (W3 eta - eta W3) X~ W4 X~^-1
    Left:   eta W1 - W1~ eta - (X~^-1 dW2 X~) eta + (X~^-1 W3 X~)(eta W4 - W4 eta)

    with dW1 = W1~ - W1 (input errors) and dW2 = W2~ - W2 (gravity/state
    dependence), each W evaluated along its own trajectory.
    """
    _check_compatible(true, est)
    _, w_true = derivative(true, imu_true, model)
    _, w_est = derivative(est, imu_meas, model)
    E = eta.as_matrix()
    Xe = est.x.as_matrix()
    Xe_inv = est.x.inverse().as_matrix()
    if conv is ErrorConvention.RIGHT:
        dW1 = w_est.W1 - w_true.W1
        out = w_true.W2 @ E - E @ w_est.W2 - E @ (Xe @ dW1 @ Xe_inv)
        if w_true.has_w34:
            K = Xe @ w_true.W4 @ Xe_inv
            out = out + (w_true.W3 @ E - E @ w_true.W3) @ K
        return out
    dW2 = w_est.W2 - w_true.W2
    out = E @ w_true.W1 - w_est.W1 @ E - (Xe_inv @ dW2 @ Xe) @ E
    if w_true.has_w34:
        A = Xe_inv @ w_true.W3 @ Xe
        out = out + A @ (E @ w_true.W4 - w_true.W4 @ E)
    return out


_I3 = np.eye(3)


def linearized_F_G(
    conv: ErrorConvention, est: NavState, imu: ImuSample, model: NavModel
) -> tuple[np.ndarray, np.ndarray]:
    """First-order error model: 15x15 F and 15x6 white-noise input G.

    State order (phi, rho_v, rho_r, db_g, db_a); noise order (n_g, n_a).
    imu is the current bias-corrected sample (the left-convention blocks
    need it; the right-convention ones do not). Biases are random walks
    (zero F rows); the gravity perturbation enters through the gravitation
    gradient at the estimated position, under the state's model.
    """
    model.check(est)
    C, v, p = est.x.R, est.x.v, est.x.p
    r_center = model.r_base + p
    u = model.column(r_center)
    Gg = model.gradient(r_center)
    Om = model.Om

    batch = C.shape[:-2]
    F = np.zeros(batch + (15, 15))
    G = np.zeros(batch + (15, 6))
    I3 = _I3

    if conv is ErrorConvention.RIGHT:
        S_p = skew(p)
        S_v = skew(v)
        F[..., 3:6, 0:3] = skew(u) - Gg @ S_p
        F[..., 3:6, 6:9] = Gg
        F[..., 6:9, 3:6] = I3
        if Om is not None:
            F[..., 0:3, 0:3] = -Om
            F[..., 3:6, 3:6] = -Om
            F[..., 6:9, 6:9] = -Om
        if model.fold:
            F[..., 3:6, 0:3] += S_v @ Om
            F[..., 3:6, 3:6] += -Om
            F[..., 6:9, 0:3] = -S_p @ Om
            F[..., 6:9, 6:9] += Om
        F[..., 0:3, 9:12] = C
        F[..., 3:6, 9:12] = S_v @ C
        F[..., 3:6, 12:15] = C
        F[..., 6:9, 9:12] = S_p @ C
        G[..., 0:3, 0:3] = -C
        G[..., 3:6, 0:3] = -S_v @ C
        G[..., 3:6, 3:6] = -C
        G[..., 6:9, 0:3] = -S_p @ C
    else:
        Wb = skew(np.asarray(imu.omega_ib_b, dtype=float))
        F[..., 0:3, 0:3] = -Wb
        F[..., 3:6, 0:3] = skew(np.asarray(imu.f_ib_b, dtype=float))
        F[..., 3:6, 3:6] = -Wb
        F[..., 3:6, 6:9] = transpose(C) @ Gg @ C
        F[..., 6:9, 3:6] = I3
        F[..., 6:9, 6:9] = -Wb
        if model.fold:
            Om_b = skew(matvec(transpose(C), model.omega))
            F[..., 3:6, 3:6] += -Om_b
            F[..., 6:9, 6:9] += Om_b
        F[..., 0:3, 9:12] = -I3
        F[..., 3:6, 12:15] = I3
        G[..., 0:3, 0:3] = I3
        G[..., 3:6, 3:6] = -I3
    return F, G


def classify_autonomy(
    w: WDecomposition,
    include_input_errors: bool = False,
    include_gravity_error: bool = False,
) -> AutonomyClass:
    """Autonomy grade of the error propagation for a W-decomposition.

    Weak if the W3/W4 fold is present (the error equation drags the
    trajectory in through the conjugation); otherwise approximate when
    input errors or a state-dependent/erroneous gravity column perturb it;
    otherwise perfect (the error evolves by itself).
    """
    if w.has_w34:
        return AutonomyClass.WEAK
    perturbed = include_input_errors or include_gravity_error
    return AutonomyClass.APPROXIMATE if perturbed else AutonomyClass.PERFECT
