"""SE2(3)/SO(3) matrix Lie group and algebra primitives.

The extended-pose group SE2(3) packs a rotation, a velocity column and a
position column into a 5x5 matrix

    [ R  v  p ]
    [ 0  1  0 ]
    [ 0  0  1 ]

Every operation here is a pure function over immutable values; the 9-vector
tangent ordering is (phi, rho_v, rho_r) throughout the package.

The kernels also accept stacks with leading batch axes -- vectors of shape
(..., 3) and matrices of shape (..., 3, 3) -- which is how the Monte-Carlo
filter propagates all of its runs in lock step.  A single element takes the
scalar branch; a stack takes a vectorized branch of the same closed forms
(the two may differ in the last bit), whose result for one element does not
depend on the size of the stack around it.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = [
    "KernelDomainError",
    "NotARotation",
    "AngleAtPi",
    "skew",
    "unskew",
    "matvec",
    "transpose",
    "so3_exp",
    "so3_log",
    "so3_left_jacobian",
    "so3_left_jacobian_inv",
    "TangentVector",
    "SE23",
    "wedge5",
    "vee5",
    "se23_exp",
    "se23_log",
]

_ORTHO_TOL = 1e-6  # orthonormality defect beyond this is an error
_SMALL_ANGLE = 1e-8  # series branch threshold for exp-family coefficients
_PI_GUARD = 1e-6  # se23_log refuses angles this close to pi


class KernelDomainError(ValueError):
    """Kernel input outside its domain; element is the flat index of the
    failing element of a stack (None for a single element)."""

    def __init__(self, message: str, element: int | None = None):
        super().__init__(message)
        self.element = element


class NotARotation(KernelDomainError):
    """Matrix fails the orthonormality / det(+1) test beyond tolerance."""


class AngleAtPi(KernelDomainError):
    """Logarithm requested within the guard band of the angle-pi cut."""


def skew(w: np.ndarray) -> np.ndarray:
    """Skew-symmetric matrix such that skew(w) @ u == cross(w, u)."""
    w = np.asarray(w, dtype=float)
    if w.ndim == 1:
        return np.array(
            [
                [0.0, -w[2], w[1]],
                [w[2], 0.0, -w[0]],
                [-w[1], w[0], 0.0],
            ]
        )
    out = np.zeros(w.shape[:-1] + (9,))
    out[..., _SKEW_POS] = w
    out[..., _SKEW_NEG] = -w
    return out.reshape(w.shape[:-1] + (3, 3))


# Row-major slots of skew(w) holding +w and -w.
_SKEW_POS = np.array([7, 2, 3])
_SKEW_NEG = np.array([5, 6, 1])
_I3 = np.eye(3)


def matvec(A: np.ndarray, x: np.ndarray) -> np.ndarray:
    """A @ x over leading batch axes: (..., n, m) times (..., m)."""
    if A.ndim == 2 and x.ndim == 1:
        return A @ x
    return (A @ x[..., None])[..., 0]


def transpose(A: np.ndarray) -> np.ndarray:
    """Swap the last two axes (the matrix transpose of every element)."""
    return A.T if A.ndim == 2 else A.swapaxes(-1, -2)


def _sq_norm(phi: np.ndarray) -> np.ndarray:
    return np.add.reduce(phi * phi, axis=-1)


def unskew(W: np.ndarray) -> np.ndarray:
    """Inverse of skew for an (assumed) antisymmetric 3x3 matrix."""
    return np.array([W[2, 1], W[0, 2], W[1, 0]])


def _check_rotation(R: np.ndarray) -> None:
    if R.ndim == 2:
        defect = np.linalg.norm(R.T @ R - _I3)
        if defect > _ORTHO_TOL or np.linalg.det(R) < 0.0:
            raise NotARotation(f"orthonormality defect {defect:.3e} exceeds {_ORTHO_TOL:.0e}")
        return
    defect = np.linalg.norm(transpose(R) @ R - _I3, axis=(-2, -1))
    bad = np.flatnonzero((defect > _ORTHO_TOL) | (np.linalg.det(R) < 0.0))
    if bad.size:
        i = int(bad[0])
        raise NotARotation(
            f"element {i} of the stack: orthonormality defect {defect.flat[i]:.3e} "
            f"exceeds {_ORTHO_TOL:.0e}",
            element=i,
        )


def so3_exp(phi: np.ndarray) -> np.ndarray:
    """Rodrigues exponential of a rotation vector.

    Uses the half-angle form of (1-cos)/theta^2 for stability and a series
    branch below the small-angle threshold.
    """
    phi = np.asarray(phi, dtype=float)
    W = skew(phi)
    if phi.ndim > 1:
        theta2 = _sq_norm(phi)
        theta = np.sqrt(theta2)
        small = theta < _SMALL_ANGLE
        safe = np.where(small, 1.0, theta)
        s = np.sin(0.5 * safe)
        a = np.where(small, 1.0 - theta2 / 6.0, np.sin(safe) / safe)
        b = np.where(small, 0.5 - theta2 / 24.0, 2.0 * s * s / (safe * safe))
        return _I3 + a[..., None, None] * W + b[..., None, None] * (W @ W)
    theta2 = float(phi @ phi)
    theta = np.sqrt(theta2)
    if theta < _SMALL_ANGLE:
        a = 1.0 - theta2 / 6.0
        b = 0.5 - theta2 / 24.0
    else:
        a = np.sin(theta) / theta
        s = np.sin(0.5 * theta)
        b = 2.0 * s * s / theta2
    return _I3 + a * W + b * (W @ W)


def so3_log(R: np.ndarray) -> np.ndarray:
    """Rotation vector of R with norm <= pi.

    Near the angle-pi cut the axis is recovered from the symmetric part
    (well conditioned there); the sign is matched to the antisymmetric part
    when it is informative and fixed canonically (first nonzero component
    positive) at exactly pi, where both signs are equivalent.

    Raises NotARotation if R is not orthonormal with det +1 to 1e-6.
    """
    R = np.asarray(R, dtype=float)
    _check_rotation(R)
    if R.ndim > 2:
        return _so3_log_stack(R)
    cos_theta = np.clip((np.trace(R) - 1.0) / 2.0, -1.0, 1.0)
    theta = float(np.arccos(cos_theta))
    w = unskew(R - R.T) / 2.0  # = axis * sin(theta)

    if theta < _SMALL_ANGLE:
        return w
    if theta < np.pi - 1e-3:
        return w * (theta / np.sin(theta))

    # Axis extraction from the symmetric part: S = cos I + (1-cos) a a^T.
    S = (R + R.T) / 2.0
    one_minus = 1.0 - cos_theta
    a2 = np.clip((np.diag(S) - cos_theta) / one_minus, 0.0, 1.0)
    axis = np.sqrt(a2)
    k = int(np.argmax(axis))
    # Off-diagonal entries carry the relative signs a_i a_j (1-cos).
    for i in range(3):
        if i != k and axis[i] > 0.0:
            axis[i] = np.copysign(axis[i], S[min(i, k), max(i, k)])
    axis /= np.linalg.norm(axis)
    sin_theta = np.sin(theta)
    if abs(sin_theta) > 1e-12 and np.linalg.norm(w) > 1e-12:
        if float(w @ axis) < 0.0:
            axis = -axis
    else:
        nz = np.nonzero(np.abs(axis) > 1e-12)[0]
        if nz.size and axis[nz[0]] < 0.0:
            axis = -axis
    return axis * theta


def _so3_log_stack(R: np.ndarray) -> np.ndarray:
    """so3_log of a (checked) stack; elements near the pi cut take the
    scalar branch one by one."""
    cos_theta = np.clip((np.trace(R, axis1=-2, axis2=-1) - 1.0) / 2.0, -1.0, 1.0)
    theta = np.arccos(cos_theta)
    A = R - transpose(R)
    w = 0.5 * np.stack([A[..., 2, 1], A[..., 0, 2], A[..., 1, 0]], axis=-1)
    regular = theta >= _SMALL_ANGLE
    sin_theta = np.where(regular, np.sin(theta), 1.0)
    out = np.where(regular, theta / sin_theta, 1.0)[..., None] * w
    for idx in zip(*np.nonzero(theta >= np.pi - 1e-3)):
        out[idx] = so3_log(R[idx])
    return out


def _jacobian_angles(phi: np.ndarray):
    """(W, theta^2, theta, series mask, safe theta) for a stack of vectors."""
    theta2 = _sq_norm(phi)
    theta = np.sqrt(theta2)
    small = theta < 1e-4
    return skew(phi), theta2, theta, small, np.where(small, 1.0, theta)


def so3_left_jacobian(phi: np.ndarray) -> np.ndarray:
    """Left Jacobian J of SO(3): d(exp)/d(phi) transport of tangent columns."""
    phi = np.asarray(phi, dtype=float)
    if phi.ndim > 1:
        W, theta2, theta, small, safe = _jacobian_angles(phi)
        s = np.sin(0.5 * safe)
        b = np.where(small, 0.5 - theta2 / 24.0, 2.0 * s * s / (safe * safe))
        c = np.where(small, 1.0 / 6.0 - theta2 / 120.0, (safe - np.sin(safe)) / (safe * safe * safe))
        return _I3 + b[..., None, None] * W + c[..., None, None] * (W @ W)
    theta2 = float(phi @ phi)
    theta = np.sqrt(theta2)
    W = skew(phi)
    if theta < 1e-4:
        b = 0.5 - theta2 / 24.0
        c = 1.0 / 6.0 - theta2 / 120.0
    else:
        s = np.sin(0.5 * theta)
        b = 2.0 * s * s / theta2
        c = (theta - np.sin(theta)) / (theta2 * theta)
    return _I3 + b * W + c * (W @ W)


def so3_left_jacobian_inv(phi: np.ndarray) -> np.ndarray:
    """Inverse left Jacobian, stable on ||phi|| < pi."""
    phi = np.asarray(phi, dtype=float)
    if phi.ndim > 1:
        W, theta2, theta, small, safe = _jacobian_angles(phi)
        half = 0.5 * safe
        c = np.where(
            small, 1.0 / 12.0 + theta2 / 720.0, (1.0 - half * np.cos(half) / np.sin(half)) / (safe * safe)
        )
        return _I3 - 0.5 * W + c[..., None, None] * (W @ W)
    theta2 = float(phi @ phi)
    theta = np.sqrt(theta2)
    W = skew(phi)
    if theta < 1e-4:
        c = 1.0 / 12.0 + theta2 / 720.0
    else:
        half = 0.5 * theta
        c = (1.0 - half * np.cos(half) / np.sin(half)) / theta2
    return _I3 - 0.5 * W + c * (W @ W)


@dataclass(frozen=True)
class TangentVector:
    """se2(3) coordinates (phi, rho_v, rho_r) in rad, m/s, m."""

    phi: np.ndarray
    rho_v: np.ndarray
    rho_r: np.ndarray

    def as_vector(self) -> np.ndarray:
        return np.concatenate([self.phi, self.rho_v, self.rho_r], axis=-1)

    @staticmethod
    def from_vector(xi: np.ndarray) -> "TangentVector":
        xi = np.asarray(xi, dtype=float)
        return TangentVector(xi[..., 0:3].copy(), xi[..., 3:6].copy(), xi[..., 6:9].copy())

    @staticmethod
    def zero() -> "TangentVector":
        return TangentVector(np.zeros(3), np.zeros(3), np.zeros(3))


@dataclass(frozen=True)
class SE23:
    """Extended pose: rotation R, velocity column v, position column p."""

    R: np.ndarray
    v: np.ndarray
    p: np.ndarray

    @staticmethod
    def identity() -> "SE23":
        return SE23(np.eye(3), np.zeros(3), np.zeros(3))

    def compose(self, other: "SE23") -> "SE23":
        return SE23(
            self.R @ other.R,
            matvec(self.R, other.v) + self.v,
            matvec(self.R, other.p) + self.p,
        )

    def inverse(self) -> "SE23":
        Rt = transpose(self.R)
        return SE23(Rt, -matvec(Rt, self.v), -matvec(Rt, self.p))

    def as_matrix(self) -> np.ndarray:
        M = np.eye(5)
        M[0:3, 0:3] = self.R
        M[0:3, 3] = self.v
        M[0:3, 4] = self.p
        return M

    @staticmethod
    def from_matrix(M: np.ndarray) -> "SE23":
        M = np.asarray(M, dtype=float)
        R = M[0:3, 0:3].copy()
        _check_rotation(R)
        return SE23(R, M[0:3, 3].copy(), M[0:3, 4].copy())

    def adjoint(self) -> np.ndarray:
        """9x9 adjoint: vee5(X wedge5(xi) X^-1) == adjoint(X) @ xi."""
        A = np.zeros((9, 9))
        A[0:3, 0:3] = self.R
        A[3:6, 0:3] = skew(self.v) @ self.R
        A[3:6, 3:6] = self.R
        A[6:9, 0:3] = skew(self.p) @ self.R
        A[6:9, 6:9] = self.R
        return A


def wedge5(xi: TangentVector) -> np.ndarray:
    """Algebra element: skew(phi) upper-left with rho_v, rho_r columns."""
    M = np.zeros((5, 5))
    M[0:3, 0:3] = skew(xi.phi)
    M[0:3, 3] = xi.rho_v
    M[0:3, 4] = xi.rho_r
    return M


def vee5(M: np.ndarray) -> TangentVector:
    """Inverse of wedge5."""
    return TangentVector(unskew(M[0:3, 0:3]), M[0:3, 3].copy(), M[0:3, 4].copy())


def se23_exp(xi: TangentVector) -> SE23:
    """Group exponential: exp(phi) rotation with left-Jacobian columns."""
    J = so3_left_jacobian(xi.phi)
    return SE23(so3_exp(xi.phi), matvec(J, xi.rho_v), matvec(J, xi.rho_r))


def se23_log(x: SE23) -> TangentVector:
    """Group logarithm; raises AngleAtPi within 1e-6 of the pi cut."""
    phi = so3_log(x.R)
    if phi.ndim == 1:
        theta = float(np.linalg.norm(phi))
        if theta > np.pi - _PI_GUARD:
            raise AngleAtPi(f"rotation angle {theta:.9f} is within {_PI_GUARD:.0e} of pi")
    else:
        theta = np.sqrt(_sq_norm(phi))
        near_pi = np.flatnonzero(theta > np.pi - _PI_GUARD)
        if near_pi.size:
            i = int(near_pi[0])
            raise AngleAtPi(
                f"element {i} of the stack: rotation angle {theta.flat[i]:.9f} "
                f"is within {_PI_GUARD:.0e} of pi",
                element=i,
            )
    Jinv = so3_left_jacobian_inv(phi)
    return TangentVector(phi, matvec(Jinv, x.v), matvec(Jinv, x.p))
