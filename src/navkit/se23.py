"""SE2(3)/SO(3) matrix Lie group and algebra primitives.

The extended-pose group SE2(3) packs a rotation, a velocity column and a
position column into a 5x5 matrix

    [ R  v  p ]
    [ 0  1  0 ]
    [ 0  0  1 ]

Every operation here is a pure function over immutable values, each held
as one packed array whose parts are read-only views of it: an SE23 is its
top 3x5 block K = [R | v | p] (..., 3, 5), on which compose, inverse, exp
and log are block products, and a TangentVector is xi (..., 9) in the
order (phi, rho_v, rho_r) used throughout the package.

Each kernel has one batch-shaped implementation: vectors are (..., 3) and
matrices (..., 3, 3), and a single element is a stack with no leading axis.
The closed forms (Sola et al., "A micro Lie theory for state estimation in
robotics", arXiv:1812.01537) hold elementwise over the batch axes, so the
Monte-Carlo filter propagates all of its runs in lock step on the same code
as one run, and an element's result does not depend on the stack around
it.  Only so3_log's axis extraction near the angle-pi cut runs element by
element.
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
    "se23_exp",
    "se23_log",
]

_ORTHO_TOL = 1e-6  # orthonormality defect beyond this is an error
_SMALL_ANGLE = 1e-8  # series branch threshold for exp-family coefficients
_PI_GUARD = 1e-6  # se23_log refuses angles this close to pi
_JACOBIAN_SERIES = 1e-4  # series branch threshold for the left Jacobians


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


def _domain_error(cls, bad: np.ndarray, single: bool, describe) -> KernelDomainError:
    """cls for the first element flagged in bad, described by describe(i).
    A stack's error names the element (its flat index); a single one's does not."""
    i = int(np.flatnonzero(bad)[0])
    if single:
        return cls(describe(i))
    return cls(f"element {i} of the stack: {describe(i)}", element=i)


# skew(w) flattened row-major is w @ _SKEW_BASIS: one product of exact +-1/0 terms.
_SKEW_BASIS = np.zeros((3, 9))
_SKEW_BASIS[[0, 1, 2], [7, 2, 3]] = 1.0
_SKEW_BASIS[[0, 1, 2], [5, 6, 1]] = -1.0
_I3 = np.eye(3)


def skew(w: np.ndarray) -> np.ndarray:
    """Skew-symmetric matrix such that skew(w) @ u == cross(w, u)."""
    w = np.asarray(w, dtype=float)
    return (w @ _SKEW_BASIS).reshape(w.shape[:-1] + (3, 3))


def matvec(A: np.ndarray, x: np.ndarray) -> np.ndarray:
    """A @ x over leading batch axes: (..., n, m) times (..., m)."""
    return (A @ x[..., None])[..., 0]


def transpose(A: np.ndarray) -> np.ndarray:
    """Swap the last two axes (the matrix transpose of every element)."""
    return A.swapaxes(-1, -2)


def _sq_norm(phi: np.ndarray) -> np.ndarray:
    return np.add.reduce(phi * phi, axis=-1)


def unskew(W: np.ndarray) -> np.ndarray:
    """Inverse of skew for (assumed) antisymmetric 3x3 matrices."""
    return W[..., [2, 0, 1], [1, 2, 0]]


def _check_rotation(R: np.ndarray) -> None:
    # The Frobenius norm of R^T R - I, and det R by cofactors along the first
    # row: elementwise products, where LAPACK's det factors each element.
    D = transpose(R) @ R - _I3
    defect = np.sqrt(np.add.reduce(D * D, axis=(-2, -1)))
    bad = ~(defect <= _ORTHO_TOL)  # a NaN defect fails too
    if bad.any():
        raise _domain_error(
            NotARotation, bad, R.ndim == 2,
            lambda i: f"orthonormality defect {defect.flat[i]:.3e} exceeds {_ORTHO_TOL:.0e}",
        )
    a, b, c = R[..., 0, 0], R[..., 0, 1], R[..., 0, 2]
    d, e, f = R[..., 1, 0], R[..., 1, 1], R[..., 1, 2]
    g, h, k = R[..., 2, 0], R[..., 2, 1], R[..., 2, 2]
    det = a * (e * k - f * h) - b * (d * k - f * g) + c * (d * h - e * g)
    if (det < 0.0).any():
        raise _domain_error(
            NotARotation, det < 0.0, R.ndim == 2,
            lambda i: f"determinant {det.flat[i]:.3f} is negative: a reflection, not a rotation",
        )


def so3_exp(phi: np.ndarray) -> np.ndarray:
    """Rodrigues exponential of a rotation vector.

    Uses the half-angle form of (1-cos)/theta^2 for stability and a series
    branch below the small-angle threshold.
    """
    phi = np.asarray(phi, dtype=float)
    W = skew(phi)
    theta2 = _sq_norm(phi)
    theta = np.sqrt(theta2)
    small = theta < _SMALL_ANGLE
    safe = np.maximum(theta, _SMALL_ANGLE)  # the series covers the elements below
    s = np.sin(0.5 * safe)
    a = np.where(small, 1.0 - theta2 / 6.0, np.sin(safe) / safe)
    b = np.where(small, 0.5 - theta2 / 24.0, 2.0 * s * s / (safe * safe))
    return _I3 + a[..., None, None] * W + b[..., None, None] * (W @ W)


def so3_log(R: np.ndarray) -> np.ndarray:
    """Rotation vector of R with norm <= pi.

    The angle is atan2(|w|, cos theta), with w = axis sin(theta) from the
    antisymmetric part and cos theta from the trace: full precision at
    every angle, where arccos of the trace alone loses digits as sin(theta)
    shrinks.  Near the angle-pi cut the axis is recovered from the
    symmetric part (well conditioned there); the sign is matched to the
    antisymmetric part when it is informative and fixed canonically (first
    nonzero component positive) at exactly pi, where both signs are
    equivalent.

    Raises NotARotation if R is not orthonormal with det +1 to 1e-6.
    """
    R = np.asarray(R, dtype=float)
    _check_rotation(R)
    # The trace and the clip to [-1, 1], spelled out: np.trace and np.clip
    # together take nearly twice as long on a single element, for the same bits.
    cos_theta = np.minimum(np.maximum((R[..., 0, 0] + R[..., 1, 1] + R[..., 2, 2] - 1.0) / 2.0, -1.0), 1.0)
    w = unskew(R - transpose(R)) / 2.0  # = axis * sin(theta)
    theta = np.arctan2(np.sqrt(_sq_norm(w)), cos_theta)
    regular = theta >= _SMALL_ANGLE
    sin_theta = np.where(regular, np.sin(theta), 1.0)
    out = np.where(regular, theta / sin_theta, 1.0)[..., None] * w
    flat = out.reshape(-1, 3)  # a view: out is a fresh array
    for i in np.flatnonzero(theta >= np.pi - 1e-3):
        flat[i] = _log_near_pi(R.reshape(-1, 3, 3)[i], cos_theta.flat[i], w.reshape(-1, 3)[i])
    return out


def _log_near_pi(R: np.ndarray, cos_theta: float, w: np.ndarray) -> np.ndarray:
    """so3_log of one rotation within 1e-3 of the pi cut.

    The angle is pi - asin|w|, as |w| = sin(theta): arccos of the trace
    resolves it only to about sqrt(eps) here.  The axis is the column of
    B = S - cos I = (1-cos) a a^T (S the symmetric part) through B's largest
    diagonal entry: its off-diagonal entries carry a_i a_k linearly, so a
    small axis component keeps its digits.
    """
    sin_theta = min(float(np.linalg.norm(w)), 1.0)
    theta = np.pi - np.arcsin(sin_theta)
    B = (R + R.T) / 2.0 - cos_theta * _I3
    col = B[:, int(np.argmax(np.diag(B)))]
    axis = col / np.linalg.norm(col)
    if sin_theta > 1e-14:  # w's rounding (~1e-16) cannot flip its sign
        if float(w @ axis) < 0.0:
            axis = -axis
    else:
        nz = np.flatnonzero(np.abs(axis) > 1e-12)
        if nz.size and axis[nz[0]] < 0.0:
            axis = -axis
    return axis * theta


def _jacobian_angles(phi: np.ndarray):
    """(W, theta^2, series mask, theta floored at the series threshold)
    for vectors phi (..., 3)."""
    phi = np.asarray(phi, dtype=float)
    theta2 = _sq_norm(phi)
    theta = np.sqrt(theta2)
    return skew(phi), theta2, theta < _JACOBIAN_SERIES, np.maximum(theta, _JACOBIAN_SERIES)


def so3_left_jacobian(phi: np.ndarray) -> np.ndarray:
    """Left Jacobian J of SO(3): d(exp)/d(phi) transport of tangent columns."""
    W, theta2, small, safe = _jacobian_angles(phi)
    s = np.sin(0.5 * safe)
    b = np.where(small, 0.5 - theta2 / 24.0, 2.0 * s * s / (safe * safe))
    c = np.where(small, 1.0 / 6.0 - theta2 / 120.0, (safe - np.sin(safe)) / (safe * safe * safe))
    return _I3 + b[..., None, None] * W + c[..., None, None] * (W @ W)


def so3_left_jacobian_inv(phi: np.ndarray) -> np.ndarray:
    """Inverse left Jacobian, stable on ||phi|| < pi."""
    W, theta2, small, safe = _jacobian_angles(phi)
    half = 0.5 * safe
    c = np.where(small, 1.0 / 12.0 + theta2 / 720.0, (1.0 - half * np.cos(half) / np.sin(half)) / (safe * safe))
    return _I3 - 0.5 * W + c[..., None, None] * (W @ W)


def _holding(value, name: str, a: np.ndarray):
    """value with its one array set to a read-only view of a (a keeps its own flag)."""
    a = a.view()
    a.flags.writeable = False
    object.__setattr__(value, name, a)
    return value


@dataclass(frozen=True, init=False)
class TangentVector:
    """se2(3) coordinates (phi, rho_v, rho_r) in rad, m/s, m, held packed as
    one array xi (..., 9) in that order; phi, rho_v and rho_r are read-only
    views of it."""

    xi: np.ndarray
    phi = property(lambda self: self.xi[..., 0:3])
    rho_v = property(lambda self: self.xi[..., 3:6])
    rho_r = property(lambda self: self.xi[..., 6:9])

    def __init__(self, phi: np.ndarray, rho_v: np.ndarray, rho_r: np.ndarray):
        _holding(self, "xi", np.concatenate([np.asarray(a, dtype=float) for a in (phi, rho_v, rho_r)], axis=-1))

    def as_vector(self) -> np.ndarray:
        return self.xi

    @staticmethod
    def from_vector(xi: np.ndarray) -> "TangentVector":
        """The coordinates packed in xi (..., 9), copied once."""
        return _holding(TangentVector.__new__(TangentVector), "xi", np.array(xi, dtype=float))


@dataclass(frozen=True, init=False)
class SE23:
    """Extended pose: rotation R, velocity column v, position column p, held
    packed as the top 3x5 block K = [R | v | p] (..., 3, 5) of the group
    matrix; R, v and p are read-only views of K (writing through one raises
    ValueError).  SE23(R, v, p) copies the parts into a new K once."""

    K: np.ndarray
    R = property(lambda self: self.K[..., 0:3])
    v = property(lambda self: self.K[..., 3])
    p = property(lambda self: self.K[..., 4])

    def __init__(self, R: np.ndarray, v: np.ndarray, p: np.ndarray):
        K = np.empty(np.shape(R)[:-2] + (3, 5))  # R carries the stack's shape
        K[..., 0:3], K[..., 3], K[..., 4] = R, v, p
        _holding(self, "K", K)

    @classmethod
    def packed(cls, K: np.ndarray) -> "SE23":
        """Wrap a packed (..., 3, 5) block without copying it."""
        return _holding(cls.__new__(cls), "K", K)

    def compose(self, other: "SE23") -> "SE23":
        """[R1 | v1 p1] [R2 | v2 p2] = R1 K2 + [0 | v1 p1]."""
        K = self.R @ other.K
        K[..., 3:5] += self.K[..., 3:5]
        return SE23.packed(K)

    def inverse(self) -> "SE23":
        """[R^T | -R^T [v p]]."""
        Rt = transpose(self.R)
        return SE23.packed(np.concatenate((Rt, -(Rt @ self.K[..., 3:5])), axis=-1))

    def as_matrix(self) -> np.ndarray:
        """The 5x5 group matrix of every element, (..., 5, 5)."""
        M = np.zeros(self.K.shape[:-2] + (5, 5))
        M[..., 0:3, :] = self.K
        M[..., 3, 3] = M[..., 4, 4] = 1.0
        return M

    def adjoint(self) -> np.ndarray:
        """9x9 adjoint (..., 9, 9): X xi^ X^-1 = (adjoint(X) @ xi)^, where xi^
        is the 5x5 algebra element with skew(phi) upper left and the rho_v,
        rho_r columns."""
        R = self.R
        A = np.zeros(R.shape[:-2] + (9, 9))
        A[..., 0:3, 0:3] = A[..., 3:6, 3:6] = A[..., 6:9, 6:9] = R
        A[..., 3:6, 0:3] = skew(self.v) @ R
        A[..., 6:9, 0:3] = skew(self.p) @ R
        return A


def se23_exp(xi: TangentVector) -> SE23:
    """Group exponential [exp(phi) | J [rho_v rho_r]], J the left Jacobian."""
    rho = transpose(xi.xi[..., 3:9].reshape(xi.xi.shape[:-1] + (2, 3)))
    return SE23.packed(np.concatenate((so3_exp(xi.phi), so3_left_jacobian(xi.phi) @ rho), axis=-1))


def se23_log(x: SE23) -> TangentVector:
    """Group logarithm; raises AngleAtPi within 1e-6 of the pi cut."""
    phi = so3_log(x.R)
    theta = np.sqrt(_sq_norm(phi))
    near_pi = theta > np.pi - _PI_GUARD
    if near_pi.any():
        raise _domain_error(
            AngleAtPi, near_pi, phi.ndim == 1,
            lambda i: f"rotation angle {theta.flat[i]:.9f} is within {_PI_GUARD:.0e} of pi",
        )
    rho = transpose(so3_left_jacobian_inv(phi) @ x.K[..., 3:5])  # rows rho_v, rho_r
    return TangentVector.from_vector(np.concatenate((phi, rho.reshape(phi.shape[:-1] + (6,))), axis=-1))
