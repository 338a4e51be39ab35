"""Lie-group extended Kalman filter for SINS with body-velocity aiding.

The 15-dim error state is (phi, rho_v, rho_r, db_g, db_a) in either the
right (eta = X X~^-1) or left (eta = X~^-1 X) convention. predict
propagates over one measurement interval of IMU samples: the
bias-corrected strapdown update sample by sample (the midpoint rule's
gravity linearized once per sub-step) and the discretized covariance
propagation once per sub-step of at most 0.1 s, with the sub-steps'
linearizations (G is minus F's bias columns, both
Ad_X~[:, 0:6] in the right convention) formed as one stack and the
transition from F's nine navigation rows (its bias rows are zero);
fuse fuses a body-frame velocity (odometer with non-holonomic lateral and
vertical pseudo-measurements) through the Joseph form and retracts the
estimated error onto the group.  No frame is named here: the frame
geometry (earth.py's frame map) arrives through the FilterState's model.

Every function here also runs a batch of filters in lock step: a
FilterState whose arrays carry a leading run axis (the pose's packed K
(N,3,5), bias (N,6), P (N,15,15)) and shares one clock.  predict advances
every run over the interval (inputs (L, N, 3)); fuse applies each run's
odometer sample under that run's own gate, and the checks (singular or
non-finite innovation covariance, covariance health) are made per run.  Their
failures are KernelDomainErrors that name the failing element of the
stack, as the group kernels' do; the filter loop adds that element's run
and epoch.
"""
from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

from .error_models import ErrorConvention, apply_correction, linearized_F_G
from .mechanization import ImuSample, NavModel, NavState, _at_sample, _substeps, integrate
from .se23 import SE23, KernelDomainError, TangentVector, _domain_error, matvec, skew, transpose

__all__ = [
    "SpecInvalid",
    "CovarianceNotPSD",
    "NonFiniteInnovation",
    "SingularInnovation",
    "FilterState",
    "NoiseConfig",
    "OdoSample",
    "predict",
    "odo_H",
    "fuse",
    "check_covariance",
]

_SYM_TOL = 1e-9
_EIG_TOL = 1e-9
_COND_FLOOR = 1e-12


class SpecInvalid(ValueError):
    """A setting the runtime cannot realize; field names it, if one does."""

    def __init__(self, message: str, field: str | None = None):
        super().__init__(message)
        self.field = field


class CovarianceNotPSD(KernelDomainError):
    """Covariance lost symmetry or positive semidefiniteness."""


class SingularInnovation(KernelDomainError):
    """Innovation covariance is numerically singular."""


class NonFiniteInnovation(KernelDomainError):
    """Innovation covariance has non-finite entries: a non-finite P or state
    reached the update."""


@dataclass(frozen=True)
class NoiseConfig:
    """Continuous-time sensor noise densities and the odometer covariance."""

    gyro_noise_psd: float = 1e-8  # (rad/s)^2/Hz
    accel_noise_psd: float = 1e-5  # (m/s^2)^2/Hz
    gyro_bias_rw_psd: float = 1e-12
    accel_bias_rw_psd: float = 1e-9
    odo_noise_cov: np.ndarray = field(default_factory=lambda: np.diag([1e-4, 1e-4, 1e-4]))

    def __post_init__(self):
        for name in ("gyro_noise_psd", "accel_noise_psd", "gyro_bias_rw_psd", "accel_bias_rw_psd"):
            value = getattr(self, name)
            if not (np.isfinite(value) and value >= 0.0):
                raise SpecInvalid(f"{name} must be finite and >= 0, got {value}", name)
        R = np.asarray(self.odo_noise_cov, dtype=float)
        if R.shape == (3, 3) and not np.isfinite(R).all():
            raise SpecInvalid("odo_noise_cov must be finite", "odo_noise_cov")
        if R.shape != (3, 3) or not np.allclose(R, R.T, atol=1e-12):
            raise SpecInvalid("odo_noise_cov must be a symmetric 3x3 matrix", "odo_noise_cov")
        if np.linalg.eigvalsh(R)[0] <= 0.0:
            raise SpecInvalid("odo_noise_cov must be positive definite", "odo_noise_cov")
        object.__setattr__(self, "odo_noise_cov", R)
        object.__setattr__(
            self,
            "_Q",
            np.diag([self.gyro_noise_psd] * 3 + [self.accel_noise_psd] * 3),
        )
        b = [0.0] * 9 + [self.gyro_bias_rw_psd] * 3 + [self.accel_bias_rw_psd] * 3
        object.__setattr__(self, "_B", np.diag(b))

    def input_psd(self) -> np.ndarray:
        return self._Q

    def bias_walk_psd(self) -> np.ndarray:
        """15x15 diagonal PSD of the bias random walks in the filter chart."""
        return self._B


@dataclass(frozen=True)
class OdoSample:
    """Body-frame velocity aiding sample (forward axis; lateral/vertical
    are non-holonomic zeros)."""

    v_odo_b: np.ndarray
    t: float


@dataclass(frozen=True)
class FilterState:
    """Estimate, bias estimates and the 15x15 error covariance.

    bias (6,) is the gyro then the accelerometer bias, in the error-state
    order (db_g, db_a).  model is the navigation model of nav's frame,
    grouping and anchors, built once for the filter (or the batch) and read
    by predict and fuse.  For a lock-step batch the arrays carry a leading
    run axis.
    """

    nav: NavState
    bias: np.ndarray
    P: np.ndarray
    conv: ErrorConvention
    model: NavModel
    t: float = 0.0


def check_covariance(P: np.ndarray) -> None:
    """Raise CovarianceNotPSD when P, or any element of a stack of them, is
    asymmetric or indefinite; for a stack the error names the element.
    A stack that Cholesky factors passes; otherwise each P passes when its
    least eigenvalue is at least -1e-9 times its trace."""
    single = P.ndim == 2
    flat = P.reshape(-1, 15, 15)
    finite = np.isfinite(flat).all(axis=(1, 2))
    if not finite.all():
        raise _domain_error(CovarianceNotPSD, ~finite, single, lambda i: "covariance has non-finite entries")
    asym = np.abs(flat - transpose(flat)).max(axis=(1, 2)) > _SYM_TOL
    if asym.any():
        raise _domain_error(CovarianceNotPSD, asym, single, lambda i: "covariance asymmetry exceeds 1e-9")
    try:
        np.linalg.cholesky(flat)
        return
    except np.linalg.LinAlgError:  # singular or indefinite: the eigenvalues decide
        pass
    eig_min = np.linalg.eigvalsh(flat)[:, 0]
    trace = np.trace(flat, axis1=1, axis2=2)
    bad = eig_min < -_EIG_TOL * np.maximum(trace, 1e-300)
    if bad.any():
        raise _domain_error(
            CovarianceNotPSD, bad, single, lambda i: f"covariance indefinite (min eig {eig_min[i]:.3e})"
        )


def predict(
    fs: FilterState, imu: ImuSample, noise: NoiseConfig, method: str = "midpoint", buffers: dict | None = None
) -> FilterState:
    """Propagate the filter over one measurement interval and return its
    state at the interval's end.

    imu holds the interval's L samples: omega and f (L, ..., 3), a batch's
    run axis after the sample axis, and dt (L,).  The bias-corrected
    strapdown update runs sample by sample (mechanization.integrate), and t
    advances by each sample's dt.  The covariance steps once per sub-step
    (mechanization._substeps: the interval cut into runs of near-equal
    sample count that each last at most _MAX_DT, one run for a 10 Hz
    odometer), the cut at which the midpoint rule linearizes gravity: each is
    linearized once, at its middle sample's pre-sample estimate and
    bias-corrected input, all of them as one (n_sub, ...) stack under the
    filter's model.  Over a sub-step of length D the transition is
    Phi = I + F D + (F D)^2 / 2 on F's nine navigation rows, the noise the
    trapezoid D/2 (Phi M Phi^T + M), M = G Q G^T, plus the bias walks, and
    the n_sub sandwiches run in order; so a predict's covariance, and
    under the midpoint rule its pose, is bit for bit that of the predicts
    chained over its sub-steps (rk4's pose, of the one-sample predicts).
    A KernelDomainError names element l*N + i of the (L, N) sample stack:
    run i at sample l, the sample a failing linearization was made at.

    buffers is a dict the caller keeps across calls, as the filter loop
    does: the interval's (n_sub, ..., 15, 15) stacks (F, Phi, Phi^T and the
    noise terms), G and its contiguous transpose, and the sandwich's two
    covariance stacks are written into its arrays with out= and reused by
    every later call whose stacks fit them (fewer sub-steps included), so
    the steady state forms none of them afresh.  Without it they are new
    arrays.  The returned state holds none of them.
    """
    corrected = ImuSample(imu.omega_ib_b - fs.bias[..., 0:3], imu.f_ib_b - fs.bias[..., 3:6], imu.dt)
    blocks = integrate(fs.nav, corrected, fs.model, method=method)
    dts = np.asarray(imu.dt, dtype=float)
    bounds, spans = _substeps(dts)
    mid = [b + (e - b) // 2 for b, e in zip(bounds, bounds[1:])]
    stack = (len(mid),) + fs.P.shape[:-2]  # (n_sub, ...): one element per sub-step and run

    def buffer(name, shape):
        return _buffer(buffers, name, stack + shape)

    est = replace(fs.nav, x=SE23.packed(blocks[mid]))
    at_mid = ImuSample(corrected.omega_ib_b[mid], corrected.f_ib_b[mid], dts[mid])
    try:
        F, G = linearized_F_G(fs.conv, est, at_mid, fs.model, out=(buffer("F", (15, 15)), buffer("G", (15, 6))))
    except KernelDomainError as exc:
        n = fs.P[..., 0, 0].size
        raise _at_sample(exc, mid[(exc.element or 0) // n], fs.nav.x.K) from exc

    # Qd = D/2 (Phi M Phi^T + M) with M = G Q G^T, folded into one sandwich:
    # P+ = Phi (P + D/2 M) Phi^T + D/2 M + bias random walks.
    dt = np.array(spans).reshape((len(spans),) + (1,) * (F.ndim - 1))  # each sub-step's length D
    Fdt = np.multiply(F, dt, out=F)
    Phi = np.add(_I15, Fdt, out=buffer("Phi", (15, 15)))
    FdtFdt = np.matmul(Fdt[..., :9, :9], Fdt[..., :9, :], out=buffer("FdtFdt", (9, 15)))  # F's bias rows are zero
    FdtFdt *= 0.5
    Phi[..., :9, :] += FdtFdt
    Phi_T = buffer("Phi_T", (15, 15))
    np.copyto(Phi_T, transpose(Phi))
    G_T = buffer("G_T", (6, 15))  # a contiguous copy: the product on it is faster than on the view, with equal bits
    np.copyto(G_T, transpose(G))
    half_M = np.matmul(np.multiply(G, np.diagonal(noise.input_psd()), out=G), G_T, out=buffer("half_M", (15, 15)))
    half_M *= 0.5 * dt
    # D/2 M plus the bias walks, for every sub-step at once
    noise_d = np.add(half_M, noise.bias_walk_psd() * dt, out=buffer("noise_d", (15, 15)))
    # The sandwich alternates between two covariance stacks; the result is copied out of them.
    a, b = (_buffer(buffers, name, fs.P.shape) for name in ("P_a", "P_b"))
    P = fs.P
    for s in range(len(mid)):
        np.add(P, half_M[s], out=a)
        np.matmul(Phi[s], a, out=b)
        np.matmul(b, Phi_T[s], out=a)
        a += noise_d[s]
        P = np.add(a, transpose(a), out=b)
        P *= 0.5
    t = fs.t
    for dt_l in dts.tolist():
        t = t + dt_l
    return FilterState(replace(fs.nav, x=SE23.packed(blocks[-1])), fs.bias, P.copy(), fs.conv, fs.model, t)


def _buffer(buffers: dict | None, name: str, shape: tuple) -> np.ndarray:
    """An array of shape: buffers[name] cut to shape's leading length when
    its other axes are shape's and it is long enough, else a new array,
    kept as buffers[name] when buffers is given."""
    held = None if buffers is None else buffers.get(name)
    if held is None or held.shape[1:] != shape[1:] or len(held) < shape[0]:
        held = np.empty(shape)
        if buffers is not None:
            buffers[name] = held
    return held[: shape[0]]


_I15 = np.eye(15)
_NEG_I3 = -np.eye(3)


def odo_H(conv: ErrorConvention, est: NavState, model: NavModel) -> tuple[np.ndarray, np.ndarray]:
    """Measurement matrix and predicted body velocity for the odometer.

    Returns (H, v_ins_b) where the innovation is v_ins_b - z.v_odo_b and
    H maps the 15-dim error vector to that innovation to first order. The
    bias columns are zero.
    """
    model.check(est)
    C, p = est.x.R, est.x.p
    vb = model.body_velocity(est.x)
    H = np.zeros(C.shape[:-2] + (3, 15))
    omega, Om = model.earth_omega, model.earth_Om
    Ct = transpose(C)
    fold = model.fold

    if conv is ErrorConvention.LEFT:
        H[..., 0:3] = skew(vb)
        H[..., 3:6] = _NEG_I3
        if not fold:
            # The models without the Coriolis fold (i-frame and both
            # proposed) carry the earth rate on the position block.
            H[..., 6:9] = skew(matvec(Ct, omega))
        return H, vb

    H[..., 3:6] = -Ct
    if not fold:
        # C^T Om_e and the attitude term of e's rate relative to the frame
        # (zero but in i) through the base point, in one product.
        CtB = Ct @ model.odo_Om
        H[..., 0:3] = -Ct @ skew(p) @ Om + CtB[..., 3:6]
        H[..., 6:9] = CtB[..., 0:3]
    # the fold models (traditional e/w): attitude and position blocks stay zero.
    return H, vb


def fuse(
    fs: FilterState,
    z: OdoSample,
    noise: NoiseConfig,
    gate_sigma: float | None = None,
    imu_period: float = 0.01,
) -> tuple[FilterState, np.ndarray, np.ndarray, np.ndarray]:
    """Fuse one odometer sample (nearest-epoch alignment, no interpolation).

    Returns (state, innovation, whitened innovation, applied), the last a
    bool per run (a 0-d array for a single filter).  A sample the gate
    rejects leaves its run's state untouched; when every run rejects, the
    input state itself is returned.  One Cholesky factor L of the
    innovation covariance S = L L^T gives the whitened innovation L^-1 y,
    the NIS |L^-1 y|^2 the gate tests, and the gain P H^T L^-T L^-1.
    """
    if abs(z.t - fs.t) > imu_period + 1e-9:
        raise ValueError(f"odo sample at t={z.t} not aligned with filter t={fs.t}")
    H, vb = odo_H(fs.conv, fs.nav, fs.model)
    y = vb - np.asarray(z.v_odo_b, dtype=float)

    R = noise.odo_noise_cov
    Ht = transpose(H)
    S = H @ fs.P @ Ht + R
    S = 0.5 * (S + transpose(S))
    finite = np.isfinite(S).all(axis=(-2, -1))
    if not finite.all():  # eigvalsh would fail to converge without naming the element
        raise _domain_error(
            NonFiniteInnovation, ~finite, S.ndim == 2, lambda i: "innovation covariance has non-finite entries"
        )
    eig = np.linalg.eigvalsh(S)
    singular = eig[..., 0] <= _COND_FLOOR * np.maximum(eig[..., -1], 0.0)
    if singular.any():
        lo, hi = eig[..., 0].reshape(-1), eig[..., -1].reshape(-1)
        raise _domain_error(
            SingularInnovation, singular, S.ndim == 2,
            lambda i: f"innovation covariance conditioning {lo[i]:.3e}/{hi[i]:.3e}",
        )
    Linv = np.linalg.inv(np.linalg.cholesky(S))
    white = matvec(Linv, y)
    applied = np.ones(y.shape[:-1], dtype=bool)
    if gate_sigma is not None:
        nis = np.add.reduce(white * white, axis=-1)
        applied = nis <= gate_sigma**2  # a rejected sample carries the state through
        if not np.any(applied):
            return fs, y, white, applied

    K = fs.P @ Ht @ (transpose(Linv) @ Linv)
    dx = matvec(K, y)
    nav = apply_correction(fs.nav, TangentVector.from_vector(dx[..., :9]), fs.conv)
    bias = fs.bias - dx[..., 9:15]

    A = _I15 - K @ H
    P = A @ fs.P @ transpose(A) + K @ R @ transpose(K)
    P = 0.5 * (P + transpose(P))
    if not np.all(applied):
        keep = ~applied
        nav = replace(nav, x=SE23.packed(np.where(keep[:, None, None], fs.nav.x.K, nav.x.K)))
        bias = np.where(keep[:, None], fs.bias, bias)
        P = np.where(keep[:, None, None], fs.P, P)
    check_covariance(P)
    return FilterState(nav, bias, P, fs.conv, fs.model, fs.t), y, white, applied
