"""Lie-group extended Kalman filter for SINS with body-velocity aiding.

The 15-dim error state is (phi, rho_v, rho_r, db_g, db_a) in either the
right (eta = X X~^-1) or left (eta = X~^-1 X) convention. predict
propagates over one measurement interval of IMU samples: the
bias-corrected strapdown update and the discretized covariance
propagation, with the interval's linearizations formed as one stack;
fuse fuses a body-frame velocity (odometer with non-holonomic lateral and
vertical pseudo-measurements) through the Joseph form and retracts the
estimated error onto the group.

Every function here also runs a batch of filters in lock step: a
FilterState whose arrays carry a leading run axis (the pose's packed K
(N,3,5), bias (N,6), P (N,15,15)) and shares one clock.  predict advances
every run over the interval (inputs (L, N, 3)); fuse applies each run's
odometer sample under that run's own gate, and the checks (singular
innovation covariance, covariance health) are made per run.  Their
failures are KernelDomainErrors that name the failing element of the
stack, as the group kernels' do; the filter loop adds that element's run
and epoch.
"""
from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

from .error_models import ErrorConvention, apply_correction, linearized_F_G
from .mechanization import Frame, ImuSample, NavModel, NavState, integrate
from .se23 import SE23, KernelDomainError, TangentVector, _domain_error, matvec, skew, transpose

__all__ = [
    "CovarianceNotPSD",
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


class CovarianceNotPSD(KernelDomainError):
    """Covariance lost symmetry or positive semidefiniteness."""


class SingularInnovation(KernelDomainError):
    """Innovation covariance is numerically singular."""


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
            if getattr(self, name) < 0.0:
                raise ValueError(f"{name} must be >= 0")
        R = np.asarray(self.odo_noise_cov, dtype=float)
        if R.shape != (3, 3) or not np.allclose(R, R.T, atol=1e-12):
            raise ValueError("odo_noise_cov must be a symmetric 3x3 matrix")
        if np.linalg.eigvalsh(R)[0] <= 0.0:
            raise ValueError("odo_noise_cov must be positive definite")
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


def predict(fs: FilterState, imu: ImuSample, noise: NoiseConfig, method: str = "midpoint") -> FilterState:
    """Propagate the filter over one measurement interval and return its
    state at the interval's end.

    imu holds the interval's L samples: omega and f (L, ..., 3), a batch's
    run axis after the sample axis, and dt (L,).  The bias-corrected
    strapdown update runs sample by sample (mechanization.integrate); the
    linearizations along the L pre-sample estimates, the transition
    matrices and the noise terms are formed as one stack under the filter's
    model, and only the L covariance sandwiches run in order, so the result
    is bit for bit that of L one-sample predicts.  A KernelDomainError names
    element l*N + i of the (L, N) stack: run i at sample l.
    """
    corrected = ImuSample(
        np.asarray(imu.omega_ib_b, dtype=float) - fs.bias[..., 0:3],
        np.asarray(imu.f_ib_b, dtype=float) - fs.bias[..., 3:6],
        imu.dt,
    )
    blocks = integrate(fs.nav, corrected, fs.model, method=method)
    F, G = linearized_F_G(fs.conv, replace(fs.nav, x=SE23.packed(blocks[:-1])), corrected, fs.model)

    # Qd = dt/2 (Phi M Phi^T + M) with M = G Q G^T, folded into one sandwich:
    # P+ = Phi (P + dt/2 M) Phi^T + dt/2 M + bias random walks.
    dts = np.asarray(imu.dt, dtype=float)
    dt = dts.reshape(dts.shape + (1,) * (F.ndim - 1))
    Fdt = F * dt
    Phi = _I15 + Fdt + 0.5 * (Fdt @ Fdt)
    half_M = (0.5 * dt) * ((G * np.diagonal(noise.input_psd())) @ transpose(G))
    noise_d = half_M + noise.bias_walk_psd() * dt  # dt/2 M plus the bias walks, for every sample at once
    P, t = fs.P, fs.t
    for l, dt_l in enumerate(dts.tolist()):
        P = Phi[l] @ (P + half_M[l]) @ transpose(Phi[l]) + noise_d[l]
        P = 0.5 * (P + transpose(P))
        t = t + dt_l
    return FilterState(replace(fs.nav, x=SE23.packed(blocks[-1])), fs.bias, P, fs.conv, fs.model, t)


_I15 = np.eye(15)


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
        H[..., 3:6] = -np.eye(3)
        if not fold:
            # The models without the Coriolis fold (i-frame and both
            # proposed) carry the earth rate on the position block.
            H[..., 6:9] = skew(matvec(Ct, omega))
        return H, vb

    H[..., 3:6] = -Ct
    if est.frame is Frame.I:
        r_ib = est.r0 + p
        H[..., 0:3] = Ct @ (skew(matvec(Om, r_ib)) - Om @ skew(p))
        H[..., 6:9] = Ct @ Om
    elif not fold:
        H[..., 0:3] = -Ct @ skew(p) @ Om
        H[..., 6:9] = Ct @ Om
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
