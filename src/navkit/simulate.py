"""Trajectory simulation, inverse IMU, and the filter test harness.

The truth generator works in a local north-east-down world frame: a
trajectory is a list of constant-rate segments (straight runs, level
turns, climbs, rests) whose yaw-rate / pitch / speed profiles are
blended across segment boundaries with integral-preserving quintic
ramps, so velocity is C^1 while single-segment legs keep their exact
textbook geometry.  ``inverse_imu`` recovers the per-interval inertial
inputs by Newton-inverting the one-step integrator so each step lands
exactly on the next grid attitude and velocity, which is what makes the
generate -> invert -> re-mechanize loop close to navigation precision.

On top of that sit the sensor corrupters (bias + random walk + white
noise, all drawn from keyed counter-based streams), the odometer
synthesizer, and the run harness: one filter loop that propagates a batch
of runs in lock step (a single run is a batch of one) with error / NEES /
innovation bookkeeping and bit-reproducible per-run substreams, and the
twin-propagation autonomy experiments.

Every series is one stacked array value, built once: inverse_imu's inputs
are one ImuSample (omega, f (n, 3), dt (n,)), corrupt maps that stack to
the measured one, gen_odometer gives (grid indices, body velocities), and
the filter loop converts the truth at every scored epoch into the
filter's frame and grouping in one batch-shaped call.  The loop's
sequential path is only predict and fuse: the error, NEES and their
kernels run on blocks of stored epochs, one stacked pass per block.  Its
result is one batch-shaped RunResult, a run per row, whose consistency
aggregates pool over every run it holds; a failure inside the loop names
its run and epoch.
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass, field, fields, replace
from typing import Sequence

import numpy as np

from .earth import (
    EarthParams,
    GravityModel,
    SphericalGravity,
    WorldFrameDef,
    ned_world,
)
from .error_models import (
    ErrorConvention,
    ModelVariant,
    _check_compatible,
    apply_correction,
    classify_autonomy,
    error_from_states,
    error_to_vector,
)
from .lgekf import FilterState, NoiseConfig, OdoSample, fuse, predict
from .mechanization import (
    Frame,
    Grouping,
    ImuSample,
    NavModel,
    NavState,
    derivative,
    integrate,
    nav_from_physical,
    physical_from_nav,
    step,
)
from .rng import (
    STREAM_ACCEL_BIAS_WALK,
    STREAM_ACCEL_NOISE,
    STREAM_GYRO_BIAS_WALK,
    STREAM_GYRO_NOISE,
    STREAM_INIT_BIAS,
    STREAM_INIT_STATE,
    STREAM_ODOMETER,
    GaussianStream,
    substream,
)
from .se23 import (
    SE23, KernelDomainError, TangentVector, matvec, se23_exp, se23_log, so3_exp, so3_log, transpose, unskew,
)

__all__ = [
    "SpecInvalid",
    "Straight",
    "Turn",
    "Climb",
    "Rest",
    "TrajectorySpec",
    "TruthSeries",
    "gen_truth",
    "inverse_imu",
    "NewtonNotConverged",
    "SensorErrors",
    "true_bias_series",
    "corrupt",
    "gen_odometer",
    "RunConfig",
    "RunResult",
    "run_single",
    "run_monte_carlo",
    "AutonomySettings",
    "AutonomyResult",
    "autonomy_experiment",
]

_MAX_TOTAL_DURATION = 3600.0
_GRID_TOL = 1e-9
_SCORE_RATE = 10.0  # Hz; the filter loop scores at this rate with the odometer off
_SCORE_BLOCK = 64  # epochs the filter loop scores per stacked pass (0.9 MB of covariances at 8 runs)


class SpecInvalid(ValueError):
    """A trajectory spec that cannot be realized."""


@contextmanager
def _naming_elements(where, width=None):
    """Re-raise a stacked kernel's KernelDomainError as its own type, the
    message prefixed with where(element): the run or trajectory and epoch.
    With width the stack is (epochs, width) and the re-raised error's
    element is the failing element's index along width (its run)."""
    try:
        yield
    except KernelDomainError as exc:
        if exc.element is None:
            raise
        element = exc.element if width is None else exc.element % width
        raise type(exc)(f"{where(exc.element)}: {exc}", element=element) from exc


# ---------------------------------------------------------------------------
# trajectory segments and profiles


@dataclass(frozen=True)
class Straight:
    """Constant speed, constant heading, level."""

    duration: float
    speed: float


@dataclass(frozen=True)
class Turn:
    """Level coordinated turn at constant yaw rate and speed."""

    duration: float
    yaw_rate: float
    speed: float


@dataclass(frozen=True)
class Climb:
    """Constant flight-path pitch at constant speed."""

    duration: float
    pitch: float
    speed: float


@dataclass(frozen=True)
class Rest:
    """Stationary segment."""

    duration: float


Segment = Straight | Turn | Climb | Rest


@dataclass(frozen=True)
class TrajectorySpec:
    """Segment list plus the IMU grid rate."""

    segments: tuple
    imu_rate: float = 100.0

    def __post_init__(self):
        object.__setattr__(self, "segments", tuple(self.segments))

    @property
    def total_duration(self) -> float:
        return float(sum(s.duration for s in self.segments))


def _validate_spec(spec: TrajectorySpec) -> None:
    if not spec.segments:
        raise SpecInvalid("trajectory needs at least one segment")
    for i, seg in enumerate(spec.segments):
        if not isinstance(seg, (Straight, Turn, Climb, Rest)):
            raise SpecInvalid(f"segment {i}: unknown segment type {type(seg).__name__}")
        if not seg.duration > 0.0:
            raise SpecInvalid(f"segment {i}: duration must be positive, got {seg.duration}")
        speed = getattr(seg, "speed", 0.0)
        if speed < 0.0:
            raise SpecInvalid(f"segment {i}: speed must be non-negative, got {speed}")
        if isinstance(seg, Climb) and not abs(seg.pitch) < np.pi / 2:
            raise SpecInvalid(f"segment {i}: pitch must lie in (-pi/2, pi/2)")
    total = spec.total_duration
    if total > _MAX_TOTAL_DURATION:
        raise SpecInvalid(f"total duration {total:.1f} s exceeds {_MAX_TOTAL_DURATION:.0f} s")
    if total < 1.0 / _SCORE_RATE - _GRID_TOL:
        raise SpecInvalid(f"total duration {total:g} s is shorter than one {1.0 / _SCORE_RATE:g} s scoring period")
    if spec.imu_rate < 10.0:
        raise SpecInvalid(f"imu_rate must be at least 10 Hz, got {spec.imu_rate}")


def _smoothstep(x: np.ndarray) -> np.ndarray:
    return x * x * x * (10.0 + x * (-15.0 + 6.0 * x))


def _smoothstep_deriv(x: np.ndarray) -> np.ndarray:
    return 30.0 * x * x * (1.0 - x) * (1.0 - x)


def _smoothstep_integral(x: np.ndarray) -> np.ndarray:
    return x ** 4 * (2.5 + x * (-3.0 + x))


class _Profile:
    """Piecewise-constant profile with centered quintic boundary blends.

    The blend at each interior boundary is symmetric about it, so the
    running integral of the blended profile equals the step profile's
    integral outside every blend window.  There is no ramp at t=0 or at
    the end: the profile starts and finishes on the raw segment values.
    """

    def __init__(self, edges: np.ndarray, values: np.ndarray, windows: np.ndarray):
        self.edges = edges  # (m+1,) cumulative segment boundaries, edges[0] == 0
        self.values = values  # (m,)
        self.windows = windows  # (m-1,) half-widths at interior boundaries
        durations = np.diff(edges)
        self._cum = np.concatenate([[0.0], np.cumsum(values * durations)])

    def _seg_index(self, t: np.ndarray) -> np.ndarray:
        return np.clip(np.searchsorted(self.edges, t, side="right") - 1, 0, len(self.values) - 1)

    def _blends(self, t: np.ndarray):
        """(mask, x, a, c - a, b, w) for each blend window holding some of t:
        the boundary b, its half-width w, the values a and c either side of
        it, and x in (0, 1), the place of t[mask] across the window."""
        for j, w in enumerate(self.windows):
            a, c = self.values[j], self.values[j + 1]
            if a == c:
                continue
            b = self.edges[j + 1]
            mask = (t > b - w) & (t < b + w)
            if np.any(mask):
                yield mask, (t[mask] - (b - w)) / (2.0 * w), a, c - a, b, w

    def value(self, t: np.ndarray) -> np.ndarray:
        t = np.asarray(t, dtype=float)
        out = self.values[self._seg_index(t)].astype(float)
        for mask, x, a, jump, _, _ in self._blends(t):
            out[mask] = a + jump * _smoothstep(x)
        return out

    def derivative(self, t: np.ndarray) -> np.ndarray:
        t = np.asarray(t, dtype=float)
        out = np.zeros_like(t)
        for mask, x, _, jump, _, w in self._blends(t):
            out[mask] = jump * _smoothstep_deriv(x) / (2.0 * w)
        return out

    def integral(self, t: np.ndarray) -> np.ndarray:
        """Running integral of value() from 0 to t."""
        t = np.asarray(t, dtype=float)
        idx = self._seg_index(t)
        out = self._cum[idx] + self.values[idx] * (t - self.edges[idx])
        for mask, x, _, jump, b, w in self._blends(t):
            out[mask] = out[mask] + jump * (2.0 * w * _smoothstep_integral(x) - np.maximum(t[mask] - b, 0.0))
        return out


def _build_profiles(spec: TrajectorySpec) -> tuple[_Profile, _Profile, _Profile]:
    durations = np.array([s.duration for s in spec.segments], dtype=float)
    edges = np.concatenate([[0.0], np.cumsum(durations)])
    yaw_rate = np.array([s.yaw_rate if isinstance(s, Turn) else 0.0 for s in spec.segments])
    pitch = np.array([s.pitch if isinstance(s, Climb) else 0.0 for s in spec.segments])
    speed = np.array([getattr(s, "speed", 0.0) for s in spec.segments], dtype=float)
    windows = np.minimum(0.5, 0.4 * np.minimum(durations[:-1], durations[1:]))
    return (
        _Profile(edges, yaw_rate, windows),
        _Profile(edges, pitch, windows),
        _Profile(edges, speed, windows),
    )


@dataclass(frozen=True)
class _Kinematics:
    """Analytic body kinematics of the recipe at a batch of times."""

    C_b_w: np.ndarray  # (n,3,3)
    v_w: np.ndarray  # (n,3)
    vdot_w: np.ndarray  # (n,3)
    omega_wb_w: np.ndarray  # (n,3)


def _kinematics(profiles, t: np.ndarray) -> _Kinematics:
    yaw_rate, pitch, speed = profiles
    psi = yaw_rate.integral(t)
    psidot = yaw_rate.value(t)
    th = pitch.value(t)
    thdot = pitch.derivative(t)
    V = speed.value(t)
    Vdot = speed.derivative(t)

    cps, sps = np.cos(psi), np.sin(psi)
    cth, sth = np.cos(th), np.sin(th)
    direction = np.stack([cps * cth, sps * cth, -sth], axis=1)
    ddir = psidot[:, None] * np.stack([-sps * cth, cps * cth, np.zeros_like(psi)], axis=1)
    ddir += thdot[:, None] * np.stack([-cps * sth, -sps * sth, -cth], axis=1)
    v = V[:, None] * direction
    vdot = Vdot[:, None] * direction + V[:, None] * ddir

    C = np.empty((len(t), 3, 3))
    C[:, 0, 0] = cps * cth
    C[:, 0, 1] = -sps
    C[:, 0, 2] = cps * sth
    C[:, 1, 0] = sps * cth
    C[:, 1, 1] = cps
    C[:, 1, 2] = sps * sth
    C[:, 2, 0] = -sth
    C[:, 2, 1] = 0.0
    C[:, 2, 2] = cth

    omega = np.stack([-thdot * sps, thdot * cps, psidot], axis=1)
    return _Kinematics(C, v, vdot, omega)


_GL_NODES, _GL_WEIGHTS = np.polynomial.legendre.leggauss(5)


def _positions(profiles, times: np.ndarray) -> np.ndarray:
    """Cumulative Gauss-Legendre integral of the velocity, r(times[0]) = 0."""
    a, b = times[:-1], times[1:]
    half = 0.5 * (b - a)
    mid = 0.5 * (a + b)
    tq = (mid[:, None] + half[:, None] * _GL_NODES[None, :]).ravel()
    v = _kinematics(profiles, tq).v_w.reshape(len(a), len(_GL_NODES), 3)
    gains = half[:, None] * np.einsum("q,nqk->nk", _GL_WEIGHTS, v)
    out = np.empty((len(times), 3))
    out[0] = 0.0
    np.cumsum(gains, axis=0, out=out[1:])
    return out


# ---------------------------------------------------------------------------
# truth generation


@dataclass(frozen=True)
class TruthSeries:
    """True trajectory on the IMU grid, w-frame coordinates.

    Positions are measured from the w-frame origin.  state(k) views epoch
    k as a traditional-grouping NavState sharing the run's anchors; an
    array of epochs gives them as one stacked state.
    """

    t: np.ndarray  # (N+1,)
    C_b_w: np.ndarray  # (N+1,3,3)
    v_wb_w: np.ndarray  # (N+1,3)
    r_w: np.ndarray  # (N+1,3)
    imu_rate: float

    def state(self, k: int | np.ndarray) -> NavState:
        r0 = self.r_w[0].copy()
        return NavState(Frame.W, Grouping.TRADITIONAL, SE23(self.C_b_w[k], self.v_wb_w[k], self.r_w[k] - r0), r0)


def _grid_times(spec: TrajectorySpec) -> np.ndarray:
    dt = 1.0 / spec.imu_rate
    total = spec.total_duration
    n_full = int(np.floor(total / dt + _GRID_TOL))
    times = np.arange(n_full + 1) * dt
    if total - times[-1] > _GRID_TOL:
        times = np.append(times, total)
    return times


def gen_truth(
    spec: TrajectorySpec,
    earth: EarthParams,
    gravity_model: GravityModel,
    world: WorldFrameDef | None = None,
) -> TruthSeries:
    """Kinematically consistent truth on the IMU grid.

    The grid is the closed-form profile evaluated at the grid times
    (positions by per-interval Gauss-Legendre quadrature of the exact
    velocity), so single-segment legs keep their textbook geometry to
    quadrature/roundoff precision.  The truth is w-frame kinematics of
    spec alone: earth, gravity_model and world are not consulted -- the
    dynamics enter only when inverse_imu reconstructs the inputs.
    """
    _validate_spec(spec)
    profiles = _build_profiles(spec)
    times = _grid_times(spec)
    kin = _kinematics(profiles, times)
    r = _positions(profiles, times)
    return TruthSeries(times, kin.C_b_w, kin.v_w, r, spec.imu_rate)


# ---------------------------------------------------------------------------
# inverse IMU (batched Newton on the one-step integrator)


class NewtonNotConverged(RuntimeError):
    """inverse_imu's Newton iteration left a residual above tolerance."""


_NEWTON_DELTAS = np.array([1e-7, 1e-7, 1e-7, 1e-5, 1e-5, 1e-5])
_NEWTON_ITERATIONS = 8
_NEWTON_TOL_ATT = 1e-13
_NEWTON_TOL_VEL = 1e-12


def inverse_imu(
    truth: TruthSeries,
    earth: EarthParams,
    gravity_model: GravityModel,
    world: WorldFrameDef,
) -> ImuSample:
    """Recover per-interval inertial inputs consistent with the grid.

    Solves, for every interval at once, the six-unknown system "RK4 step
    with constant (omega, f) lands on the next grid attitude/velocity",
    by Newton iteration with a finite-difference Jacobian.  Returns the
    inputs as one stack, omega and f (n, 3) and dt (n,), the form
    step(method="rk4") takes; feeding it back through the forward
    integrator reproduces the grid to navigation precision.
    """
    C, v, r, t = truth.C_b_w, truth.v_wb_w, truth.r_w, truth.t
    n = len(t) - 1
    dts = np.diff(t)
    # Every interval's start as one stacked w-frame state, anchored at r[0].
    starts = NavState(Frame.W, Grouping.TRADITIONAL, SE23(C[:-1], v[:-1], r[:-1] - r[0]), r[0])
    model = NavModel.of(starts, earth, gravity_model, world)

    # Seed attitude rate from the earth-rate-compensated attitude increment.
    E = so3_exp(model.omega * dts[:, None])
    M = np.einsum("nji,njk,nkl->nil", C[:-1], E, C[1:])
    om0 = so3_log(M) / dts[:, None]

    # Seed specific force: the one whose velocity rate at the interval's
    # midpoint matches the finite-difference acceleration.
    E_half = so3_exp(-model.omega * (0.5 * dts[:, None]))
    R_half = so3_exp(0.5 * om0 * dts[:, None])
    C_mid = E_half @ C[:-1] @ R_half
    v_mid = 0.5 * (v[:-1] + v[1:])
    accel = (v[1:] - v[:-1]) / dts[:, None]
    f_w = accel - model.accel(0.0, model.offset + 0.5 * (r[:-1] + r[1:]), v_mid)
    f0 = np.einsum("nij,ni->nj", C_mid, f_w)

    u = np.concatenate([om0, f0], axis=1)

    def residual(inputs: np.ndarray) -> np.ndarray:
        imu = ImuSample(inputs[:, 0:3], inputs[:, 3:6], dts)
        end = step(starts, imu, model, method="rk4").x
        Mres = np.einsum("nji,njk->nik", end.R, C[1:])
        return np.concatenate((0.5 * unskew(Mres - transpose(Mres)), end.v - v[1:]), axis=1)

    res = residual(u)
    for iteration in range(_NEWTON_ITERATIONS + 1):
        att, vel = np.abs(res[:, 0:3]).max(axis=1), np.abs(res[:, 3:6]).max(axis=1)
        if att.max() < _NEWTON_TOL_ATT and vel.max() < _NEWTON_TOL_VEL:
            break
        if iteration == _NEWTON_ITERATIONS:
            k = int(np.argmax(att if att.max() >= _NEWTON_TOL_ATT else vel))
            raise NewtonNotConverged(
                f"inverse_imu: Newton iteration did not converge in {_NEWTON_ITERATIONS} iterations; "
                f"worst residual on the interval at t={t[k]:.3f} s "
                f"(attitude {att[k]:.3e} rad, velocity {vel[k]:.3e} m/s)"
            )
        J = np.empty((n, 6, 6))
        for j in range(6):
            up = u.copy()
            up[:, j] += _NEWTON_DELTAS[j]
            J[:, :, j] = (residual(up) - res) / _NEWTON_DELTAS[j]
        u = u + np.linalg.solve(J, -res[:, :, None])[:, :, 0]
        res = residual(u)

    return ImuSample(u[:, 0:3], u[:, 3:6], dts)


# ---------------------------------------------------------------------------
# sensor corruption and the odometer


@dataclass(frozen=True)
class SensorErrors:
    """True sensor defects for one run, plus the stream key that drives
    every random draw made on its behalf."""

    gyro_bias: np.ndarray = field(default_factory=lambda: np.zeros(3))
    accel_bias: np.ndarray = field(default_factory=lambda: np.zeros(3))
    noise: NoiseConfig = field(default_factory=NoiseConfig)
    seed: int = 0
    run_index: int = 0


def true_bias_series(errors: SensorErrors, dts: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Per-interval true biases: initial value plus the random walk."""
    n = len(dts)
    out = []
    for bias0, psd, channel in (
        (errors.gyro_bias, errors.noise.gyro_bias_rw_psd, STREAM_GYRO_BIAS_WALK),
        (errors.accel_bias, errors.noise.accel_bias_rw_psd, STREAM_ACCEL_BIAS_WALK),
    ):
        draws = GaussianStream(errors.seed, substream(channel, errors.run_index)).normal_matrix(n, 3)
        increments = np.sqrt(psd * dts)[:, None] * draws
        series = np.empty((n, 3))
        series[0] = np.asarray(bias0, dtype=float)
        if n > 1:
            series[1:] = series[0] + np.cumsum(increments[:-1], axis=0)
        out.append(series)
    return out[0], out[1]


def corrupt(imu: ImuSample, errors: SensorErrors) -> tuple[ImuSample, np.ndarray, np.ndarray]:
    """Measured IMU: the true stack (as inverse_imu returns it) plus bias
    (random-walking if configured) plus white noise at the sample rate.

    Returns (measured stack, true gyro bias, true accel bias), the biases
    (n, 3) per interval.  Deterministic in (seed, run_index).
    """
    dts = imu.dt
    n = len(dts)
    bias_g, bias_a = true_bias_series(errors, dts)
    ng = GaussianStream(errors.seed, substream(STREAM_GYRO_NOISE, errors.run_index)).normal_matrix(n, 3)
    na = GaussianStream(errors.seed, substream(STREAM_ACCEL_NOISE, errors.run_index)).normal_matrix(n, 3)
    sig_g = np.sqrt(errors.noise.gyro_noise_psd / dts)[:, None]
    sig_a = np.sqrt(errors.noise.accel_noise_psd / dts)[:, None]
    measured = ImuSample(imu.omega_ib_b + bias_g + sig_g * ng, imu.f_ib_b + bias_a + sig_a * na, dts)
    return measured, bias_g, bias_a


def _odo_indices(truth: TruthSeries, odo_rate: float) -> np.ndarray:
    """Grid indices carrying an odometer sample (regular epochs only)."""
    if odo_rate <= 0.0:
        return np.array([], dtype=int)
    decim = truth.imu_rate / odo_rate
    decim_i = int(round(decim))
    if decim_i < 1 or abs(decim - decim_i) > 1e-9:
        raise ValueError(f"odo_rate {odo_rate} must divide imu_rate {truth.imu_rate}")
    dt = 1.0 / truth.imu_rate
    idx = np.arange(decim_i, len(truth.t), decim_i)
    aligned = np.abs(truth.t[idx] - idx * dt) < _GRID_TOL
    return idx[aligned]


def gen_odometer(
    truth: TruthSeries,
    noise: NoiseConfig,
    seed: int,
    odo_rate: float = 10.0,
    run_index: int = 0,
) -> tuple[np.ndarray, np.ndarray]:
    """Body-frame odometer track: true forward speed on the body x-axis,
    non-holonomic zeros elsewhere, plus noise drawn from odo_noise_cov.

    Returns (grid indices (m,), measured body velocities (m, 3)).
    """
    idx = _odo_indices(truth, odo_rate)
    L = np.linalg.cholesky(noise.odo_noise_cov)
    draws = GaussianStream(seed, substream(STREAM_ODOMETER, run_index)).normal_matrix(len(idx), 3)
    vb = matvec(transpose(truth.C_b_w[idx]), truth.v_wb_w[idx])
    v_meas = np.zeros((len(idx), 3))
    v_meas[:, 0] = vb[:, 0]
    return idx, v_meas + matvec(L, draws)


# ---------------------------------------------------------------------------
# filtered runs


@dataclass(frozen=True, eq=False)
class RunConfig:
    """Everything a filtered run depends on.

    p0_* are per-axis initial variances; the true initial state and the
    true biases are drawn about the configured nominals with exactly these
    covariances, so NEES against the filter covariance is meaningful.

    bias_known=False instead treats gyro_bias/accel_bias as the exact true
    biases while the filter starts its estimates at zero -- useful for
    open-loop divergence diagnostics, at the price of a meaningless NEES.
    """

    traj: TrajectorySpec
    origin_e: np.ndarray
    frame: Frame = Frame.W
    grouping: Grouping = Grouping.PROPOSED
    convention: ErrorConvention = ErrorConvention.RIGHT
    gravity: GravityModel = field(default_factory=SphericalGravity)
    earth: EarthParams = field(default_factory=EarthParams)
    noise: NoiseConfig = field(default_factory=NoiseConfig)
    gyro_bias: np.ndarray = field(default_factory=lambda: np.zeros(3))
    accel_bias: np.ndarray = field(default_factory=lambda: np.zeros(3))
    odo_rate: float = 10.0
    p0_att: float = 1e-6
    p0_vel: float = 1e-2
    p0_pos: float = 1.0
    p0_gyro_bias: float = 4e-10
    p0_accel_bias: float = 9e-8
    seed: int = 0
    gate_sigma: float | None = None
    n_runs: int = 50
    bias_known: bool = True
    integrator: str = "midpoint"

    def p0_diag(self) -> np.ndarray:
        return np.array(
            [self.p0_att] * 3
            + [self.p0_vel] * 3
            + [self.p0_pos] * 3
            + [self.p0_gyro_bias] * 3
            + [self.p0_accel_bias] * 3
        )


@dataclass(frozen=True, eq=False)
class RunResult:
    """Error, NEES and innovation series of one filtered run or of a batch.

    t is (M,); every other field is (..., M[, 3]): a single run has no run
    axis, a batch has a leading run axis.  Error rows are the
    true-relative-to-estimate chart in the run's convention; all series
    share the same epochs.  Rows where no update was applied have
    updated=False: with the odometer off their innovation entries are
    zero; a sample the gate rejected keeps its innovation.

    The aggregates pool over every run and epoch the result holds, so a
    batch of one reads its run's own numbers.  Where an update was
    applied, NEES is averaged over the updated rows only; where none was,
    over all of them (per epoch for mean_nees_series, over the whole
    result for time_avg_nees).
    """

    t: np.ndarray
    att_err: np.ndarray
    vel_err: np.ndarray
    pos_err: np.ndarray
    nees: np.ndarray
    innovation: np.ndarray
    innovation_whitened: np.ndarray
    updated: np.ndarray  # bool

    @property
    def runs(self) -> list[RunResult]:
        """One view per run; a single run gives one view of itself."""
        series = [getattr(self, f.name) for f in fields(self) if f.name != "t"]
        return [RunResult(self.t, *(a[i] for a in series)) for i in np.ndindex(self.nees.shape[:-1])]

    def _rms(self, block: np.ndarray) -> float:
        # Each run's sum of squares, added in run order.
        per_run = np.sum(block * block, axis=(-2, -1)).reshape(-1)
        return float(np.sqrt(sum(per_run.tolist()) / max(per_run.size * len(self.t), 1)))

    @property
    def rmse_att(self) -> float:
        return self._rms(self.att_err)

    @property
    def rmse_vel(self) -> float:
        return self._rms(self.vel_err)

    @property
    def rmse_pos(self) -> float:
        return self._rms(self.pos_err)

    def _counted(self, axis: int | None) -> np.ndarray:
        """(runs, M) mask of the NEES rows averaged: the updated ones, or
        every row along axis where none was updated."""
        upd = np.atleast_2d(self.updated)
        return np.where(np.any(upd, axis=axis, keepdims=True), upd, True)

    @property
    def mean_nees_series(self) -> np.ndarray:
        counted = self._counted(axis=0)
        return np.sum(np.where(counted, np.atleast_2d(self.nees), 0.0), axis=0) / np.sum(counted, axis=0)

    @property
    def time_avg_nees(self) -> float:
        return float(np.mean(np.atleast_2d(self.nees)[self._counted(axis=None)]))

    @property
    def innovation_lag1(self) -> np.ndarray:
        """(3,) whitened lag-1 autocorrelation over consecutive updates,
        pooled over the runs."""
        num = np.zeros(3)
        den = np.zeros(3)
        for r in self.runs:
            w = r.innovation_whitened[r.updated]
            if len(w) > 1:
                num += np.sum(w[:-1] * w[1:], axis=0)
                den += np.sum(w * w, axis=0)
        return num / np.where(den == 0.0, 1.0, den)


def _nees(e: np.ndarray, P: np.ndarray) -> np.ndarray:
    """e^T P^-1 e for every element of a stack, (n, 15) errors against
    (n, 15, 15) covariances.  An element whose P is singular falls back to
    the pseudo-inverse; the others keep the solve."""
    try:
        x = np.linalg.solve(P, e[..., None])
    except np.linalg.LinAlgError:
        x = np.empty(e.shape + (1,))
        for i in range(len(e)):
            try:
                x[i] = np.linalg.solve(P[i], e[i, :, None])
            except np.linalg.LinAlgError:
                x[i] = np.linalg.pinv(P[i], hermitian=True) @ e[i, :, None]
    return (e[..., None, :] @ x)[..., 0, 0]


def draw_biases(cfg: RunConfig, run_index: int = 0) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(initial bias estimate (6,), true gyro bias, true accel bias) for a run.

    With bias_known the estimate starts at the configured nominal and the
    truth is drawn about it with the p0_*_bias variances; otherwise the
    nominal IS the truth and the estimate starts at zero.
    """
    nominal = np.concatenate([np.asarray(cfg.gyro_bias, dtype=float), np.asarray(cfg.accel_bias, dtype=float)])
    if cfg.bias_known:
        bias_draw = GaussianStream(cfg.seed, substream(STREAM_INIT_BIAS, run_index)).normals(6)
        bias_sigma = np.sqrt(cfg.p0_diag())[9:]
        bias_offset = bias_sigma * bias_draw  # = (bias estimate) - (true bias)
        bias_hat0 = nominal
    else:
        bias_offset = -nominal
        bias_hat0 = np.zeros(6)
    return bias_hat0, bias_hat0[0:3] - bias_offset[0:3], bias_hat0[3:6] - bias_offset[3:6]


def run_single(
    cfg: RunConfig,
    run_index: int = 0,
    truth: TruthSeries | None = None,
    imu_true: ImuSample | None = None,
) -> RunResult:
    """One filtered run: corrupt the truth, run the filter, score it.

    truth and imu_true (inverse_imu's stack) are built from cfg when not
    given; pass them to share one truth between runs of different models.

    The true initial state, true biases, and every noise sequence come
    from streams keyed by (seed, run_index), so results are reproducible
    bit for bit and Monte-Carlo runs are independent by construction.
    This is the Monte-Carlo filter loop with a batch of one, so run k
    here equals run k of any batch.
    """
    return _run_lockstep(cfg, (run_index,), truth, imu_true).runs[0]


def _run_lockstep(
    cfg: RunConfig,
    run_indices: Sequence[int],
    truth: TruthSeries | None = None,
    imu_true: ImuSample | None = None,
) -> RunResult:
    """The filter loop: every run in run_indices propagated in lock step.

    Each run's noise is drawn up front from its own (seed, channel,
    run_index) substreams, so a run does not depend on the batch around it.
    The state, covariance and scoring arrays carry a leading run axis;
    one predict covers each interval between scored epochs (none follows
    the last), and odometer updates apply under each run's own gate.
    Each epoch's estimate, bias and covariance are stored, and every
    _SCORE_BLOCK epochs (and after the last) the stored block is scored in
    one pass: the error against the truth, its chart vector and the NEES,
    each elementwise and so bit for bit the per-epoch values.  A failure
    inside the loop names its run and epoch; when predict or fuse fails,
    the epochs stored before it are scored first, so an earlier epoch's
    scoring failure is the one raised.  The result is batch-shaped, one
    row per run in run_indices.
    """
    runs = tuple(int(k) for k in run_indices)
    world = ned_world(cfg.origin_e, cfg.earth)
    if truth is None:
        truth = gen_truth(cfg.traj, cfg.earth, cfg.gravity, world)
    if imu_true is None:
        imu_true = inverse_imu(truth, cfg.earth, cfg.gravity, world)

    n = len(truth.t) - 1
    dts = imu_true.dt
    odo_idx = _odo_indices(truth, cfg.odo_rate)
    if len(odo_idx) > 0:
        sample_idx = odo_idx
    else:
        decim = max(1, int(round(truth.imu_rate / _SCORE_RATE)))
        sample_idx = np.arange(decim, n + 1, decim)

    # Per-run draws, stored time-major so each epoch is one contiguous (N, 3) slice.
    N, M = len(runs), len(sample_idx)
    omega_meas, f_meas = np.empty((2, n, N, 3))
    bias_true = np.empty((M, N, 6))  # true biases over the interval ending at each sample
    odo_meas = np.empty((len(odo_idx), N, 3))
    bias_hat0 = np.empty((N, 6))
    xi0 = np.empty((N, 9))
    state_sigma = np.sqrt(cfg.p0_diag())[:9]
    for i, k in enumerate(runs):
        bias_hat0[i], true_gyro_bias, true_accel_bias = draw_biases(cfg, k)
        errors = SensorErrors(true_gyro_bias, true_accel_bias, cfg.noise, cfg.seed, k)
        imu_meas, *true_bias = corrupt(imu_true, errors)
        omega_meas[:, i], f_meas[:, i] = imu_meas.omega_ib_b, imu_meas.f_ib_b
        bias_true[:, i] = np.hstack(true_bias)[sample_idx - 1]
        odo_meas[:, i] = gen_odometer(truth, cfg.noise, cfg.seed, cfg.odo_rate, k)[1]
        xi0[i] = state_sigma * GaussianStream(cfg.seed, substream(STREAM_INIT_STATE, k)).normals(9)

    truth0 = nav_from_physical(
        cfg.frame, cfg.grouping, *physical_from_nav(truth.state(0), cfg.earth, world), cfg.earth, world
    )
    # The estimates keep truth0's anchors, so one model serves the whole loop,
    # and the truth is scored against them: every scored epoch converted at once.
    t = truth.t[sample_idx]
    truth_f = nav_from_physical(
        cfg.frame, cfg.grouping, *physical_from_nav(truth.state(sample_idx), cfg.earth, world, t),
        cfg.earth, world, t=t, r0=truth0.r0, dv0=truth0.dv0,
    )
    fs = FilterState(
        nav=apply_correction(truth0, TangentVector.from_vector(-xi0), cfg.convention),
        bias=bias_hat0,
        P=np.broadcast_to(np.diag(cfg.p0_diag()), (N, 15, 15)).copy(),
        conv=cfg.convention,
        model=NavModel.of(truth0, cfg.earth, cfg.gravity, world),
        t=0.0,
    )

    # Scored series, stored run-major: each run's series is contiguous.
    xi = np.empty((N, M, 9))
    nees = np.empty((N, M))
    innov, white = np.zeros((2, N, M, 3))
    updated = np.zeros((N, M), dtype=bool)
    # No later epoch depends on the scoring: each epoch's pose, bias and
    # covariance wait in a block, and a block is scored in one stacked pass.
    B = min(_SCORE_BLOCK, M)
    K_blk, bias_blk, P_blk = np.empty((B, N, 3, 5)), np.empty((B, N, 6)), np.empty((B, N, 15, 15))

    def score(j0, b):
        """Score the b stored epochs from epoch j0 on; a failing (b, N)
        stack names run e % N at epoch j0 + e // N."""
        with _naming_elements(lambda e: f"run {runs[e % N]}, t={t[j0 + e // N]:.3f} s", width=N):
            truth_b = replace(truth_f, x=SE23.packed(truth_f.x.K[j0:j0 + b, None]))
            est = replace(fs.nav, x=SE23.packed(K_blk[:b]))
            xi_b = error_to_vector(error_from_states(truth_b, est, fs.conv), fs.conv).as_vector()
            e15 = np.concatenate([xi_b, bias_blk[:b] - bias_true[j0:j0 + b]], axis=2)
            nees_b = _nees(e15.reshape(b * N, 15), P_blk[:b].reshape(b * N, 15, 15))
        xi[:, j0:j0 + b] = xi_b.swapaxes(0, 1)
        nees[:, j0:j0 + b] = nees_b.reshape(b, N).T

    # One predict per interval between scored epochs; none after the last.
    # A failing (epochs, runs) stack names run e % N at grid epoch first + e // N:
    # predict's stack starts after the interval's first epoch, fuse's (one
    # epoch) at its last.
    intervals = list(zip([0, *sample_idx[:-1].tolist()], sample_idx.tolist()))
    for j0 in range(0, M, _SCORE_BLOCK):
        stored = 0
        try:
            with _naming_elements(lambda e: f"run {runs[e % N]}, t={truth.t[first + e // N]:.3f} s", width=N):
                for j, (k0, k1) in enumerate(intervals[j0:j0 + _SCORE_BLOCK], j0):
                    first = k0 + 1
                    imu = ImuSample(omega_meas[k0:k1], f_meas[k0:k1], dts[k0:k1])
                    fs = predict(fs, imu, cfg.noise, method=cfg.integrator)
                    first = k1
                    if len(odo_idx) > 0:
                        z = OdoSample(odo_meas[j], float(truth.t[k1]))
                        fs, innov[:, j], white[:, j], updated[:, j] = fuse(
                            fs, z, cfg.noise, gate_sigma=cfg.gate_sigma, imu_period=float(dts[k1 - 1])
                        )
                    K_blk[stored], bias_blk[stored], P_blk[stored] = fs.nav.x.K, fs.bias, fs.P
                    stored += 1
        finally:
            # The stored epochs are scored before a predict or fuse failure
            # propagates, so a failure at an earlier epoch is the one raised.
            if stored:
                score(j0, stored)

    return RunResult(
        t=t,
        att_err=xi[..., 0:3].copy(),
        vel_err=xi[..., 3:6].copy(),
        pos_err=xi[..., 6:9].copy(),
        nees=nees,
        innovation=innov,
        innovation_whitened=white,
        updated=updated,
    )


# ---------------------------------------------------------------------------
# Monte Carlo


def run_monte_carlo(
    cfg: RunConfig,
    truth: TruthSeries | None = None,
    imu_true: ImuSample | None = None,
) -> RunResult:
    """Monte-Carlo batch of cfg.n_runs runs sharing one truth; runs differ
    only in their keyed substreams, so the batch is reproducible and
    order-independent.  truth and imu_true are as in run_single.

    All runs go through the filter loop together, in lock step on one
    process: the state and covariance arrays carry a run axis, so the
    per-step cost is paid once per batch rather than once per run.  The
    result has a leading run axis, and its runs[k] equals run_single(cfg, k)
    bit for bit, whatever the batch size (one included).
    """
    if cfg.n_runs < 1:
        raise ValueError(f"need at least 1 run, got {cfg.n_runs}")
    return _run_lockstep(cfg, range(cfg.n_runs), truth, imu_true)


# ---------------------------------------------------------------------------
# autonomy experiments


@dataclass(frozen=True, eq=False)
class AutonomySettings:
    """Environment and input-error switches for a twin-divergence test."""

    origin_e: np.ndarray
    gravity: GravityModel
    earth: EarthParams = field(default_factory=EarthParams)
    gyro_input_error: np.ndarray = field(default_factory=lambda: np.zeros(3))
    accel_input_error: np.ndarray = field(default_factory=lambda: np.zeros(3))
    integrator: str = "rk4"


@dataclass(frozen=True, eq=False)
class AutonomyResult:
    """Outcome of comparing one error flow across two trajectories."""

    classification: object  # AutonomyClass
    divergence_metric: float
    t: np.ndarray  # (M,)
    xi_a: np.ndarray  # (M,9) log of the group error along trajectory a
    xi_b: np.ndarray  # (M,9)


def autonomy_experiment(
    variant: ModelVariant,
    conv: ErrorConvention,
    traj_a: TrajectorySpec,
    traj_b: TrajectorySpec,
    xi0: np.ndarray,
    settings: AutonomySettings,
) -> AutonomyResult:
    """Propagate the same initial group error along two trajectories and
    measure how far the error flows drift apart.

    A trajectory-independent ("perfect") error model keeps the metric at
    integration noise; input errors or a position-dependent gravity
    column make it small but nonzero; a model whose equation folds the
    trajectory in through conjugation diverges visibly.

    The four flows (truth and estimate along a, truth and estimate along b)
    advance in lock step as one stacked state, in one integrate call over
    the epochs the two time grids share.  Both trajectories start at the
    world origin, so the four flows share their r0/dv0 anchors.
    """
    earth, gravity = settings.earth, settings.gravity
    world = ned_world(np.asarray(settings.origin_e, dtype=float), earth)
    truths = [gen_truth(traj, earth, gravity, world) for traj in (traj_a, traj_b)]
    m = min(len(truths[0].t), len(truths[1].t))
    t, dts = truths[0].t[:m], np.diff(truths[0].t[:m])
    if np.any(np.abs(t - truths[1].t[:m]) > _GRID_TOL):
        raise SpecInvalid("autonomy trajectories must share their time grid")

    imus = [inverse_imu(truth_w, earth, gravity, world) for truth_w in truths]
    om_true = np.stack([imu.omega_ib_b[: m - 1] for imu in imus], axis=1)
    f_true = np.stack([imu.f_ib_b[: m - 1] for imu in imus], axis=1)
    # (m-1, truth/estimate, trajectory, 3): the inputs of the four flows below
    omega = np.stack([om_true, om_true + settings.gyro_input_error], axis=1)
    f = np.stack([f_true, f_true + settings.accel_input_error], axis=1)
    starts = [
        nav_from_physical(variant.frame, variant.grouping, *physical_from_nav(truth_w.state(0), earth, world, 0.0),
                          earth, world, t=0.0)
        for truth_w in truths
    ]
    _check_compatible(*starts)
    x0 = SE23.packed(np.stack([st.x.K for st in starts]))
    eta0_inv = se23_exp(TangentVector.from_vector(np.asarray(xi0, dtype=float))).inverse()
    est0 = eta0_inv.compose(x0) if conv is ErrorConvention.RIGHT else x0.compose(eta0_inv)

    # The four flows advance as one (2, 2) stack: (truth, estimate) x
    # (trajectory a, b), over all m-1 intervals in one integrate call whose
    # (m, 2, 2, 3, 5) result is their storage; each side's epochs are a
    # strided (m, 2) stack ordered (epoch, trajectory).
    state = replace(starts[0], x=SE23.packed(np.stack([x0.K, est0.K])))
    model = NavModel.of(state, earth, gravity, world)
    with _naming_elements(lambda i: f"trajectory {'ab'[i % 2]}, t={t[i // 4 + 1]:.3f} s"):
        K = integrate(state, ImuSample(omega, f, dts), model, method=settings.integrator)
    truth, est = (replace(state, x=SE23.packed(K[:, j])) for j in (0, 1))
    with _naming_elements(lambda i: f"trajectory {'ab'[i % 2]}, t={t[i // 2]:.3f} s"):
        xi = se23_log(error_from_states(truth, est, conv)).as_vector()
    xi_a, xi_b = xi[:, 0].copy(), xi[:, 1].copy()
    metric = float(np.max(np.linalg.norm(xi_a - xi_b, axis=1)))

    _, w = derivative(starts[0], ImuSample(om_true[0, 0], f_true[0, 0], float(dts[0])), model)
    input_errors = bool(np.any(settings.gyro_input_error) or np.any(settings.accel_input_error))
    label = classify_autonomy(w, input_errors, include_gravity_error=isinstance(gravity, SphericalGravity))
    return AutonomyResult(label, metric, t, xi_a, xi_b)
