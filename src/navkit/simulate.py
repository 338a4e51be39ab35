"""Trajectory simulation, inverse IMU, and the filter test harness.

The truth generator works in a local north-east-down world frame: a
trajectory is a list of constant-rate segments (straight runs, level
turns, climbs, rests), held as one table of yaw rate, pitch and speed per
segment and blended across segment boundaries with integral-preserving
quintic ramps, so velocity is C^1 while single-segment legs keep their
exact textbook geometry.  The truth on the IMU grid is the attitude (zero
roll, the body x-axis along the velocity) and velocity, from the
profile's heading, pitch and speed at the grid times, and the position,
by quadrature of the velocity.

``inverse_imu`` recovers the per-interval inertial
inputs by inverting the one-step rk4 integrator so each step lands
exactly on the next grid attitude and velocity, which is what makes the
generate -> invert -> re-mechanize loop close to navigation precision.
It runs a chord iteration on the step's closed-form first-order
Jacobian, which is block triangular, so each correction is two solves
in closed form and each iteration costs one stacked rk4 step per block
of intervals.  The grid-length stages (inverse_imu, the truth's position
quadrature, the autonomy flows with their inputs, error logs and metric)
form their temporaries for a fixed block of _GRID_BLOCK intervals or epochs at a
time (half as many epochs for the error logs, which stack a pair of flows
per epoch), so those temporaries do not grow with the trajectory, and no
result depends on the block.

On top of that sit the sensor corrupter (bias + random walk + white
noise), the odometer synthesizer, and the run harness: one filter loop
that propagates a batch of runs in lock step (a single run is a batch of
one) with error / NEES / innovation bookkeeping, and the twin-propagation
autonomy experiments.  The filter loop and navkit
simulate share one recipe for a run's scenario (_scenario) and one for its
draws (_run_inputs), so simulate writes the inputs run 0 filters.  Every
draw of run k comes from its RunConfig and k alone, through _normals: the
counter-based stream keyed by (seed, channel, k), so runs are
bit-reproducible and independent of the batch around them.

Every series is one stacked array value, built once: inverse_imu's inputs
are one ImuSample (omega, f (n, 3), dt (n,)), corrupt maps that stack to
run k's measured one and its true biases (n, 6), gen_odometer gives run
k's (grid indices, body velocities), and the filter loop converts the
truth at every scored epoch into the filter's frame and grouping in one
batch-shaped call.  The loop's sequential path is only predict and fuse:
the error, NEES and their kernels run on blocks of stored epochs, one
stacked pass per block.  Its result is one batch-shaped RunResult, a run
per row, whose consistency aggregates pool over every run it holds; a
failure inside the loop names its run and epoch.
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
    vector_to_error,
)
from .lgekf import FilterState, NoiseConfig, OdoSample, SpecInvalid, fuse, predict
from .mechanization import (
    Frame,
    Grouping,
    ImuSample,
    NavModel,
    NavState,
    _MAX_DT,
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
    SE23, KernelDomainError, TangentVector, matvec, skew, so3_exp, so3_log, transpose, unskew,
)

__all__ = [
    "Straight",
    "Turn",
    "Climb",
    "Rest",
    "TrajectorySpec",
    "TruthSeries",
    "gen_truth",
    "inverse_imu",
    "NewtonNotConverged",
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
_MIN_IMU_RATE = 1.0 / _MAX_DT  # Hz: 10, the integrators' dt guard
_SCORE_RATE = 10.0  # Hz; the filter loop scores at this rate with the odometer off
_SCORE_BLOCK = 64  # epochs the filter loop scores per stacked pass (0.9 MB of covariances at 8 runs)
# Elements a grid-length stage stacks per pass, and the CSV rows cli formats
# per write: about 3 MB of inverse_imu's temporaries.  glibc's dynamic mmap
# and trim thresholds follow the largest block freed, and with half as many
# the N=8 filter loop's temporaries fault afresh: a 60 s batch of 8 took 51k
# minor page faults against 7k.
_GRID_BLOCK = 2048


@contextmanager
def _naming_elements(where, width=None, offset=0):
    """Re-raise a stacked kernel's KernelDomainError as its own type, the
    message prefixed with where(element): the run or trajectory and epoch.
    A stack cut as a block from a longer one starts at flat element offset
    of it; where and the re-raised error see indices into the longer one.
    With width the stack is (epochs, width) and the re-raised error's
    element is the failing element's index along width (its run)."""
    try:
        yield
    except KernelDomainError as exc:
        if exc.element is None:
            raise
        element = offset + exc.element
        raise type(exc)(f"{where(element)}: {exc}", element=element if width is None else element % width) from exc


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
        if not self.segments:
            raise SpecInvalid("trajectory needs at least one segment", "segments")
        for i, seg in enumerate(self.segments):
            where = f"segments[{i}]"
            if not isinstance(seg, (Straight, Turn, Climb, Rest)):
                raise SpecInvalid(f"segment {i}: unknown segment type {type(seg).__name__}", where)
            if not seg.duration > 0.0:
                raise SpecInvalid(f"segment {i}: duration must be positive, got {seg.duration}", where)
            speed = getattr(seg, "speed", 0.0)
            if not (np.isfinite(speed) and speed >= 0.0):
                raise SpecInvalid(f"segment {i}: speed must be finite and non-negative, got {speed}", where)
            if isinstance(seg, Turn) and not np.isfinite(seg.yaw_rate):
                raise SpecInvalid(f"segment {i}: yaw_rate must be finite, got {seg.yaw_rate}", where)
            if isinstance(seg, Climb) and not abs(seg.pitch) < np.pi / 2:
                raise SpecInvalid(f"segment {i}: pitch must lie in (-pi/2, pi/2)", where)
        total = self.total_duration
        if total > _MAX_TOTAL_DURATION:
            raise SpecInvalid(f"total duration {total:.1f} s exceeds {_MAX_TOTAL_DURATION:.0f} s")
        if total < 1.0 / _SCORE_RATE - _GRID_TOL:
            raise SpecInvalid(f"total duration {total:g} s is shorter than one {1.0 / _SCORE_RATE:g} s scoring period")
        # A rate past ~1e304 Hz overflows the sample count: its grid is not finite.
        rate = self.imu_rate
        if not (np.isfinite(rate) and rate >= _MIN_IMU_RATE and np.isfinite(_grid_steps(self)[0])):
            raise SpecInvalid(f"imu_rate must be finite and at least {_MIN_IMU_RATE:g} Hz, got {rate}", "imu_rate")

    @property
    def total_duration(self) -> float:
        return float(sum(s.duration for s in self.segments))


def _smoothstep(x: np.ndarray) -> np.ndarray:
    return x * x * x * (10.0 + x * (-15.0 + 6.0 * x))


def _smoothstep_integral(x: np.ndarray) -> np.ndarray:
    return x ** 4 * (2.5 + x * (-3.0 + x))


class _Profile:
    """Yaw rate, pitch and speed of each segment, with centered quintic
    blends across the interior boundaries.

    The blend at each interior boundary is symmetric about it, so the
    running integral of the blended profile equals the step profile's
    integral outside every blend window.  There is no ramp at t=0 or at
    the end: the profile starts and finishes on the raw segment values.
    """

    def __init__(self, spec: TrajectorySpec):
        durations = np.array([s.duration for s in spec.segments], dtype=float)
        self.edges = np.concatenate([[0.0], np.cumsum(durations)])  # (m+1,), edges[0] == 0
        # (m, 3): yaw rate, pitch and speed; each is zero where the segment has none
        self.table = np.array(
            [[getattr(s, name, 0.0) for name in ("yaw_rate", "pitch", "speed")] for s in spec.segments], dtype=float
        )
        self.windows = np.minimum(0.5, 0.4 * np.minimum(durations[:-1], durations[1:]))  # (m-1,) half-widths
        # Over np.diff(edges), not durations: the heading between edges adds rate * (t - edge).
        self._heading_at_edges = np.concatenate([[0.0], np.cumsum(self.table[:, 0] * np.diff(self.edges))])

    def heading(self, t: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(heading, pitch, speed) at times t: the running integral of the
        yaw rate from 0, and the blended pitch and speed."""
        t = np.asarray(t, dtype=float)
        idx = np.clip(np.searchsorted(self.edges, t, side="right") - 1, 0, len(self.table) - 1)
        psi = self._heading_at_edges[idx] + self.table[idx, 0] * (t - self.edges[idx])
        pitch, speed = self.table[idx, 1:].T.copy()
        for j, w in enumerate(self.windows):
            a, jump = self.table[j], self.table[j + 1] - self.table[j]
            if not np.any(jump):
                continue
            b = self.edges[j + 1]
            mask = (t > b - w) & (t < b + w)
            if not np.any(mask):
                continue
            x = (t[mask] - (b - w)) / (2.0 * w)  # place of t[mask] across the window, in (0, 1)
            # A column that does not jump keeps its raw value (a -0.0 pitch its sign).
            if jump[0] != 0.0:
                psi[mask] += jump[0] * (2.0 * w * _smoothstep_integral(x) - np.maximum(t[mask] - b, 0.0))
            for k, out in ((1, pitch), (2, speed)):
                if jump[k] != 0.0:
                    out[mask] = a[k] + jump[k] * _smoothstep(x)
        return psi, pitch, speed


_GL_NODES, _GL_WEIGHTS = np.polynomial.legendre.leggauss(5)


def _grid_blocks(n: int, width: int = 1) -> list[tuple[int, int]]:
    """(start, stop) of the blocks that cover n intervals or epochs, each of
    width stacked elements, _GRID_BLOCK elements to a block."""
    size = _GRID_BLOCK // width
    return [(a, min(a + size, n)) for a in range(0, n, size)]


def _positions(profile: _Profile, times: np.ndarray) -> np.ndarray:
    """Cumulative Gauss-Legendre integral of the velocity, r(times[0]) = 0.

    The node velocities are formed a block of intervals at a time, each
    interval's gain lands in one (n, 3) array, and one cumsum runs over
    it: no result depends on the block size.
    """
    out = np.empty((len(times), 3))
    out[0] = 0.0
    gains = out[1:]
    for a, z in _grid_blocks(len(gains)):
        ta, tb = times[a:z], times[a + 1:z + 1]
        half = 0.5 * (tb - ta)
        mid = 0.5 * (ta + tb)
        psi, pitch, speed = profile.heading((mid[:, None] + half[:, None] * _GL_NODES[None, :]).ravel())
        cth = np.cos(pitch)
        v = speed[:, None] * np.stack([np.cos(psi) * cth, np.sin(psi) * cth, -np.sin(pitch)], axis=1)
        gains[a:z] = half[:, None] * np.einsum("q,nqk->nk", _GL_WEIGHTS, v.reshape(z - a, len(_GL_NODES), 3))
    np.cumsum(gains, axis=0, out=gains)
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

    def state(self, k: int | slice | np.ndarray) -> NavState:
        r0 = self.r_w[0].copy()
        return NavState(Frame.W, Grouping.TRADITIONAL, SE23(self.C_b_w[k], self.v_wb_w[k], self.r_w[k] - r0), r0)


def _grid_steps(spec: TrajectorySpec) -> tuple[float, float, float]:
    """(n, dt, end): spec's IMU grid is k dt for k = 0..n, then end if that lies more than _GRID_TOL past k = n."""
    dt = 1.0 / spec.imu_rate
    return np.floor(spec.total_duration / dt + _GRID_TOL), dt, spec.total_duration


def _grid_times(spec: TrajectorySpec) -> np.ndarray:
    n, dt, end = _grid_steps(spec)
    times = np.arange(n + 1) * dt
    if end - times[-1] > _GRID_TOL:
        times = np.append(times, end)
    return times


def _shared_epochs(traj_a: TrajectorySpec, traj_b: TrajectorySpec) -> int:
    """The number of epochs of the shorter grid; a SpecInvalid unless the two grids agree on them.  The
    grids drift apart as k grows, and only a grid's last epoch can be off k dt: the last two decide."""
    grids = [_grid_steps(traj) for traj in (traj_a, traj_b)]
    m = int(min(n + 1 + (end - n * dt > _GRID_TOL) for n, dt, end in grids))
    epochs = [[k * dt if k <= n else end for k in (m - 2, m - 1)] for n, dt, end in grids]
    if np.max(np.abs(np.subtract(*epochs))) > _GRID_TOL:
        raise SpecInvalid("autonomy trajectories must share their time grid")
    return m


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
    profile = _Profile(spec)
    times = _grid_times(spec)
    psi, pitch, speed = profile.heading(times)
    cps, sps = np.cos(psi), np.sin(psi)
    cth, sth = np.cos(pitch), np.sin(pitch)
    # Zero roll: the body x-axis, C's first column, is the direction of travel.
    C = np.stack([cps * cth, -sps, cps * sth,
                  sps * cth, cps, sps * sth,
                  -sth, np.zeros_like(sth), cth], axis=1).reshape(-1, 3, 3)
    return TruthSeries(times, C, speed[:, None] * C[:, :, 0], _positions(profile, times), spec.imu_rate)


# ---------------------------------------------------------------------------
# inverse IMU (chord iteration on the one-step integrator)


class NewtonNotConverged(RuntimeError):
    """inverse_imu's iteration left a residual above tolerance."""


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

    Solves, for every interval, the six-unknown system "RK4 step with
    constant (omega, f) lands on the next grid attitude/velocity", by a
    chord iteration on the step's closed-form first-order Jacobian, fixed
    at the seed.  The seeds, the corrections and the stacked rk4 residual
    steps run a block of _GRID_BLOCK intervals at a time; one convergence
    test over the whole grid decides each iteration, so every interval
    gets the same number of corrections and no result depends on the
    block size.  Returns the inputs as one stack, omega and f (n, 3) and
    dt (n,), the form step(method="rk4") takes; feeding it back through
    the forward integrator reproduces the grid to navigation precision.
    """
    C, v, r, t = truth.C_b_w, truth.v_wb_w, truth.r_w, truth.t
    dts = np.diff(t)
    model = NavModel.of(truth.state(0), earth, gravity_model, world)
    om0, f0, om, f, res_att, res_vel = (np.empty((len(dts), 3)) for _ in range(6))

    def mid_attitude(a, z):
        # C at each interval's midpoint under its seed rate.
        dt = dts[a:z, None]
        return so3_exp(-model.omega * (0.5 * dt)) @ C[a:z] @ so3_exp(0.5 * om0[a:z] * dt)

    def residual(a, z):
        # The block's residuals, stored, and their largest magnitudes.
        end = step(truth.state(slice(a, z)), ImuSample(om[a:z], f[a:z], dts[a:z]), model, method="rk4").x
        Mres = np.einsum("nji,njk->nik", end.R, C[a + 1:z + 1])
        res_att[a:z] = 0.5 * unskew(Mres - transpose(Mres))
        res_vel[a:z] = end.v - v[a + 1:z + 1]
        return np.abs(res_att[a:z]).max(), np.abs(res_vel[a:z]).max()

    def seed(a, z):
        # The attitude rate from the earth-rate-compensated attitude
        # increment, and the specific force whose velocity rate at the
        # interval's midpoint matches the finite-difference acceleration.
        dt = dts[a:z, None]
        M = np.einsum("nji,njk,nkl->nil", C[a:z], so3_exp(model.omega * dt), C[a + 1:z + 1])
        om[a:z] = om0[a:z] = so3_log(M) / dt
        v_mid = 0.5 * (v[a:z] + v[a + 1:z + 1])
        accel = (v[a + 1:z + 1] - v[a:z]) / dt
        f_w = accel - model.accel(0.0, model.offset + 0.5 * (r[a:z] + r[a + 1:z + 1]), v_mid)
        f[a:z] = f0[a:z] = np.einsum("nij,ni->nj", mid_attitude(a, z), f_w)
        return residual(a, z)

    def correct(a, z):
        # The step's Jacobian to first order in dt, at the seed: d att/d omega
        # = -dt I, d att/d f = 0, d vel/d f = dt C_mid, d vel/d omega =
        # -(dt^2/2) C_mid [f x].  It is block triangular and invertible for
        # every dt > 0, so each interval's correction is closed form: omega
        # first, then f.
        dt = dts[a:z, None]
        C_mid = mid_attitude(a, z)
        J_vel_om = (-0.5 * dts[a:z] ** 2)[:, None, None] * (C_mid @ skew(f0[a:z]))
        d_om = res_att[a:z] / dt
        om[a:z] += d_om
        f[a:z] += matvec(transpose(C_mid), -res_vel[a:z] - matvec(J_vel_om, d_om)) / dt
        return residual(a, z)

    def each_block(stage):
        # stage(a, z) on every block, a kernel failure naming its interval
        worst = []
        for a, z in _grid_blocks(len(dts)):
            with _naming_elements(lambda k: f"inverse_imu: interval at t={t[k]:.3f} s", offset=a):
                worst.append(stage(a, z))
        return worst

    worst = each_block(seed)
    for iteration in range(_NEWTON_ITERATIONS + 1):
        worst_att, worst_vel = np.max(worst, axis=0)
        if worst_att < _NEWTON_TOL_ATT and worst_vel < _NEWTON_TOL_VEL:
            break
        if iteration == _NEWTON_ITERATIONS:
            att, vel = np.abs(res_att).max(axis=1), np.abs(res_vel).max(axis=1)
            k = int(np.argmax(att if worst_att >= _NEWTON_TOL_ATT else vel))
            raise NewtonNotConverged(
                f"inverse_imu: Newton iteration did not converge in {_NEWTON_ITERATIONS} iterations; "
                f"worst residual on the interval at t={t[k]:.3f} s "
                f"(attitude {att[k]:.3e} rad, velocity {vel[k]:.3e} m/s)"
            )
        worst = each_block(correct)

    return ImuSample(om, f, dts)


# ---------------------------------------------------------------------------
# sensor corruption and the odometer


def _normals(cfg: RunConfig, channel: int, k: int, rows: int) -> np.ndarray:
    """(rows, 3) standard normals from run k's substream of channel under cfg's seed."""
    return GaussianStream(cfg.seed, substream(channel, k)).normal_matrix(rows, 3)


def corrupt(imu: ImuSample, cfg: RunConfig, k: int, bias0: np.ndarray) -> tuple[ImuSample, np.ndarray]:
    """Run k's measured IMU: the true stack (as inverse_imu returns it) plus
    the true bias, which starts at bias0 (6,) and random-walks with
    cfg.noise's walk densities, plus white noise at the sample rate.

    Returns (measured stack, true biases (n, 6) per interval, gyro then
    accel).  Deterministic in (cfg.seed, k).
    """
    dts = imu.dt
    n = len(dts)
    noise = cfg.noise
    walks = []
    for b0, psd, channel in ((bias0[:3], noise.gyro_bias_rw_psd, STREAM_GYRO_BIAS_WALK),
                             (bias0[3:], noise.accel_bias_rw_psd, STREAM_ACCEL_BIAS_WALK)):
        steps = np.sqrt(psd * dts[:-1])[:, None] * _normals(cfg, channel, k, n - 1)
        series = np.empty((n, 3))
        series[0] = b0
        series[1:] = series[0] + np.cumsum(steps, axis=0)
        walks.append(series)
    del steps  # freed before the noise draws: this stage sets the peak of a long navkit simulate
    ng = _normals(cfg, STREAM_GYRO_NOISE, k, n)
    na = _normals(cfg, STREAM_ACCEL_NOISE, k, n)
    measured = ImuSample(imu.omega_ib_b + walks[0] + np.sqrt(noise.gyro_noise_psd / dts)[:, None] * ng,
                         imu.f_ib_b + walks[1] + np.sqrt(noise.accel_noise_psd / dts)[:, None] * na, dts)
    return measured, np.hstack(walks)


def _odo_decimation(imu_rate: float, odo_rate: float) -> int:
    """IMU samples per odometer sample; a SpecInvalid unless odo_rate divides imu_rate."""
    decim = imu_rate / odo_rate
    decim_i = int(round(decim))
    if decim_i < 1 or abs(decim - decim_i) > 1e-9:
        raise SpecInvalid(f"odo_rate {odo_rate} must divide imu_rate {imu_rate}", "odo_rate")
    return decim_i


def _odo_indices(truth: TruthSeries, odo_rate: float) -> np.ndarray:
    """Grid indices carrying an odometer sample (regular epochs only)."""
    if odo_rate <= 0.0:
        return np.array([], dtype=int)
    decim_i = _odo_decimation(truth.imu_rate, odo_rate)
    dt = 1.0 / truth.imu_rate
    idx = np.arange(decim_i, len(truth.t), decim_i)
    aligned = np.abs(truth.t[idx] - idx * dt) < _GRID_TOL
    return idx[aligned]


def gen_odometer(truth: TruthSeries, cfg: RunConfig, k: int) -> tuple[np.ndarray, np.ndarray]:
    """Run k's body-frame odometer track at cfg.odo_rate: true forward speed
    on the body x-axis, non-holonomic zeros elsewhere, plus noise drawn from
    cfg.noise.odo_noise_cov.

    Returns (grid indices (m,), measured body velocities (m, 3)).
    """
    idx = _odo_indices(truth, cfg.odo_rate)
    L = np.linalg.cholesky(cfg.noise.odo_noise_cov)
    draws = _normals(cfg, STREAM_ODOMETER, k, len(idx))
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

    def __post_init__(self):
        gate = () if self.gate_sigma is None else ("gate_sigma",)  # None: no gate
        for name in ("odo_rate", "p0_att", "p0_vel", "p0_pos", "p0_gyro_bias", "p0_accel_bias", *gate):
            value = getattr(self, name)
            if not (np.isfinite(value) and value >= 0.0):
                raise SpecInvalid(f"{name} must be finite and >= 0, got {value}", name)
        # 0 turns the odometer off; else its first sample must fall on a regular grid epoch.
        if self.odo_rate > 0.0 and _odo_decimation(self.traj.imu_rate, self.odo_rate) > _grid_steps(self.traj)[0]:
            raise SpecInvalid(f"odo_rate {self.odo_rate} Hz gives no sample within the trajectory", "odo_rate")
        if self.n_runs < 1:
            raise SpecInvalid(f"need at least 1 run, got {self.n_runs}", "n_runs")
        if not 0 <= self.seed < 1 << 64:  # the Philox key's seed word
            raise SpecInvalid(f"seed must lie in [0, 2**64), got {self.seed}", "seed")

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


def _scenario(cfg: RunConfig, truth: TruthSeries | None = None, imu_true: ImuSample | None = None) -> tuple:
    """(world, truth, true IMU stack) of cfg's scenario: the NED world at
    the origin, gen_truth and inverse_imu, keeping a truth or IMU given."""
    world = ned_world(cfg.origin_e, cfg.earth)
    if truth is None:
        truth = gen_truth(cfg.traj, cfg.earth, cfg.gravity, world)
    if imu_true is None:
        imu_true = inverse_imu(truth, cfg.earth, cfg.gravity, world)
    return world, truth, imu_true


def _run_inputs(cfg: RunConfig, truth: TruthSeries, imu_true: ImuSample, k: int) -> tuple:
    """Every draw of run k, each from its own (seed, channel, k) substream:
    (initial bias estimate (6,), measured IMU stack, true gyro and accel
    biases (n, 6), odometer (grid indices, body velocities), xi0 (9,)).

    With bias_known the estimate starts at the configured nominal and the
    true initial bias is drawn about it with the p0_*_bias variances;
    otherwise the nominal is the true bias and the estimate starts at zero.
    """
    sigma0 = np.sqrt(cfg.p0_diag())
    nominal = np.concatenate([np.asarray(cfg.gyro_bias, dtype=float), np.asarray(cfg.accel_bias, dtype=float)])
    if cfg.bias_known:
        bias_hat0 = nominal
        bias0 = nominal - sigma0[9:] * _normals(cfg, STREAM_INIT_BIAS, k, 2).ravel()
    else:
        bias_hat0 = np.zeros(6)
        bias0 = 0.0 - (-nominal)  # a -0.0 nominal is a +0.0 true bias
    imu_meas, true_bias = corrupt(imu_true, cfg, k, bias0)
    xi0 = sigma0[:9] * _normals(cfg, STREAM_INIT_STATE, k, 3).ravel()
    return bias_hat0, imu_meas, true_bias, gen_odometer(truth, cfg, k), xi0


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
    world, truth, imu_true = _scenario(cfg, truth, imu_true)

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
    for i, k in enumerate(runs):
        bias_hat0[i], imu_meas, true_bias, (_, odo_meas[:, i]), xi0[i] = _run_inputs(cfg, truth, imu_true, k)
        omega_meas[:, i], f_meas[:, i] = imu_meas.omega_ib_b, imu_meas.f_ib_b
        bias_true[:, i] = true_bias[sample_idx - 1]

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
    xi_a: np.ndarray  # (M,9) chart vector (error_to_vector) of the error of the twins started on trajectory a
    xi_b: np.ndarray  # (M,9) the same from trajectory b's start


def autonomy_experiment(
    variant: ModelVariant,
    conv: ErrorConvention,
    traj_a: TrajectorySpec,
    traj_b: TrajectorySpec,
    xi0: np.ndarray,
    settings: AutonomySettings,
) -> AutonomyResult:
    """Propagate the same initial group error along two trajectories and
    measure how far the error flows drift apart.  xi0 and the result's
    xi_a/xi_b are coordinates in the filter's chart (vector_to_error /
    error_to_vector), as navkit run's xi0 and errors.csv are.

    A trajectory-independent ("perfect") error model keeps the metric at
    integration noise; input errors or a position-dependent gravity
    column make it small but nonzero; a model whose equation folds the
    trajectory in through conjugation diverges visibly.  The grade is
    classify_autonomy's, read from the model and the convention.

    The right error flow sees the inputs only through their errors, so
    each trajectory's twins are driven by its own inputs.  The left flow
    eta' = eta W1 - W1~ eta depends on the inputs, so twins driven by
    different inputs would differ however autonomous it is: both left
    pairs are driven by trajectory a's true and measured inputs, each from
    its own trajectory's start state.  The left Coriolis fold acts only
    through the attitude (-C~^T Om C~), so twins that share their inputs
    and start attitude cannot show it (traditional-e reads at integration
    noise); there the weak grade comes from the model alone.

    The four flows (truth and estimate along a, truth and estimate along b)
    advance in lock step as one stacked state over the epochs the two time
    grids share, one integrate call (and the metric's running max) per
    block of _GRID_BLOCK intervals, whose inputs are formed for the block.
    Both trajectories start at the world origin, so the four flows share
    their r0/dv0 anchors.
    """
    t = _grid_times(traj_a)[:_shared_epochs(traj_a, traj_b)]
    m, dts = len(t), np.diff(t)
    earth, gravity = settings.earth, settings.gravity
    world = ned_world(np.asarray(settings.origin_e, dtype=float), earth)
    truths = [gen_truth(traj, earth, gravity, world) for traj in (traj_a, traj_b)]
    imus = [inverse_imu(truths[0], earth, gravity, world)]
    imus.append(imus[0] if conv is ErrorConvention.LEFT else inverse_imu(truths[1], earth, gravity, world))

    def inputs(a, z):
        # The four flows' inputs over intervals a..z, (z-a, truth/estimate, trajectory, 3).
        om = np.stack([imu.omega_ib_b[a:z] for imu in imus], axis=1)
        f = np.stack([imu.f_ib_b[a:z] for imu in imus], axis=1)
        return ImuSample(np.stack([om, om + settings.gyro_input_error], axis=1),
                         np.stack([f, f + settings.accel_input_error], axis=1), dts[a:z])

    starts = [
        nav_from_physical(variant.frame, variant.grouping, *physical_from_nav(truth_w.state(0), earth, world, 0.0),
                          earth, world, t=0.0)
        for truth_w in truths
    ]
    del truths  # the flows read only their start states and inputs
    _check_compatible(*starts)
    x0 = SE23.packed(np.stack([st.x.K for st in starts]))
    eta0_inv = vector_to_error(TangentVector.from_vector(np.asarray(xi0, dtype=float)), conv).inverse()
    est0 = eta0_inv.compose(x0) if conv is ErrorConvention.RIGHT else x0.compose(eta0_inv)

    # The four flows advance as one (2, 2) stack: (truth, estimate) x
    # (trajectory a, b), one integrate call per block of intervals, each
    # from the last epoch of the block before.  Each side's epochs in a
    # block are a strided (epochs, 2) stack ordered (epoch, trajectory),
    # whose error logs are taken a block of epochs at a time; a block's
    # last epoch is logged as the next block's first, into (trajectory, epoch, 9).
    state = replace(starts[0], x=SE23.packed(np.stack([x0.K, est0.K])))
    model = NavModel.of(state, earth, gravity, world)
    xi = np.empty((2, m, 9))
    metric = 0.0
    x = state.x
    for a, z in _grid_blocks(m - 1):
        with _naming_elements(lambda i: f"trajectory {'ab'[i % 2]}, t={t[i // 4 + 1]:.3f} s", offset=4 * a):
            K = integrate(replace(state, x=x), inputs(a, z), model, method=settings.integrator)
        x = SE23.packed(K[-1])
        for b, y in _grid_blocks(z - a + (z == m - 1), width=2):
            truth, est = (replace(state, x=SE23.packed(K[b:y, j])) for j in (0, 1))
            with _naming_elements(lambda i: f"trajectory {'ab'[i % 2]}, t={t[i // 2]:.3f} s", offset=2 * (a + b)):
                xi_ab = error_to_vector(error_from_states(truth, est, conv), conv).as_vector()
            xi[:, a + b:a + y] = xi_ab.swapaxes(0, 1)
            metric = np.maximum(metric, np.max(np.linalg.norm(xi_ab[:, 0] - xi_ab[:, 1], axis=1)))

    input_errors = bool(np.any(settings.gyro_input_error) or np.any(settings.accel_input_error))
    return AutonomyResult(classify_autonomy(model, conv, input_errors), float(metric), t, xi[0], xi[1])
