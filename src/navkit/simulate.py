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
in closed form.  Each interval is corrected until its own residual is
under tolerance, so its inputs depend on its own two grid epochs alone.

The grid stages therefore stream: the truth (_truth_blocks, carrying the
position quadrature's running sum) and its inputs (_inverse_blocks) are
formed in order, a block at a time, and each consumer takes a block as it
reaches it and drops it: the filter loop (its blocks are its score
blocks), navkit simulate's CSV writers and the autonomy flows (blocks of
_GRID_BLOCK intervals).  gen_truth and inverse_imu join _GRID_BLOCK
blocks into one series, so no result depends on how the grid is cut.

On top of that sit the sensor corrupter (bias + random walk + white
noise), the odometer synthesizer, and the run harness: one filter loop
that propagates a batch of runs in lock step (a single run is a batch of
one) with error / NEES / innovation bookkeeping, and the twin-propagation
autonomy experiments.  The filter loop and navkit
simulate share one recipe for a run's scenario (_scenario_blocks) and one
object for its draws (_RunDraws), so simulate writes the inputs run 0 filters.
A filter run streams its scenario from its RunConfig alone, so runs of
different models each form their own.
Every draw of run k comes from its RunConfig and k alone, through
_stream: the counter-based stream keyed by (seed, channel, k), so runs
are bit-reproducible and independent of the batch around them.

Every series is one stacked array value: inverse_imu's inputs are one
ImuSample (omega, f (n, 3), dt (n,)), run k's odometer track gives (grid
indices, body velocities), and the filter loop converts the truth at a
block's scored epochs into the filter's frame and grouping in one
batch-shaped call.  Run k's measured IMU, true biases and odometer
readings are drawn a block at a time (corrupt and _RunDraws.odometer, from
streams kept across blocks), bit for bit the grid drawn at once, so neither the
loop nor simulate holds them, or the truth, for the whole grid.  The
loop's sequential path is only predict and fuse, which reuse the loop's
buffers: the error, NEES and their kernels run on blocks of stored
epochs, one stacked pass per block.  Its result is one batch-shaped
RunResult, a run per row, holding the chart errors the loop scores into
as one packed xi (runs, M, 9); its consistency aggregates pool over every
run it holds.  A failure inside the loop names its run and epoch.
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
    _INTEGRATORS,
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
    "RunConfig",
    "RunResult",
    "run_single",
    "run_monte_carlo",
    "AutonomySettings",
    "AutonomyResult",
    "autonomy_experiment",
]

_MAX_TOTAL_DURATION = 3600.0
_MAX_INTERVALS = 3_600_000  # IMU grid intervals: an hour at 1 kHz
_GRID_TOL = 1e-9
_MIN_IMU_RATE = 1.0 / _MAX_DT  # Hz: 10, the integrators' dt guard
_SCORE_RATE = 10.0  # Hz; the filter loop scores at this rate with the odometer off
# Epochs the filter loop scores per stacked pass (0.9 MB of covariances at 8
# runs), and draws each run's sensors for.
_SCORE_BLOCK = 64
# Elements a grid-length stage stacks per pass, and the CSV rows cli formats
# per write: about 1.5 MB of inverse_imu's temporaries, which its streamed
# consumers hold alongside their own state.
_GRID_BLOCK = 1024


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
            if not isinstance(seg, Segment):
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
        # The grid's interval count is capped; an overflowed (infinite) or NaN count fails the cap too.
        rate = self.imu_rate
        if not (np.isfinite(rate) and rate >= _MIN_IMU_RATE and _grid_steps(self)[0] <= _MAX_INTERVALS):
            raise SpecInvalid(f"imu_rate must be finite and at least {_MIN_IMU_RATE:g} Hz, with at most "
                              f"{_MAX_INTERVALS} grid intervals, got {rate}", "imu_rate")

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


def _grid_blocks(n: int) -> list[tuple[int, int]]:
    """(start, stop) of the blocks that cover n intervals or epochs, _GRID_BLOCK to a block."""
    return [(a, min(a + _GRID_BLOCK, n)) for a in range(0, n, _GRID_BLOCK)]


def _positions(profile: _Profile, times: np.ndarray, r0: np.ndarray | None) -> np.ndarray:
    """Positions at times by cumulative Gauss-Legendre quadrature of the
    velocity, from r0 at times[0] (0 without one, the grid's start).

    Each interval's gain lands in one array and one cumsum runs over it,
    the carried r0 added into the first gain, so a grid cut into blocks
    sums in the whole grid's order, bit for bit.
    """
    out = np.empty((len(times), 3))
    gains = out[1:]
    ta, tb = times[:-1], times[1:]
    half = 0.5 * (tb - ta)
    mid = 0.5 * (ta + tb)
    psi, pitch, speed = profile.heading((mid[:, None] + half[:, None] * _GL_NODES[None, :]).ravel())
    cth = np.cos(pitch)
    v = speed[:, None] * np.stack([np.cos(psi) * cth, np.sin(psi) * cth, -np.sin(pitch)], axis=1)
    gains[:] = half[:, None] * np.einsum("q,nqk->nk", _GL_WEIGHTS, v.reshape(len(gains), len(_GL_NODES), 3))
    if r0 is None:
        out[0] = 0.0
    else:
        out[0] = r0
        gains[0] += r0
    np.cumsum(gains, axis=0, out=gains)
    return out


# ---------------------------------------------------------------------------
# truth generation


@dataclass(frozen=True)
class TruthSeries:
    """True trajectory on the IMU grid, w-frame coordinates.

    Positions are measured from the w-frame origin, where the grid starts.
    A series may hold a block of the grid's epochs.  state(k) views epoch k
    of the series as a traditional-grouping NavState anchored at the
    origin, as every epoch of the run is; an array of epochs gives them as
    one stacked state.
    """

    t: np.ndarray  # (N+1,)
    C_b_w: np.ndarray  # (N+1,3,3)
    v_wb_w: np.ndarray  # (N+1,3)
    r_w: np.ndarray  # (N+1,3)

    def state(self, k: int | slice | np.ndarray) -> NavState:
        r0 = np.zeros(3)
        return NavState(Frame.W, Grouping.TRADITIONAL, SE23(self.C_b_w[k], self.v_wb_w[k], self.r_w[k] - r0), r0)


def _grid_steps(spec: TrajectorySpec) -> tuple[float, float, float]:
    """(n, dt, end): spec's IMU grid is k dt for k = 0..n, then end if that lies more than _GRID_TOL past k = n."""
    dt = 1.0 / spec.imu_rate
    return np.floor(spec.total_duration / dt + _GRID_TOL), dt, spec.total_duration


def _interval_count(spec: TrajectorySpec) -> int:
    """The number of intervals of spec's IMU grid."""
    n, dt, end = _grid_steps(spec)
    return int(n) + bool(end - n * dt > _GRID_TOL)


def _grid_times(spec: TrajectorySpec, a: int = 0, z: int | None = None) -> np.ndarray:
    """Times of spec's grid epochs a to z, both included (to the last by default)."""
    n, dt, end = _grid_steps(spec)
    z = _interval_count(spec) if z is None else z
    times = np.arange(a, min(z, n) + 1) * dt
    return np.append(times, end) if z > n else times


def _shared_epochs(traj_a: TrajectorySpec, traj_b: TrajectorySpec) -> int:
    """The number of epochs of the shorter grid; a SpecInvalid unless the two grids agree on them.  The
    grids drift apart as k grows, and only a grid's last epoch can be off k dt: the last two decide."""
    m = min(_interval_count(traj_a), _interval_count(traj_b)) + 1
    if np.max(np.abs(_grid_times(traj_a, m - 2, m - 1) - _grid_times(traj_b, m - 2, m - 1))) > _GRID_TOL:
        raise SpecInvalid("autonomy trajectories must share their time grid")
    return m


def _rows(series, rows: slice):
    """series (a TruthSeries or an ImuSample) cut to the given rows of each array."""
    return replace(series, **{f.name: getattr(series, f.name)[rows] for f in fields(series)
                              if isinstance(getattr(series, f.name), np.ndarray)})


def _joined(blocks, n: int):
    """One series of n rows from (first row, block) pairs of one series
    type, each array filled from its blocks' rows.  A row two blocks share
    (a truth block starts on the epoch the one before ends on) is written
    twice, with one value."""
    out = None
    for a, block in blocks:
        arrays = {f.name: getattr(block, f.name) for f in fields(block)
                  if isinstance(getattr(block, f.name), np.ndarray)}
        if out is None:
            out = replace(block, **{name: np.empty((n,) + x.shape[1:]) for name, x in arrays.items()})
        for name, x in arrays.items():
            getattr(out, name)[a:a + len(x)] = x
    return out


def _truth_blocks(spec: TrajectorySpec, spans=None):
    """gen_truth's grid in order, a block at a time: (a, the truth at epochs
    a to z) for each block [a, z) of spans, consecutive blocks that cover
    the grid (_grid_blocks's by default).  The position quadrature's
    running sum is carried from one block into the next, so the blocks are
    the grid formed at once, bit for bit."""
    profile = _Profile(spec)
    r_end = None
    for a, z in spans or _grid_blocks(_interval_count(spec)):
        times = _grid_times(spec, a, z)
        psi, pitch, speed = profile.heading(times)
        cps, sps = np.cos(psi), np.sin(psi)
        cth, sth = np.cos(pitch), np.sin(pitch)
        # Zero roll: the body x-axis, C's first column, is the direction of travel.
        C = np.stack([cps * cth, -sps, cps * sth,
                      sps * cth, cps, sps * sth,
                      -sth, np.zeros_like(sth), cth], axis=1).reshape(-1, 3, 3)
        r = _positions(profile, times, r_end)
        r_end = r[-1].copy()
        yield a, TruthSeries(times, C, speed[:, None] * C[:, :, 0], r)


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
    dynamics enter only when inverse_imu reconstructs the inputs.  It is
    the streamed blocks (_truth_blocks) joined into one series.
    """
    return _joined(_truth_blocks(spec), _interval_count(spec) + 1)


# ---------------------------------------------------------------------------
# inverse IMU (chord iteration on the one-step integrator)


class NewtonNotConverged(RuntimeError):
    """inverse_imu's iteration left a residual above tolerance."""


_NEWTON_ITERATIONS = 8
_NEWTON_TOL_ATT = 1e-13
_NEWTON_TOL_VEL = 1e-12


def _inverse_blocks(truths, earth: EarthParams, gravity_model: GravityModel, world: WorldFrameDef):
    """inverse_imu's inputs of a grid in order: (a, truth, inputs over its
    intervals) for each (a, truth at epochs a to z) of truths.  One model
    serves every block: every truth state is w-frame traditional, anchored
    at the origin (TruthSeries.state)."""
    model = NavModel(Frame.W, Grouping.TRADITIONAL, np.zeros(3), earth, gravity_model, world, np.zeros(3))
    for a, truth in truths:
        yield a, truth, _invert(truth, a, model)


def _invert(truth: TruthSeries, a: int, model: NavModel) -> ImuSample:
    """The inputs over the intervals of a block of the grid whose first
    epoch is grid epoch a (see inverse_imu)."""
    C, v, r, t = truth.C_b_w, truth.v_wb_w, truth.r_w, truth.t
    dts = np.diff(t)
    dt = dts[:, None]

    def residual():
        # Every interval's residuals, stepped as one stack from its grid state.
        end = step(truth.state(slice(0, len(dts))), ImuSample(om, f, dts), model, method="rk4").x
        Mres = transpose(end.R) @ C[1:]
        return 0.5 * unskew(Mres - transpose(Mres)), end.v - v[1:]

    with _naming_elements(lambda k: f"inverse_imu: interval at t={t[k - a]:.3f} s", offset=a):
        # The seed: the attitude rate from the earth-rate-compensated
        # attitude increment, and the specific force whose velocity rate at
        # the interval's midpoint, under the seed rate's midpoint attitude,
        # matches the finite-difference acceleration.
        M = transpose(C[:-1]) @ so3_exp(model.omega * dt) @ C[1:]
        om = so3_log(M) / dt
        C_mid = so3_exp(-model.omega * (0.5 * dt)) @ C[:-1] @ so3_exp(0.5 * om * dt)
        v_mid = 0.5 * (v[:-1] + v[1:])
        accel = (v[1:] - v[:-1]) / dt
        f_w = accel - model.accel(0.0, model.offset + 0.5 * (r[:-1] + r[1:]), v_mid)
        f0 = matvec(transpose(C_mid), f_w)
        f = f0.copy()
        res_att, res_vel = residual()
        for iteration in range(_NEWTON_ITERATIONS + 1):
            att, vel = np.abs(res_att).max(axis=1), np.abs(res_vel).max(axis=1)
            open_ = np.flatnonzero(~((att < _NEWTON_TOL_ATT) & (vel < _NEWTON_TOL_VEL)))
            if not len(open_):
                break
            if iteration == _NEWTON_ITERATIONS:
                k = int(np.argmax(att if att.max() >= _NEWTON_TOL_ATT else vel))
                raise NewtonNotConverged(
                    f"inverse_imu: Newton iteration did not converge in {_NEWTON_ITERATIONS} iterations; "
                    f"worst residual on the interval at t={t[k]:.3f} s "
                    f"(attitude {att[k]:.3e} rad, velocity {vel[k]:.3e} m/s)"
                )
            # Only the intervals above tolerance are corrected, with the
            # step's Jacobian to first order in dt, at the seed: d att/d omega
            # = -dt I, d att/d f = 0, d vel/d f = dt C_mid, d vel/d omega =
            # -(dt^2/2) C_mid [f x].  It is block triangular and invertible
            # for every dt > 0, so each correction is closed form: omega
            # first, then f.
            dt_o, C_o = dt[open_], C_mid[open_]
            J_vel_om = (-0.5 * dts[open_] ** 2)[:, None, None] * (C_o @ skew(f0[open_]))
            d_om = res_att[open_] / dt_o
            om[open_] += d_om
            f[open_] += matvec(transpose(C_o), -res_vel[open_] - matvec(J_vel_om, d_om)) / dt_o
            res_att, res_vel = residual()
    return ImuSample(om, f, dts)


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
    at the seed.  Each interval is corrected until its own residual is
    under _NEWTON_TOL_ATT and _NEWTON_TOL_VEL, at most _NEWTON_ITERATIONS
    times (past that NewtonNotConverged names its grid time), so an
    interval that meets them at its seed keeps its seed, and its inputs
    depend on its own two grid epochs alone.  The grid is therefore
    inverted a block of _GRID_BLOCK intervals at a time (_inverse_blocks,
    which the streamed stages consume as they go), each block's residuals
    one stacked rk4 step, and no result depends on the block size.
    Returns the inputs as one stack, omega and f (n, 3) and dt (n,), the
    form step(method="rk4") takes; feeding it back through the forward
    integrator reproduces the grid to navigation precision.
    """
    n = len(truth.t) - 1
    blocks = ((a, _rows(truth, slice(a, z + 1))) for a, z in _grid_blocks(n))
    return _joined(((a, imu) for a, _, imu in _inverse_blocks(blocks, earth, gravity_model, world)), n)


# ---------------------------------------------------------------------------
# sensor corruption and the odometer


def _stream(cfg: RunConfig, channel: int, k: int) -> GaussianStream:
    """Run k's substream of channel under cfg's seed."""
    return GaussianStream(cfg.seed, substream(channel, k))


class _RunDraws:
    """Every draw of run k, each from its own (seed, channel, k) substream:
    the initial bias estimate bias_hat0 (6,), true bias bias0 (6,) and state
    error xi0 (9,); the bias-walk and white-noise streams corrupt reads
    (walks, whites), with the walks' running sum carried into the next
    block's first step (sums, None before the first block); and the
    odometer's stream with L, its noise's Cholesky factor.  The streams are
    kept from one block to the next, so a grid drawn a block at a time is
    bit for bit the grid drawn at once, and only the block's draws are held.

    With bias_known the estimate starts at the configured nominal and the
    true initial bias is drawn about it with the p0_*_bias variances;
    otherwise the nominal is the true bias and the estimate starts at zero.
    """

    def __init__(self, cfg: RunConfig, k: int):
        self.cfg = cfg
        sigma0 = np.sqrt(cfg.p0_diag())
        nominal = np.concatenate([np.asarray(cfg.gyro_bias, dtype=float), np.asarray(cfg.accel_bias, dtype=float)])
        if cfg.bias_known:
            self.bias_hat0 = nominal
            self.bias0 = nominal - sigma0[9:] * _stream(cfg, STREAM_INIT_BIAS, k).normal_matrix(2, 3).ravel()
        else:
            self.bias_hat0 = np.zeros(6)
            self.bias0 = 0.0 - (-nominal)  # a -0.0 nominal is a +0.0 true bias
        self.xi0 = sigma0[:9] * _stream(cfg, STREAM_INIT_STATE, k).normal_matrix(3, 3).ravel()
        self.walks = [_stream(cfg, channel, k) for channel in (STREAM_GYRO_BIAS_WALK, STREAM_ACCEL_BIAS_WALK)]
        self.whites = [_stream(cfg, channel, k) for channel in (STREAM_GYRO_NOISE, STREAM_ACCEL_NOISE)]
        self.sums = None
        self.odo = _stream(cfg, STREAM_ODOMETER, k)
        self.L = np.linalg.cholesky(cfg.noise.odo_noise_cov)

    def odometer(self, a: int, truth: TruthSeries) -> tuple[np.ndarray, np.ndarray]:
        """Run k's (grid indices, measured body velocities) at the odometer epochs in (a, z] of a truth at
        grid epochs a to z, drawn after those of the call before."""
        idx = _odo_indices(self.cfg.traj, self.cfg.odo_rate, a, a + len(truth.t) - 1)
        draws = self.odo.normal_matrix(len(idx), 3)
        vb = matvec(transpose(truth.C_b_w[idx - a]), truth.v_wb_w[idx - a])
        v_meas = np.zeros((len(idx), 3))
        v_meas[:, 0] = vb[:, 0]
        return idx, v_meas + matvec(self.L, draws)


def corrupt(
    imu: ImuSample, cfg: RunConfig, k: int, bias0: np.ndarray, streams: _RunDraws | None = None
) -> tuple[ImuSample, np.ndarray]:
    """Run k's measured IMU: the true stack (as inverse_imu returns it) plus
    the true bias, which starts at bias0 (6,) and random-walks with
    cfg.noise's walk densities, plus white noise at the sample rate.

    Returns (measured stack, true biases (n, 6) per interval, gyro then
    accel).  Deterministic in (cfg.seed, k).  imu is the grid's first n
    intervals or, given run k's _RunDraws as a call on the intervals before
    left it (a fresh one when omitted), the next n: a grid drawn a block at
    a time is the grid drawn at once, bit for bit.  Each block draws the
    walk's step out of each of its intervals, the last one's into the next
    block, and adds the running sum carried from the block before into its
    first step, so cumsum adds in the whole grid's order.
    """
    if streams is None:
        streams = _RunDraws(cfg, k)
    dts = imu.dt
    n = len(dts)
    noise = cfg.noise
    walk_psd = np.repeat([noise.gyro_bias_rw_psd, noise.accel_bias_rw_psd], 3)
    steps = np.sqrt(walk_psd * dts[:, None]) * np.hstack([stream.normal_matrix(n, 3) for stream in streams.walks])
    bias = np.empty((n, 6))
    if streams.sums is None:
        bias[0] = bias0
    else:
        steps[0] += streams.sums
        bias[0] = bias0 + streams.sums
    np.cumsum(steps, axis=0, out=steps)
    bias[1:] = bias0 + steps[:-1]
    streams.sums = steps[-1].copy()
    ng, na = (stream.normal_matrix(n, 3) for stream in streams.whites)
    measured = ImuSample(imu.omega_ib_b + bias[:, :3] + np.sqrt(noise.gyro_noise_psd / dts)[:, None] * ng,
                         imu.f_ib_b + bias[:, 3:] + np.sqrt(noise.accel_noise_psd / dts)[:, None] * na, dts)
    return measured, bias


def _odo_decimation(imu_rate: float, odo_rate: float) -> int:
    """IMU samples per odometer sample; a SpecInvalid unless odo_rate divides imu_rate."""
    decim = imu_rate / odo_rate
    decim_i = int(round(decim))
    if decim_i < 1 or abs(decim - decim_i) > 1e-9:
        raise SpecInvalid(f"odo_rate {odo_rate} must divide imu_rate {imu_rate}", "odo_rate")
    return decim_i


def _odo_indices(spec: TrajectorySpec, odo_rate: float, a: int = 0, z: int | None = None) -> np.ndarray:
    """Grid indices carrying an odometer sample (regular epochs only), in (a, z], the whole grid by default."""
    if odo_rate <= 0.0:
        return np.array([], dtype=int)
    decim = _odo_decimation(spec.imu_rate, odo_rate)
    n = int(_grid_steps(spec)[0])
    return np.arange((a // decim + 1) * decim, (n if z is None else min(z, n)) + 1, decim)


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
        if self.integrator not in _INTEGRATORS:
            raise SpecInvalid(f"integrator must be one of {_INTEGRATORS}, got {self.integrator!r}", "integrator")
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
    """Error, NEES and whitened-innovation series of one filtered run or of a batch.

    t is (M,); every other field is (..., M[, k]): a single run has no run
    axis, a batch has a leading run axis.  xi (..., M, 9) packs the error
    rows, the true-relative-to-estimate chart vector in the run's
    convention, in TangentVector's (phi, rho_v, rho_r) order; att_err,
    vel_err and pos_err are views of it.  All series share the same
    epochs.  Rows where no update was applied have updated=False: with the
    odometer off their whitened innovations are zero; a sample the gate
    rejected keeps its own.

    The aggregates pool over every run and epoch the result holds, so a
    batch of one reads its run's own numbers.  Where an update was
    applied, NEES is averaged over the updated rows only; where none was,
    over all of them (per epoch for mean_nees_series, over the whole
    result for time_avg_nees).
    """

    t: np.ndarray
    xi: np.ndarray
    nees: np.ndarray
    innovation_whitened: np.ndarray
    updated: np.ndarray  # bool
    att_err = property(lambda self: self.xi[..., 0:3])
    vel_err = property(lambda self: self.xi[..., 3:6])
    pos_err = property(lambda self: self.xi[..., 6:9])

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
        M = len(self.t)
        for white, updated in zip(self.innovation_whitened.reshape(-1, M, 3), self.updated.reshape(-1, M)):
            w = white[updated]
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


def _scenario_blocks(cfg: RunConfig, spans=None) -> tuple:
    """(world, blocks): cfg's scenario, streamed.  world is the NED world at
    the origin, and blocks yields (a, truth at epochs a to z, true IMU over
    intervals a to z - 1) for each block [a, z) of spans (_grid_blocks's by
    default): _truth_blocks and _inverse_blocks, so the blocks joined are
    gen_truth's and inverse_imu's grid, bit for bit."""
    world = ned_world(cfg.origin_e, cfg.earth)
    truths = _truth_blocks(cfg.traj, spans)
    return world, _inverse_blocks(truths, cfg.earth, cfg.gravity, world)


def _start(spec: TrajectorySpec, frame: Frame, grouping: Grouping, earth: EarthParams, world: WorldFrameDef):
    """The truth at spec's first grid epoch in frame and grouping, anchored there (fresh t=0 anchors)."""
    truth = next(_truth_blocks(spec, [(0, 0)]))[1]
    return nav_from_physical(frame, grouping, *physical_from_nav(truth.state(0), earth, world), earth, world)


def _epochs(spec: TrajectorySpec, odo_rate: float) -> tuple[np.ndarray, np.ndarray]:
    """(scored grid indices, block ends) of the filter loop on spec's grid: it
    scores at the odometer's epochs (RunConfig refuses a rate giving none), or
    at _SCORE_RATE with the odometer off, and takes its grid, each run's sensors
    and odometer a block of _SCORE_BLOCK scored epochs at a time, up to the grid
    index of the block's last epoch (the grid's end n for the last block)."""
    n = _interval_count(spec)
    if odo_rate > 0.0:
        sample_idx = _odo_indices(spec, odo_rate)
    else:
        decim = max(1, int(round(spec.imu_rate / _SCORE_RATE)))
        sample_idx = np.arange(decim, n + 1, decim)
    ends = np.append(sample_idx[_SCORE_BLOCK - 1:len(sample_idx) - 1:_SCORE_BLOCK], n)
    return sample_idx, ends


def run_single(cfg: RunConfig, run_index: int = 0) -> RunResult:
    """One filtered run: corrupt the truth, run the filter, score it.

    The truth and its true IMU are streamed from cfg a block at a time.
    The true initial state, true biases, and every noise sequence come
    from streams keyed by (seed, run_index), so results are reproducible
    bit for bit and Monte-Carlo runs are independent by construction.
    This is the Monte-Carlo filter loop with a batch of one, so run k
    here equals run k of any batch.
    """
    return _run_lockstep(cfg, (run_index,)).runs[0]


def _run_lockstep(cfg: RunConfig, run_indices: Sequence[int]) -> RunResult:
    """The filter loop: every run in run_indices propagated in lock step.

    Each run's draws come from its own (seed, channel, run_index)
    substreams, so a run does not depend on the batch around it.  Every
    run starts off truth0, the truth at the grid's first epoch in the
    filter's frame and grouping (_start), by its drawn error.  The loop
    reads its scenario's grid in order (_scenario_blocks), cut at its
    blocks of _SCORE_BLOCK scored epochs, and drops each block once it has
    passed it: the truth and true IMU over the block's intervals, every
    run's measured IMU and true biases,
    (intervals, N, 3) and (_SCORE_BLOCK, N, 6), its odometer readings,
    (_SCORE_BLOCK, N, 3), and the truth at its scored epochs in the
    filter's frame and grouping.  predict writes its interval stacks into
    buffers the loop keeps for every interval.  The state, covariance and
    scoring arrays carry a leading run axis; one predict covers each
    interval between scored epochs (none follows the last), and odometer
    updates apply under each run's own gate.
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
    sample_idx, ends = _epochs(cfg.traj, cfg.odo_rate)
    world, blocks = _scenario_blocks(cfg, list(zip([0, *ends[:-1].tolist()], ends.tolist())))
    N, M = len(runs), len(sample_idx)
    draws = [_RunDraws(cfg, k) for k in runs]
    # One block's measured IMU, stored time-major so each sample is one contiguous (N, 3) slice.
    omega_meas, f_meas = np.empty((2, np.diff(ends, prepend=0).max(), N, 3))

    truth0 = _start(cfg.traj, cfg.frame, cfg.grouping, cfg.earth, world)
    fs = FilterState(
        nav=apply_correction(truth0, TangentVector.from_vector(-np.stack([d.xi0 for d in draws])), cfg.convention),
        bias=np.stack([d.bias_hat0 for d in draws]),
        P=np.broadcast_to(np.diag(cfg.p0_diag()), (N, 15, 15)).copy(),
        conv=cfg.convention,
        model=NavModel.of(truth0, cfg.earth, cfg.gravity, world),
        t=0.0,
    )

    # Scored series, stored run-major: each run's series is contiguous.
    t = np.empty(M)
    xi = np.empty((N, M, 9))
    nees = np.empty((N, M))
    white = np.zeros((N, M, 3))
    updated = np.zeros((N, M), dtype=bool)
    # No later epoch depends on the scoring: each epoch's pose, bias and
    # covariance wait in a block, and a block is scored in one stacked pass.
    B = min(_SCORE_BLOCK, M)
    K_blk, bias_blk, P_blk = np.empty((B, N, 3, 5)), np.empty((B, N, 6)), np.empty((B, N, 15, 15))
    bias_true = np.empty((B, N, 6))  # the true biases over the interval ending at each of the block's epochs
    odo_blk = np.empty((B, N, 3))  # the odometer readings at the block's epochs

    def score(j0, b, truth_f):
        """Score the b stored epochs from epoch j0 on against the truth at
        them; a failing (b, N) stack names run e % N at epoch j0 + e // N."""
        with _naming_elements(lambda e: f"run {runs[e % N]}, t={t[j0 + e // N]:.3f} s", width=N):
            truth_b = replace(truth_f, x=SE23.packed(truth_f.x.K[:b, None]))
            est = replace(fs.nav, x=SE23.packed(K_blk[:b]))
            xi_b = error_to_vector(error_from_states(truth_b, est, fs.conv), fs.conv).as_vector()
            e15 = np.concatenate([xi_b, bias_blk[:b] - bias_true[:b]], axis=2)
            nees_b = _nees(e15.reshape(b * N, 15), P_blk[:b].reshape(b * N, 15, 15))
        xi[:, j0:j0 + b] = xi_b.swapaxes(0, 1)
        nees[:, j0:j0 + b] = nees_b.reshape(b, N).T

    # One predict per interval between scored epochs; none after the last.
    # A failing (epochs, runs) stack names run e % N at grid epoch first + e // N:
    # predict's stack starts after the interval's first epoch, fuse's (one
    # epoch) at its last.
    intervals = list(zip([0, *sample_idx[:-1].tolist()], sample_idx.tolist()))
    buffers = {}  # predict's interval stacks, reused by every interval
    for j0, (a, truth_g, imu_g) in zip(range(0, M, _SCORE_BLOCK), blocks):
        # The block's grid, from grid epoch a on, and every run's draws for it.
        epochs = sample_idx[j0:j0 + _SCORE_BLOCK]
        tg, dts = truth_g.t, imu_g.dt
        t[j0:j0 + len(epochs)] = tg[epochs - a]
        for i, (k, d) in enumerate(zip(runs, draws)):
            imu_meas, true_bias = corrupt(imu_g, cfg, k, d.bias0, d)
            omega_meas[:len(dts), i], f_meas[:len(dts), i] = imu_meas.omega_ib_b, imu_meas.f_ib_b
            bias_true[:len(epochs), i] = true_bias[epochs - 1 - a]
            if cfg.odo_rate > 0.0:
                odo_blk[:len(epochs), i] = d.odometer(a, truth_g)[1]
        # The truth at the block's epochs, converted against truth0's anchors,
        # so one model serves the whole loop.
        t_b = t[j0:j0 + len(epochs)]
        truth_f = nav_from_physical(
            cfg.frame, cfg.grouping, *physical_from_nav(truth_g.state(epochs - a), cfg.earth, world, t_b),
            cfg.earth, world, t=t_b, r0=truth0.r0, dv0=truth0.dv0,
        )
        stored = 0
        try:
            with _naming_elements(lambda e: f"run {runs[e % N]}, t={tg[first - a + e // N]:.3f} s", width=N):
                for j, (k0, k1) in enumerate(intervals[j0:j0 + _SCORE_BLOCK], j0):
                    first = k0 + 1
                    imu = ImuSample(omega_meas[k0 - a:k1 - a], f_meas[k0 - a:k1 - a], dts[k0 - a:k1 - a])
                    fs = predict(fs, imu, cfg.noise, method=cfg.integrator, buffers=buffers)
                    first = k1
                    if cfg.odo_rate > 0.0:
                        z = OdoSample(odo_blk[j - j0], float(tg[k1 - a]))
                        fs, _, white[:, j], updated[:, j] = fuse(
                            fs, z, cfg.noise, gate_sigma=cfg.gate_sigma, imu_period=float(dts[k1 - 1 - a])
                        )
                    K_blk[stored], bias_blk[stored], P_blk[stored] = fs.nav.x.K, fs.bias, fs.P
                    stored += 1
        finally:
            # The stored epochs are scored before a predict or fuse failure
            # propagates, so a failure at an earlier epoch is the one raised.
            if stored:
                score(j0, stored, truth_f)

    return RunResult(t, xi, nees, white, updated)


# ---------------------------------------------------------------------------
# Monte Carlo


def run_monte_carlo(cfg: RunConfig) -> RunResult:
    """Monte-Carlo batch of cfg.n_runs runs sharing one truth, streamed
    from cfg as in run_single; runs differ only in their keyed substreams,
    so the batch is reproducible and order-independent.

    All runs go through the filter loop together, in lock step on one
    process: the state and covariance arrays carry a run axis, so the
    per-step cost is paid once per batch rather than once per run.  The
    result has a leading run axis, and its runs[k] equals run_single(cfg, k)
    bit for bit, whatever the batch size (one included).
    """
    return _run_lockstep(cfg, range(cfg.n_runs))


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
    block of _GRID_BLOCK intervals.  Each trajectory's truth and inputs are
    streamed (_truth_blocks, _inverse_blocks) and the block's inputs formed
    from them, so no whole-grid series but the result is held.  Both
    trajectories start at the world origin, so the four flows share their
    r0/dv0 anchors.
    """
    t = _grid_times(traj_a, 0, _shared_epochs(traj_a, traj_b) - 1)
    m, dts = len(t), np.diff(t)
    earth, gravity = settings.earth, settings.gravity
    world = ned_world(np.asarray(settings.origin_e, dtype=float), earth)
    streams = [_inverse_blocks(_truth_blocks(traj), earth, gravity, world) for traj in (traj_a, traj_b)]
    # Each block's inputs, (trajectory a, b): the left pairs are both driven by a's.
    pairs = zip(*streams) if conv is ErrorConvention.RIGHT else ((block, block) for block in streams[0])

    def inputs(a, z, pair):
        # The four flows' inputs over intervals a..z, (z-a, truth/estimate, trajectory, 3).
        om = np.stack([imu.omega_ib_b[:z - a] for _, _, imu in pair], axis=1)
        f = np.stack([imu.f_ib_b[:z - a] for _, _, imu in pair], axis=1)
        return ImuSample(np.stack([om, om + settings.gyro_input_error], axis=1),
                         np.stack([f, f + settings.accel_input_error], axis=1), dts[a:z])

    starts = [_start(traj, variant.frame, variant.grouping, earth, world) for traj in (traj_a, traj_b)]
    _check_compatible(*starts)
    x0 = SE23.packed(np.stack([st.x.K for st in starts]))
    eta0_inv = vector_to_error(TangentVector.from_vector(np.asarray(xi0, dtype=float)), conv).inverse()
    est0 = eta0_inv.compose(x0) if conv is ErrorConvention.RIGHT else x0.compose(eta0_inv)

    # The four flows advance as one (2, 2) stack: (truth, estimate) x
    # (trajectory a, b), one integrate call per block of intervals, each
    # from the last epoch of the block before.  Each side's block of epochs
    # is a strided (epochs, 2) stack ordered (epoch, trajectory), logged in
    # one pass into (trajectory, epoch, 9); a block's last epoch is logged
    # as the next block's first, and by the grid's last block itself.
    state = replace(starts[0], x=SE23.packed(np.stack([x0.K, est0.K])))
    model = NavModel.of(state, earth, gravity, world)
    xi = np.empty((2, m, 9))
    metric = 0.0
    x = state.x
    for (a, z), pair in zip(_grid_blocks(m - 1), pairs):
        with _naming_elements(lambda i: f"trajectory {'ab'[i % 2]}, t={t[i // 4 + 1]:.3f} s", offset=4 * a):
            K = integrate(replace(state, x=x), inputs(a, z, pair), model, method=settings.integrator)
        x = SE23.packed(K[-1])
        y = z - a + (z == m - 1)
        truth, est = (replace(state, x=SE23.packed(K[:y, j])) for j in (0, 1))
        with _naming_elements(lambda i: f"trajectory {'ab'[i % 2]}, t={t[i // 2]:.3f} s", offset=2 * a):
            xi_ab = error_to_vector(error_from_states(truth, est, conv), conv).as_vector()
        xi[:, a:a + y] = xi_ab.swapaxes(0, 1)
        metric = np.maximum(metric, np.max(np.linalg.norm(xi_ab[:, 0] - xi_ab[:, 1], axis=1)))

    input_errors = bool(np.any(settings.gyro_input_error) or np.any(settings.accel_input_error))
    return AutonomyResult(classify_autonomy(model, conv, input_errors), float(metric), t, xi[0], xi[1])
