"""Host-speed sampling, so timings can be given at a fixed reference speed.

The benchmark's shared 2-core host runs the same code up to 1.7 times
slower for stretches of a few seconds; CPU time rises with wall time, so
the vCPU itself slows down.  A ``Sampler`` times a small fixed kernel every
``PERIOD_S`` seconds of wall time from a SIGALRM handler, in the thread and
on the core that run the workload, so the samples follow the host's speed
while the workload runs.  ``scale`` turns the samples into the factor that
brings a measured time to the speed at which the kernel takes
``REFERENCE_S``.

The kernel belongs to the benchmark and never changes with navkit, so a
change to navkit moves the scaled times by exactly as much as the raw ones.
It is made of the same kind of work as navkit's inner loops (3-vector and
3x3 algebra, a rotation exp/log, a 15x15 covariance product), because work
with a smaller footprint slows less than navkit does on a slow stretch.
"""

from __future__ import annotations

import signal
import statistics
import time

import numpy as np

PERIOD_S = 0.04
# Kernel seconds at the reference host speed; the fast state of a 2-core
# Xeon VM.  Any fixed value works: it only sets the unit of a scaled time.
REFERENCE_S = 0.6e-3

_A = np.arange(9.0).reshape(3, 3) / 10.0
_ONES = np.ones(3)
_F = np.eye(15) + 1e-3 * np.arange(225.0).reshape(15, 15) / 225.0
_P0 = np.eye(15) * 0.5 + 0.01


def _skew(w):
    return np.array([[0.0, -w[2], w[1]], [w[2], 0.0, -w[0]], [-w[1], w[0], 0.0]])


def _exp(w):
    th = float(np.linalg.norm(w))
    k = _skew(w / th)
    return np.eye(3) + np.sin(th) * k + (1.0 - np.cos(th)) * (k @ k)


def _log(r):
    th = np.arccos(min(1.0, max(-1.0, (np.trace(r) - 1.0) / 2.0)))
    return th / (2.0 * np.sin(th)) * np.array([r[2, 1] - r[1, 2], r[0, 2] - r[2, 0], r[1, 0] - r[0, 1]])


def kernel() -> float:
    """A fixed piece of work of about a millisecond."""
    v = _ONES
    for _ in range(15):
        v = _A @ v + 0.1 * np.cross(v, _ONES)
    r, w, p, acc = np.eye(3), np.array([0.1, 0.2, 0.3]), _P0, 0.0
    for i in range(3):
        r = r @ _exp(w + 0.01 * i)
        x = _log(r)
        state = np.concatenate([x, w, np.outer(x, w).ravel()])
        p = _F @ p @ _F.T + 1e-6 * np.eye(15)
        p = 0.5 * (p + p.T)
        acc += float(state.sum()) + float(np.einsum("ii", p))
        w = np.cross(w, x) + _A @ w
    return acc + float(v.sum())


def _time_kernel() -> float:
    t0 = time.perf_counter()
    kernel()
    return time.perf_counter() - t0


def burst(n: int = 30) -> list[float]:
    """n kernel timings back to back, after two untimed warm-up calls."""
    kernel()
    kernel()
    return [_time_kernel() for _ in range(n)]


def scale(samples: list[float]) -> float:
    """Factor from a time measured while ``samples`` were taken to the
    reference speed."""
    return REFERENCE_S / statistics.fmean(samples)


class Sampler:
    """Times ``kernel`` every PERIOD_S seconds while it is running.

    Costs about 2% of the workload's time, the same on every commit.
    """

    def __init__(self):
        self.samples: list[float] = []
        self._previous = None

    def _on_alarm(self, signum, frame):
        self.samples.append(_time_kernel())

    def start(self) -> "Sampler":
        kernel()  # warm: the first call pays for lazy set-up in NumPy
        self._previous = signal.signal(signal.SIGALRM, self._on_alarm)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        return self

    def stop(self) -> list[float]:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, self._previous)
        return self.samples
