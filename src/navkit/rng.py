"""Deterministic Gaussian streams for simulation noise.

Every random quantity in the simulator is drawn from a counter-based
generator keyed by ``(seed, stream_id)``, so a run is reproducible
bit-for-bit from its config alone and independent streams never share
state.  Normals are produced by an explicit Box-Muller transform over
the raw counter output rather than through ``numpy.random.Generator``
methods, which keeps the exact byte stream under our control.
``numpy.random``, which loads all of NumPy's bit generators (about 6 MB
resident), is imported with the first stream, not with the package, so a
process that draws nothing does not hold it.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "GaussianStream",
    "STREAM_GYRO_NOISE",
    "STREAM_ACCEL_NOISE",
    "STREAM_GYRO_BIAS_WALK",
    "STREAM_ACCEL_BIAS_WALK",
    "STREAM_ODOMETER",
    "STREAM_INIT_STATE",
    "STREAM_INIT_BIAS",
    "STREAMS_PER_RUN",
    "substream",
]

_MASK64 = (1 << 64) - 1
_INV_2_53 = 2.0 ** -53

# Channel ids within one run.  Monte-Carlo run k uses channel + k * STREAMS_PER_RUN
# so runs are decorrelated without any shared generator state.
STREAM_GYRO_NOISE = 0
STREAM_ACCEL_NOISE = 1
STREAM_GYRO_BIAS_WALK = 2
STREAM_ACCEL_BIAS_WALK = 3
STREAM_ODOMETER = 4
STREAM_INIT_STATE = 5
STREAM_INIT_BIAS = 6
STREAMS_PER_RUN = 8


def substream(channel: int, run_index: int = 0) -> int:
    """Stream id for a channel within Monte-Carlo run ``run_index``."""
    if channel < 0 or channel >= STREAMS_PER_RUN:
        raise ValueError(f"channel must be in [0, {STREAMS_PER_RUN}), got {channel}")
    if run_index < 0:
        raise ValueError(f"run_index must be non-negative, got {run_index}")
    return channel + run_index * STREAMS_PER_RUN


class GaussianStream:
    """Stream of independent N(0, 1) samples keyed by (seed, stream_id).

    The Philox counter sequence is fixed by the key, so equal keys give
    equal samples on every platform and every call pattern: drawing 6
    then 4 samples yields the same ten numbers as drawing 10 at once.
    """

    def __init__(self, seed: int, stream_id: int):
        from numpy.random import Philox

        key = np.array([seed & _MASK64, stream_id & _MASK64], dtype=np.uint64)
        self._bits = Philox(key=key)
        self._spare: float | None = None

    def normals(self, n: int) -> np.ndarray:
        """Draw ``n`` standard normals as a float array."""
        if n < 0:
            raise ValueError("n must be non-negative")
        out = np.empty(n)
        start = 0
        if self._spare is not None and n > 0:
            out[0] = self._spare
            self._spare = None
            start = 1
        remaining = n - start
        if remaining == 0:
            return out
        pairs = (remaining + 1) // 2
        raw = self._bits.random_raw(2 * pairs)
        # 53-bit uniforms: u1 is shifted into (0, 1] so log() stays finite.
        # raw is dropped once both are read and the rest is formed in place
        # or straight into out, so the peak, raw with the uniforms and out,
        # is 3 times the normals' bytes.
        u1, u2 = (np.right_shift(raw[k::2], np.uint64(11)) for k in (0, 1))
        del raw
        u1 += np.uint64(1)
        u1, u2 = (np.multiply(u, _INV_2_53, out=u.view(np.float64)) for u in (u1, u2))
        radius = np.sqrt(np.multiply(np.log(u1, out=u1), -2.0, out=u1), out=u1)
        angle = np.multiply(u2, 2.0 * np.pi, out=u2)
        # z = (radius cos, radius sin) pairwise, written straight into out;
        # for an odd count the last sine is the spare.
        out[start::2] = np.multiply(np.cos(angle), radius)
        z_sin = np.multiply(np.sin(angle, out=angle), radius, out=angle)
        out[start + 1 :: 2] = z_sin[: remaining // 2]
        if remaining % 2 == 1:
            self._spare = float(z_sin[-1])
        return out

    def normal_matrix(self, rows: int, cols: int) -> np.ndarray:
        return self.normals(rows * cols).reshape(rows, cols)
