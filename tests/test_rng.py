"""Deterministic-stream contract: keying, call-pattern invariance, moments."""
from __future__ import annotations

import numpy as np
import pytest

from navkit import (
    STREAM_GYRO_NOISE,
    STREAM_INIT_BIAS,
    GaussianStream,
    substream,
)
from navkit.rng import STREAMS_PER_RUN


def test_same_key_same_samples():
    a = GaussianStream(1234, 5).normals(64)
    b = GaussianStream(1234, 5).normals(64)
    assert np.array_equal(a, b)


def test_different_seed_different_samples():
    a = GaussianStream(1, 0).normals(32)
    b = GaussianStream(2, 0).normals(32)
    assert not np.array_equal(a, b)


def test_different_stream_different_samples():
    a = GaussianStream(7, 0).normals(32)
    b = GaussianStream(7, 1).normals(32)
    assert not np.array_equal(a, b)


def test_call_pattern_invariance():
    whole = GaussianStream(99, 3).normals(10)
    split = GaussianStream(99, 3)
    got = np.concatenate([split.normals(6), split.normals(4)])
    assert np.array_equal(whole, got)


def test_odd_draws_carry_the_spare():
    whole = GaussianStream(5, 0).normals(9)
    split = GaussianStream(5, 0)
    got = np.concatenate([split.normals(3), split.normals(3), split.normals(3)])
    assert np.array_equal(whole, got)
    # and a zero-size draw in the middle changes nothing
    split2 = GaussianStream(5, 0)
    got2 = np.concatenate([split2.normals(5), split2.normals(0), split2.normals(4)])
    assert np.array_equal(whole, got2)


def test_normal_matrix_matches_flat_draw():
    flat = GaussianStream(11, 2).normals(12)
    mat = GaussianStream(11, 2).normal_matrix(3, 4)
    assert mat.shape == (3, 4)
    assert np.array_equal(mat.ravel(), flat)


def test_moments_and_finiteness():
    z = GaussianStream(2024, 0).normals(200_000)
    assert np.all(np.isfinite(z))
    n = len(z)
    assert abs(z.mean()) < 4.0 / np.sqrt(n)
    assert abs(z.var() - 1.0) < 4.0 * np.sqrt(2.0 / n)
    # symmetric tails at the 4-sigma-ish level of sampling error
    assert abs((z > 0).mean() - 0.5) < 4.0 * 0.5 / np.sqrt(n)


def test_lag1_autocorrelation_negligible():
    z = GaussianStream(31, 4).normals(100_000)
    r = float(np.dot(z[:-1], z[1:]) / np.dot(z, z))
    assert abs(r) < 4.0 / np.sqrt(len(z))


def test_substream_layout():
    assert substream(STREAM_GYRO_NOISE, 0) == STREAM_GYRO_NOISE
    assert substream(STREAM_INIT_BIAS, 3) == STREAM_INIT_BIAS + 3 * STREAMS_PER_RUN
    # run streams never collide across (channel, run) pairs
    ids = {substream(c, r) for c in range(7) for r in range(20)}
    assert len(ids) == 7 * 20


def test_substream_validation():
    with pytest.raises(ValueError):
        substream(-1, 0)
    with pytest.raises(ValueError):
        substream(STREAMS_PER_RUN, 0)
    with pytest.raises(ValueError):
        substream(0, -1)


def test_negative_count_rejected():
    with pytest.raises(ValueError):
        GaussianStream(0, 0).normals(-1)


def test_draws_keep_their_bits():
    # The Box-Muller values of a fixed key, an odd draw carrying its spare
    # into the next, pinned to the last bit.
    stream = GaussianStream(2026, 3)
    assert [float(x).hex() for x in stream.normals(3)] == [
        "0x1.08fad316e293ep+1", "-0x1.38748c02e1b40p+0", "-0x1.ae6b50862be93p-1"
    ]
    assert [float(x).hex() for x in stream.normals(2)] == ["-0x1.b51d1aeeef937p-2", "-0x1.a125c6b88a862p-4"]


@pytest.mark.parametrize("n", [100_000, 100_001])
def test_draw_peak_memory(n):
    # The uniforms, radius and angle are formed in place and the raw words
    # dropped once read, so the peak, the raw words with both uniforms and
    # the output, is 3.0 times the returned normals.
    import tracemalloc

    stream = GaussianStream(11, 0)  # numpy.random loads here, outside the trace
    tracemalloc.start()
    try:
        z = stream.normals(n)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 3.5 * z.nbytes
