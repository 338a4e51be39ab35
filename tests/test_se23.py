"""Group/algebra primitives: exact examples, roundtrips, and axioms."""
from __future__ import annotations

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from navkit import (
    SE23,
    AngleAtPi,
    NotARotation,
    TangentVector,
    se23_exp,
    se23_log,
    skew,
    so3_exp,
    so3_left_jacobian,
    so3_left_jacobian_inv,
    so3_log,
    unskew,
)
from navkit.se23 import _ORTHO_TOL, _check_rotation
from conftest import random_se23, random_tangent

IDENTITY = SE23.packed(np.eye(3, 5))


def _hat(xi):
    """The 5x5 algebra element of xi: skew(phi) upper left, then the rho_v and rho_r columns."""
    M = np.zeros((5, 5))
    M[0:3, 0:3] = skew(xi.phi)
    M[0:3, 3], M[0:3, 4] = xi.rho_v, xi.rho_r
    return M


def _vee(M):
    """Inverse of _hat."""
    return np.concatenate((unskew(M[0:3, 0:3]), M[0:3, 3], M[0:3, 4]))


def test_skew_cross_product():
    assert np.allclose(skew([1, 0, 0]) @ [0, 1, 0], [0, 0, 1])
    assert np.allclose(skew([0, 0, 0]), np.zeros((3, 3)))
    w = np.array([0.3, -1.2, 2.0])
    assert np.allclose(skew(w).T, -skew(w))
    assert np.allclose(unskew(skew(w)), w)


def test_so3_exp_identity_and_quarter_turn():
    assert np.allclose(so3_exp([0, 0, 0]), np.eye(3))
    expected = np.array([[1.0, 0.0, 0.0], [0.0, 0.0, -1.0], [0.0, 1.0, 0.0]])
    assert np.allclose(so3_exp([np.pi / 2, 0, 0]), expected, atol=1e-12)


def test_so3_exp_is_rotation():
    rng = np.random.default_rng(1)
    for _ in range(200):
        R = so3_exp(rng.normal(scale=1.5, size=3))
        assert np.allclose(R.T @ R, np.eye(3), atol=1e-12)
        assert np.isclose(np.linalg.det(R), 1.0, atol=1e-12)


def test_so3_exp_small_angle_branch_continuity():
    phi = np.array([3.0e-9, -4.0e-9, 1.0e-9])  # below the series threshold
    R = so3_exp(phi)
    assert np.allclose(R, np.eye(3) + skew(phi), atol=1e-16)
    # Just above the threshold the closed form must agree with the series.
    phi = np.array([2.0e-8, 1.0e-8, -1.0e-8])
    R = so3_exp(phi)
    assert np.allclose(R, np.eye(3) + skew(phi) + 0.5 * skew(phi) @ skew(phi), atol=1e-20)


def test_so3_log_examples():
    assert np.allclose(so3_log(np.eye(3)), np.zeros(3))
    assert np.allclose(so3_log(so3_exp([np.pi / 2, 0, 0])), [np.pi / 2, 0, 0], atol=1e-12)


def test_so3_roundtrip_random():
    rng = np.random.default_rng(2)
    for _ in range(1000):
        axis = rng.normal(size=3)
        axis /= np.linalg.norm(axis)
        phi = axis * rng.uniform(0.0, 3.0)
        err = np.linalg.norm(so3_log(so3_exp(phi)) - phi)
        assert err < 1e-9


def test_so3_roundtrip_near_pi():
    rng = np.random.default_rng(3)
    for _ in range(200):
        axis = rng.normal(size=3)
        axis /= np.linalg.norm(axis)
        phi = axis * rng.uniform(np.pi - 0.05, np.pi - 1e-3)
        err = np.linalg.norm(so3_log(so3_exp(phi)) - phi)
        assert err < 1e-9


def test_so3_log_at_pi_axis_extraction():
    rng = np.random.default_rng(4)
    for _ in range(100):
        axis = rng.normal(size=3)
        axis /= np.linalg.norm(axis)
        R = so3_exp(axis * np.pi)
        phi = so3_log(R)
        assert abs(np.linalg.norm(phi) - np.pi) < 1e-6
        # Either sign of the axis is valid at pi; the matrix must match.
        assert np.allclose(so3_exp(phi), R, atol=1e-6)


def test_so3_log_rejects_non_rotation():
    M = np.eye(3)
    M[0, 1] = 1e-3
    with pytest.raises(NotARotation):
        so3_log(M)


def test_left_jacobian_first_order_transport():
    rng = np.random.default_rng(5)
    for _ in range(50):
        phi = rng.normal(scale=1.0, size=3)
        delta = rng.normal(size=3)
        J = so3_left_jacobian(phi)
        eps = 1e-6
        lhs = so3_exp(phi + eps * delta)
        rhs = so3_exp(eps * (J @ delta)) @ so3_exp(phi)
        assert np.allclose(lhs, rhs, atol=5e-11)


def test_left_jacobian_inverse():
    rng = np.random.default_rng(6)
    for _ in range(100):
        phi = rng.normal(scale=1.0, size=3)
        J = so3_left_jacobian(phi)
        assert np.allclose(J @ so3_left_jacobian_inv(phi), np.eye(3), atol=1e-12)
    # Series branch.
    phi = np.array([1e-6, -2e-6, 1e-6])
    assert np.allclose(so3_left_jacobian(phi) @ so3_left_jacobian_inv(phi), np.eye(3), atol=1e-14)


def _stack_se23(rng, n):
    """n random poses as one stack."""
    return SE23.packed(np.stack([random_se23(rng).K for _ in range(n)]))


def test_compose_matches_dense_product():
    rng = np.random.default_rng(7)
    for _ in range(100):
        a, b = random_se23(rng), random_se23(rng)
        assert np.allclose(a.compose(b).as_matrix(), a.as_matrix() @ b.as_matrix(), atol=1e-9)
    A, B = _stack_se23(rng, 6), _stack_se23(rng, 6)
    assert np.allclose(A.compose(B).as_matrix(), A.as_matrix() @ B.as_matrix(), atol=1e-9)


def test_compose_identity_and_inverse():
    rng = np.random.default_rng(8)
    for _ in range(50):
        x = random_se23(rng)
        assert np.allclose(x.compose(IDENTITY).as_matrix(), x.as_matrix())
        assert np.allclose(x.compose(x.inverse()).as_matrix(), np.eye(5), atol=1e-9)


def test_inverse_closed_form():
    x = SE23(np.eye(3), np.array([1.0, 2.0, 3.0]), np.zeros(3))
    xi = x.inverse()
    assert np.allclose(xi.v, [-1, -2, -3])
    rng = np.random.default_rng(9)
    for _ in range(100):
        x = random_se23(rng)
        assert np.allclose(x.inverse().as_matrix(), np.linalg.inv(x.as_matrix()), atol=1e-10)
    X = _stack_se23(rng, 6)
    assert np.allclose(X.inverse().as_matrix(), np.linalg.inv(X.as_matrix()), atol=1e-10)


def test_pose_and_chart_parts_are_read_only_views():
    x = random_se23(np.random.default_rng(16))
    for part in (x.R, x.v, x.p):
        assert np.shares_memory(part, x.K)
        with pytest.raises(ValueError):
            part[..., 0] = 0.0
    with pytest.raises(ValueError):
        x.K[0, 0] = 0.0
    # The packed wrapper takes K without a copy; the caller's array keeps its flag.
    K = x.K.copy()
    y = SE23.packed(K)
    assert np.shares_memory(y.K, K) and K.flags.writeable
    xi = random_tangent(np.random.default_rng(17))
    for part in (xi.phi, xi.rho_v, xi.rho_r):
        assert np.shares_memory(part, xi.as_vector())
        with pytest.raises(ValueError):
            part[0] = 0.0


def test_se23_exp_log_identity_cases():
    assert np.allclose(se23_exp(TangentVector.from_vector(np.zeros(9))).as_matrix(), np.eye(5))
    xi = se23_log(IDENTITY)
    assert np.allclose(xi.as_vector(), np.zeros(9))
    # J(0) = I: pure v/p element logs to itself.
    x = SE23(np.eye(3), np.array([1.0, -2.0, 0.5]), np.array([10.0, 0.0, -3.0]))
    xi = se23_log(x)
    assert np.allclose(xi.phi, 0.0)
    assert np.allclose(xi.rho_v, x.v)
    assert np.allclose(xi.rho_r, x.p)


def test_se23_roundtrip_random():
    rng = np.random.default_rng(10)
    for _ in range(1000):
        xi = random_tangent(rng)
        back = se23_log(se23_exp(xi))
        assert np.linalg.norm(back.as_vector() - xi.as_vector()) < 1e-9


def test_se23_exp_first_order_halving():
    rng = np.random.default_rng(11)
    xi = random_tangent(rng, max_angle=1.0)
    residual = []
    for eps in (1e-2, 5e-3, 2.5e-3):
        scaled = TangentVector(eps * xi.phi, eps * xi.rho_v, eps * xi.rho_r)
        first_order = np.eye(5) + _hat(scaled)
        residual.append(np.linalg.norm(se23_exp(scaled).as_matrix() - first_order))
    assert 3.5 < residual[0] / residual[1] < 4.5
    assert 3.5 < residual[1] / residual[2] < 4.5


def test_se23_log_raises_at_pi():
    axis = np.array([1.0, 0.0, 0.0])
    x = SE23(so3_exp(axis * (np.pi - 1e-8)), np.zeros(3), np.zeros(3))
    with pytest.raises(AngleAtPi):
        se23_log(x)


def test_adjoint_identity_and_conjugation():
    assert np.allclose(IDENTITY.adjoint(), np.eye(9))
    rng = np.random.default_rng(13)
    for _ in range(100):
        x = random_se23(rng)
        xi = random_tangent(rng)
        lhs = _vee(x.as_matrix() @ _hat(xi) @ x.inverse().as_matrix())
        rhs = x.adjoint() @ xi.as_vector()
        assert np.allclose(lhs, rhs, atol=1e-9 * max(1.0, np.linalg.norm(rhs)))


def test_matrix_forms_are_batch_shaped():
    # as_matrix and adjoint of a (2, 3) stack hold each element's own
    # value, bit for bit.
    rng = np.random.default_rng(15)
    X = SE23.packed(np.stack([_stack_se23(rng, 3).K for _ in range(2)]))
    M, A = X.as_matrix(), X.adjoint()
    assert (M.shape, A.shape) == ((2, 3, 5, 5), (2, 3, 9, 9))
    for j, k in np.ndindex(2, 3):
        one = SE23.packed(X.K[j, k])
        assert np.array_equal(M[j, k], one.as_matrix())
        assert np.array_equal(A[j, k], one.adjoint())


def test_adjoint_homomorphism():
    rng = np.random.default_rng(14)
    for _ in range(50):
        a, b = random_se23(rng), random_se23(rng)
        lhs = a.compose(b).adjoint()
        rhs = a.adjoint() @ b.adjoint()
        assert np.allclose(lhs, rhs, atol=1e-8 * max(1.0, np.abs(rhs).max()))


def test_associativity_random():
    rng = np.random.default_rng(15)
    for _ in range(100):
        a, b, c = random_se23(rng), random_se23(rng), random_se23(rng)
        lhs = a.compose(b).compose(c).as_matrix()
        rhs = a.compose(b.compose(c)).as_matrix()
        assert np.allclose(lhs, rhs, atol=1e-9 * max(1.0, np.abs(rhs).max()))


# ---------------------------------------------------------------------------
# stacked (batch) branches against the scalar ones


def _stack_of_angles(rng):
    """Rotation vectors across every branch: zero, the series band, the
    regular band, and the near-pi band of so3_log."""
    axes = rng.normal(size=(8, 3))
    axes /= np.linalg.norm(axes, axis=1)[:, None]
    angles = np.array([0.0, 1e-12, 5e-9, 3e-5, 0.02, 1.0, 3.0, np.pi - 5e-4])
    return axes * angles[:, None]


def test_stacked_kernels_match_scalar():
    rng = np.random.default_rng(31)
    phi = _stack_of_angles(rng)
    for fn in (skew, so3_exp, so3_left_jacobian, so3_left_jacobian_inv):
        stacked = fn(phi)
        for k in range(len(phi)):
            assert np.allclose(stacked[k], fn(phi[k]), rtol=0.0, atol=1e-14), (fn.__name__, k)
    R = so3_exp(phi)
    logs = so3_log(R)
    for k in range(len(phi)):
        assert np.allclose(logs[k], so3_log(R[k]), rtol=0.0, atol=1e-12), k
    xi = TangentVector(phi[:-1], rng.normal(size=(7, 3)), rng.normal(scale=50.0, size=(7, 3)))
    X = se23_exp(xi)
    back = se23_log(X)
    for k in range(7):
        single = se23_exp(TangentVector.from_vector(xi.as_vector()[k]))
        assert np.allclose(X.R[k], single.R, atol=1e-14)
        assert np.allclose(X.p[k], single.p, atol=1e-12)
        assert np.allclose(back.as_vector()[k], xi.as_vector()[k], atol=1e-9)


def test_stacked_kernels_do_not_depend_on_stack_size():
    rng = np.random.default_rng(32)
    phi = _stack_of_angles(rng)
    n = len(phi)
    R = so3_exp(phi)
    xi = np.concatenate([phi, rng.normal(size=(n, 3)), rng.normal(scale=50.0, size=(n, 3))], axis=1)
    X = se23_exp(TangentVector.from_vector(xi))
    Y = _stack_se23(rng, n)
    stacked = {
        "so3_log": so3_log(R),
        "se23_log": se23_log(X).as_vector(),
        "compose": X.compose(Y).K,
        "inverse": X.inverse().K,
    }
    for k in range(n):
        one = slice(k, k + 1)
        Xk, Yk = SE23.packed(X.K[one]), SE23.packed(Y.K[one])
        assert np.array_equal(so3_exp(phi[one])[0], R[k])
        assert np.array_equal(so3_log(R[one])[0], stacked["so3_log"][k])
        assert np.array_equal(se23_exp(TangentVector.from_vector(xi[one])).K[0], X.K[k])
        assert np.array_equal(se23_log(Xk).as_vector()[0], stacked["se23_log"][k])
        assert np.array_equal(Xk.compose(Yk).K[0], stacked["compose"][k])
        assert np.array_equal(Xk.inverse().K[0], stacked["inverse"][k])


def test_stacked_errors_name_the_element():
    R = so3_exp(np.array([[0.1, 0.0, 0.0], [0.0, 0.2, 0.0]]))
    R[1, 0, 0] += 1e-3
    with pytest.raises(NotARotation, match="element 1") as info:
        so3_log(R)
    assert info.value.element == 1
    with pytest.raises(NotARotation) as info:
        so3_log(R[1])
    assert info.value.element is None
    assert "element" not in str(info.value)
    # NaN fails the test too, single and stacked.
    with pytest.raises(NotARotation) as info:
        so3_log(np.full((3, 3), np.nan))
    assert info.value.element is None
    with pytest.raises(NotARotation, match="element 2") as info:
        so3_log(np.stack([R[0], R[0], np.full((3, 3), np.nan)]))
    assert info.value.element == 2
    # A reflection is orthonormal; its message names the determinant.
    with pytest.raises(NotARotation, match=r"^determinant -1\.000 is negative: a reflection") as info:
        so3_log(np.diag([1.0, 1.0, -1.0]))
    assert info.value.element is None
    with pytest.raises(NotARotation, match=r"^element 1 of the stack: determinant -1\.000") as info:
        so3_log(np.stack([R[0], np.diag([-1.0, 1.0, 1.0])]))
    assert info.value.element == 1
    X = SE23(so3_exp(np.array([[0.0, 0.0, 0.1], [0.0, 0.0, np.pi - 1e-7]])), np.zeros((2, 3)), np.zeros((2, 3)))
    with pytest.raises(AngleAtPi, match="element 1") as info:
        se23_log(X)
    assert info.value.element == 1
    with pytest.raises(AngleAtPi) as info:
        se23_log(SE23(X.R[1], X.v[1], X.p[1]))
    assert info.value.element is None


# ---------------------------------------------------------------------------
# property tests of the branchy numerics (hypothesis)

_PROPERTY = settings(max_examples=300, deadline=None, derandomize=True, database=None)
_UNIT_AXIS = st.lists(st.floats(-1.0, 1.0), min_size=3, max_size=3).map(np.array).filter(
    lambda a: np.linalg.norm(a) > 0.1
).map(lambda a: a / np.linalg.norm(a))


@_PROPERTY
@given(axis=_UNIT_AXIS, gap=st.floats(0.0, 1e-3))
def test_so3_log_within_1e3_of_pi(axis, gap):
    # The near-pi branch: the log lands back on the rotation, with the
    # angle pi - gap; below the pi cut it is the one rotation vector of
    # that angle (either sign once the sine is lost to rounding).
    theta = np.pi - gap
    R = so3_exp(theta * axis)
    phi = so3_log(R)
    assert abs(np.linalg.norm(phi) - theta) <= 1e-12
    assert np.abs(so3_exp(phi) - R).max() <= 1e-12
    assert min(np.abs(phi - theta * axis).max(), np.abs(phi + theta * axis).max()) <= 1e-12


@_PROPERTY
@given(axis=_UNIT_AXIS, theta=st.floats(0.0, 1e-8, exclude_max=True))
def test_so3_log_below_1e8(axis, theta):
    # The series branch: exp then log returns the rotation vector.
    phi = theta * axis
    back = so3_log(so3_exp(phi))
    assert np.abs(back - phi).max() <= 1e-12 * theta
    assert np.abs(so3_exp(back) - so3_exp(phi)).max() <= 1e-15


@_PROPERTY
@given(
    axis=_UNIT_AXIS,
    theta=st.one_of(st.floats(0.0, 1e-8), st.floats(1e-8, 1e-3), st.floats(1e-3, np.pi - 1e-3)),
    rho=st.lists(st.floats(-1e3, 1e3), min_size=6, max_size=6).map(np.array),
)
# Just outside the near-pi branch, where an angle from arccos of the trace
# alone was off by about 1e-9.
@example(axis=np.array([0.0, 0.0, 1.0]), theta=np.pi - 1.0097e-3, rho=np.zeros(6))
def test_se23_exp_log_round_trip(axis, theta, rho):
    # Across the small-angle and Jacobian-series switches up to the pi
    # guard.  The regular branch takes the angle as atan2(|w|, cos), which
    # keeps it to about 1e-13 rad everywhere.
    xi = TangentVector(theta * axis, rho[0:3], rho[3:6])
    X = se23_exp(xi)
    back = se23_log(X)
    scale = max(1.0, np.abs(rho).max())
    assert np.abs(back.phi - xi.phi).max() <= 1e-12
    assert np.abs(np.concatenate([back.rho_v, back.rho_r]) - rho).max() <= 1e-9 * scale
    assert np.abs(se23_exp(back).as_matrix() - X.as_matrix()).max() <= 1e-10 * scale


def _jacobian_series(phi):
    """(J, J^-1) from their series to theta^4, exact to rounding for theta <= 2e-4."""
    W, t2 = skew(phi), float(phi @ phi)
    J = np.eye(3) + (0.5 - t2 / 24.0 + t2 * t2 / 720.0) * W + (1.0 / 6.0 - t2 / 120.0 + t2 * t2 / 5040.0) * (W @ W)
    Jinv = np.eye(3) - 0.5 * W + (1.0 / 12.0 + t2 / 720.0 + t2 * t2 / 30240.0) * (W @ W)
    return J, Jinv


@_PROPERTY
@given(axis=_UNIT_AXIS, theta=st.floats(0.5e-4, 2e-4))
@example(axis=np.array([0.0, 0.0, 1.0]), theta=np.nextafter(1e-4, 0.0))
@example(axis=np.array([0.0, 0.0, 1.0]), theta=1e-4)
def test_left_jacobian_across_the_series_switch(axis, theta):
    # Both sides of the 1e-4 switch (series below, closed form above) agree
    # with the longer series, and J J^-1 = I there.
    phi = theta * axis
    J, Jinv = so3_left_jacobian(phi), so3_left_jacobian_inv(phi)
    J_ref, Jinv_ref = _jacobian_series(phi)
    assert np.abs(J - J_ref).max() <= 1e-15
    assert np.abs(Jinv - Jinv_ref).max() <= 1e-15
    assert np.abs(J @ Jinv - np.eye(3)).max() <= 1e-15


def _rotation_verdict(R):
    """(message, flat index) of the first element that fails the rotation
    test, from np.linalg's norm and det, or None if all pass."""
    defect = np.linalg.norm(np.swapaxes(R, -1, -2) @ R - np.eye(3), axis=(-2, -1))
    bad = ~(defect <= _ORTHO_TOL)
    if bad.any():
        i = int(np.flatnonzero(bad)[0])
        return f"orthonormality defect {defect.flat[i]:.3e} exceeds 1e-06", i
    det = np.linalg.det(R)
    if (det < 0.0).any():
        i = int(np.flatnonzero(det < 0.0)[0])
        return f"determinant {det.flat[i]:.3f} is negative: a reflection, not a rotation", i
    return None


# (kind, whether the reference rejects it): a rotation, one perturbed along a
# symmetric direction to a defect of 0.5 and 2 times the tolerance, a
# reflection -Q and a rotation with one NaN entry.
_CANDIDATE_KINDS = {"rotation": False, "defect 0.5": False, "defect 2": True, "reflection": True, "nan": True}
_CANDIDATE = st.tuples(
    st.sampled_from(sorted(_CANDIDATE_KINDS)),
    st.lists(st.floats(-3.0, 3.0), min_size=3, max_size=3).map(np.array),
    st.lists(st.floats(-1.0, 1.0), min_size=6, max_size=6).map(np.array).filter(lambda a: np.abs(a).max() > 0.1),
    st.integers(0, 8),
)


def _candidate(kind, phi, sym, nan_at):
    Q = so3_exp(phi)
    if kind == "reflection":
        return -Q
    if kind == "nan":
        Q.flat[nan_at] = np.nan
        return Q
    if kind == "rotation":
        return Q
    # Q (I + eps S) with |S| = 1 has R^T R - I = 2 eps S + eps^2 S^2: a
    # defect of 2 eps to a relative 1e-6.
    S = np.zeros((3, 3))
    S[np.triu_indices(3)] = sym
    S = S + np.triu(S, 1).T
    eps = 0.5 * float(kind.split()[1]) * _ORTHO_TOL
    return Q @ (np.eye(3) + eps * S / np.linalg.norm(S))


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(candidates=st.lists(_CANDIDATE, min_size=1, max_size=5), single=st.booleans())
def test_check_rotation_rejects_where_norm_and_det_reject(candidates, single):
    # _check_rotation forms the defect's Frobenius sum and det R by cofactors;
    # it rejects exactly where the np.linalg reference rejects, with the same
    # message, defect and determinant included, and names the same element,
    # single and stacked.
    if single:
        candidates = candidates[:1]
    for kind, *args in candidates:  # the kinds land on the side of the tolerance they name
        assert (_rotation_verdict(_candidate(kind, *args)) is not None) == _CANDIDATE_KINDS[kind]
    R = np.stack([_candidate(*c) for c in candidates])
    if single:
        R = R[0]
    verdict = _rotation_verdict(R)
    if verdict is None:
        _check_rotation(R)
        return
    message, i = verdict
    with pytest.raises(NotARotation) as info:
        _check_rotation(R)
    if single:
        assert str(info.value) == message
        assert info.value.element is None
    else:
        assert str(info.value) == f"element {i} of the stack: {message}"
        assert info.value.element == i
