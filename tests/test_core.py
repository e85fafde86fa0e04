"""Pose parameterizations, conversions, and conversion Jacobians."""
import math
import warnings

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from conftest import rand_euler, rand_quat_pose, safe_quat_pose
from rigidkit import (EulerPose, GaussianPose, GeometryError, HomPose,
                      HomPose2, Quaternion, QuatPose,
                      SingularConfigurationError, convert_gaussian,
                      jacobian_matrix_wrt_quat, jacobian_matrix_wrt_ypr,
                      jacobian_quat_to_ypr, jacobian_ypr_to_quat,
                      jacobian_ypr_wrt_matrix, matrix_to_quat, matrix_to_ypr,
                      numeric_jacobian, quat_normalize, quat_to_matrix,
                      quat_to_ypr, so3_exp, wrap_angle, ypr_to_matrix,
                      ypr_to_quat)
from rigidkit.core import (_quat_components_from_angles, _quat_from_rotation,
                           _quat_from_rotation_rate)

# frozen oracle literals (independent half-angle / axis-rotation evaluation)
QUAT_30_20_90 = np.array([
    0.7044160264027588, 0.64085638205578854, 0.29883623873011977,
    0.061628416716219367,
])
ROT_30_20_90 = np.array([
    [0.8137976813493738, 0.2961981327260238, 0.49999999999999994],
    [0.46984631039295416, 0.17101007166283438, -0.86602540378443871],
    [-0.34202014332566871, 0.93969262078590843, 5.7539578011392513e-17],
])


# ---------------------------------------------------------------------------
# value types

def test_wrap_angle_range_and_period():
    assert wrap_angle(math.pi) == math.pi
    assert wrap_angle(-math.pi) == math.pi
    assert abs(wrap_angle(3 * math.pi) - math.pi) < 1e-15
    assert abs(wrap_angle(0.3 + 4 * math.pi) - 0.3) < 1e-12


@given(st.floats(-50.0, 50.0))
def test_wrap_angle_property(a):
    w = wrap_angle(a)
    assert -math.pi < w <= math.pi
    assert abs(math.sin(w) - math.sin(a)) < 1e-9
    assert abs(math.cos(w) - math.cos(a)) < 1e-9


def test_quaternion_canonical_sign():
    q = Quaternion(-0.5, 0.5, 0.5, 0.5)
    assert np.array_equal(q.vec, [0.5, -0.5, -0.5, -0.5])
    assert q.qr >= 0.0
    q2 = Quaternion(0.5, -0.5, 0.5, -0.5)
    assert np.array_equal(q2.vec, [0.5, -0.5, 0.5, -0.5])


def test_euler_pose_rejects_out_of_range_pitch():
    with pytest.raises(GeometryError):
        EulerPose(0, 0, 0, 0.0, math.pi / 2 + 1e-6, 0.0)
    # the boundary itself is allowed
    EulerPose(0, 0, 0, 0.0, math.pi / 2, 0.0)
    with pytest.raises(GeometryError, match="^EulerPose.from_vec: v must be a finite 6-vector"):
        EulerPose.from_vec([1, 2, 3])


def _raw_quat(qr, qx, qy, qz):
    """Quaternion bypassing validation, for failure-path tests."""
    q = Quaternion.__new__(Quaternion)
    object.__setattr__(q, "qr", qr)
    object.__setattr__(q, "qx", qx)
    object.__setattr__(q, "qy", qy)
    object.__setattr__(q, "qz", qz)
    return q


def test_quat_pose_rejects_non_unit():
    with pytest.raises(GeometryError):
        QuatPose(0, 0, 0, _raw_quat(2.0, 0.0, 0.0, 0.0))
    with pytest.raises(GeometryError, match="^QuatPose.from_vec: v must be a finite 7-vector"):
        QuatPose.from_vec([1, 2, 3])


def test_hom_pose_validation():
    good = ypr_to_matrix(EulerPose(1, 2, 3, 0.3, 0.2, 0.1)).mat
    HomPose(good)
    bad_bottom = good.copy()
    bad_bottom[3, 0] = 1e-6
    with pytest.raises(GeometryError):
        HomPose(bad_bottom)
    skew = good.copy()
    skew[:3, :3] *= 1.001
    with pytest.raises(GeometryError):
        HomPose(skew)
    reflect = good.copy()
    reflect[:3, 0] *= -1.0
    with pytest.raises(GeometryError):
        HomPose(reflect)
    # the classmethods check their arguments' shapes first
    with pytest.raises(GeometryError, match="^HomPose.from_vec12: v must be a finite 12-vector"):
        HomPose.from_vec12(np.ones(5))
    with pytest.raises(GeometryError, match="^HomPose.from_rt: r must be a finite 3x3"):
        HomPose.from_rt(np.eye(2), [1, 2, 3])
    with pytest.raises(GeometryError, match="^HomPose.from_rt: t must be a finite 3-vector"):
        HomPose.from_rt(np.eye(3), [1, 2, math.nan])
    assert np.array_equal(HomPose.from_vec12(HomPose(good).vec12).mat, good)


def test_hom_pose2_validation():
    m = np.array([[math.cos(0.4), -math.sin(0.4), 1.0],
                  [math.sin(0.4), math.cos(0.4), -2.0],
                  [0.0, 0.0, 1.0]])
    p = HomPose2(m)
    assert abs(p.angle - 0.4) < 1e-15
    bad = m.copy()
    bad[2, 2] = 0.5
    with pytest.raises(GeometryError):
        HomPose2(bad)


def test_gaussian_pose_dimension_check():
    GaussianPose(EulerPose(0, 0, 0, 0, 0, 0), np.eye(6))
    GaussianPose(ypr_to_quat(EulerPose(0, 0, 0, 0, 0, 0)), np.eye(7))
    with pytest.raises(GeometryError):
        GaussianPose(EulerPose(0, 0, 0, 0, 0, 0), np.eye(7))
    with pytest.raises(GeometryError):
        GaussianPose(EulerPose(0, 0, 0, 0, 0, 0), np.ones((6, 6)) * np.nan)


def test_gaussian_pose_covariance_overflow_rejected():
    # finite entries whose symmetrized form overflows
    cov = 1e-6 * np.eye(6)
    cov[3, 3] = cov[4, 4] = 1.7e308
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(GeometryError, match="GaussianPose: covariance is too large"):
            GaussianPose(EulerPose(0, 0, 0, 0.1, 0.2, 0.3), cov)


def test_gaussian_pose_large_rank_deficient_covariance_accepted():
    # rank 6 of 12 with entries about 1e6, one zero eigenvalue pushed to
    # -1e-8, as rounding at that scale does: below -1e-10, but far above
    # -1e-10 of the largest
    a = 300.0 * np.random.default_rng(0).normal(size=(12, 6))
    v = np.linalg.qr(a, mode="complete")[0][:, -1]  # orthogonal to a's columns
    mean = ypr_to_matrix(EulerPose(1.0, -0.5, 2.0, 0.4, -0.3, 1.2))
    for shift, accepted in ((1e-8, True), (1e-2, False)):
        cov = a @ a.T - shift * np.outer(v, v)
        cov = 0.5 * (cov + cov.T)
        assert 1e5 < np.abs(cov).max() < 1e7
        if accepted:
            assert np.array_equal(GaussianPose(mean, cov).cov, cov)
        else:
            with pytest.raises(GeometryError, match="significantly negative eigenvalue"):
                GaussianPose(mean, cov)


# ---------------------------------------------------------------------------
# conversions

def test_ypr_to_quat_frozen_value():
    p = EulerPose(0, 0, 0, math.radians(30), math.radians(20), math.radians(90))
    assert np.abs(ypr_to_quat(p).q.vec - QUAT_30_20_90).max() < 1e-15


def test_ypr_to_matrix_frozen_value():
    p = EulerPose(0, 0, 0, math.radians(30), math.radians(20), math.radians(90))
    assert np.abs(ypr_to_matrix(p).mat[:3, :3] - ROT_30_20_90).max() < 1e-15


def test_matrix_bottom_row_exact():
    m = ypr_to_matrix(EulerPose(1, 2, 3, 0.5, -0.4, 0.3)).mat
    assert np.array_equal(m[3], [0.0, 0.0, 0.0, 1.0])


def test_round_trips_ypr_quat():
    rng = np.random.default_rng(20)
    for _ in range(1000):
        p = rand_euler(rng)
        back = quat_to_ypr(ypr_to_quat(p))
        assert abs(back.yaw - p.yaw) < 1e-9
        assert abs(back.pitch - p.pitch) < 1e-9
        assert abs(back.roll - p.roll) < 1e-9
        assert np.abs(np.array([back.x, back.y, back.z]) - [p.x, p.y, p.z]).max() < 1e-12


def test_round_trips_quat_ypr():
    rng = np.random.default_rng(21)
    for _ in range(1000):
        p = safe_quat_pose(rng)
        back = ypr_to_quat(quat_to_ypr(p))
        assert np.abs(back.q.vec - p.q.vec).max() < 1e-9


def test_round_trips_ypr_matrix():
    rng = np.random.default_rng(22)
    for _ in range(1000):
        p = rand_euler(rng)
        back = matrix_to_ypr(ypr_to_matrix(p))
        assert abs(back.yaw - p.yaw) < 1e-9
        assert abs(back.pitch - p.pitch) < 1e-9
        assert abs(back.roll - p.roll) < 1e-9


def test_round_trips_quat_matrix():
    rng = np.random.default_rng(23)
    for _ in range(1000):
        p = safe_quat_pose(rng)
        back = matrix_to_quat(quat_to_matrix(p))
        assert np.abs(back.q.vec - p.q.vec).max() < 1e-9


def test_matrix_to_quat_equals_angle_route():
    rng = np.random.default_rng(24)
    for _ in range(200):
        m = quat_to_matrix(safe_quat_pose(rng))
        via_angles = ypr_to_quat(matrix_to_ypr(m))
        assert np.abs(matrix_to_quat(m).q.vec - via_angles.q.vec).max() < 1e-9


@given(st.sampled_from([-1.0, 1.0]), st.floats(1e-12, 1e-5),
       st.floats(-3.1, 3.1), st.floats(-3.1, 3.1))
def test_matrix_to_quat_round_trip_near_gimbal(side, gap, yaw, roll):
    # an extraction through Euler angles loses ~1e-10 here; the
    # algebraic one keeps the rotation to rounding
    m = ypr_to_matrix(EulerPose(0.5, -1.0, 2.0, yaw, side * (0.5 * math.pi - gap), roll))
    assert np.abs(quat_to_matrix(matrix_to_quat(m)).mat - m.mat).max() < 1e-12


def test_quat_to_matrix_equals_angle_route():
    rng = np.random.default_rng(25)
    for _ in range(200):
        q = safe_quat_pose(rng)
        direct = quat_to_matrix(q).mat
        via = ypr_to_matrix(quat_to_ypr(q)).mat
        assert np.abs(direct - via).max() < 1e-9


def test_gimbal_up_branch():
    p = EulerPose(0, 0, 0, 0.7, math.pi / 2, 0.0)
    q = ypr_to_quat(p)
    delta = q.q.qr * q.q.qy - q.q.qx * q.q.qz
    assert abs(delta - 0.5) < 1e-12
    e = quat_to_ypr(q)
    assert e.pitch == pytest.approx(math.pi / 2, abs=1e-12)
    assert e.roll == 0.0
    # the representative reproduces the same rotation
    assert np.abs(ypr_to_matrix(e).mat - quat_to_matrix(q).mat).max() < 1e-9


def test_gimbal_down_branch():
    p = EulerPose(0, 0, 0, -0.4, -math.pi / 2, 0.0)
    q = ypr_to_quat(p)
    delta = q.q.qr * q.q.qy - q.q.qx * q.q.qz
    assert abs(delta + 0.5) < 1e-12
    e = quat_to_ypr(q)
    assert e.pitch == pytest.approx(-math.pi / 2, abs=1e-12)
    assert e.roll == 0.0
    assert np.abs(ypr_to_matrix(e).mat - quat_to_matrix(q).mat).max() < 1e-9


def test_gimbal_yaw_roll_coupling_collapses():
    # at pitch=+90, yaw and roll act along one combined axis: different
    # (yaw, roll) pairs with equal difference give the same rotation
    a = ypr_to_matrix(EulerPose(0, 0, 0, 0.9, math.pi / 2, 0.2)).mat
    b = ypr_to_matrix(EulerPose(0, 0, 0, 0.7, math.pi / 2, 0.0)).mat
    assert np.abs(a - b).max() < 1e-12


def test_matrix_to_ypr_near_gimbal_round_trip():
    # just inside the regular branch
    p = EulerPose(0, 0, 0, 0.3, math.pi / 2 - 1e-4, -0.8)
    back = matrix_to_ypr(ypr_to_matrix(p))
    assert abs(wrap_angle(back.yaw - p.yaw)) < 1e-6
    assert abs(back.pitch - p.pitch) < 1e-6
    assert abs(wrap_angle(back.roll - p.roll)) < 1e-6


# ---------------------------------------------------------------------------
# conversion Jacobians

def test_quat_normalize_scales_and_differentiates():
    q = _raw_quat(1.0, 1.0, 1.0, 1.0)
    u, jac = quat_normalize(q)
    assert np.abs(u.vec - 0.5).max() < 1e-15
    fd = numeric_jacobian(lambda v: v / np.linalg.norm(v), np.ones(4))
    assert np.abs(jac - fd).max() < 1e-7
    with pytest.raises(GeometryError):
        quat_normalize(_raw_quat(0.0, 0.0, 0.0, 0.0))


def test_ypr_to_quat_jacobian_matches_fd():
    rng = np.random.default_rng(26)
    for _ in range(25):
        p = rand_euler(rng)

        def f(v):
            return np.concatenate([v[:3], _quat_components_from_angles(v[3], v[4], v[5])])

        fd = numeric_jacobian(f, np.array([p.x, p.y, p.z, p.yaw, p.pitch, p.roll]))
        assert np.abs(jacobian_ypr_to_quat(p) - fd).max() < 1e-6


def test_quat_to_ypr_jacobian_matches_fd():
    rng = np.random.default_rng(27)
    for _ in range(25):
        p = safe_quat_pose(rng)

        def f(v):
            u = v[3:] / np.linalg.norm(v[3:])
            qq = QuatPose(v[0], v[1], v[2], Quaternion(u[0], u[1], u[2], u[3]))
            e = quat_to_ypr(qq)
            return np.array([e.x, e.y, e.z, e.yaw, e.pitch, e.roll])

        fd = numeric_jacobian(f, p.vec)
        assert np.abs(jacobian_quat_to_ypr(p) - fd).max() < 1e-5


def test_jacobian_chain_inverse_pair():
    # d(ypr->quat) chained with d(quat->ypr) recovers the identity up to
    # the double-cover sign: jacobian_ypr_to_quat differentiates the raw
    # half-angle map, while jacobian_quat_to_ypr is evaluated at the
    # canonical (qr >= 0) representative; when canonicalization flipped
    # the sign, the rotation block of the chain flips with it.
    rng = np.random.default_rng(28)
    seen_flip = False
    for _ in range(60):
        p = rand_euler(rng)
        raw_scalar = _quat_components_from_angles(p.yaw, p.pitch, p.roll)[0]
        s = -1.0 if raw_scalar < 0 else 1.0
        seen_flip = seen_flip or s < 0
        q = ypr_to_quat(p)
        expected = np.diag([1.0, 1.0, 1.0, s, s, s])
        j = jacobian_quat_to_ypr(q) @ jacobian_ypr_to_quat(p)
        assert np.abs(j - expected).max() < 1e-9
    assert seen_flip  # the sweep exercised both representatives


def test_flipped_mean_covariance_round_trip():
    # angles whose raw half-angle scalar is negative: the reported mean
    # quaternion is the flipped representative, and a covariance with
    # translation-rotation cross terms must survive the round trip
    p = EulerPose(0.5, -1.0, 2.0, -2.85, -0.5, -2.74)
    assert _quat_components_from_angles(p.yaw, p.pitch, p.roll)[0] < 0
    rng = np.random.default_rng(99)
    a = rng.normal(size=(6, 6)) * 1e-3
    cov = a @ a.T
    g = GaussianPose(p, cov)
    back = convert_gaussian(convert_gaussian(g, "quat"), "ypr")
    assert np.abs(back.cov - cov).max() < 1e-12


def test_half_turn_covariance_round_trip_through_matrix():
    # at a half turn qr is zero up to rounding, and the quaternion taken
    # from the matrix may have the opposite sign to the half-angle one the
    # Jacobian differentiates; the rows must follow the reported mean
    rng = np.random.default_rng(98)
    a = rng.normal(size=(6, 6)) * 1e-3
    cov = a @ a.T
    disagree = 0
    for _ in range(200):
        axis = rng.normal(size=3)
        m = HomPose.from_rt(so3_exp(math.pi * axis / np.linalg.norm(axis)), [0.5, -1.0, 2.0])
        p = matrix_to_ypr(m)
        if abs(p.pitch) > 1.4:
            continue
        mean = matrix_to_quat(ypr_to_matrix(p)).q.vec
        disagree += np.dot(_quat_components_from_angles(p.yaw, p.pitch, p.roll), mean) < 0
        g = convert_gaussian(GaussianPose(p, cov), "matrix")
        back = convert_gaussian(convert_gaussian(g, "quat"), "ypr")
        assert np.abs(back.cov - cov).max() < 1e-10
    assert disagree  # the sample reached the sign-ambiguous case


def test_matrix_jacobians_match_fd():
    rng = np.random.default_rng(29)
    p = rand_euler(rng)

    def to12(v):
        e = EulerPose(*v)
        return quat_to_matrix(ypr_to_quat(e)).mat[:3, :].flatten(order="F")

    fd = numeric_jacobian(to12, np.array([p.x, p.y, p.z, p.yaw, p.pitch, p.roll]))
    assert np.abs(jacobian_matrix_wrt_ypr(p) - fd).max() < 1e-6
    assert jacobian_ypr_wrt_matrix(ypr_to_matrix(p)).shape == (6, 12)
    assert jacobian_matrix_wrt_quat(ypr_to_quat(p)).shape == (12, 7)


def test_ypr_matrix_jacobian_chain_identity():
    rng = np.random.default_rng(30)
    for _ in range(25):
        p = rand_euler(rng)
        j = jacobian_ypr_wrt_matrix(ypr_to_matrix(p)) @ jacobian_matrix_wrt_ypr(p)
        assert np.abs(j - np.eye(6)).max() < 1e-8


# ---------------------------------------------------------------------------
# Gaussian conversion

def test_convert_gaussian_shapes_and_means():
    rng = np.random.default_rng(31)
    p = rand_euler(rng)
    g = GaussianPose(p, 1e-6 * np.eye(6))
    q = convert_gaussian(g, "quat")
    assert isinstance(q.mean, QuatPose) and q.cov.shape == (7, 7)
    m = convert_gaussian(g, "matrix")
    assert isinstance(m.mean, HomPose) and m.cov.shape == (12, 12)
    back = convert_gaussian(q, "ypr")
    assert isinstance(back.mean, EulerPose) and back.cov.shape == (6, 6)


def test_convert_gaussian_round_trip_covariance():
    rng = np.random.default_rng(32)
    p = rand_euler(rng)
    cov = 1e-6 * np.eye(6)
    back = convert_gaussian(convert_gaussian(GaussianPose(p, cov), "quat"), "ypr")
    assert np.abs(back.cov - cov).max() < 1e-12
    assert abs(back.mean.yaw - p.yaw) < 1e-9


def test_convert_gaussian_identity_target():
    p = EulerPose(0, 0, 0, 0.1, 0.2, 0.3)
    g = GaussianPose(p, 1e-6 * np.eye(6))
    same = convert_gaussian(g, "ypr")
    assert np.array_equal(same.cov, g.cov)


def test_convert_gaussian_symmetric_output():
    rng = np.random.default_rng(33)
    a = rng.normal(size=(6, 6)) * 1e-3
    cov = a @ a.T
    g = GaussianPose(rand_euler(rng), cov)
    out = convert_gaussian(g, "quat")
    assert np.abs(out.cov - out.cov.T).max() < 1e-18


@pytest.mark.parametrize("pivot", [np.eye(3), np.diag([1.0, -1.0, -1.0]),
                                   np.diag([-1.0, 1.0, -1.0]), np.diag([-1.0, -1.0, 1.0])])
def test_quat_from_rotation_rate_matches_fd_on_every_pivot(pivot):
    # near each pivot's own half turn (or the identity), with raw entries
    # perturbed off the rotation manifold, and both signs of the result
    rng = np.random.default_rng(35)
    for _ in range(10):
        r = pivot @ so3_exp(rng.uniform(-0.3, 0.3, 3)) + rng.normal(0.0, 1e-3, (3, 3))
        q, dq = _quat_from_rotation_rate(r)
        assert np.array_equal(q, _quat_from_rotation(r))
        fd = numeric_jacobian(lambda v: _quat_from_rotation(v.reshape((3, 3), order="F")),
                              r.flatten(order="F"))
        assert np.abs(dq - fd).max() < 1e-8


@pytest.mark.parametrize("gap", [1e-5, 1e-7, 0.0])
def test_convert_matrix_to_quat_at_gimbal_lock(gap):
    # the quaternion Jacobian differentiates the pivot extraction, not
    # the Euler chart, so it stays bounded at and near |pitch| = pi/2
    m = ypr_to_matrix(EulerPose(0.3, -0.2, 0.1, 0.4, math.pi / 2 - gap, -0.7))
    out = convert_gaussian(GaussianPose(m, 1e-6 * np.eye(12)), "quat")
    assert np.isfinite(out.cov).all() and np.abs(out.cov).max() < 1e-5
    # quat -> matrix -> quat returns the covariance projected onto the
    # unit sphere's tangent (the normalization Jacobian at a unit q)
    q = matrix_to_quat(m)
    a = np.random.default_rng(34).normal(size=(7, 7)) * 1e-3
    cov = a @ a.T
    back = convert_gaussian(convert_gaussian(GaussianPose(q, cov), "matrix"), "quat")
    proj = np.eye(7)
    proj[3:, 3:] -= np.outer(q.q.vec, q.q.vec)
    assert np.abs(back.mean.vec - q.vec).max() < 1e-15
    assert np.abs(back.cov - proj @ cov @ proj.T).max() < 1e-15


def test_convert_gaussian_rejects_unknown_target():
    g = GaussianPose(EulerPose(0, 0, 0, 0, 0, 0), np.eye(6))
    with pytest.raises(GeometryError):
        convert_gaussian(g, "sphere")


def test_gimbal_jacobian_raises():
    p = ypr_to_quat(EulerPose(0, 0, 0, 0.3, math.pi / 2, 0.0))
    with pytest.raises(SingularConfigurationError):
        jacobian_quat_to_ypr(p)
