"""Pose-point action, pose composition/inverse, covariance propagation."""
import math
import warnings

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from conftest import rand_euler, rand_quat_pose, safe_quat_pose
from rigidkit import (EulerPose, GaussianPoint3, GaussianPose, GeometryError,
                      HomPose, QuatPose, SingularConfigurationError,
                      compose_point_matrix, compose_point_quat,
                      compose_point_ypr, compose_pose_matrix,
                      compose_pose_quat, compose_pose_ypr, d_apply_wrt_pose,
                      d_invapply_wrt_pose, inv_compose_point_matrix,
                      inv_compose_point_quat, inverse_pose_matrix,
                      inverse_pose_quat, jacobian_matrix_wrt_quat,
                      jacobian_matrix_wrt_ypr, numeric_jacobian,
                      propagate_binary, quat_normalize, quat_to_matrix,
                      ypr_to_matrix, ypr_to_quat)
from rigidkit.core import Quaternion
from rigidkit.geometry import _compose_quat_vecs

# frozen oracle: independent matrix-route composition of two fixed poses
COMPOSE_A = EulerPose(1.0, -2.0, 0.5, 0.4, -0.3, 1.2)
COMPOSE_B = EulerPose(-0.3, 0.8, 2.0, -1.0, 0.5, 0.3)
COMPOSE_T = np.array([0.94882544485297993, -3.7307434460544053, 1.8160198664325806])
COMPOSE_YPR = np.array([0.64807029741228017, 0.752373817537898, 1.8418444244358285])


# ---------------------------------------------------------------------------
# pose (+) point

def test_point_action_matches_matrix_route():
    rng = np.random.default_rng(0)
    for _ in range(100):
        p = rand_quat_pose(rng)
        a = rng.uniform(-3, 3, 3)
        value, _, _ = compose_point_quat(p, a)
        expected = (quat_to_matrix(p).mat @ np.append(a, 1.0))[:3]
        assert np.abs(value - expected).max() < 1e-12


def test_point_action_euler_matches_quat_route():
    rng = np.random.default_rng(1)
    for _ in range(100):
        p = rand_euler(rng)
        a = rng.uniform(-3, 3, 3)
        ve, _, _ = compose_point_ypr(p, a)
        vq, _, _ = compose_point_quat(ypr_to_quat(p), a)
        assert np.abs(ve - vq).max() < 1e-10


def test_point_action_matrix_form():
    rng = np.random.default_rng(2)
    p = rand_euler(rng)
    a = rng.uniform(-3, 3, 3)
    m = ypr_to_matrix(p)
    ve, _, _ = compose_point_ypr(p, a)
    assert np.abs(compose_point_matrix(m, a) - ve).max() < 1e-12


def test_point_action_jacobians_match_fd():
    rng = np.random.default_rng(3)
    for _ in range(20):
        p = rand_quat_pose(rng)
        a = rng.uniform(-2, 2, 3)
        _, j_pose, j_point = compose_point_quat(p, a)

        def f_pose(v):
            u = v[3:] / np.linalg.norm(v[3:])
            from rigidkit.core import _rotation_from_unit_quat
            return v[:3] + _rotation_from_unit_quat(*u) @ a

        assert np.abs(j_pose - numeric_jacobian(f_pose, p.vec)).max() < 1e-6
        fd_point = numeric_jacobian(lambda x: compose_point_quat(p, x)[0], a)
        assert np.abs(j_point - fd_point).max() < 1e-6


def test_inverse_point_action_identities():
    # p (+) (a (-) p) == a   and   (inverse p) (+) a == a (-) p
    rng = np.random.default_rng(4)
    for _ in range(1000):
        p = rand_quat_pose(rng)
        a = rng.uniform(-3, 3, 3)
        rel, _, _ = inv_compose_point_quat(a, p)
        back, _, _ = compose_point_quat(p, rel)
        assert np.abs(back - a).max() < 1e-12
        pinv, _ = inverse_pose_quat(p)
        via_inverse, _, _ = compose_point_quat(pinv, a)
        assert np.abs(via_inverse - rel).max() < 1e-12


def test_inverse_point_action_matrix_route():
    rng = np.random.default_rng(5)
    p = rand_quat_pose(rng)
    a = rng.uniform(-3, 3, 3)
    rel, _, _ = inv_compose_point_quat(a, p)
    assert np.abs(inv_compose_point_matrix(a, quat_to_matrix(p)) - rel).max() < 1e-12


def test_inverse_point_jacobians_match_fd():
    rng = np.random.default_rng(6)
    for _ in range(20):
        p = rand_quat_pose(rng)
        a = rng.uniform(-2, 2, 3)
        _, j_pose, j_point = inv_compose_point_quat(a, p)

        def f_pose(v):
            u = v[3:] / np.linalg.norm(v[3:])
            from rigidkit.core import _rotation_from_unit_quat
            return _rotation_from_unit_quat(*u).T @ (a - v[:3])

        assert np.abs(j_pose - numeric_jacobian(f_pose, p.vec)).max() < 1e-6
        fd_point = numeric_jacobian(lambda x: inv_compose_point_quat(x, p)[0], a)
        assert np.abs(j_point - fd_point).max() < 1e-6


@given(st.integers(0, 500))
def test_point_round_trip_property(seed):
    rng = np.random.default_rng(seed)
    p = rand_quat_pose(rng)
    a = rng.uniform(-5, 5, 3)
    moved, _, _ = compose_point_quat(p, a)
    back, _, _ = inv_compose_point_quat(moved, p)
    assert np.abs(back - a).max() < 1e-11


# ---------------------------------------------------------------------------
# pose (+) pose, inverse

# ---------------------------------------------------------------------------
# pose Jacobians against the public matrix-view chain
#   d(pose action)/dp = d(action)/d vec12(M) @ d vec12(M)/dp

_coord = st.floats(-5.0, 5.0)
_vec3 = st.tuples(_coord, _coord, _coord).map(np.array)
_raw_quat = (st.tuples(*[st.floats(-2.0, 2.0)] * 4).map(np.array)
             .filter(lambda q: np.linalg.norm(q) > 0.1))
_angle = st.floats(-3.1, 3.1)


def _unit_pose(t, q):
    u = q / np.linalg.norm(q)
    return QuatPose(t[0], t[1], t[2], Quaternion(*u))


@given(_vec3, _raw_quat, _vec3)
def test_quat_point_jacobians_match_matrix_chain(t, q, a):
    p = _unit_pose(t, q)
    dm = jacobian_matrix_wrt_quat(p)
    _, jac, _ = compose_point_quat(p, a)
    assert np.abs(jac - d_apply_wrt_pose(a) @ dm).max() < 1e-12
    m = quat_to_matrix(p).mat
    _, jac, _ = inv_compose_point_quat(a, p)
    assert np.abs(jac - d_invapply_wrt_pose(m, a) @ dm).max() < 1e-12
    _, jac = inverse_pose_quat(p)
    assert np.abs(jac[:3] - d_invapply_wrt_pose(m, np.zeros(3)) @ dm).max() < 1e-12


@given(_vec3, _angle, st.floats(-1.5, 1.5), _angle, _vec3)
def test_ypr_point_jacobian_matches_matrix_chain(t, yaw, pitch, roll, a):
    p = EulerPose(t[0], t[1], t[2], yaw, pitch, roll)
    _, jac, _ = compose_point_ypr(p, a)
    assert np.abs(jac - d_apply_wrt_pose(a) @ jacobian_matrix_wrt_ypr(p)).max() < 1e-12


@given(_vec3, _raw_quat, _vec3, _raw_quat)
def test_compose_translation_rows_match_matrix_chain(t1, q1, t2, q2):
    p1, p2 = _unit_pose(t1, q1), _unit_pose(t2, q2)
    _, j1, _ = compose_pose_quat(p1, p2)
    chain = d_apply_wrt_pose(t2) @ jacobian_matrix_wrt_quat(p1)
    assert np.abs(j1[:3] - chain).max() < 1e-12

    # raw, unnormalized operand: chain the normalization at q1 itself;
    # vec(R) is even in q, so its derivative is odd and follows the sign
    # of the raw representative against the canonical one of p1
    _, j1, _ = _compose_quat_vecs(np.concatenate([t1, q1]), p2.vec)
    _, jn = quat_normalize(Quaternion(*q1))
    sign = 1.0 if q1[0] >= 0.0 else -1.0
    chain[:, 3:] = sign * chain[:, 3:] @ jn
    assert np.abs(j1[:3] - chain).max() < 1e-12


def test_compose_frozen_value():
    c, _, _ = compose_pose_ypr(COMPOSE_A, COMPOSE_B)
    assert np.abs(np.array([c.x, c.y, c.z]) - COMPOSE_T).max() < 1e-12
    assert np.abs(np.array([c.yaw, c.pitch, c.roll]) - COMPOSE_YPR).max() < 1e-12


def test_compose_quat_matches_matrix_route():
    rng = np.random.default_rng(7)
    for _ in range(100):
        p1, p2 = rand_quat_pose(rng), rand_quat_pose(rng)
        c, _, _ = compose_pose_quat(p1, p2)
        expected = quat_to_matrix(p1).mat @ quat_to_matrix(p2).mat
        assert np.abs(quat_to_matrix(c).mat - expected).max() < 1e-12


def test_compose_matrix_form():
    rng = np.random.default_rng(8)
    m1, m2 = quat_to_matrix(rand_quat_pose(rng)), quat_to_matrix(rand_quat_pose(rng))
    c = compose_pose_matrix(m1, m2)
    assert isinstance(c, HomPose)
    assert np.abs(c.mat - m1.mat @ m2.mat).max() < 1e-13


def test_compose_identity_neutral():
    rng = np.random.default_rng(9)
    p = rand_quat_pose(rng)
    ident = QuatPose(0, 0, 0, Quaternion(1, 0, 0, 0))
    left, _, _ = compose_pose_quat(ident, p)
    right, _, _ = compose_pose_quat(p, ident)
    assert np.abs(left.vec - p.vec).max() < 1e-15
    assert np.abs(right.vec - p.vec).max() < 1e-15


def test_compose_associative():
    rng = np.random.default_rng(10)
    for _ in range(50):
        a, b, c = (rand_quat_pose(rng) for _ in range(3))
        ab, _, _ = compose_pose_quat(a, b)
        ab_c, _, _ = compose_pose_quat(ab, c)
        bc, _, _ = compose_pose_quat(b, c)
        a_bc, _, _ = compose_pose_quat(a, bc)
        assert np.abs(ab_c.vec - a_bc.vec).max() < 1e-12


def test_compose_euler_gimbal_raises():
    a = EulerPose(0, 0, 0, 0.0, math.radians(50), 0.0)
    b = EulerPose(0, 0, 0, 0.0, math.radians(40), 0.0)
    with pytest.raises(SingularConfigurationError):
        compose_pose_ypr(a, b)


def test_inverse_pose_round_trip():
    rng = np.random.default_rng(11)
    for _ in range(200):
        p = rand_quat_pose(rng)
        inv, _ = inverse_pose_quat(p)
        ident, _, _ = compose_pose_quat(p, inv)
        assert np.abs(ident.vec - [0, 0, 0, 1, 0, 0, 0]).max() < 1e-13
        double, _ = inverse_pose_quat(inv)
        assert np.abs(double.vec - p.vec).max() < 1e-13


def test_inverse_pose_jacobian_matches_fd():
    rng = np.random.default_rng(12)
    for _ in range(20):
        p = rand_quat_pose(rng)
        _, jac = inverse_pose_quat(p)

        def f(v):
            u = v[3:] / np.linalg.norm(v[3:])
            from rigidkit.core import _rotation_from_unit_quat
            t = -(_rotation_from_unit_quat(*u).T @ v[:3])
            return np.concatenate([t, [u[0], -u[1], -u[2], -u[3]]])

        assert np.abs(jac - numeric_jacobian(f, p.vec)).max() < 1e-6


def test_inverse_pose_matrix():
    rng = np.random.default_rng(13)
    m = quat_to_matrix(rand_quat_pose(rng))
    inv = inverse_pose_matrix(m)
    assert np.abs(inv.mat - np.linalg.inv(m.mat)).max() < 1e-12


# ---------------------------------------------------------------------------
# Gaussian propagation

def test_propagate_compose_formula():
    rng = np.random.default_rng(14)
    p1, p2 = rand_quat_pose(rng), rand_quat_pose(rng)
    s1 = np.diag(rng.uniform(0.5, 2.0, 7)) * 1e-6
    s2 = np.diag(rng.uniform(0.5, 2.0, 7)) * 1e-6
    out = propagate_binary("compose", GaussianPose(p1, s1), GaussianPose(p2, s2))
    mean, j1, j2 = compose_pose_quat(p1, p2)
    expected = j1 @ s1 @ j1.T + j2 @ s2 @ j2.T
    assert np.abs(out.cov - expected).max() < 1e-18
    assert np.abs(out.mean.vec - mean.vec).max() == 0.0


def test_propagate_apply_point():
    rng = np.random.default_rng(15)
    p = rand_quat_pose(rng)
    a = rng.uniform(-2, 2, 3)
    sp = 1e-6 * np.eye(7)
    sa = 1e-6 * np.eye(3)
    out = propagate_binary("apply-point", GaussianPose(p, sp), GaussianPoint3(a, sa))
    assert isinstance(out, GaussianPoint3)
    value, jp, ja = compose_point_quat(p, a)
    assert np.abs(out.mean - value).max() == 0.0
    assert np.abs(out.cov - (jp @ sp @ jp.T + ja @ sa @ ja.T)).max() < 1e-18


def test_propagate_inv_apply_point():
    rng = np.random.default_rng(16)
    p = rand_quat_pose(rng)
    a = rng.uniform(-2, 2, 3)
    out = propagate_binary("inv-apply-point",
                           GaussianPose(p, 1e-6 * np.eye(7)),
                           GaussianPoint3(a, 1e-6 * np.eye(3)))
    value, _, _ = inv_compose_point_quat(a, p)
    assert np.abs(out.mean - value).max() == 0.0
    assert out.cov.shape == (3, 3)


def test_propagate_rejects_bad_inputs():
    g = GaussianPose(EulerPose(0, 0, 0, 0, 0, 0), np.eye(6))
    q = GaussianPose(ypr_to_quat(EulerPose(0, 0, 0, 0, 0, 0)), np.eye(7))
    pt = GaussianPoint3(np.zeros(3), np.eye(3))
    with pytest.raises(GeometryError):
        propagate_binary("compose", g, q)  # mixed kinds
    with pytest.raises(GeometryError):
        propagate_binary("compose", g, pt)  # point where pose expected
    with pytest.raises(GeometryError):
        propagate_binary("apply-point", g, q)  # pose where point expected
    with pytest.raises(GeometryError):
        propagate_binary("shear", g, g)  # unknown op


def test_point_must_be_finite():
    pose = HomPose(np.eye(4))
    bad = np.array([1.0, np.nan, 3.0])
    with pytest.raises(GeometryError, match="finite 3-vector"):
        compose_point_matrix(pose, bad)
    with pytest.raises(GeometryError, match="finite 3-vector"):
        inv_compose_point_matrix(np.array([np.inf, 0.0, 0.0]), pose)


def test_gaussian_point_validation():
    GaussianPoint3(np.zeros(3), np.eye(3))
    with pytest.raises(GeometryError):
        GaussianPoint3(np.zeros(2), np.eye(3))
    with pytest.raises(GeometryError):
        GaussianPoint3(np.zeros(3), np.eye(4))


def test_gaussian_point_covariance_overflow_rejected():
    cov = np.eye(3)
    cov[0, 0] = cov[1, 1] = 1.7e308
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(GeometryError, match="GaussianPoint3: covariance is too large"):
            GaussianPoint3(np.zeros(3), cov)


def test_small_rotation_jacobian_is_genuinely_approximate():
    # tight at micro-rotations, visibly wrong at half a radian
    from rigidkit import jacob_AexpeDp_de, se3_pseudo_exp
    rng = np.random.default_rng(17)

    def sample(angle):
        w = rng.normal(size=3)
        w *= angle / np.linalg.norm(w)
        return HomPose(se3_pseudo_exp(np.concatenate([rng.uniform(-2, 2, 3), w])).mat)

    tight, loose = 0.0, 0.0
    for _ in range(30):
        a, d = sample(1e-5), sample(1e-5)
        p = rng.uniform(-2, 2, 3)
        tight = max(tight, np.abs(jacob_AexpeDp_de(a, d, p, approx=True)
                                  - jacob_AexpeDp_de(a, d, p)).max())
        a, d = sample(0.5), sample(0.5)
        loose = max(loose, np.abs(jacob_AexpeDp_de(a, d, p, approx=True)
                                  - jacob_AexpeDp_de(a, d, p)).max())
    assert tight < 1e-4
    assert loose > 0.05
