"""Tangent-increment Jacobians and pose-graph edge derivatives."""
import math

import numpy as np
import pytest

from conftest import rand_hompose, rand_rotvec
from rigidkit import (EdgeErrorSE2, EdgeErrorSE3, HomPose, HomPose2,
                      d_apply_wrt_pose, d_compose_se2_wrt_A, d_compose_se2_wrt_B,
                      d_compose_wrt_A, d_compose_wrt_B, d_invapply_wrt_pose,
                      dexp_se3_at_zero, dexp_so3_at_zero, dexp_so3_quat, dlog_so3,
                      dpseudolog_se3, edge_error_se2, edge_error_se3, hat3,
                      jacob_AexpeD_de, jacob_AexpeDp_de, jacob_Dexpe_de,
                      jacob_Dexpe_de_se2, jacob_expeD_de, jacob_expeDp_de,
                      jacob_p_ominus_AexpeD_de, jacob_p_ominus_expeD_de,
                      manifold_numeric_jacobian, numeric_jacobian, pose_to_vec12,
                      se2_exp, se2_pseudo_exp, se3_pseudo_exp, se3_pseudo_log,
                      so3_exp)
from rigidkit import numcheck
from rigidkit.core import _quat_from_rotation
from rigidkit.matderiv import d_inverse_wrt_pose, inverse_rt, transpose_permutation
from rigidkit.lie import _log_quat

DLOG_FLAT = np.array([
    [0.0, 0.0, 0.0, 0.0, 0.0, 0.5, 0.0, -0.5, 0.0],
    [0.0, 0.0, -0.5, 0.0, 0.0, 0.0, 0.5, 0.0, 0.0],
    [0.0, 0.5, 0.0, -0.5, 0.0, 0.0, 0.0, 0.0, 0.0],
])


# ---------------------------------------------------------------------------
# derivatives of the exponential at zero

def test_dexp_so3_at_zero_structure():
    j = dexp_so3_at_zero()
    assert j.shape == (9, 3)
    for i in range(3):
        e = np.zeros(3)
        e[i] = 1.0
        # block-row i of the vec layout is the i-th rotation column
        assert np.array_equal(j[3 * i:3 * i + 3, :], -hat3(e))


def test_dexp_so3_at_zero_matches_fd():
    fd = numeric_jacobian(lambda w: so3_exp(w).flatten(order="F"), np.zeros(3))
    assert np.abs(dexp_so3_at_zero() - fd).max() < 1e-10


def test_dexp_se3_at_zero_matches_fd():
    fd = numeric_jacobian(
        lambda v: pose_to_vec12(se3_pseudo_exp(v).mat), np.zeros(6))
    j = dexp_se3_at_zero()
    assert j.shape == (12, 6)
    assert np.abs(j - fd).max() < 1e-10


def test_dexp_quat_at_zero_structure():
    j = dexp_so3_quat(np.zeros(3))
    assert j.shape == (4, 3)
    assert np.array_equal(j[0], np.zeros(3))
    assert np.abs(j[1:] - 0.5 * np.eye(3)).max() < 1e-15


def test_dexp_quat_matches_fd():
    from rigidkit import so3_exp_quat
    rng = np.random.default_rng(0)
    for _ in range(30):
        w = rand_rotvec(rng, lo=1e-3, hi=3.0)
        fd = numeric_jacobian(lambda v: so3_exp_quat(v).vec, w)
        assert np.abs(dexp_so3_quat(w) - fd).max() < 1e-6


def test_dexp_quat_taylor_band_continuity():
    # values just inside and outside the series switch agree closely
    for theta in (9.9e-5, 1.01e-4):
        w = np.array([theta, 0.0, 0.0])
        j = dexp_so3_quat(w)
        assert np.abs(j[1:, :] - 0.5 * np.eye(3)).max() < 1e-8


# ---------------------------------------------------------------------------
# derivative of the SO(3) logarithm

def _log_off_manifold(r):
    # so3_log's formula without its rigidity test: finite-difference steps
    # leave the rotation manifold, where dlog_so3 is defined too
    return _log_quat(_quat_from_rotation(r))


def test_dlog_matches_fd_generic():
    rng = np.random.default_rng(1)
    for _ in range(50):
        r = so3_exp(rand_rotvec(rng, lo=0.05, hi=2.8))
        fd = numeric_jacobian(lambda v: _log_off_manifold(v.reshape((3, 3), order="F")),
                              r.flatten(order="F"))
        assert np.abs(dlog_so3(r) - fd).max() < 1e-6


def _dlog_fd(r):
    return numeric_jacobian(lambda v: _log_off_manifold(v.reshape((3, 3), order="F")),
                            r.flatten(order="F"))


def test_dlog_small_angle_flat_form():
    # the constant skew-extraction pattern is the derivative at the
    # identity only; a tiny rotation already differs from it by ~theta/4
    assert np.array_equal(dlog_so3(np.eye(3)), DLOG_FLAT)
    r = so3_exp(np.array([1e-5, -2e-5, 1.5e-5]))
    assert np.abs(dlog_so3(r) - _dlog_fd(r)).max() < 1e-9


def test_dlog_flat_form_first_order_accuracy():
    # small angles, where a constant pattern was once used, get the exact
    # derivative: central differences agree to their own error
    rng = np.random.default_rng(41)
    for theta in (1e-6, 1e-4, 1e-3, 1e-2):
        for _ in range(5):
            r = so3_exp(theta * rand_rotvec(rng, lo=1.0, hi=1.0))
            assert np.abs(dlog_so3(r) - _dlog_fd(r)).max() < 1e-9


def test_dpseudolog_structure_and_fd():
    rng = np.random.default_rng(2)
    m = rand_hompose(rng)
    j = dpseudolog_se3(m)
    assert j.shape == (6, 12)
    # translation coordinates read the translation entries directly
    assert np.array_equal(j[:3, 9:], np.eye(3))
    assert np.array_equal(j[:3, :9], np.zeros((3, 9)))
    assert np.array_equal(j[3:, 9:], np.zeros((3, 3)))
    fd = numeric_jacobian(_pseudo_log_of_vec12, pose_to_vec12(m.mat))
    assert np.abs(j - fd).max() < 1e-6


def _pseudo_log_of_vec12(v):
    # same map as the validated pose logarithm, but tolerant of the tiny
    # orthonormality violations introduced by finite-difference steps
    return np.concatenate([v[9:], _log_off_manifold(v[:9].reshape((3, 3), order="F"))])


# ---------------------------------------------------------------------------
# increment Jacobians: chain-rule consistency

def test_left_increment_equals_compose_chain():
    rng = np.random.default_rng(3)
    for _ in range(20):
        d = rand_hompose(rng)
        chain = d_compose_wrt_A(d.mat) @ dexp_se3_at_zero()
        assert np.abs(jacob_expeD_de(d) - chain).max() < 1e-13


def test_right_increment_equals_compose_chain():
    rng = np.random.default_rng(4)
    for _ in range(20):
        d = rand_hompose(rng)
        chain = d_compose_wrt_B(d.mat) @ dexp_se3_at_zero()
        assert np.abs(jacob_Dexpe_de(d) - chain).max() < 1e-13


def test_sandwich_increment_two_route_equality():
    rng = np.random.default_rng(5)
    for _ in range(20):
        a, d = rand_hompose(rng), rand_hompose(rng)
        route1 = d_compose_wrt_A(d.mat) @ jacob_Dexpe_de(a)
        route2 = d_compose_wrt_B(a.mat) @ jacob_expeD_de(d)
        j = jacob_AexpeD_de(a, d)
        assert np.abs(j - route1).max() < 1e-12
        assert np.abs(j - route2).max() < 1e-12
        # the documented definition, which the block product computes
        assert np.abs(j - np.kron(np.eye(4), a.mat[:3, :3]) @ jacob_expeD_de(d)).max() <= 1e-14


def _close(x, ref):
    return np.abs(x - ref).max() <= 1e-14 * np.abs(ref).max()


@pytest.mark.parametrize("seed", [1, 7])
def test_block_products_equal_their_former_definitions(seed):
    """The Jacobians that multiply 3x3 blocks equal the chains of whole
    matrices they replace, and the matderiv Jacobians equal the kron and
    transpose_permutation forms of their docstrings, at the catalog's
    configurations."""
    def drawn(unit):
        return numcheck._configurations(unit, seed, 100)[1]

    eye3 = np.eye(3)
    for d, p1, p2 in drawn("manifold.edge_error_se3.j1"):
        out = edge_error_se3(d, p1, p2)
        d_inv = inverse_rt(d.mat)
        b = inverse_rt(p1.mat) @ p2.mat
        dlog = dpseudolog_se3(d_inv @ b)
        assert _close(out.jac1, dlog @ d_compose_wrt_A(b) @ -jacob_Dexpe_de(d_inv))
        assert _close(out.jac2, dlog @ jacob_Dexpe_de(d_inv @ b))
    for a, d, p in drawn("manifold.jacob_p_ominus_AexpeD_de"):
        chain = d_invapply_wrt_pose(a.mat @ d.mat, p) @ jacob_AexpeD_de(a, d)
        assert _close(jacob_p_ominus_AexpeD_de(a, d, p), chain)
        assert _close(jacob_Dexpe_de(d), np.kron(np.eye(4), d.mat[:3, :3]) @ dexp_se3_at_zero())
        assert _close(jacob_expeD_de(d), np.kron(d.mat.T, eye3) @ dexp_se3_at_zero())
    for a, p in drawn("matderiv.d_invapply_wrt_pose"):
        m, r, t = a.mat, a.mat[:3, :3], a.mat[:3, 3]
        assert np.array_equal(d_compose_wrt_A(m), np.kron(m.T, eye3))
        assert np.array_equal(d_compose_wrt_B(m), np.kron(np.eye(4), r))
        assert np.array_equal(d_apply_wrt_pose(p), np.kron(np.append(p, 1.0)[None], eye3))
        assert np.array_equal(d_invapply_wrt_pose(m, p),
                              np.hstack([np.kron(eye3, (p - t)[None]), -r.T]))
        assert np.array_equal(d_inverse_wrt_pose(m), np.block([
            [transpose_permutation(3, 3), np.zeros((9, 3))], [np.kron(eye3, -t[None]), -r.T]]))


def test_point_increment_chains():
    rng = np.random.default_rng(6)
    for _ in range(20):
        a, d = rand_hompose(rng), rand_hompose(rng)
        p = rng.uniform(-2, 2, 3)
        assert np.abs(jacob_expeDp_de(d, p)
                      - d_apply_wrt_pose(p) @ jacob_expeD_de(d)).max() < 1e-12
        assert np.abs(jacob_p_ominus_expeD_de(d, p)
                      - d_invapply_wrt_pose(d.mat, p) @ jacob_expeD_de(d)).max() < 1e-12
        assert np.abs(jacob_AexpeDp_de(a, d, p)
                      - d_apply_wrt_pose(p) @ jacob_AexpeD_de(a, d)).max() < 1e-12
        ad = a.mat @ d.mat
        assert np.abs(jacob_p_ominus_AexpeD_de(a, d, p)
                      - d_invapply_wrt_pose(ad, p) @ jacob_AexpeD_de(a, d)).max() < 1e-12


def test_p_ominus_rotation_rows_are_cross_products():
    # row j of the rotation block is (column j of R_D) x p
    rng = np.random.default_rng(16)
    for _ in range(200):
        d, p = rand_hompose(rng), rng.uniform(-3, 3, 3)
        r = d.mat[:3, :3]
        want = np.hstack([-r.T, np.vstack([np.cross(r[:, j], p) for j in range(3)])])
        assert np.abs(jacob_p_ominus_expeD_de(d, p) - want).max() < 1e-14


def test_left_increment_fd_on_manifold():
    rng = np.random.default_rng(7)
    d = rand_hompose(rng)
    fd = manifold_numeric_jacobian(
        lambda m: pose_to_vec12(m), d.mat, side="left")
    assert np.abs(jacob_expeD_de(d) - fd).max() < 1e-6
    fd_r = manifold_numeric_jacobian(
        lambda m: pose_to_vec12(m), d.mat, side="right")
    assert np.abs(jacob_Dexpe_de(d) - fd_r).max() < 1e-6


def test_approximate_point_increment_form():
    rng = np.random.default_rng(8)
    a, d = rand_hompose(rng), rand_hompose(rng)
    p = rng.uniform(-2, 2, 3)
    approx = jacob_AexpeDp_de(a, d, p, approx=True)
    expected = np.hstack([np.eye(3), -hat3(p + d.mat[:3, 3])])
    assert np.array_equal(approx, expected)


def test_increment_jacobian_shapes():
    rng = np.random.default_rng(9)
    a, d = rand_hompose(rng), rand_hompose(rng)
    p = np.zeros(3)
    assert jacob_expeD_de(d).shape == (12, 6)
    assert jacob_Dexpe_de(d).shape == (12, 6)
    assert jacob_AexpeD_de(a, d).shape == (12, 6)
    assert jacob_expeDp_de(d, p).shape == (3, 6)
    assert jacob_p_ominus_expeD_de(d, p).shape == (3, 6)
    assert jacob_AexpeDp_de(a, d, p).shape == (3, 6)
    assert jacob_p_ominus_AexpeD_de(a, d, p).shape == (3, 6)


# ---------------------------------------------------------------------------
# graph edge errors

def _edge_setup(rng, scale=0.15):
    p1 = rand_hompose(rng)
    p2 = rand_hompose(rng)
    b = HomPose(np.linalg.inv(p1.mat) @ p2.mat)
    eps = np.concatenate([rng.uniform(-0.3, 0.3, 3),
                          rand_rotvec(rng, lo=0.02, hi=scale)])
    d = HomPose(b.mat @ se3_pseudo_exp(eps).mat)
    return d, p1, p2


def test_edge_error_value():
    rng = np.random.default_rng(10)
    for _ in range(20):
        d, p1, p2 = _edge_setup(rng)
        out = edge_error_se3(d, p1, p2)
        expected = se3_pseudo_log(
            HomPose(np.linalg.inv(d.mat) @ np.linalg.inv(p1.mat) @ p2.mat))
        assert np.abs(out.error - expected).max() < 1e-12
        assert isinstance(out, EdgeErrorSE3)


def test_edge_error_zero_at_consistent_measurement():
    rng = np.random.default_rng(11)
    p1, p2 = rand_hompose(rng), rand_hompose(rng)
    d = HomPose(np.linalg.inv(p1.mat) @ p2.mat)
    out = edge_error_se3(d, p1, p2)
    assert np.abs(out.error).max() < 1e-12


def test_edge_error_jacobians_match_manifold_fd():
    rng = np.random.default_rng(12)
    for _ in range(10):
        d, p1, p2 = _edge_setup(rng)
        out = edge_error_se3(d, p1, p2)
        fd1 = manifold_numeric_jacobian(
            lambda m: edge_error_se3(d, HomPose(m), p2).error, p1.mat, side="right")
        fd2 = manifold_numeric_jacobian(
            lambda m: edge_error_se3(d, p1, HomPose(m)).error, p2.mat, side="right")
        assert np.abs(out.jac1 - fd1).max() < 1e-5
        assert np.abs(out.jac2 - fd2).max() < 1e-5


def test_edge_error_near_half_turn_matches_jr_inverse():
    # a residual 1e-9 short of a half turn: finite error and Jacobians,
    # jac2's rotation block the right-Jacobian inverse (whose hat(w)^2
    # coefficient is 1/pi^2 at pi), jac1's block -J_r^-1 R_B^T
    w = np.array([math.pi - 1e-9, 0.0, 0.0])
    p1 = HomPose.from_rt(so3_exp(np.array([0.3, -0.2, 0.5])), np.array([1.0, 2.0, 3.0]))
    p2 = HomPose(p1.mat @ HomPose.from_rt(so3_exp(w), np.zeros(3)).mat)
    out = edge_error_se3(HomPose(np.eye(4)), p1, p2)
    k = hat3(w)
    jr_inv = np.eye(3) + 0.5 * k + (1.0 / math.pi ** 2) * (k @ k)
    assert np.abs(out.error[3:] - w).max() < 1e-12
    assert np.abs(out.jac2[3:, 3:] - jr_inv).max() < 1e-8
    rb = so3_exp(w)
    assert np.abs(out.jac1[3:, 3:] + jr_inv @ rb.T).max() < 1e-8


def test_edge_error_frozen():
    rng = np.random.default_rng(13)
    d, p1, p2 = _edge_setup(rng)
    out = edge_error_se3(d, p1, p2)
    with pytest.raises(Exception):
        out.error = np.zeros(6)


# ---------------------------------------------------------------------------
# SE(2) counterparts

def _se2_pose(rng):
    return se2_exp(np.array([rng.uniform(-3, 3), rng.uniform(-3, 3),
                             rng.uniform(-2.5, 2.5)]))


def test_se2_compose_partials_match_fd():
    rng = np.random.default_rng(14)
    for _ in range(20):
        a, b = _se2_pose(rng), _se2_pose(rng)

        def params(m):
            return np.array([m.mat[0, 2], m.mat[1, 2], m.angle])

        def compose_wrt_a(v):
            ma = se2_pseudo_exp(v)
            c = ma.mat @ b.mat
            return np.array([c[0, 2], c[1, 2], math.atan2(c[1, 0], c[0, 0])])

        def compose_wrt_b(v):
            mb = se2_pseudo_exp(v)
            c = a.mat @ mb.mat
            return np.array([c[0, 2], c[1, 2], math.atan2(c[1, 0], c[0, 0])])

        fd_a = numeric_jacobian(compose_wrt_a, params(a))
        fd_b = numeric_jacobian(compose_wrt_b, params(b))
        assert np.abs(d_compose_se2_wrt_A(a, b) - fd_a).max() < 1e-6
        assert np.abs(d_compose_se2_wrt_B(a) - fd_b).max() < 1e-6


def test_se2_right_increment_matches_fd():
    rng = np.random.default_rng(15)
    d = _se2_pose(rng)
    fd = manifold_numeric_jacobian(
        lambda m: np.array([m[0, 2], m[1, 2], math.atan2(m[1, 0], m[0, 0])]),
        d.mat, side="right")
    assert np.abs(jacob_Dexpe_de_se2(d) - fd).max() < 1e-6


def test_se2_edge_error_value_and_jacobians():
    rng = np.random.default_rng(16)
    for _ in range(10):
        p1, p2 = _se2_pose(rng), _se2_pose(rng)
        b = HomPose2(np.linalg.inv(p1.mat) @ p2.mat)
        eps = np.array([rng.uniform(-0.3, 0.3), rng.uniform(-0.3, 0.3),
                        rng.uniform(-0.2, 0.2)])
        d = HomPose2(b.mat @ se2_pseudo_exp(eps).mat)
        out = edge_error_se2(d, p1, p2)
        assert isinstance(out, EdgeErrorSE2)
        t = np.linalg.inv(d.mat) @ np.linalg.inv(p1.mat) @ p2.mat
        expected = np.array([t[0, 2], t[1, 2], math.atan2(t[1, 0], t[0, 0])])
        assert np.abs(out.error - expected).max() < 1e-12
        fd1 = manifold_numeric_jacobian(
            lambda m: edge_error_se2(d, HomPose2(m), p2).error, p1.mat, side="right")
        fd2 = manifold_numeric_jacobian(
            lambda m: edge_error_se2(d, p1, HomPose2(m)).error, p2.mat, side="right")
        assert np.abs(out.jac1 - fd1).max() < 1e-6
        assert np.abs(out.jac2 - fd2).max() < 1e-6
