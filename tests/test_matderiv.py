"""Vec/Kronecker calculus and 12-vector pose derivatives."""
import numpy as np
import pytest

from conftest import rand_hompose
from rigidkit import (GeometryError, HomPose2, apply_vec12, d_apply_wrt_point,
                      d_apply_wrt_pose, d_compose_wrt_A, d_compose_wrt_B, d_invapply_wrt_point,
                      d_invapply_wrt_pose, d_inverse_wrt_pose, hat3,
                      inverse_rt, kron, numeric_jacobian, pose_to_vec12,
                      transpose_permutation, unvec, vec, vec12_to_pose, vee3)
from rigidkit.matderiv import _row_norms


def test_vec_stacks_columns():
    a = np.array([[1.0, 2.0], [3.0, 4.0]])
    assert np.array_equal(vec(a), [1.0, 3.0, 2.0, 4.0])


def test_vec_unvec_round_trip():
    rng = np.random.default_rng(0)
    a = rng.normal(size=(3, 5))
    assert np.array_equal(unvec(vec(a), (3, 5)), a)


def test_kron_matches_numpy():
    rng = np.random.default_rng(1)
    a, b = rng.normal(size=(2, 3)), rng.normal(size=(4, 2))
    assert np.array_equal(kron(a, b), np.kron(a, b))


@pytest.mark.parametrize("shape", [(2, 3), (3, 3), (4, 1), (3, 4)])
def test_transpose_permutation_reorders_vec(shape):
    rng = np.random.default_rng(2)
    a = rng.normal(size=shape)
    p = transpose_permutation(*shape)
    assert np.array_equal(p @ vec(a), vec(a.T))
    # permutation matrices are orthogonal
    assert np.array_equal(p @ p.T, np.eye(shape[0] * shape[1]))


def test_hat_is_cross_product():
    rng = np.random.default_rng(3)
    for _ in range(20):
        a, b = rng.normal(size=3), rng.normal(size=3)
        assert np.allclose(hat3(a) @ b, np.cross(a, b), atol=1e-15)
    # a stack (2, 5, 3) gives each row's own matrix
    w = rng.normal(size=(2, 5, 3))
    stack = hat3(w)
    assert stack.shape == (2, 5, 3, 3)
    assert all(np.array_equal(stack[i, j], hat3(w[i, j])) for i in range(2) for j in range(5))
    for bad in (np.zeros(4), np.zeros(2), np.zeros((5, 2)), 1.0):
        with pytest.raises(GeometryError, match="hat3"):
            hat3(bad)


def test_hat_vee_round_trip():
    w = np.array([0.3, -1.2, 2.5])
    s = hat3(w)
    assert np.array_equal(s, -s.T)
    assert np.array_equal(vee3(s), w)
    assert np.array_equal(hat3([0, 0, 0]), np.zeros((3, 3)))


def test_pose_vec12_round_trip():
    rng = np.random.default_rng(4)
    m = rand_hompose(rng).mat
    v = pose_to_vec12(m)
    assert v.shape == (12,)
    # column-major: first three entries are the first rotation column
    assert np.array_equal(v[:3], m[:3, 0])
    assert np.array_equal(v[9:], m[:3, 3])
    assert np.array_equal(vec12_to_pose(v), m)


def test_apply_vec12_matches_matrix_action():
    rng = np.random.default_rng(5)
    m = rand_hompose(rng).mat
    p = rng.normal(size=3)
    expected = (m @ np.append(p, 1.0))[:3]
    assert np.allclose(apply_vec12(pose_to_vec12(m), p), expected, atol=1e-14)


def test_inverse_rt_matches_general_inverse():
    rng = np.random.default_rng(6)
    m = rand_hompose(rng).mat
    assert np.allclose(inverse_rt(m), np.linalg.inv(m), atol=1e-12)
    # stacks of SE(3) and SE(2) matrices: each matrix gets the bits of its
    # own call, and one call gives exactly (R^T, -R^T t)
    planar = [HomPose2.from_xyt(*rng.uniform(-3.0, 3.0, 3)).mat for _ in range(50)]
    for stack in (np.array([rand_hompose(rng).mat for _ in range(50)]), np.array(planar)):
        k = stack.shape[-1] - 1
        inv = inverse_rt(stack)
        assert inv.shape == stack.shape
        for m, mi in zip(stack, inv):
            assert np.array_equal(inverse_rt(m), mi)
            assert np.array_equal(mi[:k, :k], m[:k, :k].T)
            assert np.array_equal(mi[:k, k], -m[:k, :k].T @ m[:k, k])
            assert np.array_equal(mi[k], np.eye(k + 1)[k])
        assert np.allclose(inv @ stack, np.eye(k + 1), atol=1e-12)


def test_row_norms_have_the_bits_of_the_norm_of_each_row():
    # a reduction along an axis would sum in another order; the g2o reader
    # and the catalog's stand-ins need each row's own bits
    rng = np.random.default_rng(7)
    for n in (3, 4):
        q = rng.normal(size=(2000, n)) * 10.0 ** rng.uniform(-150.0, 150.0, (2000, 1))
        assert [v.tobytes() for v in _row_norms(q)] == [np.linalg.norm(r).tobytes() for r in q]


def test_compose_derivative_left_factor():
    rng = np.random.default_rng(7)
    a, b = rand_hompose(rng).mat, rand_hompose(rng).mat

    def f(v):
        return pose_to_vec12(vec12_to_pose(v) @ b)

    jac = d_compose_wrt_A(b)
    assert jac.shape == (12, 12)
    assert np.allclose(jac, numeric_jacobian(f, pose_to_vec12(a)), atol=1e-7)
    # identity right factor makes the map the identity
    assert np.array_equal(d_compose_wrt_A(np.eye(4)), np.eye(12))


def test_compose_derivative_right_factor():
    rng = np.random.default_rng(8)
    a, b = rand_hompose(rng).mat, rand_hompose(rng).mat

    def f(v):
        return pose_to_vec12(a @ vec12_to_pose(v))

    jac = d_compose_wrt_B(a)
    assert jac.shape == (12, 12)
    assert np.allclose(jac, numeric_jacobian(f, pose_to_vec12(b)), atol=1e-7)
    # block-diagonal replication of the left rotation
    assert np.array_equal(jac, np.kron(np.eye(4), a[:3, :3]))


def test_apply_derivatives():
    rng = np.random.default_rng(9)
    a = rand_hompose(rng).mat
    p = rng.normal(size=3)
    assert np.array_equal(d_apply_wrt_point(a), a[:3, :3])
    jac = d_apply_wrt_pose(p)
    assert jac.shape == (3, 12)
    fd = numeric_jacobian(lambda v: apply_vec12(v, p), pose_to_vec12(a))
    assert np.allclose(jac, fd, atol=1e-7)


def test_inverse_derivative():
    rng = np.random.default_rng(10)
    a = rand_hompose(rng).mat

    def f(v):
        return pose_to_vec12(inverse_rt(vec12_to_pose(v)))

    fd = numeric_jacobian(f, pose_to_vec12(a))
    assert np.allclose(d_inverse_wrt_pose(a), fd, atol=1e-7)


def test_inverse_apply_derivatives():
    rng = np.random.default_rng(11)
    a = rand_hompose(rng).mat
    p = rng.normal(size=3)
    assert np.array_equal(d_invapply_wrt_point(a), a[:3, :3].T)

    def f_pose(v):
        return apply_vec12(pose_to_vec12(inverse_rt(vec12_to_pose(v))), p)

    fd = numeric_jacobian(f_pose, pose_to_vec12(a))
    assert np.allclose(d_invapply_wrt_pose(a, p), fd, atol=1e-7)


def test_inverse_apply_chain_identity():
    # d(A^-1 p)/dA equals the inverse derivative chained through apply
    rng = np.random.default_rng(12)
    a = rand_hompose(rng).mat
    p = rng.normal(size=3)
    chained = d_apply_wrt_pose(p) @ d_inverse_wrt_pose(a)
    assert np.allclose(d_invapply_wrt_pose(a, p), chained, atol=1e-13)
