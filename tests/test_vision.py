"""Pinhole projection values and derivatives."""
import numpy as np
import pytest

from conftest import rand_hompose
from rigidkit import (BehindCameraError, CameraIntrinsics, GeometryError,
                      HomPose, dproject_dp, manifold_numeric_jacobian, numeric_jacobian,
                      project, project_inv_pose_point, project_pose_point)

K = CameraIntrinsics(fx=500.0, fy=400.0, cx=320.0, cy=240.0)


def _camera_point(rng):
    # points comfortably in front of the camera
    return np.array([rng.uniform(-1.5, 1.5), rng.uniform(-1.5, 1.5),
                     rng.uniform(0.8, 5.0)])


def _front_pose_and_point(rng, inverse=False):
    # resample until the transformed point has healthy positive depth
    while True:
        a = rand_hompose(rng)
        p = rng.uniform(-2.0, 2.0, 3)
        m = a.mat
        if inverse:
            local = m[:3, :3].T @ (p - m[:3, 3])
        else:
            local = m[:3, :3] @ p + m[:3, 3]
        if local[2] > 0.5:
            return a, p


def test_project_literal():
    pixel = project(K, np.array([0.2, -0.1, 2.0]))
    assert pixel[0] == 370.0
    assert pixel[1] == 220.0


def test_project_principal_ray():
    assert np.array_equal(project(K, np.array([0.0, 0.0, 3.0])),
                          np.array([320.0, 240.0]))


def test_dproject_closed_form():
    p = np.array([0.4, -0.3, 2.5])
    x, y, z = p
    expected = np.array([[K.fx / z, 0.0, -K.fx * x / z ** 2],
                         [0.0, K.fy / z, -K.fy * y / z ** 2]])
    assert np.abs(dproject_dp(K, p) - expected).max() < 1e-14


def test_dproject_matches_fd():
    rng = np.random.default_rng(0)
    for _ in range(50):
        p = _camera_point(rng)
        fd = numeric_jacobian(lambda q: project(K, q), p)
        assert np.abs(dproject_dp(K, p) - fd).max() < 1e-5


def test_behind_camera_raises():
    with pytest.raises(BehindCameraError):
        project(K, np.array([0.1, 0.1, -1.0]))
    with pytest.raises(BehindCameraError):
        project(K, np.array([0.1, 0.1, 0.0]))
    with pytest.raises(BehindCameraError):
        dproject_dp(K, np.array([0.1, 0.1, -0.5]))


def test_intrinsics_validation():
    with pytest.raises(ValueError):
        CameraIntrinsics(fx=-1.0, fy=400.0, cx=0.0, cy=0.0)
    with pytest.raises(ValueError):
        CameraIntrinsics(fx=500.0, fy=0.0, cx=0.0, cy=0.0)


def test_bad_inputs_raise_geometry_error():
    with pytest.raises(GeometryError):
        project(K, np.array([1.0, 2.0]))
    with pytest.raises(GeometryError, match="finite 3-vector"):
        project(K, np.array([0.0, np.inf, 1.0]))
    with pytest.raises(GeometryError):
        CameraIntrinsics(fx=0.0, fy=400.0, cx=0.0, cy=0.0)


def test_project_rejects_bad_shape():
    with pytest.raises(ValueError):
        project(K, np.array([1.0, 2.0]))


# ---------------------------------------------------------------------------
# projection through a pose

def test_pose_projection_identity_pose():
    p = np.array([0.2, -0.1, 2.0])
    pixel, j_eps, j_p = project_pose_point(K, HomPose(np.eye(4)), p)
    assert np.array_equal(pixel, project(K, p))
    assert np.array_equal(j_p, dproject_dp(K, p))
    assert j_eps.shape == (2, 6)


def test_pose_projection_increment_row_formula():
    # first pixel coordinate, written out against the camera-frame point
    rng = np.random.default_rng(1)
    a, p = _front_pose_and_point(rng)
    gx, gy, gz = a.mat[:3, :3] @ p + a.mat[:3, 3]
    _, j_eps, _ = project_pose_point(K, a, p)
    row0 = np.array([K.fx / gz, 0.0, -K.fx * gx / gz ** 2,
                     -K.fx * gx * gy / gz ** 2,
                     K.fx * (1.0 + gx ** 2 / gz ** 2),
                     -K.fx * gy / gz])
    row1 = np.array([0.0, K.fy / gz, -K.fy * gy / gz ** 2,
                     -K.fy * (1.0 + gy ** 2 / gz ** 2),
                     K.fy * gx * gy / gz ** 2,
                     K.fy * gx / gz])
    assert np.abs(j_eps[0] - row0).max() < 1e-10
    assert np.abs(j_eps[1] - row1).max() < 1e-10


def test_pose_projection_point_jacobian_fd():
    rng = np.random.default_rng(2)
    for _ in range(20):
        a, p = _front_pose_and_point(rng)
        _, _, j_p = project_pose_point(K, a, p)
        fd = numeric_jacobian(lambda q: project_pose_point(K, a, q)[0], p)
        assert np.abs(j_p - fd).max() < 1e-4


def test_pose_projection_increment_jacobian_fd():
    rng = np.random.default_rng(3)
    for _ in range(20):
        a, p = _front_pose_and_point(rng)
        _, j_eps, _ = project_pose_point(K, a, p)
        fd = manifold_numeric_jacobian(
            lambda m: project_pose_point(K, HomPose(m), p)[0], a.mat,
            side="left")
        assert np.abs(j_eps - fd).max() < 1e-3


def test_inverse_pose_projection_matches_inverted_pose():
    rng = np.random.default_rng(4)
    for _ in range(20):
        a, p = _front_pose_and_point(rng, inverse=True)
        inv = HomPose(np.linalg.inv(a.mat))
        px1, _, _ = project_inv_pose_point(K, a, p)
        px2, _, _ = project_pose_point(K, inv, p)
        assert np.abs(px1 - px2).max() < 1e-10


def test_inverse_pose_projection_jacobians_fd():
    rng = np.random.default_rng(5)
    for _ in range(20):
        a, p = _front_pose_and_point(rng, inverse=True)
        _, j_eps, j_p = project_inv_pose_point(K, a, p)
        fd_p = numeric_jacobian(
            lambda q: project_inv_pose_point(K, a, q)[0], p)
        fd_eps = manifold_numeric_jacobian(
            lambda m: project_inv_pose_point(K, HomPose(m), p)[0], a.mat,
            side="left")
        assert np.abs(j_p - fd_p).max() < 1e-4
        assert np.abs(j_eps - fd_eps).max() < 1e-3


def test_pose_projection_behind_camera():
    a = HomPose(np.eye(4))
    with pytest.raises(BehindCameraError):
        project_pose_point(K, a, np.array([0.0, 0.0, -2.0]))
    with pytest.raises(BehindCameraError):
        project_inv_pose_point(K, a, np.array([0.0, 0.0, -2.0]))
