"""Pinhole projection and its derivatives.

Points are expressed in a camera frame with +z looking forward; a point
projects to pixel (cx + fx*x/z, cy + fy*y/z).  Composite operations
combine projection with a camera pose and report derivatives both with
respect to the 3D point and with respect to an on-manifold increment of
the pose, ready for reprojection-error least squares.
"""

from dataclasses import dataclass

import numpy as np

from .errors import BehindCameraError, GeometryError
from .manifold_jac import _expe_point, _p_ominus_expeD
from .matderiv import _checked, _typed

_MIN_DEPTH = 1e-8


@dataclass(frozen=True)
class CameraIntrinsics:
    """Focal lengths and principal point of a pinhole camera, in pixels.

    All four must be finite numbers, and the focal lengths positive.
    """

    fx: float
    fy: float
    cx: float
    cy: float

    def __post_init__(self):
        fx, fy, _, _ = _checked([self.fx, self.fy, self.cx, self.cy],
                                "CameraIntrinsics: fx, fy, cx, cy", (4,))
        if not (fx > 0 and fy > 0):
            raise GeometryError("CameraIntrinsics: focal lengths must be positive")


def _check_depth(z, where):
    if z <= _MIN_DEPTH:
        raise BehindCameraError(
            f"{where}: point depth {z:.3e} is not in front of the camera")


def project(k, p):
    """Project a camera-frame point to a pixel.

    Raises
    ------
    BehindCameraError
        If the depth is at or below 1e-8.
    """
    p = _checked(p, "project: p", (3,))
    _typed(k, "project: k", CameraIntrinsics)
    _check_depth(p[2], "project")
    return _project(k, p)


def _project(k, p):
    """:func:`project` of a float 3-vector p in front of the camera, unchecked."""
    return np.array([k.cx + k.fx * p[0] / p[2],
                     k.cy + k.fy * p[1] / p[2]])


def dproject_dp(k, p):
    """2x3 derivative of the pixel with respect to the camera-frame point."""
    p = _checked(p, "dproject_dp: p", (3,))
    _typed(k, "dproject_dp: k", CameraIntrinsics)
    _check_depth(p[2], "dproject_dp")
    return _dproject_dp(k, p)


def _dproject_dp(k, p):
    """:func:`dproject_dp` of a float 3-vector p in front of the camera, unchecked."""
    x, y, z = p
    return np.array([[k.fx / z, 0.0, -k.fx * x / z ** 2],
                     [0.0, k.fy / z, -k.fy * y / z ** 2]])


def project_pose_point(k, a, p):
    """Project a world point through a camera-from-world pose A.

    The pixel is h(A * p).  Returns (pixel, J_eps, J_p): J_eps is the 2x6
    derivative for a left increment exp(eps) @ A of the pose, J_p the 2x3
    derivative in the world point.
    """
    p = _checked(p, "project_pose_point: p", (3,))
    _typed(k, "project_pose_point: k", CameraIntrinsics)
    m = _checked(a, "project_pose_point: a", (4, 4))
    r = m[:3, :3]
    g = r @ p + m[:3, 3]
    _check_depth(g[2], "project_pose_point")
    dh = _dproject_dp(k, g)
    return _project(k, g), dh @ _expe_point(g), dh @ r


def project_inv_pose_point(k, a, p):
    """Project a world point through a world-from-camera pose A.

    The pixel is h(A^{-1} * p), the common convention when A stores the
    camera's pose in the world.  Returns (pixel, J_eps, J_p) with J_eps
    taken for a left increment exp(eps) @ A.
    """
    p = _checked(p, "project_inv_pose_point: p", (3,))
    _typed(k, "project_inv_pose_point: k", CameraIntrinsics)
    m = _checked(a, "project_inv_pose_point: a", (4, 4))
    r = m[:3, :3]
    local = r.T @ (p - m[:3, 3])
    _check_depth(local[2], "project_inv_pose_point")
    dh = _dproject_dp(k, local)
    return _project(k, local), dh @ _p_ominus_expeD(r, p), dh @ r.T
