"""Exponential and logarithm maps for 3D/2D rotations and rigid motions.

Rotation vectors are plain (3,) ndarrays (axis * angle).  Tangent vectors
of rigid motions are (6,) ndarrays ordered translation-first: (dx, dy, dz,
wx, wy, wz); in 2D they are (3,) ndarrays (dx, dy, dtheta).

Alongside the true exponential (whose translation part is coupled to the
rotation through the V matrix) the module provides the "pseudo" pair that
copies the translation verbatim.  The pseudo maps are mutual inverses,
cheap, and are the retraction used by the on-manifold optimizer; they are
not the group exponential.

Functions here trust their inputs (no orthonormality checks): the finite
difference machinery perturbs raw matrix entries and needs these formulas
to extend smoothly off the manifold.
"""

from dataclasses import dataclass

import numpy as np

from .errors import GeometryError, NearPiRotationError
from .matderiv import hat3

_TAYLOR_EPS = 1e-4
_PI_EDGE = np.pi - 1e-6


def _mat4(m):
    """Float ndarray of a pose object's matrix, or of a plain matrix."""
    if hasattr(m, "mat"):
        return np.asarray(m.mat, dtype=float)
    return np.asarray(m, dtype=float)


@dataclass(frozen=True)
class AxisAngle:
    """Unit rotation axis and angle in [0, pi]."""

    axis: np.ndarray
    angle: float

    def __post_init__(self):
        axis = np.asarray(self.axis, dtype=float).copy()
        if axis.shape != (3,):
            raise GeometryError("AxisAngle: axis must be a 3-vector")
        if abs(np.linalg.norm(axis) - 1.0) > 1e-9:
            raise GeometryError("AxisAngle: axis must be unit length")
        if not -1e-12 <= float(self.angle) <= np.pi + 1e-12:
            raise GeometryError("AxisAngle: angle must lie in [0, pi]")
        axis.setflags(write=False)
        object.__setattr__(self, "axis", axis)
        object.__setattr__(self, "angle", float(self.angle))


# ---------------------------------------------------------------------------
# small-angle safe coefficient helpers

def _sinc(theta):
    """sin(theta)/theta with a 4th-order Taylor branch."""
    if abs(theta) < _TAYLOR_EPS:
        t2 = theta * theta
        return 1.0 - t2 / 6.0 + t2 * t2 / 120.0
    return np.sin(theta) / theta


def _cosc(theta):
    """(1 - cos(theta))/theta^2 with a Taylor branch."""
    if abs(theta) < _TAYLOR_EPS:
        t2 = theta * theta
        return 0.5 - t2 / 24.0 + t2 * t2 / 720.0
    return (1.0 - np.cos(theta)) / (theta * theta)


def _sinc3(theta):
    """(theta - sin(theta))/theta^3 with a Taylor branch."""
    if abs(theta) < _TAYLOR_EPS:
        t2 = theta * theta
        return 1.0 / 6.0 - t2 / 120.0 + t2 * t2 / 5040.0
    return (theta - np.sin(theta)) / (theta ** 3)


def _vinv_coeff(theta):
    """(1 - theta*cos(theta/2)/(2 sin(theta/2))) / theta^2, Taylor-guarded."""
    if abs(theta) < _TAYLOR_EPS:
        t2 = theta * theta
        return 1.0 / 12.0 + t2 / 720.0 + t2 * t2 / 30240.0
    half = 0.5 * theta
    return (1.0 - half * np.cos(half) / np.sin(half)) / (theta * theta)


def _half_cot_half(theta):
    """(theta/2) * cot(theta/2) with a Taylor branch."""
    if abs(theta) < _TAYLOR_EPS:
        t2 = theta * theta
        return 1.0 - t2 / 12.0 - t2 * t2 / 720.0
    half = 0.5 * theta
    return half * np.cos(half) / np.sin(half)


# ---------------------------------------------------------------------------
# SO(3)

def so3_exp(w):
    """Rotation matrix of a rotation vector (Rodrigues formula).

    Parameters
    ----------
    w : (3,) array_like
        Axis * angle.

    Returns
    -------
    (3, 3) ndarray
    """
    w = np.asarray(w, dtype=float)
    theta = np.linalg.norm(w)
    k = hat3(w)
    return np.eye(3) + _sinc(theta) * k + _cosc(theta) * (k @ k)


def rot_z(theta):
    """Rotation about the z axis."""
    c, s = np.cos(theta), np.sin(theta)
    return np.array([[c, -s, 0.0], [s, c, 0.0], [0.0, 0.0, 1.0]])


def axis_angle_factorization(a):
    """Orthonormal P with  R(axis, angle) = P @ rot_z(angle) @ P.T.

    The third column of P is the rotation axis; the factorization moves
    the axis onto z, rotates there, and moves back.

    Raises
    ------
    GeometryError
        If the axis is (numerically) parallel to z, where the first two
        columns are undefined.
    """
    n = np.asarray(a.axis, dtype=float)
    s2 = n[0] * n[0] + n[1] * n[1]
    if s2 <= 1e-12:
        raise GeometryError(
            "axis_angle_factorization: axis parallel to z, factorization undefined")
    s = np.sqrt(s2)
    return np.array([
        [n[2] * n[0] / s, -n[1] / s, n[0]],
        [n[2] * n[1] / s, n[0] / s, n[1]],
        [-s, 0.0, n[2]],
    ])


def so3_exp_coordinate(a):
    """Rotation matrix from axis/angle via the z-axis conjugation route."""
    p = axis_angle_factorization(a)
    return p @ rot_z(a.angle) @ p.T


def so3_exp_quat(w):
    """Unit quaternion of a rotation vector.

    Returns
    -------
    Quaternion
        (cos(theta/2), sin(theta/2)/theta * w), canonical sign.
    """
    from .core import Quaternion

    w = np.asarray(w, dtype=float)
    theta = np.linalg.norm(w)
    if theta < _TAYLOR_EPS:
        t2 = theta * theta
        half_sinc = 0.5 - t2 / 48.0 + t2 * t2 / 3840.0
    else:
        half_sinc = np.sin(0.5 * theta) / theta
    v = half_sinc * w
    return Quaternion(np.cos(0.5 * theta), v[0], v[1], v[2])


def so3_log(r):
    """Rotation vector of a rotation matrix, angle in [0, pi].

    Three branches: a Taylor branch for tiny angles, the generic
    skew-part formula, and a symmetric-part branch for angles within
    1e-6 of pi where the skew part vanishes.  In the last branch the
    relative component signs come from the symmetric part; the overall
    sign follows the skew part while it is measurable and otherwise makes
    the largest-magnitude component positive (at exactly pi both signs
    describe the same rotation).
    """
    r = np.asarray(r, dtype=float)
    tr = r[0, 0] + r[1, 1] + r[2, 2]
    cos_theta = min(1.0, max(-1.0, 0.5 * (tr - 1.0)))
    theta = np.arccos(cos_theta)
    raw = np.array([r[2, 1] - r[1, 2], r[0, 2] - r[2, 0], r[1, 0] - r[0, 1]])

    if theta < _TAYLOR_EPS:
        t2 = theta * theta
        scale = 0.5 * (1.0 + t2 / 6.0 + 7.0 * t2 * t2 / 360.0)
        return scale * raw

    if theta > _PI_EDGE:
        denom = 3.0 - tr
        s = r + r.T + (1.0 - tr) * np.eye(3)
        diag = np.clip(np.diag(s) / denom, 0.0, None)
        j = int(np.argmax(diag))
        n = s[j] / (denom * np.sqrt(diag[j]))
        n = n / np.linalg.norm(n)
        raw_norm = np.linalg.norm(raw)
        if raw_norm > 1e-12:
            if np.dot(raw, n) < 0.0:
                n = -n
        elif n[int(np.argmax(np.abs(n)))] < 0.0:
            n = -n
        # asin of the measurable sine is better conditioned than acos here
        theta = np.pi - np.arcsin(min(1.0, 0.5 * raw_norm))
        return theta * n

    return (theta / (2.0 * np.sin(theta))) * raw


def so3_log_quat(q):
    """Rotation vector of a unit quaternion.

    The angle is evaluated as 2*atan2(|qv|, qr) (identical to 2*acos(qr)
    on the unit sphere, but conditioned well near the identity).
    """
    v = np.array([q.qx, q.qy, q.qz], dtype=float)
    vnorm = np.linalg.norm(v)
    if vnorm < 1e-5:
        # 2*asin(|qv|)/|qv| expanded (qr ~ 1 for canonical unit input)
        v2 = vnorm * vnorm
        return (2.0 + v2 / 3.0 + 3.0 * v2 * v2 / 20.0) * v
    theta = 2.0 * np.arctan2(vnorm, q.qr)
    return (theta / vnorm) * v


# ---------------------------------------------------------------------------
# SE(3)

def se3_exp(v):
    """Rigid transformation of a 6-vector (dx, dy, dz, wx, wy, wz).

    The stored translation is V(w) @ (dx, dy, dz): the exponential couples
    translation and rotation.
    """
    from .core import HomPose

    v = np.asarray(v, dtype=float)
    t, w = v[:3], v[3:]
    theta = np.linalg.norm(w)
    k = hat3(w)
    rot = np.eye(3) + _sinc(theta) * k + _cosc(theta) * (k @ k)
    vmat = np.eye(3) + _cosc(theta) * k + _sinc3(theta) * (k @ k)
    m = np.eye(4)
    m[:3, :3] = rot
    m[:3, 3] = vmat @ t
    return HomPose(m)


def se3_log(m):
    """6-vector logarithm of a rigid transformation (translation first).

    Raises
    ------
    NearPiRotationError
        If the rotation angle exceeds pi - 1e-6, where the coupled
        translation recovery is unreliable; se3_pseudo_log stays usable
        there.
    """
    m = _mat4(m)
    w = so3_log(m[:3, :3])
    theta = np.linalg.norm(w)
    if theta > _PI_EDGE:
        raise NearPiRotationError(
            "se3_log: rotation angle within 1e-6 of pi; use se3_pseudo_log")
    k = hat3(w)
    vinv = np.eye(3) - 0.5 * k + _vinv_coeff(theta) * (k @ k)
    return np.concatenate([vinv @ m[:3, 3], w])


def se3_pseudo_exp(v):
    """Like :func:`se3_exp` but the translation is stored verbatim."""
    from .core import HomPose

    v = np.asarray(v, dtype=float)
    m = np.eye(4)
    m[:3, :3] = so3_exp(v[3:])
    m[:3, 3] = v[:3]
    return HomPose(m)


def se3_pseudo_log(m):
    """Inverse of :func:`se3_pseudo_exp`: (t, so3_log(R))."""
    m = _mat4(m)
    return np.concatenate([m[:3, 3].copy(), so3_log(m[:3, :3])])


# ---------------------------------------------------------------------------
# SE(2)

def se2_exp(v):
    """Planar rigid transformation of (dx, dy, dtheta)."""
    from .core import HomPose2

    v = np.asarray(v, dtype=float)
    phi = v[2]
    c, s = np.cos(phi), np.sin(phi)
    a = _sinc(phi)
    b = phi * _cosc(phi)  # (1 - cos(phi)) / phi
    m = np.eye(3)
    m[:2, :2] = np.array([[c, -s], [s, c]])
    m[:2, 2] = np.array([a * v[0] - b * v[1], b * v[0] + a * v[1]])
    return HomPose2(m)


def se2_log(m):
    """(dx, dy, dtheta) logarithm of a planar rigid transformation."""
    m = _mat4(m)
    phi = np.arctan2(m[1, 0], m[0, 0])
    a = _half_cot_half(phi)
    h = 0.5 * phi
    t = m[:2, 2]
    return np.array([a * t[0] + h * t[1], -h * t[0] + a * t[1], phi])


def se2_pseudo_exp(v):
    """Planar transformation with translation stored verbatim."""
    from .core import HomPose2

    v = np.asarray(v, dtype=float)
    c, s = np.cos(v[2]), np.sin(v[2])
    m = np.eye(3)
    m[:2, :2] = np.array([[c, -s], [s, c]])
    m[:2, 2] = v[:2]
    return HomPose2(m)


def se2_pseudo_log(m):
    """Inverse of :func:`se2_pseudo_exp`: (x, y, atan2-wrapped angle)."""
    m = _mat4(m)
    return np.array([m[0, 2], m[1, 2], np.arctan2(m[1, 0], m[0, 0])])

