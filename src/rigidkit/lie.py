"""Exponential and logarithm maps for 3D/2D rotations and rigid motions.

Rotation vectors are plain (3,) ndarrays (axis * angle).  Tangent vectors
of rigid motions are (6,) ndarrays ordered translation-first: (dx, dy, dz,
wx, wy, wz); in 2D they are (3,) ndarrays (dx, dy, dtheta).

Alongside the true exponential (whose translation part is coupled to the
rotation through the V matrix) the module provides the "pseudo" pair that
copies the translation verbatim.  The pseudo maps are mutual inverses,
cheap, and are the retraction used by the on-manifold optimizer; they are
not the group exponential.

Every rotation-to-vector map takes one route: the rotation's largest-pivot
quaternion (``core._quat_from_rotation``) and w = 2 atan2(|v|, q0) v / |v|
of it, which is accurate at every angle up to and including pi.

:func:`so3_log` and the pseudo-logarithms take one matrix or a stack
(..., n, n) and return one vector or a stack (..., d).  The pseudo-
exponentials take one vector; ``_pseudo_exp`` is their stack form, the
solver's retraction, and they are its oracle.

The public functions check that each array argument is numeric, finite
and of an allowed shape (``matderiv._checked``).  The logarithms also
test each matrix for rigidity with ``core._rigid``, the test that the
HomPose and HomPose2 constructors apply, with their tolerances: a matrix
off the group has no logarithm.  The stack forms ``_pseudo_log`` and
``_pseudo_exp`` check nothing: the finite-difference machinery perturbs
raw matrix entries through them, off the manifold, and the solver's
matrices are rigid by construction.
"""

from dataclasses import dataclass

import numpy as np

from .core import HomPose, HomPose2, Quaternion, _quat_from_rotation, _rigid
from .errors import GeometryError, NearPiRotationError
from .matderiv import _POSE, _checked, _hat3, _typed

_TAYLOR_EPS = 1e-4
_PI_EDGE = np.pi - 1e-6


@dataclass(frozen=True)
class AxisAngle:
    """Unit rotation axis and angle in [0, pi]."""

    axis: np.ndarray
    angle: float

    def __post_init__(self):
        axis = _checked(self.axis, "AxisAngle: axis", (3,)).copy()
        with np.errstate(over="ignore"):  # an overflowing norm is inf, not unit
            if abs(np.linalg.norm(axis) - 1.0) > 1e-9:
                raise GeometryError("AxisAngle: axis must be unit length")
        angle = float(_checked(self.angle, "AxisAngle: angle", ()))
        if not -1e-12 <= angle <= np.pi + 1e-12:
            raise GeometryError("AxisAngle: angle must lie in [0, pi]")
        axis.setflags(write=False)
        object.__setattr__(self, "axis", axis)
        object.__setattr__(self, "angle", angle)


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
    """(1 - theta*cos(theta/2)/(2 sin(theta/2))) / theta^2, Taylor-guarded.

    theta is a scalar or an array of angles in [0, pi].  This is the
    coefficient of hat(w)^2 in V(w)^-1 = I - hat(w)/2 + c hat(w)^2 and in
    the right-Jacobian inverse J_r(w)^-1 = I + hat(w)/2 + c hat(w)^2.
    """
    small = np.abs(theta) < _TAYLOR_EPS
    t2 = theta * theta
    safe = np.where(small, 1.0, theta)
    half = 0.5 * safe
    return np.where(small, 1.0 / 12.0 + t2 / 720.0 + t2 * t2 / 30240.0,
                    (1.0 - half * np.cos(half) / np.sin(half)) / (safe * safe))


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
    return _so3_exp(_checked(w, "so3_exp: w", (3,)))


def _so3_exp(w):
    """:func:`so3_exp` of a float (3,) array, unchecked."""
    theta = np.linalg.norm(w)
    k = _hat3(w)
    return np.eye(3) + _sinc(theta) * k + _cosc(theta) * (k @ k)


def rot_z(theta):
    """Rotation about the z axis."""
    return _rot_z(_checked(theta, "rot_z: theta", ()))


def _rot_z(theta):
    """:func:`rot_z` of a float theta, unchecked."""
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
    n = _typed(a, "axis_angle_factorization: a", AxisAngle).axis
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
    p = axis_angle_factorization(_typed(a, "so3_exp_coordinate: a", AxisAngle))
    return p @ _rot_z(a.angle) @ p.T


def so3_exp_quat(w):
    """Unit quaternion of a rotation vector.

    Returns
    -------
    Quaternion
        (cos(theta/2), sin(theta/2)/theta * w), canonical sign.
    """
    w = _checked(w, "so3_exp_quat: w", (3,))
    theta = np.linalg.norm(w)
    if theta < _TAYLOR_EPS:
        t2 = theta * theta
        half_sinc = 0.5 - t2 / 48.0 + t2 * t2 / 3840.0
    else:
        half_sinc = np.sin(0.5 * theta) / theta
    v = half_sinc * w
    return Quaternion(np.cos(0.5 * theta), v[0], v[1], v[2])


def _log_quat(q):
    """Rotation vectors (..., 3) of quaternions q (..., 4), scalar first.

    w = 2 atan2(|v|, q0) v / |v| for any nonzero norm; q0 >= 0 puts the
    angle in [0, pi].  atan2 keeps full relative accuracy as |v| -> 0 and
    as q0 -> 0, so the only guard is the exact identity, |v| = 0.
    """
    v = q[..., 1:]
    n = np.sqrt((v * v).sum(-1, keepdims=True))
    return v * (2.0 * np.arctan2(n, q[..., :1]) / (n + (n == 0.0)))


def so3_log(r):
    """Rotation vector of a rotation matrix, angle in [0, pi].

    r is (3, 3) or a stack (..., 3, 3); the result is (3,) or (..., 3).
    The log of the largest-pivot quaternion of r, which is accurate at
    every angle.  At exactly pi both signs describe the same rotation: the
    sign follows the skew part of r while it is nonzero, and otherwise
    makes the component of the largest diagonal entry positive.

    Raises
    ------
    GeometryError
        If a matrix of r is not a rotation by HomPose's tests (Frobenius
        defect of R^T R - I below 1e-9, determinant within 1e-9 of +1).
    """
    return _log_quat(_quat_from_rotation(_rigid(_checked(r, "so3_log: r", (..., 3, 3)),
                                                "so3_log: r", 3)))


def so3_log_quat(q):
    """Rotation vector of a quaternion (any nonzero norm, qr >= 0).

    The angle is evaluated as 2*atan2(|qv|, qr) (identical to 2*acos(qr)
    on the unit sphere, but conditioned well at every angle).
    """
    return _log_quat(_typed(q, "so3_log_quat: q", Quaternion).vec)


# ---------------------------------------------------------------------------
# SE(3)

def se3_exp(v):
    """Rigid transformation of a 6-vector (dx, dy, dz, wx, wy, wz).

    The stored translation is V(w) @ (dx, dy, dz): the exponential couples
    translation and rotation.
    """
    v = _checked(v, "se3_exp: v", (6,))
    t, w = v[:3], v[3:]
    theta = np.linalg.norm(w)
    k = _hat3(w)
    vmat = np.eye(3) + _cosc(theta) * k + _sinc3(theta) * (k @ k)
    m = np.eye(4)
    m[:3, :3] = _so3_exp(w)
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
    GeometryError
        If m is not rigid by HomPose's tests.
    """
    m = _rigid(_checked(m, "se3_log: m", *_POSE), "se3_log: m", 3)
    w = _log_quat(_quat_from_rotation(m[:3, :3]))
    theta = np.linalg.norm(w)
    if theta > _PI_EDGE:
        raise NearPiRotationError(
            "se3_log: rotation angle within 1e-6 of pi; use se3_pseudo_log")
    k = _hat3(w)
    vinv = np.eye(3) - 0.5 * k + _vinv_coeff(theta) * (k @ k)
    return np.concatenate([vinv @ m[:3, 3], w])


def se3_pseudo_exp(v):
    """Like :func:`se3_exp` but the translation is stored verbatim."""
    v = _checked(v, "se3_pseudo_exp: v", (6,))
    m = np.eye(4)
    m[:3, :3] = _so3_exp(v[3:])
    m[:3, 3] = v[:3]
    return HomPose(m)


def se3_pseudo_log(m):
    """Inverse of :func:`se3_pseudo_exp`: (t, so3_log(R)).

    m is (4, 4) (or its top 3x4 block) or a stack (..., 4, 4); the
    result is (6,) or (..., 6).  Raises GeometryError if a matrix of m is
    not rigid by HomPose's tests.
    """
    m = _checked(m, "se3_pseudo_log: m", (..., 4, 4), (..., 3, 4))
    return _pseudo_log(_rigid(m, "se3_pseudo_log: m", 3))


# ---------------------------------------------------------------------------
# SE(2)

def se2_exp(v):
    """Planar rigid transformation of (dx, dy, dtheta)."""
    v = _checked(v, "se2_exp: v", (3,))
    phi = v[2]
    c, s = np.cos(phi), np.sin(phi)
    a = _sinc(phi)
    b = phi * _cosc(phi)  # (1 - cos(phi)) / phi
    m = np.eye(3)
    m[:2, :2] = np.array([[c, -s], [s, c]])
    m[:2, 2] = np.array([a * v[0] - b * v[1], b * v[0] + a * v[1]])
    return HomPose2(m)


def se2_log(m):
    """(dx, dy, dtheta) logarithm of a planar rigid transformation.

    Raises GeometryError if m is not rigid by HomPose2's tests.
    """
    x, y, phi = _pseudo_log(_rigid(_checked(m, "se2_log: m", (3, 3)), "se2_log: m", 2))
    a = _half_cot_half(phi)
    h = 0.5 * phi
    return np.array([a * x + h * y, -h * x + a * y, phi])


def se2_pseudo_exp(v):
    """Planar transformation with translation stored verbatim."""
    v = _checked(v, "se2_pseudo_exp: v", (3,))
    c, s = np.cos(v[2]), np.sin(v[2])
    m = np.eye(3)
    m[:2, :2] = np.array([[c, -s], [s, c]])
    m[:2, 2] = v[:2]
    return HomPose2(m)


def se2_pseudo_log(m):
    """Inverse of :func:`se2_pseudo_exp`: (x, y, atan2-wrapped angle).

    m is (3, 3) or a stack (..., 3, 3); the result is (3,) or (..., 3).
    Raises GeometryError if a matrix of m is not rigid by HomPose2's tests.
    """
    m = _checked(m, "se2_pseudo_log: m", (..., 3, 3))
    return _pseudo_log(_rigid(m, "se2_pseudo_log: m", 2))


# ---------------------------------------------------------------------------
# stack forms of the pseudo pair, told apart by size

def _pseudo_log(m):
    """Pseudo-logarithm of float SE(3) (..., 4, 4) or SE(2) (..., 3, 3) matrices.

    (t, so3_log(R)), shape (..., 6), or (x, y, atan2-wrapped angle),
    shape (..., 3).  Unchecked: the public maps check, the solver's
    matrices are rigid by construction.
    """
    if m.shape[-1] == 3:
        out = np.empty(m.shape[:-2] + (3,))
        out[..., :2] = m[..., :2, 2]
        out[..., 2] = np.arctan2(m[..., 1, 0], m[..., 0, 0])
        return out
    return np.concatenate([m[..., :3, 3], _log_quat(_quat_from_rotation(m[..., :3, :3]))],
                          axis=-1)


def _pseudo_exp(v):
    """Stack form of :func:`se3_pseudo_exp` / :func:`se2_pseudo_exp`.

    Rows (..., 6) give SE(3) matrices (..., 4, 4), rows (..., 3) give
    SE(2) matrices (..., 3, 3).  The scalar maps are its oracle: the same
    formulas and Taylor branches, without a check of the rows (cos and
    sin of inf give NaN entries).
    """
    lead = v.shape[:-1]
    if v.shape[-1] == 3:
        out = np.zeros(lead + (3, 3))
        c, s = np.cos(v[..., 2]), np.sin(v[..., 2])
        out[..., 0, 0], out[..., 0, 1], out[..., 1, 0], out[..., 1, 1] = c, -s, s, c
        out[..., :2, 2] = v[..., :2]
        out[..., 2, 2] = 1.0
        return out
    w = v[..., 3:]
    theta = np.linalg.norm(w, axis=-1)
    small = theta < _TAYLOR_EPS
    t2 = theta * theta
    safe = np.where(small, 1.0, theta)
    sinc = np.where(small, 1.0 - t2 / 6.0 + t2 * t2 / 120.0, np.sin(theta) / safe)
    cosc = np.where(small, 0.5 - t2 / 24.0 + t2 * t2 / 720.0,
                    (1.0 - np.cos(theta)) / (safe * safe))
    k = _hat3(w)
    out = np.zeros(lead + (4, 4))
    out[..., :3, :3] = (np.eye(3) + sinc[..., None, None] * k
                        + cosc[..., None, None] * (k @ k))
    out[..., :3, 3] = v[..., :3]
    out[..., 3, 3] = 1.0
    return out

