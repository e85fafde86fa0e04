"""Pose types and conversions between the three parameterizations.

Three interchangeable descriptions of a rigid body's placement:

``EulerPose``
    (x, y, z, yaw, pitch, roll).  The rotation applies roll about x,
    then pitch about y, then yaw about z (all intrinsic ZYX order when
    read as R = Rz(yaw) @ Ry(pitch) @ Rx(roll)).
``QuatPose``
    (x, y, z) plus a unit quaternion stored scalar-first (qr, qx, qy, qz)
    with the canonical sign qr >= 0.
``HomPose``
    A 4x4 homogeneous matrix with orthonormal rotation block.

Every conversion has an analytic Jacobian suitable for first-order
covariance propagation; :func:`convert_gaussian` applies them to a
Gaussian pose.  Operations that consume quaternions re-normalize them
internally and chain the normalization Jacobian, so the Jacobians are
derivatives of what the functions actually compute, entry for entry.
"""

import math
from dataclasses import dataclass

import numpy as np

from .errors import GeometryError, SingularConfigurationError
from .matderiv import _EYE3, _EYE4, _POSE, _checked, _const, _row_norms, _typed

# r00^2 + r10^2 (cos^2(pitch) on a rotation) at or below this, |pitch|
# within 1e-6 rad of pi/2: the Euler extraction takes its pole branch and
# every Euler-angle Jacobian refuses
_POLE_K = 1e-12


def wrap_angle(a):
    """Wrap an angle to (-pi, pi]."""
    return _wrap(float(_checked(a, "wrap_angle: a", ())))


def _wrap(a):
    """:func:`wrap_angle` of a finite float a, unchecked."""
    r = math.remainder(a, 2.0 * math.pi)
    if r <= -math.pi:
        r = math.pi
    return r


# ---------------------------------------------------------------------------
# types

_QUATERNION_FIELDS = "Quaternion: qr, qx, qy, qz"


@dataclass(frozen=True)
class Quaternion:
    """Scalar-first quaternion (qr, qx, qy, qz).

    The constructor enforces the canonical sign qr >= 0 by flipping all
    four components when needed (both signs describe the same rotation).
    Unit norm is not enforced here: quat_normalize legitimately takes
    non-unit input.
    """

    qr: float
    qx: float
    qy: float
    qz: float

    def __post_init__(self):
        vals = _checked([self.qr, self.qx, self.qy, self.qz], _QUATERNION_FIELDS, (4,)).tolist()
        if vals[0] < 0.0:
            vals = [-v for v in vals]
        for name, v in zip(("qr", "qx", "qy", "qz"), vals):
            object.__setattr__(self, name, v)

    @property
    def vec(self):
        return np.array([self.qr, self.qx, self.qy, self.qz])

    @property
    def norm(self):
        with np.errstate(over="ignore"):  # inf where the squared norm overflows
            return float(np.linalg.norm(self.vec))


@dataclass(frozen=True)
class EulerPose:
    """Pose as (x, y, z, yaw, pitch, roll), angles in radians.

    yaw and roll are wrapped to (-pi, pi] on construction; pitch must
    already lie in [-pi/2, pi/2] (wrapping it would silently change yaw
    and roll as well, so out-of-range pitch raises instead).
    """

    x: float
    y: float
    z: float
    yaw: float
    pitch: float
    roll: float

    def __post_init__(self):
        x, y, z, yaw, pitch, roll = _checked(
            [self.x, self.y, self.z, self.yaw, self.pitch, self.roll],
            "EulerPose: x, y, z, yaw, pitch, roll", (6,)).tolist()
        if abs(pitch) > 0.5 * math.pi + 1e-9:
            raise GeometryError("EulerPose: pitch outside [-pi/2, pi/2]")
        object.__setattr__(self, "x", x)
        object.__setattr__(self, "y", y)
        object.__setattr__(self, "z", z)
        object.__setattr__(self, "yaw", _wrap(yaw))
        object.__setattr__(self, "pitch", min(0.5 * math.pi, max(-0.5 * math.pi, pitch)))
        object.__setattr__(self, "roll", _wrap(roll))

    @property
    def vec(self):
        return np.array([self.x, self.y, self.z, self.yaw, self.pitch, self.roll])

    @classmethod
    def from_vec(cls, v):
        v = _checked(v, "EulerPose.from_vec: v", (6,))
        return cls(v[0], v[1], v[2], v[3], v[4], v[5])


@dataclass(frozen=True)
class QuatPose:
    """Pose as translation plus unit quaternion."""

    x: float
    y: float
    z: float
    q: Quaternion

    def __post_init__(self):
        x, y, z = _checked([self.x, self.y, self.z], "QuatPose: x, y, z", (3,)).tolist()
        object.__setattr__(self, "x", x)
        object.__setattr__(self, "y", y)
        object.__setattr__(self, "z", z)
        if abs(_typed(self.q, "QuatPose: q", Quaternion).norm - 1.0) > 1e-6:
            raise GeometryError("QuatPose: quaternion is not unit length")

    @property
    def vec(self):
        return np.concatenate([[self.x, self.y, self.z], self.q.vec])

    @classmethod
    def from_vec(cls, v):
        v = _checked(v, "QuatPose.from_vec: v", (7,))
        return cls(v[0], v[1], v[2], Quaternion(v[3], v[4], v[5], v[6]))


@dataclass(frozen=True)
class _Homogeneous:
    """A pose as a (k + 1)x(k + 1) homogeneous matrix, k = _K.

    The bottom row must be exactly (0, ..., 0, 1); the rotation block must
    be orthonormal (Frobenius defect below 1e-9) with determinant +1.
    """

    mat: np.ndarray

    def __post_init__(self):
        name, k = type(self).__name__, self._K
        m = _rigid(_checked(self.mat, name + ": matrix", (k + 1, k + 1)).copy(), name, k)
        m.setflags(write=False)
        object.__setattr__(self, "mat", m)

    @property
    def rotation(self):
        return self.mat[:self._K, :self._K].copy()

    @property
    def translation(self):
        return self.mat[:self._K, self._K].copy()

    @classmethod
    def identity(cls):
        return cls(np.eye(cls._K + 1))

    @classmethod
    def _trusted(cls, m):
        """A pose holding m without the constructor's checks.

        Only for a read-only float matrix that is rigid by construction or
        has passed :func:`_rigid_checks`; the batched readers, the solver's
        unpacking and the Jacobian catalog use it so that they validate a
        whole stack at once.
        """
        p = object.__new__(cls)
        object.__setattr__(p, "mat", m)
        return p


@dataclass(frozen=True)
class HomPose(_Homogeneous):
    """Pose as a 4x4 homogeneous matrix.

    The bottom row must be exactly (0, 0, 0, 1); the rotation block must
    be orthonormal (Frobenius defect below 1e-9) with determinant +1.
    """

    _K = 3

    @property
    def vec12(self):
        return self.mat[:3, :4].reshape(-1, order="F").copy()

    @classmethod
    def from_rt(cls, r, t):
        m = np.eye(4)
        m[:3, :3] = _checked(r, "HomPose.from_rt: r", (3, 3))
        m[:3, 3] = _checked(t, "HomPose.from_rt: t", (3,))
        return cls(m)

    @classmethod
    def from_vec12(cls, v):
        m = np.eye(4)
        m[:3, :4] = _checked(v, "HomPose.from_vec12: v", (12,)).reshape((3, 4), order="F")
        return cls(m)


@dataclass(frozen=True)
class HomPose2(_Homogeneous):
    """Planar pose as a 3x3 homogeneous matrix."""

    _K = 2

    @property
    def angle(self):
        return float(np.arctan2(self.mat[1, 0], self.mat[0, 0]))

    @classmethod
    def from_xyt(cls, x, y, theta):
        x, y, theta = _checked([x, y, theta], "HomPose2.from_xyt: x, y, theta", (3,)).tolist()
        c, s = np.cos(theta), np.sin(theta)
        return cls(np.array([[c, -s, x], [s, c, y], [0.0, 0.0, 1.0]]))


# the rigidity tests' messages, after "<name>: ", by the rotation's size k
_BOTTOM = {k: "bottom row must be (%s1)" % ("0, " * k) for k in (2, 3)}
_ORTHO = "rotation block is not orthonormal"
_DET = "rotation block must have determinant +1"


def _rigid_checks(m, name=None, k=None):
    """The rigidity tests of HomPose (k = 3) or HomPose2 (k = 2) on a stack.

    m is (N, k + 1, k + 1), poses; (N, k, k + 1), their top blocks; or
    (N, k, k), rotations; k defaults to that of poses.  Returns a list of
    (pass mask, message) in the order the constructor applies them, for
    :func:`_first_failure`: finite entries, the bottom row (0, ..., 0, 1)
    where m has one, a Frobenius defect of R^T R - I below 1e-9, and a
    determinant within 1e-9 of +1 (k = 3) or above 0 (k = 2).  Each
    message starts with name, by default the pose type's.
    """
    k = k or m.shape[-1] - 1
    name = name or ("HomPose" if k == 3 else "HomPose2")
    r = m[:, :k, :k]
    with np.errstate(invalid="ignore", over="ignore"):
        ortho = np.linalg.norm(np.swapaxes(r, 1, 2) @ r - np.eye(k), axis=(1, 2)) < 1e-9
        det = np.linalg.det(r)
    return [(np.isfinite(m).all(axis=(1, 2)),
             "%s: matrix must be a finite %dx%d" % (name, *m.shape[1:])),
            # a rotation or a top block has no bottom row to fail
            ((m[:, k:] == np.eye(m.shape[2])[-1]).all(axis=(1, 2)),
             name + ": " + _BOTTOM[k]),
            (ortho, name + ": " + _ORTHO),
            (np.abs(det - 1.0) < 1e-9 if k == 3 else det > 0.0, name + ": " + _DET)]


def _rigid(m, name, k):
    """m, once each of its matrices passes the rigidity tests of HomPose
    (k = 3) or HomPose2 (k = 2), with their tolerances.

    m is a finite float array of one of :func:`_rigid_checks`' shapes,
    without N for one matrix or with any stack axes.  A stack goes through
    :func:`_rigid_checks`; one matrix takes the same tests in scalar form,
    at about a third of the cost of a stack of one.  Entries whose
    products overflow fail the orthonormality test, without a numpy
    warning.

    Raises
    ------
    GeometryError
        "<name>: <test's message>", with the stack index after name when
        m is a stack.
    """
    if m.ndim > 2:
        fault = _first_failure(_rigid_checks(m.reshape((-1,) + m.shape[-2:]), name, k))
        if fault:
            at = ", ".join(str(int(i)) for i in np.unravel_index(fault[0], m.shape[:-2]))
            raise GeometryError("%s[%s]%s" % (name, at, fault[1][len(name):]))
        return m
    r = m[:k, :k]
    with np.errstate(over="ignore", invalid="ignore"):
        if len(m) > k and m[k].tolist() != [0.0] * k + [1.0]:
            fault = _BOTTOM[k]
        elif not np.linalg.norm(r.T @ r - _EYE3[:k, :k]) < 1e-9:
            fault = _ORTHO
        elif not (abs(np.linalg.det(r) - 1.0) < 1e-9 if k == 3 else np.linalg.det(r) > 0.0):
            fault = _DET
        else:
            return m
    raise GeometryError("%s: %s" % (name, fault))


def _first_failure(checks):
    """(row, message) of the first row failing any of checks, else None.

    checks is a list of (pass mask, message) in the order the tests apply
    to one row; the message is that of the row's first failed test.
    """
    ok = np.logical_and.reduce([passed for passed, _ in checks])
    if ok.all():
        return None
    row = int(np.argmin(ok))
    return row, next(msg for passed, msg in checks if not passed[row])


_KIND_DIM = {"ypr": 6, "quat": 7, "matrix": 12}


_POSE_TYPES = (EulerPose, QuatPose, HomPose)


def pose_kind(p):
    """Parameterization tag ('ypr' | 'quat' | 'matrix') of a pose value."""
    if isinstance(p, EulerPose):
        return "ypr"
    if isinstance(p, QuatPose):
        return "quat"
    _typed(p, "pose_kind: p", _POSE_TYPES)
    return "matrix"


def pose_param_vector(p):
    """Flat parameter vector of a pose (length 6, 7 or 12)."""
    if isinstance(_typed(p, "pose_param_vector: p", _POSE_TYPES), HomPose):
        return p.vec12
    return p.vec


def _checked_covariance(c, owner):
    """The finite square c symmetrized and read-only, after the Gaussian types' tests.

    Symmetric to 1e-12, and positive semidefinite: the smallest
    eigenvalue must be >= -1e-10 * max(1, the largest), so unit-scale
    covariances get an absolute tolerance and large ones a relative one,
    as rounding leaves the zero eigenvalues of a rank-deficient matrix
    at about 1e-16 of its scale.  The symmetrized matrix and its
    eigenvalues must be finite, as entries near the float limit overflow
    in either.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        if np.max(np.abs(c - c.T)) > 1e-12:
            raise GeometryError("%s: covariance is not symmetric" % owner)
        c = 0.5 * (c + c.T)
    w = np.linalg.eigvalsh(c) if np.isfinite(c).all() else None
    if w is None or not np.isfinite(w).all():
        raise GeometryError("%s: covariance is too large to symmetrize and decompose" % owner)
    if w[0] < -1e-10 * max(1.0, w[-1]):
        raise GeometryError("%s: covariance has a significantly negative eigenvalue" % owner)
    c.setflags(write=False)
    return c


@dataclass(frozen=True)
class GaussianPose:
    """Gaussian over one pose parameterization: mean pose + covariance.

    The covariance dimension follows the parameterization (6 for Euler,
    7 for quaternion, 12 for the flattened matrix).  It must be symmetric
    to 1e-12 and positive semidefinite up to -1e-10 * max(1, largest
    eigenvalue) on the spectrum; the stored matrix is re-symmetrized
    exactly.
    """

    mean: object
    cov: np.ndarray

    def __post_init__(self):
        kind = pose_kind(_typed(self.mean, "GaussianPose: mean", _POSE_TYPES))
        dim = _KIND_DIM[kind]
        c = _checked(self.cov, "GaussianPose: covariance", (dim, dim))
        object.__setattr__(self, "cov", _checked_covariance(c, "GaussianPose"))

    @property
    def kind(self):
        return pose_kind(self.mean)


# ---------------------------------------------------------------------------
# raw scalar kernels (no type validation; shared with the numeric checks)

def _quat_components_from_angles(yaw, pitch, roll):
    """Half-angle product formulas, without the canonical sign flip."""
    cy, sy = np.cos(0.5 * yaw), np.sin(0.5 * yaw)
    cp, sp = np.cos(0.5 * pitch), np.sin(0.5 * pitch)
    cr, sr = np.cos(0.5 * roll), np.sin(0.5 * roll)
    return np.array([
        cr * cp * cy + sr * sp * sy,
        sr * cp * cy - cr * sp * sy,
        cr * sp * cy + sr * cp * sy,
        cr * cp * sy - sr * sp * cy,
    ])


def _rotation_from_angles(yaw, pitch, roll):
    cy, sy = np.cos(yaw), np.sin(yaw)
    cp, sp = np.cos(pitch), np.sin(pitch)
    cr, sr = np.cos(roll), np.sin(roll)
    return np.array([
        [cy * cp, cy * sp * sr - sy * cr, cy * sp * cr + sy * sr],
        [sy * cp, sy * sp * sr + cy * cr, sy * sp * cr - cy * sr],
        [-sp, cp * sr, cp * cr],
    ])


def _rotation_from_unit_quat(qr, qx, qy, qz):
    return np.array([
        [qr * qr + qx * qx - qy * qy - qz * qz,
         2.0 * (qx * qy - qr * qz),
         2.0 * (qz * qx + qr * qy)],
        [2.0 * (qx * qy + qr * qz),
         qr * qr - qx * qx + qy * qy - qz * qz,
         2.0 * (qy * qz - qr * qx)],
        [2.0 * (qz * qx - qr * qy),
         2.0 * (qy * qz + qr * qx),
         qr * qr - qx * qx - qy * qy + qz * qz],
    ])


def _angles_from_rotation(r):
    """(yaw, pitch, roll) from a 3x3 array, defined entrywise (no checks).

    The one Euler extraction: matrix_to_ypr, quat_to_ypr and
    compose_pose_ypr read their angles here.  Works on slightly
    non-orthonormal input.  Where r00^2 + r10^2 <= _POLE_K (|pitch| within
    1e-6 of pi/2, the one band where :func:`_angles_rate`, and so every
    Euler-angle Jacobian, raises), rounding in the entries of size
    cos(pitch) decides yaw and roll apart, so yaw -+ roll is read from
    entries of size 1 + |sin(pitch)| instead, and the rebuilt rotation
    keeps r to rounding.  Nearer than 1e-9, roll is fixed to zero, which
    moves the rebuilt rotation by a few times that distance.
    """
    (r00, r01, r02), (r10, r11, r12), (r20, r21, r22) = r.tolist()
    k = r00 * r00 + r10 * r10
    sk = np.sqrt(k)
    pitch = np.arctan2(-r20, sk)
    if k > _POLE_K:
        return np.arctan2(r10, r00), pitch, np.arctan2(r21, r22)
    roll = 0.0 if sk < 1e-9 else np.arctan2(r21, r22)
    if r20 < 0.0:  # pitch near +pi/2: (1 + sin(pitch)) (cos, sin)(yaw - roll)
        return roll + np.arctan2(r12 - r01, r02 + r11), pitch, roll
    # pitch near -pi/2: (1 - sin(pitch)) (cos, sin)(yaw + roll)
    return np.arctan2(-r01 - r12, r11 - r02) - roll, pitch, roll


def _angles_rate(r):
    """3x9 derivative of :func:`_angles_from_rotation` by vec(r) (column
    major) at a 3x3 array r: the one Euler-angle derivative, which
    jacobian_ypr_wrt_matrix, jacobian_quat_to_ypr and compose_pose_ypr
    chain.

    Raises SingularConfigurationError where the extraction takes its pole
    branch (r00^2 + r10^2 <= _POLE_K) or the roll's atan2 has no
    derivative (r21^2 + r22^2 <= _POLE_K); on a rotation both sums are
    cos^2(pitch).
    """
    (r00, _, _), (r10, _, _), (r20, r21, r22) = r.tolist()
    k = r00 * r00 + r10 * r10
    m33 = r21 * r21 + r22 * r22
    if k <= _POLE_K or m33 <= _POLE_K:
        raise SingularConfigurationError(
            "Euler-angle Jacobian undefined within 1e-6 rad of |pitch| = pi/2")
    sk = math.sqrt(k)
    kp = k + r20 * r20
    ang = np.zeros((3, 9))
    ang[0, :2] = -r10 / k, r00 / k
    ang[1, :3] = r00 * r20 / (sk * kp), r10 * r20 / (sk * kp), -sk / kp
    ang[2, 5::3] = r22 / m33, -r21 / m33
    return ang


# Largest-pivot quaternion extraction.  With pivot k (the largest of tr,
# r00, r11, r22), q[k] = s / 4 and every other q[j] = (r[P] + SIGN * r[Q]) / s,
# indices into the row-major entries of r.  The radicand s^2 / 4 is 1 + tr,
# or 1 + DIAG . (r00, r11, r22) for a diagonal pivot; the four radicands sum
# to 4 and the pivot is the largest, so s >= 2 for any finite input.
_PIVOT_P = np.array([[0, 7, 2, 3], [7, 0, 1, 2], [2, 1, 0, 5], [3, 2, 5, 0]])
_PIVOT_Q = np.array([[0, 5, 6, 1], [5, 0, 3, 6], [6, 3, 0, 7], [1, 6, 7, 0]])
_PIVOT_SIGN = np.array([[0.0, -1.0, -1.0, -1.0], [-1.0, 0.0, 1.0, 1.0],
                        [-1.0, 1.0, 0.0, 1.0], [-1.0, 1.0, 1.0, 0.0]])
_PIVOT_DIAG = np.array([[1.0, 1.0, 1.0], [1.0, -1.0, -1.0],
                        [-1.0, 1.0, -1.0], [-1.0, -1.0, 1.0]])
# the same tables per pivot as Python numbers, for one rotation
_PIVOT_ONE = [list(zip(*t)) for t in zip(_PIVOT_P.tolist(), _PIVOT_Q.tolist(),
                                          _PIVOT_SIGN.tolist())]
_DIAG_ONE = _PIVOT_DIAG.tolist()
# row-major entry index of each column-major vec(R) position
_VEC_ORDER = np.arange(9).reshape(3, 3).T.ravel()


# per pivot k, the derivatives by vec(R) of s^2/4 (4, 9), whose diagonal
# positions are the same in either order, and of the four numerators
# r[P] + SIGN r[Q], with s^2/4 in the pivot's row (4, 4, 9)
_RATE_RAD = np.zeros((4, 9))
_RATE_RAD[:, [0, 4, 8]] = _PIVOT_DIAG
_RATE_NUM = np.eye(9)[_PIVOT_P] + _PIVOT_SIGN[..., None] * np.eye(9)[_PIVOT_Q]
_RATE_NUM[np.arange(4), np.arange(4)] = _RATE_RAD
_RATE_NUM, _RATE_RAD = _const(_RATE_NUM[..., _VEC_ORDER]), _const(_RATE_RAD)


def _pivot_one(f):
    """Pivot k, s and the quaternion before the sign flip of one rotation,
    from its 9 row-major entries as Python floats.

    The operations of :func:`_quat_from_rotation` on one row, in the same
    order, so the bits are the same; a numpy call per operation would cost
    ten times more on a single rotation.
    """
    tr = f[0] + f[4] + f[8]
    c = [tr, f[0], f[4], f[8]]
    k = c.index(max(c))
    d = _DIAG_ONE[k]
    s = np.sqrt(1.0 + tr if k == 0 else 1.0 + d[0] * f[0] + d[1] * f[4] + d[2] * f[8]) * 2.0
    q = [(f[p] + g * f[m]) / s for p, m, g in _PIVOT_ONE[k]]
    q[k] = 0.25 * s
    return k, s, q


def _quat_from_rotation(r):
    """Unit quaternion (scalar-first, canonical qr >= 0) of a rotation.

    r is (3, 3) or a stack (..., 3, 3); the result is (4,) or (..., 4).
    Largest-pivot square-root form: s = 2 sqrt(1 + tr) or, for a diagonal
    pivot, 2 sqrt(1 + r_kk - the other two).  It is algebraic only, so it
    stays exact near gimbal orientations and half turns, and keeps g2o
    write->read cycles stable to the last printed digit, which a route
    through Euler angles cannot.  Off the rotation manifold the same
    formulas apply entrywise and the norm is not one.
    """
    r = np.asarray(r, dtype=float)
    if r.shape == (3, 3):
        q = np.array(_pivot_one(r.ravel().tolist())[2])
        return -q if q[0] < 0.0 else q
    f = r.reshape(-1, 9)
    c = f[:, [0, 0, 4, 8]]  # (tr, r00, r11, r22), tr filled in below
    tr = c[:, 1] + c[:, 2] + c[:, 3]
    c[:, 0] = tr
    k = c.argmax(axis=1)
    sd = _PIVOT_DIAG[k]
    s = np.sqrt(np.where(k == 0, 1.0 + tr, 1.0 + sd[:, 0] * c[:, 1] + sd[:, 1] * c[:, 2]
                         + sd[:, 2] * c[:, 3])) * 2.0
    rows = np.arange(len(f))[:, None]
    q = (f[rows, _PIVOT_P[k]] + _PIVOT_SIGN[k] * f[rows, _PIVOT_Q[k]]) / s[:, None]
    q[rows[:, 0], k] = 0.25 * s
    q[q[:, 0] < 0.0] *= -1.0
    return q.reshape(r.shape[:-2] + (4,))


def _quat_from_rotation_rate(r):
    """:func:`_quat_from_rotation` of one 3x3 r and its 4x9 derivative.

    Columns follow vec(r) (column-major) and the entries are free, so the
    derivative holds off the rotation manifold too.  It differentiates the
    pivot branch and the sign that r selects: with d(s^2/4) = DIAG . d(diag
    of r), dq[j] = (d(r[P] + SIGN r[Q]) - 2 q[j] d(s^2/4) / s) / s, and
    d(s^2/4) / (2 s) for the pivot component itself.
    """
    k, s, q = _pivot_one(np.asarray(r, dtype=float).ravel().tolist())
    q = np.array(q)
    sign = -1.0 if q[0] < 0.0 else 1.0
    return sign * q, (sign / s) * (_RATE_NUM[k] - (2.0 / s) * (q[:, None] * _RATE_RAD[k]))


def _norm_jacobian(qvec):
    """4x4 derivative of q -> q/|q|."""
    n2 = float(np.dot(qvec, qvec))
    return (n2 * _EYE4 - qvec[:, None] * qvec) / (n2 * math.sqrt(n2))


# ---------------------------------------------------------------------------
# conversions

def quat_normalize(q):
    """Normalize a quaternion to unit length.

    Returns
    -------
    (Quaternion, (4, 4) ndarray)
        The unit quaternion and the derivative of q -> q/|q| at the
        input.  Idempotent on already-unit input.  Where the squared norm
        overflows, they are those of q / max |q_i|, the derivative divided
        by max |q_i|.

    Raises
    ------
    GeometryError
        For (numerically) zero norm.
    """
    u, jac = _normalized(_typed(q, "quat_normalize: q", Quaternion).vec)
    return Quaternion(u[0], u[1], u[2], u[3]), jac


def _normalized(v):
    """:func:`quat_normalize` of a finite 4-vector v, as the unit 4-vector
    and its derivative, without the Quaternion."""
    with np.errstate(over="ignore"):
        n = np.linalg.norm(v)
    if n == np.inf:  # q / max |q_i| has the same direction and a finite norm
        u, jac = _normalized(v / np.abs(v).max())
        return u, jac / np.abs(v).max()
    if n < 1e-12:
        raise GeometryError("quat_normalize: zero-norm quaternion")
    return v / n, _norm_jacobian(v)


def _quat_to_matrix_rows(t, q):
    """Batched :func:`quat_to_matrix`: (N, 4, 4) poses of translations t and
    quaternions q (scalar first), and the tests of Quaternion (finite q),
    quat_normalize (norm not below 1e-12), HomPose.from_rt (finite t) and
    HomPose, in that order, for :func:`_first_failure`.  As in
    quat_normalize, a finite q whose squared norm overflows is normed as
    q / max |q_i|."""
    finite = np.isfinite(q).all(axis=1)
    q = np.where(q[:, :1] < 0.0, -q, q)
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        norm = _row_norms(q)
        big = finite & (norm == np.inf)
        q[big] /= np.abs(q[big]).max(axis=1, keepdims=True)
        norm[big] = _row_norms(q[big])
        u = q / norm[:, None]
    m = np.zeros((len(q), 4, 4))
    m[:, :3, :3] = np.moveaxis(_rotation_from_unit_quat(*u.T), -1, 0)
    m[:, :3, 3] = t
    m[:, 3, 3] = 1.0
    return m, [(finite, _QUATERNION_FIELDS + " must be a finite 4-vector"),
               (norm >= 1e-12, "quat_normalize: zero-norm quaternion"),
               (np.isfinite(t).all(axis=1), "HomPose.from_rt: t must be a finite 3-vector"),
               *_rigid_checks(m)]


def ypr_to_quat(p):
    """Euler pose -> quaternion pose (canonical sign)."""
    _typed(p, "ypr_to_quat: p", EulerPose)
    c = _quat_components_from_angles(p.yaw, p.pitch, p.roll)
    return QuatPose(p.x, p.y, p.z, Quaternion(c[0], c[1], c[2], c[3]))


def jacobian_ypr_to_quat(p):
    """7x6 derivative of :func:`ypr_to_quat`.

    Differentiates the half-angle product formulas themselves; the
    canonical sign flip is a discrete representative choice and is not
    part of the map.
    """
    _typed(p, "jacobian_ypr_to_quat: p", EulerPose)
    cy, sy = math.cos(0.5 * p.yaw), math.sin(0.5 * p.yaw)
    cp, sp = math.cos(0.5 * p.pitch), math.sin(0.5 * p.pitch)
    cr, sr = math.cos(0.5 * p.roll), math.sin(0.5 * p.roll)
    ccc = cr * cp * cy
    ccs = cr * cp * sy
    csc = cr * sp * cy
    css = cr * sp * sy
    scc = sr * cp * cy
    scs = sr * cp * sy
    ssc = sr * sp * cy
    sss = sr * sp * sy
    dq = 0.5 * np.array([
        [ssc - ccs, scs - csc, css - scc],
        [-(csc + scs), -(ssc + ccs), ccc + sss],
        [scc - css, ccc - sss, ccs - ssc],
        [ccc + sss, -(css + scc), -(csc + scs)],
    ])
    out = np.zeros((7, 6))
    out[:3, :3] = _EYE3
    out[3:, 3:] = dq
    return out


def quat_to_ypr(p):
    """Quaternion pose -> Euler pose: matrix_to_ypr(quat_to_matrix(p)).

    The quaternion is normalized internally, and the angles are read off
    its rotation matrix by the extraction matrix_to_ypr uses, pole branch
    included, so both give the same bits.
    """
    u = _normalized(_typed(p, "quat_to_ypr: p", QuatPose).q.vec)[0]
    yaw, pitch, roll = _angles_from_rotation(_rotation_from_unit_quat(*u.tolist()))
    return EulerPose(p.x, p.y, p.z, yaw, pitch, roll)


def jacobian_quat_to_ypr(p):
    """6x7 derivative of :func:`quat_to_ypr` (normalization chained).

    The derivative of the route the value takes:
    jacobian_ypr_wrt_matrix(quat_to_matrix(p)) @ jacobian_matrix_wrt_quat(p),
    the extraction's rate at R(q/|q|) times d vec(R) by q.

    Raises
    ------
    SingularConfigurationError
        Where jacobian_ypr_wrt_matrix of the same rotation raises: |pitch|
        within 1e-6 rad of pi/2, where the extraction takes its pole branch.
    """
    u, jn = _normalized(_typed(p, "jacobian_quat_to_ypr: p", QuatPose).q.vec)
    out = np.zeros((6, 7))
    out[:3, :3] = _EYE3
    out[3:, 3:] = _angles_rate(_rotation_from_unit_quat(*u.tolist())) @ (_QUAT_RATE @ u) @ jn
    return out


def ypr_to_matrix(p):
    """Euler pose -> homogeneous matrix pose."""
    _typed(p, "ypr_to_matrix: p", EulerPose)
    return HomPose.from_rt(_rotation_from_angles(p.yaw, p.pitch, p.roll),
                           [p.x, p.y, p.z])


def quat_to_matrix(p):
    """Quaternion pose -> homogeneous matrix pose (normalizes internally)."""
    u = _normalized(_typed(p, "quat_to_matrix: p", QuatPose).q.vec)[0]
    return HomPose.from_rt(_rotation_from_unit_quat(*u.tolist()), [p.x, p.y, p.z])


def matrix_to_ypr(m):
    """Homogeneous matrix pose -> Euler pose."""
    r = _typed(m, "matrix_to_ypr: m", HomPose).mat
    yaw, pitch, roll = _angles_from_rotation(r[:3, :3])
    return EulerPose(r[0, 3], r[1, 3], r[2, 3], yaw, pitch, roll)


def matrix_to_quat(m):
    """Homogeneous matrix pose -> quaternion pose (largest-pivot extraction)."""
    r = _typed(m, "matrix_to_quat: m", HomPose).mat
    qr, qx, qy, qz = _quat_from_rotation(r[:3, :3])
    return QuatPose(r[0, 3], r[1, 3], r[2, 3], Quaternion(qr, qx, qy, qz))


def jacobian_ypr_wrt_matrix(m):
    """6x12 derivative of :func:`matrix_to_ypr` in the 12-vector view.

    Rows are (x, y, z, yaw, pitch, roll); columns are the column-major
    entries of the top 3x4 block (rotation columns, then translation).

    Raises
    ------
    SingularConfigurationError
        Within 1e-6 rad of |pitch| = pi/2, where the extraction takes its
        pole branch (first column within 1e-6 of the z axis), or where the
        third row's yz part is as short.
    """
    r = _checked(m, "jacobian_ypr_wrt_matrix: m", *_POSE)
    out = np.zeros((6, 12))
    out[:3, 9:] = _EYE3
    out[3:, :9] = _angles_rate(r[:3, :3])
    return out


def _rotation_ypr_rate(yaw, pitch, roll):
    """9x3 derivative of vec(R(yaw, pitch, roll)), column-major vec."""
    cy, sy = np.cos(yaw), np.sin(yaw)
    cp, sp = np.cos(pitch), np.sin(pitch)
    cr, sr = np.cos(roll), np.sin(roll)
    d_yaw = [
        [-sy * cp, -sy * sp * sr - cy * cr, -sy * sp * cr + cy * sr],
        [cy * cp, cy * sp * sr - sy * cr, cy * sp * cr + sy * sr],
        [0.0, 0.0, 0.0],
    ]
    d_pitch = [
        [-cy * sp, cy * cp * sr, cy * cp * cr],
        [-sy * sp, sy * cp * sr, sy * cp * cr],
        [-cp, -sp * sr, -sp * cr],
    ]
    d_roll = [
        [0.0, cy * sp * cr + sy * sr, -cy * sp * sr + sy * cr],
        [0.0, sy * sp * cr - cy * sr, -sy * sp * sr - cy * cr],
        [0.0, cp * cr, -cp * sr],
    ]
    # axes (angle, row, col) -> (col, row, angle): entry (i, j) of R lands
    # on row 3j + i, the column-major vec index
    return np.array([d_yaw, d_pitch, d_roll]).transpose(2, 1, 0).reshape(9, 3)


def jacobian_matrix_wrt_ypr(p):
    """12x6 derivative of :func:`ypr_to_matrix` in the 12-vector view."""
    _typed(p, "jacobian_matrix_wrt_ypr: p", EulerPose)
    out = np.zeros((12, 6))
    out[9:, :3] = _EYE3
    out[:9, 3:] = _rotation_ypr_rate(p.yaw, p.pitch, p.roll)
    return out


def _rotation_quat_rate(qr, qx, qy, qz):
    """9x4 derivative of vec(R(q)) for the unit-quaternion quadratic form.

    The definition of :data:`_QUAT_RATE`, through which the library
    evaluates it.
    """
    rows = [
        (2 * qr, 2 * qx, -2 * qy, -2 * qz),   # R11
        (2 * qz, 2 * qy, 2 * qx, 2 * qr),     # R21
        (-2 * qy, 2 * qz, -2 * qr, 2 * qx),   # R31
        (-2 * qz, 2 * qy, 2 * qx, -2 * qr),   # R12
        (2 * qr, -2 * qx, 2 * qy, -2 * qz),   # R22
        (2 * qx, 2 * qr, 2 * qz, 2 * qy),     # R32
        (2 * qy, 2 * qz, 2 * qr, 2 * qx),     # R13
        (-2 * qx, -2 * qr, 2 * qz, 2 * qy),   # R23
        (2 * qr, -2 * qx, -2 * qy, 2 * qz),   # R33
    ]
    return np.array(rows, dtype=float)


# (9, 4, 4): _rotation_quat_rate(*q) is _QUAT_RATE @ q, each entry one
# table entry (+-2) times one component of q, exactly
_QUAT_RATE = _const(np.stack([_rotation_quat_rate(*e) for e in np.eye(4)], axis=-1))


def _rotation_raw_quat_rate(q):
    """9x4 derivative of vec(R(q / |q|)) at a raw, nonzero 4-vector q."""
    return (_QUAT_RATE @ (q / math.sqrt(float(q @ q)))) @ _norm_jacobian(q)


def jacobian_matrix_wrt_quat(p):
    """12x7 derivative of :func:`quat_to_matrix` (normalization chained)."""
    out = np.zeros((12, 7))
    out[9:, :3] = _EYE3
    out[:9, 3:] = _rotation_raw_quat_rate(_typed(p, "jacobian_matrix_wrt_quat: p", QuatPose).q.vec)
    return out


def convert_gaussian(src, target):
    """Convert a Gaussian pose to another parameterization.

    First-order propagation: the mean is converted exactly, the
    covariance maps through the conversion Jacobian (J Sigma J^T,
    re-symmetrized).

    Parameters
    ----------
    src : GaussianPose
    target : str
        'ypr', 'quat' or 'matrix'.
    """
    if not isinstance(target, str) or target not in _KIND_DIM:
        raise GeometryError("convert_gaussian: unknown target %r" % (target,))
    kind = _typed(src, "convert_gaussian: src", GaussianPose).kind
    if kind == target:
        return GaussianPose(src.mean, src.cov)
    convert, rate = _CONVERSIONS[(kind, target)]
    mean, jac = convert(src.mean), rate(src.mean)
    cov = jac @ src.cov @ jac.T
    return GaussianPose(mean, 0.5 * (cov + cov.T))


def _ypr_to_quat_mean_rate(p):
    """The 7x6 Jacobian of the mean ypr_to_quat(p) returns.

    jacobian_ypr_to_quat differentiates the half-angle formulas at p, and
    the mean is that representative or its negative (the canonical
    qr >= 0 choice); a covariance propagated around the mean needs the
    derivative of the mean's sign, or the translation-rotation cross terms
    come out wrong.
    """
    jac = jacobian_ypr_to_quat(p)
    if _quat_components_from_angles(p.yaw, p.pitch, p.roll)[0] < 0.0:
        jac[3:] = -jac[3:]
    return jac


def _matrix_to_quat_rate(m):
    """7x12 derivative of :func:`matrix_to_quat` in the 12-vector view."""
    jac = np.zeros((7, 12))
    jac[:3, 9:] = _EYE3
    jac[3:, :9] = _quat_from_rotation_rate(m.mat[:3, :3])[1]
    return jac


# (source, target): (conversion, its Jacobian), both of the source pose;
# convert_gaussian and ``rigidkit convert`` read this table
_CONVERSIONS = {
    ("ypr", "quat"): (ypr_to_quat, _ypr_to_quat_mean_rate),
    ("quat", "ypr"): (quat_to_ypr, jacobian_quat_to_ypr),
    ("ypr", "matrix"): (ypr_to_matrix, jacobian_matrix_wrt_ypr),
    ("matrix", "ypr"): (matrix_to_ypr, jacobian_ypr_wrt_matrix),
    ("quat", "matrix"): (quat_to_matrix, jacobian_matrix_wrt_quat),
    ("matrix", "quat"): (matrix_to_quat, _matrix_to_quat_rate),
}
