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
from .matderiv import _POSE, _checked

_GIMBAL_DELTA = 0.5 - 1e-7


def wrap_angle(a):
    """Wrap an angle to (-pi, pi]."""
    r = math.remainder(float(a), 2.0 * math.pi)
    if r <= -math.pi:
        r = math.pi
    return r


# ---------------------------------------------------------------------------
# types

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
        vals = [float(self.qr), float(self.qx), float(self.qy), float(self.qz)]
        if not all(math.isfinite(v) for v in vals):
            raise GeometryError("Quaternion: non-finite component")
        if vals[0] < 0.0:
            vals = [-v for v in vals]
        for name, v in zip(("qr", "qx", "qy", "qz"), vals):
            object.__setattr__(self, name, v)

    @property
    def vec(self):
        return np.array([self.qr, self.qx, self.qy, self.qz])

    @property
    def norm(self):
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
        vals = [float(getattr(self, n)) for n in ("x", "y", "z", "yaw", "pitch", "roll")]
        if not all(math.isfinite(v) for v in vals):
            raise GeometryError("EulerPose: non-finite component")
        object.__setattr__(self, "x", vals[0])
        object.__setattr__(self, "y", vals[1])
        object.__setattr__(self, "z", vals[2])
        object.__setattr__(self, "yaw", wrap_angle(vals[3]))
        pitch = vals[4]
        if abs(pitch) > 0.5 * math.pi + 1e-9:
            raise GeometryError("EulerPose: pitch outside [-pi/2, pi/2]")
        pitch = min(0.5 * math.pi, max(-0.5 * math.pi, pitch))
        object.__setattr__(self, "pitch", pitch)
        object.__setattr__(self, "roll", wrap_angle(vals[5]))

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
        for n in ("x", "y", "z"):
            v = float(getattr(self, n))
            if not math.isfinite(v):
                raise GeometryError("QuatPose: non-finite translation")
            object.__setattr__(self, n, v)
        if abs(self.q.norm - 1.0) > 1e-6:
            raise GeometryError("QuatPose: quaternion is not unit length")

    @property
    def vec(self):
        return np.concatenate([[self.x, self.y, self.z], self.q.vec])

    @classmethod
    def from_vec(cls, v):
        v = _checked(v, "QuatPose.from_vec: v", (7,))
        return cls(v[0], v[1], v[2], Quaternion(v[3], v[4], v[5], v[6]))


def _trusted(cls, m):
    """A pose holding m without the constructor's checks.

    Only for a read-only float matrix that is rigid by construction or has
    passed :func:`_rigid_checks`; the batched readers and the solver's
    unpacking use it so that they validate a whole stack at once.
    """
    p = object.__new__(cls)
    object.__setattr__(p, "mat", m)
    return p


@dataclass(frozen=True)
class HomPose:
    """Pose as a 4x4 homogeneous matrix.

    The bottom row must be exactly (0, 0, 0, 1); the rotation block must
    be orthonormal (Frobenius defect below 1e-9) with determinant +1.
    """

    mat: np.ndarray

    def __post_init__(self):
        m = _checked(self.mat, "HomPose: matrix", (4, 4)).copy()
        if not (m[3, 0] == 0.0 and m[3, 1] == 0.0 and m[3, 2] == 0.0 and m[3, 3] == 1.0):
            raise GeometryError("HomPose: bottom row must be (0, 0, 0, 1)")
        r = m[:3, :3]
        if np.linalg.norm(r.T @ r - np.eye(3)) >= 1e-9:
            raise GeometryError("HomPose: rotation block is not orthonormal")
        if abs(np.linalg.det(r) - 1.0) >= 1e-9:
            raise GeometryError("HomPose: rotation block must have determinant +1")
        m.setflags(write=False)
        object.__setattr__(self, "mat", m)

    @property
    def rotation(self):
        return self.mat[:3, :3].copy()

    @property
    def translation(self):
        return self.mat[:3, 3].copy()

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

    @classmethod
    def identity(cls):
        return cls(np.eye(4))

    _trusted = classmethod(_trusted)


@dataclass(frozen=True)
class HomPose2:
    """Planar pose as a 3x3 homogeneous matrix."""

    mat: np.ndarray

    def __post_init__(self):
        m = _checked(self.mat, "HomPose2: matrix", (3, 3)).copy()
        if not (m[2, 0] == 0.0 and m[2, 1] == 0.0 and m[2, 2] == 1.0):
            raise GeometryError("HomPose2: bottom row must be (0, 0, 1)")
        r = m[:2, :2]
        if np.linalg.norm(r.T @ r - np.eye(2)) >= 1e-9:
            raise GeometryError("HomPose2: rotation block is not orthonormal")
        if np.linalg.det(r) <= 0.0:
            raise GeometryError("HomPose2: rotation block must have determinant +1")
        m.setflags(write=False)
        object.__setattr__(self, "mat", m)

    @property
    def rotation(self):
        return self.mat[:2, :2].copy()

    @property
    def translation(self):
        return self.mat[:2, 2].copy()

    @property
    def angle(self):
        return float(np.arctan2(self.mat[1, 0], self.mat[0, 0]))

    @classmethod
    def from_xyt(cls, x, y, theta):
        c, s = np.cos(theta), np.sin(theta)
        return cls(np.array([[c, -s, float(x)], [s, c, float(y)], [0.0, 0.0, 1.0]]))

    @classmethod
    def identity(cls):
        return cls(np.eye(3))

    _trusted = classmethod(_trusted)


def _rigid_checks(m):
    """The HomPose / HomPose2 constructor's tests on a stack m (N, n, n).

    Returns a list of (pass mask, message) in the order the constructor
    applies them, for :func:`_first_failure`; same tolerances.
    """
    k = m.shape[-1] - 1
    name = "HomPose" if k == 3 else "HomPose2"
    r = m[:, :k, :k]
    with np.errstate(invalid="ignore", over="ignore"):
        ortho = np.linalg.norm(np.swapaxes(r, 1, 2) @ r - np.eye(k), axis=(1, 2)) < 1e-9
        det = np.linalg.det(r)
    return [
        (np.isfinite(m).all(axis=(1, 2)),
         "%s: matrix must be a finite %dx%d" % (name, k + 1, k + 1)),
        ((m[:, k, :k] == 0.0).all(axis=1) & (m[:, k, k] == 1.0),
         name + ": bottom row must be (%s1)" % ("0, " * k)),
        (ortho, name + ": rotation block is not orthonormal"),
        (np.abs(det - 1.0) < 1e-9 if k == 3 else det > 0.0,
         name + ": rotation block must have determinant +1"),
    ]


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


def pose_kind(p):
    """Parameterization tag ('ypr' | 'quat' | 'matrix') of a pose value."""
    if isinstance(p, EulerPose):
        return "ypr"
    if isinstance(p, QuatPose):
        return "quat"
    if isinstance(p, HomPose):
        return "matrix"
    raise GeometryError("unknown pose type: %r" % (type(p).__name__,))


def pose_param_vector(p):
    """Flat parameter vector of a pose (length 6, 7 or 12)."""
    if isinstance(p, HomPose):
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
        kind = pose_kind(self.mean)
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

    Works on slightly non-orthonormal input; the degenerate branches fire
    when the (1,1)/(2,1) column part vanishes (|pitch| = pi/2).
    """
    k = r[0, 0] * r[0, 0] + r[1, 0] * r[1, 0]
    sk = np.sqrt(k)
    pitch = np.arctan2(-r[2, 0], sk)
    if sk < 1e-9:
        roll = 0.0
        if r[2, 0] < 0.0:  # pitch = +pi/2
            yaw = np.arctan2(r[1, 2], r[0, 2])
        else:
            yaw = np.arctan2(-r[1, 2], -r[0, 2])
    else:
        yaw = np.arctan2(r[1, 0], r[0, 0])
        roll = np.arctan2(r[2, 1], r[2, 2])
    return yaw, pitch, roll


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
    drad = np.zeros(9)
    drad[[0, 4, 8]] = _PIVOT_DIAG[k]
    num = np.zeros((4, 9))
    num[np.arange(4), _PIVOT_P[k]] = 1.0
    num[np.arange(4), _PIVOT_Q[k]] += _PIVOT_SIGN[k]
    num[k] = drad
    sign = -1.0 if q[0] < 0.0 else 1.0
    dq = (sign / s) * (num - (2.0 / s) * np.outer(q, drad))
    return sign * q, dq[:, _VEC_ORDER]


def _norm_jacobian(qvec):
    """4x4 derivative of q -> q/|q|."""
    n2 = float(np.dot(qvec, qvec))
    n = np.sqrt(n2)
    return (n2 * np.eye(4) - np.outer(qvec, qvec)) / (n2 * n)


def _ypr_rate_block(q):
    """3x4 derivative of the (yaw, pitch, roll) extraction at a unit q.

    Raises in the gimbal band where the Euler chart is singular.
    """
    qr, qx, qy, qz = q
    delta = qr * qy - qx * qz
    if abs(delta) > _GIMBAL_DELTA:
        raise SingularConfigurationError(
            "quaternion-to-Euler Jacobian undefined near |pitch| = pi/2")
    out = np.zeros((3, 4))
    n1 = 2.0 * (qr * qz + qx * qy)
    d1 = 1.0 - 2.0 * (qy * qy + qz * qz)
    dn1 = 2.0 * np.array([qz, qy, qx, qr])
    dd1 = np.array([0.0, 0.0, -4.0 * qy, -4.0 * qz])
    out[0] = (d1 * dn1 - n1 * dd1) / (n1 * n1 + d1 * d1)
    out[1] = 2.0 * np.array([qy, -qz, qr, -qx]) / np.sqrt(1.0 - 4.0 * delta * delta)
    n3 = 2.0 * (qr * qx + qy * qz)
    d3 = 1.0 - 2.0 * (qx * qx + qy * qy)
    dn3 = 2.0 * np.array([qx, qr, qz, qy])
    dd3 = np.array([0.0, -4.0 * qx, -4.0 * qy, 0.0])
    out[2] = (d3 * dn3 - n3 * dd3) / (n3 * n3 + d3 * d3)
    return out


# ---------------------------------------------------------------------------
# conversions

def quat_normalize(q):
    """Normalize a quaternion to unit length.

    Returns
    -------
    (Quaternion, (4, 4) ndarray)
        The unit quaternion and the derivative of q -> q/|q| at the
        input.  Idempotent on already-unit input.

    Raises
    ------
    GeometryError
        For (numerically) zero norm.
    """
    v = q.vec
    n = np.linalg.norm(v)
    if n < 1e-12:
        raise GeometryError("quat_normalize: zero-norm quaternion")
    u = v / n
    return Quaternion(u[0], u[1], u[2], u[3]), _norm_jacobian(v)


def _quat_to_matrix_rows(t, q):
    """Batched :func:`quat_to_matrix`: (N, 4, 4) poses of translations t and
    quaternions q (scalar first), with the tests of Quaternion, then
    quat_normalize, then HomPose in order for :func:`_first_failure`."""
    finite = np.isfinite(q).all(axis=1)
    q = np.where(q[:, :1] < 0.0, -q, q)
    # one norm call per row: a batched norm sums in another order, an ulp off
    norm = np.array([np.linalg.norm(row) for row in q])
    with np.errstate(invalid="ignore", divide="ignore"):
        u = q / norm[:, None]
    m = np.zeros((len(q), 4, 4))
    m[:, :3, :3] = np.moveaxis(_rotation_from_unit_quat(*u.T), -1, 0)
    m[:, :3, 3] = t
    m[:, 3, 3] = 1.0
    return m, [(finite, "Quaternion: non-finite component"),
               (norm >= 1e-12, "quat_normalize: zero-norm quaternion")] + _rigid_checks(m)


def ypr_to_quat(p):
    """Euler pose -> quaternion pose (canonical sign)."""
    c = _quat_components_from_angles(p.yaw, p.pitch, p.roll)
    return QuatPose(p.x, p.y, p.z, Quaternion(c[0], c[1], c[2], c[3]))


def jacobian_ypr_to_quat(p):
    """7x6 derivative of :func:`ypr_to_quat`.

    Differentiates the half-angle product formulas themselves; the
    canonical sign flip is a discrete representative choice and is not
    part of the map.
    """
    cy, sy = np.cos(0.5 * p.yaw), np.sin(0.5 * p.yaw)
    cp, sp = np.cos(0.5 * p.pitch), np.sin(0.5 * p.pitch)
    cr, sr = np.cos(0.5 * p.roll), np.sin(0.5 * p.roll)
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
    out[:3, :3] = np.eye(3)
    out[3:, 3:] = dq
    return out


def quat_to_ypr(p):
    """Quaternion pose -> Euler pose.

    The quaternion is normalized internally.  Within the gimbal band
    (|qr*qy - qx*qz| above 0.5 - 1e-7) the dedicated |pitch| = pi/2
    branches fire, with roll fixed to zero.
    """
    u, _ = quat_normalize(p.q)
    qr, qx, qy, qz = u.vec
    delta = qr * qy - qx * qz
    if delta <= -_GIMBAL_DELTA:
        yaw = 2.0 * np.arctan2(qx, qr)
        return EulerPose(p.x, p.y, p.z, yaw, -0.5 * np.pi, 0.0)
    if delta >= _GIMBAL_DELTA:
        yaw = -2.0 * np.arctan2(qx, qr)
        return EulerPose(p.x, p.y, p.z, yaw, 0.5 * np.pi, 0.0)
    yaw = np.arctan2(2.0 * (qr * qz + qx * qy), 1.0 - 2.0 * (qy * qy + qz * qz))
    pitch = np.arcsin(min(1.0, max(-1.0, 2.0 * delta)))
    roll = np.arctan2(2.0 * (qr * qx + qy * qz), 1.0 - 2.0 * (qx * qx + qy * qy))
    return EulerPose(p.x, p.y, p.z, yaw, pitch, roll)


def jacobian_quat_to_ypr(p):
    """6x7 derivative of :func:`quat_to_ypr` (normalization chained).

    Raises
    ------
    SingularConfigurationError
        In the gimbal band, where the Euler angles are not a chart.
    """
    u, jn = quat_normalize(p.q)
    block = _ypr_rate_block(u.vec) @ jn
    out = np.zeros((6, 7))
    out[:3, :3] = np.eye(3)
    out[3:, 3:] = block
    return out


def ypr_to_matrix(p):
    """Euler pose -> homogeneous matrix pose."""
    return HomPose.from_rt(_rotation_from_angles(p.yaw, p.pitch, p.roll),
                           [p.x, p.y, p.z])


def quat_to_matrix(p):
    """Quaternion pose -> homogeneous matrix pose (normalizes internally)."""
    u, _ = quat_normalize(p.q)
    return HomPose.from_rt(_rotation_from_unit_quat(*u.vec), [p.x, p.y, p.z])


def matrix_to_ypr(m):
    """Homogeneous matrix pose -> Euler pose."""
    r = m.mat
    yaw, pitch, roll = _angles_from_rotation(r[:3, :3])
    return EulerPose(r[0, 3], r[1, 3], r[2, 3], yaw, pitch, roll)


def matrix_to_quat(m):
    """Homogeneous matrix pose -> quaternion pose (largest-pivot extraction)."""
    r = m.mat
    qr, qx, qy, qz = _quat_from_rotation(r[:3, :3])
    return QuatPose(r[0, 3], r[1, 3], r[2, 3], Quaternion(qr, qx, qy, qz))


def jacobian_ypr_wrt_matrix(m):
    """6x12 derivative of :func:`matrix_to_ypr` in the 12-vector view.

    Rows are (x, y, z, yaw, pitch, roll); columns are the column-major
    entries of the top 3x4 block (rotation columns, then translation).

    Raises
    ------
    SingularConfigurationError
        When the pitch or roll extraction is at a singular configuration
        (first column aligned with z, or third row's yz part vanishing).
    """
    r = _checked(m, "jacobian_ypr_wrt_matrix: m", *_POSE)[:3, :3]
    k = r[0, 0] * r[0, 0] + r[1, 0] * r[1, 0]
    m33 = r[2, 1] * r[2, 1] + r[2, 2] * r[2, 2]
    if k <= 1e-12 or m33 <= 1e-12:
        raise SingularConfigurationError(
            "Euler-from-matrix Jacobian undefined at |pitch| = pi/2")
    sk = np.sqrt(k)
    kp = k + r[2, 0] * r[2, 0]
    out = np.zeros((6, 12))
    out[:3, 9:] = np.eye(3)
    ang = np.zeros((3, 9))
    ang[0, 0] = -r[1, 0] / k
    ang[0, 1] = r[0, 0] / k
    ang[1, 0] = r[0, 0] * r[2, 0] / (sk * kp)
    ang[1, 1] = r[1, 0] * r[2, 0] / (sk * kp)
    ang[1, 2] = -sk / kp
    ang[2, 5] = r[2, 2] / m33
    ang[2, 8] = -r[2, 1] / m33
    out[3:, :9] = ang
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
    out = np.zeros((12, 6))
    out[9:, :3] = np.eye(3)
    out[:9, 3:] = _rotation_ypr_rate(p.yaw, p.pitch, p.roll)
    return out


def _rotation_quat_rate(qr, qx, qy, qz):
    """9x4 derivative of vec(R(q)) for the unit-quaternion quadratic form."""
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


def _rotation_raw_quat_rate(q):
    """9x4 derivative of vec(R(q / |q|)) at a raw, nonzero 4-vector q."""
    # Python floats build the table faster than numpy scalars, same values
    u = (q / np.linalg.norm(q)).tolist()
    return _rotation_quat_rate(*u) @ _norm_jacobian(q)


def jacobian_matrix_wrt_quat(p):
    """12x7 derivative of :func:`quat_to_matrix` (normalization chained)."""
    out = np.zeros((12, 7))
    out[9:, :3] = np.eye(3)
    out[:9, 3:] = _rotation_raw_quat_rate(p.q.vec)
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
    if target not in _KIND_DIM:
        raise GeometryError("convert_gaussian: unknown target %r" % (target,))
    kind = src.kind
    if kind == target:
        return GaussianPose(src.mean, src.cov)
    mean, jac = _CONVERSIONS[(kind, target)](src.mean)
    cov = jac @ src.cov @ jac.T
    return GaussianPose(mean, 0.5 * (cov + cov.T))


def _conv_ypr_quat(p):
    """The mean and the Jacobian of its own representative.

    The Jacobian differentiates the half-angle formulas at p, and the mean
    is that representative or its negative (the canonical qr >= 0 choice);
    a covariance propagated around the mean needs the derivative of the
    mean's sign, or the translation-rotation cross terms come out wrong.
    """
    mean = ypr_to_quat(p)
    jac = jacobian_ypr_to_quat(p)
    if np.dot(_quat_components_from_angles(p.yaw, p.pitch, p.roll), mean.q.vec) < 0.0:
        jac[3:] = -jac[3:]
    return mean, jac


def _conv_quat_ypr(p):
    return quat_to_ypr(p), jacobian_quat_to_ypr(p)


def _conv_ypr_matrix(p):
    return ypr_to_matrix(p), jacobian_matrix_wrt_ypr(p)


def _conv_matrix_ypr(m):
    return matrix_to_ypr(m), jacobian_ypr_wrt_matrix(m)


def _conv_quat_matrix(p):
    return quat_to_matrix(p), jacobian_matrix_wrt_quat(p)


def _conv_matrix_quat(m):
    mean = matrix_to_quat(m)
    jac = np.zeros((7, 12))
    jac[:3, 9:] = np.eye(3)
    jac[3:, :9] = _quat_from_rotation_rate(m.mat[:3, :3])[1]
    return mean, jac


_CONVERSIONS = {
    ("ypr", "quat"): _conv_ypr_quat,
    ("quat", "ypr"): _conv_quat_ypr,
    ("ypr", "matrix"): _conv_ypr_matrix,
    ("matrix", "ypr"): _conv_matrix_ypr,
    ("quat", "matrix"): _conv_quat_matrix,
    ("matrix", "quat"): _conv_matrix_quat,
}
