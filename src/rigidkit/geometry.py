"""Pose actions on points, pose composition and inversion, with Jacobians.

Four families, each available in the parameterization where it has a
closed analytic derivative:

* pose (+) point      - transform a local point into the pose's frame
* point (-) pose      - express a global point in the pose's local frame
* pose (+) pose       - composition
* pose inverse

Points are plain (3,) float ndarrays.  The rotation derivatives come
from :mod:`rigidkit.core`, which has d vec(R) for each parameterization
(``_rotation_ypr_rate`` and ``_rotation_raw_quat_rate``).  The pose
Jacobians here contract them with the point by the chain rule:
d(R a) = sum_j a_j d(col_j R), and d(R^T d) has row i equal to
d . d(col_i R).  All returned Jacobians are
derivatives of exactly what the functions compute: quaternion inputs are
re-normalized internally and the normalization derivative is chained into
the pose blocks (at unit norm it is the projector that removes the radial
direction, so skipping it would be wrong even for unit input).

Quaternion-valued results are reported with the canonical sign qr >= 0.
The sign flip is a discrete representative choice on the double cover and
is excluded from the derivatives, exactly as in
:func:`rigidkit.core.jacobian_ypr_to_quat`.
"""

from dataclasses import dataclass

import numpy as np

from .core import (_QUAT_RATE, EulerPose, GaussianPose, HomPose, QuatPose,
                   _angles_from_rotation, _checked_covariance, _norm_jacobian, _normalized,
                   _quat_components_from_angles, _rotation_from_angles,
                   _rotation_from_unit_quat, _rotation_raw_quat_rate, _rotation_ypr_rate,
                   _ypr_rate_block, _ypr_to_quat_rate)
from .errors import GeometryError
from .matderiv import _EYE3, _checked, _const, _inverse_rt, _typed

# the conjugation of a quaternion, (qr, -qx, -qy, -qz)
_CONJUGATE = _const([1.0, -1.0, -1.0, -1.0])


@dataclass(frozen=True)
class GaussianPoint3:
    """Gaussian over a 3D point: mean + 3x3 covariance."""

    mean: np.ndarray
    cov: np.ndarray

    def __post_init__(self):
        m = _checked(self.mean, "GaussianPoint3: mean", (3,)).copy()
        c = _checked(self.cov, "GaussianPoint3: covariance", (3, 3))
        m.setflags(write=False)
        object.__setattr__(self, "mean", m)
        object.__setattr__(self, "cov", _checked_covariance(c, "GaussianPoint3"))


def _rotate_rate(dvec_r, a):
    """d(R a)/dtheta from the 9xk d vec(R)/dtheta: sum_j a_j d(col_j R)/dtheta."""
    return (a @ dvec_r.reshape(3, -1)).reshape(3, -1)


def _inv_rotate_rate(dvec_r, d):
    """d(R^T d)/dtheta from the 9xk d vec(R)/dtheta: row i is d . d(col_i R)/dtheta."""
    return d @ dvec_r.reshape(3, 3, -1)


# ---------------------------------------------------------------------------
# pose (+) point

def compose_point_quat(p, a):
    """Transform point a by a quaternion pose.

    Returns
    -------
    (value, jac_pose, jac_point)
        value (3,); jac_pose (3, 7) w.r.t. (x, y, z, qr, qx, qy, qz);
        jac_point (3, 3) = the rotation matrix.
    """
    a = _checked(a, "compose_point_quat: a", (3,))
    q = _typed(p, "compose_point_quat: p", QuatPose).q.vec
    rot = _rotation_from_unit_quat(*(q / np.linalg.norm(q)).tolist())
    value = np.array([p.x, p.y, p.z]) + rot @ a
    jac_pose = np.concatenate([_EYE3, _rotate_rate(_rotation_raw_quat_rate(q), a)], axis=1)
    return value, jac_pose, rot


def compose_point_ypr(p, a):
    """Transform point a by an Euler pose.

    Returns
    -------
    (value, jac_pose, jac_point)
        jac_pose (3, 6) w.r.t. (x, y, z, yaw, pitch, roll).
    """
    a = _checked(a, "compose_point_ypr: a", (3,))
    _typed(p, "compose_point_ypr: p", EulerPose)
    rot = _rotation_from_angles(p.yaw, p.pitch, p.roll)
    value = np.array([p.x, p.y, p.z]) + rot @ a
    j = _rotate_rate(_rotation_ypr_rate(p.yaw, p.pitch, p.roll), a)
    return value, np.concatenate([_EYE3, j], axis=1), rot


def compose_point_ypr_small_rot_jacobian(a):
    """3x6 pose Jacobian of pose (+) point at zero rotation angles.

    First-order model for small yaw/pitch/roll; the angle block reduces
    to a fixed bilinear pattern in the point coordinates.
    """
    ax, ay, az = _checked(a, "compose_point_ypr_small_rot_jacobian: a", (3,))
    return np.hstack([_EYE3, np.array([
        [-ay, az, 0.0],
        [ax, 0.0, -az],
        [0.0, -ax, ay],
    ])])


def compose_point_matrix(m, a):
    """Transform point a by a matrix pose (value only)."""
    a = _checked(a, "compose_point_matrix: a", (3,))
    m = _typed(m, "compose_point_matrix: m", HomPose).mat
    return m[:3, :3] @ a + m[:3, 3]


# ---------------------------------------------------------------------------
# point (-) pose

def inv_compose_point_quat(a, p):
    """Express global point a in the local frame of a quaternion pose.

    Returns
    -------
    (value, jac_pose, jac_point)
        value = R^T (a - t); jac_pose (3, 7); jac_point (3, 3) = R^T.
    """
    a = _checked(a, "inv_compose_point_quat: a", (3,))
    q = _typed(p, "inv_compose_point_quat: p", QuatPose).q.vec
    rot = _rotation_from_unit_quat(*(q / np.linalg.norm(q)).tolist())
    d = a - np.array([p.x, p.y, p.z])
    value = rot.T @ d
    jac_pose = np.concatenate([-rot.T, _inv_rotate_rate(_rotation_raw_quat_rate(q), d)], axis=1)
    return value, jac_pose, rot.T.copy()


def inv_compose_point_matrix(a, m):
    """Express global point a in the local frame of a matrix pose."""
    a = _checked(a, "inv_compose_point_matrix: a", (3,))
    m = _typed(m, "inv_compose_point_matrix: m", HomPose).mat
    return m[:3, :3].T @ (a - m[:3, 3])


# ---------------------------------------------------------------------------
# pose (+) pose

def _hamilton(q1, q2):
    r1, x1, y1, z1 = q1
    r2, x2, y2, z2 = q2
    return np.array([
        r1 * r2 - x1 * x2 - y1 * y2 - z1 * z2,
        r1 * x2 + x1 * r2 + y1 * z2 - z1 * y2,
        r1 * y2 + y1 * r2 + z1 * x2 - x1 * z2,
        r1 * z2 + z1 * r2 + x1 * y2 - y1 * x2,
    ])


def _hamilton_wrt_left(q2):
    r2, x2, y2, z2 = q2
    return np.array([
        [r2, -x2, -y2, -z2],
        [x2, r2, z2, -y2],
        [y2, -z2, r2, x2],
        [z2, y2, -x2, r2],
    ])


def _hamilton_wrt_right(q1):
    r1, x1, y1, z1 = q1
    return np.array([
        [r1, -x1, -y1, -z1],
        [x1, r1, -z1, y1],
        [y1, z1, r1, -x1],
        [z1, -y1, x1, r1],
    ])


def _compose_quat_vecs(v1, v2):
    """Composition on raw 7-vectors, without the canonical sign flip.

    Returns the raw normalized 7-vector and the two 7x7 Jacobians of the
    smooth map (translate-and-rotate, Hamilton product, final
    normalization evaluated at the unnormalized product).  Operating on
    plain vectors keeps one consistent double-cover representative, which
    matters when a caller chains this with other raw-representative maps.
    """
    q1r, q2r = v1[3:], v2[3:]
    n1 = np.linalg.norm(q1r)
    rot1 = _rotation_from_unit_quat(*(q1r / n1).tolist())
    t2 = v2[:3]
    t = v1[:3] + rot1 @ t2

    # Python floats: the same operations as on numpy scalars, faster
    l1, l2 = q1r.tolist(), q2r.tolist()
    h = _hamilton(l1, l2)
    hn = np.linalg.norm(h)
    jn_h = _norm_jacobian(h)

    j1 = np.zeros((7, 7))
    j1[:3, :3] = _EYE3
    j1[:3, 3:] = _rotate_rate(_rotation_raw_quat_rate(q1r), t2)
    j1[3:, 3:] = jn_h @ _hamilton_wrt_left(l2)

    j2 = np.zeros((7, 7))
    j2[:3, :3] = rot1
    j2[3:, 3:] = jn_h @ _hamilton_wrt_right(l1)

    return np.concatenate([t, h / hn]), j1, j2


def compose_pose_quat(p1, p2):
    """Compose two quaternion poses.

    Returns
    -------
    (QuatPose, jac1, jac2)
        jac1, jac2 are the (7, 7) derivatives w.r.t. p1 and p2 of the
        composition map.  When the canonical qr >= 0 choice flips the
        returned quaternion, the quaternion rows are flipped with it, so
        covariances propagated around the returned mean stay consistent.
    """
    v, j1, j2 = _compose_quat_vecs(_typed(p1, "compose_pose_quat: p1", QuatPose).vec,
                                   _typed(p2, "compose_pose_quat: p2", QuatPose).vec)
    if v[3] < 0.0:
        j1 = j1.copy()
        j2 = j2.copy()
        j1[3:, :] = -j1[3:, :]
        j2[3:, :] = -j2[3:, :]
    return QuatPose.from_vec(v), j1, j2


def compose_pose_ypr(p1, p2):
    """Compose two Euler poses.

    The value is computed through the rotation matrices; the (6, 6)
    Jacobians chain Euler->quat, the quaternion composition and
    quat->Euler (evaluated at the composed quaternion, one consistent
    double-cover representative throughout).

    Raises
    ------
    SingularConfigurationError
        If the composed pose lies in the gimbal band of the Euler chart.
    """
    _typed(p1, "compose_pose_ypr: p1", EulerPose)
    _typed(p2, "compose_pose_ypr: p2", EulerPose)
    r1 = _rotation_from_angles(p1.yaw, p1.pitch, p1.roll)
    r2 = _rotation_from_angles(p2.yaw, p2.pitch, p2.roll)
    t = np.array([p1.x, p1.y, p1.z]) + r1 @ np.array([p2.x, p2.y, p2.z])
    yaw, pitch, roll = _angles_from_rotation(r1 @ r2)
    value = EulerPose(t[0], t[1], t[2], yaw, pitch, roll)

    # Raw half-angle components, not QuatPose: the canonical sign flip is
    # a representative choice outside the smooth map, and every link of
    # the chain below must sit on the same representative.
    v1 = np.concatenate(
        [[p1.x, p1.y, p1.z], _quat_components_from_angles(p1.yaw, p1.pitch, p1.roll)]
    )
    v2 = np.concatenate(
        [[p2.x, p2.y, p2.z], _quat_components_from_angles(p2.yaw, p2.pitch, p2.roll)]
    )
    h, jq1, jq2 = _compose_quat_vecs(v1, v2)
    hq = h[3:]
    to_ypr = np.zeros((6, 7))
    to_ypr[:3, :3] = _EYE3
    to_ypr[3:, 3:] = _ypr_rate_block(hq.tolist()) @ _norm_jacobian(hq)
    j1 = to_ypr @ jq1 @ _ypr_to_quat_rate(p1)
    j2 = to_ypr @ jq2 @ _ypr_to_quat_rate(p2)
    return value, j1, j2


def compose_pose_matrix(m1, m2):
    """Compose two matrix poses (value only)."""
    return HomPose(_typed(m1, "compose_pose_matrix: m1", HomPose).mat
                   @ _typed(m2, "compose_pose_matrix: m2", HomPose).mat)


# ---------------------------------------------------------------------------
# pose inverse

def inverse_pose_quat(p):
    """Inverse of a quaternion pose.

    Returns
    -------
    (QuatPose, jac)
        Inverse pose (-R^T t, conjugate quaternion) and its (7, 7)
        derivative (normalization chained, conjugation as diag(1,-1,-1,-1)).
    """
    u, jn = _normalized(_typed(p, "inverse_pose_quat: p", QuatPose).q.vec)
    rot = _rotation_from_unit_quat(*u.tolist())
    t = np.array([p.x, p.y, p.z])
    value = QuatPose.from_vec(np.concatenate([-(rot.T @ t), _CONJUGATE * u]))
    jac = np.zeros((7, 7))
    jac[:3, :3] = -rot.T
    jac[:3, 3:] = _inv_rotate_rate((_QUAT_RATE @ u) @ jn, -t)
    jac[3:, 3:] = _CONJUGATE[:, None] * jn
    return value, jac


def inverse_pose_matrix(m):
    """Inverse of a matrix pose via the closed form (R^T, -R^T t)."""
    return HomPose(_inverse_rt(_typed(m, "inverse_pose_matrix: m", HomPose).mat))


# ---------------------------------------------------------------------------
# first-order uncertainty propagation

def _propagated(j1, s1, j2, s2):
    """J1 S1 J1^T + J2 S2 J2^T, re-symmetrized.

    Entries that overflow are inf or NaN, without a warning; the Gaussian
    constructors reject them.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        cov = j1 @ s1 @ j1.T + j2 @ s2 @ j2.T
        return 0.5 * (cov + cov.T)


def propagate_binary(f, g1, g2):
    """Propagate two independent Gaussian operands through a binary op.

    Parameters
    ----------
    f : str
        'compose' (two Gaussian poses, Euler or quaternion, same kind),
        'apply-point' (Gaussian pose + GaussianPoint3), or
        'inv-apply-point' (Gaussian quaternion pose + GaussianPoint3).
    g1, g2 : GaussianPose / GaussianPoint3

    Returns
    -------
    GaussianPose or GaussianPoint3
        Mean of the op at the means; covariance J1 S1 J1^T + J2 S2 J2^T
        (operands treated as independent), re-symmetrized.
    """
    if not isinstance(f, str) or f not in ("compose", "apply-point", "inv-apply-point"):
        raise GeometryError("propagate_binary: unknown operation %r" % (f,))
    if f == "compose":
        if not isinstance(g1, GaussianPose) or not isinstance(g2, GaussianPose):
            raise GeometryError("propagate_binary: 'compose' takes two Gaussian poses")
        if g1.kind != g2.kind:
            raise GeometryError("propagate_binary: operands must share a parameterization")
        if g1.kind == "quat":
            mean, j1, j2 = compose_pose_quat(g1.mean, g2.mean)
        elif g1.kind == "ypr":
            mean, j1, j2 = compose_pose_ypr(g1.mean, g2.mean)
        else:
            raise GeometryError(
                "propagate_binary: matrix-form composition has no covariance rule here; "
                "convert to 'ypr' or 'quat' first")
        return GaussianPose(mean, _propagated(j1, g1.cov, j2, g2.cov))

    if not isinstance(g1, GaussianPose) or not isinstance(g2, GaussianPoint3):
        raise GeometryError(
            "propagate_binary: %r takes a Gaussian pose and a Gaussian point" % (f,))
    if f == "apply-point":
        if g1.kind == "quat":
            mean, jp, ja = compose_point_quat(g1.mean, g2.mean)
        elif g1.kind == "ypr":
            mean, jp, ja = compose_point_ypr(g1.mean, g2.mean)
        else:
            raise GeometryError(
                "propagate_binary: matrix-form point action has no covariance rule here")
    else:
        if g1.kind != "quat":
            raise GeometryError(
                "propagate_binary: 'inv-apply-point' requires a quaternion pose")
        mean, jp, ja = inv_compose_point_quat(g2.mean, g1.mean)
    return GaussianPoint3(mean, _propagated(jp, g1.cov, ja, g2.cov))
