"""Numeric verification of every analytic Jacobian in the package.

Central finite differences are the ground truth: each check differentiates
the very map a function computes (including internal re-normalization,
excluding discrete representative choices such as the quaternion sign
flip) and compares against the closed-form Jacobian.  Derivatives taken
with respect to an on-manifold increment are checked by perturbing the
pose with the pseudo-exponential on the matching side.

:func:`check_catalog` runs the whole catalog deterministically: the same
seed yields bit-identical reports, independent of the order in which
checks were registered and of the process that runs each check, because
every check gets its own generator seeded from (seed, crc32 of the check
name).  Domain-restricted samplers keep each draw far from singular
configurations, where a finite difference would measure the singularity
instead of the formula.
"""

import functools
from dataclasses import dataclass
from zlib import crc32

import numpy as np

from . import core, geometry, lie, manifold_jac, matderiv, vision

__all__ = [
    "JacobianReport",
    "check_catalog",
    "manifold_numeric_jacobian",
    "numeric_jacobian",
]


def numeric_jacobian(f, x0, h=1e-6):
    """Central-difference Jacobian of f at x0.

    Parameters
    ----------
    f : callable
        Maps a (n,) ndarray to an (m,) ndarray.
    x0 : (n,) array_like
    h : float
        Step size per coordinate.

    Returns
    -------
    (m, n) ndarray
    """
    x0 = np.asarray(x0, dtype=float)
    cols = []
    for i in range(x0.size):
        step = np.zeros_like(x0)
        step[i] = h
        cols.append((np.asarray(f(x0 + step), dtype=float)
                     - np.asarray(f(x0 - step), dtype=float)) / (2.0 * h))
    return np.column_stack(cols)


def manifold_numeric_jacobian(f, base, side="left", h=1e-6):
    """Central differences with respect to an on-manifold increment.

    The base pose is perturbed multiplicatively with the pseudo-
    exponential of h times each tangent coordinate: on the left,
    f(exp(eps) @ base); on the right, f(base @ exp(eps)).  A 4x4 base is
    treated as a rigid 3D pose (6 tangent coordinates, translation
    first); a 3x3 base as planar (3 coordinates).

    Parameters
    ----------
    f : callable
        Maps a raw homogeneous matrix to an (m,) ndarray.
    base : pose or ndarray
        HomPose / HomPose2 or their raw matrices.
    side : {'left', 'right'}
    """
    m = lie._mat4(base)
    if m.shape == (4, 4):
        dim, pexp = 6, lie.se3_pseudo_exp
    elif m.shape == (3, 3):
        dim, pexp = 3, lie.se2_pseudo_exp
    else:
        raise ValueError("base must be a 4x4 or 3x3 homogeneous matrix")
    if side not in ("left", "right"):
        raise ValueError("side must be 'left' or 'right'")
    cols = []
    for plus, minus in _perturbations(pexp, dim, h):
        if side == "left":
            hi, lo = f(plus @ m), f(minus @ m)
        else:
            hi, lo = f(m @ plus), f(m @ minus)
        cols.append((np.asarray(hi, dtype=float)
                     - np.asarray(lo, dtype=float)) / (2.0 * h))
    return np.column_stack(cols)


@functools.lru_cache(maxsize=16)
def _perturbations(pexp, dim, h):
    """The pairs (pexp(h e_i).mat, pexp(-h e_i).mat) for i < dim.

    Pose matrices are read-only, so the cached pairs can be shared.
    """
    pairs = []
    for i in range(dim):
        eps = np.zeros(dim)
        eps[i] = h
        pairs.append((pexp(eps).mat, pexp(-eps).mat))
    return tuple(pairs)


@dataclass(frozen=True)
class JacobianReport:
    """Outcome of one catalog entry: worst deviation over all samples."""

    op: str
    max_abs_error: float
    worst_row: int
    worst_col: int
    worst_sample: int
    analytic: np.ndarray
    numeric: np.ndarray
    passed: bool

    def to_json_dict(self):
        return {
            "op": self.op,
            "maxAbsError": self.max_abs_error,
            "worstRow": self.worst_row,
            "worstCol": self.worst_col,
            "worstSample": self.worst_sample,
            "pass": self.passed,
        }


# ---------------------------------------------------------------------------
# samplers

def _unit(rng, dim=3):
    v = rng.normal(size=dim)
    return v / np.linalg.norm(v)


def _rotvec(rng, lo=0.05, hi=2.8):
    return _unit(rng) * rng.uniform(lo, hi)


def _translation(rng):
    return rng.uniform(-2.0, 2.0, size=3)


def _hompose(rng, hi=2.8):
    return core.HomPose.from_rt(lie.so3_exp(_rotvec(rng, 0.05, hi)),
                                _translation(rng))


def _quat_pose(rng):
    t = _translation(rng)
    q = lie.so3_exp_quat(_rotvec(rng))
    return core.QuatPose(t[0], t[1], t[2], q)


def _safe_quat_pose(rng):
    """Quaternion pose away from the gimbal band and the yaw/roll cuts."""
    while True:
        p = _quat_pose(rng)
        e = core.quat_to_ypr(p)
        if (abs(e.pitch) <= 1.2 and abs(e.yaw) <= 3.05
                and abs(e.roll) <= 3.05):
            return p


def _ypr_pose(rng):
    t = _translation(rng)
    deg85 = np.deg2rad(85.0)
    return core.EulerPose(t[0], t[1], t[2],
                          rng.uniform(-3.1, 3.1),
                          rng.uniform(-deg85, deg85),
                          rng.uniform(-3.1, 3.1))


def _se2_pose(rng, max_angle=3.0):
    t = rng.uniform(-2.0, 2.0, size=2)
    return core.HomPose2.from_xyt(t[0], t[1],
                                  rng.uniform(-max_angle, max_angle))


def _intrinsics(rng):
    return vision.CameraIntrinsics(rng.uniform(100.0, 600.0),
                                   rng.uniform(100.0, 600.0),
                                   rng.uniform(200.0, 400.0),
                                   rng.uniform(100.0, 300.0))


def _front_point(rng):
    return np.array([rng.uniform(-1.0, 1.0), rng.uniform(-1.0, 1.0),
                     rng.uniform(0.5, 3.0)])


# ---------------------------------------------------------------------------
# finite-difference target maps (raw, smooth, no canonicalization)

def _ypr_from_quatvec(v):
    u = v[3:] / np.linalg.norm(v[3:])
    qr, qx, qy, qz = u
    yaw = np.arctan2(2.0 * (qr * qz + qx * qy), 1.0 - 2.0 * (qy * qy + qz * qz))
    pitch = np.arcsin(2.0 * (qr * qy - qx * qz))
    roll = np.arctan2(2.0 * (qr * qx + qy * qz), 1.0 - 2.0 * (qx * qx + qy * qy))
    return np.array([v[0], v[1], v[2], yaw, pitch, roll])


def _quatvec_from_ypr(v):
    return np.concatenate([v[:3], core._quat_components_from_angles(v[3], v[4], v[5])])


def _vec12_from_ypr(v):
    r = core._rotation_from_angles(v[3], v[4], v[5])
    return np.concatenate([r.reshape(-1, order="F"), v[:3]])


def _vec12_from_quatvec(v):
    u = v[3:] / np.linalg.norm(v[3:])
    r = core._rotation_from_unit_quat(*u)
    return np.concatenate([r.reshape(-1, order="F"), v[:3]])


def _ypr_from_vec12(v):
    m = v.reshape((3, 4), order="F")
    yaw, pitch, roll = core._angles_from_rotation(m[:, :3])
    return np.concatenate([m[:, 3], [yaw, pitch, roll]])


def _quat_compose_vec(v1, v2):
    u1 = v1[3:] / np.linalg.norm(v1[3:])
    t = v1[:3] + core._rotation_from_unit_quat(*u1) @ v2[:3]
    h = geometry._hamilton(v1[3:], v2[3:])
    h = h / np.linalg.norm(h)
    if h[0] < 0.0:
        # mirror the canonical sign choice of the composition output;
        # differentiation stays safe because samples land away from the
        # qr = 0 boundary almost surely
        h = -h
    return np.concatenate([t, h])


def _ypr_compose_vec(v1, v2):
    r1 = core._rotation_from_angles(v1[3], v1[4], v1[5])
    r2 = core._rotation_from_angles(v2[3], v2[4], v2[5])
    t = v1[:3] + r1 @ v2[:3]
    yaw, pitch, roll = core._angles_from_rotation(r1 @ r2)
    return np.concatenate([t, [yaw, pitch, roll]])


def _rotate_vec(v, a):
    u = v[3:] / np.linalg.norm(v[3:])
    return v[:3] + core._rotation_from_unit_quat(*u) @ a


def _inv_rotate_vec(v, a):
    u = v[3:] / np.linalg.norm(v[3:])
    return core._rotation_from_unit_quat(*u).T @ (a - v[:3])


def _edge_value(md_inv, m1, m2):
    return lie._pseudo_log(md_inv @ matderiv.inverse_rt(m1) @ m2)


# ---------------------------------------------------------------------------
# the catalog

_CHECKS = {}


def _register(name):
    def wrap(fn):
        _CHECKS[name] = fn
        return fn
    return wrap


@_register("core.quat_normalize")
def _chk_quat_normalize(rng):
    v = rng.normal(size=4)
    v[0] = abs(v[0]) + 0.2
    v *= rng.uniform(0.5, 2.0) / np.linalg.norm(v)
    _, jn = core.quat_normalize(core.Quaternion(*v))
    num = numeric_jacobian(lambda x: x / np.linalg.norm(x), v)
    return jn, num


@_register("core.jacobian_ypr_to_quat")
def _chk_ypr_to_quat(rng):
    p = _ypr_pose(rng)
    return core.jacobian_ypr_to_quat(p), numeric_jacobian(_quatvec_from_ypr, p.vec)


@_register("core.jacobian_quat_to_ypr")
def _chk_quat_to_ypr(rng):
    p = _safe_quat_pose(rng)
    return core.jacobian_quat_to_ypr(p), numeric_jacobian(_ypr_from_quatvec, p.vec)


@_register("core.jacobian_ypr_wrt_matrix")
def _chk_ypr_wrt_matrix(rng):
    m = core.ypr_to_matrix(_ypr_pose(rng))
    return core.jacobian_ypr_wrt_matrix(m), numeric_jacobian(_ypr_from_vec12, m.vec12)


@_register("core.jacobian_matrix_wrt_ypr")
def _chk_matrix_wrt_ypr(rng):
    p = _ypr_pose(rng)
    return core.jacobian_matrix_wrt_ypr(p), numeric_jacobian(_vec12_from_ypr, p.vec)


@_register("core.jacobian_matrix_wrt_quat")
def _chk_matrix_wrt_quat(rng):
    p = _quat_pose(rng)
    return core.jacobian_matrix_wrt_quat(p), numeric_jacobian(_vec12_from_quatvec, p.vec)


@_register("geometry.compose_point_quat.pose")
def _chk_cpq_pose(rng):
    p, a = _quat_pose(rng), _translation(rng)
    _, jac, _ = geometry.compose_point_quat(p, a)
    return jac, numeric_jacobian(lambda v: _rotate_vec(v, a), p.vec)


@_register("geometry.compose_point_quat.point")
def _chk_cpq_point(rng):
    p, a = _quat_pose(rng), _translation(rng)
    _, _, jac = geometry.compose_point_quat(p, a)
    return jac, numeric_jacobian(lambda x: _rotate_vec(p.vec, x), a)


@_register("geometry.compose_point_ypr.pose")
def _chk_cpy_pose(rng):
    p, a = _ypr_pose(rng), _translation(rng)
    _, jac, _ = geometry.compose_point_ypr(p, a)
    num = numeric_jacobian(
        lambda v: v[:3] + core._rotation_from_angles(v[3], v[4], v[5]) @ a, p.vec)
    return jac, num


@_register("geometry.compose_point_ypr.point")
def _chk_cpy_point(rng):
    p, a = _ypr_pose(rng), _translation(rng)
    _, _, jac = geometry.compose_point_ypr(p, a)
    rot = core._rotation_from_angles(p.yaw, p.pitch, p.roll)
    return jac, numeric_jacobian(lambda x: rot @ x + p.vec[:3], a)


@_register("geometry.inv_compose_point_quat.pose")
def _chk_icpq_pose(rng):
    p, a = _quat_pose(rng), _translation(rng)
    _, jac, _ = geometry.inv_compose_point_quat(a, p)
    return jac, numeric_jacobian(lambda v: _inv_rotate_vec(v, a), p.vec)


@_register("geometry.inv_compose_point_quat.point")
def _chk_icpq_point(rng):
    p, a = _quat_pose(rng), _translation(rng)
    _, _, jac = geometry.inv_compose_point_quat(a, p)
    return jac, numeric_jacobian(lambda x: _inv_rotate_vec(p.vec, x), a)


@_register("geometry.compose_pose_quat.j1")
def _chk_cq_j1(rng):
    p1, p2 = _quat_pose(rng), _quat_pose(rng)
    _, j1, _ = geometry.compose_pose_quat(p1, p2)
    return j1, numeric_jacobian(lambda v: _quat_compose_vec(v, p2.vec), p1.vec)


@_register("geometry.compose_pose_quat.j2")
def _chk_cq_j2(rng):
    p1, p2 = _quat_pose(rng), _quat_pose(rng)
    _, _, j2 = geometry.compose_pose_quat(p1, p2)
    return j2, numeric_jacobian(lambda v: _quat_compose_vec(p1.vec, v), p2.vec)


def _ypr_pair(rng):
    while True:
        p1, p2 = _ypr_pose(rng), _ypr_pose(rng)
        r = (core._rotation_from_angles(p1.yaw, p1.pitch, p1.roll)
             @ core._rotation_from_angles(p2.yaw, p2.pitch, p2.roll))
        yaw, pitch, roll = core._angles_from_rotation(r)
        if abs(pitch) <= 1.2 and abs(yaw) <= 3.05 and abs(roll) <= 3.05:
            return p1, p2


@_register("geometry.compose_pose_ypr.j1")
def _chk_cy_j1(rng):
    p1, p2 = _ypr_pair(rng)
    _, j1, _ = geometry.compose_pose_ypr(p1, p2)
    return j1, numeric_jacobian(lambda v: _ypr_compose_vec(v, p2.vec), p1.vec)


@_register("geometry.compose_pose_ypr.j2")
def _chk_cy_j2(rng):
    p1, p2 = _ypr_pair(rng)
    _, _, j2 = geometry.compose_pose_ypr(p1, p2)
    return j2, numeric_jacobian(lambda v: _ypr_compose_vec(p1.vec, v), p2.vec)


@_register("geometry.inverse_pose_quat")
def _chk_inverse_quat(rng):
    p = _quat_pose(rng)
    _, jac = geometry.inverse_pose_quat(p)

    def f(v):
        u = v[3:] / np.linalg.norm(v[3:])
        rot = core._rotation_from_unit_quat(*u)
        return np.concatenate([-(rot.T @ v[:3]), [u[0], -u[1], -u[2], -u[3]]])

    return jac, numeric_jacobian(f, p.vec)


@_register("matderiv.d_compose_wrt_A")
def _chk_d_compose_a(rng):
    a, b = _hompose(rng), _hompose(rng)
    num = numeric_jacobian(
        lambda v: matderiv.pose_to_vec12(matderiv.vec12_to_pose(v) @ b.mat),
        a.vec12)
    return matderiv.d_compose_wrt_A(b.mat), num


@_register("matderiv.d_compose_wrt_B")
def _chk_d_compose_b(rng):
    a, b = _hompose(rng), _hompose(rng)
    num = numeric_jacobian(
        lambda v: matderiv.pose_to_vec12(a.mat @ matderiv.vec12_to_pose(v)),
        b.vec12)
    return matderiv.d_compose_wrt_B(a.mat), num


@_register("matderiv.d_apply_wrt_point")
def _chk_d_apply_point(rng):
    a, p = _hompose(rng), _translation(rng)
    num = numeric_jacobian(lambda x: matderiv.apply_vec12(a.vec12, x), p)
    return matderiv.d_apply_wrt_point(a.mat), num


@_register("matderiv.d_apply_wrt_pose")
def _chk_d_apply_pose(rng):
    a, p = _hompose(rng), _translation(rng)
    num = numeric_jacobian(lambda v: matderiv.apply_vec12(v, p), a.vec12)
    return matderiv.d_apply_wrt_pose(p), num


@_register("matderiv.d_inverse_wrt_pose")
def _chk_d_inverse(rng):
    a = _hompose(rng)
    num = numeric_jacobian(
        lambda v: matderiv.pose_to_vec12(matderiv.inverse_rt(matderiv.vec12_to_pose(v))),
        a.vec12)
    return matderiv.d_inverse_wrt_pose(a.mat), num


@_register("matderiv.d_invapply_wrt_point")
def _chk_d_invapply_point(rng):
    a, p = _hompose(rng), _translation(rng)
    inv12 = matderiv.pose_to_vec12(matderiv.inverse_rt(a.mat))
    num = numeric_jacobian(lambda x: matderiv.apply_vec12(inv12, x), p)
    return matderiv.d_invapply_wrt_point(a.mat), num


@_register("matderiv.d_invapply_wrt_pose")
def _chk_d_invapply_pose(rng):
    a, p = _hompose(rng), _translation(rng)
    num = numeric_jacobian(
        lambda v: matderiv.apply_vec12(
            matderiv.pose_to_vec12(matderiv.inverse_rt(matderiv.vec12_to_pose(v))), p),
        a.vec12)
    return matderiv.d_invapply_wrt_pose(a.mat, p), num


@_register("manifold.dexp_so3_at_zero")
def _chk_dexp_so3_zero(rng):
    num = numeric_jacobian(lambda w: lie.so3_exp(w).reshape(-1, order="F"),
                           np.zeros(3))
    return manifold_jac.dexp_so3_at_zero(), num


@_register("manifold.dexp_so3_quat")
def _chk_dexp_so3_quat(rng):
    w = _rotvec(rng)
    num = numeric_jacobian(lambda x: lie.so3_exp_quat(x).vec, w)
    return manifold_jac.dexp_so3_quat(w), num


@_register("manifold.dexp_se3_at_zero")
def _chk_dexp_se3_zero(rng):
    num = numeric_jacobian(lambda v: lie.se3_exp(v).vec12, np.zeros(6))
    return manifold_jac.dexp_se3_at_zero(), num


@_register("manifold.dlog_so3")
def _chk_dlog_so3(rng):
    r = lie.so3_exp(_rotvec(rng, 0.05, np.pi - 0.15))
    num = numeric_jacobian(
        lambda v: lie.so3_log(v.reshape((3, 3), order="F")),
        r.reshape(-1, order="F"))
    return manifold_jac.dlog_so3(r), num


@_register("manifold.dpseudolog_se3")
def _chk_dpseudolog(rng):
    t = _hompose(rng)
    num = numeric_jacobian(lambda v: lie.se3_pseudo_log(v.reshape((3, 4), order="F")), t.vec12)
    return manifold_jac.dpseudolog_se3(t), num


@_register("manifold.jacob_expeD_de")
def _chk_expeD(rng):
    d = _hompose(rng)
    num = manifold_numeric_jacobian(matderiv.pose_to_vec12, d, side="left")
    return manifold_jac.jacob_expeD_de(d), num


@_register("manifold.jacob_Dexpe_de")
def _chk_Dexpe(rng):
    d = _hompose(rng)
    num = manifold_numeric_jacobian(matderiv.pose_to_vec12, d, side="right")
    return manifold_jac.jacob_Dexpe_de(d), num


@_register("manifold.jacob_expeDp_de")
def _chk_expeDp(rng):
    d, p = _hompose(rng), _translation(rng)
    num = manifold_numeric_jacobian(
        lambda m: m[:3, :3] @ p + m[:3, 3], d, side="left")
    return manifold_jac.jacob_expeDp_de(d, p), num


@_register("manifold.jacob_p_ominus_expeD_de")
def _chk_p_ominus_expeD(rng):
    d, p = _hompose(rng), _translation(rng)
    num = manifold_numeric_jacobian(
        lambda m: m[:3, :3].T @ (p - m[:3, 3]), d, side="left")
    return manifold_jac.jacob_p_ominus_expeD_de(d, p), num


@_register("manifold.jacob_AexpeD_de")
def _chk_AexpeD(rng):
    a, d = _hompose(rng), _hompose(rng)
    num = manifold_numeric_jacobian(
        lambda m: matderiv.pose_to_vec12(a.mat @ m), d, side="left")
    return manifold_jac.jacob_AexpeD_de(a, d), num


@_register("manifold.jacob_AexpeDp_de")
def _chk_AexpeDp(rng):
    a, d, p = _hompose(rng), _hompose(rng), _translation(rng)
    num = manifold_numeric_jacobian(
        lambda m: (a.mat @ m)[:3, :3] @ p + (a.mat @ m)[:3, 3], d, side="left")
    return manifold_jac.jacob_AexpeDp_de(a, d, p), num


@_register("manifold.jacob_p_ominus_AexpeD_de")
def _chk_p_ominus_AexpeD(rng):
    a, d, p = _hompose(rng), _hompose(rng), _translation(rng)

    def f(m):
        mad = a.mat @ m
        return mad[:3, :3].T @ (p - mad[:3, 3])

    num = manifold_numeric_jacobian(f, d, side="left")
    return manifold_jac.jacob_p_ominus_AexpeD_de(a, d, p), num


def _se3_edge_setup(rng):
    p1, p2 = _hompose(rng), _hompose(rng)
    b = matderiv.inverse_rt(p1.mat) @ p2.mat
    eps = np.concatenate([0.3 * rng.uniform(-1, 1, size=3), _rotvec(rng, 0.02, 0.3)])
    d = core.HomPose(b @ lie.se3_pseudo_exp(eps).mat)
    return d, p1, p2


def _se2_edge_setup(rng):
    p1, p2 = _se2_pose(rng, 1.5), _se2_pose(rng, 1.5)
    b = matderiv.inverse_rt(p1.mat) @ p2.mat
    eps = np.array([0.3 * rng.uniform(-1, 1), 0.3 * rng.uniform(-1, 1),
                    rng.uniform(-0.3, 0.3)])
    d = core.HomPose2(b @ lie.se2_pseudo_exp(eps).mat)
    return d, p1, p2


def _register_edge_checks(kind, setup, error):
    """Register manifold.edge_error_<kind>.j1 and .j2: the Jacobians of an
    edge error w.r.t. right increments of P1 and of P2, the measurement
    and the other pose held."""
    def check(rng, k):
        d, p1, p2 = setup(rng)
        res = error(d, p1, p2)
        d_inv = matderiv.inverse_rt(d.mat)

        def f(m):
            return _edge_value(d_inv, *((m, p2.mat) if k == 0 else (p1.mat, m)))

        return (res.jac1, res.jac2)[k], manifold_numeric_jacobian(f, (p1, p2)[k], side="right")

    for k in (0, 1):
        _register("manifold.edge_error_%s.j%d" % (kind, k + 1))(functools.partial(check, k=k))


_register_edge_checks("se3", _se3_edge_setup, manifold_jac.edge_error_se3)
_register_edge_checks("se2", _se2_edge_setup, manifold_jac.edge_error_se2)


@_register("manifold.jacob_Dexpe_de_se2")
def _chk_Dexpe_se2(rng):
    d = _se2_pose(rng)
    num = manifold_numeric_jacobian(lie.se2_pseudo_log, d, side="right")
    return manifold_jac.jacob_Dexpe_de_se2(d), num


@_register("manifold.d_compose_se2_wrt_A")
def _chk_compose_se2_a(rng):
    a, b = _se2_pose(rng, 1.5), _se2_pose(rng, 1.5)
    num = numeric_jacobian(
        lambda v: lie.se2_pseudo_log(core.HomPose2.from_xyt(*v).mat @ b.mat),
        np.array([a.mat[0, 2], a.mat[1, 2], a.angle]))
    return manifold_jac.d_compose_se2_wrt_A(a, b), num


@_register("manifold.d_compose_se2_wrt_B")
def _chk_compose_se2_b(rng):
    a, b = _se2_pose(rng, 1.5), _se2_pose(rng, 1.5)
    num = numeric_jacobian(
        lambda v: lie.se2_pseudo_log(a.mat @ core.HomPose2.from_xyt(*v).mat),
        np.array([b.mat[0, 2], b.mat[1, 2], b.angle]))
    return manifold_jac.d_compose_se2_wrt_B(a), num


@_register("vision.dproject_dp")
def _chk_dproject(rng):
    k, p = _intrinsics(rng), _front_point(rng)
    num = numeric_jacobian(lambda x: vision.project(k, x), p)
    return vision.dproject_dp(k, p), num


def _camera_setup(rng):
    k, a = _intrinsics(rng), _hompose(rng)
    g = _front_point(rng)
    p = a.mat[:3, :3].T @ (g - a.mat[:3, 3])  # pulls A*p back onto g
    return k, a, p


@_register("vision.project_pose_point.eps")
def _chk_ppp_eps(rng):
    k, a, p = _camera_setup(rng)
    _, j_eps, _ = vision.project_pose_point(k, a, p)
    num = manifold_numeric_jacobian(
        lambda m: vision.project(k, m[:3, :3] @ p + m[:3, 3]), a, side="left")
    return j_eps, num


@_register("vision.project_pose_point.point")
def _chk_ppp_point(rng):
    k, a, p = _camera_setup(rng)
    _, _, j_p = vision.project_pose_point(k, a, p)
    num = numeric_jacobian(
        lambda x: vision.project_pose_point(k, a, x)[0], p)
    return j_p, num


def _inv_camera_setup(rng):
    k, a = _intrinsics(rng), _hompose(rng)
    local = _front_point(rng)
    p = a.mat[:3, :3] @ local + a.mat[:3, 3]  # pulls A^{-1}*p back onto local
    return k, a, p


@_register("vision.project_inv_pose_point.eps")
def _chk_pip_eps(rng):
    k, a, p = _inv_camera_setup(rng)
    _, j_eps, _ = vision.project_inv_pose_point(k, a, p)
    num = manifold_numeric_jacobian(
        lambda m: vision.project(k, m[:3, :3].T @ (p - m[:3, 3])), a, side="left")
    return j_eps, num


@_register("vision.project_inv_pose_point.point")
def _chk_pip_point(rng):
    k, a, p = _inv_camera_setup(rng)
    _, _, j_p = vision.project_inv_pose_point(k, a, p)
    num = numeric_jacobian(
        lambda x: vision.project_inv_pose_point(k, a, x)[0], p)
    return j_p, num


def _check_op(name, seed, n, tol):
    """Run the check registered as name on n samples; one JacobianReport."""
    fn = _CHECKS[name]
    rng = np.random.default_rng([seed, crc32(name.encode("ascii"))])
    worst = -1.0
    record = None
    for i in range(n):
        analytic, numeric = fn(rng)
        diff = np.abs(np.asarray(analytic) - np.asarray(numeric))
        flat = int(np.argmax(diff))
        err = float(diff.reshape(-1)[flat])
        if err > worst:
            worst = err
            row, col = np.unravel_index(flat, diff.shape)
            record = (int(row), int(col), i,
                      np.asarray(analytic), np.asarray(numeric))
    return JacobianReport(
        op=name, max_abs_error=worst, worst_row=record[0],
        worst_col=record[1], worst_sample=record[2], analytic=record[3],
        numeric=record[4], passed=bool(worst <= tol))


def check_catalog(seed=1, n=100, tol=1e-5):
    """Run every registered check and report the worst deviation of each.

    The checks run one after another in the calling process, which starts
    no other process.  ``rigidkit jacobian-check`` spreads the same checks
    over a process pool, one worker per CPU, and prints these reports.

    Parameters
    ----------
    seed : int
        Master seed; each check derives its own generator from it and the
        CRC-32 of its name, so results do not depend on registration
        order and are bit-identical across runs.
    n : int
        Samples per check.
    tol : float
        Maximum absolute deviation accepted between analytic and numeric
        entries.

    Returns
    -------
    list of JacobianReport
        Sorted by operation name.
    """
    return [_check_op(name, seed, n, tol) for name in sorted(_CHECKS)]
