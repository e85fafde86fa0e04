"""Numeric verification of every analytic Jacobian in the package.

Central finite differences are the ground truth: each check differentiates
the very map a function computes (including internal re-normalization,
excluding discrete representative choices such as the quaternion sign
flip) and compares against the closed-form Jacobian.  Derivatives taken
with respect to an on-manifold increment are checked by perturbing the
pose with the pseudo-exponential on the matching side.

One central-difference kernel serves every check.  For n coordinates it
builds the 2n perturbed inputs, x0 + h e_i and then x0 - h e_i (or the
pseudo-exponentials of those steps times the base pose), calls the
target map once on that stack and returns the (m, n) Jacobian whose
column i is (f(x0 + h e_i) - f(x0 - h e_i)) / 2h.  The catalog's target
maps are stack maps, (N, n) -> (N, m) or (N, k, k) -> (N, m), that give
each row the bits of the same formula on that input alone, so a report
does not depend on how many inputs share a call.  They call the
unchecked private bodies of the library or write the formula out: the
inputs are built here, so the public argument checks would test nothing.
:func:`numeric_jacobian` and :func:`manifold_numeric_jacobian` are the
kernel with an adapter that calls a single-point map once per input; the
check of the SE(3) exponential at zero uses that adapter too, as the
library has no stack form of :func:`~rigidkit.lie.se3_exp`.

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

    The catalog's kernel with a row-by-row adapter: f is called once per
    point, on the n points x0 + h e_i and then on the n points
    x0 - h e_i, and column i is (f(x0 + h e_i) - f(x0 - h e_i)) / 2h.

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
    x0 = matderiv._checked(x0, "numeric_jacobian: x0", (None,))
    if not x0.size:
        return np.zeros((np.size(f(x0)), 0))
    return _fd(_rows(f), x0, h)


def manifold_numeric_jacobian(f, base, side="left", h=1e-6):
    """Central differences with respect to an on-manifold increment.

    The base pose is perturbed multiplicatively with the pseudo-
    exponential of h times each tangent coordinate: on the left,
    f(exp(eps) @ base); on the right, f(base @ exp(eps)).  A 4x4 base is
    treated as a rigid 3D pose (6 tangent coordinates, translation
    first); a 3x3 base as planar (3 coordinates).  As in
    :func:`numeric_jacobian`, the catalog's kernel calls f once per
    perturbed matrix.

    Parameters
    ----------
    f : callable
        Maps a raw homogeneous matrix to an (m,) ndarray.
    base : pose or ndarray
        HomPose / HomPose2 or their raw matrices.
    side : {'left', 'right'}
    """
    m = matderiv._checked(base, "manifold_numeric_jacobian: base", (4, 4), (3, 3))
    if side not in ("left", "right"):
        raise ValueError("side must be 'left' or 'right'")
    return _manifold_fd(_rows(f), m, side, h)


def _rows(f):
    """The stack map that calls the single-point map f on each row."""
    return lambda xs: np.array([np.asarray(f(x), dtype=float) for x in xs]).reshape(len(xs), -1)


# ---------------------------------------------------------------------------
# the kernel: one call of a stack map per Jacobian

def _central(f, x, h):
    """(m, n) central differences of the stack map f from one call on x.

    x holds 2n inputs, the n plus-perturbed ones first and then their n
    minus-perturbed ones; f maps them to 2n rows of m values.  Column i
    is (f(x_i) - f(x_{n+i})) / 2h.
    """
    y = f(x)
    n = len(x) // 2
    return ((y[:n] - y[n:]) / (2.0 * h)).T


def _fd(f, x0, h=1e-6):
    """Jacobian of the stack map f, (N, n) -> (N, m), at the (n,) vector x0."""
    return _central(f, x0 + _steps(len(x0), h), h)


def _manifold_fd(f, base, side, h=1e-6):
    """Jacobian of the stack map f, (N, k, k) -> (N, m), for an increment of base.

    The pseudo-exponentials of the steps multiply the k x k base on the
    given side, as in :func:`manifold_numeric_jacobian`.
    """
    e = _perturbations(len(base), h)
    return _central(f, e @ base if side == "left" else base @ e, h)


@functools.lru_cache(maxsize=16)
def _steps(n, h):
    """The 2n rows h e_i, then -h e_i, (2n, n); read-only, as they are shared."""
    e = h * np.eye(n)
    s = np.concatenate([e, -e])
    s.setflags(write=False)
    return s


@functools.lru_cache(maxsize=16)
def _perturbations(k, h):
    """The pseudo-exponentials of the steps for k x k poses, (2 dim, k, k).

    dim is 6 for SE(3) (k = 4) and 3 for SE(2) (k = 3); read-only, as
    they are shared.
    """
    e = lie._pseudo_exp(_steps(6 if k == 4 else 3, h))
    e.setflags(write=False)
    return e


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

def _direction(rng):
    v = rng.normal(size=3)
    return v / np.linalg.norm(v)


def _rotvec(rng, lo=0.05, hi=2.8):
    return _direction(rng) * rng.uniform(lo, hi)


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
#
# Stack maps: row i of the result is the map at input i, with the bits of
# the same formula on that input alone.  Inputs are (N, n) vectors or
# (N, k, k) matrices; a matrix product runs per matrix on C-ordered
# blocks, as on one matrix, and a norm is a dot product, as in
# np.linalg.norm of one vector (a reduction along an axis sums in another
# order).

def _norm(q):
    """|q| of each row of q (N, n)."""
    q = np.ascontiguousarray(q)
    return np.sqrt((q[:, None, :] @ q[:, :, None])[:, 0, 0])


def _unit(q):
    return q / _norm(q)[:, None]


def _mats(entries):
    """A core formula's (3, 3, N) nested result as C-ordered (N, 3, 3) matrices."""
    return np.ascontiguousarray(np.moveaxis(entries, -1, 0))


def _rot_quat(u):
    """Rotations of the unit quaternions u (N, 4)."""
    return _mats(core._rotation_from_unit_quat(*u.T))


def _rot_ypr(a):
    """Rotations of the (yaw, pitch, roll) rows a (N, 3)."""
    return _mats(core._rotation_from_angles(*a.T))


def _ypr(r):
    """(yaw, pitch, roll) rows of the (N, 3, 3) matrices r: the smooth branch
    of core._angles_from_rotation (the samplers stay off |pitch| = pi/2)."""
    sk = np.sqrt(r[:, 0, 0] * r[:, 0, 0] + r[:, 1, 0] * r[:, 1, 0])
    return np.stack([np.arctan2(r[:, 1, 0], r[:, 0, 0]), np.arctan2(-r[:, 2, 0], sk),
                     np.arctan2(r[:, 2, 1], r[:, 2, 2])], axis=-1)


def _vec(m):
    """Column-major vec of each matrix of m (N, r, c): (N, r c)."""
    return np.swapaxes(m, -1, -2).reshape(len(m), -1)


def _unvec(v, rows):
    """Inverse of :func:`_vec` for (N, rows c) vectors."""
    return np.swapaxes(v.reshape(len(v), -1, rows), -1, -2)


def _vec12(m):
    """12-vectors (N, 12) of the top 3x4 blocks of m (N, 3 or 4, 4)."""
    return _vec(m[:, :3])


def _pose(v):
    """4x4 poses (N, 4, 4) of the 12-vectors v (N, 12): vec12_to_pose of each."""
    m = np.zeros((len(v), 4, 4))
    m[:, :3] = _unvec(v, 3)
    m[:, 3, 3] = 1.0
    return m


def _times(r, p):
    """r @ p for matrices r (..., 3, 3) and points p (..., 3)."""
    return (r @ p[..., None])[..., 0]


def _act(m, p):
    """Pose (N, 3 or 4, 4) times point: R p + t."""
    return _times(m[..., :3, :3], p) + m[..., :3, 3]


def _act_inv(m, p):
    """Point in the pose's frame: R^T (p - t)."""
    return _times(np.swapaxes(m[..., :3, :3], -1, -2), p - m[..., :3, 3])


def _project(k, p):
    """vision.project of each row of p (N, 3), without the depth test."""
    return np.stack([k.cx + k.fx * p[:, 0] / p[:, 2], k.cy + k.fy * p[:, 1] / p[:, 2]],
                    axis=-1)


def _ypr_from_quatvec(v):
    qr, qx, qy, qz = _unit(v[:, 3:]).T
    return np.column_stack([
        v[:, :3],
        np.arctan2(2.0 * (qr * qz + qx * qy), 1.0 - 2.0 * (qy * qy + qz * qz)),
        np.arcsin(2.0 * (qr * qy - qx * qz)),
        np.arctan2(2.0 * (qr * qx + qy * qz), 1.0 - 2.0 * (qx * qx + qy * qy))])


def _quatvec_from_ypr(v):
    return np.concatenate([v[:, :3], core._quat_components_from_angles(*v[:, 3:].T).T], axis=1)


def _vec12_from_ypr(v):
    return np.concatenate([_vec(_rot_ypr(v[:, 3:])), v[:, :3]], axis=1)


def _vec12_from_quatvec(v):
    return np.concatenate([_vec(_rot_quat(_unit(v[:, 3:]))), v[:, :3]], axis=1)


def _ypr_from_vec12(v):
    m = _unvec(v, 3)
    return np.concatenate([m[:, :, 3], _ypr(m[:, :, :3])], axis=1)


def _quat_compose_vec(v1, v2):
    """Translation and normalized Hamilton product of the 7-vector rows of
    v1 and v2 (N, 7), either of them one row (1, 7)."""
    t = v1[:, :3] + _times(_rot_quat(_unit(v1[:, 3:])), v2[:, :3])
    h = geometry._hamilton(v1[:, 3:].T, v2[:, 3:].T).T
    h = _unit(h)
    # mirror the canonical sign choice of the composition output;
    # differentiation stays safe because samples land away from the
    # qr = 0 boundary almost surely
    return np.concatenate([t, np.where(h[:, :1] < 0.0, -h, h)], axis=1)


def _ypr_compose_vec(v1, v2):
    r1, r2 = _rot_ypr(v1[:, 3:]), _rot_ypr(v2[:, 3:])
    return np.concatenate([v1[:, :3] + _times(r1, v2[:, :3]), _ypr(r1 @ r2)], axis=1)


def _rotate_vec(v, a):
    return v[:, :3] + _times(_rot_quat(_unit(v[:, 3:])), a)


def _inv_rotate_vec(v, a):
    return _times(np.swapaxes(_rot_quat(_unit(v[:, 3:])), -1, -2), a - v[:, :3])


def _inverse_quatvec(v):
    u = _unit(v[:, 3:])
    rot_t = np.swapaxes(_rot_quat(u), -1, -2)
    return np.concatenate([-_times(rot_t, v[:, :3]), u * [1.0, -1.0, -1.0, -1.0]], axis=1)


def _so3_exp_quat(w):
    """lie.so3_exp_quat of each row of w (N, 3), as (qr, qx, qy, qz)."""
    theta = _norm(w)
    small = theta < lie._TAYLOR_EPS
    t2 = theta * theta
    half_sinc = np.where(small, 0.5 - t2 / 48.0 + t2 * t2 / 3840.0,
                         np.sin(0.5 * theta) / np.where(small, 1.0, theta))
    return np.concatenate([np.cos(0.5 * theta)[:, None], half_sinc[:, None] * w], axis=1)


def _edge_value(md_inv, m1, m2):
    return lie._pseudo_log(md_inv @ matderiv._inverse_rt(m1) @ m2)


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
    return jn, _fd(_unit, v)


@_register("core.jacobian_ypr_to_quat")
def _chk_ypr_to_quat(rng):
    p = _ypr_pose(rng)
    return core.jacobian_ypr_to_quat(p), _fd(_quatvec_from_ypr, p.vec)


@_register("core.jacobian_quat_to_ypr")
def _chk_quat_to_ypr(rng):
    p = _safe_quat_pose(rng)
    return core.jacobian_quat_to_ypr(p), _fd(_ypr_from_quatvec, p.vec)


@_register("core.jacobian_ypr_wrt_matrix")
def _chk_ypr_wrt_matrix(rng):
    m = core.ypr_to_matrix(_ypr_pose(rng))
    return core.jacobian_ypr_wrt_matrix(m), _fd(_ypr_from_vec12, m.vec12)


@_register("core.jacobian_matrix_wrt_ypr")
def _chk_matrix_wrt_ypr(rng):
    p = _ypr_pose(rng)
    return core.jacobian_matrix_wrt_ypr(p), _fd(_vec12_from_ypr, p.vec)


@_register("core.jacobian_matrix_wrt_quat")
def _chk_matrix_wrt_quat(rng):
    p = _quat_pose(rng)
    return core.jacobian_matrix_wrt_quat(p), _fd(_vec12_from_quatvec, p.vec)


@_register("geometry.compose_point_quat.pose")
def _chk_cpq_pose(rng):
    p, a = _quat_pose(rng), _translation(rng)
    _, jac, _ = geometry.compose_point_quat(p, a)
    return jac, _fd(lambda v: _rotate_vec(v, a), p.vec)


@_register("geometry.compose_point_quat.point")
def _chk_cpq_point(rng):
    p, a = _quat_pose(rng), _translation(rng)
    _, _, jac = geometry.compose_point_quat(p, a)
    return jac, _fd(lambda x: _rotate_vec(p.vec[None], x), a)


@_register("geometry.compose_point_ypr.pose")
def _chk_cpy_pose(rng):
    p, a = _ypr_pose(rng), _translation(rng)
    _, jac, _ = geometry.compose_point_ypr(p, a)
    return jac, _fd(lambda v: v[:, :3] + _times(_rot_ypr(v[:, 3:]), a), p.vec)


@_register("geometry.compose_point_ypr.point")
def _chk_cpy_point(rng):
    p, a = _ypr_pose(rng), _translation(rng)
    _, _, jac = geometry.compose_point_ypr(p, a)
    rot = core._rotation_from_angles(p.yaw, p.pitch, p.roll)
    return jac, _fd(lambda x: _times(rot, x) + p.vec[:3], a)


@_register("geometry.inv_compose_point_quat.pose")
def _chk_icpq_pose(rng):
    p, a = _quat_pose(rng), _translation(rng)
    _, jac, _ = geometry.inv_compose_point_quat(a, p)
    return jac, _fd(lambda v: _inv_rotate_vec(v, a), p.vec)


@_register("geometry.inv_compose_point_quat.point")
def _chk_icpq_point(rng):
    p, a = _quat_pose(rng), _translation(rng)
    _, _, jac = geometry.inv_compose_point_quat(a, p)
    return jac, _fd(lambda x: _inv_rotate_vec(p.vec[None], x), a)


@_register("geometry.compose_pose_quat.j1")
def _chk_cq_j1(rng):
    p1, p2 = _quat_pose(rng), _quat_pose(rng)
    _, j1, _ = geometry.compose_pose_quat(p1, p2)
    return j1, _fd(lambda v: _quat_compose_vec(v, p2.vec[None]), p1.vec)


@_register("geometry.compose_pose_quat.j2")
def _chk_cq_j2(rng):
    p1, p2 = _quat_pose(rng), _quat_pose(rng)
    _, _, j2 = geometry.compose_pose_quat(p1, p2)
    return j2, _fd(lambda v: _quat_compose_vec(p1.vec[None], v), p2.vec)


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
    return j1, _fd(lambda v: _ypr_compose_vec(v, p2.vec[None]), p1.vec)


@_register("geometry.compose_pose_ypr.j2")
def _chk_cy_j2(rng):
    p1, p2 = _ypr_pair(rng)
    _, _, j2 = geometry.compose_pose_ypr(p1, p2)
    return j2, _fd(lambda v: _ypr_compose_vec(p1.vec[None], v), p2.vec)


@_register("geometry.inverse_pose_quat")
def _chk_inverse_quat(rng):
    p = _quat_pose(rng)
    _, jac = geometry.inverse_pose_quat(p)
    return jac, _fd(_inverse_quatvec, p.vec)


@_register("matderiv.d_compose_wrt_A")
def _chk_d_compose_a(rng):
    a, b = _hompose(rng), _hompose(rng)
    return matderiv.d_compose_wrt_A(b.mat), _fd(lambda v: _vec12(_pose(v) @ b.mat),
                                                 a.vec12)


@_register("matderiv.d_compose_wrt_B")
def _chk_d_compose_b(rng):
    a, b = _hompose(rng), _hompose(rng)
    return matderiv.d_compose_wrt_B(a.mat), _fd(lambda v: _vec12(a.mat @ _pose(v)),
                                                 b.vec12)


@_register("matderiv.d_apply_wrt_point")
def _chk_d_apply_point(rng):
    a, p = _hompose(rng), _translation(rng)
    return matderiv.d_apply_wrt_point(a.mat), _fd(lambda x: _act(a.mat, x), p)


@_register("matderiv.d_apply_wrt_pose")
def _chk_d_apply_pose(rng):
    a, p = _hompose(rng), _translation(rng)
    return matderiv.d_apply_wrt_pose(p), _fd(lambda v: _act(_pose(v), p), a.vec12)


@_register("matderiv.d_inverse_wrt_pose")
def _chk_d_inverse(rng):
    a = _hompose(rng)
    num = _fd(lambda v: _vec12(matderiv._inverse_rt(_pose(v))), a.vec12)
    return matderiv.d_inverse_wrt_pose(a.mat), num


@_register("matderiv.d_invapply_wrt_point")
def _chk_d_invapply_point(rng):
    a, p = _hompose(rng), _translation(rng)
    inv = matderiv._inverse_rt(a.mat)
    return matderiv.d_invapply_wrt_point(a.mat), _fd(lambda x: _act(inv, x), p)


@_register("matderiv.d_invapply_wrt_pose")
def _chk_d_invapply_pose(rng):
    a, p = _hompose(rng), _translation(rng)
    num = _fd(lambda v: _act(matderiv._inverse_rt(_pose(v)), p), a.vec12)
    return matderiv.d_invapply_wrt_pose(a.mat, p), num


@_register("manifold.dexp_so3_at_zero")
def _chk_dexp_so3_zero(rng):
    def f(w):
        return _vec(lie._pseudo_exp(np.concatenate([np.zeros_like(w), w], axis=1))[:, :3, :3])

    return manifold_jac.dexp_so3_at_zero(), _fd(f, np.zeros(3))


@_register("manifold.dexp_so3_quat")
def _chk_dexp_so3_quat(rng):
    w = _rotvec(rng)
    return manifold_jac.dexp_so3_quat(w), _fd(_so3_exp_quat, w)


@_register("manifold.dexp_se3_at_zero")
def _chk_dexp_se3_zero(rng):
    # no stack form of se3_exp: the library map, one perturbed input at a time
    num = _fd(_rows(lambda v: lie.se3_exp(v).vec12), np.zeros(6))
    return manifold_jac.dexp_se3_at_zero(), num


@_register("manifold.dlog_so3")
def _chk_dlog_so3(rng):
    r = lie.so3_exp(_rotvec(rng, 0.05, np.pi - 0.15))
    num = _fd(lambda v: lie._log_quat(core._quat_from_rotation(_unvec(v, 3))),
              r.reshape(-1, order="F"))
    return manifold_jac.dlog_so3(r), num


@_register("manifold.dpseudolog_se3")
def _chk_dpseudolog(rng):
    t = _hompose(rng)
    return manifold_jac.dpseudolog_se3(t), _fd(lambda v: lie._pseudo_log(_unvec(v, 3)), t.vec12)


@_register("manifold.jacob_expeD_de")
def _chk_expeD(rng):
    d = _hompose(rng)
    return manifold_jac.jacob_expeD_de(d), _manifold_fd(_vec12, d.mat, "left")


@_register("manifold.jacob_Dexpe_de")
def _chk_Dexpe(rng):
    d = _hompose(rng)
    return manifold_jac.jacob_Dexpe_de(d), _manifold_fd(_vec12, d.mat, "right")


@_register("manifold.jacob_expeDp_de")
def _chk_expeDp(rng):
    d, p = _hompose(rng), _translation(rng)
    return manifold_jac.jacob_expeDp_de(d, p), _manifold_fd(lambda m: _act(m, p), d.mat, "left")


@_register("manifold.jacob_p_ominus_expeD_de")
def _chk_p_ominus_expeD(rng):
    d, p = _hompose(rng), _translation(rng)
    num = _manifold_fd(lambda m: _act_inv(m, p), d.mat, "left")
    return manifold_jac.jacob_p_ominus_expeD_de(d, p), num


@_register("manifold.jacob_AexpeD_de")
def _chk_AexpeD(rng):
    a, d = _hompose(rng), _hompose(rng)
    num = _manifold_fd(lambda m: _vec12(a.mat @ m), d.mat, "left")
    return manifold_jac.jacob_AexpeD_de(a, d), num


@_register("manifold.jacob_AexpeDp_de")
def _chk_AexpeDp(rng):
    a, d, p = _hompose(rng), _hompose(rng), _translation(rng)
    num = _manifold_fd(lambda m: _act(a.mat @ m, p), d.mat, "left")
    return manifold_jac.jacob_AexpeDp_de(a, d, p), num


@_register("manifold.jacob_p_ominus_AexpeD_de")
def _chk_p_ominus_AexpeD(rng):
    a, d, p = _hompose(rng), _hompose(rng), _translation(rng)
    num = _manifold_fd(lambda m: _act_inv(a.mat @ m, p), d.mat, "left")
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
        d_inv = matderiv._inverse_rt(d.mat)

        def f(m):
            return _edge_value(d_inv, *((m, p2.mat) if k == 0 else (p1.mat, m)))

        return (res.jac1, res.jac2)[k], _manifold_fd(f, (p1, p2)[k].mat, "right")

    for k in (0, 1):
        _register("manifold.edge_error_%s.j%d" % (kind, k + 1))(functools.partial(check, k=k))


_register_edge_checks("se3", _se3_edge_setup, manifold_jac.edge_error_se3)
_register_edge_checks("se2", _se2_edge_setup, manifold_jac.edge_error_se2)


@_register("manifold.jacob_Dexpe_de_se2")
def _chk_Dexpe_se2(rng):
    d = _se2_pose(rng)
    return manifold_jac.jacob_Dexpe_de_se2(d), _manifold_fd(lie._pseudo_log, d.mat, "right")


@_register("manifold.d_compose_se2_wrt_A")
def _chk_compose_se2_a(rng):
    a, b = _se2_pose(rng, 1.5), _se2_pose(rng, 1.5)
    num = _fd(lambda v: lie._pseudo_log(lie._pseudo_exp(v) @ b.mat),
              np.array([a.mat[0, 2], a.mat[1, 2], a.angle]))
    return manifold_jac.d_compose_se2_wrt_A(a, b), num


@_register("manifold.d_compose_se2_wrt_B")
def _chk_compose_se2_b(rng):
    a, b = _se2_pose(rng, 1.5), _se2_pose(rng, 1.5)
    num = _fd(lambda v: lie._pseudo_log(a.mat @ lie._pseudo_exp(v)),
              np.array([b.mat[0, 2], b.mat[1, 2], b.angle]))
    return manifold_jac.d_compose_se2_wrt_B(a), num


@_register("vision.dproject_dp")
def _chk_dproject(rng):
    k, p = _intrinsics(rng), _front_point(rng)
    return vision.dproject_dp(k, p), _fd(lambda x: _project(k, x), p)


def _camera_setup(rng):
    k, a = _intrinsics(rng), _hompose(rng)
    g = _front_point(rng)
    p = a.mat[:3, :3].T @ (g - a.mat[:3, 3])  # pulls A*p back onto g
    return k, a, p


@_register("vision.project_pose_point.eps")
def _chk_ppp_eps(rng):
    k, a, p = _camera_setup(rng)
    _, j_eps, _ = vision.project_pose_point(k, a, p)
    return j_eps, _manifold_fd(lambda m: _project(k, _act(m, p)), a.mat, "left")


@_register("vision.project_pose_point.point")
def _chk_ppp_point(rng):
    k, a, p = _camera_setup(rng)
    _, _, j_p = vision.project_pose_point(k, a, p)
    return j_p, _fd(lambda x: _project(k, _act(a.mat, x)), p)


def _inv_camera_setup(rng):
    k, a = _intrinsics(rng), _hompose(rng)
    local = _front_point(rng)
    p = a.mat[:3, :3] @ local + a.mat[:3, 3]  # pulls A^{-1}*p back onto local
    return k, a, p


@_register("vision.project_inv_pose_point.eps")
def _chk_pip_eps(rng):
    k, a, p = _inv_camera_setup(rng)
    _, j_eps, _ = vision.project_inv_pose_point(k, a, p)
    return j_eps, _manifold_fd(lambda m: _project(k, _act_inv(m, p)), a.mat, "left")


@_register("vision.project_inv_pose_point.point")
def _chk_pip_point(rng):
    k, a, p = _inv_camera_setup(rng)
    _, _, j_p = vision.project_inv_pose_point(k, a, p)
    return j_p, _fd(lambda x: _project(k, _act_inv(a.mat, x)), p)


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
