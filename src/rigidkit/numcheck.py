"""Numeric verification of every analytic Jacobian in the package.

Central finite differences are the ground truth: each check differentiates
the very map a function computes (including internal re-normalization,
excluding discrete representative choices such as the quaternion sign
flip) and compares against the closed-form Jacobian.  Derivatives taken
with respect to an on-manifold increment are checked by perturbing the
pose with the pseudo-exponential on the matching side.

One central-difference kernel serves every check.  For each of N samples
it builds the 2n perturbed inputs, x0 + h e_i and then x0 - h e_i (or the
pseudo-exponentials of those steps times the base pose), calls the
target map once on all 2nN of them and returns the (N, m, n) Jacobians
whose column i is (f(x0 + h e_i) - f(x0 - h e_i)) / 2h.  The catalog's
target maps are stack maps, (N, n) -> (N, m) or (N, k, k) -> (N, m), any
further arguments given per row, that give each row the bits of the
same formula on that input alone, so a report does not depend on how
many inputs share a call.  They call the
unchecked private bodies of the library or write the formula out: the
inputs are built here, so the public argument checks would test nothing.
:func:`numeric_jacobian` and :func:`manifold_numeric_jacobian` are the
kernel with an adapter that calls a single-point map once per input; the
check of the SE(3) exponential at zero uses that adapter too, as the
library has no stack form of :func:`~rigidkit.lie.se3_exp`.

:func:`check_catalog` runs the catalog as units, one per public function
at n configurations: a function with two Jacobians under test (the
compositions of ``geometry``, the edge errors, the camera projections) is
one unit that reports both, so 48 checks run as 39 units.  A unit draws
its n configurations, validates them, calls the public function once per
configuration and takes the finite differences of each Jacobian with one
call of its target map; the two units that draw nothing run once.  The
same seed yields bit-identical reports, independent of the order in which
units were registered and of which units run, because every unit gets
its own generator seeded from (seed, crc32 of the name of its first
check).

A sampler draws each quantity of its n configurations with one generator
call and builds each stack from those arrays; a sampled HomPose or
HomPose2 is the pseudo-exponential of its (translation, rotation vector
or angle) row, the solver's retraction.  A stack of HomPose or HomPose2
matrices is validated once with the constructor's tests
(``core._rigid_checks``) and the public call gets poses wrapped from its
validated rows; a sampled QuatPose, EulerPose or CameraIntrinsics is built
row by row by its public constructors, and its stack holds what the
objects store.  Domain-restricted samplers keep each draw far from
singular configurations, where a finite difference would measure the
singularity instead of the formula; the two rejection samplers test every
draw and keep the first n that pass.
"""

import functools
import operator
from dataclasses import dataclass
from zlib import crc32

import numpy as np

from . import core, geometry, lie, manifold_jac, matderiv, vision
from .errors import GeometryError

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
        Step size per coordinate, a finite number > 0.

    Returns
    -------
    (m, n) ndarray
    """
    x0 = matderiv._checked(x0, "numeric_jacobian: x0", (None,))
    h = matderiv._number(h, "numeric_jacobian: h", 0, strict=True)
    if not callable(f):
        raise GeometryError("numeric_jacobian: f must be callable")
    if not x0.size:
        return np.zeros((np.size(f(x0)), 0))
    return _fd(_rows(f), (x0[None],), 0, h)[0]


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
    h : float
        Step size per tangent coordinate, a finite number > 0.
    """
    m = matderiv._checked(base, "manifold_numeric_jacobian: base", (4, 4), (3, 3))
    if not isinstance(side, str) or side not in ("left", "right"):
        raise GeometryError("manifold_numeric_jacobian: side must be 'left' or 'right'")
    h = matderiv._number(h, "manifold_numeric_jacobian: h", 0, strict=True)
    if not callable(f):
        raise GeometryError("manifold_numeric_jacobian: f must be callable")
    return _manifold_fd(_rows(f), (m[None],), 0, side, h)[0]


def _rows(f):
    """The stack map that calls the single-point map f on each row."""
    return lambda xs: np.array([np.asarray(f(x), dtype=float) for x in xs]).reshape(len(xs), -1)


# ---------------------------------------------------------------------------
# the kernel: one call of a stack map for the Jacobians of all samples

def _central(f, args, i, x, h):
    """(N, m, n) central differences of the stack map f from one call.

    x (N, 2n, ...) holds each sample's n plus-perturbed values of args[i],
    then its n minus-perturbed ones; the other args (N, ...) are repeated
    for the 2n inputs of their sample.
    """
    width = x.shape[1]
    y = f(*[x.reshape((-1,) + x.shape[2:]) if j == i else np.repeat(a, width, axis=0)
            for j, a in enumerate(args)]).reshape(len(x), width, -1)
    n = width // 2
    return np.swapaxes((y[:, :n] - y[:, n:]) / (2.0 * h), 1, 2)


def _fd(f, args, i=0, h=1e-6):
    """Jacobians of the stack map f(*args) w.r.t. args[i] (N, n), at each row."""
    x = args[i]
    return _central(f, args, i, x[:, None] + _steps(x.shape[1], h), h)


def _manifold_fd(f, args, i, side="left", h=1e-6):
    """Jacobians of the stack map f(*args) for an increment of each pose of
    args[i] (N, k, k), by the pseudo-exponentials of the steps on the given
    side, as in :func:`manifold_numeric_jacobian`."""
    base = args[i][:, None]
    e = _perturbations(base.shape[-1], h)
    return _central(f, args, i, e @ base if side == "left" else base @ e, h)


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
    """Outcome of one catalog entry: worst deviation over all samples.

    A difference that is not finite is the worst: it fails the check, and
    the report points at its first occurrence.
    """

    op: str
    max_abs_error: float
    worst_row: int
    worst_col: int
    worst_sample: int
    analytic: np.ndarray
    numeric: np.ndarray
    passed: bool

    def to_json_dict(self):
        """The report as strict JSON values: a non-finite maxAbsError is null."""
        return {
            "op": self.op,
            "maxAbsError": self.max_abs_error if np.isfinite(self.max_abs_error) else None,
            "worstRow": self.worst_row,
            "worstCol": self.worst_col,
            "worstSample": self.worst_sample,
            "pass": self.passed,
        }

# ---------------------------------------------------------------------------
# finite-difference target maps (raw, smooth, no canonicalization)
#
# Stack maps: row i of the result is the map at input i, with the bits of
# the same formula on that input alone.  Inputs are (N, n) vectors or
# (N, k, k) matrices; a matrix product runs per matrix on C-ordered
# blocks, as on one matrix, and a norm is matderiv._row_norms, one dot
# product per row, as in np.linalg.norm of one vector (a reduction along
# an axis sums in another order); the g2o reader norms its quaternions
# with it too.

def _unit(q):
    return q / matderiv._row_norms(q)[:, None]


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
    of core._angles_from_rotation, the one Euler extraction, which
    matrix_to_ypr and quat_to_ypr share (the samplers stay off
    |pitch| = pi/2)."""
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
    """vision.project of each row of p (N, 3) through the intrinsics rows k
    (fx, fy, cx, cy), without the depth test."""
    return np.stack([k[..., 2] + k[..., 0] * p[:, 0] / p[:, 2],
                     k[..., 3] + k[..., 1] * p[:, 1] / p[:, 2]], axis=-1)


def _ypr_from_quatvec(v):
    """quat_to_ypr of each row of v (N, 7): the angles of its rotation."""
    return np.concatenate([v[:, :3], _ypr(_rot_quat(_unit(v[:, 3:])))], axis=1)


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
    v1 and v2 (N, 7)."""
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


def _ypr_act(v, a):
    """The points a (N, 3) moved by the (x, y, z, yaw, pitch, roll) rows v."""
    return v[:, :3] + _times(_rot_ypr(v[:, 3:]), a)


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
    theta = matderiv._row_norms(w)
    small = theta < lie._TAYLOR_EPS
    t2 = theta * theta
    half_sinc = np.where(small, 0.5 - t2 / 48.0 + t2 * t2 / 3840.0,
                         np.sin(0.5 * theta) / np.where(small, 1.0, theta))
    return np.concatenate([np.cos(0.5 * theta)[:, None], half_sinc[:, None] * w], axis=1)


def _edge_value(md_inv, m1, m2):
    return lie._pseudo_log(md_inv @ matderiv._inverse_rt(m1) @ m2)


def _project_act(k, m, p):
    return _project(k, _act(m, p))


def _project_act_inv(k, m, p):
    return _project(k, _act_inv(m, p))


# ---------------------------------------------------------------------------
# samplers
#
# A kind is one argument of a public call, (make, draw): draw(rng, n) gives
# the (n, ...) stack of the argument's numbers (a pose's matrix or
# parameter vector, the intrinsics (fx, fy, cx, cy), or the array itself)
# with one generator call per drawn quantity, and make says what the call
# takes: None for an array, HomPose or HomPose2 for a matrix, else the
# public constructor of the object, called with one row of numbers.  A
# sampled HomPose or HomPose2 is lie._pseudo_exp of its (translation,
# rotation vector or angle) row, the solver's retraction.

def _sampler(*kinds):
    """sample(rng, n): n configurations of one value of each kind, as a
    (make, stack) pair per kind."""
    return lambda rng, n: [(make, draw(rng, n)) for make, draw in kinds]


def _accepted(sample, ok):
    """sample, keeping the first n configurations whose stacks pass ok (a
    mask), in draw order."""
    def accepted(rng, n):
        kept, count = [], 0
        while count < n:
            block = sample(rng, n)
            with np.errstate(invalid="ignore"):
                keep = ok(*[s for _, s in block])
            kept.append([s[keep] for _, s in block])
            count += np.count_nonzero(keep)
        return [(make, np.concatenate(s)[:n]) for (make, _), s in zip(block, zip(*kept))]
    return accepted


def _uniform(lo, hi):
    """draw(rng, n): n rows uniform in the box of the per-column bounds lo, hi."""
    return lambda rng, n: rng.uniform(lo, hi, (n, len(lo)))


def _rotvecs(rng, n, lo=0.05, hi=2.8):
    """n rotation vectors: normal directions times angles uniform in [lo, hi]."""
    d = rng.normal(size=(n, 3))
    return d / matderiv._row_norms(d)[:, None] * rng.uniform(lo, hi, (n, 1))


def _raw_quats(rng, n):
    """n quaternions of norm uniform in [0.5, 2] from normal draws, their
    scalar part first moved to at least 0.2."""
    v = rng.normal(size=(n, 4))
    v[:, 0] = np.abs(v[:, 0]) + 0.2
    return v * (rng.uniform(0.5, 2.0, n) / matderiv._row_norms(v))[:, None]


def _tame(e):
    """Whether the (yaw, pitch, roll) rows e stay off the gimbal band and
    the yaw/roll cuts."""
    return (np.abs(e[:, 1]) <= 1.2) & (np.abs(e[:, 0]) <= 3.05) & (np.abs(e[:, 2]) <= 3.05)


_DEG85 = np.deg2rad(85.0)
_TRANSLATION = _uniform([-2.0] * 3, [2.0] * 3)
_POINT = (None, _TRANSLATION)
_FRONT_POINT = (None, _uniform([-1.0, -1.0, 0.5], [1.0, 1.0, 3.0]))
_HOMPOSE = (core.HomPose, lambda rng, n: lie._pseudo_exp(
    np.concatenate([_TRANSLATION(rng, n), _rotvecs(rng, n)], axis=1)))
_QUAT_POSE = (lambda x, y, z, *q: core.QuatPose(x, y, z, core.Quaternion(*q)), lambda rng, n:
              np.concatenate([_TRANSLATION(rng, n), _so3_exp_quat(_rotvecs(rng, n))], axis=1))
_YPR_POSE = (core.EulerPose,
             _uniform([-2.0] * 3 + [-3.1, -_DEG85, -3.1], [2.0] * 3 + [3.1, _DEG85, 3.1]))
_INTRINSICS = (vision.CameraIntrinsics,
               _uniform([100.0, 100.0, 200.0, 100.0], [600.0, 600.0, 400.0, 300.0]))


def _se2_pose(max_angle):
    return core.HomPose2, lambda rng, n: lie._pseudo_exp(
        rng.uniform([-2.0, -2.0, -max_angle], [2.0, 2.0, max_angle], (n, 3)))


def _ypr_hompose(rng, n):
    """HomPose matrices of EulerPose draws, by the rotation vectors of their
    quaternions."""
    v = _quatvec_from_ypr(_YPR_POSE[1](rng, n))
    return lie._pseudo_exp(np.concatenate([v[:, :3], lie._log_quat(v[:, 3:])], axis=1))


def _edge_setup(pose, eps):
    """sample(rng, n): two poses of the kind pose and the measurements
    b exp(eps) of their relative poses b, with eps(rng, n) the tangent rows."""
    make, draw = pose

    def sample(rng, n):
        m1, m2 = draw(rng, n), draw(rng, n)
        d = matderiv._inverse_rt(m1) @ m2 @ lie._pseudo_exp(eps(rng, n))
        return [(make, d), (make, m1), (make, m2)]
    return sample


def _camera_setup(pull):
    """sample(rng, n): intrinsics, a pose a and the point pull(a, g) that the
    unit's projection maps back onto a front point g."""
    def sample(rng, n):
        k, a, (_, g) = _sampler(_INTRINSICS, _HOMPOSE, _FRONT_POINT)(rng, n)
        return [k, a, (None, pull(a[1], g))]
    return sample


# The rejection tests see the values the constructors store: the samplers'
# ranges leave the sign flip, the wraps and the clamp nothing to change.
_safe_quat_pose = _accepted(_sampler(_QUAT_POSE), lambda v: _tame(_ypr_from_quatvec(v)[:, 3:]))
_ypr_pair = _accepted(_sampler(_YPR_POSE, _YPR_POSE),
                      lambda v1, v2: _tame(_ypr(_rot_ypr(v1[:, 3:]) @ _rot_ypr(v2[:, 3:]))))


def _argument(unit, make, stack):
    """The validated stack of one argument of the unit's public call,
    read-only, and the call's value of it in each configuration.

    A stack of matrices is validated at once and wrapped row by row.  Any
    other object is built from its row by make, its public constructor,
    and a stack of poses then holds what the objects store: the canonical
    sign of a quaternion, the wrapped angles of an EulerPose.
    """
    if make in (None, core.HomPose, core.HomPose2):
        fault = make and core._first_failure(core._rigid_checks(stack))
        if fault:
            raise GeometryError("%s: sample %d: %s" % (unit, *fault))
        stack.setflags(write=False)
        return stack, [make._trusted(m) for m in stack] if make else list(stack)
    values = []
    for i, row in enumerate(stack.tolist()):
        try:
            values.append(make(*row))
        except GeometryError as exc:
            raise GeometryError("%s: sample %d: %s" % (unit, i, exc)) from exc
    if hasattr(values[0], "vec"):
        stack = np.array([v.vec for v in values])
    stack.setflags(write=False)
    return stack, values


def _configurations(unit, seed, n):
    """The unit's validated stacks, read-only, and the values of the public
    call for each of its n configurations (one empty one if it draws
    nothing)."""
    sample = _CHECKS[unit][1]
    rng = np.random.default_rng([seed, crc32(unit.encode("ascii"))])
    args = [_argument(unit, make, stack) for make, stack in sample(rng, n)] if sample else []
    return [s for s, _ in args], list(zip(*[v for _, v in args])) or [()]


# ---------------------------------------------------------------------------
# the catalog

_CHECKS = {}


def _register_unit(names, sample, analytic, numeric):
    """A unit: one public function at n configurations, with a check of
    each of its Jacobians under test.

    names are the checks' names, the first also naming the unit and its
    generator; sample(rng, n) draws the configurations (see
    :func:`_sampler`; None: nothing, the unit runs once); analytic(*values)
    gives the Jacobians under test, one per name, from one call; and
    numeric(*stacks) the (N, m, k) numeric ones, one per name.
    """
    _CHECKS[names[0]] = (tuple(names), sample, analytic, numeric)


def _register(name, sample, analytic, numeric):
    """A unit of one check: analytic and numeric give its Jacobian alone."""
    _register_unit([name], sample, lambda *s: [analytic(*s)], lambda *s: [numeric(*s)])


def _register_pair(name, sample, fn, f, suffixes):
    """The unit of fn(x, y) -> (value, J wrt x, J wrt y); f is its stack map."""
    _register_unit([name + "." + s for s in suffixes], sample, lambda *s: fn(*s)[1:],
                   lambda *s: [_fd(f, s, 0), _fd(f, s, 1)])


def _register_edge(kind, setup, error):
    """The unit of an edge error: its Jacobians w.r.t. right increments of
    P1 and of P2, the measurement and the other pose held."""
    _register_unit(["manifold.edge_error_%s.j%d" % (kind, k) for k in (1, 2)], setup,
                   lambda *s: operator.attrgetter("jac1", "jac2")(error(*s)),
                   lambda d, p1, p2: [_manifold_fd(_edge_value, (matderiv._inverse_rt(d), p1, p2),
                                                   k, "right") for k in (1, 2)])


def _register_camera(fn, f, pull):
    """The unit of fn(k, a, p) -> (pixel, J wrt a left increment of a, J wrt p);
    f is its stack map, and pull(a, g) the point that a maps onto g."""
    name = "vision." + fn.__name__
    _register_unit([name + ".eps", name + ".point"], _camera_setup(pull), lambda *s: fn(*s)[1:],
                   lambda *s: [_manifold_fd(f, s, 1), _fd(f, s, 2)])


_register("core.quat_normalize", _sampler((None, _raw_quats)),
          lambda v: core.quat_normalize(core.Quaternion(*v))[1], lambda v: _fd(_unit, (v,)))
_register("core.jacobian_ypr_to_quat", _sampler(_YPR_POSE), core.jacobian_ypr_to_quat,
          lambda p: _fd(_quatvec_from_ypr, (p,)))
_register("core.jacobian_quat_to_ypr", _safe_quat_pose, core.jacobian_quat_to_ypr,
          lambda p: _fd(_ypr_from_quatvec, (p,)))
_register("core.jacobian_ypr_wrt_matrix", _sampler((core.HomPose, _ypr_hompose)),
          core.jacobian_ypr_wrt_matrix, lambda m: _fd(_ypr_from_vec12, (_vec12(m),)))
_register("core.jacobian_matrix_wrt_ypr", _sampler(_YPR_POSE), core.jacobian_matrix_wrt_ypr,
          lambda p: _fd(_vec12_from_ypr, (p,)))
_register("core.jacobian_matrix_wrt_quat", _sampler(_QUAT_POSE), core.jacobian_matrix_wrt_quat,
          lambda p: _fd(_vec12_from_quatvec, (p,)))

_register_pair("geometry.compose_point_quat", _sampler(_QUAT_POSE, _POINT),
               geometry.compose_point_quat, _rotate_vec, ("pose", "point"))
_register_pair("geometry.compose_point_ypr", _sampler(_YPR_POSE, _POINT),
               geometry.compose_point_ypr, _ypr_act, ("pose", "point"))
_register_pair("geometry.compose_pose_quat", _sampler(_QUAT_POSE, _QUAT_POSE),
               geometry.compose_pose_quat, _quat_compose_vec, ("j1", "j2"))
_register_pair("geometry.compose_pose_ypr", _ypr_pair, geometry.compose_pose_ypr,
               _ypr_compose_vec, ("j1", "j2"))
# inv_compose_point_quat takes (point, pose) and gives J wrt the pose first
_register_pair("geometry.inv_compose_point_quat", _sampler(_QUAT_POSE, _POINT),
               lambda p, a: geometry.inv_compose_point_quat(a, p), _inv_rotate_vec,
               ("pose", "point"))
_register("geometry.inverse_pose_quat", _sampler(_QUAT_POSE),
          lambda p: geometry.inverse_pose_quat(p)[1], lambda p: _fd(_inverse_quatvec, (p,)))

_register("matderiv.d_compose_wrt_A", _sampler(_HOMPOSE, _HOMPOSE),
          lambda a, b: matderiv.d_compose_wrt_A(b.mat),
          lambda a, b: _fd(lambda v, b: _vec12(_pose(v) @ b), (_vec12(a), b)))
_register("matderiv.d_compose_wrt_B", _sampler(_HOMPOSE, _HOMPOSE),
          lambda a, b: matderiv.d_compose_wrt_B(a.mat),
          lambda a, b: _fd(lambda a, v: _vec12(a @ _pose(v)), (a, _vec12(b)), 1))
_register("matderiv.d_apply_wrt_point", _sampler(_HOMPOSE, _POINT),
          lambda a, p: matderiv.d_apply_wrt_point(a.mat), lambda a, p: _fd(_act, (a, p), 1))
_register("matderiv.d_apply_wrt_pose", _sampler(_HOMPOSE, _POINT),
          lambda a, p: matderiv.d_apply_wrt_pose(p),
          lambda a, p: _fd(lambda v, p: _act(_pose(v), p), (_vec12(a), p)))
_register("matderiv.d_inverse_wrt_pose", _sampler(_HOMPOSE),
          lambda a: matderiv.d_inverse_wrt_pose(a.mat),
          lambda a: _fd(lambda v: _vec12(matderiv._inverse_rt(_pose(v))), (_vec12(a),)))
_register("matderiv.d_invapply_wrt_point", _sampler(_HOMPOSE, _POINT),
          lambda a, p: matderiv.d_invapply_wrt_point(a.mat),
          lambda a, p: _fd(_act, (matderiv._inverse_rt(a), p), 1))
_register("matderiv.d_invapply_wrt_pose", _sampler(_HOMPOSE, _POINT),
          lambda a, p: matderiv.d_invapply_wrt_pose(a.mat, p),
          lambda a, p: _fd(lambda v, p: _act(matderiv._inverse_rt(_pose(v)), p), (_vec12(a), p)))

_register("manifold.dexp_so3_at_zero", None, manifold_jac.dexp_so3_at_zero,
          lambda: _fd(lambda w: _vec(lie._pseudo_exp(
              np.concatenate([np.zeros_like(w), w], axis=1))[:, :3, :3]), (np.zeros((1, 3)),)))
_register("manifold.dexp_so3_quat", _sampler((None, _rotvecs)),
          manifold_jac.dexp_so3_quat, lambda w: _fd(_so3_exp_quat, (w,)))
# no stack form of se3_exp: the library map, one perturbed input at a time
_register("manifold.dexp_se3_at_zero", None, manifold_jac.dexp_se3_at_zero,
          lambda: _fd(_rows(lambda v: lie.se3_exp(v).vec12), (np.zeros((1, 6)),)))
_register("manifold.dlog_so3", _sampler((None, lambda rng, n: lie._pseudo_exp(np.concatenate(
    [np.zeros((n, 3)), _rotvecs(rng, n, 0.05, np.pi - 0.15)], axis=1))[:, :3, :3])),
    manifold_jac.dlog_so3,
    lambda r: _fd(lambda v: lie._log_quat(core._quat_from_rotation(_unvec(v, 3))), (_vec(r),)))
_register("manifold.dpseudolog_se3", _sampler(_HOMPOSE), manifold_jac.dpseudolog_se3,
          lambda t: _fd(lambda v: lie._pseudo_log(_unvec(v, 3)), (_vec12(t),)))
_register("manifold.jacob_expeD_de", _sampler(_HOMPOSE), manifold_jac.jacob_expeD_de,
          lambda d: _manifold_fd(_vec12, (d,), 0))
_register("manifold.jacob_Dexpe_de", _sampler(_HOMPOSE), manifold_jac.jacob_Dexpe_de,
          lambda d: _manifold_fd(_vec12, (d,), 0, "right"))
_register("manifold.jacob_expeDp_de", _sampler(_HOMPOSE, _POINT), manifold_jac.jacob_expeDp_de,
          lambda d, p: _manifold_fd(_act, (d, p), 0))
_register("manifold.jacob_p_ominus_expeD_de", _sampler(_HOMPOSE, _POINT),
          manifold_jac.jacob_p_ominus_expeD_de, lambda d, p: _manifold_fd(_act_inv, (d, p), 0))
_register("manifold.jacob_AexpeD_de", _sampler(_HOMPOSE, _HOMPOSE), manifold_jac.jacob_AexpeD_de,
          lambda a, d: _manifold_fd(lambda a, m: _vec12(a @ m), (a, d), 1))
_register("manifold.jacob_AexpeDp_de", _sampler(_HOMPOSE, _HOMPOSE, _POINT),
          manifold_jac.jacob_AexpeDp_de,
          lambda a, d, p: _manifold_fd(lambda a, m, p: _act(a @ m, p), (a, d, p), 1))
_register("manifold.jacob_p_ominus_AexpeD_de", _sampler(_HOMPOSE, _HOMPOSE, _POINT),
          manifold_jac.jacob_p_ominus_AexpeD_de,
          lambda a, d, p: _manifold_fd(lambda a, m, p: _act_inv(a @ m, p), (a, d, p), 1))
_register_edge("se3", _edge_setup(_HOMPOSE, lambda rng, n: np.concatenate(
    [rng.uniform(-0.3, 0.3, (n, 3)), _rotvecs(rng, n, 0.02, 0.3)], axis=1)),
    manifold_jac.edge_error_se3)
_register_edge("se2", _edge_setup(_se2_pose(1.5), _uniform([-0.3] * 3, [0.3] * 3)),
               manifold_jac.edge_error_se2)

_register("manifold.jacob_Dexpe_de_se2", _sampler(_se2_pose(3.0)),
          manifold_jac.jacob_Dexpe_de_se2,
          lambda d: _manifold_fd(lie._pseudo_log, (d,), 0, "right"))
_register("manifold.d_compose_se2_wrt_A", _sampler(_se2_pose(1.5), _se2_pose(1.5)),
          manifold_jac.d_compose_se2_wrt_A,
          lambda a, b: _fd(lambda v, b: lie._pseudo_log(lie._pseudo_exp(v) @ b),
                           (lie._pseudo_log(a), b)))
_register("manifold.d_compose_se2_wrt_B", _sampler(_se2_pose(1.5), _se2_pose(1.5)),
          lambda a, b: manifold_jac.d_compose_se2_wrt_B(a),
          lambda a, b: _fd(lambda a, v: lie._pseudo_log(a @ lie._pseudo_exp(v)),
                           (a, lie._pseudo_log(b)), 1))

_register("vision.dproject_dp", _sampler(_INTRINSICS, _FRONT_POINT), vision.dproject_dp,
          lambda k, p: _fd(_project, (k, p), 1))
_register_camera(vision.project_pose_point, _project_act, _act_inv)
_register_camera(vision.project_inv_pose_point, _project_act_inv, _act)


def _report(name, a, num, tol):
    """The JacobianReport of analytic and numeric Jacobians a, num (N, m, k).

    The worst entry is the first non-finite difference, else the first
    largest.
    """
    with np.errstate(invalid="ignore"):
        diff = np.abs(a - num)
    bad = ~np.isfinite(diff)
    i, row, col = np.unravel_index(int(np.argmax(bad if bad.any() else diff)), diff.shape)
    err = float(diff[i, row, col])
    return JacobianReport(op=name, max_abs_error=err, worst_row=int(row), worst_col=int(col),
                          worst_sample=int(i), analytic=a[i], numeric=num[i],
                          passed=bool(err <= tol))


def _check_unit(unit, seed, n, tol):
    """The reports of the unit registered as unit, one per check, at n
    configurations: one call of the public function per configuration."""
    names, _, analytic, numeric = _CHECKS[unit]
    stacks, drawn = _configurations(unit, seed, n)
    jacobians = zip(*[analytic(*s) for s in drawn])
    return [_report(name, np.array(a), num, tol)
            for name, a, num in zip(names, jacobians, numeric(*stacks))]


def check_catalog(seed=1, n=100, tol=1e-5):
    """Run every registered check and report the worst deviation of each.

    The checks run unit by unit, one after another, in the calling
    process, which starts no other process.  ``rigidkit jacobian-check``
    prints these reports.

    Parameters
    ----------
    seed : int
        Master seed, an integer >= 0; each unit derives its own generator
        from it and the CRC-32 of the name of its first check, so results
        do not depend on registration order and are bit-identical across
        runs.
    n : int
        Configurations per unit, at least 1.
    tol : float
        Maximum absolute deviation accepted between analytic and numeric
        entries: finite and >= 0.

    Returns
    -------
    list of JacobianReport
        One per check, sorted by operation name.

    Raises
    ------
    GeometryError
        If seed is not an integer >= 0, n not an integer >= 1 or tol
        not a finite number >= 0.
    """
    seed = matderiv._number(seed, "check_catalog: seed", 0, integer=True)
    n = matderiv._number(n, "check_catalog: n", 1, integer=True)
    tol = matderiv._number(tol, "check_catalog: tol", 0)
    return sorted((r for unit in _CHECKS for r in _check_unit(unit, seed, n, tol)),
                  key=operator.attrgetter("op"))
