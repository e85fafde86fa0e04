"""Finite-difference engine and the analytic-derivative catalog runner."""
import json
import re
from zlib import crc32

import numpy as np
import pytest

from conftest import rand_hompose
from rigidkit import (CameraIntrinsics, EulerPose, HomPose, HomPose2, QuatPose, apply_vec12,
                      check_catalog, compose_point_quat, compose_point_ypr, compose_pose_quat,
                      compose_pose_ypr, edge_error_se2, edge_error_se3, inv_compose_point_quat,
                      inverse_rt, jacob_Dexpe_de, jacob_expeD_de, manifold_numeric_jacobian,
                      numeric_jacobian, pose_to_vec12, project, project_inv_pose_point,
                      project_pose_point, quat_to_ypr, se2_pseudo_exp, se3_pseudo_exp, so3_exp,
                      so3_exp_quat, vec12_to_pose, ypr_to_matrix)
from rigidkit import numcheck
from rigidkit.core import _angles_from_rotation, _rotation_from_angles
from rigidkit.errors import GeometryError


def test_numeric_jacobian_polynomial():
    def f(x):
        return np.array([x[0] ** 2 + 3.0 * x[1],
                         np.sin(x[0]) * x[2],
                         x[1] * x[2]])

    x0 = np.array([0.7, -1.2, 0.4])
    expected = np.array([[2 * x0[0], 3.0, 0.0],
                         [np.cos(x0[0]) * x0[2], 0.0, np.sin(x0[0])],
                         [0.0, x0[2], x0[1]]])
    assert np.abs(numeric_jacobian(f, x0) - expected).max() < 1e-9


def test_numeric_jacobian_linear_map_near_exact():
    a = np.array([[2.0, -1.0], [0.5, 3.0], [1.0, 1.0]])
    fd = numeric_jacobian(lambda x: a @ x, np.array([0.3, -0.8]))
    assert np.abs(fd - a).max() < 1e-9


def test_numeric_jacobian_scalar_output():
    fd = numeric_jacobian(lambda x: np.array([x[0] * x[1]]),
                          np.array([2.0, 5.0]))
    assert fd.shape == (1, 2)
    assert np.abs(fd - np.array([[5.0, 2.0]])).max() < 1e-9


def test_manifold_fd_sides_match_analytic_increments():
    rng = np.random.default_rng(0)
    for _ in range(10):
        d = rand_hompose(rng)
        left = manifold_numeric_jacobian(pose_to_vec12, d.mat, side="left")
        right = manifold_numeric_jacobian(pose_to_vec12, d.mat, side="right")
        assert np.abs(left - jacob_expeD_de(d)).max() < 1e-6
        assert np.abs(right - jacob_Dexpe_de(d)).max() < 1e-6


def test_manifold_fd_2x3_base():
    # SE(2) bases are dispatched on matrix size
    from rigidkit import se2_exp
    d = se2_exp(np.array([0.4, -0.7, 0.9]))
    j = manifold_numeric_jacobian(lambda m: m[:2, 2], d.mat, side="left")
    assert j.shape == (2, 3)


def test_catalog_full_pass():
    reports = check_catalog(seed=1, n=25, tol=1e-5)
    assert len(reports) == 48
    assert all(r.passed for r in reports)
    assert max(r.max_abs_error for r in reports) < 1e-5


def test_catalog_deterministic():
    a = check_catalog(seed=7, n=10, tol=1e-5)
    b = check_catalog(seed=7, n=10, tol=1e-5)
    assert [r.op for r in a] == [r.op for r in b]
    assert [r.max_abs_error for r in a] == [r.max_abs_error for r in b]
    assert [(r.worst_row, r.worst_col, r.worst_sample) for r in a] == \
        [(r.worst_row, r.worst_col, r.worst_sample) for r in b]


def test_catalog_seed_changes_samples():
    a = check_catalog(seed=1, n=10, tol=1e-5)
    b = check_catalog(seed=2, n=10, tol=1e-5)
    assert [r.max_abs_error for r in a] != [r.max_abs_error for r in b]


def test_catalog_impossible_tolerance_fails_honestly():
    reports = check_catalog(seed=1, n=5, tol=1e-20)
    assert any(not r.passed for r in reports)
    # failure reports still carry their diagnostics
    bad = next(r for r in reports if not r.passed)
    assert bad.max_abs_error > 1e-20
    assert 0 <= bad.worst_sample < 5


def test_report_json_keys():
    r = check_catalog(seed=1, n=2, tol=1e-5)[0]
    d = r.to_json_dict()
    assert set(d) == {"op", "maxAbsError", "worstRow", "worstCol",
                      "worstSample", "pass"}
    assert d["op"] == r.op
    assert d["maxAbsError"] == r.max_abs_error
    assert d["pass"] is True


def test_report_carries_matrices():
    r = check_catalog(seed=1, n=2, tol=1e-5)[0]
    assert r.analytic.shape == r.numeric.shape
    assert np.abs(r.analytic - r.numeric).max() == r.max_abs_error


def test_catalog_covers_every_module():
    ops = {r.op for r in check_catalog(seed=1, n=2, tol=1e-5)}
    prefixes = {op.split(".")[0] for op in ops}
    assert {"core", "geometry", "matderiv", "manifold", "vision"} <= prefixes


@pytest.mark.parametrize("side", ["left", "right"])
@pytest.mark.parametrize("pexp, dim", [(se2_pseudo_exp, 3), (se3_pseudo_exp, 6)])
def test_manifold_fd_equals_the_uncached_formula(pexp, dim, side):
    rng = np.random.default_rng(5)
    base = pexp(rng.normal(size=dim)).mat

    def f(m):
        return np.concatenate([m[:-1, -1], np.sin(m[:-1, :-1]).ravel()])

    cols = []
    for i in range(dim):
        eps = np.zeros(dim)
        eps[i] = 1e-6
        plus, minus = pexp(eps).mat, pexp(-eps).mat
        hi, lo = (f(plus @ base), f(minus @ base)) if side == "left" else \
            (f(base @ plus), f(base @ minus))
        cols.append((hi - lo) / 2e-6)
    want = np.column_stack(cols)
    assert manifold_numeric_jacobian(f, base, side=side).tobytes() == want.tobytes()


def test_cached_perturbations_are_read_only():
    for pexp, dim, k in [(se2_pseudo_exp, 3, 3), (se3_pseudo_exp, 6, 4)]:
        stack = numcheck._perturbations(k, 1e-6)
        assert stack.shape == (2 * dim, k, k)
        steps = np.concatenate([1e-6 * np.eye(dim), -1e-6 * np.eye(dim)])
        assert stack.tobytes() == np.array([pexp(e).mat for e in steps]).tobytes()
        for a in (stack, numcheck._steps(dim, 1e-6)):
            assert not a.flags.writeable
            with pytest.raises(ValueError):
                a[0, 0] = 2.0


@pytest.mark.parametrize("seed", [1, 7])
def test_batching_changes_no_bit(seed, monkeypatch):
    # the kernel calls each stack map once on the 2n perturbed inputs of all
    # samples of a check; one sample at a time and one input at a time must
    # give every report bit for bit
    batched = check_catalog(seed=seed, n=10)
    central = numcheck._central

    def one_at_a_time(f, args, i, x, h):
        def rowwise(*rows):
            return np.concatenate([f(*(a[r:r + 1] for a in rows)) for r in range(len(rows[0]))])

        return np.concatenate([central(rowwise, [a[s:s + 1] for a in args], i, x[s:s + 1], h)
                               for s in range(len(x))])

    monkeypatch.setattr(numcheck, "_central", one_at_a_time)
    reference = check_catalog(seed=seed, n=10)
    assert len(batched) == len(reference) == 48
    for a, b in zip(batched, reference):
        assert (a.op, a.max_abs_error, a.worst_row, a.worst_col, a.worst_sample, a.passed) == \
            (b.op, b.max_abs_error, b.worst_row, b.worst_col, b.worst_sample, b.passed)
        assert a.analytic.tobytes() == b.analytic.tobytes()
        assert a.numeric.tobytes() == b.numeric.tobytes()


def _poison(monkeypatch, name, values):
    """Make the one-check unit name's analytic Jacobian hold values[s] at
    (1, 2) in each sample s of values (0-based, in the order they are drawn)."""
    names, sample, analytic, numeric = numcheck._CHECKS[name]
    calls = iter(range(1000))

    def poisoned(*s):
        j = np.array(analytic(*s)[0], dtype=float)
        j[1, 2] = values.get(next(calls), j[1, 2])
        return [j]

    monkeypatch.setitem(numcheck._CHECKS, name, (names, sample, poisoned, numeric))


@pytest.mark.parametrize("first, later", [(np.nan, np.nan), (np.inf, np.nan), (-np.inf, 1e300)])
def test_non_finite_difference_fails_at_its_first_sample(first, later, monkeypatch):
    # the first sample with a non-finite difference is the worst: neither
    # np.argmax's preference for NaN over inf nor a huge finite entry in a
    # later sample may move the report
    _poison(monkeypatch, "core.jacobian_matrix_wrt_quat", {3: first, 7: later})
    r = numcheck._check_op("core.jacobian_matrix_wrt_quat", 1, 10, 1e-5)
    assert not r.passed
    assert (r.worst_sample, r.worst_row, r.worst_col) == (3, 1, 2)
    assert not np.isfinite(r.max_abs_error)
    assert np.array_equal(r.analytic[1, 2], first, equal_nan=True)
    assert r.to_json_dict()["maxAbsError"] is None
    json.dumps(r.to_json_dict(), allow_nan=False)


def test_non_finite_difference_in_every_sample(monkeypatch):
    _poison(monkeypatch, "core.jacobian_matrix_wrt_quat", dict.fromkeys(range(10), np.nan))
    reports = {r.op: r for r in check_catalog(seed=1, n=10)}
    r = reports.pop("core.jacobian_matrix_wrt_quat")
    assert not r.passed and np.isnan(r.max_abs_error)
    assert (r.worst_sample, r.worst_row, r.worst_col) == (0, 1, 2)
    assert all(r.passed for r in reports.values())


@pytest.mark.parametrize("n", [0, -3, 2.5, "5", None, True, np.float64(4.0)])
def test_catalog_rejects_bad_sample_counts(n):
    with pytest.raises(GeometryError, match="check_catalog: n must be an integer >= 1"):
        check_catalog(seed=1, n=n)


@pytest.mark.parametrize("tol", [np.nan, -1.0, -1e-300, np.inf, "1e-5", None, True])
def test_catalog_rejects_bad_tolerances(tol):
    with pytest.raises(GeometryError, match="check_catalog: tol must be a finite number >= 0"):
        check_catalog(seed=1, n=1, tol=tol)


def test_catalog_takes_integral_counts_and_a_zero_tolerance():
    a = check_catalog(seed=1, n=np.int64(2), tol=np.float64(1e-5))
    b = check_catalog(seed=1, n=2, tol=1e-5)
    assert [r.to_json_dict() for r in a] == [r.to_json_dict() for r in b]
    assert all(r.passed == (r.max_abs_error == 0.0) for r in check_catalog(seed=1, n=1, tol=0))


def _corrupt_sample_4(monkeypatch, unit, arg, corrupt):
    """Make the unit's sampler give corrupt(row) as configuration 4 of its
    argument arg."""
    names, sample, analytic, numeric = numcheck._CHECKS[unit]

    def corrupted(rng, n):
        drawn = sample(rng, n)
        stack = drawn[arg][1]
        stack[4] = corrupt(stack[4])
        return drawn

    monkeypatch.setitem(numcheck._CHECKS, unit, (names, corrupted, analytic, numeric))


def test_sampled_poses_are_validated_once_per_check(monkeypatch):
    _corrupt_sample_4(monkeypatch, "manifold.jacob_expeD_de", 0, lambda m: m * 1.01)
    with pytest.raises(GeometryError, match="manifold.jacob_expeD_de: sample 4: HomPose: "
                                            "bottom row must be"):
        numcheck._check_op("manifold.jacob_expeD_de", 1, 10, 1e-5)


def test_public_adapters_call_f_on_one_point():
    def f(x):
        if np.shape(x) != (3,):
            raise ValueError("f takes one point")
        return np.array([x[0] * x[1], np.sin(x[2])])

    x0 = np.array([0.3, -1.1, 0.7])
    steps = 1e-6 * np.eye(3)
    want = np.column_stack([(f(x0 + s) - f(x0 - s)) / 2e-6 for s in steps])
    assert numeric_jacobian(f, x0).tobytes() == want.tobytes()

    def g(m):
        if np.shape(m) != (4, 4):
            raise ValueError("g takes one matrix")
        return pose_to_vec12(m)

    d = rand_hompose(np.random.default_rng(3))
    assert np.abs(manifold_numeric_jacobian(g, d, side="left") - jacob_expeD_de(d)).max() < 1e-6


def _stand_ins(rng):
    """name: (stack map, the library function it stands for, its inputs), for
    the formulas the catalog writes out in place of a library call."""
    k, a, p = _intrinsics(rng), _hompose(rng), _translation(rng)
    kv = np.array(_numbers(k))
    r, t = a.mat[:3, :3], a.mat[:3, 3]
    n = 200
    front = [_front_point(rng) for _ in range(n)]
    points = [_translation(rng) for _ in range(n)]
    mats = [_hompose(rng).mat for _ in range(n)]
    rotvecs = [_rotvec(rng) * 10.0 ** -rng.integers(0, 10) for _ in range(n)]
    near_rotations = [ypr_to_matrix(_ypr_pose(rng)).mat[:3, :3]
                      + 1e-6 * rng.normal(size=(3, 3)) for _ in range(n)]
    return {
        "so3_exp_quat": (numcheck._so3_exp_quat, lambda w: so3_exp_quat(w).vec, rotvecs),
        "project": (lambda x: numcheck._project(kv, x), lambda x: project(k, x), front),
        "angles": (numcheck._ypr, _angles_from_rotation, near_rotations),
        "project_pose_point": (lambda x: numcheck._project(kv, numcheck._act(a.mat, x)),
                               lambda x: project_pose_point(k, a, x)[0],
                               [r.T @ (g - t) for g in front]),
        "project_inv_pose_point": (lambda x: numcheck._project(kv, numcheck._act_inv(a.mat, x)),
                                   lambda x: project_inv_pose_point(k, a, x)[0],
                                   [r @ g + t for g in front]),
        "apply_vec12.pose": (lambda m: numcheck._act(m, p),
                             lambda m: apply_vec12(pose_to_vec12(m), p), mats),
        "apply_vec12.point": (lambda x: numcheck._act(a.mat, x),
                              lambda x: apply_vec12(a.vec12, x), points),
        "pose_to_vec12": (numcheck._vec12, pose_to_vec12, mats),
        "vec12_to_pose": (numcheck._pose, vec12_to_pose, [pose_to_vec12(m) for m in mats]),
    }


@pytest.mark.parametrize("name", [
    "so3_exp_quat", "project", "angles", "project_pose_point", "project_inv_pose_point",
    "apply_vec12.pose", "apply_vec12.point", "pose_to_vec12", "vec12_to_pose"])
def test_stand_in_equals_the_library_row_by_row(name):
    # each check must differentiate the value the library returns: on the
    # catalog's own samplers the stand-in gives every row the library's bits
    stack, lib, xs = _stand_ins(np.random.default_rng(crc32(name.encode("ascii"))))[name]
    got = stack(np.array(xs))
    assert len(got) == len(xs)
    for i, x in enumerate(xs):
        assert got[i].tobytes() == np.asarray(lib(x), dtype=float).tobytes(), i


@pytest.mark.parametrize("unit, arg, corrupt, message", [
    ("manifold.jacob_Dexpe_de_se2", 0, lambda m: m * 1.01,
     "HomPose2: bottom row must be (0, 0, 1)"),
    ("core.jacobian_matrix_wrt_quat", 0, lambda v: v * [1, 1, 1, 1.01, 1.01, 1.01, 1.01],
     "QuatPose: quaternion is not unit length"),
    ("geometry.compose_point_quat.pose", 0, lambda v: v * [np.nan, 1, 1, 1, 1, 1, 1],
     "QuatPose: x, y, z must be a finite 3-vector"),
    ("core.jacobian_ypr_to_quat", 0, lambda v: v * [1, 1, 1, 1, 0, 1] + [0, 0, 0, 0, 2.0, 0],
     "EulerPose: pitch outside [-pi/2, pi/2]"),
    ("vision.project_pose_point.eps", 0, lambda k: k * [1, -1, 1, 1],
     "focal lengths must be positive"),
])
def test_every_sampled_type_is_validated_once_per_unit(unit, arg, corrupt, message, monkeypatch):
    # each stack gets the tests of the constructor of its type
    _corrupt_sample_4(monkeypatch, unit, arg, corrupt)
    with pytest.raises(GeometryError, match="^%s: sample 4: %s$"
                       % (re.escape(unit), re.escape(message))):
        numcheck._check_op(unit, 1, 10, 1e-5)


@pytest.mark.parametrize("unit, corrupt", [
    ("core.jacobian_ypr_to_quat", lambda v: v + [0, 0, 0, 2 * np.pi, 0, -2 * np.pi]),
    ("core.jacobian_matrix_wrt_quat", lambda v: v * [1, 1, 1, -1, -1, -1, -1]),
])
def test_stacks_hold_what_the_constructors_store(unit, corrupt, monkeypatch):
    # a row the constructor changes (wrapped angles, the quaternion's sign)
    # enters the stack as the object stores it
    row = corrupt(numcheck._configurations(unit, 1, 10)[0][0][4])
    _corrupt_sample_4(monkeypatch, unit, 0, corrupt)
    (stack,), values = numcheck._configurations(unit, 1, 10)
    assert stack.tobytes() == np.array([v.vec for v, in values]).tobytes()
    assert not np.array_equal(stack[4], row)


# ---------------------------------------------------------------------------
# the one-draw-at-a-time samplers that the stack samplers replaced, kept as
# their reference: one configuration per call, through the public
# constructors and functions

def _direction(rng):
    v = rng.normal(size=3)
    return v / np.linalg.norm(v)


def _rotvec(rng, lo=0.05, hi=2.8):
    return _direction(rng) * rng.uniform(lo, hi)


def _translation(rng):
    return rng.uniform(-2.0, 2.0, size=3)


def _rt(r, t):
    m = np.eye(len(t) + 1)
    m[:-1, :-1], m[:-1, -1] = r, t
    return m


def _rot2(theta):
    c, s = np.cos(theta), np.sin(theta)
    return [[c, -s], [s, c]]


def _hompose(rng):
    return HomPose(_rt(so3_exp(_rotvec(rng)), _translation(rng)))


def _quat_pose(rng):
    t = _translation(rng)
    return QuatPose(t[0], t[1], t[2], so3_exp_quat(_rotvec(rng)))


def _safe_quat_pose(rng):
    while True:
        p = _quat_pose(rng)
        e = quat_to_ypr(p)
        if abs(e.pitch) <= 1.2 and abs(e.yaw) <= 3.05 and abs(e.roll) <= 3.05:
            return p


def _ypr_pose(rng):
    t = _translation(rng)
    deg85 = np.deg2rad(85.0)
    return EulerPose(t[0], t[1], t[2], rng.uniform(-3.1, 3.1), rng.uniform(-deg85, deg85),
                     rng.uniform(-3.1, 3.1))


def _se2_pose(rng, max_angle=3.0):
    t = rng.uniform(-2.0, 2.0, size=2)
    return HomPose2(_rt(_rot2(rng.uniform(-max_angle, max_angle)), t))


def _intrinsics(rng):
    return CameraIntrinsics(rng.uniform(100.0, 600.0), rng.uniform(100.0, 600.0),
                            rng.uniform(200.0, 400.0), rng.uniform(100.0, 300.0))


def _front_point(rng):
    return np.array([rng.uniform(-1.0, 1.0), rng.uniform(-1.0, 1.0), rng.uniform(0.5, 3.0)])


def _raw_quat(rng):
    v = rng.normal(size=4)
    v[0] = abs(v[0]) + 0.2
    v *= rng.uniform(0.5, 2.0) / np.linalg.norm(v)
    return v


def _ypr_pair(rng):
    while True:
        p1, p2 = _ypr_pose(rng), _ypr_pose(rng)
        r = (_rotation_from_angles(p1.yaw, p1.pitch, p1.roll)
             @ _rotation_from_angles(p2.yaw, p2.pitch, p2.roll))
        yaw, pitch, roll = _angles_from_rotation(r)
        if abs(pitch) <= 1.2 and abs(yaw) <= 3.05 and abs(roll) <= 3.05:
            return p1, p2


def _se3_edge_setup(rng):
    p1, p2 = _hompose(rng), _hompose(rng)
    b = inverse_rt(p1.mat) @ p2.mat
    eps = np.concatenate([0.3 * rng.uniform(-1, 1, size=3), _rotvec(rng, 0.02, 0.3)])
    return HomPose(b @ _rt(so3_exp(eps[3:]), eps[:3])), p1, p2


def _se2_edge_setup(rng):
    p1, p2 = _se2_pose(rng, 1.5), _se2_pose(rng, 1.5)
    b = inverse_rt(p1.mat) @ p2.mat
    eps = np.array([0.3 * rng.uniform(-1, 1), 0.3 * rng.uniform(-1, 1), rng.uniform(-0.3, 0.3)])
    return HomPose2(b @ _rt(_rot2(eps[2]), eps[:2])), p1, p2


def _camera_setup(rng):
    k, a = _intrinsics(rng), _hompose(rng)
    g = _front_point(rng)
    return k, a, a.mat[:3, :3].T @ (g - a.mat[:3, 3])


def _inv_camera_setup(rng):
    k, a = _intrinsics(rng), _hompose(rng)
    local = _front_point(rng)
    return k, a, a.mat[:3, :3] @ local + a.mat[:3, 3]


def _numbers(v):
    """What a stack holds of one sampled value."""
    if isinstance(v, CameraIntrinsics):
        return v.fx, v.fy, v.cx, v.cy
    return getattr(v, "mat", getattr(v, "vec", v))


def _pair(first, second):
    return lambda rng: (first(rng), second(rng))


def _se2_pair(rng):
    return _se2_pose(rng, 1.5), _se2_pose(rng, 1.5)


def _two_poses_point(rng):
    return _hompose(rng), _hompose(rng), _translation(rng)


# unit: the sampler it had when each check drew its own configurations
DRAW_AT_A_TIME = {
    "core.quat_normalize": _raw_quat,
    "core.jacobian_ypr_to_quat": _ypr_pose,
    "core.jacobian_quat_to_ypr": _safe_quat_pose,
    "core.jacobian_ypr_wrt_matrix": lambda rng: ypr_to_matrix(_ypr_pose(rng)),
    "core.jacobian_matrix_wrt_ypr": _ypr_pose,
    "core.jacobian_matrix_wrt_quat": _quat_pose,
    "geometry.compose_point_quat.pose": _pair(_quat_pose, _translation),
    "geometry.compose_point_ypr.pose": _pair(_ypr_pose, _translation),
    "geometry.compose_pose_quat.j1": _pair(_quat_pose, _quat_pose),
    "geometry.compose_pose_ypr.j1": _ypr_pair,
    "geometry.inv_compose_point_quat.pose": _pair(_quat_pose, _translation),
    "geometry.inverse_pose_quat": _quat_pose,
    "matderiv.d_compose_wrt_A": _pair(_hompose, _hompose),
    "matderiv.d_compose_wrt_B": _pair(_hompose, _hompose),
    "matderiv.d_apply_wrt_point": _pair(_hompose, _translation),
    "matderiv.d_apply_wrt_pose": _pair(_hompose, _translation),
    "matderiv.d_inverse_wrt_pose": _hompose,
    "matderiv.d_invapply_wrt_point": _pair(_hompose, _translation),
    "matderiv.d_invapply_wrt_pose": _pair(_hompose, _translation),
    "manifold.dexp_so3_quat": _rotvec,
    "manifold.dlog_so3": lambda rng: so3_exp(_rotvec(rng, 0.05, np.pi - 0.15)),
    "manifold.dpseudolog_se3": _hompose,
    "manifold.jacob_expeD_de": _hompose,
    "manifold.jacob_Dexpe_de": _hompose,
    "manifold.jacob_expeDp_de": _pair(_hompose, _translation),
    "manifold.jacob_p_ominus_expeD_de": _pair(_hompose, _translation),
    "manifold.jacob_AexpeD_de": _pair(_hompose, _hompose),
    "manifold.jacob_AexpeDp_de": _two_poses_point,
    "manifold.jacob_p_ominus_AexpeD_de": _two_poses_point,
    "manifold.edge_error_se3.j1": _se3_edge_setup,
    "manifold.edge_error_se2.j1": _se2_edge_setup,
    "manifold.jacob_Dexpe_de_se2": _se2_pose,
    "manifold.d_compose_se2_wrt_A": _se2_pair,
    "manifold.d_compose_se2_wrt_B": _se2_pair,
    "vision.dproject_dp": _pair(_intrinsics, _front_point),
    "vision.project_pose_point.eps": _camera_setup,
    "vision.project_inv_pose_point.eps": _inv_camera_setup,
}


def _drawn_at_a_time(unit, seed, n):
    """The unit's n configurations from its reference sampler, one at a
    time on the unit's generator."""
    rng = np.random.default_rng([seed, crc32(unit.encode("ascii"))])
    drawn = [DRAW_AT_A_TIME[unit](rng) for _ in range(n)]
    return [s if isinstance(s, tuple) else (s,) for s in drawn]


def test_units():
    # 48 checks as 39 units; a unit is named after its first check
    assert len(numcheck._CHECKS) == 39
    assert sum(len(names) for names, *_ in numcheck._CHECKS.values()) == 48
    assert all(unit == names[0] for unit, (names, *_) in numcheck._CHECKS.items())
    assert set(DRAW_AT_A_TIME) == {unit for unit, (_, sample, _, _) in numcheck._CHECKS.items()
                                   if sample}


@pytest.mark.parametrize("seed", [1, 7])
@pytest.mark.parametrize("unit", sorted(DRAW_AT_A_TIME))
def test_stack_sampler_equals_the_draw_at_a_time_sampler(unit, seed):
    # same generator calls, same order, same bits: every stack, and every
    # value the public call gets
    drawn = _drawn_at_a_time(unit, seed, 100)
    stacks, values = numcheck._configurations(unit, seed, 100)
    want = [np.array([_numbers(v) for v in col]) for col in zip(*drawn)]
    assert [(s.shape, s.tobytes()) for s in stacks] == [(w.shape, w.tobytes()) for w in want]
    assert len(values) == len(drawn)
    for got, ref in zip(values, drawn):
        assert [type(v) for v in got] == [type(v) for v in ref]
        assert [np.asarray(_numbers(v)).tobytes() for v in got] == \
            [np.asarray(_numbers(v)).tobytes() for v in ref]
        assert all(g == r for g, r in zip(got, ref) if isinstance(r, (QuatPose, EulerPose,
                                                                      CameraIntrinsics)))


# unit: (its second check, that Jacobian's getter, its stack map)
SECOND = {
    "geometry.compose_point_quat.pose": (
        "geometry.compose_point_quat.point", lambda p, a: compose_point_quat(p, a)[2],
        lambda p, a: numcheck._fd(numcheck._rotate_vec, (p, a), 1)),
    "geometry.compose_point_ypr.pose": (
        "geometry.compose_point_ypr.point", lambda p, a: compose_point_ypr(p, a)[2],
        lambda p, a: numcheck._fd(numcheck._ypr_act, (p, a), 1)),
    "geometry.compose_pose_quat.j1": (
        "geometry.compose_pose_quat.j2", lambda p1, p2: compose_pose_quat(p1, p2)[2],
        lambda p1, p2: numcheck._fd(numcheck._quat_compose_vec, (p1, p2), 1)),
    "geometry.compose_pose_ypr.j1": (
        "geometry.compose_pose_ypr.j2", lambda p1, p2: compose_pose_ypr(p1, p2)[2],
        lambda p1, p2: numcheck._fd(numcheck._ypr_compose_vec, (p1, p2), 1)),
    "geometry.inv_compose_point_quat.pose": (
        "geometry.inv_compose_point_quat.point", lambda p, a: inv_compose_point_quat(a, p)[2],
        lambda p, a: numcheck._fd(numcheck._inv_rotate_vec, (p, a), 1)),
    "manifold.edge_error_se3.j1": (
        "manifold.edge_error_se3.j2", lambda d, p1, p2: edge_error_se3(d, p1, p2).jac2,
        lambda d, p1, p2: numcheck._manifold_fd(numcheck._edge_value,
                                                (inverse_rt(d), p1, p2), 2, "right")),
    "manifold.edge_error_se2.j1": (
        "manifold.edge_error_se2.j2", lambda d, p1, p2: edge_error_se2(d, p1, p2).jac2,
        lambda d, p1, p2: numcheck._manifold_fd(numcheck._edge_value,
                                                (inverse_rt(d), p1, p2), 2, "right")),
    "vision.project_pose_point.eps": (
        "vision.project_pose_point.point", lambda k, a, p: project_pose_point(k, a, p)[2],
        lambda k, a, p: numcheck._fd(numcheck._project_act, (k, a, p), 2)),
    "vision.project_inv_pose_point.eps": (
        "vision.project_inv_pose_point.point",
        lambda k, a, p: project_inv_pose_point(k, a, p)[2],
        lambda k, a, p: numcheck._fd(numcheck._project_act_inv, (k, a, p), 2)),
}


@pytest.mark.parametrize("seed", [1, 7])
@pytest.mark.parametrize("unit", sorted(SECOND))
def test_second_jacobian_is_its_own_check_on_the_first_checks_draws(unit, seed, monkeypatch):
    # the unit's one call per configuration and one stack-map call per
    # Jacobian give the second Jacobian the bits of its own getter and stack
    # map, run one configuration at a time on the first check's draws
    name, getter, stack_map = SECOND[unit]
    drawn = _drawn_at_a_time(unit, seed, 100)
    stacks = [np.array([_numbers(v) for v in col]) for col in zip(*drawn)]
    want_a = np.array([getter(*s) for s in drawn])
    want_num = np.concatenate([stack_map(*[s[i:i + 1] for s in stacks])
                               for i in range(len(drawn))])
    seen = {}
    report = numcheck._report

    def keep(name, a, num, tol):
        seen[name] = a, num
        return report(name, a, num, tol)

    monkeypatch.setattr(numcheck, "_report", keep)
    second = numcheck._check_unit(unit, seed, 100, 1e-5)[1]
    assert second.op == name and second.passed
    assert seen[name][0].tobytes() == want_a.tobytes()
    assert seen[name][1].tobytes() == want_num.tobytes()
    diff = np.abs(want_a - want_num)
    i, row, col = np.unravel_index(int(np.argmax(diff)), diff.shape)
    assert (second.worst_sample, second.worst_row, second.worst_col, second.max_abs_error) == \
        (i, row, col, diff[i, row, col])
