"""Finite-difference engine and the analytic-derivative catalog runner."""
import json
import re
from zlib import crc32

import numpy as np
import pytest

from conftest import rand_hompose
from rigidkit import (CameraIntrinsics, EulerPose, HomPose, QuatPose, apply_vec12, check_catalog,
                      compose_point_quat, compose_point_ypr, compose_pose_quat, compose_pose_ypr,
                      edge_error_se2, edge_error_se3, inv_compose_point_quat, inverse_rt,
                      jacob_Dexpe_de, jacob_expeD_de, manifold_numeric_jacobian, numeric_jacobian,
                      pose_to_vec12, project, project_inv_pose_point, project_pose_point,
                      quat_to_ypr, se2_pseudo_exp, se2_pseudo_log, se3_pseudo_exp,
                      se3_pseudo_log, so3_exp, so3_exp_quat, so3_log, vec12_to_pose,
                      ypr_to_matrix, ypr_to_quat)
from rigidkit import numcheck
from rigidkit.core import _angles_from_rotation
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
    [r] = numcheck._check_unit("core.jacobian_matrix_wrt_quat", 1, 10, 1e-5)
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
        numcheck._check_unit("manifold.jacob_expeD_de", 1, 10, 1e-5)


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
    kv = np.array([k.fx, k.fy, k.cx, k.cy])
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
        "quat_to_ypr": (numcheck._ypr_from_quatvec, lambda v: quat_to_ypr(QuatPose.from_vec(v)).vec,
                        [ypr_to_quat(_ypr_pose(rng)).vec for _ in range(n)]),
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
    "so3_exp_quat", "project", "angles", "quat_to_ypr", "project_pose_point",
    "project_inv_pose_point",
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
     "CameraIntrinsics: focal lengths must be positive"),
])
def test_every_sampled_type_is_validated_once_per_unit(unit, arg, corrupt, message, monkeypatch):
    # each stack gets the tests of the constructor of its type
    _corrupt_sample_4(monkeypatch, unit, arg, corrupt)
    with pytest.raises(GeometryError, match="^%s: sample 4: %s$"
                       % (re.escape(unit), re.escape(message))):
        numcheck._check_unit(unit, 1, 10, 1e-5)


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
# single-value samplers for the stand-in tests

def _direction(rng):
    v = rng.normal(size=3)
    return v / np.linalg.norm(v)


def _rotvec(rng, lo=0.05, hi=2.8):
    return _direction(rng) * rng.uniform(lo, hi)


def _translation(rng):
    return rng.uniform(-2.0, 2.0, size=3)


def _hompose(rng):
    m = np.eye(4)
    m[:3, :3], m[:3, 3] = so3_exp(_rotvec(rng)), _translation(rng)
    return HomPose(m)


def _ypr_pose(rng):
    t = _translation(rng)
    deg85 = np.deg2rad(85.0)
    return EulerPose(t[0], t[1], t[2], rng.uniform(-3.1, 3.1), rng.uniform(-deg85, deg85),
                     rng.uniform(-3.1, 3.1))


def _intrinsics(rng):
    return CameraIntrinsics(rng.uniform(100.0, 600.0), rng.uniform(100.0, 600.0),
                            rng.uniform(200.0, 400.0), rng.uniform(100.0, 300.0))


def _front_point(rng):
    return np.array([rng.uniform(-1.0, 1.0), rng.uniform(-1.0, 1.0), rng.uniform(0.5, 3.0)])


# ---------------------------------------------------------------------------
# the samplers' domains: each function maps a unit's stacks to the masks of
# the conditions every configuration must meet

DEG85 = np.deg2rad(85.0)


def _in(x, lo, hi):
    return (np.asarray(lo) - 1e-12 <= x) & (x <= np.asarray(hi) + 1e-12)


def _hom(m):
    """Rotation angles in [0.05, 2.8], translations in [-2, 2]."""
    v = se3_pseudo_log(m)
    return [_in(np.linalg.norm(v[:, 3:], axis=1), 0.05, 2.8), _in(v[:, :3], -2.0, 2.0)]


def _se2(max_angle):
    """Angles within max_angle, translations in [-2, 2]."""
    return lambda m: [_in(se2_pseudo_log(m), [-2.0, -2.0, -max_angle], [2.0, 2.0, max_angle])]


def _quat(v):
    angle = 2.0 * np.arctan2(np.linalg.norm(v[:, 4:], axis=1), v[:, 3])
    return [_in(angle, 0.05, 2.8), _in(v[:, :3], -2.0, 2.0)]


def _ypr(v):
    """Translations in [-2, 2], |yaw|, |roll| <= 3.1 and |pitch| <= 85 degrees."""
    return [_in(v, [-2.0] * 3 + [-3.1, -DEG85, -3.1], [2.0] * 3 + [3.1, DEG85, 3.1])]


def _point(p):
    return [_in(p, -2.0, 2.0)]


def _front(p):
    """In front of the camera: depth in [0.5, 3]."""
    return [_in(p, [-1.0, -1.0, 0.5], [1.0, 1.0, 3.0])]


def _intrinsics_box(k):
    return [_in(k, [100.0, 100.0, 200.0, 100.0], [600.0, 600.0, 400.0, 300.0])]


def _args(*domains):
    """The domain of a unit whose arguments have the given domains."""
    return lambda *stacks: [c for d, s in zip(domains, stacks) for c in d(s)]


def _edge(d, p1, p2):
    """The poses' domains, and measurements b exp(eps) with each entry of
    eps (and its rotation angle) within 0.3."""
    exp_eps = inverse_rt(inverse_rt(p1) @ p2) @ d
    if d.shape[-1] == 3:
        return _se2(1.5)(p1) + _se2(1.5)(p2) + [_in(se2_pseudo_log(exp_eps), -0.3, 0.3)]
    eps = se3_pseudo_log(exp_eps)
    return _hom(p1) + _hom(p2) + [_in(eps[:, :3], -0.3, 0.3),
                                  _in(np.linalg.norm(eps[:, 3:], axis=1), 0.02, 0.3)]


def _camera(see):
    """Intrinsics, a pose a, and a point p that see(a, p) puts in front."""
    def domain(k, a, p):
        return _args(_intrinsics_box, _hom)(k, a) + _front(see(a, p))
    return domain


# unit: the domain of its stacks
DOMAINS = {
    "core.quat_normalize": lambda q: [_in(np.linalg.norm(q, axis=1), 0.5, 2.0), q[:, 0] > 0.0],
    "core.jacobian_ypr_to_quat": _ypr,
    "core.jacobian_quat_to_ypr": _quat,
    "core.jacobian_ypr_wrt_matrix": lambda m: _ypr(
        np.concatenate([m[:, :3, 3], numcheck._ypr(m[:, :3, :3])], axis=1)),
    "core.jacobian_matrix_wrt_ypr": _ypr,
    "core.jacobian_matrix_wrt_quat": _quat,
    "geometry.compose_point_quat.pose": _args(_quat, _point),
    "geometry.compose_point_ypr.pose": _args(_ypr, _point),
    "geometry.compose_pose_quat.j1": _args(_quat, _quat),
    "geometry.compose_pose_ypr.j1": _args(_ypr, _ypr),
    "geometry.inv_compose_point_quat.pose": _args(_quat, _point),
    "geometry.inverse_pose_quat": _quat,
    "matderiv.d_compose_wrt_A": _args(_hom, _hom),
    "matderiv.d_compose_wrt_B": _args(_hom, _hom),
    "matderiv.d_apply_wrt_point": _args(_hom, _point),
    "matderiv.d_apply_wrt_pose": _args(_hom, _point),
    "matderiv.d_inverse_wrt_pose": _hom,
    "matderiv.d_invapply_wrt_point": _args(_hom, _point),
    "matderiv.d_invapply_wrt_pose": _args(_hom, _point),
    "manifold.dexp_so3_quat": lambda w: [_in(np.linalg.norm(w, axis=1), 0.05, 2.8)],
    "manifold.dlog_so3": lambda r: [_in(np.linalg.norm(so3_log(r), axis=1), 0.05, np.pi - 0.15)],
    "manifold.dpseudolog_se3": _hom,
    "manifold.jacob_expeD_de": _hom,
    "manifold.jacob_Dexpe_de": _hom,
    "manifold.jacob_expeDp_de": _args(_hom, _point),
    "manifold.jacob_p_ominus_expeD_de": _args(_hom, _point),
    "manifold.jacob_AexpeD_de": _args(_hom, _hom),
    "manifold.jacob_AexpeDp_de": _args(_hom, _hom, _point),
    "manifold.jacob_p_ominus_AexpeD_de": _args(_hom, _hom, _point),
    "manifold.edge_error_se3.j1": _edge,
    "manifold.edge_error_se2.j1": _edge,
    "manifold.jacob_Dexpe_de_se2": _se2(3.0),
    "manifold.d_compose_se2_wrt_A": _args(_se2(1.5), _se2(1.5)),
    "manifold.d_compose_se2_wrt_B": _args(_se2(1.5), _se2(1.5)),
    "vision.dproject_dp": _args(_intrinsics_box, _front),
    "vision.project_pose_point.eps": _camera(numcheck._act),
    "vision.project_inv_pose_point.eps": _camera(numcheck._act_inv),
}

# unit: the (yaw, pitch, roll) that the library makes of a configuration,
# which its rejection sampler keeps off the gimbal band and the cuts
TAMED = {
    "core.jacobian_quat_to_ypr": quat_to_ypr,
    "geometry.compose_pose_ypr.j1": lambda p1, p2: compose_pose_ypr(p1, p2)[0],
}


def test_units():
    # 48 checks as 39 units, 37 of which draw; a unit is named after its first check
    assert len(numcheck._CHECKS) == 39
    assert sum(len(names) for names, *_ in numcheck._CHECKS.values()) == 48
    assert all(unit == names[0] for unit, (names, *_) in numcheck._CHECKS.items())
    drawing = {unit for unit, (_, sample, _, _) in numcheck._CHECKS.items() if sample}
    assert len(drawing) == 37
    assert set(DOMAINS) == drawing


@pytest.mark.parametrize("seed", [1, 7])
@pytest.mark.parametrize("unit", sorted(DOMAINS))
def test_every_configuration_lies_in_its_samplers_domain(unit, seed):
    stacks, values = numcheck._configurations(unit, seed, 200)
    masks = DOMAINS[unit](*stacks)
    if unit in TAMED:
        e = [TAMED[unit](*v) for v in values]
        masks.append(numcheck._tame(np.array([[p.yaw, p.pitch, p.roll] for p in e])))
    assert len(values) == 200
    for i, mask in enumerate(masks):
        assert mask.all(), (i, np.argwhere(~mask)[:3])


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
    # map, run one configuration at a time on the draws of the unit (whose
    # generator is seeded from its first check)
    name, getter, stack_map = SECOND[unit]
    stacks, values = numcheck._configurations(unit, seed, 100)
    want_a = np.array([getter(*v) for v in values])
    want_num = np.concatenate([stack_map(*[s[i:i + 1] for s in stacks])
                               for i in range(len(values))])
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
