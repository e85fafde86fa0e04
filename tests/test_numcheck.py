"""Finite-difference engine and the analytic-derivative catalog runner."""
import json
from zlib import crc32

import numpy as np
import pytest

from conftest import rand_hompose
from rigidkit import (apply_vec12, check_catalog, jacob_Dexpe_de, jacob_expeD_de,
                      manifold_numeric_jacobian, numeric_jacobian, pose_to_vec12, project,
                      project_inv_pose_point, project_pose_point, se2_pseudo_exp,
                      se3_pseudo_exp, so3_exp_quat, vec12_to_pose, ypr_to_matrix)
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
    """Make the check name's analytic Jacobian hold values[s] at (1, 2) in
    each sample s of values (0-based, in the order they are drawn)."""
    sample, analytic, numeric = numcheck._CHECKS[name]
    calls = iter(range(1000))

    def poisoned(*s):
        j = np.array(analytic(*s), dtype=float)
        j[1, 2] = values.get(next(calls), j[1, 2])
        return j

    monkeypatch.setitem(numcheck._CHECKS, name, (sample, poisoned, numeric))


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


def test_sampled_poses_are_validated_once_per_check(monkeypatch):
    sample, analytic, numeric = numcheck._CHECKS["manifold.jacob_expeD_de"]
    calls = iter(range(1000))

    def skewed(rng):
        d = sample(rng)
        return numcheck._rigid(d.mat * 1.01) if next(calls) == 4 else d

    monkeypatch.setitem(numcheck._CHECKS, "manifold.jacob_expeD_de", (skewed, analytic, numeric))
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
    k, a, p = numcheck._intrinsics(rng), numcheck._hompose(rng), numcheck._translation(rng)
    kv = np.array(numcheck._numbers(k))
    r, t = a.mat[:3, :3], a.mat[:3, 3]
    n = 200
    front = [numcheck._front_point(rng) for _ in range(n)]
    points = [numcheck._translation(rng) for _ in range(n)]
    mats = [numcheck._hompose(rng).mat for _ in range(n)]
    rotvecs = [numcheck._rotvec(rng) * 10.0 ** -rng.integers(0, 10) for _ in range(n)]
    near_rotations = [ypr_to_matrix(numcheck._ypr_pose(rng)).mat[:3, :3]
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
