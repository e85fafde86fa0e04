"""Finite-difference engine and the analytic-derivative catalog runner."""
import numpy as np
import pytest

from conftest import rand_hompose
from rigidkit import (check_catalog, jacob_Dexpe_de, jacob_expeD_de,
                      manifold_numeric_jacobian, numeric_jacobian,
                      pose_to_vec12, se2_pseudo_exp, se3_pseudo_exp)
from rigidkit import numcheck


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
    for pexp, dim in [(se2_pseudo_exp, 3), (se3_pseudo_exp, 6)]:
        pairs = numcheck._perturbations(pexp, dim, 1e-6)
        assert len(pairs) == dim
        for plus, minus in pairs:
            for m in (plus, minus):
                assert not m.flags.writeable
                with pytest.raises(ValueError):
                    m[0, 0] = 2.0
