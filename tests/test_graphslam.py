"""Pose-graph construction, normal equations, and the two solvers."""
import warnings

import numpy as np
import pytest
import scipy.sparse
from hypothesis import given
from hypothesis import strategies as st

from rigidkit import (GeometryError, HomPose, HomPose2, PoseGraph,
                      RankDeficiencyError, SolverConfig, build_normal_equations,
                      chi2, edge_error_se2, edge_error_se3, optimize, se2_exp,
                      se2_pseudo_exp, se3_pseudo_exp, so3_exp, so3_log, step,
                      synth_graph)
from rigidkit import graphslam
from rigidkit.graphslam import (_DENSE_LIMIT, IterationStats, _damped, _linearize,
                                _Packed, _solve)
from rigidkit.matderiv import inverse_rt

INFO2 = np.diag([400.0, 400.0, 10000.0])


def _dense(h):
    return h.toarray() if scipy.sparse.issparse(h) else np.asarray(h)


def _perturbed(graph, scale, seed):
    rng = np.random.default_rng(seed)
    g = graph.copy()
    planar = g.kind == "se2"
    for v in list(g.vertices):
        if v in g.fixed:
            continue
        if planar:
            d = rng.normal(0.0, scale, 3)
            g.vertices[v] = HomPose2(g.vertices[v].mat @ se2_pseudo_exp(d).mat)
        else:
            d = rng.normal(0.0, scale, 6)
            g.vertices[v] = HomPose(g.vertices[v].mat @ se3_pseudo_exp(d).mat)
    return g


def _tiny_se2():
    g = PoseGraph()
    g.add_vertex(0, se2_exp(np.zeros(3)), fixed=True)
    g.add_vertex(1, se2_exp(np.array([1.0, 0.1, 0.2])))
    g.add_edge(0, 1, se2_exp(np.array([1.0, 0.0, 0.15])), INFO2)
    return g


# ---------------------------------------------------------------------------
# graph construction and validation

def test_duplicate_vertex_rejected():
    g = PoseGraph()
    g.add_vertex(0, se2_exp(np.zeros(3)))
    with pytest.raises(GeometryError):
        g.add_vertex(0, se2_exp(np.zeros(3)))


def test_kind_mixing_rejected():
    g = PoseGraph()
    g.add_vertex(0, se2_exp(np.zeros(3)))
    with pytest.raises(GeometryError):
        g.add_vertex(1, HomPose(np.eye(4)))


def test_edge_endpoint_must_exist():
    g = _tiny_se2()
    with pytest.raises(GeometryError):
        g.add_edge(0, 7, se2_exp(np.zeros(3)), INFO2)


def test_edge_measurement_kind_checked():
    g = _tiny_se2()
    with pytest.raises(GeometryError):
        g.add_edge(0, 1, HomPose(np.eye(4)), INFO2)


def test_asymmetric_information_rejected():
    g = _tiny_se2()
    bad = INFO2.copy()
    bad[0, 1] = 5.0
    with pytest.raises(GeometryError):
        g.add_edge(0, 1, se2_exp(np.zeros(3)), bad)


def test_indefinite_information_rejected():
    g = _tiny_se2()
    with pytest.raises(GeometryError, match="not positive semidefinite"):
        g.add_edge(0, 1, se2_exp(np.zeros(3)), -INFO2)
    # rank one: its zero eigenvalues come out near -1e-12 in floating point
    v = np.array([100.0, 200.0, 300.0])
    g.add_edge(0, 1, se2_exp(np.zeros(3)), np.outer(v, v))


@pytest.mark.parametrize("info", [
    np.array([[1.0, 1e308, 0.0], [1e308, 1.0, 0.0], [0.0, 0.0, 1.0]]),  # sum overflows
    np.full((3, 3), 8e307),  # finite, but the largest eigenvalue overflows
])
def test_overflowing_information_rejected(info):
    g = _tiny_se2()
    with pytest.raises(GeometryError, match="information must be a finite 3x3 matrix"):
        g.add_edge(0, 1, se2_exp(np.zeros(3)), info)
    assert len(g.edges) == 1


def test_information_shape_checked():
    g = _tiny_se2()
    with pytest.raises(GeometryError):
        g.add_edge(0, 1, se2_exp(np.zeros(3)), np.eye(6))


def test_fix_unknown_vertex():
    g = _tiny_se2()
    with pytest.raises(GeometryError):
        g.fix(99)


def test_kind_and_block_size():
    g = _tiny_se2()
    assert g.kind == "se2"
    assert g.block_size == 3
    g3 = PoseGraph()
    g3.add_vertex(0, HomPose(np.eye(4)))
    assert g3.kind == "se3"
    assert g3.block_size == 6


def test_solver_config_bad_method():
    with pytest.raises(GeometryError):
        SolverConfig(method="steepest-descent")


def _one_exact_edge():
    """Fixed identity vertex 0, vertex 1 at (1, 0, 0), and an edge measuring exactly that."""
    g = PoseGraph()
    g.add_vertex(0, HomPose2(np.eye(3)), fixed=True)
    g.add_vertex(1, HomPose2.from_xyt(1.0, 0.0, 0.0))
    g.add_edge(0, 1, HomPose2.from_xyt(1.0, 0.0, 0.0), np.eye(3))
    return g


# a lambda that is not > 0, or a factor that is not > 1, never passes the
# 1e12 that ends a run of rejected trials
@pytest.mark.parametrize("bad", [0.0, -1.0, np.inf, np.nan])
def test_lm_settings_that_never_end_are_rejected(bad):
    with pytest.raises(GeometryError, match="lm_initial_lambda"):
        SolverConfig(lm_initial_lambda=bad)
    with pytest.raises(GeometryError, match="lm_factor"):
        SolverConfig(lm_factor=bad)
    with pytest.raises(GeometryError, match="lm_factor"):
        SolverConfig(method="gauss-newton", lm_factor=1.0)
    with pytest.raises(GeometryError, match="lambda_"):
        step(_one_exact_edge(), SolverConfig(), bad)
    # the defaults end after 17 rejected trials
    _, st = step(_one_exact_edge(), SolverConfig())
    assert (st.rejected, st.update_norm) == (17, 0.0)


@pytest.mark.parametrize("method", ["levenberg-marquardt", "gauss-newton"])
def test_step_without_a_free_coordinate_returns_the_graph(method):
    all_fixed = _one_exact_edge()
    all_fixed.fix(1)
    lone = PoseGraph()
    lone.add_vertex(0, HomPose(np.eye(4)), fixed=True)
    cfg = SolverConfig(method=method)
    for g in (all_fixed, lone):
        out, st = step(g, cfg)
        assert out is g
        assert st == IterationStats(0, chi2(g), 0.0, cfg.lm_initial_lambda, 0)
        assert step(g, cfg, 0.5)[1].lambda_ == 0.5
        final, stats = optimize(g, cfg)
        assert final is g and len(stats) == 1


# ---------------------------------------------------------------------------
# synthetic graphs

def test_synth_truth_graphs_have_zero_chi2():
    for kind in ("circle2d", "grid2d", "sphere3d"):
        truth, _ = synth_graph(kind, 9, (0.05, 0.01), 1)
        assert chi2(truth) < 1e-16


def test_synth_structure():
    truth, noisy = synth_graph("circle2d", 12, (0.05, 0.01), 2)
    assert set(truth.vertices) == set(noisy.vertices) == set(range(12))
    assert truth.fixed == noisy.fixed == {0}
    assert len(truth.edges) == len(noisy.edges)
    assert [(e.i, e.j) for e in truth.edges] == [(e.i, e.j) for e in noisy.edges]
    # vertex 0 anchored at the truth, the rest dead-reckoned
    assert np.array_equal(truth.vertices[0].mat, noisy.vertices[0].mat)
    assert chi2(noisy) > 1e-3


def test_synth_deterministic():
    a_truth, a_noisy = synth_graph("sphere3d", 8, (0.03, 0.01), 5)
    b_truth, b_noisy = synth_graph("sphere3d", 8, (0.03, 0.01), 5)
    for va, vb in zip(a_noisy.vertices.values(), b_noisy.vertices.values()):
        assert np.array_equal(va.mat, vb.mat)
    for ea, eb in zip(a_noisy.edges, b_noisy.edges):
        assert np.array_equal(ea.delta.mat, eb.delta.mat)
        assert np.array_equal(ea.information, eb.information)


def test_synth_dead_reckoning_zeroes_chain_edges():
    # odometry edges are exactly satisfied before any loop closure acts
    _, noisy = synth_graph("circle2d", 10, (0.05, 0.01), 3)
    from rigidkit.graphslam import _Packed
    pk = _Packed(noisy)
    for e, r in zip(noisy.edges, pk.residuals(pk.mats)):
        if e.j == e.i + 1:
            assert np.abs(r).max() < 1e-12


def test_synth_validation():
    with pytest.raises(GeometryError):
        synth_graph("circle2d", 2, (0.05, 0.01), 1)
    with pytest.raises(GeometryError):
        synth_graph("moebius", 10, (0.05, 0.01), 1)
    with pytest.raises(GeometryError):
        synth_graph("circle2d", 10, (0.0, 0.01), 1)


# ---------------------------------------------------------------------------
# normal equations

def test_normal_equations_shapes_and_symmetry():
    _, noisy = synth_graph("circle2d", 8, (0.05, 0.01), 3)
    h, b = build_normal_equations(noisy)
    n_free = 3 * (len(noisy.vertices) - 1)
    hd = _dense(h)
    assert hd.shape == (n_free, n_free)
    assert b.shape == (n_free,)
    assert np.abs(hd - hd.T).max() < 1e-9


def test_gradient_matches_chi2_finite_difference():
    _, noisy = synth_graph("circle2d", 8, (0.05, 0.01), 3)
    g = _perturbed(noisy, 0.05, 0)
    _, b = build_normal_equations(g)
    free = sorted(v for v in g.vertices if v not in g.fixed)
    eps = 1e-6
    fd = np.zeros(b.size)
    for idx, vid in enumerate(free):
        for k in range(3):
            d = np.zeros(3)
            d[k] = eps
            gp = g.copy()
            gp.vertices[vid] = HomPose2(
                gp.vertices[vid].mat @ se2_pseudo_exp(d).mat)
            gm = g.copy()
            gm.vertices[vid] = HomPose2(
                gm.vertices[vid].mat @ se2_pseudo_exp(-d).mat)
            fd[3 * idx + k] = (chi2(gp) - chi2(gm)) / (2.0 * eps)
    # the right-hand side is half the chi2 gradient in the tangent coords
    assert np.linalg.norm(fd - 2.0 * b) / np.linalg.norm(fd) < 1e-6


def test_gauge_missing_fixed_vertex():
    g = PoseGraph()
    g.add_vertex(0, se2_exp(np.zeros(3)))
    g.add_vertex(1, se2_exp(np.array([1.0, 0.0, 0.0])))
    g.add_edge(0, 1, se2_exp(np.array([1.0, 0.0, 0.0])), INFO2)
    with pytest.raises(RankDeficiencyError):
        build_normal_equations(g)


def test_gauge_disconnected_component():
    g = _tiny_se2()
    g.add_vertex(2, se2_exp(np.array([5.0, 5.0, 0.0])))
    g.add_vertex(3, se2_exp(np.array([6.0, 5.0, 0.0])))
    g.add_edge(2, 3, se2_exp(np.array([1.0, 0.0, 0.0])), INFO2)
    with pytest.raises(RankDeficiencyError, match="not connected"):
        build_normal_equations(g)


def test_chi2_gauge_invariance():
    _, noisy = synth_graph("circle2d", 10, (0.05, 0.01), 4)
    t = se2_exp(np.array([3.0, -2.0, 0.8]))
    moved = noisy.copy()
    for v in list(moved.vertices):
        moved.vertices[v] = HomPose2(t.mat @ moved.vertices[v].mat)
    assert abs(chi2(moved) - chi2(noisy)) < 1e-9 * max(chi2(noisy), 1.0)


# ---------------------------------------------------------------------------
# solvers

def test_gauss_newton_singular_message_names_the_alternative():
    g = _tiny_se2()
    g.add_vertex(2, se2_exp(np.array([2.0, 0.0, 0.0])))
    g.add_edge(0, 2, se2_exp(np.array([2.0, 0.0, 0.0])), np.zeros((3, 3)))
    cfg = SolverConfig(method="gauss-newton")
    with pytest.raises(RankDeficiencyError, match="levenberg-marquardt"):
        step(g, cfg)


def test_lm_survives_information_deficient_edge():
    g = _tiny_se2()
    g.add_vertex(2, se2_exp(np.array([2.0, 0.0, 0.0])))
    g.add_edge(0, 2, se2_exp(np.array([2.0, 0.0, 0.0])), np.zeros((3, 3)))
    cfg = SolverConfig(method="levenberg-marquardt", max_iterations=10)
    out, stats = optimize(g, cfg)
    assert stats[-1].chi2 <= stats[0].chi2
    # the unconstrained vertex stays where damping leaves it: finite
    assert np.all(np.isfinite(out.vertices[2].mat))


def test_step_decreases_chi2():
    _, noisy = synth_graph("circle2d", 12, (0.05, 0.01), 6)
    cfg = SolverConfig(method="levenberg-marquardt")
    out, st = step(noisy, cfg)
    assert chi2(out) < chi2(noisy)
    assert st.update_norm > 0.0


def test_step_keeps_fixed_vertices_untouched():
    _, noisy = synth_graph("circle2d", 12, (0.05, 0.01), 6)
    out, _ = step(noisy, SolverConfig())
    assert out.vertices[0] is noisy.vertices[0]


def test_optimize_lm_monotone_and_converges():
    _, noisy = synth_graph("circle2d", 20, (0.05, 0.01), 7)
    cfg = SolverConfig(method="levenberg-marquardt", max_iterations=50)
    out, stats = optimize(noisy, cfg)
    chis = [s.chi2 for s in stats]
    assert all(b <= a + 1e-12 for a, b in zip(chis, chis[1:]))
    assert chis[-1] < 0.05 * chis[0]
    assert len(stats) <= cfg.max_iterations + 1
    assert stats[0].iteration == 0
    assert [s.iteration for s in stats] == list(range(len(stats)))
    assert out.fixed == noisy.fixed


def test_optimize_gauss_newton_on_well_posed_graph():
    _, noisy = synth_graph("circle2d", 15, (0.05, 0.01), 8)
    cfg = SolverConfig(method="gauss-newton", max_iterations=30)
    _, stats = optimize(noisy, cfg)
    assert stats[-1].chi2 < 0.05 * stats[0].chi2


def test_optimize_se3_arc():
    _, noisy = synth_graph("sphere3d", 12, (0.03, 0.01), 9)
    cfg = SolverConfig(method="levenberg-marquardt", max_iterations=50)
    _, stats = optimize(noisy, cfg)
    assert stats[-1].chi2 < 0.1 * stats[0].chi2


def test_optimize_truth_graph_stops_immediately():
    truth, _ = synth_graph("circle2d", 10, (0.05, 0.01), 10)
    out, stats = optimize(truth, SolverConfig(max_iterations=20))
    assert len(stats) == 1
    assert stats[0].chi2 < 1e-16
    for v in truth.vertices:
        assert np.array_equal(out.vertices[v].mat, truth.vertices[v].mat)


def test_iteration_stats_fields():
    st = IterationStats(iteration=3, chi2=1.5, update_norm=0.01, lambda_=1e-4)
    assert (st.iteration, st.chi2, st.update_norm, st.lambda_, st.rejected) == \
        (3, 1.5, 0.01, 1e-4, 0)


@pytest.mark.parametrize("to_the_end", [False, True])
def test_rejected_trials_account_for_every_solve(to_the_end, monkeypatch):
    # without tolerances the run ends on a step where no lambda helps; the
    # first factorization fails, which counts as a rejected trial too
    _, noisy = synth_graph("circle2d", 50, (0.3, 0.2), 1)
    cfg = SolverConfig()
    if to_the_end:
        monkeypatch.setattr(graphslam, "_CHI2_RTOL", 0.0)
        cfg = SolverConfig(epsilon_gradient=0.0, epsilon_update=0.0)
    calls = []
    solve = graphslam._solve

    def counted(h, rhs, *, lm_hint):
        calls.append(lm_hint)
        if len(calls) == 1:
            raise RankDeficiencyError("planted failure")
        return solve(h, rhs, lm_hint=lm_hint)

    monkeypatch.setattr(graphslam, "_solve", counted)
    _, stats = optimize(noisy, cfg)
    accepted = sum(s.update_norm > 0.0 for s in stats[1:])
    assert stats[1].rejected >= 1
    assert sum(s.rejected for s in stats) >= 4
    assert accepted + sum(s.rejected for s in stats[1:]) == len(calls)
    assert stats[0].rejected == 0
    assert (stats[-1].update_norm == 0.0) == to_the_end


def _count_solves(monkeypatch):
    calls = []
    solve = graphslam._solve

    def counted(h, rhs, *, lm_hint):
        calls.append(lm_hint)
        return solve(h, rhs, lm_hint=lm_hint)

    monkeypatch.setattr(graphslam, "_solve", counted)
    return calls


def test_fit_along_the_step_saves_factorizations(monkeypatch):
    # from step 4 on each full step overshoots (gain ratio about 0.4); with
    # full steps only, this graph takes 11 factorizations to chi2 6.393447645
    _, noisy = synth_graph("sphere3d", 1200, (0.05, 0.01), 1)
    calls = _count_solves(monkeypatch)
    _, stats = optimize(noisy, SolverConfig())
    assert len(calls) <= 8
    assert stats[-1].chi2 <= 6.393447645 * (1 + 1e-9)


@pytest.mark.parametrize("seed, solves", [(1, 5), (2, 4), (3, 4)])
def test_fit_along_the_step_keeps_grid_step_counts(seed, solves, monkeypatch):
    _, noisy = synth_graph("grid2d", 400, (0.05, 0.01), seed)
    calls = _count_solves(monkeypatch)
    _, stats = optimize(noisy, SolverConfig())
    assert len(calls) == len(stats) - 1 == solves


def test_step_reports_the_applied_step():
    # near convergence the full LM step overshoots and the fit shortens it
    _, noisy = synth_graph("sphere3d", 1200, (0.05, 0.01), 1)
    g, _ = optimize(noisy, SolverConfig(max_iterations=4))
    lam = 1e-8
    pk = _Packed(g)
    h, b = pk.normal_equations(pk.mats)
    delta = _solve(_damped(h, pk.scatter.diag, lam), -b, lm_hint=False)
    full = pk.chi2(pk.retract(pk.mats, delta))
    out, st = step(g, SolverConfig(), lam)
    assert (st.rejected, st.lambda_) == (0, lam)
    assert st.chi2 < full < chi2(g)
    assert chi2(out) == st.chi2
    alpha = st.update_norm / np.linalg.norm(delta)
    assert 0.0 < alpha < 0.99
    assert pk.chi2(pk.retract(pk.mats, alpha * delta)) == pytest.approx(st.chi2, rel=1e-12)


@pytest.mark.parametrize("kind, n, sigmas, seed, to_the_end", [
    ("circle2d", 50, (0.3, 0.2), 1, False), ("circle2d", 50, (0.3, 0.2), 1, True),
    ("sphere3d", 200, (0.1, 0.05), 2, False)])
def test_lambda_column_gives_the_rejected_trials(kind, n, sigmas, seed, to_the_end,
                                                 monkeypatch):
    # the benchmark infers rejected trials from the lambda column: a step
    # starts at the previous lambda / 10 (at first at the initial lambda,
    # floored at 1e-12) and multiplies it by 10 per rejected trial; the fit
    # along an accepted step (taken twice on the sphere, after two rejected
    # trials) leaves that schedule alone
    if to_the_end:
        monkeypatch.setattr(graphslam, "_CHI2_RTOL", 0.0)
    _, noisy = synth_graph(kind, n, sigmas, seed)
    cfg = SolverConfig(epsilon_gradient=0.0, epsilon_update=0.0) if to_the_end else SolverConfig()
    _, stats = optimize(noisy, cfg)
    start = stats[0].lambda_
    for s in stats[1:]:
        assert s.rejected == round(np.log10(s.lambda_ / start))
        start = max(s.lambda_ / 10.0, 1e-12)
    assert (stats[-1].update_norm == 0.0) == to_the_end


def _overflowing_se2(fixed, x1, measured, info):
    # chi2 or b overflows although every input is finite and info is PSD
    g = PoseGraph()
    g.add_vertex(0, HomPose2.from_xyt(0.0, 0.0, 0.0), fixed=fixed == 0)
    g.add_vertex(1, HomPose2.from_xyt(x1, 0.0, 0.0), fixed=fixed == 1)
    g.add_edge(0, 1, HomPose2.from_xyt(*measured, 0.0), np.diag(info))
    return g


@pytest.mark.parametrize("method", ["levenberg-marquardt", "gauss-newton"])
@pytest.mark.parametrize("fixed, x1, measured, info, what", [
    (0, 1e200, (1.0, 0.0), [1e200, 1.0, 1.0], "the initial chi2"),
    # chi2 is 1e293, but d(residual)/d(angle of vertex 0) is about 1e10
    (1, 1e10, (1e10, 1e-6), [1e305, 1e305, 1.0], "the gradient b"),
    # chi2 is 1e278 and b 1e294, but H is about 1e310
    (1, 1e10, (1e10, 1e-6), [1e290, 1e290, 1.0], "the Hessian H"),
])
def test_non_finite_chi2_or_gradient_is_an_error(fixed, x1, measured, info, what, method):
    g = _overflowing_se2(fixed, x1, measured, info)
    cfg = SolverConfig(method=method)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for call in (optimize, step):
            with pytest.raises(GeometryError, match="%s is not finite" % what):
                call(g, cfg)


def test_empty_graph_rejected():
    with pytest.raises(GeometryError):
        build_normal_equations(PoseGraph())


# ---------------------------------------------------------------------------
# batched edge kernel against the scalar edge errors

_unit = st.lists(st.floats(-1.0, 1.0), min_size=3, max_size=3).filter(
    lambda v: np.linalg.norm(v) > 0.1)
_vec3 = st.lists(st.floats(-3.0, 3.0), min_size=3, max_size=3)


def _rot(axis, angle):
    axis = np.asarray(axis) / np.linalg.norm(axis)
    return so3_exp(angle * axis)


def _kernel(delta, p1, p2):
    kind = "se3" if isinstance(delta, HomPose) else "se2"
    r, jac = _linearize(kind, inverse_rt(delta.mat[None]), p1.mat[None], p2.mat[None])
    return r[0], jac[0, 0], jac[0, 1]


def _assert_matches_oracle(got, ref):
    for g, r in zip(got, (ref.error, ref.jac1, ref.jac2)):
        assert np.abs(g - r).max() <= 1e-9 * (1.0 + np.abs(r).max())


# residual angle ranges: generic, small, tiny (down to the identity), and
# up to 1e-9 short of a half turn; each range's upper end is always drawn
@pytest.mark.parametrize("lo, hi", [(0.01, 3.0), (1.2e-4, 1.4e-3), (0.0, 9e-5),
                                    (3.0, np.pi - 1e-9)])
@given(data=st.data())
def test_batched_se3_edge_matches_edge_error_se3(lo, hi, data):
    angle = data.draw(st.just(hi) | st.floats(lo, hi))
    d = HomPose.from_rt(_rot(data.draw(_unit), data.draw(st.floats(0.0, 3.0))),
                        data.draw(_vec3))
    p1 = HomPose.from_rt(_rot(data.draw(_unit), data.draw(st.floats(0.0, 3.0))),
                         data.draw(_vec3))
    noise = HomPose.from_rt(_rot(data.draw(_unit), angle), data.draw(_vec3))
    p2 = HomPose(p1.mat @ d.mat @ noise.mat)
    ref = edge_error_se3(d, p1, p2)
    assert lo - 1e-9 <= np.linalg.norm(ref.error[3:]) <= hi + 1e-9
    _assert_matches_oracle(_kernel(d, p1, p2), ref)


@given(st.lists(st.floats(-4.0, 4.0), min_size=9, max_size=9))
def test_batched_se2_edge_matches_edge_error_se2(v):
    d, p1, p2 = (se2_pseudo_exp(np.array(v[k:k + 3])) for k in (0, 3, 6))
    _assert_matches_oracle(_kernel(d, p1, p2), edge_error_se2(d, p1, p2))


def _loop_normal_equations(g):
    """H and b edge by edge from the scalar edge errors, dense."""
    free = sorted(v for v in g.vertices if v not in g.fixed)
    d = g.block_size
    slot = {v: k * d for k, v in enumerate(free)}
    h = np.zeros((d * len(free), d * len(free)))
    b = np.zeros(d * len(free))
    err = edge_error_se3 if g.kind == "se3" else edge_error_se2
    for e in g.edges:
        res = err(e.delta, g.vertices[e.i], g.vertices[e.j])
        ends = [(slot[v], jac) for v, jac in ((e.i, res.jac1), (e.j, res.jac2))
                if v in slot]
        for sa, ja in ends:
            b[sa:sa + d] += ja.T @ e.information @ res.error
            for sb, jb in ends:
                h[sa:sa + d, sb:sb + d] += ja.T @ e.information @ jb
    return h, b


@pytest.mark.parametrize("kind, n", [
    ("circle2d", 40), ("circle2d", 600), ("sphere3d", 30), ("sphere3d", 300),
    ("grid2d", 49), ("grid2d", 625)])
def test_normal_equations_match_edge_loop(kind, n):
    _, noisy = synth_graph(kind, n, (0.05, 0.01), 2)
    g = _perturbed(noisy, 0.05, 1)
    g.fix(3)
    h, b = build_normal_equations(g)
    ref_h, ref_b = _loop_normal_equations(g)
    assert scipy.sparse.issparse(h) == (ref_b.size > _DENSE_LIMIT)
    assert np.abs(_dense(h) - ref_h).max() <= 1e-12 * np.abs(ref_h).max()
    assert np.abs(b - ref_b).max() <= 1e-12 * np.abs(ref_b).max()


def test_near_pi_edge_chi2_and_build():
    # chi2, the normal equations and a full solve take the half-turn edge
    # (0, 1) like any other: the same numbers as the per-edge reference,
    # finite poses, and a chi2 that never increases
    info = np.diag([4.0, 5.0, 6.0, 7.0, 8.0, 9.0])
    g = PoseGraph()
    g.add_vertex(0, HomPose(np.eye(4)), fixed=True)
    g.add_vertex(1, HomPose.from_rt(_rot([1.0, 2.0, 3.0], np.pi - 1e-7), [1.0, 0.0, 0.0]))
    g.add_vertex(2, HomPose.from_rt(_rot([0.0, 1.0, 0.0], 0.3), [0.0, 1.0, 0.0]))
    g.add_edge(0, 1, HomPose(np.eye(4)), info)
    g.add_edge(0, 2, HomPose.from_rt(_rot([0.0, 1.0, 0.0], 0.2), [0.0, 1.1, 0.0]), info)
    g.add_edge(1, 2, HomPose.from_rt(_rot([0.0, 0.0, 1.0], 0.1), [0.5, 0.0, 0.0]), info)
    near = np.concatenate([[1.0, 0.0, 0.0], so3_log(g.vertices[1].rotation)])
    assert np.pi - 1e-6 < np.linalg.norm(near[3:]) < np.pi
    others = [edge_error_se3(e.delta, g.vertices[e.i], g.vertices[e.j]).error
              for e in g.edges[1:]]
    assert chi2(g) == pytest.approx(near @ info @ near + sum(e @ info @ e for e in others),
                                    rel=1e-12)
    h, b = build_normal_equations(g)
    ref_h, ref_b = _loop_normal_equations(g)
    assert np.isfinite(h).all() and np.isfinite(b).all()
    assert np.abs(h - ref_h).max() <= 1e-12 * np.abs(ref_h).max()
    assert np.abs(b - ref_b).max() <= 1e-12 * np.abs(ref_b).max()
    optima = []
    for method in ("levenberg-marquardt", "gauss-newton"):
        final, stats = optimize(g, SolverConfig(method=method, max_iterations=20))
        assert all(np.isfinite(p.mat).all() for p in final.vertices.values())
        chis = [s.chi2 for s in stats]
        assert all(later <= earlier for earlier, later in zip(chis, chis[1:]))
        optima.append(chis[-1])
    # edge (1, 2) disagrees with the other two, so the optimum is not 0
    assert optima[0] < 0.02 * chi2(g)
    assert optima[1] == pytest.approx(optima[0], rel=1e-6)


@pytest.mark.parametrize("kind, n", [("grid2d", 100), ("sphere3d", 100)])
def test_optimize_stops_once_chi2_stops_moving(kind, n, monkeypatch):
    _, noisy = synth_graph(kind, n, (0.05, 0.01), 1)
    _, stats = optimize(noisy, SolverConfig())
    # the relative function tolerance fired on an accepted step, not an
    # all-rejected trial at the end
    assert stats[-1].update_norm > 0.0
    assert stats[-2].chi2 - stats[-1].chi2 <= 1e-7 * stats[-2].chi2
    monkeypatch.setattr(graphslam, "_CHI2_RTOL", 0.0)
    _, full = optimize(noisy, SolverConfig())
    assert len(stats) < len(full)
    assert abs(stats[-1].chi2 - full[-1].chi2) <= 1e-6 * full[-1].chi2


# ---------------------------------------------------------------------------
# factorization

@pytest.mark.parametrize("kind, n", [("circle2d", 300), ("circle2d", 600), ("sphere3d", 300)])
def test_solve_damped_normal_equations(kind, n):
    _, noisy = synth_graph(kind, n, (0.05, 0.01), 3)
    pk = _Packed(_perturbed(noisy, 0.05, 2))
    h, b = pk.normal_equations(pk.mats)
    a = _damped(h, pk.scatter.diag, 1e-3)
    assert np.array_equal(a.toarray(), h.toarray() + 1e-3 * np.eye(b.size))
    x = _solve(a, -b, lm_hint=False)
    ref = np.linalg.solve(a.toarray(), -b)
    assert np.linalg.norm(x - ref) <= 1e-10 * np.linalg.norm(ref)


@pytest.mark.parametrize("h", [
    -scipy.sparse.identity(3000, format="csr"),
    scipy.sparse.csr_matrix(np.array([[0.0, 1.0], [1.0, 0.0]]))])
def test_solve_rejects_matrices_that_are_not_positive_definite(h):
    with pytest.raises(RankDeficiencyError, match="not positive definite"):
        _solve(h, np.ones(h.shape[0]), lm_hint=False)


@pytest.mark.parametrize("kind, n", [("sphere3d", 40), ("circle2d", 600)])
def test_optimize_is_deterministic_and_leaves_input_alone(kind, n):
    _, noisy = synth_graph(kind, n, (0.05, 0.01), 4)
    before = dict(noisy.vertices)
    cfg = SolverConfig(max_iterations=10)
    out_a, stats_a = optimize(noisy, cfg)
    out_b, stats_b = optimize(noisy, cfg)
    assert stats_a == stats_b
    assert len(stats_a) > 1
    for v in noisy.vertices:
        assert np.array_equal(out_a.vertices[v].mat, out_b.vertices[v].mat)
    assert noisy.vertices.keys() == before.keys()
    assert all(noisy.vertices[v] is before[v] for v in before)


# ---------------------------------------------------------------------------
# the trusted pose boundary

def _planted(kind, row, k=1):
    """unpack of a solved graph whose free vertex k is replaced by row."""
    _, noisy = synth_graph(kind, 6, (0.05, 0.01), seed=3)
    pk = _Packed(noisy)
    mats = pk.mats.copy()
    mats[pk.free[k]] = row
    return pk.unpack(mats)


@pytest.mark.parametrize("kind", ["grid2d", "sphere3d"])
def test_unpack_rejects_rows_the_constructor_rejects(kind):
    n = 3 if kind == "grid2d" else 4
    cls = HomPose2 if n == 3 else HomPose
    nan = np.eye(n)
    nan[0, n - 1] = np.nan
    skewed = np.eye(n)
    skewed[0, 1] = 1e-6
    mirror = np.eye(n)
    mirror[0, 0] = -1.0
    lifted = np.eye(n)
    lifted[n - 1, 0] = 1e-3
    for row, reason in [(nan, "must be a finite"), (skewed, "not orthonormal"),
                        (mirror, "determinant"), (lifted, "bottom row")]:
        with pytest.raises(GeometryError, match=reason) as caught:
            _planted(kind, row)
        with pytest.raises(GeometryError) as direct:
            cls(row)
        assert str(caught.value) == str(direct.value)


def test_unpack_gives_read_only_poses_equal_to_validated_ones():
    _, noisy = synth_graph("sphere3d", 20, (0.05, 0.01), seed=4)
    out, _ = optimize(noisy, SolverConfig(max_iterations=3))
    for vid, p in out.vertices.items():
        assert type(p) is HomPose
        assert not p.mat.flags.writeable
        assert np.array_equal(HomPose(p.mat).mat, p.mat)
    assert all(out.vertices[v] is noisy.vertices[v] for v in noisy.fixed)


def test_information_psd_tolerance_is_relative():
    g = _tiny_se2()
    before = len(g.edges)
    # smallest eigenvalue -1e-4 against a largest of 1e6: within -1e-9 x max
    g.add_edge(0, 1, se2_exp(np.zeros(3)), np.diag([1e6, 1.0, -1e-4]))
    with pytest.raises(GeometryError, match=r"edge \(0, 1\) .*not positive semidefinite"):
        g.add_edge(0, 1, se2_exp(np.zeros(3)), np.diag([1e6, 1.0, -1e-2]))
    assert len(g.edges) == before + 1
