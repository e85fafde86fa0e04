"""End-to-end checks of the command-line interface."""
import functools
import json
import math
import operator
import os
import pathlib
import re
import subprocess
import sys

import click
import numpy as np
import pytest
from click.testing import CliRunner
from hypothesis import given
from hypothesis import strategies as st

import rigidkit
from rigidkit import (EulerPose, GaussianPose, HomPose, QuatPose, Quaternion,
                      SingularConfigurationError, check_catalog, compose_pose_quat,
                      compose_pose_ypr, convert_gaussian, matrix_to_quat, matrix_to_ypr,
                      pose_param_vector, quat_to_matrix, quat_to_ypr, se3_exp,
                      ypr_to_matrix, ypr_to_quat)
from rigidkit import cli
from rigidkit.cli import main

DATA = pathlib.Path(__file__).parent / "data"
CIRCLE = DATA / "circle2d_noisy.g2o"

YPR = {"type": "ypr", "data": [1.0, -0.5, 2.0, 0.4, -0.3, 1.2]}


@pytest.fixture
def runner():
    return CliRunner()


def _run(runner, args, stdin=None):
    return runner.invoke(main, args, input=stdin, catch_exceptions=False)


def _run_json(runner, args, payload):
    res = _run(runner, args, stdin=json.dumps(payload))
    assert res.exit_code == 0, res.output
    return json.loads(res.output)


# ---------------------------------------------------------------------------
# convert

def test_convert_identity_passthrough(runner):
    out = _run_json(runner, ["convert", "--to", "ypr"], YPR)
    assert out["type"] == "ypr"
    assert out["data"] == YPR["data"]


def test_convert_ypr_to_quat_matches_library(runner):
    out = _run_json(runner, ["convert", "--to", "quat"], YPR)
    expected = ypr_to_quat(EulerPose.from_vec(np.array(YPR["data"]))).vec
    assert out["type"] == "quat"
    assert np.abs(np.array(out["data"]) - expected).max() < 1e-15


def test_convert_degrees(runner):
    deg = {"type": "ypr", "data": [0.0, 0.0, 0.0, 90.0, 0.0, 0.0]}
    out = _run_json(runner, ["convert", "--to", "quat", "--degrees"], deg)
    q = np.array(out["data"][3:])
    half = math.sqrt(0.5)
    assert np.abs(q - np.array([half, 0.0, 0.0, half])).max() < 1e-12


def test_convert_degrees_round_trip_stays_in_degrees(runner):
    deg = {"type": "ypr", "data": [1.0, 2.0, 3.0, 30.0, 20.0, 10.0]}
    q = _run_json(runner, ["convert", "--to", "quat", "--degrees"], deg)
    back = _run_json(runner, ["convert", "--to", "ypr", "--degrees"], q)
    assert np.abs(np.array(back["data"]) - np.array(deg["data"])).max() < 1e-9


def test_convert_with_covariance(runner):
    payload = dict(YPR)
    payload["cov"] = (1e-6 * np.eye(6)).tolist()
    out = _run_json(runner, ["convert", "--to", "quat"], payload)
    cov = np.array(out["cov"])
    assert cov.shape == (7, 7)
    assert np.abs(cov - cov.T).max() == 0.0


def test_convert_overflowing_covariance_is_malformed_input(runner):
    payload = dict(YPR)
    cov = 1e-6 * np.eye(6)
    cov[3, 3] = cov[4, 4] = 1.7e308
    payload["cov"] = cov.tolist()
    res = runner.invoke(main, ["convert", "--to", "quat"], input=json.dumps(payload))
    assert res.exit_code == 1
    assert res.output == ("error: pose: GaussianPose: covariance is too large to "
                          "symmetrize and decompose\n")


def test_convert_large_angle_variances_to_matrix(runner):
    # the 12x12 matrix covariance has rank 6, and rounding leaves its zero
    # eigenvalues near -1e-9: negative, but tiny beside the largest
    payload = dict(YPR)
    payload["cov"] = np.diag([1e-6] * 3 + [1e6] * 3).tolist()
    out = _run_json(runner, ["convert", "--to", "matrix"], payload)
    assert out["type"] == "matrix"
    cov = np.array(out["cov"])
    assert cov.shape == (12, 12)
    w = np.linalg.eigvalsh(cov)
    assert w[0] >= -1e-10 * w[-1] and w[-1] > 1e6


def test_convert_degrees_with_covariance_rejected(runner):
    payload = dict(YPR)
    payload["cov"] = (1e-6 * np.eye(6)).tolist()
    res = _run(runner, ["convert", "--to", "quat", "--degrees"],
               stdin=json.dumps(payload))
    assert res.exit_code == 1


def test_convert_invalid_json(runner):
    res = _run(runner, ["convert", "--to", "quat"], stdin="{not json")
    assert res.exit_code == 1


def test_convert_unknown_type(runner):
    res = _run(runner, ["convert", "--to", "quat"],
               stdin=json.dumps({"type": "axis", "data": [0] * 6}))
    assert res.exit_code == 1


def test_convert_gimbal_lock_is_domain_error(runner):
    gimbal = {"type": "quat",
              "data": [0.0, 0.0, 0.0, math.sqrt(0.5), 0.0, math.sqrt(0.5), 0.0]}
    res = _run(runner, ["convert", "--to", "ypr"], stdin=json.dumps(gimbal))
    assert res.exit_code == 0  # plain conversion handles the branch
    payload = dict(gimbal)
    payload["cov"] = (1e-8 * np.eye(7)).tolist()
    res = _run(runner, ["convert", "--to", "ypr"], stdin=json.dumps(payload))
    assert res.exit_code == 2  # covariance needs the singular Jacobian


def _pole_quat(gap):
    return {"type": "quat", "data": list(ypr_to_quat(
        EulerPose(0.2, 0.1, -0.4, 1.1, 0.5 * math.pi - gap, -2.3)).vec)}


# source poses by name, as the JSON that convert reads
_SOURCES = {
    "ypr": YPR,
    "quat": {"type": "quat", "data": list(ypr_to_quat(EulerPose(*YPR["data"])).vec)},
    "matrix": {"type": "matrix", "data": list(ypr_to_matrix(EulerPose(*YPR["data"])).mat.ravel())},
    # 5e-5 rad from a pole, outside the 1e-6 rad band where the Euler-angle
    # Jacobians raise: its covariance converts to ypr
    "quat-near-pole": _pole_quat(5e-5),
    # 3e-7 rad from a pole, inside that band: with a covariance, --to ypr
    # is a domain error
    "quat-at-pole": _pole_quat(3e-7),
}
# the library's conversion of each (source, target) pair
_LIBRARY = {("ypr", "quat"): ypr_to_quat, ("ypr", "matrix"): ypr_to_matrix,
            ("quat", "ypr"): quat_to_ypr, ("quat", "matrix"): quat_to_matrix,
            ("matrix", "ypr"): matrix_to_ypr, ("matrix", "quat"): matrix_to_quat}


def _pose_data(p):
    return (p.mat.ravel() if isinstance(p, HomPose) else p.vec).tolist()


@pytest.mark.parametrize("with_cov", [False, True], ids=["mean", "cov"])
@pytest.mark.parametrize("source, target", [
    (s, t) for s in _SOURCES for t in ("ypr", "quat", "matrix") if t != s.split("-")[0]])
def test_convert_prints_what_the_library_gives(runner, source, target, with_cov):
    payload = dict(_SOURCES[source])
    kind = payload["type"]
    pose = {"ypr": EulerPose.from_vec, "quat": QuatPose.from_vec,
            "matrix": lambda v: HomPose(np.reshape(v, (4, 4)))}[kind](np.array(payload["data"]))
    if not with_cov:
        out = _run_json(runner, ["convert", "--to", target], payload)
        assert out == {"type": target, "data": _pose_data(_LIBRARY[(kind, target)](pose))}
        return
    dim = len(pose_param_vector(pose))
    a = np.random.default_rng(dim).normal(size=(dim, dim))
    payload["cov"] = (1e-4 * (a @ a.T + a.T @ a)).tolist()
    res = _run(runner, ["convert", "--to", target], stdin=json.dumps(payload))
    gauss = GaussianPose(pose, np.array(payload["cov"]))
    if (source, target) == ("quat-at-pole", "ypr"):
        with pytest.raises(SingularConfigurationError) as exc:
            convert_gaussian(gauss, target)
        assert (res.exit_code, res.output) == (2, "error: %s\n" % exc.value)
        return
    want = convert_gaussian(gauss, target)
    assert res.exit_code == 0, res.output
    assert json.loads(res.output) == {"type": target, "data": _pose_data(want.mean),
                                      "cov": want.cov.tolist()}


# ---------------------------------------------------------------------------
# compose / invert / apply-point

def test_compose_quat_matches_library(runner):
    p1 = QuatPose.from_vec(np.array(
        _run_json(runner, ["convert", "--to", "quat"], YPR)["data"]))
    p2v = [(-0.3), 0.8, 2.0, -1.0, 0.5, 0.3]
    p2 = ypr_to_quat(EulerPose.from_vec(np.array(p2v)))
    payload = {"p1": {"type": "quat", "data": list(p1.vec)},
               "p2": {"type": "quat", "data": list(p2.vec)}}
    out = _run_json(runner, ["compose"], payload)
    expected = compose_pose_quat(p1, p2)[0].vec
    assert np.abs(np.array(out["data"]) - expected).max() < 1e-14


def test_compose_ypr_in_the_gimbal_band(runner):
    # the composed pitch is pi/2, where the ypr Jacobians are undefined
    payload = {"p1": {"type": "ypr", "data": [0, 0, 0, 0, 1.2707963267948966, 0]},
               "p2": {"type": "ypr", "data": [1, 0, 0, 0, 0.3, 0]}}
    out = _run_json(runner, ["compose"], payload)
    assert out["type"] == "ypr"
    expected = [0.29552020666133966, 0.0, -0.955336489125606, 0.0, math.pi / 2, 0.0]
    assert np.abs(np.array(out["data"]) - expected).max() <= 1e-12
    # away from the band the value is compose_pose_ypr's
    p2v = [-0.3, 0.8, 2.0, -1.0, 0.5, 0.3]
    out = _run_json(runner, ["compose"], {"p1": YPR, "p2": {"type": "ypr", "data": p2v}})
    expected = compose_pose_ypr(EulerPose.from_vec(np.array(YPR["data"])),
                                EulerPose.from_vec(np.array(p2v)))[0].vec
    assert np.abs(np.array(out["data"]) - expected).max() <= 1e-12


def test_compose_mixed_kinds_rejected(runner):
    payload = {"p1": YPR, "p2": {"type": "quat",
                                 "data": [0, 0, 0, 1, 0, 0, 0]}}
    res = _run(runner, ["compose"], stdin=json.dumps(payload))
    assert res.exit_code == 1


def test_invert_round_trip(runner):
    inv = _run_json(runner, ["invert"], {"pose": YPR})
    assert inv["type"] == "ypr"
    payload = {"p1": YPR, "p2": inv}
    out = _run_json(runner, ["compose"], payload)
    assert np.abs(np.array(out["data"])).max() < 1e-12


def test_apply_point_forward_and_inverse(runner):
    point = [0.3, -0.7, 1.1]
    fwd = _run_json(runner, ["apply-point"], {"pose": YPR, "point": point})
    back = _run_json(runner, ["apply-point", "--inverse"],
                     {"pose": YPR, "point": fwd["point"]})
    assert np.abs(np.array(back["point"]) - np.array(point)).max() < 1e-12
    m = ypr_to_matrix(EulerPose.from_vec(np.array(YPR["data"]))).mat
    expected = m[:3, :3] @ np.array(point) + m[:3, 3]
    assert np.abs(np.array(fwd["point"]) - expected).max() < 1e-12


# ---------------------------------------------------------------------------
# propagate

def test_propagate_compose(runner):
    g = dict(YPR)
    g["cov"] = (1e-6 * np.eye(6)).tolist()
    payload = {"op": "compose", "p1": g, "p2": g}
    out = _run_json(runner, ["propagate"], payload)
    assert out["op"] == "compose"
    cov = np.array(out["cov"])
    assert cov.shape == (6, 6)
    assert np.all(np.linalg.eigvalsh(cov) > 0)


def test_propagate_apply_point(runner):
    g = dict(YPR)
    g["cov"] = (1e-6 * np.eye(6)).tolist()
    pt = {"data": [0.5, 0.5, 0.5], "cov": (1e-8 * np.eye(3)).tolist()}
    out = _run_json(runner, ["propagate"],
                    {"op": "apply-point", "pose": g, "point": pt})
    assert out["op"] == "apply-point"
    assert np.array(out["point"]["cov"]).shape == (3, 3)


def _huge_pose():
    # translation 1e200 and yaw variance 1e300: every input is finite, the
    # propagated covariance is not
    cov = 1e-6 * np.eye(6)
    cov[3, 3] = 1e300
    return {"type": "ypr", "data": [1e200, 0, 0, 0, 0, 0], "cov": cov.tolist()}


@pytest.mark.parametrize("payload, message", [
    ({"op": "apply-point", "pose": _huge_pose(),
      "point": {"data": [1e200, 0, 0], "cov": (1e-8 * np.eye(3)).tolist()}},
     "error: GaussianPoint3: covariance must be a finite 3x3\n"),
    ({"op": "compose", "p1": _huge_pose(), "p2": _huge_pose()},
     "error: GaussianPose: covariance must be a finite 6x6\n"),
])
def test_propagate_overflowing_covariance_gives_one_error_line(payload, message):
    out = _in_own_interpreter(["propagate"], stdin=json.dumps(payload))
    assert out.returncode == 2
    assert out.stdout == ""
    assert out.stderr == message


def test_propagate_missing_cov_rejected(runner):
    payload = {"op": "compose", "p1": YPR, "p2": YPR}
    res = _run(runner, ["propagate"], stdin=json.dumps(payload))
    assert res.exit_code == 1


def test_propagate_unknown_op(runner):
    res = _run(runner, ["propagate"], stdin=json.dumps({"op": "shear"}))
    assert res.exit_code == 1


# ---------------------------------------------------------------------------
# expmap / logmap

def test_expmap_logmap_3d_round_trip(runner):
    tangent = [0.7, -1.1, 0.4, 0.2, 0.4, -0.3]
    pose = _run_json(runner, ["expmap"], {"tangent": tangent})
    assert pose["type"] == "matrix"
    assert len(pose["data"]) == 16
    back = _run_json(runner, ["logmap"], pose)
    assert np.abs(np.array(back["tangent"]) - np.array(tangent)).max() < 1e-12


def test_expmap_matches_library(runner):
    tangent = [0.7, -1.1, 0.4, 0.2, 0.4, -0.3]
    pose = _run_json(runner, ["expmap"], {"tangent": tangent})
    expected = se3_exp(np.array(tangent)).mat.reshape(-1)
    assert np.abs(np.array(pose["data"]) - expected).max() < 1e-15


def test_expmap_logmap_planar(runner):
    tangent = [1.5, -0.4, 0.9]
    pose = _run_json(runner, ["expmap"], {"tangent": tangent})
    assert pose["type"] == "matrix2"
    assert len(pose["data"]) == 9
    back = _run_json(runner, ["logmap"], pose)
    assert np.abs(np.array(back["tangent"]) - np.array(tangent)).max() < 1e-12


def test_expmap_pseudo_translation_verbatim(runner):
    tangent = [0.7, -1.1, 0.4, 0.2, 0.4, -0.3]
    pose = _run_json(runner, ["expmap", "--pseudo"], {"tangent": tangent})
    m = np.array(pose["data"]).reshape(4, 4)
    assert np.array_equal(m[:3, 3], np.array(tangent[:3]))
    back = _run_json(runner, ["logmap", "--pseudo"], pose)
    assert np.abs(np.array(back["tangent"]) - np.array(tangent)).max() < 1e-12


def test_expmap_wrong_length(runner):
    res = _run(runner, ["expmap"], stdin=json.dumps({"tangent": [1, 2, 3, 4]}))
    assert res.exit_code == 1


def test_logmap_near_half_turn_domain_error(runner):
    m = se3_exp(np.array([0.0, 0.0, 0.0, math.pi - 1e-9, 0.0, 0.0]))
    payload = {"type": "matrix", "data": [float(x) for x in m.mat.reshape(-1)]}
    res = _run(runner, ["logmap"], stdin=json.dumps(payload))
    assert res.exit_code == 2


def test_logmap_rejects_non_matrix(runner):
    res = _run(runner, ["logmap"], stdin=json.dumps(YPR))
    assert res.exit_code == 1


# ---------------------------------------------------------------------------
# project

INTR = {"fx": 500.0, "fy": 400.0, "cx": 320.0, "cy": 240.0}


def test_project_literal(runner):
    out = _run_json(runner, ["project"],
                    {"intrinsics": INTR, "point": [0.2, -0.1, 2.0]})
    assert out["pixel"] == [370.0, 220.0]


def test_project_through_pose(runner):
    pose = {"type": "ypr", "data": [0.1, 0.0, 0.3, 0.2, -0.1, 0.05]}
    out = _run_json(runner, ["project"],
                    {"intrinsics": INTR, "point": [0.2, -0.1, 2.0],
                     "pose": pose})
    assert len(out["pixel"]) == 2


def test_project_inverse_needs_pose(runner):
    res = _run(runner, ["project", "--inverse"],
               stdin=json.dumps({"intrinsics": INTR, "point": [0, 0, 2]}))
    assert res.exit_code == 1


def test_project_behind_camera(runner):
    res = _run(runner, ["project"],
               stdin=json.dumps({"intrinsics": INTR, "point": [0, 0, -1.0]}))
    assert res.exit_code == 2


# ---------------------------------------------------------------------------
# jacobian-check

def test_jacobian_check_passes(runner):
    res = _run(runner, ["jacobian-check", "--samples", "5"])
    assert res.exit_code == 0
    assert "48/48 operations passed" in res.output


def test_jacobian_check_json(runner):
    res = _run(runner, ["jacobian-check", "--samples", "3", "--json"])
    assert res.exit_code == 0
    reports = json.loads(res.output)
    assert len(reports) == 48
    assert all(set(r) == {"op", "maxAbsError", "worstRow", "worstCol",
                          "worstSample", "pass"} for r in reports)
    assert all(r["pass"] for r in reports)


def test_jacobian_check_absurd_tolerance_fails(runner):
    res = _run(runner, ["jacobian-check", "--samples", "2", "--tol", "1e-30"])
    assert res.exit_code == 3
    assert "FAIL" in res.output


@pytest.mark.parametrize("args, message", [
    (["--seed", "-1"], "error: --seed must be an integer >= 0"),
    (["--samples", "0"], "error: --samples must be an integer >= 1"),
    (["--samples", "-3"], "error: --samples must be an integer >= 1"),
    (["--tol", "nan"], "error: --tol must be a finite number >= 0"),
    (["--tol", "-1"], "error: --tol must be a finite number >= 0"),
    (["--tol", "inf"], "error: --tol must be a finite number >= 0"),
])
def test_jacobian_check_rejects_impossible_arguments(args, message, monkeypatch):
    # rejected before any check runs
    monkeypatch.setattr(cli, "check_catalog", None)
    res = CliRunner().invoke(main, ["jacobian-check", *args])
    assert res.exit_code == 1
    assert res.output.strip() == message


def test_jacobian_check_json_stays_strict_on_a_nan(monkeypatch):
    # a NaN Jacobian fails its check, and the report has no NaN token
    from rigidkit import numcheck
    name = "core.jacobian_matrix_wrt_quat"
    names, sample, analytic, numeric = numcheck._CHECKS[name]
    monkeypatch.setitem(numcheck._CHECKS, name,
                        (names, sample, lambda p: [j * np.nan for j in analytic(p)], numeric))
    res = CliRunner().invoke(main, ["jacobian-check", "--samples", "3", "--json"])
    assert res.exit_code == 3

    def no_constant(token):
        raise ValueError("not strict JSON: " + token)

    reports = {r["op"]: r for r in json.loads(res.output, parse_constant=no_constant)}
    assert reports.pop(name) == {"op": name, "maxAbsError": None, "worstRow": 0, "worstCol": 0,
                                 "worstSample": 0, "pass": False}
    assert len(reports) == 47 and all(r["pass"] for r in reports.values())


@pytest.mark.parametrize("seed", [1, 7])
def test_jacobian_check_prints_check_catalog_reports(runner, seed):
    # both report formats carry the library's reports, in its order and
    # bit for bit, for the seed and sample count the command was given
    want = check_catalog(seed=seed, n=8)
    args = ["jacobian-check", "--seed", str(seed), "--samples", "8"]
    assert json.loads(_run(runner, [*args, "--json"]).output) == \
        [r.to_json_dict() for r in want]
    lines = _run(runner, args).output.splitlines()
    assert lines == ["PASS  %-40s max|err| = %.3e  at (%d, %d)"
                     % (r.op, r.max_abs_error, r.worst_row, r.worst_col) for r in want] + \
        ["48/48 operations passed"]


def test_jacobian_check_under_spawn(tmp_path):
    # a script without a __main__ guard, under spawn (the default on macOS
    # and Windows), which re-imports the script in any process it starts
    script = tmp_path / "check.py"
    script.write_text("import multiprocessing\n"
                      "from rigidkit import cli\n"
                      "multiprocessing.set_start_method('spawn', force=True)\n"
                      "cli.main(['jacobian-check', '--samples', '3', '--json'])\n")
    env = dict(os.environ, PYTHONPATH=str(pathlib.Path(rigidkit.__path__[0]).parent))
    out = subprocess.run([sys.executable, str(script)], capture_output=True, text=True, env=env)
    assert out.returncode == 0, out.stderr
    assert json.loads(out.stdout) == [r.to_json_dict() for r in check_catalog(seed=1, n=3)]


# ---------------------------------------------------------------------------
# slam

def test_slam_reduces_chi2(runner, tmp_path):
    out_path = tmp_path / "out.g2o"
    stats_path = tmp_path / "stats.csv"
    res = _run(runner, ["slam", str(CIRCLE), str(out_path),
                        "--max-iters", "5", "--stats", str(stats_path)])
    assert res.exit_code == 0, res.output
    lines = stats_path.read_text().splitlines()
    assert lines[0] == "iter,chi2,update_norm,lambda"
    rows = [line.split(",") for line in lines[1:]]
    assert rows[0][0] == "0"
    chis = [float(r[1]) for r in rows]
    assert chis[-1] < chis[0]
    assert all(b <= a for a, b in zip(chis, chis[1:]))
    from rigidkit import read_g2o
    g = read_g2o(out_path)
    assert len(g.vertices) == 12


def test_slam_zero_iterations_byte_round_trip(runner, tmp_path):
    out_path = tmp_path / "echo.g2o"
    res = _run(runner, ["slam", str(CIRCLE), str(out_path), "--max-iters", "0"])
    assert res.exit_code == 0, res.output
    assert out_path.read_bytes() == CIRCLE.read_bytes()


def test_slam_bad_file(runner, tmp_path):
    bad = tmp_path / "bad.g2o"
    bad.write_text("VERTEX_SE2 0 a b c\n")
    res = _run(runner, ["slam", str(bad), str(tmp_path / "out.g2o")])
    assert res.exit_code == 1


def test_slam_negative_iterations(runner, tmp_path):
    res = _run(runner, ["slam", str(CIRCLE), str(tmp_path / "out.g2o"),
                        "--max-iters", "-1"])
    assert res.exit_code == 1


def test_version_flag(runner):
    res = _run(runner, ["--version"])
    assert res.exit_code == 0
    assert res.output == f"rigidkit, version {rigidkit.__version__}\n"


@pytest.mark.parametrize("args, names", [
    (["jacobian-check", "--samples", "2.5"], ["--samples", "2.5"]),
    (["slam", str(CIRCLE), "{tmp}/out.g2o", "--max-iters", "abc"], ["--max-iters", "abc"]),
    (["slam", "{tmp}/missing.g2o", "{tmp}/out.g2o"], ["missing.g2o"]),
    (["convert", "--bogus"], ["--bogus"]),
    (["convert", "--to", "euler"], ["--to", "euler"]),
])
def test_command_line_errors_give_one_stderr_line_and_exit_1(args, names, tmp_path):
    # click's parse errors are malformed input: not its usage text and code 2
    out = _in_own_interpreter([a.format(tmp=tmp_path) for a in args], stdin="{}")
    assert (out.returncode, out.stdout) == (1, "")
    assert out.stderr.startswith("error: ") and out.stderr.count("\n") == 1, out.stderr
    assert all(name in out.stderr for name in names), out.stderr
    assert not (tmp_path / "out.g2o").exists()


def test_help_is_unchanged(runner):
    for args in (["--help"], ["slam", "--help"]):
        res = _run(runner, args)
        assert res.exit_code == 0
        assert res.output.startswith("Usage: ") and "Options:" in res.output


def test_standalone_mode_false_returns_and_raises_as_in_click(runner):
    res = runner.invoke(main, ["convert", "--to", "quat"], input=json.dumps(YPR),
                        standalone_mode=False)
    assert (res.exit_code, res.exception) == (0, None)
    assert json.loads(res.output)["type"] == "quat"
    res = runner.invoke(main, ["convert", "--bogus"], standalone_mode=False)
    assert isinstance(res.exception, click.NoSuchOption)
    res = runner.invoke(main, ["convert", "--to", "quat"], input="[",
                        standalone_mode=False)
    assert res.exit_code == 1 and res.output.startswith("error: invalid JSON")


def test_bare_command_prints_the_help_and_exits_0():
    # the same on every click version: not click 8.2's usage error on stderr
    out = _in_own_interpreter([])
    assert (out.returncode, out.stderr) == (0, "")
    assert out.stdout.startswith("Usage:") and "Commands:" in out.stdout
    assert out.stdout == _in_own_interpreter(["--help"]).stdout


def test_slam_solves_a_half_turn_edge(runner, tmp_path):
    from rigidkit import HomPose, PoseGraph, read_g2o, so3_exp, write_g2o

    g = PoseGraph()
    g.add_vertex(0, HomPose(np.eye(4)), fixed=True)
    axis = np.array([1.0, 2.0, 3.0]) / math.sqrt(14.0)
    g.add_vertex(1, HomPose.from_rt(so3_exp((math.pi - 1e-7) * axis), [1.0, 0.0, 0.0]))
    g.add_vertex(2, HomPose.from_rt(so3_exp([0.0, 0.3, 0.0]), [0.0, 1.0, 0.0]))
    info = np.diag([4.0, 5.0, 6.0, 7.0, 8.0, 9.0])
    g.add_edge(0, 1, HomPose(np.eye(4)), info)
    g.add_edge(0, 2, HomPose.from_rt(so3_exp([0.0, 0.2, 0.0]), [0.0, 1.1, 0.0]), info)
    write_g2o(g, tmp_path / "in.g2o")
    res = _run(runner, ["slam", str(tmp_path / "in.g2o"), str(tmp_path / "out.g2o"),
                        "--stats", str(tmp_path / "stats.csv")])
    assert res.exit_code == 0, res.output
    chis = [float(line.split(",")[1])
            for line in (tmp_path / "stats.csv").read_text().splitlines()[1:]]
    assert all(b <= a for a, b in zip(chis, chis[1:])) and chis[-1] < 1e-6 * chis[0]
    out = read_g2o(tmp_path / "out.g2o")
    assert all(np.isfinite(p.mat).all() for p in out.vertices.values())


def _in_own_interpreter(args, stdin=None):
    # with warnings shown, as a user would run it
    env = dict(os.environ, PYTHONWARNINGS="default",
               PYTHONPATH=str(pathlib.Path(rigidkit.__path__[0]).parent))
    return subprocess.run([sys.executable, "-m", "rigidkit.cli", *args], input=stdin,
                          capture_output=True, text=True, env=env)


def _slam_in_own_interpreter(tmp_path, text):
    (tmp_path / "in.g2o").write_text(text)
    return _in_own_interpreter(["slam", str(tmp_path / "in.g2o"), str(tmp_path / "out.g2o")])


@pytest.mark.parametrize("text, message", [
    ("VERTEX_SE2 0 0 0 inf\n", "error: line 1: HomPose2: matrix must be a finite 3x3\n"),
    ("VERTEX_SE2 0 0 0 0\nVERTEX_SE2 1 1 0 0\nEDGE_SE2 0 1 1 0 0 1 1e308 0 1 0 1\n",
     "error: line 3: PoseGraph: edge (0, 1) information must be a finite 3x3 matrix\n"),
])
def test_slam_non_finite_input_gives_one_stderr_line(tmp_path, text, message):
    out = _slam_in_own_interpreter(tmp_path, text)
    assert out.returncode == 1
    assert out.stderr == message


def test_slam_overflowing_chi2_gives_one_error_line(tmp_path):
    # every number is finite and the information is PSD, yet chi2 overflows
    out = _slam_in_own_interpreter(
        tmp_path, "VERTEX_SE2 0 0 0 0\nVERTEX_SE2 1 1e200 0 0\nEDGE_SE2 0 1 1 0 0 1e200 0 0 1 0 1\n")
    assert out.returncode == 2
    assert out.stderr == (
        "note: g2o input has no FIX record; fixing vertex 0\n"
        "error: PoseGraph: the initial chi2 is not finite; residuals or information "
        "matrices are too large\n")
    assert out.stdout == ""


# ---------------------------------------------------------------------------
# malformed JSON numbers

@pytest.mark.parametrize("args, payload, message", [
    (["apply-point"], {"pose": YPR, "point": [1, math.nan, 3]},
     "point must be a list of 3 finite numbers"),
    (["project"], {"intrinsics": INTR, "point": [0, math.inf, 1]},
     "point must be a list of 3 finite numbers"),
    (["project"], {"intrinsics": dict(INTR, cx=-math.inf), "point": [0, 0, 1]},
     "intrinsics fx, fy, cx, cy must be a list of 4 finite numbers"),
    (["expmap"], {"tangent": [0, 0, 0, math.nan, 0, 0]},
     "tangent must be a list of 6 finite numbers"),
    (["convert", "--to", "quat"], {"type": "ypr", "data": [0, 0, 0, 10 ** 400, 0, 0]},
     "pose.data must be a list of 6 finite numbers"),
])
def test_non_finite_numbers_are_malformed_input(runner, args, payload, message):
    res = runner.invoke(main, args, input=json.dumps(payload))
    assert res.exit_code == 1
    assert res.output == "error: %s\n" % message


_POSE_COV = dict(YPR, cov=(1e-6 * np.eye(6)).tolist())
_QUAT = {"type": "quat", "data": [0.1, 0.2, 0.3, 0.5, 0.5, -0.5, 0.5]}
_MATRIX = {"type": "matrix",
           "data": [float(x) for x in se3_exp(np.array([0.7, -1.1, 0.4, 0.2, 0.4, -0.3]))
                    .mat.reshape(-1)]}
# one valid input per pose command
_VALID = [
    (["convert", "--to", "quat"], _POSE_COV),
    (["compose"], {"p1": _QUAT, "p2": _QUAT}),
    (["invert"], {"pose": YPR}),
    (["apply-point", "--inverse"], {"pose": _MATRIX, "point": [1.0, 2.0, 3.0]}),
    (["propagate"], {"op": "compose", "p1": _POSE_COV, "p2": _POSE_COV}),
    (["propagate"], {"op": "inv-apply-point", "pose": dict(_QUAT, cov=np.eye(7).tolist()),
                     "point": {"data": [0.5, 0.5, 0.5], "cov": (1e-8 * np.eye(3)).tolist()}}),
    (["expmap"], {"tangent": [0.7, -1.1, 0.4, 0.2, 0.4, -0.3]}),
    (["logmap"], _MATRIX),
    (["project"], {"intrinsics": INTR, "point": [0.2, -0.1, 2.0], "pose": YPR}),
]
_NOT_A_NUMBER = [math.nan, math.inf, -math.inf, 10 ** 400, "1", None, True, [], {}]


def _slots(obj, path=()):
    """(path, kind): every number, and every list (to resize)."""
    if isinstance(obj, dict):
        for key, value in obj.items():
            yield from _slots(value, path + (key,))
    elif isinstance(obj, list):
        yield path, "list"
        for k, value in enumerate(obj):
            yield from _slots(value, path + (k,))
    elif isinstance(obj, (int, float)) and not isinstance(obj, bool):
        yield path, "number"


@pytest.mark.parametrize("args, payload", _VALID)
def test_valid_fuzz_seeds_pass(runner, args, payload):
    _run_json(runner, args, payload)


@given(data=st.data())
def test_malformed_json_gives_an_error_line(data):
    args, payload = data.draw(st.sampled_from(_VALID))
    path, kind = data.draw(st.sampled_from(list(_slots(payload))))
    bad = json.loads(json.dumps(payload))
    *parents, last = path
    slot = functools.reduce(operator.getitem, parents, bad)
    if kind == "number":
        slot[last] = data.draw(st.sampled_from(_NOT_A_NUMBER))
    elif data.draw(st.booleans()):
        slot[last].pop()
    else:
        slot[last].append(slot[last][-1])
    text = json.dumps(bad)
    if data.draw(st.booleans()):  # also cut the text short
        text = text[:data.draw(st.integers(0, len(text) - 1))]
    res = CliRunner().invoke(main, args, input=text)
    assert res.exit_code in (1, 2), res.output
    assert isinstance(res.exception, SystemExit)
    assert re.fullmatch(r"error: [^\n]+\n", res.output), res.output
