"""Command-line front end.

JSON in, JSON out (stdin/stdout by default).  A pose is an object
``{"type": "ypr" | "quat" | "matrix", "data": [...], "cov": [[...]]}``:

* ypr     - data [x, y, z, yaw, pitch, roll], radians (see --degrees)
* quat    - data [x, y, z, qr, qx, qy, qz], scalar first
* matrix  - data: 16 entries of the 4x4 matrix, row-major

"cov" is optional except where a command propagates uncertainty; its
dimension matches the parameterization (6, 7 or 12).

Every number must be finite; JSON's NaN and Infinity are malformed input.

Exit codes: 1 for malformed input or command line (one ``error: ...``
line on stderr), 2 for domain errors (gimbal lock, a ``logmap`` rotation
too close to pi, points behind the camera, unsolvable graphs), 3 for a
failed jacobian-check run.  A bare ``rigidkit`` prints the help on stdout
and exits 0, as ``rigidkit --help`` does.
"""

import contextlib
import json
import math
import sys

import click
import numpy as np

from . import __version__
from . import g2o as g2o_io
from .core import (_CONVERSIONS, _KIND_DIM, EulerPose, GaussianPose, HomPose,
                   HomPose2, QuatPose, convert_gaussian, matrix_to_ypr,
                   pose_kind, quat_to_matrix, ypr_to_matrix)
from .errors import GeometryError
from .geometry import (GaussianPoint3, compose_point_matrix, compose_point_quat,
                       compose_point_ypr, compose_pose_matrix, compose_pose_quat,
                       inv_compose_point_matrix, inv_compose_point_quat,
                       inverse_pose_matrix, inverse_pose_quat, propagate_binary)
from .graphslam import SolverConfig, optimize
from .lie import (se2_exp, se2_log, se2_pseudo_exp, se2_pseudo_log, se3_exp,
                  se3_log, se3_pseudo_exp, se3_pseudo_log)
from .numcheck import check_catalog
from .vision import (CameraIntrinsics, project, project_inv_pose_point,
                     project_pose_point)


class _InputError(Exception):
    """Malformed command input (exit code 1)."""


def _load_json(infile):
    try:
        return json.load(infile)
    except json.JSONDecodeError as exc:
        raise _InputError("invalid JSON: %s" % exc)


def _object(infile, what):
    """The JSON object read from infile; otherwise "input must be <what>"."""
    obj = _load_json(infile)
    if not isinstance(obj, dict):
        raise _InputError("input must be " + what)
    return obj


@contextlib.contextmanager
def _reading(where=None):
    """A GeometryError raised while an input is built, as an _InputError
    "<where>: <message>" (the bare message without where)."""
    try:
        yield
    except GeometryError as exc:
        raise _InputError("%s: %s" % (where, exc) if where else str(exc))


def _numbers(obj, count, where):
    try:
        if (isinstance(obj, list) and len(obj) == count
                and all(type(v) in (int, float) and math.isfinite(v) for v in obj)):
            return np.array(obj, dtype=float)
    except OverflowError:  # an integer beyond the float range
        pass
    raise _InputError("%s must be a list of %d finite numbers" % (where, count))


def _pose_from_json(obj, where, degrees=False):
    if not isinstance(obj, dict):
        raise _InputError("%s must be an object with 'type' and 'data'" % where)
    kind = obj.get("type")
    if kind not in ("ypr", "quat", "matrix"):
        raise _InputError("%s.type must be 'ypr', 'quat' or 'matrix'" % where)
    with _reading(where):
        if kind == "ypr":
            v = _numbers(obj.get("data"), 6, where + ".data")
            if degrees:
                v = np.concatenate([v[:3], np.deg2rad(v[3:])])
            return EulerPose.from_vec(v)
        if kind == "quat":
            return QuatPose.from_vec(_numbers(obj.get("data"), 7, where + ".data"))
        v = _numbers(obj.get("data"), 16, where + ".data")
        return HomPose(v.reshape((4, 4)))


def _cov_from_json(obj, dim, where):
    cov = obj.get("cov")
    if cov is None:
        raise _InputError("%s.cov is required here" % where)
    if not isinstance(cov, list) or len(cov) != dim:
        raise _InputError("%s.cov must be a %dx%d matrix (list of rows)"
                          % (where, dim, dim))
    rows = [_numbers(r, dim, "%s.cov row %d" % (where, k))
            for k, r in enumerate(cov)]
    return np.vstack(rows)


def _gaussian_pose_from_json(obj, where):
    mean = _pose_from_json(obj, where)
    cov = _cov_from_json(obj, _KIND_DIM[pose_kind(mean)], where)
    with _reading(where):
        return GaussianPose(mean, cov)


def _gaussian_point_from_json(obj, where):
    if not isinstance(obj, dict):
        raise _InputError("%s must be an object with 'data' and 'cov'" % where)
    mean = _numbers(obj.get("data"), 3, where + ".data")
    cov = _cov_from_json(obj, 3, where)
    with _reading(where):
        return GaussianPoint3(mean, cov)


def _pose_to_json(pose, degrees=False):
    kind = pose_kind(pose)
    if kind == "ypr":
        v = pose.vec
        if degrees:
            v = np.concatenate([v[:3], np.rad2deg(v[3:])])
        data = v
    elif kind == "quat":
        data = pose.vec
    else:
        data = pose.mat.reshape(-1)
    return {"type": kind, "data": [float(x) for x in data]}


def _cov_to_json(cov):
    return [[float(x) for x in row] for row in np.asarray(cov)]


def _echo_json(obj):
    click.echo(json.dumps(obj, indent=2))


class _Main(click.Group):
    """click's group, but every error prints one ``error: ...`` line on
    stderr and sets the exit code: 1 for malformed input, including a
    command-line error (an option value it cannot convert, a missing file,
    an unknown option), and 2 for a domain error.  With
    ``standalone_mode=False`` click's own errors reach the caller and the
    command's result is returned, as in click."""

    def main(self, *args, standalone_mode=True, **kwargs):
        try:
            code = super().main(*args, standalone_mode=False, **kwargs)
        except (_InputError, GeometryError) as exc:
            click.echo("error: %s" % exc, err=True)
            sys.exit(1 if isinstance(exc, _InputError) else 2)
        except click.ClickException as exc:
            if not standalone_mode:
                raise
            click.echo("error: %s" % " ".join(exc.format_message().split()), err=True)
            sys.exit(1)
        except click.Abort:
            if not standalone_mode:
                raise
            click.echo("Aborted!", err=True)
            sys.exit(1)
        if not standalone_mode:
            return code
        sys.exit(code if isinstance(code, int) else 0)


@click.group(cls=_Main, invoke_without_command=True)
@click.version_option(version=__version__, prog_name="rigidkit")
@click.pass_context
def main(ctx):
    """Rigid-body pose toolkit: conversions, uncertainty, maps, SLAM."""
    if ctx.invoked_subcommand is None:  # a bare `rigidkit`: the help, exit 0
        click.echo(ctx.get_help())


@main.command()
@click.option("--to", "target", type=click.Choice(["ypr", "quat", "matrix"]),
              required=True, help="Target parameterization.")
@click.option("--degrees", is_flag=True,
              help="Euler angles in 'data' are degrees (I/O boundary only; "
                   "not allowed together with covariance).")
@click.option("--in", "infile", type=click.File("r"), default="-",
              help="Input file (default: stdin).")
def convert(target, degrees, infile):
    """Convert a pose (optionally with covariance) between forms."""
    obj = _load_json(infile)
    if isinstance(obj, dict) and obj.get("cov") is not None:
        if degrees:
            raise _InputError("--degrees cannot be combined with covariance "
                              "(covariances are always in radians)")
        g = _gaussian_pose_from_json(obj, "pose")
        out = convert_gaussian(g, target)
        body = _pose_to_json(out.mean)
        body["cov"] = _cov_to_json(out.cov)
        _echo_json(body)
        return
    pose = _pose_from_json(obj, "pose", degrees=degrees)
    kind = pose_kind(pose)
    result = pose if kind == target else _CONVERSIONS[(kind, target)][0](pose)
    _echo_json(_pose_to_json(result, degrees=degrees))


@main.command()
@click.option("--in", "infile", type=click.File("r"), default="-")
def compose(infile):
    """Compose two poses of the same parameterization: p1 then p2."""
    obj = _object(infile, "an object with 'p1' and 'p2'")
    p1 = _pose_from_json(obj.get("p1"), "p1")
    p2 = _pose_from_json(obj.get("p2"), "p2")
    k1, k2 = pose_kind(p1), pose_kind(p2)
    if k1 != k2:
        raise _InputError("p1 and p2 must share a parameterization "
                          "(got %r and %r)" % (k1, k2))
    if k1 == "quat":
        out = compose_pose_quat(p1, p2)[0]
    elif k1 == "ypr":  # through matrices: no Jacobian, so no gimbal-lock error
        out = matrix_to_ypr(compose_pose_matrix(ypr_to_matrix(p1), ypr_to_matrix(p2)))
    else:
        out = compose_pose_matrix(p1, p2)
    _echo_json(_pose_to_json(out))


@main.command()
@click.option("--in", "infile", type=click.File("r"), default="-")
def invert(infile):
    """Invert a pose, keeping its parameterization."""
    obj = _object(infile, "an object with 'pose'")
    pose = _pose_from_json(obj.get("pose"), "pose")
    kind = pose_kind(pose)
    if kind == "quat":
        out = inverse_pose_quat(pose)[0]
    elif kind == "matrix":
        out = inverse_pose_matrix(pose)
    else:
        out = matrix_to_ypr(inverse_pose_matrix(ypr_to_matrix(pose)))
    _echo_json(_pose_to_json(out))


@main.command("apply-point")
@click.option("--inverse", is_flag=True,
              help="Map the point into the pose's local frame instead.")
@click.option("--in", "infile", type=click.File("r"), default="-")
def apply_point(inverse, infile):
    """Transform a point by a pose (or by its inverse)."""
    obj = _object(infile, "an object with 'pose' and 'point'")
    pose = _pose_from_json(obj.get("pose"), "pose")
    point = _numbers(obj.get("point"), 3, "point")
    inverse = inverse or bool(obj.get("inverse", False))
    kind = pose_kind(pose)
    if inverse:
        if kind == "quat":
            value = inv_compose_point_quat(point, pose)[0]
        else:
            m = pose if kind == "matrix" else ypr_to_matrix(pose)
            value = inv_compose_point_matrix(point, m)
    else:
        if kind == "quat":
            value = compose_point_quat(pose, point)[0]
        elif kind == "ypr":
            value = compose_point_ypr(pose, point)[0]
        else:
            value = compose_point_matrix(pose, point)
    _echo_json({"point": [float(v) for v in value]})


@main.command()
@click.option("--in", "infile", type=click.File("r"), default="-")
def propagate(infile):
    """First-order Gaussian propagation through a binary operation.

    Input: {"op": "compose", "p1": POSE+cov, "p2": POSE+cov} or
    {"op": "apply-point" | "inv-apply-point", "pose": POSE+cov,
    "point": {"data": [...], "cov": [[...]]}}.
    """
    obj = _object(infile, "an object with an 'op' field")
    op = obj.get("op")
    if op == "compose":
        g1 = _gaussian_pose_from_json(obj.get("p1"), "p1")
        g2 = _gaussian_pose_from_json(obj.get("p2"), "p2")
        out = propagate_binary("compose", g1, g2)
        body = _pose_to_json(out.mean)
        body["cov"] = _cov_to_json(out.cov)
        body["op"] = op
        _echo_json(body)
    elif op in ("apply-point", "inv-apply-point"):
        g1 = _gaussian_pose_from_json(obj.get("pose"), "pose")
        g2 = _gaussian_point_from_json(obj.get("point"), "point")
        out = propagate_binary(op, g1, g2)
        _echo_json({"op": op,
                    "point": {"data": [float(v) for v in out.mean],
                              "cov": _cov_to_json(out.cov)}})
    else:
        raise _InputError(
            "op must be 'compose', 'apply-point' or 'inv-apply-point'")


@main.command()
@click.option("--pseudo", is_flag=True,
              help="Store the translation part verbatim.")
@click.option("--in", "infile", type=click.File("r"), default="-")
def expmap(pseudo, infile):
    """Exponential of a tangent vector: 6 numbers for a 3D rigid motion
    (dx, dy, dz, wx, wy, wz), 3 for a planar one (dx, dy, dtheta)."""
    obj = _load_json(infile)
    if not isinstance(obj, dict) or "tangent" not in obj:
        raise _InputError("input must be an object with 'tangent'")
    tangent = obj.get("tangent")
    if isinstance(tangent, list) and len(tangent) == 3:
        v = _numbers(tangent, 3, "tangent")
        pose = se2_pseudo_exp(v) if pseudo else se2_exp(v)
        _echo_json({"type": "matrix2",
                    "data": [float(x) for x in pose.mat.reshape(-1)]})
        return
    v = _numbers(tangent, 6, "tangent")
    pose = se3_pseudo_exp(v) if pseudo else se3_exp(v)
    _echo_json(_pose_to_json(pose))


@main.command()
@click.option("--pseudo", is_flag=True,
              help="Read the translation part verbatim.")
@click.option("--in", "infile", type=click.File("r"), default="-")
def logmap(pseudo, infile):
    """Logarithm of a matrix pose: 'matrix' (4x4) gives a 6-vector,
    'matrix2' (3x3, row-major) a planar 3-vector."""
    obj = _object(infile, "a pose object")
    if obj.get("type") == "matrix2":
        v = _numbers(obj.get("data"), 9, "data")
        with _reading("pose"):
            pose = HomPose2(v.reshape((3, 3)))
        tangent = se2_pseudo_log(pose) if pseudo else se2_log(pose)
    else:
        pose = _pose_from_json(obj, "pose")
        if pose_kind(pose) != "matrix":
            raise _InputError("logmap expects type 'matrix' or 'matrix2'")
        tangent = se3_pseudo_log(pose) if pseudo else se3_log(pose)
    _echo_json({"tangent": [float(x) for x in tangent]})


@main.command("project")
@click.option("--inverse", is_flag=True,
              help="Treat the pose as world-from-camera (project through "
                   "its inverse).")
@click.option("--in", "infile", type=click.File("r"), default="-")
def project_cmd(inverse, infile):
    """Pinhole-project a 3D point, optionally through a camera pose."""
    obj = _object(infile, "an object with 'intrinsics' and 'point'")
    intr = obj.get("intrinsics")
    if not isinstance(intr, dict):
        raise _InputError("intrinsics must be an object with fx, fy, cx, cy")
    k = CameraIntrinsics(*_numbers([intr.get(f) for f in ("fx", "fy", "cx", "cy")], 4,
                                   "intrinsics fx, fy, cx, cy"))
    point = _numbers(obj.get("point"), 3, "point")
    inverse = inverse or bool(obj.get("inverse", False))
    pose_obj = obj.get("pose")
    if pose_obj is None:
        if inverse:
            raise _InputError("--inverse requires a 'pose'")
        pixel = project(k, point)
    else:
        pose = _pose_from_json(pose_obj, "pose")
        kind = pose_kind(pose)
        if kind != "matrix":
            pose = ypr_to_matrix(pose) if kind == "ypr" else quat_to_matrix(pose)
        fn = project_inv_pose_point if inverse else project_pose_point
        pixel = fn(k, pose, point)[0]
    _echo_json({"pixel": [float(v) for v in pixel]})


@main.command("jacobian-check")
@click.option("--seed", default=1, show_default=True)
@click.option("--samples", default=100, show_default=True,
              help="Random configurations per operation.")
@click.option("--tol", default=1e-5, show_default=True,
              help="Max allowed |analytic - numeric| entry.")
@click.option("--json", "as_json", is_flag=True, help="Emit a JSON report.")
def jacobian_check(seed, samples, tol, as_json):
    """Verify every analytic Jacobian against finite differences.

    Exits 0 when all operations pass, 3 otherwise.
    """
    if seed < 0:
        raise _InputError("--seed must be an integer >= 0")
    if samples < 1:
        raise _InputError("--samples must be an integer >= 1")
    if not 0.0 <= tol < math.inf:
        raise _InputError("--tol must be a finite number >= 0")
    reports = check_catalog(seed, samples, tol)
    failed = [r for r in reports if not r.passed]
    if as_json:
        _echo_json([r.to_json_dict() for r in reports])
    else:
        for r in reports:
            click.echo("%s  %-40s max|err| = %.3e  at (%d, %d)"
                       % ("PASS" if r.passed else "FAIL", r.op,
                          r.max_abs_error, r.worst_row, r.worst_col))
        click.echo("%d/%d operations passed" % (len(reports) - len(failed),
                                                len(reports)))
    if failed:
        sys.exit(3)


@main.command()
@click.argument("input_path", type=click.Path(exists=True, dir_okay=False))
@click.argument("output_path", type=click.Path(dir_okay=False))
@click.option("--method",
              type=click.Choice(["gauss-newton", "levenberg-marquardt"]),
              default="levenberg-marquardt", show_default=True)
@click.option("--max-iters", default=50, show_default=True)
@click.option("--stats", "stats_path", type=click.Path(dir_okay=False),
              default=None, help="Write per-iteration chi2 history as CSV.")
def slam(input_path, output_path, method, max_iters, stats_path):
    """Optimize a g2o pose graph and write the result as g2o.

    With --max-iters 0 the graph is parsed and written back unmodified
    (useful as a format round trip).  Inputs without a FIX record get
    their lowest vertex id fixed automatically.
    """
    if max_iters < 0:
        raise _InputError("--max-iters must be >= 0")
    with _reading():
        graph = g2o_io.read_g2o(input_path)
    cfg = SolverConfig(method=method, max_iterations=max_iters)
    final, stats = optimize(graph, cfg)
    g2o_io.write_g2o(final, output_path)
    if stats_path is not None:
        with open(stats_path, "w", encoding="ascii") as fh:
            fh.write("iter,chi2,update_norm,lambda\n")
            for s in stats:
                fh.write("%d,%.17g,%.17g,%.17g\n"
                         % (s.iteration, s.chi2, s.update_norm, s.lambda_))
    click.echo("chi2 %.8g -> %.8g in %d accepted steps"
               % (stats[0].chi2, stats[-1].chi2, len(stats) - 1))


if __name__ == "__main__":
    main()
