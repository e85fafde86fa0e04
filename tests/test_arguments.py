"""Every public entry rejects malformed arguments with a GeometryError.

A signature-driven sweep: each in-scope public function gets a table of
one good value per parameter and the shapes its array and scalar
parameters allow, in the notation of the private validator (None is any
size, a leading ... any stack, () a scalar).  One such argument at a
time is replaced by a drawn value: a wrong shape, a wrong-size stack,
NaN or inf anywhere in an allowed shape, a string, None, a ragged list,
a complex array.  The call must give a GeometryError subclass that names
the argument, or, for an allowed shape with finite entries, a
GeometryError or a finite result; never a numpy warning.  A parameter
that takes a pose, quaternion, axis-angle, Gaussian or intrinsics
object must reject a raw array or another object with "<function>:
<parameter> must be a <Type>".
"""
import inspect
import io
import math
import re
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

import rigidkit
from rigidkit import (AxisAngle, CameraIntrinsics, EulerPose, GaussianPoint3, GaussianPose,
                      GeometryError, HomPose, HomPose2, QuatPose, so3_exp)
from rigidkit import core, geometry, lie, manifold_jac, matderiv, numcheck, vision
from rigidkit.g2o import format_g2o, read_g2o, write_g2o
from rigidkit.graphslam import (SolverConfig, build_normal_equations, chi2, optimize, step,
                                synth_graph)

R = so3_exp([0.3, -0.2, 0.5])
M4 = HomPose.from_rt(R, [1.0, -2.0, 0.5]).mat
M3 = HomPose2.from_xyt(0.5, -1.0, 0.3).mat
K = CameraIntrinsics(500.0, 400.0, 320.0, 240.0)
YPR = EulerPose(0.1, 0.2, 0.3, 0.4, 0.5, 0.6)
QUAT = core.ypr_to_quat(YPR)

POSE = [(4, 4), (3, 4)]
P3 = ([(3,)], [0.2, -0.1, 2.0])
AXIS_ANGLE = AxisAngle([0.0, 0.6, 0.8], 0.5)
GRAPH = synth_graph("circle2d", 4, (0.1, 0.1), 1)[1]

# parameter -> (allowed shapes, good value) for array parameters, or the
# good value alone for the others (poses, intrinsics, callables, flags)
SPECS = {
    matderiv.vec: {"a": ([(None, None)], M4)},
    matderiv.unvec: {"v": ([(12,)], np.arange(12.0)), "shape": (3, 4)},
    matderiv.kron: {"a": ([(None, None)], R), "b": ([(None, None)], M3)},
    matderiv.hat3: {"w": ([(..., 3)], [1.0, 2.0, 3.0])},
    matderiv.vee3: {"s": ([(3, 3)], matderiv.hat3([1.0, 2.0, 3.0]))},
    matderiv.pose_to_vec12: {"m": (POSE, M4)},
    matderiv.vec12_to_pose: {"v": ([(12,)], np.arange(12.0))},
    matderiv.d_compose_wrt_A: {"tb": (POSE, M4)},
    matderiv.d_compose_wrt_B: {"ta": (POSE, M4)},
    matderiv.d_apply_wrt_point: {"ta": (POSE, M4)},
    matderiv.d_apply_wrt_pose: {"p": P3},
    matderiv.apply_vec12: {"v": ([(12,)], np.arange(12.0)), "p": P3},
    matderiv.inverse_rt: {"m": ([(..., 4, 4), (..., 3, 4), (..., 3, 3)], M4)},
    matderiv.d_inverse_wrt_pose: {"ta": (POSE, M4)},
    matderiv.d_invapply_wrt_point: {"ta": (POSE, M4)},
    matderiv.d_invapply_wrt_pose: {"ta": (POSE, M4), "p": P3},
    AxisAngle: {"axis": ([(3,)], [0.0, 0.6, 0.8]), "angle": ([()], 0.5)},
    lie.so3_exp: {"w": ([(3,)], [0.3, -0.2, 0.5])},
    lie.so3_exp_quat: {"w": ([(3,)], [0.3, -0.2, 0.5])},
    lie.so3_log: {"r": ([(..., 3, 3)], R)},
    lie.se3_exp: {"v": ([(6,)], np.arange(6.0) / 10)},
    lie.se3_log: {"m": (POSE, M4)},
    lie.se3_pseudo_exp: {"v": ([(6,)], np.arange(6.0) / 10)},
    lie.se3_pseudo_log: {"m": ([(..., 4, 4), (..., 3, 4)], M4)},
    lie.se2_exp: {"v": ([(3,)], [0.1, 0.2, 0.3])},
    lie.se2_log: {"m": ([(3, 3)], M3)},
    lie.se2_pseudo_exp: {"v": ([(3,)], [0.1, 0.2, 0.3])},
    lie.se2_pseudo_log: {"m": ([(..., 3, 3)], M3)},
    manifold_jac.dexp_so3_quat: {"w": ([(3,)], [0.3, -0.2, 0.5])},
    manifold_jac.dlog_so3: {"r": ([(3, 3)], R)},
    manifold_jac.dpseudolog_se3: {"t": (POSE, M4)},
    manifold_jac.jacob_expeD_de: {"d": (POSE, M4)},
    manifold_jac.jacob_Dexpe_de: {"d": (POSE, M4)},
    manifold_jac.jacob_expeDp_de: {"d": (POSE, M4), "p": P3},
    manifold_jac.jacob_p_ominus_expeD_de: {"d": (POSE, M4), "p": P3},
    manifold_jac.jacob_AexpeD_de: {"a": (POSE, M4), "d": (POSE, M4)},
    manifold_jac.jacob_AexpeDp_de: {"a": (POSE, M4), "d": (POSE, M4), "p": P3,
                                    "approx": False},
    manifold_jac.jacob_p_ominus_AexpeD_de: {"a": ([(4, 4)], M4), "d": ([(4, 4)], M4),
                                            "p": P3},
    manifold_jac.edge_error_se3: {"d": ([(4, 4)], M4), "p1": ([(4, 4)], M4),
                                  "p2": ([(4, 4)], M4)},
    manifold_jac.jacob_Dexpe_de_se2: {"d": ([(3, 3)], M3)},
    manifold_jac.d_compose_se2_wrt_A: {"a": ([(3, 3)], M3), "b": ([(3, 3)], M3)},
    manifold_jac.d_compose_se2_wrt_B: {"a": ([(3, 3)], M3)},
    manifold_jac.edge_error_se2: {"d": ([(3, 3)], M3), "p1": ([(3, 3)], M3),
                                  "p2": ([(3, 3)], M3)},
    GaussianPoint3: {"mean": P3, "cov": ([(3, 3)], np.eye(3))},
    geometry.compose_point_quat: {"p": QUAT, "a": P3},
    geometry.compose_point_ypr: {"p": YPR, "a": P3},
    geometry.compose_point_ypr_small_rot_jacobian: {"a": P3},
    geometry.compose_point_matrix: {"m": HomPose(M4), "a": P3},
    geometry.inv_compose_point_quat: {"a": P3, "p": QUAT},
    geometry.inv_compose_point_matrix: {"a": P3, "m": HomPose(M4)},
    CameraIntrinsics: {"fx": ([()], 500.0), "fy": ([()], 400.0), "cx": ([()], 320.0),
                       "cy": ([()], 240.0)},
    vision.project: {"k": K, "p": P3},
    vision.dproject_dp: {"k": K, "p": P3},
    vision.project_pose_point: {"k": K, "a": ([(4, 4)], M4), "p": P3},
    vision.project_inv_pose_point: {"k": K, "a": ([(4, 4)], M4), "p": P3},
    numcheck.numeric_jacobian: {"f": np.sin, "x0": ([(None,)], [0.1, 0.2]), "h": 1e-6},
    numcheck.manifold_numeric_jacobian: {"f": np.ravel, "base": ([(4, 4), (3, 3)], M4),
                                         "side": "left", "h": 1e-6},
    HomPose: {"mat": ([(4, 4)], M4)},
    HomPose2: {"mat": ([(3, 3)], M3)},
    HomPose.from_rt: {"r": ([(3, 3)], R), "t": P3},
    HomPose.from_vec12: {"v": ([(12,)], HomPose(M4).vec12)},
    EulerPose.from_vec: {"v": ([(6,)], YPR.vec)},
    QuatPose.from_vec: {"v": ([(7,)], QUAT.vec)},
    GaussianPose: {"mean": YPR, "cov": ([(6, 6)], np.eye(6))},
    core.jacobian_ypr_wrt_matrix: {"m": (POSE, M4)},
    core.wrap_angle: {"a": ([()], 0.5)},
    lie.rot_z: {"theta": ([()], 0.3)},
    matderiv.transpose_permutation: {"m": ([()], 2), "n": ([()], 3)},
    core.Quaternion: {"qr": ([()], 0.5), "qx": ([()], -0.5), "qy": ([()], 0.5),
                      "qz": ([()], 0.5)},
    EulerPose: {"x": ([()], 0.1), "y": ([()], 0.2), "z": ([()], 0.3), "yaw": ([()], 0.4),
                "pitch": ([()], 0.5), "roll": ([()], 0.6)},
    QuatPose: {"x": ([()], 0.1), "y": ([()], 0.2), "z": ([()], 0.3), "q": QUAT.q},
    HomPose2.from_xyt: {"x": ([()], 0.5), "y": ([()], -1.0), "theta": ([()], 0.3)},
    core.quat_normalize: {"q": QUAT.q},
    core.ypr_to_quat: {"p": YPR},
    core.jacobian_ypr_to_quat: {"p": YPR},
    core.quat_to_ypr: {"p": QUAT},
    core.jacobian_quat_to_ypr: {"p": QUAT},
    core.ypr_to_matrix: {"p": YPR},
    core.quat_to_matrix: {"p": QUAT},
    core.matrix_to_ypr: {"m": HomPose(M4)},
    core.matrix_to_quat: {"m": HomPose(M4)},
    core.jacobian_matrix_wrt_ypr: {"p": YPR},
    core.jacobian_matrix_wrt_quat: {"p": QUAT},
    core.convert_gaussian: {"src": GaussianPose(YPR, np.eye(6)), "target": "quat"},
    core.pose_kind: {"p": YPR},
    core.pose_param_vector: {"p": YPR},
    geometry.compose_pose_quat: {"p1": QUAT, "p2": QUAT},
    geometry.compose_pose_ypr: {"p1": YPR, "p2": YPR},
    geometry.compose_pose_matrix: {"m1": HomPose(M4), "m2": HomPose(M4)},
    geometry.inverse_pose_quat: {"p": QUAT},
    geometry.inverse_pose_matrix: {"m": HomPose(M4)},
    lie.axis_angle_factorization: {"a": AXIS_ANGLE},
    lie.so3_exp_coordinate: {"a": AXIS_ANGLE},
    lie.so3_log_quat: {"q": QUAT.q},
}

# __all__ callables of the swept modules that are not in the table: result
# types, no arguments, or arguments under rules of their own
NOT_SWEPT = {
    "EdgeErrorSE2", "EdgeErrorSE3", "JacobianReport", "check_catalog",
    "dexp_se3_at_zero", "dexp_so3_at_zero", "propagate_binary",
}

CASES = [(fn, name) for fn, spec in SPECS.items() for name, value in spec.items()
         if isinstance(value, tuple) and isinstance(value[0], list)]

# the parameters that take an object of one of these types
TYPES = (AxisAngle, CameraIntrinsics, EulerPose, GaussianPose, HomPose, QuatPose, core.Quaternion)
TYPED = [(fn, name) for fn, spec in SPECS.items() for name, value in spec.items()
         if isinstance(value, TYPES)]


def _allowed(shapes, shape):
    for want in shapes:
        if want[:1] == (...,):
            want = want[1:]
            shape_tail = shape[len(shape) - len(want):] if len(shape) >= len(want) else None
        else:
            shape_tail = shape
        if shape_tail is not None and len(shape_tail) == len(want) and all(
                w is None or w == n for n, w in zip(shape_tail, want)):
            return True
    return False


def _concrete(draw, want):
    """A shape matching want: stack axes and free sizes drawn."""
    lead = ()
    if want[:1] == (...,):
        lead = tuple(draw(st.lists(st.integers(0, 3), max_size=2)))
        want = want[1:]
    return lead + tuple(draw(st.integers(1, 4)) if w is None else w for w in want)


FINITE = st.floats(-3.0, 3.0)
BAD = st.sampled_from([math.nan, math.inf, -math.inf])


@st.composite
def _values(draw, shapes):
    kind = draw(st.integers(0, 4))
    if kind == 0:  # any shape, any entries
        shape = draw(hnp.array_shapes(min_dims=0, max_dims=4, min_side=0, max_side=5))
        return draw(hnp.arrays(float, shape, elements=FINITE | BAD))
    if kind == 1:  # an allowed shape with one size off by one
        shape = list(_concrete(draw, draw(st.sampled_from(shapes)))) or [0]
        i = draw(st.integers(0, len(shape) - 1))
        shape[i] = max(0, shape[i] + draw(st.sampled_from([-1, 1])))
        return draw(hnp.arrays(float, tuple(shape), elements=FINITE))
    if kind == 2:  # an allowed shape, NaN or inf anywhere
        a = draw(hnp.arrays(float, _concrete(draw, draw(st.sampled_from(shapes))),
                            elements=FINITE))
        if a.size:
            a.flat[draw(st.integers(0, a.size - 1))] = draw(BAD)
        return a
    if kind == 3:  # an allowed shape, finite entries
        return draw(hnp.arrays(float, _concrete(draw, draw(st.sampled_from(shapes))),
                               elements=FINITE))
    return draw(st.sampled_from(["abc", "1.0", None, b"12", [1.0, "a", 3.0], [[1.0, 2.0], [3.0]],
                                 np.ones(3) * 1j, object(), {"a": 1}]))


def _good(fn):
    """The good value of each parameter of fn."""
    return {k: v[1] if isinstance(v, tuple) and isinstance(v[0], list) else v
            for k, v in SPECS[fn].items()}


def _finite(out):
    if isinstance(out, (tuple, list)):
        return all(_finite(o) for o in out)
    if hasattr(out, "__dataclass_fields__"):
        return all(_finite(getattr(out, f)) for f in out.__dataclass_fields__)
    if isinstance(out, (np.ndarray, float, int)):
        return bool(np.isfinite(out).all())
    return True


def test_specs_follow_the_signatures():
    for fn, spec in SPECS.items():
        assert list(inspect.signature(fn).parameters) == list(spec), fn.__qualname__


def test_every_raw_array_function_is_swept():
    modules = (core, lie, manifold_jac, matderiv, geometry, vision, numcheck)
    swept = {fn.__name__ for fn in SPECS}
    for name in rigidkit.__all__:
        obj = getattr(rigidkit, name)
        if callable(obj) and getattr(obj, "__module__", None) in {m.__name__ for m in modules}:
            assert name in swept or name in NOT_SWEPT, name


@pytest.mark.parametrize("fn, name", CASES, ids=["%s-%s" % (f.__qualname__, n) for f, n in CASES])
@settings(max_examples=30)
@given(data=st.data())
def test_malformed_argument_raises_geometry_error(fn, name, data):
    _sweep(fn, name, data)


# jacob_AexpeDp_de's approx=True branch once returned a value for any a
@pytest.mark.parametrize("name", ["a", "d", "p"])
@settings(max_examples=30)
@given(data=st.data())
def test_approx_branch_checks_every_array_argument(name, data):
    _sweep(manifold_jac.jacob_AexpeDp_de, name, data, approx=True)


def _sweep(fn, name, data, **fixed):
    """One drawn value of parameter name in a call of fn with good values
    elsewhere (and the keyword arguments fixed): a GeometryError that
    names the parameter, or a finite result for a well-formed value."""
    kwargs = dict(_good(fn), **fixed)
    shapes = SPECS[fn][name][0]
    value = data.draw(_values(shapes), label=name)
    kwargs[name] = value
    arr = None
    try:
        arr = np.asarray(value)
    except ValueError:
        pass
    ok = (arr is not None and arr.dtype.kind in "biuf" and _allowed(shapes, arr.shape)
          and bool(np.isfinite(arr).all()))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        try:
            out = fn(**kwargs)
        except GeometryError as exc:
            if not ok:
                msg = str(exc)
                assert msg.startswith(fn.__qualname__ + ": ") and " must be a finite " in msg, msg
                assert name in msg.split(" must be a finite ")[0], msg
            return
    assert ok, "%s accepted %s=%r" % (fn.__qualname__, name, value)
    assert _finite(out)


# matrices of an allowed shape that are not rigid: the logarithms gave
# zeros or other meaningless numbers for them
SCALED3, SCALED4 = np.diag([2.0, 2.0, 1.0]), np.diag([2.0, 2.0, 2.0, 1.0])
# entries whose products overflow: a numpy warning came before the error
HUGE3, HUGE4 = np.diag([1e200, 1.0, 1.0]), np.diag([1e200, 1.0, 1.0, 1.0])
BOTTOM_5551 = np.vstack([np.eye(4)[:3], [5.0, 5.0, 5.0, 1.0]])
ORTHO = "rotation block is not orthonormal"


@pytest.mark.parametrize("call, message", [
    (lambda: lie.se3_pseudo_log(np.eye(3)), "se3_pseudo_log: m must be a finite"),
    (lambda: lie.se2_pseudo_log(np.eye(4)), "se2_pseudo_log: m must be a finite"),
    (lambda: matderiv.inverse_rt(np.eye(5)), "inverse_rt: m must be a finite"),
    (lambda: lie.so3_log(np.full((3, 3), np.nan)), "so3_log: r must be a finite"),
    (lambda: matderiv.d_apply_wrt_pose(np.ones(4)), "d_apply_wrt_pose: p must be a finite"),
    (lambda: lie.so3_log(2.0 * np.eye(3)), "so3_log: r: " + ORTHO),
    (lambda: lie.so3_log(np.diag([1.0, 1.0, -1.0])),
     "so3_log: r: rotation block must have determinant +1"),
    (lambda: lie.so3_log(np.stack([R, 2.0 * R]).reshape(2, 1, 3, 3)), "so3_log: r[1, 0]: " + ORTHO),
    (lambda: lie.se3_log(SCALED4), "se3_log: m: " + ORTHO),
    (lambda: lie.se3_log(BOTTOM_5551), "se3_log: m: bottom row must be (0, 0, 0, 1)"),
    (lambda: lie.se3_log(SCALED4[:3]), "se3_log: m: " + ORTHO),
    (lambda: lie.se2_log(SCALED3), "se2_log: m: " + ORTHO),
    (lambda: lie.se3_pseudo_log(SCALED4), "se3_pseudo_log: m: " + ORTHO),
    (lambda: lie.se3_pseudo_log(BOTTOM_5551), "se3_pseudo_log: m: bottom row must be (0, 0, 0, 1)"),
    (lambda: lie.se3_pseudo_log(np.stack([M4, BOTTOM_5551])),
     "se3_pseudo_log: m[1]: bottom row must be (0, 0, 0, 1)"),
    (lambda: lie.se2_pseudo_log(SCALED3), "se2_pseudo_log: m: " + ORTHO),
    (lambda: lie.se2_pseudo_log(np.stack([M3, M3 @ np.diag([1.0, -1.0, 1.0])])),
     "se2_pseudo_log: m[1]: rotation block must have determinant +1"),
    (lambda: HomPose(HUGE4), "HomPose: " + ORTHO),
    (lambda: HomPose2(HUGE3), "HomPose2: " + ORTHO),
    (lambda: AxisAngle([1e200, 0.0, 0.0], 1.0), "AxisAngle: axis must be unit length"),
    (lambda: matderiv.vee3(np.full((3, 3), 1e308)), "vee3: matrix is not skew-symmetric"),
    (lambda: QuatPose(0, 0, 0, core.Quaternion(1e200, 0, 0, 0)),
     "QuatPose: quaternion is not unit length"),
])
def test_former_silent_results_now_raise(call, message):
    with pytest.raises(GeometryError, match="^" + re.escape(message)):
        call()


def test_stack_forms_still_accepted():
    rng = np.random.default_rng(5)
    stack = np.array([HomPose.from_rt(so3_exp(w), t).mat
                      for w, t in zip(rng.normal(size=(4, 3)), rng.normal(size=(4, 3)))])
    assert lie.se3_pseudo_log(stack).shape == (4, 6)
    assert lie.se3_pseudo_log(stack[:, :3]).shape == (4, 6)
    assert lie.so3_log(stack[:, :3, :3].reshape(2, 2, 3, 3)).shape == (2, 2, 3)
    assert matderiv.inverse_rt(stack).shape == (4, 4, 4)
    assert matderiv.hat3(np.zeros((0, 3))).shape == (0, 3, 3)
    # a pose object counts as its matrix
    assert np.array_equal(matderiv.pose_to_vec12(HomPose(M4)), matderiv.pose_to_vec12(M4))


@pytest.mark.parametrize("fn, name", TYPED, ids=["%s-%s" % (f.__qualname__, n) for f, n in TYPED])
@pytest.mark.parametrize("value", [M4, np.ones(7), HomPose2(M3), None, "abc"],
                         ids=["4x4", "7-vector", "HomPose2", "None", "str"])
def test_wrong_object_raises_geometry_error(fn, name, value):
    kwargs = _good(fn)
    kwargs[name] = value
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(GeometryError, match="^%s: %s must be an? [A-Z]"
                           % (re.escape(fn.__qualname__), name)):
            fn(**kwargs)


@pytest.mark.parametrize("call, message", [
    (lambda: EulerPose("a", 0, 0, 0, 0, 0),
     "EulerPose: x, y, z, yaw, pitch, roll must be a finite"),
    (lambda: EulerPose(np.ones(2), 0, 0, 0, 0, 0), "EulerPose: x, "),
    (lambda: HomPose2.from_xyt("a", 0, 0), "HomPose2.from_xyt: x, y, theta must be a finite"),
    (lambda: core.Quaternion(None, 0, 0, 1), "Quaternion: qr, qx, qy, qz must be a finite"),
    (lambda: QuatPose(0, 0, 0, None), "QuatPose: q must be a Quaternion"),
    (lambda: core.wrap_angle("x"), "wrap_angle: a must be a finite"),
    (lambda: core.wrap_angle(math.nan), "wrap_angle: a must be a finite"),
    (lambda: lie.rot_z("x"), "rot_z: theta must be a finite"),
    (lambda: lie.rot_z(math.nan), "rot_z: theta must be a finite"),
    (lambda: matderiv.transpose_permutation(-1, 3), "transpose_permutation: m must be a non-neg"),
    (lambda: core.ypr_to_quat(np.eye(4)), "ypr_to_quat: p must be an EulerPose"),
    (lambda: core.quat_to_matrix(np.ones(7)), "quat_to_matrix: p must be a QuatPose"),
    (lambda: core.matrix_to_ypr(np.eye(4)), "matrix_to_ypr: m must be a HomPose"),
    (lambda: geometry.compose_pose_matrix(np.eye(4), np.eye(4)),
     "compose_pose_matrix: m1 must be a HomPose"),
    (lambda: lie.so3_log_quat(np.ones(4)), "so3_log_quat: q must be a Quaternion"),
    (lambda: core.quat_normalize(np.ones(4)), "quat_normalize: q must be a Quaternion"),
    (lambda: numcheck.numeric_jacobian(np.sin, np.ones(2), h=0),
     "numeric_jacobian: h must be a finite number > 0"),
    (lambda: numcheck.numeric_jacobian(np.sin, np.ones(2), h=math.nan),
     "numeric_jacobian: h must be a finite number > 0"),
    (lambda: numcheck.numeric_jacobian(np.sin, np.ones(2), h="x"),
     "numeric_jacobian: h must be a finite number > 0"),
    (lambda: numcheck.manifold_numeric_jacobian(np.ravel, M4, h=0),
     "manifold_numeric_jacobian: h must be a finite number > 0"),
    (lambda: numcheck.manifold_numeric_jacobian(np.ravel, M4, h=math.nan),
     "manifold_numeric_jacobian: h must be a finite number > 0"),
    (lambda: numcheck.manifold_numeric_jacobian(np.ravel, M4, h="x"),
     "manifold_numeric_jacobian: h must be a finite number > 0"),
    (lambda: numcheck.manifold_numeric_jacobian(np.ravel, M4, side="up"),
     "manifold_numeric_jacobian: side must be 'left' or 'right'"),
    (lambda: numcheck.numeric_jacobian(3, [1.0, 2.0]), "numeric_jacobian: f must be callable"),
    (lambda: numcheck.manifold_numeric_jacobian(None, np.eye(4)),
     "manifold_numeric_jacobian: f must be callable"),
    (lambda: geometry.propagate_binary(np.array([1.0, 2.0]), GaussianPose(YPR, np.eye(6)),
                                       GaussianPose(YPR, np.eye(6))),
     "propagate_binary: unknown operation array([1., 2.])"),
    (lambda: numcheck.check_catalog(seed=-1, n=1),
     "check_catalog: seed must be an integer >= 0"),
    (lambda: numcheck.check_catalog(seed=1.5, n=1),
     "check_catalog: seed must be an integer >= 0"),
    (lambda: numcheck.check_catalog(seed="x", n=1),
     "check_catalog: seed must be an integer >= 0"),
    (lambda: numcheck.check_catalog(seed=None, n=1),
     "check_catalog: seed must be an integer >= 0"),
    (lambda: numcheck.check_catalog(seed=True, n=1),
     "check_catalog: seed must be an integer >= 0"),
    (lambda: matderiv.unvec(np.arange(12.0), "ab"), "unvec: shape must be an integer >= 0"),
    (lambda: matderiv.unvec(np.arange(12.0), None), "unvec: shape must be an integer >= 0"),
    (lambda: manifold_jac.jacob_AexpeDp_de(None, M4, P3[1], approx=True),
     "jacob_AexpeDp_de: a must be a finite 4x4 or 3x4"),
    (lambda: manifold_jac.jacob_AexpeDp_de(np.full((4, 4), np.nan), M4, P3[1], approx=True),
     "jacob_AexpeDp_de: a must be a finite 4x4 or 3x4"),
    (lambda: manifold_jac.jacob_AexpeDp_de(M4, M4, P3[1], approx="yes"),
     "jacob_AexpeDp_de: approx must be a bool"),
    (lambda: manifold_jac.jacob_AexpeDp_de(M4, M4, P3[1], approx=1),
     "jacob_AexpeDp_de: approx must be a bool"),
    (lambda: chi2(None), "chi2: g must be a PoseGraph"),
    (lambda: build_normal_equations("g"), "build_normal_equations: g must be a PoseGraph"),
    (lambda: step(None, SolverConfig()), "step: g must be a PoseGraph"),
    (lambda: step(GRAPH, None), "step: cfg must be a SolverConfig"),
    (lambda: optimize(None, SolverConfig()), "optimize: g must be a PoseGraph"),
    (lambda: optimize(GRAPH, {}), "optimize: cfg must be a SolverConfig"),
    (lambda: format_g2o(M3), "format_g2o: g must be a PoseGraph"),
    (lambda: write_g2o(None, io.StringIO()), "write_g2o: g must be a PoseGraph"),
    (lambda: read_g2o(None), "read_g2o: source must be a str or PathLike"),
    (lambda: write_g2o(GRAPH, None), "write_g2o: dest must be a str or PathLike"),
])
def test_former_python_errors_now_raise(call, message):
    with pytest.raises(GeometryError, match="^" + re.escape(message)):
        call()
