"""Every raw-array entry rejects malformed arguments with a GeometryError.

A signature-driven sweep: each in-scope public function gets a table of
one good value per parameter and the shapes its array parameters allow,
in the notation of the private validator (None is any size, a leading
... any stack).  One array argument at a time is replaced by a drawn
value: a wrong shape, a wrong-size stack, NaN or inf anywhere in an
allowed shape, a string, None, a ragged list, a complex array.  The call
must give a GeometryError subclass that names the argument, or, for an
allowed shape with finite entries, a GeometryError or a finite result;
never a numpy warning.
"""
import inspect
import math
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

R = so3_exp([0.3, -0.2, 0.5])
M4 = HomPose.from_rt(R, [1.0, -2.0, 0.5]).mat
M3 = HomPose2.from_xyt(0.5, -1.0, 0.3).mat
K = CameraIntrinsics(500.0, 400.0, 320.0, 240.0)
YPR = EulerPose(0.1, 0.2, 0.3, 0.4, 0.5, 0.6)
QUAT = core.ypr_to_quat(YPR)

POSE = [(4, 4), (3, 4)]
P3 = ([(3,)], [0.2, -0.1, 2.0])

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
    CameraIntrinsics: {"fx": 500.0, "fy": 400.0, "cx": 320.0, "cy": 240.0},
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
}

# __all__ functions of the raw-array modules that take no array: their
# arguments are pose, quaternion, axis-angle or Gaussian objects, scalars,
# or nothing
NO_ARRAY = {
    "EdgeErrorSE2", "EdgeErrorSE3", "JacobianReport", "axis_angle_factorization",
    "check_catalog", "compose_pose_matrix", "compose_pose_quat", "compose_pose_ypr",
    "dexp_se3_at_zero", "dexp_so3_at_zero", "inverse_pose_matrix", "inverse_pose_quat",
    "propagate_binary", "rot_z", "so3_exp_coordinate", "so3_log_quat",
    "transpose_permutation",
}

# the CameraIntrinsics fields are checked as one 4-vector
_FIELDS = {"fx", "fy", "cx", "cy"}

CASES = [(fn, name) for fn, spec in SPECS.items() for name, value in spec.items()
         if (isinstance(value, tuple) and isinstance(value[0], list))
         or (fn is CameraIntrinsics and name in _FIELDS)]


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
            if obj.__module__ == core.__name__ and name not in swept:
                continue  # the pose-typed conversions and their Jacobians
            assert name in swept or name in NO_ARRAY, name


@pytest.mark.parametrize("fn, name", CASES, ids=["%s-%s" % (f.__qualname__, n) for f, n in CASES])
@settings(max_examples=30)
@given(data=st.data())
def test_malformed_argument_raises_geometry_error(fn, name, data):
    spec = SPECS[fn]
    kwargs = {k: v[1] if isinstance(v, tuple) and isinstance(v[0], list) else v
              for k, v in spec.items()}
    if fn is CameraIntrinsics:
        shapes = [()]
    else:
        shapes = spec[name][0]
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


@pytest.mark.parametrize("call, message", [
    (lambda: lie.se3_pseudo_log(np.eye(3)), "se3_pseudo_log: m must be a finite"),
    (lambda: lie.se2_pseudo_log(np.eye(4)), "se2_pseudo_log: m must be a finite"),
    (lambda: matderiv.inverse_rt(np.eye(5)), "inverse_rt: m must be a finite"),
    (lambda: lie.so3_log(np.full((3, 3), np.nan)), "so3_log: r must be a finite"),
    (lambda: matderiv.d_apply_wrt_pose(np.ones(4)), "d_apply_wrt_pose: p must be a finite"),
])
def test_former_silent_results_now_raise(call, message):
    with pytest.raises(GeometryError, match="^" + message):
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
