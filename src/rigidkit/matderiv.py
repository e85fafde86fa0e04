"""Matrix-calculus helpers for derivatives over 3x4 pose blocks.

A rigid transformation

    M = [ R  t ]
        [ 0  1 ]

is flattened to a 12-vector by stacking the columns of the top 3x4 block
(the three columns of R first, then t).  All derivative matrices in this
module are expressed with respect to that column-major 12-vector view,
treating the 12 entries as free parameters: the perturbed matrix does not
need to remain a rigid transformation.  This extrinsic convention is what
makes the chain rules with the on-manifold Jacobians come out as plain
matrix products.

Functions take plain ndarrays or pose objects; a pose argument is a 4x4,
whose bottom row is ignored, or its top 3x4 block.  :func:`hat3` and
:func:`inverse_rt` also take stacks, (..., 3) and (..., n, n), and give
each row or matrix the bits of its own call.  Every public function checks
its array arguments with :func:`_checked`: numeric, of an allowed shape,
and finite, but never orthonormal, since the finite-difference catalog
perturbs raw entries off the manifold.

Arguments are checked once, where they enter the library: a public
function validates its own, and a library function that needs another
one's result calls that function's unchecked private body (``_hat3``,
``_inverse_rt``, ``_kron``, ...) on the arrays it has already checked.
The Kronecker forms in the docstrings are the definitions; the code
builds them as broadcast products and block writes, and the chain rules
of :mod:`rigidkit.manifold_jac` multiply their 3x3 blocks instead of the
12x12 matrices.
"""

import math
import numbers

import numpy as np

from .errors import GeometryError

# the shapes of a pose argument: a 4x4 or its top 3x4 block
_POSE = ((4, 4), (3, 4))


def _const(a):
    """a as a float ndarray made read-only, for a constant that calls share."""
    a = np.array(a, dtype=float)
    a.setflags(write=False)
    return a


_EYE3, _EYE4 = _const(np.eye(3)), _const(np.eye(4))


def _fits(shape, want):
    """Whether shape matches want: None is any size, a leading ... any stack."""
    if want[:1] == (...,):
        want = want[1:]
        shape = shape[-len(want):]
    return shape == want or (None in want and len(shape) == len(want)
                             and all(w is None or w == n for n, w in zip(shape, want)))


def _shape_text(want):
    if want[:1] == (...,):
        return "%s or stack (..., %s)" % (_shape_text(want[1:]), ", ".join(map(str, want[1:])))
    if None in want:
        return "%d-D array" % len(want)
    if len(want) == 1:
        return "%d-vector" % want
    return "x".join(map(str, want)) or "scalar"


def _checked(x, name, *shapes):
    """x, or the matrix of a pose object x, as a float ndarray.

    shapes are the allowed shapes: tuples of sizes, where None is any size
    and a leading ... allows any stack of the trailing shape, none
    included.  Only type, shape and finiteness are tested.

    Raises
    ------
    GeometryError
        "<name> must be a finite <shape>" if x is not numeric, has none of
        the shapes, or has a NaN or infinite entry.
    """
    try:
        a = np.asarray(getattr(x, "mat", x))
    except ValueError:  # a ragged nesting
        a = np.asarray(None)
    if (a.dtype.kind not in "biuf"
            or not (a.shape in shapes or any(_fits(a.shape, s) for s in shapes))
            or np.count_nonzero(np.isfinite(a)) != a.size):
        raise GeometryError("%s must be a finite %s"
                            % (name, " or ".join(map(_shape_text, shapes))))
    return a.astype(float, copy=False)


def _typed(x, name, types):
    """x, if it is an instance of types (a class or a tuple of classes).

    Raises
    ------
    GeometryError
        "<name> must be a <Type>" (or "an <Type>, <Type> or <Type>") otherwise.
    """
    if not isinstance(x, types):
        names = [t.__name__ for t in (types if isinstance(types, tuple) else (types,))]
        text = ", ".join(names[:-1]) + " or " * (len(names) > 1) + names[-1]
        raise GeometryError("%s must be %s %s" % (name, "an" if text[0] in "AEIOU" else "a", text))
    return x


def _number(x, name, low, *, integer=False, strict=False):
    """x as an int (integer set) or a float, once it passes the number rule.

    x must be a real number, or a ``numbers.Integral`` when integer is
    set; not a bool; finite; and >= low, or > low when strict.

    Raises
    ------
    GeometryError
        "<name> must be an integer >= <low>" or "<name> must be a finite
        number >= <low>" (> when strict) otherwise.
    """
    if (isinstance(x, bool) or not isinstance(x, numbers.Integral if integer else numbers.Real)
            or not (low < x if strict else low <= x) or not x < math.inf):
        raise GeometryError("%s must be %s %s %g" % (
            name, "an integer" if integer else "a finite number", ">" if strict else ">=", low))
    return int(x) if integer else float(x)


def _row_norms(q):
    """|q| of each row of q (N, n), with the bits of np.linalg.norm of that
    row alone: one dot product per row, as that norm takes (a reduction
    along an axis sums in another order)."""
    q = np.ascontiguousarray(q)
    return np.sqrt((q[:, None, :] @ q[:, :, None])[:, 0, 0])


def vec(a):
    """Stack the columns of a matrix into one vector.

    Parameters
    ----------
    a : (m, n) array_like
    Returns
    -------
    (m*n,) ndarray
    """
    return _checked(a, "vec: a", (None, None)).reshape(-1, order="F").copy()


def unvec(v, shape):
    """Inverse of :func:`vec` for a known target shape: one integer >= 0,
    or a tuple, list or 1-D array of them."""
    shape = [_number(n, "unvec: shape", 0, integer=True)
             for n in (shape if isinstance(shape, (tuple, list, np.ndarray)) else [shape])]
    return _checked(v, "unvec: v", (math.prod(shape),)).reshape(shape, order="F").copy()


def kron(a, b):
    """Kronecker product of two matrices."""
    return _kron(_checked(a, "kron: a", (None, None)), _checked(b, "kron: b", (None, None)))


def _kron(a, b):
    """:func:`kron` of two float matrices, unchecked: the product that
    np.kron forms, entry (i p + k, j q + l) = a[i, j] b[k, l], broadcast
    in one step."""
    (m, n), (p, q) = a.shape, b.shape
    return (a[:, None, :, None] * b[None, :, None, :]).reshape(m * p, n * q)


def transpose_permutation(m, n):
    """Permutation matrix that maps vec(A) to vec(A^T) for A of shape (m, n).

    Returns
    -------
    (m*n, m*n) ndarray
        P such that  P @ vec(A) == vec(A.T).
    """
    for name, v in (("m", m), ("n", n)):
        v = float(_checked(v, "transpose_permutation: " + name, ()))
        if v < 0 or v != int(v):
            raise GeometryError("transpose_permutation: %s must be a non-negative integer" % name)
    m, n = int(m), int(n)
    # entry A[i, j] sits at position j*m + i in vec(A) and at position
    # i*n + j in vec(A.T): row i*n + j of P is the unit row j*m + i
    return np.eye(m * n)[np.arange(m * n).reshape(n, m).T.ravel()]


_TRANSPOSE3 = _const(transpose_permutation(3, 3))


def hat3(w):
    """Skew-symmetric cross-product matrix of a 3-vector.

    w is (3,) or a stack (..., 3); the result is (3, 3) or (..., 3, 3),
    with hat3(w) @ v == cross(w, v).
    """
    return _hat3(_checked(w, "hat3: w", (..., 3)))


def _hat3(w):
    """:func:`hat3` of a float ndarray w, unchecked."""
    out = np.zeros(w.shape[:-1] + (3, 3))
    out[..., 2, 1], out[..., 0, 2], out[..., 1, 0] = w[..., 0], w[..., 1], w[..., 2]
    out[..., 1, 2], out[..., 2, 0], out[..., 0, 1] = -w[..., 0], -w[..., 1], -w[..., 2]
    return out


def vee3(s):
    """Extract the 3-vector from a skew-symmetric matrix.

    Raises
    ------
    GeometryError
        If the matrix is not skew-symmetric to within 1e-9.
    """
    s = _checked(s, "vee3: s", (3, 3))
    with np.errstate(over="ignore"):  # an overflowing sum is not skew-symmetric
        if not np.linalg.norm(s + s.T) < 1e-9:
            raise GeometryError("vee3: matrix is not skew-symmetric")
    return np.array([s[2, 1], s[0, 2], s[1, 0]])


def pose_to_vec12(m):
    """Column-major 12-vector view of a rigid transformation matrix."""
    return _checked(m, "pose_to_vec12: m", *_POSE)[:3].reshape(-1, order="F").copy()


def vec12_to_pose(v):
    """Rebuild the 4x4 matrix from its 12-vector view (bottom row 0,0,0,1)."""
    m = np.eye(4)
    m[:3, :4] = _checked(v, "vec12_to_pose: v", (12,)).reshape((3, 4), order="F")
    return m


def d_compose_wrt_A(tb):
    """Derivative of vec12(A @ B) with respect to vec12(A).

    Parameters
    ----------
    tb : (4, 4) array_like
        The right factor B.

    Returns
    -------
    (12, 12) ndarray
        kron(T_B.T, I3), where T_B is B's full 4x4 with the bottom row
        (0, 0, 0, 1): block (j, i) is T_B[i, j] I3.
    """
    full = np.eye(4)
    full[:3] = _checked(tb, "d_compose_wrt_A: tb", *_POSE)[:3]
    return _kron(full.T, _EYE3)


def _compose_wrt_A_times(tb, y):
    """d_compose_wrt_A(tb) @ y for a (12, k) y, by 3-row blocks: block j
    of the product is sum_i T_B[i, j] y_i over the blocks y_i of y, the
    bottom row of T_B taken as (0, 0, 0, 1)."""
    out = tb[:3].T @ y[:9].reshape(3, -1)
    out[3] += y[9:].ravel()
    return out.reshape(y.shape)


def d_compose_wrt_B(ta):
    """Derivative of vec12(A @ B) with respect to vec12(B): kron(I4, R_A)."""
    return _kron(_EYE4, _checked(ta, "d_compose_wrt_B: ta", *_POSE)[:3, :3])


def d_apply_wrt_point(ta):
    """Derivative of (A * p) with respect to p: the rotation block of A."""
    return _checked(ta, "d_apply_wrt_point: ta", *_POSE)[:3, :3].copy()


def d_apply_wrt_pose(p):
    """Derivative of (A * p) with respect to vec12(A): kron((p^T, 1), I3)."""
    row = np.append(_checked(p, "d_apply_wrt_pose: p", (3,)), 1.0)[None, :]
    return _kron(row, _EYE3)


def apply_vec12(v, p):
    """Action of the 12-vector pose on a point: R @ p + t."""
    # a C-ordered copy: the matmul's rounding depends on the layout
    m = _checked(v, "apply_vec12: v", (12,)).reshape((3, 4), order="F").copy()
    return m[:, :3] @ _checked(p, "apply_vec12: p", (3,)) + m[:, 3]


def inverse_rt(m):
    """Closed-form inverse of a rigid transformation: (R^T, -R^T t).

    m is an (n, n) homogeneous matrix, n = 4 for SE(3) and 3 for SE(2),
    or a stack (..., n, n); the result has the same shape.  A 3x4 block
    is taken as the top of a 4x4.  Applied verbatim to the top block:
    the bottom row of the input is ignored, and for non-orthonormal R
    this is the transpose-based map whose derivative
    :func:`d_inverse_wrt_pose` returns, not the general matrix inverse.
    Every matrix of a stack gets the bits of its own call.
    """
    return _inverse_rt(_checked(m, "inverse_rt: m", (..., 4, 4), (..., 3, 4), (..., 3, 3)))


def _inverse_rt(m):
    """:func:`inverse_rt` of a float ndarray m, unchecked."""
    k = m.shape[-1] - 1
    rt = np.swapaxes(m[..., :k, :k], -1, -2)
    out = np.zeros(m.shape[:-2] + (k + 1, k + 1))
    out[..., :k, :k] = rt
    out[..., :k, k:] = -rt @ m[..., :k, k:]
    out[..., k, k] = 1.0
    return out


def d_inverse_wrt_pose(ta):
    """Derivative of vec12(A^{-1}) with respect to vec12(A).

    Block form  [[ T_{3,3}        0_{9x3} ]
                 [ kron(I3,-t^T)  -R^T    ]]
    where T_{3,3} = transpose_permutation(3, 3) is the transpose
    permutation of the rotation block.
    """
    ta = _checked(ta, "d_inverse_wrt_pose: ta", *_POSE)
    out = np.zeros((12, 12))
    out[:9, :9] = _TRANSPOSE3
    out[9:, :9] = _kron(_EYE3, -ta[None, :3, 3])
    out[9:, 9:] = -ta[:3, :3].T
    return out


def d_invapply_wrt_point(ta):
    """Derivative of (A^{-1} * p) with respect to p: R_A^T."""
    return _checked(ta, "d_invapply_wrt_point: ta", *_POSE)[:3, :3].T.copy()


def d_invapply_wrt_pose(ta, p):
    """Derivative of (A^{-1} * p) with respect to vec12(A).

    Equals [ kron(I3, (p - t)^T) | -R^T ]  (3x12).
    """
    ta = _checked(ta, "d_invapply_wrt_pose: ta", *_POSE)
    out = np.zeros((3, 12))
    out[:, :9] = _kron(_EYE3, (_checked(p, "d_invapply_wrt_pose: p", (3,)) - ta[:3, 3])[None, :])
    out[:, 9:] = -ta[:3, :3].T
    return out
