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

Functions accept plain ndarrays; 4x4 inputs may carry any bottom row (it
is ignored).  :func:`hat3` and :func:`inverse_rt` also take stacks, (..., 3)
and (..., n, n), and give each row or matrix the bits of its own call.
"""

import numpy as np

from .errors import GeometryError


def _mat4(m):
    """Float ndarray of a pose object's matrix, or of a plain matrix."""
    if hasattr(m, "mat"):
        return np.asarray(m.mat, dtype=float)
    return np.asarray(m, dtype=float)


def vec(a):
    """Stack the columns of a matrix into one vector.

    Parameters
    ----------
    a : (m, n) array_like
    Returns
    -------
    (m*n,) ndarray
    """
    return np.asarray(a, dtype=float).reshape(-1, order="F").copy()


def unvec(v, shape):
    """Inverse of :func:`vec` for a known target shape."""
    return np.asarray(v, dtype=float).reshape(shape, order="F").copy()


def kron(a, b):
    """Kronecker product (thin wrapper kept for symmetry of the API)."""
    return np.kron(np.asarray(a, dtype=float), np.asarray(b, dtype=float))


def transpose_permutation(m, n):
    """Permutation matrix that maps vec(A) to vec(A^T) for A of shape (m, n).

    Returns
    -------
    (m*n, m*n) ndarray
        P such that  P @ vec(A) == vec(A.T).
    """
    p = np.zeros((m * n, m * n))
    for i in range(m):
        for j in range(n):
            # entry A[i, j] sits at position j*m + i in vec(A) and at
            # position i*n + j in vec(A.T)
            p[i * n + j, j * m + i] = 1.0
    return p


def hat3(w):
    """Skew-symmetric cross-product matrix of a 3-vector.

    w is (3,) or a stack (..., 3); the result is (3, 3) or (..., 3, 3),
    with hat3(w) @ v == cross(w, v).

    Raises
    ------
    GeometryError
        If the last axis of w does not have length 3.
    """
    w = np.asarray(w, dtype=float)
    if w.shape[-1:] != (3,):
        raise GeometryError("hat3: w must be a 3-vector or a stack (..., 3) of them")
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
    s = np.asarray(s, dtype=float)
    if np.linalg.norm(s + s.T) >= 1e-9:
        raise GeometryError("vee3: matrix is not skew-symmetric")
    return np.array([s[2, 1], s[0, 2], s[1, 0]])


def _top34(m):
    """Top 3x4 block of a 4x4 (or already 3x4) array."""
    m = np.asarray(m, dtype=float)
    return m[:3, :4]


def pose_to_vec12(m):
    """Column-major 12-vector view of a rigid transformation matrix."""
    return vec(_top34(m))


def vec12_to_pose(v):
    """Rebuild the 4x4 matrix from its 12-vector view (bottom row 0,0,0,1)."""
    m = np.eye(4)
    m[:3, :4] = unvec(v, (3, 4))
    return m


def d_compose_wrt_A(tb):
    """Derivative of vec12(A @ B) with respect to vec12(A).

    Parameters
    ----------
    tb : (4, 4) array_like
        The right factor B.

    Returns
    -------
    (12, 12) ndarray  equal to kron(B[:4,:4].T restricted suitably, I3);
    concretely kron(T_B.T, I3) where T_B is B's full 4x4.
    """
    tb = np.asarray(tb, dtype=float)
    full = np.eye(4)
    full[:3, :4] = tb[:3, :4]
    return kron(full.T, np.eye(3))


def d_compose_wrt_B(ta):
    """Derivative of vec12(A @ B) with respect to vec12(B): kron(I4, R_A)."""
    ta = np.asarray(ta, dtype=float)
    return kron(np.eye(4), ta[:3, :3])


def d_apply_wrt_point(ta):
    """Derivative of (A * p) with respect to p: the rotation block of A."""
    return np.asarray(ta, dtype=float)[:3, :3].copy()


def d_apply_wrt_pose(p):
    """Derivative of (A * p) with respect to vec12(A): kron((p^T, 1), I3)."""
    p = np.asarray(p, dtype=float)
    row = np.concatenate([p, [1.0]])[None, :]
    return kron(row, np.eye(3))


def apply_vec12(v, p):
    """Action of the 12-vector pose on a point: R @ p + t."""
    m = unvec(v, (3, 4))
    return m[:, :3] @ np.asarray(p, dtype=float) + m[:, 3]


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
    m = np.asarray(m, dtype=float)
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
    where T_{3,3} is the transpose permutation of the rotation block.
    """
    ta = np.asarray(ta, dtype=float)
    r = ta[:3, :3]
    t = ta[:3, 3]
    out = np.zeros((12, 12))
    out[:9, :9] = transpose_permutation(3, 3)
    out[9:, :9] = kron(np.eye(3), -t[None, :])
    out[9:, 9:] = -r.T
    return out


def d_invapply_wrt_point(ta):
    """Derivative of (A^{-1} * p) with respect to p: R_A^T."""
    return np.asarray(ta, dtype=float)[:3, :3].T.copy()


def d_invapply_wrt_pose(ta, p):
    """Derivative of (A^{-1} * p) with respect to vec12(A).

    Equals [ kron(I3, (p - t)^T) | -R^T ]  (3x12).
    """
    ta = np.asarray(ta, dtype=float)
    r = ta[:3, :3]
    t = ta[:3, 3]
    d = np.asarray(p, dtype=float) - t
    out = np.zeros((3, 12))
    out[:, :9] = kron(np.eye(3), d[None, :])
    out[:, 9:] = -r.T
    return out
