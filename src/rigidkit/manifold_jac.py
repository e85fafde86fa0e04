"""Derivatives with respect to on-manifold increments.

A pose is perturbed multiplicatively by the pseudo-exponential of a small
tangent vector eps = (dx, dy, dz, wx, wy, wz) — translation first — and
every Jacobian here is taken at eps = 0, so no eps argument appears in
any signature.  Where the increment multiplies matters and is part of
each function's name: ``expeD`` means exp(eps) @ D (increment on the
left), ``Dexpe`` means D @ exp(eps), ``AexpeD`` sandwiches the increment
between two fixed poses.

Outputs taking values in pose space are expressed in the column-major
12-vector view of the top 3x4 block (see :mod:`rigidkit.matderiv`), which
keeps every chain rule a plain matrix product.

True and pseudo exponentials share all these derivatives: they agree to
first order at eps = 0.

As in :mod:`rigidkit.matderiv`, each public function checks its own
arguments and calls the unchecked private bodies of the others.  The
chains multiply 3x3 blocks: kron(I4, R) @ J is R times each 3-row block
of J, and d_compose_wrt_A(B) @ J is :func:`matderiv._compose_wrt_A_times`.
"""

import math
from dataclasses import dataclass

import numpy as np

from .core import _quat_from_rotation_rate
from .lie import _pseudo_log
from .matderiv import (_EYE3, _POSE, _checked, _compose_wrt_A_times, _const, _hat3, _inverse_rt,
                       _typed)


# ---------------------------------------------------------------------------
# exponential-map derivatives at zero

def dexp_so3_at_zero():
    """9x3 derivative of vec(rotation of exp) at the identity.

    Three stacked blocks -hat(e1), -hat(e2), -hat(e3): column j of the
    perturbed rotation moves as w x e_j.
    """
    e = np.eye(3)
    return np.vstack([-_hat3(e[0]), -_hat3(e[1]), -_hat3(e[2])])


def dexp_so3_quat(w):
    """4x3 derivative of the rotation-vector -> quaternion map.

    Rows are (qr, qx, qy, qz); columns follow w.  At w = 0 the scalar row
    vanishes and the vector block is I3/2.
    """
    w = _checked(w, "dexp_so3_quat: w", (3,))
    theta = np.linalg.norm(w)
    if theta < 1e-4:
        t2 = theta * theta
        s = 0.5 - t2 / 48.0 + t2 * t2 / 3840.0
        g = -1.0 / 24.0 + t2 / 960.0 - t2 * t2 / 107520.0
    else:
        s = np.sin(0.5 * theta) / theta
        g = (0.5 * theta * np.cos(0.5 * theta) - np.sin(0.5 * theta)) / theta ** 3
    out = np.zeros((4, 3))
    out[0] = -0.5 * s * w
    out[1:] = s * _EYE3 + g * (w[:, None] * w)
    return out


def dexp_se3_at_zero():
    """12x6 derivative of vec12 of the rigid exponential at zero.

    Translation columns reach only the translation rows (identity);
    rotation columns reproduce :func:`dexp_so3_at_zero`.
    """
    out = np.zeros((12, 6))
    out[:9, 3:] = dexp_so3_at_zero()
    out[9:, :3] = np.eye(3)
    return out


# its four 3x6 row blocks, which jacob_Dexpe_de multiplies by R_D
_DEXP_SE3_BLOCKS = _const(dexp_se3_at_zero().reshape(4, 3, 6))


def dlog_so3(r):
    """3x9 derivative of :func:`so3_log` w.r.t. vec(R) (column-major).

    so3_log is w = 2 atan2(|v|, q0) v / |v| of the largest-pivot
    quaternion q of R, so this is dw/dq @ dq/dvec(R), the second factor
    from :func:`core._quat_from_rotation_rate`.  Both factors are bounded
    at every angle, and the entries of R are free, so the derivative is
    exact off the rotation manifold too.  With a = atan2(|v|, q0) and
    m2 = |q|^2: dw/dq0 = -2 v / m2 and dw/dv = 2 (a/|v|) I + 2 c v v^T,
    c = (q0/m2 - a/|v|) / |v|^2, whose cancellation error stays at
    rounding level after the product with v v^T.
    """
    return _dlog_so3(_checked(r, "dlog_so3: r", (3, 3)))


def _dlog_so3(r):
    """:func:`dlog_so3` of a float 3x3 r, unchecked."""
    q, dq = _quat_from_rotation_rate(r)
    v = q[1:]
    q0, n2 = float(q[0]), float(v @ v)
    m2 = q0 * q0 + n2
    if n2 > 0.0:
        n = math.sqrt(n2)
        a_n = float(np.arctan2(n, q0)) / n
        c = (q0 / m2 - a_n) / n2
    else:
        a_n, c = 1.0 / q0, 0.0
    x, y, z = v.tolist()
    dw = np.array([[-x / m2, a_n + c * (x * x), c * (x * y), c * (x * z)],
                   [-y / m2, c * (y * x), a_n + c * (y * y), c * (y * z)],
                   [-z / m2, c * (z * x), c * (z * y), a_n + c * (z * z)]])
    return 2.0 * dw @ dq


def dpseudolog_se3(t):
    """6x12 derivative of the pseudo-logarithm in the 12-vector view.

    The translation block is a plain selection; the rotation block is
    :func:`dlog_so3` of the rotation part.
    """
    return _dpseudolog_se3(_checked(t, "dpseudolog_se3: t", *_POSE))


def _dpseudolog_se3(m):
    """:func:`dpseudolog_se3` of a float 4x4 or 3x4 m, unchecked."""
    out = np.zeros((6, 12))
    out[:3, 9:] = _EYE3
    out[3:, :9] = _dlog_so3(m[:3, :3])
    return out


# ---------------------------------------------------------------------------
# increment on one side of a fixed pose

def jacob_expeD_de(d):
    """12x6 derivative of vec12(exp(eps) @ D) at eps = 0.

    Block pattern [[0, -hat(col_j of R_D)] for the three rotation-column
    row groups; [I3, -hat(t_D)] for the translation rows].  Identical to
    d_compose_wrt_A(D) @ dexp_se3_at_zero().
    """
    return _expeD(_checked(d, "jacob_expeD_de: d", *_POSE))


def _expeD(m):
    """:func:`jacob_expeD_de` of a float 4x4 or 3x4 m, unchecked: the
    row blocks -hat of the four columns of m's top block."""
    out = np.zeros((12, 6))
    out[:, 3:] = -_hat3(m[:3, :4].T).reshape(12, 3)
    out[9:, :3] = _EYE3
    return out


def jacob_Dexpe_de(d):
    """12x6 derivative of vec12(D @ exp(eps)) at eps = 0.

    Equals kron(I4, R_D) @ dexp_se3_at_zero(): rotation columns mix the
    columns of R_D, translation rows rotate the increment.
    """
    return _Dexpe(_checked(d, "jacob_Dexpe_de: d", *_POSE))


def _Dexpe(m):
    """:func:`jacob_Dexpe_de` of a float 4x4 or 3x4 m, unchecked: R_D
    times each 3x6 row block of dexp_se3_at_zero()."""
    return (m[:3, :3] @ _DEXP_SE3_BLOCKS).reshape(12, 6)


def _expe_point(g):
    """[I3 | -hat(g)]: the 3x6 derivative of exp(eps) * g at eps = 0."""
    out = np.zeros((3, 6))
    out[:, :3] = _EYE3
    out[:, 3:] = -_hat3(g)
    return out


def jacob_expeDp_de(d, p):
    """3x6 derivative of (exp(eps) @ D) * p at eps = 0: [I3 | -hat(D*p)]."""
    m = _checked(d, "jacob_expeDp_de: d", *_POSE)
    return _expe_point(m[:3, :3] @ _checked(p, "jacob_expeDp_de: p", (3,)) + m[:3, 3])


def jacob_p_ominus_expeD_de(d, p):
    """3x6 derivative of (exp(eps) @ D)^{-1} * p at eps = 0.

    [-R_D^T | M] with row i of M the cross product (column i of R_D) x p,
    which is row i of R_D^T hat(p).
    """
    m = _checked(d, "jacob_p_ominus_expeD_de: d", *_POSE)
    return _p_ominus_expeD(m[:3, :3], _checked(p, "jacob_p_ominus_expeD_de: p", (3,)))


def _p_ominus_expeD(r, p):
    """:func:`jacob_p_ominus_expeD_de` of float R_D and p, unchecked."""
    return np.concatenate([-r.T, r.T @ _hat3(p)], axis=1)


def jacob_AexpeD_de(a, d):
    """12x6 derivative of vec12(A @ exp(eps) @ D) at eps = 0.

    Equals kron(I4, R_A) @ jacob_expeD_de(D), computed as R_A times each
    of its four 3x6 row blocks.
    """
    ra = _checked(a, "jacob_AexpeD_de: a", *_POSE)[:3, :3]
    return _AexpeD(ra, _checked(d, "jacob_AexpeD_de: d", *_POSE))


def _AexpeD(ra, md):
    """:func:`jacob_AexpeD_de` of float R_A and D, unchecked."""
    return (ra @ _expeD(md).reshape(4, 3, 6)).reshape(12, 6)


def jacob_AexpeDp_de(a, d, p, approx=False):
    """3x6 derivative of (A @ exp(eps) @ D) * p at eps = 0.

    With approx=True both outer poses are treated as near the identity
    and the cheap pattern [I3 | -hat(p + t_D)] is returned instead of the
    exact R_A @ [I3 | -hat(D*p)].  approx must be a bool, and A is
    checked in both cases.
    """
    name = "jacob_AexpeDp_de: "
    md = _checked(d, name + "d", *_POSE)
    p = _checked(p, name + "p", (3,))
    ra = _checked(a, name + "a", *_POSE)[:3, :3]
    if _typed(approx, name + "approx", bool):
        return _expe_point(p + md[:3, 3])
    return ra @ _expe_point(md[:3, :3] @ p + md[:3, 3])


def jacob_p_ominus_AexpeD_de(a, d, p):
    """3x6 derivative of (A @ exp(eps) @ D)^{-1} * p at eps = 0.

    The chain d_invapply_wrt_pose(A @ D, p) @ jacob_AexpeD_de(A, D), by
    blocks: the first factor is [kron(I3, (p - t)^T) | -R^T] with (R, t)
    of A @ D, so row i of the product is (p - t) . J_i - (R^T J_3)_i
    over the 3x6 row blocks J_i of the second.
    """
    name = "jacob_p_ominus_AexpeD_de: "
    ma, md = _checked(a, name + "a", (4, 4)), _checked(d, name + "d", (4, 4))
    mad = ma @ md
    j = _AexpeD(ma[:3, :3], md).reshape(4, 3, 6)
    return (_checked(p, name + "p", (3,)) - mad[:3, 3]) @ j[:3] - mad[:3, :3].T @ j[3]


# ---------------------------------------------------------------------------
# relative-pose (edge) errors

def _relative(dinv, m1, m2):
    """B = P1^-1 P2 and the residual transform T = D^-1 B of an edge.

    dinv, m1 and m2 are matrices or stacks of them: the per-edge errors
    here and the solver's batched pass share this product.
    """
    b = _inverse_rt(m1) @ m2
    return b, dinv @ b


@dataclass(frozen=True)
class EdgeErrorSE3:
    """Residual of a measured relative pose and its two Jacobians.

    The Jacobians are 6x6 for an SE(3) edge and 3x3 for a planar one;
    ``EdgeErrorSE2`` is the same record under its planar name.
    """

    error: np.ndarray
    jac1: np.ndarray
    jac2: np.ndarray


EdgeErrorSE2 = EdgeErrorSE3


def edge_error_se3(d, p1, p2):
    """Pseudo-log residual of measurement D against poses P1, P2.

    e = pseudo_log(D^{-1} P1^{-1} P2), with Jacobians w.r.t. right-
    multiplicative increments of P1 and P2 (the optimizer's update rule).
    The Jacobians chain :func:`dpseudolog_se3` with the matrix-product
    derivatives, so they hold at every residual angle, a half turn
    included; the rotation block of jac2 is the right-Jacobian inverse
    J_r(w)^-1 of the residual rotation w.
    """
    d_inv = _inverse_rt(_checked(d, "edge_error_se3: d", (4, 4)))
    b, t_err = _relative(d_inv, _checked(p1, "edge_error_se3: p1", (4, 4)),
                         _checked(p2, "edge_error_se3: p2", (4, 4)))
    dlog = _dpseudolog_se3(t_err)
    j1 = dlog @ _compose_wrt_A_times(b, -_Dexpe(d_inv))
    return EdgeErrorSE3(_pseudo_log(t_err), j1, dlog @ _Dexpe(t_err))


# ---------------------------------------------------------------------------
# planar versions

def jacob_Dexpe_de_se2(d):
    """3x3 derivative of params(D @ exp(eps)) at eps = 0 for planar poses."""
    return _Dexpe_se2(_checked(d, "jacob_Dexpe_de_se2: d", (3, 3)))


def _Dexpe_se2(m):
    """:func:`jacob_Dexpe_de_se2` of a float 3x3 m, unchecked."""
    out = np.eye(3)
    out[:2, :2] = m[:2, :2]
    return out


def d_compose_se2_wrt_A(a, b):
    """3x3 derivative of params(A @ B) w.r.t. (x_A, y_A, phi_A)."""
    return _compose_se2_wrt_A(_checked(a, "d_compose_se2_wrt_A: a", (3, 3)),
                              _checked(b, "d_compose_se2_wrt_A: b", (3, 3)))


def _compose_se2_wrt_A(ma, mb):
    """:func:`d_compose_se2_wrt_A` of float 3x3 ma and mb, unchecked."""
    sa, ca = ma[1, 0], ma[0, 0]
    xb, yb = mb[0, 2], mb[1, 2]
    out = np.eye(3)
    out[0, 2] = -xb * sa - yb * ca
    out[1, 2] = xb * ca - yb * sa
    return out


def d_compose_se2_wrt_B(a):
    """3x3 derivative of params(A @ B) w.r.t. (x_B, y_B, phi_B)."""
    return _Dexpe_se2(_checked(a, "d_compose_se2_wrt_B: a", (3, 3)))


def edge_error_se2(d, p1, p2):
    """Planar pseudo-log residual e = params(D^{-1} P1^{-1} P2).

    The angle component is the atan2 of the residual rotation, hence
    already wrapped to (-pi, pi].  Jacobians follow right-multiplicative
    increments of P1 and P2.
    """
    d_inv = _inverse_rt(_checked(d, "edge_error_se2: d", (3, 3)))
    b, t_err = _relative(d_inv, _checked(p1, "edge_error_se2: p1", (3, 3)),
                         _checked(p2, "edge_error_se2: p2", (3, 3)))
    j1 = _compose_se2_wrt_A(d_inv, b) @ (-_Dexpe_se2(d_inv))
    return EdgeErrorSE2(_pseudo_log(t_err), j1, _Dexpe_se2(t_err))
