"""The SO(3) log and its Jacobian against a 40-digit mpmath oracle.

Each band draws random axes, builds the rotation of axis * angle in
mpmath, rounds it to doubles, and compares the package's log and the
rotation blocks of the edge Jacobians (batched kernel and scalar
reference) with the exact log and the exact right-Jacobian inverse
J_r(w)^-1 = I + hat(w)/2 + (1/theta^2 - (1 + cos theta)/(2 theta sin theta)) hat(w)^2
(Sola, Deray, Atchuthan, "A micro Lie theory for state estimation in
robotics", arXiv 1812.01537).  The bands reach 1e-9 short of a half turn.
"""
import mpmath
import numpy as np
import pytest

from rigidkit import HomPose, edge_error_se3, so3_log
from rigidkit.graphslam import _linearize

# (angle, distance from pi) with exactly one of them given
BANDS = [(1e-8, None), (1e-4, None), (1e-3, None), (1.0, None), (None, 1e-1),
         (None, 1e-3), (None, 1e-5), (None, 1e-7), (None, 1e-9)]
AXES = 30


def _doubles(m):
    return np.array(m.tolist(), dtype=float)


def _hat(w):
    return mpmath.matrix([[0, -w[2], w[1]], [w[2], 0, -w[0]], [-w[1], w[0], 0]])


def _exact(axis, angle, gap):
    """Rotation, rotation vector and J_r^-1 of axis * angle, in doubles."""
    with mpmath.workdps(40):
        theta = mpmath.mpf(angle) if gap is None else mpmath.pi - mpmath.mpf(gap)
        u = [mpmath.mpf(float(x)) for x in axis]
        norm = mpmath.sqrt(sum(x * x for x in u))
        w = [theta * x / norm for x in u]
        k = _hat(w)
        rot = (mpmath.eye(3) + mpmath.sin(theta) / theta * k
               + (1 - mpmath.cos(theta)) / theta ** 2 * k * k)
        c = 1 / theta ** 2 - (1 + mpmath.cos(theta)) / (2 * theta * mpmath.sin(theta))
        jr_inv = mpmath.eye(3) + k / 2 + c * k * k
        return _doubles(rot), np.array([float(x) for x in w]), _doubles(jr_inv)


@pytest.mark.parametrize("angle, gap", BANDS)
def test_log_and_jacobian_match_the_oracle(angle, gap):
    rng = np.random.default_rng([7, BANDS.index((angle, gap))])
    rots, ws, jr_invs = zip(*(_exact(rng.normal(size=3), angle, gap) for _ in range(AXES)))
    rots, ws, jr_invs = np.array(rots), np.array(ws), np.array(jr_invs)

    assert np.abs(so3_log(rots) - ws).max() <= 1e-12
    for r, w in zip(rots, ws):
        assert np.abs(so3_log(r) - w).max() <= 1e-12

    # edges with identity measurement and first pose: the residual is rots
    mats = np.tile(np.eye(4), (AXES, 1, 1))
    mj = mats.copy()
    mj[:, :3, :3] = rots
    res, jac = _linearize("se3", mats, mats, mj)
    assert np.abs(res[:, 3:] - ws).max() <= 1e-12
    assert np.abs(jac[:, 1, 3:, 3:] - jr_invs).max() <= 1e-8
    for m, jr_inv in zip(mj, jr_invs):
        out = edge_error_se3(HomPose(np.eye(4)), HomPose(np.eye(4)), HomPose(m))
        assert np.abs(out.jac2[3:, 3:] - jr_inv).max() <= 1e-8
