"""The Euler-angle Jacobians near the poles against a 40-digit mpmath oracle.

jacobian_quat_to_ypr and compose_pose_ypr differentiate the one Euler
extraction at the rotation their values are read from, and refuse only
within 1e-6 rad of a pole.  Here they are compared at pitch
+-(pi/2 - gap), for gaps from 1e-5 to 5e-4, with mpmath.diff of the same
maps evaluated at 40 digits from the same double inputs.  At these gaps
the extraction is on its regular branch: yaw = atan2(r10, r00),
pitch = atan2(-r20, |(r00, r10)|), roll = atan2(r21, r22).
"""
import math

import mpmath
import numpy as np
import pytest

from rigidkit import (EulerPose, HomPose, compose_pose_ypr, jacobian_quat_to_ypr,
                      matrix_to_ypr, ypr_to_matrix, ypr_to_quat)

GAPS = [1e-5, 1e-4, 5e-4]
DRAWS = 10
EPS = np.finfo(float).eps


def _angles(r):
    return [mpmath.atan2(r[1, 0], r[0, 0]),
            mpmath.atan2(-r[2, 0], mpmath.sqrt(r[0, 0] ** 2 + r[1, 0] ** 2)),
            mpmath.atan2(r[2, 1], r[2, 2])]


def _rot_quat(q):
    n = mpmath.sqrt(sum(c * c for c in q))
    qr, qx, qy, qz = (c / n for c in q)
    return mpmath.matrix([
        [qr * qr + qx * qx - qy * qy - qz * qz, 2 * (qx * qy - qr * qz), 2 * (qz * qx + qr * qy)],
        [2 * (qx * qy + qr * qz), qr * qr - qx * qx + qy * qy - qz * qz, 2 * (qy * qz - qr * qx)],
        [2 * (qz * qx - qr * qy), 2 * (qy * qz + qr * qx), qr * qr - qx * qx - qy * qy + qz * qz]])


def _rot_ypr(yaw, pitch, roll):
    cy, sy = mpmath.cos(yaw), mpmath.sin(yaw)
    cp, sp = mpmath.cos(pitch), mpmath.sin(pitch)
    cr, sr = mpmath.cos(roll), mpmath.sin(roll)
    return (mpmath.matrix([[cy, -sy, 0], [sy, cy, 0], [0, 0, 1]])
            * mpmath.matrix([[cp, 0, sp], [0, 1, 0], [-sp, 0, cp]])
            * mpmath.matrix([[1, 0, 0], [0, cr, -sr], [0, sr, cr]]))


def _quat_to_ypr(v):
    """quat_to_ypr of the 7-vector v."""
    return v[:3] + _angles(_rot_quat(v[3:]))


def _compose_ypr(v):
    """compose_pose_ypr's value at the 12-vector v = (p1, p2)."""
    r1 = _rot_ypr(*v[3:6])
    t = mpmath.matrix(v[:3]) + r1 * mpmath.matrix(v[6:9])
    return list(t) + _angles(r1 * _rot_ypr(*v[9:]))


def _jacobian(f, x):
    """d f / d x of the list-valued map f at the doubles x, to 40 digits."""
    with mpmath.workdps(40):
        x = [mpmath.mpf(float(c)) for c in x]
        cols = [mpmath.diff(lambda s, i=i: mpmath.matrix(f(x[:i] + [s] + x[i + 1:])), x[i])
                for i in range(len(x))]
        return np.array([[float(c) for c in col] for col in cols]).T


def _near_pole(rng, gap):
    side = rng.choice([-1.0, 1.0])
    return EulerPose(*rng.uniform(-2.0, 2.0, 3), rng.uniform(-3.1, 3.1),
                     side * (0.5 * math.pi - gap), rng.uniform(-3.1, 3.1))


def _bound(gap):
    # the extraction divides by r00^2 + r10^2 and r21^2 + r22^2, of size
    # cos(pitch)^2 ~ gap^2, from entries of size gap that carry an absolute
    # rounding of a few eps: the relative error grows like eps / cos(pitch),
    # as the largest entries (the yaw and roll rates) grow like 1 / cos(pitch);
    # 0.62 eps / gap was the worst seen over 60 draws per gap
    return 4.0 * EPS / gap


@pytest.mark.parametrize("gap", GAPS)
def test_quat_to_ypr_jacobian_matches_the_oracle(gap):
    rng = np.random.default_rng([11, GAPS.index(gap)])
    for _ in range(DRAWS):
        q = ypr_to_quat(_near_pole(rng, gap))
        exact = _jacobian(_quat_to_ypr, q.vec)
        assert np.abs(jacobian_quat_to_ypr(q) - exact).max() <= _bound(gap) * np.abs(exact).max()


@pytest.mark.parametrize("gap", GAPS)
def test_compose_pose_ypr_jacobians_match_the_oracle(gap):
    rng = np.random.default_rng([12, GAPS.index(gap)])
    for _ in range(DRAWS):
        # p1 then p1^-1 target: the composed pitch is the target's
        target = ypr_to_matrix(_near_pole(rng, gap)).mat
        p1 = EulerPose(*rng.uniform(-2.0, 2.0, 3), rng.uniform(-3.1, 3.1),
                       rng.uniform(-1.5, 1.5), rng.uniform(-3.1, 3.1))
        p2 = matrix_to_ypr(HomPose(np.linalg.inv(ypr_to_matrix(p1).mat) @ target))
        exact = _jacobian(_compose_ypr, np.concatenate([p1.vec, p2.vec]))
        jac = np.hstack(compose_pose_ypr(p1, p2)[1:])
        assert np.abs(jac - exact).max() <= _bound(gap) * np.abs(exact).max()
