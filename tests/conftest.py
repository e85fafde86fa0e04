"""Shared samplers and oracles for the test suite."""
import math

import numpy as np
from hypothesis import HealthCheck, settings

from rigidkit import EulerPose, HomPose, Quaternion, QuatPose, so3_exp, ypr_to_quat

settings.register_profile(
    "suite",
    derandomize=True,
    max_examples=50,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
# the suite's settings with 20 times the examples, for a deeper run of a
# module: pytest --hypothesis-profile=deep tests/test_g2o.py
settings.register_profile("deep", parent=settings.get_profile("suite"), max_examples=1000)
settings.load_profile("suite")


def series_exp(m, terms=30):
    """Truncated power-series matrix exponential (independent oracle)."""
    m = np.asarray(m, dtype=float)
    out = np.eye(m.shape[0])
    term = np.eye(m.shape[0])
    for k in range(1, terms + 1):
        term = term @ m / k
        out = out + term
    return out


def rand_euler(rng, span=3.05, max_pitch=np.deg2rad(85.0), box=2.0):
    """Random Euler pose bounded away from the gimbal band."""
    x, y, z = rng.uniform(-box, box, 3)
    yaw, roll = rng.uniform(-span, span, 2)
    pitch = rng.uniform(-max_pitch, max_pitch)
    return EulerPose(x, y, z, yaw, pitch, roll)


def rand_quat_pose(rng, box=2.0):
    """Random quaternion pose with uniformly distributed rotation."""
    v = rng.normal(size=4)
    v /= np.linalg.norm(v)
    if v[0] < 0:
        v = -v
    x, y, z = rng.uniform(-box, box, 3)
    return QuatPose(x, y, z, Quaternion(v[0], v[1], v[2], v[3]))


def rand_rotvec(rng, lo=0.05, hi=2.8):
    """Random rotation vector with angle in [lo, hi]."""
    u = rng.normal(size=3)
    u /= np.linalg.norm(u)
    return u * rng.uniform(lo, hi)


def rand_hompose(rng, lo=0.05, hi=2.8, box=2.0):
    """Random matrix pose built from a random rotation vector."""
    return HomPose.from_rt(so3_exp(rand_rotvec(rng, lo, hi)), rng.uniform(-box, box, 3))


def safe_quat_pose(rng, box=2.0):
    """Quaternion pose whose Euler chart stays clear of the gimbal band."""
    while True:
        p = rand_quat_pose(rng, box=box)
        q = p.q
        delta = q.qr * q.qy - q.qx * q.qz
        if abs(delta) < 0.45:
            return p


def rot_angle(r):
    """Rotation angle of a 3x3 rotation matrix."""
    c = (np.trace(r) - 1.0) / 2.0
    return math.acos(min(1.0, max(-1.0, c)))


def quat_of(p):
    """Unit quaternion (scalar-first 4-vector) of any pose object."""
    if isinstance(p, EulerPose):
        return ypr_to_quat(p).q.vec
    if isinstance(p, QuatPose):
        return p.q.vec
    raise TypeError(type(p))
