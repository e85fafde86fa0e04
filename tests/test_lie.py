"""Exponential and logarithm maps on SO(3), SE(3), SE(2)."""
import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from conftest import rand_rotvec, rot_angle, series_exp
from rigidkit import (AxisAngle, GeometryError, HomPose, HomPose2,
                      NearPiRotationError, axis_angle_factorization, hat3,
                      quat_to_matrix, rot_z, se2_exp, se2_log, se2_pseudo_exp,
                      se2_pseudo_log, se3_exp, se3_log, se3_pseudo_exp,
                      se3_pseudo_log, so3_exp, so3_exp_coordinate,
                      so3_exp_quat, so3_log, so3_log_quat)
from rigidkit.core import QuatPose
from rigidkit.lie import _pseudo_exp


# frozen oracle: 30-term series value for a fixed rotation vector
SERIES_R = np.array([
    [0.85953389855866302, -0.49799153700292204, -0.11491695393636674],
    [0.43986763295823089, 0.83531560520670856, -0.32979433769225502],
    [0.26022671404809444, 0.23292116428443663, 0.93703243728491814],
])
SERIES_T = np.array([
    [0.87799178267972233, 0.32475143364814202, 0.35166309998400425, 0.56988989243281418],
    [-0.24666617456316428, 0.93655572699345557, -0.24903648038416881, -1.2167252725507594],
    [-0.41022704429773771, 0.13190859175670216, 0.90239342614377771, 0.15762623155419697],
    [0.0, 0.0, 0.0, 1.0],
])


def test_so3_exp_matches_frozen_series_value():
    assert np.allclose(so3_exp([0.3, -0.2, 0.5]), SERIES_R, atol=1e-15)


def test_se3_exp_matches_frozen_series_value():
    v = np.array([0.7, -1.1, 0.4, 0.2, 0.4, -0.3])
    assert np.allclose(se3_exp(v).mat, SERIES_T, atol=1e-15)


def test_so3_exp_matches_series_oracle():
    rng = np.random.default_rng(0)
    for _ in range(100):
        w = rand_rotvec(rng, lo=1e-7, hi=3.1)
        assert np.abs(so3_exp(w) - series_exp(hat3(w))).max() < 1e-11


def test_se3_exp_matches_series_oracle():
    rng = np.random.default_rng(1)
    for _ in range(100):
        v = np.concatenate([rng.uniform(-2, 2, 3), rand_rotvec(rng, lo=1e-7, hi=3.0)])
        m = np.zeros((4, 4))
        m[:3, :3] = hat3(v[3:])
        m[:3, 3] = v[:3]
        assert np.abs(se3_exp(v).mat - series_exp(m)).max() < 1e-11


def test_so3_exp_is_rotation():
    rng = np.random.default_rng(2)
    for _ in range(50):
        r = so3_exp(rand_rotvec(rng, lo=0.0, hi=3.14))
        assert np.abs(r @ r.T - np.eye(3)).max() < 1e-13
        assert abs(np.linalg.det(r) - 1.0) < 1e-13


def test_so3_exp_zero_is_identity():
    assert np.array_equal(so3_exp(np.zeros(3)), np.eye(3))


def test_so3_log_round_trip_across_angle_range():
    rng = np.random.default_rng(3)
    # sweep deliberately spans tiny angles and angles close to a half turn
    angles = np.concatenate([
        10.0 ** rng.uniform(-8, -4, 50),
        rng.uniform(1e-4, 3.0, 200),
        rng.uniform(3.0, math.pi - 1e-4, 100),
    ])
    for theta in angles:
        u = rng.normal(size=3)
        u /= np.linalg.norm(u)
        w = theta * u
        assert np.abs(so3_log(so3_exp(w)) - w).max() < 1e-9


def test_so3_log_at_pi_recovers_axis():
    for ax in range(3):
        w = np.zeros(3)
        w[ax] = math.pi
        back = so3_log(so3_exp(w))
        assert min(np.abs(back - w).max(), np.abs(back + w).max()) < 1e-8
    rng = np.random.default_rng(4)
    for _ in range(50):
        u = rng.normal(size=3)
        u /= np.linalg.norm(u)
        w = math.pi * u
        back = so3_log(so3_exp(w))
        assert min(np.abs(back - w).max(), np.abs(back + w).max()) < 1e-8


def test_so3_log_angle_in_closed_interval():
    rng = np.random.default_rng(5)
    for _ in range(50):
        w = so3_log(so3_exp(rand_rotvec(rng, lo=0.0, hi=3.141)))
        assert 0.0 <= np.linalg.norm(w) <= math.pi + 1e-12


def test_coordinate_route_matches_rodrigues():
    rng = np.random.default_rng(6)
    for _ in range(50):
        u = rng.normal(size=3)
        u /= np.linalg.norm(u)
        if u[0] ** 2 + u[1] ** 2 <= 1e-12:
            continue
        a = AxisAngle(u, rng.uniform(0, math.pi))
        assert np.abs(so3_exp_coordinate(a) - so3_exp(a.axis * a.angle)).max() < 1e-12


def test_factorization_moves_axis_to_z():
    a = AxisAngle(np.array([1.0, 2.0, 3.0]) / math.sqrt(14.0), 0.7)
    p = axis_angle_factorization(a)
    assert np.abs(p @ p.T - np.eye(3)).max() < 1e-14
    assert np.allclose(p[:, 2], a.axis, atol=1e-15)
    assert np.allclose(p @ rot_z(a.angle) @ p.T, so3_exp(a.axis * a.angle), atol=1e-14)


def test_factorization_rejects_z_axis():
    with pytest.raises(GeometryError):
        axis_angle_factorization(AxisAngle(np.array([0.0, 0.0, 1.0]), 0.5))


def test_axis_angle_validation():
    with pytest.raises(GeometryError):
        AxisAngle(np.array([1.0, 1.0, 0.0]), 0.5)  # not unit
    with pytest.raises(GeometryError):
        AxisAngle(np.array([1.0, 0.0, 0.0]), 4.0)  # angle beyond pi


def test_quat_exp_matches_matrix_exp():
    rng = np.random.default_rng(7)
    for _ in range(100):
        w = rand_rotvec(rng, lo=0.0, hi=3.1)
        qp = QuatPose(0.0, 0.0, 0.0, so3_exp_quat(w))
        assert np.abs(quat_to_matrix(qp).mat[:3, :3] - so3_exp(w)).max() < 1e-12


def test_quat_exp_small_angle_branch():
    q = so3_exp_quat(np.zeros(3))
    assert (q.qr, q.qx, q.qy, q.qz) == (1.0, 0.0, 0.0, 0.0)
    w = np.array([1e-6, -2e-6, 1.5e-6])
    q = so3_exp_quat(w)
    # half-angle vector to machine precision at tiny angles
    assert np.abs(np.array([q.qx, q.qy, q.qz]) - 0.5 * w).max() < 1e-18


def test_quat_log_round_trip():
    rng = np.random.default_rng(8)
    for _ in range(100):
        w = rand_rotvec(rng, lo=1e-9, hi=3.1)
        assert np.abs(so3_log_quat(so3_exp_quat(w)) - w).max() < 1e-9


def test_quat_log_agrees_with_matrix_log():
    rng = np.random.default_rng(9)
    for _ in range(50):
        w = rand_rotvec(rng, lo=0.05, hi=3.0)
        q = so3_exp_quat(w)
        assert np.abs(so3_log_quat(q) - so3_log(so3_exp(w))).max() < 1e-9


def test_se3_round_trip():
    rng = np.random.default_rng(10)
    for _ in range(200):
        v = np.concatenate([rng.uniform(-3, 3, 3), rand_rotvec(rng, lo=1e-8, hi=2.999)])
        assert np.abs(se3_log(se3_exp(v)) - v).max() < 1e-9


def test_se3_exp_pure_translation():
    v = np.array([1.5, -0.5, 2.0, 0.0, 0.0, 0.0])
    m = se3_exp(v).mat
    assert np.array_equal(m[:3, :3], np.eye(3))
    assert np.allclose(m[:3, 3], v[:3], atol=1e-15)


def test_se3_log_raises_near_half_turn():
    w = math.pi * np.array([1.0, 0.0, 0.0])
    m = HomPose.from_rt(so3_exp(w), np.array([1.0, 2.0, 3.0]))
    with pytest.raises(NearPiRotationError):
        se3_log(m)


def test_pseudo_maps_mutual_inverse():
    rng = np.random.default_rng(11)
    for _ in range(200):
        v = np.concatenate([rng.uniform(-3, 3, 3), rand_rotvec(rng, lo=0.0, hi=3.1)])
        assert np.abs(se3_pseudo_log(se3_pseudo_exp(v)) - v).max() < 1e-12
        m = HomPose.from_rt(so3_exp(rand_rotvec(rng, lo=0.0, hi=3.0)),
                            rng.uniform(-3, 3, 3))
        assert np.abs(se3_pseudo_exp(se3_pseudo_log(m)).mat - m.mat).max() < 1e-12
    # a stack (2, 10, 4, 4) gives each matrix's own pseudo-log
    mats = np.array([se3_pseudo_exp(np.concatenate([rng.uniform(-3, 3, 3),
                                                    rand_rotvec(rng, lo=0.0, hi=3.1)])).mat
                     for _ in range(20)]).reshape(2, 10, 4, 4)
    logs = se3_pseudo_log(mats)
    assert logs.shape == (2, 10, 6)
    assert all(np.array_equal(logs[i, j], se3_pseudo_log(mats[i, j]))
               for i in range(2) for j in range(10))


def test_pseudo_exp_keeps_translation_verbatim():
    v = np.array([0.2, -0.7, 1.1, 0.4, -0.2, 0.9])
    m = se3_pseudo_exp(v).mat
    assert np.array_equal(m[:3, 3], v[:3])
    assert np.abs(m[:3, :3] - so3_exp(v[3:])).max() < 1e-15


def test_se2_round_trip():
    rng = np.random.default_rng(12)
    for _ in range(200):
        v = np.array([rng.uniform(-3, 3), rng.uniform(-3, 3), rng.uniform(-3.1, 3.1)])
        assert np.abs(se2_log(se2_exp(v)) - v).max() < 1e-10


def test_se2_exp_structure():
    v = np.array([1.0, 2.0, 0.5])
    m = se2_exp(v).mat
    c, s = math.cos(0.5), math.sin(0.5)
    assert np.allclose(m[:2, :2], [[c, -s], [s, c]], atol=1e-15)
    assert np.array_equal(m[2], [0.0, 0.0, 1.0])
    # zero angle: translation passes through
    m0 = se2_exp(np.array([1.0, 2.0, 0.0])).mat
    assert np.allclose(m0[:2, 2], [1.0, 2.0], atol=1e-15)


def test_se2_small_angle_branch():
    v = np.array([0.3, -0.4, 1e-9])
    assert np.abs(se2_log(se2_exp(v)) - v).max() < 1e-12


def test_se2_pseudo_maps():
    rng = np.random.default_rng(13)
    for _ in range(100):
        v = np.array([rng.uniform(-3, 3), rng.uniform(-3, 3), rng.uniform(-3.1, 3.1)])
        assert np.abs(se2_pseudo_log(se2_pseudo_exp(v)) - v).max() < 1e-12
    m = se2_pseudo_exp(np.array([1.0, 2.0, 0.7])).mat
    assert np.array_equal(m[:2, 2], [1.0, 2.0])
    # a stack (2, 10, 3, 3) gives each matrix's own pseudo-log
    mats = np.array([se2_pseudo_exp(rng.uniform(-3.1, 3.1, 3)).mat
                     for _ in range(20)]).reshape(2, 10, 3, 3)
    logs = se2_pseudo_log(mats)
    assert logs.shape == (2, 10, 3)
    assert all(np.array_equal(logs[i, j], se2_pseudo_log(mats[i, j]))
               for i in range(2) for j in range(10))


# rotation angles below the Taylor switch at 1e-4, generic, and within
# 1e-7 of a half turn
@pytest.mark.parametrize("lo, hi", [(0.0, 9.9e-5), (1e-4, 3.0), (np.pi - 1e-7, np.pi)])
def test_stacked_pseudo_exp_matches_the_scalar_maps(lo, hi):
    rng = np.random.default_rng([14, int(hi * 1e6)])
    axes = rng.normal(size=(200, 3))
    angles = rng.uniform(lo, hi, 200)
    angles[:2] = lo, hi
    v3 = np.column_stack([rng.uniform(-3, 3, (200, 3)),
                          axes / np.linalg.norm(axes, axis=1, keepdims=True) * angles[:, None]])
    v2 = np.column_stack([rng.uniform(-3, 3, (200, 2)), angles * rng.choice([-1.0, 1.0], 200)])
    for v, scalar in ((v3, se3_pseudo_exp), (v2, se2_pseudo_exp)):
        stack = _pseudo_exp(v)
        assert stack.shape == (200,) + scalar(v[0]).mat.shape
        for row, m in zip(v, stack):
            assert np.abs(m - scalar(row).mat).max() <= 1e-14


def test_exp_log_types():
    assert isinstance(se3_exp(np.zeros(6)), HomPose)
    assert isinstance(se2_exp(np.zeros(3)), HomPose2)
    assert isinstance(se3_pseudo_exp(np.zeros(6)), HomPose)
    assert isinstance(se2_pseudo_exp(np.zeros(3)), HomPose2)


@given(st.floats(-3.1, 3.1), st.floats(-3.1, 3.1), st.floats(-3.1, 3.1))
def test_se2_log_inverts_exp_property(x, y, th):
    v = np.array([x, y, th])
    assert np.abs(se2_log(se2_exp(v)) - v).max() < 1e-9


@given(st.floats(0.01, 3.0), st.integers(0, 1000))
def test_so3_round_trip_property(theta, pick):
    rng = np.random.default_rng(pick)
    u = rng.normal(size=3)
    u /= np.linalg.norm(u)
    w = theta * u
    assert np.abs(so3_log(so3_exp(w)) - w).max() < 1e-9


def test_log_of_exact_rotation_angle():
    # rotation angle survives the round trip exactly enough to re-measure
    rng = np.random.default_rng(14)
    for _ in range(20):
        w = rand_rotvec(rng, lo=0.2, hi=3.0)
        r = so3_exp(w)
        assert abs(rot_angle(r) - np.linalg.norm(w)) < 1e-7
