"""The scalar-kit mix: single-pose calls with stored reference results.

A fixed pool of cases is generated from ``POOL_SEED`` without rigidkit.
Each case holds the inputs of one call to each operation in ``OPS``.  A
run calls the operations on ``PER_RUN`` cases drawn from the pool by the
benchmark seed.  ``kit_refs.json`` stores, per pool case and operation, a
fingerprint of today's result: its length, a weighted sum of all its
numbers, and the weighted sum of their magnitudes, which sets the
tolerance.

Regenerate the references only when a result is meant to change:
    PYTHONPATH=src python3 perfbench/kit.py --write-refs
"""

import json
import sys
from pathlib import Path

import numpy as np

import inputs

POOL_SEED = 20210330
POOL_SIZE = 96
PER_RUN = 64
REL_TOL = 1e-9
REFS = Path(__file__).with_name("kit_refs.json")

OPS = ("core.pose_ctor", "core.convert_gaussian", "geometry.compose_pose_quat",
       "geometry.propagate_binary", "matderiv.inverse_rt", "lie.pseudo_exp",
       "lie.so3_log", "manifold_jac.edge_error", "vision.project_pose_point")

_WEIGHTS = np.random.default_rng(7).uniform(0.5, 1.5, size=256)


def _rotvec(rng, lo=0.05, hi=2.8):
    axis = rng.normal(size=3)
    return axis / np.linalg.norm(axis) * rng.uniform(lo, hi)


def _pose(rng):
    m = np.eye(4)
    m[:3, :3] = inputs.rotvec_to_matrix(_rotvec(rng))
    m[:3, 3] = rng.normal(0.0, 2.0, size=3)
    return m


def _quat_pose(rng):
    q = rng.normal(size=4)
    q /= np.linalg.norm(q)
    return list(rng.normal(0.0, 2.0, size=3)) + list(q if q[0] >= 0 else -q)


def _spd(rng, dim, scale):
    a = rng.normal(0.0, scale, size=(dim, dim))
    c = a @ a.T
    return 0.5 * (c + c.T)


def _case(rng, k):
    pose = _pose(rng)
    ypr = list(rng.normal(0.0, 2.0, size=3)) + [
        rng.uniform(-3.0, 3.0), rng.uniform(-1.2, 1.2), rng.uniform(-3.0, 3.0)]
    # so3_log branches: tiny angle, within 1e-6 of a half turn, generic
    angle = {0: 1e-6, 1: np.pi - 1e-7}.get(k % 8, rng.uniform(0.05, 3.0))
    p1, p2 = _pose(rng), _pose(rng)
    noise = np.concatenate([rng.normal(0.0, 0.05, size=3), rng.normal(0.0, 0.02, size=3)])
    meas = inputs._inv3(p1) @ p2 @ inputs._exp3(noise)
    cam = _pose(rng)
    local = np.array([rng.uniform(-1.0, 1.0), rng.uniform(-1.0, 1.0), rng.uniform(1.0, 6.0)])
    world = cam[:3, :3].T @ (local - cam[:3, 3])
    intrinsics = [rng.uniform(300, 600), rng.uniform(300, 600),
                  rng.uniform(200, 400), rng.uniform(150, 300)]
    return {
        "mat": pose.tolist(), "ypr": ypr, "cov6": _spd(rng, 6, 0.01).tolist(),
        "q1": _quat_pose(rng), "q2": _quat_pose(rng),
        "cov7a": _spd(rng, 7, 0.01).tolist(), "cov7b": _spd(rng, 7, 0.01).tolist(),
        "tangent": list(rng.normal(0.0, 1.0, size=3)) + list(_rotvec(rng)),
        "rot": inputs.rotvec_to_matrix(_rotvec(rng, angle, angle)).tolist(),
        "edge": [meas.tolist(), p1.tolist(), p2.tolist()],
        "camera": [intrinsics, cam.tolist(), world.tolist()],
    }


def pool():
    rng = np.random.default_rng(POOL_SEED)
    return [_case(rng, k) for k in range(POOL_SIZE)]


def select(seed, count=PER_RUN):
    """Pool indices used by a run with this seed."""
    rng = np.random.default_rng([seed, 1])
    return [int(i) for i in rng.choice(POOL_SIZE, size=count, replace=False)]


def build(rk, case):
    """[(op, function, args)] for one case; rk is the rigidkit package."""
    a = np.array
    quat1, quat2 = rk.QuatPose.from_vec(case["q1"]), rk.QuatPose.from_vec(case["q2"])
    intrinsics, cam, world = case["camera"]
    return [
        ("core.pose_ctor", rk.HomPose, (a(case["mat"]),)),
        ("core.convert_gaussian", rk.convert_gaussian,
         (rk.GaussianPose(rk.EulerPose.from_vec(case["ypr"]), a(case["cov6"])), "quat")),
        ("geometry.compose_pose_quat", rk.compose_pose_quat, (quat1, quat2)),
        ("geometry.propagate_binary", rk.propagate_binary,
         ("compose", rk.GaussianPose(quat1, a(case["cov7a"])),
          rk.GaussianPose(quat2, a(case["cov7b"])))),
        ("matderiv.inverse_rt", rk.inverse_rt, (a(case["mat"]),)),
        ("lie.pseudo_exp", rk.se3_pseudo_exp, (a(case["tangent"]),)),
        ("lie.so3_log", rk.so3_log, (a(case["rot"]),)),
        ("manifold_jac.edge_error", rk.edge_error_se3,
         tuple(rk.HomPose(a(m)) for m in case["edge"])),
        ("vision.project_pose_point", rk.project_pose_point,
         (rk.CameraIntrinsics(*intrinsics), rk.HomPose(a(cam)), a(world))),
    ]


def _numbers(x):
    if isinstance(x, (tuple, list)):
        return np.concatenate([_numbers(v) for v in x])
    for fields in (("mat",), ("mean", "cov"), ("error", "jac1", "jac2"), ("vec",)):
        if all(hasattr(x, f) for f in fields):
            return np.concatenate([_numbers(getattr(x, f)) for f in fields])
    return np.ravel(np.asarray(x, dtype=float))


def fingerprint(result):
    v = _numbers(result)
    w = _WEIGHTS[:v.size]
    return [int(v.size), float(w @ v), float(w @ np.abs(v))]


def matches(fp, ref):
    return (fp[0] == ref[0] and np.isfinite(fp[1])
            and abs(fp[1] - ref[1]) <= REL_TOL * ref[2] + 1e-12)


def load_refs():
    with open(REFS, encoding="ascii") as fh:
        return json.load(fh)


def main(argv):
    if argv != ["--write-refs"]:
        print(__doc__)
        return 2
    import rigidkit as rk

    refs = {op: [] for op in OPS}
    for case in pool():
        for op, fn, args in build(rk, case):
            refs[op].append(fingerprint(fn(*args)))
    rows = ",\n".join("%s: %s" % (json.dumps(op), json.dumps(fps)) for op, fps in refs.items())
    with open(REFS, "w", encoding="ascii") as fh:
        fh.write('{"pool_seed": %d, "ops": {\n%s}}\n' % (POOL_SEED, rows))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
