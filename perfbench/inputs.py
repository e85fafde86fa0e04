"""Benchmark inputs and output checks, written without importing rigidkit.

Graphs: the same constructions and noise draws as ``synth_graph`` (circle2d,
grid2d, sphere3d with sigmas (0.05, 0.01)), rendered as g2o text with the
same float formatting as ``format_g2o``.  With ``relabel_seed=None`` the
text is byte-identical to ``write_g2o(synth_graph(...)[1])``;
``check_generator.py`` verifies that.  The benchmark's ``--seed`` renames
the vertices with increasing ids that have random gaps and shuffles the
vertex records.  The solver orders coordinates by id and sums over edges
in file order, so every seed poses the same problem, computed bit for bit
the same way.  A permutation of the ids or of the edges would not: it
changes rounding, and at the solver's rounding floor that changes how
many Levenberg-Marquardt trials are rejected (1 to 22 on grid2d-2025).

Checks: an independent g2o reader and a vectorized chi2 used to verify
what the program writes.
"""

import math

import numpy as np

SIGMAS = (0.05, 0.01)


# ---------------------------------------------------------------------------
# pose arithmetic, mirroring the library operation for operation so that
# the generated text matches it bit for bit

def _xyt(x, y, theta):
    c, s = np.cos(theta), np.sin(theta)
    return np.array([[c, -s, float(x)], [s, c, float(y)], [0.0, 0.0, 1.0]])


def _rt(r, t):
    m = np.eye(4)
    m[:3, :3] = np.asarray(r, dtype=float)
    m[:3, 3] = np.asarray(t, dtype=float)
    return m


def _inv2(m):
    r = m[:2, :2]
    out = np.eye(3)
    out[:2, :2] = r.T
    out[:2, 2] = -r.T @ m[:2, 2]
    return out


def _inv3(m):
    r = m[:3, :3]
    t = m[:3, 3]
    out = np.eye(4)
    out[:3, :3] = r.T
    out[:3, 3] = -r.T @ t
    return out


def _hat(w):
    x, y, z = w
    return np.array([[0.0, -z, y], [z, 0.0, -x], [-y, x, 0.0]])


def rotvec_to_matrix(w):
    """Rodrigues formula with the library's small-angle branch."""
    theta = np.linalg.norm(w)
    k = _hat(w)
    if abs(theta) < 1e-4:
        t2 = theta * theta
        a = 1.0 - t2 / 6.0 + t2 * t2 / 120.0
        b = 0.5 - t2 / 24.0 + t2 * t2 / 720.0
    else:
        a = np.sin(theta) / theta
        b = (1.0 - np.cos(theta)) / (theta * theta)
    return np.eye(3) + a * k + b * (k @ k)


def _exp2(v):
    c, s = np.cos(v[2]), np.sin(v[2])
    m = np.eye(3)
    m[:2, :2] = np.array([[c, -s], [s, c]])
    m[:2, 2] = v[:2]
    return m


def _exp3(v):
    m = np.eye(4)
    m[:3, :3] = rotvec_to_matrix(v[3:])
    m[:3, 3] = v[:3]
    return m


def _wrap(a):
    return float(np.arctan2(np.sin(a), np.cos(a)))


def _circle2d(n):
    poses = []
    for i in range(n):
        a = 2.0 * np.pi * i / n
        poses.append(_xyt(10.0 * np.cos(a), 10.0 * np.sin(a), _wrap(a + 0.5 * np.pi)))
    return poses, [(i, i + 1) for i in range(n - 1)] + [(n - 1, 0)]


def _grid2d(n):
    side = int(np.ceil(np.sqrt(n)))
    poses, cells = [], []
    for k in range(n):
        row, col = divmod(k, side)
        x = col if row % 2 == 0 else side - 1 - col
        poses.append(_xyt(2.0 * x, 2.0 * row, 0.0 if row % 2 == 0 else np.pi))
        cells.append((x, row))
    index = {c: k for k, c in enumerate(cells)}
    pairs = [(i, i + 1) for i in range(n - 1)]
    for k, (x, row) in enumerate(cells):
        above = index.get((x, row + 1))
        if above is not None and above != k + 1:
            pairs.append((k, above))
    return poses, pairs


def _sphere3d(n):
    poses = []
    for i in range(n):
        a = 2.0 * np.pi * i / n
        c, s = np.cos(a), np.sin(a)
        yaw = a + 0.5 * np.pi
        cy, sy = np.cos(yaw), np.sin(yaw)
        tilt = 0.15 * np.sin(2.0 * a)
        ct, st = np.cos(tilt), np.sin(tilt)
        rot = (np.array([[cy, -sy, 0.0], [sy, cy, 0.0], [0.0, 0.0, 1.0]])
               @ np.array([[ct, 0.0, st], [0.0, 1.0, 0.0], [-st, 0.0, ct]]))
        poses.append(_rt(rot, np.array([8.0 * c, 8.0 * s, 0.2 * i])))
    return poses, [(i, i + 1) for i in range(n - 1)] + [(n - 1, 0)]


_KINDS = {"circle2d": _circle2d, "grid2d": _grid2d, "sphere3d": _sphere3d}


def noisy_graph(kind, n, noise_seed):
    """(planar, vertex matrices, [(i, j, measurement)], information).

    Vertex 0 is the fixed one; the others are dead-reckoned along the
    noisy odometry chain.
    """
    poses, pairs = _KINDS[kind](n)
    rng = np.random.default_rng(noise_seed)
    sig_t, sig_r = SIGMAS
    planar = poses[0].shape == (3, 3)
    if planar:
        info = np.diag([1.0 / sig_t ** 2, 1.0 / sig_t ** 2, 1.0 / sig_r ** 2])
        inv, pexp, dt, dr = _inv2, _exp2, 2, 1
    else:
        info = np.diag([1.0 / sig_t ** 2] * 3 + [1.0 / sig_r ** 2] * 3)
        inv, pexp, dt, dr = _inv3, _exp3, 3, 3
    estimates = {0: poses[0]}
    edges = []
    for i, j in pairs:
        delta = inv(poses[i]) @ poses[j]
        xi = np.concatenate([rng.normal(0.0, sig_t, size=dt),
                             rng.normal(0.0, sig_r, size=dr)])
        meas = delta @ pexp(xi)
        edges.append((i, j, meas))
        if j == i + 1 and i in estimates and j not in estimates:
            estimates[j] = estimates[i] @ meas
    vertices = [estimates[v] for v in range(n)]
    return planar, vertices, edges, 0.5 * (info + info.T)


# ---------------------------------------------------------------------------
# g2o text

def _f(v):
    return "%.17g" % float(v)


def _quat_from_rotation(r):
    """Scalar-first unit quaternion, largest-pivot square-root form."""
    tr = r[0, 0] + r[1, 1] + r[2, 2]
    k = int(np.argmax([tr, r[0, 0], r[1, 1], r[2, 2]]))
    if k == 0:
        s = math.sqrt(1.0 + tr) * 2.0
        q = np.array([0.25 * s, (r[2, 1] - r[1, 2]) / s,
                      (r[0, 2] - r[2, 0]) / s, (r[1, 0] - r[0, 1]) / s])
    elif k == 1:
        s = math.sqrt(1.0 + r[0, 0] - r[1, 1] - r[2, 2]) * 2.0
        q = np.array([(r[2, 1] - r[1, 2]) / s, 0.25 * s,
                      (r[0, 1] + r[1, 0]) / s, (r[0, 2] + r[2, 0]) / s])
    elif k == 2:
        s = math.sqrt(1.0 - r[0, 0] + r[1, 1] - r[2, 2]) * 2.0
        q = np.array([(r[0, 2] - r[2, 0]) / s, (r[0, 1] + r[1, 0]) / s,
                      0.25 * s, (r[1, 2] + r[2, 1]) / s])
    else:
        s = math.sqrt(1.0 - r[0, 0] - r[1, 1] + r[2, 2]) * 2.0
        q = np.array([(r[1, 0] - r[0, 1]) / s, (r[0, 2] + r[2, 0]) / s,
                      (r[1, 2] + r[2, 1]) / s, 0.25 * s])
    return -q if q[0] < 0 else q


def _pose_fields(m, planar):
    if planar:
        return [m[0, 2], m[1, 2], float(np.arctan2(m[1, 0], m[0, 0]))]
    q = _quat_from_rotation(m[:3, :3])
    return [m[0, 3], m[1, 3], m[2, 3], q[1], q[2], q[3], q[0]]


def g2o_text(kind, n, noise_seed, relabel_seed=None):
    """g2o text of the noisy ``kind`` graph.

    relabel_seed=None keeps ``format_g2o``'s layout (ids 0..n-1 in order).
    Otherwise the ids get random gaps and the vertex records a random
    order, both drawn from ``relabel_seed``; edges keep their order.
    """
    planar, vertices, edges, info = noisy_graph(kind, n, noise_seed)
    if relabel_seed is None:
        label = np.arange(n)
        order = np.arange(n)
    else:
        rng = np.random.default_rng(relabel_seed)
        label = np.cumsum(rng.integers(1, 8, size=n)) - 1
        order = rng.permutation(n)
    vtag, etag = ("VERTEX_SE2", "EDGE_SE2") if planar else ("VERTEX_SE3:QUAT", "EDGE_SE3:QUAT")
    dim = info.shape[0]
    info_fields = " ".join(_f(info[r, c]) for r in range(dim) for c in range(r, dim))
    out = []
    for old in order:
        out.append("%s %d %s" % (vtag, label[old],
                                 " ".join(_f(v) for v in _pose_fields(vertices[old], planar))))
    out.append("FIX %d" % label[0])
    for i, j, meas in edges:
        out.append("%s %d %d %s %s" % (etag, label[i], label[j],
                                       " ".join(_f(v) for v in _pose_fields(meas, planar)),
                                       info_fields))
    return "\n".join(out) + "\n"


# ---------------------------------------------------------------------------
# independent reader and chi2

class Graph:
    """Parsed g2o content: vertices by id, fixed ids, edge arrays."""

    def __init__(self, planar, vertices, fixed, ei, ej, meas, info):
        self.planar = planar
        self.vertices = vertices
        self.fixed = fixed
        self.ei, self.ej = ei, ej
        self.meas, self.info = meas, info

    def chi2(self):
        """Sum of e^T Lambda e, e = pseudo_log(D^-1 Pi^-1 Pj)."""
        pi = np.stack([self.vertices[i] for i in self.ei])
        pj = np.stack([self.vertices[j] for j in self.ej])
        d = 2 if self.planar else 3
        t = _stack_inv(self.meas, d) @ _stack_inv(pi, d) @ pj
        if self.planar:
            e = np.column_stack([t[:, 0, 2], t[:, 1, 2], np.arctan2(t[:, 1, 0], t[:, 0, 0])])
        else:
            e = np.column_stack([t[:, :3, 3], _so3_log(t[:, :3, :3])])
        return float(np.einsum("ei,eij,ej->", e, self.info, e))


def _stack_inv(m, d):
    out = np.zeros_like(m)
    rt = np.swapaxes(m[:, :d, :d], 1, 2)
    out[:, :d, :d] = rt
    out[:, :d, d] = -np.einsum("eij,ej->ei", rt, m[:, :d, d])
    out[:, d, d] = 1.0
    return out


def _so3_log(r):
    tr = np.trace(r, axis1=1, axis2=2)
    theta = np.arccos(np.clip(0.5 * (tr - 1.0), -1.0, 1.0))
    if np.any(theta > np.pi - 1e-3):
        raise ValueError("residual rotation too close to a half turn to check")
    raw = np.column_stack([r[:, 2, 1] - r[:, 1, 2], r[:, 0, 2] - r[:, 2, 0],
                           r[:, 1, 0] - r[:, 0, 1]])
    t2 = theta * theta
    small = theta < 1e-4
    scale = np.where(small, 0.5 * (1.0 + t2 / 6.0 + 7.0 * t2 * t2 / 360.0),
                     theta / (2.0 * np.sin(np.where(small, 1.0, theta))))
    return scale[:, None] * raw


def _rot_from_quat(qx, qy, qz, qw):
    n = math.sqrt(qx * qx + qy * qy + qz * qz + qw * qw)
    w, x, y, z = qw / n, qx / n, qy / n, qz / n
    return np.array([
        [w * w + x * x - y * y - z * z, 2 * (x * y - w * z), 2 * (z * x + w * y)],
        [2 * (x * y + w * z), w * w - x * x + y * y - z * z, 2 * (y * z - w * x)],
        [2 * (z * x - w * y), 2 * (y * z + w * x), w * w - x * x - y * y + z * z]])


def _pose(vals, planar):
    if planar:
        return _xyt(*vals)
    return _rt(_rot_from_quat(*vals[3:7]), vals[:3])


def _upper(vals, dim):
    m = np.zeros((dim, dim))
    m[np.triu_indices(dim)] = vals
    return m + np.triu(m, 1).T


def parse_g2o(text):
    """Read g2o text as written by the generator or by ``format_g2o``.

    Raises ValueError on anything else, naming the line.
    """
    vertices, fixed, ei, ej, meas, info = {}, set(), [], [], [], []
    planar = None
    for num, line in enumerate(text.splitlines(), start=1):
        tok = line.split()
        if not tok:
            continue
        tag = tok[0]
        is_planar = tag in ("VERTEX_SE2", "EDGE_SE2")
        if tag.startswith(("VERTEX_", "EDGE_")):
            if planar is None:
                planar = is_planar
            elif planar != is_planar:
                raise ValueError("line %d: mixed planar and 3D records" % num)
        vals = [float(v) for v in tok[1:]]
        if tag in ("VERTEX_SE2", "VERTEX_SE3:QUAT") and len(vals) == (4 if planar else 8):
            vertices[int(tok[1])] = _pose(vals[1:], planar)
        elif tag in ("EDGE_SE2", "EDGE_SE3:QUAT") and len(vals) == (11 if planar else 30):
            dim, k = (3, 3) if planar else (6, 7)
            ei.append(int(tok[1]))
            ej.append(int(tok[2]))
            meas.append(_pose(vals[2:2 + k], planar))
            info.append(_upper(vals[2 + k:], dim))
        elif tag == "FIX" and len(vals) >= 1:
            fixed.update(int(v) for v in tok[1:])
        else:
            raise ValueError("line %d: unexpected record %r" % (num, line[:40]))
    if not vertices or not ei:
        raise ValueError("no vertices or no edges")
    return Graph(planar, vertices, fixed, ei, ej, np.stack(meas), np.stack(info))


def same_problem(a, b, tol=1e-9):
    """True when b keeps a's vertex ids, fixed poses, edges and weights."""
    if set(a.vertices) != set(b.vertices) or a.fixed != b.fixed:
        return False
    if a.ei != b.ei or a.ej != b.ej:
        return False
    if any(np.max(np.abs(a.vertices[v] - b.vertices[v])) > tol for v in a.fixed):
        return False
    return (np.max(np.abs(a.meas - b.meas)) <= tol
            and np.max(np.abs(a.info - b.info)) <= tol * np.max(np.abs(a.info)))
