"""Pose-graph least squares over planar or 3D rigid poses.

A graph holds vertices (poses indexed by integer id), relative-pose
edges with information matrices, and a set of fixed vertices that pin
the gauge freedom.  Optimization is on-manifold: each free vertex is
updated multiplicatively, P <- P @ pseudo_exp(delta), with delta ordered
translation-first.

The solver works on a packed copy of the graph: the vertex matrices as
one (V, 4, 4) or (V, 3, 3) array in ascending id, each edge as the rows
I, J of its endpoints, and the inverted measurements and information
matrices stacked per edge.  One batched pass gives every edge residual
and both Jacobians; they are the closed forms of
:func:`rigidkit.manifold_jac.edge_error_se3` / ``edge_error_se2``, which
stay the per-edge reference.  chi2 and the normal equations share that
residual.  Its SE(3) rotation part is :func:`so3_log` of the residual
rotation, and the Jacobians' rotation block is the right-Jacobian
inverse of that log; both are accurate at every angle, so an edge at or
near a half turn is solved like any other.  The rigid primitives are
the stack forms of the scalar functions, not copies of them:
the unchecked bodies of :func:`matderiv.inverse_rt` and
:func:`matderiv.hat3`, ``manifold_jac._relative`` for the residual
transform, ``lie._pseudo_log`` for the residual and ``lie._pseudo_exp``
for the retraction; none checks its arguments.  Poses inside a solve
are plain arrays: they become HomPose / HomPose2 objects only in the
graph a public call returns, after one batched check of the free rows
with the pose constructors' tests and tolerances, and fixed vertices
keep their original objects.  The public calls pack their argument on
each call; :func:`optimize` packs once.

chi2 is sum over edges of e^T Lambda e.  The normal equations accumulate
H = sum J^T Lambda J and b = sum J^T Lambda e, so the gradient of chi2
with respect to the stacked increments is exactly 2 b, and a step solves
H delta = -b (Gauss-Newton) or (H + lambda I) delta = -b
(Levenberg-Marquardt).  Levenberg-Marquardt multiplies lambda by
lm_factor per rejected trial and divides it by lm_factor after an
accepted step.  An accepted step that lowers chi2 by less than 10% is
refit along its direction: the minimum of the parabola through chi2 at
0 and at delta with slope 2 b.delta at 0, one retraction and one chi2
without a factorization, replaces delta if it is lower.  Near the
optimum, where the true curvature along delta exceeds the model's and
every full step overshoots, this takes fewer factorizations; lambda's
schedule does not see it.  The blocks are summed into a CSR H through a
scatter pattern computed once per graph from the edge endpoints.

Every system is factored by a symmetric-mode sparse LU (minimum-degree
ordering, diagonal pivots), accepted if all pivots are diagonal and > 0.
scipy is imported at the first assembly of H, so importing the package,
reading g2o files and the pose commands never load it.
"""

import dataclasses
import functools
import heapq
from dataclasses import dataclass

import numpy as np

from .core import HomPose, HomPose2, _first_failure, _rigid_checks
from .errors import GeometryError, RankDeficiencyError
from .lie import _pseudo_exp, _pseudo_log, _vinv_coeff, se2_pseudo_exp, se3_pseudo_exp
from .manifold_jac import _relative
from .matderiv import _hat3, _inverse_rt

_DENSE_LIMIT = 1500
_LM_MAX_LAMBDA = 1e12
_CHI2_RTOL = 1e-7
# an accepted LM step that lowers chi2 by less than this share is refit
# along its direction (_fit_along)
_FIT_GAIN = 0.1


# edge messages, formatted with {"i": i, "j": j, "d": block size}
_NO_ENDPOINT_I = "PoseGraph: edge endpoint %(i)d is not a vertex"
_NO_ENDPOINT_J = "PoseGraph: edge endpoint %(j)d is not a vertex"
_WRONG_TYPE = "PoseGraph: edge (%(i)d, %(j)d) measurement has the wrong pose type"
_NOT_FINITE = "PoseGraph: edge (%(i)d, %(j)d) information must be a finite %(d)dx%(d)d matrix"


def _information_checks(info):
    """The symmetrized stack info (E, d, d) and add_edge's tests on it.

    The tests, for :func:`core._first_failure`, in the order add_edge
    applies them: finite (the input, its symmetrized form and its
    eigenvalues, any of which can overflow), symmetric to 1e-9, and
    positive semidefinite, i.e. smallest eigenvalue >= -1e-9 * the largest.
    """
    info_t = np.swapaxes(info, 1, 2)
    with np.errstate(over="ignore", invalid="ignore"):
        symmetric = np.abs(info - info_t).max(axis=(1, 2)) <= 1e-9
        info = 0.5 * (info + info_t)
    finite = np.isfinite(info).all(axis=(1, 2))
    info = np.where(finite[:, None, None], info, 0.0)  # eigvalsh raises on NaN
    w = np.linalg.eigvalsh(info)
    finite &= np.isfinite(w).all(axis=1)
    info.setflags(write=False)
    return info, [
        (finite, _NOT_FINITE),
        (symmetric, "PoseGraph: edge (%(i)d, %(j)d) information matrix is not symmetric"),
        (~(w[:, 0] < -1e-9 * w[:, -1]),
         "PoseGraph: edge (%(i)d, %(j)d) information matrix is not positive semidefinite"),
    ]


@dataclass(frozen=True)
class Edge:
    """Relative-pose measurement: vertex j as seen from vertex i."""

    i: int
    j: int
    delta: object
    information: np.ndarray


def _check_lm(name, value, floor):
    """value as a float, or GeometryError unless it is finite and > floor."""
    value = float(value)
    if not (np.isfinite(value) and value > floor):
        raise GeometryError("%s must be finite and > %g, got %r" % (name, floor, value))
    return value


@dataclass(frozen=True)
class SolverConfig:
    """Settings for :func:`step` and :func:`optimize`.

    lm_initial_lambda must be finite and > 0, and lm_factor finite and
    > 1, whatever the method: otherwise lambda would never pass the
    1e12 that ends a run of rejected trials.
    """

    method: str = "levenberg-marquardt"
    max_iterations: int = 50
    epsilon_gradient: float = 1e-8
    epsilon_update: float = 1e-10
    lm_initial_lambda: float = 1e-4
    lm_factor: float = 10.0

    def __post_init__(self):
        if self.method not in ("gauss-newton", "levenberg-marquardt"):
            raise GeometryError(
                "SolverConfig: method must be 'gauss-newton' or 'levenberg-marquardt'")
        _check_lm("SolverConfig: lm_initial_lambda", self.lm_initial_lambda, 0.0)
        _check_lm("SolverConfig: lm_factor", self.lm_factor, 1.0)


@dataclass(frozen=True)
class IterationStats:
    """Snapshot after one accepted step: chi2 is the value afterwards.

    update_norm is the norm of the step applied, and lambda_ the damping
    of the trial accepted.  ``rejected`` counts the Levenberg-Marquardt
    trials rejected before this step, failed factorizations included; a
    step that found no decreasing lambda has update_norm 0 and counts
    every trial it made.
    """

    iteration: int
    chi2: float
    update_norm: float
    lambda_: float
    rejected: int = 0


class PoseGraph:
    """Vertices, relative-pose edges, and the fixed-vertex gauge set.

    The graph is homogeneous: either all vertices are HomPose (3D, block
    size 6) or all are HomPose2 (planar, block size 3).
    """

    def __init__(self):
        self.vertices = {}
        self.edges = []
        self.fixed = set()
        self._kind = None

    @property
    def kind(self):
        """'se2' | 'se3' | None while empty."""
        return self._kind

    @property
    def block_size(self):
        return 3 if self._kind == "se2" else 6

    def add_vertex(self, vid, pose, fixed=False):
        vid = int(vid)
        if vid in self.vertices:
            raise GeometryError("PoseGraph: duplicate vertex id %d" % vid)
        kind = self._pose_kind(pose)
        if self._kind is None:
            self._kind = kind
        elif kind != self._kind:
            raise GeometryError(
                "PoseGraph: cannot mix planar and 3D vertices (vertex %d)" % vid)
        self.vertices[vid] = pose
        if fixed:
            self.fixed.add(vid)

    def fix(self, vid):
        if vid not in self.vertices:
            raise GeometryError("PoseGraph: cannot fix unknown vertex %d" % vid)
        self.fixed.add(int(vid))

    def add_edge(self, i, j, delta, information):
        i, j = int(i), int(j)
        for vid, msg in ((i, _NO_ENDPOINT_I), (j, _NO_ENDPOINT_J)):
            if vid not in self.vertices:
                raise GeometryError(msg % {"i": i, "j": j})
        if self._pose_kind(delta) != self._kind:
            raise GeometryError(_WRONG_TYPE % {"i": i, "j": j})
        d = self.block_size
        info = np.array(information, dtype=float)
        if info.shape != (d, d):
            raise GeometryError(_NOT_FINITE % {"i": i, "j": j, "d": d})
        info, checks = _information_checks(info[None])
        fault = _first_failure(checks)
        if fault is not None:
            raise GeometryError(fault[1] % {"i": i, "j": j, "d": d})
        self.edges.append(Edge(i, j, delta, info[0]))

    @classmethod
    def _bulk(cls, vertices, edges, fixed):
        """A graph from records in source order, with the rules of the public calls.

        Each record carries its position ``at`` in the source (a line
        number, say), ascending within a group:

        * vertices: groups (at, ids, poses), poses already valid;
        * edges: groups (at, i, j, deltas, information), information a
          stack (E, d, d);
        * fixed: (at, ids) records.

        A vertex, edge or fixed id must come after the vertices it names,
        ids are unique, planar and 3D records do not mix, and information
        matrices must pass :meth:`add_edge`'s checks (run batched here).

        Returns
        -------
        (PoseGraph, fault)
            fault is None, or (at, message) of the first record that
            :meth:`add_vertex`, :meth:`add_edge` or :meth:`fix` would
            reject, with their message; the graph is then incomplete.
        """
        g = cls()
        defined = {}  # id: at
        faults = []
        # every group's records, merged in source order
        for at, vid, pose in heapq.merge(*(zip(*grp) for grp in vertices)):
            try:
                g.add_vertex(vid, pose)
            except GeometryError as exc:
                faults.append((at, str(exc)))
                break
            defined[vid] = at
        missing = float("inf")
        streams = []
        for at, i, j, deltas, info in edges:
            ok_i = np.array([defined.get(v, missing) for v in i]) < at
            ok_j = np.array([defined.get(v, missing) for v in j]) < at
            kind_ok = np.full(len(at), len(deltas) == 0 or g._pose_kind(deltas[0]) == g._kind)
            info, checks = _information_checks(info)
            fault = _first_failure([(ok_i, _NO_ENDPOINT_I), (ok_j, _NO_ENDPOINT_J),
                                    (kind_ok, _WRONG_TYPE)] + checks)
            if fault is not None:
                k, msg = fault
                faults.append((at[k], msg % {"i": i[k], "j": j[k], "d": g.block_size}))
            streams.append(zip(at, i, j, deltas, info))
        g.edges = [Edge(i, j, delta, info) for _, i, j, delta, info in heapq.merge(*streams)]
        for at, ids in fixed:
            for vid in ids:
                if not defined.get(vid, missing) < at:
                    faults.append((at, "PoseGraph: cannot fix unknown vertex %d" % vid))
                    break
                g.fixed.add(vid)
        return g, min(faults, key=lambda f: f[0], default=None)

    def copy(self):
        g = PoseGraph()
        g.vertices = dict(self.vertices)
        g.edges = list(self.edges)
        g.fixed = set(self.fixed)
        g._kind = self._kind
        return g

    @staticmethod
    def _pose_kind(pose):
        if isinstance(pose, HomPose):
            return "se3"
        if isinstance(pose, HomPose2):
            return "se2"
        raise GeometryError("PoseGraph: poses must be HomPose or HomPose2")


# ---------------------------------------------------------------------------
# batched edge kernel

def _jacobians(kind, dinv, b, t, res):
    """(E, 2, d, d) residual Jacobians w.r.t. right increments of Pi and Pj.

    The closed forms of :func:`edge_error_se2` / :func:`edge_error_se3`,
    at the residuals res.  For SE(3), a right increment R_T hat(u) moves
    the rotation residual w by G u, G = J_r(w)^-1 = I + hat(w)/2 +
    c(|w|) hat(w)^2 with c the coefficient of :func:`lie._vinv_coeff`,
    bounded at every angle up to pi.  The increment of Pi enters T as
    -R_T hat(R_B^T u), so its rotation block is -G R_B^T.
    """
    n = len(t)
    if kind == "se2":
        rd = dinv[:, :2, :2]
        perp = np.stack([-b[:, 1, 2], b[:, 0, 2]], axis=1)
        jac = np.zeros((n, 2, 3, 3))
        jac[:, 0, :2, :2] = -rd
        jac[:, 0, :2, 2] = -np.einsum("eij,ej->ei", rd, perp)
        jac[:, 0, 2, 2] = -1.0
        jac[:, 1, :2, :2] = t[:, :2, :2]
        jac[:, 1, 2, 2] = 1.0
        return jac
    w = res[:, 3:]
    k = _hat3(w)
    g = (np.eye(3) + 0.5 * k
         + _vinv_coeff(np.linalg.norm(w, axis=1))[:, None, None] * (k @ k))
    rd = dinv[:, :3, :3]
    jac = np.zeros((n, 2, 6, 6))
    jac[:, 0, :3, :3] = -rd
    jac[:, 0, :3, 3:] = rd @ _hat3(b[:, :3, 3])
    jac[:, 0, 3:, 3:] = -g @ np.swapaxes(b[:, :3, :3], 1, 2)
    jac[:, 1, :3, :3] = t[:, :3, :3]
    jac[:, 1, 3:, 3:] = g
    return jac


def _linearize(kind, dinv, mi, mj):
    """Residuals (E, d) and Jacobians (E, 2, d, d) of every edge."""
    b, t = _relative(dinv, mi, mj)
    res = _pseudo_log(t)
    return res, _jacobians(kind, dinv, b, t, res)


# ---------------------------------------------------------------------------
# packed solver state

class _Scatter:
    """Where every entry of the edges' H blocks and b segments is summed.

    Built once per graph from the edge endpoints' coordinate blocks.  H
    values are laid out per edge as (E, 2, 2, d, d) (blocks ii, ij, ji,
    jj) and b values as (E, 2, d); ``h_pos`` / ``b_pos`` give each value's
    index in the CSR data array of H or in b, with entries that touch a
    fixed vertex sent to one spare slot past the end.  ``diag`` indexes H's
    diagonal, which exists once the graph has passed :func:`_check_gauge`.
    """

    def __init__(self, si, sj, d, nblocks):
        ncoord = d * nblocks
        off = np.arange(d)
        rb = np.stack([si, si, sj, sj], axis=1)
        cb = np.stack([si, sj, si, sj], axis=1)
        keep = (rb >= 0) & (cb >= 0)
        ends = np.stack([si, sj], axis=1)
        self.b_pos = np.where((ends >= 0)[..., None], ends[..., None] * d + off, ncoord)
        self.ncoord = ncoord
        # block (p, q) row r holds columns q*d .. q*d+d-1, blocks of a
        # block row in ascending q
        blocks, which = np.unique((rb * nblocks + cb)[keep], return_inverse=True)
        brow, bcol = np.divmod(blocks, nblocks)
        per_row = np.bincount(brow, minlength=nblocks)
        first = np.cumsum(per_row) - per_row
        self.indptr = np.concatenate([[0], np.cumsum(np.repeat(per_row * d, d))])
        self.size = int(self.indptr[-1])
        start = (self.indptr[:-1][brow[:, None] * d + off]
                 + ((np.arange(len(blocks)) - first[brow]) * d)[:, None])
        upos = start[:, :, None] + off
        self.indices = np.empty(self.size, dtype=np.int32)
        self.indices[upos] = (bcol[:, None] * d + off)[:, None, :]
        self.indptr = self.indptr.astype(np.int32)
        self.h_pos = np.full(rb.shape + (d, d), self.size)
        self.h_pos[keep] = upos[which]
        self.diag = upos[brow == bcol][:, off, off].ravel()

    def assemble(self, h_vals, b_vals):
        """(H, b) from per-edge values, H as a CSR matrix."""
        import scipy.sparse

        h = np.bincount(self.h_pos.ravel(), h_vals.ravel(), self.size + 1)[:-1]
        b = np.bincount(self.b_pos.ravel(), b_vals.ravel(), self.ncoord + 1)[:-1]
        return scipy.sparse.csr_matrix((h, self.indices, self.indptr),
                                       shape=(self.ncoord, self.ncoord)), b


class _Packed:
    """A PoseGraph as arrays: the solver's state between public calls.

    ``mats`` stacks the vertex matrices in ascending id; ``I``/``J`` are
    the rows of each edge's endpoints; ``dinv`` and ``info`` stack the
    inverted measurements and the information matrices.  Free vertices,
    in ascending id, get consecutive coordinate blocks.
    """

    def __init__(self, g):
        self.graph = g
        self.kind = g.kind
        self.d = d = g.block_size
        n = 3 if g.kind == "se2" else 4
        self.ids = sorted(g.vertices)
        row = {vid: k for k, vid in enumerate(self.ids)}
        self.mats = np.array([g.vertices[v].mat for v in self.ids],
                             dtype=float).reshape(-1, n, n)
        self.I = np.array([row[e.i] for e in g.edges], dtype=np.intp)
        self.J = np.array([row[e.j] for e in g.edges], dtype=np.intp)
        self.dinv = _inverse_rt(np.array([e.delta.mat for e in g.edges],
                                        dtype=float).reshape(-1, n, n))
        self.info = np.array([e.information for e in g.edges],
                             dtype=float).reshape(-1, d, d)
        self.free = np.flatnonzero([v not in g.fixed for v in self.ids])
        self.slot = np.full(len(self.ids), -1)
        self.slot[self.free] = np.arange(len(self.free))

    @functools.cached_property
    def scatter(self):
        return _Scatter(self.slot[self.I], self.slot[self.J], self.d, len(self.free))

    def residuals(self, mats):
        """(E, d) edge residuals at the vertex matrices mats."""
        _, t = _relative(self.dinv, mats[self.I], mats[self.J])
        return _pseudo_log(t)

    def chi2(self, mats):
        """chi2 at mats; inf or NaN, without a warning, where it overflows."""
        r = self.residuals(mats)
        with np.errstate(over="ignore", invalid="ignore"):
            return float(np.einsum("ei,eij,ej->e", r, self.info, r).sum())

    def normal_equations(self, mats):
        """(H, b) at mats; entries that overflow are inf or NaN, without a warning."""
        r, jac = _linearize(self.kind, self.dinv, mats[self.I], mats[self.J])
        with np.errstate(over="ignore", invalid="ignore"):
            jt_info = np.swapaxes(jac, -1, -2) @ self.info[:, None]
            h_vals = jt_info[:, :, None] @ jac[:, None]
            b_vals = jt_info @ r[:, None, :, None]
            return self.scatter.assemble(h_vals, b_vals)

    def retract(self, mats, delta):
        """mats with each free P replaced by P @ pseudo_exp(its block of delta)."""
        out = mats.copy()
        out[self.free] = mats[self.free] @ _pseudo_exp(delta.reshape(-1, self.d))
        return out

    def unpack(self, mats):
        """The graph at mats: free vertices become validated pose objects.

        One batched check over the free rows applies the pose
        constructor's tests; fixed vertices keep their objects, and
        unchanged mats give the input graph itself.
        """
        if mats is self.mats:
            return self.graph
        free = mats[self.free]
        fault = _first_failure(_rigid_checks(free))
        if fault is not None:
            raise GeometryError(fault[1])
        free.setflags(write=False)
        cls = HomPose if self.kind == "se3" else HomPose2
        out = self.graph.copy()
        for k, m in zip(self.free, free):
            out.vertices[self.ids[k]] = cls._trusted(m)
        return out


# ---------------------------------------------------------------------------
# objective and normal equations

def chi2(g):
    """Sum over edges of e^T Lambda e at the current vertex estimates."""
    pk = _Packed(g)
    return pk.chi2(pk.mats)


def _check_gauge(g):
    """Every component touching a free vertex must contain a fixed one."""
    if not g.vertices:
        raise GeometryError("PoseGraph: empty graph")
    if not g.fixed:
        raise RankDeficiencyError(
            "pose graph has no fixed vertex; fix at least one to pin the gauge")
    parent = {v: v for v in g.vertices}

    def find(a):
        while parent[a] != a:
            parent[a] = parent[parent[a]]
            a = parent[a]
        return a

    for e in g.edges:
        ri, rj = find(e.i), find(e.j)
        if ri != rj:
            parent[ri] = rj
    anchored = {find(v) for v in g.fixed}
    loose = sorted(v for v in g.vertices if v not in g.fixed and find(v) not in anchored)
    if loose:
        raise RankDeficiencyError(
            "vertices not connected to any fixed vertex: %s"
            % ", ".join(str(v) for v in loose[:20]))


def build_normal_equations(g):
    """Assemble H = sum J^T Lambda J and b = sum J^T Lambda e.

    Free vertices (ascending id) get consecutive coordinate blocks.
    Returns (H, b): H is a dense ndarray up to 1500 free coordinates and
    a CSR sparse matrix beyond.

    Raises
    ------
    RankDeficiencyError
        If no vertex is fixed, or some free vertex has no path to a
        fixed one (the system would be singular by construction).
    """
    _check_gauge(g)
    pk = _Packed(g)
    h, b = pk.normal_equations(pk.mats)
    return (h.toarray() if b.size <= _DENSE_LIMIT else h), b


# ---------------------------------------------------------------------------
# solving and stepping

def _solve(h, rhs, *, lm_hint):
    """Solve h x = rhs for a symmetric (so CSR = CSC) positive definite h.

    Diagonal pivots under a symmetric ordering make the factor L D L^T up to
    scaling: h is positive definite iff all pivots stay diagonal and positive.
    """
    import scipy.sparse.linalg

    msg = "normal equations are not positive definite"
    if lm_hint:
        msg += "; try method='levenberg-marquardt'"
    a = scipy.sparse.csc_matrix((h.data, h.indices, h.indptr), shape=h.shape)
    try:
        lu = scipy.sparse.linalg.splu(a, permc_spec="MMD_AT_PLUS_A", diag_pivot_thresh=0.0,
                                      options={"SymmetricMode": True})
    except RuntimeError as exc:
        raise RankDeficiencyError(msg) from exc
    x = lu.solve(rhs)
    if not (np.array_equal(lu.perm_r, lu.perm_c) and np.all(lu.U.diagonal() > 0.0)
            and np.all(np.isfinite(x))):
        raise RankDeficiencyError(msg)
    return x


def _damped(h, diag, lam):
    """h + lam I for a CSR h whose diagonal sits at the data indices diag."""
    import scipy.sparse

    data = h.data.copy()
    data[diag] += lam
    return scipy.sparse.csr_matrix((data, h.indices, h.indptr), shape=h.shape)


def _finite(value, what):
    """value, or GeometryError when any entry of it is inf or NaN."""
    if not np.all(np.isfinite(value)):
        raise GeometryError("PoseGraph: %s is not finite; residuals or information "
                            "matrices are too large" % what)
    return value


def _step_core(pk, mats, base, cfg, h, b, lam):
    """One step from mats, whose chi2 is base; returns (mats, stats).

    With no free coordinate (b is empty) there is nothing to solve: mats
    comes back with update_norm 0 and lam, after no trial.
    """
    if b.size == 0:
        return mats, IterationStats(0, base, 0.0, lam)
    _finite(b, "the gradient b")
    _finite(h.data, "the Hessian H")
    if cfg.method == "gauss-newton":
        delta = _solve(h, -b, lm_hint=True)
        out = pk.retract(mats, delta)
        return out, IterationStats(0, pk.chi2(out), float(np.linalg.norm(delta)), 0.0)
    rejected = 0
    while lam <= _LM_MAX_LAMBDA:
        try:
            delta = _solve(_damped(h, pk.scatter.diag, lam), -b, lm_hint=False)
        except RankDeficiencyError:
            lam *= cfg.lm_factor
            rejected += 1
            continue
        trial = pk.retract(mats, delta)
        c = pk.chi2(trial)
        if c < base:
            trial, c, delta = _fit_along(pk, mats, base, b, delta, trial, c)
            return trial, IterationStats(0, c, float(np.linalg.norm(delta)), lam, rejected)
        lam *= cfg.lm_factor
        rejected += 1
    return mats, IterationStats(0, base, 0.0, lam, rejected)


def _fit_along(pk, mats, base, b, delta, trial, c):
    """The better of the accepted trial and the minimum of chi2's parabola along delta.

    Only a trial that lowered chi2 by less than _FIT_GAIN of base is
    refit; larger steps are left to the next linearization, which a
    shortened step would only delay.  The parabola through chi2(0) = base
    with slope 2 b.delta there and through chi2(delta) = c has its
    minimum at alpha = -b.delta / q, q = c - base - 2 b.delta.  The point
    alpha delta costs one retraction and one chi2, no factorization.  It
    is tried for 0 < alpha < 0.99: beyond 0.99 it is within 1% of the
    trial, and the parabola promises less than 1e-4 of the step's own
    decrease (the grids' last steps).  Returns (mats, chi2, applied step).
    """
    slope = float(b @ delta)
    q = c - base - 2.0 * slope
    if base - c >= _FIT_GAIN * base or not 0.0 < -slope < 0.99 * q:
        return trial, c, delta
    short = (-slope / q) * delta
    fitted = pk.retract(mats, short)
    cf = pk.chi2(fitted)
    return (fitted, cf, short) if cf < c else (trial, c, delta)


def step(g, cfg, lambda_=None):
    """One optimization step.

    Gauss-Newton solves once and always applies the update.  Levenberg-
    Marquardt retries with growing lambda until a step decreases chi2,
    and reports the lambda that was accepted; an accepted step that
    lowers chi2 by less than 10% may be shortened along its direction
    (see the module notes), and update_norm is the norm of the step
    applied.  If no lambda up to 1e12 helps, the graph is returned
    unchanged with update_norm 0.  A graph with no free vertex is
    returned as it is, with update_norm 0, the starting lambda and no
    rejected trial.

    Returns
    -------
    (PoseGraph, IterationStats)
        Fixed vertices are carried over untouched (same objects).

    Raises
    ------
    GeometryError
        If chi2, the gradient b or the Hessian H at the input is not
        finite, or lambda_ is given and is not finite and > 0.
    """
    lam = cfg.lm_initial_lambda if lambda_ is None else _check_lm("step: lambda_", lambda_, 0.0)
    _check_gauge(g)
    pk = _Packed(g)
    base = _finite(pk.chi2(pk.mats), "the initial chi2")
    h, b = pk.normal_equations(pk.mats)
    mats, st = _step_core(pk, pk.mats, base, cfg, h, b, lam)
    return pk.unpack(mats), st


def optimize(g, cfg):
    """Iterate :func:`step` until convergence or the iteration budget.

    The graph is packed once; every step works on the packed arrays and
    the poses are rebuilt (and validated) only for the returned graph.

    Termination: gradient max-norm below epsilon_gradient, update norm
    below epsilon_update, a step that moves chi2 by at most 1e-7 relative,
    a Levenberg-Marquardt step that cannot decrease chi2, or max_iterations.

    Returns
    -------
    (PoseGraph, list of IterationStats)
        Stats begin with an iteration-0 entry holding the initial chi2;
        each later entry is one accepted step, with the norm of the step
        applied (see :func:`step`).  Under Levenberg-Marquardt the chi2
        column is non-increasing.  The input graph is not modified.

    Raises
    ------
    GeometryError
        If chi2 at the input, or the gradient b or the Hessian H at any
        step, is not finite.
    """
    lm = cfg.method == "levenberg-marquardt"
    pk = _Packed(g)
    mats = pk.mats
    base = _finite(pk.chi2(mats), "the initial chi2")
    stats = [IterationStats(0, base, 0.0, cfg.lm_initial_lambda if lm else 0.0)]
    if cfg.max_iterations > 0:
        _check_gauge(g)
    lam = cfg.lm_initial_lambda
    for it in range(1, cfg.max_iterations + 1):
        h, b = pk.normal_equations(mats)
        if b.size == 0 or float(np.max(np.abs(b))) < cfg.epsilon_gradient:
            break
        mats, st = _step_core(pk, mats, base, cfg, h, b, lam)
        prev, base = base, st.chi2
        stats.append(dataclasses.replace(st, iteration=it))
        if lm:
            if st.update_norm == 0.0:
                break
            lam = max(st.lambda_ / cfg.lm_factor, 1e-12)
        if st.update_norm < cfg.epsilon_update or abs(prev - base) <= _CHI2_RTOL * prev:
            break
    return pk.unpack(mats), stats


# ---------------------------------------------------------------------------
# synthetic problems

def synth_graph(kind, n, sigmas, seed):
    """Build a ground-truth graph and a noisy dead-reckoned twin.

    Parameters
    ----------
    kind : {'circle2d', 'grid2d', 'sphere3d'}
        circle2d: n poses around a circle of radius 10 with one loop
        closure; grid2d: a serpentine sweep over a square grid with
        closures between vertically adjacent cells; sphere3d: n poses on
        a rising arc of radius 8 with one loop closure.
    n : int
        Vertex count (at least 3).
    sigmas : (float, float)
        Translation / rotation noise standard deviations; the edge
        information matrices are diag(1/sigma^2, ...).
    seed : int
        Noise seed; the construction is fully deterministic.

    Returns
    -------
    (PoseGraph, PoseGraph)
        The truth graph (chi2 numerically zero) and the noisy graph:
        same topology, measurements perturbed by pseudo_exp noise on the
        right, vertex 0 fixed at the truth, other vertices dead-reckoned
        along the noisy odometry chain.
    """
    n = int(n)
    if n < 3:
        raise GeometryError("synth_graph: need at least 3 vertices")
    sig_t, sig_r = float(sigmas[0]), float(sigmas[1])
    if sig_t <= 0 or sig_r <= 0:
        raise GeometryError("synth_graph: noise sigmas must be positive")
    rng = np.random.default_rng(seed)
    if kind == "circle2d":
        poses, pairs = _circle2d(n)
    elif kind == "grid2d":
        poses, pairs = _grid2d(n)
    elif kind == "sphere3d":
        poses, pairs = _sphere3d(n)
    else:
        raise GeometryError("synth_graph: unknown kind %r" % (kind,))

    planar = isinstance(poses[0], HomPose2)
    if planar:
        info = np.diag([1.0 / sig_t ** 2, 1.0 / sig_t ** 2, 1.0 / sig_r ** 2])
        pexp, cls, dt, dr = se2_pseudo_exp, HomPose2, 2, 1
    else:
        info = np.diag([1.0 / sig_t ** 2] * 3 + [1.0 / sig_r ** 2] * 3)
        pexp, cls, dt, dr = se3_pseudo_exp, HomPose, 3, 3

    truth = PoseGraph()
    noisy = PoseGraph()
    for vid, p in enumerate(poses):
        truth.add_vertex(vid, p, fixed=(vid == 0))
    noisy.add_vertex(0, poses[0], fixed=True)

    estimates = {0: poses[0]}
    measurements = []
    for (i, j) in pairs:
        delta = cls(_inverse_rt(poses[i].mat) @ poses[j].mat)
        xi = np.concatenate([rng.normal(0.0, sig_t, size=dt),
                             rng.normal(0.0, sig_r, size=dr)])
        noisy_delta = cls(delta.mat @ pexp(xi).mat)
        measurements.append((i, j, delta, noisy_delta))
        if j == i + 1 and i in estimates and j not in estimates:
            estimates[j] = cls(estimates[i].mat @ noisy_delta.mat)
    for vid in range(1, n):
        noisy.add_vertex(vid, estimates[vid])
    for i, j, delta, noisy_delta in measurements:
        truth.add_edge(i, j, delta, info)
        noisy.add_edge(i, j, noisy_delta, info)
    return truth, noisy


def _circle2d(n):
    poses = []
    radius = 10.0
    for i in range(n):
        a = 2.0 * np.pi * i / n
        poses.append(HomPose2.from_xyt(radius * np.cos(a), radius * np.sin(a),
                                       _wrap(a + 0.5 * np.pi)))
    pairs = [(i, i + 1) for i in range(n - 1)] + [(n - 1, 0)]
    return poses, pairs


def _grid2d(n):
    side = int(np.ceil(np.sqrt(n)))
    spacing = 2.0
    poses = []
    cells = []
    for k in range(n):
        row, col = divmod(k, side)
        x = col if row % 2 == 0 else side - 1 - col  # serpentine sweep
        heading = 0.0 if row % 2 == 0 else np.pi
        poses.append(HomPose2.from_xyt(spacing * x, spacing * row, heading))
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
    radius = 8.0
    for i in range(n):
        a = 2.0 * np.pi * i / n
        c, s = np.cos(a), np.sin(a)
        yaw = a + 0.5 * np.pi
        cy, sy = np.cos(yaw), np.sin(yaw)
        tilt = 0.15 * np.sin(2.0 * a)
        ct, st = np.cos(tilt), np.sin(tilt)
        rot = (np.array([[cy, -sy, 0.0], [sy, cy, 0.0], [0.0, 0.0, 1.0]])
               @ np.array([[ct, 0.0, st], [0.0, 1.0, 0.0], [-st, 0.0, ct]]))
        t = np.array([radius * c, radius * s, 0.2 * i])
        poses.append(HomPose.from_rt(rot, t))
    pairs = [(i, i + 1) for i in range(n - 1)] + [(n - 1, 0)]
    return poses, pairs


def _wrap(a):
    return float(np.arctan2(np.sin(a), np.cos(a)))
