"""Sparse Cholesky of a symmetric positive definite block matrix, in numpy.

The matrix is n x n blocks of size d, given by its block pattern and, per
stored block, the indices of its d x d entries in a data array (the CSR
layout of :class:`rigidkit.graphslam._Scatter`).  :class:`Symbolic` does
the work that depends on the pattern only, once:

* a minimum-degree ordering of the block graph, with multiple and mass
  elimination (Liu, "Modification of the minimum-degree algorithm by
  multiple elimination", ACM TOMS 11, 1985).  The blocks eliminated
  together are the fundamental supernodes;
* relaxed supernodes: a child is merged into its parent while their
  front stays at most _FRONT coordinates and explicit zeros stay a
  minority of its factor;
* batches: the supernodes of one level of the assembly tree (leaves at
  0) with the same pivot and front sizes;
* index arrays that place the data in each front and each child's update
  matrix in its parent's front.

:meth:`Symbolic.factor` then factors the data by the multifrontal method
(Liu, "The multifrontal method for sparse matrix solution: theory and
practice", SIAM Review 34, 1992), one batch at a time with stacked numpy
calls, and :meth:`Symbolic.solve` substitutes forward and back over the
same batches.  A matrix that is not positive definite raises numpy's
LinAlgError from the first batch whose pivot blocks fail their Cholesky.
"""

import heapq

import numpy as np

# largest front, in coordinates, that relaxed amalgamation may build
_FRONT = 24
# a stage of multiple elimination takes blocks up to this much above its minimum degree
_DELTA = 1


def _min_degree(adj):
    """Eliminate the graph adj (a list of sets, changed in place) by minimum degree.

    Each stage eliminates, lowest degree and then lowest block first, the
    blocks of degree at most _DELTA above the stage's minimum that no
    block of the stage neighbours (multiple elimination).  With a block v,
    every neighbour whose neighbours all lie in v's closed neighbourhood
    is eliminated too, since it would be next (mass elimination).
    Returns [(group, pattern)] in elimination order: the blocks eliminated
    together and their neighbours left.
    """
    heap = [(len(a), v) for v, a in enumerate(adj)]
    heapq.heapify(heap)
    groups = []
    while heap:
        touched = set()
        top = heap[0][0] + _DELTA
        while heap and heap[0][0] <= top:
            deg, v = heapq.heappop(heap)
            near = adj[v]
            if near is None or deg != len(near) or v in touched:
                continue  # eliminated, stale, or next to this stage's eliminations
            clique = near | {v}
            group = [v] + sorted(u for u in near - touched if adj[u] <= clique)
            rest = clique.difference(group)
            for u in group:
                adj[u] = None
            for w in rest:
                a = adj[w]
                a.difference_update(group)
                a.update(rest)
                a.discard(w)
            touched |= rest
            groups.append((group, rest))
        for w in touched:
            if adj[w] is not None:
                heapq.heappush(heap, (len(adj[w]), w))
    return groups


def _relaxed(groups, d):
    """Supernodes from the groups: [(columns, rows)], children before parents."""
    at = {v: k for k, (group, _) in enumerate(groups) for v in group}
    cols = [list(group) for group, _ in groups]
    stored = [len(c) * (len(c) + 1) // 2 + len(c) * len(r) for c, (_, r) in zip(cols, groups)]
    for k, (_, rows) in enumerate(groups):
        if not rows:
            continue
        p = min(at[v] for v in rows)  # the parent: the first group to eliminate a row
        n, r = len(cols[k]) + len(cols[p]), len(groups[p][1])
        dense = n * (n + 1) // 2 + n * r
        if (n + r) * d <= _FRONT and 2 * (stored[k] + stored[p]) > dense:
            cols[p] = cols[k] + cols[p]
            stored[p] += stored[k]
            cols[k] = None
    return [(c, rows) for c, (_, rows) in zip(cols, groups) if c is not None]


class Symbolic:
    """The ordering, supernodes, batches and index maps of one block pattern.

    nb blocks of size d; brow and bcol are the block coordinates of the
    stored blocks in CSR order (by row, then column), the diagonal among
    them, and at (nblk, d, d) holds the data index of every entry of
    each block.  ``perm`` lists the blocks in elimination order: batch by
    batch, so the columns of a batch and its fronts in the pool of one
    factorization are contiguous.
    """

    def __init__(self, nb, brow, bcol, at):
        d = at.shape[1]
        off = np.arange(d)
        per_row = np.bincount(brow, minlength=nb).tolist()
        cols, ends = bcol.tolist(), np.cumsum(per_row).tolist()
        adj = [set(cols[e - n:e]) - {v} for v, (e, n) in enumerate(zip(ends, per_row))]
        snodes = _relaxed(_min_degree(adj), d)
        # a parent is the first supernode to eliminate one of its child's rows,
        # and its level is one above its highest child's
        home = {v: s for s, (c, _) in enumerate(snodes) for v in c}
        level = [0] * len(snodes)
        for s, (_, rows) in enumerate(snodes):
            if rows:
                p = min(home[v] for v in rows)
                level[p] = max(level[p], level[s] + 1)
        key = sorted((lv, len(c), len(r), s) for s, (lv, (c, r)) in enumerate(zip(level, snodes)))
        snodes = [snodes[s] for *_, s in key]
        self.perm = np.array([v for c, _ in snodes for v in c], dtype=np.intp)
        pos = np.empty(nb, dtype=np.intp)
        pos[self.perm] = np.arange(nb)
        ncol = np.array([len(c) for c, _ in snodes])
        nrow = np.array([len(r) for _, r in snodes])
        rows = [np.sort(pos[np.fromiter(r, np.intp, len(r))]) for _, r in snodes]
        first = np.cumsum(ncol) - ncol
        # each front's blocks, by position: its columns, then its rows
        fstart = np.cumsum(ncol + nrow) - ncol - nrow
        keys = np.concatenate([s * nb + np.concatenate([np.arange(a, a + n), r])
                               for s, (a, n, r) in enumerate(zip(first, ncol, rows))])
        snode = np.repeat(np.arange(len(snodes)), ncol)  # the supernode of each position
        size = (ncol + nrow) * d
        base = np.cumsum(size * size) - size * size  # each front's offset in the pool
        self.pool = int(base[-1] + size[-1] ** 2)

        def place(s, x, y):  # pool indices of the entries (rows x, columns y) of fronts s
            cx, cy = (((np.searchsorted(keys, s[:, None] * nb + z) - fstart[s][:, None])[..., None]
                       * d + off).reshape(len(s), -1) for z in (x, y))
            return base[s][:, None, None] + cx[:, :, None] * size[s][:, None, None] + cy[:, None, :]

        # only lower triangles are read: the Cholesky's, the panels' and the updates'
        low = pos[brow] >= pos[bcol]
        p, q = pos[brow[low]], pos[bcol[low]]
        self.h_src = at[low].ravel()
        self.h_tgt = place(snode[q], p[:, None], q[:, None]).ravel()
        self.coords = (self.perm[:, None] * d + off).ravel()
        # per batch: where its fronts start in the pool, how many, their pivot
        # and front sizes, and where the lower triangles of their updates go;
        # for the solve, its first column and its rows' coordinates
        self.batches, self.steps = [], []
        cuts = [i for i in range(1, len(key)) if key[i][:3] != key[i - 1][:3]]
        for lo, hi in zip([0] + cuts, cuts + [len(key)]):
            r = np.array(rows[lo:hi])
            tri = np.flatnonzero(np.tri(r.shape[1] * d, dtype=bool))
            push = None if r.size == 0 else \
                place(snode[r[:, 0]], r, r).reshape(hi - lo, -1)[:, tri].ravel()
            self.batches.append((base[lo], hi - lo, ncol[lo] * d, size[lo], push, tri))
            self.steps.append((first[lo] * d, (r[..., None] * d + off).ravel()))

    def factor(self, data):
        """Per batch, the inverses of its pivot blocks' factors and its panels.

        Raises numpy's LinAlgError if the matrix is not positive definite.
        """
        pool = np.zeros(self.pool)
        pool[self.h_tgt] = data[self.h_src]
        factors = []
        for o, g, k, f, push, tri in self.batches:
            front = pool[o:o + g * f * f].reshape(g, f, f)
            inv = np.linalg.inv(np.linalg.cholesky(front[:, :k, :k]))
            panel = front[:, k:, :k] @ inv.swapaxes(1, 2)
            if push is not None:
                update = front[:, k:, k:] - panel @ panel.swapaxes(1, 2)
                np.add.at(pool, push, update.reshape(g, -1)[:, tri].ravel())
            factors.append((inv, panel))
        return factors

    def solve(self, factors, rhs):
        """x with L L^T x = rhs, L the factor that :meth:`factor` returned."""
        y = rhs[self.coords]
        for (inv, panel), (a, rows) in zip(factors, self.steps):
            g, _, k = panel.shape
            x = inv @ y[a:a + g * k].reshape(g, k, 1)
            y[a:a + g * k] = x.ravel()
            np.subtract.at(y, rows, (panel @ x).ravel())
        for (inv, panel), (a, rows) in zip(factors[::-1], self.steps[::-1]):
            g, m, k = panel.shape
            x = y[a:a + g * k].reshape(g, k, 1) - panel.swapaxes(1, 2) @ y[rows].reshape(g, m, 1)
            y[a:a + g * k] = (inv.swapaxes(1, 2) @ x).ravel()
        x = np.empty_like(y)
        x[self.coords] = y
        return x
