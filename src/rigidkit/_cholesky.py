"""Sparse Cholesky of a symmetric positive definite block matrix, in numpy.

The matrix is n x n blocks of size d, given by its block pattern, with
its data stored block by block: stored block k holds the d * d entries
k d^2 .. (k + 1) d^2 - 1, row-major (the layout of
:class:`rigidkit.graphslam._Scatter`).  :class:`Symbolic` does the work
that depends on the pattern only, once:

* a minimum-degree ordering of the block graph, with multiple and mass
  elimination (Liu, "Modification of the minimum-degree algorithm by
  multiple elimination", ACM TOMS 11, 1985).  The blocks eliminated
  together are the fundamental supernodes;
* relaxed supernodes: a child is merged into its parent while their
  front stays at most _FRONT coordinates and explicit zeros stay a
  minority of its factor;
* batches: the supernodes of one level of the assembly tree (leaves at
  0) with the same pivot and front sizes;
* a memory plan: the fronts of a batch take one region of a pool, which
  opens when the first child batch pushes an update into it and closes
  once the batch is factored.  Regions that are never open at the same
  step share space, placed by first fit in order of opening, so the pool
  holds the live fronts only, as a multifrontal stack does;
* index arrays that place each stored block in its front and each
  child's update matrix in its parent's front.  The updates' arrays, by
  far the largest, are int32 while the pool allows; batches with updates
  of one size share the index array of their lower triangle.

:meth:`Symbolic.factor` then factors the data by the multifrontal method
(Liu, "The multifrontal method for sparse matrix solution: theory and
practice", SIAM Review 34, 1992), one batch at a time with stacked numpy
calls, and :meth:`Symbolic.solve` substitutes forward and back over the
same batches.  Each entry of a front sums its H entry first, then its
children's updates in batch order, whatever the plan.  A matrix that is
not positive definite raises numpy's LinAlgError from the first batch
whose pivot blocks fail their Cholesky.
"""

import bisect
import heapq
from itertools import chain

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
    """Supernodes from the groups, children before parents.

    Returns [(columns, rows)] and each supernode's parent, the supernode
    that eliminates the first of its rows (-1 at a root), as an array.
    """
    cols = [group for group, _ in groups]
    ncol, nrow = np.array([(len(c), len(rows)) for c, rows in groups]).T
    at = np.empty(ncol.sum(), dtype=np.intp)  # the group of each block
    at[np.fromiter(chain.from_iterable(cols), np.intp, len(at))] = np.repeat(range(len(cols)), ncol)
    # a group's parent is the first group to eliminate one of its rows
    parent = np.full(len(cols), -1)
    flat = np.fromiter(chain.from_iterable(rows for _, rows in groups), np.intp, nrow.sum())
    if flat.size:
        parent[nrow > 0] = np.minimum.reduceat(at[flat], (np.cumsum(nrow) - nrow)[nrow > 0])
    stored = (ncol * (ncol + 1) // 2 + ncol * nrow).tolist()
    up = np.arange(len(cols))  # the group that each group is merged into
    for k, p in zip(np.flatnonzero(parent >= 0).tolist(), parent[parent >= 0].tolist()):
        n, r = len(cols[k]) + len(cols[p]), nrow[p]
        if (n + r) * d <= _FRONT and 2 * (stored[k] + stored[p]) > n * (n + 1) // 2 + n * r:
            cols[p] = cols[k] + cols[p]
            stored[p] += stored[k]
            cols[k] = None
            up[k] = p
    kept = up == np.arange(len(cols))
    for k in np.flatnonzero(~kept)[::-1].tolist():
        up[k] = up[up[k]]  # a parent comes later, so its own entry is final
    # the supernode of the group that each parent group is merged into; -1 stays -1
    parent = np.append((np.cumsum(kept) - 1)[up], -1)[parent[kept]]
    return [(c, rows) for c, (_, rows) in zip(cols, groups) if c is not None], parent


def _first_fit(opens, span):
    """Offsets in one pool for regions of span[t] entries open from step opens[t] to t.

    Regions are placed in order of opening, each at the lowest offset
    where it overlaps no region still open at its first step.  Returns
    the offsets and the size of the pool.
    """
    start = [0] * len(span)
    live = []  # (start, end, last step) of the regions placed so far, by start
    opens, span = opens.tolist(), span.tolist()
    for t in np.argsort(opens, kind="stable").tolist():
        live = [r for r in live if r[2] >= opens[t]]
        a = 0
        for s, e, _ in live:
            if s - a >= span[t]:
                break
            a = e
        start[t] = a
        bisect.insort(live, (a, a + span[t], t))
    return np.array(start), max(a + n for a, n in zip(start, span))


class Symbolic:
    """The ordering, supernodes, batches, memory plan and index maps of one block pattern.

    nb blocks of size d; brow and bcol are the block coordinates of the
    stored blocks, by row and then column, the diagonal among them.  The
    data that :meth:`factor` takes holds stored block k in its entries
    k d^2 .. (k + 1) d^2 - 1.  ``perm`` lists the blocks in elimination
    order: batch by batch, so the columns of a batch are contiguous.
    ``h_steps`` holds, per step, the stored blocks that go in then and
    their d^2 pool indices each.

    Batch t is factored at step t.  Its fronts take one contiguous region
    of a factorization's pool, which opens at step ``opens[t]``, that of
    the first child batch to push an update into it (t if none does), and
    closes once batch t is factored.  Regions that are never open at the
    same step share pool space, so ``pool`` is the most entries that are
    open at once, not the sum of all fronts.
    """

    def __init__(self, nb, brow, bcol, d):
        self.d = d
        off = np.arange(d)
        per_row = np.bincount(brow, minlength=nb).tolist()
        cols, ends = bcol.tolist(), np.cumsum(per_row).tolist()
        adj = [set(cols[e - n:e]) - {v} for v, (e, n) in enumerate(zip(ends, per_row))]
        snodes, parent = _relaxed(_min_degree(adj), d)
        # a supernode's level in the assembly tree is one above its highest child's
        level = [0] * len(snodes)
        for s, p in zip(np.flatnonzero(parent >= 0).tolist(), parent[parent >= 0].tolist()):
            level[p] = max(level[p], level[s] + 1)
        key = np.array([level, [len(c) for c, _ in snodes], [len(r) for _, r in snodes]])
        order = np.lexsort(key[::-1])
        _, ncol, nrow = key = key[:, order]
        parent = np.append(np.argsort(order), -1)[parent[order]]  # -1 stays -1
        snodes = [snodes[s] for s in order.tolist()]
        self.perm = np.fromiter(chain.from_iterable(c for c, _ in snodes), np.intp, nb)
        pos = np.empty(nb, dtype=np.intp)
        pos[self.perm] = np.arange(nb)
        rows = np.fromiter(chain.from_iterable(r for _, r in snodes), np.intp, nrow.sum())
        snode = np.repeat(np.arange(len(order)), ncol)  # the supernode of each position
        # each front's blocks, by position: its columns, then its rows (all
        # in later supernodes), so keys is sorted
        keys = np.sort(np.concatenate([snode * nb + np.arange(nb),
                                       np.repeat(np.arange(len(order)), nrow) * nb + pos[rows]]))
        fstart = np.cumsum(ncol + nrow) - ncol - nrow
        size = (ncol + nrow) * d
        # the batches: runs of supernodes with the same level, pivot and front sizes
        lo = np.flatnonzero(np.diff(key, axis=1, prepend=-1).any(axis=0))
        hi = np.append(lo[1:], len(order))
        batch = np.repeat(np.arange(len(lo)), hi - lo)  # the batch of each supernode
        self.opens = np.arange(len(lo))
        np.minimum.at(self.opens, batch[parent[parent >= 0]], batch[parent >= 0])
        start, self.pool = _first_fit(self.opens, (hi - lo) * size[lo] ** 2)
        base = start[batch] + (np.arange(len(order)) - lo[batch]) * size * size
        idx = np.int32 if self.pool < 2 ** 31 else np.intp  # of the updates' targets

        def place(s, x, y):  # pool indices of the entries (rows x, columns y) of each front s
            cx, cy = (((np.searchsorted(keys, s[:, None] * nb + z) - fstart[s][:, None])[..., None]
                       * d + off).reshape(len(s), -1) for z in (x, y))
            return (base[s][:, None, None] + cx[:, :, None] * size[s][:, None, None]
                    + cy[:, None, :]).reshape(len(s), -1)

        # only lower triangles are read: the Cholesky's, the panels' and the
        # updates'; H's blocks go in at the step their region opens
        low = np.flatnonzero(pos[brow] >= pos[bcol])
        low = low[np.argsort(self.opens[batch[snode[pos[bcol[low]]]]])]
        p, q = pos[brow[low]], pos[bcol[low]]
        tgt = place(snode[q], p[:, None], q[:, None])
        cut = np.searchsorted(self.opens[batch[snode[q]]], np.arange(len(lo) + 1))
        self.h_steps = [(low[a:b], tgt[a:b]) for a, b in zip(cut, cut[1:])]
        self.coords = (self.perm[:, None] * d + off).ravel()
        # per batch: where its fronts start in the pool, how many, their pivot
        # and front sizes, and where the lower triangles of their updates go
        # (the fronts of their parents); for the solve, its first column and
        # its rows' coordinates
        self.batches, self.steps, tris = [], [], {}
        for a, b in zip(lo.tolist(), hi.tolist()):
            g, c, m = b - a, ncol[a], nrow[a]
            blk = keys[fstart[a]:fstart[a] + g * (c + m)].reshape(g, c + m) % nb  # by position
            tri = tris.setdefault(m * d, np.flatnonzero(np.tri(m * d, dtype=bool)))
            push = place(parent[a:b], blk[:, c:], blk[:, c:])[:, tri].ravel().astype(idx)
            self.batches.append((int(base[a]), g, c * d, size[a], push, tri))
            self.steps.append((blk[0, 0] * d, (blk[:, c:, None] * d + off).ravel()))

    def factor(self, data):
        """Per batch, the inverses of its pivot blocks' factors and its panels.

        At each step the regions that open there get their entries of H,
        the batch is factored and its updates pushed, and its region is
        zeroed for the regions that reuse its space.  Raises numpy's
        LinAlgError if the matrix is not positive definite.
        """
        pool = np.zeros(self.pool)
        blocks = data.reshape(-1, self.d * self.d)
        factors = []
        for (o, g, k, f, push, tri), (src, tgt) in zip(self.batches, self.h_steps):
            pool[tgt] = blocks[src]
            front = pool[o:o + g * f * f].reshape(g, f, f)
            inv = np.linalg.inv(np.linalg.cholesky(front[:, :k, :k]))
            panel = front[:, k:, :k] @ inv.swapaxes(1, 2)
            update = front[:, k:, k:] - panel @ panel.swapaxes(1, 2)
            np.add.at(pool, push, update.reshape(g, -1)[:, tri].ravel())
            front.fill(0.0)
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
