"""Reading and writing pose graphs in the plain-text g2o format.

Supported records (one per line, whitespace separated):

* ``VERTEX_SE2 id x y theta``
* ``EDGE_SE2 i j dx dy dtheta`` + 6 upper-triangular entries (row-major)
  of the 3x3 information matrix
* ``VERTEX_SE3:QUAT id x y z qx qy qz qw`` (scalar component last, as in
  the file format; in memory quaternions are scalar-first)
* ``EDGE_SE3:QUAT i j dx dy dz qx qy qz qw`` + 21 upper-triangular
  entries (row-major) of the 6x6 information matrix, ordered translation
  block first then rotation block, matching this package's tangent order
* ``FIX id [id ...]``

Lines starting with ``#`` and blank lines are skipped.  A file with no
FIX record gets its lowest vertex id fixed automatically (with a note to
stderr) so the graph is usable as-is.

The reader is batched.  It groups the records by tag with their line
numbers, parses each group's numbers with one ``np.array(tokens,
dtype=float)`` and its ids with ``int()`` (exact at any size), and builds
and checks each group's poses at once; ``PoseGraph._bulk`` then applies
the graph's rules in line order (a vertex precedes the edges and FIX
records naming it, ids are unique, planar and 3D records do not mix,
information matrices are PSD).  Errors name the first faulty line with
the message of a line-by-line reader: each check finds the first record
it rejects (rescanning a group that fails to convert), later checks see
only the records before it, and the smallest line wins.  The writer
fills one ``%`` template per line; its 17 significant digits round-trip
doubles exactly.
"""

import sys

import numpy as np

from .core import (HomPose, HomPose2, _first_failure, _quat_from_rotation,
                   _quat_to_matrix_rows, _rigid_checks)
from .errors import GeometryError
from .graphslam import PoseGraph
from .lie import _pseudo_exp, _pseudo_log

__all__ = ["read_g2o", "write_g2o", "format_g2o"]

# tag: (pose class, fields, ids, leading fields not read as floats); only
# VERTEX_SE2 reads its id as a float too
_LAYOUT = {"VERTEX_SE2": (HomPose2, 4, 1, 0), "VERTEX_SE3:QUAT": (HomPose, 8, 1, 1),
           "EDGE_SE2": (HomPose2, 11, 2, 2), "EDGE_SE3:QUAT": (HomPose, 30, 2, 2)}


def _first(*faults):
    """The (line, message) fault with the smallest line, the first on ties."""
    return min((f for f in faults if f is not None), key=lambda f: f[0], default=None)


def _convert(tokens, kind, width=1):
    """kind (float or int) of the tokens of whole records before the first
    token it rejects (floats as rows of width), and (record, message) or None."""
    try:
        if kind is float:
            return np.array(tokens, dtype=float).reshape(-1, width), None
        return [kind(s) for s in tokens], None
    except ValueError:
        for n, s in enumerate(tokens):
            try:
                kind(s)
            except ValueError as exc:
                return _convert(tokens[:n - n % width], kind, width)[0], (n // width, str(exc))
        raise


def _split(lines):
    """Records by tag, {tag: (lines, tokens)}, FIX records (line, ids), and
    the first malformed line as a fault: unknown tag, field count, FIX id."""
    groups, fixes = {}, []
    for num, raw in enumerate(lines, start=1):
        tok = raw.split()
        if not tok or tok[0].startswith("#"):
            continue
        layout = _LAYOUT.get(tok[0])
        if layout is not None and len(tok) == layout[1] + 1:
            at, tokens = groups.setdefault(tok[0], ([], []))
            at.append(num)
            tokens.extend(tok)
        elif tok[0] == "FIX" and len(tok) > 1:
            ids, fault = _convert(tok[1:], int)
            fixes.append((num, ids))
            if fault is not None:
                return groups, fixes, (num, fault[1])
        elif tok[0] == "FIX":
            return groups, fixes, (num, "FIX record needs at least one vertex id")
        elif layout is None:
            return groups, fixes, (num, "unknown record type %r" % tok[0])
        else:
            return groups, fixes, (num, "%s record needs %d fields, got %d"
                                   % (tok[0], layout[1], len(tok) - 1))
    return groups, fixes, None


def _records(tag, at, tokens):
    """One tag's records as PoseGraph._bulk takes them, (at, ids..., poses[,
    information]) up to their first fault, and that fault or None."""
    cls, nfields, nids, skip = _LAYOUT[tag]
    width = nfields + 1
    ids = [tokens[c::width] for c in range(1, nids + 1)]
    for w in range(width, width - skip - 1, -1):
        del tokens[::w]  # the tag, then the ids not read as floats
    vals, fault = _convert(tokens, float, nfields - skip)
    ids, id_faults = zip(*(_convert(col[:len(vals)], int) for col in ids))
    fault = _first(fault, *id_faults)
    vals = vals[:len(vals) if fault is None else fault[0], nids - skip:]
    planar = cls is HomPose2
    if planar:
        with np.errstate(invalid="ignore"):  # cos/sin of inf; the checks reject it
            mats = _pseudo_exp(vals[:, :3])
        checks = _rigid_checks(mats)
    else:
        mats, checks = _quat_to_matrix_rows(vals[:, :3], vals[:, [6, 3, 4, 5]])
    fault = _first(fault, _first_failure(checks))
    keep = len(vals) if fault is None else fault[0]
    mats = mats[:keep]
    mats.setflags(write=False)
    rec = (at[:keep], *(col[:keep] for col in ids), [cls._trusted(m) for m in mats])
    if nids == 2:
        d = 3 if planar else 6
        rows, cols = np.triu_indices(d)
        info = np.zeros((keep, d, d))
        info[:, rows, cols] = info[:, cols, rows] = vals[:keep, 3 if planar else 7:]
        rec += (info,)
    return rec, None if fault is None else (at[fault[0]], fault[1])


def read_g2o(source, auto_fix=True):
    """Parse a g2o text file into a PoseGraph.

    Parameters
    ----------
    source : str | Path | file-like
        Path to the file, or an open text stream.
    auto_fix : bool
        When the file has no FIX record, fix the lowest vertex id and
        note it on stderr (a graph with a free gauge cannot be solved).

    Raises
    ------
    GeometryError
        On malformed records, unknown tags, references to undefined
        vertices, or mixed planar/3D content; messages name the line.
    """
    if hasattr(source, "read"):
        text = source.read()
    else:  # a byte that is not ASCII fails as a token, on its line
        with open(source, "r", encoding="ascii", errors="replace") as fh:
            text = fh.read()
    groups, fixes, fault = _split(text.splitlines())
    vertices, edges = [], []
    for tag, (at, tokens) in groups.items():
        rec, group_fault = _records(tag, at, tokens)
        fault = _first(fault, group_fault)
        (edges if len(rec) == 5 else vertices).append(rec)
    g, graph_fault = PoseGraph._bulk(vertices, edges, fixes)
    # on one FIX line, an unknown id comes before a token that int() rejects
    fault = _first(graph_fault, fault)
    if fault is not None:
        raise GeometryError("line %d: %s" % fault)
    if not g.vertices:
        raise GeometryError("g2o input defines no vertices")
    if auto_fix and not fixes and not g.fixed:
        lowest = min(g.vertices)
        g.fix(lowest)
        sys.stderr.write(
            "note: g2o input has no FIX record; fixing vertex %d\n" % lowest)
    return g


def _se3_fields(mats):
    """(x, y, z, qx, qy, qz, qw) of each matrix in a stack."""
    q = _quat_from_rotation(mats[:, :3, :3])
    return np.column_stack([mats[:, :3, 3], q[:, 1:], q[:, 0]])


def format_g2o(g):
    """Render a PoseGraph as g2o text (vertices, FIX records, edges)."""
    if g.kind not in ("se2", "se3"):
        raise GeometryError("format_g2o: graph is empty")
    vtag, etag, fields = (("VERTEX_SE2", "EDGE_SE2", _pseudo_log) if g.kind == "se2"
                          else ("VERTEX_SE3:QUAT", "EDGE_SE3:QUAT", _se3_fields))
    ids = sorted(g.vertices)
    vals = fields(np.array([g.vertices[v].mat for v in ids]))
    line = vtag + " %d" + " %.17g" * vals.shape[1]
    out = [line % (vid, *row) for vid, row in zip(ids, vals.tolist())]
    out += ["FIX %d" % vid for vid in sorted(g.fixed)]
    if g.edges:
        rows, cols = np.triu_indices(g.block_size)
        vals = np.column_stack([fields(np.array([e.delta.mat for e in g.edges])),
                                np.array([e.information for e in g.edges])[:, rows, cols]])
        line = etag + " %d %d" + " %.17g" * vals.shape[1]
        out += [line % (e.i, e.j, *row) for e, row in zip(g.edges, vals.tolist())]
    return "\n".join(out) + "\n"


def write_g2o(g, dest):
    """Write a PoseGraph to a path or open text stream in g2o format."""
    text = format_g2o(g)
    if hasattr(dest, "write"):
        dest.write(text)
    else:
        with open(dest, "w", encoding="ascii") as fh:
            fh.write(text)
