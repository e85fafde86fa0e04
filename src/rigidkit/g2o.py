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

Lines starting with ``#`` and blank lines are skipped.  Records must
define a vertex before any FIX or edge that references it.  Parse errors
raise GeometryError naming the offending line.  A file with no FIX
record gets its lowest vertex id fixed automatically (with a note to
stderr) so the graph is usable as-is.

Floats are written with 17 significant digits, which round-trips doubles
exactly.
"""

import sys

import numpy as np

from .core import HomPose, HomPose2, Quaternion, quat_normalize
from .core import _quat_from_rotation, _rotation_from_unit_quat
from .errors import GeometryError
from .graphslam import PoseGraph

__all__ = ["read_g2o", "write_g2o", "format_g2o"]


def _f(v):
    return "%.17g" % float(v)


def _fields(tok, count):
    if len(tok) != count + 1:
        raise GeometryError(
            "%s record needs %d fields, got %d" % (tok[0], count, len(tok) - 1))
    return tok[1:]


def _float_list(strs):
    return [float(s) for s in strs]


def _upper_tri(values, dim):
    m = np.zeros((dim, dim))
    k = 0
    for r in range(dim):
        for c in range(r, dim):
            m[r, c] = values[k]
            m[c, r] = values[k]
            k += 1
    return m


def _pose3_from_tq(vals):
    q, _ = quat_normalize(Quaternion(vals[6], vals[3], vals[4], vals[5]))
    rot = _rotation_from_unit_quat(q.qr, q.qx, q.qy, q.qz)
    return HomPose.from_rt(rot, vals[:3])


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
        lines = source.read().splitlines()
    else:
        with open(source, "r", encoding="ascii") as fh:
            lines = fh.read().splitlines()
    g = PoseGraph()
    saw_fix = False
    for num, raw in enumerate(lines, start=1):
        tok = raw.split()
        if not tok or tok[0].startswith("#"):
            continue
        try:
            tag = tok[0]
            if tag == "VERTEX_SE2":
                vals = _float_list(_fields(tok, 4))
                g.add_vertex(int(tok[1]), HomPose2.from_xyt(*vals[1:]))
            elif tag == "VERTEX_SE3:QUAT":
                vals = _float_list(_fields(tok, 8)[1:])
                g.add_vertex(int(tok[1]), _pose3_from_tq(vals))
            elif tag == "EDGE_SE2":
                strs = _fields(tok, 11)
                vals = _float_list(strs[2:])
                g.add_edge(int(strs[0]), int(strs[1]),
                           HomPose2.from_xyt(*vals[:3]), _upper_tri(vals[3:], 3))
            elif tag == "EDGE_SE3:QUAT":
                strs = _fields(tok, 30)
                vals = _float_list(strs[2:])
                g.add_edge(int(strs[0]), int(strs[1]),
                           _pose3_from_tq(vals[:7]), _upper_tri(vals[7:], 6))
            elif tag == "FIX":
                if len(tok) < 2:
                    raise GeometryError("FIX record needs at least one vertex id")
                for s in tok[1:]:
                    g.fix(int(s))
                saw_fix = True
            else:
                raise GeometryError("unknown record type %r" % tag)
        except GeometryError as exc:
            raise GeometryError("line %d: %s" % (num, exc)) from None
        except (ValueError, TypeError) as exc:
            raise GeometryError("line %d: %s" % (num, exc)) from None
    if not g.vertices:
        raise GeometryError("g2o input defines no vertices")
    if auto_fix and not saw_fix and not g.fixed:
        lowest = min(g.vertices)
        g.fix(lowest)
        sys.stderr.write(
            "note: g2o input has no FIX record; fixing vertex %d\n" % lowest)
    return g


def _pose3_fields(pose):
    t = pose.mat[:3, 3]
    q = _quat_from_rotation(pose.mat[:3, :3])
    return [t[0], t[1], t[2], q[1], q[2], q[3], q[0]]


def _upper_tri_fields(info, dim):
    return [info[r, c] for r in range(dim) for c in range(r, dim)]


def format_g2o(g):
    """Render a PoseGraph as g2o text (vertices, FIX records, edges)."""
    if g.kind not in ("se2", "se3"):
        raise GeometryError("format_g2o: graph is empty")
    out = []
    for vid in sorted(g.vertices):
        p = g.vertices[vid]
        if g.kind == "se2":
            out.append("VERTEX_SE2 %d %s %s %s"
                       % (vid, _f(p.mat[0, 2]), _f(p.mat[1, 2]), _f(p.angle)))
        else:
            out.append("VERTEX_SE3:QUAT %d %s"
                       % (vid, " ".join(_f(v) for v in _pose3_fields(p))))
    for vid in sorted(g.fixed):
        out.append("FIX %d" % vid)
    dim = g.block_size
    tag = "EDGE_SE2" if g.kind == "se2" else "EDGE_SE3:QUAT"
    for e in g.edges:
        if g.kind == "se2":
            pose_part = [e.delta.mat[0, 2], e.delta.mat[1, 2], e.delta.angle]
        else:
            pose_part = _pose3_fields(e.delta)
        values = pose_part + _upper_tri_fields(e.information, dim)
        out.append("%s %d %d %s" % (tag, e.i, e.j, " ".join(_f(v) for v in values)))
    return "\n".join(out) + "\n"


def write_g2o(g, dest):
    """Write a PoseGraph to a path or open text stream in g2o format."""
    text = format_g2o(g)
    if hasattr(dest, "write"):
        dest.write(text)
    else:
        with open(dest, "w", encoding="ascii") as fh:
            fh.write(text)
