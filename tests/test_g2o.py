"""Plain-text pose-graph file parsing and serialization."""
import io
import math
import os
import pathlib
import re

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from rigidkit import (GeometryError, HomPose, HomPose2, PoseGraph, Quaternion,
                      format_g2o, quat_normalize, read_g2o, se2_exp, so3_exp,
                      write_g2o)
from rigidkit.core import _rotation_from_unit_quat

DATA = pathlib.Path(__file__).parent / "data"
CIRCLE = DATA / "circle2d_noisy.g2o"
SPHERE = DATA / "sphere3d_noisy.g2o"

SE2_SNIPPET = """\
VERTEX_SE2 0 0 0 0
VERTEX_SE2 1 1.5 0.25 0.4
FIX 0
EDGE_SE2 0 1 1.5 0.2 0.4 400 0 0 400 0 10000
"""


# ---------------------------------------------------------------------------
# reading

def test_read_bundled_circle():
    g = read_g2o(CIRCLE)
    assert g.kind == "se2"
    assert len(g.vertices) == 12
    assert len(g.edges) == 12
    assert g.fixed == {0}


def test_read_bundled_sphere():
    g = read_g2o(SPHERE)
    assert g.kind == "se3"
    assert len(g.vertices) == 10
    assert len(g.edges) == 10
    assert g.fixed == {0}


def test_read_from_stream():
    g = read_g2o(io.StringIO(SE2_SNIPPET))
    assert len(g.vertices) == 2
    assert g.fixed == {0}
    info = g.edges[0].information
    assert np.array_equal(info, np.diag([400.0, 400.0, 10000.0]))


def test_comments_and_blank_lines_skipped():
    text = "# header comment\n\n" + SE2_SNIPPET + "\n# trailing\n"
    g = read_g2o(io.StringIO(text))
    assert len(g.vertices) == 2
    assert len(g.edges) == 1


def test_information_expanded_symmetric():
    text = ("VERTEX_SE2 0 0 0 0\nVERTEX_SE2 1 1 0 0\nFIX 0\n"
            "EDGE_SE2 0 1 1 0 0 4 1 2 5 3 6\n")
    g = read_g2o(io.StringIO(text))
    expected = np.array([[4.0, 1.0, 2.0], [1.0, 5.0, 3.0], [2.0, 3.0, 6.0]])
    assert np.array_equal(g.edges[0].information, expected)


def test_non_unit_quaternion_normalized():
    # same orientation written with a doubled quaternion
    base = ("VERTEX_SE3:QUAT 0 1 2 3 %s %s %s %s\nFIX 0\n")
    q = np.array([0.18257418583505536, 0.36514837167011072,
                  0.54772255750516612, 0.73029674334022143])  # unit, w last
    g1 = read_g2o(io.StringIO(base % tuple(q)))
    g2 = read_g2o(io.StringIO(base % tuple(2.0 * q)))
    assert np.abs(g1.vertices[0].mat - g2.vertices[0].mat).max() < 1e-15


def test_auto_fix_note_on_stderr(capsys):
    text = "VERTEX_SE2 3 0 0 0\nVERTEX_SE2 5 1 0 0\nEDGE_SE2 3 5 1 0 0 1 0 0 1 0 1\n"
    g = read_g2o(io.StringIO(text))
    assert g.fixed == {3}
    err = capsys.readouterr().err
    assert "no FIX record" in err
    assert "3" in err


def test_auto_fix_disabled():
    text = "VERTEX_SE2 0 0 0 0\n"
    g = read_g2o(io.StringIO(text), auto_fix=False)
    assert g.fixed == set()


# ---------------------------------------------------------------------------
# parse failures name the line

@pytest.mark.parametrize("text,line", [
    ("VERTEX_SE2 0 0 0 0\nVERTEX_SE2 1 1 bad 0\n", 2),
    ("VERTEX_SE2 0 0 0 0\nWOBBLE 1 2 3\n", 2),
    ("VERTEX_SE2 0 0 0 0\nFIX 9\n", 2),
    ("VERTEX_SE2 0 0 0 0\nEDGE_SE2 0 7 1 0 0 1 0 0 1 0 1\n", 2),
    ("VERTEX_SE2 0 0 0 0\nVERTEX_SE2 1 1 0\n", 2),
    ("VERTEX_SE2 0 0 0 0\nFIX\n", 2),
    ("VERTEX_SE2 0 0 0 0\nVERTEX_SE3:QUAT 1 0 0 0 0 0 0 1\n", 2),
])
def test_parse_errors_name_line(text, line):
    with pytest.raises(GeometryError, match="line %d" % line):
        read_g2o(io.StringIO(text))


def test_indefinite_information_names_line():
    text = ("VERTEX_SE2 0 0 0 0\nVERTEX_SE2 1 1 0 0\n"
            "EDGE_SE2 0 1 1 0 0 -1 0 0 -1 0 -1\n")
    with pytest.raises(GeometryError, match="line 3: .*not positive semidefinite"):
        read_g2o(io.StringIO(text))


def test_empty_input_rejected():
    with pytest.raises(GeometryError, match="no vertices"):
        read_g2o(io.StringIO("# nothing here\n"))


# ---------------------------------------------------------------------------
# writing

def test_format_empty_graph_rejected():
    with pytest.raises(GeometryError):
        format_g2o(PoseGraph())


def test_write_path_and_stream_agree(tmp_path):
    g = read_g2o(CIRCLE)
    buf = io.StringIO()
    write_g2o(g, buf)
    path = tmp_path / "out.g2o"
    write_g2o(g, path)
    assert path.read_text(encoding="ascii") == buf.getvalue()
    assert buf.getvalue() == format_g2o(g)


def test_paths_are_str_or_pathlike_and_a_descriptor_is_not(tmp_path):
    g = read_g2o(CIRCLE)
    write_g2o(g, str(tmp_path / "out.g2o"))
    assert read_g2o(str(tmp_path / "out.g2o")).vertices.keys() == g.vertices.keys()
    with pytest.raises(FileNotFoundError):
        read_g2o(tmp_path / "missing.g2o")
    # open() takes an int as a file descriptor and closes it afterwards
    r, w = os.pipe()
    try:
        with pytest.raises(GeometryError, match="^write_g2o: dest must be a str or PathLike"):
            write_g2o(g, w)
        with pytest.raises(GeometryError, match="^read_g2o: source must be a str or PathLike"):
            read_g2o(r)
        os.fstat(r)
        os.fstat(w)
    finally:
        os.close(r)
        os.close(w)


def test_bundled_files_are_write_fixed_points():
    for path in (CIRCLE, SPHERE):
        text = path.read_text(encoding="ascii")
        assert format_g2o(read_g2o(io.StringIO(text))) == text


def test_round_trip_graph_bit_equal():
    for path in (CIRCLE, SPHERE):
        g1 = read_g2o(path)
        g2 = read_g2o(io.StringIO(format_g2o(g1)))
        assert sorted(g1.vertices) == sorted(g2.vertices)
        for vid in g1.vertices:
            assert np.array_equal(g1.vertices[vid].mat, g2.vertices[vid].mat)
        assert g1.fixed == g2.fixed
        for e1, e2 in zip(g1.edges, g2.edges):
            assert (e1.i, e1.j) == (e2.i, e2.j)
            assert np.array_equal(e1.delta.mat, e2.delta.mat)
            assert np.array_equal(e1.information, e2.information)


def test_se2_writer_layout():
    g = PoseGraph()
    g.add_vertex(0, HomPose2.from_xyt(0.5, -0.25, 0.75), fixed=True)
    text = format_g2o(g)
    assert text == "VERTEX_SE2 0 0.5 -0.25 0.75\nFIX 0\n"


def test_se3_writer_produces_unit_quaternion():
    g = read_g2o(SPHERE)
    for line in format_g2o(g).splitlines():
        tok = line.split()
        if tok[0] == "VERTEX_SE3:QUAT":
            q = np.array([float(s) for s in tok[5:9]])
            assert abs(np.dot(q, q) - 1.0) < 1e-12
            assert q[3] >= 0.0  # scalar-last in the file, canonical sign


def test_seventeen_digit_floats_round_trip():
    x = 0.1 + 0.2  # famous non-representable sum
    g = PoseGraph()
    g.add_vertex(0, HomPose2.from_xyt(x, -x, 0.1), fixed=True)
    g2 = read_g2o(io.StringIO(format_g2o(g)))
    assert g2.vertices[0].mat[0, 2] == x
    assert g2.vertices[0].mat[1, 2] == -x


def test_mixed_kind_file_rejected():
    text = ("VERTEX_SE2 0 0 0 0\n"
            "VERTEX_SE3:QUAT 1 0 0 0 0 0 0 1\n")
    with pytest.raises(GeometryError, match="line 2"):
        read_g2o(io.StringIO(text))


def test_written_edges_preserve_insertion_order():
    g = PoseGraph()
    for i in range(3):
        g.add_vertex(i, se2_exp(np.array([float(i), 0.0, 0.0])),
                     fixed=(i == 0))
    info = np.eye(3)
    g.add_edge(1, 2, se2_exp(np.array([1.0, 0.0, 0.0])), info)
    g.add_edge(0, 1, se2_exp(np.array([1.0, 0.0, 0.0])), info)
    lines = [l for l in format_g2o(g).splitlines() if l.startswith("EDGE")]
    assert lines[0].split()[1:3] == ["1", "2"]
    assert lines[1].split()[1:3] == ["0", "1"]


# ---------------------------------------------------------------------------
# reference: the per-record reader and writer that the batched ones replace.
# Each record goes through the public PoseGraph calls and the validating pose
# constructors, one line at a time, and stops at the first fault.

def _ref_quat_from_rotation(r):
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
    if q[0] < 0:
        q = -q
    return q


def _ref_fields(tok, count):
    if len(tok) != count + 1:
        raise GeometryError(
            "%s record needs %d fields, got %d" % (tok[0], count, len(tok) - 1))
    return tok[1:]


def _ref_upper_tri(values, dim):
    m = np.zeros((dim, dim))
    k = 0
    for r in range(dim):
        for c in range(r, dim):
            m[r, c] = values[k]
            m[c, r] = values[k]
            k += 1
    return m


def _ref_pose2(x, y, theta):
    # HomPose2.from_xyt; a non-finite number skips its test of the three
    # numbers and meets the constructor's, as in the batched reader
    if np.isfinite([x, y, theta]).all():
        return HomPose2.from_xyt(x, y, theta)
    with np.errstate(invalid="ignore"):  # cos/sin of inf, as in the batched reader
        c, s = np.cos(theta), np.sin(theta)
    return HomPose2(np.array([[c, -s, x], [s, c, y], [0.0, 0.0, 1.0]]))


def _ref_pose3(vals):
    q, _ = quat_normalize(Quaternion(vals[6], vals[3], vals[4], vals[5]))
    return HomPose.from_rt(_rotation_from_unit_quat(q.qr, q.qx, q.qy, q.qz), vals[:3])


def _reference_read(text, auto_fix=True):
    g = PoseGraph()
    saw_fix = False
    for num, raw in enumerate(text.splitlines(), start=1):
        tok = raw.split()
        if not tok or tok[0].startswith("#"):
            continue
        try:
            tag = tok[0]
            if tag == "VERTEX_SE2":
                vals = [float(s) for s in _ref_fields(tok, 4)]
                g.add_vertex(int(tok[1]), _ref_pose2(*vals[1:]))
            elif tag == "VERTEX_SE3:QUAT":
                vals = [float(s) for s in _ref_fields(tok, 8)[1:]]
                g.add_vertex(int(tok[1]), _ref_pose3(vals))
            elif tag == "EDGE_SE2":
                strs = _ref_fields(tok, 11)
                vals = [float(s) for s in strs[2:]]
                g.add_edge(int(strs[0]), int(strs[1]),
                           _ref_pose2(*vals[:3]), _ref_upper_tri(vals[3:], 3))
            elif tag == "EDGE_SE3:QUAT":
                strs = _ref_fields(tok, 30)
                vals = [float(s) for s in strs[2:]]
                g.add_edge(int(strs[0]), int(strs[1]),
                           _ref_pose3(vals[:7]), _ref_upper_tri(vals[7:], 6))
            elif tag == "FIX":
                if len(tok) < 2:
                    raise GeometryError("FIX record needs at least one vertex id")
                for s in tok[1:]:
                    g.fix(int(s))
                saw_fix = True
            else:
                raise GeometryError("unknown record type %r" % tag)
        except (GeometryError, ValueError, TypeError) as exc:
            raise GeometryError("line %d: %s" % (num, exc)) from None
    if not g.vertices:
        raise GeometryError("g2o input defines no vertices")
    if auto_fix and not saw_fix and not g.fixed:
        g.fix(min(g.vertices))
    return g


def _ref_pose_values(pose):
    m = pose.mat
    if m.shape == (3, 3):
        return [m[0, 2], m[1, 2], pose.angle]
    q = _ref_quat_from_rotation(m[:3, :3])
    return [m[0, 3], m[1, 3], m[2, 3], q[1], q[2], q[3], q[0]]


def _reference_format(g):
    f = "%.17g"
    tag_v, tag_e = (("VERTEX_SE2", "EDGE_SE2") if g.kind == "se2"
                    else ("VERTEX_SE3:QUAT", "EDGE_SE3:QUAT"))
    out = ["%s %d %s" % (tag_v, vid, " ".join(f % float(v) for v in
                                               _ref_pose_values(g.vertices[vid])))
           for vid in sorted(g.vertices)]
    out += ["FIX %d" % vid for vid in sorted(g.fixed)]
    d = g.block_size
    for e in g.edges:
        values = _ref_pose_values(e.delta) + [e.information[r, c] for r in range(d)
                                              for c in range(r, d)]
        out.append("%s %d %d %s" % (tag_e, e.i, e.j, " ".join(f % float(v) for v in values)))
    return "\n".join(out) + "\n"


def _bits(a):
    return np.ascontiguousarray(a).tobytes()


def _assert_same_graph(a, b):
    assert a.kind == b.kind
    assert list(a.vertices) == list(b.vertices)
    for vid in a.vertices:
        assert type(a.vertices[vid]) is type(b.vertices[vid])
        assert _bits(a.vertices[vid].mat) == _bits(b.vertices[vid].mat)
    assert list(a.fixed) == list(b.fixed)
    assert len(a.edges) == len(b.edges)
    for ea, eb in zip(a.edges, b.edges):
        assert (ea.i, ea.j) == (eb.i, eb.j)
        assert _bits(ea.delta.mat) == _bits(eb.delta.mat)
        assert _bits(ea.information) == _bits(eb.information)


def _outcome(reader, text):
    """("ok", graph) or ("error", message) of a reader on text."""
    try:
        return "ok", reader(io.StringIO(text)) if reader is read_g2o else reader(text)
    except GeometryError as exc:
        return "error", str(exc)


# ---------------------------------------------------------------------------
# generated g2o text: valid graphs, then single or several faults

_ANGLES = [0.0, -0.0, math.pi, -math.pi, 0.5 * math.pi, 1e-300, 3.0, -2.5, 7.0]
# scalar-last as in the file: half turns about each axis (every pivot branch
# of the quaternion extraction), a negative scalar part, non-unit lengths
_QUATS = [(0.0, 0.0, 0.0, 1.0), (1.0, 0.0, 0.0, 0.0), (0.0, 1.0, 0.0, 0.0),
          (0.0, 0.0, 1.0, 0.0), (0.1, -0.2, 0.3, -0.9), (3.0, 4.0, 0.0, -12.0),
          (0.5, 0.5, 0.5, 0.5), (1e-9, 0.0, 0.0, 2e-9), (-0.7, 0.1, 0.7, 0.1)]
_FORMATS = ["%r", "%.17g", "%.4e", "%+.3f", "%.9g"]

_finite = st.floats(-1e4, 1e4, allow_nan=False, allow_infinity=False)


@st.composite
def _number(draw, values=None):
    x = draw(st.sampled_from(values) if values else _finite)
    return draw(st.sampled_from(_FORMATS)) % x


@st.composite
def _quat_tokens(draw):
    if draw(st.booleans()):
        q = draw(st.sampled_from(_QUATS))
    else:
        q = draw(st.tuples(_finite, _finite, _finite, _finite).filter(
            lambda v: max(map(abs, v)) > 1e-3))
    return ["%r" % v for v in q]


@st.composite
def _information_tokens(draw, d):
    lower = np.array(draw(st.lists(st.floats(-3.0, 3.0), min_size=d * d, max_size=d * d)))
    info = lower.reshape(d, d) @ lower.reshape(d, d).T + np.diag(
        draw(st.lists(st.sampled_from([0.0, 1.0, 100.0]), min_size=d, max_size=d)))
    return ["%r" % float(info[r, c]) for r in range(d) for c in range(r, d)]


@st.composite
def g2o_lines(draw):
    """Lines of a valid g2o file: ids, comments and records in mixed order."""
    planar = draw(st.booleans())
    ids = draw(st.lists(st.one_of(st.integers(0, 50), st.integers(2 ** 53, 2 ** 70)),
                        min_size=1, max_size=6, unique=True))
    lines = []
    for vid in ids:
        if planar:
            pose = [draw(_number()), draw(_number()), draw(_number(_ANGLES + [0.25]))]
            lines.append("VERTEX_SE2 %d %s" % (vid, " ".join(pose)))
        else:
            pose = [draw(_number()) for _ in range(3)] + draw(_quat_tokens())
            lines.append("VERTEX_SE3:QUAT %d %s" % (vid, " ".join(pose)))
        if draw(st.integers(0, 4)) == 0:
            lines.append(draw(st.sampled_from(["", "# comment", "   ", "#VERTEX_SE2 x"])))
    for _ in range(draw(st.integers(0, 6))):
        i, j = draw(st.sampled_from(ids)), draw(st.sampled_from(ids))
        if planar:
            fields = ([draw(_number()), draw(_number()), draw(_number(_ANGLES))]
                      + draw(_information_tokens(3)))
            rec = "EDGE_SE2 %d %d %s" % (i, j, " ".join(fields))
        else:
            fields = ([draw(_number()) for _ in range(3)] + draw(_quat_tokens())
                      + draw(_information_tokens(6)))
            rec = "EDGE_SE3:QUAT %d %d %s" % (i, j, " ".join(fields))
        after = max(n for n, line in enumerate(lines)
                    if line.split()[1:2] in (["%d" % i], ["%d" % j]) and "VERTEX" in line)
        lines.insert(draw(st.integers(after + 1, len(lines))), rec)
    if draw(st.booleans()):
        fixed = draw(st.lists(st.sampled_from(ids), min_size=1, max_size=3))
        lines.append("FIX " + " ".join("%d" % v for v in fixed))
    return lines


_BAD_NUMBERS = ["nan", "inf", "-inf", "bad", "1.5.", "0x10", "nan(1)", "1_0", "١", "1e999"]
_BAD_IDS = ["1.5", "1e3", "abc", "-1", "+3", "007", "99", "18446744073709551617", "0.0"]


@st.composite
def _fault(draw, lines):
    """lines with one fault planted (some plantings happen to stay valid)."""
    lines = list(lines)
    records = [n for n, line in enumerate(lines) if line.split() and line[0] != "#"]
    if not records:
        return lines
    n = draw(st.sampled_from(records))
    tok = lines[n].split()
    kind = draw(st.sampled_from(["truncate", "extend", "number", "id", "move", "fix",
                                 "empty_fix", "duplicate", "zero_quat", "indefinite",
                                 "mixed", "tag"]))
    if kind == "truncate":
        tok = tok[:draw(st.integers(1, len(tok) - 1))] if len(tok) > 1 else tok
    elif kind == "extend":
        tok.append("0")
    elif kind == "number" and len(tok) > 2:
        tok[draw(st.integers(2, len(tok) - 1))] = draw(st.sampled_from(_BAD_NUMBERS))
    elif kind == "id" and len(tok) > 1:
        tok[1] = draw(st.sampled_from(_BAD_IDS))
    elif kind == "move":
        lines.insert(draw(st.integers(0, len(lines))), lines.pop(n))
        return lines
    elif kind == "fix":
        lines.insert(draw(st.integers(0, len(lines))),
                     "FIX %s" % draw(st.sampled_from(_BAD_IDS + ["0", "1", "2"])))
        return lines
    elif kind == "empty_fix":
        lines.insert(draw(st.integers(0, len(lines))), "FIX")
        return lines
    elif kind == "duplicate":
        lines.insert(draw(st.integers(n + 1, len(lines))), lines[n])
        return lines
    elif kind == "zero_quat" and tok[0].endswith(":QUAT"):
        start = 5 if tok[0].startswith("VERTEX") else 6
        tok[start:start + 4] = ["0", "0", "-0.0", "0"]
    elif kind == "indefinite" and tok[0].startswith("EDGE"):
        tok[-1] = "-1"
    elif kind == "mixed":
        vid = tok[1] if len(tok) > 1 else "1"
        other = draw(st.sampled_from(
            ["VERTEX_SE3:QUAT 1 0 0 0 0 0 0 1", "EDGE_SE3:QUAT %s %s 0 0 0 0 0 0 1%s"
             % (vid, vid, " 1" * 21)] if "SE2" in tok[0] else
            ["VERTEX_SE2 1 0 0 0", "EDGE_SE2 %s %s 0 0 0 1 0 0 1 0 1" % (vid, vid)]))
        lines.insert(draw(st.integers(0, len(lines))), other)
        return lines
    elif kind == "tag":
        tok[0] = draw(st.sampled_from(["WOBBLE", "VERTEX_SE3", "edge_se2", "#x"]))
    lines[n] = " ".join(tok)
    return lines


@st.composite
def faulty_text(draw):
    lines = draw(g2o_lines())
    for _ in range(draw(st.integers(1, 3))):
        lines = draw(_fault(lines))
    return "\n".join(lines) + "\n"


@given(g2o_lines())
def test_batched_reader_bit_equal_to_reference(lines):
    text = "\n".join(lines) + "\n"
    g = read_g2o(io.StringIO(text))
    _assert_same_graph(g, _reference_read(text))
    assert format_g2o(g) == _reference_format(g)


def test_batched_reader_and_writer_match_reference_on_fixtures():
    for path in (CIRCLE, SPHERE):
        text = path.read_text(encoding="ascii")
        g = read_g2o(path)
        _assert_same_graph(g, _reference_read(text))
        assert format_g2o(g) == _reference_format(g) == text


_SE3_PAIR = "VERTEX_SE3:QUAT 0 0 0 0 0 0 0 1\nVERTEX_SE3:QUAT 1 0 0 0 0 0 0 1\nFIX 0\n"
_SE3_INFO = "1 0 0 0 0 0 1 0 0 0 0 1 0 0 0 1 0 0 1 0 1"


@given(faulty_text())
# a non-finite translation, and quaternions whose squared norm overflows
@example("VERTEX_SE3:QUAT 0 nan 0 0 0 0 0 1\n")
@example(_SE3_PAIR + "EDGE_SE3:QUAT 0 1 0 0 -inf 0 0 0 1 " + _SE3_INFO + "\n")
@example("VERTEX_SE3:QUAT 0 0 0 0 0 0 0 1e200\n")
@example(_SE3_PAIR + "EDGE_SE3:QUAT 0 1 1 2 3 0.5 -1e154 0 -3e154 " + _SE3_INFO + "\n")
def test_faults_give_the_reference_line_and_message(text):
    got, want = _outcome(read_g2o, text), _outcome(_reference_read, text)
    assert got[0] == want[0]
    if want[0] == "error":
        assert got[1] == want[1]
        assert re.match(r"(line \d+: |g2o input defines no vertices)", got[1])
    else:
        _assert_same_graph(got[1], want[1])


@st.composite
def _writer_graph(draw):
    """Graphs made through the API, with rotations on every pivot branch."""
    planar = draw(st.booleans())
    g = PoseGraph()
    n = draw(st.integers(1, 5))
    for vid in range(n):
        if planar:
            pose = HomPose2.from_xyt(draw(_finite), draw(_finite),
                                     draw(st.sampled_from(_ANGLES) | _finite))
        else:
            rot = draw(st.sampled_from([np.diag([1.0, -1.0, -1.0]), np.diag([-1.0, 1.0, -1.0]),
                                        np.diag([-1.0, -1.0, 1.0]), np.eye(3)])
                       | st.tuples(_finite, _finite, _finite).map(
                           lambda w: so3_exp(np.array(w) * 1e-4)))
            pose = HomPose.from_rt(rot, [draw(_finite), draw(_finite), draw(_finite)])
        g.add_vertex(vid, pose, fixed=(vid == 0))
    for _ in range(draw(st.integers(0, 4))):
        i, j = draw(st.integers(0, n - 1)), draw(st.integers(0, n - 1))
        g.add_edge(i, j, g.vertices[j], np.eye(g.block_size) * draw(st.floats(0.0, 1e6)))
    return g


@given(_writer_graph())
def test_batched_writer_byte_equal_to_reference(g):
    text = format_g2o(g)
    assert text == _reference_format(g)
    _assert_same_graph(read_g2o(io.StringIO(text), auto_fix=False),
                       _reference_read(text, auto_fix=False))


@pytest.mark.parametrize("text,message", [
    ("VERTEX_SE2 0 0 0 0\nVERTEX_SE2 1 0 0\n",
     "line 2: VERTEX_SE2 record needs 4 fields, got 3"),
    ("VERTEX_SE2 0 0 0 0\nWOBBLE 1\n", "line 2: unknown record type 'WOBBLE'"),
    ("VERTEX_SE2 0 0 0 0\nVERTEX_SE2 1 0 x 0\n",
     "line 2: could not convert string to float: 'x'"),
    ("VERTEX_SE2 0 0 0 0\nVERTEX_SE2 1e3 0 0 0\n",
     "line 2: invalid literal for int() with base 10: '1e3'"),
    ("VERTEX_SE2 0 0 0 0\nVERTEX_SE2 0 1 0 0\n", "line 2: PoseGraph: duplicate vertex id 0"),
    ("VERTEX_SE2 0 0 0 0\nEDGE_SE2 0 1 0 0 0 1 0 0 1 0 1\nVERTEX_SE2 1 0 0 0\n",
     "line 2: PoseGraph: edge endpoint 1 is not a vertex"),
    ("FIX 0\nVERTEX_SE2 0 0 0 0\n", "line 1: PoseGraph: cannot fix unknown vertex 0"),
    ("VERTEX_SE2 0 0 0 0\nFIX\n", "line 2: FIX record needs at least one vertex id"),
    ("VERTEX_SE2 0 0 0 0\nVERTEX_SE3:QUAT 1 0 0 0 0 0 0 1\n",
     "line 2: PoseGraph: cannot mix planar and 3D vertices (vertex 1)"),
    ("VERTEX_SE3:QUAT 0 0 0 0 0 0 0 0\n", "line 1: quat_normalize: zero-norm quaternion"),
    ("VERTEX_SE3:QUAT 0 0 0 0 nan 0 0 1\n",
     "line 1: Quaternion: qr, qx, qy, qz must be a finite 4-vector"),
    ("VERTEX_SE2 0 0 inf 0\n", "line 1: HomPose2: matrix must be a finite 3x3"),
    ("VERTEX_SE2 0 0 0 0\nVERTEX_SE2 1 0 0 0\nEDGE_SE2 0 1 0 0 0 1 0 0 1 0 nan\n",
     "line 3: PoseGraph: edge (0, 1) information must be a finite 3x3 matrix"),
    ("VERTEX_SE2 0 0 0 0\nVERTEX_SE2 1 0 0 0\nEDGE_SE2 0 1 0 0 0 1 1e308 0 1 0 1\n",
     "line 3: PoseGraph: edge (0, 1) information must be a finite 3x3 matrix"),
    ("VERTEX_SE2 0 0 0 0\nVERTEX_SE2 1 0 0 0\nEDGE_SE2 0 1 0 0 0 1 2 0 1 0 1\n",
     "line 3: PoseGraph: edge (0, 1) information matrix is not positive semidefinite"),
])
def test_each_fault_keeps_its_line_and_message(text, message):
    with pytest.raises(GeometryError) as exc:
        read_g2o(io.StringIO(text))
    assert str(exc.value) == message
    assert _outcome(_reference_read, text) == ("error", message)


def test_fault_is_reported_at_the_first_faulty_line():
    # faults on lines 5, 4 and 3, found by different checks
    text = ("VERTEX_SE2 0 0 0 0\nVERTEX_SE2 1 0 0 0\nFIX 7\n"
            "EDGE_SE2 0 1 0 0 0 -1 0 0 1 0 1\nVERTEX_SE2 2 0 x 0\n")
    with pytest.raises(GeometryError, match="^line 3: PoseGraph: cannot fix unknown vertex 7$"):
        read_g2o(io.StringIO(text))


def test_ids_keep_int_semantics():
    big = 2 ** 64 + 1  # not representable as a double
    text = ("VERTEX_SE2 %d 0 0 0\nVERTEX_SE2 +7 1 0 0\nEDGE_SE2 %d 007 1 0 0 1 0 0 1 0 1\n"
            % (big, big))
    g = read_g2o(io.StringIO(text))
    assert list(g.vertices) == [big, 7]
    assert (g.edges[0].i, g.edges[0].j) == (big, 7)
    assert g.fixed == {7}
    assert "VERTEX_SE2 %d " % big in format_g2o(g)


def test_non_ascii_byte_names_line(tmp_path):
    path = tmp_path / "latin.g2o"
    path.write_bytes(b"VERTEX_SE2 0 0 0 0\r\n# caf\xe9\nVERTEX_SE2 1 0 0\xb0 0\n")
    with pytest.raises(GeometryError, match="^line 3: could not convert string to float"):
        read_g2o(path)


@settings(max_examples=25)
@given(faulty_text())
def test_slam_cli_exits_1_naming_the_line(tmp_path_factory, text):
    if _outcome(_reference_read, text)[0] == "ok":
        return
    from click.testing import CliRunner

    from rigidkit.cli import main

    tmp = tmp_path_factory.mktemp("fuzz")
    (tmp / "in.g2o").write_text(text, encoding="utf-8")
    res = CliRunner().invoke(main, ["slam", str(tmp / "in.g2o"), str(tmp / "out.g2o")])
    assert res.exit_code == 1, res.output
    assert isinstance(res.exception, SystemExit)
    assert re.search(r"error: (line \d+: |g2o input defines no vertices)", res.output)
    assert "Traceback" not in res.output
