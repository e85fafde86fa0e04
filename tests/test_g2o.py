"""Plain-text pose-graph file parsing and serialization."""
import io
import pathlib

import numpy as np
import pytest

from rigidkit import (GeometryError, HomPose2, PoseGraph, format_g2o,
                      read_g2o, se2_exp, write_g2o)

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
