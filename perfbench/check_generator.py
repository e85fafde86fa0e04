"""Check that the benchmark's own graph generator matches the library.

For each kind, size and noise seed below, the text from
``inputs.g2o_text`` must equal ``write_g2o(synth_graph(...)[1])`` byte for
byte, and the independent chi2 must agree with ``rigidkit.chi2``.

Run from the repository root:  PYTHONPATH=src python3 perfbench/check_generator.py
"""

import io
import sys

import inputs
from rigidkit import chi2, read_g2o, synth_graph, write_g2o

CASES = [("grid2d", 2025, 1), ("sphere3d", 1500, 1)] + [
    (kind, n, seed) for kind, sizes in (("circle2d", (60, 120, 240, 480)),
                                        ("sphere3d", (60, 120, 180, 240)))
    for n in sizes for seed in (1, 2)]


def main():
    bad = 0
    for kind, n, seed in CASES:
        mine = inputs.g2o_text(kind, n, seed)
        buf = io.StringIO()
        write_g2o(synth_graph(kind, n, inputs.SIGMAS, seed=seed)[1], buf)
        relabeled = inputs.g2o_text(kind, n, seed, relabel_seed=7)
        c_lib = chi2(read_g2o(io.StringIO(relabeled)))
        c_own = inputs.parse_g2o(relabeled).chi2()
        ok = mine == buf.getvalue() and abs(c_lib - c_own) <= 1e-9 * c_lib
        bad += not ok
        print("%s %s-%d seed %d: %d bytes, chi2 %.10g / %.10g"
              % ("OK  " if ok else "FAIL", kind, n, seed, len(mine), c_lib, c_own))
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
