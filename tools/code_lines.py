"""Print the code lines of each module of src/rigidkit and their total.

A code line holds a token other than a comment, NL, NEWLINE, INDENT,
DEDENT or ENDMARKER; a string token that starts a logical line (a
docstring, or a bare string statement) does not count.  Usage:

    python3 tools/code_lines.py [package directory]
"""

import sys
import tokenize
from pathlib import Path

_NOT_CODE = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
             tokenize.DEDENT, tokenize.ENDMARKER, tokenize.ENCODING}


def code_lines(path):
    """Number of code lines of the Python file at path."""
    lines = set()
    at_start = True
    with open(path, "rb") as fh:
        for tok in tokenize.tokenize(fh.readline):
            if tok.type in _NOT_CODE:
                at_start = at_start or tok.type == tokenize.NEWLINE
                continue
            if not (at_start and tok.type == tokenize.STRING):
                lines.update(range(tok.start[0], tok.end[0] + 1))
            at_start = False
    return len(lines)


def main(argv):
    root = Path(argv[1] if len(argv) > 1 else Path(__file__).parent.parent / "src" / "rigidkit")
    counts = {p.name: code_lines(p) for p in sorted(root.glob("*.py"))}
    for name, n in counts.items():
        print("%-16s %5d" % (name, n))
    print("%-16s %5d" % ("total", sum(counts.values())))


if __name__ == "__main__":
    main(sys.argv)
