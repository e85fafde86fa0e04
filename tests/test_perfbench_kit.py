"""The benchmark's scalar mix gives its stored reference results.

``perfbench/kit.py`` is imported read-only through ``sys.path``, without
writing bytecode next to it.  Every pool case is built and called once,
and each of the 96 x 9 results must match its fingerprint in
``kit_refs.json`` within the benchmark's own tolerance, so a change that
moves a scalar result fails here rather than as failed operations in a
benchmark run.
"""
import importlib
import sys
from pathlib import Path

import pytest

import rigidkit

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


@pytest.fixture(scope="module")
def kit():
    sys.path.insert(0, str(PERFBENCH))
    write_bytecode, sys.dont_write_bytecode = sys.dont_write_bytecode, True
    try:
        return importlib.import_module("kit")
    finally:
        sys.dont_write_bytecode = write_bytecode
        sys.path.remove(str(PERFBENCH))


def test_every_pool_case_matches_the_references(kit):
    refs = kit.load_refs()["ops"]
    results = [(op, i, kit.fingerprint(fn(*args)))
               for i, case in enumerate(kit.pool()) for op, fn, args in kit.build(rigidkit, case)]
    assert len(results) == kit.POOL_SIZE * len(kit.OPS) == 864
    assert [(op, i) for op, i, fp in results if not kit.matches(fp, refs[op][i])] == []
