"""Check the ``rigidkit jacobian-check --json`` report against the catalog.

Runs ``python -m rigidkit.cli jacobian-check --samples 100 --seed 7 --json``
(the benchmark's size).  The command must exit 0 and its report must be
strict JSON (no NaN or Infinity token), hold 48 passing operations, and
equal ``[r.to_json_dict() for r in check_catalog(seed=7, n=100)]``.  It
then runs ``check_catalog(seed, n=100)`` for each seed of ``SWEEP`` (1 to
20): all 48 checks must pass at each.  Exits non-zero, naming what failed,
otherwise.  Usage, with rigidkit importable:

    python3 tools/check_jacobian_report.py
"""

import json
import subprocess
import sys

from rigidkit import check_catalog

SEED, SAMPLES = 7, 100
SWEEP = range(1, 21)


def _no_constant(token):
    raise ValueError("not strict JSON: " + token)


def main():
    out = subprocess.run(
        [sys.executable, "-m", "rigidkit.cli", "jacobian-check",
         "--samples", str(SAMPLES), "--seed", str(SEED), "--json"],
        stdout=subprocess.PIPE, universal_newlines=True)
    if out.returncode != 0:
        sys.exit("jacobian-check exited %d" % out.returncode)
    reports = json.loads(out.stdout, parse_constant=_no_constant)
    failed = [r["op"] for r in reports if r["pass"] is not True]
    if len(reports) != 48 or failed:
        sys.exit("%d operations, failed: %s" % (len(reports), failed))
    expected = [r.to_json_dict() for r in check_catalog(seed=SEED, n=SAMPLES)]
    if reports != expected:
        sys.exit("differs from check_catalog: %s"
                 % [a["op"] for a, b in zip(reports, expected) if a != b])
    print("%d/%d operations passed; the command's report equals check_catalog"
          % (len(reports) - len(failed), len(reports)))
    failed = ["seed %d: %s" % (seed, r.op) for seed in SWEEP
              for r in check_catalog(seed=seed, n=SAMPLES) if not r.passed]
    if failed:
        sys.exit("failed: %s" % ", ".join(failed))
    print("seeds %d-%d: 48/48 operations passed at each" % (SWEEP[0], SWEEP[-1]))


if __name__ == "__main__":
    main()
