"""Check the pooled ``rigidkit jacobian-check --json`` report against the serial catalog.

Runs ``python -m rigidkit.cli jacobian-check --samples 100 --seed 7 --json``
(the benchmark's size) in its process pool.  The command must exit 0 and
its report must be strict JSON (no NaN or Infinity token), hold 48
passing operations, and equal ``[r.to_json_dict() for r in
check_catalog(seed=7, n=100)]``.  Exits non-zero otherwise.  Usage, with
rigidkit importable:

    python3 tools/check_jacobian_report.py
"""

import json
import subprocess
import sys

from rigidkit import check_catalog

SEED, SAMPLES = 7, 100


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
    serial = [r.to_json_dict() for r in check_catalog(seed=SEED, n=SAMPLES)]
    if reports != serial:
        sys.exit("differs from the serial check_catalog: %s"
                 % [a["op"] for a, b in zip(reports, serial) if a != b])
    print("%d/%d operations passed; the pooled report equals the serial check_catalog"
          % (len(reports) - len(failed), len(reports)))


if __name__ == "__main__":
    main()
