#!/usr/bin/env python3
"""Print the sha256 of the report of every retarded_points pool point.

The pool is the 96 (z, T) points of the benchmark's ``retarded_points``
workload, read from ``perfbench/reference/retarded_points.json`` through
``perfbench/workloads.py``.  Each point runs as the workload runs it:
``polshift.cli.run_point`` with ``--green full`` on the workload's material
and atom.  One line is printed per point: its pool index and the sha256 of
``repr`` of its ``ShiftReport``, or of the typed physics error it raised.
Two checkouts whose listings are identical give the same full-route reports
bit for bit, and diffing the listings of a parent and a change names the
points the change moved.

Run from any directory, against the polshift on the import path:

    PYTHONPATH=src python3 tools/retarded_fingerprint.py
"""

import hashlib
import os
import sys

sys.path.insert(0, os.path.join(os.path.dirname(os.path.abspath(__file__)),
                                os.pardir, "perfbench"))
import workloads  # noqa: E402


def main():
    ref = workloads.load_reference(("retarded_points",))
    run = workloads.Runner("retarded_points", ref)
    for i in range(len(ref["retarded_points"]["points"])):
        report, _ = run({"i": i})
        digest = hashlib.sha256(repr(report).encode()).hexdigest()
        print(f"{i:2d} {digest}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
