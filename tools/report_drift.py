#!/usr/bin/env python3
"""List the retarded_points reports that differ between two checkouts.

Runs the 96 (z, T) points of the benchmark's ``retarded_points`` pool
through ``tools/retarded_fingerprint.py``'s ``pool_reports``, once on the
``src`` of the checkout that holds this script and once on PARENT_ROOT's
``src``, each in a fresh interpreter.  Both sides read the pool and the
gate from this checkout's ``perfbench``, so only the library differs.

A point has moved when ``repr`` of its report, or of the typed physics
error it raised, differs between the sides.  For each moved point one line
gives its pool index, (z, T) and the largest relative change among the
six values the benchmark's gate checks (``perfbench/gate.py``,
``report_values``), with the value that has it; the last line gives the
count and the overall largest change.  The change of a value is
|this - parent| / |parent|, inf where a report became an error or the
other way round.

    python3 tools/report_drift.py PARENT_ROOT
"""

import json
import math
import os
import subprocess
import sys

HERE = os.path.normpath(os.path.join(os.path.dirname(
    os.path.abspath(__file__)), os.pardir))

#: run by each side's interpreter, argv[1] this checkout's tools: one JSON
#: line per pool point, [z, T, repr, {name: value} of the six gated values
#: or None]
_CHILD = """
import json, sys
sys.path.insert(0, sys.argv[1])
import retarded_fingerprint, gate
for _, (z, T), out in retarded_fingerprint.pool_reports():
    values = None if isinstance(out, Exception) else dict(zip(
        (name for name, _ in gate.FIELDS), gate.report_values(out)))
    print(json.dumps([z, T, repr(out), values]))
"""


def reports(root):
    """The [z, T, repr, values] of every pool point, run on root's src."""
    env = dict(os.environ, PYTHONPATH=os.path.join(root, "src"))
    proc = subprocess.run(
        [sys.executable, "-c", _CHILD, os.path.join(HERE, "tools")],
        cwd=root, env=env, capture_output=True, text=True, check=True)
    return [json.loads(line) for line in proc.stdout.splitlines()]


def largest_change(new, old):
    """(relative change, field name) of the value of the six that moved
    most; (inf, "error") where either side raised."""
    if new is None or old is None:
        return math.inf, "error"
    return max((abs(new[name] - o) / abs(o) if o else
                (0.0 if new[name] == o else math.inf), name)
               for name, o in old.items())


def main(argv):
    if len(argv) != 1:
        print(__doc__.strip().splitlines()[-1].strip(), file=sys.stderr)
        return 2
    here, parent = reports(HERE), reports(os.path.abspath(argv[0]))
    if len(here) != len(parent):
        print(f"pools differ: {len(here)} points here, {len(parent)} in "
              "the parent", file=sys.stderr)
        return 1
    worst = 0.0
    moved = 0
    for i, ((z, T, new_repr, new), (_, _, old_repr, old)) in enumerate(
            zip(here, parent)):
        if new_repr == old_repr:
            continue
        moved += 1
        change, name = largest_change(new, old)
        worst = max(worst, change)
        print(f"{i:2d}  z={z:.6e} m  T={T:8.3f} K  {change:.2e}  ({name})")
    print(f"{moved} of {len(here)} points moved; largest relative change "
          f"{worst:.2e}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
