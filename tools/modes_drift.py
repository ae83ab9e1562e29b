#!/usr/bin/env python3
"""List the modes_sweep mode tables that differ between two checkouts.

Runs the 6000 materials of the benchmark's ``modes_sweep`` pool through
``tools/modes_fingerprint.py``'s ``pool_tables``, once on the ``src`` of
the checkout that holds this script and once on PARENT_ROOT's ``src``,
each in a fresh interpreter.  Both sides read the pool from this
checkout's ``perfbench``, so only the library differs.

A table has moved when ``repr`` of its mode list, or of the typed physics
error it raised, differs between the sides.  For each moved table one line
gives its pool index and, for each field of ``PolaritonMode``, the largest
relative change over its modes; the last line gives the count, the overall
largest change and the largest change of each field over every table.  The
change of a value is |this - parent| / |parent|, inf where a table became
an error or the other way round, or its number of modes changed; a flipped
``narrow`` counts as inf.

    python3 tools/modes_drift.py PARENT_ROOT
"""

import json
import math
import os
import subprocess
import sys

HERE = os.path.normpath(os.path.join(os.path.dirname(
    os.path.abspath(__file__)), os.pardir))

#: the fields of PolaritonMode, in the order the child prints them
FIELDS = ("omega_center", "linewidth", "band_lo", "band_hi", "narrow",
          "im_rp_peak")

#: run by each side's interpreter, argv[1] this checkout's tools: one JSON
#: line per pool material, [repr, one list of FIELDS per mode, or None]
_CHILD = """
import json, sys
sys.path.insert(0, sys.argv[1])
import modes_fingerprint
FIELDS = %r
for _, modes in modes_fingerprint.pool_tables():
    rows = None if isinstance(modes, Exception) else [
        [getattr(mode, name) for name in FIELDS] for mode in modes]
    print(json.dumps([repr(modes), rows]))
""" % (FIELDS,)


def tables(root):
    """The [repr, rows] of every pool material, run on root's src."""
    env = dict(os.environ, PYTHONPATH=os.path.join(root, "src"))
    proc = subprocess.run(
        [sys.executable, "-c", _CHILD, os.path.join(HERE, "tools")],
        cwd=root, env=env, capture_output=True, text=True, check=True)
    return [json.loads(line) for line in proc.stdout.splitlines()]


def change(new, old):
    """|new - old| / |old|; 0 where they are equal, inf where old is 0 or
    they are the two values of a bool."""
    if new == old:
        return 0.0
    if isinstance(old, bool) or not old:
        return math.inf
    return abs(new - old) / abs(old)


def field_changes(new, old):
    """{field: largest relative change over the modes}; inf in every field
    where either side raised or the mode counts differ."""
    if new is None or old is None or len(new) != len(old):
        return dict.fromkeys(FIELDS, math.inf)
    return {name: max((change(a[k], b[k]) for a, b in zip(new, old)),
                      default=0.0)
            for k, name in enumerate(FIELDS)}


def main(argv):
    if len(argv) != 1:
        print(__doc__.strip().splitlines()[-1].strip(), file=sys.stderr)
        return 2
    here, parent = tables(HERE), tables(os.path.abspath(argv[0]))
    if len(here) != len(parent):
        print(f"pools differ: {len(here)} tables here, {len(parent)} in "
              "the parent", file=sys.stderr)
        return 1
    worst = dict.fromkeys(FIELDS, 0.0)
    moved = 0
    for i, ((new_repr, new), (old_repr, old)) in enumerate(zip(here,
                                                               parent)):
        if new_repr == old_repr:
            continue
        moved += 1
        changes = field_changes(new, old)
        for name, c in changes.items():
            worst[name] = max(worst[name], c)
        print(f"{i:4d}  " + "  ".join(f"{name} {c:.2e}"
                                      for name, c in changes.items()))
    print(f"{moved} of {len(here)} tables moved; largest relative change "
          f"{max(worst.values()):.2e}; per field: " + ", ".join(
              f"{name} {c:.2e}" for name, c in worst.items()))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
