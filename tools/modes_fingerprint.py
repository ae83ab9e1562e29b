#!/usr/bin/env python3
"""Print the sha256 of the mode table of every modes_sweep pool material.

The pool is the 6000 random Drude-Lorentz materials of the benchmark's
``modes_sweep`` workload, read from ``perfbench/reference/modes_sweep.json``
through ``perfbench/workloads.py``.  Each material is built from the
document the workload writes for it, and one line is printed per material:
its pool index and the sha256 of ``repr`` of its ``find_polariton_modes``
table, or of the typed physics error it raised.  Two checkouts whose
listings are identical give the same mode tables bit for bit, and diffing
the listings of a parent and a change names the tables the change moved.

Run from any directory, against the polshift on the import path:

    PYTHONPATH=src python3 tools/modes_fingerprint.py
"""

import hashlib
import os
import sys

from polshift import find_polariton_modes, material_from_dict
from polshift.errors import PhysicsError

sys.path.insert(0, os.path.join(os.path.dirname(os.path.abspath(__file__)),
                                os.pardir, "perfbench"))
import workloads  # noqa: E402


def table(m):
    """The mode table of m, or the physics error it raised."""
    try:
        return find_polariton_modes(m)
    except PhysicsError as exc:
        return exc


def main():
    ref = workloads.load_reference(("modes_sweep",))
    for i, oscs in enumerate(ref["modes_sweep"]["materials"]):
        m = material_from_dict(workloads.material_doc(i, oscs))
        digest = hashlib.sha256(repr(table(m)).encode()).hexdigest()
        print(f"{i:4d} {digest}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
