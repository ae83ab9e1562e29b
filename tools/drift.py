#!/usr/bin/env python3
"""List every output of polshift that differs between two checkouts.

    python3 tools/drift.py PARENT_ROOT

Runs four case sets on the ``src`` of the checkout that holds this script
and on PARENT_ROOT's ``src``, each side in a fresh interpreter.  Both sides
read the cases, the pools and the gate from this checkout's ``tools`` and
``perfbench``, so only the library differs.  The sets:

* cli: the runs of ``tools/cli_cases.py``, each through
  ``polshift.cli.main`` in-process;
* modes: the ``find_polariton_modes`` table of each material of the
  benchmark's ``modes_sweep`` pool;
* retarded: the ``--green full`` report of each point of its
  ``retarded_points`` pool, run as the workload runs it;
* cold: the nonretarded report of each temperature of its ``cold_points``
  pool at ``workloads.Z_REF``, run as the workload runs it.

A case has moved when any bit of it differs: a CLI run's exit code, output
file or stderr, or ``repr`` of a mode table or report, or of the typed
physics error raised in its place.  Each moved case prints one line with
its largest relative change |this - parent| / |parent| and the quantity
that has it: over every number a CLI run's JSON or CSV output prints, per
``PolaritonMode`` field of a table, or over the six values the benchmark's
gate checks of a report.  The change is inf where the parent's value is 0,
and where a changed exit code, stderr, output shape (the output with its
numbers taken out), error, mode count or ``narrow`` flag leaves nothing to
compare.  Each set ends with one line: the count moved, the largest change
and each quantity's largest change.

The full-route outputs (the ``--green full`` runs and the retarded set)
hold numpy's float64 exp and hypot bits, which depend on the host's SIMD
kernels, so the two sides compare only on one machine.  Export the parent
with ``git archive PARENT | tar -x -C PARENT_ROOT``.
"""

import contextlib
import io
import json
import math
import os
import re
import subprocess
import sys
import tempfile
from unittest import mock

TOOLS = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(TOOLS)
sys.path.insert(0, os.path.join(ROOT, "perfbench"))
import cli_cases  # noqa: E402
import gate  # noqa: E402
import workloads  # noqa: E402

SETS = ("cli", "modes", "retarded", "cold")

#: the float fields of PolaritonMode; narrow is compared exactly
MODE_FIELDS = ("omega_center", "linewidth", "band_lo", "band_hi",
               "im_rp_peak")

#: a number as repr and the csv writer print it, its sign included
NUMBER = re.compile(r"[-+]?(?:\d+\.?\d*|\.\d+)(?:[eE][-+]?\d+)?")

# A case's record is [identity, shape, values]: the case has moved when
# the identities differ, a shape entry that differs makes it incomparable,
# and values maps each quantity to its list of numbers.


def cli_record(code, out, err):
    """The record of a CLI run: its exit code, output text and stderr."""
    return [[code, out, err],
            {"exit": code, "stderr": err, "shape": NUMBER.sub("#", out)},
            {"output": [float(x) for x in NUMBER.findall(out)]}]


def modes_record(modes):
    """The record of a mode table, or of the physics error raised in its
    place."""
    if isinstance(modes, Exception):
        return [repr(modes), {"error": repr(modes)}, {}]
    return [repr(modes),
            {"error": None, "modes": len(modes),
             "narrow": [mode.narrow for mode in modes]},
            {name: [getattr(mode, name) for mode in modes]
             for name in MODE_FIELDS}]


def report_record(report):
    """The record of a ShiftReport, or of the physics error raised in its
    place."""
    if isinstance(report, Exception):
        return [repr(report), {"error": repr(report)}, {}]
    return [repr(report), {"error": None},
            {name: [v] for (name, _), v in zip(gate.FIELDS,
                                                gate.report_values(report))}]


def change(new, old):
    """|new - old| / |old|: 0 where they are equal or both NaN, inf where
    old is 0 or the quotient is NaN."""
    if new == old or new != new and old != old:
        return 0.0
    rel = abs(new - old) / abs(old) if old else math.inf
    return rel if rel == rel else math.inf


def compare(new, old):
    """{quantity: largest relative change} of a moved case, None where the
    two records are the same.  Every shape entry that differs gives inf
    under its own name, and the values are then not compared."""
    if new[0] == old[0]:
        return None
    shape = {name: math.inf for name in {**old[1], **new[1]}
             if new[1].get(name) != old[1].get(name)}
    return shape or {name: max(map(change, new[2][name], values),
                               default=0.0)
                     for name, values in old[2].items()}


def summarize(name, new, old):
    """The lines of one case set: one per moved case, then the count, the
    largest change and each quantity's.  new and old list the (label,
    record) of each case, in the same order on both sides."""
    lines, worst = [], {}
    for (label, a), (_, b) in zip(new, old):
        changes = compare(a, b)
        if changes is None:
            continue
        top = max(changes, key=changes.get)
        lines.append(f"{name:8s} {label:40s} {changes[top]:.2e}  ({top})")
        for quantity, c in changes.items():
            worst[quantity] = max(worst.get(quantity, 0.0), c)
    summary = (f"{name}: {len(lines)} of {len(new)} moved; largest "
               f"relative change {max(worst.values(), default=0.0):.2e}")
    if worst:
        summary += "; per quantity: " + ", ".join(
            f"{quantity} {c:.2e}" for quantity, c in worst.items())
    return lines + [summary]


def _emit(name, label, record):
    print(json.dumps([name, label, record]))


def emit():
    """Print [set, label, record] as one JSON line per case, run on the
    polshift on the import path: one side of a comparison."""
    import polshift.cli
    from polshift import find_polariton_modes, material_from_dict
    from polshift.errors import PhysicsError

    with tempfile.TemporaryDirectory() as workdir:
        for i, (label, argv, env) in enumerate(cli_cases.runs(workdir)):
            output, err = os.path.join(workdir, f"{i}.out"), io.StringIO()
            with mock.patch.dict(os.environ, env), \
                    contextlib.redirect_stderr(err):
                code = polshift.cli.main(argv + ["--output", output])
            out = ""
            if os.path.exists(output):
                with open(output, encoding="utf-8", newline="") as fh:
                    out = fh.read()
            _emit("cli", label, cli_record(code, out, err.getvalue()))
    ref = workloads.load_reference(("modes_sweep", "retarded_points",
                                    "cold_points"))
    for i, oscs in enumerate(ref["modes_sweep"]["materials"]):
        try:
            modes = find_polariton_modes(
                material_from_dict(workloads.material_doc(i, oscs)))
        except PhysicsError as exc:
            modes = exc
        _emit("modes", str(i), modes_record(modes))
    run = workloads.Runner("retarded_points", ref)
    for i in range(len(ref["retarded_points"]["points"])):
        report, _ = run({"i": i})
        z, T = run.inputs({"i": i})
        _emit("retarded", f"{i} z={z:.6e} m T={T:.3f} K",
              report_record(report))
    for label, record in cold_cases(ref):
        _emit("cold", label, record)


def cold_cases(ref):
    """The (label, record) of the report of each temperature of ref's
    cold_points pool at workloads.Z_REF, run as the workload runs it."""
    run = workloads.Runner("cold_points", ref)
    for s, stratum in enumerate(ref["cold_points"]["T"]):
        for k, T in enumerate(stratum):
            report, _ = run({"z": workloads.Z_REF, "T": (s, k)})
            yield f"{s}.{k} T={T:.6f} K", report_record(report)


#: each side's interpreter runs this, argv[1] being this checkout's tools
_CHILD = "import sys; sys.path.insert(0, sys.argv[1]); import drift; " \
         "drift.emit()"


def side(root):
    """{set: [(label, record)]} of every case, run on root's src."""
    env = dict(os.environ, PYTHONPATH=os.path.join(root, "src"))
    proc = subprocess.run([sys.executable, "-c", _CHILD, TOOLS], cwd=root,
                          env=env, stdout=subprocess.PIPE, text=True,
                          check=True)
    cases = {name: [] for name in SETS}
    for line in proc.stdout.splitlines():
        name, label, record = json.loads(line)
        cases[name].append((label, record))
    return cases


def main(argv):
    if len(argv) != 1:
        print("usage: python3 tools/drift.py PARENT_ROOT", file=sys.stderr)
        return 2
    here, parent = side(ROOT), side(os.path.abspath(argv[0]))
    for name in SETS:
        print("\n".join(summarize(name, here[name], parent[name])))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
