#!/usr/bin/env python3
"""Record the benchmark of one or more checkouts, one BENCH_<commit>.json
each.

Runs ``perfbench/run.py`` of each checkout on each of its four workloads:
untraced (``--trace 0``) over seeds 1-5, then once traced (``--trace 1``)
at seed 1.  Every run prints one JSON line, {"correct", "attempted",
"failed", "metrics"}; a checkout's file keeps each of its lines as printed
and, per workload, the median and quartiles of the untraced end-to-end
metrics.  The runs go one after another in fresh interpreters, and the
checkouts take turns at each (workload, seed), the one that goes first
rotating from seed to seed, so that a drift of a shared host's load over
the recording lands on every checkout alike:

    python3 tools/bench_trajectory.py                  # this checkout
    python3 tools/bench_trajectory.py PARENT .         # a parent beside it

Each checkout argument is a git checkout (default: the one holding this
script); its commit is its ``git rev-parse --short HEAD``, and its file
notes whether its tracked files differed from that commit and which
commits it was recorded beside.  The files go to --out-dir (default: this
checkout).  Every run lasts SECONDS, the default run length of
perfbench/run.py, so files of different commits compare; a recording
takes about 4 x 6 x 20 s per checkout, plus setup.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("scan", "cold_points", "retarded_points", "modes_sweep")
SEEDS = (1, 2, 3, 4, 5)
END_TO_END = ("setup_s", "ops_per_s", "latency_ms_p50", "peak_rss_mb")
SECONDS = 20


def _git(root, *args):
    return subprocess.run(["git", "-C", root, *args], check=True,
                          capture_output=True, text=True).stdout.strip()


def run_once(root, workload, seed, trace):
    """The JSON line of one perfbench run, or {"error": ...} if it printed
    none (a traced run on a commit whose wrapped names are gone)."""
    proc = subprocess.run(
        [sys.executable, os.path.join(root, "perfbench", "run.py"),
         "--workload", workload, "--seed", str(seed),
         "--seconds", str(SECONDS), "--trace", str(trace)],
        cwd=root, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    try:
        out = json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        out = {"error": proc.stderr.strip().splitlines()[-1:]}
    out["exit"] = proc.returncode
    return out


def quartiles(values):
    """(q1, median, q3) of the values, the 'inclusive' method."""
    if len(values) == 1:
        return values * 3
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q2, q3


def summary(runs):
    """Median and quartiles of each end-to-end metric over the runs that
    printed it, plus whether every run was correct and how many failed."""
    out = {"correct": all(r.get("correct") is True for r in runs),
           "attempted": [r.get("attempted") for r in runs],
           "failed": [r.get("failed") for r in runs]}
    for name in END_TO_END:
        values = [r["metrics"][name]["value"] for r in runs
                  if name in r.get("metrics", {})]
        if values:
            q1, med, q3 = quartiles(values)
            out[name] = {"median": med, "q1": q1, "q3": q3,
                         "unit": runs[0]["metrics"][name]["unit"]}
    return out


def in_turn(roots, workload, seed, trace, turn):
    """{root: run_once(root, ...)}, the roots run one after another, the
    first of them roots[turn % len(roots)]."""
    out = {}
    for i in range(len(roots)):
        root = roots[(turn + i) % len(roots)]
        out[root] = run_once(root, workload, seed, trace)
        print(f"{workload} seed {seed} trace {trace} {root}: "
              f"{json.dumps(out[root])}", file=sys.stderr)
    return out


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("checkouts", nargs="*", default=[ROOT],
                   help="checkouts to measure (default: this one)")
    p.add_argument("--out-dir", default=ROOT,
                   help="where the BENCH_<commit>.json files go")
    args = p.parse_args(argv)
    roots = [os.path.abspath(root) for root in args.checkouts]
    commits = [_git(root, "rev-parse", "--short", "HEAD") for root in roots]
    if len(set(commits)) < len(commits):
        p.error("two checkouts at one commit would write one file")
    sys.path.insert(0, os.path.join(roots[0], "perfbench"))
    import run  # noqa: E402  (the first checkout's own perfbench)

    docs = {}
    for root, commit in zip(roots, commits):
        docs[root] = {
            "commit": commit,
            "dirty": bool(_git(root, "status", "--porcelain",
                               "--untracked-files=no")),
            "recorded_beside": [c for c in commits if c != commit],
            "machine": run.machine_info(),
            "command": "perfbench/run.py --workload W --seed S "
                       f"--seconds {SECONDS} --trace T",
            "seeds": list(SEEDS), "workloads": {}}
    for workload in WORKLOADS:
        untraced = {root: [] for root in roots}
        for turn, seed in enumerate(SEEDS):
            for root, out in in_turn(roots, workload, seed, 0, turn).items():
                untraced[root].append(out)
        traced = in_turn(roots, workload, 1, 1, len(SEEDS))
        for root in roots:
            docs[root]["workloads"][workload] = {
                "summary": summary(untraced[root]),
                "untraced": untraced[root],
                "traced_seed_1": traced[root]}
    for root, commit in zip(roots, commits):
        path = os.path.join(args.out_dir, f"BENCH_{commit}.json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(docs[root], fh, indent=1, sort_keys=True)
            fh.write("\n")
        print(path)
    return 0


if __name__ == "__main__":
    sys.exit(main())
