#!/usr/bin/env python3
"""Record one commit's benchmark as BENCH_<commit>.json.

Runs ``perfbench/run.py`` of a checkout on each of its four workloads:
untraced (``--trace 0``) over seeds 1-5, then once traced (``--trace 1``)
at seed 1.  Every run prints one JSON line, {"correct", "attempted",
"failed", "metrics"}; the file keeps each line as printed and, per
workload, the median and quartiles of the untraced end-to-end metrics.
The runs go one after another in fresh interpreters, so two files taken
on one machine by this script compare like for like:

    python3 tools/bench_trajectory.py                  # this checkout
    python3 tools/bench_trajectory.py --root OTHER --out-dir .

``--root`` is the checkout to measure (default: the one holding this
script); the commit is its ``git rev-parse --short HEAD``, and the file
notes whether its tracked files differed from that commit.  Every run
lasts SECONDS, the default run length of perfbench/run.py, so files of
different commits compare; a full recording takes about 4 x 6 x 20 s,
plus setup.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
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


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--root", default=os.path.dirname(HERE),
                   help="checkout to measure")
    p.add_argument("--out-dir", default=None,
                   help="where BENCH_<commit>.json goes (default: --root)")
    args = p.parse_args(argv)
    root = os.path.abspath(args.root)
    commit = _git(root, "rev-parse", "--short", "HEAD")
    sys.path.insert(0, os.path.join(root, "perfbench"))
    import run  # noqa: E402  (the measured checkout's own perfbench)

    doc = {"commit": commit,
           "dirty": bool(_git(root, "status", "--porcelain",
                              "--untracked-files=no")),
           "machine": run.machine_info(),
           "command": "perfbench/run.py --workload W --seed S "
                      f"--seconds {SECONDS} --trace T",
           "seeds": list(SEEDS), "workloads": {}}
    for workload in WORKLOADS:
        untraced = []
        for seed in SEEDS:
            untraced.append(run_once(root, workload, seed, 0))
            print(f"{workload} seed {seed}: {json.dumps(untraced[-1])}",
                  file=sys.stderr)
        traced = run_once(root, workload, 1, 1)
        doc["workloads"][workload] = {"summary": summary(untraced),
                                      "untraced": untraced,
                                      "traced_seed_1": traced}
    path = os.path.join(args.out_dir or root, f"BENCH_{commit}.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=1, sort_keys=True)
        fh.write("\n")
    print(path)
    return 0


if __name__ == "__main__":
    sys.exit(main())
