"""perfbench: end-to-end and per-layer timing of polshift through its CLI.

    python3 perfbench/run.py --workload scan --seed 1 --seconds 20 --trace 0

``--trace 0`` sends requests of one workload in a closed loop (one client,
one thread) for ``--seconds`` and prints the end-to-end metrics.
``--trace 1`` runs a fixed request set of the workload twice, untraced and
traced (interleaved in chunks), and prints the per-layer metrics and the
tracing overhead; the fixed set makes its counts repeat exactly for a seed.
Times are calibrated for the host's speed (speed.py).  Every output passes
the correctness gate (gate.py) in both modes.  The last line of stdout is
one JSON object {"correct", "attempted", "failed", "metrics"}.
``--workload all`` runs every workload in turn, each in a fresh process.
"""

import os

# one BLAS thread, set before numpy is imported here or in a child
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import itertools  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(HERE, ".work")

import gate  # noqa: E402
import speed  # noqa: E402
import workloads as wl  # noqa: E402

#: fresh interpreters timed per run for setup_s; the median is reported
N_SETUP = 5
#: probe_setup.py's calibration loop time on the host the benchmark was
#: defined on, at its median speed
SETUP_KERNEL_REF_S = 5.2e-3
#: requests in the fixed set of a traced run (several seconds each way)
TRACE_REQUESTS = {"scan": 6, "cold_points": 4 * wl.COLD_STRATA,
                  "retarded_points": 6, "modes_sweep": 1000}
TRACE_CHUNKS = 4


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def machine_info():
    import numpy
    import scipy
    model = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            model = next((line.split(":", 1)[1].strip() for line in fh
                          if line.startswith("model name")), model)
    except OSError:
        pass
    return {"nproc": os.cpu_count(), "cpu_model": model,
            "python": platform.python_version(),
            "numpy": numpy.__version__, "scipy": scipy.__version__,
            "note": "shared host: other tenants' load shows in timings"}


def measure_setup(files):
    """Median setup_s and import_s over N_SETUP fresh interpreters, each
    scaled by the calibration loop it ran around them (probe_setup.py)."""
    env = dict(os.environ, PYTHONPATH=SRC)
    setup, imports = [], []
    for _ in range(N_SETUP):
        out = subprocess.run(
            [sys.executable, os.path.join(HERE, "probe_setup.py"), *files],
            env=env, cwd=ROOT, capture_output=True, text=True, timeout=120,
            check=True)
        probe = json.loads(out.stdout.strip().splitlines()[-1])
        factor = SETUP_KERNEL_REF_S / probe["kernel_s"]
        setup.append(factor * probe["setup_s"])
        imports.append(factor * probe["import_s"])
    return statistics.median(setup), statistics.median(imports)


class Gate:
    """Checks one workload's outputs against its reference file."""

    def __init__(self, runner, ref):
        self.runner = runner
        self.ref = ref
        self.centres = ref["material_broad_centres_rad_s"]
        self.mismatches = 0
        self.failed = 0
        self.first = None

    def __call__(self, spec, output, n_ops):
        """Record the failed operations of one request."""
        w, ref = self.runner.workload, self.ref
        if w == "scan":
            T_ref = [ref["scan"]["rows"][s][k] for s, k in spec["T"]]
            bad = gate.check_scan(output, spec["z"], self.runner.scan_T(spec),
                                  T_ref, ref["z_ref"], self.centres)
            reasons = list(bad.values())
        elif w == "modes_sweep":
            i = spec["i"]
            reasons = [gate.check_modes(output, ref[w]["modes"][i],
                                        ref[w]["materials"][i])]
        else:
            z, T = self.runner.inputs(spec)
            if w == "cold_points":
                s, k = spec["T"]
                ref_row = ref[w]["values"][s][k]
            else:
                ref_row = ref[w]["values"][spec["i"]]
            reasons = [gate.check_point(output, z, T, ref_row, ref["z_ref"],
                                        self.centres, w == "retarded_points")]
        reasons = [r for r in reasons if r]
        if not reasons:
            return
        self.failed += min(n_ops, len(reasons))
        if not isinstance(output, Exception):
            self.mismatches += 1
        if self.first is None:  # a scan spec is too long to print
            self.first = reasons[0] if w == "scan" else f"{spec}: {reasons[0]}"


def run_requests(runner, check, specs, seconds=None, block=1):
    """Closed loop over ``specs``, timed by a speed.ScaledLoop.

    Each output is gated right after its timed section and then dropped, so
    the run's memory does not grow with the operations it completes.  With
    ``seconds``, stops at the first multiple of ``block`` requests once that
    much wall-clock time has gone into requests, or when ``specs`` ends.
    """
    loop = speed.ScaledLoop()
    for count, spec in enumerate(specs, 1):
        t0 = time.perf_counter()
        output, n = runner(spec)
        loop.add(time.perf_counter() - t0, n)
        check(spec, output, n)
        del output
        if seconds is not None and loop.raw_s >= seconds \
                and count % block == 0:
            break
    return loop


def percentile(values, q):
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def run_workload(workload, seed, seconds, trace):
    if not os.path.isfile(os.path.join(SRC, "polshift", "__init__.py")):
        fail(f"no polshift sources under {SRC}")
    sys.path.insert(0, SRC)
    ref = wl.load_reference((workload,))
    specs = wl.requests(workload, seed, ref)
    first = next(specs)
    specs = itertools.chain([first], specs)
    os.makedirs(WORK, exist_ok=True)
    materials_dir = os.path.join(WORK, f"materials-{os.getpid()}")
    try:
        paths = None
        if workload == "modes_sweep":
            paths = wl.write_materials(ref["modes_sweep"]["materials"],
                                        materials_dir)
            files = [paths[first["i"]]]
        else:
            files = [wl.MATERIAL, wl.ATOM]
        setup_s, import_s = measure_setup(files)

        import polshift
        if not os.path.abspath(polshift.__file__).startswith(SRC + os.sep):
            fail(f"polshift imported from {polshift.__file__}, not {SRC}")
        runner = wl.Runner(workload, ref, paths)
        check = Gate(runner, ref)
        lines = [f"perfbench {workload} seed={seed} seconds={seconds} "
                 f"trace={trace}",
                 f"machine: {json.dumps(machine_info())}"]
        if trace:
            metrics, attempted = traced_run(
                workload, seed, runner, check, list(itertools.islice(
                    specs, TRACE_REQUESTS[workload])), import_s)
        else:
            loop = run_requests(runner, check, specs, seconds,
                                wl.BLOCK.get(workload, 1))
            attempted, lat = loop.ops(), loop.latencies()
            metrics = {
                "setup_s": (setup_s, "s"),
                "ops_per_s": (loop.ops_per_s(), "1/s"),
                "latency_ms_p50": (1e3 * statistics.median(lat), "ms"),
                "peak_rss_mb": (resource.getrusage(
                    resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
            }
            lines.append(f"latency samples: {len(lat)}; " + (
                f"latency_ms_p90 = {1e3 * percentile(lat, 90):.6g} ms"
                if len(lat) >= 100 else
                "latency_ms_p90 not reported (fewer than 100 samples)"))
            lines.append(f"fail_frac = {check.failed / attempted:.6g} "
                         f"({check.failed} of {attempted} operations)")
            if loop.raw_s < seconds:
                lines.append(f"pool used up after {loop.raw_s:.3g} s of "
                             f"requests")
            lines.append(f"wall clock: ops_per_s = "
                         f"{attempted / loop.raw_s:.6g} 1/s; "
                         f"speed factor {loop.factor():.4g}")
    finally:
        shutil.rmtree(materials_dir, ignore_errors=True)

    if check.first:
        lines.append(f"first failure: {check.first}")
    lines += [f"{name} = {value:.6g} {unit}"
              for name, (value, unit) in metrics.items()]
    print("\n".join(lines))
    print(json.dumps({
        "correct": check.mismatches == 0,
        "attempted": attempted,
        "failed": check.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }), flush=True)


def traced_run(workload, seed, runner, check, specs, import_s):
    from tracing import Tracer
    runner(specs[0])  # warm-up, so that neither timed pass pays first-call costs
    tracer = Tracer()
    request = itertools.count()

    def traced(spec):
        tracer.request = next(request)
        return runner(spec)

    # the set runs in chunks, each untraced and traced in alternating order,
    # so that drift of the host's speed falls on both passes alike
    n = min(TRACE_CHUNKS, len(specs))
    ops_u = time_u = ops_t = time_t = wall_t = 0
    for c in range(n):
        chunk = specs[c * len(specs) // n:(c + 1) * len(specs) // n]
        for with_trace in ((False, True) if c % 2 == 0 else (True, False)):
            if with_trace:
                tracer.install()
                try:
                    loop = run_requests(traced, check, chunk)
                finally:
                    tracer.uninstall()
                ops_t, time_t = ops_t + loop.ops(), time_t + sum(loop.scaled())
                wall_t += loop.raw_s
            else:
                loop = run_requests(runner, check, chunk)
                ops_u, time_u = ops_u + loop.ops(), time_u + sum(loop.scaled())
    metrics = tracer.metrics()
    shift_calls = metrics["potentials.total_shift.calls"][0]
    traced_rate, untraced_rate = ops_t / time_t, ops_u / time_u
    metrics.update({
        "potentials.total_shift.calls_per_row": (shift_calls / ops_t, "1"),
        "cli.import_s": (import_s, "s"),
        "trace.ops": (ops_t, "count"),
        "trace.spans": (len(tracer.spans), "count"),
        "trace.wall_s": (wall_t, "s"),
        "trace.untraced_ops_per_s": (untraced_rate, "1/s"),
        "trace.traced_ops_per_s": (traced_rate, "1/s"),
        "trace.overhead_ops_per_s": (traced_rate - untraced_rate, "1/s"),
    })
    tracer.write(os.path.join(WORK, f"spans-{workload}-seed{seed}.jsonl.gz"),
                 {"workload": workload, "seed": seed,
                  "machine": machine_info(),
                  "fields": ["id", "parent", "request", "name", "t0", "t1",
                             "error"]})
    return metrics, ops_u + ops_t


def run_all(seed, seconds, trace):
    ok = True
    for workload in wl.WORKLOADS:
        proc = subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--workload",
             workload, "--seed", str(seed), "--seconds", str(seconds),
             "--trace", str(trace)], cwd=ROOT, capture_output=True,
            text=True, timeout=600)
        sys.stdout.write(proc.stdout)
        sys.stderr.write(proc.stderr)
        lines = proc.stdout.strip().splitlines()
        result = json.loads(lines[-1]) if proc.returncode == 0 else {}
        ok = ok and bool(result.get("correct")) and result.get("failed") == 0
    return 0 if ok else 1


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True,
                   choices=wl.WORKLOADS + ("all",))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=20.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if args.workload == "all":
        return run_all(args.seed, args.seconds, args.trace)
    run_workload(args.workload, args.seed, args.seconds, args.trace)
    return 0


if __name__ == "__main__":
    sys.exit(main())
