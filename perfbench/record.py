"""Record reference/: the input pools and their outputs at this commit.

    python3 perfbench/record.py

writes one file per workload, reference/<workload>.json, each with the
shared header (z_ref and the material_broad mode centres).

The pools come from workloads.make_pools(POOL_SEED); every output is
computed through the same CLI entry points the benchmark times.  Recording
stops if any pool member fails, so that no workload starts with a failing
request.  Run it only when the benchmark's inputs change: a program change
must be checked against the references, not re-record them.
"""

import json
import os
import shutil
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

import polshift  # noqa: E402
import polshift.cli as cli  # noqa: E402

import gate  # noqa: E402
import workloads as wl  # noqa: E402


def _config(z, T, green_mode="nonretarded"):
    return cli.RunConfig(material=wl.MATERIAL, atom=wl.ATOM, upper=wl.UPPER,
                         lower=wl.LOWER, z_values=tuple(z),
                         T_values=tuple(T), green_mode=green_mode)


def _dumps(obj, depth=0):
    """JSON with one pool member per line."""
    if depth >= 3 or not isinstance(obj, (dict, list)):
        return json.dumps(obj, separators=(",", ":"))
    pad = "\n" + " " * (depth + 1)
    if isinstance(obj, dict):
        items = [f"{json.dumps(k)}: {_dumps(v, depth + 1)}"
                 for k, v in obj.items()]
        return "{" + pad + ("," + pad).join(items) + "\n" + " " * depth + "}"
    items = [_dumps(v, depth + 1) for v in obj]
    return "[" + pad + ("," + pad).join(items) + "\n" + " " * depth + "]"


def main():
    pools = wl.make_pools()
    modes = cli.find_polariton_modes(cli.load_material(wl.MATERIAL))
    header = {"polshift_version": polshift.__version__,
              "pool_seed": wl.POOL_SEED, "z_ref": wl.Z_REF,
              "material_broad_centres_rad_s": [m.omega_center for m in modes]}
    ref = {}

    T_scan = pools["scan"]["T"]
    flat = [T for stratum in T_scan for T in stratum]
    scan = cli.run_scan(_config((wl.Z_REF,), flat))
    if any(row["error"] for row in scan):
        sys.exit("a scan reference row failed")
    rows = iter(scan)
    scan_rows = [[[row[col] for _, col in gate.FIELDS]
                  for row in (next(rows) for _ in stratum)]
                 for stratum in T_scan]
    ref["scan"] = {"T": T_scan, "rows": scan_rows}

    cold = [[gate.report_values(cli.run_point(_config((wl.Z_REF,), (T,))))
             for T in stratum] for stratum in pools["cold_points"]["T"]]
    ref["cold_points"] = {"T": pools["cold_points"]["T"], "values": cold}

    points = pools["retarded_points"]["points"]
    ref["retarded_points"] = {"points": points, "values": [
        gate.report_values(cli.run_point(_config((z,), (T,), "full")))
        for z, T in points]}

    materials = pools["modes_sweep"]["materials"]
    work = tempfile.mkdtemp(dir=HERE, prefix=".record-")
    try:
        tables = []
        for path, oscs in zip(wl.write_materials(materials, work), materials):
            table = cli.modes_report(path)
            # 12 digits: far inside RTOL_MODE, and a smaller file
            tables.append([[float(f"{row[k]:.12g}") if k in gate.MODE_FLOATS
                            else row[k] for k in gate.MODE_KEYS]
                           for row in table])
            why = gate.check_modes(table, tables[-1], oscs)
            if why:
                sys.exit(f"{path}: {why}")
    finally:
        shutil.rmtree(work)
    ref["modes_sweep"] = {"materials": materials, "modes": tables}

    os.makedirs(wl.REFERENCE, exist_ok=True)
    for workload in wl.WORKLOADS:
        with open(wl.reference_path(workload), "w", encoding="utf-8") as fh:
            fh.write(_dumps({**header, workload: ref[workload]}) + "\n")


if __name__ == "__main__":
    main()
