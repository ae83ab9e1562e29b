"""Batch front end: single-point shifts, (z, T) scans, and mode tables.

Outputs are deterministic: identical configuration produces bit-identical
files (floats are emitted with repr, which round-trips losslessly).
"""

import argparse
import csv
import io
import json
import math
import os
import sys
from dataclasses import dataclass

import numpy as np

from .atoms import load_atom
from .errors import SCHEMA_VERSION, ParseError, PhysicsError
from .material import find_polariton_modes, load_material
from .potentials import (ENERGY_LINES, MATSUBARA_CUTOFF, T_MAX, Z_RANGE,
                         Environment, distance_terms, reports_at, total_shift,
                         unit_distance, valid_distance, valid_temperature)
from .units import CM1, HBAR, cube

#: fixed scan/point CSV header (all shift columns are E/hbar in s^-1)
SCAN_COLUMNS = (
    "z_m", "T_K", "nr_matsubara_s^-1", "nr_resonant_photon_s^-1",
    "u_eff_s^-1", "thermal_factor", "r_shift_s^-1", "total_s^-1", "error",
)

MODES_COLUMNS = (
    "index", "omega_center_rad_s", "omega_center_cm^-1", "linewidth_rad_s",
    "linewidth_cm^-1", "band_lo_rad_s", "band_hi_rad_s", "narrow",
    "im_rp_peak", "strong_coupling",
)

#: diagnostic threshold: a mode counts as strongly coupled when the peak of
#: Im r_p exceeds this value
STRONG_COUPLING_IM_RP = 100.0


@dataclass
class RunConfig:
    material: str
    atom: str = None
    upper: str = None
    lower: str = None
    z_values: tuple = ()
    T_values: tuple = ()
    green_mode: str = "nonretarded"
    closed_form: bool = False
    resonance_tol: float = 1.0
    matsubara_cutoff: int = MATSUBARA_CUTOFF

    def validate(self):
        if not self.atom or not self.upper or not self.lower:
            raise ValueError("--atom, --upper and --lower are required")
        if self.upper == self.lower:
            raise ValueError("upper and lower must differ")
        if not self.z_values or not self.T_values:
            raise ValueError("need at least one z and one T value")
        if not all(valid_distance(v) for v in self.z_values):
            raise ValueError(f"z values must lie in [{Z_RANGE[0]:g}, "
                             f"{Z_RANGE[1]:g}] m")
        if not all(valid_temperature(v) and v > 0 for v in self.T_values):
            raise ValueError(f"T values must lie in (0, {T_MAX:g}] K")
        if not (math.isfinite(self.resonance_tol) and self.resonance_tol >= 0):
            raise ValueError("resonance tolerance must be finite and >= 0")


def parse_values(single, rng, what):
    """Merge --<what> (comma list) and --<what>-range (lo:hi:Nlog|Nlin)."""
    vals = []
    if single:
        try:
            vals.extend(float(tok) for tok in single.split(","))
        except ValueError:
            raise ValueError(f"bad --{what} list {single!r}") from None
    if rng:
        parts = rng.split(":")
        if len(parts) != 3:
            raise ValueError(f"--{what}-range must be lo:hi:COUNT[log|lin]")
        try:
            lo, hi = float(parts[0]), float(parts[1])
        except ValueError:
            raise ValueError(f"bad bounds in --{what}-range {rng!r}") from None
        tail = parts[2]
        if tail.endswith("log"):
            kind, count_s = "log", tail[:-3]
        elif tail.endswith("lin"):
            kind, count_s = "lin", tail[:-3]
        else:
            raise ValueError(
                f"--{what}-range count must end in 'log' or 'lin'")
        try:
            n = int(count_s)
        except ValueError:
            raise ValueError(f"bad count in --{what}-range {rng!r}") from None
        if n < 1 or lo <= 0 or hi < lo:
            raise ValueError(f"empty or invalid --{what}-range {rng!r}")
        if kind == "log":
            vals.extend(float(v) for v in np.geomspace(lo, hi, n))
        else:
            vals.extend(float(v) for v in np.linspace(lo, hi, n))
    return tuple(vals)


#: the CSV column of each of ENERGY_LINES, in that order
_LINE_COLUMNS = tuple(f"{line}_s^-1" for line in ENERGY_LINES)

#: the z3 of a report evaluated at its own distance
_OWN_DISTANCE = np.ones(1)


def _rows(zs, z3, Ts, results):
    """The rows of zs x Ts, z outer, from the report or PhysicsError of
    each T: a report's row at each z holds its lines_at(z3), z3 the array
    of the z's z^3 (_OWN_DISTANCE for a report at its own z), in s^-1; an
    error fills the error column of its T's rows."""
    c_mats, c_photon, c_u, c_r, c_total = _LINE_COLUMNS
    by_T = []
    for T, result in zip(Ts, results):
        if isinstance(result, PhysicsError):
            by_T.append([_error_row(z, T, result) for z in zs])
            continue
        tf = result.thermal_factor
        lines = [(line / HBAR).tolist() for line in result.lines_at(z3)]
        by_T.append([{"z_m": z, "T_K": T, c_mats: mats, c_photon: photon,
                      c_u: u, "thermal_factor": tf, c_r: r, c_total: total,
                      "error": ""}
                     for z, mats, photon, u, r, total in zip(zs, *lines)])
    return [row for at_z in zip(*by_T) for row in at_z]


def _error_row(z, T, exc):
    row = {c: "" for c in SCAN_COLUMNS}
    row["z_m"] = z
    row["T_K"] = T
    row["error"] = f"{type(exc).__name__}: {exc}"
    return row


def _inputs(cfg):
    """(atom, material, modes) of a RunConfig: the files read, both state
    labels looked up and the modes found, in that order."""
    m = load_material(cfg.material)
    atom = load_atom(cfg.atom)
    atom.state(cfg.upper)
    atom.state(cfg.lower)
    return atom, m, find_polariton_modes(m)


def run_point(cfg):
    """Compute a single ShiftReport from a RunConfig: the library's
    total_shift at its one (z, T), once _inputs has succeeded."""
    cfg.validate()
    if len(cfg.z_values) != 1 or len(cfg.T_values) != 1:
        raise ValueError("point needs exactly one z and one T")
    atom, m, modes = _inputs(cfg)
    return total_shift(
        atom, cfg.upper, cfg.lower, m,
        Environment(z=cfg.z_values[0], T=cfg.T_values[0]),
        cutoff=cfg.matsubara_cutoff, green_mode=cfg.green_mode,
        resonance_tol=cfg.resonance_tol, use_closed_form=cfg.closed_form,
        modes=modes)


def run_scan(cfg):
    """One row per (z, T) pair, in deterministic input order.

    _inputs runs once per request, before the first row; a failure there
    (a configuration error, or a material without modes) propagates.  The
    temperature-free half of the reports, distance_terms, is evaluated once
    per request at UNIT_Z on the nonretarded route and once per z on the
    full route, and one reports_at adds every distinct T to it, their
    Matsubara sums advancing together.  On the nonretarded route the row of
    a T at each z is its report's lines_at(z3), the arithmetic of
    ShiftReport.at_distance, taken in one array step over the z^3 of every
    z.  The full route reports every pair at its own z.  A PhysicsError of a
    report fills the error column of its rows instead of aborting the
    scan; on the nonretarded route it does not depend on z and fills every
    z of its T.
    """
    cfg.validate()
    atom, m, modes = _inputs(cfg)
    Ts = tuple(dict.fromkeys(cfg.T_values))
    unit_z = unit_distance(cfg.green_mode)
    if unit_z is None:
        groups = [(z, (z,), _OWN_DISTANCE) for z in cfg.z_values]
    else:
        groups = [(unit_z, cfg.z_values,
                   np.array([cube(z) for z in cfg.z_values]))]
    rows = []
    for at, zs, z3 in groups:
        terms = distance_terms(atom, cfg.upper, cfg.lower, m, at,
                               cfg.green_mode, cfg.resonance_tol,
                               cfg.closed_form, modes)
        by_T = dict(zip(Ts, reports_at(terms, Ts, cfg.matsubara_cutoff)))
        rows.extend(_rows(zs, z3, cfg.T_values,
                          [by_T[T] for T in cfg.T_values]))
    return rows


def modes_report(material_path):
    """Mode table rows for a material file."""
    m = load_material(material_path)
    modes = find_polariton_modes(m)
    rows = []
    for i, mode in enumerate(modes):
        rows.append({
            "index": i,
            "omega_center_rad_s": mode.omega_center,
            "omega_center_cm^-1": mode.omega_center / CM1,
            "linewidth_rad_s": mode.linewidth,
            "linewidth_cm^-1": mode.linewidth / CM1,
            "band_lo_rad_s": mode.band_lo,
            "band_hi_rad_s": mode.band_hi,
            "narrow": mode.narrow,
            "im_rp_peak": mode.im_rp_peak,
            "strong_coupling": bool(mode.im_rp_peak > STRONG_COUPLING_IM_RP),
        })
    return rows


# --- output formatting ----------------------------------------------------------

def _emit(text, output):
    if output:
        with open(output, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _cell(v):
    if isinstance(v, float):
        return repr(v)
    if isinstance(v, bool):
        return str(v).lower()
    return v


def _render(fmt, command, columns, rows, doc):
    """The rows as CSV under columns, or doc as the command's JSON document."""
    if fmt == "csv":
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(columns)
        writer.writerows([_cell(row[c]) for c in columns] for row in rows)
        return buf.getvalue()
    doc = {"schema_version": SCHEMA_VERSION, "command": command, **doc}
    return json.dumps(doc, indent=2, sort_keys=True) + "\n"


# --- argument parsing -------------------------------------------------------------

def _add_common(p, with_scan_ranges):
    p.add_argument("--material", required=True, help="material JSON file")
    p.add_argument("--atom", required=True, help="atom JSON file")
    p.add_argument("--upper", required=True, help="upper state label")
    p.add_argument("--lower", required=True, help="lower state label")
    p.add_argument("--green", choices=("nonretarded", "full"),
                   default="nonretarded", dest="green_mode",
                   help="Green-tensor evaluation mode")
    p.add_argument("--closed-form", action="store_true",
                   help="use the two-resonance closed form for the "
                        "resonant amplitude")
    p.add_argument("--resonance-tol", type=float, default=1.0,
                   help="resonance window in units of (gamma1+gamma2)")
    p.add_argument("--format", choices=("json", "csv"), default="json",
                   dest="fmt")
    p.add_argument("--output", default=None, help="output file (default stdout)")
    if with_scan_ranges:
        p.add_argument("--z", default=None, help="comma list of z values (m)")
        p.add_argument("--z-range", default=None,
                       help="lo:hi:COUNTlog or lo:hi:COUNTlin (m)")
        p.add_argument("--T", default=None, help="comma list of T values (K)")
        p.add_argument("--T-range", default=None,
                       help="lo:hi:COUNTlog or lo:hi:COUNTlin (K)")
    else:
        p.add_argument("--z", required=True, type=float,
                       help="atom-surface distance (m)")
        p.add_argument("--T", required=True, type=float,
                       help="temperature (K)")


def build_parser():
    parser = argparse.ArgumentParser(
        prog="shift",
        description="Atom-surface dispersion shifts near a planar dielectric")
    sub = parser.add_subparsers(dest="command", required=True)

    p_point = sub.add_parser("point", help="single (z, T) shift report")
    _add_common(p_point, with_scan_ranges=False)

    p_scan = sub.add_parser("scan", help="shift table over z and T")
    _add_common(p_scan, with_scan_ranges=True)

    p_modes = sub.add_parser("modes", help="surface-polariton mode table")
    p_modes.add_argument("--material", required=True)
    p_modes.add_argument("--format", choices=("json", "csv"),
                         default="json", dest="fmt")
    p_modes.add_argument("--output", default=None)
    return parser


def _env_cutoff():
    raw = os.environ.get("SHIFT_MATSUBARA_CUTOFF")
    if raw is None:
        return MATSUBARA_CUTOFF
    try:
        val = int(raw)
    except ValueError:
        raise ValueError(
            f"SHIFT_MATSUBARA_CUTOFF must be an integer, got {raw!r}") from None
    if val < 1:
        raise ValueError("SHIFT_MATSUBARA_CUTOFF must be >= 1")
    return val


def _config_from_args(args, scan):
    if scan:
        z_values = parse_values(args.z, args.z_range, "z")
        T_values = parse_values(args.T, args.T_range, "T")
    else:
        z_values = (args.z,)
        T_values = (args.T,)
    return RunConfig(
        material=args.material, atom=args.atom,
        upper=args.upper, lower=args.lower,
        z_values=z_values, T_values=T_values,
        green_mode=args.green_mode, closed_form=args.closed_form,
        resonance_tol=args.resonance_tol,
        matsubara_cutoff=_env_cutoff())


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    op = args.command
    try:
        if op == "point":
            cfg = _config_from_args(args, scan=False)
            report = run_point(cfg)
            z, T = cfg.z_values[0], cfg.T_values[0]
            columns = SCAN_COLUMNS
            rows = _rows((z,), _OWN_DISTANCE, (T,), (report,))
            doc = {
                "inputs": {
                    "material": os.path.basename(cfg.material),
                    "atom": os.path.basename(cfg.atom),
                    "upper": cfg.upper, "lower": cfg.lower, "z": z, "T": T,
                    "green_mode": cfg.green_mode,
                    "closed_form": cfg.closed_form,
                },
                "report": report.to_dict(),
            }
        elif op == "scan":
            rows = run_scan(_config_from_args(args, scan=True))
            columns = SCAN_COLUMNS
            doc = {"columns": list(SCAN_COLUMNS), "rows": rows}
        else:
            rows = modes_report(args.material)
            columns, doc = MODES_COLUMNS, {"modes": rows}
        _emit(_render(args.fmt, op, columns, rows, doc), args.output)
    except (ParseError, ValueError, OSError) as exc:
        print(f"error in {op}: {exc}", file=sys.stderr)
        return 2
    except PhysicsError as exc:
        print(f"error in {op}: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 3
    return 0


if __name__ == "__main__":
    sys.exit(main())
