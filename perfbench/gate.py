"""Correctness gate: every output against its reference, plus invariants.

Tolerances come from the accuracy targets the library sets for itself:

* ``MatsubaraConfig.convergence_tol = 1e-9``.  The tail rule stops a sum
  within 1e-9 (in units of its largest partial sum) of the exact sum, so two
  correct engines differ by at most 2e-9; a factor 5 covers the ratio of
  largest partial sum to sum and the rounding of up to 2e4 terms:
  RTOL_SUM = 1e-8.  It is also the floor for the closed-form lines.
* ``green_full(rel_tol=1e-8)``.  ``_quad_complex`` accepts an integral whose
  error estimate is below 10 * rel_tol, so two correct quadratures differ by
  at most 2e-7: RTOL_QUAD.  (At this commit, rel_tol=1e-11 moves the
  retarded lines by at most 1e-8.)
* Mode centres are maxima of Im r_p.  At a maximum, double precision pins
  the location only to about sqrt(eps/4) = 7.5e-9 linewidths, i.e. two
  finders may disagree by 1.5e-8 linewidths: 5e-10 of the centre for the 3%
  widths of material_broad (DELTA_CENTRE = 1e-9), and below 1e-9 of the
  centre for the <=5% damping of the modes_sweep materials (RTOL_MODE =
  1e-8 for every field of a mode table).
* Quantities built on the mode centres inherit DELTA_CENTRE times their
  sensitivity d ln f / d ln Omega: sqrt[(n1+1) n2] has sensitivity at most
  1 + x/2 with x = hbar Omega / k_B T; u_eff's Lorentz weights measured 10
  on material_broad, taken with a tenfold margin (SENS_U_EFF = 100).

Every tolerance is below 1e-6, so a report perturbed by 1e-6 fails.
"""

import math

RTOL_SUM = 1e-8
RTOL_QUAD = 2e-7
RTOL_MODE = 1e-8
DELTA_CENTRE = 1e-9
SENS_U_EFF = 100.0
#: relative rounding allowed where two outputs must agree exactly in exact
#: arithmetic (the line sum, z^-3 scaling, unit columns)
RTOL_ROUND = 1e-12

HBAR_OVER_KB = 1.054571817e-34 / 1.380649e-23  # K s
CM1 = 2.0 * math.pi * 299792458.0 * 100.0       # rad/s per cm^-1

#: report lines in the order of the reference files, with the scan CSV column
FIELDS = (
    ("nr_matsubara", "nr_matsubara_s^-1"),
    ("nr_resonant_photon", "nr_resonant_photon_s^-1"),
    ("u_eff", "u_eff_s^-1"),
    ("thermal_factor", "thermal_factor"),
    ("r_shift", "r_shift_s^-1"),
    ("total", "total_s^-1"),
)

MODE_FLOATS = ("omega_center_rad_s", "linewidth_rad_s", "band_lo_rad_s",
               "band_hi_rad_s", "im_rp_peak")
MODE_EXACT = ("index", "narrow", "strong_coupling")
#: column order of a mode in reference/modes_sweep.json
MODE_KEYS = MODE_EXACT + MODE_FLOATS


def _close(value, ref, rtol, atol=0.0):
    return abs(value - ref) <= rtol * abs(ref) + atol


def line_tolerances(T, centres, retarded):
    """Relative tolerance of each line except total, in FIELDS order."""
    x = HBAR_OVER_KB * max(centres) / T
    base = RTOL_SUM + (RTOL_QUAD if retarded else 0.0)
    u = base + SENS_U_EFF * DELTA_CENTRE
    tf = RTOL_SUM + (1.0 + 0.5 * x) * DELTA_CENTRE
    return (base, RTOL_QUAD if retarded else RTOL_SUM, u, tf, u + tf)


def check_values(values, ref, tols):
    """Compare six report values (s^-1 and thermal factor) with a reference.

    Returns None when they agree, otherwise the first mismatch.
    """
    if any(not isinstance(v, float) or not math.isfinite(v) for v in values):
        return f"non-finite or missing value in {values!r}"
    for (name, _), v, r, tol in zip(FIELDS, values, ref, tols):
        if not _close(v, r, tol):
            return f"{name} = {v!r}, reference {r!r} (rtol {tol:g})"
    m, p, _, _, r, total = values
    # total = nr_matsubara + nr_resonant_photon + r_shift holds exactly
    if not _close(total, m + p + r, 0.0,
                  RTOL_ROUND * (abs(m) + abs(p) + abs(r))):
        return f"total {total!r} != sum of lines {m + p + r!r}"
    atol = sum(t * abs(rv) for t, rv, (n, _) in zip(tols, ref, FIELDS)
               if n in ("nr_matsubara", "nr_resonant_photon", "r_shift"))
    if not _close(total, ref[5], RTOL_SUM, atol):
        return f"total = {total!r}, reference {ref[5]!r}"
    return None


def scaled(ref_row, z, z_ref):
    """A reference row recorded at z_ref, moved to z by the exact z^-3 law."""
    f = (z_ref / z) ** 3
    return [v if name == "thermal_factor" else v * f
            for v, (name, _) in zip(ref_row, FIELDS)]


def report_values(report):
    """The six checked numbers of a ShiftReport, as the point command prints
    them (s^-1, and the dimensionless thermal factor)."""
    doc = report.to_dict()
    return [doc[n] if n == "thermal_factor" else doc[n]["s^-1"]
            for n, _ in FIELDS]


def check_point(output, z, T, ref_row, z_ref, centres, retarded):
    if isinstance(output, Exception):
        return f"{type(output).__name__}: {output}"
    ref = ref_row if retarded else scaled(ref_row, z, z_ref)
    return check_values(report_values(output), ref,
                        line_tolerances(T, centres, retarded))


def check_scan(rows, z_values, T_values, ref_rows, z_ref, centres):
    """Mismatches of a scan, as {row index: reason}.

    ``ref_rows[k]`` is the reference of ``T_values[k]``.  Beyond the
    references, rows that share a T must scale exactly as z^-3 and carry the
    same thermal factor.
    """
    if isinstance(rows, Exception):
        return {i: f"{type(rows).__name__}: {rows}"
                for i in range(len(z_values) * len(T_values))}
    bad = {}
    if len(rows) != len(z_values) * len(T_values):
        bad[-1] = f"{len(rows)} rows for a {len(z_values)} x {len(T_values)} grid"
    first = {}
    for i, row in enumerate(rows):
        zi, ti = divmod(i, len(T_values))
        z, T = z_values[zi], T_values[ti]
        if row.get("error"):
            bad[i] = row["error"]
            continue
        if row["z_m"] != z or row["T_K"] != T:
            bad[i] = f"row for ({row['z_m']}, {row['T_K']}), expected ({z}, {T})"
            continue
        values = [row[col] for _, col in FIELDS]
        why = check_values(values, scaled(ref_rows[ti], z, z_ref),
                           line_tolerances(T, centres, False))
        if why is None:
            # invariants: exact z^-3 across rows sharing T, z-free thermal factor
            if ti not in first:
                first[ti] = (values, z)
            else:
                base, zb = first[ti]
                mass = (abs(base[0]) + abs(base[1]) + abs(base[4])) * zb**3
                for k, (name, _) in enumerate(FIELDS):
                    if name == "thermal_factor":
                        ok = _close(values[k], base[k], RTOL_ROUND)
                    else:
                        atol = RTOL_ROUND * mass if name == "total" else 0.0
                        ok = _close(values[k] * z**3, base[k] * zb**3,
                                    RTOL_ROUND, atol)
                    if not ok:
                        why = f"{name} breaks z^-3 scaling at T = {T}"
                        break
        if why is not None:
            bad[i] = why
    return bad


def check_modes(output, ref_modes, oscillators):
    """Compare a modes_report table with its reference.

    NoModeFound is a failure here: every material was generated with an
    ascending Re eps = -1 crossing.  For one-oscillator materials the centre
    must also lie within 1e-3 of sqrt(omega_T^2 + omega_P^2/2).
    """
    if isinstance(output, Exception):
        return f"{type(output).__name__}: {output}"
    if len(output) != len(ref_modes):
        return f"{len(output)} modes, reference has {len(ref_modes)}"
    for row, ref in zip(output, ref_modes):
        ref = dict(zip(MODE_KEYS, ref))
        for key in MODE_EXACT:
            if row[key] != ref[key]:
                return f"{key} = {row[key]!r}, reference {ref[key]!r}"
        for key in MODE_FLOATS:
            if not isinstance(row[key], float) or \
                    not _close(row[key], ref[key], RTOL_MODE):
                return f"{key} = {row[key]!r}, reference {ref[key]!r}"
        for key in ("omega_center", "linewidth"):
            if not _close(row[f"{key}_cm^-1"] * CM1, row[f"{key}_rad_s"],
                          RTOL_ROUND):
                return f"{key}_cm^-1 disagrees with {key}_rad_s"
    if len(oscillators) == 1:
        wp, wt, _ = oscillators[0]
        surface = math.sqrt(wt * wt + 0.5 * wp * wp)
        centre = output[0]["omega_center_cm^-1"]
        if not _close(centre, surface, 1e-3):
            return (f"one-oscillator centre {centre!r} cm^-1 is not within "
                    f"1e-3 of sqrt(wT^2 + wP^2/2) = {surface!r}")
    return None
