"""A seeded sweep over the accepted input space of total_shift.

Each draw takes a random Drude-Lorentz material as the benchmark's
modes_sweep pool draws them (perfbench/workloads.random_material), a random
atom of two to four levels, a log-uniform distance and temperature, a
resonance window and the channel sum or the closed form, on either Green
route.  Every draw must end in a finite report that keeps total =
nr_matsubara + nr_resonant_photon + r_shift, or in a PolshiftError; only
the inputs' constructors may raise the ValueError of a rejected input.  No
report is lost to its mode pair: OffResonance, NoChannels,
ModeAttributionError and the amplitude's NoModeFound skip the resonant
line instead.  The tally of outcomes is printed, not pinned.

Each nonretarded report also keeps two exact laws, bit for bit: at 2z it
is the report at z with its z^-3 lines divided by 8, and with every
frequency and T scaled by 2^k and z by 2^-k its two nonresonant lines
scale by 8^k.  So the sweep runs the Matsubara pole table over every
drawn material and atom.  On that route the scan's arithmetic
(distance_terms at UNIT_Z, reports_at over the draw's T, then lines_at
the cube of z) gives total_shift's lines and thermal factor, or its
error, bit for bit.  And on either route every drawn material's mode
table scales by 2^k as its frequencies do: centres, linewidths and band
edges by 2^k, im_rp_peak and narrow unchanged.
"""

import collections
import math
import os
import sys
import warnings

import numpy as np
import pytest

import polshift as ps
from oracles import scaled_atom, scaled_material
from polshift import potentials
from polshift.potentials import ENERGY_LINES
from polshift.units import cube

sys.path.insert(0, os.path.join(os.path.dirname(__file__), os.pardir,
                                "perfbench"))
import workloads  # noqa: E402

#: (green_mode, draws, z range (m), T range (K)), each range log-uniform.
#: The full route starts at 1 nm and 10 K: at a few nm and a few K a point
#: sums the imaginary-axis rule to the cutoff, about 2 s, and fails.
ROUTES = (
    ("nonretarded", 300, (1e-12, 10.0), (0.1, 1e5)),
    ("full", 40, (1e-9, 1e-2), (10.0, 1e5)),
)

#: the errors of the mode pair, which skip the resonant line and never
#: fail a report
SKIPS = (ps.OffResonance, ps.NoChannels, ps.ModeAttributionError)

#: the powers of two k by which the scaling law scales a draw, in turn
SCALINGS = (-3, -1, 1, 2, 5)


def _log_uniform(rng, lo, hi):
    return float(lo * (hi / lo) ** rng.random())


def _draw(rng, index, z_range, T_range):
    """(atom, upper, lower, material, env, resonance_tol, closed_form)."""
    m = ps.material_from_dict(
        workloads.material_doc(index, workloads.random_material(rng)))
    labels = [f"s{i}" for i in range(int(rng.integers(2, 5)))]
    energies = [0.0] + [_log_uniform(rng, 1e10, 10**15.5)
                        for _ in labels[1:]]
    dipoles = [ps.DipoleElement(a, b, _log_uniform(rng, 1e-31, 1e-26))
               for i, a in enumerate(labels) for b in labels[i + 1:]
               if rng.random() < 0.8]
    atom = ps.AtomSpec(f"sweep {index}", [ps.AtomicState(label, e) for
                                          label, e in zip(labels, energies)],
                       dipoles)
    upper, lower = (labels[i] for i in rng.permutation(len(labels))[:2])
    env = ps.Environment(z=_log_uniform(rng, *z_range),
                         T=_log_uniform(rng, *T_range))
    tol = float(rng.choice([1.0, 1e9]))
    return atom, upper, lower, m, env, tol, bool(rng.random() < 0.3)


def _assert_exact_laws(index, rep, atom, upper, lower, m, env, **kwargs):
    """The nonretarded report rep of total_shift at env keeps its two
    exact laws (the module docstring), bit for bit."""
    far = ps.total_shift(atom, upper, lower, m,
                         ps.Environment(z=2.0 * env.z, T=env.T), **kwargs)
    assert [getattr(far, line) for line in ENERGY_LINES] == \
        [getattr(rep, line) / 8.0 for line in ENERGY_LINES], index
    assert far.thermal_factor == rep.thermal_factor, index
    k = SCALINGS[index % len(SCALINGS)]
    lam = 2.0**k
    scaled = ps.total_shift(scaled_atom(atom, lam), upper, lower,
                            scaled_material(m, lam),
                            ps.Environment(z=env.z / lam, T=lam * env.T),
                            **kwargs)
    assert (scaled.nr_matsubara, scaled.nr_resonant_photon) == (
        8.0**k * rep.nr_matsubara, 8.0**k * rep.nr_resonant_photon), index


def _modes_or_error(m):
    """find_polariton_modes(m), or the type of the PolshiftError raised."""
    try:
        return ps.find_polariton_modes(m)
    except ps.PolshiftError as exc:
        return type(exc)


def _assert_modes_scale(index, m):
    """m's mode table scales exactly by 2^k (the module docstring)."""
    lam = 2.0**SCALINGS[index % len(SCALINGS)]
    base = _modes_or_error(m)
    scaled = _modes_or_error(scaled_material(m, lam))
    if isinstance(base, type):
        assert scaled is base, index
        return
    assert scaled == [
        ps.PolaritonMode(omega_center=lam * md.omega_center,
                         linewidth=lam * md.linewidth,
                         band_lo=lam * md.band_lo, band_hi=lam * md.band_hi,
                         narrow=md.narrow, im_rp_peak=md.im_rp_peak)
        for md in base], index


def _scan_outcome(atom, upper, lower, m, env, **kwargs):
    """A nonretarded scan's arithmetic for the draw: the repr of the lines
    and the thermal factor of reports_at's report at UNIT_Z moved to env.z
    by lines_at, or the PolshiftError met on the way."""
    try:
        terms = potentials.distance_terms(atom, upper, lower, m,
                                          potentials.UNIT_Z, **kwargs)
    except ps.PolshiftError as exc:
        return exc
    (report,) = potentials.reports_at(terms, (env.T,))
    if isinstance(report, ps.PolshiftError):
        return report
    return repr([*report.lines_at(cube(env.z)), report.thermal_factor])


@pytest.mark.parametrize("green_mode, draws, z_range, T_range", ROUTES,
                         ids=[route[0] for route in ROUTES])
def test_every_draw_is_a_report_or_a_typed_error(green_mode, draws, z_range,
                                                 T_range):
    rng = np.random.default_rng(7)
    tally = collections.Counter()
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for index in range(draws):
            try:
                atom, upper, lower, m, env, tol, closed = _draw(
                    rng, index, z_range, T_range)
            except ValueError:
                tally["ValueError"] += 1
                continue
            _assert_modes_scale(index, m)
            scan = None
            if green_mode == "nonretarded":
                scan = _scan_outcome(atom, upper, lower, m, env,
                                     resonance_tol=tol,
                                     use_closed_form=closed)
            try:
                rep = ps.total_shift(atom, upper, lower, m, env,
                                     green_mode=green_mode,
                                     resonance_tol=tol, use_closed_form=closed)
            except ps.PolshiftError as exc:
                assert not isinstance(exc, SKIPS), (index, exc)
                assert not str(exc).startswith("scattered Tr Im G"), \
                    (index, exc)
                if scan is not None:
                    assert type(scan) is type(exc), index
                    assert str(scan) == str(exc), index
                tally[type(exc).__name__] += 1
                continue
            lines = [getattr(rep, line) for line in ENERGY_LINES]
            if scan is not None:
                assert scan == repr([*lines, rep.thermal_factor]), index
            assert all(math.isfinite(v) for v in lines), (index, rep)
            assert math.isfinite(rep.thermal_factor), (index, rep)
            assert rep.total == \
                rep.nr_matsubara + rep.nr_resonant_photon + rep.r_shift
            assert rep.meta["z"] == env.z and rep.meta["T"] == env.T
            if green_mode == "nonretarded":
                _assert_exact_laws(index, rep, atom, upper, lower, m, env,
                                   resonance_tol=tol, use_closed_form=closed)
            reason = rep.meta.get("resonant_skipped")
            if reason is None:
                tally["report"] += 1
            else:
                assert rep.u_eff == rep.thermal_factor == rep.r_shift == 0.0
                tally["skipped: " + reason.split(":")[0]] += 1
    print(f"{green_mode}: {dict(sorted(tally.items()))}")
    assert sum(tally.values()) == draws
