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
drawn material and atom.
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
from polshift.potentials import ENERGY_LINES

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
            try:
                rep = ps.total_shift(atom, upper, lower, m, env,
                                     green_mode=green_mode,
                                     resonance_tol=tol, use_closed_form=closed)
            except ps.PolshiftError as exc:
                assert not isinstance(exc, SKIPS), (index, exc)
                assert not str(exc).startswith("scattered Tr Im G"), \
                    (index, exc)
                tally[type(exc).__name__] += 1
                continue
            lines = [getattr(rep, line) for line in ENERGY_LINES]
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
