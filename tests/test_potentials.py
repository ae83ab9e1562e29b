"""Energy-shift formulas: nonresonant, resonant, closed forms, totals."""

import dataclasses
import json
import math
from collections import Counter
from functools import partial

import mpmath
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.constants import hbar as HBAR_SI
from scipy.constants import k as KB_SI
from scipy.integrate import quad
from scipy.optimize import brentq

import polshift as ps
from oracles import (MATSUBARA_TOL, cluster_sum_mp,
                     matsubara_line_closed_form, matsubara_sum_reference,
                     matsubara_tail_size, nonresonant_one_polariton,
                     nonresonant_parts_per_transition, u_eff_nonretarded_form,
                     zero_temperature_line)
from polshift import greens, potentials
from polshift.atoms import OMEGA_KN_MIN
from polshift.units import C, CM1, HBAR, KB, MU0

Z = 1e-6
ENV = ps.Environment(z=Z, T=500.0)


@pytest.fixture(scope="module")
def broad_modes(material_broad):
    return ps.find_polariton_modes(material_broad)


# ---------------------------------------------------------------------------
# Environment and Matsubara cutoff validation
# ---------------------------------------------------------------------------


def test_environment_validation():
    with pytest.raises(ValueError):
        ps.Environment(z=0.0, T=300.0)
    with pytest.raises(ValueError):
        ps.Environment(z=1e-6, T=-1.0)
    assert ps.Environment(z=1e-6, T=0.0).T == 0.0
    # out of range, including where z**3 overflows or underflows to 0 and
    # where U_eff's z^-6 products overflow (1e-100) or vanish (1e60)
    for z in (1e120, 1e60, 1.0000001e15, 9.999999e-16, 1e-100, 1e-120):
        with pytest.raises(ValueError,
                           match=r"z must lie in \[1e-15, 1e\+15\] m"):
            ps.Environment(z=z, T=500.0)
    assert ps.Environment(z=1e-15, T=500.0).z == 1e-15
    assert ps.Environment(z=1e15, T=500.0).z == 1e15
    # above T_MAX, including where the thermal factor overflows (1e160) and
    # where xi_1 is infinite (1e300)
    for T in (1e300, 1e200, 1e160, 1.0000001e15, math.inf, math.nan):
        with pytest.raises(ValueError, match=r"T must lie in \[0, 1e\+15\] K"):
            ps.Environment(z=1e-6, T=T)
    assert ps.Environment(z=1e-6, T=1e15).T == 1e15


def test_matsubara_cutoff_validation(toy_atom, material_toy):
    env = ps.Environment(z=Z, T=400.0)
    for cutoff in (0, -1):
        with pytest.raises(ValueError, match="cutoff must be >= 1"):
            ps.nonresonant_shift_parts(toy_atom, "g", material_toy, env,
                                       cutoff=cutoff)
        with pytest.raises(ValueError, match="cutoff must be >= 1"):
            ps.total_shift(toy_atom, "e", "g", material_toy, env,
                           cutoff=cutoff)


# ---------------------------------------------------------------------------
# matsubara_xi
# ---------------------------------------------------------------------------


def test_matsubara_xi_examples(golden):
    assert ps.matsubara_xi(300.0, 0) == 0.0
    want = golden["matsubara_xi_j1_300K"]["xi"]
    assert ps.matsubara_xi(300.0, 1) == pytest.approx(want, rel=1e-12)
    # Independent constant arithmetic.
    assert ps.matsubara_xi(300.0, 1) == pytest.approx(
        2.0 * math.pi * KB_SI * 300.0 / HBAR_SI, rel=1e-12)


def test_matsubara_xi_zero_temperature():
    with pytest.raises(ps.ZeroTemperature):
        ps.matsubara_xi(0.0, 1)
    with pytest.raises(ValueError):
        ps.matsubara_xi(300.0, -1)


@settings(max_examples=40)
@given(j=st.integers(0, 10_000), T=st.floats(1e-3, 5e3))
def test_matsubara_xi_linearity(j, T):
    assert ps.matsubara_xi(T, 2 * j) == pytest.approx(
        ps.matsubara_xi(2.0 * T, j), rel=1e-14)


# ---------------------------------------------------------------------------
# thermal_occupation / thermal_factor
# ---------------------------------------------------------------------------


def test_thermal_occupation_limits():
    assert ps.thermal_occupation(1e13, 0.0) == 0.0
    assert ps.thermal_occupation(-1e13, 0.0) == -1.0
    with pytest.raises(ValueError):
        ps.thermal_occupation(0.0, 300.0)
    # hbar*omega = kB*T*ln2  ->  nbar = 1.
    omega = math.log(2.0) * KB * 300.0 / HBAR
    assert ps.thermal_occupation(omega, 300.0) == pytest.approx(1.0,
                                                                rel=1e-12)


def test_thermal_occupation_oracle(golden):
    doc = golden["thermal"]
    nbar = ps.thermal_occupation(doc["inputs"]["omega2"], doc["inputs"]["T"])
    assert nbar == pytest.approx(doc["nbar_omega2"], rel=1e-10)


def test_thermal_occupation_underflow_is_zero():
    # hbar*omega/kB/T ~ 1833: exp overflows but the occupation is just 0.
    assert ps.thermal_occupation(2.4e14, 1.0) == 0.0


@settings(max_examples=40)
@given(omega=st.floats(1e10, 1e15), T=st.floats(1.0, 2e3))
def test_thermal_occupation_signed_identity(omega, T):
    up = ps.thermal_occupation(omega, T)
    down = ps.thermal_occupation(-omega, T)
    assert down == pytest.approx(-(up + 1.0), rel=1e-12)


def test_thermal_factor_oracle(golden, broad_modes):
    doc = golden["thermal"]
    lo, hi = broad_modes
    factor = ps.thermal_factor(hi, lo, doc["inputs"]["T"])
    # The golden number was computed at the exact 90/73 cm^-1 centers; the
    # fixture modes sit within 2e-4 of those, so compare loosely here (the
    # acceptance check evaluates at the exact inputs instead).
    assert factor == pytest.approx(doc["thermal_factor"], rel=1e-2)
    n1 = ps.thermal_occupation(hi.omega_center, 500.0)
    n2 = ps.thermal_occupation(lo.omega_center, 500.0)
    assert ps.thermal_factor(hi, lo, 500.0) == pytest.approx(
        math.sqrt((n1 + 1.0) * n2), rel=1e-14)


def test_thermal_factor_zero_temperature(broad_modes):
    lo, hi = broad_modes
    assert ps.thermal_factor(hi, lo, 0.0) == 0.0


# ---------------------------------------------------------------------------
# nonresonant_shift_parts
# ---------------------------------------------------------------------------


def test_nonresonant_no_dipoles(material_toy):
    atom = ps.AtomSpec("bare", states=(ps.AtomicState("g", 0.0),), dipoles=())
    assert sum(ps.nonresonant_shift_parts(atom, "g", material_toy, ENV)) \
        == 0.0


def test_nonresonant_at_the_smallest_transition_frequency(material_toy):
    """A two-level atom at omega_kn = 1.49e-154 rad/s, where the Green
    tensor's denominator 32 pi omega^2 z^3 underflows to 0 at 1 um, is
    rejected by AtomSpec.  At OMEGA_KN_MIN both lines are finite on both
    routes at 1 um, and on the nonretarded route at either end of
    Z_RANGE."""
    def atom(omega):
        return ps.AtomSpec("close", (ps.AtomicState("g", 0.0),
                                     ps.AtomicState("e", omega)),
                           (ps.DipoleElement("g", "e", 1e-29),))

    with pytest.raises(ValueError, match="lies below OMEGA_KN_MIN"):
        atom(1.4916681462400413e-154)
    bound = atom(OMEGA_KN_MIN)
    for z, modes in ((1e-6, ("nonretarded", "full")),
                     *((z, ("nonretarded",)) for z in potentials.Z_RANGE)):
        for mode in modes:
            lines = ps.nonresonant_shift_parts(
                bound, "g", material_toy, ps.Environment(z=z, T=300.0),
                green_mode=mode)
            assert all(map(math.isfinite, lines)), (z, mode, lines)


def test_nonresonant_requires_positive_T(toy_atom, material_toy):
    with pytest.raises(ps.ZeroTemperature):
        ps.nonresonant_shift_parts(toy_atom, "g", material_toy,
                                   ps.Environment(z=Z, T=0.0))


def test_nonresonant_ground_state_attractive(toy_atom, material_toy):
    env = ps.Environment(z=Z, T=400.0)
    mats, photon = ps.nonresonant_shift_parts(toy_atom, "g", material_toy,
                                              env)
    assert mats + photon < 0.0
    assert mats < 0.0


def test_nonresonant_golden_toy(golden, toy_atom, material_toy):
    doc = golden["nonresonant_toy"]
    env = ps.Environment(z=doc["inputs"]["z"], T=doc["inputs"]["T"])
    mats, photon = ps.nonresonant_shift_parts(toy_atom, "g", material_toy,
                                              env)
    assert mats == pytest.approx(doc["matsubara"], rel=1e-8, abs=0)
    assert photon == pytest.approx(doc["resonant_photon"], rel=1e-8, abs=0)
    assert mats + photon == pytest.approx(doc["total"], rel=1e-8, abs=0)


def test_nonresonant_routes_agree(toy_atom, material_toy):
    """Per-transition closed form vs tensor route: independent code paths,
    each summing the Matsubara line exactly."""
    env = ps.Environment(z=Z, T=400.0)
    a = nonresonant_parts_per_transition(toy_atom, "g", material_toy, env)
    b = ps.nonresonant_shift_parts(toy_atom, "g", material_toy, env)
    assert b[0] == pytest.approx(a[0], rel=1e-12, abs=0)
    assert b[1] == pytest.approx(a[1], rel=1e-12, abs=0)


def test_nonresonant_routes_agree_multilevel(rb_atom, material_broad):
    """The per-transition form on the ten-transition Rb level at 3 K,
    where the stop rule's sum runs to about 1800 terms: both sides give
    the exact line, not two truncations that stop alike."""
    env = ps.Environment(z=Z, T=3.0)
    a = nonresonant_parts_per_transition(rb_atom, "27S1/2", material_broad,
                                         env)
    b = ps.nonresonant_shift_parts(rb_atom, "27S1/2", material_broad, env)
    assert b[0] == pytest.approx(a[0], rel=1e-12, abs=0)
    assert b[1] == pytest.approx(a[1], rel=1e-12, abs=0)


# ---------------------------------------------------------------------------
# Matsubara engine against the term-by-term oracle
# ---------------------------------------------------------------------------


def _mats_term(atom, n, m, env, green_mode="nonretarded"):
    """The Matsubara summand of nonresonant_shift_parts, for an array of j."""
    xi2_trace = potentials._green_route(green_mode)[1]
    xi1 = ps.matsubara_xi(env.T, 1)

    def term(j):
        xi = j * xi1
        return ps.polarizability_iso(atom, n, xi) * xi2_trace(m, env.z, xi)
    return term


def _rows_term(*terms):
    """The engine's term(rows, j) over the one-row summands terms, each a
    map of a 1-D array of j to its terms: the block j goes to the summand
    of each row, in order."""
    def term(rows, j):
        return np.array([terms[row](j) for row in rows.tolist()],
                        dtype=float)
    return term


def _engine_sum(term, cutoff=20000):
    """The engine on the one summand term: its value, or its
    ConvergenceFailure raised."""
    (value,) = potentials._matsubara_sums(_rows_term(term), 1, cutoff)
    if isinstance(value, ps.ConvergenceFailure):
        raise value
    return value


def _assert_engine_matches_oracle(term, cutoff=20000, tol=MATSUBARA_TOL):
    """The engine, at its MATSUBARA_TOL, against the oracle at tol."""
    want, stop = matsubara_sum_reference(term, cutoff, tol)
    assert _engine_sum(term, cutoff) == want
    # the same stopping j: a cutoff there suffices, one below does not
    assert _engine_sum(term, stop) == want
    with pytest.raises(ps.ConvergenceFailure):
        _engine_sum(term, stop - 1)
    return stop


@pytest.mark.parametrize("T", [0.35, 3.0, 30.0, 500.0])
def test_matsubara_engine_matches_oracle_rb(rb_atom, material_broad, T):
    term = _mats_term(rb_atom, "27S1/2", material_broad,
                      ps.Environment(z=Z, T=T))
    _assert_engine_matches_oracle(term)


@pytest.mark.parametrize("T", [0.35, 3.0, 30.0, 500.0])
@pytest.mark.parametrize("n", ["g", "e"])
def test_matsubara_engine_matches_oracle_toy(toy_atom, material_toy, n, T):
    term = _mats_term(toy_atom, n, material_toy, ps.Environment(z=Z, T=T))
    if T < 10.0:
        # the two-level sums need more than the default cutoff here
        with pytest.raises(ps.ConvergenceFailure):
            matsubara_sum_reference(term, 20000)
        with pytest.raises(ps.ConvergenceFailure):
            _engine_sum(term, 20000)
    else:
        _assert_engine_matches_oracle(term)


@pytest.fixture(scope="module")
def rb_matsubara_closed_forms(rb_atom, material_broad, material_narrow):
    """The exact Matsubara line of Rb 27S1/2 on each two-oscillator fixture,
    its poles and residues built once per material."""
    return {name: matsubara_line_closed_form(rb_atom, "27S1/2", m)
            for name, m in (("material_broad", material_broad),
                            ("material_narrow", material_narrow))}


@pytest.mark.parametrize("T", [0.35, 3.0, 30.0, 300.0])
@pytest.mark.parametrize("material", ["material_broad", "material_narrow"])
def test_matsubara_line_matches_closed_form(request, rb_atom,
                                            rb_matsubara_closed_forms,
                                            material, T):
    """nr_matsubara against the partial-fraction sum, to within the stop
    rule's tail bound and the engine's rounding.

    * The sum stops at the first j with |t_j| j <= MATSUBARA_TOL
      max_i |S_i|; with the terms falling at least as j^-p past it, p >= 2
      (_matsubara_sums' docstring), the tail is at most MATSUBARA_TOL
      max_i |S_i| / (p - 1), taken here at p = 2.
    * Rounding: a term rounds at most 64 times (ten transitions, two
      oscillators and the prefactors), relative to the term with every
      transition's share of alpha taken in absolute value, and the sum
      rounds once per term; so (stop + 64) u sum_j |t_j|_abs.  The oracle
      works at 40 digits and rounds once, to a float.
    """
    m = request.getfixturevalue(material)
    env = ps.Environment(z=Z, T=T)
    want = rb_matsubara_closed_forms[material](Z, T)
    got = ps.nonresonant_shift_parts(rb_atom, "27S1/2", m, env)[0]

    term = _mats_term(rb_atom, "27S1/2", m, env)
    _, stop = matsubara_sum_reference(term, potentials.MATSUBARA_CUTOFF)
    j = np.arange(stop + 1)
    t = term(j)
    t[0] *= 0.5
    xi = j * ps.matsubara_xi(T, 1)
    alpha_abs = 2.0 / (3.0 * HBAR) * sum(
        abs(w) * d * d / (w * w + xi * xi)
        for _, w, d in ps.transitions_from(rb_atom, "27S1/2"))
    t_abs = np.abs(t) * alpha_abs / np.abs(
        ps.polarizability_iso(rb_atom, "27S1/2", xi))
    tail = potentials.MATSUBARA_TOL * np.max(np.abs(np.cumsum(t)))
    rounding = (stop + 64) * _U * np.sum(t_abs)
    assert abs(got - want) <= MU0 * KB * T * (tail + rounding) \
        + _U * abs(want)


_LINE_CASES = [("rb_atom", "27S1/2", "material_broad"),
               ("rb_atom", "26S1/2", "material_broad"),
               ("rb_atom", "27S1/2", "material_narrow"),
               ("rb_atom", "26S1/2", "material_narrow"),
               ("toy_atom", "g", "material_toy"),
               ("toy_atom", "e", "material_toy"),
               ("flipping_atom", "m", "material_toy")]


def _exact(atom, n, m, dps=40):
    """(line, tail size) of matsubara_line_closed_form and
    matsubara_tail_size, the size counting the library's clusters."""
    return (matsubara_line_closed_form(atom, n, m, dps),
            matsubara_tail_size(atom, n, m, dps=max(dps, 20),
                                sep=potentials._POLE_SEP))


@pytest.fixture(scope="module")
def exact_lines(request):
    """_exact for each of _LINE_CASES, built once."""
    out = {}
    for atom, n, m in _LINE_CASES:
        out[atom, n, m] = _exact(request.getfixturevalue(atom), n,
                                 request.getfixturevalue(m))
    return out


def _line_terms(atom, n, m, z=Z):
    """DistanceTerms of level n at z on the nonretarded route whose photon
    line has its transitions' frequencies and zero Green factors, so that
    reports_at gives the Matsubara line alone, which no photon-line error
    (as on a lossless surface-mode pole) hides."""
    photon = tuple((w, w * w, 0.0) for _, w, _ in ps.transitions_from(atom, n))
    return potentials.DistanceTerms(atom, n, m, z, "nonretarded", photon,
                                    None, 0.0, {})


def _matsubara_lines(atom, n, m, Ts, cutoff, z=Z):
    """reports_at's nr_matsubara of level n at (z, T) for each T of Ts, or
    the PhysicsError of its Matsubara line."""
    return [r.nr_matsubara if isinstance(r, ps.ShiftReport) else r
            for r in potentials.reports_at(_line_terms(atom, n, m, z), Ts,
                                           cutoff)]


def _assert_exact_line(a, n, m, T, exact, cutoff):
    """nr_matsubara of level n at (Z, T) against exact, the (line, tail
    size) of _exact, to within the float64 rounding of the five-term head
    and the psi tail.

    The line is S_4 + scale * (-(1/x_1) sum_p R_p psi(5 - p/x_1)
    + sum_C sum_{m>=2} (b_m/x_1^m) S(5 - c_1/x_1, .., 5 - c_m/x_1)), times
    mu0 kB T.  Rounding, in units of u = 2^-53:

    * the head: each of its terms t_0..t_4 rounds at most 64 times
      relative to |t_j|_abs, the term with every transition's share of
      alpha taken in absolute value (as in
      test_matsubara_line_matches_closed_form), and the partial sum five
      times: 69 u sum_{j<=4} |t_j|_abs;
    * the tail: each psi value, and each S of a cluster, takes at most 32
      roundings relative to its magnitude (five recurrence steps of a
      complex division and an addition, the log, the 1/w and the eight
      Horner steps of the series; for S ten terms, the integral and the
      series, 8 roundings in test_cluster_sum_matches_mpmath), each
      residue at most 32 relative to |R_p| (the Horner values of A, E and
      E' at a root and the sum over the transitions), each Newton
      coefficient b_m of a cluster of two or three poles at most 32
      relative to |b_m| (the synthetic divisions of N and D, their Horner
      values at the nodes and the Leibniz sum), and the sum over the
      terms one per term: (terms + 64) u times the size of
      matsubara_tail_size, the sum of |R_p psi_p| / x_1 and, for a
      cluster, |b_1 psi| / x_1 and |b_m S| / x_1^m, taken over the
      oracle's per-transition poles, which bound the library's merged
      ones;
    * the last steps (S_4 + tail, the scale, mu0 kB T and the oracle's own
      rounding to a float): 8 u |line|.
    """
    line, tail_size = exact
    env = ps.Environment(z=Z, T=T)
    want = line(Z, T)
    (got,) = _matsubara_lines(a, n, m, (T,), cutoff)

    j = np.arange(5)
    xi = j * ps.matsubara_xi(T, 1)
    t = _mats_term(a, n, m, env)(j)
    alpha_abs = 2.0 / (3.0 * HBAR) * sum(
        abs(w) * d * d / (w * w + xi * xi)
        for _, w, d in ps.transitions_from(a, n))
    t_abs = np.abs(t) * alpha_abs / np.abs(ps.polarizability_iso(a, n, xi))
    terms, size = tail_size(Z, T)
    bound = 69 * _U * MU0 * KB * T * np.sum(t_abs) \
        + (terms + 64) * _U * size + 8 * _U * abs(want)
    assert abs(got - want) <= bound, (T, got, want)


@pytest.mark.parametrize("T", [0.35, 3.0, 30.0, 300.0, 600.0])
@pytest.mark.parametrize("atom, n, material", _LINE_CASES)
def test_nonretarded_line_is_the_exact_sum(request, exact_lines, atom, n,
                                           material, T):
    """nr_matsubara against the 40-digit partial-fraction sum, to within
    the float64 rounding of _assert_exact_line.

    The cutoff is raised to 10^8 so that the two-level sums below 10 K,
    which the default cutoff stops short of, are compared too; the
    closed form's value does not depend on it.
    """
    a, m = request.getfixturevalue(atom), request.getfixturevalue(material)
    _assert_exact_line(a, n, m, T, exact_lines[atom, n, material], 10**8)


@pytest.mark.parametrize("n, material", [("27S1/2", "material_broad"),
                                         ("26S1/2", "material_narrow")])
def test_nonretarded_line_approaches_its_zero_temperature_limit(
        request, rb_atom, n, material):
    """At 0.35, 1 and 3 K the nonretarded Matsubara line at 1 um lies within
    the Euler-Maclaurin bounds of zero_temperature_line around its T -> 0
    limit, -P sum_p R_p log(-p) (the standard Casimir-Polder energy of the
    level): |line - line0| <= bound2, which falls as T^2, and |line -
    line0 - first| <= bound4, as T^4, first being the T^2 term.  The
    library's line is the exact primed sum to within the float64 bound of
    _assert_exact_line, below 1e-13 of line0 here, so the assertions add
    1e-12 |line0| for it."""
    m = request.getfixturevalue(material)
    line0, em = zero_temperature_line(rb_atom, n, m)
    zero = line0(Z)
    assert zero < 0.0
    lines = _matsubara_lines(rb_atom, n, m, (0.35, 1.0, 3.0),
                             potentials.MATSUBARA_CUTOFF)
    for T, line in zip((0.35, 1.0, 3.0), lines):
        first, bound2, bound4 = em(Z, T)
        assert abs(line - zero) <= bound2 + 1e-12 * abs(zero), T
        assert abs(line - zero - first) <= bound4 + 1e-12 * abs(zero), T


def _near_mode_atom(gap):
    """A two-level atom whose transition lies a relative gap above the
    surface mode sqrt(omega_T^2 + omega_P^2/2) of an oscillator with
    omega_P = omega_T = 1e13 rad/s."""
    w = math.sqrt(1.5) * 1e13 * (1.0 + gap)
    return ps.AtomSpec(
        "near the surface mode",
        (ps.AtomicState("g", 0.0), ps.AtomicState("e", w)),
        (ps.DipoleElement("g", "e", 1e-29),))


#: gamma_crit = 2 sqrt(omega_T^2 + omega_P^2/2) of an oscillator with
#: omega_P = 4e13 and omega_T = 1e13 rad/s, a double root of E at
#: xi = -3e13 rad/s; 6e13 is a float, so the root is exactly double
_GAMMA_CRIT = 6e13

#: the nonretarded lines whose summand has a cluster of near poles: the
#: atom a relative gap above the surface mode at gamma 0, 1e9 and 1e10
#: rad/s; the toy atom on an oscillator damped gamma/gamma_crit - 1 from
#: critical; and an atom line halfway between two surface modes, a root
#: of E within 1.8 % (0.01), 1.8e-3 (0.001) or 1.7e-5 (1e-05) on either
#: side, or, at 1e-09, a near-double root of E within 4e-5 of it, so that
#: the three poles form one cluster
_PAIRED_CASES = [f"near {gap:g} {gamma:g}" for gap in (1e-3, 1e-6, 1e-9,
                                                      1e-12, 0.0)
                 for gamma in (0.0, 1e9, 1e10)] \
    + [f"critical {d:+g}" for d in (1e-4, -1e-4, 1e-8, -1e-8, 0.0)] \
    + ["between 0.01", "between 0.001", "between 1e-05", "between 1e-09"]


def _paired_case(case):
    """(atom, level, material) of one of _PAIRED_CASES, or of "vacuum"."""
    kind, *args = case.split()
    two_level = ps.AtomSpec(
        "two-level toy",
        (ps.AtomicState("g", 0.0), ps.AtomicState("e", 2.4e14)),
        (ps.DipoleElement("g", "e", 1.0e-29),))
    if kind == "vacuum":
        return two_level, "g", ps.MaterialModel("vacuum", ())
    if kind == "near":
        gap, gamma = map(float, args)
        return _near_mode_atom(gap), "g", ps.MaterialModel(
            case, (ps.Oscillator(1e13, 1e13, gamma),))
    if kind == "between":
        # a weak second oscillator d above the first one's surface mode
        # puts a root of E about 1.7 d above the atom, which sits d/2
        # above the mode, and pushes the mode's root as far below it
        d = float(args[0])
        return _near_mode_atom(d / 2.0), "g", ps.MaterialModel(case, (
            ps.Oscillator(1e13, 1e13, 1e9),
            ps.Oscillator(1e14 * d, math.sqrt(1.5) * 1e13 * (1.0 + d), 1e9)))
    gamma = _GAMMA_CRIT * (1.0 + float(args[0]))
    return two_level, "g", ps.MaterialModel(
        case, (ps.Oscillator(4e13, 1e13, gamma),))


@pytest.mark.parametrize("case", ["vacuum"] + _PAIRED_CASES)
def test_nonretarded_line_is_exact_where_poles_pair(case):
    """Where a root of E lies near +-i w_k or near another root, the table
    sums the near poles as one cluster, and the line matches the oracle's
    exact sum (poles split by 1e-50 where they coincide, at 150 digits) to
    within _assert_exact_line's rounding at 0.35, 3, 30 and 300 K.  The
    vacuum's table is empty and its line 0.  Each case forms a cluster: a
    pair near a surface mode or critical damping, three poles between two
    surface modes.  At gap 1e-6 with gamma 0 or 1e9 rad/s, as on the
    vacuum, the table used to be refused, and the line was the engine's
    without a tail; between two modes 1.7e-5 apart or closer, pairs could
    not hold the three poles, and the line was a ConvergenceFailure."""
    atom, n, m = _paired_case(case)
    table = potentials._pole_table(_line_terms(atom, n, m))
    Ts = (0.35, 3.0, 30.0, 300.0)
    if case == "vacuum":
        assert table.poles.size == len(table.clusters) == 0
        assert _matsubara_lines(atom, n, m, Ts, 20000) == [0.0] * len(Ts)
        return
    # a root of E and i w_k, or three poles between two modes, and their
    # conjugates; or two real roots of E
    sizes = [nodes.size for nodes, _ in table.clusters]
    if case.startswith("critical"):
        assert sizes == [2]
    else:
        assert sizes == [3 if case.startswith("between") else 2] * 2
    # at 150 digits, where the oracle splits a coincident pole
    exact = _exact(atom, n, m, dps=150)
    for T in Ts:
        _assert_exact_line(atom, n, m, T, exact, 10**8)


def _assert_same_contract(atom, n, m, Ts, cutoff):
    """reports_at's Matsubara line and the term-by-term rule fail on the
    same T, with the same error and message, and agree to the rule's
    truncation (MATSUBARA_TOL max|S_i| / (p - 1) at p = 2, 1e-9 relative)
    elsewhere."""
    got = _matsubara_lines(atom, n, m, Ts, cutoff)
    want = []
    for T in Ts:
        term = _mats_term(atom, n, m, ps.Environment(z=Z, T=T))
        try:
            want.append(matsubara_sum_reference(term, cutoff)[0])
        except ps.ConvergenceFailure as exc:
            want.append(exc)
    for T, g, s in zip(Ts, got, want):
        if isinstance(s, ps.ConvergenceFailure):
            assert type(g) is ps.ConvergenceFailure, (T, cutoff)
            assert str(g) == str(s)
        else:
            assert not isinstance(g, ps.PhysicsError), (T, cutoff, g)
            assert g == pytest.approx(MU0 * KB * T * s, rel=1e-9, abs=0)
    return sum(isinstance(s, ps.ConvergenceFailure) for s in want)


@pytest.mark.parametrize("case", [
    pytest.param(case, id="-".join(case)) for case in _LINE_CASES] + [
    "near 1e-06 1e+09", "near 0 0", "critical -1e-08", "critical +0",
    "between 0.01", "between 1e-05", "between 1e-09"])
def test_nonretarded_line_keeps_the_cutoff_contract(request, case):
    """The closed form raises ConvergenceFailure on exactly the inputs
    where the term-by-term stop rule does, from cutoffs below the rule's
    first j = 4 to the default, at temperatures down to where the default
    cutoff no longer suffices (about 0.28 K for Rb), and far below, where
    cutoff xi_1 lies under the summand's poles and the terms up to the
    cutoff sit on their plateau, so that |S_cutoff| is far below the exact
    sum |S|; on the fixtures, on four tables with a pair of near poles,
    and on three with a cluster of three, 1.8 % to 4e-5 apart."""
    if isinstance(case, str):
        a, n, m = _paired_case(case)
    else:
        atom, n, material = case
        a, m = request.getfixturevalue(atom), request.getfixturevalue(material)
    Ts = (1e-16, 1e-13, 1e-10, 0.1, 0.2, 0.25, 0.28, 0.3, 0.35, 5.0, 50.0,
          600.0)
    failed = [_assert_same_contract(a, n, m, Ts, cutoff)
              for cutoff in (3, 4, 5, 20, 150, 20000)]
    assert failed[0] == len(Ts) and 0 < failed[-1] < len(Ts)


@pytest.mark.parametrize("k", [-3, 1, 7])
@pytest.mark.parametrize("case", ["near 1e-06 1e+09", "near 0 0",
                                  "critical +0", "critical -1e-08",
                                  "between 0.001", "between 1e-05"])
def test_paired_line_scales_exactly_by_powers_of_two(case, k):
    """With every frequency and T scaled by lam = 2^k and z by 1/lam, a
    table with a cluster keeps its poles and its clusters' nodes bit for
    bit, its residues and Newton coefficients scale by lam, and the
    Matsubara line by lam^3, at 0.35, 3, 30 and 300 K (cutoff 10^8, which
    the two-level sums below 10 K need)."""
    lam = 2.0**k
    atom, n, m = _paired_case(case)
    scaled_atom, scaled_m = _scaled_atom(atom, lam), _scaled_material(m, lam)
    base = potentials._pole_table(_line_terms(atom, n, m))
    scaled = potentials._pole_table(
        _line_terms(scaled_atom, n, scaled_m, Z / lam))
    assert base.clusters
    assert np.array_equal(scaled.poles, base.poles)
    assert np.array_equal(scaled.residues, lam * base.residues)
    assert len(scaled.clusters) == len(base.clusters)
    for (nodes, b), (base_nodes, base_b) in zip(scaled.clusters,
                                                 base.clusters):
        assert np.array_equal(nodes, base_nodes)
        assert np.array_equal(b, lam * base_b)
    Ts = (0.35, 3.0, 30.0, 300.0)
    want = _matsubara_lines(atom, n, m, Ts, 10**8)
    got = _matsubara_lines(scaled_atom, n, scaled_m, [lam * T for T in Ts],
                           10**8, Z / lam)
    assert got == [lam**3 * w for w in want]


_KERNEL_RE = [5.0, 5.5, 40.0, 1e4, 1e7]
_KERNEL_IM = [0.0, 1.0, 1e3, 1e5, -1e7, 1e7]


@pytest.mark.parametrize("im", _KERNEL_IM)
@pytest.mark.parametrize("re", _KERNEL_RE)
def test_psi_divided_difference_matches_mpmath(re, im):
    """_cluster_sum(a, b) against the 40-digit (psi(b) - psi(a))/(b - a),
    and psi'(a) at b = a, at separations 0, 1e-12, 1e-6, 0.5 and |a| along
    four directions (those that leave Re b >= 5), to 8 roundings."""
    a = complex(re, im)
    bs = [a + sep * d for sep in (0.0, 1e-12, 1e-6, 0.5, abs(a))
          for d in (1.0, 1j, -1j, -1.0) if (a + sep * d).real >= 5.0]
    got = potentials._cluster_sum(
        np.stack((np.full(len(bs), a), np.array(bs)), axis=-1))
    with mpmath.workdps(40):
        for b, g in zip(bs, got):
            if b == a:
                want = mpmath.psi(1, a)
            else:
                want = (mpmath.digamma(b) - mpmath.digamma(a)) / (
                    mpmath.mpc(b) - mpmath.mpc(a))
            assert abs(g - complex(want)) <= 8 * _U * abs(want), (a, b)


def _cluster_sum_mp(nodes):
    """_cluster_sum of nodes, good to 40 digits: cluster_sum_mp with each
    node that repeats an earlier one moved 1e-45 |a| away (which moves the
    value by about 1e-45 of itself), at 60 + 45 (m - 1) digits, of which
    the partial fractions' cancellation of up to 45 (m - 1) digits leaves
    60."""
    with mpmath.workdps(60 + 45 * (len(nodes) - 1)):
        split = mpmath.mpf(10) ** -45 * abs(mpmath.mpc(nodes[0]))
        a = []
        for x in map(mpmath.mpc, nodes):
            while any(x == y for y in a):
                x += split
            a.append(x)
        return complex(cluster_sum_mp(a))


@pytest.mark.parametrize("m", [3, 4])
@pytest.mark.parametrize("im", _KERNEL_IM)
@pytest.mark.parametrize("re", _KERNEL_RE)
def test_cluster_sum_matches_mpmath(re, im, m):
    """_cluster_sum over m = 3 and 4 arguments against 40-digit mpmath
    (_cluster_sum_mp): all at a, and a with the others spread 1e-12,
    1e-6 and 5e-2 of |a| along 1, i, -i and -1 (those that leave
    Re >= 5), also with two of them at a, to 8 roundings as at m = 2."""
    a = complex(re, im)
    clusters = []
    for sep in (0.0, 1e-12, 1e-6, 5e-2):
        for dirs in ((1.0, 1j, -1j), (-1.0, 1j, -1j), (0.0, 1.0, 1j),
                     (0.0, 0.0, -1j)):
            nodes = [a] + [a + sep * abs(a) * d for d in dirs[:m - 1]]
            if all(x.real >= 5.0 for x in nodes):
                clusters.append(nodes)
    got = potentials._cluster_sum(np.array(clusters))
    for nodes, g in zip(clusters, got):
        want = _cluster_sum_mp(nodes)
        assert abs(g - want) <= 8 * _U * abs(want), nodes


def test_pole_table_never_sees_a_transition_frequency_that_underflows(
        material_toy):
    """A transition of 5e-324 rad/s would give w_k = |omega_kn|/unit = 0,
    whose residue at +-i w_k is not finite, and an alpha(0) that
    overflows: AtomSpec refuses it, as it refuses every |omega_kn| below
    OMEGA_KN_MIN.  At the smallest |omega_kn| it accepts, alpha(0) and the
    Matsubara line are finite at every T."""
    def atom(omega):
        return ps.AtomSpec(
            "close transition",
            (ps.AtomicState("g", 0.0), ps.AtomicState("e", omega)),
            (ps.DipoleElement("g", "e", 1e-29),))

    with pytest.raises(ValueError, match="lies below OMEGA_KN_MIN"):
        atom(5e-324)
    lines = _matsubara_lines(atom(OMEGA_KN_MIN), "g",
                             material_toy, (0.35, 3.0, 300.0), 20000)
    assert all(math.isfinite(line) for line in lines)


@pytest.mark.parametrize("T", [1e-160, 1e-300, 5e-324])
@pytest.mark.parametrize("n, material, z", [
    ("27S1/2", "material_broad", 1e-6), ("26S1/2", "material_narrow", 1e-7)])
def test_nonretarded_line_fails_without_a_warning_at_tiny_T(
        request, rb_atom, n, material, z, T):
    """Below about 1e-152 K the psi sum's argument j - p/x_1 squares past
    the float range, and at 5e-324 K xi_1 itself underflows to 0; the tail
    is then NaN, and the sum fails at the cutoff with ConvergenceFailure
    rather than a RuntimeWarning (an error under pytest), as the
    term-by-term rule fails there."""
    m = request.getfixturevalue(material)
    with pytest.raises(ps.ConvergenceFailure, match="at cutoff=20000"):
        ps.nonresonant_shift_parts(rb_atom, n, m, ps.Environment(z=z, T=T))


def _alpha_zero_temperature(atom, j):
    """The T at which alpha(i xi) of flipping_atom's level m vanishes at
    xi_j: its zero xi* (about 5e13 rad/s, by brentq) over j xi_1(1 K)."""
    zero = brentq(lambda xi: float(ps.polarizability_iso(atom, "m", xi)),
                  1e13, 1e14)
    assert zero == pytest.approx(5e13, rel=1e-3)
    return zero / (j * ps.matsubara_xi(1.0, 1))


def test_nonretarded_line_is_exact_across_a_zero_of_alpha(
        exact_lines, flipping_atom, material_toy):
    """At the T where alpha(i xi) vanishes at xi = j xi_1, the term t_j is
    0, so the engine's first-hit rule stops there, short of the sum.  The
    closed form gives the exact sum with the default cutoff at j = 6, 12
    and 40, and fails where the test at the cutoff does: at j = 200
    (0.30 K), whose sum needs more terms than the default cutoff allows,
    and with cutoff 20 at j = 6 and 12, where |t_20| 20 is still above the
    rule."""
    exact = exact_lines["flipping_atom", "m", "material_toy"]
    for j in (6, 12, 40):
        T = _alpha_zero_temperature(flipping_atom, j)
        _assert_exact_line(flipping_atom, "m", material_toy, T, exact,
                           potentials.MATSUBARA_CUTOFF)
    terms = _line_terms(flipping_atom, "m", material_toy)
    for j, cutoff in ((200, potentials.MATSUBARA_CUTOFF), (6, 20), (12, 20)):
        T = _alpha_zero_temperature(flipping_atom, j)
        (report,) = potentials.reports_at(terms, (T,), cutoff)
        assert type(report) is ps.ConvergenceFailure, (j, cutoff)
        assert str(report) == str(potentials._cutoff_failure(cutoff))


@pytest.mark.parametrize("j", [6, 12, 40])
def test_full_route_line_is_not_cut_at_a_zero_of_alpha(flipping_atom,
                                                        material_toy, j):
    """At 100 nm and 10 K the full route's Matsubara line is 3.1e-7 from
    the exact nonretarded one, so at the T where alpha(i xi) vanishes at
    xi_j (10.1, 5.1 and 1.5 K) it should be within 1e-5 too: a hit of the
    stop rule at the zero waits for the next term."""
    env = ps.Environment(z=1e-7, T=_alpha_zero_temperature(flipping_atom, j))
    full = ps.nonresonant_shift_parts(flipping_atom, "m", material_toy, env,
                                      green_mode="full")[0]
    nr = ps.nonresonant_shift_parts(flipping_atom, "m", material_toy, env)[0]
    assert abs(full / nr - 1.0) <= 1e-5


@pytest.mark.parametrize("material", ["material_broad", "material_narrow",
                                      "material_toy", "material_ldos"])
def test_full_route_trace_is_negative_on_the_imaginary_axis(request,
                                                            material):
    """xi^2 Tr G(i xi) < 0 on the full route for every xi > 0: with
    eps(i xi) > 1, r_s lies in (-1, 0) and r_p in (0, 1), so both terms of
    the integrand are negative.  So a Matsubara term can vanish only where
    alpha(i xi) does, which the stop rule's look-ahead at a sign change of
    alpha relies on.  Over z from 1 nm to 1 mm and xi from 1e6 to 1e18
    rad/s (a = 2 xi z/c from 7e-12 to 7e6), the rule's underflow to 0 at
    a past about 745 aside."""
    m = request.getfixturevalue(material)
    xis = np.geomspace(1e6, 1e18, 49)
    for z in (1e-9, 1e-7, 1e-5, 1e-3):
        trace = potentials._full_xi2_trace(m, z, xis)
        live = 2.0 * xis * z / C < 700.0
        assert (trace[live] < 0.0).all(), z
        assert (trace[~live] <= 0.0).all(), z


def test_matsubara_engine_matches_oracle_full_green(toy_atom, material_toy):
    """One green_mode="full" point, whose sum runs past the opening block
    of j, one j per pass."""
    term = _mats_term(toy_atom, "g", material_toy,
                      ps.Environment(z=1e-8, T=400.0), green_mode="full")
    assert _assert_engine_matches_oracle(term) > 8


def test_matsubara_engine_stops_against_the_running_max(monkeypatch):
    """Partial sums that fall after j = 0 measure the tail against their
    largest magnitude so far, not the current one."""
    monkeypatch.setattr(potentials, "MATSUBARA_TOL", 1e-3)

    def term(j):
        j = np.asarray(j, dtype=float)
        return np.where(j == 0, 2.0, -0.5 / np.maximum(j, 1.0) ** 2)

    # vs the running max 1 the rule stops near j = 500; vs |S_j| ~ 0.18 it
    # would need j ~ 2700
    assert _assert_engine_matches_oracle(term, cutoff=5000, tol=1e-3) < 1000


@pytest.mark.parametrize("case, stop", [("rb", 4), ("toy", 87)])
def test_full_route_runs_one_quadrature_per_term(request, monkeypatch, case,
                                                 stop):
    """The full route runs one quadrature for each j = 1 .. the oracle's
    stopping j and none past it: the opening block of j ends where the rule
    can first stop (Rb, 500 K: j = 4), and each later pass holds one j
    (toy, 10 nm, 400 K: j = 87)."""
    atom, n, m, env = {
        "rb": ("rb_atom", "27S1/2", "material_broad",
               ps.Environment(z=Z, T=500.0)),
        "toy": ("toy_atom", "g", "material_toy",
                ps.Environment(z=1e-8, T=400.0)),
    }[case]
    atom, m = request.getfixturevalue(atom), request.getfixturevalue(m)
    assert matsubara_sum_reference(_mats_term(atom, n, m, env, "full"),
                            20000)[1] == stop
    xis = []
    quadrature = potentials.green_full_imag_axis

    def counted(m, z, xi):
        xis.extend(xi.tolist())
        return quadrature(m, z, xi)

    monkeypatch.setattr(potentials, "green_full_imag_axis", counted)
    ps.nonresonant_shift_parts(atom, n, m, env, green_mode="full")
    xi1 = ps.matsubara_xi(env.T, 1)
    assert xis == [j * xi1 for j in range(1, stop + 1)]


def _counting_locksteps(monkeypatch):
    """Wrap quadpack.lockstep; return the list of the number of integrals
    of each of its calls."""
    from polshift import quadpack
    lockstep, batches = quadpack.lockstep, []

    def counted(batch):
        batches.append(len(batch))
        return lockstep(batch)

    monkeypatch.setattr(quadpack, "lockstep", counted)
    return batches


def test_full_route_runs_one_lockstep_per_matsubara_pass(rb_atom,
                                                         material_broad,
                                                         monkeypatch):
    """On the full route the head j = 1..4 of every T is one evaluation of
    the imaginary-axis rule, over every xi of it in one array, and so is
    each later pass, over every T still running; no QUADPACK lockstep
    runs.  At 1 um the sums of 30, 100 and 300 K stop at j = 34, 9 and 4,
    so j = 5..9 hold two rows and j = 10..34 one.  No xi of these sums
    needs the rule's second try."""
    Ts = (30.0, 100.0, 300.0)
    stops = [matsubara_sum_reference(
        _mats_term(rb_atom, "27S1/2", material_broad, ps.Environment(Z, T),
                   "full"), 20000)[1] for T in Ts]
    assert stops == [34, 9, 4]
    terms = potentials.distance_terms(rb_atom, "27S1/2", "26S1/2",
                                      material_broad, Z, "full")
    batches = _counting_locksteps(monkeypatch)
    sums, rules = greens._imag_axis_sums, []

    def counted(a, s0, e1, sizes):
        rules.append((len(a), sizes))
        return sums(a, s0, e1, sizes)

    monkeypatch.setattr(greens, "_imag_axis_sums", counted)
    reports = potentials.reports_at(terms, Ts)
    assert all(isinstance(r, ps.ShiftReport) for r in reports)
    live = [sum(stop >= j for stop in stops)
            for j in range(5, max(stops) + 1)]
    sizes = (greens._NODES, 2 * greens._NODES)
    assert rules == [(4 * len(Ts), sizes)] + [(n, sizes) for n in live]
    assert live[:5] == [2] * 5 and live[5:] == [1] * 25
    assert batches == []


@pytest.mark.parametrize("failing", ["pair", "photon"])
def test_a_failing_line_fails_every_report_with_its_own_error(
        rb_atom, material_broad, monkeypatch, failing):
    """distance_terms takes the photon line's Re G and the pair's Im G in
    one call, and when it raises, both lines hold its error.  With only the
    pair's integrals (Im G) failing, or only the photon's (Re G), the
    report at every T, from reports_at and from
    total_shift, raises a QuadratureFailure with the text of the failing
    line's own call, u_eff or _photon_terms.  At cutoff 3 the Matsubara
    line's ConvergenceFailure still comes first."""
    from polshift import quadpack
    lockstep = quadpack.lockstep
    odd = failing == "pair"  # the components of Im G are odd

    def failing_one_line(batch):
        got = lockstep(batch)
        return [r._replace(abserr=math.inf) if i.comp % 2 == odd else r
                for i, r in zip(batch, got)]

    args = (rb_atom, "27S1/2", "26S1/2", material_broad)
    pair = potentials.distance_terms(*args, Z, "full").pair
    monkeypatch.setattr(quadpack, "lockstep", failing_one_line)
    if odd:
        with pytest.raises(ps.QuadratureFailure) as raised:
            ps.u_eff(*args[:3], *pair, material_broad,
                     ps.Environment(Z, 0.0), green_mode="full")
        own = raised.value
    else:
        own = potentials._photon_terms(rb_atom, "27S1/2", material_broad, Z,
                                       "full")
    assert isinstance(own, ps.QuadratureFailure)
    terms = potentials.distance_terms(*args, Z, "full")
    assert terms.pair == pair
    assert isinstance(terms.photon, ps.QuadratureFailure)
    assert terms.u_eff is terms.photon
    Ts = (100.0, 300.0, 600.0)
    for report in potentials.reports_at(terms, Ts):
        assert isinstance(report, ps.QuadratureFailure)
        assert str(report) == str(own)
    with pytest.raises(ps.QuadratureFailure) as raised:
        ps.total_shift(*args, ps.Environment(Z, 300.0), green_mode="full")
    assert str(raised.value) == str(own)
    for report in potentials.reports_at(terms, Ts, cutoff=3):
        assert isinstance(report, ps.ConvergenceFailure)
    with pytest.raises(ps.ConvergenceFailure):
        ps.total_shift(*args, ps.Environment(Z, 300.0), cutoff=3,
                       green_mode="full")


def test_nonretarded_trace_one_reflection_call_per_term(rb_atom,
                                                        material_broad,
                                                        monkeypatch):
    """Each Matsubara xi of a block of j is one scalar reflection_imag_axis
    call, in the order of j, so the material layer counts terms by calls."""
    xis = []
    reflection = potentials.reflection_imag_axis

    def counted(m, xi):
        xis.append(xi)
        return reflection(m, xi)

    monkeypatch.setattr(potentials, "reflection_imag_axis", counted)
    term = _mats_term(rb_atom, "27S1/2", material_broad,
                      ps.Environment(z=Z, T=3.0))
    j = np.arange(0, 700)
    term(j)
    xi1 = potentials.matsubara_xi(3.0, 1)
    assert xis == (j * xi1).tolist()
    assert all(type(x) is float for x in xis)


def test_matsubara_engine_never_evaluates_past_cutoff(monkeypatch):
    """The engine evaluates j = 0..stop once each, in order, and none past
    the stopping j; a cutoff below the stop raises after j = cutoff, and a
    cutoff below 4 without a term past it."""
    monkeypatch.setattr(potentials, "MATSUBARA_TOL", 1e-3)
    seen = []

    def term(j):
        seen.extend(np.asarray(j).tolist())
        return 1.0 / (1.0 + np.asarray(j, dtype=float)) ** 2

    stop = _assert_engine_matches_oracle(term, cutoff=5000, tol=1e-3)
    assert 512 < stop < 1024
    seen.clear()
    _engine_sum(term, 5000)
    assert seen == list(range(stop + 1))
    seen.clear()
    with pytest.raises(ps.ConvergenceFailure):
        _engine_sum(term, stop - 1)
    assert seen == list(range(stop))
    seen.clear()
    with pytest.raises(ps.ConvergenceFailure):
        _engine_sum(term, 3)
    assert seen == [0, 1, 2, 3]


def _blocks_of(term):
    """term, counting: the wrapper and the list of blocks of j it is
    handed, in order."""
    blocks = []

    def counted(j):
        blocks.append(np.asarray(j).tolist())
        return term(j)
    return counted, blocks


def _one_j_blocks(stop):
    """The engine's schedule without a tail, up to j = stop: the opening
    block j = 0..4, then one j per pass."""
    return [list(range(5))] + [[j] for j in range(5, stop + 1)]


@pytest.mark.parametrize("T", [0.35, 1.07, 3.0, 30.0])
def test_matsubara_blocks_end_near_the_stopping_j(rb_atom, material_broad,
                                                  T):
    """On Rb 27S1/2 the engine without a tail is handed the opening block
    j = 0..4, then one j per pass, ending at the oracle's stopping j
    (j = 5167 at 1.07 K, 15 796 at 0.35 K), and gives the oracle's value:
    each j is evaluated once, in order, and none past the stop."""
    term = _mats_term(rb_atom, "27S1/2", material_broad,
                      ps.Environment(z=Z, T=T))
    want, stop = matsubara_sum_reference(term, 20000)
    counted, blocks = _blocks_of(term)
    assert _engine_sum(counted, 20000) == want
    assert blocks == _one_j_blocks(stop)


def _power_then_slower(j, kink=600.0, p=2.0):
    """j^-4 up to the kink, then a tail falling as j^-p only."""
    j = np.maximum(np.asarray(j, dtype=float), 1.0)
    return np.where(j <= kink, j**-4, kink**(p - 4.0) * j**-p)


#: summands whose terms do not fall as one power law: an exponential, a
#: power law that turns slower, and a wavy power law
NON_POWER_LAWS = {
    "exponential": lambda j: np.exp(-np.asarray(j, dtype=float) / 400.0),
    "slower tail": _power_then_slower,
    "wavy": lambda j: (2.0 + np.sin(np.asarray(j, dtype=float) / 7.0))
    / np.maximum(np.asarray(j, dtype=float), 1.0) ** 3,
}


@pytest.mark.parametrize("name", NON_POWER_LAWS)
def test_matsubara_engine_exact_on_non_power_laws(name):
    """Where the terms do not fall as one power law, the engine still gives
    the oracle's value and stopping j bit for bit, evaluates each j once,
    and none past the stopping j or the cutoff."""
    counted, blocks = _blocks_of(NON_POWER_LAWS[name])
    stop = _assert_engine_matches_oracle(counted)
    blocks.clear()
    _engine_sum(counted, 20000)
    assert blocks == _one_j_blocks(stop)
    blocks.clear()
    with pytest.raises(ps.ConvergenceFailure):
        _engine_sum(counted, stop - 1)
    assert [j for b in blocks for j in b] == list(range(stop))


def test_matsubara_engine_stops_at_cutoff_under_a_wrong_prediction():
    """A tail that turns to j^-1.2 after a j^-4 start, where the terms
    before the turn point to an early stop, does not converge by the
    default cutoff: the engine raises, having evaluated every j up to the
    cutoff once and none past it."""
    counted, blocks = _blocks_of(partial(_power_then_slower, p=1.2))
    with pytest.raises(ps.ConvergenceFailure):
        _engine_sum(counted, 20000)
    assert blocks == _one_j_blocks(20000)


def test_matsubara_engine_lockstep_keeps_each_rows_solo_run():
    """The three NON_POWER_LAWS summands as three rows of one call: each
    row is handed the blocks of j it is handed alone, until it stops, and
    gives the value it gives alone; and at a shared cutoff each row stops
    or fails as it does alone, a cutoff at its own stopping j sufficing
    and one below it not."""
    names = list(NON_POWER_LAWS)
    solo = {}
    for name in names:
        counted, blocks = _blocks_of(NON_POWER_LAWS[name])
        value = _engine_sum(counted)
        solo[name] = value, blocks, matsubara_sum_reference(
            NON_POWER_LAWS[name], 20000)[1]
    counted = [_blocks_of(NON_POWER_LAWS[name]) for name in names]
    values = potentials._matsubara_sums(
        _rows_term(*(term for term, _ in counted)), 3, 20000)
    for name, value, (_, blocks) in zip(names, values, counted):
        assert value == solo[name][0]
        assert blocks == solo[name][1]
    summands = _rows_term(*(NON_POWER_LAWS[name] for name in names))
    for i, name in enumerate(names):
        want, _, stop = solo[name]
        for cutoff in (stop, stop - 1):
            got = potentials._matsubara_sums(summands, 3, cutoff)
            for other, value in zip(names, got):
                if solo[other][2] <= cutoff:
                    assert value == solo[other][0]
                else:
                    assert isinstance(value, ps.ConvergenceFailure)
            assert (got[i] == want) is (cutoff == stop)


def _telescoping(spikes):
    """term(rows, j) and tail(rows, j) of t_j = 1/((j+1)(j+2)) plus
    spikes[row] at j = 0: past j = 0 the terms telescope, so the exact sum
    from j >= 1 on is 1/(j+1)."""
    spikes = np.asarray(spikes, dtype=float)

    def term(rows, j):
        return 1.0 / ((j + 1.0) * (j + 2.0)) \
            + np.where(j == 0, spikes[rows, None], 0.0)

    def tail(rows, j):
        return np.ones((rows.size, 1)) / (j + 1.0)
    return term, tail


def test_matsubara_engine_tail_is_the_exact_sum_past_the_head():
    """With a telescoping summand's exact tail, each sum is its head S_4
    plus the tail 1/6 from j = 5 on, and at every cutoff each sum stops
    or fails as the engine without the tail does.  The spike at j = 0
    raises the running max, so that the rule stops a sum near j = 1000
    (spike 2e6) or at j = 4 (spike 1e9); without one it needs j of about
    1e9."""
    spikes = (0.0, 2e6, 1e9)
    term, tail = _telescoping(spikes)
    rows = np.arange(len(spikes))
    head = term(rows, np.arange(5))
    head[:, 0] *= 0.5
    want = (np.add.accumulate(head, axis=1)[:, -1] + 1.0 / 6.0).tolist()
    assert potentials._matsubara_sums(term, 3, 10**10, tail=tail) == want
    _, stop = matsubara_sum_reference(lambda j: term(rows[1:2], j)[0], 20000)
    assert 900 < stop < 1100
    for cutoff in (3, 4, 5, stop - 1, stop, stop + 1, 20000):
        got = potentials._matsubara_sums(term, 3, cutoff, tail=tail)
        alone = potentials._matsubara_sums(term, 3, cutoff)
        for g, a in zip(got, alone):
            failed = isinstance(a, ps.ConvergenceFailure)
            assert isinstance(g, ps.ConvergenceFailure) is failed, cutoff
        assert isinstance(got[1], ps.ConvergenceFailure) is (cutoff < stop)
        assert isinstance(got[2], ps.ConvergenceFailure) is (cutoff < 4)


# ---------------------------------------------------------------------------
# reports_at: every temperature's Matsubara sum in one lockstep pass
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def unit_terms(rb_atom, material_broad, material_narrow):
    """The nonretarded distance terms at UNIT_Z on each two-oscillator
    fixture."""
    return {name: potentials.distance_terms(rb_atom, "27S1/2", "26S1/2", m,
                                    potentials.UNIT_Z)
            for name, m in (("material_broad", material_broad),
                            ("material_narrow", material_narrow))}


def _solo(terms, T, cutoff=potentials.MATSUBARA_CUTOFF):
    """report_at(terms, T, cutoff), or the PhysicsError it raises."""
    try:
        return potentials.report_at(terms, T, cutoff)
    except ps.PhysicsError as exc:
        return exc


def _same(got, want):
    """got and want are the same report bit for bit (repr tells 0.0 from
    -0.0), or errors of one type and message."""
    if isinstance(want, ps.PhysicsError):
        return type(got) is type(want) and str(got) == str(want)
    return repr(got) == repr(want)


@settings(max_examples=15, deadline=None)
@given(material=st.sampled_from(["material_broad", "material_narrow"]),
       Ts=st.lists(st.sampled_from((0.35, 3.0, 30.0, 600.0))
                   | st.floats(0.35, 600.0), min_size=1, max_size=6)
       .flatmap(lambda Ts: st.permutations(Ts + Ts[:1])))
def test_reports_at_is_report_at_at_each_T(unit_terms, material, Ts):
    """reports_at over an unsorted T list with a repeat is report_at at
    each of its temperatures, bit for bit."""
    terms = unit_terms[material]
    got = potentials.reports_at(terms, Ts)
    assert len(got) == len(Ts)
    assert [repr(r) for r in got] == \
        [repr(potentials.report_at(terms, T)) for T in Ts]


def test_reports_at_full_route_is_report_at_at_each_T(rb_atom,
                                                      material_broad):
    """Two temperatures on the full route, whose sums take one quadrature
    per term."""
    terms = potentials.distance_terms(rb_atom, "27S1/2", "26S1/2", material_broad,
                              Z, green_mode="full")
    Ts = (500.0, 50.0)
    assert [repr(r) for r in potentials.reports_at(terms, Ts)] == \
        [repr(potentials.report_at(terms, T)) for T in Ts]


def test_reports_at_fails_only_the_temperatures_that_fail(unit_terms):
    """At 0.1 K no j up to the cutoff stops the sum, and T = 0 has no
    Matsubara frequencies: those entries are report_at's errors, and the
    temperatures beside them are its reports.  A cutoff of 20 fails the
    cold sums and keeps the hot one, each as report_at does."""
    terms = unit_terms["material_broad"]
    for Ts, cutoff, kinds in (
            ((300.0, 0.1, 50.0, 0.0, 600.0), potentials.MATSUBARA_CUTOFF,
             ["ShiftReport", "ConvergenceFailure", "ShiftReport",
              "ZeroTemperature", "ShiftReport"]),
            ((600.0, 50.0, 3.0), 20,
             ["ShiftReport", "ConvergenceFailure", "ConvergenceFailure"])):
        got = potentials.reports_at(terms, Ts, cutoff)
        assert [type(g).__name__ for g in got] == kinds
        assert all(_same(g, _solo(terms, T, cutoff))
                   for g, T in zip(got, Ts))
    with pytest.raises(ps.ConvergenceFailure, match="cutoff=20000"):
        potentials.report_at(terms, 0.1)


def test_reports_at_rejects_a_bad_cutoff_or_temperature(unit_terms):
    terms = unit_terms["material_broad"]
    with pytest.raises(ValueError, match="cutoff must be >= 1"):
        potentials.reports_at(terms, (300.0,), 0)
    with pytest.raises(ValueError, match=r"T must lie in"):
        potentials.reports_at(terms, (300.0, math.nan))
    assert potentials.reports_at(terms, ()) == []


def test_reports_at_hands_each_T_its_solo_xis(monkeypatch, unit_terms):
    """For each temperature, the multiset of xi handed to
    reflection_imag_axis is the one its report_at hands over, so no sum
    evaluates a term its solo run does not; and the sums share one
    polarizability_iso call per pass, as many as the longest solo run
    makes."""
    terms = unit_terms["material_narrow"]
    # irrational ratios, so that no j xi_1 of one temperature is exactly
    # a j' xi_1 of another
    Ts = (600.0, 0.35, 30.0 * math.sqrt(2.0), 3.0 * math.sqrt(3.0), 600.0,
          10.0 * math.pi)
    xis, alphas = [], []
    reflection, alpha = potentials.reflection_imag_axis, \
        potentials.polarizability_iso

    def counted_reflection(m, xi):
        xis.append(xi)
        return reflection(m, xi)

    def counted_alpha(atom, n, xi):
        alphas.append(np.shape(xi))
        return alpha(atom, n, xi)

    monkeypatch.setattr(potentials, "reflection_imag_axis",
                        counted_reflection)
    monkeypatch.setattr(potentials, "polarizability_iso", counted_alpha)
    want, passes = {}, []
    for T in Ts:
        xis.clear()
        alphas.clear()
        potentials.report_at(terms, T)
        want.setdefault(T, Counter()).update(xis)
        passes.append(len(alphas))
    xis.clear()
    alphas.clear()
    potentials.reports_at(terms, Ts)
    assert len(alphas) == max(passes)
    # xi = 0, each sum's first term, is every temperature's; any other xi
    # is j xi_1 of exactly one of these temperatures
    got = {T: Counter() for T in want}
    for xi in xis:
        owners = [T for T in want if xi and round(xi / ps.matsubara_xi(T, 1))
                  * ps.matsubara_xi(T, 1) == xi]
        assert len(owners) == (1 if xi else 0)
        got[owners[0] if xi else Ts[0]][xi] += 1
    assert got[Ts[0]].pop(0.0) == sum(c.pop(0.0) for c in want.values())
    assert got == want


@pytest.mark.parametrize("cutoff, per_T", [(3, 4), (4, 5), (5, 6),
                                            (20000, 6)])
def test_nonretarded_line_is_one_term_call_per_request(monkeypatch,
                                                       unit_terms, cutoff,
                                                       per_T):
    """The nonretarded line hands the engine its exact tail and makes one
    term call for all the temperatures of a request: per T the head
    j = 0..min(4, cutoff) and, where cutoff > 4, the term at j = cutoff,
    one reflection_imag_axis call each."""
    Ts = (0.35, 3.0, 500.0)
    calls = Counter()
    reflection, engine = potentials.reflection_imag_axis, \
        potentials._matsubara_sums

    def counted_reflection(m, xi):
        calls["reflection"] += 1
        return reflection(m, xi)

    def counted_engine(term, *args, **kwargs):
        def counted_term(rows, j):
            calls["term"] += 1
            return term(rows, j)
        calls["tail"] += kwargs.get("tail") is not None
        return engine(counted_term, *args, **kwargs)

    monkeypatch.setattr(potentials, "reflection_imag_axis",
                        counted_reflection)
    monkeypatch.setattr(potentials, "_matsubara_sums", counted_engine)
    potentials.reports_at(unit_terms["material_broad"], Ts, cutoff)
    assert calls == {"reflection": per_T * len(Ts), "term": 1, "tail": 1}


def test_unknown_green_mode_rejected(toy_atom, material_toy):
    env = ps.Environment(z=Z, T=400.0)
    with pytest.raises(ValueError, match="unknown green_mode"):
        ps.nonresonant_shift_parts(toy_atom, "g", material_toy, env,
                                   green_mode="retarded")
    with pytest.raises(ValueError, match="unknown green_mode"):
        ps.u_eff(toy_atom, "e", "g", None, None, material_toy, env,
                 green_mode="retarded")


def test_nonresonant_full_green_route(toy_atom, material_toy):
    """Full-quadrature tensor route approaches the closed form as z -> 0."""
    env = ps.Environment(z=1e-8, T=400.0)
    mats_nr, photon_nr = ps.nonresonant_shift_parts(
        toy_atom, "g", material_toy, env)
    mats_fu, photon_fu = ps.nonresonant_shift_parts(
        toy_atom, "g", material_toy, env, green_mode="full")
    assert mats_fu == pytest.approx(mats_nr, rel=1e-5, abs=0)
    assert photon_fu == pytest.approx(photon_nr, rel=1e-3, abs=0)


def test_nonresonant_oriented_dipole_photon_line(material_toy):
    """A z-oriented dipole couples to G_zz alone in the photon line, on
    either Green route."""
    d = 1e-29
    atom = ps.AtomSpec(
        name="z-oriented two-level",
        states=(ps.AtomicState("g", 0.0), ps.AtomicState("e", 2.4e14)),
        dipoles=(ps.DipoleElement("g", "e", d, components=(0.0, 0.0, d)),))
    env = ps.Environment(z=1e-7, T=400.0)
    _, photon = ps.nonresonant_shift_parts(atom, "g", material_toy, env)
    w = 2.4e14
    rp = ps.reflection_nonretarded(material_toy, w)
    re_g_zz = 2.0 * C**2 / (32.0 * math.pi * w**2 * env.z**3) * rp.real
    want = MU0 * w * w * ps.thermal_occupation(w, env.T) * d * d * re_g_zz
    assert photon == pytest.approx(want, rel=1e-12, abs=0)

    near = ps.Environment(z=1e-8, T=400.0)
    _, photon_nr = ps.nonresonant_shift_parts(atom, "g", material_toy, near)
    _, photon_fu = ps.nonresonant_shift_parts(atom, "g", material_toy, near,
                                              green_mode="full")
    assert photon_fu == pytest.approx(photon_nr, rel=1e-3, abs=0)


def test_nonresonant_convergence_failure(toy_atom, material_toy):
    with pytest.raises(ps.ConvergenceFailure):
        ps.nonresonant_shift_parts(toy_atom, "g", material_toy,
                                   ps.Environment(z=Z, T=400.0), cutoff=3)


def test_nonresonant_cutoff_doubling_stable(toy_atom, material_toy):
    env = ps.Environment(z=Z, T=400.0)
    lo = sum(ps.nonresonant_shift_parts(toy_atom, "g", material_toy, env,
                                        cutoff=150))
    hi = sum(ps.nonresonant_shift_parts(toy_atom, "g", material_toy, env,
                                        cutoff=300))
    assert abs(hi - lo) <= 1e-6 * abs(hi)


def test_nonresonant_zero_temperature_limit(toy_atom, material_toy):
    """k_B T sum' approaches (hbar/2 pi) integral d xi as T -> 0."""
    mats, _ = ps.nonresonant_shift_parts(
        toy_atom, "g", material_toy, ps.Environment(z=Z, T=1.0),
        cutoff=200000)
    w10, d = 2.4e14, 1e-29

    def h(t):  # r_p(i omega t) / (1 + t^2), dimensionless
        eps = ps.permittivity_imag_axis(material_toy, w10 * t)
        return (eps - 1.0) / (eps + 1.0) / (1.0 + t * t)

    integral = d * d * quad(h, 0.0, np.inf, limit=400)[0]
    want = -(MU0 * C**2 / (12.0 * math.pi * HBAR * Z**3)) \
        * (HBAR / (2.0 * math.pi)) * integral
    assert mats == pytest.approx(want, rel=1e-2, abs=0)


def test_nonresonant_distance_scaling(toy_atom, material_toy):
    env1 = ps.Environment(z=Z, T=400.0)
    env2 = ps.Environment(z=2.0 * Z, T=400.0)
    near = sum(ps.nonresonant_shift_parts(toy_atom, "g", material_toy, env1))
    far = sum(ps.nonresonant_shift_parts(toy_atom, "g", material_toy, env2))
    assert near / far == pytest.approx(8.0, rel=1e-12)


# ---------------------------------------------------------------------------
# u_eff
# ---------------------------------------------------------------------------


def _ladder_for(modes, detune=0.0):
    """Three-level atom tuned to the mode pair: omega_10 = O1 - O2 - detune.

    The intermediate state sits above halfway so the two channel terms do
    not cancel.
    """
    lo, hi = modes
    omega_10 = hi.omega_center - lo.omega_center - detune
    omega_k = 0.65 * omega_10
    return ps.AtomSpec(
        name="ladder",
        states=(ps.AtomicState("lo", 0.0),
                ps.AtomicState("k", omega_k),
                ps.AtomicState("up", omega_10)),
        dipoles=(ps.DipoleElement("lo", "k", 2e-29),
                 ps.DipoleElement("k", "up", 3e-29)),
    )


def test_u_eff_golden_single_channel(golden, broad_modes):
    doc = golden["u_eff_single_channel"]
    inp = doc["inputs"]
    mode1 = ps.PolaritonMode(
        omega_center=inp["Omega1"], linewidth=inp["gamma1"],
        band_lo=inp["Omega1"] - 5 * inp["gamma1"],
        band_hi=inp["Omega1"] + 5 * inp["gamma1"],
        narrow=True, im_rp_peak=1.0)
    mode2 = ps.PolaritonMode(
        omega_center=inp["Omega2"], linewidth=inp["gamma2"],
        band_lo=inp["Omega2"] - 5 * inp["gamma2"],
        band_hi=inp["Omega2"] + 5 * inp["gamma2"],
        narrow=True, im_rp_peak=1.0)
    material = ps.load_material("tests/fixtures/material_toy.json")
    atom = ps.AtomSpec(
        name="golden channel",
        states=(ps.AtomicState("lo", 0.0),
                ps.AtomicState("k", inp["omega_k"]),
                ps.AtomicState("up", inp["omega_10"])),
        dipoles=(ps.DipoleElement("lo", "k", inp["d_0k"]),
                 ps.DipoleElement("k", "up", inp["d_k1"])),
    )
    env = ps.Environment(z=inp["z"], T=500.0)
    u = ps.u_eff(atom, "up", "lo", mode1, mode2, material, env,
                 resonance_tol=1e9)
    assert u == pytest.approx(doc["u_eff"], rel=1e-8, abs=0)


def test_u_eff_matches_direct_nonretarded_form(rb_atom, material_broad,
                                               broad_modes):
    lo, hi = broad_modes
    u = ps.u_eff(rb_atom, "27S1/2", "26S1/2", hi, lo, material_broad, ENV)
    direct = u_eff_nonretarded_form(rb_atom, "27S1/2", "26S1/2", hi, lo,
                                    material_broad, Z)
    assert u == pytest.approx(direct, rel=1e-12, abs=0)


def test_u_eff_full_green_close_to_nonretarded(rb_atom, material_broad,
                                               broad_modes):
    lo, hi = broad_modes
    u_nr = ps.u_eff(rb_atom, "27S1/2", "26S1/2", hi, lo, material_broad, ENV)
    u_fu = ps.u_eff(rb_atom, "27S1/2", "26S1/2", hi, lo, material_broad, ENV,
                    green_mode="full")
    assert u_fu == pytest.approx(u_nr, rel=1e-2, abs=0)


def test_u_eff_full_route_error_names_negative_im_trace(rb_atom,
                                                       material_broad,
                                                       broad_modes):
    """At 50 um the scattered Tr Im G of the full route is negative at both
    mode centers; the error states both values and the normalisation that
    needs them positive."""
    lo, hi = broad_modes
    with pytest.raises(ps.NoModeFound) as err:
        ps.u_eff(rb_atom, "27S1/2", "26S1/2", hi, lo, material_broad,
                 ps.Environment(z=50e-6, T=500.0), green_mode="full")
    msg = str(err.value)
    assert "-1347.38 m^-1 at Omega1 and -884.989 m^-1 at Omega2" in msg
    assert "green_mode='full', z=5e-05 m" in msg
    assert "sqrt(gamma1 gamma2 / (TrImG1 TrImG2)) needs both" in msg
    assert "lossless" not in msg


def test_u_eff_distance_scaling(broad_modes, material_broad):
    atom = _ladder_for(broad_modes)
    lo, hi = broad_modes
    near = ps.u_eff(atom, "up", "lo", hi, lo, material_broad,
                    ps.Environment(z=Z, T=500.0))
    far = ps.u_eff(atom, "up", "lo", hi, lo, material_broad,
                   ps.Environment(z=2.0 * Z, T=500.0))
    assert near / far == pytest.approx(8.0, rel=1e-12)


def test_u_eff_resonance_window(broad_modes, material_broad):
    lo, hi = broad_modes
    width = hi.linewidth + lo.linewidth
    inside = _ladder_for(broad_modes, detune=0.999 * width)
    ps.u_eff(inside, "up", "lo", hi, lo, material_broad, ENV)  # no raise
    outside = _ladder_for(broad_modes, detune=1.001 * width)
    with pytest.raises(ps.OffResonance):
        ps.u_eff(outside, "up", "lo", hi, lo, material_broad, ENV)
    # A wider multiplier admits the same detuning.
    ps.u_eff(outside, "up", "lo", hi, lo, material_broad, ENV,
             resonance_tol=1.5)


def test_u_eff_nan_resonance_tol_fails_closed(broad_modes, material_broad):
    exact = _ladder_for(broad_modes)
    lo, hi = broad_modes
    with pytest.raises(ps.OffResonance):
        ps.u_eff(exact, "up", "lo", hi, lo, material_broad, ENV,
                 resonance_tol=math.nan)


def test_u_eff_no_channels(toy_atom, material_broad, broad_modes):
    lo, hi = broad_modes
    with pytest.raises(ps.NoChannels):
        ps.u_eff(toy_atom, "e", "g", hi, lo, material_broad, ENV,
                 resonance_tol=1e9)


# ---------------------------------------------------------------------------
# resonant_shift
# ---------------------------------------------------------------------------


def test_resonant_shift_zero_at_zero_temperature(broad_modes):
    lo, hi = broad_modes
    assert ps.resonant_shift(1e-30, hi, lo, 0.0) == 0.0


def test_resonant_shift_is_u_times_factor(broad_modes):
    lo, hi = broad_modes
    u = 2.5e-30
    assert ps.resonant_shift(u, hi, lo, 500.0) == u * ps.thermal_factor(
        hi, lo, 500.0)


@pytest.mark.parametrize("temps", [(1.0, 50.0, 150.0, 350.0, 500.0, 600.0)])
def test_resonant_shift_monotone_in_T(broad_modes, temps):
    lo, hi = broad_modes
    values = [abs(ps.resonant_shift(1e-30, hi, lo, T)) for T in temps]
    assert all(a <= b for a, b in zip(values, values[1:]))


# ---------------------------------------------------------------------------
# resonant_shift_closed_form
# ---------------------------------------------------------------------------

CLOSED_KW = dict(
    omega_P1=40.0 * CM1, omega_P2=35.0 * CM1,
    Omega1=90.0 * CM1, Omega2=73.0 * CM1,
    gamma1=0.9 * CM1, z=Z,
)


def _channel(omega_0k, omega_k1, d0=2e-29, d1=3e-29):
    return ps.TransitionChannel(k_label="k", d_0k=d0, d_k1=d1,
                                omega_0k=omega_0k, omega_k1=omega_k1)


def test_closed_form_single_channel_verbatim():
    ch = _channel(-8.0 * CM1, -9.0 * CM1)
    got = ps.resonant_shift_closed_form(channels=[ch], **CLOSED_KW)
    # Independent transcription of the same formula.
    O1, O2 = CLOSED_KW["Omega1"], CLOSED_KW["Omega2"]
    g1 = CLOSED_KW["gamma1"]

    def w(x):
        return x / (x * x + g1 * g1 / 4.0)

    want = (-(MU0 * C**2 / (128.0 * math.pi * Z**3))
            * (CLOSED_KW["omega_P1"] * CLOSED_KW["omega_P2"]
               / math.sqrt(O1 * O2))
            * (5.0 * ch.d_0k * ch.d_k1 / 12.0)
            * (w(O1 + ch.omega_0k) - w(O1 + ch.omega_k1)))
    assert got == pytest.approx(want, rel=1e-12, abs=0)


def test_closed_form_halfway_cancellation():
    ch = _channel(-8.5 * CM1, -8.5 * CM1)
    assert ps.resonant_shift_closed_form(channels=[ch], **CLOSED_KW) == 0.0


def test_closed_form_continuity_near_halfway():
    eps = 1e-6 * CM1
    lo = ps.resonant_shift_closed_form(
        channels=[_channel(-8.5 * CM1 - eps, -8.5 * CM1 + eps)], **CLOSED_KW)
    hi = ps.resonant_shift_closed_form(
        channels=[_channel(-8.5 * CM1 + eps, -8.5 * CM1 - eps)], **CLOSED_KW)
    assert lo == pytest.approx(-hi, rel=1e-6, abs=0)
    assert abs(lo) < 1e-3 * abs(ps.resonant_shift_closed_form(
        channels=[_channel(-8.0 * CM1, -9.0 * CM1)], **CLOSED_KW))


def test_closed_form_shrinks_with_gamma1():
    ch = _channel(-8.0 * CM1, -9.0 * CM1)
    kw = dict(CLOSED_KW)
    values = []
    for g1 in (0.9 * CM1, 9.0 * CM1, 90.0 * CM1):
        kw["gamma1"] = g1
        values.append(abs(ps.resonant_shift_closed_form(channels=[ch], **kw)))
    assert values[0] > values[1] > values[2]


# ---------------------------------------------------------------------------
# mode attribution and pairing
# ---------------------------------------------------------------------------


def test_attribute_modes_pairs_in_order(material_broad, broad_modes):
    picks = ps.attribute_modes(material_broad, broad_modes)
    assert len(picks) == 2
    for mode, osc in zip(broad_modes, picks):
        assert osc.omega_T < mode.omega_center
    assert picks == list(material_broad.oscillators)


def test_attribute_modes_rejects_many_to_one(material_toy, broad_modes):
    # Both 73 and 90 cm^-1 modes sit above the toy material's single
    # oscillator: the pairing cannot be one-to-one.
    with pytest.raises(ps.ModeAttributionError):
        ps.attribute_modes(material_toy, broad_modes)


def test_find_resonant_pair(rb_atom, broad_modes):
    omega_10 = rb_atom.transition_frequency("27S1/2", "26S1/2")
    pair = ps.find_resonant_pair(broad_modes, omega_10)
    assert pair is not None
    mode1, mode2 = pair
    assert mode1.omega_center > mode2.omega_center
    assert mode1 is broad_modes[1] and mode2 is broad_modes[0]
    assert ps.find_resonant_pair(broad_modes[:1], omega_10) is None


# ---------------------------------------------------------------------------
# nonresonant_one_polariton
# ---------------------------------------------------------------------------


def test_one_polariton_verbatim_lines():
    omega_P, omega_T, gamma = 8e12, 1e13, 2e11
    d, omega_nu1 = 1e-29, 2.4e14   # upward transition from the ground state
    T = 400.0
    got = nonresonant_one_polariton(
        omega_P=omega_P, omega_T=omega_T, gamma_damp=gamma,
        transitions=[(d, omega_nu1)], z=Z, T=T)
    Omega = math.sqrt(omega_T**2 + omega_P**2 / 2.0)
    line1 = (-(MU0 * C**2 / (48.0 * math.pi * Z**3)) * (KB * T / HBAR)
             * omega_P**2 * d * d / (Omega**2 * omega_nu1))
    omega_1nu = -omega_nu1
    refl = (omega_P**2
            / (2.0 * (omega_T**2 - omega_1nu**2 - 1j * omega_1nu * gamma)
               + omega_P**2))
    line2 = (MU0 * C**2 / (24.0 * math.pi * Z**3)
             * ps.thermal_occupation(omega_nu1, T) * d * d * refl.real)
    assert got == pytest.approx(line1 + line2, rel=1e-12, abs=0)


def test_one_polariton_static_reflection_limit():
    # Gamma -> 0 and |omega_1nu| << omega_T: the Re[...] factor approaches
    # the static r_p = omega_P^2/(2 omega_T^2 + omega_P^2).
    omega_P, omega_T = 8e12, 1e13
    refl = omega_P**2 / (2.0 * (omega_T**2 - (1e10) ** 2) + omega_P**2)
    static = omega_P**2 / (2.0 * omega_T**2 + omega_P**2)
    assert refl == pytest.approx(static, rel=1e-5)
    m = ps.MaterialModel(
        "s", oscillators=(ps.Oscillator(omega_P=omega_P, omega_T=omega_T),))
    eps0 = ps.permittivity(m, 0.0).real
    assert static == pytest.approx((eps0 - 1.0) / (eps0 + 1.0), rel=1e-14)


def test_one_polariton_vanishes_at_low_temperature():
    kw = dict(omega_P=8e12, omega_T=1e13, gamma_damp=2e11,
              transitions=[(1e-29, 2.4e14)], z=Z)
    assert nonresonant_one_polariton(T=0.0, **kw) == 0.0
    cold = nonresonant_one_polariton(T=0.01, **kw)
    warm = nonresonant_one_polariton(T=400.0, **kw)
    assert abs(cold) < 1e-4 * abs(warm)


def test_one_polariton_dual_path_against_full_sum(toy_atom, material_toy):
    """One-polariton estimate vs the full Matsubara machinery on the same
    single-oscillator material: the difference is the j >= 1 tail (~0.1%)."""
    osc = material_toy.oscillators[0]
    env = ps.Environment(z=Z, T=400.0)
    full = sum(ps.nonresonant_shift_parts(toy_atom, "g", material_toy, env))
    estimate = nonresonant_one_polariton(
        omega_P=osc.omega_P, omega_T=osc.omega_T, gamma_damp=osc.gamma_damp,
        transitions=[(1e-29, 2.4e14)], z=Z, T=400.0)
    assert estimate == pytest.approx(full, rel=5e-3, abs=0)


# ---------------------------------------------------------------------------
# total_shift / ShiftReport
# ---------------------------------------------------------------------------


def test_total_shift_identity_and_meta(rb_atom, material_broad):
    rep = ps.total_shift(rb_atom, "27S1/2", "26S1/2", material_broad, ENV)
    assert rep.total == rep.nr_matsubara + rep.nr_resonant_photon \
        + rep.r_shift
    assert rep.r_shift == rep.u_eff * rep.thermal_factor
    assert rep.meta["n_modes"] == 2
    omega_10 = rb_atom.transition_frequency("27S1/2", "26S1/2")
    assert rep.meta["detuning"] == pytest.approx(
        rep.meta["Omega1"] - (omega_10 + rep.meta["Omega2"]), rel=1e-12)


def test_total_shift_accepts_precomputed_modes(rb_atom, material_broad,
                                               broad_modes):
    a = ps.total_shift(rb_atom, "27S1/2", "26S1/2", material_broad, ENV)
    b = ps.total_shift(rb_atom, "27S1/2", "26S1/2", material_broad, ENV,
                       modes=broad_modes)
    assert a.total == b.total and a.u_eff == b.u_eff


def test_total_shift_single_mode_material(toy_atom, material_toy):
    env = ps.Environment(z=Z, T=400.0)
    rep = ps.total_shift(toy_atom, "e", "g", material_toy, env)
    assert rep.r_shift == 0.0 and rep.u_eff == 0.0
    assert rep.total == rep.nr_matsubara + rep.nr_resonant_photon
    assert rep.meta["n_modes"] == 1


def test_total_shift_no_channels_note(material_broad):
    atom = ps.AtomSpec(
        "two-level", states=(ps.AtomicState("g", 0.0),
                             ps.AtomicState("e", 3.2e12)),
        dipoles=(ps.DipoleElement("g", "e", 1e-29),))
    rep = ps.total_shift(atom, "e", "g", material_broad, ENV)
    assert rep.r_shift == 0.0
    assert "no channels" in str(rep.meta.get("resonant_skipped", "")).lower()


def test_total_shift_off_resonance_propagates(rb_atom, material_broad):
    """Both amplitudes pass one resonance gate: OffResonance wins over
    NoChannels, so a no-channel atom out of the window still raises."""
    no_channels = ps.AtomSpec(
        "two-level", states=(ps.AtomicState("g", 0.0),
                             ps.AtomicState("e", 3.2e12)),
        dipoles=(ps.DipoleElement("g", "e", 1e-29),))
    cases = ((rb_atom, "27S1/2", "26S1/2", 1e-3),
             (no_channels, "e", "g", 1e-4))
    for atom, upper, lower, tol in cases:
        for closed in (False, True):
            with pytest.raises(ps.OffResonance):
                ps.total_shift(atom, upper, lower, material_broad, ENV,
                               resonance_tol=tol, use_closed_form=closed)


def test_total_shift_closed_form_variant(rb_atom, material_narrow):
    pipeline = ps.total_shift(rb_atom, "27S1/2", "26S1/2", material_narrow,
                              ENV)
    closed = ps.total_shift(rb_atom, "27S1/2", "26S1/2", material_narrow,
                            ENV, use_closed_form=True)
    assert closed.r_shift == pytest.approx(pipeline.r_shift, rel=0.1, abs=0)
    assert closed.nr_matsubara == pipeline.nr_matsubara


def test_total_shift_distance_scaling(rb_atom, material_broad):
    near = ps.total_shift(rb_atom, "27S1/2", "26S1/2", material_broad, ENV)
    far = ps.total_shift(rb_atom, "27S1/2", "26S1/2", material_broad,
                         ps.Environment(z=2.0 * Z, T=500.0))
    for field in ("nr_matsubara", "nr_resonant_photon", "u_eff", "r_shift",
                  "total"):
        assert getattr(near, field) / getattr(far, field) == pytest.approx(
            8.0, rel=1e-12)
    assert near.thermal_factor == far.thermal_factor


def _scaled_material(m, lam):
    return ps.MaterialModel(m.name, oscillators=tuple(
        ps.Oscillator(lam * o.omega_P, lam * o.omega_T, lam * o.gamma_damp)
        for o in m.oscillators))


def _scaled_atom(atom, lam):
    return ps.AtomSpec(atom.name, states=tuple(
        ps.AtomicState(s.label, lam * s.energy) for s in atom.states),
        dipoles=atom.dipoles)


def _assert_shift_scales_as_cube(atom, m, z, T, k, green_mode):
    """Every energy line of total_shift at (lam omega, lam T, z/lam) is
    lam^3 times its value at (omega, T, z) bit for bit, for lam = 2^k, and
    the thermal factor is unchanged: G goes as (1/z) times a function of
    omega z/c and eps, alpha(i xi) as 1/omega, and nbar, the Matsubara stop
    rule and the resonance window depend only on ratios, so every rounding
    scales by an exact power of two."""
    lam = 2.0**k
    base = ps.total_shift(atom, "27S1/2", "26S1/2", m,
                          ps.Environment(z=z, T=T), green_mode=green_mode)
    scaled = ps.total_shift(_scaled_atom(atom, lam), "27S1/2", "26S1/2",
                            _scaled_material(m, lam),
                            ps.Environment(z=z / lam, T=lam * T),
                            green_mode=green_mode)
    for line in potentials.ENERGY_LINES:
        assert getattr(scaled, line) == lam**3 * getattr(base, line), line
    assert scaled.thermal_factor == base.thermal_factor
    assert scaled.meta["Omega1"] == lam * base.meta["Omega1"]


@settings(max_examples=40, deadline=None)
@given(k=st.integers(-30, 25), broad=st.booleans(),
       z=st.floats(1e-7, 1e-5), T=st.floats(50.0, 600.0))
# (z/2)**3 != z**3/8 through libm pow at this z, so a cube taken as z**3
# misses lam^3 by one rounding in nr_matsubara
@example(k=1, broad=False, z=2.7635121522307025e-06, T=50.0)
def test_total_shift_scales_exactly_by_powers_of_two(rb_atom, material_broad,
                                                     material_narrow, k,
                                                     broad, z, T):
    """E(lam omega, lam T, z/lam) = lam^3 E(omega, T, z) bit for bit on the
    nonretarded route.  The draws stay inside the accepted ranges: z/lam
    lies in [3e-15, 1.1e4] m within Z_RANGE, lam T in [4.6e-8, 2e10] K
    below T_MAX, and the frequencies of atom and material (3.3e10 to
    4.6e13 rad/s in magnitude) in [31, 1.6e21] rad/s within OMEGA_RANGE."""
    m = material_broad if broad else material_narrow
    _assert_shift_scales_as_cube(rb_atom, m, z, T, k, "nonretarded")


@pytest.mark.parametrize("material, z, T, k", [
    ("material_broad", 5e-6, 500.0, 1),
    ("material_narrow", 2e-6, 400.0, -3),
    ("material_narrow", 2e-6, 400.0, 4),
])
def test_full_total_shift_scales_exactly_by_powers_of_two(request, rb_atom,
                                                          material, z, T, k):
    """The lam = 2^k law of the nonretarded route, bit for bit on the full
    route: the Matsubara terms come from green_full_imag_axis, the photon
    line from the real part of green_full and u_eff from its imaginary
    part, each quadrature in dimensionless variables."""
    _assert_shift_scales_as_cube(rb_atom, request.getfixturevalue(material),
                                 z, T, k, "full")


# ---------------------------------------------------------------------------
# The lam^3 law at lam = 3, where no rounding scales exactly
# ---------------------------------------------------------------------------

#: unit roundoff of a double
_U = 2.0**-53
#: the stopping rule of the mode finder's bounded minimiser
#: (material._bounded_minimum) ends within 2 (sqrt_eps |x| + xatol/3) of
#: the peak; find_polariton_modes passes xatol = 1e-13 r, r the Re eps = -1
#: crossing, and finds each half-maximum point to xtol + rtol |w| with
#: xtol = 1e-13 Omega and rtol = 8.9e-16
_SQRT_EPS, _XATOL, _XTOL, _RTOL = math.sqrt(2.2e-16), 1e-13, 1e-13, 8.9e-16
_LAM3_LINES = potentials.ENERGY_LINES + ("thermal_factor",)


def _flat_inputs(atom, m, z, T):
    """Every number total_shift reads, keyed by what it is."""
    x = {("E", s.label): s.energy for s in atom.states}
    x.update({("d", i): d.magnitude for i, d in enumerate(atom.dipoles)})
    x.update({("osc", i, f): getattr(o, f) for i, o in enumerate(m.oscillators)
              for f in ("omega_P", "omega_T", "gamma_damp")})
    x["z"], x["T"] = z, T
    return x


def _shift_of(atom, m, x, modes=None):
    """total_shift of 27S -> 26S with the inputs x in place of atom's, m's
    and the environment's."""
    a = ps.AtomSpec(atom.name, states=tuple(
        ps.AtomicState(s.label, x["E", s.label]) for s in atom.states),
        dipoles=tuple(dataclasses.replace(d, magnitude=x["d", i])
                      for i, d in enumerate(atom.dipoles)))
    mm = ps.MaterialModel(m.name, oscillators=tuple(
        ps.Oscillator(*(x["osc", i, f]
                        for f in ("omega_P", "omega_T", "gamma_damp")))
        for i in range(len(m.oscillators))))
    return ps.total_shift(a, "27S1/2", "26S1/2", mm,
                          ps.Environment(z=x["z"], T=x["T"]), modes=modes)


def _slopes(base, evaluate, h=1e-6):
    """|d ln L / d ln p| of every line L, by central differences, where
    evaluate(f) is the report with the one input p multiplied by f."""
    lo, hi = evaluate(1.0 - h), evaluate(1.0 + h)
    return {line: abs(getattr(hi, line) - getattr(lo, line))
            / (2.0 * h * abs(getattr(base, line))) for line in _LAM3_LINES}


@pytest.mark.parametrize("material, z, T", [
    ("material_broad", 1e-6, 500.0),
    ("material_narrow", 3e-7, 120.0),
])
def test_total_shift_follows_the_lam_cubed_law_at_lam_3(request, rb_atom,
                                                        material, z, T):
    """E(3 omega, 3 T, z/3) = 27 E(omega, T, z) for every line, to within
    what each evaluation is accurate to.

    At lam = 3 the scaled inputs round and so does every step, so the two
    evaluations differ by up to the sum of their errors: |L_3/27 - L_1| <=
    2 e_L |L_1|, where e_L bounds one evaluation's relative error.  e_L adds
    the tolerances of the algorithms to the rounding:

    * the Matsubara sum stops once |t_j| j <= MATSUBARA_TOL max_i |S_i|,
      which bounds its tail by the same amount (the terms fall at least as
      j^-2), and max_i |S_i| <= sum_j |t_j|; so nr_matsubara, and total
      through it, is off by at most MATSUBARA_TOL sum_j |t_j| / |S| of the
      line;
    * each mode centre lies within tol2 = 2 (sqrt_eps Omega + xatol/3) of
      the peak, with xatol = 1e-13 r and r < 2 Omega, so it is the
      minimiser's sqrt_eps = 1.5e-8, not xatol, that sets the bound; each
      half-maximum point lies within xtol + rtol (Omega + gamma) of its
      root, and a peak height misread at a centre tol2 away moves both
      points by at most 2 tol2^2 / gamma (a Lorentzian top); these move
      u_eff, the thermal factor and the lines built on them through their
      slopes in Omega and gamma;
    * the photon line reads the closed-form G, with no tolerance;
      QUAD_REL_TOL bounds the full route's quadratures only, which this
      route never runs;
    * rounding: each input (state energies, dipoles, oscillator
      parameters, z, T) meets at most 16 roundings before it enters a sum
      of at most n terms (the Matsubara terms to the stop, the transitions
      and the channels), whose additions round n more times, so to first
      order a line is off by (16 + n) u sum_x |d ln L / d ln x|.
    """
    m = request.getfixturevalue(material)
    base = ps.total_shift(rb_atom, "27S1/2", "26S1/2", m,
                          ps.Environment(z=z, T=T))
    scaled = ps.total_shift(
        _scaled_atom(rb_atom, 3.0), "27S1/2", "26S1/2",
        _scaled_material(m, 3.0), ps.Environment(z=z / 3.0, T=3.0 * T))

    # the Matsubara sum's terms to its stopping j
    term = _mats_term(rb_atom, "27S1/2", m, ps.Environment(z=z, T=T))
    total, stop = matsubara_sum_reference(term, potentials.MATSUBARA_CUTOFF)
    t = np.abs(term(np.arange(stop + 1)))
    t[0] *= 0.5
    mats_err = potentials.MATSUBARA_TOL * t.sum() / abs(total) \
        * abs(base.nr_matsubara)
    n = stop + len(ps.transitions_from(rb_atom, "27S1/2")) \
        + len(ps.channels(rb_atom, "27S1/2", "26S1/2"))

    # rounding: the slopes in every input; the modes depend on the
    # oscillators alone, so only those re-run the mode finder
    modes = ps.find_polariton_modes(m)
    x = _flat_inputs(rb_atom, m, z, T)
    kappa = dict.fromkeys(_LAM3_LINES, 0.0)
    for key in x:
        def evaluate(f, key=key):
            return _shift_of(rb_atom, m, {**x, key: x[key] * f},
                             None if key[0] == "osc" else modes)
        for line, s in _slopes(base, evaluate).items():
            kappa[line] += s

    # the mode finder: the slopes in each centre and width, times the
    # bound on how far one run places it
    err = {line: (16 + n) * _U * kappa[line] for line in _LAM3_LINES}
    err["nr_matsubara"] += mats_err / abs(base.nr_matsubara)
    err["total"] += mats_err / abs(base.total)
    for i, mode in enumerate(modes):
        omega, gamma = mode.omega_center, mode.linewidth
        tol2 = 2.0 * (_SQRT_EPS * omega + _XATOL * 2.0 * omega / 3.0)
        moves = {
            "omega_center": tol2 / omega,
            "linewidth": (2.0 * (_XTOL * omega + _RTOL * (omega + gamma))
                          + 4.0 * tol2 * tol2 / gamma) / gamma,
        }
        for field, move in moves.items():
            def evaluate(f, i=i, field=field):
                moved = list(modes)
                moved[i] = dataclasses.replace(
                    mode, **{field: getattr(mode, field) * f})
                return ps.total_shift(rb_atom, "27S1/2", "26S1/2", m,
                                      ps.Environment(z=z, T=T), modes=moved)
            for line, s in _slopes(base, evaluate).items():
                err[line] += s * move

    for line in _LAM3_LINES:
        want = getattr(base, line) * (1.0 if line == "thermal_factor"
                                      else 27.0)
        assert abs(getattr(scaled, line) - want) \
            <= 2.0 * err[line] * abs(want), line


def test_each_line_asks_green_full_for_the_part_it_reads(rb_atom,
                                                         material_broad,
                                                         broad_modes,
                                                         monkeypatch):
    """On the full route the photon line integrates only Re G, at each
    |omega_kn| in one green_full call, and u_eff only Im G, at the two mode
    centres in one call; distance_terms asks for both in one call, with
    one part per omega."""
    calls = []
    full = potentials.green_full

    def recorded(m, z, omega, *, part=None):
        calls.append((list(part), list(omega)))
        return full(m, z, omega, part=part)

    monkeypatch.setattr(potentials, "green_full", recorded)
    ps.nonresonant_shift_parts(rb_atom, "27S1/2", material_broad, ENV,
                               green_mode="full")
    omegas = [abs(w) for _, w, _ in ps.transitions_from(rb_atom, "27S1/2")]
    assert len(set(omegas)) == len(omegas) == 10
    assert calls == [(["real"] * 10, omegas)]
    calls.clear()
    lo, hi = broad_modes
    ps.u_eff(rb_atom, "27S1/2", "26S1/2", hi, lo, material_broad, ENV,
             green_mode="full")
    centres = [hi.omega_center, lo.omega_center]
    assert calls == [(["imag"] * 2, centres)]
    calls.clear()
    potentials.distance_terms(rb_atom, "27S1/2", "26S1/2", material_broad,
                              ENV.z, "full")
    assert calls == [(["real"] * 10 + ["imag"] * 2, omegas + centres)]


def test_nonretarded_route_never_reaches_green_full(rb_atom, material_broad,
                                                    monkeypatch):
    def unreachable(*args, **kwargs):
        raise AssertionError("green_full called on the nonretarded route")

    monkeypatch.setattr(potentials, "green_full", unreachable)
    monkeypatch.setattr(potentials, "green_full_imag_axis", unreachable)
    for closed in (False, True):
        rep = ps.total_shift(rb_atom, "27S1/2", "26S1/2", material_broad, ENV,
                             use_closed_form=closed)
        assert rep.u_eff and rep.nr_resonant_photon


@pytest.mark.parametrize("z", [1e-15, 1e-6, 1e15])
@pytest.mark.parametrize("closed", [False, True])
def test_total_shift_identities_exact_at_any_distance(rb_atom,
                                                     material_broad, z,
                                                     closed):
    rep = ps.total_shift(rb_atom, "27S1/2", "26S1/2", material_broad,
                         ps.Environment(z=z, T=500.0),
                         use_closed_form=closed)
    assert rep.r_shift == rep.u_eff * rep.thermal_factor
    assert rep.total == rep.nr_matsubara + rep.nr_resonant_photon \
        + rep.r_shift
    assert rep.meta["z"] == z
    assert all(math.isfinite(getattr(rep, line)) and getattr(rep, line)
               for line in potentials.ENERGY_LINES)


def test_nonretarded_report_is_the_unit_report_moved(rb_atom,
                                                     material_broad):
    """The nonretarded total_shift is its report at UNIT_Z moved by
    at_distance, bit for bit; at UNIT_Z itself the move changes nothing."""
    unit = ps.total_shift(rb_atom, "27S1/2", "26S1/2", material_broad,
                          ps.Environment(z=potentials.UNIT_Z, T=500.0))
    assert unit.at_distance(potentials.UNIT_Z) == unit
    for z in (1e-15, 3e-7, 1e15):
        rep = ps.total_shift(rb_atom, "27S1/2", "26S1/2", material_broad,
                             ps.Environment(z=z, T=500.0))
        assert rep == unit.at_distance(z)


def test_at_distance_needs_a_nonretarded_unit_report(rb_atom,
                                                      material_broad):
    rep = ps.total_shift(rb_atom, "27S1/2", "26S1/2", material_broad, ENV)
    with pytest.raises(ValueError):
        rep.at_distance(2.0 * Z)
    full = potentials.ShiftReport(
        1.0, 1.0, 1.0, 1.0, 1.0, 3.0,
        meta={"z": potentials.UNIT_Z, "green_mode": "full"})
    with pytest.raises(ValueError):
        full.at_distance(2.0 * Z)


@pytest.mark.parametrize("green_mode, z", [("nonretarded", potentials.UNIT_Z),
                                           ("full", Z)])
@pytest.mark.parametrize("closed", [False, True])
def test_total_shift_with_distance_terms_is_total_shift(
        rb_atom, material_broad, broad_modes, green_mode, z, closed):
    """The T-free half evaluated once and reported at each T by report_at
    (moved by at_distance on the nonretarded route) gives the report
    total_shift evaluates itself, at every T."""
    kw = {"green_mode": green_mode, "use_closed_form": closed}
    terms = potentials.distance_terms(rb_atom, "27S1/2", "26S1/2",
                                      material_broad, z, modes=broad_modes,
                                      **kw)
    for T in (350.0, 500.0):
        rep = potentials.report_at(terms, T)
        if green_mode == "nonretarded":
            rep = rep.at_distance(Z)
        assert rep == ps.total_shift(rb_atom, "27S1/2", "26S1/2",
                                     material_broad, ps.Environment(z=Z, T=T),
                                     **kw)


def test_total_shift_raises_matsubara_then_photon_then_resonant_errors(
        rb_atom, material_broad, broad_modes, monkeypatch):
    """The T-free half holds the photon line's and the resonant line's
    errors, and every T raises the first of: a Matsubara error
    (ConvergenceFailure at cutoff 3), the photon line's (a PoleHit from G
    at a transition frequency), the resonant line's (OffResonance with a
    zero window); report_at of the terms and total_shift alike."""
    real = potentials.green_nonretarded
    photon_omegas = {abs(w) for _, w, _ in
                     ps.transitions_from(rb_atom, "27S1/2")}

    def failing(m, z, omega):
        if omega in photon_omegas:
            raise ps.PoleHit("G at a transition frequency")
        return real(m, z, omega)

    def raised(cutoff):
        terms = potentials.distance_terms(
            rb_atom, "27S1/2", "26S1/2", material_broad, potentials.UNIT_Z,
            resonance_tol=0.0, modes=broad_modes)
        with pytest.raises(ps.PhysicsError) as err:
            potentials.report_at(terms, ENV.T, cutoff).at_distance(ENV.z)
        yield type(err.value)
        with pytest.raises(ps.PhysicsError) as err:
            ps.total_shift(rb_atom, "27S1/2", "26S1/2", material_broad, ENV,
                           cutoff=cutoff, resonance_tol=0.0, modes=broad_modes)
        yield type(err.value)

    assert set(raised(3)) == {ps.ConvergenceFailure}
    assert set(raised(20000)) == {ps.OffResonance}
    monkeypatch.setattr(potentials, "green_nonretarded", failing)
    assert set(raised(3)) == {ps.ConvergenceFailure}
    assert set(raised(20000)) == {ps.PoleHit}


def test_total_shift_trace_error_names_the_requested_distance(
        rb_atom, broad_modes):
    """On an undamped material Im r_p vanishes at the mode centres; the
    error of the nonretarded total_shift names the z asked for, not the
    distance the report is evaluated at."""
    undamped = ps.material_from_dict({
        "name": "undamped pair",
        "oscillators": [
            {"omega_P": 53.4, "omega_T": 65.0, "gamma": 0.0,
             "unit": "cm^-1"},
            {"omega_P": 33.3, "omega_T": 85.0, "gamma": 0.0,
             "unit": "cm^-1"},
        ]})
    with pytest.raises(ps.NoModeFound) as err:
        ps.total_shift(rb_atom, "27S1/2", "26S1/2", undamped,
                       ps.Environment(z=3e-7, T=500.0), modes=broad_modes)
    msg = str(err.value)
    assert "green_mode='nonretarded', z=3e-07 m" in msg
    assert "z=1 m" not in msg


def test_total_shift_sums_matsubara_once_on_the_no_mode_path(rb_atom,
                                                              monkeypatch):
    """With no modes= the undamped pair raises NoModeFound from the mode
    finder; total_shift still runs the Matsubara sum once, as one
    nonresonant_shift_parts call at the same point does."""
    undamped = ps.material_from_dict({
        "name": "undamped pair",
        "oscillators": [
            {"omega_P": 53.4, "omega_T": 65.0, "gamma": 0.0,
             "unit": "cm^-1"},
            {"omega_P": 33.3, "omega_T": 85.0, "gamma": 0.0,
             "unit": "cm^-1"},
        ]})
    env = ps.Environment(z=1e-6, T=0.35)
    calls = []
    real = potentials.reflection_imag_axis

    def counted(m, xi):
        calls.append(xi)
        return real(m, xi)

    monkeypatch.setattr(potentials, "reflection_imag_axis", counted)
    ps.nonresonant_shift_parts(rb_atom, "27S1/2", undamped, env)
    once = len(calls)
    calls.clear()
    with pytest.raises(ps.NoModeFound):
        ps.total_shift(rb_atom, "27S1/2", "26S1/2", undamped, env)
    assert once > 4 and len(calls) == once


def test_total_shift_finds_modes_once_on_the_no_mode_path(rb_atom,
                                                          monkeypatch):
    """A NoModeFound of the mode finder names no distance, so total_shift
    does not evaluate the temperature-free half again at env.z: one mode
    finder call and one Green tensor per transition of 27S1/2 (10)."""
    undamped = ps.material_from_dict({
        "name": "undamped pair",
        "oscillators": [
            {"omega_P": 53.4, "omega_T": 65.0, "gamma": 0.0,
             "unit": "cm^-1"},
            {"omega_P": 33.3, "omega_T": 85.0, "gamma": 0.0,
             "unit": "cm^-1"},
        ]})
    calls = []

    def counted(name):
        real = getattr(potentials, name)

        def f(*args, **kwargs):
            calls.append(name)
            return real(*args, **kwargs)
        monkeypatch.setattr(potentials, name, f)

    counted("find_polariton_modes")
    counted("green_nonretarded")
    with pytest.raises(ps.NoModeFound, match="no resolvable interior"):
        ps.total_shift(rb_atom, "27S1/2", "26S1/2", undamped,
                       ps.Environment(z=1e-6, T=300.0))
    assert calls.count("find_polariton_modes") == 1
    assert calls.count("green_nonretarded") == 10


@pytest.mark.parametrize("T", [math.nan, math.inf, 1e300, -1.0])
def test_report_at_rejects_temperatures_outside_range(rb_atom,
                                                      material_broad,
                                                      broad_modes, T):
    terms = potentials.distance_terms(rb_atom, "27S1/2", "26S1/2",
                                      material_broad, potentials.UNIT_Z,
                                      modes=broad_modes)
    with pytest.raises(ValueError, match=r"T must lie in \[0, 1e\+15\] K"):
        potentials.report_at(terms, T)
    with pytest.raises(ps.ZeroTemperature):
        potentials.report_at(terms, 0.0)


@pytest.mark.parametrize("z", [-1e-6, math.nan, 0.0, 1e-200, 1e200])
def test_distance_terms_rejects_distances_outside_z_range(rb_atom,
                                                          material_broad,
                                                          broad_modes, z):
    with pytest.raises(ValueError, match=r"z must lie in \[1e-15, 1e\+15\] m"):
        potentials.distance_terms(rb_atom, "27S1/2", "26S1/2",
                                  material_broad, z, modes=broad_modes)


@pytest.mark.parametrize("z", [-1e-6, math.nan, 0.0, 1e-200, 1e200])
def test_at_distance_rejects_distances_outside_z_range(rb_atom,
                                                       material_broad,
                                                       broad_modes, z):
    unit = potentials.report_at(
        potentials.distance_terms(rb_atom, "27S1/2", "26S1/2",
                                  material_broad, potentials.UNIT_Z,
                                  modes=broad_modes), 500.0)
    with pytest.raises(ValueError, match=r"z must lie in \[1e-15, 1e\+15\] m"):
        unit.at_distance(z)


def test_report_unit_consistency(rb_atom, material_broad):
    rep = ps.total_shift(rb_atom, "27S1/2", "26S1/2", material_broad, ENV)
    doc = json.loads(json.dumps(rep.to_dict()))
    for field in ("nr_matsubara", "nr_resonant_photon", "u_eff", "r_shift",
                  "total"):
        entry = doc[field]
        assert entry["s^-1"] == pytest.approx(entry["J"] / HBAR, rel=1e-14)
        assert entry["Hz"] == pytest.approx(
            entry["s^-1"] / (2.0 * math.pi), rel=1e-14)
        assert entry["cm^-1"] == pytest.approx(
            entry["s^-1"] / CM1, rel=1e-14)
    assert doc["thermal_factor"] == rep.thermal_factor
