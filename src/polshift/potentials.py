"""Energy-shift formulas.

Nonresonant Casimir-Polder shift at finite temperature (Matsubara sum plus a
resonant-photon line), the resonant second-order atom-polariton amplitude
U_eff and its thermal weighting, the two-resonance closed form, and the
composed total.  Every line contracts the atom's dipoles with one scattered
Green tensor, chosen once per call through _green_route.

Conventions used throughout:

* omega_ab = omega_a - omega_b (signed transition frequencies);
* the thermal occupation in the resonant-photon line is evaluated at the
  signed transition frequency, so a downward transition (omega_kn < 0)
  contributes with weight -(nbar(|omega_kn|) + 1) -- emission plus stimulated
  emission -- while an upward transition contributes +nbar(omega_kn);
* the primed Matsubara sum takes the j = 0 term at half weight, and its
  integrand is evaluated in the analytically cancelled form (the 1/xi^2 of
  the Green tensor against the xi^2 prefactor), so there is no 0/0 at j = 0;
* energies are joules; reports carry s^-1 (E/hbar), Hz and cm^-1 alongside.
"""

import math
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .atoms import channels as atom_channels
from .atoms import polarizability_iso, transitions_from
from .errors import (ConvergenceFailure, ModeAttributionError, NoChannels,
                     NoModeFound, OffResonance, PhysicsError,
                     ZeroTemperature)
from .greens import green_full, green_full_imag_axis, green_nonretarded
from .material import (_imag_axis_rational, _roots, find_polariton_modes,
                       reflection_imag_axis)
from .units import C, HBAR, KB, MU0, cube, energy_report


#: the atom-surface distances (m) accepted: far wider than any physical
#: distance, and far inside the range where the z^-3 prefactors and the
#: z^-6 products of two Green tensors in U_eff stay finite and nonzero
#: (at 1e-60 m they overflow to a NaN report, at 1e60 m they vanish)
Z_RANGE = (1e-15, 1e15)


def valid_distance(z):
    """True when z lies in Z_RANGE (so nan and inf do not)."""
    return Z_RANGE[0] <= z <= Z_RANGE[1]


def _check_distance(z):
    """Raise ValueError unless valid_distance(z)."""
    if not valid_distance(z):
        raise ValueError(f"z must lie in [{Z_RANGE[0]:g}, {Z_RANGE[1]:g}] m")


#: the distance (m) at which the nonretarded route evaluates a report: every
#: line of it is exactly proportional to z^-3, so ShiftReport.at_distance
#: moves the one report at UNIT_Z to any z
UNIT_Z = 1.0


#: the highest temperature (K) accepted: far above any physical one, and far
#: below where the thermal factor sqrt[(nbar1+1) nbar2], which grows like
#: kT/(hbar Omega), overflows (between 1e150 and 1e160 K for the modes of
#: tests/fixtures/material_broad.json) or the Matsubara spacing xi_1 does
#: (1e300 K)
T_MAX = 1e15


def valid_temperature(T):
    """True when 0 <= T <= T_MAX (so nan and inf do not)."""
    return 0.0 <= T <= T_MAX


def _check_temperature(T):
    """Raise ValueError unless valid_temperature(T)."""
    if not valid_temperature(T):
        raise ValueError(f"T must lie in [0, {T_MAX:g}] K")


@dataclass(frozen=True)
class Environment:
    """Atom-surface distance z (m) and temperature T (K)."""

    z: float
    T: float

    def __post_init__(self):
        _check_distance(self.z)
        _check_temperature(self.T)


#: the ShiftReport fields that are energies (J), in report order; the JSON
#: report and the CSV row both list these and the thermal factor
ENERGY_LINES = ("nr_matsubara", "nr_resonant_photon", "u_eff", "r_shift",
                "total")


@dataclass
class ShiftReport:
    """Decomposed shift (all energies in J).

    total = nr_matsubara + nr_resonant_photon + r_shift holds exactly.
    """

    nr_matsubara: float
    nr_resonant_photon: float
    u_eff: float
    thermal_factor: float
    r_shift: float
    total: float
    meta: dict = field(default_factory=dict)

    def to_dict(self):
        doc = {line: energy_report(getattr(self, line))
               for line in ENERGY_LINES}
        doc["thermal_factor"] = self.thermal_factor
        if self.meta:
            doc["meta"] = dict(self.meta)
        return doc

    def lines_at(self, z3):
        """The ENERGY_LINES of this report with its three z^-3 lines
        (nr_matsubara, nr_resonant_photon and u_eff) divided by z3, and
        r_shift = u_eff * thermal_factor and total recomputed from them, so
        that both identities stay exact.  This is the one scaling
        arithmetic: at_distance builds its report from it, and a scan
        builds its rows from it with z3 = cube(z) taken once per z."""
        mats = self.nr_matsubara / z3
        photon = self.nr_resonant_photon / z3
        u = self.u_eff / z3
        r = u * self.thermal_factor
        return mats, photon, u, r, mats + photon + r

    def at_distance(self, z):
        """This report, evaluated at UNIT_Z on the nonretarded route, moved
        to the distance z: the lines_at cube(z), with the same thermal
        factor, which does not depend on z, and meta["z"] set to z.  A z
        outside Z_RANGE raises the ValueError of Environment.
        """
        if self.meta.get("z") != unit_distance(self.meta.get("green_mode")):
            raise ValueError("only a nonretarded report evaluated at UNIT_Z "
                             "can be moved to another distance")
        _check_distance(z)
        mats, photon, u, r, total = self.lines_at(cube(z))
        return ShiftReport(
            nr_matsubara=mats, nr_resonant_photon=photon, u_eff=u,
            thermal_factor=self.thermal_factor, r_shift=r, total=total,
            meta={**self.meta, "z": z})


def matsubara_xi(T, j):
    """Matsubara frequency xi_j = 2 pi j k_B T / hbar (rad/s), for a
    nonnegative integer j (an int or an integral float).  T outside
    [0, T_MAX] raises the ValueError of Environment."""
    _check_temperature(T)
    if T == 0:
        raise ZeroTemperature(
            "Matsubara frequencies are undefined at T = 0; "
            "use a zero-temperature integral instead")
    if not (j >= 0 and float(j).is_integer()):
        raise ValueError("j must be a nonnegative integer")
    return 2.0 * math.pi * j * KB * T / HBAR


def thermal_occupation(omega, T):
    """Bose-Einstein occupation nbar(omega, T) = 1/(exp(hbar omega/kT) - 1).

    Returns 0 for T = 0 (and -1 for omega < 0, the T -> 0 limit of the same
    expression).  For omega < 0 at T > 0 the formula itself evaluates to
    -(nbar(|omega|) + 1), which is exactly the weight needed for downward
    transitions in the resonant-photon line.  T outside [0, T_MAX] raises
    the ValueError of Environment.
    """
    _check_temperature(T)
    if not (omega > 0 or omega < 0):
        raise ValueError("omega must be nonzero")
    if T == 0:
        return 0.0 if omega > 0 else -1.0
    x = HBAR * omega / (KB * T)
    if x > 700.0:  # expm1 overflows near 709.78; nbar underflows to 0 anyway
        return 0.0
    return 1.0 / math.expm1(x)


#: relative accuracy target of the Matsubara tail stop rule
MATSUBARA_TOL = 1e-9

#: default largest j of the Matsubara sum (reaches down to about 0.3 K for
#: the Rb example of the README)
MATSUBARA_CUTOFF = 20000

#: every Matsubara sum's opening block is j = 0.._HEAD - 1, ending where
#: its stop rule can first stop it; an exact tail starts at j = _HEAD
_HEAD = 5


def _matsubara_sums(term, n, cutoff, flips=None):
    """n primed sums over j, advanced together, each with a power-law tail
    stop rule: a list of n entries, each the float value of its sum or the
    ConvergenceFailure of a sum that no j <= cutoff stops.

    It sums the full route's Matsubara line term by term; the nonretarded
    route's has an exact tail (_head_and_tail_sums).

    term(rows, j) gives the terms of the sums numbered rows (an integer
    array) at each j of the integer array j, as a (rows.size, j.size)
    array; the term at j = 0 enters at half weight.

    Terms decay like j^-p with p >= 2 for every integrand used here, so
    once |t_j| * j drops below MATSUBARA_TOL * |sum| the remaining tail is
    bounded by that same quantity (up to the 1/(p-1) < 1 factor).  Each sum
    stops at the first j >= _HEAD - 1 with

        |t_j| * j <= MATSUBARA_TOL * M_j,
        M_j = max(max_{i <= j} |S_i|, 1e-300),

    S_i being its partial sums, and fails if no j <= cutoff meets the rule.
    A term that vanishes, at a zero of alpha(i xi), meets the rule too.
    flips(rows, j), when given, tells for each sum numbered rows whether
    alpha(i xi) changes sign between xi_{j-1} and xi_{j+1}.  A hit at such
    a j < cutoff stops its sum only when j + 1 hits too, and the sum then
    stops at j + 1.  Where the terms' other factor keeps one sign
    (xi^2 Tr G(i xi) < 0 on the full route), a term is small near such a j
    only by passing through the zero, and a sum whose alpha keeps one sign
    evaluates no extra term.

    The sums share one schedule of j: the head j = 0.._HEAD - 1, where
    the rule can first stop them, in one term call, then one j per pass
    up to cutoff, since a longer block would run the full route's
    quadratures past the stopping j.  Each pass makes one term call on
    every sum still running, which on the full route is one evaluation
    of the imaginary-axis rule over all of the pass's xi; a sum leaves
    when it stops.  Each row adds its terms in order to its carried
    total, so the value and the stopping j are those of a term-by-term
    loop, and no term past the stopping j is evaluated.
    """
    rows, sums = np.arange(n), [None] * n
    held = np.zeros(n, dtype=bool)  # a hit at j - 1 waits for this j
    t = term(rows, np.arange(min(_HEAD, cutoff + 1)))
    t[:, 0] *= 0.5
    # + 0.0 makes a head of zeros +0.0, as a sum from 0 gives it; scale,
    # the running max of |S_i|, starts at the rule's floor 1e-300
    partial = np.add.accumulate(t, axis=1) + 0.0
    total = partial[:, -1]
    scale = np.maximum(np.abs(partial).max(axis=1), 1e-300)
    size = np.abs(t[:, -1])
    for j in range(_HEAD - 1, cutoff + 1):
        if j >= _HEAD:
            t = term(rows, np.array([j]))[:, 0]
            size, total = np.abs(t), total + t
            scale = np.maximum(scale, np.abs(total))
        hit = size * j <= MATSUBARA_TOL * scale
        if flips is not None and j < cutoff:
            wait = hit & ~held
            if wait.any():
                wait[wait] = flips(rows[wait], j)
            held = wait
            hit &= ~wait
        for row, s in zip(rows[hit].tolist(), total[hit].tolist()):
            sums[row] = s
        left = ~hit  # the rows still running
        if not left.any():
            break
        rows, total, scale = rows[left], total[left], scale[left]
        held = held[left]
    return [_cutoff_failure(cutoff) if s is None else s for s in sums]


def _head_and_tail_sums(term, tail, n, cutoff):
    """n primed sums over j, each its five-term head plus its exact tail,
    with _matsubara_sums' stop rule: a list of n entries, each the float
    value of its sum or the ConvergenceFailure of a sum that the rule
    would not stop by the cutoff.

    It sums the nonretarded route's Matsubara line with _nonretarded_tail's
    exact tail.  term(rows, j) is as _matsubara_sums takes it, and
    tail(rows, j) gives each sum's exact sum_{i >= j} t_i at each
    j >= _HEAD, laid out as term's.

    One term call reads the head j = 0.._HEAD - 1 and t_cutoff when
    cutoff >= _HEAD; a cutoff below _HEAD - 1, where the rule cannot
    stop, fails every sum once the call has read j = 0..cutoff, as
    _matsubara_sums does.  Every sum is S_{_HEAD - 1} plus its tail at
    _HEAD.  The rule is tested at j = _HEAD - 1, then once at j = cutoff
    with M_cutoff taken as max(M_{_HEAD - 1}, |S_cutoff|), S_cutoff being
    the sum less its tail at cutoff + 1.  Where the terms past the head
    keep one sign, that is the running max, since the partial sums run
    monotonically to S_cutoff, and |t_j| j first meets the rule past the
    summand's poles; so _matsubara_sums fails the same sums.  A NaN tail
    fails the test at the cutoff.
    """
    rows, j = np.arange(n), np.arange(min(_HEAD, cutoff + 1))
    t = term(rows, np.append(j, cutoff) if cutoff >= _HEAD else j)
    if cutoff < _HEAD - 1:
        return [_cutoff_failure(cutoff)] * n
    t[:, 0] *= 0.5
    size = np.abs(t)
    # + 0.0 makes a head of zeros +0.0, as a sum from 0 gives it
    partial = np.add.accumulate(t[:, :_HEAD], axis=1) + 0.0
    scale = np.maximum(np.abs(partial).max(axis=1), 1e-300)
    head, past = tail(rows, np.array([_HEAD, cutoff + 1])).T
    sums = partial[:, -1] + head
    done = size[:, _HEAD - 1] * (_HEAD - 1) <= MATSUBARA_TOL * scale
    if cutoff >= _HEAD:
        scale = np.maximum(scale, np.abs(sums - past))
        done |= size[:, -1] * cutoff <= MATSUBARA_TOL * scale
    return [s if ok else _cutoff_failure(cutoff)
            for s, ok in zip(sums.tolist(), done.tolist())]


def _cutoff_failure(cutoff):
    """The ConvergenceFailure of a sum that no j <= cutoff stops."""
    return ConvergenceFailure(
        f"Matsubara tail estimate exceeds "
        f"convergence_tol={MATSUBARA_TOL:g} at cutoff={cutoff}")


#: two poles of one transition's share of the summand closer than this,
#: relative to the larger, are linked, and each cluster of linked poles is
#: summed in Newton form (_pole_table).  As simple poles at a relative gap
#: d their residues lose about u/d^2 of the line (u = 2^-53): near a
#: double root of E, 0.011 apart, the line was 1.3e-11 off, beyond the
#: rounding bound of the closed form, and 0.11 apart 1.4e-14, within it
_POLE_SEP = 0.1

#: the largest |m| / size of each moment of the pole table that counts as
#: zero (_pole_table): about a thousand roundings of its coefficients,
#: where the fixtures' tables reach 2e-16
_MOMENT_TOL = 1e-13

#: B_2n / (2n) for n = 1..8, the coefficients of psi's asymptotic series
_PSI_SERIES = (1.0 / 12.0, -1.0 / 120.0, 1.0 / 252.0, -1.0 / 240.0,
               1.0 / 132.0, -691.0 / 32760.0, 1.0 / 12.0, -3617.0 / 8160.0)


def _digamma(z):
    """psi(z) over a complex array z with Re z >= 5 (up to rounding).

    Five steps of the recurrence psi(z) = psi(z + 1) - 1/z take the
    argument to w = z + 5, |w| >= 10, where the asymptotic series

        psi(w) = log w - 1/(2w) - sum_{n=1}^{8} B_2n / (2n w^2n)

    is cut after its w^-16 term; the next one, B_18/(18 w^18), is below
    3.1e-18, so each value is good to a few roundings of its terms.
    """
    shift = 1.0 / z
    for i in range(1, 5):
        shift = shift + 1.0 / (z + float(i))
    w = z + 5.0
    v = 1.0 / (w * w)
    series = 0.0
    for b in reversed(_PSI_SERIES):
        series = series * v + b
    return np.log(w) - 0.5 / w - v * series - shift


def _homogeneous(x):
    """h_0, h_1, h_2, ... without end: the complete homogeneous symmetric
    polynomials of the variables x_1..x_m on the last axis of the array x.
    Each step takes h_s(x_i..x_m) = h_s(x_{i+1}..x_m)
    + x_i h_{s-1}(x_i..x_m) from the last variable to the first, so that
    at m = 2, x = (u, v), it is h_s = v^s + u h_{s-1}."""
    g = [1.0] * x.shape[-1]  # g[i] = h_s(x_i..x_m)
    while True:
        yield g[0]
        below = 0.0
        for i in reversed(range(len(g))):
            below = g[i] = below + x[..., i] * g[i]


def _cluster_sum(a):
    """S(a_1..a_m) = sum_{n >= 0} prod_i 1/(n + a_i), m >= 2, over the last
    axis of a complex array a with every Re a_i >= 5 (up to rounding): the
    divided difference (-1)^m psi[a_1..a_m], at any spread, zero included.

    Ten terms of the sum take the arguments to A_i = a_i + 10,
    |A_i| >= 15, where Euler-Maclaurin gives the rest,

        sum_{n >= 0} f(n) = L + f(0)/2 + sum_{k=1}^{8} B_2k/(2k) S_2k,

    with f(t) = prod_i 1/(A_i + t), u_i = 1/A_i and S_2k =
    -f^(2k-1)(0)/(2k-1)! = prod_i u_i h_{2k-1}(u) (_homogeneous); the
    first term left out is below 5e-17 of L for m <= 5.  The integral
    L = (-1)^m log[A_1..A_m] is, with centre M = mean A_i and
    z_i = (M - A_i)/M, the divided difference of log's Taylor series,

        L = M^(1-m) sum_{s >= 0} h_s(z)/(s + m - 1),

    at m = 2 (2/(A + B)) atanh(y)/y, y = (B - A)/(A + B); no difference
    of nearby values is divided by a gap between them.  Its terms past
    s = n sum to at most C(n + m - 2, m - 2) rho^n/(1 - rho)^(m - 1)
    of the first, rho = max |z_i| < 1/2, and n is the first at which that
    falls below 2^-54.  For rho >= 1/2 the series would need too many
    terms, and L is (-1)^m sum_i log(A_i/M) / prod_{l != i} (A_i - A_l),
    NaN where two A_i coincide.
    """
    m = a.shape[-1]
    total = 0.0
    for i in range(10):
        total = total + 1.0 / np.prod(a + float(i), axis=-1)
    big = a + 10.0
    u = 1.0 / big
    series = 0.0
    for s, h in zip(range(2 * len(_PSI_SERIES)), _homogeneous(u)):
        if s % 2:
            series = series + _PSI_SERIES[s // 2] * h
    centre = big.mean(axis=-1)
    z = (centre[..., None] - big) / centre[..., None]
    spread = np.abs(z).max(axis=-1)
    rho = float(np.max(spread, where=spread < 0.5, initial=0.0))
    n = 1
    while math.comb(n + m - 2, m - 2) * rho**n \
            > 2.0**-54 * (1.0 - rho)**(m - 1):
        n += 1
    log_dd = 0.0
    for s, h in zip(range(n), _homogeneous(z)):
        log_dd = log_dd + h / float(s + m - 1)
    with np.errstate(divide="ignore", invalid="ignore"):
        gaps = big[..., :, None] - big[..., None, :] + np.eye(m)
        fractions = (-1)**m * (np.log(big / centre[..., None])
                               / gaps.prod(axis=-1)).sum(axis=-1)
    integral = np.where(spread < 0.5, log_dd / centre**(m - 1), fractions)
    return total + integral + np.prod(u, axis=-1) * (0.5 + series)


def _horner(p, x):
    """Horner's partial sums of the polynomial p (coefficients, highest
    power first) at the complex x, in Python complex arithmetic: all but
    the last are the coefficients of p's quotient by t - x, whose value at
    t is the divided difference p[t, x] = (p(t) - p(x))/(t - x), and
    p'(x) at t = x; the last is p(x)."""
    out, acc = [], 0j
    for coef in p:
        acc = acc * x + coef
        out.append(acc)
    return out


def _divided(p, nodes):
    """The divided differences p[c_i..c_K] of the polynomial p at the
    nodes c_1..c_K, for i = 1..K: p(c_K), then each p[c_i..c_K] the
    quotient of p by t - c_K, ..., t - c_{i+1} taken at c_i (0 once the
    quotients have run out of coefficients)."""
    out = []
    for node in reversed(nodes):
        *p, value = _horner(p, node) or [0j]
        out.append(value)
    return out[::-1]


def _newton(nodes, num, den):
    """The coefficients b_m = F[c_m..c_K], m = 1..K, of the Newton form of
    num/den about a cluster of its poles, the nodes c_1..c_K, with
    F = num/D and D den's quotient by each t - c_i (see _pole_table); all
    are lists."""
    d = den
    for node in nodes:
        d = _horner(d, node)[:-1]
    # column l of the Leibniz rule: D[c_i..c_l] for i <= l
    cols = [_divided(d, nodes[:l + 1]) for l in range(len(nodes))]
    b = [0j] * len(nodes)
    for i, top in reversed(list(enumerate(_divided(num, nodes)))):
        b[i] = (top - sum(cols[l][i] * b[l]
                          for l in range(i + 1, len(nodes)))) / cols[i][i]
    return b


class _PoleTable(NamedTuple):
    """The nonretarded Matsubara summand of one level on one material as
    partial fractions in x = xi/unit:

        f(xi) = scale * Re [sum_p residues_p / (x - p)
                            + sum_C sum_{m=2}^{K} b_m / prod_{i<=m} (x - c_i)].

    poles holds those of the 2 N_osc roots of E
    (material._imag_axis_rational) and of +-i w_k, one pair per transition,
    that lie on or above the real axis, with the residues left once the
    clusters are taken out; the residue of a pole above the axis is
    doubled, to stand for its conjugate too.  Then come c_1 and b_1 of
    each cluster C of near poles, whose nodes c_1..c_K and Newton
    coefficients b_1..b_K clusters holds (see _pole_table); the clusters
    are few, each listed with its conjugate.  The vacuum's table is
    empty."""

    unit: float
    scale: float
    poles: np.ndarray
    residues: np.ndarray
    clusters: tuple


def _pole_table(terms):
    """The _PoleTable of terms' Matsubara summand on the nonretarded route.

    In units of unit = max omega_T, with x = xi/unit, the summand
    alpha(i xi) xi^2 Tr G(i xi) is scale * h(x) with

        h(x) = sum_k h_k(x),  h_k(x) = c_k A(x) / ((x^2 + w_k^2) E(x)),

    c_k = omega_kn |d_nk|^2, w_k = |omega_kn|/unit, scale = -(2/(3 hbar))
    (c^2/(8 pi z^3))/unit^2 and r_p(i xi) = A/E.  Transition k's share h_k
    has a simple pole at each root p of E, with residue
    A(p)/E'(p) c_k/(p^2 + w_k^2), and at p = +-i w_k, with residue
    c_k A(p)/(2 p E(p)); the residues of the shares add at each root.

    Two poles of h_k within _POLE_SEP of each other (relative to the
    larger) would have residues that cancel to few digits.  They are
    linked, and each cluster c_1..c_K of h_k's poles that the links
    connect (in the order roots of E, +i w_k, -i w_k) is summed in Newton
    form,

        sum_{m=1}^{K} b_m / prod_{i<=m} (x - c_i),  b_m = F[c_m..c_K],

    with F = h_k prod_i (x - c_i) = N/D, N = c_k A and D the quotient of
    (x^2 + w_k^2) E by each x - c_i.  The Leibniz rule N[c_i..c_K] =
    sum_{l>=i} D[c_i..c_l] F[c_l..c_K] gives b_K = N(c_K)/D(c_K) and then
    each b_i from those after it (_newton), every divided difference of a
    polynomial a chain of Horner steps (_horner), so no difference of
    nearby values is formed; K = 2 is sigma/(x - s) + tau/((x - s)(x - t)).
    Every other pole keeps its simple residue.

    h falls as x^-4, so the moments m_0 = sum R_p + sum b_1 and
    m_1 = sum R_p p + sum (b_1 c_1 + b_2) vanish; each is checked against
    _MOMENT_TOL of the sum of the magnitudes of its terms, and a moment
    that fails (a non-finite coefficient does) raises ConvergenceFailure
    naming the cause.

    The table is one pass of Python complex arithmetic over the few roots
    and transitions; only the roots of E and a cluster's (x^2 + w_k^2) E
    come from numpy.  So its bits do not depend on numpy's SIMD
    kernels, and since every quantity is a ratio of frequencies or scales
    as c_k does, and Python's complex +, -, * and / scale exactly by 2^k,
    scaling all frequencies by 2^k leaves the poles and the nodes as they
    are bit for bit and scales the residues and each b_m by 2^k exactly.
    """
    if not terms.m.oscillators:  # the vacuum: r_p = 0
        none = np.zeros(0, dtype=complex)
        return _PoleTable(1.0, 0.0, none, none, ())
    trans = transitions_from(terms.atom, terms.upper)
    c = [w * d * d for _, w, d in trans]
    unit, a, e = _imag_axis_rational(terms.m)
    # A of degree 2 N_osc - 2 without the two zeros that pad it to E's
    # length, highest power first
    a = a[2:].tolist()
    wk = [abs(w) / unit for _, w, _ in trans]
    w2 = [w * w for w in wk]
    roots = [complex(p) for p in _roots(e).tolist()]
    iw = [complex(0.0, w) for w in wk]
    poles = roots + iw + [-p for p in iw]
    r, n = len(roots), len(wk)
    clusters = []
    # clustered[k]: the poles of transition k's share of h that lie in a
    # cluster, numbered as the share lists them: the roots, then r for
    # +i w_k and r + 1 for -i w_k
    clustered = [set() for _ in range(n)]
    sized = [(p, abs(p)) for p in poles]
    # near[i]: the indices into poles of those linked to root i
    near = [[j for j, (q, t) in enumerate(sized)
             if abs(p - q) <= _POLE_SEP * (s if s > t else t) and j != i]
            for i, (p, s) in enumerate(sized[:r])]
    for k in range(n) if any(near) else ():
        # the links of share k, between its poles poles[cols[i]]
        cols = [*range(r), r + k, r + n + k]
        index = {j: i for i, j in enumerate(cols)}
        links = [set() for _ in cols]
        for i, linked in enumerate(near):
            for j in linked:
                if j in index:
                    links[i].add(index[j])
                    links[index[j]].add(i)
        for i, linked in enumerate(links):
            if not linked or i in clustered[k]:
                continue
            members, todo = {i}, [i]
            while todo:
                grown = links[todo.pop()] - members
                members |= grown
                todo += grown
            nodes = [poles[cols[j]] for j in sorted(members)]
            den = np.polymul([1.0, 0.0, w2[k]], e).tolist()
            b = _newton(nodes, [c[k] * x for x in a], den)
            clusters.append((np.array(nodes), np.array(b)))
            clustered[k] |= members
    # E and E', highest power first
    e = e.tolist()
    de = [x * (len(e) - 1 - i) for i, x in enumerate(e[:-1])]
    # each kept pole and its residue; a root goes when it lies in a
    # cluster of every share, and otherwise the shares of the clusters
    # it lies in (those where it sits on i w_k among them) leave it
    kept = []
    for i, p in enumerate(roots):
        num, slope = _horner(a, p)[-1], _horner(de, p)[-1]
        shares = [k for k in range(n) if i not in clustered[k]]
        if shares:
            total = 0j
            for k in shares:
                total += c[k] / (p * p + w2[k])
            kept.append((p, num / slope * total))
    for k, p in enumerate(iw):
        res = c[k] * _horner(a, p)[-1] / (2.0 * p * _horner(e, p)[-1])
        for i, pole, value in ((r, p, res), (r + 1, -p, res.conjugate())):
            if i not in clustered[k]:
                kept.append((pole, value))
    first = [complex(nodes[0]) for nodes, _ in clusters]
    b1 = [complex(b[0]) for _, b in clusters]
    b2 = [complex(b[1]) for _, b in clusters]
    moments = ([res for _, res in kept] + b1,
               [res * p for p, res in kept]
               + [b * p for b, p in zip(b1, first)] + b2)
    if not all(abs(sum(parts)) <= _MOMENT_TOL * sum(map(abs, parts))
               for parts in moments):
        raise ConvergenceFailure(
            f"the moments of the Matsubara summand's pole table do "
            f"not vanish to _MOMENT_TOL={_MOMENT_TOL:g} of their size, "
            f"so its residues do not hold to rounding")
    # E has real coefficients, so its complex roots come in conjugate
    # pairs, with conjugate residues, as +-i w_k do: the upper member of
    # each pair, counted twice, gives the real part of the sum
    upper = [(p, 2.0 * res if p.imag > 0.0 else res)
             for p, res in kept if p.imag >= 0.0]
    scale = -(C**2 / (8.0 * math.pi * cube(terms.z))) \
        * (2.0 / (3.0 * HBAR)) / (unit * unit)
    return _PoleTable(unit, scale,
                      np.array([p for p, _ in upper] + first, dtype=complex),
                      np.array([res for _, res in upper] + b1, dtype=complex),
                      tuple(clusters))


def _nonretarded_xi2_trace(m, z, xi):
    """xi^2 Tr G(i xi) = -(c^2/(8 pi z^3)) r_p(i xi) of the closed form, with
    the 1/xi^2 of the tensor cancelled so that xi = 0 is regular, for an
    array of xi.  r_p is taken one xi at a time, so that each Matsubara term
    is one call into the material layer, the unit in which a traced run
    counts terms; a scalar call reads the material's coefficient table in
    floats and costs about half a microsecond on material_broad."""
    r_p = [reflection_imag_axis(m, x) for x in xi.tolist()]
    return -(C**2 / (8.0 * math.pi * cube(z))) * np.array(r_p)


def _full_xi2_trace(m, z, xi):
    """xi^2 Tr G(i xi) by quadrature, every nonzero xi of the array in one
    green_full_imag_axis call, one fixed-node rule over all of them; at
    xi = 0 retardation drops out and the closed form is the exact
    electrostatic limit."""
    static = xi == 0.0
    out = np.empty(xi.shape)
    out[static] = _nonretarded_xi2_trace(m, z, xi[static])
    moving = xi[~static]
    out[~static] = [x * x * g.trace.real for x, g in zip(
        moving.tolist(), green_full_imag_axis(m, z, moving))]
    return out


def _nonretarded_green(m, z, omegas, part):
    """The list of green_nonretarded's tensors at each omega of omegas.
    The closed form gives both parts of G at once, so it has no use for
    part."""
    return [green_nonretarded(m, z, w) for w in omegas]


def _nonretarded_tail(terms, xi1):
    """The exact tail of the nonretarded route's Matsubara sums, one per
    xi_1 of the array xi1, as _head_and_tail_sums takes it; a refused
    _pole_table raises its ConvergenceFailure.

    With the table of terms, x_1 = xi_1/unit and j >= _HEAD, the tail is

        sum_{i >= j} h(i x_1) = -(1/x_1) sum_p R_p psi(j - p/x_1)
            + sum_C sum_{m=2}^{K} (b_m/x_1^m) S(j - c_1/x_1, .., j - c_m/x_1),

    since the simple coefficients R_p sum to 0 and
    sum_{i >= j} 1/prod_{l<=m} (i x_1 - c_l) = S(j - c_1/x_1, ..)/x_1^m
    (_cluster_sum).  Every root of E lies in Re p <= 0 (passivity) and
    +-i w_k on the axis, so _digamma and _cluster_sum see Re >= _HEAD; and
    the arguments of a cluster of at most four poles, each within
    _POLE_SEP of a neighbour, spread at most 0.3 about their centre,
    where _cluster_sum takes its series.  Where x_1 is so small that psi
    overflows, the tail is NaN, and its sum fails.
    """
    table = _pole_table(terms)
    x1 = xi1 / table.unit

    def tail(rows, j):
        x = x1[rows, None, None]
        with np.errstate(all="ignore"):
            psi = _digamma(j[:, None] - table.poles / x)
            out = -(psi * table.residues).sum(axis=2).real / x1[rows, None]
            for nodes, b in table.clusters:
                for m in range(2, nodes.size + 1):
                    out = out + (b[m - 1] * _cluster_sum(
                        j[:, None] - nodes[:m] / x)).real \
                        / x1[rows, None]**m
            return table.scale * out
    return tail


def _green_route(green_mode):
    """(green, xi2_trace, tail, unit_z) of the "nonretarded" or "full"
    Green tensor.

    The one place a green_mode is resolved.  green(m, z, omegas, part=)
    takes a list of real omegas and the list of the part of G ("real" or
    "imag") that the caller reads at each: the full route integrates that
    part alone, and the closed form gives both anyway.  It returns the list
    of their GreenTensor3, or raises the PhysicsError that one call per
    omega would raise first; on the full route it is green_full, read here
    at each call, and every quadrature of the call runs in one lockstep.
    xi2_trace(m, z, xi) is xi^2 Tr G(i xi) for an array of xi, finite at
    xi = 0; on the full route one fixed-node rule serves all of them.
    tail(terms, xi1) is the exact tail of the Matsubara sums of reports_at,
    one per xi_1 of the array xi1, that _head_and_tail_sums adds after
    their five-term head (_nonretarded_tail); the full route has none, and
    _matsubara_sums runs its sums one j per pass.  unit_z is UNIT_Z where
    every line of a report scales exactly as z^-3, and None where
    retardation ties the lines to z.
    """
    if green_mode == "nonretarded":
        return _nonretarded_green, _nonretarded_xi2_trace, \
            _nonretarded_tail, UNIT_Z
    if green_mode == "full":
        return green_full, _full_xi2_trace, None, None
    raise ValueError(f"unknown green_mode {green_mode!r}")


def unit_distance(green_mode):
    """UNIT_Z when a green_mode report is evaluated there and moved to each
    z by ShiftReport.at_distance (the nonretarded route), None when it is
    evaluated at each z (the full route)."""
    return _green_route(green_mode)[3]


def _contract(dip_a, dip_b, wxx, wzz):
    """d_a . diag(wxx, wxx, wzz) . d_b: per axis when both DipoleElements
    have Cartesian components, else the orientation average
    |d_a||d_b| (2 wxx + wzz)/3."""
    if dip_a.components is not None and dip_b.components is not None:
        (ax, ay, az), (bx, by, bz) = dip_a.components, dip_b.components
        return (ax * bx + ay * by) * wxx + az * bz * wzz
    return dip_a.magnitude * dip_b.magnitude * (2.0 * wxx + wzz) / 3.0


def nonresonant_shift_parts(atom, n, m, env, cutoff=MATSUBARA_CUTOFF,
                            green_mode="nonretarded"):
    """Nonresonant shift of level n, returned as (matsubara, resonant_photon).

        mu0 kB T sum'_j alpha(i xi_j) xi_j^2 Tr G(i xi_j)
        + mu0 sum_k omega_kn^2 nbar(omega_kn) d_nk . Re G(|omega_kn|) . d_kn,

    with G the nonretarded closed form or the full quadrature, selected by
    green_mode; the photon line reads Re G alone, so the full route
    integrates only the real part there.  The primed sum runs to at most
    j = cutoff (>= 1) and raises ConvergenceFailure when its tail has not
    dropped below MATSUBARA_TOL.  The two lines are those of report_at on
    the photon line's terms with no mode pair.
    """
    terms = DistanceTerms(atom, n, m, env.z, green_mode,
                          _photon_terms(atom, n, m, env.z, green_mode)[0],
                          None, 0.0, {})
    rep = report_at(terms, env.T, cutoff)
    return rep.nr_matsubara, rep.nr_resonant_photon


def _photon_terms(atom, n, m, z, green_mode, centres=()):
    """The one Green call of a distance: (photon, tensors), photon the
    temperature-free factors of the photon line of level n at z,
    (omega_kn, omega_kn^2, d_nk . Re G(|omega_kn|) . d_kn) for every
    transition in transition order, and tensors the list of Im G at each
    frequency of centres; or (the PhysicsError a Green tensor raised,
    None).  The route's green takes every |omega_kn|, then every centre,
    in one call."""
    green = _green_route(green_mode)[0]
    trans = transitions_from(atom, n)
    omegas = [abs(w_kn) for _, w_kn, _ in trans] + list(centres)
    parts = ["real"] * len(trans) + ["imag"] * len(centres)
    try:
        gs = green(m, z, omegas, part=parts)
    except PhysicsError as exc:
        return exc, None
    photon = []
    for (k_label, w_kn, _), g in zip(trans, gs):
        dip = atom.dipole(n, k_label)
        photon.append((w_kn, w_kn * w_kn,
                       _contract(dip, dip, g.xx.real, g.zz.real)))
    return tuple(photon), gs[len(trans):]


def _lorentz_weight(x, gamma1):
    """x / (x^2 + gamma1^2/4) -- the detuning weight of the channel sum."""
    return x / (x * x + 0.25 * gamma1 * gamma1)


def _channel_sum(chans, omega1, gamma1, geom):
    """sum_k geom(ch) [W(Omega1 + omega_0k) - W(Omega1 + omega_k1)], the
    channel loop shared by u_eff and the closed form."""
    total = 0.0
    for ch in chans:
        total += geom(ch) * (_lorentz_weight(omega1 + ch.omega_0k, gamma1)
                             - _lorentz_weight(omega1 + ch.omega_k1, gamma1))
    return total


def _resonance_gate(atom, upper, lower, mode1, mode2, resonance_tol):
    """Channels of upper -> lower for a resonant amplitude on (mode1, mode2).

    Raises OffResonance unless Omega1 ~ omega_10 + Omega2 within
    resonance_tol*(gamma1+gamma2), then NoChannels when no intermediate state
    couples the two levels.
    """
    omega_10 = atom.transition_frequency(upper, lower)
    detuning = mode1.omega_center - (omega_10 + mode2.omega_center)
    window = resonance_tol * (mode1.linewidth + mode2.linewidth)
    if not abs(detuning) <= window:
        raise OffResonance(
            f"detuning {detuning:.6g} rad/s exceeds tolerance "
            f"{window:.6g} rad/s for Omega1 ~ omega_10 + Omega2")
    chans = atom_channels(atom, upper, lower)
    if not chans:
        raise NoChannels(
            f"no intermediate state couples {lower!r} and {upper!r}")
    return chans


def u_eff(atom, upper, lower, mode1, mode2, m, env,
          green_mode="nonretarded", resonance_tol=1.0):
    """Resonant second-order atom-polariton amplitude (J).

    Evaluates

        U = -(mu0 Omega1 Omega2 / 2)
            sqrt(gamma1 gamma2 / (Tr ImG(Omega1) Tr ImG(Omega2)))
            sum_k { Tr[ImG(O1) d_0k(x)d_k1 ImG(O2)] W(O1 + omega_0k)
                  - Tr[ImG(O1) d_k1(x)d_0k ImG(O2)] W(O1 + omega_k1) },

    with W(x) = x/(x^2 + gamma1^2/4), on the polariton pair (mode1, mode2)
    satisfying Omega1 ~ omega_10 + Omega2 within resonance_tol*(gamma1+gamma2).
    green_mode selects the Im G tensors (nonretarded closed form or full
    quadrature); the amplitude reads Im G alone, so the full route
    integrates only the imaginary part, at Omega1 and Omega2 in one call.
    """
    green = _green_route(green_mode)[0]
    chans = _resonance_gate(atom, upper, lower, mode1, mode2, resonance_tol)
    tensors = green(m, env.z, [mode1.omega_center, mode2.omega_center],
                    part=["imag", "imag"])
    return _amplitude(atom, upper, lower, chans, mode1, mode2, tensors,
                      green_mode)


def _amplitude(atom, upper, lower, chans, mode1, mode2, tensors, green_mode):
    """u_eff's amplitude on the channels chans from tensors, the Im G
    tensors at Omega1 and Omega2; a Tr Im G <= 0 raises NoModeFound."""
    o1, o2 = mode1.omega_center, mode2.omega_center
    g1, g2 = mode1.linewidth, mode2.linewidth
    t1, t2 = tensors
    tr1, tr2 = t1.im_trace, t2.im_trace
    if tr1 <= 0.0 or tr2 <= 0.0:
        raise NoModeFound(
            f"scattered Tr Im G is {tr1:.6g} m^-1 at Omega1 and {tr2:.6g} "
            f"m^-1 at Omega2 (green_mode={green_mode!r}); "
            "the normalisation sqrt(gamma1 gamma2 / (TrImG1 TrImG2)) needs "
            "both to be positive")
    wxx, wzz = t1.xx.imag * t2.xx.imag, t1.zz.imag * t2.zz.imag

    def geom(ch):
        return _contract(atom.dipole(lower, ch.k_label),
                         atom.dipole(ch.k_label, upper), wxx, wzz)

    pref = -0.5 * MU0 * o1 * o2 * math.sqrt(g1 * g2 / (tr1 * tr2))
    return pref * _channel_sum(chans, o1, g1, geom)


def thermal_factor(mode1, mode2, T):
    """sqrt[(nbar(Omega1) + 1) nbar(Omega2)]; zero at T = 0.  T outside
    [0, T_MAX] raises the ValueError of Environment."""
    if T == 0:
        return 0.0
    n1 = thermal_occupation(mode1.omega_center, T)
    n2 = thermal_occupation(mode2.omega_center, T)
    return math.sqrt((n1 + 1.0) * n2)


def resonant_shift(u, mode1, mode2, T):
    """Thermal resonant shift U_eff * sqrt[(nbar(Omega1)+1) nbar(Omega2)].

    Exactly zero at T = 0: the polariton at Omega2 must be thermally
    populated before the resonant exchange can happen.
    """
    return u * thermal_factor(mode1, mode2, T)


def resonant_shift_closed_form(*, omega_P1, omega_P2, Omega1, Omega2, gamma1,
                               channels, z):
    """Two-resonance closed form of the bare resonant amplitude (J).

        -(mu0 c^2 / (128 pi z^3)) (omega_P1 omega_P2 / sqrt(Omega1 Omega2))
        * sum_k (5 |d_0k| |d_k1| / 12)
              { W(Omega1+omega_0k) - W(Omega1+omega_k1) },

    W(x) = x/(x^2 + gamma1^2/4).  ``channels`` is an iterable of
    TransitionChannel (or anything with d_0k, d_k1, omega_0k, omega_k1).
    Like u_eff it carries no thermal weight; resonant_shift applies it.
    """
    if not z > 0:
        raise ValueError("z must be > 0")
    pref = -(MU0 * C**2 / (128.0 * math.pi * cube(z))) \
        * omega_P1 * omega_P2 / math.sqrt(Omega1 * Omega2)
    return pref * _channel_sum(channels, Omega1, gamma1,
                               lambda ch: 5.0 * ch.d_0k * ch.d_k1 / 12.0)


def attribute_modes(m, modes):
    """Pair each polariton mode with the material oscillator it belongs to.

    A mode at Omega is attributed to the oscillator with the largest
    omega_T below Omega (surface modes sit above their oscillator's
    transverse resonance).  Raises ModeAttributionError when the pairing is
    not one-to-one.
    """
    oscs = m.oscillators
    picks = []
    for mode in modes:
        below = [o for o in oscs if o.omega_T < mode.omega_center]
        if not below:
            raise ModeAttributionError(
                f"mode at {mode.omega_center:.6g} rad/s lies below every "
                "oscillator resonance")
        picks.append(max(below, key=lambda o: o.omega_T))
    if len({id(o) for o in picks}) != len(picks):
        raise ModeAttributionError(
            "two modes attribute to the same oscillator; "
            "closed form needs a one-to-one pairing")
    return picks


def find_resonant_pair(modes, omega_10):
    """Ordered mode pair (mode1, mode2) minimizing |Omega1-(omega_10+Omega2)|.

    Returns None when fewer than two modes are available.  Tolerance checks
    are left to the caller.
    """
    if len(modes) < 2:
        return None
    best = None
    for a in modes:
        for b in modes:
            if a is b:
                continue
            det = abs(a.omega_center - (omega_10 + b.omega_center))
            if best is None or det < best[0]:
                best = (det, a, b)
    return best[1], best[2]


@dataclass(frozen=True)
class DistanceTerms:
    """The temperature-free half of a total_shift report at the distance z,
    with the atom, upper level and material m that report_at reads to add
    a temperature, so that a report only ever combines these terms with
    the arguments they were evaluated for.

    photon holds the photon line's (omega_kn, omega_kn^2, d.Re G.d) of the
    upper level's transitions, in transition order, or the PhysicsError
    that the distance's Green call raised, which the report at every T
    raises after the Matsubara line's own errors; pair is the resonant
    mode pair, None when the resonant line is skipped (meta says why, but
    for nonresonant_shift_parts' terms, whose meta is empty); u_eff is the
    pair's amplitude (J), always a float: 0.0 when skipped or when photon
    holds an error; meta holds every report entry but z and T.
    """

    atom: object
    upper: str
    m: object
    z: float
    green_mode: str
    photon: object
    pair: object
    u_eff: float
    meta: dict


def distance_terms(atom, upper, lower, m, z, green_mode="nonretarded",
                   resonance_tol=1.0, use_closed_form=False, modes=None):
    """The DistanceTerms of total_shift at z: the photon line's factors, the
    mode pair and its amplitude, none of which depends on T.  The arguments
    are those of total_shift; z outside Z_RANGE raises the ValueError of
    Environment, and with modes=None the mode finder's error propagates.

    The resonant line is skipped, with r = 0 and the reason in
    meta["resonant_skipped"], when the material has fewer than two modes
    or when the pair raises a PhysicsError: the resonance gate's
    OffResonance or NoChannels, the closed form's ModeAttributionError, or
    the amplitude's NoModeFound where Tr Im G <= 0.  That reason is the
    error's type and text, as a scan's error column prints them.

    The mode pair and the resonance gate come first; then one call of the
    route's green takes Re G at every |omega_kn| of the photon line and,
    when the amplitude reads Green tensors, Im G at the pair's Omega1 and
    Omega2 after them, so on the full route every k_rho quadrature of the
    distance runs in one lockstep.  When that call raises, the photon line
    holds its error, the first in call order, and every report of the
    distance raises it.
    """
    _check_distance(z)
    _green_route(green_mode)  # an unknown green_mode raises here
    if modes is None:
        modes = find_polariton_modes(m)
    omega_10 = atom.transition_frequency(upper, lower)
    pair = find_resonant_pair(modes, omega_10)
    meta = {"upper": upper, "lower": lower, "omega_10": omega_10,
            "green_mode": green_mode, "n_modes": len(modes)}
    u, chans, skipped = 0.0, None, None
    if pair is None:
        meta["resonant_skipped"] = "fewer than two polariton modes"
    else:
        mode1, mode2 = pair
        meta.update({
            "Omega1": mode1.omega_center, "gamma1": mode1.linewidth,
            "Omega2": mode2.omega_center, "gamma2": mode2.linewidth,
            "detuning": mode1.omega_center - (omega_10 + mode2.omega_center),
        })
        try:
            chans = _resonance_gate(atom, upper, lower, mode1, mode2,
                                    resonance_tol)
            if use_closed_form:
                osc1, osc2 = attribute_modes(m, pair)
                u = resonant_shift_closed_form(
                    omega_P1=osc1.omega_P, omega_P2=osc2.omega_P,
                    Omega1=mode1.omega_center, Omega2=mode2.omega_center,
                    gamma1=mode1.linewidth, channels=chans, z=z)
        except PhysicsError as exc:
            skipped = exc
    # the channel sum still needs the pair's Green tensors
    amplitude = chans is not None and not use_closed_form
    photon, tensors = _photon_terms(
        atom, upper, m, z, green_mode,
        [mode.omega_center for mode in pair] if amplitude else ())
    if amplitude and tensors is not None:
        try:
            u = _amplitude(atom, upper, lower, chans, *pair, tensors,
                           green_mode)
        except NoModeFound as exc:
            skipped = exc
    if skipped is not None:
        pair, u = None, 0.0
        meta["resonant_skipped"] = f"{type(skipped).__name__}: {skipped}"
    return DistanceTerms(atom, upper, m, z, green_mode, photon, pair, u, meta)


def reports_at(terms, Ts, cutoff=MATSUBARA_CUTOFF):
    """The report_at(terms, T, cutoff) of each temperature of Ts, in order:
    the ShiftReport at (terms.z, T), or the PhysicsError it raises, which
    is never the resonant line's: terms.u_eff is a float.

    The Matsubara sums of all the temperatures T > 0 come from one call,
    over all the T together.  On the nonretarded route _nonretarded_tail
    builds the summand's _pole_table once, and _head_and_tail_sums sums
    the five-term head of every T in one term call, with one more term per
    T for the stop rule's test at the cutoff, and adds each T's exact
    tail; a refused table is every T's ConvergenceFailure.  The full route
    runs the engine, _matsubara_sums, on one schedule of j, each T with
    the value and stopping j it has alone; the head
    j = 1..4 of every T, and each later pass over every T still running,
    is one green_full_imag_axis call, one fixed-node rule over all of its
    xi.  There a stop at a j where alpha(i xi) changes sign waits for the
    next term (_matsubara_sums' flips).
    cutoff < 1, or a T outside [0, T_MAX], raises the ValueError of
    Environment for the whole call.
    """
    if cutoff < 1:
        raise ValueError("cutoff must be >= 1")
    Ts = tuple(Ts)
    for T in Ts:
        _check_temperature(T)
    sums = [0.0] * len(Ts)
    hot = [i for i, T in enumerate(Ts) if T > 0]
    if terms.photon and hot:
        xi1 = np.array([matsubara_xi(Ts[i], 1) for i in hot])
        xi2_trace, make_tail = _green_route(terms.green_mode)[1:3]

        def term(rows, j):
            xi = j * xi1[rows, None]
            trace = xi2_trace(terms.m, terms.z, xi.ravel()).reshape(xi.shape)
            return polarizability_iso(terms.atom, terms.upper, xi) * trace

        def flips(rows, j):
            alpha = polarizability_iso(terms.atom, terms.upper,
                                       np.array([j - 1, j + 1])
                                       * xi1[rows, None])
            return np.sign(alpha[:, 0]) != np.sign(alpha[:, 1])

        if make_tail is None:
            line = _matsubara_sums(term, xi1.size, cutoff, flips)
        else:
            try:
                tail = make_tail(terms, xi1)
            except ConvergenceFailure as exc:  # a refused pole table
                line = [exc] * xi1.size
            else:
                line = _head_and_tail_sums(term, tail, xi1.size, cutoff)
        for i, s in zip(hot, line):
            sums[i] = s
    return [_report_or_error(terms, T, s) for T, s in zip(Ts, sums)]


def _report_or_error(terms, T, s):
    """The ShiftReport at (terms.z, T), given the sum s of its Matsubara
    line, or the first PhysicsError: zero temperature, then the Matsubara
    line's (s itself), then the photon line's that terms holds.

    This is the one place a temperature enters a report, and the one body
    of the two nonresonant lines.
    """
    if T == 0:
        return ZeroTemperature("nonresonant shift is defined here for T > 0")
    if isinstance(s, PhysicsError):
        return s
    mats = photon = 0.0
    if terms.photon:
        mats = MU0 * KB * T * s
        if isinstance(terms.photon, PhysicsError):
            return terms.photon
        for w_kn, w2, c in terms.photon:
            photon += w2 * thermal_occupation(w_kn, T) * c
        photon *= MU0
    tf = 0.0 if terms.pair is None else thermal_factor(*terms.pair, T)
    r = terms.u_eff * tf
    return ShiftReport(
        nr_matsubara=mats, nr_resonant_photon=photon, u_eff=terms.u_eff,
        thermal_factor=tf, r_shift=r, total=mats + photon + r,
        meta={"z": terms.z, "T": T, **terms.meta})


def report_at(terms, T, cutoff=MATSUBARA_CUTOFF):
    """The ShiftReport at (terms.z, T): the Matsubara line, the photon line
    summed from terms, and the thermal factor that weights terms.u_eff.

    It is reports_at for the one temperature T, whose PhysicsError it
    raises: the Matsubara line's errors first, then the photon line's that
    terms holds.  A skipped resonant line (terms.pair None) gives u_eff =
    thermal_factor = r_shift = 0.  T outside [0, T_MAX] raises the
    ValueError of Environment.
    """
    (report,) = reports_at(terms, (T,), cutoff)
    if isinstance(report, PhysicsError):
        raise report.with_traceback(None)
    return report


def total_shift(atom, upper, lower, m, env, cutoff=MATSUBARA_CUTOFF,
                green_mode="nonretarded", resonance_tol=1.0,
                use_closed_form=False, modes=None):
    """Compose the nonresonant and resonant parts into a ShiftReport.

    The nonresonant part is the shift of the ``upper`` level.  The resonant
    part needs a polariton pair with Omega1 ~ omega_10 + Omega2.  Where
    distance_terms skips it (fewer than two modes, or an error of the pair
    such as OffResonance), u_eff = thermal_factor = r_shift = 0: the
    resonant process's absence at this order, not a computed value.  With
    use_closed_form=True the amplitude comes from the two-resonance closed
    form (modes paired one-to-one with oscillators) instead of the
    Green-tensor channel sum; both pass the same resonance gate.

    The report is report_at(distance_terms(...), env.T, cutoff), with one
    distance_terms per call.  On the nonretarded route it is evaluated at
    UNIT_Z and moved to env.z by ShiftReport.at_distance, so every z of a
    temperature runs the same arithmetic on the same unit-distance report.
    The full route evaluates at env.z.
    """
    terms = distance_terms(atom, upper, lower, m,
                           unit_distance(green_mode) or env.z, green_mode,
                           resonance_tol, use_closed_form, modes)
    report = report_at(terms, env.T, cutoff)
    return report if terms.z == env.z else report.at_distance(env.z)
