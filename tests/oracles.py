"""Reference formulas the cross-check tests compare the library against.

Each is written out from its own closed form, not through the library's
Green-tensor routes, so agreement is evidence rather than a tautology.
The serializers and the Lorentzian line shape at the end are used only by
round-trip and line-shape tests.
"""

import cmath
import math

import mpmath
import numpy as np

import polshift as ps
from polshift import material
from polshift.errors import SCHEMA_VERSION
from polshift.units import C, HBAR, KB, MU0


#: the tail tolerance of the oracle's stop rule, the library's
#: accuracy target restated
MATSUBARA_TOL = 1e-9


def matsubara_sum_reference(term, cutoff, tol=MATSUBARA_TOL):
    """(sum, stopping j) of the primed sum over j of term, a map of an
    integer array of j to its terms, by the term-by-term stop rule.

    term(0) enters at half weight; the sum stops at the first j >= 4 with
    |t_j| * j <= tol * max(max_{i <= j} |S_i|, 1e-300), S_i the partial
    sums, and raises ConvergenceFailure if no j <= cutoff meets the rule.
    The terms come in blocks j = 0..4, 5..14, 15..34, ..., each about
    twice the last, and np.add.accumulate adds each block in order from
    the carried total, so the sum is that of a loop over one term at a
    time, bit for bit, in few calls of term.
    """
    total, scale, lo = 0.0, 1e-300, 0
    while lo <= cutoff:
        j = np.arange(lo, min(2 * lo + 5, cutoff + 1))
        t = np.array(term(j), dtype=float)
        if lo == 0:
            t[0] *= 0.5
        partial = np.add.accumulate(np.append(total, t))[1:]
        running = np.maximum(np.maximum.accumulate(np.abs(partial)), scale)
        hit = (np.abs(t) * j <= tol * running) & (j >= 4)
        if hit.any():
            return float(partial[hit.argmax()]), int(j[hit.argmax()])
        total, scale, lo = partial[-1], running[-1], lo + j.size
    raise ps.ConvergenceFailure(
        f"Matsubara tail estimate exceeds convergence_tol={tol:g} "
        f"at cutoff={cutoff}")


def lorentz_weight(x, gamma1):
    """W(x) = x / (x^2 + gamma1^2/4), the detuning weight of a channel."""
    return x / (x * x + 0.25 * gamma1 * gamma1)


def tensor_to_jsonable(g):
    """GreenTensor3 entries (xx, zz) as [re, im] pairs."""
    return [[float(c.real), float(c.imag)] for c in g]


def nonresonant_parts_per_transition(atom, n, m, env, dps=40):
    """Nonretarded (matsubara, resonant_photon) from the per-transition
    z^-3 closed form:

        -(mu0 c^2 kB T)/(12 pi hbar z^3) * sum_k |d_nk|^2 *
            sum'_j [omega_kn/(omega_kn^2+xi_j^2)] (eps(i xi_j)-1)/(eps(i xi_j)+1)
        + (mu0 c^2)/(24 pi z^3) * sum_k nbar(omega_kn) |d_nk|^2 Re r_p(|omega_kn|)

    Each transition's primed sum over j is exact: its own partial
    fractions at dps digits (_matsubara_partial_fractions), summed with
    mpmath.digamma, which is sum'_j h_k(j x_1) / W^2 in the units there.
    Valid for isotropic dipoles (no Cartesian components).
    """
    trans = ps.transitions_from(atom, n)
    z, T = env.z, env.T
    w, parts = _matsubara_partial_fractions(atom, n, m, dps)
    with mpmath.workdps(dps):
        x1 = 2 * mpmath.pi * mpmath.mpf(KB) * T / mpmath.mpf(HBAR) / w
        sums = mpmath.fsum(mpmath.re(_primed_sum(part, x1))
                           for part in parts) / w ** 2
    mats = -(MU0 * C**2 * KB * T / (12.0 * math.pi * HBAR * z**3)) \
        * float(sums)
    photon = 0.0
    for _, w_kn, d in trans:
        rp = complex(ps.reflection_nonretarded(m, abs(w_kn)))
        photon += ps.thermal_occupation(w_kn, T) * d * d * rp.real
    photon *= MU0 * C**2 / (24.0 * math.pi * z**3)
    return mats, photon


def _polymul(a, b):
    """Product of two polynomials given as coefficients, highest first."""
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return out


def _polyadd(a, b):
    """Sum of two polynomials given as coefficients, highest first."""
    n = max(len(a), len(b))
    a, b = [0] * (n - len(a)) + list(a), [0] * (n - len(b)) + list(b)
    return [x + y for x, y in zip(a, b)]


def _matsubara_partial_fractions(atom, n, m, dps):
    """(w, parts) of the nonretarded Matsubara summand of level n, at dps
    digits: w is the largest omega_T, and parts holds, per transition in
    transition order, the (poles, residues, h_k(0)) of its term

        h_k(x) = c_k A(x) / ((x^2 + w_k^2) E(x)),

    in x = xi/w, with c_k = omega_kn |d_nk|^2, w_k = |omega_kn|/w and
    r_p(i xi) = A/E (see matsubara_line_closed_form).  The poles are the
    roots of E (mpmath.polyroots) and +-i w_k.  A pole closer than
    split = 10^(-dps/3) to an earlier pole of its transition, as at a
    double root of E or a root of E at +-i w_k, is moved split away from
    it.  Each residue is N(p) / (2 prod_{q != p} (p - q)), N = c_k A and 2
    the leading coefficient of D = (x^2 + w_k^2) E: the partial fractions
    of N over 2 prod_q (x - q), the roots as computed, which stay exact
    where poles coincide or nearly so.  A residue carries about
    10^-dps / delta_p of relative error, delta_p the distance from p to
    the nearest other pole, so the line is good to about dps/3 digits
    (to 50 digits at dps = 150) however close its poles lie.
    ArithmeticError when sum_p R_p or sum_p R_p p, over the poles of all
    transitions, exceeds 10^(10 - dps) sum_p |R_p p^k| / min(delta_p, 1).
    """
    trans = ps.transitions_from(atom, n)
    with mpmath.workdps(dps):
        w = max(mpmath.mpf(o.omega_T) for o in m.oscillators)
        quads = [[1, mpmath.mpf(o.gamma_damp) / w, (o.omega_T / w) ** 2]
                 for o in m.oscillators]
        prod = [1]
        for q in quads:
            prod = _polymul(prod, q)
        a = [0]
        for i, o in enumerate(m.oscillators):
            others = [1]
            for q in quads[:i] + quads[i + 1:]:
                others = _polymul(others, q)
            a = _polyadd(a, [(o.omega_P / w) ** 2 * c for c in others])
        e = _polyadd([2 * c for c in prod], a)
        roots = mpmath.polyroots(e, maxsteps=50 * dps, extraprec=2 * dps)
        split = mpmath.mpf(10) ** (-dps / 3)
        parts, checks = [], []
        for _, w_kn, d in trans:
            c = mpmath.mpf(w_kn) * mpmath.mpf(d) ** 2
            wk = abs(mpmath.mpf(w_kn)) / w
            num = [c * x for x in a]
            poles = []
            for p in list(roots) + [1j * wk, -1j * wk]:
                if any(abs(p - q) < split for q in poles):
                    p += split
                poles.append(mpmath.mpc(p))
            residues = []
            for p in poles:
                gaps = [p - q for q in poles if q is not p]
                residues.append(mpmath.polyval(num, p)
                                / (2 * mpmath.fprod(gaps)))
                checks.append((p, residues[-1],
                               min([abs(g) for g in gaps] + [1])))
            parts.append((poles, residues, mpmath.polyval(num, 0)
                          / (wk * wk * mpmath.polyval(e, 0))))
        for k in (0, 1):
            moment = mpmath.fsum(r * p ** k for p, r, _ in checks)
            size = mpmath.fsum(abs(r * p ** k) / gap
                               for p, r, gap in checks)
            if abs(moment) > mpmath.mpf(10) ** (10 - dps) * size:
                raise ArithmeticError(
                    f"sum_p R_p p^{k} = {mpmath.nstr(moment, 5)} does not "
                    "vanish")
    return w, parts


def _primed_sum(part, x1):
    """sum'_j h_k(j x1) of one transition's (poles, residues, h_k(0)),
    exactly: -(1/x1) sum_p R_p psi(-p/x1) - h_k(0)/2, in the working
    precision of mpmath."""
    poles, residues, h0 = part
    return -mpmath.fsum(r * mpmath.digamma(-p / x1)
                        for r, p in zip(residues, poles)) / x1 - h0 / 2


def matsubara_line_closed_form(atom, n, m, dps=40):
    """The nonretarded Matsubara line of level n, summed exactly: returns
    line(z, T), the nr_matsubara (J) at (z, T).

    In units of W, the largest omega_T, with x = xi/W, the summand
    alpha(i xi) xi^2 Tr G(i xi) is -(2/(3 hbar)) (c^2/(8 pi z^3)) / W^2
    times the rational function

        h(x) = sum_k c_k A(x) / ((x^2 + w_k^2) E(x)),

    c_k = omega_kn |d_nk|^2, w_k = |omega_kn|/W, and r_p(i xi) = A/E with
    A = sum_o P_o prod_{o' != o} Q_o', E = 2 prod_o Q_o + A and
    Q_o = x^2 + g_o x + T_o (P, T and g the oscillator's omega_P^2,
    omega_T^2 and gamma in units of W).  h falls as x^-4, so its partial
    fractions sum_p R_p/(x - p) have sum_p R_p = sum_p R_p p = 0, and with
    x_1 = xi_1/W the primed sum is exact:

        sum'_j h(j x_1) = -(1/x_1) sum_p R_p psi(-p/x_1) - h(0)/2.

    The poles and residues (_matsubara_partial_fractions) do not depend on
    T, so they are built once here.
    """
    w, parts = _matsubara_partial_fractions(atom, n, m, dps)

    def line(z, T):
        with mpmath.workdps(dps):
            x1 = 2 * mpmath.pi * mpmath.mpf(KB) * T / mpmath.mpf(HBAR) / w
            total = mpmath.fsum(_primed_sum(part, x1) for part in parts)
            pref = -(mpmath.mpf(MU0) * KB * T * 2 / (3 * mpmath.mpf(HBAR))
                     * mpmath.mpf(C) ** 2 / (8 * mpmath.pi * mpmath.mpf(z) ** 3)
                     / w ** 2)
            return float(mpmath.re(pref * total))
    return line


def zero_temperature_line(atom, n, m, dps=40):
    """The T -> 0 limit of the nonretarded Matsubara line of level n, the
    standard Casimir-Polder energy of the level: returns (line0, em) with
    line0(z) its value (J) at z and em(z, T) = (first, bound2, bound4),
    Euler-Maclaurin terms of line(z, T) - line0(z) (J).

    With x_1 = xi_1/W = 2 pi kB T/(hbar W) and h of
    matsubara_line_closed_form, the line is P x_1 sum'_j h(j x_1), P =
    -mu0 (2/(3 hbar)) (hbar W/2 pi) (c^2/(8 pi z^3))/W^2, since kB T =
    hbar W x_1/(2 pi).  As x_1 -> 0 the sum tends to int_0^inf h dx, and
    with h = sum_p R_p/(x - p) over every transition's poles, each
    transition's R_p summing to 0 (h_k falls as x^-4), that integral is
    -sum_p R_p log(-p): every pole has Re p <= 0, so log(-p) is the
    principal branch.  The poles and residues are the 40-digit ones of
    _matsubara_partial_fractions.

    Euler-Maclaurin: the primed sum less the integral is
    int_0^inf P_1(x/x_1) h'(x) dx, P_1(u) = {u} - 1/2, and integrating by
    parts against the periodic Bernoulli functions P_k = B~_k/k! gives

        D = x_1 sum'_j h(j x_1) - int_0^inf h
          = -(x_1^2/12) h^(1)(0) - x_1^2 int_0^inf P_2(x/x_1) h^(2) dx
          = -(x_1^2/12) h^(1)(0) + (x_1^4/720) h^(3)(0)
            - x_1^4 int_0^inf P_4(x/x_1) h^(4) dx,

    with |P_2| <= 1/12 and |P_4| <= 1/720.  So with first = P (-(x_1^2/12)
    h^(1)(0)), |line - line0| <= bound2 = |P| (x_1^2/12) (|h^(1)(0)| +
    int |h^(2)|) and |line - line0 - first| <= bound4 = |P| (x_1^4/720)
    (|h^(3)(0)| + int |h^(4)|).  h^(k)(x) = (-1)^k k! sum_p R_p/(x - p)^(k+1);
    the integrals of |h^(k)| are 20-digit mpmath.quad values, split at
    every |p|.
    """
    w, parts = _matsubara_partial_fractions(atom, n, m, dps)
    with mpmath.workdps(dps):
        pairs = [(p, r) for poles, residues, _ in parts
                 for p, r in zip(poles, residues)]

        def h(k, x):
            return mpmath.re(mpmath.fsum(
                (-1) ** k * mpmath.factorial(k) * r / (x - p) ** (k + 1)
                for p, r in pairs))

        cuts = [0, *sorted({abs(p) for p, _ in pairs}), mpmath.inf]
        integral = mpmath.re(-mpmath.fsum(r * mpmath.log(-p)
                                          for p, r in pairs))
        h1, h3 = h(1, 0), h(3, 0)
    with mpmath.workdps(20):  # bounds: 20 digits of them are plenty
        a2, a4 = (mpmath.quad(lambda x: abs(h(k, x)), cuts) for k in (2, 4))

    def scale(z):
        return -(mpmath.mpf(MU0) * 2 / (3 * 2 * mpmath.pi)
                 * mpmath.mpf(C) ** 2 / (8 * mpmath.pi * mpmath.mpf(z) ** 3)
                 / w)

    def line0(z):
        with mpmath.workdps(dps):
            return float(scale(z) * integral)

    def em(z, T):
        with mpmath.workdps(dps):
            x1 = 2 * mpmath.pi * mpmath.mpf(KB) * T / mpmath.mpf(HBAR) / w
            pz = scale(z)
            return (float(-pz * x1 ** 2 * h1 / 12),
                    float(abs(pz) * x1 ** 2 / 12 * (abs(h1) + a2)),
                    float(abs(pz) * x1 ** 4 / 720 * (abs(h3) + a4)))
    return line0, em


def matsubara_tail_size(atom, n, m, head=5, dps=20, sep=0.0):
    """size(z, T): (number of terms, their sum of magnitudes in the units
    of nr_matsubara, J), the terms being those whose sum is the exact tail
    sum_{j >= head} of the line over the per-transition poles and residues
    of _matsubara_partial_fractions, the scale of that sum's rounding in
    float64.  A simple pole gives |R_p psi(head - p/x_1)| / x_1.  Poles
    of one transition within sep of each other, relative to the larger,
    are linked, and each cluster c_1..c_K that the links connect gives the
    terms of its Newton form sum_m b_m / prod_{i<=m} (x - c_i), with
    b_m = sum_{i>=m} R_i prod_{l<m} (c_i - c_l) (b_1 = sum_i R_i and, at
    K = 2, b_2 = R_t (t - s)): |b_1 psi(head - c_1/x_1)| / x_1 and, for
    m >= 2, |b_m S_m| / x_1^m with S_m = sum_{n >= 0} prod_{i<=m}
    1/(n + a_i) = (-1)^m psi[a_1..a_m], a_i = head - c_i/x_1
    (cluster_sum_mp over the split poles)."""
    w, parts = _matsubara_partial_fractions(atom, n, m, dps)
    entries = []  # (c_1..c_m, coefficient)
    for poles, residues, _ in parts:
        cluster = list(range(len(poles)))  # the least index linked to each
        for i, p in enumerate(poles):
            for j, q in enumerate(poles[:i]):
                if abs(p - q) <= sep * max(abs(p), abs(q)):
                    new, old = sorted((cluster[i], cluster[j]))
                    cluster = [new if c == old else c for c in cluster]
        for lead in sorted(set(cluster)):
            nodes = [i for i, c in enumerate(cluster) if c == lead]
            cs, rs = [poles[i] for i in nodes], [residues[i] for i in nodes]
            for k in range(len(nodes)):
                entries.append((cs[:k + 1], mpmath.fsum(
                    rs[i] * mpmath.fprod(cs[i] - x for x in cs[:k])
                    for i in range(k, len(nodes)))))

    def size(z, T):
        with mpmath.workdps(dps):
            x1 = 2 * mpmath.pi * mpmath.mpf(KB) * T / mpmath.mpf(HBAR) / w

            def term(nodes, coef):
                a = [head - c / x1 for c in nodes]
                if len(a) == 1:
                    return abs(coef * mpmath.digamma(a[0])) / x1
                return abs(coef * cluster_sum_mp(a)) / x1 ** len(a)
            total = mpmath.fsum(term(*entry) for entry in entries)
            pref = (mpmath.mpf(MU0) * KB * T * 2 / (3 * mpmath.mpf(HBAR))
                    * mpmath.mpf(C) ** 2 / (8 * mpmath.pi * mpmath.mpf(z) ** 3)
                    / w ** 2)
            return len(entries), float(pref * total)
    return size


def cluster_sum_mp(a):
    """sum_{n >= 0} prod_i 1/(n + a_i) = (-1)^m psi[a_1..a_m] over m >= 2
    distinct mpmath numbers a_i, as partial fractions of digamma in the
    working precision, which their cancellation costs digits."""
    return (-1) ** len(a) * mpmath.fsum(
        mpmath.digamma(x) / mpmath.fprod(x - y for j, y in enumerate(a)
                                         if j != i)
        for i, x in enumerate(a))


def level_tables_by_scan(atom, n):
    """(transitions, (omega_kn^2, omega_kn |d_nk|^2)) of level n, built as
    the AtomSpec constructor once built every level's: a scan over all
    states with dipole_magnitude, keeping |d| > 0, sorted by (omega_kn, k),
    and the polarizability columns from the sorted list."""
    e_n = atom.energy(n)
    trans = []
    for s in atom.states:
        d = atom.dipole_magnitude(n, s.label)
        if s.label != n and d > 0.0:
            trans.append((s.label, s.energy - e_n, d))
    trans.sort(key=lambda t: (t[1], t[0]))
    return tuple(trans), (np.array([[w * w] for _, w, _ in trans]),
                          np.array([[w * d * d] for _, w, d in trans]))


def polarizability_by_scan(atom, n, xi):
    """polarizability_iso of level n on the columns of level_tables_by_scan,
    with the library's arithmetic: the transitions added one after another
    (np.add.accumulate), then 2/(3 hbar); zeros in xi's shape for a level
    with no dipole."""
    xi = np.asarray(xi, dtype=float)
    w2, num = level_tables_by_scan(atom, n)[1]
    if not len(w2):
        return np.zeros(xi.shape)[()]
    terms = num / (w2 + xi.reshape(-1) ** 2)
    total = np.add.accumulate(terms, axis=0)[-1].reshape(xi.shape)
    return 2.0 / (3.0 * HBAR) * total[()]


def u_eff_nonretarded_form(atom, upper, lower, mode1, mode2, m, z):
    """Nonretarded amplitude on the z-free tensors
    G'(omega) = (c^2/(32 pi omega^2)) r_p diag(1,1,2) with the explicit z^-3
    prefactor:

        U = -(mu0 Omega1 Omega2 / (2 z^3))
            sqrt(gamma1 gamma2 / (Tr ImG'(O1) Tr ImG'(O2)))
            sum_k { Tr[ImG'(O1) d_0k(x)d_k1 ImG'(O2)] W(O1 + omega_0k)
                  - Tr[ImG'(O1) d_k1(x)d_0k ImG'(O2)] W(O1 + omega_k1) }.
    """
    o1, o2 = mode1.omega_center, mode2.omega_center
    g1, g2 = mode1.linewidth, mode2.linewidth
    gp1, gp2 = (np.imag(C**2 / (32.0 * math.pi * o**2)
                        * ps.reflection_nonretarded(m, o)
                        * np.array([1.0, 1.0, 2.0])) for o in (o1, o2))
    tr1, tr2 = float(np.sum(gp1)), float(np.sum(gp2))

    total = 0.0
    for ch in ps.channels(atom, upper, lower):
        dip0 = atom.dipole(lower, ch.k_label)
        dip1 = atom.dipole(ch.k_label, upper)
        if dip0.components is not None and dip1.components is not None:
            geom = sum(a * u * v * b for a, u, v, b in
                       zip(gp1, dip0.components, dip1.components, gp2))
        else:
            geom = ch.d_0k * ch.d_k1 / 3.0 * float(np.sum(gp1 * gp2))
        total += geom * (lorentz_weight(o1 + ch.omega_0k, g1)
                         - lorentz_weight(o1 + ch.omega_k1, g1))
    pref = -0.5 * MU0 * o1 * o2 / z**3 * math.sqrt(g1 * g2 / (tr1 * tr2))
    return pref * total


def nonresonant_one_polariton(*, omega_P, omega_T, gamma_damp, transitions,
                              z, T, Omega=None):
    """One-polariton nonresonant estimate for a single-oscillator material.

        -(mu0 c^2 / (48 pi z^3)) (kB T / hbar)
            sum_nu omega_P^2 |d_1nu|^2 / (Omega^2 omega_nu1)
        + (mu0 c^2 / (24 pi z^3))
            sum_nu nbar(omega_nu1) |d_1nu|^2
                Re[ omega_P^2 / (2(omega_T^2 - omega_1nu^2
                                    - i omega_1nu Gamma) + omega_P^2) ],

    with omega_1nu = -omega_nu1 and Omega = sqrt(omega_T^2 + omega_P^2/2)
    unless given: the leading (j = 0) Matsubara term of the per-transition
    sum, with r_p(i*0) = omega_P^2/(2 Omega^2).  ``transitions`` is an
    iterable of (|d_1nu| in C.m, omega_nu1 in rad/s).
    """
    if Omega is None:
        Omega = math.sqrt(omega_T**2 + 0.5 * omega_P**2)
    line1 = 0.0
    line2 = 0.0
    for d, w_nu1 in transitions:
        line1 += omega_P**2 * d * d / (Omega**2 * w_nu1)
        w_1nu = -w_nu1
        r = omega_P**2 / (2.0 * (omega_T**2 - w_1nu**2 - 1j * w_1nu
                                 * gamma_damp) + omega_P**2)
        line2 += ps.thermal_occupation(w_nu1, T) * d * d * r.real
    out1 = -(MU0 * C**2 / (48.0 * math.pi * z**3)) * (KB * T / HBAR) * line1
    out2 = (MU0 * C**2 / (24.0 * math.pi * z**3)) * line2
    return out1 + out2


def permittivity_numpy(m, omega):
    """eps(omega) worked in numpy complex128 scalars: the library's former
    body of permittivity, kept as the bit-for-bit reference of its float
    transcription (one number gives np.complex128, an undamped oscillator
    hit exactly raises PoleHit, anything else TypeError)."""
    if not isinstance(omega, (int, float, complex)):
        raise TypeError(f"omega must be one number, not {type(omega)!r}")
    w = np.complex128(omega)
    w2, eps = w * w, np.complex128(1.0)
    for p2, t2, g in m._coeffs:
        denom = t2 - w2 - 1j * omega * g
        if denom == 0:
            raise material._pole_hit(m, (p2, t2, g))
        eps = eps + p2 / denom
    return eps


def permittivity_derivative(m, omega):
    """d eps/d omega at one real omega as the library takes it,
    np.complex128 of the last two fields of material._eps_deps: the form in
    which the bit-for-bit checks compare it with
    permittivity_derivative_numpy.  PoleHit where permittivity raises it."""
    return np.complex128(complex(*material._eps_deps(m, omega)[2:]))


def permittivity_real(m, omega):
    """eps at one real omega from the mode finder's body material._real_eps,
    as np.complex128, to compare with permittivity_numpy."""
    return np.complex128(complex(*material._real_eps(m, omega)))


def im_rp_real(m, omega):
    """Im r_p at one real omega from material._real_eps, as np.complex128
    (Im r_p, 0), to compare with im_rp_numpy."""
    return np.complex128(material._real_eps(m, omega, True))


def im_rp_numpy(m, omega):
    """Im r_p of reflection_nonretarded_numpy as np.complex128 (Im r_p, 0),
    SurfaceModePole included."""
    return np.complex128(reflection_nonretarded_numpy(m, omega).imag)


def permittivity_derivative_numpy(m, omega):
    """d eps/d omega worked in numpy complex128 scalars: the library's
    former body of _permittivity_derivative, with permittivity_numpy's
    PoleHit, since the library takes eps' only together with eps."""
    w = np.complex128(omega)
    w2, d = w * w, np.complex128(0.0)
    for p2, t2, g in m._coeffs:
        denom = t2 - w2 - 1j * omega * g
        if denom == 0:
            raise material._pole_hit(m, (p2, t2, g))
        d = d + p2 * (2.0 * w + 1j * g) / (denom * denom)
    return d


def reflection_nonretarded_numpy(m, omega):
    """(eps - 1)/(eps + 1) worked in numpy complex128 scalars: the
    library's former body of reflection_nonretarded, SurfaceModePole
    included."""
    return _rp_of_eps_numpy(permittivity_numpy(m, omega))


def _rp_of_eps_numpy(eps):
    """(eps - 1)/(eps + 1) of an np.complex128 eps, or SurfaceModePole."""
    num = eps - 1.0
    den = eps + 1.0
    if abs(den) < material.POLE_RTOL * abs(num):
        raise ps.SurfaceModePole(
            "reflection_nonretarded evaluated on a surface-mode pole "
            f"(|eps+1| < {material.POLE_RTOL:g}*|eps-1|)")
    return num / den


def finder_bodies_numpy(calls):
    """{name: body} of the mode finder's float bodies in material
    (_real_eps, _eps_deps and _rp_of_eps), each a wrapper that takes and
    returns Python floats as the body does, but works its values out by
    this module's numpy-scalar expressions.  Patched into material, they
    make find_polariton_modes read numpy's values through the finder's own
    sequence of evaluations; each call is appended to calls by name."""
    def real_eps(m, w, im_rp=False):
        calls.append("_real_eps")
        with np.errstate(all="ignore"):
            if im_rp:
                return float(reflection_nonretarded_numpy(m, w).imag)
            eps = permittivity_numpy(m, w)
        return float(eps.real), float(eps.imag)

    def eps_deps(m, w):
        calls.append("_eps_deps")
        with np.errstate(all="ignore"):
            eps = permittivity_numpy(m, w)
            d = permittivity_derivative_numpy(m, w)
        return float(eps.real), float(eps.imag), float(d.real), float(d.imag)

    def rp_of_eps(er, ei):
        calls.append("_rp_of_eps")
        with np.errstate(all="ignore"):
            r = _rp_of_eps_numpy(np.complex128(complex(er, ei)))
        return float(r.real), float(r.imag)

    return {"_real_eps": real_eps, "_eps_deps": eps_deps,
            "_rp_of_eps": rp_of_eps}


def omega_surface(osc):
    """Surface-mode frequency sqrt(omega_T^2 + omega_P^2/2) of the
    oscillator osc alone in the undamped limit (the root of eps = -1)."""
    return math.sqrt(osc.omega_T**2 + 0.5 * osc.omega_P**2)


def _mp_eps(m, w):
    """eps(w) = 1 + sum_j omega_Pj^2 / (omega_Tj^2 - w^2 - i w gamma_j) at
    real w, in the working precision of mpmath."""
    return 1 + mpmath.fsum(
        mpmath.mpf(o.omega_P) ** 2
        / (mpmath.mpf(o.omega_T) ** 2 - w * w - 1j * w * o.gamma_damp)
        for o in m.oscillators)


def _mp_root(f, omega, dps):
    """(root, f', f'') of the real function f next to omega, each an mpf
    of dps digits: the secant method from omega, derivatives by
    mpmath.diff."""
    with mpmath.workdps(dps):
        root = mpmath.findroot(f, mpmath.mpf(omega))
        return root, mpmath.diff(f, root), mpmath.diff(f, root, 2)


def eps_crossing(m, omega, dps=40):
    """(root, f', f'') of f = Re eps + 1 at the Re eps = -1 crossing next
    to omega, at dps digits."""
    return _mp_root(lambda w: mpmath.re(_mp_eps(m, w)) + 1, omega, dps)


def half_max_point(m, level, omega, dps=40):
    """(root, f', f'') of f = Im r_p - level at the root next to omega, at
    dps digits, r_p = (eps - 1)/(eps + 1); level is taken exactly."""
    def f(w):
        eps = _mp_eps(m, w)
        return mpmath.im((eps - 1) / (eps + 1)) - mpmath.mpf(level)
    return _mp_root(f, omega, dps)


def mode_width_from_pole(m, mode, max_iter=100):
    """Alternative width estimate from the complex root of eps(omega) = -1.

    Newton iteration started at omega_center - i*linewidth/2, on
    eps(w) = 1 + sum_j P_j^2 / D_j and d eps/d w = sum_j P_j^2 (2w + i g_j)
    / D_j^2 with D_j = T_j^2 - w^2 - i w g_j; the FWHM equivalent is
    2 |Im omega_pole|.  Returns (center, width) so it can be compared
    directly with the Im r_p fit used by find_polariton_modes.
    """
    w = complex(mode.omega_center, -0.5 * mode.linewidth)
    scale = abs(w)
    for _ in range(max_iter):
        f, df = 2.0, 0.0  # eps + 1 and d eps/d w
        for o in m.oscillators:
            d = o.omega_T**2 - w * w - 1j * w * o.gamma_damp
            f += o.omega_P**2 / d
            df += o.omega_P**2 * (2.0 * w + 1j * o.gamma_damp) / (d * d)
        step = f / df
        w = w - step
        if abs(step) < 1e-14 * scale:
            break
    else:
        raise ps.NoModeFound(
            "complex-root iteration for eps = -1 did not converge")
    return abs(w.real), 2.0 * abs(w.imag)


def fresnel_array(m, omega, k_rho):
    """Fresnel (r_s, r_p) on numpy arrays, elementwise over omega and k_rho.

    The library's former body over arrays of omega, kept as the reference
    for fresnel over an array of k_rho at one omega: the same formulas on
    an array of eps, taken one omega at a time from permittivity, with each
    root flipped to Im >= 0 by np.where.
    """
    def upper_sqrt(arg):
        root = np.sqrt(np.asarray(arg, dtype=complex))
        return np.where(root.imag < 0, -root, root)

    omega = np.asarray(omega, dtype=float)
    if np.any(omega <= 0):
        raise ValueError("omega must be > 0")
    k_rho = np.asarray(k_rho, dtype=float)
    if np.any(k_rho < 0):
        raise ValueError("k_rho must be >= 0")
    eps = np.array([ps.permittivity(m, w) for w in omega.ravel().tolist()],
                   dtype=complex).reshape(omega.shape)
    k2 = (omega / C) ** 2
    k_vz = upper_sqrt(k2 - k_rho**2)
    k_dz = upper_sqrt(eps * k2 - k_rho**2)
    r_s = (k_vz - k_dz) / (k_vz + k_dz)
    r_p = (eps * k_vz - k_dz) / (eps * k_vz + k_dz)
    if r_s.ndim == 0:
        return r_s[()], r_p[()]
    return r_s, r_p


def fresnel_cmath(eps, omega, k_rho):
    """Fresnel (r_s, r_p) at one omega and one k_rho in cmath scalars, for
    any complex eps: k_vz and k_dz are the roots of omega^2/c^2 - k_rho^2
    and eps omega^2/c^2 - k_rho^2 with Im >= 0, taken by negating the
    principal root where its Im < 0, as for a gain medium (Im eps < 0)."""
    def upper_sqrt(arg):
        root = cmath.sqrt(arg)
        return -root if root.imag < 0 else root

    k2 = (omega / C) ** 2
    k_vz = upper_sqrt(complex(k2 - k_rho * k_rho))
    k_dz = upper_sqrt(eps * k2 - k_rho * k_rho)
    return ((k_vz - k_dz) / (k_vz + k_dz),
            (eps * k_vz - k_dz) / (eps * k_vz + k_dz))


def _mp_eps_imag(m, xi):
    """eps(i xi) = 1 + sum_j omega_Pj^2 / (omega_Tj^2 + xi^2 + xi gamma_j)
    at real xi >= 0, in the working precision of mpmath."""
    return 1 + mpmath.fsum(
        mpmath.mpf(o.omega_P) ** 2
        / (mpmath.mpf(o.omega_T) ** 2 + xi * xi
           + xi * mpmath.mpf(o.gamma_damp))
        for o in m.oscillators)


def green_full_imag_axis_mp(m, z, xi, dps=30):
    """(G_xx, G_zz), as floats, of the reflected Green tensor at omega =
    i xi, by a dps-digit mpmath.quad of the k_rho integral written in s.

    With k0 = xi/c, kappa_v = sqrt(k0^2 + k_rho^2), kappa_d = sqrt(eps(i xi)
    k0^2 + k_rho^2) and the Fresnel coefficients r_s = (kappa_v - kappa_d)/
    (kappa_v + kappa_d), r_p = (eps kappa_v - kappa_d)/(eps kappa_v +
    kappa_d), the tensor is

        (1/8 pi) int_0^inf dk_rho (k_rho/kappa_v) e^{-2 kappa_v z}
            [r_s diag(1,1,0) - (c/xi)^2 r_p diag(kappa_v^2, kappa_v^2,
                                               2 k_rho^2)].

    k_rho dk_rho = kappa_v dkappa_v, and s = 2 z (kappa_v - k0) makes it
    (e^{-a}/(16 pi z)) int_0^inf ds e^{-s} [...] with a = 2 xi z/c; the
    factor e^{-a}/(16 pi z) stays outside the quadrature, whose error
    test is absolute and would stop early on an integrand of order
    e^{-a}.  The Fresnel coefficients change over s of order a, so the
    integral is split at a/4, a, 4a and 16a below s = 40, and at 40.  At
    30 digits the differences kappa_v - kappa_d and eps kappa_v - kappa_d
    lose no digit that a float64 result keeps.
    """
    with mpmath.workdps(dps):
        z, xi = mpmath.mpf(z), mpmath.mpf(xi)
        k0 = xi / C
        a = 2 * k0 * z
        eps = _mp_eps_imag(m, xi)

        def bracket(s):
            kv = k0 + s / (2 * z)
            k2 = kv * kv - k0 * k0
            kd = mpmath.sqrt(eps * k0 * k0 + k2)
            r_s = (kv - kd) / (kv + kd)
            r_p = (eps * kv - kd) / (eps * kv + kd)
            damp = mpmath.exp(-s)
            return (damp * (r_s - r_p * kv * kv / (k0 * k0)),
                    -damp * r_p * 2 * k2 / (k0 * k0))

        cuts = sorted({0, *(a * k for k in (0.25, 1, 4, 16) if a * k < 40),
                       40, mpmath.inf})
        scale = mpmath.exp(-a) / (16 * mpmath.pi * z)
        return tuple(float(scale * mpmath.quad(lambda s: bracket(s)[i], cuts))
                     for i in (0, 1))


def green_full_prop_mp(m, z, omega, dps=30):
    """(xx, zz), as complex floats, of the propagating side of green_full's
    k_rho integral at real omega > 0, by a dps-digit mpmath.quad over theta.

    With k_rho = k0 sin(theta), k_vz = k0 cos(theta), k0 = omega/c, and
    q = sqrt(eps - sin^2 theta) on the branch Im q >= 0, the side is

        (i k0/8 pi) int_0^{pi/2} dtheta sin(theta) e^{2 i k0 z cos(theta)}
            [(r_s - r_p cos^2 theta) diag(1,1,0) + 2 r_p sin^2 theta
             diag(0,0,1)],

    r_s = (cos theta - q)/(cos theta + q), r_p = (eps cos theta - q)/
    (eps cos theta + q).  The factor i k0/8 pi stays outside the quadrature,
    whose error test is absolute.  k_dz = k0 q has a square-root kink where
    Re(eps) = sin^2 theta, softened only by Im eps: where 0 < Re eps < 1 it
    lies on this side, and the interval is split there.  The phase turns by
    2 k0 z over the interval, so it is also split into ceil(2 k0 z) + 1
    equal pieces, over each of which it turns by less than pi/2.
    """
    with mpmath.workdps(dps):
        k0 = mpmath.mpf(omega) / C
        a = 2 * k0 * mpmath.mpf(z)
        eps = _mp_eps(m, mpmath.mpf(omega))

        def bracket(theta):
            s, c = mpmath.sin(theta), mpmath.cos(theta)
            q = mpmath.sqrt(eps - s * s)
            if q.imag < 0:
                q = -q
            r_s = (c - q) / (c + q)
            r_p = (eps * c - q) / (eps * c + q)
            common = s * mpmath.expj(a * c)
            return common * (r_s - r_p * c * c), common * 2 * r_p * s * s

        half = mpmath.pi / 2
        pieces = int(mpmath.ceil(a)) + 1
        cuts = {half * k / pieces for k in range(pieces + 1)}
        if 0 < eps.real < 1:
            cuts.add(mpmath.asin(mpmath.sqrt(eps.real)))
        cuts = sorted(cuts)
        scale = 1j * k0 / (8 * mpmath.pi)
        return tuple(complex(scale * mpmath.quad(lambda t: bracket(t)[i],
                                                 cuts))
                     for i in (0, 1))


def green_full_evan_mp(m, z, omega, dps=30):
    """(xx, zz), as complex floats, of the evanescent side of green_full's
    k_rho integral at real omega > 0, by a dps-digit mpmath.quad over
    u = 2 kappa z.

    With k_vz = i kappa, k0 = omega/c, b = 2 k0 z, t = kappa/k0 = u/b and
    q = k_dz/k0 = sqrt(eps - 1 - t^2) on the branch Im q >= 0, the side is

        (1/16 pi z) int_0^inf du e^{-u} [(r_s + r_p t^2) diag(1,1,0)
            + 2 r_p (1 + t^2) diag(0,0,1)],

    r_s = -(eps - 1)/(i t + q)^2 and r_p = -(eps - 1)((eps + 1) t^2 + 1)/
    (i eps t + q)^2 in cancelled forms, which keep their digits where
    i t + q -> 2 i t.  The factor 1/16 pi z stays outside the quadrature,
    whose error test is absolute.  The Fresnel coefficients change over u
    of order b, so the interval is split at b.  k_dz has a square-root kink
    where t^2 = Re(eps - 1), softened only by Im eps: where Re eps > 1 it
    lies on this side, at u = b Re sqrt(eps - 1), and the interval is split
    there.  Where Re eps < -1, r_p has the surface-polariton pole (eps + 1)
    t^2 = -1 near the axis, and the interval is split at u = b/Re sqrt(-(eps
    + 1)).  tanh-sinh quadrature clusters its nodes at each split: on the
    cases of tests/test_greens.py, 40 digits with more cuts (b/4, 4b, 16b,
    40, and p +- h 4^k, k = 0..3, around the kink or pole p of half-width
    h) give the same float64 result.
    """
    with mpmath.workdps(dps):
        z = mpmath.mpf(z)
        b = 2 * mpmath.mpf(omega) / C * z
        eps = _mp_eps(m, mpmath.mpf(omega))
        e1 = eps - 1
        memo = {}

        def bracket(u):
            # both components from one evaluation: the quadratures of xx
            # and zz run on the same nodes
            if u not in memo:
                t = u / b
                q = mpmath.sqrt(e1 - t * t)
                if q.imag < 0:
                    q = -q
                r_s = -e1 / (1j * t + q) ** 2
                r_p = -e1 * ((eps + 1) * t * t + 1) / (1j * eps * t + q) ** 2
                damp = mpmath.exp(-u)
                memo[u] = (damp * (r_s + r_p * t * t),
                           damp * 2 * r_p * (1 + t * t))
            return memo[u]

        cuts = {0, b}
        if eps.real > 1:
            cuts.add(b * mpmath.sqrt(e1).real)
        if eps.real < -1:
            cuts.add(b / mpmath.sqrt(-(eps + 1)).real)
        cuts = [*sorted(cuts), mpmath.inf]
        scale = 1 / (16 * mpmath.pi * z)
        return tuple(complex(scale * mpmath.quad(lambda u: bracket(u)[i],
                                                 cuts))
                     for i in (0, 1))


def lorentzian_ldos_factor(mode, omega):
    """Lorentzian line-shape factor (gamma^2/4)/((omega-Omega)^2 + gamma^2/4).

    Equals 1 at the mode center and 1/2 at center +/- gamma/2.
    """
    if not mode.linewidth > 0:
        raise ValueError("mode linewidth must be > 0")
    q = 0.25 * mode.linewidth**2
    return q / ((np.asarray(omega) - mode.omega_center) ** 2 + q)


def material_to_dict(m):
    """Serialize a MaterialModel (frequencies in rad/s)."""
    return {
        "schema_version": SCHEMA_VERSION,
        "name": m.name,
        "oscillators": [
            {"omega_P": o.omega_P, "omega_T": o.omega_T,
             "gamma": o.gamma_damp, "unit": "rad/s"}
            for o in m.oscillators
        ],
    }


def atom_to_dict(atom):
    """Serialize an AtomSpec (energies in rad/s, dipoles in C.m)."""
    doc = {
        "schema_version": SCHEMA_VERSION,
        "name": atom.name,
        "states": [{"label": s.label, "energy": s.energy, "unit": "rad/s"}
                   for s in atom.states],
        "dipoles": [],
    }
    for d in atom.dipoles:
        entry = {"from": d.from_state, "to": d.to_state,
                 "magnitude": d.magnitude, "unit": "C·m"}
        if d.components is not None:
            entry["components"] = list(d.components)
        doc["dipoles"].append(entry)
    return doc
