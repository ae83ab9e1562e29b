"""Reference formulas the cross-check tests compare the library against.

Each is written out from its own closed form, not through the library's
Green-tensor routes, so agreement is evidence rather than a tautology.
The serializers and the Lorentzian line shape at the end are used only by
round-trip and line-shape tests.
"""

import math

import mpmath
import numpy as np

import polshift as ps
from polshift.errors import SCHEMA_VERSION
from polshift.units import C, HBAR, KB, MU0


#: the tail tolerance of the oracle's stop rule, the library's
#: accuracy target restated
MATSUBARA_TOL = 1e-9


def matsubara_sum_reference(term, cutoff, tol=MATSUBARA_TOL):
    """Primed sum over j of the scalar term(j), one term at a time.

    term(0) enters at half weight; the sum stops at the first j >= 4 with
    |t_j| * j <= tol * max(max_{i <= j} |S_i|, 1e-300), S_i the partial
    sums, and raises ConvergenceFailure if no j <= cutoff meets the rule.
    """
    t0 = 0.5 * term(0)
    total = t0
    scale = abs(t0)
    for j in range(1, cutoff + 1):
        tj = term(j)
        total += tj
        scale = max(scale, abs(total))
        if j >= 4 and abs(tj) * j <= tol * max(scale, 1e-300):
            return total
    raise ps.ConvergenceFailure(
        f"Matsubara tail estimate exceeds convergence_tol={tol:g} "
        f"at cutoff={cutoff}")


def lorentz_weight(x, gamma1):
    """W(x) = x / (x^2 + gamma1^2/4), the detuning weight of a channel."""
    return x / (x * x + 0.25 * gamma1 * gamma1)


def tensor_to_jsonable(g):
    """GreenTensor3 entries (xx, zz) as [re, im] pairs."""
    return [[float(c.real), float(c.imag)] for c in g]


def nonresonant_parts_per_transition(atom, n, m, env):
    """Nonretarded (matsubara, resonant_photon) from the per-transition
    z^-3 closed form:

        -(mu0 c^2 kB T)/(12 pi hbar z^3) * sum_k |d_nk|^2 *
            sum'_j [omega_kn/(omega_kn^2+xi_j^2)] (eps(i xi_j)-1)/(eps(i xi_j)+1)
        + (mu0 c^2)/(24 pi z^3) * sum_k nbar(omega_kn) |d_nk|^2 Re r_p(|omega_kn|)

    Valid for isotropic dipoles (no Cartesian components).
    """
    trans = ps.transitions_from(atom, n)
    z, T = env.z, env.T
    xi1 = ps.matsubara_xi(T, 1)
    d2 = [(w_kn, d * d) for _, w_kn, d in trans]

    def term(j):
        xi = j * xi1
        rt = float(ps.reflection_imag_axis(m, xi))
        return sum(dd * w / (w * w + xi * xi) for w, dd in d2) * rt

    mats = -(MU0 * C**2 * KB * T / (12.0 * math.pi * HBAR * z**3)) \
        * matsubara_sum_reference(term, 20000)
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

    The poles are the roots of E (mpmath.polyroots at dps digits) and
    +-i w_k; each residue is N(p)/D'(p) of its transition's term N/D, with
    N = c_k A and D = (x^2 + w_k^2) E.  The poles and residues do not
    depend on T, so they are built once here.  ArithmeticError when
    sum_p R_p or sum_p R_p p does not vanish to working precision.
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
        roots = mpmath.polyroots(e, maxsteps=200, extraprec=2 * dps)
        poles, residues, h0 = [], [], 0
        for _, w_kn, d in trans:
            c = mpmath.mpf(w_kn) * mpmath.mpf(d) ** 2
            wk = abs(mpmath.mpf(w_kn)) / w
            num = [c * x for x in a]
            den = _polymul([1, 0, wk * wk], e)
            for p in list(roots) + [1j * wk, -1j * wk]:
                poles.append(p)
                residues.append(mpmath.polyval(num, p)
                                / mpmath.polyval(den, p, derivative=True)[1])
            h0 += mpmath.polyval(num, 0) / mpmath.polyval(den, 0)
        scale = mpmath.mpf(10) ** (10 - dps)
        for k in (0, 1):
            moment = mpmath.fsum(r * p ** k for r, p in zip(residues, poles))
            size = mpmath.fsum(abs(r * p ** k)
                               for r, p in zip(residues, poles))
            if abs(moment) > scale * size:
                raise ArithmeticError(
                    f"sum_p R_p p^{k} = {mpmath.nstr(moment, 5)} does not "
                    "vanish")

    def line(z, T):
        with mpmath.workdps(dps):
            x1 = 2 * mpmath.pi * mpmath.mpf(KB) * T / mpmath.mpf(HBAR) / w
            total = -mpmath.fsum(r * mpmath.digamma(-p / x1)
                                 for r, p in zip(residues, poles)) / x1 \
                - h0 / 2
            pref = -(mpmath.mpf(MU0) * KB * T * 2 / (3 * mpmath.mpf(HBAR))
                     * mpmath.mpf(C) ** 2 / (8 * mpmath.pi * mpmath.mpf(z) ** 3)
                     / w ** 2)
            return float(mpmath.re(pref * total))
    return line


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
