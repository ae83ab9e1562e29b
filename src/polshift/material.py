"""Dielectric response of the half-space.

Drude-Lorentz permittivity on the real and imaginary frequency axes, Fresnel
and nonretarded reflection coefficients, and extraction of the surface-mode
(polariton) resonances as peaks of Im r_p.
"""

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import (NoModeFound, ParseError, PoleHit, SurfaceModePole,
                     check_document, read_json, require)
from .units import C, angular_frequency

#: relative tolerance below which |eps + 1| counts as "on the pole"
POLE_RTOL = 1e-9

#: the oscillator frequencies (rad/s) accepted for omega_P, omega_T and a
#: nonzero gamma: far wider than any physical resonance, and far inside the
#: range where the mode finder's omega^4 terms (the squared denominators of
#: d eps/d omega) stay finite and nonzero (a material with every frequency
#: scaled to 1e-77 or 1e80 rad/s overflows there)
OMEGA_RANGE = (1e-30, 1e30)


@dataclass(frozen=True)
class Oscillator:
    """One Drude-Lorentz term (all parameters in rad/s)."""

    omega_P: float
    omega_T: float
    gamma_damp: float = 0.0

    def __post_init__(self):
        if not all(map(math.isfinite,
                       (self.omega_P, self.omega_T, self.gamma_damp))):
            raise ValueError("oscillator parameters must be finite")
        if not self.omega_P > 0:
            raise ValueError("omega_P must be > 0")
        if not self.omega_T > 0:
            raise ValueError("omega_T must be > 0")
        if self.gamma_damp < 0:
            raise ValueError("gamma_damp must be >= 0")
        lo, hi = OMEGA_RANGE
        if not (lo <= self.omega_P <= hi and lo <= self.omega_T <= hi
                and (self.gamma_damp == 0 or lo <= self.gamma_damp <= hi)):
            raise ValueError(f"omega_P, omega_T and a nonzero gamma must lie "
                             f"in [{lo:g}, {hi:g}] rad/s")


@dataclass(frozen=True)
class MaterialModel:
    """A half-space described by a sum of Drude-Lorentz oscillators.

    Oscillators are stored sorted ascending by omega_T (canonical form).
    _coeffs holds (omega_P^2, omega_T^2, gamma) of each oscillator in that
    order, built once, so that the float bodies of eps on either axis, of
    eps' and of r_p, which the Matsubara sum, the mode finder and the
    nonretarded Green tensor call one value at a time, read three Python
    floats per oscillator instead of squaring two attributes; it takes no
    part in equality, hashing or repr.  Each square is one correctly
    rounded product, so it scales exactly when every frequency is scaled
    by 2^k (x**2 goes through libm pow, which misrounds some x).
    """

    name: str
    oscillators: tuple
    _coeffs: tuple = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        # An empty oscillator tuple is the vacuum half-space (eps = 1).
        oscs = tuple(self.oscillators)
        if any(not isinstance(o, Oscillator) for o in oscs):
            raise TypeError("oscillators must be Oscillator instances")
        oscs = tuple(sorted(oscs, key=lambda o: o.omega_T))
        object.__setattr__(self, "oscillators", oscs)
        object.__setattr__(self, "_coeffs", tuple(
            (o.omega_P * o.omega_P, o.omega_T * o.omega_T, o.gamma_damp)
            for o in oscs))


@dataclass(frozen=True)
class PolaritonMode:
    """One surface-polariton resonance.

    omega_center is the location of the Im r_p peak, linewidth its FWHM,
    [band_lo, band_hi] the frequency interval attributed to the mode, and
    narrow is set when the linewidth is small compared to the distance to
    the neighbouring mode centers.
    """

    omega_center: float
    linewidth: float
    band_lo: float
    band_hi: float
    narrow: bool = True
    im_rp_peak: float = float("nan")

    def __post_init__(self):
        if not self.linewidth > 0:
            raise ValueError("linewidth must be > 0")
        if not (self.band_lo < self.omega_center < self.band_hi):
            raise ValueError("band must bracket omega_center")


# --- permittivity -------------------------------------------------------------

# The bodies below work in Python floats and return (re, im).  Each
# transcribes, operation for operation, the numpy complex128 scalar
# expression it replaced (tests/oracles.py keeps those expressions), zero
# parts and signs of zero included: complex products as (ar br - ai bi,
# ar bi + ai br), a real x taken as (x, 0), and quotients by _quotient.  So
# they give numpy's bits at a fraction of the cost, and keep those bits
# under a numpy whose scalars round otherwise.  _eps and _rp take any
# omega; the mode finder's bodies, _real_eps and _eps_deps, take a real
# omega only, and drop each operation of that scaffolding that is an exact
# identity there (a product with a zero part, 0.0*w or x - 0.0), so that
# they keep the same bits, and inline their quotients.

def _quotient(ar, ai, br, bi):
    """(ar + i ai)/(br + i bi) as numpy's complex128 scalar division
    (CDOUBLE_divide) rounds it: Smith's scaled division by the larger part
    of the divisor, and x/0 as x/+0 in IEEE arithmetic."""
    if abs(br) >= abs(bi):
        if br == 0 and bi == 0:  # x/+0 = x*inf: +-inf, or NaN for 0 and NaN
            return ar * math.inf, ai * math.inf
        rat = bi / br
        scl = 1.0 / (br + bi * rat)
        return (ar + ai * rat) * scl, (ai - ar * rat) * scl
    rat = br / bi
    scl = 1.0 / (bi + br * rat)
    return (ar * rat + ai) * scl, (ai * rat - ar) * scl


def _omega_parts(omega):
    """(Re omega, Im omega) as Python floats, for one int, float or complex
    (np.float64 and np.complex128 included); TypeError for anything else."""
    if type(omega) is float:
        return omega, 0.0
    if isinstance(omega, complex):
        return float(omega.real), float(omega.imag)
    if isinstance(omega, (int, float)):
        return float(omega), 0.0
    raise TypeError(f"omega must be one number, not {type(omega)!r}")


def _eps(m, omega):
    """(Re, Im) of eps(omega) at one real or complex omega, as permittivity
    defines it, in Python floats."""
    wr, wi = _omega_parts(omega)
    w2r, w2i = wr * wr - wi * wi, wr * wi + wi * wr  # w*w
    iwr, iwi = 0.0 * wr - wi, 0.0 * wi + wr  # 1j*omega
    er, ei = 1.0, 0.0
    for p2, t2, g in m._coeffs:
        # t2 - w*w - (1j*omega)*g, the last a product with (g, 0)
        br = t2 - w2r - (iwr * g - iwi * 0.0)
        bi = (0.0 - w2i) - (iwr * 0.0 + iwi * g)
        # _quotient(p2, 0.0, br, bi), written out: this is the hot loop
        if abs(br) >= abs(bi):
            if br == 0 and bi == 0:
                raise _pole_hit(m, (p2, t2, g))
            rat = bi / br
            scl = 1.0 / (br + bi * rat)
            er += (p2 + 0.0 * rat) * scl
            ei += (0.0 - p2 * rat) * scl
        else:
            rat = br / bi
            scl = 1.0 / (bi + br * rat)
            er += (p2 * rat + 0.0) * scl
            ei += (0.0 * rat - p2) * scl
    return er, ei


def permittivity(m, omega):
    """Drude-Lorentz permittivity eps(omega) for complex angular frequency.

    eps = 1 + sum_j omega_Pj^2 / (omega_Tj^2 - omega^2 - i omega Gamma_j).
    Raises PoleHit, naming the oscillator, when an undamped oscillator is
    evaluated exactly on its resonance.  One number (int, float or
    complex, np.float64 and np.complex128 included) gives np.complex128;
    any other argument, an array or a list among them, raises TypeError.
    The value is worked in Python floats by a body that transcribes
    numpy's complex128 scalar rounding op for op (plain Python complex
    would divide with other rounding), so it has the bits numpy's scalars
    give here, and keeps them under a numpy whose scalars round otherwise.
    """
    return np.complex128(complex(*_eps(m, omega)))


def _pole_hit(m, coeffs):
    """The PoleHit of the undamped oscillator whose m._coeffs triple coeffs
    was hit.  The loops over m._coeffs carry no index, so it is worked out
    here, on the raise path only: a loop raises at the first oscillator
    whose denominator is zero, and an earlier one with the same triple
    would have been zero first, so the first equal triple is the one that
    raised."""
    j = m._coeffs.index(coeffs)
    return PoleHit(f"permittivity pole of undamped oscillator {j} "
                   f"(omega_T={m.oscillators[j].omega_T!r}) hit exactly")


def permittivity_imag_axis(m, xi):
    """eps(i*xi) on the imaginary axis: real, > 1, decreasing in xi >= 0.

    One real number (int or float, np.float64 included) gives a float; any
    other argument, an array or a list among them, raises TypeError.  A
    float, what every Matsubara term hands over, skips the type test and
    the conversion, which are a sixth of a call.
    """
    if type(xi) is not float:
        if not isinstance(xi, (int, float)):
            raise TypeError(f"xi must be one real number, not {type(xi)!r}")
        xi = float(xi)
    if not xi >= 0:
        raise ValueError("xi must be >= 0")
    eps, xi2 = 1.0, xi * xi
    for p2, t2, g in m._coeffs:
        eps = eps + p2 / (t2 + xi2 + xi * g)
    return eps


def _real_eps(m, w, im_rp=False):
    """(Re eps, Im eps) at one real omega w, a Python float, or with im_rp
    Im r_p there, SurfaceModePole included: the body behind every value of
    Re eps + 1 and Im r_p the mode finder reads, with _eps's and _rp's
    bits.  On the real axis _eps's denominator t2 - w*w - (1j w) g is
    (t2 - w*w, 0.0 - w*g) to the bit for finite w, sign of zero included,
    and NaN for w = +-inf or NaN, as there."""
    w2 = w * w
    er, ei = 1.0, 0.0
    for p2, t2, g in m._coeffs:
        br, bi = t2 - w2, 0.0 - w * g
        if abs(br) >= abs(bi):
            if br == 0 and bi == 0:
                raise _pole_hit(m, (p2, t2, g))
            rat = bi / br
            scl = 1.0 / (br + bi * rat)
            er += p2 * scl
            ei += (0.0 - p2 * rat) * scl
        else:
            rat = br / bi
            scl = 1.0 / (bi + br * rat)
            er += (p2 * rat + 0.0) * scl
            ei -= p2 * scl
    if not im_rp:
        return er, ei
    # Im r_p = Im[(eps - 1.0)/(eps + 1.0)] as _rp_of_eps has it
    nr, dr, di = er - 1.0, er + 1.0, ei + 0.0
    if abs(complex(dr, di)) < POLE_RTOL * abs(complex(nr, ei)):
        raise _surface_mode_pole()
    if abs(dr) >= abs(di):
        if dr == 0 and di == 0:
            return ei * math.inf
        rat = di / dr
        return (ei - nr * rat) * (1.0 / (dr + di * rat))
    rat = dr / di
    return (ei * rat - nr) * (1.0 / (di + dr * rat))


def _eps_deps(m, w):
    """(Re eps, Im eps, Re eps', Im eps') at one real omega w, a Python
    float, from one pass over the oscillators: each denominator D_j of
    permittivity is worked out once and serves both sums.  eps has
    _real_eps's bits, and eps' = sum_j omega_Pj^2 (2 w + i Gamma_j) / D_j^2
    the bits of numpy's complex128 scalars at real w, where 2.0*w + 1j*g is
    (2 w + 0.0, g + 0.0).  An undamped oscillator hit exactly raises
    _eps's PoleHit, before its eps' term is taken."""
    w2, tw = w * w, 2.0 * w + 0.0
    er, ei, dr, di = 1.0, 0.0, 0.0, 0.0
    for p2, t2, g in m._coeffs:
        br, bi = t2 - w2, 0.0 - w * g
        if abs(br) >= abs(bi):
            if br == 0 and bi == 0:
                raise _pole_hit(m, (p2, t2, g))
            rat = bi / br
            scl = 1.0 / (br + bi * rat)
            er += p2 * scl
            ei += (0.0 - p2 * rat) * scl
        else:
            rat = br / bi
            scl = 1.0 / (bi + br * rat)
            er += (p2 * rat + 0.0) * scl
            ei -= p2 * scl
        # _quotient(p2 (2 w + i g), D_j^2), written out
        ar, ai = p2 * tw, p2 * (g + 0.0)
        cr, ci = br * br - bi * bi, br * bi + bi * br
        if abs(cr) >= abs(ci):
            if cr == 0 and ci == 0:
                dr, di = dr + ar * math.inf, di + ai * math.inf
                continue
            rat = ci / cr
            scl = 1.0 / (cr + ci * rat)
            dr += (ar + ai * rat) * scl
            di += (ai - ar * rat) * scl
        else:
            rat = cr / ci
            scl = 1.0 / (ci + cr * rat)
            dr += (ar * rat + ai) * scl
            di += (ai * rat - ar) * scl
    return er, ei, dr, di


# --- reflection ---------------------------------------------------------------

def _rp(m, omega):
    """(Re, Im) of the nonretarded r_p at one real or complex omega, as
    reflection_nonretarded defines it, in Python floats."""
    return _rp_of_eps(*_eps(m, omega))


def _rp_of_eps(er, ei):
    """(Re, Im) of (eps - 1)/(eps + 1) from eps = er + i ei, or the
    SurfaceModePole of _rp."""
    nr, ni = er - 1.0, ei - 0.0  # eps - 1.0
    dr, di = er + 1.0, ei + 0.0  # eps + 1.0
    # abs of a Python complex is libm hypot, as numpy's scalar abs is
    if abs(complex(dr, di)) < POLE_RTOL * abs(complex(nr, ni)):
        raise _surface_mode_pole()
    return _quotient(nr, ni, dr, di)


def _surface_mode_pole():
    return SurfaceModePole(
        "reflection_nonretarded evaluated on a surface-mode pole "
        f"(|eps+1| < {POLE_RTOL:g}*|eps-1|)")


def reflection_nonretarded(m, omega):
    """Nonretarded p-reflection (eps - 1)/(eps + 1).

    Raises SurfaceModePole when |eps + 1| < POLE_RTOL * |eps - 1|, i.e. the
    evaluation sits numerically on a surface-mode pole.  One number gives
    np.complex128, worked in Python floats with numpy's complex128 scalar
    rounding, as permittivity is; permittivity raises TypeError for
    anything else.
    """
    return np.complex128(complex(*_rp(m, omega)))


def reflection_imag_axis(m, xi):
    """(eps(i xi) - 1)/(eps(i xi) + 1): real, in (0, 1), decreasing."""
    eps = permittivity_imag_axis(m, xi)
    return (eps - 1.0) / (eps + 1.0)


def fresnel(eps, omega, k_rho):
    """Fresnel reflection coefficients (r_s, r_p) of the half-space of
    permittivity eps = permittivity(m, omega) at real omega > 0, over an
    array of k_rho >= 0 (a number gives numpy scalars).  eps and omega are
    one value each, or arrays of the shape of k_rho that give each node its
    own frequency.

    k_vz = sqrt(omega^2/c^2 - k_rho^2), k_dz = sqrt(eps omega^2/c^2 - k_rho^2),
    both on the branch Im k >= 0;
    r_p = (eps k_vz - k_dz)/(eps k_vz + k_dz), r_s = (k_vz - k_dz)/(k_vz + k_dz).

    green_full's QUADPACK passes call it once per side and round, on the
    k_rho nodes of every frequency of the call, so green_full evaluates
    eps once per frequency and hands it in at each node.  Each node gets
    the bits of a scalar evaluation: omega^2/c^2 is real and k_vz real or
    imaginary, so numpy's vector loop rounds eps omega^2/c^2 and eps k_vz as
    a scalar product would.  NaN is rejected with the other bad values of
    omega and k_rho.
    """
    if not np.min(omega) > 0:
        raise ValueError("omega must be > 0")
    k_rho = np.asarray(k_rho, dtype=float)
    if not k_rho.min() >= 0:
        raise ValueError("k_rho must be >= 0")
    k0 = omega / C
    k2, kr2 = k0 * k0, k_rho * k_rho  # numpy squares as x*x; pow may not
    # the principal root of a real number already has Im >= 0
    k_vz = np.sqrt((k2 - kr2).astype(complex))
    # every eps k2 - k_rho^2 has the imaginary part of eps k2, sign of zero
    # included, and a principal root the sign of that part: only roots of
    # a part of negative sign need a flip to Im >= 0
    ek2 = eps * k2
    k_dz = np.sqrt(ek2 - kr2)
    k_dz = np.where(k_dz.imag < 0, -k_dz, k_dz)
    r_s = (k_vz - k_dz) / (k_vz + k_dz)
    e_vz = eps * k_vz
    r_p = (e_vz - k_dz) / (e_vz + k_dz)
    return r_s, r_p


# --- surface-mode extraction ----------------------------------------------------

def _polish(f, x, a, b, xtol, maxiter=100):
    """Root of f between a and b by Newton steps kept inside the bracket.

    f(x) returns (value, slope), with f(a) < 0 <= f(b) and a on either side
    of b; x is a start between them.  Each value narrows the bracket, and a
    step that would leave it bisects it instead.  Once a step x - f/f' is
    shorter than xtol, the stepped point, clipped to the bracket, is the
    root: this test comes before the bracket test, because below one ulp
    the stepped point equals a bracket end.  Once a bisected bracket is
    shorter than xtol, its midpoint is the root.  A NaN value raises
    ValueError, and maxiter values without convergence raise RuntimeError.
    """
    for _ in range(maxiter):
        fx, slope = f(x)
        if math.isnan(fx):
            raise ValueError(f"the function value at x={x!r} is NaN")
        if fx == 0:
            return float(x)
        if fx < 0:
            a = x
        else:
            b = x
        lo, hi = min(a, b), max(a, b)
        step = fx / slope if slope else math.inf
        if abs(step) < xtol:
            return float(min(max(x - step, lo), hi))
        x = x - step
        if not lo < x < hi:
            x = 0.5 * (lo + hi)
            if hi - lo < xtol:
                return float(x)
    raise RuntimeError(f"no convergence after {maxiter} steps, at x={x!r}")


def _bounded_minimum(f, lo, hi, xatol, maxfun=500):
    """(x, f(x)) at a minimum of f on [lo, hi] by Brent's bounded method.

    A step-for-step transcription of scipy's
    optimize._optimize._minimize_scalar_bounded, the routine behind
    minimize_scalar(method="bounded"), so that the mode finder gets the same
    minimum without importing scipy.  As there, non-finite bounds raise
    ValueError, and the search stops after maxfun calls without an error.
    ROADMAP item 10's peak search deletes it.
    """
    if not (math.isfinite(lo) and math.isfinite(hi)):
        raise ValueError("optimization bounds must be finite scalars")
    if lo > hi:
        raise ValueError("the lower bound exceeds the upper bound")
    sqrt_eps = math.sqrt(2.2e-16)
    golden_mean = 0.5 * (3.0 - math.sqrt(5.0))
    a, b = lo, hi
    fulc = a + golden_mean * (b - a)
    nfc, xf = fulc, fulc
    rat = e = 0.0
    fx = f(xf)
    num = 1
    ffulc = fnfc = fx
    xm = 0.5 * (a + b)
    tol1 = sqrt_eps * abs(xf) + xatol / 3.0
    tol2 = 2.0 * tol1

    while abs(xf - xm) > tol2 - 0.5 * (b - a):
        golden = True
        if abs(e) > tol1:  # try a parabolic fit
            golden = False
            r = (xf - nfc) * (fx - ffulc)
            q = (xf - fulc) * (fx - fnfc)
            p = (xf - fulc) * q - (xf - nfc) * r
            q = 2.0 * (q - r)
            if q > 0.0:
                p = -p
            q = abs(q)
            r = e
            e = rat
            if abs(p) < abs(0.5 * q * r) and q * (a - xf) < p < q * (b - xf):
                rat = (p + 0.0) / q
                x = xf + rat
                if (x - a) < tol2 or (b - x) < tol2:
                    rat = math.copysign(tol1, xm - xf) if xm != xf else tol1
            else:
                golden = True
        if golden:
            e = (a - xf) if xf >= xm else (b - xf)
            rat = golden_mean * e

        step = max(abs(rat), tol1)
        x = xf + (math.copysign(step, rat) if rat else step)
        fu = f(x)
        num += 1
        if fu <= fx:
            if x >= xf:
                a = xf
            else:
                b = xf
            fulc, ffulc = nfc, fnfc
            nfc, fnfc = xf, fx
            xf, fx = x, fu
        else:
            if x < xf:
                a = x
            else:
                b = x
            if fu <= fnfc or nfc == xf:
                fulc, ffulc = nfc, fnfc
                nfc, fnfc = x, fu
            elif fu <= ffulc or fulc == xf or fulc == nfc:
                fulc, ffulc = x, fu

        xm = 0.5 * (a + b)
        tol1 = sqrt_eps * abs(xf) + xatol / 3.0
        tol2 = 2.0 * tol1
        if num >= maxfun:
            break
    return xf, fx


def _roots(p):
    """np.roots(p), bit for bit, of a float coefficient array p (highest
    power first) whose leading coefficient is nonzero, as every polynomial
    of the mode finder and of the pole table is: the eigenvalues of the
    same companion matrix by one eigvals call, then a root at 0 for each
    trailing zero coefficient, without np.roots' general checks."""
    n = p.size
    while n > 1 and p[n - 1] == 0:
        n -= 1
    if n == 1:
        roots = np.zeros(0)
    else:
        a = np.eye(n - 1, k=-1)
        a[0] = -p[1:n] / p[0]
        roots = np.linalg.eigvals(a)
    if n == p.size:
        return roots
    return np.append(roots, np.zeros(p.size - n, roots.dtype))


def _over_common_denominator(lead, factors, numerators):
    """The numerator of lead + sum_j n_j / f_j over the common denominator
    prod_j f_j: lead prod_j f_j + sum_j n_j prod_{k != j} f_k, each
    polynomial a coefficient sequence, highest power first, and every
    n_j prod_{k != j} f_k of lower degree than prod_j f_j.  The products
    are np.convolve chains, and the n_j terms add in order, each aligned
    at the constant term."""
    poly = np.array([lead])
    for f in factors:
        poly = np.convolve(poly, f)
    for j, num in enumerate(numerators):
        for k, f in enumerate(factors):
            if k != j:
                num = np.convolve(num, f)
        poly[-len(num):] += num
    return poly


def _imag_axis_rational(m):
    """(unit, a, e): r_p(i xi) = A(x)/E(x) at x = xi/unit, unit the
    largest omega_T, with A and E coefficient arrays, highest power first.

    With Q_j(x) = x^2 + g_j x + t_j^2 and P_j = p_j^2 (p, t and g the
    oscillator's omega_P, omega_T and gamma over unit), eps(i xi) - 1 is
    sum_j P_j/Q_j, so A = sum_j P_j prod_{k != j} Q_k, of degree
    2 N_osc - 2, and E = 2 prod_j Q_j + A, of degree 2 N_osc.  Every
    coefficient is a ratio of frequencies, so scaling all of them by 2^k
    leaves both arrays unchanged bit for bit.
    """
    unit = max(o.omega_T for o in m.oscillators)
    factors, numerators = [], []
    for o in m.oscillators:
        t, p = o.omega_T / unit, o.omega_P / unit
        factors.append([1.0, o.gamma_damp / unit, t * t])
        numerators.append([p * p])
    return (unit, _over_common_denominator(0.0, factors, numerators),
            _over_common_denominator(2.0, factors, numerators))


def _ascending_eps_roots(m):
    """Real frequencies where Re eps crosses -1 from below (ascending).

    These are the surface-mode locations; the descending crossings just above
    each omega_T carry negligible Im r_p weight.

    With s = omega^2, Re eps + 1 = 2 + sum_j P_j (T_j - s) / |D_j|^2, where
    P_j = omega_Pj^2, T_j = omega_Tj^2 and |D_j|^2 = (T_j - s)^2 + s gamma_j^2.
    Times prod_j |D_j|^2 it is a polynomial in s (omega scaled by the largest
    omega_T), whose positive real roots are all the crossings, wherever they
    lie.  For an undamped oscillator |D_j|^2 = (T_j - s)^2 would add its pole
    s = T_j as a root, so it contributes the factor T_j - s once instead, and
    its omega_T is kept apart as a pole.  Each root is polished by Newton
    steps on Re eps + 1, with slope Re eps', inside its cell, which reaches
    halfway to the neighbouring roots and poles, so it holds one crossing
    and no pole; the root is ascending when Re eps + 1 rises across the
    cell.
    """
    unit = max(o.omega_T for o in m.oscillators)
    factors, numerators = [], []  # coefficients, highest power first
    for o in m.oscillators:
        t, p = (o.omega_T / unit) ** 2, (o.omega_P / unit) ** 2
        if o.gamma_damp:
            factors.append([1.0, (o.gamma_damp / unit) ** 2 - 2.0 * t, t * t])
            numerators.append([-p, p * t])
        else:
            factors.append([-1.0, t])
            numerators.append([p])
    s = _roots(_over_common_denominator(2.0, factors, numerators))
    # the real positive roots, tested against numpy's complex abs, whose
    # bits are not libm hypot's
    roots = [unit * math.sqrt(x.real)
             for x, size in zip(s.tolist(), np.abs(s).tolist())
             if abs(x.imag) <= 1e-9 * size and x.real > 0]
    if not roots:
        return []
    poles = [o.omega_T for o in m.oscillators if not o.gamma_damp]
    # (omega, is a root), ascending; where a root equals a pole, the edge
    # between them is that pole, so the root's cell is dropped below in
    # either order
    fences = sorted([(r, True) for r in roots] + [(p, False) for p in poles])
    w = [x for x, _ in fences]
    edges = [0.5 * w[0], *(0.5 * (a + b) for a, b in zip(w, w[1:])),
             2.0 * w[-1]]
    # a midpoint can round onto a pole only when two fences are a few ulp
    # apart; it is then not evaluated, and its cells are dropped
    f = [math.nan if e in poles else _real_eps(m, e)[0] + 1.0
         for e in edges]

    def slope(x):  # (Re eps + 1, Re eps')
        er, _, dr, _ = _eps_deps(m, x)
        return er + 1.0, dr

    return [_polish(slope, w[i], edges[i], edges[i + 1], xtol=1e-13 * w[i])
            for i, (_, root) in enumerate(fences)
            if root and f[i] < 0 <= f[i + 1]]


def _width_estimate(m, omega0):
    """FWHM estimate 2 Im eps / Re eps' at an ascending eps = -1 crossing."""
    _, im_eps, deps, _ = _eps_deps(m, omega0)
    if im_eps <= 0 or deps <= 0:
        return None
    return 2.0 * im_eps / deps


def _half_max_point(m, center, peak, step, direction):
    """The omega on one side (direction -1 or +1) of the peak where Im r_p
    falls to half of peak, or None when the march reaches omega <= 0 or
    takes 80 steps.  The march goes out from the centre in steps that
    double from step until Im r_p drops below half; its last step, from
    prev to the first sample (w, y) below half, brackets the point, and
    bracketed Newton steps with slope d Im r_p/d omega =
    Im[eps' (1 - r_p)^2 / 2] polish it.

    Near an isolated surface-mode pole Im r_p is a Lorentzian in omega,
    peak / (1 + ((omega - center)/h)^2), so the sample gives its half-width
    h = |w - center| / sqrt(peak/y - 1), and the polish starts at
    center + (w - center) / sqrt(peak/y - 1), where that Lorentzian is at
    half maximum; from there it takes about a third fewer Newton steps than
    from the secant point of the last step.  Where the start does not lie
    strictly inside the bracket (a peak far from Lorentzian, or y <= 0),
    the secant point is the start.  The start moves only the path of the
    polish, not its bracket or its tolerance."""
    half = 0.5 * peak

    def f(w):
        er, ei, dr, di = _eps_deps(m, w)
        rr, ri = _rp_of_eps(er, ei)
        ar, ai = 1.0 - rr, 0.0 - ri  # 1.0 - r_p
        sr, si = ar * ar - ai * ai, ar * ai + ai * ar  # (1.0 - r_p)^2
        return ri - half, 0.5 * (sr * di + si * dr)  # 0.5 Im[(1 - r_p)^2 eps']

    prev, f_prev, width = center, peak - half, step
    for _ in range(80):
        w = center + direction * width
        if not 0.0 < w < math.inf:
            return None
        y = _real_eps(m, w, True)
        f_w = y - half
        if f_w < 0:
            start = center + (w - center) / math.sqrt(peak / y - 1.0) \
                if y > 0 else math.nan
            if not min(prev, w) < start < max(prev, w):
                start = prev + (w - prev) * f_prev / (f_prev - f_w)
            return _polish(f, start, w, prev, xtol=1e-13 * center)
        prev, f_prev = w, f_w
        width *= 2.0
    return None


def find_polariton_modes(m):
    """Locate surface-polariton modes of the material.

    Centers are the interior local maxima of Im r_p, each found by Brent's
    bounded method within +/-5 g0 of an ascending root of Re eps = -1, g0
    being the width estimate 2 Im eps / Re eps' there.  Brent stops once
    the bracket is within 2 (sqrt(eps) |w| + xatol/3) of its best point, so
    a centre is accurate to about 2 sqrt(eps) |w|, 3e-8 relative, and not
    to the 1e-13 relative of its xatol (ROADMAP item 10).  Linewidths are the
    full widths at half maximum of the Im r_p peak: on each side a march
    out of the peak brackets the half-maximum point, and bracketed Newton
    steps polish it, as each root of Re eps = -1 is polished.  Near an
    isolated surface-mode pole Im r_p is a Lorentzian in omega, so the
    polish starts where the Lorentzian through the peak and the march's
    first sample below half is at half maximum, or at the secant point of
    the bracket where that lies outside it (_half_max_point).  Modes are
    returned ascending in center frequency.  Band edges are the midpoints
    between neighbouring centers; the outermost edges are clipped at
    center +/- 5*linewidth.

    Im r_p vanishes identically for a fully undamped material, so there is
    no peak to find and NoModeFound is raised.

    Every omega the search evaluates is real, so each eps, eps' and Im r_p
    it reads comes from a real-axis body, _real_eps or _eps_deps, in one
    pass over the oscillators: Python floats with the bits of
    permittivity, reflection_nonretarded and numpy's complex128 scalars,
    without their cost.
    """
    if not m.oscillators:
        raise NoModeFound("vacuum half-space: r_p vanishes identically")
    roots = _ascending_eps_roots(m)
    if not roots:
        raise NoModeFound("Im r_p has no interior local maximum "
                          "(no ascending eps = -1 crossing)")

    centers, widths, peaks = [], [], []
    for r in roots:
        g0 = _width_estimate(m, r)
        if g0 is None:
            continue
        # refine the peak of Im r_p inside a window around the crossing
        wlo, whi = r - 5.0 * g0, r + 5.0 * g0
        # the sqrt(eps) |w| term of Brent's tolerance dominates this xatol:
        # the centre is good to about 3e-8 relative, not 1e-13 (ROADMAP
        # item 10)
        center, fun = _bounded_minimum(lambda w: -_real_eps(m, w, True),
                                       wlo, whi, xatol=1e-13 * r)
        peak = -fun
        wl = _half_max_point(m, center, peak, g0, -1.0)
        wr = _half_max_point(m, center, peak, g0, +1.0)
        if wl is None or wr is None:
            continue
        centers.append(center)
        widths.append(wr - wl)
        peaks.append(peak)
    if not centers:
        raise NoModeFound("Im r_p has no resolvable interior local maximum")

    order = np.argsort(centers)
    centers = [centers[i] for i in order]
    widths = [widths[i] for i in order]
    peaks = [peaks[i] for i in order]

    modes = []
    n = len(centers)
    for i in range(n):
        lo = (centers[i - 1] + centers[i]) / 2.0 if i > 0 \
            else centers[i] - 5.0 * widths[i]
        hi = (centers[i] + centers[i + 1]) / 2.0 if i < n - 1 \
            else centers[i] + 5.0 * widths[i]
        if n == 1:
            sep = math.inf
        elif 0 < i < n - 1:
            sep = (centers[i + 1] - centers[i - 1]) / 2.0
        else:
            sep = centers[1] - centers[0] if i == 0 \
                else centers[n - 1] - centers[n - 2]
        modes.append(PolaritonMode(
            omega_center=centers[i], linewidth=widths[i],
            band_lo=max(lo, 0.0), band_hi=hi,
            narrow=widths[i] < sep, im_rp_peak=peaks[i]))
    return modes


# --- JSON ingestion -------------------------------------------------------------

def material_from_dict(doc):
    """Build a MaterialModel from a parsed JSON document."""
    check_document(doc, "material")
    name = require(doc, "name")
    oscs_doc = require(doc, "oscillators")
    if not isinstance(oscs_doc, list) or not oscs_doc:
        raise ParseError("oscillators must be a non-empty list",
                         field="oscillators")
    oscs = []
    for i, entry in enumerate(oscs_doc):
        p = f"oscillators[{i}]."
        if not isinstance(entry, dict):
            raise ParseError("oscillator entry must be an object", field=p[:-1])
        unit = require(entry, "unit", p)
        try:
            omega_P = angular_frequency(require(entry, "omega_P", p), unit)
            omega_T = angular_frequency(require(entry, "omega_T", p), unit)
            gamma = angular_frequency(entry.get("gamma", 0.0), unit)
        except (TypeError, ValueError) as exc:
            raise ParseError(str(exc), field=p[:-1]) from None
        try:
            oscs.append(Oscillator(omega_P=omega_P, omega_T=omega_T,
                                   gamma_damp=gamma))
        except ValueError as exc:
            raise ParseError(str(exc), field=p[:-1]) from None
    return MaterialModel(name=str(name), oscillators=tuple(oscs))


def load_material(path):
    """Load a material JSON file; parse errors carry the offending field path."""
    return material_from_dict(read_json(path))
