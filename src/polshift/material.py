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
    order, built once, so that the permittivity, which the Matsubara sum and
    the mode finder call one value at a time, reads three floats per
    oscillator instead of squaring two attributes; it takes no part in
    equality, hashing or repr.  Each square is one correctly rounded
    product, so it scales exactly when every frequency is scaled by 2^k
    (x**2 goes through libm pow, which misrounds some x).
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

def permittivity(m, omega):
    """Drude-Lorentz permittivity eps(omega) for complex angular frequency.

    eps = 1 + sum_j omega_Pj^2 / (omega_Tj^2 - omega^2 - i omega Gamma_j).
    Raises PoleHit when an undamped oscillator is evaluated exactly on its
    resonance.  One number (int, float or complex, np.float64 and
    np.complex128 included) gives np.complex128, worked in numpy complex128
    scalars: plain Python complex would divide with other rounding.  Any
    other argument, an array or a list among them, raises TypeError.
    """
    if not isinstance(omega, (int, float, complex)):
        raise TypeError(f"omega must be one number, not {type(omega)!r}")
    w = np.complex128(omega)
    w2, eps = w * w, np.complex128(1.0)
    for j, (p2, t2, g) in enumerate(m._coeffs):
        denom = t2 - w2 - 1j * omega * g
        if denom == 0:
            raise _pole_hit(m, j)
        eps = eps + p2 / denom
    return eps


def _pole_hit(m, j):
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
    if xi < 0:
        raise ValueError("xi must be >= 0")
    eps, xi2 = 1.0, xi * xi
    for p2, t2, g in m._coeffs:
        eps = eps + p2 / (t2 + xi2 + xi * g)
    return eps


def _permittivity_derivative(m, omega):
    """Analytic d eps / d omega (np.complex128) at one real omega."""
    w = np.complex128(omega)
    w2, d = w * w, np.complex128(0.0)
    for p2, t2, g in m._coeffs:
        denom = t2 - w2 - 1j * omega * g
        d = d + p2 * (2.0 * w + 1j * g) / (denom * denom)
    return d


# --- reflection ---------------------------------------------------------------

def reflection_nonretarded(m, omega):
    """Nonretarded p-reflection (eps - 1)/(eps + 1).

    Raises SurfaceModePole when |eps + 1| < POLE_RTOL * |eps - 1|, i.e. the
    evaluation sits numerically on a surface-mode pole.  One number gives
    np.complex128; permittivity raises TypeError for anything else.
    """
    eps = permittivity(m, omega)
    num = eps - 1.0
    den = eps + 1.0
    if abs(den) < POLE_RTOL * abs(num):
        raise SurfaceModePole(
            "reflection_nonretarded evaluated on a surface-mode pole "
            f"(|eps+1| < {POLE_RTOL:g}*|eps-1|)")
    return num / den


def reflection_imag_axis(m, xi):
    """(eps(i xi) - 1)/(eps(i xi) + 1): real, in (0, 1), decreasing."""
    eps = permittivity_imag_axis(m, xi)
    return (eps - 1.0) / (eps + 1.0)


def fresnel(eps, omega, k_rho):
    """Fresnel reflection coefficients (r_s, r_p) of the half-space of
    permittivity eps = permittivity(m, omega) at one real omega > 0, over
    an array of k_rho >= 0 (a number gives numpy scalars).

    k_vz = sqrt(omega^2/c^2 - k_rho^2), k_dz = sqrt(eps omega^2/c^2 - k_rho^2),
    both on the branch Im k >= 0;
    r_p = (eps k_vz - k_dz)/(eps k_vz + k_dz), r_s = (k_vz - k_dz)/(k_vz + k_dz).

    green_full's QUADPACK pass calls it once per panel pair, on the 42 or
    30 k_rho nodes of one part of G at one fixed omega, so green_full
    evaluates eps once and hands it in.  Each node gets the bits of a
    scalar evaluation: eps k_vz has a real or an imaginary k_vz, so numpy's
    vector loop rounds it as a scalar product would.  NaN is rejected with
    the other bad values of omega and k_rho.
    """
    if not omega > 0:
        raise ValueError("omega must be > 0")
    k_rho = np.asarray(k_rho, dtype=float)
    if not k_rho.min() >= 0:
        raise ValueError("k_rho must be >= 0")
    k0 = omega / C
    k2, kr2 = k0 * k0, k_rho * k_rho  # numpy squares as x*x; pow may not
    # the principal root of a real number already has Im >= 0
    k_vz = np.sqrt((k2 - kr2).astype(complex))
    # every eps k2 - k_rho^2 has the imaginary part of eps k2, sign of zero
    # included, and a principal root the sign of that part: only a negative
    # sign leaves roots to flip to Im >= 0
    ek2 = eps * k2
    k_dz = np.sqrt(ek2 - kr2)
    if math.copysign(1.0, ek2.imag) < 0:
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
        fx, slope = map(float, f(x))
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
    ROADMAP item 4's peak search deletes it.
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


def _im_rp(m, omega):
    return reflection_nonretarded(m, omega).imag


def _re_eps_plus_one(m, omega):
    return permittivity(m, omega).real + 1.0


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
    poly = np.array([2.0])
    for f in factors:
        poly = np.convolve(poly, f)
    for j, num in enumerate(numerators):
        for k, f in enumerate(factors):
            if k != j:
                num = np.convolve(num, f)
        poly[1:] += num  # one degree below 2 prod_j |D_j|^2
    s = np.roots(poly)
    s = s.real[(np.abs(s.imag) <= 1e-9 * np.abs(s)) & (s.real > 0)]
    roots = unit * np.sqrt(s)
    poles = [o.omega_T for o in m.oscillators if not o.gamma_damp]
    fences = np.concatenate((roots, poles))
    order = np.argsort(fences)
    fences, is_root = fences[order], order < roots.size
    if not is_root.any():
        return []
    edges = np.concatenate(([0.5 * fences[0]],
                            0.5 * (fences[:-1] + fences[1:]),
                            [2.0 * fences[-1]]))
    # a midpoint can round onto a pole only when two fences are a few ulp
    # apart; it is then not evaluated, and its cells are dropped
    edges[np.isin(edges, poles)] = np.nan
    f = np.array([_re_eps_plus_one(m, e) for e in edges.tolist()])
    return [_polish(lambda w: (_re_eps_plus_one(m, w),
                               _permittivity_derivative(m, w).real),
                    fences[i], edges[i], edges[i + 1], xtol=1e-13 * fences[i])
            for i in np.flatnonzero(is_root & (f[:-1] < 0) & (f[1:] >= 0))]


def _width_estimate(m, omega0):
    """FWHM estimate 2 Im eps / Re eps' at an ascending eps = -1 crossing."""
    im_eps = float(np.imag(permittivity(m, omega0)))
    deps = float(np.real(_permittivity_derivative(m, omega0)))
    if im_eps <= 0 or deps <= 0:
        return None
    return 2.0 * im_eps / deps


def _half_max_point(m, center, peak, step, direction):
    """The omega on one side (direction -1 or +1) of the peak where Im r_p
    falls to half of peak, or None when the march reaches omega <= 0 or
    takes 80 steps.  The march goes out from the centre in steps that
    double from step until Im r_p drops below half; the polish starts from
    the secant point of its last step, with slope
    d Im r_p/d omega = Im[eps' (1 - r_p)^2 / 2]."""
    half = 0.5 * peak

    def f(w):
        r = reflection_nonretarded(m, w)
        return r.imag - half, 0.5 * (
            (1.0 - r) * (1.0 - r) * _permittivity_derivative(m, w)).imag

    prev, f_prev, width = center, peak - half, step
    for _ in range(80):
        w = center + direction * width
        if not 0.0 < w < math.inf:
            return None
        f_w = _im_rp(m, w) - half
        if f_w < 0:
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
    to the 1e-13 relative of its xatol (ROADMAP item 4).  Linewidths are the
    full widths at half maximum of the Im r_p peak: each half-maximum point
    is bracketed by a march out of the peak and polished by bracketed Newton
    steps, as is each root of Re eps = -1.  Modes are returned ascending in
    center frequency.  Band edges are the midpoints between neighbouring
    centers; the outermost edges are clipped at center +/- 5*linewidth.

    Im r_p vanishes identically for a fully undamped material, so there is
    no peak to find and NoModeFound is raised.
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
        # item 4)
        center, fun = _bounded_minimum(lambda w: -_im_rp(m, w), wlo, whi,
                                       xatol=1e-13 * r)
        center, peak = float(center), -float(fun)
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
