"""Coincident-point scattering Green tensor above the half-space.

Two routes are provided on purpose and kept independent: the full k_rho
quadrature of the reflected-wave integral, and the nonretarded closed form
G = z^-3 * (c^2/(32 pi w^2)) r_p * diag(1,1,2).  Their agreement for
w z / c << 1 is a consistency check, not a shared code path.

Each k_rho integral is one pass of polshift.quadpack, the package's
transcription of QUADPACK's DQAGSE and DQAGIE, so the full route needs
numpy alone.  The passes of one Green call run in one lockstep, also
when the call takes a sequence of frequencies (green_full and
green_full_imag_axis); the one departure from one pass per integral is how
the integrand is called.  Each side of the light line, and the imaginary
axis, is an integrand family that takes the nodes of every panel a round
asks for, at every frequency of the call, and returns xx and zz (real and
imaginary parts on the real axis) at each.  The families evaluate their
nodes with numpy ufuncs on the round's node arrays, and a node's value does
not depend on the array it is evaluated in: its length, its order or the
other nodes and frequencies in it.  So every integral has the bits of its
own pass, and a call over a sequence of frequencies the bits of its calls
one frequency at a time.  A node's last bits are those of numpy's float64
sin, cos, exp and hypot, not of the math module's: where numpy dispatches
exp to a SIMD kernel (AVX-512 on x86-64) it rounds some values otherwise
than libm, so the full route's last bits can differ between hosts.
"""

import math
from typing import NamedTuple

import numpy as np

from .errors import PhysicsError, QuadratureFailure
from .material import _rp, fresnel, permittivity, permittivity_imag_axis
from .units import C, cube

#: relative accuracy target of every k_rho quadrature: quad's epsrel, and
#: epsabs = QUAD_REL_TOL times the nonretarded scale c^2/(32 pi w^2 z^3)
QUAD_REL_TOL = 1e-8

#: quad's subdivision limit on the first try; a failed try is repeated once
#: with 8 * QUAD_LIMIT before QuadratureFailure is raised
QUAD_LIMIT = 200


class GreenTensor3(NamedTuple):
    """Coincident-point Green tensor diag(xx, xx, zz) at one frequency: for
    the planar geometry it is diagonal with G_yy = G_xx.

    A tensor from green_full(..., part="real") or part="imag" holds NaN in
    the part that was not integrated, never 0, so that reading it shows."""

    xx: complex
    zz: complex

    @property
    def trace(self):
        # part by part, so that a NaN in one part does not spill into the
        # other, as it would through the complex product 2.0 * xx
        return complex(2.0 * self.xx.real + self.zz.real,
                       2.0 * self.xx.imag + self.zz.imag)

    @property
    def im_trace(self):
        return self.trace.imag


def green_nonretarded(m, z, omega):
    """Nonretarded closed form z^-3 (c^2/(32 pi omega^2)) r_p diag(1,1,2)
    at one omega, which may be complex; xx and zz are complex numbers.
    r_p has the bits of reflection_nonretarded, read as a float pair."""
    if not z > 0:
        raise ValueError("z must be > 0")
    r_p = complex(*_rp(m, omega))
    gxx = C**2 / (32.0 * math.pi * (omega * omega) * cube(z)) * r_p
    return GreenTensor3(gxx, 2.0 * gxx)


def _integrate(integrals):
    """The value of each (f, key, comp, a, b, epsabs, label) of integrals,
    the quadpack.Integral of its first six fields, to QUAD_REL_TOL by the
    package's QUADPACK passes, all in one lockstep.

    An integral that misses the tolerance is run again, in one lockstep
    with the others that missed it, at 8 * QUAD_LIMIT subdivisions; if any
    misses it there too, the first of them in the order of integrals
    raises QuadratureFailure, naming its label.  Each value, error estimate
    and subdivision is the one scipy.integrate.quad gives the integral
    alone.  An empty list runs no lockstep.

    quadpack is imported here, on the first full-route call, so that a
    nonretarded command does not load it while it starts up.
    """
    from . import quadpack

    values = [None] * len(integrals)
    todo = range(len(integrals))
    for lim in (QUAD_LIMIT, 8 * QUAD_LIMIT):
        if not todo:
            return values
        got = quadpack.lockstep([quadpack.Integral(
            *integrals[i][:6], QUAD_REL_TOL, lim) for i in todo])
        missed = []
        for i, res in zip(todo, got):
            epsabs = integrals[i][5]
            if res.abserr <= max(epsabs, QUAD_REL_TOL * abs(res.value)) * 10.0:
                values[i] = res.value
            else:
                missed.append(i)
        todo = missed
    if not todo:
        return values
    raise QuadratureFailure(
        f"green_full quadrature ({integrals[todo[0]][6]}) did not reach "
        f"tolerance epsrel={QUAD_REL_TOL:g} within {8 * QUAD_LIMIT} "
        "subdivisions")


def _times(a, b):
    """a * b of two complex arrays, each product rounded on its own as in
    a complex scalar product: numpy's vector loop may fuse a multiply and an
    add there.  Products with one real or imaginary factor need no care."""
    out = np.empty(a.shape, dtype=complex)
    out.real = a.real * b.real - a.imag * b.imag
    out.imag = a.real * b.imag + a.imag * b.real
    return out


#: the offsets of the real and imaginary quadratures that each part of
#: green_full runs, after the xx or zz offset of an integrand's output
_COMPONENTS = {None: (0, 1), "real": (0,), "imag": (1,)}


def green_full(m, z, omega, *, part=None):
    """Full reflected-wave Green tensor by adaptive k_rho quadrature.

    The integral (i/8 pi) int dk_rho (k_rho/k_vz) e^{2 i k_vz z}
    [r_s diag(1,1,0) + r_p (c/omega)^2 diag(-k_vz^2, -k_vz^2, 2 k_rho^2)]
    is split at the light line k_rho = omega/c.  On the propagating side the
    substitution k_rho = (omega/c) sin(theta) removes the 1/k_vz singularity;
    on the evanescent side k_vz = i kappa turns the integrand into a smooth
    exponentially damped function of kappa.

    omega is one real number, which gives one GreenTensor3, or a 1-D
    sequence of them, which gives the list of their tensors, each bit for
    bit the one its own call gives.  eps(omega) and (c/omega)^2 do not
    depend on k_rho, so they are evaluated once per omega, not at every
    quadrature node.

    Each of the four integrals is two real quadratures, one per part of G.
    part="real" or "imag" runs only that part's and leaves NaN in the
    other part; part=None is both single-part integrals.  A caller that
    reads only Re G (the photon line) or only Im G (the resonant amplitude)
    asks for that part alone.  With a sequence of omegas, part may also be
    a list or tuple of as many parts, one per omega, so that callers that
    read different parts at different omegas share one call (the full
    route's distance_terms).  Every quadrature of the call runs in one
    lockstep, one integrand call per side and round on the nodes of all of
    them, so each side evaluates a panel that several quadratures share
    (xx and zz, Re and Im) once.  A node's value does not depend on the
    nodes evaluated with it, so that sharing keeps each integral's bits; its
    last bits follow numpy's ufuncs on the host (see the module docstring).
    A failure is the one the calls one omega at a time would raise first.
    """
    if not z > 0:
        raise ValueError("z must be > 0")
    single = np.ndim(omega) == 0
    omegas = [omega] if single else list(omega)
    for w in omegas:
        if not w > 0:
            raise ValueError(
                "omega must be > 0 (real) for the full quadrature")
    parts = list(part) if not single and isinstance(part, (list, tuple)) \
        else [part] * len(omegas)
    if len(parts) != len(omegas):
        raise ValueError("part must give one part per omega")
    for p in parts:
        if p not in (None, "real", "imag"):
            raise ValueError(
                f"part must be None, 'real' or 'imag', not {p!r}")
    # the calls one omega at a time would raise a PhysicsError of eps
    # after the quadratures of the omegas before it
    eps, failure = [], None
    for w in omegas:
        try:
            eps.append(permittivity(m, w))
        except PhysicsError as exc:
            failure = exc
            break
    omegas = [float(w) for w in omegas[:len(eps)]]
    eps = np.array(eps)
    ws = np.array(omegas)
    k0 = ws / C
    cw2 = (C / ws) * (C / ws)

    # propagating side: k_rho = k0 sin(theta), k_vz = k0 cos(theta),
    # (k_rho/k_vz) dk_rho = k0 sin(theta) dtheta.  at holds the index of
    # the omega of each node.
    def prop(theta, at):
        k0_at = k0[at]
        s, c_ = np.sin(theta), np.cos(theta)
        r_s, r_p = fresnel(eps[at], ws[at], k0_at * s)
        phase = np.exp(1j * (2.0 * k0_at * c_ * z))
        common = 1j * (1.0 / (8.0 * math.pi) * k0_at * s) * phase
        gxx = _times(common, r_s - r_p * c_ * c_)
        gzz = _times(common, r_p) * (2.0 * s * s)
        return gxx.real, gxx.imag, gzz.real, gzz.imag

    # evanescent side: k_vz = i kappa, k_rho^2 = kappa^2 + k0^2,
    # (i/8 pi)(k_rho/k_vz) dk_rho = (1/8 pi) dkappa.  Rescaling to the
    # dimensionless u = 2 kappa z gives an O(1)-width e^{-u} integrand that
    # the infinite-interval transform samples well at any z.
    def evan(u, at):
        kappa = u / (2.0 * z)
        k_rho = np.hypot(kappa, k0[at])
        r_s, r_p = fresnel(eps[at], ws[at], k_rho)
        common = np.exp(-u) / (8.0 * math.pi) / (2.0 * z)
        cw2_at = cw2[at]
        gxx = common * (r_s + r_p * cw2_at * (kappa * kappa))
        gzz = common * r_p * cw2_at * 2.0 * (k_rho * k_rho)
        return gxx.real, gxx.imag, gzz.real, gzz.imag

    # one omega's integrals in the order its own call runs them: xx, then
    # zz, the propagating side before the evanescent one, Re before Im
    sides = ((prop, 0.0, math.pi / 2, "propagating"),
             (evan, 0.0, math.inf, "evanescent"))
    integrals = []
    for at, (w, p) in enumerate(zip(omegas, parts)):
        epsabs = QUAD_REL_TOL * (C**2 / (32.0 * math.pi * (w * w) * cube(z)))
        integrals += [(f, at, comp + q, a, b, epsabs, f"{name} {side}")
                      for comp, name in ((0, "xx"), (2, "zz"))
                      for f, a, b, side in sides for q in _COMPONENTS[p]]
    values = iter(_integrate(integrals))

    def integral(p):
        re = math.nan if p == "imag" else next(values)
        im = math.nan if p == "real" else next(values)
        return complex(re, im)

    # each entry is its propagating integral plus its evanescent one
    tensors = [GreenTensor3(integral(p) + integral(p),
                            integral(p) + integral(p))
               for p in parts[:len(omegas)]]
    if failure is not None:
        raise failure
    return tensors[0] if single else tensors


def green_full_imag_axis(m, z, xi):
    """Full reflected-wave Green tensor at omega = i*xi (xi > 0); real result.

    With kappa_v = sqrt(xi^2/c^2 + k_rho^2), kappa_d = sqrt(eps(i xi) xi^2/c^2
    + k_rho^2) the integrand is (1/8 pi)(k_rho/kappa_v) e^{-2 kappa_v z}
    [r_s diag(1,1,0) - (c/xi)^2 r_p diag(kappa_v^2, kappa_v^2, 2 k_rho^2)].
    The integrand is real, and the imaginary part of the tensor is exactly
    0.

    xi is one real number, which gives one GreenTensor3, or a 1-D sequence
    of them, which gives the list of their tensors, each bit for bit the
    one its own call gives.  A xi <= 0 anywhere raises ValueError before
    any quadrature runs.  The xx and zz integrals of every xi run in one
    lockstep, one integrand family keyed by the index of xi, whose value at
    a node does not depend on the nodes evaluated with it (its last bits
    follow numpy's ufuncs on the host, see the module docstring), and a
    QuadratureFailure is the one the calls one xi at a time would raise
    first.
    """
    if not z > 0:
        raise ValueError("z must be > 0")
    single = np.ndim(xi) == 0
    xis = [xi] if single else list(xi)
    for x in xis:
        if not x > 0:
            raise ValueError("xi must be > 0")
    eps = np.array([permittivity_imag_axis(m, x) for x in xis])
    xis = [float(x) for x in xis]
    xs = np.array(xis)
    k0, cx = xs / C, C / xs
    cx2 = cx * cx

    # rescale to u = 2 k_rho z so the e^{-2 kappa_v z} damping has O(1) width
    def integrand(u, at):
        k_rho = u / (2.0 * z)
        k0_at, eps_at, cx2_at = k0[at], eps[at], cx2[at]
        kv = np.hypot(k_rho, k0_at)
        kd = np.sqrt(eps_at * k0_at * k0_at + k_rho * k_rho)
        r_s = (kv - kd) / (kv + kd)
        e_kv = eps_at * kv
        r_p = (e_kv - kd) / (e_kv + kd)
        common = ((k_rho / kv) * np.exp(-2.0 * kv * z)
                  / (8.0 * math.pi) / (2.0 * z))
        return (common * (r_s - cx2_at * r_p * (kv * kv)),
                -common * cx2_at * r_p * 2.0 * (k_rho * k_rho))

    integrals = []
    for at, x in enumerate(xis):
        epsabs = QUAD_REL_TOL * (C**2 / (32.0 * math.pi * (x * x) * cube(z)))
        integrals += [(integrand, at, comp, 0.0, math.inf, epsabs,
                       f"{name} imag-axis")
                      for comp, name in ((0, "xx"), (1, "zz"))]
    values = _integrate(integrals)
    tensors = [GreenTensor3(complex(gxx, 0.0), complex(gzz, 0.0))
               for gxx, gzz in zip(values[::2], values[1::2])]
    return tensors[0] if single else tensors
