"""Coincident-point scattering Green tensor above the half-space.

Two routes are provided on purpose and kept independent: the full k_rho
quadrature of the reflected-wave integral, and the nonretarded closed form
G = z^-3 * (c^2/(32 pi w^2)) r_p * diag(1,1,2).  Their agreement for
w z / c << 1 is a consistency check, not a shared code path.

Each k_rho integral is one pass of polshift.quadpack, the package's
transcription of QUADPACK's DQAGSE and DQAGIE, so the full route needs
numpy alone.  Its integrands take the array of a panel pair's nodes, and
each node keeps the bits a scalar evaluation would give.
"""

import math
from typing import NamedTuple

import numpy as np

from .errors import QuadratureFailure
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


def _quad(f, a, b, epsabs, label):
    """Integral of the real integrand f over [a, b] (b finite or inf) to
    QUAD_REL_TOL by the package's QUADPACK pass, which escalates the
    subdivision limit once from QUAD_LIMIT, then raises.

    f takes the float64 array of a panel pair's nodes and returns their
    values; the pass is scipy.integrate.quad's, step for step, so every
    value, error estimate and subdivision is the one quad would give.

    quadpack is imported here, on the first full-route call, so that a
    nonretarded command does not load it while it starts up.
    """
    from . import quadpack

    for lim in (QUAD_LIMIT, 8 * QUAD_LIMIT):
        val, err = quadpack.quad(f, a, b, epsabs, QUAD_REL_TOL, lim)[:2]
        if err <= max(epsabs, QUAD_REL_TOL * abs(val)) * 10.0:
            return val
    raise QuadratureFailure(
        f"green_full quadrature ({label}) did not reach tolerance "
        f"epsrel={QUAD_REL_TOL:g} within {8 * QUAD_LIMIT} subdivisions")


def _each(fn, x):
    """fn (a math function) at every node of the float array x: numpy's
    own exp and hypot round some values otherwise than libm, and each node
    must keep the bits of a scalar evaluation."""
    return np.fromiter(map(fn, x.tolist()), float, len(x))


def _times(a, b):
    """a * b of two complex arrays, each product rounded on its own as in
    a complex scalar product: numpy's vector loop may fuse a multiply and an
    add there.  Products with one real or imaginary factor need no care."""
    out = np.empty(a.shape, dtype=complex)
    out.real = a.real * b.real - a.imag * b.imag
    out.imag = a.real * b.imag + a.imag * b.real
    return out


def green_full(m, z, omega, *, part=None):
    """Full reflected-wave Green tensor by adaptive k_rho quadrature.

    The integral (i/8 pi) int dk_rho (k_rho/k_vz) e^{2 i k_vz z}
    [r_s diag(1,1,0) + r_p (c/omega)^2 diag(-k_vz^2, -k_vz^2, 2 k_rho^2)]
    is split at the light line k_rho = omega/c.  On the propagating side the
    substitution k_rho = (omega/c) sin(theta) removes the 1/k_vz singularity;
    on the evanescent side k_vz = i kappa turns the integrand into a smooth
    exponentially damped function of kappa.

    eps(omega) and (c/omega)^2 do not depend on k_rho, so they are evaluated
    once per call, not at every quadrature node.  The integrands work on
    the array of nodes of a panel pair, one fresnel call per array.

    Each of the four integrals is two real quadratures, one per part of G.
    part="real" or "imag" runs only that part's, half the k_rho nodes, and
    leaves NaN in the other part; part=None is both single-part integrals.
    A caller that reads only Re G (the photon line) or only Im G (the
    resonant amplitude) asks for that part alone.
    """
    if not z > 0:
        raise ValueError("z must be > 0")
    if not omega > 0:
        raise ValueError("omega must be > 0 (real) for the full quadrature")
    if part not in (None, "real", "imag"):
        raise ValueError(f"part must be None, 'real' or 'imag', not {part!r}")
    eps = permittivity(m, omega)
    k0, cw = omega / C, C / omega
    cw2 = cw * cw
    scale = C**2 / (32.0 * math.pi * (omega * omega) * cube(z))
    epsabs = QUAD_REL_TOL * scale

    # propagating side: k_rho = k0 sin(theta), k_vz = k0 cos(theta),
    # (k_rho/k_vz) dk_rho = k0 sin(theta) dtheta
    def prop(theta, want_zz):
        s, c_ = _each(math.sin, theta), _each(math.cos, theta)
        r_s, r_p = fresnel(eps, omega, k0 * s)
        phase = np.exp(1j * (2.0 * k0 * c_ * z))
        common = 1j * (1.0 / (8.0 * math.pi) * k0 * s) * phase
        if want_zz:
            return _times(common, r_p) * (2.0 * s * s)
        return _times(common, r_s - r_p * c_ * c_)

    # evanescent side: k_vz = i kappa, k_rho^2 = kappa^2 + k0^2,
    # (i/8 pi)(k_rho/k_vz) dk_rho = (1/8 pi) dkappa.  Rescaling to the
    # dimensionless u = 2 kappa z gives an O(1)-width e^{-u} integrand that
    # the infinite-interval transform samples well at any z.
    def evan(u, want_zz):
        kappa = u / (2.0 * z)
        k_rho = np.array([math.hypot(k, k0) for k in kappa.tolist()])
        r_s, r_p = fresnel(eps, omega, k_rho)
        common = _each(math.exp, -u) / (8.0 * math.pi) / (2.0 * z)
        if want_zz:
            return common * r_p * cw2 * 2.0 * (k_rho * k_rho)
        return common * (r_s + r_p * cw2 * (kappa * kappa))

    def integral(f, a, b, label):
        re = math.nan if part == "imag" else \
            _quad(lambda x: f(x).real, a, b, epsabs, label)
        im = math.nan if part == "real" else \
            _quad(lambda x: f(x).imag, a, b, epsabs, label)
        return complex(re, im)

    gxx = (integral(lambda t: prop(t, False), 0.0, math.pi / 2,
                    "xx propagating")
           + integral(lambda u: evan(u, False), 0.0, math.inf,
                      "xx evanescent"))
    gzz = (integral(lambda t: prop(t, True), 0.0, math.pi / 2,
                    "zz propagating")
           + integral(lambda u: evan(u, True), 0.0, math.inf,
                      "zz evanescent"))
    return GreenTensor3(gxx, gzz)


def green_full_imag_axis(m, z, xi):
    """Full reflected-wave Green tensor at omega = i*xi (xi > 0); real result.

    With kappa_v = sqrt(xi^2/c^2 + k_rho^2), kappa_d = sqrt(eps(i xi) xi^2/c^2
    + k_rho^2) the integrand is (1/8 pi)(k_rho/kappa_v) e^{-2 kappa_v z}
    [r_s diag(1,1,0) - (c/xi)^2 r_p diag(kappa_v^2, kappa_v^2, 2 k_rho^2)].
    The integrand is real, and the imaginary part of the tensor is exactly
    0.
    """
    if not z > 0:
        raise ValueError("z must be > 0")
    if not xi > 0:
        raise ValueError("xi must be > 0")
    eps = permittivity_imag_axis(m, xi)
    k0, cx = xi / C, C / xi
    cx2 = cx * cx
    scale = C**2 / (32.0 * math.pi * (xi * xi) * cube(z))
    epsabs = QUAD_REL_TOL * scale

    # rescale to u = 2 k_rho z so the e^{-2 kappa_v z} damping has O(1) width
    def integrand(u, want_zz):
        k_rho = u / (2.0 * z)
        kv = np.array([math.hypot(k, k0) for k in k_rho.tolist()])
        kd = np.sqrt(eps * k0 * k0 + k_rho * k_rho)
        r_s = (kv - kd) / (kv + kd)
        e_kv = eps * kv
        r_p = (e_kv - kd) / (e_kv + kd)
        common = ((k_rho / kv) * _each(math.exp, -2.0 * kv * z)
                  / (8.0 * math.pi) / (2.0 * z))
        if want_zz:
            return -common * cx2 * r_p * 2.0 * (k_rho * k_rho)
        return common * (r_s - cx2 * r_p * (kv * kv))

    gxx = _quad(lambda u: integrand(u, False), 0.0, math.inf, epsabs,
                "xx imag-axis")
    gzz = _quad(lambda u: integrand(u, True), 0.0, math.inf, epsabs,
                "zz imag-axis")
    return GreenTensor3(complex(gxx, 0.0), complex(gzz, 0.0))
