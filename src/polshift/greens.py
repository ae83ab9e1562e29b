"""Coincident-point scattering Green tensor above the half-space.

Two routes are provided on purpose and kept independent: the full k_rho
quadrature of the reflected-wave integral, and the nonretarded closed form
G = z^-3 * (c^2/(32 pi w^2)) r_p * diag(1,1,2).  Their agreement for
w z / c << 1 is a consistency check, not a shared code path.

On the real axis (green_full) each k_rho integral is one pass of
polshift.quadpack, the package's transcription of QUADPACK's DQAGIE, so the
full route needs numpy alone.  Both sides of the light line run on [0, inf):
the evanescent side in u = 2 kappa z, and the propagating side in x with
theta = (pi/2) x/(1 + x), which DQAGIE's own map x = (1 - t)/t turns into
its 15-point Kronrod pass on theta in [0, pi/2], in exact arithmetic.  The
passes of one Green call run in one lockstep at one subdivision budget,
QUAD_LIMIT, also when the call takes a sequence of frequencies, and no
integral is run twice; the one departure from one pass per integral is
how the integrand is called.  Each side is an integrand family that takes
the nodes of every panel a round asks for, at every frequency of the call,
and returns the real and imaginary parts of xx and zz at each.

On the imaginary axis (green_full_imag_axis) the integrand is real, smooth
and e^-s damped in s = 2 z (kappa_v - xi/c), and depends on s only through
s/a, a = 2 xi z/c, so a fixed rule serves every xi: Gauss-Legendre on
[0, s0], s0 = 16 min(a, 1), and Gauss-Laguerre on [s0, inf), 32 nodes each
checked against 64, one miss tried again at 64 against 128, each accepted
as green_full's quadratures are: difference at most 10 max(epsabs,
QUAD_REL_TOL |G|), epsabs = QUAD_REL_TOL c^2/(32 pi xi^2 z^3).  A second
miss raises QuadratureFailure for the first xi of the call with one, xx
before zz.  Every node of every xi of a call is one element of one array,
and each xi's nodes are summed in order.

Both routes evaluate their nodes with numpy ufuncs on node arrays, and a
node's value does not depend on the array it is evaluated in: its length,
its order or the other nodes and frequencies in it.  So every integral has
the bits of its own pass, and a call over a sequence of frequencies the
bits of its calls one frequency at a time.  A node's last bits are those
of numpy's float64 sin, cos, exp and hypot, not of the math module's:
where numpy dispatches exp to a SIMD kernel (AVX-512 on x86-64) it rounds
some values otherwise than libm, so the full route's last bits can differ
between hosts.
"""

import functools
import math
from typing import NamedTuple

import numpy as np

from .errors import PhysicsError, QuadratureFailure
from .material import _rp, fresnel, permittivity
from .units import C, cube

#: relative accuracy target of every k_rho quadrature: quad's epsrel, and
#: epsabs = QUAD_REL_TOL times the nonretarded scale c^2/(32 pi w^2 z^3)
QUAD_REL_TOL = 1e-8

#: quad's subdivision limit, the one budget of every k_rho quadrature: an
#: integral that misses the tolerance within it raises QuadratureFailure
QUAD_LIMIT = 1600


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
    """The value of each (f, key, comp, bound, epsabs, label) of integrals,
    the quadpack.Integral of its first five fields, to QUAD_REL_TOL within
    QUAD_LIMIT subdivisions by the package's QUADPACK passes, all in one
    lockstep.

    A value is taken where its error estimate is at most 10 max(epsabs,
    QUAD_REL_TOL |value|); the first integral in the order of integrals
    that misses that raises QuadratureFailure, naming its label.  Each
    value, error estimate and subdivision is the one scipy.integrate.quad
    gives the integral alone at QUAD_LIMIT, and so, for a pass that ends by
    subdivision QUAD_LIMIT // 2 + 2, at any larger limit: DQAGIE reads its
    limit only in the loop bound, in ier = 1 at the last subdivision it
    allows and in DQPSRT's list bound past subdivision limit // 2 + 2.

    quadpack is imported here, on the first full-route call, so that a
    nonretarded command does not load it while it starts up.
    """
    from . import quadpack

    got = quadpack.lockstep([quadpack.Integral(*i[:5], QUAD_REL_TOL,
                                               QUAD_LIMIT) for i in integrals])
    for (*_, epsabs, label), res in zip(integrals, got):
        if not res.abserr <= max(epsabs, QUAD_REL_TOL * abs(res.value)) * 10.0:
            raise QuadratureFailure(
                f"green_full quadrature ({label}) did not reach tolerance "
                f"epsrel={QUAD_REL_TOL:g} within {QUAD_LIMIT} subdivisions")
    return [res.value for res in got]


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
    substitution k_rho = (omega/c) sin(theta) removes the 1/k_vz singularity,
    and theta = (pi/2) x/(1 + x) puts it on [0, inf) for DQAGIE; on the
    evanescent side k_vz = i kappa turns the integrand into a smooth
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
    # (k_rho/k_vz) dk_rho = k0 sin(theta) dtheta, and theta = (pi/2) x/(1 + x),
    # dtheta = (pi/2) dx/(1 + x)^2.  at holds the index of the omega of each
    # node.
    def prop(x, at):
        k0_at = k0[at]
        theta = math.pi / 2 * x / (1.0 + x)
        dtheta = math.pi / 2 / (1.0 + x) / (1.0 + x)
        s, c_ = np.sin(theta), np.cos(theta)
        r_s, r_p = fresnel(eps[at], ws[at], k0_at * s)
        phase = np.exp(1j * (2.0 * k0_at * c_ * z))
        common = 1j * (1.0 / (8.0 * math.pi) * k0_at * s * dtheta) * phase
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
    sides = ((prop, "propagating"), (evan, "evanescent"))
    integrals = []
    for at, (w, p) in enumerate(zip(omegas, parts)):
        epsabs = QUAD_REL_TOL * (C**2 / (32.0 * math.pi * (w * w) * cube(z)))
        integrals += [(f, at, comp + q, 0.0, epsabs, f"{name} {side}")
                      for comp, name in ((0, "xx"), (2, "zz"))
                      for f, side in sides for q in _COMPONENTS[p]]
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


def _recurrence(n, x, laguerre):
    """(p_n(x), p_n'(x)) of the Laguerre polynomial L_n, or the Legendre
    polynomial P_n, by the three-term recurrence."""
    prev, p = np.ones_like(x), (1.0 - x if laguerre else x)
    for k in range(1, n):
        prev, p = p, (((2 * k + 1 - x) if laguerre else (2 * k + 1) * x) * p
                      - k * prev) / (k + 1)
    if laguerre:
        return p, n * (p - prev) / x
    return p, n * (x * p - prev) / (x * x - 1.0)


def _gauss(n, laguerre):
    """(x, w) of the n-node Gauss-Laguerre rule on [0, inf) (weight e^-x),
    or of Gauss-Legendre on [-1, 1]: the eigenvalues of the Jacobi matrix
    (Golub-Welsch), three Newton steps on the recurrence, and each weight
    from p_n' at its node, so that the tiny weights of the Laguerre tail
    are good to a few ulps, as an eigenvector's components are not."""
    k = np.arange(1.0, n)
    off = -k if laguerre else k / np.sqrt(4.0 * k * k - 1.0)
    jacobi = np.diag(off, 1) + np.diag(off, -1)
    if laguerre:
        jacobi += np.diag(2.0 * np.arange(n) + 1.0)
    x = np.linalg.eigvalsh(jacobi)
    for _ in range(3):
        p, dp = _recurrence(n, x, laguerre)
        x = x - p / dp
    dp = _recurrence(n, x, laguerre)[1]
    if laguerre:
        return x, 1.0 / (x * dp * dp)
    return x, 2.0 / ((1.0 - x * x) * dp * dp)


#: the imaginary-axis rule: Gauss-Legendre on [0, s0] and Gauss-Laguerre on
#: [s0, inf), _NODES nodes on each panel, checked against 2 * _NODES; a
#: miss is tried once more, 2 * _NODES against 4 * _NODES
_NODES = 32

#: s0 = _SPLIT * min(a, 1): the Fresnel coefficients change over s of order
#: a, and past a = 1 that is smooth on the scale of e^-s
_SPLIT = 16.0


@functools.cache
def _imag_axis_nodes(sizes):
    """(alpha, beta, gamma, delta) of the panel pairs of each size of
    sizes, side by side: a xi whose Legendre panel ends at s0 has its nodes
    at s = s0 alpha + beta and its weights e^-s (s0 gamma + delta), the
    Legendre nodes and weights moved to [0, 1] and the Laguerre weights
    scaled by e^u.  Built on the first full-route call."""
    cols = []
    for n in sizes:
        x, w = _gauss(n, False)
        u, v = _gauss(n, True)
        zero = np.zeros(n)
        cols += [((1.0 + x) / 2.0, zero, w / 2.0, zero),
                 (zero + 1.0, u, zero, v * np.exp(u))]
    return tuple(np.concatenate(c) for c in zip(*cols))


def _imag_axis_sums(a, s0, e1, sizes):
    """For the xi of each row of the 1-D arrays a = 2 xi z/c, s0 and e1 =
    eps(i xi) - 1: the sums over each panel pair of sizes of
    weight times F, F the real integrand of green_full_imag_axis in s, as a
    list of (rows, 2) arrays of (xx, zz), one per size.

    Every node of every row is one element of one array, and each row is
    summed in node order by np.add.accumulate, so a row's sums do not
    depend on the other rows (their last bits follow numpy's ufuncs on the
    host, see the module docstring).
    """
    alpha, beta, gamma, delta = _imag_axis_nodes(sizes)
    s0, a, e1 = s0[:, None], a[:, None], e1[:, None]
    eps = 1.0 + e1
    s = s0 * alpha + beta
    weight = np.exp(-s) * (s0 * gamma + delta)
    q = s / a
    t = q + 1.0
    tt = t * t
    d = np.sqrt(e1 + tt)  # kappa_d / k0
    ts, td = t + d, eps * t + d
    r_s = -e1 / (ts * ts)
    r_p = e1 * ((eps + 1.0) * tt - 1.0) / (td * td)
    f = np.empty((2, *s.shape))
    np.multiply(weight, r_s - tt * r_p, out=f[0])
    np.multiply(weight, -2.0 * r_p * (q * (2.0 + q)), out=f[1])
    sums, end = [], 0
    for n in sizes:
        sums.append(np.add.accumulate(f[:, :, end:end + 2 * n],
                                      axis=2)[:, :, -1].T)
        end += 2 * n
    return sums


def green_full_imag_axis(m, z, xi):
    """Full reflected-wave Green tensor at omega = i*xi (xi > 0); real result.

    With k0 = xi/c, kappa_v = sqrt(k0^2 + k_rho^2) and kappa_d =
    sqrt((eps(i xi) - 1) k0^2 + kappa_v^2) the k_rho integrand is
    (1/8 pi)(k_rho/kappa_v) e^{-2 kappa_v z} [r_s diag(1,1,0) - (c/xi)^2 r_p
    diag(kappa_v^2, kappa_v^2, 2 k_rho^2)].  With s = 2 z (kappa_v - k0) and
    a = 2 xi z/c the integral is (e^{-a}/(2 z)) int_0^inf e^{-s} F ds, with
    t = kappa_v/k0 = 1 + s/a and

        F_xx = (r_s - t^2 r_p)/(8 pi),  F_zz = -2 r_p (t - 1)(t + 1)/(8 pi),

    r_s = -(eps - 1)/(t + d)^2 and r_p = (eps - 1)((eps + 1) t^2 - 1)/
    (eps t + d)^2 in cancelled forms, d = kappa_d/k0, and eps - 1 the
    oscillator sum sum_j omega_Pj^2/(omega_Tj^2 + xi^2 + gamma_j xi), which
    keeps its digits as eps -> 1; eps itself is 1 plus that sum.  F is real
    and depends on s only through s/a, and the imaginary part of the tensor
    is exactly 0.

    The integral is a fixed rule in s: Gauss-Legendre on [0, s0], s0 = 16
    min(a, 1), which holds the Fresnel transition at s/a of order 1, and
    Gauss-Laguerre on [s0, inf), each with 32 nodes, against the same
    panels with 64.  The 64-node value is taken when the two differ by at
    most 10 max(epsabs, QUAD_REL_TOL |G|) with epsabs = QUAD_REL_TOL c^2/
    (32 pi xi^2 z^3), as green_full's quadratures are accepted; so the value
    taken is within that bound wherever the 64-node value is nearer the
    integral than the 32-node one.  A miss is tried once more, 64 nodes
    against 128, and a second miss raises QuadratureFailure, for the first
    xi of the call with one, xx before zz.

    xi is one real number, which gives one GreenTensor3, or a 1-D sequence
    of them, which gives the list of their tensors, each bit for bit the
    one its own call gives: every node of every xi is one element of one
    array (_imag_axis_sums), and each xi's sums run in node order.  A
    xi <= 0 anywhere raises ValueError before any node is evaluated.
    """
    if not z > 0:
        raise ValueError("z must be > 0")
    single = np.ndim(xi) == 0
    xis = [xi] if single else list(xi)
    for x in xis:
        if not x > 0:
            raise ValueError("xi must be > 0")
    xs = np.array(xis, dtype=float)
    e1 = np.zeros(xs.size)
    for p2, t2, g in m._coeffs:
        e1 = e1 + p2 / (t2 + xs * xs + xs * g)
    a = 2.0 * z * xs / C
    s0 = _SPLIT * np.minimum(a, 1.0)
    scale = (np.exp(-a) / (16.0 * math.pi * z))[:, None]
    # 10 epsabs, epsabs = QUAD_REL_TOL c^2/(32 pi xi^2 z^3)
    floor = (10.0 * QUAD_REL_TOL * C**2 / (32.0 * math.pi * cube(z))
             / (xs * xs))[:, None]

    def missed(rough, fine, floor):
        """Where rough is off fine by more than the bound, NaN included."""
        return ~(np.abs(rough - fine)
                 <= np.maximum(floor, 10.0 * QUAD_REL_TOL * np.abs(fine)))

    rough, fine = (scale * v for v in _imag_axis_sums(
        a, s0, e1, (_NODES, 2 * _NODES)))
    miss = missed(rough, fine, floor)
    if miss.any():
        at = np.flatnonzero(miss.any(axis=1))
        rough, miss = fine[at], miss[at]
        (finer,) = _imag_axis_sums(a[at], s0[at], e1[at], (4 * _NODES,))
        fine[at] = np.where(miss, scale[at] * finer, rough)
        fails = miss & missed(rough, fine[at], floor[at])
        if fails.any():
            first = np.flatnonzero(fails)[0]
            raise QuadratureFailure(
                f"green_full quadrature ({('xx', 'zz')[first % 2]} "
                f"imag-axis) did not reach tolerance "
                f"epsrel={QUAD_REL_TOL:g} with {4 * _NODES} nodes per panel")
    tensors = [GreenTensor3(complex(gxx, 0.0), complex(gzz, 0.0))
               for gxx, gzz in fine.tolist()]
    return tensors[0] if single else tensors
