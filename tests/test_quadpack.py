"""polshift.quadpack against scipy.integrate.quad, bit for bit.

quadpack transcribes the QUADPACK routine that quad runs on [a, inf)
(DQAGIE), with many integrals run in lockstep and each round's panels in one
array call of each integrand.  On the same integrand values every integral
must return quad's value and error estimate to the last bit, take as many
integrand values as quad's infodict neval says and end with as many
subintervals, alone or in lockstep with others.  The integrand families
below reach each way out of the routine, those of a finite interval through
on_half_line; the Green integrands are every one that green_full builds on
the four material fixtures.
"""

import math

import numpy as np
import pytest
from scipy.integrate import quad as scipy_quad

import polshift as ps
from polshift import quadpack
from polshift.units import C

#: the leading words of quad's message for each nonzero ier
IER_MESSAGES = {1: "The maximum number of subdivisions",
                2: "The occurrence of roundoff error",
                3: "Extremely bad integrand behavior",
                4: "The algorithm does not converge",
                5: "The integral is probably divergent"}


def scipy_reference(f, a, epsabs, epsrel, limit):
    """(value, abserr, neval, ier, last) of quad on the scalar integrand f
    over [a, inf); ier is read back from quad's message."""
    out = scipy_quad(f, a, math.inf, epsabs=epsabs, epsrel=epsrel,
                     limit=limit, full_output=1)
    ier = 0
    if len(out) == 4:
        ier, = (k for k, words in IER_MESSAGES.items()
                if out[3].startswith(words))
    return out[0], out[1], out[2]["neval"], ier, out[2]["last"]


def on_nodes(f):
    """The array form of a scalar integrand, one call per node."""
    return lambda x: np.array([f(v) for v in x.tolist()])


def on_half_line(g, length):
    """g on [0, length] as an integrand on [0, inf), through x ->
    length x/(1 + x): DQAGIE's map x = (1 - t)/t turns that into length
    (1 - t), so in exact arithmetic its pass is the 15-point pass on g over
    [0, length], mirrored, with g's endpoint behaviour at t = 1 and 0."""
    return lambda x: (g(length * x / (1.0 + x)) * length / (1.0 + x)
                      / (1.0 + x))


#: (integrand, a, epsabs, epsrel, limit, quadpack's ier) per exit path, each
#: over [a, inf)
FAMILIES = {
    # accepted on the first panel
    "first panel": (on_half_line(lambda x: x * x, 1.0), 0.0, 1.49e-8,
                    1.49e-8, 50, 0),
    "first panel, [0, inf)": (lambda x: 1.0 / (1.0 + x) ** 2, 0.0, 1.49e-8,
                              1.49e-8, 50, 0),
    # bisection alone converges, without the epsilon table
    "plain bisection": (lambda x: 1.0 / (1.0 + x * x), 0.0, 1e-300, 1e-13,
                        200, 0),
    "bisection, extrapolation tried": (
        on_half_line(lambda x: math.sin(30.0 * x), 3.0), 0.0, 1.49e-8,
        1.49e-8, 50, 0),
    # the epsilon algorithm reaches the tolerance
    "epsilon algorithm": (on_half_line(lambda x: 1.0 / math.sqrt(x), 1.0),
                          0.0, 1.49e-8, 1.49e-8, 50, 0),
    "epsilon algorithm, log": (on_half_line(math.log, 1.0), 0.0, 1e-300,
                               1e-13, 200, 0),
    "epsilon algorithm, [1, inf)": (lambda x: x ** -1.5, 1.0, 1e-300, 1e-12,
                                    200, 0),
    # the subdivision limit
    "limit 1": (on_half_line(lambda x: math.sin(30.0 * x), 3.0), 0.0,
                1.49e-8, 1.49e-8, 1, 1),
    "limit 1, [0, inf)": (lambda x: x * math.exp(-x), 0.0, 1.49e-8, 1.49e-8,
                          1, 1),
    "limit 3": (on_half_line(lambda x: math.sin(30.0 * x), 3.0), 0.0,
                1.49e-8, 1.49e-8, 3, 1),
    "limit 5 in extrapolation": (
        on_half_line(lambda x: 1.0 / math.sqrt(x), 1.0), 0.0, 1e-300, 1e-14,
        5, 1),
    "limit, 1/(1 + x) on [0, inf)": (lambda x: 1.0 / (1.0 + x), 0.0, 1.49e-8,
                                     1.49e-8, 50, 1),
    # roundoff: on the first panel, and in the bisection loop
    "roundoff, first panel": (
        on_half_line(lambda x: math.sin(x) + 1e-13 * math.sin(1e6 * x), 1.0),
        0.0, 1e-300, 1e-15, 200, 2),
    "roundoff, kink": (on_half_line(lambda x: abs(x - 0.3), 1.0), 0.0,
                       1e-300, 1e-14, 200, 2),
    # extremely bad integrand behaviour at a point
    "bad behaviour": (
        on_half_line(lambda x: 1.0 / abs(x - 0.3) if x != 0.3 else 0.0, 1.0),
        0.0, 1e-300, 1e-10, 2000, 3),
    # the extrapolation does not converge (roundoff in the epsilon table)
    "no convergence, 1/sqrt(x) at tight epsrel": (
        on_half_line(lambda x: 1.0 / math.sqrt(x), 1.0), 0.0, 1e-300, 1e-16,
        200, 4),
    # probably divergent or slowly convergent
    "slow convergence, [0, inf)": (lambda x: 1.0 / math.sqrt(1.0 + x), 0.0,
                                   1e-300, 1e-10, 200, 5),
    "divergent": (
        on_half_line(lambda x: 1.0 / (x - 0.3) ** 2 if x != 0.3 else 0.0,
                     1.0), 0.0, 1e-300, 1e-10, 2000, 5),
    # the sum of the subinterval results replaces the extrapolated one
    "summed rlist after extrapolation": (
        lambda x: math.sin(x) * math.exp(-x), 0.0, 1e-300, 1e-15, 200, 2),
    "summed rlist, oscillating": (
        on_half_line(lambda x: math.cos(100.0 * x) * math.exp(-x), 10.0),
        0.0, 1e-300, 1e-12, 400, 2),
    "zero integrand": (on_half_line(lambda x: 0.0, 1.0), 0.0, 1.49e-8,
                       1.49e-8, 50, 0),
    # the signs of zero of QUADPACK's sums
    "negative zero integrand": (on_half_line(lambda x: -0.0, 1.0), 0.0,
                                1.49e-8, 1.49e-8, 50, 0),
    "negative zero integrand, [0, inf)": (lambda x: -0.0, 0.0, 1.49e-8,
                                          1.49e-8, 50, 0),
}


@pytest.mark.parametrize("name", FAMILIES)
def test_quadpack_equals_scipy_quad(name):
    f, a, epsabs, epsrel, limit, ier = FAMILIES[name]
    want = scipy_reference(f, a, epsabs, epsrel, limit)
    got = quadpack.quad(on_nodes(f), a, epsabs, epsrel, limit)
    # repr tells the signs of zero apart
    assert repr(tuple(got)) == repr(want)
    assert got.ier == ier


def test_quadpack_calls_each_panel_pair_once():
    """The first panel is one call of 15 nodes, and each bisection one
    call of 30: neval counts them all."""
    def inv_sqrt(x):
        return 1.0 / np.sqrt(x)

    for g, a in ((inv_sqrt, 1.0), (on_half_line(inv_sqrt, 1.0), 0.0)):
        sizes = []

        def f(x):
            sizes.append(len(x))
            return g(x)

        got = quadpack.quad(f, a, 1e-300, 1e-12, 50)
        assert got.last > 1
        assert sizes == [15] + [30] * (got.last - 1)
        assert sum(sizes) == got.neval


def test_quadpack_rejects_a_limit_below_1():
    with pytest.raises(ValueError, match="limit"):
        quadpack.quad(np.sqrt, 0.0, 1e-8, 1e-8, 0)


def _green_cases(m):
    """(z, omega) at omega z/c = 1e-3, 0.1, 1 and 10 for every mode centre
    of m and for one omega above them where 0 < Re eps < 1."""
    centres = [mode.omega_center for mode in ps.find_polariton_modes(m)]
    thin = next(w for w in np.geomspace(centres[-1], 100.0 * centres[-1],
                                        400).tolist()
                if 0.0 < ps.permittivity(m, w).real < 1.0)
    return [(x * C / w, w) for w in (*centres, thin)
            for x in (1e-3, 0.1, 1.0, 10.0)]


@pytest.mark.parametrize("material", ["material_broad", "material_narrow",
                                      "material_toy", "material_ldos"])
def test_green_integrands_equal_scipy_quad(request, material, monkeypatch):
    """Every k_rho integral of green_full (both parts), each run in the
    lockstep of its Green call, gives quad's value, error estimate and
    neval, quad calling the same integrand, at the integral's key and
    component, one node at a time.  green_full_imag_axis runs no QUADPACK
    pass: it is a fixed-node rule, checked against an mpmath oracle in
    test_greens.py."""
    m = request.getfixturevalue(material)
    integrals = []
    real_lockstep = quadpack.lockstep

    def recording(batch):
        got = real_lockstep(batch)
        integrals.extend(zip(batch, got))
        return got

    monkeypatch.setattr(quadpack, "lockstep", recording)
    for z, omega in _green_cases(m):
        ps.green_full(m, z, omega)
        ps.green_full_imag_axis(m, z, omega)
    assert len(integrals) == 8 * len(_green_cases(m))
    for (f, key, comp, bound, epsabs, epsrel, limit), got in integrals:
        want = scipy_reference(
            lambda x: f(np.array([x]), np.array([key]))[comp][0], bound,
            epsabs, epsrel, limit)
        assert tuple(got) == want


def _family(names):
    """The integrand family of the FAMILIES named in names: key k is
    names[k], component 0 its integrand and component 1 twice it."""
    def f(x, keys):
        one = np.array([FAMILIES[names[k]][0](v)
                        for v, k in zip(x.tolist(), keys.tolist())])
        return one, 2.0 * one
    return f


def test_lockstep_gives_each_integral_its_solo_result():
    """Integrals of every exit path, of different bounds, limits and
    lengths (the first panel alone, up to the limit, ier 1 to 5), run in
    one lockstep, two components of one family and the same integral
    twice among them: each gets quad's QuadResult of its own, and each
    round calls the family once."""
    names = list(FAMILIES)
    f = _family(names)
    calls = []

    def counted(x, keys):
        calls.append(len(x))
        return f(x, keys)

    batch, want = [], []
    for k, name in enumerate(names):
        g, a, epsabs, epsrel, limit, ier = FAMILIES[name]
        for comp in (0, 1, 0):
            batch.append(quadpack.Integral(counted, k, comp, a, epsabs,
                                           epsrel, limit))
            want.append(scipy_reference(
                (lambda v, g=g: 2.0 * g(v)) if comp else g, a, epsabs,
                epsrel, limit))
    got = quadpack.lockstep(batch)
    assert repr([tuple(r) for r in got]) == repr(want)
    assert {r.ier for r in got} == set(range(6))
    # one call per round
    assert len(calls) == max(r.last for r in got)
    # twice an integrand scales every sum exactly, so the three integrals
    # of a name bisect alike, and each of their panels is evaluated once
    assert 3 * sum(calls) == sum(r.neval for r in got)


def test_lockstep_of_nothing_and_bad_limit():
    assert quadpack.lockstep([]) == []
    with pytest.raises(ValueError, match="limit"):
        quadpack.lockstep([quadpack.Integral(
            lambda x, k: (x,), 0, 0, 0.0, 1e-8, 1e-8, 0)])
