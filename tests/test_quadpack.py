"""polshift.quadpack against scipy.integrate.quad, bit for bit.

quadpack transcribes the QUADPACK routines that quad runs (DQAGSE on a
finite interval, DQAGIE on [a, inf)), with both panels of a bisection in one
array call of the integrand.  On the same integrand values it must return
quad's value and error estimate to the last bit, take as many integrand
values as quad's infodict neval says and end with as many subintervals.  The
integrand families below reach each way out of the routines; the Green
integrands are every one that green_full and green_full_imag_axis build on
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


def scipy_reference(f, a, b, epsabs, epsrel, limit):
    """(value, abserr, neval, ier, last) of quad on the scalar integrand f;
    ier is read back from quad's message."""
    out = scipy_quad(f, a, b, epsabs=epsabs, epsrel=epsrel, limit=limit,
                     full_output=1)
    ier = 0
    if len(out) == 4:
        ier, = (k for k, words in IER_MESSAGES.items()
                if out[3].startswith(words))
    return out[0], out[1], out[2]["neval"], ier, out[2]["last"]


def on_nodes(f):
    """The array form of a scalar integrand, one call per node."""
    return lambda x: np.array([f(v) for v in x.tolist()])


#: (integrand, a, b, epsabs, epsrel, limit, quadpack's ier) per exit path
FAMILIES = {
    # accepted on the first panel
    "first panel": (lambda x: x * x, 0.0, 1.0, 1.49e-8, 1.49e-8, 50, 0),
    "first panel, [0, inf)": (lambda x: 1.0 / (1.0 + x) ** 2, 0.0, math.inf,
                              1.49e-8, 1.49e-8, 50, 0),
    # bisection alone converges, without the epsilon table
    "plain bisection": (lambda x: 1.0 / (1.0 + x * x), 0.0, math.inf,
                        1e-300, 1e-13, 200, 0),
    "bisection, extrapolation tried": (lambda x: math.sin(30.0 * x), 0.0,
                                       3.0, 1.49e-8, 1.49e-8, 50, 0),
    # the epsilon algorithm reaches the tolerance
    "epsilon algorithm": (lambda x: 1.0 / math.sqrt(x), 0.0, 1.0, 1.49e-8,
                          1.49e-8, 50, 0),
    "epsilon algorithm, log": (lambda x: math.log(x), 0.0, 1.0, 1e-300,
                               1e-13, 200, 0),
    "epsilon algorithm, [1, inf)": (lambda x: x ** -1.5, 1.0, math.inf,
                                    1e-300, 1e-12, 200, 0),
    # the subdivision limit
    "limit 1": (lambda x: math.sin(30.0 * x), 0.0, 3.0, 1.49e-8, 1.49e-8,
                1, 1),
    "limit 1, [0, inf)": (lambda x: x * math.exp(-x), 0.0, math.inf, 1.49e-8,
                          1.49e-8, 1, 1),
    "limit 3": (lambda x: math.sin(30.0 * x), 0.0, 3.0, 1.49e-8, 1.49e-8,
                3, 1),
    "limit 5 in extrapolation": (lambda x: 1.0 / math.sqrt(x), 0.0, 1.0,
                                 1e-300, 1e-14, 5, 1),
    "limit, 1/(1 + x) on [0, inf)": (lambda x: 1.0 / (1.0 + x), 0.0,
                                     math.inf, 1.49e-8, 1.49e-8, 50, 1),
    # roundoff: on the first panel, and in the bisection loop
    "roundoff, first panel": (
        lambda x: math.sin(x) + 1e-13 * math.sin(1e6 * x), 0.0, 1.0, 1e-300,
        1e-15, 200, 2),
    "roundoff, kink": (lambda x: abs(x - 0.3), 0.0, 1.0, 1e-300, 1e-14, 200,
                       2),
    # extremely bad integrand behaviour at a point
    "bad behaviour": (lambda x: 1.0 / abs(x - 0.3) if x != 0.3 else 0.0, 0.0,
                      1.0, 1e-300, 1e-10, 2000, 3),
    # the extrapolation does not converge (roundoff in the epsilon table)
    "no convergence, 1/sqrt(x) at tight epsrel": (
        lambda x: 1.0 / math.sqrt(x), 0.0, 1.0, 1e-300, 1e-16, 200, 4),
    # probably divergent or slowly convergent
    "slow convergence, [0, inf)": (lambda x: 1.0 / math.sqrt(1.0 + x), 0.0,
                                   math.inf, 1e-300, 1e-10, 200, 5),
    "divergent": (lambda x: 1.0 / (x - 0.3) ** 2 if x != 0.3 else 0.0, 0.0,
                  1.0, 1e-300, 1e-10, 2000, 5),
    # the sum of the subinterval results replaces the extrapolated one
    "summed rlist after extrapolation": (
        lambda x: math.sin(x) * math.exp(-x), 0.0, math.inf, 1e-300, 1e-15,
        200, 2),
    "summed rlist, oscillating": (
        lambda x: math.cos(100.0 * x) * math.exp(-x), 0.0, 10.0, 1e-300,
        1e-12, 200, 2),
    "zero integrand": (lambda x: 0.0, 0.0, 1.0, 1.49e-8, 1.49e-8, 50, 0),
}


@pytest.mark.parametrize("name", FAMILIES)
def test_quadpack_equals_scipy_quad(name):
    f, a, b, epsabs, epsrel, limit, ier = FAMILIES[name]
    want = scipy_reference(f, a, b, epsabs, epsrel, limit)
    got = quadpack.quad(on_nodes(f), a, b, epsabs, epsrel, limit)
    assert tuple(got) == want
    assert got.ier == ier


def test_quadpack_calls_each_panel_pair_once():
    """The first panel is one call of 21 (or 15) nodes, and each bisection
    one call of 42 (or 30): neval counts them all."""
    for b, first in ((1.0, 21), (math.inf, 15)):
        sizes = []

        def f(x):
            sizes.append(len(x))
            return 1.0 / np.sqrt(x)

        got = quadpack.quad(f, 0.0 if b == 1.0 else 1.0, b, 1e-300, 1e-12,
                            50)
        assert sizes == [first] + [2 * first] * (got.last - 1)
        assert sum(sizes) == got.neval


def test_quadpack_rejects_a_limit_below_1():
    with pytest.raises(ValueError, match="limit"):
        quadpack.quad(np.sqrt, 0.0, 1.0, 1e-8, 1e-8, 0)


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
    """Every k_rho integral of green_full (both parts) and of
    green_full_imag_axis (at xi = omega) gives quad's value, error estimate
    and neval, quad calling the same integrand one node at a time."""
    m = request.getfixturevalue(material)
    calls = []
    real_quad = quadpack.quad

    def recording(f, a, b, epsabs, epsrel, limit):
        got = real_quad(f, a, b, epsabs, epsrel, limit)
        calls.append((f, a, b, epsabs, epsrel, limit, got))
        return got

    monkeypatch.setattr(quadpack, "quad", recording)
    for z, omega in _green_cases(m):
        ps.green_full(m, z, omega)
        ps.green_full_imag_axis(m, z, omega)
    assert len(calls) == 10 * len(_green_cases(m))
    for f, a, b, epsabs, epsrel, limit, got in calls:
        want = scipy_reference(lambda x: f(np.array([x]))[0], a, b, epsabs,
                               epsrel, limit)
        assert tuple(got) == want
