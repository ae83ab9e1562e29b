"""Dielectric response, reflection coefficients, and polariton modes."""

import cmath
import json
import math
import random
import re
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy import optimize
from scipy.integrate import quad

import polshift as ps
from polshift import material
from oracles import (eps_crossing, finder_bodies_numpy, fresnel_array,
                     fresnel_cmath, half_max_point, im_rp_numpy, im_rp_real,
                     lorentzian_ldos_factor, material_to_dict,
                     mode_width_from_pole, omega_surface,
                     permittivity_derivative, permittivity_derivative_numpy,
                     permittivity_numpy, permittivity_real,
                     reflection_nonretarded_numpy)
from polshift.units import CM1, C

# ---------------------------------------------------------------------------
# Oscillator / MaterialModel construction
# ---------------------------------------------------------------------------


def test_oscillator_rejects_bad_parameters():
    with pytest.raises(ValueError):
        ps.Oscillator(omega_P=0.0, omega_T=1e13, gamma_damp=0.0)
    with pytest.raises(ValueError):
        ps.Oscillator(omega_P=1e13, omega_T=-1e13, gamma_damp=0.0)
    with pytest.raises(ValueError):
        ps.Oscillator(omega_P=1e13, omega_T=1e13, gamma_damp=-1.0)


def test_material_sorts_oscillators_by_omega_T():
    hi = ps.Oscillator(omega_P=1e13, omega_T=2e13, gamma_damp=1e11)
    lo = ps.Oscillator(omega_P=1e13, omega_T=1e13, gamma_damp=1e11)
    m = ps.MaterialModel("pair", oscillators=(hi, lo))
    assert [o.omega_T for o in m.oscillators] == [1e13, 2e13]


def test_material_rejects_non_oscillator_entries():
    with pytest.raises(TypeError):
        ps.MaterialModel("bad", oscillators=(1.0,))


def test_vacuum_material_is_permitted_in_memory():
    # eps = 1 half-space: useful analytic limit, not loadable from file.
    m = ps.MaterialModel("vacuum", oscillators=())
    assert ps.permittivity(m, 1e13) == 1.0 + 0.0j
    assert ps.permittivity_imag_axis(m, 1e13) == 1.0


# ---------------------------------------------------------------------------
# permittivity (real axis)
# ---------------------------------------------------------------------------


def test_permittivity_static_single_oscillator():
    m = ps.MaterialModel(
        "unit", oscillators=(ps.Oscillator(omega_P=1.0, omega_T=1.0),))
    assert ps.permittivity(m, 0.0) == pytest.approx(2.0 + 0.0j, rel=0, abs=0)


def test_permittivity_high_frequency_transparency(material_broad):
    eps = ps.permittivity(material_broad, 1e20)
    assert abs(eps - 1.0) < 1e-8


def test_permittivity_lossy_substitution():
    # omega = omega_T makes the real part of the denominator vanish:
    # eps = 1 + 1/(-0.1i) = 1 + 10i.
    m = ps.MaterialModel(
        "unit", oscillators=(ps.Oscillator(omega_P=1.0, omega_T=1.0,
                                           gamma_damp=0.1),))
    assert ps.permittivity(m, 1.0) == pytest.approx(1.0 + 10.0j, rel=1e-12)


def test_permittivity_pole_hit_undamped():
    m = ps.MaterialModel(
        "undamped", oscillators=(ps.Oscillator(omega_P=1e13, omega_T=1e13),))
    with pytest.raises(ps.PoleHit):
        ps.permittivity(m, 1e13)


#: Drude-Lorentz materials with one to four damped oscillators (rad/s)
DRUDE_LORENTZ = tuple(
    ps.MaterialModel(f"dl{len(oscs)}", oscillators=tuple(
        ps.Oscillator(*o) for o in oscs)) for oscs in (
        ((3.1e13, 2.0e13, 4.0e11),),
        ((1.2e14, 5.0e13, 2.5e12), (4.0e13, 9.0e13, 1.0e11)),
        ((6.0e12, 1.1e12, 3.0e10), (2.0e13, 1.7e13, 5.0e11),
         (9.0e13, 2.3e14, 1.5e13)),
        ((1.5e13, 8.0e12, 1.0e9), (2.2e13, 1.6e13, 6.0e11),
         (5.0e13, 4.1e13, 2.0e12), (3.0e14, 1.9e14, 9.0e12)),
    ))


FIXTURE_MATERIALS = ("material_broad", "material_narrow", "material_toy",
                     "material_ldos")


def _assert_permittivity_number_forms(m):
    """A float and an np.float64 give np.complex128 of the same bits, sign
    of zero included, over real omega from 0 to 1e17 rad/s, at each omega_T
    and at each single-oscillator surface frequency, and an int gives the
    bits of its float; at the omega_T of an undamped oscillator every form
    raises PoleHit."""
    poles = [o.omega_T for o in m.oscillators if not o.gamma_damp]
    omegas = np.concatenate((
        [0.0], np.geomspace(1e9, 1e17, 801),
        [o.omega_T for o in m.oscillators],
        [omega_surface(o) for o in m.oscillators]))
    for w in set(poles):
        for x in (w, np.float64(w)):
            with pytest.raises(ps.PoleHit):
                ps.permittivity(m, x)
    for w in omegas[~np.isin(omegas, poles)].tolist():
        want = ps.permittivity(m, w)
        assert type(want) is np.complex128
        got = ps.permittivity(m, np.float64(w))
        assert type(got) is np.complex128
        assert got == want and np.signbit(got.imag) == np.signbit(want.imag)
    for n in (0, 1, 10**9, 7 * 10**12, 10**13, 3 * 10**14, 10**17):
        if n not in poles:
            got = ps.permittivity(m, n)
            assert type(got) is np.complex128
            assert got == ps.permittivity(m, float(n))


def _assert_imag_axis_number_forms(m):
    """A Python float and an np.float64 give the same float bits for
    eps(i xi) and r_p(i xi), an int gives the bits of its float, and every
    form rejects xi < 0."""
    xi = np.concatenate((
        [0.0, 1.0, 3.7e12, 2.2e13, 9.1e14, 1e20, 1e200],
        np.geomspace(1e8, 1e18, 201),
        [o.omega_T for o in m.oscillators],
        [o.gamma_damp for o in m.oscillators]))
    for x in xi.tolist():  # xi^2 = inf at 1e200, in Python floats
        eps = ps.permittivity_imag_axis(m, x)
        r_p = ps.reflection_imag_axis(m, x)
        assert type(eps) is float and type(r_p) is float
        assert ps.permittivity_imag_axis(m, np.float64(x)) == eps
        assert ps.reflection_imag_axis(m, np.float64(x)) == r_p
    assert ps.permittivity_imag_axis(m, 3) == \
        ps.permittivity_imag_axis(m, 3.0)
    for bad in (-1.0, -1, np.float64(-1.0)):
        with pytest.raises(ValueError):
            ps.permittivity_imag_axis(m, bad)


@pytest.mark.parametrize("material", [*FIXTURE_MATERIALS, *DRUDE_LORENTZ],
                         ids=lambda m: getattr(m, "name", m))
def test_permittivity_scalar_equals_array(request, material):
    """The number forms of permittivity agree bit for bit on every fixture
    material and on the Drude-Lorentz table above; an array raises
    TypeError (test_number_functions_reject_arrays)."""
    m = request.getfixturevalue(material) if isinstance(material, str) \
        else material
    _assert_permittivity_number_forms(m)


#: Drude-Lorentz materials of 1-4 oscillators as (omega_P, omega_T, gamma),
#: omega_T from 1e9 to 1e16 rad/s and gamma/omega_T from 1e-4 to 1, or an
#: undamped oscillator
DAMPED_OR_NOT = st.lists(
    st.tuples(st.floats(9.0, 16.0), st.floats(0.1, 3.0),
              st.one_of(st.just(None), st.floats(-4.0, 0.0))).map(
        lambda t: (t[1] * 10**t[0], 10**t[0],
                   0.0 if t[2] is None else 10**(t[0] + t[2]))),
    min_size=1, max_size=4)


@settings(max_examples=40, deadline=None)
@given(oscillators=DAMPED_OR_NOT)
def test_scalar_paths_equal_array_on_drawn_materials(oscillators):
    """The number forms agree bit for bit, and an undamped oscillator's
    omega_T raises PoleHit, on drawn materials."""
    m = ps.MaterialModel("drawn", oscillators=tuple(
        ps.Oscillator(*o) for o in oscillators))
    _assert_permittivity_number_forms(m)
    _assert_imag_axis_number_forms(m)


def test_coefficient_table_leaves_equality_hash_and_repr():
    """The coefficient table follows the sorted oscillators and takes no
    part in equality, hashing or repr, so two materials built from the same
    oscillators in another order are the same value."""
    oscs = (ps.Oscillator(1.2e14, 5.0e13, 2.5e12),
            ps.Oscillator(4.0e13, 9.0e13, 0.0),
            ps.Oscillator(2.0e13, 1.7e13, 5.0e11))
    a = ps.MaterialModel("trio", oscillators=oscs)
    b = ps.MaterialModel("trio", oscillators=oscs[::-1])
    assert a == b and hash(a) == hash(b) and repr(a) == repr(b)
    assert "_coeffs" not in repr(a)
    assert a._coeffs == b._coeffs == tuple(
        (o.omega_P * o.omega_P, o.omega_T * o.omega_T, o.gamma_damp)
        for o in a.oscillators)
    assert [o.omega_T for o in a.oscillators] == [1.7e13, 5.0e13, 9.0e13]
    assert a != ps.MaterialModel("trio", oscillators=oscs[:2])


def test_permittivity_pole_hit_on_both_paths():
    """An undamped oscillator hit exactly raises PoleHit, naming it, from a
    float, an int and an np.float64."""
    m = ps.MaterialModel(
        "undamped", oscillators=(
            ps.Oscillator(omega_P=2e13, omega_T=5e12, gamma_damp=1e11),
            ps.Oscillator(omega_P=1e13, omega_T=1e13)))
    for omega in (1e13, 10**13, np.float64(1e13)):
        with pytest.raises(ps.PoleHit, match="oscillator 1"):
            ps.permittivity(m, omega)


#: the functions of the material and its nonretarded Green tensor that
#: take one frequency per call
NUMBER_FUNCTIONS = {
    "permittivity": ps.permittivity,
    "permittivity_imag_axis": ps.permittivity_imag_axis,
    "reflection_nonretarded": ps.reflection_nonretarded,
    "green_nonretarded": lambda m, omega: ps.green_nonretarded(m, 1e-6, omega),
}


@pytest.mark.parametrize("name", NUMBER_FUNCTIONS)
@pytest.mark.parametrize("omega", [
    np.array(2e13), np.array([2e13]), np.array([1e13, 2e13]), [2e13]],
    ids=["0-d", "1-element", "2-element", "list"])
def test_number_functions_reject_arrays(material_broad, name, omega):
    """Each function takes one number: a 0-d, a one-element or a longer
    array and a list raise TypeError, while the number they hold gives a
    value."""
    f = NUMBER_FUNCTIONS[name]
    f(material_broad, 2e13)
    with pytest.raises(TypeError, match="one"):
        f(material_broad, omega)


@settings(max_examples=60)
@given(
    omega_P=st.floats(1e10, 1e15),
    omega_T=st.floats(1e10, 1e15),
    gamma=st.floats(1e8, 1e13),
    omega=st.floats(1e9, 1e16),
)
def test_permittivity_absorptive_sign(omega_P, omega_T, gamma, omega):
    """Im eps > 0 for every real omega > 0 once damping is present."""
    m = ps.MaterialModel(
        "h", oscillators=(ps.Oscillator(omega_P, omega_T, gamma),))
    assert ps.permittivity(m, omega).imag > 0.0


#: each function of the material that takes any omega, and its
#: numpy-scalar oracle
NUMPY_ORACLES = (
    (ps.permittivity, permittivity_numpy),
    (ps.reflection_nonretarded, reflection_nonretarded_numpy),
)

#: each real-axis body of the mode finder, and its numpy-scalar oracle
REAL_AXIS_ORACLES = (
    (permittivity_real, permittivity_numpy),
    (permittivity_derivative, permittivity_derivative_numpy),
    (im_rp_real, im_rp_numpy),
)


def _outcome(f, m, omega):
    """f(m, omega), or the (type, message) of the PoleHit or SurfaceModePole
    it raised; numpy's warnings (x/0 in the derivative at a pole) are
    silenced for the oracles."""
    try:
        with np.errstate(all="ignore"):
            return f(m, omega)
    except (ps.PoleHit, ps.SurfaceModePole) as exc:
        return type(exc), str(exc)


def _same_bits(got, want):
    """Equal part by part, sign of zero included; NaN matches NaN."""
    return all((x == y and math.copysign(1.0, x) == math.copysign(1.0, y))
               or (x != x and y != y)
               for x, y in ((got.real, want.real), (got.imag, want.imag)))


def _assert_float_bodies_equal_numpy(m, n_geom):
    """permittivity and reflection_nonretarded, and the mode finder's
    real-axis bodies (eps and Im r_p from _real_eps, eps' from _eps_deps),
    give np.complex128 with the bits of their numpy-scalar oracles, and
    raise PoleHit or SurfaceModePole, with the same message, on exactly the
    inputs where the oracle does: at +-0, +-inf, NaN, n_geom omega from 1e9
    to 1e17 rad/s, each omega_T and each single-oscillator surface
    frequency, with their negatives; the first two also at complex omega
    above, below and on the real axis."""
    finite = [*np.geomspace(1e9, 1e17, n_geom).tolist(),
              *(o.omega_T for o in m.oscillators),
              *(omega_surface(o) for o in m.oscillators)]
    real = [0.0, -0.0, math.inf, -math.inf, math.nan,
            *finite, *(-w for w in finite)]
    omegas = [*real, *(complex(w, s * 0.03 * w) for w in finite
                       for s in (1, -1)),
              *(complex(w, -0.0) for w in finite), complex(0.0, 1e13)]
    for oracles, inputs in ((NUMPY_ORACLES, omegas),
                            (REAL_AXIS_ORACLES, real)):
        for new, old in oracles:
            for w in inputs:
                got, want = _outcome(new, m, w), _outcome(old, m, w)
                if isinstance(want, tuple):
                    assert got == want, (new.__name__, w)
                else:
                    assert type(got) is np.complex128 \
                        and _same_bits(got, want), (new.__name__, w, got, want)


def _assert_roots_equal_numpy(m):
    """material._roots gives np.roots' bits, dtype included, on the
    polynomial of _pole_table (E of _imag_axis_rational) and on the one
    whose roots _ascending_eps_roots takes."""
    polys = [material._imag_axis_rational(m)[2]]
    roots_of = material._roots

    def recorded(p):
        polys.append(p.copy())
        return roots_of(p)

    with mock.patch.object(material, "_roots", recorded):
        try:
            material._ascending_eps_roots(m)
        except ps.PhysicsError:
            pass
    assert len(polys) == 2
    for p in polys:
        got, want = material._roots(p), np.roots(p)
        assert got.dtype == want.dtype and got.tobytes() == want.tobytes(), p


def _random_materials(seed, count):
    """count seeded materials of 1-4 oscillators in the ranges of the
    benchmark's modes_sweep pool (omega_T 30-300 cm^-1, omega_P/omega_T
    0.4-1.6, gamma/omega_T 0.5-5 %), one oscillator in five undamped."""
    rng = random.Random(seed)
    for _ in range(count):
        oscs = []
        for _ in range(rng.randint(1, 4)):
            t = rng.uniform(30.0, 300.0) * CM1
            g = 0.0 if rng.random() < 0.2 else t * rng.uniform(0.005, 0.05)
            oscs.append(ps.Oscillator(t * rng.uniform(0.4, 1.6), t, g))
        yield ps.MaterialModel("random", oscillators=tuple(oscs))


@pytest.mark.parametrize("name", FIXTURE_MATERIALS)
def test_float_bodies_equal_numpy_oracle_on_fixtures(request, name):
    m = request.getfixturevalue(name)
    _assert_float_bodies_equal_numpy(m, 801)
    _assert_roots_equal_numpy(m)


def test_float_bodies_equal_numpy_oracle_on_random_materials():
    """The float bodies and _roots on 2000 _random_materials."""
    for m in _random_materials(20240601, 2000):
        _assert_float_bodies_equal_numpy(m, 9)
        _assert_roots_equal_numpy(m)


@pytest.mark.parametrize("p", [[2.0, -3.0, 0.0], [-2.0, 1.0, 0.0, 0.0],
                               [2.0, 0.0], [2.0, 0.0, 1.0, 0.0], [2.0],
                               [1.0, 0.0, 1.0]])
def test_roots_equal_numpy_with_zero_coefficients(p):
    """Trailing zeros give roots at 0 after the companion matrix's, as
    np.roots appends them, and a complex or real result keeps its dtype."""
    p = np.array(p)
    got, want = material._roots(p), np.roots(p)
    assert got.dtype == want.dtype and got.tobytes() == want.tobytes()


def _finder_outcome(m):
    try:
        return ps.find_polariton_modes(m)
    except ps.PhysicsError as exc:
        return type(exc), str(exc)


def _assert_finder_equals_numpy_bodies(m):
    """find_polariton_modes gives a repr-identical table, or the same
    error, when every float body it reads is replaced by its numpy-scalar
    oracle (oracles.finder_bodies_numpy), so the finder's sequence of
    evaluations is pinned whichever body runs."""
    want = repr(_finder_outcome(m))
    calls = []
    with mock.patch.multiple(material, **finder_bodies_numpy(calls)):
        got = repr(_finder_outcome(m))
    assert got == want, m
    assert "_real_eps" in calls


@pytest.mark.parametrize("name", FIXTURE_MATERIALS)
def test_finder_on_numpy_bodies_on_fixtures(request, name):
    _assert_finder_equals_numpy_bodies(request.getfixturevalue(name))


def test_finder_on_numpy_bodies_on_random_materials():
    for m in _random_materials(20240602, 200):
        _assert_finder_equals_numpy_bodies(m)


#: (omega_P, omega_T, gamma) of each oscillator, ascending in omega_T, and
#: the index of the undamped one hit at its omega_T, keyed by that index:
#: of two, the first or the second; the last of four; and of two
#: identical undamped ones after a damped one, the first
POLE_HIT_CASES = {
    "0": (((2e13, 5e12, 0.0), (2e13, 1e13, 1e11)), 0),
    "1": (((2e13, 5e12, 1e11), (2e13, 1e13, 0.0)), 1),
    "3-of-4": (((2e13, 5e12, 1e11), (3e13, 8e12, 2e11),
                (1e13, 9e12, 5e10), (2e13, 1e13, 0.0)), 3),
    "1-of-identical": (((2e13, 5e12, 1e11), (2e13, 1e13, 0.0),
                        (2e13, 1e13, 0.0)), 1),
}

#: every function that evaluates eps at one real omega: permittivity and
#: reflection_nonretarded through _eps, the nonretarded Green tensor, and
#: the mode finder's bodies _real_eps (eps and Im r_p) and _eps_deps
POLE_HIT_FUNCTIONS = (
    ps.permittivity, ps.reflection_nonretarded,
    lambda m, w: ps.green_nonretarded(m, 1e-6, w),
    material._real_eps, lambda m, w: material._real_eps(m, w, True),
    material._eps_deps)


@pytest.mark.parametrize("case", POLE_HIT_CASES)
def test_pole_hit_names_the_undamped_oscillator(case):
    """The undamped oscillator hit exactly is named in the PoleHit by its
    index and its omega_T, wherever it stands, through every function that
    evaluates eps; of two identical ones, the first is named."""
    oscs, hit = POLE_HIT_CASES[case]
    m = ps.MaterialModel("poles", oscillators=tuple(
        ps.Oscillator(*o) for o in oscs))
    pole = oscs[hit][1]
    message = re.escape(f"oscillator {hit} (omega_T={pole!r})")
    for f in POLE_HIT_FUNCTIONS:
        with pytest.raises(ps.PoleHit, match=message):
            f(m, pole)


#: real omega of either sign, 1e8 to 1e18 rad/s in magnitude
REAL_OMEGA = st.floats(8.0, 18.0).flatmap(
    lambda e: st.sampled_from((10**e, -10**e)))


@settings(max_examples=200, deadline=None)
@given(oscillators=DAMPED_OR_NOT, omega=REAL_OMEGA)
def test_permittivity_conjugate_symmetry_and_absorption(oscillators, omega):
    """eps(-omega) = conj eps(omega) and r_p(-omega) = conj r_p(omega)
    exactly (== counts +0 and -0 as equal), each pole raising on both
    sides, and Im eps >= 0 for omega > 0: the transcribed division keeps
    both properties, so a reordering of it shows here."""
    m = ps.MaterialModel("drawn", oscillators=tuple(
        ps.Oscillator(*o) for o in oscillators))
    for f in (ps.permittivity, ps.reflection_nonretarded):
        up, down = _outcome(f, m, omega), _outcome(f, m, -omega)
        if isinstance(up, tuple):
            assert isinstance(down, tuple) and down[0] is up[0]
        else:
            assert down == up.conjugate()
    eps = _outcome(ps.permittivity, m, abs(omega))
    assert isinstance(eps, tuple) or eps.imag >= 0.0


# ---------------------------------------------------------------------------
# permittivity (imaginary axis)
# ---------------------------------------------------------------------------


def test_imag_axis_matches_static_limit(material_broad):
    assert ps.permittivity_imag_axis(material_broad, 0.0) == pytest.approx(
        ps.permittivity(material_broad, 0.0).real, rel=1e-14)


def test_imag_axis_unit_substitution():
    m = ps.MaterialModel(
        "unit", oscillators=(ps.Oscillator(omega_P=1.0, omega_T=1.0),))
    assert ps.permittivity_imag_axis(m, 1.0) == pytest.approx(1.5, rel=1e-15)


def test_imag_axis_large_xi_limit(material_broad):
    assert ps.permittivity_imag_axis(material_broad, 1e20) == pytest.approx(
        1.0, abs=1e-8)


@settings(max_examples=60)
@given(xi_lo=st.floats(0.0, 1e15), step=st.floats(1e9, 1e15))
def test_imag_axis_real_decreasing_above_one(material_broad, xi_lo, step):
    lo = ps.permittivity_imag_axis(material_broad, xi_lo)
    hi = ps.permittivity_imag_axis(material_broad, xi_lo + step)
    assert isinstance(lo, float)
    assert lo > hi > 1.0


def test_imag_axis_scalar_equals_array(request):
    """The number forms of eps(i xi) and r_p(i xi) agree bit for bit on
    every fixture material and on the Drude-Lorentz table."""
    for m in (*map(request.getfixturevalue, FIXTURE_MATERIALS),
              *DRUDE_LORENTZ):
        _assert_imag_axis_number_forms(m)


# ---------------------------------------------------------------------------
# reflection_nonretarded
# ---------------------------------------------------------------------------


def test_reflection_vacuum_is_zero():
    m = ps.MaterialModel("vacuum", oscillators=())
    assert ps.reflection_nonretarded(m, 1e13) == 0.0 + 0.0j


def test_reflection_high_frequency_vanishes(material_broad):
    assert abs(ps.reflection_nonretarded(material_broad, 1e20)) < 1e-8


def test_reflection_lossy_substitution():
    # eps = 1 + 10i  ->  r = 10i/(2+10i).
    m = ps.MaterialModel(
        "unit", oscillators=(ps.Oscillator(omega_P=1.0, omega_T=1.0,
                                           gamma_damp=0.1),))
    expected = 10j / (2 + 10j)
    assert ps.reflection_nonretarded(m, 1.0) == pytest.approx(
        expected, rel=1e-12)


def test_reflection_surface_mode_pole():
    """At the undamped surface frequency a float and an np.float64 raise
    SurfaceModePole.  At the two floats where the pole check turns off
    below and above it, and one ulp either side of each, the np.float64
    raises where the float does and otherwise gives its bits."""
    m = ps.MaterialModel(
        "undamped", oscillators=(ps.Oscillator(omega_P=1e13, omega_T=1e13),))
    surface = math.sqrt(1e13**2 + 1e13**2 / 2.0)
    for omega in (surface, np.float64(surface)):
        with pytest.raises(ps.SurfaceModePole):
            ps.reflection_nonretarded(m, omega)

    def outcome(omega):
        try:
            return ps.reflection_nonretarded(m, omega)
        except ps.SurfaceModePole:
            return None

    for far in (surface * (1.0 - 1e-6), surface * (1.0 + 1e-6)):
        assert outcome(far) is not None
        on, off = surface, far  # bisect for adjacent floats on and off
        while np.nextafter(on, off) != off:
            mid = 0.5 * (on + off)
            if outcome(mid) is None:
                on = mid
            else:
                off = mid
        for w in (np.nextafter(on, surface), on, off, np.nextafter(off, far)):
            want = outcome(float(w))
            got = outcome(np.float64(w))
            if want is None:
                assert got is None
            else:
                assert type(want) is type(got) is np.complex128
                assert got.tobytes() == want.tobytes()
        assert outcome(on) is None
        assert outcome(off) is not None


# ---------------------------------------------------------------------------
# fresnel
# ---------------------------------------------------------------------------


def test_fresnel_vacuum_no_interface():
    m = ps.MaterialModel("vacuum", oscillators=())
    r_s, r_p = ps.fresnel(ps.permittivity(m, 1e13), 1e13, 5e6)
    assert r_s == 0.0 + 0.0j
    assert r_p == 0.0 + 0.0j


def test_fresnel_normal_incidence_eps_4():
    # Undamped oscillator probed far below resonance: eps -> 1 + omega_P^2/
    # omega_T^2 = 4 with ~1e-8 dispersion correction at omega/omega_T = 1e-4.
    m = ps.MaterialModel(
        "eps4", oscillators=(
            ps.Oscillator(omega_P=math.sqrt(3.0) * 1e13, omega_T=1e13),))
    omega = 1e9
    r_s, r_p = ps.fresnel(ps.permittivity(m, omega), omega, 0.0)
    assert r_s == pytest.approx(-1.0 / 3.0, rel=1e-6)
    assert r_p == pytest.approx(+1.0 / 3.0, rel=1e-6)


@pytest.mark.parametrize("material", ["material_broad", "material_narrow"])
def test_fresnel_equals_array_oracle(request, material):
    """fresnel over an array of k_rho gives complex128 arrays with the bits
    of the array oracle (oracles.fresnel_array), and each number k_rho the
    same bits: at k_rho = 0, exactly on the light line and on both sides of
    it up to 1e9 omega/c, at each mode centre, at half the lower one and at
    twice the upper one."""
    m = request.getfixturevalue(material)
    modes = ps.find_polariton_modes(m)
    omegas = [0.5 * modes[0].omega_center,
              *(mode.omega_center for mode in modes),
              2.0 * modes[-1].omega_center]
    for omega in omegas:
        k0 = omega / C
        k_rho = np.concatenate((
            [0.0, k0], k0 * np.geomspace(1e-6, 1.0 - 1e-12, 150),
            k0 * np.geomspace(1.0 + 1e-12, 1e9, 300)))
        want = fresnel_array(m, np.full(k_rho.shape, omega), k_rho)
        eps = ps.permittivity(m, omega)
        got = ps.fresnel(eps, omega, k_rho)
        assert all(r.dtype == np.complex128 for r in got)
        assert all(np.array_equal(g, w) for g, w in zip(got, want))
        for k, r_s, r_p in zip(k_rho.tolist(), *want):
            assert ps.fresnel(eps, omega, k) == (r_s, r_p)


@pytest.mark.parametrize("material", FIXTURE_MATERIALS)
def test_fresnel_per_node_frequencies_equal_each_alone(request, material):
    """eps and omega given per node, as green_full hands them over for all
    of its frequencies at once, give each node the bits of fresnel at its
    own omega alone, sign of zero included: at half the lower mode centre,
    at each centre and where 0 < Re eps < 1, on both sides of the light
    line."""
    m = request.getfixturevalue(material)
    modes = ps.find_polariton_modes(m)
    omegas = [0.5 * modes[0].omega_center,
              *(mode.omega_center for mode in modes)]
    omegas.append(next(
        w for w in np.geomspace(omegas[-1], 100.0 * omegas[-1],
                                400).tolist()
        if 0.0 < ps.permittivity(m, w).real < 1.0))
    eps, omega, k_rho, want = [], [], [], []
    for w in omegas:
        k = (w / C) * np.concatenate(([0.0, 1.0], np.geomspace(1e-6, 1e6, 60)))
        e = ps.permittivity(m, w)
        want.append(ps.fresnel(e, w, k))
        eps += [e] * len(k)
        omega += [w] * len(k)
        k_rho.append(k)
    got = ps.fresnel(np.array(eps), np.array(omega), np.concatenate(k_rho))
    for g, part in zip(got, zip(*want)):
        assert g.tobytes() == np.concatenate(part).tobytes()


def test_fresnel_takes_the_upper_root_for_a_gain_medium():
    """With Im eps < 0, as for a gain medium, the principal root of
    eps omega^2/c^2 - k_rho^2 has Im < 0, and fresnel flips k_dz to
    Im >= 0: r_s and r_p agree with the cmath scalars of
    oracles.fresnel_cmath at k_rho on both sides of the light line and of
    sqrt(Re eps) omega/c, and the k_dz each of them gives back,
    k_vz (1 - r_s)/(1 + r_s) and eps k_vz (1 - r_p)/(1 + r_p), has
    Im > 0 off the light line.  Without the flip r_s would be 1/r_s."""
    eps, omega = 2.0 - 0.5j, 1e13
    k0 = omega / C
    k_rho = k0 * np.array([0.0, 0.3, 0.9, 1.0, 1.1, 1.4, 2.0, 10.0, 1e4])
    got = ps.fresnel(eps, omega, k_rho)
    for k, r_s, r_p in zip(k_rho.tolist(), *got):
        want_s, want_p = fresnel_cmath(eps, omega, k)
        assert r_s == pytest.approx(want_s, rel=1e-14, abs=0)
        assert r_p == pytest.approx(want_p, rel=1e-14, abs=0)
        k_vz = cmath.sqrt(complex(k0 * k0 - k * k))
        if k_vz:  # on the light line r_s = r_p = -1 whatever k_dz
            r_s, r_p = complex(r_s), complex(r_p)
            assert (k_vz * (1 - r_s) / (1 + r_s)).imag > 0
            assert (eps * k_vz * (1 - r_p) / (1 + r_p)).imag > 0


def test_fresnel_rejects_bad_arguments(material_broad):
    """NaN, omega <= 0 and k_rho < 0 raise ValueError, never a NaN, also
    at one node of a per-node omega."""
    eps = ps.permittivity(material_broad, 1e13)
    for omega, k_rho in ((math.nan, 1.0), (1e13, math.nan), (0.0, 1.0),
                         (-1e13, 1.0), (1e13, -1.0), (1e13, -1e-300),
                         (np.array([1e13, math.nan]), np.ones(2)),
                         (np.array([1e13, 0.0]), np.ones(2))):
        with pytest.raises(ValueError):
            ps.fresnel(eps, omega, k_rho)


@pytest.mark.parametrize("omega_cm", [30.0, 60.0, 73.0, 80.0, 90.0, 120.0])
def test_fresnel_nonretarded_limit(material_broad, omega_cm):
    """r_p converges to (eps-1)/(eps+1) once k_rho >> omega/c."""
    omega = omega_cm * CM1
    target = ps.reflection_nonretarded(material_broad, omega)
    for factor in (2e3, 1e4):
        k_rho = factor * omega / 299792458.0
        _, r_p = ps.fresnel(ps.permittivity(material_broad, omega), omega,
                            k_rho)
        assert abs(r_p - target) / abs(target) < 1e-3


# ---------------------------------------------------------------------------
# find_polariton_modes
# ---------------------------------------------------------------------------

SINGLE_T = 1e13
SINGLE_P = 8e12
SINGLE_SURFACE = math.sqrt(SINGLE_T**2 + SINGLE_P**2 / 2.0)


def _single(gamma):
    return ps.MaterialModel(
        "single", oscillators=(
            ps.Oscillator(omega_P=SINGLE_P, omega_T=SINGLE_T,
                          gamma_damp=gamma),))


def test_modes_single_small_damping_center():
    modes = ps.find_polariton_modes(_single(1e-4 * SINGLE_T))
    assert len(modes) == 1
    assert modes[0].omega_center == pytest.approx(SINGLE_SURFACE, rel=1e-3)


def test_modes_width_tracks_damping():
    # For omega_P = omega_T and Gamma = 0.01 omega_T the FWHM of Im r_p
    # matches the oscillator damping itself to within 20%.
    m = ps.MaterialModel(
        "w", oscillators=(ps.Oscillator(omega_P=1e13, omega_T=1e13,
                                        gamma_damp=1e11),))
    mode, = ps.find_polariton_modes(m)
    assert mode.linewidth == pytest.approx(1e11, rel=0.2)


def test_modes_center_converges_as_damping_vanishes():
    errors = []
    for g in (1e-2, 1e-3, 1e-4):
        mode, = ps.find_polariton_modes(_single(g * SINGLE_T))
        errors.append(abs(mode.omega_center - SINGLE_SURFACE) / SINGLE_SURFACE)
    assert errors[0] > errors[1] > errors[2]
    assert errors[2] < 1e-4


def test_modes_two_oscillators_ascending(material_broad):
    modes = ps.find_polariton_modes(material_broad)
    assert len(modes) == 2
    lo, hi = modes
    assert lo.omega_center < hi.omega_center
    assert lo.omega_center == pytest.approx(73.0 * CM1, rel=5e-3)
    assert hi.omega_center == pytest.approx(90.0 * CM1, rel=5e-3)
    # Interior band edge at the midpoint, outermost edges at Omega -+ 5 gamma.
    mid = 0.5 * (lo.omega_center + hi.omega_center)
    assert lo.band_hi == pytest.approx(mid, rel=1e-12)
    assert hi.band_lo == pytest.approx(mid, rel=1e-12)
    assert lo.band_lo == pytest.approx(
        lo.omega_center - 5.0 * lo.linewidth, rel=1e-12)
    assert hi.band_hi == pytest.approx(
        hi.omega_center + 5.0 * hi.linewidth, rel=1e-12)
    assert lo.narrow and hi.narrow
    assert lo.band_lo < lo.omega_center < lo.band_hi


def test_modes_found_for_oscillators_decades_apart():
    """The crossing of a low oscillator is found when another sits four
    decades higher: below it the upper oscillator adds 1 to eps, so the
    lower mode sits at sqrt(omega_T^2 + omega_P^2/3)."""
    m = ps.MaterialModel("decades", oscillators=(
        ps.Oscillator(omega_P=1e12, omega_T=1e12, gamma_damp=1e10),
        ps.Oscillator(omega_P=1e16, omega_T=1e16, gamma_damp=1e14)))
    lo, hi = ps.find_polariton_modes(m)
    assert lo.omega_center == pytest.approx(math.sqrt(1e24 + 1e24 / 3.0),
                                            rel=1e-3, abs=0)
    assert hi.omega_center == pytest.approx(math.sqrt(1.5) * 1e16,
                                            rel=1e-3, abs=0)


@pytest.mark.xfail(strict=True, raises=AssertionError, reason=(
    "ROADMAP item 8: the in-module bounded minimiser refines the peak in "
    "absolute omega, where its tolerance sqrt(eps)*omega ~ 1.8e5 rad/s "
    "exceeds the linewidth; minimizing in the offset from the crossing "
    "fixes it but moves window-edge centres in the modes_sweep references"))
def test_modes_high_q_linewidth():
    """At gamma/omega_T = 1e-8 the FWHM of Im r_p is the damping 1e5 rad/s,
    and the reported peak is the maximum of Im r_p on a fine grid."""
    m = ps.MaterialModel(
        "high-Q", oscillators=(ps.Oscillator(omega_P=1e13, omega_T=1e13,
                                             gamma_damp=1e5),))
    mode, = ps.find_polariton_modes(m)
    assert mode.linewidth == pytest.approx(1e5, rel=1e-2, abs=0)
    surface = math.sqrt(1.5) * 1e13
    grid = np.linspace(surface - 1e6, surface + 1e6, 200001)
    grid_max = max(ps.reflection_nonretarded(m, w).imag
                   for w in grid.tolist())
    # grid_max never exceeds the true peak, so a peak found to 1e-9 passes
    assert mode.im_rp_peak >= (1.0 - 1e-9) * grid_max


#: the unit roundoff of float64
UNIT_ROUNDOFF = 2.0**-53

#: the damping scale that the damping-limit test compares every other with
S_REF = 1e-4


def _damping_scaled(m, s):
    return ps.MaterialModel(m.name, oscillators=tuple(
        ps.Oscillator(o.omega_P, o.omega_T, s * o.gamma_damp)
        for o in m.oscillators))


def _eps_plus_one_rounding(m, omega):
    """Bound on the float64 rounding error of eps(omega) + 1, derived in
    test_modes_converge_as_damping_vanishes."""
    w2, total = omega * omega, 2.0
    for o in m.oscillators:
        p2, t2 = o.omega_P * o.omega_P, o.omega_T * o.omega_T
        d = abs(complex(t2 - w2, omega * o.gamma_damp))
        total += p2 / d * (2.0 + (t2 + w2) / d)
    return 8.0 * UNIT_ROUNDOFF * total


def _damping_limit_values(m, atom, s):
    """{name: (value, rounding allowance)} of linewidth/s and the centre of
    the lower and upper mode and of u_eff (Rb 27S1/2 -> 26S1/2, z = 1 um,
    resonance_tol opened) on m with every gamma times s."""
    ms = _damping_scaled(m, s)
    lo, hi = ps.find_polariton_modes(ms)
    values, width_allowances = {}, 0.0
    for label, mode in (("lower", lo), ("upper", hi)):
        c, w = mode.omega_center, mode.linewidth
        im_eps = ps.permittivity(ms, c).imag
        delta = _eps_plus_one_rounding(ms, c)
        n_w = 2.0 * delta / im_eps + 2.0 * math.ulp(c) / w
        values[f"{label} linewidth/s"] = (w / s, n_w)
        values[f"{label} centre"] = (
            c, (0.5 * delta * w / im_eps + math.ulp(c)) / c)
        width_allowances += n_w
    u = ps.u_eff(atom, "27S1/2", "26S1/2", hi, lo, ms,
                 ps.Environment(z=1e-6, T=0.0), resonance_tol=math.inf)
    values["u_eff"] = (u, 2.0 * width_allowances)
    return values


@pytest.mark.xfail(strict=True, raises=(AssertionError, ps.SurfaceModePole),
                   reason=(
    "ROADMAP item 8: the peak search stops within sqrt(eps)*omega of the "
    "peak, which misplaces the half-maximum level once the linewidth "
    "nears it, and POLE_RTOL refuses the peak of a weakly damped mode"))
def test_modes_converge_as_damping_vanishes(request, rb_atom):
    """With every gamma of material_broad and material_narrow scaled by
    s = 10^-k (k = 0...12), linewidth/s, each centre and u_eff converge.

    Tolerance.  Each gamma enters eps only as -i omega gamma, so s -> -s
    conjugates eps and r_p: Im r_p and its FWHM are odd in s, and the
    centre and u_eff (sqrt(gamma1 gamma2) times two Im G over the root of
    their traces, and W(x) through gamma1^2) are even.  So each value v is
    v(0) (1 + a s^2 + O(s^4)).  Its value at s = 1 sets the size of a: the
    test compares v(s) with v(S_REF) and allows
    2 |v(1)/v(S_REF) - 1| (s^2 + S_REF^2), where the factor 2 covers the
    O(s^4) terms; 40-digit mpmath peaks and half-maximum points on both
    materials, k = 0...6, need at most 1.32 of it.

    To that it adds the rounding allowance n of v(s) and of v(S_REF).
    eps + 1 = 2 + sum_j P_j/D_j with D_j = T_j - w^2 - i w gamma_j (P_j and
    T_j the squares of omega_Pj and omega_Tj): rounding w^2 and the
    subtraction errs by u (T_j + w^2) in D_j, that is (T_j + w^2)/|D_j| of
    it, the quotient and the two sums by u each, so with u = 2^-53 and a
    factor 2 to spare the error of eps + 1 is at most
    delta = 8 u (2 + sum_j (P_j/|D_j|) (2 + (T_j + w^2)/|D_j|)).  Near a
    peak Re(eps + 1) crosses 0 with slope Re eps' = 2 Im eps/w, w the FWHM,
    and each half-maximum point sits where |Re(eps + 1)| = Im eps.  An error
    delta in Re(eps + 1) moves the centre and each half-maximum point by
    delta/Re eps', and the same error in Im eps moves the half-maximum
    level by as much again, so the FWHM is off by at most 2 delta/Im eps
    of itself, plus an ulp of omega at each end, and the centre by
    delta/Re eps' plus an ulp.  u_eff reads the square roots of both
    widths and of both peak values of Im r_p = 2 Im eps/|eps + 1|^2, each
    off by no more than the width's allowance, so its allowance is twice
    the sum of the two widths'.  At s = 1e-12 the width allowance is still
    0.15 on material_broad and 0.43 on material_narrow, but at s = 1e-7 it
    is 1.4e-6, against a linewidth/s 2.49 too large there today.
    """
    for name in ("material_broad", "material_narrow"):
        m = request.getfixturevalue(name)
        at_one = _damping_limit_values(m, rb_atom, 1.0)
        ref = _damping_limit_values(m, rb_atom, S_REF)
        for k in range(13):
            s = 10.0**-k
            for key, (v, n) in _damping_limit_values(m, rb_atom, s).items():
                (v_ref, n_ref), v_one = ref[key], at_one[key][0]
                bound = (2.0 * abs(v_one / v_ref - 1.0) * (s * s + S_REF**2)
                         + n + n_ref)
                assert abs(v / v_ref - 1.0) <= bound, (name, k, key)


def test_modes_undamped_has_no_mode():
    m = ps.MaterialModel(
        "undamped", oscillators=(
            ps.Oscillator(omega_P=SINGLE_P, omega_T=SINGLE_T),))
    with pytest.raises(ps.NoModeFound):
        ps.find_polariton_modes(m)


def test_modes_none_without_interior_maximum():
    m = ps.MaterialModel("vacuum", oscillators=())
    with pytest.raises(ps.NoModeFound):
        ps.find_polariton_modes(m)


def test_mode_width_from_pole_agrees_with_fwhm():
    m = _single(1e11)
    mode, = ps.find_polariton_modes(m)
    center, width = mode_width_from_pole(m, mode)
    assert center == pytest.approx(mode.omega_center, rel=1e-6)
    assert width == pytest.approx(mode.linewidth, rel=0.05)


# ---------------------------------------------------------------------------
# the mode finder's solvers against scipy and mpmath, and its exact scaling
# ---------------------------------------------------------------------------

#: Drude-Lorentz materials of 1-4 oscillators as (omega_P, omega_T, gamma):
#: omega_T from 1e11 to 1e15 rad/s, omega_P/omega_T from 0.4 to 1.6 and
#: gamma/omega_T from 1e-3 to 0.1
OSCILLATORS = st.lists(
    st.tuples(st.floats(11.0, 15.0), st.floats(0.4, 1.6),
              st.floats(-3.0, -1.0)).map(
        lambda t: (t[1] * 10**t[0], 10**t[0], 10**(t[0] + t[2]))),
    min_size=1, max_size=4)


def _drawn(oscillators, lam=1.0):
    return ps.MaterialModel("drawn", oscillators=tuple(
        ps.Oscillator(lam * wp, lam * wt, lam * g)
        for wp, wt, g in oscillators))


def _modes_or_error(m):
    try:
        return ps.find_polariton_modes(m)
    except ps.NoModeFound as exc:
        return type(exc)


def _recorded(f, xs):
    def g(x):
        xs.append(x)
        return f(x)
    return g


def _modes_checked_against_scipy(m):
    """find_polariton_modes(m), with every _bounded_minimum call repeated by
    scipy's bounded minimize_scalar on the finder's own callback, ends and
    tolerance: the points evaluated and the result must be the same bits.
    Returns the number of checked calls."""
    bounded = material._bounded_minimum
    checked = []

    def bounded_vs_scipy(f, lo, hi, xatol):
        ours, theirs = [], []
        got = bounded(_recorded(f, ours), lo, hi, xatol=xatol)
        res = optimize.minimize_scalar(
            _recorded(f, theirs), bounds=(lo, hi), method="bounded",
            options={"xatol": xatol})
        assert (got, ours) == ((res.x, res.fun), theirs)
        checked.append((lo, hi))
        return got

    with mock.patch.object(material, "_bounded_minimum", bounded_vs_scipy):
        _modes_or_error(m)
    return len(checked)


@pytest.mark.parametrize("name", FIXTURE_MATERIALS)
def test_solver_ports_equal_scipy_on_fixtures(request, name):
    """Each of the finder's peak searches takes the steps and gives the
    result of scipy's bounded minimize_scalar, bit for bit: one per mode."""
    m = request.getfixturevalue(name)
    assert _modes_checked_against_scipy(m) == len(ps.find_polariton_modes(m))


@settings(max_examples=40, deadline=None)
@given(oscillators=OSCILLATORS)
def test_solver_ports_equal_scipy_on_drawn_materials(oscillators):
    _modes_checked_against_scipy(_drawn(oscillators))


BOUNDED_AWKWARD = (
    lambda x: 1.0,
    lambda x: round(8.0 * x) / 8.0,
    lambda x: abs(x - 0.3),
    lambda x: -abs(x - 0.3),
    lambda x: math.cos(30.0 * x) + 0.1 * x,
    lambda x: (x - 0.999999) ** 2,
)


@pytest.mark.parametrize("f", BOUNDED_AWKWARD)
@pytest.mark.parametrize("xatol", [1e-300, 1e-12, 1e-3])
def test_bounded_minimum_port_equals_scipy_on_awkward_functions(f, xatol):
    """A constant, plateaus, kinks, many minima and a minimum at the edge:
    the same points evaluated and the same (x, f(x)), bit for bit."""
    ours, theirs = [], []
    got = material._bounded_minimum(_recorded(f, ours), 0.0, 1.0,
                                    xatol=xatol)
    res = optimize.minimize_scalar(_recorded(f, theirs), bounds=(0.0, 1.0),
                                   method="bounded",
                                   options={"xatol": xatol})
    assert (got, ours) == ((res.x, res.fun), theirs)


@pytest.mark.parametrize("bounds", [(-math.inf, 1.0), (0.0, math.inf),
                                    (math.nan, 1.0)])
def test_bounded_minimum_port_rejects_non_finite_bounds(bounds):
    def f(x):
        return (x - 0.5) ** 2

    with pytest.raises(ValueError):
        optimize.minimize_scalar(f, bounds=bounds, method="bounded")
    with pytest.raises(ValueError):
        material._bounded_minimum(f, *bounds, xatol=1e-5)


def test_bounded_minimum_port_stops_at_maxfun_like_scipy():
    """Out of calls, both return their best point so far without error."""
    def f(x):
        return math.cos(3.0 * x) + 0.1 * x

    res = optimize.minimize_scalar(f, bounds=(0.0, 10.0), method="bounded",
                                   options={"xatol": 1e-300, "maxiter": 7})
    assert res.nfev == 7
    assert material._bounded_minimum(f, 0.0, 10.0, xatol=1e-300,
                                     maxfun=7) == (res.x, res.fun)


#: the unit roundoff of a double
U = 2.0**-53


def _eps_rounding(m, w):
    """A first-order bound on |eps(w) as computed - eps(w)| at real w.

    Each oscillator's D = omega_T^2 - w^2 - i w gamma is computed from three
    rounded products and one rounded difference, so it is off by at most
    2u S with S = omega_T^2 + w^2 + w gamma; omega_P^2 adds u and the
    complex division at most 5u, so P/D is off by |P/D| (2 S/|D| + 6) u.
    The n additions of 1 + sum_j P/D add at most n u (1 + sum_j |P/D|)."""
    n, err, size = len(m.oscillators), 0.0, 0.0
    for o in m.oscillators:
        p, t, g = o.omega_P**2, o.omega_T**2, o.gamma_damp
        d = abs(complex(t - w * w, -w * g))
        err += p / d * (2.0 * (t + w * w + w * g) / d + 6.0)
        size += p / d
    return U * (err + n * (1.0 + size))


def _root_bound(f_err, root, xtol):
    """The bound on |omega found - root| for a polish whose values are off
    by at most f_err: the root of the computed function lies within
    f_err/|f'| of the true one, the Newton step after the last one, shorter
    than xtol, is at most |f''|/(2|f'|) xtol^2, and the result is rounded
    to a double, u omega.  root is (root, f', f'') from the oracle."""
    w, d1, d2 = (abs(float(v)) for v in root)
    return f_err / d1 + d2 / (2.0 * d1) * xtol * xtol + U * w


def _assert_polished_roots_match_mpmath(m):
    """Every Re eps = -1 crossing and every half-maximum point the finder
    polishes lies within twice its _root_bound of the 40-digit root
    (twice, for the second-order terms the bound leaves out).

    A crossing's value Re eps + 1 is off by _eps_rounding + u.  A
    half-maximum point solves Im r_p = level for the finder's own level,
    half its peak; r_p = (eps - 1)/(eps + 1) is off by
    |dr_p/d eps| _eps_rounding + 7u |r_p| (two rounded sums and one
    complex division), dr_p/d eps = 2/(eps + 1)^2, and subtracting level
    adds u level."""
    for r in material._ascending_eps_roots(m):
        ref = eps_crossing(m, r)
        bound = _root_bound(_eps_rounding(m, r) + U, ref, 1e-13 * r)
        assert abs(float(r - ref[0])) <= 2.0 * bound, (r, ref[0], bound)
    points = []
    half_max_point_of = material._half_max_point

    def recorded(m, center, peak, step, direction):
        w = half_max_point_of(m, center, peak, step, direction)
        points.append((center, 0.5 * peak, w))
        return w

    with mock.patch.object(material, "_half_max_point", recorded):
        modes = _modes_or_error(m)
    if modes is not ps.NoModeFound:
        assert len(points) >= 2 * len(modes)
    for center, level, w in points:
        if w is None:
            continue
        ref = half_max_point(m, level, w)
        eps = complex(ps.permittivity(m, w))
        r_p = (eps - 1.0) / (eps + 1.0)
        err = abs(2.0 / (eps + 1.0) ** 2) * _eps_rounding(m, w) \
            + 7.0 * U * abs(r_p) + U * level
        bound = _root_bound(err, ref, 1e-13 * center)
        assert abs(float(w - ref[0])) <= 2.0 * bound, (w, ref[0], bound)


@pytest.mark.parametrize("name", FIXTURE_MATERIALS)
def test_polished_roots_match_mpmath_on_fixtures(request, name):
    _assert_polished_roots_match_mpmath(request.getfixturevalue(name))


@settings(max_examples=30, deadline=None)
@given(oscillators=OSCILLATORS)
def test_polished_roots_match_mpmath_on_drawn_materials(oscillators):
    _assert_polished_roots_match_mpmath(_drawn(oscillators))


def test_half_maximum_polishes_start_from_the_peaks_lorentzian(request):
    """Each half-maximum polish starts where the Lorentzian through the
    peak and the march's first sample below half is at half maximum, so
    over the four fixtures and 200 _random_materials it takes at most 4
    _eps_deps values per half-maximum point on average: on this set the
    secant start of the march's last step took 5.17, the Lorentzian's
    takes 3.59.  The march's own samples come from _real_eps and are not
    counted."""
    half_max_point_of, eps_deps_of = material._half_max_point, \
        material._eps_deps
    counts = {"points": 0, "values": 0, "inside": False}

    def recorded(*args):
        counts["inside"] = True
        try:
            return half_max_point_of(*args)
        finally:
            counts["inside"] = False
            counts["points"] += 1

    def counted(m, w):
        counts["values"] += counts["inside"]
        return eps_deps_of(m, w)

    modes = 0
    with mock.patch.object(material, "_half_max_point", recorded), \
            mock.patch.object(material, "_eps_deps", counted):
        for m in [*map(request.getfixturevalue, FIXTURE_MATERIALS),
                  *_random_materials(20240603, 200)]:
            table = _finder_outcome(m)
            modes += len(table) if isinstance(table, list) else 0
    assert modes > 200 and counts["points"] >= 2 * modes
    assert counts["values"] <= 4.0 * counts["points"], counts


#: (f, root) on [0, 1]: f(x) is (value, slope), value < 0 left of the root
#: (or of the jump, for the last) and >= 0 right of it
POLISH_AWKWARD = (
    (lambda x: (x - 0.3, 1.0), 0.3),
    (lambda x: (x - 0.3, -1.0), 0.3),  # every step leaves the bracket
    (lambda x: (x - 0.3, 0.0), 0.3),
    (lambda x: (x - 0.3, math.nan), 0.3),
    (lambda x: (math.tanh(50.0 * (x - 0.7)), 1e-3), 0.7),
    (lambda x: ((x - 0.3) ** 3, 3.0 * (x - 0.3) ** 2), 0.3),
    (lambda x: (1e-200 * (math.exp(x) - 1.5), 1e-200 * math.exp(x)),
     math.log(1.5)),
    (lambda x: (-1.0 if x < 0.3 else 2.0, 1.0), 0.3),
)


@pytest.mark.parametrize("f, root", POLISH_AWKWARD)
@pytest.mark.parametrize("start", [0.0, 0.45, 1.0])
@pytest.mark.parametrize("mirrored", [False, True])
def test_polish_evaluates_only_inside_its_bracket(f, root, start, mirrored):
    """Slopes of the wrong sign, zero, NaN or far too small, a triple root,
    values near 1e-200 and a jump: every point evaluated lies in [0, 1],
    and the polish returns a float within 3 xtol of the root or the jump
    (the triple root converges linearly, by 2/3 a step; where no step is
    usable, the bisected bracket gets shorter than xtol).  mirrored runs
    f(1 - x) with the bracket given as (1, 0), value < 0 at the first
    end."""
    xs, xtol = [], 1e-12

    def g(x):
        xs.append(x)
        if not mirrored:
            return f(x)
        value, slope = f(1.0 - x)
        return value, -slope

    a, b = (1.0, 0.0) if mirrored else (0.0, 1.0)
    want = 1.0 - root if mirrored else root
    got = material._polish(g, start, a, b, xtol)
    assert all(0.0 <= x <= 1.0 for x in xs)
    assert type(got) is float and abs(got - want) <= 3.0 * xtol


def test_polish_raises_on_a_nan_value():
    def f(x):
        return (math.nan if 0.4 < x < 0.6 else x - 0.5), 1.0

    for start in (0.1, 0.5):
        with pytest.raises(ValueError, match="NaN"):
            material._polish(f, start, 0.0, 1.0, 1e-12)


def test_polish_raises_after_100_steps():
    """x^2 - 2 has no root among the doubles, so with xtol = 0 no step is
    short enough: the polish takes 100 values and raises RuntimeError."""
    xs = []
    with pytest.raises(RuntimeError):
        material._polish(_recorded(lambda x: (x * x - 2.0, 2.0 * x), xs),
                         1.5, 1.0, 2.0, 0.0)
    assert len(xs) == 100 and all(1.0 <= x <= 2.0 for x in xs)


def test_polish_returns_a_float():
    """numpy values and a numpy start give a Python float, whether the
    polish stops on a short step or on a zero value."""
    def f(x):
        return np.float64(x) - 0.25, np.float64(1.0)

    for start in (np.float64(0.5), np.float64(0.25)):
        got = material._polish(f, start, np.float64(0.0), np.float64(1.0),
                               1e-12)
        assert type(got) is float and got == 0.25


@settings(max_examples=40, deadline=None)
@given(oscillators=OSCILLATORS, k=st.integers(-20, 20))
# draws whose omega_P^2 or omega_T^2 libm pow misrounds on one side of the
# scaling only, so that a square taken as x**2 moves a centre's last digit
@example(oscillators=[(599944867167.6447, 1270607032953.375,
                       12706070329.53375)], k=2)
@example(oscillators=[(52742815084905.22, 33395934633423.195,
                       3339593463342.32)], k=3)
@example(oscillators=[(11923604167479.46, 11923604167479.46,
                       1192360416747.946)], k=-1)
def test_modes_scale_exactly_by_powers_of_two(oscillators, k):
    """Scaling every frequency of the material by lam = 2^k scales each
    mode's centre, linewidth and band edges by lam bit for bit and leaves
    im_rp_peak and narrow unchanged: eps is a function of omega/omega_T,
    and every tolerance of the finder is relative to the frequencies.  All
    frequencies stay inside OMEGA_RANGE."""
    lam = 2.0**k
    base = _modes_or_error(_drawn(oscillators))
    scaled = _modes_or_error(_drawn(oscillators, lam))
    if base is ps.NoModeFound:
        assert scaled is ps.NoModeFound
        return
    assert scaled == [
        ps.PolaritonMode(omega_center=lam * md.omega_center,
                         linewidth=lam * md.linewidth,
                         band_lo=lam * md.band_lo, band_hi=lam * md.band_hi,
                         narrow=md.narrow, im_rp_peak=md.im_rp_peak)
        for md in base]


# ---------------------------------------------------------------------------
# lorentzian_ldos_factor
# ---------------------------------------------------------------------------


def test_lorentzian_center_and_half_maximum(material_ldos):
    mode, = ps.find_polariton_modes(material_ldos)
    assert lorentzian_ldos_factor(mode, mode.omega_center) == 1.0
    for sign in (-1.0, +1.0):
        omega = mode.omega_center + sign * mode.linewidth / 2.0
        assert lorentzian_ldos_factor(mode, omega) == pytest.approx(
            0.5, rel=1e-12)


def test_lorentzian_normalization(material_ldos):
    mode, = ps.find_polariton_modes(material_ldos)
    gamma = mode.linewidth
    center = mode.omega_center

    def density(omega):
        # (1/pi)(gamma/2)/((omega-Omega)^2 + gamma^2/4), rearranged through
        # the dimensionless factor.
        return (lorentzian_ldos_factor(mode, omega)
                / (math.pi * gamma / 2.0))

    window, _ = quad(density, center - 200.0 * gamma, center + 200.0 * gamma)
    # A +-200*gamma window covers (2/pi)*arctan(400) of the unit mass: the
    # wings carry ~1.6e-3 no matter the material.  The quadrature must nail
    # that analytic value; the full-line integral is exactly 1 by arctan.
    assert window == pytest.approx(2.0 / math.pi * math.atan(400.0),
                                   rel=1e-10)
    assert window == pytest.approx(1.0, abs=2e-3)
    full = (math.atan(math.inf) - math.atan(-math.inf)) / math.pi
    assert full == pytest.approx(1.0, abs=1e-6)


# ---------------------------------------------------------------------------
# serialization
# ---------------------------------------------------------------------------


def test_material_round_trip(material_broad):
    doc = material_to_dict(material_broad)
    again = ps.material_from_dict(doc)
    assert again == material_broad
    # And through actual JSON text.
    assert ps.material_from_dict(json.loads(json.dumps(doc))) == material_broad


def test_load_material_reports_field_paths(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({
        "schema_version": 1,
        "name": "x",
        "oscillators": [{"omega_T": 90.0, "unit": "cm^-1"}],
    }))
    with pytest.raises(ps.ParseError) as err:
        ps.load_material(bad)
    assert "oscillators[0].omega_P" in str(err.value)


def test_load_material_rejects_unknown_unit(tmp_path):
    bad = tmp_path / "bad_unit.json"
    bad.write_text(json.dumps({
        "name": "x",
        "oscillators": [
            {"omega_P": 1.0, "omega_T": 2.0, "gamma": 0.1, "unit": "THz"}],
    }))
    with pytest.raises(ps.ParseError) as err:
        ps.load_material(bad)
    assert "unit" in str(err.value)


def test_load_material_rejects_empty_oscillator_list(tmp_path):
    bad = tmp_path / "empty.json"
    bad.write_text(json.dumps({"name": "x", "oscillators": []}))
    with pytest.raises(ps.ParseError) as err:
        ps.load_material(bad)
    assert "oscillators" in str(err.value)


def test_load_material_rejects_wrong_schema_version(tmp_path):
    bad = tmp_path / "version.json"
    bad.write_text(json.dumps({
        "schema_version": 99,
        "name": "x",
        "oscillators": [
            {"omega_P": 1.0, "omega_T": 2.0, "gamma": 0.1, "unit": "rad/s"}],
    }))
    with pytest.raises(ps.ParseError) as err:
        ps.load_material(bad)
    assert "schema_version" in str(err.value)


@pytest.mark.parametrize("field", ["omega_P", "omega_T", "gamma"])
@pytest.mark.parametrize("token", ["NaN", "Infinity"])
def test_load_material_rejects_non_finite_tokens(tmp_path, field, token):
    entry = {"omega_P": 1.0, "omega_T": 2.0, "gamma": 0.1, "unit": "rad/s"}
    entry[field] = "TOKEN"
    bad = tmp_path / "nonfinite.json"
    bad.write_text(json.dumps({"name": "x", "oscillators": [entry]})
                   .replace('"TOKEN"', token))
    with pytest.raises(ps.ParseError) as err:
        ps.load_material(bad)
    assert "oscillators[0]" in str(err.value)


def test_load_material_rejects_frequencies_outside_float_range(tmp_path):
    """omega^2 overflows at 1e200 rad/s and underflows at 1e-200 rad/s, so
    such oscillators are input errors; both ends of OMEGA_RANGE give a
    finite mode table."""
    f = tmp_path / "extreme.json"

    def load(wp, wt, g):
        f.write_text(json.dumps({"name": "x", "oscillators": [
            {"omega_P": wp, "omega_T": wt, "gamma": g, "unit": "rad/s"}]}))
        return ps.load_material(f)

    for bad in ((1e200, 1e200, 1e198), (1e-200, 1e-200, 1e-202),
                (1e13, 1e13, 1e-40), (1e13, 1e31, 1e11)):
        with pytest.raises(ps.ParseError,
                           match=r"must lie in \[1e-30, 1e\+30\] rad/s"
                                 r".*\(at 'oscillators\[0\]'\)"):
            load(*bad)
    lo, hi = ps.material.OMEGA_RANGE
    for end in ((1e2 * lo, 1e2 * lo, lo), (hi, hi, 1e-2 * hi)):
        mode, = ps.find_polariton_modes(load(*end))
        assert all(map(math.isfinite, (mode.omega_center, mode.linewidth,
                                       mode.im_rp_peak)))


def test_load_material_accepts_unit_tags(tmp_path, readme_inputs):
    f = tmp_path / "units.json"
    f.write_text(json.dumps({
        "name": "u",
        "oscillators": [
            {"omega_P": 90.0, "omega_T": 73.0, "gamma": 1.0, "unit": "cm^-1"},
            {"omega_P": 1e12, "omega_T": 2e12, "gamma": 1e10, "unit": "Hz"},
            {"omega_P": 3e13, "omega_T": 4e13, "gamma": 1e11, "unit": "rad/s"},
        ],
    }))
    m = ps.load_material(f)
    by_T = sorted(o.omega_T for o in m.oscillators)
    # 2*pi*2e12 < 73 cm^-1 in rad/s < 4e13.
    assert by_T[0] == pytest.approx(2.0 * math.pi * 2e12, rel=1e-15)
    assert by_T[1] == pytest.approx(73.0 * CM1, rel=1e-15)
    assert by_T[2] == 4e13
    # The README's material example loads as written.
    f.write_text(json.dumps(readme_inputs["material"]))
    osc, = ps.load_material(f).oscillators
    assert (osc.omega_P, osc.omega_T, osc.gamma_damp) == (8e12, 1e13, 2e11)
