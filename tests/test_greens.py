"""Coincident-point scattering Green tensor above the half-space."""

import json
import math

import numpy as np
import pytest

import polshift as ps
from polshift import greens
from oracles import (green_full_evan_mp, green_full_imag_axis_mp,
                     green_full_prop_mp, lorentzian_ldos_factor,
                     tensor_to_jsonable)
from polshift.units import C, cube

Z = 1e-6


# ---------------------------------------------------------------------------
# GreenTensor3 structure
# ---------------------------------------------------------------------------


def test_tensor_trace_and_serialization(material_toy):
    g = ps.green_nonretarded(material_toy, Z, 1.1e13)
    assert g.trace == pytest.approx(2.0 * g.xx + g.zz, rel=1e-15)
    assert g.im_trace == pytest.approx(g.trace.imag, rel=1e-15)
    payload = json.loads(json.dumps(tensor_to_jsonable(g)))
    assert payload == [[g.xx.real, g.xx.imag], [g.zz.real, g.zz.imag]]


def test_gprime_reconstructs_reflection(material_toy):
    """z^3 G is the z-free G' = (c^2/(32 pi w^2)) r_p diag(1,1,2)."""
    omega = 1.3e13
    g = ps.green_nonretarded(material_toy, Z, omega)
    rp = ps.reflection_nonretarded(material_toy, omega)
    want = C**2 / (32.0 * math.pi * omega**2) * rp
    assert Z**3 * g.xx == pytest.approx(want, rel=1e-15, abs=0)
    assert Z**3 * g.zz == pytest.approx(2.0 * Z**3 * g.xx, rel=1e-15, abs=0)
    assert Z**3 * g.trace == pytest.approx(4.0 * want, rel=1e-15, abs=0)


# ---------------------------------------------------------------------------
# green_nonretarded
# ---------------------------------------------------------------------------


def test_nonretarded_distance_scaling(material_toy):
    omega = 1.1e13
    near = ps.green_nonretarded(material_toy, Z, omega)
    far = ps.green_nonretarded(material_toy, 2.0 * Z, omega)
    ratio = np.array(near) / np.array(far)
    assert np.allclose(ratio, 8.0, rtol=1e-12, atol=0)


def test_nonretarded_array_matches_scalar_calls(material_broad):
    """A float gives Python complex xx and zz = 2 xx, and an np.float64 the
    same bits, equal to the closed form with omega^2 as one product.  The
    last omega is one whose square libm pow misrounds, so omega**2 would
    give other bits there.  An array of omega raises TypeError
    (test_material.py::test_number_functions_reject_arrays)."""
    for w in [*np.geomspace(1e11, 1e15, 25).tolist(), 1118743162712.3804]:
        r_p = complex(ps.reflection_nonretarded(material_broad, w))
        want = C**2 / (32.0 * math.pi * (w * w) * cube(Z)) * r_p
        one = ps.green_nonretarded(material_broad, Z, w)
        assert type(one.xx) is complex and type(one.zz) is complex
        assert (one.xx, one.zz) == (want, 2.0 * want)
        assert ps.green_nonretarded(material_broad, Z, np.float64(w)) == one


def test_nonretarded_trace_closed_form(material_toy):
    omega = 1.1e13
    g = ps.green_nonretarded(material_toy, Z, omega)
    rp = ps.reflection_nonretarded(material_toy, omega)
    want = 4.0 * C**2 / (32.0 * math.pi * omega**2 * Z**3) * rp
    assert g.trace == pytest.approx(want, rel=1e-14)


def test_nonretarded_complex_frequency(material_toy):
    """Imaginary-axis evaluation goes through eps(i xi), giving a real tensor."""
    xi = 2e13
    g = ps.green_nonretarded(material_toy, Z, 1j * xi)
    eps = ps.permittivity_imag_axis(material_toy, xi)
    want = (C**2 / (32.0 * math.pi * (1j * xi) ** 2 * Z**3)
            * (eps - 1.0) / (eps + 1.0))
    assert abs(g.xx.imag) < abs(g.xx.real) * 1e-12
    assert g.xx == pytest.approx(want, rel=1e-12)


def test_nonretarded_rejects_nonpositive_z(material_toy):
    with pytest.raises(ValueError):
        ps.green_nonretarded(material_toy, 0.0, 1e13)


# ---------------------------------------------------------------------------
# green_full
# ---------------------------------------------------------------------------


def test_full_vacuum_zero():
    m = ps.MaterialModel("vacuum", oscillators=())
    g = ps.green_full(m, Z, 1e13)
    assert g.xx == 0 and g.zz == 0


def test_full_matches_nonretarded_deep(material_toy):
    """omega z / c = 1e-3: full quadrature vs closed form < 0.5% per entry."""
    omega = 1e-3 * C / Z
    full = ps.green_full(material_toy, Z, omega)
    closed = ps.green_nonretarded(material_toy, Z, omega)
    for num, ref in zip(full, closed):
        assert abs(num - ref) / abs(ref) < 5e-3
    # diag(1,1,2) pattern of the nonretarded regime.
    assert abs(full.zz / full.xx - 2.0) < 1e-2


def _recorded_integrals(monkeypatch):
    """{(k, label, comp): (epsabs, value)} of every integral that the
    green_full calls made after this one take at greens._integrate, k the
    index of its omega in its call."""
    integrate, got = greens._integrate, {}

    def recording(integrals):
        values = integrate(integrals)
        got.update(((k, label, comp), (epsabs, value)) for (
            _, k, comp, _, epsabs, label), value in zip(integrals, values))
        return values

    monkeypatch.setattr(greens, "_integrate", recording)
    return got


def _outside_the_bound(got, want, k, side):
    """The (k, label, comp, error in tolerances) of each integral of side
    at omega k of got whose value lies beyond 10 max(epsabs, QUAD_REL_TOL
    |I|) of the integral I in want, a 30-digit oracle's (xx, zz); a part
    that was not integrated is not in got.

    The bound: _integrate takes each real integral's QUADPACK value where
    its error estimate abserr is at most 10 max(epsabs, QUAD_REL_TOL |I|),
    epsabs = QUAD_REL_TOL c^2/(32 pi omega^2 z^3).  DQAGIE's abserr is
    built to exceed the error of its value (the Kronrod-Gauss difference,
    inflated by (200 d/resasc)^1.5, or the spread of the extrapolation), so
    the value taken is within that bound wherever the estimate holds.  The
    oracle's 30 digits are exact at float64, so an integral outside the
    bound is one whose error estimate failed."""
    outside = []
    for comp, exact in zip((0, 2), want):
        label = f"{('xx', 'zz')[comp // 2]} {side}"
        for q, part in enumerate((exact.real, exact.imag)):
            if (k, label, comp + q) not in got:
                continue
            epsabs, value = got[k, label, comp + q]
            errors = (value - part) / max(epsabs,
                                          greens.QUAD_REL_TOL * abs(part))
            if not abs(errors) <= 10.0:
                outside.append((k, label, comp + q, errors))
    return outside


@pytest.mark.parametrize("material", ["material_broad", "material_narrow",
                                      "material_toy", "material_ldos"])
def test_full_propagating_side_matches_the_mp_oracle(request, material,
                                                     monkeypatch):
    """Each propagating-side integral of green_full, Re and Im of xx and zz,
    lies within 10 max(epsabs, QUAD_REL_TOL |I|) of the 30-digit oracle
    green_full_prop_mp, at omega z/c = 0.1, 1 and 10 at the first mode
    centre of each fixture, and on material_narrow also at 2e13 rad/s,
    where Re eps = 0.46 puts the kink of k_dz on this side, at sin theta =
    0.68.  The integrals are read at greens._integrate by label, and the
    bound is derived at _outside_the_bound."""
    m = request.getfixturevalue(material)
    omegas = [ps.find_polariton_modes(m)[0].omega_center]
    if material == "material_narrow":
        omegas.append(2e13)
        assert 0.0 < ps.permittivity(m, 2e13).real < 1.0
    got = _recorded_integrals(monkeypatch)
    for omega in omegas:
        for x in (0.1, 1.0, 10.0):
            z = x * C / omega
            got.clear()
            ps.green_full(m, z, omega)
            assert len(got) == 8
            assert _outside_the_bound(got, green_full_prop_mp(m, z, omega),
                                      0, "propagating") == [], (omega, x)


@pytest.mark.parametrize("material", ["material_broad", "material_narrow",
                                      "material_toy", "material_ldos"])
def test_full_evanescent_side_matches_the_mp_oracle(request, material,
                                                    monkeypatch):
    """Each evanescent-side integral of green_full, Re and Im of xx and zz,
    lies within 10 max(epsabs, QUAD_REL_TOL |I|) of the 30-digit oracle
    green_full_evan_mp, at omega z/c = 0.1, 1 and 10 at the first mode
    centre of each fixture and at half its lowest omega_T, where Re eps > 1
    puts the kink of k_dz on this side; on material_narrow also at the
    omega nearest the mode centre, on a grid from omega_T, where Re eps <
    -1 puts the surface-polariton pole of r_p on this side.  The integrals
    are read at greens._integrate by label, and the bound is derived at
    _outside_the_bound."""
    m = request.getfixturevalue(material)
    centre = ps.find_polariton_modes(m)[0].omega_center
    low = 0.5 * min(o.omega_T for o in m.oscillators)
    assert ps.permittivity(m, low).real > 1.0
    omegas = [centre, low]
    if material == "material_narrow":
        omegas.append(next(
            w for w in np.linspace(2.0 * low, centre, 40)[::-1].tolist()
            if ps.permittivity(m, w).real < -1.0))
    got = _recorded_integrals(monkeypatch)
    for omega in omegas:
        for x in (0.1, 1.0, 10.0):
            z = x * C / omega
            got.clear()
            ps.green_full(m, z, omega)
            assert len(got) == 8
            assert _outside_the_bound(got, green_full_evan_mp(m, z, omega),
                                      0, "evanescent") == [], (omega, x)


#: z of retarded_points pool points 23, 65 and 82 (Rb 27S1/2 on
#: material_broad), whose photon-line evanescent integrals QUADPACK takes
#: 34, 13 and 19 tolerances off
_DISPUTED_Z = {23: 1.542098864139862e-06, 65: 9.805480839838159e-07,
               82: 5.645087785756008e-07}


@pytest.mark.parametrize("point", [pytest.param(i, marks=pytest.mark.xfail(
    strict=True, raises=AssertionError, reason=(
        "QUADPACK's error estimate (0.05 to 0.96 tolerances) misses the "
        "square-root kink of k_dz at u = b Re sqrt(eps - 1), of half-width "
        "2e-5 to 1e-3 in u at these photon frequencies, and accepts a "
        "value 13 to 34 tolerances off; ROADMAP item 2b re-records the "
        "point's reference from green_full_evan_mp, and item 3's contour "
        "avoids the kink"))) for i in _DISPUTED_Z])
def test_full_photon_line_evanescent_side_at_disputed_pool_points(
        material_broad, rb_atom, point, monkeypatch):
    """The photon line's (Re G) evanescent integrals of the retarded_points
    pool point, at every |omega_kn| from 27S1/2, against the 30-digit
    oracle green_full_evan_mp, to 10 max(epsabs, QUAD_REL_TOL |I|) as in
    test_full_evanescent_side_matches_the_mp_oracle.  On each point one
    integral lies outside, Re zz at 1.443e12 rad/s on point 23 and Re xx at
    1.604e12 and 9.032e12 rad/s on points 65 and 82, by 34.3, 13.0 and 18.9
    tolerances, where QUADPACK estimated 0.05, 0.27 and 0.96: so each case
    is a strict xfail until QUADPACK's value is replaced there."""
    z = _DISPUTED_Z[point]
    omegas = [abs(w) for _, w, _ in ps.transitions_from(rb_atom, "27S1/2")]
    got = _recorded_integrals(monkeypatch)
    ps.green_full(material_broad, z, omegas, part="real")
    assert len(got) == 4 * len(omegas)
    outside = [miss for k, omega in enumerate(omegas)
               for miss in _outside_the_bound(
                   got, green_full_evan_mp(material_broad, z, omega), k,
                   "evanescent")]
    assert outside == [], outside


def _scaled(m, lam):
    return ps.MaterialModel(m.name, oscillators=tuple(
        ps.Oscillator(lam * o.omega_P, lam * o.omega_T, lam * o.gamma_damp)
        for o in m.oscillators))


def _entries(g):
    """(Re xx, Im xx, Re zz, Im zz) of a tensor, as a float array."""
    return np.array([g.xx.real, g.xx.imag, g.zz.real, g.zz.imag])


@pytest.mark.parametrize("k", [-3, 1, 4])
@pytest.mark.parametrize("material", ["material_broad", "material_narrow"])
def test_full_scales_exactly_by_powers_of_two(request, material, k):
    """G(m_lam; z/lam, lam omega) = lam G(m; z, omega) bit for bit for
    lam = 2^k: the integrand is (1/z) times a function of omega z/c and eps
    in the dimensionless theta and u, so every node and every rounding
    scales by an exact power of two.  Checked at the lower mode centre and
    z = 2 um, where the light line and the evanescent tail both matter, for
    both parts and for each part alone (the unread part is NaN on both
    sides)."""
    m = request.getfixturevalue(material)
    lam = 2.0**k
    omega = ps.find_polariton_modes(m)[0].omega_center
    z = 2e-6
    for part in (None, "real", "imag"):
        base = ps.green_full(m, z, omega, part=part)
        scaled = ps.green_full(_scaled(m, lam), z / lam, lam * omega,
                               part=part)
        assert np.array_equal(_entries(scaled), lam * _entries(base),
                              equal_nan=True)
        assert np.isnan(_entries(base)).sum() == (0 if part is None else 2)


def _part_cases(material, atom):
    """(z, omega) over z in {0.5, 2, 20} um, at every mode centre of the
    material and at every |omega_kn| of the Rb 27S1/2 photon line."""
    omegas = [md.omega_center for md in ps.find_polariton_modes(material)]
    omegas += [abs(w) for _, w, _ in ps.transitions_from(atom, "27S1/2")]
    return [(z, w) for z in (0.5e-6, 2e-6, 20e-6) for w in omegas]


@pytest.mark.parametrize(
    "material", ["material_broad", "material_narrow", "material_toy"])
def test_full_part_is_that_part_of_both(request, rb_atom, material,
                                        monkeypatch):
    """part="real" gives the real parts of the part=None tensor bit for bit
    and NaN for the imaginary ones, and part="imag" the other way round:
    each part is its own QUADPACK passes, untouched by the other.  So the
    (omega, k_rho) nodes of part=None are those of the two parts together,
    and the panels the two parts share are evaluated once: fewer nodes
    than the two parts take alone, never fewer than either."""
    m = request.getfixturevalue(material)
    nodes, seen = [], set()

    def counted(eps, omega, k_rho):
        nodes.append(np.size(k_rho))
        seen.update(zip(np.broadcast_to(omega, np.shape(k_rho)).tolist(),
                        np.ravel(k_rho).tolist()))
        return ps.fresnel(eps, omega, k_rho)

    monkeypatch.setattr(greens, "fresnel", counted)
    for z, omega in _part_cases(m, rb_atom):
        g, count, at = {}, {}, {}
        for part in (None, "real", "imag"):
            nodes.clear()
            seen.clear()
            g[part] = ps.green_full(m, z, omega, part=part)
            count[part], at[part] = sum(nodes), set(seen)
        both, re, im = g[None], g["real"], g["imag"]
        assert (re.xx.real, re.zz.real) == (both.xx.real, both.zz.real)
        assert (im.xx.imag, im.zz.imag) == (both.xx.imag, both.zz.imag)
        assert all(map(math.isnan, (re.xx.imag, re.zz.imag, im.xx.real,
                                    im.zz.real, re.im_trace,
                                    im.trace.real)))
        assert im.im_trace == both.im_trace
        assert at[None] == at["real"] | at["imag"]
        assert max(count["real"], count["imag"]) <= count[None] \
            < count["real"] + count["imag"]
        assert count["real"] > 0 and count["imag"] > 0


def _bits(tensors):
    """The bytes of every entry of a list of tensors: equal bytes are
    equal bits, sign of zero and NaN included."""
    return np.array([_entries(g) for g in tensors]).tobytes()


def _sequence_omegas(m):
    """Every mode centre of m and one omega above them where
    0 < Re eps < 1."""
    centres = [mode.omega_center for mode in ps.find_polariton_modes(m)]
    thin = next(w for w in np.geomspace(centres[-1], 100.0 * centres[-1],
                                        400).tolist()
                if 0.0 < ps.permittivity(m, w).real < 1.0)
    return [*centres, thin]


@pytest.mark.parametrize("material", ["material_broad", "material_narrow",
                                      "material_toy", "material_ldos"])
def test_full_over_a_sequence_is_each_omega_alone(request, material):
    """green_full over a sequence of omega (a list, a tuple or an array)
    returns the list of the tensors of one call per omega, bit for bit, for
    each part, though all of their quadratures run in one lockstep."""
    m = request.getfixturevalue(material)
    omegas = _sequence_omegas(m)
    for z in (0.5e-6, 2e-6, 20e-6):
        for part in (None, "real", "imag"):
            alone = [ps.green_full(m, z, w, part=part) for w in omegas]
            assert all(isinstance(g, ps.GreenTensor3) for g in alone)
            for seq, want in ((omegas, alone),
                              (tuple(omegas[::-1]), alone[::-1]),
                              (np.array(omegas), alone)):
                got = ps.green_full(m, z, seq, part=part)
                assert isinstance(got, list)
                assert _bits(got) == _bits(want)
    assert ps.green_full(m, 2e-6, []) == []


@pytest.mark.parametrize("material", ["material_broad", "material_toy"])
def test_full_with_one_part_per_omega_is_each_omega_alone(request, material):
    """part may be a list or tuple of one part per omega of a sequence:
    each tensor is bit for bit the one its own call gives with its part,
    though all of their quadratures run in one lockstep."""
    m = request.getfixturevalue(material)
    omegas = _sequence_omegas(m)
    parts = [(None, "real", "imag")[i % 3] for i in range(len(omegas))]
    for z in (0.5e-6, 20e-6):
        want = [ps.green_full(m, z, w, part=p) for w, p in zip(omegas, parts)]
        for seq in (parts, tuple(parts)):
            assert _bits(ps.green_full(m, z, omegas, part=seq)) == \
                _bits(want)
        # the photon line's and the resonant pair's shape: Re G, then Im G
        split = ["real"] * 2 + ["imag"] * (len(omegas) - 2)
        got = ps.green_full(m, z, omegas, part=split)
        assert _bits(got) == _bits(
            ps.green_full(m, z, omegas[:2], part="real")
            + ps.green_full(m, z, omegas[2:], part="imag"))
    assert ps.green_full(m, 2e-6, [], part=[]) == []


def test_full_runs_one_lockstep_at_one_budget(material_narrow, monkeypatch):
    """A green_full call runs one quadpack.lockstep, every integral at
    QUAD_LIMIT, and no integral again: where two of them miss, the call
    raises after that one run, naming the first of the two in call order.

    One budget gives what a first try at a smaller limit L gave, for every
    pass that ends by subdivision L // 2 + 2, because DQAGIE reads its limit
    only in the loop bound, in ier = 1 at the last subdivision and in
    DQPSRT's list bound past L // 2 + 2: on the integrals of one Green call
    on material_narrow at its first mode centre, lockstep at L and at 8 L
    gives equal QuadResults for each such pass, at L = 5, 8, 16 and 200.
    At L = 5 the evanescent passes, which need 7 or 8 subdivisions, end at
    ier 1 with other results, so the check can fail."""
    from polshift import quadpack
    lockstep, runs = quadpack.lockstep, []
    omega = ps.find_polariton_modes(material_narrow)[0].omega_center

    def recording(batch):
        runs.append(batch)
        return lockstep(batch)

    monkeypatch.setattr(quadpack, "lockstep", recording)
    ps.green_full(material_narrow, 2e-6, omega)
    (batch,) = runs
    assert len(batch) == 8 and {i.limit for i in batch} == {greens.QUAD_LIMIT}
    for limit in (5, 8, 16, 200):
        low = lockstep([i._replace(limit=limit) for i in batch])
        high = lockstep([i._replace(limit=8 * limit) for i in batch])
        ends = [res.last <= limit // 2 + 2 for res in high]
        assert all(a == b for a, b, end in zip(low, high, ends) if end)
        if limit == 5:
            assert not all(ends)
            assert all(a.ier == 1 and a != b
                       for a, b, end in zip(low, high, ends) if not end)

    def missing(batch):
        runs.append(batch)
        got = lockstep(batch)
        return [r._replace(abserr=math.inf) if k in (2, 5) else r
                for k, r in enumerate(got)]

    runs.clear()
    monkeypatch.setattr(quadpack, "lockstep", missing)
    with pytest.raises(ps.QuadratureFailure,
                       match=f"[(]xx evanescent[)].* within "
                             f"{greens.QUAD_LIMIT} subdivisions"):
        ps.green_full(material_narrow, 2e-6, omega)
    assert len(runs) == 1 and len(runs[0]) == 8


#: the labels of one omega's integrals, in the order a QuadratureFailure
#: takes them: xx before zz, propagating before evanescent, Re before Im
_ORDER = [(tensor, side, p) for tensor in ("xx", "zz")
          for side in ("propagating", "evanescent") for p in (0, 1)]


@pytest.mark.parametrize("failing, want", [
    # the first omega's failure, though the second fails earlier in _ORDER
    ({(1, "zz", "evanescent", 1), (2, "xx", "propagating", 0)},
     "zz evanescent"),
    ({(0, "zz", "propagating", 0), (0, "xx", "evanescent", 1)},
     "xx evanescent"),
    ({(2, "zz", "evanescent", 0), (2, "zz", "propagating", 1)},
     "zz propagating"),
    ({(0, "xx", "propagating", 1)}, "xx propagating"),
])
def test_full_failure_is_the_first_in_call_order(material_broad, monkeypatch,
                                                 failing, want):
    """Of integrals that miss the tolerance, the one named is the first
    that one call per omega would run: omegas in order, then _ORDER."""
    from polshift import quadpack
    lockstep = quadpack.lockstep
    omegas = _sequence_omegas(material_broad)
    labels = [(k, *order) for k in range(len(omegas)) for order in _ORDER]

    def failing_some(batch):
        # the one run holds the call's integrals in call order
        assert len(batch) == len(labels)
        return [r._replace(abserr=math.inf) if lab in failing else r
                for r, lab in zip(lockstep(batch), labels)]

    monkeypatch.setattr(quadpack, "lockstep", failing_some)
    with pytest.raises(ps.QuadratureFailure, match=f"[(]{want}[)]"):
        ps.green_full(material_broad, 2e-6, omegas)


def test_full_pole_hit_keeps_its_place_in_call_order(monkeypatch):
    """eps raising PoleHit at one omega of a sequence raises it after the
    quadratures of the omegas before it, as one call per omega would: an
    earlier quadrature failure comes first."""
    m = ps.MaterialModel("undamped", oscillators=(
        ps.Oscillator(omega_P=8e12, omega_T=1e13),))
    with pytest.raises(ps.PoleHit):
        ps.green_full(m, Z, [5e12, 1e13, 2e13])
    with pytest.raises(ps.PoleHit):
        ps.green_full(m, Z, [1e13, 5e12])
    monkeypatch.setattr(greens, "QUAD_REL_TOL", 1e-16)
    monkeypatch.setattr(greens, "QUAD_LIMIT", 1)
    with pytest.raises(ps.QuadratureFailure):
        ps.green_full(m, Z, [5e12, 1e13])
    with pytest.raises(ps.PoleHit):
        ps.green_full(m, Z, [1e13, 5e12])


def test_full_evaluates_permittivity_once(material_narrow, monkeypatch):
    """eps(omega) is the same at every k_rho node, so one green_full call
    evaluates it once for all four quadratures, with the bits of the
    unwrapped call."""
    omega = ps.find_polariton_modes(material_narrow)[0].omega_center
    want = ps.green_full(material_narrow, 2e-6, omega)
    calls = []

    def counted(m, w):
        calls.append(w)
        return ps.permittivity(m, w)

    monkeypatch.setattr(greens, "permittivity", counted)
    got = ps.green_full(material_narrow, 2e-6, omega)
    assert calls == [omega]
    assert got == want


def test_full_quadrature_budget_error(material_broad, monkeypatch):
    """Out of budget, each part raises, integrated alone or with the
    other."""
    monkeypatch.setattr(greens, "QUAD_REL_TOL", 1e-16)
    monkeypatch.setattr(greens, "QUAD_LIMIT", 1)
    for part in (None, "real", "imag"):
        with pytest.raises(ps.QuadratureFailure):
            ps.green_full(material_broad, Z, 73.0 * 1.8836515673088536e11,
                          part=part)


def test_full_rejects_bad_arguments(material_toy):
    with pytest.raises(ValueError):
        ps.green_full(material_toy, -Z, 1e13)
    with pytest.raises(ValueError):
        ps.green_full(material_toy, Z, 0.0)
    with pytest.raises(ValueError, match="part"):
        ps.green_full(material_toy, Z, 1e13, part="Re")
    # one part per omega: as many parts as omegas, each a valid one, and
    # never for a single omega
    with pytest.raises(ValueError, match="one part per omega"):
        ps.green_full(material_toy, Z, [1e13, 2e13], part=["real"])
    with pytest.raises(ValueError, match="not 'Re'"):
        ps.green_full(material_toy, Z, [1e13, 2e13], part=("real", "Re"))
    with pytest.raises(ValueError, match="part"):
        ps.green_full(material_toy, Z, 1e13, part=["real"])


# ---------------------------------------------------------------------------
# Tr Im G and the Lorentzian LDOS model
# ---------------------------------------------------------------------------


def test_im_trace_closed_form(material_ldos):
    omega = 2.2e13
    rp = ps.reflection_nonretarded(material_ldos, omega)
    want = 4.0 * C**2 / (32.0 * math.pi * omega**2 * Z**3) * rp.imag
    got = ps.green_nonretarded(material_ldos, Z, omega).im_trace
    assert got == pytest.approx(want, rel=1e-14)


def test_im_trace_lossless_vanishes():
    m = ps.MaterialModel(
        "undamped", oscillators=(ps.Oscillator(omega_P=8e12, omega_T=1e13),))
    assert ps.green_nonretarded(m, Z, 5e12).im_trace == 0.0


def test_im_trace_resonance_dominance(material_ldos):
    mode, = ps.find_polariton_modes(material_ldos)
    on = ps.green_nonretarded(material_ldos, Z, mode.omega_center).im_trace
    off = ps.green_nonretarded(
        material_ldos, Z, mode.omega_center + 10.0 * mode.linewidth).im_trace
    assert on > 50.0 * off


def test_im_trace_full_mode_positive(material_ldos):
    mode, = ps.find_polariton_modes(material_ldos)
    val = ps.green_full(material_ldos, Z, mode.omega_center).im_trace
    nr = ps.green_nonretarded(material_ldos, Z, mode.omega_center).im_trace
    assert val > 0
    assert val == pytest.approx(nr, rel=0.05)


@pytest.mark.parametrize("omega", np.geomspace(1e12, 1e15, 10).tolist())
def test_im_trace_positive_on_absorber(material_broad, omega):
    assert ps.green_nonretarded(material_broad, Z, omega).im_trace >= 0.0


def test_lorentzian_model_matches_ldos(material_ldos):
    """omega^2 Im Tr G around a narrow resonance is Lorentzian within 5%."""
    mode, = ps.find_polariton_modes(material_ldos)
    center, gamma = mode.omega_center, mode.linewidth

    def im_trace(omega):
        return ps.green_nonretarded(material_ldos, Z, omega).im_trace

    peak = center**2 * im_trace(center)
    for omega in np.linspace(center - gamma, center + gamma, 9):
        scaled = omega**2 * im_trace(omega) / peak
        model = lorentzian_ldos_factor(mode, omega)
        assert abs(scaled - model) <= 0.05 * model


# ---------------------------------------------------------------------------
# green_full_imag_axis
# ---------------------------------------------------------------------------


def test_imag_axis_full_reduces_to_nonretarded(material_toy):
    """xi^2 Tr G(i xi) -> -(c^2/8 pi z^3) r_p(i xi) as xi z/c -> 0."""
    xi = 1e11  # 2 xi z / c ~ 6.7e-4
    g = ps.green_full_imag_axis(material_toy, Z, xi)
    eps = ps.permittivity_imag_axis(material_toy, xi)
    rp = (eps - 1.0) / (eps + 1.0)
    target = -(C**2 / (8.0 * math.pi * Z**3)) * rp
    assert xi**2 * g.trace.real == pytest.approx(target, rel=1e-3)
    assert abs(g.trace.imag) <= abs(g.trace.real) * 1e-12


def test_imag_axis_full_retardation_suppression(material_toy):
    """At finite xi z / c the magnitude falls below the nonretarded value."""
    xi = 2.5e14  # 2 xi z / c ~ 1.7
    g = ps.green_full_imag_axis(material_toy, Z, xi)
    eps = ps.permittivity_imag_axis(material_toy, xi)
    rp = (eps - 1.0) / (eps + 1.0)
    target = -(C**2 / (8.0 * math.pi * Z**3)) * rp
    ratio = xi**2 * g.trace.real / target
    assert 0.0 < ratio < 0.9


def _imag_axis_rows(m, z, xis):
    """The arguments (a, s0, e1) that green_full_imag_axis hands
    _imag_axis_sums for the xi of xis at z, recorded from one call."""
    got = []

    def recording(a, s0, e1, sizes):
        got.append((a, s0, e1))
        return sums(a, s0, e1, sizes)

    sums = greens._imag_axis_sums
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(greens, "_imag_axis_sums", recording)
        ps.green_full_imag_axis(m, z, xis)
    return got[0]


#: a = 2 xi z/c of the oracle check: deep in the nonretarded regime, across
#: the Fresnel transition that the Legendre panel holds (small a), the
#: panel's end at a = 1, and e^-a-damped terms
_ORACLE_A = (1e-4, 1e-3, 0.01, 0.033, 0.1, 1.0, 3.82, 20.0, 60.0)


@pytest.mark.parametrize("material", ["material_broad", "material_narrow",
                                      "material_toy", "material_ldos"])
def test_imag_axis_matches_the_mp_oracle(request, material):
    """Both components of green_full_imag_axis lie within 10 QUAD_REL_TOL
    |G| of the 30-digit oracle, at z = 1 um and each a of _ORACLE_A, and on
    material_broad at two points: z = 0.1 um, xi = 4.94e13 rad/s (a =
    0.033, the 3 K line's regime, where Gauss-Laguerre alone was 4.2e-7
    off) and z = 0.606 um, xi = 9.47e14 rad/s (a = 3.82, a retarded_points
    head term, where QUADPACK stopped at its epsabs, 6.8e-7 off in G_zz).

    The bound: the rule takes the 64-node value where it differs from the
    32-node one by at most 10 max(epsabs, QUAD_REL_TOL |G|), epsabs =
    QUAD_REL_TOL c^2/(32 pi xi^2 z^3), or, after one more try, the 128-node
    value where it differs from the 64-node one by at most that much.  The
    n-vs-2n difference bounds the error of the n-node value, and the
    2n-node value is nearer the integral wherever the rule converges, so
    the value taken is within that bound.  On every case here the 32-node
    and 64-node sums agree to QUAD_REL_TOL relative (asserted), so epsabs
    decides nothing and the bound is 10 QUAD_REL_TOL |G|.  On
    material_toy two more points, z = 0.1 nm at xi = 1.7e19 rad/s and
    z = 1 nm at 1e18 rad/s, have eps(i xi) - 1 of 2.2e-13 and 6.4e-11:
    eps - 1 taken from float64 eps was 3.4e-4 and 1.1e-6 off there, and the
    rule now forms it as the oscillator sum.  The oracle's 30 digits are
    exact at float64."""
    m = request.getfixturevalue(material)
    cases = [(Z, a * C / (2.0 * Z)) for a in _ORACLE_A]
    if material == "material_broad":
        cases += [(1e-7, 4.94e13), (0.606e-6, 9.47e14)]
    if material == "material_toy":
        cases += [(1e-10, 1.7e19), (1e-9, 1e18)]
    tol = greens.QUAD_REL_TOL
    for z, xi in cases:
        rough, fine = greens._imag_axis_sums(*_imag_axis_rows(m, z, [xi]),
                                             (greens._NODES,
                                              2 * greens._NODES))
        assert (abs(rough - fine) <= tol * abs(fine)).all(), (z, xi)
        g = ps.green_full_imag_axis(m, z, xi)
        for got, want in zip((g.xx.real, g.zz.real),
                             green_full_imag_axis_mp(m, z, xi)):
            assert abs(got - want) <= 10.0 * tol * abs(got), (z, xi)


def _matsubara_like_xis(T, count):
    """count Matsubara frequencies j xi_1 at T, j = 1..count, as floats."""
    xi1 = ps.matsubara_xi(T, 1)
    return [j * xi1 for j in range(1, count + 1)]


@pytest.mark.parametrize("material", ["material_broad", "material_narrow",
                                      "material_toy", "material_ldos"])
def test_imag_axis_over_a_sequence_is_each_xi_alone(request, material):
    """green_full_imag_axis over a sequence of xi (a list, a tuple or an
    array) returns the list of the tensors of one call per xi, bit for bit,
    though all of their quadratures run in one lockstep; an empty sequence
    gives an empty list."""
    m = request.getfixturevalue(material)
    xis = _matsubara_like_xis(300.0, 4) + _matsubara_like_xis(30.0, 3) \
        + [3e15]
    for z in (1e-8, 1e-6, 20e-6):
        alone = [ps.green_full_imag_axis(m, z, x) for x in xis]
        assert all(isinstance(g, ps.GreenTensor3) for g in alone)
        for seq, want in ((xis, alone), (tuple(xis[::-1]), alone[::-1]),
                          (np.array(xis), alone)):
            got = ps.green_full_imag_axis(m, z, seq)
            assert isinstance(got, list)
            assert _bits(got) == _bits(want)
    for empty in ([], (), np.array([])):
        assert ps.green_full_imag_axis(m, 2e-6, empty) == []


def _largest_integrand_calls(monkeypatch, run):
    """{f: (x, keys)} of the largest call that each integrand family f of
    the quadpack.lockstep runs of run() made, each a family of integrals
    on [0, inf)."""
    from polshift import quadpack
    lockstep, calls = quadpack.lockstep, {}

    def recording(batch):
        def wrap(f):
            def recorded(x, keys):
                calls.setdefault(f, []).append((x.copy(), keys.copy()))
                return f(x, keys)
            return recorded
        assert {i.bound for i in batch} == {0.0}
        wrapped = {i.f: wrap(i.f) for i in batch}
        return lockstep([i._replace(f=wrapped[i.f]) for i in batch])

    monkeypatch.setattr(quadpack, "lockstep", recording)
    run()
    return {family: max(made, key=lambda call: len(call[0]))
            for family, made in calls.items()}


@pytest.mark.parametrize("material", ["material_broad", "material_narrow",
                                      "material_toy", "material_ldos"])
def test_integrand_nodes_do_not_depend_on_their_position(request, material,
                                                         monkeypatch):
    """Each integrand family of the lockstep (green_full's propagating and
    evanescent sides, both on [0, inf)) gives every node the bits of its
    one-node call, whatever array it is evaluated in: the nodes of the
    largest call the family makes, of several keys, with x = 0 and x =
    1e300 (theta = pi/2, where the Jacobian underflows) or u = 0 and u = 800
    (exp(-u) underflows) added at every key, in shuffled arrays of
    1, 7, 8, 9, 17, 64 nodes and all of them.  So an integral keeps the
    bits of its own pass in any lockstep.  The imaginary axis's rule gives
    each xi's row of sums the bits of its one-row call, in shuffled arrays
    of 1, 7, 8, 9 and all of the rows, at every rule size, for xi from
    a = 2 xi z/c = 1e-6, through the Legendre panel's end at a = 1, to
    e^-a underflowing at a = 800."""
    m = request.getfixturevalue(material)
    omegas = _sequence_omegas(m)
    largest = _largest_integrand_calls(monkeypatch, lambda: (
        ps.green_full(m, 2e-6, omegas)))
    assert sorted(f.__name__ for f in largest) == ["evan", "prop"]
    rng = np.random.default_rng(20261020)
    for f, (x, keys) in largest.items():
        assert set(keys.tolist()) == set(range(len(omegas)))
        ends = (0.0, 1e300) if f.__name__ == "prop" else (0.0, 800.0)
        edge_keys = np.arange(len(omegas)).repeat(2)
        x = np.concatenate([x, np.tile(ends, len(omegas))])
        keys = np.concatenate([keys, edge_keys])
        alone = np.array([[c[0] for c in f(x[i:i + 1], keys[i:i + 1])]
                          for i in range(len(x))])
        assert np.isfinite(alone).all()
        for size in (1, 7, 8, 9, 17, 64, len(x)):
            at = rng.permutation(len(x))[:size]
            got = np.array(f(x[at], keys[at])).T
            assert got.tobytes() == alone[at].tobytes(), (f.__name__, size)
    z = 2e-6
    xis = [*omegas, *(a * C / (2.0 * z)
                      for a in (1e-6, 0.03, 1.0, 1.5, 800.0))]
    rows = _imag_axis_rows(m, z, xis)
    for sizes in ((greens._NODES, 2 * greens._NODES), (4 * greens._NODES,)):
        alone = [np.stack([s[0] for s in greens._imag_axis_sums(
            *(r[i:i + 1] for r in rows), sizes)]) for i in range(len(xis))]
        assert np.isfinite(alone).all()
        for size in (1, 7, 8, 9, len(xis)):
            at = rng.permutation(len(xis))[:size]
            got = np.stack(greens._imag_axis_sums(
                *(r[at] for r in rows), sizes), axis=1)
            assert got.tobytes() == np.stack([alone[i] for i in at]) \
                .tobytes(), (sizes, size)


@pytest.mark.parametrize("bad", [0.0, -1e13, math.nan])
@pytest.mark.parametrize("at", [0, 2])
def test_imag_axis_rejects_a_bad_xi_before_any_quadrature(
        material_broad, monkeypatch, bad, at):
    """A xi <= 0 (or NaN) anywhere in the sequence raises ValueError before
    any node of the rule is evaluated."""
    def unreachable(*args):
        raise AssertionError("the rule ran")

    monkeypatch.setattr(greens, "_imag_axis_sums", unreachable)
    xis = _matsubara_like_xis(300.0, 3)
    xis[at] = bad
    with pytest.raises(ValueError, match="xi must be > 0"):
        ps.green_full_imag_axis(material_broad, Z, xis)
    with pytest.raises(ValueError, match="z must be > 0"):
        ps.green_full_imag_axis(material_broad, -Z, xis)


@pytest.mark.parametrize("failing, want", [
    # the first xi's failure, though the later one fails earlier in xx, zz
    ({(1, "zz"), (2, "xx")}, "zz imag-axis"),
    ({(0, "xx"), (0, "zz")}, "xx imag-axis"),
    ({(2, "zz"), (3, "xx")}, "zz imag-axis"),
    ({(3, "xx")}, "xx imag-axis"),
])
def test_imag_axis_failure_is_the_first_in_call_order(material_broad,
                                                      monkeypatch, failing,
                                                      want):
    """Of the xx and zz values whose rule misses the tolerance at both sizes,
    the one named is the first that one call per xi would evaluate: xi in
    order, then xx before zz.  The rule is made to miss by doubling the
    coarser sum of the chosen (xi, component) pairs, at both tries; the
    first try holds every xi of the call, and the second only those with a
    miss."""
    xis = _matsubara_like_xis(300.0, 4)
    # eps(i xi) - 1 as green_full_imag_axis forms it, the oscillator sum
    e1 = [sum(o.omega_P * o.omega_P
              / (o.omega_T * o.omega_T + x * x + x * o.gamma_damp)
              for o in material_broad.oscillators) for x in xis]
    sums, runs = greens._imag_axis_sums, []

    def failing_some(a, s0, e1_at, sizes):
        got = sums(a, s0, e1_at, sizes)
        runs.append((len(a), sizes))
        for row, e in enumerate(e1_at.tolist()):
            for comp, name in enumerate(("xx", "zz")):
                if (e1.index(e), name) in failing:
                    got[0][row, comp] *= 2.0
        return got

    monkeypatch.setattr(greens, "_imag_axis_sums", failing_some)
    with pytest.raises(ps.QuadratureFailure, match=f"[(]{want}[)]"):
        ps.green_full_imag_axis(material_broad, Z, xis)
    n = greens._NODES
    assert runs == [(len(xis), (n, 2 * n)),
                    (len({k for k, _ in failing}), (4 * n,))]
