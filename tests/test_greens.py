"""Coincident-point scattering Green tensor above the half-space."""

import json
import math

import numpy as np
import pytest

import polshift as ps
from polshift import greens
from oracles import lorentzian_ldos_factor, tensor_to_jsonable
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
    each part is its own QUADPACK passes, untouched by the other, so the
    k_rho nodes of the two parts add up to those of part=None."""
    m = request.getfixturevalue(material)
    nodes = []

    def counted(eps, omega, k_rho):
        nodes.append(np.size(k_rho))
        return ps.fresnel(eps, omega, k_rho)

    monkeypatch.setattr(greens, "fresnel", counted)
    for z, omega in _part_cases(m, rb_atom):
        g, count = {}, {}
        for part in (None, "real", "imag"):
            nodes.clear()
            g[part] = ps.green_full(m, z, omega, part=part)
            count[part] = sum(nodes)
        both, re, im = g[None], g["real"], g["imag"]
        assert (re.xx.real, re.zz.real) == (both.xx.real, both.zz.real)
        assert (im.xx.imag, im.zz.imag) == (both.xx.imag, both.zz.imag)
        assert all(map(math.isnan, (re.xx.imag, re.zz.imag, im.xx.real,
                                    im.zz.real, re.im_trace,
                                    im.trace.real)))
        assert im.im_trace == both.im_trace
        assert count["real"] + count["imag"] == count[None]
        assert count["real"] > 0 and count["imag"] > 0


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
