"""Coincident-point scattering Green tensor above the half-space."""

import json
import math

import numpy as np
import pytest

import polshift as ps
from oracles import tensor_to_jsonable
from polshift.greens import nonretarded_diag
from polshift.units import C

Z = 1e-6


# ---------------------------------------------------------------------------
# GreenTensor3 structure and the bare closed-form diagonal
# ---------------------------------------------------------------------------


def test_tensor_rejects_off_diagonal_entries():
    comp = np.zeros((3, 3), dtype=complex)
    comp[0, 1] = 1.0
    with pytest.raises(ValueError):
        ps.GreenTensor3(components=comp, omega=1e13, z=Z)


def test_tensor_rejects_xx_neq_yy():
    comp = np.diag([1.0 + 0j, 2.0, 3.0])
    with pytest.raises(ValueError):
        ps.GreenTensor3(components=comp, omega=1e13, z=Z)


def test_tensor_rejects_wrong_shape():
    with pytest.raises(ValueError):
        ps.GreenTensor3(components=np.zeros((2, 2), dtype=complex),
                        omega=1e13, z=Z)


def test_tensor_trace_and_serialization(material_toy):
    g = ps.green_nonretarded(material_toy, Z, 1.1e13)
    diag = g.diagonal
    assert g.trace == pytest.approx(complex(diag.sum()), rel=1e-15)
    assert g.im_trace == pytest.approx(g.trace.imag, rel=1e-15)
    payload = json.loads(json.dumps(tensor_to_jsonable(g)))
    assert len(payload) == 3 and all(len(row) == 3 for row in payload)
    for i in range(3):
        for j in range(3):
            re, im = payload[i][j]
            assert re == g.components[i, j].real
            assert im == g.components[i, j].imag


def test_gprime_reconstructs_reflection(material_toy):
    """z^3 G is the z-free G' = (c^2/(32 pi w^2)) r_p diag(1,1,2)."""
    omega = 1.3e13
    gp = Z**3 * ps.green_nonretarded(material_toy, Z, omega).diagonal
    rp = ps.reflection_nonretarded(material_toy, omega)
    want = C**2 / (32.0 * math.pi * omega**2) * rp
    assert gp[0] == pytest.approx(want, rel=1e-15)
    assert gp[1] == gp[0]
    assert gp[2] == pytest.approx(2.0 * gp[0], rel=1e-15)
    assert gp.sum() == pytest.approx(4.0 * want, rel=1e-15)


def test_nonretarded_diag_is_the_tensor_diagonal(material_toy):
    omega = 1.1e13
    g = ps.green_nonretarded(material_toy, Z, omega).components
    assert nonretarded_diag(material_toy, Z, omega) == (g[0, 0], g[2, 2])


# ---------------------------------------------------------------------------
# green_nonretarded
# ---------------------------------------------------------------------------


def test_nonretarded_distance_scaling(material_toy):
    omega = 1.1e13
    near = ps.green_nonretarded(material_toy, Z, omega)
    far = ps.green_nonretarded(material_toy, 2.0 * Z, omega)
    ratio = near.components.diagonal() / far.components.diagonal()
    assert np.allclose(ratio, 8.0, rtol=1e-12, atol=0)


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
    assert abs(g.components[0, 0].imag) < abs(g.components[0, 0].real) * 1e-12
    assert g.components[0, 0] == pytest.approx(want, rel=1e-12)


def test_nonretarded_rejects_nonpositive_z(material_toy):
    with pytest.raises(ValueError):
        ps.green_nonretarded(material_toy, 0.0, 1e13)


# ---------------------------------------------------------------------------
# green_full
# ---------------------------------------------------------------------------


def test_full_vacuum_zero():
    m = ps.MaterialModel("vacuum", oscillators=())
    g = ps.green_full(m, Z, 1e13)
    assert np.all(g.components == 0)


def test_full_matches_nonretarded_deep(material_toy):
    """omega z / c = 1e-3: full quadrature vs closed form < 0.5% per entry."""
    omega = 1e-3 * C / Z
    full = ps.green_full(material_toy, Z, omega)
    closed = ps.green_nonretarded(material_toy, Z, omega)
    for i in range(3):
        num = full.components[i, i]
        ref = closed.components[i, i]
        assert abs(num - ref) / abs(ref) < 5e-3
    # diag(1,1,2) pattern of the nonretarded regime.
    assert abs(full.components[2, 2] / full.components[0, 0] - 2.0) < 1e-2
    assert full.components[0, 0] == full.components[1, 1]


def test_full_quadrature_budget_error(material_broad):
    with pytest.raises(ps.QuadratureFailure):
        ps.green_full(material_broad, Z, 73.0 * 1.8836515673088536e11,
                      rel_tol=1e-16, limit=1)


def test_full_rejects_bad_arguments(material_toy):
    with pytest.raises(ValueError):
        ps.green_full(material_toy, -Z, 1e13)
    with pytest.raises(ValueError):
        ps.green_full(material_toy, Z, 0.0)


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
        model = ps.lorentzian_ldos_factor(mode, omega)
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
