"""The public names of the package, pinned so that additions are deliberate."""

import math

import pytest

import polshift as ps

PUBLIC = [
    "AtomSpec", "AtomicState", "ConvergenceFailure", "DanglingReference",
    "DipoleElement", "Environment", "GreenTensor3", "MaterialModel",
    "ModeAttributionError", "NoChannels", "NoModeFound", "OffResonance",
    "Oscillator", "ParseError", "PhysicsError", "PolaritonMode", "PoleHit",
    "PolshiftError", "QuadratureFailure", "ShiftReport", "SurfaceModePole",
    "TransitionChannel", "ZeroTemperature",
    "atom_from_dict", "attribute_modes", "channels", "find_polariton_modes",
    "find_resonant_pair", "fresnel", "green_full", "green_full_imag_axis",
    "green_nonretarded", "load_atom", "load_material", "material_from_dict",
    "matsubara_xi", "nonresonant_shift_parts", "permittivity",
    "permittivity_imag_axis", "polarizability_iso", "reflection_imag_axis",
    "reflection_nonretarded", "resonant_shift", "resonant_shift_closed_form",
    "thermal_factor", "thermal_occupation", "total_shift", "transitions_from",
    "u_eff",
]


def test_public_names_are_pinned_and_resolve():
    assert sorted(ps.__all__) == PUBLIC
    assert [name for name in PUBLIC if not hasattr(ps, name)] == []


#: the public scalar entry points, each handed one argument it rejects: a
#: NaN, a temperature above T_MAX or a non-integral Matsubara index
REJECTED_CALLS = {
    "permittivity_imag_axis(m, nan)":
        lambda m, atom, mode: ps.permittivity_imag_axis(m, math.nan),
    "reflection_imag_axis(m, nan)":
        lambda m, atom, mode: ps.reflection_imag_axis(m, math.nan),
    "polarizability_iso(atom, n, nan)":
        lambda m, atom, mode: ps.polarizability_iso(atom, "27S1/2", math.nan),
    "polarizability_iso(atom, n, [1, nan])":
        lambda m, atom, mode: ps.polarizability_iso(atom, "27S1/2",
                                                    [1.0, math.nan]),
    "thermal_occupation(nan, T)":
        lambda m, atom, mode: ps.thermal_occupation(math.nan, 300.0),
    "thermal_occupation(w, nan)":
        lambda m, atom, mode: ps.thermal_occupation(1e13, math.nan),
    "thermal_occupation(w, inf)":
        lambda m, atom, mode: ps.thermal_occupation(1e13, math.inf),
    "matsubara_xi(nan, 1)": lambda m, atom, mode: ps.matsubara_xi(math.nan, 1),
    "matsubara_xi(inf, 1)": lambda m, atom, mode: ps.matsubara_xi(math.inf, 1),
    "matsubara_xi(1e300, 1)":
        lambda m, atom, mode: ps.matsubara_xi(1e300, 1),
    "matsubara_xi(T, nan)":
        lambda m, atom, mode: ps.matsubara_xi(300.0, math.nan),
    "matsubara_xi(T, 1.5)": lambda m, atom, mode: ps.matsubara_xi(300.0, 1.5),
    "thermal_factor(m1, m2, nan)":
        lambda m, atom, mode: ps.thermal_factor(mode, mode, math.nan),
    "thermal_factor(m1, m2, inf)":
        lambda m, atom, mode: ps.thermal_factor(mode, mode, math.inf),
}


@pytest.mark.parametrize("call", REJECTED_CALLS.values(), ids=REJECTED_CALLS)
def test_scalar_entry_points_reject_nan(call, material_toy, rb_atom):
    """Each entry of REJECTED_CALLS, NaN or not, raises a ValueError that
    names the accepted range."""
    mode = ps.PolaritonMode(omega_center=1e13, linewidth=1e11, band_lo=9e12,
                            band_hi=1.1e13)
    with pytest.raises(ValueError, match="must (be|lie)"):
        call(material_toy, rb_atom, mode)
