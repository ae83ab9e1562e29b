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


#: the public scalar entry points, each handed one NaN argument
NAN_CALLS = {
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
    "matsubara_xi(nan, 1)": lambda m, atom, mode: ps.matsubara_xi(math.nan, 1),
    "matsubara_xi(T, nan)":
        lambda m, atom, mode: ps.matsubara_xi(300.0, math.nan),
    "thermal_factor(m1, m2, nan)":
        lambda m, atom, mode: ps.thermal_factor(mode, mode, math.nan),
}


@pytest.mark.parametrize("call", NAN_CALLS.values(), ids=NAN_CALLS)
def test_scalar_entry_points_reject_nan(call, material_toy, rb_atom):
    mode = ps.PolaritonMode(omega_center=1e13, linewidth=1e11, band_lo=9e12,
                            band_hi=1.1e13)
    with pytest.raises(ValueError, match="must be"):
        call(material_toy, rb_atom, mode)
