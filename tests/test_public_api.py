"""The public names of the package, pinned so that additions are deliberate."""

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
