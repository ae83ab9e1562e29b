"""Finite-temperature atom-surface dispersion shifts near a planar dielectric.

The package splits into five layers:

``material``
    Drude-Lorentz permittivity models, nonretarded reflection, and
    surface-polariton mode extraction.
``greens``
    Coincident-point scattering Green tensors above a half space, both as
    full wavevector quadratures and in the nonretarded closed form.
``atoms``
    Level/dipole bookkeeping, transition channels, and the isotropic
    imaginary-frequency polarizability.
``potentials``
    Nonresonant (Matsubara) and resonant (atom-polariton) level shifts and
    their combination into a total.
``cli``
    The ``shift`` command-line tool (point evaluations, (z, T) scans, and
    mode tables).
"""

from .atoms import (
    AtomSpec,
    AtomicState,
    DipoleElement,
    TransitionChannel,
    atom_from_dict,
    channels,
    load_atom,
    polarizability_iso,
    transitions_from,
)
from .errors import (
    ConvergenceFailure,
    DanglingReference,
    ModeAttributionError,
    NoChannels,
    NoModeFound,
    OffResonance,
    ParseError,
    PhysicsError,
    PoleHit,
    PolshiftError,
    QuadratureFailure,
    SurfaceModePole,
    ZeroTemperature,
)
from .greens import (
    GreenTensor3,
    green_full,
    green_full_imag_axis,
    green_nonretarded,
)
from .material import (
    MaterialModel,
    Oscillator,
    PolaritonMode,
    find_polariton_modes,
    fresnel,
    load_material,
    material_from_dict,
    permittivity,
    permittivity_imag_axis,
    reflection_imag_axis,
    reflection_nonretarded,
)
from .potentials import (
    Environment,
    ShiftReport,
    attribute_modes,
    find_resonant_pair,
    matsubara_xi,
    nonresonant_shift_parts,
    resonant_shift,
    resonant_shift_closed_form,
    thermal_factor,
    thermal_occupation,
    total_shift,
    u_eff,
)

__all__ = [
    "AtomSpec",
    "AtomicState",
    "ConvergenceFailure",
    "DanglingReference",
    "DipoleElement",
    "Environment",
    "GreenTensor3",
    "MaterialModel",
    "ModeAttributionError",
    "NoChannels",
    "NoModeFound",
    "OffResonance",
    "Oscillator",
    "ParseError",
    "PhysicsError",
    "PolaritonMode",
    "PoleHit",
    "PolshiftError",
    "QuadratureFailure",
    "ShiftReport",
    "SurfaceModePole",
    "TransitionChannel",
    "ZeroTemperature",
    "atom_from_dict",
    "attribute_modes",
    "channels",
    "find_polariton_modes",
    "find_resonant_pair",
    "fresnel",
    "green_full",
    "green_full_imag_axis",
    "green_nonretarded",
    "load_atom",
    "load_material",
    "material_from_dict",
    "matsubara_xi",
    "nonresonant_shift_parts",
    "permittivity",
    "permittivity_imag_axis",
    "polarizability_iso",
    "reflection_imag_axis",
    "reflection_nonretarded",
    "resonant_shift",
    "resonant_shift_closed_form",
    "thermal_factor",
    "thermal_occupation",
    "total_shift",
    "transitions_from",
    "u_eff",
]

__version__ = "0.1.0"
