"""Physical constants and unit conversion helpers.

Internal conventions: angular frequencies in rad/s, dipole moments in C·m,
energies in J, lengths in m, temperature in K.
"""

import math

# c, h, k_B and e are exact in the SI; mu_0 and a_0 are CODATA 2022 values.
# Written out rather than read from scipy.constants, whose import would
# cost a CLI call more than its physics, and which may move to another
# CODATA edition under polshift's output.
C = 299792458.0                   # speed of light, m/s
HBAR = 6.62607015e-34 / (2.0 * math.pi)   # h / 2 pi, J s
KB = 1.380649e-23                 # J/K
MU0 = 1.25663706127e-06           # N/A^2
E_CHARGE = 1.602176634e-19        # C
A0 = 5.29177210544e-11            # Bohr radius, m

#: 1 cm^-1 expressed as an angular frequency (rad/s): 2*pi*c*100
CM1 = 2.0 * math.pi * C * 100.0

#: 1 Debye in C·m
DEBYE = 1.0e-21 / C

_FREQ_FACTORS = {
    "rad/s": 1.0,
    "Hz": 2.0 * math.pi,
    "cm^-1": CM1,
}

_ENERGY_FACTORS = dict(_FREQ_FACTORS, eV=E_CHARGE / HBAR)

_DIPOLE_FACTORS = {
    "C·m": 1.0,
    "C*m": 1.0,
    "Cm": 1.0,
    "e·a0": E_CHARGE * A0,
    "e*a0": E_CHARGE * A0,
    "ea0": E_CHARGE * A0,
    "Debye": DEBYE,
    "debye": DEBYE,
    "D": DEBYE,
}


def cube(x):
    """x^3 that scales exactly: cube(2^k x) == 8^k cube(x) bit for bit
    while neither overflows nor underflows.  x**3 goes through libm pow,
    which can misround x**3 and not (2^k x)**3; here pow sees only the
    mantissa of x, which 2^k leaves as it is."""
    mant, exp = math.frexp(x)
    return math.ldexp(mant**3, 3 * exp)


def angular_frequency(value, unit):
    """Convert ``value`` in ``unit`` ('rad/s', 'Hz', 'cm^-1') to rad/s."""
    try:
        return float(value) * _FREQ_FACTORS[unit]
    except KeyError:
        raise ValueError(f"unknown frequency unit {unit!r}; expected one of "
                         f"{sorted(_FREQ_FACTORS)}") from None


def level_energy(value, unit):
    """Convert a level energy to its angular-frequency equivalent E/hbar (rad/s).

    Accepted units: 'rad/s', 'Hz', 'cm^-1', 'eV'.
    """
    try:
        return float(value) * _ENERGY_FACTORS[unit]
    except KeyError:
        raise ValueError(f"unknown energy unit {unit!r}; expected one of "
                         f"{sorted(_ENERGY_FACTORS)}") from None


def dipole_moment(value, unit):
    """Convert a dipole magnitude to C·m.  Accepted: 'C·m', 'e·a0', 'Debye'."""
    try:
        return float(value) * _DIPOLE_FACTORS[unit]
    except KeyError:
        raise ValueError(f"unknown dipole unit {unit!r}; expected one of "
                         f"{sorted(set(_DIPOLE_FACTORS))}") from None


def energy_report(value_joule):
    """Express an energy in the unit systems used throughout the package.

    Returns a dict with J, the angular-frequency equivalent s^-1 (E/hbar),
    Hz (E/h) and cm^-1.
    """
    w = value_joule / HBAR
    return {
        "J": value_joule,
        "s^-1": w,
        "Hz": w / (2.0 * math.pi),
        "cm^-1": w / CM1,
    }
