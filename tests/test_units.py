"""The literal physical constants of polshift.units."""

import pytest
import scipy.constants as sc

from polshift import units

SCIPY = {
    "C": sc.c,
    "HBAR": sc.hbar,
    "KB": sc.k,
    "MU0": sc.mu_0,
    "E_CHARGE": sc.e,
    "A0": sc.physical_constants["Bohr radius"][0],
    "CM1": 2.0 * sc.pi * sc.c * 100.0,
    "DEBYE": 1.0e-21 / sc.c,
}


@pytest.mark.parametrize("name", sorted(SCIPY))
def test_constant_equals_scipy(name):
    assert getattr(units, name) == SCIPY[name], (
        f"units.{name} differs from scipy.constants: scipy now carries "
        f"another CODATA edition; polshift's constants and output did not "
        f"move")


def test_unit_factors_equal_scipy():
    """The Hz and eV factors, the e*a0 dipole unit and the Hz column of an
    energy report, against the same products of scipy's constants."""
    msg = ("scipy.constants now carries another CODATA edition; polshift's "
           "constants and output did not move")
    assert units.angular_frequency(1.0, "Hz") == 2.0 * sc.pi, msg
    assert units.level_energy(1.0, "eV") == sc.e / sc.hbar, msg
    assert units.dipole_moment(1.0, "e·a0") == (
        sc.e * sc.physical_constants["Bohr radius"][0]), msg
    assert units.energy_report(1e-22)["Hz"] == (
        1e-22 / sc.hbar / (2.0 * sc.pi)), msg

