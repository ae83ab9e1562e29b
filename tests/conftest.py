"""Shared fixtures: canned materials, atoms, and golden numbers."""

import json
import pathlib
import re

import pytest

import polshift as ps

FIXTURES = pathlib.Path(__file__).parent / "fixtures"


@pytest.fixture(scope="session")
def fixtures_dir():
    return FIXTURES


@pytest.fixture(scope="session")
def readme_inputs():
    """The material and atom input examples of README.md, parsed."""
    text = (FIXTURES.parents[1] / "README.md").read_text(encoding="utf-8")
    blocks = [json.loads(b)
              for b in re.findall(r"```json\n(.*?)```", text, re.S)]
    return {("atom" if "states" in b else "material"): b for b in blocks}


@pytest.fixture(scope="session")
def golden():
    with open(FIXTURES / "golden.json") as fh:
        return json.load(fh)


@pytest.fixture(scope="session")
def material_toy():
    """Lossy single oscillator used by the two-level shift checks."""
    return ps.load_material(FIXTURES / "material_toy.json")


@pytest.fixture(scope="session")
def material_ldos():
    """Single oscillator with Gamma = 0.02 omega_T for LDOS line-shape checks."""
    return ps.load_material(FIXTURES / "material_ldos.json")


@pytest.fixture(scope="session")
def material_narrow():
    """Two oscillators, modes at 73 and 90 cm^-1 with gamma = 0.01 Omega."""
    return ps.load_material(FIXTURES / "material_narrow.json")


@pytest.fixture(scope="session")
def material_broad():
    """Two oscillators, modes at 73 and 90 cm^-1 with gamma = 0.03 Omega."""
    return ps.load_material(FIXTURES / "material_broad.json")


@pytest.fixture(scope="session")
def rb_atom():
    """Rb Rydberg block around the 27S -> 26S transition."""
    return ps.load_atom(FIXTURES / "rb_rydberg.json")


@pytest.fixture(scope="session")
def toy_atom():
    """Two-level atom: omega_10 = 2.4e14 rad/s, |d| = 1e-29 C.m."""
    return ps.AtomSpec(
        name="two-level toy",
        states=(ps.AtomicState("g", 0.0), ps.AtomicState("e", 2.4e14)),
        dipoles=(ps.DipoleElement("g", "e", 1.0e-29),),
    )


@pytest.fixture(scope="session")
def flipping_atom():
    """Three levels whose middle one has alpha(i xi) < 0 at xi = 0 (its
    downward transition at 1e12 rad/s dominates) and > 0 for large xi
    (its upward one at 1e14 rad/s carries five times the oscillator
    strength): alpha(i xi) changes sign once, near 5e13 rad/s."""
    d = 1e-29
    return ps.AtomSpec(
        name="sign-changing alpha",
        states=(ps.AtomicState("l", 0.0), ps.AtomicState("m", 1e12),
                ps.AtomicState("h", 1.01e14)),
        dipoles=(ps.DipoleElement("l", "m", d),
                 ps.DipoleElement("m", "h", 0.2236 * d)))
