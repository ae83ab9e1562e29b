"""Atomic level structure, dipoles, channels, and polarizability."""

import json
import math
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.constants import c as C_LIGHT
from scipy.constants import e as E_CHARGE
from scipy.constants import hbar as HBAR
from scipy.constants import physical_constants

import polshift as ps
from oracles import (atom_to_dict, level_tables_by_scan,
                     polarizability_by_scan)
from polshift.atoms import OMEGA_KN_MIN
from polshift.potentials import UNIT_Z, Z_RANGE
from polshift.units import CM1

A0 = physical_constants["Bohr radius"][0]
DEBYE = 1e-21 / C_LIGHT


def _write(tmp_path, doc, name="atom.json"):
    f = tmp_path / name
    f.write_text(json.dumps(doc))
    return f


def _three_level(omega_k, omega_10, d_0k=2e-29, d_k1=3e-29):
    """lower at 0, intermediate at omega_k, upper at omega_10."""
    return ps.AtomSpec(
        name="ladder",
        states=(ps.AtomicState("lo", 0.0),
                ps.AtomicState("k", omega_k),
                ps.AtomicState("up", omega_10)),
        dipoles=(ps.DipoleElement("lo", "k", d_0k),
                 ps.DipoleElement("k", "up", d_k1)),
    )


# ---------------------------------------------------------------------------
# parsing and validation
# ---------------------------------------------------------------------------


def test_load_minimal_two_state(tmp_path, readme_inputs):
    f = _write(tmp_path, {
        "name": "minimal",
        "states": [
            {"label": "g", "energy": 0.0, "unit": "rad/s"},
            {"label": "e", "energy": 1e15, "unit": "rad/s"},
        ],
        "dipoles": [
            {"from": "g", "to": "e", "magnitude": 1e-29, "unit": "C·m"},
        ],
    })
    atom = ps.load_atom(f)
    assert len(atom.states) == 2
    assert len(atom.dipoles) == 1
    assert atom.dipoles[0].magnitude == 1e-29
    # The README's atom example is the same minimal shape.
    readme = ps.load_atom(
        _write(tmp_path, readme_inputs["atom"], "readme.json"))
    assert readme.labels() == ["g", "e"]
    assert readme.dipole("e", "g").magnitude == 1e-29


@pytest.mark.parametrize("key", ["magnitude", "components"])
@pytest.mark.parametrize("token", ["NaN", "Infinity"])
def test_load_atom_rejects_non_finite_tokens(tmp_path, key, token):
    dipole = {"from": "g", "to": "e", "magnitude": 1e-29, "unit": "C·m",
              "components": [0.0, 0.0, 1e-29]}
    dipole[key] = "TOKEN" if key == "magnitude" else [0.0, "TOKEN", 1e-29]
    f = tmp_path / "nonfinite.json"
    f.write_text(json.dumps({
        "name": "nonfinite",
        "states": [{"label": "g", "energy": 0.0, "unit": "rad/s"},
                   {"label": "e", "energy": 1e15, "unit": "rad/s"}],
        "dipoles": [dipole],
    }).replace('"TOKEN"', token))
    with pytest.raises(ps.ParseError) as err:
        ps.load_atom(f)
    assert "dipoles[0]" in str(err.value)


def test_load_dangling_reference(tmp_path):
    f = _write(tmp_path, {
        "name": "dangling",
        "states": [{"label": "g", "energy": 0.0, "unit": "rad/s"}],
        "dipoles": [
            {"from": "g", "to": "missing", "magnitude": 1e-29, "unit": "C·m"},
        ],
    })
    with pytest.raises(ps.DanglingReference) as err:
        ps.load_atom(f)
    assert "missing" in str(err.value)


def test_load_missing_field_path(tmp_path):
    f = _write(tmp_path, {
        "name": "broken",
        "states": [{"label": "g", "unit": "rad/s"}],
        "dipoles": [],
    })
    with pytest.raises(ps.ParseError) as err:
        ps.load_atom(f)
    assert "states[0].energy" in str(err.value)


#: a ground state g with a degenerate partner g2 and an upper state e
_DEGENERATE = {
    "name": "degenerate pair",
    "states": [{"label": "g", "energy": 0.0, "unit": "rad/s"},
               {"label": "g2", "energy": 0.0, "unit": "rad/s"},
               {"label": "e", "energy": 2.4e14, "unit": "rad/s"}],
    "dipoles": [{"from": "g", "to": "e", "magnitude": 1e-29, "unit": "C*m"},
                {"from": "g", "to": "g2", "magnitude": 1e-29,
                 "unit": "C*m"}],
}


def test_dipole_between_equal_energies_rejected(tmp_path):
    """A dipole of |d| > 0 between two states of equal energy would put a
    transition at omega = 0: AtomSpec raises ValueError, and the loader a
    ParseError.  A dipole of magnitude 0 there stays accepted."""
    states = (ps.AtomicState("g", 0.0), ps.AtomicState("g2", 0.0))
    with pytest.raises(ValueError, match="two states of equal energy"):
        ps.AtomSpec("bad", states, (ps.DipoleElement("g", "g2", 1e-29),))
    with pytest.raises(ps.ParseError, match="two states of equal energy"):
        ps.load_atom(_write(tmp_path, _DEGENERATE))
    doc = json.loads(json.dumps(_DEGENERATE))
    doc["dipoles"][1]["magnitude"] = 0.0
    atom = ps.load_atom(_write(tmp_path, doc, "zero.json"))
    assert [k for k, _, _ in ps.transitions_from(atom, "g")] == ["e"]


#: the smallest |omega| whose square is a normal float, and the float below
_OMEGA_NORMAL = math.sqrt(sys.float_info.min)
_OMEGA_SUBNORMAL = math.nextafter(_OMEGA_NORMAL, 0.0)


def _two_level(omega, magnitude=1e-29):
    return ps.AtomSpec("close", (ps.AtomicState("g", 0.0),
                                 ps.AtomicState("e", omega)),
                       (ps.DipoleElement("g", "e", magnitude),))


@pytest.mark.parametrize("sign", [1.0, -1.0])
def test_dipole_whose_frequency_squares_below_normal_rejected(sign):
    """A dipole of |d| > 0 at a transition frequency below OMEGA_KN_MIN
    raises ValueError, one ulp below it and where the square is not a
    normal float (alpha(0) would be infinite) alike.  At OMEGA_KN_MIN the
    dipole is accepted, and alpha(0) is finite."""
    assert 0.0 < _OMEGA_SUBNORMAL * _OMEGA_SUBNORMAL < sys.float_info.min
    for omega in (_OMEGA_SUBNORMAL, _OMEGA_NORMAL,
                  math.nextafter(OMEGA_KN_MIN, 0.0)):
        with pytest.raises(ValueError, match="lies below OMEGA_KN_MIN"):
            _two_level(sign * omega)
    ok = _two_level(sign * OMEGA_KN_MIN)
    for level in ("g", "e"):
        assert math.isfinite(ps.polarizability_iso(ok, level, 0.0))
    # a dipole of magnitude 0 there stays accepted
    _two_level(sign * _OMEGA_SUBNORMAL, 0.0)


def test_omega_kn_min_is_where_the_green_tensor_overflows(material_toy):
    """OMEGA_KN_MIN is the smallest omega at which green_nonretarded's
    c^2/(32 pi omega^2 z^3) is finite and nonzero at UNIT_Z and at both
    ends of Z_RANGE; one ulp below, it overflows at the smallest z."""
    lo, hi = Z_RANGE
    for z in (lo, UNIT_Z, hi):
        g = ps.green_nonretarded(material_toy, z, OMEGA_KN_MIN)
        assert all(math.isfinite(x) and x != 0.0
                   for x in (g.xx.real, g.xx.imag, g.zz.real, g.zz.imag)), z
    g = ps.green_nonretarded(material_toy, lo,
                             math.nextafter(OMEGA_KN_MIN, 0.0))
    assert not math.isfinite(abs(g.zz))


def test_duplicate_labels_rejected():
    with pytest.raises(ValueError):
        ps.AtomSpec("dup",
                    states=(ps.AtomicState("a", 0.0),
                            ps.AtomicState("a", 1.0)),
                    dipoles=())


def test_duplicate_dipole_pair_rejected():
    with pytest.raises(ValueError):
        ps.AtomSpec("dup",
                    states=(ps.AtomicState("a", 0.0),
                            ps.AtomicState("b", 1e14)),
                    dipoles=(ps.DipoleElement("a", "b", 1e-29),
                             ps.DipoleElement("b", "a", 2e-29)))


def test_dipole_component_norm_validation():
    d = 1e-29
    ok = ps.DipoleElement("a", "b", d, components=(d, 0.0, 0.0))
    assert ok.components == (d, 0.0, 0.0)
    with pytest.raises(ValueError):
        ps.DipoleElement("a", "b", d, components=(d, d, 0.0))
    with pytest.raises(ValueError):
        ps.DipoleElement("a", "b", -d)


def test_energy_and_dipole_units(tmp_path):
    f = _write(tmp_path, {
        "name": "units",
        "states": [
            {"label": "a", "energy": 0.0, "unit": "rad/s"},
            {"label": "b", "energy": 1.0, "unit": "eV"},
            {"label": "c", "energy": 100.0, "unit": "cm^-1"},
            {"label": "d", "energy": 1e12, "unit": "Hz"},
        ],
        "dipoles": [
            {"from": "a", "to": "b", "magnitude": 1.0, "unit": "e·a0"},
            {"from": "a", "to": "c", "magnitude": 1.0, "unit": "Debye"},
            {"from": "a", "to": "d", "magnitude": 1e-29, "unit": "C·m"},
        ],
    })
    atom = ps.load_atom(f)
    by_label = {s.label: s.energy for s in atom.states}
    assert by_label["b"] == pytest.approx(E_CHARGE / HBAR, rel=1e-12)
    assert by_label["c"] == pytest.approx(100.0 * CM1, rel=1e-12)
    assert by_label["d"] == pytest.approx(2.0 * math.pi * 1e12, rel=1e-12)
    mags = {(d.from_state, d.to_state): d.magnitude for d in atom.dipoles}
    assert mags[("a", "b")] == pytest.approx(E_CHARGE * A0, rel=1e-12, abs=0)
    assert mags[("a", "c")] == pytest.approx(DEBYE, rel=1e-9, abs=0)
    assert mags[("a", "d")] == 1e-29


def test_atom_round_trip(rb_atom):
    doc = atom_to_dict(rb_atom)
    again = ps.atom_from_dict(json.loads(json.dumps(doc)))
    assert again == rb_atom


# ---------------------------------------------------------------------------
# transition bookkeeping
# ---------------------------------------------------------------------------


def test_transitions_from_signs(toy_atom):
    ups = ps.transitions_from(toy_atom, "g")
    assert len(ups) == 1
    label, omega, d = ups[0]
    assert label == "e" and omega == 2.4e14 and d == 1e-29
    downs = ps.transitions_from(toy_atom, "e")
    assert downs[0][1] == -2.4e14


def test_channels_empty_without_common_intermediate(toy_atom):
    assert ps.channels(toy_atom, "e", "g") == []


def test_channels_single_ladder():
    atom = _three_level(omega_k=-2e13, omega_10=3e12)
    chans = ps.channels(atom, "up", "lo")
    assert len(chans) == 1
    ch = chans[0]
    assert ch.k_label == "k"
    assert ch.d_0k == 2e-29 and ch.d_k1 == 3e-29
    # omega_ab = omega_a - omega_b with "0" the lower and "1" the upper state.
    assert ch.omega_0k == 0.0 - (-2e13)
    assert ch.omega_k1 == -2e13 - 3e12


def test_channels_symmetric_intermediate_set(rb_atom):
    down = ps.channels(rb_atom, "27S1/2", "26S1/2")
    up = ps.channels(rb_atom, "26S1/2", "27S1/2")
    assert {c.k_label for c in down} == {c.k_label for c in up}
    d_down = {c.k_label: (c.d_0k, c.d_k1) for c in down}
    d_up = {c.k_label: (c.d_0k, c.d_k1) for c in up}
    for k, (a, b) in d_down.items():
        assert d_up[k] == (b, a)


def _channels_by_rescan(atom, upper, lower):
    """Every state but upper and lower with nonzero d_0k and d_k1."""
    out = []
    for s in atom.states:
        d_0k = atom.dipole_magnitude(lower, s.label)
        d_k1 = atom.dipole_magnitude(s.label, upper)
        if s.label not in (upper, lower) and d_0k > 0.0 and d_k1 > 0.0:
            out.append(ps.TransitionChannel(
                k_label=s.label, d_0k=d_0k, d_k1=d_k1,
                omega_0k=atom.energy(lower) - s.energy,
                omega_k1=s.energy - atom.energy(upper)))
    return sorted(out, key=lambda ch: (atom.energy(ch.k_label), ch.k_label))


def test_channels_match_a_rescan_of_the_states(rb_atom):
    # up and lo share a dipole; kb and ka share an energy (ties go by
    # label); only lo reaches "below", and "dark" couples with d = 0
    atom = ps.AtomSpec(
        name="crowded",
        states=(ps.AtomicState("up", 3e12), ps.AtomicState("kb", 2e13),
                ps.AtomicState("lo", 0.0), ps.AtomicState("ka", 2e13),
                ps.AtomicState("below", -1e13),
                ps.AtomicState("dark", 5e12),
                ps.AtomicState("mid", 1e12)),
        dipoles=(ps.DipoleElement("lo", "up", 1e-29),
                 ps.DipoleElement("kb", "lo", 2e-29),
                 ps.DipoleElement("up", "kb", 3e-29),
                 ps.DipoleElement("lo", "ka", 4e-29),
                 ps.DipoleElement("ka", "up", 5e-29),
                 ps.DipoleElement("below", "lo", 6e-29),
                 ps.DipoleElement("lo", "dark", 0.0),
                 ps.DipoleElement("dark", "up", 7e-29),
                 ps.DipoleElement("mid", "lo", 8e-29),
                 ps.DipoleElement("up", "mid", 9e-29)))
    assert [ch.k_label for ch in ps.channels(atom, "up", "lo")] == \
        ["mid", "ka", "kb"]
    for a, upper, lower in ((atom, "up", "lo"), (atom, "lo", "up"),
                            (rb_atom, "27S1/2", "26S1/2"),
                            (rb_atom, "26S1/2", "27S1/2")):
        assert ps.channels(a, upper, lower) == \
            _channels_by_rescan(a, upper, lower)


def test_channels_unknown_labels(rb_atom):
    with pytest.raises(ValueError):
        ps.channels(rb_atom, "27S1/2", "nope")
    with pytest.raises(ValueError):
        ps.channels(rb_atom, "27S1/2", "27S1/2")


def test_rb_channels_dominated_by_26P(rb_atom):
    chans = ps.channels(rb_atom, "27S1/2", "26S1/2")
    assert len(chans) >= 4
    weights = {c.k_label: c.d_0k * c.d_k1 for c in chans}
    top = max(weights, key=weights.get)
    assert top.startswith("26P")
    # The dominant intermediate sits between the two S states in energy.
    by_label = {s.label: s.energy for s in rb_atom.states}
    assert by_label["26S1/2"] < by_label[top] < by_label["27S1/2"]


def test_rb_fixture_block(rb_atom):
    assert len(rb_atom.states) == 12
    assert len(rb_atom.dipoles) == 20
    omega_10 = rb_atom.transition_frequency("27S1/2", "26S1/2")
    assert omega_10 > 0
    assert omega_10 / CM1 == pytest.approx(17.2147, abs=1e-3)


# ---------------------------------------------------------------------------
# polarizability
# ---------------------------------------------------------------------------


def test_polarizability_no_dipoles():
    atom = ps.AtomSpec("bare", states=(ps.AtomicState("g", 0.0),), dipoles=())
    assert ps.polarizability_iso(atom, "g", 0.0) == 0.0
    zeros = ps.polarizability_iso(atom, "g", np.array([0.0, 1e12]))
    assert zeros.tolist() == [0.0, 0.0]


@pytest.mark.parametrize("label", ["26S1/2", "27S1/2", "26P1/2", "27P3/2"])
def test_polarizability_array_matches_scalar_calls(rb_atom, label):
    """An array of xi gives the per-element scalar values, and a scalar
    call gives the transition sum written out term by term."""
    xi = np.concatenate(([0.0], np.geomspace(1e9, 1e16, 40)))
    got = ps.polarizability_iso(rb_atom, label, xi)
    assert got.shape == xi.shape
    for g, x in zip(got.tolist(), xi.tolist()):
        one = ps.polarizability_iso(rb_atom, label, x)
        assert g == pytest.approx(one, rel=1e-15, abs=0)
        total = 0.0
        for _, w, d in ps.transitions_from(rb_atom, label):
            total += w * d * d / (w * w + x * x)
        assert one == pytest.approx(2.0 / (3.0 * HBAR) * total,
                                    rel=1e-15, abs=0)
    grid = ps.polarizability_iso(rb_atom, label, xi[:6].reshape(3, 2))
    assert grid.tolist() == got[:6].reshape(3, 2).tolist()


@pytest.mark.parametrize("xi", [-1.0, [0.0, 1e12, -1e-300],
                                [[1e12], [-5.0]]])
def test_polarizability_rejects_negative_xi(toy_atom, xi):
    with pytest.raises(ValueError):
        ps.polarizability_iso(toy_atom, "g", xi)


def test_polarizability_two_level_static(toy_atom):
    want = (2.0 / (3.0 * HBAR)) * (1e-29) ** 2 / 2.4e14
    assert ps.polarizability_iso(toy_atom, "g", 0.0) == pytest.approx(
        want, rel=1e-12, abs=0)


def test_polarizability_vanishes_at_large_xi(toy_atom):
    static = ps.polarizability_iso(toy_atom, "g", 0.0)
    assert ps.polarizability_iso(toy_atom, "g", 1e20) < 1e-10 * static


@settings(max_examples=40)
@given(xi=st.floats(0.0, 1e16), step=st.floats(1e10, 1e16))
def test_polarizability_ground_state_decreasing(toy_atom, xi, step):
    a_lo = ps.polarizability_iso(toy_atom, "g", xi)
    a_hi = ps.polarizability_iso(toy_atom, "g", xi + step)
    assert a_lo > 0.0
    assert a_hi < a_lo


def test_polarizability_excited_state_sign(toy_atom):
    # For the upper level the single transition is downward: negative value.
    assert ps.polarizability_iso(toy_atom, "e", 0.0) < 0.0


# ---------------------------------------------------------------------------
# level tables
# ---------------------------------------------------------------------------


def _sparse_atom():
    """Six levels: "dark" couples to "g" only with |d| = 0, "lone" has no
    dipole, and "b" and "c" share an energy (ties go by label)."""
    return ps.AtomSpec(
        name="sparse",
        states=(ps.AtomicState("g", 0.0), ps.AtomicState("c", 3e13),
                ps.AtomicState("dark", 1e13), ps.AtomicState("b", 3e13),
                ps.AtomicState("lone", 2e13), ps.AtomicState("e", 5e13)),
        dipoles=(ps.DipoleElement("g", "c", 1e-29),
                 ps.DipoleElement("dark", "g", 0.0),
                 ps.DipoleElement("b", "g", 2e-29),
                 ps.DipoleElement("e", "b", 3e-29),
                 ps.DipoleElement("c", "e", 4e-29),
                 ps.DipoleElement("e", "dark", 5e-29)))


_XI = [0.0, 1e12, np.array(0.0), np.array([0.0, 1e9, 1e13, 1e16]),
       np.array([[0.0, 1e14], [3e11, 1e15]])]


@pytest.mark.parametrize("atom", ["rb_atom", "toy_atom", "flipping_atom",
                                  "sparse"])
def test_level_tables_equal_the_eager_scan(request, atom):
    """Every level's transitions and alpha, read from a fresh AtomSpec,
    have the bits of the scan over all states that once built every
    level in the constructor (oracles.level_tables_by_scan), for scalar
    and array xi, xi = 0 included."""
    a = _sparse_atom() if atom == "sparse" else request.getfixturevalue(atom)
    a = ps.AtomSpec(a.name, a.states, a.dipoles)
    for n in a.labels():
        assert ps.transitions_from(a, n) == list(level_tables_by_scan(a, n)[0])
        for xi in _XI:
            got = ps.polarizability_iso(a, n, xi)
            want = polarizability_by_scan(a, n, xi)
            assert np.shape(got) == np.shape(xi)
            assert np.asarray(got).tobytes() == np.asarray(want).tobytes()


def test_level_tables_leave_out_zero_and_missing_dipoles():
    """A level with no dipole has no transitions and alpha = 0 in xi's
    shape; a dipole of magnitude 0 enters neither table, on either side."""
    a = _sparse_atom()
    assert ps.transitions_from(a, "lone") == []
    for xi in _XI:
        zeros = ps.polarizability_iso(a, "lone", xi)
        assert np.shape(zeros) == np.shape(xi)
        assert not np.any(zeros)
    assert [k for k, _, _ in ps.transitions_from(a, "g")] == ["b", "c"]
    assert [k for k, _, _ in ps.transitions_from(a, "dark")] == ["e"]
    without = ps.AtomSpec(a.name, a.states,
                          [d for d in a.dipoles if d.magnitude > 0.0])
    xi = _XI[3]
    for n in ("g", "dark"):
        assert ps.transitions_from(a, n) == ps.transitions_from(without, n)
        assert ps.polarizability_iso(a, n, xi).tobytes() == \
            ps.polarizability_iso(without, n, xi).tobytes()


def test_level_tables_are_built_once(rb_atom):
    """A level's tables are built on its first read and kept: a second
    read returns them again, and a caller's list is its own copy."""
    a = ps.AtomSpec(rb_atom.name, rb_atom.states, rb_atom.dipoles)
    first = ps.transitions_from(a, "27S1/2")
    level = a._level("27S1/2")
    first.clear()
    assert ps.transitions_from(a, "27S1/2") == \
        list(level_tables_by_scan(a, "27S1/2")[0])
    ps.polarizability_iso(a, "27S1/2", 1e12)
    assert a._level("27S1/2") is level
    assert a == rb_atom and repr(a) == repr(rb_atom)


_AB = (ps.AtomicState("a", 0.0), ps.AtomicState("b", 1e14))


@pytest.mark.parametrize("states, dipoles, error, match", [
    (_AB, (ps.DipoleElement("a", "x", 1e-29),), ps.DanglingReference,
     "unknown state 'x'"),
    (_AB, (ps.DipoleElement("a", "b", 1e-29), ps.DipoleElement("b", "a", 0.0)),
     ValueError, "duplicate dipole"),
    ((ps.AtomicState("a", 0.0), ps.AtomicState("a", 1e14)), (), ValueError,
     "duplicate state label"),
])
def test_constructor_checks_before_any_read(states, dipoles, error, match):
    """The constructor checks every label and dipole itself: a dangling or
    duplicate dipole and a duplicate label raise with no level read."""
    with pytest.raises(error, match=match):
        ps.AtomSpec("bad", states, dipoles)
