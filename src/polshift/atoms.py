"""Atomic level structure, dipole bookkeeping and isotropic polarizability.

Level energies are stored as angular-frequency equivalents E/hbar (rad/s);
dipole magnitudes in C.m.  Transition frequencies follow the convention
omega_ab = omega_a - omega_b and are always computed, never stored.
"""

import math
from dataclasses import dataclass

import numpy as np

from .errors import (DanglingReference, ParseError, check_document, read_json,
                     require)
from .units import HBAR, dipole_moment, level_energy


#: the smallest |omega_kn| (rad/s) of a dipole with |d| > 0: from here up
#: the nonretarded Green tensor's c^2/(32 pi omega^2 z^3) is finite and
#: nonzero at every z of potentials.Z_RANGE, and one ulp below it overflows
#: at the smallest z; omega^2 is then a normal float, so alpha(0) =
#: (2/3 hbar) sum |d|^2/omega is finite too
OMEGA_KN_MIN = 7.052011266387911e-125


@dataclass(frozen=True)
class AtomicState:
    label: str
    energy: float  # E/hbar in rad/s

    def __post_init__(self):
        if not self.label:
            raise ValueError("state label must be non-empty")
        if not math.isfinite(self.energy):
            raise ValueError("state energy must be finite")


@dataclass(frozen=True)
class DipoleElement:
    from_state: str
    to_state: str
    magnitude: float  # C.m
    components: tuple = None  # optional Cartesian (x, y, z) in C.m

    def __post_init__(self):
        if not (math.isfinite(self.magnitude) and self.magnitude >= 0):
            raise ValueError("dipole magnitude must be finite and >= 0")
        if self.from_state == self.to_state:
            raise ValueError("dipole must connect two distinct states")
        if self.components is not None:
            comp = tuple(float(c) for c in self.components)
            if len(comp) != 3 or not all(map(math.isfinite, comp)):
                raise ValueError("components must be a finite 3-vector")
            norm = math.sqrt(sum(c * c for c in comp))
            if abs(norm - self.magnitude) > 1e-12 * self.magnitude:
                raise ValueError(
                    "norm of components does not match magnitude")
            object.__setattr__(self, "components", comp)


class AtomSpec:
    """Immutable collection of states and dipole couplings.

    Lookup of dipoles is orientation-agnostic: |d_ab| = |d_ba|.  The
    constructor checks labels and dipoles at once, and rejects a dipole
    with |d| > 0 between two states of equal energy, a transition at
    omega = 0 that no shift formula admits, or between two states so close
    that |omega| < OMEGA_KN_MIN, where the photon line's Green tensor would
    overflow; a level's transitions and polarizability table are built the
    first time one of them is read (transitions_from, polarizability_iso),
    since a shift reads only the levels it joins.
    """

    def __init__(self, name, states, dipoles):
        self.name = str(name)
        self.states = tuple(states)
        self.dipoles = tuple(dipoles)
        self._by_label = {}
        for s in self.states:
            if s.label in self._by_label:
                raise ValueError(f"duplicate state label {s.label!r}")
            self._by_label[s.label] = s
        self._pairs = {}
        # per label: (partner, |d|) of each of its dipoles with |d| > 0
        self._partners = {lab: [] for lab in self._by_label}
        for d in self.dipoles:
            for lab in (d.from_state, d.to_state):
                if lab not in self._by_label:
                    raise DanglingReference(
                        f"dipole {d.from_state!r} -> {d.to_state!r} references "
                        f"unknown state {lab!r}")
            key = frozenset((d.from_state, d.to_state))
            if key in self._pairs:
                raise ValueError(
                    f"duplicate dipole between {d.from_state!r} and "
                    f"{d.to_state!r}")
            self._pairs[key] = d
            if d.magnitude > 0.0:
                omega = (self._by_label[d.to_state].energy
                         - self._by_label[d.from_state].energy)
                if omega == 0.0:
                    raise ValueError(
                        f"dipole between {d.from_state!r} and {d.to_state!r}"
                        ", two states of equal energy")
                if abs(omega) < OMEGA_KN_MIN:
                    raise ValueError(
                        f"dipole between {d.from_state!r} and {d.to_state!r}"
                        f", whose transition frequency {abs(omega)!r} rad/s "
                        f"lies below OMEGA_KN_MIN = {OMEGA_KN_MIN!r} rad/s")
                self._partners[d.from_state].append((d.to_state, d.magnitude))
                self._partners[d.to_state].append((d.from_state, d.magnitude))
        self._levels = {}

    def _level(self, n):
        """(transitions, (omega_kn^2, omega_kn |d_nk|^2)) of level n, built
        on its first read: the (k, omega_kn, |d_nk|) sorted by (omega_kn,
        k), and the two column arrays polarizability_iso broadcasts over
        an array of xi.  ValueError for an unknown label."""
        try:
            return self._levels[n]
        except KeyError:
            pass
        e_n = self.state(n).energy
        trans = tuple(sorted(
            ((k, self._by_label[k].energy - e_n, d)
             for k, d in self._partners[n]),
            key=lambda t: (t[1], t[0])))
        level = (trans, (np.array([[w * w] for _, w, _ in trans]),
                         np.array([[w * d * d] for _, w, d in trans])))
        self._levels[n] = level
        return level

    def __eq__(self, other):
        return (isinstance(other, AtomSpec)
                and self.name == other.name
                and self.states == other.states
                and self.dipoles == other.dipoles)

    def __repr__(self):
        return (f"AtomSpec(name={self.name!r}, {len(self.states)} states, "
                f"{len(self.dipoles)} dipoles)")

    def state(self, label):
        try:
            return self._by_label[label]
        except KeyError:
            raise ValueError(f"unknown state label {label!r}") from None

    def energy(self, label):
        return self.state(label).energy

    def labels(self):
        return [s.label for s in self.states]

    def transition_frequency(self, a, b):
        """omega_ab = omega_a - omega_b (rad/s, signed)."""
        return self.energy(a) - self.energy(b)

    def dipole(self, a, b):
        """The DipoleElement connecting a and b, or None."""
        return self._pairs.get(frozenset((a, b)))

    def dipole_magnitude(self, a, b):
        d = self.dipole(a, b)
        return d.magnitude if d is not None else 0.0


@dataclass(frozen=True)
class TransitionChannel:
    """One intermediate state k coupling lower |0> and upper |1>."""

    k_label: str
    d_0k: float       # C.m
    d_k1: float       # C.m
    omega_0k: float   # rad/s, omega_0 - omega_k
    omega_k1: float   # rad/s, omega_k - omega_1


def channels(atom, upper, lower):
    """All intermediate states with nonzero d_0k and d_k1.

    Returned sorted by intermediate-state energy (ties broken by label);
    an empty list is allowed.  The same set comes back with upper and lower
    swapped, since only the magnitudes enter.
    """
    if upper == lower:
        raise ValueError("upper and lower must differ")
    # the join on k leaves out upper and lower themselves, since neither is
    # in its own list; omega_0k = -omega_k0 is exact in floating point
    to_upper = {k: (w_k1, d_k1)
                for k, w_k1, d_k1 in transitions_from(atom, upper)}
    out = [TransitionChannel(k_label=k, d_0k=d_0k, d_k1=to_upper[k][1],
                             omega_0k=-w_k0, omega_k1=to_upper[k][0])
           for k, w_k0, d_0k in transitions_from(atom, lower)
           if k in to_upper]
    out.sort(key=lambda ch: (atom.energy(ch.k_label), ch.k_label))
    return out


def transitions_from(atom, n):
    """(k_label, omega_kn, |d_nk|) for every state k with a dipole to n,
    sorted by omega_kn (ties by label).  A level's list is built the first
    time the level is read and kept on the AtomSpec, so evaluating many xi
    never re-filters the dipoles."""
    return list(atom._level(n)[0])


def polarizability_iso(atom, n, xi):
    """Isotropic polarizability on the imaginary axis (SI, C^2 m^2 / J).

    alpha(i xi) = (2 / 3 hbar) sum_k omega_kn |d_nk|^2 / (omega_kn^2 + xi^2),
    with omega_kn = omega_k - omega_n signed, over all dipole-coupled k.
    xi may be a scalar or an array; the result has the shape of xi.
    """
    xi = np.asarray(xi, dtype=float)
    if not (xi >= 0).all():
        raise ValueError("xi must be >= 0")
    w2, num = atom._level(n)[1]
    if not len(w2):
        return np.zeros(xi.shape)[()]
    terms = num / (w2 + xi.reshape(-1) ** 2)
    # accumulate adds the transitions one after another, as a scalar loop
    # would; sum() pairs them differently and would change the last bits
    total = np.add.accumulate(terms, axis=0)[-1].reshape(xi.shape)
    return 2.0 / (3.0 * HBAR) * total[()]


# --- JSON ingestion -------------------------------------------------------------

def atom_from_dict(doc):
    """Build an AtomSpec from a parsed JSON document."""
    check_document(doc, "atom")
    name = require(doc, "name")
    states_doc = require(doc, "states")
    dipoles_doc = require(doc, "dipoles")
    if not isinstance(states_doc, list) or not states_doc:
        raise ParseError("states must be a non-empty list", field="states")
    if not isinstance(dipoles_doc, list):
        raise ParseError("dipoles must be a list", field="dipoles")

    states = []
    for i, entry in enumerate(states_doc):
        p = f"states[{i}]."
        if not isinstance(entry, dict):
            raise ParseError("state entry must be an object", field=p[:-1])
        label = require(entry, "label", p)
        unit = require(entry, "unit", p)
        try:
            energy = level_energy(require(entry, "energy", p), unit)
            states.append(AtomicState(label=str(label), energy=energy))
        except (TypeError, ValueError) as exc:
            raise ParseError(str(exc), field=p[:-1]) from None

    labels = {s.label for s in states}
    dipoles = []
    for i, entry in enumerate(dipoles_doc):
        p = f"dipoles[{i}]."
        if not isinstance(entry, dict):
            raise ParseError("dipole entry must be an object", field=p[:-1])
        frm = str(require(entry, "from", p))
        to = str(require(entry, "to", p))
        unit = require(entry, "unit", p)
        for lab, key in ((frm, "from"), (to, "to")):
            if lab not in labels:
                raise DanglingReference(
                    f"unknown state {lab!r}", field=f"{p}{key}")
        try:
            mag = dipole_moment(require(entry, "magnitude", p), unit)
            comp = entry.get("components")
            if comp is not None:
                comp = tuple(dipole_moment(c, unit) for c in comp)
            dipoles.append(DipoleElement(from_state=frm, to_state=to,
                                         magnitude=mag, components=comp))
        except (TypeError, ValueError) as exc:
            raise ParseError(str(exc), field=p[:-1]) from None

    try:
        return AtomSpec(name=str(name), states=states, dipoles=dipoles)
    except ValueError as exc:
        raise ParseError(str(exc)) from None


def load_atom(path):
    """Load an atom JSON file; errors carry the offending field path."""
    return atom_from_dict(read_json(path))
