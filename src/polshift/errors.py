"""Exception types shared across the package.

Two families:

* configuration/input errors (bad files, bad references) -- exit code 2 in the CLI;
* physics/numerics errors (poles, failed quadrature, off-resonance requests) --
  exit code 3 in the CLI.

The JSON input helpers that both file loaders share sit next to ParseError,
the error they raise.
"""

import json

#: the schema_version of material and atom input files and of the CLI's
#: JSON output
SCHEMA_VERSION = 1


class PolshiftError(Exception):
    """Base class for all package-specific errors."""


# --- configuration / input errors -------------------------------------------

class ParseError(PolshiftError):
    """Malformed input file.  ``field`` holds a dotted path to the offender."""

    def __init__(self, message, field=None):
        self.field = field
        if field is not None:
            message = f"{message} (at '{field}')"
        super().__init__(message)


class DanglingReference(ParseError):
    """A dipole entry references a state label that does not exist."""


def read_json(path):
    """Parse a JSON input file; malformed JSON raises ParseError."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except json.JSONDecodeError as exc:
        raise ParseError(f"invalid JSON in {path}: {exc}") from None


def check_document(doc, kind):
    """ParseError unless doc is an object of a supported schema_version."""
    if not isinstance(doc, dict):
        raise ParseError(f"{kind} document must be an object", field=".")
    version = doc.get("schema_version", SCHEMA_VERSION)
    if version != SCHEMA_VERSION:
        raise ParseError(f"unsupported schema_version {version!r}",
                         field="schema_version")


def require(doc, key, path=""):
    """doc[key]; a missing key raises ParseError at the dotted path + key."""
    if key not in doc:
        raise ParseError("missing required field", field=f"{path}{key}")
    return doc[key]


# --- physics / numerics errors -----------------------------------------------

class PhysicsError(PolshiftError):
    """Base class for errors raised by the numerical physics layer."""


class PoleHit(PhysicsError):
    """Permittivity evaluated exactly on an undamped oscillator pole."""


class SurfaceModePole(PhysicsError):
    """Nonretarded reflection evaluated (numerically) on a surface-mode pole."""


class NoModeFound(PhysicsError):
    """Surface-mode search found no interior maximum of Im r_p."""


class QuadratureFailure(PhysicsError):
    """Adaptive quadrature could not reach the requested tolerance."""


class ZeroTemperature(PhysicsError):
    """Matsubara machinery invoked at T = 0 where the sum is undefined."""


class ConvergenceFailure(PhysicsError):
    """Matsubara tail estimate still exceeds the tolerance at the cutoff."""


class OffResonance(PhysicsError):
    """Polariton pair does not satisfy the resonance condition for u_eff."""


class NoChannels(PhysicsError):
    """No intermediate state couples both ends of the requested transition."""


class ModeAttributionError(PhysicsError):
    """Polariton modes cannot be paired one-to-one with material oscillators."""
