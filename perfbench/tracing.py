"""Spans around the library's public functions, recorded from outside it.

Each function is wrapped at the name its callers look up: a function that
another module imports by name is wrapped in that module's namespace, e.g.
``polshift.potentials.reflection_imag_axis`` or ``polshift.greens.fresnel``.
The library is not modified.  Spans are kept in memory, each with its parent
and the request it belongs to, and written out when the run ends.  A layer's
self time is its span time minus the time of its child spans.
"""

import functools
import gzip
import importlib
import json
import time

#: (module, name looked up there, span name)
TARGETS = (
    ("polshift.cli", "run_scan", "cli.run_scan"),
    ("polshift.cli", "run_point", "cli.run_point"),
    ("polshift.cli", "modes_report", "cli.modes_report"),
    ("polshift.cli", "load_material", "material.load"),
    ("polshift.cli", "load_atom", "material.load"),
    ("polshift.cli", "find_polariton_modes", "material.find_polariton_modes"),
    ("polshift.cli", "total_shift", "potentials.total_shift"),
    ("polshift.potentials", "find_polariton_modes",
     "material.find_polariton_modes"),
    ("polshift.potentials", "nonresonant_shift_parts",
     "potentials.nonresonant_shift_parts"),
    ("polshift.potentials", "u_eff", "potentials.u_eff"),
    ("polshift.potentials", "reflection_imag_axis",
     "material.reflection_imag_axis"),
    ("polshift.potentials", "polarizability_iso", "atoms.polarizability_iso"),
    ("polshift.potentials", "transitions_from", "atoms.transitions"),
    ("polshift.potentials", "atom_channels", "atoms.transitions"),
    ("polshift.atoms", "transitions_from", "atoms.transitions"),
    ("polshift.potentials", "green_nonretarded", "greens.green_nonretarded"),
    ("polshift.potentials", "green_full", "greens.green_full"),
    ("polshift.potentials", "green_full_imag_axis",
     "greens.green_full_imag_axis"),
    ("polshift.greens", "fresnel", "material.fresnel"),
)

SPANS = tuple(dict.fromkeys(name for _, _, name in TARGETS))
LAYERS = tuple(dict.fromkeys(name.split(".")[0] for name in SPANS))


def _size(value):
    try:
        return int(value.size)
    except AttributeError:
        return len(value) if isinstance(value, (list, tuple)) else 1


def _arg(args, kwargs, pos, name):
    return args[pos] if len(args) > pos else kwargs[name]


#: span name -> (counter, items of work in one call): Matsubara terms are
#: the xi values handed over, so a vectorised engine still counts terms
COUNTERS = {
    "material.reflection_imag_axis": (
        "potentials.matsubara_terms",
        lambda a, k: _size(_arg(a, k, 1, "xi"))),
    "greens.green_full_imag_axis": ("potentials.matsubara_terms",
                                    lambda a, k: 1),
    "material.fresnel": ("material.fresnel.nodes",
                         lambda a, k: _size(_arg(a, k, 2, "k_rho"))),
}


class MissingTarget(AttributeError):
    """A wrapped name no longer exists; the traced run cannot be trusted."""


class Tracer:
    def __init__(self, targets=TARGETS):
        self.targets = targets
        self.spans = []      # (id, parent, request, name, t0, t1, error)
        self.calls = dict.fromkeys(SPANS, 0)
        self.self_s = dict.fromkeys(SPANS, 0.0)
        self.total_s = dict.fromkeys(SPANS, 0.0)   # outermost spans only
        self._open = dict.fromkeys(SPANS, 0)
        self.counts = {"potentials.matsubara_terms": 0,
                       "potentials.matsubara_terms_failed": 0,
                       "material.fresnel.nodes": 0}
        self.errors = dict.fromkeys(LAYERS, 0)
        self.request = 0
        self._stack = []     # [span id, name, child time, terms at entry]
        self._saved = []
        self._error_types = ()
        self._convergence = ()

    def install(self):
        """Wrap every target; raise MissingTarget, leaving nothing wrapped,
        if one of them is gone."""
        from polshift.errors import ConvergenceFailure, PolshiftError
        self._error_types = PolshiftError
        self._convergence = ConvergenceFailure
        for module_name, attr, span in self.targets:
            module = importlib.import_module(module_name)
            if not callable(getattr(module, attr, None)):
                self.uninstall()
                raise MissingTarget(
                    f"{module_name}.{attr} is gone; cannot trace {span}")
            original = getattr(module, attr)
            self._saved.append((module, attr, original))
            setattr(module, attr, self._wrap(original, span))
        return self

    def uninstall(self):
        while self._saved:
            module, attr, original = self._saved.pop()
            setattr(module, attr, original)

    def _wrap(self, fn, name):
        counter = COUNTERS.get(name)
        stack, spans = self._stack, self.spans

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if counter is not None:
                self.counts[counter[0]] += counter[1](args, kwargs)
            span_id = len(spans) + len(stack)
            parent = stack[-1] if stack else None
            frame = [span_id, name, 0.0,
                     self.counts["potentials.matsubara_terms"]]
            stack.append(frame)
            self._open[name] += 1
            error = None
            t0 = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            except self._error_types as exc:
                error = type(exc).__name__
                self._count_error(name, parent, frame, exc)
                raise
            finally:
                t1 = time.perf_counter()
                stack.pop()
                self._open[name] -= 1
                self.calls[name] += 1
                self.self_s[name] += (t1 - t0) - frame[2]
                if not self._open[name]:
                    self.total_s[name] += t1 - t0
                if parent is not None:
                    parent[2] += t1 - t0
                spans.append((span_id, parent[0] if parent else None,
                              self.request, name, t0, t1, error))
        return traced

    def _count_error(self, name, parent, frame, exc):
        layer = name.split(".")[0]
        # counted once per layer it leaves, not at every nested span
        if parent is None or parent[1].split(".")[0] != layer:
            self.errors[layer] += 1
        if name == "potentials.total_shift" and \
                isinstance(exc, self._convergence):
            self.counts["potentials.matsubara_terms_failed"] += (
                self.counts["potentials.matsubara_terms"] - frame[3])

    def metrics(self):
        """Per-layer metrics: calls, self and inclusive time of every span,
        the work counters and the typed errors leaving each layer."""
        out = {}
        for name in SPANS:
            out[f"{name}.calls"] = (self.calls[name], "count")
            out[f"{name}.self_s"] = (self.self_s[name], "s")
            out[f"{name}.total_s"] = (self.total_s[name], "s")
        for name, value in self.counts.items():
            out[name] = (value, "count")
        for layer, value in self.errors.items():
            out[f"{layer}.errors"] = (value, "count")
        return out

    def write(self, path, header):
        """Write the header and every span as JSON lines (gzip)."""
        with gzip.open(path, "wt", encoding="utf-8") as fh:
            fh.write(json.dumps(header) + "\n")
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")
