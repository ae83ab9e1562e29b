"""Seeded inputs for the benchmark workloads, and the calls that run them.

Each workload draws from a pool of inputs whose outputs were recorded once,
at the commit that defined the benchmark (``reference/<workload>.json``,
written by ``record.py``).  A run's seed orders the pool members and draws
the continuous atom-surface distances, so one seed always gives the same
inputs and every output has a reference to be checked against.

A run draws pool members without replacement: no temperature (scan,
cold_points), point (retarded_points) or material (modes_sweep) comes up
twice in one run, as none does in the separate processes of real CLI use.
So a cache keyed on them cannot gain inside a run.  Each pool holds several
times the operations a run reaches at the seed commit; a run that uses up
its pool ends there.

The library is reached only through the entry points the ``shift`` CLI uses:
``polshift.cli.run_scan``, ``run_point`` and ``modes_report``.  They are
looked up on the module at call time so that a traced run sees its wrappers.
"""

import json
import math
import os

import numpy as np

HERE = os.path.dirname(os.path.abspath(__file__))
MATERIAL = os.path.join(HERE, "data", "material_broad.json")
ATOM = os.path.join(HERE, "data", "rb_rydberg.json")
UPPER, LOWER = "27S1/2", "26S1/2"
REFERENCE = os.path.join(HERE, "reference")

WORKLOADS = ("scan", "cold_points", "retarded_points", "modes_sweep")

#: seed of the pools recorded in reference/
POOL_SEED = 12066621
#: distance at which the nonretarded pools were recorded; every other z is
#: reached through the exact z^-3 scaling of the nonretarded report
Z_REF = 1e-6

# scan: one request is a SCAN_NZ x SCAN_NT grid, one T from each T stratum
# (a run reaches about 34 requests at the seed commit)
SCAN_Z = (1e-7, 1e-5)
SCAN_T = (50.0, 600.0)
SCAN_NZ, SCAN_NT, SCAN_PER_STRATUM = 50, 20, 128
# cold_points: requests come in blocks holding one T from each log-T stratum,
# so the heavy low-T tail of the Matsubara cost is sampled evenly.  0.35 K
# keeps every request inside the default cutoff (it fails below ~0.28 K).
# A run reaches about 370 requests at the seed commit.
COLD_Z = (1e-7, 1e-5)
COLD_T = (0.35, 30.0)
COLD_STRATA, COLD_PER_STRATUM = 16, 96
#: requests a timed run completes as a whole, so that every run samples each
#: cold_points stratum equally often
BLOCK = {"cold_points": COLD_STRATA}
# retarded_points: each reference costs about a second; a run reaches about
# 20 requests at the seed commit
RET_Z = (0.5e-6, 20e-6)
RET_T = (300.0, 600.0)
RET_POOL = 96
# modes_sweep: random Drude-Lorentz materials (parameters in cm^-1); a run
# reaches about 3500 at the seed commit
MODES_POOL = 6000
MODES_OSC = (1, 4)
MODES_OMEGA_T = (30.0, 300.0)
MODES_PLASMA_RATIO = (0.4, 1.6)
MODES_DAMPING = (0.005, 0.05)


def _log_uniform(rng, lo, hi, size=None):
    return lo * (hi / lo) ** rng.random(size)


def _strata(rng, lo, hi, strata, per, log):
    """``strata`` sorted lists of ``per`` values, stratum s covering the
    s-th equal slice of [lo, hi] (of log[lo, hi] when ``log``)."""
    out = []
    for s in range(strata):
        u = (s + rng.random(per)) / strata
        vals = lo * (hi / lo) ** u if log else lo + (hi - lo) * u
        out.append(sorted(float(v) for v in vals))
    return out


# --- materials for modes_sweep ----------------------------------------------------

def ascending_crossings(oscillators):
    """Frequencies (cm^-1) where Re eps(omega) crosses -1 from below.

    Independent of the library: with s = omega^2 and D_j = (T_j - s)^2 +
    s g_j^2 > 0, (Re eps + 1) * prod D_j is a polynomial in s whose simple
    positive roots with positive slope are the ascending crossings.
    ``oscillators`` holds (omega_P, omega_T, gamma) triples.
    """
    P = np.polynomial.Polynomial
    unit = max(wt for _, wt, _ in oscillators)  # keeps the polynomial scaled
    oscs = [(wp / unit, wt / unit, g / unit) for wp, wt, g in oscillators]
    dens = [P([wt**4, g * g - 2.0 * wt**2, 1.0]) for _, wt, g in oscs]
    num = 2.0 * math.prod(dens, start=P([1.0]))
    for j, (wp, wt, _) in enumerate(oscs):
        others = math.prod((d for k, d in enumerate(dens) if k != j),
                           start=P([1.0]))
        num = num + wp**2 * P([wt**2, -1.0]) * others
    slope = num.deriv()
    return sorted(unit * math.sqrt(s.real) for s in num.roots()
                  if abs(s.imag) <= 1e-9 * abs(s) and s.real > 0
                  and slope(s.real) > 0)


def random_material(rng):
    """(omega_P, omega_T, gamma) triples in cm^-1 with at least one ascending
    Re eps = -1 crossing; draws without one (rare with these ranges) are
    redrawn, because for them NoModeFound is the correct answer."""
    while True:
        n = int(rng.integers(MODES_OSC[0], MODES_OSC[1] + 1))
        oscs = []
        for _ in range(n):
            wt = _log_uniform(rng, *MODES_OMEGA_T)
            wp = wt * rng.uniform(*MODES_PLASMA_RATIO)
            g = wt * _log_uniform(rng, *MODES_DAMPING)
            oscs.append((round(wp, 4), round(wt, 4), round(g, 5)))
        oscs.sort(key=lambda o: o[1])
        if ascending_crossings(oscs):
            return oscs


def material_doc(index, oscillators):
    return {
        "schema_version": 1,
        "name": f"perfbench random material {index}",
        "oscillators": [{"omega_P": wp, "omega_T": wt, "gamma": g,
                         "unit": "cm^-1"} for wp, wt, g in oscillators],
    }


def make_pools(seed=POOL_SEED):
    """The pools whose outputs reference/ records."""
    rng = np.random.default_rng(seed)
    return {
        "scan": {"T": _strata(rng, *SCAN_T, SCAN_NT, SCAN_PER_STRATUM,
                              log=False)},
        "cold_points": {"T": _strata(rng, *COLD_T, COLD_STRATA,
                                     COLD_PER_STRATUM, log=True)},
        "retarded_points": {"points": [
            [float(_log_uniform(rng, *RET_Z)), float(rng.uniform(*RET_T))]
            for _ in range(RET_POOL)]},
        "modes_sweep": {"materials": [random_material(rng)
                                      for _ in range(MODES_POOL)]},
    }


def reference_path(workload):
    return os.path.join(REFERENCE, f"{workload}.json")


def load_reference(workloads=WORKLOADS):
    """The references of ``workloads``, merged into one dict.  Each file
    repeats the shared header (z_ref, material_broad centres), so a run
    loads only its own workload's file."""
    ref = {}
    for workload in workloads:
        with open(reference_path(workload), encoding="utf-8") as fh:
            ref.update(json.load(fh))
    return ref


# --- seeded request streams -------------------------------------------------------

def requests(workload, seed, ref):
    """Deterministic stream of request specs for one run; it ends when the
    pool is used up, and no pool member appears in it twice.

    A spec names its inputs and the reference entry that checks them:
    scan -> {"z": [...], "T": [(stratum, member), ...]};
    cold_points -> {"z", "T": (stratum, member)};
    retarded_points and modes_sweep -> {"i": pool index}.
    """
    rng = np.random.default_rng([seed, WORKLOADS.index(workload)])
    if workload == "scan":
        order = [rng.permutation(SCAN_PER_STRATUM) for _ in range(SCAN_NT)]
        for r in range(SCAN_PER_STRATUM):
            z = np.sort(_log_uniform(rng, *SCAN_Z, SCAN_NZ))
            yield {"z": [float(v) for v in z],
                   "T": [(int(s), int(order[s][r]))
                         for s in rng.permutation(SCAN_NT)]}
    elif workload == "cold_points":
        order = [rng.permutation(COLD_PER_STRATUM) for _ in range(COLD_STRATA)]
        for b in range(COLD_PER_STRATUM):
            for s in rng.permutation(COLD_STRATA):
                yield {"z": float(_log_uniform(rng, *COLD_Z)),
                       "T": (int(s), int(order[s][b]))}
    elif workload in ("retarded_points", "modes_sweep"):
        size = len(ref[workload]["points" if workload == "retarded_points"
                                  else "materials"])
        for i in rng.permutation(size):
            yield {"i": int(i)}
    else:
        raise ValueError(f"unknown workload {workload!r}")


def write_materials(materials, directory):
    """Write each material of the modes_sweep pool as a CLI material file."""
    os.makedirs(directory, exist_ok=True)
    paths = []
    for i, oscs in enumerate(materials):
        path = os.path.join(directory, f"material_{i:04d}.json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(material_doc(i, oscs), fh)
        paths.append(path)
    return paths


# --- one request through the public entry points ----------------------------------

class Runner:
    """Executes request specs of one workload; returns (output, n_ops).

    A typed physics error is returned as the output, not raised, so the
    gate can count it; anything else is a broken benchmark and propagates.
    """

    def __init__(self, workload, ref, material_paths=None):
        import polshift.cli
        import polshift.errors
        self.cli = polshift.cli
        self.physics_error = polshift.errors.PhysicsError
        self.workload = workload
        self.ref = ref
        self.material_paths = material_paths

    def _config(self, z_values, T_values, green_mode="nonretarded"):
        return self.cli.RunConfig(
            material=MATERIAL, atom=ATOM, upper=UPPER, lower=LOWER,
            z_values=tuple(z_values), T_values=tuple(T_values),
            green_mode=green_mode)

    def inputs(self, spec):
        """(z, T) of a point request."""
        if self.workload == "cold_points":
            s, k = spec["T"]
            return spec["z"], self.ref["cold_points"]["T"][s][k]
        return tuple(self.ref["retarded_points"]["points"][spec["i"]])

    def scan_T(self, spec):
        pool = self.ref["scan"]["T"]
        return [pool[s][k] for s, k in spec["T"]]

    def __call__(self, spec):
        w = self.workload
        try:
            if w == "scan":
                rows = self.cli.run_scan(
                    self._config(spec["z"], self.scan_T(spec)))
                return rows, len(rows)
            if w == "modes_sweep":
                return self.cli.modes_report(
                    self.material_paths[spec["i"]]), 1
            z, T = self.inputs(spec)
            mode = "full" if w == "retarded_points" else "nonretarded"
            return self.cli.run_point(self._config((z,), (T,), mode)), 1
        except self.physics_error as exc:
            return exc, (len(spec["z"]) * len(spec["T"]) if w == "scan"
                         else 1)
