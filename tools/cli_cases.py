"""The CLI runs that ``tools/drift.py`` compares between two checkouts.

``RUNS`` is the fixed table of (name, argv, environment overrides) on the
fixtures in ``tests/fixtures``; ``runs(workdir)`` adds ten runs on inputs it
writes into workdir: a lossless pair (a point and a scan), four
oscillators, an atom whose alpha(i xi) changes sign (a scan), an atom just
above a surface mode (a point and a scan), an atom between two surface
modes 1.7e-5 apart (a point), a nearly critically damped oscillator (a
scan), an atom whose dipole sits at the smallest transition frequency
AtomSpec accepts (a point) and an atom whose photon line reads the full
route where 0 < Re eps < 1 (a point).  Each argv omits ``--output``.
"""

import json
import math
import os

FIXTURES = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                        os.pardir, "tests", "fixtures")
MATERIALS = ("material_broad", "material_narrow", "material_toy",
             "material_ldos")


def _fixture(name):
    return os.path.normpath(os.path.join(FIXTURES, name + ".json"))


def _shift(command, *args, material="material_broad"):
    return [command, "--material", _fixture(material),
            "--atom", _fixture("rb_rydberg"),
            "--upper", "27S1/2", "--lower", "26S1/2", *args]


#: (name, argv, environment overrides)
RUNS = (
    ("point", _shift("point", "--z", "1e-6", "--T", "500"), {}),
    ("point --format csv",
     _shift("point", "--z", "1e-6", "--T", "500", "--format", "csv"), {}),
    ("point --closed-form",
     _shift("point", "--z", "1e-6", "--T", "500", "--closed-form"), {}),
    ("point --green full",
     _shift("point", "--z", "1e-6", "--T", "500", "--green", "full"), {}),
    ("point --green full narrow",
     _shift("point", "--z", "5e-6", "--T", "400", "--green", "full",
            material="material_narrow"), {}),
    # material_broad at 20 um: k0 z of about 0.9 and 1.1 at the two mode
    # centres, so the propagating side of the k_rho integral carries weight
    ("point --green full 20 um",
     _shift("point", "--z", "2e-5", "--T", "500", "--green", "full"), {}),
    # at 50 um the scattered Tr Im G is negative at both mode centres, so
    # the resonant line is skipped: meta's resonant_skipped prints the
    # NoModeFound with both values, and the run exits 0
    ("point --green full 50 um",
     _shift("point", "--z", "5e-5", "--T", "500", "--green", "full"), {}),
    # the small-a regime of the imaginary axis, which no retarded_points
    # pool point reaches: a = 2 xi_j z/c is about 0.016 j at 1 um and 3 K,
    # so the Fresnel transition lies inside the rule's Legendre panel for
    # the first 60 or so of the sum's 433 terms
    ("point --green full 3 K",
     _shift("point", "--z", "1e-6", "--T", "3", "--green", "full"), {}),
    # the photon line reads G once per transition, on other materials too
    ("point narrow",
     _shift("point", "--z", "1e-6", "--T", "500",
            material="material_narrow"), {}),
    ("point toy",
     _shift("point", "--z", "1e-6", "--T", "500", material="material_toy"),
     {}),
    ("point 0.1 K", _shift("point", "--z", "1e-6", "--T", "0.1"), {}),
    # a zero window: the T-free half skips the resonant line for
    # OffResonance, and the run exits 0 with both nonresonant lines
    ("point --resonance-tol 0",
     _shift("point", "--z", "1e-6", "--T", "500", "--resonance-tol", "0"),
     {}),
    # low T, where the closed-form tail stands for long Matsubara sums:
    # about 16000 and 18000 terms (27S and 26S) at 0.35 K, 11000 to 12600
    # at 0.5 K and 520 to 620 at 8 K
    ("point 0.35 K", _shift("point", "--z", "1e-6", "--T", "0.35"), {}),
    ("scan 1 um x 0.5,2,8 K",
     _shift("scan", "--z", "1e-6", "--T", "0.5,2,8"), {}),
    ("scan 25 z x 500 K",
     _shift("scan", "--z-range", "1e-7:1e-5:25log", "--T", "500",
            "--format", "csv"), {}),
    # far below the default cutoff's reach: the rows at 1e-16, 1e-12 and
    # 1e-8 K fail with ConvergenceFailure, as the term-by-term rule does
    ("scan 1 um x 1e-16,1e-12,1e-8,0.35 K",
     _shift("scan", "--z", "1e-6", "--T", "1e-16,1e-12,1e-8,0.35"), {}),
    ("scan 1 um x 350,500,600 K",
     _shift("scan", "--z", "1e-6", "--T", "350,500,600"), {}),
    ("scan repeated T",
     _shift("scan", "--z", "1e-7,1e-6,1e-5", "--T", "500,350,500",
            "--format", "csv"), {}),
    ("scan --green full",
     _shift("scan", "--z", "1e-6,2e-6", "--T", "500", "--green", "full",
            "--format", "csv"), {}),
    ("scan cutoff 3",
     _shift("scan", "--z", "1e-6,2e-6", "--T", "300,500", "--format", "csv"),
     {"SHIFT_MATSUBARA_CUTOFF": "3"}),
    ("scan cutoff 3 --format json",
     _shift("scan", "--z", "1e-6,2e-6", "--T", "300,500", "--format", "json"),
     {"SHIFT_MATSUBARA_CUTOFF": "3"}),
    ("scan --closed-form",
     _shift("scan", "--z", "1e-6", "--T", "350,500,600", "--closed-form"),
     {}),
    # the same skip at every row: r = 0 and an empty error column
    ("scan --resonance-tol 0",
     _shift("scan", "--z", "1e-6", "--T", "350,500", "--resonance-tol", "0",
            "--format", "csv"), {}),
    # the T-free half of a full-route scan is evaluated once per z
    ("scan --green full 2 z x 3 T",
     _shift("scan", "--z", "1e-6,3e-6", "--T", "350,500,600", "--green",
            "full", "--format", "csv"), {}),
    # low T on the full route: the sums of 3, 10 and 30 K stop at j = 433,
    # 117 and 34, so the Matsubara passes past the head hold one to three
    # rows, each pass one evaluation of the imaginary-axis rule
    ("scan --green full 1 um x 3,10,30 K",
     _shift("scan", "--z", "1e-6", "--T", "3,10,30", "--green", "full",
            "--format", "csv"), {}),
    # the row at 0.1 K reports the Matsubara line's ConvergenceFailure, the
    # row at 300 K the nonresonant lines, its resonant line skipped for
    # OffResonance
    ("scan 0.1,300 K res-tol 0",
     _shift("scan", "--z", "1e-6", "--T", "0.1,300", "--resonance-tol", "0",
            "--format", "csv"), {}),
    # the Matsubara lines of 8 T in one closed-form call: sums of 5 terms
    # at 600 K to about 16000 at 0.35 K, and at 0.1 K the stop rule fails
    # at the cutoff, so that T fails at every z
    ("scan 5 z x 8 T 0.1-600 K",
     _shift("scan", "--z-range", "1e-7:1e-5:5log",
            "--T", "30,0.35,600,0.1,3,120,1,8", "--format", "csv"), {}),
) + tuple((f"modes {name}", ["modes", "--material", _fixture(name)], {})
          for name in MATERIALS) + (
    ("modes material_narrow csv",
     ["modes", "--material", _fixture("material_narrow"), "--format", "csv"],
     {}),
)


#: two undamped oscillators: Im r_p has no maximum, so no surface mode
LOSSLESS = {
    "schema_version": 1,
    "name": "undamped pair",
    "oscillators": [
        {"omega_P": 53.4, "omega_T": 65.0, "gamma": 0.0, "unit": "cm^-1"},
        {"omega_P": 33.3, "omega_T": 85.0, "gamma": 0.0, "unit": "cm^-1"},
    ],
}

#: three levels whose middle one, m, has alpha(i xi) < 0 at xi = 0 and
#: > 0 for large xi (tests/conftest.py's flipping_atom): alpha changes sign
#: near 5e13 rad/s, and so do the terms of its Matsubara sums
FLIPPING = {
    "schema_version": 1,
    "name": "sign-changing alpha",
    "states": [
        {"label": "l", "energy": 0.0, "unit": "rad/s"},
        {"label": "m", "energy": 1e12, "unit": "rad/s"},
        {"label": "h", "energy": 1.01e14, "unit": "rad/s"},
    ],
    "dipoles": [
        {"from": "l", "to": "m", "magnitude": 1e-29, "unit": "C*m"},
        {"from": "m", "to": "h", "magnitude": 0.2236 * 1e-29, "unit": "C*m"},
    ],
}

#: four damped oscillators over two decades: the Re eps = -1 crossings come
#: from a degree-8 polynomial, and each is polished between cell edges
QUARTET = {
    "schema_version": 1,
    "name": "four oscillators",
    "oscillators": [
        {"omega_P": 1.5e13, "omega_T": 8.0e12, "gamma": 1.0e9,
         "unit": "rad/s"},
        {"omega_P": 2.2e13, "omega_T": 1.6e13, "gamma": 6.0e11,
         "unit": "rad/s"},
        {"omega_P": 5.0e13, "omega_T": 4.1e13, "gamma": 2.0e12,
         "unit": "rad/s"},
        {"omega_P": 3.0e14, "omega_T": 1.9e14, "gamma": 9.0e12,
         "unit": "rad/s"},
    ],
}


#: one oscillator with omega_P = omega_T = 1e13 rad/s, whose surface mode
#: sits at sqrt(1.5) 1e13 rad/s with a width of 1e9 rad/s
NEAR_MODE_MATERIAL = {
    "schema_version": 1,
    "name": "one sharp surface mode",
    "oscillators": [
        {"omega_P": 1e13, "omega_T": 1e13, "gamma": 1e9, "unit": "rad/s"},
    ],
}

#: a two-level atom 1e-6 above NEAR_MODE_MATERIAL's surface mode: a root
#: of its Matsubara summand's E lies next to +-i omega_eg, and the closed
#: form sums the two as one cluster
NEAR_MODE_ATOM = {
    "schema_version": 1,
    "name": "near the surface mode",
    "states": [
        {"label": "g", "energy": 0.0, "unit": "rad/s"},
        {"label": "e", "energy": math.sqrt(1.5) * 1e13 * (1.0 + 1e-6),
         "unit": "rad/s"},
    ],
    "dipoles": [
        {"from": "g", "to": "e", "magnitude": 1e-29, "unit": "C*m"},
    ],
}

#: NEAR_MODE_MATERIAL with a weak second oscillator 1e-5 above its
#: surface mode, which puts a root of E 1.7e-5 above BETWEEN_ATOM's line
#: and the first mode's root as far below it: the three poles are summed
#: as one cluster
BETWEEN_MODES_MATERIAL = {
    "schema_version": 1,
    "name": "two surface modes 1.7e-5 apart",
    "oscillators": [
        {"omega_P": 1e13, "omega_T": 1e13, "gamma": 1e9, "unit": "rad/s"},
        {"omega_P": 1e9, "omega_T": math.sqrt(1.5) * 1e13 * (1.0 + 1e-5),
         "gamma": 1e9, "unit": "rad/s"},
    ],
}

#: a two-level atom 5e-6 above NEAR_MODE_MATERIAL's surface mode
BETWEEN_ATOM = {
    "schema_version": 1,
    "name": "between two surface modes",
    "states": [
        {"label": "g", "energy": 0.0, "unit": "rad/s"},
        {"label": "e", "energy": math.sqrt(1.5) * 1e13 * (1.0 + 5e-6),
         "unit": "rad/s"},
    ],
    "dipoles": [
        {"from": "g", "to": "e", "magnitude": 1e-29, "unit": "C*m"},
    ],
}

#: two oscillators, the first damped 1e-8 above the gamma (5.18e13 rad/s,
#: found at 40 digits) at which E has a double root at xi = -2.46e13
#: rad/s, so two roots of E lie 2.9e-4 apart and form a cluster; the second
#: gives the mode finder its one surface mode
NEAR_CRITICAL = {
    "schema_version": 1,
    "name": "nearly critically damped",
    "oscillators": [
        {"omega_P": 4e13, "omega_T": 1e13, "gamma": 51825063262563.95,
         "unit": "rad/s"},
        {"omega_P": 5e13, "omega_T": 5e13, "gamma": 5e11, "unit": "rad/s"},
    ],
}


#: a pair of levels OMEGA_KN_MIN = 7.052011266387911e-125 rad/s apart
#: (polshift.atoms), the smallest transition frequency of a dipole, with a
#: third level for the resonant line: the photon line's Green tensor is
#: finite here at every accepted z
BOUND_ATOM = {
    "schema_version": 1,
    "name": "close pair",
    "states": [
        {"label": "g", "energy": 0.0, "unit": "rad/s"},
        {"label": "g2", "energy": 7.052011266387911e-125, "unit": "rad/s"},
        {"label": "e", "energy": 2.4e14, "unit": "rad/s"},
    ],
    "dipoles": [
        {"from": "g", "to": "e", "magnitude": 1e-29, "unit": "C*m"},
        {"from": "g", "to": "g2", "magnitude": 1e-29, "unit": "C*m"},
    ],
}


#: material_narrow's upper omega_L (Re eps = 0), found by a root search
OMEGA_L_NARROW = 18057656820870.508

#: a two-level atom at 1.5 OMEGA_L_NARROW, where material_narrow has
#: eps = 0.819 + 0.0015i: the photon line's k_dz = k0 sqrt(eps - sin^2
#: theta) has its kink at sin theta = 0.905, on the propagating side of the
#: full route's k_rho integral.  No other run reaches that: at the Rb
#: 27S1/2 photon frequencies Re eps is 1.44 to 4.64 on the four fixtures,
#: and 1.84 to 2.72 on material_broad, the benchmark's material
ABOVE_OMEGA_L_ATOM = {
    "schema_version": 1,
    "name": "above omega_L",
    "states": [
        {"label": "g", "energy": 0.0, "unit": "rad/s"},
        {"label": "e", "energy": 1.5 * OMEGA_L_NARROW, "unit": "rad/s"},
    ],
    "dipoles": [
        {"from": "g", "to": "e", "magnitude": 1e-29, "unit": "C*m"},
    ],
}


def _write(workdir, name, doc):
    path = os.path.join(workdir, name + ".json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh)
    return path


def runs(workdir):
    """RUNS, then a point and a scan on LOSSLESS (both exit 3 with
    NoModeFound before any pair is evaluated), the modes of QUARTET, a
    scan of FLIPPING, a point and a scan of NEAR_MODE_ATOM on
    NEAR_MODE_MATERIAL, a point of BETWEEN_ATOM on BETWEEN_MODES_MATERIAL,
    a scan on NEAR_CRITICAL, a point of BOUND_ATOM and a full-route point
    of ABOVE_OMEGA_L_ATOM on material_narrow, the inputs written into
    workdir."""
    lossless = _write(workdir, "lossless", LOSSLESS)
    near_critical = _write(workdir, "near_critical", NEAR_CRITICAL)
    near_mode = ["--material",
                 _write(workdir, "near_mode_material", NEAR_MODE_MATERIAL),
                 "--atom", _write(workdir, "near_mode_atom", NEAR_MODE_ATOM),
                 "--upper", "e", "--lower", "g", "--z", "1e-6"]

    def on(material, argv):
        argv[argv.index("--material") + 1] = material
        return argv

    return RUNS + (
        ("point lossless material",
         on(lossless, _shift("point", "--z", "1e-6", "--T", "500")), {}),
        ("scan lossless material",
         on(lossless, _shift("scan", "--z", "1e-6", "--T", "500")), {}),
        ("modes four oscillators",
         ["modes", "--material", _write(workdir, "quartet", QUARTET)], {}),
        # at 10.128372692288949 K alpha vanishes at xi_6, so t_6 = 0 there,
        # where the engine's first hit would stop the sum; every T takes
        # the closed form, and at 0.35 K the cutoff does not stop the sum
        ("scan sign-changing alpha",
         ["scan", "--material", _fixture("material_toy"),
          "--atom", _write(workdir, "flipping", FLIPPING),
          "--upper", "m", "--lower", "l", "--z", "1e-7,1e-6",
          "--T", "0.35,0.5,2,10.1305,10.128372692288949,30,300",
          "--format", "json"], {}),
        # the surface mode's pole and the atom's are one cluster; one
        # mode, so the resonant line is skipped, and at 0.35 K the
        # two-level sum needs more terms than the default cutoff
        ("point near a surface mode", ["point", *near_mode, "--T", "3"], {}),
        ("scan near a surface mode",
         ["scan", *near_mode, "--T", "0.35,3,30,300", "--format", "csv"],
         {}),
        ("point between two modes",
         ["point", "--material",
          _write(workdir, "between_material", BETWEEN_MODES_MATERIAL),
          "--atom", _write(workdir, "between_atom", BETWEEN_ATOM),
          "--upper", "e", "--lower", "g", "--z", "1e-6", "--T", "3"], {}),
        # Rb 27S1/2 on a pair of nearly coincident roots of E
        ("scan near critical damping",
         on(near_critical, _shift("scan", "--z", "1e-6", "--T",
                                  "0.35,3,30,300", "--format", "csv")), {}),
        ("point at OMEGA_KN_MIN",
         ["point", "--material", _fixture("material_toy"),
          "--atom", _write(workdir, "bound", BOUND_ATOM),
          "--upper", "g", "--lower", "e", "--z", "1e-6", "--T", "300"], {}),
        # k0 z = 0.90 at 10 um; the pair's detuning is 78 windows, so the
        # gate is opened to reach NoChannels, whose skip meta prints beside
        # the photon line
        ("point --green full above omega_L",
         ["point", "--material", _fixture("material_narrow"),
          "--atom", _write(workdir, "above_omega_l", ABOVE_OMEGA_L_ATOM),
          "--upper", "e", "--lower", "g", "--z", "1e-5", "--T", "500",
          "--green", "full", "--resonance-tol", "100"], {}),
    )

