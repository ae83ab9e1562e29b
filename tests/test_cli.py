"""Batch CLI: point/scan/modes subcommands, formats, and exit codes."""

import contextlib
import csv
import io
import json
import math
import os
import pathlib
import subprocess
import sys
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from polshift import cli
from polshift.potentials import ENERGY_LINES

FIX = "tests/fixtures"
POINT_ARGS = [
    "point",
    "--material", f"{FIX}/material_broad.json",
    "--atom", f"{FIX}/rb_rydberg.json",
    "--upper", "27S1/2", "--lower", "26S1/2",
    "--z", "1e-6", "--T", "500",
]


ROOT = pathlib.Path(__file__).resolve().parent.parent


def run_cli(*args, env=None, cwd=ROOT):
    """Run ``cli.main`` in-process in cwd, as ``python -m polshift.cli``.

    SHIFT_MATSUBARA_CUTOFF is set only when env sets it, and argparse's
    SystemExit becomes the return code.
    """
    out, err = io.StringIO(), io.StringIO()
    with mock.patch.dict(os.environ), contextlib.chdir(cwd), \
            contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        os.environ.pop("SHIFT_MATSUBARA_CUTOFF", None)
        os.environ.update(env or {})
        try:
            code = cli.main(list(args))
        except SystemExit as exc:
            code = exc.code
    return subprocess.CompletedProcess(args, code, out.getvalue(),
                                       err.getvalue())


def parse_csv(text):
    rows = list(csv.reader(io.StringIO(text)))
    header, data = rows[0], rows[1:]
    return header, data


SCAN_HEADER = ["z_m", "T_K", "nr_matsubara_s^-1", "nr_resonant_photon_s^-1",
               "u_eff_s^-1", "thermal_factor", "r_shift_s^-1", "total_s^-1",
               "error"]


# ---------------------------------------------------------------------------
# point
# ---------------------------------------------------------------------------


def test_point_json_and_csv_agree():
    js = run_cli(*POINT_ARGS, "--format", "json")
    cs = run_cli(*POINT_ARGS, "--format", "csv")
    assert js.returncode == 0 and cs.returncode == 0
    doc = json.loads(js.stdout)
    assert doc["schema_version"] == 1
    assert doc["command"] == "point"
    header, rows = parse_csv(cs.stdout)
    assert header == SCAN_HEADER
    assert len(rows) == 1
    row = dict(zip(header, rows[0]))
    rep = doc["report"]
    assert float(row["total_s^-1"]) == rep["total"]["s^-1"]
    assert float(row["nr_matsubara_s^-1"]) == rep["nr_matsubara"]["s^-1"]
    assert float(row["u_eff_s^-1"]) == rep["u_eff"]["s^-1"]
    assert float(row["thermal_factor"]) == rep["thermal_factor"]
    assert row["error"] == ""


def test_point_deterministic_output():
    a = run_cli(*POINT_ARGS, "--format", "json")
    b = run_cli(*POINT_ARGS, "--format", "json")
    assert a.stdout == b.stdout
    assert a.returncode == b.returncode == 0


def test_point_report_values_match_library():
    import polshift as ps
    js = run_cli(*POINT_ARGS, "--format", "json")
    doc = json.loads(js.stdout)
    rep = ps.total_shift(
        ps.load_atom(f"{FIX}/rb_rydberg.json"), "27S1/2", "26S1/2",
        ps.load_material(f"{FIX}/material_broad.json"),
        ps.Environment(z=1e-6, T=500.0))
    assert doc["report"]["total"]["s^-1"] == rep.total / ps.units.HBAR
    assert doc["report"]["meta"]["n_modes"] == 2


@pytest.mark.parametrize("closed_form", [False, True])
def test_point_and_one_row_scan_agree_bit_for_bit(closed_form):
    from polshift.units import HBAR
    cfg = cli.RunConfig(
        material=str(ROOT / FIX / "material_broad.json"),
        atom=str(ROOT / FIX / "rb_rydberg.json"),
        upper="27S1/2", lower="26S1/2", z_values=(1e-6,), T_values=(500.0,),
        closed_form=closed_form)
    rep = cli.run_point(cfg)
    [row] = cli.run_scan(cfg)
    assert row["error"] == ""
    assert row["thermal_factor"] == rep.thermal_factor
    for line in ("nr_matsubara", "nr_resonant_photon", "u_eff", "r_shift",
                 "total"):
        assert row[f"{line}_s^-1"] == getattr(rep, line) / HBAR


def test_point_meta_names_the_requested_distance():
    for z in ("1e-15", "3e-7", "1e15"):
        args = [a if a != "1e-6" else z for a in POINT_ARGS]
        doc = json.loads(run_cli(*args, "--format", "json").stdout)
        assert doc["report"]["meta"]["z"] == float(z)
        assert doc["inputs"]["z"] == float(z)


def test_point_green_full_runs():
    r = run_cli(*POINT_ARGS, "--green", "full", "--format", "json")
    assert r.returncode == 0
    doc = json.loads(r.stdout)
    assert doc["report"]["meta"]["green_mode"] == "full"
    assert math.isfinite(doc["report"]["total"]["s^-1"])


def test_point_closed_form_flag():
    r = run_cli(*POINT_ARGS, "--closed-form", "--format", "json")
    assert r.returncode == 0
    base = json.loads(run_cli(*POINT_ARGS, "--format", "json").stdout)
    closed = json.loads(r.stdout)
    a = closed["report"]["r_shift"]["s^-1"]
    b = base["report"]["r_shift"]["s^-1"]
    assert a == pytest.approx(b, rel=0.5)
    assert a != b


def test_point_output_file(tmp_path):
    out = tmp_path / "report.json"
    r = run_cli(*POINT_ARGS, "--format", "json", "--output", str(out))
    assert r.returncode == 0
    doc = json.loads(out.read_text())
    assert doc["inputs"]["upper"] == "27S1/2"


#: (upper, lower, what stderr names): unknown labels and equal labels
BAD_LABELS = [("XYZ", "26S1/2", "XYZ"), ("27S1/2", "XYZ", "XYZ"),
              ("27S1/2", "27S1/2", "must differ")]


def assert_bad_labels_are_config_errors(command, tmp_path):
    # the labels are checked before the modes are found, so neither a
    # material without modes nor an off-resonant pair decides the exit code
    for material in (f"{FIX}/material_broad.json", _undamped_pair(tmp_path)):
        for upper, lower, named in BAD_LABELS:
            r = run_cli(command, "--material", str(material),
                        "--atom", f"{FIX}/rb_rydberg.json",
                        "--upper", upper, "--lower", lower,
                        "--z", "1e-6", "--T", "500")
            assert r.returncode == 2, (material, upper, lower, r.stderr)
            assert f"error in {command}" in r.stderr
            assert named in r.stderr
            assert r.stdout == ""


def test_point_unknown_state_is_config_error(tmp_path):
    assert_bad_labels_are_config_errors("point", tmp_path)


def test_point_missing_material_file_is_config_error(tmp_path):
    r = run_cli("point", "--material", str(tmp_path / "nope.json"),
                "--atom", f"{FIX}/rb_rydberg.json",
                "--upper", "27S1/2", "--lower", "26S1/2",
                "--z", "1e-6", "--T", "500")
    assert r.returncode == 2


def test_point_malformed_material_reports_field_path(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({
        "name": "x",
        "oscillators": [{"omega_T": 73.0, "unit": "cm^-1"}],
    }))
    r = run_cli("point", "--material", str(bad),
                "--atom", f"{FIX}/rb_rydberg.json",
                "--upper", "27S1/2", "--lower", "26S1/2",
                "--z", "1e-6", "--T", "500")
    assert r.returncode == 2
    assert "oscillators[0].omega_P" in r.stderr


def _undamped_pair(tmp_path):
    """A material file with no damping, hence no surface mode."""
    undamped = tmp_path / "undamped.json"
    undamped.write_text(json.dumps({
        "name": "undamped pair",
        "oscillators": [
            {"omega_P": 53.4, "omega_T": 65.0, "gamma": 0.0, "unit": "cm^-1"},
            {"omega_P": 33.3, "omega_T": 85.0, "gamma": 0.0, "unit": "cm^-1"},
        ],
    }))
    return undamped


def test_point_lossless_material_is_physics_error(tmp_path):
    r = run_cli("point", "--material", str(_undamped_pair(tmp_path)),
                "--atom", f"{FIX}/rb_rydberg.json",
                "--upper", "27S1/2", "--lower", "26S1/2",
                "--z", "1e-6", "--T", "500")
    assert r.returncode == 3
    assert "NoModeFound" in r.stderr


def test_point_convergence_failure_via_env():
    r = run_cli(*POINT_ARGS, env={"SHIFT_MATSUBARA_CUTOFF": "3"})
    assert r.returncode == 3
    assert "ConvergenceFailure" in r.stderr


def test_point_bad_env_cutoff_is_config_error():
    for value in ("abc", "0", "-5"):
        r = run_cli(*POINT_ARGS, env={"SHIFT_MATSUBARA_CUTOFF": value})
        assert r.returncode == 2, value


@pytest.mark.parametrize("flag, value", [
    ("--T", "inf"), ("--T", "nan"), ("--T", "1e200"), ("--T", "1e300"),
    ("--z", "inf"), ("--z", "nan"),
    ("--z", "1e120"), ("--z", "1e60"), ("--z", "1e-100"), ("--z", "1e-120"),
    ("--resonance-tol", "nan"), ("--resonance-tol", "-1"),
])
def test_point_non_finite_or_negative_input_is_config_error(flag, value):
    # The later flag overrides the one in POINT_ARGS.
    r = run_cli(*POINT_ARGS, flag, value)
    assert r.returncode == 2, r.stderr
    assert "error in point" in r.stderr


# ---------------------------------------------------------------------------
# scan
# ---------------------------------------------------------------------------


def test_scan_z_decade_slope():
    r = run_cli("scan",
                "--material", f"{FIX}/material_broad.json",
                "--atom", f"{FIX}/rb_rydberg.json",
                "--upper", "27S1/2", "--lower", "26S1/2",
                "--z-range", "1e-7:1e-6:8log", "--T", "500",
                "--format", "csv")
    assert r.returncode == 0
    header, rows = parse_csv(r.stdout)
    assert header == SCAN_HEADER
    assert len(rows) == 8
    assert all(row[-1] == "" for row in rows)
    z = np.array([float(row[0]) for row in rows])
    tot = np.array([abs(float(row[7])) for row in rows])
    slope = np.polyfit(np.log(z), np.log(tot), 1)[0]
    assert slope == pytest.approx(-3.0, abs=1e-3)


def test_scan_temperature_monotone_resonant():
    r = run_cli("scan",
                "--material", f"{FIX}/material_broad.json",
                "--atom", f"{FIX}/rb_rydberg.json",
                "--upper", "27S1/2", "--lower", "26S1/2",
                "--z", "1e-6", "--T", "350,500,600",
                "--format", "csv")
    assert r.returncode == 0
    header, rows = parse_csv(r.stdout)
    assert [float(row[1]) for row in rows] == [350.0, 500.0, 600.0]
    r_shift = [abs(float(row[6])) for row in rows]
    assert r_shift[0] <= r_shift[1] <= r_shift[2]


def test_scan_json_round_trip(tmp_path):
    out = tmp_path / "scan.json"
    r = run_cli("scan",
                "--material", f"{FIX}/material_broad.json",
                "--atom", f"{FIX}/rb_rydberg.json",
                "--upper", "27S1/2", "--lower", "26S1/2",
                "--z", "1e-6,2e-6", "--T", "500",
                "--format", "json", "--output", str(out))
    assert r.returncode == 0
    doc = json.loads(out.read_text())
    assert doc["schema_version"] == 1
    assert doc["command"] == "scan"
    assert doc["columns"] == SCAN_HEADER
    assert len(doc["rows"]) == 2
    by_col = doc["rows"][0]
    assert by_col["z_m"] == 1e-6
    assert by_col["error"] == ""


def test_scan_csv_round_trips_floats():
    r = run_cli("scan",
                "--material", f"{FIX}/material_broad.json",
                "--atom", f"{FIX}/rb_rydberg.json",
                "--upper", "27S1/2", "--lower", "26S1/2",
                "--z", "1e-6", "--T", "500",
                "--format", "csv")
    j = run_cli("scan",
                "--material", f"{FIX}/material_broad.json",
                "--atom", f"{FIX}/rb_rydberg.json",
                "--upper", "27S1/2", "--lower", "26S1/2",
                "--z", "1e-6", "--T", "500",
                "--format", "json")
    header, rows = parse_csv(r.stdout)
    doc = json.loads(j.stdout)
    for name, text in zip(header, rows[0]):
        want = doc["rows"][0][name]
        if isinstance(want, float):
            assert float(text) == want, name


def test_scan_unknown_state_is_config_error(tmp_path):
    assert_bad_labels_are_config_errors("scan", tmp_path)


def test_scan_empty_range_is_config_error():
    r = run_cli("scan",
                "--material", f"{FIX}/material_broad.json",
                "--atom", f"{FIX}/rb_rydberg.json",
                "--upper", "27S1/2", "--lower", "26S1/2",
                "--z-range", "1e-7:1e-6:0log", "--T", "500")
    assert r.returncode == 2
    assert "error in scan" in r.stderr


def test_scan_requires_some_z():
    r = run_cli("scan",
                "--material", f"{FIX}/material_broad.json",
                "--atom", f"{FIX}/rb_rydberg.json",
                "--upper", "27S1/2", "--lower", "26S1/2",
                "--T", "500")
    assert r.returncode == 2


def test_scan_nonpositive_T_rejected_in_config():
    r = run_cli("scan",
                "--material", f"{FIX}/material_broad.json",
                "--atom", f"{FIX}/rb_rydberg.json",
                "--upper", "27S1/2", "--lower", "26S1/2",
                "--z", "1e-6", "--T", "0,500")
    assert r.returncode == 2
    assert "error in scan" in r.stderr


def test_scan_lossless_material_fails_the_whole_request(tmp_path):
    # the modes are found once per request, so without them no row is made
    out = tmp_path / "scan.csv"
    r = run_cli("scan", "--material", str(_undamped_pair(tmp_path)),
                "--atom", f"{FIX}/rb_rydberg.json",
                "--upper", "27S1/2", "--lower", "26S1/2",
                "--z", "1e-6,2e-6", "--T", "350,500", "--format", "csv",
                "--output", str(out))
    assert r.returncode == 3
    assert "NoModeFound" in r.stderr
    assert r.stdout == "" and not out.exists()


def test_scan_physics_failure_writes_error_rows():
    # A too-small Matsubara budget fails each point; the scan still emits
    # one row per point with the failure recorded, and exits 0.
    r = run_cli("scan",
                "--material", f"{FIX}/material_broad.json",
                "--atom", f"{FIX}/rb_rydberg.json",
                "--upper", "27S1/2", "--lower", "26S1/2",
                "--z", "1e-6", "--T", "350,500",
                "--format", "csv",
                env={"SHIFT_MATSUBARA_CUTOFF": "3"})
    assert r.returncode == 0
    header, rows = parse_csv(r.stdout)
    assert len(rows) == 2
    for row in rows:
        cells = dict(zip(header, row))
        assert "ConvergenceFailure" in cells["error"]
        assert cells["total_s^-1"] == ""


def _scan_config(z_values, T_values, **kw):
    return cli.RunConfig(
        material=str(ROOT / FIX / "material_broad.json"),
        atom=str(ROOT / FIX / "rb_rydberg.json"),
        upper="27S1/2", lower="26S1/2", z_values=z_values, T_values=T_values,
        **kw)


@pytest.mark.parametrize("closed_form", [False, True])
def test_scan_rows_equal_point_and_library_bit_for_bit(closed_form):
    """Every row of a 3 z x 2 T scan is the point and the library
    total_shift at its (z, T), bit for bit, whatever other z it shares its
    request with."""
    import polshift as ps
    from polshift.units import HBAR
    zs, Ts = (1e-7, 1.3e-6, 2e-5), (350.0, 500.0)
    rows = cli.run_scan(_scan_config(zs, Ts, closed_form=closed_form))
    atom = ps.load_atom(ROOT / FIX / "rb_rydberg.json")
    m = ps.load_material(ROOT / FIX / "material_broad.json")
    assert [(r["z_m"], r["T_K"]) for r in rows] == \
        [(z, T) for z in zs for T in Ts]
    for row in rows:
        z, T = row["z_m"], row["T_K"]
        assert row["error"] == ""
        point = cli.run_point(_scan_config((z,), (T,),
                                           closed_form=closed_form))
        lib = ps.total_shift(atom, "27S1/2", "26S1/2", m,
                             ps.Environment(z=z, T=T),
                             use_closed_form=closed_form)
        for rep in (point, lib):
            assert rep.meta["z"] == z
            assert row["thermal_factor"] == rep.thermal_factor
            for line in ENERGY_LINES:
                assert row[f"{line}_s^-1"] == getattr(rep, line) / HBAR


def _counting_reports_at(monkeypatch, compute):
    """Replace cli.reports_at by a wrapper that records the (z, Ts) of each
    call; when compute is false it gives every T a ConvergenceFailure
    instead of evaluating."""
    import polshift as ps
    calls = []
    real = cli.reports_at

    def counted(terms, Ts, *args):
        calls.append((terms.z, tuple(Ts)))
        if not compute:
            return [ps.ConvergenceFailure("not evaluated") for _ in Ts]
        return real(terms, Ts, *args)

    monkeypatch.setattr(cli, "reports_at", counted)
    return calls


def test_nonretarded_scan_evaluates_each_distinct_T_once(monkeypatch):
    from polshift.potentials import UNIT_Z
    calls = _counting_reports_at(monkeypatch, compute=True)
    rows = cli.run_scan(_scan_config((1e-7, 1e-6, 1e-5),
                                     (500.0, 350.0, 500.0)))
    assert calls == [(UNIT_Z, (500.0, 350.0))]
    assert len(rows) == 9 and all(r["error"] == "" for r in rows)
    # a repeated T gives the same row at each z
    for i in range(0, 9, 3):
        assert rows[i] == rows[i + 2]


def test_full_route_scan_evaluates_every_pair(monkeypatch):
    """The full route makes one reports_at per z, over every distinct T,
    and a repeated T fills its rows from that one report."""
    calls = _counting_reports_at(monkeypatch, compute=False)
    rows = cli.run_scan(_scan_config((1e-7, 1e-6), (500.0, 350.0, 500.0),
                                     green_mode="full"))
    assert calls == [(z, (500.0, 350.0)) for z in (1e-7, 1e-6)]
    assert [(r["z_m"], r["T_K"]) for r in rows] == \
        [(z, T) for z in (1e-7, 1e-6) for T in (500.0, 350.0, 500.0)]
    assert all(r["error"] == "ConvergenceFailure: not evaluated"
               for r in rows)


def _counting_greens(monkeypatch):
    """Wrap potentials.green_nonretarded and green_full; return the list of
    (route, part) of every call."""
    from polshift import potentials
    calls = []
    nonretarded, full = potentials.green_nonretarded, potentials.green_full

    def counted_nonretarded(m, z, omega):
        calls.append(("nonretarded", None))
        return nonretarded(m, z, omega)

    def counted_full(m, z, omega, *, part=None):
        calls.append(("full", part))
        return full(m, z, omega, part=part)

    monkeypatch.setattr(potentials, "green_nonretarded", counted_nonretarded)
    monkeypatch.setattr(potentials, "green_full", counted_full)
    return calls


def test_nonretarded_scan_reads_each_green_tensor_once(monkeypatch):
    """The photon line's 10 transitions of 27S and u_eff's 2 mode centres
    read G once per request, at UNIT_Z, whatever its z and T."""
    calls = _counting_greens(monkeypatch)
    rows = cli.run_scan(_scan_config((1e-7, 1e-6, 1e-5),
                                     (50.0, 120.0, 300.0, 500.0, 600.0)))
    assert len(rows) == 15 and all(r["error"] == "" for r in rows)
    assert calls == [("nonretarded", None)] * 12


def test_full_route_scan_reads_each_green_tensor_once_per_z(monkeypatch):
    """On the full route the T-free quadratures run once per z: Re G at the
    10 transition frequencies, then Im G at the 2 mode centres."""
    calls = _counting_greens(monkeypatch)
    rows = cli.run_scan(_scan_config((1e-6,), (350.0, 500.0, 600.0),
                                     green_mode="full"))
    assert len(rows) == 3 and all(r["error"] == "" for r in rows)
    assert calls == [("full", "real")] * 10 + [("full", "imag")] * 2


def test_scan_row_reports_the_matsubara_error_before_the_resonant_one():
    """With --resonance-tol 0 the resonant line fails at every T, and the
    T-free half holds its OffResonance once per request.  At 0.1 K the
    Matsubara line fails first, so that row reports ConvergenceFailure, as
    the library does at each (z, T)."""
    import polshift as ps
    zs, Ts = (1e-6, 2e-6), (0.1, 300.0)
    rows = cli.run_scan(_scan_config(zs, Ts, resonance_tol=0.0))
    atom = ps.load_atom(ROOT / FIX / "rb_rydberg.json")
    m = ps.load_material(ROOT / FIX / "material_broad.json")
    assert [r["error"].split(":")[0] for r in rows] == \
        ["ConvergenceFailure", "OffResonance"] * 2
    for row in rows:
        with pytest.raises(ps.PhysicsError) as err:
            ps.total_shift(atom, "27S1/2", "26S1/2", m,
                           ps.Environment(z=row["z_m"], T=row["T_K"]),
                           resonance_tol=0.0)
        assert row["error"] == f"{type(err.value).__name__}: {err.value}"


_SCAN_T = st.sampled_from((50.0, 120.0, 350.0, 500.0)) \
    | st.floats(40.0, 700.0)


@settings(max_examples=20, deadline=None)
@given(zs=st.lists(st.floats(1e-8, 1e-4), min_size=1, max_size=3),
       Ts=st.lists(_SCAN_T, min_size=1, max_size=4),
       closed_form=st.booleans())
def test_scan_rows_are_the_library_rows_bit_for_bit(zs, Ts, closed_form):
    """Every nonretarded scan row, built from the unit report of its T,
    is the row of the library total_shift at its (z, T), whatever the
    order and the repeats of the T list; repr tells 0.0 from -0.0."""
    import polshift as ps
    rows = cli.run_scan(_scan_config(tuple(zs), tuple(Ts),
                                     closed_form=closed_form))
    atom = ps.load_atom(ROOT / FIX / "rb_rydberg.json")
    m = ps.load_material(ROOT / FIX / "material_broad.json")
    want = [cli._rows((z,), cli._OWN_DISTANCE, (T,), (ps.total_shift(
        atom, "27S1/2", "26S1/2", m, ps.Environment(z=z, T=T),
        use_closed_form=closed_form),))[0] for z in zs for T in Ts]
    assert [json.dumps(r, sort_keys=True) for r in rows] == \
        [json.dumps(r, sort_keys=True) for r in want]


def test_scan_cutoff_error_is_the_same_at_every_z():
    r = run_cli("scan",
                "--material", f"{FIX}/material_broad.json",
                "--atom", f"{FIX}/rb_rydberg.json",
                "--upper", "27S1/2", "--lower", "26S1/2",
                "--z", "1e-15,1e-6,2e-6,1e15", "--T", "300,500",
                "--format", "csv",
                env={"SHIFT_MATSUBARA_CUTOFF": "3"})
    assert r.returncode == 0
    header, rows = parse_csv(r.stdout)
    errors = {}
    for row in rows:
        cells = dict(zip(header, row))
        assert cells["error"].startswith("ConvergenceFailure: ")
        errors.setdefault(cells["T_K"], set()).add(cells["error"])
    assert sorted(errors) == ["300.0", "500.0"]
    assert all(len(texts) == 1 for texts in errors.values())


def test_report_values_are_python_floats():
    """Numbers reach the CSV through repr, where a numpy scalar would print
    as np.float64(...): every numeric cell is a Python float."""
    for closed_form in (False, True):
        cfg = _scan_config((1e-7, 1e-6), (350.0, 500.0),
                           closed_form=closed_form)
        for row in cli.run_scan(cfg):
            for col in SCAN_HEADER[:-1]:
                assert type(row[col]) is float, (col, row[col])
        rep = cli.run_point(_scan_config((1e-6,), (500.0,),
                                         closed_form=closed_form))
        for line in ENERGY_LINES + ("thermal_factor",):
            assert type(getattr(rep, line)) is float, line


# ---------------------------------------------------------------------------
# modes
# ---------------------------------------------------------------------------


def test_modes_single_oscillator():
    r = run_cli("modes", "--material", f"{FIX}/material_toy.json",
                "--format", "json")
    assert r.returncode == 0
    doc = json.loads(r.stdout)
    assert doc["schema_version"] == 1
    assert doc["command"] == "modes"
    assert len(doc["modes"]) == 1
    row = doc["modes"][0]
    surface = math.sqrt(1e13**2 + 8e12**2 / 2.0)
    assert row["omega_center_rad_s"] == pytest.approx(surface, rel=1e-3)
    assert row["narrow"] is True


def test_modes_two_oscillator_diagnostics():
    r = run_cli("modes", "--material", f"{FIX}/material_broad.json",
                "--format", "csv")
    assert r.returncode == 0
    header, rows = parse_csv(r.stdout)
    assert len(rows) == 2
    lo = dict(zip(header, rows[0]))
    hi = dict(zip(header, rows[1]))
    assert float(lo["omega_center_cm^-1"]) == pytest.approx(73.0, abs=0.5)
    assert float(hi["omega_center_cm^-1"]) == pytest.approx(90.0, abs=0.5)
    assert lo["narrow"] == "true" and hi["narrow"] == "true"
    # Both peaks sit near 2/(0.06) ~ 5: nowhere near the >100 diagnostic.
    assert float(lo["im_rp_peak"]) < 100.0
    assert lo["strong_coupling"] == "false"
    assert hi["strong_coupling"] == "false"


def test_modes_undamped_is_physics_error(tmp_path):
    undamped = tmp_path / "undamped.json"
    undamped.write_text(json.dumps({
        "name": "undamped",
        "oscillators": [
            {"omega_P": 8e12, "omega_T": 1e13, "gamma": 0.0, "unit": "rad/s"},
        ],
    }))
    r = run_cli("modes", "--material", str(undamped))
    assert r.returncode == 3
    assert "NoModeFound" in r.stderr


@pytest.mark.parametrize("scale", [1e200, 1e-200])
def test_modes_oscillator_outside_float_range_is_config_error(tmp_path,
                                                              scale):
    """omega_T**2 overflows at 1e200 rad/s (an uncaught OverflowError) and
    underflows at 1e-200 rad/s (a PoleHit calling the damped oscillator
    undamped); both are input errors."""
    extreme = tmp_path / "extreme.json"
    extreme.write_text(json.dumps({
        "name": "extreme",
        "oscillators": [{"omega_P": scale, "omega_T": scale,
                         "gamma": 0.01 * scale, "unit": "rad/s"}],
    }))
    r = run_cli("modes", "--material", str(extreme))
    assert r.returncode == 2, r.stderr
    assert "error in modes" in r.stderr
    assert "(at 'oscillators[0]')" in r.stderr


def test_modes_malformed_file_reports_path(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    r = run_cli("modes", "--material", str(bad))
    assert r.returncode == 2
    assert "error in modes" in r.stderr


# ---------------------------------------------------------------------------
# process boundary
# ---------------------------------------------------------------------------


def test_module_entry_point_exit_codes():
    """``python -m polshift.cli`` in its own process: the README point exits
    0 with an empty stderr, a negative T 2 and a point at 0.1 K 3."""
    env = {k: v for k, v in os.environ.items()
           if k != "SHIFT_MATSUBARA_CUTOFF"}
    env["PYTHONPATH"] = str(ROOT / "src")

    def run(*extra):
        return subprocess.run(
            [sys.executable, "-m", "polshift.cli", *POINT_ARGS, *extra],
            capture_output=True, text=True, cwd=ROOT, env=env, timeout=300)

    ok = run("--format", "json")
    assert ok.returncode == 0 and ok.stderr == ""
    assert json.loads(ok.stdout)["command"] == "point"
    assert run("--T", "-1").returncode == 2
    cold = run("--T", "0.1")
    assert cold.returncode == 3
    assert "ConvergenceFailure" in cold.stderr



#: runs cli.main on the argv in sys.argv[1] (JSON), then prints its exit
#: code and the sorted scipy modules left in sys.modules
SCIPY_PROBE = """
import contextlib, io, json, sys
from polshift import cli
with contextlib.redirect_stdout(io.StringIO()):
    code = cli.main(json.loads(sys.argv[1]))
print(json.dumps([code, sorted(k for k in sys.modules
                               if k == "scipy" or k.startswith("scipy."))]))
"""


def run_fresh(args):
    """(exit code, scipy modules loaded) of ``cli.main(args)`` in a fresh
    interpreter."""
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    env.pop("SHIFT_MATSUBARA_CUTOFF", None)
    proc = subprocess.run(
        [sys.executable, "-c", SCIPY_PROBE, json.dumps(args)],
        capture_output=True, text=True, cwd=ROOT, env=env, timeout=300)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout)


SCAN_ARGS = ["scan", *POINT_ARGS[1:-4], "--z-range", "1e-7:1e-5:5log",
             "--T", "350,500"]


@pytest.mark.parametrize("args", [
    POINT_ARGS,
    SCAN_ARGS,
    ["modes", "--material", f"{FIX}/material_broad.json"],
    [*POINT_ARGS, "--green", "full"],
    [*SCAN_ARGS, "--green", "full"],
], ids=["point", "scan", "modes", "point-green-full", "scan-green-full"])
def test_nonretarded_commands_load_no_scipy(args):
    """A point, a scan and a modes run exit 0 with no scipy module loaded,
    on either Green route: the constants are literals, the mode finder's
    solvers live in polshift.material, and the full route's k_rho
    quadrature is polshift.quadpack."""
    assert run_fresh(args) == [0, []]
