"""The comparator of tools/drift.py, fed synthetic pairs of sides."""

import json
import math
import os
import sys

import pytest

import polshift as ps

sys.path.insert(0, os.path.join(os.path.dirname(__file__), os.pardir,
                                "tools"))
import drift  # noqa: E402

GATED = [name for name, _ in drift.gate.FIELDS]


class Report:
    """A stand-in ShiftReport: its repr and to_dict are all the record
    reads."""

    def __init__(self, values):
        self.values = values

    def __repr__(self):
        return f"Report({self.values!r})"

    def to_dict(self):
        return {name: v if name == "thermal_factor" else {"s^-1": v}
                for name, v in zip(GATED, self.values)}


def _mode(centre=1e13, width=1e11, narrow=True):
    return ps.PolaritonMode(omega_center=centre, linewidth=width,
                            band_lo=0.9 * centre, band_hi=1.1 * centre,
                            narrow=narrow, im_rp_peak=40.0)


def _round_trip(record):
    """The record as the parent reads it from a side's JSON line."""
    return json.loads(json.dumps(record))


REPORT = [-3.0e5, 1.5e3, -2.0e6, 0.25, -5.0e5, -8.0e5]
JSON_OUT = ('{\n  "u_eff": {\n    "s^-1": -2000000.0\n  },\n'
            '  "z": 1e-06\n}\n')
CSV_OUT = "z_m,T_K,total_s^-1\n1e-06,500.0,-0.25\n2e-06,500.0,-0.03125\n"


@pytest.mark.parametrize("record", [
    drift.cli_record(0, JSON_OUT, ""),
    drift.cli_record(3, "", "NoModeFound: no surface mode\n"),
    drift.modes_record([_mode(), _mode(3e13)]),
    drift.modes_record([]),
    drift.modes_record(ps.NoModeFound("no resolvable interior maximum")),
    drift.report_record(Report(REPORT)),
    drift.report_record(ps.OffResonance("detuned by 78 windows")),
], ids=["cli", "cli error", "modes", "no modes", "modes error", "report",
        "report error"])
def test_identical_cases_have_not_moved(record):
    assert drift.compare(record, _round_trip(record)) is None
    assert drift.summarize("set", [("a", record)],
                           [("a", _round_trip(record))]) == [
        "set: 0 of 1 moved; largest relative change 0.00e+00"]


def test_one_moved_float_gives_its_relative_change():
    width = 1e11 * (1.0 + 2.0 ** -45)
    new = drift.modes_record([_mode(), _mode(3e13, width=width)])
    old = drift.modes_record([_mode(), _mode(3e13)])
    changes = drift.compare(new, old)
    assert changes == {"omega_center": 0.0, "linewidth": abs(width - 1e11)
                       / 1e11, "band_lo": 0.0, "band_hi": 0.0,
                       "im_rp_peak": 0.0}
    assert changes["linewidth"] == pytest.approx(2.0 ** -45, rel=1e-3)
    lines = drift.summarize("modes", [("0", new)], [("0", old)])
    assert lines[0].split()[-2:] == [f"{changes['linewidth']:.2e}",
                                     "(linewidth)"]
    assert lines[-1].startswith("modes: 1 of 1 moved; largest relative "
                                f"change {changes['linewidth']:.2e}")


def test_a_moved_report_value_is_named():
    values = list(REPORT)
    values[4] *= 1.0 + 1e-14
    changes = drift.compare(drift.report_record(Report(values)),
                            drift.report_record(Report(REPORT)))
    assert max(changes, key=changes.get) == "r_shift"
    assert changes["r_shift"] == pytest.approx(1e-14, rel=1e-2)
    assert [changes[name] for name in GATED if name != "r_shift"] == [0.0] * 5


@pytest.mark.parametrize("make, output", [
    (drift.report_record, Report(REPORT)),
    (drift.modes_record, [_mode()]),
], ids=["report", "modes"])
def test_a_case_that_became_an_error_is_inf_both_ways(make, output):
    ok = make(output)
    error = make(ps.NoModeFound("no resolvable interior maximum"))
    for new, old in ((error, ok), (ok, error)):
        changes = drift.compare(new, old)
        assert changes["error"] == math.inf
        assert max(changes.values()) == math.inf


def test_a_changed_mode_count_or_narrow_flag_is_inf():
    old = drift.modes_record([_mode(), _mode(3e13)])
    assert drift.compare(drift.modes_record([_mode()]), old) == {
        "modes": math.inf, "narrow": math.inf}
    flipped = drift.modes_record([_mode(), _mode(3e13, narrow=False)])
    assert drift.compare(flipped, old) == {"narrow": math.inf}


def test_a_changed_exit_code_or_stderr_is_inf():
    old = drift.cli_record(3, "", "OffResonance: detuned\n")
    assert drift.compare(drift.cli_record(0, "", "OffResonance: detuned\n"),
                         old) == {"exit": math.inf}
    assert drift.compare(drift.cli_record(3, "", "NoChannels: none\n"),
                         old) == {"stderr": math.inf}


@pytest.mark.parametrize("out, old_number, new_number", [
    (JSON_OUT, "-2000000.0", "-2000000.0000000005"),
    (CSV_OUT, "-0.03125", "-0.031250000000000014"),
], ids=["json", "csv"])
def test_an_output_that_differs_in_one_number(out, old_number, new_number):
    new = drift.cli_record(0, out.replace(old_number, new_number), "")
    changes = drift.compare(new, drift.cli_record(0, out, ""))
    old, moved = float(old_number), float(new_number)
    assert moved != old
    assert changes == {"output": abs(moved - old) / abs(old)}


def test_an_output_whose_shape_changed_is_inf():
    new = drift.cli_record(0, CSV_OUT.replace("-0.25", "nan"), "")
    assert drift.compare(new, drift.cli_record(0, CSV_OUT, "")) == {
        "shape": math.inf}


def test_change_is_inf_from_zero_and_zero_between_nans():
    assert drift.change(1e-300, 0.0) == math.inf
    assert drift.change(math.nan, 1.0) == math.inf
    assert drift.change(math.nan, math.nan) == 0.0
    assert drift.change(-1.0, 1.0) == 2.0


def test_cold_set_holds_each_pool_report_at_z_ref():
    """cold_cases runs each temperature of a cold_points pool at Z_REF as
    the workload runs it: on the first temperature of the coldest and of
    the hottest stratum it gives one report each, labelled by stratum,
    member and T, whose six values pass the pool's reference."""
    ref = drift.workloads.load_reference(("cold_points",))
    pool = ref["cold_points"]
    ref["cold_points"] = {name: [column[0][:1], column[-1][:1]]
                          for name, column in pool.items()}
    cases = list(drift.cold_cases(ref))
    temps = [T for (T,) in ref["cold_points"]["T"]]
    assert [label for label, _ in cases] == [
        f"{s}.0 T={T:.6f} K" for s, T in enumerate(temps)]
    for (_, (identity, shape, values)), T, (want,) in zip(
            cases, temps, ref["cold_points"]["values"]):
        assert identity.startswith("ShiftReport(") and shape == {
            "error": None}
        got = [values[name][0] for name in GATED]
        assert drift.gate.check_values(got, want, drift.gate.line_tolerances(
            T, ref["material_broad_centres_rad_s"], False)) is None
