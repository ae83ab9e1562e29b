"""Tests of the benchmark itself: inputs, correctness gate and tracing.

    PYTHONPATH=src python3 -m pytest -q -p no:cacheprovider perfbench
"""

import json
import os
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))
sys.path.insert(0, HERE)

import gate  # noqa: E402
import run  # noqa: E402
import speed  # noqa: E402
import tracing  # noqa: E402
import workloads as wl  # noqa: E402
from polshift.errors import NoModeFound  # noqa: E402

REF = wl.load_reference()


def _take(workload, seed, n):
    stream = wl.requests(workload, seed, REF)
    return [next(stream) for _ in range(n)]


@pytest.mark.parametrize("workload", wl.WORKLOADS)
def test_requests_are_deterministic_per_seed(workload):
    assert _take(workload, 7, 40) == _take(workload, 7, 40)
    assert _take(workload, 7, 40) != _take(workload, 8, 40)


def _pool_inputs(workload, specs):
    """The inputs a run's specs draw, and the size of the pool."""
    pool = REF[workload]
    if workload == "scan":
        keys = [tuple(t) for spec in specs for t in spec["T"]]
        return [pool["T"][s][k] for s, k in keys], sum(map(len, pool["T"]))
    if workload == "cold_points":
        return ([pool["T"][s][k] for s, k in (spec["T"] for spec in specs)],
                sum(map(len, pool["T"])))
    items = pool["points" if workload == "retarded_points" else "materials"]
    return [json.dumps(items[spec["i"]]) for spec in specs], len(items)


@pytest.mark.parametrize("workload", wl.WORKLOADS)
def test_no_input_repeats_within_a_run(workload):
    # T for the nonretarded workloads (their Matsubara sums depend on T
    # alone), the (z, T) point or the material otherwise
    drawn, pool_size = _pool_inputs(workload, list(wl.requests(workload, 5,
                                                               REF)))
    assert len(set(drawn)) == len(drawn) == pool_size


def test_run_requests_gates_each_output_before_the_next_request():
    events = []

    def runner(spec):
        events.append(("run", spec))
        return 10 * spec, 1

    def check(spec, output, n):
        events.append(("check", spec, output, n))

    loop = run.run_requests(runner, check, iter(range(3)))
    assert events == [("run", 0), ("check", 0, 0, 1), ("run", 1),
                      ("check", 1, 10, 1), ("run", 2), ("check", 2, 20, 1)]
    assert loop.ops() == 3


def test_pools_are_deterministic_and_match_reference():
    small = wl.make_pools()
    assert small["scan"]["T"] == REF["scan"]["T"]
    assert small["cold_points"]["T"] == REF["cold_points"]["T"]
    assert small["retarded_points"]["points"] == \
        REF["retarded_points"]["points"]
    assert [list(map(list, m)) for m in small["modes_sweep"]["materials"]] \
        == REF["modes_sweep"]["materials"]


def test_every_pool_material_has_an_ascending_crossing():
    for oscs in REF["modes_sweep"]["materials"]:
        assert wl.ascending_crossings(oscs)
    # one oscillator: the crossing sits near sqrt(wT^2 + wP^2/2)
    (root,) = wl.ascending_crossings([(50.0, 100.0, 1.0)])
    assert root == pytest.approx((100.0**2 + 50.0**2 / 2) ** 0.5, rel=1e-3)


def _scan_case():
    spec = _take("scan", 3, 1)[0]
    T_values = [REF["scan"]["T"][s][k] for s, k in spec["T"]]
    T_ref = [REF["scan"]["rows"][s][k] for s, k in spec["T"]]
    rows = []
    for z in spec["z"][:3]:
        for T, ref in zip(T_values, T_ref):
            row = {"z_m": z, "T_K": T, "error": ""}
            for (_, col), v in zip(gate.FIELDS,
                                   gate.scaled(ref, z, REF["z_ref"])):
                row[col] = v
            rows.append(row)
    return rows, spec["z"][:3], T_values, T_ref


def _check_scan(rows, z, T, T_ref):
    return gate.check_scan(rows, z, T, T_ref, REF["z_ref"],
                           REF["material_broad_centres_rad_s"])


def test_gate_passes_reference_scan_and_flags_perturbation():
    rows, z, T, T_ref = _scan_case()
    assert _check_scan(rows, z, T, T_ref) == {}
    for _, col in gate.FIELDS:
        bad = [dict(r) for r in rows]
        bad[5][col] *= 1.0 + 1e-6
        assert set(_check_scan(bad, z, T, T_ref)) == {5}, col


@pytest.mark.parametrize("workload", ["cold_points", "retarded_points"])
def test_gate_flags_point_perturbed_by_1e6(workload):
    retarded = workload == "retarded_points"
    if retarded:
        (z, T), ref = REF[workload]["points"][0], REF[workload]["values"][0]
    else:
        z, T, ref = 3e-6, REF[workload]["T"][0][0], REF[workload]["values"][0][0]
    expected = ref if retarded else gate.scaled(ref, z, REF["z_ref"])
    tols = gate.line_tolerances(T, REF["material_broad_centres_rad_s"],
                                retarded)
    assert gate.check_values(list(expected), ref if retarded else expected,
                             tols) is None
    for k in range(len(gate.FIELDS)):
        bad = list(expected)
        bad[k] *= 1.0 + 1e-6
        assert gate.check_values(bad, expected, tols) is not None, k
    all_bad = [v * (1.0 + 1e-6) for v in expected]
    assert gate.check_values(all_bad, expected, tols) is not None


def _modes_table(i):
    return [dict(zip(gate.MODE_KEYS, m), **{
        "omega_center_cm^-1": m[3] / gate.CM1,
        "linewidth_cm^-1": m[4] / gate.CM1}) for m in REF["modes_sweep"]["modes"][i]]


def test_gate_modes_reference_perturbation_and_no_mode_found():
    materials, modes = REF["modes_sweep"]["materials"], REF["modes_sweep"]["modes"]
    i = next(k for k, m in enumerate(materials) if len(m) == 1)
    assert gate.check_modes(_modes_table(i), modes[i], materials[i]) is None
    for key in gate.MODE_FLOATS:
        table = _modes_table(i)
        table[0][key] *= 1.0 + 1e-6
        assert gate.check_modes(table, modes[i], materials[i]) is not None
    assert gate.check_modes(NoModeFound("none"), modes[i], materials[i]) \
        is not None


def test_traced_run_fails_when_a_wrapped_name_is_missing():
    import polshift.cli
    original = polshift.cli.run_point
    targets = tracing.TARGETS[:2] + (
        ("polshift.cli", "no_such_entry_point", "cli.gone"),)
    with pytest.raises(tracing.MissingTarget):
        tracing.Tracer(targets).install()
    assert polshift.cli.run_point is original  # nothing left wrapped


def test_tracer_counts_spans_self_time_and_errors():
    import polshift.cli
    import workloads
    runner = workloads.Runner("cold_points", REF)
    spec = {"z": 2e-6, "T": (15, 0)}
    tracer = tracing.Tracer().install()
    try:
        report, _ = runner(spec)
    finally:
        tracer.uninstall()
    assert polshift.cli.run_point.__name__ == "run_point"
    assert not hasattr(polshift.cli.run_point, "__wrapped__")
    m = tracer.metrics()
    assert m["cli.run_point.calls"][0] == 1
    assert m["potentials.total_shift.calls"][0] == 1
    assert m["material.load.calls"][0] == 2
    assert m["potentials.matsubara_terms"][0] == \
        m["material.reflection_imag_axis.calls"][0] > 4
    assert sum(v for k, (v, _) in m.items() if k.endswith(".self_s")) == \
        pytest.approx(tracer.spans[-1][5] - tracer.spans[-1][4], rel=1e-9)
    z, T = runner.inputs(spec)
    assert gate.check_point(report, z, T, REF["cold_points"]["values"][15][0],
                            REF["z_ref"], REF["material_broad_centres_rad_s"],
                            False) is None


def test_tracer_counts_typed_errors_once_per_layer():
    import polshift.cli
    from polshift.errors import ConvergenceFailure
    cfg = polshift.cli.RunConfig(
        material=wl.MATERIAL, atom=wl.ATOM, upper=wl.UPPER, lower=wl.LOWER,
        z_values=(1e-6,), T_values=(5.0,), matsubara_cutoff=3)
    tracer = tracing.Tracer().install()
    try:
        with pytest.raises(ConvergenceFailure):
            polshift.cli.run_point(cfg)
    finally:
        tracer.uninstall()
    m = tracer.metrics()
    assert m["potentials.errors"][0] == 1 and m["cli.errors"][0] == 1
    assert m["material.errors"][0] == 0
    assert m["potentials.matsubara_terms_failed"][0] == \
        m["potentials.matsubara_terms"][0] == 4


def test_scaled_loop_scales_every_request_by_a_positive_factor():
    loop = speed.ScaledLoop()
    for seconds, ops in ((0.02, 1), (0.06, 3), (0.01, 1)):
        loop.add(seconds, ops)
    scaled = loop.scaled()
    assert len(scaled) == 3 and all(s > 0 for s in scaled)
    assert loop.ops() == 5
    assert loop.ops_per_s() == pytest.approx(5 / sum(scaled))
    assert loop.latencies()[1] == pytest.approx(scaled[1] / 3)
