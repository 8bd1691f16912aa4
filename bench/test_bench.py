"""Tests of the benchmark itself, on tiny inputs.

Run with ``python3 -m pytest bench``; the full workloads run through
``bench/run.py``.
"""

from __future__ import annotations

import json
import signal
import sys
from array import array
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

import hostspeed  # noqa: E402
import run as bench_run  # noqa: E402
import tracing  # noqa: E402
import workloads as wl  # noqa: E402

SURVEYS = ("survey_basis_r4",)


@pytest.fixture(scope="module", autouse=True)
def library():
    bench_run.import_library()


def _metric_names(kind: str) -> list[str]:
    return [m["name"] for m in bench_run.benchmark_spec()[kind]]


@pytest.mark.parametrize("name", list(wl.FAST_WORKLOADS))
def test_fast_mode_runs_every_check(name, capsys, monkeypatch):
    monkeypatch.setattr(bench_run, "SETUP_SAMPLES", 1)
    result = bench_run.bench_one(name, seed=7, seconds=0, trace=False, fast=True)
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] == bench_run.MIN_PASSES * len(wl.FAST_WORKLOADS[name].data)
    assert list(result["metrics"]) == _metric_names("end_to_end")
    assert all(m["value"] > 0 for m in result["metrics"].values())
    assert "failed_share" in capsys.readouterr().out


@pytest.mark.parametrize("name", list(wl.FAST_WORKLOADS))
def test_fast_traced_run_reports_every_layer(name):
    result = bench_run.bench_one(name, seed=7, seconds=0, trace=True, fast=True)
    metrics = {k: v["value"] for k, v in result["metrics"].items()}
    assert result["correct"]
    assert list(metrics) == _metric_names("per_layer")
    assert metrics["aut0.aut0.calls"] > 0
    if name in SURVEYS:
        assert metrics["hodge.eigendim_table.calls"] == 0
        assert metrics["hodge.hodge_diamond.calls"] == 0
        assert metrics["aut0.admissible_per_aut0"] > 1
        assert 0 < metrics["search.valid_share"] <= 1
    else:
        assert metrics["hodge.hodge_diamond.calls"] > 0
        assert metrics["search.kernel_triples"] == 0
    if name != "oracle_crosscheck":
        assert metrics["oracle.enumerate_subgroup.calls"] == 0
        assert metrics["oracle.brute_hodge.s"] == 0
    else:
        assert metrics["oracle.brute_hodge.s"] > 0


def test_planted_wrong_frozen_value_counts_as_failure(capsys):
    workload = wl.FAST_WORKLOADS["report_ladder"]
    frozen = wl.load_frozen()
    planted = dict(frozen["example4()"], aut0_factors=[4])
    frozen = dict(frozen, **{"example4()": planted})
    inputs = bench_run.prepare(workload, seed=3, passes=bench_run.MIN_PASSES)
    result = bench_run.run_workload(workload, inputs, frozen, seconds=0, trace=False)
    assert result["attempted"] == bench_run.MIN_PASSES * len(workload.data)
    assert result["failed"] == bench_run.MIN_PASSES
    assert "aut0_factors=[2] (frozen [4])" in capsys.readouterr().err


def test_output_missing_a_checked_field_is_a_mismatch():
    workload = wl.FAST_WORKLOADS["report_ladder"]
    op = wl.Op("example4()", "")
    assert "lacks a checked field" in wl.check(workload, op, '{"validation": {}}',
                                               wl.load_frozen())


def test_pass_count_depends_only_on_the_arguments():
    workload = wl.WORKLOADS["report_ladder"]
    assert bench_run.planned_passes(workload, 0, trace=False) == bench_run.MIN_PASSES
    assert bench_run.planned_passes(workload, 0, trace=True) == bench_run.MIN_TRACED_PASSES
    assert bench_run.planned_passes(workload, 10 * workload.pass_estimate_s, trace=False) == 10


def test_workloads_are_those_of_the_benchmark_file():
    listed = [w["name"] for w in bench_run.benchmark_spec()["workloads"]]
    assert listed == list(wl.WORKLOADS) == list(wl.FAST_WORKLOADS)


def test_relabelled_inputs_are_seeded_and_vary_by_pass():
    workload = wl.FAST_WORKLOADS["oracle_crosscheck"]
    base = wl.base_documents(workload)
    first = wl.pass_inputs(workload, base, 5, 0)
    assert first == wl.pass_inputs(workload, base, 5, 0)
    assert first != wl.pass_inputs(workload, base, 5, 1)
    assert first != wl.pass_inputs(workload, base, 6, 0)
    doc = json.loads(wl.pass_inputs(wl.FAST_WORKLOADS["survey_basis_r4"],
                                    wl.base_documents(wl.FAST_WORKLOADS["survey_basis_r4"]),
                                    5, 0)[0].text)
    columns = [gens[0] for gens in doc["kernels"][0]]
    assert sorted(map(tuple, columns)) != [(0, 0, 0)] * 3 and len(set(map(tuple, columns))) == 3


def test_reference_time_removes_probes_and_scales_by_trimmed_speed():
    # Ten probes of 0.01 s in a 2.1 s interval; the slowest and the fastest
    # speed are trimmed, the other eight average 0.5.
    speeds = [0.01] + [0.4, 0.6] * 2 + [0.5] * 4 + [9.0]
    assert hostspeed.trimmed_mean(speeds) == pytest.approx(0.5)
    assert hostspeed.reference_time(2.1, 0.1, speeds) == pytest.approx(1.0)


def test_probe_window_keeps_only_probes_wholly_inside():
    probe = hostspeed.SpeedProbe()
    probe.start = array("d", [0.0, 1.0, 2.0, 2.9])
    probe.duration = array("d", [0.1, 0.2, 0.4, 0.2])
    spent, speeds = probe.window(1.0, 3.0)
    assert spent == pytest.approx(0.6)
    assert speeds == pytest.approx([hostspeed.REFERENCE_PROBE_S / d for d in (0.2, 0.4)])


def test_speed_probe_samples_and_restores_the_signal_handler():
    before = signal.getsignal(signal.SIGALRM)
    with hostspeed.SpeedProbe() as probe:
        while len(probe.start) < 3:
            hostspeed.probe()
    assert signal.getsignal(signal.SIGALRM) is before
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
    assert all(d > 0 for d in probe.duration)


def test_self_time_arithmetic_on_a_synthetic_span_tree():
    # root [0, 10] holds a [1, 4] and b [5, 9]; b holds c [6, 7].
    start = [0.0, 1.0, 5.0, 6.0]
    end = [10.0, 4.0, 9.0, 7.0]
    parent = [-1, 0, 0, 2]
    assert tracing.self_times(start, end, parent) == [3.0, 3.0, 3.0, 1.0]


def test_inclusive_time_counts_only_the_outermost_span_of_a_name():
    t = tracing.Tracer()
    names = [t._name_id("x"), t._name_id("x"), t._name_id("y")]
    t.start, t.end = array("d", [0.0, 1.0, 2.0]), array("d", [5.0, 3.0, 2.5])
    t.name, t.parent = array("i", names), array("i", [-1, 0, 1])
    t.pass_of, t.outer = array("i", [1, 1, 1]), array("b", [1, 0, 1])
    m = t.pass_metrics()[1]
    assert m["x.calls"] == 2 and m["x.s"] == 5.0 and m["x.self_s"] == 4.5
    assert m["y.s"] == m["y.self_s"] == 0.5


def _attribute_snapshot() -> dict:
    import isoprod.datum
    import isoprod.groups

    owners = tracing._isoprod_modules() + [isoprod.groups.Subgroup,
                                           isoprod.datum.AlgebraicDatum]
    return {(id(o), k): v for o in owners for k, v in list(vars(o).items())}


def test_every_wrapper_is_removed_after_a_traced_run():
    import isoprod.cli
    import isoprod.groups
    import isoprod.hodge
    import isoprod.search

    before = _attribute_snapshot()
    workload = wl.FAST_WORKLOADS["survey_basis_r4"]
    ops = bench_run.prepare(workload, seed=1, passes=1)[0]
    with tracing.Tracer() as tracer:
        tracer.begin_pass(0)
        for rebound in (isoprod.search.aut0, isoprod.cli.compute_aut0,
                        isoprod.hodge.validate_datum, isoprod.groups.Subgroup.elements):
            assert getattr(rebound, tracing.WRAPPER_MARK, False)
        assert bench_run.run_pass(workload, ops, wl.load_frozen())[1] == 0
        tracer.end_pass()
    after = _attribute_snapshot()
    assert not tracer.patches
    assert before.keys() == after.keys()
    assert all(after[k] is v for k, v in before.items())
    assert not any(getattr(v, tracing.WRAPPER_MARK, False) for v in after.values())
