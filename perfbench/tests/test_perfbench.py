"""Tests of the benchmark harness itself.

    python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import importlib
import itertools
import json
import re
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import mild2  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from mild2.mildness import MildnessReport, Partition, parity_partition  # noqa: E402

NAME = re.compile(r"[A-Za-z0-9_.-]+")


def _bound_functions() -> dict:
    """Every (module, name) -> object the tracer may replace."""
    out = {}
    for short in tracing.NAMESPACES:
        module = importlib.import_module(f"mild2.{short}" if short else "mild2")
        for name, obj in vars(module).items():
            if callable(obj):
                out[(module.__name__, name)] = obj
    return out


def test_tail_returns_value_percentile_and_count():
    value, pct, beyond = run.tail(range(1, 101))
    assert (value, pct, beyond) == (90, 90.0, 10)
    value, pct, beyond = run.tail([5.0, 1.0, 3.0])
    assert (value, pct, beyond) == (5.0, 100.0, 0)
    value, pct, beyond = run.tail(range(11))
    assert (value, beyond) == (0, 10)
    with pytest.raises(ValueError):
        run.tail([])


def test_op_metrics_use_each_ops_median_repeat_and_scale_it():
    samples = {"a": [0.010, 0.030, 0.011], "b": [0.002], "c": [0.004, 0.005]}
    m = run.op_metrics(samples, 0.5)
    # Per-op medians 0.011, 0.002, 0.0045 s, halved.
    assert m["op_p50_ms"] == pytest.approx(2.25)
    assert m["op_tail_ms"] == pytest.approx(5.5)
    assert m["ops_per_s"] == pytest.approx(3 / 0.00875)
    assert (m["tail_percentile"], m["tail_beyond"]) == (100.0, 0)
    assert set(run.WORKLOAD_PACE) == set(run.NAMES)
    assert all(kind is None or kind in run.PACES for kind in run.WORKLOAD_PACE.values())


def test_wrong_witness_and_exceptions_count_as_failed_ops():
    wl = workloads.make("search", 1, HERE.parent / "src")
    mild_op = next(op for op in wl.ops if wl.run(op).verdict == "mild")
    good = wl.run(mild_op)
    d = len(good.witness.S) + len(good.witness.Sp)
    # S = everything leaves no S x Sp columns, so the rank criterion must fail.
    wrong = MildnessReport("mild", "rank", Partition(tuple(range(1, d + 1)), ()), None, good.notes)
    partial = MildnessReport("mild", "rank", Partition((1,), (2,)), None, good.notes)
    bench = run.Run(wl)
    bench.record(
        [
            (mild_op, 0.001, good, None),
            (mild_op, 0.001, wrong, None),
            (mild_op, 0.001, partial, None),
            (mild_op, 0.001, None, "MemoryGuardError: over the cap"),
        ]
    )
    assert (bench.attempted, bench.failed) == (4, 3)
    assert bench.labels["failed"] == 3 and len(bench.reasons) == 3


def test_oracle_check_rejects_a_witness_other_than_the_frozen_one():
    wl = workloads.make("oracle", 1, HERE.parent / "src")
    op = (workloads.EX2, 6, "F2pi")
    note = ("oracle(F2pi): dimensions match through degree 6",)
    right = MildnessReport("mild", "rank", Partition((1, 2), (3, 4)), 6, note)
    assert wl.check(op, right) is None
    wrong = MildnessReport("mild", "rank", Partition((1, 3), (2, 4)), 6, note)
    assert "frozen" in wl.check(op, wrong)


def test_metric_names_are_well_formed_and_match_benchmark_json():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    e2e = [m["name"] for m in spec["end_to_end"]]
    layer = [m["name"] for m in spec["per_layer"]]
    assert e2e == list(run.E2E_UNITS) and layer == list(run.LAYER_UNITS)
    assert [m["unit"] for m in spec["end_to_end"]] == list(run.E2E_UNITS.values())
    assert [m["unit"] for m in spec["per_layer"]] == list(run.LAYER_UNITS.values())
    for name in e2e + layer + [w["name"] for w in spec["workloads"]]:
        assert NAME.fullmatch(name), name
    assert [w["name"] for w in spec["workloads"]] == list(run.NAMES)


@pytest.mark.parametrize("d", [2, 3, 4, 5])
def test_partition_position_follows_the_documented_search_order(d):
    order = [parity_partition(d)]
    everything = range(1, d + 1)
    for size in range(d + 1):
        for sp in itertools.combinations(everything, size):
            order.append(Partition(tuple(i for i in everything if i not in sp), sp))
    for position, part in enumerate(order, 1):
        if part == parity_partition(d) and position > 1:
            continue
        assert workloads.partition_position(d, part) == position
    assert workloads.partition_position(d, None) == len(order) == 2**d + 1


def test_untraced_run_leaves_the_package_untouched_and_traced_run_restores_it():
    before = _bound_functions()
    out = run.run_workload("search", 2, 0.0, trace=False)
    assert out["result"]["correct"]
    assert _bound_functions() == before
    assert mild2.gf2.rank is before[("mild2.gf2", "rank")]
    traced = run.run_workload("search", 2, 0.0, trace=True)
    assert _bound_functions() == before
    assert traced["context"]["self_consistent"]
    metrics = traced["result"]["metrics"]
    assert set(metrics) == set(run.LAYER_UNITS)
    # The position count derived from witnesses equals the calls the search made.
    assert metrics["mildness.rank_criterion_calls"]["value"] == metrics["mildness.partitions_tried"]["value"]


def test_tracer_wraps_names_bound_at_import_where_callers_look_them_up():
    tracer = tracing.Tracer()
    tracer.install()
    try:
        from mild2 import linking, mildness, oracle

        for module, name in (
            (mildness, "eliminate_generator"),
            (oracle, "relator_to_poly"),
            (oracle, "strongly_free_series"),
            (linking, "legendre"),
            (mild2.gf2, "rank"),
        ):
            assert hasattr(getattr(module, name), "__wrapped__"), (module.__name__, name)
        mildness.check_mild(mild2.koch_presentation(workloads.EX2))
    finally:
        tracer.uninstall()
    names = {tracer.names[i] for i in tracer.name_id}
    assert {"mildness.check_mild", "linking.eliminate_generator", "mildness.rank_criterion"} <= names
    assert abs(sum(tracer.self_times()) - sum(
        d for d, p in zip(tracer.durations(), tracer.parent) if p < 0
    )) < 1e-6
