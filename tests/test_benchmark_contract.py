"""The benchmark's traced run still reaches every layer it reports.

perfbench/tracing.py wraps module-level names of the package. A name the
package no longer has, or no longer calls, leaves its per-layer metric at
None, and the benchmark's result line then carries a null. A tiny traced run
catches that here, before the benchmark does, and pins the call counts
that a change which keeps every call must leave as they are.
"""

import json
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "perfbench"))

import run  # noqa: E402  (puts the checkout's src on sys.path before the imports below)
import tracing  # noqa: E402
from workloads import DocWorkload  # noqa: E402

PINNED_COUNTS = {
    "evaluator.evaluate_calls": 71,
    "platform.execution_time_calls_per_eval": 30,  # one per task
    "platform.transfer_time_calls_per_eval": 2997 / 71,  # 2,997 off-machine inputs over 71 evaluations
    # min-min re-places only the committed machine's column of each ready row
    # (it re-placed every ready pair at every step: 288 and 411)
    "platform.execution_time_calls_per_minmin": 162,
    "platform.transfer_time_calls_per_minmin": 230,
    "dag.adjust_heights_calls": 600,
    "ga.iterations": 5,
}


@pytest.fixture(scope="module")
def traced():
    """(tally, tracer, per-layer metrics) of one tiny traced run."""
    workload = DocWorkload("contract", n_tasks=30, width=5, n_machines=4, comm=True, etc=False,
                           ga_overrides={"pop_size": 20, "max_iters": 5}, min_units=1)
    tracer = tracing.Tracer()
    tally = run.Tally()
    run.traced_pairs(workload, run.seeded_units(workload, 1), 0, tally, tracer)
    return tally, tracer, tracing.layer_metrics(tracer)


def test_a_tiny_traced_run_measures_every_per_layer_metric(traced):
    tally, tracer, layers = traced
    assert (tally.attempted, tally.failed) == (2, 0)
    assert tracer.missing == []
    names = [m["name"] for m in json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer"]]
    # trace.overhead_pct comes from run.py's timing of whole runs, not from the spans
    unmeasured = [name for name in names if name != "trace.overhead_pct" and layers.get(name) is None]
    assert unmeasured == []


def test_the_traced_run_makes_the_pinned_number_of_calls(traced):
    # A speed-up that keeps every call leaves these as they are. A change that
    # removes calls on purpose (a fitness memo, an indegree walk) updates them.
    layers = traced[2]
    assert {name: layers[name] for name in PINNED_COUNTS} == PINNED_COUNTS
