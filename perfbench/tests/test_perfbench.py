"""Tests of the benchmark itself: tracing, statistics, checks and inputs.

    python3 -m pytest -q perfbench/tests
"""

import importlib
import signal
import sys
import time
import types

import pytest

import run  # puts the checkout's src on sys.path before the imports below
import speed
import tracing
from workloads import Checked, DocWorkload, check, GridWorkload, dag_document, make_workloads, unit_seeds


def tiny_doc(comm=True, etc=False):
    return DocWorkload("tiny", n_tasks=12, width=3, n_machines=3, comm=comm, etc=etc,
                       ga_overrides={"pop_size": 6, "max_iters": 3}, min_units=1)


def bindings():
    targets = [(m, a) for m, a, _, _ in tracing.SPAN_TARGETS] + [(m, a) for m, a, _ in tracing.LEAF_TARGETS]
    return {(m, a): getattr(importlib.import_module(m), a) for m, a in targets}


def test_wrappers_are_removed_after_a_traced_run_even_on_an_exception():
    before = bindings()
    tracer = tracing.Tracer()
    with tracing.patched(tracer):
        assert all(getattr(importlib.import_module(m), a) is not f for (m, a), f in before.items())
    assert bindings() == before
    run.traced_pairs(tiny_doc(), run.seeded_units(tiny_doc(), 1), 0, run.Tally(), tracer)
    assert bindings() == before
    assert tracer.spans and not tracer.missing
    with pytest.raises(RuntimeError):
        with tracing.patched(tracing.Tracer()):
            raise RuntimeError("boom")
    assert bindings() == before


def test_a_missing_name_is_skipped_and_its_layer_reads_unmeasured():
    tracer = tracing.Tracer()
    targets = (("dagsched.ga", "no_such_function", "ga.mutate", None),)
    with tracing.patched(tracer, span_targets=targets, leaf_targets=()):
        pass
    assert tracer.missing == ["dagsched.ga.no_such_function"]
    layers = tracing.layer_metrics(tracer)
    assert layers["ga.mutate_us"] is None and layers["evaluator.evaluate_calls"] is None


def test_self_time_subtracts_children_leaf_calls_and_the_tracer_overhead():
    spans = [
        ["root", 0, 100, -1, "i"],
        ["a", 10, 40, 0, "i"],
        ["a.child", 15, 20, 1, "i"],
        ["b", 50, 60, 0, "i"],
    ]
    leaves = {(0, "platform.execution_time"): [3, 5], (1, "platform.transfer_time"): [1, 4]}
    assert tracing.self_times(spans, leaves) == [100 - 30 - 10 - 5, 30 - 5 - 4, 5, 10]
    # one unit per child span and per leaf call
    assert tracing.self_times(spans, leaves, 1.0, 2.0) == [100 - 32 - 12 - 5 - 3, 30 - 7 - 4 - 1, 5, 10]


def test_a_span_of_nothing_but_leaf_calls_has_a_self_time_near_zero(monkeypatch):
    mod = types.ModuleType("perfbench_fake_layer")

    def leaf(x):
        return x + 1

    def outer(n):
        total = 0
        for i in range(n):
            total = mod.leaf(i)
        return total

    mod.leaf, mod.outer = leaf, outer
    monkeypatch.setitem(sys.modules, mod.__name__, mod)
    tracer = tracing.Tracer()
    assert tracer.leaf_overhead_ns > 0 and tracer.span_overhead_ns > 0
    with tracing.patched(tracer, span_targets=((mod.__name__, "outer", "outer", None),),
                         leaf_targets=((mod.__name__, "leaf", "leaf"),)):
        mod.outer(20000)
    assert mod.leaf is leaf and mod.outer is outer
    (_, start, end, _, _), = tracer.spans
    own = tracing.self_times(tracer.spans, tracer.leaves, tracer.leaf_overhead_ns)[0]
    naive = tracing.self_times(tracer.spans, tracer.leaves)[0]
    # what is left is the loop itself, a small part of the span
    assert own < 0.35 * (end - start) and own < 0.5 * naive


def test_tail_is_omitted_below_eleven_samples():
    assert run.tail(list(range(10))) is None
    assert run.tail(list(range(11))) == (0, 100 / 11)
    assert run.tail(list(range(100))) == (89, 90.0)

    def done(n):
        return [run.UnitRun(f"c{i}", 1.0, [], Checked(f"c{i}", "c", ga_ms=float(i + 1), minmin_ms=1.0,
                                                     ga_makespan=2.0, minmin_makespan=3.0, lower_bound=1.0),
                            setup=[0.1], cal=[speed.REF_S])
                for i in range(n)]
    _, extra = run.end_to_end(GridWorkload(min_passes=1), done(10))
    assert "ga_ms.tail" not in extra and "minmin_ms.tail" not in extra
    _, extra = run.end_to_end(GridWorkload(min_passes=1), done(11))
    assert extra["ga_ms.tail"] == 1.0 and extra["minmin_ms.tail"] == 1.0


def test_timings_are_scaled_to_the_reference_speed_of_their_grid_pass():
    workload = GridWorkload(shapes=((1, 1, 1), (2, 1, 1)), min_passes=1)
    c = Checked("c", "c", ga_ms=10.0, minmin_ms=1.0, ga_makespan=2.0, minmin_makespan=3.0, lower_bound=1.0)
    slow = 2 * speed.REF_S  # the machine ran at half the reference speed during the second pass
    done = [run.UnitRun("a", 1.0, [], c, setup=[0.2], cal=[speed.REF_S]),
            run.UnitRun("b", 1.0, [], c, setup=[0.2], cal=[speed.REF_S]),
            run.UnitRun("c", 2.0, [], c, setup=[0.4], cal=[slow, slow]),
            run.UnitRun("d", 2.0, [], c, setup=[0.4], cal=[])]
    assert run.speed_factors(workload, done) == [1.0, 1.0, 0.5, 0.5]
    metrics, extra = run.end_to_end(workload, done)
    assert metrics["instances_per_s"] == 1.0 and extra["wall.instances_per_s"] == 4 / 6
    assert metrics["setup_s"] == pytest.approx(0.2) and extra["wall.setup_s"] == pytest.approx(0.3)
    # a repeat block with three samples of its own takes its speed from them
    local = [run.UnitRun("a", 1.0, [], c, setup=[0.4], cal=[slow], setup_cal=[speed.REF_S] * 3),
             run.UnitRun("b", 1.0, [], c, setup=[0.4], cal=[slow], setup_cal=[speed.REF_S] * 2)]
    metrics, _ = run.end_to_end(workload, local)
    assert metrics["setup_s"] == pytest.approx((0.4 + 0.2) / 2)


def test_timings_are_the_geometric_mean_of_per_shape_medians():
    assert run.typical({"a": [1.0, 2.0, 100.0], "b": [8.0]}) == pytest.approx(4.0)


def test_a_corrupted_reference_fingerprint_counts_as_a_failure():
    workload = tiny_doc()
    digests = run.check_reference(workload, {}, run.Tally())
    good = {"instances": dict(digests)}
    tally = run.Tally()
    run.check_reference(workload, good, tally)
    assert (tally.attempted, tally.failed) == (1, 0)

    (label, digest), = digests.items()
    bad = {"instances": {label: ("0" if digest[0] != "0" else "1") + digest[1:]}}
    tally = run.Tally()
    run.check_reference(workload, bad, tally)
    assert tally.failed / tally.attempted > 0
    assert "differs from the reference" in tally.problems[0]


def test_a_reference_instance_that_fails_its_checks_counts_as_a_failure(monkeypatch):
    workload = tiny_doc()
    digests = run.check_reference(workload, {}, run.Tally())

    def failing(outcome):
        c = check(outcome)
        c.problems.append("broken on purpose")
        return c

    monkeypatch.setattr(run, "check", failing)
    tally = run.Tally()
    assert run.check_reference(workload, {"instances": digests}, tally) == digests
    assert (tally.attempted, tally.failed) == (1, 1)
    assert "broken on purpose" in tally.problems[0]


def test_the_committed_reference_covers_every_workload():
    reference = __import__("json").loads(run.REFERENCE_FILE.read_text())
    assert set(reference) == set(make_workloads())
    for name, entry in reference.items():
        assert entry["fingerprint"] == run.fingerprint(entry["instances"])


@pytest.mark.parametrize("name", sorted(make_workloads()))
def test_a_different_workload_seed_changes_the_generated_inputs(name):
    workload = make_workloads()[name]

    def inputs(seed):
        built = [workload.build(unit) for unit in workload.units_for(next(unit_seeds(seed)))]
        return [dag_document(g) + repr([(m.id, m.speed) for m in p.machines]) for g, p in built]

    assert inputs(1) == inputs(1)
    assert inputs(1) != inputs(2)


def test_tracing_changes_no_output_and_counts_no_transfers_without_communication():
    workload = tiny_doc(comm=False, etc=True)
    tracer = tracing.Tracer()
    tally = run.Tally()
    plain, traced = run.traced_pairs(workload, run.seeded_units(workload, 3), 0, tally, tracer)
    assert len(plain) == len(traced) == 1
    assert plain[0].checked.digest == traced[0].checked.digest
    assert (tally.attempted, tally.failed) == (2, 0)
    layers = tracing.layer_metrics(tracer)
    assert layers["platform.transfer_time_calls_per_eval"] == 0
    assert layers["platform.execution_time_calls_per_eval"] == 12
    # initial population, two children per pair per generation, the final re-evaluation
    assert layers["evaluator.evaluate_calls"] == 6 + 3 * (6 // 4) * 2 + 1
    assert layers["ga.iterations"] == 3


def test_grid_cells_are_checked_through_bench_run_instance_and_runs_end_between_passes():
    workload = GridWorkload(shapes=((6, 2, 2), (4, 3, 2)), ga_overrides={"pop_size": 6, "max_iters": 2},
                            min_passes=1)
    tally = run.Tally()
    done = run.measure(workload, run.seeded_units(workload, 5), 0, workload.min_units, tally)
    assert [u.checked.kind for u in done] == ["6x2", "4x3"]
    assert tally.failed == 0 and all(u.checked.ga_makespan >= u.checked.lower_bound for u in done)
    assert all(len(u.setup) >= 3 for u in done)


def test_speed_samples_are_taken_during_the_block_and_left_out_of_the_clock():
    with speed.sampling(period=0.005):
        first, t0, w0 = speed.mark(), speed.clock(), time.perf_counter()
        end = w0 + 0.2
        while time.perf_counter() < end:
            pass
        t1, w1, last = speed.clock(), time.perf_counter(), speed.mark()
    taken = speed.durations(first, last)
    assert taken and speed.factor(taken) > 0
    assert (w1 - w0) - (t1 - t0) == pytest.approx(sum(taken), rel=0.1)
    assert signal.getsignal(signal.SIGALRM) is signal.SIG_DFL
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
