"""In-memory spans around the module-level names each dagsched layer calls through.

A name such as ``dagsched.ga.evaluate`` is the binding the GA looks up at call
time, so wrapping it sees exactly the calls the GA makes to the evaluator and
no others. Wrappers are installed by :func:`patched` and always removed when
its block ends, also on an exception.

Most names get one span per call: (name, start_ns, end_ns, parent span,
instance id). The platform functions and the dag queries the GA calls in its
inner loops run up to millions of times per GA run, so they are leaves: their
calls and nanoseconds are summed per enclosing span instead, which keeps the
trace small and still lets self time subtract them.
"""

from __future__ import annotations

import contextlib
import importlib
import statistics
import time
from collections import defaultdict
from typing import Dict, List, Optional, Tuple

_now = time.perf_counter_ns


def _ga_evaluate_hook(tracer: "Tracer", args, result) -> None:
    # the GA calls evaluate(g, p, chromosome, mode) directly from ga.run, so the
    # enclosing span is that run; count chromosomes already evaluated in it
    run_id = tracer.stack[-1] if tracer.stack else -1
    if run_id != tracer.seen_run:
        tracer.seen_run, tracer.seen = run_id, set()
    c = args[2]
    key = (tuple(c.order), tuple(c.machines))
    tracer.counters["ga.evaluations"] += 1
    if key in tracer.seen:
        tracer.counters["ga.eval_repeats"] += 1
    else:
        tracer.seen.add(key)


def _mutate_hook(tracer: "Tracer", args, result) -> None:
    # mutate(g, c, rng) hands back its input object when it gives up
    tracer.counters["ga.mutate_calls"] += 1
    if result is args[1]:
        tracer.counters["ga.mutate_giveups"] += 1


def _run_hook(tracer: "Tracer", args, result) -> None:
    tracer.counters["ga.iterations"] += result[2].iterations


# (module, attribute, span name, hook run after each call)
SPAN_TARGETS: Tuple[Tuple[str, str, str, object], ...] = (
    ("dagsched.dagio", "parse_dag", "dagio.parse_dag", None),
    ("dagsched.dagio", "parse_platform", "dagio.parse_platform", None),
    ("dagsched.dagio", "write_schedule_log", "dagio.write_schedule_log", None),
    ("dagsched.bench", "generate_random_dag", "dagio.generate_random_dag", None),
    ("dagsched.bench", "generate_platform", "dagio.generate_platform", None),
    ("dagsched.cli", "parse_dag", "dagio.parse_dag", None),
    ("dagsched.cli", "parse_platform", "dagio.parse_platform", None),
    ("dagsched.cli", "write_schedule_log", "dagio.write_schedule_log", None),
    ("dagsched.ga", "compute_heights", "dag.compute_heights", None),
    ("dagsched.bench", "compute_heights", "dag.compute_heights", None),
    ("dagsched.ga", "evaluate", "evaluator.evaluate", _ga_evaluate_hook),
    ("dagsched.minmin", "evaluate", "evaluator.evaluate", None),
    ("dagsched.bench", "evaluate", "evaluator.evaluate", None),
    ("dagsched.evaluator", "lower_bound", "evaluator.lower_bound", None),
    ("dagsched.bench", "lower_bound", "evaluator.lower_bound", None),
    ("dagsched.ga", "generate_individual", "ga.generate_individual", None),
    ("dagsched.ga", "load_balanced_individual", "ga.load_balanced_individual", None),
    ("dagsched.bench", "load_balanced_individual", "ga.load_balanced_individual", None),
    ("dagsched.ga", "rank_select_pairs", "ga.rank_select_pairs", None),
    ("dagsched.ga", "crossover_order_preserving", "ga.crossover_order", None),
    ("dagsched.ga", "crossover_task_aligned", "ga.crossover_aligned", None),
    ("dagsched.ga", "mutate", "ga.mutate", _mutate_hook),
    ("dagsched.ga", "update_population", "ga.update_population", None),
    ("dagsched.ga", "run", "ga.run", _run_hook),
    ("dagsched.bench", "run", "ga.run", _run_hook),
    ("dagsched.cli", "run", "ga.run", _run_hook),
    ("dagsched.minmin", "min_min_schedule", "minmin.schedule", None),
    ("dagsched.bench", "min_min_schedule", "minmin.schedule", None),
    ("dagsched.bench", "run_instance", "bench.run_instance", None),
    ("dagsched.cli", "main", "cli.main", None),
)

# Names that call no wrapped name and run thousands of times per GA run:
# their calls and time are summed per enclosing span.
LEAF_TARGETS: Tuple[Tuple[str, str, str], ...] = (
    ("dagsched.ga", "adjust_heights", "dag.adjust_heights"),
    ("dagsched.ga", "ready_tasks", "dag.ready_tasks"),
    ("dagsched.evaluator", "is_valid_order", "dag.is_valid_order"),
    ("dagsched.evaluator", "execution_time", "platform.execution_time"),
    ("dagsched.evaluator", "transfer_time", "platform.transfer_time"),
    ("dagsched.minmin", "execution_time", "platform.execution_time"),
    ("dagsched.minmin", "transfer_time", "platform.transfer_time"),
    ("dagsched.ga", "execution_time", "platform.execution_time"),
)


class Tracer:
    """Spans, leaf sums and counters of one traced run, all kept in memory.

    A wrapper spends part of its own time outside the window it records: the
    call of the wrapper, the bookkeeping and one of the two clock reads. That
    part lands in the enclosing span, so at construction the tracer times it
    per leaf call and per span, and self time subtracts it.
    """

    def __init__(self, measure_overhead: bool = True) -> None:
        self.spans: List[list] = []  # [name, start_ns, end_ns, parent index or -1, instance]
        self.leaves: Dict[Tuple[int, str], List[int]] = {}  # (span, leaf name) -> [calls, ns]
        self.counters: Dict[str, int] = defaultdict(int)
        self.stack: List[int] = []
        self.instance: Optional[str] = None
        self.enabled = True
        self.wrapped: List[str] = []
        self.missing: List[str] = []
        self.seen_run = -2
        self.seen: set = set()
        self.leaf_overhead_ns = self.span_overhead_ns = 0.0
        if measure_overhead:
            self.leaf_overhead_ns = _outside_ns(lambda t: _leaf_wrapper(t, "x", _noop),
                                                lambda t: sum(ns for _, ns in t.leaves.values()))
            self.span_overhead_ns = _outside_ns(lambda t: _span_wrapper(t, "x", _noop, None),
                                                lambda t: sum(r[2] - r[1] for r in t.spans))

    @contextlib.contextmanager
    def paused(self):
        """Calls made inside the block go straight to the wrapped functions."""
        was, self.enabled = self.enabled, False
        try:
            yield
        finally:
            self.enabled = was

    def _add_leaf(self, name: str, ns: int) -> None:
        key = (self.stack[-1] if self.stack else -1, name)
        acc = self.leaves.get(key)
        if acc is None:
            self.leaves[key] = [1, ns]
        else:
            acc[0] += 1
            acc[1] += ns


def _span_wrapper(tracer: Tracer, name: str, fn, hook):
    spans, stack = tracer.spans, tracer.stack

    def wrapper(*args, **kwargs):
        if not tracer.enabled:
            return fn(*args, **kwargs)
        rec = [name, 0, 0, stack[-1] if stack else -1, tracer.instance]
        stack.append(len(spans))
        spans.append(rec)
        rec[1] = _now()
        try:
            result = fn(*args, **kwargs)
        finally:
            rec[2] = _now()
            stack.pop()
        if hook is not None:
            t0 = _now()
            hook(tracer, args, result)
            # bookkeeping is charged to no layer's self time
            tracer._add_leaf("trace.hook", _now() - t0)
        return result

    wrapper.__wrapped__ = fn
    return wrapper


def _leaf_wrapper(tracer: Tracer, name: str, fn):
    def wrapper(*args, **kwargs):
        if not tracer.enabled:
            return fn(*args, **kwargs)
        t0 = _now()
        try:
            return fn(*args, **kwargs)
        finally:
            tracer._add_leaf(name, _now() - t0)

    wrapper.__wrapped__ = fn
    return wrapper


def _noop():
    pass


def _outside_ns(make_wrapper, recorded_ns, calls=5000, batches=9) -> float:
    """Median over batches of the nanoseconds per call that a wrapper of an
    empty function spends outside the time it records."""
    per_call = []
    for _ in range(batches):
        tracer = Tracer(measure_overhead=False)
        wrapper = make_wrapper(tracer)
        loop = range(calls)
        t0 = _now()
        for _ in loop:
            pass
        t1 = _now()
        for _ in loop:
            wrapper()
        t2 = _now()
        per_call.append((t2 - t1 - (t1 - t0) - recorded_ns(tracer)) / calls)
    return max(0.0, statistics.median(per_call))


@contextlib.contextmanager
def patched(tracer: Tracer, span_targets=SPAN_TARGETS, leaf_targets=LEAF_TARGETS):
    """Install the wrappers for the block; restore every original afterwards.

    A target name the package no longer has is skipped and listed in
    ``tracer.missing``; the layers it fed then report as unmeasured.
    """
    saved = []
    try:
        targets = [(m, a, n, h, False) for m, a, n, h in span_targets]
        targets += [(m, a, n, None, True) for m, a, n in leaf_targets]
        for mod_name, attr, name, hook, leaf in targets:
            mod = importlib.import_module(mod_name)
            orig = getattr(mod, attr, None)
            if orig is None:
                tracer.missing.append(f"{mod_name}.{attr}")
                continue
            saved.append((mod, attr, orig))
            wrapper = _leaf_wrapper(tracer, name, orig) if leaf else _span_wrapper(tracer, name, orig, hook)
            setattr(mod, attr, wrapper)
            tracer.wrapped.append(f"{mod_name}.{attr}")
        yield tracer
    finally:
        for mod, attr, orig in reversed(saved):
            setattr(mod, attr, orig)


def self_times(spans: List[list], leaves: Dict[Tuple[int, str], List[int]],
               leaf_overhead_ns: float = 0.0, span_overhead_ns: float = 0.0) -> List[float]:
    """Each span's duration minus its child spans, its leaf calls and the
    tracer's own time around each of them.

    On one thread's call stack the children of a span run one after another
    inside it, so their durations are subtracted as a sum.
    """
    inner = [0.0] * len(spans)
    for rec in spans:
        if rec[3] >= 0:
            inner[rec[3]] += rec[2] - rec[1] + span_overhead_ns
    for (sid, _), (calls, ns) in leaves.items():
        if sid >= 0:
            inner[sid] += ns + calls * leaf_overhead_ns
    return [max(0.0, rec[2] - rec[1] - inner[i]) for i, rec in enumerate(spans)]


def layer_metrics(tracer: Tracer) -> Dict[str, Optional[float]]:
    """Per-layer numbers of a traced run; None marks a layer with no calls.

    Counts and times per instance are over the distinct instance ids of the
    spans.
    """
    spans = tracer.spans
    selfs = self_times(spans, tracer.leaves, tracer.leaf_overhead_ns, tracer.span_overhead_ns)
    by_name: Dict[str, List[int]] = defaultdict(list)
    for i, rec in enumerate(spans):
        by_name[rec[0]].append(i)
    instances = {rec[4] for rec in spans}

    def dur(i):
        return spans[i][2] - spans[i][1]

    def per_call(name, scale, own=False):
        ids = by_name[name]
        if not ids:
            return None
        return sum(selfs[i] if own else dur(i) for i in ids) / len(ids) / scale

    def under(sid, name):
        while sid >= 0:
            if spans[sid][0] == name:
                return True
            sid = spans[sid][3]
        return False

    runs = by_name["ga.run"]
    ga_evals = [i for i in by_name["evaluator.evaluate"] if spans[i][3] >= 0 and spans[spans[i][3]][0] == "ga.run"]
    ga_eval_set = set(ga_evals)
    minmins = by_name["minmin.schedule"]
    leaf_calls: Dict[str, int] = defaultdict(int)
    leaf_ns: Dict[str, int] = defaultdict(int)
    platform_ns = 0
    for (sid, leaf), (calls, ns) in tracer.leaves.items():
        leaf_calls[leaf] += calls
        leaf_ns[leaf] += ns
        if leaf.startswith("platform."):
            platform_ns += ns
            if sid in ga_eval_set:
                leaf_calls[leaf + "/eval"] += calls
            if under(sid, "minmin.schedule"):
                leaf_calls[leaf + "/minmin"] += calls
    c = tracer.counters

    def ratio(num, den):
        return num / den if den else None

    def leaf_per_call(name, scale):
        return ratio(leaf_ns[name] / scale, leaf_calls[name])

    out: Dict[str, Optional[float]] = {
        "dagio.parse_dag_ms": per_call("dagio.parse_dag", 1e6),
        "dagio.parse_platform_ms": per_call("dagio.parse_platform", 1e6),
        "dagio.generate_random_dag_ms": per_call("dagio.generate_random_dag", 1e6),
        "dagio.write_schedule_log_ms": per_call("dagio.write_schedule_log", 1e6),
        "dag.adjust_heights_calls": ratio(leaf_calls["dag.adjust_heights"], len(instances))
        if leaf_calls["dag.adjust_heights"] else None,
        "dag.adjust_heights_us": leaf_per_call("dag.adjust_heights", 1e3),
        "dag.ready_tasks_us": leaf_per_call("dag.ready_tasks", 1e3),
        "dag.is_valid_order_us": leaf_per_call("dag.is_valid_order", 1e3),
        "dag.compute_heights_ms": per_call("dag.compute_heights", 1e6),
        "platform.execution_time_calls_per_eval": ratio(leaf_calls["platform.execution_time/eval"], len(ga_evals)),
        "platform.transfer_time_calls_per_eval": ratio(leaf_calls["platform.transfer_time/eval"], len(ga_evals)),
        "platform.execution_time_calls_per_minmin": ratio(leaf_calls["platform.execution_time/minmin"], len(minmins)),
        "platform.transfer_time_calls_per_minmin": ratio(leaf_calls["platform.transfer_time/minmin"], len(minmins)),
        "platform.self_ms": ratio(platform_ns / 1e6, len(instances)) if platform_ns else None,
        "evaluator.evaluate_calls": ratio(len(ga_evals), len(runs)) if ga_evals else None,
        "evaluator.evaluate_us.p50": statistics.median(dur(i) for i in ga_evals) / 1e3 if ga_evals else None,
        "evaluator.evaluate_self_ms": ratio(sum(selfs[i] for i in ga_evals) / 1e6, len(runs)) if ga_evals else None,
        "evaluator.lower_bound_ms": per_call("evaluator.lower_bound", 1e6),
        "ga.generate_individual_self_us": per_call("ga.generate_individual", 1e3, own=True),
        "ga.load_balanced_individual_us": per_call("ga.load_balanced_individual", 1e3),
        "ga.rank_select_pairs_us": per_call("ga.rank_select_pairs", 1e3),
        "ga.crossover_order_us": per_call("ga.crossover_order", 1e3),
        "ga.crossover_aligned_us": per_call("ga.crossover_aligned", 1e3),
        "ga.update_population_us": per_call("ga.update_population", 1e3),
        "ga.mutate_us": per_call("ga.mutate", 1e3),
        "ga.mutate_giveup_share": ratio(c["ga.mutate_giveups"], c["ga.mutate_calls"]),
        "ga.eval_repeat_share": ratio(c["ga.eval_repeats"], c["ga.evaluations"]),
        "ga.iterations": ratio(c["ga.iterations"], len(runs)),
        "ga.run_self_ms": per_call("ga.run", 1e6, own=True),
        "minmin.schedule_ms": per_call("minmin.schedule", 1e6),
        "cli.schedule_self_ms": per_call("cli.main", 1e6, own=True),
    }
    # run_instance time outside its GA and min-min calls: generation, the
    # seed individual and the lower bound
    cells = by_name["bench.run_instance"]
    if cells:
        inner = sum(dur(i) for i in runs + minmins
                    if spans[i][3] >= 0 and spans[spans[i][3]][0] == "bench.run_instance")
        out["bench.run_instance_self_ms"] = (sum(dur(i) for i in cells) - inner) / len(cells) / 1e6
    else:
        out["bench.run_instance_self_ms"] = None
    return out
