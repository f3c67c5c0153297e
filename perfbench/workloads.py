"""The benchmark workloads: seeded inputs, one timed unit of work, output checks.

The workloads drive dagsched only through its public functions and look each
one up on its module at call time (``ga.run``, not a local alias), so the
wrappers of a traced run see those calls. The checks use the references
bound below at import time, before any wrapper exists, and a traced run
pauses its tracer around them.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import random
import re
from dataclasses import dataclass, field
from typing import Iterator, List, Optional, Tuple

from dagsched import bench, dagio, evaluator, ga, minmin
from dagsched.dag import compute_heights, is_valid_order
from dagsched.dagio import write_schedule_log
from dagsched.evaluator import CommMode, evaluate
from dagsched.ga import GaConfig, load_balanced_individual

import speed

# The paper's default grid, (tasks, machines, width), as bench.DEFAULT_SHAPES
# had it when this benchmark was defined; fixed here so the workload cannot
# drift with the package.
GRID_SHAPES: Tuple[Tuple[int, int, int], ...] = (
    (10, 2, 3), (10, 7, 3),
    (25, 2, 10), (25, 7, 10),
    (45, 2, 7), (45, 7, 7),
    (2, 90, 1), (10, 90, 3), (40, 90, 10),
)
CCR = 0.1
REFERENCE_SEED = 0
_LAST_LOG_LINE = re.compile(r"Simulation Time: \d+\.\d{6}")


def unit_seeds(seed: int) -> Iterator[int]:
    """The instance seeds a run with workload seed `seed` works through."""
    rng = random.Random(seed)
    while True:
        yield rng.randrange(2 ** 31)


@dataclass
class Outcome:
    """What one instance produced, kept until it is checked."""

    label: str
    kind: str  # the instance's shape: a grid cell's "10x2", or the workload name
    g: object
    p: object
    mode: CommMode
    best: object
    timeline: object
    stats: object
    mm_chromo: object
    mm_timeline: object
    lower_bound: float
    ga_ms: float
    minmin_ms: float
    seed_makespan: Optional[float] = None  # grid: bench.run_instance reports it
    ga_log: Optional[str] = None  # document workloads write it as part of the instance


@dataclass
class Checked:
    """Numbers of one checked instance; `problems` is empty when it passed."""

    label: str
    kind: str
    ga_ms: float = 0.0
    minmin_ms: float = 0.0
    ga_makespan: float = 0.0
    minmin_makespan: float = 0.0
    lower_bound: float = 0.0
    problems: List[str] = field(default_factory=list)
    digest: str = ""


def _log(g, p, timeline, chromo) -> str:
    sink = io.StringIO()
    write_schedule_log(g, p, timeline, chromo, sink)
    return sink.getvalue()


def check(o: Outcome) -> Checked:
    """Apply the output invariants and fingerprint the non-timing outputs."""
    ga_span = o.timeline.makespan
    mm_span = o.mm_timeline.makespan
    lb = o.lower_bound
    out = Checked(o.label, o.kind, ga_ms=o.ga_ms, minmin_ms=o.minmin_ms, ga_makespan=ga_span,
                  minmin_makespan=mm_span, lower_bound=lb)
    bad = out.problems
    if o.seed_makespan is None:
        seed = load_balanced_individual(o.g, o.p, compute_heights(o.g))
        evaluate(o.g, o.p, seed, o.mode)
        o.seed_makespan = seed.fitness
    if o.best.fitness != ga_span:
        bad.append(f"GA fitness {o.best.fitness!r} differs from its timeline {ga_span!r}")
    for what, chromo, span in (("GA", o.best, ga_span), ("min-min", o.mm_chromo, mm_span)):
        if not is_valid_order(o.g, chromo.order):
            bad.append(f"{what} order breaks a dependency")
            continue
        again = evaluate(o.g, o.p, chromo.copy(), o.mode).makespan
        if again != span:
            bad.append(f"re-evaluating the {what} chromosome gives {again!r}, reported {span!r}")
        # the bound and the makespan sum the same execution times in another order
        if span < lb * (1 - 1e-12):
            bad.append(f"{what} makespan {span!r} is below the lower bound {lb!r}")
    if ga_span > o.seed_makespan:
        bad.append(f"GA makespan {ga_span!r} is worse than the seed individual {o.seed_makespan!r}")
    ga_log = o.ga_log if o.ga_log is not None else _log(o.g, o.p, o.timeline, o.best)
    mm_log = _log(o.g, o.p, o.mm_timeline, o.mm_chromo)
    for what, text in (("GA", ga_log), ("min-min", mm_log)):
        lines = text.splitlines()
        if not lines or not _LAST_LOG_LINE.fullmatch(lines[-1]):
            bad.append(f"{what} schedule log does not end in a Simulation Time line")
    out.digest = hashlib.sha256(fingerprint_text(o, ga_log, mm_log).encode()).hexdigest()
    return out


def fingerprint_text(o: Outcome, ga_log: str, mm_log: str) -> str:
    """The non-timing outputs of one instance: makespans to six decimals and both logs."""
    head = (f"{o.label} ga={o.timeline.makespan:.6f} minmin={o.mm_timeline.makespan:.6f} "
            f"lb={o.lower_bound:.6f} seed={o.seed_makespan:.6f} iterations={o.stats.iterations}\n")
    return head + ga_log + mm_log


@contextlib.contextmanager
def _stopwatch(module, attr: str, calls: list):
    """Time and keep each call of module.attr during the block (grid cells only)."""
    inner = getattr(module, attr)

    def wrapper(*args):
        t0 = speed.clock()
        result = inner(*args)
        calls.append((args, result, (speed.clock() - t0) * 1e3))
        return result

    setattr(module, attr, wrapper)
    try:
        yield
    finally:
        setattr(module, attr, inner)


class GridWorkload:
    """The paper's default grid through bench.run_instance: many short GA runs.

    A unit is one cell, (tasks, machines, width, seed); one instance seed
    gives a pass over the nine shapes, and a run stops only between passes,
    so every shape is equally represented in it.
    """

    name = "grid"

    def __init__(self, shapes=GRID_SHAPES, ga_overrides: Optional[dict] = None, min_passes: int = 4):
        self.shapes = shapes
        self.ga_overrides = ga_overrides or {}
        self.group = len(shapes)
        self.min_units = min_passes * len(shapes)

    def units_for(self, seed: int) -> list:
        return [(n, m, w, seed) for n, m, w in self.shapes]

    def build(self, cell) -> tuple:
        """The cell's inputs, made the way bench.run_instance makes them."""
        n, m, w, seed = cell
        g, _ = dagio.generate_random_dag(dagio.GenSpec(n_tasks=n, width=w, ccr=CCR, seed=seed))
        return g, dagio.generate_platform(m, seed=seed)

    def run_unit(self, cell, tracer=None) -> Tuple[str, Optional[Outcome], Optional[str]]:
        n, m, w, seed = cell
        label = f"{n}x{m}-s{seed}"
        if tracer is not None:
            tracer.instance = label
        runs, mms = [], []
        try:
            with _stopwatch(bench, "run", runs), _stopwatch(bench, "min_min_schedule", mms):
                cfg = GaConfig(**self.ga_overrides) if self.ga_overrides else None
                row = bench.run_instance(n, m, w, CCR, seed, CommMode.INCLUDE_TRANSFER, cfg)
            (g, p, _, mode), (best, timeline, stats), ga_ms = runs[0]
            _, (mm_chromo, mm_timeline), mm_ms = mms[0]
        except Exception as e:  # a failed cell is counted and the run goes on
            return label, None, f"{type(e).__name__}: {e}"
        return label, Outcome(label, f"{n}x{m}", g, p, mode, best, timeline, stats, mm_chromo, mm_timeline,
                              row.lower_bound, ga_ms, mm_ms, seed_makespan=row.seed_individual_makespan), None


@dataclass(frozen=True)
class DocUnit:
    label: str
    seed: int
    dag_text: str
    platform_text: str


def dag_document(g) -> str:
    doc = {"tasks": [{"id": t.id, "name": t.name, "work": t.work} for t in g.tasks],
           "edges": [{"src": e.src, "dst": e.dst, "bytes": e.bytes} for e in g.edges]}
    return json.dumps(doc, indent=2) + "\n"


class DocWorkload:
    """One generated instance per unit, handled the way `dagsched schedule` handles it:
    parse the JSON documents, GA, min-min, lower bound, schedule log.
    """

    group = 1

    def __init__(self, name: str, n_tasks: int, width: int, n_machines: int, comm: bool, etc: bool,
                 ga_overrides: Optional[dict] = None, min_units: int = 3):
        self.name = name
        self.n_tasks, self.width, self.n_machines = n_tasks, width, n_machines
        self.mode = CommMode.INCLUDE_TRANSFER if comm else CommMode.IGNORE_TRANSFER
        self.etc = etc
        self.ga_overrides = ga_overrides or {}
        self.min_units = min_units

    def units_for(self, seed: int) -> list:
        g, _ = dagio.generate_random_dag(dagio.GenSpec(n_tasks=self.n_tasks, width=self.width, ccr=CCR, seed=seed))
        if self.etc:
            # task-machine inconsistent execution times around each task's work
            rng = random.Random(f"etc-{seed}")
            mids = [f"m{i}" for i in range(1, self.n_machines + 1)]
            doc = {"machines": [{"id": m, "name": f"Machine{m[1:]}", "speed": 1.0} for m in mids],
                   "etc": {t.id: {m: t.work * rng.uniform(0.5, 2.0) for m in mids} for t in g.tasks}}
        else:
            p = dagio.generate_platform(self.n_machines, seed=seed)
            doc = {"machines": [{"id": m.id, "name": m.name, "speed": m.speed} for m in p.machines],
                   "default_link": {"bandwidth": p.default_link.bandwidth, "latency": p.default_link.latency}}
        return [DocUnit(f"{self.name}-s{seed}", seed, dag_document(g), json.dumps(doc, indent=2) + "\n")]

    def build(self, unit: DocUnit) -> tuple:
        return dagio.parse_dag(unit.dag_text), dagio.parse_platform(unit.platform_text)

    def run_unit(self, unit: DocUnit, tracer=None) -> Tuple[str, Optional[Outcome], Optional[str]]:
        if tracer is not None:
            tracer.instance = unit.label
        try:
            g = dagio.parse_dag(unit.dag_text)
            p = dagio.parse_platform(unit.platform_text)
            t0 = speed.clock()
            best, timeline, stats = ga.run(g, p, GaConfig(rng_seed=unit.seed, **self.ga_overrides), self.mode)
            t1 = speed.clock()
            mm_chromo, mm_timeline = minmin.min_min_schedule(g, p, self.mode)
            t2 = speed.clock()
            lb = evaluator.lower_bound(g, p)
            sink = io.StringIO()
            dagio.write_schedule_log(g, p, timeline, best, sink)
        except Exception as e:  # a failed instance is counted and the run goes on
            return unit.label, None, f"{type(e).__name__}: {e}"
        return unit.label, Outcome(unit.label, self.name, g, p, self.mode, best, timeline, stats, mm_chromo,
                                   mm_timeline, lb, (t1 - t0) * 1e3, (t2 - t1) * 1e3, ga_log=sink.getvalue()), None


def make_workloads() -> dict:
    return {w.name: w for w in (
        GridWorkload(),
        DocWorkload("wide", n_tasks=200, width=20, n_machines=16, comm=True, etc=False),
        DocWorkload("chain_etc", n_tasks=100, width=1, n_machines=8, comm=False, etc=True),
    )}
