"""Document formats, schedule logging, benchmark CSV, and instance generation.

DAG and platform documents are plain JSON; the schemas capture exactly the
fields the algorithms consume. The random-DAG generator stands in for
benchmark inputs: layered graphs with a single entry and a single exit,
reproducible from a seed.
"""

from __future__ import annotations

import csv
import json
import math
import random
import statistics
import sys
from dataclasses import dataclass
from typing import Dict, List, Tuple

from .dag import DataEdge, TaskGraph, TaskId, TaskNode, build_graph
from .errors import DocumentSyntaxError, InfeasibleSpec, InvalidValue, SchemaError
from .evaluator import Chromosome, Timeline
from .platform import LinkSpec, Machine, Platform, build_platform


def _loads(text: str):
    try:
        return json.loads(text)
    except json.JSONDecodeError as e:
        raise DocumentSyntaxError(f"line {e.lineno}, column {e.colno}: {e.msg}") from None
    except RecursionError:
        raise DocumentSyntaxError("arrays or objects nested too deeply") from None
    except ValueError:  # CPython's limit on the digits of an int
        raise DocumentSyntaxError("an integer has too many digits") from None


_NUM = (int, float)
_MAX = sys.float_info.max


def _is_number(v) -> bool:
    # bool is an int subclass; json.loads accepts NaN, Infinity and ints past the float range
    return isinstance(v, _NUM) and not isinstance(v, bool) and -_MAX <= v <= _MAX


def _require(obj: dict, what: str, required: Dict[str, type], optional: Dict[str, type] = {}):
    if not isinstance(obj, dict):
        raise SchemaError(f"{what} must be an object, got {type(obj).__name__}")
    for key in required:
        if key not in obj:
            raise SchemaError(f"{what} is missing field {key!r}")
    for key, value in obj.items():
        typ = required.get(key, optional.get(key))
        if typ is None:
            raise SchemaError(f"{what} has unexpected field {key!r}")
        if not (_is_number(value) if typ is _NUM else isinstance(value, typ)):
            expected = "a finite number" if typ is _NUM else typ.__name__
            raise SchemaError(f"{what} field {key!r} must be {expected}, got {value!r:.40}")
        if key in ("id", "name") and not value.isprintable():  # so a log or table line never splits
            raise SchemaError(f"{what} field {key!r} must be printable, got {value!r}")


# True exactly when _require(raw, "task"/"edge", ...) raises nothing: json.loads builds exact dict, str, int,
# float and bool, never a subclass, so `type(v) in _NUM` answers as _is_number's isinstance-but-not-bool
# test does, and NaN, ±inf and ints past the float range fail the range test.
def _task_ok(raw) -> bool:
    return (type(raw) is dict and raw.keys() <= {"id", "work", "name"} and type(tid := raw.get("id")) is str
            and tid.isprintable() and type(work := raw.get("work")) in _NUM and -_MAX <= work <= _MAX
            and type(name := raw.get("name", "")) is str and name.isprintable())


def _edge_ok(raw) -> bool:  # _require does not ask src and dst to be printable
    return (type(raw) is dict and raw.keys() <= {"src", "dst", "bytes"} and type(raw.get("src")) is str
            and type(raw.get("dst")) is str and type(b := raw.get("bytes", 0.0)) in _NUM and -_MAX <= b <= _MAX)


def parse_dag(text: str) -> TaskGraph:
    """Parse a DAG document (JSON text) into a validated TaskGraph.

    Well-formed records pass one check per kind; the rest go to _require, which alone words each SchemaError."""
    doc = _loads(text)
    _require(doc, "DAG document", {"tasks": list}, {"edges": list})
    if not doc["tasks"]:
        raise SchemaError("DAG document has an empty tasks array")
    tasks = []
    for raw in doc["tasks"]:
        if not _task_ok(raw):
            _require(raw, "task", {"id": str, "work": _NUM}, {"name": str})
        tasks.append(TaskNode(raw["id"], raw.get("name", raw["id"]), float(raw["work"])))
    edges = []
    for raw in doc.get("edges", []):
        if not _edge_ok(raw):
            _require(raw, "edge", {"src": str, "dst": str}, {"bytes": _NUM})
        edges.append(DataEdge(raw["src"], raw["dst"], float(raw.get("bytes", 0.0))))
    return build_graph(tasks, edges)


def dag_to_json(g: TaskGraph) -> str:
    doc = {
        "tasks": [{"id": t.id, "name": t.name, "work": t.work} for t in g.tasks],
        "edges": [{"src": e.src, "dst": e.dst, "bytes": e.bytes} for e in g.edges],
    }
    return json.dumps(doc, indent=2) + "\n"


def _link(raw, what: str, ends: Dict[str, type]) -> LinkSpec:
    _require(raw, what, {**ends, "bandwidth": _NUM}, {"latency": _NUM})
    return LinkSpec(src=raw.get("src", "*"), dst=raw.get("dst", "*"),
                    bandwidth=float(raw["bandwidth"]), latency=float(raw.get("latency", 0.0)))


def parse_platform(text: str) -> Platform:
    """Parse a platform document (JSON text) into a validated Platform."""
    doc = _loads(text)
    _require(doc, "platform document", {"machines": list},
             {"default_link": dict, "links": list, "etc": dict})
    if not doc["machines"]:
        raise SchemaError("platform document has an empty machines array")
    machines = []
    for raw in doc["machines"]:
        _require(raw, "machine", {"id": str, "speed": _NUM}, {"name": str})
        machines.append(Machine(id=raw["id"], name=raw.get("name", raw["id"]), speed=float(raw["speed"])))
    links = [_link(raw, "link", {"src": str, "dst": str}) for raw in doc.get("links", [])]
    default = _link(doc["default_link"], "default_link", {}) if "default_link" in doc else None
    etc = doc.get("etc")
    if etc is not None:
        for tid, row in etc.items():
            if not isinstance(row, dict) or not all(_is_number(v) for v in row.values()):
                raise SchemaError(f"etc row for task {tid!r} must map machine ids to finite numbers")
    return build_platform(machines, links, default, etc)


def write_schedule_log(g: TaskGraph, p: Platform, timeline: Timeline,
                       chromosome: Chromosome, sink) -> None:
    """One `Schedule <task> on <machine>` line per task, by ascending start time.

    Start-time ties fall back to chromosome position. The final line reports
    the makespan with exactly six decimals.
    """
    pos = {tid: i for i, tid in enumerate(chromosome.order)}
    for tid in sorted(timeline.start, key=lambda t: (timeline.start[t], pos[t])):
        task_name = g.task(tid).name
        machine_name = p.machine(timeline.machine[tid]).name
        sink.write(f"Schedule {task_name} on {machine_name}\n")
    sink.write(f"Simulation Time: {timeline.makespan:.6f}\n")


BENCH_CSV_HEADER = ("instance", "n_tasks", "n_machines", "width", "ccr", "comm_mode",
                    "seed", "ga_makespan", "minmin_makespan", "lower_bound", "ga_runtime_ms")


def write_bench_csv(rows, sink) -> None:
    """Benchmark results as CSV; makespan-like columns carry six decimals."""
    w = csv.writer(sink, lineterminator="\n")
    w.writerow(BENCH_CSV_HEADER)
    for r in rows:
        w.writerow([
            r.instance, r.n_tasks, r.n_machines, r.width, r.ccr, r.comm_mode,
            r.seed, f"{r.ga_makespan:.6f}", f"{r.minmin_makespan:.6f}",
            f"{r.lower_bound:.6f}", f"{r.ga_runtime_ms:.1f}",
        ])


@dataclass(frozen=True)
class GenSpec:
    n_tasks: int
    width: int
    ccr: float = 0.0
    work_range: Tuple[float, float] = (10.0, 30.0)
    seed: int = 0

    def __post_init__(self) -> None:
        if ({*map(type, (self.n_tasks, self.width, self.seed))} != {int} or type(self.work_range) is not tuple
                or len(self.work_range) != 2 or not {*map(type, (self.ccr, *self.work_range))} <= {int, float}):
            raise InfeasibleSpec(f"invalid generator spec: {self}")
        lo, hi = self.work_range
        # with ccr > 0, bytes reach 2 * ccr * the mean work, and that mean's float sum must not overflow
        if (self.n_tasks < 1 or self.width < 1 or not 0 <= self.ccr < math.inf or not 0 < lo <= hi < math.inf
                or self.ccr and not max(self.n_tasks, 2.0 * self.ccr) * hi < math.inf):
            raise InfeasibleSpec(f"invalid generator spec: {self}")


def generate_random_dag(spec: GenSpec) -> Tuple[TaskGraph, Dict[TaskId, int]]:
    """Seeded layered DAG with one entry and one exit.

    Middle layers have at most `width` tasks; each middle task draws 1..3
    parents from the previous layer. Edge byte volumes are scaled so the mean
    transfer time at unit bandwidth (generate_platform's default link) over
    the mean execution time is about the requested communication-to-computation
    ratio.
    """
    rng = random.Random(spec.seed)
    n = spec.n_tasks
    ids = [f"t{i}" for i in range(1, n + 1)]
    works = [rng.uniform(*spec.work_range) for _ in range(n)]
    tasks = [TaskNode(id=ids[i], name=f"job{i + 1}", work=works[i]) for i in range(n)]

    layers: List[List[str]] = [[ids[0]]]
    if n >= 2:
        middle = ids[1:-1]
        at = 0
        while at < len(middle):
            size = min(len(middle) - at, rng.randint(1, spec.width))
            layers.append(middle[at:at + size])
            at += size
        layers.append([ids[-1]])

    edge_pairs: List[Tuple[str, str]] = []
    has_child = set()
    for k in range(1, len(layers) - 1):
        prev = layers[k - 1]
        for tid in layers[k]:
            n_parents = min(len(prev), rng.randint(1, 3))
            for parent in sorted(rng.sample(prev, n_parents), key=prev.index):
                edge_pairs.append((parent, tid))
                has_child.add(parent)
    for tid in ids[:-1]:  # the single exit collects every task left childless
        if tid not in has_child:
            edge_pairs.append((tid, ids[-1]))

    if spec.ccr == 0 or not edge_pairs:
        volumes = [0.0] * len(edge_pairs)
    else:
        mean_bytes = spec.ccr * statistics.fmean(works)
        volumes = [rng.uniform(0.0, 2.0 * mean_bytes) for _ in edge_pairs]
    edges = [DataEdge(src=a, dst=b, bytes=v) for (a, b), v in zip(edge_pairs, volumes)]

    g = build_graph(tasks, edges)
    layer_of = {tid: k for k, layer in enumerate(layers) for tid in layer}
    return g, layer_of


def generate_platform(n_machines: int, seed: int = 0) -> Platform:
    """Benchmark platform whose default link has unit bandwidth and no latency.

    Every machine has speed 1 (the per-task execution-time table's
    convention), so the platform is the same for every seed.
    """
    if n_machines < 1:
        raise InvalidValue("n_machines must be >= 1")
    machines = [Machine(id=f"m{i}", name=f"Machine{i}", speed=1.0) for i in range(1, n_machines + 1)]
    default = LinkSpec(src="*", dst="*", bandwidth=1.0, latency=0.0)
    return build_platform(machines, default_link=default)
