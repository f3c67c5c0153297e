"""Task-graph model: validation, heights, and dependency queries.

A task graph is a DAG whose nodes carry an abstract amount of compute work
and whose edges carry the data volume handed from parent to child. Heights
drive dependency-safe order generation: entry tasks have height 1, every
other task sits one level below its deepest parent.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Container, Dict, List, Sequence, Set, Tuple

from .errors import (
    CycleDetected,
    DuplicateEdge,
    DuplicateTaskId,
    EmptyGraph,
    InvalidValue,
    NotReady,
    SelfLoop,
    UnknownEdgeEndpoint,
)

TaskId = str
HeightMap = Dict[TaskId, int]


@dataclass(frozen=True)
class TaskNode:
    id: TaskId
    name: str
    work: float  # abstract compute units; 0 allowed for virtual nodes


@dataclass(frozen=True)
class DataEdge:
    src: TaskId
    dst: TaskId
    bytes: float


class TaskGraph:
    """Validated, immutable DAG with precomputed adjacency.

    Construct through :func:`build_graph`; do not mutate after construction.
    `_adjusted` caches a copy of adjust_heights' last map and `_child_bits` (built on its
    first hit) each task's children as bits of topological positions; no answer depends on them.
    """

    def __init__(self, tasks: Tuple[TaskNode, ...], edges: Tuple[DataEdge, ...],
                 by_id: Dict[TaskId, TaskNode],
                 parents: Dict[TaskId, Tuple[TaskId, ...]],
                 inputs: Dict[TaskId, Tuple[Tuple[TaskId, float], ...]],
                 children: Dict[TaskId, Tuple[TaskId, ...]],
                 topo_order: Tuple[TaskId, ...]):
        self.tasks = tasks
        self.edges = edges
        self._by_id = by_id
        self._parents = parents
        self._inputs = inputs  # task -> ((parent, bytes), ...), in edge declaration order
        self._children = children
        self.topo_order = topo_order
        self.task_ids = tuple(by_id)
        self._adjusted = self._child_bits = None

    def task(self, tid: TaskId) -> TaskNode:
        return self._by_id[tid]

    def __contains__(self, tid: TaskId) -> bool:
        return tid in self._by_id

    def __len__(self) -> int:
        return len(self.tasks)

    def parents(self, tid: TaskId) -> Tuple[TaskId, ...]:
        return self._parents[tid]

    def children(self, tid: TaskId) -> Tuple[TaskId, ...]:
        return self._children[tid]

    def entry_tasks(self) -> List[TaskId]:
        return [t.id for t in self.tasks if not self._parents[t.id]]

    def exit_tasks(self) -> List[TaskId]:
        return [t.id for t in self.tasks if not self._children[t.id]]


def build_graph(tasks: Sequence[TaskNode], edges: Sequence[DataEdge]) -> TaskGraph:
    """Validate tasks and edges and return an immutable TaskGraph.

    Raises EmptyGraph, DuplicateTaskId, SelfLoop, UnknownEdgeEndpoint,
    DuplicateEdge, or CycleDetected (reporting one cycle's task ids).
    """
    if not tasks:
        raise EmptyGraph("a task graph needs at least one task")
    by_id: Dict[TaskId, TaskNode] = {}
    for t in tasks:
        if t.id in by_id:
            raise DuplicateTaskId(f"duplicate task id {t.id!r}")
        if not 0 <= t.work < math.inf:
            kind = "negative" if t.work < 0 else "non-finite"
            raise InvalidValue(f"task {t.id!r} has {kind} work {t.work}")
        by_id[t.id] = t

    parents: Dict[TaskId, List[TaskId]] = {tid: [] for tid in by_id}
    inputs: Dict[TaskId, List[Tuple[TaskId, float]]] = {tid: [] for tid in by_id}
    children: Dict[TaskId, List[TaskId]] = {tid: [] for tid in by_id}
    seen: Set[Tuple[TaskId, TaskId]] = set()
    for e in edges:
        src, dst, nb = e.src, e.dst, e.bytes
        if src == dst:
            raise SelfLoop(f"self loop on task {src!r}")
        if src not in by_id or dst not in by_id:
            missing = src if src not in by_id else dst
            raise UnknownEdgeEndpoint(f"edge {src!r} -> {dst!r} names unknown task {missing!r}")
        if (src, dst) in seen:
            raise DuplicateEdge(f"duplicate edge {src!r} -> {dst!r}")
        if not 0 <= nb < math.inf:
            kind = "negative" if nb < 0 else "non-finite"
            raise InvalidValue(f"edge {src!r} -> {dst!r} has {kind} bytes {nb}")
        seen.add((src, dst))
        parents[dst].append(src)
        inputs[dst].append((src, nb))
        children[src].append(dst)

    # Kahn's algorithm, scanning in declaration order for determinism
    indeg = {tid: len(ps) for tid, ps in parents.items()}
    order = [tid for tid in by_id if indeg[tid] == 0]
    for tid in order:  # first in, first out: the loop reaches each task it appends
        for c in children[tid]:
            indeg[c] -= 1
            if indeg[c] == 0:
                order.append(c)
    if len(order) < len(by_id):
        # every task left over has a parent left over, so walking first such
        # parents must revisit a task; the revisited stretch is a cycle
        at: Dict[TaskId, int] = {}
        tid = next(t for t in by_id if indeg[t])
        while tid not in at:
            at[tid] = len(at)
            tid = next(q for q in parents[tid] if indeg[q])
        cycle = list(at)[at[tid]:]
        cycle.reverse()  # parent links were walked backwards
        raise CycleDetected(cycle)

    for links in (parents, inputs, children):  # to tuples in place, each list freed as it goes
        for tid, ls in links.items():
            links[tid] = tuple(ls)
    return TaskGraph(tuple(tasks), tuple(edges), by_id, parents, inputs, children, tuple(order))


def _longest(g: TaskGraph, weight: dict, zeroed: Container[TaskId] = ()) -> dict:
    """Per task, 0 if zeroed, else its weight plus the most over its parents (0 for none)."""
    out: dict = {}
    get, parents = out.__getitem__, g._parents
    for tid in g.topo_order:
        out[tid] = 0 if tid in zeroed else weight[tid] + max(map(get, parents[tid]), default=0)
    return out


def compute_heights(g: TaskGraph) -> HeightMap:
    """Height 1 for entry tasks, otherwise 1 + max over parents."""
    return _longest(g, dict.fromkeys(g.task_ids, 1))


def adjust_heights(g: TaskGraph, h: HeightMap, selected: TaskId) -> HeightMap:
    """Mark `selected` as scheduled (height 0) and recompute the rest.

    Returns a new map; the input is left untouched so the global heights
    survive into the next individual's generation. Tasks already at height 0
    stay at 0; every other task becomes 1 + max over its parents' new
    heights (entry tasks without scheduled status go back to 1). Handed back
    the map it last returned for g, the adjusted map of its own zero set, it
    re-derives only descendants of `selected`: no other task can change.
    """
    if h.get(selected) != 1:
        raise NotReady(f"task {selected!r} has height {h.get(selected)!r}, not 1")
    last = g._adjusted
    if h != last:
        new = _longest(g, dict.fromkeys(g.task_ids, 1), {selected, *(t for t in g.topo_order if h[t] == 0)})
    else:
        new = {**last, selected: 0}
        get, parents, order, bits = new.__getitem__, g._parents, g.topo_order, g._child_bits
        if bits is None:
            at = dict(zip(order, range(len(order))))
            bits = g._child_bits = {t: sum(1 << at[c] for c in g._children[t]) for t in order}
        dirty = bits[selected]  # the positions of the tasks with a changed parent
        while dirty:  # lowest first: a task's parents sit below it, so each is final by then
            tid = order[(dirty & -dirty).bit_length() - 1]
            dirty &= dirty - 1  # clears that lowest bit
            v = 1 + max(map(get, parents[tid]))
            if new[tid] and v != new[tid]:
                new[tid] = v
                dirty |= bits[tid]
    g._adjusted = dict(new)
    return new


def ready_tasks(g: TaskGraph, h: HeightMap) -> List[TaskId]:
    """Tasks whose current adjusted height is exactly 1, in declaration order."""
    return [tid for tid in g.task_ids if h[tid] == 1]


def is_valid_order(g: TaskGraph, order: Sequence[TaskId]) -> bool:
    """True iff `order` is a permutation of all tasks with parents first."""
    if len(order) != len(g):
        return False
    parents, seen = g._parents, set()
    for tid in order:  # of the right length, an order of known, unrepeated tasks holds every task
        ps = parents.get(tid)
        if ps is None or tid in seen or not seen.issuperset(ps):
            return False
        seen.add(tid)
    return True
