"""Task-graph model: validation, heights, and dependency queries.

A task graph is a DAG whose nodes carry an abstract amount of compute work
and whose edges carry the data volume handed from parent to child. Heights
drive dependency-safe order generation: entry tasks have height 1, every
other task sits one level below its deepest parent.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, FrozenSet, List, Sequence, Tuple

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
    """

    def __init__(self, tasks: Tuple[TaskNode, ...], edges: Tuple[DataEdge, ...],
                 parents: Dict[TaskId, Tuple[TaskId, ...]],
                 children: Dict[TaskId, Tuple[TaskId, ...]],
                 topo_order: Tuple[TaskId, ...]):
        self.tasks = tasks
        self.edges = edges
        self._parents = parents
        self._children = children
        self.topo_order = topo_order
        self._by_id = {t.id: t for t in tasks}
        self._bytes = {(e.src, e.dst): e.bytes for e in edges}
        self._descendants: Dict[TaskId, FrozenSet[TaskId]] = {}

    @property
    def task_ids(self) -> Tuple[TaskId, ...]:
        return tuple(t.id for t in self.tasks)

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

    def edge_bytes(self, src: TaskId, dst: TaskId) -> float:
        return self._bytes[(src, dst)]

    def entry_tasks(self) -> List[TaskId]:
        return [t.id for t in self.tasks if not self._parents[t.id]]

    def exit_tasks(self) -> List[TaskId]:
        return [t.id for t in self.tasks if not self._children[t.id]]

    def descendants(self, tid: TaskId) -> FrozenSet[TaskId]:
        """All tasks reachable from tid by a path of length >= 1 (cached)."""
        cached = self._descendants.get(tid)
        if cached is None:
            seen = set()
            stack = list(self._children[tid])
            while stack:
                cur = stack.pop()
                if cur not in seen:
                    seen.add(cur)
                    stack.extend(self._children[cur])
            cached = frozenset(seen)
            self._descendants[tid] = cached
        return cached


def _find_cycle(remaining: Sequence[TaskId], parents: Dict[TaskId, Tuple[TaskId, ...]]) -> List[TaskId]:
    # every remaining node has a remaining parent, so walking parent links
    # must revisit a node; the revisited stretch is a cycle
    rem = set(remaining)
    path = [next(iter(remaining))]
    seen = {path[0]: 0}
    while True:
        cur = path[-1]
        nxt = next(p for p in parents[cur] if p in rem)
        if nxt in seen:
            cycle = path[seen[nxt]:]
            cycle.reverse()  # parent links were walked backwards
            return cycle
        seen[nxt] = len(path)
        path.append(nxt)


def build_graph(tasks: Sequence[TaskNode], edges: Sequence[DataEdge]) -> TaskGraph:
    """Validate tasks and edges and return an immutable TaskGraph.

    Raises EmptyGraph, DuplicateTaskId, SelfLoop, UnknownEdgeEndpoint,
    DuplicateEdge, or CycleDetected (reporting one cycle's task ids).
    """
    if not tasks:
        raise EmptyGraph("a task graph needs at least one task")
    seen_ids = set()
    for t in tasks:
        if t.id in seen_ids:
            raise DuplicateTaskId(f"duplicate task id {t.id!r}")
        if t.work < 0:
            raise InvalidValue(f"task {t.id!r} has negative work {t.work}")
        seen_ids.add(t.id)

    parents: Dict[TaskId, List[TaskId]] = {t.id: [] for t in tasks}
    children: Dict[TaskId, List[TaskId]] = {t.id: [] for t in tasks}
    seen_edges = set()
    for e in edges:
        if e.src == e.dst:
            raise SelfLoop(f"self loop on task {e.src!r}")
        if e.src not in seen_ids or e.dst not in seen_ids:
            missing = e.src if e.src not in seen_ids else e.dst
            raise UnknownEdgeEndpoint(f"edge {e.src!r} -> {e.dst!r} names unknown task {missing!r}")
        if (e.src, e.dst) in seen_edges:
            raise DuplicateEdge(f"duplicate edge {e.src!r} -> {e.dst!r}")
        if e.bytes < 0:
            raise InvalidValue(f"edge {e.src!r} -> {e.dst!r} has negative bytes {e.bytes}")
        seen_edges.add((e.src, e.dst))
        parents[e.dst].append(e.src)
        children[e.src].append(e.dst)

    # Kahn's algorithm, scanning in declaration order for determinism
    indeg = {t.id: len(parents[t.id]) for t in tasks}
    order: List[TaskId] = []
    ready = [t.id for t in tasks if indeg[t.id] == 0]
    while ready:
        tid = ready.pop(0)
        order.append(tid)
        for c in children[tid]:
            indeg[c] -= 1
            if indeg[c] == 0:
                ready.append(c)
    if len(order) < len(tasks):
        remaining = [t.id for t in tasks if indeg[t.id] > 0]
        raise CycleDetected(_find_cycle(remaining, {k: tuple(v) for k, v in parents.items()}))

    return TaskGraph(
        tasks=tuple(tasks),
        edges=tuple(edges),
        parents={k: tuple(v) for k, v in parents.items()},
        children={k: tuple(v) for k, v in children.items()},
        topo_order=tuple(order),
    )


def compute_heights(g: TaskGraph) -> HeightMap:
    """Height 1 for entry tasks, otherwise 1 + max over parents."""
    h: HeightMap = {}
    for tid in g.topo_order:
        ps = g.parents(tid)
        h[tid] = 1 + max((h[p] for p in ps), default=0)
    return h


def adjust_heights(g: TaskGraph, h: HeightMap, selected: TaskId) -> HeightMap:
    """Mark `selected` as scheduled (height 0) and recompute the rest.

    Returns a new map; the input is left untouched so the global heights
    survive into the next individual's generation. Tasks already at height 0
    stay at 0; every other task becomes 1 + max over its parents' new
    heights (entry tasks without scheduled status go back to 1).
    """
    if h.get(selected) != 1:
        raise NotReady(f"task {selected!r} has height {h.get(selected)!r}, not 1")
    new: HeightMap = {}
    for tid in g.topo_order:
        if tid == selected or h[tid] == 0:
            new[tid] = 0
        else:
            new[tid] = 1 + max((new[p] for p in g.parents(tid)), default=0)
    return new


def ready_tasks(g: TaskGraph, h: HeightMap) -> List[TaskId]:
    """Tasks whose current adjusted height is exactly 1, in declaration order."""
    return [tid for tid in g.task_ids if h[tid] == 1]


def is_ancestor(g: TaskGraph, a: TaskId, b: TaskId) -> bool:
    """True iff a directed path a -> ... -> b exists (false for a == b)."""
    return b in g.descendants(a)


def is_valid_order(g: TaskGraph, order: Sequence[TaskId]) -> bool:
    """True iff `order` is a permutation of all tasks with parents first."""
    if len(order) != len(g) or set(order) != set(g.task_ids):
        return False
    pos = {tid: i for i, tid in enumerate(order)}
    return all(pos[e.src] < pos[e.dst] for e in g.edges)
