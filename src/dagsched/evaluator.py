"""Schedule simulation: start/finish per task, makespan, and a lower bound."""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Dict, List, Optional

from .dag import TaskGraph, TaskId, _longest, is_valid_order
from .errors import InvalidOrder, InvalidValue
from .platform import MachineId, Platform, _link, execution_time, transfer_time  # noqa: F401  (tracing wraps transfer_time)


class CommMode(enum.Enum):
    INCLUDE_TRANSFER = "include"
    IGNORE_TRANSFER = "ignore"


def _include_transfers(mode: CommMode) -> bool:
    if not isinstance(mode, CommMode):
        raise InvalidValue(f"mode must be a CommMode, got {mode!r}")
    return mode is CommMode.INCLUDE_TRANSFER


@dataclass
class Chromosome:
    """One candidate schedule: a valid task order plus a machine per position."""

    order: List[TaskId]
    machines: List[MachineId]
    fitness: Optional[float] = None

    def copy(self) -> "Chromosome":
        return Chromosome(list(self.order), list(self.machines), self.fitness)


@dataclass
class Timeline:
    start: Dict[TaskId, float] = field(default_factory=dict)
    finish: Dict[TaskId, float] = field(default_factory=dict)
    machine: Dict[TaskId, MachineId] = field(default_factory=dict)
    makespan: float = 0.0


def ready_time(g: TaskGraph, p: Platform, tl: Timeline, tid: TaskId, mid: MachineId, include: bool) -> float:
    """When the last input of task tid, whose parents are in tl, reaches machine mid.

    Data from a parent on mid itself, or from any parent when include is
    false, is ready when that parent finishes; a task without parents is
    ready at 0.
    """
    ready, finish, host, into = 0.0, tl.finish, tl.machine, p._into
    for q, nbytes in g._inputs[tid]:
        t = finish[q]
        if include and (src := host[q]) != mid:
            try:
                lat, bw = into[mid][src]
            except KeyError:  # unknown machine or no link
                lat, bw = _link(p, src, mid)
            t += lat + nbytes / bw  # transfer_time's grouping, so the float is the same
        if t > ready:
            ready = t
    return ready


def evaluate(g: TaskGraph, p: Platform, c: Chromosome,
             mode: CommMode = CommMode.INCLUDE_TRANSFER) -> Timeline:
    """Simulate the chromosome and stamp its fitness with the makespan.

    Positions are processed in chromosome order; a task starts at the later of its
    data-ready time and the finish of its machine's previous task in that order.
    """
    include = _include_transfers(mode)
    if len(c.machines) != len(c.order) or not is_valid_order(g, c.order):
        raise InvalidOrder("chromosome needs every task once, parents first, and one machine per task")
    tl = Timeline()
    available: Dict[MachineId, float] = {}
    for tid, mid in zip(c.order, c.machines):
        ready, free = ready_time(g, p, tl, tid, mid, include), available.get(mid, 0.0)
        tl.start[tid] = start = ready if ready > free else free
        tl.finish[tid] = end = start + execution_time(p, g._by_id[tid], mid)
        tl.machine[tid] = mid
        available[mid] = end
    tl.makespan = max(tl.finish.values())
    c.fitness = tl.makespan
    return tl


def lower_bound(g: TaskGraph, p: Platform) -> float:
    """Longest root-to-exit path using each task's best execution time.

    Ignores communication and machine contention, so no schedule can beat it.
    """
    best = {tid: min(execution_time(p, g.task(tid), m) for m in p.machine_ids) for tid in g.topo_order}
    return max(_longest(g, best).values())
