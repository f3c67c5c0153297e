"""Schedule simulation: start/finish per task, makespan, and a lower bound."""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from .dag import TaskGraph, TaskId, is_valid_order
from .errors import InvalidOrder
from .platform import MachineId, Platform, execution_time, transfer_time


class CommMode(enum.Enum):
    INCLUDE_TRANSFER = "include"
    IGNORE_TRANSFER = "ignore"


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


def place(g: TaskGraph, p: Platform, tl: Timeline, tid: TaskId, mid: MachineId,
          free_at: float, include: bool) -> Tuple[float, float]:
    """(start, finish) of task tid on machine mid, whose parents are in tl.

    The task starts at the later of its data-ready time and free_at, the time
    machine mid becomes available. Data from a parent on mid itself is ready
    when that parent finishes.
    """
    start = free_at
    for q in g.parents(tid):
        t = tl.finish[q]
        if include:
            src = tl.machine[q]
            if src != mid:
                t += transfer_time(p, g.edge_bytes(q, tid), src, mid)
        if t > start:
            start = t
    return start, start + execution_time(p, g.task(tid), mid)


def evaluate(g: TaskGraph, p: Platform, c: Chromosome,
             mode: CommMode = CommMode.INCLUDE_TRANSFER) -> Timeline:
    """Simulate the chromosome and stamp its fitness with the makespan.

    Positions are processed in chromosome order; a machine becomes available
    only after its previously assigned task (in that order) finishes.
    """
    if len(c.machines) != len(c.order) or not is_valid_order(g, c.order):
        raise InvalidOrder("chromosome needs every task once, parents first, and one machine per task")
    tl = Timeline()
    available: Dict[MachineId, float] = {}
    include = mode is CommMode.INCLUDE_TRANSFER
    for tid, mid in zip(c.order, c.machines):
        start, end = place(g, p, tl, tid, mid, available.get(mid, 0.0), include)
        tl.start[tid] = start
        tl.finish[tid] = end
        tl.machine[tid] = mid
        available[mid] = end
    tl.makespan = max(tl.finish.values())
    c.fitness = tl.makespan
    return tl


def lower_bound(g: TaskGraph, p: Platform) -> float:
    """Longest root-to-exit path using each task's best execution time.

    Ignores communication and machine contention, so no schedule can beat it.
    """
    best: Dict[TaskId, float] = {}
    longest: Dict[TaskId, float] = {}
    for tid in g.topo_order:
        node = g.task(tid)
        best[tid] = min(execution_time(p, node, m) for m in p.machine_ids)
        longest[tid] = best[tid] + max((longest[q] for q in g.parents(tid)), default=0.0)
    return max(longest.values())
