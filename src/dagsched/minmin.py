"""min-min baseline adapted to precedence constraints."""

from __future__ import annotations

from typing import Dict, List, Tuple

from .dag import TaskGraph, TaskId
# evaluate, execution_time and transfer_time stay bound: perfbench/tracing.py wraps these names
from .evaluator import Chromosome, CommMode, Timeline, evaluate, place  # noqa: F401
from .platform import MachineId, Platform, execution_time, transfer_time  # noqa: F401


def min_min_schedule(g: TaskGraph, p: Platform,
                     mode: CommMode = CommMode.INCLUDE_TRANSFER) -> Tuple[Chromosome, Timeline]:
    """Greedy: repeatedly commit the ready (task, machine) pair that finishes first.

    Each pair is timed by the evaluator's kernel, so the returned Timeline is
    exactly what ``evaluate`` reports for the returned chromosome. Ties are
    broken by task then machine declaration order; the whole procedure is
    deterministic.
    """
    include = mode is CommMode.INCLUDE_TRANSFER
    tl = Timeline()
    available: Dict[MachineId, float] = {m: 0.0 for m in p.machine_ids}
    unscheduled_parents = {tid: len(g.parents(tid)) for tid in g.task_ids}
    order: List[TaskId] = []
    machines: List[MachineId] = []

    while len(order) < len(g):
        best = None  # (finish, task, machine, start)
        for tid in g.task_ids:
            if tid in tl.machine or unscheduled_parents[tid] > 0:
                continue
            for mid in p.machine_ids:
                start, end = place(g, p, tl, tid, mid, available[mid], include)
                if best is None or end < best[0]:
                    best = (end, tid, mid, start)
        end, tid, mid, start = best
        tl.start[tid] = start
        tl.finish[tid] = end
        tl.machine[tid] = mid
        available[mid] = end
        for c in g.children(tid):
            unscheduled_parents[c] -= 1
        order.append(tid)
        machines.append(mid)

    tl.makespan = max(tl.finish.values())
    return Chromosome(order, machines, tl.makespan), tl
