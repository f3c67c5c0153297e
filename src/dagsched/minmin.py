"""min-min baseline adapted to precedence constraints."""

from __future__ import annotations

from typing import Dict, List, Tuple

from .dag import TaskGraph, TaskId
from .errors import InvalidValue
# evaluate, execution_time and transfer_time stay bound: perfbench/tracing.py wraps these names
from .evaluator import Chromosome, CommMode, Timeline, evaluate, place  # noqa: F401
from .platform import Platform, execution_time, transfer_time  # noqa: F401


def min_min_schedule(g: TaskGraph, p: Platform,
                     mode: CommMode = CommMode.INCLUDE_TRANSFER) -> Tuple[Chromosome, Timeline]:
    """Greedy: repeatedly commit the ready (task, machine) pair that finishes first.

    Pairs are timed by the evaluator's kernel, so the Timeline is exactly what
    ``evaluate`` reports for the chromosome; ties go to the first task, then the
    first machine, in declaration order. A ready task's parents never move, so a
    step re-places only the committed machine's column of each ready row.
    """
    if not isinstance(mode, CommMode):
        raise InvalidValue(f"mode must be a CommMode, got {mode!r}")
    include = mode is CommMode.INCLUDE_TRANSFER
    tl = Timeline()
    ids, mids = g.task_ids, p.machine_ids
    rank = {tid: r for r, tid in enumerate(ids)}
    waiting = {tid: len(g.parents(tid)) for tid in ids}
    available = [0.0] * len(mids)
    rows: Dict[TaskId, List[Tuple[float, float]]] = {}  # ready task -> (start, finish) per machine
    # ready task -> (finish, rank, machine index) of its row's first minimum;
    # the least of these is the first minimum over all ready pairs
    best: Dict[TaskId, Tuple[float, int, int]] = {}
    fresh = [tid for tid in ids if not waiting[tid]]
    while len(tl.machine) < len(ids):
        for tid in fresh:
            row = rows[tid] = []
            for k, m in enumerate(mids):
                row.append(place(g, p, tl, tid, m, available[k], include))
                if not k or row[k][1] < b[0]:  # machine 0 starts the row's minimum
                    b = row[k][1], rank[tid], k
            best[tid] = b
        _, r, k = min(best.values())
        tid, mid = ids[r], mids[k]
        del best[tid]
        tl.start[tid], tl.finish[tid] = rows.pop(tid)[k]
        tl.machine[tid] = mid
        available[k] = end = tl.finish[tid]
        for t, row in rows.items():
            row[k] = place(g, p, tl, t, mid, end, include)
            if best[t][2] == k:  # the row's minimum moved: scan the row again
                for j, (_, f) in enumerate(row):
                    if not j or f < b[0]:  # as when the row was placed
                        b = f, rank[t], j
                best[t] = b
            # a minimum elsewhere stands: available[k] only grows, so column k only grows
        fresh = []
        for c in g.children(tid):
            waiting[c] -= 1
            if not waiting[c]:
                fresh.append(c)
    tl.makespan = max(tl.finish.values())
    return Chromosome(list(tl.machine), list(tl.machine.values()), tl.makespan), tl
