"""min-min baseline adapted to precedence constraints."""

from __future__ import annotations

from typing import Dict, List, Tuple

from .dag import TaskGraph, TaskId
# evaluate and transfer_time stay bound, though uncalled here: perfbench/tracing.py wraps these names
from .evaluator import Chromosome, CommMode, Timeline, _include_transfers, evaluate, ready_time  # noqa: F401
from .platform import Platform, execution_time, transfer_time  # noqa: F401


def min_min_schedule(g: TaskGraph, p: Platform,
                     mode: CommMode = CommMode.INCLUDE_TRANSFER) -> Tuple[Chromosome, Timeline]:
    """Greedy: repeatedly commit the ready (task, machine) pair that finishes first.

    Pairs are timed as ``evaluate`` times them, so the Timeline is exactly what
    ``evaluate`` reports for the chromosome; ties go to the first task, then the
    first machine, in declaration order. A ready task's parents never move, so
    its data-ready and run times are computed once, with n·m ``ready_time`` and
    ``execution_time`` calls in all; a commit re-times the committed machine's
    column of each ready row by arithmetic alone.
    """
    include = _include_transfers(mode)
    tl = Timeline()
    ids, mids = g.task_ids, p.machine_ids
    rank = {tid: r for r, tid in enumerate(ids)}
    waiting = {tid: len(g.parents(tid)) for tid in ids}
    available = [0.0] * len(mids)
    # ready task -> its data-ready, run and finish time on each machine
    rows: Dict[TaskId, Tuple[List[float], List[float], List[float]]] = {}
    # ready task -> (finish, rank, machine index) of its row's first minimum;
    # the least of these is the first minimum over all ready pairs
    best: Dict[TaskId, Tuple[float, int, int]] = {}
    fresh = [tid for tid in ids if not waiting[tid]]
    while len(tl.machine) < len(ids):
        for tid in fresh:
            ready, run, fin = rows[tid] = [], [], []
            for m, a in zip(mids, available):  # task then machine: a missing link fails at its first pair
                ready.append(r := ready_time(g, p, tl, tid, m, include))
                run.append(x := execution_time(p, g._by_id[tid], m))
                fin.append((r if r > a else a) + x)
            f = min(fin)
            best[tid] = f, rank[tid], fin.index(f)
        _, r, k = min(best.values())
        tid, mid = ids[r], mids[k]
        del best[tid]
        ready, _, fin = rows.pop(tid)
        a = available[k]
        tl.start[tid], tl.finish[tid] = ready[k] if ready[k] > a else a, fin[k]
        tl.machine[tid] = mid
        available[k] = end = fin[k]
        for t, (ready, run, fin) in rows.items():
            r = ready[k]
            fin[k] = (r if r > end else end) + run[k]
            if best[t][2] == k:  # the row's minimum moved: find its first minimum again
                f = min(fin)
                best[t] = f, rank[t], fin.index(f)
            # a minimum elsewhere stands: available[k] only grows, so column k only grows
        fresh = []
        for c in g.children(tid):
            waiting[c] -= 1
            if not waiting[c]:
                fresh.append(c)
    tl.makespan = max(tl.finish.values())
    return Chromosome(list(tl.machine), list(tl.machine.values()), tl.makespan), tl
