"""Height-based genetic algorithm for dependent-task scheduling.

Population generation relies on the adjust-height trick: a chromosome order
is grown by repeatedly picking a random ready task (adjusted height 1) and
zeroing it out, which exposes its now-unblocked children. Both crossover
operators keep each child's task order equal to its parent's, and mutation
only swaps positions that provably cannot break a dependency, so every
chromosome the GA ever produces is evaluable.
"""

from __future__ import annotations

import enum
import random
import time
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Tuple

from .dag import HeightMap, TaskGraph, TaskId, adjust_heights, compute_heights, ready_tasks
from .errors import InvalidValue
from .evaluator import Chromosome, CommMode, Timeline, evaluate
from .platform import Platform, execution_time


class CrossoverMode(enum.Enum):
    ORDER_PRESERVING = "order"
    TASK_ALIGNED = "aligned"
    MIXED = "mixed"


@dataclass
class GaConfig:
    pop_size: int = 100
    max_iters: int = 50
    stagnation_limit: int = 50
    pairs_per_generation: Optional[int] = None  # None -> pop_size // 4
    crossover_mode: CrossoverMode = CrossoverMode.MIXED
    mutation_rate: float = 0.2
    rng_seed: int = 0

    def pairs(self) -> int:
        if self.pairs_per_generation is not None:
            return self.pairs_per_generation
        return max(1, self.pop_size // 4)

    def validate(self) -> None:
        if self.pop_size < 2:
            raise InvalidValue("pop_size must be >= 2")
        if self.pairs() < 1:
            raise InvalidValue("pairs_per_generation must be >= 1")
        if not 0.0 <= self.mutation_rate <= 1.0:
            raise InvalidValue("mutation_rate must be in [0, 1]")
        if self.max_iters < 0 or self.stagnation_limit < 1:
            raise InvalidValue("max_iters must be >= 0 and stagnation_limit >= 1")


@dataclass
class RunStats:
    iterations: int = 0
    best_series: List[float] = field(default_factory=list)
    wall_time_s: float = 0.0


def _walk(g: TaskGraph, h: HeightMap, pick: Callable[[List[TaskId]], Tuple[TaskId, str]]) -> Chromosome:
    """Grow a chromosome by the ready-task process; h is never modified.

    pick gets the tasks of adjusted height 1, in declaration order, and returns
    the (task, machine) to append next.
    """
    order: List[TaskId] = []
    machines: List[str] = []
    ready = ready_tasks(g, h)
    while ready:
        tid, mid = pick(ready)
        order.append(tid)
        machines.append(mid)
        h = adjust_heights(g, h, tid)
        ready = ready_tasks(g, h)
    return Chromosome(order, machines)


def generate_individual(g: TaskGraph, p: Platform, h: HeightMap, rng: random.Random) -> Chromosome:
    """Random chromosome: a uniform ready task, then a uniform machine."""
    mids = p.machine_ids
    return _walk(g, h, lambda ready: (ready[rng.randrange(len(ready))], mids[rng.randrange(len(mids))]))


def load_balanced_individual(g: TaskGraph, p: Platform, h: HeightMap) -> Chromosome:
    """Deterministic seed: first ready task, least-loaded machine."""
    load: Dict[str, float] = {m: 0.0 for m in p.machine_ids}

    def pick(ready: List[TaskId]) -> Tuple[TaskId, str]:
        tid = ready[0]
        # least accumulated execution time; ties go to the earliest-declared machine
        mid = min(p.machine_ids, key=lambda m: load[m])
        load[mid] += execution_time(p, g.task(tid), mid)
        return tid, mid

    return _walk(g, h, pick)


def rank_select_pairs(members: List[Chromosome], n_pairs: int,
                      rng: random.Random) -> List[Tuple[Chromosome, Chromosome]]:
    """Ranked selection: best member gets weight N, worst gets 1.

    Members with equal fitness share the mean of their ranks, so an all-equal
    population is sampled uniformly. The two parents of a pair are always
    distinct members.
    """
    idx = sorted(range(len(members)), key=lambda i: members[i].fitness)
    n = len(idx)
    weights = [float(n - r) for r in range(n)]  # rank N for the best, down to 1
    at = 0
    while at < n:
        end = at
        while end < n and members[idx[end]].fitness == members[idx[at]].fitness:
            end += 1
        if end - at > 1:
            mean = sum(weights[at:end]) / (end - at)
            weights[at:end] = [mean] * (end - at)
        at = end
    pairs = []
    for _ in range(n_pairs):
        a = rng.choices(idx, weights=weights)[0]
        b = a
        while b == a:
            b = rng.choices(idx, weights=weights)[0]
        pairs.append((members[a], members[b]))
    return pairs


def crossover_order_preserving(p1: Chromosome, p2: Chromosome, point: int) -> Tuple[Chromosome, Chromosome]:
    """Swap machine genes position-wise from `point` on; orders untouched."""
    c1 = Chromosome(list(p1.order), p1.machines[:point] + p2.machines[point:])
    c2 = Chromosome(list(p2.order), p2.machines[:point] + p1.machines[point:])
    return c1, c2


def crossover_task_aligned(p1: Chromosome, p2: Chromosome, point: int) -> Tuple[Chromosome, Chromosome]:
    """Swap machines matched by task identity for tasks at positions >= point in p1."""
    swap = set(p1.order[point:])
    m1 = {t: m for t, m in zip(p1.order, p1.machines)}
    m2 = {t: m for t, m in zip(p2.order, p2.machines)}
    c1 = Chromosome(list(p1.order), [m2[t] if t in swap else m for t, m in zip(p1.order, p1.machines)])
    c2 = Chromosome(list(p2.order), [m1[t] if t in swap else m for t, m in zip(p2.order, p2.machines)])
    return c1, c2


def _swap_is_safe(g: TaskGraph, order: List[TaskId], i: int, j: int) -> bool:
    # moving order[i] after the i..j window must not pass one of its
    # descendants, and moving order[j] to the front of the window must not
    # pass one of its ancestors
    ti, tj = order[i], order[j]
    for k in range(i + 1, j + 1):
        if order[k] in g.descendants(ti):
            return False
    for k in range(i, j):
        if tj in g.descendants(order[k]):
            return False
    return True


def mutate(g: TaskGraph, c: Chromosome, rng: random.Random) -> Chromosome:
    """Swap two dependency-safe positions (tasks travel with their machines).

    Gives up and returns the chromosome unchanged after n^2 failed draws.
    """
    n = len(c.order)
    if n < 2:
        return c
    for _ in range(n * n):
        i = rng.randrange(n)
        j = rng.randrange(n)
        if i == j:
            continue
        if i > j:
            i, j = j, i
        if _swap_is_safe(g, c.order, i, j):
            out = Chromosome(list(c.order), list(c.machines))
            out.order[i], out.order[j] = out.order[j], out.order[i]
            out.machines[i], out.machines[j] = out.machines[j], out.machines[i]
            return out
    return c


def update_population(members: List[Chromosome], children: List[Chromosome]) -> List[Chromosome]:
    """Merge children, keep the best len(members); incumbents win fitness ties.

    The stable, elitist merge keeps the result sorted with the best chromosome
    seen so far first.
    """
    return sorted(members + children, key=lambda c: c.fitness)[:len(members)]


def run(g: TaskGraph, p: Platform, cfg: GaConfig,
        mode: CommMode = CommMode.INCLUDE_TRANSFER) -> Tuple[Chromosome, Timeline, RunStats]:
    """Full GA run; fully reproducible from cfg.rng_seed."""
    cfg.validate()
    t0 = time.perf_counter()
    rng = random.Random(cfg.rng_seed)
    heights = compute_heights(g)
    n = len(g)

    members = [load_balanced_individual(g, p, heights)]
    while len(members) < cfg.pop_size:
        members.append(generate_individual(g, p, heights, rng))
    for c in members:
        evaluate(g, p, c, mode)
    members.sort(key=lambda c: c.fitness)
    # (even pair, odd pair) operators; built per run so a rebound module name takes effect
    order, aligned = crossover_order_preserving, crossover_task_aligned
    ops = {CrossoverMode.ORDER_PRESERVING: (order, order), CrossoverMode.TASK_ALIGNED: (aligned, aligned),
           CrossoverMode.MIXED: (order, aligned)}[cfg.crossover_mode]

    stats = RunStats(best_series=[members[0].fitness])
    stagnant = 0
    for _ in range(cfg.max_iters):
        prev_best = members[0].fitness
        children: List[Chromosome] = []
        for k, (a, b) in enumerate(rank_select_pairs(members, cfg.pairs(), rng)):
            if n > 1:
                kids = ops[k % 2](a, b, rng.randint(1, n - 1))
            else:
                kids = (a.copy(), b.copy())
            for child in kids:
                if rng.random() < cfg.mutation_rate:
                    child = mutate(g, child, rng)
                evaluate(g, p, child, mode)
                children.append(child)
        members = update_population(members, children)
        stats.iterations += 1
        stats.best_series.append(members[0].fitness)
        stagnant = 0 if members[0].fitness < prev_best else stagnant + 1
        if stagnant >= cfg.stagnation_limit:
            break

    best = members[0]
    timeline = evaluate(g, p, best.copy(), mode)
    stats.wall_time_s = time.perf_counter() - t0
    return best, timeline, stats
