"""Height-based genetic algorithm for dependent-task scheduling.

Population generation relies on the adjust-height trick: a chromosome order
is grown by repeatedly picking a random ready task (adjusted height 1) and
zeroing it out, which exposes its now-unblocked children. No other task can
become ready, so the walk scans for ready tasks once and then grows the list
from those children. Both crossover operators keep each child's task order
equal to its parent's, and mutation only swaps positions that provably cannot
break a dependency, so every chromosome the GA ever produces is evaluable.
"""

from __future__ import annotations

import enum
import random
import time
from bisect import bisect, insort
from dataclasses import dataclass, field
from itertools import accumulate, groupby
from typing import Callable, Dict, List, Optional, Tuple

from .dag import HeightMap, TaskGraph, TaskId, adjust_heights, compute_heights, ready_tasks
from .errors import InvalidValue
from .evaluator import Chromosome, CommMode, Timeline, _include_transfers, evaluate
from .platform import Platform, execution_time


class CrossoverMode(enum.Enum):
    ORDER_PRESERVING = "order"
    TASK_ALIGNED = "aligned"
    MIXED = "mixed"


@dataclass(frozen=True)
class GaConfig:
    """GA settings, checked when built: one that exists is valid; vary a field with dataclasses.replace."""

    pop_size: int = 100
    max_iters: int = 50
    stagnation_limit: int = 50
    pairs_per_generation: Optional[int] = None  # None -> pop_size // 4
    crossover_mode: CrossoverMode = CrossoverMode.MIXED
    mutation_rate: float = 0.2
    rng_seed: int = 0

    def pairs(self) -> int:
        return self.pairs_per_generation if self.pairs_per_generation is not None else max(1, self.pop_size // 4)

    def __post_init__(self) -> None:
        for name in ("pop_size", "max_iters", "stagnation_limit", "pairs_per_generation", "rng_seed"):
            value = getattr(self, name)
            if type(value) is not int and (name, value) != ("pairs_per_generation", None):
                raise InvalidValue(f"{name} must be an int, got {value!r}")
        if not isinstance(self.crossover_mode, CrossoverMode):
            raise InvalidValue(f"crossover_mode must be a CrossoverMode, got {self.crossover_mode!r}")
        if self.pop_size < 2:
            raise InvalidValue("pop_size must be >= 2")
        if self.pairs() < 1:
            raise InvalidValue("pairs_per_generation must be >= 1")
        if type(self.mutation_rate) not in (int, float) or not 0.0 <= self.mutation_rate <= 1.0:
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
    rank, ready = dict(zip(g.task_ids, range(len(g)))), ready_tasks(g, h)
    while ready:
        tid, mid = pick(ready)
        order.append(tid)
        machines.append(mid)
        h = adjust_heights(g, h, tid)
        ready.remove(tid)
        for c in g.children(tid):
            if h[c] == 1:
                insort(ready, c, key=rank.__getitem__)
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
    distinct members. Each draw is `choices(idx, cum_weights=cum)`'s own draw
    written out, so the stream depends on `random()` alone.
    """
    if len(members) < 2:  # a lone member would redraw its partner forever
        raise InvalidValue(f"rank selection needs at least two members, got {len(members)}")
    fitness = [c.fitness for c in members]
    idx = sorted(range(len(members)), key=fitness.__getitem__)
    n = len(idx)
    # rank N for the best, down to 1; a tie group of k at rank offset `at`
    # shares the mean of its ranks, n - at - (k - 1) / 2, exact in floats
    weights: List[float] = []
    for _, group in groupby(map(fitness.__getitem__, idx)):
        k, at = len(list(group)), len(weights)
        weights += [n - at - (k - 1) / 2] * k
    cum = list(accumulate(weights))  # what choices(weights=) would build on every draw
    total, random_ = cum[-1] + 0.0, rng.random
    pairs = []
    for _ in range(n_pairs):
        a = idx[bisect(cum, random_() * total, 0, n - 1)]
        b = a
        while b == a:
            b = idx[bisect(cum, random_() * total, 0, n - 1)]
        pairs.append((members[a], members[b]))
    return pairs


def crossover_order_preserving(p1: Chromosome, p2: Chromosome, point: int) -> Tuple[Chromosome, Chromosome]:
    """Swap machine genes position-wise from `point` on; orders untouched."""
    c1 = Chromosome(list(p1.order), p1.machines[:point] + p2.machines[point:])
    c2 = Chromosome(list(p2.order), p2.machines[:point] + p1.machines[point:])
    return c1, c2


def crossover_task_aligned(p1: Chromosome, p2: Chromosome, point: int) -> Tuple[Chromosome, Chromosome]:
    """Swap machines matched by task identity for tasks at positions >= point in p1."""
    m1 = dict(zip(p1.order[point:], p1.machines[point:]))  # p1's genes for the swapped tasks
    m2 = dict(zip(p2.order, p2.machines))
    c1 = Chromosome(list(p1.order), p1.machines[:point] + list(map(m2.__getitem__, p1.order[point:])))
    c2 = Chromosome(list(p2.order), list(map(m1.get, p2.order, p2.machines)))  # m1's gene, else p2's own
    return c1, c2


def mutate(g: TaskGraph, c: Chromosome, rng: random.Random) -> Chromosome:
    """Swap two dependency-safe positions (tasks travel with their machines).

    In a valid order, swapping i < j is safe iff no child of order[i] sits in
    (i, j] and no parent of order[j] in [i, j): positions rise along every
    path, so a descendant of order[i] (an ancestor of order[j]) inside the
    window is reached through a child (a parent) inside it. One pass over the
    edges thus makes each draw's test O(1).

    Gives up and returns the chromosome unchanged after n^2 failed draws.
    """
    n = len(c.order)
    if n < 2:
        return c
    pos = {t: k for k, t in enumerate(c.order)}
    first_child = [n] * n  # earliest position of a child of order[k]
    last_parent = [-1] * n  # latest position of a parent of order[k]
    for e in g.edges:
        a, b = pos[e.src], pos[e.dst]
        if b < first_child[a]:
            first_child[a] = b
        if a > last_parent[b]:
            last_parent[b] = a
    for _ in range(n * n):
        i = rng.randrange(n)
        j = rng.randrange(n)
        if i == j:
            continue
        if i > j:
            i, j = j, i
        if j < first_child[i] and last_parent[j] < i:
            out = Chromosome(list(c.order), list(c.machines))
            out.order[i], out.order[j] = out.order[j], out.order[i]
            out.machines[i], out.machines[j] = out.machines[j], out.machines[i]
            return out
    return c


def evaluate_all(g: TaskGraph, p: Platform, chromosomes: List[Chromosome], mode: CommMode) -> None:
    """One `evaluate` per chromosome, in list order; it draws no random numbers, so a batch keeps the stream."""
    for c in chromosomes:
        evaluate(g, p, c, mode)


def update_population(members: List[Chromosome], children: List[Chromosome]) -> List[Chromosome]:
    """Merge children, keep the best len(members); incumbents win fitness ties.

    The stable, elitist merge keeps the result sorted with the best chromosome
    seen so far first.
    """
    return sorted(members + children, key=lambda c: c.fitness)[:len(members)]


def run(g: TaskGraph, p: Platform, cfg: GaConfig,
        mode: CommMode = CommMode.INCLUDE_TRANSFER) -> Tuple[Chromosome, Timeline, RunStats]:
    """Full GA run; fully reproducible from cfg.rng_seed."""
    _include_transfers(mode)  # a bad mode fails here, not after the population's walks
    t0 = time.perf_counter()
    rng = random.Random(cfg.rng_seed)
    heights = compute_heights(g)

    members = [load_balanced_individual(g, p, heights)]
    while len(members) < cfg.pop_size:
        members.append(generate_individual(g, p, heights, rng))
    evaluate_all(g, p, members, mode)
    members.sort(key=lambda c: c.fitness)
    # (even pair, odd pair) operators; built per run so a rebound module name takes effect
    order, aligned = crossover_order_preserving, crossover_task_aligned
    ops = {CrossoverMode.ORDER_PRESERVING: (order, order), CrossoverMode.TASK_ALIGNED: (aligned, aligned),
           CrossoverMode.MIXED: (order, aligned)}[cfg.crossover_mode]

    stats = RunStats(best_series=[members[0].fitness])
    stagnant = 0
    for _ in range(cfg.max_iters):
        children: List[Chromosome] = []  # rebound first: the last generation's children go before new ones come
        for k, (a, b) in enumerate(rank_select_pairs(members, cfg.pairs(), rng)):
            for child in ops[k % 2](a, b, rng.randrange(1, len(g)) if len(g) > 1 else 1):
                children.append(mutate(g, child, rng) if rng.random() < cfg.mutation_rate else child)
        evaluate_all(g, p, children, mode)
        members = update_population(members, children)
        stats.iterations += 1
        stagnant = 0 if members[0].fitness < stats.best_series[-1] else stagnant + 1
        stats.best_series.append(members[0].fitness)
        if stagnant >= cfg.stagnation_limit:
            break

    timeline = evaluate(g, p, members[0], mode)  # stamps the fitness members[0] already has
    stats.wall_time_s = time.perf_counter() - t0
    return members[0], timeline, stats
