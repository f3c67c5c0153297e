"""Benchmark harness: generated instance grid, GA vs min-min."""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import List, Optional, Tuple

from .dag import compute_heights
from .dagio import GenSpec, generate_platform, generate_random_dag
from .evaluator import CommMode, evaluate, lower_bound
from .ga import GaConfig, load_balanced_individual, run
from .minmin import min_min_schedule

# (n_tasks, n_machines, width) per shape; widths follow the task counts'
# degree of parallelism
DEFAULT_SHAPES: Tuple[Tuple[int, int, int], ...] = (
    (10, 2, 3), (10, 7, 3),
    (25, 2, 10), (25, 7, 10),
    (45, 2, 7), (45, 7, 7),
    (2, 90, 1), (10, 90, 3), (40, 90, 10),
)
DEFAULT_SEEDS = 20
DEFAULT_CCR = 0.1


@dataclass
class BenchRow:
    instance: str
    n_tasks: int
    n_machines: int
    width: int
    ccr: float
    comm_mode: str
    seed: int
    ga_makespan: float
    minmin_makespan: float
    lower_bound: float
    ga_runtime_ms: float
    # not part of the CSV; kept for invariant checks
    seed_individual_makespan: float = 0.0
    best_series: List[float] = field(default_factory=list)


def default_width(n_tasks: int) -> int:
    for n, _, w in DEFAULT_SHAPES:
        if n == n_tasks:
            return w
    return max(1, round(n_tasks / 3))


def run_instance(n_tasks: int, n_machines: int, width: int, ccr: float, seed: int,
                 mode: CommMode, cfg: Optional[GaConfig] = None) -> BenchRow:
    """One grid cell: generate the instance, run GA (cfg with the cell's seed) and min-min on it."""
    spec = GenSpec(n_tasks=n_tasks, width=width, ccr=ccr, seed=seed)
    g, _ = generate_random_dag(spec)
    p = generate_platform(n_machines)
    best, _, stats = run(g, p, GaConfig(rng_seed=seed) if cfg is None else replace(cfg, rng_seed=seed), mode)
    _, mm_timeline = min_min_schedule(g, p, mode)
    seed_chromo = load_balanced_individual(g, p, compute_heights(g))
    evaluate(g, p, seed_chromo, mode)
    return BenchRow(
        instance=f"{n_tasks}x{n_machines}-s{seed}",
        n_tasks=n_tasks,
        n_machines=n_machines,
        width=width,
        ccr=ccr,
        comm_mode=mode.value,
        seed=seed,
        ga_makespan=best.fitness,
        minmin_makespan=mm_timeline.makespan,
        lower_bound=lower_bound(g, p),
        ga_runtime_ms=stats.wall_time_s * 1000.0,
        seed_individual_makespan=seed_chromo.fitness,
        best_series=list(stats.best_series),
    )


def run_grid(shapes=DEFAULT_SHAPES, n_seeds: int = DEFAULT_SEEDS, ccr: float = DEFAULT_CCR,
             mode: CommMode = CommMode.INCLUDE_TRANSFER,
             cfg: Optional[GaConfig] = None) -> List[BenchRow]:
    """Run every (shape, seed) cell in deterministic grid order."""
    rows = []
    for n_tasks, n_machines, width in shapes:
        for seed in range(n_seeds):
            rows.append(run_instance(n_tasks, n_machines, width, ccr, seed, mode, cfg))
    return rows


def ga_win_fraction(rows: List[BenchRow]) -> float:
    """Fraction of instances where GA makespan <= min-min makespan, within 1e-9."""
    if not rows:
        return 0.0
    wins = sum(1 for r in rows if r.ga_makespan <= r.minmin_makespan + 1e-9)
    return wins / len(rows)
