"""Command-line interface: validate, heights, schedule, bench, gen."""

from __future__ import annotations

import argparse
import sys
from typing import Callable, List, Optional, TextIO

from . import bench as bench_mod
from .dag import compute_heights
from .dagio import (
    GenSpec,
    dag_to_json,
    generate_random_dag,
    parse_dag,
    parse_platform,
    write_bench_csv,
    write_schedule_log,
)
from .errors import SchedulingError
from .evaluator import CommMode
from .ga import CrossoverMode, GaConfig, run
from .minmin import min_min_schedule

_CROSSOVER = {
    "order": CrossoverMode.ORDER_PRESERVING,
    "aligned": CrossoverMode.TASK_ALIGNED,
    "mixed": CrossoverMode.MIXED,
}


def _read(path: str) -> str:
    try:
        with open(path, "r", encoding="utf-8") as f:
            return f.read()
    except OSError as e:
        raise SchedulingError(f"cannot read {path}: {e}") from None


def _write(path: str, write: Callable[[TextIO], None]) -> None:
    try:
        with open(path, "w", encoding="utf-8", newline="") as sink:
            write(sink)
    except OSError as e:
        raise SchedulingError(f"cannot write {path}: {e}") from None


def _load(parse, path: str):
    try:
        return parse(_read(path))
    except SchedulingError as e:
        raise SchedulingError(f"{path}: {e}") from None


def _comm_mode(flag: str) -> CommMode:
    return CommMode.INCLUDE_TRANSFER if flag == "on" else CommMode.IGNORE_TRANSFER


def _add_ga_flags(sp: argparse.ArgumentParser) -> None:
    sp.add_argument("--pop", type=int, default=100, help="population size")
    sp.add_argument("--iters", type=int, default=50, help="maximum iterations")
    sp.add_argument("--stagnation", type=int, default=50,
                    help="stop after this many generations without improvement")
    sp.add_argument("--pairs", type=int, default=None, help="parent pairs per generation")
    sp.add_argument("--mutation-rate", type=float, default=0.2)
    sp.add_argument("--crossover", choices=sorted(_CROSSOVER), default="mixed")


def _ga_config(args, rng_seed: int = 0) -> GaConfig:
    return GaConfig(
        pop_size=args.pop,
        max_iters=args.iters,
        stagnation_limit=args.stagnation,
        pairs_per_generation=args.pairs,
        crossover_mode=_CROSSOVER[args.crossover],
        mutation_rate=args.mutation_rate,
        rng_seed=rng_seed,
    )


def cmd_validate(args) -> int:
    g = _load(parse_dag, args.dag)
    p = _load(parse_platform, args.platform)
    entries = ",".join(g.task(t).name for t in g.entry_tasks())
    exits = ",".join(g.task(t).name for t in g.exit_tasks())
    print(f"{len(g)} tasks, {len(p.machines)} machines, entry={entries}, exit={exits}")
    print("cycle check: ok")
    return 0


def cmd_heights(args) -> int:
    g = _load(parse_dag, args.dag)
    heights = compute_heights(g)
    for t in g.tasks:
        print(f"{t.name}\t{heights[t.id]}")
    return 0


def cmd_schedule(args) -> int:
    g = _load(parse_dag, args.dag)
    p = _load(parse_platform, args.platform)
    mode = _comm_mode(args.comm)
    if args.alg == "ga":
        cfg = _ga_config(args, args.seed)
        chromo, timeline, stats = run(g, p, cfg, mode)
        summary = f"makespan: {timeline.makespan:.6f}\niterations: {stats.iterations}\nseed: {cfg.rng_seed}"
    else:
        chromo, timeline = min_min_schedule(g, p, mode)
        summary = f"makespan: {timeline.makespan:.6f}"
    if args.out:  # written before the summary, so a failed write prints no makespan
        _write(args.out, lambda sink: write_schedule_log(g, p, timeline, chromo, sink))
    print(summary)
    if not args.out:
        write_schedule_log(g, p, timeline, chromo, sys.stdout)
    return 0


def _parse_shapes(text: str):
    shapes = []
    for part in text.split(","):
        try:
            n_tasks, n_machines = (int(x) for x in part.lower().split("x"))
        except ValueError:
            raise SchedulingError(f"bad shape {part!r}; expected TASKSxMACHINES, e.g. 10x2") from None
        if n_tasks < 1 or n_machines < 1:
            raise SchedulingError(f"bad shape {part!r}: counts must be >= 1")
        shapes.append((n_tasks, n_machines, bench_mod.default_width(n_tasks)))
    return shapes


def cmd_bench(args) -> int:
    shapes = _parse_shapes(args.shapes) if args.shapes else bench_mod.DEFAULT_SHAPES
    cfg = _ga_config(args)
    rows = bench_mod.run_grid(shapes=shapes, n_seeds=args.seeds, ccr=args.ccr,
                              mode=_comm_mode(args.comm), cfg=cfg)
    _write(args.out, lambda sink: write_bench_csv(rows, sink))
    print(f"{len(rows)} instances -> {args.out}")
    print(f"GA <= min-min on {bench_mod.ga_win_fraction(rows):.2f} of instances")
    return 0


def cmd_gen(args) -> int:
    spec = GenSpec(n_tasks=args.tasks, width=args.width, ccr=args.ccr,
                   work_range=(args.work_lo, args.work_hi), seed=args.seed)
    g, layer_of = generate_random_dag(spec)
    doc = dag_to_json(g)
    if args.out:
        _write(args.out, lambda sink: sink.write(doc))
    else:
        sys.stdout.write(doc)
    n_layers = max(layer_of.values()) + 1
    print(f"{len(g)} tasks, {len(g.edges)} edges, {n_layers} layers, seed {spec.seed}",
          file=sys.stderr)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="dagsched",
                                     description="Height-based GA scheduler for dependent tasks")
    sub = parser.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("validate", help="parse and validate a DAG and platform")
    sp.add_argument("dag")
    sp.add_argument("platform")
    sp.set_defaults(func=cmd_validate)

    sp = sub.add_parser("heights", help="print the height of every task")
    sp.add_argument("dag")
    sp.set_defaults(func=cmd_heights)

    sp = sub.add_parser("schedule", help="schedule one instance and write the log")
    sp.add_argument("dag")
    sp.add_argument("platform")
    sp.add_argument("--alg", choices=["ga", "minmin"], default="ga")
    sp.add_argument("--comm", choices=["on", "off"], default="on",
                    help="include data-transfer time in start times")
    sp.add_argument("--out", default=None, help="schedule log path (default: stdout)")
    sp.add_argument("--seed", type=int, default=0, help="RNG seed")
    _add_ga_flags(sp)
    sp.set_defaults(func=cmd_schedule)

    # no abbreviations: "--seed 3" must not pass as "--seeds 3"
    sp = sub.add_parser("bench", help="run the GA-vs-min-min benchmark grid", allow_abbrev=False)
    sp.add_argument("--shapes", default=None,
                    help="comma-separated TASKSxMACHINES list (default: the full grid)")
    sp.add_argument("--seeds", type=int, default=bench_mod.DEFAULT_SEEDS,
                    help="seeds per shape")
    sp.add_argument("--ccr", type=float, default=bench_mod.DEFAULT_CCR)
    sp.add_argument("--comm", choices=["on", "off"], default="on")
    sp.add_argument("--out", default="bench.csv", help="output CSV path")
    _add_ga_flags(sp)
    sp.set_defaults(func=cmd_bench)

    sp = sub.add_parser("gen", help="generate a random layered DAG document")
    sp.add_argument("--tasks", type=int, required=True)
    sp.add_argument("--width", type=int, default=None, help="max tasks per layer")
    sp.add_argument("--ccr", type=float, default=0.0)
    sp.add_argument("--work-lo", type=float, default=10.0)
    sp.add_argument("--work-hi", type=float, default=30.0)
    sp.add_argument("--seed", type=int, default=0)
    sp.add_argument("--out", default=None, help="output path (default: stdout)")
    sp.set_defaults(func=cmd_gen)

    return parser


def main(argv: Optional[List[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.command == "gen" and args.width is None:
        args.width = bench_mod.default_width(args.tasks)
    try:
        return args.func(args)
    except SchedulingError as e:
        print(f"error: {e}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
