"""Command-line interface: validate, heights, schedule, bench, gen."""

from __future__ import annotations

import argparse
import math
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
    quote_name,
    write_bench_csv,
    write_schedule_log,
)
from .errors import InvalidValue, SchedulingError
from .evaluator import CommMode
from .ga import CrossoverMode, GaConfig, run
from .minmin import min_min_schedule

def _write(path: str, write: Callable[[TextIO], None], mode: str = "w") -> None:
    try:
        with open(path, mode, encoding="utf-8", newline="") as sink:
            write(sink)
    except OSError as e:
        raise SchedulingError(f"cannot write {path}: {e}") from None


def _load(parse, path: str):
    try:
        with open(path, "r", encoding="utf-8") as f:
            return parse(f.read())
    except OSError as e:
        raise SchedulingError(f"cannot read {path}: {e.strerror}") from None
    except UnicodeDecodeError as e:
        raise SchedulingError(f"cannot read {path}: not UTF-8 text ({e.reason} at byte {e.start})") from None
    except SchedulingError as e:
        raise SchedulingError(f"{path}: {e}") from None


def _load_instance(args):
    g = _load(parse_dag, args.dag)
    p = _load(parse_platform, args.platform)
    for tid in p.etc_override or ():  # build_platform cannot check these: it never sees the DAG
        if tid not in g:
            raise InvalidValue(f"{args.platform}: etc row names task {tid!r}, which {args.dag} does not have")
    return g, p


_COMM_MODES = {"on": CommMode.INCLUDE_TRANSFER, "off": CommMode.IGNORE_TRANSFER}  # --comm's values


def _add_run_flags(sp: argparse.ArgumentParser) -> None:
    sp.add_argument("--comm", choices=_COMM_MODES, default="on", help="include data-transfer time in start times")
    sp.add_argument("--pop", type=int, default=GaConfig.pop_size, help="population size")
    sp.add_argument("--iters", type=int, default=GaConfig.max_iters, help="maximum iterations")
    sp.add_argument("--stagnation", type=int, default=GaConfig.stagnation_limit,
                    help="stop after this many generations without improvement")
    sp.add_argument("--pairs", type=int, default=GaConfig.pairs_per_generation, help="parent pairs per generation")
    sp.add_argument("--mutation-rate", type=float, default=GaConfig.mutation_rate)
    sp.add_argument("--crossover", choices=[m.value for m in CrossoverMode], default=GaConfig.crossover_mode.value)


def _check_makespan(makespan: float) -> None:
    if not makespan < math.inf:  # finite input can still overflow a float sum
        raise InvalidValue(f"the makespan overflowed to {makespan}; scale the work, bytes or speeds down")


def _ga_config(args, rng_seed: int = GaConfig.rng_seed) -> GaConfig:
    return GaConfig(pop_size=args.pop, max_iters=args.iters, stagnation_limit=args.stagnation,
                    pairs_per_generation=args.pairs, crossover_mode=CrossoverMode(args.crossover),
                    mutation_rate=args.mutation_rate, rng_seed=rng_seed)


def cmd_validate(args) -> int:
    g, p = _load_instance(args)
    entries, exits = (",".join(quote_name(g.task(t).name, ",") for t in ts) for ts in (g.entry_tasks(), g.exit_tasks()))
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
    g, p = _load_instance(args)
    mode = _COMM_MODES[args.comm]
    if args.alg == "ga":
        cfg = _ga_config(args, args.seed)
        chromo, timeline, stats = run(g, p, cfg, mode)
        summary = f"makespan: {timeline.makespan:.6f}\niterations: {stats.iterations}\nseed: {cfg.rng_seed}"
    else:
        chromo, timeline = min_min_schedule(g, p, mode)
        summary = f"makespan: {timeline.makespan:.6f}"
    _check_makespan(timeline.makespan)
    if args.out:  # written before the summary, so a failed write prints no makespan
        _write(args.out, lambda sink: write_schedule_log(g, p, timeline, chromo, sink))
    print(summary)
    if not args.out:
        write_schedule_log(g, p, timeline, chromo, sys.stdout)
    return 0


def _parse_shapes(text: str):
    shapes = {}
    for part in text.split(","):
        try:
            n_tasks, n_machines = (int(x) for x in part.lower().split("x"))
        except ValueError:
            raise SchedulingError(f"bad shape {part!r}; expected TASKSxMACHINES, e.g. 10x2") from None
        if n_tasks < 1 or n_machines < 1:
            raise SchedulingError(f"bad shape {part!r}: counts must be >= 1")
        if (n_tasks, n_machines) in shapes:
            raise SchedulingError(f"shape {part!r} repeats {n_tasks}x{n_machines}")
        shapes[n_tasks, n_machines] = (n_tasks, n_machines, bench_mod.default_width(n_tasks))
    return list(shapes.values())


def cmd_bench(args) -> int:
    shapes = bench_mod.DEFAULT_SHAPES if args.shapes is None else _parse_shapes(args.shapes)
    cfg = _ga_config(args)
    if args.seeds < 1:
        raise InvalidValue(f"--seeds must be >= 1, got {args.seeds}")
    for n_tasks, _, width in shapes:
        GenSpec(n_tasks=n_tasks, width=width, ccr=args.ccr)
    _write(args.out, lambda sink: None, "a")  # a bad --out fails here, before the grid runs; "a" keeps its rows
    rows = bench_mod.run_grid(shapes=shapes, n_seeds=args.seeds, ccr=args.ccr,
                              mode=_COMM_MODES[args.comm], cfg=cfg)
    _check_makespan(max(max(r.ga_makespan, r.minmin_makespan) for r in rows))
    _write(args.out, lambda sink: write_bench_csv(rows, sink))
    print(f"{len(rows)} instances -> {args.out}")
    print(f"GA <= min-min on {bench_mod.ga_win_fraction(rows):.2f} of instances")
    return 0


def cmd_gen(args) -> int:
    width = bench_mod.default_width(args.tasks) if args.width is None else args.width
    spec = GenSpec(n_tasks=args.tasks, width=width, ccr=args.ccr,
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
    sp.add_argument("--out", default=None, help="schedule log path (default: stdout)")
    sp.add_argument("--seed", type=int, default=GaConfig.rng_seed, help="RNG seed")
    _add_run_flags(sp)
    sp.set_defaults(func=cmd_schedule)

    # no abbreviations: "--seed 3" must not pass as "--seeds 3"
    sp = sub.add_parser("bench", help="run the GA-vs-min-min benchmark grid", allow_abbrev=False)
    sp.add_argument("--shapes", default=None,
                    help="comma-separated TASKSxMACHINES list (default: the full grid)")
    sp.add_argument("--seeds", type=int, default=bench_mod.DEFAULT_SEEDS,
                    help="seeds per shape")
    sp.add_argument("--ccr", type=float, default=bench_mod.DEFAULT_CCR)
    sp.add_argument("--out", default="bench.csv", help="output CSV path")
    _add_run_flags(sp)
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
    try:
        return args.func(args)
    except SchedulingError as e:
        print(f"error: {e}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
