#!/usr/bin/env python3
"""dagsched benchmark: one workload, one process, one thread.

    python3 perfbench/run.py --workload grid --seed 1 --seconds 45 --trace 0

Runs from the root of a source checkout and imports the package from its
``src``. ``--trace 0`` measures the end-to-end metrics untraced; ``--trace 1``
runs each instance untraced and then with spans around every layer, and
reports the per-layer metrics and the tracing overhead. Both first run the
workload's fixed reference instances and compare their fingerprint with
``reference.json``. Human-readable lines come first; the last line of
standard output is the JSON result. The full record and the spans go to
``.perfbench/`` in the checkout.
"""

from __future__ import annotations

import argparse
import contextlib
import gzip
import hashlib
import io
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
from collections import defaultdict
from dataclasses import dataclass, field
from pathlib import Path
from typing import Optional

REPEAT_SHARE = 0.05  # of each instance's time, for each repeated short measurement
HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
REFERENCE_FILE = HERE / "reference.json"
OUT_DIR = ROOT / ".perfbench"
sys.path.insert(0, str(SRC))

try:
    import dagsched
    from dagsched import cli
    from dagsched.minmin import min_min_schedule

    import speed
    import tracing
    from workloads import REFERENCE_SEED, Checked, check, make_workloads, unit_seeds
except ModuleNotFoundError as e:
    sys.exit(f"cannot import the package from {SRC}: {e}")

# (name, unit) of the end-to-end metrics a --trace 0 run reports. The timings
# are in reference time (see speed.py), which cancels most of the drift of a
# shared machine's speed.
END_TO_END = (
    ("instances_per_s", "1/s"),
    ("ga_ms.p50", "ms"),
    ("minmin_ms.p50", "ms"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("ga_over_lb", "ratio"),
)
# (name, unit) of the per-layer metrics a --trace 1 run reports on every
# workload; the layers only some workloads use go to the report lines
PER_LAYER = (
    ("dag.adjust_heights_calls", "count"),
    ("dag.adjust_heights_us", "us"),
    ("dag.ready_tasks_us", "us"),
    ("dag.is_valid_order_us", "us"),
    ("dag.compute_heights_ms", "ms"),
    ("platform.execution_time_calls_per_eval", "count"),
    ("platform.transfer_time_calls_per_eval", "count"),
    ("platform.execution_time_calls_per_minmin", "count"),
    ("platform.transfer_time_calls_per_minmin", "count"),
    ("platform.self_ms", "ms"),
    ("evaluator.evaluate_calls", "count"),
    ("evaluator.evaluate_us.p50", "us"),
    ("evaluator.evaluate_self_ms", "ms"),
    ("evaluator.lower_bound_ms", "ms"),
    ("ga.generate_individual_self_us", "us"),
    ("ga.load_balanced_individual_us", "us"),
    ("ga.rank_select_pairs_us", "us"),
    ("ga.crossover_order_us", "us"),
    ("ga.crossover_aligned_us", "us"),
    ("ga.update_population_us", "us"),
    ("ga.mutate_us", "us"),
    ("ga.mutate_giveup_share", "share"),
    ("ga.eval_repeat_share", "share"),
    ("ga.iterations", "count"),
    ("ga.run_self_ms", "ms"),
    ("minmin.schedule_ms", "ms"),
    ("trace.overhead_pct", "%"),
)
WORKLOAD_LAYERS = (
    ("dagio.parse_dag_ms", "ms"),
    ("dagio.parse_platform_ms", "ms"),
    ("dagio.write_schedule_log_ms", "ms"),
    ("dagio.generate_random_dag_ms", "ms"),
    ("bench.run_instance_self_ms", "ms"),
    ("cli.schedule_self_ms", "ms"),
)


def tail(samples):
    """(value, percentile) of the highest percentile with at least ten samples
    beyond it, or None below 11 samples."""
    if len(samples) < 11:
        return None
    ordered = sorted(samples)
    k = len(ordered) - 11
    return ordered[k], 100.0 * (k + 1) / len(ordered)


def git_rev() -> str:
    try:
        out = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"], capture_output=True, text=True)
    except OSError:
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


class Tally:
    """Attempted and failed instances, and the first few problems seen."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.problems = []

    def add(self, label, problems):
        self.attempted += 1
        if problems:
            self.failed += 1
        for p in problems:
            if len(self.problems) < 5:
                self.problems.append(f"{label}: {p}")


@dataclass
class UnitRun:
    label: str
    seconds: float  # wall time of the instance and its checks, speed samples left out
    problems: list  # empty when the instance passed its checks
    checked: Optional[Checked] = None  # None when the instance raised
    setup: list = field(default_factory=list)  # seconds of each set-up repeat
    cal: list = field(default_factory=list)  # seconds of each speed sample taken during it and its repeats
    setup_cal: list = field(default_factory=list)  # the samples taken during the set-up repeats
    minmin_cal: list = field(default_factory=list)  # the samples taken during the min-min repeats


def repeat_for(seconds, fn, at_least=3):
    """Durations of calls of fn, made until `seconds` have passed and it ran `at_least` times."""
    samples = []
    end = speed.clock() + seconds
    while len(samples) < at_least or speed.clock() < end:
        t0 = speed.clock()
        fn()
        samples.append(speed.clock() - t0)
    return samples


def run_unit(workload, unit, tally, tracer=None, repeat=False):
    """Run one unit (one instance) and check it.

    With `repeat`, the instance's set-up and its min-min run are each
    repeated for REPEAT_SHARE of the instance's time, outside that time.
    They then sample the run in proportion to time, the way the GA runs do.
    """
    pause = tracer.paused if tracer is not None else contextlib.nullcontext
    first_sample = speed.mark()
    t0 = speed.clock()
    label, outcome, error = workload.run_unit(unit, tracer)
    c = None
    if outcome is not None:
        with pause():
            try:
                c = check(outcome)
            except Exception as e:  # a check that raises fails the instance
                error = f"check raised {type(e).__name__}: {e}"
    seconds = speed.clock() - t0
    if c is None:
        tally.add(label, [error])
        return UnitRun(label, seconds, [error], cal=speed.durations(first_sample))
    u = UnitRun(label, seconds, c.problems, c)
    if repeat:
        before_setup = speed.mark()
        u.setup = repeat_for(REPEAT_SHARE * seconds, lambda: workload.build(unit))
        before_minmin = speed.mark()
        makespans = set()
        again = repeat_for(REPEAT_SHARE * seconds,
                           lambda: makespans.add(min_min_schedule(outcome.g, outcome.p, outcome.mode)[1].makespan))
        u.setup_cal = speed.durations(before_setup, before_minmin)
        u.minmin_cal = speed.durations(before_minmin)
        if makespans != {c.minmin_makespan}:
            c.problems.append("a repeated min-min run gives another makespan")
        c.minmin_ms = statistics.median([c.minmin_ms] + [s * 1e3 for s in again])
    u.cal = speed.durations(first_sample)
    tally.add(label, c.problems)
    return u


def keep_going(workload, done, spent, seconds, min_units):
    """Whether to start another unit: only between groups (grid passes), at
    least `min_units`, then only if the run ends nearer to `seconds` with one
    more group than without."""
    if len(done) % workload.group:
        return True
    if len(done) < min_units:
        return True
    return spent + 0.5 * workload.group * spent / len(done) < seconds


def measure(workload, units, seconds, min_units, tally):
    """Untraced closed loop over `units` until `seconds` of unit time is spent."""
    done = []
    spent = 0.0
    with speed.sampling():
        while keep_going(workload, done, spent, seconds, min_units):
            done.append(run_unit(workload, next(units), tally, repeat=True))
            spent += done[-1].seconds
    return done


def check_reference(workload, reference, tally):
    """Run the reference units; count each instance that fails its checks or
    whose digest differs from `reference`."""
    expected = reference.get("instances", {})
    runs = {u.label: u for u in (run_unit(workload, unit, Tally()) for unit in workload.units_for(REFERENCE_SEED))}
    digests = {label: u.checked.digest for label, u in runs.items() if u.checked is not None}
    for label in sorted(set(expected) | set(runs)):
        problems = list(runs[label].problems) if label in runs else ["reference instance was not run"]
        got = digests.get(label)
        if got is not None and got != expected.get(label):
            problems.append(f"fingerprint {got[:12]} differs from the reference")
        tally.add(label, problems)
    return digests


def fingerprint(digests) -> str:
    """The workload fingerprint: sha256 over its instances' digests in label order."""
    return hashlib.sha256("".join(digests[k] for k in sorted(digests)).encode()).hexdigest()


def seeded_units(workload, seed):
    for unit_seed in unit_seeds(seed):
        yield from workload.units_for(unit_seed)


def traced_pairs(workload, units, seconds, tally, tracer):
    """Each unit untraced and then traced, until `seconds` of unit time is spent.

    Alternating puts both sides of the overhead on the same inputs and at
    nearly the same moment of a machine whose speed drifts.
    """
    plain, traced = [], []
    spent = 0.0
    while keep_going(workload, traced, spent, seconds, 1):
        unit = next(units)
        plain.append(run_unit(workload, unit, tally))
        with tracing.patched(tracer):
            traced.append(run_unit(workload, unit, tally, tracer))
        spent += plain[-1].seconds + traced[-1].seconds
    return plain, traced


def typical(samples_by_kind):
    """Geometric mean over instance kinds of each kind's median.

    The grid's nine shapes differ up to 30-fold in cost; each counts equally,
    and each kind's samples come from the whole run.
    """
    return math.exp(statistics.fmean(math.log(statistics.median(s)) for s in samples_by_kind.values()))


def speed_factors(workload, done):
    """For each unit, the factor from wall time to reference time, from the
    speed samples of its group (a grid pass, or the unit itself). A group
    without samples takes the whole run's, and a run without any keeps wall
    time."""
    pooled = [s for u in done for s in u.cal]
    fallback = speed.factor(pooled) if pooled else 1.0
    factors = []
    for i in range(0, len(done), workload.group):
        group = done[i:i + workload.group]
        cal = [s for u in group for s in u.cal]
        factors += [speed.factor(cal) if cal else fallback] * len(group)
    return factors


def local_factor(samples, fallback, at_least=3):
    return speed.factor(samples) if len(samples) >= at_least else fallback


def end_to_end(workload, done):
    """The end-to-end metrics of an untraced run, and the numbers behind them."""
    factors = speed_factors(workload, done)
    checked = [u.checked for u in done if u.checked is not None]
    n = len(checked)
    ga, mm, setup = defaultdict(list), defaultdict(list), defaultdict(list)
    wall_ga, wall_mm, wall_setup = defaultdict(list), defaultdict(list), defaultdict(list)
    for u, f in zip(done, factors):
        if u.checked is not None:
            kind = u.checked.kind
            ga[kind].append(u.checked.ga_ms * f)
            # a repeat that lasted long enough for a few samples of its own takes
            # its speed from them: speed changes within seconds
            mm[kind].append(u.checked.minmin_ms * local_factor(u.minmin_cal, f))
            setup[kind].extend(s * local_factor(u.setup_cal, f) for s in u.setup)
            wall_ga[kind].append(u.checked.ga_ms)
            wall_mm[kind].append(u.checked.minmin_ms)
            wall_setup[kind].extend(u.setup)
    prefix = [u.checked for u in done[:workload.min_units] if u.checked is not None]
    wins = sum(1 for c in checked if c.ga_makespan <= c.minmin_makespan + 1e-9)
    metrics = {
        "instances_per_s": n / sum(u.seconds * f for u, f in zip(done, factors)),
        "ga_ms.p50": typical(ga),
        "minmin_ms.p50": typical(mm),
        "setup_s": typical(setup),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        # over the units every run completes, so it depends on the seed alone
        "ga_over_lb": statistics.fmean(c.ga_makespan / c.lower_bound for c in prefix),
    }
    cal = [s for u in done for s in u.cal]
    extra = {"instances": n, "unit_seconds": sum(u.seconds for u in done),
             "samples_per_kind": {k: len(v) for k, v in ga.items()},
             "setup_samples": sum(len(v) for v in setup.values()), "ga_over_lb_instances": len(prefix),
             "ga_win_fraction": wins / n, "ga_wins": wins,
             "speed_sample_ms.p50": statistics.median(cal) * 1e3 if cal else None, "speed_samples": len(cal),
             "wall.instances_per_s": n / sum(u.seconds for u in done),
             "wall.ga_ms.p50": typical(wall_ga), "wall.minmin_ms.p50": typical(wall_mm),
             "wall.setup_s": typical(wall_setup)}
    for name, samples in (("ga_ms", [s for v in ga.values() for s in v]),
                          ("minmin_ms", [s for v in mm.values() for s in v])):
        t = tail(samples)
        if t is not None:
            extra[f"{name}.tail"] = t[0]
            extra[f"{name}.tail_percentile"] = t[1]
    return metrics, extra


def cli_guard(unit, mode, tally):
    """cli.schedule_self_ms from one traced `dagsched schedule` on the unit's documents.

    It has a tracer of its own, so it adds nothing to the other layers. A
    small GA keeps it short; the GA, parse and log spans are subtracted anyway.
    """
    tmp = OUT_DIR / "cli"
    tmp.mkdir(parents=True, exist_ok=True)
    dag_path, plat_path, out_path = tmp / "dag.json", tmp / "platform.json", tmp / "schedule.log"
    dag_path.write_text(unit.dag_text)
    plat_path.write_text(unit.platform_text)
    argv = ["schedule", str(dag_path), str(plat_path), "--out", str(out_path),
            "--comm", "on" if mode.value == "include" else "off", "--pop", "4", "--iters", "2",
            "--seed", str(unit.seed)]
    tracer = tracing.Tracer()
    tracer.instance = "cli"
    with tracing.patched(tracer), contextlib.redirect_stdout(io.StringIO()):
        code = cli.main(argv)
    last = out_path.read_text().splitlines()[-1:] if out_path.exists() else []
    ok = code == 0 and bool(last) and last[0].startswith("Simulation Time: ")
    tally.add("cli", [] if ok else [f"dagsched schedule exited {code} or wrote no log"])
    return tracing.layer_metrics(tracer)["cli.schedule_self_ms"]


def environment(args, workload):
    return {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "git_rev": git_rev(),
        "workload": workload.name,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not Path(dagsched.__file__).resolve().is_relative_to(SRC):
        print(f"dagsched was imported from {dagsched.__file__}, not from {SRC}", file=sys.stderr)
        return 2
    workloads = make_workloads()
    if args.workload not in workloads:
        print(f"unknown workload {args.workload!r}; choose from {sorted(workloads)}", file=sys.stderr)
        return 2
    workload = workloads[args.workload]
    reference = json.loads(REFERENCE_FILE.read_text())[workload.name]

    tally = Tally()
    ref_digests = check_reference(workload, reference, tally)
    record = {"environment": environment(args, workload),
              "reference": {"seed": REFERENCE_SEED, "instances": len(ref_digests),
                            "fingerprint": fingerprint(ref_digests),
                            "expected": reference.get("fingerprint")}}

    if args.trace == 0:
        done = measure(workload, seeded_units(workload, args.seed), args.seconds, workload.min_units, tally)
        metrics, extra = end_to_end(workload, done)
        record["extra"] = extra
        names = END_TO_END
    else:
        tracer = tracing.Tracer()
        units = seeded_units(workload, args.seed)
        plain, traced = traced_pairs(workload, units, args.seconds, tally, tracer)
        # tracing must not change any output
        for p, t in zip(plain, traced):
            if p.checked is not None and t.checked is not None and p.checked.digest != t.checked.digest:
                tally.add(t.checked.label, ["traced output differs from the untraced output"])
        ips_plain = sum(u.checked is not None for u in plain) / sum(u.seconds for u in plain)
        ips_traced = sum(u.checked is not None for u in traced) / sum(u.seconds for u in traced)
        layers = tracing.layer_metrics(tracer)
        if workload.name == "wide":
            first = workload.units_for(next(unit_seeds(args.seed)))[0]
            layers["cli.schedule_self_ms"] = cli_guard(first, workload.mode, tally)
        layers["trace.overhead_pct"] = 100.0 * (1.0 - ips_traced / ips_plain)
        metrics = {name: layers[name] for name, _ in PER_LAYER}
        record["extra"] = {
            "untraced_instances_per_s": ips_plain, "traced_instances_per_s": ips_traced,
            "traced_minus_untraced_instances_per_s": ips_traced - ips_plain,
            "units": len(traced),
            "spans": len(tracer.spans), "wrapped": len(tracer.wrapped), "missing": tracer.missing,
            "workload_layers": {name: layers[name] for name, _ in WORKLOAD_LAYERS},
        }
        OUT_DIR.mkdir(exist_ok=True)
        with gzip.open(OUT_DIR / f"trace-{workload.name}-s{args.seed}.json.gz", "wt") as f:
            json.dump({"fields": ["name", "start_ns", "end_ns", "parent", "instance"], "spans": tracer.spans,
                       "leaves": [[sid, leaf, calls, ns] for (sid, leaf), (calls, ns) in tracer.leaves.items()],
                       "counters": dict(tracer.counters)}, f, separators=(",", ":"))
        names = PER_LAYER

    record["environment"]["instances_attempted"] = tally.attempted
    record["environment"]["tracing_overhead_pct"] = metrics.get("trace.overhead_pct", "untraced")
    record["attempted"], record["failed"] = tally.attempted, tally.failed
    record["failed_share"] = tally.failed / tally.attempted
    record["problems"] = tally.problems
    record["metrics"] = metrics
    OUT_DIR.mkdir(exist_ok=True)
    (OUT_DIR / f"result-{workload.name}-s{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=2) + "\n")

    print_report(record, names)
    unmeasured = [name for name, _ in names if metrics[name] is None]
    result = {
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in names},
    }
    if unmeasured:
        print(f"unmeasured (no calls through the wrapped names): {', '.join(unmeasured)}")
    print(json.dumps(result))
    return 0


def print_report(record, names):
    env = record["environment"]
    print(f"perfbench {env['workload']} seed={env['seed']} seconds={env['seconds']} trace={env['trace']}")
    print("environment: " + " ".join(f"{k}={v}" for k, v in env.items()))
    ref = record["reference"]
    verdict = "matches" if ref["fingerprint"] == ref["expected"] else "DIFFERS from"
    print(f"reference: seed {ref['seed']}, {ref['instances']} instances, fingerprint {ref['fingerprint']} "
          f"{verdict} reference.json")
    units = dict(names)
    extra = record["extra"]
    for name, value in record["metrics"].items():
        shown = "unmeasured" if value is None else f"{value:.6g} {units[name]}"
        print(f"  {name:42s} {shown}")
    for name, value in extra.items():
        if name == "workload_layers":
            for lname, lvalue in value.items():
                print(f"  {lname:42s} {'unmeasured' if lvalue is None else f'{lvalue:.6g} ms'}")
        else:
            print(f"  {name:42s} {value}")
    print(f"  {'failed_share':42s} {record['failed_share']:.6g} ({record['failed']} of {record['attempted']})")
    for p in record["problems"]:
        print(f"  problem: {p}")


if __name__ == "__main__":
    sys.exit(main())
