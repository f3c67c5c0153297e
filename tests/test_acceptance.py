"""Acceptance suite: one test per criterion, each printing a pass line.

Run with `pytest tests/test_acceptance.py -s` to see the lines as they pass.
"""

import json
import random
import re
import time

import pytest

from dagsched.bench import DEFAULT_SHAPES, ga_win_fraction, run_grid
from dagsched.cli import main
from dagsched.dag import (
    adjust_heights,
    compute_heights,
    is_valid_order,
)
from dagsched.dagio import GenSpec, generate_platform, generate_random_dag
from dagsched.evaluator import Chromosome, CommMode, evaluate
from dagsched.ga import (
    GaConfig,
    crossover_order_preserving,
    crossover_task_aligned,
    generate_individual,
    mutate,
    rank_select_pairs,
    run,
)

from _oracles import brute_force_optimum
from conftest import REF_EDGES, REF_WORKS, make_ref_graph


def report(n, text):
    print(f"PASS criterion {n}: {text}")


@pytest.fixture(scope="module")
def grid_rows():
    t0 = time.perf_counter()
    rows = run_grid()
    elapsed = time.perf_counter() - t0
    return rows, elapsed


def test_criterion_1_height_table():
    g = make_ref_graph()
    best = min(_timed_heights(g) for _ in range(5))
    h = compute_heights(g)
    assert [h[f"t{i}"] for i in range(1, 11)] == [1, 2, 2, 2, 4, 3, 4, 3, 5, 6]
    assert best < 1e-3
    report(1, f"height table reproduced exactly in {best * 1e6:.0f} us")


def _timed_heights(g):
    t0 = time.perf_counter()
    compute_heights(g)
    return time.perf_counter() - t0


def test_criterion_2_adjusted_heights():
    g = make_ref_graph()
    h2 = adjust_heights(g, compute_heights(g), "t1")
    assert [h2[f"t{i}"] for i in range(1, 11)] == [0, 1, 1, 1, 3, 2, 3, 2, 4, 5]
    report(2, "adjusted height table reproduced exactly")


def test_criterion_3_narrative_start_time():
    from dagsched.dag import DataEdge, TaskNode, build_graph
    from dagsched.platform import LinkSpec, Machine, build_platform
    tasks = [TaskNode("t6", "task6", 5.0), TaskNode("t2", "task2", 7.0),
             TaskNode("t5", "task5", 9.0)]
    edges = [DataEdge("t6", "t5", 0.0), DataEdge("t2", "t5", 0.0)]
    g = build_graph(tasks, edges)
    p = build_platform([Machine(f"M{i}", f"Machine{i}", 1.0) for i in range(1, 8)],
                       default_link=LinkSpec("*", "*", bandwidth=1.0))
    tl = evaluate(g, p, Chromosome(["t6", "t2", "t5"], ["M4", "M7", "M3"]))
    assert tl.start["t5"] == 7.0
    report(3, "task5 starts at 7 with parents finishing at 5 and 7")


def test_criterion_4_crossover_vectors():
    p1 = Chromosome([f"t{i}" for i in [1, 3, 6, 2, 5, 4, 8, 7, 9, 10]],
                    ["M1", "M2", "M4", "M7", "M3", "M1", "M5", "M6", "M3", "M4"])
    p2 = Chromosome([f"t{i}" for i in [1, 2, 4, 8, 3, 6, 7, 9, 5, 10]],
                    ["M4", "M3", "M6", "M7", "M1", "M2", "M4", "M3", "M5", "M2"])
    c1, c2 = crossover_order_preserving(p1, p2, 4)
    assert c1.machines == ["M1", "M2", "M4", "M7", "M1", "M2", "M4", "M3", "M5", "M2"]
    assert c2.machines == ["M4", "M3", "M6", "M7", "M3", "M1", "M5", "M6", "M3", "M4"]
    assert c1.order == p1.order and c2.order == p2.order
    report(4, "published crossover children reproduced bit-exactly")


def test_criterion_5_dependency_preservation():
    steps = 0
    violations = 0
    rng = random.Random(2024)
    instance_seed = 0
    while steps < 10_000:
        instance_seed += 1
        n = rng.randint(5, 40)
        g, _ = generate_random_dag(GenSpec(n_tasks=n, width=max(1, n // 4),
                                           ccr=0.4, seed=instance_seed))
        p = generate_platform(rng.randint(2, 8), seed=instance_seed)
        h = compute_heights(g)
        members = [generate_individual(g, p, h, rng) for _ in range(12)]
        for c in members:
            steps += 1
            violations += not is_valid_order(g, c.order)
            evaluate(g, p, c)
        for a, b in rank_select_pairs(sorted(members, key=lambda c: c.fitness), 6, rng):
            point = rng.randint(1, n - 1)
            for child in (*crossover_order_preserving(a, b, point),
                          *crossover_task_aligned(a, b, point)):
                steps += 1
                violations += not is_valid_order(g, child.order)
                mutant = mutate(g, child, rng)
                steps += 1
                violations += not is_valid_order(g, mutant.order)
    assert violations == 0
    report(5, f"{steps} GA steps, zero dependency violations")


def test_criterion_6_oracle_optimality():
    t0 = time.perf_counter()
    sizes = [(4, 3), (5, 3), (5, 2), (6, 2)]
    matched = 0
    total = 0
    for seed in range(100):
        n_tasks, n_machines = sizes[seed % len(sizes)]
        g, _ = generate_random_dag(GenSpec(n_tasks=n_tasks, width=2, ccr=0.4, seed=seed))
        p = generate_platform(n_machines, seed=seed)
        best, _, _ = run(g, p, GaConfig(pop_size=100, max_iters=50, rng_seed=seed))
        opt = brute_force_optimum(g, p)
        assert best.fitness >= opt - 1e-9, "GA reported a makespan below the true optimum"
        total += 1
        matched += abs(best.fitness - opt) <= 1e-9
    elapsed = time.perf_counter() - t0
    assert matched >= 95
    assert elapsed < 60.0
    report(6, f"GA matched the brute-force optimum on {matched}/{total} "
              f"instances in {elapsed:.1f} s")


def test_criterion_7_ga_vs_minmin(grid_rows):
    rows, elapsed = grid_rows
    assert len(rows) == len(DEFAULT_SHAPES) * 20
    frac = ga_win_fraction(rows)
    assert frac >= 0.80
    assert all(r.ga_makespan >= r.lower_bound - 1e-9 for r in rows)
    assert elapsed < 300.0
    report(7, f"GA <= min-min on {frac:.3f} of {len(rows)} instances "
              f"(grid in {elapsed:.0f} s), all >= lower bound")


def test_criterion_8_elitism_and_seeding(grid_rows):
    rows, _ = grid_rows
    for r in rows:
        assert r.ga_makespan <= r.seed_individual_makespan + 1e-9
        for a, b in zip(r.best_series, r.best_series[1:]):
            assert b <= a + 1e-12
    report(8, f"seed dominance and monotone best series on all {len(rows)} instances")


def _write_instance(tmp_path):
    g, _ = generate_random_dag(GenSpec(n_tasks=10, width=3, ccr=0.4, seed=5))
    from dagsched.dagio import dag_to_json
    dag = tmp_path / "dag.json"
    plt = tmp_path / "platform.json"
    dag.write_text(dag_to_json(g))
    # generate_platform(3, seed=5) as a document
    plt.write_text(json.dumps({"machines": [{"id": f"m{i}", "name": f"Machine{i}", "speed": 1.0} for i in (1, 2, 3)],
                               "default_link": {"bandwidth": 1.0, "latency": 0.0}}))
    return str(dag), str(plt)


def _mask_runtime(csv_bytes):
    # wall-clock column; every other byte must match
    lines = csv_bytes.decode().splitlines()
    return [",".join(line.split(",")[:10]) for line in lines]


def test_criterion_9_determinism(tmp_path):
    dag, plt = _write_instance(tmp_path)
    logs = []
    for name in ("r1.log", "r2.log"):
        out = tmp_path / name
        assert main(["schedule", dag, plt, "--alg", "ga", "--seed", "3",
                     "--out", str(out)]) == 0
        logs.append(out.read_bytes())
    assert logs[0] == logs[1]

    csvs = []
    for name in ("b1.csv", "b2.csv"):
        out = tmp_path / name
        assert main(["bench", "--shapes", "10x2,10x7", "--seeds", "3",
                     "--out", str(out)]) == 0
        csvs.append(out.read_bytes())
    assert _mask_runtime(csvs[0]) == _mask_runtime(csvs[1])
    report(9, "repeated schedule logs byte-identical; repeated bench CSVs "
              "identical in all non-timing columns")


def test_criterion_10_log_format(tmp_path):
    dag, plt = _write_instance(tmp_path)
    out = tmp_path / "log.txt"
    assert main(["schedule", dag, plt, "--alg", "minmin", "--out", str(out)]) == 0
    last = out.read_text().splitlines()[-1]
    assert re.fullmatch(r"Simulation Time: \d+\.\d{6}", last)
    report(10, f"final log line {last!r} matches the six-decimal format")
