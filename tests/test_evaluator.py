import itertools
import random

import pytest

from dagsched.dag import DataEdge, TaskNode, build_graph, compute_heights
from dagsched.errors import InvalidOrder
from dagsched.evaluator import Chromosome, CommMode, evaluate, lower_bound
from dagsched.ga import generate_individual
from dagsched.platform import LinkSpec, Machine, build_platform

from _oracles import (
    all_paths_from_entries,
    all_valid_orders,
    brute_force_evaluate,
    random_graph,
)


def platform_of(n, speed=1.0, bandwidth=10.0):
    machines = [Machine(f"M{i}", f"Machine{i}", speed) for i in range(1, n + 1)]
    return build_platform(machines, default_link=LinkSpec("*", "*", bandwidth=bandwidth))


class TestEvaluate:
    def test_narrative_start_time(self):
        # two parents finishing at 5 and 7 on other machines; the child's
        # machine is idle, so it starts at the later parent finish
        tasks = [TaskNode("t6", "task6", 5.0), TaskNode("t2", "task2", 7.0),
                 TaskNode("t5", "task5", 9.0)]
        edges = [DataEdge("t6", "t5", 0.0), DataEdge("t2", "t5", 0.0)]
        g = build_graph(tasks, edges)
        p = platform_of(7)
        c = Chromosome(["t6", "t2", "t5"], ["M4", "M7", "M3"])
        for mode in CommMode:
            tl = evaluate(g, p, c, mode)
            assert tl.finish["t6"] == 5.0
            assert tl.finish["t2"] == 7.0
            assert tl.start["t5"] == 7.0

    def test_serial_chain_one_machine(self):
        g = build_graph([TaskNode("a", "a", 3.0), TaskNode("b", "b", 4.0)],
                        [DataEdge("a", "b", 0.0)])
        p = platform_of(1)
        tl = evaluate(g, p, Chromosome(["a", "b"], ["M1", "M1"]))
        assert tl.makespan == 7.0

    def test_chain_with_transfer(self):
        g = build_graph([TaskNode("a", "a", 3.0), TaskNode("b", "b", 4.0)],
                        [DataEdge("a", "b", 10.0)])
        p = platform_of(2, bandwidth=5.0)
        c = Chromosome(["a", "b"], ["M1", "M2"])
        tl = evaluate(g, p, c, CommMode.INCLUDE_TRANSFER)
        assert tl.start["b"] == 5.0
        assert tl.makespan == 9.0
        assert c.fitness == 9.0
        tl = evaluate(g, p, c, CommMode.IGNORE_TRANSFER)
        assert tl.makespan == 7.0

    def test_invalid_order_rejected(self):
        g = build_graph([TaskNode("a", "a", 1.0), TaskNode("b", "b", 1.0)],
                        [DataEdge("a", "b", 0.0)])
        p = platform_of(1)
        with pytest.raises(InvalidOrder):
            evaluate(g, p, Chromosome(["b", "a"], ["M1", "M1"]))

    @pytest.mark.parametrize("machines", [["M1"], ["M1", "M1", "M1"]])
    def test_machine_count_must_match_order(self, machines):
        # a shorter machine list used to schedule only a prefix (makespan 3.0 here)
        g = build_graph([TaskNode("a", "a", 3.0), TaskNode("b", "b", 4.0)], [])
        c = Chromosome(["a", "b"], machines)
        with pytest.raises(InvalidOrder):
            evaluate(g, platform_of(1), c)
        assert c.fitness is None

    @pytest.mark.parametrize("seed", range(10))
    def test_timeline_invariants(self, seed):
        g = random_graph(n_tasks=12, edge_prob=0.3, seed=seed)
        p = platform_of(3, bandwidth=4.0)
        rng = random.Random(seed)
        c = generate_individual(g, p, compute_heights(g), rng)
        for mode in CommMode:
            tl = evaluate(g, p, c, mode)
            assert tl.makespan >= lower_bound(g, p) - 1e-9
            for e in g.edges:
                assert tl.start[e.dst] >= tl.finish[e.src] - 1e-9
            # no overlap on a machine
            by_machine = {}
            for tid, m in tl.machine.items():
                by_machine.setdefault(m, []).append(tid)
            for tids in by_machine.values():
                spans = sorted((tl.start[t], tl.finish[t]) for t in tids)
                for (s1, f1), (s2, f2) in zip(spans, spans[1:]):
                    assert s2 >= f1 - 1e-9

    @pytest.mark.parametrize("seed", range(10))
    def test_ignore_transfer_never_slower(self, seed):
        g = random_graph(n_tasks=10, edge_prob=0.35, seed=seed + 50)
        p = platform_of(3, bandwidth=2.0)
        c = generate_individual(g, p, compute_heights(g), random.Random(seed))
        fast = evaluate(g, p, c, CommMode.IGNORE_TRANSFER).makespan
        slow = evaluate(g, p, c, CommMode.INCLUDE_TRANSFER).makespan
        assert fast <= slow + 1e-9

    @pytest.mark.parametrize("seed", range(5))
    def test_matches_independent_evaluator(self, seed):
        # every (order, assignment) pair of a tiny instance agrees with the
        # from-scratch oracle evaluator
        g = random_graph(n_tasks=5, edge_prob=0.4, seed=seed + 300)
        p = platform_of(2, bandwidth=3.0)
        for order in all_valid_orders(g):
            for assignment in itertools.product(p.machine_ids, repeat=len(order)):
                got = evaluate(g, p, Chromosome(list(order), list(assignment))).makespan
                want = brute_force_evaluate(g, p, order, assignment, include_transfer=True)
                assert got == pytest.approx(want, abs=1e-9)

    def test_deterministic(self, ref_graph, seven_machines):
        c = generate_individual(ref_graph, seven_machines,
                                compute_heights(ref_graph), random.Random(3))
        t1 = evaluate(ref_graph, seven_machines, c)
        t2 = evaluate(ref_graph, seven_machines, c)
        assert t1 == t2


class TestLowerBound:
    def test_reference_dag(self, ref_graph, one_machine):
        # longest path by exhaustive enumeration: 1 -> 4 -> 8 -> 7 -> 9 -> 10
        expected = max(sum(ref_graph.task(t).work for t in path)
                       for path in all_paths_from_entries(ref_graph))
        assert expected == 93.0
        assert lower_bound(ref_graph, one_machine) == 93.0

    def test_single_task(self):
        g = build_graph([TaskNode("a", "a", 5.0)], [])
        assert lower_bound(g, platform_of(1)) == 5.0

    def test_independent_tasks(self):
        g = build_graph([TaskNode("a", "a", 5.0), TaskNode("b", "b", 8.0)], [])
        assert lower_bound(g, platform_of(2)) == 8.0

    def test_uses_fastest_machine(self):
        g = build_graph([TaskNode("a", "a", 10.0)], [])
        p = build_platform([Machine("s", "s", 1.0), Machine("f", "f", 4.0)])
        assert lower_bound(g, p) == 2.5
