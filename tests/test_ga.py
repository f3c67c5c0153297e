import random
from collections import Counter

import pytest

from dagsched.dag import (
    DataEdge,
    TaskNode,
    build_graph,
    compute_heights,
    is_valid_order,
)
from dagsched.errors import InvalidValue
from dagsched.evaluator import Chromosome, CommMode, evaluate
from dagsched.ga import (
    CrossoverMode,
    GaConfig,
    crossover_order_preserving,
    crossover_task_aligned,
    generate_individual,
    load_balanced_individual,
    mutate,
    rank_select_pairs,
    run,
    update_population,
)
from dagsched.platform import LinkSpec, Machine, build_platform

from _oracles import brute_force_optimum, random_graph
from conftest import make_ref_graph

# reproduction example: the published pair of parent solutions
P1_ORDER = [f"t{i}" for i in [1, 3, 6, 2, 5, 4, 8, 7, 9, 10]]
P1_MACHINES = ["M1", "M2", "M4", "M7", "M3", "M1", "M5", "M6", "M3", "M4"]
P2_ORDER = [f"t{i}" for i in [1, 2, 4, 8, 3, 6, 7, 9, 5, 10]]
P2_MACHINES = ["M4", "M3", "M6", "M7", "M1", "M2", "M4", "M3", "M5", "M2"]
POINT = 4


def parents():
    return Chromosome(list(P1_ORDER), list(P1_MACHINES)), Chromosome(list(P2_ORDER), list(P2_MACHINES))


def homogeneous(n, bandwidth=10.0):
    return build_platform([Machine(f"M{i}", f"Machine{i}", 1.0) for i in range(1, n + 1)],
                          default_link=LinkSpec("*", "*", bandwidth=bandwidth))


class TestGenerateIndividual:
    def test_first_task_is_the_entry(self, ref_graph, seven_machines):
        h = compute_heights(ref_graph)
        for seed in range(20):
            c = generate_individual(ref_graph, seven_machines, h, random.Random(seed))
            assert c.order[0] == "t1"
            assert is_valid_order(ref_graph, c.order)

    def test_chain_has_unique_order(self):
        g = build_graph([TaskNode(f"t{i}", f"t{i}", 1.0) for i in (1, 2, 3)],
                        [DataEdge("t1", "t2", 0.0), DataEdge("t2", "t3", 0.0)])
        p = homogeneous(2)
        h = compute_heights(g)
        for seed in range(10):
            c = generate_individual(g, p, h, random.Random(seed))
            assert c.order == ["t1", "t2", "t3"]

    def test_randomization_reaches_multiple_orders(self, ref_graph, seven_machines):
        h = compute_heights(ref_graph)
        rng = random.Random(0)
        seconds = set()
        for _ in range(1000):
            c = generate_individual(ref_graph, seven_machines, h, rng)
            assert is_valid_order(ref_graph, c.order)
            seconds.add(c.order[1])
        assert {"t2", "t3"} <= seconds

    def test_global_heights_untouched(self, ref_graph, seven_machines):
        h = compute_heights(ref_graph)
        snapshot = dict(h)
        generate_individual(ref_graph, seven_machines, h, random.Random(1))
        assert h == snapshot


class TestLoadBalancedIndividual:
    def test_two_equal_tasks_split(self):
        g = build_graph([TaskNode("a", "a", 5.0), TaskNode("b", "b", 5.0)], [])
        p = homogeneous(2)
        c = load_balanced_individual(g, p, compute_heights(g))
        assert set(c.machines) == {"M1", "M2"}

    def test_single_machine(self, ref_graph):
        p = homogeneous(1)
        c = load_balanced_individual(ref_graph, p, compute_heights(ref_graph))
        assert set(c.machines) == {"M1"}
        assert is_valid_order(ref_graph, c.order)

    def test_least_load_rule(self):
        g = build_graph([TaskNode("a", "a", 4.0), TaskNode("b", "b", 3.0),
                         TaskNode("c", "c", 3.0)], [])
        p = homogeneous(2)
        c = load_balanced_individual(g, p, compute_heights(g))
        # a -> M1, b -> M2 (M1 holds 4), c -> M2 (3 < 4)
        assert c.machines == ["M1", "M2", "M2"]


class TestRankSelection:
    def _pop(self, fitnesses):
        return [Chromosome(["x"], ["m"], f) for f in fitnesses]

    def test_two_members(self):
        pop = self._pop([10.0, 20.0])
        for a, b in rank_select_pairs(pop, 20, random.Random(0)):
            assert {a.fitness, b.fitness} == {10.0, 20.0}

    def test_best_selected_with_rank_weight(self):
        pop = self._pop([10.0, 20.0, 30.0, 40.0])
        rng = random.Random(42)
        draws = 0
        best = 0
        for a, b in rank_select_pairs(pop, 50_000, rng):
            # only the first parent of each pair is an unconditioned draw
            draws += 1
            if a.fitness == 10.0:
                best += 1
        assert best / draws == pytest.approx(0.4, abs=0.01)

    def test_equal_fitness_is_uniform(self):
        pop = self._pop([5.0, 5.0, 5.0, 5.0])
        rng = random.Random(7)
        counts = Counter(id(a) for a, _ in rank_select_pairs(pop, 40_000, rng))
        for n in counts.values():
            assert n / 40_000 == pytest.approx(0.25, abs=0.05)


class TestCrossoverOrderPreserving:
    def test_published_children(self):
        p1, p2 = parents()
        c1, c2 = crossover_order_preserving(p1, p2, POINT)
        assert c1.order == P1_ORDER
        assert c1.machines == ["M1", "M2", "M4", "M7", "M1", "M2", "M4", "M3", "M5", "M2"]
        assert c2.order == P2_ORDER
        assert c2.machines == ["M4", "M3", "M6", "M7", "M3", "M1", "M5", "M6", "M3", "M4"]

    def test_last_position_only(self):
        p1, p2 = parents()
        c1, c2 = crossover_order_preserving(p1, p2, 9)
        assert c1.machines == P1_MACHINES[:9] + [P2_MACHINES[9]]
        assert c2.machines == P2_MACHINES[:9] + [P1_MACHINES[9]]

    def test_equal_parents_fixed_point(self):
        p1, _ = parents()
        c1, c2 = crossover_order_preserving(p1, p1.copy(), POINT)
        assert c1.machines == c2.machines == P1_MACHINES


class TestCrossoverTaskAligned:
    def test_derived_children(self):
        p1, p2 = parents()
        c1, c2 = crossover_task_aligned(p1, p2, POINT)
        assert c1.order == P1_ORDER
        assert c1.machines == ["M1", "M2", "M4", "M7", "M5", "M6", "M7", "M4", "M3", "M2"]
        assert c2.order == P2_ORDER
        assert c2.machines == ["M4", "M3", "M1", "M5", "M1", "M2", "M6", "M3", "M3", "M4"]

    def test_point_zero_swaps_everything(self):
        p1, p2 = parents()
        c1, c2 = crossover_task_aligned(p1, p2, 0)
        m2 = dict(zip(P2_ORDER, P2_MACHINES))
        assert c1.machines == [m2[t] for t in P1_ORDER]

    def test_equal_parents_fixed_point(self):
        p1, _ = parents()
        c1, c2 = crossover_task_aligned(p1, p1.copy(), POINT)
        assert c1.machines == c2.machines == P1_MACHINES


class TestMutate:
    def test_published_swap(self, ref_graph):
        # force the draw to hit positions 2 and 3 (task6, task2 - independent)
        class FixedRng:
            def __init__(self):
                self.draws = iter([2, 3])

            def randrange(self, n):
                return next(self.draws)

        p1, _ = parents()
        out = mutate(ref_graph, p1, FixedRng())
        assert out.order == [f"t{i}" for i in [1, 3, 2, 6, 5, 4, 8, 7, 9, 10]]
        assert out.machines == ["M1", "M2", "M7", "M4", "M3", "M1", "M5", "M6", "M3", "M4"]

    def test_chain_is_unchangeable(self):
        g = build_graph([TaskNode(f"t{i}", f"t{i}", 1.0) for i in (1, 2, 3)],
                        [DataEdge("t1", "t2", 0.0), DataEdge("t2", "t3", 0.0)])
        c = Chromosome(["t1", "t2", "t3"], ["M1", "M1", "M1"])
        out = mutate(g, c, random.Random(0))
        assert out.order == c.order and out.machines == c.machines

    def test_independent_pair_always_swaps(self):
        g = build_graph([TaskNode("a", "a", 1.0), TaskNode("b", "b", 1.0)], [])
        c = Chromosome(["a", "b"], ["M1", "M1"])
        out = mutate(g, c, random.Random(0))
        assert out.order == ["b", "a"]

    @pytest.mark.parametrize("seed", range(15))
    def test_always_valid_and_at_most_two_positions(self, seed):
        g = random_graph(n_tasks=12, edge_prob=0.25, seed=seed + 900)
        p = homogeneous(3)
        c = generate_individual(g, p, compute_heights(g), random.Random(seed))
        out = mutate(g, c, random.Random(seed))
        assert is_valid_order(g, out.order)
        diffs = sum(1 for x, y in zip(c.order, out.order) if x != y)
        assert diffs in (0, 2)


class TestUpdatePopulation:
    def _pop(self, fitnesses):
        return [Chromosome(["x"], ["m"], f) for f in sorted(fitnesses)]

    def _kids(self, fitnesses):
        return [Chromosome(["y"], ["m"], f) for f in fitnesses]

    def test_worse_child_dropped(self):
        pop = self._pop([10.0, 20.0, 30.0])
        out = update_population(pop, self._kids([99.0]))
        assert [c.fitness for c in out] == [10.0, 20.0, 30.0]

    def test_better_child_enters(self):
        pop = self._pop([10.0, 20.0, 30.0])
        out = update_population(pop, self._kids([5.0]))
        assert [c.fitness for c in out] == [5.0, 10.0, 20.0]
        assert out[0].fitness == 5.0

    def test_sort_and_truncate(self):
        pop = self._pop([10.0, 20.0, 30.0])
        out = update_population(pop, self._kids([15.0, 25.0, 35.0]))
        assert [c.fitness for c in out] == [10.0, 15.0, 20.0]

    def test_ties_favor_incumbents(self):
        pop = self._pop([10.0, 20.0])
        incumbent = pop[1]
        out = update_population(pop, self._kids([20.0]))
        assert out[1] is incumbent


class TestGaConfig:
    @pytest.mark.parametrize("bad", [dict(pop_size=1), dict(pairs_per_generation=0),
                                     dict(mutation_rate=1.5), dict(max_iters=-1),
                                     dict(stagnation_limit=0)])
    def test_invalid_values(self, bad):
        with pytest.raises(InvalidValue):
            GaConfig(**bad).validate()


class TestRun:
    def test_single_task_single_machine(self):
        g = build_graph([TaskNode("a", "a", 6.0)], [])
        p = homogeneous(1)
        best, tl, stats = run(g, p, GaConfig(pop_size=4, max_iters=3, rng_seed=1))
        assert best.fitness == 6.0
        assert tl.makespan == 6.0

    def test_determinism(self, ref_graph, seven_machines):
        cfg = GaConfig(pop_size=20, max_iters=10, rng_seed=7)
        r1 = run(make_ref_graph(5.0), seven_machines, cfg)
        r2 = run(make_ref_graph(5.0), seven_machines, cfg)
        assert r1[0].order == r2[0].order
        assert r1[0].machines == r2[0].machines
        assert r1[2].best_series == r2[2].best_series

    def test_best_series_non_increasing(self, seven_machines):
        g = make_ref_graph(10.0)
        _, _, stats = run(g, seven_machines, GaConfig(pop_size=30, max_iters=20, rng_seed=3))
        for a, b in zip(stats.best_series, stats.best_series[1:]):
            assert b <= a + 1e-12

    def test_never_worse_than_heuristic_seed(self, seven_machines):
        g = make_ref_graph(10.0)
        seed = load_balanced_individual(g, seven_machines, compute_heights(g))
        evaluate(g, seven_machines, seed)
        best, _, _ = run(g, seven_machines, GaConfig(pop_size=20, max_iters=10, rng_seed=11))
        assert best.fitness <= seed.fitness + 1e-9

    @pytest.mark.parametrize("mode", [CrossoverMode.ORDER_PRESERVING,
                                      CrossoverMode.TASK_ALIGNED, CrossoverMode.MIXED])
    def test_crossover_modes_all_run(self, seven_machines, mode):
        g = make_ref_graph(2.0)
        cfg = GaConfig(pop_size=10, max_iters=5, crossover_mode=mode, rng_seed=2)
        best, _, _ = run(g, seven_machines, cfg)
        assert is_valid_order(g, best.order)

    @pytest.mark.parametrize("seed", range(5))
    def test_finds_optimum_on_tiny_instance(self, seed):
        g = random_graph(n_tasks=5, edge_prob=0.4, seed=seed + 40)
        p = homogeneous(2)
        best, _, _ = run(g, p, GaConfig(pop_size=50, max_iters=30, rng_seed=seed),
                         CommMode.INCLUDE_TRANSFER)
        opt = brute_force_optimum(g, p, CommMode.INCLUDE_TRANSFER)
        assert best.fitness >= opt - 1e-9
        assert best.fitness == pytest.approx(opt, abs=1e-9)

    def test_stagnation_stops_early(self, seven_machines):
        g = make_ref_graph(0.0)
        cfg = GaConfig(pop_size=10, max_iters=50, stagnation_limit=3, rng_seed=5)
        _, _, stats = run(g, seven_machines, cfg)
        assert stats.iterations < 50
