import random

import pytest

from dagsched.dag import (
    DataEdge,
    TaskNode,
    adjust_heights,
    build_graph,
    compute_heights,
    is_ancestor,
    is_valid_order,
    ready_tasks,
)
from dagsched.errors import (
    CycleDetected,
    DuplicateTaskId,
    InvalidValue,
    NotReady,
    SelfLoop,
    UnknownEdgeEndpoint,
)

from _oracles import heights_by_path_enumeration, random_graph, reachable_by_dfs


def chain(n):
    tasks = [TaskNode(f"t{i}", f"job{i}", 1.0) for i in range(1, n + 1)]
    edges = [DataEdge(f"t{i}", f"t{i+1}", 0.0) for i in range(1, n)]
    return build_graph(tasks, edges)


class TestBuildGraph:
    def test_reference_dag(self, ref_graph):
        assert ref_graph.entry_tasks() == ["t1"]
        assert ref_graph.exit_tasks() == ["t10"]
        assert len(ref_graph) == 10

    def test_single_task(self):
        g = build_graph([TaskNode("a", "a", 1.0)], [])
        assert g.entry_tasks() == g.exit_tasks() == ["a"]

    def test_smallest_cycle(self):
        tasks = [TaskNode("t1", "t1", 1.0), TaskNode("t2", "t2", 1.0)]
        edges = [DataEdge("t1", "t2", 0.0), DataEdge("t2", "t1", 0.0)]
        with pytest.raises(CycleDetected) as exc:
            build_graph(tasks, edges)
        assert set(exc.value.cycle) == {"t1", "t2"}

    def test_duplicate_id(self):
        with pytest.raises(DuplicateTaskId):
            build_graph([TaskNode("a", "a", 1.0), TaskNode("a", "b", 1.0)], [])

    def test_self_loop(self):
        with pytest.raises(SelfLoop):
            build_graph([TaskNode("a", "a", 1.0)], [DataEdge("a", "a", 0.0)])

    def test_unknown_endpoint(self):
        with pytest.raises(UnknownEdgeEndpoint):
            build_graph([TaskNode("a", "a", 1.0)], [DataEdge("a", "zz", 0.0)])

    def test_negative_work(self):
        with pytest.raises(InvalidValue, match="negative work"):
            build_graph([TaskNode("a", "a", -1.0)], [])

    def test_negative_bytes(self):
        with pytest.raises(InvalidValue, match="negative bytes"):
            build_graph([TaskNode("a", "a", 1.0), TaskNode("b", "b", 1.0)], [DataEdge("a", "b", -1.0)])


class TestHeights:
    def test_reference_table(self, ref_graph):
        h = compute_heights(ref_graph)
        assert [h[f"t{i}"] for i in range(1, 11)] == [1, 2, 2, 2, 4, 3, 4, 3, 5, 6]

    def test_single_task(self):
        g = build_graph([TaskNode("a", "a", 1.0)], [])
        assert compute_heights(g) == {"a": 1}

    def test_chain(self):
        g = chain(3)
        assert compute_heights(g) == {"t1": 1, "t2": 2, "t3": 3}

    def test_edge_monotonicity(self, ref_graph):
        h = compute_heights(ref_graph)
        for e in ref_graph.edges:
            assert h[e.src] < h[e.dst]

    @pytest.mark.parametrize("seed", range(20))
    def test_matches_path_enumeration(self, seed):
        g = random_graph(n_tasks=random.Random(seed).randint(1, 8), edge_prob=0.4, seed=seed)
        assert compute_heights(g) == heights_by_path_enumeration(g)


class TestAdjustHeights:
    def test_reference_table(self, ref_graph):
        h = compute_heights(ref_graph)
        h2 = adjust_heights(ref_graph, h, "t1")
        assert [h2[f"t{i}"] for i in range(1, 11)] == [0, 1, 1, 1, 3, 2, 3, 2, 4, 5]
        # input untouched
        assert h["t1"] == 1

    def test_single_task(self):
        g = build_graph([TaskNode("a", "a", 1.0)], [])
        assert adjust_heights(g, {"a": 1}, "a") == {"a": 0}

    def test_chain_twice(self):
        g = chain(3)
        h = adjust_heights(g, compute_heights(g), "t1")
        h = adjust_heights(g, h, "t2")
        assert h == {"t1": 0, "t2": 0, "t3": 1}

    def test_not_ready(self, ref_graph):
        h = compute_heights(ref_graph)
        with pytest.raises(NotReady):
            adjust_heights(ref_graph, h, "t5")

    @pytest.mark.parametrize("seed", range(10))
    def test_never_increases_or_zeroes_unselected(self, seed):
        g = random_graph(n_tasks=10, edge_prob=0.3, seed=seed)
        rng = random.Random(seed)
        h = compute_heights(g)
        while True:
            ready = ready_tasks(g, h)
            if not ready:
                break
            sel = rng.choice(ready)
            h2 = adjust_heights(g, h, sel)
            for tid in g.task_ids:
                assert h2[tid] <= h[tid]
                if tid != sel and h[tid] > 0:
                    assert h2[tid] >= 1
            h = h2


class TestReadyTasks:
    def test_fresh(self, ref_graph):
        assert ready_tasks(ref_graph, compute_heights(ref_graph)) == ["t1"]

    def test_after_selecting_entry(self, ref_graph):
        h = adjust_heights(ref_graph, compute_heights(ref_graph), "t1")
        assert ready_tasks(ref_graph, h) == ["t2", "t3", "t4"]

    def test_all_selected(self, ref_graph):
        assert ready_tasks(ref_graph, {t: 0 for t in ref_graph.task_ids}) == []


class TestIsAncestor:
    def test_reference_pairs(self, ref_graph):
        assert is_ancestor(ref_graph, "t1", "t10")
        assert not is_ancestor(ref_graph, "t2", "t6")
        assert not is_ancestor(ref_graph, "t5", "t5")

    @pytest.mark.parametrize("seed", range(20))
    def test_matches_dfs(self, seed):
        g = random_graph(n_tasks=8, edge_prob=0.35, seed=seed + 100)
        for a in g.task_ids:
            reach = reachable_by_dfs(g, a)
            for b in g.task_ids:
                assert is_ancestor(g, a, b) == (b in reach)


class TestIsValidOrder:
    def test_paper_solution_order(self, ref_graph):
        order = [f"t{i}" for i in [1, 3, 6, 2, 5, 4, 8, 7, 9, 10]]
        assert is_valid_order(ref_graph, order)

    def test_child_before_parent(self, ref_graph):
        order = [f"t{i}" for i in [2, 1, 3, 6, 5, 4, 8, 7, 9, 10]]
        assert not is_valid_order(ref_graph, order)

    def test_missing_task(self, ref_graph):
        assert not is_valid_order(ref_graph, [f"t{i}" for i in range(1, 10)])


@pytest.mark.parametrize("seed", range(15))
def test_ready_task_process_yields_valid_orders(seed):
    # picking any ready task repeatedly terminates in exactly n steps and
    # produces a dependency-respecting order
    g = random_graph(n_tasks=random.Random(seed).randint(1, 12), edge_prob=0.3, seed=seed + 500)
    rng = random.Random(seed)
    h = compute_heights(g)
    order = []
    for _ in range(len(g)):
        ready = ready_tasks(g, h)
        assert ready
        sel = rng.choice(ready)
        order.append(sel)
        h = adjust_heights(g, h, sel)
    assert ready_tasks(g, h) == []
    assert is_valid_order(g, order)
