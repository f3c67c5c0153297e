import math
import random
import sys
import threading

import pytest
from hypothesis import assume, given
from hypothesis import strategies as st

from dagsched import dag as dag_mod
from dagsched.dag import (
    DataEdge,
    TaskNode,
    adjust_heights,
    build_graph,
    compute_heights,
    is_valid_order,
    ready_tasks,
)
from dagsched.errors import (
    CycleDetected,
    DuplicateEdge,
    DuplicateTaskId,
    EmptyGraph,
    InvalidValue,
    NotReady,
    SelfLoop,
    UnknownEdgeEndpoint,
)

from _oracles import (
    adjusted_heights_by_path_enumeration,
    heights_by_path_enumeration,
    kahn_order_or_cycle,
    random_graph,
    reachable_by_dfs,
    rescan_after_selected,
    valid_order_by_positions,
)
from conftest import dags_with_valid_orders


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

    def test_task_ids_tuple_in_declaration_order(self):
        g = build_graph([TaskNode(t, t, 1.0) for t in ("c", "a", "b")], [DataEdge("b", "c", 0.0)])
        assert g.task_ids == ("c", "a", "b") and type(g.task_ids) is tuple

    def test_one_shot_iterables_build_the_same_graph_as_lists(self):
        tasks = [TaskNode(t, t, 1.0) for t in ("c", "a", "b")]
        edges = [DataEdge("a", "b", 2.0), DataEdge("a", "c", 3.0), DataEdge("b", "c", 0.0)]
        g, h = build_graph(tasks, edges), build_graph((t for t in tasks), iter(edges))
        assert (h.tasks, h.edges, h.task_ids, h.topo_order, h._inputs) == \
            (g.tasks, g.edges, g.task_ids, g.topo_order, g._inputs)
        assert len(h) == 3 and is_valid_order(h, ["a", "b", "c"])

    def test_an_empty_iterator_is_an_empty_graph(self):
        with pytest.raises(EmptyGraph):
            build_graph(iter([]), [])

    def test_smallest_cycle(self):
        tasks = [TaskNode("t1", "t1", 1.0), TaskNode("t2", "t2", 1.0)]
        edges = [DataEdge("t1", "t2", 0.0), DataEdge("t2", "t1", 0.0)]
        with pytest.raises(CycleDetected) as exc:
            build_graph(tasks, edges)
        assert set(exc.value.cycle) == {"t1", "t2"}

    def test_cycle_message_is_one_line(self):
        tasks = [TaskNode("a", "a", 1.0), TaskNode("b\nc", "b", 1.0)]
        edges = [DataEdge("a", "b\nc", 0.0), DataEdge("b\nc", "a", 0.0)]
        with pytest.raises(CycleDetected) as exc:
            build_graph(tasks, edges)
        assert str(exc.value) == "cycle detected: 'b\\nc' -> 'a'"

    def test_no_tasks(self):
        with pytest.raises(EmptyGraph):
            build_graph([], [])

    def test_duplicate_edge(self):
        with pytest.raises(DuplicateEdge, match="duplicate edge 'a' -> 'b'"):
            build_graph([TaskNode("a", "a", 1.0), TaskNode("b", "b", 1.0)],
                        [DataEdge("a", "b", 1.0), DataEdge("a", "b", 2.0)])

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

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    def test_non_finite_work(self, value):
        with pytest.raises(InvalidValue, match="work"):
            build_graph([TaskNode("a", "a", value)], [])

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    def test_non_finite_bytes(self, value):
        with pytest.raises(InvalidValue, match="bytes"):
            build_graph([TaskNode("a", "a", 1.0), TaskNode("b", "b", 1.0)], [DataEdge("a", "b", value)])


@st.composite
def declared_graphs(draw):
    """Tasks and edges of a random DAG, each declared in a shuffled order,
    plus up to two back edges, each of which closes a cycle."""
    g = random_graph(draw(st.sampled_from(range(1, 11))), draw(st.sampled_from([0.1, 0.3, 0.6])),
                     draw(st.integers(0, 2**32 - 1)))
    edges = list(g.edges)
    reach = {t: sorted(reachable_by_dfs(g, t)) for t in g.task_ids}
    sources = [t for t in g.task_ids if reach[t]]
    for _ in range(draw(st.sampled_from([0, 1, 2])) if sources else 0):
        a = draw(st.sampled_from(sources))
        b = draw(st.sampled_from(reach[a]))
        if DataEdge(b, a, 0.0) not in edges:
            edges.append(DataEdge(b, a, 0.0))
    return draw(st.permutations(g.tasks)), draw(st.permutations(edges))


class TestBuildGraphAgainstKahnReference:
    @given(declared_graphs())
    def test_order_or_cycle_matches_the_reference(self, case):
        tasks, edges = case
        order, cycle = kahn_order_or_cycle(tasks, edges)
        if cycle is None:
            assert build_graph(tasks, edges).topo_order == tuple(order)
            return
        with pytest.raises(CycleDetected) as exc:
            build_graph(tasks, edges)
        assert exc.value.cycle == cycle
        # a real cycle: each task has an edge to the next, the last one back to the first
        pairs = {(e.src, e.dst) for e in edges}
        assert len(set(cycle)) == len(cycle)
        assert all((a, b) in pairs for a, b in zip(cycle, cycle[1:] + cycle[:1]))


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


@st.composite
def graphs_with_height_maps(draw):
    """A random DAG, a height map over it and a task at height 1 in that map.

    The map is either the adjusted heights of a random zero set, as the GA
    builds them, or arbitrary: any zero set, any other values.
    """
    g = random_graph(draw(st.integers(1, 9)), draw(st.floats(0.0, 0.6)), draw(st.integers(0, 2**32 - 1)))
    zeros = {t for t in g.task_ids if draw(st.booleans())}
    if draw(st.booleans()):
        h = adjusted_heights_by_path_enumeration(g, zeros)
        selected = [t for t in g.task_ids if h[t] == 1]
    else:
        h = {t: 0 if t in zeros else draw(st.integers(-3, 12).filter(bool)) for t in g.task_ids}
        selected = list(g.task_ids)
    assume(selected)
    tid = draw(st.sampled_from(selected))
    h[tid] = 1
    return g, h, tid


class TestAdjustHeightsAgainstPathEnumeration:
    @given(graphs_with_height_maps())
    def test_depends_only_on_the_zero_set(self, case):
        g, h, selected = case
        scheduled = {t for t in g.task_ids if h[t] == 0} | {selected}
        before = dict(h)
        assert adjust_heights(g, h, selected) == adjusted_heights_by_path_enumeration(g, scheduled)
        assert h == before


class TestAdjustHeightsHandedItsLastMap:
    """Handed back the map it last returned, adjust_heights re-derives only
    the selected task's descendants; nothing a caller does may change an answer."""

    @given(st.integers(1, 10), st.floats(0.0, 0.6), st.integers(0, 2**32 - 1), st.data())
    def test_every_step_of_two_interleaved_walks(self, n, edge_prob, seed, data):
        g = random_graph(n, edge_prob, seed)
        walks = [compute_heights(g), compute_heights(g)]
        while live := [k for k, h in enumerate(walks) if ready_tasks(g, h)]:
            k = data.draw(st.sampled_from(live))
            h = walks[k]
            how = data.draw(st.sampled_from(["as returned", "equal copy", "float copy", "edited"]))
            if how == "equal copy":
                h = dict(h)
            elif how == "float copy":  # equal to the map it came from, with 1.0 for 1
                h = {t: float(v) for t, v in h.items()}
            elif how == "edited":  # in place, on the very map adjust_heights returned
                h[data.draw(st.sampled_from(g.task_ids))] = data.draw(st.integers(0, 4))
            ready = ready_tasks(g, h)
            if not ready:
                walks[k] = h
                continue
            selected = data.draw(st.sampled_from(ready))
            scheduled = {t for t in g.task_ids if h[t] == 0} | {selected}
            before = dict(h)
            out = adjust_heights(g, h, selected)
            assert out == adjusted_heights_by_path_enumeration(g, scheduled)
            assert all(type(v) is int for v in out.values())
            assert h == before and out is not h
            walks[k] = out

    def test_walks_in_threads_share_one_graph(self):
        # each thread's calls swap the graph's cached map under the others'
        g = random_graph(12, 0.3, seed=5)
        expected, errors = {}, []

        def walk(seed):
            rng = random.Random(seed)
            try:
                for _ in range(30):
                    h, scheduled = compute_heights(g), frozenset()
                    while ready := ready_tasks(g, h):
                        selected = rng.choice(ready)
                        scheduled |= {selected}
                        h = adjust_heights(g, h, selected)
                        if scheduled not in expected:
                            expected[scheduled] = adjusted_heights_by_path_enumeration(g, scheduled)
                        assert h == expected[scheduled]
            except Exception as e:  # a thread's exception would otherwise not fail the test
                errors.append(e)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=walk, args=(k,)) for k in range(6)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads) and errors == []

    def test_a_walk_recomputes_in_full_once(self, monkeypatch):
        g = random_graph(40, 0.15, seed=3)
        rng = random.Random(3)
        h = compute_heights(g)
        full, calls = dag_mod._longest, []
        monkeypatch.setattr(dag_mod, "_longest", lambda *args: calls.append(args) or full(*args))
        for _ in range(len(g)):
            h = adjust_heights(g, h, rng.choice(ready_tasks(g, h)))
        assert len(calls) == 1 and set(h.values()) == {0}


class RecordingParents(dict):
    """A graph's parent table that logs each task whose parents are read."""

    def __init__(self, parents):
        super().__init__(parents)
        self.log = []

    def __getitem__(self, tid):
        self.log.append(tid)
        return super().__getitem__(tid)


class TestAdjustHeightsBitsetPastOneWord:
    """The hit path pops the tasks with a changed parent from an int bitset of
    topological positions, lowest first. Graphs of 60-150 tasks put those
    positions past 64 and 128; path enumeration checks the full recompute at
    the sizes it can reach (TestAdjustHeightsAgainstPathEnumeration)."""

    @given(st.integers(60, 150), st.sampled_from([0.02, 0.05, 0.1]), st.integers(0, 2**32 - 1))
    def test_every_hit_matches_the_full_recompute_and_the_old_scan(self, n, edge_prob, seed):
        rng = random.Random(seed)
        g = random_graph(n, edge_prob, seed)
        tasks = list(g.tasks)
        rng.shuffle(tasks)
        g = build_graph(tasks, g.edges)  # declaration order is no longer topological
        g._parents = read = RecordingParents(g._parents)
        h, hits = compute_heights(g), 0
        while ready := ready_tasks(g, h):
            selected = rng.choice(ready)
            want, derived = rescan_after_selected(g, h, selected)
            hit = h == g._adjusted
            read.log.clear()
            out = adjust_heights(g, h, selected)
            if hit:  # the same tasks re-derived, in the same order, as the old scan
                hits += 1
                assert read.log == derived
            g._adjusted = None  # forces the full recompute
            assert adjust_heights(g, h, selected) == out == want
            h = out
        assert hits == n - 1 and set(h.values()) == {0}


class TestReadyTasks:
    def test_fresh(self, ref_graph):
        assert ready_tasks(ref_graph, compute_heights(ref_graph)) == ["t1"]

    def test_after_selecting_entry(self, ref_graph):
        h = adjust_heights(ref_graph, compute_heights(ref_graph), "t1")
        assert ready_tasks(ref_graph, h) == ["t2", "t3", "t4"]

    def test_all_selected(self, ref_graph):
        assert ready_tasks(ref_graph, {t: 0 for t in ref_graph.task_ids}) == []


class TestIsValidOrder:
    def test_paper_solution_order(self, ref_graph):
        order = [f"t{i}" for i in [1, 3, 6, 2, 5, 4, 8, 7, 9, 10]]
        assert is_valid_order(ref_graph, order)

    def test_child_before_parent(self, ref_graph):
        order = [f"t{i}" for i in [2, 1, 3, 6, 5, 4, 8, 7, 9, 10]]
        assert not is_valid_order(ref_graph, order)

    def test_missing_task(self, ref_graph):
        assert not is_valid_order(ref_graph, [f"t{i}" for i in range(1, 10)])


@st.composite
def orders_to_check(draw):
    """A DAG and a sequence to check: a valid order as drawn, or one spoiled
    by one edit. Returns (graph, sequence, whether it is still valid)."""
    g, order = draw(dags_with_valid_orders())
    kind = draw(st.sampled_from(["valid", "edge swap", "any swap", "duplicate", "extra copy",
                                 "missing", "foreign", "extra foreign", "empty"]))
    # half the time the edit hits the last position, whose task no later task
    # needs: there only the duplicate or unknown-id test itself can tell
    i = len(order) - 1 if draw(st.booleans()) else draw(st.integers(0, len(order) - 1))
    j = draw(st.integers(0, len(order) - 1).filter(lambda j: j != i))
    out = list(order)
    if kind == "edge swap" and g.edges:  # a parent and its child trade places
        e = draw(st.sampled_from(g.edges))
        a, b = out.index(e.src), out.index(e.dst)
        out[a], out[b] = out[b], out[a]
    elif kind == "any swap":
        out[i], out[j] = out[j], out[i]
    elif kind == "duplicate":  # same length: one task twice, another not at all
        out[i] = out[j]
    elif kind == "extra copy":
        out.insert(i, out[j])
    elif kind == "missing":
        del out[i]
    elif kind == "foreign":
        out[i] = "zz"
    elif kind == "extra foreign":
        out.insert(i, "zz")
    elif kind == "empty":
        out = []
    expected = {"valid": True, "any swap": None, "edge swap": None if not g.edges else False}.get(kind, False)
    return g, draw(st.sampled_from([out, tuple(out)])), expected


class TestIsValidOrderAgainstPositions:
    @given(orders_to_check())
    def test_same_answer_as_the_position_check(self, case):
        g, order, expected = case
        got = is_valid_order(g, order)
        assert got == valid_order_by_positions(g, order)
        if expected is not None:
            assert got is expected


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
