import random

import pytest
from hypothesis import given
from hypothesis import strategies as st

from dagsched.dag import DataEdge, TaskNode, build_graph, is_valid_order
from dagsched.evaluator import CommMode, evaluate, lower_bound
from dagsched.minmin import min_min_schedule
from dagsched.platform import LinkSpec, Machine, build_platform

from _oracles import min_min_from_scratch, random_graph


def platform(speeds, bandwidth=10.0):
    machines = [Machine(f"M{i}", f"Machine{i}", s) for i, s in enumerate(speeds, start=1)]
    return build_platform(machines, default_link=LinkSpec("*", "*", bandwidth=bandwidth))


def oracle_min_min(g, p, mode):
    """Independent re-statement of the greedy rule, recomputed from scratch."""
    from dagsched.platform import execution_time, transfer_time
    include = mode is CommMode.INCLUDE_TRANSFER
    edge_bytes = {(e.src, e.dst): e.bytes for e in g.edges}
    done = {}
    host = {}
    avail = {m: 0.0 for m in p.machine_ids}
    committed = []
    while len(committed) < len(g):
        candidates = []
        for tid in g.task_ids:
            if tid in host or any(q not in host for q in g.parents(tid)):
                continue
            for mid in p.machine_ids:
                ready = max((done[q] + (transfer_time(p, edge_bytes[q, tid], host[q], mid)
                                        if include else 0.0)
                             for q in g.parents(tid)), default=0.0)
                start = max(ready, avail[mid])
                candidates.append((start + execution_time(p, g.task(tid), mid), tid, mid))
        fin = min(c[0] for c in candidates)
        # first candidate achieving the min, in task-then-machine declaration order
        _, tid, mid = next(c for c in candidates if c[0] == fin)
        done[tid] = fin
        host[tid] = mid
        avail[mid] = fin
        committed.append((tid, mid))
    return committed, max(done.values())


class TestMinMin:
    def test_single_task_picks_fastest(self):
        g = build_graph([TaskNode("a", "a", 10.0)], [])
        c, tl = min_min_schedule(g, platform([1.0, 2.0]))
        assert c.machines == ["M2"]
        assert tl.makespan == 5.0

    def test_two_equal_tasks_spread(self):
        g = build_graph([TaskNode("a", "a", 4.0), TaskNode("b", "b", 4.0)], [])
        c, tl = min_min_schedule(g, platform([1.0, 1.0]))
        assert set(c.machines) == {"M1", "M2"}
        assert tl.makespan == 4.0

    def test_diamond_matches_oracle(self):
        tasks = [TaskNode("a", "a", 6.0), TaskNode("b", "b", 4.0),
                 TaskNode("c", "c", 8.0), TaskNode("d", "d", 5.0)]
        edges = [DataEdge("a", "b", 3.0), DataEdge("a", "c", 5.0),
                 DataEdge("b", "d", 2.0), DataEdge("c", "d", 4.0)]
        g = build_graph(tasks, edges)
        p = platform([1.0, 2.5], bandwidth=2.0)
        for mode in CommMode:
            c, tl = min_min_schedule(g, p, mode)
            committed, makespan = oracle_min_min(g, p, mode)
            assert list(zip(c.order, c.machines)) == committed
            assert tl.makespan == makespan

    @pytest.mark.parametrize("seed", range(10))
    def test_random_instances_match_oracle(self, seed):
        g = random_graph(n_tasks=10, edge_prob=0.3, seed=seed + 700)
        p = platform([1.0, 1.6, 2.2], bandwidth=3.0)
        for mode in CommMode:
            c, tl = min_min_schedule(g, p, mode)
            committed, makespan = oracle_min_min(g, p, mode)
            assert list(zip(c.order, c.machines)) == committed
            assert tl.makespan == makespan

    @pytest.mark.parametrize("seed", range(10))
    def test_invariants(self, seed):
        g = random_graph(n_tasks=12, edge_prob=0.25, seed=seed + 800)
        p = platform([1.0, 2.0], bandwidth=4.0)
        c, tl = min_min_schedule(g, p)
        assert is_valid_order(g, c.order)
        assert tl.makespan >= lower_bound(g, p) - 1e-9
        # self-consistency with the evaluator
        again = evaluate(g, p, c.copy())
        assert again == tl

    @pytest.mark.parametrize("mode", list(CommMode))
    def test_fitness_is_makespan(self, ref_graph, mode):
        c, tl = min_min_schedule(ref_graph, platform([1.0, 1.5], bandwidth=5.0), mode)
        assert c.fitness == tl.makespan == max(tl.finish.values())

    def test_deterministic(self, ref_graph):
        p = platform([1.0, 1.5], bandwidth=5.0)
        c1, t1 = min_min_schedule(ref_graph, p)
        c2, t2 = min_min_schedule(ref_graph, p)
        assert c1.order == c2.order and c1.machines == c2.machines
        assert t1 == t2


@st.composite
def tie_heavy_instances(draw):
    """A DAG and a platform on which many pairs finish at the same time.

    Work, bytes, ETC entries, bandwidths and latencies are small integers,
    many bytes are 0, and speeds are equal or drawn from three values. Tasks
    are declared in a shuffled order, so the declaration order differs from
    the order in which tasks become ready. Execution times come from work /
    speed or from ETC rows for some or all tasks; links are one default
    link, a link for every ordered pair, or some explicit links over a
    default one.
    """
    rng = random.Random(draw(st.integers(0, 2**32 - 1)))
    n = draw(st.integers(1, 25))
    edge_prob = draw(st.sampled_from([0.0, 0.1, 0.25, 0.5]))
    tasks = [TaskNode(f"t{i}", f"job{i}", float(rng.randint(0, 4))) for i in range(n)]
    edges = [DataEdge(f"t{i}", f"t{j}", float(rng.choice([0, 0, 1, 2])))
             for i in range(n) for j in range(i + 1, n) if rng.random() < edge_prob]
    rng.shuffle(tasks)
    mids = [f"M{k}" for k in range(draw(st.integers(1, 6)))]
    equal = draw(st.booleans())
    machines = [Machine(m, m, 1.0 if equal else rng.choice([0.5, 1.0, 2.0])) for m in mids]
    pairs = [(a, b) for a in mids for b in mids if a != b]
    links = draw(st.sampled_from(["default", "explicit", "mixed"]))
    chosen = pairs if links == "explicit" else [ab for ab in pairs if links == "mixed" and rng.random() < 0.5]
    link_specs = [LinkSpec(a, b, rng.choice([1.0, 2.0]), rng.choice([0.0, 1.0])) for a, b in chosen]
    default = None if links == "explicit" else LinkSpec("*", "*", rng.choice([1.0, 2.0]), rng.choice([0.0, 1.0]))
    etc = draw(st.sampled_from([None, "some", "all"]))
    if etc is not None:
        etc = {t.id: {m: float(rng.randint(0, 4)) for m in mids}
               for t in tasks if etc == "all" or rng.random() < 0.5}
    return build_graph(tasks, edges), build_platform(machines, link_specs, default, etc)


class TestIncrementalMatchesFromScratch:
    @given(tie_heavy_instances(), st.sampled_from(CommMode))
    def test_same_pairs_and_timeline(self, case, mode):
        g, p = case
        c, tl = min_min_schedule(g, p, mode)
        ref_c, ref_tl = min_min_from_scratch(g, p, mode)
        assert (c.order, c.machines, c.fitness) == (ref_c.order, ref_c.machines, ref_c.fitness)
        assert tl == ref_tl
