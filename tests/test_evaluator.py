import itertools
import random

import pytest
from hypothesis import given
from hypothesis import strategies as st

from dagsched.dag import DataEdge, TaskNode, build_graph, compute_heights
from dagsched.errors import InvalidOrder, InvalidValue, NoLinkDefined, UnknownMachine
from dagsched.evaluator import Chromosome, CommMode, Timeline, evaluate, lower_bound, ready_time
from dagsched.ga import GaConfig, generate_individual, run
from dagsched.minmin import min_min_schedule
from dagsched.platform import LinkSpec, Machine, build_platform

from _oracles import (
    all_paths_from_entries,
    all_valid_orders,
    inputs_from_edges,
    pair_times_from_scratch,
    random_graph,
    timeline_from_scratch,
)
from conftest import dags_with_valid_orders


def platform_of(n, speed=1.0, bandwidth=10.0):
    machines = [Machine(f"M{i}", f"Machine{i}", speed) for i in range(1, n + 1)]
    return build_platform(machines, default_link=LinkSpec("*", "*", bandwidth=bandwidth))


class TestModeMustBeACommMode:
    # any other value, even the enum's own "include", would silently ignore transfers
    @pytest.mark.parametrize("mode", ["include", True, None])
    def test_rejected(self, mode):
        g = build_graph([TaskNode("a", "a", 1.0), TaskNode("b", "b", 1.0)], [DataEdge("a", "b", 5.0)])
        p = platform_of(2)
        message = f"^mode must be a CommMode, got {mode!r}$"
        with pytest.raises(InvalidValue, match=message):
            evaluate(g, p, Chromosome(["a", "b"], ["M1", "M2"]), mode)
        with pytest.raises(InvalidValue, match=message):
            min_min_schedule(g, p, mode)
        with pytest.raises(InvalidValue, match=message):
            run(g, p, GaConfig(pop_size=4, max_iters=1), mode)


class TestErrorContract:
    """The errors a faster evaluator must keep, and the instances it must not reject."""

    @staticmethod
    def chain():
        return build_graph([TaskNode(t, t, 2.0) for t in "abc"], [DataEdge("a", "b", 3.0), DataEdge("b", "c", 4.0)])

    @pytest.mark.parametrize("mode", list(CommMode))
    @pytest.mark.parametrize("at", [0, 1, 2])
    def test_unknown_machine_in_the_chromosome(self, mode, at):
        machines = ["M1", "M2", "M1"]
        machines[at] = "zz"
        c = Chromosome(["a", "b", "c"], machines)
        with pytest.raises(UnknownMachine, match="^unknown machine 'zz'$"):
            evaluate(self.chain(), platform_of(2), c, mode)
        assert c.fitness is None

    @pytest.mark.parametrize("mode", list(CommMode))
    def test_invalid_order_is_reported_before_an_unknown_machine(self, mode):
        with pytest.raises(InvalidOrder):
            evaluate(self.chain(), platform_of(2), Chromosome(["b", "a", "c"], ["zz", "M1", "M1"]), mode)

    @pytest.mark.parametrize("edges, mode", [
        ([], CommMode.INCLUDE_TRANSFER),
        ([], CommMode.IGNORE_TRANSFER),
        ([DataEdge("a", "b", 3.0), DataEdge("a", "c", 5.0)], CommMode.IGNORE_TRANSFER),
    ], ids=["no-edges-comm-on", "no-edges-comm-off", "edges-comm-off"])
    def test_a_missing_link_that_no_transfer_uses(self, edges, mode):
        # only M1 -> M2 is defined and there is no default link
        g = build_graph([TaskNode("a", "a", 2.0), TaskNode("b", "b", 3.0), TaskNode("c", "c", 4.0)], edges)
        p = build_platform([Machine("M1", "Machine1", 1.0), Machine("M2", "Machine2", 1.0)],
                           links=[LinkSpec("M1", "M2", bandwidth=1.0)])
        assert evaluate(g, p, Chromosome(["a", "b", "c"], ["M2", "M1", "M2"]), mode).makespan == 6.0
        assert min_min_schedule(g, p, mode)[1].makespan == 6.0
        best, timeline, _ = run(g, p, GaConfig(pop_size=6, max_iters=5), mode)
        assert timeline.makespan == best.fitness == evaluate(g, p, best.copy(), mode).makespan


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

    def test_missing_link_raises_not_a_makespan(self):
        # the only link runs a -> b; the child on a needs its parent's data from b
        g = build_graph([TaskNode("p", "p", 1.0), TaskNode("c", "c", 1.0)], [DataEdge("p", "c", 1.0)])
        p = build_platform([Machine("a", "A", 1.0), Machine("b", "B", 1.0)],
                           links=[LinkSpec("a", "b", bandwidth=1.0)])
        assert evaluate(g, p, Chromosome(["p", "c"], ["a", "b"])).makespan == 3.0
        with pytest.raises(NoLinkDefined, match="^no link 'b' -> 'a' and no default link$"):
            evaluate(g, p, Chromosome(["p", "c"], ["b", "a"]))

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
                assert got == timeline_from_scratch(g, p, order, assignment, include_transfer=True)[3]

    def test_deterministic(self, ref_graph, seven_machines):
        c = generate_individual(ref_graph, seven_machines,
                                compute_heights(ref_graph), random.Random(3))
        t1 = evaluate(ref_graph, seven_machines, c)
        t2 = evaluate(ref_graph, seven_machines, c)
        assert t1 == t2


def _finite(lo, hi):
    return st.floats(lo, hi, allow_nan=False, allow_infinity=False)


@st.composite
def instances(draw):
    """A DAG, a platform of 1-4 machines and a chromosome over both.

    Execution times come from work / speed or from ETC rows for some or all
    tasks; links are one default link, a link for every ordered pair, or some
    explicit links over a default one.
    """
    g, order = draw(dags_with_valid_orders())
    mids = [f"M{k}" for k in range(draw(st.integers(1, 4)))]
    machines = [Machine(m, m, draw(_finite(0.1, 10.0))) for m in mids]
    pairs = [(a, b) for a in mids for b in mids if a != b]
    links = draw(st.sampled_from(["default", "explicit", "mixed"]))
    if links == "mixed" and pairs:
        chosen = draw(st.lists(st.sampled_from(pairs), unique=True))
    else:
        chosen = pairs if links == "explicit" else []
    link_specs = [LinkSpec(a, b, draw(_finite(0.1, 50.0)), draw(_finite(0.0, 3.0))) for a, b in chosen]
    default = None if links == "explicit" else LinkSpec("*", "*", draw(_finite(0.1, 50.0)), draw(_finite(0.0, 3.0)))
    etc = None
    if draw(st.booleans()):
        etc = {t: {m: draw(_finite(0.0, 40.0)) for m in mids} for t in g.task_ids if draw(st.booleans())}
    assignment = draw(st.lists(st.sampled_from(mids), min_size=len(order), max_size=len(order)))
    return g, build_platform(machines, link_specs, default, etc), order, assignment


class TestKernelBitExact:
    """Whole timelines compared with ==: a reordered float operation shows."""

    @given(instances(), st.sampled_from(CommMode))
    def test_evaluate_equals_the_from_scratch_timeline(self, case, mode):
        g, p, order, machines = case
        got = evaluate(g, p, Chromosome(order, machines), mode)
        assert got == Timeline(*timeline_from_scratch(g, p, order, machines, mode is CommMode.INCLUDE_TRANSFER))

    @given(instances(), st.sampled_from(CommMode))
    def test_min_min_timeline_equals_evaluate_of_its_chromosome(self, case, mode):
        g, p, _, _ = case
        c, tl = min_min_schedule(g, p, mode)
        assert tl == evaluate(g, p, c.copy(), mode)


class TestReadyTimeMatchesTheOracle:
    """evaluate and min_min_schedule time every pair by ready_time: on a
    partial timeline it must give each ready task the oracle's data-ready time
    on every machine, bit for bit, and evaluate must start the next task at
    the later of that and its machine's free time."""

    @given(instances(), st.sampled_from(CommMode), st.data())
    def test_ready_time_is_the_oracle_data_ready_time(self, case, mode, data):
        g, p, order, machines = case
        include = mode is CommMode.INCLUDE_TRANSFER
        k = data.draw(st.integers(0, len(order) - 1), label="tasks placed")
        tl = Timeline(*timeline_from_scratch(g, p, order[:k], machines[:k], include)) if k else Timeline()
        inputs = inputs_from_edges(g)
        placed = set(order[:k])
        for tid in g.task_ids:
            if tid in placed or not placed.issuperset(g.parents(tid)):
                continue
            for mid in p.machine_ids:
                want = pair_times_from_scratch(g, p, inputs, tl.finish, tl.machine, tid, mid, include)[0]
                assert ready_time(g, p, tl, tid, mid, include) == want, (tid, mid)
        tid, mid = order[k], machines[k]
        free = max((tl.finish[t] for t in order[:k] if tl.machine[t] == mid), default=0.0)
        ready = ready_time(g, p, tl, tid, mid, include)
        assert evaluate(g, p, Chromosome(order, machines), mode).start[tid] == max(ready, free)


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
