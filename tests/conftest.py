import sys
from pathlib import Path

import pytest
from hypothesis import settings
from hypothesis import strategies as st

sys.path.insert(0, str(Path(__file__).parent))

# the same examples on every run, and no deadline on a machine whose speed varies
settings.register_profile("pinned", derandomize=True, deadline=None, database=None)
settings.load_profile("pinned")

from dagsched.dag import DataEdge, TaskNode, build_graph
from dagsched.platform import LinkSpec, Machine, build_platform

from _oracles import random_graph

# reference DAG: 10 tasks, edges chosen so the height table and task5's
# parents (task2, task6) come out right
REF_EDGES = [(1, 2), (1, 3), (1, 4), (3, 6), (4, 8), (2, 5), (6, 5), (8, 7), (5, 9), (7, 9), (9, 10)]
REF_WORKS = [21, 12, 18, 12, 9, 21, 15, 24, 11, 10]


def make_ref_graph(edge_bytes=0.0):
    tasks = [TaskNode(f"t{i}", f"job{i}", float(REF_WORKS[i - 1])) for i in range(1, 11)]
    edges = [DataEdge(f"t{a}", f"t{b}", float(edge_bytes)) for a, b in REF_EDGES]
    return build_graph(tasks, edges)


@pytest.fixture
def ref_graph():
    return make_ref_graph()


@pytest.fixture
def one_machine():
    return build_platform([Machine("m1", "M1", 1.0)])


@pytest.fixture
def seven_machines():
    machines = [Machine(f"M{i}", f"Machine{i}", 1.0) for i in range(1, 8)]
    default = LinkSpec("*", "*", bandwidth=10.0, latency=0.0)
    return build_platform(machines, default_link=default)


@st.composite
def dags_with_valid_orders(draw):
    """A random DAG of 2-30 tasks and one of its dependency-valid orders."""
    n = draw(st.integers(2, 30))
    g = random_graph(n, draw(st.floats(0.0, 0.6)), draw(st.integers(0, 2**32 - 1)))
    waiting = {t: len(g.parents(t)) for t in g.task_ids}
    ready = [t for t in g.task_ids if waiting[t] == 0]
    order = []
    while ready:
        order.append(ready.pop(draw(st.integers(0, len(ready) - 1))))
        for c in g.children(order[-1]):
            waiting[c] -= 1
            if waiting[c] == 0:
                ready.append(c)
    return g, order
