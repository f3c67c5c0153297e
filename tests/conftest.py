import json
import math
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


# stand-ins swapped for raw JSON text after dumping: an int past CPython's 4,300-digit
# limit, arrays nested far past the recursion limit, and arrays nested deep enough to parse
RAW_JSON = {'"<huge int>"': "9" * 5000, '"<deep>"': "[" * 100_000 + "]" * 100_000,
            '"<nested>"': "[" * 300 + "]" * 300}
_junk = st.one_of(
    st.none(), st.booleans(), st.integers(-2, 3), st.just([]), st.just({}),
    st.sampled_from([-1.5, 0.0, 1e308, math.nan, math.inf, -math.inf, 10**400]),
    st.sampled_from(["", "a", "m1", "line\nbreak", *(s.strip('"') for s in RAW_JSON)]),
)


def _one_in(n):
    return st.sampled_from(range(n)).map(lambda k: k == n - 1)  # shrinks towards False


def _mostly(good):
    """Forty-nine draws in fifty from good, the rest any JSON value, of any type."""
    return _one_in(50).flatmap(lambda junk: _junk if junk else good)


@st.composite
def _object(draw, fields):
    """An object with these fields; one may go missing, and a stray one may join."""
    obj = {key: draw(_mostly(value)) for key, value in fields.items() if not draw(_one_in(80))}
    if draw(_one_in(80)):
        obj["bogus"] = draw(_junk)
    return obj


_number = st.one_of(st.integers(1, 5), st.floats(0.5, 50.0))  # zero, negative and non-finite come as junk


def _name(tid):
    """The id, or now and then a name that holds a tab, a line or paragraph separator or a NEL."""
    return _one_in(10).flatmap(lambda odd: st.sampled_from(["tab\tx", "a\u2028b", "a\u2029b", "a\x85b"])
                               if odd else st.just(tid))


@st.composite
def _dag_doc(draw):
    # few ids, so duplicates, self-loops and cycles are common
    ids = draw(st.lists(st.sampled_from(["a", "b", "c", "line\nbreak"]), min_size=1, max_size=4,
                        unique=not draw(_one_in(5))))
    tasks = [draw(_mostly(_object({"id": st.just(t), "work": _number, "name": _name(t)}))) for t in ids]
    loops = draw(_one_in(5))
    pairs = [(a, b) for a in ids for b in ids if loops or a != b]  # unknown endpoints come as junk
    chosen = draw(st.lists(st.sampled_from(pairs), max_size=6)) if pairs else []
    if chosen and draw(_one_in(3)):
        chosen.append(chosen[0][::-1])  # a cycle, or a duplicate self-loop
    edges = [draw(_mostly(_object({"src": st.just(a), "dst": st.just(b), "bytes": _number}))) for a, b in chosen]
    return draw(_object({"tasks": st.just(tasks), "edges": st.just(edges)}))


@st.composite
def _platform_doc(draw):
    ids = draw(st.lists(st.sampled_from(["m1", "m2", "m3"]), min_size=1, max_size=3, unique=not draw(_one_in(5))))
    machines = [draw(_mostly(_object({"id": st.just(m), "speed": _number, "name": _name(m)}))) for m in ids]
    link = {"bandwidth": _number, "latency": _number}
    end = st.sampled_from(ids + ["m9"])
    # rows for tasks the DAG may lack ("z"), and rows that miss a machine or name an unknown one
    etc = st.dictionaries(st.sampled_from(["a", "b", "c", "z"]), st.dictionaries(end, _mostly(_number)))
    return draw(_object({"machines": st.just(machines), "default_link": _object(link),
                         "links": st.lists(_mostly(_object({"src": end, "dst": end, **link})), max_size=3),
                         "etc": etc}))


@st.composite
def _document_text(draw, doc):
    text = json.dumps(draw(_mostly(doc)))
    for stand_in, raw in RAW_JSON.items():
        text = text.replace(stand_in, raw)
    if draw(_one_in(20)):  # cut short: a syntax error
        text = text[:draw(st.integers(0, len(text)))]
    return text


def documents():
    """(DAG document, platform document) as JSON text, shaped like the real
    ones but with wrong types, bools, NaN, huge ints, deep nesting, missing
    and stray fields, duplicate ids, cycles and stray ETC rows."""
    return st.tuples(_document_text(_dag_doc()), _document_text(_platform_doc()))
