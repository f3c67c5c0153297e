import dataclasses
import io
import json
import math
import re
import statistics

import pytest
from hypothesis import given
from hypothesis import strategies as st

from dagsched import dagio
from dagsched.dag import TaskNode, build_graph, compute_heights, is_valid_order
from dagsched.dagio import (
    _NUM,
    GenSpec,
    _edge_ok,
    _require,
    _task_ok,
    dag_to_json,
    generate_platform,
    generate_random_dag,
    parse_dag,
    parse_platform,
    quote_name,
    write_bench_csv,
    write_schedule_log,
)
from dagsched.bench import BenchRow
from dagsched.errors import (
    DocumentSyntaxError,
    InfeasibleSpec,
    InvalidValue,
    NonPositiveSpeed,
    SchedulingError,
    SchemaError,
    UnknownEdgeEndpoint,
)
from dagsched.evaluator import Chromosome, evaluate
from dagsched.minmin import min_min_schedule
from dagsched.platform import LinkSpec, Machine, build_platform

from conftest import REF_EDGES, REF_WORKS, documents
from _oracles import parse_dag_by_fields


def ref_dag_json():
    return json.dumps({
        "tasks": [{"id": f"t{i}", "name": f"job{i}", "work": REF_WORKS[i - 1]}
                  for i in range(1, 11)],
        "edges": [{"src": f"t{a}", "dst": f"t{b}", "bytes": 0} for a, b in REF_EDGES],
    })


TWO_MACHINE_JSON = json.dumps({
    "machines": [{"id": "m1", "name": "Machine1", "speed": 1},
                 {"id": "m2", "name": "Machine2", "speed": 1}],
    "default_link": {"bandwidth": 10, "latency": 0},
})


class TestParseDag:
    def test_reference_document(self):
        g = parse_dag(ref_dag_json())
        h = compute_heights(g)
        assert [h[f"t{i}"] for i in range(1, 11)] == [1, 2, 2, 2, 4, 3, 4, 3, 5, 6]

    def test_empty_tasks(self):
        with pytest.raises(SchemaError):
            parse_dag('{"tasks": [], "edges": []}')

    def test_unknown_edge_endpoint(self):
        doc = '{"tasks": [{"id": "a", "work": 1}], "edges": [{"src": "a", "dst": "zz"}]}'
        with pytest.raises(UnknownEdgeEndpoint):
            parse_dag(doc)

    def test_syntax_error_reports_position(self):
        with pytest.raises(DocumentSyntaxError, match=r"line \d+, column \d+"):
            parse_dag('{"tasks": [,]}')

    def test_extra_field_rejected(self):
        with pytest.raises(SchemaError):
            parse_dag('{"tasks": [{"id": "a", "work": 1, "bogus": 2}]}')

    def test_round_trip(self):
        g = parse_dag(ref_dag_json())
        g2 = parse_dag(dag_to_json(g))
        assert g2.tasks == g.tasks and g2.edges == g.edges


class TestParsePlatform:
    def test_default_link_transfer(self):
        from dagsched.platform import transfer_time
        p = parse_platform(TWO_MACHINE_JSON)
        assert transfer_time(p, 20.0, "m1", "m2") == 2.0

    def test_zero_speed(self):
        with pytest.raises(NonPositiveSpeed):
            parse_platform('{"machines": [{"id": "m", "speed": 0}]}')

    def test_single_machine_no_links(self):
        from dagsched.platform import transfer_time
        p = parse_platform('{"machines": [{"id": "m", "speed": 1}]}')
        assert transfer_time(p, 100.0, "m", "m") == 0.0

    @pytest.mark.parametrize("links, fragment", [
        ([("m1", "m2", 1), ("m1", "m2", 100)], "duplicate link 'm1' -> 'm2'"),
        ([("m1", "m1", 1)], "self link 'm1' -> 'm1'"),
    ])
    def test_duplicate_or_self_link(self, links, fragment):
        doc = json.loads(TWO_MACHINE_JSON)
        doc["links"] = [{"src": src, "dst": dst, "bandwidth": bw} for src, dst, bw in links]
        with pytest.raises(InvalidValue, match=fragment):
            parse_platform(json.dumps(doc))

    def test_machines_and_default_link(self):
        p = parse_platform(TWO_MACHINE_JSON)
        assert [(m.id, m.name, m.speed) for m in p.machines] == [("m1", "Machine1", 1.0), ("m2", "Machine2", 1.0)]
        assert (p.default_link.bandwidth, p.default_link.latency) == (10.0, 0.0) and not p.links

    def test_empty_machines(self):
        with pytest.raises(SchemaError, match="platform document has an empty machines array"):
            parse_platform('{"machines": []}')


class TestSchema:
    @pytest.mark.parametrize("parse, doc, fragment", [
        (parse_dag, '[]', "DAG document must be an object, got list"),
        (parse_dag, '{"tasks": [1]}', "task must be an object, got int"),
        (parse_platform, '{"machines": [{"id": "m", "speed": 1}], "links": ["m"]}', "link must be an object, got str"),
    ])
    def test_not_an_object(self, parse, doc, fragment):
        with pytest.raises(SchemaError, match=fragment):
            parse(doc)

    @pytest.mark.parametrize("parse, doc, fragment", [
        (parse_dag, '{"edges": []}', "DAG document is missing field 'tasks'"),
        (parse_dag, '{"tasks": [{"id": "a"}]}', "task is missing field 'work'"),
        (parse_platform, '{"machines": [{"id": "m", "speed": 1}], "default_link": {}}',
         "default_link is missing field 'bandwidth'"),
    ])
    def test_missing_field(self, parse, doc, fragment):
        with pytest.raises(SchemaError, match=fragment):
            parse(doc)


# a bool, NaN, the infinities and an int past the float range, as json.loads reads them
NOT_FINITE = ["true", "false", "NaN", "Infinity", "-Infinity", "1" + "0" * 400]


class TestRejectNonFiniteNumbers:
    @pytest.mark.parametrize("value", NOT_FINITE)
    def test_work(self, value):
        with pytest.raises(SchemaError, match="'work' must be a finite number"):
            parse_dag('{"tasks": [{"id": "a", "work": %s}]}' % value)

    @pytest.mark.parametrize("value", NOT_FINITE)
    def test_bytes(self, value):
        doc = ('{"tasks": [{"id": "a", "work": 1}, {"id": "b", "work": 1}],'
               ' "edges": [{"src": "a", "dst": "b", "bytes": %s}]}' % value)
        with pytest.raises(SchemaError, match="'bytes' must be a finite number"):
            parse_dag(doc)

    @pytest.mark.parametrize("value", NOT_FINITE)
    def test_speed(self, value):
        with pytest.raises(SchemaError, match="'speed' must be a finite number"):
            parse_platform('{"machines": [{"id": "m", "speed": %s}]}' % value)

    @pytest.mark.parametrize("where", ["links", "default_link"])
    @pytest.mark.parametrize("field", ["bandwidth", "latency"])
    @pytest.mark.parametrize("value", NOT_FINITE)
    def test_link(self, where, field, value):
        link = {"bandwidth": 1, "latency": 0, field: "VALUE"}
        if where == "links":
            link = [{"src": "m", "dst": "m", **link}]
        doc = json.dumps({"machines": [{"id": "m", "speed": 1}], where: link})
        with pytest.raises(SchemaError, match=f"'{field}' must be a finite number"):
            parse_platform(doc.replace('"VALUE"', value))

    @pytest.mark.parametrize("value", NOT_FINITE)
    def test_etc(self, value):
        doc = '{"machines": [{"id": "m", "speed": 1}], "etc": {"a": {"m": %s}}}' % value
        with pytest.raises(SchemaError, match="finite numbers"):
            parse_platform(doc)

    def test_finite_numbers_still_parse(self):
        g = parse_dag('{"tasks": [{"id": "a", "work": 0}, {"id": "b", "work": 2.5}],'
                      ' "edges": [{"src": "a", "dst": "b", "bytes": 1e300}]}')
        assert g.task("a").work == 0.0 and [(e.src, e.dst, e.bytes) for e in g.edges] == [("a", "b", 1e300)]


DEEP = "[" * 200_000
HUGE_INT = "9" * 5000  # past CPython's 4,300-digit limit on int conversion


class TestTotalBoundary:
    """Every document either builds or raises a SchedulingError."""

    @pytest.mark.parametrize("parse", [parse_dag, parse_platform])
    def test_deep_nesting(self, parse):
        with pytest.raises(DocumentSyntaxError, match="nested too deeply"):
            parse(DEEP)

    @pytest.mark.parametrize("parse, doc", [
        (parse_dag, '{"tasks": [{"id": "a", "work": %s}]}'),
        (parse_platform, '{"machines": [{"id": "m", "speed": %s}]}'),
    ])
    def test_int_past_the_digit_limit(self, parse, doc):
        # a DocumentSyntaxError; a Python without the limit (3.10 before 3.10.7) reads
        # the int and rejects it as past the float range, a SchemaError
        with pytest.raises(SchedulingError):
            parse(doc % HUGE_INT)

    @given(documents())
    def test_every_document_builds_or_raises_a_scheduling_error(self, docs):
        for parse, text in zip((parse_dag, parse_platform), docs):
            try:
                parse(text)
            except SchedulingError:
                pass


def _passes_require(raw, what, required, optional):
    try:
        _require(raw, what, required, optional)
    except SchemaError:
        return False
    return True


def _parsed(parse, text):
    try:
        g = parse(text)
    except SchedulingError as e:
        return type(e), str(e)
    return g.tasks, g.edges


TASK = {"id": "a", "work": 1}
EDGE = {"src": "a", "dst": "b"}


class TestAcceptChecks:
    """parse_dag accepts a record by one check per kind and leaves every error to _require."""

    @pytest.mark.parametrize("raw, ok", [
        (TASK, True),
        ({**TASK, "work": 2.5, "name": "job"}, True),
        ({**TASK, "work": -0.0}, True),
        ({**TASK, "work": -1e308}, True),
        ({**TASK, "work": True}, False),
        ({**TASK, "work": math.nan}, False),
        ({**TASK, "work": math.inf}, False),
        ({**TASK, "work": -math.inf}, False),
        ({**TASK, "work": 10**400}, False),
        ({**TASK, "work": "1"}, False),
        ({**TASK, "id": "a\tb"}, False),
        ({**TASK, "name": "job\n1"}, False),
        ({**TASK, "name": 1}, False),
        ({**TASK, "bogus": 0}, False),
        ({"id": "a"}, False),
        ({"work": 1}, False),
        ({**TASK, "id": 1}, False),
        (["a", 1], False),
        ({}, False),
    ])
    def test_task_ok_is_require_passing(self, raw, ok):
        assert _task_ok(raw) is ok
        assert _passes_require(raw, "task", {"id": str, "work": _NUM}, {"name": str}) is ok

    @pytest.mark.parametrize("raw, ok", [
        (EDGE, True),
        ({**EDGE, "bytes": 3}, True),
        ({**EDGE, "bytes": -0.0}, True),
        ({**EDGE, "src": "a\tb", "dst": "c\nd"}, True),  # endpoints need not be printable
        ({**EDGE, "bytes": True}, False),
        ({**EDGE, "bytes": math.nan}, False),
        ({**EDGE, "bytes": math.inf}, False),
        ({**EDGE, "bytes": -math.inf}, False),
        ({**EDGE, "bytes": 10**400}, False),
        ({**EDGE, "bytes": None}, False),
        ({**EDGE, "bogus": 0}, False),
        ({"src": "a"}, False),
        ({**EDGE, "src": 1}, False),
        (["a", "b"], False),
    ])
    def test_edge_ok_is_require_passing(self, raw, ok):
        assert _edge_ok(raw) is ok
        assert _passes_require(raw, "edge", {"src": str, "dst": str}, {"bytes": _NUM}) is ok

    @given(documents())
    def test_parse_dag_matches_the_field_by_field_parser(self, docs):
        assert _parsed(parse_dag, docs[0]) == _parsed(parse_dag_by_fields, docs[0])


class TestScheduleLog:
    def test_format(self):
        g = parse_dag(ref_dag_json())
        p = parse_platform(TWO_MACHINE_JSON)
        chromo, tl = min_min_schedule(g, p)
        sink = io.StringIO()
        write_schedule_log(g, p, tl, chromo, sink)
        lines = sink.getvalue().splitlines()
        assert len(lines) == 11
        for line in lines[:-1]:
            assert re.fullmatch(r"Schedule job\d+ on Machine\d", line)
        assert re.fullmatch(r"Simulation Time: \d+\.\d{6}", lines[-1])
        # task lines sorted by start time
        starts = []
        for line in lines[:-1]:
            name = line.split()[1]
            tid = next(t.id for t in g.tasks if t.name == name)
            starts.append(tl.start[tid])
        assert starts == sorted(starts)

    def test_single_task(self):
        g = parse_dag('{"tasks": [{"id": "j", "name": "job1", "work": 7}]}')
        p = parse_platform('{"machines": [{"id": "m", "name": "Machine2", "speed": 1}]}')
        c = Chromosome(["j"], ["m"])
        tl = evaluate(g, p, c)
        sink = io.StringIO()
        write_schedule_log(g, p, tl, c, sink)
        assert sink.getvalue() == "Schedule job1 on Machine2\nSimulation Time: 7.000000\n"

    @pytest.mark.parametrize("task, machine, line", [
        ("x on Machine2", "Machine1", 'Schedule "x on Machine2" on Machine1'),
        ("job1", "rack on 2", 'Schedule job1 on "rack on 2"'),
        ("a on", "b", 'Schedule "a on" on b'),  # unquoted, "a on on b" also reads as task a on machine "on b"
        ("on b", "c", 'Schedule "on b" on c'),
        ('"q', 'M "1"', 'Schedule "\\"q" on M "1"'),
        ("job 1,2", "Machine 3", "Schedule job 1,2 on Machine 3"),
    ])
    def test_name_that_could_be_misread_is_quoted(self, task, machine, line):
        g = build_graph([TaskNode("j", task, 7.0)], [])
        p = build_platform([Machine("m", machine, 1.0)])
        c = Chromosome(["j"], ["m"])
        tl = evaluate(g, p, c)
        sink = io.StringIO()
        write_schedule_log(g, p, tl, c, sink)
        assert sink.getvalue() == f"{line}\nSimulation Time: 7.000000\n"


def read_names(text, sep):
    """Split a line written as `sep`.join(quote_name(n, sep) for n in names) back into the names."""
    names = []
    while True:
        if text.startswith('"'):
            name, end = json.JSONDecoder().raw_decode(text)
        else:
            end = text.find(sep) if sep in text else len(text)
            name = text[:end]
        names.append(name)
        if end == len(text):
            return names
        assert text.startswith(sep, end)
        text = text[end + len(sep):]


class TestQuoteName:
    # names that start or end with a piece of a separator or a quote, so that they often sit next to one
    @given(st.lists(st.tuples(st.sampled_from(["", "on ", ",", '"']), st.sampled_from(["x", "", " on ", "\\\u00e9"]),
                              st.sampled_from(["", " on", ",", '"'])).map("".join), min_size=1, max_size=4),
           st.sampled_from([" on ", ","]))
    def test_a_line_of_quoted_names_reads_back(self, names, sep):
        assert read_names(sep.join(quote_name(n, sep) for n in names), sep) == names

    @pytest.mark.parametrize("name", ["job1", "Machine90", "x,y", "one", "", 'a"b'])
    def test_a_name_that_cannot_be_misread_is_kept(self, name):
        assert quote_name(name, " on ") == name


def bench_row(ga=50.0, mm=60.0):
    return BenchRow(instance="10x2-s0", n_tasks=10, n_machines=2, width=3, ccr=0.5,
                    comm_mode="include", seed=0, ga_makespan=ga, minmin_makespan=mm,
                    lower_bound=40.0, ga_runtime_ms=12.5)


class TestBenchCsv:
    def test_header_only(self):
        sink = io.StringIO()
        write_bench_csv([], sink)
        assert sink.getvalue() == ("instance,n_tasks,n_machines,width,ccr,comm_mode,"
                                   "seed,ga_makespan,minmin_makespan,lower_bound,ga_runtime_ms\n")

    def test_row_has_eleven_fields(self):
        sink = io.StringIO()
        write_bench_csv([bench_row()], sink)
        fields = sink.getvalue().splitlines()[1].split(",")
        assert len(fields) == 11
        assert fields[7] == "50.000000"
        assert fields[8] == "60.000000"

    def test_ga_column_le_minmin(self):
        sink = io.StringIO()
        write_bench_csv([bench_row(ga=45.0, mm=45.5)], sink)
        fields = sink.getvalue().splitlines()[1].split(",")
        assert float(fields[7]) <= float(fields[8])


class TestGenerateRandomDag:
    def test_structure(self):
        spec = GenSpec(n_tasks=10, width=3, ccr=0.5, seed=4)
        g, layer_of = generate_random_dag(spec)
        assert len(g) == 10
        assert len(g.entry_tasks()) == 1
        assert len(g.exit_tasks()) == 1
        sizes = {}
        for tid, layer in layer_of.items():
            sizes[layer] = sizes.get(layer, 0) + 1
        assert max(sizes.values()) <= 3

    def test_ccr_zero_means_no_bytes(self):
        g, _ = generate_random_dag(GenSpec(n_tasks=12, width=4, ccr=0.0, seed=1))
        assert all(e.bytes == 0.0 for e in g.edges)

    def test_deterministic(self):
        a, _ = generate_random_dag(GenSpec(n_tasks=15, width=4, ccr=0.8, seed=9))
        b, _ = generate_random_dag(GenSpec(n_tasks=15, width=4, ccr=0.8, seed=9))
        assert dag_to_json(a) == dag_to_json(b)

    def test_tiny_sizes(self):
        g1, layer_of = generate_random_dag(GenSpec(n_tasks=1, width=1, seed=0))
        assert len(g1) == 1
        assert layer_of == {"t1": 0}  # `dagsched gen` reports "1 layers"
        g2, _ = generate_random_dag(GenSpec(n_tasks=2, width=1, seed=0))
        assert len(g2.edges) == 1
        assert (g2.edges[0].src, g2.edges[0].dst) == ("t1", "t2")

    def test_ccr_calibration(self):
        spec = GenSpec(n_tasks=60, width=6, ccr=1.0, seed=3)
        g, _ = generate_random_dag(spec)
        mean_work = statistics.fmean(t.work for t in g.tasks)
        mean_bytes = statistics.fmean(e.bytes for e in g.edges)
        assert mean_bytes / mean_work == pytest.approx(1.0, rel=0.35)

    def test_infeasible(self):
        with pytest.raises(InfeasibleSpec):
            GenSpec(n_tasks=0, width=1)
        with pytest.raises(InfeasibleSpec):
            GenSpec(n_tasks=5, width=1, work_range=(0.0, 1.0))
        with pytest.raises(InfeasibleSpec, match="^invalid generator spec: GenSpec"):
            dataclasses.replace(GenSpec(n_tasks=5, width=1), width=0)

    @pytest.mark.parametrize("bad", [dict(n_tasks=5.5), dict(n_tasks="5"), dict(n_tasks=True), dict(width=2.5),
                                     dict(seed=1.5), dict(work_range=(1.0, 2.0, 3.0))])
    def test_field_of_the_wrong_type_rejected(self, bad):
        # each reached generate_random_dag or a comparison, or was accepted, before the type check
        spec = {"n_tasks": 5, "width": 2, **bad}
        with pytest.raises(InfeasibleSpec, match="^invalid generator spec: GenSpec"):
            GenSpec(**spec)

    @pytest.mark.parametrize("bad", [dict(ccr=math.nan), dict(ccr=math.inf), dict(work_range=(math.nan, 30.0)),
                                     dict(work_range=(10.0, math.inf))])
    def test_non_finite_field_rejected(self, bad):
        with pytest.raises(InfeasibleSpec):
            GenSpec(n_tasks=5, width=1, **bad)

    @pytest.mark.parametrize("bad", [dict(ccr=1e307), dict(ccr=1e-10, work_range=(1e308, 1.7e308))])
    def test_overflowing_bytes_rejected(self, bad):
        # the first overflows the byte volumes, the second the float sum of the work
        with pytest.raises(InfeasibleSpec):
            GenSpec(n_tasks=5, width=2, **bad)

    def test_largest_bytes_stay_finite(self):
        g, _ = generate_random_dag(GenSpec(n_tasks=5, width=2, ccr=2e306, seed=1))
        assert all(e.bytes < math.inf for e in g.edges)
        g, _ = generate_random_dag(GenSpec(n_tasks=5, width=2, work_range=(1e308, 1.7e308), seed=1))
        assert len(g) == 5

    @pytest.mark.parametrize("seed", range(10))
    def test_every_output_validates(self, seed):
        g, _ = generate_random_dag(GenSpec(n_tasks=25, width=10, ccr=0.5, seed=seed))
        # build_graph already ran; check reachability shape too
        order = list(g.topo_order)
        assert is_valid_order(g, order)


class TestGeneratePlatform:
    def test_deterministic(self):
        a = generate_platform(5, seed=2)
        b = generate_platform(5, seed=2)
        assert a.machines == b.machines
        assert a.machines == generate_platform(5, seed=99).machines  # the same for every seed

    def test_speeds_positive(self):
        p = generate_platform(90, seed=0)
        assert len(p.machines) == 90
        assert all(m.speed == 1.0 for m in p.machines)

    @pytest.mark.parametrize("n", [1, 2, 7, 90, 91, 200])
    @pytest.mark.parametrize("seed", [0, 5, 2 ** 31 - 1])
    def test_records_are_the_unit_machines(self, n, seed):
        expected = tuple(Machine(id=f"m{i}", name=f"Machine{i}", speed=1.0) for i in range(1, n + 1))
        p = generate_platform(n, seed=seed)
        assert p.machines == expected
        assert p.machine_ids == tuple(m.id for m in expected)
        assert p.default_link == LinkSpec("*", "*", 1.0, 0.0) and p.links == {} and p.etc_override is None

    def test_records_are_shared_and_frozen(self):
        big = generate_platform(90).machines
        small = generate_platform(3).machines
        assert small == big[:3]
        assert all(a is b for a, b in zip(small, big))
        with pytest.raises(dataclasses.FrozenInstanceError):
            small[0].speed = 2.0
        assert generate_platform(90).machines[0].speed == 1.0

    def test_larger_platform_after_smaller(self):
        generate_platform(5)
        n = len(dagio._unit_machines) + 3  # more than any call so far
        assert [m.id for m in generate_platform(n).machines] == [f"m{i}" for i in range(1, n + 1)]
        assert generate_platform(4).machines == generate_platform(n).machines[:4]

    def test_platforms_are_distinct(self):
        a, b = generate_platform(7), generate_platform(7)
        assert a is not b and a._by_id is not b._by_id and a.links is not b.links
        a.links[("m1", "m2")] = LinkSpec("m1", "m2", 5.0)  # a Platform is mutable; its records are not
        a._by_id.pop("m7")
        assert b.links == {} and "m7" in b._by_id and generate_platform(7).links == {}

    def test_no_machines(self):
        with pytest.raises(InvalidValue):
            generate_platform(0)

    @pytest.mark.parametrize("n", [0, 2.5, "3", None, True])
    def test_count_must_be_a_positive_int(self, n):
        # True is an int subclass, so only an exact int is a count
        with pytest.raises(InvalidValue, match=f"^n_machines must be an int >= 1, got {re.escape(repr(n))}$"):
            generate_platform(n)
