import math
import random

import pytest

from dagsched.dag import TaskNode
from dagsched.errors import InvalidValue, NoLinkDefined, NonPositiveSpeed, UnknownMachine
from dagsched.platform import (
    LinkSpec,
    Machine,
    build_platform,
    execution_time,
    transfer_time,
)

TABLE1_WORKS = [21, 12, 18, 12, 9, 21, 15, 24, 11, 10]


def two_machines(bandwidth=50.0, latency=0.0):
    return build_platform(
        [Machine("a", "A", 1.0), Machine("b", "B", 1.0)],
        default_link=LinkSpec("*", "*", bandwidth=bandwidth, latency=latency),
    )


class TestExecutionTime:
    def test_work_over_speed(self):
        p = build_platform([Machine("m", "M", 1.0)])
        assert execution_time(p, TaskNode("t1", "t1", 21.0), "m") == 21.0

    def test_zero_work(self):
        p = build_platform([Machine("m", "M", 3.0)])
        assert execution_time(p, TaskNode("t", "t", 0.0), "m") == 0.0

    def test_fractional(self):
        p = build_platform([Machine("m", "M", 2.0)])
        assert execution_time(p, TaskNode("t", "t", 21.0), "m") == 10.5

    def test_table1_at_speed_one(self):
        p = build_platform([Machine("m", "M", 1.0)])
        for i, w in enumerate(TABLE1_WORKS, start=1):
            assert execution_time(p, TaskNode(f"t{i}", f"t{i}", float(w)), "m") == w

    def test_inverse_speed_scaling(self):
        rng = random.Random(1)
        for _ in range(50):
            work = rng.uniform(0.0, 100.0)
            s = rng.uniform(0.1, 10.0)
            p = build_platform([Machine("x", "x", s), Machine("y", "y", 2 * s)])
            t = TaskNode("t", "t", work)
            assert execution_time(p, t, "x") == 2 * execution_time(p, t, "y")

    def test_etc_override(self):
        p = build_platform([Machine("m", "M", 1.0)], etc_override={"t": {"m": 5.5}})
        assert execution_time(p, TaskNode("t", "t", 100.0), "m") == 5.5

    def test_no_etc_rows_stored_as_none(self):
        ms = [Machine("m", "M", 2.0)]
        bare, empty = build_platform(ms), build_platform(ms, etc_override={})
        assert bare.etc_override is None
        assert empty.etc_override is None
        t = TaskNode("t", "t", 21.0)
        assert execution_time(bare, t, "m") == execution_time(empty, t, "m") == 10.5

    def test_unknown_machine(self):
        p = build_platform([Machine("m", "M", 1.0)])
        with pytest.raises(UnknownMachine):
            execution_time(p, TaskNode("t", "t", 1.0), "zz")


class TestTransferTime:
    def test_same_machine_is_free(self):
        p = two_machines()
        assert transfer_time(p, 1e9, "a", "a") == 0.0

    def test_bytes_over_bandwidth(self):
        assert transfer_time(two_machines(bandwidth=50.0), 100.0, "a", "b") == 2.0

    def test_latency_only(self):
        assert transfer_time(two_machines(latency=0.5), 0.0, "a", "b") == 0.5

    def test_explicit_link_beats_default(self):
        p = build_platform(
            [Machine("a", "A", 1.0), Machine("b", "B", 1.0)],
            links=[LinkSpec("a", "b", bandwidth=100.0)],
            default_link=LinkSpec("*", "*", bandwidth=1.0),
        )
        assert transfer_time(p, 100.0, "a", "b") == 1.0
        assert transfer_time(p, 100.0, "b", "a") == 100.0  # falls back to default

    @pytest.mark.parametrize("links, src, dst", [([], "a", "b"), ([LinkSpec("a", "b", bandwidth=1.0)], "b", "a")],
                             ids=["no-links", "only-the-other-way"])
    def test_no_link(self, links, src, dst):
        p = build_platform([Machine("a", "A", 1.0), Machine("b", "B", 1.0)], links=links)
        with pytest.raises(NoLinkDefined, match=f"^no link '{src}' -> '{dst}' and no default link$"):
            transfer_time(p, 1.0, src, dst)

    @pytest.mark.parametrize("src, dst, named", [("zz", "b", "zz"), ("a", "zz", "zz"), ("yy", "zz", "yy"),
                                                  ("zz", "zz", "zz")])
    def test_unknown_machine_named_src_first(self, src, dst, named):
        with pytest.raises(UnknownMachine, match=f"^unknown machine '{named}'$"):
            transfer_time(two_machines(), 1.0, src, dst)


def test_machine_ids_tuple_in_declaration_order():
    p = build_platform([Machine(m, m.upper(), 1.0) for m in ("c", "a", "b")])
    assert p.machine_ids == ("c", "a", "b") and type(p.machine_ids) is tuple


def test_non_positive_speed_rejected():
    with pytest.raises(NonPositiveSpeed):
        build_platform([Machine("m", "M", 0.0)])


class TestInvalidValues:
    def test_no_machines(self):
        with pytest.raises(InvalidValue):
            build_platform([])

    def test_duplicate_machine_id(self):
        with pytest.raises(InvalidValue, match="duplicate machine id 'a'"):
            build_platform([Machine("a", "A", 1.0), Machine("a", "A2", 2.0)])

    def test_duplicate_link(self):
        # a second a -> b would otherwise replace the first without a word
        with pytest.raises(InvalidValue, match="duplicate link 'a' -> 'b'"):
            build_platform([Machine("a", "A", 1.0), Machine("b", "B", 1.0)],
                           links=[LinkSpec("a", "b", 1.0), LinkSpec("a", "b", 100.0)])

    def test_self_link(self):
        # transfer_time never reads a link within one machine
        with pytest.raises(InvalidValue, match="self link 'a' -> 'a'"):
            build_platform([Machine("a", "A", 1.0)], links=[LinkSpec("a", "a", 1.0)])

    @pytest.mark.parametrize("src, dst", [("a", "zz"), ("zz", "a")])
    def test_link_to_unknown_machine(self, src, dst):
        with pytest.raises(UnknownMachine, match=f"link '{src}' -> '{dst}' names an unknown machine"):
            build_platform([Machine("a", "A", 1.0)], links=[LinkSpec(src, dst, 1.0)])

    def test_etc_row_names_unknown_machine(self):
        with pytest.raises(UnknownMachine, match="etc row for task 't' names unknown machine 'zz'"):
            build_platform([Machine("m", "M", 1.0)], etc_override={"t": {"m": 1.0, "zz": 1.0}})

    def test_opposite_links_are_distinct(self):
        p = build_platform([Machine("a", "A", 1.0), Machine("b", "B", 1.0)],
                           links=[LinkSpec("a", "b", 1.0), LinkSpec("b", "a", 100.0)])
        assert transfer_time(p, 10.0, "a", "b") == 10.0 and transfer_time(p, 10.0, "b", "a") == 0.1

    def test_negative_latency(self):
        with pytest.raises(InvalidValue, match="negative latency"):
            two_machines(latency=-1.0)

    def test_negative_etc_entry(self):
        with pytest.raises(InvalidValue, match="negative"):
            build_platform([Machine("m", "M", 1.0)], etc_override={"t": {"m": -1.0}})

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    def test_non_finite_speed(self, value):
        with pytest.raises(InvalidValue, match="speed"):
            build_platform([Machine("m", "M", value)])

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    def test_non_finite_bandwidth(self, value):
        with pytest.raises(InvalidValue, match="bandwidth"):
            two_machines(bandwidth=value)

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    def test_non_finite_latency(self, value):
        with pytest.raises(InvalidValue, match="latency"):
            two_machines(latency=value)

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    def test_non_finite_etc_entry(self, value):
        with pytest.raises(InvalidValue, match=r"etc\['t'\]\['m'\]"):
            build_platform([Machine("m", "M", 1.0)], etc_override={"t": {"m": value}})

    def test_etc_row_must_name_every_machine(self):
        # a row without machine "b" used to raise a bare KeyError at evaluation
        with pytest.raises(InvalidValue, match="no entry for machine 'b'"):
            build_platform([Machine("a", "A", 1.0), Machine("b", "B", 1.0)],
                           etc_override={"t": {"a": 2.0}})
