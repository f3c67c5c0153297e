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

    def test_no_link(self):
        p = build_platform([Machine("a", "A", 1.0), Machine("b", "B", 1.0)])
        with pytest.raises(NoLinkDefined):
            transfer_time(p, 1.0, "a", "b")


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

    def test_negative_latency(self):
        with pytest.raises(InvalidValue, match="negative latency"):
            two_machines(latency=-1.0)

    def test_negative_etc_entry(self):
        with pytest.raises(InvalidValue, match="negative"):
            build_platform([Machine("m", "M", 1.0)], etc_override={"t": {"m": -1.0}})

    def test_etc_row_must_name_every_machine(self):
        # a row without machine "b" used to raise a bare KeyError at evaluation
        with pytest.raises(InvalidValue, match="no entry for machine 'b'"):
            build_platform([Machine("a", "A", 1.0), Machine("b", "B", 1.0)],
                           etc_override={"t": {"a": 2.0}})
