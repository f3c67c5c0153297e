"""Machine and network model: execution times and data-transfer times."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Mapping, Optional, Sequence, Tuple

from .dag import TaskId, TaskNode
from .errors import InvalidValue, NoLinkDefined, NonPositiveBandwidth, NonPositiveSpeed, UnknownMachine

MachineId = str


@dataclass(frozen=True)
class Machine:
    id: MachineId
    name: str
    speed: float  # compute units per time unit


@dataclass(frozen=True)
class LinkSpec:
    src: MachineId
    dst: MachineId
    bandwidth: float  # data volume per time unit
    latency: float = 0.0


class Platform:
    """Machines plus a directed link table with an optional default link.

    `etc_override`, when given, maps task id -> machine id -> execution time
    and takes precedence over the work/speed model. Construct through
    :func:`build_platform`.
    """

    def __init__(self, machines: Tuple[Machine, ...],
                 links: Dict[Tuple[MachineId, MachineId], LinkSpec],
                 default_link: Optional[LinkSpec],
                 etc_override: Optional[Dict[TaskId, Dict[MachineId, float]]]):
        self.machines = machines
        self.links = links
        self.default_link = default_link
        self.etc_override = etc_override
        self._by_id = {m.id: m for m in machines}

    @property
    def machine_ids(self) -> Tuple[MachineId, ...]:
        return tuple(m.id for m in self.machines)

    def machine(self, mid: MachineId) -> Machine:
        try:
            return self._by_id[mid]
        except KeyError:
            raise UnknownMachine(f"unknown machine {mid!r}") from None

    def __contains__(self, mid: MachineId) -> bool:
        return mid in self._by_id


def build_platform(machines: Sequence[Machine],
                   links: Sequence[LinkSpec] = (),
                   default_link: Optional[LinkSpec] = None,
                   etc_override: Optional[Mapping[TaskId, Mapping[MachineId, float]]] = None) -> Platform:
    """Validate and assemble a Platform."""
    if not machines:
        raise InvalidValue("a platform needs at least one machine")
    by_id: Dict[MachineId, Machine] = {}
    for m in machines:
        if m.id in by_id:
            raise InvalidValue(f"duplicate machine id {m.id!r}")
        if m.speed <= 0:
            raise NonPositiveSpeed(f"machine {m.id!r} has speed {m.speed}")
        by_id[m.id] = m
    table: Dict[Tuple[MachineId, MachineId], LinkSpec] = {}
    for ln in links:
        if ln.src not in by_id or ln.dst not in by_id:
            raise UnknownMachine(f"link {ln.src!r} -> {ln.dst!r} names an unknown machine")
        _check_link(ln)
        table[(ln.src, ln.dst)] = ln
    if default_link is not None:
        _check_link(default_link)
    etc = None
    if etc_override is not None:
        etc = {tid: dict(row) for tid, row in etc_override.items()}
        for tid, row in etc.items():
            for mid, val in row.items():
                if mid not in by_id:
                    raise UnknownMachine(f"etc row for task {tid!r} names unknown machine {mid!r}")
                if val < 0:
                    raise InvalidValue(f"etc[{tid!r}][{mid!r}] is negative")
            for mid in by_id:
                if mid not in row:
                    raise InvalidValue(f"etc row for task {tid!r} has no entry for machine {mid!r}")
    return Platform(tuple(machines), table, default_link, etc)


def _check_link(ln: LinkSpec) -> None:
    if ln.bandwidth <= 0:
        raise NonPositiveBandwidth(f"link {ln.src!r} -> {ln.dst!r} has bandwidth {ln.bandwidth}")
    if ln.latency < 0:
        raise InvalidValue(f"link {ln.src!r} -> {ln.dst!r} has negative latency")


def execution_time(p: Platform, t: TaskNode, m: MachineId) -> float:
    """Time for task t on machine m: ETC entry if present, else work/speed."""
    machine = p.machine(m)
    if p.etc_override is not None and t.id in p.etc_override:
        return p.etc_override[t.id][m]
    return t.work / machine.speed


def transfer_time(p: Platform, nbytes: float, src: MachineId, dst: MachineId) -> float:
    """Time to move nbytes from src to dst; 0 within one machine."""
    p.machine(src)
    p.machine(dst)
    if src == dst:
        return 0.0
    link = p.links.get((src, dst), p.default_link)
    if link is None:
        raise NoLinkDefined(f"no link {src!r} -> {dst!r} and no default link")
    return link.latency + nbytes / link.bandwidth
