"""Machine and network model: execution times and data-transfer times."""

from __future__ import annotations

import math
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

    `etc_override` maps task id -> machine id -> execution time and takes
    precedence over the work/speed model; it is None when there are no rows.
    Construct through :func:`build_platform` and do not edit afterwards: `_into`,
    dst -> src -> (latency, bandwidth), is derived from `links` and `default_link`.
    """

    def __init__(self, machines: Tuple[Machine, ...], by_id: Dict[MachineId, Machine],
                 links: Dict[Tuple[MachineId, MachineId], LinkSpec],
                 default_link: Optional[LinkSpec],
                 etc_override: Optional[Dict[TaskId, Dict[MachineId, float]]]):
        self.machines = machines
        self.links = links
        self.default_link = default_link
        self.etc_override = etc_override
        self.machine_ids = tuple(by_id)
        self._by_id = by_id
        self._into: Dict[MachineId, Dict[MachineId, Tuple[float, float]]] = {}

    def machine(self, mid: MachineId) -> Machine:
        try:
            return self._by_id[mid]
        except KeyError:
            raise UnknownMachine(f"unknown machine {mid!r}") from None


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
        if not 0 < m.speed < math.inf:
            raise NonPositiveSpeed(f"machine {m.id!r} has speed {m.speed}")
        by_id[m.id] = m
    table: Dict[Tuple[MachineId, MachineId], LinkSpec] = {}
    for ln in links:
        if ln.src not in by_id or ln.dst not in by_id:
            raise UnknownMachine(f"link {ln.src!r} -> {ln.dst!r} names an unknown machine")
        if ln.src == ln.dst or (ln.src, ln.dst) in table:
            kind = "self" if ln.src == ln.dst else "duplicate"
            raise InvalidValue(f"{kind} link {ln.src!r} -> {ln.dst!r}")
        _check_link(ln)
        table[(ln.src, ln.dst)] = ln
    if default_link is not None:
        _check_link(default_link)
    etc = {tid: dict(row) for tid, row in (etc_override or {}).items()}
    for tid, row in etc.items():
        for mid, val in row.items():
            if mid not in by_id:
                raise UnknownMachine(f"etc row for task {tid!r} names unknown machine {mid!r}")
            if not 0 <= val < math.inf:
                kind = "negative" if val < 0 else "non-finite"
                raise InvalidValue(f"etc[{tid!r}][{mid!r}] is {kind}: {val}")
        for mid in by_id:
            if mid not in row:
                raise InvalidValue(f"etc row for task {tid!r} has no entry for machine {mid!r}")
    return Platform(tuple(machines), by_id, table, default_link, etc or None)


def _check_link(ln: LinkSpec) -> None:
    if not 0 < ln.bandwidth < math.inf:
        raise NonPositiveBandwidth(f"link {ln.src!r} -> {ln.dst!r} has bandwidth {ln.bandwidth}")
    if not 0 <= ln.latency < math.inf:
        kind = "negative" if ln.latency < 0 else "non-finite"
        raise InvalidValue(f"link {ln.src!r} -> {ln.dst!r} has {kind} latency {ln.latency}")


def execution_time(p: Platform, t: TaskNode, m: MachineId) -> float:
    """Time for task t on machine m: ETC entry if present, else work/speed."""
    machine = p.machine(m)
    if p.etc_override is not None and t.id in p.etc_override:
        return p.etc_override[t.id][m]
    return t.work / machine.speed


def transfer_time(p: Platform, nbytes: float, src: MachineId, dst: MachineId) -> float:
    """Time to move nbytes from src to dst: latency + nbytes / bandwidth of the link `_link` picks; 0 on one machine."""
    if src == dst:
        p.machine(src)  # an unknown machine is an error here too
        return 0.0
    lat, bw = _link(p, src, dst)
    return lat + nbytes / bw


def _link(p: Platform, src: MachineId, dst: MachineId) -> Tuple[float, float]:
    """(latency, bandwidth) of the explicit src -> dst link, else of the default; builds p._into on first use."""
    p.machine(src)  # raises UnknownMachine, naming src first
    p.machine(dst)
    if not p._into:
        shared = {} if (d := p.default_link) is None else dict.fromkeys(p.machine_ids, (d.latency, d.bandwidth))
        into = dict.fromkeys(p.machine_ids, shared)  # a destination with no explicit link into it keeps this row
        for ln in p.links.values():
            if into[ln.dst] is shared:
                into[ln.dst] = dict(shared)
            into[ln.dst][ln.src] = ln.latency, ln.bandwidth
        p._into = into
    if (link := p._into[dst].get(src)) is None:
        raise NoLinkDefined(f"no link {src!r} -> {dst!r} and no default link")
    return link
