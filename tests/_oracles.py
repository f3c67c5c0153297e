"""Independent brute-force oracles, deliberately naive.

Nothing here shares code with the library's scheduling path: heights and
adjusted heights come from exhaustive path enumeration, reachability from
plain DFS, swap safety from scanning the whole swap window for descendants
and ancestors, ranked selection from weights handed to every draw, and
optimal makespans from enumerating every valid order and machine assignment,
each simulated by `timeline_from_scratch` from the edge list and the
platform's tables alone. `kahn_order_or_cycle`, `valid_order_by_positions`,
`min_min_from_scratch`, `walk_by_ready_tasks`, `rescan_after_selected`,
`task_aligned_by_maps` and `parse_dag_by_fields` keep earlier forms of the
graph builder's ordering and cycle report, of the order check, of min-min, of
the GA's chromosome walk, of `adjust_heights`' re-derivation of a selected
task's descendants, of the task-aligned crossover and of the DAG document's
record checks, as the references the library must keep matching.
`min_min_from_scratch` times its pairs with the library's placement kernel,
which `timeline_from_scratch` checks on its own: what it pins is min-min's
choice of pairs, not the kernel. Likewise
`walk_by_ready_tasks` calls the library's `ready_tasks` and `adjust_heights`,
which path enumeration checks on its own: what it pins is the walk's ready
list.
"""

import itertools
import random

from dagsched.dag import DataEdge, TaskNode, adjust_heights, build_graph, ready_tasks
from dagsched.dagio import _NUM, _loads, _require
from dagsched.errors import SchemaError
from dagsched.evaluator import Chromosome, CommMode, Timeline, place


def all_paths_from_entries(g):
    """Every root-to-anywhere path, by recursive extension."""
    paths = []

    def extend(path):
        paths.append(path)
        for c in g.children(path[-1]):
            extend(path + [c])

    for e in g.entry_tasks():
        extend([e])
    return paths


def heights_by_path_enumeration(g):
    """Height = number of nodes on the longest entry-to-task path."""
    best = {}
    for path in all_paths_from_entries(g):
        tid = path[-1]
        best[tid] = max(best.get(tid, 0), len(path))
    return best


def adjusted_heights_by_path_enumeration(g, scheduled):
    """0 for a scheduled task; any other task gets 1 + its longest chain of
    unscheduled ancestors, i.e. the node count of the longest path of
    unscheduled tasks that ends at it."""
    best = {t: 0 for t in g.task_ids}
    for path in all_paths_from_entries(g):
        run = 0
        for t in reversed(path):
            if t in scheduled:
                break
            run += 1
        best[path[-1]] = max(best[path[-1]], run)
    return best


def reachable_by_dfs(g, a):
    seen = set()

    def visit(t):
        for c in g.children(t):
            if c not in seen:
                seen.add(c)
                visit(c)

    visit(a)
    return seen


def kahn_order_or_cycle(tasks, edges):
    """(topological order, None), or (None, one cycle) if the edges close one.

    Kahn's loop in declaration order, first in, first out. When it leaves
    tasks unplaced, the cycle comes from find_cycle over them.
    """
    parents = {t.id: [] for t in tasks}
    children = {t.id: [] for t in tasks}
    for e in edges:
        parents[e.dst].append(e.src)
        children[e.src].append(e.dst)
    indeg = {t.id: len(parents[t.id]) for t in tasks}
    order = []
    ready = [t.id for t in tasks if indeg[t.id] == 0]
    while ready:
        tid = ready.pop(0)
        order.append(tid)
        for c in children[tid]:
            indeg[c] -= 1
            if indeg[c] == 0:
                ready.append(c)
    if len(order) == len(tasks):
        return order, None
    remaining = [t.id for t in tasks if indeg[t.id] > 0]
    return None, find_cycle(remaining, parents)


def find_cycle(remaining, parents):
    """Walk first remaining parents from the first remaining task until a task
    repeats; the repeated stretch, reversed, runs along the edges."""
    rem = set(remaining)
    path = [remaining[0]]
    seen = {path[0]: 0}
    while True:
        nxt = next(p for p in parents[path[-1]] if p in rem)
        if nxt in seen:
            cycle = path[seen[nxt]:]
            cycle.reverse()
            return cycle
        seen[nxt] = len(path)
        path.append(nxt)


def swap_is_safe_by_descendants(reach, order, i, j):
    """Whether swapping positions i < j keeps every dependency: order[i] may
    pass no descendant of its own, and order[j] no ancestor of its own.
    reach maps each task to its descendants (reachable_by_dfs)."""
    if any(order[k] in reach[order[i]] for k in range(i + 1, j + 1)):
        return False
    return not any(order[j] in reach[order[k]] for k in range(i, j))


def tie_averaged_rank_pairs(members, n_pairs, rng):
    """Ranked selection drawn with per-draw weights: rank N for the best down
    to 1, each group of equal fitness sharing the mean of its ranks."""
    idx = sorted(range(len(members)), key=lambda i: members[i].fitness)
    n = len(idx)
    weights = [float(n - r) for r in range(n)]
    at = 0
    while at < n:
        end = at
        while end < n and members[idx[end]].fitness == members[idx[at]].fitness:
            end += 1
        weights[at:end] = [sum(weights[at:end]) / (end - at)] * (end - at)
        at = end
    pairs = []
    for _ in range(n_pairs):
        a = rng.choices(idx, weights=weights)[0]
        b = a
        while b == a:
            b = rng.choices(idx, weights=weights)[0]
        pairs.append((members[a], members[b]))
    return pairs


def timeline_from_scratch(g, p, order, machines, include_transfer=True):
    """(start, finish, machine, makespan) of one chromosome, from g.edges and
    the platform's link table, machines and ETC rows alone.

    A task starts at the latest of its machine's free time and, per parent,
    that parent's finish plus (latency + bytes / bandwidth) when the parent ran
    on another machine; it then runs for its ETC entry or work / speed. These
    are the float operations the schedule model defines, in that grouping, so
    a simulator that keeps them agrees to the last bit.
    """
    inputs = {}
    for e in g.edges:
        inputs.setdefault(e.dst, []).append((e.src, e.bytes))
    speed = {m.id: m.speed for m in p.machines}
    start, finish, host, free = {}, {}, {}, {}
    for tid, mid in zip(order, machines):
        ready = [free.get(mid, 0.0)]
        for q, nbytes in inputs.get(tid, ()):
            if include_transfer and host[q] != mid:
                link = p.links.get((host[q], mid), p.default_link)
                ready.append(finish[q] + (link.latency + nbytes / link.bandwidth))
            else:
                ready.append(finish[q])
        start[tid] = max(ready)
        etc = (p.etc_override or {}).get(tid)
        finish[tid] = start[tid] + (etc[mid] if etc is not None else g.task(tid).work / speed[mid])
        host[tid] = mid
        free[mid] = finish[tid]
    return start, finish, host, max(finish.values())


def valid_order_by_positions(g, order):
    """The order check as it was first written: the same set of tasks at the
    same length, and every edge's source placed before its destination."""
    if len(order) != len(g) or set(order) != set(g.task_ids):
        return False
    pos = {tid: i for i, tid in enumerate(order)}
    return all(pos[e.src] < pos[e.dst] for e in g.edges)


def min_min_from_scratch(g, p, mode=CommMode.INCLUDE_TRANSFER):
    """min-min as it was first written: every step re-places every ready
    (task, machine) pair and commits the first one, in task-then-machine
    declaration order, that finishes earliest."""
    include = mode is CommMode.INCLUDE_TRANSFER
    tl = Timeline()
    available = {m: 0.0 for m in p.machine_ids}
    unscheduled_parents = {tid: len(g.parents(tid)) for tid in g.task_ids}
    order = []
    machines = []
    while len(order) < len(g):
        best = None  # (finish, task, machine, start)
        for tid in g.task_ids:
            if tid in tl.machine or unscheduled_parents[tid] > 0:
                continue
            for mid in p.machine_ids:
                start, end = place(g, p, tl, tid, mid, available[mid], include)
                if best is None or end < best[0]:
                    best = (end, tid, mid, start)
        end, tid, mid, start = best
        tl.start[tid] = start
        tl.finish[tid] = end
        tl.machine[tid] = mid
        available[mid] = end
        for c in g.children(tid):
            unscheduled_parents[c] -= 1
        order.append(tid)
        machines.append(mid)
    tl.makespan = max(tl.finish.values())
    return Chromosome(order, machines, tl.makespan), tl


def walk_by_ready_tasks(g, h, pick):
    """The GA's chromosome walk as it was first written: before every step it
    rescans all tasks for the ready ones (adjusted height 1, declaration
    order) and hands them to pick, then zeroes the picked task."""
    order = []
    machines = []
    while ready := ready_tasks(g, h):
        tid, mid = pick(ready)
        order.append(tid)
        machines.append(mid)
        h = adjust_heights(g, h, tid)
    return Chromosome(order, machines)


def rescan_after_selected(g, h, selected):
    """adjust_heights' descendant re-derivation as it was first written, from a
    map h that is the adjusted map of its own zero set: scan the topological
    order after `selected` and re-derive each task with a changed parent.
    Returns the new map and the tasks it re-derived, in that order."""
    new = {**h, selected: 0}
    order = list(g.topo_order)
    dirty, derived = set(g.children(selected)), []
    for tid in order[order.index(selected) + 1:]:
        if tid in dirty:
            derived.append(tid)
            v = 1 + max(new[q] for q in g.parents(tid))
            if new[tid] and v != new[tid]:
                new[tid] = v
                dirty.update(g.children(tid))
    return new, derived


def task_aligned_by_maps(p1, p2, point):
    """The task-aligned crossover as it was first written: each parent's
    task -> machine map, and a set of the tasks at p1's positions >= point,
    whose machines the two children trade."""
    swap = set(p1.order[point:])
    m1 = {t: m for t, m in zip(p1.order, p1.machines)}
    m2 = {t: m for t, m in zip(p2.order, p2.machines)}
    c1 = Chromosome(list(p1.order), [m2[t] if t in swap else m for t, m in zip(p1.order, p1.machines)])
    c2 = Chromosome(list(p2.order), [m1[t] if t in swap else m for t, m in zip(p2.order, p2.machines)])
    return c1, c2


def all_valid_orders(g):
    """Every topological order, generated recursively."""
    orders = []
    indeg = {t: len(g.parents(t)) for t in g.task_ids}

    def rec(prefix):
        ready = [t for t in g.task_ids if t not in prefix and indeg[t] == 0]
        if not ready:
            orders.append(list(prefix))
            return
        for t in ready:
            for c in g.children(t):
                indeg[c] -= 1
            prefix.append(t)
            rec(prefix)
            prefix.pop()
            for c in g.children(t):
                indeg[c] += 1

    rec([])
    return orders


def brute_force_optimum(g, p, mode=CommMode.INCLUDE_TRANSFER):
    """Minimum makespan over ALL valid orders x machine assignments."""
    include = mode is CommMode.INCLUDE_TRANSFER
    mids = p.machine_ids
    best = None
    for order in all_valid_orders(g):
        for assignment in itertools.product(mids, repeat=len(order)):
            ms = timeline_from_scratch(g, p, order, assignment, include)[3]
            if best is None or ms < best:
                best = ms
    return best


def parse_dag_by_fields(text):
    """parse_dag as it was before its accept checks: `_require` checks every
    task and edge record field by field, and records are built by keyword."""
    doc = _loads(text)
    _require(doc, "DAG document", {"tasks": list}, {"edges": list})
    if not doc["tasks"]:
        raise SchemaError("DAG document has an empty tasks array")
    tasks = []
    for raw in doc["tasks"]:
        _require(raw, "task", {"id": str, "work": _NUM}, {"name": str})
        tasks.append(TaskNode(id=raw["id"], name=raw.get("name", raw["id"]), work=float(raw["work"])))
    edges = []
    for raw in doc.get("edges", []):
        _require(raw, "edge", {"src": str, "dst": str}, {"bytes": _NUM})
        edges.append(DataEdge(src=raw["src"], dst=raw["dst"], bytes=float(raw.get("bytes", 0.0))))
    return build_graph(tasks, edges)


def random_graph(n_tasks, edge_prob, seed, max_bytes=20.0):
    """Random DAG on declaration order: edges only go forward."""
    rng = random.Random(seed)
    tasks = [TaskNode(f"t{i}", f"job{i}", rng.uniform(1.0, 30.0)) for i in range(n_tasks)]
    edges = []
    for i in range(n_tasks):
        for j in range(i + 1, n_tasks):
            if rng.random() < edge_prob:
                edges.append(DataEdge(f"t{i}", f"t{j}", rng.uniform(0.0, max_bytes)))
    return build_graph(tasks, edges)
