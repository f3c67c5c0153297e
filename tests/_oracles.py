"""Independent brute-force oracles, deliberately naive.

Nothing here shares code with the library's scheduling path: heights and
adjusted heights come from exhaustive path enumeration, reachability from
plain DFS, swap safety from scanning the whole swap window for descendants
and ancestors, ranked selection from weights handed to every draw, and
optimal makespans from enumerating every valid order and machine assignment.
`kahn_order_or_cycle` keeps an earlier form of the graph builder's ordering
and cycle report, as the reference the builder must keep matching.
"""

import itertools
import random

from dagsched.dag import DataEdge, TaskNode, build_graph
from dagsched.evaluator import CommMode
from dagsched.platform import execution_time, transfer_time


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


def brute_force_evaluate(g, p, order, machines, include_transfer=True):
    """Makespan of one chromosome, recomputed from scratch each call."""
    finish = {}
    host = {}
    avail = {}
    for tid, mid in zip(order, machines):
        ready = 0.0
        for q in g.parents(tid):
            t = finish[q]
            if include_transfer:
                t += transfer_time(p, g.edge_bytes(q, tid), host[q], mid)
            ready = max(ready, t)
        start = max(ready, avail.get(mid, 0.0))
        finish[tid] = start + execution_time(p, g.task(tid), mid)
        host[tid] = mid
        avail[mid] = finish[tid]
    return max(finish.values())


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
            ms = brute_force_evaluate(g, p, order, assignment, include)
            if best is None or ms < best:
                best = ms
    return best


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
