"""Bounded simple-path enumeration and the two training pools.

The multi-path pool holds node pairs joined by at least two simple paths
within the length cap; the single-path pool holds pairs joined by exactly
one. Qualification is decided by early-exit path counting, except that
pairs connected purely through bridge edges are provably unique-path at
any length (a simple path that reaches the far side of a bridge must
cross it, and it can only be at the bridge's near endpoint once), so at
scale the single-path builder walks the bridge forest instead of
counting.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from pathembed.graph import Graph

# distinct child-stream tags so the two builders never share an rng stream
_MULTI_TAG = 0x9A17
_SINGLE_TAG = 0x51E7


@dataclass(frozen=True)
class Path:
    """A simple path as an ordered node tuple (>= 1 edge)."""

    nodes: tuple[int, ...]

    @property
    def num_edges(self) -> int:
        return len(self.nodes) - 1

    @property
    def endpoints(self) -> tuple[int, int]:
        return self.nodes[0], self.nodes[-1]


@dataclass(frozen=True)
class MultiPathSet:
    """A node pair plus >= 2 distinct paths joining it."""

    endpoints: tuple[int, int]
    paths: tuple[Path, ...]


@dataclass(frozen=True)
class SinglePathSet:
    """All (pair, unique path) entries feeding the ordering loss."""

    entries: tuple[tuple[tuple[int, int], Path], ...]


def validate_path(graph: Graph, path: Path) -> None:
    nodes = path.nodes
    if len(nodes) < 2:
        raise ValueError(f"path too short: {nodes}")
    if len(set(nodes)) != len(nodes):
        raise ValueError(f"path repeats a node: {nodes}")
    for a, b in zip(nodes, nodes[1:]):
        if not graph.has_edge(int(a), int(b)):
            raise ValueError(f"non-adjacent step {a}-{b} in {nodes}")


def bfs_distances(graph: Graph, source: int, max_hops: int | None = None) -> np.ndarray:
    """Hop distance from source to every node (-1 beyond max_hops)."""
    adj = graph.adjacency()
    dist = [-1] * graph.num_nodes
    dist[source] = 0
    frontier = [int(source)]
    hops = 0
    while frontier and (max_hops is None or hops < max_hops):
        hops += 1
        reached = []
        for u in frontier:
            for v in adj[u]:
                if dist[v] < 0:
                    dist[v] = hops
                    reached.append(v)
        frontier = reached
    return np.asarray(dist, dtype=np.int64)


def enumerate_simple_paths(
    graph: Graph,
    i: int,
    j: int,
    max_len: int,
    max_paths: int | None = None,
    rng: np.random.Generator | None = None,
    max_expansions: int | None = None,
) -> list[Path]:
    """All simple i-j paths of <= max_len edges, depth-first, sorted.

    Two capping modes. Without an rng the search stops as soon as
    max_paths paths are found (deterministic first-k in DFS order, used
    for early-exit counting). With an rng the search enumerates fully and
    keeps a uniform reservoir of max_paths. `max_expansions` bounds the
    number of DFS descents on large graphs; when it binds, the result is
    the paths discovered within the budget.
    """
    i, j = int(i), int(j)
    if i == j:
        raise ValueError("endpoints must differ")
    if max_len < 1:
        raise ValueError("max_len must be >= 1")
    found: list[tuple[int, ...]] = []
    seen_count = 0
    expansions = 0
    early_exit = rng is None and max_paths is not None

    def hit() -> bool:
        """Record the current path plus j; True once the early exit is due."""
        nonlocal seen_count
        record = tuple(path) + (j,)
        seen_count += 1
        if max_paths is None or len(found) < max_paths:
            found.append(record)
            return early_exit and len(found) >= max_paths
        slot = int(rng.integers(0, seen_count))
        if slot < max_paths:
            found[slot] = record
        return False

    adj = graph.adjacency()
    path = [i]
    on_path = {i}
    stack = [iter(adj[i])]
    while stack:
        if len(path) >= max_len or (max_expansions is not None
                                    and expansions >= max_expansions):
            # no descent is allowed from here: only a direct hit on j can
            # remain among this node's neighbors
            if j in stack[-1] and len(path) <= max_len and hit():
                break
            stack.pop()
            on_path.discard(path.pop())
            continue
        v = next(stack[-1], -1)
        if v < 0:
            stack.pop()
            on_path.discard(path.pop())
            continue
        if v == j:
            if len(path) <= max_len and hit():
                break
            continue
        if v in on_path:
            continue
        expansions += 1
        path.append(v)
        on_path.add(v)
        stack.append(iter(adj[v]))
    return [Path(p) for p in sorted(found, key=lambda p: (len(p), p))]


# -- pool construction -------------------------------------------------------


def _bridge_forest_adjacency(graph: Graph) -> dict[int, list[int]]:
    adj: dict[int, list[int]] = {}
    for a, b in graph.find_bridges():
        adj.setdefault(int(a), []).append(int(b))
        adj.setdefault(int(b), []).append(int(a))
    for u in adj:
        adj[u].sort()
    return adj


def _bridge_forest_pairs(graph: Graph, max_len: int, min_hops: int):
    """(pair, forest path) for all pairs joined by <= max_len bridges.

    Bridge edges form a forest (no bridge lies on a cycle), so the walk
    below visits each pair once and the recovered path is the unique
    simple path between the endpoints in the whole graph.
    """
    adj = _bridge_forest_adjacency(graph)
    out = []
    for u in sorted(adj):
        # bounded DFS in the forest, emitting v > u only
        stack = [(u, iter(adj[u]))]
        trail = [u]
        on_trail = {u}
        while stack:
            node, it = stack[-1]
            advanced = False
            for v in it:
                if v in on_trail:
                    continue
                trail.append(v)
                on_trail.add(v)
                if v > u and len(trail) - 1 >= min_hops:
                    out.append(((u, v), Path(tuple(trail))))
                if len(trail) - 1 < max_len:
                    stack.append((v, iter(adj[v])))
                else:
                    on_trail.discard(trail.pop())
                advanced = True
                break
            if not advanced:
                stack.pop()
                on_trail.discard(trail.pop())
    return out


def build_multipath_pool(
    graph: Graph,
    max_len: int,
    max_paths: int,
    max_pairs: int,
    seed: int,
    min_hops: int = 1,
    exhaustive_limit: int = 200_000,
    path_budget: int | None = None,
) -> list[MultiPathSet]:
    """Pairs with >= 2 simple paths within max_len, adjacent pairs first.

    Candidate pairs beyond the edges come from hop balls of radius
    max_len: enumerated exhaustively (rng-shuffled order) when the pair
    universe is small, sampled uniformly otherwise. Stops once max_pairs
    sets qualify. Deterministic for a fixed seed.
    """
    rng = np.random.default_rng(np.random.SeedSequence([int(seed), _MULTI_TAG]))
    sets: list[MultiPathSet] = []
    seen: set[tuple[int, int]] = set()

    def consider(u: int, v: int) -> None:
        pair = (u, v) if u < v else (v, u)
        if pair in seen:
            return
        seen.add(pair)
        paths = enumerate_simple_paths(
            graph, pair[0], pair[1], max_len,
            max_paths=max_paths, rng=rng, max_expansions=path_budget,
        )
        if len(paths) >= 2:
            sets.append(MultiPathSet(pair, tuple(paths)))

    if min_hops <= 1:
        for u, v in graph.edges:
            if len(sets) >= max_pairs:
                break
            consider(int(u), int(v))

    n = graph.num_nodes
    if len(sets) < max_pairs:
        if n * (n - 1) // 2 <= exhaustive_limit:
            candidates = []
            for u in range(n):
                dist = bfs_distances(graph, u, max_len)
                eligible = np.nonzero((dist >= max(2, min_hops)) & (dist <= max_len))[0]
                candidates.extend((u, int(v)) for v in eligible if v > u)
            for k in rng.permutation(len(candidates)):
                if len(sets) >= max_pairs:
                    break
                consider(*candidates[int(k)])
        else:
            attempts = 0
            attempt_cap = 8 * max_pairs
            while len(sets) < max_pairs and attempts < attempt_cap:
                u = int(rng.integers(0, n))
                dist = bfs_distances(graph, u, max_len)
                eligible = np.nonzero((dist >= max(2, min_hops)) & (dist <= max_len))[0]
                eligible = eligible[eligible != u]
                if eligible.size == 0:
                    attempts += 8
                    continue
                picks = rng.choice(eligible, size=min(8, eligible.size), replace=False)
                for v in picks:
                    if len(sets) >= max_pairs:
                        break
                    consider(u, int(v))
                    attempts += 1

    sets.sort(key=lambda s: s.endpoints)
    for s in sets:
        for p in s.paths:
            validate_path(graph, p)
    return sets


def _unique_path_within(
    graph: Graph,
    dist_u: list[int],
    u: int,
    v: int,
    max_len: int,
    node_budget: int = 2000,
) -> Path | None:
    """The sole simple u-v path of <= max_len edges, or None.

    Walks depth-first from v toward u, pruning branches whose best-case
    completion (current depth + BFS distance to u) exceeds the cap.
    Returns None when a second path turns up or the node budget runs out
    before uniqueness is proven, so every returned path is verified.
    """
    found: list[tuple[int, ...]] = []
    visits = 0
    adj = graph.adjacency()
    path = [v]
    on_path = {v}
    stack = [iter(adj[v])]
    while stack:
        w = next(stack[-1], -1)
        if w < 0:
            stack.pop()
            on_path.discard(path.pop())
            continue
        edges_if_taken = len(path)
        if w == u:
            if edges_if_taken <= max_len:
                found.append(tuple(reversed(path + [w])))
                if len(found) >= 2:
                    return None
            continue
        if w in on_path or edges_if_taken >= max_len:
            continue
        du = dist_u[w]
        if du < 0 or edges_if_taken + du > max_len:
            continue
        visits += 1
        if visits > node_budget:
            return None
        path.append(w)
        on_path.add(w)
        stack.append(iter(adj[w]))
    if len(found) != 1:
        return None
    nodes = found[0]
    if nodes[0] > nodes[-1]:
        nodes = tuple(reversed(nodes))
    return Path(nodes)


def build_singlepath_pool(
    graph: Graph,
    max_len: int,
    max_pairs: int,
    seed: int,
    min_hops: int = 1,
    exhaustive_limit: int = 200_000,
) -> SinglePathSet:
    """Pairs with exactly one simple path within max_len.

    Bridge-forest pairs within the cap are included without counting
    (uniqueness is structural). On small graphs every remaining pair in
    range is verified by early-exit counting, so the pool matches the
    brute-force definition. At scale the forest is topped up by sampling
    random in-range pairs and keeping only those that pass the same
    early-exit uniqueness check, so short caps still yield broad coverage
    (for example hop-2 pairs whose endpoints share exactly one neighbor).
    """
    rng = np.random.default_rng(np.random.SeedSequence([int(seed), _SINGLE_TAG]))
    entries: list[tuple[tuple[int, int], Path]] = []
    seen: set[tuple[int, int]] = set()

    for pair, path in _bridge_forest_pairs(graph, max_len, min_hops):
        if pair not in seen:
            seen.add(pair)
            entries.append((pair, path))

    n = graph.num_nodes
    lo = max(1, min_hops)
    if n * (n - 1) // 2 <= exhaustive_limit:
        extras = []
        for u in range(n):
            dist = bfs_distances(graph, u, max_len)
            eligible = np.nonzero((dist >= lo) & (dist <= max_len))[0]
            extras.extend((u, int(v)) for v in eligible if v > u and (u, int(v)) not in seen)
        for u, v in extras:
            found = enumerate_simple_paths(graph, u, v, max_len, max_paths=2)
            if len(found) == 1:
                seen.add((u, v))
                entries.append(((u, v), found[0]))
    else:
        # Sampled verification. Accepted entries carry a proven-unique path
        # (pruned double-path search with a hard node budget), so
        # membership stays sound; only coverage is randomized. Consecutive
        # rejections bound the cost on graphs where unique-path pairs are
        # rare at the requested cap.
        budget = max(4 * max_pairs, 2000)
        misses = 0
        accepted = 0
        while accepted < max_pairs and budget > 0 and misses < 2000:
            u = int(rng.integers(n))
            dist = bfs_distances(graph, u, max_len)
            eligible = np.nonzero((dist >= lo) & (dist <= max_len))[0]
            if eligible.size == 0:
                misses += 1
                continue
            dist_list = dist.tolist()
            take = min(16, int(eligible.size), budget)
            for v in rng.choice(eligible, size=take, replace=False):
                budget -= 1
                pair = (min(u, int(v)), max(u, int(v)))
                if pair in seen:
                    misses += 1
                    continue
                path = _unique_path_within(graph, dist_list, u, int(v), max_len)
                if path is not None:
                    seen.add(pair)
                    entries.append((pair, path))
                    accepted += 1
                    misses = 0
                else:
                    misses += 1

    entries.sort(key=lambda e: e[0])
    if len(entries) > max_pairs:
        # uniform cap so long-range entries are not systematically dropped
        keep = np.sort(rng.choice(len(entries), size=max_pairs, replace=False))
        entries = [entries[int(k)] for k in keep]
    for _, p in entries:
        validate_path(graph, p)
    return SinglePathSet(tuple(entries))
