"""Bounded simple-path enumeration and the two training pools.

The multi-path pool holds node pairs joined by at least two simple paths
within the length cap; the single-path pool holds pairs joined by exactly
one. One depth-first walk finds the paths of both: multi-path candidates
qualify by enumerating its paths, single-path candidates by a proof that
runs it distance-pruned and stops at a second path. Pairs connected
purely through bridge edges are provably unique-path at any length (a
simple path that reaches the far side of a bridge must cross it, and it
can only be at the bridge's near endpoint once), so the single-path
builder takes them from the bridge forest without a search.

Two distance shortcuts settle candidates from the BFS distances of their
source, without a search. A pair whose shortest path is not unique has
two paths within the cap, so it cannot enter the single-path pool. A
pair at distance exactly max_len whose shortest path is unique has no
other path within the cap, so it cannot enter the multi-path pool.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from pathembed.graph import Graph

# distinct child-stream tags so the two builders never share an rng stream
_MULTI_TAG = 0x9A17
_SINGLE_TAG = 0x51E7

# both builders enumerate every candidate pair when the graph has at most
# this many node pairs, and sample candidates above it
EXHAUSTIVE_LIMIT = 200_000


@dataclass(frozen=True)
class Path:
    """A simple path as an ordered node tuple (>= 1 edge)."""

    nodes: tuple[int, ...]

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


def bfs_distances(graph: Graph, source: int, max_hops: int) -> tuple[list[int], list[list[int]]]:
    """Hop distance from source to every node (-1 beyond max_hops), and the nodes at each hop.

    levels[h] lists the nodes at distance h in the order the search
    reached them, so levels[0] is [source].
    """
    adj = graph.adjacency
    dist = [-1] * graph.num_nodes
    dist[source] = 0
    levels = [[int(source)]]
    while levels[-1] and len(levels) <= max_hops:
        hops = len(levels)
        reached = []
        for u in levels[-1]:
            for v in adj[u]:
                if dist[v] < 0:
                    dist[v] = hops
                    reached.append(v)
        levels.append(reached)
    return dist, levels


def _hop_array(levels: list[list[int]], num_nodes: int) -> np.ndarray:
    """Each node's hop from `bfs_distances` levels (-1 if not reached), in a narrow int type."""
    hops = np.full(num_nodes, -1, dtype=np.min_scalar_type(-len(levels)))
    for hop, nodes in enumerate(levels):
        hops[nodes] = hop
    return hops


def _walk(graph: Graph, src: int, dst: int, max_len: int, budget: int | None,
          dist: list[int] | None):
    """The simple src-dst paths of <= max_len edges as node tuples, depth-first.

    Neighbors are taken in adjacency order. With `dist`, the hop distances
    to dst (-1 beyond the cap), the walk enters no node from which dst is
    out of reach within the cap. Once it has made `budget` descents (None:
    no limit) it enters no further node and yields None, once; as it
    backs out it still yields the direct hits on dst, so a cut walk yields
    the paths found within the budget.
    """
    adj = graph.adjacency
    near_dst = set(adj[dst])
    path = [src]
    on_path = {src}
    stack = [iter(adj[src])]
    descents = 0
    if budget == 0:
        yield None
    while stack:
        if len(path) >= max_len or descents == budget:
            # no descent is allowed from here: only a direct hit on dst can
            # remain among this node's neighbors
            if dst in stack[-1]:
                yield (*path, dst)
            stack.pop()
            on_path.discard(path.pop())
            continue
        if len(path) == max_len - 1:
            # the last level: a child can only be the step before dst, so each
            # descent is counted and its hit tested without entering the child
            for w in stack[-1]:
                if w == dst:
                    yield (*path, dst)
                    continue
                if w in on_path or (dist is not None and not 0 <= dist[w] <= 1):
                    continue
                descents += 1
                if descents == budget:
                    yield None
                if w in near_dst:
                    yield (*path, w, dst)
                if descents == budget:
                    break  # the no-descent branch above scans the rest of this frame
            else:
                stack.pop()
                on_path.discard(path.pop())
            continue
        w = next(stack[-1], -1)
        if w < 0:
            stack.pop()
            on_path.discard(path.pop())
            continue
        if w == dst:
            yield (*path, dst)
            continue
        if w in on_path or (dist is not None and not 0 <= dist[w] <= max_len - len(path)):
            continue
        descents += 1
        if descents == budget:
            yield None
        path.append(w)
        on_path.add(w)
        stack.append(iter(adj[w]))


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

    With max_paths (which needs an rng) the search enumerates every path
    and keeps a uniform reservoir of max_paths of them.
    `max_expansions` bounds the number of DFS descents on large graphs;
    when it binds, the result is the paths discovered within the budget.
    """
    i, j = int(i), int(j)
    if i == j:
        raise ValueError("endpoints must differ")
    if max_len < 1:
        raise ValueError("max_len must be >= 1")
    if max_paths is not None and rng is None:
        raise ValueError("max_paths needs an rng to draw the reservoir")
    found: list[tuple[int, ...]] = []
    seen_count = 0
    for record in _walk(graph, i, j, max_len, max_expansions, None):
        if record is None:
            continue
        seen_count += 1
        if max_paths is None or len(found) < max_paths:
            found.append(record)
        elif (slot := int(rng.integers(0, seen_count))) < max_paths:
            found[slot] = record
    return [Path(p) for p in sorted(found, key=lambda p: (len(p), p))]


# -- pool construction -------------------------------------------------------


def _bridge_forest_pairs(graph: Graph, max_len: int):
    """(pair, forest path) for all pairs joined by <= max_len bridges.

    Bridge edges form a forest (no bridge lies on a cycle), so the BFS
    parent chain from v back to u is the unique simple u-v path in the
    whole graph.
    """
    adj = Graph(graph.num_nodes, graph.find_bridges()).adjacency
    out = []
    for u in range(graph.num_nodes):
        parent = {u: u}
        frontier = [u]
        for _ in range(max_len):
            reached = []
            for w in frontier:
                for x in adj[w]:
                    if x not in parent:
                        parent[x] = w
                        reached.append(x)
            frontier = reached
        for v in sorted(x for x in parent if x > u):
            trail = [v]
            while trail[-1] != u:
                trail.append(parent[trail[-1]])
            out.append(((u, v), Path(tuple(reversed(trail)))))
    return out


def _hop_balls(graph: Graph, max_len: int, min_dist: int):
    """(u, BFS distances from u, every v > u at hop distance min_dist..max_len)."""
    for u in range(graph.num_nodes):
        dist, levels = bfs_distances(graph, u, max_len)  # -1 beyond max_len
        hops = _hop_array(levels, graph.num_nodes)[u + 1:]
        yield u, dist, (np.flatnonzero(hops >= min_dist) + (u + 1)).tolist()


# the most hop distances a builder keeps at once, one per node and source
BALL_STORE_SIZE = 1 << 22


def _draw_ball(graph: Graph, rng: np.random.Generator, max_len: int, min_dist: int, k: int,
               store: dict[int, np.ndarray]):
    """A random source u, its BFS distances and up to k distinct nodes in range.

    `store` keeps the hop distances of the sources drawn before in this
    builder call, so each source's search runs once. Past BALL_STORE_SIZE
    kept distances the oldest source goes first.
    """
    u = int(rng.integers(0, graph.num_nodes))
    hops = store.get(u)
    if hops is None:
        dist, levels = bfs_distances(graph, u, max_len)  # -1 beyond max_len
        hops = store[u] = _hop_array(levels, graph.num_nodes)
        if len(store) * graph.num_nodes > BALL_STORE_SIZE:
            del store[next(iter(store))]
    else:
        dist = hops.tolist()
    eligible = np.flatnonzero(hops >= min_dist)
    if eligible.size == 0:
        return u, dist, []
    picks = rng.choice(eligible, size=min(k, eligible.size), replace=False)
    return u, dist, picks.tolist()


def _sole_shortest_path(graph: Graph, dist: list[int], v: int) -> tuple[int, ...] | None:
    """The only shortest path from the BFS source of `dist` to v, or None if v has two.

    Walks back from v one distance level at a time. Every node on the way
    lies on a shortest path to v, so a node with two neighbors one level
    closer to the source gives v two shortest paths.
    """
    adj = graph.adjacency
    trail = [v]
    for level in range(dist[v] - 1, -1, -1):
        back = [w for w in adj[trail[-1]] if dist[w] == level]
        if len(back) > 1:
            return None
        trail.append(back[0])
    return tuple(reversed(trail))


def build_multipath_pool(
    graph: Graph,
    max_len: int,
    max_paths: int,
    max_pairs: int,
    seed: int,
    path_budget: int | None = None,
) -> list[MultiPathSet]:
    """Pairs with >= 2 simple paths within max_len, adjacent pairs first.

    Candidate pairs beyond the edges come from hop balls of radius
    max_len: enumerated exhaustively (rng-shuffled order) when the pair
    universe is small, sampled uniformly otherwise. Stops once max_pairs
    sets qualify. Deterministic for a fixed seed. A candidate at distance
    max_len with a unique shortest path is rejected without enumeration:
    with one path found the reservoir draws nothing, so the rng stream and
    the pool are those of enumerating it.
    """
    if max_paths < 2:
        raise ValueError("max_paths must be >= 2: a set needs two paths")
    rng = np.random.default_rng(np.random.SeedSequence([int(seed), _MULTI_TAG]))
    sets: list[MultiPathSet] = []
    seen: set[tuple[int, int]] = set()

    def consider(u: int, v: int, dist: list[int] | None = None) -> None:
        """Enumerate pair (u, v); `dist` holds the BFS distances from u, when known."""
        pair = (u, v) if u < v else (v, u)
        if pair in seen:
            return
        seen.add(pair)
        if dist is not None and dist[v] == max_len and _sole_shortest_path(graph, dist, v):
            return
        paths = enumerate_simple_paths(
            graph, pair[0], pair[1], max_len,
            max_paths=max_paths, rng=rng, max_expansions=path_budget,
        )
        if len(paths) >= 2:
            sets.append(MultiPathSet(pair, tuple(paths)))

    for u, v in graph.edges:
        if len(sets) >= max_pairs:
            break
        consider(int(u), int(v))

    n = graph.num_nodes
    if len(sets) < max_pairs:
        if n * (n - 1) // 2 <= EXHAUSTIVE_LIMIT:
            candidates = [(u, v, dist) for u, dist, ball in _hop_balls(graph, max_len, 2)
                          for v in ball]
            for k in rng.permutation(len(candidates)):
                if len(sets) >= max_pairs:
                    break
                consider(*candidates[int(k)])
        else:
            attempts = 0
            balls: dict[int, np.ndarray] = {}
            while len(sets) < max_pairs and attempts < 8 * max_pairs:
                u, dist, picks = _draw_ball(graph, rng, max_len, 2, 8, balls)
                if not picks:
                    attempts += 8
                    continue
                for v in picks:
                    if len(sets) >= max_pairs:
                        break
                    consider(u, v, dist)
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
    node_budget: int | None,
) -> Path | None:
    """The sole simple u-v path of <= max_len edges, or None.

    Walks from v toward u, pruning branches whose best-case completion
    (current depth + BFS distance to u) exceeds the cap. Returns None when
    a second path turns up or uniqueness needs more than `node_budget`
    descents, so every returned path is verified. Without a budget the
    answer is exact.
    """
    # the walk counts the descents it makes, while a budget of n lets the
    # proof make n descents and gives up when it needs one more: that is
    # the walk's cut at n + 1
    budget = None if node_budget is None else node_budget + 1
    found = [p for _, p in zip(range(2), _walk(graph, v, u, max_len, budget, dist_u))]
    if len(found) != 1 or found[0] is None:
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
) -> SinglePathSet:
    """Pairs with exactly one simple path within max_len.

    Bridge-forest pairs within the cap are included without a search
    (uniqueness is structural). On small graphs every remaining pair in
    range goes through the unique-path search with no node budget, which
    is exact, so the pool matches the brute-force definition. At scale the
    forest is topped up by sampling random in-range pairs and keeping only
    those that the same search, under a node budget, proves unique, so
    short caps still yield broad coverage (for example hop-2 pairs whose
    endpoints share exactly one neighbor). Both branches reject a pair
    with two shortest paths before searching: the search could only
    reject it too, with or without the budget.
    """
    rng = np.random.default_rng(np.random.SeedSequence([int(seed), _SINGLE_TAG]))
    entries: list[tuple[tuple[int, int], Path]] = []
    seen: set[tuple[int, int]] = set()

    for pair, path in _bridge_forest_pairs(graph, max_len):
        seen.add(pair)
        entries.append((pair, path))

    n = graph.num_nodes
    if n * (n - 1) // 2 <= EXHAUSTIVE_LIMIT:
        for u, dist, ball in _hop_balls(graph, max_len, 1):
            for v in ball:
                if (u, v) not in seen and _sole_shortest_path(graph, dist, v):
                    path = _unique_path_within(graph, dist, u, v, max_len, None)
                    if path is not None:
                        entries.append(((u, v), path))
    else:
        # Sampled verification. Accepted entries carry a proven-unique path
        # (pruned double-path search with a hard node budget), so
        # membership stays sound; only coverage is randomized. Consecutive
        # rejections bound the cost on graphs where unique-path pairs are
        # rare at the requested cap.
        budget = max(4 * max_pairs, 2000)
        misses = 0
        accepted = 0
        balls: dict[int, np.ndarray] = {}
        while accepted < max_pairs and budget > 0 and misses < 2000:
            u, dist, picks = _draw_ball(graph, rng, max_len, 1, min(16, budget), balls)
            if not picks:
                misses += 1
                continue
            for v in picks:
                budget -= 1
                pair = (min(u, v), max(u, v))
                if pair in seen:
                    misses += 1
                    continue
                path = None
                if _sole_shortest_path(graph, dist, v):
                    path = _unique_path_within(graph, dist, u, v, max_len, 2000)
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
