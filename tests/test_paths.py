"""Path enumeration and pool construction against brute-force oracles."""

import hashlib
import json

import numpy as np
import pytest

import pathembed.paths
from pathembed.datasets import synthetic_citation_graph
from pathembed.graph import Graph
from pathembed.paths import (
    MultiPathSet,
    Path,
    SinglePathSet,
    _sole_shortest_path,
    _unique_path_within,
    _walk,
    bfs_distances,
    build_multipath_pool,
    build_singlepath_pool,
    enumerate_simple_paths,
    validate_path,
)


def brute_force_paths(g: Graph, i: int, j: int, max_len: int):
    """Independent recursive enumeration used as the oracle."""
    out = []

    def rec(u, path, visited):
        if u == j:
            out.append(tuple(path))
            return
        if len(path) - 1 == max_len:
            return
        for v in range(g.num_nodes):
            if g.has_edge(u, v) and v not in visited:
                rec(v, path + [v], visited | {v})

    rec(i, [i], {i})
    return sorted(out, key=lambda p: (len(p), p))


def random_graph(rng, n_max=10, p=0.4):
    n = int(rng.integers(3, n_max + 1))
    edges = [(i, j) for i in range(n) for j in range(i + 1, n) if rng.random() < p]
    return Graph(n, np.array(edges, dtype=np.int64).reshape(-1, 2))


def cycle_graph(n):
    edges = [(k, (k + 1) % n) for k in range(n)]
    return Graph(n, np.array(edges))


class TestEnumerate:
    def test_four_cycle_diagonal(self):
        g = cycle_graph(4)
        got = enumerate_simple_paths(g, 0, 2, max_len=3)
        assert [p.nodes for p in got] == [(0, 1, 2), (0, 3, 2)]

    def test_too_short_cap_gives_empty(self):
        g = Graph(3, np.array([[0, 1], [1, 2]]))
        assert enumerate_simple_paths(g, 0, 2, max_len=1) == []

    def test_k4_five_paths(self):
        # oracle-confirmed count of simple 0-1 paths of <= 3 edges in K4
        g = Graph(4, np.array([(i, j) for i in range(4) for j in range(i + 1, 4)]))
        oracle = brute_force_paths(g, 0, 1, 3)
        assert len(oracle) == 5
        got = enumerate_simple_paths(g, 0, 1, max_len=3)
        assert [p.nodes for p in got] == oracle

    def test_matches_brute_force_on_random_graphs(self):
        rng = np.random.default_rng(10)
        for _ in range(50):
            g = random_graph(rng)
            i, j = rng.choice(g.num_nodes, size=2, replace=False)
            max_len = int(rng.integers(1, 7))
            got = enumerate_simple_paths(g, int(i), int(j), max_len)
            assert [p.nodes for p in got] == brute_force_paths(g, int(i), int(j), max_len)

    def test_monotone_in_max_len(self):
        rng = np.random.default_rng(11)
        for _ in range(20):
            g = random_graph(rng)
            i, j = rng.choice(g.num_nodes, size=2, replace=False)
            counts = [
                len(enumerate_simple_paths(g, int(i), int(j), L)) for L in range(1, 7)
            ]
            assert counts == sorted(counts)

    def test_reservoir_subsample_uniform_coverage(self):
        """Every one of the 5 K4 paths shows up across reseeded draws."""
        g = Graph(4, np.array([(i, j) for i in range(4) for j in range(i + 1, 4)]))
        full = {p.nodes for p in enumerate_simple_paths(g, 0, 1, max_len=3)}
        hits = {p: 0 for p in full}
        for seed in range(300):
            rng = np.random.default_rng(seed)
            got = enumerate_simple_paths(g, 0, 1, max_len=3, max_paths=2, rng=rng)
            assert len(got) == 2
            for p in got:
                assert p.nodes in full
                hits[p.nodes] += 1
        assert all(v > 0 for v in hits.values())
        # uniform reservoir: each path kept with probability 2/5
        freqs = np.array(sorted(hits.values())) / 300.0
        assert freqs.min() > 0.25 and freqs.max() < 0.55

    def test_expansion_budget_limits_work_but_keeps_validity(self):
        g = cycle_graph(8)
        got = enumerate_simple_paths(
            g, 0, 4, max_len=7, max_paths=10,
            rng=np.random.default_rng(0), max_expansions=3,
        )
        for p in got:
            validate_path(g, p)

    def test_same_endpoint_rejected(self):
        g = cycle_graph(4)
        with pytest.raises(ValueError):
            enumerate_simple_paths(g, 1, 1, max_len=2)

    def test_counts_within_the_cap_and_the_reservoir(self):
        g = Graph(3, np.array([[0, 1], [1, 2], [0, 2]]))
        rng = np.random.default_rng(0)
        assert len(enumerate_simple_paths(g, 0, 1, max_len=2)) == 2
        assert len(enumerate_simple_paths(g, 0, 1, max_len=1)) == 1
        assert len(enumerate_simple_paths(g, 0, 1, max_len=2, max_paths=1, rng=rng)) == 1

    def test_max_paths_without_rng_is_refused(self):
        g = Graph(3, np.array([[0, 1], [1, 2], [0, 2]]))
        with pytest.raises(ValueError, match="rng"):
            enumerate_simple_paths(g, 0, 1, max_len=2, max_paths=1)


def walk_events(g: Graph, src: int, dst: int, max_len: int, dist=None):
    """Recursive oracle of `_walk`'s order: each path found, and "descend" per node entered.

    With `dist` (hop distances to dst) it enters no node from which dst is
    out of reach within the cap.
    """
    events = []

    def rec(path):
        for w in g.adjacency[path[-1]]:
            if w == dst:
                events.append((*path, w))
            elif (w not in path and len(path) < max_len
                  and (dist is None or 0 <= dist[w] <= max_len - len(path))):
                events.append("descend")
                rec(path + [w])

    rec([src])
    return events


class TestWalk:
    """The one depth-first walk behind enumeration and the unique-path proof."""

    @staticmethod
    def cases(seed, count):
        rng = np.random.default_rng(seed)
        for _ in range(count):
            g = random_graph(rng, n_max=9, p=0.45)
            src, dst = (int(x) for x in rng.choice(g.num_nodes, size=2, replace=False))
            yield rng, g, src, dst, int(rng.integers(1, 6))

    def test_unbudgeted_walk_yields_every_path_depth_first_with_or_without_distances(self):
        for _, g, src, dst, max_len in self.cases(30, 120):
            dist, _ = bfs_distances(g, dst, max_len)
            plain = list(_walk(g, src, dst, max_len, None, None))
            pruned = list(_walk(g, src, dst, max_len, None, dist))
            assert plain == [e for e in walk_events(g, src, dst, max_len) if e != "descend"]
            assert pruned == plain
            assert sorted(plain, key=lambda p: (len(p), p)) == \
                brute_force_paths(g, src, dst, max_len)

    def test_budget_cut_yields_one_none_after_that_many_descents(self):
        cuts = 0
        for rng, g, src, dst, max_len in self.cases(31, 120):
            events = walk_events(g, src, dst, max_len)
            descents = [k for k, e in enumerate(events) if e == "descend"]
            everything = {e for e in events if e != "descend"}
            budgets = {0, 1, len(descents), len(descents) + 1,
                       int(rng.integers(0, len(descents) + 2))}
            for budget in budgets:
                got = list(_walk(g, src, dst, max_len, budget, None))
                if budget > len(descents):
                    assert None not in got
                    continue
                cuts += 1
                assert got.count(None) == 1
                cut = got.index(None)
                before = events[:descents[budget - 1]] if budget else []
                assert got[:cut] == [e for e in before if e != "descend"]
                # backing out it still finds direct hits, each a distinct path
                rest = got[cut + 1:]
                assert len(set(got[:cut] + rest)) == len(got) - 1
                assert set(rest) <= everything
        assert cuts > 200

    def test_proof_succeeds_at_a_budget_of_its_descents_and_not_one_fewer(self):
        proofs = 0
        for _, g, src, dst, max_len in self.cases(32, 300):
            u, v = min(src, dst), max(src, dst)
            dist_u, _ = bfs_distances(g, u, max_len)
            events = walk_events(g, v, u, max_len, dist_u)
            paths = [e for e in events if e != "descend"]
            exact = _unique_path_within(g, dist_u, u, v, max_len, None)
            if len(paths) != 1:
                assert exact is None
                continue
            assert exact == Path(paths[0][::-1])
            attempts = events.count("descend")
            assert _unique_path_within(g, dist_u, u, v, max_len, attempts) == exact
            if attempts:
                proofs += 1
                assert _unique_path_within(g, dist_u, u, v, max_len, attempts - 1) is None
        assert proofs > 20


class TestBfsDistances:
    def test_distances_and_cutoff(self):
        g = Graph(5, np.array([[0, 1], [1, 2], [2, 3]]))
        assert bfs_distances(g, 0, max_hops=4) == ([0, 1, 2, 3, -1], [[0], [1], [2], [3], []])
        assert bfs_distances(g, 0, max_hops=2) == ([0, 1, 2, -1, -1], [[0], [1], [2]])


class TestMultiPathPool:
    def test_tree_gives_empty_pool(self):
        g = Graph(5, np.array([[0, 1], [1, 2], [1, 3], [3, 4]]))
        assert build_multipath_pool(g, max_len=4, max_paths=5, max_pairs=100, seed=0) == []

    def test_four_cycle_all_six_pairs(self):
        g = cycle_graph(4)
        pool = build_multipath_pool(g, max_len=3, max_paths=5, max_pairs=100, seed=0)
        assert [s.endpoints for s in pool] == [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)]
        assert all(len(s.paths) == 2 for s in pool)

    def test_max_pairs_cap(self):
        g = cycle_graph(4)
        pool = build_multipath_pool(g, max_len=3, max_paths=5, max_pairs=3, seed=0)
        assert len(pool) == 3

    def test_max_paths_cap(self):
        g = Graph(5, np.array([(i, j) for i in range(5) for j in range(i + 1, 5)]))
        pool = build_multipath_pool(g, max_len=4, max_paths=3, max_pairs=100, seed=1)
        assert all(len(s.paths) == 3 for s in pool)

    def test_qualification_matches_brute_force(self):
        rng = np.random.default_rng(12)
        for _ in range(25):
            g = random_graph(rng)
            max_len = int(rng.integers(2, 5))
            pool = build_multipath_pool(
                g, max_len=max_len, max_paths=10_000, max_pairs=10_000, seed=3
            )
            got = {s.endpoints for s in pool}
            want = {
                (i, j)
                for i in range(g.num_nodes)
                for j in range(i + 1, g.num_nodes)
                if len(brute_force_paths(g, i, j, max_len)) >= 2
            }
            assert got == want

    def test_deterministic(self):
        rng = np.random.default_rng(13)
        g = random_graph(rng, n_max=9)
        a = build_multipath_pool(g, 3, 4, 50, seed=9)
        b = build_multipath_pool(g, 3, 4, 50, seed=9)
        assert a == b

    def test_fewer_than_two_stored_paths_is_refused(self):
        with pytest.raises(ValueError, match="max_paths"):
            build_multipath_pool(cycle_graph(4), max_len=3, max_paths=1, max_pairs=10, seed=0)

    def test_sampled_mode_still_valid(self, monkeypatch):
        # force the sampled candidate generator with a tiny exhaustive limit
        monkeypatch.setattr(pathembed.paths, "EXHAUSTIVE_LIMIT", 1)
        rng = np.random.default_rng(14)
        g = random_graph(rng, n_max=10, p=0.5)
        pool = build_multipath_pool(g, max_len=3, max_paths=4, max_pairs=10, seed=2)
        for s in pool:
            assert len(s.paths) >= 2
            for p in s.paths:
                validate_path(g, p)
                assert p.endpoints == s.endpoints


class TestSinglePathPool:
    def test_path_graph_all_pairs_qualify(self):
        g = Graph(4, np.array([[0, 1], [1, 2], [2, 3]]))
        pool = build_singlepath_pool(g, max_len=3, max_pairs=100, seed=0)
        pairs = {pair for pair, _ in pool.entries}
        assert pairs == {(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)}
        lookup = dict(pool.entries)
        assert lookup[(0, 3)].nodes == (0, 1, 2, 3)

    def test_triangle_gives_empty(self):
        g = Graph(3, np.array([[0, 1], [1, 2], [0, 2]]))
        pool = build_singlepath_pool(g, max_len=2, max_pairs=100, seed=0)
        assert pool.entries == ()

    def test_length_cap_can_create_unique_paths_off_the_forest(self):
        # 6-cycle has no bridges, yet distance-2 pairs have exactly one
        # path of <= 3 edges (the long way round needs 4)
        g = cycle_graph(6)
        pool = build_singlepath_pool(g, max_len=3, max_pairs=100, seed=0)
        pairs = {pair for pair, _ in pool.entries}
        assert (0, 2) in pairs
        assert (0, 3) not in pairs  # two 3-edge paths exist
        lookup = dict(pool.entries)
        assert lookup[(0, 2)].nodes == (0, 1, 2)

    def test_qualification_matches_brute_force(self):
        rng = np.random.default_rng(15)
        for _ in range(25):
            g = random_graph(rng)
            max_len = int(rng.integers(2, 5))
            pool = build_singlepath_pool(g, max_len=max_len, max_pairs=10_000, seed=4)
            got = {pair for pair, _ in pool.entries}
            want = {
                (i, j)
                for i in range(g.num_nodes)
                for j in range(i + 1, g.num_nodes)
                if len(brute_force_paths(g, i, j, max_len)) == 1
            }
            assert got == want

    def test_sampled_mode_is_sound_subset_of_exhaustive(self, monkeypatch):
        rng = np.random.default_rng(16)
        for _ in range(20):
            g = random_graph(rng, n_max=10, p=0.3)
            full = build_singlepath_pool(g, max_len=4, max_pairs=10_000, seed=5)
            with monkeypatch.context() as patch:
                patch.setattr(pathembed.paths, "EXHAUSTIVE_LIMIT", 0)
                sampled = build_singlepath_pool(g, max_len=4, max_pairs=10_000, seed=5)
            full_by_pair = dict(full.entries)
            for pair, path in sampled.entries:
                # every sampled entry must be a genuine unique-path pair,
                # carrying the same (unique) path the exhaustive pool finds
                assert pair in full_by_pair
                assert path.nodes == full_by_pair[pair].nodes
                assert len(enumerate_simple_paths(g, pair[0], pair[1], 4)) == 1

    def test_pools_disjoint_over_pairs(self):
        rng = np.random.default_rng(17)
        for _ in range(20):
            g = random_graph(rng)
            max_len = int(rng.integers(2, 5))
            multi = build_multipath_pool(g, max_len, 10, 10_000, seed=6)
            single = build_singlepath_pool(g, max_len, 10_000, seed=6)
            mp = {s.endpoints for s in multi}
            sp = {pair for pair, _ in single.entries}
            assert not (mp & sp)

    def test_max_pairs_cap_subsamples(self):
        g = Graph(6, np.array([[0, 1], [1, 2], [2, 3], [3, 4], [4, 5]]))
        pool = build_singlepath_pool(g, max_len=5, max_pairs=4, seed=1)
        assert len(pool.entries) == 4


class TestDistanceShortcuts:
    """Verdicts read off BFS distances, against exhaustive enumeration."""

    def test_sole_shortest_path_verdicts_match_enumeration(self):
        rng = np.random.default_rng(18)
        verdicts = {"one path at the cap": 0, "two shortest paths": 0}
        for _ in range(60):
            g = random_graph(rng, n_max=9, p=0.45)
            max_len = int(rng.integers(1, 6))
            for u in range(g.num_nodes):
                dist, _ = bfs_distances(g, u, max_len)
                for v in range(g.num_nodes):
                    if v == u or dist[v] < 0:
                        continue
                    paths = [p.nodes for p in enumerate_simple_paths(g, u, v, max_len)]
                    sole = _sole_shortest_path(g, dist, v)
                    shortest = [p for p in paths if len(p) - 1 == dist[v]]
                    if sole is None:
                        # the multi-path builder keeps it, the single-path builder skips it
                        assert len(shortest) >= 2 and len(paths) >= 2
                        verdicts["two shortest paths"] += 1
                    else:
                        assert shortest == [sole]
                        if dist[v] == max_len:
                            # the multi-path builder skips it
                            assert paths == [sole]
                            verdicts["one path at the cap"] += 1
        assert min(verdicts.values()) > 50

    @pytest.mark.parametrize("limit", [pathembed.paths.EXHAUSTIVE_LIMIT, 0],
                             ids=["exhaustive", "sampled"])
    def test_pools_equal_those_built_by_searching_every_candidate(self, monkeypatch, limit):
        """Both builders, with the shortcuts and with every candidate searched."""
        monkeypatch.setattr(pathembed.paths, "EXHAUSTIVE_LIMIT", limit)
        searches = {"dfs": 0, "proofs": 0}

        def counted(name, fn):
            def wrapper(*args, **kwargs):
                searches[name] += 1
                return fn(*args, **kwargs)
            return wrapper

        monkeypatch.setattr(pathembed.paths, "enumerate_simple_paths",
                            counted("dfs", enumerate_simple_paths))
        monkeypatch.setattr(pathembed.paths, "_unique_path_within",
                            counted("proofs", pathembed.paths._unique_path_within))
        rng = np.random.default_rng(19)
        fast, slow = {"dfs": 0, "proofs": 0}, {"dfs": 0, "proofs": 0}
        for _ in range(25):
            g = random_graph(rng, n_max=12, p=0.35)
            max_len = int(rng.integers(2, 6))
            seed = int(rng.integers(1000))
            searches.update(dfs=0, proofs=0)
            multi = build_multipath_pool(g, max_len, 4, 30, seed=seed, path_budget=40)
            single = build_singlepath_pool(g, max_len, 30, seed=seed)
            for key in fast:
                fast[key] += searches[key]
            searches.update(dfs=0, proofs=0)
            with monkeypatch.context() as patch:
                # a verdict of "two shortest paths" skips no multi-path candidate
                patch.setattr(pathembed.paths, "_sole_shortest_path", lambda *a: None)
                assert build_multipath_pool(g, max_len, 4, 30, seed=seed,
                                            path_budget=40) == multi
                # a verdict of "one shortest path" below the cap skips no single-path one
                patch.setattr(pathembed.paths, "_sole_shortest_path", lambda g, d, v: (v,))
                assert build_singlepath_pool(g, max_len, 30, seed=seed) == single
            for key in slow:
                slow[key] += searches[key]
        assert fast["dfs"] < slow["dfs"] and fast["proofs"] < slow["proofs"]


class TestPoolIdentity:
    """The exact pools both builders return on a fixed stand-in.

    Soundness tests pass for many different pools; this one pins which
    pool is built, so a rework of candidate walks, draws or provers must
    keep every pair, every path and the rng stream. The digests were
    recorded with numpy 2.4's `Generator` streams (PCG64 under
    `integers`, `choice` and `permutation`); a numpy that changes those
    streams changes the sampled pools and these digests with them.
    """

    DIGESTS = {
        "exhaustive": "c7572efa6ce4d05c753afc78803fc20830c1cb9f7783c96dcd88deb4e9d5c0cf",
        "sampled": "80e1c364655cf2d57ba9c2b8807f1beb1d2028f1e68c57266ad1ee75a73bc899",
    }

    @staticmethod
    def digest():
        g, _ = synthetic_citation_graph(seed=3, num_nodes=150, num_edges=330, num_classes=4)
        multi = build_multipath_pool(g, max_len=4, max_paths=3, max_pairs=600, seed=7,
                                     path_budget=60)
        single = build_singlepath_pool(g, max_len=5, max_pairs=400, seed=7)
        capped = build_singlepath_pool(g, max_len=3, max_pairs=50, seed=7)
        canon = {
            "multi": [[list(s.endpoints), [list(p.nodes) for p in s.paths]] for s in multi],
            "single": [[list(pair), list(p.nodes)] for pair, p in single.entries],
            "capped": [[list(pair), list(p.nodes)] for pair, p in capped.entries],
        }
        return hashlib.sha256(json.dumps(canon, separators=(",", ":")).encode()).hexdigest()

    def test_pools_match_recorded_digests(self, monkeypatch):
        assert self.digest() == self.DIGESTS["exhaustive"]
        monkeypatch.setattr(pathembed.paths, "EXHAUSTIVE_LIMIT", 0)
        assert self.digest() == self.DIGESTS["sampled"]


class TestBallStore:
    """Sampled draws reuse a source's BFS distances within one builder call."""

    def test_stored_balls_change_no_pool_and_save_searches(self, monkeypatch):
        g, _ = synthetic_citation_graph(seed=3, num_nodes=150, num_edges=330, num_classes=4)
        monkeypatch.setattr(pathembed.paths, "EXHAUSTIVE_LIMIT", 0)
        searches = []
        search = pathembed.paths.bfs_distances
        monkeypatch.setattr(pathembed.paths, "bfs_distances",
                            lambda graph, u, hops: searches.append(u) or search(graph, u, hops))

        def build():
            searches.clear()
            pools = (build_multipath_pool(g, max_len=4, max_paths=3, max_pairs=600, seed=7,
                                          path_budget=60),
                     build_singlepath_pool(g, max_len=5, max_pairs=400, seed=7))
            return pools, len(searches)

        stored, stored_searches = build()
        monkeypatch.setattr(pathembed.paths, "BALL_STORE_SIZE", 0)  # every draw searches
        fresh, fresh_searches = build()
        monkeypatch.setattr(pathembed.paths, "BALL_STORE_SIZE", 5 * g.num_nodes)
        evicting, evicting_searches = build()
        assert stored == fresh == evicting
        assert stored_searches < evicting_searches < fresh_searches
        # each builder searches each source it draws once
        assert stored_searches <= 2 * g.num_nodes


class TestValidatePath:
    def test_rejects_bad_paths(self):
        g = Graph(4, np.array([[0, 1], [1, 2]]))
        validate_path(g, Path((0, 1, 2)))
        with pytest.raises(ValueError):
            validate_path(g, Path((0, 2)))
        with pytest.raises(ValueError):
            validate_path(g, Path((0, 1, 0)))
        with pytest.raises(ValueError):
            validate_path(g, Path((1,)))
