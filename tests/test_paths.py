"""Path enumeration and pool construction against brute-force oracles."""

import numpy as np
import pytest

from pathembed.graph import Graph
from pathembed.paths import (
    MultiPathSet,
    Path,
    SinglePathSet,
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

    def test_early_exit_prefix_is_deterministic(self):
        g = Graph(5, np.array([(i, j) for i in range(5) for j in range(i + 1, 5)]))
        a = enumerate_simple_paths(g, 0, 1, max_len=4, max_paths=3)
        b = enumerate_simple_paths(g, 0, 1, max_len=4, max_paths=3)
        assert a == b and len(a) == 3

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

    def test_count_early_exit(self):
        g = Graph(3, np.array([[0, 1], [1, 2], [0, 2]]))
        assert len(enumerate_simple_paths(g, 0, 1, max_len=2, max_paths=2)) == 2
        assert len(enumerate_simple_paths(g, 0, 1, max_len=1, max_paths=2)) == 1
        assert len(enumerate_simple_paths(g, 0, 1, max_len=2, max_paths=1)) == 1


class TestBfsDistances:
    def test_distances_and_cutoff(self):
        g = Graph(5, np.array([[0, 1], [1, 2], [2, 3]]))
        np.testing.assert_array_equal(bfs_distances(g, 0), [0, 1, 2, 3, -1])
        np.testing.assert_array_equal(bfs_distances(g, 0, max_hops=2), [0, 1, 2, -1, -1])


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

    def test_sampled_mode_still_valid(self):
        # force the sampled candidate generator with a tiny exhaustive limit
        rng = np.random.default_rng(14)
        g = random_graph(rng, n_max=10, p=0.5)
        pool = build_multipath_pool(
            g, max_len=3, max_paths=4, max_pairs=10, seed=2, exhaustive_limit=1
        )
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

    def test_sampled_mode_is_sound_subset_of_exhaustive(self):
        rng = np.random.default_rng(16)
        for _ in range(20):
            g = random_graph(rng, n_max=10, p=0.3)
            full = build_singlepath_pool(g, max_len=4, max_pairs=10_000, seed=5)
            sampled = build_singlepath_pool(
                g, max_len=4, max_pairs=10_000, seed=5, exhaustive_limit=0
            )
            full_by_pair = dict(full.entries)
            for pair, path in sampled.entries:
                # every sampled entry must be a genuine unique-path pair,
                # carrying the same (unique) path the exhaustive pool finds
                assert pair in full_by_pair
                assert path.nodes == full_by_pair[pair].nodes
                assert len(enumerate_simple_paths(g, pair[0], pair[1], 4, max_paths=2)) == 1

    def test_min_hops_filters_adjacent_entries(self):
        g = Graph(4, np.array([[0, 1], [1, 2], [2, 3]]))
        pool = build_singlepath_pool(g, max_len=3, max_pairs=100, seed=0, min_hops=2)
        assert all(p.num_edges >= 2 for _, p in pool.entries)

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
