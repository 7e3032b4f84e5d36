"""Graph container, loaders, splits, and bridge finding vs brute force."""

import numpy as np
import pytest

from pathembed.graph import (
    EdgeSplit,
    Graph,
    GraphError,
    LabeledDataset,
    load_dataset,
    load_labels,
    load_split,
    save_split,
    split_edges,
)


def random_graph(rng, n_max=10, p=0.35):
    n = int(rng.integers(2, n_max + 1))
    edges = [(i, j) for i in range(n) for j in range(i + 1, n) if rng.random() < p]
    return Graph(n, np.array(edges, dtype=np.int64).reshape(-1, 2))


def brute_force_bridges(g: Graph):
    """Oracle: an edge is a bridge iff removing it adds a component."""
    base, _ = g.connected_components()
    out = []
    for a, b in g.edges:
        keep = ~((g.edges[:, 0] == a) & (g.edges[:, 1] == b))
        reduced = Graph(g.num_nodes, g.edges[keep])
        count, _ = reduced.connected_components()
        if count > base:
            out.append((int(a), int(b)))
    return sorted(out)


class TestGraphBasics:
    def test_canonicalizes_dedups_and_drops_self_loops(self):
        g = Graph(4, np.array([[1, 0], [0, 1], [2, 2], [3, 1]]))
        np.testing.assert_array_equal(g.edges, [[0, 1], [1, 3]])
        assert g.num_edges == 2
        assert g.has_edge(0, 1) and g.has_edge(1, 0)
        assert not g.has_edge(2, 2)

    def test_rejects_out_of_range_endpoints(self):
        with pytest.raises(GraphError):
            Graph(2, np.array([[0, 5]]))

    def test_neighbors_sorted(self):
        g = Graph(5, np.array([[0, 4], [0, 2], [0, 1]]))
        assert g.adjacency[0] == [1, 2, 4] and g.adjacency[3] == []

    def test_adjacency_symmetric_exhaustive(self):
        """Symmetry holds pairwise on graphs up to N=200."""
        rng = np.random.default_rng(42)
        for _ in range(5):
            g = random_graph(rng, n_max=200, p=0.02)
            dense = np.zeros((g.num_nodes, g.num_nodes), dtype=bool)
            for u in range(g.num_nodes):
                dense[u, g.adjacency[u]] = True
            np.testing.assert_array_equal(dense, dense.T)
            assert not dense.diagonal().any()
            assert dense.sum() == 2 * g.num_edges

    def test_connected_components(self):
        g = Graph(6, np.array([[0, 1], [1, 2], [4, 5]]))
        count, labels = g.connected_components()
        assert count == 3
        assert labels[0] == labels[1] == labels[2]
        assert labels[4] == labels[5] != labels[3]


class TestLoaders:
    def test_two_edge_path(self, tmp_path):
        p = tmp_path / "edges.txt"
        p.write_text("0 1\n1 2\n")
        ds, report = load_dataset(p)
        assert (ds.graph.num_nodes, ds.graph.num_edges) == (3, 2)
        assert report["duplicates_dropped"] == 0

    def test_dedup_and_self_loop_report(self, tmp_path):
        p = tmp_path / "edges.txt"
        p.write_text("0 1\n1 0\n2 2\n")
        ds, report = load_dataset(p)
        assert (ds.graph.num_nodes, ds.graph.num_edges) == (3, 1)
        assert report["self_loops_dropped"] == 1
        assert report["duplicates_dropped"] == 1

    def test_comments_and_string_ids(self, tmp_path):
        p = tmp_path / "edges.txt"
        p.write_text("# header\npaperA paperB\npaperB paperC\n")
        ds, report = load_dataset(p)
        assert ds.graph.num_nodes == 3
        assert report["id_map"]["paperA"] == 0

    def test_numeric_ids_sorted_numerically(self, tmp_path):
        p = tmp_path / "edges.txt"
        p.write_text("10 2\n2 1\n")
        _, report = load_dataset(p)
        assert report["id_map"] == {"1": 0, "2": 1, "10": 2}

    def test_malformed_line_names_line_number(self, tmp_path):
        p = tmp_path / "edges.txt"
        p.write_text("0 1\n0 1 2\n")
        with pytest.raises(GraphError, match="line 2"):
            load_dataset(p)

    def test_empty_file_errors(self, tmp_path):
        p = tmp_path / "edges.txt"
        p.write_text("# nothing\n")
        with pytest.raises(GraphError):
            load_dataset(p)

    def test_labels_and_dataset(self, tmp_path):
        (tmp_path / "edges.txt").write_text("a b\nb c\n")
        (tmp_path / "labels.tsv").write_text("a\tx\nb\ty\nc\tx\n")
        ds, _ = load_dataset(tmp_path / "edges.txt", tmp_path / "labels.tsv")
        assert ds.num_classes == 2
        assert ds.class_names == ["x", "y"]
        np.testing.assert_array_equal(ds.labels, [0, 1, 0])

    def test_partial_labels_marked_unlabeled(self, tmp_path):
        (tmp_path / "edges.txt").write_text("a b\nb c\n")
        (tmp_path / "labels.tsv").write_text("a\tx\n")
        ds, _ = load_dataset(tmp_path / "edges.txt", tmp_path / "labels.tsv")
        np.testing.assert_array_equal(ds.labels, [0, -1, -1])

    def test_unknown_label_node_errors(self, tmp_path):
        (tmp_path / "edges.txt").write_text("a b\n")
        (tmp_path / "labels.tsv").write_text("zz\tx\n")
        ds, report = load_dataset(tmp_path / "edges.txt")
        with pytest.raises(GraphError, match="unknown node"):
            load_labels(tmp_path / "labels.tsv", report["id_map"], ds.graph.num_nodes)


class TestSplits:
    def test_zero_fractions_keep_everything(self):
        g = Graph(3, np.array([[0, 1], [1, 2], [0, 2]]))
        s = split_edges(g, 0.0, 0.0, seed=7)
        assert s.train_graph.num_edges == 3
        assert s.test_pos.shape == (0, 2) and s.val_pos.shape == (0, 2)

    def test_counts_are_floor_of_fraction(self):
        rng = np.random.default_rng(0)
        g = random_graph(rng, n_max=40, p=0.3)
        s = split_edges(g, 0.05, 0.10, seed=3)
        assert s.test_pos.shape[0] == int(np.floor(0.10 * g.num_edges))
        assert s.val_pos.shape[0] == int(np.floor(0.05 * g.num_edges))
        assert s.val_neg.shape[0] == s.val_pos.shape[0]
        assert s.test_neg.shape[0] == s.test_pos.shape[0]

    def test_determinism(self):
        rng = np.random.default_rng(1)
        g = random_graph(rng, n_max=30, p=0.3)
        a = split_edges(g, 0.1, 0.2, seed=11)
        b = split_edges(g, 0.1, 0.2, seed=11)
        np.testing.assert_array_equal(a.test_pos, b.test_pos)
        np.testing.assert_array_equal(a.val_neg, b.val_neg)
        np.testing.assert_array_equal(a.train_graph.edges, b.train_graph.edges)

    def test_invariants_over_100_seeds(self):
        """Partition, disjointness, and negative validity, 100 random seeds."""
        rng = np.random.default_rng(2)
        for seed in range(100):
            g = random_graph(rng, n_max=50, p=0.2)
            if g.num_edges < 10:
                continue
            s = split_edges(g, 0.1, 0.2, seed=seed)
            all_keys = {(int(a), int(b)) for a, b in g.edges}
            train = {(int(a), int(b)) for a, b in s.train_graph.edges}
            test = {(int(a), int(b)) for a, b in s.test_pos}
            val = {(int(a), int(b)) for a, b in s.val_pos}
            assert train | test | val == all_keys
            assert not (train & test) and not (train & val) and not (test & val)
            for u, v in np.concatenate([s.val_neg, s.test_neg]):
                assert not g.has_edge(int(u), int(v))
            neg_keys = [tuple(r) for r in np.concatenate([s.val_neg, s.test_neg])]
            assert len(neg_keys) == len(set(neg_keys))

    def test_fraction_validation(self):
        g = Graph(3, np.array([[0, 1]]))
        with pytest.raises(GraphError):
            split_edges(g, 0.6, 0.5, seed=0)

    def test_negative_exhaustion_errors(self):
        # complete graph has no non-edges to sample
        g = Graph(3, np.array([[0, 1], [1, 2], [0, 2]]))
        with pytest.raises(GraphError):
            split_edges(g, 0.0, 0.34, seed=0)

    def test_split_round_trip(self, tmp_path):
        rng = np.random.default_rng(3)
        g = random_graph(rng, n_max=30, p=0.3)
        s = split_edges(g, 0.1, 0.2, seed=5)
        save_split(s, tmp_path / "split")
        loaded = load_split(tmp_path / "split")
        np.testing.assert_array_equal(loaded.train_graph.edges, s.train_graph.edges)
        np.testing.assert_array_equal(loaded.test_neg, s.test_neg)
        assert loaded.train_graph.num_nodes == g.num_nodes
        assert loaded.seed == 5


class TestBridges:
    def test_path_graph_all_bridges(self):
        g = Graph(3, np.array([[0, 1], [1, 2]]))
        np.testing.assert_array_equal(g.find_bridges(), [[0, 1], [1, 2]])

    def test_triangle_has_none(self):
        g = Graph(3, np.array([[0, 1], [1, 2], [0, 2]]))
        assert g.find_bridges().shape == (0, 2)

    def test_cycle_with_tail(self):
        # 0-1-2-0 cycle plus tail 2-3: only the tail is a bridge
        g = Graph(4, np.array([[0, 1], [1, 2], [0, 2], [2, 3]]))
        np.testing.assert_array_equal(g.find_bridges(), [[2, 3]])

    def test_matches_brute_force_oracle(self):
        """50 random graphs with N <= 10 against the removal oracle."""
        rng = np.random.default_rng(4)
        for _ in range(50):
            g = random_graph(rng, n_max=10, p=0.35)
            got = [tuple(int(x) for x in row) for row in g.find_bridges()]
            assert got == brute_force_bridges(g)

    def test_deep_chain_no_recursion_error(self):
        n = 30_000
        edges = np.stack([np.arange(n - 1), np.arange(1, n)], axis=1)
        g = Graph(n, edges)
        assert g.find_bridges().shape[0] == n - 1
