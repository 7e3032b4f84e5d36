"""Archive parsing, normalization, checksums, and the synthetic generator."""

import hashlib
import json
from pathlib import Path

import numpy as np
import pytest

from pathembed.datasets import (
    DATASET_STATS,
    DatasetError,
    check_stats,
    load_citation_archive,
    load_prepared,
    prepare_dataset,
    synthetic_citation_graph,
    verify_checksums,
)
from pathembed.graph import GraphError, load_dataset

TOY_DIR = Path(__file__).resolve().parent.parent / "data" / "toy"


def write_mini_archive(raw_dir, cites_extra=""):
    (raw_dir / "mini.content").write_text(
        "p3\t0\t1\t0\ttheory\n"
        "p1\t1\t0\t0\tsystems\n"
        "p2\t0\t0\t1\ttheory\n"
        "p10\t1\t1\t0\tsystems\n"
    )
    (raw_dir / "mini.cites").write_text(
        "p1 p2\np2 p3\np3 p1\np10 p2\np99 p1\np1 p1\n" + cites_extra
    )


def test_citation_archive_parses_ids_labels_edges(tmp_path):
    write_mini_archive(tmp_path)
    graph, labels, class_names, report = load_citation_archive(tmp_path)
    # lexicographic id order: p1, p10, p2, p3
    assert report["id_map"] == {"p1": 0, "p10": 1, "p2": 2, "p3": 3}
    assert class_names == ["systems", "theory"]
    assert labels.tolist() == [0, 0, 1, 1]
    assert graph.num_nodes == 4
    # p99 row skipped, self-loop dropped by canonicalization
    assert report["raw_citation_rows"] == 6
    assert report["unknown_endpoint_rows"] == 1
    expected = {(0, 2), (2, 3), (0, 3), (1, 2)}
    assert {tuple(e) for e in graph.edges} == expected


def test_citation_archive_numeric_ids_sort_numerically(tmp_path):
    (tmp_path / "x.content").write_text("10\t0\ta\n2\t0\tb\n")
    (tmp_path / "x.cites").write_text("10 2\n")
    _, _, _, report = load_citation_archive(tmp_path)
    assert report["id_map"] == {"2": 0, "10": 1}


@pytest.mark.parametrize("tokens, order", [
    (["10", "+1", "2"], ["+1", "10", "2"]),  # '+1' is not an optional '-' and digits
    (["10", "--1", "2"], ["--1", "10", "2"]),
    (["10", "-3", "2"], ["-3", "2", "10"]),
    (["1", "7", "01"], ["01", "1", "7"]),  # equal numbers by their text
], ids=["plus-sign", "double-minus", "negative", "leading-zero"])
def test_both_raw_layouts_number_node_tokens_alike(tmp_path, tokens, order):
    cites = "".join(f"{a} {b}\n" for a, b in zip(tokens, tokens[1:]))
    (tmp_path / "x.content").write_text("".join(f"{t}\t0\ta\n" for t in tokens))
    (tmp_path / "x.cites").write_text(cites)
    (tmp_path / "edges.txt").write_text(cites)
    _, _, _, archive = load_citation_archive(tmp_path)
    _, edge_list = load_dataset(tmp_path / "edges.txt")
    assert archive["id_map"] == edge_list["id_map"] == {t: i for i, t in enumerate(order)}


def test_citation_archive_rejects_short_and_duplicate_rows(tmp_path):
    (tmp_path / "bad.content").write_text("lonely\n")
    (tmp_path / "bad.cites").write_text("")
    with pytest.raises(DatasetError, match="bad.content:1"):
        load_citation_archive(tmp_path)
    (tmp_path / "bad.content").write_text("a\t0\tx\na\t1\ty\n")
    with pytest.raises(DatasetError, match="duplicate"):
        load_citation_archive(tmp_path)


def test_citation_archive_rejects_malformed_cites(tmp_path):
    (tmp_path / "bad.content").write_text("a\t0\tx\nb\t0\ty\n")
    (tmp_path / "bad.cites").write_text("a b c\n")
    with pytest.raises(DatasetError, match="bad.cites:1"):
        load_citation_archive(tmp_path)


def test_prepare_citation_layout_and_idempotence(tmp_path):
    raw = tmp_path / "raw"
    raw.mkdir()
    write_mini_archive(raw)
    out = tmp_path / "prepared"
    meta = prepare_dataset(raw, out, name="mini")
    assert meta["num_nodes"] == 4
    assert meta["num_edges"] == 4
    assert meta["num_labels"] == 2
    assert meta["layout"] == "citation"
    first = {p.name: p.read_bytes() for p in out.iterdir()}
    meta2 = prepare_dataset(raw, out, name="mini")
    assert meta2 == meta
    second = {p.name: p.read_bytes() for p in out.iterdir()}
    assert first == second


def test_prepare_plain_layout_round_trips_toy_fixture(tmp_path):
    out = tmp_path / "prepared"
    meta = prepare_dataset(TOY_DIR, out, name="toy")
    assert meta["layout"] == "plain"
    assert meta["num_nodes"] == 30
    assert meta["num_edges"] == 52
    assert meta["num_labels"] == 2
    dataset = load_prepared(out)
    original, _ = load_dataset(f"{TOY_DIR}/edges.txt", f"{TOY_DIR}/labels.tsv")
    assert np.array_equal(dataset.graph.edges, original.graph.edges)
    assert np.array_equal(dataset.labels, original.labels)
    assert dataset.class_names == original.class_names


def test_load_prepared_needs_num_nodes_in_meta(tmp_path):
    out = tmp_path / "prepared"
    prepare_dataset(TOY_DIR, out, name="toy")
    meta = json.loads((out / "meta.json").read_text())
    del meta["num_nodes"]
    (out / "meta.json").write_text(json.dumps(meta))
    with pytest.raises(GraphError, match="meta.json: missing key 'num_nodes'"):
        load_prepared(out)


@pytest.mark.parametrize("edit,message", [
    (lambda text: text[: len(text) // 2], "meta.json: not valid JSON"),
    (lambda text: text.replace('"num_nodes": 30', '"num_nodes": "30"'),
     "meta.json: key 'num_nodes' must be a positive integer, got '30'"),
    (lambda text: text.replace('"num_nodes": 30', '"num_nodes": true'),
     "meta.json: key 'num_nodes' must be a positive integer, got True"),
], ids=["truncated", "num-nodes-string", "num-nodes-bool"])
def test_load_prepared_rejects_malformed_meta(tmp_path, edit, message):
    out = tmp_path / "prepared"
    prepare_dataset(TOY_DIR, out, name="toy")
    text = (out / "meta.json").read_text()
    assert '"num_nodes": 30' in text
    (out / "meta.json").write_text(edit(text))
    with pytest.raises(GraphError, match=message):
        load_prepared(out)


def test_prepare_rejects_unknown_layout(tmp_path):
    raw = tmp_path / "raw"
    raw.mkdir()
    (raw / "README").write_text("nothing here")
    with pytest.raises(DatasetError, match="edges.txt"):
        prepare_dataset(raw, tmp_path / "out")


def test_prepare_rejects_missing_directory(tmp_path):
    with pytest.raises(DatasetError, match="does not exist"):
        prepare_dataset(tmp_path / "nope", tmp_path / "out")


def test_check_stats_matching_and_mismatching():
    assert check_stats("cora", 2708, 5429, 7) == []
    # canonical count differs but raw rows match the published number
    assert check_stats("cora", 2708, 5278, 7, raw_rows=5429) == []
    warnings = check_stats("cora", 2700, 5000, 6)
    assert len(warnings) == 3
    assert check_stats("not-a-known-set", 1, 1, 1) == []


def test_dataset_stats_registry_contents():
    assert DATASET_STATS["cora"] == {"nodes": 2708, "edges": 5429, "labels": 7}
    assert DATASET_STATS["blogcatalog"]["edges"] == 171743
    assert set(DATASET_STATS) == {"cora", "dblp", "blogcatalog", "flickr", "pubmed"}


def test_checksum_verification(tmp_path):
    raw = tmp_path / "raw"
    raw.mkdir()
    write_mini_archive(raw)
    assert verify_checksums(raw) is False  # no manifest
    digest = hashlib.sha256((raw / "mini.cites").read_bytes()).hexdigest()
    (raw / "checksums.json").write_text(json.dumps({"mini.cites": digest}))
    assert verify_checksums(raw) is True
    meta = prepare_dataset(raw, tmp_path / "out", name="mini")
    assert meta["checksums_verified"] is True
    (raw / "checksums.json").write_text(json.dumps({"mini.cites": "0" * 64}))
    with pytest.raises(DatasetError, match="mismatch"):
        verify_checksums(raw)
    (raw / "checksums.json").write_text(json.dumps({"ghost.file": digest}))
    with pytest.raises(DatasetError, match="missing file"):
        verify_checksums(raw)


def test_synthetic_graph_shape_and_determinism():
    g, labels = synthetic_citation_graph(seed=0)
    assert g.num_nodes == 2708
    assert g.num_edges == 5429
    assert labels.shape == (2708,)
    assert len(np.bincount(labels)) == 7
    assert g.connected_components()[0] == 1
    g2, labels2 = synthetic_citation_graph(seed=0)
    assert np.array_equal(g.edges, g2.edges)
    assert np.array_equal(labels, labels2)
    g3, _ = synthetic_citation_graph(seed=1)
    assert not np.array_equal(g.edges, g3.edges)


def test_synthetic_graph_is_homophilous_with_heavy_tail():
    g, labels = synthetic_citation_graph(seed=0)
    h = (labels[g.edges[:, 0]] == labels[g.edges[:, 1]]).mean()
    assert 0.72 <= h <= 0.9
    degrees = np.array([len(nbrs) for nbrs in g.adjacency])
    assert degrees.max() >= 10 * degrees.mean()
    assert degrees.min() >= 1


def test_synthetic_graph_small_sizes_and_validation():
    g, labels = synthetic_citation_graph(seed=3, num_nodes=40, num_edges=90,
                                         num_classes=3)
    assert g.num_nodes == 40 and g.num_edges == 90
    assert set(np.unique(labels)) == {0, 1, 2}
    with pytest.raises(ValueError):
        synthetic_citation_graph(num_nodes=3, num_edges=10)
    with pytest.raises(ValueError):
        synthetic_citation_graph(num_nodes=10, num_edges=5)


def test_bundled_toy_fixture_contents():
    dataset, report = load_dataset(f"{TOY_DIR}/edges.txt", f"{TOY_DIR}/labels.tsv")
    assert dataset.graph.num_nodes == 30
    assert dataset.graph.num_edges == 52
    assert dataset.class_names == ["left", "right"]
    assert dataset.graph.connected_components()[0] == 1
    assert (dataset.labels >= 0).all()
