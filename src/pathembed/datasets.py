"""Dataset preparation: citation archives, plain edge lists, synthetics.

`prepare_dataset` normalizes a raw directory into `edges.txt`,
`labels.tsv`, and `meta.json` with integer node ids. Two raw layouts are
recognized: a citation archive (`<name>.content` with one node per line
ending in a class label, plus `<name>.cites` with one directed citation
per line) and a plain layout (`edges.txt`, optional `labels.tsv`).
Known dataset statistics are checked and mismatches reported as
warnings, since published edge counts often predate deduplication. When
a `checksums.json` file is present in the raw directory, the listed
files are verified before parsing.

`synthetic_citation_graph` builds a deterministic stand-in with the
shape of a citation network: heavy-tailed degrees from preferential
attachment, label-homophilous wiring, and triangle closure.
"""

from __future__ import annotations

import hashlib
import json
import logging
from pathlib import Path as FilePath

import numpy as np

from pathembed.graph import (Graph, LabeledDataset, load_dataset, load_labels,
                             number_tokens, read_meta, read_pairs, save_labels,
                             write_pairs)

logger = logging.getLogger(__name__)

# published node/edge/label counts for the supported archives
DATASET_STATS = {
    "cora": {"nodes": 2708, "edges": 5429, "labels": 7},
    "dblp": {"nodes": 17716, "edges": 105734, "labels": 4},
    "blogcatalog": {"nodes": 5196, "edges": 171743, "labels": 6},
    "flickr": {"nodes": 7575, "edges": 239738, "labels": 9},
    "pubmed": {"nodes": 19717, "edges": 44338, "labels": 3},
}


class DatasetError(ValueError):
    """Unrecognized layout, malformed content, or checksum mismatch."""


def _sha256(path: FilePath) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            digest.update(block)
    return digest.hexdigest()


def verify_checksums(raw_dir: FilePath) -> bool:
    """Check files against checksums.json if present; True when verified."""
    manifest = raw_dir / "checksums.json"
    if not manifest.exists():
        return False
    try:
        expected = json.loads(manifest.read_text(encoding="utf-8"))
    except ValueError as exc:  # not UTF-8, or not JSON
        raise DatasetError(f"{manifest} is not JSON: {exc}") from None
    if not (isinstance(expected, dict) and all(isinstance(w, str) for w in expected.values())):
        raise DatasetError(f"{manifest} must map file names to sha256 strings")
    for name, want in sorted(expected.items()):
        target = raw_dir / name
        if not target.exists():
            raise DatasetError(f"checksums.json lists missing file {name!r}")
        got = _sha256(target)
        if got != want:
            raise DatasetError(
                f"checksum mismatch for {name!r}: expected {want}, got {got}"
            )
    return True


def load_citation_archive(raw_dir: str | FilePath):
    """Parse `<name>.content` + `<name>.cites` into a labeled graph.

    Returns (graph, labels, class_names, report). Node ids are assigned
    by `graph.number_tokens`, as for an edge list, and citations become
    undirected edges.
    """
    raw_dir = FilePath(raw_dir)
    content_files = sorted(raw_dir.glob("*.content"))
    cites_files = sorted(raw_dir.glob("*.cites"))
    if not content_files or not cites_files:
        raise DatasetError(
            f"no citation archive in {raw_dir}: expected <name>.content and <name>.cites"
        )
    content_path, cites_path = content_files[0], cites_files[0]

    raw_labels: dict[str, str] = {}
    with open(content_path, "r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            parts = line.split()
            if not parts:
                continue
            if len(parts) < 2:
                raise DatasetError(
                    f"{content_path.name}:{lineno}: need at least id and label"
                )
            node_id, label = parts[0], parts[-1]
            if node_id in raw_labels:
                raise DatasetError(
                    f"{content_path.name}:{lineno}: duplicate node id {node_id!r}"
                )
            raw_labels[node_id] = label

    id_map = number_tokens(raw_labels)
    class_names = sorted(set(raw_labels.values()))
    class_map = {name: idx for idx, name in enumerate(class_names)}
    labels = np.array([class_map[raw_labels[raw]] for raw in id_map], dtype=np.int64)

    rows = []
    raw_rows = 0
    unknown_endpoints = 0
    with open(cites_path, "r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            parts = line.split()
            if not parts:
                continue
            if len(parts) != 2:
                raise DatasetError(
                    f"{cites_path.name}:{lineno}: expected two node ids"
                )
            raw_rows += 1
            a, b = parts
            if a not in id_map or b not in id_map:
                unknown_endpoints += 1
                continue
            rows.append((id_map[a], id_map[b]))
    graph = Graph(len(id_map), np.array(rows, dtype=np.int64).reshape(-1, 2))
    report = {
        "content_file": content_path.name,
        "cites_file": cites_path.name,
        "raw_citation_rows": raw_rows,
        "unknown_endpoint_rows": unknown_endpoints,
        "id_map": id_map,
    }
    return graph, labels, class_names, report


def check_stats(name: str, num_nodes: int, num_edges: int, num_labels: int,
                raw_rows: int | None = None) -> list[str]:
    """Compare against the published statistics; mismatches are warnings."""
    key = name.lower()
    if key not in DATASET_STATS:
        return []
    want = DATASET_STATS[key]
    warnings = []
    if num_nodes != want["nodes"]:
        warnings.append(
            f"{name}: expected {want['nodes']} nodes, found {num_nodes}"
        )
    if num_edges != want["edges"] and raw_rows != want["edges"]:
        warnings.append(
            f"{name}: expected {want['edges']} edges, found {num_edges} after"
            " canonicalization"
            + (f" ({raw_rows} raw rows)" if raw_rows is not None else "")
        )
    if num_labels != want["labels"]:
        warnings.append(
            f"{name}: expected {want['labels']} label classes, found {num_labels}"
        )
    for message in warnings:
        logger.warning("%s", message)
    return warnings


def _detect_layout(raw_dir: FilePath) -> str:
    if list(raw_dir.glob("*.content")) and list(raw_dir.glob("*.cites")):
        return "citation"
    if (raw_dir / "edges.txt").exists():
        return "plain"
    raise DatasetError(
        f"unrecognized layout in {raw_dir}: expected either <name>.content +"
        " <name>.cites, or edges.txt (+ optional labels.tsv)"
    )


def prepare_dataset(raw_dir: str | FilePath, out_dir: str | FilePath,
                    name: str | None = None) -> dict:
    """Normalize a raw dataset directory; returns the stats report."""
    raw_dir = FilePath(raw_dir)
    out_dir = FilePath(out_dir)
    if not raw_dir.is_dir():
        raise DatasetError(f"raw dataset directory {raw_dir} does not exist")
    if name is None:
        name = raw_dir.name
    checks_ok = verify_checksums(raw_dir)
    layout = _detect_layout(raw_dir)

    raw_rows = None
    if layout == "citation":
        graph, labels, class_names, report = load_citation_archive(raw_dir)
        dataset = LabeledDataset(graph, labels, class_names)
        raw_rows = report["raw_citation_rows"]
    else:
        labels_path = raw_dir / "labels.tsv"
        dataset, _ = load_dataset(
            raw_dir / "edges.txt",
            labels_path if labels_path.exists() else None,
        )
    graph = dataset.graph

    num_labels = len(dataset.class_names)
    warnings = check_stats(name, graph.num_nodes, graph.num_edges, num_labels,
                           raw_rows=raw_rows)

    out_dir.mkdir(parents=True, exist_ok=True)
    write_pairs(out_dir / "edges.txt", graph.edges)
    if dataset.class_names:
        save_labels(out_dir / "labels.tsv", dataset)
    meta = {
        "name": name,
        "layout": layout,
        "num_nodes": graph.num_nodes,
        "num_edges": graph.num_edges,
        "num_labels": num_labels,
        "raw_citation_rows": raw_rows,
        "checksums_verified": checks_ok,
        "warnings": warnings,
    }
    with open(out_dir / "meta.json", "w", encoding="utf-8") as fh:
        json.dump(meta, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return meta


def load_prepared(prepared_dir: str | FilePath) -> LabeledDataset:
    """Load a directory produced by prepare_dataset, keeping every node.

    The node count comes from `meta.json`, so a node without edges (an
    uncited paper) keeps its id and its label.
    """
    prepared_dir = FilePath(prepared_dir)
    n = read_meta(prepared_dir / "meta.json", ("num_nodes",))["num_nodes"]
    graph = Graph(n, read_pairs(prepared_dir / "edges.txt", n))
    labels_path = prepared_dir / "labels.tsv"
    if not labels_path.exists():
        return LabeledDataset(graph)
    labels, class_names = load_labels(labels_path, {str(i): i for i in range(n)}, n)
    return LabeledDataset(graph, labels, class_names)


# -- synthetic stand-in ----------------------------------------------------------


def _label_counts(num_nodes: int, num_classes: int) -> np.ndarray:
    """Skewed class sizes (geometric decay), summing to num_nodes."""
    raw = 0.72 ** np.arange(num_classes)
    counts = np.floor(raw / raw.sum() * num_nodes).astype(np.int64)
    counts[: num_nodes - counts.sum()] += 1
    return counts


def synthetic_option_error(num_nodes: int, num_edges: int, num_classes: int,
                           homophily: float) -> str | None:
    """Why synthetic_citation_graph cannot build these options, naming the option, or None."""
    if num_nodes < 4:
        return f"num_nodes must be >= 4, got {num_nodes}"
    pairs = num_nodes * (num_nodes - 1) // 2
    if not num_nodes <= num_edges <= pairs:
        return f"num_edges must lie in [{num_nodes}, {pairs}], got {num_edges}"
    if not 1 <= num_classes <= num_nodes or _label_counts(num_nodes, num_classes).min() < 1:
        return f"num_classes must leave no class without a node, got {num_classes}"
    if not 0.0 <= homophily <= 1.0:
        return f"homophily must lie in [0, 1], got {homophily}"
    return None


_TOY_EDGES = (
    (0, 1), (0, 2), (1, 2), (1, 3), (2, 3), (3, 4), (4, 5), (3, 5),
    (5, 6), (6, 7), (5, 7), (0, 6),
    (8, 9), (8, 10), (9, 10), (9, 11), (10, 11), (11, 12), (12, 13),
    (11, 13), (13, 14), (14, 15), (13, 15), (8, 14),
    (7, 8),
)


def toy_graph() -> LabeledDataset:
    """The bundled 16-node fixture: two triangle-rich communities joined
    by a single bridge. Small enough that a full train/eval cycle runs in
    seconds, which makes it the default smoke-test input for the CLI."""
    graph = Graph(16, list(_TOY_EDGES))
    labels = np.array([0] * 8 + [1] * 8, dtype=np.int64)
    return LabeledDataset(graph=graph, labels=labels,
                          class_names=["left", "right"])


def synthetic_citation_graph(
    seed: int = 0,
    num_nodes: int = 2708,
    num_edges: int = 5429,
    num_classes: int = 7,
    homophily: float = 0.78,
) -> tuple[Graph, np.ndarray]:
    """A deterministic citation-network stand-in.

    Each class grows its own degree-weighted attachment subgraph (a
    connected backbone plus hub-biased triangle closure), mirroring how
    citation communities cluster around survey papers. Classes are then
    linked by a sparse chain plus random cross edges sized so roughly a
    `homophily` fraction of edges stay within a class. The result is
    connected with heavy-tailed degrees and mostly same-label edges.
    """
    if problem := synthetic_option_error(num_nodes, num_edges, num_classes, homophily):
        raise ValueError(problem)
    rng = np.random.default_rng(np.random.SeedSequence([int(seed), 0x5E17]))
    counts = _label_counts(num_nodes, num_classes)
    labels = rng.permutation(np.repeat(np.arange(num_classes), counts))

    degree = np.zeros(num_nodes, dtype=np.float64)
    edge_set: set[tuple[int, int]] = set()
    edges: list[tuple[int, int]] = []
    neighbors: list[list[int]] = [[] for _ in range(num_nodes)]

    def add_edge(a: int, b: int) -> bool:
        if a == b:
            return False
        key = (a, b) if a < b else (b, a)
        if key in edge_set:
            return False
        edge_set.add(key)
        edges.append(key)
        degree[a] += 1
        degree[b] += 1
        neighbors[a].append(b)
        neighbors[b].append(a)
        return True

    members = [np.nonzero(labels == c)[0] for c in range(num_classes)]
    n_cross = int(round((1.0 - homophily) * num_edges))
    chain = max(num_classes - 1, 0)
    n_cross = min(max(n_cross, chain), num_edges - (num_nodes - num_classes))
    intra_budget = num_edges - n_cross

    # connected degree-weighted backbone inside every class
    for nodes in members:
        order = rng.permutation(nodes)
        for k in range(1, len(order)):
            w = degree[order[:k]] + 0.25
            target = order[int(rng.choice(k, p=w / w.sum()))]
            add_edge(int(order[k]), int(target))

    # chain of classes keeps the whole graph connected
    for c in range(chain):
        a = int(rng.choice(members[c]))
        b = int(rng.choice(members[c + 1]))
        if not add_edge(a, b):
            add_edge(int(rng.choice(members[c])), int(rng.choice(members[c + 1])))

    # hub-biased triangle closure spends the remaining same-class budget
    attempts = 0
    max_attempts = 200 * max(intra_budget, 1)
    while len(edges) < intra_budget + chain and attempts < max_attempts:
        attempts += 1
        hub = int(rng.choice(num_nodes, p=degree / degree.sum()))
        if degree[hub] < 2:
            continue
        a, b = rng.choice(len(neighbors[hub]), size=2, replace=False)
        u, v = neighbors[hub][int(a)], neighbors[hub][int(b)]
        if labels[u] == labels[v]:
            add_edge(u, v)

    # random cross-class edges up to the full budget
    attempts = 0
    max_attempts = 200 * max(num_edges - len(edges), 1)
    while len(edges) < num_edges and attempts < max_attempts:
        attempts += 1
        u = int(rng.integers(num_nodes))
        v = int(rng.integers(num_nodes))
        if labels[u] != labels[v]:
            add_edge(u, v)
    # pathological fallback: tiny graphs may lack cross pairs, fill anywhere
    while len(edges) < num_edges and attempts < 2 * max_attempts:
        attempts += 1
        add_edge(int(rng.integers(num_nodes)), int(rng.integers(num_nodes)))
    if len(edges) != num_edges:
        raise RuntimeError(
            f"synthetic generator stopped at {len(edges)} of {num_edges} edges"
        )
    graph = Graph(num_nodes, np.array(edges, dtype=np.int64))
    return graph, labels

