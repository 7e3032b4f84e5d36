"""Undirected graph container, loaders, link-prediction splits, bridges.

Graphs are immutable once built: edges are canonicalized (u < v, sorted,
deduplicated, self-loops dropped) and adjacency is one sorted plain-int
neighbor list per node, so every traversal in the package is deterministic.
This module also reads and writes every dense-id file on disk.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path as FilePath

import numpy as np


class GraphError(ValueError):
    """Raised for malformed graph inputs."""


class Graph:
    """Immutable simple undirected graph on dense node ids 0..N-1."""

    __slots__ = ("num_nodes", "edges", "adjacency", "_edge_keys")

    def __init__(self, num_nodes: int, edges: np.ndarray):
        if num_nodes <= 0:
            raise GraphError("graph must have at least one node")
        edges = np.asarray(edges, dtype=np.int64).reshape(-1, 2)
        if edges.size and (edges.min() < 0 or edges.max() >= num_nodes):
            raise GraphError("edge endpoint out of range")
        edges = edges[edges[:, 0] != edges[:, 1]]
        lo = np.minimum(edges[:, 0], edges[:, 1])
        hi = np.maximum(edges[:, 0], edges[:, 1])
        canon = np.unique(np.stack([lo, hi], axis=1), axis=0) if edges.size else edges.reshape(0, 2)
        self.num_nodes = int(num_nodes)
        self.edges = canon
        self.edges.setflags(write=False)

        # both directions of every edge, ordered by (source, target)
        src = np.concatenate([canon[:, 0], canon[:, 1]])
        dst = np.concatenate([canon[:, 1], canon[:, 0]])
        flat = dst[np.lexsort((dst, src))].tolist()
        ends = np.cumsum(np.bincount(src, minlength=self.num_nodes)).tolist()
        starts = [0] + ends[:-1]
        self.adjacency = tuple(flat[a:b] for a, b in zip(starts, ends))
        self._edge_keys = frozenset((canon[:, 0] * self.num_nodes + canon[:, 1]).tolist())

    # -- queries ---------------------------------------------------------

    @property
    def num_edges(self) -> int:
        return int(self.edges.shape[0])

    def has_edge(self, u: int, v: int) -> bool:
        if u == v:
            return False
        a, b = (u, v) if u < v else (v, u)
        return a * self.num_nodes + b in self._edge_keys

    def connected_components(self) -> tuple[int, np.ndarray]:
        """(component count, per-node labels in first-seen order)."""
        adj = self.adjacency
        labels = [-1] * self.num_nodes
        count = 0
        for root in range(self.num_nodes):
            if labels[root] != -1:
                continue
            stack = [root]
            labels[root] = count
            while stack:
                for v in adj[stack.pop()]:
                    if labels[v] == -1:
                        labels[v] = count
                        stack.append(v)
            count += 1
        return count, np.array(labels, dtype=np.int64)

    def find_bridges(self) -> np.ndarray:
        """All bridge edges, canonical (u < v) and sorted, shape (B, 2).

        Iterative low-link search; an explicit stack of (node, parent,
        neighbors) frames keeps Cora-scale chains within the recursion limit.
        """
        adj = self.adjacency
        disc = [-1] * self.num_nodes
        low = [0] * self.num_nodes
        out: list[tuple[int, int]] = []
        timer = 0
        for root in range(self.num_nodes):
            if disc[root] != -1:
                continue
            disc[root] = low[root] = timer
            timer += 1
            stack = [(root, -1, iter(adj[root]))]
            while stack:
                u, parent, it = stack[-1]
                for v in it:
                    if disc[v] == -1:
                        disc[v] = low[v] = timer
                        timer += 1
                        stack.append((v, u, iter(adj[v])))
                        break
                    if v != parent:
                        low[u] = min(low[u], disc[v])
                else:
                    stack.pop()
                    if parent >= 0:
                        low[parent] = min(low[parent], low[u])
                        if low[u] > disc[parent]:
                            out.append((min(parent, u), max(parent, u)))
        if not out:
            return np.empty((0, 2), dtype=np.int64)
        return np.array(sorted(out), dtype=np.int64)

    def __repr__(self) -> str:
        return f"Graph(num_nodes={self.num_nodes}, num_edges={self.num_edges})"


@dataclass
class LabeledDataset:
    """A graph plus optional node class labels (-1 marks unlabeled)."""

    graph: Graph
    labels: np.ndarray | None = None
    class_names: list[str] = field(default_factory=list)

    @property
    def num_classes(self) -> int:
        if self.class_names:
            return len(self.class_names)
        if self.labels is None:
            return 0
        return int(self.labels.max(initial=-1)) + 1

    def __post_init__(self):
        if self.labels is not None:
            self.labels = np.asarray(self.labels, dtype=np.int64)
            if self.labels.shape != (self.graph.num_nodes,):
                raise GraphError("labels must align with node ids")
            if self.class_names and self.labels.max(initial=-1) >= len(self.class_names):
                raise GraphError("label id exceeds num_classes")


@dataclass
class EdgeSplit:
    """Held-out positives/negatives for link prediction plus the train graph."""

    train_graph: Graph
    val_pos: np.ndarray
    val_neg: np.ndarray
    test_pos: np.ndarray
    test_neg: np.ndarray
    seed: int
    val_fraction: float
    test_fraction: float


# -- loading ---------------------------------------------------------------


def number_tokens(tokens) -> dict[str, int]:
    """Dense ids 0..N-1 for raw node tokens in sorted order: numeric (equal
    numbers by text) when every token is an optional '-' followed by digits,
    else lexicographic, so one token such as '+1' makes the whole set text."""
    numeric = all(t.removeprefix("-").isdecimal() for t in tokens)
    key = (lambda t: (int(t), t)) if numeric else None
    return {tok: i for i, tok in enumerate(sorted(tokens, key=key))}


def _load_edge_list(path: str | FilePath, tokens: set[str]) -> tuple[Graph, dict]:
    """Parse a whitespace-separated edge list; '#' starts a comment line.

    Node ids may be arbitrary tokens; together with the extra node
    `tokens` they are remapped to dense 0..N-1 by `number_tokens`.
    Returns (graph, report) where the report records the id map and the
    number of duplicates and self-loops dropped.
    """
    raw_edges: list[tuple[str, str]] = []
    with open(path, "r", encoding="utf-8") as fh:
        for line_no, line in enumerate(fh, start=1):
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            parts = line.split()
            if len(parts) != 2:
                raise GraphError(f"{path}: line {line_no}: expected two node ids")
            raw_edges.append((parts[0], parts[1]))
            tokens.update(parts)
    if not raw_edges:
        raise GraphError(f"{path}: no edges found")

    id_map = number_tokens(tokens)
    pairs = np.array([(id_map[a], id_map[b]) for a, b in raw_edges], dtype=np.int64)
    self_loops = int((pairs[:, 0] == pairs[:, 1]).sum())
    graph = Graph(len(id_map), pairs)
    duplicates = len(raw_edges) - self_loops - graph.num_edges
    report = {
        "num_nodes": graph.num_nodes,
        "num_edges": graph.num_edges,
        "self_loops_dropped": self_loops,
        "duplicates_dropped": duplicates,
        "id_map": id_map,
    }
    return graph, report


def _label_lines(path: str | FilePath):
    """(line number, node token, class name) for each label line of `path`."""
    with open(path, "r", encoding="utf-8") as fh:
        for line_no, line in enumerate(fh, start=1):
            line = line.rstrip("\n")
            if not line.strip() or line.startswith("#"):
                continue
            parts = line.split("\t") if "\t" in line else line.split()
            if len(parts) != 2:
                raise GraphError(f"{path}: line {line_no}: expected node and label")
            yield line_no, parts[0], parts[1]


def load_labels(path: str | FilePath, id_map: dict[str, int], num_nodes: int):
    """Read `node_id<TAB>class_label` lines into a dense label array.

    Raw files map their node tokens through `id_map`; a dense-id file, as
    `save_labels` writes, passes the identity map `{str(i): i}`. Class
    names are sorted lexicographically to fix the class-id order.
    Unlisted nodes get label -1. Returns (labels, class_names).
    """
    raw: dict[int, str] = {}
    for line_no, node_tok, label in _label_lines(path):
        if node_tok not in id_map:
            raise GraphError(f"{path}: line {line_no}: unknown node id {node_tok!r}")
        raw[id_map[node_tok]] = label
    class_names = sorted(set(raw.values()))
    class_ids = {name: i for i, name in enumerate(class_names)}
    labels = np.full(num_nodes, -1, dtype=np.int64)
    for node, name in raw.items():
        labels[node] = class_ids[name]
    return labels, class_names


def save_labels(path: str | FilePath, dataset: LabeledDataset) -> None:
    """Write one `node<TAB>class name` line per labeled node, in node order."""
    names = dataset.class_names or [str(c) for c in range(dataset.num_classes)]
    with open(path, "w", encoding="utf-8") as fh:
        for node, label in enumerate(dataset.labels.tolist()):
            if label >= 0:
                fh.write(f"{node}\t{names[label]}\n")


def load_dataset(edges_path: str | FilePath, labels_path: str | FilePath | None = None):
    """Convenience loader for (edge list [+ labels]) -> LabeledDataset.

    Label and edge node tokens are numbered together, so a labeled node
    without edges keeps its id and label.
    """
    tokens = set() if labels_path is None else {tok for _, tok, _ in _label_lines(labels_path)}
    graph, report = _load_edge_list(edges_path, tokens)
    labels, class_names = (None, [])
    if labels_path is not None:
        labels, class_names = load_labels(labels_path, report["id_map"], graph.num_nodes)
    return LabeledDataset(graph, labels, class_names), report


# -- splitting -------------------------------------------------------------


def _sample_non_edges(graph: Graph, count: int, rng: np.random.Generator) -> np.ndarray:
    """Uniform non-edges of `graph`, canonical order, no repeats."""
    n = graph.num_nodes
    max_pairs = n * (n - 1) // 2
    if count > max_pairs - graph.num_edges:
        raise GraphError("not enough non-edges to sample negatives")
    chosen: set[int] = set()
    out = np.empty((count, 2), dtype=np.int64)
    got = 0
    while got < count:
        # oversample to keep the rejection loop short
        need = max(64, int(1.2 * (count - got)))
        us = rng.integers(0, n, size=need)
        vs = rng.integers(0, n, size=need)
        for u, v in zip(us, vs):
            if got >= count or u == v:
                continue
            a, b = (int(u), int(v)) if u < v else (int(v), int(u))
            key = a * n + b
            if key in chosen or graph.has_edge(a, b):
                continue
            chosen.add(key)
            out[got] = (a, b)
            got += 1
    return out


def split_edges(
    graph: Graph, val_fraction: float, test_fraction: float, seed: int
) -> EdgeSplit:
    """Hold out floor(fraction * E) edges for validation and test.

    Held-out positives are removed from the train graph (disconnection is
    allowed). Negatives are uniform non-edges of the ORIGINAL graph, equal
    in count to the positives, disjoint between val and test.
    """
    if val_fraction < 0 or test_fraction < 0 or val_fraction + test_fraction >= 1:
        raise GraphError("fractions must be non-negative and sum below 1")
    e = graph.num_edges
    n_test = int(np.floor(test_fraction * e))
    n_val = int(np.floor(val_fraction * e))
    rng = np.random.default_rng(np.random.SeedSequence([int(seed), 0x5E1D]))
    order = rng.permutation(e)
    test_pos = graph.edges[np.sort(order[:n_test])]
    val_pos = graph.edges[np.sort(order[n_test: n_test + n_val])]
    train_edges = graph.edges[np.sort(order[n_test + n_val:])]
    negatives = _sample_non_edges(graph, n_test + n_val, rng)
    return EdgeSplit(
        train_graph=Graph(graph.num_nodes, train_edges),
        val_pos=val_pos,
        val_neg=negatives[n_test:],
        test_pos=test_pos,
        test_neg=negatives[:n_test],
        seed=int(seed),
        val_fraction=float(val_fraction),
        test_fraction=float(test_fraction),
    )


# -- dense-id files and split serialization ----------------------------------


_META_TYPES = {
    "num_nodes": ("a positive integer", lambda x: type(x) is int and x > 0),
    "seed": ("an integer", lambda x: type(x) is int),
    "val_fraction": ("a number", lambda x: type(x) in (int, float)),
    "test_fraction": ("a number", lambda x: type(x) in (int, float)),
}


def read_meta(path: str | FilePath, keys: tuple[str, ...]) -> dict:
    """A JSON metadata file that must hold every one of `keys`, each well typed."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            meta = json.load(fh)
    except ValueError as exc:  # malformed JSON or text
        raise GraphError(f"{path}: not valid JSON ({exc})") from None
    for key in keys:
        if not isinstance(meta, dict) or key not in meta:
            raise GraphError(f"{path}: missing key {key!r}")
        what, ok = _META_TYPES[key]
        if not ok(meta[key]):
            raise GraphError(f"{path}: key {key!r} must be {what}, got {meta[key]!r}")
    return meta


def write_pairs(path: str | FilePath, pairs: np.ndarray) -> None:
    """One `a b` line of dense node ids per row of `pairs`."""
    with open(path, "w", encoding="utf-8") as fh:
        for a, b in np.asarray(pairs, dtype=np.int64).reshape(-1, 2):
            fh.write(f"{int(a)} {int(b)}\n")


def read_pairs(path: str | FilePath, num_nodes: int) -> np.ndarray:
    """One `a b` pair of node ids in 0..num_nodes-1 per non-blank line."""
    rows = []
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, 1):
            fields = line.split()
            if not fields:
                continue
            try:
                a, b = (int(f) for f in fields)
            except ValueError:
                raise GraphError(f"{path}, line {lineno}: expected two integer node ids, "
                                 f"got {line.strip()!r}") from None
            if not (0 <= a < num_nodes and 0 <= b < num_nodes):
                raise GraphError(f"{path}, line {lineno}: node id outside 0..{num_nodes - 1} "
                                 f"in {line.strip()!r}")
            rows.append((a, b))
    return np.array(rows, dtype=np.int64).reshape(-1, 2)


def save_split(split: EdgeSplit, out_dir: str | FilePath) -> None:
    out = FilePath(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    write_pairs(out / "train.txt", split.train_graph.edges)
    write_pairs(out / "val_pos.txt", split.val_pos)
    write_pairs(out / "val_neg.txt", split.val_neg)
    write_pairs(out / "test_pos.txt", split.test_pos)
    write_pairs(out / "test_neg.txt", split.test_neg)
    meta = {
        "num_nodes": split.train_graph.num_nodes,
        "seed": split.seed,
        "val_fraction": split.val_fraction,
        "test_fraction": split.test_fraction,
        "counts": {
            "train": split.train_graph.num_edges,
            "val_pos": int(split.val_pos.shape[0]),
            "test_pos": int(split.test_pos.shape[0]),
        },
    }
    with open(out / "metadata.json", "w", encoding="utf-8") as fh:
        json.dump(meta, fh, indent=2, sort_keys=True)


def load_split(split_dir: str | FilePath) -> EdgeSplit:
    d = FilePath(split_dir)
    meta = read_meta(d / "metadata.json", ("num_nodes", "seed", "val_fraction", "test_fraction"))
    n = meta["num_nodes"]
    return EdgeSplit(
        train_graph=Graph(n, read_pairs(d / "train.txt", n)),
        val_pos=read_pairs(d / "val_pos.txt", n),
        val_neg=read_pairs(d / "val_neg.txt", n),
        test_pos=read_pairs(d / "test_pos.txt", n),
        test_neg=read_pairs(d / "test_neg.txt", n),
        seed=int(meta["seed"]),
        val_fraction=float(meta["val_fraction"]),
        test_fraction=float(meta["test_fraction"]),
    )
