"""Correctness checks that recompute the program's outputs by other means.

Nothing here calls pathembed. Each check returns a list of error
messages, empty when the output holds. `selftest.py` feeds each check a
corrupted output and expects a message back.
"""

from __future__ import annotations

import numpy as np
import networkx as nx


def adjacency(num_nodes: int, edges) -> list[set[int]]:
    adj = [set() for _ in range(num_nodes)]
    for u, v in np.asarray(edges, dtype=np.int64).reshape(-1, 2).tolist():
        adj[u].add(v)
        adj[v].add(u)
    return adj


def _oriented(nodes, u: int) -> tuple[int, ...]:
    nodes = tuple(int(x) for x in nodes)
    return nodes if nodes[0] == u else nodes[::-1]


def _path_errors(adj, nodes, u: int, v: int, max_len: int) -> list[str]:
    nodes = _oriented(nodes, u)
    if (nodes[0], nodes[-1]) != (u, v):
        return [f"path {nodes} does not join {u} and {v}"]
    if len(set(nodes)) != len(nodes):
        return [f"path {nodes} repeats a node"]
    if len(nodes) - 1 > max_len:
        return [f"path {nodes} has more than {max_len} edges"]
    for a, b in zip(nodes, nodes[1:]):
        if b not in adj[a]:
            return [f"path {nodes} steps over the non-edge {a}-{b}"]
    return []


def check_multipath_sets(num_nodes: int, edges, sets, max_len: int, max_paths: int,
                         enumerate_all: bool) -> list[str]:
    """Each set joins its endpoints by 2..max_paths distinct simple paths of the graph.

    `sets` holds ((u, v), [node tuples]). With `enumerate_all`, every path
    must also be among networkx's simple paths of <= max_len edges.
    """
    adj = adjacency(num_nodes, edges)
    graph = nx.Graph()
    if enumerate_all:
        graph.add_nodes_from(range(num_nodes))
        graph.add_edges_from(np.asarray(edges).reshape(-1, 2).tolist())
    errors = []
    for (u, v), paths in sets:
        u, v = int(u), int(v)
        oriented = {_oriented(p, u) for p in paths}
        if len(oriented) != len(paths) or not 2 <= len(paths) <= max_paths:
            errors.append(f"set {u}-{v}: {len(paths)} paths, {len(oriented)} distinct, "
                          f"need 2..{max_paths}")
        for p in paths:
            errors += [f"set {u}-{v}: {e}" for e in _path_errors(adj, p, u, v, max_len)]
        if enumerate_all:
            every = {tuple(p) for p in nx.all_simple_paths(graph, u, v, cutoff=max_len)}
            missing = oriented - every
            if missing:
                errors.append(f"set {u}-{v}: {sorted(missing)[0]} is not a simple path")
    return errors


def simple_paths_upto(adj, u: int, v: int, max_len: int, limit: int = 2,
                      budget: int = 1_000_000) -> list[tuple[int, ...]]:
    """Up to `limit` simple u-v paths of <= max_len edges, by pruned DFS.

    A branch is cut when its length plus the hop distance still to go
    exceeds max_len, so only paths that can still qualify are walked.
    Raises RuntimeError after `budget` descents.
    """
    dist = {v: 0}
    frontier = [v]
    for hops in range(1, max_len + 1):
        nxt = []
        for a in frontier:
            for b in adj[a]:
                if b not in dist:
                    dist[b] = hops
                    nxt.append(b)
        frontier = nxt
    found = []
    path = [u]
    on_path = {u}
    stack = [iter(sorted(adj[u]))]
    descents = 0
    while stack:
        w = next(stack[-1], None)
        if w is None:
            stack.pop()
            on_path.discard(path.pop())
            continue
        if w == v:
            found.append(tuple(path) + (v,))
            if len(found) >= limit:
                break
            continue
        if w in on_path or len(path) + dist.get(w, max_len + 1) > max_len:
            continue
        descents += 1
        if descents > budget:
            raise RuntimeError(f"pair {u}-{v}: more than {budget} descents")
        path.append(w)
        on_path.add(w)
        stack.append(iter(sorted(adj[w])))
    return found


def check_single_entries(num_nodes: int, edges, entries, max_len: int) -> list[str]:
    """Each entry's path is the one and only simple path of <= max_len edges."""
    adj = adjacency(num_nodes, edges)
    errors = []
    for (u, v), nodes in entries:
        u, v = int(u), int(v)
        try:
            found = simple_paths_upto(adj, u, v, max_len)
        except RuntimeError as exc:
            errors.append(str(exc))
            continue
        if len(found) != 1:
            errors.append(f"entry {u}-{v}: {len(found)} simple paths within {max_len}, not 1")
        elif found[0] != _oriented(nodes, u):
            errors.append(f"entry {u}-{v}: stored {tuple(nodes)}, the path is {found[0]}")
    return errors


def sample(items, count: int, rng: np.random.Generator) -> list:
    items = list(items)
    if len(items) <= count:
        return items
    return [items[int(i)] for i in np.sort(rng.choice(len(items), size=count, replace=False))]


# -- link scores ---------------------------------------------------------------------


def scores_2n(phi, params, pairs):
    pairs = np.asarray(pairs).reshape(-1, 2)
    return -np.sqrt(((phi[pairs[:, 0]] - phi[pairs[:, 1]]) ** 2).sum(axis=1))


def scores_mlp(phi, params, pairs):
    """-(|g(u, v)| + |g(v, u)|) / 2 with g = W2 relu(W1 [phi_u; phi_v] + b1) + b2."""
    pairs = np.asarray(pairs).reshape(-1, 2)
    pu, pv = phi[pairs[:, 0]], phi[pairs[:, 1]]

    def g(a, b):
        h = np.maximum(np.hstack([a, b]) @ params["mlp1_w"] + params["mlp1_b"], 0.0)
        return h @ params["mlp2_w"] + params["mlp2_b"]

    return -0.5 * (np.linalg.norm(g(pu, pv), axis=1) + np.linalg.norm(g(pv, pu), axis=1))


def scores_vi(phi, params, pairs):
    """-(|mu(u - v)| + |mu(v - u)|) / 2 with mu the encoder's mean head."""
    pairs = np.asarray(pairs).reshape(-1, 2)
    diff = phi[pairs[:, 0]] - phi[pairs[:, 1]]

    def mu(d):
        h = np.maximum(d @ params["enc1_w"] + params["enc1_b"], 0.0)
        return h @ params["enc_mu_w"] + params["enc_mu_b"]

    return -0.5 * (np.linalg.norm(mu(diff), axis=1) + np.linalg.norm(mu(-diff), axis=1))


SCORERS = {"2n": scores_2n, "mlp": scores_mlp, "vi": scores_vi}


def brute_auc(pos, neg) -> float:
    """P(pos > neg) + P(pos == neg) / 2 over every positive-negative pair."""
    pos = np.asarray(pos, dtype=np.float64)
    neg = np.asarray(neg, dtype=np.float64)
    wins = 0.0
    for start in range(0, pos.size, 256):
        block = pos[start:start + 256, None]
        wins += (block > neg[None, :]).sum() + 0.5 * (block == neg[None, :]).sum()
    return float(wins / (pos.size * neg.size))


def check_link_auc(backend: str, phi, params, test_pos, test_neg, reported_auc: float,
                   program_scores=None) -> list[str]:
    """Recompute the test scores and their AUC; compare with the program's."""
    scorer = SCORERS[backend]
    pos, neg = scorer(phi, params, test_pos), scorer(phi, params, test_neg)
    errors = []
    if program_scores is not None:
        mine = np.concatenate([pos, neg])
        if not np.allclose(mine, program_scores, rtol=1e-9, atol=1e-12):
            worst = float(np.max(np.abs(mine - program_scores)))
            errors.append(f"{backend} link scores differ from a plain forward by {worst:.3g}")
    auc = brute_auc(pos, neg)
    if abs(auc - reported_auc) > 1e-9:
        errors.append(f"test AUC {reported_auc!r} but pairwise counting gives {auc!r}")
    return errors


# -- training and classification properties ---------------------------------------


def check_beats_shuffled(micro_f1: float, shuffled_f1: float) -> list[str]:
    if not micro_f1 > shuffled_f1:
        return [f"micro-F1 {micro_f1:.4f} does not beat shuffled labels ({shuffled_f1:.4f})"]
    return []


def epoch_means(losses, steps_per_epoch: int) -> list[float]:
    losses = np.asarray(losses, dtype=np.float64)
    return [float(losses[i:i + steps_per_epoch].mean())
            for i in range(0, losses.size, steps_per_epoch)]


def check_loss_falls(losses, steps_per_epoch: int) -> list[str]:
    means = epoch_means(losses, steps_per_epoch)
    if len(means) < 2 or not means[-1] < means[0]:
        return [f"epoch-mean loss does not fall: {[round(m, 4) for m in means]}"]
    return []


def check_same(label: str, got, want) -> list[str]:
    """Bit-for-bit equality of two runs of the same computation."""
    if repr(got) != repr(want):
        return [f"{label}: {got!r} differs from {want!r}"]
    return []
