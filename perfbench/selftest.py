"""Self-test of the benchmark's correctness checks.

usage: python3 perfbench/selftest.py     (from the root of a checkout)

Every check in checks.py is fed a real output of pathembed, which it must
pass, and corrupted copies, each of which it must reject. Exits 0 when
every check behaves, 1 otherwise. Takes a few seconds.
"""

import os
import sys
from pathlib import Path

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"
sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import numpy as np  # noqa: E402

import pathembed as pe  # noqa: E402
from pathembed.training import TrainConfig, init_state  # noqa: E402

import checks  # noqa: E402

failures = []


def expect(label: str, errors: list[str], should_fail: bool) -> None:
    if bool(errors) != should_fail:
        failures.append(f"{label}: expected {'a failure' if should_fail else 'a pass'}, "
                        f"got {errors or 'a pass'}")
    else:
        print(f"ok   {label}" + (f"  ({errors[0]})" if errors else ""))


def pools_case(graph) -> None:
    n, edges = graph.num_nodes, graph.edges
    adj = checks.adjacency(n, edges)
    pool = pe.build_multipath_pool(graph, 3, 4, 200, seed=0)
    sets = [(s.endpoints, [p.nodes for p in s.paths]) for s in pool]
    expect("multi-path sets as built", checks.check_multipath_sets(n, edges, sets, 3, 4, True),
           False)
    (u, v), paths = sets[0]
    first = paths[0]
    stranger = next(w for w in range(n) if w not in first and w not in adj[first[0]])
    broken = (first[0], stranger) + tuple(first[1:])
    for label, bad in (
        ("a path over a non-edge", [broken] + list(paths[1:])),
        ("a repeated path", [first, first]),
        ("a set of one path", [first]),
        ("a path that revisits a node", [tuple(first) + tuple(first[-2::-1]) + tuple(first[1:])]
         + list(paths[1:])),
    ):
        expect(f"multi-path set with {label}",
               checks.check_multipath_sets(n, edges, [((u, v), bad)], 3, 4, True), True)
    long_set = next((s for s in sets if any(len(p) == 4 for p in s[1])), None)
    if long_set is not None:
        expect("multi-path set checked with a shorter cap",
               checks.check_multipath_sets(n, edges, [long_set], 2, 4, True), True)

    single = pe.build_singlepath_pool(graph, 4, 200, seed=0)
    entries = [(pair, path.nodes) for pair, path in single.entries]
    expect("single-path entries as built", checks.check_single_entries(n, edges, entries, 4),
           False)
    multi4 = pe.build_multipath_pool(graph, 4, 4, 50, seed=0)
    doubled = [(s.endpoints, s.paths[0].nodes) for s in multi4[:3]]
    expect("single-path entry whose pair has two paths",
           checks.check_single_entries(n, edges, doubled, 4), True)
    (pu, pv), nodes = next(e for e in entries if len(e[1]) >= 3)
    wrong = (nodes[0], next(w for w in range(n) if w not in nodes), nodes[-1])
    expect("single-path entry with a wrong path",
           checks.check_single_entries(n, edges, [((pu, pv), wrong)], 4), True)


def scores_case(graph) -> None:
    split = pe.split_edges(graph, 0.1, 0.2, seed=0)
    pairs = np.concatenate([split.test_pos, split.test_neg])
    for backend in ("2n", "mlp", "vi"):
        cfg = TrainConfig(backend=backend, embedding_dim=8, hidden_dim=8, seed=0)
        state = init_state(cfg, split.train_graph)
        phi, params = state.embeddings.values, state.metric_params
        program = pe.score_pairs(state, pairs, backend)
        auc = pe.evaluate_split(state, split, backend)["test_auc"]
        expect(f"{backend} scores and AUC as computed",
               checks.check_link_auc(backend, phi, params, split.test_pos, split.test_neg,
                                     auc, program), False)
        expect(f"{backend} AUC off by 1e-6",
               checks.check_link_auc(backend, phi, params, split.test_pos, split.test_neg,
                                     auc + 1e-6, program), True)
        if backend == "2n":
            phi = phi.copy()
            phi[split.test_pos[0, 0]] += 0.5
        else:
            params = {k: a.copy() for k, a in params.items()}
            params[next(iter(params))].flat[0] += 0.5
        expect(f"{backend} scores of a perturbed model",
               checks.check_link_auc(backend, phi, params, split.test_pos, split.test_neg,
                                     auc, program), True)


def properties_case() -> None:
    expect("pairwise AUC of a hand-counted case",
           [] if checks.brute_auc([1.0, 2.0], [0.0, 2.0]) == 0.625 else ["not 0.625"], False)
    expect("micro-F1 above shuffled", checks.check_beats_shuffled(0.31, 0.20), False)
    expect("micro-F1 equal to shuffled", checks.check_beats_shuffled(0.20, 0.20), True)
    falling = [5.0, 4.0, 4.5, 3.0, 2.5, 2.0]
    expect("falling loss", checks.check_loss_falls(falling, 2), False)
    expect("rising loss", checks.check_loss_falls(falling[::-1], 2), True)
    expect("a single epoch of loss", checks.check_loss_falls(falling[:2], 2), True)
    expect("equal reruns", checks.check_same("auc", 0.7, 0.7), False)
    expect("reruns one ulp apart", checks.check_same("auc", 0.7, float(np.nextafter(0.7, 1))),
           True)


def main() -> int:
    graph, _ = pe.synthetic_citation_graph(seed=3, num_nodes=60, num_edges=150, num_classes=3)
    pools_case(graph)
    scores_case(graph)
    properties_case()
    for message in failures:
        print(f"FAIL {message}")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
