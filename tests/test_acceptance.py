"""Numbered acceptance gates, one test per criterion.

Every gate registers an explicit verdict line (printed in the terminal
summary) and then asserts it. Gates 1-4 and 8 check correctness against
independent brute-force oracles; gates 5-7 run desk-scale training. When
no real citation dataset is present under data/cora, gates 5-7 fall back
to the bundled synthetic stand-in and say so in their verdict; gate 5 then
measures against a spectral baseline computed on the same split.
"""

import time
from pathlib import Path as FilePath

import numpy as np
import pytest
from scipy import sparse
from scipy.sparse.linalg import eigsh

from conftest import ACCEPTANCE_VERDICTS
from objective import full_objective
from oracle import (
    GaussianRelation,
    add_relations,
    g_vi,
    kl_gaussian,
    path_sum,
    relation,
    scalarize,
)
from pathembed.autodiff import Tensor, segment_sum
from pathembed.datasets import load_citation_archive, synthetic_citation_graph
from pathembed.evaluation import (
    auc_score,
    average_precision_score,
    classify_nodes,
    evaluate_split,
    score_pairs,
    sweep,
)
from pathembed.graph import Graph, LabeledDataset, split_edges
from pathembed.paths import (
    build_multipath_pool,
    build_singlepath_pool,
    enumerate_simple_paths,
)
from pathembed.relations import BACKENDS, EmbeddingMatrix, init_metric_params
from pathembed.training import ModelState, TrainConfig, contrast_triplets, init_state, train


def record(num: int, label: str, ok: bool, detail: str) -> None:
    ACCEPTANCE_VERDICTS[num] = (label, bool(ok), detail)
    assert ok, f"criterion {num} ({label}): {detail}"


def random_graph(rng: np.random.Generator, n: int, p: float) -> Graph:
    mask = rng.random((n, n)) < p
    edges = [(i, j) for i in range(n) for j in range(i + 1, n) if mask[i, j]]
    return Graph(n, np.asarray(edges, dtype=np.int64).reshape(-1, 2))


def neighbors(graph: Graph, u: int) -> np.ndarray:
    """Sorted neighbors of u, read from the edge list alone."""
    e = graph.edges
    return np.sort(np.concatenate([e[e[:, 0] == u, 1], e[e[:, 1] == u, 0]]))


# -- 1: reverse-mode gradients against central differences -------------------


def test_criterion_1_gradient_correctness():
    start = time.time()
    rng = np.random.default_rng(0)
    graph = mp = sp = None
    for seed in range(40):
        g = random_graph(np.random.default_rng(1000 + seed), 10, 0.3)
        cand_mp = build_multipath_pool(g, 4, 4, 200, seed=0)
        cand_sp = build_singlepath_pool(g, 4, 200, seed=0)
        long_single = any(len(p.nodes) > 2 for _, p in cand_sp.entries)
        if len(cand_mp) >= 2 and long_single:
            graph, mp, sp = g, cand_mp, cand_sp
            break
    assert graph is not None, "no 10-node graph with both pool kinds found"

    h = 1e-5
    worst_overall = 0.0
    details = []
    for backend in BACKENDS:
        cfg = TrainConfig(
            backend=backend, embedding_dim=12, hidden_dim=16,
            balance=0.4, max_len=4, max_paths=4, max_pairs=200, seed=0,
        )
        state = init_state(cfg, graph)
        noise = None
        if backend == "vi":
            noise = np.random.default_rng(5).standard_normal(
                (graph.num_edges, cfg.embedding_dim))
        contrast = contrast_triplets(graph.edges, np.random.default_rng(6))
        _, analytic = full_objective(state, cfg, graph, mp, sp, noise, contrast)
        slots = [
            (name, idx)
            for name, arr in state.trainables().items()
            for idx in range(arr.size)
        ]
        take = min(100, len(slots))
        picks = [slots[i] for i in rng.choice(len(slots), take, replace=False)]
        assert take >= 100, f"{backend}: only {take} coordinates"
        worst = 0.0
        for name, idx in picks:
            flat = state.trainables()[name].reshape(-1)
            keep = flat[idx]
            flat[idx] = keep + h
            up = full_objective(state, cfg, graph, mp, sp, noise, contrast)[0]["loss"]
            flat[idx] = keep - h
            down = full_objective(state, cfg, graph, mp, sp, noise, contrast)[0]["loss"]
            flat[idx] = keep
            numeric = (up - down) / (2 * h)
            a = analytic[name].reshape(-1)[idx]
            rel = abs(a - numeric) / max(1.0, abs(a), abs(numeric))
            worst = max(worst, rel)
        details.append(f"{backend}: {worst:.2e}")
        worst_overall = max(worst_overall, worst)
    wall = time.time() - start
    ok = worst_overall <= 1e-4 and wall < 60.0
    record(1, "gradient correctness", ok,
           f"max rel err {worst_overall:.2e} over 100 coords per backend "
           f"({'; '.join(details)}); wall {wall:.1f}s")


# -- 2: path enumeration and pool qualification against brute force ----------


def brute_simple_paths(graph: Graph, u: int, v: int, max_len: int):
    """Unpruned recursive enumeration: the independent oracle."""
    out = []

    def walk(node, path):
        if node == v:
            out.append(tuple(path))
            return
        if len(path) - 1 == max_len:
            return
        for w in neighbors(graph, node):
            w = int(w)
            if w not in path:
                walk(w, path + [w])

    walk(u, [u])
    return out


def test_criterion_2_enumeration_oracle_equivalence():
    start = time.time()
    rng = np.random.default_rng(20)
    graphs_with_multi = graphs_with_single = 0
    for case in range(50):
        n = int(rng.integers(4, 11))
        g = random_graph(rng, n, float(rng.uniform(0.15, 0.5)))
        max_len = int(rng.integers(2, 7))

        oracle: dict[tuple[int, int], list[tuple[int, ...]]] = {}
        for u in range(n):
            for v in range(u + 1, n):
                oracle[(u, v)] = brute_simple_paths(g, u, v, max_len)

        for (u, v), want in oracle.items():
            got = enumerate_simple_paths(g, u, v, max_len)
            assert {p.nodes for p in got} == set(want), (case, u, v)

        multi = build_multipath_pool(g, max_len, 6, 10**6, seed=1,
                                     path_budget=None)
        want_multi = {pair for pair, paths in oracle.items() if len(paths) >= 2}
        assert {s.endpoints for s in multi} == want_multi, case
        for s in multi:
            assert len(s.paths) == min(6, len(oracle[s.endpoints]))
            assert {p.nodes for p in s.paths} <= set(oracle[s.endpoints])
        graphs_with_multi += bool(multi)

        single = build_singlepath_pool(g, max_len, 10**6, seed=1)
        want_single = {pair: paths[0] for pair, paths in oracle.items()
                       if len(paths) == 1}
        got_single = {pair: path.nodes for pair, path in single.entries}
        assert got_single == want_single, case
        graphs_with_single += bool(single.entries)

    wall = time.time() - start
    ok = wall < 60.0 and graphs_with_multi >= 25 and graphs_with_single >= 25
    record(2, "path enumeration oracle equivalence", ok,
           f"50 graphs (N<=10, max_len<=6) all match brute force; "
           f"{graphs_with_multi} had multi-path sets, "
           f"{graphs_with_single} had single-path entries; wall {wall:.1f}s")


# -- 3: Gaussian algebra ------------------------------------------------------


def gaussian_logpdf(z: np.ndarray, mean: np.ndarray, var: np.ndarray) -> np.ndarray:
    return -0.5 * (((z - mean) ** 2) / var + np.log(2.0 * np.pi * var)).sum(axis=1)


def test_criterion_3_gaussian_algebra():
    start = time.time()
    rng = np.random.default_rng(7)
    worst_sigma = 0.0
    for _ in range(20):
        k = int(rng.integers(2, 9))
        p = GaussianRelation(rng.normal(size=k), rng.uniform(0.25, 2.25, size=k))
        q = GaussianRelation(rng.normal(size=k), rng.uniform(0.25, 2.25, size=k))
        analytic = kl_gaussian(p, q)
        z = p.mean + np.sqrt(p.var) * rng.standard_normal((100_000, k))
        ratio = gaussian_logpdf(z, p.mean, p.var) - gaussian_logpdf(z, q.mean, q.var)
        estimate = float(ratio.mean())
        se = float(ratio.std(ddof=1) / np.sqrt(ratio.size))
        sigmas = abs(analytic - estimate) / se
        worst_sigma = max(worst_sigma, sigmas)
        assert sigmas <= 3.0, f"KL {analytic:.4f} vs MC {estimate:.4f} ({sigmas:.1f} SE)"
        assert analytic > 1e-9  # distinct random parameters

    same = GaussianRelation(np.array([0.3, -1.2]), np.array([0.7, 1.4]))
    assert abs(kl_gaussian(same, same)) <= 1e-9
    nudged = GaussianRelation(same.mean + np.array([1e-3, 0.0]), same.var)
    assert kl_gaussian(same, nudged) > 1e-9

    emb = rng.normal(size=(5, 6))
    params = init_metric_params("vi", 6, rng, hidden=8)
    path = (0, 3, 1, 4)
    total = path_sum(path, "vi", emb, params)
    manual = None
    for a, b in zip(path, path[1:]):
        leg = g_vi(emb[a], emb[b], params)
        manual = leg if manual is None else add_relations(manual, leg)
    exact = (np.array_equal(total.mean, manual.mean)
             and np.array_equal(total.var, manual.var))

    # the production vi backend against the oracle: the squared KL of its
    # multi-path discrepancy, and the path sums of its summands
    vi = BACKENDS["vi"]

    def rel_err(got, want):
        # where want is exactly 0 the error is 0 if got is exactly 0 too and
        # inf otherwise; a NaN also counts as inf, so no entry drops out
        diff = np.abs(np.subtract(got, want))
        ratio = np.divide(diff, np.abs(want), out=np.where(diff > 0, np.inf, 0.0),
                          where=np.asarray(want) != 0)
        return float(np.max(np.where(np.isnan(ratio), np.inf, ratio)))

    mean = rng.normal(size=(2, 20, 6))
    var = rng.uniform(0.25, 2.25, size=(2, 20, 6))
    a, b = (Tensor(mean[0]), Tensor(var[0])), (Tensor(mean[1]), Tensor(var[1]))
    ps = [GaussianRelation(mean[0, i], var[0, i]) for i in range(20)]
    qs = [GaussianRelation(mean[1, i], var[1, i]) for i in range(20)]
    kl_pq = np.array([kl_gaussian(p, q) for p, q in zip(ps, qs)])
    worst_prod = rel_err(vi.discrepancy(a, b).data, kl_pq ** 2)
    params_t = {n: Tensor(arr) for n, arr in params.items()}
    for nodes in [path] + [tuple(rng.integers(0, 5, size=int(rng.integers(2, 7))))
                           for _ in range(10)]:
        want = path_sum(nodes, "vi", emb, params)
        legs = vi.summands(vi.relate(Tensor(emb), np.array(nodes[:-1]), np.array(nodes[1:]),
                                     params_t, variance=True))
        span = np.arange(len(nodes) - 1)
        got = [segment_sum(t, span, np.zeros_like(span), 1).data[0] for t in legs]
        worst_prod = max(worst_prod, rel_err(got[0], want.mean), rel_err(got[1], want.var))
    wall = time.time() - start
    ok = worst_sigma <= 3.0 and exact and worst_prod <= 1e-12 and wall < 60.0
    record(3, "gaussian algebra", ok,
           f"20 MC checks (worst {worst_sigma:.2f} SE), identity/order "
           f"properties, exact componentwise path sums; production vi "
           f"discrepancy and path sums within {worst_prod:.1e} of the oracle "
           f"(need <=1e-12); wall {wall:.1f}s")


# -- 4: constraint satisfiability on closed-form graphs ----------------------


def test_criterion_4_constraint_satisfiability():
    start = time.time()
    cycle = Graph(4, np.array([[0, 1], [1, 2], [2, 3], [3, 0]]))
    cfg = TrainConfig(backend="2n", embedding_dim=4, balance=0.5,
                      learning_rate=0.02, epochs=500, batch_pairs=512,
                      max_len=3, max_paths=4, max_pairs=50, seed=0)
    multi = build_multipath_pool(cycle, cfg.max_len, cfg.max_paths,
                                 cfg.max_pairs, cfg.seed)
    single = build_singlepath_pool(cycle, cfg.max_len, cfg.max_pairs, cfg.seed)
    result = train(cycle, cfg, multi_pool=multi, single_pool=single)
    steps = len(result.history)  # one batch per epoch at this size
    final_mul = full_objective(result.state, cfg, cycle, multi_pool=multi)[0]["loss_mul"]
    ok_cycle = final_mul < 1e-3 and steps <= 500

    chain = Graph(5, np.array([[0, 1], [1, 2], [2, 3], [3, 4]]))
    cfg_chain = TrainConfig(backend="mlp", embedding_dim=4, hidden_dim=8,
                            balance=0.0, learning_rate=0.01, epochs=400, batch_pairs=512,
                            max_len=4, max_paths=4, max_pairs=50, seed=0)
    sp = build_singlepath_pool(chain, cfg_chain.max_len, cfg_chain.max_pairs,
                               cfg_chain.seed)
    res = train(chain, cfg_chain, multi_pool=[], single_pool=sp)
    emb = res.state.embeddings.values
    params = res.state.metric_params
    margin = np.inf
    for pair, path in sp.entries:
        nodes = path.nodes
        for a in range(len(nodes)):
            for b in range(a + 2, len(nodes)):
                direct = scalarize(relation("mlp", emb[nodes[a]], emb[nodes[b]], params))
                along = scalarize(path_sum(nodes[a:b + 1], "mlp", emb, params))
                margin = min(margin, direct - along)
    wall = time.time() - start
    ok = ok_cycle and margin > 0.0 and wall < 60.0
    record(4, "constraint satisfiability", ok,
           f"4-cycle L_mul {final_mul:.2e} after {steps} steps; 5-chain "
           f"natural-order margin {margin:.4f}; wall {wall:.1f}s")


# -- 5-7: desk-scale runs -----------------------------------------------------

DESK_CONFIGS = {
    "2n": dict(balance=0.9, learning_rate=0.003),
    "mlp": dict(balance=0.2, learning_rate=0.003),
    "vi": dict(balance=0.5, learning_rate=0.001),
}


@pytest.fixture(scope="module")
def desk_dataset():
    cora_dir = FilePath(__file__).resolve().parent.parent / "data" / "cora"
    if cora_dir.is_dir():
        graph, labels, class_names, _ = load_citation_archive(cora_dir)
        return LabeledDataset(graph=graph, labels=labels,
                              class_names=class_names), "cora"
    graph, labels = synthetic_citation_graph(seed=0)
    return (LabeledDataset(graph=graph, labels=labels),
            "synthetic stand-in (no data/cora)")


@pytest.fixture(scope="module")
def desk_runs(desk_dataset):
    dataset, source = desk_dataset
    start = time.time()
    split = split_edges(dataset.graph, 0.05, 0.10, seed=0)
    tg = split.train_graph
    multi = build_multipath_pool(tg, 3, 6, 8000, seed=0, path_budget=300)
    single = build_singlepath_pool(tg, 10, 12000, seed=0)
    runs = {}
    for backend, knobs in DESK_CONFIGS.items():
        cfg = TrainConfig(backend=backend, embedding_dim=128, hidden_dim=128,
                          epochs=30, patience=8, batch_pairs=512,
                          max_len=10, seed=0, **knobs)
        result = train(tg, cfg, multi_pool=multi, single_pool=single,
                       val_pos=split.val_pos, val_neg=split.val_neg)
        runs[backend] = (result.state, evaluate_split(result.state, split, backend))
    return {"source": source, "dataset": dataset, "split": split,
            "runs": runs, "wall": time.time() - start}


# Gate 5's targets are Cora-level numbers. Spectral clustering scores
# AUC 0.846 / AP 0.885 on Cora under the same 85/5/10 edge split (Kipf &
# Welling 2016, VGAE). On the stand-in, a quarter of the held-out positives
# are uniformly drawn cross-class edges that no structural score can rank,
# so there the targets keep their offsets from spectral clustering's Cora
# figures and are shifted onto spectral clustering's score on the stand-in.
CORA_TARGETS = {"vi_auc": 0.85, "vi_ap": 0.85, "auc": 0.80}
SPECTRAL_ON_CORA = {"auc": 0.846, "ap": 0.885}


def spectral_link_baseline(split, dim: int = 128) -> tuple[float, float]:
    """Test AUC/AP of inner products of the top `dim` eigenvectors of D^-1/2 A D^-1/2."""
    g = split.train_graph
    n = g.num_nodes
    u, v = g.edges[:, 0], g.edges[:, 1]
    adj = sparse.coo_matrix((np.ones(2 * len(u)), (np.r_[u, v], np.r_[v, u])),
                        shape=(n, n)).tocsr()
    deg = np.asarray(adj.sum(axis=1)).ravel()
    inv_sqrt = np.where(deg > 0, 1.0 / np.sqrt(np.maximum(deg, 1.0)), 0.0)
    norm_adj = sparse.diags(inv_sqrt) @ adj @ sparse.diags(inv_sqrt)
    v0 = np.random.default_rng(0).standard_normal(n)
    _, vecs = eigsh(norm_adj, k=dim, which="LA", v0=v0)
    emb = vecs * (deg > 0)[:, None]  # zero rows for isolated nodes

    def score(pairs):
        return (emb[pairs[:, 0]] * emb[pairs[:, 1]]).sum(axis=1)

    pos, neg = score(split.test_pos), score(split.test_neg)
    return auc_score(pos, neg), average_precision_score(pos, neg)


@pytest.mark.slow
def test_criterion_5_desk_scale_link_prediction(desk_runs):
    runs, wall = desk_runs["runs"], desk_runs["wall"]
    vi_auc = runs["vi"][1]["test_auc"]
    vi_ap = runs["vi"][1]["test_ap"]
    auc_2n = runs["2n"][1]["test_auc"]
    auc_mlp = runs["mlp"][1]["test_auc"]
    need = dict(CORA_TARGETS)
    baseline = ""
    if desk_runs["source"] != "cora":
        base_auc, base_ap = spectral_link_baseline(desk_runs["split"])
        need = {
            "vi_auc": base_auc + CORA_TARGETS["vi_auc"] - SPECTRAL_ON_CORA["auc"],
            "vi_ap": base_ap + CORA_TARGETS["vi_ap"] - SPECTRAL_ON_CORA["ap"],
            "auc": base_auc + CORA_TARGETS["auc"] - SPECTRAL_ON_CORA["auc"],
        }
        baseline = f"spectral baseline auc {base_auc:.3f} / ap {base_ap:.3f}; "
    ok = (vi_auc >= need["vi_auc"] and vi_ap >= need["vi_ap"]
          and auc_2n >= need["auc"] and auc_mlp >= need["auc"] and wall <= 1800.0)
    record(5, "desk-scale link prediction", ok,
           f"dataset={desk_runs['source']}; {baseline}"
           f"vi auc {vi_auc:.3f} / ap {vi_ap:.3f} "
           f"(need >={need['vi_auc']:.3f} / >={need['vi_ap']:.3f}); "
           f"2n auc {auc_2n:.3f}, mlp auc {auc_mlp:.3f} "
           f"(need >={need['auc']:.3f}); wall {wall:.0f}s (cap 1800)")


@pytest.mark.slow
def test_criterion_6_dimension_and_fraction_trends(desk_dataset):
    dataset, source = desk_dataset
    graph = dataset.graph
    aucs: dict[int, list[float]] = {4: [], 128: []}
    for trial in range(10):
        split = split_edges(graph, 0.05, 0.10, seed=100 + trial)
        tg = split.train_graph
        multi = build_multipath_pool(tg, 3, 6, 4000, seed=trial, path_budget=200)
        single = build_singlepath_pool(tg, 6, 6000, seed=trial)
        for dim in (4, 128):
            cfg = TrainConfig(backend="2n", embedding_dim=dim, balance=0.9,
                              learning_rate=0.003, epochs=12, patience=6,
                              batch_pairs=512, max_len=6, seed=trial)
            result = train(tg, cfg, multi_pool=multi, single_pool=single,
                           val_pos=split.val_pos, val_neg=split.val_neg)
            aucs[dim].append(evaluate_split(result.state, split, "2n")["test_auc"])
    mean4 = float(np.mean(aucs[4]))
    mean128 = float(np.mean(aucs[128]))
    ok_dim = mean128 >= mean4 - 0.02 and mean4 >= 0.70

    fractions = [0.30, 0.41, 0.52, 0.63, 0.74, 0.85]
    cfg = TrainConfig(backend="2n", embedding_dim=128, balance=0.9,
                      learning_rate=0.003, epochs=12, patience=6,
                      batch_pairs=512, max_len=6, max_paths=6,
                      max_pairs=6000, path_budget=200, seed=0)
    rows, errors = sweep(graph, cfg, "train_fraction", fractions, trials=3,
                         val_fraction=0.05)
    assert not errors, errors
    means = [float(np.mean([r["auc"] for r in rows if r["value"] == f]))
             for f in fractions]
    drops = [means[i + 1] - means[i] for i in range(len(means) - 1)
             if means[i + 1] < means[i] - 1e-9]
    ok_frac = len(drops) == 0 or (len(drops) == 1 and drops[0] >= -0.01)

    curve = ", ".join(f"{f:.2f}:{m:.3f}" for f, m in zip(fractions, means))
    record(6, "dimension and fraction trends", ok_dim and ok_frac,
           f"dataset={source}; mean auc K=4 {mean4:.3f} (need >=0.70), "
           f"K=128 {mean128:.3f} (need >= K4-0.02); fraction curve [{curve}] "
           f"with {len(drops)} inversion(s)")


@pytest.mark.slow
def test_criterion_7_node_classification(desk_runs):
    dataset = desk_runs["dataset"]
    state = desk_runs["runs"]["vi"][0]
    report = classify_nodes(state, dataset, train_fraction=0.10, seed=0,
                            repeats=10)
    shuffled = LabeledDataset(
        graph=dataset.graph,
        labels=np.random.default_rng(1).permutation(dataset.labels),
    )
    baseline = classify_nodes(state, shuffled, train_fraction=0.10, seed=0,
                              repeats=10)
    ok = (report.micro_f1 >= 0.55
          and report.micro_f1 >= baseline.micro_f1 + 0.20)
    record(7, "node classification sanity", ok,
           f"dataset={desk_runs['source']}; micro-F1 {report.micro_f1:.3f} "
           f"(need >=0.55) vs shuffled {baseline.micro_f1:.3f} "
           f"(need gap >=0.20)")


# -- 8: metric invariants -------------------------------------------------------


def test_criterion_8_metric_invariants():
    rng = np.random.default_rng(88)
    cases = 0

    transforms = (
        lambda x: 3.0 * x + 1.0,
        lambda x: np.exp(np.clip(x, -20, 20)),
        lambda x: x ** 3 + x,
    )
    for _ in range(150):
        pos = rng.normal(size=int(rng.integers(2, 26)))
        neg = rng.normal(size=int(rng.integers(2, 26)))
        base_auc = auc_score(pos, neg)
        base_ap = average_precision_score(pos, neg)
        for f in transforms:
            assert auc_score(f(pos), f(neg)) == pytest.approx(base_auc, abs=1e-12)
            assert average_precision_score(f(pos), f(neg)) == pytest.approx(
                base_ap, abs=1e-12)
            cases += 1

    k = 6
    for backend in BACKENDS:
        prng = np.random.default_rng(13)
        params = init_metric_params(backend, k, prng, hidden=8)
        state = ModelState(EmbeddingMatrix(prng.normal(size=(15, k))), params)
        for _ in range(100):
            i, j = rng.choice(15, size=2, replace=False)
            lhs = float(score_pairs(state, np.array([[i, j]]), backend)[0])
            rhs = float(score_pairs(state, np.array([[j, i]]), backend)[0])
            assert lhs == pytest.approx(rhs, abs=1e-12)
            cases += 1

    for _ in range(150):
        n_pos = int(rng.integers(1, 20))
        n_neg = int(rng.integers(1, 20))
        pos = rng.uniform(1.0, 2.0, size=n_pos)
        neg = rng.uniform(-1.0, 0.0, size=n_neg)
        assert auc_score(pos, neg) == 1.0
        assert average_precision_score(pos, neg) == 1.0
        cases += 1
        spoiled = neg.copy()
        spoiled[0] = 3.0  # one negative outranks every positive
        assert auc_score(pos, spoiled) < 1.0
        assert average_precision_score(pos, spoiled) < 1.0
        cases += 1

    record(8, "metric invariants", cases >= 1000,
           f"{cases} randomized cases: monotone-transform invariance, "
           f"score symmetry, perfect-ranking equalities")
