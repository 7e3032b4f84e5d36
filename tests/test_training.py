"""Objective values against hand computations, gradient checks, and the loop."""

from dataclasses import asdict, replace

import numpy as np
import pytest

from objective import full_objective
import pathembed.training
from pathembed.config import ConfigError, TrainConfig, parse_section
from pathembed.evaluation import score_pairs
from pathembed.graph import Graph, split_edges
from pathembed.paths import Path, SinglePathSet, build_multipath_pool, build_singlepath_pool
from pathembed.relations import BACKENDS, EmbeddingMatrix, TwoNorm
from pathembed.training import (
    ADAM_EPS,
    ModelState,
    TrainingError,
    _Cycler,
    _tensors,
    adam_step,
    build_objective,
    compile_multipath,
    compile_singlepath,
    contrast_triplets,
    init_state,
    load_checkpoint,
    make_step_batch,
    pool_arguments,
    save_checkpoint,
    save_history,
    train,
)

FOUR_CYCLE = np.array([[0, 1], [1, 2], [2, 3], [0, 3]])
CYCLE_WITH_TAIL = np.array([[0, 1], [1, 2], [2, 3], [0, 3], [3, 4], [4, 5], [5, 6]])
PATH_FIVE = np.array([[0, 1], [1, 2], [2, 3], [3, 4]])
CYCLES_WITH_TAILS = np.array([[0, 1], [1, 2], [2, 3], [0, 3], [0, 2], [3, 4], [4, 5], [5, 6],
                              [6, 7], [7, 8], [8, 5], [6, 9], [9, 10], [10, 11], [9, 11],
                              [1, 12], [12, 13]])


def small_cfg(**overrides) -> TrainConfig:
    base = dict(
        backend="2n",
        embedding_dim=4,
        hidden_dim=8,
        balance=0.5,
        learning_rate=0.01,
        epochs=2,
        batch_pairs=16,
        max_len=4,
        max_paths=4,
        max_pairs=80,
        seed=3,
    )
    base.update(overrides)
    return TrainConfig(**base)


def pools_for(graph: Graph, cfg: TrainConfig):
    mp = build_multipath_pool(graph, cfg.max_len, cfg.max_paths, cfg.max_pairs, cfg.seed)
    sp = build_singlepath_pool(graph, cfg.max_len, cfg.max_pairs, cfg.seed)
    return mp, sp


def vi_noise(cfg: TrainConfig, graph: Graph, seed=0):
    rng = np.random.default_rng(seed)
    return rng.standard_normal((graph.num_edges, cfg.embedding_dim))


# -- config ---------------------------------------------------------------------


def test_config_defaults_are_valid():
    TrainConfig().validate()


@pytest.mark.parametrize(
    "field,value",
    [
        ("backend", "euclid"),
        ("balance", -0.1),
        ("balance", 1.5),
        ("learning_rate", 0.0),
        ("epochs", 0),
        ("batch_pairs", 0),
        ("embedding_dim", 0),
        ("max_len", 0),
        ("max_paths", 0),
        ("max_paths", 1),
        ("patience", 0),
        ("max_pairs", 0),
        ("path_budget", 0),
        ("embedding_dim", "8"),
        ("epochs", 2.5),
        ("learning_rate", "0.01"),
        ("backend", ["vi"]),
        ("balance", None),
        ("max_pairs", 1.5),
        ("patience", True),
    ],
)
def test_config_rejects_bad_values(field, value):
    cfg = TrainConfig(**{field: value})
    with pytest.raises(ConfigError, match=field):
        cfg.validate()


def test_config_takes_an_int_for_a_float_and_null_for_an_optional_int():
    small_cfg(balance=1, learning_rate=1, max_pairs=None, path_budget=None).validate()


def test_config_round_trips_through_dict():
    cfg = small_cfg(backend="vi", balance=0.25, max_pairs=7)
    again = parse_section(TrainConfig, asdict(cfg))
    assert again == cfg


def test_config_rejects_unknown_keys():
    with pytest.raises(ConfigError):
        parse_section(TrainConfig, {"learning_rte": 0.1})


def test_pool_arguments_default_to_ten_pairs_per_edge():
    g = Graph(7, CYCLE_WITH_TAIL)
    multi, single = pool_arguments(small_cfg(max_pairs=None, path_budget=9), g)
    assert multi == {"max_len": 4, "max_paths": 4, "max_pairs": 10 * g.num_edges,
                     "seed": 3, "path_budget": 9}
    assert single == {"max_len": 4, "max_pairs": 10 * g.num_edges, "seed": 3}
    for cfg, graph, cap in ((small_cfg(max_pairs=None), Graph(3, np.empty((0, 2))), 10),
                            (small_cfg(max_pairs=7), g, 7)):
        assert [args["max_pairs"] for args in pool_arguments(cfg, graph)] == [cap, cap]


# -- initialization --------------------------------------------------------------


def test_init_state_bounds():
    g = Graph(6, CYCLE_WITH_TAIL[:5])
    cfg = small_cfg(backend="vi", embedding_dim=9)
    st = init_state(cfg, g)
    bound = 1.0 / np.sqrt(9)
    assert st.embeddings.values.shape == (6, 9)
    assert np.all(np.abs(st.embeddings.values) <= bound)
    # the state is the model: phi and the relation weights, no optimizer state
    assert list(st.trainables()) == ["phi", *st.metric_params]


def test_init_state_is_deterministic():
    g = Graph(5, PATH_FIVE)
    a = init_state(small_cfg(seed=11), g)
    b = init_state(small_cfg(seed=11), g)
    assert np.array_equal(a.embeddings.values, b.embeddings.values)
    c = init_state(small_cfg(seed=12), g)
    assert not np.array_equal(a.embeddings.values, c.embeddings.values)


# -- compiled pools ---------------------------------------------------------------


def test_compile_multipath_flat_layout():
    g = Graph(4, FOUR_CYCLE)
    pool = build_multipath_pool(g, 3, 4, 50, seed=0)
    cm = compile_multipath(pool)
    assert len(cm.num_paths) == len(cm.edges) == len(cm.cmps) == len(pool)
    assert cm.num_paths.sum() == sum(len(s.paths) for s in pool)
    for s, n in enumerate(cm.num_paths):
        _, _, _, path = cm.edges.take(np.array([s]))
        count, a, b = cm.cmps.take(np.array([s]))
        # every path has at least one edge, every set at least one comparison
        assert np.array_equal(np.unique(path), np.arange(n))
        assert count[0] >= 1
        # comparisons name paths of their own set, by local id
        assert np.all((0 <= a) & (a < b) & (b < n))


def _loop_compile_multipath(pool):
    """compile_multipath's layout built path by path, as the reference."""
    u, v, path, a, b, edge_counts = [], [], [], [], [], []
    for s in pool:
        n, first = len(s.paths), len(u)
        for k, p in enumerate(s.paths):
            u.extend(p.nodes[:-1])
            v.extend(p.nodes[1:])
            path.extend([k] * (len(p.nodes) - 1))
            a.extend([k] * (n - 1 - k))
            b.extend(range(k + 1, n))
        edge_counts.append(len(u) - first)
    return ([len(s.paths) for s in pool], edge_counts, (u, v, path),
            [len(s.paths) * (len(s.paths) - 1) // 2 for s in pool], (a, b))


def test_compile_multipath_matches_loop_reference():
    rng = np.random.default_rng(21)
    pools = [[]]
    for _ in range(12):
        n = int(rng.integers(4, 12))
        edges = [(i, j) for i in range(n) for j in range(i + 1, n) if rng.random() < 0.45]
        g = Graph(n, np.array(edges, dtype=np.int64).reshape(-1, 2))
        pools.append(build_multipath_pool(g, int(rng.integers(2, 5)), int(rng.integers(2, 6)),
                                          40, seed=int(rng.integers(100))))
    assert any(pools[1:])
    for pool in pools:
        cm = compile_multipath(pool)
        num_paths, edge_counts, edge_cols, cmp_counts, cmp_cols = _loop_compile_multipath(pool)
        for got, want in ((cm.num_paths, num_paths),
                          (cm.edges.ptr, np.cumsum([0, *edge_counts])),
                          (cm.cmps.ptr, np.cumsum([0, *cmp_counts])),
                          *zip(cm.edges.cols, edge_cols), *zip(cm.cmps.cols, cmp_cols)):
            assert got.dtype == np.int64
            assert np.array_equal(got, np.asarray(want, dtype=np.int64))


def _loop_compile_singlepath(pool, graph):
    """compile_singlepath's tables built entry by entry, as the reference."""
    u, v, term_i, term_j, inc_term, inc_edge = [], [], [], [], [], []
    edge_counts, term_counts, inc_counts = [], [], []
    for _, path in pool.entries:
        nodes = path.nodes
        first_term, first_inc = len(term_i), len(inc_term)
        u.extend(nodes[:-1])
        v.extend(nodes[1:])
        for a in range(len(nodes)):
            for b in range(a + 1, len(nodes)):
                if graph.has_edge(int(nodes[a]), int(nodes[b])):
                    continue
                inc_term.extend([len(term_i) - first_term] * (b - a))
                inc_edge.extend(range(a, b))
                term_i.append(nodes[a])
                term_j.append(nodes[b])
        edge_counts.append(len(nodes) - 1)
        term_counts.append(len(term_i) - first_term)
        inc_counts.append(len(inc_term) - first_inc)
    return ((edge_counts, (u, v)), (term_counts, (term_i, term_j)),
            (inc_counts, (inc_term, inc_edge)))


def test_compile_singlepath_matches_loop_reference():
    rng = np.random.default_rng(22)
    cases = [(Graph(3, FOUR_CYCLE[:2]), SinglePathSet(()))]
    for _ in range(12):
        n = int(rng.integers(4, 14))
        edges = [(i, j) for i in range(n) for j in range(i + 1, n) if rng.random() < 0.35]
        g = Graph(n, np.array(edges, dtype=np.int64).reshape(-1, 2))
        cases.append((g, build_singlepath_pool(g, int(rng.integers(1, 6)), 60,
                                               seed=int(rng.integers(100)))))
        # random walks that may cross chords, which the builders never return
        walks = []
        for _ in range(8):
            walk = [int(rng.integers(n))]
            while len(walk) < 6 and (step := [w for w in g.adjacency[walk[-1]]
                                              if w not in walk]):
                walk.append(int(rng.choice(step)))
            if len(walk) > 1:
                walks.append(((min(walk[0], walk[-1]), max(walk[0], walk[-1])),
                              Path(tuple(walk))))
        cases.append((g, SinglePathSet(tuple(walks))))
    assert sum(len(pool.entries) for _, pool in cases) > 100
    for g, pool in cases:
        cs = compile_singlepath(pool, g)
        for table, (counts, cols) in zip((cs.edges, cs.terms, cs.incs),
                                         _loop_compile_singlepath(pool, g)):
            for got, want in ((table.ptr, np.cumsum([0, *counts])), *zip(table.cols, cols)):
                assert got.dtype == np.int64
                assert np.array_equal(got, np.asarray(want, dtype=np.int64))


def test_compile_singlepath_skips_graph_adjacent_terms():
    g = Graph(5, PATH_FIVE)
    pool = build_singlepath_pool(g, 4, 50, seed=0)
    cs = compile_singlepath(pool, g)
    term_i, term_j = cs.terms.cols
    for i, j in zip(term_i, term_j):
        assert not g.has_edge(int(i), int(j))
    # the (0, 4) entry contributes non-adjacent spans (0,2),(0,3),(0,4),(1,3),(1,4),(2,4)
    pairs = {(int(a), int(b)) for a, b in zip(term_i, term_j)}
    for want in [(0, 2), (0, 3), (0, 4), (1, 3), (1, 4), (2, 4)]:
        assert want in pairs


def test_step_batch_dedups_directed_pairs():
    g = Graph(4, FOUR_CYCLE)
    pool = build_multipath_pool(g, 3, 4, 50, seed=0)
    cm, cs = compile_multipath(pool), compile_singlepath(SinglePathSet(()), g)
    sb = make_step_batch(BACKENDS["mlp"], cm, cs, np.arange(len(pool)),
                         np.empty(0, dtype=np.int64), np.empty((0, 2), dtype=np.int64), None)
    edge_u, edge_v, _ = cm.edges.cols
    assert len(sb.unique_u) < len(edge_u)  # shared edges collapse
    # every compiled edge is recoverable through the inverse index
    assert np.array_equal(sb.unique_u[sb.m_rel], edge_u)
    assert np.array_equal(sb.unique_v[sb.m_rel], edge_v)


def _reference_batch(multi, single, graph, set_ids, entry_ids):
    """A batch's node pairs and index pairs, built item by item from the pools."""
    m_pairs, edge_path, cmps, n_paths = [], [], [], 0
    for s in set_ids:
        paths = multi[s].paths
        for k, p in enumerate(paths):
            for a, b in zip(p.nodes, p.nodes[1:]):
                m_pairs.append((a, b))
                edge_path.append(n_paths + k)
            cmps += [(n_paths + k, n_paths + j) for j in range(k + 1, len(paths))]
        n_paths += len(paths)
    s_pairs, terms, incs = [], [], []
    for e in entry_ids:
        nodes = single.entries[e][1].nodes
        first_edge = len(s_pairs)
        s_pairs += list(zip(nodes, nodes[1:]))
        for i in range(len(nodes)):
            for j in range(i + 1, len(nodes)):
                if not graph.has_edge(nodes[i], nodes[j]):
                    incs += [(len(terms), first_edge + k) for k in range(i, j)]
                    terms.append((nodes[i], nodes[j]))
    return m_pairs, edge_path, cmps, s_pairs, terms, incs


def test_step_batch_matches_per_item_reference():
    rng = np.random.default_rng(11)
    cases = []
    for g in (Graph(7, CYCLE_WITH_TAIL), Graph(14, CYCLES_WITH_TAILS)):
        mp, sp = pools_for(g, small_cfg(max_len=5))
        assert mp and sp.entries
        cases += [(g, mp, sp), (g, [], sp), (g, mp, SinglePathSet(())),
                  (g, [], SinglePathSet(()))]
    for batch in range(50):
        g, mp, sp = cases[batch % len(cases)]
        cm, cs = compile_multipath(mp), compile_singlepath(sp, g)
        # ids drawn with replacement, so items repeat; every fifth batch is empty
        size = 0 if batch % 5 == 4 else int(rng.integers(1, 12))
        set_ids = rng.integers(0, len(mp), size=size if mp else 0)
        entry_ids = rng.integers(0, len(sp.entries), size=size if sp.entries else 0)
        symmetric = bool(batch % 2)
        sb = make_step_batch(BACKENDS["2n" if symmetric else "vi"], cm, cs, set_ids,
                             entry_ids, np.empty((0, 2), dtype=np.int64), None)

        def pairs(rel):
            return [(int(a), int(b)) for a, b in zip(sb.unique_u[rel], sb.unique_v[rel])]

        def stored(ps):
            return [(min(a, b), max(a, b)) if symmetric else (a, b) for a, b in ps]

        m_pairs, edge_path, cmps, s_pairs, terms, incs = _reference_batch(
            mp, sp, g, set_ids, entry_ids)
        assert pairs(sb.m_rel) == stored(m_pairs)
        assert sb.m_edge_path.tolist() == edge_path
        assert list(zip(sb.m_cmp_a.tolist(), sb.m_cmp_b.tolist())) == cmps
        assert pairs(sb.s_rel) == stored(s_pairs)
        assert pairs(sb.t_rel) == stored(terms)
        assert list(zip(sb.s_inc_term.tolist(), sb.s_inc_edge.tolist())) == incs
        assert (sb.m_num_sets, sb.m_num_paths, sb.s_num_terms) == (
            len(set_ids), sum(len(mp[s].paths) for s in set_ids), len(terms))


class DirectedTwoNorm(TwoNorm):
    """2n's distance without the symmetry claim: every pair is related both ways."""

    name, symmetric = "2n-directed", False


def test_symmetric_step_batch_shares_rows_and_keeps_the_2n_loss(monkeypatch):
    monkeypatch.setitem(BACKENDS, DirectedTwoNorm.name, DirectedTwoNorm())
    g = Graph(7, CYCLE_WITH_TAIL)
    cfg = small_cfg()
    mp, sp = pools_for(g, cfg)
    cm, cs = compile_multipath(mp), compile_singlepath(sp, g)
    sets, entries = np.arange(len(mp)), np.arange(len(sp.entries))
    none = np.empty((0, 2), dtype=np.int64)
    triplets = contrast_triplets(g.edges, np.random.default_rng(2))
    batches = {name: make_step_batch(BACKENDS[name], cm, cs, sets, entries, none, None, triplets)
               for name in ("2n-directed", "2n")}
    directed, shared = batches.values()
    assert np.all(shared.unique_u <= shared.unique_v)
    assert len(shared.unique_u) < len(directed.unique_u)
    assert len(shared.c_unique_u) < len(directed.c_unique_u)
    state = init_state(cfg, g)
    parts = [build_objective(_tensors(state), sb, replace(cfg, backend=name))[1]
             for name, sb in batches.items()]
    for key in ("loss_mul", "loss_sin", "loss_rank"):
        assert parts[1][key] == pytest.approx(parts[0][key], rel=1e-12)


# -- hand-computed objective values ----------------------------------------------


def unit_square_state() -> ModelState:
    square = np.array([[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, 1.0]])
    return ModelState(EmbeddingMatrix(square), {})


def test_loss_mul_unit_square_four_cycle():
    # Adjacent pairs: one 1-edge path (total 1) vs one 3-edge path (total 3),
    # discrepancy (1-3)^2 = 4, for four such sets. Both diagonals: two 2-edge
    # paths of total 2 each, discrepancy 0. Mean over 6 sets = 16/6.
    g = Graph(4, FOUR_CYCLE)
    pool = build_multipath_pool(g, 3, 4, 50, seed=0)
    assert len(pool) == 6
    cfg = small_cfg(embedding_dim=2, max_len=3)
    value = full_objective(unit_square_state(), cfg, multi_pool=pool)[0]["loss_mul"]
    assert value == pytest.approx(8.0 / 3.0, rel=1e-12)


def test_loss_mul_zero_on_tree():
    g = Graph(5, PATH_FIVE)
    cfg = small_cfg()
    pool = build_multipath_pool(g, cfg.max_len, cfg.max_paths, cfg.max_pairs, cfg.seed)
    assert pool == []
    assert full_objective(init_state(cfg, g), cfg, multi_pool=pool)[0]["loss_mul"] == 0.0


def test_loss_sin_surrogate_positive_and_r_equal_gives_one():
    # Collinear embeddings on a 2-node span: r' = R exactly, so every term
    # is exp(0) = 1 and the mean is 1.
    g = Graph(3, np.array([[0, 1], [1, 2]]))
    emb = np.array([[0.0, 0.0], [1.0, 0.0], [2.0, 0.0]])
    state = ModelState(EmbeddingMatrix(emb), {})
    cfg = small_cfg(embedding_dim=2, max_len=2)
    pool = build_singlepath_pool(g, 2, 50, seed=0)
    loss = full_objective(state, cfg, g, single_pool=pool)[0]["loss_sin"]
    assert loss == pytest.approx(1.0, rel=1e-12)


def test_loss_sin_grows_as_margins_shrink():
    # For the scalar backend r' <= R (triangle inequality), and scaling all
    # embeddings scales both sides, so the bounded penalty exp(R - r') is
    # non-decreasing in the scale whenever any gap is strict.
    g = Graph(5, PATH_FIVE)
    cfg = small_cfg(embedding_dim=3)
    pool = build_singlepath_pool(g, cfg.max_len, cfg.max_pairs, cfg.seed)
    rng = np.random.default_rng(7)
    base = rng.normal(size=(5, 3))
    values = []
    for scale in (0.5, 1.0, 2.0, 4.0):
        state = ModelState(EmbeddingMatrix(base * scale), {})
        values.append(full_objective(state, cfg, g, single_pool=pool)[0]["loss_sin"])
    assert values == sorted(values)
    assert values[-1] > values[0]


def test_balance_endpoints_match_constituents_exactly():
    g = Graph(7, CYCLE_WITH_TAIL)
    cfg = small_cfg()
    mp, sp = pools_for(g, cfg)
    state = init_state(cfg, g)
    cfg1 = small_cfg(balance=1.0)
    cfg0 = small_cfg(balance=0.0)
    assert (full_objective(state, cfg1, g, mp, sp)[0]["loss"]
            == full_objective(state, cfg1, multi_pool=mp)[0]["loss_mul"])
    assert (full_objective(state, cfg0, g, mp, sp)[0]["loss"]
            == full_objective(state, cfg0, g, single_pool=sp)[0]["loss_sin"])


def test_total_loss_blends_with_balance():
    g = Graph(7, CYCLE_WITH_TAIL)
    cfg = small_cfg(balance=0.3)
    mp, sp = pools_for(g, cfg)
    state = init_state(cfg, g)
    lm = full_objective(state, cfg, multi_pool=mp)[0]["loss_mul"]
    ls = full_objective(state, cfg, g, single_pool=sp)[0]["loss_sin"]
    tot = full_objective(state, cfg, g, mp, sp)[0]["loss"]
    assert tot == pytest.approx(0.3 * lm + 0.7 * ls, rel=1e-12)


def test_total_loss_vi_subtracts_elbo_and_is_noise_deterministic():
    g = Graph(7, CYCLE_WITH_TAIL)
    cfg = small_cfg(backend="vi", balance=0.5)
    mp, sp = pools_for(g, cfg)
    state = init_state(cfg, g)
    noise = vi_noise(cfg, g)
    a = full_objective(state, cfg, g, mp, sp, noise)[0]["loss"]
    b = full_objective(state, cfg, g, mp, sp, noise)[0]["loss"]
    assert a == b
    other = full_objective(state, cfg, g, mp, sp, vi_noise(cfg, g, seed=5))[0]["loss"]
    assert a != other
    # subtracting the elbo raises the loss relative to the elbo-free blend
    lm = full_objective(state, cfg, multi_pool=mp)[0]["loss_mul"]
    ls = full_objective(state, cfg, g, single_pool=sp)[0]["loss_sin"]
    blend = 0.5 * lm + 0.5 * ls
    assert a != pytest.approx(blend)


def test_half_batch_losses_recombine_to_full():
    g = Graph(7, CYCLE_WITH_TAIL)
    cfg = small_cfg(balance=0.5)
    mp, sp = pools_for(g, cfg)
    cm = compile_multipath(mp)
    cs = compile_singlepath(sp, g)
    state = init_state(cfg, g)

    def parts_for(set_ids, entry_ids):
        sb = make_step_batch(BACKENDS[cfg.backend], cm, cs, set_ids, entry_ids,
                             np.empty((0, 2), dtype=np.int64), None)
        _, parts = build_objective(_tensors(state), sb, cfg)
        return parts, sb

    all_sets = np.arange(len(mp))
    all_entries = np.arange(len(sp.entries))
    full, sb_full = parts_for(all_sets, all_entries)
    h1, sb1 = parts_for(all_sets[: len(mp) // 2], all_entries[: len(sp.entries) // 2])
    h2, sb2 = parts_for(all_sets[len(mp) // 2:], all_entries[len(sp.entries) // 2:])
    n1, n2 = sb1.m_num_sets, sb2.m_num_sets
    assert full["loss_mul"] == pytest.approx(
        (h1["loss_mul"] * n1 + h2["loss_mul"] * n2) / (n1 + n2), rel=1e-12
    )
    t1, t2 = sb1.s_num_terms, sb2.s_num_terms
    assert full["loss_sin"] == pytest.approx(
        (h1["loss_sin"] * t1 + h2["loss_sin"] * t2) / (t1 + t2), rel=1e-12
    )


def test_duplicate_batch_ids_keep_terms_wired_and_weighted():
    # a batch may draw the same set or entry twice (epoch wrap-around);
    # every occurrence must keep its own legs and count once in the mean
    g = Graph(7, CYCLE_WITH_TAIL)
    cfg = small_cfg(balance=0.5)
    mp, sp = pools_for(g, cfg)
    cm = compile_multipath(mp)
    cs = compile_singlepath(sp, g)
    state = init_state(cfg, g)

    def parts_for(set_ids, entry_ids):
        sb = make_step_batch(BACKENDS[cfg.backend], cm, cs, np.asarray(set_ids),
                             np.asarray(entry_ids), np.empty((0, 2), dtype=np.int64), None)
        counts = np.bincount(sb.s_inc_term, minlength=sb.s_num_terms)
        assert sb.s_num_terms == 0 or counts.min() >= 2
        _, parts = build_objective(_tensors(state), sb, cfg)
        return parts

    once = parts_for([0], [0])
    twice = parts_for([0, 0], [0, 0])
    assert twice["loss_mul"] == pytest.approx(once["loss_mul"], rel=1e-12)
    assert twice["loss_sin"] == pytest.approx(once["loss_sin"], rel=1e-12)
    mixed = parts_for([0, 1, 0], [0, 1, 0])
    rng = np.random.default_rng(3)
    for _ in range(20):
        phi = rng.normal(size=state.embeddings.values.shape)
        st = ModelState(EmbeddingMatrix(phi), {})
        # 2n single-path terms obey the triangle inequality, r' <= R, so
        # every exp(R - r') is at least 1 and so is the loss on any batch
        assert full_objective(st, cfg, g, single_pool=sp)[0]["loss_sin"] >= 1.0 - 1e-12
    assert np.isfinite(mixed["loss_mul"]) and np.isfinite(mixed["loss_sin"])


# -- edge contrast term ------------------------------------------------------------


def test_contrast_triplets_pair_edges_with_degree_weighted_negatives():
    g = Graph(7, CYCLE_WITH_TAIL)
    a = contrast_triplets(g.edges, np.random.default_rng(4))
    b = contrast_triplets(g.edges, np.random.default_rng(4))
    assert np.array_equal(a, b)
    assert a.shape == (g.num_edges, 3)
    for src, dst, neg in a:
        assert g.has_edge(int(src), int(dst))
        assert neg != src
    # both orientations occur, and draws follow degree: over many draws the
    # degree-3 node 3 comes up more than twice as often as the degree-1 node 6
    many = contrast_triplets(np.tile(g.edges, (400, 1)), np.random.default_rng(5))
    sources = {tuple(e) for e in many[:, :2]}
    assert (0, 1) in sources and (1, 0) in sources
    counts = np.bincount(many[:, 2], minlength=7)
    assert counts[3] > 2 * counts[6]
    assert counts[:6].min() > 1.5 * counts[6]


def test_contrast_term_hand_computed_and_weighted_on_the_order_side():
    # 2n on collinear points 0, 1, 3: the edge (0, 1) has length 1 and the
    # negative pair (0, 2) length 3, so the term is softplus(1 - 9)
    g = Graph(3, np.array([[0, 1], [1, 2]]))
    state = ModelState(EmbeddingMatrix(np.array([[0.0], [1.0], [3.0]])), {})
    no_paths = SinglePathSet(entries=())
    triplets = np.array([[0, 1, 2], [2, 1, 0]])
    cfg = small_cfg(embedding_dim=1, balance=0.25)
    value = full_objective(state, cfg, g, single_pool=no_paths, contrast=triplets)[0]["loss"]
    # second triplet: edge (2, 1) length 2 vs (2, 0) length 3
    want = 0.75 * (np.log1p(np.exp(1.0 - 9.0)) + np.log1p(np.exp(4.0 - 9.0)))
    assert value == pytest.approx(want, rel=1e-12)
    assert full_objective(state, cfg, g, single_pool=no_paths)[0]["loss"] == 0.0
    full_balance = small_cfg(embedding_dim=1, balance=1.0)
    assert full_objective(state, full_balance, g, contrast=triplets)[0]["loss"] == 0.0


@pytest.mark.parametrize("backend", ["2n", "mlp", "vi"])
def test_contrast_term_ranks_links_by_their_scores(backend):
    # one ranking rule: the contrast sum recomputed from score_pairs, plus
    # the plain distance ranking for the learned relations
    g = Graph(14, CYCLES_WITH_TAILS)
    cfg = small_cfg(backend=backend, balance=0.0)
    state = init_state(cfg, g)
    u, v, w = np.random.default_rng(8).integers(0, g.num_nodes, size=(3, 40))
    parts, _ = full_objective(state, cfg, g, contrast=np.stack([u, v, w], axis=1))
    s_uv = score_pairs(state, np.stack([u, v], axis=1), backend)
    s_uw = score_pairs(state, np.stack([u, w], axis=1), backend)
    want = np.logaddexp(0.0, s_uv ** 2 - s_uw ** 2).sum()
    if backend != "2n":
        phi = state.embeddings.values
        d_uv, d_uw = (np.linalg.norm(phi[u] - phi[x], axis=1) for x in (v, w))
        want += np.logaddexp(0.0, d_uv - d_uw).sum()
    assert parts["loss_rank"] == pytest.approx(want, rel=1e-12)


# -- gradient checks --------------------------------------------------------------


@pytest.mark.parametrize("backend", ["2n", "mlp", "vi"])
def test_gradients_match_finite_differences(backend):
    g = Graph(7, CYCLE_WITH_TAIL)
    cfg = small_cfg(backend=backend, balance=0.4)
    mp, sp = pools_for(g, cfg)
    state = init_state(cfg, g)
    noise = vi_noise(cfg, g) if backend == "vi" else None
    contrast = contrast_triplets(g.edges, np.random.default_rng(1))
    _, grads = full_objective(state, cfg, g, mp, sp, noise, contrast)
    rng = np.random.default_rng(0)
    h = 1e-6
    checked = 0
    for name, arr in state.trainables().items():
        flat = arr.reshape(-1)
        for idx in rng.choice(flat.size, size=min(4, flat.size), replace=False):
            keep = flat[idx]
            flat[idx] = keep + h
            up = full_objective(state, cfg, g, mp, sp, noise, contrast)[0]["loss"]
            flat[idx] = keep - h
            down = full_objective(state, cfg, g, mp, sp, noise, contrast)[0]["loss"]
            flat[idx] = keep
            numeric = (up - down) / (2 * h)
            analytic = grads[name].reshape(-1)[idx]
            assert abs(numeric - analytic) <= 1e-4 * max(1.0, abs(numeric)), (
                f"{name}[{idx}]: analytic {analytic} vs numeric {numeric}"
            )
            checked += 1
    assert checked >= (4 if backend == "2n" else 8)


def test_gradients_zero_when_objective_is_empty():
    g = Graph(5, PATH_FIVE)  # a tree: no multi-path sets
    cfg = small_cfg(backend="mlp", balance=1.0)
    mp, sp = pools_for(g, cfg)
    state = init_state(cfg, g)
    _, grads = full_objective(state, cfg, g, mp, sp)
    for name, grad in grads.items():
        assert not grad.any(), name


# -- optimizer ---------------------------------------------------------------------


def zero_moments(params: dict) -> dict:
    return {n: (np.zeros_like(a), np.zeros_like(a)) for n, a in params.items()}


def test_adam_first_step_closed_form():
    g = Graph(5, PATH_FIVE)
    cfg = small_cfg(learning_rate=0.25)
    params = {"phi": init_state(cfg, g).embeddings.values}
    before = params["phi"].copy()
    grad = np.full_like(before, 0.5)
    grad[0, 0] = -2.0
    moments = zero_moments(params)
    adam_step(params, {"phi": grad}, moments, 1, cfg)
    # with zeroed moments the bias corrections cancel to g / (|g| + eps)
    expected = before - cfg.learning_rate * grad / (np.abs(grad) + ADAM_EPS)
    np.testing.assert_allclose(params["phi"], expected, rtol=0, atol=1e-12)
    m, v = moments["phi"]
    np.testing.assert_allclose(m, 0.1 * grad, rtol=1e-12)
    np.testing.assert_allclose(v, 0.001 * grad * grad, rtol=1e-12)


def test_adam_zero_gradient_is_identity():
    g = Graph(5, PATH_FIVE)
    cfg = small_cfg(backend="mlp")
    params = init_state(cfg, g).trainables()
    before = {n: a.copy() for n, a in params.items()}
    # a zero gradient for phi, and none at all for the relation weights
    adam_step(params, {"phi": np.zeros_like(before["phi"])}, zero_moments(params), 1, cfg)
    for name, arr in params.items():
        assert np.array_equal(arr, before[name]), name


def test_cycler_covers_every_index_each_pass():
    rng = np.random.default_rng(0)
    cyc = _Cycler(7, rng)
    draws = np.concatenate([cyc.take(1) for _ in range(35)])
    counts = np.bincount(draws, minlength=7)
    assert np.all(counts == 5)
    assert _Cycler(0, rng).take(4).size == 0
    assert _Cycler(3, rng).take(10).size == 3


# -- the loop -----------------------------------------------------------------------


def test_train_is_deterministic():
    g = Graph(7, CYCLE_WITH_TAIL)
    cfg = small_cfg(backend="vi", epochs=3)
    r1 = train(g, cfg)
    r2 = train(g, cfg)
    assert np.array_equal(r1.state.embeddings.values, r2.state.embeddings.values)
    assert r1.history == r2.history
    for name in r1.state.metric_params:
        assert np.array_equal(r1.state.metric_params[name], r2.state.metric_params[name])


# Every step's loss and the final norm of phi for small_cfg's 2-epoch run of
# each backend on CYCLES_WITH_TAILS. Values within a tolerance, not a digest,
# since BLAS builds may differ in the last bits.
RECORDED_TRAINING = {
    "2n": ([11.259742963932517, 10.169486750711553, 9.907065744237023, 10.079132480213328,
            9.298347680051586, 9.59367794255415], 1.8129016765814812),
    "mlp": ([12.60664933199786, 12.342619677255977, 12.15991436994074, 12.602820912285372,
             12.135470534822774, 12.374936705759252], 1.9669790920254169),
    "vi": ([20.98562076386405, 20.30071279787505, 20.18651202757054, 20.459461390390857,
            20.002780277299443, 20.30210038525628], 1.905161200916549),
}


@pytest.mark.parametrize("backend", list(BACKENDS))
def test_training_computes_the_recorded_losses(backend):
    losses, phi_norm = RECORDED_TRAINING[backend]
    r = train(Graph(14, CYCLES_WITH_TAILS), small_cfg(backend=backend))
    assert [row["loss"] for row in r.history] == pytest.approx(losses, rel=1e-9, abs=0)
    assert np.linalg.norm(r.state.embeddings.values) == pytest.approx(phi_norm, rel=1e-9,
                                                                      abs=0)


def test_train_returns_its_pools_and_trains_the_same_on_them():
    g = Graph(14, CYCLES_WITH_TAILS)
    cfg = small_cfg(epochs=2)
    built = train(g, cfg)
    multi_args, single_args = pool_arguments(cfg, g)
    assert built.multi_pool == build_multipath_pool(g, **multi_args)
    assert built.single_pool == build_singlepath_pool(g, **single_args)
    given = train(g, cfg, multi_pool=built.multi_pool, single_pool=built.single_pool)
    assert given.multi_pool is built.multi_pool and given.single_pool is built.single_pool
    assert given.history == built.history
    assert np.array_equal(given.state.embeddings.values, built.state.embeddings.values)


def test_train_runs_expected_step_count():
    g = Graph(7, CYCLE_WITH_TAIL)
    cfg = small_cfg(epochs=4, batch_pairs=3)
    r = train(g, cfg)
    steps = 4 * r.metadata["steps_per_epoch"]
    assert [row["step"] for row in r.history] == list(range(1, steps + 1))
    assert r.metadata["steps_per_epoch"] >= 2


def test_train_four_cycle_drives_equivalence_loss_down():
    g = Graph(4, FOUR_CYCLE)
    cfg = small_cfg(embedding_dim=8, balance=1.0, learning_rate=0.01,
                    epochs=100, max_len=3, seed=0)
    mp = build_multipath_pool(g, cfg.max_len, cfg.max_paths, cfg.max_pairs, cfg.seed)
    sp = build_singlepath_pool(g, cfg.max_len, cfg.max_pairs, cfg.seed)
    r = train(g, cfg, multi_pool=mp, single_pool=sp)
    assert full_objective(r.state, cfg, multi_pool=mp)[0]["loss_mul"] < 1e-3


def test_train_on_tree_with_full_balance_is_a_no_op():
    g = Graph(5, PATH_FIVE)
    cfg = small_cfg(backend="mlp", balance=1.0, epochs=2)
    r = train(g, cfg)
    assert r.history
    assert np.array_equal(r.state.embeddings.values, init_state(cfg, g).embeddings.values)


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_train_raises_on_poisoned_state(monkeypatch):
    g = Graph(7, CYCLE_WITH_TAIL)
    cfg = small_cfg(epochs=1)

    def poisoned(cfg, graph):
        state = init_state(cfg, graph)
        state.embeddings.values[0, 0] = np.inf
        return state

    monkeypatch.setattr(pathembed.training, "init_state", poisoned)
    with pytest.raises(TrainingError):
        train(g, cfg)


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_train_names_the_epoch_and_step_of_non_finite_validation_scores():
    rng = np.random.default_rng(2)
    n = 24
    edges = np.concatenate([np.stack([np.arange(n - 1), np.arange(1, n)], axis=1),
                            rng.integers(0, n, size=(60, 2))])
    split = split_edges(Graph(n, edges[edges[:, 0] != edges[:, 1]]), 0.15, 0.15, seed=4)
    # one step per epoch: the step's loss is finite, the phi it leaves is ~1e300
    cfg = small_cfg(learning_rate=1e300, batch_pairs=512)
    with pytest.raises(TrainingError, match="non-finite validation scores in epoch 1 at step 1"):
        train(split.train_graph, cfg, val_pos=split.val_pos, val_neg=split.val_neg)


def test_train_early_stops_and_restores_best():
    rng = np.random.default_rng(2)
    n = 24
    extra = rng.integers(0, n, size=(60, 2))
    edges = np.concatenate([np.stack([np.arange(n - 1), np.arange(1, n)], axis=1), extra])
    edges = edges[edges[:, 0] != edges[:, 1]]
    g = Graph(n, edges)
    split = split_edges(g, 0.15, 0.15, seed=4)
    cfg = small_cfg(epochs=200, patience=3, learning_rate=0.05, seed=1)
    r = train(split.train_graph, cfg, val_pos=split.val_pos, val_neg=split.val_neg)
    assert r.metadata["stopped_early"]
    assert r.metadata["epochs_run"] < 200
    best = r.metadata["best_val_auc"]
    assert best is not None
    from pathembed.evaluation import auc_score, score_pairs

    pos = score_pairs(r.state, split.val_pos, cfg.backend)
    neg = score_pairs(r.state, split.val_neg, cfg.backend)
    assert auc_score(pos, neg) == pytest.approx(best, abs=1e-12)


# -- persistence ---------------------------------------------------------------------


def test_checkpoint_round_trip(tmp_path):
    g = Graph(7, CYCLE_WITH_TAIL)
    cfg = small_cfg(backend="vi", epochs=2)
    r = train(g, cfg)
    path = tmp_path / "model.npz"
    save_checkpoint(r.state, cfg, path)
    state2, cfg2 = load_checkpoint(path)
    assert cfg2 == cfg
    assert np.array_equal(state2.embeddings.values, r.state.embeddings.values)
    assert set(state2.metric_params) == set(r.state.metric_params)
    for name in r.state.metric_params:
        assert np.array_equal(state2.metric_params[name], r.state.metric_params[name])


@pytest.mark.parametrize("backend", list(BACKENDS))
def test_checkpoint_of_each_backend_loads_bit_identical(tmp_path, backend):
    # every array init_state builds is saved and loaded back as it was
    g = Graph(7, CYCLE_WITH_TAIL)
    cfg = small_cfg(backend=backend, hidden_dim=5, epochs=1)
    state = train(g, cfg).state
    path = tmp_path / "model.npz"
    save_checkpoint(state, cfg, path)
    state2, cfg2 = load_checkpoint(path)
    assert cfg2 == cfg
    want, got = pathembed.training._arrays(state), pathembed.training._arrays(state2)
    assert list(got) == list(want)
    for key in want:
        assert got[key].dtype == want[key].dtype
        assert got[key].tobytes() == want[key].tobytes(), key


@pytest.mark.parametrize("backend", list(BACKENDS))
def test_checkpoint_keys_written_are_the_keys_read(tmp_path, monkeypatch, backend):
    # no array goes into a checkpoint that loading does not read back
    cfg = small_cfg(backend=backend, hidden_dim=5, epochs=1)
    path = tmp_path / "model.npz"
    save_checkpoint(train(Graph(7, CYCLE_WITH_TAIL), cfg).state, cfg, path)
    with np.load(path) as data:
        written = set(data.files)
    read = set()
    getitem = np.lib.npyio.NpzFile.__getitem__

    def recording(self, key):
        read.add(key)
        return getitem(self, key)

    monkeypatch.setattr(np.lib.npyio.NpzFile, "__getitem__", recording)
    load_checkpoint(path)
    assert read == written
    assert {k for k in written if not k.startswith("param_")} == {"phi", "version",
                                                                  "config_json"}


def test_history_csv_round_trip(tmp_path):
    history = [
        {"step": 1, "loss": 0.5, "loss_mul": 0.25, "loss_sin": 0.75, "elbo": -1.5,
         "loss_rank": 0.125},
        {"step": 2, "loss": 0.25, "loss_mul": 0.125, "loss_sin": 0.375, "elbo": -1.25,
         "loss_rank": 0.0625},
    ]
    path = tmp_path / "history.csv"
    save_history(history, path)
    lines = path.read_text().strip().splitlines()
    assert lines[0] == "step,loss,loss_mul,loss_sin,elbo,loss_rank"
    assert len(lines) == 3
    first = lines[1].split(",")
    assert int(first[0]) == 1
    assert float(first[1]) == 0.5
    assert float(first[4]) == -1.5
    assert float(first[5]) == 0.125
