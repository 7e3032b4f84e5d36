"""Ranking metrics against brute-force oracles, classifier checks, sweeps."""

from dataclasses import replace

import numpy as np
import pytest

import pathembed.training
from pathembed.evaluation import (
    ClassifierReport,
    _f1_report,
    _fit_logistic,
    auc_score,
    average_precision_score,
    classify_nodes,
    evaluate_split,
    score_pairs,
    sweep,
    write_sweep_csv,
)
from pathembed.graph import Graph, LabeledDataset, split_edges
from pathembed.relations import EmbeddingMatrix, init_metric_params
from pathembed.training import ModelState, TrainConfig, init_state


def brute_auc(pos, neg) -> float:
    wins = 0.0
    for p in pos:
        for n in neg:
            if p > n:
                wins += 1.0
            elif p == n:
                wins += 0.5
    return wins / (len(pos) * len(neg))


def brute_ap(scores, labels) -> float:
    """Mean over positives of the precision among all items scored at least as high."""
    precisions = []
    for s, label in zip(scores, labels):
        if label:
            above = [lab for t, lab in zip(scores, labels) if t >= s]
            precisions.append(sum(above) / len(above))
    return sum(precisions) / len(precisions)


def random_state(backend: str, n: int, k: int, seed: int) -> ModelState:
    rng = np.random.default_rng(seed)
    phi = rng.normal(size=(n, k))
    params = init_metric_params(backend, k, rng, hidden=8)
    return ModelState(EmbeddingMatrix(phi), params)


# -- auc --------------------------------------------------------------------------


def test_auc_enumerated_example():
    # comparisons: .9>.6, .9>.1, .4<.6, .4>.1 -> 3 of 4
    assert auc_score([0.9, 0.4], [0.6, 0.1]) == pytest.approx(0.75)


def test_auc_perfect_and_degenerate():
    assert auc_score([3.0, 2.0], [1.0, 0.0]) == 1.0
    assert auc_score([1.0, 0.0], [3.0, 2.0]) == 0.0
    assert auc_score([1.0, 1.0, 1.0], [1.0, 1.0]) == 0.5


def test_auc_matches_brute_force_with_ties():
    rng = np.random.default_rng(0)
    for _ in range(300):
        n_pos = int(rng.integers(1, 8))
        n_neg = int(rng.integers(1, 8))
        pos = rng.integers(0, 5, size=n_pos) / 4.0
        neg = rng.integers(0, 5, size=n_neg) / 4.0
        assert auc_score(pos, neg) == brute_auc(pos, neg)


def test_auc_monotone_transform_invariance():
    rng = np.random.default_rng(1)
    for _ in range(200):
        pos = rng.normal(size=rng.integers(1, 10))
        neg = rng.normal(size=rng.integers(1, 10))
        base = auc_score(pos, neg)
        for transform in (lambda x: 2.0 * x + 3.0, np.exp, lambda x: x ** 3):
            assert auc_score(transform(pos), transform(neg)) == pytest.approx(
                base, abs=1e-12
            )


def test_auc_requires_both_classes():
    with pytest.raises(ValueError):
        auc_score([], [1.0])
    with pytest.raises(ValueError):
        auc_score([1.0], [])


# -- average precision --------------------------------------------------------------


def test_ap_alternating_example():
    # ranking pos, neg, pos, neg -> (1/1 + 2/3) / 2
    assert average_precision_score([0.9, 0.4], [0.6, 0.1]) == pytest.approx(5.0 / 6.0)


def test_ap_perfect_ranking():
    assert average_precision_score([5.0, 4.0, 3.0], [2.0, 1.0]) == 1.0


def test_ap_matches_brute_force_with_ties():
    rng = np.random.default_rng(2)
    for _ in range(300):
        n_pos = int(rng.integers(1, 8))
        n_neg = int(rng.integers(1, 8))
        pos = rng.integers(0, 4, size=n_pos) / 3.0
        neg = rng.integers(0, 4, size=n_neg) / 3.0
        scores = np.concatenate([pos, neg])
        labels = np.concatenate([np.ones(n_pos, bool), np.zeros(n_neg, bool)])
        assert average_precision_score(pos, neg) == pytest.approx(
            brute_ap(scores, labels), abs=1e-12
        )


def test_ap_scores_each_tie_run_as_one_threshold():
    # all scores tied: one threshold holding everything, so AP = P / (P + N)
    # while AUC reads one half
    for n_pos, n_neg in ((1, 1), (2, 2), (3, 5), (7, 2)):
        pos, neg = np.zeros(n_pos), np.zeros(n_neg)
        assert average_precision_score(pos, neg) == n_pos / (n_pos + n_neg)
        assert auc_score(pos, neg) == 0.5
    # a tie between a positive and a negative: the positive's threshold
    # holds both, so its precision is 2/3, not 1
    assert average_precision_score([1.0, 0.5], [0.5, 0.0]) == pytest.approx((1 + 2 / 3) / 2)


def test_ap_degrades_as_high_negatives_accumulate():
    pos = [1.0, 0.9, 0.8]
    values = []
    for k in range(5):
        neg = [2.0 + i for i in range(k)] + [0.1]
        values.append(average_precision_score(pos, neg))
    assert values == sorted(values, reverse=True)
    assert values[0] > values[-1]


def test_ap_requires_both_classes():
    with pytest.raises(ValueError):
        average_precision_score([1.0], [])


def test_auc_ap_equal_one_iff_separated():
    rng = np.random.default_rng(3)
    for _ in range(200):
        pos = rng.normal(loc=5.0, size=rng.integers(1, 6))
        neg = rng.normal(loc=-5.0, size=rng.integers(1, 6))
        if pos.min() > neg.max():
            assert auc_score(pos, neg) == 1.0
            assert average_precision_score(pos, neg) == 1.0
        mixed_pos = np.append(pos, neg.max() - 1.0)
        assert auc_score(mixed_pos, neg) < 1.0
        assert average_precision_score(mixed_pos, neg) < 1.0


# -- link scores ---------------------------------------------------------------------


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_link_scores_validation():
    for bad in (np.nan, np.inf, -np.inf):
        with pytest.raises(ValueError):
            auc_score([bad, 1.0], [0.0])
        with pytest.raises(ValueError):
            average_precision_score([1.0], [0.0, bad])
    # infinite embeddings give non-finite scores, which evaluation rejects
    g = Graph(8, np.array([[i, i + 1] for i in range(7)]))
    split = split_edges(g, 0.0, 0.3, seed=0)
    state = random_state("2n", n=8, k=3, seed=7)
    state.embeddings.values[:] = np.inf
    with pytest.raises(ValueError):
        evaluate_split(state, split, "2n")


@pytest.mark.parametrize("backend", ["2n", "mlp", "vi"])
def test_score_pair_symmetry(backend):
    state = random_state(backend, n=12, k=5, seed=4)
    rng = np.random.default_rng(5)
    for _ in range(25):
        i, j = rng.choice(12, size=2, replace=False)
        a = score_pairs(state, np.array([[i, j]]), backend)[0]
        b = score_pairs(state, np.array([[j, i]]), backend)[0]
        assert a == pytest.approx(b, abs=1e-12)


def test_score_identical_embeddings_is_maximal():
    phi = np.ones((3, 4))
    phi[2] += 2.0
    state = ModelState(EmbeddingMatrix(phi), {})
    scores = score_pairs(state, np.array([[0, 1], [0, 2]]), "2n")
    assert scores[0] == 0.0
    assert scores[0] > scores[1]


def test_evaluate_split_reports_nan_when_partition_empty():
    g = Graph(8, np.array([[i, i + 1] for i in range(7)]))
    split = split_edges(g, 0.0, 0.3, seed=0)
    state = random_state("2n", n=8, k=3, seed=7)
    out = evaluate_split(state, split, "2n")
    assert np.isnan(out["val_auc"]) and np.isnan(out["val_ap"])
    assert np.isfinite(out["test_auc"]) and np.isfinite(out["test_ap"])


# -- classification -------------------------------------------------------------------


def separable_dataset(n=60, k=4, seed=8):
    rng = np.random.default_rng(seed)
    labels = np.array([i % 2 for i in range(n)])
    phi = rng.normal(scale=0.02, size=(n, k))
    phi += np.where(labels[:, None] == 0, 1.0, -1.0)
    chain = np.stack([np.arange(n - 1), np.arange(1, n)], axis=1)
    graph = Graph(n, chain)
    state = ModelState(EmbeddingMatrix(phi), {})
    return state, LabeledDataset(graph=graph, labels=labels)


def test_f1_report_hand_case():
    y_true = np.array([0, 0, 1, 1, 2])
    y_pred = np.array([0, 1, 1, 1, 0])
    micro, macro = _f1_report(y_true, y_pred, 3)
    assert micro == pytest.approx(0.6)
    # per-class F1: 0.5 (precision 1/2, recall 1/2), 0.8 (2/3, 1), 0 (no hit)
    assert macro == pytest.approx((0.5 + 0.8 + 0.0) / 3)


def _loop_f1_report(y_true, y_pred, num_classes):
    """The per-class counting loop that `_f1_report` replaced, kept as its reference."""
    tp = np.zeros(num_classes)
    fp = np.zeros(num_classes)
    fn = np.zeros(num_classes)
    for c in range(num_classes):
        tp[c] = np.sum((y_pred == c) & (y_true == c))
        fp[c] = np.sum((y_pred == c) & (y_true != c))
        fn[c] = np.sum((y_pred != c) & (y_true == c))
    with np.errstate(invalid="ignore", divide="ignore"):
        precision = np.where(tp + fp > 0, tp / (tp + fp), 0.0)
        recall = np.where(tp + fn > 0, tp / (tp + fn), 0.0)
    denom = 2 * tp.sum() + fp.sum() + fn.sum()
    micro = 2 * tp.sum() / denom if denom > 0 else 0.0
    pc_denom = precision + recall
    per_class_f1 = np.where(pc_denom > 0,
                            2 * precision * recall / np.where(pc_denom > 0, pc_denom, 1.0), 0.0)
    return float(micro), float(per_class_f1.mean())


def test_f1_report_equals_the_loop_reference_exactly():
    rng = np.random.default_rng(11)
    for _ in range(2000):
        num_classes = int(rng.integers(1, 9))
        n = int(rng.integers(1, 401))
        y_true = rng.integers(0, num_classes, size=n)
        # mostly right, as a classifier is, so every count gets exercised
        y_pred = np.where(rng.random(n) < rng.random(), y_true,
                          rng.integers(0, num_classes, size=n))
        assert repr(_f1_report(y_true, y_pred, num_classes)) == \
            repr(_loop_f1_report(y_true, y_pred, num_classes))


def test_fit_logistic_separates_line():
    X = np.array([[-2.0], [-1.5], [-1.0], [1.0], [1.5], [2.0]])
    y = np.array([False, False, False, True, True, True])
    wb = _fit_logistic(X, y)
    decision = X[:, 0] * wb[0] + wb[1]
    assert np.all((decision > 0) == y)


def test_classify_separable_embeddings_is_perfect():
    state, dataset = separable_dataset()
    report = classify_nodes(state, dataset, train_fraction=0.2, seed=0, repeats=3)
    assert isinstance(report, ClassifierReport)
    assert report.micro_f1 == pytest.approx(1.0)
    assert report.macro_f1 == pytest.approx(1.0)


def test_classify_is_deterministic():
    state, dataset = separable_dataset()
    a = classify_nodes(state, dataset, train_fraction=0.2, seed=3, repeats=2)
    b = classify_nodes(state, dataset, train_fraction=0.2, seed=3, repeats=2)
    assert a == b


def test_classify_invariant_to_node_relabeling():
    state, dataset = separable_dataset()
    rng = np.random.default_rng(9)
    perm = rng.permutation(dataset.graph.num_nodes)
    phi_new = np.empty_like(state.embeddings.values)
    phi_new[perm] = state.embeddings.values
    labels_new = np.empty_like(dataset.labels)
    labels_new[perm] = dataset.labels
    relabeled = LabeledDataset(graph=dataset.graph, labels=labels_new)
    report = classify_nodes(
        ModelState(EmbeddingMatrix(phi_new), {}), relabeled,
        train_fraction=0.2, seed=0, repeats=3,
    )
    assert report.micro_f1 == pytest.approx(1.0)


def test_classify_shuffled_labels_lose_signal():
    state, dataset = separable_dataset(n=120)
    rng = np.random.default_rng(10)
    shuffled = LabeledDataset(
        graph=dataset.graph, labels=rng.permutation(dataset.labels)
    )
    report = classify_nodes(state, shuffled, train_fraction=0.2, seed=0, repeats=5)
    assert report.micro_f1 < 0.8


def test_classify_errors_when_classes_cannot_be_covered():
    state, dataset = separable_dataset(n=40)
    # floor(0.03 * 40) = 1 training node can never include both classes
    with pytest.raises(ValueError):
        classify_nodes(state, dataset, train_fraction=0.03, seed=0, repeats=1)


def test_classify_rejects_degenerate_fractions():
    state, dataset = separable_dataset(n=20)
    with pytest.raises(ValueError):
        classify_nodes(state, dataset, train_fraction=0.0)
    with pytest.raises(ValueError):
        classify_nodes(state, dataset, train_fraction=1.0)


def test_classify_unlabeled_nodes_are_ignored():
    state, dataset = separable_dataset(n=50)
    labels = dataset.labels.copy()
    labels[:10] = -1
    partial = LabeledDataset(graph=dataset.graph, labels=labels)
    report = classify_nodes(state, partial, train_fraction=0.2, seed=1, repeats=2)
    assert report.micro_f1 == pytest.approx(1.0)


# -- sweep ------------------------------------------------------------------------------


def sweep_graph(seed=11, n=24):
    rng = np.random.default_rng(seed)
    chain = np.stack([np.arange(n - 1), np.arange(1, n)], axis=1)
    extra = rng.integers(0, n, size=(50, 2))
    extra = extra[extra[:, 0] != extra[:, 1]]
    return Graph(n, np.concatenate([chain, extra]))


def sweep_cfg(**overrides):
    base = dict(backend="2n", embedding_dim=3, epochs=2, batch_pairs=16,
                max_len=3, max_paths=3, max_pairs=60, patience=2, seed=0)
    base.update(overrides)
    return TrainConfig(**base)


def test_sweep_single_point_emits_one_row_per_trial():
    g = sweep_graph()
    rows, errors = sweep(g, sweep_cfg(), "embedding_dim", [3], trials=2)
    assert errors == []
    assert len(rows) == 2
    assert [r["trial"] for r in rows] == [0, 1]
    for row in rows:
        assert row["param"] == "embedding_dim"
        assert row["value"] == 3
        assert 0.0 <= row["auc"] <= 1.0
        assert 0.0 <= row["ap"] <= 1.0
        assert np.isnan(row["micro_f1"])


def test_sweep_isolates_failing_grid_points():
    g = sweep_graph()
    rows, errors = sweep(g, sweep_cfg(), "embedding_dim", [-1, 3, -2, 4], trials=2)
    # points run trial by trial; rows and errors come back in grid order
    assert [(r["value"], r["trial"]) for r in rows] == [(3, 0), (3, 1), (4, 0), (4, 1)]
    assert [(e["value"], e["trial"]) for e in errors] == [(-1, 0), (-1, 1), (-2, 0), (-2, 1)]


def test_sweep_train_fraction_changes_split():
    g = sweep_graph()
    rows, errors = sweep(g, sweep_cfg(), "train_fraction", [0.5, 0.8], trials=1,
                         val_fraction=0.1)
    assert errors == []
    assert [r["value"] for r in rows] == [0.5, 0.8]
    for row in rows:
        assert np.isfinite(row["auc"])


def test_sweep_reports_classification_with_labels():
    g = sweep_graph()
    rng = np.random.default_rng(12)
    labels = rng.integers(0, 2, size=g.num_nodes)
    labels[:2] = [0, 1]  # both classes present
    rows, errors = sweep(g, sweep_cfg(), "embedding_dim", [3], trials=1,
                         labels=labels)
    assert errors == []
    assert 0.0 <= rows[0]["micro_f1"] <= 1.0


def count_pool_builds(monkeypatch) -> dict:
    """Count the pool builds and compiles that train() makes, by function."""
    builds = {"multi": 0, "single": 0, "compile_multi": 0, "compile_single": 0}
    for kind, name in (("multi", "build_multipath_pool"), ("single", "build_singlepath_pool"),
                       ("compile_multi", "compile_multipath"),
                       ("compile_single", "compile_singlepath")):
        def counted(*args, _build=getattr(pathembed.training, name), _kind=kind, **kwargs):
            builds[_kind] += 1
            return _build(*args, **kwargs)
        monkeypatch.setattr(pathembed.training, name, counted)
    return builds


def test_sweep_builds_pools_once_per_split_and_matches_direct_training(monkeypatch):
    g = sweep_graph()
    base = sweep_cfg(embedding_dim=4)
    builds = count_pool_builds(monkeypatch)
    rows, errors = sweep(g, base, "embedding_dim", [3, 5], trials=2)
    assert errors == []
    # one build per trial's split; every point compiles the pools it trains on
    assert builds == {"multi": 2, "single": 2, "compile_multi": 4, "compile_single": 4}
    assert [(r["value"], r["trial"]) for r in rows] == [(3, 0), (3, 1), (5, 0), (5, 1)]
    for row in rows:
        cfg = replace(base, embedding_dim=row["value"], seed=9973 * row["trial"])
        split = split_edges(g, 0.05, 0.10, cfg.seed)
        result = pathembed.training.train(split.train_graph, cfg, val_pos=split.val_pos,
                                          val_neg=split.val_neg)
        metrics = evaluate_split(result.state, split, cfg.backend)
        assert (row["auc"], row["ap"]) == (metrics["test_auc"], metrics["test_ap"])


def test_sweep_builds_pools_for_every_train_fraction(monkeypatch):
    builds = count_pool_builds(monkeypatch)
    rows, errors = sweep(sweep_graph(), sweep_cfg(), "train_fraction", [0.5, 0.8], trials=2,
                         val_fraction=0.1)
    assert errors == [] and len(rows) == 4
    assert builds == {"multi": 4, "single": 4, "compile_multi": 4, "compile_single": 4}


def test_sweep_rejects_empty_grid():
    with pytest.raises(ValueError):
        sweep(sweep_graph(), sweep_cfg(), "embedding_dim", [], trials=1)


def test_write_sweep_csv_format(tmp_path):
    rows = [
        {"param": "embedding_dim", "value": 4, "trial": 0,
         "auc": 0.875, "ap": 0.9, "micro_f1": float("nan")},
    ]
    path = tmp_path / "sweep.csv"
    write_sweep_csv(rows, path)
    lines = path.read_text().strip().splitlines()
    assert lines[0] == "param,value,trial,auc,ap,micro_f1"
    cells = lines[1].split(",")
    assert cells[0] == "embedding_dim"
    assert float(cells[3]) == 0.875
    assert cells[5] == "nan"
