"""Link-prediction metrics, node classification, and sensitivity sweeps.

Scores are "higher = more likely edge": the negative link magnitude that
the relation backend defines and the edge contrast term trains on.
AUC is the Mann-Whitney U statistic, a tie counting one half. Average
precision takes each run of tied scores as one threshold, so it does not
depend on the order in which pairs are listed. Both reject non-finite
scores.
"""

from __future__ import annotations

import logging
import os
from dataclasses import dataclass, replace
from pathlib import Path as FilePath

import numpy as np

from pathembed.autodiff import Tensor
from pathembed.config import ConfigError
from pathembed.graph import EdgeSplit, Graph, LabeledDataset, split_edges
from pathembed.relations import BACKENDS

logger = logging.getLogger(__name__)


@dataclass(frozen=True)
class ClassifierReport:
    micro_f1: float
    macro_f1: float


# -- scoring -------------------------------------------------------------------


def score_pairs(state, pairs: np.ndarray, backend: str) -> np.ndarray:
    """Symmetric link scores for an (M, 2) array of integer node ids in 0..N-1, else ValueError."""
    metric = BACKENDS.get(backend)
    if metric is None:
        raise ValueError(f"unknown backend {backend!r}")
    pairs = np.asarray(pairs)
    if pairs.ndim != 2 or pairs.shape[1] != 2:
        raise ValueError(f"pairs must be an (M, 2) array, got shape {pairs.shape}")
    if not np.issubdtype(pairs.dtype, np.integer):
        raise ValueError(f"pairs must hold integer node ids, got dtype {pairs.dtype}")
    if pairs.size == 0:
        return np.empty(0, dtype=np.float64)
    num_nodes = state.embeddings.values.shape[0]
    if pairs.min() < 0 or pairs.max() >= num_nodes:
        raise ValueError(f"pairs hold node ids outside 0..{num_nodes - 1}: "
                         f"{pairs.min()} to {pairs.max()}")
    params = {n: Tensor(a) for n, a in state.metric_params.items()}
    loc, _ = metric.relate(Tensor(state.embeddings.values),
                           *metric.link_rows(pairs[:, 0], pairs[:, 1]), params)
    return -metric.link_magnitude(loc).data


# -- ranking metrics -----------------------------------------------------------


def _scores(pos_scores, neg_scores) -> tuple[np.ndarray, np.ndarray]:
    pos = np.asarray(pos_scores, dtype=np.float64).ravel()
    neg = np.asarray(neg_scores, dtype=np.float64).ravel()
    if len(pos) == 0 or len(neg) == 0:
        raise ValueError("ranking metrics need at least one positive and one negative")
    if not (np.isfinite(pos).all() and np.isfinite(neg).all()):
        raise ValueError("scores must be finite")
    return pos, neg


def auc_score(pos_scores: np.ndarray, neg_scores: np.ndarray) -> float:
    """P(random positive outscores random negative), ties count one half."""
    pos_scores, neg_scores = _scores(pos_scores, neg_scores)
    neg_sorted = np.sort(neg_scores)
    below = np.searchsorted(neg_sorted, pos_scores, side="left").sum()
    not_above = np.searchsorted(neg_sorted, pos_scores, side="right").sum()
    u = (below + not_above) / 2.0  # a sum of half-integers, exact in float64
    return float(u / (len(pos_scores) * len(neg_scores)))


def average_precision_score(pos_scores: np.ndarray, neg_scores: np.ndarray) -> float:
    """Mean over positives of the precision at their score's threshold.

    A run of tied scores is one threshold: each positive in it takes the
    precision over everything scored at least as high.
    """
    pos_scores, neg_scores = _scores(pos_scores, neg_scores)
    scores = np.concatenate([pos_scores, neg_scores])
    order = np.argsort(-scores, kind="stable")
    ranked = scores[order]
    hits = order < len(pos_scores)
    # the last rank of each run of equal scores, then that rank for every slot
    run_ends = np.flatnonzero(np.append(ranked[1:] != ranked[:-1], True))
    end = run_ends[np.searchsorted(run_ends, np.arange(len(ranked)))]
    precision = np.cumsum(hits)[end] / (end + 1)
    return float(precision[hits].mean())


def evaluate_split(state, split: EdgeSplit, backend: str) -> dict:
    """AUC and AP per partition of a split; ValueError names one whose scores are not finite."""
    out = {}
    for name, pos, neg in (
        ("val", split.val_pos, split.val_neg),
        ("test", split.test_pos, split.test_neg),
    ):
        if len(pos) and len(neg):
            pos_scores = score_pairs(state, pos, backend)
            neg_scores = score_pairs(state, neg, backend)
            if not (np.isfinite(pos_scores).all() and np.isfinite(neg_scores).all()):
                raise ValueError(f"non-finite {name} scores")
            out[f"{name}_auc"] = auc_score(pos_scores, neg_scores)
            out[f"{name}_ap"] = average_precision_score(pos_scores, neg_scores)
        else:
            out[f"{name}_auc"] = float("nan")
            out[f"{name}_ap"] = float("nan")
    return out


# -- node classification -------------------------------------------------------


LOGISTIC_L2 = 1.0


def _fit_logistic(X: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Binary logistic regression, L2 penalty LOGISTIC_L2 on w; returns (d + 1,) weights."""
    # imported on first use: these imports dominate the CLI's start-up
    from scipy.optimize import minimize
    from scipy.special import expit

    n, d = X.shape
    sign = np.where(y, 1.0, -1.0)

    def objective(wb):
        w, b = wb[:d], wb[d]
        margin = sign * (X @ w + b)
        loss = np.logaddexp(0.0, -margin).sum() + 0.5 * LOGISTIC_L2 * float(w @ w)
        pull = -sign * expit(-margin)
        grad = np.concatenate([X.T @ pull + LOGISTIC_L2 * w, [pull.sum()]])
        return loss, grad

    res = minimize(
        objective,
        np.zeros(d + 1),
        jac=True,
        method="L-BFGS-B",
        tol=1e-6,
        options={"maxiter": 1000},
    )
    return res.x


def _f1_report(y_true: np.ndarray, y_pred: np.ndarray, num_classes: int):
    """Micro and macro F1 of one predicted class per node (at least one node).

    A wrong prediction is one false positive and one false negative, so
    micro-F1 is the accuracy.
    """
    tp = np.bincount(y_true[y_pred == y_true], minlength=num_classes)
    fp = np.bincount(y_pred, minlength=num_classes) - tp
    fn = np.bincount(y_true, minlength=num_classes) - tp
    with np.errstate(invalid="ignore", divide="ignore"):
        precision = np.where(tp + fp > 0, tp / (tp + fp), 0.0)
        recall = np.where(tp + fn > 0, tp / (tp + fn), 0.0)
    micro = np.mean(y_pred == y_true)
    pc_denom = precision + recall
    per_class_f1 = np.where(pc_denom > 0, 2 * precision * recall / np.where(pc_denom > 0, pc_denom, 1.0), 0.0)
    return float(micro), float(per_class_f1.mean())


def classify_nodes(
    state,
    dataset: LabeledDataset,
    train_fraction: float = 0.1,
    seed: int = 0,
    repeats: int = 10,
) -> ClassifierReport:
    """One-vs-rest logistic regression on node embeddings.

    Samples `train_fraction` of the labeled nodes, fits one binary model
    per class on per-dimension standardized features, predicts argmax on
    the held-out labeled nodes, and averages micro/macro F1 over
    `repeats` reseeded splits. A repeat whose train sample misses a
    class is redrawn up to 10 times before erroring.
    """
    if not 0.0 < train_fraction < 1.0:
        raise ValueError("train_fraction must lie strictly between 0 and 1")
    labeled = np.flatnonzero(dataset.labels >= 0)
    if labeled.size == 0:
        raise ValueError("dataset has no labeled nodes")
    X = state.embeddings.values[labeled]
    y = dataset.labels[labeled]
    num_classes = dataset.num_classes
    n_train = max(1, int(np.floor(train_fraction * len(labeled))))
    if n_train >= len(labeled):
        raise ValueError("train_fraction leaves no evaluation nodes")

    micro_list, macro_list = [], []
    for rep in range(repeats):
        rng = np.random.default_rng(np.random.SeedSequence([int(seed), 0xC1A5, rep]))
        train_idx = None
        for _ in range(10):
            perm = rng.permutation(len(labeled))
            cand = perm[:n_train]
            if len(np.unique(y[cand])) == num_classes:
                train_idx = cand
                break
        if train_idx is None:
            raise ValueError(
                f"could not draw a train split containing all {num_classes} classes"
            )
        test_idx = np.setdiff1d(np.arange(len(labeled)), train_idx)
        mu = X[train_idx].mean(axis=0)
        sd = X[train_idx].std(axis=0)
        sd = np.where(sd > 0, sd, 1.0)
        Xs = (X - mu) / sd
        decision = np.empty((len(test_idx), num_classes))
        for c in range(num_classes):
            wb = _fit_logistic(Xs[train_idx], y[train_idx] == c)
            decision[:, c] = Xs[test_idx] @ wb[:-1] + wb[-1]
        y_pred = decision.argmax(axis=1)
        micro, macro = _f1_report(y[test_idx], y_pred, num_classes)
        micro_list.append(micro)
        macro_list.append(macro)
    return ClassifierReport(
        micro_f1=float(np.mean(micro_list)),
        macro_f1=float(np.mean(macro_list)),
    )


# -- sensitivity sweeps ---------------------------------------------------------

SWEEP_COLUMNS = ("param", "value", "trial", "auc", "ap", "micro_f1")
_TRIAL_SEED_STRIDE = 9973


def _sweep_point(graph, base_cfg, param, value, trial, labels, val_fraction,
                 test_fraction, pools: list):
    """One grid point's row. `pools` is a one-slot cache: [(pool key, pools)] or [].

    A point whose train graph and pool arguments equal the cached key
    trains on the cached pools, so it builds none; any other point empties
    the slot before its build and fills it with its own. `train()`
    validates the point's config.
    """
    # deferred: training imports this module
    from pathembed.training import pool_arguments, train

    cfg = replace(base_cfg, seed=base_cfg.seed + _TRIAL_SEED_STRIDE * trial)
    if param == "train_fraction":
        frac = float(value)
        if not 0.0 < frac < 1.0 - val_fraction:
            raise ValueError(f"train_fraction {frac} out of range")
        split = split_edges(graph, val_fraction, 1.0 - val_fraction - frac, cfg.seed)
    else:
        cfg = replace(cfg, **{param: value})
        split = split_edges(graph, val_fraction, test_fraction, cfg.seed)
    tg = split.train_graph
    key = (tg.num_nodes, tg.edges.tobytes(), *pool_arguments(cfg, tg))
    if pools and pools[0][0] != key:
        pools.clear()
    multi_pool, single_pool = pools[0][1] if pools else (None, None)
    result = train(tg, cfg, multi_pool=multi_pool, single_pool=single_pool,
                   val_pos=split.val_pos, val_neg=split.val_neg)
    pools[:] = [(key, (result.multi_pool, result.single_pool))]
    metrics = evaluate_split(result.state, split, cfg.backend)
    micro = float("nan")
    if labels is not None:
        dataset = LabeledDataset(graph=graph, labels=labels)
        try:
            report = classify_nodes(result.state, dataset, seed=cfg.seed, repeats=1)
        except (ValueError, RuntimeError) as exc:
            # classification can be infeasible (for instance a class count
            # larger than the train sample); link metrics are still valid
            logger.warning("classification skipped for %s=%s: %s",
                           param, value, exc)
        else:
            micro = report.micro_f1
    return {
        "param": param,
        "value": value,
        "trial": trial,
        "auc": metrics["test_auc"],
        "ap": metrics["test_ap"],
        "micro_f1": micro,
    }


def sweep(
    graph: Graph,
    base_cfg,
    param: str,
    values,
    trials: int = 10,
    labels: np.ndarray | None = None,
    val_fraction: float = 0.05,
    test_fraction: float = 0.10,
    out: str | FilePath | None = None,
) -> tuple[list[dict], list[dict]]:
    """Train and evaluate a grid of settings, several trials per value.

    `param` is either a training-config field or "train_fraction" (which
    varies the edge split instead: test takes what train gives up, with a
    fixed validation slice). Returns (rows, errors), both in grid order;
    a failing grid point is recorded in `errors` and the sweep continues.

    Points run trial by trial, so the points of one trial follow each
    other. A trial's split does not depend on `param` unless it is
    "train_fraction", so consecutive points whose train graph and pool
    arguments match train on the pools the first of them built.

    With `out`, the grid points whose rows that CSV already holds (see
    `read_sweep_rows`) are skipped and their rows returned as they are,
    and the file is rewritten in grid order after every point run, so an
    interrupted sweep resumes where it stopped.
    """
    if not values:
        raise ValueError("sweep needs a non-empty value grid")
    keys = [(str(v), t) for v in values for t in range(trials)]
    done = {}
    if out is not None and FilePath(out).exists():
        done = {(r["value"], r["trial"]): r for r in read_sweep_rows(out, param, values, trials)}

    failed = {}
    pools: list = []
    for trial, value in ((t, v) for t in range(trials) for v in values):
        key = (str(value), trial)
        if key in done:
            continue
        try:
            done[key] = _sweep_point(
                graph, base_cfg, param, value, trial, labels, val_fraction,
                test_fraction, pools)
        except Exception as exc:  # noqa: BLE001 - per-point isolation
            logger.warning("sweep point %s failed: %s", (value, trial), exc)
            failed[key] = {"param": param, "value": value, "trial": trial, "error": str(exc)}
        if out is not None:
            write_sweep_csv([done[k] for k in keys if k in done], out)
    return [done[k] for k in keys if k in done], [failed[k] for k in keys if k in failed]


def write_sweep_csv(rows: list[dict], path: str | FilePath) -> None:
    """Write through a temp file, so that an interrupted write leaves the old file."""
    tmp = f"{path}.tmp"
    with open(tmp, "w", encoding="utf-8") as fh:
        fh.write(",".join(SWEEP_COLUMNS) + "\n")
        for row in rows:
            fh.write(
                f"{row['param']},{row['value']},{row['trial']},"
                f"{row['auc']:.10g},{row['ap']:.10g},{row['micro_f1']:.10g}\n"
            )
    os.replace(tmp, path)


def read_sweep_rows(path: str | FilePath, param: str, values, trials: int) -> list[dict]:
    """The rows of an interrupted sweep, for resuming the grid (param, values, trials).

    Raises ConfigError if a row is malformed or the file does not hold a
    part of that grid.
    """
    grid = {(str(v), t) for v in values for t in range(trials)}
    rows: list[dict] = []
    with open(path, "r", encoding="utf-8") as fh:
        header = fh.readline().strip()
        if header != ",".join(SWEEP_COLUMNS):
            raise ConfigError(f"existing sweep file {path} has unexpected columns {header!r}")
        for lineno, line in enumerate(fh, 2):
            line = line.strip()
            if not line:
                continue
            try:
                name, value, trial, auc, ap, micro_f1 = line.split(",")
                row = {"param": name, "value": value, "trial": int(trial), "auc": float(auc),
                       "ap": float(ap), "micro_f1": float(micro_f1)}
            except ValueError:
                raise ConfigError(f"existing sweep file {path}, line {lineno}: "
                                  f"malformed row {line!r}") from None
            if name != param:
                raise ConfigError(
                    f"existing sweep file {path} holds param {name!r}, "
                    f"config asks for {param!r}"
                )
            if (value, row["trial"]) not in grid:
                raise ConfigError(
                    f"existing sweep file {path} holds {param}={value} trial "
                    f"{trial}, outside the config's grid; use a new output file"
                )
            rows.append(row)
    return rows
