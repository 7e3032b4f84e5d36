"""Objective assembly, exact gradients, Adam, and the training loop.

Every `train()` call compiles both pools into one layout of per-item
tables, ids counting from 0 within their item: path edges as (u, v, path)
and compared path pairs; a single-path term compares a span with its end
nodes' direct pair, a one-row path. Each optimizer step samples a batch
of multi-path sets, single-path entries, and train edges for the ELBO
term (none without one), and pairs every train edge with a fresh negative
node for the edge contrast term. It deduplicates the node pairs that the
path and ELBO terms touch, lays out the contrast links as the backend's
`link_rows`, runs the relation backend once over each set of pairs, and
scatters the results into the loss terms through the autodiff engine:
each pool sums its paths' rows of the relation table with one
`segment_sum`, which reads them in place. A step's graph is dropped as
soon as its gradients are read, before the Adam update, so at most one
step's graph is alive at a time.
"""

from __future__ import annotations

import json
import logging
import time
import zipfile
from dataclasses import asdict, dataclass
from itertools import chain
from pathlib import Path as FilePath

import numpy as np

from pathembed.autodiff import Tensor, gather_rows, pair_distance, row_slice, segment_sum
from pathembed.config import ConfigError, TrainConfig, parse_section
from pathembed.evaluation import auc_score, score_pairs
from pathembed.graph import Graph
from pathembed.paths import (
    MultiPathSet,
    SinglePathSet,
    build_multipath_pool,
    build_singlepath_pool,
)
from pathembed.relations import BACKENDS, Backend, EmbeddingMatrix, init_metric_params

logger = logging.getLogger(__name__)

HISTORY_COLUMNS = ("loss", "loss_mul", "loss_sin", "elbo", "loss_rank")
CHECKPOINT_VERSION = 4


class TrainingError(RuntimeError):
    """Numerical failure during training (NaN/Inf), with step diagnostics."""


@dataclass
class ModelState:
    """A model: the node embeddings and the relation network's weights."""

    embeddings: EmbeddingMatrix
    metric_params: dict[str, np.ndarray]

    def trainables(self) -> dict[str, np.ndarray]:
        out = {"phi": self.embeddings.values}
        out.update(self.metric_params)
        return out


def init_state(cfg: TrainConfig, graph: Graph) -> ModelState:
    """Uniform [-1/sqrt(K), 1/sqrt(K)] embeddings, fan-in metric params."""
    cfg.validate()
    rng = np.random.default_rng(np.random.SeedSequence([int(cfg.seed), 0x1417]))
    k = cfg.embedding_dim
    bound = 1.0 / np.sqrt(k)
    phi = rng.uniform(-bound, bound, size=(graph.num_nodes, k))
    params = init_metric_params(cfg.backend, k, rng, hidden=cfg.hidden_dim)
    return ModelState(EmbeddingMatrix(phi), params)


# -- pool compilation ---------------------------------------------------------


def _starts(counts: np.ndarray) -> np.ndarray:
    """Where each run begins when runs of `counts` rows are laid end to end."""
    return np.cumsum(counts) - counts


@dataclass
class Ragged:
    """Columns of rows grouped by item: item i owns rows ptr[i]:ptr[i + 1]."""

    ptr: np.ndarray
    cols: tuple[np.ndarray, ...]

    @classmethod
    def pack(cls, counts: list[int], *cols: list[int]) -> "Ragged":
        return cls(np.concatenate([[0], np.cumsum(counts, dtype=np.int64)]),
                   tuple(np.asarray(c, dtype=np.int64) for c in cols))

    def __len__(self) -> int:
        return len(self.ptr) - 1

    def take(self, ids: np.ndarray) -> tuple[np.ndarray, ...]:
        """Each item's row count, then every column's rows, for `ids` in order."""
        counts = self.ptr[ids + 1] - self.ptr[ids]
        rows = np.arange(counts.sum()) + np.repeat(self.ptr[ids] - _starts(counts), counts)
        return (counts, *(c[rows] for c in self.cols))


@dataclass
class CompiledPaths:
    """A pool's paths and the pairs of them its loss compares; ids count from 0 within an item."""

    num_paths: np.ndarray     # paths per item, (S,)
    edges: Ragged             # (u, v, path) per path edge
    cmps: Ragged              # (path a, path b) per compared pair


def _pairs_within(sizes: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Every pair (a, b), 0 <= a < b < n, for each n in `sizes`, in row-major order."""
    distinct = np.unique(sizes)
    triu = [np.triu_indices(n, 1) for n in distinct.tolist()]
    pairs = sizes * (sizes - 1) // 2
    # where each size's pairs start in the table of all distinct sizes' pairs
    base = np.zeros(int(distinct.max(initial=0)) + 1, dtype=np.int64)
    base[distinct] = _starts(distinct * (distinct - 1) // 2)
    at = np.arange(pairs.sum()) + np.repeat(base[sizes] - _starts(pairs), pairs)
    return tuple(np.concatenate([np.empty(0, np.int64), *(t[k] for t in triu)])[at]
                 for k in (0, 1))


def compile_multipath(pool: list[MultiPathSet]) -> CompiledPaths:
    """A set's paths, each compared with every later one."""
    num_paths = np.array([len(s.paths) for s in pool], dtype=np.int64)
    nodes = [p.nodes for s in pool for p in s.paths]
    sizes = np.array([len(p) for p in nodes], dtype=np.int64)
    flat = np.fromiter(chain.from_iterable(nodes), dtype=np.int64, count=int(sizes.sum()))
    ends = np.cumsum(sizes)
    # each path's nodes minus its last are its edge starts, minus its first its edge ends
    u, v = np.delete(flat, ends - 1), np.delete(flat, ends - sizes)
    path = np.repeat(np.arange(len(sizes)) - np.repeat(_starts(num_paths), num_paths),
                     sizes - 1)
    a, b = _pairs_within(num_paths)
    return CompiledPaths(num_paths,
                         Ragged.pack(np.add.reduceat(sizes - 1, _starts(num_paths)), u, v, path),
                         Ragged.pack(num_paths * (num_paths - 1) // 2, a, b))


def compile_singlepath(pool: SinglePathSet, graph: Graph) -> CompiledPaths:
    """An entry's T terms, node pairs no edge joins, as path t (its span) vs T + t (the pair)."""
    nodes = [p.nodes for _, p in pool.entries]
    sizes = np.array([len(p) for p in nodes], dtype=np.int64)
    flat = np.fromiter(chain.from_iterable(nodes), dtype=np.int64, count=int(sizes.sum()))
    # node pairs by their positions in flat; those joined by an edge are no terms
    a, b = _pairs_within(sizes)
    pair_entry = np.repeat(np.arange(len(sizes)), sizes * (sizes - 1) // 2)
    first = _starts(sizes)[pair_entry]
    a, b = a + first, b + first
    ti, tj = flat[a], flat[b]
    n = graph.num_nodes
    keep = ~np.isin(np.minimum(ti, tj) * n + np.maximum(ti, tj),
                    graph.edges[:, 0] * n + graph.edges[:, 1])
    a, b, ti, tj, entry = a[keep], b[keep], ti[keep], tj[keep], pair_entry[keep]
    terms = np.bincount(entry, minlength=len(sizes))
    term = np.arange(a.size) - _starts(terms)[entry]
    direct = term + terms[entry]
    # term t sums the path edges of its span, edge k joining flat[k] and flat[k + 1]
    span = b - a
    at = np.repeat(a, span) + np.arange(span.sum()) - np.repeat(_starts(span), span)
    spans = np.bincount(np.repeat(entry, span), minlength=len(sizes))
    # an entry's span rows come first, then its direct rows, one per term
    direct_row = np.zeros(at.size + a.size, dtype=bool)
    direct_row[np.arange(a.size) + np.cumsum(spans)[entry]] = True
    cols = [np.empty(direct_row.size, dtype=np.int64) for _ in range(3)]
    for c, x, y in zip(cols, (flat[at], flat[at + 1], np.repeat(term, span)), (ti, tj, direct)):
        c[~direct_row], c[direct_row] = x, y
    return CompiledPaths(2 * terms, Ragged.pack(spans + terms, *cols),
                         Ragged.pack(terms, term, direct))


@dataclass
class PathBatch:
    """One pool's part of a step batch; path ids count across the batch."""

    rel: np.ndarray           # each path edge's row of the relation table
    path: np.ndarray          # each path edge's path
    num_paths: int
    a: np.ndarray             # compared paths (a, b)
    b: np.ndarray


@dataclass
class StepBatch:
    """Index arrays for one optimizer step, after pair deduplication."""

    unique_u: np.ndarray
    unique_v: np.ndarray
    multi: PathBatch
    single: PathBatch
    num_sets: int             # multi-path sets drawn, the multi-path loss's divisor
    # elbo part
    e_rel: np.ndarray
    e_u: np.ndarray
    e_v: np.ndarray
    noise: np.ndarray | None
    # contrast part: the backend's link rows, not deduplicated, of each
    # (source, neighbor, negative) triplet's (u, v) links, then its (u, w) links
    c_unique_u: np.ndarray
    c_unique_v: np.ndarray


def _unique_pairs(u: np.ndarray, v: np.ndarray, symmetric: bool):
    """Unique pairs in (u, v) order, and each input pair's id among them.

    With `symmetric` a pair and its reverse are one pair, stored as (min, max).
    """
    if symmetric:
        u, v = np.minimum(u, v), np.maximum(u, v)
    # one int64 key per pair; its sort order is the (u, v) order
    width = int(max(u.max(), v.max())) + 1 if u.size else 1
    keys, inverse = np.unique(u * width + v, return_inverse=True)
    return keys // width, keys % width, inverse


def _take_paths(cp: CompiledPaths, ids: np.ndarray):
    """Items `ids`' edges (u, v) and PathBatch's other fields; a batch may draw an item twice."""
    start = _starts(cp.num_paths[ids])
    ec, u, v, path = cp.edges.take(ids)
    cc, a, b = cp.cmps.take(ids)
    return u, v, (path + np.repeat(start, ec), int(cp.num_paths[ids].sum()),
                  a + np.repeat(start, cc), b + np.repeat(start, cc))


def make_step_batch(
    metric: Backend,
    cm: CompiledPaths,
    cs: CompiledPaths,
    set_ids: np.ndarray,
    entry_ids: np.ndarray,
    elbo_pairs: np.ndarray,
    noise: np.ndarray | None,
    contrast: np.ndarray | None = None,
) -> StepBatch:
    """Flatten a batch for `metric` into unique directed node pairs plus per-term ids.

    The contrast triplets get rows of their own, so that terms which need
    more than the relation's magnitude (the vi variance) run only on the
    path and ELBO pairs. For a symmetric metric (r(u, v) = r(v, u), as
    2n's distance) each path and ELBO pair is stored as (min, max), so
    both directions share one row.
    """
    m_u, m_v, multi = _take_paths(cm, set_ids)
    s_u, s_v, single = _take_paths(cs, entry_ids)
    e_u, e_v = elbo_pairs.T

    cu, cv, cw = np.asarray([] if contrast is None else contrast, dtype=np.int64).reshape(-1, 3).T
    c_unique_u, c_unique_v = metric.link_rows(np.concatenate([cu, cu]),
                                              np.concatenate([cv, cw]))

    unique_u, unique_v, inverse = _unique_pairs(
        np.concatenate([m_u, s_u, e_u]), np.concatenate([m_v, s_v, e_v]), metric.symmetric)
    ofs = np.cumsum([m_u.size, s_u.size, e_u.size])
    return StepBatch(
        unique_u=unique_u,
        unique_v=unique_v,
        multi=PathBatch(inverse[: ofs[0]], *multi),
        single=PathBatch(inverse[ofs[0]: ofs[1]], *single),
        num_sets=int(set_ids.size),
        e_rel=inverse[ofs[1]: ofs[2]],
        e_u=e_u,
        e_v=e_v,
        noise=noise,
        c_unique_u=c_unique_u,
        c_unique_v=c_unique_v,
    )


# -- objective ----------------------------------------------------------------


def _rank_loss(x: Tensor) -> Tensor:
    """Sum of softplus(link - negative), where x holds the links' values, then the negatives'."""
    n = x.shape[0] // 2
    return (row_slice(x, 0, n) - row_slice(x, n, 2 * n)).softplus().sum()


def build_objective(
    params_t: dict[str, Tensor], sb: StepBatch, cfg: TrainConfig
) -> tuple[Tensor, dict[str, float]]:
    """The step loss as an autodiff scalar, plus its parts as floats; params_t has "phi"."""
    metric = BACKENDS[cfg.backend]
    phi_t = params_t["phi"]
    if sb.unique_u.size:
        rel = metric.relate(phi_t, sb.unique_u, sb.unique_v, params_t, variance=True)

    terms: list[tuple[float, Tensor]] = []
    parts = {"loss_mul": 0.0, "loss_sin": 0.0, "elbo": 0.0, "loss_rank": 0.0}

    mp, sp = sb.multi, sb.single
    if mp.a.size and cfg.balance > 0.0:
        rp = [segment_sum(t, mp.rel, mp.path, mp.num_paths) for t in metric.summands(rel)]
        d = metric.discrepancy([gather_rows(t, mp.a) for t in rp],
                               [gather_rows(t, mp.b) for t in rp])
        loss_mul = d.sum() * (1.0 / sb.num_sets)
        parts["loss_mul"] = loss_mul.item()
        terms.append((cfg.balance, loss_mul))

    if sp.a.size and cfg.balance < 1.0:
        r = metric.magnitude(segment_sum(rel[0], sp.rel, sp.path, sp.num_paths))
        loss_sin = (gather_rows(r, sp.a) - gather_rows(r, sp.b)).exp().mean()
        parts["loss_sin"] = loss_sin.item()
        terms.append((1.0 - cfg.balance, loss_sin))

    if metric.elbo is not None and sb.e_rel.size:
        elbo_mean = metric.elbo(phi_t, params_t, rel, sb.e_rel, sb.e_u, sb.e_v, sb.noise)
        parts["elbo"] = elbo_mean.item()
        terms.append((-1.0, elbo_mean))

    if sb.c_unique_u.size and cfg.balance < 1.0:
        # softplus(m(u, v)^2 - m(u, w)^2) on the link magnitude m that score_pairs
        # ranks by. Squared, its gradient vanishes at collapse, so the term never
        # fights path constraints that only a collapsed embedding meets.
        loc, _ = metric.relate(phi_t, sb.c_unique_u, sb.c_unique_v, params_t)
        mag = metric.link_magnitude(loc)
        loss_rank = _rank_loss(mag * mag)
        if metric.ranks_distance:  # on the first rows, the links themselves
            n = mag.shape[0]
            loss_rank = loss_rank + _rank_loss(
                pair_distance(phi_t, sb.c_unique_u[:n], sb.c_unique_v[:n]))
        parts["loss_rank"] = loss_rank.item()
        terms.append((1.0 - cfg.balance, loss_rank))

    if not terms:
        total = Tensor(0.0)
    else:
        total = None
        for w, t in terms:
            piece = t if w == 1.0 else t * w
            total = piece if total is None else total + piece
    parts["loss"] = total.item()
    return total, parts


def _tensors(state: ModelState) -> dict[str, Tensor]:
    return {n: Tensor(a, requires_grad=True) for n, a in state.trainables().items()}


def contrast_triplets(edges: np.ndarray, rng: np.random.Generator) -> np.ndarray:
    """(source, neighbor, negative) rows for the edge contrast term, one per edge.

    Each edge is oriented at random. The negative is an endpoint of a
    uniformly drawn edge, so nodes are drawn in proportion to their
    degree; a draw that hits the source takes the drawn edge's other
    endpoint instead.
    """
    edges = np.asarray(edges, dtype=np.int64).reshape(-1, 2)
    m = len(edges)
    flip = rng.random(m) < 0.5
    src = np.where(flip, edges[:, 1], edges[:, 0])
    dst = np.where(flip, edges[:, 0], edges[:, 1])
    drawn = edges[rng.integers(0, m, size=m)]
    side = rng.integers(0, 2, size=m)
    neg = drawn[np.arange(m), side]
    neg = np.where(neg == src, drawn[np.arange(m), 1 - side], neg)
    return np.stack([src, dst, neg], axis=1)


# -- optimizer ----------------------------------------------------------------

ADAM_BETA1, ADAM_BETA2, ADAM_EPS = 0.9, 0.999, 1e-8


def adam_step(params: dict[str, np.ndarray], grads: dict[str, np.ndarray],
              moments: dict[str, tuple[np.ndarray, np.ndarray]], t: int,
              cfg: TrainConfig) -> None:
    """Bias-corrected Adam update of `params` in place, at step t (counting from 1).

    `moments[name]` is the (m, v) pair of `params[name]`, updated in place
    too; a name without a gradient is left alone.
    """
    c1 = 1.0 - ADAM_BETA1 ** t
    c2 = 1.0 - ADAM_BETA2 ** t
    for name, arr in params.items():
        g = grads.get(name)
        if g is None:
            continue
        m, v = moments[name]
        m *= ADAM_BETA1
        m += (1.0 - ADAM_BETA1) * g
        v *= ADAM_BETA2
        v += (1.0 - ADAM_BETA2) * (g * g)
        arr -= cfg.learning_rate * (m / c1) / (np.sqrt(v / c2) + ADAM_EPS)


# -- training loop -------------------------------------------------------------


class _Cycler:
    """Epoch-style sampler: shuffled passes over 0..n-1, batches of b."""

    def __init__(self, n: int, rng: np.random.Generator):
        self.n = int(n)
        self.rng = rng
        self.queue = rng.permutation(self.n)  # draws nothing when n is 0
        self.pos = 0

    def take(self, b: int) -> np.ndarray:
        out = [self.queue[:0]]
        need = min(b, self.n)
        while need > 0:
            chunk = self.queue[self.pos: self.pos + need]
            out.append(chunk)
            self.pos += len(chunk)
            need -= len(chunk)
            if self.pos >= self.n:
                self.queue = self.rng.permutation(self.n)
                self.pos = 0
        return np.concatenate(out)


def pool_arguments(cfg: TrainConfig, graph: Graph) -> tuple[dict, dict]:
    """Keyword arguments of build_multipath_pool and build_singlepath_pool for cfg.

    The pair cap is `cfg.max_pairs`, or 10 per edge of the train graph.
    """
    max_pairs = cfg.max_pairs if cfg.max_pairs is not None else 10 * max(graph.num_edges, 1)
    single = {"max_len": cfg.max_len, "max_pairs": max_pairs, "seed": cfg.seed}
    return {**single, "max_paths": cfg.max_paths, "path_budget": cfg.path_budget}, single


@dataclass
class TrainResult:
    state: ModelState
    history: list[dict]
    metadata: dict
    multi_pool: list[MultiPathSet]    # the pools trained on, passed in or built
    single_pool: SinglePathSet


def train(
    graph: Graph,
    cfg: TrainConfig,
    multi_pool: list[MultiPathSet] | None = None,
    single_pool: SinglePathSet | None = None,
    val_pos: np.ndarray | None = None,
    val_neg: np.ndarray | None = None,
) -> TrainResult:
    """Run the full optimization on a train graph.

    Each epoch covers the larger pool once in shuffled batches (the other
    pool cycles). Every step also ranks each train edge against a fresh
    degree-weighted negative (the contrast term) unless balance is 1.
    With validation edges, training stops once the validation AUC has not
    improved for `cfg.patience` epochs and the best parameters are restored.
    Adam's moments and step count live only for the call: the result's
    state is the model alone. A pool not given is built here, and both
    are compiled into their tables on every call. Each step's autodiff
    graph is freed before the Adam update, so the next forward never runs
    beside it.
    """
    cfg.validate()
    start = time.time()
    multi_args, single_args = pool_arguments(cfg, graph)
    if multi_pool is None:
        multi_pool = build_multipath_pool(graph, **multi_args)
    if single_pool is None:
        single_pool = build_singlepath_pool(graph, **single_args)
    cm, cs = compile_multipath(multi_pool), compile_singlepath(single_pool, graph)

    state = init_state(cfg, graph)
    params = state.trainables()
    moments = {n: (np.zeros_like(a), np.zeros_like(a)) for n, a in params.items()}
    step = 0
    batch_rng = np.random.default_rng(np.random.SeedSequence([int(cfg.seed), 0xBA7C4]))
    noise_rng = np.random.default_rng(np.random.SeedSequence([int(cfg.seed), 0x40153]))
    contrast_rng = np.random.default_rng(np.random.SeedSequence([int(cfg.seed), 0xC0E7A]))

    n_sets, n_entries = len(cm.edges), len(cs.edges)
    metric = BACKENDS[cfg.backend]
    use_contrast = cfg.balance < 1.0 and graph.num_edges > 0
    set_cycler = _Cycler(n_sets, batch_rng)
    entry_cycler = _Cycler(n_entries, batch_rng)
    edge_cycler = _Cycler(graph.num_edges if metric.elbo is not None else 0, batch_rng)
    largest = max(n_sets, n_entries, 1)
    steps_per_epoch = int(np.ceil(largest / cfg.batch_pairs))

    history: list[dict] = []
    best_val = None
    best_params = None
    stale_epochs = 0
    epochs_run = 0
    stopped_early = False
    track_val = bool(
        val_pos is not None and val_neg is not None and len(val_pos) and len(val_neg)
    )

    for epoch in range(cfg.epochs):
        epochs_run = epoch + 1
        for _ in range(steps_per_epoch):
            set_ids = set_cycler.take(cfg.batch_pairs)
            entry_ids = entry_cycler.take(cfg.batch_pairs)
            # without an ELBO both draws are empty and leave their rngs as they are
            elbo_pairs = graph.edges[edge_cycler.take(cfg.batch_pairs)]
            noise = noise_rng.standard_normal((len(elbo_pairs), cfg.embedding_dim))
            contrast = contrast_triplets(graph.edges, contrast_rng) if use_contrast else None
            sb = make_step_batch(metric, cm, cs, set_ids, entry_ids, elbo_pairs, noise,
                                 contrast)
            step += 1
            tensors = _tensors(state)
            total, parts = build_objective(tensors, sb, cfg)
            if not np.isfinite(parts["loss"]):
                raise TrainingError(f"non-finite loss at step {step}: {parts}")
            if total.requires_grad:
                total.backward()
            grads = {n: t.grad for n, t in tensors.items() if t.grad is not None}
            # the graph goes now, not when the next forward returns
            total = tensors = None
            adam_step(params, grads, moments, step, cfg)
            for name, arr in params.items():
                if not np.isfinite(arr).all():
                    raise TrainingError(f"non-finite values in {name} at step {step}")
            history.append({"step": step, **{k: parts[k] for k in HISTORY_COLUMNS}})
        if track_val:
            pos = score_pairs(state, val_pos, cfg.backend)
            neg = score_pairs(state, val_neg, cfg.backend)
            if not (np.isfinite(pos).all() and np.isfinite(neg).all()):
                raise TrainingError(f"non-finite validation scores in epoch {epoch + 1} "
                                    f"at step {step}")
            val_auc = auc_score(pos, neg)
            improved = best_val is None or val_auc > best_val + 1e-6
            if improved:
                best_val = val_auc
                best_params = {n: a.copy() for n, a in params.items()}
                stale_epochs = 0
            else:
                stale_epochs += 1
            logger.info(
                "epoch %d loss %.4f val_auc %.4f%s",
                epoch + 1, history[-1]["loss"], val_auc, " *" if improved else "",
            )
            if stale_epochs >= cfg.patience:
                stopped_early = True
                break
        else:
            logger.info("epoch %d loss %.4f", epoch + 1, history[-1]["loss"])

    if best_params is not None:
        for name, arr in params.items():
            arr[...] = best_params[name]

    metadata = {
        "pool_multi_sets": n_sets,
        "pool_single_entries": n_entries,
        "pool_single_terms": int(cs.cmps.ptr[-1]),
        "steps_per_epoch": steps_per_epoch,
        "epochs_run": epochs_run,
        "stopped_early": stopped_early,
        "wall_time_s": round(time.time() - start, 3),
        "best_val_auc": best_val,
    }
    return TrainResult(state=state, history=history, metadata=metadata,
                       multi_pool=multi_pool, single_pool=single_pool)


def _arrays(state: ModelState) -> dict[str, np.ndarray]:
    """The model's live arrays under their checkpoint names."""
    return {"phi": state.embeddings.values,
            **{"param_" + n: a for n, a in state.metric_params.items()}}


# -- persistence ---------------------------------------------------------------


def save_checkpoint(state: ModelState, cfg: TrainConfig, path: str | FilePath) -> None:
    np.savez_compressed(
        path, **_arrays(state),
        version=np.asarray(CHECKPOINT_VERSION, dtype=np.int64),
        config_json=np.frombuffer(json.dumps(asdict(cfg), sort_keys=True).encode(),
                                  dtype=np.uint8),
    )


def load_checkpoint(path: str | FilePath) -> tuple[ModelState, TrainConfig]:
    """The state and config a checkpoint holds; ConfigError if it is malformed or does not fit.

    Its arrays are those `init_state` builds from the stored config for the
    rows of `phi`, each saved with that shape and finite; others are not read.
    """
    try:
        data = np.load(path)
    except (ValueError, EOFError, zipfile.BadZipFile) as exc:
        raise ConfigError(f"checkpoint {path} is not an .npz archive: {exc}") from None
    if not isinstance(data, np.lib.npyio.NpzFile):
        raise ConfigError(f"checkpoint {path} is not an .npz archive")

    def read(key: str) -> np.ndarray:
        try:
            return data[key]
        except ValueError as exc:  # an object array, which would need pickle
            raise ConfigError(f"checkpoint {path}: {key} cannot be read: {exc}") from None

    with data:
        missing = sorted({"phi", "version", "config_json"} - set(data.files))
        if missing:
            raise ConfigError(f"checkpoint {path}: missing {missing}")
        version = read("version")
        if version.shape != () or version.dtype.kind not in "iu":
            raise ConfigError(f"checkpoint {path}: version must be an integer scalar, "
                              f"got {version.dtype} of shape {version.shape}")
        if version != CHECKPOINT_VERSION:
            raise ConfigError(f"checkpoint {path}: unsupported version {version}")
        try:
            config = json.loads(bytes(read("config_json")).decode())
        except ValueError as exc:
            raise ConfigError(f"checkpoint {path}: config_json is not JSON: {exc}") from None
        if not isinstance(config, dict):
            raise ConfigError(f"checkpoint {path}: config_json is not a mapping")
        cfg = parse_section(TrainConfig, config)
        phi = read("phi")
        # a phi of the wrong rank or with no rows fails the shape check below
        state = init_state(cfg, Graph(max(len(np.atleast_1d(phi)), 1), np.empty((0, 2))))
        arrays = _arrays(state)
        missing = sorted(set(arrays) - set(data.files))
        if missing:
            raise ConfigError(f"checkpoint {path}: missing {missing}")
        for key, a in arrays.items():
            saved = phi if key == "phi" else read(key)
            if saved.shape != a.shape:
                raise ConfigError(f"checkpoint {path}: {key} has shape {saved.shape}, "
                                  f"its config implies {a.shape}")
            if saved.dtype.kind not in "iuf" or not np.isfinite(saved).all():
                raise ConfigError(f"checkpoint {path}: {key} must hold finite numbers")
            a[...] = saved
    return state, cfg


def save_history(history: list[dict], path: str | FilePath) -> None:
    """One CSV row per step: its number and its HISTORY_COLUMNS."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(",".join(["step", *HISTORY_COLUMNS]) + "\n")
        for row in history:
            fh.write(",".join([str(row["step"]),
                               *(f"{row[c]:.10g}" for c in HISTORY_COLUMNS)]) + "\n")
