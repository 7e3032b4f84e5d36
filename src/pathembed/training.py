"""Objective assembly, exact gradients, Adam, and the training loop.

Pools are compiled once into flat index arrays (edge endpoints, path ids,
comparison pairs, term incidences). Each optimizer step samples a batch
of multi-path sets, single-path entries, and (vi backend) train edges for
the ELBO term, and pairs every train edge with a fresh negative node for
the edge contrast term. It deduplicates the node pairs that the path and
ELBO terms touch, and separately those of the contrast term, runs the
relation backend once over each set of unique pairs, and scatters the
results into the loss terms through the autodiff engine.
"""

from __future__ import annotations

import json
import logging
import time
from dataclasses import dataclass, field, fields
from pathlib import Path as FilePath

import numpy as np

from pathembed.autodiff import Tensor, gather_rows, pair_distance, segment_sum
from pathembed.graph import Graph
from pathembed.paths import (
    MultiPathSet,
    SinglePathSet,
    build_multipath_pool,
    build_singlepath_pool,
)
from pathembed.relations import (
    BACKENDS,
    EmbeddingMatrix,
    ShapeError,
    init_metric_params,
    validate_params,
)

logger = logging.getLogger(__name__)

SINGLE_MODES = ("bounded", "unbounded")
HISTORY_COLUMNS = ("loss", "loss_mul", "loss_sin", "elbo", "loss_rank")
CHECKPOINT_VERSION = 2


class ConfigError(ValueError):
    """Invalid configuration; the CLI maps this to exit code 2."""


class TrainingError(RuntimeError):
    """Numerical failure during training (NaN/Inf), with step diagnostics."""


@dataclass
class TrainConfig:
    backend: str = "vi"
    embedding_dim: int = 128
    hidden_dim: int = 128
    balance: float = 0.5              # multi-path weight; 1 - balance on order + contrast
    learning_rate: float = 0.001
    epochs: int = 200
    batch_pairs: int = 512
    max_len: int = 10
    max_paths: int = 10
    max_pairs: int | None = None      # default 10 * E at build time
    mc_samples: int = 1
    single_mode: str = "bounded"      # exp(R - r'); "unbounded" is -exp(r' - R)
    symmetric_kl: bool = False
    grad_clip: float = 5.0            # applied in unbounded mode only
    patience: int = 20
    path_budget: int | None = 2000    # DFS descents per multi-path pair
    seed: int = 0

    def validate(self) -> None:
        if self.backend not in BACKENDS:
            raise ConfigError(f"backend must be one of {tuple(BACKENDS)}, got {self.backend!r}")
        if self.single_mode not in SINGLE_MODES:
            raise ConfigError(f"single_mode must be one of {SINGLE_MODES}")
        if not 0.0 <= self.balance <= 1.0:
            raise ConfigError("balance must lie in [0, 1]")
        if self.learning_rate <= 0:
            raise ConfigError("learning_rate must be positive")
        for name in ("embedding_dim", "hidden_dim", "epochs", "batch_pairs",
                     "max_len", "max_paths", "mc_samples", "patience"):
            if getattr(self, name) < 1:
                raise ConfigError(f"{name} must be >= 1")
        for name in ("max_pairs", "path_budget"):
            if getattr(self, name) is not None and getattr(self, name) < 1:
                raise ConfigError(f"{name} must be >= 1 when set")
        if self.grad_clip <= 0:
            raise ConfigError("grad_clip must be positive")

    def to_dict(self) -> dict:
        return {f.name: getattr(self, f.name) for f in fields(self)}

    @classmethod
    def from_dict(cls, data: dict) -> "TrainConfig":
        known = {f.name for f in fields(cls)}
        unknown = set(data) - known
        if unknown:
            raise ConfigError(f"unknown training option(s): {sorted(unknown)}")
        cfg = cls(**data)
        cfg.validate()
        return cfg


@dataclass
class ModelState:
    embeddings: EmbeddingMatrix
    metric_params: dict[str, np.ndarray]
    adam_m: dict[str, np.ndarray] = field(default_factory=dict)
    adam_v: dict[str, np.ndarray] = field(default_factory=dict)
    step: int = 0

    def trainables(self) -> dict[str, np.ndarray]:
        out = {"phi": self.embeddings.values}
        out.update(self.metric_params)
        return out

    def check_finite(self) -> None:
        for name, arr in self.trainables().items():
            if not np.isfinite(arr).all():
                raise TrainingError(f"non-finite values in {name} at step {self.step}")


def init_state(cfg: TrainConfig, graph: Graph) -> ModelState:
    """Uniform [-1/sqrt(K), 1/sqrt(K)] embeddings, fan-in metric params."""
    cfg.validate()
    rng = np.random.default_rng(np.random.SeedSequence([int(cfg.seed), 0x1417]))
    k = cfg.embedding_dim
    bound = 1.0 / np.sqrt(k)
    phi = rng.uniform(-bound, bound, size=(graph.num_nodes, k))
    params = init_metric_params(cfg.backend, k, rng, hidden=cfg.hidden_dim)
    validate_params(cfg.backend, k, params)
    state = ModelState(EmbeddingMatrix(phi), params)
    for name, arr in state.trainables().items():
        state.adam_m[name] = np.zeros_like(arr)
        state.adam_v[name] = np.zeros_like(arr)
    return state


# -- pool compilation ---------------------------------------------------------


@dataclass
class CompiledMulti:
    edge_u: np.ndarray        # flat path edges
    edge_v: np.ndarray
    edge_ptr: np.ndarray      # per-path edge ranges, (P + 1,)
    path_ptr: np.ndarray      # per-set path ranges, (S + 1,)
    cmp_a: np.ndarray         # unordered path-pair comparisons, global ids
    cmp_b: np.ndarray
    cmp_ptr: np.ndarray       # per-set comparison ranges, (S + 1,)

    @property
    def num_sets(self) -> int:
        return len(self.path_ptr) - 1

    @property
    def num_paths(self) -> int:
        return len(self.edge_ptr) - 1


@dataclass
class CompiledSingle:
    edge_u: np.ndarray        # flat entry-path edges
    edge_v: np.ndarray
    edge_ptr: np.ndarray      # per-entry edge ranges
    term_i: np.ndarray        # non-adjacent pair endpoints, path order
    term_j: np.ndarray
    term_ptr: np.ndarray      # per-entry term ranges
    inc_term: np.ndarray      # incidence: term id (global) per (term, edge)
    inc_edge: np.ndarray      # incidence: edge slot (global) per (term, edge)
    inc_ptr: np.ndarray       # per-entry incidence ranges

    @property
    def num_entries(self) -> int:
        return len(self.edge_ptr) - 1

    @property
    def num_terms(self) -> int:
        return len(self.term_i)


def compile_multipath(pool: list[MultiPathSet]) -> CompiledMulti:
    edge_u, edge_v = [], []
    edge_ptr = [0]
    path_ptr = [0]
    cmp_a, cmp_b = [], []
    cmp_ptr = [0]
    path_id = 0
    for s in pool:
        first = path_id
        for p in s.paths:
            nodes = p.nodes
            edge_u.extend(nodes[:-1])
            edge_v.extend(nodes[1:])
            edge_ptr.append(len(edge_u))
            path_id += 1
        for a in range(first, path_id):
            for b in range(a + 1, path_id):
                cmp_a.append(a)
                cmp_b.append(b)
        path_ptr.append(path_id)
        cmp_ptr.append(len(cmp_a))
    ai = np.asarray
    return CompiledMulti(
        ai(edge_u, dtype=np.int64), ai(edge_v, dtype=np.int64),
        ai(edge_ptr, dtype=np.int64), ai(path_ptr, dtype=np.int64),
        ai(cmp_a, dtype=np.int64), ai(cmp_b, dtype=np.int64),
        ai(cmp_ptr, dtype=np.int64),
    )


def compile_singlepath(pool: SinglePathSet, graph: Graph) -> CompiledSingle:
    edge_u, edge_v = [], []
    edge_ptr = [0]
    term_i, term_j = [], []
    term_ptr = [0]
    inc_term, inc_edge = [], []
    inc_ptr = [0]
    for _, path in pool.entries:
        nodes = path.nodes
        base = len(edge_u)
        edge_u.extend(nodes[:-1])
        edge_v.extend(nodes[1:])
        edge_ptr.append(len(edge_u))
        for a in range(len(nodes)):
            for b in range(a + 1, len(nodes)):
                if graph.has_edge(int(nodes[a]), int(nodes[b])):
                    continue
                t = len(term_i)
                term_i.append(nodes[a])
                term_j.append(nodes[b])
                inc_term.extend([t] * (b - a))
                inc_edge.extend(range(base + a, base + b))
        term_ptr.append(len(term_i))
        inc_ptr.append(len(inc_term))
    ai = np.asarray
    return CompiledSingle(
        ai(edge_u, dtype=np.int64), ai(edge_v, dtype=np.int64),
        ai(edge_ptr, dtype=np.int64),
        ai(term_i, dtype=np.int64), ai(term_j, dtype=np.int64),
        ai(term_ptr, dtype=np.int64),
        ai(inc_term, dtype=np.int64), ai(inc_edge, dtype=np.int64),
        ai(inc_ptr, dtype=np.int64),
    )


def _ragged_ranges(starts: np.ndarray, counts: np.ndarray) -> np.ndarray:
    """concatenate(arange(s, s + c) for s, c in zip(starts, counts))."""
    total = int(counts.sum())
    if total == 0:
        return np.empty(0, dtype=np.int64)
    rep = np.repeat(starts, counts)
    base = np.concatenate([[0], np.cumsum(counts)[:-1]])
    return rep + (np.arange(total, dtype=np.int64) - np.repeat(base, counts))


@dataclass
class StepBatch:
    """Index arrays for one optimizer step, after pair deduplication."""

    unique_u: np.ndarray
    unique_v: np.ndarray
    # multi-path part (indices into the unique relation table)
    m_rel: np.ndarray
    m_edge_path: np.ndarray
    m_num_paths: int
    m_cmp_a: np.ndarray
    m_cmp_b: np.ndarray
    m_num_sets: int
    # single-path part
    s_rel: np.ndarray
    s_inc_term: np.ndarray
    s_inc_edge: np.ndarray
    t_rel: np.ndarray
    s_num_terms: int
    # elbo part
    e_rel: np.ndarray
    e_u: np.ndarray
    e_v: np.ndarray
    noise: np.ndarray | None
    # contrast part: (source, neighbor, negative) node triplets, their own
    # unique pairs, and per triplet the ids of (u, v), (v, u), (u, w), (w, u)
    c_nodes: np.ndarray
    c_unique_u: np.ndarray
    c_unique_v: np.ndarray
    c_rel: np.ndarray


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


def make_step_batch(
    cm: CompiledMulti | None,
    cs: CompiledSingle | None,
    set_ids: np.ndarray,
    entry_ids: np.ndarray,
    elbo_pairs: np.ndarray,
    noise: np.ndarray | None,
    contrast: np.ndarray | None = None,
    symmetric: bool = False,
) -> StepBatch:
    """Flatten a batch into unique directed node pairs plus per-term ids.

    The contrast triplets get a pair set of their own, so that terms which
    need more than the relation's magnitude (the vi variance) run only on
    the path and ELBO pairs. With `symmetric` (a relation with
    r(u, v) = r(v, u), as 2n's distance) each pair is stored as
    (min, max), so both directions share one row.
    """
    empty = np.empty(0, dtype=np.int64)

    def _exclusive_cumsum(counts: np.ndarray) -> np.ndarray:
        return np.concatenate([[0], np.cumsum(counts)[:-1]]).astype(np.int64)

    # Renumbering is positional (offset within the owning set/entry plus the
    # occurrence's local base), so a batch may legitimately draw the same
    # set or entry twice; scatter-based maps would misroute duplicates.
    if cm is not None and set_ids.size:
        pc = cm.path_ptr[set_ids + 1] - cm.path_ptr[set_ids]
        sel_paths = _ragged_ranges(cm.path_ptr[set_ids], pc)
        ec = cm.edge_ptr[sel_paths + 1] - cm.edge_ptr[sel_paths]
        sel_edges = _ragged_ranges(cm.edge_ptr[sel_paths], ec)
        m_u, m_v = cm.edge_u[sel_edges], cm.edge_v[sel_edges]
        m_edge_path = np.repeat(np.arange(sel_paths.size, dtype=np.int64), ec)
        path_base = _exclusive_cumsum(pc)
        cc = cm.cmp_ptr[set_ids + 1] - cm.cmp_ptr[set_ids]
        sel_cmp = _ragged_ranges(cm.cmp_ptr[set_ids], cc)
        local_start = np.repeat(cm.path_ptr[set_ids], cc)
        local_base = np.repeat(path_base, cc)
        m_cmp_a = cm.cmp_a[sel_cmp] - local_start + local_base
        m_cmp_b = cm.cmp_b[sel_cmp] - local_start + local_base
        m_num_paths, m_num_sets = int(sel_paths.size), int(set_ids.size)
    else:
        m_u = m_v = m_edge_path = m_cmp_a = m_cmp_b = empty
        m_num_paths = m_num_sets = 0

    if cs is not None and entry_ids.size:
        ec = cs.edge_ptr[entry_ids + 1] - cs.edge_ptr[entry_ids]
        sel_edges = _ragged_ranges(cs.edge_ptr[entry_ids], ec)
        s_u, s_v = cs.edge_u[sel_edges], cs.edge_v[sel_edges]
        tc = cs.term_ptr[entry_ids + 1] - cs.term_ptr[entry_ids]
        sel_terms = _ragged_ranges(cs.term_ptr[entry_ids], tc)
        ic = cs.inc_ptr[entry_ids + 1] - cs.inc_ptr[entry_ids]
        sel_inc = _ragged_ranges(cs.inc_ptr[entry_ids], ic)
        term_base = _exclusive_cumsum(tc)
        edge_base = _exclusive_cumsum(ec)
        s_inc_term = (cs.inc_term[sel_inc] - np.repeat(cs.term_ptr[entry_ids], ic)
                      + np.repeat(term_base, ic))
        s_inc_edge = (cs.inc_edge[sel_inc] - np.repeat(cs.edge_ptr[entry_ids], ic)
                      + np.repeat(edge_base, ic))
        t_i, t_j = cs.term_i[sel_terms], cs.term_j[sel_terms]
        s_num_terms = int(sel_terms.size)
    else:
        s_u = s_v = s_inc_term = s_inc_edge = t_i = t_j = empty
        s_num_terms = 0

    e_u = elbo_pairs[:, 0] if elbo_pairs.size else empty
    e_v = elbo_pairs[:, 1] if elbo_pairs.size else empty

    c_nodes = np.asarray(contrast if contrast is not None else empty,
                         dtype=np.int64).reshape(-1, 3)
    cu, cv, cw = c_nodes.T
    c_unique_u, c_unique_v, c_rel = _unique_pairs(
        np.stack([cu, cv, cu, cw], axis=1).ravel(),
        np.stack([cv, cu, cw, cu], axis=1).ravel(), symmetric)

    unique_u, unique_v, inverse = _unique_pairs(
        np.concatenate([m_u, s_u, t_i, e_u]), np.concatenate([m_v, s_v, t_j, e_v]),
        symmetric)
    ofs = np.cumsum([m_u.size, s_u.size, t_i.size, e_u.size])
    return StepBatch(
        unique_u=unique_u,
        unique_v=unique_v,
        m_rel=inverse[: ofs[0]],
        m_edge_path=m_edge_path,
        m_num_paths=m_num_paths,
        m_cmp_a=m_cmp_a,
        m_cmp_b=m_cmp_b,
        m_num_sets=m_num_sets,
        s_rel=inverse[ofs[0]: ofs[1]],
        s_inc_term=s_inc_term,
        s_inc_edge=s_inc_edge,
        t_rel=inverse[ofs[1]: ofs[2]],
        s_num_terms=s_num_terms,
        e_rel=inverse[ofs[2]: ofs[3]],
        e_u=e_u,
        e_v=e_v,
        noise=noise,
        c_nodes=c_nodes,
        c_unique_u=c_unique_u,
        c_unique_v=c_unique_v,
        c_rel=c_rel.reshape(-1, 4),
    )


# -- objective ----------------------------------------------------------------


def _contrast_loss(mag: Tensor, c_rel: np.ndarray) -> Tensor:
    """Sum over triplets of softplus(m(u, v)^2 - m(u, w)^2).

    m is a pair magnitude averaged over both directions, as score_pairs
    does. On squared magnitudes the gradient vanishes at collapse, so the
    term never fights path constraints that only a collapsed embedding
    meets.
    """
    c = [gather_rows(mag, c_rel[:, k]) for k in range(4)]
    pos = (c[0] + c[1]) * 0.5
    neg = (c[2] + c[3]) * 0.5
    return (pos * pos - neg * neg).softplus().sum()


def _distance_contrast_loss(phi: Tensor, c_nodes: np.ndarray) -> Tensor:
    """Sum over triplets (u, v, w) of softplus(|phi_u - phi_v| - |phi_u - phi_w|)."""
    near = pair_distance(phi, c_nodes[:, 0], c_nodes[:, 1])
    far = pair_distance(phi, c_nodes[:, 0], c_nodes[:, 2])
    return (near - far).softplus().sum()


def build_objective(
    phi_t: Tensor, params_t: dict[str, Tensor], sb: StepBatch, cfg: TrainConfig
) -> tuple[Tensor, dict[str, float]]:
    """The step loss as an autodiff scalar, plus its parts as floats."""
    metric = BACKENDS[cfg.backend]
    if sb.unique_u.size:
        rel = metric.relate(phi_t, sb.unique_u, sb.unique_v, params_t, variance=True)

    terms: list[tuple[float, Tensor]] = []
    parts = {"loss_mul": 0.0, "loss_sin": 0.0, "elbo": 0.0, "loss_rank": 0.0}

    if sb.m_num_sets and sb.m_cmp_a.size and cfg.balance > 0.0:
        rp = [segment_sum(gather_rows(t, sb.m_rel), sb.m_edge_path, sb.m_num_paths)
              for t in metric.summands(rel)]
        d = metric.discrepancy([gather_rows(t, sb.m_cmp_a) for t in rp],
                               [gather_rows(t, sb.m_cmp_b) for t in rp], cfg.symmetric_kl)
        loss_mul = d.sum() * (1.0 / sb.m_num_sets)
        parts["loss_mul"] = loss_mul.item()
        terms.append((cfg.balance, loss_mul))

    if sb.s_num_terms and cfg.balance < 1.0:
        loc = rel[0]
        e = gather_rows(loc, sb.s_rel)
        summed = segment_sum(gather_rows(e, sb.s_inc_edge), sb.s_inc_term, sb.s_num_terms)
        r_tot = metric.magnitude(summed)
        r_dir = metric.magnitude(gather_rows(loc, sb.t_rel))
        if cfg.single_mode == "bounded":
            loss_sin = (r_tot - r_dir).exp().mean()
        else:
            loss_sin = -((r_dir - r_tot).exp().mean())
        parts["loss_sin"] = loss_sin.item()
        terms.append((1.0 - cfg.balance, loss_sin))

    if metric.elbo is not None and sb.e_rel.size:
        elbo_mean = metric.elbo(phi_t, params_t, rel, sb.e_rel, sb.e_u, sb.e_v, sb.noise)
        parts["elbo"] = elbo_mean.item()
        terms.append((-1.0, elbo_mean))

    if sb.c_rel.size and cfg.balance < 1.0:
        # edge contrast on the squared relation magnitude that score_pairs ranks by
        loc, _ = metric.relate(phi_t, sb.c_unique_u, sb.c_unique_v, params_t)
        loss_rank = _contrast_loss(metric.magnitude(loc), sb.c_rel)
        if metric.ranks_distance:
            loss_rank = loss_rank + _distance_contrast_loss(phi_t, sb.c_nodes)
        parts["loss_rank"] = loss_rank.item()
        terms.append((1.0 - cfg.balance, loss_rank))

    if not terms:
        total = Tensor(0.0)
    else:
        total = None
        for w, t in terms:
            piece = t if w == 1.0 else t * w
            total = piece if total is None else total + piece
    parts["loss"] = total.item() if isinstance(total, Tensor) else float(total)
    return total, parts


def _tensors(state: ModelState) -> tuple[Tensor, dict[str, Tensor]]:
    phi_t = Tensor(state.embeddings.values, requires_grad=True)
    params_t = {n: Tensor(a, requires_grad=True) for n, a in state.metric_params.items()}
    return phi_t, params_t


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


def adam_step(state: ModelState, grads: dict[str, np.ndarray], cfg: TrainConfig) -> ModelState:
    """Bias-corrected Adam update, in place."""
    state.step += 1
    t = state.step
    c1 = 1.0 - ADAM_BETA1 ** t
    c2 = 1.0 - ADAM_BETA2 ** t
    trainables = state.trainables()
    for name, arr in trainables.items():
        g = grads.get(name)
        if g is None:
            continue
        m = state.adam_m[name]
        v = state.adam_v[name]
        m *= ADAM_BETA1
        m += (1.0 - ADAM_BETA1) * g
        v *= ADAM_BETA2
        v += (1.0 - ADAM_BETA2) * (g * g)
        arr -= cfg.learning_rate * (m / c1) / (np.sqrt(v / c2) + ADAM_EPS)
    return state


def clip_gradients(grads: dict[str, np.ndarray], max_norm: float) -> float:
    """Scale all gradients so their joint 2-norm is at most max_norm."""
    total = np.sqrt(sum(float((g * g).sum()) for g in grads.values()))
    if total > max_norm and total > 0:
        scale = max_norm / total
        for g in grads.values():
            g *= scale
    return total


# -- training loop -------------------------------------------------------------


class _Cycler:
    """Epoch-style sampler: shuffled passes over 0..n-1, batches of b."""

    def __init__(self, n: int, rng: np.random.Generator):
        self.n = int(n)
        self.rng = rng
        self.queue = rng.permutation(self.n) if self.n else np.empty(0, dtype=np.int64)
        self.pos = 0

    def take(self, b: int) -> np.ndarray:
        if self.n == 0:
            return np.empty(0, dtype=np.int64)
        b = min(b, self.n)
        out = []
        need = b
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


def train(
    graph: Graph,
    cfg: TrainConfig,
    multi_pool: list[MultiPathSet] | None = None,
    single_pool: SinglePathSet | None = None,
    val_pos: np.ndarray | None = None,
    val_neg: np.ndarray | None = None,
    state: ModelState | None = None,
) -> TrainResult:
    """Run the full optimization on a train graph.

    Each epoch covers the larger pool once in shuffled batches (the other
    pool cycles). Every step also ranks each train edge against a fresh
    degree-weighted negative (the contrast term) unless balance is 1.
    With validation edges, training stops once the validation AUC has not
    improved for `cfg.patience` epochs and the best parameters are restored.
    """
    cfg.validate()
    start = time.time()
    multi_args, single_args = pool_arguments(cfg, graph)
    if multi_pool is None:
        multi_pool = build_multipath_pool(graph, **multi_args)
    if single_pool is None:
        single_pool = build_singlepath_pool(graph, **single_args)
    cm = compile_multipath(multi_pool) if multi_pool else None
    cs = compile_singlepath(single_pool, graph) if single_pool.entries else None

    if state is None:
        state = init_state(cfg, graph)
    batch_rng = np.random.default_rng(np.random.SeedSequence([int(cfg.seed), 0xBA7C4]))
    noise_rng = np.random.default_rng(np.random.SeedSequence([int(cfg.seed), 0x40153]))
    contrast_rng = np.random.default_rng(np.random.SeedSequence([int(cfg.seed), 0xC0E7A]))

    n_sets = cm.num_sets if cm is not None else 0
    n_entries = cs.num_entries if cs is not None else 0
    metric = BACKENDS[cfg.backend]
    use_elbo = metric.elbo is not None and graph.num_edges > 0
    use_contrast = cfg.balance < 1.0 and graph.num_edges > 0
    set_cycler = _Cycler(n_sets, batch_rng)
    entry_cycler = _Cycler(n_entries, batch_rng)
    edge_cycler = _Cycler(graph.num_edges if use_elbo else 0, batch_rng)
    largest = max(n_sets, n_entries, 1)
    steps_per_epoch = int(np.ceil(largest / cfg.batch_pairs))

    history: list[dict] = []
    best_val = None
    best_snapshot = None
    stale_epochs = 0
    epochs_run = 0
    stopped_early = False
    track_val = bool(
        val_pos is not None and val_neg is not None and len(val_pos) and len(val_neg)
    )
    if track_val:
        from pathembed.evaluation import auc_score, score_pairs  # deferred to avoid cycles

    for epoch in range(cfg.epochs):
        epochs_run = epoch + 1
        for _ in range(steps_per_epoch):
            set_ids = set_cycler.take(cfg.batch_pairs)
            entry_ids = entry_cycler.take(cfg.batch_pairs)
            if use_elbo:
                edge_ids = edge_cycler.take(cfg.batch_pairs)
                elbo_pairs = graph.edges[edge_ids]
                noise = noise_rng.standard_normal(
                    (cfg.mc_samples, len(elbo_pairs), cfg.embedding_dim)
                )
            else:
                elbo_pairs = np.empty((0, 2), dtype=np.int64)
                noise = None
            contrast = contrast_triplets(graph.edges, contrast_rng) if use_contrast else None
            sb = make_step_batch(cm, cs, set_ids, entry_ids, elbo_pairs, noise, contrast,
                                 symmetric=metric.symmetric)
            phi_t, params_t = _tensors(state)
            total, parts = build_objective(phi_t, params_t, sb, cfg)
            if not np.isfinite(parts["loss"]):
                raise TrainingError(
                    f"non-finite loss at step {state.step + 1}: {parts}"
                )
            if isinstance(total, Tensor) and total.requires_grad:
                total.backward()
            grads = {}
            for name, arr in state.trainables().items():
                t = phi_t if name == "phi" else params_t[name]
                if t.grad is not None:
                    grads[name] = t.grad
            if cfg.single_mode == "unbounded" and grads:
                clip_gradients(grads, cfg.grad_clip)
            adam_step(state, grads, cfg)
            state.check_finite()
            history.append({"step": state.step, **{k: parts[k] for k in HISTORY_COLUMNS}})
        if track_val:
            pos = score_pairs(state, val_pos, cfg.backend)
            neg = score_pairs(state, val_neg, cfg.backend)
            val_auc = auc_score(pos, neg)
            improved = best_val is None or val_auc > best_val + 1e-6
            if improved:
                best_val = val_auc
                best_snapshot = _snapshot(state)
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

    if best_snapshot is not None:
        _restore(state, best_snapshot)

    n_terms = cs.num_terms if cs is not None else 0
    metadata = {
        "pool_multi_sets": n_sets,
        "pool_single_entries": n_entries,
        "pool_single_terms": n_terms,
        "steps_per_epoch": steps_per_epoch,
        "epochs_run": epochs_run,
        "stopped_early": stopped_early,
        "wall_time_s": round(time.time() - start, 3),
        "best_val_auc": best_val,
    }
    return TrainResult(state=state, history=history, metadata=metadata)


def _snapshot(state: ModelState) -> dict:
    return {
        "phi": state.embeddings.values.copy(),
        "metric": {n: a.copy() for n, a in state.metric_params.items()},
        "adam_m": {n: a.copy() for n, a in state.adam_m.items()},
        "adam_v": {n: a.copy() for n, a in state.adam_v.items()},
        "step": state.step,
    }


def _restore(state: ModelState, snap: dict) -> None:
    state.embeddings.values[...] = snap["phi"]
    for n in state.metric_params:
        state.metric_params[n][...] = snap["metric"][n]
        state.adam_m[n][...] = snap["adam_m"][n]
        state.adam_v[n][...] = snap["adam_v"][n]
    state.adam_m["phi"][...] = snap["adam_m"]["phi"]
    state.adam_v["phi"][...] = snap["adam_v"]["phi"]
    state.step = snap["step"]


# -- persistence ---------------------------------------------------------------


def save_checkpoint(state: ModelState, cfg: TrainConfig, path: str | FilePath) -> None:
    arrays = {
        "phi": state.embeddings.values,
        "step": np.asarray(state.step, dtype=np.int64),
        "version": np.asarray(CHECKPOINT_VERSION, dtype=np.int64),
        "config_json": np.frombuffer(
            json.dumps(cfg.to_dict(), sort_keys=True).encode(), dtype=np.uint8
        ),
    }
    for n, a in state.metric_params.items():
        arrays[f"param_{n}"] = a
    for n, a in state.adam_m.items():
        arrays[f"adam_m_{n}"] = a
    for n, a in state.adam_v.items():
        arrays[f"adam_v_{n}"] = a
    np.savez_compressed(path, **arrays)


def load_checkpoint(path: str | FilePath) -> tuple[ModelState, TrainConfig]:
    """The state and config a checkpoint holds; ConfigError if they do not fit."""
    with np.load(path) as data:
        version = int(data["version"])
        if version != CHECKPOINT_VERSION:
            raise ConfigError(f"unsupported checkpoint version {version}")
        cfg = TrainConfig.from_dict(json.loads(bytes(data["config_json"]).decode()))
        metric = {
            n[len("param_"):]: data[n] for n in data.files if n.startswith("param_")
        }
        state = ModelState(
            embeddings=EmbeddingMatrix(data["phi"]),
            metric_params=metric,
            adam_m={n[len("adam_m_"):]: data[n] for n in data.files if n.startswith("adam_m_")},
            adam_v={n[len("adam_v_"):]: data[n] for n in data.files if n.startswith("adam_v_")},
            step=int(data["step"]),
        )
    try:
        validate_params(cfg.backend, cfg.embedding_dim, metric)
    except ShapeError as exc:
        raise ConfigError(f"checkpoint {path}: {exc}") from None
    if state.embeddings.values.shape[1] != cfg.embedding_dim:
        raise ConfigError(f"checkpoint {path}: phi has {state.embeddings.values.shape[1]} "
                          f"columns, its config embedding_dim={cfg.embedding_dim}")
    return state, cfg


def save_history(history: list[dict], path: str | FilePath) -> None:
    """One CSV row per step; loss_rank is written when the rows carry it."""
    columns = [c for c in HISTORY_COLUMNS if not history or c in history[0]]
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(",".join(["step", *columns]) + "\n")
        for row in history:
            fh.write(",".join([str(row["step"]), *(f"{row[c]:.10g}" for c in columns)]) + "\n")
