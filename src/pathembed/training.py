"""Objective assembly, exact gradients, Adam, and the training loop.

Pools are compiled once into per-item tables (edge endpoints, path ids,
comparison pairs, term incidences) whose ids count from 0 within their
item. Each optimizer step samples a batch of multi-path sets,
single-path entries, and (vi backend) train edges for the ELBO term, and
pairs every train edge with a fresh negative node for the edge contrast
term. It deduplicates the node pairs that the path and ELBO terms touch,
and separately those of the contrast term, runs the relation backend
once over each set of unique pairs, and scatters the results into the
loss terms through the autodiff engine.
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

    def __post_init__(self):
        for name, arr in self.trainables().items():
            self.adam_m.setdefault(name, np.zeros_like(arr))
            self.adam_v.setdefault(name, np.zeros_like(arr))

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
        return cls(np.cumsum([0, *counts], dtype=np.int64),
                   tuple(np.asarray(c, dtype=np.int64) for c in cols))

    def __len__(self) -> int:
        return len(self.ptr) - 1

    def take(self, ids: np.ndarray) -> tuple[np.ndarray, ...]:
        """Each item's row count, then every column's rows, for `ids` in order."""
        counts = self.ptr[ids + 1] - self.ptr[ids]
        rows = np.arange(counts.sum()) + np.repeat(self.ptr[ids] - _starts(counts), counts)
        return (counts, *(c[rows] for c in self.cols))


@dataclass
class CompiledMulti:
    """Multi-path sets; path ids count from 0 within each set."""

    num_paths: np.ndarray     # paths per set, (S,)
    edges: Ragged             # (u, v, path) per path edge
    cmps: Ragged              # (path a, path b), a < b, per unordered path pair


@dataclass
class CompiledSingle:
    """Single-path entries; edge and term ids count from 0 within each entry."""

    edges: Ragged             # (u, v) per path edge
    terms: Ragged             # (i, j) per non-adjacent node pair, in path order
    incs: Ragged              # (term, edge) per edge inside a term's span


def compile_multipath(pool: list[MultiPathSet]) -> CompiledMulti:
    num_paths = [len(s.paths) for s in pool]
    u, v, path, a, b, edge_counts = [], [], [], [], [], []
    for s, n in zip(pool, num_paths):
        first = len(u)
        for k, p in enumerate(s.paths):
            u.extend(p.nodes[:-1])
            v.extend(p.nodes[1:])
            path.extend([k] * (len(p.nodes) - 1))
            a.extend([k] * (n - 1 - k))
            b.extend(range(k + 1, n))
        edge_counts.append(len(u) - first)
    return CompiledMulti(np.asarray(num_paths, dtype=np.int64),
                         Ragged.pack(edge_counts, u, v, path),
                         Ragged.pack([n * (n - 1) // 2 for n in num_paths], a, b))


def compile_singlepath(pool: SinglePathSet, graph: Graph) -> CompiledSingle:
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
    return CompiledSingle(Ragged.pack(edge_counts, u, v),
                          Ragged.pack(term_counts, term_i, term_j),
                          Ragged.pack(inc_counts, inc_term, inc_edge))


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
    cm: CompiledMulti,
    cs: CompiledSingle,
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
    # Item-local path, edge and term ids shift by where their item's run
    # starts in the batch, so a batch may draw the same set or entry twice.
    pc = cm.num_paths[set_ids]
    path_start = _starts(pc)
    m_ec, m_u, m_v, m_path = cm.edges.take(set_ids)
    m_cc, m_cmp_a, m_cmp_b = cm.cmps.take(set_ids)
    s_ec, s_u, s_v = cs.edges.take(entry_ids)
    tc, t_i, t_j = cs.terms.take(entry_ids)
    ic, s_inc_term, s_inc_edge = cs.incs.take(entry_ids)

    empty = np.empty(0, dtype=np.int64)
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
        m_edge_path=m_path + np.repeat(path_start, m_ec),
        m_num_paths=int(pc.sum()),
        m_cmp_a=m_cmp_a + np.repeat(path_start, m_cc),
        m_cmp_b=m_cmp_b + np.repeat(path_start, m_cc),
        m_num_sets=int(set_ids.size),
        s_rel=inverse[ofs[0]: ofs[1]],
        s_inc_term=s_inc_term + np.repeat(_starts(tc), ic),
        s_inc_edge=s_inc_edge + np.repeat(_starts(s_ec), ic),
        t_rel=inverse[ofs[1]: ofs[2]],
        s_num_terms=int(tc.sum()),
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
    cm = compile_multipath(multi_pool)
    cs = compile_singlepath(single_pool, graph)

    if state is None:
        state = init_state(cfg, graph)
    batch_rng = np.random.default_rng(np.random.SeedSequence([int(cfg.seed), 0xBA7C4]))
    noise_rng = np.random.default_rng(np.random.SeedSequence([int(cfg.seed), 0x40153]))
    contrast_rng = np.random.default_rng(np.random.SeedSequence([int(cfg.seed), 0xC0E7A]))

    n_sets, n_entries = len(cm.edges), len(cs.edges)
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

    metadata = {
        "pool_multi_sets": n_sets,
        "pool_single_entries": n_entries,
        "pool_single_terms": int(cs.terms.ptr[-1]),
        "steps_per_epoch": steps_per_epoch,
        "epochs_run": epochs_run,
        "stopped_early": stopped_early,
        "wall_time_s": round(time.time() - start, 3),
        "best_val_auc": best_val,
    }
    return TrainResult(state=state, history=history, metadata=metadata)


def _arrays(state: ModelState) -> dict[str, np.ndarray]:
    """The state's live arrays under their checkpoint names."""
    out = {"phi": state.embeddings.values}
    for prefix, group in (("param_", state.metric_params), ("adam_m_", state.adam_m),
                          ("adam_v_", state.adam_v)):
        out.update({prefix + n: a for n, a in group.items()})
    return out


def _snapshot(state: ModelState) -> tuple[int, dict]:
    return state.step, {k: a.copy() for k, a in _arrays(state).items()}


def _restore(state: ModelState, snap: tuple[int, dict]) -> None:
    state.step, arrays = snap
    for k, a in _arrays(state).items():
        a[...] = arrays[k]


# -- persistence ---------------------------------------------------------------


def save_checkpoint(state: ModelState, cfg: TrainConfig, path: str | FilePath) -> None:
    np.savez_compressed(
        path, **_arrays(state),
        step=np.asarray(state.step, dtype=np.int64),
        version=np.asarray(CHECKPOINT_VERSION, dtype=np.int64),
        config_json=np.frombuffer(json.dumps(cfg.to_dict(), sort_keys=True).encode(),
                                  dtype=np.uint8),
    )


def load_checkpoint(path: str | FilePath) -> tuple[ModelState, TrainConfig]:
    """The state and config a checkpoint holds; ConfigError if they do not fit."""
    with np.load(path) as data:
        version = int(data["version"])
        if version != CHECKPOINT_VERSION:
            raise ConfigError(f"unsupported checkpoint version {version}")
        cfg = TrainConfig.from_dict(json.loads(bytes(data["config_json"]).decode()))
        phi = EmbeddingMatrix(data["phi"])
        metric = {n[len("param_"):]: data[n] for n in data.files if n.startswith("param_")}
        try:
            validate_params(cfg.backend, cfg.embedding_dim, metric)
        except ShapeError as exc:
            raise ConfigError(f"checkpoint {path}: {exc}") from None
        if phi.values.shape[1] != cfg.embedding_dim:
            raise ConfigError(f"checkpoint {path}: phi has {phi.values.shape[1]} "
                              f"columns, its config embedding_dim={cfg.embedding_dim}")
        state = ModelState(phi, metric, step=int(data["step"]))
        missing = sorted(set(_arrays(state)) - set(data.files))
        if missing:
            raise ConfigError(f"checkpoint {path}: missing {missing}")
        for k, a in _arrays(state).items():
            a[...] = data[k]
    return state, cfg


def save_history(history: list[dict], path: str | FilePath) -> None:
    """One CSV row per step; loss_rank is written when the rows carry it."""
    columns = [c for c in HISTORY_COLUMNS if not history or c in history[0]]
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(",".join(["step", *columns]) + "\n")
        for row in history:
            fh.write(",".join([str(row["step"]), *(f"{row[c]:.10g}" for c in columns)]) + "\n")
