"""Per-pair numpy reference for the relation metrics and their algebra.

The tests' independent oracle for `pathembed.relations.BACKENDS`: one
embedding pair at a time, plain numpy, nothing imported from pathembed.

* ``2n``   -> non-negative scalar, the Euclidean distance.
* ``mlp``  -> K-vector, a one-hidden-layer perceptron over the
  concatenation of the two embeddings.
* ``vi``   -> diagonal Gaussian over K dims, an encoder applied to the
  embedding difference (mean head + log-variance head).

Relations compose along paths by summation: scalars and vectors add
elementwise, Gaussians add means and variances. Parameters are the dicts
of arrays that `init_metric_params` makes; embeddings are (N, K) arrays.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

LOGVAR_MIN, LOGVAR_MAX = -10.0, 10.0
LOG_2PI = float(np.log(2.0 * np.pi))


@dataclass(frozen=True)
class ScalarRelation:
    value: float


@dataclass(frozen=True)
class VectorRelation:
    value: np.ndarray


@dataclass(frozen=True)
class GaussianRelation:
    mean: np.ndarray
    var: np.ndarray

    def __post_init__(self):
        if np.any(np.asarray(self.var) <= 0) or not np.all(np.isfinite(self.var)):
            raise ValueError("Gaussian relation requires positive finite variances")


Relation = ScalarRelation | VectorRelation | GaussianRelation


def g_2norm(phi_i: np.ndarray, phi_j: np.ndarray) -> ScalarRelation:
    d = np.asarray(phi_i, dtype=np.float64) - np.asarray(phi_j, dtype=np.float64)
    return ScalarRelation(float(np.sqrt((d * d).sum())))


def g_mlp(phi_i, phi_j, params: dict[str, np.ndarray]) -> VectorRelation:
    x = np.concatenate([np.asarray(phi_i, dtype=np.float64),
                        np.asarray(phi_j, dtype=np.float64)])
    if x.shape[0] != params["mlp1_w"].shape[0]:
        raise ValueError("embedding size does not match perceptron input")
    h = np.maximum(x @ params["mlp1_w"] + params["mlp1_b"], 0.0)
    return VectorRelation(h @ params["mlp2_w"] + params["mlp2_b"])


def g_vi(phi_i, phi_j, params: dict[str, np.ndarray]) -> GaussianRelation:
    diff = np.asarray(phi_i, dtype=np.float64) - np.asarray(phi_j, dtype=np.float64)
    if diff.shape[0] != params["enc1_w"].shape[0]:
        raise ValueError("embedding size does not match encoder input")
    h = np.maximum(diff @ params["enc1_w"] + params["enc1_b"], 0.0)
    mu = h @ params["enc_mu_w"] + params["enc_mu_b"]
    logvar = np.clip(h @ params["enc_lv_w"] + params["enc_lv_b"], LOGVAR_MIN, LOGVAR_MAX)
    rel = GaussianRelation(mu, np.exp(logvar))
    if not (np.isfinite(mu).all() and np.isfinite(rel.var).all()):
        raise FloatingPointError(f"non-finite relation for pair inputs {phi_i}, {phi_j}")
    return rel


RELATIONS = {
    "2n": lambda phi_i, phi_j, params: g_2norm(phi_i, phi_j),
    "mlp": g_mlp,
    "vi": g_vi,
}


def relation(backend: str, phi_i, phi_j, params) -> Relation:
    return RELATIONS[backend](phi_i, phi_j, params)


def add_relations(r1: Relation, r2: Relation) -> Relation:
    if isinstance(r1, ScalarRelation) and isinstance(r2, ScalarRelation):
        return ScalarRelation(r1.value + r2.value)
    if isinstance(r1, VectorRelation) and isinstance(r2, VectorRelation):
        return VectorRelation(r1.value + r2.value)
    if isinstance(r1, GaussianRelation) and isinstance(r2, GaussianRelation):
        return GaussianRelation(r1.mean + r2.mean, r1.var + r2.var)
    raise TypeError(f"cannot add {type(r1).__name__} and {type(r2).__name__}")


def path_sum(nodes, backend: str, emb: np.ndarray, params) -> Relation:
    """R_P: the relation summed over consecutive pairs along the node sequence."""
    nodes = tuple(nodes)
    if len(nodes) < 2:
        raise ValueError("path_sum needs at least one edge")
    total: Relation | None = None
    for a, b in zip(nodes, nodes[1:]):
        r = relation(backend, emb[a], emb[b], params)
        total = r if total is None else add_relations(total, r)
    return total


def kl_gaussian(p: GaussianRelation, q: GaussianRelation) -> float:
    """D_KL(p || q) for diagonal Gaussians, summed over dimensions."""
    ratio = p.var / q.var
    md = q.mean - p.mean
    return float(0.5 * np.sum(ratio + md * md / q.var - 1.0 + np.log(q.var / p.var)))


def discrepancy(r1: Relation, r2: Relation, symmetric: bool = False) -> float:
    """How far two composed relations disagree (0 iff they match).

    Scalars: squared difference. Vectors: squared Euclidean distance.
    Gaussians: squared KL in the given argument order, or the squared
    symmetrized KL when requested.
    """
    if isinstance(r1, ScalarRelation) and isinstance(r2, ScalarRelation):
        return float((r1.value - r2.value) ** 2)
    if isinstance(r1, VectorRelation) and isinstance(r2, VectorRelation):
        d = r1.value - r2.value
        return float((d * d).sum())
    if isinstance(r1, GaussianRelation) and isinstance(r2, GaussianRelation):
        if symmetric:
            kl = 0.5 * (kl_gaussian(r1, r2) + kl_gaussian(r2, r1))
        else:
            kl = kl_gaussian(r1, r2)
        return float(kl ** 2)
    raise TypeError(f"variant mismatch: {type(r1).__name__} vs {type(r2).__name__}")


def scalarize(rel: Relation) -> float:
    """Collapse any relation to a single comparable magnitude."""
    if isinstance(rel, ScalarRelation):
        return float(rel.value)
    if isinstance(rel, VectorRelation):
        return float(np.sqrt((rel.value * rel.value).sum()))
    if isinstance(rel, GaussianRelation):
        return float(np.sqrt((rel.mean * rel.mean).sum()))
    raise TypeError(f"unknown relation {type(rel).__name__}")


def reparameterize(rel: GaussianRelation, noise: np.ndarray) -> np.ndarray:
    """Z = mu + sigma * eps for eps of shape (K,) or (L, K)."""
    return rel.mean + np.sqrt(rel.var) * np.asarray(noise, dtype=np.float64)


def elbo(
    phi_i: np.ndarray,
    phi_j: np.ndarray,
    params: dict[str, np.ndarray],
    num_samples: int = 1,
    noise: np.ndarray | None = None,
    rng: np.random.Generator | None = None,
) -> float:
    """Evidence lower bound for one pair under the vi backend.

    Monte Carlo average over `num_samples` reparameterized draws of the
    unit-variance decoder log-density of the target (phi_i, phi_j)
    concatenation, minus KL(q || N(0, I)).
    """
    if num_samples < 1:
        raise ValueError("num_samples must be >= 1")
    phi_i = np.asarray(phi_i, dtype=np.float64)
    phi_j = np.asarray(phi_j, dtype=np.float64)
    k = phi_i.shape[0]
    rel = g_vi(phi_i, phi_j, params)
    if noise is None:
        if rng is None:
            raise ValueError("provide noise draws or an rng")
        noise = rng.standard_normal((num_samples, k))
    noise = np.asarray(noise, dtype=np.float64).reshape(num_samples, k)

    z = reparameterize(rel, noise)                       # (L, K)
    h = np.maximum(z @ params["dec1_w"] + params["dec1_b"], 0.0)
    mean = h @ params["dec2_w"] + params["dec2_b"]       # (L, 2K)
    target = np.concatenate([phi_i, phi_j])
    sq = ((target - mean) ** 2).sum(axis=1)
    recon = -0.5 * sq - k * LOG_2PI                      # 2K dims of log N(t; m, 1)
    logvar = np.log(rel.var)
    kl = 0.5 * np.sum(rel.var + rel.mean ** 2 - 1.0 - logvar)
    return float(recon.mean() - kl)
