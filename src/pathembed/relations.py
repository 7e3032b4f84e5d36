"""Relation metrics between node embeddings, one backend object per metric.

Three backends turn an embedding pair into a relation value:

* ``2n``   -> non-negative scalar, the Euclidean distance.
* ``mlp``  -> K-vector, a one-hidden-layer perceptron over the
  concatenation of the two embeddings.
* ``vi``   -> diagonal Gaussian over K dims, an encoder applied to the
  embedding difference (mean head + log-variance head).

Relations compose along paths by summation: scalars and vectors add
elementwise, Gaussians add means and variances. Each backend in
`BACKENDS` runs its metric on autodiff tensors over whole batches of
pairs, for training and for scoring, and gives the discrepancy of two
composed relations (for ``vi`` the squared Gaussian KL) and the ``vi``
ELBO. The tests hold a per-pair numpy reference that the backends are
checked against.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from pathembed.autodiff import Tensor, concat, gather_rows, l2norm_rows, pair_distance

DEFAULT_HIDDEN = 128
LOGVAR_MIN, LOGVAR_MAX = -10.0, 10.0

LOG_2PI = float(np.log(2.0 * np.pi))


class ShapeError(ValueError):
    """Raised when parameter shapes do not chain."""


@dataclass
class EmbeddingMatrix:
    """The trainable N x K node-embedding table."""

    values: np.ndarray

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=np.float64)
        if self.values.ndim != 2:
            raise ShapeError("embeddings must be a 2-D matrix")
        if not np.isfinite(self.values).all():
            raise ValueError("embeddings contain non-finite entries")

    @property
    def num_nodes(self) -> int:
        return self.values.shape[0]

    @property
    def dim(self) -> int:
        return self.values.shape[1]


# -- parameters ---------------------------------------------------------------


def _lookup(backend: str) -> "Backend":
    try:
        return BACKENDS[backend]
    except KeyError:
        raise ShapeError(f"unknown backend {backend!r}") from None


def init_metric_params(
    backend: str, k: int, rng: np.random.Generator, hidden: int = DEFAULT_HIDDEN
) -> dict[str, np.ndarray]:
    """Fan-in uniform weights, zero biases, only the groups a backend needs."""
    params: dict[str, np.ndarray] = {}
    for name, fan_in, fan_out in _lookup(backend).layers(k, hidden):
        bound = 1.0 / np.sqrt(fan_in)
        params[f"{name}_w"] = rng.uniform(-bound, bound, size=(fan_in, fan_out))
        params[f"{name}_b"] = np.zeros(fan_out)
    return params


def validate_params(backend: str, k: int, params: dict[str, np.ndarray]) -> None:
    """Check that every layer chains; raises ShapeError otherwise.

    The hidden width is read off the first layer's weights.
    """
    metric = _lookup(backend)
    layers = metric.layers(k, 0)
    first = params.get(f"{layers[0][0]}_w") if layers else None
    hidden = first.shape[1] if first is not None else 0
    for name, fan_in, fan_out in metric.layers(k, hidden):
        w, b = params.get(f"{name}_w"), params.get(f"{name}_b")
        if w is None or b is None:
            raise ShapeError(f"missing parameter group {name!r}")
        if w.shape != (fan_in, fan_out) or b.shape != (fan_out,):
            raise ShapeError(
                f"{name}: expected {(fan_in, fan_out)}/{(fan_out,)}, "
                f"got {w.shape}/{b.shape}"
            )


# -- batched tensor-mode forwards (autodiff route) -----------------------------


def mlp_pairs_t(phi: Tensor, u: np.ndarray, v: np.ndarray, p: dict[str, Tensor]) -> Tensor:
    """The perceptron relation of the rows (phi[u], phi[v]): (M,) pairs -> (M, K).

    (phi_u, phi_v) @ W1 = phi_u @ W1[:K] + phi_v @ W1[K:], so the first
    layer runs once per node instead of once per pair.
    """
    k = phi.shape[1]
    top = phi @ gather_rows(p["mlp1_w"], np.arange(k))
    bottom = phi @ gather_rows(p["mlp1_w"], np.arange(k, 2 * k))
    h = (gather_rows(top, u) + gather_rows(bottom, v) + p["mlp1_b"]).relu()
    return h @ p["mlp2_w"] + p["mlp2_b"]


def encoder_pairs_t(
    phi: Tensor, u: np.ndarray, v: np.ndarray, p: dict[str, Tensor],
    with_logvar: bool = True,
) -> tuple[Tensor, Tensor | None]:
    """The encoder's (mu, logvar) of the rows phi[u] - phi[v], each (M, K).

    (phi_u - phi_v) @ W1 = (phi @ W1)[u] - (phi @ W1)[v], so the first
    layer runs once per node. Without `with_logvar` the log-variance head
    is skipped and None returned.
    """
    proj = phi @ p["enc1_w"]
    h = (gather_rows(proj, u) - gather_rows(proj, v) + p["enc1_b"]).relu()
    mu = h @ p["enc_mu_w"] + p["enc_mu_b"]
    if not with_logvar:
        return mu, None
    return mu, (h @ p["enc_lv_w"] + p["enc_lv_b"]).clamp(LOGVAR_MIN, LOGVAR_MAX)


def decoder_forward_t(z: Tensor, p: dict[str, Tensor]) -> Tensor:
    """Batched decoder: z is (M, K) -> reconstruction means (M, 2K)."""
    h = (z @ p["dec1_w"] + p["dec1_b"]).relu()
    return h @ p["dec2_w"] + p["dec2_b"]


# -- backends: one object per relation metric ----------------------------------


class Backend:
    """A relation metric on batches of node pairs, for training and scoring.

    `relate` returns (location, log-variance) for the pairs
    (phi[u[i]], phi[v[i]]); the log-variance is None unless a Gaussian
    backend is asked for it. Locations add along paths and `magnitude`
    ranks links by them. `symmetric` says r(u, v) = r(v, u), so a batch
    stores each pair once. `ranks_distance` says the edge contrast term
    also ranks plain embedding distances, because a learned relation can
    rank edges without placing linked nodes close. `elbo` is set by
    backends with a variational term.
    """

    name = ""
    symmetric = False
    ranks_distance = True
    elbo = None

    def layers(self, k: int, hidden: int) -> tuple[tuple[str, int, int], ...]:
        """(group, fan_in, fan_out) of each linear layer, in initialization order."""
        return ()

    def relate(self, phi: Tensor, u: np.ndarray, v: np.ndarray, params: dict[str, Tensor],
               variance: bool = False) -> tuple[Tensor, Tensor | None]:
        raise NotImplementedError

    def summands(self, rel: tuple[Tensor, Tensor | None]) -> tuple[Tensor, ...]:
        """The parts of a `relate` result that add along a path."""
        return (rel[0],)

    def discrepancy(self, a: tuple[Tensor, ...], b: tuple[Tensor, ...],
                    symmetric_kl: bool = False) -> Tensor:
        """Per comparison, the disagreement of composed relations a and b.

        Summed, it is the multi-path loss; here the squared difference.
        """
        d = a[0] - b[0]
        return d * d

    def magnitude(self, loc: Tensor) -> Tensor:
        """One non-negative number per relation location."""
        return l2norm_rows(loc)


class TwoNorm(Backend):
    """The Euclidean distance: a non-negative scalar per pair."""

    name, symmetric, ranks_distance = "2n", True, False

    def relate(self, phi, u, v, params, variance=False):
        return pair_distance(phi, u, v), None

    def magnitude(self, loc):
        return loc


class Perceptron(Backend):
    """One hidden layer over the concatenated pair: a K-vector per pair."""

    name = "mlp"

    def layers(self, k, hidden):
        return ("mlp1", 2 * k, hidden), ("mlp2", hidden, k)

    def relate(self, phi, u, v, params, variance=False):
        return mlp_pairs_t(phi, u, v, params), None


def _kl_t(m1: Tensor, v1: Tensor, m2: Tensor, v2: Tensor) -> Tensor:
    """Row-wise D_KL(N(m1, v1) || N(m2, v2)) of diagonal Gaussians."""
    md = m2 - m1
    inner = v1 / v2 + (md * md) / v2 - 1.0 + v2.log() - v1.log()
    return inner.sum(axis=1) * 0.5


class Gaussian(Backend):
    """A diagonal Gaussian from an encoder of the embedding difference.

    Path sums add means and variances; the discrepancy is the squared KL,
    symmetrized on request; a decoder of the pair gives the ELBO.
    """

    name = "vi"

    def layers(self, k, hidden):
        return (("enc1", k, hidden), ("enc_mu", hidden, k), ("enc_lv", hidden, k),
                ("dec1", k, hidden), ("dec2", hidden, 2 * k))

    def relate(self, phi, u, v, params, variance=False):
        return encoder_pairs_t(phi, u, v, params, with_logvar=variance)

    def summands(self, rel):
        mu, logvar = rel
        return mu, logvar.exp()

    def discrepancy(self, a, b, symmetric_kl=False):
        kl = _kl_t(*a, *b)
        if symmetric_kl:
            kl = (kl + _kl_t(*b, *a)) * 0.5
        return kl * kl

    def elbo(self, phi: Tensor, params: dict[str, Tensor], rel: tuple[Tensor, Tensor],
             rows: np.ndarray, u: np.ndarray, v: np.ndarray, noise: np.ndarray) -> Tensor:
        """Mean ELBO of the pairs (u, v), whose relations are rel[rows].

        Monte Carlo over the (L, M, K) `noise` draws of the unit-variance
        decoder log-density of each (phi_u, phi_v) concatenation, minus
        KL(q || N(0, I)).
        """
        mu_e = gather_rows(rel[0], rows)
        lv_e = gather_rows(rel[1], rows)
        var_e = lv_e.exp()
        sig_e = (lv_e * 0.5).exp()
        target = concat([gather_rows(phi, u), gather_rows(phi, v)], axis=1)
        k = phi.shape[1]
        recon_sum = None
        for sample in noise:
            mean = decoder_forward_t(mu_e + sig_e * Tensor(sample), params)
            d = target - mean
            recon = (d * d).sum(axis=1) * (-0.5) + (-k * LOG_2PI)
            recon_sum = recon if recon_sum is None else recon_sum + recon
        kl = (var_e + mu_e * mu_e - 1.0 - lv_e).sum(axis=1) * 0.5
        return (recon_sum * (1.0 / len(noise)) - kl).mean()


BACKENDS: dict[str, Backend] = {b.name: b for b in (TwoNorm(), Perceptron(), Gaussian())}
