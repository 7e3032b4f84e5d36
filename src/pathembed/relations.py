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
ELBO. It owns the one rule that ranks links, `link_rows` and
`link_magnitude`, for link scoring and the edge contrast term alike.
The tests hold a per-pair numpy reference that the backends are
checked against.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from pathembed.autodiff import (Tensor, affine, concat, gather_rows, l2norm_rows,
                                pair_distance, pair_hidden, row_slice)

LOGVAR_MIN, LOGVAR_MAX = -10.0, 10.0

LOG_2PI = float(np.log(2.0 * np.pi))


@dataclass
class EmbeddingMatrix:
    """The trainable N x K node-embedding table."""

    values: np.ndarray

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=np.float64)


# -- parameters ---------------------------------------------------------------


def init_metric_params(
    backend: str, k: int, rng: np.random.Generator, hidden: int
) -> dict[str, np.ndarray]:
    """Fan-in uniform weights, zero biases, only the groups a backend needs."""
    params: dict[str, np.ndarray] = {}
    for name, fan_in, fan_out in BACKENDS[backend].layers(k, hidden):
        bound = 1.0 / np.sqrt(fan_in)
        params[f"{name}_w"] = rng.uniform(-bound, bound, size=(fan_in, fan_out))
        params[f"{name}_b"] = np.zeros(fan_out)
    return params


# -- batched tensor-mode forwards (autodiff route) -----------------------------


def mlp_pairs_t(phi: Tensor, u: np.ndarray, v: np.ndarray, p: dict[str, Tensor]) -> Tensor:
    """The perceptron relation of the rows (phi[u], phi[v]): (M,) pairs -> (M, K).

    (phi_u, phi_v) @ W1 = phi_u @ W1[:K] + phi_v @ W1[K:], so the first
    layer runs once per node instead of once per pair.
    """
    k = phi.shape[1]
    top = phi @ row_slice(p["mlp1_w"], 0, k)
    bottom = phi @ row_slice(p["mlp1_w"], k, 2 * k)
    h = pair_hidden(top, bottom, u, v, p["mlp1_b"], 1.0)
    return affine(h, p["mlp2_w"], p["mlp2_b"])


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
    h = pair_hidden(proj, proj, u, v, p["enc1_b"], -1.0)
    mu = affine(h, p["enc_mu_w"], p["enc_mu_b"])
    if not with_logvar:
        return mu, None
    return mu, affine(h, p["enc_lv_w"], p["enc_lv_b"]).clamp(LOGVAR_MIN, LOGVAR_MAX)


def decoder_forward_t(z: Tensor, p: dict[str, Tensor]) -> Tensor:
    """Batched decoder: z is (M, K) -> reconstruction means (M, 2K)."""
    h = affine(z, p["dec1_w"], p["dec1_b"]).relu()
    return affine(h, p["dec2_w"], p["dec2_b"])


# -- backends: one object per relation metric ----------------------------------


class Backend:
    """A relation metric on batches of node pairs, for training and scoring.

    `relate` returns (location, log-variance) for the pairs
    (phi[u[i]], phi[v[i]]); the log-variance is None unless a Gaussian
    backend is asked for it. Locations add along paths, and links rank by
    their `magnitude`. `symmetric` says r(u, v) = r(v, u), so a batch
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

    def discrepancy(self, a: tuple[Tensor, ...], b: tuple[Tensor, ...]) -> Tensor:
        """Per comparison, the disagreement of composed relations a and b, in that order.

        Summed, it is the multi-path loss; here the squared difference. It
        need not be symmetric: the Gaussian backend's is D_KL(a || b)^2.
        """
        d = a[0] - b[0]
        return d * d

    def magnitude(self, loc: Tensor) -> Tensor:
        """One non-negative number per relation location."""
        return l2norm_rows(loc)

    def link_rows(self, u: np.ndarray, v: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """The pairs to relate for links (u[i], v[i]): the links, then reverses unless symmetric."""
        if self.symmetric:
            return u, v
        return np.concatenate([u, v]), np.concatenate([v, u])

    def link_magnitude(self, loc: Tensor) -> Tensor:
        """Per link, the magnitude of its `link_rows`, averaged over both directions if two."""
        mag = self.magnitude(loc)
        if self.symmetric:
            return mag
        n = mag.shape[0] // 2
        return (row_slice(mag, 0, n) + row_slice(mag, n, 2 * n)) * 0.5


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

    Path sums add means and variances; the discrepancy is the squared KL
    D_KL(a || b)^2; a decoder of the pair gives the ELBO.
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

    def discrepancy(self, a, b):
        kl = _kl_t(*a, *b)
        return kl * kl

    def elbo(self, phi: Tensor, params: dict[str, Tensor], rel: tuple[Tensor, Tensor],
             rows: np.ndarray, u: np.ndarray, v: np.ndarray, noise: np.ndarray) -> Tensor:
        """Mean ELBO of the pairs (u, v), whose relations are rel[rows].

        One reparameterized draw per pair, from the (M, K) standard normal
        `noise`, gives the unit-variance decoder log-density of each
        (phi_u, phi_v) concatenation; minus KL(q || N(0, I)).
        """
        mu_e = gather_rows(rel[0], rows)
        lv_e = gather_rows(rel[1], rows)
        var_e = lv_e.exp()
        sig_e = (lv_e * 0.5).exp()
        target = concat([gather_rows(phi, u), gather_rows(phi, v)], axis=1)
        d = target - decoder_forward_t(mu_e + sig_e * Tensor(noise), params)
        recon = (d * d).sum(axis=1) * (-0.5) + (-phi.shape[1] * LOG_2PI)
        kl = (var_e + mu_e * mu_e - 1.0 - lv_e).sum(axis=1) * 0.5
        return (recon - kl).mean()


BACKENDS: dict[str, Backend] = {b.name: b for b in (TwoNorm(), Perceptron(), Gaussian())}
