"""Relation backends against the per-pair oracle, and the oracle's own algebra."""

import numpy as np
import pytest

from oracle import (
    LOG_2PI,
    GaussianRelation,
    ScalarRelation,
    VectorRelation,
    add_relations,
    discrepancy,
    elbo,
    g_2norm,
    g_mlp,
    g_vi,
    kl_gaussian,
    path_sum,
    relation,
    reparameterize,
    scalarize,
)
from pathembed.autodiff import Tensor
from pathembed.relations import (
    BACKENDS,
    decoder_forward_t,
    init_metric_params,
)


def zero_params(backend, k, hidden=4):
    rng = np.random.default_rng(0)
    params = init_metric_params(backend, k, rng, hidden=hidden)
    return {name: np.zeros_like(arr) for name, arr in params.items()}


def mc_kl_estimate(p: GaussianRelation, q: GaussianRelation, n, rng):
    """Oracle: E_p[log p(x) - log q(x)] by Monte Carlo."""
    k = p.mean.shape[0]
    x = p.mean + np.sqrt(p.var) * rng.standard_normal((n, k))

    def logpdf(x, mu, var):
        return -0.5 * (((x - mu) ** 2) / var + np.log(2 * np.pi * var)).sum(axis=1)

    diffs = logpdf(x, p.mean, p.var) - logpdf(x, q.mean, q.var)
    return diffs.mean(), diffs.std(ddof=1) / np.sqrt(n)


class TestG2Norm:
    def test_identity(self):
        x = np.array([0.3, -1.2, 4.0])
        assert g_2norm(x, x).value == 0.0

    def test_three_four_five(self):
        assert g_2norm(np.array([0.0, 0.0]), np.array([3.0, 4.0])).value == 5.0

    def test_symmetry_and_triangle_inequality(self):
        rng = np.random.default_rng(20)
        for _ in range(10_000):
            a, b, c = rng.normal(size=(3, 4))
            assert g_2norm(a, b).value == g_2norm(b, a).value
            assert g_2norm(a, c).value <= g_2norm(a, b).value + g_2norm(b, c).value + 1e-12


class TestGMlp:
    def test_zero_params_give_zero_vector(self):
        params = zero_params("mlp", k=3)
        out = g_mlp(np.ones(3), -np.ones(3), params)
        np.testing.assert_array_equal(out.value, np.zeros(3))

    def test_hand_computed_forward(self):
        # w1 sums the two halves of the concatenation, then affine heads
        params = {
            "mlp1_w": np.array([[1.0, 0.0], [0.0, 1.0], [1.0, 0.0], [0.0, 1.0]]),
            "mlp1_b": np.array([0.5, -0.5]),
            "mlp2_w": np.eye(2),
            "mlp2_b": np.array([1.0, 2.0]),
        }
        out = g_mlp(np.array([1.0, 2.0]), np.array([3.0, 4.0]), params)
        np.testing.assert_allclose(out.value, [5.5, 7.5])

    def test_output_shape_is_k(self):
        rng = np.random.default_rng(21)
        for k in (1, 2, 8):
            params = init_metric_params("mlp", k, rng, hidden=5)
            out = g_mlp(rng.normal(size=k), rng.normal(size=k), params)
            assert out.value.shape == (k,)

    def test_shape_mismatch_raises(self):
        params = init_metric_params("mlp", 3, np.random.default_rng(0), hidden=4)
        with pytest.raises(ValueError):
            g_mlp(np.ones(2), np.ones(2), params)


class TestGVi:
    def test_identical_pairs_share_the_zero_image(self):
        rng = np.random.default_rng(22)
        params = init_metric_params("vi", 4, rng, hidden=6)
        r1 = g_vi(np.ones(4), np.ones(4), params)
        r2 = g_vi(np.full(4, -2.0), np.full(4, -2.0), params)
        np.testing.assert_array_equal(r1.mean, r2.mean)
        np.testing.assert_array_equal(r1.var, r2.var)

    def test_swapped_arguments_negate_the_input(self):
        rng = np.random.default_rng(23)
        params = init_metric_params("vi", 4, rng, hidden=6)
        a, b = rng.normal(size=(2, 4))
        r_ab, r_ba = g_vi(a, b, params), g_vi(b, a, params)
        assert not np.allclose(r_ab.mean, r_ba.mean)

    def test_variances_positive_over_many_inputs(self):
        rng = np.random.default_rng(24)
        params = init_metric_params("vi", 3, rng, hidden=5)
        for _ in range(10_000):
            r = g_vi(rng.normal(size=3), rng.normal(size=3), params)
            assert (r.var > 0).all()

    def test_non_finite_surfaces_as_error(self):
        params = zero_params("vi", 2)
        params["enc_mu_b"] = np.array([np.inf, 0.0])
        with pytest.raises(FloatingPointError):
            g_vi(np.ones(2), np.zeros(2), params)


class TestPathSum:
    def test_single_edge_equals_g(self):
        emb = np.array([[0.0, 0.0], [3.0, 4.0]])
        r = path_sum((0, 1), "2n", emb, {})
        assert r.value == g_2norm(emb[0], emb[1]).value

    def test_collinear_equally_spaced(self):
        emb = np.array([[0.0], [1.0], [2.0]])
        r = path_sum((0, 1, 2), "2n", emb, {})
        assert r.value == 2.0 * g_2norm(emb[0], emb[1]).value

    def test_gaussian_sum_rule(self):
        a = GaussianRelation(np.array([1.0]), np.array([1.0]))
        b = GaussianRelation(np.array([2.0]), np.array([3.0]))
        s = add_relations(a, b)
        np.testing.assert_array_equal(s.mean, [3.0])
        np.testing.assert_array_equal(s.var, [4.0])

    @pytest.mark.parametrize("backend", ["2n", "mlp", "vi"])
    def test_concatenation_associativity(self, backend):
        rng = np.random.default_rng(25)
        emb = rng.normal(size=(6, 3))
        params = init_metric_params(backend, 3, rng, hidden=4)
        whole = path_sum((0, 1, 2, 3, 4, 5), backend, emb, params)
        left = path_sum((0, 1, 2), backend, emb, params)
        right = path_sum((2, 3, 4, 5), backend, emb, params)
        joined = add_relations(left, right)
        if backend == "2n":
            np.testing.assert_allclose(whole.value, joined.value, rtol=1e-12)
        elif backend == "mlp":
            np.testing.assert_allclose(whole.value, joined.value, rtol=1e-12)
        else:
            np.testing.assert_allclose(whole.mean, joined.mean, rtol=1e-12)
            np.testing.assert_allclose(whole.var, joined.var, rtol=1e-12)

    def test_variant_mismatch_raises(self):
        with pytest.raises(TypeError):
            add_relations(ScalarRelation(1.0), VectorRelation(np.ones(2)))


class TestKlGaussian:
    def test_zero_iff_equal(self):
        rng = np.random.default_rng(26)
        for _ in range(200):
            mu = rng.normal(size=3)
            var = rng.uniform(0.2, 3.0, size=3)
            p = GaussianRelation(mu, var)
            assert kl_gaussian(p, p) == pytest.approx(0.0, abs=1e-12)
            q = GaussianRelation(mu + rng.normal(size=3) * 0.5 + 0.01, var)
            assert kl_gaussian(p, q) > 1e-9

    def test_frozen_one_dimensional_value(self):
        # D(N(0,1) || N(0, e^2)) = 0.5 * (e^-2 + 0 - 1 + 2)
        p = GaussianRelation(np.array([0.0]), np.array([1.0]))
        q = GaussianRelation(np.array([0.0]), np.array([np.exp(2.0)]))
        assert kl_gaussian(p, q) == pytest.approx(0.5676676416183064, rel=1e-12)

    def test_monte_carlo_oracle(self):
        rng = np.random.default_rng(27)
        for _ in range(5):
            k = int(rng.integers(1, 5))
            p = GaussianRelation(rng.normal(size=k), rng.uniform(0.3, 2.0, size=k))
            q = GaussianRelation(rng.normal(size=k), rng.uniform(0.3, 2.0, size=k))
            closed = kl_gaussian(p, q)
            est, se = mc_kl_estimate(p, q, 100_000, rng)
            assert abs(closed - est) <= 3.0 * se

    def test_non_negative(self):
        rng = np.random.default_rng(28)
        for _ in range(1000):
            k = int(rng.integers(1, 4))
            p = GaussianRelation(rng.normal(size=k), rng.uniform(0.1, 4.0, size=k))
            q = GaussianRelation(rng.normal(size=k), rng.uniform(0.1, 4.0, size=k))
            assert kl_gaussian(p, q) >= 0.0


class TestDiscrepancy:
    def test_identical_relations_zero(self):
        assert discrepancy(ScalarRelation(2.0), ScalarRelation(2.0)) == 0.0
        v = VectorRelation(np.array([1.0, -1.0]))
        assert discrepancy(v, v) == 0.0
        g = GaussianRelation(np.ones(2), np.ones(2))
        assert discrepancy(g, g) == 0.0

    def test_scalar_squared_difference(self):
        assert discrepancy(ScalarRelation(3.0), ScalarRelation(5.0)) == 4.0

    def test_gaussian_squared_kl(self):
        p = GaussianRelation(np.array([0.0]), np.array([1.0]))
        q = GaussianRelation(np.array([1.0]), np.array([1.0]))
        assert kl_gaussian(p, q) == pytest.approx(0.5)
        assert discrepancy(p, q) == pytest.approx(0.25)

    def test_symmetric_variant(self):
        p = GaussianRelation(np.array([0.0]), np.array([1.0]))
        q = GaussianRelation(np.array([0.5]), np.array([2.0]))
        want = (0.5 * (kl_gaussian(p, q) + kl_gaussian(q, p))) ** 2
        assert discrepancy(p, q, symmetric=True) == pytest.approx(want, rel=1e-12)
        assert discrepancy(p, q) != discrepancy(q, p)

    def test_variant_mismatch(self):
        with pytest.raises(TypeError):
            discrepancy(ScalarRelation(1.0), VectorRelation(np.ones(1)))

    def test_scalarize(self):
        assert scalarize(ScalarRelation(2.5)) == 2.5
        assert scalarize(VectorRelation(np.array([3.0, 4.0]))) == 5.0
        assert scalarize(GaussianRelation(np.array([3.0, 4.0]), np.ones(2))) == 5.0


class TestReparameterize:
    def test_zero_noise_returns_mean(self):
        rel = GaussianRelation(np.array([1.0, -2.0]), np.array([4.0, 0.25]))
        np.testing.assert_array_equal(reparameterize(rel, np.zeros(2)), rel.mean)

    def test_vanishing_variance_limit(self):
        rel = GaussianRelation(np.array([1.0, -2.0]), np.array([1e-30, 1e-30]))
        np.testing.assert_allclose(reparameterize(rel, np.ones(2)), rel.mean, atol=1e-9)

    def test_sample_moments(self):
        rng = np.random.default_rng(29)
        rel = GaussianRelation(np.array([0.7, -1.1]), np.array([2.0, 0.5]))
        n = 100_000
        z = reparameterize(rel, rng.standard_normal((n, 2)))
        se_mean = np.sqrt(rel.var / n)
        assert (np.abs(z.mean(axis=0) - rel.mean) <= 4 * se_mean).all()
        np.testing.assert_allclose(z.var(axis=0), rel.var, rtol=0.05)


class TestElbo:
    def test_prior_posterior_and_perfect_reconstruction(self):
        # zero weights: q = N(0, I), decoder mean 0, target (0, 0) -> only
        # the Gaussian log-normalizer survives
        k = 3
        params = zero_params("vi", k)
        rng = np.random.default_rng(30)
        val = elbo(np.zeros(k), np.zeros(k), params, num_samples=4, rng=rng)
        assert val == pytest.approx(-k * LOG_2PI, rel=1e-12)

    def test_more_samples_reduce_estimator_variance(self):
        rng = np.random.default_rng(31)
        k = 3
        params = init_metric_params("vi", k, rng, hidden=6)
        for name in params:
            params[name] = params[name] + 0.1 * rng.normal(size=params[name].shape)
        a, b = rng.normal(size=(2, k))

        def spread(num_samples):
            vals = [
                elbo(a, b, params, num_samples, rng=np.random.default_rng(1000 + r))
                for r in range(100)
            ]
            return np.var(vals)

        assert spread(16) < spread(1)

    def test_never_exceeds_reconstruction_term(self):
        rng = np.random.default_rng(32)
        k = 2
        params = init_metric_params("vi", k, rng, hidden=4)
        a, b = rng.normal(size=(2, k))
        noise = rng.standard_normal((8, k))
        val = elbo(a, b, params, num_samples=8, noise=noise)

        rel = g_vi(a, b, params)
        z = rel.mean + np.sqrt(rel.var) * noise
        h = np.maximum(z @ params["dec1_w"] + params["dec1_b"], 0.0)
        mean = h @ params["dec2_w"] + params["dec2_b"]
        target = np.concatenate([a, b])
        recon = (-0.5 * ((target - mean) ** 2).sum(axis=1) - k * LOG_2PI).mean()
        assert val <= recon + 1e-12

    def test_pure_given_fixed_noise(self):
        rng = np.random.default_rng(33)
        k = 2
        params = init_metric_params("vi", k, rng, hidden=4)
        a, b = rng.normal(size=(2, k))
        noise = rng.standard_normal((3, k))
        assert elbo(a, b, params, 3, noise=noise) == elbo(a, b, params, 3, noise=noise)


class TestInitAndValidation:
    def test_fan_in_bounds_and_zero_biases(self):
        rng = np.random.default_rng(34)
        params = init_metric_params("vi", 8, rng, hidden=16)
        for name, arr in params.items():
            if name.endswith("_b"):
                np.testing.assert_array_equal(arr, 0.0)
            else:
                bound = 1.0 / np.sqrt(arr.shape[0])
                assert np.abs(arr).max() <= bound


class TestTensorRouteParity:
    """The backends' batched autodiff forwards must equal the per-pair numpy ops."""

    @pytest.mark.parametrize("backend", list(BACKENDS))
    def test_relate_matches_per_pair_oracle(self, backend):
        rng = np.random.default_rng(35)
        k = 4
        metric = BACKENDS[backend]
        params = init_metric_params(backend, k, rng, hidden=6)
        pt = {n: Tensor(a) for n, a in params.items()}
        phi = rng.normal(size=(7, k))
        u = np.array([0, 2, 5, 2, 1, 6])
        v = np.array([1, 0, 3, 4, 1, 2])
        loc, logvar = metric.relate(Tensor(phi), u, v, pt, variance=True)
        for row in range(len(u)):
            want = relation(backend, phi[u[row]], phi[v[row]], params)
            if backend == "vi":
                np.testing.assert_allclose(loc.data[row], want.mean, rtol=1e-12)
                np.testing.assert_allclose(np.exp(logvar.data[row]), want.var, rtol=1e-12)
            else:
                np.testing.assert_allclose(loc.data[row], want.value, rtol=1e-12)
                assert logvar is None
        # without the variance only the location is computed, to the same bits
        alone, none = metric.relate(Tensor(phi), u, v, pt)
        assert none is None
        np.testing.assert_array_equal(alone.data, loc.data)

    def test_decoder_parity(self):
        rng = np.random.default_rng(37)
        k = 3
        params = init_metric_params("vi", k, rng, hidden=5)
        pt = {n: Tensor(a) for n, a in params.items()}
        z = rng.normal(size=(6, k))
        batched = decoder_forward_t(Tensor(z), pt).data
        manual = np.maximum(z @ params["dec1_w"] + params["dec1_b"], 0.0) \
            @ params["dec2_w"] + params["dec2_b"]
        np.testing.assert_allclose(batched, manual, rtol=1e-12)
