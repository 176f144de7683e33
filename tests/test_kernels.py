import math

import numpy as np
import pytest

from transduct import (
    InputError,
    KernelMatrix,
    KernelSpec,
    gram,
)
from transduct.kernels import jittered
from conftest import cdist_gram_reference, eval_kernel


class TestEvalKernel:
    def test_linear_self_dot(self):
        spec = KernelSpec("linear")
        assert eval_kernel(spec, [1.0, 2.0], [1.0, 2.0]) == 5.0

    def test_gaussian_at_zero_distance(self):
        spec = KernelSpec("gaussian", lengthscale=1.0)
        assert eval_kernel(spec, [0.0], [0.0]) == 1.0

    def test_matern_half_equals_exponential(self):
        spec = KernelSpec("matern", lengthscale=1.0, nu=0.5)
        value = eval_kernel(spec, [0.0], [1.0])
        np.testing.assert_allclose(value, math.exp(-1.0), rtol=1e-14)

    def test_gaussian_lengthscale(self):
        spec = KernelSpec("gaussian", lengthscale=2.0)
        value = eval_kernel(spec, [0.0], [3.0])
        np.testing.assert_allclose(value, math.exp(-9.0 / 8.0), rtol=1e-14)

    def test_laplace_uses_l1(self):
        spec = KernelSpec("laplace", lengthscale=1.0)
        value = eval_kernel(spec, [0.0, 0.0], [1.0, 1.0])
        np.testing.assert_allclose(value, math.exp(-2.0), rtol=1e-14)

    def test_matern_orders(self):
        r = 0.7
        a, b = [0.0], [r]
        k32 = eval_kernel(KernelSpec("matern", 1.0, nu=1.5), a, b)
        np.testing.assert_allclose(
            k32, (1 + math.sqrt(3) * r) * math.exp(-math.sqrt(3) * r), rtol=1e-14)
        k52 = eval_kernel(KernelSpec("matern", 1.0, nu=2.5), a, b)
        np.testing.assert_allclose(
            k52, (1 + math.sqrt(5) * r + 5 * r * r / 3) * math.exp(-math.sqrt(5) * r),
            rtol=1e-14)

    def test_embedding_with_latent_cov(self):
        sigma = np.array([[2.0, 0.5], [0.5, 1.0]])
        spec = KernelSpec("embedding", latent_cov=sigma)
        np.testing.assert_allclose(eval_kernel(spec, [1.0, 0.0], [0.0, 1.0]), 0.5, rtol=1e-14)

    def test_symmetry_is_exact(self, rng):
        sigma = rng.standard_normal((4, 4))
        sigma = sigma @ sigma.T
        specs = [KernelSpec("linear"), KernelSpec("gaussian", 0.7),
                 KernelSpec("laplace", 1.3), KernelSpec("matern", 0.9, nu=1.5),
                 KernelSpec("embedding"), KernelSpec("embedding", latent_cov=sigma)]
        for _ in range(50):
            a, b = rng.standard_normal(4), rng.standard_normal(4)
            for spec in specs:
                assert eval_kernel(spec, a, b) == eval_kernel(spec, b, a)


class TestGram:
    def test_orthonormal_embeddings(self):
        k = gram(KernelSpec("embedding"), [0, 1], [[1.0, 0.0], [0.0, 1.0]])
        np.testing.assert_allclose(k.values, np.eye(2), atol=1e-15)

    def test_gaussian_two_points(self):
        k = gram(KernelSpec("gaussian", 1.0), [0, 1], [[0.0], [1.0]])
        expected = np.array([[1.0, math.exp(-0.5)], [math.exp(-0.5), 1.0]])
        np.testing.assert_allclose(k.values, expected, rtol=1e-14)

    def test_single_point(self):
        k = gram(KernelSpec("linear"), [0], [[2.0, 1.0]])
        np.testing.assert_allclose(k.values, [[5.0]])

    def test_matches_eval_kernel_entrywise(self, rng):
        sigma = rng.standard_normal((3, 3))
        x = rng.standard_normal((6, 3))
        for spec in (KernelSpec("gaussian", 0.8), KernelSpec("laplace", 1.1),
                     KernelSpec("matern", 1.0, nu=2.5), KernelSpec("linear"),
                     KernelSpec("embedding"), KernelSpec("embedding", latent_cov=sigma @ sigma.T)):
            k = gram(spec, range(6), x)
            assert k.ids == tuple(range(6))
            for i in range(6):
                for j in range(6):
                    np.testing.assert_allclose(
                        k.values[i, j], eval_kernel(spec, x[i], x[j]),
                        rtol=1e-12, atol=1e-12)

    def test_every_family_reads_the_same_features(self, rng):
        x = rng.standard_normal((7, 3))
        ids = [4, 0, 9, 2, 7, 1, 3]
        linear = gram(KernelSpec("linear"), ids, x)
        assert np.array_equal(gram(KernelSpec("embedding"), ids, x).values, linear.values)
        for spec in (KernelSpec("gaussian", 0.8), KernelSpec("matern", 1.0, nu=1.5)):
            k = gram(spec, ids, x)
            assert k.ids == tuple(ids)
            assert np.array_equal(k.values, cdist_gram_reference(spec, x))

    @pytest.mark.parametrize("dim", [1, 2, 3, 32])
    @pytest.mark.parametrize("family,nu", [("gaussian", None), ("laplace", None),
                                           ("matern", 0.5), ("matern", 1.5),
                                           ("matern", 2.5)])
    def test_bitwise_equal_to_cdist_reference(self, rng, family, nu, dim):
        # lengthscales grow with the dimension so entries stay away from 0 and 1
        scale = dim if family == "laplace" else math.sqrt(dim)
        for spread in (1e-3, 1.0, 40.0):
            # 300 rows span two row blocks of the distance sums, the second partial
            x = rng.standard_normal((300, dim)) * spread
            spec = KernelSpec(family, 0.7 * scale * spread, nu=nu)
            assert np.array_equal(gram(spec, range(300), x).values,
                                  cdist_gram_reference(spec, x))

    def test_jittered_gram_admits_cholesky_up_to_512(self, rng):
        x = rng.uniform(0, 1, size=(512, 2))
        for spec in (KernelSpec("gaussian", 0.3), KernelSpec("laplace", 0.5),
                     KernelSpec("matern", 0.4, nu=1.5)):
            k = gram(spec, range(512), x)
            np.linalg.cholesky(jittered(k.values))

    def test_matern_half_equals_laplace_gram_on_1d(self, rng):
        x = rng.standard_normal((20, 1))
        k_m = gram(KernelSpec("matern", 0.9, nu=0.5), range(20), x)
        k_l = gram(KernelSpec("laplace", 0.9), range(20), x)
        np.testing.assert_allclose(k_m.values, k_l.values, atol=1e-12)

    def test_dimension_mismatch(self):
        with pytest.raises(InputError, match="numeric"):
            gram(KernelSpec("gaussian", 1.0), [0, 1], [[0.0], [0.0, 1.0]])
        with pytest.raises(InputError, match="latent_cov dimension"):
            gram(KernelSpec("embedding", latent_cov=np.eye(3)), [0, 1], np.ones((2, 2)))

    @pytest.mark.parametrize("ids, features", [
        ([], np.zeros((0, 2))),
        ([0, 1], np.zeros((2, 0))),
        ([0, 1], [0.0, 1.0]),
        ([0, 1], np.zeros((3, 1))),
        ([0, 1, 2], np.zeros((2, 1))),
    ], ids=["no-rows", "no-columns", "one-dimensional", "extra-row", "missing-row"])
    def test_features_must_be_a_nonempty_matrix_with_one_row_per_id(self, ids, features):
        for family in ("linear", "gaussian"):
            with pytest.raises(InputError, match="nonempty"):
                gram(KernelSpec(family), ids, features)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_features_are_refused(self, bad):
        for family in ("embedding", "laplace"):
            with pytest.raises(InputError, match="non-finite"):
                gram(KernelSpec(family), [0, 1], [[0.0, 1.0], [bad, 2.0]])

    def test_negative_id_is_refused(self):
        with pytest.raises(InputError, match="nonnegative, got -1"):
            gram(KernelSpec("gaussian"), [0, -1], [[0.0], [1.0]])
        with pytest.raises(InputError, match="nonnegative"):
            KernelMatrix(np.eye(1), (-1,))

    def test_repeated_ids_are_refused(self):
        # one of two points sharing an id could never be scored or observed
        with pytest.raises(InputError, match=r"ids repeat: \[0\]"):
            gram(KernelSpec("gaussian"), [0, 0, 1], [[0.0], [5.0], [0.1]])
        with pytest.raises(InputError, match=r"ids repeat: \[3, 9\]"):
            KernelMatrix(np.eye(5), (9, 3, 9, 3, 9))


class TestCosineSimilarity:
    def test_embedding_correlation_equals_cosine(self, rng):
        x = rng.standard_normal((8, 4))
        k = gram(KernelSpec("embedding"), range(8), x)
        for i in range(8):
            for j in range(8):
                a, b = x[i], x[j]
                cosine = np.dot(a, b) / (np.linalg.norm(a) * np.linalg.norm(b))
                corr = k.values[i, j] / math.sqrt(k.values[i, i] * k.values[j, j])
                assert abs(corr - cosine) < 1e-12


class TestSpecsAndModels:
    def test_kernel_spec_validation(self):
        with pytest.raises(InputError):
            KernelSpec("matern", nu=2.0)
        with pytest.raises(InputError):
            KernelSpec("gaussian", lengthscale=0.0)
        with pytest.raises(InputError):
            KernelSpec("sobolev")
        with pytest.raises(InputError):
            KernelSpec("embedding", latent_cov=np.array([[1.0, 2.0], [0.0, 1.0]]))
        with pytest.raises(InputError):
            KernelSpec("embedding", latent_cov=np.array([[1.0, 0.0], [0.0, -1.0]]))

    @pytest.mark.parametrize("family", ["linear", "gaussian", "laplace", "embedding"])
    def test_nu_only_for_matern(self, family):
        with pytest.raises(InputError, match="nu only applies to the matern family"):
            KernelSpec(family, nu=2.5)
        assert KernelSpec("matern", nu=2.5).nu == 2.5

    def test_kernel_matrix_validation(self):
        with pytest.raises(InputError):
            KernelMatrix(np.array([[1.0, 0.5], [0.4, 1.0]]), (0, 1))
        with pytest.raises(InputError):
            KernelMatrix(np.array([[1.0, 0.0], [0.0, np.inf]]), (0, 1))
        k = KernelMatrix(np.eye(2), (3, 9))
        assert k.position(9) == 1
        with pytest.raises(InputError):
            k.position(4)

    @pytest.mark.parametrize("where", ["first", "last"])
    @pytest.mark.parametrize("mirror", [False, True])
    @pytest.mark.parametrize("factor", [1 - 1e-6, 1 + 1e-6])
    def test_row_blocked_symmetry_check_agrees_with_allclose(self, rng, where, mirror,
                                                             factor):
        # 300 rows make two row blocks of 218 and 82 rows; the first pair spans
        # both blocks, so the check sees it from one side only
        n = 300
        w = rng.standard_normal((n, n))
        vals = w @ w.T / n
        vals = (vals + vals.T) / 2.0
        i, j = (3, 250) if where == "first" else (n - 2, n - 1)
        if mirror:
            i, j = j, i
        ref = vals[j, i]
        # |a - b| <= 1e-12 + 1e-5 |b| must hold both ways; the smaller of |a|, |b| binds
        away = 1e-12 + 1e-5 * abs(ref)
        toward = away / (1 + 1e-5)
        for delta in (factor * away * np.sign(ref), -factor * toward * np.sign(ref)):
            off = vals.copy()
            off[i, j] = ref + delta
            verdict = bool(np.allclose(off, off.T, atol=1e-12))
            assert verdict == (factor < 1)  # the cases sit on either side of the tolerance
            try:
                KernelMatrix(off, tuple(range(n)))
                accepted = True
            except InputError as exc:
                assert str(exc) == "Gram matrix is not symmetric within 1e-12"
                accepted = False
            assert accepted == verdict

    def test_empty_gram_is_refused(self):
        with pytest.raises(InputError, match="nonempty"):
            KernelMatrix(np.zeros((0, 0)), ())

    def test_non_finite_entry_is_reported_before_asymmetry(self):
        vals = np.eye(300)
        vals[0, 1] = 0.5  # asymmetric in the first row block
        vals[299, 298] = np.nan  # non-finite in the last
        with pytest.raises(InputError, match="non-finite"):
            KernelMatrix(vals, tuple(range(300)))
