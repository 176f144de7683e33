import math

import numpy as np
import pytest

from transduct import (
    InputError,
    KernelMatrix,
    KernelSpec,
    NoiseModel,
    Point,
    gram,
)
from transduct.kernels import jittered
from conftest import cdist_gram_reference, eval_kernel


def pt(i, coords=None, emb=None):
    return Point(i, coords=coords, embedding=emb)


class TestEvalKernel:
    def test_linear_self_dot(self):
        spec = KernelSpec("linear")
        assert eval_kernel(spec, pt(0, [1.0, 2.0]), pt(1, [1.0, 2.0])) == 5.0

    def test_gaussian_at_zero_distance(self):
        spec = KernelSpec("gaussian", lengthscale=1.0)
        assert eval_kernel(spec, pt(0, [0.0]), pt(1, [0.0])) == 1.0

    def test_matern_half_equals_exponential(self):
        spec = KernelSpec("matern", lengthscale=1.0, nu=0.5)
        value = eval_kernel(spec, pt(0, [0.0]), pt(1, [1.0]))
        np.testing.assert_allclose(value, math.exp(-1.0), rtol=1e-14)

    def test_gaussian_lengthscale(self):
        spec = KernelSpec("gaussian", lengthscale=2.0)
        value = eval_kernel(spec, pt(0, [0.0]), pt(1, [3.0]))
        np.testing.assert_allclose(value, math.exp(-9.0 / 8.0), rtol=1e-14)

    def test_laplace_uses_l1(self):
        spec = KernelSpec("laplace", lengthscale=1.0)
        value = eval_kernel(spec, pt(0, [0.0, 0.0]), pt(1, [1.0, 1.0]))
        np.testing.assert_allclose(value, math.exp(-2.0), rtol=1e-14)

    def test_matern_orders(self):
        r = 0.7
        a, b = pt(0, [0.0]), pt(1, [r])
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
        a, b = pt(0, emb=[1.0, 0.0]), pt(1, emb=[0.0, 1.0])
        np.testing.assert_allclose(eval_kernel(spec, a, b), 0.5, rtol=1e-14)

    def test_symmetry_is_exact(self, rng):
        sigma = rng.standard_normal((4, 4))
        sigma = sigma @ sigma.T
        specs = [KernelSpec("linear"), KernelSpec("gaussian", 0.7),
                 KernelSpec("laplace", 1.3), KernelSpec("matern", 0.9, nu=1.5),
                 KernelSpec("embedding"), KernelSpec("embedding", latent_cov=sigma)]
        for _ in range(50):
            va, vb = rng.standard_normal(4), rng.standard_normal(4)
            a = Point(3, coords=va, embedding=va)
            b = Point(11, coords=vb, embedding=vb)
            for spec in specs:
                assert eval_kernel(spec, a, b) == eval_kernel(spec, b, a)

    def test_missing_field_is_input_error(self):
        with pytest.raises(InputError):
            eval_kernel(KernelSpec("gaussian"), pt(0, emb=[1.0]), pt(1, emb=[1.0]))
        with pytest.raises(InputError):
            eval_kernel(KernelSpec("embedding"), pt(0, [1.0]), pt(1, [1.0]))


class TestGram:
    def test_orthonormal_embeddings(self):
        points = [pt(0, emb=[1.0, 0.0]), pt(1, emb=[0.0, 1.0])]
        k = gram(KernelSpec("embedding"), points)
        np.testing.assert_allclose(k.values, np.eye(2), atol=1e-15)

    def test_gaussian_two_points(self):
        k = gram(KernelSpec("gaussian", 1.0), [pt(0, [0.0]), pt(1, [1.0])])
        expected = np.array([[1.0, math.exp(-0.5)], [math.exp(-0.5), 1.0]])
        np.testing.assert_allclose(k.values, expected, rtol=1e-14)

    def test_single_point(self):
        k = gram(KernelSpec("linear"), [pt(0, [2.0, 1.0])])
        np.testing.assert_allclose(k.values, [[5.0]])

    def test_matches_eval_kernel_entrywise(self, rng):
        points = [pt(i, coords=rng.standard_normal(3),
                     emb=rng.standard_normal(5)) for i in range(6)]
        for spec in (KernelSpec("gaussian", 0.8), KernelSpec("laplace", 1.1),
                     KernelSpec("matern", 1.0, nu=2.5), KernelSpec("linear"),
                     KernelSpec("embedding")):
            k = gram(spec, points)
            for i in range(6):
                for j in range(6):
                    np.testing.assert_allclose(
                        k.values[i, j], eval_kernel(spec, points[i], points[j]),
                        rtol=1e-12, atol=1e-12)

    @pytest.mark.parametrize("dim", [1, 2, 3, 32])
    @pytest.mark.parametrize("family,nu", [("gaussian", None), ("laplace", None),
                                           ("matern", 0.5), ("matern", 1.5),
                                           ("matern", 2.5)])
    def test_bitwise_equal_to_cdist_reference(self, rng, family, nu, dim):
        # lengthscales grow with the dimension so entries stay away from 0 and 1
        scale = dim if family == "laplace" else math.sqrt(dim)
        for spread in (1e-3, 1.0, 40.0):
            # 300 rows span two row blocks of the distance sums, the second partial
            points = [pt(i, coords=rng.standard_normal(dim) * spread) for i in range(300)]
            spec = KernelSpec(family, 0.7 * scale * spread, nu=nu)
            assert np.array_equal(gram(spec, points).values,
                                  cdist_gram_reference(spec, points))

    def test_jittered_gram_admits_cholesky_up_to_512(self, rng):
        points = [pt(i, coords=rng.uniform(0, 1, size=2)) for i in range(512)]
        for spec in (KernelSpec("gaussian", 0.3), KernelSpec("laplace", 0.5),
                     KernelSpec("matern", 0.4, nu=1.5)):
            k = gram(spec, points)
            np.linalg.cholesky(jittered(k.values))

    def test_matern_half_equals_laplace_gram_on_1d(self, rng):
        points = [pt(i, coords=rng.standard_normal(1)) for i in range(20)]
        k_m = gram(KernelSpec("matern", 0.9, nu=0.5), points)
        k_l = gram(KernelSpec("laplace", 0.9), points)
        np.testing.assert_allclose(k_m.values, k_l.values, atol=1e-12)

    def test_dimension_mismatch(self):
        with pytest.raises(InputError):
            gram(KernelSpec("gaussian", 1.0), [pt(0, [0.0]), pt(1, [0.0, 1.0])])

    def test_empty_domain(self):
        with pytest.raises(InputError):
            gram(KernelSpec("linear"), [])


class TestCosineSimilarity:
    def test_embedding_correlation_equals_cosine(self, rng):
        points = [pt(i, emb=rng.standard_normal(4)) for i in range(8)]
        k = gram(KernelSpec("embedding"), points)
        for i in range(8):
            for j in range(8):
                a, b = points[i].embedding, points[j].embedding
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

    def test_point_needs_a_representation(self):
        with pytest.raises(InputError):
            Point(0)
        with pytest.raises(InputError):
            Point(-1, coords=[0.0])

    def test_noise_model(self):
        with pytest.raises(InputError):
            NoiseModel.homoscedastic(0.0)
        with pytest.raises(InputError):
            NoiseModel(per_index={0: 0.1, 1: -0.5})
        model = NoiseModel(per_index={0: 0.1}, default=0.3)
        assert model.variance_at(0) == 0.1
        assert model.variance_at(5) == 0.3
        np.testing.assert_allclose(model.vector([0, 5]), [0.1, 0.3])

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
