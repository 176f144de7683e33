import math
import time
import tracemalloc

import numpy as np
import pytest
from scipy.linalg import solve_triangular

from transduct import (
    IGQuery,
    InputError,
    KernelMatrix,
    KernelSpec,
    NoiseModel,
    NumericError,
    Observation,
    Point,
    PosteriorState,
    batch_information_gain,
    beta_n,
    condition,
    condition_all,
    entropy,
    gram,
    information_capacity,
    information_gain,
    marginal_variance,
)
from transduct import posterior
from conftest import (
    batch_posterior_oracle,
    best_grouped_gain_reference,
    capacity_greedy_reference,
    capacity_subset_reference,
    random_state,
)

TWO_POINT = np.array([[1.0, 0.5], [0.5, 1.0]])


def two_point_state(rho2=0.1):
    gram = KernelMatrix(TWO_POINT, (0, 1))
    return PosteriorState.from_prior(gram, NoiseModel.homoscedastic(rho2))


class TestConditioning:
    def test_hand_computed_update(self):
        state = condition(two_point_state(), Observation(0, 1.0, 0.1))
        np.testing.assert_allclose(marginal_variance(state, 1), 1 - 0.25 / 1.1,
                                   rtol=1e-12)
        # conditional mean at index 1: k10 / (k00 + rho^2) * y
        np.testing.assert_allclose(state.mean_vector([1]), [0.5 / 1.1], rtol=1e-12)

    def test_prior_shares_the_read_only_gram(self):
        gram = KernelMatrix(np.diag([1.0, 2.0]), (0, 1))
        state = PosteriorState.from_prior(gram, NoiseModel.homoscedastic(0.1))
        assert state.cov is gram.values and not state.cov.flags.writeable
        after = condition(state, Observation(0, 3.0, 0.1))
        np.testing.assert_array_equal(gram.values, np.diag([1.0, 2.0]))
        assert marginal_variance(after, 0) < 1.0

    def test_uncorrelated_point_untouched(self):
        gram = KernelMatrix(np.diag([1.0, 2.0]), (0, 1))
        state = PosteriorState.from_prior(gram, NoiseModel.homoscedastic(0.1))
        after = condition(state, Observation(0, 3.0, 0.1))
        assert marginal_variance(after, 1) == 2.0
        assert after.mean_vector([1])[0] == 0.0

    def test_repeated_observation_tightens(self):
        once = condition(two_point_state(), Observation(0, 1.0, 0.1))
        twice = condition(once, Observation(0, 1.0, 0.1))
        assert marginal_variance(twice, 0) < marginal_variance(once, 0)
        assert marginal_variance(twice, 1) < marginal_variance(once, 1)

    def test_near_exact_observation_zeroes_variance(self):
        state = condition(two_point_state(), Observation(0, 1.0, 1e-8))
        assert marginal_variance(state, 0) < 1e-7

    def test_matches_batch_oracle_in_any_order(self, rng):
        for _ in range(20):
            state = random_state(rng, 12, hetero=True)
            count = int(rng.integers(1, 10))
            observations = [Observation(int(rng.integers(0, 12)),
                                        float(rng.standard_normal()), float(v))
                            for v in rng.uniform(0.05, 0.5, size=count)]
            mean_oracle, cov_oracle = batch_posterior_oracle(state, observations)
            for _ in range(3):
                order = rng.permutation(count)
                result = condition_all(state, [observations[i] for i in order])
                np.testing.assert_allclose(result.mean, mean_oracle, atol=1e-8)
                np.testing.assert_allclose(result.cov, cov_oracle, atol=1e-8)

    def test_variance_never_increases(self, rng):
        state = random_state(rng, 10)
        for _ in range(25):
            idx = int(rng.integers(0, 10))
            before = np.maximum(np.diag(state.cov), 0.0)
            state = condition(state, Observation(idx, float(rng.standard_normal()),
                                                 state.noise.variance_at(idx)))
            after = np.maximum(np.diag(state.cov), 0.0)
            assert np.all(after <= before + 1e-12)

    def test_prior_variance_is_kernel_diagonal(self):
        state = two_point_state()
        assert marginal_variance(state, 0) == 1.0

    def test_round_counter(self):
        state = two_point_state()
        assert state.round == 0
        assert condition(state, Observation(0, 0.0, 0.1)).round == 1

    def test_batch_matches_sequential_with_repeats(self, rng):
        for _ in range(20):
            state = random_state(rng, 15, hetero=True)
            observations = [Observation(int(i), float(rng.standard_normal()), float(v))
                            for i, v in zip(rng.integers(0, 5, size=12),
                                            rng.uniform(0.01, 0.5, size=12))]
            batch = condition_all(state, observations)
            sequential = state
            for obs in observations:
                sequential = condition(sequential, obs)
            assert batch.history == sequential.history
            np.testing.assert_allclose(batch.cov, sequential.cov, rtol=0, atol=1e-12)
            np.testing.assert_allclose(batch.mean, sequential.mean, rtol=0, atol=1e-12)

    def test_no_drift_at_tiny_noise(self):
        # 400 observations at rho^2 = 1e-8 in batches of 10, as the round loop
        # conditions them; the reference is one Cholesky recompute from the prior
        rng = np.random.default_rng(7)
        points = [Point(i, coords=xy) for i, xy in enumerate(rng.uniform(size=(60, 2)))]
        state = PosteriorState.from_prior(gram(KernelSpec("gaussian", lengthscale=0.2), points),
                                          NoiseModel.homoscedastic(1e-8))
        observations = [Observation(int(i), float(rng.standard_normal()), 1e-8)
                        for i in rng.integers(0, 60, size=400)]
        for start in range(0, 400, 10):
            state = condition_all(state, observations[start:start + 10])
        prior = state.gram.values
        pos = [state.position(obs.index) for obs in observations]
        chol = np.linalg.cholesky(prior[np.ix_(pos, pos)] + 1e-8 * np.eye(400))
        v = solve_triangular(chol, prior[pos, :], lower=True)
        assert np.max(np.abs(state.cov - (prior - v.T @ v))) <= 1e-12

    def test_empty_batch_is_identity(self):
        state = two_point_state()
        assert condition_all(state, []) is state


class TestInformationGain:
    def test_hand_computed_backward(self):
        state = two_point_state(0.1)
        gain = information_gain(state, IGQuery((1,), 0, "backward"))
        np.testing.assert_allclose(gain, 0.5 * math.log(1.1 / 0.85), atol=1e-9)

    def test_hand_computed_forward(self):
        state = two_point_state(0.1)
        gain = information_gain(state, IGQuery((1,), 0, "forward"))
        np.testing.assert_allclose(gain, 0.5 * math.log(1.1 / 0.85), atol=1e-9)

    def test_independent_candidate_gains_nothing(self):
        gram = KernelMatrix(np.diag([1.0, 1.0]), (0, 1))
        state = PosteriorState.from_prior(gram, NoiseModel.homoscedastic(0.1))
        assert information_gain(state, IGQuery((1,), 0)) <= 1e-12

    def test_candidate_inside_targets_reduces_to_uncertainty(self, rng):
        for _ in range(10):
            state = random_state(rng, 8, noise_range=(0.2, 0.2))
            targets = tuple(range(8))
            for x in range(8):
                gain = information_gain(state, IGQuery(targets, x))
                expected = 0.5 * math.log1p(marginal_variance(state, x) / 0.2)
                np.testing.assert_allclose(gain, expected, atol=1e-7)

    def test_forward_backward_agree(self, rng):
        for _ in range(40):
            n = int(rng.integers(4, 24))
            state = random_state(rng, n, hetero=True)
            n_targets = int(rng.integers(1, min(8, n)))
            targets = tuple(int(i) for i in rng.choice(n, size=n_targets, replace=False))
            x = int(rng.integers(0, n))
            for stabilize in (False, True):
                fwd = information_gain(state, IGQuery(targets, x, "forward"),
                                       stabilize=stabilize)
                bwd = information_gain(state, IGQuery(targets, x, "backward"),
                                       stabilize=stabilize)
                np.testing.assert_allclose(fwd, bwd, atol=1e-8)

    def test_zero_iff_conditionally_independent(self, rng):
        blocks = np.zeros((6, 6))
        blocks[:3, :3] = random_state(rng, 3, unit_diag=True).gram.values
        blocks[3:, 3:] = random_state(rng, 3, unit_diag=True).gram.values
        gram = KernelMatrix(blocks, tuple(range(6)))
        state = PosteriorState.from_prior(gram, NoiseModel.homoscedastic(0.3))
        assert information_gain(state, IGQuery((3, 4), 0)) <= 1e-10
        assert information_gain(state, IGQuery((3, 4), 5)) > 1e-4

    def test_chain_rule(self, rng):
        for _ in range(15):
            state = random_state(rng, 10, hetero=True, noise_range=(0.1, 0.8))
            targets = tuple(int(i) for i in rng.choice(10, size=4, replace=False))
            x1, x2 = (int(i) for i in rng.choice(10, size=2, replace=False))
            first = information_gain(state, IGQuery(targets, x1))
            mid = condition(state, Observation(x1, 0.0, state.noise.variance_at(x1)))
            second = information_gain(mid, IGQuery(targets, x2))
            joint = batch_information_gain(state, targets, (x1, x2))
            np.testing.assert_allclose(first + second, joint, atol=1e-8)

    def test_stabilized_matches_noisy_target_block(self):
        # adding rho^2 to the target diagonal: 1/2 log(1.1 / (1.1 - 0.25/1.1))
        state = two_point_state(0.1)
        gain = information_gain(state, IGQuery((1,), 0), stabilize=True)
        expected = 0.5 * math.log(1.1 / (1.1 - 0.25 / 1.1))
        np.testing.assert_allclose(gain, expected, atol=1e-9)

    def test_singular_batch_block_is_numeric_error(self):
        # two coincident points measured with negligible noise: c_bb rounds
        # to [[1, 1], [1, 1]] exactly, which no unjittered solve can invert
        values = np.array([[1.0, 1.0, 0.5], [1.0, 1.0, 0.5], [0.5, 0.5, 1.0]])
        state = PosteriorState.from_prior(KernelMatrix(values, (0, 1, 2)),
                                          NoiseModel.homoscedastic(1e-300))
        with pytest.raises(NumericError):
            batch_information_gain(state, [2], [0, 1])

    def test_query_validation(self):
        with pytest.raises(InputError):
            IGQuery((), 0)
        with pytest.raises(InputError):
            IGQuery((1,), 0, "sideways")


class TestInformationCapacity:
    def test_single_observation_takes_best_point(self):
        gram = KernelMatrix(np.diag([1.0, 4.0]), (0, 1))
        state = PosteriorState.from_prior(gram, NoiseModel.homoscedastic(1.0))
        expected = 0.5 * math.log(1 + 4.0)
        for mode in ("greedy", "brute"):
            np.testing.assert_allclose(
                information_capacity(state, [0, 1], 1, mode), expected, atol=1e-9)

    def test_independent_points_add_up(self):
        gram = KernelMatrix(np.eye(5), tuple(range(5)))
        state = PosteriorState.from_prior(gram, NoiseModel.homoscedastic(1.0))
        np.testing.assert_allclose(information_capacity(state, list(range(5)), 3),
                                   1.5 * math.log(2.0), atol=1e-9)

    def test_greedy_approximation_guarantee(self, rng):
        factor = 1 - 1 / math.e
        for _ in range(10):
            state = random_state(rng, 10, hetero=True, noise_range=(0.2, 1.0))
            for budget in (2, 4):
                greedy = information_capacity(state, list(range(10)), budget, "greedy")
                brute = information_capacity(state, list(range(10)), budget, "brute")
                assert greedy >= factor * brute - 1e-9
                assert greedy <= brute + 1e-9

    def test_multiset_beats_subsets_when_budget_exceeds_pool(self):
        gram = KernelMatrix(np.eye(2), (0, 1))
        state = PosteriorState.from_prior(gram, NoiseModel.homoscedastic(0.5))
        with pytest.raises(InputError):
            information_capacity(state, [0, 1], 3, "brute")
        multi = information_capacity(state, [0, 1], 3, "brute", multiset=True)
        sub = information_capacity(state, [0, 1], 2, "brute")
        assert multi > sub

    def test_zero_budget(self):
        state = two_point_state()
        assert information_capacity(state, [0, 1], 0) == 0.0


class TestStackedCapacityEnumeration:
    def test_matches_scalar_reference(self, rng, monkeypatch):
        # chunk 120 fits the 120 multisets of |S|=8, size 3 exactly; the
        # default 256 sees counts below and above it (792 at |S|=8, size 5)
        for n in range(2, 9):
            state = random_state(rng, n, hetero=True)
            noise = state.noise.vector(state.ids)
            for size in range(1, 7):
                expected = best_grouped_gain_reference(state.cov, noise, size)
                for chunk in (256, 120):
                    monkeypatch.setattr(posterior, "_CHUNK", chunk)
                    got = posterior._best_grouped_gain(state.cov, noise, size)
                    assert got == pytest.approx(expected, rel=1e-12, abs=0.0)

    def test_large_sample_space_scores_small_blocks(self, rng):
        # |S| = 300 at sizes 1 and 2: each multiset is a size x size block,
        # so a chunk holds kilobytes, not 256 blocks of 300 x 300
        state = random_state(rng, 300, hetero=True)
        noise = state.noise.vector(state.ids)
        for size in (1, 2):
            tracemalloc.start()
            start = time.perf_counter()
            got = posterior._best_grouped_gain(state.cov, noise, size)
            elapsed = time.perf_counter() - start
            peak = tracemalloc.get_traced_memory()[1]
            tracemalloc.stop()
            assert peak < 16e6
            assert elapsed < 5.0
            expected = best_grouped_gain_reference(state.cov, noise, size)
            assert got == pytest.approx(expected, rel=1e-12, abs=0.0)

    def test_non_finite_covariance_is_numeric_error(self, rng):
        state = random_state(rng, 4, hetero=True)
        cov = state.cov.copy()
        cov[1, 2] = cov[2, 1] = np.nan
        with np.errstate(invalid="ignore"), pytest.raises(NumericError):
            posterior._best_grouped_gain(cov, state.noise.vector(state.ids), 2)


class TestFactorBlockCapacity:
    @pytest.mark.parametrize("hetero", [False, True])
    @pytest.mark.parametrize("multiset", [False, True])
    def test_greedy_matches_dense_reference(self, rng, hetero, multiset):
        for n in range(2, 12):
            state = random_state(rng, n, hetero=hetero)
            cands = list(range(n))
            for budget in (1, n // 2 + 1, n, n + 3, 20 * n):  # 20 n: factor far wider than |S|
                expected = capacity_greedy_reference(state, cands, budget, multiset)
                got = information_capacity(state, cands, budget, "greedy",
                                           multiset=multiset)
                assert got == pytest.approx(expected, rel=1e-12, abs=0.0)

    @pytest.mark.parametrize("hetero", [False, True])
    def test_subset_brute_matches_reference(self, rng, hetero):
        # the reference's Cholesky adds 1e-10 relative jitter; the stacked
        # kernel's slogdet is exact, hence 1e-9 rather than 1e-12
        for n in range(2, 9):
            state = random_state(rng, n, hetero=hetero)
            cands = list(range(n))
            for budget in range(1, min(n, 4) + 1):
                expected = capacity_subset_reference(state, cands, budget)
                got = information_capacity(state, cands, budget, "brute")
                assert got == pytest.approx(expected, rel=1e-9, abs=0.0)

    def test_blocks_grow_past_initial_capacity(self, rng):
        prior = random_state(rng, 12, hetero=True)
        targets, cands = (9, 10, 11), list(range(9))
        blocks = posterior._Blocks(prior, targets, cands, 1)
        picks = [3, 0, 3, 7, 5, 1]
        for pick in picks:
            posterior.bace_update(blocks, pick, prior.noise.variance_at(cands[pick]))
        assert blocks.width == len(picks) and blocks.w.shape[1] >= len(picks)
        observations = [Observation(cands[p], 0.0, prior.noise.variance_at(cands[p]))
                        for p in picks]
        _, cov = batch_posterior_oracle(prior, observations)
        rows = prior.positions(targets + tuple(cands))
        np.testing.assert_allclose(blocks.var(), np.diag(cov)[rows], rtol=1e-12, atol=1e-12)


class TestEntropy:
    def test_unit_variance_point(self):
        state = two_point_state()
        np.testing.assert_allclose(entropy(state, [0]),
                                   0.5 * math.log(2 * math.pi * math.e), atol=1e-9)

    def test_independent_points_add(self):
        gram = KernelMatrix(np.eye(2), (0, 1))
        state = PosteriorState.from_prior(gram, NoiseModel.homoscedastic(1.0))
        np.testing.assert_allclose(entropy(state, [0, 1]),
                                   math.log(2 * math.pi * math.e), atol=1e-9)

    def test_degenerate_variance_is_finite(self):
        gram = KernelMatrix(np.array([[1e-10]]), (0,))
        state = PosteriorState.from_prior(gram, NoiseModel.homoscedastic(1.0))
        value = entropy(state, [0])
        assert value < -5.0 and math.isfinite(value)


class TestBetaN:
    def test_plugged_example(self):
        np.testing.assert_allclose(beta_n(0.0, 1.0, 0.0, math.exp(-1.0)), 2.0,
                                   rtol=1e-12)

    def test_noise_free_limit(self):
        assert beta_n(5.0, 0.0, 3.0, 0.5) == 5.0

    def test_monotone_in_capacity(self):
        values = [beta_n(1.0, 1.0, g, 0.1) for g in (0.0, 1.0, 5.0, 20.0)]
        assert all(b > a for a, b in zip(values, values[1:]))

    def test_delta_domain(self):
        with pytest.raises(InputError):
            beta_n(1.0, 1.0, 1.0, 0.0)
        with pytest.raises(InputError):
            beta_n(1.0, 1.0, 1.0, 1.0)
