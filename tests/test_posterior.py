import math
import time
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from scipy.linalg import solve_triangular

from transduct import (
    InputError,
    KernelMatrix,
    KernelSpec,
    NoiseModel,
    NumericError,
    Observation,
    Point,
    PosteriorState,
    batch_information_gain,
    condition,
    condition_all,
    gram,
    information_capacity,
    information_gain,
)
from transduct import posterior
from conftest import (
    batch_gain_reference,
    batch_posterior_oracle,
    best_grouped_gain_reference,
    capacity_greedy_reference,
    capacity_multiset_reference,
    itl_scores_reference,
    random_psd_gram,
    random_state,
)

TWO_POINT = np.array([[1.0, 0.5], [0.5, 1.0]])


def two_point_state(rho2=0.1):
    gram = KernelMatrix(TWO_POINT, (0, 1))
    return PosteriorState.from_prior(gram, NoiseModel.homoscedastic(rho2))


class TestConditioning:
    def test_hand_computed_update(self):
        state = condition(two_point_state(), Observation(0, 1.0, 0.1))
        np.testing.assert_allclose(state.variance_vector([1])[0], 1 - 0.25 / 1.1,
                                   rtol=1e-12)
        # conditional mean at index 1: k10 / (k00 + rho^2) * y
        np.testing.assert_allclose(state.mean[state.positions([1])], [0.5 / 1.1], rtol=1e-12)

    def test_prior_shares_the_read_only_gram(self):
        gram = KernelMatrix(np.diag([1.0, 2.0]), (0, 1))
        state = PosteriorState.from_prior(gram, NoiseModel.homoscedastic(0.1))
        assert state.cov is gram.values and not state.cov.flags.writeable
        after = condition(state, Observation(0, 3.0, 0.1))
        np.testing.assert_array_equal(gram.values, np.diag([1.0, 2.0]))
        assert after.variance_vector([0])[0] < 1.0

    def test_uncorrelated_point_untouched(self):
        gram = KernelMatrix(np.diag([1.0, 2.0]), (0, 1))
        state = PosteriorState.from_prior(gram, NoiseModel.homoscedastic(0.1))
        after = condition(state, Observation(0, 3.0, 0.1))
        assert after.variance_vector([1])[0] == 2.0
        assert after.mean[after.position(1)] == 0.0

    def test_repeated_observation_tightens(self):
        once = condition(two_point_state(), Observation(0, 1.0, 0.1))
        twice = condition(once, Observation(0, 1.0, 0.1))
        assert twice.variance_vector([0])[0] < once.variance_vector([0])[0]
        assert twice.variance_vector([1])[0] < once.variance_vector([1])[0]

    def test_near_exact_observation_zeroes_variance(self):
        state = condition(two_point_state(), Observation(0, 1.0, 1e-8))
        assert state.variance_vector([0])[0] < 1e-7

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
        assert state.variance_vector([0])[0] == 1.0

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

    @pytest.mark.parametrize("entries", [1, 25, 64, None])
    def test_row_blocks_match_prior_recompute(self, rng, monkeypatch, entries):
        # 11 rows in blocks of 1, 2 (the last one partial), 5 (likewise) and
        # one block under the default size; the batches repeat indices
        if entries is not None:
            monkeypatch.setattr(posterior, "_BLOCK_ENTRIES", entries)
        state = random_state(rng, 11, hetero=True)
        observations = [Observation(int(i), float(rng.standard_normal()), float(v))
                        for i, v in zip([2, 7, 2, 10, 7, 2, 0, 10],
                                        rng.uniform(0.05, 0.5, size=8))]
        state = condition_all(condition_all(state, observations[:5]), observations[5:])
        prior = state.gram.values
        pos = [state.position(obs.index) for obs in observations]
        chol = np.linalg.cholesky(prior[np.ix_(pos, pos)]
                                  + np.diag([obs.noise_var for obs in observations]))
        v = solve_triangular(chol, prior[pos, :], lower=True)
        y = solve_triangular(chol, [obs.value for obs in observations], lower=True)
        assert np.max(np.abs(state.cov - (prior - v.T @ v))) <= 1e-12
        assert np.max(np.abs(state.mean - v.T @ y)) <= 1e-12

    def test_negative_diagonal_is_clamped_in_every_block(self, rng, monkeypatch):
        # blocks of 3 rows over 10; every unobserved variance starts below 0
        monkeypatch.setattr(posterior, "_BLOCK_ENTRIES", 30)
        state = random_state(rng, 10)
        cov = state.cov.copy()
        np.fill_diagonal(cov[1:, 1:], -1e-9)
        after = condition_all(replace(state, cov=cov), [Observation(0, 1.0, 0.1)])
        w = cov[0] / math.sqrt(cov[0, 0] + 0.1)
        expected = cov - np.outer(w, w)
        np.fill_diagonal(expected[1:, 1:], 0.0)
        np.testing.assert_allclose(after.cov, expected, rtol=0, atol=1e-12)
        assert np.all(np.diag(after.cov)[1:] == 0.0)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_entry_in_last_partial_block_is_numeric_error(self, rng,
                                                                      monkeypatch, bad):
        # blocks of 3 rows over 10: the last block is row 9 alone
        monkeypatch.setattr(posterior, "_BLOCK_ENTRIES", 30)
        state = random_state(rng, 10)
        cov = state.cov.copy()
        cov[9, 5] = bad  # read by the subtraction only: the downdates read rows 0 and 3
        state = replace(state, cov=cov)
        with np.errstate(invalid="ignore"), pytest.raises(NumericError):
            condition_all(state, [Observation(0, 1.0, 0.1), Observation(3, -1.0, 0.2)])

    def test_empty_batch_is_identity(self):
        state = two_point_state()
        assert condition_all(state, []) is state

    def test_fifty_batches_of_ten_match_prior_recompute(self):
        # the round loop's shape at N=420: 50 rank-10 updates, compared with
        # one Cholesky recompute of all 500 observations from the prior
        rng = np.random.default_rng(11)
        points = [Point(i, coords=xy) for i, xy in enumerate(rng.uniform(size=(420, 2)))]
        state = PosteriorState.from_prior(gram(KernelSpec("gaussian", lengthscale=0.2), points),
                                          NoiseModel.homoscedastic(1.0))
        observations = [Observation(int(i), float(rng.standard_normal()), 1.0)
                        for i in rng.integers(0, 420, size=500)]
        for start in range(0, 500, 10):
            state = condition_all(state, observations[start:start + 10])
        prior = state.gram.values
        pos = [state.position(obs.index) for obs in observations]
        chol = np.linalg.cholesky(prior[np.ix_(pos, pos)] + np.eye(500))
        v = solve_triangular(chol, prior[pos, :], lower=True)
        y = solve_triangular(chol, [obs.value for obs in observations], lower=True)
        assert np.max(np.abs(state.cov - (prior - v.T @ v))) <= 1e-12
        assert np.max(np.abs(state.mean - v.T @ y)) <= 1e-12


def coincident_state(rng, n, hetero):
    """A random state over n + 1 ids whose last two are the same point: their
    Gram rows, columns and noise variances are equal."""
    base = random_psd_gram(rng, n).values
    copy = np.r_[np.arange(n), n - 1]
    gram_ = KernelMatrix(base[np.ix_(copy, copy)], tuple(range(n + 1)))
    rho2 = rng.uniform(0.01, 1.0, size=n)[copy] if hetero else np.full(n + 1, 0.3)
    noise = NoiseModel(per_index={i: float(v) for i, v in enumerate(rho2)})
    return PosteriorState.from_prior(gram_, noise)


class TestITLWhitening:
    @pytest.mark.parametrize("stabilize", [False, True])
    def test_matches_lu_solve_reference(self, rng, stabilize):
        for trial in range(40):
            n = int(rng.integers(8, 30))
            if trial % 4 == 3:  # two coincident targets: a singular target block
                state = coincident_state(rng, n, hetero=bool(trial % 8 == 3))
                targets = sorted({n - 1, n} | {int(t) for t in rng.choice(n - 1, 3)})
            else:
                state = random_state(rng, n, hetero=trial % 2 == 0)
                targets = sorted(int(t) for t in rng.choice(n, int(rng.integers(1, 8)),
                                                            replace=False))
            ids = list(state.ids)
            if rng.integers(0, 2):
                observed = rng.choice(ids, size=4)
                state = condition_all(state, [Observation(int(i), 0.3, 0.2) for i in observed])
            candidates = sorted(int(c) for c in rng.choice(ids, int(rng.integers(3, len(ids))),
                                                           replace=False))
            blocks = posterior._Blocks(state, targets, candidates, 3)
            for step in range(3):
                got = posterior._itl_scores(blocks, stabilize)
                np.testing.assert_allclose(got, itl_scores_reference(blocks, stabilize),
                                           rtol=1e-12, atol=0)
                posterior.bace_update(blocks, step, float(blocks.noise_c[step]))

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_target_block_is_numeric_error(self, rng, bad):
        state = random_state(rng, 6)
        cov = state.cov.copy()
        cov[1, 2] = cov[2, 1] = bad
        state = PosteriorState(state.gram, state.noise, cov, state.mean)
        with np.errstate(invalid="ignore"), pytest.raises(NumericError):
            posterior._itl_scores(posterior._Blocks(state, [0, 1, 2], [3, 4, 5]), False)


class TestInformationGain:
    def test_hand_computed_backward(self):
        state = two_point_state(0.1)
        gain = information_gain(state, (1,), 0)
        np.testing.assert_allclose(gain, 0.5 * math.log(1.1 / 0.85), atol=1e-9)

    def test_hand_computed_forward(self):
        state = two_point_state(0.1)
        gain = batch_information_gain(state, (1,), [0])
        np.testing.assert_allclose(gain, 0.5 * math.log(1.1 / 0.85), atol=1e-9)

    def test_independent_candidate_gains_nothing(self):
        gram = KernelMatrix(np.diag([1.0, 1.0]), (0, 1))
        state = PosteriorState.from_prior(gram, NoiseModel.homoscedastic(0.1))
        assert information_gain(state, (1,), 0) <= 1e-12

    def test_candidate_inside_targets_reduces_to_uncertainty(self, rng):
        for _ in range(10):
            state = random_state(rng, 8, noise_range=(0.2, 0.2))
            targets = tuple(range(8))
            for x in range(8):
                gain = information_gain(state, targets, x)
                expected = 0.5 * math.log1p(state.variance_vector([x])[0] / 0.2)
                np.testing.assert_allclose(gain, expected, atol=1e-7)

    def test_forward_backward_agree(self, rng):
        for _ in range(40):
            n = int(rng.integers(4, 24))
            state = random_state(rng, n, hetero=True)
            n_targets = int(rng.integers(1, min(8, n)))
            targets = tuple(int(i) for i in rng.choice(n, size=n_targets, replace=False))
            x = int(rng.integers(0, n))
            for stabilize in (False, True):
                fwd = batch_information_gain(state, targets, [x], stabilize=stabilize)
                bwd = information_gain(state, targets, x, stabilize=stabilize)
                np.testing.assert_allclose(fwd, bwd, atol=1e-8)

    def test_zero_iff_conditionally_independent(self, rng):
        blocks = np.zeros((6, 6))
        blocks[:3, :3] = random_state(rng, 3, unit_diag=True).gram.values
        blocks[3:, 3:] = random_state(rng, 3, unit_diag=True).gram.values
        gram = KernelMatrix(blocks, tuple(range(6)))
        state = PosteriorState.from_prior(gram, NoiseModel.homoscedastic(0.3))
        assert information_gain(state, (3, 4), 0) <= 1e-10
        assert information_gain(state, (3, 4), 5) > 1e-4

    def test_chain_rule(self, rng):
        for _ in range(15):
            state = random_state(rng, 10, hetero=True, noise_range=(0.1, 0.8))
            targets = tuple(int(i) for i in rng.choice(10, size=4, replace=False))
            x1, x2 = (int(i) for i in rng.choice(10, size=2, replace=False))
            first = information_gain(state, targets, x1)
            mid = condition(state, Observation(x1, 0.0, state.noise.variance_at(x1)))
            second = information_gain(mid, targets, x2)
            joint = batch_information_gain(state, targets, (x1, x2))
            np.testing.assert_allclose(first + second, joint, atol=1e-8)

    def test_stabilized_matches_noisy_target_block(self):
        # adding rho^2 to the target diagonal: 1/2 log(1.1 / (1.1 - 0.25/1.1))
        state = two_point_state(0.1)
        gain = information_gain(state, (1,), 0, stabilize=True)
        expected = 0.5 * math.log(1.1 / (1.1 - 0.25 / 1.1))
        np.testing.assert_allclose(gain, expected, atol=1e-9)

    def test_batch_gain_matches_lu_reference(self, rng):
        # heteroscedastic multisets, stabilized or not, before and after conditioning
        for trial in range(60):
            n = int(rng.integers(4, 14))
            state = random_state(rng, n, hetero=True)
            if trial % 2:
                observed = rng.choice(n, size=int(rng.integers(1, n)))
                state = condition_all(state, [Observation(int(i), 0.3, state.noise.variance_at(
                    int(i))) for i in observed])
            targets = tuple(int(i) for i in rng.choice(n, size=int(rng.integers(1, 5)),
                                                       replace=False))
            batch = [int(i) for i in rng.choice(n, size=int(rng.integers(1, 6)))]
            batch += batch[:1]  # at least one repeated id
            for stabilize in (False, True):
                np.testing.assert_allclose(
                    batch_information_gain(state, targets, batch, stabilize=stabilize),
                    batch_gain_reference(state, targets, batch, stabilize=stabilize),
                    rtol=0, atol=1e-12)

    def test_singular_batch_block_gives_the_single_point_gain(self):
        # two coincident points measured with negligible noise: c_bb rounds to
        # [[1, 1], [1, 1]], which no unjittered solve can invert, and the pair
        # tells as much about f_2 as either point alone: 1/2 log(1 / (1 - 0.25))
        values = np.array([[1.0, 1.0, 0.5], [1.0, 1.0, 0.5], [0.5, 0.5, 1.0]])
        state = PosteriorState.from_prior(KernelMatrix(values, (0, 1, 2)),
                                          NoiseModel.homoscedastic(1e-300))
        np.testing.assert_allclose(batch_information_gain(state, [2], [0, 1]),
                                   0.5 * math.log(4.0 / 3.0), rtol=0, atol=1e-12)

    def test_query_validation(self):
        with pytest.raises(InputError, match="target set"):
            information_gain(two_point_state(), (), 0)


class TestInformationCapacity:
    def test_single_observation_takes_best_point(self, monkeypatch):
        gram = KernelMatrix(np.diag([1.0, 4.0]), (0, 1))
        state = PosteriorState.from_prior(gram, NoiseModel.homoscedastic(1.0))
        for exact in (True, False):  # a cap of 0 multisets leaves the greedy value
            if not exact:
                monkeypatch.setattr(posterior, "BRUTE_FORCE_CAP", 0)
            np.testing.assert_allclose(information_capacity(state, [0, 1], 1),
                                       (0.5 * math.log(1 + 4.0), exact), atol=1e-9)

    def test_independent_points_add_up(self, monkeypatch):
        gram = KernelMatrix(np.eye(5), tuple(range(5)))
        state = PosteriorState.from_prior(gram, NoiseModel.homoscedastic(1.0))
        for exact in (True, False):
            if not exact:
                monkeypatch.setattr(posterior, "BRUTE_FORCE_CAP", 0)
            np.testing.assert_allclose(information_capacity(state, list(range(5)), 3),
                                       (1.5 * math.log(2.0), exact), atol=1e-9)

    def test_greedy_approximation_guarantee(self, rng, monkeypatch):
        factor = 1 - 1 / math.e
        for _ in range(10):
            state = random_state(rng, 10, hetero=True, noise_range=(0.2, 1.0))
            for budget in (2, 4):
                brute, exact = information_capacity(state, list(range(10)), budget)
                with monkeypatch.context() as patch:
                    patch.setattr(posterior, "BRUTE_FORCE_CAP", 0)
                    greedy, greedy_exact = information_capacity(state, list(range(10)), budget)
                assert exact and not greedy_exact
                assert greedy >= factor * brute - 1e-9
                assert greedy <= brute + 1e-9

    def test_multiset_beats_subsets_when_budget_exceeds_pool(self):
        # two independent points at rho^2 = 0.5: the best of three observations
        # repeats one point, 1/2 log((1 + 2 * 2) (1 + 2)), past the whole pool's
        # 1/2 log(3 * 3)
        gram = KernelMatrix(np.eye(2), (0, 1))
        state = PosteriorState.from_prior(gram, NoiseModel.homoscedastic(0.5))
        multi, exact = information_capacity(state, [0, 1], 3)
        assert exact
        np.testing.assert_allclose(multi, 0.5 * math.log(15.0), rtol=1e-12)
        assert multi > 0.5 * math.log(9.0)

    def test_zero_budget(self):
        state = two_point_state()
        assert information_capacity(state, [0, 1], 0) == (0.0, True)

    @pytest.mark.parametrize("budget", [0, 3])
    @pytest.mark.parametrize("candidates", [[], [0, 1]])
    def test_reports_exactness(self, budget, candidates):
        # no budget or no candidates gains exactly nothing; C(2 + 3 - 1, 3) = 4
        # multisets are enumerated
        value, exact = information_capacity(two_point_state(), candidates, budget)
        assert exact is True
        assert (value > 0.0) == (budget > 0 and len(candidates) > 0)

    def test_negative_budget_is_input_error(self):
        with pytest.raises(InputError, match="budget"):
            information_capacity(two_point_state(), [0, 1], -1)


class TestStackedCapacityEnumeration:
    def test_matches_scalar_reference(self, rng, monkeypatch):
        # a bound of one entry walks one node per block, a few hundred puts
        # block boundaries inside levels, and the default packs whole levels
        default = posterior._BLOCK_ENTRIES
        for n in range(1, 9):
            state = random_state(rng, n, hetero=True)
            noise = state.noise.vector(state.ids)
            for size in range(1, 7):  # |S| < size up to |S| = 5
                expected = best_grouped_gain_reference(state.cov, noise, size)
                for entries in (1, 300, default):
                    monkeypatch.setattr(posterior, "_BLOCK_ENTRIES", entries)
                    got = posterior._best_grouped_gain(state.cov, noise, size)
                    assert got == pytest.approx(expected, rel=1e-12, abs=0.0)

    def test_two_points_at_a_large_budget(self, rng):
        # 5001 multisets: the root's 2 x 2 block and one block of its 4998
        # one-point children score them all, where one determinant per
        # multiset took seconds
        state = random_state(rng, 2, hetero=True)
        noise = state.noise.vector(state.ids)
        budget = 5000
        start = time.perf_counter()
        got = posterior._best_grouped_gain(state.cov, noise, budget)
        elapsed = time.perf_counter() - start
        expected = max(
            0.5 * np.linalg.slogdet(np.eye(2) + state.cov * (np.array([c, budget - c]) / noise))[1]
            for c in range(budget + 1))
        assert got == pytest.approx(expected, rel=1e-12, abs=0.0)
        assert elapsed < 0.5

    def test_large_sample_space_scores_small_blocks(self, rng):
        # |S| = 300 at sizes 1 and 2: the walk scores every multiset from the
        # root's variances and one 300 x 300 downdate table, no per-multiset block
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
        # size 2 is scored at the root, size 3 below one of its children
        for size in (2, 3):
            with np.errstate(invalid="ignore"), pytest.raises(NumericError):
                posterior._best_grouped_gain(cov, state.noise.vector(state.ids), size)


class TestFactorBlockCapacity:
    @pytest.mark.parametrize("hetero", [False, True])
    def test_greedy_matches_dense_reference(self, rng, monkeypatch, hetero):
        monkeypatch.setattr(posterior, "BRUTE_FORCE_CAP", 0)
        for n in range(2, 12):
            state = random_state(rng, n, hetero=hetero)
            cands = list(range(n))
            for budget in (1, n // 2 + 1, n, n + 3, 20 * n):  # 20 n: factor far wider than |S|
                expected = capacity_greedy_reference(state, cands, budget)
                got, exact = information_capacity(state, cands, budget)
                assert not exact
                assert got == pytest.approx(expected, rel=1e-12, abs=0.0)

    @pytest.mark.parametrize("hetero", [False, True])
    def test_brute_matches_repeated_block_reference(self, rng, hetero):
        # the reference's Cholesky adds 1e-10 relative jitter; the walk's
        # downdates do not, hence 1e-9 rather than 1e-12
        for n in range(2, 9):
            state = random_state(rng, n, hetero=hetero)
            cands = list(range(n))
            for budget in range(1, 5):  # past |S| for n < 4
                expected = capacity_multiset_reference(state, cands, budget)
                got, exact = information_capacity(state, cands, budget)
                assert exact
                assert got == pytest.approx(expected, rel=1e-9, abs=0.0)

    def test_brute_enumerates_only_the_budget_size(self, rng, monkeypatch):
        # an observation never lowers the gain, so the best set has exactly
        # ``budget`` members and smaller sizes need no enumeration
        sizes = []
        enumerate_size = posterior._best_grouped_gain

        def counted(cov, noise, size):
            sizes.append(size)
            return enumerate_size(cov, noise, size)

        monkeypatch.setattr(posterior, "_best_grouped_gain", counted)
        state = random_state(rng, 5, hetero=True)
        noise = state.noise.vector(state.ids)
        got, _ = information_capacity(state, list(range(5)), 3)
        assert sizes == [3]
        smaller = [best_grouped_gain_reference(state.cov, noise, s) for s in (1, 2, 3)]
        assert got == pytest.approx(max(smaller), rel=1e-12)

    def test_brute_cap_counts_enumerated_multisets(self, rng, monkeypatch):
        # budget 3 over |S| = 3 enumerates C(5, 3) = 10 multisets; sizes 1..3
        # together would be 19
        state = random_state(rng, 3, hetero=True)
        monkeypatch.setattr(posterior, "BRUTE_FORCE_CAP", 10)
        capacity, exact = information_capacity(state, [0, 1, 2], 3)
        assert exact is True
        assert capacity == pytest.approx(best_grouped_gain_reference(
            state.cov, state.noise.vector(state.ids), 3), rel=1e-12)
        monkeypatch.setattr(posterior, "BRUTE_FORCE_CAP", 9)
        greedy, exact = information_capacity(state, [0, 1, 2], 3)
        assert exact is False
        assert greedy == pytest.approx(capacity_greedy_reference(state, [0, 1, 2], 3),
                                       rel=1e-12)

    def test_blocks_grow_past_initial_capacity(self, rng):
        prior = random_state(rng, 12, hetero=True)
        targets, cands = (9, 10, 11), list(range(9))
        blocks = posterior._Blocks(prior, targets, cands, 1)
        picks = [3, 0, 3, 7, 5, 1]
        for pick in picks:
            posterior.bace_update(blocks, pick, prior.noise.variance_at(cands[pick]))
        assert blocks.width == len(picks) and len(blocks.w) >= len(picks)
        observations = [Observation(cands[p], 0.0, prior.noise.variance_at(cands[p]))
                        for p in picks]
        _, cov = batch_posterior_oracle(prior, observations)
        rows = prior.positions(targets + tuple(cands))
        np.testing.assert_allclose(blocks.var(), np.diag(cov)[rows], rtol=1e-12, atol=1e-12)
