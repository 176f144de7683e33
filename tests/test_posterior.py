import math
import time
import tracemalloc
from dataclasses import replace
from itertools import islice

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.linalg import solve_triangular

from transduct import (
    InputError,
    KernelMatrix,
    KernelSpec,
    NumericError,
    Observation,
    Policy,
    PosteriorState,
    batch_information_gain,
    condition,
    condition_all,
    gram,
    information_capacity,
    information_gain,
    run_loop,
    select_batch,
)
from transduct import posterior
from transduct.config import build_domain, parse_config
from transduct.kernels import JITTER_SCALE
from conftest import (
    batch_gain_reference,
    batch_posterior_oracle,
    best_grouped_gain_reference,
    capacity_greedy_reference,
    capacity_multiset_reference,
    itl_scores_reference,
    random_psd_gram,
    random_state,
    target_variances,
)

TWO_POINT = np.array([[1.0, 0.5], [0.5, 1.0]])


def two_point_state(rho2=0.1):
    gram = KernelMatrix(TWO_POINT, (0, 1))
    return PosteriorState.from_prior(gram, rho2)


class TestConditioning:
    def test_hand_computed_update(self):
        state = condition(two_point_state(), Observation(0, 1.0))
        np.testing.assert_allclose(target_variances(state, [1])[0], 1 - 0.25 / 1.1,
                                   rtol=1e-12)
        # conditional mean at index 1: k10 / (k00 + rho^2) * y
        np.testing.assert_allclose(state.mean[state.gram.positions([1])], [0.5 / 1.1], rtol=1e-12)

    def test_prior_shares_the_read_only_gram(self):
        gram = KernelMatrix(np.diag([1.0, 2.0]), (0, 1))
        state = PosteriorState.from_prior(gram, 0.1)
        assert state.cov is gram.values and not state.cov.flags.writeable
        after = condition(state, Observation(0, 3.0))
        np.testing.assert_array_equal(gram.values, np.diag([1.0, 2.0]))
        assert target_variances(after, [0])[0] < 1.0

    def test_uncorrelated_point_untouched(self):
        gram = KernelMatrix(np.diag([1.0, 2.0]), (0, 1))
        state = PosteriorState.from_prior(gram, 0.1)
        after = condition(state, Observation(0, 3.0))
        assert target_variances(after, [1])[0] == 2.0
        assert after.mean[after.gram.position(1)] == 0.0

    def test_repeated_observation_tightens(self):
        once = condition(two_point_state(), Observation(0, 1.0))
        twice = condition(once, Observation(0, 1.0))
        assert target_variances(twice, [0])[0] < target_variances(once, [0])[0]
        assert target_variances(twice, [1])[0] < target_variances(once, [1])[0]

    def test_near_exact_observation_zeroes_variance(self):
        state = condition(two_point_state(1e-8), Observation(0, 1.0))
        assert target_variances(state, [0])[0] < 1e-7

    def test_matches_batch_oracle_in_any_order(self, rng):
        for _ in range(20):
            state = random_state(rng, 12, hetero=True)
            count = int(rng.integers(1, 10))
            observations = [Observation(int(rng.integers(0, 12)), float(rng.standard_normal()))
                            for _ in range(count)]
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
            state = condition(state, Observation(idx, float(rng.standard_normal())))
            after = np.maximum(np.diag(state.cov), 0.0)
            assert np.all(after <= before + 1e-12)

    def test_prior_variance_is_kernel_diagonal(self):
        state = two_point_state()
        assert target_variances(state, [0])[0] == 1.0

    def test_round_counter(self):
        state = two_point_state()
        assert state.round == 0
        assert condition(state, Observation(0, 0.0)).round == 1

    def test_batch_matches_sequential_with_repeats(self, rng):
        for _ in range(20):
            state = random_state(rng, 15, hetero=True)
            observations = [Observation(int(i), float(rng.standard_normal()))
                            for i in rng.integers(0, 5, size=12)]
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
        state = PosteriorState.from_prior(gram(KernelSpec("gaussian", lengthscale=0.2), range(60),
                                               rng.uniform(size=(60, 2))),
                                          1e-8)
        observations = [Observation(int(i), float(rng.standard_normal()))
                        for i in rng.integers(0, 60, size=400)]
        for start in range(0, 400, 10):
            state = condition_all(state, observations[start:start + 10])
        prior = state.gram.values
        pos = [state.gram.position(obs.index) for obs in observations]
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
        observations = [Observation(i, float(rng.standard_normal()))
                        for i in [2, 7, 2, 10, 7, 2, 0, 10]]
        state = condition_all(condition_all(state, observations[:5]), observations[5:])
        prior = state.gram.values
        pos = [state.gram.position(obs.index) for obs in observations]
        chol = np.linalg.cholesky(prior[np.ix_(pos, pos)] + np.diag(state.noise[pos]))
        v = solve_triangular(chol, prior[pos, :], lower=True)
        y = solve_triangular(chol, [obs.value for obs in observations], lower=True)
        assert np.max(np.abs(state.cov - (prior - v.T @ v))) <= 1e-12
        assert np.max(np.abs(state.mean - v.T @ y)) <= 1e-12

    def test_negative_diagonal_is_clamped_in_every_block(self, rng, monkeypatch):
        # blocks of 3 rows over 10; every unobserved variance starts below 0.
        # Four rows pass sqrt(10), so they are folded into the base
        monkeypatch.setattr(posterior, "_BLOCK_ENTRIES", 30)
        state = random_state(rng, 10, noise_range=(0.1, 0.1))
        cov = state.cov.copy()
        np.fill_diagonal(cov[1:, 1:], -1e-9)
        after = condition_all(replace(state, base=cov), [Observation(0, 1.0)] * 4)
        assert len(after.factor) == 0
        w = cov[0] / math.sqrt(cov[0, 0] + 0.1 / 4)  # four at rho^2 are one at rho^2 / 4
        expected = cov - np.outer(w, w)
        np.fill_diagonal(expected[1:, 1:], 0.0)
        np.testing.assert_allclose(after.cov, expected, rtol=0, atol=1e-12)
        assert np.all(np.diag(after.cov)[1:] == 0.0)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_entry_in_last_partial_block_is_numeric_error(self, rng,
                                                                      monkeypatch, bad):
        # blocks of 3 rows over 10: the last block is row 9 alone. Four rows
        # pass sqrt(10), so they are folded into the base
        monkeypatch.setattr(posterior, "_BLOCK_ENTRIES", 30)
        state = random_state(rng, 10)
        cov = state.cov.copy()
        cov[9, 5] = bad  # read by the fold only: the downdates read rows 0 and 3
        state = replace(state, base=cov)
        with np.errstate(invalid="ignore"), pytest.raises(NumericError):
            condition_all(state, [Observation(0, 1.0), Observation(3, -1.0)] * 2)

    def test_observation_is_an_index_and_a_value(self):
        with pytest.raises(TypeError):
            Observation(0, 1.0, 0.1)  # the noise belongs to the state
        for bad in (np.nan, np.inf):
            with pytest.raises(InputError, match="finite"):
                Observation(0, bad)

    def test_hetero_batch_with_repeats_reads_noise_from_the_state(self, rng):
        for _ in range(10):
            state = random_state(rng, 8, hetero=True, noise_range=(0.05, 2.0))
            indices = rng.permutation(np.repeat(np.arange(4), [2, 3, 2, 3]))
            observations = [Observation(int(i), float(rng.standard_normal())) for i in indices]
            mean_oracle, cov_oracle = batch_posterior_oracle(state, observations)
            got = condition_all(state, observations)
            np.testing.assert_allclose(got.mean, mean_oracle, rtol=0, atol=1e-10)
            np.testing.assert_allclose(got.cov, cov_oracle, rtol=0, atol=1e-10)
            # k observations of x at rho^2(x) are one at rho^2(x) / k of their mean value
            counts = np.bincount(indices, minlength=8)
            pooled = state.noise / np.maximum(counts, 1)
            once = condition_all(replace(state, noise=pooled), [
                Observation(i, float(np.mean([o.value for o in observations if o.index == i])))
                for i in range(4)])
            np.testing.assert_allclose(got.cov, once.cov, rtol=0, atol=1e-10)
            np.testing.assert_allclose(got.mean, once.mean, rtol=0, atol=1e-10)

    def test_unknown_index_is_input_error_and_state_unchanged(self, rng):
        state = random_state(rng, 6, hetero=True)
        state = condition_all(state, [Observation(2, 0.4)])  # one pending factor row
        base, factor, mean = state.base.copy(), state.factor.copy(), state.mean.copy()
        with pytest.raises(InputError, match="index 9 is not in this Gram matrix"):
            condition_all(state, [Observation(1, 0.5), Observation(9, -0.2)])
        with pytest.raises(InputError, match="index 9"):
            information_gain(state, (0, 1), 9)
        assert np.array_equal(state.base, base) and np.array_equal(state.factor, factor)
        assert np.array_equal(state.mean, mean)
        assert [obs.index for obs in state.history] == [2]

    @pytest.mark.parametrize("noise", [0.0, -1.0, np.nan, np.inf, [0.5, 0.2, np.inf, 0.1],
                                       [0.5, 0.2, 0.3]],
                             ids=["zero", "negative", "nan", "inf", "inf-entry", "short"])
    def test_noise_must_be_positive_and_finite_at_every_point(self, rng, noise):
        # an infinite variance used to be accepted and made every ITL objective NaN
        state = random_state(rng, 4)
        with pytest.raises(InputError, match="noise"):
            PosteriorState.from_prior(state.gram, noise)
        with pytest.raises(InputError, match="noise"):
            replace(state, noise=noise)

    def test_noise_is_a_read_only_float_vector_over_positions(self, rng):
        gram_ = random_psd_gram(rng, 4)
        state = PosteriorState.from_prior(gram_, [1, 0.5, 2, 0.25])  # an int reads as a float
        assert state.noise.dtype == np.float64 and not state.noise.flags.writeable
        assert state.noise.tolist() == [1.0, 0.5, 2.0, 0.25]
        assert PosteriorState.from_prior(gram_, 0.3).noise.tolist() == [0.3] * 4
        assert np.isfinite(select_batch(state, [2, 3], [0, 1], Policy("itl", batch_size=2))
                           .objectives).all()

    def test_empty_batch_is_identity(self):
        state = two_point_state()
        assert condition_all(state, []) is state

    def test_fifty_batches_of_ten_match_prior_recompute(self):
        # the round loop's shape at N=420: 50 rank-10 updates, compared with
        # one Cholesky recompute of all 500 observations from the prior
        rng = np.random.default_rng(11)
        state = PosteriorState.from_prior(gram(KernelSpec("gaussian", lengthscale=0.2), range(420),
                                               rng.uniform(size=(420, 2))), 1.0)
        observations = [Observation(int(i), float(rng.standard_normal()))
                        for i in rng.integers(0, 420, size=500)]
        for start in range(0, 500, 10):
            state = condition_all(state, observations[start:start + 10])
        prior = state.gram.values
        pos = [state.gram.position(obs.index) for obs in observations]
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
    return PosteriorState.from_prior(gram_, rho2)


class TestITLWhitening:
    @pytest.mark.parametrize("stabilize", [False, True])
    def test_matches_lu_solve_reference(self, rng, stabilize):
        # compares the residual Var(y_x | D, f_A) = (sigma^2 + rho^2) e^{-2 score},
        # not the score: 1/2 log(denom / resid) has relative condition number
        # 1 / (2 score) in resid, so a near-zero score amplifies the last bits
        # of two residuals that agree to round-off
        for trial in range(40):
            n = int(rng.integers(8, 30))
            if trial % 4 == 3:  # two coincident targets: a singular target block
                state = coincident_state(rng, n, hetero=bool(trial % 8 == 3))
                targets = sorted({n - 1, n} | {int(t) for t in rng.choice(n - 1, 3)})
            else:
                state = random_state(rng, n, hetero=trial % 2 == 0)
                targets = sorted(int(t) for t in rng.choice(n, int(rng.integers(1, 8)),
                                                            replace=False))
            ids = list(state.gram.ids)
            if rng.integers(0, 2):
                observed = rng.choice(ids, size=4)
                state = condition_all(state, [Observation(int(i), 0.3) for i in observed])
            candidates = sorted(int(c) for c in rng.choice(ids, int(rng.integers(3, len(ids))),
                                                           replace=False))
            blocks = posterior._Blocks(state, targets, candidates, 3)
            for step in range(3):
                got = posterior._itl_scores(blocks, stabilize)
                want = itl_scores_reference(blocks, stabilize)
                denom = blocks.var()[blocks.na:] + blocks.noise_c
                np.testing.assert_allclose(denom * np.exp(-2.0 * got),
                                           denom * np.exp(-2.0 * want), rtol=1e-12, atol=0)
                posterior.bace_update(blocks, step)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_target_block_is_numeric_error(self, rng, bad):
        state = random_state(rng, 6)
        cov = state.cov.copy()
        cov[1, 2] = cov[2, 1] = bad
        state = PosteriorState(state.gram, state.noise, cov, state.mean)
        with np.errstate(invalid="ignore"), pytest.raises(NumericError):
            posterior._itl_scores(posterior._Blocks(state, [0, 1, 2], [3, 4, 5]), False)

    def test_zero_target_block_is_numeric_error(self):
        # no prior variance over A leaves the exact objective no regulariser: the
        # twin's zero pivots are a NumericError, not a division warning
        state = PosteriorState.from_prior(KernelMatrix(np.diag([1.0, 0.0, 0.0]), (0, 1, 2)), 0.1)
        with pytest.raises(NumericError, match="non-finite"):
            information_gain(state, (1, 2), 0)


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
        state = PosteriorState.from_prior(gram, 0.1)
        assert information_gain(state, (1,), 0) <= 1e-12

    def test_candidate_inside_targets_reduces_to_uncertainty(self, rng):
        for _ in range(10):
            state = random_state(rng, 8, noise_range=(0.2, 0.2))
            targets = tuple(range(8))
            for x in range(8):
                gain = information_gain(state, targets, x)
                expected = 0.5 * math.log1p(target_variances(state, [x])[0] / 0.2)
                np.testing.assert_allclose(gain, expected, atol=1e-7)

    def test_forward_backward_agree(self, rng):
        for _ in range(40):
            n = int(rng.integers(4, 24))
            state = random_state(rng, n, hetero=True)
            n_targets = int(rng.integers(1, min(8, n)))
            targets = tuple(int(i) for i in rng.choice(n, size=n_targets, replace=False))
            x = int(rng.integers(0, n))
            np.testing.assert_allclose(batch_information_gain(state, targets, [x]),
                                       information_gain(state, targets, x), atol=1e-8)
            # the stabilized backward score against the stabilized forward reference
            stabilized = posterior._itl_scores(posterior._Blocks(state, targets, [x]), True)
            np.testing.assert_allclose(
                batch_gain_reference(state, targets, [x], stabilize=True), stabilized[0],
                atol=1e-8)

    def test_zero_iff_conditionally_independent(self, rng):
        blocks = np.zeros((6, 6))
        blocks[:3, :3] = random_state(rng, 3, unit_diag=True).gram.values
        blocks[3:, 3:] = random_state(rng, 3, unit_diag=True).gram.values
        gram = KernelMatrix(blocks, tuple(range(6)))
        state = PosteriorState.from_prior(gram, 0.3)
        assert information_gain(state, (3, 4), 0) <= 1e-10
        assert information_gain(state, (3, 4), 5) > 1e-4

    def test_chain_rule(self, rng):
        for _ in range(15):
            state = random_state(rng, 10, hetero=True, noise_range=(0.1, 0.8))
            targets = tuple(int(i) for i in rng.choice(10, size=4, replace=False))
            x1, x2 = (int(i) for i in rng.choice(10, size=2, replace=False))
            first = information_gain(state, targets, x1)
            mid = condition(state, Observation(x1, 0.0))
            second = information_gain(mid, targets, x2)
            joint = batch_information_gain(state, targets, (x1, x2))
            np.testing.assert_allclose(first + second, joint, atol=1e-8)

    def test_stabilized_matches_noisy_target_block(self):
        # adding rho^2 to the target diagonal: 1/2 log(1.1 / (1.1 - 0.25/1.1))
        state = two_point_state(0.1)
        gain = posterior._itl_scores(posterior._Blocks(state, (1,), [0]), True)[0]
        expected = 0.5 * math.log(1.1 / (1.1 - 0.25 / 1.1))
        np.testing.assert_allclose(gain, expected, atol=1e-9)

    def test_batch_gain_matches_lu_reference(self, rng):
        # heteroscedastic multisets, before and after conditioning
        for trial in range(60):
            n = int(rng.integers(4, 14))
            state = random_state(rng, n, hetero=True)
            if trial % 2:
                observed = rng.choice(n, size=int(rng.integers(1, n)))
                state = condition_all(state, [Observation(int(i), 0.3) for i in observed])
            targets = tuple(int(i) for i in rng.choice(n, size=int(rng.integers(1, 5)),
                                                       replace=False))
            batch = [int(i) for i in rng.choice(n, size=int(rng.integers(1, 6)))]
            batch += batch[:1]  # at least one repeated id
            np.testing.assert_allclose(batch_information_gain(state, targets, batch),
                                       batch_gain_reference(state, targets, batch),
                                       rtol=0, atol=1e-12)

    def test_singular_batch_block_gives_the_single_point_gain(self):
        # two coincident points measured with negligible noise: c_bb rounds to
        # [[1, 1], [1, 1]], which no unjittered solve can invert, and the pair
        # tells as much about f_2 as either point alone: 1/2 log(1 / (1 - 0.25))
        values = np.array([[1.0, 1.0, 0.5], [1.0, 1.0, 0.5], [0.5, 0.5, 1.0]])
        state = PosteriorState.from_prior(KernelMatrix(values, (0, 1, 2)),
                                          1e-300)
        np.testing.assert_allclose(batch_information_gain(state, [2], [0, 1]),
                                   0.5 * math.log(4.0 / 3.0), rtol=0, atol=1e-12)

    def test_query_validation(self):
        with pytest.raises(InputError, match="target set"):
            information_gain(two_point_state(), (), 0)


class TestInformationCapacity:
    def test_single_observation_takes_best_point(self, monkeypatch):
        gram = KernelMatrix(np.diag([1.0, 4.0]), (0, 1))
        state = PosteriorState.from_prior(gram, 1.0)
        for exact in (True, False):  # a cap of 0 multisets leaves the greedy value
            if not exact:
                monkeypatch.setattr(posterior, "BRUTE_FORCE_CAP", 0)
            np.testing.assert_allclose(information_capacity(state, [0, 1], 1),
                                       (0.5 * math.log(1 + 4.0), exact), atol=1e-9)

    def test_independent_points_add_up(self, monkeypatch):
        gram = KernelMatrix(np.eye(5), tuple(range(5)))
        state = PosteriorState.from_prior(gram, 1.0)
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
        state = PosteriorState.from_prior(gram, 0.5)
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
            noise = state.noise
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
        noise = state.noise
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
        noise = state.noise
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
                posterior._best_grouped_gain(cov, state.noise, size)


def grid8_prior():
    """The prior of the benchmark's theory-grid8 instance: 8 sample points
    2.0 apart, gaussian lengthscale 0.6, rho 0.5."""
    config = parse_config({
        "domain": {"source": "synthetic", "kernel": {"family": "gaussian", "lengthscale": 0.6},
                   "layout": {"kind": "grid", "s_count": 8, "step": 2.0, "a_extra": 3,
                              "include_s_in_a": True}},
        "rounds": 8, "seeds": [0], "epsilon": 1.0, "hyper": {"rho": 0.5}})
    domain = build_domain(config, 0)
    pos = domain.prior.gram.positions(domain.sample_ids)
    return domain.prior, domain.sample_ids, domain.prior.cov[np.ix_(pos, pos)]


def unpruned_walk(monkeypatch):
    """``_best_grouped_gain`` with pruning off at every level: no bound is below
    a NaN incumbent."""
    walk = posterior._count_walk
    monkeypatch.setattr(posterior, "_count_walk", lambda *args: walk(*args[:-1], math.nan))


class TestCapacityBranchAndBound:
    @settings(max_examples=150, deadline=None)
    @given(seed=st.integers(0, 2 ** 32 - 1),
           kind=st.sampled_from(["diagonal", "linear", "gaussian"]),
           hetero=st.booleans(), n=st.integers(1, 7), size=st.integers(1, 7))
    # identity Grams whose greedy sum rounds above the walk's optimum
    @example(seed=0, kind="diagonal", hetero=False, n=2, size=6)
    @example(seed=6, kind="diagonal", hetero=False, n=3, size=4)
    @example(seed=4, kind="diagonal", hetero=False, n=5, size=5)
    def test_pruned_walk_is_bit_identical(self, seed, kind, hetero, n, size):
        # a diagonal Gram with one noise level is where the greedy incumbent,
        # the bound and the optimum coincide, so a prune without its margin
        # drops the argmax leaf there
        rng = np.random.default_rng(seed)
        if kind == "diagonal":
            values = np.diag(rng.uniform(0.5, 2.0, n)) if hetero else np.eye(n)
        elif kind == "linear":
            x = rng.standard_normal((n, int(rng.integers(1, 4))))
            values = x @ x.T
        else:
            x = rng.uniform(0.0, 3.0, (n, 1))
            values = np.exp(-0.5 * (x - x.T) ** 2 / rng.uniform(0.2, 2.0) ** 2)
        ids = tuple(range(n))
        noise = rng.uniform(0.01, 1.0, n) if hetero else float(rng.uniform(0.01, 1.0))
        state = PosteriorState.from_prior(KernelMatrix(values, ids), noise)
        rho2 = state.noise
        floor = posterior._capacity_greedy(state, ids, size)
        pruned = posterior._best_grouped_gain(state.cov, rho2, size, floor)
        assert pruned == posterior._best_grouped_gain(state.cov, rho2, size)
        with pytest.MonkeyPatch.context() as patch:
            unpruned_walk(patch)
            assert pruned == posterior._best_grouped_gain(state.cov, rho2, size, floor)
        assert pruned == pytest.approx(best_grouped_gain_reference(state.cov, rho2, size),
                                       rel=1e-12, abs=1e-15)

    def test_grid8_walk_visits_few_nodes(self, monkeypatch):
        # the theory-grid8 prior at budget 8: 1716 nodes in 12 calls unpruned;
        # the greedy incumbent is optimal there and the bound prunes every
        # child off the optimal path
        prior, space, cov = grid8_prior()
        walk, nodes = posterior._count_walk, []
        monkeypatch.setattr(posterior, "_count_walk",
                            lambda block, *args: nodes.append(len(block)) or walk(block, *args))
        capacity, exact = information_capacity(prior, space, 8)
        assert exact and sum(nodes) <= 50
        unpruned_walk(monkeypatch)
        assert capacity == information_capacity(prior, space, 8)[0]

    def test_incumbent_stops_at_the_sample_space_size(self, rng):
        # a greedy step reads every earlier factor row, so a greedy of n picks
        # costs O(n^2 |S|): at |S| = 2 and n = 20,000 that is seconds against
        # a walk of milliseconds
        state = random_state(rng, 2, hetero=True)
        start = time.perf_counter()
        capacity, exact = information_capacity(state, [0, 1], 20_000)
        assert time.perf_counter() - start < 0.5
        assert exact
        assert capacity == posterior._best_grouped_gain(state.cov, state.noise, 20_000)

    def test_non_finite_entry_in_a_pruned_subtree_is_numeric_error(self):
        # cov[7, 6] is read only by children that observe point 6 with two or
        # more observations left; at budget 8 the bound prunes all of them
        prior, space, cov = grid8_prior()
        cov = cov.copy()
        cov[7, 6] = np.nan
        floor = posterior._capacity_greedy(prior, space, 8)
        with pytest.raises(NumericError):
            posterior._best_grouped_gain(cov, prior.noise[prior.gram.positions(space)], 8, floor)


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

        def counted(cov, noise, size, floor):
            sizes.append(size)
            return enumerate_size(cov, noise, size, floor)

        monkeypatch.setattr(posterior, "_best_grouped_gain", counted)
        state = random_state(rng, 5, hetero=True)
        noise = state.noise
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
            state.cov, state.noise, 3), rel=1e-12)
        monkeypatch.setattr(posterior, "BRUTE_FORCE_CAP", 9)
        greedy, exact = information_capacity(state, [0, 1, 2], 3)
        assert exact is False
        assert greedy == pytest.approx(capacity_greedy_reference(state, [0, 1, 2], 3),
                                       rel=1e-12)

    def test_blocks_grow_past_initial_capacity(self, rng):
        # the running pieces of the blocks and of the ITL twin match the dense
        # oracle after every pick, across the factor's growth
        prior = random_state(rng, 12, hetero=True)
        targets, cands = (9, 10, 11), list(range(9))
        rows = prior.gram.positions(targets + tuple(cands))
        pa = rows[:len(targets)]
        jitter = JITTER_SCALE * float(np.max(prior.gram.values[pa, pa]))
        picks = [3, 0, 3, 7, 5, 1]
        for stabilize in (False, True):
            blocks = posterior._Blocks(prior, targets, cands, 1)
            posterior._itl_scores(blocks, stabilize)  # forms the variances, then the twin
            # the twin observes every target at the noise of its row there
            noise = prior.noise.copy()
            noise[pa] = noise[pa] * stabilize + jitter
            at_targets = [Observation(t, 0.0) for t in targets]
            for step, pick in enumerate(picks, 1):
                posterior.bace_update(blocks, pick)
                observations = [Observation(cands[p], 0.0) for p in picks[:step]]
                _, cov = batch_posterior_oracle(prior, observations)
                np.testing.assert_allclose(blocks.var(), np.diag(cov)[rows],
                                           rtol=1e-12, atol=1e-12)
                np.testing.assert_allclose(blocks.cov_a(), cov[np.ix_(pa, rows)],
                                           rtol=1e-12, atol=1e-12)
                _, cov = batch_posterior_oracle(
                    replace(prior, noise=noise), observations + at_targets)
                np.testing.assert_allclose(blocks.twin.var(), np.maximum(np.diag(cov)[rows], 0.0),
                                           rtol=1e-12, atol=1e-12)
            assert blocks.width == len(picks) and len(blocks.w) >= len(picks)


class TestRunningPieces:
    def test_conditioning_forms_no_running_pieces(self, rng, monkeypatch):
        made = []

        class Spy(posterior._Domain):
            def __init__(self, *args):
                super().__init__(*args)
                made.append(self)

        monkeypatch.setattr(posterior, "_Domain", Spy)
        state = random_state(rng, 10, hetero=True)
        condition_all(state, [Observation(i, 0.1) for i in (2, 5, 2)])
        assert len(made) == 1
        assert made[0]._var is None and made[0]._cov_a is None

    def test_conditioning_folds_only_the_rows_it_wrote(self, rng, monkeypatch):
        # a factor with spare rows, filled with NaN, must leave the result
        # alone; four rows pass sqrt(10), so they are folded into the base
        class Spare(posterior._Domain):
            def __init__(self, state, targets, candidates, capacity):
                super().__init__(state, targets, candidates, capacity + 3)
                self.w.fill(np.nan)

        state = random_state(rng, 10, hetero=True)
        observations = [Observation(i, 0.1 * i) for i in (2, 5, 2, 7)]
        want = condition_all(state, observations)
        monkeypatch.setattr(posterior, "_Domain", Spare)
        got = condition_all(state, observations)
        assert len(got.factor) == 0
        assert got.cov.tobytes() == want.cov.tobytes()
        assert got.mean.tobytes() == want.mean.tobytes()

    def test_itl_batch_reads_each_column_once(self, rng, monkeypatch):
        # |A| columns for the twin's rows at the targets, then one per
        # downdate, shared by the blocks and the twin
        reads = []
        column = posterior._Blocks.column

        def counted(blocks, i):
            reads.append(i)
            return column(blocks, i)

        monkeypatch.setattr(posterior._Blocks, "column", counted)
        state = random_state(rng, 20, hetero=True)
        targets, cands = (17, 18, 19), list(range(15))
        for b in (1, 4, 7):
            reads.clear()
            select_batch(state, targets, cands, Policy(rule="itl", batch_size=b))
            assert len(reads) == len(targets) + b - 1

    def test_long_greedy_sums_to_its_multisets_gain(self, rng):
        # 5000 running subtractions keep the greedy's sum of gains at the
        # log-determinant of the multiset it picked
        state = random_state(rng, 2, hetero=True)
        budget = 5000
        steps = posterior.greedy(posterior._Blocks(state, (), [0, 1], budget),
                                 posterior._undirected_scores, multiset=True)
        picks, gains = zip(*[(best, float(scores[best]))
                             for best, scores in islice(steps, budget)])
        counts = np.bincount(picks, minlength=2)
        root = np.sqrt(counts / state.noise)
        _, logdet = np.linalg.slogdet(np.eye(2) + state.cov * np.outer(root, root))
        assert math.fsum(gains) == pytest.approx(0.5 * logdet, rel=1e-11, abs=0.0)
        assert posterior._capacity_greedy(state, [0, 1], budget) == sum(gains, 0.0)


class TestTwoPieceState:
    """A state is a dense base minus the Gram of its pending factor rows; the
    rows are folded into the base once their count p passes sqrt(N)."""

    @staticmethod
    def pending_and_folded(rng):
        state = random_state(rng, 30, hetero=True)
        observations = [Observation(int(i), float(rng.standard_normal()))
                        for i in rng.integers(0, 30, size=4)]
        pending = condition_all(state, observations)  # 4^2 <= 30: no fold
        assert len(pending.factor) == 4
        return pending, replace(pending, base=pending.cov, factor=None)

    def test_pending_and_folded_states_agree(self, rng):
        for _ in range(10):
            pending, folded = self.pending_and_folded(rng)
            assert len(folded.factor) == 0
            mean_oracle, cov_oracle = batch_posterior_oracle(pending, pending.history)
            np.testing.assert_allclose(pending.cov, cov_oracle, rtol=0, atol=1e-10)
            np.testing.assert_allclose(pending.mean, mean_oracle, rtol=0, atol=1e-10)
            ids = rng.permutation(30)[:12].tolist()
            np.testing.assert_allclose(posterior._Blocks(pending, ids, ()).var(),
                                       posterior._Blocks(folded, ids, ()).var(),
                                       rtol=0, atol=1e-12)
            targets, batch = (27, 28, 29), [int(i) for i in rng.integers(0, 27, size=5)]
            assert batch_information_gain(pending, targets, batch) == pytest.approx(
                batch_information_gain(folded, targets, batch), rel=0, abs=1e-12)
            for budget in (1, 3):  # exact: a walk over the block, pruned below greedy
                got, want = (information_capacity(s, range(8), budget) for s in (pending, folded))
                assert got[1] and want[1]
                assert got[0] == pytest.approx(want[0], rel=0, abs=1e-12)
            blocks = [posterior._Blocks(state, targets, range(27), 2)
                      for state in (pending, folded)]
            for pick in (4, 11):  # reads before and after downdates
                for got, want in zip((blocks[0].var(), blocks[0].cov_a()),
                                     (blocks[1].var(), blocks[1].cov_a())):
                    np.testing.assert_allclose(got, want, rtol=0, atol=1e-12)
                for b in blocks:
                    posterior.bace_update(b, pick)

    @pytest.mark.parametrize("policy", [
        Policy(rule="itl", batch_size=5), Policy(rule="itl", batch_size=5, stabilize=False),
        Policy(rule="ctl", batch_size=5), Policy(rule="uncertainty", batch_size=5),
        Policy(rule="undirected-itl", batch_size=5), Policy(rule="cosine", batch_size=5),
        Policy(rule="itl", batch_size=5, batch_mode="topb")])
    def test_scored_rules_pick_alike_from_either_piece(self, rng, policy):
        for _ in range(5):
            pending, folded = self.pending_and_folded(rng)
            got = select_batch(pending, (26, 27, 28, 29), range(26), policy)
            want = select_batch(folded, (26, 27, 28, 29), range(26), policy)
            assert got.indices == want.indices
            np.testing.assert_allclose(got.objectives, want.objectives, rtol=0, atol=1e-12)

    def test_factor_stays_within_sqrt_n(self, rng):
        state = random_state(rng, 50, hetero=True)
        for size in rng.integers(1, 9, size=40):
            before = len(state.factor)
            state = condition_all(state, [Observation(int(i), 0.1)
                                          for i in rng.integers(0, 50, size=size)])
            p = len(state.factor)
            assert p == (before + size if (before + size) ** 2 <= 50 else 0)
            assert p ** 2 <= 50

    def test_fold_in_place_gives_the_bits_of_a_fresh_fold(self, rng):
        state = random_state(rng, 40, hetero=True)
        observations = [Observation(int(i), float(rng.standard_normal()))
                        for i in rng.integers(0, 40, size=19)]
        state = condition_all(state, observations[:7])  # a fold: the base is the state's own
        state = condition_all(state, observations[7:12])  # five pending rows
        fresh = condition_all(state, observations[12:])
        base = state.base
        in_place = condition_all(state, observations[12:], out=base)
        assert len(fresh.factor) == len(in_place.factor) == 0
        assert in_place.base is base and fresh.base is not base
        assert in_place.base.tobytes() == fresh.base.tobytes()
        assert in_place.mean.tobytes() == fresh.mean.tobytes()

    def test_round_without_a_fold_allocates_no_covariance(self, rng):
        n = 600
        state = random_state(rng, n, hetero=True)
        state = condition_all(state, [Observation(i, 0.1) for i in range(25)])  # a fold
        batch = [Observation(int(i), 0.1) for i in rng.integers(0, n, size=10)]
        tracemalloc.start()
        pending = condition_all(state, batch)
        in_place = condition_all(pending, batch * 2, out=pending.base)
        peak = tracemalloc.get_traced_memory()[1]
        tracemalloc.stop()
        assert len(pending.factor) == 10 and len(in_place.factor) == 0
        assert peak < n * n * 8 / 2

    def test_run_loop_folds_into_one_buffer(self, rng, monkeypatch):
        folds = []
        fold = posterior._fold

        def spy(base, w, out=None):
            folds.append(fold(base, w, out))
            return folds[-1]

        monkeypatch.setattr(posterior, "_fold", spy)
        state = random_state(rng, 60, hetero=True)
        run_loop(state, (57, 58, 59), range(57), Policy(rule="itl", batch_size=4),
                 lambda index: 0.0, 12)
        # p = 4, then 8 > sqrt(60): every second round folds, all into the first fold's array
        assert len(folds) == 6 and all(cov is folds[0] for cov in folds)
        assert state.base is state.gram.values  # the caller's state is untouched

    def test_non_finite_row_or_mean_without_a_fold_is_numeric_error(self, rng):
        state = random_state(rng, 10)
        base = state.cov.copy()
        base[0, 5] = np.nan  # read by the downdate at index 0
        with np.errstate(invalid="ignore"), pytest.raises(NumericError):
            condition_all(replace(state, base=base), [Observation(0, 1.0)])
        mean = state.mean.copy()
        mean[3] = np.inf
        with np.errstate(invalid="ignore"), pytest.raises(NumericError):
            condition_all(replace(state, mean=mean), [Observation(0, 1.0)])
