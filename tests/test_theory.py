import math
import tracemalloc
from itertools import islice

import numpy as np
import pytest

from transduct import (
    BudgetError,
    InputError,
    KernelMatrix,
    NoiseModel,
    Observation,
    PosteriorState,
    TheoryConstants,
    check_gamma_bound,
    check_variance_bound,
    check_within_S_bound,
    condition,
    greedy_itl_trajectory,
    information_capacity,
    irreducible_uncertainty,
    markov_boundary,
    markov_size_bound,
    submodularity_ratio,
    verify_markov_boundary,
)
from transduct import posterior, theory
from transduct.kernels import KernelSpec, Point, gram
from transduct.posterior import _Blocks, greedy
from transduct.theory import capacity_upper_bound
from conftest import (
    best_grouped_gain_reference,
    greedy_batch_reference,
    itl_trajectory_reference,
    markov_boundary_reference,
    random_corr_gram,
    random_state,
    step_uncertainty,
    submodularity_ratio_reference,
)

TWO_POINT = np.array([[1.0, 0.5], [0.5, 1.0]])


def small_state(floor, n, rng, rho2=0.5):
    return PosteriorState.from_prior(random_corr_gram(rng, n, floor=floor),
                                     NoiseModel.homoscedastic(rho2))


class TestIrreducibleUncertainty:
    def test_zero_inside_sample_space(self, rng):
        k = random_corr_gram(rng, 5)
        assert irreducible_uncertainty(k, [0, 1, 2], 1) == 0.0

    def test_independent_point_keeps_prior_variance(self):
        k = KernelMatrix(np.diag([1.0, 2.0]), (0, 1))
        np.testing.assert_allclose(irreducible_uncertainty(k, [0], 1), 2.0)

    def test_hand_computed(self):
        k = KernelMatrix(TWO_POINT, (0, 1))
        np.testing.assert_allclose(irreducible_uncertainty(k, [0], 1), 0.75,
                                   atol=1e-9)

    def test_floor_under_posterior_variance(self, rng):
        state = random_state(rng, 8, unit_diag=True, noise_range=(0.2, 0.8))
        space = list(range(5))
        floors = [irreducible_uncertainty(state.gram, space, x) for x in range(8)]
        for _ in range(30):
            idx = int(rng.integers(0, 5))
            state = condition(state, Observation(idx, 0.0,
                                                 state.noise.variance_at(idx)))
            for x in range(8):
                assert state.variance_vector([x])[0] >= floors[x] - 1e-9


class TestStepUncertainty:
    def test_identity_prior(self):
        state = PosteriorState.from_prior(KernelMatrix(np.eye(4), tuple(range(4))),
                                          NoiseModel.homoscedastic(1.0))
        np.testing.assert_allclose(step_uncertainty(state, range(4), range(4)),
                                   0.5 * math.log(2.0), atol=1e-12)

    def test_vanishes_once_sample_space_is_pinned(self, rng):
        gram_m = random_corr_gram(rng, 4, floor=0.3)
        state = PosteriorState.from_prior(gram_m, NoiseModel.homoscedastic(0.5))
        for sweep in range(150):
            state = condition(state, Observation(sweep % 4, 0.0, 0.5))
        # every posterior variance is ~ rho^2/37, so the best gain is ~1/74
        assert step_uncertainty(state, range(4), range(4)) < 0.02

    def test_non_increasing_along_itl_trajectory(self, rng):
        for _ in range(5):
            prior = small_state(0.2, 8, rng)
            traj = greedy_itl_trajectory(prior, range(8), range(8), 12)
            values = traj.gains
            assert all(a >= b - 1e-9 for a, b in zip(values, values[1:]))


def rollout_instance(rng, layout, hetero):
    """A random prior with targets A and sample space S laid out as S inside A,
    A and S disjoint, or partially overlapping."""
    n = int(rng.integers(6, 15))
    prior = random_state(rng, n, hetero=hetero, noise_range=(0.05, 1.0))
    ids = [int(i) for i in rng.permutation(n)]
    cut = int(rng.integers(2, n - 2))
    if layout == "inside":
        return prior, ids, ids[:cut]
    if layout == "disjoint":
        return prior, ids[:cut], ids[cut:]
    return prior, ids[:cut + 2], ids[cut:]


class TestRollout:
    @pytest.mark.parametrize("layout", ["inside", "disjoint", "partial"])
    @pytest.mark.parametrize("hetero", [False, True])
    def test_matches_dense_rollout(self, rng, layout, hetero):
        repeats = 0
        for trial in range(8):
            prior, targets, space = rollout_instance(rng, layout, hetero)
            rounds = int(rng.integers(1, 61)) if trial else 0
            traj = greedy_itl_trajectory(prior, targets, space, rounds)
            picks, gains, variances = itl_trajectory_reference(prior, targets, space, rounds)
            assert traj.picks == picks and traj.rounds == rounds
            assert all(type(g) is float for g in traj.gains)
            np.testing.assert_allclose(traj.gains, gains, rtol=1e-12, atol=1e-12)
            np.testing.assert_allclose(traj.variances, variances, rtol=1e-12, atol=1e-12)
            repeats += len(set(picks)) < len(picks)
        assert repeats >= 4

    @pytest.mark.parametrize("layout", ["inside", "disjoint", "partial"])
    def test_no_repeat_rollout_matches_batch_greedy(self, rng, layout):
        compared = 0
        for trial in range(8):
            prior, targets, space = rollout_instance(rng, layout, hetero=trial % 2 == 1)
            space = sorted(space)[:6]
            k = int(rng.integers(1, 4))
            steps = greedy(_Blocks(prior, targets, space, k), theory._exact_itl)
            picks = [space[best] for best, _ in islice(steps, min(k, len(space)))]
            reference, gaps = greedy_batch_reference(prior, targets, space, k)
            assert len(set(picks)) == len(picks) == len(reference)
            # picks agree up to the first near-tie of the reference
            for pick, ref, gap in zip(picks, reference, gaps):
                if gap <= 1e-9:
                    break
                assert pick == ref
                compared += 1
            np.testing.assert_allclose(
                submodularity_ratio(prior, targets, space, k),
                submodularity_ratio_reference(prior, targets, space, reference, k),
                rtol=1e-12)
        assert compared >= 8

    def test_memory_is_one_factor_block(self, rng):
        prior = PosteriorState.from_prior(random_corr_gram(rng, 300),
                                          NoiseModel.homoscedastic(0.1))
        tracemalloc.start()
        try:
            traj = greedy_itl_trajectory(prior, range(300), range(300), 100)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert traj.rounds == 100
        # a dense state per round would hold 101 x 300^2 floats (about 73 MB)
        assert peak < 16 * 2 ** 20

    def test_rejects_empty_space_and_negative_rounds(self, rng):
        prior = small_state(0.2, 4, rng)
        with pytest.raises(InputError):
            greedy_itl_trajectory(prior, range(4), [], 3)
        with pytest.raises(InputError):
            greedy_itl_trajectory(prior, range(4), range(4), -1)


class TestGammaBound:
    def test_identity_gram_equality_regime(self):
        prior = PosteriorState.from_prior(KernelMatrix(np.eye(6), tuple(range(6))),
                                          NoiseModel.homoscedastic(1.0))
        traj = greedy_itl_trajectory(prior, range(6), range(6), 5)
        report = check_gamma_bound(traj)
        assert report.passed is True
        half_log2 = 0.5 * math.log(2.0)
        for row in report.rows:
            np.testing.assert_allclose(row["gamma_step"], half_log2, atol=1e-9)
            assert row["bound"] >= half_log2 - 1e-9

    def test_random_instances_pass(self, rng):
        for _ in range(5):
            prior = small_state(0.1, 7, rng, rho2=0.4)
            traj = greedy_itl_trajectory(prior, range(7), range(7), 5)
            report = check_gamma_bound(traj)
            assert report.passed is True
            assert all(row["capacity_exact"] for row in report.rows)


class TestWithinSampleBound:
    def test_round_zero_direct(self, rng):
        prior = small_state(0.2, 6, rng)
        constants = TheoryConstants.from_state(prior, range(6))
        gamma0 = step_uncertainty(prior, range(6), range(6))
        assert 1.0 <= 2 * constants.sigma_tilde_sq * gamma0 + 1e-9

    def test_gaussian_grid_200_rounds(self, rng):
        points = [Point(i, coords=[0.35 * i]) for i in range(12)]
        k = gram(KernelSpec("gaussian", lengthscale=0.5), points)
        prior = PosteriorState.from_prior(k, NoiseModel.homoscedastic(0.3))
        traj = greedy_itl_trajectory(prior, range(12), range(12), 200)
        report = check_within_S_bound(traj)
        assert report.passed is True
        assert len(report.rows) == 201

    def test_disjoint_spaces_warn(self, rng):
        prior = small_state(0.2, 6, rng)
        traj = greedy_itl_trajectory(prior, [4, 5], [0, 1, 2], 2)
        assert check_within_S_bound(traj).passed is None


class TestMarkovBoundary:
    def test_inside_sample_space_tight_epsilon(self):
        k = KernelMatrix(np.array([[1.0]]), (0,))
        state = PosteriorState.from_prior(k, NoiseModel.homoscedastic(0.1))
        boundary = markov_boundary(state, [0], 0, 0.01)
        assert boundary.irreducible == 0.0
        assert boundary.achieved_variance <= 0.01
        # direct conditioning: Var = 1/(1 + n/0.1) <= 0.01 needs n >= 10
        assert len(boundary.members) == 10
        assert len(boundary.members) <= boundary.size_bound
        assert verify_markov_boundary(state, boundary, 0)

    def test_independent_point_needs_nothing(self, rng):
        values = np.eye(3)
        values[:2, :2] = random_corr_gram(rng, 2, floor=0.6).values
        state = PosteriorState.from_prior(KernelMatrix(values, tuple(range(3))),
                                          NoiseModel.homoscedastic(0.5))
        boundary = markov_boundary(state, [0, 1], 2, 0.5)
        assert boundary.members == ()
        np.testing.assert_allclose(boundary.irreducible, 1.0)

    def test_epsilon_above_prior_variance(self, rng):
        state = small_state(0.4, 3, rng)
        boundary = markov_boundary(state, [0, 1], 2, 1.5)
        assert boundary.members == ()

    def test_hand_instance_repeated_observations(self):
        k = KernelMatrix(TWO_POINT, (0, 1))
        state = PosteriorState.from_prior(k, NoiseModel.homoscedastic(0.01))
        boundary = markov_boundary(state, [0], 1, 0.1)
        assert set(boundary.members) == {0}
        assert boundary.achieved_variance <= 0.85
        assert verify_markov_boundary(state, boundary, 1)

    def test_budget_error_on_tiny_epsilon(self, rng):
        state = small_state(0.5, 6, rng)
        with pytest.raises(BudgetError):
            markov_boundary(state, range(6), 0, 1e-6)

    def test_validity_after_history(self, rng):
        state = small_state(0.5, 3, rng)
        state = condition(state, Observation(0, 0.4, 0.5))
        boundary = markov_boundary(state, range(3), 1, 0.5)
        assert verify_markov_boundary(state, boundary, 1)
        assert len(boundary.members) <= boundary.size_bound


    def test_matches_dense_reference(self, rng, monkeypatch):
        # b_eps on these instances runs to ~1e6 observations, past the
        # default cap; the boundaries themselves stay small
        monkeypatch.setattr(theory, "SIZE_BOUND_CAP", 10 ** 7)
        nonempty = 0
        for trial in range(40):
            # distinct prior scales: on a symmetric instance two greedy gains
            # tie exactly and round-off alone picks between them
            n = int(rng.integers(2, 5))
            scale = rng.uniform(0.7, 1.3, size=n + 1)
            values = random_corr_gram(rng, n + 1, floor=0.6).values * np.outer(scale, scale)
            noise = (NoiseModel(per_index=dict(enumerate(rng.uniform(0.3, 1.0, n + 1))))
                     if trial % 2 else NoiseModel.homoscedastic(float(rng.uniform(0.3, 1.0))))
            state = PosteriorState.from_prior(KernelMatrix(values, tuple(range(n + 1))), noise)
            if trial % 4 >= 2:
                state = condition(state, Observation(0, 0.7, noise.variance_at(0)))
            space, x = tuple(range(n)), n
            floor = irreducible_uncertainty(state.gram, space, x)
            epsilon = float(rng.uniform(0.3, 0.9)) * (float(state.cov[x, x]) - floor)
            boundary = markov_boundary(state, space, x, epsilon)
            members, achieved = markov_boundary_reference(state, space, x, floor, epsilon,
                                                          cap=10 ** 7)
            assert boundary.members == members
            assert boundary.achieved_variance == pytest.approx(achieved, rel=1e-12,
                                                               abs=1e-12)
            nonempty += bool(members)
        assert nonempty >= 10


class TestSizeBound:
    def test_capacity_upper_bound_dominates_exact(self, rng):
        for _ in range(10):
            n = int(rng.integers(2, 5))
            state = small_state(0.3, n, rng, rho2=float(rng.uniform(0.2, 1.0)))
            variances = np.diag(state.gram.values)
            noise = state.noise.vector(state.ids)
            for budget in (1, 2, 3, 4):
                exact, is_exact = information_capacity(state, state.ids, budget)
                assert is_exact
                bound = capacity_upper_bound(variances, noise, budget)
                assert bound >= exact - 1e-9

    def test_capacity_is_exact_when_its_multisets_fit_the_cap(self, rng, monkeypatch):
        # the capacity the checkers read: budget 3 over |S| = 3 enumerates
        # C(5, 3) = 10 multisets; sizes 1..3 together would be 19
        state = random_state(rng, 3, hetero=True)
        monkeypatch.setattr(posterior, "BRUTE_FORCE_CAP", 10)
        capacity, exact = theory.information_capacity(state, [0, 1, 2], 3)
        assert exact is True
        assert capacity == pytest.approx(best_grouped_gain_reference(
            state.cov, state.noise.vector(state.ids), 3), rel=1e-12)
        monkeypatch.setattr(posterior, "BRUTE_FORCE_CAP", 9)
        assert theory.information_capacity(state, [0, 1, 2], 3)[1] is False

    def test_exact_small_epsilon_path(self, rng):
        k = KernelMatrix(np.eye(2), (0, 1))
        state = PosteriorState.from_prior(k, NoiseModel.homoscedastic(1.0))
        size, exact = markov_size_bound(state, [0, 1], 5.0)
        assert exact is True and size >= 1

    def test_exact_phase_matches_scalar_reference(self, rng):
        hits = 0
        for n in (2, 3, 4, 5):
            state = random_state(rng, n, hetero=True, unit_diag=True, floor=0.5,
                                 noise_range=(0.2, 1.0))
            space = list(range(n))
            constants = TheoryConstants.from_state(state, space)
            scale = (constants.lambda_min ** 2
                     / (2.0 * n ** 2 * constants.sigma_sq ** 2 * constants.sigma_tilde_sq))
            cov = state.cov
            noise = state.noise.vector(space)
            for epsilon in (1.0, 5.0, 20.0, 100.0, 500.0):
                threshold = epsilon * scale
                try:
                    got = markov_size_bound(state, space, epsilon)
                except BudgetError:
                    continue
                if not got[1]:
                    continue
                # an exact k is the first size whose prefix capacity meets the
                # threshold, by the reference enumeration
                hits += 1
                gamma = 0.0
                for size in range(1, got[0] + 1):
                    gamma = max(gamma, best_grouped_gain_reference(cov, noise, size))
                    assert (gamma / size <= threshold) == (size == got[0])
        assert hits >= 5

    def test_rejects_nonpositive_epsilon(self, rng):
        state = small_state(0.4, 3, rng)
        with pytest.raises(InputError):
            markov_size_bound(state, range(3), 0.0)


class TestVarianceBound:
    def test_random_instances_hold(self, rng):
        for _ in range(5):
            prior = small_state(0.6, 3, rng, rho2=0.5)
            traj = greedy_itl_trajectory(prior, range(3), range(3), 6)
            report = check_variance_bound(traj, 0.4)
            assert report.passed is True

    def test_extrapolation_grid_gap_shrinks(self):
        points = [Point(i, coords=[2.0 * i]) for i in range(3)]
        points += [Point(3, coords=[4.6]), Point(4, coords=[5.4])]
        k = gram(KernelSpec("gaussian", lengthscale=0.6), points)
        prior = PosteriorState.from_prior(k, NoiseModel.homoscedastic(0.25))
        traj = greedy_itl_trajectory(prior, range(5), range(3), 60)
        report = check_variance_bound(traj, 0.05)
        assert report.passed is True
        assert report.rows[-1]["max_gap"] < 0.25 * report.rows[0]["max_gap"]


class TestSubmodularityRatio:
    def test_at_least_one_when_undirected(self, rng):
        for _ in range(5):
            state = small_state(0.2, 6, rng)
            kappa = submodularity_ratio(state, range(6), range(6), 3)
            assert kappa >= 1.0 - 1e-9

    def test_single_candidate_is_one(self, rng):
        state = small_state(0.3, 4, rng)
        kappa = submodularity_ratio(state, [2, 3], [0], 1)
        np.testing.assert_allclose(kappa, 1.0, atol=1e-9)

    def test_disjoint_spaces_positive(self, rng):
        state = small_state(0.3, 8, rng)
        kappa = submodularity_ratio(state, [6, 7], range(5), 2)
        assert kappa > 0.0

    def test_size_limit(self, rng):
        state = random_state(rng, 40, unit_diag=True)
        with pytest.raises(InputError):
            submodularity_ratio(state, range(40), range(40), 4)


class TestConstants:
    def test_from_state(self):
        values = np.array([[1.0, 0.2], [0.2, 0.5]])
        k = KernelMatrix(values, (0, 1))
        noise = NoiseModel(per_index={0: 0.1, 1: 1.0})
        constants = TheoryConstants.from_state(
            PosteriorState.from_prior(k, noise), [0, 1])
        assert constants.sigma_sq == 1.0
        assert constants.sigma_tilde_sq == 1.5
        np.testing.assert_allclose(constants.lambda_min,
                                   np.linalg.eigvalsh(values).min())

    def test_trajectory_computes_constants_once(self, rng):
        state = small_state(0.1, 6, rng)
        trajectory = greedy_itl_trajectory(state, range(6), [4, 1, 3], 3)
        assert trajectory.constants is trajectory.constants
        assert trajectory.constants == TheoryConstants.from_state(state, [1, 3, 4])
        assert (markov_size_bound(state, [4, 1, 3], 0.5, constants=trajectory.constants)
                == markov_size_bound(state, [4, 1, 3], 0.5))
