import math
import tracemalloc
from functools import partial
from itertools import islice

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from transduct import (
    BudgetError,
    InputError,
    KernelMatrix,
    Observation,
    Policy,
    PosteriorState,
    TheoryConstants,
    check_gamma_bound,
    check_variance_bound,
    check_within_S_bound,
    condition,
    condition_all,
    greedy_itl_trajectory,
    information_capacity,
    irreducible_uncertainty,
    markov_boundary,
    markov_size_bound,
    select_batch,
    submodularity_ratio,
    verify_markov_boundary,
)
from transduct import posterior, theory
from transduct.kernels import KernelSpec, gram
from transduct.posterior import _Blocks, _itl_scores, _undirected_scores, bace_update, greedy
from transduct.selection import _ctl_scores
from transduct.theory import capacity_upper_bound
from conftest import (
    best_grouped_gain_reference,
    capacity_upper_bound_reference,
    greedy_batch_reference,
    itl_trajectory_reference,
    markov_boundary_reference,
    random_corr_gram,
    random_psd_gram,
    random_state,
    step_uncertainty,
    submodularity_ratio_reference,
    target_variances,
)

TWO_POINT = np.array([[1.0, 0.5], [0.5, 1.0]])


def small_state(floor, n, rng, rho2=0.5):
    return PosteriorState.from_prior(random_corr_gram(rng, n, floor=floor), rho2)


class TestIrreducibleUncertainty:
    def test_zero_inside_sample_space(self, rng):
        k = random_corr_gram(rng, 5)
        assert irreducible_uncertainty(k, [0, 1, 2], [1])[0] == 0.0

    def test_independent_point_keeps_prior_variance(self):
        k = KernelMatrix(np.diag([1.0, 2.0]), (0, 1))
        np.testing.assert_allclose(irreducible_uncertainty(k, [0], [1]), [2.0])

    def test_hand_computed(self):
        k = KernelMatrix(TWO_POINT, (0, 1))
        np.testing.assert_allclose(irreducible_uncertainty(k, [0], [1]), [0.75],
                                   atol=1e-9)

    def test_floor_under_posterior_variance(self, rng):
        state = random_state(rng, 8, unit_diag=True, noise_range=(0.2, 0.8))
        space = list(range(5))
        floors = [irreducible_uncertainty(state.gram, space, [x])[0] for x in range(8)]
        for _ in range(30):
            idx = int(rng.integers(0, 5))
            state = condition(state, Observation(idx, 0.0))
            for x in range(8):
                assert target_variances(state, [x])[0] >= floors[x] - 1e-9


class TestStepUncertainty:
    def test_identity_prior(self):
        state = PosteriorState.from_prior(KernelMatrix(np.eye(4), tuple(range(4))), 1.0)
        np.testing.assert_allclose(step_uncertainty(state, range(4), range(4)),
                                   0.5 * math.log(2.0), atol=1e-12)

    def test_vanishes_once_sample_space_is_pinned(self, rng):
        gram_m = random_corr_gram(rng, 4, floor=0.3)
        state = PosteriorState.from_prior(gram_m, 0.5)
        for sweep in range(150):
            state = condition(state, Observation(sweep % 4, 0.0))
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
        prior = PosteriorState.from_prior(random_corr_gram(rng, 300), 0.1)
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


def permuted_pair(seed):
    """One random conditioned posterior over ids 0..n-1 built twice: once in id
    order and once with the domain's points in a random order, the same ids
    keeping the same Gram values, noise and observations. Also returns
    disjoint targets and a sample space."""
    rng = np.random.default_rng(seed)
    n = int(rng.integers(8, 16))
    values = random_psd_gram(rng, n).values
    noise = rng.uniform(0.05, 1, n)  # by id
    observed = [Observation(int(i), float(rng.standard_normal()))
                for i in rng.integers(0, n, size=int(rng.integers(0, 5)))]
    order = rng.permutation(n)
    states = [condition_all(PosteriorState.from_prior(KernelMatrix(values[np.ix_(p, p)], p),
                                                      noise[p]), observed)
              for p in (np.arange(n), order)]
    ids = [int(i) for i in rng.permutation(n)]
    cut = int(rng.integers(2, n - 2))
    return rng, states, ids[:cut], ids[cut:]


class TestOneDowndatePrimitive:
    def test_itl_and_floors_make_no_factorization(self, rng, monkeypatch):
        # every variance they read comes from downdates of one factor and its twin
        prior, targets, space = rollout_instance(rng, "disjoint", hetero=True)

        def refuse(*args, **kwargs):
            raise AssertionError("np.linalg was called")

        for name in ("inv", "cholesky", "solve"):
            monkeypatch.setattr(np.linalg, name, refuse)
        for stabilize in (False, True):
            policy = Policy(rule="itl", batch_size=3, stabilize=stabilize)
            assert len(select_batch(prior, targets, space, policy).indices) == 3
        traj = greedy_itl_trajectory(prior, targets, space, 6)
        assert traj.rounds == 6
        floors = irreducible_uncertainty(prior.gram, space, targets + space[:1])
        assert floors.shape == (len(targets) + 1,) and floors[-1] == 0.0

    @settings(max_examples=40, deadline=None)
    @given(seed=st.integers(0, 2 ** 32 - 1))
    def test_point_order_leaves_bace_picks_unchanged(self, seed):
        # a metamorphic relation: ids, not positions, name the points
        rng, (base, shuffled), targets, space = permuted_pair(seed)
        b = int(rng.integers(2, min(len(space), 4) + 1))
        policies = [Policy(rule="itl", batch_size=b, stabilize=stabilize)
                    for stabilize in (False, True)]
        policies += [Policy(rule=rule, batch_size=b)
                     for rule in ("ctl", "uncertainty", "undirected-itl")]
        for policy in policies:
            want = select_batch(base, targets, space, policy)
            got = select_batch(shuffled, targets, space, policy)
            assert got.indices == want.indices
            np.testing.assert_allclose(got.objectives, want.objectives, rtol=1e-12, atol=0)
        rounds = int(rng.integers(1, 12))
        want = greedy_itl_trajectory(base, targets, space, rounds)
        got = greedy_itl_trajectory(shuffled, targets, space, rounds)
        assert got.picks == want.picks
        np.testing.assert_allclose(got.gains, want.gains, rtol=1e-12, atol=0)


def scaled_prior(values, rho2, scale):
    """The prior over ids 0..n-1 with Gram ``scale * values`` and noise ``scale * rho2``."""
    return PosteriorState.from_prior(
        KernelMatrix(scale * values, tuple(range(len(values)))),
        scale * rho2)


def scaled_pair(seed, c):
    """One random conditioned posterior built twice: as drawn, and with its
    prior Gram and every noise variance multiplied by ``c`` (the observed
    values by sqrt(c), which no variance reads). Also returns targets and a
    sample space that share up to two ids."""
    rng = np.random.default_rng(seed)
    n = int(rng.integers(8, 16))
    values = random_psd_gram(rng, n).values
    rho2 = rng.uniform(0.05, 1, n)
    observed = [(int(i), float(rng.standard_normal()))
                for i in rng.integers(0, n, size=int(rng.integers(0, 5)))]
    states = [condition_all(scaled_prior(values, rho2, scale),
                            [Observation(i, math.sqrt(scale) * y) for i, y in observed])
              for scale in (1.0, c)]
    ids = [int(i) for i in rng.permutation(n)]
    cut = int(rng.integers(2, n - 2))
    return rng, states, ids[:cut + int(rng.integers(0, 3))], ids[cut:]


class TestScaleInvariance:
    # a metamorphic relation: rho^2(x) enters ITL, CTL and the capacity only
    # through sigma^2 / rho^2, so scaling the prior Gram and every noise
    # variance by c (exact in binary for 0.25 and 4, rounded for 3) leaves
    # them unchanged and multiplies every variance by c

    @settings(max_examples=30, deadline=None)
    @given(seed=st.integers(0, 2 ** 32 - 1), c=st.sampled_from([0.25, 4.0, 3.0]))
    def test_scores_are_scale_free_and_variances_scale(self, seed, c):
        rng, states, targets, space = scaled_pair(seed, c)
        for score in (partial(_itl_scores, stabilize=False), partial(_itl_scores, stabilize=True),
                      _undirected_scores, _ctl_scores):
            base, scaled = (_Blocks(state, targets, space) for state in states)
            for _ in range(3):
                np.testing.assert_allclose(score(scaled), score(base), rtol=1e-12, atol=1e-14)
                np.testing.assert_allclose(scaled.var(), c * base.var(), rtol=1e-12,
                                           atol=c * 1e-14)
                pick = int(rng.integers(len(space)))  # any downdate keeps the relation
                bace_update(base, pick)
                bace_update(scaled, pick)

    @settings(max_examples=30, deadline=None)
    @given(seed=st.integers(0, 2 ** 32 - 1), c=st.sampled_from([0.25, 4.0, 3.0]))
    def test_picks_and_capacity_are_scale_free(self, seed, c):
        rng, (base, scaled), targets, space = scaled_pair(seed, c)
        b = int(rng.integers(2, min(len(space), 4) + 1))
        policies = [Policy(rule="itl", batch_size=b, stabilize=stabilize)
                    for stabilize in (False, True)]
        policies += [Policy(rule=rule, batch_size=b)
                     for rule in ("ctl", "undirected-itl", "uncertainty")]
        for policy in policies:
            want = select_batch(base, targets, space, policy)
            got = select_batch(scaled, targets, space, policy)
            assert got.indices == want.indices
            unit = c if policy.rule == "uncertainty" else 1.0
            np.testing.assert_allclose(got.objectives, unit * np.array(want.objectives),
                                       rtol=1e-12, atol=unit * 1e-14)
        rounds = int(rng.integers(1, 12))
        want, got = (greedy_itl_trajectory(state, targets, space, rounds)
                     for state in (base, scaled))
        assert got.picks == want.picks
        np.testing.assert_allclose(got.gains, want.gains, rtol=1e-12, atol=1e-14)
        for budget in (1, 2, 4, 60):  # 60 is past BRUTE_FORCE_CAP from |S| = 5 on
            (value, exact), (scaled_value, scaled_exact) = (
                information_capacity(state, space, budget) for state in (base, scaled))
            assert scaled_exact == exact
            np.testing.assert_allclose(scaled_value, value, rtol=1e-12)

    @settings(max_examples=40, deadline=None)
    @given(seed=st.integers(0, 2 ** 32 - 1), c=st.sampled_from([0.25, 4.0, 3.0]))
    def test_size_bound_is_unchanged_when_epsilon_scales_too(self, seed, c):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(3, 7))
        values = random_corr_gram(rng, n, floor=0.5).values
        rho2 = rng.uniform(0.05, 1, n)
        # from 0.05 to 200: exact sizes, certified sizes and refusals
        epsilon = float(np.exp(rng.uniform(np.log(0.05), np.log(200.0))))
        outcomes = []
        for scale in (1.0, c):
            try:
                outcomes.append(markov_size_bound(scaled_prior(values, rho2, scale), range(n),
                                                  scale * epsilon))
            except BudgetError:
                outcomes.append("refused")
        assert outcomes[1] == outcomes[0]


class TestGammaBound:
    def test_identity_gram_equality_regime(self):
        prior = PosteriorState.from_prior(KernelMatrix(np.eye(6), tuple(range(6))), 1.0)
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
        constants = TheoryConstants.from_state(prior)
        gamma0 = step_uncertainty(prior, range(6), range(6))
        assert 1.0 <= 2 * constants.sigma_tilde_sq * gamma0 + 1e-9

    def test_gaussian_grid_200_rounds(self, rng):
        k = gram(KernelSpec("gaussian", lengthscale=0.5), range(12),
                 0.35 * np.arange(12.0)[:, None])
        prior = PosteriorState.from_prior(k, 0.3)
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
        state = PosteriorState.from_prior(k, 0.1)
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
        state = PosteriorState.from_prior(KernelMatrix(values, tuple(range(3))), 0.5)
        boundary = markov_boundary(state, [0, 1], 2, 0.5)
        assert boundary.members == ()
        np.testing.assert_allclose(boundary.irreducible, 1.0)

    def test_epsilon_above_prior_variance(self, rng):
        state = small_state(0.4, 3, rng)
        boundary = markov_boundary(state, [0, 1], 2, 1.5)
        assert boundary.members == ()

    def test_hand_instance_repeated_observations(self):
        k = KernelMatrix(TWO_POINT, (0, 1))
        state = PosteriorState.from_prior(k, 0.01)
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
        state = condition(state, Observation(0, 0.4))
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
            noise = rng.uniform(0.3, 1.0, n + 1) if trial % 2 else float(rng.uniform(0.3, 1.0))
            state = PosteriorState.from_prior(KernelMatrix(values, tuple(range(n + 1))), noise)
            if trial % 4 >= 2:
                state = condition(state, Observation(0, 0.7))
            space, x = tuple(range(n)), n
            floor = float(irreducible_uncertainty(state.gram, space, [x])[0])
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
            noise = state.noise
            for budget in (1, 2, 3, 4):
                exact, is_exact = information_capacity(state, state.gram.ids, budget)
                assert is_exact
                bound = capacity_upper_bound(variances, noise, budget)
                assert bound >= exact - 1e-9

    def test_capacity_upper_bound_matches_loop_reference(self, rng):
        # zero and negative variances, budget 0, and budgets small enough that
        # the level drops below 1/rate at the second point
        breaks = set()
        for trial in range(3000):
            n = int(rng.integers(1, 12))
            variances = rng.uniform(-0.2, 2.0, n) * (rng.random(n) < 0.8)
            noise = rng.uniform(0.01, 1.0, n)
            budget = (0, 1e-3, int(rng.integers(1, 50)), float(rng.uniform(0, 3)))[trial % 4]
            got = capacity_upper_bound(variances, noise, budget)
            assert got == capacity_upper_bound_reference(variances, noise, budget)
            positive = variances > 0
            inv = np.sort(noise[positive] / variances[positive])
            # two points active puts the level below 1/rate of the second
            breaks.add(budget > 0 and len(inv) > 1 and budget + inv[0] < inv[1])
        assert breaks == {False, True}

    def test_capacity_is_exact_when_its_multisets_fit_the_cap(self, rng, monkeypatch):
        # the capacity the checkers read: budget 3 over |S| = 3 enumerates
        # C(5, 3) = 10 multisets; sizes 1..3 together would be 19
        state = random_state(rng, 3, hetero=True)
        monkeypatch.setattr(posterior, "BRUTE_FORCE_CAP", 10)
        capacity, exact = theory.information_capacity(state, [0, 1, 2], 3)
        assert exact is True
        assert capacity == pytest.approx(best_grouped_gain_reference(
            state.cov, state.noise, 3), rel=1e-12)
        monkeypatch.setattr(posterior, "BRUTE_FORCE_CAP", 9)
        assert theory.information_capacity(state, [0, 1, 2], 3)[1] is False

    def test_exact_small_epsilon_path(self, rng):
        k = KernelMatrix(np.eye(2), (0, 1))
        state = PosteriorState.from_prior(k, 1.0)
        size, exact = markov_size_bound(state, [0, 1], 5.0)
        assert exact is True and size >= 1

    def test_exact_phase_matches_scalar_reference(self, rng):
        hits = 0
        for n in (2, 3, 4, 5):
            state = random_state(rng, n, hetero=True, unit_diag=True, floor=0.5,
                                 noise_range=(0.2, 1.0))
            space = list(range(n))
            constants = TheoryConstants.from_state(state)
            cov = state.cov
            lambda_min = np.linalg.eigvalsh(cov).min()  # the prior's K_SS: S is every point
            scale = (lambda_min ** 2
                     / (2.0 * n ** 2 * constants.sigma_sq ** 2 * constants.sigma_tilde_sq))
            noise = state.noise
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

    def test_zero_prior_is_vacuous_not_a_division_error(self):
        state = PosteriorState.from_prior(KernelMatrix(np.zeros((2, 2)), (0, 1)), 0.25)
        with pytest.raises(BudgetError, match="vacuous"):
            markov_size_bound(state, [0, 1], 1.0)

    def test_greedy_certificate_keeps_every_result(self, rng, monkeypatch):
        walks = []
        walk = theory._best_grouped_gain
        monkeypatch.setattr(theory, "_best_grouped_gain",
                            lambda *args: walks.append(args[2]) or walk(*args))
        cases = []
        for hetero in (False, True):
            for n in (2, 3, 4, 6):
                state = random_state(rng, n, hetero=hetero, unit_diag=True, floor=0.5,
                                     noise_range=(0.2, 1.0))
                cases += [(state, float(epsilon)) for epsilon in np.geomspace(1e-2, 1e4, 10)]

        def outcomes():
            results = []
            for state, epsilon in cases:
                try:
                    results.append(markov_size_bound(state, state.gram.ids, epsilon))
                except BudgetError as exc:
                    results.append(str(exc))
            return results

        certified = outcomes()
        certified_walks = len(walks)
        # without the certificate the exact phase always scans
        monkeypatch.setattr(theory, "_greedy_gains", lambda *args: [])
        walks.clear()
        assert outcomes() == certified
        assert certified_walks < len(walks)
        kinds = {r[1] if isinstance(r, tuple) else "refused" for r in certified}
        assert kinds == {True, False, "refused"}

    def test_capacity_ratio_never_rises_and_greedy_stays_below(self, rng):
        # gamma_k / k is nonincreasing (monotone submodular gain) and greedy is
        # a lower bound: together they certify skipping the exact phase
        for trial in range(40):
            n = int(rng.integers(2, 7))
            state = random_state(rng, n, hetero=bool(trial % 2), noise_range=(0.05, 1.0))
            noise = state.noise
            previous = math.inf
            for k in range(1, 7):
                gamma = posterior._best_grouped_gain(state.cov, noise, k)
                assert gamma / k <= previous * (1 + 1e-12)
                assert posterior._capacity_greedy(state, state.gram.ids, k) <= gamma * (1 + 1e-12)
                previous = gamma / k


class TestVarianceBound:
    def test_random_instances_hold(self, rng):
        for _ in range(5):
            prior = small_state(0.6, 3, rng, rho2=0.5)
            traj = greedy_itl_trajectory(prior, range(3), range(3), 6)
            report = check_variance_bound(traj, 0.4)
            assert report.passed is True

    def test_extrapolation_grid_gap_shrinks(self):
        k = gram(KernelSpec("gaussian", lengthscale=0.6), range(5),
                 [[0.0], [2.0], [4.0], [4.6], [5.4]])
        prior = PosteriorState.from_prior(k, 0.25)
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

    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_matches_the_full_enumeration_bit_for_bit(self, rng, k):
        # the reference also enumerates the one-point sets, each a ratio of exactly 1
        for trial in range(12):
            layout = ("inside", "disjoint", "partial")[trial % 3]
            prior, targets, space = rollout_instance(rng, layout, hetero=trial % 2 == 1)
            space = sorted(space)[:6]
            steps = greedy(_Blocks(prior, targets, space, k), theory._exact_itl)
            batch = tuple(space[best] for best, _ in islice(steps, min(k, len(space))))
            assert repr(submodularity_ratio(prior, targets, space, k)) == repr(
                submodularity_ratio_reference(prior, targets, space, batch, k))

    def test_one_point_sets_compute_no_batch_gain(self, rng, monkeypatch):
        def refuse(*args):
            raise AssertionError("a batch gain was computed")

        monkeypatch.setattr(theory, "batch_information_gain", refuse)
        prior, targets, space = rollout_instance(rng, "partial", hetero=True)
        assert submodularity_ratio(prior, targets, sorted(space)[:6], 1) == 1.0

    def test_size_limit(self, rng):
        state = random_state(rng, 40, unit_diag=True)
        with pytest.raises(InputError):
            submodularity_ratio(state, range(40), range(40), 4)


class TestConstants:
    def test_from_state(self):
        k = KernelMatrix(np.array([[1.0, 0.2], [0.2, 0.5]]), (0, 1))
        constants = TheoryConstants.from_state(PosteriorState.from_prior(k, [0.1, 1.0]))
        assert constants.sigma_sq == 1.0
        assert constants.sigma_tilde_sq == 1.5
