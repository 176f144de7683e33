import math
from dataclasses import replace

import numpy as np
import pytest

from transduct import (
    DataError,
    InputError,
    KernelMatrix,
    KernelSpec,
    Observation,
    Policy,
    PosteriorState,
    batch_information_gain,
    brute_force_batch,
    condition,
    condition_all,
    gram,
    information_gain,
    labeled_oracle,
    run_loop,
    sample_gp_truth,
    select_batch,
    subsample_targets,
)
from transduct import posterior, selection
from conftest import (batch_posterior_oracle, ctl_scores_reference, kmeanspp_reference,
                      max_dist_scores_reference, random_corr_gram, random_state,
                      rescoring_bace_reference, score_baseline, score_ctl, score_itl,
                      target_variances)

TWO_POINT = np.array([[1.0, 0.5], [0.5, 1.0]])


def identity_state(n, rho2=1.0):
    gram = KernelMatrix(np.eye(n), tuple(range(n)))
    return PosteriorState.from_prior(gram, rho2)


class TestScoreITL:
    def test_matches_information_gain_example(self):
        gram = KernelMatrix(TWO_POINT, (0, 1))
        state = PosteriorState.from_prior(gram, 0.1)
        np.testing.assert_allclose(score_itl(state, [1], 0),
                                   0.5 * math.log(1.1 / 0.85), atol=1e-9)

    def test_undirected_argmax_is_max_variance(self, rng):
        for _ in range(20):
            state = random_state(rng, 9, noise_range=(0.3, 0.3))
            targets = list(range(9))
            scores = [score_itl(state, targets, x) for x in range(9)]
            variances = target_variances(state, range(9))
            assert int(np.argmax(scores)) == int(np.argmax(variances))

    def test_independent_candidate_scores_zero(self):
        state = identity_state(3, 0.5)
        assert score_itl(state, [1, 2], 0) <= 1e-12


class TestScoreCTL:
    def test_single_target_prior_equals_cosine(self, rng):
        from transduct import gram as build_gram
        from transduct.kernels import KernelSpec

        emb = rng.standard_normal((6, 4))
        k = build_gram(KernelSpec("embedding"), range(6), emb)
        state = PosteriorState.from_prior(k, 0.5)
        anchor = emb[0]
        for x in range(1, 6):
            cosine = np.dot(emb[x], anchor) / (np.linalg.norm(emb[x]) * np.linalg.norm(anchor))
            np.testing.assert_allclose(score_ctl(state, [0], x), cosine, atol=1e-12)

    def test_self_correlation(self):
        state = identity_state(2)
        assert score_ctl(state, [0], 0) == 1.0

    def test_disjoint_block_scores_zero(self):
        blocks = np.eye(4)
        blocks[0, 1] = blocks[1, 0] = 0.7
        state = PosteriorState.from_prior(KernelMatrix(blocks, tuple(range(4))), 0.5)
        assert score_ctl(state, [0, 1], 2) == 0.0

    def test_degenerate_variance_scores_zero(self):
        state = identity_state(2, rho2=1e-6)
        state = condition(state, Observation(0, 1.0))
        assert score_ctl(state, [1], 0) == 0.0

    def test_matches_dense_correlation_sum(self, rng):
        for trial in range(40):
            n = int(rng.integers(8, 30))
            state = random_state(rng, n, hetero=trial % 2 == 0)
            if trial % 3:
                observed = rng.choice(n, size=3, replace=False)
                if trial % 3 == 2:  # near-exact observations leave degenerate variances
                    noise = state.noise.copy()
                    noise[observed] = 1e-14
                    state = replace(state, noise=noise)
                state = condition_all(state, [Observation(int(i), 0.3) for i in observed])
            targets = sorted(int(t) for t in rng.choice(n, int(rng.integers(1, 8)),
                                                        replace=False))
            candidates = sorted(int(c) for c in rng.choice(n, int(rng.integers(3, n + 1)),
                                                           replace=False))
            blocks = selection._Blocks(state, targets, candidates, 3)
            for step in range(3):
                # atol: a sum of correlations of both signs can cancel to near 0
                np.testing.assert_allclose(selection._ctl_scores(blocks),
                                           ctl_scores_reference(blocks), rtol=1e-12,
                                           atol=1e-12)
                selection.bace_update(blocks, step)

    def test_negative_correlations_compete_unclamped(self):
        values = np.array([[1.0, -0.6, -0.5],
                           [-0.6, 1.0, 0.2],
                           [-0.5, 0.2, 1.0]])
        state = PosteriorState.from_prior(KernelMatrix(values, (0, 1, 2)), 0.5)
        score = score_ctl(state, [1, 2], 0)
        np.testing.assert_allclose(score, -1.1, atol=1e-12)


class TestScoreBaselines:
    def test_max_dist_identity_gram(self):
        state = identity_state(4)
        value = score_baseline("max-dist", 2, state=state, selected=[0, 1])
        np.testing.assert_allclose(value, math.sqrt(2.0), rtol=1e-12)

    def test_undirected_itl_formula(self):
        state = identity_state(3, rho2=0.5)
        value = score_baseline("undirected-itl", 0, state=state)
        np.testing.assert_allclose(value, 0.5 * math.log1p(1 / 0.5), rtol=1e-12)

    def test_uncertainty_is_variance(self):
        state = identity_state(3, rho2=0.5)
        assert score_baseline("uncertainty", 1, state=state) == 1.0

    def test_softmax_rules_are_unknown(self):
        for rule in ("max-entropy", "max-margin", "least-confidence", "info-density"):
            with pytest.raises(InputError, match="unknown rule"):
                Policy(rule=rule)


class TestPolicy:
    @pytest.mark.parametrize("field", ["batch_size", "target_subsample"])
    @pytest.mark.parametrize("value", [2.5, 1.5, "2", True, False])
    def test_sizes_must_be_integers(self, field, value):
        with pytest.raises(InputError, match="must be an integer"):
            Policy("itl", **{field: value})

    def test_numpy_integer_sizes_are_accepted(self, rng):
        policy = Policy("itl", batch_size=np.int64(2), target_subsample=np.int32(3))
        state = random_state(rng, 8)
        assert len(select_batch(state, [5, 6, 7], range(5), policy).indices) == 2


class TestSelectBatch:
    @pytest.mark.parametrize("policy", [
        Policy("random", 2), Policy("max-dist", 1), Policy("max-dist", 2, batch_mode="topb"),
        Policy("kmeans++", 1)])
    def test_candidate_outside_the_gram_is_refused(self, policy):
        with pytest.raises(InputError, match="index 999 is not in this Gram matrix"):
            select_batch(identity_state(10), [], [0, 999], policy)

    @pytest.mark.parametrize("rule", ["itl", "ctl", "cosine"])
    @pytest.mark.parametrize("batch_mode", ["bace", "topb"])
    def test_no_targets_refused_before_any_blocks(self, rng, monkeypatch, rule, batch_mode):
        def refuse(*args, **kwargs):
            raise AssertionError("_Blocks built for a batch that needs targets and has none")

        monkeypatch.setattr(selection, "_Blocks", refuse)
        with pytest.raises(InputError, match=f"rule '{rule}' needs a nonempty target set"):
            select_batch(random_state(rng, 6), [], range(6),
                         Policy(rule, 2, batch_mode=batch_mode))

    def test_batch_size_one_modes_agree(self, rng):
        state = random_state(rng, 8, unit_diag=True)
        targets = [5, 6, 7]
        for rule in ("itl", "ctl", "uncertainty", "cosine"):
            a = select_batch(state, targets, range(5),
                             Policy(rule=rule, batch_size=1, batch_mode="bace"))
            b = select_batch(state, targets, range(5),
                             Policy(rule=rule, batch_size=1, batch_mode="topb"))
            assert a.indices == b.indices

    def test_candidates_and_targets_from_generators(self, rng):
        state = random_state(rng, 10)
        for rule in ("itl", "max-dist", "random"):
            policy = Policy(rule=rule, batch_size=3)
            expected = select_batch(state, [8, 9], [7, 1, 4, 0, 5], policy)
            got = select_batch(state, (t for t in (8, 9)), (c for c in (7, 1, 4, 0, 5)),
                               policy)
            assert got == expected

    def test_identity_gram_ties_break_low(self):
        state = identity_state(6)
        result = select_batch(state, range(6), range(6),
                              Policy(rule="itl", batch_size=3, stabilize=False))
        assert result.indices == (0, 1, 2)

    def test_bace_objectives_non_increasing_for_itl(self, rng):
        for _ in range(10):
            state = random_state(rng, 8, unit_diag=True, noise_range=(0.3, 0.3))
            policy = Policy(rule="itl", batch_size=4, stabilize=False)
            result = select_batch(state, range(8), range(8), policy)
            steps = result.objectives
            assert all(a >= b - 1e-9 for a, b in zip(steps, steps[1:]))

    def test_deterministic_given_policy(self, rng):
        state = random_state(rng, 10, unit_diag=True)
        policy = Policy(rule="kmeans++", batch_size=4, seed=99)
        first = select_batch(state, [0], range(10), policy)
        second = select_batch(state, [0], range(10), policy)
        assert first == second
        random_policy = Policy(rule="random", batch_size=3, seed=5)
        assert select_batch(state, [0], range(10), random_policy) == \
            select_batch(state, [0], range(10), random_policy)

    def test_batch_too_large(self):
        state = identity_state(3)
        with pytest.raises(InputError):
            select_batch(state, [0], range(3), Policy(rule="itl", batch_size=4))

    def test_bace_diversifies_topb_does_not(self):
        # two near-duplicate high-value points: top-b takes both, bace avoids
        gram = np.array([
            [1.00, 0.99, 0.0, 0.60],
            [0.99, 1.00, 0.0, 0.60],
            [0.00, 0.00, 1.0, 0.55],
            [0.60, 0.60, 0.55, 1.0],
        ])
        state = PosteriorState.from_prior(KernelMatrix(gram, (0, 1, 2, 3)), 0.1)
        policy = Policy(rule="itl", batch_size=2, stabilize=False)
        top = select_batch(state, [3], range(3),
                           Policy(rule="itl", batch_size=2, batch_mode="topb",
                                  stabilize=False))
        bace = select_batch(state, [3], range(3), policy)
        assert set(top.indices) == {0, 1}
        assert set(bace.indices) == {0, 2}

    def test_random_rule_uniform_coverage(self):
        state = identity_state(6)
        seen = set()
        for seed in range(30):
            result = select_batch(state, [0], range(6),
                                  Policy(rule="random", batch_size=2, seed=seed))
            seen.update(result.indices)
        assert seen == set(range(6))


def dense_bace(state, targets, candidates, policy):
    """Reference BaCE: one-pick selections on a dense covariance that is
    downdated by cov - outer(col, col) / denom after every pick."""
    cov = state.cov.copy()
    remaining = sorted(candidates)
    single = replace(policy, batch_size=1)
    picks, objectives = [], []
    for _ in range(policy.batch_size):
        step = select_batch(replace(state, base=cov, factor=None), targets, remaining,
                            single)
        pick = step.indices[0]
        picks.append(pick)
        objectives.append(step.objectives[0])
        remaining.remove(pick)
        j = state.gram.position(pick)
        col = cov[:, j].copy()
        cov = cov - np.outer(col, col) / (max(cov[j, j], 0.0) + state.noise[j])
        np.fill_diagonal(cov, np.maximum(np.diag(cov), 0.0))
    return tuple(picks), objectives


class TestFactorBaCE:
    @pytest.mark.parametrize("rule", ["itl", "ctl", "uncertainty", "undirected-itl"])
    def test_matches_dense_downdates(self, rng, rule):
        for _ in range(30):
            n = int(rng.integers(10, 31))
            state = random_state(rng, n, hetero=bool(rng.integers(0, 2)))
            if rng.integers(0, 2):
                observed = rng.integers(0, n, size=5)
                state = condition_all(state, [Observation(int(i), 0.3) for i in observed])
            targets = sorted(int(t) for t in rng.choice(n, int(rng.integers(1, 9)),
                                                        replace=False))
            b = int(rng.integers(1, 9))
            candidates = sorted(int(c) for c in rng.choice(n, int(rng.integers(b, n + 1)),
                                                           replace=False))
            policy = Policy(rule=rule, batch_size=b, stabilize=bool(rng.integers(0, 2)))
            got = select_batch(state, targets, candidates, policy)
            picks, objectives = dense_bace(state, targets, candidates, policy)
            assert got.indices == picks
            np.testing.assert_allclose(got.objectives, objectives, rtol=0, atol=1e-12)


class TestHeteroscedasticBaCE:
    def test_itl_picks_equal_stepwise_greedy_batch_gain(self, rng):
        # BaCE greedily maximises I(f_A; y_B) only when each in-batch downdate
        # uses the state's noise rho^2(x), as the scores do
        for _ in range(40):
            n = int(rng.integers(8, 16))
            state = random_state(rng, n, hetero=True, noise_range=(0.05, 2.0))
            targets = sorted(int(t) for t in rng.choice(n, int(rng.integers(2, 6)),
                                                        replace=False))
            b = int(rng.integers(2, 5))
            got = select_batch(state, targets, range(n),
                               Policy(rule="itl", batch_size=b, stabilize=False))
            picks, gains, total = [], [], 0.0
            for _ in range(b):
                values = {x: batch_information_gain(state, targets, picks + [x])
                          for x in range(n) if x not in picks}
                best = max(values, key=values.get)  # the lowest index among ties
                picks.append(best)
                gains.append(values[best] - total)
                total = values[best]
            assert got.indices == tuple(picks)
            np.testing.assert_allclose(got.objectives, gains, rtol=1e-7)  # jittered logdets


class TestScoreOncePerBatch:
    @pytest.mark.parametrize("rule", ["cosine", "max-dist"])
    def test_matches_per_step_rescoring(self, rng, rule):
        for _ in range(25):
            n = int(rng.integers(8, 25))
            state = random_state(rng, n, hetero=bool(rng.integers(0, 2)))
            if rng.integers(0, 2):
                observed = rng.integers(0, n, size=4)
                state = condition_all(state, [Observation(int(i), 0.3) for i in observed])
            targets = sorted(int(t) for t in rng.choice(n, int(rng.integers(1, 6)),
                                                        replace=False))
            b = int(rng.integers(1, 7))
            candidates = sorted(int(c) for c in rng.choice(n, int(rng.integers(b, n + 1)),
                                                           replace=False))
            policy = Policy(rule=rule, batch_size=b)
            got = select_batch(state, targets, candidates, policy)
            assert (got.indices, got.objectives) == rescoring_bace_reference(
                state, targets, candidates, policy)

    def test_max_dist_batches_make_no_downdates(self, rng, monkeypatch):
        downdates = []
        update = posterior.bace_update

        def counted(blocks, pick):
            downdates.append(pick)
            return update(blocks, pick)

        monkeypatch.setattr(posterior, "bace_update", counted)
        select_batch(random_state(rng, 9), [8], range(8), Policy(rule="itl", batch_size=3))
        assert len(downdates) == 2  # the counter sees greedy's downdates
        for _ in range(25):
            n = int(rng.integers(8, 25))
            state = random_state(rng, n, hetero=bool(rng.integers(0, 2)))
            if rng.integers(0, 2):
                observed = rng.integers(0, n, size=int(rng.integers(1, 6)))
                state = condition_all(state, [Observation(int(i), 0.3) for i in observed])
            b = int(rng.integers(1, 7))
            candidates = sorted(int(c) for c in rng.choice(n, int(rng.integers(b, n + 1)),
                                                           replace=False))
            downdates.clear()
            policy = Policy(rule="max-dist", batch_size=b)
            got = select_batch(state, [], candidates, policy)
            assert (got.indices, got.objectives) == rescoring_bace_reference(
                state, [], candidates, policy)
            topb = select_batch(state, [], candidates, replace(policy, batch_mode="topb"))
            scores = max_dist_scores_reference(state, candidates,
                                               [obs.index for obs in state.history])
            order = np.lexsort((candidates, -scores))[:b]
            assert topb.indices == tuple(candidates[i] for i in order)
            assert topb.objectives == tuple(scores[order])
            assert downdates == []

    def test_cosine_scored_once_per_batch(self, rng, monkeypatch):
        calls = []
        scorer = selection._prior_cosine_scores

        def counted(blocks):
            calls.append(len(blocks.candidates))
            return scorer(blocks)

        monkeypatch.setattr(selection, "_prior_cosine_scores", counted)
        state = random_state(rng, 12, unit_diag=True)
        result = select_batch(state, [10, 11], range(10), Policy(rule="cosine", batch_size=5))
        assert len(result.indices) == 5
        assert calls == [10]


class TestPickStreams:
    def test_distances_lowered_only_before_a_next_pick(self, rng, monkeypatch):
        calls = []
        distances = selection._min_sq_distances

        def counted(state, candidates, selected):
            calls.append(len(selected))
            return distances(state, candidates, selected)

        monkeypatch.setattr(selection, "_min_sq_distances", counted)
        state = condition_all(random_state(rng, 20),
                              [Observation(i, 0.3) for i in (3, 11, 17)])
        for b in (1, 2, 5):
            # one call from the history, then one per pick that another pick follows
            for policy, expected in [(Policy(rule="max-dist", batch_size=b), b),
                                     (Policy(rule="kmeans++", batch_size=b, seed=b), b),
                                     (Policy(rule="kmeans++", batch_size=b, seed=b,
                                             batch_mode="topb"), b),
                                     (Policy(rule="max-dist", batch_size=b,
                                             batch_mode="topb"), 1)]:
                calls.clear()
                assert len(select_batch(state, [], range(20), policy).indices) == b
                assert calls == [3] + [1] * (expected - 1)


class TestKMeansPP:
    def test_matches_recomputing_reference(self, rng):
        # with and without a history; every fourth instance has all points at
        # one location, so every distance is 0 and the draw is uniform
        for trial in range(60):
            n = int(rng.integers(6, 25))
            state = random_state(rng, n, unit_diag=bool(trial % 2))
            if trial % 4 == 3:
                state = replace(state, gram=KernelMatrix(np.ones((n, n)), state.gram.ids),
                                base=np.ones((n, n)))
            if trial % 3:
                observed = rng.integers(0, n, size=int(rng.integers(1, 5)))
                state = condition_all(state, [Observation(int(i), 0.0) for i in observed])
            b = int(rng.integers(1, 7))
            candidates = sorted(int(c) for c in rng.choice(n, int(rng.integers(b, n + 1)),
                                                           replace=False))
            seed = int(rng.integers(0, 2 ** 31))
            got = select_batch(state, [], candidates,
                               Policy(rule="kmeans++", batch_size=b, seed=seed))
            assert (got.indices, got.objectives) == kmeanspp_reference(
                state, candidates, b, np.random.default_rng(seed))


class TestBruteForceBatch:
    def test_single_pick_matches_itl_argmax(self, rng):
        state = random_state(rng, 7, unit_diag=True, noise_range=(0.4, 0.4))
        targets = [4, 5, 6]
        best = brute_force_batch(state, targets, range(4), 1)
        scores = [score_itl(state, targets, x) for x in range(4)]
        assert best.indices == (int(np.argmax(scores)),)

    def test_full_budget_takes_everything(self, rng):
        state = random_state(rng, 5, unit_diag=True)
        result = brute_force_batch(state, [3, 4], range(3), 3)
        assert result.indices == (0, 1, 2)

    def test_repeated_candidate_is_refused(self):
        points = np.array([[0.0], [0.05], [3.0], [0.1]])
        state = PosteriorState.from_prior(gram(KernelSpec("gaussian", 0.5), range(4), points),
                                          0.01)
        with pytest.raises(InputError, match="candidate list contains duplicates"):
            brute_force_batch(state, [3], [0, 0, 2], 2)

    def test_combinatorial_limit(self):
        state = identity_state(60)
        with pytest.raises(InputError):
            brute_force_batch(state, [0], range(60), 6)

    def test_greedy_guarantee_on_random_instances(self, rng):
        factor = 1 - 1 / math.e
        ratios = []
        for _ in range(10):
            gram = random_corr_gram(rng, 12, floor=0.15)
            noise = 0.25
            state = PosteriorState.from_prior(gram, noise)
            targets = list(range(12))
            candidates = list(range(8))
            policy = Policy(rule="itl", batch_size=3, stabilize=False)
            greedy = select_batch(state, targets, candidates, policy)
            value_greedy = batch_information_gain(state, targets, greedy.indices)
            best = brute_force_batch(state, targets, candidates, 3)
            value_best = batch_information_gain(state, targets, best.indices)
            assert value_greedy >= factor * value_best - 1e-9
            assert value_greedy <= value_best + 1e-9
            ratios.append(value_greedy / value_best)
        assert min(ratios) > 0.9  # far above the worst-case factor in practice


class TestSubsampleTargets:
    def test_full_draw_returns_set(self, rng):
        assert subsample_targets([4, 2, 9], 3, rng) == (2, 4, 9)

    def test_singleton(self, rng):
        assert subsample_targets([7], 1, rng) == (7,)

    def test_oversample_rejected(self, rng):
        with pytest.raises(InputError):
            subsample_targets([1, 2], 3, rng)

    def test_uniform_frequencies(self, rng):
        counts = np.zeros(6)
        for _ in range(3000):
            for idx in subsample_targets(range(6), 2, rng):
                counts[idx] += 1
        np.testing.assert_allclose(counts / 3000, 1 / 3, atol=0.05)


class TestRunLoop:
    def _setup(self, rng, n=10):
        state = random_state(rng, n, unit_diag=True, noise_range=(0.5, 0.5))
        truth = rng.standard_normal(n)  # ids are positions here
        noise_rng = np.random.default_rng(1)

        def oracle(index):
            return truth[index] + 0.5 * float(noise_rng.standard_normal())

        return state, truth, oracle

    def test_zero_rounds_logs_prior_only(self, rng):
        state, truth, oracle = self._setup(rng)
        record = run_loop(state, [8, 9], range(8), Policy(rule="itl"), oracle, 0)
        assert len(record.rounds) == 1
        assert record.rounds[0].round == 0
        assert record.rounds[0].chosen == ()
        assert record.rounds[0].mean_variance == pytest.approx(1.0)

    def test_round_metrics_and_retrieval(self, rng):
        state, truth, oracle = self._setup(rng)
        policy = Policy(rule="itl", batch_size=2, seed=3)
        record = run_loop(state, [8, 9], range(8), policy, oracle, 4,
                          relevant=[0, 1, 2, 3], truth=truth)
        assert [e.round for e in record.rounds] == [0, 1, 2, 3, 4]
        for entry in record.rounds[1:]:
            assert len(entry.chosen) == 2
            assert entry.mean_variance <= 1.0 + 1e-12
            assert entry.rmse is not None
        last = record.rounds[-1]
        assert last.distinct_relevant <= 4
        assert last.wall_time == 0.0

    def test_seeded_determinism(self, rng):
        state, truth, _ = self._setup(rng)

        def fresh_oracle(seed):
            local = np.random.default_rng(seed)
            return lambda i: truth[i] + float(local.standard_normal())

        policy = Policy(rule="kmeans++", batch_size=2, seed=11)
        a = run_loop(state, [8, 9], range(8), policy, fresh_oracle(2), 5)
        b = run_loop(state, [8, 9], range(8), policy, fresh_oracle(2), 5)
        assert a.rounds == b.rounds

    def test_missing_label_aborts(self, rng):
        state, truth, _ = self._setup(rng)

        def broken(index):
            raise KeyError(index)

        with pytest.raises(DataError):
            run_loop(state, [9], range(8), Policy(rule="uncertainty"), broken, 1)

    def test_candidate_subsampling(self, rng):
        state, truth, oracle = self._setup(rng)
        policy = Policy(rule="uncertainty", batch_size=1, seed=0)
        record = run_loop(state, [9], range(8), policy, oracle, 3, candidate_size=3)
        assert all(len(e.chosen) == 1 for e in record.rounds[1:])

    def test_target_subsampling(self, rng):
        state, truth, oracle = self._setup(rng)
        policy = Policy(rule="itl", batch_size=1, seed=0, target_subsample=2)
        record = run_loop(state, [6, 7, 8, 9], range(6), policy, oracle, 2)
        assert len(record.rounds) == 3

    @pytest.mark.parametrize("rule", ["itl", "uncertainty"])
    def test_empty_target_set_is_refused(self, rng, rule):
        # the round-0 metrics used to take the max of an empty variance vector
        state, truth, oracle = self._setup(rng)
        with pytest.raises(InputError, match="target set must be nonempty"):
            run_loop(state, [], range(10), Policy(rule), oracle, 2)

    @pytest.mark.parametrize("rule", ["itl", "random"])
    def test_rmse_reads_the_truth_at_each_target_position(self, rng, rule):
        # ids that are not their positions: an id-keyed reference must give the same rmse
        ids = [30, 10, 20, 0, 50, 40, 70, 60]
        state = PosteriorState.from_prior(
            gram(KernelSpec("gaussian", 0.5), ids, rng.uniform(0, 1, (8, 2))),
            rng.uniform(0.05, 0.5, 8))
        truth = sample_gp_truth(state.gram, 1)
        by_id = dict(zip(ids, truth.tolist()))
        targets, pool = [70, 0, 30], [10, 20, 50, 40, 60]
        record = run_loop(state, targets, pool, Policy(rule, batch_size=2, seed=5),
                          labeled_oracle(state, truth, 9), 3, truth=truth)
        oracle, observations = labeled_oracle(state, truth, 9), []
        for entry in record.rounds:
            observations += [Observation(i, oracle(i)) for i in entry.chosen]
            mean = (batch_posterior_oracle(state, observations)[0] if observations
                    else np.zeros(8))
            residual = [mean[ids.index(t)] - by_id[t] for t in targets]
            assert entry.rmse == pytest.approx(np.sqrt(np.mean(np.square(residual))),
                                               rel=1e-9)

    @pytest.mark.parametrize("truth", [np.zeros(9), np.zeros(11), {i: 0.0 for i in range(10)}],
                             ids=["short", "long", "dict"])
    def test_truth_must_be_one_value_per_position(self, rng, truth):
        state, _, oracle = self._setup(rng)
        with pytest.raises(InputError, match="truth needs 10 finite values"):
            run_loop(state, [9], range(8), Policy("uncertainty"), oracle, 1, truth=truth)


class TestRuleRelations:
    def test_itl_matches_uncertainty_when_undirected(self, rng):
        for _ in range(5):
            state = random_state(rng, 15, unit_diag=True, noise_range=(0.4, 0.4))
            targets = list(range(15))
            itl_state, unc_state = state, state
            for _ in range(20):
                itl_pick = select_batch(
                    itl_state, targets, targets,
                    Policy(rule="itl", stabilize=False)).indices[0]
                unc_pick = select_batch(
                    unc_state, targets, targets,
                    Policy(rule="uncertainty")).indices[0]
                assert itl_pick == unc_pick
                obs = Observation(itl_pick, 0.0)
                itl_state = condition(itl_state, obs)
                unc_state = condition(unc_state, obs)

    def test_itl_dominates_mean_singleton_gain(self, rng):
        for _ in range(15):
            state = random_state(rng, 10, hetero=True, noise_range=(0.05, 1.0))
            targets = [int(i) for i in rng.choice(10, size=4, replace=False)]
            for x in range(10):
                full = score_itl(state, targets, x)
                singles = np.mean([
                    information_gain(state, (t,), x) for t in targets])
                assert full >= singles - 1e-8

    @pytest.mark.parametrize("batch_size", [1, 5])
    @pytest.mark.parametrize("policy", [
        Policy(rule="itl"), Policy(rule="itl", stabilize=False),
        Policy(rule="undirected-itl"), Policy(rule="uncertainty")])
    def test_picks_ignore_duplicated_sample_points(self, policy, batch_size):
        # 60 sample and 6 target unit vectors in 16 dimensions; the second
        # domain adds a copy of every sample point under a higher id. A copy
        # adds no information, so both domains pick the same feature rows:
        # ties go to the original's lower id, and in a BaCE batch the copy of
        # a pick has lost the pick's gain
        rng = np.random.default_rng(0)
        features = rng.standard_normal((66, 16))
        features /= np.linalg.norm(features, axis=1, keepdims=True)
        rows = np.r_[np.arange(66), np.arange(60)]  # the feature row of each id
        policy = replace(policy, batch_size=batch_size)
        picks = []
        for n in (66, 126):
            prior = PosteriorState.from_prior(
                gram(KernelSpec("embedding"), range(n), features[rows[:n]]), 0.25)
            sample = [i for i in range(n) if not 60 <= i < 66]
            record = run_loop(prior, range(60, 66), sample, policy,
                              lambda index: float(features[rows[index]].sum()), 8)
            picks.append([rows[list(entry.chosen)].tolist() for entry in record.rounds])
        assert picks[0] == picks[1]

    @staticmethod
    def uncorrelated_candidate_changes(policy):
        """On how many of 50 instances adding a candidate uncorrelated with every
        other point changes a pick made while the best other candidate scores
        above zero. Each instance has 24 sample and 6 target unit vectors in 8
        dimensions, conditioned on 2 observations; the new candidate's feature
        is a ninth dimension, so its covariances are exactly 0, and it comes
        last, so it loses ties."""
        changed = 0
        for seed in range(50):
            rng = np.random.default_rng(seed)
            features = np.zeros((31, 9))
            features[:30, :8] = rng.standard_normal((30, 8))
            features[:30] /= np.linalg.norm(features[:30], axis=1, keepdims=True)
            features[30, 8] = 1.0
            observed = [Observation(int(i), float(rng.standard_normal()))
                        for i in rng.choice(24, 2)]
            without, with_ = (
                select_batch(condition_all(PosteriorState.from_prior(
                    gram(KernelSpec("embedding"), range(n), features[:n]), 0.25), observed),
                    range(24, 30), [*range(24), *range(30, n)], policy)
                for n in (30, 31))
            for a, b, score in zip(without.indices, with_.indices, without.objectives):
                if not score > 0:
                    break
                if a != b:
                    changed += 1
                    break
        return changed

    @pytest.mark.parametrize("batch_size", [1, 4])
    @pytest.mark.parametrize("policy", [
        Policy(rule="itl"), Policy(rule="itl", stabilize=False), Policy(rule="ctl")])
    def test_uncorrelated_candidate_changes_no_pick(self, policy, batch_size):
        policy = replace(policy, batch_size=batch_size)
        assert self.uncorrelated_candidate_changes(policy) == 0

    @pytest.mark.parametrize("batch_size", [1, 4])
    def test_undirected_itl_breaks_the_uncorrelated_relation(self, batch_size):
        # ITL without the target twin scores the new candidate by its own
        # variance, the prior's 1, so the relation catches it: it applies only
        # to rules directed at the targets
        policy = Policy(rule="undirected-itl", batch_size=batch_size)
        assert self.uncorrelated_candidate_changes(policy) > 0
