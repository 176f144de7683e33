"""End-to-end acceptance suite.

Each test prints one ``[ACCEPTANCE] criterion-k: PASS/FAIL`` line so the
suite doubles as a checklist; tolerances are pinned inline.

Run with ``pytest tests/test_acceptance.py -v -s``.
"""

import json
import math
import time

import numpy as np

from transduct import (
    KernelMatrix,
    NoiseModel,
    Observation,
    Policy,
    PosteriorState,
    batch_information_gain,
    check_gamma_bound,
    check_variance_bound,
    check_within_S_bound,
    condition,
    condition_all,
    greedy_itl_trajectory,
    information_gain,
    markov_boundary,
    select_batch,
    subsample_targets,
    verify_markov_boundary,
)
from transduct.cli import _runs, _tag, main
from transduct.config import parse_config
from transduct.kernels import KernelSpec, Point, gram
from conftest import batch_posterior_oracle, random_corr_gram, random_state


def report(label: str, ok: bool, detail: str = "") -> None:
    status = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"\n[ACCEPTANCE] {label}: {status}{suffix}")
    assert ok, f"{label} failed: {detail}"


class TestCriterion1ForwardBackward:
    def test_forward_backward_consistency(self):
        rng = np.random.default_rng(101)
        start = time.perf_counter()
        worst = 0.0
        for _ in range(200):
            n = int(rng.integers(4, 65))
            state = random_state(rng, n, hetero=True, noise_range=(0.01, 1.0))
            n_targets = int(rng.integers(1, min(17, n + 1)))
            targets = tuple(int(i) for i in rng.choice(n, n_targets, replace=False))
            x = int(rng.integers(0, n))
            fwd = batch_information_gain(state, targets, [x])
            bwd = information_gain(state, targets, x)
            worst = max(worst, abs(fwd - bwd))
        elapsed = time.perf_counter() - start
        report("criterion-1 forward/backward agreement",
               worst <= 1e-8 and elapsed < 10.0,
               f"max |fwd-bwd| = {worst:.3g}, {elapsed:.2f}s")


class TestCriterion2ConditioningOracle:
    def test_rank_one_equals_batch_recompute(self):
        rng = np.random.default_rng(202)
        start = time.perf_counter()
        worst = 0.0
        for _ in range(100):
            n = int(rng.integers(6, 33))
            state = random_state(rng, n, hetero=True, noise_range=(0.05, 1.0))
            count = int(rng.integers(1, 31))
            observations = [
                Observation(int(rng.integers(0, n)), float(rng.standard_normal()),
                            float(rng.uniform(0.05, 1.0)))
                for _ in range(count)]
            mean_oracle, cov_oracle = batch_posterior_oracle(state, observations)
            for _ in range(3):
                order = rng.permutation(count)
                got = condition_all(state, [observations[i] for i in order])
                worst = max(worst,
                            float(np.max(np.abs(got.mean - mean_oracle))),
                            float(np.max(np.abs(got.cov - cov_oracle))))
        elapsed = time.perf_counter() - start
        report("criterion-2 conditioning oracle",
               worst <= 1e-8 and elapsed < 30.0,
               f"max deviation = {worst:.3g}, {elapsed:.2f}s")


class TestCriterion3UndirectedReduction:
    def test_itl_sequence_equals_uncertainty_sampling(self):
        rng = np.random.default_rng(303)
        mismatches = 0
        for _ in range(50):
            n = int(rng.integers(12, 25))
            state = random_state(rng, n, unit_diag=True,
                                 noise_range=(0.2, 0.8))
            everything = list(range(n))
            itl_policy = Policy(rule="itl", stabilize=False)
            unc_policy = Policy(rule="uncertainty")
            a_state = b_state = state
            for _ in range(100):
                itl_pick = select_batch(a_state, everything, everything,
                                        itl_policy).indices[0]
                unc_pick = select_batch(b_state, everything, everything,
                                        unc_policy).indices[0]
                if itl_pick != unc_pick:
                    mismatches += 1
                    break
                obs = Observation(itl_pick, float(rng.standard_normal()),
                                  state.noise.variance_at(itl_pick))
                a_state = condition(a_state, obs)
                b_state = condition(b_state, obs)
        report("criterion-3 undirected reduction",
               mismatches == 0, f"{mismatches} mismatched instances of 50")


class TestCriterion4GreedyBatchGuarantee:
    def test_bace_within_factor_of_optimum(self):
        rng = np.random.default_rng(404)
        start = time.perf_counter()
        factor = 1 - 1 / math.e
        guarantee_ok = True
        bace_beats_topb = 0
        for _ in range(50):
            gram_m = random_corr_gram(rng, 12, floor=0.1)
            rho2 = float(rng.uniform(0.2, 1.0))
            state = PosteriorState.from_prior(gram_m,
                                              NoiseModel.homoscedastic(rho2))
            targets = list(range(12))       # S = first 8 points, inside A
            candidates = list(range(8))
            bace = select_batch(state, targets, candidates,
                                Policy(rule="itl", batch_size=3, stabilize=False))
            topb = select_batch(state, targets, candidates,
                                Policy(rule="itl", batch_size=3, batch_mode="topb",
                                       stabilize=False))
            value_bace = batch_information_gain(state, targets, bace.indices)
            value_topb = batch_information_gain(state, targets, topb.indices)
            from transduct import brute_force_batch

            best = brute_force_batch(state, targets, candidates, 3)
            value_best = batch_information_gain(state, targets, best.indices)
            if value_bace < factor * value_best - 1e-9:
                guarantee_ok = False
            bace_beats_topb += value_bace >= value_topb - 1e-9
        elapsed = time.perf_counter() - start
        report("criterion-4 greedy batch guarantee",
               guarantee_ok and bace_beats_topb >= 45 and elapsed < 120.0,
               f"bace>=topb on {bace_beats_topb}/50, {elapsed:.2f}s")


class TestCriterion5TheoremAsTest:
    def test_gamma_step_bound(self):
        rng = np.random.default_rng(505)
        all_pass = True
        exact_everywhere = True
        for _ in range(50):
            n = int(rng.integers(4, 8))
            prior = PosteriorState.from_prior(
                random_corr_gram(rng, n, floor=0.1),
                NoiseModel.homoscedastic(float(rng.uniform(0.2, 1.0))))
            traj = greedy_itl_trajectory(prior, range(n), range(n), 6)
            rep = check_gamma_bound(traj)
            all_pass &= rep.passed is True
            exact_everywhere &= all(row["capacity_exact"] for row in rep.rows)
        report("criterion-5a step-gain bound", all_pass and exact_everywhere,
               "brute-force capacities on all 50 instances")

    def test_within_sample_bound_on_grids(self):
        rng = np.random.default_rng(515)
        all_pass = True
        for trial in range(3):
            spacing = float(rng.uniform(0.3, 0.5))
            points = [Point(i, coords=[spacing * i]) for i in range(12)]
            k = gram(KernelSpec("gaussian", lengthscale=0.5), points)
            prior = PosteriorState.from_prior(k, NoiseModel.homoscedastic(0.3))
            traj = greedy_itl_trajectory(prior, range(12), range(12), 200)
            rep = check_within_S_bound(traj)
            all_pass &= rep.passed is True
        report("criterion-5b within-sample variance bound", all_pass,
               "3 Gaussian grids, 200 rounds each")


class TestCriterion6ExplicitVarianceBound:
    def test_extrapolation_grid(self):
        points = [Point(i, coords=[2.0 * i]) for i in range(3)]
        points += [Point(3, coords=[4.6]), Point(4, coords=[5.2])]
        k = gram(KernelSpec("gaussian", lengthscale=0.6), points)
        prior = PosteriorState.from_prior(k, NoiseModel.homoscedastic(0.25))
        traj = greedy_itl_trajectory(prior, range(5), range(3), 500)
        rep = check_variance_bound(traj, 0.05)
        ratio = rep.rows[-1]["max_gap"] / rep.rows[0]["max_gap"]
        report("criterion-6 explicit variance bound",
               rep.passed is True and ratio <= 0.25,
               f"{rep.detail}; gap ratio at n=500: {ratio:.4f}")


class TestCriterion7MarkovBoundaryValidity:
    def test_fifty_random_instances(self):
        rng = np.random.default_rng(707)
        valid = 0
        for trial in range(50):
            n = int(rng.integers(2, 4))        # sample-space size
            extra = trial % 3                   # 0: x in S, 1: linked, 2: isolated
            size = n + (1 if extra else 0)
            values = np.eye(size)
            values[:n, :n] = random_corr_gram(rng, n, floor=0.6).values
            if extra == 1:
                link = float(rng.uniform(0.2, 0.6))
                values[0, n] = values[n, 0] = link
            gram_m = KernelMatrix(values, tuple(range(size)))
            rho2 = float(rng.uniform(0.3, 1.0))
            state = PosteriorState.from_prior(gram_m,
                                              NoiseModel.homoscedastic(rho2))
            epsilon = float(rng.uniform(0.4, 0.8))
            x = int(rng.integers(0, n)) if extra == 0 else n
            boundary = markov_boundary(state, range(n), x, epsilon)
            ok = verify_markov_boundary(state, boundary, x)
            ok &= len(boundary.members) <= boundary.size_bound
            valid += ok
        report("criterion-7 markov boundary validity", valid == 50,
               f"{valid}/50 instances verified with |B| <= b_eps")


class TestCriterion8EquivalenceTriad:
    def test_itl_ctl_cosine_agree(self):
        rng = np.random.default_rng(808)
        agreements = 0
        for _ in range(50):
            dim = int(rng.integers(3, 8))
            emb = np.abs(rng.standard_normal((21, dim)))  # nonneg correlations
            emb /= np.linalg.norm(emb, axis=1, keepdims=True)
            points = [Point(i, embedding=emb[i]) for i in range(21)]
            k = gram(KernelSpec("embedding"), points)   # Sigma = I
            rho2 = float(rng.uniform(0.1, 1.0))
            state = PosteriorState.from_prior(k, NoiseModel.homoscedastic(rho2))
            target = [20]
            candidates = list(range(20))
            picks = {
                rule: select_batch(state, target, candidates,
                                   Policy(rule=rule, stabilize=False)).indices[0]
                for rule in ("itl", "ctl", "cosine")}
            agreements += len(set(picks.values())) == 1
        report("criterion-8 equivalence triad", agreements == 50,
               f"{agreements}/50 instances agree")


class TestCriterion9SubsamplingConcentration:
    def test_chernoff_failure_rate(self):
        targets = list(range(10))
        m, rounds, reps = 3, 2000, 200
        x = 4
        nu = 1.0 - (1.0 - 1.0 / len(targets)) ** m
        need = rounds * nu / 2.0
        allowance = math.exp(-rounds * nu / 8.0) + 0.01
        failures = 0
        rng = np.random.default_rng(909)
        for _ in range(reps):
            hits = 0
            for _ in range(rounds):
                if x in subsample_targets(targets, m, rng):
                    hits += 1
            failures += hits < need
        rate = failures / reps
        report("criterion-9 subsampling concentration", rate <= allowance,
               f"failure rate {rate:.4f} <= {allowance:.4f}")


class TestCriterion10SyntheticBenchmark:
    def test_itl_beats_random_and_cosine_retrieval(self):
        start = time.perf_counter()
        payload = {
            "domain": {"source": "synthetic",
                       "kernel": {"family": "gaussian", "lengthscale": 0.2},
                       "layout": {"kind": "uniform", "dim": 2, "s_count": 400,
                                  "a_count": 20, "box": [[0, 1], [0, 1]],
                                  "a_box": [[0.7, 1.0], [0.7, 1.0]]}},
            "policies": ["itl", "random", "cosine"],
            "rounds": 50,
            "seeds": list(range(10)),
        }
        config = parse_config(payload, preset="cifar-like")
        records = _runs(config, jobs=1, timings=False)  # the records `transduct run` writes
        variance_wins = 0
        retrieval_wins = 0
        for seed in range(10):
            finals = {name: records[(_tag(name, i), seed)].rounds[-1]
                      for i, (name, _) in enumerate(config.policies)}
            variance_wins += (finals["itl"].mean_variance
                              < finals["random"].mean_variance)
            retrieval_wins += (finals["itl"].distinct_relevant
                               > finals["cosine"].distinct_relevant)
        elapsed = time.perf_counter() - start
        report("criterion-10 synthetic benchmark",
               variance_wins >= 9 and retrieval_wins >= 7 and elapsed < 600.0,
               f"variance wins {variance_wins}/10, retrieval wins "
               f"{retrieval_wins}/10, {elapsed:.1f}s")


class TestCriterion11Determinism:
    def test_cmd_run_byte_identical(self, tmp_path):
        payload = {
            "domain": {"source": "synthetic",
                       "kernel": {"family": "gaussian", "lengthscale": 0.3},
                       "layout": {"kind": "uniform", "dim": 2, "s_count": 60,
                                  "a_count": 10, "a_box": [[0.5, 1], [0.5, 1]]}},
            "policies": ["itl", "ctl", "random", "kmeans++"],
            "rounds": 6,
            "seeds": [0, 1, 2],
            "hyper": {"b": 3, "m": 5, "rho": 1.0, "k": 40},
        }
        cfg = tmp_path / "c.json"
        cfg.write_text(json.dumps(payload))
        outputs = []
        for name in ("first", "second"):
            out = tmp_path / name
            assert main(["run", "--config", str(cfg), "--out", str(out)]) == 0
            blob = {}
            for file in sorted(out.rglob("*")):
                if file.is_file():
                    blob[str(file.relative_to(out))] = file.read_bytes()
            outputs.append(blob)
        identical = outputs[0] == outputs[1]
        report("criterion-11 determinism", identical,
               f"{len(outputs[0])} files byte-compared")
