"""Shared instance generators and scalar references for the test suite."""

import functools
import math
from dataclasses import replace
from itertools import combinations, combinations_with_replacement

import numpy as np
import pytest
from scipy.spatial.distance import cdist

from transduct import (BudgetError, KernelMatrix, Observation, Policy,
                       PosteriorState, batch_information_gain, condition, information_gain,
                       select_batch)
from transduct.kernels import JITTER_SCALE, _matern_of_distance
from transduct.posterior import _Blocks, _itl_scores, bace_update, chol_logdet
from transduct.selection import (_DEGENERATE_VAR, CTL, ITL, MAX_DIST, UNCERTAINTY,
                                 UNDIRECTED_ITL, _ctl_scores, _min_sq_distances,
                                 _score_candidates)

#: rules whose scores change when the conditional covariance is downdated
_POSTERIOR_RULES = frozenset((ITL, CTL, UNCERTAINTY, UNDIRECTED_ITL))


def random_corr_gram(rng, n, floor=0.0, ids=None):
    """Random unit-diagonal PSD Gram; floor > 0 lower-bounds the spectrum.

    The diagonal is pinned to exactly 1.0, as real correlation kernels have
    (stationary kernels evaluate exp(0) at zero distance); normalization
    round-off would otherwise leave 1 +/- ulp entries that create spurious
    near-ties between variance-ranked rules.
    """
    w = rng.standard_normal((n, n + 4))
    c = w @ w.T
    d = np.sqrt(np.diag(c))
    c = c / np.outer(d, d)
    k = (1.0 - floor) * c + floor * np.eye(n)
    k = (k + k.T) / 2.0
    np.fill_diagonal(k, 1.0)
    return KernelMatrix(k, tuple(ids) if ids is not None else tuple(range(n)))


def random_psd_gram(rng, n, scale_spread=True):
    """Random PSD Gram with varied diagonal scales (not unit-normalized)."""
    w = rng.standard_normal((n, 2 * n))
    if scale_spread:
        w *= rng.uniform(0.3, 1.5, size=(n, 1))
    k = w @ w.T / (2 * n)
    k = (k + k.T) / 2.0
    return KernelMatrix(k, tuple(range(n)))


def random_state(rng, n, *, hetero=False, noise_range=(0.01, 1.0),
                 unit_diag=False, floor=0.0):
    """A prior posterior state over a random Gram with random noise."""
    gram = random_corr_gram(rng, n, floor=floor) if unit_diag else random_psd_gram(rng, n)
    if hetero:
        noise = rng.uniform(noise_range[0], noise_range[1], size=n)
    else:
        noise = float(rng.uniform(*noise_range))
    return PosteriorState.from_prior(gram, noise)


def target_variances(state, indices):
    """Variances at ``indices``, clamped at zero, read off the dense
    covariance's diagonal rather than through ``_Blocks``."""
    return np.maximum(np.diag(state.cov)[state.gram.positions(indices)], 0.0)


def batch_posterior_oracle(state, observations):
    """From-scratch batch conditioning of the prior, each observation at the
    noise the state holds at its index: the independent oracle for the
    rank-one update path."""
    prior = state.gram.values
    pos = [state.gram.position(obs.index) for obs in observations]
    y = np.array([obs.value for obs in observations])
    noise = np.diag(state.noise[pos])
    k_dx = prior[:, pos]
    k_xx = prior[np.ix_(pos, pos)] + noise
    solve = np.linalg.solve(k_xx, np.eye(len(pos)))
    mean = k_dx @ solve @ y
    cov = prior - k_dx @ solve @ k_dx.T
    return mean, cov


def batch_gain_reference(state, targets, batch, *, stabilize=False):
    """I(f_A; y_B | D) from one LU solve on the noise-inflated batch block:
    the form ``batch_information_gain`` had before it downdated the target
    block one position of B at a time."""
    if len(batch) == 0:
        return 0.0
    pa = state.gram.positions(targets)
    block = state.cov[np.ix_(pa, pa)]
    if stabilize:
        block = block + np.diag(state.noise[pa])
    pb = state.gram.positions(batch)
    c_bb = state.cov[np.ix_(pb, pb)] + np.diag(state.noise[pb])
    c_ab = state.cov[np.ix_(pa, pb)]
    downdated = block - c_ab @ np.linalg.solve(c_bb, c_ab.T)
    gain = 0.5 * (chol_logdet(block) - chol_logdet(downdated))
    return max(gain, 0.0)


def best_grouped_gain_reference(cov, noise, size):
    """Largest grouped multiset gain of exactly ``size`` picks, scored one at
    a time with one ``slogdet`` on its distinct-point block: the scalar
    reference for the walk over observation counts."""
    best = 0.0
    for combo in combinations_with_replacement(range(len(noise)), size):
        counts = np.bincount(combo, minlength=len(noise))
        active = counts > 0
        root = np.sqrt(counts[active] / noise[active])
        sub = cov[np.ix_(active, active)] * np.outer(root, root)
        sub = sub + np.eye(sub.shape[0])
        best = max(best, 0.5 * float(np.linalg.slogdet(sub)[1]))
    return best


def capacity_greedy_reference(state, candidates, budget):
    """Greedy multiset capacity on a dense copy of the candidate block,
    downdated by an explicit outer product after each undirected-ITL pick."""
    pos = state.gram.positions(candidates)
    noise = state.noise[pos]
    cov = state.cov[np.ix_(pos, pos)].copy()
    total = 0.0
    for _ in range(budget):
        var = np.maximum(np.diag(cov), 0.0)
        gains = 0.5 * np.log1p(var / noise)
        best = int(np.argmax(gains))
        if not np.isfinite(gains[best]) or gains[best] <= 0.0:
            break
        total += float(gains[best])
        col = cov[:, best].copy()
        cov -= np.outer(col, col) / (var[best] + noise[best])
    return total


def capacity_upper_bound_reference(variances, noise, budget):
    """Water-filling bound by a loop over the active count: the form
    ``capacity_upper_bound`` had before it read every level from one cumsum."""
    rates = np.sort(np.maximum(variances, 0.0) / noise)[::-1]
    rates = rates[rates > 0]
    if rates.size == 0 or budget <= 0:
        return 0.0
    inv = 1.0 / rates
    best = 0.0
    prefix = 0.0
    for active in range(1, rates.size + 1):
        prefix += inv[active - 1]
        level = (budget + prefix) / active
        if level < inv[active - 1]:
            break
        best = 0.5 * float(np.sum(np.log(level * rates[:active])))
    return best


def capacity_multiset_reference(state, candidates, budget):
    """Exhaustive multiset capacity, one Cholesky log-determinant of
    K_XX + P_X per multiset X, a repeated point as repeated rows."""
    pos = state.gram.positions(candidates)
    noise = state.noise[pos]
    cov = state.cov[np.ix_(pos, pos)]
    best = 0.0
    for size in range(1, budget + 1):
        for combo in combinations_with_replacement(range(len(candidates)), size):
            sel = list(combo)
            gain = 0.5 * (chol_logdet(cov[np.ix_(sel, sel)] + np.diag(noise[sel]))
                          - float(np.sum(np.log(noise[sel]))))
            best = max(best, gain)
    return best


def markov_boundary_reference(state, space, x, floor, epsilon, cap):
    """Markov-boundary members and achieved variance: undirected greedy
    picks on a dense copy of the prior block, each pick certified by
    conditioning the state on it."""
    pos = state.gram.positions(space)
    px = state.gram.position(x)
    noise = state.noise[pos]
    sel_cov = state.gram.values[np.ix_(pos, pos)].copy()
    members = []
    achieved = max(float(state.cov[px, px]), 0.0)
    while achieved > floor + epsilon:
        if len(members) >= cap:
            raise BudgetError("reference boundary exceeded its cap")
        var = np.maximum(np.diag(sel_cov), 0.0)
        best = int(np.argmax(0.5 * np.log1p(var / noise)))
        members.append(space[best])
        col = sel_cov[:, best].copy()
        sel_cov -= np.outer(col, col) / (var[best] + noise[best])
        state = condition(state, Observation(space[best], 0.0))
        achieved = max(float(state.cov[px, px]), 0.0)
    return tuple(members), achieved


def step_uncertainty(state, targets, sample_space):
    """Gamma_n: the largest exact gain available within the sample space,
    scored on a fresh factor block of the state."""
    return float(np.max(_itl_scores(_Blocks(state, targets, sample_space), stabilize=False)))


def itl_trajectory_reference(prior, targets, space, rounds):
    """The dense greedy ITL rollout: condition the full state on each pick,
    then rescore every state with ``step_uncertainty`` and read its target
    variances. Returns (picks, gains, variances) as the factor-block rollout
    records them."""
    space = sorted(space)
    states = [prior]
    picks = []
    for _ in range(rounds):
        state = states[-1]
        pick = space[int(np.argmax(_itl_scores(_Blocks(state, targets, space),
                                               stabilize=False)))]
        picks.append(pick)
        states.append(condition(state, Observation(pick, 0.0)))
    gains = [step_uncertainty(state, targets, space) for state in states]
    variances = np.array([target_variances(state, targets) for state in states])
    return tuple(picks), gains, variances


def greedy_batch_reference(state, targets, space, k):
    """Greedy no-repeat batch scored by differences of batch log-determinant
    gains, one pair of Cholesky factorizations per candidate. Returns the
    batch and, per pick, the gap between the best and second-best gain."""
    chosen, gaps = [], []
    for _ in range(k):
        best, best_gain = None, -1.0
        base = batch_information_gain(state, targets, chosen)
        gains = []
        for cand in space:
            if cand in chosen:
                continue
            gain = batch_information_gain(state, targets, chosen + [cand]) - base
            gains.append(gain)
            if gain > best_gain + 1e-15:
                best, best_gain = cand, gain
        if best is None:
            break
        chosen.append(best)
        top = sorted(gains, reverse=True)
        gaps.append(top[0] - top[1] if len(top) > 1 else math.inf)
    return tuple(chosen), gaps


def submodularity_ratio_reference(state, targets, space, greedy, k):
    """kappa(k) by enumeration over subsets B of ``greedy`` and disjoint
    candidate sets X with |X| <= k; every gain is a fresh batch gain."""
    @functools.cache
    def gain(key):
        return batch_information_gain(state, targets, key)

    def value(subset):
        return gain(tuple(sorted(subset)))

    ratio = math.inf
    for b_size in range(len(greedy) + 1):
        for base in combinations(greedy, b_size):
            rest = [s for s in space if s not in base]
            for x_size in range(1, k + 1):
                for group in combinations(rest, x_size):
                    numerator = sum(value(base + (x,)) - value(base) for x in group)
                    denominator = value(base + group) - value(base)
                    if abs(denominator) < 1e-12:
                        current = 1.0 if abs(numerator) < 1e-12 else math.inf
                    else:
                        current = numerator / denominator
                    ratio = min(ratio, current)
    return ratio


def eval_kernel(spec, xa, xb):
    """k(xa, xb) for one pair of feature vectors from the closed forms: the
    scalar reference for ``gram``. Arguments are put in lexicographic order
    so that k(a, b) == k(b, a) bit for bit even with a ``latent_cov``, whose
    quadratic form is order-sensitive in floating point."""
    xa, xb = sorted((np.asarray(xa, dtype=float), np.asarray(xb, dtype=float)), key=tuple)
    if spec.family in ("linear", "embedding"):
        if spec.latent_cov is None:
            return float(np.dot(xa, xb))
        return float(xa @ spec.latent_cov @ xb)
    if spec.family == "gaussian":
        d2 = float(np.dot(xa - xb, xa - xb))
        return float(math.exp(-d2 / (2.0 * spec.lengthscale ** 2)))
    if spec.family == "laplace":
        d1 = float(np.sum(np.abs(xa - xb)))
        return float(math.exp(-d1 / spec.lengthscale))
    r = math.sqrt(float(np.dot(xa - xb, xa - xb)))
    return float(_matern_of_distance(np.asarray(r), spec.lengthscale, spec.nu))


def cdist_gram_reference(spec, x):
    """Gram values of a distance family over the rows of ``x`` on scipy's
    ``cdist``, the runtime's distance kernel before it became numpy-only
    (scipy is a test dependency)."""
    if spec.family == "gaussian":
        return np.exp(-cdist(x, x, "sqeuclidean") / (2.0 * spec.lengthscale ** 2))
    if spec.family == "laplace":
        return np.exp(-cdist(x, x, "cityblock") / spec.lengthscale)
    return _matern_of_distance(cdist(x, x, "euclidean"), spec.lengthscale, spec.nu)


def blocks_reference(blocks):
    """The clamped variances at A then C and cov[A, A then C] of a factor block,
    recomputed from the state's dense covariance minus every factor row the
    block appended after the state's pending ones: the reference for the
    running pieces that ``var`` and ``cov_a`` read."""
    w = blocks.w[len(blocks.state.factor):blocks.width]
    rows, na = blocks.rows, blocks.na
    cov = blocks.state.cov
    var = np.maximum(cov[rows, rows] - np.sum(w * w, axis=0), 0.0)
    return var, cov[np.ix_(rows[:na], rows)] - w[:, :na].T @ w


def itl_scores_reference(blocks, stabilize):
    """Backward ITL scores with Var(y_x | D, f_A) from a general LU solve
    against the target block, one right-hand side per candidate. The block is
    regularised as the objective regularises it: j I, for j = JITTER_SCALE
    times the largest prior variance over A, plus diag(rho^2_A) when stabilized."""
    var, cov_a = blocks_reference(blocks)
    block, cross = cov_a[:, :blocks.na], cov_a[:, blocks.na:]
    pa = blocks.rows[:blocks.na]
    jitter = JITTER_SCALE * max(float(np.max(blocks.state.gram.values[pa, pa])), 0.0)
    noise_a = blocks.state.noise[pa] if stabilize else np.zeros(blocks.na)
    block = block + np.diag(jitter + noise_a)
    quad = np.sum(cross * np.linalg.solve(block, cross), axis=0)
    denom = var[blocks.na:] + blocks.noise_c
    resid = np.maximum(denom - quad, 1e-300)
    if not stabilize:
        inside = np.isin(np.asarray(blocks.candidates), np.asarray(blocks.targets))
        resid = np.where(inside, blocks.noise_c, resid)
    return np.maximum(0.5 * np.log(denom / resid), 0.0)


def ctl_scores_reference(blocks):
    """CTL scores from the dense |C| x |A| correlation matrix, its degenerate
    rows and columns zeroed, summed over the targets."""
    var, cov_a = blocks_reference(blocks)
    var_a, var_c = var[:blocks.na], var[blocks.na:]
    cross = cov_a[:, blocks.na:].T
    denom = np.sqrt(np.maximum(var_c, _DEGENERATE_VAR)[:, None]
                    * np.maximum(var_a, _DEGENERATE_VAR)[None, :])
    corr = cross / denom
    corr[:, var_a < _DEGENERATE_VAR] = 0.0
    corr[var_c < _DEGENERATE_VAR, :] = 0.0
    return corr.sum(axis=1)


def score_itl(state, targets, candidate):
    """I(f_A; y_x | D_{n-1}) of one candidate via the backward evaluation."""
    return information_gain(state, targets, candidate)


def score_ctl(state, targets, candidate):
    """Total conditional correlation between one candidate and the targets."""
    return float(_ctl_scores(_Blocks(state, targets, [candidate]))[0])


def max_dist_scores_reference(state, candidates, selected):
    """Each candidate's prior kernel distance to its nearest selected point,
    sqrt(k(x, x) + k(s, s) - 2 k(x, s)) clamped at 0, one pair at a time; all 0
    when nothing is selected."""
    if not selected:
        return np.zeros(len(candidates))
    k, pos = state.gram.values, state.gram.position
    return np.array([math.sqrt(min(max(k[pos(x), pos(x)] + k[pos(s), pos(s)]
                                       - 2.0 * k[pos(x), pos(s)], 0.0) for s in selected))
                     for x in candidates])


def score_baseline(rule, candidate, *, state, targets=(), selected=()):
    """One candidate's score under a baseline rule, through the batch scorer;
    max-dist's batch reads the selected points from the state's history."""
    if rule == MAX_DIST:
        history = tuple(Observation(s, 0.0) for s in selected)
        return select_batch(replace(state, history=history), targets, [candidate],
                            Policy(rule=rule)).objectives[0]
    scores = _score_candidates(_Blocks(state, targets, [candidate]), Policy(rule=rule))
    return float(scores[0])


def kmeanspp_reference(state, cand, b, rng):
    """kmeans++ batch that recomputes every candidate's squared distance to
    every anchor (history and picks) at each pick and zeroes the picks by
    ``cand.index``: the form the kmeans++ batch had before it kept the
    nearest distances."""
    picked, objectives = [], []
    selected = [obs.index for obs in state.history]
    for _ in range(b):
        anchors = selected + picked
        if not anchors:
            choice = int(rng.choice(len(cand)))
            picked.append(cand[choice])
            objectives.append(0.0)
            continue
        d2 = _min_sq_distances(state, cand, anchors)
        d2[[cand.index(p) for p in picked]] = 0.0
        total = float(d2.sum())
        if total > 0:
            probs = d2 / total
        else:
            open_slots = np.array([c not in picked for c in cand], dtype=float)
            probs = open_slots / open_slots.sum()
        choice = int(rng.choice(len(cand), p=probs))
        picked.append(cand[choice])
        objectives.append(float(d2[choice]))
    return tuple(picked), tuple(objectives)


def rescoring_bace_reference(state, targets, candidates, policy):
    """BaCE that rescores every candidate at every step, whatever the rule.
    Returns (picks, objectives) as ``select_batch`` does."""
    cand = sorted(candidates)
    blocks = _Blocks(state, targets, cand, policy.batch_size - 1)
    history = [obs.index for obs in state.history]
    picks, objectives = [], []
    mask = np.zeros(len(cand), dtype=bool)
    for step in range(policy.batch_size):
        if policy.rule == MAX_DIST:
            scores = max_dist_scores_reference(state, cand, history + picks)
        else:
            scores = _score_candidates(blocks, policy)
        scores = np.where(mask, -np.inf, scores)
        best = int(np.argmax(scores))
        picks.append(cand[best])
        objectives.append(float(scores[best]))
        mask[best] = True
        if policy.rule in _POSTERIOR_RULES and step < policy.batch_size - 1:
            bace_update(blocks, best)
    return tuple(picks), tuple(objectives)


@pytest.fixture
def rng():
    return np.random.default_rng(20240117)
