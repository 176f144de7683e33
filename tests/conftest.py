"""Shared instance generators and scalar references for the test suite."""

from itertools import combinations, combinations_with_replacement

import numpy as np
import pytest

from transduct import (BudgetError, KernelMatrix, NoiseModel, Observation, PosteriorState,
                       condition)
from transduct.posterior import chol_logdet


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
        table = {i: float(v) for i, v in
                 enumerate(rng.uniform(noise_range[0], noise_range[1], size=n))}
        noise = NoiseModel.heteroscedastic(table)
    else:
        noise = NoiseModel.homoscedastic(float(rng.uniform(*noise_range)))
    return PosteriorState.from_prior(gram, noise)


def batch_posterior_oracle(state, observations):
    """From-scratch batch conditioning of the prior: the independent oracle
    for the rank-one update path."""
    prior = state.gram.values
    pos = [state.position(obs.index) for obs in observations]
    y = np.array([obs.value for obs in observations])
    noise = np.diag([obs.noise_var for obs in observations])
    k_dx = prior[:, pos]
    k_xx = prior[np.ix_(pos, pos)] + noise
    solve = np.linalg.solve(k_xx, np.eye(len(pos)))
    mean = k_dx @ solve @ y
    cov = prior - k_dx @ solve @ k_dx.T
    return mean, cov


def best_grouped_gain_reference(cov, noise, size):
    """Largest grouped multiset gain of exactly ``size`` picks, scored one
    multiset at a time with one ``slogdet`` on its distinct-point block: the
    scalar reference for the stacked enumeration."""
    best = 0.0
    for combo in combinations_with_replacement(range(len(noise)), size):
        counts = np.bincount(combo, minlength=len(noise))
        active = counts > 0
        root = np.sqrt(counts[active] / noise[active])
        sub = cov[np.ix_(active, active)] * np.outer(root, root)
        sub = sub + np.eye(sub.shape[0])
        best = max(best, 0.5 * float(np.linalg.slogdet(sub)[1]))
    return best


def capacity_greedy_reference(state, candidates, budget, multiset):
    """Greedy capacity on a dense copy of the candidate block, downdated by
    an explicit outer product after each undirected-ITL pick."""
    pos = state.positions(candidates)
    noise = state.noise.vector(candidates)
    cov = state.cov[np.ix_(pos, pos)].copy()
    available = np.ones(len(candidates), dtype=bool)
    total = 0.0
    for _ in range(budget):
        var = np.maximum(np.diag(cov), 0.0)
        gains = np.where(available, 0.5 * np.log1p(var / noise), -np.inf)
        best = int(np.argmax(gains))
        if not np.isfinite(gains[best]) or gains[best] <= 0.0:
            break
        total += float(gains[best])
        col = cov[:, best].copy()
        cov -= np.outer(col, col) / (var[best] + noise[best])
        if not multiset:
            available[best] = False
    return total


def capacity_subset_reference(state, candidates, budget):
    """Exhaustive subset capacity, one Cholesky log-determinant of
    K_XX + P_X per subset X."""
    pos = state.positions(candidates)
    noise = state.noise.vector(candidates)
    cov = state.cov[np.ix_(pos, pos)]
    best = 0.0
    for size in range(1, budget + 1):
        for combo in combinations(range(len(candidates)), size):
            sel = list(combo)
            gain = 0.5 * (chol_logdet(cov[np.ix_(sel, sel)] + np.diag(noise[sel]))
                          - float(np.sum(np.log(noise[sel]))))
            best = max(best, gain)
    return best


def markov_boundary_reference(state, space, x, floor, epsilon, cap):
    """Markov-boundary members and achieved variance: undirected greedy
    picks on a dense copy of the prior block, each pick certified by
    conditioning the state on it."""
    pos = state.positions(space)
    px = state.position(x)
    noise = state.noise.vector(space)
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
        state = condition(state, Observation(space[best], 0.0, float(noise[best])))
        achieved = max(float(state.cov[px, px]), 0.0)
    return tuple(members), achieved


@pytest.fixture
def rng():
    return np.random.default_rng(20240117)
