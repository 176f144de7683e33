"""Joint Gaussian posterior over a finite domain, and its information metrics.

The conditional covariance is kept in full. A batch of observations
conditions it in factor form (GPML Alg. 2.1): the observation at j adds the
column w = (K[:, j] - W W[j, :]^T) / sqrt(K[j, j] - |W[j, :]|^2 + rho^2(x_j))
to an N x b factor W, and K - W W^T is formed once per batch. This matches
batch conditioning from the prior for any observation order.
Downdates with no observation value yet (BaCE picks, greedy capacity, Markov
boundaries) append the same column to factor blocks over targets and
candidates (``_Blocks``, ``bace_update``), read by ``_itl_scores``.

On top of the state the module computes marginal variances, joint entropies,
the information gain I(f_A; y_x | D) in its forward (determinant ratio over
the target block) and backward (``_itl_scores``) forms, the batch gain
I(f_A; y_B | D), and the information capacity

    gamma_n = max_{X, |X| <= n} 1/2 log det(I + P_X^{-1} K_XX)

by greedy maximization or exhaustive enumeration. Exhaustive enumeration
over subsets or multisets scores chunks of them as stacked determinants of
min(|S|, size) x min(|S|, size) blocks, one batched ``slogdet`` per chunk.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from functools import cached_property
from itertools import combinations, combinations_with_replacement, islice, takewhile
from typing import Iterable, Iterator, Sequence

import numpy as np

from .errors import BudgetError, InputError, NumericError
from .kernels import KernelMatrix, NoiseModel, jittered

LOG_2PI_E = math.log(2.0 * math.pi * math.e)

#: Hard cap on exhaustive enumeration sizes (subsets or multisets).
BRUTE_FORCE_CAP = 200_000

#: Multisets per stacked determinant call. A chunk holds _CHUNK blocks of
#: min(|S|, size)^2 floats; larger chunks only raise peak memory.
_CHUNK = 256


def chol_logdet(matrix: np.ndarray) -> float:
    """log det of a PSD matrix via Cholesky of its jittered copy."""
    if matrix.size == 0:
        return 0.0
    try:
        chol = np.linalg.cholesky(jittered(matrix))
    except np.linalg.LinAlgError as exc:
        raise NumericError(f"Cholesky factorization failed: {exc}") from exc
    return 2.0 * float(np.sum(np.log(np.diag(chol))))


def solve_psd(matrix: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    """Solve a PSD system after jittering the matrix."""
    if matrix.size == 0:
        return np.zeros_like(rhs)
    try:
        return np.linalg.solve(jittered(matrix), rhs)
    except np.linalg.LinAlgError as exc:
        raise NumericError(f"PSD solve failed: {exc}") from exc


@dataclass(frozen=True)
class Observation:
    """One noisy measurement y = f(x) + eps at a domain index.

    Repeated indices are allowed: each observation is an independent noisy
    measurement of the same latent value.
    """

    index: int
    value: float
    noise_var: float

    def __post_init__(self):
        if not self.noise_var > 0:
            raise InputError("observation noise variance must be positive")
        if not math.isfinite(self.value):
            raise InputError("observation value must be finite")


@dataclass(frozen=True)
class IGQuery:
    """An information-gain query: targets A, candidate x, evaluation method."""

    targets: tuple[int, ...]
    candidate: int
    method: str = "backward"

    def __post_init__(self):
        object.__setattr__(self, "targets", tuple(int(t) for t in self.targets))
        if not self.targets:
            raise InputError("target set must be nonempty")
        if self.method not in ("forward", "backward"):
            raise InputError("method must be 'forward' or 'backward'")


@dataclass(frozen=True)
class PosteriorState:
    """Gaussian posterior over the domain after an observation history."""

    gram: KernelMatrix
    noise: NoiseModel
    cov: np.ndarray
    mean: np.ndarray
    history: tuple[Observation, ...] = ()

    @classmethod
    def from_prior(cls, gram: KernelMatrix, noise: NoiseModel,
                   mean: np.ndarray | None = None) -> "PosteriorState":
        if mean is None:
            mean = np.zeros(gram.size)
        mean = np.asarray(mean, dtype=np.float64)
        if mean.shape != (gram.size,):
            raise InputError("prior mean length does not match the domain")
        # the Gram's values are read-only, so the prior shares them
        return cls(gram=gram, noise=noise, cov=gram.values, mean=mean.copy())

    @property
    def round(self) -> int:
        return len(self.history)

    @property
    def ids(self) -> tuple[int, ...]:
        return self.gram.ids

    def position(self, index: int) -> int:
        return self.gram.position(index)

    def positions(self, indices: Iterable[int]) -> np.ndarray:
        return self.gram.positions(indices)

    def variance_vector(self, indices: Sequence[int]) -> np.ndarray:
        pos = self.positions(indices)
        return np.maximum(np.diag(self.cov)[pos], 0.0)

    def mean_vector(self, indices: Sequence[int]) -> np.ndarray:
        return self.mean[self.positions(indices)]


def condition(state: PosteriorState, obs: Observation) -> PosteriorState:
    """Condition the posterior on one observation (rank-one update)."""
    return condition_all(state, [obs])


def condition_all(state: PosteriorState, observations: Iterable[Observation]) -> PosteriorState:
    """Condition the posterior on a batch of observations, in order."""
    observations = tuple(observations)
    if not observations:
        return state
    pos = state.positions(obs.index for obs in observations)
    factor = np.empty((state.cov.shape[0], len(pos)))
    mean = state.mean.copy()
    for i, (obs, j) in enumerate(zip(observations, pos)):
        col = state.cov[:, j] - factor[:, :i] @ factor[j, :i]
        denom = max(float(col[j]), 0.0) + obs.noise_var
        if not denom > 0:
            raise NumericError("non-positive predictive variance at the observed index")
        mean += col * ((obs.value - mean[j]) / denom)
        factor[:, i] = col / math.sqrt(denom)
    cov = factor @ factor.T
    np.subtract(state.cov, cov, out=cov)
    diag = np.diag(cov)
    if np.min(diag) < 0.0:
        np.fill_diagonal(cov, np.maximum(diag, 0.0))
    if not (np.all(np.isfinite(cov)) and np.all(np.isfinite(mean))):
        raise NumericError("conditioning produced non-finite values")
    return replace(state, cov=cov, mean=mean, history=state.history + observations)


def observe(state: PosteriorState, index: int, value: float) -> PosteriorState:
    """Condition on a measurement using the domain noise model at ``index``."""
    return condition(state, Observation(index, value, state.noise.variance_at(index)))


def marginal_variance(state: PosteriorState, index: int) -> float:
    """Var[f(x) | D_n], clamped at zero from below."""
    j = state.position(index)
    return max(float(state.cov[j, j]), 0.0)


class _Blocks:
    """The pieces of the conditional covariance that the scorers read.

    Rows are the targets A followed by the candidates C. Each piece is
    gathered from ``state.cov`` once, when first read. Downdates that have no
    observation value yet are factor columns W over these rows, so every block
    is the state's block minus the matching product of W rows, e.g.
    cov[A, C] = state.cov[A, C] - W_A W_C^T.
    """

    def __init__(self, state: PosteriorState | None, targets: Sequence[int],
                 candidates: Sequence[int], capacity: int = 0):
        self.state = state
        self.targets = tuple(targets)
        self.candidates = candidates
        self.na = len(self.targets)
        self.width = 0  # factor columns in use, out of w.shape[1]
        self.w = np.empty((self.na + len(candidates), capacity))

    @cached_property
    def rows(self) -> np.ndarray:
        return self.state.positions(self.targets + tuple(self.candidates))

    @cached_property
    def noise_a(self) -> np.ndarray:
        return self.state.noise.vector(self.targets)

    @cached_property
    def noise_c(self) -> np.ndarray:
        return self.state.noise.vector(self.candidates)

    @cached_property
    def _k_a(self) -> np.ndarray:
        return self.state.cov[np.ix_(self.rows[:self.na], self.rows)]

    @cached_property
    def _k_diag(self) -> np.ndarray:
        return self.state.cov[self.rows, self.rows]

    def cov_a(self) -> np.ndarray:
        """cov[A, A] in the first |A| columns, cov[A, C] after them."""
        w = self.w[:, :self.width]
        return self._k_a - w[:self.na] @ w.T

    def var(self) -> np.ndarray:
        """Variances at A then C, clamped at zero."""
        w = self.w[:, :self.width]
        return np.maximum(self._k_diag - np.einsum("ij,ij->i", w, w), 0.0)


def bace_update(blocks: _Blocks, pick: int, rho2: float) -> None:
    """Noise-inflated rank-one downdate at the candidate in position ``pick``.

    Identical to conditioning except that no observation value exists yet;
    it appends one factor column to ``blocks`` (doubling the factor when it
    is full) and leaves the state alone.
    """
    k, i = blocks.width, blocks.na + pick
    if k == blocks.w.shape[1]:
        blocks.w = np.concatenate((blocks.w, np.empty((len(blocks.w), max(k, 1)))), axis=1)
    col = blocks.state.cov[blocks.rows, blocks.rows[i]] - blocks.w[:, :k] @ blocks.w[i, :k]
    blocks.w[:, k] = col / math.sqrt(max(float(col[i]), 0.0) + rho2)
    blocks.width = k + 1


def _itl_scores(blocks: _Blocks, stabilize: bool) -> np.ndarray:
    """I(f_A; y_x | D) at every candidate x, by the backward formula
    1/2 log(Var(y_x) / Var(y_x | f_A))."""
    cov_a = blocks.cov_a()
    block, cross = cov_a[:, :blocks.na], cov_a[:, blocks.na:]
    if stabilize:
        block = block + np.diag(blocks.noise_a)
    quad = np.sum(cross * solve_psd(block, cross), axis=0)
    noise = blocks.noise_c
    denom = blocks.var()[blocks.na:] + noise
    resid = np.maximum(denom - quad, 1e-300)
    if not stabilize:
        # in-target candidates have exact residual rho^2 (y_x independent of
        # f_{A \ x} given f_x); bypass the solve round-off for them
        inside = np.isin(np.asarray(blocks.candidates), np.asarray(blocks.targets))
        resid = np.where(inside, noise, resid)
    return np.maximum(0.5 * np.log(denom / resid), 0.0)


def _undirected_picks(blocks: _Blocks, multiset: bool) -> Iterator[tuple[int, float]]:
    """Yield (position, gain) of the greedy undirected-ITL pick, argmax of 1/2 log(1 +
    sigma^2/rho^2) over the candidates of ``blocks`` (no factor columns yet), then
    downdate at it. Picks repeat only when ``multiset``; an exhausted pool yields -inf."""
    available = np.ones(len(blocks.candidates), dtype=bool)
    var = blocks._k_diag[blocks.na:]  # downdated by each new column: O(|C|) a pick
    while True:
        gains = np.where(available, np.log1p(np.maximum(var, 0.0) / blocks.noise_c), -np.inf)
        best = int(np.argmax(gains))
        yield best, float(gains[best]) / 2
        bace_update(blocks, best, float(blocks.noise_c[best]))
        var = var - blocks.w[blocks.na:, blocks.width - 1] ** 2
        if not multiset:
            available[best] = False


def _target_block(state: PosteriorState, targets: Sequence[int],
                  stabilize: bool) -> tuple[np.ndarray, np.ndarray]:
    pa = state.positions(targets)
    block = state.cov[np.ix_(pa, pa)]
    if stabilize:
        block = block + np.diag(state.noise.vector(targets))
    return pa, block


def information_gain(state: PosteriorState, query: IGQuery, *,
                     stabilize: bool = False) -> float:
    """I(f_A; y_x | D_n), nonnegative.

    ``stabilize=True`` computes I(y_A; y_x | D_n) instead, which adds the
    target noise variances to the target-block diagonal before inversion;
    this trades a small bias for numerical robustness on near-singular blocks.
    Forward and backward methods agree to high accuracy on either variant.
    """
    rho2 = state.noise.variance_at(query.candidate)
    if not rho2 > 0:
        raise InputError("candidate noise variance must be positive for the gain to exist")
    if query.method == "backward":
        return float(_itl_scores(_Blocks(state, query.targets, [query.candidate]), stabilize)[0])
    px = state.position(query.candidate)
    pa, block = _target_block(state, query.targets, stabilize)
    k_ax = state.cov[pa, px]
    downdated = block - np.outer(k_ax, k_ax) / (max(float(state.cov[px, px]), 0.0) + rho2)
    return max(0.5 * (chol_logdet(block) - chol_logdet(downdated)), 0.0)


def batch_information_gain(state: PosteriorState, targets: Sequence[int],
                           batch: Sequence[int], *, stabilize: bool = False) -> float:
    """I(f_A; y_B | D_n) for a (multi)set B of candidate indices."""
    if len(batch) == 0:
        return 0.0
    pa, block = _target_block(state, targets, stabilize)
    pb = state.positions(batch)
    c_bb = state.cov[np.ix_(pb, pb)] + np.diag(state.noise.vector(batch))
    c_ab = state.cov[np.ix_(pa, pb)]
    try:
        downdated = block - c_ab @ np.linalg.solve(c_bb, c_ab.T)
    except np.linalg.LinAlgError as exc:
        raise NumericError(f"batch gain solve failed: {exc}") from exc
    gain = 0.5 * (chol_logdet(block) - chol_logdet(downdated))
    return max(gain, 0.0)


def entropy(state: PosteriorState, indices: Sequence[int]) -> float:
    """Joint differential entropy of f at ``indices`` under the current state."""
    pos = state.positions(indices)
    block = state.cov[np.ix_(pos, pos)]
    return 0.5 * len(indices) * LOG_2PI_E + 0.5 * chol_logdet(block)


def _best_grouped_gain(cov: np.ndarray, noise: np.ndarray, size: int, *,
                       multiset: bool = True) -> float:
    """Largest 1/2 log det(I + sqrt(N) K sqrt(N)), N = diag(counts / noise),
    over every multiset (or, without ``multiset``, every subset) of exactly
    ``size`` candidate positions.

    Repeated independent measurements of the same point enter only through
    their count, so a multiset is scored on its distinct points (Sylvester's
    determinant identity). Each is placed in a min(|S|, size) block padded
    with unpicked points, whose zero count gives an identity row and column,
    so a chunk of multisets is one stacked determinant. A subset is the
    multiset whose counts are all one.
    """
    n = cov.shape[0]
    width = min(n, size)
    combos = (combinations_with_replacement if multiset else combinations)(range(n), size)
    diag = np.arange(width)
    best = 0.0
    while True:
        picks = np.fromiter(islice(combos, _CHUNK), dtype=(np.intp, size))
        if len(picks) == 0:
            return best
        # picks are sorted, so a new distinct point starts wherever they change
        slot = np.zeros_like(picks)
        np.cumsum(picks[:, 1:] != picks[:, :-1], axis=1, out=slot[:, 1:])
        rows = np.arange(len(picks))[:, None]
        points = np.zeros((len(picks), width), dtype=np.intp)
        points[rows, slot] = picks
        counts = np.zeros((len(picks), width))
        np.add.at(counts, (rows, slot), 1.0)
        root = np.sqrt(counts / noise[points])
        stack = cov[points[:, :, None], points[:, None, :]] * (root[:, :, None] * root[:, None, :])
        stack[:, diag, diag] += 1.0
        logdet = np.linalg.slogdet(stack)[1]
        if not np.all(np.isfinite(logdet)):
            raise NumericError("capacity enumeration produced a non-finite log-determinant")
        best = max(best, 0.5 * float(np.max(logdet)))


def _capacity_brute(state: PosteriorState, candidates: Sequence[int], budget: int,
                    multiset: bool) -> float:
    pos = state.positions(candidates)
    noise = state.noise.vector(candidates)
    cov = state.cov[np.ix_(pos, pos)]
    sizes = range(1, budget + 1)
    total = sum(math.comb(len(candidates) + (s - 1 if multiset else 0), s) for s in sizes)
    if total > BRUTE_FORCE_CAP:
        raise BudgetError(f"exhaustive capacity search over {total} subsets exceeds the cap")
    return max(_best_grouped_gain(cov, noise, size, multiset=multiset) for size in sizes)


def _capacity_greedy(state: PosteriorState, candidates: Sequence[int], budget: int,
                     multiset: bool) -> float:
    picks = _undirected_picks(_Blocks(state, (), candidates), multiset)
    gains = (gain for _, gain in islice(picks, budget))
    return sum(takewhile(lambda gain: gain > 0.0, gains), 0.0)


def information_capacity(state: PosteriorState, candidates: Sequence[int], budget: int,
                         mode: str = "greedy", *, multiset: bool = False) -> float:
    """Maximum information obtainable from ``budget`` noisy observations.

    ``greedy`` returns the value of greedy maximization (a (1 - 1/e)
    approximation by submodularity); ``brute`` enumerates every candidate
    subset of size <= budget, or every multiset when ``multiset=True``.
    """
    if budget < 0:
        raise InputError("budget must be nonnegative")
    if budget == 0 or not candidates:
        return 0.0
    if mode == "brute":
        if not multiset and budget > len(candidates):
            raise InputError("budget exceeds the candidate pool; enable multiset sampling")
        return _capacity_brute(state, candidates, budget, multiset)
    if mode == "greedy":
        return _capacity_greedy(state, candidates, budget, multiset)
    raise InputError("mode must be 'greedy' or 'brute'")


def beta_n(norm_bound: float, rho: float, gamma_n: float, delta: float) -> float:
    """Confidence-width multiplier B + rho * sqrt(2 (gamma_n + 1 + log(1/delta)))."""
    if not 0.0 < delta < 1.0:
        raise InputError("delta must lie in (0, 1)")
    if norm_bound < 0 or rho < 0 or gamma_n < 0:
        raise InputError("norm bound, noise scale and capacity must be nonnegative")
    return norm_bound + rho * math.sqrt(2.0 * (gamma_n + 1.0 + math.log(1.0 / delta)))
