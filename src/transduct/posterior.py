"""Joint Gaussian posterior over a finite domain, and its information metrics.

The conditional covariance is kept in full. Every conditioning step is one
noise-inflated rank-one downdate, ``bace_update`` (GPML Alg. 2.1): observing x
with noise rho^2 appends the row w = (cov[:, x] - W^T W[:, x]) / s, with
s = sqrt(Var[f_x] + rho^2), to a factor W over the columns of a ``_Blocks``.
``condition_all`` downdates blocks over the whole domain, moves the mean by
w (y - mu_x) / s per observation, and subtracts W^T W in row blocks of about
``_BLOCK_ENTRIES`` entries, each formed by a GEMM on a transposed copy of W
(numpy's SYRK is several times slower on threaded OpenBLAS) and checked while
in cache. This matches batch conditioning from the prior in any order.
Downdates with no value yet keep W over targets and candidates and leave the
state alone: the batch gain downdates the target block at every point of the
batch, and ``greedy`` makes every greedy pick (BaCE batches, the theory
rollout, the kappa batch, greedy capacity and Markov boundaries) as the argmax
of ``_itl_scores`` or ``_undirected_scores`` over the blocks, then downdates
them at the pick.

On top of the state the module computes the information gain I(f_A; y_x | D)
in its backward form (``_itl_scores``), the batch gain I(f_A; y_B | D), whose
one-point batch [x] is the forward form of the gain, and the information
capacity over multisets X of the candidates (points may repeat)

    gamma_n = max_{X, |X| <= n} 1/2 log det(I + P_X^{-1} K_XX)

by exhaustive enumeration when its multisets number at most
``BRUTE_FORCE_CAP``, else by greedy maximization; the capacity reports which.
Exhaustive enumeration is a depth-first walk over observation counts: by the
chain rule, k observations of a point are one noise-inflated downdate at
noise rho^2 / k, so a node's covariance serves every multiset that extends it
and the cost per multiset does not grow with the budget.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from functools import cached_property
from itertools import islice, takewhile
from typing import Callable, Iterable, Iterator, Sequence

import numpy as np

from .errors import InputError, NumericError
from .kernels import _BLOCK_ENTRIES, KernelMatrix, NoiseModel, jittered

#: Most multisets that an exact capacity enumerates, counted as
#: C(|S| + n - 1, n) for n observations of a sample space S; past it the
#: capacity is the greedy value.
BRUTE_FORCE_CAP = 200_000


def _cholesky(matrix: np.ndarray) -> np.ndarray:
    """Cholesky factor of the jittered ``matrix``; NumericError if it fails or is not finite."""
    try:
        chol = np.linalg.cholesky(jittered(matrix))
    except np.linalg.LinAlgError as exc:
        raise NumericError(f"Cholesky factorization failed: {exc}") from exc
    if not np.isfinite(chol).all():
        raise NumericError("Cholesky factorization produced non-finite values")
    return chol


def chol_logdet(matrix: np.ndarray) -> float:
    """log det of a PSD matrix via Cholesky of its jittered copy (0 when empty)."""
    return 2.0 * float(np.sum(np.log(np.diag(_cholesky(matrix)))))


def whiten(matrix: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    """L^{-1} rhs for the Cholesky factor L of the jittered ``matrix``: a column z
    of it has |z|^2 = r^T matrix^{-1} r (GPML Alg. 2.1)."""
    return np.linalg.inv(_cholesky(matrix)) @ rhs


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
        return self.variance_at(self.positions(indices))

    def variance_at(self, pos: np.ndarray) -> np.ndarray:
        """Variances at domain positions, clamped at zero."""
        return np.maximum(self.cov[pos, pos], 0.0)


def condition(state: PosteriorState, obs: Observation) -> PosteriorState:
    """Condition the posterior on one observation (rank-one update)."""
    return condition_all(state, [obs])


def condition_all(state: PosteriorState, observations: Iterable[Observation]) -> PosteriorState:
    """Condition the posterior on a batch of observations, in order."""
    observations = tuple(observations)
    if not observations:
        return state
    blocks = _Domain(state, (), state.ids, len(observations))
    mean = state.mean.copy()
    for k, obs in enumerate(observations):
        j = state.position(obs.index)
        scale = bace_update(blocks, j, obs.noise_var)
        mean += blocks.w[k] * ((obs.value - mean[j]) / scale)
    if not np.isfinite(mean).all():
        raise NumericError("conditioning produced non-finite values")
    w = blocks.w
    wt = np.ascontiguousarray(w.T)  # GEMM, not SYRK (see above)
    cov = np.empty_like(state.cov)
    n = len(cov)
    rows = max(1, _BLOCK_ENTRIES // n)
    for start in range(0, n, rows):
        block = cov[start:start + rows]
        np.matmul(wt[start:start + rows], w, out=block)
        np.subtract(state.cov[start:start + rows], block, out=block)
        diag = block.reshape(-1)[start::n + 1]  # the block's part of the diagonal
        np.maximum(diag, 0.0, out=diag)
        if not np.isfinite(block).all():
            raise NumericError("conditioning produced non-finite values")
    return replace(state, cov=cov, mean=mean, history=state.history + observations)


class _Blocks:
    """The pieces of the conditional covariance that the scorers read.

    Columns are the targets A followed by the candidates C. Each piece is
    gathered from ``state.cov`` once, when first read. Each downdate appends a
    row to a factor W over these columns, so every block is the state's block
    minus the matching product of W columns, e.g.
    cov[A, C] = state.cov[A, C] - W_A^T W_C.
    """

    def __init__(self, state: PosteriorState, targets: Sequence[int],
                 candidates: Sequence[int], capacity: int = 0):
        self.state = state
        self.targets = tuple(targets)
        self.candidates = candidates
        self.na = len(self.targets)
        self.width = 0  # factor rows in use, out of len(w)
        self.w = np.empty((capacity, self.na + len(candidates)))

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
        return self.state.cov[self.rows[:self.na, None], self.rows]

    @cached_property
    def _k_diag(self) -> np.ndarray:
        return self.state.cov[self.rows, self.rows]

    def cov_a(self) -> np.ndarray:
        """cov[A, A] in the first |A| columns, cov[A, C] after them."""
        w = self.w[:self.width]
        return self._k_a - w[:, :self.na].T @ w

    def var(self) -> np.ndarray:
        """Variances at A then C, clamped at zero."""
        w = self.w[:self.width]
        return np.maximum(self._k_diag - np.einsum("ij,ij->j", w, w), 0.0)

    def column(self, i: int) -> np.ndarray:
        """Column ``i``, read as a row: the state is symmetric."""
        return self.state.cov[self.rows[i]][self.rows]


class _Domain(_Blocks):
    """The whole domain in position order: no id lookups, rows read in place."""

    def column(self, i: int) -> np.ndarray:
        return self.state.cov[i]


def bace_update(blocks: _Blocks, pick: int, rho2: float) -> float:
    """Noise-inflated rank-one downdate at the candidate in position ``pick``.

    Appends the factor row of an observation there with noise variance
    ``rho2`` to ``blocks`` (doubling the factor when it is full) and returns
    its scale s; conditioning on a value y also moves the mean by w (y - mu) / s.
    """
    k, i = blocks.width, blocks.na + pick
    if k == len(blocks.w):
        blocks.w = np.concatenate((blocks.w, np.empty((max(k, 1), blocks.w.shape[1]))))
    w = blocks.w[:k]
    col = blocks.column(i) - w[:, i] @ w
    scale = math.sqrt(max(float(col[i]), 0.0) + rho2)
    blocks.w[k] = col / scale
    blocks.width = k + 1
    return scale


def _itl_scores(blocks: _Blocks, stabilize: bool) -> np.ndarray:
    """I(f_A; y_x | D) at every candidate x: 1/2 log(Var(y_x) / Var(y_x | f_A)), with
    Var(y_x | f_A) = Var(y_x) - |L^{-1} cov[A, x]|^2 for one Cholesky L of the target block."""
    cov_a = blocks.cov_a()
    block, cross = cov_a[:, :blocks.na], cov_a[:, blocks.na:]
    if stabilize:
        block = block + np.diag(blocks.noise_a)
    quad = np.sum(whiten(block, cross) ** 2, axis=0)
    noise = blocks.noise_c
    denom = blocks.var()[blocks.na:] + noise
    resid = np.maximum(denom - quad, 1e-300)
    if not stabilize:
        # in-target candidates have exact residual rho^2 (y_x independent of
        # f_{A \ x} given f_x); bypass the whitening round-off for them
        inside = (blocks.rows[blocks.na:, None] == blocks.rows[:blocks.na]).any(axis=1)
        resid = np.where(inside, noise, resid)
    return np.maximum(0.5 * np.log(denom / resid), 0.0)


def _undirected_scores(blocks: _Blocks) -> np.ndarray:
    """I(f_x; y_x | D) = 1/2 log(1 + sigma^2(x)/rho^2(x)) at every candidate x."""
    return 0.5 * np.log1p(blocks.var()[blocks.na:] / blocks.noise_c)


def greedy(blocks: _Blocks, score: Callable[[_Blocks], np.ndarray], *,
           multiset: bool = False) -> Iterator[tuple[int, np.ndarray]]:
    """Greedy picks over the candidates of ``blocks``.

    Yields (position, scores) at the argmax of ``score(blocks)``, lowest
    position on ties, with earlier picks at -inf unless ``multiset``. The
    noise-inflated downdate at a pick runs only when the generator is resumed,
    so ``islice(greedy(...), b)`` never pays for the b-th one.
    """
    taken = np.zeros(len(blocks.candidates), dtype=bool)
    while True:
        scores = score(blocks)
        if not multiset:
            scores = np.where(taken, -np.inf, scores)
        best = int(np.argmax(scores))
        yield best, scores
        taken[best] = True
        bace_update(blocks, best, float(blocks.noise_c[best]))


def information_gain(state: PosteriorState, targets: Sequence[int], candidate: int, *,
                     stabilize: bool = False) -> float:
    """I(f_A; y_x | D_n) for a nonempty target set A, nonnegative, by the
    backward method (``_itl_scores``).

    ``stabilize=True`` computes I(y_A; y_x | D_n) instead, which adds the
    target noise variances to the target-block diagonal before inversion;
    this trades a small bias for numerical robustness on near-singular blocks.
    The forward method is ``batch_information_gain(state, targets, [x])``;
    the two agree to high accuracy on either variant.
    """
    if len(targets) == 0:
        raise InputError("target set must be nonempty")
    if not state.noise.variance_at(candidate) > 0:
        raise InputError("candidate noise variance must be positive for the gain to exist")
    return float(_itl_scores(_Blocks(state, targets, [candidate]), stabilize)[0])


def batch_information_gain(state: PosteriorState, targets: Sequence[int],
                           batch: Sequence[int], *, stabilize: bool = False) -> float:
    """I(f_A; y_B | D_n) for a (multi)set B of candidate indices: half the log
    determinant of the target block before over after a downdate at every
    position of B (a repeated index is its own measurement)."""
    if len(batch) == 0:
        return 0.0
    blocks = _Blocks(state, targets, batch, len(batch))
    noise = np.diag(blocks.noise_a) if stabilize else 0.0
    before = chol_logdet(blocks._k_a[:, :blocks.na] + noise)
    for pick, rho2 in enumerate(blocks.noise_c):
        bace_update(blocks, pick, float(rho2))
    return max(0.5 * (before - chol_logdet(blocks.cov_a()[:, :blocks.na] + noise)), 0.0)


def _best_grouped_gain(cov: np.ndarray, noise: np.ndarray, size: int) -> float:
    """Largest 1/2 log det(I + sqrt(N) K sqrt(N)), N = diag(counts / noise),
    over every multiset of exactly ``size`` candidate positions.

    By the chain rule, 1/2 log det(...) = sum_t 1/2 log(1 + k_t sigma_t^2 / rho_t^2)
    over the distinct points in increasing order, where k_t is the count of
    point t and sigma_t^2 its variance after the earlier points: k independent
    measurements of a point are one measurement at noise rho^2 / k. So the
    multisets are the leaves of a depth-first walk over observation counts
    (``_count_walk``), whose nodes are downdated covariances. The walk keeps
    about ``_BLOCK_ENTRIES`` entries alive: each of the at most min(|S|, size)
    levels on its path holds one block of its share of them.
    """
    bound = _BLOCK_ENTRIES // max(min(len(noise), size), 1)
    best = _count_walk(cov[None], noise, np.array([-1]), np.array([size]), np.zeros(1), bound)
    best = float(np.maximum(best, 0.0))
    if not math.isfinite(best):
        raise NumericError("capacity enumeration produced a non-finite gain")
    return best


def _count_walk(block: np.ndarray, noise: np.ndarray, last: np.ndarray, left: np.ndarray,
                gain: np.ndarray, bound: int) -> np.floating:
    """Best gain below a block of walk nodes (NaN if any gain read is NaN).

    ``block`` stacks the nodes' covariances over the trailing points whose
    noise is ``noise``. A node has observed points up to ``last`` (local
    index, -1 for none), has ``left`` observations to spend on later points
    and has gained ``gain``. A child observes a later point j exactly k times:
    one ``bace_update`` downdate at noise rho_j^2 / k, gaining
    1/2 log(1 + k sigma^2(j) / rho_j^2). A child that spends all that is left
    is a leaf, scored from its parent's variances; one with a single
    observation left is scored from its own variance vector. The others are
    downdated over the points after the first pick of their block, in blocks
    of at most ``bound`` entries, and walked in turn.
    """
    p = len(noise)
    points = np.arange(p)
    var = np.maximum(np.diagonal(block, axis1=1, axis2=2), 0.0)
    ratio = var / noise
    open_ = points > last[:, None]
    # leaves: the whole remaining budget on one later point
    leaf = gain[:, None] + 0.5 * np.log1p(left[:, None] * ratio)
    best = np.max(leaf, where=open_, initial=-np.inf)
    # left - 1 observations of point j, then one of the best later point j'
    pre = np.flatnonzero(left >= 2)
    if len(pre):
        k = left[pre, None] - 1.0
        rest = block[pre]  # row j becomes the variances after the downdate at j
        rest /= np.sqrt(var[pre] + noise / k)[:, :, None]
        np.square(rest, out=rest)
        np.subtract(var[pre, None, :], rest, out=rest)
        np.maximum(rest, 0.0, out=rest)
        rest /= noise
        extra = np.max(rest, axis=2, where=points[:, None] < points, initial=0.0)
        del rest  # not held while the children are walked
        pair = gain[pre, None] + 0.5 * np.log1p(k * ratio[pre]) + 0.5 * np.log1p(extra)
        best = np.max(pair, where=open_[pre] & (points < p - 1), initial=best)
    # children with two or more observations left, ordered by point: child t
    # is the k-th count of pair (pick, row), k = t - ends[pair] + reps[pair] + 1
    pick, row = np.nonzero((open_ & (points < p - 1) & (left[:, None] >= 3)).T)
    reps = left[row] - 2
    ends = np.cumsum(reps)
    total = int(np.sum(reps))
    start = 0
    while start < total:
        base = pick[np.searchsorted(ends, start, side="right")] + 1
        # a node costs its covariance, its variance rows and its scalars
        stop = min(start + max(1, bound // (p - base + 1) ** 2), total)
        t = np.arange(start, stop)
        pair = np.searchsorted(ends, t, side="right")
        r, j, k = row[pair], pick[pair], t - ends[pair] + reps[pair] + 1
        w = block[r, base:, j] / np.sqrt(var[r, j] + noise[j] / k)[:, None]
        child = block[r, base:, base:]
        child -= w[:, :, None] * w[:, None, :]
        below = _count_walk(child, noise[base:], j - base, left[r] - k,
                            gain[r] + 0.5 * np.log1p(k * ratio[r, j]), bound)
        best = np.maximum(best, below)
        start = stop
    return best


def _capacity_greedy(state: PosteriorState, candidates: Sequence[int], budget: int) -> float:
    steps = greedy(_Blocks(state, (), candidates), _undirected_scores, multiset=True)
    gains = (float(scores[best]) for best, scores in islice(steps, budget))
    return sum(takewhile(lambda gain: gain > 0.0, gains), 0.0)


def information_capacity(state: PosteriorState, candidates: Sequence[int],
                         budget: int) -> tuple[float, bool]:
    """Maximum information obtainable from ``budget`` noisy observations of
    the candidates, repeats allowed, and whether that value is exact.

    It is exact when the C(|S| + n - 1, n) multisets of exactly n = ``budget``
    candidates (no smaller multiset gains more) are at most
    ``BRUTE_FORCE_CAP``: the walk of ``_best_grouped_gain`` enumerates them.
    Otherwise it is the value of greedy maximization, a (1 - 1/e)
    approximation by submodularity.
    """
    if budget < 0:
        raise InputError("budget must be nonnegative")
    if budget == 0 or not candidates:
        return 0.0, True
    if math.comb(len(candidates) + budget - 1, budget) > BRUTE_FORCE_CAP:
        return _capacity_greedy(state, candidates, budget), False
    pos = state.positions(candidates)
    cov = state.cov[np.ix_(pos, pos)]
    return _best_grouped_gain(cov, state.noise.vector(candidates), budget), True
