"""Joint Gaussian posterior over a finite domain, and its information metrics.

The conditional covariance is kept in two pieces, cov = base - F^T F: a dense
N x N ``base`` and a factor F with one row of N numbers per observation since
the last fold. ``condition_all`` appends its batch's rows to F and folds them
into the base once the p rows satisfy p^2 > N. The rule balances two costs
per observation: a pending row adds O(N) to every later downdate, so each
observation pays about O(p N) for the rows before it, while a fold writes N^2
numbers for p rows, O(N^2 / p) each; the two meet at p = sqrt(N), so only one
round in several writes an N x N array. A fold writes into ``out`` when
given: the round loop passes one N x N buffer of its own every round, so
from its first fold on it folds in place. ``out`` may be ``state.base``
only when the caller drops ``state`` and the states before it, which share
that base. Outside this module nothing reads the two pieces: every reader
of the covariance takes its blocks from a ``_Blocks``, and ``cov``, the
dense matrix, is an entry point for checks from outside the package.

Every conditioning step is one noise-inflated rank-one downdate,
``bace_update`` (GPML Alg. 2.1): observing x with noise rho^2(x), which only
the state's ``noise`` vector holds (an ``Observation`` is an index and a value),
appends the row w = (cov[:, x] - W^T W[:, x]) / s, with
s = sqrt(Var[f_x] + rho^2), to a factor W over the columns of a ``_Blocks``,
whose first rows are F at those columns. ``condition_all`` downdates blocks
over the whole domain, moves the mean by w (y - mu_x) / s per observation,
and folds by subtracting W^T W from the base in row blocks of about
``_BLOCK_ENTRIES`` entries, each formed by a GEMM on a transposed copy of W
(numpy's SYRK is several times slower on threaded OpenBLAS) and checked while
in cache. This matches batch conditioning from the prior in any order.
Downdates with no value yet keep W over targets and candidates and leave the
state alone: the batch gain downdates the target block at every point of the
batch, and ``greedy`` is the pick stream of every rule that downdates (BaCE
batches, the theory rollout, the kappa batch, greedy capacity and Markov
boundaries): the argmax of ``_itl_scores`` or ``_undirected_scores`` over the
blocks, then the downdate at the pick. The same downdate also updates the
running variances and cov[A, :] that the scorers read, so a rescore reads
O(width) numbers and makes no pass over W; each downdate still forms
W[:, x]^T W, so n picks cost O((p + n) n width).

On top of the state the module computes the exact information gain
I(f_A; y_x | D) in its backward form (``_itl_scores``, from the variances of
the blocks and of their twin), the exact batch gain I(f_A; y_B | D), whose
one-point batch [x] is the forward form of the gain, and the information
capacity over multisets X of the candidates (points may repeat)

    gamma_n = max_{X, |X| <= n} 1/2 log det(I + P_X^{-1} K_XX)

by exhaustive enumeration when its multisets number at most
``BRUTE_FORCE_CAP``, else by greedy maximization; the capacity reports which.
Exhaustive enumeration is a depth-first walk over observation counts: by the
chain rule, k observations of a point are one noise-inflated downdate at
noise rho^2 / k, so a node's covariance serves every multiset that extends it
and the cost per multiset does not grow with the budget. The walk is a branch
and bound: the greedy multiset's gain is its first incumbent, and a
grouped-Hadamard bound drops every subtree that cannot beat it, with a
margin that keeps the value bit-identical to the full enumeration.
"""

from __future__ import annotations

import math
from copy import copy
from dataclasses import dataclass, replace
from functools import cached_property
from itertools import islice, takewhile
from typing import Callable, Iterable, Iterator, Sequence

import numpy as np

from .errors import InputError, NumericError
from .kernels import _BLOCK_ENTRIES, JITTER_SCALE, KernelMatrix, _noise_vector, jittered

#: Most multisets that an exact capacity enumerates, counted as
#: C(|S| + n - 1, n) for n observations of a sample space S; past it the
#: capacity is the greedy value.
BRUTE_FORCE_CAP = 200_000


def chol_logdet(matrix: np.ndarray) -> float:
    """log det of a PSD matrix via Cholesky of its jittered copy (0 when empty)."""
    try:
        chol = np.linalg.cholesky(jittered(matrix))
    except np.linalg.LinAlgError as exc:
        raise NumericError(f"Cholesky factorization failed: {exc}") from exc
    if not np.isfinite(chol).all():
        raise NumericError("Cholesky factorization produced non-finite values")
    return 2.0 * float(np.sum(np.log(np.diag(chol))))


@dataclass(frozen=True)
class Observation:
    """One noisy measurement y = f(x) + eps, eps ~ N(0, rho^2(x)), at a domain
    index. The noise variance rho^2(x) is the posterior's ``noise`` at x.

    Repeated indices are allowed: each observation is an independent noisy
    measurement of the same latent value.
    """

    index: int
    value: float

    def __post_init__(self):
        if not math.isfinite(self.value):
            raise InputError("observation value must be finite")


@dataclass(frozen=True)
class PosteriorState:
    """Gaussian posterior over the domain after an observation history. The
    covariance is ``base`` minus the Gram of the ``factor`` rows not yet
    folded into it (N columns each, none when ``factor`` is None). ``noise``
    holds rho^2 at every position, given as one variance or N of them;
    InputError unless each is positive and finite."""

    gram: KernelMatrix
    noise: np.ndarray
    base: np.ndarray
    mean: np.ndarray
    history: tuple[Observation, ...] = ()
    factor: np.ndarray | None = None

    def __post_init__(self):
        object.__setattr__(self, "noise", _noise_vector(self.noise, self.gram.size))
        if self.factor is None:
            object.__setattr__(self, "factor", np.empty((0, self.gram.size)))

    @classmethod
    def from_prior(cls, gram: KernelMatrix, noise) -> "PosteriorState":
        """The zero-mean prior; the Gram's values are read-only, so it shares them."""
        return cls(gram=gram, noise=noise, base=gram.values, mean=np.zeros(gram.size))

    @property
    def cov(self) -> np.ndarray:
        """The dense covariance: ``base`` itself, or a fresh N x N fold of the
        pending rows into a copy of it."""
        return _fold(self.base, self.factor) if len(self.factor) else self.base

    @property
    def round(self) -> int:
        return len(self.history)


def condition(state: PosteriorState, obs: Observation) -> PosteriorState:
    """Condition the posterior on one observation (rank-one update)."""
    return condition_all(state, [obs])


def condition_all(state: PosteriorState, observations: Iterable[Observation], *,
                  out: np.ndarray | None = None) -> PosteriorState:
    """Condition the posterior on observations, in order, at ``state.noise``'s
    variances. A fold writes into ``out``, which may be ``state.base``, or
    into a fresh array when it is None."""
    observations = tuple(observations)
    if not observations:
        return state
    blocks = _Domain(state, (), state.gram.ids, len(observations))
    mean = state.mean.copy()
    for k, obs in enumerate(observations, blocks.width):
        j = state.gram.position(obs.index)
        scale = bace_update(blocks, j)
        mean += blocks.w[k] * ((obs.value - mean[j]) / scale)
    if not np.isfinite(mean).all():  # a non-finite factor row moves it too (inf * 0 is NaN)
        raise NumericError("conditioning produced non-finite values")
    w = blocks.w[:blocks.width]
    history = state.history + observations
    if len(w) ** 2 <= state.gram.size:
        return replace(state, mean=mean, history=history, factor=w)
    return replace(state, base=_fold(state.base, w, out), mean=mean, history=history,
                   factor=None)


def _fold(base: np.ndarray, w: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """base - w^T w into ``out`` (which may be ``base``) or a fresh array, in
    row blocks, each clamped on the diagonal and checked while in cache."""
    wt = np.ascontiguousarray(w.T)  # GEMM, not SYRK (see above)
    n = len(base)
    cov = np.empty_like(base) if out is None else out
    rows = max(1, _BLOCK_ENTRIES // n)
    product = np.empty((min(rows, n), n))  # apart from ``cov``, which may be ``base``
    for start in range(0, n, rows):
        block = cov[start:start + rows]
        np.matmul(wt[start:start + rows], w, out=product[:len(block)])
        np.subtract(base[start:start + rows], product[:len(block)], out=block)
        diag = block.reshape(-1)[start::n + 1]  # the block's part of the diagonal
        np.maximum(diag, 0.0, out=diag)
        if not np.isfinite(block).all():
            raise NumericError("conditioning produced non-finite values")
    return cov


class _Blocks:
    """The pieces of the conditional covariance that its readers take: the
    scorers, the round loop's metrics, the capacity and the Markov check.

    Columns are the targets A followed by the candidates C. W starts as the
    state's pending factor rows at these columns, and each downdate appends a
    row w to it, so every block is the state's base block minus the matching
    product of W columns, e.g. cov[A, C] = state.base[A, C] - W_A^T W_C. The
    scorers read two running pieces, the unclamped variances over A and C and
    cov[A, A and C]. Each is formed on first read, from the base block minus
    the rows so far, and from then on each downdate subtracts w^2 and w_A w^T
    from it, so a read makes no pass over W. ITL scoring adds a ``_twin``.
    """

    def __init__(self, state: PosteriorState, targets: Sequence[int],
                 candidates: Sequence[int], capacity: int = 0):
        self.state = state
        self.targets = tuple(targets)
        self.candidates = candidates
        self.na = len(self.targets)
        pending = self._pending()
        self.width = len(pending)  # factor rows in use, out of len(w)
        self.w = np.empty((self.width + capacity, self.na + len(candidates)))
        self.w[:self.width] = pending
        self.twin: _Blocks | None = None
        self._var: np.ndarray | None = None  # the running pieces, unformed
        self._cov_a: np.ndarray | None = None

    @cached_property
    def rows(self) -> np.ndarray:
        return self.state.gram.positions(self.targets + tuple(self.candidates))

    @cached_property
    def noise_c(self) -> np.ndarray:
        return self.state.noise[self.rows[self.na:]]

    @cached_property
    def inside(self) -> np.ndarray:  # whether each candidate is also a target
        return (self.rows[self.na:, None] == self.rows[:self.na]).any(axis=1)

    @cached_property
    def _k_a(self) -> np.ndarray:
        return self.state.base[self.rows[:self.na, None], self.rows]

    def _pending(self) -> np.ndarray:
        return self.state.factor[:, self.rows]

    def cov_a(self) -> np.ndarray:
        """cov[A, A] in the first |A| columns, cov[A, C] after them; the running
        piece itself, which the next downdate changes."""
        if self._cov_a is None:
            w = self.w[:self.width]
            self._cov_a = self._k_a - w[:, :self.na].T @ w
        return self._cov_a

    def var(self) -> np.ndarray:
        """Variances at A then C, clamped at zero."""
        if self._var is None:
            w = self.w[:self.width]
            self._var = self.state.base[self.rows, self.rows] - np.einsum("ij,ij->j", w, w)
        return np.maximum(self._var, 0.0)

    def column(self, i: int) -> np.ndarray:
        """Column ``i`` of the base, read as a row: the base is symmetric."""
        return self.state.base[self.rows[i]][self.rows]


class _Domain(_Blocks):
    """The whole domain in position order: no id lookups, rows read in place.
    Conditioning never reads the running pieces, so they are never formed."""

    @cached_property
    def noise_c(self) -> np.ndarray:
        return self.state.noise

    def _pending(self) -> np.ndarray:
        return self.state.factor

    def column(self, i: int) -> np.ndarray:
        return self.state.base[i]


def bace_update(blocks: _Blocks, pick: int) -> float:
    """Noise-inflated rank-one downdate at the candidate in position ``pick``.

    Appends the factor row of an observation there, at the noise variance
    ``blocks.noise_c[pick]``, to ``blocks`` and to its twin, both from one read
    of the state's column, and returns the blocks' scale s; conditioning on a
    value y also moves the mean by w (y - mu) / s.
    """
    i = blocks.na + pick
    rho2 = float(blocks.noise_c[pick])
    column = blocks.column(i)
    if blocks.twin is not None:
        _downdate(blocks.twin, i, rho2, column)
    return _downdate(blocks, i, rho2, column)


def _downdate(blocks: _Blocks, i: int, rho2: float, column: np.ndarray) -> float:
    """``bace_update``'s row at column ``i`` of ``blocks`` alone, from the
    state's ``column`` there; it updates the running pieces already formed,
    and a full factor doubles."""
    k = blocks.width
    if k == len(blocks.w):
        blocks.w = np.concatenate((blocks.w, np.empty((max(k, 1), blocks.w.shape[1]))))
    w, row = blocks.w[:k], blocks.w[k]
    np.subtract(column, w[:, i] @ w, out=row)
    scale = math.sqrt(max(float(row[i]), 0.0) + rho2)
    row /= scale
    blocks.width = k + 1
    if blocks._var is not None:
        blocks._var -= row * row
    if blocks._cov_a is not None:
        blocks._cov_a -= row[:blocks.na, None] * row
    return scale


def _twin(blocks: _Blocks, noise: np.ndarray) -> _Blocks:
    """A copy of ``blocks`` also downdated at every target a, at ``noise[a]`` plus
    j = ``JITTER_SCALE`` times the largest prior variance over A, which conditioning
    does not change; its rows at the targets are the Cholesky factor of
    cov[A, A] + diag(noise) + j I. It forms running pieces of its own."""
    pa = blocks.rows[:blocks.na]
    jitter = JITTER_SCALE * np.max(blocks.state.gram.values[pa, pa], initial=0.0)
    twin = copy(blocks)  # shares the state, the rows and the gathered pieces
    twin._var = twin._cov_a = None
    twin.w = np.concatenate((blocks.w, np.empty((blocks.na, blocks.w.shape[1]))))
    with np.errstate(divide="ignore", invalid="ignore"):  # a zero pivot is caught below
        for a, rho2 in enumerate(noise):
            _downdate(twin, a, float(rho2 + jitter), twin.column(a))
    if not np.isfinite(twin.w[blocks.width:twin.width]).all():
        raise NumericError("Cholesky factorization produced non-finite values")
    return twin


def _itl_scores(blocks: _Blocks, stabilize: bool) -> np.ndarray:
    """I(f_A; y_x | D) at every candidate x: 1/2 log(Var(y_x | D) / Var(y_x | D, f_A)),
    the second read from the twin, built on first use at noise j on the targets,
    or rho^2_a + j when ``stabilize`` puts y_A in place of f_A."""
    noise = blocks.noise_c
    denom = blocks.var()[blocks.na:] + noise
    if blocks.twin is None:
        noise_a = blocks.state.noise[blocks.rows[:blocks.na]] if stabilize else np.zeros(blocks.na)
        blocks.twin = _twin(blocks, noise_a)
    resid = blocks.twin.var()[blocks.na:] + noise
    if not stabilize:
        # in-target candidates have exact residual rho^2 (y_x independent of
        # f_{A \ x} given f_x); bypass the jitter's residue for them
        resid = np.where(blocks.inside, noise, resid)
    return np.maximum(0.5 * np.log(denom / resid), 0.0)


def _undirected_scores(blocks: _Blocks) -> np.ndarray:
    """I(f_x; y_x | D) = 1/2 log(1 + sigma^2(x)/rho^2(x)) at every candidate x."""
    return 0.5 * np.log1p(blocks.var()[blocks.na:] / blocks.noise_c)


def greedy(blocks: _Blocks, score: Callable[[_Blocks], np.ndarray], *,
           multiset: bool = False) -> Iterator[tuple[int, np.ndarray]]:
    """Greedy picks over the candidates of ``blocks``.

    Yields (position, scores) at the argmax of ``score(blocks)``, lowest
    position on ties, with earlier picks at -inf unless ``multiset``; every
    ``score`` returns a fresh array, which the picks mask in place. The
    noise-inflated downdate at a pick runs only when the generator is resumed,
    so ``islice(greedy(...), b)`` never pays for the b-th one.
    """
    taken = np.zeros(len(blocks.candidates), dtype=bool)
    while True:
        scores = score(blocks)
        if not multiset:
            scores[taken] = -np.inf
        best = int(np.argmax(scores))
        yield best, scores
        taken[best] = True
        bace_update(blocks, best)


def information_gain(state: PosteriorState, targets: Sequence[int], candidate: int) -> float:
    """I(f_A; y_x | D_n) for a nonempty target set A, nonnegative, by the
    backward method (``_itl_scores``). The forward method is
    ``batch_information_gain(state, targets, [x])``; the two agree to high accuracy.
    """
    if len(targets) == 0:
        raise InputError("target set must be nonempty")
    return float(_itl_scores(_Blocks(state, targets, [candidate]), False)[0])


def batch_information_gain(state: PosteriorState, targets: Sequence[int],
                           batch: Sequence[int]) -> float:
    """I(f_A; y_B | D_n) for a (multi)set B of candidate indices: half the log
    determinant of the target block before over after a downdate at every
    position of B (a repeated index is its own measurement)."""
    if len(batch) == 0:
        return 0.0
    before = chol_logdet(_Blocks(state, targets, ()).cov_a())
    blocks = _Blocks(state, targets, batch, len(batch))
    for pick in range(len(batch)):
        bace_update(blocks, pick)
    return max(0.5 * (before - chol_logdet(blocks.cov_a()[:, :blocks.na])), 0.0)


def _best_grouped_gain(cov: np.ndarray, noise: np.ndarray, size: int,
                       floor: float = -math.inf) -> float:
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

    ``floor`` is the gain of some multiset of at most ``size`` points, such as
    the greedy one. The walk drops every child whose grouped-Hadamard bound
    g + m/2 log(1 + r q / m) is below it (proof at ``_count_walk``) and
    returns the same value as without it. Pruning may skip entries, so a
    non-finite ``cov`` is refused before the walk.
    """
    if not np.isfinite(cov).all():
        raise NumericError("capacity enumeration read a non-finite covariance")
    entries = _BLOCK_ENTRIES // max(min(len(noise), size), 1)
    best = _count_walk(cov[None], noise, np.array([-1]), np.array([size]), np.zeros(1),
                       entries, floor)
    best = float(np.maximum(best, 0.0))
    if not math.isfinite(best):
        raise NumericError("capacity enumeration produced a non-finite gain")
    return best


def _count_walk(block: np.ndarray, noise: np.ndarray, last: np.ndarray, left: np.ndarray,
                gain: np.ndarray, entries: int, cut: float) -> np.floating:
    """Best gain below a block of walk nodes (NaN if any gain read is NaN),
    pruned at the incumbent ``cut``.

    ``block`` stacks the nodes' covariances over the trailing points whose
    noise is ``noise``. A node has observed points up to ``last`` (local
    index, -1 for none), has ``left`` observations to spend on later points
    and has gained ``gain``. A child observes a later point j exactly k times:
    one noise-inflated rank-one downdate at noise rho_j^2 / k, gaining
    1/2 log(1 + k sigma^2(j) / rho_j^2). A child that spends all that is left
    is a leaf, scored from its parent's variances; one with a single
    observation left is scored from its own variance vector. The others are
    downdated over the points after the first pick of their block, in blocks
    of at most ``entries`` entries, and walked in turn.

    Branch and bound: a child with gain g and r = left - k observations still
    to place on the m' points after j gains at most

        g + m/2 log(1 + r q / m),  m = min(r, m'),

    where q is the largest sigma^2 / rho^2 over those points at the parent.
    (1) By Hadamard's inequality on grouped counts, the r observations gain at
    most sum_t 1/2 log(1 + r_t sigma_t^2 / rho_t^2) over their at most m
    distinct points t, with sigma_t^2 the child's variances. (2) Conditioning
    only lowers variances, so each sigma_t^2 / rho_t^2 <= q. (3) log(1 + x) is
    concave, so an even spread of the r counts is the best case, and
    m/2 log(1 + r q / m) grows with the number of points m. Before a
    block of children is expanded, every child whose bound is below
    cut - 1e-9 |cut| is dropped; ``cut`` rises to the best leaf or pair of
    the nodes and to the value of each walked subtree. The margin keeps
    rounding from pruning the argmax leaf, so the value is the unpruned one.
    A NaN ``cut`` prunes nothing.
    """
    p = len(noise)
    points = np.arange(p)
    var = np.maximum(np.diagonal(block, axis1=1, axis2=2), 0.0)
    ratio = var / noise
    open_ = points > last[:, None]
    # leaves: the whole remaining budget on one later point
    leaf = gain[:, None] + 0.5 * np.log1p(left[:, None] * ratio)
    best = np.where(open_, leaf, -np.inf).max()
    if left[0] < 2:  # a root with one observation; every other node has two or more left
        return best
    # left - 1 observations of point j, then one of the best later point j'
    k = left[:, None] - 1.0
    rest = block / np.sqrt(var + noise / k)[:, :, None]  # row j: variances after a downdate at j
    np.square(rest, out=rest)
    np.subtract(var[:, None, :], rest, out=rest)
    np.maximum(rest, 0.0, out=rest)
    rest /= noise
    extra = np.where(points[:, None] < points, rest, 0.0).max(axis=2)
    del rest  # not held while the children are walked
    pair = gain[:, None] + 0.5 * np.log1p(k * ratio) + 0.5 * np.log1p(extra)
    inner = open_ & (points < p - 1)
    best = np.maximum(best, np.where(inner, pair, -np.inf).max())
    # children with two or more observations left, ordered by point: child t
    # is the k-th count of pair (pick, row), k = t - ends[pair] + reps[pair] + 1
    pick, row = np.nonzero((inner & (left[:, None] >= 3)).T)
    if not len(pick):
        return best
    reps = left[row] - 2
    ends = np.cumsum(reps)
    # the bound's q and m' for each pair: the largest ratio after the pick, and
    # the number of points after it
    top = np.maximum.accumulate(ratio[:, ::-1], axis=1)[:, ::-1]  # largest ratio from i on
    q, after = top[row, pick + 1], p - 1 - pick
    cut = max(cut, best)
    start = 0
    while start < ends[-1]:
        base = pick[np.searchsorted(ends, start, side="right")] + 1
        # a node costs its covariance, its variance rows and its scalars
        stop = min(start + max(1, entries // (p - base + 1) ** 2), ends[-1])
        t = np.arange(start, stop)
        start = stop
        pair = np.searchsorted(ends, t, side="right")
        r, j, k = row[pair], pick[pair], t - ends[pair] + reps[pair] + 1
        spare = left[r] - k
        m = np.minimum(spare, after[pair])
        g = gain[r] + 0.5 * np.log1p(k * ratio[r, j])
        keep = ~(g + 0.5 * m * np.log1p(spare / m * q[pair]) < cut - 1e-9 * abs(cut))
        if not keep.all():
            r, j, k, spare, g = r[keep], j[keep], k[keep], spare[keep], g[keep]
            if not len(r):
                continue
        base = j[0] + 1
        w = block[r, base:, j] / np.sqrt(var[r, j] + noise[j] / k)[:, None]
        child = block[r, base:, base:]
        child -= w[:, :, None] * w[:, None, :]
        below = _count_walk(child, noise[base:], j - base, spare, g, entries, cut)
        best = np.maximum(best, below)
        cut = max(cut, below)
    return best


def _greedy_gains(state: PosteriorState, candidates: Sequence[int], budget: int) -> list[float]:
    """Gains of the first ``budget`` greedy multiset picks by undirected ITL, up
    to the first that gains nothing; the sum of the first n is the greedy
    capacity of n observations."""
    steps = greedy(_Blocks(state, (), candidates, budget), _undirected_scores, multiset=True)
    gains = (float(scores[best]) for best, scores in islice(steps, budget))
    return list(takewhile(lambda gain: gain > 0.0, gains))


def _capacity_greedy(state: PosteriorState, candidates: Sequence[int], budget: int) -> float:
    return sum(_greedy_gains(state, candidates, budget), 0.0)


def information_capacity(state: PosteriorState, candidates: Sequence[int],
                         budget: int) -> tuple[float, bool]:
    """Maximum information obtainable from ``budget`` noisy observations of
    the candidates, repeats allowed, and whether that value is exact.

    It is exact when the C(|S| + n - 1, n) multisets of exactly n = ``budget``
    candidates (no smaller multiset gains more) are at most
    ``BRUTE_FORCE_CAP``: the walk of ``_best_grouped_gain`` enumerates them,
    from budget 3 on pruned below the gain of the greedy multiset of
    min(n, |S|) picks (more observations never lower the gain). Otherwise it
    is the value of greedy maximization, a (1 - 1/e) approximation by
    submodularity.
    """
    if budget < 0:
        raise InputError("budget must be nonnegative")
    if budget == 0 or not candidates:
        return 0.0, True
    if math.comb(len(candidates) + budget - 1, budget) > BRUTE_FORCE_CAP:
        return _capacity_greedy(state, candidates, budget), False
    blocks = _Blocks(state, candidates, ())  # cov[S, S] is its target block
    floor = -math.inf  # walks below budget 3 have no children to prune
    if budget >= 3:  # each greedy step reads every earlier factor row, so stop at |S| picks
        floor = _capacity_greedy(state, candidates, min(budget, len(candidates)))
    return _best_grouped_gain(blocks.cov_a(), state.noise[blocks.rows], budget, floor), True
