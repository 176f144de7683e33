"""Decision rules, greedy batch selection, and the round loop.

Rule catalog (higher score wins):

    itl               I(f_A; y_x | D_{n-1}), backward evaluation
    ctl               sum_{x' in A} Cor(f_x, f_x' | D_{n-1})
    uncertainty       sigma_{n-1}^2(x)
    undirected-itl    I(f_x; y_x | D_{n-1}) = 1/2 log(1 + sigma^2(x)/rho^2(x))
    max-dist          min kernel distance to previously selected points
    kmeans++          sampled prop. to squared distance to nearest selected
    cosine            mean prior correlation between x and the targets
    random            uniform over the candidate pool

Every batch is the first b picks of its rule's pick stream, a generator of
(position, scores) that updates only when asked for its next pick, so the
b-th pick pays for no update. A BaCE batch ("bace": after each pick the
remaining candidates are re-scored under the rank-one downdate at the pick
x, inflated by the state's noise rho^2(x)) streams ``posterior.greedy``. A
top-b batch ("topb") streams one pass's scores in descending order, as does
cosine's BaCE batch, since its scores ignore the picks; random streams one
sorted draw. Max-dist and kmeans++ read only the picks: their streams make
no downdates and keep the nearest distances, which each pick lowers. Ties
break toward the lowest index. Scorers read cov[A, A], cov[A, C] and the
variances at targets A and candidates C from a ``posterior._Blocks``, the
one reader of the state's covariance, and so do the round loop's metrics;
in-batch downdates are factor rows over A and C. The round loop conditions
once per batch on (index, label) observations, folding into one N x N
buffer of its own. All of them read rho^2(x) from the state's ``noise``
vector.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass
from itertools import combinations, islice, repeat
from typing import Callable, Iterable, Iterator, Sequence

import numpy as np
from numpy.random import Generator, default_rng

from .data import RoundEntry, RunRecord
from .errors import DataError, InputError
from .posterior import (
    Observation,
    PosteriorState,
    _Blocks,
    _itl_scores,
    _undirected_scores,
    bace_update,  # noqa: F401  (public name here; tracing tools wrap it)
    batch_information_gain,
    condition,  # noqa: F401  (public name here; tracing tools wrap it)
    condition_all,
    greedy,
)

ITL = "itl"
CTL = "ctl"
UNCERTAINTY = "uncertainty"
UNDIRECTED_ITL = "undirected-itl"
MAX_DIST = "max-dist"
KMEANS_PP = "kmeans++"
COSINE = "cosine"
RANDOM = "random"

RULES = (ITL, CTL, UNCERTAINTY, UNDIRECTED_ITL, MAX_DIST, KMEANS_PP, COSINE, RANDOM)
TARGET_RULES = frozenset((ITL, CTL, COSINE))

BRUTE_FORCE_BATCH_CAP = 100_000
_DEGENERATE_VAR = 1e-12


@dataclass(frozen=True)
class Policy:
    """A named decision rule plus its batch and sampling parameters."""

    rule: str
    batch_size: int = 1
    batch_mode: str = "bace"
    target_subsample: int | None = None
    seed: int = 0
    stabilize: bool = True

    def __post_init__(self):
        if self.rule not in RULES:
            raise InputError(f"unknown rule {self.rule!r}; choose from {RULES}")
        if self.batch_size < 1:
            raise InputError("batch size must be at least 1")
        if self.batch_mode not in ("bace", "topb"):
            raise InputError("batch_mode must be 'bace' or 'topb'")
        if self.target_subsample is not None and self.target_subsample < 1:
            raise InputError("target subsample size must be at least 1")


@dataclass(frozen=True)
class BatchResult:
    """Ordered picks with their per-step objective values."""

    indices: tuple[int, ...]
    objectives: tuple[float, ...]


# ---------------------------------------------------------------------------
# scorers (vectorized over the candidate list)
# ---------------------------------------------------------------------------

def _ctl_scores(blocks: _Blocks) -> np.ndarray:
    """sum_a Cor(f_a, f_x | D) at every candidate x, as one matrix-vector product."""
    var = blocks.var()
    scale = np.where(var < _DEGENERATE_VAR, 0.0, np.maximum(var, _DEGENERATE_VAR) ** -0.5)
    return scale[blocks.na:] * (scale[:blocks.na] @ blocks.cov_a()[:, blocks.na:])


def _prior_cosine_scores(blocks: _Blocks) -> np.ndarray:
    prior = blocks.state.gram.values
    pa, pc = blocks.rows[:blocks.na], blocks.rows[blocks.na:]
    diag = np.maximum(np.diag(prior), _DEGENERATE_VAR)
    corr = prior[np.ix_(pc, pa)] / np.sqrt(diag[pc][:, None] * diag[pa][None, :])
    return corr.mean(axis=1)


def _min_sq_distances(state: PosteriorState, candidates: Sequence[int],
                      selected: Sequence[int]) -> np.ndarray:
    """Squared prior kernel distance to the nearest selected point."""
    prior = state.gram.values
    pc = state.gram.positions(candidates)
    ps = state.gram.positions(selected)
    diag = np.diag(prior)
    d2 = diag[pc][:, None] + diag[ps][None, :] - 2.0 * prior[np.ix_(pc, ps)]
    return np.maximum(d2, 0.0).min(axis=1)


def _score_candidates(blocks: _Blocks, policy: Policy) -> np.ndarray:
    rule = policy.rule
    if rule in TARGET_RULES and not blocks.targets:
        raise InputError(f"rule {rule!r} needs a nonempty target set")
    if rule == ITL:
        return _itl_scores(blocks, policy.stabilize)
    if rule == CTL:
        return _ctl_scores(blocks)
    if rule == UNCERTAINTY:
        return blocks.var()[blocks.na:]
    if rule == UNDIRECTED_ITL:
        return _undirected_scores(blocks)
    if rule == COSINE:
        return _prior_cosine_scores(blocks)
    raise InputError(f"rule {rule!r} is not a scored rule")


def select_batch(state: PosteriorState, targets: Sequence[int],
                 candidates: Sequence[int], policy: Policy, *,
                 rng: Generator | None = None) -> BatchResult:
    """Select a batch of ``policy.batch_size`` distinct candidates: the first
    b picks of the rule's pick stream."""
    cand = sorted(map(int, candidates))
    if len(set(cand)) != len(cand):
        raise InputError("candidate list contains duplicates")
    b = policy.batch_size
    if b > len(cand):
        raise InputError(f"batch size {b} exceeds the candidate pool ({len(cand)})")
    if rng is None:
        rng = default_rng(policy.seed)
    targets = tuple(map(int, targets))

    if policy.rule == RANDOM:
        draw = sorted(rng.choice(len(cand), size=b, replace=False).tolist())
        steps = zip(draw, repeat(np.zeros(len(cand))))
    elif policy.rule == KMEANS_PP:
        steps = _kmeanspp_picks(state, cand, rng)
    elif policy.rule == MAX_DIST:
        steps = _max_dist_picks(state, cand, policy.batch_mode == "bace")
    else:
        # uncertainty rules never read the target blocks, so no rows are kept for them
        blocks = _Blocks(state, targets if policy.rule in TARGET_RULES else (), cand, b - 1)
        if policy.batch_mode == "topb" or policy.rule == COSINE:
            # cosine's scores ignore the picks, so its BaCE batch is its top-b batch
            scores = _score_candidates(blocks, policy)
            steps = zip(np.lexsort((np.array(cand), -scores)), repeat(scores))
        else:
            steps = greedy(blocks, lambda blocks: _score_candidates(blocks, policy))
    indices, objectives = zip(*[(cand[i], float(scores[i])) for i, scores in islice(steps, b)])
    return BatchResult(indices=indices, objectives=objectives)


def _max_dist_picks(state: PosteriorState, cand: list[int],
                    lower: bool) -> Iterator[tuple[int, np.ndarray]]:
    """Max-dist picks: the farthest open candidate from the nearest observed
    point; with ``lower`` (a greedy batch) each pick counts as observed for
    the picks after it."""
    selected = [obs.index for obs in state.history]
    d2 = _min_sq_distances(state, cand, selected) if selected else None
    taken = np.zeros(len(cand), dtype=bool)
    while True:
        scores = np.zeros(len(cand)) if d2 is None else np.sqrt(d2)
        best = int(np.argmax(np.where(taken, -np.inf, scores)))
        yield best, scores
        taken[best] = True
        if lower:
            near = _min_sq_distances(state, cand, [cand[best]])
            d2 = near if d2 is None else np.minimum(d2, near)


def _kmeanspp_picks(state: PosteriorState, cand: list[int],
                    rng: Generator) -> Iterator[tuple[int, np.ndarray]]:
    """kmeans++ picks, each drawn with probability proportional to the
    squared distance to the nearest observed point or earlier pick, which is
    exactly 0 at a pick."""
    selected = [obs.index for obs in state.history]
    d2 = _min_sq_distances(state, cand, selected) if selected else None
    taken = np.zeros(len(cand), dtype=bool)
    while True:
        if d2 is None:
            choice, scores = int(rng.choice(len(cand))), np.zeros(len(cand))
        else:
            total = float(d2.sum())
            probs = d2 / total if total > 0 else ~taken / float(np.sum(~taken))
            choice, scores = int(rng.choice(len(cand), p=probs)), d2
        yield choice, scores
        taken[choice] = True
        near = _min_sq_distances(state, cand, [cand[choice]])
        d2 = near if d2 is None else np.minimum(d2, near)


def brute_force_batch(state: PosteriorState, targets: Sequence[int],
                      candidates: Sequence[int], batch_size: int) -> BatchResult:
    """Exact argmax of I(f_A; y_B | D) over all size-b candidate subsets."""
    cand = sorted(int(c) for c in candidates)
    if batch_size < 1 or batch_size > len(cand):
        raise InputError("batch size must lie in [1, |candidates|]")
    count = math.comb(len(cand), batch_size)
    if count > BRUTE_FORCE_BATCH_CAP:
        raise InputError(f"{count} subsets exceed the exhaustive-search limit")
    targets = tuple(int(t) for t in targets)
    best_value = -1.0
    best_combo: tuple[int, ...] = ()
    for combo in combinations(cand, batch_size):
        value = batch_information_gain(state, targets, combo)
        if value > best_value + 1e-15:
            best_value, best_combo = value, combo
    values = [batch_information_gain(state, targets, best_combo[:i])
              for i in range(batch_size + 1)]
    return BatchResult(indices=best_combo, objectives=tuple(np.diff(values).tolist()))


def subsample_targets(targets: Sequence[int], m: int,
                      rng: Generator) -> tuple[int, ...]:
    """Draw m target indices uniformly without replacement."""
    targets = list(targets)
    if m < 1:
        raise InputError("target subsample size must be at least 1")
    if m > len(targets):
        raise InputError(f"cannot draw {m} targets from {len(targets)}")
    picks = rng.choice(len(targets), size=m, replace=False)
    return tuple(sorted(targets[i] for i in picks))


# ---------------------------------------------------------------------------
# round loop
# ---------------------------------------------------------------------------

def run_loop(state: PosteriorState, targets: Sequence[int],
             sample_space: Sequence[int],
             policy: Policy, oracle: Callable[[int], float], rounds: int, *,
             candidate_size: int | None = None, relevant: Iterable[int] = (),
             truth: dict[int, float] | None = None,
             config: dict | None = None, timings: bool = False) -> RunRecord:
    """Run ``rounds`` of candidate sampling, batch selection and conditioning.

    Per round: draw a candidate set from the sample space, subsample the
    targets when the policy asks for it, select a batch, obtain labels from
    the oracle, and condition the posterior. Only sample-space indices are
    ever queried; the targets stay unlabeled.
    """
    targets = tuple(int(t) for t in targets)
    relevant = frozenset(int(r) for r in relevant)
    rng = default_rng(policy.seed)
    record = RunRecord(config=dict(config or {}))
    retrieved: set[int] = set()
    truth_a = None if truth is None else np.array([truth[t] for t in targets])

    def metrics(round_no: int, batch: tuple[int, ...], objectives: tuple[float, ...],
                elapsed: float) -> RoundEntry:
        blocks = _Blocks(state, targets, ())
        var = blocks.var()
        rmse = None
        if truth_a is not None:
            residual = state.mean[blocks.rows] - truth_a
            rmse = float(np.sqrt(np.mean(residual ** 2)))
        return RoundEntry(
            round=round_no, chosen=batch, objectives=objectives,
            mean_variance=float(var.mean()), max_variance=float(var.max()),
            relevant_picks=sum(1 for i in batch if i in relevant),
            distinct_relevant=len(retrieved), rmse=rmse,
            wall_time=elapsed if timings else 0.0)

    record.append(metrics(0, (), (), 0.0))
    buffer = np.empty_like(state.gram.values)  # every fold of the run writes here
    pool = sorted(int(s) for s in sample_space)
    for round_no in range(1, rounds + 1):
        start = time.perf_counter()
        if candidate_size is not None and candidate_size < len(pool):
            picks = rng.choice(len(pool), size=int(candidate_size), replace=False)
            cand = sorted(pool[i] for i in picks)
        else:
            cand = pool
        round_targets = targets
        if policy.target_subsample is not None and policy.target_subsample < len(targets):
            round_targets = subsample_targets(targets, policy.target_subsample, rng)
        batch = select_batch(state, round_targets, cand, policy, rng=rng)
        observations = []
        for index in batch.indices:
            try:
                value = float(oracle(index))
            except DataError:
                raise
            except Exception as exc:
                raise DataError(f"oracle failed for index {index}: {exc}") from exc
            observations.append(Observation(index, value))
        state = condition_all(state, observations, out=buffer)
        retrieved.update(i for i in batch.indices if i in relevant)
        record.append(metrics(round_no, batch.indices, batch.objectives,
                              time.perf_counter() - start))
    return record
