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
sorted draw. Max-dist and kmeans++ share one stream, which makes no
downdates and keeps each candidate's squared distance to its nearest
observed point. The two differ only in how they choose a pick (the farthest
open candidate, or a draw proportional to the squared distance) and in
whether a top-b batch lowers the distances at each pick (kmeans++ does,
max-dist does not). Ties break toward the lowest index. Every rule refuses
a candidate outside the Gram. Scorers read cov[A, A], cov[A, C] and the
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
from functools import partial
from itertools import combinations, islice, repeat
from numbers import Integral
from typing import Callable, Iterable, Iterator, Sequence

import numpy as np
from numpy.random import Generator, default_rng

from .data import RoundEntry, RunRecord, _truth_vector
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
        _require_count(self.batch_size, "batch size")
        if self.batch_mode not in ("bace", "topb"):
            raise InputError("batch_mode must be 'bace' or 'topb'")
        if self.target_subsample is not None:
            _require_count(self.target_subsample, "target subsample size")


def _require_count(value, what: str) -> None:
    """InputError unless ``value`` is an integer (numpy's too, a bool not) of at least 1."""
    if isinstance(value, bool) or not isinstance(value, Integral) or value < 1:
        raise InputError(f"{what} must be an integer of at least 1, got {value!r}")


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


def _scorer(policy: Policy) -> Callable[[_Blocks], np.ndarray]:
    """The scored rule's vectorized scorer, looked up in the module's current names."""
    return {ITL: partial(_itl_scores, stabilize=policy.stabilize),
            CTL: _ctl_scores,
            UNCERTAINTY: lambda blocks: blocks.var()[blocks.na:],
            UNDIRECTED_ITL: _undirected_scores,
            COSINE: _prior_cosine_scores}[policy.rule]


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
    if policy.rule in TARGET_RULES and not targets:
        raise InputError(f"rule {policy.rule!r} needs a nonempty target set")

    if policy.rule in (RANDOM, MAX_DIST, KMEANS_PP):
        state.gram.positions(cand)  # a scored rule's _Blocks checks its own candidates
    if policy.rule == RANDOM:
        draw = sorted(rng.choice(len(cand), size=b, replace=False).tolist())
        steps = zip(draw, repeat(np.zeros(len(cand))))
    elif policy.rule in (MAX_DIST, KMEANS_PP):
        kmeans = policy.rule == KMEANS_PP
        steps = _distance_picks(state, cand, rng if kmeans else None,
                                kmeans or policy.batch_mode == "bace")
    else:
        # uncertainty rules never read the target blocks, so no rows are kept for them
        blocks = _Blocks(state, targets if policy.rule in TARGET_RULES else (), cand, b - 1)
        score = _scorer(policy)
        if policy.batch_mode == "topb" or policy.rule == COSINE:
            # cosine's scores ignore the picks, so its BaCE batch is its top-b batch
            scores = score(blocks)
            steps = zip(np.lexsort((np.array(cand), -scores)), repeat(scores))
        else:
            steps = greedy(blocks, score)
    indices, objectives = zip(*[(cand[i], float(scores[i])) for i, scores in islice(steps, b)])
    return BatchResult(indices=indices, objectives=objectives)


def _distance_picks(state: PosteriorState, cand: list[int], draw: Generator | None,
                    lower: bool) -> Iterator[tuple[int, np.ndarray]]:
    """Picks by d2, the squared prior kernel distance to the nearest observed
    point: max-dist (``draw`` None) takes the farthest open candidate, kmeans++
    draws with probability proportional to d2, uniformly while there is no d2
    or it is all 0. With ``lower`` each pick counts as observed for the picks
    after it, so d2 is exactly 0 at a pick."""
    selected = [obs.index for obs in state.history]
    d2 = _min_sq_distances(state, cand, selected) if selected else None
    taken = np.zeros(len(cand), dtype=bool)
    while True:
        if draw is None:
            scores = np.zeros(len(cand)) if d2 is None else np.sqrt(d2)
            best = int(np.argmax(np.where(taken, -np.inf, scores)))
        elif d2 is None:
            best, scores = int(draw.choice(len(cand))), np.zeros(len(cand))
        else:
            total = float(d2.sum())
            probs = d2 / total if total > 0 else ~taken / float(np.sum(~taken))
            best, scores = int(draw.choice(len(cand), p=probs)), d2
        yield best, scores
        taken[best] = True
        if lower:
            near = _min_sq_distances(state, cand, [cand[best]])
            d2 = near if d2 is None else np.minimum(d2, near)


def brute_force_batch(state: PosteriorState, targets: Sequence[int],
                      candidates: Sequence[int], batch_size: int) -> BatchResult:
    """Exact argmax of I(f_A; y_B | D) over all size-b candidate subsets."""
    cand = sorted(int(c) for c in candidates)
    if len(set(cand)) != len(cand):
        raise InputError("candidate list contains duplicates")
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
    _require_count(m, "target subsample size")
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
             truth: np.ndarray | None = None,
             config: dict | None = None, timings: bool = False) -> RunRecord:
    """Run ``rounds`` of candidate sampling, batch selection and conditioning.

    Per round: draw a candidate set from the sample space, subsample the
    targets when the policy asks for it, select a batch, obtain labels from
    the oracle, and condition the posterior. Only sample-space indices are
    ever queried; the targets stay unlabeled. ``truth`` is f* at each position.
    """
    targets = tuple(int(t) for t in targets)
    if not targets:
        raise InputError("target set must be nonempty")
    truth = None if truth is None else _truth_vector(truth, state.gram.size)
    relevant = frozenset(int(r) for r in relevant)
    rng = default_rng(policy.seed)
    record = RunRecord(config=dict(config or {}))
    retrieved: set[int] = set()

    def metrics(round_no: int, batch: tuple[int, ...], objectives: tuple[float, ...],
                elapsed: float) -> RoundEntry:
        blocks = _Blocks(state, targets, ())
        var, rows = blocks.var(), blocks.rows
        rmse = (None if truth is None
                else float(np.sqrt(np.mean((state.mean[rows] - truth[rows]) ** 2))))
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
