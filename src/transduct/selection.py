"""Decision rules, greedy batch selection, and the round loop.

Rule catalog (higher score wins; argmin rules are negated internally):

    itl               I(f_A; y_x | D_{n-1}), backward evaluation
    ctl               sum_{x' in A} Cor(f_x, f_x' | D_{n-1})
    uncertainty       sigma_{n-1}^2(x)
    undirected-itl    I(f_x; y_x | D_{n-1}) = 1/2 log(1 + sigma^2(x)/rho^2(x))
    max-dist          min kernel distance to previously selected points
    kmeans++          sampled prop. to squared distance to nearest selected
    cosine            mean prior correlation between x and the targets
    info-density      softmax entropy times (mean cosine)^beta
    max-entropy       entropy of the softmax row at x
    max-margin        -(p1 - p2) of the softmax row
    least-confidence  -p1 of the softmax row
    random            uniform over the candidate pool

Batches are built either greedily with conditional-embedding updates
("bace": after each pick the remaining candidates are re-scored under the
noise-inflated rank-one downdate at the pick) or by taking the top-b scores
of a single pass ("topb"). Ties always break toward the lowest index.
Scorers read cov[A, A], cov[A, C] and the variances at targets A and candidates
C from ``posterior``'s factor blocks, where in-batch downdates (``bace_update``)
are factor rows over A and C; the round loop conditions once per batch.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass
from itertools import combinations
from typing import Callable, Iterable, Sequence

import numpy as np

from .data import RoundEntry, RunRecord
from .errors import DataError, InputError
from .posterior import (
    IGQuery,
    Observation,
    PosteriorState,
    _Blocks,
    _itl_scores,
    bace_update,
    batch_information_gain,
    condition,  # noqa: F401  (public name here; tracing tools wrap it)
    condition_all,
    information_gain,
)

ITL = "itl"
CTL = "ctl"
UNCERTAINTY = "uncertainty"
UNDIRECTED_ITL = "undirected-itl"
MAX_DIST = "max-dist"
KMEANS_PP = "kmeans++"
COSINE = "cosine"
INFO_DENSITY = "info-density"
MAX_ENTROPY = "max-entropy"
MAX_MARGIN = "max-margin"
LEAST_CONFIDENCE = "least-confidence"
RANDOM = "random"

RULES = (ITL, CTL, UNCERTAINTY, UNDIRECTED_ITL, MAX_DIST, KMEANS_PP, COSINE,
         INFO_DENSITY, MAX_ENTROPY, MAX_MARGIN, LEAST_CONFIDENCE, RANDOM)
SOFTMAX_RULES = frozenset((MAX_ENTROPY, MAX_MARGIN, LEAST_CONFIDENCE, INFO_DENSITY))
TARGET_RULES = frozenset((ITL, CTL, COSINE, INFO_DENSITY))
#: rules whose scores change when the conditional covariance is downdated
_POSTERIOR_RULES = frozenset((ITL, CTL, UNCERTAINTY, UNDIRECTED_ITL))

BRUTE_FORCE_BATCH_CAP = 100_000
_DEGENERATE_VAR = 1e-12


@dataclass(frozen=True)
class SoftmaxTable:
    """Per-candidate class-probability rows, aligned with an id list."""

    probs: np.ndarray
    ids: tuple[int, ...]

    def __post_init__(self):
        probs = np.asarray(self.probs, dtype=np.float64)
        if probs.ndim != 2 or probs.shape[0] != len(self.ids):
            raise InputError("softmax table shape does not match its id list")
        if np.any(probs < 0) or np.any(np.abs(probs.sum(axis=1) - 1.0) > 1e-6):
            raise InputError("softmax rows must be nonnegative and sum to 1")
        probs.setflags(write=False)
        object.__setattr__(self, "probs", probs)
        object.__setattr__(self, "ids", tuple(int(i) for i in self.ids))
        object.__setattr__(self, "_pos", {i: p for p, i in enumerate(self.ids)})

    def rows(self, indices: Sequence[int]) -> np.ndarray:
        pos = getattr(self, "_pos")
        try:
            return self.probs[[pos[i] for i in indices]]
        except KeyError as exc:
            raise InputError(f"softmax table has no row for index {exc.args[0]}") from None


@dataclass(frozen=True)
class Policy:
    """A named decision rule plus its batch and sampling parameters."""

    rule: str
    batch_size: int = 1
    batch_mode: str = "bace"
    target_subsample: int | None = None
    seed: int = 0
    rho: float = 1.0
    beta: float = 1.0
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
        if not self.rho > 0:
            raise InputError("policy noise scale rho must be positive")
        if not self.beta > 0:
            raise InputError("information-density beta must be positive")


@dataclass(frozen=True)
class BatchResult:
    """Ordered picks with their per-step objective values."""

    indices: tuple[int, ...]
    objectives: tuple[float, ...]


# ---------------------------------------------------------------------------
# scorers (vectorized over the candidate list)
# ---------------------------------------------------------------------------

def _ctl_scores(blocks: _Blocks) -> np.ndarray:
    var = blocks.var()
    var_a, var_c = var[:blocks.na], var[blocks.na:]
    cross = blocks.cov_a()[:, blocks.na:].T
    denom = np.sqrt(np.maximum(var_c, _DEGENERATE_VAR)[:, None]
                    * np.maximum(var_a, _DEGENERATE_VAR)[None, :])
    corr = cross / denom
    corr[:, var_a < _DEGENERATE_VAR] = 0.0
    corr[var_c < _DEGENERATE_VAR, :] = 0.0
    return corr.sum(axis=1)


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


def _softmax_entropy(rows: np.ndarray) -> np.ndarray:
    safe = np.where(rows > 0, rows, 1.0)
    return -(rows * np.log(safe)).sum(axis=1)


def _score_candidates(blocks: _Blocks, policy: Policy, softmax: SoftmaxTable | None,
                      selected: Sequence[int]) -> np.ndarray:
    rule = policy.rule
    state, targets, candidates = blocks.state, blocks.targets, blocks.candidates
    if rule in TARGET_RULES and not targets:
        raise InputError(f"rule {rule!r} needs a nonempty target set")
    if rule in SOFTMAX_RULES and softmax is None:
        raise InputError(f"rule {rule!r} needs a softmax table")
    if rule == ITL:
        return _itl_scores(blocks, policy.stabilize)
    if rule == CTL:
        return _ctl_scores(blocks)
    if rule == UNCERTAINTY:
        return blocks.var()[blocks.na:]
    if rule == UNDIRECTED_ITL:
        return 0.5 * np.log1p(blocks.var()[blocks.na:] / blocks.noise_c)
    if rule == COSINE:
        return _prior_cosine_scores(blocks)
    if rule == MAX_DIST:
        if not selected:
            return np.zeros(len(candidates))
        return np.sqrt(_min_sq_distances(state, candidates, selected))
    if rule == MAX_ENTROPY:
        return _softmax_entropy(softmax.rows(candidates))
    if rule == MAX_MARGIN:
        rows = np.sort(softmax.rows(candidates), axis=1)
        return -(rows[:, -1] - rows[:, -2])
    if rule == LEAST_CONFIDENCE:
        return -softmax.rows(candidates).max(axis=1)
    if rule == INFO_DENSITY:
        entropy_term = _softmax_entropy(softmax.rows(candidates))
        relevance = np.maximum(_prior_cosine_scores(blocks), 0.0)
        return entropy_term * relevance ** policy.beta
    raise InputError(f"rule {rule!r} is not a scored rule")


# ---------------------------------------------------------------------------
# public scoring API
# ---------------------------------------------------------------------------

def score_itl(state: PosteriorState, targets: Sequence[int], candidate: int,
              *, stabilize: bool = False) -> float:
    """I(f_A; y_x | D_{n-1}) via the backward evaluation."""
    return information_gain(state, IGQuery(tuple(targets), candidate),
                            stabilize=stabilize)


def score_ctl(state: PosteriorState, targets: Sequence[int], candidate: int) -> float:
    """Total conditional correlation between the candidate and the targets."""
    return float(_ctl_scores(_Blocks(state, targets, [candidate]))[0])


def score_baseline(rule: str, candidate: int, *, state: PosteriorState | None = None,
                   targets: Sequence[int] = (), softmax: SoftmaxTable | None = None,
                   selected: Sequence[int] = (), beta: float = 1.0) -> float:
    """Score one candidate under a baseline rule (higher = preferred)."""
    if rule in (ITL, CTL):
        raise InputError("use score_itl / score_ctl for the primary rules")
    policy = Policy(rule=rule, beta=beta)
    scores = _score_candidates(_Blocks(state, targets, [candidate]), policy,
                               softmax, tuple(selected))
    return float(scores[0])


def _history_indices(state: PosteriorState) -> list[int]:
    return [obs.index for obs in state.history]


def select_batch(state: PosteriorState, targets: Sequence[int],
                 candidates: Sequence[int], policy: Policy, *,
                 softmax: SoftmaxTable | None = None,
                 rng: np.random.Generator | None = None) -> BatchResult:
    """Select a batch of ``policy.batch_size`` distinct candidates."""
    cand = sorted(int(c) for c in candidates)
    if len(set(cand)) != len(cand):
        raise InputError("candidate list contains duplicates")
    b = policy.batch_size
    if b > len(cand):
        raise InputError(f"batch size {b} exceeds the candidate pool ({len(cand)})")
    if rng is None:
        rng = np.random.default_rng(policy.seed)
    targets = tuple(int(t) for t in targets)

    if policy.rule == RANDOM:
        picks = sorted(rng.choice(len(cand), size=b, replace=False).tolist())
        return BatchResult(indices=tuple(cand[i] for i in picks), objectives=(0.0,) * b)

    if policy.rule == KMEANS_PP:
        return _select_kmeanspp(state, cand, b, rng)

    history = _history_indices(state)
    # uncertainty rules never read the target blocks, so no rows are kept for them
    blocks = _Blocks(state, targets if policy.rule in TARGET_RULES else (), cand, b - 1)
    if policy.batch_mode == "topb":
        scores = _score_candidates(blocks, policy, softmax, history)
        order = np.lexsort((np.array(cand), -scores))[:b]
        return BatchResult(indices=tuple(cand[i] for i in order),
                           objectives=tuple(float(scores[i]) for i in order))

    picked: list[int] = []
    objectives: list[float] = []
    rho2 = policy.rho ** 2
    mask = np.zeros(len(cand), dtype=bool)
    for step in range(b):
        scores = _score_candidates(blocks, policy, softmax, history + picked)
        scores = np.where(mask, -np.inf, scores)
        best = int(np.argmax(scores))
        picked.append(cand[best])
        objectives.append(float(scores[best]))
        mask[best] = True
        # the downdate after the last pick would never be read
        if policy.rule in _POSTERIOR_RULES and step < b - 1:
            bace_update(blocks, best, rho2)
    return BatchResult(indices=tuple(picked), objectives=tuple(objectives))


def _select_kmeanspp(state: PosteriorState, cand: list[int], b: int,
                     rng: np.random.Generator) -> BatchResult:
    picked: list[int] = []
    objectives: list[float] = []
    selected = _history_indices(state)
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
    return BatchResult(indices=tuple(picked), objectives=tuple(objectives))


def brute_force_batch(state: PosteriorState, targets: Sequence[int],
                      candidates: Sequence[int], batch_size: int, *,
                      stabilize: bool = False) -> BatchResult:
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
        value = batch_information_gain(state, targets, combo, stabilize=stabilize)
        if value > best_value + 1e-15:
            best_value, best_combo = value, combo
    objectives = []
    previous = 0.0
    for i in range(1, batch_size + 1):
        value = batch_information_gain(state, targets, best_combo[:i], stabilize=stabilize)
        objectives.append(value - previous)
        previous = value
    return BatchResult(indices=best_combo, objectives=tuple(objectives))


def subsample_targets(targets: Sequence[int], m: int,
                      rng: np.random.Generator) -> tuple[int, ...]:
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
             sample_space: Sequence[int] | Callable[[int, np.random.Generator], Sequence[int]],
             policy: Policy, oracle: Callable[[int], float], rounds: int, *,
             candidate_size: int | None = None, relevant: Iterable[int] = (),
             softmax: SoftmaxTable | None = None,
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
    rng = np.random.default_rng(policy.seed)
    record = RunRecord(config=dict(config or {}))
    retrieved: set[int] = set()

    def metrics(round_no: int, batch: tuple[int, ...], objectives: tuple[float, ...],
                elapsed: float) -> RoundEntry:
        var = state.variance_vector(targets)
        rmse = None
        if truth is not None:
            residual = state.mean_vector(targets) - np.array([truth[t] for t in targets])
            rmse = float(np.sqrt(np.mean(residual ** 2)))
        return RoundEntry(
            round=round_no, chosen=batch, objectives=objectives,
            mean_variance=float(var.mean()), max_variance=float(var.max()),
            relevant_picks=sum(1 for i in batch if i in relevant),
            distinct_relevant=len(retrieved), rmse=rmse,
            wall_time=elapsed if timings else 0.0)

    record.append(metrics(0, (), (), 0.0))
    pool = None if callable(sample_space) else sorted(int(s) for s in sample_space)
    for round_no in range(1, rounds + 1):
        start = time.perf_counter()
        if pool is None:
            cand = list(sample_space(round_no, rng))
        elif candidate_size is not None and candidate_size < len(pool):
            picks = rng.choice(len(pool), size=int(candidate_size), replace=False)
            cand = sorted(pool[i] for i in picks)
        else:
            cand = pool
        round_targets = targets
        if policy.target_subsample is not None and policy.target_subsample < len(targets):
            round_targets = subsample_targets(targets, policy.target_subsample, rng)
        batch = select_batch(state, round_targets, cand, policy,
                             softmax=softmax, rng=rng)
        observations = []
        for index in batch.indices:
            try:
                value = float(oracle(index))
            except DataError:
                raise
            except Exception as exc:
                raise DataError(f"oracle failed for index {index}: {exc}") from exc
            observations.append(Observation(index, value, state.noise.variance_at(index)))
        state = condition_all(state, observations)
        retrieved.update(i for i in batch.indices if i in relevant)
        record.append(metrics(round_no, batch.indices, batch.objectives,
                              time.perf_counter() - start))
    return record
