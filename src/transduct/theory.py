"""Executable diagnostics for the convergence analysis.

Every quantity in the bounds is computed explicitly and the inequalities are
checked on actual trajectories:

    Gamma_n            max_{x in S} I(f_A; y_x | D_n)   (step-wise gain)
    gamma_n            information capacity of n observations within S
    eta_S^2(x)         Var[f_x | f_S]                   (irreducible floor)
    step bound         Gamma_{n-1} <= gamma_n / n
    within-S bound     sigma_n^2(x) <= 2 sigma~^2 Gamma_n      (x in A and S)
    explicit bound     sigma_n^2(x) <= 2 sigma^2 b_eps Gamma_n + eta_S^2(x) + eps
    size condition     gamma_k / k <= eps lambda_min^2 / (2 |S|^2 sigma^4 sigma~^2)
    kappa(k)           submodularity ratio of the batch objective

Capacity values inside checkers come from ``posterior.information_capacity``,
which is exact (exhaustive) whenever the enumeration is feasible and says so;
otherwise it returns the greedy value, and the affected rows are demoted from
failures to warnings, since greedy underestimates the capacity and could flag
spurious violations. Exhaustive capacities, in the checkers and in the exact
phase of the size condition, walk the observation counts of the multisets of
size exactly n (``posterior._best_grouped_gain``), pruned below the greedy
multiset's gain; the exact phase reads that floor for every size from the
prefix sums of the one greedy run behind its futility certificate.
The one exception to the greedy fallback is the size condition behind b_eps,
where an underestimate would be unsound; there a certified closed-form upper
bound (grouped-Hadamard water filling, see ``capacity_upper_bound``) stands in.

The size condition is the only check that can refuse an epsilon, so it runs
first: ``transduct theory`` sizes b_eps before the rollout, and
``markov_boundary`` before eta_S^2(x) or any pick. An infeasible epsilon then
costs no rollout, no eta_S^2 and no capacity enumeration. The condition's
exact phase is skipped when one greedy capacity proves it futile: the
information gain of a multiset is monotone submodular (Nemhauser, Wolsey &
Fisher 1978), so gamma_k / k never rises with k, and a greedy value above the
threshold at the largest exact budget puts every smaller budget above it too.
Only the size condition reads lambda_min(K_SS): ``markov_size_bound`` makes
the one eigendecomposition, while sigma^2 and sigma~^2 are O(N) maxima.

Every greedy pick here comes from ``posterior.greedy`` on one factor block,
and eta_S^2 at every target from one set of noise-free downdates at S.
The ITL rollout takes rounds + 1 steps of it with repeats allowed and keeps
the picks, Gamma_n and target variances, which is all the checkers read.
Kappa's greedy batch is the same rule without repeats; Markov boundaries pick
by undirected ITL.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import partial
from itertools import accumulate, combinations, islice
from typing import Sequence

import numpy as np

from .errors import BudgetError, InputError
from .kernels import KernelMatrix
from .posterior import (
    Observation,
    PosteriorState,
    _best_grouped_gain,
    _Blocks,
    _greedy_gains,
    _itl_scores,
    _undirected_scores,
    bace_update,
    batch_information_gain,
    condition,  # noqa: F401  (public name here; tracing tools wrap it)
    condition_all,
    greedy,
    _twin,
    information_capacity,
)

_TOL = 1e-9
#: Most observations that the size condition's b_eps, a Markov boundary and a rollout may take.
SIZE_BOUND_CAP = 10_000

#: the exact (unstabilized) ITL scores, which every bound is stated for
_exact_itl = partial(_itl_scores, stabilize=False)


@dataclass(frozen=True)
class TheoryConstants:
    """sigma^2 and sigma~^2: the prior's largest variance, and largest variance
    plus noise, over the domain; lambda_min is ``markov_size_bound``'s own."""

    sigma_sq: float
    sigma_tilde_sq: float

    @classmethod
    def from_state(cls, prior: PosteriorState) -> "TheoryConstants":
        diag = np.maximum(np.diag(prior.gram.values), 0.0)
        return cls(sigma_sq=float(diag.max()),
                   sigma_tilde_sq=float((diag + prior.noise).max()))


@dataclass(frozen=True)
class MarkovBoundary:
    """A (multi)subset of S driving Var(f_x | y_B) within eps of the floor."""

    members: tuple[int, ...]
    epsilon: float
    achieved_variance: float
    irreducible: float
    size_bound: int
    size_bound_exact: bool


@dataclass(frozen=True)
class Trajectory:
    """A greedy ITL rollout, recorded on one factor block.

    ``picks[n]`` is the (n+1)-th pick, ``gains[n]`` is Gamma_n and
    ``variances[n]`` holds the clamped target variances, both after n picks.
    The checkers take the scale constants from ``prior``.
    """

    prior: PosteriorState
    targets: tuple[int, ...]
    sample_space: tuple[int, ...]
    picks: tuple[int, ...]
    gains: tuple[float, ...]
    variances: np.ndarray

    @property
    def rounds(self) -> int:
        return len(self.picks)


@dataclass(frozen=True)
class BoundCheck:
    """Outcome of one inequality check; passed=None means warn-only."""

    name: str
    passed: bool | None
    detail: str
    rows: tuple[dict, ...]

    @property
    def status(self) -> str:
        if self.passed is None:
            return "warn"
        return "pass" if self.passed else "fail"


def greedy_itl_trajectory(prior: PosteriorState, targets: Sequence[int],
                          sample_space: Sequence[int], rounds: int) -> Trajectory:
    """Roll out the exact greedy rule; observed values are irrelevant to
    every variance-based quantity, so none are drawn. More than
    ``SIZE_BOUND_CAP`` rounds are refused before the factor rows are allocated."""
    targets = tuple(int(t) for t in targets)
    space = tuple(sorted(int(s) for s in sample_space))
    if not space or rounds < 0:
        raise InputError("the rollout needs a nonempty sample space and rounds >= 0")
    if rounds > SIZE_BOUND_CAP:
        raise BudgetError(f"the rollout's {rounds} rounds exceed the {SIZE_BOUND_CAP}-round cap")
    blocks = _Blocks(prior, targets, space, rounds)
    picks, gains, variances = [], [], []
    # step n yields the (n+1)-th pick and Gamma_n; its variances are read before the downdate
    for best, scores in islice(greedy(blocks, _exact_itl, multiset=True), rounds + 1):
        picks.append(space[best])
        gains.append(float(scores[best]))
        variances.append(blocks.var()[:blocks.na])
    return Trajectory(prior=prior, targets=targets, sample_space=space, picks=tuple(picks[:-1]),
                      gains=tuple(gains), variances=np.array(variances))


def irreducible_uncertainty(prior_gram: KernelMatrix, sample_space: Sequence[int],
                            points: Sequence[int]) -> np.ndarray:
    """Var[f_x | f_S] at every x of ``points`` (0 on S): noise-free downdates at S,
    at the jitter of K_SS, whose rows are its jittered Cholesky factor."""
    prior = PosteriorState.from_prior(prior_gram, 1.0)  # noise unread
    blocks = _Blocks(prior, sample_space, points)
    eta2 = _twin(blocks, np.zeros(blocks.na)).var()[blocks.na:]
    return np.where(blocks.inside, 0.0, eta2)


def check_gamma_bound(trajectory: Trajectory) -> BoundCheck:
    """Check Gamma_{n-1} <= gamma_n / n along an S-inside-A trajectory."""
    rows = []
    hard_fail = warn = False
    for n in range(1, trajectory.rounds + 1):
        gamma_step = trajectory.gains[n - 1]
        capacity, exact = information_capacity(trajectory.prior, trajectory.sample_space, n)
        bound = capacity / n
        ok = gamma_step <= bound + _TOL
        rows.append({"n": n, "gamma_step": gamma_step, "capacity": capacity,
                     "bound": bound, "capacity_exact": exact, "holds": ok})
        hard_fail |= not ok and exact
        warn |= not ok and not exact
    passed = None if warn and not hard_fail else not hard_fail
    detail = f"checked {len(rows)} rounds"
    if warn:
        detail += "; greedy capacity rows violated are warnings only"
    return BoundCheck(name="step-gain-bound", passed=passed, detail=detail,
                      rows=tuple(rows))


def check_within_S_bound(trajectory: Trajectory) -> BoundCheck:
    """Check sigma_n^2(x) <= 2 sigma~^2 Gamma_n for x in both A and S."""
    overlap = np.isin(trajectory.targets, trajectory.sample_space)
    if not overlap.any():
        return BoundCheck(name="within-sample-bound", passed=None,
                          detail="targets and sample space are disjoint", rows=())
    sigma_tilde_sq = TheoryConstants.from_state(trajectory.prior).sigma_tilde_sq
    rows = []
    ok_all = True
    for n, gamma_step in enumerate(trajectory.gains):
        worst = float(np.max(trajectory.variances[n][overlap]))
        bound = 2.0 * sigma_tilde_sq * gamma_step
        ok = worst <= bound + _TOL
        ok_all &= ok
        rows.append({"n": n, "max_variance": worst, "bound": bound, "holds": ok})
    return BoundCheck(name="within-sample-bound", passed=ok_all,
                      detail=f"checked {len(rows)} rounds over {int(overlap.sum())} points",
                      rows=tuple(rows))


def capacity_upper_bound(variances: np.ndarray, noise: np.ndarray, budget: float) -> float:
    """Closed-form upper bound on the capacity of ``budget`` observations.

    Grouping repeated measurements per point and applying Hadamard's
    inequality gives gamma_k <= max 1/2 sum_i log(1 + n_i sigma_i^2/rho_i^2)
    over observation counts n_i summing to k; the continuous relaxation is a
    water-filling problem with an exact solution.
    """
    rates = np.sort(np.maximum(variances, 0.0) / noise)[::-1]
    rates = rates[rates > 0]
    if rates.size == 0 or budget <= 0:
        return 0.0
    inv = 1.0 / rates
    # the water level with the first k points active, for every k; the
    # optimum keeps the points before the first level below its 1/rate
    levels = (budget + np.cumsum(inv)) / np.arange(1, rates.size + 1)
    below = np.flatnonzero(levels < inv)
    active = below[0] if below.size else rates.size
    return 0.5 * float(np.sum(np.log(levels[active - 1] * rates[:active])))


def markov_size_bound(state: PosteriorState, sample_space: Sequence[int],
                      epsilon: float) -> tuple[int, bool]:
    """Smallest k <= ``SIZE_BOUND_CAP`` with gamma_k / k below the
    size-condition threshold eps lambda_min^2 / (2 |S|^2 sigma^4 sigma~^2).

    The capacity and lambda_min(K_SS) are always computed from the prior,
    regardless of the state's history; lambda_min is 0, and the condition
    vacuous, when K_SS is singular up to round-off: at most |S| eps_mach
    lambda_max, numpy's ``matrix_rank`` tolerance. Small budgets k <= k_exact
    are checked exactly by enumeration, unless the greedy capacity of k_exact
    observations, over k_exact, already exceeds threshold + ``_TOL``. Greedy
    is a lower bound on gamma_{k_exact}, and gamma_s / s >= gamma_{k_exact} /
    k_exact for every s <= k_exact, because the gain is monotone submodular
    over multisets (an optimal multiset of size k + 1 has a point whose
    removal loses at most gamma_{k+1} / (k + 1)); so then no exact budget
    passes. Beyond k_exact the certified water-filling upper bound stands in,
    which can only enlarge the reported k (never produce an unsound one).
    Returns (k, exact).
    """
    if not epsilon > 0:
        raise InputError("epsilon must be positive")
    space = tuple(sorted(int(s) for s in sample_space))
    pos = state.gram.positions(space)
    prior_cov = state.gram.values[np.ix_(pos, pos)]
    eig = np.linalg.eigvalsh(prior_cov)
    lam = float(eig[0]) if eig[0] > len(eig) * np.finfo(float).eps * eig[-1] else 0.0
    constants = TheoryConstants.from_state(state)
    scale = 2.0 * len(space) ** 2 * constants.sigma_sq ** 2 * constants.sigma_tilde_sq
    threshold = epsilon * lam ** 2 / scale if scale > 0 else 0.0  # scale is 0 on a zero prior
    if threshold <= 0:
        raise BudgetError("size condition is vacuous: the sample Gram is singular")
    variances = np.maximum(np.diag(prior_cov), 0.0)
    noise = state.noise[pos]

    # exact phase: small budgets, each enumerating the multisets of its size
    k_exact = 0
    total = 0
    while k_exact < min(SIZE_BOUND_CAP, 64):
        extra = math.comb(len(space) + k_exact, k_exact + 1)
        if total + extra > 2_000:
            break
        total += extra
        k_exact += 1
    prior = PosteriorState.from_prior(state.gram, state.noise)  # shares the Gram
    # one greedy run: its total is the certificate, its prefix sums the walks' incumbents
    gains = _greedy_gains(prior, space, k_exact)
    futile = k_exact > 0 and sum(gains, 0.0) / k_exact > threshold + _TOL
    floors = list(accumulate(gains, initial=0.0))
    for size in range(1, 0 if futile else k_exact + 1):
        floor = floors[min(size, len(floors) - 1)]
        if _best_grouped_gain(prior_cov, noise, size, floor) / size <= threshold:
            return size, True

    def admissible(budget: int) -> bool:
        return capacity_upper_bound(variances, noise, budget) / budget <= threshold

    if not admissible(SIZE_BOUND_CAP):
        raise BudgetError(f"size condition needs more than {SIZE_BOUND_CAP} observations")
    low, high = max(k_exact, 1), SIZE_BOUND_CAP
    if admissible(low):
        return low, False
    while high - low > 1:
        mid = (low + high) // 2
        if admissible(mid):
            high = mid
        else:
            low = mid
    return high, False


def markov_boundary(state: PosteriorState, sample_space: Sequence[int], x: int,
                    epsilon: float) -> MarkovBoundary:
    """Greedily build an approximate Markov boundary of x in S.

    Points are added by undirected greedy selection over S (computed from
    the prior, so the boundary is valid for any observation history) until
    the current state, downdated at the picks, has Var(f_x | D_n, y_B) <= eta_S^2(x) + eps.
    The size condition runs first, so an infeasible epsilon is refused
    before eta_S^2(x) factors K_SS.
    """
    if not epsilon > 0:
        raise InputError("epsilon must be positive")
    space = tuple(sorted(int(s) for s in sample_space))
    x = int(x)
    size_bound, exact = markov_size_bound(state, space, epsilon)
    eta2 = float(irreducible_uncertainty(state.gram, space, [x])[0])

    prior = PosteriorState.from_prior(state.gram, state.noise)  # shares the Gram
    picks = greedy(_Blocks(prior, (), space), _undirected_scores, multiset=True)
    check = _Blocks(state, (x,), space)
    members: list[int] = []
    while (achieved := float(check.var()[0])) > eta2 + epsilon:
        if len(members) >= SIZE_BOUND_CAP:
            raise BudgetError(f"markov boundary exceeded the {SIZE_BOUND_CAP}-point cap")
        best, _ = next(picks)
        members.append(space[best])
        bace_update(check, best)
    return MarkovBoundary(members=tuple(members), epsilon=epsilon,
                          achieved_variance=achieved, irreducible=eta2,
                          size_bound=size_bound, size_bound_exact=exact)


def verify_markov_boundary(state: PosteriorState, boundary: MarkovBoundary,
                           x: int) -> bool:
    """Re-condition from scratch and confirm the defining inequality."""
    check = condition_all(state, [Observation(index, 0.0) for index in boundary.members])
    achieved = float(_Blocks(check, (int(x),), ()).var()[0])
    return achieved <= boundary.irreducible + boundary.epsilon + _TOL


def check_variance_bound(trajectory: Trajectory, epsilon: float,
                         size_bound: tuple[int, bool] | None = None) -> BoundCheck:
    """Check the explicit form of the marginal-variance bound.

    For every round n and target x:
        sigma_n^2(x) <= 2 sigma^2 b_eps Gamma_n + eta_S^2(x) + eps,
    with (b_eps, exact) from the size condition, ``size_bound`` when the
    caller has sized it already, and Gamma_n measured on the trajectory.
    Rows also carry the reducible gap max_x(sigma_n^2 - eta^2) for
    convergence reporting.
    """
    prior = trajectory.prior
    b_eps, exact = size_bound or markov_size_bound(prior, trajectory.sample_space, epsilon)
    eta = irreducible_uncertainty(prior.gram, trajectory.sample_space, trajectory.targets)
    sigma_sq = TheoryConstants.from_state(prior).sigma_sq
    rows = []
    ok_all = True
    for n, (gamma_step, var) in enumerate(zip(trajectory.gains, trajectory.variances)):
        reducible = 2.0 * sigma_sq * b_eps * gamma_step
        slack = reducible + eta + epsilon - var
        ok = bool(np.min(slack) >= -_TOL)
        ok_all &= ok
        rows.append({"n": n, "gamma_step": gamma_step,
                     "reducible_term": reducible,
                     "max_gap": float(np.max(var - eta)),
                     "min_slack": float(np.min(slack)), "holds": ok})
    # an inexact (upper-bound) b_eps only enlarges the right side, so it can
    # never mask a spurious violation; the check stays a hard pass/fail
    return BoundCheck(
        name="explicit-variance-bound", passed=ok_all,
        detail=f"b_eps={b_eps} ({'exact' if exact else 'certified upper bound'}), "
               f"eps={epsilon}", rows=tuple(rows))


# ---------------------------------------------------------------------------
# submodularity ratio
# ---------------------------------------------------------------------------

def submodularity_ratio(state: PosteriorState, targets: Sequence[int],
                        sample_space: Sequence[int], k: int) -> float:
    """Exact submodularity ratio kappa(k) of the batch objective.

    Minimizes sum_x Delta(x | B) / Delta(X | B) over subsets B of the greedy
    batch and disjoint candidate sets X with |X| <= k, with 0/0 taken as 1.
    A one-point X has the same float expression above and below, so its
    ratio is exactly 1: the minimum starts there and enumerates |X| >= 2.
    """
    space = tuple(sorted(int(s) for s in sample_space))
    targets = tuple(int(t) for t in targets)
    if k < 1:
        raise InputError("cardinality must be at least 1")
    combos = sum(math.comb(len(space), j) for j in range(1, k + 1)) * (2 ** k)
    if combos > 50_000:
        raise InputError("submodularity-ratio enumeration is limited to small instances")
    if k == 1:
        return 1.0
    steps = greedy(_Blocks(state, targets, space, k), _exact_itl)
    batch = tuple(space[best] for best, _ in islice(steps, min(k, len(space))))

    cache: dict[tuple[int, ...], float] = {}

    def value(subset: Sequence[int]) -> float:
        key = tuple(sorted(subset))
        if key not in cache:
            cache[key] = batch_information_gain(state, targets, key)
        return cache[key]

    ratio = 1.0
    for b_size in range(0, len(batch) + 1):
        for base in combinations(batch, b_size):
            base_value = value(base)
            rest = [s for s in space if s not in base]
            for x_size in range(2, k + 1):
                for group in combinations(rest, x_size):
                    numerator = sum(value(base + (x,)) - base_value for x in group)
                    denominator = value(base + group) - base_value
                    if abs(denominator) < 1e-12:
                        current = 1.0 if abs(numerator) < 1e-12 else math.inf
                    else:
                        current = numerator / denominator
                    ratio = min(ratio, current)
    return ratio
