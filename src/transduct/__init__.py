"""Transductive active data selection on Gaussian-process surrogates."""

from .errors import (
    BudgetError,
    ConfigError,
    DataError,
    InputError,
    NumericError,
    ParseError,
    TransductError,
)
from .kernels import (
    KernelMatrix,
    KernelSpec,
    gram,
)
from .posterior import (
    Observation,
    PosteriorState,
    batch_information_gain,
    condition,
    condition_all,
    information_capacity,
    information_gain,
)
from .selection import (
    BatchResult,
    Policy,
    brute_force_batch,
    run_loop,
    select_batch,
    subsample_targets,
)
from .data import (
    RoundEntry,
    RunRecord,
    labeled_oracle,
    load_embeddings,
    load_run,
    persist_run,
    sample_gp_truth,
    save_embeddings,
)
from .theory import (
    BoundCheck,
    MarkovBoundary,
    TheoryConstants,
    Trajectory,
    check_gamma_bound,
    check_variance_bound,
    check_within_S_bound,
    greedy_itl_trajectory,
    irreducible_uncertainty,
    markov_boundary,
    markov_size_bound,
    submodularity_ratio,
    verify_markov_boundary,
)

__version__ = "0.1.0"
