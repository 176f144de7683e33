"""Kernel families, observation noise, and Gram construction on finite domains.

A domain is a list of distinct nonnegative ids and an (N, d) feature matrix
whose row i belongs to id i; every family reads the same rows. Supported
families and their closed forms (``h`` is the lengthscale,
``r2 = ||x - x'||_2``, ``r1 = ||x - x'||_1``):

    linear      k(x, x') = x^T x'
    gaussian    k(x, x') = exp(-r2^2 / (2 h^2))
    laplace     k(x, x') = exp(-r1 / h)
    matern      nu = 1/2:  exp(-r2 / h)
                nu = 3/2:  (1 + sqrt(3) r2 / h) exp(-sqrt(3) r2 / h)
                nu = 5/2:  (1 + sqrt(5) r2 / h + 5 r2^2 / (3 h^2)) exp(-sqrt(5) r2 / h)
    embedding   k(x, x') = x^T Sigma x'   (Sigma = I when omitted: the linear kernel)

Only half-integer Matern orders with closed forms are supported; general
Bessel evaluation is out of scope.  The laplace family uses the L1 norm,
so it coincides with matern(1/2) exactly on one-dimensional inputs.

Observation noise is one variance rho^2(x) per point, a read-only float64
vector in the domain's position order (``_noise_vector``).

Grams of the distance families use numpy alone: squared or absolute
coordinate differences are summed in place one coordinate at a time, in
coordinate order, which gives the same bits as scipy's ``cdist``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Iterable, Sequence

import numpy as np

from .errors import InputError

LINEAR = "linear"
GAUSSIAN = "gaussian"
LAPLACE = "laplace"
MATERN = "matern"
EMBEDDING = "embedding"

FAMILIES = (LINEAR, GAUSSIAN, LAPLACE, MATERN, EMBEDDING)
MATERN_ORDERS = (0.5, 1.5, 2.5)

#: Relative jitter added to Gram diagonals before any factorization.
JITTER_SCALE = 1e-10
#: Entries per row block of the pairwise distance sums and of the Gram check
#: (512 KB of float64), and the live entries of the exhaustive capacity walk.
_BLOCK_ENTRIES = 1 << 16


@dataclass(frozen=True)
class KernelSpec:
    """A kernel family with its hyperparameters."""

    family: str
    lengthscale: float = 1.0
    nu: float | None = None
    latent_cov: np.ndarray | None = None

    def __post_init__(self):
        if self.family not in FAMILIES:
            raise InputError(f"unknown kernel family {self.family!r}; choose from {FAMILIES}")
        if self.family in (GAUSSIAN, LAPLACE, MATERN) and not self.lengthscale > 0:
            raise InputError("lengthscale must be positive")
        if self.family == GAUSSIAN and not 0 < self.lengthscale * self.lengthscale < math.inf:
            raise InputError(f"gaussian lengthscale {self.lengthscale!r} needs a positive, "
                             "finite square")
        if self.family == MATERN and self.nu not in MATERN_ORDERS:
            raise InputError(f"matern nu must be one of {MATERN_ORDERS}")
        if self.family != MATERN and self.nu is not None:
            raise InputError("nu only applies to the matern family")
        if self.latent_cov is not None:
            if self.family != EMBEDDING:
                raise InputError("latent_cov only applies to the embedding family")
            sigma = np.asarray(self.latent_cov, dtype=np.float64)
            if sigma.ndim != 2 or sigma.shape[0] != sigma.shape[1]:
                raise InputError("latent_cov must be a square matrix")
            if not np.allclose(sigma, sigma.T, atol=1e-12):
                raise InputError("latent_cov must be symmetric")
            if np.min(np.linalg.eigvalsh(sigma)) < -1e-10 * max(1.0, np.max(np.abs(sigma))):
                raise InputError("latent_cov must be positive semi-definite")
            sigma.setflags(write=False)
            object.__setattr__(self, "latent_cov", sigma)


@dataclass(frozen=True)
class KernelMatrix:
    """Dense symmetric Gram matrix over an ordered list of distinct nonnegative ids."""

    values: np.ndarray
    ids: tuple[int, ...]
    _pos: dict = field(repr=False, compare=False, default=None)

    def __post_init__(self):
        vals = np.asarray(self.values, dtype=np.float64)
        if vals.ndim != 2 or vals.shape[0] != vals.shape[1] or not len(vals):
            raise InputError("Gram matrix must be square and nonempty")
        if vals.shape[0] != len(self.ids):
            raise InputError("Gram size does not match the id list")
        rows = max(1, _BLOCK_ENTRIES // max(len(vals), 1))
        if not all(np.all(np.isfinite(vals[i:i + rows])) for i in range(0, len(vals), rows)):
            raise InputError("Gram matrix contains non-finite entries")
        if not all(_symmetric_rows(vals, i, i + rows) for i in range(0, len(vals), rows)):
            raise InputError("Gram matrix is not symmetric within 1e-12")
        if np.min(np.diag(vals)) < -1e-12:
            raise InputError("Gram diagonal has negative entries")
        ids = tuple(int(i) for i in self.ids)
        pos = _positions(ids)
        vals.setflags(write=False)
        object.__setattr__(self, "values", vals)
        object.__setattr__(self, "ids", ids)
        object.__setattr__(self, "_pos", pos)

    @property
    def size(self) -> int:
        return len(self.ids)

    def position(self, index: int) -> int:
        return self._pos[index] if index in self._pos else int(self.positions((index,))[0])

    def positions(self, indices: Iterable[int]) -> np.ndarray:
        try:
            return np.fromiter(map(self._pos.__getitem__, indices), dtype=np.intp)
        except KeyError as exc:
            raise InputError(f"index {exc.args[0]} is not in this Gram matrix") from None


def _positions(ids: tuple[int, ...]) -> dict[int, int]:
    """Each id's position in the nonempty ``ids``; InputError for a negative or repeated id."""
    if min(ids) < 0:
        raise InputError(f"ids must be nonnegative, got {min(ids)}")
    pos = {i: p for p, i in enumerate(ids)}
    if len(pos) < len(ids):
        raise InputError(f"ids repeat: {sorted({i for p, i in enumerate(ids) if pos[i] != p})}")
    return pos


def _symmetric_rows(vals: np.ndarray, start: int, stop: int) -> bool:
    """``np.allclose(vals, vals.T, atol=1e-12)`` on the upper triangle of rows
    start:stop: |a - b| <= atol + rtol |b| holds both ways iff it does at min(|a|, |b|)."""
    upper = vals[start:stop, start:]
    lower = vals[start:, start:stop].T
    if np.array_equal(upper, lower):  # every family's Gram is bit-symmetric
        return True
    tol = np.minimum(np.abs(upper), np.abs(lower))
    tol *= 1e-5  # numpy's default rtol
    tol += 1e-12
    return bool(np.all(np.abs(upper - lower) <= tol))


def jittered(matrix: np.ndarray) -> np.ndarray:
    """Copy of ``matrix`` with ``JITTER_SCALE * max(diag)`` added to the diagonal."""
    out = np.array(matrix, dtype=np.float64, order="C")
    diag = out.reshape(-1)[::len(out) + 1]  # a view: the copy is C-contiguous
    if diag.size:
        scale = float(diag.max())
        if scale > 0:
            diag += JITTER_SCALE * scale
    return out


def _matern_of_distance(r: np.ndarray, lengthscale: float, nu: float) -> np.ndarray:
    s = r / lengthscale
    if nu == 0.5:
        return np.exp(-s)
    if nu == 1.5:
        t = math.sqrt(3.0) * s
        return (1.0 + t) * np.exp(-t)
    if nu == 2.5:
        t = math.sqrt(5.0) * s
        return (1.0 + t + t * t / 3.0) * np.exp(-t)
    raise InputError(f"unsupported matern order {nu}")


def _pairwise_sum(x: np.ndarray, term) -> np.ndarray:
    """D[i, j] = sum_k term(x[i, k] - x[j, k]), summed over k in order.

    Rows go in blocks of about ``_BLOCK_ENTRIES`` entries, so a block's sums
    and differences stay in cache while the coordinates are added.
    """
    n = x.shape[0]
    rows = max(1, _BLOCK_ENTRIES // n)
    total = np.zeros((n, n))
    diff = np.empty((min(rows, n), n))
    columns = np.ascontiguousarray(x.T)
    for start in range(0, n, rows):
        block = total[start:start + rows]
        part = diff[:len(block)]
        for column in columns:
            np.subtract.outer(column[start:start + rows], column, out=part)
            block += term(part, out=part)
    return total


def _feature_matrix(ids: Sequence[int], features) -> np.ndarray:
    """``features`` as a float (N, d) matrix with one row per id, N, d >= 1, all finite."""
    try:
        x = np.asarray(features, dtype=np.float64)
    except (TypeError, ValueError) as exc:
        raise InputError(f"features must be a numeric (N, d) matrix: {exc}") from None
    if x.ndim != 2 or not x.size or len(x) != len(ids):
        raise InputError(f"features must be a nonempty (N, d) matrix with one row per id; "
                         f"got shape {x.shape} for {len(ids)} ids")
    if not np.all(np.isfinite(x)):
        raise InputError("features contain non-finite values")
    return x


def _noise_vector(noise, size: int) -> np.ndarray:
    """``noise`` (one variance for every point, or one per point) as a
    read-only float64 (size,) vector; InputError unless each variance is
    positive and finite."""
    try:
        rho2 = np.array(noise, dtype=np.float64)
    except (TypeError, ValueError) as exc:
        raise InputError(f"noise must be a variance or one variance per point: {exc}") from None
    if rho2.ndim == 0:
        rho2 = np.full(size, rho2)
    elif rho2.shape != (size,):
        raise InputError(f"noise needs one variance per point: got shape {rho2.shape} "
                         f"for {size} points")
    bad = rho2[~((rho2 > 0) & (rho2 < math.inf))]
    if len(bad):
        raise InputError(f"noise variances must be positive and finite, got {float(bad[0])!r}")
    rho2.setflags(write=False)
    return rho2


def gram(spec: KernelSpec, ids: Sequence[int], features) -> KernelMatrix:
    """Build the Gram matrix K[i, j] = k(features[i], features[j]) over ``ids``."""
    x = _feature_matrix(ids, features)
    if spec.family in (LINEAR, EMBEDDING):
        if spec.latent_cov is None:
            k = x @ x.T
        else:
            if spec.latent_cov.shape[0] != x.shape[1]:
                raise InputError("latent_cov dimension does not match the features")
            k = x @ spec.latent_cov @ x.T
        k = (k + k.T) / 2.0
    elif spec.family == MATERN:
        r = _pairwise_sum(x, np.square)
        k = _matern_of_distance(np.sqrt(r, out=r), spec.lengthscale, spec.nu)
    else:
        # exp(-d / scale), in place
        if spec.family == GAUSSIAN:
            k, scale = _pairwise_sum(x, np.square), 2.0 * spec.lengthscale ** 2
        else:
            k, scale = _pairwise_sum(x, np.abs), spec.lengthscale
        np.negative(k, out=k)
        k /= scale
        np.exp(k, out=k)
    return KernelMatrix(values=k, ids=ids)
