"""Kernel families, noise models, and Gram construction on finite point sets.

Supported families and their closed forms (``h`` is the lengthscale,
``r2 = ||x - x'||_2``, ``r1 = ||x - x'||_1``):

    linear      k(x, x') = x^T x'
    gaussian    k(x, x') = exp(-r2^2 / (2 h^2))
    laplace     k(x, x') = exp(-r1 / h)
    matern      nu = 1/2:  exp(-r2 / h)
                nu = 3/2:  (1 + sqrt(3) r2 / h) exp(-sqrt(3) r2 / h)
                nu = 5/2:  (1 + sqrt(5) r2 / h + 5 r2^2 / (3 h^2)) exp(-sqrt(5) r2 / h)
    embedding   k(x, x') = phi(x)^T Sigma phi(x')   (Sigma = I when omitted)

Only half-integer Matern orders with closed forms are supported; general
Bessel evaluation is out of scope.  The laplace family uses the L1 norm,
so it coincides with matern(1/2) exactly on one-dimensional inputs.

Grams of the distance families use numpy alone: squared or absolute
coordinate differences are summed in place one coordinate at a time, in
coordinate order, which gives the same bits as scipy's ``cdist``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Iterable, Mapping, Sequence

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


def _as_vector(value, name: str) -> np.ndarray | None:
    if value is None:
        return None
    arr = np.asarray(value, dtype=np.float64)
    if arr.ndim != 1 or arr.size == 0:
        raise InputError(f"{name} must be a nonempty 1-D vector")
    if not np.all(np.isfinite(arr)):
        raise InputError(f"{name} contains non-finite values")
    arr.setflags(write=False)
    return arr


@dataclass(frozen=True)
class Point:
    """A domain element: integer id plus coordinates and/or an embedding."""

    index: int
    coords: np.ndarray | None = None
    embedding: np.ndarray | None = None

    def __post_init__(self):
        if self.index < 0:
            raise InputError("point index must be non-negative")
        object.__setattr__(self, "coords", _as_vector(self.coords, "coords"))
        object.__setattr__(self, "embedding", _as_vector(self.embedding, "embedding"))
        if self.coords is None and self.embedding is None:
            raise InputError(f"point {self.index} needs coords or an embedding")


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
class NoiseModel:
    """Observation-noise variances rho^2(x), homoscedastic or per-index."""

    default: float | None = None
    per_index: Mapping[int, float] | None = None

    def __post_init__(self):
        if self.default is None and self.per_index is None:
            raise InputError("noise model needs a default variance or a per-index table")
        if self.default is not None and not self.default > 0:
            raise InputError("noise variance must be positive")
        if self.per_index is not None:
            table = dict(self.per_index)
            for idx, var in table.items():
                if not var > 0:
                    raise InputError(f"noise variance at index {idx} must be positive")
            object.__setattr__(self, "per_index", table)

    @classmethod
    def homoscedastic(cls, variance: float) -> "NoiseModel":
        return cls(default=float(variance))

    def variance_at(self, index: int) -> float:
        if self.per_index is not None and index in self.per_index:
            return float(self.per_index[index])
        if self.default is None:
            raise InputError(f"no noise variance configured for index {index}")
        return float(self.default)

    def vector(self, ids: Sequence[int]) -> np.ndarray:
        if self.per_index is None:
            return np.full(len(ids), float(self.default))
        return np.array([self.variance_at(i) for i in ids], dtype=np.float64)


@dataclass(frozen=True)
class KernelMatrix:
    """Dense symmetric Gram matrix over an ordered list of point ids."""

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
        vals.setflags(write=False)
        object.__setattr__(self, "values", vals)
        object.__setattr__(self, "ids", tuple(int(i) for i in self.ids))
        object.__setattr__(self, "_pos", {i: p for p, i in enumerate(self.ids)})

    @property
    def size(self) -> int:
        return len(self.ids)

    def position(self, index: int) -> int:
        return int(self.positions((index,))[0])

    def positions(self, indices: Iterable[int]) -> np.ndarray:
        try:
            return np.fromiter(map(self._pos.__getitem__, indices), dtype=np.intp)
        except KeyError as exc:
            raise InputError(f"index {exc.args[0]} is not in this Gram matrix") from None


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


def _require(point: Point, what: str) -> np.ndarray:
    value = getattr(point, what)
    if value is None:
        raise InputError(f"point {point.index} is missing {what}")
    return value


def _stack(points: Sequence[Point], what: str) -> np.ndarray:
    rows = [_require(p, what) for p in points]
    dims = {r.size for r in rows}
    if len(dims) != 1:
        raise InputError(f"{what} dimensions are inconsistent across the domain: {sorted(dims)}")
    return np.stack(rows)


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


def gram(spec: KernelSpec, points: Sequence[Point]) -> KernelMatrix:
    """Build the Gram matrix K[i, j] = k(points[i], points[j])."""
    if not points:
        raise InputError("cannot build a Gram matrix over an empty point list")
    ids = tuple(p.index for p in points)
    if spec.family == LINEAR:
        x = _stack(points, "coords")
        k = x @ x.T
        k = (k + k.T) / 2.0
    elif spec.family == EMBEDDING:
        phi = _stack(points, "embedding")
        if spec.latent_cov is None:
            k = phi @ phi.T
        else:
            if spec.latent_cov.shape[0] != phi.shape[1]:
                raise InputError("latent_cov dimension does not match the embeddings")
            k = phi @ spec.latent_cov @ phi.T
        k = (k + k.T) / 2.0
    else:
        x = _stack(points, "coords")
        if spec.family == MATERN:
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
