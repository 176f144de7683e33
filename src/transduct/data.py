"""Ingestion of embeddings and labels; synthetic ground truths, each one vector
in the prior Gram's position order, as the noise is; run-record persistence.

File formats
------------
Embedding file (text): one header line ``p=<dim> n=<count>`` followed by one
``<id>,<v1>,...,<vp>`` line per point. UTF-8, ``.`` decimal separator,
exponent notation allowed. Ids must be unique nonnegative integers; all
values must be finite.

Embedding file (binary, for large p): magic ``TDEMB1\\n`` then little-endian
int64 count, int64 dim, int64 ids[count], float64 values[count * dim]
(row-major). ``load_embeddings`` reads either format, telling them apart by
the magic.

Run record: line-delimited JSON. The first line holds
``{"config": ..., "version": "v1"}``; each further line is one round entry.
Floats are serialized with ``repr`` semantics and round-trip bit-exactly.
"""

from __future__ import annotations

import json
import os
from dataclasses import asdict, dataclass, field
from typing import Callable, Sequence

import numpy as np
# imported by name so that numpy.random loads with the package, not in its first draw
from numpy.random import default_rng

from .errors import DataError, InputError, NumericError, ParseError
from .kernels import KernelMatrix, _feature_matrix, _positions, jittered
from .kernels import gram  # noqa: F401  (public name here; tracing tools wrap it)
from .posterior import PosteriorState

RECORD_VERSION = "v1"
_BINARY_MAGIC = b"TDEMB1\n"


# ---------------------------------------------------------------------------
# embeddings
# ---------------------------------------------------------------------------

def _parse_text(path: str, blob: bytes) -> tuple[list[int], np.ndarray]:
    try:
        lines = blob.decode("utf-8").splitlines()
    except UnicodeDecodeError as exc:
        raise ParseError(f"{path}: not a UTF-8 text file: {exc}") from exc
    if not lines:
        raise ParseError(f"{path}: empty file")
    header = lines[0].split()
    try:
        fields = dict(part.split("=", 1) for part in header)
        dim, count = int(fields["p"]), int(fields["n"])
    except (ValueError, KeyError) as exc:
        raise ParseError(f"{path}:1: malformed header {lines[0]!r}") from exc
    if dim < 1 or count < 0:
        raise ParseError(f"{path}:1: header declares p={dim}, n={count}")
    ids: list[int] = []
    seen: set[int] = set()
    rows: list[list[float]] = []  # sized by the file, not by the header's claims
    body = [line for line in lines[1:] if line.strip()]
    if len(body) != count:
        raise ParseError(f"{path}: header declares n={count} rows, found {len(body)}")
    for lineno, line in enumerate(body, start=2):
        parts = line.split(",")
        if len(parts) != dim + 1:
            raise ParseError(f"{path}:{lineno}: expected {dim + 1} fields, got {len(parts)}")
        try:
            idx = int(parts[0])
            values = [float(v) for v in parts[1:]]
        except ValueError as exc:
            raise ParseError(f"{path}:{lineno}: {exc}") from exc
        if idx < 0:
            raise ParseError(f"{path}:{lineno}: negative id {idx}")
        if idx in seen:
            raise ParseError(f"{path}:{lineno}: duplicate id {idx}")
        if not all(np.isfinite(values)):
            raise ParseError(f"{path}:{lineno}: non-finite value in row for id {idx}")
        seen.add(idx)
        ids.append(idx)
        rows.append(values)
    return ids, np.array(rows, dtype=np.float64).reshape(count, dim)


def _parse_binary(path: str, blob: bytes) -> tuple[list[int], np.ndarray]:
    offset = len(_BINARY_MAGIC)
    if len(blob) < offset + 16:
        raise ParseError(f"{path}: binary embedding file ends inside its header")
    header = np.frombuffer(blob, dtype="<i8", count=2, offset=offset)
    count, dim = int(header[0]), int(header[1])
    offset += 16
    if count < 0 or dim < 1 or len(blob) != offset + 8 * count * (1 + dim):
        raise ParseError(f"{path}: binary header declares n={count}, p={dim}, "
                         f"which does not match the file size {len(blob)}")
    ids = np.frombuffer(blob, dtype="<i8", count=count, offset=offset)
    offset += 8 * count
    if np.any(ids < 0):
        raise ParseError(f"{path}: negative id {int(np.min(ids))} in binary file")
    values = np.frombuffer(blob, dtype="<f8", count=count * dim, offset=offset)
    if len(set(ids.tolist())) != count:
        raise ParseError(f"{path}: duplicate ids in binary file")
    if not np.all(np.isfinite(values)):
        raise ParseError(f"{path}: non-finite values in binary file")
    # an owned, aligned copy: matmul on the blob's unaligned view rounds differently
    return ids.tolist(), values.reshape(count, dim).copy()


def load_embeddings(path: str) -> tuple[list[int], np.ndarray]:
    """Read an embedding file, text or binary (told apart by the magic), into
    its ids and the (count, dim) matrix whose row i embeds ids[i]."""
    with open(path, "rb") as handle:
        blob = handle.read()
    parse = _parse_binary if blob.startswith(_BINARY_MAGIC) else _parse_text
    return parse(path, blob)


def _checked(ids: Sequence[int], features) -> tuple[tuple[int, ...], np.ndarray]:
    """``ids`` and ``features`` as ``load_embeddings`` would read them back;
    InputError for anything it would refuse."""
    matrix = _feature_matrix(ids, features)
    ids = tuple(int(i) for i in ids)
    _positions(ids)
    return ids, matrix


def save_embeddings(ids: Sequence[int], features, path: str) -> None:
    """Write ids and their (N, d) embeddings to the text format, bit-exactly."""
    ids, matrix = _checked(ids, features)
    rows = [f"{index}," + ",".join(map(repr, row)) for index, row in zip(ids, matrix.tolist())]
    _atomic_write(path, f"p={matrix.shape[1]} n={len(rows)}\n" + "\n".join(rows) + "\n")


def save_embeddings_binary(ids: Sequence[int], features, path: str) -> None:
    """Write ids and their (N, d) embeddings to the binary format, bit-exactly."""
    ids, matrix = _checked(ids, features)
    blob = (_BINARY_MAGIC + np.array(matrix.shape, dtype="<i8").tobytes()
            + np.array(ids, dtype="<i8").tobytes() + matrix.astype("<f8").tobytes())
    _atomic_write(path, blob)


# ---------------------------------------------------------------------------
# synthetic ground truth
# ---------------------------------------------------------------------------

def _covariance_factor(matrix: np.ndarray) -> np.ndarray:
    if float(np.max(np.diag(matrix))) == 0.0:
        return np.zeros_like(matrix)
    try:
        return np.linalg.cholesky(jittered(matrix))
    except np.linalg.LinAlgError:
        eigvals, eigvecs = np.linalg.eigh(matrix)
        if np.min(eigvals) < -1e-6 * max(1.0, float(np.max(np.abs(eigvals)))):
            raise NumericError("prior covariance is not positive semi-definite")
        return eigvecs * np.sqrt(np.maximum(eigvals, 0.0))


def sample_gp_truth(prior: KernelMatrix, seed: int) -> np.ndarray:
    """Draw f* ~ N(0, K) via a seeded Cholesky transform of the prior Gram K:
    a read-only float64 (N,) vector in K's position order."""
    truth = _covariance_factor(prior.values) @ default_rng(seed).standard_normal(prior.size)
    truth.setflags(write=False)
    return truth


def _truth_vector(truth, size: int) -> np.ndarray:
    """``truth`` as a float64 vector; InputError unless it holds ``size`` finite numbers."""
    values = np.asarray(truth)
    if values.shape != (size,) or values.dtype.kind not in "iuf" or not np.isfinite(values).all():
        raise InputError(f"truth needs {size} finite values, got {values.dtype} {values.shape}")
    return values.astype(np.float64, copy=False)


def labeled_oracle(prior: PosteriorState, truth: np.ndarray, seed: int) -> Callable[[int], float]:
    """Label provider y = f*(x) + eps, eps ~ N(0, rho^2(x)), with fresh seeded noise
    per query; ``truth`` and ``prior.noise`` are read at x's position in ``prior``."""
    truth = _truth_vector(truth, prior.gram.size)
    rng = default_rng(seed)

    def oracle(index: int) -> float:
        try:
            j = prior.gram.position(index)
        except InputError:
            raise DataError(f"oracle has no label for index {index}") from None
        return truth[j] + np.sqrt(prior.noise[j]) * float(rng.standard_normal())

    return oracle


# ---------------------------------------------------------------------------
# run records
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class RoundEntry:
    round: int
    chosen: tuple[int, ...]
    objectives: tuple[float, ...]
    mean_variance: float
    max_variance: float
    relevant_picks: int
    distinct_relevant: int
    rmse: float | None = None
    wall_time: float = 0.0

    def to_json(self) -> dict:
        return asdict(self)

    @classmethod
    def from_json(cls, payload: dict) -> "RoundEntry":
        return cls(
            round=int(payload["round"]),
            chosen=tuple(int(i) for i in payload["chosen"]),
            objectives=tuple(float(v) for v in payload["objectives"]),
            mean_variance=float(payload["mean_variance"]),
            max_variance=float(payload["max_variance"]),
            relevant_picks=int(payload["relevant_picks"]),
            distinct_relevant=int(payload["distinct_relevant"]),
            rmse=None if payload.get("rmse") is None else float(payload["rmse"]),
            wall_time=float(payload.get("wall_time", 0.0)),
        )


@dataclass
class RunRecord:
    """Per-round log of one selection run; config is fixed at creation."""

    config: dict
    rounds: list[RoundEntry] = field(default_factory=list)

    def append(self, entry: RoundEntry) -> None:
        if self.rounds and entry.round <= self.rounds[-1].round:
            raise InputError("round numbers must be strictly increasing")
        self.rounds.append(entry)


def _atomic_write(path: str, payload: str | bytes) -> None:
    """Write ``payload`` (text as UTF-8) to ``path`` by renaming a finished temporary file."""
    tmp = f"{path}.tmp"
    with open(tmp, "wb") as handle:
        handle.write(payload.encode("utf-8") if isinstance(payload, str) else payload)
    os.replace(tmp, path)


def _dump(payload) -> str:
    return json.dumps(payload, sort_keys=True, allow_nan=False, separators=(",", ":"))


def persist_run(record: RunRecord, path: str) -> None:
    """Write a run record to ``path`` (atomic rename on completion)."""
    lines = [_dump({"version": RECORD_VERSION, "config": record.config})]
    lines.extend(_dump(entry.to_json()) for entry in record.rounds)
    _atomic_write(path, "\n".join(lines) + "\n")


def save_table(path: str, header: Sequence[str], rows: Sequence[Sequence]) -> None:
    """Write a delimited table; floats keep full precision via ``repr``."""

    def cell(value) -> str:
        if value is None:
            return ""
        if isinstance(value, float):
            return repr(value)
        return str(value)

    lines = ["\t".join(header)]
    lines.extend("\t".join(cell(v) for v in row) for row in rows)
    _atomic_write(path, "\n".join(lines) + "\n")


def load_table(path: str) -> tuple[list[str], list[list]]:
    """Read a table written by :func:`save_table` back without loss."""

    def parse(token: str):
        if token == "":
            return None
        try:
            return int(token)
        except ValueError:
            pass
        try:
            value = float(token)
        except ValueError:
            return token
        if not np.isfinite(value):
            raise ParseError(f"{path}: non-finite numeric cell {token!r}")
        return value

    with open(path, "r", encoding="utf-8") as handle:
        lines = handle.read().splitlines()
    if not lines:
        raise ParseError(f"{path}: empty table file")
    header = lines[0].split("\t")
    rows = [[parse(tok) for tok in line.split("\t")] for line in lines[1:] if line]
    for lineno, row in enumerate(rows, start=2):
        if len(row) != len(header):
            raise ParseError(f"{path}:{lineno}: expected {len(header)} columns")
    return header, rows


def _reject_constant(token: str):
    raise ParseError(f"non-finite numeric constant {token!r} in record file")


def load_run(path: str) -> RunRecord:
    """Read a run record back; raises on version mismatch or corruption."""
    with open(path, "r", encoding="utf-8") as handle:
        lines = [line for line in handle.read().splitlines() if line.strip()]
    if not lines:
        raise ParseError(f"{path}: empty record file")
    try:
        header = json.loads(lines[0], parse_constant=_reject_constant)
    except json.JSONDecodeError as exc:
        raise ParseError(f"{path}:1: {exc}") from exc
    if not isinstance(header, dict) or "version" not in header:
        raise ParseError(f"{path}:1: missing record header")
    if header["version"] != RECORD_VERSION:
        raise DataError(
            f"{path}: record version {header['version']!r} is incompatible "
            f"with supported version {RECORD_VERSION!r}")
    entries = []
    for lineno, line in enumerate(lines[1:], start=2):
        try:
            entries.append(RoundEntry.from_json(
                json.loads(line, parse_constant=_reject_constant)))
        except (json.JSONDecodeError, KeyError, TypeError, ValueError) as exc:
            raise ParseError(f"{path}:{lineno}: {exc}") from exc
    record = RunRecord(config=header.get("config", {}))
    for entry in entries:
        record.append(entry)
    return record
