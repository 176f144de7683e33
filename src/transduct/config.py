"""Run configuration: JSON schema, Table-style presets, domain builders.

A run config is a JSON object with the sections

    domain    {"source": "synthetic", "kernel": {...}, "layout": {...}}
              or {"source": "embeddings", "path": ..., "s": ids, "a": ids,
                  "kernel": {...}}
              (path: a text or binary embedding file, see ``data``; kernel:
              any family, {"family": "embedding"} when omitted; each ids
              selector is a list of distinct ids in the file, {"first": n}
              for the file's first n ids, or {"count": n, "from": i} for n ids
              from position i on, "from" defaulting to 0; every n, i >= 0)
    policies  list of rule names or {"rule": ..., overrides...}
    rounds    number of selection rounds
    seeds     list of distinct nonnegative integer seeds
    hyper     {"k": ..., "m": ..., "M": ..., "b": ..., "rho": ...}
    relevant  optional id list inside the sample space (layouts derive a default)
    epsilon   tolerance for theory checks (default 0.05 of max prior variance)
    grid      parameter grid for the ablate command: a nonempty list of values for
              any of rho, k, m, M (hyper fields) and batch_mode (every policy)

A policy entry names one of ``selection.RULES``; an override may set b, m,
batch_mode, stabilize and a display name. Unknown fields are refused (a kernel
takes its family's alone), as is a ``k`` below a ``b``; each policy is built once, while parsing.

Either source realizes a domain as ids plus one feature matrix, row i for
id i, which every kernel family reads: a layout's ids are 0..N-1 with S
first and its rows are the points' coordinates, an embeddings file's are
its own ids and rows.

Synthetic layouts:

    {"kind": "uniform", "dim": 2, "s_count": 400, "a_count": 20,
     "box": [[0,1],[0,1]], "a_box": [[0.7,1],[0.7,1]]}
        S uniform in box, A uniform in a_box, disjoint id ranges;
        the default relevant subset is every S point inside a_box.

    {"kind": "grid", "s_count": 10, "start": 0.0, "step": 1.0,
     "a_extra": 4, "include_s_in_a": true}
        S is a 1-D grid; A continues the grid beyond S's hull and may
        include S itself (the extrapolation setting of the theory checks).
"""

from __future__ import annotations

import json
import math
from collections import Counter
from dataclasses import dataclass
from functools import partial
from typing import Callable, Sequence

import numpy as np
from numpy.random import Generator, SeedSequence, default_rng

from .data import SyntheticTruth, labeled_oracle, load_embeddings, sample_gp_truth
from .errors import ConfigError
from .kernels import KernelSpec, gram
from .posterior import PosteriorState
from .selection import RULES, Policy

PRESETS = {
    "mnist-like": {"b": 1, "m": 3, "M": 30, "rho": 0.01, "k": 1000},
    "cifar-like": {"b": 10, "m": 10, "M": 100, "rho": 1.0, "k": 1000},
}

_DEFAULT_HYPER = {"k": None, "m": None, "M": None, "b": 1, "rho": 1.0}
_CONFIG_KEYS = ("domain", "policies", "rounds", "seeds", "hyper", "relevant", "epsilon", "grid")
_POLICY_KEYS = ("rule", "name", "b", "m", "batch_mode", "stabilize")
_DOMAIN_KEYS = {"synthetic": ("source", "kernel", "layout"),
                "embeddings": ("source", "path", "s", "a", "kernel")}
_KERNEL_KEYS = {"linear": ("family",), "gaussian": ("family", "lengthscale"),
                "laplace": ("family", "lengthscale"), "matern": ("family", "lengthscale", "nu"),
                "embedding": ("family", "latent_cov")}
_LAYOUT_KEYS = {"uniform": ("kind", "dim", "s_count", "a_count", "box", "a_box"),
                "grid": ("kind", "s_count", "start", "step", "a_extra", "include_s_in_a")}
_GRID_AXES = ("rho", "k", "m", "M", "batch_mode")


@dataclass(frozen=True)
class RunConfig:
    domain: dict
    policies: tuple[tuple[str, Policy], ...]  # (name, policy with seed 0)
    rounds: int
    seeds: tuple[int, ...]
    hyper: dict
    relevant: tuple[int, ...] | None
    epsilon: float | None
    grid: dict          # axis -> value list, in _GRID_AXES order
    raw: dict


@dataclass(frozen=True)
class DomainInstance:
    """A realized domain: prior state, spaces, labels."""

    prior: PosteriorState
    sample_ids: tuple[int, ...]
    target_ids: tuple[int, ...]
    relevant: tuple[int, ...]
    truth: SyntheticTruth
    oracle_seed: int

    @property
    def oracle(self) -> Callable[[int], float]:
        """A fresh label oracle: every run on this domain draws the same noise."""
        return labeled_oracle(self.truth, self.prior.noise, self.oracle_seed)

    @property
    def truth_map(self) -> dict[int, float]:
        return {i: float(v) for i, v in zip(self.truth.ids, self.truth.values)}


def _require(mapping: dict, key: str, where: str):
    if key not in mapping:
        raise ConfigError(f"missing field {key!r} in {where}")
    return mapping[key]


def _typed(value, kind: type, field: str):
    """``value`` if it is a ``kind`` (dict, list, str, bool), else a ConfigError naming it."""
    if not isinstance(value, kind):
        expected = {dict: "an object", list: "a list", str: "a string", bool: "a boolean"}[kind]
        raise ConfigError(f"field {field!r} must be {expected}, got {value!r}")
    return value


def _known_keys(section: dict, allowed: Sequence[str], where: str) -> None:
    unknown = set(section) - set(allowed)
    if unknown:
        raise ConfigError(f"unknown {where} fields {sorted(map(str, unknown))}; "
                          f"allowed: {allowed}")


_floats = partial(np.asarray, dtype=float)


def _has_bool(value) -> bool:
    """Whether ``value`` is a boolean or a list holding one at any depth."""
    return isinstance(value, bool) or (isinstance(value, list) and any(map(_has_bool, value)))


def _number(kind: Callable, value, field: str):
    """``kind(value)`` (int, float or a float array), raising ConfigError naming
    ``field``; an int field also rejects a fractional value, a float one a
    non-finite value, and every field a boolean (a subclass of int)."""
    try:
        if _has_bool(value):
            raise TypeError("boolean value")
        number = kind(value)
        if kind is int and number != float(value):
            raise ValueError("fractional value")
        if not np.isfinite(number).all():
            raise ValueError("non-finite value")
        return number
    except (TypeError, ValueError, OverflowError) as exc:
        expected = "an integer" if kind is int else "finite and numeric"
        raise ConfigError(f"field {field!r} must be {expected}, got {value!r}") from exc


def load_config(path: str, *, preset: str | None = None,
                seeds: Sequence[int] | None = None) -> RunConfig:
    try:
        with open(path, "r", encoding="utf-8") as handle:
            raw = json.load(handle)
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config {path} is not valid JSON: {exc}") from exc
    if not isinstance(raw, dict):
        raise ConfigError("config root must be a JSON object")
    return parse_config(raw, preset=preset, seeds=seeds)


def parse_config(raw: dict, *, preset: str | None = None,
                 seeds: Sequence[int] | None = None) -> RunConfig:
    _known_keys(raw, _CONFIG_KEYS, "config")
    hyper = dict(_DEFAULT_HYPER)
    if preset is not None:
        if preset not in PRESETS:
            raise ConfigError(f"unknown preset {preset!r}; choose from {sorted(PRESETS)}")
        hyper.update(PRESETS[preset])
    hyper.update(_typed(raw.get("hyper", {}), dict, "hyper"))
    _known_keys(hyper, tuple(_DEFAULT_HYPER), "hyper")
    for key in _DEFAULT_HYPER:
        if hyper[key] is not None or key in ("b", "rho"):
            number = _number(float if key == "rho" else int, hyper[key], f"hyper.{key}")
            if isinstance(hyper[key], str):  # JSON numbers stay as written in record headers
                hyper[key] = number
    rho = float(hyper["rho"])
    if not (rho > 0 and 0 < rho * rho < math.inf):  # rho^2 is the noise variance
        raise ConfigError(f"field 'hyper.rho' must be positive with a positive, finite "
                          f"square, got {hyper['rho']!r}")
    for key in ("b", "m"):
        if hyper[key] is not None and hyper[key] < 1:
            raise ConfigError(f"field 'hyper.{key}' must be at least 1")

    domain = _typed(_require(raw, "domain", "config"), dict, "domain")
    source = domain.get("source")
    if not isinstance(source, str) or source not in _DOMAIN_KEYS:
        raise ConfigError("field 'domain.source' must be 'synthetic' or 'embeddings'")
    _known_keys(domain, _DOMAIN_KEYS[source], f"domain ({source})")
    if "kernel" in domain or source == "synthetic":
        kernel = _typed(_require(domain, "kernel", "domain"), dict, "domain.kernel")
        family = _require(kernel, "family", "domain.kernel")
        if not isinstance(family, str) or family not in _KERNEL_KEYS:
            raise ConfigError(f"unknown kernel family {family!r} in field 'domain.kernel.family'")
        _known_keys(kernel, _KERNEL_KEYS[family], f"domain.kernel ({family})")
    if source == "synthetic":
        layout = _typed(_require(domain, "layout", "domain"), dict, "domain.layout")
        kind = layout.get("kind", "uniform")
        if not isinstance(kind, str) or kind not in _LAYOUT_KEYS:
            raise ConfigError(f"unknown layout kind {kind!r}")
        _known_keys(layout, _LAYOUT_KEYS[kind], f"domain.layout ({kind})")
        _typed(layout.get("include_s_in_a", True), bool, "domain.layout.include_s_in_a")
    else:
        for key in ("s", "a"):
            _check_selector(_require(domain, key, "domain"), f"domain.{key}")

    policies = []
    for i, entry in enumerate(_typed(raw.get("policies", ["itl"]), list, "policies")):
        if isinstance(entry, str):
            entry = {"rule": entry}
        if not isinstance(entry, dict) or "rule" not in entry:
            raise ConfigError("each policy needs a 'rule' field")
        _known_keys(entry, _POLICY_KEYS, f"policies[{i}]")
        rule = entry["rule"]
        if rule not in RULES:
            raise ConfigError(f"unknown rule {rule!r} in field 'policies'")
        name = _typed(entry.get("name", rule), str, f"policies[{i}].name")
        batch_mode = entry.get("batch_mode", "bace")
        if batch_mode not in ("bace", "topb"):
            raise ConfigError(f"field 'policies[{i}].batch_mode' must be 'bace' or 'topb'")
        sizes = {key: entry.get(key, hyper[key]) for key in ("b", "m")}
        for key in ("b", "m"):
            if key in entry and (entry[key] is not None or key != "m"):  # m may be null
                sizes[key] = _number(int, entry[key], f"policies[{i}].{key}")
                if sizes[key] < 1:
                    raise ConfigError(f"field 'policies[{i}].{key}' must be at least 1")
        if hyper["k"] is not None and hyper["k"] < sizes["b"]:
            raise ConfigError(f"field 'hyper.k' ({hyper['k']}) is below policies[{i}].b")
        policies.append((name, Policy(
            rule=rule, batch_size=int(sizes["b"]), batch_mode=batch_mode,
            target_subsample=None if sizes["m"] is None else int(sizes["m"]),
            stabilize=_typed(entry.get("stabilize", True), bool, f"policies[{i}].stabilize"))))
    if not policies:
        raise ConfigError("field 'policies' must be nonempty")

    if seeds is None:
        seeds = _typed(raw.get("seeds", [0]), list, "seeds")
    seed_list = tuple(_number(int, s, "seeds") for s in seeds)
    if not seed_list:
        raise ConfigError("field 'seeds' must be nonempty")
    if min(seed_list) < 0:
        raise ConfigError(f"field 'seeds' must be nonnegative, got {min(seed_list)}")
    _refuse_repeats(seed_list, "seeds", "seeds")
    rounds = _number(int, raw.get("rounds", 0), "rounds")
    if rounds < 0:
        raise ConfigError("field 'rounds' must be nonnegative")

    relevant = raw.get("relevant")
    if relevant is not None:
        relevant = tuple(_number(int, r, "relevant")
                         for r in _typed(relevant, list, "relevant"))
    epsilon = raw.get("epsilon")
    if epsilon is not None:
        epsilon = _number(float, epsilon, "epsilon")
        if not epsilon > 0:
            raise ConfigError("field 'epsilon' must be positive")
    grid = _typed(raw.get("grid", {}), dict, "grid")
    _known_keys(grid, _GRID_AXES, "grid")
    grid = {axis: list(_typed(grid[axis], list, f"grid.{axis}"))
            for axis in _GRID_AXES if axis in grid}
    for axis, values in grid.items():
        if not values:
            raise ConfigError(f"field 'grid.{axis}' must be nonempty")
    return RunConfig(domain=domain, policies=tuple(policies), rounds=rounds,
                     seeds=seed_list, hyper=hyper, relevant=relevant, epsilon=epsilon,
                     grid=grid, raw=raw)


def _kernel_from(section: dict) -> KernelSpec:
    latent_cov = section.get("latent_cov")
    try:  # parse_config has checked the family and the field names
        return KernelSpec(family=section["family"],
                          lengthscale=_number(float, section.get("lengthscale", 1.0),
                                              "domain.kernel.lengthscale"),
                          nu=section.get("nu"),
                          latent_cov=None if latent_cov is None else _number(
                              _floats, latent_cov, "domain.kernel.latent_cov"))
    except Exception as exc:
        raise ConfigError(f"invalid kernel section: {exc}") from exc


def _count(layout: dict, key: str, default: int | None = None) -> int:
    """The nonnegative integer ``layout[key]`` (required when ``default`` is None)."""
    value = _require(layout, key, "domain.layout") if default is None else layout.get(key, default)
    count = _number(int, value, f"domain.layout.{key}")
    if count < 0:
        raise ConfigError(f"field 'domain.layout.{key}' must be nonnegative")
    return count


def _uniform_layout(layout: dict, rng: Generator):
    dim, s_count = _count(layout, "dim", 2), _count(layout, "s_count")
    a_count = _count(layout, "a_count")
    box = _number(_floats, layout.get("box", [[0.0, 1.0]] * dim), "domain.layout.box")
    a_box = _number(_floats, layout.get("a_box", box), "domain.layout.a_box")
    if (box.shape != (dim, 2) or a_box.shape != (dim, 2)
            or np.any(box[:, 0] > box[:, 1]) or np.any(a_box[:, 0] > a_box[:, 1])):
        raise ConfigError("fields 'domain.layout.box' and 'domain.layout.a_box' must list "
                          "finite [low, high] per dimension")
    s_coords = rng.uniform(box[:, 0], box[:, 1], size=(s_count, dim))
    a_coords = rng.uniform(a_box[:, 0], a_box[:, 1], size=(a_count, dim))
    sample_ids = tuple(range(s_count))
    target_ids = tuple(range(s_count, s_count + a_count))
    inside = np.all((s_coords >= a_box[:, 0]) & (s_coords <= a_box[:, 1]), axis=1)
    relevant = tuple(int(i) for i in np.where(inside)[0])
    return np.concatenate((s_coords, a_coords)), sample_ids, target_ids, relevant


def _grid_layout(layout: dict):
    s_count, a_extra = _count(layout, "s_count"), _count(layout, "a_extra", 0)
    start = _number(float, layout.get("start", 0.0), "domain.layout.start")
    step = _number(float, layout.get("step", 1.0), "domain.layout.step")
    include_s = layout.get("include_s_in_a", True)
    with np.errstate(over="ignore"):
        coords = start + step * np.arange(s_count + a_extra)
    if not np.all(np.isfinite(coords)):
        raise ConfigError("field 'domain.layout.step' gives non-finite grid coordinates")
    sample_ids = tuple(range(s_count))
    extras = tuple(range(s_count, s_count + a_extra))
    target_ids = (sample_ids + extras) if include_s else extras
    return coords[:, None], sample_ids, target_ids, sample_ids


def _check_selector(section, field: str) -> None:
    """Refuse an id selector (``domain.s``, ``domain.a``) of any other shape
    than an id list without repeats, {"first": n} or {"count": n, "from": i},
    or with a negative value."""
    if isinstance(section, dict):
        key = "first" if "first" in section else "count"
        _known_keys(section, (key,) if key == "first" else (key, "from"), field)
        _require(section, key, field)
        values = {f"{field}.{name}": [value] for name, value in section.items()}
    else:
        values = {field: _typed(section, list, field)}
    for name, entries in values.items():
        numbers = [_number(int, value, name) for value in entries]
        if min(numbers, default=0) < 0:
            raise ConfigError(f"field {name!r} must be nonnegative")
        _refuse_repeats(numbers, name, "ids")


def _refuse_repeats(numbers: Sequence[int], field: str, what: str) -> None:
    repeated = sorted(i for i, count in Counter(numbers).items() if count > 1)
    if repeated:
        raise ConfigError(f"field {field!r} repeats {what} {repeated}")


def _resolve_ids(section, available: Sequence[int], field: str) -> tuple[int, ...]:
    """The ids a selector checked by ``_check_selector`` names in ``available``."""
    if isinstance(section, dict):
        start = int(section.get("from", 0))
        count = int(section.get("first", section.get("count")))
        if start + count > len(available):
            raise ConfigError(f"field {field!r} selects {count} points from position {start}, "
                              f"but the embeddings file has {len(available)} points")
        return tuple(available[start: start + count])
    ids = tuple(int(i) for i in section)
    missing = set(ids) - set(available)
    if missing:
        raise ConfigError(f"field {field!r} references unknown ids {sorted(missing)}")
    return ids


def build_prior(config: RunConfig, keys: np.ndarray
                ) -> tuple[PosteriorState, tuple[int, ...], tuple[int, ...], tuple[int, ...]]:
    """The prior state and the sample, target and relevant ids for a seed's ``seed_keys``."""
    source = config.domain["source"]
    if source == "synthetic":
        kernel = _kernel_from(config.domain["kernel"])
        layout = dict(_require(config.domain, "layout", "domain"))
        if layout.get("kind", "uniform") == "uniform":
            if "a_count" not in layout and config.hyper["M"] is not None:
                layout["a_count"] = int(config.hyper["M"])
            features, sample_ids, target_ids, relevant = _uniform_layout(
                layout, default_rng(int(keys[0])))
        else:
            features, sample_ids, target_ids, relevant = _grid_layout(layout)
        ids = range(len(features))
    else:
        path = _typed(_require(config.domain, "path", "domain"), str, "domain.path")
        try:
            ids, features = load_embeddings(path)
        except OSError as exc:
            raise ConfigError(f"cannot read embeddings {path}: {exc}") from exc
        kernel = _kernel_from(config.domain.get("kernel", {"family": "embedding"}))
        sample_ids = _resolve_ids(config.domain["s"], ids, "domain.s")
        target_ids = _resolve_ids(config.domain["a"], ids, "domain.a")
        relevant = ()
    if not sample_ids or not target_ids:
        raise ConfigError("the domain has an empty sample or target space")
    if config.relevant is not None:
        relevant = config.relevant
        outside = sorted(set(relevant) - set(sample_ids))
        if outside:
            raise ConfigError(f"field 'relevant' lists ids outside the sample space: {outside}")
    return (PosteriorState.from_prior(gram(kernel, ids, features),
                                      float(config.hyper["rho"]) ** 2),
            tuple(sample_ids), tuple(target_ids), tuple(relevant))


def seed_keys(seed: int) -> np.ndarray:
    """A seed's domain keys: [0] places the points, [1] draws the truth, [2] seeds the oracle."""
    return SeedSequence(seed).generate_state(4)


def build_domain(config: RunConfig, seed: int) -> DomainInstance:
    """Realize the configured domain for one seed."""
    keys = seed_keys(seed)
    prior, sample_ids, target_ids, relevant = build_prior(config, keys)
    return DomainInstance(prior=prior, sample_ids=sample_ids, target_ids=target_ids,
                          relevant=relevant, truth=sample_gp_truth(prior.gram, int(keys[1])),
                          oracle_seed=int(keys[2]))

