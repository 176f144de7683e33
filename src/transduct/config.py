"""Run configuration: JSON schema, Table-style presets, domain builders.

A run config is a JSON object with the sections

    domain    {"source": "synthetic", "kernel": {...}, "layout": {...}}
              or {"source": "embeddings", "path": ..., "s": [...], "a": [...]}
    policies  list of rule names or {"rule": ..., overrides...}
    rounds    number of selection rounds
    seeds     list of integer seeds
    hyper     {"k": ..., "m": ..., "M": ..., "b": ..., "rho": ...}
    relevant  optional explicit id list (synthetic layouts derive a default)
    epsilon   tolerance for theory checks (default 0.05 of max prior variance)
    grid      parameter grid for the ablate command

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
from dataclasses import dataclass
from functools import partial
from typing import Callable, Sequence

import numpy as np

from .data import SyntheticTruth, labeled_oracle, load_embeddings, sample_gp_truth
from .errors import ConfigError
from .kernels import KernelSpec, NoiseModel, Point, gram
from .posterior import PosteriorState
from .selection import RULES, Policy

PRESETS = {
    "mnist-like": {"b": 1, "m": 3, "M": 30, "rho": 0.01, "k": 1000},
    "cifar-like": {"b": 10, "m": 10, "M": 100, "rho": 1.0, "k": 1000},
}

_DEFAULT_HYPER = {"k": None, "m": None, "M": None, "b": 1, "rho": 1.0}
_CONFIG_KEYS = ("domain", "policies", "rounds", "seeds", "hyper", "relevant", "epsilon", "grid")


@dataclass(frozen=True)
class RunConfig:
    domain: dict
    policies: tuple[dict, ...]
    rounds: int
    seeds: tuple[int, ...]
    hyper: dict
    relevant: tuple[int, ...] | None
    epsilon: float | None
    grid: dict
    raw: dict


@dataclass(frozen=True)
class DomainInstance:
    """A realized domain: points, prior state, spaces, labels."""

    points: tuple[Point, ...]
    kernel: KernelSpec
    noise: NoiseModel
    prior: PosteriorState
    sample_ids: tuple[int, ...]
    target_ids: tuple[int, ...]
    relevant: tuple[int, ...]
    truth: SyntheticTruth | None
    oracle: Callable[[int], float]

    @property
    def truth_map(self) -> dict[int, float] | None:
        if self.truth is None:
            return None
        return {p.index: float(v) for p, v in zip(self.truth.points, self.truth.values)}


def _require(mapping: dict, key: str, where: str):
    if key not in mapping:
        raise ConfigError(f"missing field {key!r} in {where}")
    return mapping[key]


def _number(kind: Callable, value, field: str):
    """``kind(value)`` (int, float or a float array), raising ConfigError naming
    ``field``; an int field also rejects a fractional value."""
    try:
        number = kind(value)
        if kind is int and number != float(value):
            raise ValueError("fractional value")
        return number
    except (TypeError, ValueError, OverflowError) as exc:
        expected = "an integer" if kind is int else "numeric"
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
    unknown = set(raw) - set(_CONFIG_KEYS)
    if unknown:
        raise ConfigError(f"unknown config fields {sorted(unknown)}; allowed: {_CONFIG_KEYS}")
    hyper = dict(_DEFAULT_HYPER)
    if preset is not None:
        if preset not in PRESETS:
            raise ConfigError(f"unknown preset {preset!r}; choose from {sorted(PRESETS)}")
        hyper.update(PRESETS[preset])
    hyper.update(raw.get("hyper", {}))
    unknown = set(hyper) - set(_DEFAULT_HYPER)
    if unknown:
        raise ConfigError(f"unknown hyperparameter fields {sorted(unknown)}")
    for key in _DEFAULT_HYPER:
        if hyper[key] is not None or key in ("b", "rho"):
            number = _number(float if key == "rho" else int, hyper[key], f"hyper.{key}")
            if isinstance(hyper[key], str):  # JSON numbers stay as written in record headers
                hyper[key] = number
    if not hyper["rho"] > 0:
        raise ConfigError("field 'hyper.rho' must be positive")
    if hyper["b"] < 1:
        raise ConfigError("field 'hyper.b' must be at least 1")

    domain = _require(raw, "domain", "config")
    if domain.get("source") not in ("synthetic", "embeddings"):
        raise ConfigError("field 'domain.source' must be 'synthetic' or 'embeddings'")

    policy_specs = raw.get("policies", ["itl"])
    policies = []
    for entry in policy_specs:
        if isinstance(entry, str):
            entry = {"rule": entry}
        if not isinstance(entry, dict) or "rule" not in entry:
            raise ConfigError("each policy needs a 'rule' field")
        if entry["rule"] not in RULES:
            raise ConfigError(f"unknown rule {entry['rule']!r} in field 'policies'")
        policies.append(dict(entry))
    if not policies:
        raise ConfigError("field 'policies' must be nonempty")

    seed_list = tuple(_number(int, s, "seeds")
                      for s in (seeds if seeds is not None else raw.get("seeds", [0])))
    if not seed_list:
        raise ConfigError("field 'seeds' must be nonempty")
    rounds = _number(int, raw.get("rounds", 0), "rounds")
    if rounds < 0:
        raise ConfigError("field 'rounds' must be nonnegative")

    relevant = raw.get("relevant")
    if relevant is not None:
        relevant = tuple(_number(int, r, "relevant") for r in relevant)
    epsilon = raw.get("epsilon")
    if epsilon is not None:
        epsilon = _number(float, epsilon, "epsilon")
        if not epsilon > 0:
            raise ConfigError("field 'epsilon' must be positive")
    return RunConfig(domain=domain, policies=tuple(policies), rounds=rounds,
                     seeds=seed_list, hyper=hyper, relevant=relevant, epsilon=epsilon,
                     grid=dict(raw.get("grid", {})), raw=raw)


def _kernel_from(section: dict) -> KernelSpec:
    family = _require(section, "family", "domain.kernel")
    try:
        return KernelSpec(family=family,
                          lengthscale=float(section.get("lengthscale", 1.0)),
                          nu=section.get("nu"),
                          latent_cov=section.get("latent_cov"))
    except Exception as exc:
        raise ConfigError(f"invalid kernel section: {exc}") from exc


def _uniform_layout(layout: dict, rng: np.random.Generator):
    dim = _number(int, layout.get("dim", 2), "domain.layout.dim")
    s_count = _number(int, _require(layout, "s_count", "domain.layout"), "domain.layout.s_count")
    a_count = _number(int, _require(layout, "a_count", "domain.layout"), "domain.layout.a_count")
    floats = partial(np.asarray, dtype=float)
    box = _number(floats, layout.get("box", [[0.0, 1.0]] * dim), "domain.layout.box")
    a_box = _number(floats, layout.get("a_box", box), "domain.layout.a_box")
    if box.shape != (dim, 2) or a_box.shape != (dim, 2) or not np.isfinite([box, a_box]).all():
        raise ConfigError("fields 'domain.layout.box' and 'domain.layout.a_box' must list "
                          "finite [low, high] per dimension")
    s_coords = rng.uniform(box[:, 0], box[:, 1], size=(s_count, dim))
    a_coords = rng.uniform(a_box[:, 0], a_box[:, 1], size=(a_count, dim))
    points = [Point(i, coords=s_coords[i]) for i in range(s_count)]
    points += [Point(s_count + j, coords=a_coords[j]) for j in range(a_count)]
    sample_ids = tuple(range(s_count))
    target_ids = tuple(range(s_count, s_count + a_count))
    inside = np.all((s_coords >= a_box[:, 0]) & (s_coords <= a_box[:, 1]), axis=1)
    relevant = tuple(int(i) for i in np.where(inside)[0])
    return points, sample_ids, target_ids, relevant


def _grid_layout(layout: dict):
    s_count = _number(int, _require(layout, "s_count", "domain.layout"), "domain.layout.s_count")
    start = _number(float, layout.get("start", 0.0), "domain.layout.start")
    step = _number(float, layout.get("step", 1.0), "domain.layout.step")
    a_extra = _number(int, layout.get("a_extra", 0), "domain.layout.a_extra")
    include_s = bool(layout.get("include_s_in_a", True))
    coords = start + step * np.arange(s_count + a_extra)
    points = [Point(i, coords=[coords[i]]) for i in range(s_count + a_extra)]
    sample_ids = tuple(range(s_count))
    extras = tuple(range(s_count, s_count + a_extra))
    target_ids = (sample_ids + extras) if include_s else extras
    if not target_ids:
        raise ConfigError("grid layout produced an empty target space")
    return points, sample_ids, target_ids, sample_ids


def _resolve_ids(section, available: Sequence[int], field: str) -> tuple[int, ...]:
    if isinstance(section, dict):
        if "first" in section:
            return tuple(available[: int(section["first"])])
        if "count" in section:
            offset = int(section.get("from", 0))
            return tuple(available[offset: offset + int(section["count"])])
        raise ConfigError(f"field '{field}' must be an id list or use first/count")
    ids = tuple(int(i) for i in section)
    missing = set(ids) - set(available)
    if missing:
        raise ConfigError(f"field '{field}' references unknown ids {sorted(missing)}")
    return ids


def build_domain(config: RunConfig, seed: int) -> DomainInstance:
    """Realize the configured domain for one seed."""
    keys = np.random.SeedSequence(seed).generate_state(4)
    noise = NoiseModel.homoscedastic(float(config.hyper["rho"]) ** 2)
    source = config.domain["source"]
    if source == "synthetic":
        kernel = _kernel_from(_require(config.domain, "kernel", "domain"))
        layout = dict(_require(config.domain, "layout", "domain"))
        kind = layout.get("kind", "uniform")
        if kind == "uniform":
            if "a_count" not in layout and config.hyper["M"] is not None:
                layout["a_count"] = int(config.hyper["M"])
            points, sample_ids, target_ids, relevant = _uniform_layout(
                layout, np.random.default_rng(int(keys[0])))
        elif kind == "grid":
            points, sample_ids, target_ids, relevant = _grid_layout(layout)
        else:
            raise ConfigError(f"unknown layout kind {kind!r}")
    else:
        path = _require(config.domain, "path", "domain")
        try:
            points = load_embeddings(path)
        except OSError as exc:
            raise ConfigError(f"cannot read embeddings {path}: {exc}") from exc
        kernel = _kernel_from(config.domain.get("kernel", {"family": "embedding"}))
        ids = [p.index for p in points]
        sample_ids = _resolve_ids(_require(config.domain, "s", "domain"), ids, "domain.s")
        target_ids = _resolve_ids(_require(config.domain, "a", "domain"), ids, "domain.a")
        relevant = ()
    if config.relevant is not None:
        relevant = config.relevant
    truth = sample_gp_truth(kernel, points, int(keys[1]))
    oracle = labeled_oracle(truth, noise, int(keys[2]))
    prior = PosteriorState.from_prior(gram(kernel, points), noise)
    return DomainInstance(points=tuple(points), kernel=kernel, noise=noise,
                          prior=prior, sample_ids=tuple(sample_ids),
                          target_ids=tuple(target_ids), relevant=tuple(relevant),
                          truth=truth, oracle=oracle)


def build_policy(entry: dict, config: RunConfig, seed: int) -> Policy:
    """Materialize one policy entry with the run's hyperparameters."""
    hyper = config.hyper
    m = entry.get("m", hyper["m"])
    rule_tag = entry.get("name", entry["rule"])
    policy_seed = int(np.random.SeedSequence([seed, _stable_tag(rule_tag)]).generate_state(1)[0])
    return Policy(
        rule=entry["rule"],
        batch_size=int(entry.get("b", hyper["b"])),
        batch_mode=entry.get("batch_mode", "bace"),
        target_subsample=None if m is None else int(m),
        seed=policy_seed,
        rho=float(entry.get("rho", hyper["rho"])),
        beta=float(entry.get("beta", 1.0)),
        stabilize=bool(entry.get("stabilize", True)),
    )


def _stable_tag(name: str) -> int:
    value = 0
    for char in name:
        value = (value * 131 + ord(char)) % (2 ** 31)
    return value
