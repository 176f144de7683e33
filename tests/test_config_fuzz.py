"""Fuzz the CLI's exit-code contract over generated run configs.

Each example is a small valid config with up to two fields replaced by junk
(a wrong type, a non-finite or negative number, an empty container).
Whatever the config, ``run``, ``ablate``, ``theory`` and ``markov`` must
exit 0, 2, 3 or 4 and never raise.
"""

import contextlib
import copy
import io
import json
import os
import tempfile

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from transduct.cli import main
from transduct.selection import RULES

JUNK = st.sampled_from(["x", "3", None, True, [], {}, 2.5, float("nan"), float("inf"), 0, -1,
                        1e200, 1e-200])


def _dict(required, optional=None):
    return st.fixed_dictionaries(required, optional=optional or {})


_ids = st.one_of(st.lists(st.integers(0, 5), min_size=1, max_size=3),
                 _dict({"first": st.integers(0, 6)}),
                 _dict({"count": st.integers(0, 6)}, {"from": st.integers(0, 3)}))
_box = st.lists(st.lists(st.floats(-1, 2), min_size=2, max_size=2), min_size=2, max_size=2)
_DOMAIN = st.one_of(
    _dict({"source": st.just("synthetic"),
           "kernel": st.one_of(
               _dict({"family": st.sampled_from(["gaussian", "laplace"])},
                     {"lengthscale": st.floats(0.1, 2.0)}),
               _dict({"family": st.just("linear")})),
           "layout": st.one_of(
               _dict({"kind": st.just("uniform"), "s_count": st.integers(0, 12),
                      "a_count": st.integers(0, 4)},
                     {"dim": st.just(2), "box": _box, "a_box": _box}),
               _dict({"kind": st.just("grid"), "s_count": st.integers(0, 12)},
                     {"start": st.floats(-2, 2), "step": st.floats(-2, 2),
                      "a_extra": st.integers(0, 4), "include_s_in_a": st.booleans()}))}),
    _dict({"source": st.just("embeddings"), "path": st.just("EMBEDDINGS"), "s": _ids,
           "a": _ids}))
_RULE = st.sampled_from(RULES)
_POLICY = st.one_of(_RULE, _dict({"rule": _RULE}, {
    "name": st.text("ab -", max_size=3), "b": st.integers(1, 3), "m": st.integers(1, 3),
    "batch_mode": st.sampled_from(["bace", "topb"]), "stabilize": st.booleans()}))
_AXES = {"rho": st.floats(0.01, 2), "k": st.integers(1, 12), "m": st.integers(1, 3),
         "M": st.integers(1, 4), "batch_mode": st.sampled_from(["bace", "topb"])}
_VALID = _dict({"domain": _DOMAIN}, {
    "policies": st.lists(_POLICY, min_size=1, max_size=2),
    "rounds": st.integers(0, 2),
    "seeds": st.lists(st.integers(0, 3), min_size=1, max_size=2),
    "hyper": _dict({}, {"b": st.integers(1, 3), "m": st.integers(1, 3),
                        "M": st.integers(1, 4), "k": st.integers(1, 12),
                        "rho": st.floats(0.01, 3)}),
    "relevant": st.lists(st.integers(0, 12), max_size=2),
    "epsilon": st.floats(0.01, 2),
    "grid": _dict({}, {axis: st.lists(values, min_size=1, max_size=2)
                       for axis, values in _AXES.items()})})

# dotted paths into the config; a number indexes a list
_PATHS = ["domain", "domain.source", "domain.path", "domain.s", "domain.a", "domain.s.0",
          "domain.kernel", "domain.kernel.family", "domain.kernel.lengthscale",
          "domain.kernel.extra", "domain.extra", "domain.layout.include_s_in_a", "domain.layout",
          "domain.layout.kind", "domain.layout.s_count", "domain.layout.a_count",
          "domain.layout.dim", "domain.layout.box", "domain.layout.step", "domain.layout.a_extra",
          "domain.layout.extra", "policies", "policies.0", "policies.0.b", "policies.0.m",
          "policies.0.rho", "policies.0.beta", "policies.0.name", "policies.0.batch_mode",
          "policies.0.rule", "policies.0.stabilize", "policies.0.extra", "rounds", "seeds",
          "seeds.0", "hyper", "hyper.b", "hyper.k", "hyper.m", "hyper.M", "hyper.rho",
          "hyper.extra", "relevant", "relevant.0", "epsilon", "grid", "grid.rho", "grid.rho.0",
          "grid.k.0", "grid.m", "grid.batch_mode.0", "grid.extra", "extra"]


def _replace(cfg: dict, path: str, value) -> None:
    """Set ``path`` to ``value`` if every section on the way exists."""
    *parents, key = path.split(".")
    section = cfg
    for name in parents:
        if isinstance(section, list) and name.isdigit() and int(name) < len(section):
            if isinstance(section[int(name)], str):  # a bare rule name
                section[int(name)] = {"rule": section[int(name)]}
            section = section[int(name)]
        elif isinstance(section, dict) and name in section:
            section = section[name]
        else:
            return
    if isinstance(section, dict):
        section[key] = value
    elif isinstance(section, list) and key.isdigit() and int(key) < len(section):
        section[int(key)] = value


@st.composite
def configs(draw):
    cfg = draw(_VALID)
    for path in draw(st.lists(st.sampled_from(_PATHS), max_size=2)):
        _replace(cfg, path, copy.deepcopy(draw(JUNK)))
    return cfg


@settings(max_examples=450, derandomize=True, deadline=None, database=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(command=st.sampled_from(["run", "ablate", "theory", "markov"]), cfg=configs())
def test_cli_exit_code_contract(command, cfg):
    with tempfile.TemporaryDirectory() as work:
        embeddings = os.path.join(work, "emb.txt")
        with open(embeddings, "w", encoding="utf-8") as fh:
            fh.write("p=2 n=6\n" + "".join(f"{i},{i / 5!r},{1 - i / 5!r}\n" for i in range(6)))
        if isinstance(cfg.get("domain"), dict) and cfg["domain"].get("path") == "EMBEDDINGS":
            cfg["domain"]["path"] = embeddings
        path = os.path.join(work, "c.json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(cfg, fh)
        with contextlib.redirect_stdout(io.StringIO()), \
                contextlib.redirect_stderr(io.StringIO()):
            code = main([command, "--config", path, "--out", os.path.join(work, "out")]
                        + (["--x", "0"] if command == "markov" else []))
    assert code in (0, 2, 3, 4)
