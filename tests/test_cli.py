import argparse
import json
import os
import subprocess
import sys
import time
from dataclasses import replace

import numpy as np
import pytest
from numpy.random import SeedSequence

import transduct
from transduct import cli, theory
from transduct.cli import main
from transduct.config import PRESETS, build_domain, load_config, parse_config
from transduct.data import (load_embeddings, load_run, load_table, save_embeddings,
                            save_embeddings_binary)
from transduct.errors import ConfigError
from transduct.kernels import KernelSpec, gram
from transduct.selection import RULES, Policy


def write_config(path, payload):
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh)
    return str(path)


def base_run_config(**overrides):
    payload = {
        "domain": {"source": "synthetic",
                   "kernel": {"family": "gaussian", "lengthscale": 0.3},
                   "layout": {"kind": "uniform", "dim": 2, "s_count": 25,
                              "a_count": 5, "a_box": [[0.6, 1.0], [0.6, 1.0]]}},
        "policies": ["itl", "random"],
        "rounds": 3,
        "seeds": [0, 1],
        "hyper": {"b": 2, "m": 3, "rho": 1.0, "k": 20},
    }
    payload.update(overrides)
    return payload


def set_field(cfg, path, value):
    """``cfg`` with the dotted ``path`` (through objects) set to ``value``."""
    *parents, key = path.split(".")
    section = cfg
    for name in parents:
        section = section[name]
    section[key] = value
    return cfg


def grid_theory_config(**overrides):
    payload = {
        "domain": {"source": "synthetic",
                   "kernel": {"family": "gaussian", "lengthscale": 0.6},
                   "layout": {"kind": "grid", "s_count": 3, "step": 2.0,
                              "a_extra": 2, "include_s_in_a": True}},
        "rounds": 5,
        "seeds": [0],
        "hyper": {"b": 2, "rho": 0.5},
        "epsilon": 0.4,
    }
    payload.update(overrides)
    return payload


class TestPresets:
    def test_table_values(self):
        assert PRESETS["mnist-like"] == {"b": 1, "m": 3, "M": 30, "rho": 0.01,
                                         "k": 1000}
        assert PRESETS["cifar-like"] == {"b": 10, "m": 10, "M": 100, "rho": 1.0,
                                         "k": 1000}

    def test_preset_feeds_hyper(self, tmp_path):
        cfg = base_run_config()
        del cfg["hyper"]
        path = write_config(tmp_path / "c.json", cfg)
        config = load_config(path, preset="mnist-like")
        assert config.hyper["rho"] == 0.01 and config.hyper["b"] == 1


class TestConfigValidation:
    def test_rejects_unknown_rule(self):
        with pytest.raises(ConfigError, match="policies"):
            parse_config(base_run_config(policies=["itll"]))

    def test_rejects_missing_domain(self):
        cfg = base_run_config()
        del cfg["domain"]
        with pytest.raises(ConfigError, match="domain"):
            parse_config(cfg)

    def test_rejects_bad_rho(self):
        with pytest.raises(ConfigError, match="rho"):
            parse_config(base_run_config(hyper={"rho": 0.0}))

    def test_rejects_empty_seeds(self):
        with pytest.raises(ConfigError, match="seeds"):
            parse_config(base_run_config(seeds=[]))

    @pytest.mark.parametrize("command, field, value", [
        ("run", "rounds", "abc"),
        ("run", "seeds", ["x"]),
        ("run", "relevant", [1, "x"]),
        ("theory", "epsilon", "tiny"),
        ("run", "domain.layout.dim", "two"),
        ("run", "domain.layout.s_count", "x"),
        ("run", "domain.layout.a_count", None),
        ("theory", "domain.layout.s_count", "x"),
        ("theory", "domain.layout.a_extra", float("inf")),
        ("theory", "domain.layout.start", [0.0]),
        ("theory", "domain.layout.step", "wide"),
        ("run", "hyper.b", "x"),
        ("theory", "hyper.rho", "x"),
        ("run", "hyper.rho", None),
        ("run", "hyper.k", [20]),
        ("run", "hyper.k", 2.5),
        ("run", "hyper.b", 2.5),
        ("run", "rounds", 1.5),
        ("run", "hyper.m", "three"),
        ("run", "hyper.M", {}),
        ("run", "domain.layout.box", [[0, "x"], [0, 1]]),
        ("run", "domain.layout.a_box", [[0.6, 1.0], [None, 1.0]]),
        ("run", "domain.layout.box", [[1, 0], [0, 1]]),
        ("run", "domain.layout.a_count", -1),
        ("theory", "domain.layout.s_count", -2),
        ("theory", "epsilon", float("nan")),
        ("run", "hyper.rho", float("inf")),
        ("theory", "domain.layout.step", float("-inf")),
        ("run", "relevant", [999, 3]),  # ids outside the sample space
        ("theory", "relevant", [1, 4]),
        # a JSON boolean is no number, though Python's bool subclasses int
        ("run", "rounds", True),
        ("run", "seeds", [True]),
        ("run", "relevant", [True]),
        ("theory", "epsilon", True),
        ("run", "hyper.b", True),
        ("theory", "hyper.rho", True),
        ("run", "domain.layout.s_count", True),
        ("theory", "domain.layout.a_extra", False),
        ("run", "domain.layout.box", [[0, True], [0, 1]]),
        ("theory", "domain.layout.step", True),
        ("run", "domain.kernel.lengthscale", True),
    ])
    def test_bad_number_is_config_error(self, tmp_path, capsys, command, field, value):
        cfg = base_run_config() if command == "run" else grid_theory_config()
        path = write_config(tmp_path / "c.json", set_field(cfg, field, value))
        assert main([command, "--config", path, "--out", str(tmp_path / "o")]) == 2
        err = capsys.readouterr().err
        assert repr(field) in err and "Traceback" not in err

    @pytest.mark.parametrize("command, path, value, named", [
        ("ablate", "grid.rho", ["x"], "hyper.rho"),
        ("ablate", "grid.rho", [1.0, None], "hyper.rho"),
        ("ablate", "grid.k", [2.5], "hyper.k"),
        ("ablate", "grid.batch_mode", ["sideways"], "policies[0].batch_mode"),
        ("ablate", "grid.rho", "x", "grid.rho"),
        ("ablate", "grid.b", [1], "b"),
        ("ablate", "grid", "x", "grid"),
        ("ablate", "grid", [], "grid"),
        ("run", "policies", [{"rule": "itl", "b": "x"}], "policies[0].b"),
        ("run", "policies", ["random", {"rule": "itl", "rho": "x"}], "rho"),  # no policy key
        ("run", "policies", [{"rule": "itl", "m": 1.5}], "policies[0].m"),
        ("run", "policies", [{"rule": "itl", "beta": []}], "beta"),  # beta is no policy key
        ("run", "policies", [{"rule": "random", "beta": float("inf")}], "beta"),
        ("run", "policies", [{"rule": "itl", "rho": float("nan")}], "rho"),
        ("run", "policies", [{"rule": "itl", "bb": 3}], "bb"),
        ("run", "policies", [{"rule": "itl", "name": 7}], "policies[0].name"),
        ("run", "policies", [{"rule": "itl", "batch_mode": "x"}], "policies[0].batch_mode"),
        ("run", "policies", ["max-entropy"], "policies"),
        ("run", "policies", [{"rule": "info-density"}], "policies"),
        ("run", "policies", "itl", "policies"),
        ("run", "hyper", "x", "hyper"),
        ("run", "seeds", 5, "seeds"),
        ("run", "relevant", 3, "relevant"),
        ("run", "domain", [], "domain"),
        ("run", "domain.kernel", "gaussian", "domain.kernel"),
        ("run", "domain.layout", [1], "domain.layout"),
        ("run", "domain.layout.s_cnt", 3, "s_cnt"),
        ("run", "domain.layout.kind", "spiral", "spiral"),
        ("theory", "domain.layout.a_count", 3, "a_count"),
        ("run", "policies", [{"rule": "itl", "rho": 0.5}], "rho"),
        ("run", "domain.kernel.lenghtscale", 0.3, "lenghtscale"),
        ("theory", "domain.kernel.nu", 1.5, "nu"),  # a gaussian kernel has no nu
        ("run", "domain.kernel.family", "gauss", "domain.kernel.family"),
        ("run", "domain.kernel", {"lengthscale": 0.3}, "family"),
        ("run", "domain.path", "e.txt", "path"),  # synthetic domains read no file
        ("run", "domain", {"source": "embeddings", "path": "e.txt", "s": [0], "a": [1],
                           "layout": {}}, "layout"),
        ("run", "domain", {"source": "embeddings", "path": "e.txt", "s": [0], "a": [1],
                           "kernel": {"family": "embedding", "lengthscale": 2.0}},
         "lengthscale"),
        ("run", "policies", [{"rule": "itl", "stabilize": "false"}], "policies[0].stabilize"),
        ("run", "policies", [{"rule": "itl", "stabilize": 0}], "policies[0].stabilize"),
        ("theory", "domain.layout.include_s_in_a", "no", "domain.layout.include_s_in_a"),
        ("run", "policies", ["itl", {"rule": "random", "m": 0}], "policies[1].m"),
        ("run", "policies", ["itl", {"rule": "ctl", "b": 0}], "policies[1].b"),
        ("run", "hyper.m", 0, "hyper.m"),
        ("run", "hyper.M", -1, "hyper.M"),  # unused, as the layout sets a_count
        ("ablate", "grid.M", [5, -1], "hyper.M"),
        ("run", "hyper.k", 1, "hyper.k"),  # below b = 2
        ("run", "policies", ["itl", {"rule": "ctl", "b": 21}], "hyper.k"),  # k = 20
        ("ablate", "grid.k", [20, 1], "hyper.k"),
        ("run", "policies", [{"rule": "itl", "b": True}], "policies[0].b"),
        ("run", "hyper.m", True, "hyper.m"),
        ("ablate", "grid.rho", [True], "hyper.rho"),
        ("run", "seeds", [0, 0], "seeds"),  # each record would count twice in the aggregates
        ("ablate", "grid.rho", [], "grid.rho"),  # an empty axis has no cell to run
    ])
    def test_bad_section_is_config_error(self, tmp_path, capsys, monkeypatch, command, path,
                                         value, named):
        builds = []
        for builder in ("build_domain", "build_prior"):
            monkeypatch.setattr(cli, builder, lambda *a: builds.append(a))
        cfg = (grid_theory_config() if command == "theory"
               else base_run_config(grid={"rho": [1.0]}))
        config_path = write_config(tmp_path / "c.json", set_field(cfg, path, value))
        assert main([command, "--config", config_path, "--out", str(tmp_path / "o")]) == 2
        err = capsys.readouterr().err
        assert repr(named) in err and "Traceback" not in err
        assert not builds  # refused while parsing, before any domain is built

    @pytest.mark.parametrize("command, overrides", [
        ("run", {"hyper": {"M": -1}}),
        ("ablate", {"grid": {"M": [5, -1]}}),
    ])
    def test_negative_M_is_named_as_written(self, tmp_path, capsys, command, overrides):
        # M sizes a uniform layout without a_count; its sign was reported as a_count's
        cfg = base_run_config(seeds=[0], **overrides)
        del cfg["domain"]["layout"]["a_count"]
        path = write_config(tmp_path / "c.json", cfg)
        assert main([command, "--config", path, "--out", str(tmp_path / "o")]) == 2
        err = capsys.readouterr().err
        assert "field 'hyper.M' must be at least 0" in err and "a_count" not in err
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("layout", [
        {"kind": "uniform", "s_count": 4, "a_count": 0},
        {"kind": "uniform", "s_count": 0, "a_count": 2},
        {"kind": "grid", "s_count": 3, "include_s_in_a": False},
        {"kind": "grid", "s_count": 0, "a_extra": 2},
    ])
    @pytest.mark.parametrize("command", ["run", "theory"])
    def test_empty_space_is_config_error(self, tmp_path, capsys, command, layout):
        cfg = base_run_config(seeds=[0])  # theory refuses more than one seed
        cfg["domain"]["layout"] = layout
        path = write_config(tmp_path / "c.json", cfg)
        assert main([command, "--config", path, "--out", str(tmp_path / "o")]) == 2
        err = capsys.readouterr().err
        assert "empty sample or target space" in err and "Traceback" not in err

    # an empty list names no seed: it is refused, not read as no override
    @pytest.mark.parametrize("command, seeds", [("run", "a"), ("ablate", "1,b"),
                                                ("theory", "0,x"), ("run", "-1"),
                                                ("run", ""), ("theory", "")])
    def test_bad_seed_override_is_config_error(self, tmp_path, capsys, command, seeds):
        cfg = (grid_theory_config() if command == "theory"
               else base_run_config(grid={"rho": [1.0]}))
        path = write_config(tmp_path / "c.json", cfg)
        assert main([command, "--config", path, "--out", str(tmp_path / "o"),
                     "--seeds", seeds]) == 2
        err = capsys.readouterr().err
        assert "'seeds'" in err and "Traceback" not in err

    @pytest.mark.parametrize("route", ["config", "--seeds"])
    @pytest.mark.parametrize("command", [["theory"], ["markov", "--x", "3"]])
    def test_theory_commands_refuse_more_than_one_seed(self, tmp_path, capsys, monkeypatch,
                                                       command, route):
        # each checks one instance, so a second seed would be silently dropped
        def build(*args):
            raise AssertionError("a domain was built before the seeds were checked")

        monkeypatch.setattr(cli, "build_prior", build)
        cfg = grid_theory_config(seeds=[0, 1] if route == "config" else [0])
        path = write_config(tmp_path / "t.json", cfg)
        flag = ["--seeds", "0,1"] if route == "--seeds" else []
        out = tmp_path / "o"
        assert main([command[0], "--config", path, "--out", str(out), *command[1:],
                     *flag]) == 2
        assert capsys.readouterr().err.startswith("error: field 'seeds'")
        assert not out.exists()

    @pytest.mark.parametrize("command, path, value, code, named", [
        ("run", "seeds", [-1], 2, "'seeds'"),
        ("theory", "seeds", [0, -1], 2, "'seeds'"),
        ("run", "hyper.rho", 1e200, 2, "'hyper.rho'"),  # rho^2 overflows
        ("run", "hyper.rho", 1e-200, 2, "'hyper.rho'"),  # rho^2 is 0
        ("run", "domain.kernel.lengthscale", 1e300, 2, "gaussian lengthscale"),
        ("theory", "domain.kernel.lengthscale", 1e300, 2, "gaussian lengthscale"),
        ("run", "domain.kernel.lengthscale", 1e-200, 2, "gaussian lengthscale"),  # square 0
        ("run", "domain.kernel", {"family": "laplace", "lengthscale": 1e300}, 0, ""),
        ("run", "domain.kernel", {"family": "matern", "lengthscale": 1e300, "nu": 2.5}, 0, ""),
        ("theory", "rounds", 10 ** 9, 4, "rounds"),  # refused before any allocation
        # numpy refuses the 14.6 TiB and 7.28 TiB layouts before touching memory
        ("run", "domain.layout.s_count", 10 ** 12, 4, "Unable to allocate 14.6 TiB"),
        ("theory", "domain.layout.s_count", 10 ** 12, 4, "Unable to allocate 7.28 TiB"),
    ])
    def test_extreme_values_keep_the_exit_code_contract(self, tmp_path, capsys, command, path,
                                                        value, code, named):
        cfg = grid_theory_config() if command == "theory" else base_run_config()
        config_path = write_config(tmp_path / "c.json", set_field(cfg, path, value))
        assert main([command, "--config", config_path, "--out", str(tmp_path / "o")]) == code
        err = capsys.readouterr().err
        assert named in err and "Traceback" not in err
        if code:  # a refused command leaves no output behind
            assert not (tmp_path / "o").exists()

    def test_unknown_top_level_key_is_config_error(self, tmp_path, capsys):
        cfg = base_run_config(round=50)
        path = write_config(tmp_path / "c.json", cfg)
        assert main(["run", "--config", path, "--out", str(tmp_path / "o")]) == 2
        err = capsys.readouterr().err
        assert "'round'" in err and "Traceback" not in err
        assert not (tmp_path / "o").exists()


class TestRunCommand:
    def test_writes_records_and_metrics(self, tmp_path):
        cfg = write_config(tmp_path / "c.json", base_run_config())
        out = tmp_path / "out"
        assert main(["run", "--config", cfg, "--out", str(out)]) == 0
        header, rows = load_table(str(out / "metrics.tsv"))
        assert header[0] == "policy"
        policies = {row[0] for row in rows}
        assert policies == {"00-itl", "01-random"}
        record = load_run(str(out / "records" / "00-itl_s0.jsonl"))
        assert [e.round for e in record.rounds] == [0, 1, 2, 3]

    def test_zero_rounds_header_only(self, tmp_path):
        cfg = write_config(tmp_path / "c.json", base_run_config(rounds=0))
        out = tmp_path / "out"
        assert main(["run", "--config", cfg, "--out", str(out)]) == 0
        _, rows = load_table(str(out / "metrics.tsv"))
        assert all(row[1] == 0 for row in rows)

    def test_byte_identical_across_runs(self, tmp_path):
        cfg = write_config(tmp_path / "c.json", base_run_config())
        outs = []
        for name in ("a", "b"):
            out = tmp_path / name
            assert main(["run", "--config", cfg, "--out", str(out)]) == 0
            outs.append(out)
        for rel in ["metrics.tsv", "metrics_raw.tsv",
                    "records/00-itl_s0.jsonl", "records/01-random_s1.jsonl"]:
            assert (outs[0] / rel).read_bytes() == (outs[1] / rel).read_bytes()

    def test_builds_each_domain_once_per_seed(self, tmp_path, monkeypatch):
        seeds = []

        def counting_build(config, seed):
            seeds.append(seed)
            return build_domain(config, seed)

        monkeypatch.setattr(cli, "build_domain", counting_build)
        cfg = write_config(tmp_path / "c.json", base_run_config())
        assert main(["run", "--config", cfg, "--out", str(tmp_path / "o")]) == 0
        assert sorted(seeds) == [0, 1]
        assert len(os.listdir(tmp_path / "o" / "records")) == 4

    def test_record_independent_of_preceding_policies(self, tmp_path):
        # each run draws its own label noise, so a policy's record does not
        # depend on which policies ran before it on the same domain
        alone, after = tmp_path / "alone", tmp_path / "after"
        for out, policies in ((alone, ["random"]), (after, ["itl", "ctl", "random"])):
            cfg = write_config(tmp_path / f"{out.name}.json",
                               base_run_config(policies=policies, seeds=[0]))
            assert main(["run", "--config", cfg, "--out", str(out)]) == 0
        assert (alone / "records" / "00-random_s0.jsonl").read_bytes() == \
            (after / "records" / "02-random_s0.jsonl").read_bytes()

    def test_jobs_flag_keeps_output_identical(self, tmp_path):
        cfg = write_config(tmp_path / "c.json", base_run_config())
        serial, parallel = tmp_path / "s", tmp_path / "p"
        assert main(["run", "--config", cfg, "--out", str(serial)]) == 0
        assert main(["run", "--config", cfg, "--out", str(parallel),
                     "--jobs", "4"]) == 0
        assert (serial / "metrics.tsv").read_bytes() == \
            (parallel / "metrics.tsv").read_bytes()

    def test_seed_override(self, tmp_path):
        cfg = write_config(tmp_path / "c.json", base_run_config())
        out = tmp_path / "out"
        assert main(["run", "--config", cfg, "--out", str(out),
                     "--seeds", "7"]) == 0
        assert sorted(os.listdir(out / "records")) == \
            ["00-itl_s7.jsonl", "01-random_s7.jsonl"]

    def test_stderr_recomputable_from_raw_rows(self, tmp_path):
        cfg = write_config(tmp_path / "c.json", base_run_config(seeds=[0, 1, 2]))
        out = tmp_path / "out"
        assert main(["run", "--config", cfg, "--out", str(out)]) == 0
        raw_header, raw_rows = load_table(str(out / "metrics_raw.tsv"))
        agg_header, agg_rows = load_table(str(out / "metrics.tsv"))
        mv = raw_header.index("mean_variance")
        for agg in agg_rows:
            policy, round_no = agg[0], agg[1]
            values = [r[mv] for r in raw_rows if r[0] == policy and r[2] == round_no]
            expected = np.std(values, ddof=1) / np.sqrt(len(values))
            got = agg[agg_header.index("mean_variance_stderr")]
            np.testing.assert_allclose(got, expected, rtol=1e-12)

    @pytest.mark.parametrize("rule", RULES)
    def test_every_rule_is_reachable(self, tmp_path, rule):
        cfg = base_run_config(policies=[rule], rounds=1, seeds=[0])
        assert parse_config(cfg).policies == (
            (rule, Policy(rule=rule, batch_size=2, target_subsample=3)),)
        out = tmp_path / "out"
        assert main(["run", "--config", write_config(tmp_path / "c.json", cfg),
                     "--out", str(out)]) == 0
        record = load_run(str(out / "records" / f"{cli._tag(rule, 0)}_s0.jsonl"))
        assert record.config["rule"] == rule
        assert record.config["policy"]["beta"] == 1.0  # v1 headers keep the field
        assert record.config["policy"]["rho"] == record.config["hyper"]["rho"]
        assert len(record.rounds[1].chosen) == 2

    def test_itl_batches_hold_no_point_and_its_copy(self, tmp_path):
        # 60 sample and 6 target unit vectors, and every sample row again under
        # ids 66-125: nearest-neighbour retrieval (cosine) takes a point and its
        # copy into one batch, information-based selection does not
        rng = np.random.default_rng(0)
        x = rng.standard_normal((66, 16))
        x /= np.linalg.norm(x, axis=1, keepdims=True)
        emb = tmp_path / "emb.txt"
        save_embeddings(range(126), np.vstack([x, x[:60]]), str(emb))
        domain = {"source": "embeddings", "path": str(emb),
                  "s": list(range(60)) + list(range(66, 126)), "a": list(range(60, 66))}
        cfg = base_run_config(domain=domain, policies=["itl", "cosine", "ctl"], rounds=8,
                              seeds=[0], hyper={"b": 5, "rho": 0.5})
        out = tmp_path / "out"
        assert main(["run", "--config", write_config(tmp_path / "c.json", cfg),
                     "--out", str(out)]) == 0
        pairs = {}
        for tag in ("00-itl", "01-cosine", "02-ctl"):
            record = load_run(str(out / "records" / f"{tag}_s0.jsonl"))
            pairs[tag] = sum(len(e.chosen) - len({i - 66 if i >= 66 else i for i in e.chosen})
                             for e in record.rounds[1:])
        assert pairs["00-itl"] == 0
        assert pairs["01-cosine"] > 0  # 16 pairs in 8 batches
        # CTL is left unasserted (8 pairs here): it scores correlations, and a
        # noisy observation of x lowers its copy's correlation only in part

    def test_header_keeps_v1_policy_fields(self, tmp_path):
        # Policy has no rho or beta; the header adds them as v1 records carry them
        cfg = base_run_config(policies=[{"rule": "itl", "name": "x", "m": None}],
                              rounds=1, seeds=[4], hyper={"b": 2, "rho": 0.5})
        out = tmp_path / "out"
        assert main(["run", "--config", write_config(tmp_path / "c.json", cfg),
                     "--out", str(out)]) == 0
        header = json.loads((out / "records" / "00-x_s4.jsonl").read_text().splitlines()[0])
        policy = header["config"]["policy"]
        assert policy.pop("seed") == SeedSequence([4, cli._stable_tag("x")]).generate_state(1)[0]
        assert policy == {"rule": "itl", "batch_size": 2, "batch_mode": "bace",
                          "target_subsample": None, "stabilize": True,
                          "beta": 1.0, "rho": 0.5}

    def test_non_finite_target_block_exits_3(self, tmp_path, capsys, monkeypatch):
        def poisoned_build(config, seed):
            domain = build_domain(config, seed)
            cov = domain.prior.cov.copy()
            pa = domain.prior.gram.positions(domain.target_ids)
            cov[np.ix_(pa, pa)] = np.nan
            return replace(domain, prior=replace(domain.prior, base=cov))

        monkeypatch.setattr(cli, "build_domain", poisoned_build)
        cfg = write_config(tmp_path / "c.json", base_run_config(policies=["itl"]))
        with np.errstate(invalid="ignore"):
            assert main(["run", "--config", cfg, "--out", str(tmp_path / "o")]) == 3
        err = capsys.readouterr().err
        assert "Cholesky factorization produced non-finite" in err and "Traceback" not in err
        assert not (tmp_path / "o" / "records").exists()

    def test_config_error_exit_code(self, tmp_path):
        cfg = write_config(tmp_path / "c.json", base_run_config(policies=["nope"]))
        assert main(["run", "--config", cfg, "--out", str(tmp_path / "o")]) == 2

    def test_missing_config_exit_code(self, tmp_path):
        assert main(["run", "--config", str(tmp_path / "missing.json"),
                     "--out", str(tmp_path / "o")]) == 2


class TestTheoryCommand:
    def test_all_checks_pass_on_grid(self, tmp_path, capsys):
        cfg = write_config(tmp_path / "t.json", grid_theory_config())
        out = tmp_path / "out"
        assert main(["theory", "--config", cfg, "--out", str(out)]) == 0
        header, rows = load_table(str(out / "theory_diagnostics.tsv"))
        assert [row[0] for row in rows] == ["step-gain-bound", "within-sample-bound",
                                            "explicit-variance-bound", "submodularity-ratio"]
        statuses = {row[0]: row[1] for row in rows}
        assert statuses["step-gain-bound"] == "pass"
        assert statuses["within-sample-bound"] == "pass"
        assert statuses["explicit-variance-bound"] == "pass"
        assert statuses["submodularity-ratio"] == "pass"
        assert (out / "theory_rows.json").exists()

    def test_infeasible_epsilon_refused_before_capacity_enumeration(self, tmp_path,
                                                                    monkeypatch):
        def enumerate_capacity(trajectory):
            raise AssertionError("step-gain check ran before the size condition")

        monkeypatch.setattr(cli, "check_gamma_bound", enumerate_capacity)
        cfg = write_config(tmp_path / "t.json", grid_theory_config(epsilon=1e-9))
        assert main(["theory", "--config", cfg, "--out", str(tmp_path / "o")]) == 4

    def test_infeasible_epsilon_refused_before_the_rollout(self, tmp_path, monkeypatch):
        def rollout(*args, **kwargs):
            raise AssertionError("the rollout ran before the size condition")

        monkeypatch.setattr(cli, "greedy_itl_trajectory", rollout)
        cfg = write_config(tmp_path / "t.json", grid_theory_config(epsilon=1e-9))
        assert main(["theory", "--config", cfg, "--out", str(tmp_path / "o")]) == 4

    @pytest.mark.parametrize("epsilon", [1.0, None])
    @pytest.mark.parametrize("command", [["theory"], ["markov", "--x", "0"]])
    def test_zero_prior_is_a_budget_error(self, tmp_path, capsys, command, epsilon):
        # a linear kernel on the single grid point 0 has an all-zero Gram; an
        # unset epsilon defaults to 0.05 of its largest variance, which is 0
        cfg = grid_theory_config(epsilon=epsilon)
        if epsilon is None:
            del cfg["epsilon"]
        cfg["domain"]["kernel"] = {"family": "linear"}
        cfg["domain"]["layout"].update(s_count=1, a_extra=0)
        path = write_config(tmp_path / "t.json", cfg)
        assert main([command[0], "--config", path, "--out", str(tmp_path / "o"),
                     *command[1:]]) == 4
        assert "size condition is vacuous" in capsys.readouterr().err

    def test_sample_gram_singular_up_to_round_off_is_refused_as_singular(self, tmp_path,
                                                                         capsys):
        # 4 sample points in 3 dimensions under a linear kernel: the sample
        # Gram has rank 3, though round-off leaves its lambda_min at 1e-16 > 0
        emb = tmp_path / "emb.txt"
        save_embeddings(range(6), np.random.default_rng(2).standard_normal((6, 3)), str(emb))
        domain = {"source": "embeddings", "path": str(emb), "s": {"first": 4},
                  "a": {"first": 6}, "kernel": {"family": "linear"}}
        path = write_config(tmp_path / "t.json", grid_theory_config(domain=domain, epsilon=1.0))
        assert main(["theory", "--config", path, "--out", str(tmp_path / "o")]) == 4
        assert "the sample Gram is singular" in capsys.readouterr().err

    @pytest.mark.parametrize("command", [["theory"], ["markov", "--x", "3"]])
    def test_sample_gram_spectrum_computed_once(self, tmp_path, monkeypatch, command):
        calls = []
        eigvalsh = np.linalg.eigvalsh

        def counted(matrix, *args, **kwargs):
            calls.append(np.shape(matrix))
            return eigvalsh(matrix, *args, **kwargs)

        monkeypatch.setattr(np.linalg, "eigvalsh", counted)
        cfg = write_config(tmp_path / "t.json", grid_theory_config())
        assert main([command[0], "--config", cfg, "--out", str(tmp_path / "o"),
                     *command[1:]]) == 0
        assert calls == [(3, 3)]

    def test_requires_sample_inside_targets(self, tmp_path):
        cfg = grid_theory_config()
        cfg["domain"]["layout"]["include_s_in_a"] = False
        path = write_config(tmp_path / "t.json", cfg)
        assert main(["theory", "--config", path, "--out", str(tmp_path / "o")]) == 2


class TestMarkovCommand:
    def test_boundary_for_extrapolation_point(self, tmp_path):
        cfg = write_config(tmp_path / "t.json", grid_theory_config())
        out = tmp_path / "out"
        assert main(["markov", "--config", cfg, "--out", str(out),
                     "--x", "3", "--epsilon", "0.4"]) == 0
        payload = json.loads((out / "markov.json").read_text())
        assert payload["verified"] is True
        assert len(payload["members"]) <= payload["size_bound"]

    def test_budget_exit_code(self, tmp_path):
        cfg = write_config(tmp_path / "t.json", grid_theory_config())
        assert main(["markov", "--config", cfg, "--out", str(tmp_path / "o"),
                     "--x", "3", "--epsilon", "1e-9"]) == 4

    def test_infeasible_epsilon_refused_before_the_floor(self, tmp_path, monkeypatch):
        def floor(*args):
            raise AssertionError("eta_S^2(x) was factored before the size condition")

        monkeypatch.setattr(theory, "irreducible_uncertainty", floor)
        cfg = write_config(tmp_path / "t.json", grid_theory_config())
        assert main(["markov", "--config", cfg, "--out", str(tmp_path / "o"),
                     "--x", "3", "--epsilon", "1e-9"]) == 4

    @pytest.mark.parametrize("epsilon", [[], ["--epsilon", "1e-9"]])
    def test_unknown_x_is_refused_before_the_size_condition(self, tmp_path, capsys,
                                                            monkeypatch, epsilon):
        # at the config's epsilon b_eps would be sized first, and at 1e-9 the
        # size condition's refusal (exit 4) would hide the bad index
        def size_bound(*args):
            raise AssertionError("b_eps was sized before x was resolved")

        monkeypatch.setattr(theory, "markov_size_bound", size_bound)
        cfg = write_config(tmp_path / "t.json", grid_theory_config())
        out = tmp_path / "o"
        assert main(["markov", "--config", cfg, "--out", str(out), "--x", "999",
                     *epsilon]) == 2
        assert capsys.readouterr().err == "error: index 999 is not in this Gram matrix\n"
        assert not out.exists()

    @pytest.mark.parametrize("value", ["inf", "nan", "-1"])
    def test_bad_epsilon_flag_is_config_error(self, tmp_path, capsys, value):
        cfg = write_config(tmp_path / "t.json", grid_theory_config())
        out = tmp_path / "o"
        assert main(["markov", "--config", cfg, "--out", str(out),
                     "--x", "3", "--epsilon", value]) == 2
        assert "--epsilon" in capsys.readouterr().err
        assert not (out / "markov.json").exists()


class TestAblateCommand:
    def test_rho_axis_table(self, tmp_path):
        cfg = base_run_config(policies=["itl"], seeds=[0],
                              grid={"rho": [0.0001, 0.01, 1, 100]})
        path = write_config(tmp_path / "c.json", cfg)
        out = tmp_path / "out"
        assert main(["ablate", "--config", path, "--out", str(out)]) == 0
        header, rows = load_table(str(out / "ablation.tsv"))
        assert header[0] == "rho"
        assert [row[0] for row in rows] == [0.0001, 0.01, 1, 100]

    def test_batch_mode_contrast(self, tmp_path):
        cfg = base_run_config(policies=["itl"], seeds=[0, 1],
                              grid={"batch_mode": ["bace", "topb"]})
        path = write_config(tmp_path / "c.json", cfg)
        out = tmp_path / "out"
        assert main(["ablate", "--config", path, "--out", str(out)]) == 0
        _, rows = load_table(str(out / "ablation.tsv"))
        assert [row[0] for row in rows] == ["bace", "topb"]

    def test_single_cell_grid(self, tmp_path):
        cfg = base_run_config(policies=["itl"], seeds=[0], grid={"m": [2]})
        path = write_config(tmp_path / "c.json", cfg)
        out = tmp_path / "out"
        assert main(["ablate", "--config", path, "--out", str(out)]) == 0
        _, rows = load_table(str(out / "ablation.tsv"))
        assert len(rows) == 1

    def test_jobs_flag_keeps_table_identical(self, tmp_path):
        cfg = base_run_config(policies=["itl", {"rule": "random", "name": "rnd"}],
                              seeds=[0, 1, 2],
                              grid={"rho": [0.5, 1.0], "batch_mode": ["bace", "topb"]})
        path = write_config(tmp_path / "c.json", cfg)
        tables = []
        for jobs in ("1", "2"):
            out = tmp_path / f"j{jobs}"
            assert main(["ablate", "--config", path, "--out", str(out), "--jobs", jobs]) == 0
            tables.append((out / "ablation.tsv").read_bytes())
        assert tables[0] == tables[1]
        _, rows = load_table(str(tmp_path / "j1" / "ablation.tsv"))
        assert [row[:3] for row in rows[:4]] == [
            [0.5, "bace", "00-itl"], [0.5, "bace", "01-rnd"],
            [0.5, "topb", "00-itl"], [0.5, "topb", "01-rnd"]]

    def test_cell_runs_match_a_plain_run(self, tmp_path):
        # a cell is an ordinary config: its row is the final round of `run`
        # on the config with the cell's values filled in
        cfg = base_run_config(policies=["itl"], grid={"m": [2]})
        path = write_config(tmp_path / "c.json", cfg)
        assert main(["ablate", "--config", path, "--out", str(tmp_path / "a")]) == 0
        plain = base_run_config(policies=["itl"])
        plain["hyper"]["m"] = 2
        path = write_config(tmp_path / "p.json", plain)
        assert main(["run", "--config", path, "--out", str(tmp_path / "r")]) == 0
        _, rows = load_table(str(tmp_path / "a" / "ablation.tsv"))
        header, agg = load_table(str(tmp_path / "r" / "metrics.tsv"))
        final = agg[-1]
        assert rows == [[2, "00-itl",
                         final[header.index("mean_variance_mean")],
                         final[header.index("mean_variance_stderr")],
                         final[header.index("distinct_relevant_mean")],
                         final[header.index("distinct_relevant_stderr")]]]

    def test_oversized_grid_refused(self, tmp_path):
        cfg = base_run_config(policies=["itl"],
                              seeds=list(range(60)),
                              grid={"rho": [0.1, 1.0], "k": list(range(1, 12))})
        path = write_config(tmp_path / "c.json", cfg)
        assert main(["ablate", "--config", path, "--out", str(tmp_path / "o")]) == 4

    def test_huge_grid_refused_before_expansion(self, tmp_path):
        # 56^4 ~ 9.8e6 cells: expanding the cross product first would take
        # minutes and gigabytes, so the run count must come from the axis lengths
        steps = range(56)
        cfg = base_run_config(policies=["itl"], seeds=[0],
                              grid={"rho": [0.5 + 0.01 * i for i in steps],
                                    "k": [10 * (i + 1) for i in steps],
                                    "m": [i + 1 for i in steps],
                                    "M": [10 * (i + 1) for i in steps]})
        path = write_config(tmp_path / "c.json", cfg)
        start = time.perf_counter()
        assert main(["ablate", "--config", path, "--out", str(tmp_path / "o")]) == 4
        assert time.perf_counter() - start < 5.0


class TestDomainBuilders:
    def test_uniform_layout_disjoint_ids(self, tmp_path):
        config = parse_config(base_run_config())
        from transduct.config import build_domain

        domain = build_domain(config, seed=0)
        assert set(domain.sample_ids).isdisjoint(domain.target_ids)
        assert set(domain.relevant) <= set(domain.sample_ids)
        assert domain.truth is not None

    @pytest.mark.parametrize("kernel", [
        {"family": "linear"}, {"family": "gaussian", "lengthscale": 0.4},
        {"family": "laplace", "lengthscale": 0.4},
        {"family": "matern", "lengthscale": 0.4, "nu": 1.5}])
    def test_kernel_takes_its_family_fields(self, kernel):
        cfg = grid_theory_config()
        cfg["domain"]["kernel"] = kernel
        coords = [[2.0 * i] for i in range(5)]  # the grid layout's
        np.testing.assert_array_equal(build_domain(parse_config(cfg), seed=0).prior.gram.values,
                                      gram(KernelSpec(**kernel), range(5), coords).values)

    def test_embedding_kernel_takes_latent_cov(self, tmp_path):
        emb = tmp_path / "emb.txt"
        emb.write_text("p=2 n=3\n0,1.0,0.0\n1,0.5,0.5\n2,0.0,1.0\n")
        kernel = {"family": "embedding", "latent_cov": [[1.0, 0.0], [0.0, 4.0]]}
        cfg = base_run_config(domain={"source": "embeddings", "path": str(emb), "s": [0, 1],
                                      "a": [2], "kernel": kernel})
        domain = build_domain(parse_config(cfg), seed=0)
        spec = KernelSpec("embedding", latent_cov=np.array(kernel["latent_cov"]))
        np.testing.assert_array_equal(domain.prior.gram.values,
                                      gram(spec, *load_embeddings(str(emb))).values)
        kernel["latent_cov"] = [[True, 0.0], [0.0, 4.0]]
        with pytest.raises(ConfigError, match="'domain.kernel.latent_cov'"):
            build_domain(parse_config(cfg), seed=0)

    def test_one_gram_per_domain(self, monkeypatch):
        calls = []
        for module in (transduct.config, transduct.data):
            def counted(spec, ids, features, _gram=module.gram):
                calls.append(len(ids))
                return _gram(spec, ids, features)
            monkeypatch.setattr(module, "gram", counted)
        domain = build_domain(parse_config(base_run_config()), seed=0)
        assert calls == [domain.prior.gram.size]

    def test_embedding_domain(self, tmp_path):
        emb = tmp_path / "emb.txt"
        emb.write_text("p=2 n=4\n0,1.0,0.0\n1,0.9,0.1\n2,0.0,1.0\n3,0.1,0.9\n")
        payload = {
            "domain": {"source": "embeddings", "path": str(emb),
                       "s": [0, 1], "a": [2, 3]},
            "policies": ["ctl"],
            "rounds": 1,
            "seeds": [0],
            "hyper": {"b": 1, "rho": 0.5},
        }
        config = parse_config(payload)
        from transduct.config import build_domain

        domain = build_domain(config, seed=0)
        assert domain.sample_ids == (0, 1)
        assert domain.prior.gram.size == 4

    @pytest.mark.parametrize("kernel", [
        {"family": "gaussian", "lengthscale": 0.5}, {"family": "laplace", "lengthscale": 0.5},
        {"family": "matern", "lengthscale": 0.5, "nu": 2.5}, {"family": "linear"}])
    @pytest.mark.parametrize("suffix", ["txt", "bin"])
    def test_any_kernel_family_reads_an_embeddings_file(self, tmp_path, kernel, suffix):
        emb = tmp_path / f"emb.{suffix}"
        ids, features = [5, 0, 7, 2, 9, 4], np.random.default_rng(3).standard_normal((6, 3))
        (save_embeddings if suffix == "txt" else save_embeddings_binary)(ids, features, str(emb))
        domain = {"source": "embeddings", "path": str(emb), "s": {"first": 4},
                  "a": {"first": 6}, "kernel": kernel}  # theory needs S inside A
        prior = build_domain(parse_config(base_run_config(domain=domain)), seed=0).prior
        assert prior.gram.ids == tuple(ids)
        assert np.array_equal(prior.gram.values, gram(KernelSpec(**kernel), ids, features).values)
        runs = [("run", base_run_config(domain=domain, rounds=2))]
        if kernel["family"] != "linear":  # 4 sample points in 3 dimensions: theory exits 4
            runs.append(("theory", grid_theory_config(domain=domain, rounds=2)))
        for command, payload in runs:
            path = write_config(tmp_path / f"{command}.json", payload)
            assert main([command, "--config", path, "--out", str(tmp_path / command)]) == 0

    def test_overflowing_grid_step_exits_2(self, tmp_path, capsys):
        cfg = grid_theory_config()
        cfg["domain"]["layout"]["step"] = 1e308  # 1e308 * 2 is inf
        for command in ("run", "theory"):
            path = write_config(tmp_path / "c.json", cfg)
            assert main([command, "--config", path, "--out", str(tmp_path / command)]) == 2
            err = capsys.readouterr().err
            assert err.startswith("error: ") and "'domain.layout.step'" in err
            assert "non-finite" in err and "Traceback" not in err

    @pytest.mark.parametrize("field, value, named", [
        ("s", {"first": -3}, "domain.s.first"),
        ("s", {"first": 4, "bogus": 1}, "bogus"),
        ("s", {"first": 4, "count": 2}, "count"),
        ("s", {"count": 3, "from": -4}, "domain.s.from"),
        ("s", {"from": 2}, "count"),
        ("s", {"count": "x"}, "domain.s.count"),
        ("s", "all", "domain.s"),
        ("a", [10, 10, 11], "domain.a"),
        ("a", [10, -1], "domain.a"),
        ("a", [10, 12], "domain.a"),  # the file's ids are 0..11
        ("s", {"first": True}, "domain.s.first"),
        ("a", [True, 10], "domain.a"),
    ])
    def test_bad_id_selector_is_config_error(self, tmp_path, capsys, field, value, named):
        emb = tmp_path / "emb.txt"
        emb.write_text("p=2 n=12\n" + "".join(f"{i},{i / 11!r},{1 - i / 11!r}\n"
                                             for i in range(12)))
        domain = {"source": "embeddings", "path": str(emb), "s": {"first": 9}, "a": [9, 10, 11]}
        domain[field] = value
        path = write_config(tmp_path / "c.json", base_run_config(domain=domain))
        assert main(["run", "--config", path, "--out", str(tmp_path / "o")]) == 2
        err = capsys.readouterr().err
        assert repr(named) in err and "Traceback" not in err

    @pytest.mark.parametrize("value, stated", [
        ({"first": 100}, "100 points from position 0"),
        ({"count": 4, "from": 10}, "4 points from position 10"),
    ])
    def test_selector_past_the_end_is_config_error(self, tmp_path, capsys, value, stated):
        emb = tmp_path / "emb.txt"
        emb.write_text("p=2 n=12\n" + "".join(f"{i},{i / 11!r},{1 - i / 11!r}\n"
                                             for i in range(12)))
        domain = {"source": "embeddings", "path": str(emb), "s": value, "a": [9, 10, 11]}
        path = write_config(tmp_path / "c.json", base_run_config(domain=domain))
        assert main(["run", "--config", path, "--out", str(tmp_path / "o")]) == 2
        err = capsys.readouterr().err
        assert "'domain.s'" in err and stated in err and "has 12 points" in err
        assert "Traceback" not in err

    def test_binary_embeddings_file_gives_identical_outputs(self, tmp_path):
        text = tmp_path / "emb.txt"
        rng = np.random.default_rng(5)
        text.write_text("p=3 n=12\n" + "".join(
            f"{i}," + ",".join(repr(float(v)) for v in rng.standard_normal(3)) + "\n"
            for i in range(12)))
        binary = tmp_path / "emb.bin"
        save_embeddings_binary(*load_embeddings(str(text)), str(binary))
        assert binary.read_bytes().startswith(b"TDEMB1\n")
        outs = []
        for path in (text, binary):
            cfg = base_run_config(domain={"source": "embeddings", "path": str(path),
                                          "s": {"first": 9}, "a": [9, 10, 11]},
                                  policies=["itl", "ctl", "kmeans++"])
            out = tmp_path / path.suffix[1:]
            assert main(["run", "--config", write_config(tmp_path / "c.json", cfg),
                         "--out", str(out)]) == 0
            outs.append(out)
        names = sorted(str(p.relative_to(outs[0])) for p in outs[0].rglob("*") if p.is_file())
        assert len(names) == 8
        for name in names:
            # record headers name no file path, so every byte must agree
            assert (outs[0] / name).read_bytes() == (outs[1] / name).read_bytes(), name

    def test_env_log_level(self, tmp_path, monkeypatch):
        monkeypatch.setenv("TRANSDUCT_LOG", "debug")
        cfg = write_config(tmp_path / "c.json", base_run_config(rounds=1, seeds=[0]))
        assert main(["run", "--config", cfg, "--out", str(tmp_path / "o")]) == 0


def command_argv(tmp_path, command):
    """A small valid invocation of ``command``, without ``--out``."""
    payload = {"run": base_run_config(), "ablate": base_run_config(grid={"rho": [0.5]}),
               "theory": grid_theory_config(), "markov": grid_theory_config()}[command]
    argv = [command, "--config", write_config(tmp_path / "c.json", payload)]
    return argv + (["--x", "3"] if command == "markov" else [])


COMMANDS = ("run", "theory", "markov", "ablate")


class TestOutputContract:
    @pytest.fixture
    def no_domain(self, monkeypatch):
        def build(config, seed):
            raise AssertionError("a domain was built")
        for builder in ("build_domain", "build_prior"):
            monkeypatch.setattr(cli, builder, build)

    @pytest.mark.parametrize("command", COMMANDS)
    def test_out_naming_a_file_exits_2_before_any_domain(self, tmp_path, capsys, no_domain,
                                                          command):
        argv = command_argv(tmp_path, command)
        taken = tmp_path / "taken"
        taken.write_text("kept")
        before = sorted(os.listdir(tmp_path))
        assert main(argv + ["--out", str(taken)]) == 2
        assert capsys.readouterr().err.startswith("error: --out")
        assert taken.read_text() == "kept" and sorted(os.listdir(tmp_path)) == before

    @pytest.mark.parametrize("command", COMMANDS)
    @pytest.mark.parametrize("jobs", ["0", "-2"])
    def test_jobs_below_one_exits_2_before_any_domain(self, tmp_path, capsys, no_domain,
                                                       command, jobs):
        argv = command_argv(tmp_path, command) + ["--out", str(tmp_path / "o"), "--jobs", jobs]
        assert main(argv) == 2
        assert capsys.readouterr().err.startswith("error: --jobs")
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("command", COMMANDS)
    def test_unwritable_output_exits_2(self, tmp_path, capsys, command):
        (tmp_path / "file").write_text("")
        argv = command_argv(tmp_path, command) + ["--out", str(tmp_path / "file" / "o")]
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and "Traceback" not in err

    def test_json_outputs_are_written_atomically(self, tmp_path, monkeypatch):
        written = []

        def atomic_write(path, payload, _write=cli._atomic_write):
            written.append(os.path.basename(path))
            _write(path, payload)

        monkeypatch.setattr(cli, "_atomic_write", atomic_write)
        for command in ("theory", "markov"):
            out = tmp_path / command
            assert main(command_argv(tmp_path, command) + ["--out", str(out)]) == 0
            assert sorted(p.name for p in out.iterdir()) == sorted(
                ["theory_diagnostics.tsv", "theory_rows.json"] if command == "theory"
                else ["markov.json"])
        assert written == ["theory_rows.json", "markov.json"]
        rows = (tmp_path / "theory" / "theory_rows.json").read_text()
        assert rows == json.dumps(json.loads(rows), sort_keys=True, indent=1)


class TestOneParserPerProcess:
    @pytest.fixture
    def fresh_parser(self):
        cli._build_parser.cache_clear()
        yield
        cli._build_parser.cache_clear()

    def test_two_calls_construct_one_parser(self, tmp_path, monkeypatch, fresh_parser):
        built = []
        init = argparse.ArgumentParser.__init__

        def counting_init(self, *args, **kwargs):
            built.append(kwargs.get("prog"))
            init(self, *args, **kwargs)

        monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting_init)
        argv = command_argv(tmp_path, "theory") + ["--out", str(tmp_path / "o")]
        assert main(argv) == 0 and main(argv) == 0
        assert built.count("transduct") == 1

    def test_calls_in_one_process_equal_lone_calls(self, tmp_path, monkeypatch, capsys,
                                                   fresh_parser):
        parsed = []
        parse = argparse.ArgumentParser.parse_args

        def recording_parse(self, *args, **kwargs):
            namespace = parse(self, *args, **kwargs)
            parsed.append(dict(vars(namespace)))
            return namespace

        monkeypatch.setattr(argparse.ArgumentParser, "parse_args", recording_parse)
        theory_cfg = write_config(tmp_path / "theory.json", grid_theory_config())
        run_cfg = write_config(tmp_path / "run.json", base_run_config())
        oversized = write_config(tmp_path / "ablate.json", base_run_config(
            policies=["itl"], seeds=list(range(60)),
            grid={"rho": [0.1, 1.0], "k": list(range(1, 12))}))
        calls = [["markov", "--config", theory_cfg, "--x", "3", "--epsilon", "0.1"],
                 ["markov", "--config", theory_cfg, "--x", "3"],
                 ["theory", "--config", theory_cfg, "--preset", "cifar-like"],
                 ["run", "--config", run_cfg],
                 ["run", "--config", run_cfg, "--jobs", "two"],
                 ["ablate", "--config", oversized]]

        def observe(argv, where):
            """Exit code, printed text, parsed arguments and written files of one call."""
            where.mkdir(parents=True)
            monkeypatch.chdir(where)  # every call writes to a relative --out
            parsed.clear()
            try:
                code = main(argv + ["--out", "o"])
            except SystemExit as exc:
                code = ("SystemExit", exc.code)
            files = {str(p.relative_to(where)): p.read_bytes()
                     for p in sorted(where.rglob("*")) if p.is_file()}
            return code, capsys.readouterr(), list(parsed), files

        lone = []
        for i, argv in enumerate(calls):
            cli._build_parser.cache_clear()
            lone.append(observe(argv, tmp_path / "lone" / str(i)))
        cli._build_parser.cache_clear()
        in_turn = [observe(argv, tmp_path / "in-turn" / str(i)) for i, argv in enumerate(calls)]
        assert [c[0] for c in lone] == [0, 0, 0, 0, ("SystemExit", 2), 4]
        assert [c[2][0]["epsilon"] for c in lone[:2]] == [0.1, None]
        assert [c[2][0]["preset"] for c in lone[2:4]] == ["cifar-like", None]
        assert "error: ablation grid expands to" in lone[5][1].err
        for i, (alone, after) in enumerate(zip(lone, in_turn)):
            assert after == alone, calls[i]

    def test_theory_and_markov_draw_no_truth(self, tmp_path, monkeypatch):
        def draw(*args):
            raise AssertionError("a truth was drawn")

        monkeypatch.setattr("transduct.config.sample_gp_truth", draw)
        for command in ("theory", "markov"):
            assert main(command_argv(tmp_path, command) + ["--out", str(tmp_path / command)]) == 0
        with pytest.raises(AssertionError, match="a truth was drawn"):  # run still draws one
            main(command_argv(tmp_path, "run") + ["--out", str(tmp_path / "run")])


def run_python(code):
    """Run ``code`` in a fresh interpreter that imports this package."""
    src = os.path.dirname(os.path.dirname(transduct.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    return subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, timeout=120)


class TestNumpyOnlyRuntime:
    @pytest.mark.parametrize("command,payload", [("run", base_run_config()),
                                                 ("theory", grid_theory_config())])
    def test_commands_run_with_scipy_blocked(self, tmp_path, command, payload):
        cfg = write_config(tmp_path / "c.json", payload)
        argv = [command, "--config", cfg, "--out", str(tmp_path / "o")]
        done = run_python("import sys\n"
                          "sys.modules['scipy'] = None  # any scipy import now fails\n"
                          "from transduct.cli import main\n"
                          f"sys.exit(main({argv!r}))\n")
        assert done.returncode == 0, done.stderr
        assert "Traceback" not in done.stderr

    def test_cli_import_loads_no_scipy(self):
        done = run_python("import sys, transduct.cli\n"
                          "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
        assert done.returncode == 0, done.stderr
        assert done.stdout.strip() == "[]"

    def test_package_import_loads_numpy_random(self):
        # numpy loads numpy.random lazily; the first draw must not pay for it
        done = run_python("import sys, transduct\n"
                          "print('numpy.random' in sys.modules)")
        assert done.returncode == 0, done.stderr
        assert done.stdout.strip() == "True"
