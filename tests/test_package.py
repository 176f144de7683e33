"""Checks on the package as a whole: no library code that only tests read,
a README tour that runs against the current API, and no heavy import on the
commands' paths."""

import ast
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "transduct"

#: Definitions that nothing in the package reads but that stay as public
#: entry points, each with where it is used from outside: a top-level name is
#: imported there, a class member read there as an attribute.
ENTRY_POINTS = {
    "condition": "acceptance",       # also patched by bench/tracing.py
    "information_gain": "acceptance",
    "brute_force_batch": "acceptance",
    "cov": "acceptance",             # PosteriorState.cov, the dense covariance
    "load_run": "readme",            # reads `transduct run`'s records back
    "load_table": "readme",          # reads the CLI's tables back
    "save_embeddings": "readme",     # writes the files `domain.path` reads
    "save_embeddings_binary": "readme",
}


def readme_tour() -> str:
    text = (ROOT / "README.md").read_text(encoding="utf-8")
    match = re.search(r"## Library tour\s+```python\n(.*?)```", text, re.S)
    assert match, "README has no library-tour code block"
    return match.group(1)


def acceptance_reads() -> tuple[set[str], set[str]]:
    """The names test_acceptance.py imports from the package, and the
    attributes it reads."""
    tree = ast.parse((ROOT / "tests" / "test_acceptance.py").read_text(encoding="utf-8"))
    imported = {alias.name for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)
                and (node.module or "").startswith("transduct") for alias in node.names}
    return imported, {node.attr for node in ast.walk(tree) if isinstance(node, ast.Attribute)}


def _reads(node: ast.AST, own: frozenset = frozenset()) -> tuple[set[str], set[str]]:
    """Names loaded and attributes read under ``node``, except that no
    definition's body reads the definition itself (a recursive call is not a reader)."""
    if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
        own = own | {node.name}
    names, attributes = set(), set()
    if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
        names.add(node.id)
    elif isinstance(node, ast.Attribute):
        attributes.add(node.attr)
    for child in ast.iter_child_nodes(node):
        child_names, child_attributes = _reads(child, own)
        names |= child_names
        attributes |= child_attributes
    return names - own, attributes - own


def unread_definitions() -> list[str]:
    """Top-level functions and classes of the package, and the methods,
    classmethods and properties of its classes, that no code in it reads.
    A class member is read only through attribute access: a local variable
    of the same name is no reader. Dunder methods are read by Python itself."""
    defined, names, attributes = [], set(), set()
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        tree_names, tree_attributes = _reads(tree)
        names |= tree_names
        attributes |= tree_attributes
        for top in tree.body:
            if isinstance(top, (ast.FunctionDef, ast.ClassDef)):
                defined.append(f"{path.stem}.{top.name}")
            if isinstance(top, ast.ClassDef):
                defined += [f"{path.stem}.{top.name}.{member.name}" for member in top.body
                            if isinstance(member, ast.FunctionDef)
                            and not member.name.startswith("__")]
    return [name for name in defined if name.split(".")[-1] not in
            (attributes if name.count(".") == 2 else names | attributes)]


class TestNoDeadLibraryCode:
    def test_every_definition_is_read_or_an_entry_point(self):
        unread = [name for name in unread_definitions()
                  if name.split(".")[-1] not in ENTRY_POINTS]
        assert unread == []

    def test_entry_points_are_used_where_they_say(self):
        imported, attributes = acceptance_reads()
        members = {name.split(".")[-1] for name in unread_definitions() if name.count(".") == 2}
        readme = (ROOT / "README.md").read_text(encoding="utf-8")
        for name, where in ENTRY_POINTS.items():
            if where == "acceptance":
                assert name in (attributes if name in members else imported), name
            else:
                assert re.search(rf"\b{name}\b", readme), name

    def test_entry_points_are_unread(self):
        # a name the package reads needs no entry here
        unread = {name.split(".")[-1] for name in unread_definitions()}
        assert set(ENTRY_POINTS) <= unread


class TestOneCovarianceReader:
    def test_only_posterior_reads_the_covariance_pieces(self):
        # the covariance is stored as base - factor^T factor; every other
        # module reads its blocks through posterior._Blocks
        readers = [f"{path.stem}:{node.lineno}" for path in sorted(PACKAGE.glob("*.py"))
                   if path.stem != "posterior"
                   for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
                   if isinstance(node, ast.Attribute) and node.attr in ("base", "factor")]
        assert readers == []


class TestReadmeTour:
    def test_tour_runs(self):
        labels = []

        def my_label_source(index):
            labels.append(index)
            return float(np.sin(index))

        scope = {"my_label_source": my_label_source}
        np.random.seed(0)
        exec(compile(readme_tour(), "README.md", "exec"), scope)
        state, batch = scope["state"], scope["batch"]
        assert labels == list(batch.indices) and len(labels) == 5
        assert state.round == 5
        assert [obs.index for obs in state.history] == labels


class TestImportFootprint:
    def test_commands_do_not_import_numpy_ma(self, tmp_path):
        # numpy.ma costs about 1.8 MB of resident memory, and np.unique, for
        # one, imports it; run, theory and markov must not
        run = {"domain": {"source": "synthetic",
                          "kernel": {"family": "gaussian", "lengthscale": 0.3},
                          "layout": {"kind": "uniform", "dim": 2, "s_count": 25, "a_count": 5,
                                     "a_box": [[0.6, 1.0], [0.6, 1.0]]}},
               "policies": ["itl", "ctl", "max-dist", "random", "cosine"], "rounds": 3,
               "seeds": [0], "hyper": {"b": 2, "m": 3, "rho": 1.0, "k": 20}}
        theory = {"domain": {"source": "synthetic",
                             "kernel": {"family": "gaussian", "lengthscale": 0.6},
                             "layout": {"kind": "grid", "s_count": 3, "step": 2.0,
                                        "a_extra": 2, "include_s_in_a": True}},
                  "rounds": 5, "seeds": [0], "hyper": {"b": 2, "rho": 0.5}, "epsilon": 0.4}
        (tmp_path / "run.json").write_text(json.dumps(run), encoding="utf-8")
        (tmp_path / "theory.json").write_text(json.dumps(theory), encoding="utf-8")
        script = (
            "import sys\n"
            "from transduct.cli import main\n"
            "codes = [main(['run', '--config', 'run.json', '--out', 'r']),\n"
            "         main(['theory', '--config', 'theory.json', '--out', 't']),\n"
            "         main(['markov', '--config', 'theory.json', '--out', 'm', '--x', '3'])]\n"
            "print(codes, 'numpy.ma' in sys.modules)\n")
        env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
        proc = subprocess.run([sys.executable, "-c", script], cwd=tmp_path, env=env,
                              capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.splitlines()[-1] == "[0, 0, 0] False"
