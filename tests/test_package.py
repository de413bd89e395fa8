import ast
import importlib
import json
import os
import pkgutil
import subprocess
import sys
from pathlib import Path

import pytest

import seifert5

MODULES = sorted(m.name for m in pkgutil.iter_modules(seifert5.__path__) if m.name != "__main__")


@pytest.mark.parametrize("name", MODULES)
def test_every_all_entry_resolves(name):
    module = importlib.import_module(f"seifert5.{name}")
    exported = getattr(module, "__all__", [])
    assert len(set(exported)) == len(exported)
    missing = [n for n in exported if not hasattr(module, n)]
    assert missing == [], f"seifert5.{name}.__all__ names {missing}"


def test_bindings_the_benchmark_tests_patch():
    # The benchmark's own tests check that its tracer patches these copied
    # bindings and puts them back, so each must stay bound to the original.
    from seifert5 import abgroup, cli, cohomology, construct, sasakian

    assert construct.factorize is abgroup.factorize
    assert cohomology.factorize is abgroup.factorize
    assert sasakian.factorize is abgroup.factorize
    assert cli.json is json


SPANS = Path(__file__).resolve().parent.parent / "bench" / "spans.py"


def _span_tables():
    """EXTRA, COUNT_ONLY, DISTINCT and OUTCOME's keys from bench/spans.py,
    read from its syntax tree so that nothing there runs or is written."""
    tables = {}
    for node in ast.parse(SPANS.read_text(encoding="utf-8")).body:
        if isinstance(node, ast.Assign) and isinstance(node.targets[0], ast.Name):
            name = node.targets[0].id
            if name == "OUTCOME":
                tables[name] = [ast.literal_eval(key) for key in node.value.keys]
            elif name in ("LAYERS", "EXTRA", "COUNT_ONLY", "DISTINCT"):
                tables[name] = ast.literal_eval(node.value)
    return tables


def _bound_names():
    tables = _span_tables()
    names = [f"{layer}.{qual}" for layer, quals in tables["EXTRA"].items() for qual in quals]
    names += sorted(tables["COUNT_ONLY"]) + sorted(tables["DISTINCT"]) + tables["OUTCOME"]
    return [pytest.param(name, id=name) for name in dict.fromkeys(names)]


def test_span_layers_are_modules():
    assert set(_span_tables()["LAYERS"]) <= set(MODULES)


@pytest.mark.parametrize("name", _bound_names())
def test_every_traced_name_resolves(name):
    # The tracer binds each `layer.Owner.attr` by name; a missing one stops
    # the traced benchmark run.
    layer, *owners, attr = name.split(".")
    owner = importlib.import_module(f"seifert5.{layer}")
    for part in owners:
        owner = getattr(owner, part)
    assert attr in vars(owner), f"seifert5.{name} no longer exists"


# Names src/ keeps only because bench/spans.py binds them for its traced run;
# nothing in the package uses them.  When the benchmark stops binding one,
# delete it from src/.
BENCHMARK_ONLY = ["cohomology._rank_mod_p", "cohomology._F2Span.reduce"]
SRC = Path(seifert5.__file__).resolve().parent


@pytest.mark.parametrize("name", BENCHMARK_ONLY)
def test_benchmark_only_name_is_still_bound(name):
    bound = [param.values[0] for param in _bound_names()]
    assert name in bound, (f"bench/spans.py no longer binds {name}: "
                           f"delete seifert5.{name} and its entry here")


@pytest.mark.parametrize("name", BENCHMARK_ONLY)
def test_benchmark_only_name_has_no_caller(name):
    # The module-level name (`_F2Span` for `_F2Span.reduce`) is never read in
    # src/: a caller would make the benchmark's stub part of a verdict.
    top = name.split(".")[1]
    uses = []
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if (isinstance(node, ast.Name) and node.id == top) or (
                isinstance(node, ast.Attribute) and node.attr == top
            ):
                uses.append(f"{path.name}:{node.lineno}")
    assert uses == [], f"seifert5.{name} is kept only for the benchmark, but is used at {uses}"


@pytest.mark.parametrize("module, least, most", [
    # A library module loads the package root and what it imports, nothing more.
    ("orbit_local", {"_record", "orbit_local"}, {"_record", "orbit_local"}),
    # The traced benchmark run finds every layer in sys.modules once it has
    # imported the CLI; a CLI that imports its layers on demand breaks that.
    ("cli", set(_span_tables()["LAYERS"]), set(MODULES)),
], ids=["orbit_local", "cli"])
def test_import_loads(module, least, most):
    done = subprocess.run(
        [sys.executable, "-S", "-c",
         f"import sys, seifert5.{module}; print(' '.join(sorted(sys.modules)))"],
        env={**os.environ, "PYTHONPATH": str(SRC.parent)}, capture_output=True, text=True, check=True,
    )
    loaded = {name.removeprefix("seifert5.") for name in done.stdout.split()
              if name.startswith("seifert5.")}
    assert least <= loaded <= most
