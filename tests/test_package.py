import ast
import importlib
import pkgutil
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
