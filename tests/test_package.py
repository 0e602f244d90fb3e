"""The package's public export list, and the private names the benchmark hooks."""

import ast
import importlib
import inspect
from pathlib import Path

import pottstree


def test_every_export_resolves_once():
    # a stale name would break ``from pottstree import *``
    assert len(pottstree.__all__) == len(set(pottstree.__all__))
    missing = [name for name in pottstree.__all__ if not hasattr(pottstree, name)]
    assert missing == []


def test_benchmark_private_hooks_name_functions_that_exist():
    # perfbench/spans.py wraps these private functions by name for its work counters
    # (``oracle.dp_passes_per_query`` counts ``_dp_tables`` calls); a rename zeroes them silently
    spans = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"
    private = next(ast.literal_eval(node.value) for node in ast.parse(spans.read_text()).body
                   if isinstance(node, ast.Assign) and ast.unparse(node.targets[0]) == "PRIVATE")
    named = {(layer, name) for layer, names in private.items() for name in names}
    assert named >= {("oracle", "_dp_tables"), ("polytope", "_midpoint_pullback_levels")}
    for layer, name in named:
        module = importlib.import_module(f"pottstree.{layer}")
        assert inspect.isfunction(getattr(module, name, None)), f"pottstree.{layer}.{name}"
