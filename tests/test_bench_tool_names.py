"""The package names that tools/bench_modp.py reads exist.

The tool reaches into ``factor``, ``galois``, ``modp``, ``pade`` and
``polynomials`` by attribute, private helpers and memos included, and most
of those reads run only in one of its sections; a rename in the package
would otherwise surface only when that section runs.  These tests only
parse the tool.
"""

import ast
import importlib
from pathlib import Path

import pytest

_TOOL = Path(__file__).resolve().parent.parent / "tools" / "bench_modp.py"
_MODULES = ("factor", "galois", "modp", "pade", "polynomials")


def _read_names() -> list[tuple[str, str]]:
    """(module, name) of every ``<module>.<name>`` in the tool and every
    name it imports from ``padegalois.<module>``, for the modules above."""
    found = set()
    for node in ast.walk(ast.parse(_TOOL.read_text())):
        if (
            isinstance(node, ast.Attribute)
            and isinstance(node.value, ast.Name)
            and node.value.id in _MODULES
        ):
            found.add((node.value.id, node.attr))
        elif isinstance(node, ast.ImportFrom) and node.module in {
            f"padegalois.{m}" for m in _MODULES
        }:
            found.update((node.module.split(".")[1], a.name) for a in node.names)
    return sorted(found)


_NAMES = _read_names()


def test_the_tool_reads_each_module_by_attribute():
    assert {module for module, _ in _NAMES} == set(_MODULES)


@pytest.mark.parametrize(("module", "name"), _NAMES)
def test_name_read_by_the_tool_exists(module, name):
    mod = importlib.import_module(f"padegalois.{module}")
    assert hasattr(mod, name)


@pytest.mark.parametrize(
    ("module", "name"), [n for n in _NAMES if n[1].endswith("_memo")]
)
def test_memo_the_tool_clears_can_be_cleared(module, name):
    memo = getattr(importlib.import_module(f"padegalois.{module}"), name)
    assert callable(memo.cache_clear)
