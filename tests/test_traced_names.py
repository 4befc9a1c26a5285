"""The layer functions that perfbench/tracer.py wraps exist and are called.

The tracer names its spans by (module, function) strings; a rename in the
package would otherwise surface only as an error or a silent zero in a
bench run.  These tests only read perfbench.
"""

import importlib
import importlib.util
import inspect
from pathlib import Path

import pytest

from padegalois import galois
from padegalois.galois import classify
from padegalois.polynomials import IntPoly

_TRACER = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"


def _tracer_module():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", _TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


_tracer = _tracer_module()


@pytest.mark.parametrize(
    ("module", "name"), _tracer.SPANNED + _tracer.COUNTED
)
def test_traced_name_is_a_module_level_function(module, name):
    mod = importlib.import_module(f"{_tracer.PACKAGE}.{module}")
    fn = getattr(mod, name)
    assert inspect.isfunction(fn)
    assert fn.__module__ == mod.__name__


def test_classify_calls_the_wreath_tier_on_an_even_octic(monkeypatch):
    calls = []
    original = galois.wreath_structure

    def counting(*args, **kwargs):
        calls.append(args[0])
        return original(*args, **kwargs)

    monkeypatch.setattr(galois, "wreath_structure", counting)
    f = IntPoly((7, 0, 0, 0, 1, 0, 0, 0, 1))
    ident = classify(f)
    assert calls == [f]
    assert ident.group_name == "subgroup of C2 wr D4"
