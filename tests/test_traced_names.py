"""Every name the benchmark tracer patches must exist in the library.

benchmarks/tracer.py lists functions and "Class.method" entries per module
in TRACED; a refactor that deletes or moves one of them would break traced
benchmark runs, so this suite fails first.
"""
import importlib
import importlib.util
import sys
from pathlib import Path

import pytest

TRACER = Path(__file__).resolve().parent.parent / "benchmarks" / "tracer.py"


def _load_tracer():
    spec = importlib.util.spec_from_file_location("k2sym_bench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses look their module up there
    spec.loader.exec_module(module)
    return module


TRACED = _load_tracer().TRACED


@pytest.mark.parametrize("module_name", sorted(TRACED))
def test_traced_names_resolve(module_name):
    module = importlib.import_module(f"k2sym.{module_name}")
    missing = []
    for attr in TRACED[module_name]:
        if "." in attr:
            cls_name, method = attr.split(".")
            cls = getattr(module, cls_name, None)
            if cls is None or method not in vars(cls):
                missing.append(attr)
        elif not callable(getattr(module, attr, None)):
            missing.append(attr)
    assert not missing, f"k2sym.{module_name} lacks traced names {missing}"
