"""The benchmark tracer's bindings exist in the package.

perfbench/tracer.py looks up each traced function with getattr and no
default, and wraps FieldSolver.__init__ and FieldSolver.solve from the class
dict, so a renamed binding would crash every traced run.  The tracer is
loaded by path and only read.
"""

import importlib
import importlib.util
from pathlib import Path

import pytest

from hopflift._linalg import FieldSolver

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("modname,fname", [(m, f) for m, f, _ in load_tracer().WRAPPED])
def test_wrapped_function_exists(modname, fname):
    module = importlib.import_module("hopflift." + modname)
    assert callable(getattr(module, fname, None))


def test_field_solver_methods_exist():
    # the tracer reads them from the class dict, not through inheritance
    for attr in ("__init__", "solve"):
        assert callable(FieldSolver.__dict__.get(attr))
