"""Every wrap point of the benchmark's tracer names a function the package still has.

`bench/tracing.py` replaces each (module, attribute) of its `WRAP_POINTS`
with a timing wrapper, so a name deleted or renamed in the package would
break `bench/run.py --trace 1`.  The file is only read here.
"""

import importlib
import importlib.util
from pathlib import Path

import pytest

_SPEC = importlib.util.spec_from_file_location("bench_tracing", Path(__file__).parents[1] / "bench" / "tracing.py")
tracing = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(tracing)


@pytest.mark.parametrize("module,attr", [point[:2] for point in tracing.WRAP_POINTS])
def test_wrap_point_resolves(module, attr):
    assert callable(getattr(importlib.import_module("coopmac." + module), attr))
