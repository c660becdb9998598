"""The traced benchmark wraps viscokern callables by name (``TARGETS`` in
``bench/tracing.py``).  A rename or a deletion in the package must update
that list, or the traced run breaks; this test catches it first."""

import importlib
import importlib.util
from pathlib import Path

import pytest

TRACING = Path(__file__).resolve().parents[1] / "bench" / "tracing.py"


def load_targets():
    # read-only: the module is executed for its constants, never installed
    spec = importlib.util.spec_from_file_location("bench_tracing_targets", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.TARGETS


TARGETS = load_targets()


@pytest.mark.parametrize("module_name, target", [(m, t) for m, t, _ in TARGETS])
def test_target_resolves(module_name, target):
    module = importlib.import_module(f"viscokern.{module_name}")
    if "." in target:
        # the tracer patches the method found in the class's own __dict__
        cls_name, method = target.split(".")
        assert callable(vars(getattr(module, cls_name))[method])
    else:
        assert callable(vars(module)[target])
