"""Package surface: every name a module exports in ``__all__`` exists."""
import importlib

import pytest

MODULES = ["anomaly", "cli", "control", "dynamics", "harness", "llm", "nn",
           "planner", "qp", "trajectory"]


@pytest.mark.parametrize("name", MODULES)
def test_all_entries_resolve(name):
    module = importlib.import_module(f"exoassist.{name}")
    exported = getattr(module, "__all__", None)
    assert exported, f"exoassist.{name} declares no __all__"
    missing = [entry for entry in exported if not hasattr(module, entry)]
    assert not missing, f"exoassist.{name}.__all__ names missing attributes: {missing}"
