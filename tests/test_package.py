"""Package surface: every name a module exports in ``__all__`` exists, and
each is used by the package or the benchmark, or kept on purpose."""
import ast
import importlib
import re
from pathlib import Path

import pytest

MODULES = ["anomaly", "cli", "config", "control", "dynamics", "harness", "llm", "nn",
           "planner", "qp", "trajectory"]
ROOT = Path(__file__).resolve().parents[1]
SOURCES = sorted((ROOT / "src" / "exoassist").glob("*.py")) + sorted((ROOT / "perfbench").glob("*.py"))

# exported for users and tests though nothing in the package or the
# benchmark calls them
KEPT_FOR_USERS = {
    "total_energy",  # the energy bookkeeping the integrator tests check
    "save_windows_csv",  # writes the format ``train-detector --data`` reads
}


@pytest.mark.parametrize("name", MODULES)
def test_all_entries_resolve(name):
    module = importlib.import_module(f"exoassist.{name}")
    exported = getattr(module, "__all__", None)
    assert exported, f"exoassist.{name} declares no __all__"
    missing = [entry for entry in exported if not hasattr(module, entry)]
    assert not missing, f"exoassist.{name}.__all__ names missing attributes: {missing}"


def _defined(stmt) -> set:
    """The names a top-level statement defines."""
    if isinstance(stmt, (ast.FunctionDef, ast.ClassDef)):
        return {stmt.name}
    if isinstance(stmt, (ast.Assign, ast.AnnAssign)):
        targets = stmt.targets if isinstance(stmt, ast.Assign) else [stmt.target]
        return {node.id for t in targets for node in ast.walk(t) if isinstance(node, ast.Name)}
    return set()


def _referenced() -> set:
    """Every name read, accessed as an attribute or named by a dotted string
    (as the benchmark names what it wraps) in the package and the
    benchmark, outside the top-level statement that defines it and outside
    ``__all__``."""
    used = set()
    for path in SOURCES:
        for stmt in ast.parse(path.read_text()).body:
            defined = _defined(stmt)
            if "__all__" in defined:
                continue
            for node in ast.walk(stmt):
                if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                    names = [node.id]
                elif isinstance(node, ast.Attribute):
                    names = [node.attr]
                elif (isinstance(node, ast.Constant) and isinstance(node.value, str)
                      and re.fullmatch(r"[A-Za-z_][\w.]*", node.value)):
                    names = node.value.split(".")
                else:
                    continue
                used.update(set(names) - defined)
    return used


def test_every_export_is_used_or_kept():
    used = _referenced()
    unused = [f"{name}.{entry}" for name in MODULES
              for entry in importlib.import_module(f"exoassist.{name}").__all__
              if entry not in used and entry not in KEPT_FOR_USERS]
    assert not unused, f"exported but used only by tests: {unused}"
    stale = KEPT_FOR_USERS & used
    assert not stale, f"kept-for-users names the package now uses: {sorted(stale)}"
