"""The benchmark's tracer looks up each traced function by name with getattr,
so a function it names must stay an attribute of its module.  The names are
read from perfbench/run.py's source; the benchmark itself is not imported."""

import ast
import importlib
from pathlib import Path

RUN_PY = Path(__file__).resolve().parent.parent / "perfbench" / "run.py"


def traced_names() -> dict[str, tuple[str, ...]]:
    for node in ast.parse(RUN_PY.read_text()).body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "TRACED" for t in node.targets):
            return ast.literal_eval(node.value)
    raise AssertionError("no TRACED assignment in perfbench/run.py")


def test_every_traced_function_exists():
    traced = traced_names()
    assert "fock_oracle" in traced
    missing = [f"{layer}.{fn}" for layer, functions in traced.items() for fn in functions
               if not callable(getattr(importlib.import_module(f"gupsqueeze.{layer}"),
                                       fn, None))]
    assert not missing, missing
