"""No specgap module runs code built from strings: user expressions are
evaluated by `specgap.expr`'s checked steps, never by the interpreter."""

import ast
from pathlib import Path

import pytest

import specgap

MODULES = sorted(Path(specgap.__file__).parent.glob("*.py"))
FORBIDDEN = {"eval", "exec", "compile", "__import__"}


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_bare_call_to_eval_exec_compile_or_import(path):
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    calls = [
        f"{node.func.id} (line {node.lineno})"
        for node in ast.walk(tree)
        if isinstance(node, ast.Call)
        and isinstance(node.func, ast.Name)
        and node.func.id in FORBIDDEN
    ]
    assert calls == []
