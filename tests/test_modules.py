"""Package structure: every import sits at module level, so the import
graph of ``layoutkit`` is visible and acyclic."""

import ast
from pathlib import Path

import layoutkit


def test_no_imports_inside_functions():
    offenders = []
    for path in sorted(Path(layoutkit.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        for fn in ast.walk(tree):
            if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
                for node in ast.walk(fn):
                    if isinstance(node, (ast.Import, ast.ImportFrom)):
                        offenders.append(f"{path.name}:{node.lineno} in {fn.name}")
    assert offenders == []
