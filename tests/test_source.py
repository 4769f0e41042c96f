"""Source-level guards on the package itself."""

import ast
from pathlib import Path

import kmu

SOURCE = Path(kmu.__file__).resolve().parent


def test_package_holds_no_assert_statement():
    # `python -O` strips assert statements, so no check may rely on one
    found = [
        f"{path.name}:{node.lineno}"
        for path in sorted(SOURCE.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, ast.Assert)
    ]
    assert sorted(SOURCE.glob("*.py")), "no package sources found"
    assert found == []
