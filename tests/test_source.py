"""Guards over the package source itself."""

import ast
from pathlib import Path

import qtanner


def test_package_has_no_assert_statements():
    # invariants must raise QTannerError subclasses: python -O strips asserts
    root = Path(qtanner.__file__).parent
    found = [
        f"{path.relative_to(root)}:{node.lineno}"
        for path in sorted(root.rglob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(), str(path)))
        if isinstance(node, ast.Assert)
    ]
    assert found == []
