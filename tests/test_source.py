"""Rules that hold for the package source as a whole."""

import ast
from pathlib import Path

SOURCE = Path(__file__).resolve().parents[1] / "src" / "crowdpolicy"


def test_package_source_has_no_assert_statements():
    # python -O strips asserts, so a check written as one would vanish; the
    # package raises its own errors instead
    found = [
        f"{path.name}:{node.lineno}"
        for path in sorted(SOURCE.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), filename=str(path)))
        if isinstance(node, ast.Assert)
    ]
    assert sorted(SOURCE.glob("*.py")), f"no source files under {SOURCE}"
    assert found == []
