"""The package and its tests depend on numpy alone among third-party modules."""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
UNDECLARED = {"scipy", "mpmath"}


def _imported_modules(path):
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), str(path))):
        if isinstance(node, ast.Import):
            yield from (alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            yield node.module
        elif (isinstance(node, ast.Call) and getattr(node.func, "attr", getattr(
                node.func, "id", None)) in ("import_module", "__import__", "importorskip")
                and node.args and isinstance(node.args[0], ast.Constant)):
            yield node.args[0].value


@pytest.mark.parametrize("folder", ["src/oneshot_qit", "tests"])
def test_no_scipy_or_mpmath_imports(folder):
    files = sorted((ROOT / folder).rglob("*.py"))
    assert files
    found = [f"{path.relative_to(ROOT)}: {module}"
             for path in files for module in _imported_modules(path)
             if str(module).split(".")[0] in UNDECLARED]
    assert not found, found
