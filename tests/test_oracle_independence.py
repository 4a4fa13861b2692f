"""The brute-force references in tests/oracles.py stay independent.

A reference that imports the package's private helpers checks the
package's bookkeeping against itself. The oracle module is parsed, never
imported, and may take only public names from `balattack`.
"""

from __future__ import annotations

import ast
from pathlib import Path

ORACLES = Path(__file__).resolve().parent / "oracles.py"


def _private_package_imports(source: str) -> list[str]:
    """Every underscore-prefixed name or module the source imports from
    the `balattack` package."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "balattack":
            names = [f"{node.module}.{alias.name}" for alias in node.names]
        elif isinstance(node, ast.Import):
            names = [alias.name for alias in node.names if alias.name.split(".")[0] == "balattack"]
        else:
            continue
        found += [n for n in names if any(part.startswith("_") for part in n.split("."))]
    return found


def test_the_check_sees_private_imports():
    source = "from balattack.attack import _TraceState, as_fraction\nimport balattack._x\n"
    assert _private_package_imports(source) == ["balattack.attack._TraceState", "balattack._x"]
    assert _private_package_imports("from balattack import SignedGraph\n") == []


def test_oracles_import_no_private_package_name():
    assert _private_package_imports(ORACLES.read_text(encoding="utf-8")) == []
