"""No module of the package reads another module's private names.

A single-underscore name is its module's own business: a second module
that imports it, or reaches it as an attribute (`g._without(...)`), ties
itself to details the first may change. The package is parsed, never
imported.
"""

from __future__ import annotations

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "balattack"
# namedtuple's public methods and attribute carry an underscore so as not
# to clash with field names.
NAMEDTUPLE_API = {"_replace", "_make", "_asdict", "_fields"}


def _private(name: str) -> bool:
    return name.startswith("_") and not name.startswith("__") and name not in NAMEDTUPLE_API


def _defined(tree: ast.Module) -> set[str]:
    """The private names a module defines: its top-level and class-level
    functions, classes and assignments, the attributes it stores on
    objects, and its `__slots__` entries. Locals inside functions are not
    names another module could reach."""
    names: set[str] = set()
    scopes = [tree.body] + [n.body for n in ast.walk(tree) if isinstance(n, ast.ClassDef)]
    for stmt in (stmt for body in scopes for stmt in body):
        if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names.add(stmt.name)
        elif isinstance(stmt, (ast.Assign, ast.AnnAssign)):
            targets = stmt.targets if isinstance(stmt, ast.Assign) else [stmt.target]
            names.update(t.id for t in targets if isinstance(t, ast.Name))
            if any(isinstance(t, ast.Name) and t.id == "__slots__" for t in targets):
                names.update(c.value for c in ast.walk(stmt.value)
                             if isinstance(c, ast.Constant) and isinstance(c.value, str))
    names.update(n.attr for n in ast.walk(tree)
                 if isinstance(n, ast.Attribute) and isinstance(n.ctx, ast.Store))
    return {n for n in names if _private(n)}


def private_reach_ins(sources: dict[str, str]) -> list[str]:
    """`module: name` for every private name that a module, given by name
    and source, imports from another package module or reads as an
    attribute while only another module defines it."""
    trees = {mod: ast.parse(src) for mod, src in sources.items()}
    defined = {mod: _defined(tree) for mod, tree in trees.items()}
    found = []
    for mod, tree in trees.items():
        others = set().union(*(d for m, d in defined.items() if m != mod))
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and (
                node.level or (node.module or "").split(".")[0] == "balattack"
            ):
                found += [f"{mod}: {a.name}" for a in node.names if _private(a.name)]
            elif (isinstance(node, ast.Attribute) and node.attr in others
                  and node.attr not in defined[mod]):
                found.append(f"{mod}: {node.attr}")
    return found


def test_no_module_reads_another_modules_private_names():
    # The check sees each kind of reach-in, and lets a module use its own
    # private names and namedtuple's API.
    owner = "class G:\n    __slots__ = ('_adj',)\n    def _without(self): pass\n"
    assert private_reach_ins({
        "graph": owner + "def f(g):\n    return g._without()\n",
        "prediction": "from .graph import _x, ok\ndef f(g):\n    return g._without(g._adj)\n",
        "attack": "def f(cfg):\n    return cfg._replace(seed=1)._asdict()\n",
    }) == ["prediction: _x", "prediction: _without", "prediction: _adj"]
    sources = {p.stem: p.read_text(encoding="utf-8") for p in sorted(PACKAGE.glob("*.py"))}
    assert len(sources) > 1
    assert private_reach_ins(sources) == []
