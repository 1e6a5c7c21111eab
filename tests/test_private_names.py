"""Every private top-level name of the package is used, and every public
name a module exports exists: a helper left behind by a refactor, or a
removed name left in an ``__all__``, fails here instead of lingering as dead
code or surfacing at a user's star import."""

import ast
from pathlib import Path

import pytest

_PACKAGE = Path(__file__).parents[1] / "src" / "dctapprox"


def _private(name: str) -> bool:
    return name.startswith("_") and not name.startswith("__")


def _defined(stmt: ast.stmt) -> set[str]:
    """The private names a top-level statement binds: a function, a class
    or the plain names an assignment targets."""
    if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
        names = {stmt.name}
    elif isinstance(stmt, ast.Assign):
        names = {n.id for t in stmt.targets for n in ast.walk(t) if isinstance(n, ast.Name)}
    elif isinstance(stmt, ast.AnnAssign) and isinstance(stmt.target, ast.Name):
        names = {stmt.target.id}
    else:
        names = set()
    return {n for n in names if _private(n)}


def _read(node: ast.AST) -> str | None:
    if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
        return node.id
    if isinstance(node, ast.Attribute):
        return node.attr
    return None


def test_every_private_top_level_name_is_referenced():
    # A name counts as used when another top-level statement of the package
    # reads it; its own definition (a recursive call included) does not.
    defined: dict[str, list[str]] = {}
    used: set[str] = set()
    paths = sorted(_PACKAGE.glob("*.py"))
    assert paths
    for path in paths:
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for stmt in tree.body:
            own = _defined(stmt)
            for name in own:
                defined.setdefault(name, []).append(path.name)
            used.update(n for n in map(_read, ast.walk(stmt)) if n and n not in own)
    unused = sorted(f"{module}: {name}" for name, modules in defined.items()
                    if name not in used for module in modules)
    assert not unused, unused


_MODULES = ["dctapprox"] + sorted(
    f"dctapprox.{p.stem}" for p in _PACKAGE.glob("*.py") if p.stem != "__init__"
)


@pytest.mark.parametrize("module", _MODULES)
def test_star_import_finds_every_exported_name(module):
    exec(f"from {module} import *", {})
