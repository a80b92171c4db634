import ast
import importlib
import pkgutil
from pathlib import Path

import soilgp


def test_all_lists_resolve_and_cover_package_exports():
    for info in pkgutil.iter_modules(soilgp.__path__):
        module = importlib.import_module(f"soilgp.{info.name}")
        for attr in getattr(module, "__all__", ()):
            assert hasattr(module, attr), f"soilgp.{info.name}.__all__ lists missing {attr!r}"
    tree = ast.parse(Path(soilgp.__file__).read_text(encoding="utf-8"))
    for node in tree.body:
        if isinstance(node, ast.ImportFrom):
            module = importlib.import_module(f"soilgp.{node.module}")
            for alias in node.names:
                assert alias.name in module.__all__, (
                    f"soilgp re-exports {alias.name!r}, not in soilgp.{node.module}.__all__"
                )
                assert getattr(soilgp, alias.name) is getattr(module, alias.name)


def _callers(tree, name):
    """The enclosing function of every call to ``name`` in ``tree``."""
    found = []

    def visit(node, where):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.Call):
                f = child.func
                if getattr(f, "id", None) == name or getattr(f, "attr", None) == name:
                    found.append(where)
            inner = child.name if isinstance(child, ast.FunctionDef) else where
            visit(child, inner)

    visit(tree, "<module>")
    return found


def test_one_cholesky_entry_point():
    # every factorization in the library is LAPACK's dpotrf, called from
    # kernels._chol_in_place alone; no module reaches another Cholesky
    calls, other = [], []
    for path in sorted(Path(soilgp.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        calls += [f"{path.stem}.{where}" for where in _callers(tree, "dpotrf")]
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom):
                other += [f"{path.stem}: {node.module}.{a.name}" for a in node.names
                          if a.name in ("cholesky", "cho_factor")]
            elif isinstance(node, ast.Attribute) and node.attr in ("cholesky", "cho_factor"):
                other.append(f"{path.stem}: .{node.attr}")
    assert calls == ["kernels._chol_in_place"]
    assert other == []
