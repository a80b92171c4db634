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
