"""The package namespace: every exported name resolves, and the package
imports nothing outside the standard library."""

import ast
import sys
from pathlib import Path

import bowvariety


def test_star_import_resolves_every_export():
    namespace = {}
    exec("from bowvariety import *", namespace)
    assert bowvariety.__all__ and len(set(bowvariety.__all__)) == len(bowvariety.__all__)
    for name in bowvariety.__all__:
        assert namespace[name] is getattr(bowvariety, name), name


def test_package_imports_only_the_standard_library():
    sources = sorted(Path(bowvariety.__file__).parent.glob("*.py"))
    assert len(sources) > 5
    for path in sources:
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                names = [node.module or ""] if node.level == 0 else ["bowvariety"]
            else:
                continue
            for name in names:
                top = name.split(".")[0]
                assert top == "bowvariety" or top in sys.stdlib_module_names, (path.name, name)
