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


def private_definitions(tree):
    """(name, node) of every underscore-prefixed module-level name, and of
    every private method or class attribute, that ``tree`` defines."""
    for node in tree.body:
        members = node.body if isinstance(node, ast.ClassDef) else []
        for member in (node, *members):
            if isinstance(member, (ast.FunctionDef, ast.ClassDef)):
                names = [member.name]
            elif isinstance(member, (ast.Assign, ast.AnnAssign)):
                targets = member.targets if isinstance(member, ast.Assign) else [member.target]
                names = [t.id for t in targets if isinstance(t, ast.Name)]
            else:
                continue
            for name in names:
                if name.startswith("_") and not name.endswith("__"):
                    yield name, member


def name_uses(trees):
    """The nodes that read each name in the syntax ``trees``: a loaded name
    or attribute, or an imported one.  An attribute of ``args`` is an
    argparse option, never a library name, and is not counted."""
    uses = {}
    for tree in trees:
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                uses.setdefault(node.id, []).append(node)
            elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                if not (isinstance(node.value, ast.Name) and node.value.id == "args"):
                    uses.setdefault(node.attr, []).append(node)
            elif isinstance(node, ast.alias):
                uses.setdefault(node.name, []).append(node)
    return uses


def package_trees(*readers):
    """(path, syntax tree) of every module of the package, and the nodes
    that read each name there and in the ``readers`` source files."""
    sources = sorted(Path(bowvariety.__file__).parent.glob("*.py"))
    trees = [(path, ast.parse(path.read_text(), str(path))) for path in sources]
    others = [ast.parse(path.read_text(), str(path)) for path in readers]
    return trees, name_uses([tree for _path, tree in trees] + others)


def used_outside(name, definition, uses):
    inside = {id(node) for node in ast.walk(definition)}
    return any(id(node) not in inside for node in uses.get(name, []))


def test_every_private_name_is_used():
    # a helper that a refactor leaves behind has no reference in the package
    # outside its own definition
    trees, uses = package_trees()
    unused = [
        f"{path.name}: {name}"
        for path, tree in trees
        for name, definition in private_definitions(tree)
        if not used_outside(name, definition, uses)
    ]
    assert not unused


def public_definitions(tree):
    """(name, node) of every public module-level function and class that
    ``tree`` defines, and of every public method and slot of its classes."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and not node.name.startswith("_"):
            yield node.name, node
        for member in node.body if isinstance(node, ast.ClassDef) else []:
            if isinstance(member, ast.FunctionDef) and not member.name.startswith("_"):
                yield member.name, member
            elif isinstance(member, ast.Assign) and getattr(member.targets[0], "id", "") == "__slots__":
                for slot in member.value.elts:
                    yield slot.value, member


def unused_public_names(trees, uses):
    """``file: name`` of each public definition in the ``(path, tree)`` pairs
    that no node of ``uses`` outside its own definition reads."""
    return [
        f"{path.name}: {name}"
        for path, tree in trees
        for name, node in public_definitions(tree)
        if not used_outside(name, node, uses)
    ]


# The programs that call the library: the demos and the benchmark's workloads.
# The benchmark's harness (its runner, recorder and tests) reads attributes of
# its own, such as ``args.trace``, that would keep a library name of the same
# spelling alive, and the tests alone do not keep a name.
ROOT = Path(__file__).resolve().parent.parent
READERS = [
    *sorted((ROOT / "demos").glob("*.py")),
    ROOT / "perfbench" / "workloads.py",
    ROOT / "perfbench" / "tstar.py",
]


def test_every_public_name_is_used():
    # a public function, class or method that nothing in the package, the
    # demos or the benchmark's workloads reads is left over from a refactor
    # (a dense-only helper, say, now that operators are sparse rows)
    trees, uses = package_trees(*READERS)
    found = {name for _path, tree in trees for name, _node in public_definitions(tree)}
    assert {"rank", "krylov_rank", "entries", "support", "transpose", "CheckResult"} <= found
    assert {"verify_fixed_point", "is_effective", "render", "fail"} <= found
    assert len(READERS) == 6 and all(path.exists() for path in READERS)
    assert not unused_public_names(trees, uses)


def test_names_read_only_by_the_harness_are_found():
    # a library name that only an argparse option shares, as ``args.trace``
    # reads ``trace``, is unused, in a runner as in the CLI; any other read
    # of the attribute keeps it
    library = [(Path("linalg.py"), ast.parse("class Mat:\n    def trace(self):\n        return 0\n"))]
    workload = ast.parse("from bowvariety import linalg\nlinalg.Mat()\n")
    runner = ast.parse("args = parse()\nif args.trace:\n    pass\n")
    reader = ast.parse("from bowvariety import linalg\nlinalg.Mat().trace()\n")
    trees = [tree for _path, tree in library]
    assert unused_public_names(library, name_uses(trees + [workload])) == ["linalg.py: trace"]
    unused = unused_public_names(library, name_uses(trees + [workload, runner]))
    assert unused == ["linalg.py: trace"]
    assert unused_public_names(library, name_uses(trees + [workload, reader])) == []


def unbounded_memos(tree):
    """Lines of the memos in ``tree`` that no module-level ``*_CACHE_SIZE``
    constant bounds: every ``functools.cache``, and every ``lru_cache`` not
    called as ``lru_cache(maxsize=<such a name>)``."""
    sizes = {
        target.id
        for node in tree.body
        if isinstance(node, ast.Assign)
        for target in node.targets
        if isinstance(target, ast.Name) and target.id.endswith("_CACHE_SIZE")
    }
    modules, imported = {"functools"}, {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            modules |= {a.asname or a.name for a in node.names if a.name == "functools"}
        elif isinstance(node, ast.ImportFrom) and node.module == "functools":
            imported |= {a.asname or a.name: a.name for a in node.names}
    bounded = {
        id(node.func)
        for node in ast.walk(tree)
        if isinstance(node, ast.Call)
        and not node.args
        and [k.arg for k in node.keywords] == ["maxsize"]
        and isinstance(node.keywords[0].value, ast.Name)
        and node.keywords[0].value.id in sizes
    }
    lines = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and getattr(node.value, "id", None) in modules:
            name = node.attr
        elif isinstance(node, ast.Name) and node.id in imported:
            name = imported[node.id]
        else:
            continue
        if name == "cache" or name == "lru_cache" and id(node) not in bounded:
            lines.append(node.lineno)
    return sorted(lines)


def test_every_memo_is_bounded_by_a_cache_size_constant():
    # a memo lives as long as the process: each one names its bound, so that
    # no cache grows with the inputs a long run meets
    trees, uses = package_trees()
    found = {path.name: unbounded_memos(tree) for path, tree in trees}
    assert not {name: lines for name, lines in found.items() if lines}
    # the lattices, the tangent plans, the weight and term texts, the
    # Euler-class expansions and the tie plans
    assert len(uses["lru_cache"]) >= 6


def test_unbounded_memos_are_found():
    def memo(source):
        return unbounded_memos(ast.parse(source))

    body = "\ndef f(x):\n    return x\n"
    assert memo("import functools\n@functools.cache" + body) == [2]
    assert memo("import functools\n@functools.lru_cache(maxsize=None)" + body) == [2]
    assert memo("import functools\n@functools.lru_cache" + body) == [2]
    assert memo("from functools import lru_cache\n@lru_cache()" + body) == [2]
    assert memo("from functools import cache as keep\n@keep" + body) == [2]
    assert memo("import functools\nSIZE = 8\n@functools.lru_cache(maxsize=SIZE)" + body) == [3]
    assert memo("import functools\nF_CACHE_SIZE = 8\n@functools.lru_cache(F_CACHE_SIZE)" + body) == [3]
    assert memo("import functools as ft\nF_CACHE_SIZE = 8\n@ft.lru_cache(maxsize=F_CACHE_SIZE)" + body) == []
    local = "import functools\ndef g():\n    F_CACHE_SIZE = 8\n"
    assert memo(local + "    return functools.lru_cache(maxsize=F_CACHE_SIZE)(len)\n") == [4]
