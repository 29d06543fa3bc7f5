"""Every imported name in the package and its tests, and every private helper of the package, is read somewhere.

No linter is a dependency, so this is the lint: an AST walk that lists, per
module, the names its import statements bind and never reads.  __future__
imports and names re-exported through __all__ count as used.  A second walk
lists the package's module-level private functions, classes and constants
(one leading underscore) that no module of the package reads, so a refactor
cannot leave a helper behind.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = sorted((ROOT / "src" / "stablegp").glob("*.py"))
MODULES = sorted([*PACKAGE, *(ROOT / "tests").glob("*.py")])


def unused_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                if alias.name != "*":
                    imported[alias.asname or alias.name] = node.lineno
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store)}
    for node in ast.walk(tree):
        if isinstance(node, ast.Assign) and any(isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
            read.update(ast.literal_eval(node.value))
    return [f"line {line}: {name}" for name, line in sorted(imported.items(), key=lambda kv: kv[1]) if name not in read]


def test_scan_flags_only_unread_imports():
    source = (
        "from __future__ import annotations\n"
        "import os, os.path as osp\n"
        "import numpy.linalg\n"
        "from math import pi, tau as turn\n"
        "from enum import Enum\n"
        "__all__ = ['pi']\n"
        "print(numpy.linalg.norm, osp)\n"
    )
    assert unused_imports(source) == ["line 2: os", "line 4: turn", "line 5: Enum"]


def test_no_module_imports_a_name_it_never_reads():
    assert MODULES
    found = {path.relative_to(ROOT).as_posix(): unused_imports(path.read_text()) for path in MODULES}
    assert {path: names for path, names in found.items() if names} == {}


def orphaned_private_names(sources: dict[str, str]) -> list[str]:
    """'module: name' for each module-level _name of sources (keyed by module name) read nowhere.

    A name counts as read in its own module through a Name, in another module
    through a relative import from its module, and anywhere as an attribute.
    """
    trees = {module: ast.parse(source) for module, source in sources.items()}
    read = {module: set() for module in trees}
    attributes = set()
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.level == 1 and node.module in read:
                read[node.module].update(alias.name for alias in node.names)
            elif isinstance(node, ast.Attribute):
                attributes.add(node.attr)
    orphans = []
    for module, tree in trees.items():
        read[module].update(n.id for n in ast.walk(tree) if isinstance(n, ast.Name) and not isinstance(n.ctx, ast.Store))
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                names = [node.name]
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                names = [t.id for t in targets if isinstance(t, ast.Name)]
            else:
                continue
            orphans += [
                f"{module}: {name}"
                for name in names
                if name.startswith("_") and not name.startswith("__") and name not in read[module] | attributes
            ]
    return orphans


def test_private_scan_flags_only_unread_module_level_helpers():
    sources = {
        "a": (
            "_LIMIT = 3\n"
            "_ORPHAN_CONSTANT: int = 4\n"
            "__version__ = '1'\n"
            "def _helper(x):\n"
            "    def _nested():\n"
            "        return x\n"
            "    return _LIMIT\n"
            "def _orphan():\n"
            "    return 0\n"
            "class _Orphan:\n"
            "    pass\n"
            "def _read_as_attribute():\n"
            "    return 1\n"
            "def public():\n"
            "    return _helper(1)\n"
        ),
        "b": "from . import a\nfrom .c import _imported\n_LIMIT = 1\n\ndef f():\n    return a._read_as_attribute() + _imported()\n",
        "c": "def _imported():\n    return 0\n",
    }
    assert orphaned_private_names(sources) == ["a: _ORPHAN_CONSTANT", "a: _orphan", "a: _Orphan", "b: _LIMIT"]


def test_every_private_helper_of_the_package_is_read():
    assert PACKAGE
    assert orphaned_private_names({path.stem: path.read_text() for path in PACKAGE}) == []
