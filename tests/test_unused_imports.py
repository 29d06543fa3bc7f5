"""Every imported name in the package and its tests is read somewhere.

No linter is a dependency, so this is the lint: an AST walk that lists, per
module, the names its import statements bind and never reads.  __future__
imports and names re-exported through __all__ count as used.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
MODULES = sorted([*(ROOT / "src" / "stablegp").glob("*.py"), *(ROOT / "tests").glob("*.py")])


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
