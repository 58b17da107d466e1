"""Every module under ``src/repro`` loads each name it imports.

A package ``__init__.py`` imports to re-export and is not checked.  A
name counts as loaded when it appears as a name node or as a word of a
string constant (a string annotation, an ``__all__`` entry).
"""

import ast
import re
from pathlib import Path

SRC = Path(__file__).resolve().parents[2] / "src" / "repro"


def _unused(tree: ast.Module) -> list[tuple[int, str]]:
    imported = []
    loaded = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported += [(node.lineno, a.asname or a.name.split(".")[0])
                         for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported += [(node.lineno, a.asname or a.name)
                         for a in node.names if a.name != "*"]
        elif isinstance(node, ast.Name):
            loaded.add(node.id)
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            loaded.update(re.findall(r"\w+", node.value))
    return [(line, name) for line, name in imported if name not in loaded]


def test_no_module_imports_a_name_it_never_loads():
    found = [f"{path.relative_to(SRC)}:{line}: {name}"
             for path in sorted(SRC.rglob("*.py"))
             if path.name != "__init__.py"
             for line, name in _unused(ast.parse(path.read_text(), str(path)))]
    assert found == []
