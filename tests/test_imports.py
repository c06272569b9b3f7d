"""Every module of the package uses each name it imports.

No linter ships with the package, so a stray import left behind when a
name is deleted would otherwise go unnoticed.  ``__init__.py`` imports
to re-export and is exempt; its ``__all__`` must list exactly what it
imports instead.
"""

import ast
from pathlib import Path

import rbgames

PACKAGE = Path(rbgames.__file__).resolve().parent


def imported_names(tree):
    """Names bound by the import statements of a parsed module."""
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported.update(alias.asname or alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            imported.update(alias.asname or alias.name for alias in node.names)
    return imported


def unused_imports(source):
    """Names bound by import statements in ``source`` that no code reads."""
    tree = ast.parse(source)
    imported = imported_names(tree)
    # an attribute chain such as np.zeros starts with the Name np
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted(imported - used)


def test_the_check_sees_unused_names():
    source = "import os\nimport numpy as np\nfrom .lcp import LCP, solve_lcp\nnp.zeros(solve_lcp)\n"
    assert unused_imports(source) == ["LCP", "os"]


def test_no_module_imports_a_name_it_never_uses():
    modules = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")
    assert "lcp.py" in {p.name for p in modules}
    unused = {p.name: unused_imports(p.read_text(encoding="utf-8")) for p in modules}
    assert {name: names for name, names in unused.items() if names} == {}


def test_the_package_exports_exactly_what_it_imports():
    imported = imported_names(ast.parse((PACKAGE / "__init__.py").read_text(encoding="utf-8")))
    assert "solve_lp" in imported
    assert len(rbgames.__all__) == len(set(rbgames.__all__))
    assert set(rbgames.__all__) == imported
    assert [name for name in rbgames.__all__ if not hasattr(rbgames, name)] == []
