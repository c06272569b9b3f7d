"""Every module of the package uses each name it imports, every
private function of the package has a caller in it, every
``__slots__`` entry of a package class is read in it, and every private
module-level constant is read by its module or imported from it.

No linter ships with the package, so a stray import or helper left
behind when a name is deleted, a cache slot that is only written, or a
tolerance left over when two are merged would otherwise go unnoticed.
``__init__.py`` imports to re-export and is exempt; its ``__all__``
must list exactly what it imports instead.
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


def uncalled_private_functions(sources):
    """Private functions and methods defined in ``sources`` whose name no
    code in them reads, as a Name or as an attribute."""
    defined, used = set(), set()
    for source in sources:
        tree = ast.parse(source)
        for node in ast.walk(tree):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                if node.name.startswith("_") and not node.name.endswith("__"):
                    defined.add(node.name)
            elif isinstance(node, ast.Name):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
    return sorted(defined - used)


def test_the_check_sees_uncalled_private_functions():
    sources = ["def _kept():\n    pass\n\ndef _left():\n    pass\n\nclass A:\n    def _step(self):\n        pass\n",
               "from .m import _kept\n_kept()\nA()._step()\n"]
    assert uncalled_private_functions(sources) == ["_left"]


def test_every_private_function_has_a_caller_in_the_package():
    sources = [p.read_text(encoding="utf-8") for p in sorted(PACKAGE.glob("*.py"))]
    assert uncalled_private_functions(sources) == []


def unread_slots(sources):
    """(class, slot) pairs for the ``__slots__`` entries of classes
    defined in ``sources`` whose name no code in them reads as an
    attribute: a slot that is only ever written is a leftover."""
    slots, read = [], set()
    for source in sources:
        for node in ast.walk(ast.parse(source)):
            if isinstance(node, ast.ClassDef):
                for stmt in node.body:
                    if isinstance(stmt, ast.Assign) and any(getattr(t, "id", None) == "__slots__" for t in stmt.targets):
                        slots.extend((node.name, name) for name in ast.literal_eval(stmt.value))
            elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                read.add(node.attr)
    return sorted(pair for pair in slots if pair[1] not in read)


def test_the_check_sees_unread_slots():
    sources = ["class Box:\n    __slots__ = ('lo', '_cache')\n\n    def __init__(self, lo):\n"
               "        self.lo = lo\n        self._cache = None\n",
               "def width(box):\n    return box.lo\n"]
    assert unread_slots(sources) == [("Box", "_cache")]


def test_every_slot_of_a_package_class_is_read_in_the_package():
    sources = [p.read_text(encoding="utf-8") for p in sorted(PACKAGE.glob("*.py"))]
    assert unread_slots(sources) == []


def unread_private_constants(sources):
    """(module, name) pairs for the private upper-case constants that a
    module of ``sources`` (module name -> source) assigns at top level,
    that it never reads and that no module imports from it."""
    defined, read = set(), set()
    for module, source in sources.items():
        tree = ast.parse(source)
        for stmt in tree.body:
            targets = stmt.targets if isinstance(stmt, ast.Assign) else [stmt.target] if isinstance(stmt, ast.AnnAssign) else []
            defined.update((module, t.id) for t in targets
                           if isinstance(t, ast.Name) and t.id.startswith("_") and t.id.isupper())
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                read.add((module, node.id))
            elif isinstance(node, ast.ImportFrom) and node.level == 1:
                read.update((node.module, alias.name) for alias in node.names)
    return sorted(defined - read)


def test_the_check_sees_unread_private_constants():
    sources = {"m": "_KEPT = 1\n_LEFT = 2\n_SHARED = 3\n\ndef f():\n    _LOCAL = 4\n    return _KEPT\n",
               "n": "from .m import _SHARED\n_LEFT: int = 5\nprint(_LEFT, _SHARED)\n"}
    assert unread_private_constants(sources) == [("m", "_LEFT")]


def test_every_private_constant_of_the_package_is_read():
    sources = {p.stem: p.read_text(encoding="utf-8") for p in sorted(PACKAGE.glob("*.py"))}
    assert "ip" in sources
    assert unread_private_constants(sources) == []


def private_imports(sources):
    """(module, name) pairs for the private names, "other._name", that a
    module of ``sources`` (module name -> source) takes from another
    module of the package: by a relative import, or as an attribute of a
    package module it imported by name."""
    found = set()
    for module, source in sources.items():
        tree = ast.parse(source)
        modules = {alias.asname or alias.name: alias.name for node in ast.walk(tree)
                   if isinstance(node, ast.ImportFrom) and node.level == 1 and node.module is None
                   for alias in node.names}
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.level == 1 and node.module is not None:
                found.update((module, f"{node.module}.{alias.name}") for alias in node.names
                             if alias.name.startswith("_"))
            elif (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name) and node.value.id in modules
                  and node.attr.startswith("_") and not node.attr.endswith("__")):
                found.add((module, f"{modules[node.value.id]}.{node.attr}"))
    return sorted(found)


def test_the_check_sees_private_imports():
    sources = {"m": "from .n import _TOL, public\nfrom . import n as other\nother._helper(other.__name__, _TOL)\n",
               "n": "_TOL = 1\n\ndef _helper(*args):\n    return public(_TOL)\n"}
    assert private_imports(sources) == [("m", "n._TOL"), ("m", "n._helper")]


# cuts.gomory_cuts reads the simplex's basis markers; the benchmark's
# tracer still binds it, so it stays until that tracer reads the
# solver's own counters (ROADMAP item 1)
_PRIVATE_IMPORTS_ALLOWED = [("cuts", "lp._AT_LB"), ("cuts", "lp._AT_UB"), ("cuts", "lp._BASIC")]


def test_no_module_takes_another_modules_private_name():
    sources = {p.stem: p.read_text(encoding="utf-8") for p in sorted(PACKAGE.glob("*.py"))}
    assert "cutplay" in sources
    assert private_imports(sources) == _PRIVATE_IMPORTS_ALLOWED
