"""Every import in src/ and tests/ is used, and every exported name exists.

No linter ships with the test dependencies, so this stdlib-ast scan is
the lint step.  A name counts as used when it is read anywhere in its
module, appears in a string annotation, or is listed in ``__all__``.
Package ``__init__.py`` files are exempt: their imports are re-exports.
A name listed in a module's ``__all__`` that the module does not define
fails only ``from module import *``, so each ``__all__`` is checked too.
The same scan holds the layering: ``instance`` (schema, JSON I/O, builtin)
imports only ``errors`` and ``exact`` from the package, and no module in
src/ imports inside a function.  Test modules share their instances and
helpers through ``tests/shared.py`` and never import one another.
"""

import ast
import importlib
import types

from shared import ROOT


def imported(tree):
    """(name bound by the import, line) for each module-level or local
    import, ``from __future__`` and star imports excepted."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for a in node.names:
                yield a.asname or a.name.split(".")[0], node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for a in node.names:
                if a.name != "*":
                    yield a.asname or a.name, node.lineno


def used(tree):
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__"
                for t in node.targets):
            names.update(ast.literal_eval(node.value))
        for ann in (getattr(node, "annotation", None),
                    getattr(node, "returns", None)):
            if isinstance(ann, ast.Constant) and isinstance(ann.value, str):
                names.update(n.id for n in ast.walk(ast.parse(ann.value))
                             if isinstance(n, ast.Name))
    return names


def unused_imports(path):
    tree = ast.parse(path.read_text(encoding="utf-8"), str(path))
    seen = used(tree)
    return ["%s:%d %s" % (path.relative_to(ROOT), line, name)
            for name, line in imported(tree) if name not in seen]


def test_no_unused_imports():
    files = sorted(p for d in ("src", "tests")
                   for p in (ROOT / d).rglob("*.py")
                   if p.name != "__init__.py")
    assert files
    assert [u for p in files for u in unused_imports(p)] == []


def test_scan_flags_an_unused_import():
    tree = ast.parse("import os\nimport sys as system\nfrom a import b, c\n"
                     "from d import Mat\n__all__ = ['c']\n\n"
                     "def f() -> 'Mat':\n    return b\n")
    seen = used(tree)
    assert [n for n, _ in imported(tree) if n not in seen] == ["os", "system"]


def stale_exports(module):
    return [name for name in getattr(module, "__all__", ())
            if not hasattr(module, name)]


def test_every_exported_name_exists():
    paths = sorted((ROOT / "src" / "qminkowski").glob("*.py"))
    modules = [importlib.import_module("qminkowski." + p.stem)
               for p in paths if p.stem not in ("__init__", "__main__")]
    assert sum(hasattr(m, "__all__") for m in modules) >= 10
    assert ["%s.%s" % (m.__name__, name) for m in modules
            for name in stale_exports(m)] == []


def test_stale_export_is_flagged():
    module = types.ModuleType("m")
    module.a = 1
    module.__all__ = ["a", "gone"]
    assert stale_exports(module) == ["gone"]


def package_imports(tree):
    """The package modules that a module imports from."""
    mods = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.level:
            if node.module:
                mods.add(node.module.split(".")[0])
            else:                                   # from . import x, y
                mods.update(a.name for a in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module:
            parts = node.module.split(".")
            if parts[0] == "qminkowski":
                mods.update(parts[1:2] or [a.name for a in node.names])
        elif isinstance(node, ast.Import):
            mods.update(a.name.split(".")[1] for a in node.names
                        if a.name.startswith("qminkowski."))
    return mods


def function_level_imports(tree):
    """(function name, line) of each import inside a function body."""
    return [(fn.name, node.lineno) for fn in ast.walk(tree)
            if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef))
            for node in ast.walk(fn)
            if isinstance(node, (ast.Import, ast.ImportFrom))]


def parse(path):
    return ast.parse(path.read_text(encoding="utf-8"), str(path))


def test_instance_imports_only_errors_and_exact():
    tree = parse(ROOT / "src" / "qminkowski" / "instance.py")
    assert package_imports(tree) <= {"errors", "exact"}


def test_no_function_level_import_in_src():
    found = ["%s:%d %s" % (p.relative_to(ROOT), line, fn)
             for p in sorted((ROOT / "src").rglob("*.py"))
             for fn, line in function_level_imports(parse(p))]
    assert found == []


def test_layering_scan_flags_a_violation():
    tree = ast.parse("from .dirac import metric\nfrom . import exact\n"
                     "import qminkowski.fock\n"
                     "from qminkowski.lorentz import make_lorentz\n\n"
                     "def f():\n    from .calculus import f_tilde\n"
                     "    return f_tilde\n")
    assert package_imports(tree) == {"dirac", "exact", "fock", "lorentz",
                                     "calculus"}
    assert function_level_imports(tree) == [("f", 7)]


def imported_test_modules(tree):
    """The test_* modules that a module imports, anywhere in it."""
    names = [name for node in ast.walk(tree)
             if isinstance(node, (ast.Import, ast.ImportFrom))
             for name in [getattr(node, "module", None) or ""]
             + [a.name for a in node.names]]
    return sorted({part for name in names for part in name.split(".")
                   if part.startswith("test_")})


def test_no_test_module_imports_another():
    found = {p.name: imported_test_modules(parse(p))
             for p in sorted((ROOT / "tests").glob("*.py"))}
    assert "shared.py" in found
    assert {name: mods for name, mods in found.items() if mods} == {}


def test_test_module_scan_flags_an_import():
    tree = ast.parse("import os\nfrom test_calculus import x\n"
                     "def f():\n    import tests.test_pins, shared\n"
                     "    from tests import test_cli\n")
    assert imported_test_modules(tree) == ["test_calculus", "test_cli",
                                           "test_pins"]
