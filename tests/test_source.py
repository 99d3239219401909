"""Guards on the package source itself."""

import ast
import os
from collections import Counter
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "triforms"


def _names(node):
    """Every name that node and its children mention: Name ids,
    Attribute attrs and imported names."""
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            yield sub.id
        elif isinstance(sub, ast.Attribute):
            yield sub.attr
        elif isinstance(sub, ast.alias):
            yield sub.name


def test_no_assert_in_package():
    # python -O strips assert statements, so every invariant of the
    # package raises a typed TriformsError instead
    paths = sorted(SRC.glob("*.py"))
    assert paths
    found = [f"{path.name}:{node.lineno}"
             for path in paths
             for node in ast.walk(ast.parse(path.read_text(), str(path)))
             if isinstance(node, ast.Assert)]
    assert found == []


def _importers(module):
    """The package modules that import the top-level module, by name."""
    return sorted({path.name
                   for path in SRC.glob("*.py")
                   for node in ast.walk(ast.parse(path.read_text(), str(path)))
                   if isinstance(node, ast.Import)
                   and any(a.name.split(".")[0] == module for a in node.names)
                   or isinstance(node, ast.ImportFrom)
                   and (node.module or "").split(".")[0] == module})


def test_no_package_module_imports_typing():
    # annotations are never evaluated (from __future__ import
    # annotations), so builtin generics and X | None serve, and the
    # value types stand on collections.namedtuple
    assert _importers("typing") == []


def test_one_module_decides_the_scalar_type():
    # every other module takes QQ and numden from rationals.py and
    # tests isinstance(x, (int, QQ)), so the scalar type is Fraction in
    # one place
    assert _importers("fractions") == ["rationals.py"]
    assert _importers("gmpy2") == []


def test_every_top_level_name_is_used():
    # a top-level function or class that no other package code names
    # (by Name, Attribute or import) is dead surface; oracles that only
    # tests call live in tests/oracles.py.  The one exemption is the
    # paper's Hecke corollary, an export that no package code calls
    defined, used = {}, set()
    for path in sorted(SRC.glob("*.py")):
        for stmt in ast.parse(path.read_text(), str(path)).body:
            own = (stmt.name if isinstance(
                stmt, (ast.FunctionDef, ast.ClassDef)) else None)
            if own:
                defined[own] = path.name
            used.update(name for name in _names(stmt) if name != own)
    assert defined
    assert sorted(f"{path}:{name}" for name, path in defined.items()
                  if name not in used) == ["dwork.py:hecke_classifier"]


def test_every_error_class_is_raised():
    # an error class that no package code raises by name is dead
    # surface; TriformsError is the base the CLI catches
    path = SRC / "errors.py"
    classes = {stmt.name for stmt in ast.parse(path.read_text()).body
               if isinstance(stmt, ast.ClassDef)}
    raised = {node.exc.func.id
              for path in SRC.glob("*.py")
              for node in ast.walk(ast.parse(path.read_text(), str(path)))
              if isinstance(node, ast.Raise)
              and isinstance(node.exc, ast.Call)
              and isinstance(node.exc.func, ast.Name)}
    assert "TriformsError" in classes
    assert sorted(classes - raised) == ["TriformsError"]


def test_every_method_is_used():
    # the same scan for the functions of each class body (methods,
    # properties and classmethods): one that no package code names
    # outside its own def is dead surface.  Dunder methods serve their
    # protocol, and a name shared with a used method is out of reach
    paths = sorted(SRC.glob("*.py"))
    trees = [ast.parse(path.read_text(), str(path)) for path in paths]
    everywhere = Counter(name for tree in trees for name in _names(tree))
    methods, unused = 0, []
    for path, tree in zip(paths, trees):
        for cls in ast.walk(tree):
            if not isinstance(cls, ast.ClassDef):
                continue
            for fn in cls.body:
                if (not isinstance(fn, ast.FunctionDef)
                        or fn.name.startswith("__") and fn.name.endswith("__")):
                    continue
                methods += 1
                if everywhere[fn.name] == Counter(_names(fn))[fn.name]:
                    unused.append(f"{path.name}:{cls.name}.{fn.name}")
    assert methods
    assert unused == []


def test_every_parameter_is_read():
    # a parameter that its function never reads is dead surface that
    # every caller still has to pass; dunder methods keep the
    # signature their protocol fixes (__setattr__(self, name, value))
    unread = []
    for path in sorted(SRC.glob("*.py")):
        for fn in ast.walk(ast.parse(path.read_text(), str(path))):
            if (not isinstance(fn, ast.FunctionDef)
                    or fn.name.startswith("__") and fn.name.endswith("__")):
                continue
            params = [a.arg for a in ast.walk(fn.args)
                      if isinstance(a, ast.arg)]
            read = {node.id for stmt in fn.body for node in ast.walk(stmt)
                    if isinstance(node, ast.Name)
                    and isinstance(node.ctx, ast.Load)}
            unread += [f"{path.name}:{fn.name}:{name}"
                       for name in params if name not in read]
    assert unread == []


def _loaded_after(statement, condition):
    """The sorted names m in sys.modules for which condition, an
    expression in m, holds after statement runs in a fresh interpreter;
    the pytest process has every module loaded already."""
    probe = (f"import sys; {statement}; "
             f"print(sorted(m for m in sys.modules if {condition}))")
    env = {**os.environ, "PYTHONPATH": str(SRC.parent)}
    done = subprocess.run([sys.executable, "-c", probe], env=env,
                          capture_output=True, text=True, check=True)
    return done.stdout.strip()


def test_cli_import_leaves_out_the_introspection_modules():
    # every CLI call is a fresh interpreter, so what `import triforms.cli`
    # pulls in is paid on each one; dataclasses alone drags in inspect,
    # ast, dis and tokenize
    heavy = ["dataclasses", "inspect", "ast", "dis", "tokenize"]
    assert _loaded_after("import triforms.cli", f"m in {heavy!r}") == "[]"


def test_series_import_loads_only_its_dependencies():
    # the package root re-exports nothing, so importing one module loads
    # that module and what it imports, not the whole package
    loaded = _loaded_after("import triforms.series",
                           "m.split('.')[0] == 'triforms'")
    assert loaded == str(["triforms", "triforms.errors",
                          "triforms.rationals", "triforms.series"])
