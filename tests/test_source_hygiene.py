"""Every function and method in the package is reached from the package
itself, and every module uses the names it imports.

A name scan over the sources: a module-level function counts as reached when
its name appears (as a name or an attribute) somewhere in ``src/grrcheck``
outside its own definition, a method when its name appears there as an
attribute.  Helpers only tests call are flagged, so tests exercise the code
paths the program runs.  An imported name counts as used when it appears as a
name in its module; a deletion that leaves an import behind is flagged.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "grrcheck"

# Deliberate entry points that nothing in the package calls, with the reason.
ALLOWED_UNREACHED = {
    "rational_grr_cross_check": "reference route: classical rational "
    "Riemann-Roch that tests compare the integral sides against",
    "geometry_text": "printer inverse to parse_geometry; tests round-trip "
    "generated geometries through it",
    "class_text": "printer inverse to parse_class; tests round-trip generated "
    "class expressions through it",
}


def _definitions_and_uses():
    defs = []  # (file, qualified name, short name, is method, first line, last line)
    uses = []  # (file, name, is attribute, line)
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        for node in tree.body:
            members = [(node.name, node)] if isinstance(node, ast.FunctionDef) else []
            if isinstance(node, ast.ClassDef):
                members = [
                    (f"{node.name}.{item.name}", item)
                    for item in node.body
                    if isinstance(item, ast.FunctionDef)
                ]
            for qualname, fn in members:
                is_method = "." in qualname
                defs.append((path.name, qualname, fn.name, is_method, fn.lineno, fn.end_lineno))
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                uses.append((path.name, node.id, False, node.lineno))
            elif isinstance(node, ast.Attribute):
                uses.append((path.name, node.attr, True, node.lineno))
    return defs, uses


def test_every_function_is_reached_from_the_package():
    defs, uses = _definitions_and_uses()
    unreached = []
    for file, qualname, name, is_method, first, last in defs:
        if name.startswith("__") and name.endswith("__"):
            continue  # dunder methods are called by the interpreter
        if name in ALLOWED_UNREACHED:
            continue
        reached = any(
            used == name
            and (is_attribute or not is_method)
            and not (used_file == file and first <= line <= last)
            for used_file, used, is_attribute, line in uses
        )
        if not reached:
            unreached.append(f"{file}: {qualname}")
    assert not unreached, "nothing in src/grrcheck reaches: " + ", ".join(unreached)


def test_allowlist_names_exist():
    defs, _ = _definitions_and_uses()
    assert set(ALLOWED_UNREACHED) <= {name for _, _, name, _, _, _ in defs}


def test_every_import_is_used():
    unused = []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        imported = {}  # bound name -> line
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                for alias in node.names:
                    bound = alias.asname or alias.name.split(".")[0]
                    imported[bound] = node.lineno
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        unused += [
            f"{path.name}:{line}: {name}"
            for name, line in sorted(imported.items())
            if name not in used
        ]
    assert not unused, "imported but never used: " + ", ".join(unused)
