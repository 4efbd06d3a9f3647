"""Every public name, and every function, method and property, has a live
reader in the package itself.

A name the package defines but never runs is kept alive by its tests alone;
such code belongs with the tests.  The check reads the sources' syntax
trees, so it needs no import of the package.
"""

import ast
from pathlib import Path

import thermoqubit

PACKAGE = Path(thermoqubit.__file__).parent
# the console script (pyproject.toml) calls cli.main from outside
ENTRY_POINTS = {"main"}


def _definitions_and_references(tree):
    """(function defs, references) of a module: each def as (name, node,
    is_root, class name or None), each reference as (name, is_attribute,
    owning def node or None).  A reference is owned by its top-level
    function or method; code outside any def (module and class bodies)
    owns none and always runs."""
    defs, refs = [], []

    def visit(node, owner, cls):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                if owner is None:
                    root = (child.name in ENTRY_POINTS and cls is None
                            or child.name.startswith("__"))
                    defs.append((child.name, child, root, cls))
                visit(child, child if owner is None else owner, None)
                continue
            if isinstance(child, ast.Name):
                refs.append((child.id, False, owner))
            elif isinstance(child, ast.Attribute):
                refs.append((child.attr, True, owner))
            visit(child, owner,
                  child.name if isinstance(child, ast.ClassDef) else cls)

    visit(tree, None, None)
    return defs, refs


def live_analysis():
    """(names read, defs never read) of the code that can run: module-level
    code, dunders, the entry point, and, to a fixed point, every def that
    such code reads.  A function is read by its name or as a module
    attribute; a method or property only as an attribute (`.name`), so a
    local variable of the same name does not keep it alive.  A reference
    from inside the definition of the same name does not count."""
    defs, refs = [], []
    for path in sorted(PACKAGE.glob("*.py")):
        if path.name != "__init__.py":
            d, r = _definitions_and_references(ast.parse(path.read_text()))
            defs += d
            refs += r
    live = {node for _, node, root, _ in defs if root}
    while True:
        read = [(name, is_attr) for name, is_attr, owner in refs
                if owner is None or (owner in live and owner.name != name)]
        names = {name for name, _ in read}
        attrs = {name for name, is_attr in read if is_attr}
        grown = live | {node for name, node, _, cls in defs
                        if name in (names if cls is None else attrs)}
        if grown == live:
            dead = sorted(name if cls is None else f"{cls}.{name}"
                          for name, node, _, cls in defs if node not in live)
            return names, dead
        live = grown


def test_every_export_has_a_caller_in_the_package():
    names, _ = live_analysis()
    unused = sorted(set(thermoqubit.__all__) - names)
    assert not unused, f"exported but never called in the package: {unused}"


def test_every_function_has_a_live_reader_in_the_package():
    _, dead = live_analysis()
    assert not dead, f"defined but never read by live package code: {dead}"
