"""Every public name of the package is used by the package itself.

A public module-level function, class or constant that no code in
``src/thermoproc`` reads is API that only tests (or nothing) use; it belongs
in the test that needs it.  The scan is static: a name counts as used when
some ``Name`` (read, not assigned) or ``Attribute`` node in the package
spells it.
"""

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "thermoproc"

# the README quick start calls this one; the package itself evaluates the
# grid form, epsilon_d_grid
README_NAMES = {"epsilon_d_closed"}


def _trees():
    return {path.stem: ast.parse(path.read_text(encoding="utf-8"))
            for path in sorted(PACKAGE.glob("*.py"))}


def _exported(trees):
    """The names listed in the package's ``__all__``."""
    for node in trees["__init__"].body:
        if (isinstance(node, ast.Assign)
                and any(isinstance(t, ast.Name) and t.id == "__all__"
                        for t in node.targets)):
            return set(ast.literal_eval(node.value))
    raise AssertionError("thermoproc/__init__.py defines no __all__")


def _public_definitions(trees):
    """(module, name) of every public module-level def, class or constant."""
    for module, tree in trees.items():
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                names = [node.name]
            elif isinstance(node, ast.Assign):
                names = [t.id for t in node.targets if isinstance(t, ast.Name)]
            else:
                continue
            yield from ((module, n) for n in names if not n.startswith("_"))


def _used_names(trees):
    used = set()
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
    return used


def test_every_public_name_is_used_by_the_package():
    trees = _trees()
    exempt = _exported(trees) | README_NAMES
    used = _used_names(trees)
    unused = sorted(f"{module}.{name}" for module, name in _public_definitions(trees)
                    if name not in used and name not in exempt)
    assert unused == [], "public names nothing in src/thermoproc uses: " + ", ".join(unused)

