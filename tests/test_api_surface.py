"""Every public name of the package is used by the package itself.

A public module-level function, class or constant, or a public method or
property of a public class, that no code in ``src/thermoproc`` reads is API
that only tests (or nothing) use; it belongs in the test that needs it.  The
scan is static: a name counts as used when some ``Name`` (read, not
assigned) or ``Attribute`` node in the package spells it.

The same static scan keeps every file write in ``cli.py``, and a fresh
interpreter pins the modules that ``import thermoproc.cli`` loads and runs
the README's library quick start.
"""

import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "thermoproc"


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
    """(qualified name, name) of every public module-level def, class or
    constant, and of every public method or property of a public class."""
    for module, tree in trees.items():
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                names = [node.name]
            elif isinstance(node, ast.Assign):
                names = [t.id for t in node.targets if isinstance(t, ast.Name)]
            else:
                continue
            yield from ((f"{module}.{n}", n) for n in names if not n.startswith("_"))
            if isinstance(node, ast.ClassDef) and not node.name.startswith("_"):
                yield from ((f"{module}.{node.name}.{f.name}", f.name) for f in node.body
                            if isinstance(f, ast.FunctionDef) and not f.name.startswith("_"))


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
    exempt = _exported(trees)
    used = _used_names(trees)
    unused = sorted(qualified for qualified, name in _public_definitions(trees)
                    if name not in used and name not in exempt)
    assert unused == [], "public names nothing in src/thermoproc uses: " + ", ".join(unused)



# (module, function, parameter) left unset by every call in the package, with
# the caller that does set it
UNPASSED_EXEMPT = {
    # the console entry point; the console script calls main() with no argv
    ("cli", "main", "argv"),
    # ``cli._emit_cooling`` calls it through a variable, ``closed_form``
    ("cooling", "incoherent_closed_form", "d"),
}


def _public_functions(trees):
    """(module, function node) of every public module-level function and
    every public method of a public module-level class."""
    for module, tree in trees.items():
        for node in tree.body:
            if isinstance(node, ast.FunctionDef) and not node.name.startswith("_"):
                yield module, node
            elif isinstance(node, ast.ClassDef) and not node.name.startswith("_"):
                yield from ((module, f) for f in node.body
                            if isinstance(f, ast.FunctionDef)
                            and not f.name.startswith("_"))


def _defaulted(fn):
    """(position or None, name) of each parameter of ``fn`` with a default;
    the position is None for a keyword-only one."""
    positional = fn.args.posonlyargs + fn.args.args
    first = len(positional) - len(fn.args.defaults)
    yield from ((i, positional[i].arg) for i in range(first, len(positional)))
    yield from ((None, a.arg) for a, default in
                zip(fn.args.kwonlyargs, fn.args.kw_defaults) if default is not None)


def _calls(trees):
    """Per called name, the (positional count, keyword names) of each call
    in the package; ``*args`` counts as every position, ``**kwargs`` as
    every keyword."""
    calls = {}
    for tree in trees.values():
        for node in ast.walk(tree):
            if not isinstance(node, ast.Call):
                continue
            name = getattr(node.func, "id", None) or getattr(node.func, "attr", None)
            starred = any(isinstance(a, ast.Starred) for a in node.args)
            keywords = {k.arg for k in node.keywords}
            calls.setdefault(name, []).append(
                (float("inf") if starred else len(node.args),
                 None if None in keywords else keywords))
    return calls


def test_every_defaulted_parameter_is_passed_by_the_package():
    """A default that no call in the package overrides is a knob that only
    tests (or nothing) turn; the value belongs in the body."""
    trees = _trees()
    exempt = _exported(trees)
    calls = _calls(trees)
    unpassed = []
    for module, fn in _public_functions(trees):
        if fn.name in exempt:
            continue
        # a method's positions count from the argument after self
        shift = 1 if fn.args.args and fn.args.args[0].arg in ("self", "cls") else 0
        for position, name in _defaulted(fn):
            passed = any(
                keywords is None or name in keywords
                or (position is not None and count > position - shift)
                for count, keywords in calls.get(fn.name, ()))
            if not passed and (module, fn.name, name) not in UNPASSED_EXEMPT:
                unpassed.append(f"{module}.{fn.name}({name})")
    assert unpassed == [], ("defaulted parameters no call in src/thermoproc "
                            "passes: " + ", ".join(unpassed))


WRITE_METHODS = {"write_text", "write_bytes"}


def _file_writes(tree):
    """Line numbers of the calls in ``tree`` that write a file: a
    ``write_text`` or ``write_bytes`` method, or ``open`` with a mode that
    writes, appends or creates."""
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call):
            continue
        name = getattr(node.func, "id", None) or getattr(node.func, "attr", None)
        if name in WRITE_METHODS:
            yield node.lineno
        elif name == "open":
            modes = [k.value for k in node.keywords if k.arg == "mode"] + node.args[1:2]
            if any(not isinstance(m, ast.Constant) or set(str(m.value)) & set("wax+")
                   for m in modes):
                yield node.lineno


def test_only_the_cli_writes_files():
    """Every output file goes through ``cli``: its one CSV writer, the JSON
    report and the manifest."""
    writers = sorted(f"{module}.py:{line}" for module, tree in _trees().items()
                     if module != "cli" for line in _file_writes(tree))
    assert writers == [], "file writes outside cli.py: " + ", ".join(writers)


def test_the_write_scan_sees_each_kind_of_write():
    tree = ast.parse("p.write_text(s)\nq.write_bytes(b)\nopen(f, 'w')\n"
                     "open(f, mode='a')\nopen(f, m)\nopen(f)\nopen(f, 'rb')\n")
    assert list(_file_writes(tree)) == [1, 2, 3, 4, 5]
    assert list(_file_writes(_trees()["cli"]))  # cli itself writes


def _fresh_interpreter(code):
    """Standard output of ``code`` run by a new interpreter on the package source."""
    env = dict(os.environ, PYTHONPATH=str(PACKAGE.parent))
    return subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, check=True, timeout=120).stdout.split()


def test_importing_the_cli_loads_only_what_every_command_runs():
    """The science modules load with the command that runs them."""
    loaded = _fresh_interpreter(
        "import sys, thermoproc.cli\n"
        "print(*sorted(m for m in sys.modules if m.split('.')[0] == 'thermoproc'))")
    assert loaded == ["thermoproc", "thermoproc._kernels", "thermoproc.cli",
                      "thermoproc.combinatorics", "thermoproc.core", "thermoproc.memory"]


def test_submodules_resolve_as_attributes_on_first_access():
    out = _fresh_interpreter(
        "import thermoproc\n"
        "print(thermoproc.validation.__name__, thermoproc.majorization.__name__)\n"
        "try:\n"
        "    thermoproc.no_such_module\n"
        "except AttributeError:\n"
        "    print('AttributeError')\n")
    assert out == ["thermoproc.validation", "thermoproc.majorization", "AttributeError"]


class _BrokenSubmodule:
    """An import finder for which ``thermoproc.broken`` exists but needs a
    module that is not installed."""

    @staticmethod
    def find_spec(name, path=None, target=None):
        if name == "thermoproc.broken":
            raise ModuleNotFoundError("No module named 'missing_dependency'",
                                      name="missing_dependency")
        return None


def test_a_submodule_missing_a_dependency_is_not_reported_as_absent(monkeypatch):
    import thermoproc

    monkeypatch.setattr(sys, "meta_path", [_BrokenSubmodule, *sys.meta_path])
    with pytest.raises(ModuleNotFoundError, match="missing_dependency"):
        thermoproc.broken
    with pytest.raises(AttributeError):
        thermoproc.no_such_module


def test_the_cli_resolves_the_modules_it_defers():
    out = _fresh_interpreter(
        "import thermoproc.cli\nvalidation = thermoproc.cli.validation\n"
        "print(validation.__name__, bool(validation.ALL_CHECKS))")
    assert out == ["thermoproc.validation", "True"]


def test_the_readme_quick_start_runs():
    """The first ``python`` block under the README's "Library quick start"
    runs without an exception, so an API change cannot leave it stale."""
    readme = (PACKAGE.parents[1] / "README.md").read_text(encoding="utf-8")
    section = readme.split("\n## Library quick start\n", 1)[1]
    code = section.split("```python\n", 1)[1].split("\n```", 1)[0]
    assert "from thermoproc" in code
    _fresh_interpreter(code)  # raises CalledProcessError on an exception
