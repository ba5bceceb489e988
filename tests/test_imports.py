"""Imports, locals and private names: no unused imports and no function
assigning a local it never reads, in the package or in the tests, no private
module-level name the package never reads, no module-level function or class
that neither the package, the benchmark nor the public API names, no engine
module reaching into another one's private names, and no heavy standard
modules at CLI start-up: neither the suites, ``json`` nor ``random`` until a
command asks for them, neither ``argparse`` nor ``gettext`` for a plain
command, and neither ``fractions``, ``decimal`` nor ``re`` for a command
that builds no Fraction and parses nothing."""

import ast
import importlib.util
import os
import re
import subprocess
import sys
from pathlib import Path

import quadricops

ROOTS = [Path(quadricops.__file__).parent, Path(__file__).parent]


def unused_imports(path: Path) -> list:
    """Imported names that the module never reads.

    A name counts as read when it occurs as an ``ast.Name`` anywhere in the
    module (annotations included) or is listed in a top-level ``__all__``.
    """
    tree = ast.parse(path.read_text(), filename=str(path))
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
            used.update(ast.literal_eval(node.value))
    return [f"{path.name}:{line}: {name}"
            for name, line in sorted(imported.items()) if name not in used]


def unread_locals(path: Path) -> list:
    """Names a function of the module assigns and never reads.

    A name counts as assigned when it is a store target in the function's
    own body, outside nested functions and lambdas, and as read when it
    occurs as a load anywhere in the function, nested functions included.
    ``_`` and names declared global or nonlocal are exempt.
    """
    tree = ast.parse(path.read_text(), filename=str(path))
    scopes = (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)
    out = []
    for fn in ast.walk(tree):
        if not isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        stored, exempt, todo = {}, {"_"}, list(fn.body)
        while todo:
            node = todo.pop()
            if isinstance(node, (ast.Global, ast.Nonlocal)):
                exempt.update(node.names)
            elif isinstance(node, ast.Name) and isinstance(node.ctx, ast.Store):
                stored.setdefault(node.id, node.lineno)
            if not isinstance(node, scopes):
                todo.extend(ast.iter_child_nodes(node))
        read = {node.id for node in ast.walk(fn)
                if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
        out += [f"{path.name}:{line}: {fn.name}.{name}"
                for name, line in stored.items()
                if name not in read and name not in exempt]
    return sorted(out)


def unread_privates(paths) -> list:
    """Private module-level names that no module among paths reads.

    A name is private when it starts with one underscore and is bound at the
    top level of a module by ``def``, ``class`` or an assignment.  It counts
    as read when any of the modules loads it as a name or as an attribute.
    """
    defined, read = [], set()
    for path in paths:
        tree = ast.parse(path.read_text(), filename=str(path))
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                                 ast.ClassDef)):
                names = [(node.name, node.lineno)]
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = (node.targets if isinstance(node, ast.Assign)
                           else [node.target])
                names = [(t.id, node.lineno) for target in targets
                         for t in ast.walk(target) if isinstance(t, ast.Name)]
            else:
                continue
            defined += [(path.name, line, name) for name, line in names
                        if name.startswith("_") and not name.startswith("__")]
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                read.add(node.id)
            elif isinstance(node, ast.Attribute):
                read.add(node.attr)
    return sorted(f"{mod}:{line}: {name}" for mod, line, name in defined
                  if name not in read)


def dead_helpers(paths, named: set, exported) -> list:
    """Module-level functions and classes that nothing reads.

    A name defined by a top-level ``def`` or ``class`` of a module among
    paths is dead when no module among them reads it outside its own
    definition (as a name, an attribute or a ``from`` import, so a recursive
    call does not count), it is not in the set of words ``named``, and it is
    not in ``exported``.  A top-level ``__getattr__`` or ``__dir__`` counts
    as read: the interpreter calls these module hooks (PEP 562).
    """
    defined, read = [], set()
    for path in paths:
        tree = ast.parse(path.read_text(), filename=str(path))
        for top in tree.body:
            seen = set()
            for node in ast.walk(top):
                if isinstance(node, ast.Name):
                    seen.add(node.id)
                elif isinstance(node, ast.Attribute):
                    seen.add(node.attr)
                elif isinstance(node, ast.ImportFrom):
                    seen.update(alias.name for alias in node.names)
            if isinstance(top, (ast.FunctionDef, ast.AsyncFunctionDef,
                                ast.ClassDef)):
                defined.append((path.name, top.lineno, top.name))
                seen.discard(top.name)
            read |= seen
    read |= named | {"__getattr__", "__dir__"}
    return sorted(f"{mod}:{line}: {name}" for mod, line, name in defined
                  if name not in read and name not in exported)


def private_imports(path: Path) -> list:
    """Underscore names that an engine module takes from another one.

    That is ``from .x import _f``, ``from quadricops.x import _f``, or the
    attribute ``x._f`` of a module imported by ``from . import x``.  Dunder
    names are exempt.
    """
    tree = ast.parse(path.read_text(), filename=str(path))
    modules, out = set(), []

    def private(name):
        return name.startswith("_") and not name.startswith("__")

    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (
                node.level or (node.module or "").startswith("quadricops")):
            for alias in node.names:
                if private(alias.name):
                    out.append(f"{path.name}:{node.lineno}: {alias.name}")
                elif node.module is None:
                    modules.add(alias.asname or alias.name)
    for node in ast.walk(tree):
        if (isinstance(node, ast.Attribute) and private(node.attr)
                and isinstance(node.value, ast.Name)
                and node.value.id in modules):
            out.append(f"{path.name}:{node.lineno}: "
                       f"{node.value.id}.{node.attr}")
    return sorted(out)


def test_no_unused_imports():
    offenders = [u for root in ROOTS for path in sorted(root.glob("*.py"))
                 for u in unused_imports(path)]
    assert offenders == []


def test_scan_sees_an_unused_import(tmp_path):
    probe = tmp_path / "probe.py"
    probe.write_text("import os\nfrom math import comb, perm\n"
                     "__all__ = ['perm']\nprint(comb(3, 1))\n")
    assert unused_imports(probe) == ["probe.py:1: os"]


def test_no_unread_locals():
    offenders = [u for root in ROOTS for path in sorted(root.glob("*.py"))
                 for u in unread_locals(path)]
    assert offenders == []


def test_scan_sees_an_unread_local(tmp_path):
    probe = tmp_path / "probe.py"
    probe.write_text("def f(k):\n"
                     "    n, _ = 2 * k, 0\n"
                     "    m = k\n"
                     "    def g():\n"
                     "        unused = m\n"
                     "    return g\n")
    assert unread_locals(probe) == ["probe.py:2: f.n", "probe.py:5: g.unused"]


def test_no_unread_privates():
    assert unread_privates(sorted(ROOTS[0].glob("*.py"))) == []


def test_scan_sees_an_unread_private(tmp_path):
    (tmp_path / "a.py").write_text("_dead = 1\n_read, _unpacked = 2, 3\n"
                                   "__dunder__ = 4\n"
                                   "def _used():\n    return _read\n"
                                   "class _Gone:\n    pass\n")
    (tmp_path / "b.py").write_text("from . import a\nfrom .a import _used\n"
                                   "print(_used(), a._unpacked)\n")
    paths = [tmp_path / "a.py", tmp_path / "b.py"]
    assert unread_privates(paths) == ["a.py:1: _dead", "a.py:6: _Gone"]


def test_no_dead_helpers():
    # perfbench wraps engine functions by name, from outside the package
    bench = ROOTS[1].parent / "perfbench"
    named = {word for path in bench.rglob("*") if path.is_file()
             and "__pycache__" not in path.parts
             for word in re.findall(r"\w+", path.read_text())}
    assert dead_helpers(sorted(ROOTS[0].glob("*.py")), named,
                        quadricops.__all__) == []


def test_scan_sees_a_dead_helper(tmp_path):
    (tmp_path / "a.py").write_text("def dead(n):\n    return dead(n - 1)\n"
                                   "def called():\n    return 1\n"
                                   "class Exported:\n    pass\n"
                                   "def benched():\n    pass\n"
                                   "class Gone:\n    pass\n")
    (tmp_path / "b.py").write_text("from .a import called\nprint(called())\n")
    (tmp_path / "c.py").write_text("def __getattr__(name):\n"
                                   "    raise AttributeError(name)\n"
                                   "def __dir__():\n    return []\n"
                                   "def beside_the_hooks():\n    pass\n")
    paths = [tmp_path / "a.py", tmp_path / "b.py", tmp_path / "c.py"]
    assert dead_helpers(paths, {"benched"}, ["Exported"]) == [
        "a.py:1: dead", "a.py:9: Gone", "c.py:5: beside_the_hooks"]


def test_no_private_names_across_engine_modules():
    offenders = [u for path in sorted(ROOTS[0].glob("*.py"))
                 for u in private_imports(path)]
    assert offenders == []


def test_scan_sees_a_private_import(tmp_path):
    probe = tmp_path / "probe.py"
    probe.write_text("from __future__ import annotations\n"
                     "from . import lie\n"
                     "from .harmonic import _rref, kelvin\n"
                     "from quadricops.weyl import _exchange_terms\n"
                     "from os import _exit\n"
                     "print(lie._zeros, lie.u, lie.__name__, kelvin)\n")
    assert private_imports(probe) == ["probe.py:3: _rref",
                                      "probe.py:4: _exchange_terms",
                                      "probe.py:6: lie._zeros"]


def test_cli_import_skips_dataclasses_and_inspect():
    # every CLI process pays for what `import quadricops.cli` loads; -S keeps
    # site-packages start-up from loading these modules on its own
    env = dict(os.environ, PYTHONPATH=str(ROOTS[0].parent))
    code = ("import sys, quadricops.cli; "
            "print(sorted({'dataclasses', 'inspect'} & set(sys.modules)))")
    proc = subprocess.run([sys.executable, "-S", "-c", code], env=env,
                          capture_output=True, text=True, check=True)
    assert proc.stdout == "[]\n"


# the modules whose functions perfbench/tracer.py wraps, read from that file
TRACER = ROOTS[1].parent / "perfbench" / "tracer.py"
STARTUP = """
import io, sys
lazy = ("quadricops.suites", "json", "random", "argparse", "gettext",
        "fractions", "decimal", "re")
import quadricops
print(sorted(set(lazy) & set(sys.modules)))
import quadricops.cli
print(sorted(set(lazy) & set(sys.modules)))
out, sys.stdout = sys.stdout, io.StringIO()
code = quadricops.cli.main(["boundary", "--k", "2"])
sys.stdout = out
print(code, sorted(set(lazy) & set(sys.modules)))
print(sorted(m for m in {layers!r} if "quadricops." + m not in sys.modules))
names = {{}}
exec("from quadricops import *", names)
print(sorted(set(quadricops.__all__) - set(names)),
      quadricops.run_suite is quadricops.suites.run_suite,
      set(quadricops.__all__) <= set(dir(quadricops)))
"""


def test_start_up_loads_neither_the_suites_json_nor_random():
    # every CLI process pays for what `import quadricops.cli` and a plain
    # command load, but the tracer wraps its layers right after that import,
    # so they must be there
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    layers = sorted({modname for _, modname, _, _ in tracer.LAYERS})
    env = dict(os.environ, PYTHONPATH=str(ROOTS[0].parent))
    proc = subprocess.run([sys.executable, "-S", "-c",
                           STARTUP.format(layers=layers)],
                          env=env, capture_output=True, text=True, check=True)
    assert proc.stdout == "[]\n[]\n0 []\n[]\n[] True True\n"
