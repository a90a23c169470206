"""The library's layering, read off its source with ``ast``.

Splittings, kernels, cokernels and sections are computed on matrices in
``exactmat`` and turned into maps between tensor powers once, in
``tensorexpr`` (``split``, ``equaliser``, ``coequaliser``,
``factor_through``); every other module goes through those four.  No
module imports a private name from a sibling or a name it never reads,
and every function reads each of its parameters.  Every function and
method is reached from the command line or from one of the named
``ENTRY_POINTS``, and every file parses at the oldest Python that
pyproject.toml admits.
"""

import ast
import re
from pathlib import Path

import pytest

import weakhopf

SRC = Path(weakhopf.__file__).parent
PYPROJECT = Path(__file__).resolve().parents[1] / "pyproject.toml"
LOW_LEVEL = {"exactmat", "tensorexpr"}
MATRIX_CONSTRUCTIONS = {"split_idempotent", "kernel_basis",
                        "cokernel_projection", "section"}


def _violations(source):
    """(line, what) of every use of a matrix-level construction and every
    import of a private name from within the package, in source."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Name) and node.id in MATRIX_CONSTRUCTIONS:
            found.append((node.lineno, node.id))
        elif (isinstance(node, ast.Attribute)
              and node.attr in MATRIX_CONSTRUCTIONS):
            found.append((node.lineno, node.attr))
        elif isinstance(node, ast.ImportFrom) and (
                node.level or (node.module or "").startswith("weakhopf")):
            found.extend((node.lineno, f"import {alias.name}")
                         for alias in node.names
                         if alias.name.startswith("_")
                         or alias.name in MATRIX_CONSTRUCTIONS)
    return found


def test_the_checker_sees_each_kind_of_violation():
    source = ("from .galois import _factor_through_surjection\n"
              "from .exactmat import kernel_basis, rank\n"
              "basis = kernel_basis(m)\n"
              "sec = exactmat.section(proj)\n"
              "from . import exactmat\n"
              "r = exactmat.rank(m)\n")
    assert sorted(_violations(source)) == [
        (1, "import _factor_through_surjection"), (2, "import kernel_basis"),
        (3, "kernel_basis"), (4, "section")]


def test_only_exactmat_and_tensorexpr_split_or_solve_for_maps():
    found = {path.stem: _violations(path.read_text(encoding="utf-8"))
             for path in sorted(SRC.glob("*.py"))
             if path.stem not in LOW_LEVEL}
    assert "hopfmodules" in found and "galois" in found
    assert {name: v for name, v in found.items() if v} == {}


def _unread_parameters(source):
    """(line, function, parameter) of every parameter that its function
    never reads; self, cls and names starting with '_' are exempt."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                                 ast.Lambda)):
            continue
        args = node.args
        params = [a.arg for a in args.posonlyargs + args.args
                  + args.kwonlyargs + [args.vararg, args.kwarg] if a]
        body = node.body if isinstance(node.body, list) else [node.body]
        read = {n.id for stmt in body for n in ast.walk(stmt)
                if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
        name = getattr(node, "name", "<lambda>")
        found.extend((node.lineno, name, p) for p in params
                     if p not in read and p not in ("self", "cls")
                     and not p.startswith("_"))
    return found


def test_the_parameter_checker_sees_each_kind_of_unread_parameter():
    source = ("def f(bim, base, *, key, _spare):\n"
              "    return bim\n"
              "class A:\n"
              "    def eval(self, env, base_dim):\n"
              "        def inner(x):\n"
              "            return env\n"
              "        return inner\n"
              "    @classmethod\n"
              "    def make(cls, *args, **kwargs):\n"
              "        return kwargs\n"
              "g = lambda i, j: i\n")
    assert sorted(_unread_parameters(source)) == [
        (1, "f", "base"), (1, "f", "key"), (4, "eval", "base_dim"),
        (5, "inner", "x"), (9, "make", "args"), (11, "<lambda>", "j")]


def test_every_function_reads_its_parameters():
    found = {path.stem: _unread_parameters(path.read_text(encoding="utf-8"))
             for path in sorted(SRC.glob("*.py"))}
    assert "tensorexpr" in found
    assert {name: v for name, v in found.items() if v} == {}


def _unused_imports(source):
    """(line, name) of every name that an import binds in source and that
    source never reads; ``from __future__`` imports are exempt."""
    tree = ast.parse(source)
    read = {n.id for n in ast.walk(tree)
            if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            bound = [a.asname or a.name.split(".")[0] for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            bound = [a.asname or a.name for a in node.names]
        else:
            continue
        found.extend((node.lineno, name) for name in bound if name not in read)
    return found


def test_the_import_checker_sees_each_kind_of_unused_import():
    source = ("from __future__ import annotations\n"
              "import os.path\n"
              "import sys\n"
              "from . import exactmat as em, tensorexpr\n"
              "from .bimonad import compare, compose\n"
              "def f(x: Mat) -> str:\n"
              "    from .exactmat import Mat, rank\n"
              "    return os.sep + em.name + compare(x)\n")
    assert sorted(_unused_imports(source)) == [
        (3, "sys"), (4, "tensorexpr"), (5, "compose"), (7, "rank")]


# Imports kept unread, each with its reason; __init__.py re-exports the
# library API and is not checked.
UNREAD_IMPORTS = {
    ("hopf", "require_instance"):
        "bench/test_bench.py traces it (ROADMAP item 1 removes it)",
    ("entwining", "require_instance"):
        "bench/test_bench.py traces it (ROADMAP item 1 removes it)",
}


def test_every_import_in_src_is_read():
    found = {(path.stem, name)
             for path in sorted(SRC.glob("*.py")) if path.stem != "__init__"
             for _, name in _unused_imports(path.read_text(encoding="utf-8"))}
    assert found == set(UNREAD_IMPORTS)


FUNCTIONS = (ast.FunctionDef, ast.AsyncFunctionDef)

# Names reached from outside the command line, each with its reason.
ENTRY_POINTS = {
    "hopf.fundamental_verdict":
        "the benchmark's verdict-ladder workload calls it",
    "instances.groupoid_antipode":
        "bench/test_bench.py checks the benchmark's antipodes against it",
    "bimonad.require_instance":
        "bench/test_bench.py traces it and its re-exports in hopf and "
        "entwining (ROADMAP item 1 traces Pipeline.require instead)",
    "galois.check_remark_inverses":
        "the paper's Remark inverses; no command prints them, and "
        "acceptance criterion 6 checks them",
    "hopfmodules.induced_comonad_on_module":
        "the paper's induced comonad at a module; no command prints it",
    "hopfmodules.induced_monad_on_comodule":
        "the paper's induced monad at a comodule; no command prints it",
    "instances.BUILTINS":
        "the documented library API: the five built-in instances",
    "instances.save_module":
        "the documented library API: the module codec's writer, which "
        "keeps the module file layout inside instances",
}


def _dunder(name):
    return name.startswith("__") and name.endswith("__")


def _reached(sources, roots):
    """(every unit, the units reached from roots) of a package.

    sources maps module names to their text.  A unit is "mod.name" for a
    top-level function, class or assigned name, and "mod.Class.name" for a
    method or property; a root "mod.prefix*" names every unit it prefixes.
    A bare name reaches the unit it is bound to in its module, through
    relative imports; an attribute of a module reaches that module's unit,
    and any other attribute reaches every method of its name.  A class
    brings its bases, decorators, class-level statements and dunder
    methods, which Python calls without naming them.
    """
    units, binds, methods = {}, {}, {}
    for mod, text in sources.items():
        tree = ast.parse(text)
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.level:
                for alias in node.names:
                    target = (f"{node.module}.{alias.name}" if node.module
                              else alias.name)
                    binds[f"{mod}.{alias.asname or alias.name}"] = target
        for stmt in tree.body:
            if isinstance(stmt, FUNCTIONS):
                units[f"{mod}.{stmt.name}"] = (mod, [stmt])
            elif isinstance(stmt, ast.ClassDef):
                units[f"{mod}.{stmt.name}"] = (mod, [
                    *stmt.bases, *stmt.decorator_list,
                    *(n for n in stmt.body if not isinstance(n, FUNCTIONS)
                      or _dunder(n.name))])
                for node in stmt.body:
                    if isinstance(node, FUNCTIONS) and not _dunder(node.name):
                        key = f"{mod}.{stmt.name}.{node.name}"
                        units[key] = (mod, [node])
                        methods.setdefault(node.name, []).append(key)
            elif isinstance(stmt, (ast.Assign, ast.AnnAssign)):
                targets = (stmt.targets if isinstance(stmt, ast.Assign)
                           else [stmt.target])
                for target in targets:
                    if isinstance(target, ast.Name) and stmt.value:
                        units[f"{mod}.{target.id}"] = (mod, [stmt.value])

    def resolve(key):
        while key in binds:
            key = binds[key]
        return key

    todo = [key for root in roots for key in units
            if key == root or (root.endswith("*")
                               and key.startswith(root[:-1])
                               and key.count(".") == 1)]
    reached = set(todo)
    while todo:
        mod, nodes = units[todo.pop()]
        for node in (n for top in nodes for n in ast.walk(top)):
            found = []
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                found.append(resolve(f"{mod}.{node.id}"))
            elif isinstance(node, ast.Attribute):
                owner = node.value
                module = (resolve(f"{mod}.{owner.id}")
                          if isinstance(owner, ast.Name) else None)
                if module in sources:
                    found.append(resolve(f"{module}.{node.attr}"))
                else:
                    found.extend(methods.get(node.attr, ()))
            for key in found:
                if key in units and key not in reached:
                    reached.add(key)
                    todo.append(key)
    return units, reached


def _unreached(sources, roots):
    """Every function and non-dunder method that no root reaches."""
    units, reached = _reached(sources, roots)
    return sorted(key for key, (_, nodes) in units.items()
                  if isinstance(nodes[0], FUNCTIONS) and key not in reached)


def test_the_reachability_checker_follows_names_attributes_and_dispatch():
    sources = {
        "cli": ("from . import lib\n"
                "from .lib import Box as Crate\n"
                "def main(argv):\n"
                "    return globals()['cmd_' + argv[0]](argv)\n"
                "def cmd_run(argv):\n"
                "    unused = Crate().used()\n"
                "    return lib.helper(unused)\n"),
        "lib": ("class Box:\n"
                "    def __repr__(self):\n"
                "        return seen()\n"
                "    def used(self):\n"
                "        return 1\n"
                "    def unused(self):\n"
                "        return 0\n"
                "def helper(x):\n"
                "    return x\n"
                "def seen():\n"
                "    return 2\n"
                "def orphan():\n"
                "    return Box().unused()\n"
                "def api():\n"
                "    return orphan\n"),
    }
    roots = ("cli.main", "cli.cmd_*")
    assert _unreached(sources, roots) == [
        "lib.Box.unused", "lib.api", "lib.orphan"]
    assert _unreached(sources, roots + ("lib.api",)) == []


def test_every_function_in_src_is_reached():
    sources = {path.stem: path.read_text(encoding="utf-8")
               for path in sorted(SRC.glob("*.py"))}
    cli_roots = ("cli.main", "cli.cmd_*")
    units, from_cli = _reached(sources, cli_roots)
    # each entry point names a unit that the command line does not reach
    assert {name: name in units and name not in from_cli
            for name in ENTRY_POINTS} == dict.fromkeys(ENTRY_POINTS, True)
    assert _unreached(sources, cli_roots + tuple(ENTRY_POINTS)) == []


def _minimum_python():
    """The (major, minor) that pyproject.toml's requires-python declares."""
    found = re.search(r'requires-python = ">=(\d+)\.(\d+)"',
                      PYPROJECT.read_text(encoding="utf-8"))
    return int(found[1]), int(found[2])


def test_the_version_check_refuses_syntax_newer_than_it_allows():
    newer = "try:\n    pass\nexcept* ValueError:\n    pass\n"
    with pytest.raises(SyntaxError):
        ast.parse(newer, feature_version=(3, 10))


def test_every_source_file_parses_at_the_declared_minimum_python():
    version = _minimum_python()
    for path in sorted(SRC.glob("*.py")):
        ast.parse(path.read_text(encoding="utf-8"), filename=str(path),
                  feature_version=version)
