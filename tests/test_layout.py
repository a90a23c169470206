"""The library's layering, read off its source with ``ast``.

Splittings, kernels, cokernels and sections are computed on matrices in
``exactmat`` and turned into maps between tensor powers once, in
``tensorexpr`` (``split``, ``equaliser``, ``coequaliser``,
``factor_through``); every other module goes through those four.  No
module imports a private name from a sibling, and every function reads
each of its parameters.
"""

import ast
from pathlib import Path

import weakhopf

SRC = Path(weakhopf.__file__).parent
LOW_LEVEL = {"exactmat", "tensorexpr"}
MATRIX_CONSTRUCTIONS = {"split_idempotent", "kernel_basis",
                        "cokernel_projection", "section", "Splitting"}


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
                         or alias.name in MATRIX_CONSTRUCTIONS - {"Splitting"})
    return found


def test_the_checker_sees_each_kind_of_violation():
    source = ("from .galois import _factor_through_surjection\n"
              "from .exactmat import kernel_basis, rank\n"
              "basis = kernel_basis(m)\n"
              "sec = exactmat.section(proj)\n"
              "s = Splitting(p=p, i=i, rank=r)\n"
              "from . import exactmat\n"
              "r = exactmat.rank(m)\n")
    assert sorted(_violations(source)) == [
        (1, "import _factor_through_surjection"), (2, "import kernel_basis"),
        (3, "kernel_basis"), (4, "section"), (5, "Splitting")]


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
