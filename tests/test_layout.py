"""The library's layering, read off its source with ``ast``.

Splittings, kernels, cokernels and sections are computed on matrices in
``exactmat`` and turned into maps between tensor powers once, in
``tensorexpr`` (``split``, ``equaliser``, ``coequaliser``,
``factor_through``); every other module goes through those four.  And no
module imports a private name from a sibling.
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
