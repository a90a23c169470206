"""Built-in instance generators and the persistent instance file format.

Instance files are JSON documents with sparse structure-constant tables and
rational literals like "3/4"; zero entries are omitted and duplicate index
tuples are a hard error.  See the README for the full schema.

Generators; all but dual_instance build their document and read it by from_doc:
  * category_algebra -- basis = arrows of a finite category (composite-or-zero
    product, group-like coproduct); groupoid_algebra, monoid_algebra and
    group_algebra give it a groupoid or a Cayley table
  * super_line -- exterior algebra on one odd generator with the graded flip
  * dual_instance -- transpose all structure maps, swapping (m, e), (delta, eps)
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import prod
from pathlib import Path

from .bimonad import WeakBraidedBimonad
from .errors import (
    IndexOutOfRange,
    InvalidSpec,
    NoUnit,
    NotAssociative,
    SchemaError,
)
from .exactmat import Mat
from .tensorexpr import (
    TensorMap,
    flip_map,
    graded_flip_map,
    identity_map,
    transpose,
)


@dataclass(frozen=True)
class GroupoidSpec:
    objects: int
    arrows: tuple = ()  # generating (source, target) pairs; inverses are formal

    def components(self):
        parent = list(range(self.objects))

        def find(x):
            while parent[x] != x:
                parent[x] = parent[parent[x]]
                x = parent[x]
            return x

        for s, t in self.arrows:
            if not (0 <= s < self.objects and 0 <= t < self.objects):
                raise InvalidSpec(f"arrow ({s}, {t}) out of range")
            parent[find(s)] = find(t)
        return [find(x) for x in range(self.objects)]

    def dim(self):
        """Number of arrows, without listing them."""
        sizes = {}
        for root in self.components():
            sizes[root] = sizes.get(root, 0) + 1
        return sum(k * k for k in sizes.values())

    def arrow_basis(self):
        """All composable arrows: ordered object pairs in a common component."""
        comp = self.components()
        return [(u, v) for u in range(self.objects) for v in range(self.objects)
                if comp[u] == comp[v]]


def full_groupoid(objects: int) -> GroupoidSpec:
    return GroupoidSpec(objects, tuple((0, t) for t in range(1, objects)))


def discrete_groupoid(objects: int) -> GroupoidSpec:
    return GroupoidSpec(objects, ())


def category_algebra(n, compose, units, name) -> WeakBraidedBimonad:
    """The algebra of a finite category on its n arrows, built by from_doc.

    ``compose(i, j)`` is the composite arrow of i then j, or None; the unit
    is the sum of the identity arrows ``units``.  Every arrow is group-like
    and tau is the flip."""
    return from_doc({
        "name": name, "dim": n, "tau": "flip",
        "m": [[i, j, k, 1] for i in range(n) for j in range(n)
              if (k := compose(i, j)) is not None],
        "e": [[u, 1] for u in units],
        "delta": [[i, i, i, 1] for i in range(n)],
        "eps": [[i, 1] for i in range(n)],
    })


def groupoid_algebra(spec: GroupoidSpec, name: str = "") -> WeakBraidedBimonad:
    """Arrows as basis, composition-or-zero product, group-like coproduct."""
    basis = spec.arrow_basis()
    if not basis:
        raise InvalidSpec("groupoid has no arrows")
    index = {arrow: k for k, arrow in enumerate(basis)}
    return category_algebra(
        len(basis), lambda i, j: index[(basis[i][0], basis[j][1])]
        if basis[i][1] == basis[j][0] else None,
        [index[(u, u)] for u in range(spec.objects)],
        name or f"groupoid({spec.objects},{len(spec.arrows)} arrows)")


def groupoid_antipode(spec: GroupoidSpec) -> TensorMap:
    """The known antipode: each arrow to its inverse."""
    basis = spec.arrow_basis()
    index = {arrow: k for k, arrow in enumerate(basis)}
    rows = [[i, index[(v, u)], 1] for i, (u, v) in enumerate(basis)]
    return _read_map({"S": rows}, "S", (len(basis),), (len(basis),))


def _check_table(table):
    n = len(table)
    for row in table:
        if len(row) != n or any(not (0 <= v < n) for v in row):
            raise InvalidSpec("Cayley table is not square over its index set")
    unit = None
    for u in range(n):
        if all(table[u][j] == j and table[j][u] == j for j in range(n)):
            unit = u
            break
    if unit is None:
        raise NoUnit("table has no two-sided unit")
    for a in range(n):
        for b in range(n):
            for c in range(n):
                if table[table[a][b]][c] != table[a][table[b][c]]:
                    raise NotAssociative(f"({a}*{b})*{c} != {a}*({b}*{c})")
    return unit


def monoid_algebra(table, name: str = "") -> WeakBraidedBimonad:
    """Ordinary bialgebra on a monoid: group-like coproduct, flip braiding."""
    unit = _check_table(table)
    n = len(table)
    return category_algebra(n, lambda i, j: table[i][j], [unit],
                            name or f"monoid({n})")


def group_algebra(table, name: str = "") -> WeakBraidedBimonad:
    """monoid_algebra plus a check that every element is invertible."""
    unit = _check_table(table)
    n = len(table)
    for a in range(n):
        if not any(table[a][b] == unit and table[b][a] == unit for b in range(n)):
            raise InvalidSpec(f"element {a} has no inverse")
    return monoid_algebra(table, name=name or f"group({n})")


def cyclic_group_table(n: int):
    return [[(i + j) % n for j in range(n)] for i in range(n)]


def super_line() -> WeakBraidedBimonad:
    """Exterior algebra on one odd generator x with the graded flip."""
    return from_doc({
        "name": "SL", "dim": 2, "tau": "flip", "grading": [0, 1],
        "m": [[0, 0, 0, 1], [0, 1, 1, 1], [1, 0, 1, 1]], "e": [[0, 1]],
        "delta": [[0, 0, 0, 1], [1, 1, 0, 1], [1, 0, 1, 1]], "eps": [[0, 1]],
    })


def dual_instance(bim: WeakBraidedBimonad) -> WeakBraidedBimonad:
    """Transpose all structure maps, swapping (m, e) with (delta, eps).

    A tau_prime that is tau itself stays tau itself in the dual."""
    tau = transpose(bim.tau)
    return WeakBraidedBimonad(
        transpose(bim.delta), transpose(bim.eps),
        transpose(bim.m), transpose(bim.e),
        tau, tau if bim.tau_prime is bim.tau else transpose(bim.tau_prime),
        name=f"dual({bim.name})" if bim.name else "dual",
    )


# built-in instances used throughout the test and acceptance suites
def g2() -> WeakBraidedBimonad:
    return groupoid_algebra(full_groupoid(2), name="G2")


def k2() -> WeakBraidedBimonad:
    return groupoid_algebra(discrete_groupoid(2), name="K2")


def z2() -> WeakBraidedBimonad:
    return group_algebra(cyclic_group_table(2), name="Z2")


def sl() -> WeakBraidedBimonad:
    return super_line()


def nz() -> WeakBraidedBimonad:
    return monoid_algebra([[0, 1], [1, 1]], name="NZ")


BUILTINS = {"g2": g2, "k2": k2, "z2": z2, "sl": sl, "nz": nz}


# ---------------------------------------------------------------------------
# file format
# ---------------------------------------------------------------------------

_EXPECTED_KEYS = {"base_dim", "tensor_dim", "gamma_rank"}


_RATIONAL = re.compile(r"-?[0-9]+(?:/[0-9]+)?")


@lru_cache(maxsize=4096)
def _rational(value):
    # instance files repeat a few literals; a Fraction is immutable, so one
    # parsed value can be shared by every entry that spells it
    if value.__class__ is str and not _RATIONAL.fullmatch(value):
        # Fraction would also take "1e999999", an integer of 3.3 M bits
        raise ValueError("not of the form -?d+ or -?d+/d+")
    q = Fraction(value)
    return q.numerator if q.denominator == 1 else q


def _parse_rat(value, key, pos):
    if value.__class__ is not str and value.__class__ is not int:
        raise SchemaError("rational literals must be strings like \"p/q\" or ints",
                          f"{key}[{pos}]")
    try:
        return _rational(value)
    except (ValueError, ZeroDivisionError) as exc:
        raise SchemaError(f"bad rational literal {value!r}: {exc}",
                          f"{key}[{pos}]") from None


def _read_map(doc, key, dom, cod, cod_first=False) -> TensorMap:
    """The map dom -> cod tabled in doc[key].

    A row lists the domain indices, then the codomain indices (the codomain
    first with ``cod_first``), leftmost factor most significant, then a
    rational coefficient.  Each row is checked and placed straight into the
    row maps of the matrix.
    """
    if key not in doc:
        raise SchemaError(f"missing field {key!r}", key)
    table = doc[key]
    if not isinstance(table, list):
        raise SchemaError(f"field {key!r} must be a list of entries", key)
    dims = cod + dom if cod_first else dom + cod
    # tail: the size of the factors listed last
    width, tail = len(dims) + 1, prod(dom if cod_first else cod)
    rows = prod(cod)
    maps = [{} for _ in range(rows)]
    for pos, item in enumerate(table):
        if not isinstance(item, list) or len(item) != width:
            raise SchemaError(
                f"entry must be a list of {width - 1} indices and a coefficient",
                f"{key}[{pos}]")
        flat = 0
        for i, d in zip(item, dims):
            # JSON indices are exact ints; this also rejects true/false
            if i.__class__ is not int or not 0 <= i < d:
                raise IndexOutOfRange(
                    f"index {i!r} out of range for dimension {d}", f"{key}[{pos}]")
            flat = flat * d + i
        if cod_first:
            row, col = divmod(flat, tail)
        else:
            col, row = divmod(flat, tail)
        row_map = maps[row]
        if col in row_map:
            raise SchemaError(f"duplicate index tuple {tuple(item[:-1])}",
                              f"{key}[{pos}]")
        row_map[col] = _parse_rat(item[-1], key, pos)
    return TensorMap(dom, cod, Mat.from_rowmaps(rows, prod(dom), maps))


def write_map(f: TensorMap, cod_first=False):
    """The sorted table rows of f, in the layout _read_map reads."""
    dims = f.cod + f.dom if cod_first else f.dom + f.cod
    tail = prod(f.dom if cod_first else f.cod)
    rows = []
    for k, v in sorted((row * tail + col if cod_first else col * tail + row, v)
                       for row, col, v in f.mat.items()):
        idx = [str(v)]
        for d in reversed(dims):
            k, i = divmod(k, d)
            idx.append(i)
        rows.append(idx[::-1])
    return rows


def _detect_graded_flip(tau: TensorMap, n):
    """The 0/1 grading reproducing tau as a graded flip, or None."""
    signs = {}
    for row, col, v in tau.mat.items():
        i, j = divmod(col, n)
        if row != j * n + i or v not in (1, -1):
            return None
        signs[(i, j)] = v
    if len(signs) != n * n:
        return None
    grading = tuple(1 if signs[(i, i)] == -1 else 0 for i in range(n))
    for i in range(n):
        for j in range(n):
            want = -1 if grading[i] and grading[j] else 1
            if signs[(i, j)] != want:
                return None
    return grading


def save(bim: WeakBraidedBimonad, path, expected=None):
    """Write the canonical JSON encoding; returns the text that was written."""
    text = to_json_text(bim, expected=expected)
    Path(path).write_text(text, encoding="utf-8")
    return text


def to_json_text(bim: WeakBraidedBimonad, expected=None) -> str:
    n = bim.n
    doc = {"name": bim.name or "instance", "dim": n,
           "m": write_map(bim.m), "e": write_map(bim.e),
           "delta": write_map(bim.delta), "eps": write_map(bim.eps)}
    grading = _detect_graded_flip(bim.tau, n)
    if grading is None:
        doc["tau"] = write_map(bim.tau)
    else:
        doc["tau"] = "flip"
        if any(grading):
            doc["grading"] = list(grading)
    # with tau_prime = tau, nabla is tau . tau: the identity when tau is a
    # graded flip
    if bim.tau_prime != bim.tau or (
            grading is None and bim.nabla != identity_map((n, n))):
        doc["tau_prime"] = write_map(bim.tau_prime)
    exp = expected if expected is not None else bim.expected
    if exp:
        doc["expected"] = _checked_expected(exp)
    return json_text(doc)


def json_text(doc) -> str:
    """The canonical text of a JSON document: sorted keys, two-space indent."""
    return json.dumps(doc, sort_keys=True, indent=2) + "\n"


def _checked_expected(exp) -> dict:
    """The ``expected`` block as a dict of ints in key order."""
    if not isinstance(exp, dict):
        raise SchemaError("expected must be an object", "expected")
    unknown = set(exp) - _EXPECTED_KEYS
    if unknown:
        raise SchemaError(f"unknown expected keys {sorted(unknown)}", "expected")
    for k, v in exp.items():
        if not isinstance(v, int) or isinstance(v, bool):
            raise SchemaError(f"expected.{k} must be an integer", "expected")
    return dict(sorted(exp.items()))


def check_max_dim(n: int, max_dim) -> None:
    """Refuse a carrier dimension above the --max-dim guard (None: no guard)."""
    if max_dim is not None and n > max_dim:
        raise SchemaError(
            f"dim {n} exceeds --max-dim {max_dim}; raise the guard "
            "explicitly for large instances", "dim")


def _read_json(path):
    try:
        return json.loads(Path(path).read_text(encoding="utf-8"))
    except RecursionError:
        raise SchemaError("not valid JSON: nested too deeply",
                          str(path)) from None
    except ValueError as exc:
        # also an int literal over Python's digit limit, or bytes not UTF-8
        raise SchemaError(f"not valid JSON: {exc}", str(path)) from None


def load(path, max_dim=None) -> WeakBraidedBimonad:
    """Load and validate an instance file; exact round trip with save.

    A declared dim above ``max_dim`` is refused before any map is built.
    """
    return from_doc(_read_json(path), max_dim=max_dim)


def from_doc(doc, max_dim=None) -> WeakBraidedBimonad:
    if not isinstance(doc, dict):
        raise SchemaError("instance document must be a JSON object", "root")
    name = doc.get("name", "")
    if not isinstance(name, str):
        raise SchemaError("name must be a string", "name")
    n = doc.get("dim")
    if not isinstance(n, int) or isinstance(n, bool) or n <= 0:
        raise SchemaError("dim must be a positive integer", "dim")
    check_max_dim(n, max_dim)

    h1, h2 = (n,), (n, n)
    m_map = _read_map(doc, "m", h2, h1)
    e_map = _read_map(doc, "e", (), h1)
    delta_map = _read_map(doc, "delta", h1, h2)
    eps_map = _read_map(doc, "eps", h1, ())

    grading = doc.get("grading")
    if grading is not None:
        if (not isinstance(grading, list) or len(grading) != n
                or any(g.__class__ is not int or g not in (0, 1)
                       for g in grading)):
            raise SchemaError("grading must be a 0/1 list of length dim", "grading")
    tau_field = doc.get("tau")
    if tau_field is None:
        raise SchemaError("missing field 'tau'", "tau")
    if tau_field == "flip":
        tau_map = graded_flip_map(tuple(grading)) if grading else flip_map(n)
    else:
        if grading is not None:
            raise SchemaError("grading is only meaningful with tau = \"flip\"",
                              "grading")
        tau_map = _read_map(doc, "tau", h2, h2)
    # a graded flip is an involution by construction: its own tau_prime
    tau_prime_map = (_read_map(doc, "tau_prime", h2, h2) if "tau_prime" in doc
                     else tau_map if tau_field == "flip" else None)

    expected = doc.get("expected")
    if expected is not None:
        expected = _checked_expected(expected) or None

    return WeakBraidedBimonad(
        m_map, e_map, delta_map, eps_map, tau_map, tau_prime_map,
        name=name, expected=expected)


def load_module(path, bim: WeakBraidedBimonad, max_dim=None):
    """Load a companion module file: carrier dim plus sparse h and theta tables.

    A carrier above ``max_dim`` times the instance dim, the carrier of
    K_omega(max_dim), is refused before any entry is read.
    """
    from .hopfmodules import MixedBimodule

    doc = _read_json(path)
    if not isinstance(doc, dict):
        raise SchemaError("module document must be a JSON object", "root")
    d = doc.get("dim")
    if not isinstance(d, int) or isinstance(d, bool) or d < 0:
        raise SchemaError("dim must be a nonnegative integer", "dim")
    n = bim.n
    if max_dim is not None and d > max_dim * n:
        raise SchemaError(
            f"module dim {d} exceeds --max-dim {max_dim} times the instance "
            f"dim {n}; raise the guard explicitly for large modules", "dim")
    name = doc.get("name", "")
    if not isinstance(name, str):
        raise SchemaError("name must be a string", "name")
    h = _read_map(doc, "h", (n, d), (d,))
    theta = _read_map(doc, "theta", (d,), (n, d), cod_first=True)
    return MixedBimodule(dim=d, h=h, theta=theta, name=name)


def save_module(mod, path) -> str:
    text = json_text({"name": mod.name or "module", "dim": mod.dim,
                      "h": write_map(mod.h),
                      "theta": write_map(mod.theta, cod_first=True)})
    Path(path).write_text(text, encoding="utf-8")
    return text
