"""Arity-tagged linear maps between tensor powers and a small expression language.

A :class:`TensorMap` is a matrix together with the factor dimensions of its
domain and codomain, e.g. ``m`` on a carrier of dimension n has ``dom (n, n)``
and ``cod (n,)``.  Basis vectors of a tensor product are ordered
lexicographically with the leftmost factor most significant; every module in
the library inherits this convention.

``compose`` takes maps in diagram order: the first list element is applied
first.  The expression grammar's ``∘`` is mathematical composition (rightmost
factor applied first); ``⊗`` is the parallel product.  ASCII aliases ``o`` and
``x`` are accepted, which reserves those two single-letter names.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from math import prod

from . import exactmat
from .errors import ArityMismatch, DimensionMismatch, ExprSyntaxError
from .exactmat import Mat


@dataclass(frozen=True)
class TensorMap:
    """Linear map prod(dom) -> prod(cod) tagged with its tensor factorization."""

    dom: tuple
    cod: tuple
    mat: Mat

    def __post_init__(self):
        if self.mat.cols != prod(self.dom) or self.mat.rows != prod(self.cod):
            raise DimensionMismatch(
                f"matrix {self.mat.rows}x{self.mat.cols} does not match "
                f"dom {self.dom} cod {self.cod}"
            )

    def base_dim(self):
        """Common factor dimension for maps between powers of one carrier."""
        dims = set(self.dom) | set(self.cod)
        if len(dims) > 1:
            raise ArityMismatch(f"mixed factor dimensions {sorted(dims)}")
        return dims.pop() if dims else None

    @property
    def in_arity(self):
        return len(self.dom)

    @property
    def out_arity(self):
        return len(self.cod)

    def __repr__(self):
        return f"TensorMap({self.dom}->{self.cod})"


def identity_map(dims) -> TensorMap:
    dims = tuple(dims)
    return TensorMap(dims, dims, Mat.identity(prod(dims)))


def hmap(n, in_arity, out_arity, mat) -> TensorMap:
    """Map H^in_arity -> H^out_arity over an n-dimensional carrier."""
    return TensorMap((n,) * in_arity, (n,) * out_arity, mat)


def from_table(n, in_arity, out_arity, entries) -> TensorMap:
    """Build an H-power map from sparse structure constants.

    ``entries`` maps (in multi-index..., out multi-index...) written as a flat
    tuple of ``in_arity`` domain indices followed by ``out_arity`` codomain
    indices to a coefficient.
    """
    rows, cols = n ** out_arity, n ** in_arity
    grid = {}
    for key, value in entries.items():
        src = key[:in_arity]
        dst = key[in_arity:]
        col = 0
        for i in src:
            col = col * n + i
        row = 0
        for i in dst:
            row = row * n + i
        if (row, col) in grid:
            grid[(row, col)] += value
        else:
            grid[(row, col)] = value
    return hmap(n, in_arity, out_arity, Mat.from_entries(rows, cols, grid))


def tensor(*maps: TensorMap) -> TensorMap:
    """Parallel product; factor dimensions concatenate left to right."""
    if not maps:
        raise ArityMismatch("tensor of no maps")
    out = maps[0]
    for f in maps[1:]:
        out = TensorMap(out.dom + f.dom, out.cod + f.cod,
                        exactmat.kron(out.mat, f.mat))
    return out


def compose(chain) -> TensorMap:
    """Serial composite in diagram order: chain[0] is applied first."""
    chain = list(chain)
    if not chain:
        raise ArityMismatch("compose of empty chain")
    out = chain[0]
    for k, f in enumerate(chain[1:], start=1):
        if f.dom != out.cod:
            raise ArityMismatch(
                f"compose: step {k - 1} has cod {out.cod} but step {k} "
                f"has dom {f.dom}"
            )
        out = TensorMap(out.dom, f.cod, exactmat.mul(f.mat, out.mat))
    return out


def lift(f: TensorMap, left: int, right: int) -> TensorMap:
    """Whisker with identities: id^left (x) f (x) id^right.

    Built from the nonzeros of f, never through a Kronecker product with an
    identity matrix.
    """
    if left == 0 and right == 0:
        return f
    n = f.base_dim()
    if n is None:
        raise ArityMismatch("cannot infer carrier dimension for a scalar map")
    ids_l, ids_r = (n,) * left, (n,) * right
    return TensorMap(ids_l + f.dom + ids_r, ids_l + f.cod + ids_r,
                     exactmat.whisker(f.mat, n ** left, n ** right))


def flip_map(n) -> TensorMap:
    """The twist v (x) w -> w (x) v on H (x) H."""
    return graded_flip_map((0,) * n)


def graded_flip_map(grading) -> TensorMap:
    """Twist with Koszul sign (-1)^(|i||j|) for a 0/1 grading vector."""
    n = len(grading)
    # the twist sends b_i (x) b_j, column i*n + j, to b_j (x) b_i, row j*n + i
    entries = {(j * n + i, i * n + j): -1 if grading[i] and grading[j] else 1
               for i in range(n) for j in range(n)}
    return hmap(n, 2, 2, Mat.from_entries(n * n, n * n, entries))


def convolution(f: TensorMap, g: TensorMap, m: TensorMap, delta: TensorMap) -> TensorMap:
    """Convolution product f * g = m . (f (x) g) . delta on endomaps of H."""
    if f.dom != f.cod or g.dom != g.cod or f.dom != g.dom:
        raise ArityMismatch("convolution needs two endomaps of the same carrier")
    return compose([delta, tensor(f, g), m])


def maps_equal(f: TensorMap, g: TensorMap) -> bool:
    if f.dom != g.dom or f.cod != g.cod:
        return False
    return (f.mat - g.mat).is_zero_mat()


# ---------------------------------------------------------------------------
# expression language:  NAME | 'id' '^' INT | e '∘' e | e '⊗' e | '(' e ')'
# '⊗' binds tighter than '∘'.
# ---------------------------------------------------------------------------

class MapExpr:
    """Parse-tree node; evaluates to an arity-checked TensorMap."""

    def eval(self, env, base_dim):
        raise NotImplementedError


@dataclass(frozen=True)
class GenExpr(MapExpr):
    name: str
    pos: int

    def eval(self, env, base_dim):
        try:
            return env[self.name]
        except KeyError:
            raise ExprSyntaxError(f"unknown name {self.name!r}", self.pos) from None


@dataclass(frozen=True)
class IdExpr(MapExpr):
    arity: int
    pos: int

    def eval(self, env, base_dim):
        if base_dim is None:
            raise ExprSyntaxError("cannot size 'id' without a known carrier", self.pos)
        return identity_map((base_dim,) * self.arity)


@dataclass(frozen=True)
class CompExpr(MapExpr):
    # mathematical order: left after right
    left: MapExpr
    right: MapExpr

    def eval(self, env, base_dim):
        return compose([self.right.eval(env, base_dim), self.left.eval(env, base_dim)])


@dataclass(frozen=True)
class TensExpr(MapExpr):
    left: MapExpr
    right: MapExpr

    def eval(self, env, base_dim):
        return tensor(self.left.eval(env, base_dim), self.right.eval(env, base_dim))


_TOKEN = re.compile(r"\s*(?:(?P<name>[A-Za-z_][A-Za-z0-9_]*)|(?P<int>\d+)"
                    r"|(?P<op>[∘⊗^()]))")


def _tokenize(text):
    tokens = []
    pos = 0
    while pos < len(text):
        m = _TOKEN.match(text, pos)
        if m is None:
            stripped = text[pos:].lstrip()
            if not stripped:
                break
            raise ExprSyntaxError(f"unexpected character {stripped[0]!r}",
                                  len(text) - len(stripped))
        if m.group("name") is not None:
            word = m.group("name")
            at = m.start("name")
            if word == "o":
                tokens.append(("compose", "o", at))
            elif word == "x":
                tokens.append(("tensor", "x", at))
            elif word == "id":
                tokens.append(("id", word, at))
            else:
                tokens.append(("name", word, at))
        elif m.group("int") is not None:
            tokens.append(("int", int(m.group("int")), m.start("int")))
        else:
            op = m.group("op")
            at = m.start("op")
            kind = {"∘": "compose", "⊗": "tensor", "^": "caret",
                    "(": "lparen", ")": "rparen"}[op]
            tokens.append((kind, op, at))
        pos = m.end()
    tokens.append(("end", None, len(text)))
    return tokens


class _Parser:
    def __init__(self, tokens):
        self.tokens = tokens
        self.k = 0

    def peek(self):
        return self.tokens[self.k]

    def take(self, kind):
        tok = self.tokens[self.k]
        if tok[0] != kind:
            raise ExprSyntaxError(f"expected {kind}, found {tok[1]!r}", tok[2])
        self.k += 1
        return tok

    def expr(self):
        node = self.term()
        while self.peek()[0] == "compose":
            self.take("compose")
            node = CompExpr(node, self.term())
        return node

    def term(self):
        node = self.factor()
        while self.peek()[0] == "tensor":
            self.take("tensor")
            node = TensExpr(node, self.factor())
        return node

    def factor(self):
        kind, value, pos = self.peek()
        if kind == "lparen":
            self.take("lparen")
            node = self.expr()
            self.take("rparen")
            return node
        if kind == "id":
            self.take("id")
            self.take("caret")
            _, arity, _ = self.take("int")
            return IdExpr(arity, pos)
        if kind == "name":
            self.take("name")
            return GenExpr(value, pos)
        raise ExprSyntaxError(f"unexpected token {value!r}", pos)


def parse_expr(text: str, env, base_dim=None) -> TensorMap:
    """Parse and evaluate an expression to an arity-checked TensorMap."""
    parser = _Parser(_tokenize(text))
    node = parser.expr()
    parser.take("end")
    if base_dim is None:
        for f in env.values():
            base_dim = f.base_dim()
            if base_dim is not None:
                break
    return node.eval(env, base_dim)
