"""Arity-tagged linear maps between tensor powers and a small expression language.

A :class:`TensorMap` is a matrix together with the factor dimensions of its
domain and codomain, e.g. ``m`` on a carrier of dimension n has ``dom (n, n)``
and ``cod (n,)``.  Basis vectors of a tensor product are ordered
lexicographically with the leftmost factor most significant; every module in
the library inherits this convention.

``compose`` takes maps in diagram order: the first list element is applied
first.  A chain with one factor that has steps is that factor; any other is
one running product from the smaller end, unless it has more than two steps
and its widest middle space exceeds both ends and len(steps) - 1 times the
rows and columns of its factors: then ``exactmat.contract`` joins the
factors, as a tensor network whose legs are tensor factors, pairwise over
their nonzeros in a greedy order, so that middle space is never materialised.

The expression grammar's ``∘`` is mathematical composition (rightmost
factor applied first); ``⊗`` is the parallel product.  ASCII aliases ``o`` and
``x`` are accepted, which reserves those two single-letter names.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from math import prod

from . import exactmat
from .errors import (ArityMismatch, DimensionMismatch, ExprSyntaxError,
                     FactorizationFailed)
from .exactmat import Mat


@dataclass(frozen=True)
class TensorMap:
    """Linear map prod(dom) -> prod(cod) tagged with its tensor factorization.

    The map is held as ``steps``: whiskered factors
    ``(g, left, right, at, gdom, gcod)`` in diagram order.  Each acts as
    ``I_left (x) g (x) I_right``: g takes the tensor factors ``at`` to
    ``at + len(gdom)`` of the space it meets, whose dims are ``gdom``, and
    puts factors of dims ``gcod`` in their place.  The steps are fixed when
    the map is made.  A map built from a matrix is the one step
    ``(mat, 1, 1, 0, dom, cod)``; ``lift`` and ``tensor`` only rearrange
    steps, and an identity has none.  ``mat`` is the product of the steps,
    built on first read and kept.  Threads that read it at once may each
    build it; they build equal matrices.  ``==`` compares ``dom``, ``cod``
    and ``mat``.
    """

    dom: tuple
    cod: tuple
    mat: Mat
    steps: tuple = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.mat.cols != prod(self.dom) or self.mat.rows != prod(self.cod):
            raise DimensionMismatch(
                f"matrix {self.mat.rows}x{self.mat.cols} does not match "
                f"dom {self.dom} cod {self.cod}"
            )
        self.__dict__["steps"] = ((self.mat, 1, 1, 0, self.dom, self.cod),)

    def __getattr__(self, name):
        # reached only while ``mat`` is not built: maps made by _chain
        if name != "mat":
            raise AttributeError(name)
        return _build(self)

    def base_dim(self):
        """Common factor dimension for maps between powers of one carrier."""
        dims = set(self.dom) | set(self.cod)
        if len(dims) > 1:
            raise ArityMismatch(f"mixed factor dimensions {sorted(dims)}")
        return dims.pop() if dims else None

    def __repr__(self):
        return f"TensorMap({self.dom}->{self.cod})"


def _chain(dom, cod, steps) -> TensorMap:
    """The map dom -> cod made of the given steps; its matrix is not built."""
    f = object.__new__(TensorMap)
    d = f.__dict__
    d["dom"], d["cod"], d["steps"] = dom, cod, steps
    return f


def _build(f: TensorMap) -> Mat:
    """Build f's matrix from its steps and keep it."""
    mat = (_product(f.dom, f.cod, f.steps) if f.steps
           else Mat.identity(prod(f.dom)))
    f.__dict__["mat"] = mat
    return mat


def identity_map(dims) -> TensorMap:
    dims = tuple(dims)
    return _chain(dims, dims, ())


def hmap(n, in_arity, out_arity, mat) -> TensorMap:
    """Map H^in_arity -> H^out_arity over an n-dimensional carrier."""
    return TensorMap((n,) * in_arity, (n,) * out_arity, mat)


def _pad(steps, left, right, at):
    """The steps run beside an identity of size left on the at factors to
    their left and one of size right on the factors to their right."""
    if left == right == 1 and not at:
        return steps
    return tuple([(g, a * left, b * right, k + at, gdom, gcod)
                  for g, a, b, k, gdom, gcod in steps])


def tensor(*maps: TensorMap) -> TensorMap:
    """Parallel product; factor dimensions concatenate left to right.

    f (x) g runs f's steps beside the domain of g and then g's beside the
    codomain of f.
    """
    if not maps:
        raise ArityMismatch("tensor of no maps")
    out = maps[0]
    for f in maps[1:]:
        steps = (_pad(out.steps, 1, prod(f.dom), 0)
                 + _pad(f.steps, prod(out.cod), 1, len(out.cod)))
        out = _chain(out.dom + f.dom, out.cod + f.cod, steps)
    return out


def _product(dom, cod, steps) -> Mat:
    """The matrix dom -> cod of a chain of steps.

    The chain is contracted as a network (:func:`_network`) when it has more
    than two steps and its widest intermediate space is larger than both of
    its ends and than len(steps) - 1 times the rows and columns of all its
    factors: a running product walks every basis vector of that space at
    least once, while each of the len(steps) - 1 joins of the network meets
    at most the factors' indices.  Any other chain is one running product
    (:func:`_running`).
    """
    dom_size, cod_size = prod(dom), prod(cod)
    if len(steps) > 2:
        widest = max([s[1] * s[0].rows * s[2] for s in steps[:-1]])
        joins = len(steps) - 1
        if widest > max(dom_size, cod_size) and widest > joins * sum(
                [s[0].rows + s[0].cols for s in steps]):
            return _network(dom, steps)
    return _running(dom_size, cod_size, steps)


def _running(dom_size, cod_size, steps) -> Mat:
    """The chain applied to one running product that starts at the smaller
    end of the chain, from the whisker of the step there.  With the smaller
    or a one-dimensional codomain it runs from the codomain as
    x * whisker, else from the domain as whisker * x."""
    if cod_size < dom_size or cod_size == 1:
        x = exactmat.whisker(*steps[-1][:3])
        for g, left, right, _, _, _ in reversed(steps[:-1]):
            x = exactmat.mul_whisker(x, g, left, right)
        return x
    x = exactmat.whisker(*steps[0][:3])
    for g, left, right, _, _, _ in steps[1:]:
        x = exactmat.whisker_mul(g, left, right, x)
    return x


def _network(dom, steps) -> Mat:
    """The chain contracted as a tensor network whose legs are tensor
    factors.  The domain's factors are legs 0 to len(dom) - 1, and each step
    takes the legs of its window and gives new ones in their place.  A step
    whose window is exactly the legs that one earlier factor gave is
    multiplied into that factor."""
    dims, legs = list(dom), list(range(len(dom)))
    factors, made = [], {}
    for g, _, _, at, gdom, gcod in steps:
        window = tuple(legs[at:at + len(gdom)])
        new = list(range(len(dims), len(dims) + len(gcod)))
        dims += gcod
        k = made.get(window) if window else None
        if k is None:
            factors.append((g, list(window), new))
            k = len(factors) - 1
        else:
            h, hin, _ = factors[k]
            factors[k] = (exactmat.mul(g, h), hin, new)
        made[tuple(new)] = k
        legs[at:at + len(gdom)] = new
    return exactmat.contract(factors, range(len(dom)), legs, dims)


def compose(chain) -> TensorMap:
    """Serial composite in diagram order: chain[0] is applied first."""
    chain = iter(chain)
    first = prev = only = next(chain, None)
    if first is None:
        raise ArityMismatch("compose of empty chain")
    steps = list(first.steps)
    for k, f in enumerate(chain, 1):
        if f.dom != prev.cod:
            raise ArityMismatch(f"compose: step {k - 1} has cod {prev.cod} "
                                f"but step {k} has dom {f.dom}")
        if f.steps:  # only is the one factor with steps, while there is one
            only = None if steps else f
            steps += f.steps
        prev = f
    if only is not None:
        return only
    dom, cod = first.dom, prev.cod
    mat = _product(dom, cod, steps)
    out = _chain(dom, cod, ((mat, 1, 1, 0, dom, cod),))
    out.__dict__["mat"] = mat
    return out


def transpose(f: TensorMap) -> TensorMap:
    """The transpose cod -> dom: f on the dual spaces in the dual bases.
    It reverses composites and keeps tensor products."""
    return TensorMap(f.cod, f.dom, f.mat.transpose())


# ---------------------------------------------------------------------------
# universal constructions: every splitting, (co)equaliser and factorisation
# of the library is one of these four
# ---------------------------------------------------------------------------

def split(e: TensorMap):
    """The splitting (p, i) of the idempotent e through its image, so that
    compose([p, i]) == e and compose([i, p]) is the identity there; raises
    NotIdempotent when e . e != e."""
    p, i = exactmat.split_idempotent(e.mat)
    image = (p.rows,)
    return TensorMap(e.dom, image, p), TensorMap(image, e.cod, i)


def equaliser(f: TensorMap, g: TensorMap) -> TensorMap:
    """The inclusion of the kernel of f - g into the common domain."""
    basis = exactmat.kernel_basis(f.mat - g.mat)
    return TensorMap((basis.cols,), f.dom, basis)


def coequaliser(f: TensorMap, g: TensorMap) -> TensorMap:
    """The projection of the common codomain onto the cokernel of f - g."""
    proj = exactmat.cokernel_projection(f.mat - g.mat)
    return TensorMap(f.cod, (proj.rows,), proj)


def factor_through(target: TensorMap, proj: TensorMap, what: str,
                   failure: str = "map does not factor through quotient"
                   ) -> TensorMap:
    """Unique g with g . proj = target, computed via the section of proj.

    For proj the cokernel of some relations, g . proj = target holds exactly
    when target vanishes on them; otherwise FactorizationFailed(failure).
    """
    sec = exactmat.section(proj.mat)
    if sec is None:
        raise FactorizationFailed(f"{what}: projection is not surjective")
    g = TensorMap(proj.cod, target.cod, exactmat.mul(target.mat, sec))
    if exactmat.mul(g.mat, proj.mat) != target.mat:
        raise FactorizationFailed(f"{what}: {failure}")
    return g


def lift(f: TensorMap, left: int, right: int) -> TensorMap:
    """Whisker with identities: id^left (x) f (x) id^right.

    Each step of f is whiskered; no matrix is built.
    """
    if left == 0 and right == 0:
        return f
    n = f.base_dim()
    if n is None:
        raise ArityMismatch("cannot infer carrier dimension for a scalar map")
    ids_l, ids_r = (n,) * left, (n,) * right
    return _chain(ids_l + f.dom + ids_r, ids_l + f.cod + ids_r,
                  _pad(f.steps, n ** left, n ** right, left))


def flip_map(n) -> TensorMap:
    """The twist v (x) w -> w (x) v on H (x) H."""
    return graded_flip_map((0,) * n)


def graded_flip_map(grading) -> TensorMap:
    """Twist with Koszul sign (-1)^(|i||j|) for a 0/1 grading vector."""
    n = len(grading)
    # the twist sends b_i (x) b_j, column i*n + j, to b_j (x) b_i, row j*n + i
    maps = [{i * n + j: -1 if grading[i] and grading[j] else 1}
            for j in range(n) for i in range(n)]
    return hmap(n, 2, 2, Mat.from_rowmaps(n * n, n * n, maps))


# ---------------------------------------------------------------------------
# expression language:  NAME | 'id' '^' INT | e '∘' e | e '⊗' e | '(' e ')'
# '⊗' binds tighter than '∘'.
# ---------------------------------------------------------------------------

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


# what take() reads, for the kinds that it does not peek at first
_EXPECTED = {"rparen": "')'", "caret": "'^'", "int": "an integer",
             "end": "end of expression"}


def _describe(tok):
    return "end of expression" if tok[0] == "end" else f"token {tok[1]!r}"


class _Parser:
    """Evaluates an expression as it reads it: a '∘' chain is one compose
    and a '⊗' chain one tensor, so only parentheses nest."""

    def __init__(self, tokens, env, base_dim, max_entries):
        self.tokens = tokens
        self.k = 0
        self.env = env
        self.base_dim = base_dim
        self.max_entries = max_entries

    def peek(self):
        return self.tokens[self.k]

    def take(self, kind):
        tok = self.tokens[self.k]
        if tok[0] != kind:
            raise ExprSyntaxError(
                f"expected {_EXPECTED[kind]}, found {_describe(tok)}", tok[2])
        self.k += 1
        return tok

    def bound(self, entries, legs, what, pos):
        """Refuse a map of rows x cols = entries over legs tensor factors
        when either exceeds max_entries."""
        if self.max_entries is not None and max(entries, legs) > self.max_entries:
            raise ExprSyntaxError(
                f"{what} exceeds the bound of {self.max_entries} entries", pos)

    def expr(self):
        pos = self.peek()[2]
        chain = [self.term()]
        while self.peek()[0] == "compose":
            self.take("compose")
            chain.append(self.term())
        self.bound(prod(chain[0].cod) * prod(chain[-1].dom), 0, "∘ chain",
                   pos)
        return compose(reversed(chain))

    def term(self):
        factors = [self.factor()]
        entries = prod(factors[0].dom) * prod(factors[0].cod)
        legs = len(factors[0].dom) + len(factors[0].cod)
        while self.peek()[0] == "tensor":
            self.take("tensor")
            pos = self.peek()[2]
            f = self.factor()
            entries *= prod(f.dom) * prod(f.cod)
            legs += len(f.dom) + len(f.cod)
            self.bound(entries, legs, "⊗ chain", pos)
            factors.append(f)
        return tensor(*factors)

    def factor(self):
        kind, value, pos = self.peek()
        if kind == "lparen":
            self.take("lparen")
            f = self.expr()
            self.take("rparen")
            return f
        if kind == "id":
            self.take("id")
            self.take("caret")
            _, arity, _ = self.take("int")
            n = self.base_dim
            if n is None:
                raise ExprSyntaxError("cannot size 'id' without a known carrier",
                                      pos)
            bound = self.max_entries
            # for n > 1, n ** (2 * arity) >= 4 ** arity: an arity past the
            # bound's bit length is refused without the power being computed
            if bound is not None and (
                    n > 1 and 2 * arity >= bound.bit_length()
                    or max(n ** (2 * arity), 2 * arity) > bound):
                raise ExprSyntaxError(
                    f"id^{arity} exceeds the bound of {bound} entries", pos)
            return identity_map((n,) * arity)
        if kind == "name":
            self.take("name")
            f = self.env.get(value)
            if f is None:
                raise ExprSyntaxError(f"unknown name {value!r}", pos)
            if isinstance(f, str):
                raise ExprSyntaxError(f"{value!r} {f}", pos)
            self.bound(prod(f.dom) * prod(f.cod), len(f.dom) + len(f.cod),
                       repr(value), pos)
            return f
        raise ExprSyntaxError(f"unexpected {_describe(self.peek())}", pos)


def parse_expr(text: str, env, base_dim=None, max_entries=None) -> TensorMap:
    """Parse and evaluate an expression to an arity-checked TensorMap.

    env maps a name to its TensorMap, or to a string saying why the name
    has no map, which is then the error for that name.  base_dim sizes
    'id^k'; by default it is the carrier of the env's maps.
    With max_entries, a factor or chain of more entries (rows x cols), or
    more tensor factors, is refused with ExprSyntaxError before its matrix
    is built.  Parsing recurses once per level of parentheses; nesting
    deeper than the interpreter's recursion limit raises ExprSyntaxError.
    """
    if base_dim is None:
        for f in env.values():
            base_dim = None if isinstance(f, str) else f.base_dim()
            if base_dim is not None:
                break
    parser = _Parser(_tokenize(text), env, base_dim, max_entries)
    try:
        result = parser.expr()
        parser.take("end")
        return result
    except RecursionError:
        last = parser.tokens[min(parser.k, len(parser.tokens) - 1)]
        raise ExprSyntaxError("expression nested too deeply", last[2]) from None
