"""Exact rational sparse matrix kernel.

A matrix is stored as one ``{col: numerator}`` map per row and one positive
denominator ``den`` shared by every entry, the representation of FLINT's
``fmpq_mat`` (https://flintlib.org/doc/fmpq_mat.html).  Numerators are ints
and no zero is ever stored.  The form is canonical: ``den`` and the
numerators have no common factor, and the zero matrix has ``den == 1``, so
equal matrices have equal rows and denominators: ``==`` and ``hash`` read
the numerators directly, and :func:`first_difference` answers equal
matrices by one comparison of ``den`` and ``rowmaps``.

Products and identity whiskers cost in proportion to the nonzeros: ``mul``
is the row-wise sparse product (Gustavson, ACM TOMS 1978), and ``whisker``
builds ``I (x) g (x) I`` from the nonzeros of g.  ``whisker_mul`` and
``mul_whisker`` multiply by such a whisker from the left or the right
without building it; ``whisker_mul`` copies the rows that a row of g with
one entry selects instead of multiplying them out.  ``contract`` evaluates
a network of matrices whose rows and columns run over tensor factors, the
legs, by joining two sparse tensors at a time over their nonzeros in a
greedy order.  The tensor layer composes its chains of whiskered maps
through these, so no Kronecker product is ever materialised.  A product
runs on the numerators, multiplies the denominators and reduces once per
result; with all denominators 1 it does no gcd at all.

Elimination is fraction-free on integer rows, in the integer-preserving
spirit of Bareiss ("Sylvester's identity and multistep integer-preserving
Gaussian elimination", Math. Comp. 1968): a row is combined with the pivot
row by integer multipliers and divided by its content.  It picks the first
usable pivot in row/column order, so ranks, kernels, cokernels and
idempotent splittings are bit-identical across runs and platforms.  It runs
in two phases: a forward pass clears each pivot's column below it, and is
all that ``rank`` runs; back-substitution, last pivot first, clears above
for ``rref``.  No matrix is inverted: ``solve`` eliminates [a | b] once
for the rank of a and a solution X of a*X = b, a^-1 * b when a is
invertible.  An idempotent e splits as the pair ``(p, i)`` with
``e = i*p``; its rank is ``p.rows``.

A matrix is built by ``Mat(rows, cols, dense_rows)``,
``Mat.from_rowmaps(rows, cols, maps)`` or ``Mat.identity(n)``; every route
ends in ``_make``, which sets the four slots through their own setters.
``fractions.Fraction`` appears only at the edges: the first two accept ints
and Fractions, and the value views ``data`` and ``items()`` give an int
for an integral entry and a reduced Fraction otherwise.
"""

from __future__ import annotations

from collections import Counter
from fractions import Fraction
from itertools import combinations, product
from math import gcd, lcm, prod
from operator import itemgetter

from .errors import DimensionMismatch, NotIdempotent


def _over_one_den(maps):
    """(int row maps, den) holding the nonzero ints and Fractions of maps.

    The common denominator is the lcm of the reduced denominators, which
    leaves the result canonical without a gcd pass; rows of nonzero ints
    are taken as they are, and zeros are dropped.
    """
    den, exact = 1, True
    for row in maps:
        for v in row.values():
            if v.__class__ is not int or not v:
                exact = False
                den = lcm(den, v.denominator)
    if exact:
        return tuple(maps), 1
    return tuple({j: v.numerator * (den // v.denominator)
                  for j, v in row.items() if v} for row in maps), den


def _value(v, den):
    """The entry numerator / den: an int when integral, else a Fraction."""
    if den == 1:
        return v
    q, r = divmod(v, den)
    return Fraction(v, den) if r else q


class Mat:
    """Immutable sparse matrix: entry (i, j) is ``rowmaps[i][j] / den``.

    ``Mat(rows, cols, dense_rows)`` builds from dense rows; ``data`` is a
    read-only dense tuple-of-tuples view, built on every access.  The row
    maps are shared between matrices and must never be mutated.
    """

    __slots__ = ("rows", "cols", "rowmaps", "den")

    def __new__(cls, rows, cols, data):
        data = [tuple(row) for row in data]
        if len(data) != rows or any(len(row) != cols for row in data):
            raise DimensionMismatch(f"bad shape for {rows}x{cols} matrix")
        return _make(rows, cols, *_over_one_den(
            [{j: v for j, v in enumerate(row) if v} for row in data]))

    def __setattr__(self, *_args):
        raise AttributeError("Mat is immutable")

    __delattr__ = __setattr__

    @staticmethod
    def identity(n):
        return _make(n, n, tuple({i: 1} for i in range(n)))

    @staticmethod
    def from_rowmaps(rows, cols, maps):
        """Build from one {col: value} map per row, each col in range;
        zero values are dropped.  The maps are taken over, not copied."""
        return _make(rows, cols, *_over_one_den(maps))

    @property
    def data(self):
        cols, den = range(self.cols), self.den
        return tuple(tuple(_value(row.get(j, 0), den) for j in cols)
                     for row in self.rowmaps)

    def items(self):
        """(row, col, value) of every stored entry in row-major order."""
        den = self.den
        for i, row in enumerate(self.rowmaps):
            for j in sorted(row):
                yield i, j, _value(row[j], den)

    def __eq__(self, other):
        if not isinstance(other, Mat):
            return NotImplemented
        return (self.rows == other.rows and self.cols == other.cols
                and self.den == other.den and self.rowmaps == other.rowmaps)

    def __hash__(self):
        return hash((self.rows, self.cols, self.den,
                     tuple(frozenset(row.items()) for row in self.rowmaps)))

    def __repr__(self):
        return f"Mat({self.rows}x{self.cols})"

    def pretty(self):
        return "\n".join(
            " ".join(str(Fraction(v)) if v else "." for v in row) for row in self.data
        )

    def __add__(self, other):
        return _combine(self, other, 1)

    def __sub__(self, other):
        return _combine(self, other, -1)

    def _same_shape(self, other):
        if self.rows != other.rows or self.cols != other.cols:
            raise DimensionMismatch(
                f"{self.rows}x{self.cols} vs {other.rows}x{other.cols}"
            )

    def transpose(self):
        out = [{} for _ in range(self.cols)]
        for i, row in enumerate(self.rowmaps):
            for j, v in row.items():
                out[j][i] = v
        return _make(self.cols, self.rows, tuple(out), self.den)

    def relabel(self, rows, cols, at):
        """The rows x cols matrix that holds entry (i, j) of self at
        at(i, j); at must be one-to-one on the stored entries."""
        out = [{} for _ in range(rows)]
        for i, row in enumerate(self.rowmaps):
            for j, v in row.items():
                r, c = at(i, j)
                out[r][c] = v
        return _make(rows, cols, tuple(out), self.den)

    def column_mat(self, js):
        """Submatrix made of the listed columns, in the given order."""
        at = {j: t for t, j in enumerate(js)}
        return _canon(self.rows, len(js), tuple(
            {at[j]: v for j, v in row.items() if j in at}
            for row in self.rowmaps), self.den)


_set_rows, _set_cols = Mat.rows.__set__, Mat.cols.__set__
_set_rowmaps, _set_den = Mat.rowmaps.__set__, Mat.den.__set__


def _make(rows, cols, rowmaps, den=1):
    """Mat from a tuple of int row maps that hold no zero and a den that is
    canonical with them, without copying or checks."""
    mat = object.__new__(Mat)
    _set_rows(mat, rows)
    _set_cols(mat, cols)
    _set_rowmaps(mat, rowmaps)
    _set_den(mat, den)
    return mat


def _canon(rows, cols, rowmaps, den):
    """Mat of the row maps over den, both divided by their common factor.

    The gcd stops at the first row that brings it to 1, and is skipped when
    den is 1.
    """
    if den != 1:
        g = den
        for row in rowmaps:
            if row:
                g = gcd(g, *row.values())
                if g == 1:
                    break
        if g != 1:
            den //= g
            rowmaps = tuple({j: v // g for j, v in row.items()}
                            for row in rowmaps)
    return _make(rows, cols, rowmaps, den)


def _scaled(rowmaps, k):
    return rowmaps if k == 1 else tuple(
        {j: k * v for j, v in row.items()} for row in rowmaps)


def _combine(a: Mat, b: Mat, sign):
    """a + sign * b, both brought to the lcm of their denominators."""
    a._same_shape(b)
    den = lcm(a.den, b.den)
    rows_a = _scaled(a.rowmaps, den // a.den)
    rows_b = _scaled(b.rowmaps, sign * (den // b.den))
    return _canon(a.rows, a.cols, tuple(
        _merge(ra, rb) for ra, rb in zip(rows_a, rows_b)), den)


def _merge(ra, rb):
    """The row ra + rb, without zeros."""
    if not rb:
        return ra
    if not ra:
        return rb
    out = dict(ra)
    get = out.get
    for j, v in rb.items():
        x = get(j, 0) + v
        if x:
            out[j] = x
        else:
            del out[j]
    return out


def first_difference(a: Mat, b: Mat):
    """First (row, col) where the matrices differ, or None."""
    da, db = a.den, b.den
    if da == db and a.rowmaps == b.rowmaps:
        return None
    for i, (ra, rb) in enumerate(zip(a.rowmaps, b.rowmaps)):
        if da == db and ra == rb:
            continue
        # over unequal denominators equal values have unequal numerators
        cols = [j for j in ra.keys() | rb.keys()
                if ra.get(j, 0) * db != rb.get(j, 0) * da]
        if cols:
            return (i, min(cols))
    return None


def _row_times(arow, brows):
    """The row arow * B, with B given by its row maps."""
    if len(arow) == 1:
        (k, aik), = arow.items()
        if aik == 1:
            return brows[k]
        return {j: aik * v for j, v in brows[k].items()}
    acc = {}
    for k, aik in arow.items():
        for j, v in brows[k].items():
            if j in acc:
                acc[j] += aik * v
            else:
                acc[j] = aik * v
    return acc if all(acc.values()) else {j: v for j, v in acc.items() if v}


def mul(a: Mat, b: Mat) -> Mat:
    """Exact product a*b, row by row over the nonzeros of both factors."""
    if a.cols != b.rows:
        raise DimensionMismatch(f"{a.rows}x{a.cols} @ {b.rows}x{b.cols}")
    brows = b.rowmaps
    return _canon(a.rows, b.cols, tuple([
        _row_times(arow, brows) if arow else {} for arow in a.rowmaps]),
        a.den * b.den)


def whisker(m: Mat, left: int, right: int) -> Mat:
    """I_left (x) m (x) I_right, built from the nonzeros of m."""
    if left == 1 and right == 1:
        return m
    empty = {}  # row maps are never mutated, so one can be shared
    out = []
    for i in range(left):
        off = i * m.cols
        for row in m.rowmaps:
            if not row:
                out += [empty] * right
            elif right == 1:
                out.append({off + c: v for c, v in row.items()} if off else row)
            else:
                terms = [((off + c) * right, v) for c, v in row.items()]
                out += [{o + k: v for o, v in terms} for k in range(right)]
    return _make(left * m.rows * right, left * m.cols * right, tuple(out),
                 m.den)


def whisker_mul(g: Mat, left: int, right: int, x: Mat) -> Mat:
    """The product whisker(g, left, right) * x, without building the whisker.

    For each (a, b) the rows (a, k, b) of x form a block, and row (a, i, b)
    of the result is row i of g times that block, as in :func:`mul`.  A row
    i of g that holds one entry v at k gives the rows (a, i, b) for every b
    at once: they are the rows (a, k, b) of x, shared when v is 1 and scaled
    by v otherwise.
    """
    gcols = g.cols
    span = gcols * right
    if x.rows != left * span:
        raise DimensionMismatch(f"whisker of {g.rows}x{gcols} by "
                                f"({left}, {right}) @ {x.rows}x{x.cols}")
    if left == right == 1:
        return mul(g, x)
    xrows, grows = x.rowmaps, g.rowmaps
    empty = [{}] * right  # row maps are never mutated, so they can be shared
    out = []
    for a in range(left):
        start = a * span
        blocks = None
        for grow in grows:
            if len(grow) == 1:
                (k, v), = grow.items()
                rows = xrows[start + k * right:start + (k + 1) * right]
                out += rows if v == 1 else [{j: v * w for j, w in row.items()}
                                            for row in rows]
            elif grow:
                if blocks is None:
                    blocks = [xrows[start + b:start + span:right]
                              for b in range(right)]
                out += [_row_times(grow, block) for block in blocks]
            else:
                out += empty
    return _canon(left * g.rows * right, x.cols, tuple(out), g.den * x.den)


def mul_whisker(x: Mat, g: Mat, left: int, right: int) -> Mat:
    """The product x * whisker(g, left, right), without building the whisker.

    Column (a, i, b) of x meets row i of g: its entry w adds w * g[i, k] at
    column (a, k, b) of the result.
    """
    grows, growcount, gcols = g.rowmaps, g.rows, g.cols
    ncols = x.cols
    if ncols != left * growcount * right:
        raise DimensionMismatch(f"{x.rows}x{ncols} @ whisker of "
                                f"{growcount}x{gcols} by ({left}, {right})")
    if left == right == 1:
        return mul(x, g)
    out = []
    for xrow in x.rowmaps:
        acc = {}
        for j, w in xrow.items():
            ai, b = divmod(j, right)
            a, i = divmod(ai, growcount)
            off = a * gcols * right + b
            for k, v in grows[i].items():
                c = off + k * right
                if c in acc:
                    acc[c] += w * v
                else:
                    acc[c] = w * v
        out.append(acc if all(acc.values()) else
                   {c: v for c, v in acc.items() if v})
    return _canon(x.rows, left * gcols * right, tuple(out), x.den * g.den)


def contract(factors, ins, outs, dims) -> Mat:
    """The matrix from the legs ins to the legs outs of a tensor network.

    Each factor ``(g, gin, gout)`` is the matrix g read as a sparse tensor
    whose column runs over the legs gin and whose row over the legs gout,
    leftmost leg most significant; ``dims[leg]`` is a leg's dimension.  A
    leg that two tensors hold is summed over, and a leg of both ins and outs
    that no factor holds is an identity wire.  Two tensors at a time are
    joined over their nonzeros, each time the pair whose result is expected
    to hold the fewest entries, as in the greedy path of opt_einsum (Smith
    and Gray, JOSS 2018).
    """
    dims, outs, factors = list(dims), list(outs), list(factors)
    for t, leg in enumerate(outs):
        if leg in ins:
            outs[t] = len(dims)
            dims.append(dims[leg])
            factors.append((Mat.identity(dims[leg]), [leg], [outs[t]]))
    tensors = []
    for g, gin, gout in factors:
        cidx, ridx = _indices(gin, dims), _indices(gout, dims)
        tensors.append((tuple(gin + gout), {
            cidx[j] + ridx[i]: v
            for i, row in enumerate(g.rowmaps) for j, v in row.items()}))
    while len(tensors) > 1:
        # a pair sharing legs of total size s meets on about one in s pairs
        _, i, j = min((len(a[1]) * len(b[1]) // (prod([
            dims[leg] for leg in set(a[0]) & set(b[0])]) or 1), i, j)
            for (i, a), (j, b) in combinations(enumerate(tensors), 2))
        tensors[i] = _join(tensors[i], tensors.pop(j))
    order, entries = tensors[0]
    rpos = [(order.index(leg), dims[leg]) for leg in outs]
    cpos = [(order.index(leg), dims[leg]) for leg in ins]
    rows = [{} for _ in range(prod([d for _, d in rpos]))]
    for key, v in entries.items():
        if v:
            r = c = 0
            for p, d in rpos:
                r = r * d + key[p]
            for p, d in cpos:
                c = c * d + key[p]
            rows[r][c] = v
    return _canon(len(rows), prod([d for _, d in cpos]), tuple(rows),
                  prod([g.den for g, _, _ in factors]))


def _indices(legs, dims):
    """The index tuples over legs, in the order of their flat index."""
    return list(product(*[range(dims[leg]) for leg in legs]))


def _join(a, b):
    """The contraction of two sparse tensors ``(order, {index: value})``
    over the legs they share: b is indexed by those legs, and each entry of
    a reads the entries of b that it meets."""
    (oa, ea), (ob, eb) = a, b
    meet_b = [p for p, leg in enumerate(ob) if leg in oa]
    meet_a = [oa.index(ob[p]) for p in meet_b]
    rest_a = [p for p, leg in enumerate(oa) if leg not in ob]
    rest_b = [p for p, leg in enumerate(ob) if leg not in oa]
    get_b, give_b = _picker(meet_b), _picker(rest_b)
    index = {}
    for key, v in eb.items():
        index.setdefault(get_b(key), []).append((give_b(key), v))
    get_a, pick_a = _picker(meet_a), _picker(rest_a)
    acc = {}
    for key, v in ea.items():
        hits = index.get(get_a(key))
        if hits:
            head = pick_a(key)
            for tail, w in hits:
                k = head + tail
                acc[k] = acc.get(k, 0) + v * w
    return pick_a(oa) + give_b(ob), acc


def _picker(positions):
    """The function that takes the tuple of the given positions of a key;
    a run of consecutive positions, none or one included, is one slice."""
    first = positions[0] if positions else 0
    if positions == list(range(first, first + len(positions))):
        return itemgetter(slice(first, first + len(positions)))
    return itemgetter(*positions)


def _hstack(a: Mat, b: Mat) -> Mat:
    """[a | b] for matrices with equal row counts, over the lcm of their
    denominators."""
    den = lcm(a.den, b.den)
    off = a.cols
    out = []
    for ra, rb in zip(_scaled(a.rowmaps, den // a.den),
                      _scaled(b.rowmaps, den // b.den)):
        row = dict(ra)
        for j, v in rb.items():
            row[off + j] = v
        out.append(row)
    return _make(a.rows, a.cols + b.cols, tuple(out), den)


def _primitive(row, sign=1):
    """The row divided by sign times its content (the gcd of its entries)."""
    c = sign * gcd(*row.values())
    return row if c == 1 else {j: v // c for j, v in row.items()}


def _echelon(rows, ncols):
    """The forward pass of :func:`rref` on a list of numerator rows, whose
    row space is that of the matrix, in place: each pivot row is made
    primitive with a positive pivot and the rows below it are cleared in
    its column.  Returns the pivot columns."""
    nrows = len(rows)
    pivots = []
    r = 0
    for c in range(ncols):
        pr = next((k for k in range(r, nrows) if c in rows[k]), None)
        if pr is None:
            continue
        prow = rows[pr]
        rows[pr] = rows[r]
        prow = rows[r] = _primitive(prow, -1 if prow[c] < 0 else 1)
        for k in range(r + 1, nrows):
            if c in rows[k]:
                rows[k] = _eliminate(rows[k], prow, c)
        pivots.append(c)
        r += 1
        if r == nrows:
            break
    return pivots


def _eliminate(row, prow, c):
    """(p/g)*row - (f/g)*prow divided by its content, where p and f are the
    entries of prow and row in column c and g = gcd(p, f)."""
    p, f = prow[c], row[c]
    g = gcd(p, f)
    a, b = p // g, f // g
    new = dict(row) if a == 1 else {j: a * v for j, v in row.items()}
    get = new.get
    for j, w in prow.items():
        x = get(j, 0) - b * w
        if x:
            new[j] = x
        else:
            del new[j]
    return _primitive(new) if new else new


def rref(m: Mat):
    """Reduced row echelon form with first-nonzero pivoting.

    Returns (R, pivots) where pivots is the tuple of pivot column indices.
    After :func:`_echelon`, back-substitution clears each pivot's column
    above it, last pivot first, with :func:`_eliminate`.  Each pivot row is
    then scaled to the lcm of the pivots, which is R's denominator; R is
    canonical because every row is primitive, and unique, as the reduced
    form is.
    """
    rows = list(m.rowmaps)
    pivots = _echelon(rows, m.cols)
    for t in range(len(pivots) - 1, 0, -1):
        prow, c = rows[t], pivots[t]
        for k in range(t):
            if c in rows[k]:
                rows[k] = _eliminate(rows[k], prow, c)
    den = lcm(*(rows[t][c] for t, c in enumerate(pivots)))
    if den != 1:
        for t, c in enumerate(pivots):
            k = den // rows[t][c]
            if k != 1:
                rows[t] = {j: k * v for j, v in rows[t].items()}
    return _make(m.rows, m.cols, tuple(rows), den), tuple(pivots)


def rank(m: Mat) -> int:
    """The number of pivots of the forward pass of :func:`rref`."""
    return len(_echelon(list(m.rowmaps), m.cols))


def split_idempotent(e: Mat):
    """(p, i) with e = i*p and p*i the identity of size rank(e) = p.rows;
    the pivot columns of e give the basis.

    Any matrix is i*p for i its pivot columns and p the nonzero rows of its
    reduced form.  The columns of i and the rows of p are independent, so
    e*e = i*(p*i)*p equals e exactly when p*i is the identity.
    """
    if e.rows != e.cols:
        raise DimensionMismatch("idempotent must be square")
    red, pivots = rref(e)
    r = len(pivots)
    i = e.column_mat(list(pivots))
    # the rows of red below r are zero, so its first r rows keep its den
    p = _make(r, e.cols, red.rowmaps[:r], red.den)
    if mul(p, i) != Mat.identity(r):
        raise NotIdempotent("e*e != e")
    return p, i


def kernel_basis(m: Mat) -> Mat:
    """Columns form the echelon-derived null space basis (free variable = 1)."""
    red, pivots = rref(m)
    pivset = set(pivots)
    free = {f: t for t, f in enumerate(c for c in range(m.cols)
                                        if c not in pivset)}
    # a free variable is 1 = den / den over R's denominator
    den = red.den
    out = [{} for _ in range(m.cols)]
    for f, t in free.items():
        out[f][t] = den
    for r, c in enumerate(pivots):
        out[c] = {free[j]: -v for j, v in red.rowmaps[r].items() if j in free}
    return _canon(m.cols, len(free), tuple(out), den)


def cokernel_projection(m: Mat) -> Mat:
    """Surjection proj with proj*m = 0 and proj.rows = m.rows - rank(m).

    The rows of proj are the echelon-derived left null space basis, i.e. the
    deterministic complement of the row space through non-pivot rows.
    """
    return kernel_basis(m.transpose()).transpose()


def solve(a: Mat, b: Mat):
    """(rank(a), X) from one elimination of [a | b], where X is the
    deterministic particular solution of a*X = b, or None if the system is
    inconsistent; when a is square of full rank, X is a^-1 * b.

    Free variables are set to 0, so the result only depends on the input.
    """
    if a.rows != b.rows:
        raise DimensionMismatch("solve: row counts differ")
    off = a.cols
    red, pivots = rref(_hstack(a, b))
    r = sum(c < off for c in pivots)
    if r < len(pivots):
        return r, None
    # columns >= off of red's first r rows, shifted to start at 0
    block = _canon(r, b.cols, tuple(
        {j - off: v for j, v in red.rowmaps[t].items() if j >= off}
        for t in range(r)), red.den)
    x = [{} for _ in range(a.cols)]
    for t, c in enumerate(pivots):
        x[c] = block.rowmaps[t]
    return r, _make(a.cols, b.cols, tuple(x), block.den)


def section(m: Mat):
    """Right inverse s with m*s = identity, or None if m is not surjective.

    If every row t of m has a unit column e_t, as cokernel projections do at
    their free indices, s is the 0/1 inclusion of the first such columns;
    otherwise s comes from :func:`solve`.
    """
    count = Counter(j for row in m.rowmaps for j in row)
    one = m.den  # the numerator of an entry 1
    unit = [min((j for j, v in row.items() if v == one and count[j] == 1),
                default=None) for row in m.rowmaps]
    if None in unit:
        return solve(m, Mat.identity(m.rows))[1]
    out = [{} for _ in range(m.cols)]
    for t, j in enumerate(unit):
        out[j] = {t: 1}
    return _make(m.cols, m.rows, tuple(out))


def same_column_span(a: Mat, b: Mat) -> bool:
    """True when the column spaces of a and b coincide, for a and b whose
    columns are independent: then both spans have the dimension of [a | b]
    exactly when they are one span."""
    if a.rows != b.rows:
        raise DimensionMismatch("span comparison needs equal ambient dimension")
    return a.cols == b.cols and rank(_hstack(a, b)) == a.cols
