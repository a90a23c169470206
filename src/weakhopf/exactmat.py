"""Exact rational sparse matrix kernel.

A matrix is stored as one ``{col: value}`` map per row, and no exact zero is
ever stored.  Products and identity whiskers therefore cost in proportion to
the nonzeros: ``mul`` is the row-wise sparse product (Gustavson, ACM TOMS
1978), and ``whisker`` builds ``I (x) g (x) I`` from the nonzeros of g.
``whisker_mul`` and ``mul_whisker`` multiply by such a whisker from the left
or the right without building it; the tensor layer composes its chains of
whiskered maps through them, so no Kronecker product is ever materialised.

Entries are ``fractions.Fraction`` values (plain ints are accepted as exact
rationals; they mix freely under arithmetic).  An integral Fraction is always
stored as an int, which compares, hashes and prints like the equal Fraction
and keeps most arithmetic on structure constants in machine integers.  Every
elimination picks the first usable pivot in row/column order, so ranks,
kernels, cokernels and idempotent splittings are bit-identical across runs
and platforms.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from fractions import Fraction

from .errors import DimensionMismatch, NotIdempotent, NotInvertible


def _reciprocal(x):
    # keeps int entries exact: 1/int would be a float
    if isinstance(x, int):
        return Fraction(1, x)
    return 1 / x


def _int_if_integral(v):
    if v.__class__ is Fraction and v.denominator == 1:
        return v.numerator
    return v


def _nonzero(row):
    """The row without its exact zeros, integral Fractions made ints."""
    out = {}
    for j, v in row.items():
        if v:
            out[j] = v.numerator if v.__class__ is Fraction \
                and v.denominator == 1 else v
    return out


class Mat:
    """Immutable sparse matrix: ``rowmaps[i]`` maps column -> nonzero value.

    ``Mat(rows, cols, dense_rows)`` builds from dense rows; ``data`` is a
    read-only dense tuple-of-tuples view, built on every access.  The row
    maps are shared between matrices and must never be mutated.
    """

    __slots__ = ("rows", "cols", "rowmaps")

    def __init__(self, rows, cols, data):
        data = [tuple(row) for row in data]
        if len(data) != rows or any(len(row) != cols for row in data):
            raise DimensionMismatch(f"bad shape for {rows}x{cols} matrix")
        _init(self, rows, cols,
              tuple(_nonzero(dict(enumerate(row))) for row in data))

    def __setattr__(self, *a):
        raise AttributeError("Mat is immutable")

    @staticmethod
    def zeros(rows, cols):
        return _make(rows, cols, tuple({} for _ in range(rows)))

    @staticmethod
    def identity(n):
        return _make(n, n, tuple({i: 1} for i in range(n)))

    @staticmethod
    def from_rows(rows):
        rows = [list(r) for r in rows]
        return Mat(len(rows), len(rows[0]) if rows else 0, rows)

    @staticmethod
    def from_entries(rows, cols, entries):
        """Build from a {(i, j): value} dict; omitted entries are zero."""
        maps = [{} for _ in range(rows)]
        for (i, j), v in entries.items():
            if not (0 <= i < rows and 0 <= j < cols):
                raise DimensionMismatch(
                    f"entry ({i}, {j}) outside a {rows}x{cols} matrix")
            if v:
                maps[i][j] = _int_if_integral(v)
        return _make(rows, cols, tuple(maps))

    @property
    def data(self):
        cols = range(self.cols)
        return tuple(tuple(row.get(j, 0) for j in cols) for row in self.rowmaps)

    def items(self):
        """(row, col, value) of every stored entry in row-major order."""
        for i, row in enumerate(self.rowmaps):
            for j in sorted(row):
                yield i, j, row[j]

    def __getitem__(self, ij):
        i, j = ij
        return self.rowmaps[i].get(j, 0)

    def __eq__(self, other):
        if not isinstance(other, Mat):
            return NotImplemented
        return (self.rows == other.rows and self.cols == other.cols
                and self.rowmaps == other.rowmaps)

    def __hash__(self):
        return hash((self.rows, self.cols,
                     tuple(frozenset(row.items()) for row in self.rowmaps)))

    def __repr__(self):
        return f"Mat({self.rows}x{self.cols})"

    def pretty(self):
        return "\n".join(
            " ".join(str(Fraction(v)) if v else "." for v in row) for row in self.data
        )

    def __add__(self, other):
        self._same_shape(other)
        return _make(self.rows, self.cols, tuple(
            _merge(ra, rb, 1) for ra, rb in zip(self.rowmaps, other.rowmaps)))

    def __sub__(self, other):
        self._same_shape(other)
        return _make(self.rows, self.cols, tuple(
            _merge(ra, rb, -1) for ra, rb in zip(self.rowmaps, other.rowmaps)))

    def __neg__(self):
        return _make(self.rows, self.cols, tuple(
            {j: -v for j, v in row.items()} for row in self.rowmaps))

    def scale(self, c):
        return _make(self.rows, self.cols, tuple(
            _nonzero({j: c * v for j, v in row.items()}) for row in self.rowmaps))

    def _same_shape(self, other):
        if self.rows != other.rows or self.cols != other.cols:
            raise DimensionMismatch(
                f"{self.rows}x{self.cols} vs {other.rows}x{other.cols}"
            )

    def __matmul__(self, other):
        return mul(self, other)

    def transpose(self):
        out = [{} for _ in range(self.cols)]
        for i, row in enumerate(self.rowmaps):
            for j, v in row.items():
                out[j][i] = v
        return _make(self.cols, self.rows, tuple(out))

    def is_zero_mat(self):
        return not any(self.rowmaps)

    def column_mat(self, js):
        """Submatrix made of the listed columns, in the given order."""
        at = {j: t for t, j in enumerate(js)}
        return _make(self.rows, len(js), tuple(
            {at[j]: v for j, v in row.items() if j in at} for row in self.rowmaps))


def _init(mat, rows, cols, rowmaps):
    object.__setattr__(mat, "rows", rows)
    object.__setattr__(mat, "cols", cols)
    object.__setattr__(mat, "rowmaps", rowmaps)


def _make(rows, cols, rowmaps):
    """Mat from a tuple of row maps that hold no zero and no integral
    Fraction, without copying or checks."""
    mat = object.__new__(Mat)
    _init(mat, rows, cols, rowmaps)
    return mat


def _merge(ra, rb, sign):
    """The row ra + sign * rb, without exact zeros."""
    if not rb:
        return ra
    if not ra and sign == 1:
        return rb
    out = dict(ra)
    for j, v in rb.items():
        x = out.get(j, 0) + v if sign == 1 else out.get(j, 0) - v
        if x:
            out[j] = _int_if_integral(x)
        else:
            out.pop(j, None)
    return out


def _row_times(arow, brows):
    """The row arow * B, with B given by its row maps."""
    if len(arow) == 1:
        (k, aik), = arow.items()
        if aik.__class__ is int and aik == 1:
            return brows[k]
        return _nonzero({j: aik * v for j, v in brows[k].items()})
    acc = {}
    for k, aik in arow.items():
        for j, v in brows[k].items():
            if j in acc:
                acc[j] += aik * v
            else:
                acc[j] = aik * v
    return _nonzero(acc)


def mul(a: Mat, b: Mat) -> Mat:
    """Exact product a*b, row by row over the nonzeros of both factors."""
    if a.cols != b.rows:
        raise DimensionMismatch(f"{a.rows}x{a.cols} @ {b.rows}x{b.cols}")
    brows = b.rowmaps
    return _make(a.rows, b.cols, tuple(
        _row_times(arow, brows) if arow else {} for arow in a.rowmaps))


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
    return _make(left * m.rows * right, left * m.cols * right, tuple(out))


def whisker_mul(g: Mat, left: int, right: int, x: Mat) -> Mat:
    """The product whisker(g, left, right) * x, without building the whisker.

    For each (a, b) the rows (a, k, b) of x form a block, and row (a, i, b)
    of the result is row i of g times that block, as in :func:`mul`: a row
    of g holding one unit entry shares the block's row.
    """
    gcols = g.cols
    span = gcols * right
    if x.rows != left * span:
        raise DimensionMismatch(f"whisker of {g.rows}x{gcols} by "
                                f"({left}, {right}) @ {x.rows}x{x.cols}")
    if left == right == 1:
        return mul(g, x)
    xrows, grows = x.rowmaps, g.rowmaps
    empty = {}  # row maps are never mutated, so one can be shared
    out = []
    for a in range(left):
        start = a * span
        blocks = [xrows[start + b:start + span:right] for b in range(right)]
        out += [_row_times(grow, block) if grow else empty
                for grow in grows for block in blocks]
    return _make(left * g.rows * right, x.cols, tuple(out))


def mul_whisker(x: Mat, g: Mat, left: int, right: int) -> Mat:
    """The product x * whisker(g, left, right), without building the whisker.

    Column (a, i, b) of x meets row i of g: its entry w adds w * g[i, k] at
    column (a, k, b) of the result.  A row of x holding at least half its
    columns is read by walking (a, i, b) in index order; a sparser one splits
    the index of each of its entries instead.
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
        if 2 * len(xrow) < ncols:
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
        else:
            get = xrow.get
            j = 0
            for a in range(left):
                base = a * gcols
                for grow in grows:
                    if not grow:
                        j += right
                        continue
                    for b in range(right):
                        w = get(j)
                        j += 1
                        if w is None:
                            continue
                        for k, v in grow.items():
                            c = (base + k) * right + b
                            if c in acc:
                                acc[c] += w * v
                            else:
                                acc[c] = w * v
        out.append(_nonzero(acc))
    return _make(x.rows, left * gcols * right, tuple(out))


def _hstack(a: Mat, b: Mat) -> Mat:
    """[a | b] for matrices with equal row counts."""
    off = a.cols
    out = []
    for ra, rb in zip(a.rowmaps, b.rowmaps):
        row = dict(ra)
        for j, v in rb.items():
            row[off + j] = v
        out.append(row)
    return _make(a.rows, a.cols + b.cols, tuple(out))


def rref(m: Mat):
    """Reduced row echelon form with first-nonzero pivoting.

    Returns (R, pivots) where pivots is the tuple of pivot column indices.
    """
    rows = list(m.rowmaps)
    nrows, ncols = m.rows, m.cols
    pivots = []
    r = 0
    for c in range(ncols):
        pr = next((k for k in range(r, nrows) if c in rows[k]), None)
        if pr is None:
            continue
        prow = rows[pr]
        rows[pr] = rows[r]
        inv = _reciprocal(prow[c])
        prow = _nonzero({j: inv * v for j, v in prow.items()})
        rows[r] = prow
        for k, row in enumerate(rows):
            f = row.get(c)
            if k == r or f is None:
                continue
            new = dict(row)
            get = new.get
            for j, w in prow.items():
                x = get(j, 0) - f * w
                if x:
                    new[j] = _int_if_integral(x)
                else:
                    new.pop(j, None)
            rows[k] = new
        pivots.append(c)
        r += 1
        if r == nrows:
            break
    return _make(nrows, ncols, tuple(rows)), tuple(pivots)


def rank(m: Mat) -> int:
    return len(rref(m)[1])


@dataclass(frozen=True)
class Splitting:
    """Factorization of an idempotent e as i*p with p*i = identity."""

    p: Mat  # r x n
    i: Mat  # n x r
    rank: int


def split_idempotent(e: Mat) -> Splitting:
    """Split e = i*p through the rank; pivot columns of e give the basis."""
    if e.rows != e.cols:
        raise DimensionMismatch("idempotent must be square")
    if not (mul(e, e) - e).is_zero_mat():
        raise NotIdempotent("e*e != e")
    red, pivots = rref(e)
    r = len(pivots)
    i = e.column_mat(list(pivots))
    p = _make(r, e.cols, red.rowmaps[:r])
    # rank factorization of an idempotent: i*p = e forces p*i = identity
    if not (mul(p, i) - Mat.identity(r)).is_zero_mat():
        raise NotIdempotent("rank factorization did not split")
    if not (mul(i, p) - e).is_zero_mat():
        raise NotIdempotent("rank factorization does not recompose e")
    return Splitting(p=p, i=i, rank=r)


def kernel_basis(m: Mat) -> Mat:
    """Columns form the echelon-derived null space basis (free variable = 1)."""
    red, pivots = rref(m)
    pivset = set(pivots)
    free = {f: t for t, f in enumerate(c for c in range(m.cols)
                                        if c not in pivset)}
    out = [{} for _ in range(m.cols)]
    for f, t in free.items():
        out[f][t] = 1
    for r, c in enumerate(pivots):
        out[c] = {free[j]: -v for j, v in red.rowmaps[r].items() if j in free}
    return _make(m.cols, len(free), tuple(out))


def cokernel_projection(m: Mat):
    """Surjection proj with proj*m = 0 and rank(proj) = rows - rank(m).

    The rows of proj are the echelon-derived left null space basis, i.e. the
    deterministic complement of the row space through non-pivot rows.
    """
    basis = kernel_basis(m.transpose())
    proj = basis.transpose()
    return proj, proj.rows


def _right_block(red: Mat, r: int, off: int):
    """Row r of red restricted to columns >= off, shifted to start at 0."""
    return {j - off: v for j, v in red.rowmaps[r].items() if j >= off}


def invert(m: Mat) -> Mat:
    """Exact inverse via Gauss-Jordan; raises NotInvertible with the rank."""
    if m.rows != m.cols:
        raise NotInvertible(min(m.rows, m.cols), dims=(m.rows, m.cols))
    n = m.rows
    red, pivots = rref(_hstack(m, Mat.identity(n)))
    lead = [c for c in pivots if c < n]
    if len(lead) < n:
        raise NotInvertible(len(lead), dims=(n, n))
    return _make(n, n, tuple(_right_block(red, r, n) for r in range(n)))


def solve(a: Mat, b: Mat):
    """Deterministic particular solution X of a*X = b, or None if inconsistent.

    Free variables are set to 0, so the result only depends on the input.
    """
    if a.rows != b.rows:
        raise DimensionMismatch("solve: row counts differ")
    red, pivots = rref(_hstack(a, b))
    if any(c >= a.cols for c in pivots):
        return None
    x = [{} for _ in range(a.cols)]
    for r, c in enumerate(pivots):
        x[c] = _right_block(red, r, a.cols)
    return _make(a.cols, b.cols, tuple(x))


def section(m: Mat):
    """Right inverse s with m*s = identity, or None if m is not surjective.

    If every row t of m has a unit column e_t, as cokernel projections do at
    their free indices, s is the 0/1 inclusion of the first such columns;
    otherwise s comes from :func:`solve`.
    """
    count = Counter(j for row in m.rowmaps for j in row)
    unit = [min((j for j, v in row.items() if v == 1 and count[j] == 1),
                default=None) for row in m.rowmaps]
    if None in unit:
        return solve(m, Mat.identity(m.rows))
    out = [{} for _ in range(m.cols)]
    for t, j in enumerate(unit):
        out[j] = {t: 1}
    return _make(m.cols, m.rows, tuple(out))


def same_column_span(a: Mat, b: Mat) -> bool:
    """True when the column spaces of a and b coincide."""
    if a.rows != b.rows:
        raise DimensionMismatch("span comparison needs equal ambient dimension")
    ra, rb = rank(a), rank(b)
    if ra != rb:
        return False
    return rank(_hstack(a, b)) == ra
