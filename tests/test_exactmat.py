import dataclasses
import math
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from weakhopf import exactmat
from weakhopf.errors import DimensionMismatch, NotIdempotent
from weakhopf.exactmat import (
    Mat,
    cokernel_projection,
    first_difference,
    kernel_basis,
    mul,
    rank,
    rref,
    section,
    solve,
    split_idempotent,
)
from weakhopf.tensorexpr import TensorMap, compose, identity_map, lift, tensor

F = Fraction


def kron(a, b):
    """The Kronecker product, as the matrix of the tensor product of maps."""
    def as_map(m):
        return TensorMap((m.cols,), (m.rows,), m)

    return tensor(as_map(a), as_map(b)).mat


def perm_mat(perm):
    n = len(perm)
    maps = [{} for _ in range(n)]
    for j in range(n):
        maps[perm[j]][j] = 1
    return Mat.from_rowmaps(n, n, maps)


def gauss_rank_oracle(rows):
    # independent forward elimination, no pivot strategy shared with rref
    rows = [[F(v) for v in row] for row in rows]
    r = 0
    cols = len(rows[0]) if rows else 0
    for c in range(cols):
        piv = next((k for k in range(r, len(rows)) if rows[k][c] != 0), None)
        if piv is None:
            continue
        rows[r], rows[piv] = rows[piv], rows[r]
        for k in range(len(rows)):
            if k != r and rows[k][c] != 0:
                f = rows[k][c] / rows[r][c]
                rows[k] = [a - f * b for a, b in zip(rows[k], rows[r])]
        r += 1
    return r


rationals = st.fractions(min_value=-3, max_value=3, max_denominator=4)


def mats(rows, cols):
    return st.lists(
        st.lists(rationals, min_size=cols, max_size=cols),
        min_size=rows, max_size=rows,
    ).map(lambda data: Mat(rows, cols, data))


def test_mul_identity():
    m = Mat(3, 2, [[1, 2], [F(1, 3), 4], [0, 5]])
    assert mul(Mat.identity(3), m) == m
    assert mul(m, Mat.identity(2)) == m


def test_mul_scalar_case():
    assert mul(Mat(1, 1, [[2]]), Mat(1, 1, [[F(1, 2)]])) == \
        Mat(1, 1, [[1]])


def test_mul_shape_error():
    with pytest.raises(DimensionMismatch):
        mul(Mat.identity(2), Mat.identity(3))


@given(st.permutations(range(5)), st.permutations(range(5)))
def test_mul_permutations_match_composition(p, q):
    # oracle: compose the index permutations directly
    composed = [p[q[j]] for j in range(5)]
    assert mul(perm_mat(p), perm_mat(q)) == perm_mat(composed)


def test_kron_identities():
    assert kron(Mat.identity(2), Mat.identity(3)) == Mat.identity(6)


def test_kron_flip_acts_on_index_triples():
    flip = Mat.from_rowmaps(4, 4, [{i * 2 + j: 1}
                                   for j in range(2) for i in range(2)])
    big = kron(flip, Mat.identity(2))
    for i in range(2):
        for j in range(2):
            for k in range(2):
                src = (i * 2 + j) * 2 + k
                dst = (j * 2 + i) * 2 + k
                col = [big.data[r][src] for r in range(8)]
                assert col == [1 if r == dst else 0 for r in range(8)]


@settings(max_examples=25)
@given(mats(2, 2), mats(2, 2), mats(2, 2), mats(2, 2))
def test_kron_mixed_product_law(a, b, c, d):
    assert kron(mul(a, c), mul(b, d)) == mul(kron(a, b), kron(c, d))


def test_split_identity():
    p, i = split_idempotent(Mat.identity(3))
    assert p.rows == 3
    assert p == Mat.identity(3) and i == Mat.identity(3)


def test_split_zero():
    p, i = split_idempotent(Mat(4, 4, [[0] * 4] * 4))
    assert p.rows == 0 and i.cols == 0


def test_split_diagonal_picks_leading_columns():
    e = Mat.from_rowmaps(4, 4, [{0: 1}, {1: 1}, {}, {}])
    p, i = split_idempotent(e)
    assert p.rows == 2
    # echelon by hand: pivot columns 0 and 1, i.e. the first two basis vectors
    assert i == Mat.from_rowmaps(4, 2, [{0: 1}, {1: 1}, {}, {}])
    assert mul(i, p) == e
    assert mul(p, i) == Mat.identity(2)


def test_split_rejects_non_idempotent():
    with pytest.raises(NotIdempotent):
        split_idempotent(Mat(1, 1, [[2]]))


@settings(max_examples=30)
@given(st.lists(st.sampled_from([0, 1]), min_size=3, max_size=3),
       st.permutations(range(3)))
def test_split_invariants_for_conjugated_projections(diag, perm):
    p = perm_mat(perm)
    d = Mat.from_rowmaps(3, 3, [{i: v} for i, v in enumerate(diag)])
    e = mul(mul(p, d), p.transpose())
    sp, si = split_idempotent(e)
    assert mul(sp, si) == Mat.identity(sp.rows)
    assert mul(si, sp) == e
    assert sp.rows == sum(diag)


def test_kernel_single_row():
    # solve by hand: x0 + x1 = 0, free variable x1 = 1
    basis = kernel_basis(Mat(1, 2, [[1, 1]]))
    assert basis == Mat(2, 1, [[-1], [1]])


def test_kernel_trivial_and_full():
    assert kernel_basis(Mat.identity(2)).cols == 0
    assert kernel_basis(Mat(2, 2, [[0, 0], [0, 0]])) == Mat.identity(2)


def test_cokernel_identity_and_zero():
    proj = cokernel_projection(Mat.identity(2))
    assert proj.rows == 0
    proj = cokernel_projection(Mat(3, 2, [[0, 0]] * 3))
    assert proj.rows == 3 and proj == Mat.identity(3)


def test_cokernel_column():
    m = Mat(2, 1, [[1], [1]])
    proj = cokernel_projection(m)
    assert proj.rows == 1
    assert mul(proj, m) == Mat(1, 1, [[0]])
    assert rank(proj) == 1


@settings(max_examples=25)
@given(mats(3, 2))
def test_cokernel_rank_complement(m):
    proj = cokernel_projection(m)
    assert mul(proj, m) == Mat(proj.rows, 2, [[0, 0]] * proj.rows)
    assert rank(proj) + rank(m) == 3


def invert(m):
    """(rank(m), m^-1 or None), by solve against the identity, as the
    Galois stage takes gamma^-1 B only when gamma is square of full rank."""
    r, x = solve(m, Mat.identity(m.rows))
    return r, x if r == m.rows == m.cols else None


def test_invert_diagonal():
    assert invert(Mat.identity(3)) == (3, Mat.identity(3))
    d = Mat(2, 2, [[2, 0], [0, 3]])
    assert invert(d) == (2, Mat(2, 2, [[F(1, 2), 0], [0, F(1, 3)]]))


def test_invert_nz_galois_matrix_rank_witness():
    # sigma(x (x) y) = x (x) xy for the monoid {1, z | z^2 = z}; basis
    # (1x1, 1xz, zx1, zxz): z (x) 1 and z (x) z both land on z (x) z
    sigma = Mat(4, 4, [
        [1, 0, 0, 0],
        [0, 1, 0, 0],
        [0, 0, 0, 0],
        [0, 0, 1, 1],
    ])
    assert gauss_rank_oracle(sigma.data) == 3
    assert invert(sigma) == (3, None)


@pytest.mark.parametrize("rows, want", [
    ([[0, 0, 0], [0, 0, 0]], 0),
    ([[1, 2, 3], [2, 4, 6]], 1),
    ([[1, 0], [0, 1], [1, 1]], 2),
])
def test_invert_non_square_reports_its_rank(rows, want):
    m = Mat(len(rows), len(rows[0]), rows)
    assert invert(m) == (want, None)


@settings(max_examples=20)
@given(mats(3, 3))
def test_rank_matches_independent_elimination(m):
    assert rank(m) == gauss_rank_oracle(m.data)


def test_operations_are_deterministic():
    e = Mat.from_rowmaps(3, 3, [{0: 1, 1: 1}, {}, {2: 1}])
    assert split_idempotent(e) == split_idempotent(e)
    m = Mat(2, 3, [[1, 2, 3], [2, 4, 6]])
    assert kernel_basis(m) == kernel_basis(m)
    assert cokernel_projection(m) == cokernel_projection(m)


# ---------------------------------------------------------------------------
# dense reference kernel: the oracle for the sparse one.  Plain lists of
# rows, first-nonzero pivoting, exactly as the kernel's contract states.
# ---------------------------------------------------------------------------

def dense_mul(a, b, cols):
    return [[sum((row[k] * b[k][j] for k in range(len(b))), F(0))
             for j in range(cols)] for row in a]


def dense_kron(a, b):
    return [[x * y for x in ra for y in rb] for ra in a for rb in b]


def dense_rref(rows):
    rows = [list(r) for r in rows]
    ncols = len(rows[0]) if rows else 0
    pivots = []
    r = 0
    for c in range(ncols):
        pr = next((k for k in range(r, len(rows)) if rows[k][c] != 0), None)
        if pr is None:
            continue
        rows[r], rows[pr] = rows[pr], rows[r]
        inv = 1 / F(rows[r][c])
        rows[r] = [inv * v for v in rows[r]]
        for k in range(len(rows)):
            if k != r and rows[k][c] != 0:
                f = rows[k][c]
                rows[k] = [v - f * w for v, w in zip(rows[k], rows[r])]
        pivots.append(c)
        r += 1
        if r == len(rows):
            break
    return rows, pivots


def dense_kernel(rows, ncols):
    red, pivots = dense_rref(rows)
    free = [c for c in range(ncols) if c not in pivots]
    basis = []
    for f in free:
        v = [F(0)] * ncols
        v[f] = F(1)
        for r, c in enumerate(pivots):
            v[c] = -red[r][f]
        basis.append(v)
    return [[col[i] for col in basis] for i in range(ncols)]


def dense_solve(a, b, acols, bcols):
    red, pivots = dense_rref([ra + rb for ra, rb in zip(a, b)])
    if any(c >= acols for c in pivots):
        return None
    x = [[F(0)] * bcols for _ in range(acols)]
    for r, c in enumerate(pivots):
        x[c] = red[r][acols:]
    return x


def dense_first_difference(a, b):
    for i, (ra, rb) in enumerate(zip(a, b)):
        for j, (x, y) in enumerate(zip(ra, rb)):
            if x != y:
                return (i, j)
    return None


def rows_of(m):
    """Dense rows of m, after checking its storage: int numerators, no
    zeros, a positive denominator with no factor common to every numerator,
    and entry (i, j) equal to rowmaps[i][j] / den."""
    assert m.den.__class__ is int and m.den > 0
    for row in m.rowmaps:
        for v in row.values():
            assert v.__class__ is int and v != 0
    assert math.gcd(m.den, *(v for row in m.rowmaps for v in row.values())) == 1
    rows = [list(r) for r in m.data]
    for row, stored in zip(rows, m.rowmaps):
        assert {j: v for j, v in enumerate(row) if v} == \
            {j: F(v, m.den) for j, v in stored.items()}
        # the view gives an int for every integral entry
        assert not any(isinstance(v, F) and v.denominator == 1 for v in row)
    return rows


sparse_rationals = st.one_of(
    st.just(F(0)), st.just(F(0)), st.just(F(1)), rationals)


@st.composite
def sparse_mats(draw, rows=None, cols=None):
    """Small rational matrices, mostly zeros, with whole zero rows and
    zero columns mixed in."""
    rows = draw(st.integers(0, 5)) if rows is None else rows
    cols = draw(st.integers(0, 5)) if cols is None else cols
    grid = draw(st.lists(st.lists(sparse_rationals, min_size=cols,
                                  max_size=cols),
                         min_size=rows, max_size=rows))
    zero_rows = draw(st.sets(st.integers(0, max(rows - 1, 0))))
    zero_cols = draw(st.sets(st.integers(0, max(cols - 1, 0))))
    grid = [[F(0) if i in zero_rows or j in zero_cols else v
             for j, v in enumerate(row)] for i, row in enumerate(grid)]
    return Mat(rows, cols, grid)


def test_dense_constructor_and_view_round_trip():
    m = Mat(2, 3, [[0, F(1, 2), 0], [0, 0, 0]])
    assert m.data == ((0, F(1, 2), 0), (0, 0, 0))
    assert m.data[0][1] == F(1, 2) and m.data[1][2] == 0
    assert list(m.items()) == [(0, 1, F(1, 2))]
    assert m == Mat.from_rowmaps(2, 3, [{1: F(1, 2)}, {1: 0}])
    with pytest.raises(DimensionMismatch):
        Mat(2, 2, [[1, 2]])


@given(st.data())
def test_sparse_mul_matches_dense_oracle(data):
    a = data.draw(sparse_mats())
    b = data.draw(sparse_mats(rows=a.cols))
    assert rows_of(mul(a, b)) == dense_mul(rows_of(a), rows_of(b), b.cols)


@given(sparse_mats(), sparse_mats())
def test_sparse_kron_matches_dense_oracle(a, b):
    assert rows_of(kron(a, b)) == dense_kron(rows_of(a), rows_of(b))


@given(sparse_mats())
def test_rref_matches_dense_oracle(m):
    red, pivots = rref(m)
    want, want_pivots = dense_rref(rows_of(m))
    assert pivots == tuple(want_pivots)
    assert rows_of(red) == want


def test_split_idempotent_multiplies_once_at_its_rank(monkeypatch):
    # e = P D P^-1 of rank 2 in a dense basis: the one product is p*i, 2x2
    p = Mat(4, 4, [[1, 2, 0, -1], [0, 1, 3, 0], [0, 0, 1, 2], [0, 0, 0, 1]])
    d = Mat.from_rowmaps(4, 4, [{0: 1}, {}, {2: 1}, {}])
    e = mul(mul(p, d), solve(p, Mat.identity(4))[1])
    calls = []
    real = exactmat.mul

    def counting(a, b):
        calls.append((a.rows, a.cols, b.rows, b.cols))
        return real(a, b)

    monkeypatch.setattr(exactmat, "mul", counting)
    split_idempotent(e)
    assert calls == [(2, 4, 4, 2)]


@st.composite
def conjugated_projections(draw):
    """P D P^-1 for a dense invertible rational P and a 0/1 diagonal D, with
    one entry of the result moved by a random amount half the time."""
    n = draw(st.integers(1, 4))

    def unit_triangular(cols):
        return Mat.from_rowmaps(n, n, [
            {j: 1 if i == j else draw(sparse_rationals) for j in cols(i)}
            for i in range(n)])

    p = mul(unit_triangular(lambda i: range(i + 1)),
            unit_triangular(lambda i: range(i, n)))
    d = Mat.from_rowmaps(n, n, [{i: draw(st.sampled_from([0, 1]))}
                                for i in range(n)])
    e = mul(mul(p, d), solve(p, Mat.identity(n))[1])
    if draw(st.booleans()):
        i, j = draw(st.integers(0, n - 1)), draw(st.integers(0, n - 1))
        e = e + Mat.from_rowmaps(n, n, [{j: draw(rationals)} if r == i else {}
                                        for r in range(n)])
    return e


@given(st.one_of(
    st.integers(0, 4).flatmap(lambda n: sparse_mats(rows=n, cols=n)),
    conjugated_projections()))
def test_split_refuses_exactly_the_matrices_that_are_not_idempotent(e):
    if mul(e, e) == e:
        p, i = split_idempotent(e)
        assert mul(i, p) == e and mul(p, i) == Mat.identity(p.rows)
    else:
        with pytest.raises(NotIdempotent, match=r"^e\*e != e$"):
            split_idempotent(e)


def _independent_columns(m):
    """The pivot columns of m, which are independent and span its columns."""
    return m.column_mat(list(rref(m)[1]))


def _hstack(a, b):
    return Mat(a.rows, a.cols + b.cols,
               [ra + rb for ra, rb in zip(a.data, b.data)])


@st.composite
def independent_column_pairs(draw):
    """(a, b) with independent columns and equal row counts; b spans a
    subspace of the span of a half the time, all of it when the random
    square factor is invertible."""
    rows = draw(st.integers(0, 5))
    a = _independent_columns(draw(sparse_mats(rows=rows)))
    if draw(st.booleans()):
        b = mul(a, draw(sparse_mats(rows=a.cols)))
    else:
        b = draw(sparse_mats(rows=rows))
    return a, _independent_columns(b)


@given(sparse_mats())
def test_rank_counts_the_pivots_of_the_reduced_form(m):
    assert rank(m) == len(rref(m)[1])


@given(independent_column_pairs())
def test_same_column_span_agrees_with_the_three_rank_definition(pair):
    a, b = pair
    three_ranks = rank(a) == rank(b) == rank(_hstack(a, b))
    assert exactmat.same_column_span(a, b) is three_ranks


@given(sparse_mats())
def test_kernel_basis_matches_dense_oracle(m):
    basis = kernel_basis(m)
    assert basis.rows == m.cols
    assert rows_of(basis) == dense_kernel(rows_of(m), m.cols)


@given(st.data())
def test_solve_matches_dense_oracle(data):
    a = data.draw(sparse_mats())
    b = data.draw(sparse_mats(rows=a.rows))
    r, x = solve(a, b)
    assert r == len(dense_rref(rows_of(a))[1])
    want = dense_solve(rows_of(a), rows_of(b), a.cols, b.cols)
    if want is None:
        assert x is None
    else:
        assert x is not None and rows_of(x) == want


@given(st.integers(0, 4).flatmap(lambda n: sparse_mats(rows=n, cols=n)))
def test_invert_matches_dense_oracle(m):
    n = m.rows
    identity = [[F(int(i == j)) for j in range(n)] for i in range(n)]
    _, pivots = dense_rref(rows_of(m))
    r, inverse = invert(m)
    assert r == len(pivots)
    if r < n:
        assert inverse is None
    else:
        assert rows_of(inverse) == dense_solve(rows_of(m), identity, n, n)


@st.composite
def hmaps(draw):
    n = draw(st.integers(1, 3))
    a, b = draw(st.integers(0, 2)), draw(st.integers(0, 2))
    if a + b == 0:
        a = 1
    mat = draw(sparse_mats(rows=n ** b, cols=n ** a))
    return TensorMap((n,) * a, (n,) * b, mat)


@settings(max_examples=60)
@given(hmaps(), st.integers(0, 2), st.integers(0, 2))
def test_lift_equals_dense_kron_with_identities(f, left, right):
    assume(left + right <= 2)
    n = f.base_dim()
    lifted = lift(f, left, right)
    eye = [[F(int(i == j)) for j in range(n)] for i in range(n)]
    want = [[F(1)]]
    for _ in range(left):
        want = dense_kron(want, eye)
    want = dense_kron(want, rows_of(f.mat))
    for _ in range(right):
        want = dense_kron(want, eye)
    assert rows_of(lifted.mat) == want
    assert lifted.dom == (n,) * left + f.dom + (n,) * right
    assert lifted.cod == (n,) * left + f.cod + (n,) * right


def dense_eye(size):
    return [[F(int(i == j)) for j in range(size)] for i in range(size)]


@st.composite
def chains(draw, shape):
    """A compose chain of plain maps, lifts, tensors and identities between
    powers of one carrier, with the dense matrix of each map.

    ``shape`` fixes how the chain's domain compares with its codomain:
    "smaller", "larger" or "equal".
    """
    n = draw(st.integers(2, 3))
    length = draw(st.integers(1, 4))
    first = draw(st.integers(0, 3))
    if shape == "equal":
        last = first
    elif shape == "smaller":
        first = min(first, 2)
        last = draw(st.integers(first + 1, 3))
    else:
        first = max(first, 1)
        last = draw(st.integers(0, first - 1))
    arities = [first] + [draw(st.integers(0, 3))
                         for _ in range(length - 1)] + [last]

    def plain(a, b):
        return TensorMap((n,) * a, (n,) * b,
                         draw(sparse_mats(rows=n ** b, cols=n ** a)))

    chain, dense = [], []
    for a, b in zip(arities, arities[1:]):
        kind = draw(st.sampled_from(["plain", "lift", "tensor", "identity"]))
        if kind == "identity" and a == b:
            f = identity_map((n,) * a)
            want = dense_eye(n ** a)
        elif kind == "lift" and min(a, b) > 0:
            left = draw(st.integers(0, min(a, b) - 1))
            right = draw(st.integers(0, min(a, b) - 1 - left))
            g = plain(a - left - right, b - left - right)
            f = lift(g, left, right)
            want = dense_kron(dense_kron(dense_eye(n ** left), rows_of(g.mat)),
                              dense_eye(n ** right))
        elif kind == "tensor":
            p, q = draw(st.integers(0, a)), draw(st.integers(0, b))
            g, h = plain(p, q), plain(a - p, b - q)
            f = tensor(g, h)
            want = dense_kron(rows_of(g.mat), rows_of(h.mat))
        else:
            f = plain(a, b)
            want = rows_of(f.mat)
        if draw(st.booleans()):
            assert rows_of(f.mat) == want
        chain.append(f)
        dense.append(want)
    return chain, dense


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(["smaller", "larger", "equal"]).flatmap(chains))
def test_compose_matches_the_dense_product(chain_and_dense):
    chain, dense = chain_and_dense
    want = dense[0]
    for step in dense[1:]:
        want = dense_mul(step, want, len(want[0]))
    got = compose(chain)
    assert (got.dom, got.cod) == (chain[0].dom, chain[-1].cod)
    assert rows_of(got.mat) == want
    for f, rows in zip(chain, dense):
        assert rows_of(f.mat) == rows


def test_every_tensor_map_takes_a_replaced_matrix():
    m = Mat(2, 4, [[1, 2, 0, 1], [0, 1, 3, 0]])
    f = TensorMap((2, 2), (2,), m)
    maps = [f, lift(f, 1, 0), tensor(f, f), identity_map((2, 2)),
            compose([lift(f, 0, 1), f])]
    for tm in maps:
        new = tm.mat + tm.mat
        replaced = dataclasses.replace(tm, mat=new)
        assert (replaced.dom, replaced.cod) == (tm.dom, tm.cod)
        assert replaced.mat is new
        assert replaced.steps == ((new, 1, 1, 0, tm.dom, tm.cod),)
        assert compose([identity_map(tm.dom), replaced]) == replaced
    with pytest.raises(DimensionMismatch):
        dataclasses.replace(maps[1], mat=m)


def built_by_routes(grid, rows, cols, other):
    """The matrix of the dense grid built along five routes, by name; other
    is any matrix of the same shape."""
    a = Mat(rows, cols, grid)
    # six times the values, then a product with the diagonal of 1/6: the
    # product's denominator is reduced by _canon
    scaled = mul(Mat.from_rowmaps(rows, cols, [
        {j: 6 * v for j, v in enumerate(row)} for row in grid]),
        Mat.from_rowmaps(cols, cols, [{j: F(1, 6)} for j in range(cols)]))
    return {"dense": a, "scaled from_rowmaps": scaled,
            "plus zero": a + Mat(rows, cols, [[0] * cols] * rows),
            "minus and plus": (a - other) + other,
            "transposed twice": a.transpose().transpose()}


ROUTES = list(built_by_routes([], 0, 0, Mat(0, 0, [])))


@given(st.data())
def test_equal_values_by_any_route_have_equal_den_and_rowmaps(data):
    # the premise of first_difference's shortcut: the form is canonical
    a = data.draw(sparse_mats())
    other = data.draw(sparse_mats(rows=a.rows, cols=a.cols))
    for route, m in built_by_routes(rows_of(a), a.rows, a.cols,
                                    other).items():
        assert (m.den, m.rowmaps) == (a.den, a.rowmaps), route
        assert m == a and first_difference(a, m) is None, route


@given(st.data())
def test_first_difference_matches_dense_scan(data):
    a = data.draw(sparse_mats())
    # a multiple of a has a's numerators over another denominator
    c = data.draw(st.sampled_from([1, 1, 2, F(1, 3)]))
    grid = [[c * v for v in row] for row in rows_of(a)]
    flips = data.draw(st.lists(st.tuples(st.integers(0, max(a.rows - 1, 0)),
                                         st.integers(0, max(a.cols - 1, 0)),
                                         sparse_rationals), max_size=3))
    for i, j, v in flips:
        if i < a.rows and j < a.cols:
            grid[i][j] = v
    other = data.draw(sparse_mats(rows=a.rows, cols=a.cols))
    b = built_by_routes(grid, a.rows, a.cols,
                        other)[data.draw(st.sampled_from(ROUTES))]
    assert first_difference(a, b) == dense_first_difference(rows_of(a), grid)
    assert first_difference(b, a) == dense_first_difference(grid, rows_of(a))
    assert (first_difference(a, b) is None) == (a == b)


def test_a_mat_from_every_route_refuses_assignment():
    g = Mat(2, 2, [[1, F(1, 2)], [0, 3]])
    built = [g, Mat.from_rowmaps(2, 3, [{0: 1}, {2: F(2, 3)}]),
             Mat.identity(3), mul(g, g), exactmat.whisker(g, 2, 1),
             exactmat._canon(1, 2, ({0: 2, 1: 4},), 6)]
    for m in built:
        for name in ("rows", "cols", "rowmaps", "den"):
            before = getattr(m, name)
            with pytest.raises(AttributeError):
                setattr(m, name, 0)
            with pytest.raises(AttributeError, match="Mat is immutable"):
                delattr(m, name)
            assert getattr(m, name) is before
    f = TensorMap((2,), (2,), g)
    for tm in (lift(f, 1, 0), tensor(f, f), compose([f, f])):
        with pytest.raises(dataclasses.FrozenInstanceError):
            tm.dom = (4,)
        assert tm.dom in ((2, 2), (2,))


@given(st.data())
def test_section_of_cokernel_projection_is_its_unit_column_inclusion(data):
    # the projections the galois layer factors through: cokernel_projection
    # and its tensor product with an identity
    m = data.draw(sparse_mats())
    proj = kron(cokernel_projection(m),
                Mat.identity(data.draw(st.integers(1, 3))))
    t = proj.rows
    target = mul(data.draw(sparse_mats(cols=t)), proj)
    sec = section(proj)
    assert mul(proj, sec) == Mat.identity(t)
    assert [v for _, _, v in sec.items()] == [1] * t
    assert mul(target, sec) == mul(target, solve(proj, Mat.identity(t))[1])


def test_section_reads_unit_columns_without_elimination(monkeypatch):
    def no_rref(m):
        raise AssertionError("rref called")

    monkeypatch.setattr(exactmat, "rref", no_rref)
    proj = Mat(2, 4, [[1, 2, 0, 1], [0, 3, 1, 0]])
    assert section(proj) == Mat(4, 2, [[1, 0], [0, 0], [0, 1], [0, 0]])


def test_section_without_unit_columns_falls_back_to_solve():
    proj = Mat(2, 3, [[1, 1, 0], [0, 2, 2]])
    sec = section(proj)
    assert mul(proj, sec) == Mat.identity(2)
    assert solve(proj, Mat.identity(2)) == (2, sec)
    assert section(Mat(2, 2, [[1, 1], [1, 1]])) is None


@given(st.data())
def test_equal_values_reached_two_ways_compare_and_hash_equal(data):
    a = data.draw(sparse_mats())
    b = data.draw(sparse_mats(rows=a.cols))
    product = mul(a, b)
    want = dense_mul(rows_of(a), rows_of(b), b.cols)
    direct = Mat.from_rowmaps(a.rows, b.cols, [
        dict(enumerate(row)) for row in want])
    assert product == direct and hash(product) == hash(direct)
    c = data.draw(sparse_mats(rows=a.rows, cols=a.cols))
    back = (a - c) + c
    assert rows_of(back) == rows_of(a)
    assert back == a and hash(back) == hash(a)


def test_sum_and_difference_over_unequal_denominators():
    a = Mat(2, 2, [[F(1, 2), F(1, 3)], [0, 1]])
    b = Mat(2, 2, [[F(1, 2), F(2, 3)], [F(1, 4), 0]])
    assert (a.den, b.den) == (6, 12)
    total = a + b
    assert rows_of(total) == [[1, 1], [F(1, 4), 1]] and total.den == 4
    diff = a - b
    assert rows_of(diff) == [[0, F(-1, 3)], [F(-1, 4), 1]] and diff.den == 12
    assert rows_of(a - a) == [[0, 0], [0, 0]] and (a - a).den == 1
    assert first_difference(a, b) == (0, 1)
    assert first_difference(a, a + Mat(2, 2, [[0, 0], [0, 0]])) is None


def test_views_give_ints_for_integral_entries():
    m = Mat(2, 2, [[F(4, 2), F(1, 2)], [F(-3, 1), 0]])
    assert m.den == 2 and m.rowmaps == ({0: 4, 1: 1}, {0: -6})
    for value in (m.data[0][0], m.data[1][0], list(m.items())[0][2]):
        assert value.__class__ is int
    assert m.data == ((2, F(1, 2)), (-3, 0))
    assert list(m.items()) == [(0, 0, 2), (0, 1, F(1, 2)), (1, 0, -3)]
    # a product whose denominators cancel comes back with den 1
    twice = mul(m, Mat(2, 2, [[2, 0], [0, 2]]))
    assert twice.den == 1 and twice.data == ((4, 1), (-6, 0))


@given(sparse_mats())
def test_relabel_by_swapping_indices_is_the_transpose(m):
    swapped = m.relabel(m.cols, m.rows, lambda i, j: (j, i))
    assert swapped == m.transpose()
    dense = rows_of(m)
    assert rows_of(swapped) == [[dense[i][j] for i in range(m.rows)]
                                for j in range(m.cols)]
