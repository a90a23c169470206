from fractions import Fraction

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from weakhopf import exactmat
from weakhopf.bimonad import first_difference
from weakhopf.errors import DimensionMismatch, NotIdempotent, NotInvertible
from weakhopf.exactmat import (
    Mat,
    cokernel_projection,
    invert,
    kernel_basis,
    kron,
    mul,
    rank,
    rref,
    section,
    solve,
    split_idempotent,
    tolerance,
)
from weakhopf.tensorexpr import TensorMap, lift

F = Fraction


def perm_mat(perm):
    n = len(perm)
    return Mat.from_entries(n, n, {(perm[j], j): 1 for j in range(n)})


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
    ).map(Mat.from_rows)


def test_mul_identity():
    m = Mat.from_rows([[1, 2], [F(1, 3), 4], [0, 5]])
    assert mul(Mat.identity(3), m) == m
    assert mul(m, Mat.identity(2)) == m


def test_mul_scalar_case():
    assert mul(Mat.from_rows([[2]]), Mat.from_rows([[F(1, 2)]])) == \
        Mat.from_rows([[1]])


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
    flip = Mat.from_entries(4, 4, {(j * 2 + i, i * 2 + j): 1
                                   for i in range(2) for j in range(2)})
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
    s = split_idempotent(Mat.identity(3))
    assert s.rank == 3
    assert s.p == Mat.identity(3) and s.i == Mat.identity(3)


def test_split_zero():
    s = split_idempotent(Mat.zeros(4, 4))
    assert s.rank == 0
    assert s.p.rows == 0 and s.i.cols == 0


def test_split_diagonal_picks_leading_columns():
    e = Mat.from_entries(4, 4, {(0, 0): 1, (1, 1): 1})
    s = split_idempotent(e)
    assert s.rank == 2
    # echelon by hand: pivot columns 0 and 1, i.e. the first two basis vectors
    assert s.i == Mat.from_entries(4, 2, {(0, 0): 1, (1, 1): 1})
    assert mul(s.i, s.p) == e
    assert mul(s.p, s.i) == Mat.identity(2)


def test_split_rejects_non_idempotent():
    with pytest.raises(NotIdempotent):
        split_idempotent(Mat.from_rows([[2]]))


@settings(max_examples=30)
@given(st.lists(st.sampled_from([0, 1]), min_size=3, max_size=3),
       st.permutations(range(3)))
def test_split_invariants_for_conjugated_projections(diag, perm):
    p = perm_mat(perm)
    d = Mat.from_entries(3, 3, {(i, i): v for i, v in enumerate(diag)})
    e = mul(mul(p, d), p.transpose())
    s = split_idempotent(e)
    assert mul(s.p, s.i) == Mat.identity(s.rank)
    assert mul(s.i, s.p) == e
    assert s.rank == sum(diag)


def test_kernel_single_row():
    # solve by hand: x0 + x1 = 0, free variable x1 = 1
    basis = kernel_basis(Mat.from_rows([[1, 1]]))
    assert basis == Mat.from_rows([[-1], [1]])


def test_kernel_trivial_and_full():
    assert kernel_basis(Mat.identity(2)).cols == 0
    assert kernel_basis(Mat.zeros(2, 2)) == Mat.identity(2)


def test_cokernel_identity_and_zero():
    proj, dim = cokernel_projection(Mat.identity(2))
    assert dim == 0 and proj.rows == 0
    proj, dim = cokernel_projection(Mat.zeros(3, 2))
    assert dim == 3 and proj == Mat.identity(3)


def test_cokernel_column():
    m = Mat.from_rows([[1], [1]])
    proj, dim = cokernel_projection(m)
    assert dim == 1
    assert mul(proj, m).is_zero_mat()
    assert rank(proj) == 1


@settings(max_examples=25)
@given(mats(3, 2))
def test_cokernel_rank_complement(m):
    proj, dim = cokernel_projection(m)
    assert mul(proj, m).is_zero_mat()
    assert rank(proj) + rank(m) == 3
    assert dim == proj.rows


def test_invert_diagonal():
    assert invert(Mat.identity(3)) == Mat.identity(3)
    d = Mat.from_entries(2, 2, {(0, 0): 2, (1, 1): 3})
    assert invert(d) == Mat.from_entries(2, 2, {(0, 0): F(1, 2), (1, 1): F(1, 3)})


def test_invert_nz_galois_matrix_rank_witness():
    # sigma(x (x) y) = x (x) xy for the monoid {1, z | z^2 = z}; basis
    # (1x1, 1xz, zx1, zxz): z (x) 1 and z (x) z both land on z (x) z
    sigma = Mat.from_rows([
        [1, 0, 0, 0],
        [0, 1, 0, 0],
        [0, 0, 0, 0],
        [0, 0, 1, 1],
    ])
    assert gauss_rank_oracle(sigma.data) == 3
    with pytest.raises(NotInvertible) as err:
        invert(sigma)
    assert err.value.rank == 3


@settings(max_examples=20)
@given(mats(3, 3))
def test_rank_matches_independent_elimination(m):
    assert rank(m) == gauss_rank_oracle(m.data)


def test_operations_are_deterministic():
    e = Mat.from_entries(3, 3, {(0, 0): 1, (0, 1): 1, (2, 2): 1})
    first = split_idempotent(e)
    second = split_idempotent(e)
    assert first.p == second.p and first.i == second.i
    m = Mat.from_rows([[1, 2, 3], [2, 4, 6]])
    assert kernel_basis(m) == kernel_basis(m)
    assert cokernel_projection(m)[0] == cokernel_projection(m)[0]


# ---------------------------------------------------------------------------
# dense reference kernel: the oracle for the sparse one.  Plain lists of
# rows, first-nonzero pivoting, exactly as the kernel's contract states.
# ---------------------------------------------------------------------------

def dense_mul(a, b, cols):
    return [[sum((row[k] * b[k][j] for k in range(len(b))), F(0))
             for j in range(cols)] for row in a]


def dense_kron(a, b):
    return [[x * y for x in ra for y in rb] for ra in a for rb in b]


def dense_rref(rows, zero=lambda v: v == 0):
    rows = [list(r) for r in rows]
    ncols = len(rows[0]) if rows else 0
    pivots = []
    r = 0
    for c in range(ncols):
        pr = next((k for k in range(r, len(rows)) if not zero(rows[k][c])),
                  None)
        if pr is None:
            continue
        rows[r], rows[pr] = rows[pr], rows[r]
        inv = 1 / (rows[r][c] if isinstance(rows[r][c], float)
                   else F(rows[r][c]))
        rows[r] = [inv * v for v in rows[r]]
        for k in range(len(rows)):
            if k != r and not zero(rows[k][c]):
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
    """Dense rows of m, after checking its storage: no zeros, no Fraction
    with denominator 1."""
    for row in m.rowmaps:
        for v in row.values():
            assert v != 0
            assert not (isinstance(v, F) and v.denominator == 1)
    return [list(r) for r in m.data]


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
    assert m[0, 1] == F(1, 2) and m[1, 2] == 0
    assert list(m.items()) == [(0, 1, F(1, 2))]
    assert m == Mat.from_entries(2, 3, {(0, 1): F(1, 2), (1, 1): 0})
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


floats_with_tiny = st.one_of(
    st.just(0.0), st.just(1e-12), st.just(-3e-11),
    st.floats(min_value=-3, max_value=3, allow_nan=False))


@given(st.integers(0, 5), st.integers(0, 5), st.data())
def test_float_mode_rref_matches_dense_oracle(rows, cols, data):
    # float mode: values within the tolerance stay stored but never pivot
    grid = data.draw(st.lists(st.lists(floats_with_tiny, min_size=cols,
                                       max_size=cols),
                              min_size=rows, max_size=rows))
    m = Mat(rows, cols, grid)
    with tolerance(1e-9):
        red, pivots = rref(m)
    want, want_pivots = dense_rref(grid, zero=lambda v: abs(v) <= 1e-9)
    assert pivots == tuple(want_pivots)
    assert [[float(v) for v in row] for row in red.data] == \
        [[float(v) for v in row] for row in want]


@given(sparse_mats())
def test_kernel_basis_matches_dense_oracle(m):
    basis = kernel_basis(m)
    assert basis.rows == m.cols
    assert rows_of(basis) == dense_kernel(rows_of(m), m.cols)


@given(st.data())
def test_solve_matches_dense_oracle(data):
    a = data.draw(sparse_mats())
    b = data.draw(sparse_mats(rows=a.rows))
    x = solve(a, b)
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
    if len(pivots) < n:
        with pytest.raises(NotInvertible) as err:
            invert(m)
        assert err.value.rank == len(pivots)
    else:
        assert rows_of(invert(m)) == dense_solve(rows_of(m), identity, n, n)


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


@given(st.data())
def test_first_difference_matches_dense_scan(data):
    a = data.draw(sparse_mats())
    grid = rows_of(a)
    flips = data.draw(st.lists(st.tuples(st.integers(0, max(a.rows - 1, 0)),
                                         st.integers(0, max(a.cols - 1, 0)),
                                         sparse_rationals), max_size=3))
    for i, j, v in flips:
        if i < a.rows and j < a.cols:
            grid[i][j] = v
    b = Mat(a.rows, a.cols, grid)
    assert first_difference(a, b) == dense_first_difference(rows_of(a), grid)
    assert first_difference(b, a) == dense_first_difference(grid, rows_of(a))


@given(st.data())
def test_section_of_cokernel_projection_is_its_unit_column_inclusion(data):
    # the projections the galois layer factors through: cokernel_projection
    # and its tensor product with an identity
    m = data.draw(sparse_mats())
    proj, t = cokernel_projection(m)
    proj = kron(proj, Mat.identity(data.draw(st.integers(1, 3))))
    t = proj.rows
    target = mul(data.draw(sparse_mats(cols=t)), proj)
    sec = section(proj)
    assert mul(proj, sec) == Mat.identity(t)
    assert [v for _, _, v in sec.items()] == [1] * t
    assert mul(target, sec) == mul(target, solve(proj, Mat.identity(t)))


def test_section_reads_unit_columns_without_elimination(monkeypatch):
    def no_rref(m):
        raise AssertionError("rref called")

    monkeypatch.setattr(exactmat, "rref", no_rref)
    proj = Mat.from_rows([[1, 2, 0, 1], [0, 3, 1, 0]])
    assert section(proj) == Mat.from_rows([[1, 0], [0, 0], [0, 1], [0, 0]])


def test_section_without_unit_columns_falls_back_to_solve():
    proj = Mat.from_rows([[1, 1, 0], [0, 2, 2]])
    sec = section(proj)
    assert mul(proj, sec) == Mat.identity(2)
    assert sec == solve(proj, Mat.identity(2))
    assert section(Mat.from_rows([[1, 1], [1, 1]])) is None
