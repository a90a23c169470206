import math
import sys
from concurrent.futures import ThreadPoolExecutor
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from weakhopf import instances as inst
from weakhopf import tensorexpr as tx
from weakhopf.errors import (ArityMismatch, DimensionMismatch, ExprSyntaxError,
                             FactorizationFailed, NotIdempotent)
from weakhopf.exactmat import Mat, rank
from weakhopf.tensorexpr import (
    TensorMap,
    coequaliser,
    compose,
    equaliser,
    factor_through,
    flip_map,
    hmap,
    identity_map,
    lift,
    parse_expr,
    split,
    tensor,
    transpose,
)

F = Fraction
rationals = st.fractions(min_value=-3, max_value=3, max_denominator=4)


def endo(n):
    return st.lists(
        st.lists(rationals, min_size=n, max_size=n), min_size=n, max_size=n
    ).map(lambda rows: hmap(n, 1, 1, Mat(n, n, rows)))


def test_lift_trivial_paddings():
    f = flip_map(2)
    assert lift(f, 0, 0) == f
    assert lift(identity_map((2,)), 1, 1) == identity_map((2, 2, 2))


def test_lift_flip_permutes_inner_indices():
    big = lift(flip_map(2), 1, 0)
    # basis e_(i,j,k) -> e_(i,k,j)
    for i in range(2):
        for j in range(2):
            for k in range(2):
                src = (i * 2 + j) * 2 + k
                dst = (i * 2 + k) * 2 + j
                col = [big.mat.data[r][src] for r in range(8)]
                assert col == [1 if r == dst else 0 for r in range(8)]


def test_compose_singleton_and_identities():
    f = flip_map(3)
    assert compose([f]) == f
    i2 = identity_map((3, 3))
    assert compose([i2, i2]) == i2


def test_compose_counit_law(z2, g2):
    for pipe in (z2, g2):
        bim = pipe.bim
        one = bim.id1()
        assert compose([bim.delta, tensor(bim.eps, one)]) == one
        assert compose([bim.delta, tensor(one, bim.eps)]) == one


def test_compose_is_associative(g2):
    bim = g2.bim
    f, g, h = bim.delta, lift(bim.delta, 0, 1), lift(bim.m, 1, 0)
    whole = compose([f, g, h])
    assert whole == compose([compose([f, g]), h])
    assert whole == compose([f, compose([g, h])])


def test_compose_arity_error_names_offending_pair():
    with pytest.raises(ArityMismatch) as err:
        compose([flip_map(2), identity_map((2, 2, 2))])
    assert "step 0" in str(err.value) and "step 1" in str(err.value)


def test_lift_respects_composition(g2):
    bim = g2.bim
    fg = compose([bim.delta, bim.m])
    assert lift(fg, 1, 1) == compose([lift(bim.delta, 1, 1),
                                      lift(bim.m, 1, 1)])


@settings(max_examples=15)
@given(endo(2))
def test_convolution_unit_on_ordinary_bialgebra(f):
    bim = inst.z2()
    unit = compose([bim.eps, bim.e])
    assert bim.convolve(unit, f) == f
    assert bim.convolve(f, unit) == f


def test_convolution_id_with_antipode_gives_xi(g2):
    bim, ent = g2.bim, g2.entwining
    s = inst.groupoid_antipode(inst.full_groupoid(2))
    # structure constants: g_ij g_ji = g_ii, so id * S collapses to xi
    assert bim.convolve(bim.id1(), s) == ent.xi


def test_convolution_xi_idempotent(g2):
    assert g2.bim.convolve(g2.entwining.xi, g2.entwining.xi) == g2.entwining.xi


@settings(max_examples=10, deadline=None)
@given(f=endo(4), g=endo(4), h=endo(4))
def test_convolution_associative(g2, f, g, h):
    bim = g2.bim
    left = bim.convolve(bim.convolve(f, g), h)
    right = bim.convolve(f, bim.convolve(g, h))
    assert left == right


def test_transpose_reverses_composites_and_keeps_tensor_products(g2):
    m, delta, tau = g2.bim.m, g2.bim.delta, g2.bim.tau
    assert transpose(m).dom == m.cod and transpose(m).cod == m.dom
    assert transpose(transpose(m)) == m
    assert transpose(compose([tau, m])) == compose([transpose(m), transpose(tau)])
    assert transpose(tensor(m, delta)) == tensor(transpose(m), transpose(delta))
    assert transpose(lift(m, 1, 0)) == lift(transpose(m), 1, 0)


def test_split_recomposes_the_idempotent_and_retracts(any_pipeline):
    ent = any_pipeline.entwining
    for e in (ent.kappa, ent.kappa_prime, ent.xibar, ent.xi):
        p, i = split(e)
        assert p.dom == e.dom and i.cod == e.cod and p.cod == i.dom
        assert compose([p, i]) == e
        assert compose([i, p]) == identity_map(p.cod)


def test_split_refuses_a_map_that_is_not_idempotent(g2):
    with pytest.raises(NotIdempotent):
        split(hmap(2, 1, 1, Mat(2, 2, [[2, 1], [0, 1]])))
    with pytest.raises(NotIdempotent):
        split(g2.bim.tau)  # an involution other than the identity


def test_equaliser_equalises_the_pair(any_pipeline):
    bim, ent, acts = any_pipeline.bim, any_pipeline.entwining, \
        any_pipeline.actions
    one = bim.id1()
    # the base and the cotensor of the base object and the Galois stage
    pairs = [(compose([bim.delta, tensor(ent.chi, one)]), bim.delta),
             (tensor(acts.theta_r, one), tensor(one, acts.theta_l))]
    for f, g in pairs:
        incl = equaliser(f, g)
        assert incl.cod == f.dom
        assert compose([incl, f]) == compose([incl, g])
        # injective, and as large as the kernel of f - g
        assert rank(incl.mat) == incl.dom[0] == f.mat.cols - rank(
            f.mat - g.mat)


def test_coequaliser_coequalises_the_pair(any_pipeline):
    bim, ent, acts = any_pipeline.bim, any_pipeline.entwining, \
        any_pipeline.actions
    one = bim.id1()
    pairs = [(tensor(acts.rho_r, one), tensor(one, acts.rho_l)),
             (compose([tensor(ent.chibar, one), bim.m]), bim.m)]
    for f, g in pairs:
        proj = coequaliser(f, g)
        assert proj.dom == f.cod
        assert compose([f, proj]) == compose([g, proj])
        # surjective, onto the cokernel of f - g
        assert rank(proj.mat) == proj.cod[0] == f.mat.rows - rank(
            f.mat - g.mat)


def test_factor_through_finds_the_unique_factor(g2):
    bim, acts = g2.bim, g2.actions
    one = bim.id1()
    proj = coequaliser(tensor(acts.rho_r, one), tensor(one, acts.rho_l))
    target = compose([proj, transpose(proj)])
    g = factor_through(target, proj, "test")
    assert g.dom == proj.cod and g.cod == target.cod
    assert compose([proj, g]) == target
    # a target that does not vanish on the relations has no factor
    with pytest.raises(FactorizationFailed,
                       match="^test: map does not factor through quotient$"):
        factor_through(identity_map(proj.dom), proj, "test")


def test_factor_through_rejects_a_non_surjective_projection():
    proj = TensorMap((2,), (2,), Mat(2, 2, [[1, 0], [0, 0]]))
    target = TensorMap((2,), (1,), Mat(1, 2, [[1, 0]]))
    with pytest.raises(FactorizationFailed,
                       match="^test: projection is not surjective$"):
        factor_through(target, proj, "test")


def test_convolution_primitive_signature(z2):
    bim = z2.bim
    one = bim.id1()
    assert bim.convolve(one, one) == compose([bim.delta, bim.m])
    with pytest.raises(ArityMismatch, match="two endomaps"):
        bim.convolve(one, bim.delta)


def test_parse_triple_product(g2):
    bim = g2.bim
    env = {"m": bim.m}
    got = parse_expr("m ∘ (id^1 ⊗ m)", env)
    assert got == compose([lift(bim.m, 1, 0), bim.m])
    assert parse_expr("m o (id^1 x m)", env) == got


def test_parse_eps_after_m(g2):
    bim = g2.bim
    got = parse_expr("eps ∘ m", {"m": bim.m, "eps": bim.eps})
    assert got.dom == (4, 4) and got.cod == ()
    assert got == compose([bim.m, bim.eps])


def test_parse_matches_structure_constants(g2):
    bim = g2.bim
    env = {"m": bim.m, "tau": bim.tau, "delta": bim.delta}
    got = parse_expr("m ∘ tau ∘ delta", env)
    # by hand: g -> m(tau(g (x) g)) = g*g, nonzero exactly on idempotent arrows
    arrows = [(0, 0), (0, 1), (1, 0), (1, 1)]
    expect = Mat.from_rowmaps(4, 4, [
        {k: 1} if u == v else {} for k, (u, v) in enumerate(arrows)])
    assert got.mat == expect


def test_parse_syntax_error_position():
    with pytest.raises(ExprSyntaxError) as err:
        parse_expr("m ∘ (", {"m": flip_map(2)})
    assert err.value.pos == 5
    with pytest.raises(ExprSyntaxError):
        parse_expr("m $", {"m": flip_map(2)})


@pytest.mark.parametrize("text, message, pos", [
    ("m ∘", "unexpected end of expression", 3),
    ("(m", "expected ')', found end of expression", 2),
    ("id", "expected '^', found end of expression", 2),
    ("id^", "expected an integer, found end of expression", 3),
    ("(m m", "expected ')', found token 'm'", 3),
    ("m )", "expected end of expression, found token ')'", 2),
    ("m ∘ )", "unexpected token ')'", 4),
])
def test_parse_errors_name_the_expected_symbol_and_the_end(text, message,
                                                           pos):
    with pytest.raises(ExprSyntaxError) as err:
        parse_expr(text, {"m": flip_map(2)})
    assert str(err.value) == f"{message} (at position {pos})"
    assert err.value.pos == pos


def test_parse_refuses_a_name_bound_to_a_reason_with_that_reason():
    env = {"m": flip_map(2), "kappa": "needs an instance whose axioms pass"}
    with pytest.raises(ExprSyntaxError) as err:
        parse_expr("m ∘ kappa", env)
    assert str(err.value) == ("'kappa' needs an instance whose axioms pass "
                              "(at position 4)")
    with pytest.raises(ExprSyntaxError, match="needs an instance"):
        parse_expr("kappa", env)


@pytest.mark.parametrize("text", ["(" * 2000 + "m" + ")" * 2000])
def test_parse_refuses_a_tree_deeper_than_the_recursion_limit(text, g2):
    # only parentheses nest: a flat chain is one compose or tensor
    with pytest.raises(ExprSyntaxError, match="nested too deeply"):
        parse_expr(text, {"m": g2.bim.m})


def test_parse_evaluates_a_long_flat_chain_as_one_composite(g2):
    text = " ∘ ".join(["id^1"] * 3000 + ["m"])
    assert parse_expr(text, {"m": g2.bim.m}) == g2.bim.m


def test_parse_reports_the_first_error_in_reading_order(g2):
    with pytest.raises(ExprSyntaxError, match="unknown name 'nosuch'"):
        parse_expr("nosuch ∘ (", {"m": g2.bim.m})


@pytest.mark.parametrize("text, base_dim, what, pos", [
    ("id^2 ⊗ m", 4, "id^2", 0),                # 16 x 16
    ("id^99999999999999999999", 4, "id^99999999999999999999", 0),
    ("delta ⊗ eps", 4, "⊗ chain", 8),          # 64 x 4
    ("delta ∘ m", 4, "∘ chain", 0),            # 16 x 16, from two maps of 64
    ("id^33", 1, "id^33", 0),                  # 1 x 1 over 66 factors
    ("id^16 ⊗ id^17", 1, "⊗ chain", 8),
])
def test_parse_refuses_a_map_above_the_entry_bound(text, base_dim, what, pos,
                                                   g2):
    env = {"m": g2.bim.m, "delta": g2.bim.delta, "eps": g2.bim.eps}
    with pytest.raises(ExprSyntaxError) as err:
        parse_expr(text, env, base_dim=base_dim, max_entries=64)
    assert str(err.value).startswith(f"{what} exceeds the bound of 64 entries")
    assert err.value.pos == pos
    assert parse_expr("id^16 ⊗ id^16", env, base_dim=1,
                      max_entries=64).dom == (1,) * 32


def test_parse_unknown_name_and_arity_error(g2):
    bim = g2.bim
    with pytest.raises(ExprSyntaxError):
        parse_expr("nosuch", {"m": bim.m})
    with pytest.raises(ArityMismatch):
        parse_expr("m ∘ m", {"m": bim.m})


def test_tensor_map_shape_guard():
    with pytest.raises(Exception):
        TensorMap((2,), (2,), Mat(3, 2, [[0, 0]] * 3))


def test_threads_reading_one_lazy_matrix_get_equal_results():
    # two threads may both build a map's matrix on first read; each must
    # build the same one, and compose must not see a half-built map
    bim = inst.g2()

    def shared_maps():
        return [lift(bim.delta, 1, 1), tensor(bim.m, bim.m),
                tensor(bim.delta, bim.delta), lift(bim.tau, 0, 1),
                identity_map((4, 4))]

    def read(maps):
        return ([compose([maps[2], maps[1]]).mat,
                 compose([maps[3], maps[0]]).mat]
                + [f.mat for f in maps])

    want = read(shared_maps())
    maps = shared_maps()
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        with ThreadPoolExecutor(max_workers=8) as pool:
            got = list(pool.map(read, [maps] * 16, timeout=120))
    finally:
        sys.setswitchinterval(interval)
    assert got == [want] * 16


def test_reading_a_matrix_leaves_the_steps_as_they_were(g2):
    # a map's steps are fixed when it is made: building its matrix only
    # keeps the matrix, and a composite through the map does not change
    bim = g2.bim
    lifted, both = lift(bim.m, 1, 0), tensor(bim.delta, bim.m)
    steps = (lifted.steps, both.steps)
    before = compose([both, lifted]).mat
    lifted.mat, both.mat  # builds and keeps both matrices
    assert (lifted.steps, both.steps) == steps
    assert compose([both, lifted]).mat == before


# ---------------------------------------------------------------------------
# compose against a dense Fraction product, on chains with wide middles
# ---------------------------------------------------------------------------

def dense(m):
    return [[F(v) for v in row] for row in m.data]


def dense_product(a, b):
    """The dense matrix product a * b."""
    return [[sum((x * b[k][j] for k, x in enumerate(row)), F(0))
             for j in range(len(b[0]))] for row in a]


def dense_kron(a, b):
    return [[x * y for x in ra for y in rb] for ra in a for rb in b]


def dense_eye(size):
    return [[F(int(i == j)) for j in range(size)] for i in range(size)]


def assert_canonical(m):
    """Int numerators, no stored zero, a positive denominator in lowest
    terms with them."""
    assert m.den.__class__ is int and m.den > 0
    values = [v for row in m.rowmaps for v in row.values()]
    assert all(v.__class__ is int and v != 0 for v in values)
    assert math.gcd(m.den, *values) == 1


@st.composite
def sparse_rows(draw, rows, cols):
    """A rows x cols matrix whose rows are empty, hold one entry 1 or -1,
    hold one entry that is not a unit, or are drawn at random in full."""
    maps = []
    for _ in range(rows):
        kind = draw(st.sampled_from(["empty", "unit", "fraction", "full"]))
        j = draw(st.integers(0, cols - 1))
        if kind == "empty":
            maps.append({})
        elif kind == "unit":
            maps.append({j: draw(st.sampled_from([1, -1]))})
        elif kind == "fraction":
            maps.append({j: draw(st.sampled_from([F(1, 2), F(-2, 3), 2]))})
        else:
            maps.append({k: draw(rationals) for k in range(cols)})
    return Mat.from_rowmaps(rows, cols, maps)


@st.composite
def wide_chains(draw):
    """A compose chain over a carrier of dimension n whose arity rises from
    its domain to a middle above both ends and falls again, made of lifts
    and tensor products of small matrices, with the dense matrix of each
    map."""
    n = draw(st.integers(2, 3))
    top = 4 if n == 2 else 3
    first, last = draw(st.integers(0, top - 2)), draw(st.integers(0, top - 2))
    middle = draw(st.integers(max(first, last) + 1, top))
    arities = ([first] + list(range(first + 1, middle + 1))
               + list(range(middle - 1, last - 1, -1)))
    chain, want = [], []
    for a, b in zip(arities, arities[1:]):
        # a window of up to two factors that gains or loses one factor,
        # beside identities
        p = draw(st.integers(0, min(a, 1)) if a < b
                 else st.integers(1, min(a, 2)))
        q = p + b - a
        left = draw(st.integers(0, a - p))
        right = a - p - left
        g = TensorMap((n,) * p, (n,) * q, draw(sparse_rows(n ** q, n ** p)))
        chain.append(lift(g, left, right) if draw(st.booleans()) else
                     tensor(identity_map((n,) * left), g,
                            identity_map((n,) * right)))
        want.append(dense_kron(dense_kron(dense_eye(n ** left), dense(g.mat)),
                               dense_eye(n ** right)))
    return chain, want


@settings(max_examples=40, deadline=None)
@given(wide_chains())
def test_compose_of_a_wide_chain_is_the_dense_product(chain_and_dense):
    chain, want = chain_and_dense
    product = want[0]
    for step in want[1:]:
        product = dense_product(step, product)
    got = compose(chain)
    assert dense(got.mat) == product
    assert_canonical(got.mat)
    # the network and the running product agree, whichever compose chose
    steps = [s for f in chain for s in f.steps]
    dom, cod = chain[0].dom, chain[-1].cod
    if len(steps) > 1:
        for mat in (tx._network(dom, steps),
                    tx._running(math.prod(dom), math.prod(cod), steps)):
            assert mat == got.mat
            assert_canonical(mat)
