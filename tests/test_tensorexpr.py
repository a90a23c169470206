from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from weakhopf import instances as inst
from weakhopf.errors import ArityMismatch, ExprSyntaxError
from weakhopf.exactmat import Mat
from weakhopf.tensorexpr import (
    TensorMap,
    compose,
    convolution,
    flip_map,
    hmap,
    identity_map,
    lift,
    parse_expr,
    tensor,
)

F = Fraction
rationals = st.fractions(min_value=-3, max_value=3, max_denominator=4)


def endo(n):
    return st.lists(
        st.lists(rationals, min_size=n, max_size=n), min_size=n, max_size=n
    ).map(lambda rows: hmap(n, 1, 1, Mat.from_rows(rows)))


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
    unit = bim.conv_unit()
    assert bim.convolve(unit, f) == f
    assert bim.convolve(f, unit) == f


def test_convolution_id_with_antipode_gives_xi(g2):
    bim, ent = g2.bim, g2.entwining
    s = inst.groupoid_antipode(inst.full_groupoid(2))
    # structure constants: g_ij g_ji = g_ii, so id * S collapses to xi
    assert bim.convolve(bim.id1(), s) == ent.xi


def test_convolution_xi_idempotent(g2):
    assert g2.bim.convolve(g2.entwining.xi, g2.entwining.xi) == g2.entwining.xi


@settings(max_examples=10)
@given(endo(4), endo(4), endo(4))
def test_convolution_associative(f, g, h):
    bim = inst.g2()
    left = bim.convolve(bim.convolve(f, g), h)
    right = bim.convolve(f, bim.convolve(g, h))
    assert left == right


def test_convolution_primitive_signature(z2):
    bim = z2.bim
    one = bim.id1()
    assert convolution(one, one, bim.m, bim.delta) == \
        compose([bim.delta, bim.m])


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
    expect = Mat.from_entries(4, 4, {
        (k, k): 1 for k, (u, v) in enumerate(arrows) if u == v
    })
    assert got.mat == expect


def test_parse_syntax_error_position():
    with pytest.raises(ExprSyntaxError) as err:
        parse_expr("m ∘ (", {"m": flip_map(2)})
    assert err.value.pos == 5
    with pytest.raises(ExprSyntaxError):
        parse_expr("m $", {"m": flip_map(2)})


def test_parse_unknown_name_and_arity_error(g2):
    bim = g2.bim
    with pytest.raises(ExprSyntaxError):
        parse_expr("nosuch", {"m": bim.m})
    with pytest.raises(ArityMismatch):
        parse_expr("m ∘ m", {"m": bim.m})


def test_tensor_map_shape_guard():
    with pytest.raises(Exception):
        TensorMap((2,), (2,), Mat.zeros(3, 2))
