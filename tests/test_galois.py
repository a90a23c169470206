import pytest

from weakhopf import galois as gl
from weakhopf import hopf
from weakhopf import instances as inst
from weakhopf.errors import NotInvertible
from weakhopf.exactmat import Mat, kernel_basis
from weakhopf.tensorexpr import compose, hmap, tensor


EXPECTED = {
    # name: (t, gamma invertible, gamma rank)
    "g2": (8, True, 8),
    "k2": (2, True, 2),
    "z2": (4, True, 4),
    "sl": (4, True, 4),
    "nz": (4, False, 3),
}


def test_tensor_dim_and_gamma_verdicts(any_pipeline):
    t, invertible, rank = EXPECTED[any_pipeline.bim.name.lower()]
    gal = any_pipeline.galois
    assert gal.tensor_dim == t
    assert gal.gamma_invertible is invertible
    assert gal.gamma_rank == rank
    # theorem 7.7 (d) <=> (e): the primed side mirrors the verdict
    assert gal.gamma_prime_invertible is invertible


def test_gamma_factorization_identity(any_pipeline):
    ent, gal = any_pipeline.entwining, any_pipeline.galois
    assert compose([gal.l, gal.gamma]) == compose([ent.sigma, ent.pbar()])


def test_gamma_prime_factorization_identity(any_pipeline):
    ent, gal = any_pipeline.entwining, any_pipeline.galois
    assert compose([gal.gamma_prime, gal.can]) == \
        compose([ent.ibar_prime(), ent.sigmabar])


def test_qtilde_identity(any_pipeline):
    bim, base, gal = any_pipeline.bim, any_pipeline.base, any_pipeline.galois
    one = bim.id1()
    assert compose([gal.l, gal.q_tilde]) == \
        compose([tensor(base.xibar_map(), one), bim.m])


def test_z2_gamma_is_classical_translation_map(z2):
    # gamma = sigma: g (x) h -> g (x) gh on the group basis
    gal = z2.galois
    table = inst.cyclic_group_table(2)
    expect = Mat.from_entries(4, 4, {
        (g * 2 + table[g][h], g * 2 + h): 1 for g in range(2) for h in range(2)
    })
    assert gal.l.mat == Mat.identity(4)
    assert gal.gamma.mat == expect


def test_nz_rank_deficiency_witness(nz):
    gal = nz.galois
    assert gal.gamma.mat.rows == 4 and gal.gamma.mat.cols == 4
    with pytest.raises(NotInvertible) as err:
        gl.gamma_inverse(gal)
    assert err.value.rank == 3


def test_k2_tensor_collapses_to_carrier(k2):
    # H (x)_H H is H itself, and q_tilde . l = m since xibar = id
    bim, gal = k2.bim, k2.galois
    assert gal.tensor_dim == 2
    assert compose([gal.l, gal.q_tilde]) == bim.m


def test_z2_qtilde_is_counit_collapse(z2):
    # xibar = e.eps, so q_tilde(l(g (x) h)) = eps(g) h, which differs from m
    bim, gal = z2.bim, z2.galois
    collapse = compose([tensor(bim.conv_unit(), bim.id1()), bim.m])
    assert compose([gal.l, gal.q_tilde]) == collapse
    assert compose([gal.l, gal.q_tilde]) != bim.m


def test_cotensor_dims_match_tbar(any_pipeline):
    gal = any_pipeline.galois
    assert gal.cotensor_dim == gal.can.mat.cols
    assert gal.gamma_prime.mat.rows == gal.cotensor_dim
    assert gal.gamma_prime.mat.cols == gal.tbar_dim


def test_galois_structure_report(any_pipeline):
    assert any_pipeline.galois.report.passed


def test_convolution_cancellation_property(any_pipeline):
    # Prop: if gamma is surjective and f*1 = g*1 then f*xi = g*xi.  The
    # condition is linear, so it suffices to check the kernel of f -> f*1.
    if not any_pipeline.galois.gamma_invertible:
        pytest.skip("gamma not surjective on this instance")
    bim, ent = any_pipeline.bim, any_pipeline.entwining
    n = bim.n
    one = bim.id1()
    cols = []
    for p in range(n):
        for q in range(n):
            basis = hmap(n, 1, 1, Mat.from_entries(n, n, {(p, q): 1}))
            image = bim.convolve(basis, one)
            cols.append([v for row in image.mat.data for v in row])
    op = Mat(n * n, n * n, [[cols[j][i] for j in range(n * n)]
                            for i in range(n * n)])
    for j in range(kernel_basis(op).cols):
        col = [kernel_basis(op).data[i][j] for i in range(n * n)]
        h = hmap(n, 1, 1, Mat(n, n, [col[i * n:(i + 1) * n] for i in range(n)]))
        assert bim.convolve(h, one).mat.is_zero_mat()
        assert bim.convolve(h, ent.xi).mat.is_zero_mat()


def test_remark_inverses_on_hopf_instances(g2, z2, sl):
    for pipe in (g2, z2, sl):
        antipode = hopf.construct_antipode_from_galois(
            pipe.bim, pipe.entwining, pipe.base, pipe.galois)
        report = gl.check_remark_inverses(pipe.bim, pipe.entwining, pipe.base,
                                          pipe.galois, antipode)
        assert report.passed, report.failed_ids()


def test_remark_formula_reproduces_exact_inverse(g2):
    antipode = hopf.construct_antipode_from_galois(g2.bim, g2.entwining, g2.base,
                                                   g2.galois)
    from weakhopf.tensorexpr import lift

    gamma_inv = gl.gamma_inverse(g2.galois)
    one = g2.bim.id1()
    formula = compose([
        g2.entwining.ibar(), lift(g2.bim.delta, 0, 1),
        tensor(one, antipode.map, one), lift(g2.bim.m, 1, 0), g2.galois.l,
    ])
    assert formula == gamma_inv
