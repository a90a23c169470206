import pytest

from weakhopf import bimonad as bm
from weakhopf import entwining as ew
from weakhopf import baseobject as bo
from weakhopf import galois as gl
from weakhopf import hopf
from weakhopf import instances as inst
from weakhopf.errors import GaloisNotInvertible
from weakhopf.exactmat import Mat


def test_check_antipode_groupoid_inverse(g2):
    s = inst.groupoid_antipode(inst.full_groupoid(2))
    report = hopf.check_antipode(g2.bim, g2.entwining, s)
    assert report.passed, report.failed_ids()


def test_identity_is_not_an_antipode_for_g2(g2):
    report = hopf.check_antipode(g2.bim, g2.entwining, g2.bim.id1())
    # g_ij g_ij = 0 for i != j, so 1*S misses xi
    assert not report.entry("hopf.one-conv-S").holds


def test_identity_is_an_antipode_for_z2(z2):
    report = hopf.check_antipode(z2.bim, z2.entwining, z2.bim.id1())
    assert report.passed


def test_construction_recovers_groupoid_inverse(g2):
    antipode = hopf.construct_antipode_from_galois(g2.bim, g2.entwining, g2.base,
                                                   g2.galois)
    assert antipode.origin == "from_galois"
    assert antipode.map == inst.groupoid_antipode(inst.full_groupoid(2))


def test_construction_on_superline_flips_sign(sl):
    antipode = hopf.construct_antipode_from_galois(sl.bim, sl.entwining, sl.base,
                                                   sl.galois)
    assert antipode.map.mat == Mat.from_rows([[1, 0], [0, -1]])


def test_construction_on_z2_is_identity(z2):
    antipode = hopf.construct_antipode_from_galois(z2.bim, z2.entwining, z2.base,
                                                   z2.galois)
    assert antipode.map == z2.bim.id1()


def test_construction_refuses_singular_gamma(nz):
    with pytest.raises(GaloisNotInvertible) as err:
        hopf.construct_antipode_from_galois(nz.bim, nz.entwining, nz.base, nz.galois)
    assert err.value.rank == 3


def test_linear_solve_proves_nz_has_no_antipode(nz):
    result = hopf.solve_antipode_linear(nz.bim, nz.entwining)
    assert result.status == "no_solution"
    assert result.antipode is None


def test_linear_solve_finds_antipodes(g2, sl, z2, k2):
    for pipe in (g2, sl, z2, k2):
        result = hopf.solve_antipode_linear(pipe.bim, pipe.entwining)
        assert result.status == "found"
        report = hopf.check_antipode(pipe.bim, pipe.entwining, result.antipode.map)
        assert report.passed, report.failed_ids()
    assert hopf.solve_antipode_linear(sl.bim, sl.entwining).antipode.map.mat == \
        Mat.from_rows([[1, 0], [0, -1]])


def test_fundamental_verdicts_agree(any_pipeline):
    verdict = hopf.fundamental_verdict(any_pipeline.bim)
    name = any_pipeline.bim.name.lower()
    assert verdict.hopf is (name != "nz")
    assert verdict.gamma_invertible == verdict.gamma_prime_invertible
    if verdict.linear_status != "inconclusive":
        assert (verdict.linear_status == "found") == verdict.hopf
    if verdict.hopf:
        assert verdict.antipode_report.passed
        assert verdict.roundtrip_report.passed


def test_derived_antipode_absorptions(g2, sl):
    # S*1*S = S*xi = S implies xibar*S = S and S*xi = S for each construction
    for pipe in (g2, sl):
        bim, ent = pipe.bim, pipe.entwining
        built = hopf.construct_antipode_from_galois(bim, ent, pipe.base,
                                                    pipe.galois)
        solved = hopf.solve_antipode_linear(bim, ent).antipode
        for antipode in (built, solved):
            s = antipode.map
            assert bim.convolve(ent.xibar, s) == s
            assert bim.convolve(s, ent.xi) == s


def test_both_construction_paths_reported_without_uniqueness_claim(g2):
    built = hopf.construct_antipode_from_galois(g2.bim, g2.entwining, g2.base, g2.galois)
    solved = hopf.solve_antipode_linear(g2.bim, g2.entwining).antipode
    # no uniqueness assertion; both must simply pass the defining conditions
    for antipode in (built, solved):
        assert hopf.check_antipode(g2.bim, g2.entwining, antipode.map).passed


def test_dual_instances_share_the_verdict():
    for name in ("g2", "z2", "sl", "k2", "nz"):
        bim = inst.BUILTINS[name]()
        dual = inst.dual_instance(bim)
        assert bm.instance_passes(dual)
        if name == "nz":
            ent = ew.build_entwining(dual)
            base = bo.build_base(dual, ent)
            acts = bo.build_actions(dual, base)
            gal_data = gl.build_galois(dual, ent, base, acts)
            assert not gal_data.gamma_invertible
        else:
            verdict = hopf.fundamental_verdict(dual)
            assert verdict.hopf


def test_dual_of_g2_has_base_dim_two():
    dual = inst.dual_instance(inst.g2())
    ent = ew.build_entwining(dual)
    base = bo.build_base(dual, ent)
    assert base.r == 2


def test_dual_is_an_involution(any_pipeline):
    bim = any_pipeline.bim
    double = inst.dual_instance(inst.dual_instance(bim))
    assert double.m == bim.m and double.e == bim.e
    assert double.delta == bim.delta and double.eps == bim.eps
    assert double.tau == bim.tau and double.tau_prime == bim.tau_prime
