import pytest

from weakhopf import entwining as ew
from weakhopf import baseobject as bo
from weakhopf import galois as gl
from weakhopf import hopf
from weakhopf import instances as inst
from weakhopf.bimonad import WeakBraidedBimonad
from weakhopf.errors import GaloisNotInvertible
from weakhopf.exactmat import Mat
from weakhopf.pipeline import Pipeline
from weakhopf.tensorexpr import hmap


def test_check_antipode_groupoid_inverse(g2):
    s = inst.groupoid_antipode(inst.full_groupoid(2))
    report = hopf.check_antipode(g2.bim, g2.entwining, s)
    assert report.passed, report.failed_ids()


@pytest.mark.parametrize("antipode", ["inverse", "identity"])
def test_check_antipode_convolves_four_times(g2, monkeypatch, antipode):
    # 1*S and S*1 are each formed once and reused in S*1*S and 1*S*1
    s = (inst.groupoid_antipode(inst.full_groupoid(2)) if antipode == "inverse"
         else g2.bim.id1())
    bim, ent = g2.bim, g2.entwining
    want = hopf.check_antipode(bim, ent, s)
    calls = []
    convolve = WeakBraidedBimonad.convolve

    def counted(self, f, g):
        calls.append((f, g))
        return convolve(self, f, g)

    monkeypatch.setattr(WeakBraidedBimonad, "convolve", counted)
    report = hopf.check_antipode(bim, ent, s)
    assert len(calls) == 4
    assert report.to_jsonable() == want.to_jsonable()
    assert report.passed is (antipode == "inverse")


def test_identity_is_not_an_antipode_for_g2(g2):
    report = hopf.check_antipode(g2.bim, g2.entwining, g2.bim.id1())
    # g_ij g_ij = 0 for i != j, so 1*S misses xi
    assert not {e.axiom_id: e for e in report.entries}["hopf.one-conv-S"].holds


def test_identity_is_an_antipode_for_z2(z2):
    report = hopf.check_antipode(z2.bim, z2.entwining, z2.bim.id1())
    assert report.passed


def test_construction_recovers_groupoid_inverse(g2):
    antipode = hopf.construct_antipode_from_galois(g2.bim, g2.entwining,
                                                   g2.galois)
    assert antipode.origin == "from_galois"
    assert antipode.map == inst.groupoid_antipode(inst.full_groupoid(2))


def test_construction_on_superline_flips_sign(sl):
    antipode = hopf.construct_antipode_from_galois(sl.bim, sl.entwining,
                                                   sl.galois)
    assert antipode.map.mat == Mat(2, 2, [[1, 0], [0, -1]])


def test_construction_on_z2_is_identity(z2):
    antipode = hopf.construct_antipode_from_galois(z2.bim, z2.entwining,
                                                   z2.galois)
    assert antipode.map == z2.bim.id1()


def test_construction_refuses_singular_gamma(nz):
    with pytest.raises(GaloisNotInvertible) as err:
        hopf.construct_antipode_from_galois(nz.bim, nz.entwining, nz.galois)
    assert err.value.rank == 3


def test_linear_solve_proves_nz_has_no_antipode(nz):
    assert hopf.solve_antipode_linear(nz.bim, nz.entwining) is None


def test_linear_solve_finds_antipodes(g2, sl, z2, k2):
    for pipe in (g2, sl, z2, k2):
        solved = hopf.solve_antipode_linear(pipe.bim, pipe.entwining)
        assert solved.origin == "from_linear_solve"
        report = hopf.check_antipode(pipe.bim, pipe.entwining, solved.map)
        assert report.passed, report.failed_ids()
    assert hopf.solve_antipode_linear(sl.bim, sl.entwining).map.mat == \
        Mat(2, 2, [[1, 0], [0, -1]])


def test_fundamental_verdicts_agree(any_pipeline):
    verdict = hopf.fundamental_verdict(any_pipeline.bim)
    name = any_pipeline.bim.name.lower()
    assert verdict.hopf is (name != "nz")
    assert verdict.gamma_invertible == verdict.gamma_prime_invertible
    assert (verdict.linear_status == "found") == verdict.hopf
    if verdict.hopf:
        assert verdict.antipode_report.passed
        assert verdict.roundtrip_report.passed


def test_derived_antipode_absorptions(g2, sl):
    # S*1*S = S*xi = S implies xibar*S = S and S*xi = S for each construction
    for pipe in (g2, sl):
        bim, ent = pipe.bim, pipe.entwining
        built = hopf.construct_antipode_from_galois(bim, ent,
                                                    pipe.galois)
        solved = hopf.solve_antipode_linear(bim, ent)
        for antipode in (built, solved):
            s = antipode.map
            assert bim.convolve(ent.xibar, s) == s
            assert bim.convolve(s, ent.xi) == s


def test_both_construction_paths_give_the_unique_antipode(g2, k2, z2, sl):
    # S = S*1*S = S'*1*S' = S' for any two weak antipodes S and S'
    for pipe in (g2, k2, z2, sl):
        built = hopf.construct_antipode_from_galois(pipe.bim, pipe.entwining,
                                                    pipe.galois)
        solved = hopf.solve_antipode_linear(pipe.bim, pipe.entwining)
        assert built.map == solved.map


def test_dual_instances_share_the_verdict():
    for name in ("g2", "z2", "sl", "k2", "nz"):
        bim = inst.BUILTINS[name]()
        dual = inst.dual_instance(bim)
        assert not Pipeline(dual).failed_axioms
        if name == "nz":
            ent = ew.build_entwining(dual)
            base = bo.build_base(dual, ent)
            acts = bo.build_actions(dual, base)
            gal_data = gl.build_galois(dual, ent, acts)
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


def composed_conv_operator(bim, side):
    """The convolution operator built column by column: 1*E_{p,q} or
    E_{p,q}*1 through compose, for each single-entry map E_{p,q}."""
    n = bim.n
    one = bim.id1()
    maps = [{} for _ in range(n * n)]
    for p in range(n):
        for q in range(n):
            basis = hmap(n, 1, 1, Mat.from_rowmaps(
                n, n, [{q: 1} if i == p else {} for i in range(n)]))
            image = bim.convolve(one, basis) if side == "left" \
                else bim.convolve(basis, one)
            for i, j, v in image.mat.items():
                maps[i * n + j][p * n + q] = v
    return Mat.from_rowmaps(n * n, n * n, maps)


@pytest.mark.parametrize("dual", [False, True])
@pytest.mark.parametrize("name", sorted(inst.BUILTINS))
def test_conv_operator_matches_the_composed_one(name, dual):
    bim = inst.BUILTINS[name]()
    if dual:
        bim = inst.dual_instance(bim)
    for side in ("left", "right"):
        assert hopf._conv_operator(bim, side) == \
            composed_conv_operator(bim, side)
