import dataclasses

import pytest

from weakhopf import hopf
from weakhopf import hopfmodules as hm
from weakhopf import instances as inst
from weakhopf.bimonad import AxiomEntry, AxiomReport
from weakhopf.errors import PrerequisiteAxiomFailed
from weakhopf.exactmat import Mat, same_column_span
from weakhopf.tensorexpr import TensorMap, compose


def free_module(bim):
    """The action of the free module H."""
    return TensorMap((bim.n, bim.n), (bim.n,), bim.m.mat)


def cofree_comodule(bim):
    """The coaction of the cofree comodule H."""
    return TensorMap((bim.n,), (bim.n, bim.n), bim.delta.mat)


def antipode_of(pipe):
    return hopf.construct_antipode_from_galois(pipe.bim, pipe.entwining,
                                               pipe.galois)


def _entry(report, axiom_id):
    """The entry of report with the given id."""
    return next(e for e in report.entries if e.axiom_id == axiom_id)


def test_regular_bimodule_is_mixed(any_pipeline):
    bim, ent = any_pipeline.bim, any_pipeline.entwining
    module = hm.K_omega(bim, 1)
    report = hm.check_mixed_bimodule(bim, ent, module)
    assert report.passed, report.failed_ids()


def test_zero_dimensional_carrier_passes_vacuously(g2):
    module = hm.K_omega(g2.bim, 0)
    assert module.dim == 0
    assert hm.check_mixed_bimodule(g2.bim, g2.entwining, module).passed


def test_k_omega_two_dimensional(z2, g2):
    for pipe in (z2, g2):
        module = hm.K_omega(pipe.bim, 2)
        assert module.dim == 2 * pipe.bim.n
        assert hm.check_mixed_bimodule(pipe.bim, pipe.entwining, module).passed


def test_inverted_coaction_breaks_omega_square(g2):
    bim, ent = g2.bim, g2.entwining
    # theta(g_uv) = g_vu (x) g_uv keeps the comodule laws but not the square
    arrows = [(0, 0), (0, 1), (1, 0), (1, 1)]
    maps = [{} for _ in range(16)]
    for k, (u, v) in enumerate(arrows):
        j = arrows.index((v, u))
        maps[j * 4 + k][k] = 1
    theta = TensorMap((4,), (4, 4), Mat.from_rowmaps(16, 4, maps))
    module = hm.MixedBimodule(4, free_module(bim), theta)
    report = hm.check_mixed_bimodule(bim, ent, module)
    assert _entry(report, "mod.assoc").holds
    assert _entry(report, "com.coassoc").holds
    assert not _entry(report, "mix.omega-square").holds


def test_induced_comonad_at_free_module_is_kappa(any_pipeline):
    bim, ent = any_pipeline.bim, any_pipeline.entwining
    induced = hm.induced_comonad_on_module(bim, ent, free_module(bim))
    assert induced.idempotent.mat == ent.kappa.mat
    assert induced.p.cod == (ent.gbar_dim,)
    assert induced.report.passed, induced.report.failed_ids()


def test_induced_monad_at_cofree_comodule_is_kappa_prime(any_pipeline):
    bim, ent = any_pipeline.bim, any_pipeline.entwining
    induced = hm.induced_monad_on_comodule(bim, ent, cofree_comodule(bim))
    assert induced.idempotent.mat == ent.kappa_prime.mat
    assert induced.p.cod == (ent.tbar_dim,)
    assert induced.report.passed, induced.report.failed_ids()
    assert [e.axiom_id for e in induced.report.entries] == [
        "ind.coaction-coassoc", "ind.coaction-counit", "ind.unit-left",
        "ind.unit-right", "ind.assoc", "ind.m-comodule-morphism",
        "ind.e-comodule-morphism"]
    # the splitting is the transpose of the dual one, in another basis
    assert compose([induced.p, induced.i]) == induced.idempotent
    assert compose([induced.i, induced.p]).mat == Mat.identity(ent.tbar_dim)


def test_induced_comonad_split_dims(g2, z2):
    assert hm.induced_comonad_on_module(
        g2.bim, g2.entwining, free_module(g2.bim)).p.cod == (8,)
    induced = hm.induced_comonad_on_module(z2.bim, z2.entwining, free_module(z2.bim))
    assert induced.idempotent.mat == Mat.identity(4)
    assert induced.p.cod == (4,)


def test_induced_structures_reject_non_modules(g2):
    bad = TensorMap((4, 4), (4,), Mat(4, 16, [[0] * 16] * 4))
    with pytest.raises(PrerequisiteAxiomFailed):
        hm.induced_comonad_on_module(g2.bim, g2.entwining, bad)


def test_coinvariants_of_regular_module(g2, z2, k2):
    for pipe, expect in ((g2, 2), (z2, 1), (k2, 2)):
        module = hm.K_omega(pipe.bim, 1)
        coin = hm.coinvariants(pipe.bim, pipe.entwining, antipode_of(pipe), module)
        assert coin.dim == expect
        assert same_column_span(coin.inclusion.mat, pipe.base.iota.mat)
        assert coin.report.passed, coin.report.failed_ids()


def test_coinvariants_without_antipode_uses_equaliser(nz):
    module = hm.K_omega(nz.bim, 1)
    coin = hm.coinvariants(nz.bim, nz.entwining, None, module)
    assert coin.dim == 1
    assert coin.projection is None


def test_coinvariant_dimension_scales_with_carrier(g2, z2, sl):
    for pipe in (g2, z2, sl):
        antipode = antipode_of(pipe)
        for d in (1, 2, 3):
            module = hm.K_omega(pipe.bim, d)
            coin = hm.coinvariants(pipe.bim, pipe.entwining, antipode, module)
            assert coin.dim == pipe.base.r * d


def test_beta_checks_on_shipped_modules(g2, z2, sl, k2):
    for pipe in (g2, z2, sl, k2):
        antipode = antipode_of(pipe)
        for d in (1, 2):
            module = hm.K_omega(pipe.bim, d)
            coin = hm.coinvariants(pipe.bim, pipe.entwining, antipode, module)
            ids = {e.axiom_id for e in coin.report.entries}
            assert {"coinv.beta-idem", "coinv.beta-span", "coinv.prop75-square",
                    "coinv.prop76-splitwitness"} <= ids
            assert coin.report.passed


def test_beta_span_needs_the_kernel_and_its_dimension(z2):
    # Z2 = span(1, g): S = swap makes beta the projection onto span(g), of
    # the coinvariants' dimension but outside them; S = 0 makes beta = 0
    bim, ent = z2.bim, z2.entwining
    module = hm.K_omega(bim, 1)
    coinvariants = hm.coinvariants(bim, ent, None, module).inclusion.mat
    for rows, holds in (([[1, 0], [0, 1]], True), ([[0, 1], [1, 0]], False),
                        ([[0, 0], [0, 0]], False)):
        stand_in = hopf.Antipode(TensorMap((2,), (2,), Mat(2, 2, rows)),
                                 "given")
        coin = hm.coinvariants(bim, ent, stand_in, module)
        assert _entry(coin.report, "coinv.beta-idem").holds
        assert _entry(coin.report, "coinv.beta-span").holds is holds
        assert same_column_span(coin.inclusion.mat, coinvariants) is holds


def test_roundtrip_regular_module(g2, z2):
    for pipe, dim in ((g2, 4), (z2, 2)):
        module = hm.K_omega(pipe.bim, 1)
        report = hm.fundamental_roundtrip(pipe.bim, pipe.entwining, pipe.base,
                                          antipode_of(pipe), module)
        assert report.passed, report.failed_ids()
        assert module.dim == dim


def test_roundtrip_from_free_base_module(g2):
    # free rank-1 base module: dims 2 -> 4 -> 2
    base = g2.base
    induced, _ = hm.induce_from_base(g2.bim, base, base.m_base)
    assert base.r == 2 and induced.dim == 4
    assert hm.check_mixed_bimodule(g2.bim, g2.entwining, induced).passed
    coin = hm.coinvariants(g2.bim, g2.entwining, antipode_of(g2), induced)
    assert coin.dim == 2


def test_coinvariants_refuse_a_module_that_fails_its_laws(g2):
    good = hm.K_omega(g2.bim, 1)
    bad = dataclasses.replace(good, h=TensorMap((4, 4), (4,),
                                                Mat(4, 16, [[0] * 16] * 4)))
    laws = hm.check_mixed_bimodule(g2.bim, g2.entwining, bad)
    assert not laws.passed
    antipode = antipode_of(g2)
    with pytest.raises(PrerequisiteAxiomFailed) as exc:
        hm.coinvariants(g2.bim, g2.entwining, antipode, bad)
    assert exc.value.axiom_ids == tuple(laws.failed_ids())
    # laws handed in by the caller gate the computation in the same way
    with pytest.raises(PrerequisiteAxiomFailed):
        hm.coinvariants(g2.bim, g2.entwining, antipode, good, laws=laws)


def test_roundtrip_refuses_an_induced_module_that_fails_its_laws(
        g2, monkeypatch):
    broken = AxiomReport([AxiomEntry("mod.assoc", False, (0, 0))])
    check = hm.check_mixed_bimodule
    monkeypatch.setattr(hm, "check_mixed_bimodule", lambda bim, ent, mod:
                        broken if mod.name.startswith("induced")
                        else check(bim, ent, mod))
    with pytest.raises(PrerequisiteAxiomFailed) as exc:
        hm.fundamental_roundtrip(g2.bim, g2.entwining, g2.base,
                                 antipode_of(g2), hm.K_omega(g2.bim, 1))
    assert exc.value.axiom_ids == ("mod.assoc",)


def test_roundtrip_on_k_omega_two(g2):
    module = hm.K_omega(g2.bim, 2)
    report = hm.fundamental_roundtrip(g2.bim, g2.entwining, g2.base,
                                      antipode_of(g2), module)
    assert report.passed, report.failed_ids()


def test_shipped_module_file_round_trips(g2, tmp_path):
    from importlib import resources

    with resources.as_file(resources.files("weakhopf") / "data"
                           / "g2_free.module") as path:
        module = inst.load_module(path, g2.bim)
        text = path.read_text()
    assert module.dim == 4
    assert hm.check_mixed_bimodule(g2.bim, g2.entwining, module).passed
    out = tmp_path / "roundtrip.module"
    assert inst.save_module(module, out) == text
