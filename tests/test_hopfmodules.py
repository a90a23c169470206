import pytest

from weakhopf import galois, hopf
from weakhopf import hopfmodules as hm
from weakhopf import instances as inst
from weakhopf.errors import FactorizationFailed, PrerequisiteAxiomFailed
from weakhopf.exactmat import Mat, same_column_span
from weakhopf.tensorexpr import TensorMap


def free_module(bim):
    return hm.HModule(bim.n, TensorMap((bim.n, bim.n), (bim.n,), bim.m.mat))


def cofree_comodule(bim):
    return hm.HComodule(bim.n, TensorMap((bim.n,), (bim.n, bim.n),
                                         bim.delta.mat))


def antipode_of(pipe):
    return hopf.construct_antipode_from_galois(pipe.bim, pipe.entwining, pipe.base,
                                               pipe.galois)


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
    entries = {}
    for k, (u, v) in enumerate(arrows):
        j = arrows.index((v, u))
        entries[(j * 4 + k, k)] = 1
    theta = TensorMap((4,), (4, 4), Mat.from_entries(16, 4, entries))
    module = hm.MixedBimodule(4, free_module(bim).h, theta)
    report = hm.check_mixed_bimodule(bim, ent, module)
    assert report.entry("mod.assoc").holds
    assert report.entry("com.coassoc").holds
    assert not report.entry("mix.omega-square").holds


def test_induced_comonad_at_free_module_is_kappa(any_pipeline):
    bim, ent = any_pipeline.bim, any_pipeline.entwining
    induced = hm.induced_comonad_on_module(bim, ent, free_module(bim))
    assert induced.idempotent.mat == ent.kappa.mat
    assert induced.splitting.rank == ent.gbar_dim
    assert induced.report.passed, induced.report.failed_ids()


def test_induced_monad_at_cofree_comodule_is_kappa_prime(any_pipeline):
    bim, ent = any_pipeline.bim, any_pipeline.entwining
    induced = hm.induced_monad_on_comodule(bim, ent, cofree_comodule(bim))
    assert induced.idempotent.mat == ent.kappa_prime.mat
    assert induced.splitting.rank == ent.tbar_dim
    assert induced.report.passed, induced.report.failed_ids()


def test_induced_comonad_split_dims(g2, z2):
    assert hm.induced_comonad_on_module(
        g2.bim, g2.entwining, free_module(g2.bim)).splitting.rank == 8
    induced = hm.induced_comonad_on_module(z2.bim, z2.entwining, free_module(z2.bim))
    assert induced.idempotent.mat == Mat.identity(4)
    assert induced.splitting.rank == 4


def test_induced_structures_reject_non_modules(g2):
    bad = hm.HModule(4, TensorMap((4, 4), (4,), Mat.zeros(4, 16)))
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
    nb = hm.BaseModule(base.r, base.m_base)
    induced, _ = hm.induce_from_base(g2.bim, base, nb)
    assert nb.dim == 2 and induced.dim == 4
    assert hm.check_mixed_bimodule(g2.bim, g2.entwining, induced).passed
    coin = hm.coinvariants(g2.bim, g2.entwining, antipode_of(g2), induced)
    assert coin.dim == 2


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
    assert inst.save_module(module, g2.bim, out) == text


def test_non_surjective_projection_fails_factorization():
    # the induced-module factorizations use the one galois helper, whose
    # section check turns a non-surjective projection into a checked failure
    assert hm._factor_through_surjection is galois._factor_through_surjection
    proj = TensorMap((2,), (2,), Mat.from_rows([[1, 0], [0, 0]]))
    target = TensorMap((2,), (1,), Mat.from_rows([[1, 0]]))
    with pytest.raises(FactorizationFailed, match="not surjective"):
        hm._factor_through_surjection(target, proj, "test")
