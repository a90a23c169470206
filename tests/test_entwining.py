import dataclasses

from weakhopf import bimonad as bm
from weakhopf import entwining as ew
from weakhopf import instances as inst
from weakhopf.exactmat import Mat
from weakhopf.pipeline import Pipeline
from weakhopf.tensorexpr import compose, hmap, identity_map


ARROWS = [(0, 0), (0, 1), (1, 0), (1, 1)]


def _entry(report, axiom_id):
    """The entry of report with the given id."""
    return next(e for e in report.entries if e.axiom_id == axiom_id)


def arrow_endo(rule):
    """Structure-constant oracle: rule maps an arrow to an arrow (or None)."""
    rows = [[0] * 4 for _ in ARROWS]
    for k, arrow in enumerate(ARROWS):
        out = rule(arrow)
        if out is not None:
            rows[ARROWS.index(out)][k] = 1
    return hmap(4, 1, 1, Mat(4, 4, rows))


def test_g2_xi_and_xibar_structure_constants(g2):
    assert g2.entwining.xi == arrow_endo(lambda a: (a[0], a[0]))
    assert g2.entwining.xibar == arrow_endo(lambda a: (a[1], a[1]))
    assert g2.entwining.chi == arrow_endo(lambda a: (a[0], a[0]))
    assert g2.entwining.chibar == arrow_endo(lambda a: (a[1], a[1]))


def test_g2_kappa_rank(g2):
    assert g2.entwining.gbar_dim == 8
    assert g2.entwining.tbar_dim == 8


def test_z2_degenerates_to_ordinary_bialgebra(z2):
    bim, ent = z2.bim, z2.entwining
    unit = compose([bim.eps, bim.e])
    assert ent.xi == unit
    assert ent.xibar == unit
    assert ent.kappa == identity_map((2, 2))
    assert ent.kappa_prime == identity_map((2, 2))


def test_k2_has_identity_xi(k2):
    one = k2.bim.id1()
    assert k2.entwining.xi == one
    assert k2.entwining.xibar == one


def test_weak_entwining_axioms_hold(any_pipeline):
    report = ew.check_weak_entwining(any_pipeline.entwining, any_pipeline.bim)
    assert report.passed, report.failed_ids()
    assert len(report.entries) == 10


def test_derived_identity_suite_holds(any_pipeline):
    report = ew.check_derived_identities(any_pipeline.entwining, any_pipeline.bim)
    assert report.passed, report.failed_ids()


def test_identity_braiding_breaks_compatibility():
    bim = inst.g2()
    one2 = identity_map((4, 4))
    broken = dataclasses.replace(bim, tau=one2, tau_prime=one2)
    # tau = id is a perfectly good weak YB pair, but wbb5 fails ...
    assert bm.check_weak_yb(broken).passed
    assert not _entry(bm.check_weak_braided_bimonad(broken), "wbb5").holds
    # ... and the induced entwining is not compatible
    ent = ew.build_entwining(broken)
    report = ew.check_weak_entwining(ent, broken)
    assert not _entry(report, "ent.m.compat").holds


def test_wbb5_failure_shows_up_as_kappa_delta():
    from fractions import Fraction

    bim = inst.g2()
    rows = [list(r) for r in bim.m.mat.data]
    rows[3][9] = Fraction(1, 2)  # m(g_10 (x) g_01) = (1/2) g_11
    broken = dataclasses.replace(
        bim, m=dataclasses.replace(bim.m, mat=Mat(4, 16, rows)))
    assert not _entry(bm.check_weak_braided_bimonad(broken), "wbb5").holds
    ent = ew.build_entwining(broken)
    report = ew.check_derived_identities(ent, broken)
    assert report.failed_ids()  # the perturbation is caught by named entries

    # a wbb5-violating braiding for which kappa.delta = delta itself breaks
    one2 = identity_map((4, 4))
    braid_broken = dataclasses.replace(bim, tau=one2, tau_prime=one2)
    ent = ew.build_entwining(braid_broken)
    report = ew.check_derived_identities(ent, braid_broken)
    assert not _entry(report, "c-diag.kappa-delta").holds


def test_informational_entries_do_not_gate(g2):
    report = ew.check_derived_identities(g2.entwining, g2.bim)
    info = {e.axiom_id: e for e in report.entries if e.informational}
    assert set(info) == {"info.one-conv-xi", "info.xibar-conv-one"}
    # genuinely weak instance: the unasserted symmetric identities fail here
    assert not info["info.one-conv-xi"].holds
    assert not info["info.xibar-conv-one"].holds
    assert report.passed


def test_informational_entries_hold_on_ordinary_bialgebra(z2):
    report = ew.check_derived_identities(z2.entwining, z2.bim)
    for e in report.entries:
        if e.informational:
            assert e.holds


def test_gate_refuses_broken_instances():
    bim = inst.g2()
    one2 = identity_map((4, 4))
    broken = dataclasses.replace(bim, tau=one2, tau_prime=one2)
    import pytest
    from weakhopf.errors import PrerequisiteAxiomFailed
    with pytest.raises(PrerequisiteAxiomFailed):
        Pipeline(broken).entwining


def test_derived_identities_on_duals():
    # the dual groupoid algebra separates chi from xi (and chibar from
    # xibar), so it discriminates the mixed-composite suite where the
    # builtin instances degenerate
    for name in ("g2", "k2", "z2", "sl", "nz"):
        bim = inst.dual_instance(inst.BUILTINS[name]())
        ent = ew.build_entwining(bim)
        report = ew.check_derived_identities(ent, bim)
        assert report.passed, (name, report.failed_ids())
        assert ew.check_weak_entwining(ent, bim).passed


def test_dual_g2_separates_the_four_idempotents():
    bim = inst.dual_instance(inst.g2())
    ent = ew.build_entwining(bim)
    assert ent.xi != ent.chi and ent.xibar != ent.chibar
    assert ent.xi == ent.chibar and ent.xibar == ent.chi


def test_convolution_idempotents(any_pipeline):
    bim, ent = any_pipeline.bim, any_pipeline.entwining
    assert bim.convolve(ent.xi, ent.xi) == ent.xi
    assert bim.convolve(ent.xibar, ent.xibar) == ent.xibar
    for f in (ent.xi, ent.xibar, ent.chi, ent.chibar):
        assert compose([f, f]) == f
