import dataclasses
from importlib import resources

import pytest

from weakhopf import bimonad as bm
from weakhopf import exactmat
from weakhopf import instances as inst
from weakhopf.errors import PrerequisiteAxiomFailed, TauPrimeRequired
from weakhopf.exactmat import Mat
from weakhopf.tensorexpr import (TensorMap, compose, flip_map, hmap,
                                 identity_map, lift)


def mutate_map(f, row, col, value):
    rows = [list(r) for r in f.mat.data]
    rows[row][col] = value
    return dataclasses.replace(f, mat=Mat(f.mat.rows, f.mat.cols, rows))


def _entry(report, axiom_id):
    """The entry of report with the given id."""
    return next(e for e in report.entries if e.axiom_id == axiom_id)


def test_all_builtin_instances_pass(any_pipeline):
    for report in bm.check_instance(any_pipeline.bim).values():
        assert report.passed, report.failed_ids()


def test_groupoid_mutated_structure_constant_fails_with_witness():
    bim = inst.g2()
    broken = dataclasses.replace(bim, m=mutate_map(bim.m, 0, 0, 2))
    report = bm.check_algebra(broken)
    assert not report.passed
    failing = [e for e in report.entries if not e.holds]
    assert failing and all(e.witness is not None for e in failing)
    # witness is the lexicographically first disagreeing entry
    entry = _entry(report, "alg.unit-left")
    assert not entry.holds and entry.witness == (0, 0)


def test_scaled_counit_breaks_wbb6():
    bim = inst.g2()
    broken = dataclasses.replace(
        bim, eps=dataclasses.replace(bim.eps, mat=bim.eps.mat + bim.eps.mat))
    report = bm.check_weak_braided_bimonad(broken)
    assert not _entry(report, "wbb6").holds


def test_flip_with_identity_partner_fails_regularity(z2):
    one2 = identity_map((2, 2))
    report = bm.check_weak_yb(dataclasses.replace(z2.bim, tau_prime=one2))
    assert not _entry(report, "yb.reg-tau-prime").holds


def test_tau_prime_defaulting_requires_involution(z2):
    tau = flip_map(2)
    assert dataclasses.replace(z2.bim, tau=tau, tau_prime=None).tau_prime is tau
    not_involution = hmap(2, 2, 2, Mat.from_rowmaps(
        4, 4, [{i: 2 if i == 0 else 1} for i in range(4)]))
    with pytest.raises(TauPrimeRequired):
        dataclasses.replace(z2.bim, tau=not_involution, tau_prime=None)


def test_checks_report_instead_of_raising():
    bim = inst.g2()
    broken = dataclasses.replace(bim, m=mutate_map(bim.m, 0, 0, 2))
    reports = bm.check_instance(broken)  # no exception
    assert not all(r.passed for r in reports.values())
    with pytest.raises(PrerequisiteAxiomFailed) as err:
        bm.require_instance(broken)
    assert err.value.axiom_ids


def test_report_determinism(g2):
    bim = inst.g2()
    broken = dataclasses.replace(
        bim, eps=dataclasses.replace(bim.eps, mat=bim.eps.mat + bim.eps.mat))
    first = bm.check_weak_braided_bimonad(broken)
    second = bm.check_weak_braided_bimonad(broken)
    assert [ (e.axiom_id, e.holds, e.witness) for e in first.entries ] == \
        [ (e.axiom_id, e.holds, e.witness) for e in second.entries ]


def test_seven_wbb_entry_ids(g2):
    report = bm.check_weak_braided_bimonad(g2.bim)
    assert [e.axiom_id for e in report.entries] == \
        [f"wbb{k}" for k in range(1, 8)]


def test_z2_has_trivial_nabla(z2):
    assert z2.bim.nabla == identity_map((2, 2))


def test_a_map_compared_with_itself_builds_no_matrix():
    lifted = lift(inst.g2().tau, 1, 0)
    entry = bm.compare("self", lifted, lifted)
    assert entry.holds and entry.witness is None
    assert "mat" not in lifted.__dict__


@pytest.mark.parametrize("name", sorted(inst.BUILTINS))
def test_an_identity_nabla_is_held_without_steps(name):
    # so wbb1, wbb2, yb.reg-commute and the interchange laws multiply nothing
    # for it, whether nabla was checked on construction or read later
    bim = inst.BUILTINS[name]()
    assert bim.nabla.steps == ()
    read = dataclasses.replace(bim, tau_prime=bim.tau)
    assert "nabla" not in read.__dict__
    assert read.nabla.steps == ()


def test_wbb6_and_wbb7_build_no_matrix_above_n_cubed_rows(monkeypatch):
    # the counit and unit chains pass through H^4; compose keeps them as
    # row vectors instead of building the n^4-row lifts and tensor products;
    # every Mat is made by exactmat._make, so the probe sees each one
    n = 7
    bim = inst.group_algebra(inst.cyclic_group_table(n))
    rows, marks = [], {}
    make, add = exactmat._make, bm.AxiomReport.add

    def recording_make(nrows, ncols, rowmaps, den=1):
        rows.append(nrows)
        return make(nrows, ncols, rowmaps, den)

    def marking_add(report, entry):
        marks[entry.axiom_id] = len(rows)
        add(report, entry)

    monkeypatch.setattr(exactmat, "_make", recording_make)
    monkeypatch.setattr(bm.AxiomReport, "add", marking_add)
    report = bm.check_weak_braided_bimonad(bim)
    assert report.passed
    built = rows[marks["wbb5"]:marks["wbb7"]]
    assert len(built) > 10
    assert max(built) <= n ** 3


def _yb_rows(report):
    return [(e.axiom_id, e.holds, e.witness) for e in report.entries]


@pytest.mark.parametrize("tau", [
    flip_map(3),
    # an involution that breaks Yang-Baxter: swap b_0 (x) b_1 and b_1 (x) b_1
    hmap(2, 2, 2, Mat.from_rowmaps(4, 4, [{0: 1}, {3: 1}, {2: 1}, {1: 1}])),
])
def test_involutive_tau_reuses_its_entries_for_tau_prime(tau):
    bim = inst.group_algebra(inst.cyclic_group_table(tau.dom[0]))
    yb = dataclasses.replace(bim, tau=tau, tau_prime=None)
    assert yb.tau_prime is yb.tau
    # an equal tau_prime that is another object takes the computing path
    twin = dataclasses.replace(bim, tau=tau,
                               tau_prime=TensorMap(tau.dom, tau.cod, tau.mat))
    assert twin.tau_prime is not twin.tau
    assert _yb_rows(bm.check_weak_yb(yb)) == _yb_rows(bm.check_weak_yb(twin))


def test_replace_derives_nabla_from_the_new_pair(z2):
    t = hmap(2, 2, 2, Mat.from_rowmaps(4, 4, [{0: 1}, {2: 1}, {1: 1}, {3: -1}]))
    bim = dataclasses.replace(z2.bim, tau=t, tau_prime=t)
    assert bim.nabla == compose([t, t])
    assert "nabla" not in {f.name for f in dataclasses.fields(bim) if f.init}


def test_replace_derives_nabla_afresh_after_it_was_read():
    bim = inst.load(resources.files("weakhopf") / "data" / "z2.instance")
    assert bim.nabla == identity_map((2, 2))  # built on this read and kept
    t = hmap(2, 2, 2, Mat.from_rowmaps(4, 4, [{0: 2}, {2: 1}, {1: 1}, {3: 1}]))
    other = dataclasses.replace(bim, tau=t, tau_prime=t)
    assert other.nabla == compose([t, t]) != bim.nabla
    assert dataclasses.replace(other, tau_prime=None, tau=bim.tau).nabla == \
        bim.nabla
