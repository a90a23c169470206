import dataclasses
import random
from importlib import resources

import pytest

from weakhopf import bimonad as bm
from weakhopf import entwining as ew
from weakhopf import exactmat
from weakhopf import instances as inst
from weakhopf.errors import PrerequisiteAxiomFailed, TauPrimeRequired
from weakhopf.exactmat import Mat
from weakhopf.pipeline import Pipeline
from weakhopf.tensorexpr import (TensorMap, compose, flip_map, hmap,
                                 identity_map, lift, tensor)


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


# The action and coaction laws as each check site wrote them out before
# bm.action_laws and bm.coaction_laws stated them once.  A lawful action
# passes on either side, so only failing witnesses tell the sides apart.
def _written_out(kind, side, bim, f):
    if kind == "action":
        one, idx = bim.id1(), identity_map(f.cod)
        if side == "left":
            return [(compose([tensor(bim.m, idx), f]),
                     compose([tensor(one, f), f])),
                    (compose([tensor(bim.e, idx), f]), idx)]
        return [(compose([tensor(idx, bim.m), f]),
                 compose([tensor(f, one), f])),
                (compose([tensor(idx, bim.e), f]), idx)]
    one, idx = bim.id1(), identity_map(f.dom)
    if side == "left":
        return [(compose([f, tensor(bim.delta, idx)]),
                 compose([f, tensor(one, f)])),
                (compose([f, tensor(bim.eps, idx)]), idx)]
    return [(compose([f, tensor(idx, bim.delta)]),
             compose([f, tensor(f, one)])),
            (compose([f, tensor(idx, bim.eps)]), idx)]


def _side_case(name, kind, seed):
    """The instance and a map that breaks its (co)action laws: the regular
    (co)action with `seed` entries moved at random, or the zero map for
    seed 0, whose (co)associativity holds and whose (co)unit law fails."""
    bim = inst.BUILTINS[name]()
    f = bim.m if kind == "action" else bim.delta
    if seed == 0:
        return bim, dataclasses.replace(
            f, mat=Mat.from_rowmaps(f.mat.rows, f.mat.cols,
                                    [{}] * f.mat.rows))
    return bim, _moved(f, seed)


def _moved(f, seed):
    """f with `seed` random entries each moved by -1, 1 or 2."""
    rng = random.Random(seed)
    for _ in range(seed):
        row, col = rng.randrange(f.mat.rows), rng.randrange(f.mat.cols)
        f = mutate_map(f, row, col,
                       f.mat.data[row][col] + rng.choice((-1, 1, 2)))
    return f


def _rows(entries):
    return [(e.axiom_id, e.holds, e.witness) for e in entries]


SIDE_CASES = [(name, kind, side, seed) for name in ("g2", "z2")
              for kind in ("action", "coaction") for side in ("left", "right")
              for seed in range(4)]


@pytest.mark.parametrize("name, kind, side, seed", SIDE_CASES)
def test_the_law_helpers_give_the_written_out_witnesses(name, kind, side,
                                                        seed):
    bim, f = _side_case(name, kind, seed)
    laws, structure = ((bm.action_laws, (bim.m, bim.e)) if kind == "action"
                       else (bm.coaction_laws, (bim.delta, bim.eps)))
    ids, right = ("x.assoc", "x.unit"), side == "right"
    got = laws(ids, *structure, f, right=right)
    want = [bm.compare(i, lhs, rhs)
            for i, (lhs, rhs) in zip(ids, _written_out(kind, side, bim, f))]
    assert _rows(got) == _rows(want)
    assert not all(e.holds for e in got)
    if seed == 0:
        assert [e.holds for e in got] == [True, False]
    # a law whose id is None is left out, the other keeps its entry
    skip = laws((None, "x.unit"), *structure, f, right=right)
    assert _rows(skip) == _rows(want[1:])


@pytest.mark.parametrize("name", ["g2", "z2"])
@pytest.mark.parametrize("kind", ["action", "coaction"])
def test_the_side_cases_tell_left_from_right(name, kind):
    # on some case the two written-out sides disagree, so a helper that
    # swapped them would fail the test above
    def rows(side, bim, f):
        return [(e.holds, e.witness) for e in (
            bm.compare("x", lhs, rhs)
            for lhs, rhs in _written_out(kind, side, bim, f))]

    cases = [_side_case(name, kind, seed) for seed in range(1, 4)]
    assert any(rows("left", *case) != rows("right", *case)
               for case in cases)


def _entwining_written_out(ent, bim):
    """check_weak_entwining's ten laws as they were written out, in its
    report order: m.i-ii, c.i-ii, m.compat, c.compat."""
    m, e, delta, eps = bim.m, bim.e, bim.delta, bim.eps
    one = bim.id1()
    w, wb = ent.omega, ent.omegabar
    return [
        (compose([lift(m, 0, 1), w]),
         compose([lift(w, 1, 0), lift(w, 0, 1), lift(m, 1, 0)])),
        (compose([w, lift(delta, 0, 1)]),
         compose([lift(delta, 1, 0), lift(w, 0, 1), lift(w, 1, 0)])),
        (compose([tensor(e, one), w]), compose([delta, tensor(one, ent.xi)])),
        (compose([w, tensor(eps, one)]), compose([tensor(one, ent.xi), m])),
        (compose([lift(m, 1, 0), wb]),
         compose([lift(wb, 0, 1), lift(wb, 1, 0), lift(m, 0, 1)])),
        (compose([wb, lift(delta, 1, 0)]),
         compose([lift(delta, 0, 1), lift(wb, 1, 0), lift(wb, 0, 1)])),
        (compose([tensor(one, e), wb]),
         compose([delta, tensor(ent.xibar, one)])),
        (compose([wb, tensor(one, eps)]),
         compose([tensor(ent.xibar, one), m])),
        (compose([m, delta]),
         compose([lift(delta, 1, 0), lift(w, 0, 1), lift(m, 1, 0)])),
        (compose([m, delta]),
         compose([lift(delta, 0, 1), lift(wb, 1, 0), lift(m, 0, 1)])),
    ]


@pytest.mark.parametrize("name", ["g2", "z2"])
@pytest.mark.parametrize("seed", range(1, 4))
def test_the_mirrored_entwining_laws_give_the_written_out_witnesses(name,
                                                                    seed):
    bim = inst.BUILTINS[name]()
    ent = Pipeline(bim).entwining_maps
    broken = dataclasses.replace(ent, omegabar=_moved(ent.omegabar, seed))
    got = ew.check_weak_entwining(broken, bim).entries
    ids = [f"ent.{s}.{law}" for s in "mc"
           for law in ("i-mult", "i-comult", "ii-unit", "ii-counit")]
    ids += ["ent.m.compat", "ent.c.compat"]
    want = [bm.compare(i, lhs, rhs) for i, (lhs, rhs) in
            zip(ids, _entwining_written_out(broken, bim))]
    assert _rows(got) == _rows(want)
    assert all(e.holds for e in got if e.axiom_id.startswith("ent.m."))
    assert not all(e.holds for e in got)
