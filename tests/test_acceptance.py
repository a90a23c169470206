"""Acceptance suite: one test per criterion, exact arithmetic throughout.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one pass/fail line
per criterion.
"""

import dataclasses
import json
import time
from fractions import Fraction

from weakhopf import baseobject as bo
from weakhopf import bimonad as bm
from weakhopf import cli
from weakhopf import entwining as ew
from weakhopf import galois as gl
from weakhopf import hopf
from weakhopf import hopfmodules as hm
from weakhopf import instances as inst
from weakhopf.errors import GaloisNotInvertible
from weakhopf.exactmat import Mat, same_column_span, solve
from weakhopf.pipeline import Pipeline
from weakhopf.tensorexpr import compose

INSTANCES = ("g2", "k2", "z2", "sl", "nz")


def _report(criterion, ok=True):
    print(f"ACCEPTANCE {criterion}: {'PASS' if ok else 'FAIL'}")
    assert ok


def inverse(m):
    """m^-1, as the solution X of m*X = I."""
    return solve(m, Mat.identity(m.rows))[1]


def _entry(report, axiom_id):
    """The entry of report with the given id."""
    return next(e for e in report.entries if e.axiom_id == axiom_id)


def test_criterion_1_axiom_suite():
    for name in INSTANCES:
        bim = inst.BUILTINS[name]()
        start = time.perf_counter()
        reports = bm.check_instance(bim)
        elapsed = time.perf_counter() - start
        for section, report in reports.items():
            assert report.passed, (name, section, report.failed_ids())
        assert len(reports["wbb"].entries) == 7
        assert elapsed < 1.0, (name, elapsed)
    _report("criterion 1 (axiom suite, < 1 s per instance)")


def test_criterion_2_derived_identity_suite():
    start = time.perf_counter()
    for name in INSTANCES:
        pipe = Pipeline(inst.BUILTINS[name]())
        bim, ent = pipe.bim, pipe.entwining
        entw = ew.check_weak_entwining(ent, bim)
        assert entw.passed, (name, entw.failed_ids())
        derived = ew.check_derived_identities(ent, bim)
        assert derived.passed, (name, derived.failed_ids())
        ids = {e.axiom_id for e in derived.entries}
        assert {f"avr.{k}" for k in range(1, 7)} <= ids
        assert {"c-diag.xi-conv-one", "c-diag.one-conv-xibar",
                "c-diag.xibar-conv-idem"} <= ids
    elapsed = time.perf_counter() - start
    assert elapsed < 5.0, elapsed
    _report("criterion 2 (derived identities, < 5 s total)")


def test_criterion_3_base_object():
    expected_r = {"g2": 2, "k2": 2, "z2": 1, "sl": 1, "nz": 1}
    for name in INSTANCES:
        pipe = Pipeline(inst.BUILTINS[name]())
        bim, base = pipe.bim, pipe.base
        assert base.r == expected_r[name], name
        frob = bo.check_frobenius_separable(base)
        assert frob.passed, (name, frob.failed_ids())
        for entry_id in ("base.frobenius-left", "base.frobenius-right",
                         "base.separable", "base.upsilon-unit",
                         "base.upsilon-left", "base.upsilon-right"):
            assert _entry(frob, entry_id).holds, (name, entry_id)
        pi = bo.check_pi_splitting(bim, base, pipe.actions)
        assert pi.passed, (name, pi.failed_ids())
    _report("criterion 3 (base object dims, Frobenius, pi-splitting)")


def test_criterion_4_galois():
    gal = Pipeline(inst.BUILTINS["g2"]()).galois
    assert gal.tensor_dim == 8
    assert gal.gamma.mat.rows == 8 and gal.gamma.mat.cols == 8
    assert gal.gamma_invertible and gal.gamma_prime_invertible
    assert gal.gamma_prime.mat.rows == 8 and gal.gamma_prime.mat.cols == 8

    gal = Pipeline(inst.BUILTINS["z2"]()).galois
    table = inst.cyclic_group_table(2)
    classical = Mat.from_rowmaps(4, 4, [
        {g * 2 + h: 1 for h in range(2) if table[g][h] == k}
        for g in range(2) for k in range(2)])
    assert gal.l.mat == Mat.identity(4)
    assert gal.gamma.mat == classical
    assert gal.gamma_invertible

    gal = Pipeline(inst.BUILTINS["nz"]()).galois
    assert gal.gamma.mat.rows == 4
    assert gal.gamma_rank == 3
    assert not gal.gamma_invertible
    _report("criterion 4 (Galois maps: dims, classical form, NZ defect)")


def test_criterion_5_antipode():
    def build(name):
        pipe = Pipeline(inst.BUILTINS[name]())
        return pipe.bim, pipe.entwining, pipe.galois

    bim, ent, gal = build("g2")
    antipode = hopf.construct_antipode_from_galois(bim, ent, gal)
    assert antipode.map == inst.groupoid_antipode(inst.full_groupoid(2))
    report = hopf.check_antipode(bim, ent, antipode.map)
    assert report.passed, report.failed_ids()
    assert {e.axiom_id for e in report.entries} == {
        "hopf.one-conv-S", "hopf.S-conv-one", "hopf.S-one-S", "hopf.one-S-one"}

    bim, ent, gal = build("sl")
    antipode = hopf.construct_antipode_from_galois(bim, ent, gal)
    assert antipode.map.mat == Mat(2, 2, [[1, 0], [0, -1]])
    assert hopf.check_antipode(bim, ent, antipode.map).passed

    bim, ent, gal = build("nz")
    assert hopf.solve_antipode_linear(bim, ent) is None
    try:
        hopf.construct_antipode_from_galois(bim, ent, gal)
        raise AssertionError("NZ construction should fail")
    except GaloisNotInvertible as err:
        assert err.rank == 3
    _report("criterion 5 (antipodes: exact values, NZ refutation)")


def test_criterion_6_fundamental_theorem_consistency():
    for name in INSTANCES:
        verdict = hopf.fundamental_verdict(inst.BUILTINS[name]())
        assert verdict.gamma_invertible == verdict.gamma_prime_invertible
        assert (verdict.linear_status == "found") == verdict.hopf
        assert verdict.hopf is (name != "nz")
    for name in ("g2", "z2", "sl"):
        pipe = Pipeline(inst.BUILTINS[name]())
        bim, ent, gal = pipe.bim, pipe.entwining, pipe.galois
        antipode = hopf.construct_antipode_from_galois(bim, ent, gal)
        report = gl.check_remark_inverses(bim, ent, gal, antipode)
        assert report.passed, (name, report.failed_ids())
        # entrywise: the remark composite equals the computed exact inverse
        from weakhopf.tensorexpr import lift, tensor

        one = bim.id1()
        remark_gamma_inv = compose([
            ent.ibar, lift(bim.delta, 0, 1),
            tensor(one, antipode.map, one), lift(bim.m, 1, 0), gal.l])
        assert remark_gamma_inv.mat == inverse(gal.gamma.mat), name
        remark_gp_inv = compose([
            gal.can, lift(bim.delta, 1, 0),
            tensor(one, antipode.map, one), lift(bim.m, 0, 1),
            ent.pbar_prime])
        assert remark_gp_inv.mat == inverse(gal.gamma_prime.mat), name
    _report("criterion 6 (Thm (a)<=>(d)<=>(e) verdicts and Remark inverses)")


def test_criterion_7_hopf_module_round_trip():
    expected_coinv = {"g2": 2, "z2": 1}
    for name in ("g2", "z2"):
        pipe = Pipeline(inst.BUILTINS[name]())
        bim, ent, base, gal = pipe.bim, pipe.entwining, pipe.base, pipe.galois
        antipode = hopf.construct_antipode_from_galois(bim, ent, gal)
        module = hm.K_omega(bim, 1)
        coin = hm.coinvariants(bim, ent, antipode, module)
        assert coin.dim == expected_coinv[name]
        assert same_column_span(coin.inclusion.mat, base.iota.mat)
        rt = hm.fundamental_roundtrip(bim, ent, base, antipode, module)
        assert rt.passed, (name, rt.failed_ids())
        assert _entry(rt, "rt.comparison-bijective").holds
    # beta idempotent and the Prop 7.5 square on every shipped mixed bimodule
    for name in ("g2", "k2", "z2", "sl"):
        pipe = Pipeline(inst.BUILTINS[name]())
        bim, ent, base, gal = pipe.bim, pipe.entwining, pipe.base, pipe.galois
        antipode = hopf.construct_antipode_from_galois(bim, ent, gal)
        modules = [hm.K_omega(bim, d) for d in (1, 2)]
        if name == "g2":
            from importlib import resources

            with resources.as_file(resources.files("weakhopf") / "data"
                                   / "g2_free.module") as path:
                modules.append(inst.load_module(path, bim))
        for module in modules:
            coin = hm.coinvariants(bim, ent, antipode, module)
            assert _entry(coin.report, "coinv.beta-idem").holds
            assert _entry(coin.report, "coinv.prop75-square").holds
    _report("criterion 7 (round trip and coinvariants)")


def _mutations():
    """Ten documented single-entry perturbations of G2."""
    return [
        ("m: g_00 * g_00 coefficient 1 -> 2", "m", (0, 0), 2),
        ("m: g_01 * g_11 coefficient 1 -> 0", "m", (1, 7), 0),
        ("m: g_10 * g_01 coefficient 1 -> 1/2", "m", (3, 9), Fraction(1, 2)),
        ("e: drop g_00 from the unit", "e", (0, 0), 0),
        ("e: g_11 coefficient 1 -> 1/2", "e", (3, 0), Fraction(1, 2)),
        ("delta: delta(g_00) coefficient 1 -> 2", "delta", (0, 0), 2),
        ("delta: drop delta(g_01)", "delta", (5, 1), 0),
        ("eps: eps(g_00) 1 -> 2", "eps", (0, 0), 2),
        ("tau: drop tau(g_00 (x) g_01)", "tau", (4, 1), 0),
        ("tau: sign flip on tau(g_01 (x) g_10)", "tau", (9, 6), -1),
    ]


def _mutate(bim, field, pos, value):
    target = getattr(bim, field)
    rows = [list(r) for r in target.mat.data]
    rows[pos[0]][pos[1]] = value
    mat = Mat(target.mat.rows, target.mat.cols, rows)
    new_map = dataclasses.replace(target, mat=mat)
    if field == "tau":
        return dataclasses.replace(bim, tau=new_map, tau_prime=new_map)
    return dataclasses.replace(bim, **{field: new_map})


def test_criterion_8_mutation_sensitivity():
    start = time.perf_counter()
    for description, field, pos, value in _mutations():
        broken = _mutate(inst.g2(), field, pos, value)
        failed = []
        for report in bm.check_instance(broken).values():
            failed.extend(report.failed_ids())
        ent = ew.build_entwining(broken)
        failed.extend(ew.check_weak_entwining(ent, broken).failed_ids())
        failed.extend(ew.check_derived_identities(ent, broken).failed_ids())
        assert failed, description
    elapsed = time.perf_counter() - start
    assert elapsed < 10.0, elapsed
    _report("criterion 8 (10 mutations all caught by named checks, < 10 s)")


def test_criterion_9_determinism(tmp_path):
    from importlib import resources

    data = resources.files("weakhopf") / "data"
    g2_file = tmp_path / "g2.instance"
    g2_file.write_text((data / "g2.instance").read_text())
    nz_file = tmp_path / "nz.instance"
    nz_file.write_text((data / "nz.instance").read_text())
    module_file = tmp_path / "free.module"
    module_file.write_text((data / "g2_free.module").read_text())
    jobs = [
        ["check", str(g2_file)],
        ["derive", str(g2_file)],
        ["galois", str(g2_file)],
        ["antipode", str(g2_file)],
        ["hopfmod", str(g2_file), str(module_file)],
        ["check", str(nz_file)],
        ["antipode", str(nz_file)],
    ]
    runs = []
    for attempt in range(2):
        blobs = []
        for k, argv in enumerate(jobs):
            out = tmp_path / f"report-{attempt}-{k}.json"
            cli.main(argv + ["--out", str(out)])
            blobs.append(out.read_bytes())
        runs.append(blobs)
    assert runs[0] == runs[1]
    # sanity: the structured output is valid JSON and schema-stable
    for blob in runs[0]:
        doc = json.loads(blob)
        assert json.dumps(doc, sort_keys=True, indent=2) + "\n" == blob.decode()
    _report("criterion 9 (byte-identical structured reports)")
