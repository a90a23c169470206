"""Tests of the benchmark itself.

    python3 -m pytest -q bench/test_bench.py

They run single short passes of the swarm and hopfmod-dense workloads, so
they take well under a minute.
"""

from __future__ import annotations

import dataclasses
import json
import random
import shutil
import subprocess
from pathlib import Path

import pytest

import inputs
import run
import spans
import workloads

ROOT = Path(__file__).resolve().parent.parent
lib = run.import_library()


def _benchmark_json():
    return json.loads((ROOT / "BENCHMARK.json").read_text())


@pytest.fixture(scope="module")
def swarm_runs(tmp_path_factory):
    """One untraced and two traced runs of one pass each."""
    work = tmp_path_factory.mktemp("work")
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(workloads, "MIN_PASSES", 1)
        return (workloads.run(lib, "swarm", 5, 0, 0, work)[0],
                workloads.run(lib, "swarm", 5, 0, 1, work)[0],
                workloads.run(lib, "swarm", 5, 0, 1, work)[0])


def test_printed_metric_names_match_benchmark_json(swarm_runs):
    spec = _benchmark_json()
    untraced, traced, _ = swarm_runs
    assert list(untraced["metrics"]) == [m["name"] for m in spec["end_to_end"]]
    assert list(traced["metrics"]) == [m["name"] for m in spec["per_layer"]]
    for result, kind in ((untraced, "end_to_end"), (traced, "per_layer")):
        units = {m["name"]: m["unit"] for m in spec[kind]}
        assert {k: v["unit"] for k, v in result["metrics"].items()} == units
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)


def test_every_layer_metric_names_what_it_should_move():
    moves = json.loads((ROOT / "bench" / "expectations.json").read_text())
    names = {m["name"] for m in _benchmark_json()["per_layer"]}
    end_to_end = {m["name"] for m in _benchmark_json()["end_to_end"]}
    mapped = set()
    for entry in moves["layer_moves"]:
        mapped.update(entry["metrics"])
        assert set(entry["moves"]) <= end_to_end
        assert set(entry["workloads"]) <= set(workloads.WORKLOADS)
    assert mapped == names


def test_seed_code_passes_its_oracle_and_counts_repeat(swarm_runs):
    untraced, first, second = swarm_runs
    for result in swarm_runs:
        assert result["correct"] and result["failed"] == 0
    assert untraced["metrics"]["ok_frac"]["value"] == 1.0
    exact = [m["name"] for m in _benchmark_json()["per_layer"]
             if m["unit"] in ("count", "bits")]
    assert {k: first["metrics"][k]["value"] for k in exact} \
        == {k: second["metrics"][k]["value"] for k in exact}


def _plan(workload, seed, tmp_path):
    ops, files = workloads.plan(workload, seed, tmp_path)
    workloads.write_inputs(files)
    return ops


def _one_op(workload, seed, tmp_path, command):
    ops = _plan(workload, seed, tmp_path)
    return next(op for op in ops if op.command == command and op.inst.hopf)


@pytest.mark.parametrize("command", ["check", "galois", "antipode"])
def test_oracle_catches_a_wrong_expectation(tmp_path, command):
    op = _one_op("swarm", 3, tmp_path, command)
    code = op.run(lib)
    problems, _ = op.check(code)
    assert problems == []
    wrong = {"check": dataclasses.replace(op.inst, doc={**op.inst.doc,
                                                        "dim": op.inst.n + 1}),
             "galois": dataclasses.replace(op.inst, hopf=False),
             "antipode": dataclasses.replace(
                 op.inst, antipode={(0, 0): 2})}[command]
    assert dataclasses.replace(op, inst=wrong).check(code)[0]


def test_oracle_catches_a_wrong_module_expectation(tmp_path):
    op = _one_op("hopfmod-dense", 3, tmp_path, "hopfmod")
    code = op.run(lib)
    assert op.check(code)[0] == []
    wrong = dataclasses.replace(op, d=op.d + 1)
    assert wrong.check(code)[0]


def test_verdict_oracle_catches_a_wrong_expectation(tmp_path):
    inst = inputs.relabel(inputs.dual(inputs.FAMILIES["G2"]()), [2, 0, 3, 1])
    path = tmp_path / "g2.instance"
    path.write_text(inst.text())
    op = workloads.Op("G2", inst, "verdict", path)
    verdict = op.run(lib)
    assert op.check(verdict)[0] == []
    for wrong in (dataclasses.replace(inst, hopf=False),
                  dataclasses.replace(inst, antipode={(0, 0): 1})):
        assert dataclasses.replace(op, inst=wrong).check(verdict)[0]


def test_changed_output_bytes_count_as_a_failure(tmp_path):
    ops = _plan("swarm", 2, tmp_path)[:3]
    digests = {}
    meas = workloads.Measurement()
    workloads.run_pass(lib, ops, digests, meas)
    digests[ops[0].label] = "0" * 64
    workloads.run_pass(lib, ops, digests, meas)
    assert (meas.attempted, meas.failed) == (6, 1)


def _files(workload, seed, where):
    _plan(workload, seed, where)
    return {p.name: p.read_bytes() for p in sorted(where.iterdir())}


@pytest.mark.parametrize("workload", ["verdict-ladder", "swarm", "hopfmod-dense"])
def test_same_seed_gives_byte_identical_inputs(tmp_path, workload):
    assert _files(workload, 7, tmp_path / "a") == _files(workload, 7, tmp_path / "b")


def test_another_seed_changes_the_mix():
    def swarm_mix(seed):
        return [inst.name for inst in inputs.swarm(seed)]

    def hopfmod_mix(seed):
        return [(inst.name, d, module["h"]) for inst, d, module
                in inputs.hopfmod(seed)]

    assert swarm_mix(1) != swarm_mix(2)
    assert hopfmod_mix(1) != hopfmod_mix(2)
    # the seed never changes the families or their carrier dimensions
    assert sorted(i.name.removeprefix("dual(").rstrip(")")
                  for i in inputs.swarm(1)) == sorted(inputs.SWARM_FAMILIES)



def test_seeds_only_permute_the_module_entries():
    def entries(seed):
        return sorted((module["name"], sorted(r[-1] for r in module["h"]),
                       sorted(r[-1] for r in module["theta"]))
                      for _, _, module in inputs.hopfmod(seed))

    assert entries(1) == entries(2)


def test_quantile_is_the_harrell_davis_estimate():
    assert workloads.quantile([4.0] * 7, 0.9) == pytest.approx(4.0)
    assert workloads.quantile([1.0, 2.0, 3.0], 0.5) == pytest.approx(2.0)
    # n = 2, p = 1/2: Beta(3/2, 3/2) splits its mass evenly
    assert workloads.quantile([1.0, 3.0], 0.5) == pytest.approx(2.0)
    # n = 1: the one value
    assert workloads.quantile([5.0], 0.9) == pytest.approx(5.0)
    # I_x(1, 1) = x and I_x(2, 1) = x^2
    assert workloads._betainc(1.0, 1.0, 0.3) == pytest.approx(0.3)
    assert workloads._betainc(2.0, 1.0, 0.3) == pytest.approx(0.09)

@pytest.mark.parametrize("family", sorted(inputs.FAMILIES))
def test_generated_instances_match_the_library_generators(family):
    ours = inputs.FAMILIES[family]()
    theirs = {
        "Z2": lambda: lib.instances.z2(), "NZ": lambda: lib.instances.nz(),
        "SL": lambda: lib.instances.sl(), "K2": lambda: lib.instances.k2(),
        "G2": lambda: lib.instances.g2(),
        "M2": lambda: lib.instances.monoid_algebra([[0, 0], [0, 1]]),
        "V4": lambda: lib.instances.group_algebra(inputs.klein()),
        "K3": lambda: lib.instances.groupoid_algebra(
            lib.instances.discrete_groupoid(3)),
        "K4": lambda: lib.instances.groupoid_algebra(
            lib.instances.discrete_groupoid(4)),
        "G2K2": lambda: lib.instances.groupoid_algebra(
            lib.instances.GroupoidSpec(4, ((0, 1),))),
    }.get(family)
    if theirs is None:
        table = {"Z": inputs.cyclic, "M": inputs.max_monoid}[family[0]](
            int(family[1:]))
        theirs = lambda: lib.instances.monoid_algebra(table)  # noqa: E731
    for a, b in ((lib.instances.from_doc(ours.doc), theirs()),
                 (lib.instances.from_doc(inputs.dual(ours).doc),
                  lib.instances.dual_instance(theirs()))):
        for attr in ("m", "e", "delta", "eps", "tau"):
            assert getattr(a, attr) == getattr(b, attr), attr


def test_groupoid_antipode_matches_the_library():
    spec = lib.instances.GroupoidSpec(4, ((0, 1),))
    mat = lib.instances.groupoid_antipode(spec).mat
    want = {(r, c): 1 for r in range(mat.rows) for c in range(mat.cols)
            if mat.data[r][c]}
    assert inputs.FAMILIES["G2K2"]().antipode == want


def test_change_of_basis_is_exactly_inverted():
    p, q = inputs.change_of_basis(12, random.Random(4))
    ident = [[int(i == j) for j in range(12)] for i in range(12)]
    assert inputs._matmul(p, q) == ident
    upper_half = 12 * 13 // 2
    assert sum(1 for row in p for v in row if v) >= upper_half
    assert sum(1 for row in q for v in row if v) >= upper_half


def test_tracer_reaches_names_imported_by_name_and_restores_them():
    original = lib.hopf.require_instance
    tracer = spans.Tracer()
    with tracer:
        assert lib.hopf.require_instance is not original
        assert lib.entwining.require_instance is not original
        assert lib.bimonad.require_instance.__wrapped__ is original
        lib.hopf.require_instance(lib.instances.z2())
    assert lib.hopf.require_instance is original
    summary = tracer.summary()
    assert summary["bimonad.require_instance"]["calls"] == 1
    assert summary["bimonad.check_instance"]["calls"] == 1
    outer = summary["bimonad.require_instance"]
    assert outer["self_s"] <= outer["total_s"]


def test_counting_is_charged_to_no_traced_function():
    tracer = spans.Tracer()
    f, g = tracer._name_id("a.f"), tracer._name_id("exactmat.mul")
    count = tracer._name_id("trace.count")
    outer = tracer._open(f)
    inner = tracer._open(g)
    tracer._close(inner, g, 1.0, 2.0)
    counted = tracer._open(count)
    tracer._close(counted, count, 2.0, 5.0)
    tracer._close(outer, f, 0.0, 6.0)
    summary = tracer.summary()
    assert summary["a.f"]["total_s"] == 3.0
    assert summary["a.f"]["self_s"] == 2.0
    assert summary["exactmat.mul"]["total_s"] == 1.0


def test_runs_fail_without_the_program_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "bench", tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    spec = _benchmark_json()
    out = subprocess.run(
        spec["command"] + ["--workload", "swarm", "--seed", "1",
                           "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert out.returncode != 0
    assert out.stdout == ""
