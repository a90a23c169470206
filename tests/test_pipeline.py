"""The Pipeline runs the axiom gate once per verdict and per CLI command, and
checks each antipode and each module once."""

import dataclasses
import sys
from concurrent.futures import ThreadPoolExecutor
from importlib import resources
from pathlib import Path

import pytest

from weakhopf import bimonad, cli, hopf, hopfmodules, pipeline
from weakhopf import instances as inst
from weakhopf.errors import EquivalenceViolation, NotIdempotent
from weakhopf.pipeline import Pipeline

DATA = resources.files("weakhopf") / "data"
BROKEN = Path(__file__).parent / "data" / "golden" / "g2_bad_m.instance"


@pytest.fixture
def gate_calls(monkeypatch):
    """The instances bimonad.check_instance is called on, in order."""
    calls = []
    check_instance = bimonad.check_instance

    def counted(bim):
        calls.append(bim.name)
        return check_instance(bim)

    monkeypatch.setattr(bimonad, "check_instance", counted)
    return calls


@pytest.mark.parametrize("name", ["z2", "g2", "nz"])
def test_fundamental_verdict_runs_the_gate_once(name, gate_calls):
    verdict = hopf.fundamental_verdict(inst.BUILTINS[name]())
    assert verdict.hopf is (name != "nz")
    assert len(gate_calls) == 1


def _argv(command, path, tmp_path):
    if command == "gen":
        return ["gen", "dual", "--of", str(path), "--out", str(tmp_path / "d")]
    argv = [command, str(path)]
    if command == "hopfmod":
        argv.append(str(DATA / "g2_free.module"))
    if command == "eval":
        argv.append("kappa ∘ tau")
    return argv + ["--out", str(tmp_path / "report.json")]


@pytest.mark.parametrize("command", ["check", "derive", "galois", "antipode",
                                     "hopfmod", "eval", "gen"])
def test_cli_command_runs_the_gate_once(command, gate_calls, tmp_path, capsys):
    assert cli.main(_argv(command, DATA / "g2.instance", tmp_path)) == 0
    assert len(gate_calls) == 1


@pytest.mark.parametrize("command", ["check", "derive", "galois", "antipode"])
def test_cli_gate_on_a_non_hopf_instance(command, gate_calls, tmp_path, capsys):
    cli.main(_argv(command, DATA / "nz.instance", tmp_path))
    assert len(gate_calls) == 1


@pytest.mark.parametrize("command", ["derive", "galois", "antipode", "hopfmod"])
def test_cli_gate_refuses_a_broken_instance(command, gate_calls, tmp_path,
                                            capsys):
    assert cli.main(_argv(command, BROKEN, tmp_path)) == 1
    assert capsys.readouterr().out.splitlines()[0] == (
        "prerequisite axioms failed: alg.assoc, alg.unit-left, "
        "alg.unit-right, wbb6, wbb7")
    assert len(gate_calls) == 1


def test_stages_are_built_once():
    pipe = Pipeline(inst.BUILTINS["g2"]())
    assert pipe.galois is pipe.galois
    assert pipe.antipode is pipe.verdict.antipode
    assert pipe.entwining is pipe.entwining_maps


def test_entwining_stage_refuses_a_kappa_that_is_not_idempotent(monkeypatch):
    build = pipeline.build_entwining
    monkeypatch.setattr(pipeline, "build_entwining", lambda bim:
                        dataclasses.replace(build(bim), pbar_prime=None,
                                            ibar_prime=None))
    pipe = Pipeline(inst.BUILTINS["z2"]())
    assert not pipe.failed_axioms
    with pytest.raises(NotIdempotent):
        pipe.entwining


@pytest.fixture
def calls(monkeypatch):
    """Count the calls of the checks that must run once per antipode and per
    module, and of the linear solve; callers in the library reach them
    through these module names."""
    counts = dict.fromkeys(["check_antipode", "solve_antipode_linear",
                            "coinvariants", "check_mixed_bimodule"], 0)
    for module, name in ((hopf, "check_antipode"),
                         (hopf, "solve_antipode_linear"),
                         (hopfmodules, "coinvariants"),
                         (hopfmodules, "check_mixed_bimodule")):
        def counted(*args, _f=getattr(module, name), _name=name, **kwargs):
            counts[_name] += 1
            return _f(*args, **kwargs)
        monkeypatch.setattr(module, name, counted)
    return counts


def test_verdict_checks_the_antipode_and_each_module_once(calls, gate_calls):
    verdict = hopf.fundamental_verdict(inst.BUILTINS["g2"]())
    assert verdict.antipode_report.passed and verdict.roundtrip_report.passed
    # the modules are K_omega(1) and the module induced from its coinvariants
    assert calls == {"check_antipode": 1, "solve_antipode_linear": 1,
                     "coinvariants": 2, "check_mixed_bimodule": 2}
    assert len(gate_calls) == 1


@pytest.mark.parametrize("command, want", [
    ("antipode", {"check_antipode": 1, "solve_antipode_linear": 1,
                  "coinvariants": 0, "check_mixed_bimodule": 0}),
    ("hopfmod", {"check_antipode": 1, "solve_antipode_linear": 0,
                 "coinvariants": 2, "check_mixed_bimodule": 2}),
])
def test_cli_checks_the_antipode_and_each_module_once(command, want, calls,
                                                      gate_calls, tmp_path,
                                                      capsys):
    assert cli.main(_argv(command, DATA / "g2.instance", tmp_path)) == 0
    assert calls == want
    assert len(gate_calls) == 1


def test_verdict_refuses_a_linear_antipode_that_differs(monkeypatch):
    # the weak antipode is unique, so the solve must reproduce the gamma one
    solve = hopf.solve_antipode_linear

    def perturbed(bim, ent):
        # xibar = S*1 differs from S on G2
        return dataclasses.replace(solve(bim, ent), map=ent.xibar)

    monkeypatch.setattr(hopf, "solve_antipode_linear", perturbed)
    with pytest.raises(EquivalenceViolation, match="differs"):
        Pipeline(inst.BUILTINS["g2"]()).verdict


def test_verdict_refuses_a_linear_antipode_where_gamma_is_singular(
        monkeypatch):
    g2 = Pipeline(inst.BUILTINS["g2"]()).linear
    monkeypatch.setattr(hopf, "solve_antipode_linear", lambda bim, ent: g2)
    with pytest.raises(EquivalenceViolation, match="antipode=True, gamma=False"):
        Pipeline(inst.BUILTINS["nz"]()).verdict


def _verdict_summary(name):
    verdict = hopf.fundamental_verdict(inst.BUILTINS[name]())
    reports = [verdict.antipode_report, verdict.roundtrip_report]
    return (verdict.hopf, verdict.gamma_rank, verdict.gamma_prime_rank,
            verdict.linear_status,
            None if verdict.antipode is None else verdict.antipode.map,
            [None if r is None else [(e.axiom_id, e.holds) for e in r.entries]
             for r in reports])


def test_verdicts_in_threads_equal_a_sequential_run():
    # the library holds no process-global state that a thread could change;
    # a short switch interval interleaves the threads finely
    names = ["z2", "g2", "nz"] * 2
    sequential = [_verdict_summary(name) for name in names]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        with ThreadPoolExecutor(max_workers=4) as pool:
            threaded = list(pool.map(_verdict_summary, names, timeout=120))
    finally:
        sys.setswitchinterval(interval)
    assert threaded == sequential
