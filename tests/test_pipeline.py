"""The Pipeline runs the axiom gate once per verdict and per CLI command."""

import dataclasses
from importlib import resources
from pathlib import Path

import pytest

from weakhopf import bimonad, cli, hopf, pipeline
from weakhopf import instances as inst
from weakhopf.errors import NotIdempotent
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
    assert capsys.readouterr().out.startswith("prerequisite axioms failed")
    assert len(gate_calls) == 1


def test_stages_are_built_once():
    pipe = Pipeline(inst.BUILTINS["g2"]())
    assert pipe.galois is pipe.galois
    assert pipe.antipode is pipe.verdict.antipode
    assert pipe.entwining is pipe.entwining_maps


def test_entwining_stage_refuses_a_kappa_that_is_not_idempotent(monkeypatch):
    build = pipeline.build_entwining
    monkeypatch.setattr(pipeline, "build_entwining", lambda bim:
                        dataclasses.replace(build(bim), kappa_prime_split=None))
    pipe = Pipeline(inst.BUILTINS["z2"]())
    assert not pipe.failed_axioms
    with pytest.raises(NotIdempotent):
        pipe.entwining
