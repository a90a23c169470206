import json
import time
from importlib import resources
from pathlib import Path

import pytest

from weakhopf import cli


def data_path(name):
    return resources.files("weakhopf") / "data" / name


def run(argv, capsys):
    code = cli.main(argv)
    captured = capsys.readouterr()
    return code, captured.out


@pytest.fixture()
def g2_file(tmp_path):
    path = tmp_path / "g2.instance"
    path.write_text(data_path("g2.instance").read_text())
    return str(path)


@pytest.fixture()
def nz_file(tmp_path):
    path = tmp_path / "nz.instance"
    path.write_text(data_path("nz.instance").read_text())
    return str(path)


def test_check_passes_on_good_instance(g2_file, capsys):
    code, out = run(["check", g2_file], capsys)
    assert code == 0
    assert "axioms_pass=true" in out


def test_check_fails_with_named_axiom(tmp_path, g2_file, capsys):
    doc = json.loads(Path(g2_file).read_text())
    doc["eps"] = [[i, "2"] for i in range(4)]
    del doc["expected"]
    broken = tmp_path / "broken.instance"
    broken.write_text(json.dumps(doc))
    code, out = run(["check", str(broken)], capsys)
    assert code == 1
    assert "[FAIL]" in out and "wbb6" in out


def test_check_malformed_file_is_input_error(tmp_path, capsys):
    bad = tmp_path / "bad.instance"
    bad.write_text("{not json")
    assert cli.main(["check", str(bad)]) == 2
    missing = tmp_path / "missing.instance"
    assert cli.main(["check", str(missing)]) == 2


def test_max_dim_guard(g2_file, capsys):
    assert cli.main(["check", g2_file, "--max-dim", "2"]) == 2
    assert cli.main(["check", g2_file, "--max-dim", "4"]) == 0


def test_derive_reports_dims(g2_file, capsys):
    code, out = run(["derive", g2_file], capsys)
    assert code == 0
    assert "r=2" in out and "frobenius_separable=true" in out


def test_antipode_on_nz_reports_refutation(nz_file, capsys):
    code, out = run(["antipode", nz_file], capsys)
    assert code == 1
    assert "no weak antipode (linear system inconsistent)" in out
    assert "gamma rank 3/4" in out


def test_antipode_on_g2_prints_table(g2_file, tmp_path, capsys):
    out_file = tmp_path / "antipode.json"
    code, out = run(["antipode", g2_file, "--out", str(out_file)], capsys)
    assert code == 0
    assert "antipode origin from_galois" in out
    doc = json.loads(out_file.read_text())
    # sparse [src, dst, coeff] rows of the transpose permutation
    assert doc["antipode"]["entries"] == [
        [0, 0, "1"], [1, 2, "1"], [2, 1, "1"], [3, 3, "1"]]


def test_galois_verdicts(g2_file, nz_file, capsys):
    code, out = run(["galois", g2_file], capsys)
    assert code == 0
    assert "gamma: 8x8 rank 8 invertible" in out
    code, out = run(["galois", nz_file], capsys)
    assert code == 1
    assert "rank 3 not invertible" in out


def test_hopfmod_roundtrip(g2_file, tmp_path, capsys):
    module = tmp_path / "free.module"
    module.write_text(data_path("g2_free.module").read_text())
    code, out = run(["hopfmod", g2_file, str(module)], capsys)
    assert code == 0
    assert "coinvariants=2" in out and "roundtrip_pass=true" in out


def test_eval_prints_matrix(g2_file, capsys):
    code, out = run(["eval", g2_file, "eps o m"], capsys)
    assert code == 0
    assert out.startswith("map (4, 4) -> ()")


def test_eval_errors_are_input_errors(g2_file, capsys):
    assert cli.main(["eval", g2_file, "m ∘"]) == 2
    assert cli.main(["eval", g2_file, "m ∘ m"]) == 2
    assert cli.main(["eval", g2_file, "nosuchname"]) == 2


def test_eval_errors_name_the_end_and_the_expected_symbol(g2_file, capsys):
    for expr, message in [("m ∘", "unexpected end of expression (at "
                                  "position 3)"),
                          ("(m", "expected ')', found end of expression"),
                          ("id", "expected '^', found end of expression")]:
        assert cli.main(["eval", g2_file, expr]) == 2
        assert f"input error: {message}" in capsys.readouterr().err


def test_eval_of_an_entwining_map_needs_passing_axioms(tmp_path, g2_file,
                                                       capsys):
    doc = json.loads(Path(g2_file).read_text())
    doc["eps"] = [[i, "2"] for i in range(4)]
    del doc["expected"]
    broken = tmp_path / "broken.instance"
    broken.write_text(json.dumps(doc))
    assert cli.main(["eval", str(broken), "m ∘ kappa"]) == 2
    assert ("input error: 'kappa' needs an instance whose axioms pass "
            "(at position 4)") in capsys.readouterr().err
    assert cli.main(["eval", str(broken), "eps ∘ m"]) == 0
    assert cli.main(["eval", g2_file, "m ∘ kappa"]) == 0


def test_gen_reproduces_shipped_instances(tmp_path, capsys):
    cases = [
        (["gen", "groupoid", "--objects", "2", "--full"], "g2.instance"),
        (["gen", "groupoid", "--objects", "2"], "k2.instance"),
        (["gen", "group", "--cyclic", "2"], "z2.instance"),
        (["gen", "superline"], "sl.instance"),
        (["gen", "monoid", "--table", "0,1;1,1", "--name", "NZ"],
         "nz.instance"),
    ]
    for argv, shipped in cases:
        out_file = tmp_path / shipped
        assert cli.main(argv + ["--out", str(out_file)]) == 0
        assert out_file.read_text() == data_path(shipped).read_text(), shipped


def test_gen_dual(tmp_path, g2_file, capsys):
    out_file = tmp_path / "dual.instance"
    assert cli.main(["gen", "dual", "--of", g2_file,
                     "--out", str(out_file)]) == 0
    assert cli.main(["check", str(out_file)]) == 0


def test_structured_report_round_trips_through_renderer(g2_file, tmp_path,
                                                        capsys):
    out_file = tmp_path / "report.json"
    code, text = run(["check", g2_file, "--out", str(out_file)], capsys)
    raw = out_file.read_text()
    doc = json.loads(raw)
    assert json.dumps(doc, sort_keys=True, indent=2) + "\n" == raw
    # text and JSON agree on content
    assert cli._render_text(doc) == text


def test_check_flags_expected_block_mismatch(tmp_path, g2_file, capsys):
    doc = json.loads(Path(g2_file).read_text())
    doc["expected"]["gamma_rank"] = 7
    pinned = tmp_path / "pinned.instance"
    pinned.write_text(json.dumps(doc))
    code, out = run(["check", str(pinned)], capsys)
    assert code == 1
    assert "[FAIL] expected.gamma_rank" in out
    assert "expected_pass=false" in out


def test_hopfmod_rejects_broken_module(g2_file, tmp_path, capsys):
    doc = json.loads(data_path("g2_free.module").read_text())
    doc["h"] = doc["h"][:-1]  # drop one structure constant
    broken = tmp_path / "broken.module"
    broken.write_text(json.dumps(doc))
    code, out = run(["hopfmod", g2_file, str(broken)], capsys)
    assert code == 1
    assert "module_pass=false" in out


def test_hopfmod_refuses_a_carrier_above_the_guard(g2_file, tmp_path, capsys):
    # g2 has n = 4, so the default --max-dim 12 admits carriers up to 48
    module = tmp_path / "big.module"
    module.write_text(json.dumps({"dim": 49, "h": [], "theta": []}))
    assert cli.main(["hopfmod", g2_file, str(module)]) == 2
    assert "--max-dim" in capsys.readouterr().err
    assert cli.main(["hopfmod", g2_file, str(module), "--max-dim", "13"]) == 1


@pytest.mark.parametrize("argv", [["check", "--float"],
                                  ["derive", "--tol", "1e-9"]])
def test_removed_float_flags_are_input_errors(g2_file, argv, capsys):
    # exact arithmetic is the only mode; argparse exits 2 on an unknown flag
    with pytest.raises(SystemExit) as exc:
        cli.main([argv[0], g2_file, *argv[1:]])
    assert exc.value.code == 2


def test_structured_reports_are_deterministic(g2_file, nz_file, tmp_path,
                                              capsys):
    module = tmp_path / "free.module"
    module.write_text(data_path("g2_free.module").read_text())
    jobs = [
        (["check", g2_file], "check.json"),
        (["derive", g2_file], "derive.json"),
        (["galois", g2_file], "galois.json"),
        (["antipode", g2_file], "antipode.json"),
        (["hopfmod", g2_file, str(module)], "hopfmod.json"),
        (["antipode", nz_file], "antipode_nz.json"),
    ]
    snapshots = []
    for rounds in range(2):
        blob = []
        for argv, name in jobs:
            out_file = tmp_path / f"{rounds}-{name}"
            cli.main(argv + ["--out", str(out_file)])
            blob.append(out_file.read_bytes())
        snapshots.append(blob)
    assert snapshots[0] == snapshots[1]


def test_max_dim_refuses_declared_dim_before_building(tmp_path, capsys):
    big = tmp_path / "big.instance"
    big.write_text(json.dumps({"name": "big", "dim": 50, "tau": "flip"}))
    assert cli.main(["check", str(big)]) == 2
    assert "--max-dim" in capsys.readouterr().err


def test_gen_max_dim_refuses_requested_size(tmp_path, capsys):
    out_file = tmp_path / "z50.instance"
    assert cli.main(["gen", "group", "--cyclic", "50",
                     "--out", str(out_file)]) == 2
    assert "--max-dim" in capsys.readouterr().err
    assert not out_file.exists()
    assert cli.main(["gen", "groupoid", "--objects", "4", "--full",
                     "--out", str(out_file)]) == 2


@pytest.mark.parametrize("literal", ["1e999999", "1.5", " 1", "0x10", "1_000",
                                     "1/-2", "inf"])
def test_literals_outside_the_documented_syntax_exit_2_at_once(
        tmp_path, literal, capsys):
    # Fraction("1e999999") would build an integer of about 3.3 M bits
    doc = {"name": "exp", "dim": 1, "m": [[0, 0, 0, literal]],
           "e": [[0, 1]], "delta": [[0, 0, 0, 1]], "eps": [[0, 1]],
           "tau": "flip"}
    path = tmp_path / "exp.instance"
    path.write_text(json.dumps(doc))
    start = time.perf_counter()
    assert cli.main(["check", str(path)]) == 2
    assert time.perf_counter() - start < 1
    assert "rational literal" in capsys.readouterr().err


def test_int_literal_over_the_digit_limit_is_an_input_error(tmp_path, capsys):
    path = tmp_path / "long.instance"
    path.write_text('{"name": "long", "dim": 1, "m": [[0, 0, 0, 1'
                    + "0" * 5000 + ']], "tau": "flip"}')
    assert cli.main(["check", str(path)]) == 2
    assert "not valid JSON" in capsys.readouterr().err


def test_hopfmod_refuses_a_module_name_that_is_not_a_string(
        g2_file, tmp_path, capsys):
    doc = json.loads(data_path("g2_free.module").read_text())
    doc["name"] = ["not", "a", "string"]
    module = tmp_path / "named.module"
    module.write_text(json.dumps(doc))
    code, out = run(["hopfmod", g2_file, str(module)], capsys)
    assert code == 2
    assert out == ""


@pytest.mark.parametrize("argv", [
    ["gen", "group", "--table", "0,x"],
    ["gen", "groupoid", "--objects", "3", "--arrows", "0-"],
])
def test_gen_refuses_a_part_that_is_not_an_int(tmp_path, argv, capsys):
    out_file = tmp_path / "out.instance"
    assert cli.main(argv + ["--out", str(out_file)]) == 2
    assert "input error: " in capsys.readouterr().err
    assert not out_file.exists()


@pytest.mark.parametrize("argv", [
    ["gen", "superline", "--cyclic", "3"],
    ["gen", "dual", "--of", "F", "--name", "X"],
    ["gen", "groupoid", "--objects", "2", "--full", "--arrows", "0-5"],
    ["gen", "group", "--cyclic", "2", "--table", "0,1;1,0"],
])
def test_gen_refuses_an_option_its_kind_does_not_take(tmp_path, argv, capsys):
    # argparse exits 2, as for an unknown command, before anything is built
    out_file = tmp_path / "out.instance"
    with pytest.raises(SystemExit) as exc:
        cli.main(argv + ["--out", str(out_file)])
    assert exc.value.code == 2
    assert not out_file.exists()


def test_check_refuses_a_directory_as_input(tmp_path, capsys):
    assert cli.main(["check", str(tmp_path)]) == 2
    assert "input error: " in capsys.readouterr().err


def test_hopfmod_malformed_module_is_an_input_error(g2_file, tmp_path, capsys):
    doc = json.loads(data_path("g2_free.module").read_text())
    doc["theta"][1][0] = 4  # g2 has n = 4: factor index 4 is out of range
    module = tmp_path / "malformed.module"
    module.write_text(json.dumps(doc))
    assert cli.main(["hopfmod", g2_file, str(module)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("input error: ")
    assert "[theta[1]]" in err


# nested past the interpreter's recursion limit, which json.loads and the
# expression parser reach by recursion
DEEP = 100_000


def test_deeply_nested_json_is_an_input_error(g2_file, tmp_path, capsys):
    deep = tmp_path / "deep.json"
    deep.write_text('{"dim": 2, "m": ' + "[" * DEEP + "]" * DEEP + "}")
    for argv in (["check", str(deep)], ["hopfmod", g2_file, str(deep)]):
        assert cli.main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("input error: not valid JSON: nested too deeply")


def test_deeply_nested_expression_is_an_input_error(g2_file, capsys):
    assert cli.main(["eval", g2_file, "(" * 2000 + "m" + ")" * 2000]) == 2
    err = capsys.readouterr().err
    assert err.startswith("input error: expression nested too deeply")


def test_eval_of_a_long_flat_chain_succeeds(g2_file, capsys):
    code, out = run(["eval", g2_file, " ∘ ".join(["id^1"] * 3000 + ["m"])],
                    capsys)
    assert code == 0
    assert out.startswith("map (4, 4) -> (4,)")


@pytest.mark.parametrize("expr", ["id^12", " ⊗ ".join(["id^1"] * 3000)])
def test_eval_above_the_entry_bound_is_a_prompt_input_error(g2_file, capsys,
                                                            expr):
    start = time.perf_counter()
    assert cli.main(["eval", g2_file, expr]) == 2
    assert time.perf_counter() - start < 1.0
    assert "exceeds the bound of 2985984 entries" in capsys.readouterr().err


def test_eval_within_the_entry_bound_evaluates(g2_file, capsys):
    code, out = run(["eval", g2_file, "id^5"], capsys)   # 4^10 entries
    assert code == 0
    assert out.startswith("map (4, 4, 4, 4, 4) -> (4, 4, 4, 4, 4)")


def test_gen_groupoid_refuses_objects_above_the_guard_before_listing_arrows(
        tmp_path, monkeypatch, capsys):
    from weakhopf import instances as inst

    def refuse(*_args):
        raise AssertionError("built a groupoid above --max-dim")

    monkeypatch.setattr(inst, "full_groupoid", refuse)
    monkeypatch.setattr(inst.GroupoidSpec, "components", refuse)
    out_file = tmp_path / "big.instance"
    for extra in (["--full"], [], ["--arrows", "0-1"]):
        assert cli.main(["gen", "groupoid", "--objects", "10000000", *extra,
                         "--out", str(out_file)]) == 2
        assert "--max-dim 12" in capsys.readouterr().err
    assert not out_file.exists()


@pytest.mark.parametrize("argv, option", [
    (["gen", "groupoid", "--objects", "0"], "--objects"),
    (["gen", "groupoid", "--objects", "-2", "--full"], "--objects"),
    (["gen", "group", "--cyclic", "0"], "--cyclic"),
    (["gen", "group", "--cyclic", "-3"], "--cyclic"),
])
def test_gen_refuses_a_count_that_is_not_positive(tmp_path, argv, option,
                                                  capsys):
    out_file = tmp_path / "out.instance"
    assert cli.main(argv + ["--out", str(out_file)]) == 2
    err = capsys.readouterr().err
    assert f"input error: {option} must be a positive integer" in err
    assert not out_file.exists()
