import json
from importlib import resources

import pytest

from weakhopf import entwining as ew
from weakhopf import exactmat, hopf
from weakhopf import instances as inst
from weakhopf.errors import (
    IndexOutOfRange,
    NoUnit,
    NotAssociative,
    SchemaError,
    TauPrimeRequired,
)
from weakhopf.exactmat import Mat
from weakhopf.pipeline import Pipeline
from weakhopf.tensorexpr import compose, flip_map, hmap, identity_map


def test_every_generator_output_passes_checks():
    candidates = [
        inst.groupoid_algebra(inst.full_groupoid(2)),
        inst.groupoid_algebra(inst.GroupoidSpec(3, ((0, 1),))),
        inst.groupoid_algebra(inst.discrete_groupoid(3)),
        inst.group_algebra(inst.cyclic_group_table(3)),
        inst.monoid_algebra([[0, 1], [1, 1]]),
        inst.super_line(),
    ]
    for bim in candidates:
        assert not Pipeline(bim).failed_axioms, bim.name


def test_trivial_group_is_ground_field():
    bim = inst.group_algebra(inst.cyclic_group_table(1))
    assert bim.n == 1
    assert not Pipeline(bim).failed_axioms


def test_one_object_groupoid_is_ground_field():
    bim = inst.groupoid_algebra(inst.discrete_groupoid(1))
    assert bim.n == 1


def test_full_two_object_groupoid_is_g2():
    bim = inst.groupoid_algebra(inst.full_groupoid(2))
    assert bim.n == 4
    assert bim.m == inst.g2().m


def test_disjoint_trivial_groupoids_give_k2():
    bim = inst.groupoid_algebra(inst.discrete_groupoid(2))
    assert bim.n == 2
    ent = ew.build_entwining(bim)
    assert ent.xibar == bim.id1()


def test_bundled_antipode_passes_on_generated_groupoids():
    for spec in (inst.full_groupoid(2), inst.GroupoidSpec(3, ((0, 1),)),
                 inst.discrete_groupoid(2)):
        bim = inst.groupoid_algebra(spec)
        ent = ew.build_entwining(bim)
        s = inst.groupoid_antipode(spec)
        assert hopf.check_antipode(bim, ent, s).passed


def test_group_table_validation():
    with pytest.raises(NoUnit):
        inst.monoid_algebra([[1, 1], [1, 1]])
    with pytest.raises(NotAssociative):
        inst.monoid_algebra([[0, 1, 2], [1, 2, 2], [2, 0, 1]])
    with pytest.raises(Exception):
        inst.group_algebra([[0, 1], [1, 1]])  # z has no inverse


def test_super_line_structure():
    bim = inst.super_line()
    col = [bim.tau.mat.data[r][3] for r in range(4)]  # x (x) x column
    assert col == [0, 0, 0, -1]
    assert not Pipeline(bim).failed_axioms


def test_dual_swaps_structure(any_pipeline):
    bim = any_pipeline.bim
    dual = inst.dual_instance(bim)
    assert dual.m.mat == bim.delta.mat.transpose()
    assert dual.eps.mat == bim.e.mat.transpose()
    assert not Pipeline(dual).failed_axioms


def test_dual_fails_iff_original_fails():
    import dataclasses

    bim = inst.g2()
    broken = dataclasses.replace(
        bim, eps=dataclasses.replace(bim.eps, mat=bim.eps.mat + bim.eps.mat))
    assert Pipeline(broken).failed_axioms
    assert Pipeline(inst.dual_instance(broken)).failed_axioms


def test_load_save_round_trip(tmp_path, any_pipeline):
    bim = any_pipeline.bim
    path = tmp_path / "inst.json"
    text = inst.save(bim, path)
    again = inst.load(path)
    assert again.m == bim.m and again.delta == bim.delta
    assert again.tau == bim.tau and again.tau_prime == bim.tau_prime
    assert inst.to_json_text(again) == text


def test_flip_token_expands_to_permutation(tmp_path):
    doc = {
        "name": "tiny", "dim": 2,
        "m": [[0, 0, 0, "1"], [0, 1, 1, "1"], [1, 0, 1, "1"], [1, 1, 0, "1"]],
        "e": [[0, "1"]],
        "delta": [[0, 0, 0, "1"], [1, 1, 1, "1"]],
        "eps": [[0, "1"], [1, "1"]],
        "tau": "flip",
    }
    path = tmp_path / "tiny.instance"
    path.write_text(json.dumps(doc))
    bim = inst.load(path)
    assert bim.tau == flip_map(2)


def test_duplicate_entries_are_schema_errors(tmp_path):
    doc = {
        "name": "dup", "dim": 1,
        "m": [[0, 0, 0, "1"], [0, 0, 0, "1"]],
        "e": [[0, "1"]],
        "delta": [[0, 0, 0, "1"]],
        "eps": [[0, "1"]],
        "tau": "flip",
    }
    path = tmp_path / "dup.instance"
    path.write_text(json.dumps(doc))
    with pytest.raises(SchemaError) as err:
        inst.load(path)
    assert "duplicate" in str(err.value)


def test_index_out_of_range(tmp_path):
    doc = {
        "name": "oob", "dim": 1,
        "m": [[0, 0, 1, "1"]],
        "e": [[0, "1"]],
        "delta": [[0, 0, 0, "1"]],
        "eps": [[0, "1"]],
        "tau": "flip",
    }
    path = tmp_path / "oob.instance"
    path.write_text(json.dumps(doc))
    with pytest.raises(IndexOutOfRange):
        inst.load(path)


def test_bad_rational_and_bad_expected(tmp_path):
    doc = {
        "name": "bad", "dim": 1,
        "m": [[0, 0, 0, "one"]],
        "e": [[0, "1"]],
        "delta": [[0, 0, 0, "1"]],
        "eps": [[0, "1"]],
        "tau": "flip",
    }
    path = tmp_path / "bad.instance"
    path.write_text(json.dumps(doc))
    with pytest.raises(SchemaError):
        inst.load(path)
    doc["m"] = [[0, 0, 0, "1"]]
    doc["expected"] = {"nonsense": 3}
    path.write_text(json.dumps(doc))
    with pytest.raises(SchemaError):
        inst.load(path)


def test_non_involutive_tau_requires_tau_prime(tmp_path):
    doc = {
        "name": "needstp", "dim": 1,
        "m": [[0, 0, 0, "1"]],
        "e": [[0, "1"]],
        "delta": [[0, 0, 0, "1"]],
        "eps": [[0, "1"]],
        "tau": [[0, 0, 0, 0, "2"]],
    }
    path = tmp_path / "tp.instance"
    path.write_text(json.dumps(doc))
    with pytest.raises(TauPrimeRequired):
        inst.load(path)
    doc["tau_prime"] = [[0, 0, 0, 0, "1/2"]]
    path.write_text(json.dumps(doc))
    bim = inst.load(path)
    assert bim.tau_prime.mat.data[0][0] * bim.tau.mat.data[0][0] == 1


def test_table_tau_round_trips_with_tau_prime(tmp_path):
    doc = {
        "name": "scaled", "dim": 1,
        "m": [[0, 0, 0, "1"]],
        "e": [[0, "1"]],
        "delta": [[0, 0, 0, "1"]],
        "eps": [[0, "1"]],
        "tau": [[0, 0, 0, 0, "2"]],
        "tau_prime": [[0, 0, 0, 0, "1/2"]],
    }
    path = tmp_path / "scaled.instance"
    path.write_text(json.dumps(doc))
    bim = inst.load(path)
    text = inst.to_json_text(bim)
    assert '"tau": [' in text and '"tau_prime"' in text
    out = tmp_path / "again.instance"
    out.write_text(text)
    again = inst.load(out)
    assert again.tau == bim.tau and again.tau_prime == bim.tau_prime
    assert inst.to_json_text(again) == text


def test_grading_only_with_flip(tmp_path):
    doc = {
        "name": "badgrading", "dim": 1,
        "m": [[0, 0, 0, "1"]],
        "e": [[0, "1"]],
        "delta": [[0, 0, 0, "1"]],
        "eps": [[0, "1"]],
        "tau": [[0, 0, 0, 0, "1"]],
        "grading": [0],
    }
    path = tmp_path / "grading.instance"
    path.write_text(json.dumps(doc))
    with pytest.raises(SchemaError):
        inst.load(path)


@pytest.mark.parametrize("grading", [[True, 0], [1.0, 0], [0, 2], [0]])
def test_grading_entries_must_be_the_ints_0_or_1(tmp_path, grading):
    doc = {
        "name": "graded", "dim": 2,
        "m": [[0, 0, 0, "1"]],
        "e": [[0, "1"]],
        "delta": [[0, 0, 0, "1"]],
        "eps": [[0, "1"]],
        "tau": "flip",
        "grading": grading,
    }
    path = tmp_path / "graded.instance"
    path.write_text(json.dumps(doc))
    with pytest.raises(SchemaError) as err:
        inst.load(path)
    assert err.value.locator == "grading"


def test_shipped_files_match_builtins():
    from importlib import resources

    for name, make in inst.BUILTINS.items():
        shipped = resources.files("weakhopf") / "data" / f"{name}.instance"
        text = shipped.read_text(encoding="utf-8")
        loaded = inst.from_doc(json.loads(text))
        assert loaded.expected is not None
        assert inst.to_json_text(make(), expected=loaded.expected) == text


def test_expected_block_pins_dimensions(g2):
    from importlib import resources

    with resources.as_file(resources.files("weakhopf") / "data"
                           / "g2.instance") as path:
        loaded = inst.load(path)
    assert loaded.expected == {"base_dim": 2, "tensor_dim": 8, "gamma_rank": 8}


def _non_commuting_z2():
    """z2 with tau_prime = E_{01,01}, which does not commute with the flip."""
    import dataclasses

    tp = hmap(2, 2, 2, Mat.from_rowmaps(4, 4, [{}, {1: 1}, {}, {}]))
    return dataclasses.replace(inst.z2(), tau_prime=tp)


def test_dual_nabla_is_derived_from_the_dual_pair():
    for bim in [make() for make in inst.BUILTINS.values()] + [_non_commuting_z2()]:
        dual = inst.dual_instance(bim)
        assert dual.nabla == compose([dual.tau_prime, dual.tau]), bim.name


def test_dual_of_an_involutive_instance_shares_tau_prime(z2):
    dual = inst.dual_instance(z2.bim)
    assert z2.bim.tau_prime is z2.bim.tau
    assert dual.tau_prime is dual.tau


def test_non_commuting_tau_prime_fails_the_same_axioms_on_the_dual():
    bim = _non_commuting_z2()
    failed = Pipeline(bim).failed_axioms
    assert "yb.reg-commute" in failed
    assert Pipeline(inst.dual_instance(bim)).failed_axioms == failed


def test_loading_a_builtin_multiplies_no_matrices(monkeypatch):
    # a "flip" tau is an involution by construction, so it is its own
    # tau_prime unchecked, and nabla is only built when it is read
    products = []
    mul = exactmat.mul
    monkeypatch.setattr(exactmat, "mul",
                        lambda a, b: products.append(1) or mul(a, b))
    for name in sorted(inst.BUILTINS):
        bim = inst.load(resources.files("weakhopf") / "data"
                        / f"{name}.instance")
        assert products == [], name
        assert bim.tau_prime is bim.tau
        assert bim.nabla == identity_map((bim.n, bim.n))
        assert products, name
        products.clear()


def test_writing_a_loaded_builtin_multiplies_no_matrices(monkeypatch):
    # its tau is a graded flip and its own tau_prime, so nabla is the
    # identity and need not be built to decide that tau_prime is implied
    products = []
    mul = exactmat.mul
    monkeypatch.setattr(exactmat, "mul",
                        lambda a, b: products.append(1) or mul(a, b))
    for name in sorted(inst.BUILTINS):
        path = resources.files("weakhopf") / "data" / f"{name}.instance"
        bim = inst.load(path)
        text = inst.to_json_text(bim)
        assert products == [], name
        assert "tau_prime" not in json.loads(text), name
