"""The sparse-table codec: every instance and module table is read and
written by one reader and one writer, keyed on the map's dom and cod."""

import json
import random
from fractions import Fraction
from importlib import resources

import pytest

from weakhopf import instances as inst
from weakhopf.errors import IndexOutOfRange, InvalidSpec, SchemaError

DATA = resources.files("weakhopf") / "data"
G2 = inst.g2()


def _text(doc):
    return json.dumps(doc, sort_keys=True, indent=2) + "\n"


def _module_doc():
    return json.loads((DATA / "g2_free.module").read_text())


def _load_module(tmp_path, doc, max_dim=None):
    path = tmp_path / "m.module"
    path.write_text(json.dumps(doc))
    return inst.load_module(path, G2, max_dim=max_dim)


def _shape(table):
    table[2] = table[2][1:]
    return 2


def _index(table):
    table[2][2] = 4  # every factor of g2_free has dimension 4
    return 2


def _duplicate(table):
    table.append(list(table[0]))
    return len(table) - 1


def _literal(table):
    table[2][-1] = "1/0"
    return 2


@pytest.mark.parametrize("key", ["h", "theta"])
@pytest.mark.parametrize("spoil, error, words", [
    (_shape, SchemaError, "entry must be a list of 3 indices and a coefficient"),
    (_index, IndexOutOfRange, "index 4 out of range for dimension 4"),
    (_duplicate, SchemaError, "duplicate index tuple"),
    (_literal, SchemaError, "bad rational literal '1/0'"),
])
def test_module_table_errors_keep_class_message_and_locator(
        tmp_path, key, spoil, error, words):
    doc = _module_doc()
    pos = spoil(doc[key])
    with pytest.raises(SchemaError) as err:
        _load_module(tmp_path, doc)
    assert type(err.value) is error
    assert err.value.locator == f"{key}[{pos}]"
    assert words in str(err.value)


def test_theta_rows_list_the_codomain_first(g2):
    doc = _module_doc()
    module = inst.load_module(DATA / "g2_free.module", g2.bim)
    d = module.dim
    assert module.h.dom == (4, d) and module.h.cod == (d,)
    assert module.theta.dom == (d,) and module.theta.cod == (4, d)
    # h row [i, j, k, c]: c_k in h(b_i (x) c_j); theta row [i, j, k, c]:
    # b_i (x) c_j in theta(c_k)
    for i, j, k, c in doc["h"]:
        assert module.h.mat.data[k][i * d + j] == Fraction(c)
    for i, j, k, c in doc["theta"]:
        assert module.theta.mat.data[i * d + j][k] == Fraction(c)
    assert len(list(module.h.mat.items())) == len(doc["h"])
    assert len(list(module.theta.mat.items())) == len(doc["theta"])


def test_dense_module_round_trips_byte_for_byte(tmp_path):
    rng = random.Random(18)
    n, d = G2.n, 3

    def table():
        rows = ([i, j, k, str(Fraction(rng.randint(-9, 9), rng.randint(1, 4)))]
                for i in range(n) for j in range(d) for k in range(d))
        return [row for row in rows if row[-1] != "0"]

    doc = {"name": "dense", "dim": d, "h": table(), "theta": table()}
    coefficients = [row[-1] for row in doc["h"] + doc["theta"]]
    assert any("/" in c for c in coefficients)
    assert any(c.startswith("-") for c in coefficients)
    text = _text(doc)
    path = tmp_path / "dense.module"
    path.write_text(text)
    module = inst.load_module(path, G2)
    assert inst.save_module(module, tmp_path / "again.module") == text
    assert (tmp_path / "again.module").read_text() == text


def test_tabled_tau_with_its_own_tau_prime_round_trips_byte_for_byte(tmp_path):
    doc = json.loads((DATA / "z2.instance").read_text())
    del doc["expected"]
    doc["name"] = "z2-scaled"
    doc["tau"] = [[0, 0, 0, 0, "2"], [0, 1, 0, 1, "1/3"], [0, 1, 1, 0, "-1/2"],
                  [1, 0, 0, 1, "3"], [1, 1, 1, 1, "1"]]
    doc["tau_prime"] = [[0, 0, 0, 0, "1/2"], [0, 1, 1, 0, "-2"],
                        [1, 0, 0, 1, "1/3"], [1, 1, 1, 1, "1"]]
    text = _text(doc)
    path = tmp_path / "scaled.instance"
    path.write_text(text)
    bim = inst.load(path)
    # row [i, j, k, l, c]: b_k (x) b_l in tau(b_i (x) b_j)
    assert bim.tau.mat.data[2][1] == Fraction(-1, 2)
    assert bim.tau.mat.data[1][1] == Fraction(1, 3)
    assert bim.tau_prime.mat.data[1][2] == Fraction(1, 3)
    assert bim.tau_prime != bim.tau
    assert inst.to_json_text(bim) == text


# ---------------------------------------------------------------------------
# malformed documents raise SchemaError or InvalidSpec, and nothing else
# ---------------------------------------------------------------------------

FUZZ_VALUES = (0, -1, 10 ** 6, True, None, 1.5, "1/0", "x", [], {})


def _slots(node, depth=0):
    """(container, key, depth) of every value below node."""
    for key, value in (node.items() if isinstance(node, dict)
                       else enumerate(node)):
        yield node, key, depth
        if isinstance(value, (dict, list)):
            yield from _slots(value, depth + 1)


def _mutate(doc, rng):
    """Replace, drop or duplicate one field (depth 0), one entry (depth 1)
    or one index or coefficient (depth 2) of doc, in place."""
    slots = list(_slots(doc))
    depth = rng.choice(sorted({s[2] for s in slots}))
    node, key, _ = rng.choice([s for s in slots if s[2] == depth])
    action = rng.choice(("replace", "replace", "drop", "duplicate"))
    if action == "drop":
        del node[key]
    elif action == "duplicate" and isinstance(node, list):
        node.insert(rng.randrange(len(node) + 1),
                    json.loads(json.dumps(node[key])))
    else:
        node[key] = rng.choice(FUZZ_VALUES)


def _fuzz(text, rng, load, cases):
    for _ in range(cases):
        doc = json.loads(text)
        for _ in range(rng.choice((1, 1, 2))):
            _mutate(doc, rng)
        try:
            load(doc)
        except (SchemaError, InvalidSpec):
            pass
        except Exception as exc:
            raise AssertionError(f"{exc!r} on {json.dumps(doc)[:400]}") from exc


@pytest.mark.parametrize("name", sorted(inst.BUILTINS))
def test_malformed_instance_documents_raise_only_input_errors(name):
    text = (DATA / f"{name}.instance").read_text()
    _fuzz(text, random.Random(f"instance {name}"),
          lambda doc: inst.from_doc(doc, max_dim=12), 1000)


def test_malformed_module_documents_raise_only_input_errors(tmp_path):
    text = (DATA / "g2_free.module").read_text()
    _fuzz(text, random.Random("module g2_free"),
          lambda doc: _load_module(tmp_path, doc, max_dim=12), 1000)


# ---------------------------------------------------------------------------
# mutated texts, and JSON nested past the recursion limit, raise SchemaError
# or InvalidSpec too
# ---------------------------------------------------------------------------

TEXT_CHARS = '[]{}",:-/0123456789 eflipx'


def _mutate_text(text, rng):
    """Truncate text, or drop, replace or splice in a run of characters."""
    i = rng.randrange(len(text))
    j = min(len(text), i + rng.randint(1, 8))
    action = rng.choice(("truncate", "drop", "replace", "splice"))
    if action == "truncate":
        return text[:i]
    if action == "drop":
        return text[:i] + text[j:]
    if action == "replace":
        return (text[:i] + "".join(rng.choice(TEXT_CHARS)
                                   for _ in range(j - i)) + text[j:])
    k = rng.randrange(len(text))
    return text[:i] + text[k:k + rng.randint(1, 40)] + text[i:]


LOADERS = {"instance": lambda path: inst.load(path, max_dim=12),
           "module": lambda path: inst.load_module(path, G2, max_dim=12)}


@pytest.mark.parametrize("name", [
    *sorted(f"{n}.instance" for n in inst.BUILTINS), "g2_free.module"])
def test_mutated_texts_raise_only_input_errors(name, tmp_path):
    text = (DATA / name).read_text()
    load = LOADERS[name.split(".")[1]]
    rng = random.Random(f"text {name}")
    path = tmp_path / name
    for _ in range(150):
        mutated = _mutate_text(text, rng)
        path.write_text(mutated)
        try:
            load(path)
        except (SchemaError, InvalidSpec):
            pass
        except Exception as exc:
            raise AssertionError(f"{exc!r} on {mutated[:400]!r}") from exc


@pytest.mark.parametrize("opening, closing", [("[", "]"), ('{"a": ', "}")])
def test_json_nested_past_the_recursion_limit_is_a_schema_error(
        opening, closing, tmp_path):
    deep = 100_000
    path = tmp_path / "deep.json"
    path.write_text('{"dim": 2, "m": ' + opening * deep + "0" + closing * deep
                    + "}")
    for load in LOADERS.values():
        with pytest.raises(SchemaError, match="nested too deeply"):
            load(path)
