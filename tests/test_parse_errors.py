"""Golden error codes and JSON paths for malformed entries of every list
the parser reads in bulk or entry by entry: the initial state, explicit
effect entries and their atom lists, goal atoms, constraint pairs, cost
rules, cost overrides and benefit overrides. Each malformed kind sits at a
non-first index, so a bulk reader must report the same offender, with the
same code and path, as one that parses entry by entry. The messages of
every case are pinned by one digest."""

import hashlib
import json

import pytest

from gops import parse_instance
from gops.errors import ParseError

_ATOMS = [["a", [0, 1]], ["b", [2, 3]], ["a", [3, 0]]]
_PAIRS = [["e", [0, 0]], ["e", [1, 1]], ["r", [2, 2]]]

GBGOP = {
    "format": "gop-instance",
    "version": 1,
    "map": {"M": 3, "N": 3},
    "predicates": ["a", "b"],
    "state": _ATOMS,
    "actions": [
        {"name": "e", "explicit": [[[0, 0], _ATOMS], [[1, 2], _ATOMS], [[3, 3], _ATOMS]]},
        {"name": "r", "effect": "b", "source_guard": "true", "target_guard": "true",
         "max_distance": 1.0, "metric": "euclidean"},
    ],
    "cost": {"default": 0.5,
             "rules": [[{"atom": atom}, (i + 1) / 4] for i, atom in enumerate(_ATOMS)],
             "overrides": [[pair, 0.25] for pair in _PAIRS]},
    "ics": [{"pairs": _PAIRS, "condition": "true"}],
    "problem": {"type": "gbgop", "budget": 2.0,
                "theta_in": [["b", [0, 0]], ["b", [1, 0]], ["b", [2, 0]]],
                "theta_out": [["b", [3, 3]], ["b", [3, 2]], ["b", [3, 1]]]},
}

BMGOP = dict(GBGOP,
             problem={"type": "bmgop", "k": 2, "budget": 2.0},
             benefit={"per_predicate": {"a": 1.0},
                      "overrides": [[atom, 2.0] for atom in _ATOMS]})

# list -> (base document, the list in it, where a [name, [x, y]] sits in an element)
LISTS = {
    "state": (GBGOP, lambda d: d["state"], ()),
    "explicit": (GBGOP, lambda d: d["actions"][0]["explicit"], None),
    "explicit-atoms": (GBGOP, lambda d: d["actions"][0]["explicit"][1][1], ()),
    "theta_in": (GBGOP, lambda d: d["problem"]["theta_in"], ()),
    "theta_out": (GBGOP, lambda d: d["problem"]["theta_out"], ()),
    "ic-pairs": (GBGOP, lambda d: d["ics"][0]["pairs"], ()),
    "cost-rules": (GBGOP, lambda d: d["cost"]["rules"], (0, "atom")),
    "cost-overrides": (GBGOP, lambda d: d["cost"]["overrides"], (0,)),
    "benefit-overrides": (BMGOP, lambda d: d["benefit"]["overrides"], (0,)),
}


def _point_holder(element, inner):
    """(list holding the point, index of the point in it); an explicit
    entry holds its point first, a [name, [x, y]] holds it second."""
    if inner is None:
        return element, 0
    for i in inner:
        element = element[i]
    return element, 1


def _set_coordinate(i, value):
    def change(element, inner):
        holder, at = _point_holder(element, inner)
        holder[at][i] = value
        return element
    return change


def _set_point(value):
    def change(element, inner):
        holder, at = _point_holder(element, inner)
        holder[at] = value
        return element
    return change


def _set_head(value):
    """Replace an element's first part: the name of a [name, [x, y]], the
    pair or atom of an override, the point of an explicit entry."""
    def change(element, inner):
        element[0] = value
        return element
    return change


KINDS = {
    "bool-x": _set_coordinate(0, True),
    "float-y": _set_coordinate(1, 1.0),
    "string-point": _set_point("1,2"),
    "short-point": _set_point([1]),
    "long-point": _set_point([1, 2, 3]),
    "null": lambda element, inner: None,
    "dict": lambda element, inner: {"x": 1},
    "short": lambda element, inner: element[:1],
    "long": lambda element, inner: element + [0],
    "number-head": _set_head(7),
    "null-head": _set_head(None),
    "repeat-first": None,  # a copy of the list's first element
}

GOLDEN = {
    ("state", "bool-x"): ("type", "$.state[1]"),
    ("state", "float-y"): ("type", "$.state[1]"),
    ("state", "string-point"): ("type", "$.state[1]"),
    ("state", "short-point"): ("type", "$.state[1]"),
    ("state", "long-point"): ("type", "$.state[1]"),
    ("state", "null"): ("type", "$.state[1]"),
    ("state", "dict"): ("type", "$.state[1]"),
    ("state", "short"): ("type", "$.state[1]"),
    ("state", "long"): ("type", "$.state[1]"),
    ("state", "number-head"): ("type", "$.state[1]"),
    ("state", "null-head"): ("type", "$.state[1]"),
    ("state", "repeat-first"): None,
    ("explicit", "bool-x"): ("type", "$.actions[0].explicit[1]"),
    ("explicit", "float-y"): ("type", "$.actions[0].explicit[1]"),
    ("explicit", "string-point"): ("type", "$.actions[0].explicit[1]"),
    ("explicit", "short-point"): ("type", "$.actions[0].explicit[1]"),
    ("explicit", "long-point"): ("type", "$.actions[0].explicit[1]"),
    ("explicit", "null"): ("type", "$.actions[0].explicit[1]"),
    ("explicit", "dict"): ("type", "$.actions[0].explicit[1]"),
    ("explicit", "short"): ("type", "$.actions[0].explicit[1]"),
    ("explicit", "long"): ("type", "$.actions[0].explicit[1]"),
    ("explicit", "number-head"): ("type", "$.actions[0].explicit[1]"),
    ("explicit", "null-head"): ("type", "$.actions[0].explicit[1]"),
    ("explicit", "repeat-first"): ("duplicate", "$.actions[0].explicit[1]"),
    ("explicit-atoms", "bool-x"): ("type", "$.actions[0].explicit[1][1]"),
    ("explicit-atoms", "float-y"): ("type", "$.actions[0].explicit[1][1]"),
    ("explicit-atoms", "string-point"): ("type", "$.actions[0].explicit[1][1]"),
    ("explicit-atoms", "short-point"): ("type", "$.actions[0].explicit[1][1]"),
    ("explicit-atoms", "long-point"): ("type", "$.actions[0].explicit[1][1]"),
    ("explicit-atoms", "null"): ("type", "$.actions[0].explicit[1][1]"),
    ("explicit-atoms", "dict"): ("type", "$.actions[0].explicit[1][1]"),
    ("explicit-atoms", "short"): ("type", "$.actions[0].explicit[1][1]"),
    ("explicit-atoms", "long"): ("type", "$.actions[0].explicit[1][1]"),
    ("explicit-atoms", "number-head"): ("type", "$.actions[0].explicit[1][1]"),
    ("explicit-atoms", "null-head"): ("type", "$.actions[0].explicit[1][1]"),
    ("explicit-atoms", "repeat-first"): None,
    ("theta_in", "bool-x"): ("type", "$.problem.theta_in[1]"),
    ("theta_in", "float-y"): ("type", "$.problem.theta_in[1]"),
    ("theta_in", "string-point"): ("type", "$.problem.theta_in[1]"),
    ("theta_in", "short-point"): ("type", "$.problem.theta_in[1]"),
    ("theta_in", "long-point"): ("type", "$.problem.theta_in[1]"),
    ("theta_in", "null"): ("type", "$.problem.theta_in[1]"),
    ("theta_in", "dict"): ("type", "$.problem.theta_in[1]"),
    ("theta_in", "short"): ("type", "$.problem.theta_in[1]"),
    ("theta_in", "long"): ("type", "$.problem.theta_in[1]"),
    ("theta_in", "number-head"): ("type", "$.problem.theta_in[1]"),
    ("theta_in", "null-head"): ("type", "$.problem.theta_in[1]"),
    ("theta_in", "repeat-first"): None,
    ("theta_out", "bool-x"): ("type", "$.problem.theta_out[1]"),
    ("theta_out", "float-y"): ("type", "$.problem.theta_out[1]"),
    ("theta_out", "string-point"): ("type", "$.problem.theta_out[1]"),
    ("theta_out", "short-point"): ("type", "$.problem.theta_out[1]"),
    ("theta_out", "long-point"): ("type", "$.problem.theta_out[1]"),
    ("theta_out", "null"): ("type", "$.problem.theta_out[1]"),
    ("theta_out", "dict"): ("type", "$.problem.theta_out[1]"),
    ("theta_out", "short"): ("type", "$.problem.theta_out[1]"),
    ("theta_out", "long"): ("type", "$.problem.theta_out[1]"),
    ("theta_out", "number-head"): ("type", "$.problem.theta_out[1]"),
    ("theta_out", "null-head"): ("type", "$.problem.theta_out[1]"),
    ("theta_out", "repeat-first"): None,
    ("ic-pairs", "bool-x"): ("type", "$.ics[0].pairs[1]"),
    ("ic-pairs", "float-y"): ("type", "$.ics[0].pairs[1]"),
    ("ic-pairs", "string-point"): ("type", "$.ics[0].pairs[1]"),
    ("ic-pairs", "short-point"): ("type", "$.ics[0].pairs[1]"),
    ("ic-pairs", "long-point"): ("type", "$.ics[0].pairs[1]"),
    ("ic-pairs", "null"): ("type", "$.ics[0].pairs[1]"),
    ("ic-pairs", "dict"): ("type", "$.ics[0].pairs[1]"),
    ("ic-pairs", "short"): ("type", "$.ics[0].pairs[1]"),
    ("ic-pairs", "long"): ("type", "$.ics[0].pairs[1]"),
    ("ic-pairs", "number-head"): ("type", "$.ics[0].pairs[1]"),
    ("ic-pairs", "null-head"): ("type", "$.ics[0].pairs[1]"),
    ("ic-pairs", "repeat-first"): None,
    ("cost-rules", "bool-x"): ("type", "$.cost.rules[1].atom"),
    ("cost-rules", "float-y"): ("type", "$.cost.rules[1].atom"),
    ("cost-rules", "string-point"): ("type", "$.cost.rules[1].atom"),
    ("cost-rules", "short-point"): ("type", "$.cost.rules[1].atom"),
    ("cost-rules", "long-point"): ("type", "$.cost.rules[1].atom"),
    ("cost-rules", "null"): ("type", "$.cost.rules[1]"),
    ("cost-rules", "dict"): ("type", "$.cost.rules[1]"),
    ("cost-rules", "short"): ("type", "$.cost.rules[1]"),
    ("cost-rules", "long"): ("type", "$.cost.rules[1]"),
    ("cost-rules", "number-head"): ("type", "$.cost.rules[1]"),
    ("cost-rules", "null-head"): ("type", "$.cost.rules[1]"),
    ("cost-rules", "repeat-first"): None,
    ("cost-overrides", "bool-x"): ("type", "$.cost.overrides[1]"),
    ("cost-overrides", "float-y"): ("type", "$.cost.overrides[1]"),
    ("cost-overrides", "string-point"): ("type", "$.cost.overrides[1]"),
    ("cost-overrides", "short-point"): ("type", "$.cost.overrides[1]"),
    ("cost-overrides", "long-point"): ("type", "$.cost.overrides[1]"),
    ("cost-overrides", "null"): ("type", "$.cost.overrides[1]"),
    ("cost-overrides", "dict"): ("type", "$.cost.overrides[1]"),
    ("cost-overrides", "short"): ("type", "$.cost.overrides[1]"),
    ("cost-overrides", "long"): ("type", "$.cost.overrides[1]"),
    ("cost-overrides", "number-head"): ("type", "$.cost.overrides[1]"),
    ("cost-overrides", "null-head"): ("type", "$.cost.overrides[1]"),
    ("cost-overrides", "repeat-first"): ("duplicate", "$.cost.overrides[1]"),
    ("benefit-overrides", "bool-x"): ("type", "$.benefit.overrides[1]"),
    ("benefit-overrides", "float-y"): ("type", "$.benefit.overrides[1]"),
    ("benefit-overrides", "string-point"): ("type", "$.benefit.overrides[1]"),
    ("benefit-overrides", "short-point"): ("type", "$.benefit.overrides[1]"),
    ("benefit-overrides", "long-point"): ("type", "$.benefit.overrides[1]"),
    ("benefit-overrides", "null"): ("type", "$.benefit.overrides[1]"),
    ("benefit-overrides", "dict"): ("type", "$.benefit.overrides[1]"),
    ("benefit-overrides", "short"): ("type", "$.benefit.overrides[1]"),
    ("benefit-overrides", "long"): ("type", "$.benefit.overrides[1]"),
    ("benefit-overrides", "number-head"): ("type", "$.benefit.overrides[1]"),
    ("benefit-overrides", "null-head"): ("type", "$.benefit.overrides[1]"),
    ("benefit-overrides", "repeat-first"): ("duplicate", "$.benefit.overrides[1]"),
}


def _malformed(list_name: str, kind: str) -> str:
    base, locate, inner = LISTS[list_name]
    doc = json.loads(json.dumps(base))  # no shared sub-lists
    entries = locate(doc)
    change = KINDS[kind]
    entries[1] = entries[0] if change is None else change(entries[1], inner)
    return json.dumps(doc)


def test_base_documents_parse():
    for doc in (GBGOP, BMGOP):
        parse_instance(json.dumps(doc))


def test_golden_table_covers_every_list_and_kind():
    assert set(GOLDEN) == {(name, kind) for name in LISTS for kind in KINDS}


@pytest.mark.parametrize("list_name, kind", sorted(GOLDEN))
def test_malformed_entry_keeps_its_code_and_path(list_name, kind):
    """A golden entry of None: the document parses (a set repeats freely)."""
    text = _malformed(list_name, kind)
    if GOLDEN[list_name, kind] is None:
        parse_instance(text)
        return
    with pytest.raises(ParseError) as err:
        parse_instance(text)
    assert (err.value.code, err.value.path) == GOLDEN[list_name, kind]


# sha256 of the sorted messages (``str(err)``) of every golden case that
# raises, one a line; the reader's messages must not move
MESSAGES_SHA256 = "f66d5497fbce221c4c95d986da8b49e2423a104f92cbb8150b936afbe39712c0"


def test_malformed_entry_messages_hold():
    messages = []
    for list_name, kind in GOLDEN:
        if GOLDEN[list_name, kind] is not None:
            with pytest.raises(ParseError) as err:
                parse_instance(_malformed(list_name, kind))
            messages.append(str(err.value))
    text = "\n".join(sorted(messages))
    assert hashlib.sha256(text.encode()).hexdigest() == MESSAGES_SHA256, text
