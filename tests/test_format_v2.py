"""Version 2 of the instance format: the initial state and explicit effect
tables as canonical indices (``k * (M + 1) * (N + 1) + y * (M + 1) + x``
for an atom of predicate ``k``, ``y * (M + 1) + x`` for a point).

The package reads versions 1 and 2 but writes neither; ``legacy_text``
writes them as it did. Both versions of one instance parse to equal
instances (state, tables, groundings) and round-trip, each to its own
bytes. Every malformed
version-2 state, table or action ends in a ``ParseError`` with a code and
the JSON path of the first faulty item, never in a traceback, however its
fault slips past ``dict()``."""

import copy
import hashlib
import json
import random

import pytest

from gops import (ActionRule, CostModel, GbgopInstance, GridMap, GroundAtom, Point,
                  gen_campaign, gen_random, parse_instance, serialize_instance)
from gops.cli import main
from gops.core import AtomSet, EffectTable
from gops.encodings import (CoverProblem, MonotoneCnf, encode_max_k_cover, encode_monsat,
                            encode_set_cover)
from gops.errors import GopsError, InstanceError, ParseError

from helpers import golden_corpus, legacy_text

GROUNDING_TABLES = ("s0_mask", "effects", "costs", "benefits", "ic_s0", "pair_ics")


def _encodings():
    rng = random.Random(3)
    for seed in range(3):
        universe = tuple(range(12))
        families = tuple(frozenset(rng.sample(universe, rng.randint(1, 5))) for _ in range(9))
        families += (frozenset(universe[:6]), frozenset(universe[6:]))
        yield encode_set_cover(CoverProblem(universe=universe, families=families))
        yield encode_max_k_cover(CoverProblem(universe=universe, families=families, k=3))
    yield encode_monsat(MonotoneCnf(("x0", "x1", "x2"), (frozenset({"x0", "x1"}),
                                                         frozenset({"x2"}))))


def _corpus():
    """The campaign, the serialize golden's corpus, the map-ladder rung
    sizes with explicit tables and the encodings."""
    scenario = gen_campaign()
    yield scenario.gbgop
    yield scenario.bmgop
    yield from golden_corpus()
    for size, actions in ((17, 3), (44, 2)):
        for flavor in ("gbgop", "bmgop"):
            yield gen_random(seed=97 * size + 1, width=size, height=size, predicates=3,
                             actions=actions, radius=3.0, ics=2, problem=flavor)
    yield from _encodings()


def test_both_versions_parse_to_equal_instances_and_round_trip():
    tables = states = 0
    for inst in _corpus():
        v1, v2 = legacy_text(inst, 1), legacy_text(inst, 2)
        assert json.loads(v2)["version"] == 2 and json.loads(v1)["version"] == 1
        old, new = parse_instance(v1), parse_instance(v2)
        assert type(new.s0) is AtomSet
        assert new.s0 == old.s0 == inst.s0 and hash(new.s0) == hash(old.s0)
        assert list(new.s0) == list(old.s0)
        states += bool(inst.s0)
        assert new.actions == old.actions == inst.actions
        for rule in new.actions:
            if rule.explicit_effects is not None:
                assert type(rule.explicit_effects) is EffectTable
                tables += 1
        assert (new.cost_model, new.ics) == (old.cost_model, old.ics)
        for name in GROUNDING_TABLES:
            assert getattr(new.grounding, name) == getattr(old.grounding, name), name
        # each version round-trips, and either parse writes both versions
        for parsed in (old, new):
            assert legacy_text(parsed, 1) == v1
            assert legacy_text(parsed, 2) == v2
    assert tables > 300 and states > 250


def test_the_version_2_layout():
    inst = gen_campaign().bmgop
    doc = json.loads(legacy_text(inst, 2))
    grid, n_points = inst.grid, inst.grid.n_points
    width = grid.width_bound + 1
    assert doc["state"] == sorted(inst.predicates.index(a.predicate) * n_points
                                  + a.point.y * width + a.point.x for a in inst.s0)
    v1 = json.loads(legacy_text(inst, 1))
    assert doc.keys() == v1.keys()
    assert all(doc[key] == v1[key] for key in doc if key not in ("version", "state", "actions"))
    for rule, action, old in zip(inst.actions, doc["actions"], v1["actions"]):
        if rule.explicit_effects is None:
            assert action == old
            continue
        points = [point for point, _ in action["explicit"]]
        assert points == sorted(p.y * width + p.x for p in rule.explicit_effects)
        for point, atoms in action["explicit"]:
            assert atoms == sorted(set(atoms))


# A 3 x 3 map (9 points) with predicates a, b (18 atoms) and action "e"
# with an explicit table: a(0,0) is atom 0, a(1,1) atom 4, b(2,0) atom 11,
# b(0,2) atom 15; point (1,2) is point 7.
BASE = {
    "format": "gop-instance",
    "version": 2,
    "map": {"M": 2, "N": 2},
    "predicates": ["a", "b"],
    "state": [0, 11],
    "actions": [{"name": "e", "explicit": [[0, [4, 11]], [7, [15]]]}],
    "cost": {"default": 0.5, "rules": [], "overrides": []},
    "ics": [],
    "problem": {"type": "gbgop", "budget": 1.0, "theta_in": [["b", [0, 2]]], "theta_out": []},
}


def _document(change=None):
    doc = json.loads(json.dumps(BASE))
    if change:
        change(doc)
    return json.dumps(doc)


def _explicit(doc):
    return _explicit_of(doc, 0)


def _explicit_of(doc, i):
    return doc["actions"][i]["explicit"]


RULE_ACTION = {"name": "r", "effect": "b", "source_guard": "true", "target_guard": "true"}


def test_the_base_document_is_the_writers_own():
    inst = parse_instance(_document())
    text = legacy_text(inst, 2)
    assert text == legacy_text(parse_instance(text), 2)
    assert json.loads(text) == BASE
    assert inst.s0 == {GroundAtom("a", Point(0, 0)), GroundAtom("b", Point(2, 0))}
    assert inst.actions[0].explicit_effects == {
        Point(0, 0): frozenset({GroundAtom("a", Point(1, 1)), GroundAtom("b", Point(2, 0))}),
        Point(1, 2): frozenset({GroundAtom("b", Point(0, 2))})}


# case -> (document change, code, JSON path of the first faulty item)
ERRORS = {
    "state-true": (lambda d: d["state"].append(True), "type", "$.state[2]"),
    "state-float": (lambda d: d["state"].append(1.0), "type", "$.state[2]"),
    "state-negative": (lambda d: d["state"].append(-1), "index-range", "$.state[2]"),
    "state-is-the-atom-count": (lambda d: d["state"].append(18), "index-range", "$.state[2]"),
    "state-huge": (lambda d: d["state"].append(2 ** 70), "index-range", "$.state[2]"),
    "state-v1-atom": (lambda d: d["state"].append(["a", [0, 0]]), "type", "$.state[2]"),
    "state-string": (lambda d: d["state"].append("a"), "type", "$.state[2]"),
    "state-not-a-list": (lambda d: d.__setitem__("state", {"0": 0}), "type", "$.state"),
    "point-true": (lambda d: _explicit(d)[1].__setitem__(0, True), "type",
                   "$.actions[0].explicit[1][0]"),
    "point-float": (lambda d: _explicit(d)[1].__setitem__(0, 7.0), "type",
                    "$.actions[0].explicit[1][0]"),
    "point-negative": (lambda d: _explicit(d)[1].__setitem__(0, -1), "index-range",
                       "$.actions[0].explicit[1][0]"),
    "point-is-the-point-count": (lambda d: _explicit(d)[1].__setitem__(0, 9), "index-range",
                                 "$.actions[0].explicit[1][0]"),
    "point-huge": (lambda d: _explicit(d)[1].__setitem__(0, 2 ** 70), "index-range",
                   "$.actions[0].explicit[1][0]"),
    "atom-true": (lambda d: _explicit(d)[0][1].append(True), "type",
                  "$.actions[0].explicit[0][1][2]"),
    "atom-float": (lambda d: _explicit(d)[0][1].append(4.0), "type",
                   "$.actions[0].explicit[0][1][2]"),
    "atom-negative": (lambda d: _explicit(d)[1][1].append(-1), "index-range",
                      "$.actions[0].explicit[1][1][1]"),
    "atom-is-the-atom-count": (lambda d: _explicit(d)[1][1].append(18), "index-range",
                               "$.actions[0].explicit[1][1][1]"),
    "atom-v1-shaped": (lambda d: _explicit(d)[1][1].append(["b", [0, 2]]), "type",
                       "$.actions[0].explicit[1][1][1]"),
    "repeated-point": (lambda d: _explicit(d).append([0, [4]]), "duplicate",
                       "$.actions[0].explicit[2]"),
    # dict() takes true and 1 for one key, so the repeat is found first;
    # the entry-by-entry pass names the true
    "true-repeats-point-1": (lambda d: _explicit(d).extend([[1, []], [True, []]]), "type",
                             "$.actions[0].explicit[3][0]"),
    "row-not-a-list": (lambda d: _explicit(d).append([8, 5]), "type",
                       "$.actions[0].explicit[2][1]"),
    "row-a-string": (lambda d: _explicit(d).append([8, "ab"]), "type",
                     "$.actions[0].explicit[2][1]"),
    "row-an-object": (lambda d: _explicit(d).append([8, {"4": 4}]), "type",
                      "$.actions[0].explicit[2][1]"),
    # dict() takes "ab" as the entry ("a", "b")
    "two-character-string-entry": (lambda d: _explicit(d).append("ab"), "type",
                                   "$.actions[0].explicit[2]"),
    "two-key-object-entry": (lambda d: _explicit(d).append({"a": 1, "b": 2}), "type",
                             "$.actions[0].explicit[2]"),
    # dict() refuses these with TypeError or ValueError
    "v1-shaped-entry": (lambda d: _explicit(d).append([[2, 2], [["a", [0, 0]]]]), "type",
                        "$.actions[0].explicit[2][0]"),
    "three-element-entry": (lambda d: _explicit(d).append([8, [4], [5]]), "type",
                            "$.actions[0].explicit[2]"),
    "one-element-entry": (lambda d: _explicit(d).append([8]), "type",
                          "$.actions[0].explicit[2]"),
    "entry-not-a-list": (lambda d: _explicit(d).append(5), "type", "$.actions[0].explicit[2]"),
    "entry-null": (lambda d: _explicit(d).append(None), "type", "$.actions[0].explicit[2]"),
    "table-not-a-list": (lambda d: d["actions"][0].__setitem__("explicit", {"0": [4]}), "type",
                         "$.actions[0].explicit"),
    # the first faulty entry is named, whatever its fault
    "range-then-type": (lambda d: _explicit(d).extend([[9, []], [8, 5]]), "index-range",
                        "$.actions[0].explicit[2][0]"),
    "type-then-repeat": (lambda d: _explicit(d).extend([[8, [1.5]], [0, []]]), "type",
                         "$.actions[0].explicit[2][1][0]"),
    # a whole version-1 document labelled version 2
    "v1-document": (lambda d: d.update(state=[["a", [0, 0]]]), "type", "$.state[0]"),
    "v1-table": (lambda d: d["actions"][0].update(explicit=[[[0, 0], [["a", [1, 1]]]]]),
                 "type", "$.actions[0].explicit[0][0]"),
    # faults beyond the first action, and in the action objects themselves
    "second-action-atom-out-of-range": (
        lambda d: d["actions"].append({"name": "f", "explicit": [[0, [4]], [8, [18]]]}),
        "index-range", "$.actions[1].explicit[1][1][0]"),
    "last-of-500-actions": (
        lambda d: d["actions"].extend([{"name": f"f{i}", "explicit": [[i % 9, [i % 18]]]}
                                       for i in range(498)]
                                      + [{"name": "last", "explicit": [[0, [4, True]]]}]),
        "type", "$.actions[499].explicit[0][1][1]"),
    "explicit-fault-after-a-rule-action": (
        lambda d: d["actions"].insert(0, dict(RULE_ACTION)) or _explicit_of(d, 1)[1].__setitem__(0, 9),
        "index-range", "$.actions[1].explicit[1][0]"),
    "rule-fault-after-an-explicit-action": (
        lambda d: d["actions"].append(dict(RULE_ACTION, effect=5)), "type", "$.actions[1].effect"),
    "rule-fault-before-an-explicit-fault": (
        lambda d: d["actions"].extend([dict(RULE_ACTION, source_guard=1),
                                       {"name": "f", "explicit": [[9, []]]}]),
        "type", "$.actions[1].source_guard"),
    "state-fault-before-an-action-list-fault": (
        lambda d: d["state"].append(True) or d.__setitem__("actions", {}), "type", "$.state[2]"),
    "action-not-an-object": (lambda d: d["actions"].append(5), "type", "$.actions[1]"),
    "action-a-list": (lambda d: d["actions"].append(["f", []]), "type", "$.actions[1]"),
    "name-missing": (lambda d: d["actions"].append({"explicit": []}), "missing-key",
                     "$.actions[1]"),
    "name-not-a-string": (lambda d: d["actions"].append({"name": 5, "explicit": []}), "type",
                          "$.actions[1].name"),
    "name-null": (lambda d: d["actions"].append({"name": None, "explicit": []}), "type",
                  "$.actions[1].name"),
    "explicit-with-an-extra-key": (lambda d: d["actions"][0].__setitem__("metric", "euclidean"),
                                   "unknown-key", "$.actions[0]"),
    "explicit-with-an-effect": (lambda d: d["actions"].append({"name": "f", "explicit": [],
                                                               "effect": "a"}),
                                "unknown-key", "$.actions[1]"),
    "second-table-a-string": (lambda d: d["actions"].append({"name": "f", "explicit": "ab"}),
                              "type", "$.actions[1].explicit"),
    "second-table-null": (lambda d: d["actions"].append({"name": "f", "explicit": None}),
                          "type", "$.actions[1].explicit"),
}


@pytest.mark.parametrize("case", sorted(ERRORS))
def test_a_malformed_version_2_document_raises_a_parse_error_at_its_path(case):
    change, code, path = ERRORS[case]
    with pytest.raises(ParseError) as err:
        parse_instance(_document(change))
    assert err.value.code == code and err.value.path == path
    assert err.value.message.startswith(f"{path}: ")


# sha256 of the sorted messages (``str(err)``) of every case above, one a
# line; the version-2 reader's messages must not move
ERROR_MESSAGES_SHA256 = "4ffac41658ab4d9a6b0070d38b364f1cbdeab1e7dd83e72088e1bb5cb70dddc1"


def test_malformed_version_2_messages_hold():
    messages = []
    for change, _, _ in ERRORS.values():
        with pytest.raises(ParseError) as err:
            parse_instance(_document(change))
        messages.append(str(err.value))
    text = "\n".join(sorted(messages))
    assert hashlib.sha256(text.encode()).hexdigest() == ERROR_MESSAGES_SHA256, text


def test_a_repeated_predicate_is_reported_as_in_version_1():
    for version in (1, 2):
        doc = json.loads(legacy_text(parse_instance(_document()), version))
        doc["predicates"].append("a")
        with pytest.raises(InstanceError) as err:
            parse_instance(json.dumps(doc))
        assert err.value.code == "predicate-duplicate", version


def test_a_version_2_document_in_any_order_parses_to_the_canonical_one():
    def shuffle(doc):
        doc["state"] = [11, 0, 11]
        doc["actions"][0]["explicit"] = [[7, [15, 15]], [0, [11, 4]], [8, []]]

    inst = parse_instance(_document(shuffle))
    assert inst.s0 == parse_instance(_document()).s0 and len(inst.s0) == 2
    doc = json.loads(legacy_text(inst, 2))
    assert doc["state"] == [0, 11]
    assert _explicit(doc) == [[0, [4, 11]], [7, [15]], [8, []]]


def test_a_version_2_table_on_a_huge_map_parses_in_the_size_of_its_entries():
    # 10^12 points: the table keeps the indices it was given, not a mask
    n = 10 ** 6
    doc = json.loads(_document())
    doc["map"] = {"M": n - 1, "N": n - 1}
    last = n * n - 1
    doc["actions"][0]["explicit"] = [[last, [n * n + last]], [0, [0]]]
    doc["state"] = [n * n + last, 0]
    inst = parse_instance(json.dumps(doc))
    table = inst.actions[0].explicit_effects
    assert type(table) is EffectTable and len(table) == 2
    corner = Point(n - 1, n - 1)
    assert table[corner] == frozenset({GroundAtom("b", corner)})
    assert table[Point(0, 0)] == frozenset({GroundAtom("a", Point(0, 0))})
    assert list(inst.s0) == [GroundAtom("a", Point(0, 0)), GroundAtom("b", corner)]
    assert json.loads(legacy_text(inst, 2))["state"] == [0, n * n + last]


def test_a_table_and_state_of_another_map_are_written_by_their_atoms():
    parsed = parse_instance(_document())
    grid, predicates = GridMap(3, 2), ("b", "a")
    inst = GbgopInstance(grid=grid, predicates=predicates, s0=parsed.s0,
                         actions=(ActionRule(name="e",
                                             explicit_effects=parsed.actions[0].explicit_effects),),
                         cost_model=CostModel(), ics=(), budget=1.0,
                         theta_in=frozenset(), theta_out=frozenset())
    doc = json.loads(legacy_text(inst, 2))
    # on a 4 x 3 map with b first: a(0,0) is 12 + 0, b(2,0) is 2
    assert doc["state"] == [2, 12]
    assert doc["actions"][0]["explicit"] == [[0, [2, 17]], [9, [8]]]
    again = parse_instance(legacy_text(inst, 2))
    assert again.s0 == parsed.s0
    assert again.actions[0].explicit_effects == parsed.actions[0].explicit_effects


def test_gops_solve_prints_the_same_report_for_both_versions(tmp_path, capsys):
    inst = gen_random(seed=5, width=4, height=4, predicates=3, actions=3, radius=1.5, ics=2,
                      problem="bmgop")
    for version in (1, 2):
        (tmp_path / f"v{version}.json").write_text(legacy_text(inst, version))
    for method in ("approx", "exact", "ip"):
        printed = []
        for version in (1, 2):
            main(["solve", str(tmp_path / f"v{version}.json"), "--method", method, "--json"])
            printed.append(capsys.readouterr().out)
        assert printed[0] == printed[1] and json.loads(printed[0])["method"] == method


# ---------------------------------------------------------------------------
# Well-formed and mutated version-2 documents of mixed and encoded instances

def _campaign():
    scenario = gen_campaign()
    return [scenario.gbgop, scenario.bmgop]


def _mixed():
    """gen_random instances whose actions mix explicit tables and rules."""
    out = []
    for seed in range(40):
        inst = gen_random(seed=seed, width=4, height=3, predicates=3, actions=4, radius=1.5,
                          ics=2, problem=("gbgop", "bmgop")[seed % 2])
        if {rule.explicit_effects is None for rule in inst.actions} == {True, False}:
            out.append(inst)
    assert len(out) >= 8
    return out


def _small_encodings():
    rng = random.Random(11)
    universe = tuple(range(10))
    families = tuple(frozenset(rng.sample(universe, rng.randint(1, 4))) for _ in range(7))
    families += (frozenset(universe[:5]), frozenset(universe[5:]))
    return [encode_set_cover(CoverProblem(universe=universe, families=families)),
            encode_max_k_cover(CoverProblem(universe=universe, families=families, k=3)),
            encode_monsat(MonotoneCnf(("x0", "x1", "x2"),
                                      (frozenset({"x0", "x1"}), frozenset({"x2"}),
                                       frozenset({"x1", "x2"}))))]


@pytest.mark.parametrize("corpus", [_campaign, _mixed, _small_encodings],
                         ids=["campaign", "mixed", "encodings"])
def test_a_version_2_document_reads_as_its_version_3_document(corpus):
    for inst in corpus():
        text = legacy_text(inst, 2)
        got, want = parse_instance(text), parse_instance(serialize_instance(inst))
        assert got.s0 == want.s0 and got.actions == want.actions
        for name in GROUNDING_TABLES:
            assert getattr(got.grounding, name) == getattr(want.grounding, name), name
        assert legacy_text(got, 2) == text
        for rule in got.actions:
            if rule.explicit_effects is not None:
                assert type(rule.explicit_effects) is EffectTable


def _sweep_bases():
    """Version-2 documents of gen_random instances whose actions mix
    explicit tables and rules, and of three encodings."""
    return [json.loads(legacy_text(inst, 2)) for inst in _mixed()[:6] + _small_encodings()]


# index-shaped values that are not a valid index somewhere
_BAD_INDICES = (True, False, 1.0, 0.5, -1, 2 ** 70, "0", None, [0], {})
_ANY_VALUES = (True, 1.5, -1, 0, "x", "", None, [], [0], [[0, []]], {}, {"a": 1}, "ab")
_EXTRA_KEYS = (("metric", "euclidean"), ("effect", "p0"), ("max_distance", 1.0),
               ("source_guard", "true"), ("other", 1))


def _nodes(value, path=()):
    """Every node of a JSON value, as (path from the value, node)."""
    yield path, value
    if isinstance(value, list):
        for i, item in enumerate(value):
            yield from _nodes(item, path + (i,))
    elif isinstance(value, dict):
        for key, item in value.items():
            yield from _nodes(item, path + (key,))


def _put(doc, path, value):
    holder = doc
    for key in path[:-1]:
        holder = holder[key]
    holder[path[-1]] = value


def _mutate(doc, rng):
    """One one-node change of ``doc``'s actions, often in its last one."""
    actions = doc["actions"]
    explicit = [i for i, a in enumerate(actions) if "explicit" in a]
    i = len(actions) - 1 if rng.random() < 0.3 else rng.choice(explicit or range(len(actions)))
    action = actions[i]
    path, node = rng.choice(list(_nodes(action)))
    kind = rng.random()
    if isinstance(node, dict) and kind < 0.5:
        if rng.random() < 0.5 and node:
            del node[rng.choice(sorted(node))]
        else:
            key, value = rng.choice(_EXTRA_KEYS)
            node[key] = value
    elif isinstance(node, list) and node and path and path[-1] == "explicit" and kind < 0.5:
        # repeat a point, with the same or another row
        entry = copy.deepcopy(rng.choice(node))
        if isinstance(entry, list) and entry and rng.random() < 0.5:
            entry[-1] = []
        node.insert(rng.randrange(len(node) + 1), entry)
    elif type(node) is int and kind < 0.7:
        n_points = (doc["map"]["M"] + 1) * (doc["map"]["N"] + 1)
        bad = _BAD_INDICES + (n_points, n_points * len(doc["predicates"]), float(node))
        # or a valid point or atom index, which may repeat a point or an atom
        _put(actions, (i,) + path, rng.choice(bad + (rng.randrange(n_points),) * 4))
    elif not path:
        actions[i] = rng.choice(_ANY_VALUES)
    else:
        _put(actions, (i,) + path, rng.choice(_ANY_VALUES))


def test_a_mutated_version_2_document_reads_to_an_instance_or_an_error():
    rng = random.Random(2024)
    bases = _sweep_bases()
    kinds = {"instance": 0, "error": 0}
    codes = set()
    for n in range(400):
        doc = copy.deepcopy(bases[n % len(bases)])
        _mutate(doc, rng)
        try:
            inst = parse_instance(json.dumps(doc))
        except GopsError as err:
            kinds["error"] += 1
            codes.add(err.code)
            continue
        kinds["instance"] += 1
        assert parse_instance(legacy_text(inst, 2)).actions == inst.actions, n
    # the sweep reaches both outcomes and the reader's codes
    assert min(kinds.values()) >= 40
    assert {"type", "index-range", "duplicate", "unknown-key", "missing-key"} <= codes
