"""Explicit effect tables parsed into atom indices (``EffectTable``).

Differential tests hold a parsed table equal, as a Mapping, to the dict of
frozensets it was serialized from and to the one the object path parses
from the same document, and its grounding equal to the one the dict
gives. Fallback tests hold every table the index path does not take
to the error code and JSON path (or message) of the object path, and a table reused on another map
or predicate order to its Mapping interface."""

import json
import random

import pytest

from gops import (ActionRule, CostModel, GbgopInstance, GridMap, GroundAtom,
                  Point, gen_campaign, gen_random, parse_instance, serialize, serialize_instance)
from gops.core import EffectTable
from gops.encodings import CoverProblem, encode_max_k_cover, encode_set_cover
from gops.errors import InstanceError, ParseError

from helpers import golden_corpus

GROUNDING_TABLES = ("s0_mask", "effects", "costs", "benefits", "ic_s0", "pair_ics")


def _cover_problem(seed, k=None):
    rng = random.Random(seed)
    universe = tuple(range(12))
    families = tuple(frozenset(rng.sample(universe, rng.randint(1, 5))) for _ in range(9))
    families += (frozenset(universe[:6]), frozenset(universe[6:]))
    return CoverProblem(universe=universe, families=families, k=k)


def _corpus():
    """The map-ladder rung sizes in both flavours, the campaign, and the
    set-cover and max-k-cover encodings."""
    for size, actions in ((5, 3), (17, 3), (30, 3), (44, 2)):
        for seed in (1, 2, 3):
            for flavor in ("gbgop", "bmgop"):
                yield gen_random(seed=97 * size + seed, width=size, height=size, predicates=3,
                                 actions=actions, radius=3.0, ics=2, problem=flavor)
    scenario = gen_campaign()
    yield scenario.gbgop
    yield scenario.bmgop
    for seed in range(3):
        yield encode_set_cover(_cover_problem(seed))
        yield encode_max_k_cover(_cover_problem(seed, k=3))


CORPUS = list(_corpus())


@pytest.mark.parametrize("index", range(len(CORPUS)))
def test_parsed_tables_equal_the_serialized_dicts(index):
    inst = CORPUS[index]
    parsed = parse_instance(serialize_instance(inst))
    grid = inst.grid
    absent_on_map = Point(grid.width_bound, grid.height_bound)
    for rule, again in zip(inst.actions, parsed.actions):
        if rule.explicit_effects is None:
            continue
        want, got = rule.explicit_effects, again.explicit_effects
        assert type(got) is EffectTable  # parsing built no GroundAtom for it
        assert got == want and want == got
        assert dict(got.items()) == dict(want)
        assert sorted(got) == sorted(want)
        assert len(got) == len(want)
        for point in (Point(grid.width_bound + 1, 0), Point(0, -1), Point(0.5, 0), "p", None):
            assert got.get(point) is None and point not in got
        if absent_on_map not in want:
            assert got.get(absent_on_map) is None
        for point in want:
            assert got[Point(float(point.x), point.y)] == want[point]
    for name in GROUNDING_TABLES:
        assert getattr(parsed.grounding, name) == getattr(inst.grounding, name), name


def test_the_table_reader_matches_the_object_path(monkeypatch):
    # the campaign and the serialize golden's corpus, read once by the
    # table reader and once entry by entry as objects
    scenario = gen_campaign()
    texts = [serialize_instance(inst)
             for inst in (scenario.gbgop, scenario.bmgop, *golden_corpus())]
    read = [parse_instance(text) for text in texts]
    monkeypatch.setattr(serialize, "table_rows", lambda entries, offsets, grid: None)
    tables = 0
    for text, inst in zip(texts, read):
        objects = parse_instance(text)
        for rule, again in zip(inst.actions, objects.actions):
            if again.explicit_effects is None:
                continue
            assert type(rule.explicit_effects) is EffectTable
            assert type(again.explicit_effects) is dict
            assert rule.explicit_effects == again.explicit_effects
            tables += 1
        for name in GROUNDING_TABLES:
            assert getattr(inst.grounding, name) == getattr(objects.grounding, name), name
    assert tables > len(texts)


def test_the_corpus_has_explicit_tables_on_every_rung():
    sizes = {inst.grid.width_bound for inst in CORPUS
             if any(rule.explicit_effects for rule in inst.actions)}
    assert {5, 17, 30, 44} <= sizes


# A 3 x 3 map whose action "e" has an explicit table; each fallback case
# changes the document so that the index path must not take it.
BASE = {
    "format": "gop-instance",
    "version": 1,
    "map": {"M": 2, "N": 2},
    "predicates": ["a", "b"],
    "state": [["a", [0, 0]]],
    "actions": [{"name": "e", "explicit": [[[0, 0], [["a", [1, 1]], ["b", [2, 0]]]],
                                           [[1, 2], [["b", [0, 2]]]]]}],
    "cost": {"default": 0.5, "rules": [], "overrides": []},
    "ics": [],
    "problem": {"type": "gbgop", "budget": 1.0, "theta_in": [["b", [0, 2]]], "theta_out": []},
}


def _explicit(doc):
    return doc["actions"][0]["explicit"]


def _set(change):
    def edit(doc):
        change(doc)
        return doc
    return edit


# case -> (document change, error class, code, where): where is the JSON
# path of a ParseError and the message of an InstanceError, which has no
# path; recorded from the object path, which parsed every table before the
# index path existed
FALLBACKS = {
    "unknown-predicate": (_set(lambda d: _explicit(d)[1][1].append(["c", [0, 0]])),
                          InstanceError, "unknown-predicate",
                          "action 'e' effects: unknown predicate 'c'"),
    "off-map-point": (_set(lambda d: _explicit(d).append([[0, 3], []])),
                      InstanceError, "point-bounds", "action 'e': point (0,3) outside the map"),
    "off-map-point-x": (_set(lambda d: _explicit(d).append([[3, 0], []])),
                        InstanceError, "point-bounds", "action 'e': point (3,0) outside the map"),
    "negative-point": (_set(lambda d: _explicit(d)[1][0].__setitem__(0, -1)),
                       InstanceError, "point-bounds", "action 'e': point (-1,2) outside the map"),
    "huge-coordinate": (_set(lambda d: _explicit(d)[1][0].__setitem__(0, 2 ** 70)),
                        InstanceError, "point-bounds",
                        f"action 'e': point ({2 ** 70},2) outside the map"),
    "off-map-atom": (_set(lambda d: _explicit(d)[0][1].append(["a", [-1, 0]])),
                     InstanceError, "point-bounds",
                     "action 'e' effects: point (-1,0) outside the map"),
    "x-is-M-plus-1": (_set(lambda d: _explicit(d)[1][1].append(["a", [3, 0]])),
                      InstanceError, "point-bounds",
                      "action 'e' effects: point (3,0) outside the map"),
    "huge-atom-coordinate": (_set(lambda d: _explicit(d)[0][1][0][1].__setitem__(1, 2 ** 70)),
                             InstanceError, "point-bounds",
                             f"action 'e' effects: point (1,{2 ** 70}) outside the map"),
    "repeated-point": (_set(lambda d: _explicit(d).append([[0, 0], [["a", [0, 0]]]])),
                       ParseError, "duplicate", "$.actions[0].explicit[2]"),
    "repeated-predicate": (_set(lambda d: d["predicates"].append("a")),
                           InstanceError, "predicate-duplicate", "duplicate predicate 'a'"),
    "true-coordinate": (_set(lambda d: _explicit(d)[1][0].__setitem__(0, True)),
                        ParseError, "type", "$.actions[0].explicit[1]"),
    "float-coordinate": (_set(lambda d: _explicit(d)[1][0].__setitem__(1, 2.0)),
                         ParseError, "type", "$.actions[0].explicit[1]"),
    "true-atom-coordinate": (_set(lambda d: _explicit(d)[1][1][0][1].__setitem__(1, True)),
                             ParseError, "type", "$.actions[0].explicit[1][0]"),
    "float-atom-coordinate": (_set(lambda d: _explicit(d)[0][1][1][1].__setitem__(0, 2.0)),
                              ParseError, "type", "$.actions[0].explicit[0][1]"),
    "three-element-atom-point": (_set(lambda d: _explicit(d)[0][1][1].__setitem__(1, [2, 0, 0])),
                                 ParseError, "type", "$.actions[0].explicit[0][1]"),
    "row-not-a-list": (_set(lambda d: _explicit(d).append([[2, 2], 5])),
                       ParseError, "type", "$.actions[0].explicit[2]"),
    "entry-not-a-list": (_set(lambda d: _explicit(d).append(5)),
                         ParseError, "type", "$.actions[0].explicit[2]"),
    # parse errors come before instance errors, whichever entry is first
    "off-map-then-malformed": (_set(lambda d: _explicit(d).extend([[[0, 3], []], [[2, 2], 5]])),
                               ParseError, "type", "$.actions[0].explicit[3]"),
}


def _document(change=None):
    doc = json.loads(json.dumps(BASE))
    return json.dumps(change(doc) if change else doc)


@pytest.mark.parametrize("case", sorted(FALLBACKS))
def test_tables_off_the_mask_path_raise_the_object_paths_error(case):
    change, kind, code, where = FALLBACKS[case]
    with pytest.raises(kind) as err:
        parse_instance(_document(change))
    assert type(err.value) is kind and err.value.code == code
    assert (err.value.path if kind is ParseError else err.value.message) == where


def test_an_empty_atom_list_parses_to_an_empty_effect():
    doc = json.loads(_document())
    _explicit(doc).append([[2, 2], []])
    table = parse_instance(json.dumps(doc)).actions[0].explicit_effects
    assert type(table) is EffectTable
    assert table[Point(2, 2)] == frozenset() and len(table) == 3


def _with_table(table, grid, predicates):
    return GbgopInstance(grid=grid, predicates=predicates, s0=frozenset(),
                         actions=(ActionRule(name="e", explicit_effects=table),),
                         cost_model=CostModel(), ics=(), budget=1.0,
                         theta_in=frozenset(), theta_out=frozenset())


@pytest.mark.parametrize("grid, predicates", [(GridMap(2, 2), ("b", "a")),
                                              (GridMap(3, 2), ("a", "b")),
                                              (GridMap(2, 4), ("a", "b")),
                                              (GridMap(2, 2), ("a", "b", "c"))])
def test_a_table_on_another_map_or_predicate_order_grounds_by_its_mapping(grid, predicates):
    table = parse_instance(_document()).actions[0].explicit_effects
    assert type(table) is EffectTable
    got = _with_table(table, grid, predicates).grounding
    want = _with_table(dict(table), grid, predicates).grounding
    assert got.effects == want.effects
    made = got.mask_atoms(got.union_effects(range(got.n_pairs)))
    assert set(made) == {GroundAtom("a", Point(1, 1)), GroundAtom("b", Point(2, 0)),
                         GroundAtom("b", Point(0, 2))}


def test_a_table_that_does_not_fit_another_map_fails_validation():
    table = parse_instance(_document()).actions[0].explicit_effects
    for grid, predicates, code in ((GridMap(1, 2), ("a", "b"), "point-bounds"),
                                   (GridMap(2, 1), ("a", "b"), "point-bounds"),
                                   (GridMap(2, 2), ("a",), "unknown-predicate")):
        with pytest.raises(InstanceError) as err:
            _with_table(table, grid, predicates)
        assert err.value.code == code


def test_effect_tables_hold_only_rows_of_their_map_and_predicates():
    grid = GridMap(1, 1)  # 4 points, 2 predicates: 8 atoms
    EffectTable(grid, ("a", "b"), {0: [0], 3: [7], 2: []})
    for rows in ({4: [1]}, {-1: [1]}, {0: [8]}, {0: [-1]}):
        with pytest.raises(InstanceError):
            EffectTable(grid, ("a", "b"), rows)
    table = EffectTable(grid, ("a", "b"), {3: [7, 0, 7]})
    assert table == {Point(1, 1): frozenset({GroundAtom("a", Point(0, 0)),
                                             GroundAtom("b", Point(1, 1))})}
    with pytest.raises(TypeError):
        table[Point(1, 1)] = frozenset()


def test_a_table_on_a_huge_map_parses_in_the_size_of_its_entries():
    # 10^12 points: a mask per entry would need 10^12 bits; indices do not
    doc = json.loads(_document())
    doc["map"] = {"M": 10 ** 6 - 1, "N": 10 ** 6 - 1}
    last = [10 ** 6 - 1, 10 ** 6 - 1]
    _explicit(doc).append([last, [["b", last]]])
    table = parse_instance(json.dumps(doc)).actions[0].explicit_effects
    assert type(table) is EffectTable
    assert table[Point(*last)] == frozenset({GroundAtom("b", Point(*last))})
