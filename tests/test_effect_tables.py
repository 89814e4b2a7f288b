"""Explicit effect tables and initial states as atom indices
(``EffectTable``, ``AtomSet``).

Differential tests hold a parsed table equal, as a Mapping, to the dict of
frozensets it was serialized from, and its grounding equal to the one the
dict gives; and an instance read from either format version to the
set-based reference semantics: an ``AtomSet`` state equal, as a set, to
its frozenset, with the same hash and canonical iteration, grounding
tables equal to ``reference_grounding`` and solution final states equal to
``appl``. Fallback tests hold every faulty version-1 table or state to the
error code and JSON path (or message) the object path gave before the
version-1 index readers existed, and a table or state reused on another
map or predicate order to its Mapping or Set interface. A table built in
code, or made for another map or predicate order, is kept by the instance
as an EffectTable of its own, equal to the table it was given."""

import hashlib
import json
import random

import pytest

from gops import (ActionRule, CostModel, GbgopInstance, GridMap, GroundAtom, Point, appl,
                  encodings, gen_campaign, gen_random, parse_instance, scenarios,
                  serialize_instance)
from gops.core import AtomSet, EffectTable, enumerate_pairs
from gops.encodings import (CoverProblem, MonotoneCnf, encode_max_k_cover, encode_monsat,
                            encode_set_cover)
from gops.errors import InstanceError, ParseError

from helpers import golden_corpus, legacy_text, reference_grounding

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


def test_the_corpus_has_explicit_tables_on_every_rung():
    sizes = {inst.grid.width_bound for inst in CORPUS
             if any(rule.explicit_effects for rule in inst.actions)}
    assert {5, 17, 30, 44} <= sizes


# A 3 x 3 map whose action "e" has an explicit table, in a version-1
# document; each fallback case below makes the document faulty.
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
# path; recorded from the object path before the version-1 index reader
# existed, and that path reads every version-1 table again
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


def _upgraded(text):
    """The version-1 document ``text`` rewritten at the writer's version,
    whose tables parse to EffectTables."""
    return serialize_instance(parse_instance(text))


@pytest.mark.parametrize("case", sorted(FALLBACKS))
def test_tables_off_the_mask_path_raise_the_object_paths_error(case):
    change, kind, code, where = FALLBACKS[case]
    with pytest.raises(kind) as err:
        parse_instance(_document(change))
    assert type(err.value) is kind and err.value.code == code
    assert (err.value.path if kind is ParseError else err.value.message) == where


# sha256 of the sorted messages (``str(err)``) of every fallback case, one
# a line, as the object path gave them
FALLBACK_MESSAGES_SHA256 = "c6dee10b2ea33a886c5b46bc12a56c25f282399abaf6581a963fef7c5dbe9f74"


def test_fallback_messages_hold():
    messages = []
    for change, kind, _, _ in FALLBACKS.values():
        with pytest.raises(kind) as err:
            parse_instance(_document(change))
        messages.append(str(err.value))
    text = "\n".join(sorted(messages))
    assert hashlib.sha256(text.encode()).hexdigest() == FALLBACK_MESSAGES_SHA256, text


def test_an_empty_atom_list_parses_to_an_empty_effect():
    doc = json.loads(_document())
    _explicit(doc).append([[2, 2], []])
    table = parse_instance(_upgraded(json.dumps(doc))).actions[0].explicit_effects
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
    table = parse_instance(_upgraded(_document())).actions[0].explicit_effects
    assert type(table) is EffectTable
    got = _with_table(table, grid, predicates).grounding
    want = _with_table(dict(table), grid, predicates).grounding
    assert got.effects == want.effects
    made = got.mask_atoms(got.union_effects(range(got.n_pairs)))
    assert set(made) == {GroundAtom("a", Point(1, 1)), GroundAtom("b", Point(2, 0)),
                         GroundAtom("b", Point(0, 2))}


def test_a_table_that_does_not_fit_another_map_fails_validation():
    table = parse_instance(_upgraded(_document())).actions[0].explicit_effects
    assert type(table) is EffectTable
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
        with pytest.raises(InstanceError) as err:
            EffectTable(grid, ("a", "b"), rows)
        assert err.value.code == "point-bounds"
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
    table = parse_instance(_upgraded(json.dumps(doc))).actions[0].explicit_effects
    assert type(table) is EffectTable
    assert table[Point(*last)] == frozenset({GroundAtom("b", Point(*last))})


# ---------------------------------------------------------------------------
# Tables built in code: validation keeps each as an EffectTable of the
# instance's own map and predicates

def _given(monkeypatch, module, build):
    """The instance ``build()`` makes, and the rules ``module`` gave
    ``ActionRule`` on the way, each with the table as it was given."""
    given = []

    def record(*args, **kwargs):
        given.append(ActionRule(*args, **kwargs))
        return given[-1]
    monkeypatch.setattr(module, "ActionRule", record)
    return build(), given


def _one_table(table, grid=GridMap(2, 2), predicates=("a", "b")):
    rule = ActionRule(name="e", explicit_effects=table)
    return _with_table(table, grid, predicates), [rule]


def _table_on(grid, predicates):
    """An instance on ``grid`` and ``predicates`` given BASE's table as an
    EffectTable of its own 3 x 3 map and ("a", "b")."""
    table = parse_instance(_upgraded(_document())).actions[0].explicit_effects
    assert (table.grid, table.predicates) == (GridMap(2, 2), ("a", "b"))
    return _one_table(table, grid, predicates)


_a, _b = GroundAtom("a", Point(1, 1)), GroundAtom("b", Point(0, 2))
CODE_BUILT = {
    "gen_random-gbgop": lambda mp: _given(mp, scenarios, lambda: gen_random(
        seed=5, width=4, height=3, actions=4, radius=1.5, ics=2, problem="gbgop")),
    "gen_random-bmgop": lambda mp: _given(mp, scenarios, lambda: gen_random(
        seed=5, width=4, height=3, actions=4, radius=1.5, ics=2, problem="bmgop")),
    "set-cover": lambda mp: _given(mp, encodings, lambda: encode_set_cover(_cover_problem(0))),
    "max-k-cover": lambda mp: _given(mp, encodings,
                                     lambda: encode_max_k_cover(_cover_problem(1, k=3))),
    "monsat": lambda mp: _given(mp, encodings, lambda: encode_monsat(MonotoneCnf(
        ("x0", "x1", "x2"), (frozenset({"x0", "x1"}), frozenset({"x2"}))))),
    "another-map": lambda mp: _table_on(GridMap(3, 2), ("a", "b")),
    "another-predicate-order": lambda mp: _table_on(GridMap(2, 2), ("b", "a")),
    "an-empty-effect": lambda mp: _one_table({Point(0, 0): frozenset(), Point(2, 1): {_a}}),
    "float-and-bool-coordinates": lambda mp: _one_table(
        {Point(1.0, 0): frozenset({_a, GroundAtom("b", Point(True, 2.0))}),
         Point(0, True): frozenset({_b, GroundAtom("b", Point(0.0, 2))})}),
}


@pytest.mark.parametrize("case", sorted(CODE_BUILT))
def test_a_table_built_in_code_is_kept_as_an_effect_table_of_the_instance(monkeypatch, case):
    inst, given = CODE_BUILT[case](monkeypatch)
    assert inst.actions == tuple(given)
    tables = 0
    for rule, was in zip(inst.actions, given):
        table = rule.explicit_effects
        if table is None:
            continue
        tables += 1
        assert type(table) is EffectTable
        assert (table.grid, table.predicates) == (inst.grid, inst.predicates)
        assert table == was.explicit_effects and dict(table) == dict(was.explicit_effects)
    assert tables
    ref = reference_grounding(inst.grid, inst.predicates, frozenset(inst.s0), given,
                              inst.cost_model, inst.ics, getattr(inst, "benefit_model", None))
    for name in GROUNDING_TABLES:
        assert getattr(inst.grounding, name) == ref[name], name
    # the same bytes as the instance read back from them, at either version;
    # a coordinate given as 1.0 or True is written as the integer it equals
    for version in (1, 2):
        text = legacy_text(inst, version)
        assert legacy_text(parse_instance(text), version) == text


def test_a_generated_goal_instance_shares_its_rules_with_its_grounding():
    inst = gen_random(seed=5, width=4, height=3, actions=4, radius=1.5, ics=2, problem="gbgop")
    g = inst.grounding
    assert all(rule is again for rule, again in zip(inst.actions, g.actions))
    # an instance of the same map and predicates keeps a table as it is
    [table, *_] = [rule.explicit_effects for rule in inst.actions if rule.explicit_effects]
    again = _with_table(table, inst.grid, inst.predicates)
    assert again.actions[0].explicit_effects is table


# ---------------------------------------------------------------------------
# Initial states (``AtomSet``)

def _canonical(inst):
    """The canonical sort key of an instance's atoms: predicate, then row."""
    return lambda a: (inst.predicates.index(a.predicate), a.point.y, a.point.x)


def _state_corpus():
    """The campaign, the serialize golden's corpus and the one-point
    encodings, whose states are empty."""
    scenario = gen_campaign()
    yield scenario.gbgop
    yield scenario.bmgop
    yield from golden_corpus()
    for seed in range(2):
        yield encode_set_cover(_cover_problem(seed))
        yield encode_max_k_cover(_cover_problem(seed, k=3))
    yield encode_monsat(MonotoneCnf(("x0", "x1", "x2"), (frozenset({"x0", "x1"}),
                                                         frozenset({"x2"}))))


def _reads(version):
    """(instance built in code, the instance read back from its document
    at ``version``) over ``_state_corpus()``."""
    for inst in _state_corpus():
        assert type(inst.s0) is AtomSet  # built in code, indexed by Problem
        yield inst, parse_instance(legacy_text(inst, version))


def _check_tables(version):
    # tables as built, each kept as an EffectTable of the instance read;
    # groundings as the reference computes them on the state as a plain
    # frozenset
    insts = tables = 0
    for inst, read in _reads(version):
        insts += 1
        for rule, again in zip(inst.actions, read.actions):
            if rule.explicit_effects is not None:
                assert type(again.explicit_effects) is EffectTable
                assert again.explicit_effects == rule.explicit_effects
                tables += 1
        ref = reference_grounding(inst.grid, inst.predicates, frozenset(inst.s0), inst.actions,
                                  inst.cost_model, inst.ics, getattr(inst, "benefit_model", None))
        for name in GROUNDING_TABLES:
            assert getattr(read.grounding, name) == ref[name], name
    assert tables > insts


def _check_states(version):
    # an AtomSet equal to, hashing as and iterating in the canonical order
    # of the frozenset, and solution final states equal to appl's on it
    for inst, read in _reads(version):
        s0 = frozenset(inst.s0)
        got = read.s0
        assert type(got) is AtomSet
        assert got == s0 and s0 == got
        assert len(got) == len(s0) and hash(got) == hash(s0)
        assert list(got) == sorted(s0, key=_canonical(inst))
        pairs = enumerate_pairs(inst.grid, inst.actions)
        g = read.grounding
        for picked in ((), range(min(3, len(pairs))), range(len(pairs))):
            want = appl([pairs[i] for i in picked], s0, inst.grid, inst.actions, s0=s0)
            final = g._selection(picked).final_state
            assert type(final) is AtomSet
            assert final == want and hash(final) == hash(want)
            assert list(final) == sorted(want, key=_canonical(inst))


def test_the_table_reader_matches_the_object_path():
    _check_tables(1)


def test_the_v2_table_reader_matches_the_object_path():
    _check_tables(2)


def test_the_state_reader_matches_the_object_path():
    _check_states(1)


def test_the_v2_state_reader_matches_the_object_path():
    _check_states(2)


def test_the_state_corpus_has_atoms_on_every_size():
    sizes = {inst.grid.n_points for inst in _state_corpus() if inst.s0}
    assert {1, 12, 78, 81} <= sizes


def _state(change):
    """A change to BASE's state, made two atoms long first, so the item
    changed is not the first."""
    def edit(doc):
        doc["state"] = [["a", [0, 0]], ["b", [2, 1]]]
        change(doc["state"])
        return doc
    return edit


# case -> (state change, error class, code, where), as in FALLBACKS;
# recorded from the object path before the version-1 index reader existed,
# and that path reads every version-1 state again
STATE_FALLBACKS = {
    "true-coordinate": (_state(lambda s: s[1][1].__setitem__(0, True)),
                        ParseError, "type", "$.state[1]"),
    "float-coordinate": (_state(lambda s: s[1][1].__setitem__(1, 1.0)),
                         ParseError, "type", "$.state[1]"),
    "negative-coordinate": (_state(lambda s: s[1][1].__setitem__(0, -1)),
                            InstanceError, "point-bounds",
                            "initial state: point (-1,1) outside the map"),
    "x-is-M-plus-1": (_state(lambda s: s[1][1].__setitem__(0, 3)),
                      InstanceError, "point-bounds", "initial state: point (3,1) outside the map"),
    "huge-coordinate": (_state(lambda s: s[1][1].__setitem__(1, 2 ** 70)),
                        InstanceError, "point-bounds",
                        f"initial state: point (2,{2 ** 70}) outside the map"),
    "unknown-predicate": (_state(lambda s: s[1].__setitem__(0, "c")),
                          InstanceError, "unknown-predicate",
                          "initial state: unknown predicate 'c'"),
    "three-element-point": (_state(lambda s: s[1].__setitem__(1, [2, 1, 0])),
                            ParseError, "type", "$.state[1]"),
    "item-not-a-list": (_state(lambda s: s.__setitem__(1, "b")),
                        ParseError, "type", "$.state[1]"),
    "state-not-a-list": (_set(lambda d: d.__setitem__("state", {})),
                         ParseError, "type", "$.state"),
    # parse errors come before instance errors, wherever they are
    "off-map-then-malformed": (_set(lambda d: (_state(lambda s: s[1][1].__setitem__(0, 3))(d),
                                               _explicit(d).append(5))),
                               ParseError, "type", "$.actions[0].explicit[2]"),
}


@pytest.mark.parametrize("case", sorted(STATE_FALLBACKS))
def test_states_off_the_index_path_raise_the_object_paths_error(case):
    change, kind, code, where = STATE_FALLBACKS[case]
    with pytest.raises(kind) as err:
        parse_instance(_document(change))
    assert type(err.value) is kind and err.value.code == code
    assert (err.value.path if kind is ParseError else err.value.message) == where


def test_a_repeated_state_atom_parses_as_one():
    once = parse_instance(_document(_state(lambda s: None))).s0
    twice = parse_instance(_document(_state(lambda s: s.append(["b", [2, 1]])))).s0
    assert type(twice) is AtomSet
    assert twice == once and len(twice) == 2 and list(twice) == list(once)


def test_a_parsed_state_is_a_read_only_set_that_acts_as_its_frozenset():
    atoms = parse_instance(_document(_state(lambda s: None))).s0
    plain = frozenset(atoms)
    assert type(atoms) is AtomSet and not hasattr(atoms, "add")
    a00, b21 = GroundAtom("a", Point(0, 0)), GroundAtom("b", Point(2, 1))
    assert list(atoms) == [a00, b21] and plain == {a00, b21}
    # members in every form a frozenset takes them in, and non-members
    for item in (a00, ("a", (0, 0)), GroundAtom("a", Point(0.0, 0)), GroundAtom("b", Point(2, True)),
                 GroundAtom("b", Point(0, 0)), GroundAtom("a", Point(3, 0)),
                 GroundAtom("c", Point(0, 0)), Point(1.0, 0), None, "a", ("a", (0, 0, 0))):
        assert (item in atoms) == (item in plain), item
    for item in (["a", [0, 0]], ("a", [0, 0]), GroundAtom(["a"], Point(0, 0))):
        assert item not in atoms  # a frozenset raises TypeError on these
    other = frozenset({a00, GroundAtom("b", Point(0, 2))})
    for got, want in ((atoms | other, plain | other), (other | atoms, other | plain),
                      (atoms & other, plain & other), (other & atoms, other & plain),
                      (atoms - other, plain - other), (other - atoms, other - plain),
                      (atoms ^ other, plain ^ other), (other ^ atoms, other ^ plain)):
        assert type(got) is frozenset and got == want
    assert atoms == plain and plain == atoms and atoms != other and other != atoms
    assert hash(atoms) == hash(plain) and {atoms: 1}[plain] == 1
    assert atoms <= plain | other and atoms < plain | other and not atoms < plain
    assert repr(atoms) == f"AtomSet({{{a00!r}, {b21!r}}})"


def _with_state(s0, grid, predicates):
    return GbgopInstance(grid=grid, predicates=predicates, s0=s0, actions=(),
                         cost_model=CostModel(), ics=(), budget=1.0,
                         theta_in=frozenset(), theta_out=frozenset())


def test_a_state_is_kept_as_indices_only_by_an_instance_of_its_map_and_predicates():
    atoms = parse_instance(_document(_state(lambda s: None))).s0
    grid, predicates = atoms.grid, atoms.predicates
    assert _with_state(atoms, grid, predicates).s0 is atoms
    built = AtomSet(grid, list(predicates), [0, 9 + 5, 0])  # a(0,0), b(2,1)
    assert built == atoms and _with_state(built, grid, predicates).s0 is built
    for grid, predicates in ((GridMap(2, 2), ("b", "a")), (GridMap(3, 2), ("a", "b")),
                             (GridMap(2, 4), ("a", "b")), (GridMap(2, 2), ("a", "b", "c"))):
        inst = _with_state(atoms, grid, predicates)  # re-indexed on its own map
        assert type(inst.s0) is AtomSet and inst.s0 == atoms
        assert (inst.s0.grid, inst.s0.predicates) == (grid, predicates)
        want = reference_grounding(grid, predicates, frozenset(atoms), (), CostModel(), ())
        assert inst.grounding.s0_mask == want["s0_mask"]


def test_a_state_that_does_not_fit_another_map_fails_validation():
    atoms = parse_instance(_document(_state(lambda s: None))).s0
    for grid, predicates, code in ((GridMap(1, 2), ("a", "b"), "point-bounds"),
                                   (GridMap(2, 0), ("a", "b"), "point-bounds"),
                                   (GridMap(2, 2), ("a",), "unknown-predicate")):
        with pytest.raises(InstanceError) as err:
            _with_state(atoms, grid, predicates)
        assert err.value.code == code


def test_atom_sets_hold_only_atoms_of_their_map_and_predicates():
    grid = GridMap(1, 1)  # 4 points, 2 predicates: 8 atoms
    assert AtomSet(grid, ("a", "b"), [7, 0]) == {GroundAtom("a", Point(0, 0)),
                                                 GroundAtom("b", Point(1, 1))}
    assert AtomSet(grid, ("a", "b"), ()) == frozenset()
    for indices in ([8], [-1], [0, 8]):
        with pytest.raises(InstanceError) as err:
            AtomSet(grid, ("a", "b"), indices)
        assert err.value.code == "point-bounds"


def test_a_state_on_a_huge_map_parses_in_the_size_of_its_entries():
    # 10^12 points: the state keeps one index per atom, not a bit per point
    doc = json.loads(_document())
    doc["map"] = {"M": 10 ** 6 - 1, "N": 10 ** 6 - 1}
    last = [10 ** 6 - 1, 10 ** 6 - 1]
    doc["state"] = [["b", last], ["a", [0, 0]]]
    atoms = parse_instance(json.dumps(doc)).s0
    assert type(atoms) is AtomSet and len(atoms) == 2
    assert list(atoms) == [GroundAtom("a", Point(0, 0)), GroundAtom("b", Point(*last))]
    assert GroundAtom("b", Point(*last)) in atoms and GroundAtom("a", Point(*last)) not in atoms
