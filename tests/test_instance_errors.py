"""Golden error codes and messages for documents that parse but break a
rule of the instance: an unknown predicate or action, a point off the map,
a repeated name, a template atom in a constraint, a value out of range.
Each case changes one place of a small valid document; the message names
where the offender sits, as the validation that raises it reports it.

A sweep puts values that may or may not be an index, a map bound or ``k``
into each such place of an instance, an integer program or a cover
problem built in code: each is refused with its ``InstanceError``, or
gives an instance whose document reads back to its own bytes, or a
program that ``emit_lp`` and ``solve_branch_and_bound`` both take."""

import json
import random

import pytest

from gops import (ActionRule, CostModel, GbgopInstance, GridMap, GroundAtom, Point,
                  parse_instance, serialize_instance)
from gops.core import AtomSet, EffectTable
from gops.encodings import CoverProblem, encode_max_k_cover
from gops.errors import InstanceError
from gops.ip import IpModel, emit_lp, solve_branch_and_bound

GBGOP = {
    "format": "gop-instance",
    "version": 1,
    "map": {"M": 3, "N": 3},
    "predicates": ["a", "b"],
    "state": [["a", [0, 1]], ["a", [2, 2]]],
    "actions": [
        {"name": "e", "explicit": [[[0, 0], [["a", [1, 1]], ["b", [1, 2]]]]]},
        {"name": "r", "effect": "b", "source_guard": {"atom": "a"},
         "target_guard": {"not": {"atom": ["a", [0, 1]]}},
         "max_distance": 1.0, "metric": "euclidean"},
    ],
    "cost": {"default": 0.5, "rules": [[{"atom": ["a", [0, 1]]}, 0.25]],
             "overrides": [[["e", [0, 0]], 0.25], [["r", [1, 1]], 0.75]]},
    "ics": [{"pairs": [["e", [0, 0]], ["r", [1, 1]]], "condition": {"atom": ["a", [2, 2]]}}],
    "problem": {"type": "gbgop", "budget": 2.0,
                "theta_in": [["b", [0, 0]], ["b", [1, 0]]],
                "theta_out": [["b", [3, 3]], ["b", [3, 2]]]},
}

BMGOP = dict(GBGOP,
             problem={"type": "bmgop", "k": 2, "budget": 2.0},
             benefit={"per_predicate": {"a": 1.0, "b": 0.5},
                      "overrides": [[["b", [0, 0]], 2.0], [["b", [1, 0]], 3.0]]})

OFF = [4, 0]  # one column right of the 4 x 4 map

# (code, where) -> (base document, path of the value to replace, new value, message)
GOLDEN = {
    ("unknown-action", "cost override"):
        (GBGOP, ("cost", "overrides", 1, 0, 0), "z", "cost override: unknown action 'z'"),
    ("unknown-action", "integrity constraint"):
        (GBGOP, ("ics", 0, "pairs", 1, 0), "z", "integrity constraint 0: unknown action 'z'"),
    ("unknown-predicate", "initial state"):
        (GBGOP, ("state", 1, 0), "z", "initial state: unknown predicate 'z'"),
    ("unknown-predicate", "explicit effect"):
        (GBGOP, ("actions", 0, "explicit", 0, 1, 1, 0), "z",
         "action 'e' effects: unknown predicate 'z'"),
    ("unknown-predicate", "rule effect"):
        (GBGOP, ("actions", 1, "effect"), "z", "action 'r': unknown effect predicate 'z'"),
    ("unknown-predicate", "source guard"):
        (GBGOP, ("actions", 1, "source_guard", "atom"), "z",
         "action 'r' source guard: unknown predicate 'z'"),
    ("unknown-predicate", "target guard"):
        (GBGOP, ("actions", 1, "target_guard", "not", "atom", 0), "z",
         "action 'r' target guard: unknown predicate 'z'"),
    ("unknown-predicate", "cost rule"):
        (GBGOP, ("cost", "rules", 0, 0, "atom", 0), "z", "cost rule: unknown predicate 'z'"),
    ("unknown-predicate", "benefit table"):
        (BMGOP, ("benefit", "per_predicate"), {"a": 1.0, "z": 0.5},
         "benefit table: unknown predicate 'z'"),
    ("unknown-predicate", "benefit override"):
        (BMGOP, ("benefit", "overrides", 1, 0, 0), "z", "benefit override: unknown predicate 'z'"),
    ("unknown-predicate", "integrity constraint"):
        (GBGOP, ("ics", 0, "condition", "atom", 0), "z",
         "integrity constraint 0: unknown predicate 'z'"),
    ("unknown-predicate", "theta_in"):
        (GBGOP, ("problem", "theta_in", 1, 0), "z", "goal atoms (theta_in): unknown predicate 'z'"),
    ("unknown-predicate", "theta_out"):
        (GBGOP, ("problem", "theta_out", 1, 0), "z",
         "forbidden atoms (theta_out): unknown predicate 'z'"),
    ("point-bounds", "initial state"):
        (GBGOP, ("state", 1, 1), OFF, "initial state: point (4,0) outside the map"),
    ("point-bounds", "explicit effect point"):
        (GBGOP, ("actions", 0, "explicit", 0, 0), OFF, "action 'e': point (4,0) outside the map"),
    ("point-bounds", "explicit effect"):
        (GBGOP, ("actions", 0, "explicit", 0, 1, 1, 1), OFF,
         "action 'e' effects: point (4,0) outside the map"),
    ("point-bounds", "target guard"):
        (GBGOP, ("actions", 1, "target_guard", "not", "atom", 1), OFF,
         "action 'r' target guard: point (4,0) outside the map"),
    ("point-bounds", "cost rule"):
        (GBGOP, ("cost", "rules", 0, 0, "atom", 1), OFF, "cost rule: point (4,0) outside the map"),
    ("point-bounds", "cost override"):
        (GBGOP, ("cost", "overrides", 1, 0, 1), OFF, "cost override: point (4,0) outside the map"),
    ("point-bounds", "benefit override"):
        (BMGOP, ("benefit", "overrides", 1, 0, 1), OFF,
         "benefit override: point (4,0) outside the map"),
    ("point-bounds", "integrity constraint pair"):
        (GBGOP, ("ics", 0, "pairs", 1, 1), OFF, "integrity constraint 0: point (4,0) outside the map"),
    ("point-bounds", "integrity constraint condition"):
        (GBGOP, ("ics", 0, "condition", "atom", 1), OFF,
         "integrity constraint 0: point (4,0) outside the map"),
    ("point-bounds", "theta_in"):
        (GBGOP, ("problem", "theta_in", 1, 1), OFF,
         "goal atoms (theta_in): point (4,0) outside the map"),
    ("point-bounds", "theta_out"):
        (GBGOP, ("problem", "theta_out", 1, 1), OFF,
         "forbidden atoms (theta_out): point (4,0) outside the map"),
    ("predicate-duplicate", "predicates"):
        (GBGOP, ("predicates",), ["a", "b", "a"], "duplicate predicate 'a'"),
    ("action-duplicate", "actions"):
        (GBGOP, ("actions", 1, "name"), "e", "duplicate action 'e'"),
    ("ic-not-ground", "integrity constraint"):
        (GBGOP, ("ics", 0, "condition"), {"atom": "a"},
         "integrity constraint condition must be ground"),
    ("budget-range", "gbgop"):
        (GBGOP, ("problem", "budget"), -1.0, "budget must be a finite non-negative number"),
    ("budget-range", "bmgop"):
        (BMGOP, ("problem", "budget"), -1.0, "budget must be a finite non-negative number"),
    ("k-range", "bmgop"):
        (BMGOP, ("problem", "k"), -1, "k must be a non-negative integer"),
    ("k-range", "bmgop, beyond float range"):
        (BMGOP, ("problem", "k"), 10 ** 400, "k is too large for a float"),
    ("distance-negative", "action"):
        (GBGOP, ("actions", 1, "max_distance"), -1.0, "action 'r': negative max_distance"),
}


def _broken(base: dict, path: tuple, value) -> str:
    doc = json.loads(json.dumps(base))  # no shared sub-lists
    holder = doc
    for key in path[:-1]:
        holder = holder[key]
    holder[path[-1]] = value
    return json.dumps(doc)


def test_base_documents_are_valid():
    for doc in (GBGOP, BMGOP):
        parse_instance(json.dumps(doc))


@pytest.mark.parametrize("code, where", sorted(GOLDEN))
def test_instance_error_keeps_its_code_and_message(code, where):
    base, path, value, message = GOLDEN[code, where]
    with pytest.raises(InstanceError) as err:
        parse_instance(_broken(base, path, value))
    assert (err.value.code, err.value.message) == (code, message)


def test_a_repeated_action_name_is_reported_in_action_order():
    # the faults of the actions before the first repeat come first; a
    # fault after it does not hide the repeat
    doc = json.loads(json.dumps(GBGOP))
    rule = doc["actions"][1]
    doc["actions"] += [dict(rule, effect="c"), dict(rule, name="e")]
    with pytest.raises(InstanceError) as err:
        parse_instance(json.dumps(doc))
    assert err.value.code == "action-duplicate"  # action 2 repeats r
    doc["actions"][2]["name"] = "s"
    with pytest.raises(InstanceError) as err:
        parse_instance(json.dumps(doc))
    assert err.value.code == "unknown-predicate"  # action 2, before action 3 repeats e
    doc["actions"][2]["effect"] = "b"
    doc["actions"][3]["effect"] = "c"
    with pytest.raises(InstanceError) as err:
        parse_instance(json.dumps(doc))
    assert err.value.code == "action-duplicate"  # action 3 repeats e; its effect is not read


# place -> (the count it is drawn against, the least valid value, the
# code that refuses an invalid one); a map bound has no upper limit
SWEPT = {
    "map bound": (3, 0, "map-bounds"),
    "state index": (8, 0, "point-bounds"),  # the 2 predicates' atoms on a 2 x 2 map
    "table point": (4, 0, "point-bounds"),
    "table atom": (8, 0, "point-bounds"),
    "IP column": (3, 0, "ip-bad-variable"),  # a program of 3 variables
    "objective key": (3, 0, "ip-bad-variable"),
    "start index": (3, 0, "ip-start"),
    "cover k": (4, 1, "cover-k"),  # k in 1..3 families
}
FAMILIES = (frozenset("a"), frozenset("b"), frozenset("ab"))


def _swept_instance(place: str, value, pick):
    """A goal-based instance with ``value`` at ``place``, and values drawn
    by ``pick(count)`` from the valid ones elsewhere."""
    grid = GridMap(value if place == "map bound" else 1, 1)
    n_points = grid.n_points
    at = {"state index": 2 * n_points, "table point": n_points, "table atom": 2 * n_points}
    state, point, atom = (value if place == p else pick(at[p]) for p in at)
    return GbgopInstance(
        grid=grid, predicates=("a", "b"), s0=AtomSet(grid, ("a", "b"), [state]),
        actions=(ActionRule(name="t", explicit_effects=EffectTable(grid, ("a", "b"),
                                                                   {point: [atom]})),
                 ActionRule(name="r", effect_predicate="b", max_distance=1.0)),
        cost_model=CostModel(default_cost=1.0), ics=(), budget=2.0,
        theta_in=frozenset({GroundAtom("b", Point(0, 0))}), theta_out=frozenset())


def _swept_model(place: str, value, pick) -> IpModel:
    """A program of 3 variables and one row, with ``value`` at ``place``."""
    column, key, start = (value if place == p else pick(3)
                          for p in ("IP column", "objective key", "start index"))
    model = IpModel(sense="max", objective={key: 1.0}, start=lambda: [start])
    model.add_variables(["x0", "x1", "x2"], [None] * 3)
    model.add_rows(["r"], "<=", 1.0, [[column]])
    return model


@pytest.mark.parametrize("place", sorted(SWEPT))
def test_a_value_in_an_index_place_is_refused_or_reads_back(place):
    count, least, code = SWEPT[place]
    rng = random.Random(sorted(SWEPT).index(place))
    pick = lambda n: rng.choice((0, n - 1))  # noqa: E731
    accepted = []
    for value in (0, count - 1, count, -1, True, False, 1.0, 2.5, "1"):
        try:
            if place in ("IP column", "objective key", "start index"):
                model = _swept_model(place, value, pick)
                emit_lp(model)
                assert solve_branch_and_bound(model).status == "optimal"
            else:
                inst = encode_max_k_cover(CoverProblem(("a", "b"), FAMILIES, value)) \
                    if place == "cover k" else _swept_instance(place, value, pick)
                text = serialize_instance(inst)
                assert serialize_instance(parse_instance(text)) == text
        except InstanceError as err:
            assert err.code == code, (value, err.message)
        else:
            accepted.append(value)
    # ints only, and of those every valid one: no map bound is too large
    assert accepted == [value for value in (0, count - 1, count)
                        if value >= least and (value < count or place == "map bound")]
