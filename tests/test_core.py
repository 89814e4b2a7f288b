import hashlib
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from gops import (ActionPointPair, ActionRule, BenefitModel, CostModel,
                  GridMap, GroundAtom, IntegrityConstraint, Point, TRUE,
                  action_effects, appl, atom, benefit_of, check_ics, cost_of,
                  enumerate_ground_atoms, enumerate_pairs,
                  ground_ics_for_state, land, lnot, lor, satisfies)
from gops.core import _mask, _numeral_mask, block_offsets, item_indices
from gops.errors import InstanceError

from helpers import random_formula, truth_table_satisfies


def test_enumerate_atoms_1x1():
    grid = GridMap(1, 1)
    atoms = enumerate_ground_atoms(grid, ["g"])
    assert atoms == [GroundAtom("g", Point(0, 0)), GroundAtom("g", Point(1, 0)),
                     GroundAtom("g", Point(0, 1)), GroundAtom("g", Point(1, 1))]


def test_enumerate_atoms_counts():
    # brute count: |G| * (M+1) * (N+1)
    grid = GridMap(2, 0)
    atoms = enumerate_ground_atoms(grid, ["a", "b"])
    assert len(atoms) == 6
    assert len(set(atoms)) == 6
    assert len(enumerate_ground_atoms(GridMap(4, 3), ["a", "b", "c"])) == 3 * 5 * 4


def test_enumeration_is_canonical_and_stable():
    grid = GridMap(3, 2)
    preds = ["p", "q"]
    h1 = hashlib.sha256(repr(enumerate_ground_atoms(grid, preds)).encode()).hexdigest()
    h2 = hashlib.sha256(repr(enumerate_ground_atoms(grid, preds)).encode()).hexdigest()
    assert h1 == h2
    rules = (ActionRule("x", explicit_effects={}), ActionRule("y", explicit_effects={}))
    assert enumerate_pairs(grid, rules) == enumerate_pairs(grid, rules)
    # action-major, row-major minor
    pairs = enumerate_pairs(grid, rules)
    assert pairs[0] == ActionPointPair("x", Point(0, 0))
    assert pairs[12] == ActionPointPair("y", Point(0, 0))


def test_satisfies_basics():
    p = Point(1, 9)
    s = frozenset({GroundAtom("hi_cost", p)})
    assert satisfies(s, atom("hi_cost", p))
    assert not satisfies(s, atom("exposure", p))
    assert satisfies(frozenset(), lnot(atom("a", Point(0, 0))))
    assert satisfies(frozenset(), TRUE)
    assert satisfies(s, lor(atom("exposure", p), atom("hi_cost", p)))
    assert not satisfies(s, land(atom("exposure", p), atom("hi_cost", p)))


def test_template_atom_needs_point():
    with pytest.raises(ValueError):
        satisfies(frozenset(), atom("a"))
    assert satisfies(frozenset({GroundAtom("a", Point(0, 0))}), atom("a"), at=Point(0, 0))


@settings(max_examples=120, deadline=None)
@given(st.integers(0, 2 ** 30), st.integers(1, 10), st.booleans())
def test_satisfies_matches_truth_table_oracle(seed, n_atoms, dense):
    rng = random.Random(seed)
    grid = GridMap(4, 1)
    universe = enumerate_ground_atoms(grid, ["a", "b"])[:n_atoms]
    state = frozenset(a for a in universe if rng.random() < (0.7 if dense else 0.3))
    formula = random_formula(rng, universe, depth=4)
    assert satisfies(state, formula) == truth_table_satisfies(state, formula)


def _plus_rule(name="stop"):
    return ActionRule(name=name, effect_predicate="seen",
                      target_guard=lnot(atom("empty")), max_distance=1.0)


def test_action_effects_bruteforce_radius():
    # all-populated 3x3 map: effects must equal the brute-force distance filter
    grid = GridMap(2, 2)
    rule = _plus_rule()
    s0 = frozenset()
    for p in grid.points():
        got = action_effects(rule, p, s0, grid)
        expected = frozenset(
            GroundAtom("seen", q) for q in grid.points()
            if ((p.x - q.x) ** 2 + (p.y - q.y) ** 2) ** 0.5 <= 1.0)
        assert got == expected
        assert len(got) == 5 if p == Point(1, 1) else len(got) in (3, 4)


def test_action_effects_source_guard_blocks():
    grid = GridMap(1, 0)
    rule = ActionRule(name="appeal", effect_predicate="seen",
                      source_guard=atom("hq"), target_guard=atom("grp"))
    s0 = frozenset({GroundAtom("grp", Point(1, 0))})
    assert action_effects(rule, Point(0, 0), s0, grid) == frozenset()
    s0b = s0 | {GroundAtom("hq", Point(0, 0))}
    assert action_effects(rule, Point(0, 0), s0b, grid) == {GroundAtom("seen", Point(1, 0))}


def test_action_effects_target_guard_excludes():
    grid = GridMap(2, 0)
    rule = _plus_rule()
    s0 = frozenset({GroundAtom("empty", Point(1, 0))})
    got = action_effects(rule, Point(0, 0), s0, grid)
    assert got == {GroundAtom("seen", Point(0, 0))}


def test_action_effects_explicit_table():
    grid = GridMap(1, 0)
    a = GroundAtom("g", Point(0, 0))
    rule = ActionRule(name="t", explicit_effects={Point(0, 0): frozenset({a})})
    assert action_effects(rule, Point(0, 0), frozenset(), grid) == {a}
    assert action_effects(rule, Point(1, 0), frozenset(), grid) == frozenset()


def test_action_rule_exactly_one_form():
    with pytest.raises(InstanceError):
        ActionRule(name="bad")
    with pytest.raises(InstanceError):
        ActionRule(name="bad", effect_predicate="g", explicit_effects={})
    with pytest.raises(InstanceError):
        ActionRule(name="bad", effect_predicate="g", metric="taxicab")


def test_appl_empty_and_union():
    grid = GridMap(1, 0)
    a = GroundAtom("g", Point(0, 0))
    b = GroundAtom("g", Point(1, 0))
    rule = ActionRule(name="t", explicit_effects={Point(0, 0): frozenset({a, b})})
    s0 = frozenset({b})
    assert appl([], s0, grid, [rule]) == s0
    got = appl([ActionPointPair("t", Point(0, 0))], s0, grid, [rule])
    assert got == {a, b}


@settings(max_examples=100, deadline=None)
@given(st.integers(0, 2 ** 30))
def test_appl_monotone_and_idempotent(seed):
    rng = random.Random(seed)
    grid = GridMap(1, 1)
    pts = grid.points()
    universe = enumerate_ground_atoms(grid, ["g", "h"])
    rules = []
    for i in range(2):
        table = {p: frozenset(rng.sample(universe, rng.randint(0, 3))) for p in pts}
        rules.append(ActionRule(name=f"a{i}", explicit_effects=table))
    s0 = frozenset(a for a in universe if rng.random() < 0.4)
    pairs = {ActionPointPair(f"a{rng.randrange(2)}", rng.choice(pts))
             for _ in range(rng.randint(0, 4))}
    once = appl(pairs, s0, grid, rules, s0=s0)
    assert once >= s0
    twice = appl(pairs, once, grid, rules, s0=s0)
    assert twice == once


def test_ground_ics_filter_and_oracle():
    grid = GridMap(1, 1)
    pts = grid.points()
    pair = ActionPointPair("a0", pts[0])
    always = IntegrityConstraint(pairs=frozenset({pair}), condition=TRUE)
    gated = IntegrityConstraint(pairs=frozenset({pair}),
                                condition=atom("g", pts[1]))
    assert ground_ics_for_state([always, gated], frozenset()) == [always]
    s = frozenset({GroundAtom("g", pts[1])})
    assert ground_ics_for_state([always, gated], s) == [always, gated]

    rng = random.Random(7)
    universe = enumerate_ground_atoms(grid, ["g"])
    for _ in range(25):
        ics = [IntegrityConstraint(pairs=frozenset({pair}),
                                   condition=random_formula(rng, universe, 2))
               for _ in range(5)]
        s = frozenset(a for a in universe if rng.random() < 0.5)
        got = ground_ics_for_state(ics, s)
        assert got == [ic for ic in ics if truth_table_satisfies(s, ic.condition)]


def test_check_ics_counting():
    grid = GridMap(1, 1)
    pts = grid.points()
    p1 = ActionPointPair("a", pts[0])
    p2 = ActionPointPair("b", pts[1])
    ic = IntegrityConstraint(pairs=frozenset({p1, p2}), condition=TRUE)
    ok, violated = check_ics(frozenset(), set(), [ic])
    assert ok and violated == []
    ok, violated = check_ics(frozenset(), {p1, p2}, [ic])
    assert not ok and violated == [ic]
    ok, _ = check_ics(frozenset(), {p1}, [ic])
    assert ok

    rng = random.Random(3)
    all_pairs = [ActionPointPair(n, p) for n in "abc" for p in pts]
    for _ in range(30):
        ics = [IntegrityConstraint(pairs=frozenset(rng.sample(all_pairs, rng.randint(1, 4))))
               for _ in range(4)]
        sol = set(rng.sample(all_pairs, rng.randint(0, 6)))
        ok, violated = check_ics(frozenset(), sol, ics)
        expected = [ic for ic in ics if len(ic.pairs & sol) > 1]
        assert violated == expected
        assert ok == (not expected)


def test_cost_resolution_order():
    p = Point(0, 0)
    q = Point(1, 0)
    model = CostModel(default_cost=0.5,
                      state_rules=((atom("hi"), 1.0),),
                      overrides={ActionPointPair("a", p): 0.25})
    s0 = frozenset({GroundAtom("hi", p), GroundAtom("hi", q)})
    assert cost_of(ActionPointPair("a", p), s0, model) == 0.25  # override wins
    assert cost_of(ActionPointPair("a", q), s0, model) == 1.0   # rule fires
    assert cost_of(ActionPointPair("a", Point(0, 1)), frozenset(), model) == 0.5


def test_cost_model_rejects_out_of_range():
    with pytest.raises(InstanceError) as err:
        CostModel(default_cost=1.5)
    assert err.value.code == "cost-range"
    with pytest.raises(InstanceError):
        CostModel(state_rules=((TRUE, -0.1),))
    with pytest.raises(InstanceError):
        CostModel(overrides={ActionPointPair("a", Point(0, 0)): 2.0})


def test_benefit_resolution_and_defaults():
    a = GroundAtom("seen", Point(0, 0))
    b = GroundAtom("seen", Point(1, 0))
    other = GroundAtom("misc", Point(0, 0))
    model = BenefitModel(per_predicate={"seen": 1.0}, per_atom_overrides={a: 3.0})
    assert benefit_of(a, model) == 3.0
    assert benefit_of(b, model) == 1.0
    assert benefit_of(other, model) == 0.0
    assert benefit_of(a, BenefitModel()) == 0.0
    assert cost_of(ActionPointPair("x", Point(0, 0)), frozenset(), CostModel()) == 0.0
    with pytest.raises(InstanceError):
        BenefitModel(per_predicate={"seen": -1.0})


def test_ic_requires_ground_condition_and_nonempty():
    pair = ActionPointPair("a", Point(0, 0))
    with pytest.raises(InstanceError) as err:
        IntegrityConstraint(pairs=frozenset(), condition=TRUE)
    assert err.value.code == "ic-empty"
    with pytest.raises(InstanceError) as err:
        IntegrityConstraint(pairs=frozenset({pair}), condition=atom("g"))
    assert err.value.code == "ic-not-ground"


def test_grid_bounds():
    grid = GridMap(2, 3)
    assert grid.n_points == 12
    assert grid.contains(Point(2, 3))
    assert not grid.contains(Point(3, 0))
    assert not grid.contains(Point(0, -1))
    # a point is on the map when its coordinates equal lattice integers
    assert not grid.contains(Point(0.5, 0))
    assert grid.contains(Point(1.0, 0))
    assert grid.contains(Point(True, 0))
    with pytest.raises(InstanceError):
        GridMap(-1, 0)


def test_point_index_is_none_off_the_map_not_aliased():
    # on a 5 x 5 lattice, (5, 0) would alias to (0, 1) by plain arithmetic
    grid = GridMap(4, 4)
    assert [grid.point_index(Point(x, 0)) for x in (0, 4)] == [0, 4]
    assert grid.point_index(Point(0, 1)) == 5
    assert grid.point_index(Point(True, 1.0)) == 6
    for p in ((5, 0), (0, 5), (-1, 0), (0, -1), (0.5, 0)):
        assert grid.point_index(Point(*p)) is None


def test_a_numeral_mask_is_the_mask_of_its_indices():
    rng = random.Random(0)
    cases = [([], 0), ([], 1), ([0], 1)]
    for _ in range(200):
        width = rng.randint(1, 300)
        cases.append((rng.sample(range(width), rng.randint(0, width)), width))
    for indices, width in cases:
        assert _numeral_mask(iter(indices), width) == _mask(indices)
        assert _numeral_mask(indices + indices[::-1], width) == _mask(indices)  # repeats


class _Bad(Exception):
    pass


def _indices_by_point_index(items, offsets, grid):
    """``item_indices``'s outcome by ``GridMap.point_index`` alone: (the
    indices, ()) or, when some item has no index, (None, (least bad item
    by ``repr``,))."""
    out, bad = [], []
    for item in items:
        try:
            name, point = item
            out.append(offsets[name] + grid.point_index(point))
        except (KeyError, TypeError, ValueError):
            bad.append(item)
    return (None, (min(bad, key=repr),)) if bad else (out, ())


def _indices_or_bad(items, offsets, grid):
    try:
        return item_indices(items, offsets, grid, _Bad), ()
    except _Bad as err:
        return None, err.args


def test_item_indices_agree_with_point_index_on_every_coordinate():
    grid = GridMap(3, 2)
    offsets = block_offsets(("a", "b"), grid)
    values = (0, 2, True, False, 1.0, Fraction(1), -1, grid.width_bound + 1,
              grid.height_bound + 1, 2 ** 70, -2 ** 70, 0.5, "1", None)
    points = [(1, 1, 1), [1, 1, 1], (1,), [], None, "ab", 5]
    for v in values:
        for w in (0, 2):
            points += [Point(v, w), Point(w, v), [v, w], [w, v]]
    items = [(name, p) for name in ("a", "b", "z") for p in points]
    items += [None, ("a",), ("a", (1, 1), 0), "a"]
    for item in items:
        assert _indices_or_bad([item], offsets, grid) == \
            _indices_by_point_index([item], offsets, grid), item
    good = [item for item in items if not _indices_by_point_index([item], offsets, grid)[1]]
    assert 50 < len(good) < len(items) - 50
    for some in (good, items, items[::-1]):
        assert _indices_or_bad(some, offsets, grid) == \
            _indices_by_point_index(some, offsets, grid)
    assert item_indices([("b", Point(3, 2)), ("b", [3, 2]), ("a", (True, 1.0))], offsets, grid,
                        _Bad) == [23, 23, 5]


@pytest.mark.parametrize("value", [float("inf"), float("-inf"), float("nan")])
def test_non_finite_distance_and_benefit_rejected(value):
    with pytest.raises(InstanceError) as err:
        ActionRule(name="r", effect_predicate="g", max_distance=value)
    assert err.value.code == "distance-not-finite"
    with pytest.raises(InstanceError) as err:
        BenefitModel(per_predicate={"g": value})
    assert err.value.code == "benefit-range"
