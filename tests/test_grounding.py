"""Differential tests of ``Grounding``'s mask-algebra tables against the
set-based reference builder, plus radius edge cases."""

import dataclasses
import random
import sys
import threading
import tracemalloc
from fractions import Fraction

import pytest

from gops import (ActionPointPair, ActionRule, BenefitModel, BmgopInstance, CostModel,
                  GbgopInstance, GridMap, GroundAtom, IntegrityConstraint, Point,
                  TRUE, atom, check_ics, enumerate_ground_atoms, enumerate_pairs,
                  gen_campaign, gen_random, land, lnot, lor, objective_f, parse_instance,
                  validate_bmgop, validate_gbgop)
from gops import build_gbgop_ip, core, emit_lp, reduce_to_r_star, solve_gbgop_exact, solve_gbgop_ip
from gops.core import METRICS, _ball, _half_widths, iter_bits, within_distance
from gops.errors import InstanceError, UncoverableAtomsError

from helpers import (goal_cases, goal_corpus, ground, per_row_half_widths, random_formula,
                     reference_grounding, reference_grounding_of, text_at)

FIELDS = ("s0_mask", "effects", "costs", "benefits", "ic_s0", "pair_ics")


def assert_matches_reference(g, expected):
    for name in FIELDS:
        assert getattr(g, name) == expected[name], name


@pytest.mark.parametrize("flavor", ["gbgop", "bmgop"])
def test_campaign_grounding_matches_reference(flavor):
    inst = getattr(gen_campaign(), flavor)
    assert_matches_reference(inst.grounding, reference_grounding_of(inst))


@pytest.mark.parametrize("radius", [0, 0.5, 1, 1.5, 2.3, 3, None])
def test_random_corpus_grounding_matches_reference(radius):
    for size in range(13):
        for width, height, flavor in ((size, size, "gbgop"), (size, 12 - size, "bmgop")):
            inst = gen_random(seed=31 * size + width, width=width, height=height,
                              predicates=3, actions=3, radius=radius, ics=2,
                              problem=flavor)
            assert_matches_reference(inst.grounding, reference_grounding_of(inst))


def _guard_instance(seed, metric, grid):
    """Rule-form actions with nested and/or/not guards over template and
    ground atoms, cost rules and constraint conditions of the same kind."""
    rng = random.Random(seed)
    predicates = ("a", "b", "c", "e")
    points = grid.points()
    s0 = frozenset(GroundAtom(pred, p) for pred in predicates[:3] for p in points
                   if rng.random() < 0.5)
    corners = [Point(0, 0), Point(grid.width_bound, 0), Point(0, grid.height_bound),
               Point(grid.width_bound, grid.height_bound)]
    # Template leaves outnumber ground ones, which hold at all points or none.
    leaves = [atom(pred) for pred in predicates] * 8 + [
        atom(pred, p) for pred in predicates for p in corners]
    fixed = lor(land(atom("a"), lnot(atom("b"))),
                land(lnot(atom("c", corners[3])), lnot(atom("a"))))
    actions = tuple(
        ActionRule(name=f"r{i}", effect_predicate=rng.choice(predicates),
                   source_guard=random_formula(rng, leaves, 3),
                   target_guard=fixed if i % 2 else random_formula(rng, leaves, 3),
                   max_distance=radius, metric=metric)
        for i, radius in enumerate((0.0, 1.0, 1.5, 2.3, None)))
    cost_model = CostModel(
        default_cost=0.5,
        state_rules=tuple((random_formula(rng, leaves, 3), c) for c in (0.25, 0.75, 1.0)),
        overrides={ActionPointPair("r1", corners[1]): 0.125,
                   ActionPointPair("r3", corners[2]): 0.0})
    ground_conditions = (TRUE, atom("a", corners[0]), lnot(atom("b", corners[3])),
                         lor(atom("c", corners[1]), land(atom("a", corners[2]),
                                                         lnot(atom("a", corners[2])))))
    ics = tuple(IntegrityConstraint(
        pairs=frozenset(ActionPointPair(f"r{rng.randrange(5)}", rng.choice(corners))
                        for _ in range(3)),
        condition=condition)
        for condition in ground_conditions)
    benefit_model = BenefitModel(per_predicate={"a": 1.0, "e": 0.1},
                                 per_atom_overrides={GroundAtom("b", corners[3]): 2.0})
    return grid, predicates, s0, actions, cost_model, ics, benefit_model


@pytest.mark.parametrize("metric", METRICS)
def test_nested_guards_match_reference_at_edges_and_corners(metric):
    # Every pair is compared, so placements on the map's edges and corners,
    # where the ball is cut off, are all checked; thin maps are all edge.
    grids = (GridMap(0, 0), GridMap(6, 0), GridMap(0, 5), GridMap(1, 1),
             GridMap(5, 4), GridMap(7, 7))
    for seed in range(4 * len(grids)):
        parts = _guard_instance(seed, metric, grids[seed % len(grids)])
        assert_matches_reference(ground(*parts), reference_grounding(*parts))


@pytest.mark.parametrize("metric", METRICS)
@pytest.mark.parametrize("width, height", [(1, 1), (1, 9), (9, 1), (17, 11)])
def test_balls_are_the_box_points_within_distance(metric, width, height):
    grid = GridMap(width - 1, height - 1)
    points = grid.points()
    for radius in (0, 0.5, 1, 1.5, 2.9, 3, grid.width_bound + grid.height_bound + 5, 1e300):
        ball = _ball(grid, metric, radius)
        for i, p in enumerate(points):
            want = sum(1 << grid.point_index(q) for q in grid.box_around(p, radius)
                       if within_distance(metric, p, q, radius))
            assert ball(i) == want, (radius, p)


@pytest.mark.parametrize("metric", METRICS)
def test_half_widths_equal_the_per_row_scan(metric):
    # square, strip and one-row/one-column maps; radii integral and
    # fractional, inside the map, at its extent and beyond it
    grids = (GridMap(0, 0), GridMap(9, 9), GridMap(40, 3), GridMap(3, 40),
             GridMap(0, 12), GridMap(12, 0), GridMap(30, 30))
    radii = (0, 0.5, 1, 1.5, 2, 2.9, 3, 4.75, 7, 7.1, 12, 12.5, 29.99, 30, 40, 41.3, 1e300)
    for grid in grids:
        for radius in radii:
            assert _half_widths(grid, metric, radius) == per_row_half_widths(grid, metric, radius), \
                (grid, radius)


@pytest.mark.parametrize("metric", METRICS)
def test_half_widths_scan_each_column_once(metric, monkeypatch):
    # each row offset costs one call plus one per column the width shrinks,
    # so a map-sized radius stays near W + R calls instead of W * R
    calls = 0

    def counted(*args):
        nonlocal calls
        calls += 1
        return within_distance(*args)

    monkeypatch.setattr(core, "within_distance", counted)
    grid = GridMap(999, 999)
    widths = _half_widths(grid, metric, 1000)
    assert len(widths) == 1000 and widths[0] == 999
    assert calls <= grid.width_bound + grid.height_bound + 2


@pytest.mark.parametrize("metric", METRICS)
def test_one_source_on_a_wide_map_at_a_large_radius(metric):
    # Stacks are built per column on demand, so one source on a wide map
    # costs about one ball; the same column is asked for at several rows.
    grid = GridMap(1999, 4)
    rule = ActionRule(name="far", effect_predicate="hit", source_guard=atom("src"),
                      max_distance=1500.5, metric=metric)
    for source in (Point(1000, 2), Point(0, 4), Point(1999, 0)):
        s0 = frozenset({GroundAtom("src", source)})
        g = ground(grid, ("src", "hit"), s0, (rule,), CostModel(), ())
        want = {GroundAtom("hit", q) for q in grid.box_around(source, 1500.5)
                if within_distance(metric, source, q, 1500.5)}
        assert set(g.mask_atoms(g.effects[grid.point_index(source)])) == want
        assert sum(map(bool, g.effects)) == 1
    ball = _ball(grid, metric, 3)
    for p in (Point(1000, 2), Point(1000, 0), Point(1000, 4), Point(0, 4), Point(1000, 2)):
        want = sum(1 << grid.point_index(q) for q in grid.box_around(p, 3)
                   if within_distance(metric, p, q, 3))
        assert ball(grid.point_index(p)) == want, p


def _open_map_rules(grid, radius, metric):
    s0 = frozenset(GroundAtom("wall", Point(x, y)) for x in range(0, grid.width_bound, 3)
                   for y in range(0, grid.height_bound, 4))
    guards = dict(source_guard=lnot(atom("wall")), target_guard=lnot(atom("wall")))
    rules = (ActionRule(name="near", effect_predicate="seen", max_distance=radius,
                        metric=metric, **guards),
             ActionRule(name="far", effect_predicate="seen", **guards))
    return ground(grid, ("wall", "seen"), s0, rules, CostModel(), ())


@pytest.mark.parametrize("metric", METRICS)
@pytest.mark.parametrize("radius", [80.0, 1e6, 1e300])
def test_radius_beyond_the_map_grounds_like_the_unbounded_rule(metric, radius):
    # Ball work is bounded by the map, not the radius: at 1e300 a loop over
    # the raw radius would never finish.
    grid = GridMap(39, 39)
    g = _open_map_rules(grid, radius, metric)
    n = grid.n_points
    assert g.effects[:n] == g.effects[n:]
    assert any(g.effects[:n])


@pytest.mark.parametrize("metric", METRICS)
def test_radius_zero_yields_the_placement_point_where_the_target_holds(metric):
    grid = GridMap(5, 3)
    s0 = frozenset({GroundAtom("ok", Point(0, 0)), GroundAtom("ok", Point(5, 3)),
                    GroundAtom("ok", Point(2, 1)), GroundAtom("ok", Point(3, 1))})
    rule = ActionRule(name="spot", effect_predicate="hit", target_guard=atom("ok"),
                      max_distance=0.0, metric=metric)
    g = ground(grid, ("ok", "hit"), s0, (rule,), CostModel(), ())
    for i, p in enumerate(grid.points()):
        expected = {GroundAtom("hit", p)} if GroundAtom("ok", p) in s0 else set()
        assert set(g.mask_atoms(g.effects[i])) == expected


def assert_conflicts_match_check_ics(inst, rng, rounds):
    """``Grounding.conflicts`` against the set-based ``check_ics`` on random
    selections, biased toward constraint members so that overlaps occur."""
    g = inst.grounding
    members = sorted(set(g.pairs_to_indices(p for ic in inst.ics for p in ic.pairs)))
    for _ in range(rounds):
        picked = set(rng.sample(range(len(g.pairs)), min(rng.randint(0, 4), len(g.pairs))))
        picked |= {i for i in members if rng.random() < 0.5}
        chosen = frozenset(g.pairs[i] for i in picked)
        ok, violated = check_ics(frozenset(inst.s0), chosen, inst.ics)
        got = g.conflicts(picked)
        assert ok == (not got)
        assert [inst.ics[pos] for pos, _ in got] == violated
        assert [overlap for _, overlap in got] == [
            g.pairs_to_indices(ic.pairs & chosen) for ic in violated]


@pytest.mark.parametrize("flavor", ["gbgop", "bmgop"])
def test_campaign_conflicts_match_check_ics(flavor):
    assert_conflicts_match_check_ics(getattr(gen_campaign(), flavor), random.Random(7), 200)


def test_random_corpus_conflicts_match_check_ics():
    rng = random.Random(11)
    for seed in range(60):
        for flavor in ("gbgop", "bmgop"):
            inst = gen_random(seed=seed, width=seed % 4, height=seed % 3, actions=3,
                              ics=4, problem=flavor)
            assert_conflicts_match_check_ics(inst, rng, 20)


def _corpus():
    """The campaign and the random corpus of the reference tests above."""
    scenario = gen_campaign()
    yield scenario.gbgop
    yield scenario.bmgop
    for radius in (0, 1.5, None):
        for size in range(0, 13, 3):
            for width, height, flavor in ((size, size, "gbgop"), (size, 12 - size, "bmgop")):
                yield gen_random(seed=31 * size + width, width=width, height=height,
                                 predicates=3, actions=3, radius=radius, ics=2, problem=flavor)


def test_index_arithmetic_round_trips_on_the_corpus():
    rng = random.Random(5)
    for inst in _corpus():
        g = inst.grounding
        grid = inst.grid
        atoms = enumerate_ground_atoms(grid, inst.predicates)
        pairs = enumerate_pairs(grid, inst.actions)
        assert [g.atom_at(i) for i in range(g.n_atoms)] == atoms
        assert [g.pair_at(i) for i in range(g.n_pairs)] == pairs == g.pairs
        canonical = {a: i for i, a in enumerate(atoms)}
        samples = [inst.s0, atoms, []] + [rng.sample(atoms, rng.randint(1, len(atoms)))
                                          for _ in range(5)]
        for x in samples:
            assert g.mask_atoms(g.atoms_to_mask(x)) == tuple(sorted(set(x), key=canonical.get))
        chosen = rng.sample(pairs, min(len(pairs), 6))
        assert g.pairs_to_indices(chosen) == sorted(pairs.index(p) for p in chosen)


@pytest.mark.parametrize("point", [(6, 0), (0, 4), (-1, 0), (0, -1), (6, 3), (7, 4)])
def test_points_off_the_map_are_unknown_not_aliased(point):
    # On a 6 x 4 lattice, (6, 0) would alias to (0, 1) by plain arithmetic.
    grid = GridMap(5, 3)
    rule = ActionRule(name="put", effect_predicate="hit")
    g = ground(grid, ("ok", "hit"), frozenset(), (rule,), CostModel(), ())
    with pytest.raises(InstanceError) as err:
        g.pairs_to_indices([ActionPointPair("put", Point(*point))])
    assert err.value.code == "unknown-pair"
    with pytest.raises(InstanceError) as err:
        g.atoms_to_mask([GroundAtom("ok", Point(*point))])
    assert err.value.code == "unknown-atom"


def test_unknown_names_and_shapes_are_instance_errors():
    grid = GridMap(2, 2)
    rule = ActionRule(name="put", effect_predicate="hit")
    g = ground(grid, ("ok", "hit"), frozenset(), (rule,), CostModel(), ())
    for pair in (ActionPointPair("take", Point(0, 0)), ActionPointPair("put", Point(0.5, 0)),
                 "put@(0,0)", ("put",)):
        with pytest.raises(InstanceError) as err:
            g.pairs_to_indices([ActionPointPair("put", Point(1, 1)), pair])
        assert err.value.code == "unknown-pair"
    for a in (GroundAtom("miss", Point(0, 0)), GroundAtom("hit", Point(1, 0.5)),
              GroundAtom("hit", Point("1", 0)), None):
        with pytest.raises(InstanceError) as err:
            g.atoms_to_mask([GroundAtom("hit", Point(1, 1)), a])
        assert err.value.code == "unknown-atom"


def test_lookups_name_the_least_bad_item_in_any_order():
    # a solution set is walked in hash order, which changes with the hash
    # seed; reversing a list stands in for that
    shared = dict(grid=GridMap(2, 2), predicates=("ok", "hit"), s0=frozenset(),
                  actions=(ActionRule(name="put", effect_predicate="hit"),),
                  cost_model=CostModel(), ics=(), budget=1.0)
    gb = GbgopInstance(**shared, theta_in=frozenset(), theta_out=frozenset())
    bm = BmgopInstance(**shared, k=1, benefit_model=BenefitModel())
    good_pair, good_atom = ActionPointPair("put", Point(1, 1)), GroundAtom("ok", Point(1, 1))
    bad_pairs = [ActionPointPair("take", Point(0, 0)), ActionPointPair("put", Point(3, 0)),
                 ActionPointPair("cut", Point(1, 1))]
    bad_atoms = [GroundAtom("ok", Point(0, 5)), GroundAtom("miss", Point(0, 0))]
    lookups = [(bad_pairs, good_pair, "an action-point pair", "cut@(1,1)", call) for call in (
                   gb.grounding.pairs_to_indices, lambda x: validate_gbgop(gb, x),
                   lambda x: validate_bmgop(bm, x), lambda x: objective_f(bm, x))]
    lookups.append((bad_atoms, good_atom, "a ground atom", "miss(0,0)", gb.grounding.atoms_to_mask))
    for bad, good, what, least, call in lookups:
        for items in (bad, bad[::-1], [good, *bad]):
            with pytest.raises(InstanceError) as err:
                call(items)
            assert err.value.message == f"not {what} of this instance: {least}"


PARTS = ("s0", "explicit", "cost", "benefit", "ic", "guard", "theta_in", "theta_out")
GOALS = ("theta_in", "theta_out")


def _instance_with_x(part, x):
    """A small instance where ``part`` puts its point at (x, 0) and every
    other part uses (1, 0): goal-based when ``part`` is a goal set, else
    benefit-maximizing."""
    def at(p):
        return Point(x if p == part else 1, 0)
    shared = dict(
        grid=GridMap(2, 2), predicates=("ok", "hit"),
        s0=frozenset({GroundAtom("ok", at("s0"))}),
        actions=(ActionRule(name="put", explicit_effects={
                     at("explicit"): frozenset({GroundAtom("hit", Point(0, 1))})}),
                 ActionRule(name="near", effect_predicate="hit",
                            source_guard=atom("ok", at("guard")), max_distance=1.0)),
        cost_model=CostModel(overrides={ActionPointPair("put", at("cost")): 0.25}),
        ics=(IntegrityConstraint(pairs=frozenset({ActionPointPair("put", at("ic")),
                                                  ActionPointPair("near", Point(0, 0))}),
                                 condition=atom("ok", Point(1, 0))),),
        budget=1.0)
    if part in GOALS:
        return GbgopInstance(**shared, theta_in=frozenset({GroundAtom("hit", at("theta_in"))}),
                             theta_out=frozenset({GroundAtom("ok", at("theta_out"))}))
    return BmgopInstance(
        **shared, k=2,
        benefit_model=BenefitModel(per_predicate={"hit": 1.0},
                                   per_atom_overrides={GroundAtom("hit", at("benefit")): 3.0}))


@pytest.mark.parametrize("part", PARTS)
@pytest.mark.parametrize("x", [True, 1.0, Fraction(1)], ids=repr)
def test_coordinates_equal_to_an_int_ground_as_that_int(part, x):
    # Equal numbers are one dict key, so a lookup keyed by Point(1, 0)
    # finds Point(True, 0) or Point(1.0, 0); the index arithmetic agrees.
    want_inst, got_inst = _instance_with_x(part, 1), _instance_with_x(part, x)
    want, got = want_inst.grounding, got_inst.grounding
    for table in ("s0_mask", "effects", "costs", "benefits", "ic_s0", "pair_ics"):
        assert getattr(got, table) == getattr(want, table), table
    if part in GOALS:
        assert got_inst.theta_in_mask == want_inst.theta_in_mask
        assert got_inst.theta_out_mask == want_inst.theta_out_mask
    assert got.atoms_to_mask([GroundAtom("ok", Point(x, 0))]) == want.atoms_to_mask(
        [GroundAtom("ok", Point(1, 0))])
    assert got.pairs_to_indices([ActionPointPair("near", Point(0, x))]) == \
        want.pairs_to_indices([ActionPointPair("near", Point(0, 1))]) == [want.n_points + 3]
    # the writer writes each coordinate as the integer it equals, so the
    # document is the integer instance's, and it parses
    for version in (1, 2, 3):
        text = text_at(got_inst, version)
        assert text == text_at(want_inst, version)
        assert text_at(parse_instance(text), version) == text


def _indexed_corpus():
    """The campaign's two instances, the small ones above (with cost and
    benefit overrides) and seeded random ones with cost overrides and
    integrity constraints."""
    scenario = gen_campaign()
    yield scenario.gbgop
    yield scenario.bmgop
    yield _instance_with_x("theta_in", 1)
    yield _instance_with_x("benefit", 1)
    for seed in range(12):
        for problem in ("gbgop", "bmgop"):
            yield gen_random(seed=seed, width=4, height=3, predicates=3, actions=3,
                             radius=2.0, ics=3, problem=problem)


def test_grounding_indexes_nothing_that_validation_indexed(monkeypatch):
    corpus = list(_indexed_corpus())
    assert any(inst.cost_model.overrides for inst in corpus)
    assert any(getattr(inst, "benefit_model", None) and inst.benefit_model.per_atom_overrides
               for inst in corpus)
    assert any(inst.ics for inst in corpus)
    calls = []
    item_indices = core.item_indices
    monkeypatch.setattr(core, "item_indices",
                        lambda *args: calls.append(args) or item_indices(*args))
    groundings = [core.Grounding(inst) for inst in corpus]
    assert calls == []
    for inst, g in zip(corpus, groundings):
        assert_matches_reference(g, reference_grounding_of(inst))


def test_goal_masks_build_no_grounding():
    for inst in _indexed_corpus():
        if isinstance(inst, GbgopInstance):
            fresh = dataclasses.replace(inst)
            masks = fresh.theta_in_mask, fresh.theta_out_mask
            assert "grounding" not in fresh.__dict__
            g = inst.grounding
            assert masks == (g.atoms_to_mask(inst.theta_in), g.atoms_to_mask(inst.theta_out))


@pytest.mark.parametrize("part", PARTS)
def test_coordinates_equal_to_no_int_fail_at_construction(part):
    with pytest.raises(InstanceError) as err:
        _instance_with_x(part, 0.5)
    assert err.value.code == "point-bounds"


# ---------------------------------------------------------------------------
# benefit_sum by class popcount against the bit loop

def _bit_loop(g, mask):
    return sum(g.benefits[i] for i in iter_bits(mask))


def _benefit_grounding(per_predicate, overrides=None, width=1):
    grid = GridMap(width, 0)
    predicates = ("a", "b", "c")
    return ground(grid, predicates, frozenset(), (), CostModel(), (),
                  BenefitModel(per_predicate=per_predicate,
                               per_atom_overrides=overrides or {}))


def assert_sums_match_bit_loop(g):
    """Every mask over the (few) atoms sums to the bit loop's value and type."""
    for mask in range(1 << g.n_atoms):
        got, want = g.benefit_sum(mask), _bit_loop(g, mask)
        assert repr(got) == repr(want), (mask, got, want)


def test_zero_benefits_sum_to_float_zero_not_int():
    g = _benefit_grounding({})
    assert [value for value, _ in g.benefit_classes] == [0.0]
    assert repr(g.benefit_sum(0b11)) == "0.0" and repr(g.benefit_sum(0)) == "0"
    assert_sums_match_bit_loop(g)


def test_int_and_float_of_equal_value_stay_apart():
    g = _benefit_grounding({"a": 1, "b": 1.0, "c": 2},
                           {GroundAtom("c", Point(1, 0)): 1.0, GroundAtom("a", Point(0, 0)): 0})
    assert sorted(map(repr, (v for v, _ in g.benefit_classes))) == ["0", "1", "1.0", "2"]
    assert repr(g.benefit_sum(0b000011)) == "1"  # a(0,0) is 0 and a(1,0) is 1
    assert repr(g.benefit_sum(0b001010)) == "2.0"  # a(1,0) is 1, b(1,0) is 1.0
    assert_sums_match_bit_loop(g)


@pytest.mark.parametrize("values", [{"a": 0.1, "b": 0.3}, {"a": 0.7, "c": 1},
                                    {"a": Fraction(1, 2)}], ids=repr)
def test_inexact_or_non_float_benefits_keep_the_bit_loop(values):
    g = _benefit_grounding(values)
    assert g.benefit_classes is None
    assert_sums_match_bit_loop(g)


@pytest.mark.parametrize("c, exact", [(2.0 ** 51 - 1, True), (2.0 ** 51 - 0.5, False)])
def test_the_exactness_bound_is_two_to_the_53_in_the_finest_step(c, exact):
    # one point: a = 0.5 makes the finest step 2 ** -1, so the scaled total
    # is 1 + 2 ** 52 + 2 * c: 2 ** 53 - 1, then 2 ** 53
    g = _benefit_grounding({"a": 0.5, "b": 2.0 ** 51, "c": c}, width=0)
    assert (1 + 2 ** 52 + int(2 * c) < 2 ** 53) == exact
    assert (g.benefit_classes is not None) == exact
    assert_sums_match_bit_loop(g)


def test_benefit_classes_partition_the_atoms_by_value_and_type():
    rng = random.Random(3)
    for _ in range(30):
        inst = gen_random(seed=rng.randrange(2 ** 32), width=rng.randint(0, 4),
                          height=rng.randint(0, 4), problem="bmgop")
        atoms = enumerate_ground_atoms(inst.grid, inst.predicates)
        overrides = {a: rng.choice((0, 0.0, 1, 1.0, 2.5)) for a in rng.sample(atoms, 3)}
        g = dataclasses.replace(inst, benefit_model=BenefitModel(
            inst.benefit_model.per_predicate, overrides)).grounding
        seen = 0
        for value, members in g.benefit_classes:
            assert members and not members & seen
            seen |= members
            assert {(type(g.benefits[i]), g.benefits[i]) for i in iter_bits(members)} == \
                {(type(value), value)}
        assert seen == (1 << g.n_atoms) - 1
        for _ in range(20):
            mask = rng.getrandbits(g.n_atoms)
            assert repr(g.benefit_sum(mask)) == repr(_bit_loop(g, mask))


def test_an_unbounded_rule_grounds_in_memory_of_one_mask_per_rule():
    # Every source of a rule without a distance bound gets the same effect,
    # so one int serves them all: on 150x150 points a mask per source would
    # take 22,500 masks of 22,500 bits, about 64 MB.
    grid = GridMap(149, 149)
    s0 = frozenset(GroundAtom("wall", Point(x, 0)) for x in range(0, 150, 7))
    rule = ActionRule(name="all", effect_predicate="seen", target_guard=lnot(atom("wall")))
    tracemalloc.start()
    try:
        g = ground(grid, ("wall", "seen"), s0, (rule,), CostModel(), ())
        g.effects  # the rule's block is filled on this first read
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 16e6
    want = sum(1 << grid.n_points + i for i, p in enumerate(grid.points())
               if GroundAtom("wall", p) not in s0)
    assert g.effects == [want] * grid.n_points


# ---------------------------------------------------------------------------
# Reads that start from the goals: ``effect`` and ``meeting`` against the
# full table, and the goal-based paths that read only them

def assert_goal_reads_match_the_table(inst, rng):
    """``meeting`` of empty, full, goal and random masks, and ``effect`` of
    every pair, equal the reference table, on a fresh grounding before and
    after its table is read."""
    g = dataclasses.replace(inst).grounding
    full = reference_grounding_of(inst)["effects"]
    atoms = range(g.n_atoms)
    masks = [0, (1 << g.n_atoms) - 1, inst.theta_in_mask, inst.theta_out_mask,
             inst.theta_in_mask | inst.theta_out_mask]
    masks += [sum(1 << a for a in rng.sample(atoms, rng.randint(1, min(6, len(atoms)))))
              for _ in range(6)]
    for _ in range(2):
        for mask in masks:
            assert list(g.meeting(mask).items()) == [(i, e & mask) for i, e in enumerate(full)
                                                     if e & mask]
        assert list(map(g.effect, range(g.n_pairs))) == full
        assert g.effects == full


def test_goal_reads_equal_the_table_on_generated_instances():
    rng = random.Random(35)
    corpus = list(goal_corpus(range(40)))
    # rule-form actions with and without a distance bound, and explicit ones
    assert any(rule.max_distance is None and rule.explicit_effects is None
               for inst in corpus for rule in inst.actions)
    assert any(rule.explicit_effects is not None for inst in corpus for rule in inst.actions)
    for inst in corpus:
        assert_goal_reads_match_the_table(inst, rng)


@pytest.mark.parametrize("name, inst", list(goal_cases()), ids=[name for name, _ in goal_cases()])
def test_goal_reads_equal_the_table_on_built_cases(name, inst):
    assert_goal_reads_match_the_table(inst, random.Random(name))


def _lp(reduced):
    return lambda inst: emit_lp(build_gbgop_ip(inst, use_reduction=reduced))


@pytest.mark.parametrize("run", [solve_gbgop_exact, solve_gbgop_ip, reduce_to_r_star,
                                 _lp(False), _lp(True)],
                         ids=["exact", "ip", "reduce", "emit-lp-full", "emit-lp-reduced"])
def test_the_goal_based_paths_fill_no_rule_form_block(run):
    corpus = [gen_campaign().gbgop, *(inst for _, inst in goal_cases()),
              *(inst for inst in goal_corpus(range(16), widths=(3, 6))
                if any(rule.explicit_effects is None for rule in inst.actions))]
    solved = 0
    for inst in corpus:
        inst = dataclasses.replace(inst)  # without the grounding gen_random read
        try:
            solved += run(inst) is not None
        except (InstanceError, UncoverableAtomsError):
            pass  # build_gbgop_ip's documented refusals
        g = inst.grounding
        rules = [k for k, rule in enumerate(inst.actions) if rule.explicit_effects is None]
        assert sorted(g._unfilled) == rules
        n = g.n_points
        assert not any(g._effects[k * n + i] for k in rules for i in range(n))
        assert g.effects == reference_grounding_of(inst)["effects"]
        assert not g._unfilled
    assert solved


def test_threads_that_share_a_grounding_read_the_table_while_it_fills():
    # one thread's first read of ``effects`` fills the rule-form blocks in
    # place while the others read it too, or read single effects and
    # projections; every read must give the reference table's values
    inst = next(inst for inst in goal_corpus(range(8), widths=(12,))
                if sum(rule.explicit_effects is None for rule in inst.actions) > 1)
    full = reference_grounding_of(inst)["effects"]
    rng = random.Random(8)
    atoms = range(len(inst.predicates) * inst.grid.n_points)
    masks = [sum(1 << a for a in rng.sample(atoms, 4)) for _ in range(4)]
    wanted = [[(i, e & mask) for i, e in enumerate(full) if e & mask] for mask in masks]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for _ in range(40):
            g = dataclasses.replace(inst).grounding
            failures = []

            def read(kind):
                try:
                    for _ in range(2):
                        if kind == 0:
                            assert g.effects == full
                        elif kind == 1:
                            assert list(map(g.effect, range(g.n_pairs))) == full
                        else:
                            assert [list(g.meeting(m).items()) for m in masks] == wanted
                except AssertionError as err:
                    failures.append(err)

            threads = [threading.Thread(target=read, args=(j % 3,)) for j in range(6)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
            assert not any(thread.is_alive() for thread in threads)
            assert failures == []
            assert not g._unfilled
    finally:
        sys.setswitchinterval(interval)
