"""Differential tests of ``Grounding``'s mask-algebra tables against the
set-based reference builder, plus radius edge cases."""

import random

import pytest

from gops import (ActionPointPair, ActionRule, BenefitModel, CostModel,
                  GridMap, GroundAtom, Grounding, IntegrityConstraint, Point,
                  TRUE, atom, check_ics, gen_campaign, gen_random, land, lnot,
                  lor)
from gops.core import METRICS

from helpers import random_formula, reference_grounding, reference_grounding_of

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
        assert_matches_reference(Grounding(*parts), reference_grounding(*parts))


def _open_map_rules(grid, radius, metric):
    s0 = frozenset(GroundAtom("wall", Point(x, y)) for x in range(0, grid.width_bound, 3)
                   for y in range(0, grid.height_bound, 4))
    guards = dict(source_guard=lnot(atom("wall")), target_guard=lnot(atom("wall")))
    rules = (ActionRule(name="near", effect_predicate="seen", max_distance=radius,
                        metric=metric, **guards),
             ActionRule(name="far", effect_predicate="seen", **guards))
    return Grounding(grid, ("wall", "seen"), s0, rules, CostModel(), ())


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
    g = Grounding(grid, ("ok", "hit"), s0, (rule,), CostModel(), ())
    for i, p in enumerate(g.points):
        expected = {GroundAtom("hit", p)} if GroundAtom("ok", p) in s0 else set()
        assert set(g.mask_atoms(g.effects[i])) == expected


def assert_conflicts_match_check_ics(inst, rng, rounds):
    """``Grounding.conflicts`` against the set-based ``check_ics`` on random
    selections, biased toward constraint members so that overlaps occur."""
    g = inst.grounding
    members = sorted({g.pair_index[p] for ic in inst.ics for p in ic.pairs})
    for _ in range(rounds):
        picked = set(rng.sample(range(len(g.pairs)), min(rng.randint(0, 4), len(g.pairs))))
        picked |= {i for i in members if rng.random() < 0.5}
        chosen = frozenset(g.pairs[i] for i in picked)
        ok, violated = check_ics(inst.s0, chosen, inst.ics)
        got = g.conflicts(picked)
        assert ok == (not got)
        assert [inst.ics[pos] for pos, _ in got] == violated
        assert [overlap for _, overlap in got] == [
            sorted(g.pair_index[p] for p in ic.pairs & chosen) for ic in violated]


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
