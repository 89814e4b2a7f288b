"""The dominance reduction R -> R*: held equal to the every-pair-against-
every-pair oracle on generated, encoded and hand-built instances, and its
outputs pinned by a golden digest."""

import hashlib
import random
from dataclasses import replace

import pytest
from hypothesis import given, settings, strategies as st

from gops import (ActionPointPair, CostModel, GridMap, GroundAtom,
                  IntegrityConstraint, Point, TRUE, gen_campaign, gen_random,
                  reduce_to_r_star)
from gops.encodings import CoverProblem, encode_set_cover
from gops.gbgop import _admissible, _needed, _r_star

from helpers import explicit_action, goal_cases, goal_corpus, quadratic_r_star, tiny_gbgop

P00, P10 = Point(0, 0), Point(1, 0)

# (width, height, predicates, actions, radius, ics): one-point maps, strips
# and small squares, with up to four integrity constraints
SHAPES = ((0, 0, 3, 3, 1.0, 1), (0, 0, 2, 4, 0.0, 3), (3, 2, 3, 3, 1.5, 2),
          (4, 4, 2, 4, 2.0, 4))


def random_corpus(seeds):
    for seed in seeds:
        for width, height, predicates, actions, radius, ics in SHAPES:
            yield gen_random(seed=seed, width=width, height=height, predicates=predicates,
                             actions=actions, radius=radius, ics=ics)


def set_cover(rng, universe, families, family_size):
    """A set-cover encoding of random families over ``range(universe)``."""
    elements = tuple(range(universe))
    return encode_set_cover(CoverProblem(elements, tuple(
        frozenset(rng.sample(elements, rng.randint(*family_size))) for _ in range(families))))


def repeated_family_cover(rng):
    """Set cover whose families are drawn with repetition from a small pool
    plus subsets of pool members, so many pairs share one key."""
    elements = tuple(range(8))
    pool = [frozenset(rng.sample(elements, rng.randint(1, 5))) for _ in range(4)]
    fams = [rng.choice(pool) for _ in range(20)]
    fams += [frozenset(rng.sample(sorted(f), rng.randint(1, len(f)))) for f in pool]
    fams.append(frozenset(elements))
    rng.shuffle(fams)
    return encode_set_cover(CoverProblem(elements, tuple(fams)))


def family(i):
    """The pair of a set-cover encoding that places family ``i``."""
    return ActionPointPair(f"a{i}", P00)


def priced_cover(universe, families, costs=(), ics=(), held=()):
    """Set-cover encoding of ``families`` over ``range(universe)`` where
    family i costs ``costs[i]`` (1.0 past the end), each group of family
    indices in ``ics`` is an always-active integrity constraint, and the
    goal atoms of the elements in ``held`` hold initially."""
    inst = encode_set_cover(CoverProblem(tuple(range(universe)),
                                         tuple(map(frozenset, families))))
    return replace(inst,
                   cost_model=CostModel(default_cost=1.0, overrides={
                       family(i): c for i, c in enumerate(costs)}),
                   ics=tuple(IntegrityConstraint(pairs=frozenset(map(family, group)))
                             for group in ics),
                   s0=frozenset(GroundAtom(f"g_{e}", P00) for e in held))


def kept_families(inst):
    """R* as family numbers, asserting first that it equals the oracle's."""
    assert _r_star(inst) == quadratic_r_star(inst)
    return [int(p.action[1:]) for p in reduce_to_r_star(inst)[0]]


def distinct_keys(inst):
    g, needed = inst.grounding, _needed(inst)
    return {(g.costs[i], g.pair_ics[i], g.effects[i] & needed) for i in _admissible(inst)}


# ---------------------------------------------------------------------------
# Differential: the keyed reduction against the quadratic oracle.

def test_reduction_equals_the_quadratic_oracle_on_the_campaign():
    inst = gen_campaign().gbgop
    assert _r_star(inst) == quadratic_r_star(inst)


def test_reduction_equals_the_quadratic_oracle_on_generated_instances():
    overrides = out_goals = multi_ic = 0
    for inst in random_corpus(range(150)):
        assert _r_star(inst) == quadratic_r_star(inst)
        overrides += bool(inst.cost_model.overrides)
        out_goals += bool(inst.theta_out)
        multi_ic += len(inst.ics) > 1
    # the corpus exercises what the key is made of
    assert overrides and out_goals and multi_ic


def assert_reduction_matches_the_oracle(inst):
    """R and R* of a fresh grounding, whose reduction reads the goals'
    pairs, not the table, equal the oracle's."""
    r, kept = quadratic_r_star(inst)
    assert _admissible(replace(inst)) == r
    assert _r_star(replace(inst)) == (r, kept)
    return r, kept


def test_reduction_equals_the_quadratic_oracle_from_the_goals_at_every_radius():
    shrunk = overridden = constrained = forbidden = 0
    for inst in goal_corpus(range(40)):
        r, kept = assert_reduction_matches_the_oracle(inst)
        shrunk += len(kept) < len(r)
        overridden += bool(inst.cost_model.overrides)
        constrained += bool(inst.grounding.ic_s0)
        forbidden += len(r) < inst.grounding.n_pairs
    assert shrunk and overridden and constrained and forbidden


@pytest.mark.parametrize("name, inst", list(goal_cases()), ids=[name for name, _ in goal_cases()])
def test_reduction_equals_the_quadratic_oracle_on_built_cases(name, inst):
    assert_reduction_matches_the_oracle(inst)


def test_reduction_equals_the_quadratic_oracle_on_repeated_families():
    rng = random.Random(5)
    for _ in range(200):
        inst = repeated_family_cover(rng)
        r, kept = _r_star(inst)
        assert (r, kept) == quadratic_r_star(inst)
        assert len(kept) < len(r)


def test_only_dominator_later_in_canonical_order():
    a00, b10 = GroundAtom("a", P00), GroundAtom("b", P10)
    # mk_a is canonical first and covers a subset at a higher cost
    inst = tiny_gbgop(actions=(explicit_action("mk_a", P00, [a00]),
                               explicit_action("mk_ab", P00, [a00, b10])),
                      cost_model=CostModel(default_cost=0.5,
                                           overrides={ActionPointPair("mk_a", P00): 1.0}),
                      theta_in=frozenset({a00, b10}))
    r_star, stats = reduce_to_r_star(inst)
    assert r_star == [ActionPointPair("mk_ab", P00)]
    assert stats.r_size == 8
    assert _r_star(inst) == quadratic_r_star(inst)


@pytest.mark.parametrize("constrained", ["first", "second"])
def test_pairs_that_differ_only_in_their_constraint_set(constrained):
    a00 = GroundAtom("a", P00)
    one, two = ActionPointPair("m1", P00), ActionPointPair("m2", P00)
    tied = one if constrained == "first" else two
    # the constraint's other member makes nothing, so only `tied` is in
    # an extra active constraint
    ic = IntegrityConstraint(pairs=frozenset({tied, ActionPointPair("m1", P10)}),
                             condition=TRUE)
    inst = tiny_gbgop(actions=(explicit_action("m1", P00, [a00]),
                               explicit_action("m2", P00, [a00])),
                      ics=(ic,), theta_in=frozenset({a00}))
    r_star, _ = reduce_to_r_star(inst)
    assert r_star == [two if tied is one else one]
    assert _r_star(inst) == quadratic_r_star(inst)


# ---------------------------------------------------------------------------
# The key masks: cost prefix, constraint exclusion, cover AND, early exit.

def test_equal_costs_on_both_sides_of_the_cost_prefix():
    # family 1 dominates family 0 at the same cost and sorts after it; the
    # 0.6 keys lie past family 1's prefix, and family 3 is dominated by an
    # equal-cost key before it
    inst = priced_cover(4, [{0}, {0, 1}, {0, 1, 2}, {2}, {3}, {3}],
                        costs=[0.5, 0.5, 0.6, 0.6, 0.4, 0.4])
    assert kept_families(inst) == [1, 2, 4]


def test_float_costs_compare_exactly():
    # 0.1 + 0.2 > 0.3, so family 1 covers more than family 0 but does not
    # dominate it; family 2 has family 1's cost and is dominated by it
    inst = priced_cover(3, [{0}, {0, 1, 2}, {1}, {2}], costs=[0.3, 0.1 + 0.2, 0.1 + 0.2, 0.1])
    assert kept_families(inst) == [0, 1, 3]
    assert kept_families(priced_cover(3, [{0}, {0, 1, 2}], costs=[0.3, 0.3])) == [1]


def test_pairs_that_cover_no_outstanding_goal_atom():
    # the free empty family is kept, the priced one is dominated by it
    inst = priced_cover(2, [set(), {0}, set(), {0, 1}], costs=[0.0, 0.5, 0.5, 0.5])
    assert kept_families(inst) == [0, 3]


def test_goals_that_all_hold_initially_leave_pairs_by_cost_and_constraints():
    # every key covers nothing: the constrained family 1 is the cheapest,
    # family 3 is kept for its smaller constraint set, the rest cost more
    inst = priced_cover(2, [{0}, {1}, {0, 1}, {1}], costs=[0.3, 0.1, 0.4, 0.2],
                        ics=[(1, 2)], held=(0, 1))
    assert kept_families(inst) == [1, 3]


def test_no_admissible_pair():
    a00 = GroundAtom("a", P00)
    inst = tiny_gbgop(grid=GridMap(0, 0), actions=(explicit_action("mk_a", P00, [a00]),),
                      theta_out=frozenset({a00}))
    r_star, stats = reduce_to_r_star(inst)
    assert (r_star, stats.r_size, stats.r_star_size) == ([], 0, 0)
    assert _r_star(inst) == quadratic_r_star(inst) == ([], [])


def test_keys_beyond_a_machine_word_over_several_constraints():
    rng = random.Random(16)
    families = [rng.sample(range(30), rng.randint(1, 8)) for _ in range(120)]
    costs = [rng.choice((0.1, 0.2, 0.3, 0.5, 1.0)) for _ in families]
    ics = [rng.sample(range(120), 25) for _ in range(4)]
    inst = priced_cover(30, families, costs, ics)
    assert len(distinct_keys(inst)) > 64
    kept = kept_families(inst)
    # the constraints keep pairs that their dominators' extra constraints
    # would otherwise have dropped
    assert len(kept) > len(kept_families(replace(inst, ics=())))


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_reduction_equals_the_quadratic_oracle_on_priced_covers(data):
    universe = data.draw(st.integers(1, 6))
    elements = st.sets(st.integers(0, universe - 1))
    families = data.draw(st.lists(elements, min_size=1, max_size=12))
    n = len(families)
    costs = data.draw(st.lists(st.sampled_from((0.0, 0.1, 0.2, 0.3, 0.1 + 0.2, 0.5, 1.0)),
                               max_size=n))
    ics = data.draw(st.lists(st.sets(st.integers(0, n - 1), min_size=1), max_size=3))
    held = data.draw(elements)
    kept_families(priced_cover(universe, families, costs, ics, held))


# ---------------------------------------------------------------------------
# Golden digest of what reduce_to_r_star returns.

def reduction_text(inst):
    r_star, stats = reduce_to_r_star(inst)
    members = " ".join(f"{p.action}@{p.point.x},{p.point.y}" for p in r_star)
    return f"{stats.r_size} {stats.r_star_size}: {members}\n"


def test_reduction_outputs_golden_digest():
    # Pins R* and (|R|, |R*|) of the campaign, a generated corpus and
    # set-cover encodings shaped like the benchmark's `reduce` instances
    # (universe 60, 300 families of 6-12 elements); the digest is over the
    # texts in that order.
    campaign = gen_campaign().gbgop
    assert reduction_text(campaign).startswith("561 7: ")
    digest = hashlib.sha256(reduction_text(campaign).encode())
    for seed in range(40):
        for width, height, actions, radius, ics in ((0, 0, 3, 1.0, 1), (3, 2, 3, 1.5, 2),
                                                    (8, 8, 3, 3.0, 2), (12, 5, 4, 0.0, 3)):
            inst = gen_random(seed=seed, width=width, height=height, actions=actions,
                              radius=radius, ics=ics)
            digest.update(reduction_text(inst).encode())
    for j in range(6):
        digest.update(reduction_text(set_cover(random.Random(j), 60, 300, (6, 12))).encode())
    assert digest.hexdigest() == "f4d206cc62ef75048c7c559bbf221d254ef912b201e804c6e69ec8e1eb2aa9f2"
