"""``Grounding.gains``, the greedy's first read, against the sums over the
full effect table, and the greedy on a map whose table would not fit.

``gains(fresh)`` counts a ball rule's gains from its parts and never fills
a rule-form block; every gain must still equal ``benefit_sum(effect(i) &
fresh)`` over the filled table, in value and in type."""

import dataclasses
import random
import sys
import threading
import tracemalloc

import pytest

from gops import (ActionPointPair, ActionRule, BenefitModel, BmgopInstance, CostModel, GridMap,
                  GroundAtom, IntegrityConstraint, Point, atom, bmgop_compute, gen_random, lnot,
                  validate_bmgop)
from gops.core import METRICS, _ball

# None: no distance bound; 30 reaches past every map here
RADII = (None, 0, 0.5, 1, 1.5, 2, 3, 30)


def gains_corpus():
    """Seeded ``gen_random`` benefit-maximizing maps 3, 5 and 7 points
    wide at every radius in ``RADII``, each with the generator's dyadic
    benefits, inexact ones (0.1, summed bit by bit), ints beside floats,
    and per-atom overrides (blocks that meet several benefit classes)."""
    rng = random.Random(39)
    for seed in range(12):
        width = (3, 5, 7)[seed % 3]
        for radius in RADII:
            inst = gen_random(seed=seed, width=width - 1, height=width - 1, predicates=3,
                              actions=3, radius=radius, ics=seed % 3, problem="bmgop")
            yield inst
            for values in ((0.1, 0.3, 1.5), (1, 2, 1.0, True)):
                model = BenefitModel(per_predicate={p: rng.choice(values) for p in inst.predicates})
                yield dataclasses.replace(inst, benefit_model=model)
            points = inst.grid.points()
            overrides = {GroundAtom(rng.choice(inst.predicates), rng.choice(points)):
                         rng.choice((0.0, 0.25, 4, 7.5)) for _ in range(4)}
            yield dataclasses.replace(inst, benefit_model=BenefitModel(
                per_predicate=inst.benefit_model.per_predicate, per_atom_overrides=overrides))


CORPUS = list(gains_corpus())


def _typed(gains):
    return [(i, gain, type(gain)) for i, gain in gains]


def test_the_corpus_covers_every_block_kind_and_sum_path():
    balls = [rule for inst in CORPUS for rule in inst.actions
             if rule.explicit_effects is None and rule.max_distance is not None]
    assert {rule.metric for rule in balls} == set(METRICS)
    assert any(rule.explicit_effects is None and rule.max_distance is None
               for inst in CORPUS for rule in inst.actions)
    assert any(len({rule.explicit_effects is None for rule in inst.actions}) == 2
               for inst in CORPUS)
    assert any(inst.grounding.benefit_classes is None for inst in CORPUS)
    assert any(inst.benefit_model.per_atom_overrides and inst.grounding.benefit_classes
               for inst in CORPUS)


def test_gains_equal_the_table_sums_before_and_after_it_is_filled():
    rng = random.Random(7)
    for inst in CORPUS:
        g = dataclasses.replace(inst).grounding
        table = dataclasses.replace(inst).grounding
        everything = (1 << g.n_atoms) - 1
        masks = [everything & ~g.s0_mask, everything, 0,
                 *(rng.getrandbits(g.n_atoms) for _ in range(3))]
        wants = [_typed((i, table.benefit_sum(e & mask)) for i, e in enumerate(table.effects)
                        if e & mask) for mask in masks]
        rules = [k for k, rule in enumerate(inst.actions) if rule.explicit_effects is None]
        for _ in range(2):  # before and after the table is read
            for mask, want in zip(masks, wants):
                assert _typed(g.gains(mask)) == want, (inst.actions, mask)
            if not g._filled:  # gains left every rule-form block as it was
                n = g.n_points
                assert rules and not any(g._effects[k * n + i] for k in rules for i in range(n))
            g.effects


def test_threads_that_share_a_grounding_count_gains_while_the_table_fills():
    # gains fills the explicit rows in place while other threads fill the
    # whole table, count gains too, or read single effects; every read must
    # give the values of a grounding read by one thread
    inst = next(inst for inst in CORPUS if inst.grid.n_points == 49 and inst.explicit_rows.pairs
                and sum(rule.max_distance is not None and rule.explicit_effects is None
                        for rule in inst.actions) > 1)
    table = dataclasses.replace(inst).grounding
    fresh = (1 << table.n_atoms) - 1 & ~table.s0_mask
    full = list(table.effects)
    wanted = _typed((i, table.benefit_sum(e & fresh)) for i, e in enumerate(full) if e & fresh)
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
                            assert _typed(g.gains(fresh)) == wanted
                except AssertionError as err:
                    failures.append(err)

            threads = [threading.Thread(target=read, args=(j % 3,)) for j in range(6)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
            assert not any(thread.is_alive() for thread in threads)
            assert failures == []
            assert g._filled
    finally:
        sys.setswitchinterval(interval)


@pytest.mark.parametrize("mode", ["weighted", "plain"])
def test_the_greedy_runs_alike_with_and_without_a_filled_table(mode):
    picks = 0
    for inst in CORPUS:
        sol, trace = bmgop_compute(dataclasses.replace(inst), condition_mode=mode)
        filled = dataclasses.replace(inst)
        filled.grounding.effects
        want_sol, want_trace = bmgop_compute(filled, condition_mode=mode)
        assert sol == want_sol
        assert repr(sol.achieved_benefit) == repr(want_sol.achieved_benefit)
        assert trace.to_text() == want_trace.to_text()
        assert trace.op_count == want_trace.op_count
        picks += len(trace.iterations)
    assert picks > 100


@pytest.mark.parametrize("metric", METRICS)
@pytest.mark.parametrize("width, height, radius", [
    (1, 1, 0), (1, 9, 2), (9, 1, 2), (17, 11, 0.5), (17, 11, 3), (20, 30, 7.5),
    # balls of more than 255 points: counter fields of two bytes
    (40, 30, 12), (40, 30, 1e300)])
def test_ball_counts_are_the_popcounts_of_each_source_ball(metric, width, height, radius):
    grid = GridMap(width - 1, height - 1)
    rng = random.Random(f"{metric}/{width}/{height}/{radius}")
    ball = _ball(grid, metric, radius)
    for density in (0.05, 0.5, 1.0):
        local = sum(1 << i for i in range(grid.n_points) if rng.random() < density)
        source = sum(1 << i for i in range(grid.n_points) if rng.random() < 0.6)
        want = [(ball(p) & local).bit_count() for p in range(grid.n_points) if source >> p & 1]
        assert ball.counts(local, source) == want


def test_ball_counts_widen_their_fields_past_65535_points():
    # a ball holds the whole 300 x 300 map: four-byte counter fields
    grid = GridMap(299, 299)
    ball = _ball(grid, "chebyshev", 1e300)
    local = (1 << grid.n_points) - 1 ^ 1 << 4321
    source = 1 | 1 << 45000 | 1 << grid.n_points - 1
    assert ball.counts(local, source) == [grid.n_points - 1] * 3


def _region(width):
    """A benefit-maximizing map ``width`` points square: sites every 10
    points, a lamp that lights within 3 of a site, a watch that sees
    within 2 (Manhattan) of any point, and a survey with a few explicit
    rows."""
    grid = GridMap(width - 1, width - 1)
    at = lambda name, x, y: GroundAtom(name, Point(x, y))  # noqa: E731
    sites = [(x, y) for x in range(5, width, 10) for y in range(5, width, 10)]
    survey = {Point(x, y): frozenset({at("seen", x, y), at("lit", width - 1 - x, y)})
              for x, y in sites[::7]}
    return BmgopInstance(
        grid=grid, predicates=("site", "lit", "seen"),
        s0=frozenset(at("site", x, y) for x, y in sites),
        actions=(ActionRule(name="lamp", effect_predicate="lit", source_guard=atom("site"),
                            max_distance=3.0),
                 ActionRule(name="watch", effect_predicate="seen", target_guard=lnot(atom("site")),
                            max_distance=2.0, metric="manhattan"),
                 ActionRule(name="survey", explicit_effects=survey)),
        cost_model=CostModel(default_cost=0.5, state_rules=((atom("site"), 0.25),)),
        benefit_model=BenefitModel(per_predicate={"lit": 1.0, "seen": 0.5}),
        ics=(IntegrityConstraint(pairs=frozenset({ActionPointPair("lamp", Point(5, 5)),
                                                  ActionPointPair("lamp", Point(15, 5))})),),
        k=3, budget=2.0)


def test_the_greedy_on_a_region_scale_map_fills_no_rule_form_block():
    # the table's two rule-form blocks would hold 25,600 masks of up to
    # 76,800 bits each, about 480 MB
    inst = _region(160)
    tracemalloc.start()
    try:
        sol, trace = bmgop_compute(inst)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 40e6
    g = inst.grounding
    n = g.n_points
    assert not g._filled and not any(g._effects[:2 * n])
    assert validate_bmgop(inst, sol.pairs) == []
    assert trace.iterations and sol.achieved_benefit > 0
