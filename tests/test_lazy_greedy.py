"""The lazy greedy against its eager oracle, and golden traces.

``bmgop_compute`` evaluates gains lazily, one heap per class of pairs that
share a numerator; ``helpers.eager_bmgop_compute`` rescans every unpicked
pair before each pick, gains summed bit by bit. Both must give the same
solution, trace text and repair step, with the lazy form never evaluating
more gains."""

import dataclasses
import hashlib
import random

import pytest

from gops import (BenefitModel, CostModel, GridMap, GroundAtom, IntegrityConstraint, Point,
                  bmgop_compute, gen_campaign, gen_random)
from gops.encodings import CoverProblem, encode_max_k_cover

from helpers import eager_bmgop_compute, explicit_action, planted_cover, tiny_bmgop

MODES = ("weighted", "plain")

# benefit tables swapped into gen_random instances: the generator's own
# (dyadic, popcount sums), values that are not (bit-loop sums), and an
# int beside a float of equal value
NON_DYADIC = (0.1, 0.3, 1, 0.7)
INT_AND_FLOAT = (1, 2, 1.0)


def max_k_cover(tag, k, block, decoys):
    """Maximum coverage with ``k`` planted blocks, drawn from the seed ``tag``."""
    universe, families = planted_cover(random.Random(tag), k, block, decoys)
    return encode_max_k_cover(CoverProblem(universe, families, k))


def with_benefits(inst, rng, values):
    model = BenefitModel(per_predicate={p: rng.choice(values) for p in inst.predicates})
    return dataclasses.replace(inst, benefit_model=model)


def assert_same_as_eager(inst, mode):
    sol, trace = bmgop_compute(inst, condition_mode=mode)
    want_sol, want_trace = eager_bmgop_compute(inst, condition_mode=mode)
    assert sol == want_sol
    assert repr(sol.achieved_benefit) == repr(want_sol.achieved_benefit)
    assert trace.to_text() == want_trace.to_text()
    assert trace.fixup == want_trace.fixup
    assert trace.op_count <= want_trace.op_count
    return trace, want_trace


def random_corpus():
    rng = random.Random(11)
    for size in (0, 1, 2, 4):
        for _ in range(25):
            inst = gen_random(seed=rng.randrange(2 ** 32), width=size, height=size,
                              predicates=3, actions=3, radius=1.5, ics=2, problem="bmgop")
            yield inst
            yield with_benefits(inst, rng, NON_DYADIC)
            yield with_benefits(inst, rng, INT_AND_FLOAT)


@pytest.mark.parametrize("mode", MODES)
def test_lazy_greedy_matches_eager_on_random_instances(mode):
    picks = fallbacks = 0
    for inst in random_corpus():
        picks += len(assert_same_as_eager(inst, mode)[0].iterations)
        fallbacks += inst.grounding.benefit_classes is None
    assert picks > 200 and fallbacks > 50  # the corpus makes picks on both sum paths


@pytest.mark.parametrize("mode", MODES)
def test_lazy_greedy_matches_eager_on_tied_max_k_cover(mode):
    saved = 0
    for k in range(4, 41, 4):
        trace, want_trace = assert_same_as_eager(max_k_cover(f"tied/{k}", k, 8, 120 - k), mode)
        saved += want_trace.op_count - trace.op_count
    assert saved > 0


@pytest.mark.parametrize("mode", MODES)
def test_lazy_greedy_matches_eager_on_bit_loop_benefits(mode):
    rng = random.Random(5)
    for k in (4, 12, 24):
        inst = with_benefits(max_k_cover(f"fallback/{k}", k, 8, 80), rng, NON_DYADIC)
        assert inst.grounding.benefit_classes is None
        assert_same_as_eager(inst, mode)


def class_count(inst):
    """The numerator classes of an instance: distinct (cost, constraints)."""
    g = inst.grounding
    return len(set(zip(g.costs, g.pair_ics)))


def with_costs_and_ics(inst, rng, ics):
    """``inst`` with a drawn cost per pair and ``ics`` drawn constraints."""
    pairs = inst.grounding.pairs
    costs = CostModel(default_cost=1.0, overrides={pair: rng.choice((0.25, 0.5, 0.75, 1.0))
                                                   for pair in pairs})
    constraints = tuple(IntegrityConstraint(pairs=frozenset(rng.sample(pairs, rng.randint(2, 6))))
                        for _ in range(ics))
    return dataclasses.replace(inst, cost_model=costs, ics=constraints)


def many_class_corpus():
    """gen_random maps with cost rules, overrides and constraints, and
    max-k-cover encodings with a cost per family: many classes, whose tops
    compete at every pick."""
    rng = random.Random(23)
    for size in (3, 5):
        for _ in range(20):
            yield gen_random(seed=rng.randrange(2 ** 32), width=size, height=size,
                             predicates=3, actions=4, radius=2.0, ics=4, problem="bmgop")
    for j in range(12):
        k = rng.choice((4, 8, 12, 16))
        inst = with_costs_and_ics(max_k_cover(f"classes/{j}", k, 6, 60), rng, j % 5)
        yield inst
        yield with_benefits(inst, rng, NON_DYADIC)


@pytest.mark.parametrize("mode", MODES)
def test_lazy_greedy_matches_eager_across_many_classes(mode):
    picks = most = 0
    for inst in many_class_corpus():
        picks += len(assert_same_as_eager(inst, mode)[0].iterations)
        most = max(most, class_count(inst))
    assert picks > 300 and most >= 15


P00 = Point(0, 0)


def rounding_tie(benefits, effects, **changes):
    """A one-point map whose pairs ``x0``, ``x1``, ... add the atoms named
    in ``effects``, unit costs unless ``changes`` say otherwise."""
    atoms = {name: GroundAtom(name, P00) for name in benefits}
    actions = tuple(explicit_action(f"x{i}", P00, [atoms[a] for a in names])
                    for i, names in enumerate(effects))
    changes.setdefault("cost_model", CostModel(default_cost=1.0))
    return tiny_bmgop(grid=GridMap(0, 0), predicates=tuple(benefits), actions=actions,
                      benefit_model=BenefitModel(per_predicate=benefits), **changes)


# 0.1 + 0.7 in atom order is 0.7999999999999999, and at the numerators
# below it gives the ratio 0.8 gives: the lower-index pair ties
BIT_LOOP_TIE = {"a": 0.1, "b": 0.7, "c": 0.8}


@pytest.mark.parametrize("mode", MODES)
def test_a_smaller_gain_that_rounds_to_the_top_ratio_wins_by_index(mode):
    # k = budget = 1, so the numerator is 2.0 and 2.0 / 0.7999999999999999
    # == 2.0 / 0.8: x0 has the smaller gain and the smaller index
    inst = rounding_tie(BIT_LOOP_TIE, [("a", "b"), ("c",)], k=1, budget=1.0)
    assert inst.grounding.benefit_classes is None
    trace = assert_same_as_eager(inst, mode)[0]
    assert [(str(it.chosen), it.gain) for it in trace.iterations] == [("x0@(0,0)", 0.7999999999999999)]
    assert trace.iterations[0].ratio == 2.0 / 0.8


@pytest.mark.parametrize("mode", MODES)
def test_a_stale_member_that_rounds_to_the_top_ratio_is_evaluated_again(mode):
    # x2 is picked first; then x1, the class top, is evaluated again at 0.8,
    # and x0, stale below it, ties at the second numerator: it must be
    # evaluated again too
    inst = rounding_tie(dict(BIT_LOOP_TIE, d=4.0), [("a", "b"), ("c",), ("d",)],
                        cost_model=CostModel(default_cost=0.25), k=2, budget=2.0)
    trace = assert_same_as_eager(inst, mode)[0]
    first, second = trace.iterations[:2]
    assert [str(it.chosen) for it in (first, second)] == ["x2@(0,0)", "x0@(0,0)"]
    numerator = first.w_prime + first.w_dprime * 0.25
    assert second.ratio == numerator / 0.7999999999999999 == numerator / 0.8


@pytest.mark.parametrize("mode", MODES)
def test_ints_past_float_precision_tie_when_their_floats_do(mode):
    # 2 ** 54 + 1 and 2 ** 54 are different gains of one float: a rescan
    # picks x0, whose gain is the smaller one
    inst = rounding_tie({"a": 2 ** 54, "b": 2 ** 54, "c": 1}, [("a",), ("b", "c")],
                        k=1, budget=1.0)
    assert inst.grounding.benefit_classes is None
    trace = assert_same_as_eager(inst, mode)[0]
    assert [(str(it.chosen), it.gain) for it in trace.iterations] == [("x0@(0,0)", 2 ** 54)]


def test_lazy_greedy_evaluation_count_on_the_benchmark_max_k_cover_shape():
    # k = 40, 500 families in blocks of 8: most of a rescan's evaluations are
    # saved, since all pairs share one numerator class
    inst = max_k_cover("1/maxk-large/40", 40, 8, 460)
    traces = {mode: assert_same_as_eager(inst, mode) for mode in MODES}
    assert {mode: trace.op_count for mode, (trace, _) in traces.items()} == \
        {"weighted": 1124, "plain": 2011}
    assert all(want.op_count > 10 * trace.op_count for trace, want in traces.values())


def test_lazy_greedy_evaluates_nothing_when_the_loop_test_fails_at_once():
    # plain mode with a tiny budget: 1/budget alone exceeds lambda
    inst = dataclasses.replace(max_k_cover("tiny", 4, 8, 20), budget=0.01)
    sol, trace = bmgop_compute(inst, condition_mode="plain")
    assert trace.iterations == [] and trace.op_count == 0
    assert sol == eager_bmgop_compute(inst, condition_mode="plain")[0]


# ---------------------------------------------------------------------------
# Golden traces: the sha256 of every trace text of a shape, both loop
# modes, in the order below. The benchmark pins only its outputs digests,
# and its max-k-cover answers do not include the tie-heavy traces.

def max_k_cover_small():
    return [(f"maxk-small-{j}", max_k_cover(f"1/maxk-small/{j}", 2, 4, 6)) for j in range(12)]


def max_k_cover_large():
    return [(f"maxk-large-k{k}", max_k_cover(f"1/maxk-large/{k}", k, 8, 500 - k))
            for k in (4, 6, 8, 12, 16, 24, 32, 40)]


def campaign():
    return [("campaign-bmgop", gen_campaign().bmgop)]


GOLDEN = {
    max_k_cover_small: "63cf7b2836026763b838b78d8729cbbe8948d704e3358a0d3762c4fc182428a9",
    max_k_cover_large: "518c7d4b7fa7e79c2cfb351b929ff50b9fc6cbfd575bc8d305c25e99f4c6ed0e",
    campaign: "5d5bc70b23a62d6bf9774a3c2ef84c4a72da729db56a618704646bb864e149d2",
}


@pytest.mark.parametrize("shape", list(GOLDEN), ids=lambda shape: shape.__name__)
def test_greedy_traces_match_golden_digest(shape):
    digest = hashlib.sha256()
    for name, inst in shape():
        for mode in MODES:
            digest.update(f"== {name} {mode}\n".encode())
            digest.update(bmgop_compute(inst, condition_mode=mode)[1].to_text().encode())
    assert digest.hexdigest() == GOLDEN[shape]
