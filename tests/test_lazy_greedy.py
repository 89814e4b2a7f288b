"""The lazy greedy against its eager oracle, and golden traces.

``bmgop_compute`` evaluates gains lazily; ``helpers.eager_bmgop_compute``
rescans every unpicked pair before each pick, gains summed bit by bit.
Both must give the same solution, trace text and repair step, with the
lazy form never evaluating more gains."""

import dataclasses
import hashlib
import random

import pytest

from gops import BenefitModel, bmgop_compute, gen_campaign, gen_random
from gops.encodings import CoverProblem, encode_max_k_cover

from helpers import eager_bmgop_compute

MODES = ("weighted", "plain")

# benefit tables swapped into gen_random instances: the generator's own
# (dyadic, popcount sums), values that are not (bit-loop sums), and an
# int beside a float of equal value
NON_DYADIC = (0.1, 0.3, 1, 0.7)
INT_AND_FLOAT = (1, 2, 1.0)


def planted_cover(rng, planted, block, decoys):
    """``planted`` disjoint blocks covering the universe plus ``decoys``
    random families of the block size, shuffled: the benchmark's max-k-cover
    shape, whose equal-size families make ratio ties common."""
    universe = tuple(range(planted * block))
    elems = list(universe)
    rng.shuffle(elems)
    families = [frozenset(elems[i::planted]) for i in range(planted)]
    families += [frozenset(rng.sample(universe, block)) for _ in range(decoys)]
    rng.shuffle(families)
    return universe, tuple(families)


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
