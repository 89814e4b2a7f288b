import dataclasses
import math
import random
import sys
import time

import pytest

from gops import (ActionPointPair, BenefitModel, BmgopInstance, CostModel, GridMap, GroundAtom,
                  IntegrityConstraint, Limits, Point, TRUE, approx_bound,
                  bmgop_compute, bound_applicable, build_bmgop_ip, emit_lp,
                  gen_campaign, gen_random,
                  objective_f, solve_branch_and_bound, solve_bmgop_exact,
                  solve_bmgop_ip, validate_bmgop)
from gops.core import Grounding
from gops.encodings import CoverProblem, encode_max_k_cover
from gops.errors import InstanceError, LimitReachedError
from gops.ip import _solve_for_tags

from helpers import (bmgop_benefit, brute_best_bmgop, exhaustive_optimum, explicit_action,
                     golden_corpus, max_k_coverage, reference_bmgop_ip, tiny_bmgop)

P00, P10, P01, P11 = Point(0, 0), Point(1, 0), Point(0, 1), Point(1, 1)


def test_objective_empty_is_zero_without_initial_benefits():
    inst = tiny_bmgop()
    assert objective_f(inst, set()) == 0.0
    # initial-state benefit counts once atoms carry weight
    inst2 = tiny_bmgop(s0=frozenset({GroundAtom("b", P10)}))
    assert objective_f(inst2, set()) == 2.0


def test_objective_monotone_on_random_pairs():
    rng = random.Random(5)
    checked = 0
    while checked < 200:
        inst = gen_random(seed=rng.randrange(10 ** 6), width=1, height=1,
                          predicates=3, actions=2, problem="bmgop")
        pairs = [ActionPointPair(r.name, p)
                 for r in inst.actions for p in inst.grid.points()]
        small = set(rng.sample(pairs, rng.randint(0, len(pairs) // 2)))
        big = small | set(rng.sample(pairs, rng.randint(0, len(pairs) // 2)))
        assert objective_f(inst, small) <= objective_f(inst, big)
        checked += 1


def test_objective_matches_definitional_oracle():
    rng = random.Random(6)
    for seed in range(30):
        inst = gen_random(seed=seed, width=1, height=1, predicates=3,
                          actions=2, problem="bmgop")
        pairs = [ActionPointPair(r.name, p)
                 for r in inst.actions for p in inst.grid.points()]
        sol = set(rng.sample(pairs, rng.randint(0, 4)))
        assert objective_f(inst, sol) == pytest.approx(bmgop_benefit(inst, sol), abs=1e-12)


def test_build_ip_flat_objective_when_benefits_zero():
    inst = tiny_bmgop(benefit_model=BenefitModel())
    model = build_bmgop_ip(inst)
    result = solve_branch_and_bound(model)
    assert result.objective_value == 0.0


def test_build_ip_unproducible_atom_forced_zero():
    inst = tiny_bmgop()
    model = build_bmgop_ip(inst)
    # atom b(0,0) has no producer: it gets neither an indicator nor a
    # linking row, so it can never count; only the two pairs that add an
    # atom get a selection variable
    assert [v.name for v in model.variables] == ["X_mk_a_0_0", "X_mk_b_1_0", "Y_a_0_0", "Y_b_1_0"]
    assert "cover_b_0_0" not in {c.label for c in model.constraints}
    result = solve_branch_and_bound(model)
    assert (result.status, result.objective_value) == ("optimal", 3.0)


MAX_COVER_CASES = [
    (5, ((1, 2, 3), (3, 4), (4, 5), (1,)), 2, 5),
    (5, ((1, 2, 3), (3, 4), (4, 5), (1,)), 1, 3),  # best single family
    (4, ((1, 2), (3, 4)), 2, 4),                   # k = m takes everything
]


@pytest.mark.parametrize("n,families,k,expected", MAX_COVER_CASES)
def test_max_k_cover_ip_matches_bruteforce(n, families, k, expected):
    problem = CoverProblem(universe=tuple(range(1, n + 1)),
                           families=tuple(frozenset(f) for f in families), k=k)
    inst = encode_max_k_cover(problem)
    oracle = max_k_coverage([set(f) for f in families], k)
    assert oracle == expected
    result = solve_branch_and_bound(build_bmgop_ip(inst))
    assert result.objective_value == oracle
    assert solve_bmgop_exact(inst).achieved_benefit == oracle


def test_exact_solver_k_zero_returns_empty():
    inst = tiny_bmgop(k=0, s0=frozenset({GroundAtom("a", P00)}))
    sol = solve_bmgop_exact(inst)
    assert sol.pairs == frozenset()
    assert sol.achieved_benefit == 1.0


def test_exact_solver_on_an_instance_without_atoms():
    inst = tiny_bmgop(predicates=(), actions=(explicit_action("noop", P00, []),),
                      benefit_model=BenefitModel(per_predicate={}))
    assert inst.grounding.n_atoms == 0
    sol = solve_bmgop_exact(inst)
    assert sol.pairs == frozenset()
    assert sol.achieved_benefit == 0


def test_exact_matches_ip_and_bruteforce_on_random_instances():
    for seed in range(40):
        inst = gen_random(seed=seed, width=1, height=1, predicates=3,
                          actions=2, problem="bmgop")
        exact = solve_bmgop_exact(inst)
        via_ip, status = solve_bmgop_ip(inst)
        assert status == "optimal"
        assert abs(exact.achieved_benefit - via_ip.achieved_benefit) <= 1e-9
        best, best_pairs = brute_best_bmgop(inst)
        assert exact.achieved_benefit == best
        assert exact.pairs == best_pairs
        assert validate_bmgop(inst, exact.pairs) == []


def test_exact_keeps_a_tie_that_rounding_hides_from_the_bound():
    # {x0, x1} and {x1, x2} both reach {a, c, d}, worth 0.1 + 0.3 + 0.7 = 1.1
    # summed in atom order; {x0, x1} wins the tie lexicographically. The
    # search meets x1 alone after {x2, x1}, and its bound, x1's 0.1 + 0.7
    # plus x0's 0.3, rounds to 1.0999999999999999: below the incumbent.
    inst = tiny_bmgop(
        grid=GridMap(0, 0), predicates=("a", "b", "c", "d"),
        actions=(explicit_action("x0", P00, [GroundAtom("c", P00)]),
                 explicit_action("x1", P00, [GroundAtom("a", P00), GroundAtom("d", P00)]),
                 explicit_action("x2", P00, [GroundAtom("c", P00), GroundAtom("d", P00)])),
        benefit_model=BenefitModel(per_predicate={"a": 0.1, "b": 0.2, "c": 0.3, "d": 0.7}),
        k=2)
    sol = solve_bmgop_exact(inst)
    assert sol.pairs == {ActionPointPair("x0", P00), ActionPointPair("x1", P00)}
    assert (sol.achieved_benefit, sol.pairs) == brute_best_bmgop(inst)


def test_exact_sums_costs_as_validate_does():
    # the search takes C, A, B by gain: 0.1 + 0.7 + 0.4 is exactly 1.2 in that
    # order, but 0.7 + 0.4 + 0.1 in canonical order is 1.2000000000000002
    acts = tuple(explicit_action(name, P00, [GroundAtom(name.lower(), P00)]) for name in "ABC")
    costs = {ActionPointPair("A", P00): 0.7, ActionPointPair("B", P00): 0.4,
             ActionPointPair("C", P00): 0.1}
    inst = tiny_bmgop(predicates=("a", "b", "c"), actions=acts,
                      cost_model=CostModel(default_cost=0.5, overrides=costs),
                      benefit_model=BenefitModel(per_predicate={"a": 2.0, "b": 1.0, "c": 3.0}),
                      k=3, budget=1.2)
    sol = solve_bmgop_exact(inst)
    assert sol.pairs == {ActionPointPair("A", P00), ActionPointPair("C", P00)}
    assert validate_bmgop(inst, sol.pairs) == []
    assert (sol.achieved_benefit, sol.pairs) == brute_best_bmgop(inst)


def exact_sum_corpus():
    """Small instances whose benefit sums are all exact, so the exact
    solver's bound has no slack: gen_random maps and max-k-cover encodings
    whose equal-size families tie often."""
    for seed in range(30):
        yield gen_random(seed=seed, width=0, height=0, predicates=4, actions=4, problem="bmgop")
        yield gen_random(seed=seed, width=1, height=0, predicates=3, actions=3, problem="bmgop")
        yield gen_random(seed=seed, width=1, height=1, predicates=2, actions=2, ics=2,
                         problem="bmgop")
    rng = random.Random(3)
    for _ in range(30):
        universe = tuple(range(6))
        families = tuple(frozenset(rng.sample(universe, rng.randint(1, 3))) for _ in range(6))
        yield encode_max_k_cover(CoverProblem(universe, families, rng.randint(1, 3)))


def test_exact_without_slack_matches_exhaustive_enumeration():
    for inst in exact_sum_corpus():
        assert inst.grounding.benefit_classes is not None
        value, _ = exhaustive_optimum(build_bmgop_ip(inst))
        sol = solve_bmgop_exact(inst)
        assert sol.achieved_benefit == value
        assert (sol.achieved_benefit, sol.pairs) == brute_best_bmgop(inst)


def test_search_keeps_a_running_cost_sum_when_every_partial_sum_is_exact(monkeypatch):
    calls = []
    real = Grounding.cost_sum
    monkeypatch.setattr(Grounding, "cost_sum", lambda g, indices: calls.append(1) or real(g, indices))
    acts = tuple(explicit_action(name, P00, [GroundAtom(name.lower(), P00)]) for name in "ABC")
    benefits = BenefitModel(per_predicate={"a": 2.0, "b": 1.0, "c": 3.0})
    for costs, resums in (((0.75, 0.25, 0.5), False), ((0.7, 0.4, 0.1), True)):
        overrides = dict(zip((ActionPointPair(name, P00) for name in "ABC"), costs))
        inst = tiny_bmgop(predicates=("a", "b", "c"), actions=acts, benefit_model=benefits,
                          cost_model=CostModel(default_cost=0.5, overrides=overrides), k=3,
                          budget=1.2)
        calls.clear()
        sol = solve_bmgop_exact(inst)  # the search takes C, A, B by gain
        assert (sol.achieved_benefit, sol.pairs) == brute_best_bmgop(inst)
        assert (len(calls) > 1) == resums  # one call builds the solution


def test_exact_proves_the_campaign_optimum_under_the_node_cap():
    inst = gen_campaign().bmgop
    sol = solve_bmgop_exact(inst, limits=Limits(max_nodes=5000))
    assert sol.achieved_benefit == 25
    assert validate_bmgop(inst, sol.pairs) == []


def test_ip_deeper_than_the_recursion_limit_ends_limit_reached():
    # The campaign on a 41 x 31 map, whose new points are populated: 2,334
    # variables, one per pair that adds an atom outside the initial state
    # and one per atom such a pair adds. Without its start the program is
    # searched from the root; the first leaf is node 2,335, so the cap ends
    # the search past it.
    inst = dataclasses.replace(gen_campaign().bmgop, grid=GridMap(40, 30))
    model = build_bmgop_ip(inst)
    assert len(model.variables) == 2334 > sys.getrecursionlimit()
    model.start = None
    result = solve_branch_and_bound(model, limits=Limits(max_nodes=5000))
    assert (result.status, result.nodes, result.steps) == ("limit_reached", 5000, 0)
    picked = [var.tag[1] for var in model.variables
              if var.tag[0] == "pair" and result.values[var.name]]
    assert validate_bmgop(inst, inst.grounding._selection(picked).pairs) == []


def test_ip_proves_the_campaign_optimum_at_the_root():
    # the start is BMGOP-Compute's selection, worth the optimum 25; the
    # program has no indicator of an atom no pair produces, so the root
    # fixes nothing, and the Lagrangian bound falls below 25 + 1, the
    # objective's granularity
    inst = gen_campaign().bmgop
    sol, status = solve_bmgop_ip(inst, limits=Limits(5000, 2.0))
    assert (status, sol.achieved_benefit) == ("optimal", 25)
    assert sol.pairs == bmgop_compute(inst)[0].pairs
    result = solve_branch_and_bound(build_bmgop_ip(inst), limits=Limits(5000, 2.0))
    assert (result.status, result.objective_value, result.nodes, result.fixed) == (
        "optimal", 25, 0, 0)
    assert 0 < result.steps < 50 and 25 <= result.root_bound < 26


def test_presolved_program_matches_the_full_program():
    # The builder leaves out the X of a pair that adds no atom outside s0
    # and the Y of an atom no kept pair adds. On the campaign and on every
    # golden-corpus instance whose full program exhaustive enumeration can
    # take, both programs have one optimum, the full program's
    # lexicographically smallest optimal vector is 0 on every dropped
    # variable and the presolved one's elsewhere, solve_bmgop_ip returns
    # what solving the full program returned, and brute force agrees.
    cases = [(inst, reference_bmgop_ip(inst)) for inst in [gen_campaign().bmgop, *golden_corpus()]
             if isinstance(inst, BmgopInstance)]
    cases = cases[:1] + [(inst, full) for inst, full in cases[1:] if len(full.variables) <= 16]
    assert len(cases) == 41
    for inst, full in cases:
        model = build_bmgop_ip(inst)
        limits = Limits(5000, 2.0)
        tags, status = _solve_for_tags(full, limits)
        sol, status_now = solve_bmgop_ip(inst, limits)
        assert status_now == status == "optimal"
        picked = [i for kind, i in tags if kind == "pair"]
        assert sol.pairs == inst.grounding._selection(picked).pairs
        if len(full.variables) > 16:  # the campaign: both proven at the root
            assert solve_branch_and_bound(full, limits).objective_value == 25
            assert solve_branch_and_bound(model, limits).objective_value == 25
            continue
        value, vec = exhaustive_optimum(full)
        kept = {v.tag for v in model.variables}
        assert exhaustive_optimum(model) == (
            value, tuple(x for v, x in zip(full.variables, vec) if v.tag in kept))
        assert not any(x for v, x in zip(full.variables, vec) if v.tag not in kept)
        assert sol.achieved_benefit == value == brute_best_bmgop(inst)[0]


def test_a_limit_inside_the_root_steps_keeps_the_start():
    inst = gen_campaign().bmgop
    sol, status = solve_bmgop_ip(inst, limits=Limits(max_nodes=3))
    assert (status, sol.pairs) == ("limit_reached", bmgop_compute(inst)[0].pairs)


def test_a_program_with_no_start_stopped_at_once_has_no_answer():
    # with k = 0 the program has no start, and no node may be visited, so
    # the read-back finds no assignment
    inst = dataclasses.replace(gen_campaign().bmgop, k=0)
    assert solve_bmgop_ip(inst, limits=Limits(max_nodes=0)) == (None, "limit_reached")


# the map-ladder's r17-14 instance: a program of 1,119 variables whose root
# steps take milliseconds each, and which no search ends within its limit
R17_14 = dict(seed=3726236712, width=17, height=17, predicates=3, actions=3, radius=3.0,
              ics=2, problem="bmgop")


def test_a_time_limit_holds_on_a_program_of_slow_root_steps():
    model = build_bmgop_ip(gen_random(**R17_14))
    start = time.perf_counter()
    result = solve_branch_and_bound(model, Limits(max_seconds=0.5))
    assert result.status == "limit_reached"
    assert time.perf_counter() - start < 1.5


def test_building_the_program_leaves_the_greedy_to_the_solver(monkeypatch):
    # the start is worked out only when a solver asks for it, so the LP
    # text costs no greedy run; with k = 0 the greedy cannot run, and the
    # program has no start
    import gops.bmgop
    inst = gen_campaign().bmgop
    calls = []
    monkeypatch.setattr(gops.bmgop, "bmgop_compute",
                        lambda inst: calls.append(inst) or bmgop_compute(inst))
    model = build_bmgop_ip(inst)
    emit_lp(model)
    assert calls == []
    model.start()
    assert calls == [inst]
    assert build_bmgop_ip(dataclasses.replace(inst, k=0)).start is None


def test_ip_agrees_with_exact_on_non_dyadic_costs():
    # A (cost 0.1, benefit 1) and B (cost 0.3, benefit 2) under budget 0.3:
    # B alone is the optimum, and the IP's budget row must still admit it
    # after the search has tried and undone A
    pa, pb = ActionPointPair("A", P00), ActionPointPair("B", P00)
    inst = tiny_bmgop(grid=GridMap(0, 0),
                      actions=(explicit_action("A", P00, [GroundAtom("a", P00)]),
                               explicit_action("B", P00, [GroundAtom("b", P00)])),
                      cost_model=CostModel(overrides={pa: 0.1, pb: 0.3}),
                      k=2, budget=0.3)
    via_ip, status = solve_bmgop_ip(inst)
    assert status == "optimal"
    assert (via_ip.pairs, via_ip.achieved_benefit) == ({pb}, 2.0)
    exact = solve_bmgop_exact(inst)
    assert (exact.pairs, exact.achieved_benefit) == (via_ip.pairs, via_ip.achieved_benefit)


def test_exact_solver_limit_carries_best_so_far():
    inst = gen_random(seed=3, width=1, height=1, predicates=3, actions=3, problem="bmgop")
    with pytest.raises(LimitReachedError) as err:
        solve_bmgop_exact(inst, limits=Limits(max_nodes=2))
    assert err.value.best is not None


# ---------------------------------------------------------------------------
# The multiplicative-weights greedy.

def _ic_instance():
    """k=3, budget=2, one always-active constraint; mirrors the shape of
    the campaign worked example."""
    a_atoms = [GroundAtom("a", p) for p in (P00, P10, P01, P11)]
    return tiny_bmgop(
        predicates=("a", "b"),
        actions=(explicit_action("big", P00, a_atoms[:3]),
                 explicit_action("small", P10, [a_atoms[3]]),
                 explicit_action("other", P01, [GroundAtom("b", P00)])),
        benefit_model=BenefitModel(per_predicate={"a": 1.0, "b": 1.0}),
        ics=(IntegrityConstraint(
            pairs=frozenset({ActionPointPair("big", P00), ActionPointPair("other", P01)}),
            condition=TRUE),),
        k=3, budget=2.0,
        cost_model=CostModel(default_cost=0.5))


def test_greedy_lambda_and_weight_update_formulas():
    inst = _ic_instance()
    delta = 0.001
    sol, trace = bmgop_compute(inst, delta=delta)
    m = 1
    lam = math.exp(2 - delta) * (2 + m)
    assert trace.lam == pytest.approx(lam, rel=1e-12)
    first = trace.iterations[0]
    k, c = inst.k, inst.budget
    cost_first = 0.5
    assert first.w_prime == pytest.approx((1 / k) * trace.lam ** (1 / k), rel=1e-12)
    assert first.w_dprime == pytest.approx((1 / c) * trace.lam ** (cost_first / c), rel=1e-12)
    if first.chosen in inst.ics[0].pairs:
        assert first.ic_weights[0] == pytest.approx(
            (1 / (2 - delta)) * trace.lam ** (1 / (2 - delta)), rel=1e-12)


def test_greedy_rejects_bad_parameters():
    inst = tiny_bmgop()
    for delta in (0.0, 1.0, -0.5, 2.0):
        with pytest.raises(InstanceError):
            bmgop_compute(inst, delta=delta)
    with pytest.raises(InstanceError):
        bmgop_compute(tiny_bmgop(k=0))
    with pytest.raises(InstanceError):
        bmgop_compute(tiny_bmgop(budget=0.0))
    with pytest.raises(InstanceError):
        bmgop_compute(inst, condition_mode="sideways")


def test_greedy_skips_zero_gain_pairs():
    # second action adds nothing new; greedy must not divide by zero and
    # must stop once no positive-gain candidate remains
    a00 = GroundAtom("a", P00)
    inst = tiny_bmgop(actions=(explicit_action("mk", P00, [a00]),
                               explicit_action("dup", P10, [a00])),
                      benefit_model=BenefitModel(per_predicate={"a": 1.0}),
                      k=2, budget=4.0)
    sol, trace = bmgop_compute(inst)
    assert sol.pairs == {ActionPointPair("mk", P00)}
    assert len(trace.iterations) == 1


def test_greedy_all_benefits_zero_returns_empty():
    inst = tiny_bmgop(benefit_model=BenefitModel())
    sol, trace = bmgop_compute(inst)
    assert sol.pairs == frozenset()
    assert trace.iterations == []
    assert sol.achieved_benefit == 0.0


def test_greedy_solution_always_valid_on_random_instances():
    for seed in range(60):
        inst = gen_random(seed=seed, width=1, height=1, predicates=3,
                          actions=3, problem="bmgop")
        sol, trace = bmgop_compute(inst)
        assert validate_bmgop(inst, sol.pairs) == []
        assert sol.cardinality <= inst.k
        assert sol.total_cost <= inst.budget
        assert sol.achieved_benefit == pytest.approx(objective_f(inst, sol.pairs), abs=1e-12)


def test_greedy_keep_last_fixup():
    # the constraint weight steers the greedy to the small pair first, the
    # big pair second; together they bust the budget, and the big pair
    # alone beats the prefix, so the repair keeps only the last pick
    small = explicit_action("small", P00, [GroundAtom("a", P00)])
    big = explicit_action("big", P10, [GroundAtom("b", P00)])
    inst = tiny_bmgop(
        actions=(small, big),
        benefit_model=BenefitModel(per_predicate={"a": 1.0, "b": 1.4}),
        ics=(IntegrityConstraint(pairs=frozenset({ActionPointPair("big", P10)}),
                                 condition=TRUE),),
        k=2, budget=0.75,
        cost_model=CostModel(default_cost=0.5))
    sol, trace = bmgop_compute(inst)
    assert [it.chosen.action for it in trace.iterations] == ["small", "big"]
    assert trace.fixup == "keep-last"
    assert sol.pairs == {ActionPointPair("big", P10)}
    assert validate_bmgop(inst, sol.pairs) == []


@pytest.mark.parametrize("mode", ["weighted", "plain"])
def test_greedy_repair_sums_costs_as_validate_does(mode):
    # picked C, A, B: 0.1 + 0.7 + 0.4 is exactly 1.2 in pick order, but
    # 0.7 + 0.4 + 0.1 in canonical order is 1.2000000000000002, over budget
    acts = tuple(explicit_action(name, P00, [GroundAtom(name.lower(), P00)]) for name in "ABC")
    costs = {ActionPointPair("A", P00): 0.7, ActionPointPair("B", P00): 0.4,
             ActionPointPair("C", P00): 0.1}
    inst = tiny_bmgop(predicates=("a", "b", "c"), actions=acts,
                      cost_model=CostModel(default_cost=0.5, overrides=costs),
                      benefit_model=BenefitModel(per_predicate={"a": 3.0, "b": 1.0, "c": 1.0}),
                      k=10, budget=1.2)
    sol, trace = bmgop_compute(inst, condition_mode=mode)
    assert [it.chosen.action for it in trace.iterations] == ["C", "A", "B"]
    assert trace.fixup == "drop-last"
    assert sol.pairs == {ActionPointPair("C", P00), ActionPointPair("A", P00)}
    assert sol.total_cost == pytest.approx(0.8)
    assert validate_bmgop(inst, sol.pairs) == []


def test_greedy_forced_drop_when_single_pick_breaks_budget():
    # the lone pick costs more than the whole budget: repair must fall back
    # to dropping it, returning the empty solution
    a00 = GroundAtom("a", P00)
    inst = tiny_bmgop(actions=(explicit_action("pricey", P00, [a00]),),
                      cost_model=CostModel(default_cost=1.0),
                      benefit_model=BenefitModel(per_predicate={"a": 5.0}),
                      k=2, budget=0.5)
    sol, trace = bmgop_compute(inst)
    assert sol.pairs == frozenset()
    assert "forced-drop" in trace.fixup


def replay_trace(inst, trace):
    """Recompute every recorded number from the instance and the recorded
    picks alone; all values must agree to 1e-9."""
    from gops import cost_of, satisfies
    k, c, lam, delta = inst.k, inst.budget, trace.lam, trace.delta
    s0 = frozenset(inst.s0)
    w1, w2 = 1.0 / k, 1.0 / c
    active = [ic for ic in inst.ics if satisfies(s0, ic.condition)]
    wi = [1.0 / (2.0 - delta)] * len(active)
    chosen = []
    for it in trace.iterations:
        before = objective_f(inst, frozenset(chosen))
        gain = objective_f(inst, frozenset(chosen) | {it.chosen}) - before
        assert abs(gain - it.gain) <= 1e-9
        cost = cost_of(it.chosen, s0, inst.cost_model)
        numerator = w1 + w2 * cost + sum(w for w, ic in zip(wi, active)
                                         if it.chosen in ic.pairs)
        assert abs(numerator / gain - it.ratio) <= 1e-9
        chosen.append(it.chosen)
        w1 *= lam ** (1.0 / k)
        w2 *= lam ** (cost / c)
        for j, ic in enumerate(active):
            if it.chosen in ic.pairs:
                wi[j] *= lam ** (1.0 / (2.0 - delta))
        assert abs(it.w_prime - w1) <= 1e-9
        assert abs(it.w_dprime - w2) <= 1e-9
        assert all(abs(a - b) <= 1e-9 for a, b in zip(it.ic_weights, wi))
        if trace.mode == "weighted":
            cond = k * w1 + c * w2 + (2.0 - delta) * sum(wi)
        else:
            cond = w1 + w2 + sum(wi)
        assert abs(cond - it.condition_value) <= 1e-9


def test_trace_replay_is_deterministic():
    inst = _ic_instance()
    sol1, t1 = bmgop_compute(inst)
    sol2, t2 = bmgop_compute(inst)
    assert sol1 == sol2
    assert t1.to_text() == t2.to_text()
    replay_trace(inst, t1)


def test_trace_replay_on_random_instances():
    for seed in range(20):
        for mode in ("weighted", "plain"):
            inst = gen_random(seed=seed, width=1, height=1, predicates=3,
                              actions=3, problem="bmgop")
            _, trace = bmgop_compute(inst, condition_mode=mode)
            assert len(trace.iterations) <= len(inst.grounding.pairs)
            replay_trace(inst, trace)


def test_approx_bound_values_and_shape():
    no_ic = tiny_bmgop()
    one_ic = _ic_instance()
    assert approx_bound(no_ic, 0.001) == pytest.approx(1 / 2 ** (1 / 1.999), rel=1e-9)
    assert approx_bound(no_ic, 0.001) == pytest.approx(0.7072, abs=5e-4)
    assert approx_bound(one_ic, 0.001) == pytest.approx(1 / 3 ** (1 / 1.999), rel=1e-9)
    assert approx_bound(one_ic, 0.001) == pytest.approx(0.5776, abs=5e-4)
    # declining in the number of active constraints
    values = []
    for extra in range(4):
        pairs = frozenset({ActionPointPair("mk_a", P00)})
        ics = tuple(IntegrityConstraint(pairs=pairs, condition=TRUE) for _ in range(extra))
        values.append(approx_bound(tiny_bmgop(ics=ics), 0.001))
    assert values == sorted(values, reverse=True)
    assert all(values[i] > values[i + 1] for i in range(len(values) - 1))


def test_bound_applicability():
    assert bound_applicable(tiny_bmgop(k=2, budget=2.0), 0.001)
    assert not bound_applicable(tiny_bmgop(k=1, budget=2.0), 0.001)
    assert not bound_applicable(tiny_bmgop(k=2, budget=1.0), 0.001)
    sol, _ = bmgop_compute(tiny_bmgop(k=1, budget=2.0))
    assert sol.reported_bound is None
    sol, _ = bmgop_compute(tiny_bmgop(k=2, budget=2.0))
    assert sol.reported_bound is not None


def test_greedy_meets_bound_on_cover_encodings():
    rng = random.Random(41)
    for _ in range(25):
        n = rng.randint(2, 8)
        m = rng.randint(2, 6)
        universe = tuple(range(n))
        families = tuple(frozenset(rng.sample(universe, rng.randint(1, n)))
                         for _ in range(m))
        k = rng.randint(2, min(4, m))
        inst = encode_max_k_cover(CoverProblem(universe=universe, families=families, k=k))
        exact = solve_bmgop_exact(inst)
        greedy, _ = bmgop_compute(inst, delta=0.001)
        assert exact.achieved_benefit > 0
        ratio = greedy.achieved_benefit / exact.achieved_benefit
        assert ratio >= approx_bound(inst, 0.001) - 1e-9
