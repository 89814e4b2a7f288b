import random

import pytest

from gops import (ActionPointPair, CostModel, GridMap, GroundAtom,
                  IntegrityConstraint, Limits, Point, TRUE, build_gbgop_ip,
                  count_gbgop_solutions, emit_lp, gen_campaign, gen_random,
                  probe_feasibility, reduce_to_r_star, restricted_pairs,
                  solve_branch_and_bound, solve_gbgop_exact, solve_gbgop_ip,
                  validate_gbgop)
from gops.encodings import CoverProblem, MonotoneCnf, encode_monsat, encode_set_cover
from gops.errors import InstanceError, LimitReachedError, UncoverableAtomsError

from helpers import (brute_min_gbgop, explicit_action, gbgop_conditions_hold,
                     min_set_cover, monsat_count, tiny_gbgop)

P00, P10, P01, P11 = Point(0, 0), Point(1, 0), Point(0, 1), Point(1, 1)


def test_validate_empty_solution_with_pre_satisfied_goals():
    inst = tiny_gbgop(s0=frozenset({GroundAtom("a", P00)}),
                      theta_in=frozenset({GroundAtom("a", P00)}))
    assert validate_gbgop(inst, set()) == []


def test_validate_flags_each_condition():
    a00 = GroundAtom("a", P00)
    b10 = GroundAtom("b", P10)
    inst = tiny_gbgop(theta_in=frozenset({a00}), theta_out=frozenset({b10}),
                      budget=0.25,
                      ics=(IntegrityConstraint(
                          pairs=frozenset({ActionPointPair("mk_a", P00),
                                           ActionPointPair("mk_b", P10)}),
                          condition=TRUE),))
    sol = {ActionPointPair("mk_a", P00), ActionPointPair("mk_b", P10)}
    codes = {v.code for v in validate_gbgop(inst, sol)}
    assert codes == {"cost-exceeded", "ic-violated", "goal-forbidden"}
    # dropping everything leaves only the missing goal
    codes = {v.code for v in validate_gbgop(inst, set())}
    assert codes == {"goal-missing"}


def test_validate_inherently_infeasible():
    a00 = GroundAtom("a", P00)
    inst = tiny_gbgop(s0=frozenset({a00}), theta_out=frozenset({a00}))
    codes = [v.code for v in validate_gbgop(inst, set())]
    assert "initial-forbidden" in codes


def test_initially_forbidden_atoms_make_every_method_infeasible():
    # mk_b covers the goal, but a(0,0) is forbidden and already holds
    a00 = GroundAtom("a", P00)
    inst = tiny_gbgop(s0=frozenset({a00}), theta_out=frozenset({a00}),
                      theta_in=frozenset({GroundAtom("b", P10)}))
    for use_reduction in (False, True):
        with pytest.raises(InstanceError) as err:
            build_gbgop_ip(inst, use_reduction=use_reduction)
        assert err.value.code == "initial-forbidden"
        assert err.value.message.endswith(": a(0,0)")
    assert solve_gbgop_ip(inst) == (None, "infeasible")
    assert count_gbgop_solutions(inst) == 0


def test_exact_solver_returns_early_on_initially_forbidden_atoms():
    # the answer comes before any search: not even a zero-node limit is met
    a00 = GroundAtom("a", P00)
    inst = tiny_gbgop(s0=frozenset({a00}), theta_out=frozenset({a00}),
                      theta_in=frozenset({GroundAtom("b", P10)}))
    assert solve_gbgop_exact(inst, limits=Limits(max_nodes=0)) is None
    feasible = tiny_gbgop(theta_in=frozenset({GroundAtom("b", P10)}))
    with pytest.raises(LimitReachedError):
        solve_gbgop_exact(feasible, limits=Limits(max_nodes=0))


def test_validate_agrees_with_condition_oracle():
    rng = random.Random(11)
    for seed in range(40):
        inst = gen_random(seed=seed, width=1, height=1, predicates=3, actions=2)
        all_pairs = [ActionPointPair(r.name, p)
                     for r in inst.actions for p in inst.grid.points()]
        sol = set(rng.sample(all_pairs, rng.randint(0, 4)))
        assert (validate_gbgop(inst, sol) == []) == gbgop_conditions_hold(inst, sol)


def test_restricted_pairs_filters():
    a00 = GroundAtom("a", P00)
    inst = tiny_gbgop(theta_out=frozenset({a00}))
    r = restricted_pairs(inst)
    # mk_a produces the forbidden atom, mk_b never does; zero-effect
    # placements of both actions stay admissible
    assert ActionPointPair("mk_a", P00) not in r
    assert ActionPointPair("mk_b", P10) in r
    assert len(r) == 7

    everything = tiny_gbgop()
    assert len(restricted_pairs(everything)) == 8


def test_restricted_pairs_everything_forbidden():
    # forbidding all of B_L leaves only zero-effect placements admissible
    from gops import action_effects, enumerate_ground_atoms
    inst = tiny_gbgop()
    every_atom = frozenset(enumerate_ground_atoms(inst.grid, inst.predicates))
    blocked = tiny_gbgop(theta_out=every_atom)
    lookup = {r.name: r for r in blocked.actions}
    for pair in restricted_pairs(blocked):
        assert action_effects(lookup[pair.action], pair.point, blocked.s0,
                              blocked.grid) == frozenset()
    assert len(restricted_pairs(blocked)) == 6  # 8 pairs minus the 2 producers


def test_restricted_pairs_matches_intersection_oracle():
    from gops import action_effects
    for seed in range(30):
        inst = gen_random(seed=seed, width=1, height=1, predicates=3, actions=3)
        lookup = {r.name: r for r in inst.actions}
        s0 = frozenset(inst.s0)
        expected = [
            pair for pair in
            (ActionPointPair(r.name, p) for r in inst.actions for p in inst.grid.points())
            if not action_effects(lookup[pair.action], pair.point, s0, inst.grid)
            & inst.theta_out]
        assert restricted_pairs(inst) == expected


def test_reduction_keeps_canonical_first_of_equivalent_pairs():
    a00 = GroundAtom("a", P00)
    # two actions with identical effects, costs and constraints everywhere
    inst = tiny_gbgop(actions=(explicit_action("m1", P00, [a00]),
                               explicit_action("m2", P00, [a00])),
                      theta_in=frozenset({a00}))
    r_star, stats = reduce_to_r_star(inst)
    assert stats.r_size == 8
    assert r_star == [ActionPointPair("m1", P00)]


def test_reduction_never_empties_r_and_is_subset():
    for seed in range(40):
        inst = gen_random(seed=seed, width=1, height=1, predicates=3, actions=3)
        r = restricted_pairs(inst)
        r_star, stats = reduce_to_r_star(inst)
        assert set(r_star) <= set(r)
        assert stats.r_star_size == len(r_star)
        assert stats.r_size == len(r)
        if r:
            assert r_star


def test_reduction_preserves_optimum():
    # exhaustive minimum over R equals exhaustive minimum over R*
    for seed in range(60):
        inst = gen_random(seed=seed, width=1, height=1, predicates=3, actions=3)
        r = restricted_pairs(inst)
        r_star, _ = reduce_to_r_star(inst)
        best_r = brute_min_gbgop(inst, r)
        best_r_star = brute_min_gbgop(inst, r_star)
        exact = solve_gbgop_exact(inst)
        if best_r is None:
            assert best_r_star is None
            assert exact is None
        else:
            assert best_r_star is not None
            assert len(best_r_star) == len(best_r)
            assert exact.pairs == best_r_star


def test_build_ip_pre_satisfied_goals():
    a00 = GroundAtom("a", P00)
    inst = tiny_gbgop(s0=frozenset({a00}), theta_in=frozenset({a00}))
    model = build_gbgop_ip(inst)
    assert not any(c.label.startswith("cover") for c in model.constraints)
    result = solve_branch_and_bound(model)
    assert result.objective_value == 0.0


def test_build_ip_flags_uncoverable_atoms():
    lonely = GroundAtom("b", P11)
    inst = tiny_gbgop(theta_in=frozenset({lonely}))
    with pytest.raises(UncoverableAtomsError) as err:
        build_gbgop_ip(inst)
    assert lonely in err.value.atoms
    assert solve_gbgop_exact(inst) is None
    sol, status = solve_gbgop_ip(inst)
    assert sol is None and status == "infeasible"


SET_COVER_CASES = [
    ((1,), ((1,),), 1),
    ((1, 2, 3), ((1, 2), (2, 3), (3,)), 2),
    ((1, 2, 3, 4), ((1, 2), (2, 3), (3, 4)), 2),
    ((1, 2, 3, 4), ((1, 2), (3,), (4,), (1, 2, 3, 4)), None),  # oracle decides
]


@pytest.mark.parametrize("universe,families,expected", SET_COVER_CASES)
def test_set_cover_ip_matches_bruteforce(universe, families, expected):
    problem = CoverProblem(universe=universe, families=tuple(frozenset(f) for f in families))
    inst = encode_set_cover(problem)
    oracle = min_set_cover(universe, [set(f) for f in families])
    if expected is not None:
        assert oracle == expected
    model = build_gbgop_ip(inst)
    result = solve_branch_and_bound(model)
    assert result.objective_value == oracle
    exact = solve_gbgop_exact(inst)
    assert exact.cardinality == oracle


def test_reduction_on_off_same_ip_objective():
    for seed in range(50):
        inst = gen_random(seed=seed, width=1, height=1, predicates=3, actions=3)
        try:
            full = build_gbgop_ip(inst, use_reduction=False)
            reduced = build_gbgop_ip(inst, use_reduction=True)
        except UncoverableAtomsError:
            continue
        a = solve_branch_and_bound(full)
        b = solve_branch_and_bound(reduced)
        assert a.status == b.status
        if a.status == "optimal":
            assert a.objective_value == b.objective_value


def test_exact_solver_pre_satisfied():
    inst = tiny_gbgop()
    sol = solve_gbgop_exact(inst)
    assert sol is not None and sol.pairs == frozenset() and sol.cardinality == 0


def test_exact_solver_matches_ip_on_random_instances():
    for seed in range(60):
        inst = gen_random(seed=seed, width=1, height=1, predicates=3, actions=3)
        exact = solve_gbgop_exact(inst)
        via_ip, status = solve_gbgop_ip(inst)
        if exact is None:
            assert via_ip is None
        else:
            assert status == "optimal"
            assert via_ip.cardinality == exact.cardinality
            assert exact.pairs == brute_min_gbgop(inst, reduce_to_r_star(inst)[0])
            assert validate_gbgop(inst, exact.pairs) == []
            assert validate_gbgop(inst, via_ip.pairs) == []
            # stored fields reproduce from the pairs
            g = inst.grounding
            assert exact.total_cost == sum(
                g.costs[g.pairs_to_indices([p])[0]] for p in sorted(exact.pairs))


def test_monsat_minimal_solution():
    cnf = MonotoneCnf(atoms=("x1", "x2", "x3"),
                      clauses=(frozenset({"x1", "x2"}), frozenset({"x2", "x3"})))
    inst = encode_monsat(cnf)
    sol = solve_gbgop_exact(inst)
    assert sol.cardinality == 1
    assert sol.pairs == {ActionPointPair("lit_x2", P00)}


def test_exact_solver_limit():
    inst = gen_random(seed=5, width=1, height=1, predicates=3, actions=3)
    with pytest.raises(LimitReachedError):
        solve_gbgop_exact(inst, limits=Limits(max_nodes=1))


def test_probe_feasibility():
    a00 = GroundAtom("a", P00)
    inst = tiny_gbgop(theta_in=frozenset({a00}))
    probe = probe_feasibility(inst)
    assert probe is not None
    assert validate_gbgop(inst, probe.pairs) == []
    # a tight budget defeats the all-pairs probe even though the instance
    # stays feasible, so the probe proves nothing there
    tight = tiny_gbgop(theta_in=frozenset({a00}), budget=0.5)
    assert probe_feasibility(tight) is None
    assert solve_gbgop_exact(tight) is not None


def test_count_all_subsets_valid():
    # two zero-cost harmless pairs, goals pre-satisfied: every subset works
    a00 = GroundAtom("a", P00)
    inst = tiny_gbgop(grid=GridMap(0, 0),
                      actions=(explicit_action("x", P00, []),
                               explicit_action("y", P00, [])),
                      cost_model=CostModel(default_cost=0.0),
                      s0=frozenset({a00}), theta_in=frozenset({a00}))
    assert count_gbgop_solutions(inst) == 4


def test_count_inherently_infeasible_is_zero():
    a00 = GroundAtom("a", P00)
    inst = tiny_gbgop(s0=frozenset({a00}), theta_out=frozenset({a00}))
    assert count_gbgop_solutions(inst) == 0


def test_count_matches_truth_table_on_monsat():
    rng = random.Random(17)
    for _ in range(15):
        n = rng.randint(1, 6)
        atoms = tuple(f"x{i}" for i in range(n))
        clauses = tuple(frozenset(rng.sample(atoms, rng.randint(1, min(3, n))))
                        for _ in range(rng.randint(1, 4)))
        cnf = MonotoneCnf(atoms=atoms, clauses=clauses)
        inst = encode_monsat(cnf)
        assert count_gbgop_solutions(inst) == monsat_count(atoms, clauses)


def test_count_guard_and_cap():
    inst = gen_random(seed=1, width=3, height=2, predicates=2, actions=2)  # 24 pairs
    with pytest.raises(InstanceError) as err:
        count_gbgop_solutions(inst)
    assert err.value.code == "count-guard"

    small = tiny_gbgop(cost_model=CostModel(default_cost=0.0))
    with pytest.raises(LimitReachedError):
        count_gbgop_solutions(small, cap=3)  # all 256 subsets are valid
    with pytest.raises(InstanceError) as err:
        count_gbgop_solutions(small, cap=-1)
    assert err.value.code == "limit-range"


def test_count_guard_refuses_before_grounding():
    inst = tiny_gbgop(grid=GridMap(4, 2))  # 15 points, 30 pairs
    with pytest.raises(InstanceError) as err:
        count_gbgop_solutions(inst)
    assert err.value.code == "count-guard"
    assert "grounding" not in inst.__dict__


def test_gbgop_ip_emits_lp():
    inst = tiny_gbgop(theta_in=frozenset({GroundAtom("a", P00)}))
    text = emit_lp(build_gbgop_ip(inst))
    assert "Minimize" in text and "budget:" in text and text.endswith("End\n")


def test_exact_solver_limit_carries_a_valid_cover_so_far():
    # the campaign search finds its first cover at node 7 and proves the
    # optimum (3 pairs) at node 66; at 30 nodes it holds a larger cover
    inst = gen_campaign().gbgop
    with pytest.raises(LimitReachedError) as err:
        solve_gbgop_exact(inst, limits=Limits(max_nodes=30))
    best = err.value.best
    assert best is not None and best.cardinality > 3
    assert validate_gbgop(inst, best.pairs) == []
    with pytest.raises(LimitReachedError) as err:
        solve_gbgop_exact(inst, limits=Limits(max_nodes=1))
    assert err.value.best is None  # no cover yet
