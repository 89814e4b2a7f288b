import dataclasses
import hashlib
import itertools
import random
import time

import pytest

from gops import (CoverProblem, IpModel, Limits, build_bmgop_ip, build_gbgop_ip, emit_lp,
                  encode_max_k_cover, encode_set_cover, gen_campaign, gen_random,
                  solve_bmgop_exact, solve_branch_and_bound, solve_gbgop_exact)
from gops.core import format_number
from gops.errors import InstanceError, LimitReachedError, UncoverableAtomsError

from helpers import (exhaustive_optimum, objective_granularity, planted_cover,
                     reference_branch_and_bound, reference_emit_lp, reference_root_fixed)


def assert_matches_exhaustive(model):
    got = solve_branch_and_bound(model)
    expected = exhaustive_optimum(model)
    if expected is None:
        assert got.status == "infeasible"
    else:
        value, bits = expected
        assert got.status == "optimal"
        assert got.objective_value == value
        assert got.values == {v.name: b for v, b in zip(model.variables, bits)}


def random_model(rng, n_vars=None):
    n = n_vars if n_vars is not None else rng.randint(1, 10)
    model = IpModel(sense=rng.choice(("min", "max")))
    for i in range(n):
        v = model.add_variable(f"x{i}")
        if rng.random() < 0.8:
            model.objective[v] = rng.randint(-5, 5)
    model.constant = rng.randint(-3, 3)
    for j in range(rng.randint(0, 5)):
        coeffs = {i: rng.randint(-4, 4) for i in rng.sample(range(n), rng.randint(1, n))}
        coeffs = {i: c for i, c in coeffs.items() if c}
        if not coeffs:
            continue
        model.add_constraint(coeffs, rng.choice(("<=", ">=")), rng.randint(-4, 6), f"c{j}")
    return model


def test_unconstrained_max_all_ones():
    model = IpModel(sense="max")
    for i in range(3):
        v = model.add_variable(f"x{i}")
        model.objective[v] = 1.0
    result = solve_branch_and_bound(model)
    assert result.status == "optimal"
    assert result.objective_value == 3.0
    assert result.values == {"x0": 1, "x1": 1, "x2": 1}


def test_contradictory_bounds_infeasible():
    model = IpModel(sense="min")
    v = model.add_variable("x1")
    model.add_constraint({v: 1.0}, ">=", 1.0, "ge")
    model.add_constraint({v: 1.0}, "<=", 0.0, "le")
    assert solve_branch_and_bound(model).status == "infeasible"


def test_empty_model():
    model = IpModel(sense="max", constant=7.0)
    result = solve_branch_and_bound(model)
    assert result.status == "optimal"
    assert result.objective_value == 7.0
    assert result.values == {}


def test_matches_exhaustive_enumeration():
    rng = random.Random(2024)
    for _ in range(120):
        assert_matches_exhaustive(random_model(rng, n_vars=rng.randint(1, 11)))


def test_budget_row_sums_do_not_drift():
    # max 2x0 + 4x1 s.t. 0.1x0 + 0.3x1 <= 0.3: taking x1 alone gives 4. A
    # row sum that undoes each fix by subtracting reads 0.1 + 0.3 - 0.3 - 0.1,
    # a little above 0, once it is back at the root, and then x1 alone no
    # longer fits.
    model = IpModel(sense="max")
    x0 = model.add_variable("x0")
    x1 = model.add_variable("x1")
    model.objective.update({x0: 2, x1: 4})
    model.add_constraint({x0: 0.1, x1: 0.3}, "<=", 0.3, "budget")
    result = solve_branch_and_bound(model)
    assert (result.status, result.objective_value) == ("optimal", 4)
    assert result.values == {"x0": 0, "x1": 1}


NON_DYADIC_COSTS = (0.1, 0.2, 0.3, 0.4, 0.6, 0.7, 0.9)


def test_non_dyadic_budget_rows_match_exhaustive_enumeration():
    # each budget bound is the sum of a random subset of its costs, taken
    # in variable order, so some optimum sits exactly on it
    rng = random.Random(17)
    for t in range(2000):
        n = rng.randint(1, 8)
        model = IpModel(sense=("min", "max")[t % 2])
        for i in range(n):
            model.objective[model.add_variable(f"x{i}")] = rng.randint(-5, 5)
        costs = {i: rng.choice(NON_DYADIC_COSTS) for i in range(n)}
        chosen = sorted(rng.sample(range(n), rng.randint(0, n)))
        model.add_constraint(costs, "<=", sum(costs[i] for i in chosen), "budget")
        for j in range(rng.randint(0, 2) if n > 1 else 0):
            a, b = rng.sample(range(n), 2)
            model.add_constraint({a: 1.0, b: -1.0}, ">=", 0.0, f"cover{j}")
        assert_matches_exhaustive(model)


def test_ties_break_to_lexicographically_smallest():
    # max x0 + x1 subject to x0 + x1 <= 1: optima are 01 and 10; lex-min is 01
    model = IpModel(sense="max")
    a = model.add_variable("x0")
    b = model.add_variable("x1")
    model.objective[a] = 1.0
    model.objective[b] = 1.0
    model.add_constraint({a: 1.0, b: 1.0}, "<=", 1.0, "pack")
    result = solve_branch_and_bound(model)
    assert result.values == {"x0": 0, "x1": 1}

    # flat objective: lex-min feasible assignment is all zeros
    flat = IpModel(sense="max")
    for i in range(4):
        flat.add_variable(f"x{i}")
    result = solve_branch_and_bound(flat)
    assert result.values == {f"x{i}": 0 for i in range(4)}


def test_node_limit_reached():
    model = IpModel(sense="max")
    for i in range(12):
        v = model.add_variable(f"x{i}")
        model.objective[v] = 1.0
    result = solve_branch_and_bound(model, limits=Limits(max_nodes=5))
    assert result.status == "limit_reached"


def _late_infeasible_bnb(limits):
    # at most 7 and at least 8 of 15 variables set: a path breaks a row only
    # once it has fixed 8 ones or 8 zeros, so the search visits every path
    # with at most 7 of each, C(16, 8) - 1 = 12869 nodes, to find no leaf
    model = IpModel(sense="max")
    for i in range(15):
        model.add_variable(f"x{i}")
    model.add_rows(["most"], "<=", 7.0, [list(range(15))])
    model.add_rows(["least"], ">=", 8.0, [list(range(15))])
    result = solve_branch_and_bound(model, limits=limits)
    assert result.status == "limit_reached"
    assert result.objective_value is None


def _ring_cover_gbgop_exact(limits):
    # 20 families {e, e+1 mod 20} need 10 to cover, one more than the budget
    # allows; the search visits 4842 subsets to prove that
    inst = encode_set_cover(CoverProblem(universe=tuple(range(20)),
                                         families=tuple(frozenset({e, (e + 1) % 20})
                                                        for e in range(20))))
    inst = dataclasses.replace(inst, budget=9.0)
    with pytest.raises(LimitReachedError, match="time budget exhausted"):
        solve_gbgop_exact(inst, limits=limits)


def _singleton_max_cover_bmgop_exact(limits):
    # 6195 subsets of at most 4 of 20 singletons, of which the search visits 6175
    inst = encode_max_k_cover(CoverProblem(universe=tuple(range(20)),
                                           families=tuple(frozenset({e}) for e in range(20)),
                                           k=4))
    with pytest.raises(LimitReachedError, match="time budget exhausted") as err:
        solve_bmgop_exact(inst, limits=limits)
    assert err.value.best is not None


@pytest.mark.parametrize("run", [_late_infeasible_bnb, _ring_cover_gbgop_exact,
                                 _singleton_max_cover_bmgop_exact],
                         ids=["branch-and-bound", "gbgop-exact", "bmgop-exact"])
def test_a_time_limit_of_zero_ends_search_at_once(run):
    # the clock is read at the first node, so a limit of 0 ends each search
    # there; each would need thousands of nodes to end by itself
    run(Limits(max_seconds=0.0))


def test_a_time_limit_stops_a_search_of_many_quick_nodes_near_it():
    # at most 12 and at least 13 of 25 variables set, and no start: no root
    # step, and C(26, 13) - 1, about 10 million, quick search nodes to find
    # no leaf; the clock is read at the first node and then every 2 ** j-th
    model = IpModel(sense="max")
    for i in range(25):
        model.add_variable(f"x{i}")
    model.add_rows(["most"], "<=", 12.0, [list(range(25))])
    model.add_rows(["least"], ">=", 13.0, [list(range(25))])
    start = time.perf_counter()
    result = solve_branch_and_bound(model, Limits(max_seconds=0.2))
    elapsed = time.perf_counter() - start
    assert result.status == "limit_reached" and result.steps == 0
    assert result.nodes > 1000
    assert 0.2 <= elapsed < 0.5


def test_limits_refuse_negative_and_nan_values():
    for bad in ({"max_nodes": -1}, {"max_nodes": float("nan")}, {"max_seconds": -0.5},
                {"max_seconds": float("nan")}):
        with pytest.raises(InstanceError) as err:
            Limits(**bad)
        assert err.value.code == "limit-range"
    Limits(max_nodes=0, max_seconds=0.0)
    Limits(max_seconds=float("inf"))


def test_validate_rejects_bad_models():
    model = IpModel(sense="max")
    model.add_variable("x")
    model.add_variable("x")
    with pytest.raises(InstanceError):
        model.validate()
    model2 = IpModel(sense="sideways")
    with pytest.raises(InstanceError):
        model2.validate()
    model3 = IpModel(sense="min")
    model3.add_variable("x")
    model3.add_constraint({3: 1.0}, "<=", 1.0, "c")
    with pytest.raises(InstanceError):
        model3.validate()


NAN, INF = float("nan"), float("inf")


def _faulty_model(sense="max", names=("x", "y"), objective=(), rows=()):
    model = IpModel(sense=sense)
    for name in names:
        model.add_variable(name)
    model.objective.update(objective)
    for coeffs, row_sense, label in rows:
        model.add_constraint(coeffs, row_sense, 1.0, label)
    return model


# (model, InstanceError code and message), as the item-by-item validate
# reported them before its whole-array checks were put in front of it
VALIDATE_FAULTS = {
    "objective-sense": (_faulty_model(sense="sideways", names=("x", "x")),
                        "ip-sense", "unknown objective sense 'sideways'"),
    "duplicate-name": (_faulty_model(names=("x", "y", "x", "y")),
                       "ip-duplicate-variable", "duplicate variable 'x'"),
    "objective-index-negative": (_faulty_model(objective={0: 1.0, -1: 2.0}),
                                 "ip-bad-variable", "objective references variable -1"),
    "objective-index-n": (_faulty_model(objective={2: 1.0, 0: 1.0}),
                          "ip-bad-variable", "objective references variable 2"),
    # min and max both skip a NaN between in-range keys
    "objective-index-nan": (_faulty_model(objective={0: 1.0, NAN: 1.0, 1: 1.0}),
                            "ip-bad-variable", "objective references variable nan"),
    "row-sense": (_faulty_model(rows=[({0: 1.0}, "<=", "a"), ({1: 1.0}, "==", "b")]),
                  "ip-bad-sense", "constraint 'b': sense '=='"),
    "row-index-negative": (_faulty_model(rows=[({0: 1.0}, "<=", "a"),
                                               ([(-1, 1.0), (0, 1.0)], ">=", "b")]),
                           "ip-bad-variable", "constraint 'b' references variable -1"),
    "row-index-n": (_faulty_model(rows=[([(0, 1.0), (2, 1.0)], "<=", "a")]),
                    "ip-bad-variable", "constraint 'a' references variable 2"),
    "row-index-inf": (_faulty_model(rows=[([(0, 1.0), (INF, 1.0)], "<=", "a")]),
                      "ip-bad-variable", "constraint 'a' references variable inf"),
    "row-index-nan": (_faulty_model(rows=[([(0, 1.0), (NAN, 1.0), (1, 1.0)], "<=", "a")]),
                      "ip-bad-variable", "constraint 'a' references variable nan"),
    # two or more faults: the first in the loop's order is named
    "duplicate-before-objective": (_faulty_model(names=("x", "x"), objective={5: 1.0}),
                                   "ip-duplicate-variable", "duplicate variable 'x'"),
    "objective-before-row": (_faulty_model(objective={-1: 1.0}, rows=[({0: 1.0}, "=", "a")]),
                             "ip-bad-variable", "objective references variable -1"),
    "row-index-before-later-sense": (_faulty_model(rows=[({2: 1.0}, "<=", "a"),
                                                         ({0: 1.0}, "=<", "b")]),
                                     "ip-bad-variable", "constraint 'a' references variable 2"),
    "row-sense-before-later-index": (_faulty_model(rows=[({0: 1.0}, "=<", "a"),
                                                         ({2: 1.0}, "<=", "b")]),
                                     "ip-bad-sense", "constraint 'a': sense '=<'"),
    "row-sense-before-own-index": (_faulty_model(rows=[({7: 1.0}, "", "a")]),
                                   "ip-bad-sense", "constraint 'a': sense ''"),
    "first-bad-term-of-a-row": (_faulty_model(rows=[([(0, 1.0), (3, 1.0), (-2, 1.0)], ">=", "a")]),
                                "ip-bad-variable", "constraint 'a' references variable 3"),
}


@pytest.mark.parametrize("case", sorted(VALIDATE_FAULTS))
def test_validate_names_the_first_fault(case):
    model, code, message = VALIDATE_FAULTS[case]
    for check in (model.validate, lambda: emit_lp(model), lambda: solve_branch_and_bound(model)):
        with pytest.raises(InstanceError) as err:
            check()
        assert (err.value.code, err.value.message) == (code, message)


EMPTY_LP = """\\ binary integer program
Minimize
 obj: 0
Subject To
Binary
End
"""


def test_emit_lp_empty_golden():
    assert emit_lp(IpModel(sense="min")) == EMPTY_LP


SMALL_LP = """\\ binary integer program
Maximize
 obj: 2 X_a_0_0 + Y_g_1_0 + 0.5
Subject To
 cover_g_1_0: X_a_0_0 - Y_g_1_0 >= 0
 card: X_a_0_0 + X_a_1_0 <= 1
 budget: 0.25 X_a_0_0 + 0.75 X_a_1_0 <= 1.5
Binary
 X_a_0_0
 X_a_1_0
 Y_g_1_0
End
"""


def test_emit_lp_small_golden_and_deterministic():
    model = IpModel(sense="max", constant=0.5)
    x0 = model.add_variable("X_a_0_0")
    x1 = model.add_variable("X_a_1_0")
    y = model.add_variable("Y_g_1_0")
    model.objective[x0] = 2.0
    model.objective[y] = 1.0
    model.add_constraint({x0: 1.0, y: -1.0}, ">=", 0.0, "cover_g_1_0")
    model.add_constraint({x0: 1.0, x1: 1.0}, "<=", 1.0, "card")
    model.add_constraint({x0: 0.25, x1: 0.75}, "<=", 1.5, "budget")
    text = emit_lp(model)
    assert text == SMALL_LP
    assert emit_lp(model) == text


TWO_POINT_LP = """\\ binary integer program
Maximize
 obj: Y_g_0_0
Subject To
 cover_g_0_0: X_mk_0_0 - Y_g_0_0 >= 0
 card: X_mk_0_0 <= 1
 budget: 0.5 X_mk_0_0 <= 1
Binary
 X_mk_0_0
 Y_g_0_0
End
"""


def test_emit_lp_two_point_one_action_golden():
    # hand-checked: linking row (selection sum >= indicator), cardinality
    # and budget packing rows; mk at (1,0) adds no atom and g(1,0) has no
    # producer, so neither gets a variable or a row
    from gops import (ActionRule, BenefitModel, BmgopInstance, CostModel,
                      GridMap, GroundAtom, Point, build_bmgop_ip)
    inst = BmgopInstance(
        grid=GridMap(1, 0), predicates=("g",), s0=frozenset(),
        actions=(ActionRule(name="mk", explicit_effects={
            Point(0, 0): frozenset({GroundAtom("g", Point(0, 0))})}),),
        cost_model=CostModel(default_cost=0.5),
        benefit_model=BenefitModel(per_predicate={"g": 1.0}),
        ics=(), k=1, budget=1.0)
    assert emit_lp(build_bmgop_ip(inst)) == TWO_POINT_LP


def test_matches_exhaustive_on_larger_models():
    # spot checks at the 15-variable edge of the exhaustive-comparison claim
    rng = random.Random(31)
    for _ in range(2):
        assert_matches_exhaustive(random_model(rng, n_vars=15))


def test_emit_lp_sanitizes_names():
    model = IpModel(sense="min")
    v = model.add_variable("X a@(0,0)")
    model.objective[v] = 1.0
    text = emit_lp(model)
    assert "X_a__0_0_" in text
    assert "@" not in text.replace("\\", "")


def _lp_names(text):
    """(row labels, Binary section names) of an LP text."""
    rows = text.split("Subject To\n")[1].split("Binary\n")[0].splitlines()
    binary = text.split("Binary\n")[1].split("End\n")[0].splitlines()
    return [row.split(":")[0].strip() for row in rows], [name.strip() for name in binary]


COLLIDING_BMGOP = {
    # "a-b" sanitizes to "a_b", and X_a_b_0_0's first suffix is taken by a_b_0's pair at (0,1);
    # every pair adds an atom, so every pair has a variable
    "format": "gop-instance", "version": 1,
    "map": {"M": 0, "N": 1}, "predicates": ["q"], "state": [],
    "actions": [{"name": name, "explicit": [[[0, 0], [["q", [0, 0]]]], [[0, 1], [["q", [0, 1]]]]]}
                for name in ("a_b_0", "a-b", "a_b")],
    "cost": {"default": 0.5, "rules": [], "overrides": []},
    "benefit": {"per_predicate": {"q": 1}},
    "ics": [],
    "problem": {"type": "bmgop", "k": 1, "budget": 1},
}


def test_emit_lp_never_gives_two_variables_one_name():
    import json

    from gops import build_bmgop_ip, parse_instance
    model = build_bmgop_ip(parse_instance(json.dumps(COLLIDING_BMGOP)))
    labels, names = _lp_names(emit_lp(model))
    assert len(names) == len(model.variables) == len(set(names))
    assert len(labels) == len(model.constraints) == len(set(labels))
    assert names[:6] == ["X_a_b_0_0_0", "X_a_b_0_0_1", "X_a_b_0_0", "X_a_b_0_1",
                         "X_a_b_0_0_2", "X_a_b_0_1_1"]


def test_emit_lp_never_gives_two_rows_one_label():
    # the empty label falls back to "c", whose first suffix "c_1" is taken
    model = IpModel(sense="min")
    x = model.add_variable("x")
    for label in ("c_1", "c", "", "c", "c-1"):
        model.add_constraint({x: 1.0}, "<=", 1.0, label)
    labels, names = _lp_names(emit_lp(model))
    assert labels == ["c_1", "c", "c_2", "c_3", "c_1_1"]
    assert names == ["x"]


def test_emit_lp_signs_the_constant_like_a_term():
    model = IpModel(sense="min", constant=-1.5)
    x = model.add_variable("x")
    y = model.add_variable("y")
    model.objective.update({x: -2.0, y: 1.0})
    assert " obj: - 2 x + y - 1.5\n" in emit_lp(model)
    model.objective.clear()
    assert " obj: - 1.5\n" in emit_lp(model)
    model.constant = 0.25
    assert " obj: 0.25\n" in emit_lp(model)
    model.constant = 0.0
    assert " obj: 0\n" in emit_lp(model)


# coefficients, constants and right-hand sides: zeros of every kind, ones
# of every type, fractions, tiny and huge magnitudes, infinities and NaN
LP_VALUES = (0, -0.0, 0.0, False, 1, True, 1.0, -1, -1.0, 2, 2.0, 0.5, -0.25, 1 / 3, -2.675,
             1e-13, -1e-13, 1e20, -1e20, 10 ** 20, 123456789.123456, float("inf"),
             float("-inf"), float("nan"))
# names and labels that sanitize, start like a number, are empty or
# collide once sanitized or suffixed (variable names are distinct as given,
# which ``validate`` requires; labels may repeat)
LP_NAMES = ("x", "x_1", "a-b", "a_b", "a b", "", "1x", "e5", "E", "_", "X_a_0_0",
            "Y_g@(0,0)", "y.z", "c", "c_1", "cover_g_0_0")


def random_lp_model(rng):
    model = IpModel(sense=rng.choice(("min", "max")), constant=rng.choice(LP_VALUES))
    n = rng.randint(0, 12)
    for name in rng.sample(LP_NAMES, n):
        model.add_variable(name)
    for i in rng.sample(range(n), rng.randint(0, n)):
        model.objective[i] = rng.choice(LP_VALUES)
    for _ in range(rng.randint(0, 8)):
        terms = sorted(rng.sample(range(n), rng.randint(0, n)))
        coeffs = [(i, rng.choice(LP_VALUES)) for i in terms]
        model.add_constraint(coeffs, rng.choice(("<=", ">=")), rng.choice(LP_VALUES),
                             rng.choice(LP_NAMES))
    return model


def test_emit_lp_equals_the_term_by_term_reference():
    rng = random.Random(2024)
    for _ in range(3000):
        model = random_lp_model(rng)
        assert emit_lp(model) == reference_emit_lp(model)


def test_emit_lp_equals_the_reference_on_the_paper_programs():
    from gops import build_bmgop_ip, build_gbgop_ip, gen_campaign
    campaign = gen_campaign()
    for model in (build_bmgop_ip(campaign.bmgop), build_gbgop_ip(campaign.gbgop),
                  build_gbgop_ip(campaign.gbgop, use_reduction=True)):
        assert emit_lp(model) == reference_emit_lp(model)


# coefficients and right-hand sides that every order of summing adds up
# exactly (dyadic), so the search and the enumeration agree to the bit:
# zeros of every kind, ones of every type, fractions and negatives
ROW_VALUES = (0, -0.0, 0.0, False, 1, True, 1.0, -1, -1.0, 2, 0.5, -0.25, -2.75, 3)


def random_row_model(rng, values, n_max=10):
    """A model whose rows come from a random mix of ``add_rows`` families
    (unit or given coefficients, empty rows and empty families) and
    ``add_constraint`` rows (list and dict forms); also the rows it was
    given, as (label, sense, rhs, coeffs) in order."""
    model = IpModel(sense=rng.choice(("min", "max")), constant=rng.choice(values))
    n = rng.randint(0, n_max)
    for name in rng.sample(LP_NAMES, n):
        model.add_variable(name)
    for i in rng.sample(range(n), rng.randint(0, n)):
        model.objective[i] = rng.choice(values)
    given = []
    for _ in range(rng.randint(0, 5)):
        sense, rhs = rng.choice(("<=", ">=")), rng.choice(values)
        if rng.random() < 0.6:
            rows = [sorted(rng.sample(range(n), rng.randint(0, n))) for _ in range(rng.randint(0, 4))]
            labels = [rng.choice(LP_NAMES) for _ in rows]
            if rng.random() < 0.4:
                model.add_rows(labels, sense, rhs, rows)
                coeffs = [[1.0] * len(row) for row in rows]
            else:
                coeffs = [[rng.choice(values) for _ in row] for row in rows]
                model.add_rows(labels, sense, rhs, rows, coeffs)
            given += [(label, sense, rhs, tuple(zip(row, co)))
                      for label, row, co in zip(labels, rows, coeffs)]
        else:
            terms = [(i, rng.choice(values)) for i in sorted(rng.sample(range(n), rng.randint(0, n)))]
            label = rng.choice(LP_NAMES)
            model.add_constraint(dict(terms) if rng.random() < 0.5 else terms, sense, rhs, label)
            given.append((label, sense, rhs, tuple(terms)))
    return model, given


def test_flat_rows_give_back_what_was_added():
    rng = random.Random(7)
    for _ in range(500):
        model, given = random_row_model(rng, LP_VALUES)
        got = [(c.label, c.sense, c.rhs, c.coeffs) for c in model.constraints]
        assert repr(got) == repr(given)
        assert model.starts[-1] == len(model.cols) == len(model.vals)


def test_flat_rows_emit_the_reference_text_and_solve_like_enumeration():
    rng = random.Random(11)
    for _ in range(400):
        model, _ = random_row_model(rng, LP_VALUES, n_max=12)
        assert emit_lp(model) == reference_emit_lp(model)
    for _ in range(300):
        model, _ = random_row_model(rng, ROW_VALUES)
        assert emit_lp(model) == reference_emit_lp(model)
        assert_matches_exhaustive(model)


def test_add_rows_refuses_mismatched_lengths_and_leaves_the_model_alone():
    model = IpModel(sense="max")
    for name in "xyz":
        model.add_variable(name)
    model.add_rows(["a"], "<=", 1.0, [[0, 2]])
    before = repr(model)
    for labels, rows, coeffs in ((["b"], [[0], [1]], None), (["b", "c"], [[0]], None),
                                 (["b"], [[0, 1]], [[1.0]]), (["b"], [[0]], [[1.0], [2.0]])):
        with pytest.raises(ValueError):
            model.add_rows(labels, ">=", 0.0, rows, coeffs)
        assert repr(model) == before


def test_add_variables_refuses_names_and_tags_of_different_lengths():
    model = IpModel(sense="max")
    assert model.add_variables(["x", "y"], iter([0, 1])) == range(2)
    before = repr(model)
    for names, tags in ((["z"], []), ([], [2]), (["z", "w"], [2]), (["z"], iter([2, 3]))):
        with pytest.raises(ValueError):
            model.add_variables(names, tags)
        assert repr(model) == before
    assert model.add_variable("z") == 2
    assert (model.names, model.tags) == (["x", "y", "z"], [0, 1, None])


# ---------------------------------------------------------------------------
# Starts, and the root's proof


def test_without_a_start_the_search_is_the_reference_search():
    rng = random.Random(5)
    for t in range(600):
        if t % 2:
            model = random_model(rng, n_vars=rng.randint(1, 10))
        else:
            model, _ = random_row_model(rng, ROW_VALUES)
        max_nodes = rng.choice((None, rng.randint(0, 40)))
        got = solve_branch_and_bound(model, Limits(max_nodes=max_nodes))
        want = reference_branch_and_bound(model, max_nodes)
        assert (got.status, got.values, got.objective_value, got.nodes) == want
        assert (got.steps, got.fixed, got.root_bound) == (0, 0, None)


# objective coefficient sets: integers, dyadic fractions, and values no
# power of two divides; few distinct values, so optima often tie
OBJECTIVE_SETS = ((1,), (1, 2), (-1, 1, 2), (0.5, 1.5), (-0.25, 0.75, 3), (0.1, 0.2, 0.3),
                  (1 / 3, 2 / 3))


def random_start_model(rng, sense=None, values=None):
    """A model of up to 9 variables with integer rows, so every sum over
    them is exact; its sense and objective coefficient set are drawn
    unless given."""
    n = rng.randint(1, 9)
    model = IpModel(sense=sense or rng.choice(("min", "max")),
                    constant=rng.choice((0, 1, -2, 0.5, 0.1)))
    values = values or rng.choice(OBJECTIVE_SETS)
    for i in range(n):
        v = model.add_variable(f"x{i}")
        if rng.random() < 0.8:
            model.objective[v] = rng.choice(values)
    for j in range(rng.randint(0, 4)):
        coeffs = {i: rng.choice((-2, -1, 1, 1, 2, 3)) for i in rng.sample(range(n), rng.randint(1, n))}
        model.add_constraint(coeffs, rng.choice(("<=", ">=")), rng.randint(-2, 4), f"c{j}")
    return model


def feasible(model, bits) -> bool:
    for c in model.constraints:
        lhs = sum(co * bits[i] for i, co in c.coeffs)
        if lhs > c.rhs if c.sense == "<=" else lhs < c.rhs:
            return False
    return True


def with_start(model, bits):
    model.start = lambda: [i for i, b in enumerate(bits) if b]
    return model


def test_a_start_gives_the_optimum_and_the_bound_holds_it():
    rng = random.Random(8)
    proven = searched = refused = 0
    for _ in range(1500):
        model = random_start_model(rng)
        n = len(model.variables)
        vectors = list(itertools.product((0, 1), repeat=n))
        good = [bits for bits in vectors if feasible(model, bits)]
        bad = [bits for bits in vectors if not feasible(model, bits)]
        plain = solve_branch_and_bound(model)
        if bad:
            with pytest.raises(InstanceError) as err:
                solve_branch_and_bound(with_start(model, rng.choice(bad)))
            assert err.value.code == "ip-start"
            refused += 1
        if not good:
            assert plain.status == "infeasible"
            continue
        start = rng.choice(good)
        got = solve_branch_and_bound(with_start(model, start))
        value, _ = exhaustive_optimum(model)
        assert got.fixed == reference_root_fixed(model)
        assert got.status == "optimal"
        assert got.objective_value == plain.objective_value == pytest.approx(value, abs=1e-9)
        bits = tuple(got.values[v.name] for v in model.variables)
        assert feasible(model, bits)
        if got.nodes == 0:  # proven at the root: the start itself
            assert bits == start
            proven += 1
        else:  # the search completed: the same answer, in no more nodes
            assert got.values == plain.values
            assert got.nodes <= plain.nodes
            searched += 1
        assert got.root_bound is not None
        assert (got.root_bound >= value) if model.sense == "max" else (got.root_bound <= value)
    assert proven > 100 and searched > 100 and refused > 100


def paper_programs():
    """The paper's two programs on the campaign, on ``gen_random``
    instances of widths 1, 3 and 5 in both flavours (the covering program
    over the reduced pairs on even seeds; an instance with a goal no pair
    produces has none), and on planted set-cover and max-k-cover
    encodings. Only the benefit program has a start, so only it has a
    root."""
    campaign = gen_campaign()
    yield build_bmgop_ip(campaign.bmgop)
    yield build_gbgop_ip(campaign.gbgop)
    for seed in range(80):
        for width in (1, 3, 5):
            inst = gen_random(seed=seed, width=width, height=width)
            try:
                yield build_gbgop_ip(inst, use_reduction=seed % 2 == 0)
            except UncoverableAtomsError:
                pass
            yield build_bmgop_ip(gen_random(seed=seed, width=width, height=width, problem="bmgop"))
    for seed in range(6):
        universe, families = planted_cover(random.Random(seed), 3, 4, 8)
        yield build_gbgop_ip(encode_set_cover(CoverProblem(universe, families)))
        yield build_bmgop_ip(encode_max_k_cover(CoverProblem(universe, families, 3)))


def test_the_whole_result_on_the_paper_programs_holds():
    # every field of every IpAssignment, root steps and fixes included, under
    # a node cap that root-heavy programs reach; the root bound to 12
    # significant digits, as Python 3.12's compensated sum may move its last bits
    digest = hashlib.sha256()
    for model in paper_programs():
        got = solve_branch_and_bound(model, Limits(max_nodes=3000))
        bound = None if got.root_bound is None else format_number(got.root_bound)
        digest.update(repr((got.status, list(got.values.items()), got.objective_value, got.nodes,
                            got.steps, got.fixed, bound, got.prunes)).encode())
    assert digest.hexdigest() == "f2ef99861e770f7f587e249ca077f80b413caa6a371c96dd3a0bc433f7570e38"


def test_a_start_the_root_proves_is_returned_as_it_is():
    # max x0 + x1 subject to x0 + x1 <= 1: the optima 01 and 10 tie, and
    # the search without a start returns 01; the start 10 is proven at the root
    model = IpModel(sense="max")
    a, b = model.add_variable("x0"), model.add_variable("x1")
    model.objective.update({a: 1, b: 1})
    model.add_constraint({a: 1, b: 1}, "<=", 1, "pack")
    assert solve_branch_and_bound(model).values == {"x0": 0, "x1": 1}
    got = solve_branch_and_bound(with_start(model, (1, 0)))
    assert (got.status, got.values, got.objective_value, got.nodes) == (
        "optimal", {"x0": 1, "x1": 0}, 1, 0)
    assert 1 <= got.root_bound < 2


@pytest.mark.parametrize("ones", [[2], [-1], [0.0], [True]])
def test_a_start_naming_no_variable_is_refused(ones):
    model = IpModel(sense="max")
    model.add_variable("x0")
    model.add_variable("x1")
    model.start = lambda: ones
    with pytest.raises(InstanceError) as err:
        solve_branch_and_bound(model)
    assert err.value.code == "ip-start"


@pytest.mark.parametrize("start", [None, (1, 0)], ids=["no-start", "start"])
def test_a_nan_right_hand_side_is_refused_with_or_without_a_start(start):
    # max x subject to x <= nan and y <= 1: no sum is above or below NaN, so
    # the start x = 1 passed its check, while the search broke the row and
    # ended at x = 0; both forms are refused alike
    model = IpModel(sense="max")
    x, y = model.add_variable("x"), model.add_variable("y")
    model.objective[x] = 1.0
    model.add_constraint({x: 1.0}, "<=", float("nan"), "cap_x")
    model.add_constraint({y: 1.0}, "<=", 1.0, "cap_y")
    if start:
        with_start(model, start)
    with pytest.raises(InstanceError) as err:
        solve_branch_and_bound(model)
    assert (err.value.code, err.value.message) == (
        "ip-bad-rhs", "constraint 'cap_x': right-hand side is NaN")
    model.validate()  # the model itself stays valid, and the LP writer writes it
    assert " cap_x: x <= nan\n" in emit_lp(model)


# ---------------------------------------------------------------------------
# Ties: 0 before 1, and the tie prune once no tie can replace the incumbent


def test_prunes_by_kind_on_a_small_cover():
    # min 2 x0 + x1 + x2 subject to x0 + x1 + x2 >= 1, q = 1. The nodes:
    # the root, 0, 00, the leaf 001 (the first optimum, 1; the leaf 000
    # breaks the row, a row prune), then 01, which can only tie 1 and whose
    # leaves lie above 001, so it is cut (a tie prune), and 1, which cannot
    # reach 1 (a bound prune). The strict rule expands 01 and visits its
    # two leaves, 8 nodes in all.
    model = IpModel(sense="min")
    for i, co in enumerate((2, 1, 1)):
        model.objective[model.add_variable(f"x{i}")] = co
    model.add_constraint({0: 1, 1: 1, 2: 1}, ">=", 1, "cover")
    got = solve_branch_and_bound(model)
    assert (got.status, got.values, got.objective_value, got.nodes) == (
        "optimal", {"x0": 0, "x1": 0, "x2": 1}, 1.0, 6)
    assert got.prunes == {"row": 1, "bound": 1, "tie": 1}
    assert reference_branch_and_bound(model, cut_ties=False)[3] == 8
    # a start the root proves is returned before any search, with no prunes
    got = solve_branch_and_bound(with_start(model, (0, 1, 0)))
    assert (got.values, got.nodes, got.prunes) == (
        {"x0": 0, "x1": 1, "x2": 0}, 0, {"row": 0, "bound": 0, "tie": 0})


@pytest.mark.parametrize("values", OBJECTIVE_SETS + ((0,),), ids=str)
def test_cut_ties_give_the_lexicographically_smallest_optimum(values):
    # dyadic sets cut ties, the non-dyadic ones (1/3, 0.1) and a 0.1
    # constant keep the strict test, and the all-zero set cuts every node
    # after the first leaf; both senses, with and without a start
    rng = random.Random(f"ties/{values}")
    cut = strict = proven = searched = above = 0
    for t in range(240):
        model = random_start_model(rng, sense=("min", "max")[t % 2], values=values)
        expected = exhaustive_optimum(model)
        plain = solve_branch_and_bound(model)
        assert (plain.status, plain.values, plain.objective_value, plain.nodes) == (
            reference_branch_and_bound(model))
        if expected is None:
            assert plain.status == "infeasible"
            continue
        value, bits = expected
        names = [v.name for v in model.variables]
        assert plain.status == "optimal" and plain.objective_value == value
        assert plain.values == dict(zip(names, bits))
        if objective_granularity(model):
            cut += plain.prunes["tie"] > 0
        else:
            assert plain.prunes["tie"] == 0
            strict += 1
        if model.sense == "min":  # the former search also tried 0 first here
            assert plain.nodes <= reference_branch_and_bound(model, cut_ties=False)[3]
        good = [b for b in itertools.product((0, 1), repeat=len(names)) if feasible(model, b)]
        start = rng.choice(good)
        got = solve_branch_and_bound(with_start(model, start))
        assert got.status == "optimal" and got.objective_value == value
        if got.nodes == 0:  # proven at the root: the start itself
            assert tuple(got.values[name] for name in names) == start
            proven += 1
        else:
            assert got.values == plain.values and got.nodes <= plain.nodes
            searched += 1
        # from the lexicographically smallest optimum the search never
        # replaces its incumbent, so its tie prunes all lie above the start
        got = solve_branch_and_bound(with_start(model, bits))
        assert got.values == plain.values and got.nodes <= plain.nodes
        above += got.prunes["tie"] > 0
    if values in ((0.1, 0.2, 0.3), (1 / 3, 2 / 3)):  # q is 0 unless no term is drawn
        assert strict > 100 and searched > 100
    elif values == (0,):  # q is inf: every start is proven at the root
        assert cut > 100 and searched == 0 and proven > 100
    else:
        assert cut > 20 and proven > 20 and searched > 20 and above > 0
