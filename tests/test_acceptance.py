"""Acceptance suite: one test per release criterion, each printing a
pass/fail line (run with ``pytest tests/test_acceptance.py -v -s``).

Tolerances are pinned here and nowhere else. Seeded generators make every
run identical.
"""

import os
import random
import subprocess
import sys
import time

import pytest

from gops import (ActionPointPair, ActionRule, BenefitModel, BmgopInstance,
                  CostModel, GridMap, IntegrityConstraint, Point, TRUE,
                  approx_bound, bmgop_compute, build_bmgop_ip, build_gbgop_ip,
                  count_gbgop_solutions, emit_lp, gen_campaign, gen_random,
                  objective_f, reduce_to_r_star, restricted_pairs, run_bench,
                  serialize_instance, solve_branch_and_bound, solve_bmgop_exact,
                  solve_gbgop_exact, solve_gbgop_ip)
from gops.encodings import CoverProblem, MonotoneCnf, encode_max_k_cover, encode_monsat

from helpers import brute_best_bmgop, brute_min_gbgop, monsat_count


def _passed(n, detail):
    print(f"criterion {n}: PASS ({detail})")


# Small-instance shapes keeping |A x M| <= 12 and |B_L| <= 40.
SHAPES = [
    dict(width=1, height=1, predicates=3, actions=3),   # 12 pairs, 12 atoms
    dict(width=1, height=1, predicates=4, actions=2),   # 8 pairs, 16 atoms
    dict(width=2, height=0, predicates=3, actions=4),   # 12 pairs, 9 atoms
    dict(width=1, height=0, predicates=5, actions=6),   # 12 pairs, 10 atoms
    dict(width=2, height=1, predicates=6, actions=2),   # 12 pairs, 36 atoms
]


def test_criterion_1_lambda_and_weight_trace():
    scenario = gen_campaign()
    start = time.monotonic()
    sol, trace = bmgop_compute(scenario.bmgop, delta=0.001, condition_mode="weighted")
    elapsed = time.monotonic() - start

    assert abs(trace.lam - 22.148) <= 0.01
    assert trace.ic_count == 1
    first = trace.iterations[0]
    ic_pairs = scenario.bmgop.ics[0].pairs
    assert first.chosen in ic_pairs
    g = scenario.bmgop.grounding
    assert g.costs[g.pairs_to_indices([first.chosen])[0]] == 0.5
    assert abs(first.w_prime / 0.93 - 1) <= 0.02
    assert abs(first.w_dprime / 1.09 - 1) <= 0.02
    assert abs(first.ic_weights[0] / 2.35 - 1) <= 0.02
    assert elapsed < 1.0
    _passed(1, f"lambda={trace.lam:.4f}, w'={first.w_prime:.4f}, "
               f"w''={first.w_dprime:.4f}, w1={first.ic_weights[0]:.4f}, {elapsed:.3f}s")


def test_criterion_2_admissible_set_and_reduction():
    scenario = gen_campaign()
    start = time.monotonic()
    r = restricted_pairs(scenario.gbgop)
    r_star, stats = reduce_to_r_star(scenario.gbgop)
    elapsed = time.monotonic() - start

    assert scenario.gbgop.grid.n_points == 187
    assert len(r) == 561 == 3 * 187
    assert stats.r_size == 561
    assert stats.r_star_size <= 10
    assert ActionPointPair("appeal_1", Point(4, 3)) in r_star
    # the targeted exact outcome, achieved by the shipped layout
    assert stats.r_star_size == 7
    assert elapsed < 5.0
    _passed(2, f"|R|=561, |R*|={stats.r_star_size}, {elapsed:.3f}s")


def test_criterion_3_reduction_preserves_minimum_cardinality():
    start = time.monotonic()
    feasible = 0
    for seed in range(200):
        inst = gen_random(seed=seed, **SHAPES[seed % len(SHAPES)])
        r = restricted_pairs(inst)
        r_star, _ = reduce_to_r_star(inst)
        best_r = brute_min_gbgop(inst, r)
        best_r_star = brute_min_gbgop(inst, r_star)
        exact = solve_gbgop_exact(inst)
        if best_r is None:
            assert best_r_star is None
            assert exact is None
        else:
            feasible += 1
            assert best_r_star is not None
            assert len(best_r_star) == len(best_r)
            assert exact.pairs == best_r_star
    elapsed = time.monotonic() - start
    assert elapsed < 120.0
    _passed(3, f"200 instances ({feasible} feasible), {elapsed:.1f}s")


def test_criterion_4_ip_matches_exhaustive_solvers():
    start = time.monotonic()
    feasible = 0
    for seed in range(100):
        shape = SHAPES[seed % len(SHAPES)]

        gb = gen_random(seed=seed, problem="gbgop", **shape)
        exact = solve_gbgop_exact(gb)
        via_ip, status = solve_gbgop_ip(gb)
        if exact is None:
            assert via_ip is None
        else:
            feasible += 1
            assert status == "optimal"
            assert via_ip.cardinality == exact.cardinality
            assert exact.pairs == brute_min_gbgop(gb, reduce_to_r_star(gb)[0])

        bm = gen_random(seed=seed, problem="bmgop", **shape)
        ip_result = solve_branch_and_bound(build_bmgop_ip(bm))
        assert ip_result.status == "optimal"
        exact_bm = solve_bmgop_exact(bm)
        assert abs(ip_result.objective_value - exact_bm.achieved_benefit) <= 1e-9
        assert (exact_bm.achieved_benefit, exact_bm.pairs) == brute_best_bmgop(bm)
    elapsed = time.monotonic() - start
    assert elapsed < 300.0
    _passed(4, f"100 goal instances ({feasible} feasible) + 100 benefit instances, {elapsed:.1f}s")


def _random_cover_instance(rng):
    n = rng.randint(2, 12)
    m = rng.randint(2, 8)
    k = rng.randint(2, min(4, m))
    families = tuple(frozenset(rng.sample(range(n), rng.randint(1, n))) for _ in range(m))
    return CoverProblem(universe=tuple(range(n)), families=families, k=k)


def test_criterion_5_empirical_ratio_meets_guarantee():
    rng = random.Random(20240)
    start = time.monotonic()
    suite = [(f"cover{i:03d}", encode_max_k_cover(_random_cover_instance(rng)))
             for i in range(100)]
    # a case where the greedy is provably suboptimal (picks the overlap
    # family first, ends at 5 of 6), so the ratio check is not vacuous
    tricky = CoverProblem(universe=tuple(range(6)),
                          families=(frozenset({0, 1, 2}), frozenset({3, 4, 5}),
                                    frozenset({0, 1, 3, 4})),
                          k=2)
    suite.append(("cover-tricky", encode_max_k_cover(tricky)))
    report = run_bench(suite, delta=0.001)  # raises on any bound violation
    bound_free = 1 / 2 ** (1 / 1.999)
    assert abs(bound_free - 0.7072) <= 5e-4
    ratios = [r.ratio for r in report.records if r.ratio is not None]
    assert min(ratios) >= bound_free - 1e-9
    assert min(ratios) < 1.0  # the tricky instance keeps this meaningful
    assert all(r.bound_applicable for r in report.records)

    # same instances with one always-active constraint injected
    bound_one = 1 / 3 ** (1 / 1.999)
    assert abs(bound_one - 0.5776) <= 5e-4
    worst = 1.0
    origin = Point(0, 0)
    for _, inst in suite:
        ic = IntegrityConstraint(
            pairs=frozenset({ActionPointPair("a0", origin), ActionPointPair("a1", origin)}),
            condition=TRUE)
        constrained = BmgopInstance(
            grid=inst.grid, predicates=inst.predicates, s0=inst.s0,
            actions=inst.actions, cost_model=inst.cost_model,
            benefit_model=inst.benefit_model, ics=(ic,), k=inst.k, budget=inst.budget)
        assert approx_bound(constrained, 0.001) == pytest.approx(bound_one, rel=1e-12)
        exact = solve_bmgop_exact(constrained)
        greedy, _ = bmgop_compute(constrained, delta=0.001)
        assert exact.achieved_benefit > 0
        ratio = greedy.achieved_benefit / exact.achieved_benefit
        assert ratio >= bound_one - 1e-9
        worst = min(worst, ratio)
    elapsed = time.monotonic() - start
    assert elapsed < 300.0
    _passed(5, f"min ratio {min(ratios):.4f} >= {bound_free:.4f}; "
               f"with constraint {worst:.4f} >= {bound_one:.4f}; {elapsed:.1f}s")


def test_criterion_6_submodular_and_monotone():
    start = time.monotonic()
    rng = random.Random(606)
    for instance_no in range(20):
        inst = gen_random(seed=7000 + instance_no, problem="bmgop",
                          **SHAPES[instance_no % len(SHAPES)])
        pairs = [ActionPointPair(r.name, p)
                 for r in inst.actions for p in inst.grid.points()]
        for _ in range(500):
            big = frozenset(rng.sample(pairs, rng.randint(0, len(pairs) - 1)))
            small = frozenset(p for p in sorted(big) if rng.random() < 0.6)
            remaining = [p for p in pairs if p not in big]
            x = rng.choice(remaining)
            f_small = objective_f(inst, small)
            f_big = objective_f(inst, big)
            assert f_small <= f_big  # monotone
            gain_small = objective_f(inst, small | {x}) - f_small
            gain_big = objective_f(inst, big | {x}) - f_big
            assert gain_small >= gain_big  # diminishing returns
    elapsed = time.monotonic() - start
    assert elapsed < 60.0
    _passed(6, f"20 instances x 500 triples, {elapsed:.1f}s")


def test_criterion_7_solution_count_matches_truth_table():
    rng = random.Random(777)
    start = time.monotonic()
    for _ in range(30):
        n = rng.randint(1, 10)
        atoms = tuple(f"x{i}" for i in range(n))
        clauses = tuple(frozenset(rng.sample(atoms, rng.randint(1, min(4, n))))
                        for _ in range(rng.randint(1, 6)))
        inst = encode_monsat(MonotoneCnf(atoms=atoms, clauses=clauses))
        assert count_gbgop_solutions(inst) == monsat_count(atoms, clauses)
    elapsed = time.monotonic() - start
    assert elapsed < 120.0
    _passed(7, f"30 formulas, {elapsed:.1f}s")


def _corpus_outputs():
    """Everything the determinism criterion compares, as one text blob."""
    out = []
    scenario = gen_campaign()
    out.append(serialize_instance(scenario.gbgop))
    out.append(serialize_instance(scenario.bmgop))
    r_star, stats = reduce_to_r_star(scenario.gbgop)
    out.append(f"|R| = {stats.r_size}, |R*| = {stats.r_star_size}\n")
    out.extend(str(p) + "\n" for p in r_star)
    for mode in ("weighted", "plain"):
        sol, trace = bmgop_compute(scenario.bmgop, delta=0.001, condition_mode=mode)
        out.append(trace.to_text())
        out.append(repr(sorted(map(str, sol.pairs))) + "\n")
    gb_sol = solve_gbgop_exact(scenario.gbgop)
    out.append(repr(sorted(map(str, gb_sol.pairs))) + "\n")
    out.append(emit_lp(build_gbgop_ip(scenario.gbgop, use_reduction=True)))
    out.append(emit_lp(build_bmgop_ip(scenario.bmgop)))
    for seed in range(10):
        out.append(serialize_instance(gen_random(seed=seed, **SHAPES[seed % len(SHAPES)])))
        inst = gen_random(seed=seed, problem="bmgop", **SHAPES[seed % len(SHAPES)])
        out.append(serialize_instance(inst))
        sol, trace = bmgop_compute(inst)
        out.append(trace.to_text())
    suite = [(f"b{i}", encode_max_k_cover(CoverProblem(
        universe=tuple(range(4)), families=(frozenset({0, 1}), frozenset({1, 2}),
                                            frozenset({2, 3})), k=2)))
        for i in range(2)]
    report = run_bench(suite)
    text = report.to_text()
    out.append(text[:text.index("timings:")])  # timings vary by design
    return "".join(out)


def test_criterion_8_determinism():
    start = time.monotonic()
    first = _corpus_outputs()
    second = _corpus_outputs()
    assert first == second

    # byte-identical CLI output across processes with different hash seeds
    with __import__("tempfile").TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "campaign.json")
        subprocess.run([sys.executable, "-m", "gops", "gen", "campaign",
                        "--variant", "gbgop", "-o", path], check=True)
        runs = []
        for hash_seed in ("11", "97"):
            env = dict(os.environ, PYTHONHASHSEED=hash_seed)
            a = subprocess.run([sys.executable, "-m", "gops", "reduce", path],
                               capture_output=True, env=env)
            b = subprocess.run([sys.executable, "-m", "gops", "solve", path,
                                "--method", "exact", "--json"],
                               capture_output=True, env=env)
            runs.append((a.stdout, b.stdout))
        assert runs[0] == runs[1]
    elapsed = time.monotonic() - start
    _passed(8, f"library corpus + CLI double-run identical, {elapsed:.1f}s")


def _instrumented_instance(bound):
    grid = GridMap(bound, bound)
    actions = (
        ActionRule(name="a0", effect_predicate="e0", max_distance=1.0),
        ActionRule(name="a1", effect_predicate="e1", max_distance=1.0),
    )
    return BmgopInstance(
        grid=grid, predicates=("e0", "e1"), s0=frozenset(), actions=actions,
        cost_model=CostModel(default_cost=0.5),
        benefit_model=BenefitModel(per_predicate={"e0": 1.0, "e1": 1.0}),
        ics=(), k=3, budget=100.0)


def test_criterion_9_greedy_work_scales_linearly():
    start = time.monotonic()
    sizes = (4, 9, 14, 19, 29, 39)  # 5x5 .. 40x40 point grids
    xs, ys = [], []
    for bound in sizes:
        inst = _instrumented_instance(bound)
        n_pairs = len(inst.grounding.pairs)
        sol, trace = bmgop_compute(inst, delta=0.001)
        assert len(trace.iterations) <= inst.k
        assert trace.op_count <= inst.k * n_pairs
        xs.append(n_pairs)
        ys.append(trace.op_count)

    mean_x = sum(xs) / len(xs)
    mean_y = sum(ys) / len(ys)
    sxx = sum((x - mean_x) ** 2 for x in xs)
    sxy = sum((x - mean_x) * (y - mean_y) for x, y in zip(xs, ys))
    slope = sxy / sxx
    intercept = mean_y - slope * mean_x
    ss_res = sum((y - slope * x - intercept) ** 2 for x, y in zip(xs, ys))
    ss_tot = sum((y - mean_y) ** 2 for y in ys)
    r_squared = 1 - ss_res / ss_tot
    assert slope > 0
    assert r_squared > 0.99
    elapsed = time.monotonic() - start
    _passed(9, f"slope {slope:.2f} ops/pair, R^2 {r_squared:.6f}, {elapsed:.1f}s")
