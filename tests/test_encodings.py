import random
from dataclasses import replace

import pytest

from gops import (count_gbgop_solutions, solve_bmgop_exact, solve_gbgop_exact,
                  solve_gbgop_ip)
from gops.encodings import (CoverProblem, MonotoneCnf, encode_max_k_cover,
                            encode_monsat, encode_set_cover)
from gops.errors import InstanceError

from helpers import max_k_coverage, min_set_cover, monsat_count


def test_set_cover_single_family():
    inst = encode_set_cover(CoverProblem(universe=(1,), families=(frozenset({1}),)))
    assert solve_gbgop_exact(inst).cardinality == 1


def test_set_cover_frozen_example():
    problem = CoverProblem(universe=(1, 2, 3),
                           families=(frozenset({1, 2}), frozenset({2, 3}), frozenset({3})))
    assert min_set_cover({1, 2, 3}, [{1, 2}, {2, 3}, {3}]) == 2
    inst = encode_set_cover(problem)
    assert solve_gbgop_exact(inst).cardinality == 2


def test_set_cover_uncoverable_element():
    problem = CoverProblem(universe=(1, 2), families=(frozenset({1}),))
    inst = encode_set_cover(problem)
    assert solve_gbgop_exact(inst) is None
    sol, status = solve_gbgop_ip(inst)
    assert sol is None and status == "infeasible"


def test_set_cover_rejects_k_and_empty_universe():
    with pytest.raises(InstanceError):
        encode_set_cover(CoverProblem(universe=(1,), families=(frozenset({1}),), k=1))
    with pytest.raises(InstanceError):
        encode_set_cover(CoverProblem(universe=(), families=()))


def test_cover_problem_validation():
    with pytest.raises(InstanceError):
        CoverProblem(universe=(1, 1), families=())
    with pytest.raises(InstanceError):
        CoverProblem(universe=(1,), families=(frozenset({2}),))
    with pytest.raises(InstanceError):
        CoverProblem(universe=(1,), families=(frozenset({1}),), k=2)


def test_max_k_cover_examples():
    families = (frozenset({1, 2, 3}), frozenset({3, 4}), frozenset({4, 5}), frozenset({1}))
    universe = (1, 2, 3, 4, 5)
    inst = encode_max_k_cover(CoverProblem(universe=universe, families=families, k=2))
    assert solve_bmgop_exact(inst).achieved_benefit == 5
    inst = encode_max_k_cover(CoverProblem(universe=universe, families=families, k=1))
    assert solve_bmgop_exact(inst).achieved_benefit == 3
    inst = encode_max_k_cover(CoverProblem(universe=universe, families=families, k=4))
    assert solve_bmgop_exact(inst).achieved_benefit == len({1, 2, 3, 4, 5})


@pytest.mark.parametrize("k", [True, False])
def test_a_bool_k_is_refused(k):
    # bool is an int subclass, but a document's k is never true: the reader
    # refuses it, so neither the problem nor the instance may hold it
    families = (frozenset({1}), frozenset({2}))
    with pytest.raises(InstanceError) as err:
        CoverProblem(universe=(1, 2), families=families, k=k)
    assert err.value.code == "cover-k"
    inst = encode_max_k_cover(CoverProblem(universe=(1, 2), families=families, k=1))
    with pytest.raises(InstanceError) as err:
        replace(inst, k=k)
    assert (err.value.code, err.value.message) == ("k-range", "k must be a non-negative integer")


def test_max_k_cover_requires_k():
    with pytest.raises(InstanceError):
        encode_max_k_cover(CoverProblem(universe=(1,), families=(frozenset({1}),)))


def test_encoders_match_bruteforce_on_random_problems():
    rng = random.Random(123)
    for _ in range(25):
        n = rng.randint(1, 7)
        m = rng.randint(1, 5)
        universe = tuple(range(n))
        families = tuple(frozenset(rng.sample(universe, rng.randint(1, n)))
                         for _ in range(m))
        sets = [set(f) for f in families]

        cover = min_set_cover(set(universe), sets)
        sc = solve_gbgop_exact(encode_set_cover(CoverProblem(universe, families)))
        if cover is None:
            assert sc is None
        else:
            assert sc.cardinality == cover

        k = rng.randint(1, m)
        best = max_k_coverage(sets, k)
        mk = solve_bmgop_exact(encode_max_k_cover(CoverProblem(universe, families, k=k)))
        assert mk.achieved_benefit == best


def test_monsat_forced_literal():
    cnf = MonotoneCnf(atoms=("x1",), clauses=(frozenset({"x1"}),))
    inst = encode_monsat(cnf)
    assert count_gbgop_solutions(inst) == 1
    assert solve_gbgop_exact(inst).cardinality == 1


def test_monsat_single_clause_two_literals():
    cnf = MonotoneCnf(atoms=("x1", "x2"), clauses=(frozenset({"x1", "x2"}),))
    inst = encode_monsat(cnf)
    assert monsat_count(("x1", "x2"), [{"x1", "x2"}]) == 3
    assert count_gbgop_solutions(inst) == 3


def test_monsat_counts_match_truth_tables():
    rng = random.Random(7)
    for _ in range(20):
        n = rng.randint(1, 8)
        atoms = tuple(f"x{i}" for i in range(n))
        clauses = tuple(frozenset(rng.sample(atoms, rng.randint(1, min(4, n))))
                        for _ in range(rng.randint(1, 5)))
        inst = encode_monsat(MonotoneCnf(atoms=atoms, clauses=clauses))
        assert count_gbgop_solutions(inst) == monsat_count(atoms, clauses)


def test_monsat_validation():
    with pytest.raises(InstanceError):
        MonotoneCnf(atoms=("x", "x"), clauses=())
    with pytest.raises(InstanceError):
        MonotoneCnf(atoms=("x",), clauses=(frozenset(),))
    with pytest.raises(InstanceError):
        MonotoneCnf(atoms=("x",), clauses=(frozenset({"y"}),))
