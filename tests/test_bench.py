import pytest

from gops import run_bench
from gops.bench import BenchReport
from gops.encodings import CoverProblem, encode_max_k_cover
from gops.errors import BoundViolationError, LimitReachedError
from gops.ip import Limits


def test_empty_suite_gives_empty_report():
    report = run_bench([])
    assert report.records == []
    assert report.violations == []
    assert report.to_json()["records"] == []
    assert "timings:" in report.to_text()


def test_bound_inapplicable_instance_not_asserted():
    # k = 1 < 2 - delta: the guarantee does not apply, so even a poor ratio
    # must not fail the run
    inst = encode_max_k_cover(CoverProblem(
        universe=(1, 2, 3, 4, 5, 6),
        families=(frozenset({1, 2, 3}), frozenset({4, 5, 6}), frozenset({1, 2, 4, 5})),
        k=1))
    report = run_bench([("one", inst)])
    record = report.records[0]
    assert not record.bound_applicable
    assert record.within_bound  # vacuously
    assert report.violations == []


def test_records_sorted_by_id():
    insts = [(f"z{9 - i}", encode_max_k_cover(CoverProblem(
        universe=(1, 2), families=(frozenset({1}), frozenset({2})), k=2)))
        for i in range(3)]
    report = run_bench(insts)
    ids = [r.instance_id for r in report.records]
    assert ids == sorted(ids)


def test_non_bmgop_suite_entry_rejected():
    from helpers import tiny_gbgop
    with pytest.raises(BoundViolationError):
        run_bench([("bad", tiny_gbgop())])


def test_limit_carries_the_finished_records():
    # the exact solver's node cap holds per instance: the small one finishes
    # under it, the ring of eight overlapping pairs does not
    small = encode_max_k_cover(CoverProblem(
        universe=(1, 2), families=(frozenset({1}), frozenset({2})), k=2))
    ring = encode_max_k_cover(CoverProblem(
        universe=tuple(range(8)),
        families=tuple(frozenset({i, (i + 1) % 8}) for i in range(8)), k=4))
    with pytest.raises(LimitReachedError) as err:
        run_bench([("a-small", small), ("b-ring", ring)], limits=Limits(max_nodes=10))
    report = err.value.best
    assert isinstance(report, BenchReport)
    assert [r.instance_id for r in report.records] == ["a-small"]
    assert report.records[0].exact_benefit == report.records[0].greedy_benefit > 0
