"""Tests of the benchmark's own arithmetic and input generation.

Run with the repository's tests: PYTHONPATH=src python -m pytest perfbench
"""

import hashlib
import json
from pathlib import Path

import pytest

from measure import (CAPPED, CRASHED, OK, WRONG, Outcome, Tracer, fold, median,
                     percentile, scaled, self_times, summarize)

HERE = Path(__file__).resolve().parent


def test_percentile_is_nearest_rank_with_count_beyond():
    values = list(range(1, 101))
    assert percentile(values, 0.5) == (50, 50)
    assert percentile(values, 0.9) == (90, 10)
    assert percentile([3.0], 0.9) == (3.0, 0)
    assert percentile([5, 1, 4, 2, 3], 0.5) == (3, 2)
    assert median([2.0, 1.0, 3.0, 4.0]) == 2.5
    assert median([3.0, 1.0, 2.0]) == 2.0
    with pytest.raises(ValueError):
        percentile([], 0.5)


def test_failed_op_is_scored_at_its_cap():
    fast_crash = Outcome(CRASHED, 0.001, 2.0)
    capped = Outcome(CAPPED, 0.9, 2.0)
    ok = Outcome(OK, 0.25, 2.0)
    assert fast_crash.latency == 2.0 and capped.latency == 2.0 and ok.latency == 0.25
    outcomes = [Outcome(OK, 0.01 * i, 2.0) for i in range(1, 19)] + [fast_crash, capped]
    s = summarize(outcomes)
    assert s["n"] == 20 and s["ok"] == 18
    assert s["p90"] == pytest.approx(0.18) and s["beyond_p90"] == 2  # the failures lie beyond
    # throughput counts successes over the time every op really took
    assert s["ok_per_s"] == pytest.approx(18 / (sum(0.01 * i for i in range(1, 19)) + 0.901))


def test_repeats_fold_to_their_median_and_keep_a_wrong_answer():
    assert fold([Outcome(OK, t, 2.0) for t in (0.3, 0.1, 0.2)]) == Outcome(OK, 0.2, 2.0)
    folded = fold([Outcome(OK, 0.1, 2.0), Outcome(WRONG, 0.1, 2.0), Outcome(OK, 0.1, 2.0)])
    assert folded.status == WRONG and folded.latency == 2.0


def test_times_scale_by_the_kernel_measured_beside_them():
    # the machine halves its speed after the third op; ops and kernel with it
    raw = [1.0, 2.0, 1.0, 2.0, 4.0, 2.0]
    kernel = [0.001, 0.001, 0.001, 0.002, 0.002, 0.002]
    assert scaled(raw, kernel, 0.001, half_window=0) == [1.0, 2.0, 1.0, 1.0, 2.0, 1.0]
    # a wider window takes the median kernel time around each op
    assert scaled([3.0], [0.001, 0.003, 0.002], 0.002, half_window=1) == [3.0]


class _Clock:
    def __init__(self, *ticks):
        self.ticks = list(ticks)

    def __call__(self):
        return self.ticks.pop(0)


def test_self_time_of_nested_spans():
    tracer = Tracer(_Clock(0.0, 1.0, 2.0, 2.5, 4.0, 10.0))
    with tracer.span(0, "op"):              # 0 .. 10
        with tracer.span(0, "parse"):       # 1 .. 4
            with tracer.span(0, "ground"):  # 2 .. 2.5
                pass
    selfs = self_times(tracer.spans)
    assert selfs == {"op": 7.0, "parse": 2.5, "ground": 0.5}
    assert sum(selfs.values()) == tracer.spans[0].seconds


def test_repeated_work_leaves_the_enclosing_self_time():
    tracer = Tracer(_Clock(0.0, 0.0, 3.0, 3.0, 10.0, 10.0))
    with tracer.span(1, "op"):                    # 0 .. 10
        with tracer.span(1, "reduce"):            # 0 .. 3
            pass
        with tracer.span(1, "exact") as exact:    # 3 .. 10, redoes the reduction
            pass
    tracer.repeated(1, "repeat.reduce", 2.5, exact)  # the redo, timed afterwards
    selfs = self_times(tracer.spans)
    assert selfs["exact"] == 4.5 and selfs["reduce"] == 3.0
    assert selfs["repeat.reduce"] == 2.5 and selfs["op"] == 0.0
    assert sum(selfs.values()) == 10.0


def _input_digest(ops):
    h = hashlib.sha256()
    for op in ops:
        h.update(f"{op.key}\0{op.instance.text}\0".encode())
    return h.hexdigest()


def test_same_seed_gives_same_inputs():
    from workloads import build_ops
    spec = json.loads((HERE / "workloads.json").read_text())
    first = _input_digest(build_ops("search-mix", 7, spec))
    assert _input_digest(build_ops("search-mix", 7, spec)) == first
    assert _input_digest(build_ops("search-mix", 8, spec)) != first


def test_ladder_maps_are_stratified_and_repeatable():
    from workloads import _stratum, ladder_maps, rule_work
    gen = {"predicates": 3, "radius": 3.0, "ics": 2}
    edges = [1e-9, 0.15, 0.3]
    maps = ladder_maps(5, 5, 3, gen, edges, 8)
    assert [seed for seed, _ in maps] == [seed for seed, _ in ladder_maps(5, 5, 3, gen, edges, 8)]
    assert [_stratum(rule_work(inst), edges) for _, inst in maps] == [0, 1, 2, 3] * 2


def test_benchmark_json_matches_the_metrics_printed():
    import run
    bench = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in bench["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in bench["per_layer"]} == run.PER_LAYER
    assert [w["name"] for w in bench["workloads"]] == list(run.SPEC["workloads"])
    assert all(w["why"] == run.SPEC["workloads"][w["name"]]["why"] for w in bench["workloads"])
