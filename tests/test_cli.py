import json
import os
import subprocess
import sys
import time

import pytest

import gops.bench
from gops import (ActionPointPair, CoverProblem, Point, encode_max_k_cover, parse_instance,
                  serialize_instance, validate_bmgop, validate_gbgop)
from gops.cli import main
from gops.core import Grounding

from helpers import DUPLICATES


def run_cli(args, env_seed="1"):
    env = dict(os.environ, PYTHONHASHSEED=env_seed)
    return subprocess.run([sys.executable, "-m", "gops", *args],
                          capture_output=True, text=True, env=env)


@pytest.fixture(scope="module")
def campaign_files(tmp_path_factory):
    base = tmp_path_factory.mktemp("campaign")
    gb = base / "campaign_gbgop.json"
    bm = base / "campaign_bmgop.json"
    assert main(["gen", "campaign", "--variant", "gbgop", "-o", str(gb)]) == 0
    assert main(["gen", "campaign", "--variant", "bmgop", "-o", str(bm)]) == 0
    return gb, bm


def test_validate_ok(campaign_files):
    gb, bm = campaign_files
    result = run_cli(["validate", str(gb)])
    assert result.returncode == 0
    assert result.stdout == "ok: gbgop instance\n"
    result = run_cli(["validate", str(bm), "--json"])
    assert result.returncode == 0
    assert json.loads(result.stdout) == {"ok": True, "problem": "bmgop"}


def test_validate_minimal_document(tmp_path):
    doc = {
        "format": "gop-instance", "version": 1,
        "map": {"M": 0, "N": 0}, "predicates": ["g"], "state": [],
        "actions": [], "cost": {"default": 0.5, "rules": [], "overrides": []},
        "ics": [],
        "problem": {"type": "gbgop", "budget": 1.0, "theta_in": [], "theta_out": []},
    }
    path = tmp_path / "minimal.json"
    path.write_text(json.dumps(doc))
    assert run_cli(["validate", str(path)]).returncode == 0


def test_deeply_nested_formula_exit_2(tmp_path):
    doc = {
        "format": "gop-instance", "version": 1,
        "map": {"M": 0, "N": 0}, "predicates": ["g"], "state": [],
        "actions": [{"name": "act", "effect": "g", "source_guard": "GUARD",
                     "target_guard": "true"}],
        "cost": {"default": 0.5, "rules": [], "overrides": []},
        "ics": [],
        "problem": {"type": "gbgop", "budget": 1.0, "theta_in": [], "theta_out": []},
    }
    guard = '{"not": ' * 3000 + '"true"' + "}" * 3000  # too deep for json.dumps
    path = tmp_path / "deep.json"
    path.write_text(json.dumps(doc).replace('"GUARD"', guard))
    result = run_cli(["solve", str(path)])
    assert result.returncode == 2
    assert "error[too-deep]" in result.stderr
    assert "Traceback" not in result.stderr


_NUMBER_DOC = json.dumps({
    "format": "gop-instance", "version": 1,
    "map": {"M": 2, "N": 2}, "predicates": ["g"], "state": [],
    "actions": [{"name": "act", "effect": "g", "source_guard": "true",
                 "target_guard": "true", "max_distance": "DISTANCE"}],
    "cost": {"default": 0.5, "rules": [], "overrides": []},
    "ics": [],
    "benefit": {"per_predicate": {"g": "BENEFIT"}},
    "problem": {"type": "bmgop", "k": 1, "budget": "BUDGET"},
})


@pytest.mark.parametrize("field,literal,code", [
    ("DISTANCE", "Infinity", "distance-not-finite"),
    ("DISTANCE", "NaN", "distance-not-finite"),
    ("DISTANCE", "1e400", "distance-not-finite"),
    pytest.param("DISTANCE", "1" + "0" * 400, "number-range", id="DISTANCE-10**400"),
    pytest.param("DISTANCE", "1" * 4301, "number-range", id="DISTANCE-4301-digits"),
    ("BUDGET", "NaN", "budget-range"),
    ("BUDGET", "Infinity", "budget-range"),
    ("BENEFIT", "NaN", "benefit-range"),
    ("BENEFIT", "1e400", "benefit-range"),
])
def test_non_finite_numbers_exit_2(tmp_path, field, literal, code):
    # Python's json reads NaN, Infinity and 1e400 (as inf); each must be
    # rejected up front, not crash grounding or solve to a silent 0.
    values = {"DISTANCE": "1.5", "BUDGET": "1.0", "BENEFIT": "1.0", field: literal}
    text = _NUMBER_DOC
    for name, value in values.items():
        text = text.replace(f'"{name}"', value)
    path = tmp_path / "numbers.json"
    path.write_text(text)
    for args in (["validate", str(path)], ["solve", str(path), "--method", "approx"]):
        result = run_cli(args)
        assert result.returncode == 2, result.stderr
        assert f"error[{code}]" in result.stderr
        assert "Traceback" not in result.stderr


@pytest.mark.parametrize("literal", ["true", "2.0"])
def test_solve_refuses_a_version_that_is_not_an_integer_exit_2(tmp_path, literal):
    doc = {
        "format": "gop-instance", "version": "VERSION",
        "map": {"M": 0, "N": 0}, "predicates": ["g"], "state": [],
        "actions": [], "cost": {"default": 0.5, "rules": [], "overrides": []},
        "ics": [],
        "problem": {"type": "gbgop", "budget": 1.0, "theta_in": [], "theta_out": []},
    }
    path = tmp_path / "version.json"
    path.write_text(json.dumps(doc).replace('"VERSION"', literal))
    result = run_cli(["solve", str(path)])
    assert result.returncode == 2, result.stderr
    assert result.stderr.startswith("error[type]: $.version: ")
    assert "Traceback" not in result.stderr


@pytest.mark.parametrize("kind", sorted(DUPLICATES))
def test_duplicate_entries_exit_2(tmp_path, kind):
    text, path = DUPLICATES[kind]
    doc = tmp_path / "duplicate.json"
    doc.write_text(text)
    result = run_cli(["validate", str(doc)])
    assert result.returncode == 2
    assert result.stderr.startswith(f"error[duplicate]: {path}: ")
    assert "Traceback" not in result.stderr


def test_validate_bad_file_exit_2(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{")
    result = run_cli(["validate", str(bad)])
    assert result.returncode == 2
    assert "error[bad-json]" in result.stderr
    result = run_cli(["validate", str(tmp_path / "missing.json")])
    assert result.returncode == 2


def test_usage_error_exit_2():
    result = run_cli(["solve"])
    assert result.returncode == 2
    result = run_cli(["frobnicate", "x"])
    assert result.returncode == 2


def test_reduce_output(campaign_files):
    gb, _ = campaign_files
    result = run_cli(["reduce", str(gb)])
    assert result.returncode == 0
    lines = result.stdout.splitlines()
    assert lines[0] == "|R| = 561, |R*| = 7"
    assert "appeal_1@(4,3)" in lines[1:]
    assert len(lines) == 8


def test_solve_approx_with_trace(campaign_files, tmp_path):
    _, bm = campaign_files
    trace = tmp_path / "trace.txt"
    result = run_cli(["solve", str(bm), "--method", "approx", "--delta", "0.001",
                      "--trace", str(trace)])
    assert result.returncode == 0
    assert "status: feasible" in result.stdout
    assert "benefit: 25.0" in result.stdout
    first = trace.read_text().splitlines()[0]
    assert first.startswith("delta=0.001 lambda=")
    lam = float(first.split("lambda=")[1].split()[0])
    assert abs(lam - 22.148) <= 0.01


def test_solve_exact_gbgop(campaign_files):
    gb, _ = campaign_files
    result = run_cli(["solve", str(gb), "--method", "exact", "--json"])
    assert result.returncode == 0
    payload = json.loads(result.stdout)
    assert payload["status"] == "optimal"
    assert payload["cardinality"] == 3
    assert payload["proven_optimal"] is True


def test_solve_infeasible_exit_1(tmp_path):
    doc = {
        "format": "gop-instance", "version": 1,
        "map": {"M": 0, "N": 0}, "predicates": ["g"], "state": [],
        "actions": [], "cost": {"default": 1.0, "rules": [], "overrides": []},
        "ics": [],
        "problem": {"type": "gbgop", "budget": 1.0,
                    "theta_in": [["g", [0, 0]]], "theta_out": []},
    }
    path = tmp_path / "impossible.json"
    path.write_text(json.dumps(doc))
    result = run_cli(["solve", str(path), "--method", "exact"])
    assert result.returncode == 1
    assert "status: infeasible" in result.stdout
    result = run_cli(["solve", str(path), "--method", "ip"])
    assert result.returncode == 1


def test_solve_ip_agrees_with_exact_on_non_dyadic_costs(tmp_path):
    # A (cost 0.1, benefit 1) and B (cost 0.3, benefit 2) under budget 0.3
    doc = {
        "format": "gop-instance", "version": 1,
        "map": {"M": 0, "N": 0}, "predicates": ["a", "b"], "state": [],
        "actions": [{"name": "A", "explicit": [[[0, 0], [["a", [0, 0]]]]]},
                    {"name": "B", "explicit": [[[0, 0], [["b", [0, 0]]]]]}],
        "cost": {"default": 0.0, "rules": [],
                 "overrides": [[["A", [0, 0]], 0.1], [["B", [0, 0]], 0.3]]},
        "benefit": {"per_predicate": {"a": 1.0, "b": 2.0}},
        "ics": [],
        "problem": {"type": "bmgop", "k": 2, "budget": 0.3},
    }
    path = tmp_path / "non_dyadic.json"
    path.write_text(json.dumps(doc))
    via_ip = run_cli(["solve", str(path), "--method", "ip"])
    exact = run_cli(["solve", str(path), "--method", "exact"])
    assert via_ip.returncode == exact.returncode == 0
    assert "pairs: B@(0,0)\n" in via_ip.stdout
    assert "benefit: 2.0\n" in via_ip.stdout
    assert via_ip.stdout == exact.stdout.replace("method: exact", "method: ip")


def test_solve_approx_on_gbgop_is_usage_error(campaign_files):
    gb, _ = campaign_files
    result = run_cli(["solve", str(gb), "--method", "approx"])
    assert result.returncode == 2


def test_emit_lp(campaign_files, tmp_path):
    gb, bm = campaign_files
    out = tmp_path / "model.lp"
    result = run_cli(["emit-lp", str(gb), "--reduced", "-o", str(out)])
    assert result.returncode == 0
    text = out.read_text()
    assert text.startswith("\\ binary integer program\nMinimize")
    assert "X_appeal_1_4_3" in text
    assert text.endswith("End\n")
    out2 = tmp_path / "model2.lp"
    result = run_cli(["emit-lp", str(bm), "-o", str(out2)])
    assert result.returncode == 0
    assert "Maximize" in out2.read_text()


def test_encode_and_count_and_solve(tmp_path):
    cover = tmp_path / "cover.json"
    cover.write_text(json.dumps({"universe": [1, 2, 3],
                                 "families": [[1, 2], [2, 3], [3]]}))
    out = tmp_path / "cover_inst.json"
    assert run_cli(["encode", "set-cover", str(cover), "-o", str(out)]).returncode == 0
    result = run_cli(["solve", str(out), "--method", "exact", "--json"])
    assert json.loads(result.stdout)["cardinality"] == 2

    cnf = tmp_path / "cnf.json"
    cnf.write_text(json.dumps({"atoms": ["x1", "x2"], "clauses": [["x1", "x2"]]}))
    out2 = tmp_path / "cnf_inst.json"
    assert run_cli(["encode", "monsat", str(cnf), "-o", str(out2)]).returncode == 0
    result = run_cli(["count", str(out2)])
    assert result.returncode == 0
    assert result.stdout == "3\n"

    mkc = tmp_path / "mkc.json"
    mkc.write_text(json.dumps({"universe": [1, 2, 3, 4, 5],
                               "families": [[1, 2, 3], [3, 4], [4, 5], [1]],
                               "k": 2}))
    out3 = tmp_path / "mkc_inst.json"
    assert run_cli(["encode", "max-k-cover", str(mkc), "-o", str(out3)]).returncode == 0
    result = run_cli(["solve", str(out3), "--method", "exact", "--json"])
    assert json.loads(result.stdout)["benefit"] == 5.0


def test_gen_random_cli_deterministic(tmp_path):
    a = tmp_path / "a.json"
    b = tmp_path / "b.json"
    assert run_cli(["gen", "random", "--seed", "7", "-o", str(a)]).returncode == 0
    assert run_cli(["gen", "random", "--seed", "7", "-o", str(b)], env_seed="2").returncode == 0
    assert a.read_bytes() == b.read_bytes()


@pytest.mark.parametrize("size, value", [pytest.param("--predicates", "0", id="--predicates"),
                                         pytest.param("--actions", "0", id="--actions"),
                                         pytest.param("--ics", "-1", id="--ics")])
def test_gen_random_cli_rejects_zero_sizes_exit_2(tmp_path, size, value):
    out = tmp_path / "inst.json"
    result = run_cli(["gen", "random", "--seed", "0", size, value, "-o", str(out)])
    assert result.returncode == 2
    assert result.stderr.startswith("error[gen-guard]: ")
    assert "Traceback" not in result.stderr
    assert not out.exists()


def test_bench_cli(tmp_path):
    bench_dir = tmp_path / "suite"
    bench_dir.mkdir()
    for i, k in enumerate((2, 3)):
        doc = tmp_path / f"p{i}.json"
        doc.write_text(json.dumps({"universe": [1, 2, 3, 4],
                                   "families": [[1, 2], [2, 3], [3, 4]],
                                   "k": k}))
        assert run_cli(["encode", "max-k-cover", str(doc),
                        "-o", str(bench_dir / f"inst{i}.json")]).returncode == 0
    report = tmp_path / "report.json"
    result = run_cli(["bench", str(bench_dir), "-o", str(report)])
    assert result.returncode == 0
    assert "timings:" in result.stdout
    payload = json.loads(report.read_text())
    assert len(payload["records"]) == 2
    assert all(r["within_bound"] for r in payload["records"])


@pytest.mark.parametrize("kind, code", [("missing", "no-such-file"), ("file", "io")])
def test_bench_cli_without_a_directory_exit_2(tmp_path, kind, code):
    path = tmp_path / "suite"
    if kind == "file":
        path.write_text("{}")
    result = run_cli(["bench", str(path)])
    assert result.returncode == 2
    assert result.stderr.startswith(f"error[{code}]: ")
    assert result.stdout == ""


def test_bench_cli_json_report_on_a_bound_violation(tmp_path, monkeypatch, capsys):
    # A guarantee above every possible ratio makes each record a violation:
    # --json still prints the report as JSON, the error goes to stderr, and
    # the exit code stays 1.
    bench_dir = tmp_path / "suite"
    bench_dir.mkdir()
    inst = encode_max_k_cover(CoverProblem(universe=(1, 2, 3, 4),
                                           families=(frozenset({1, 2}), frozenset({3, 4})), k=2))
    (bench_dir / "inst0.json").write_text(serialize_instance(inst))
    monkeypatch.setattr(gops.bench, "approx_bound", lambda inst, delta: 2.0)
    report = tmp_path / "report.json"
    assert main(["bench", str(bench_dir), "--json", "-o", str(report)]) == 1
    out, err = capsys.readouterr()
    payload = json.loads(out)
    assert payload == json.loads(report.read_text())
    assert [(r["instance_id"], r["within_bound"]) for r in payload["records"]] == [
        ("inst0.json", False)]
    assert err.startswith("error[bound-violation]: ")


@pytest.mark.parametrize("command", [["solve", "{doc}", "--method", "approx"],
                                     ["emit-lp", "{doc}", "-o", "{lp}"]])
def test_out_of_memory_ends_in_an_error_line(campaign_files, tmp_path, monkeypatch, capsys,
                                             command):
    # a large map in a small document can ask grounding for more memory
    # than there is; the run ends with a line and exit 2, not a traceback
    def exhausted(self, problem):
        raise MemoryError
    monkeypatch.setattr(Grounding, "__init__", exhausted)
    _, bm = campaign_files
    lp = tmp_path / "program.lp"
    assert main([arg.format(doc=bm, lp=lp) for arg in command]) == 2
    out, err = capsys.readouterr()
    assert out == "" and not lp.exists()
    assert err == ("error[out-of-memory]: the instance needs more memory than this "
                   "process can have\n")


def test_bench_cli_under_a_limit_writes_its_partial_report(tmp_path, campaign_files):
    # the small cover finishes within 50 nodes, the campaign (302) does not
    _, bm = campaign_files
    bench_dir = tmp_path / "suite"
    bench_dir.mkdir()
    small = encode_max_k_cover(CoverProblem(universe=(1, 2, 3, 4),
                                            families=(frozenset({1, 2}), frozenset({3, 4})), k=2))
    (bench_dir / "a_small.json").write_text(serialize_instance(small))
    (bench_dir / "campaign_bmgop.json").write_text(bm.read_text())
    report = tmp_path / "report.json"
    result = run_cli(["bench", str(bench_dir), "--max-nodes", "50", "-o", str(report)])
    assert result.returncode == 3
    assert result.stderr.startswith("error[limit-reached]: ")
    assert "timings:" in result.stdout and "a_small.json" in result.stdout
    payload = json.loads(report.read_text())
    assert [r["instance_id"] for r in payload["records"]] == ["a_small.json"]


def test_limit_reached_exit_3(campaign_files):
    _, bm = campaign_files
    result = run_cli(["solve", str(bm), "--method", "exact", "--max-nodes", "10"])
    assert result.returncode == 3
    assert "error[limit-reached]" in result.stderr


def test_solve_ip_with_no_start_at_a_node_limit_of_0_finds_none_exit_3(campaign_files, tmp_path):
    # with k = 0 the program has no start, so the search stops with no answer
    _, bm = campaign_files
    doc = json.loads(bm.read_text())
    doc["problem"]["k"] = 0
    path = tmp_path / "k0.json"
    path.write_text(json.dumps(doc))
    result = run_cli(["solve", str(path), "--method", "ip", "--max-nodes", "0"])
    assert result.returncode == 3
    assert result.stdout == "method: ip\nstatus: limit_reached\nsolution: none found before the limit\n"


def test_solve_ip_time_limit_holds_on_slow_root_steps_exit_3(tmp_path):
    # the map-ladder's r17-14 instance, whose root steps take milliseconds
    # each, ends near its time limit
    path = tmp_path / "r17-14.json"
    assert main(["gen", "random", "--seed", "3726236712", "--width", "17", "--height", "17",
                 "--predicates", "3", "--actions", "3", "--radius", "3", "--ics", "2",
                 "--problem", "bmgop", "-o", str(path)]) == 0
    start = time.perf_counter()
    result = run_cli(["solve", str(path), "--method", "ip", "--max-seconds", "0.5"])
    assert time.perf_counter() - start < 3.0
    assert result.returncode == 3
    assert result.stdout.startswith("method: ip\nstatus: limit_reached\n")
    assert "Traceback" not in result.stderr


@pytest.mark.parametrize("method, limit", [
    pytest.param("ip", ["--max-seconds", "nan"], id="--max-seconds nan"),
    pytest.param("ip", ["--max-seconds", "-1"], id="--max-seconds -1"),
    pytest.param("ip", ["--max-nodes", "-1"], id="--max-nodes -1"),
    pytest.param("approx", ["--max-nodes", "-5"], id="approx --max-nodes -5"),
    pytest.param("approx", ["--max-seconds", "nan"], id="approx --max-seconds nan")])
def test_out_of_range_limits_exit_2(campaign_files, method, limit):
    # a later --max-nodes overrides 5000, which only ends a run that takes a bad limit
    _, bm = campaign_files
    result = run_cli(["solve", str(bm), "--method", method, "--max-nodes", "5000", *limit])
    assert result.returncode == 2
    assert result.stderr.startswith("error[limit-range]: ")
    assert result.stdout == ""


@pytest.mark.parametrize("variant, cap", [("gbgop", 30), ("bmgop", 100)])
def test_solve_exact_at_a_limit_reports_its_best_so_far(campaign_files, variant, cap):
    # gbgop proves its optimum at node 66 and finds its first cover at 7;
    # bmgop needs 302 nodes
    gb, bm = campaign_files
    path = gb if variant == "gbgop" else bm
    result = run_cli(["solve", str(path), "--method", "exact", "--max-nodes", str(cap),
                      "--json"])
    assert result.returncode == 3
    assert result.stderr.startswith("error[limit-reached]: node budget exhausted")
    payload = json.loads(result.stdout)
    assert payload["status"] == "limit_reached" and payload["proven_optimal"] is False
    inst = parse_instance(path.read_text())
    pairs = {ActionPointPair(name, Point(*xy)) for name, xy in payload["pairs"]}
    assert len(pairs) == payload["cardinality"] > 0
    check = validate_gbgop if variant == "gbgop" else validate_bmgop
    assert check(inst, pairs) == []


def test_solve_exact_proves_the_campaign_optimum_under_the_node_cap(campaign_files):
    _, bm = campaign_files
    result = run_cli(["solve", str(bm), "--method", "exact", "--max-nodes", "5000", "--json"])
    assert result.returncode == 0
    payload = json.loads(result.stdout)
    assert payload["status"] == "optimal" and payload["benefit"] == 25


def test_reader_closing_the_pipe_ends_quietly_with_the_documented_code(tmp_path):
    # 200 goal atoms, each made by its own action with a 1000-character name:
    # the reduction keeps all 200 pairs and lists them in over 200 KB, more
    # than a pipe holds, so the child is still writing when the pipe closes
    n = 200
    doc = {
        "format": "gop-instance", "version": 1,
        "map": {"M": 0, "N": 0}, "predicates": [f"e{i}" for i in range(n)], "state": [],
        "actions": [{"name": f"{i:04d}" + "a" * 1000, "explicit": [[[0, 0], [[f"e{i}", [0, 0]]]]]}
                    for i in range(n)],
        "cost": {"default": 0.5, "rules": [], "overrides": []},
        "ics": [],
        "problem": {"type": "gbgop", "budget": 1.0,
                    "theta_in": [[f"e{i}", [0, 0]] for i in range(n)], "theta_out": []},
    }
    path = tmp_path / "wide.json"
    path.write_text(json.dumps(doc))
    child = subprocess.Popen([sys.executable, "-m", "gops", "reduce", str(path), "--json"],
                             stdout=subprocess.PIPE, stderr=subprocess.PIPE)
    assert child.stdout.read(16) == b'{\n  "r_size": 20'
    child.stdout.close()
    stderr = child.stderr.read().decode()
    assert child.wait() == 0
    assert stderr == ""


def test_io_errors_exit_2(campaign_files, tmp_path):
    gb, _ = campaign_files
    result = run_cli(["solve", str(tmp_path)])
    assert result.returncode == 2
    assert result.stderr.startswith("error[io]: ")
    assert "Traceback" not in result.stderr
    result = run_cli(["emit-lp", str(gb), "-o", str(tmp_path)])
    assert result.returncode == 2
    assert result.stderr.startswith("error[io]: ")
    assert "Traceback" not in result.stderr


def test_solve_ip_proves_the_campaign_optimum_under_the_node_cap(campaign_files):
    # the greedy's selection is the start, and the root's bound proves it
    _, bm = campaign_files
    result = run_cli(["solve", str(bm), "--method", "ip", "--max-nodes", "5000", "--json"])
    assert result.returncode == 0
    report = json.loads(result.stdout)
    assert (report["status"], report["benefit"], report["proven_optimal"]) == ("optimal", 25, True)


def test_solve_ip_deeper_than_the_recursion_limit_exit_3(campaign_files, tmp_path):
    # With a benefit of 0.1 no power of two divides the objective, so the
    # root cannot prove the start and the search runs. On a 41 x 31 map
    # the program has 2,334 variables: its first leaf is node 2,335.
    _, bm = campaign_files
    doc = json.loads(bm.read_text())
    doc["map"] = {"M": 40, "N": 30}
    doc["benefit"]["per_predicate"] = {"exposure": 0.1}
    path = tmp_path / "tenth.json"
    path.write_text(json.dumps(doc))
    result = run_cli(["solve", str(path), "--method", "ip", "--max-nodes", "5000"])
    assert result.returncode == 3
    assert result.stdout.startswith("method: ip\nstatus: limit_reached\npairs: ")
    assert "Traceback" not in result.stderr


def test_cli_outputs_are_byte_identical_across_hash_seeds(campaign_files, tmp_path):
    gb, bm = campaign_files
    invocations = [
        ["validate", str(gb)],
        ["reduce", str(gb)],
        ["reduce", str(gb), "--json"],
        ["solve", str(gb), "--method", "exact", "--json"],
        ["solve", str(bm), "--method", "approx", "--json"],
    ]
    for args in invocations:
        first = run_cli(args, env_seed="101")
        second = run_cli(args, env_seed="202")
        assert first.stdout == second.stdout, args
        assert first.returncode == second.returncode


_ONE_POINT = {
    "format": "gop-instance", "version": 1,
    "map": {"M": 1, "N": 1}, "predicates": ["g"], "state": [],
    "actions": [{"name": "act", "effect": "g", "source_guard": "true", "target_guard": "true"}],
    "cost": {"default": 0.5}, "ics": [],
    "problem": {"type": "gbgop", "budget": 1.0, "theta_in": [], "theta_out": []},
}

# part -> (its new value, the error): sets with several bad items, each named
# by the least bad item in repr order
MULTI_FAULTS = {
    "state": ({"state": [[f"q{i}", [0, 0]] for i in (3, 1, 0, 2)]},
              "error[unknown-predicate]: initial state: unknown predicate 'q0'"),
    "theta_in": ({"problem": dict(_ONE_POINT["problem"],
                                  theta_in=[["g", [x, 0]] for x in (4, 2, 3)])},
                 "error[point-bounds]: goal atoms (theta_in): point (2,0) outside the map"),
    "ic": ({"ics": [{"pairs": [[f"z{i}", [0, 0]] for i in (2, 0, 1)], "condition": "true"}]},
           "error[unknown-action]: integrity constraint 0: unknown action 'z0'"),
}


@pytest.mark.parametrize("part", sorted(MULTI_FAULTS))
def test_validate_names_the_same_bad_item_under_every_hash_seed(tmp_path, part):
    # a set is walked in hash order, which changes with the hash seed
    change, message = MULTI_FAULTS[part]
    path = tmp_path / "faults.json"
    path.write_text(json.dumps(dict(_ONE_POINT, **change)))
    results = {(r.returncode, r.stderr)
               for r in (run_cli(["validate", str(path)], env_seed=str(seed)) for seed in range(1, 7))}
    assert results == {(2, message + "\n")}


def test_capped_run_without_an_assignment_says_so(campaign_files):
    # a one-node cap stops at the root, before the first leaf, so there is
    # no solution to list; the goal program has no start to fall back on
    gb, _ = campaign_files
    result = run_cli(["solve", str(gb), "--method", "ip", "--max-nodes", "1"])
    assert result.returncode == 3
    assert result.stdout == ("method: ip\nstatus: limit_reached\n"
                             "solution: none found before the limit\n")
    payload = json.loads(run_cli(["solve", str(gb), "--method", "ip", "--max-nodes", "1",
                                  "--json"]).stdout)
    assert payload["pairs"] == [] and payload["cardinality"] is None


def test_ip_and_emit_lp_refuse_initially_forbidden_atoms(tmp_path):
    # the goal a(1,0) has a producer, but the forbidden a(0,0) already holds
    doc = {
        "format": "gop-instance", "version": 1,
        "map": {"M": 1, "N": 0}, "predicates": ["a"], "state": [["a", [0, 0]]],
        "actions": [{"name": "mk", "explicit": [[[1, 0], [["a", [1, 0]]]]]}],
        "cost": {"default": 0.5, "rules": [], "overrides": []},
        "ics": [],
        "problem": {"type": "gbgop", "budget": 1,
                    "theta_in": [["a", [1, 0]]], "theta_out": [["a", [0, 0]]]},
    }
    path = tmp_path / "forbidden.json"
    path.write_text(json.dumps(doc))
    for method in ("exact", "ip"):
        result = run_cli(["solve", str(path), "--method", method])
        assert result.returncode == 1
        assert result.stdout.startswith(f"method: {method}\nstatus: infeasible\n")
    result = run_cli(["emit-lp", str(path), "-o", str(tmp_path / "model.lp")])
    assert result.returncode == 2
    assert result.stderr == ("error[initial-forbidden]: forbidden atoms already hold in the "
                             "initial state (no action deletes atoms): a(0,0)\n")
    assert not (tmp_path / "model.lp").exists()


def test_k_beyond_float_range_exit_2(campaign_files, tmp_path):
    _, bm = campaign_files
    doc = json.loads(bm.read_text())
    doc["problem"]["k"] = 10 ** 400
    path = tmp_path / "huge_k.json"
    path.write_text(json.dumps(doc))
    for args in (["solve", str(path), "--method", "approx"],
                 ["solve", str(path), "--method", "ip"],
                 ["emit-lp", str(path), "-o", str(tmp_path / "model.lp")]):
        result = run_cli(args)
        assert result.returncode == 2
        assert result.stderr == "error[k-range]: k is too large for a float\n"


def test_a_map_too_wide_to_ground_exit_2(tmp_path):
    # validation indexes only the listed items; grounding needs a bit per
    # point, so the solvers refuse the map instead of overflowing
    doc = {
        "format": "gop-instance", "version": 1,
        "map": {"M": 10 ** 20, "N": 0}, "predicates": ["g"], "state": [],
        "actions": [{"name": "mk", "explicit": [[[0, 0], [["g", [0, 0]]]]]}],
        "cost": {"default": 0.5, "rules": [], "overrides": []},
        "ics": [],
        "problem": {"type": "gbgop", "budget": 1.0,
                    "theta_in": [["g", [0, 0]]], "theta_out": []},
    }
    path = tmp_path / "wide.json"
    path.write_text(json.dumps(doc))
    assert run_cli(["validate", str(path)]).returncode == 0
    for args in (["solve", str(path)], ["reduce", str(path)],
                 ["emit-lp", str(path), "-o", str(tmp_path / "model.lp")]):
        result = run_cli(args)
        assert result.returncode == 2
        assert result.stderr.startswith("error[map-size]: ")
        assert result.stderr.count("\n") == 1
    result = run_cli(["count", str(path)])
    assert result.returncode == 2
    assert result.stderr.startswith("error[count-guard]: ")


@pytest.mark.parametrize("command", ["validate", "solve", "reduce", "emit-lp", "count", "bench",
                                     "encode"])
def test_an_input_file_that_is_not_utf_8_exit_2(tmp_path, command):
    # a UTF-16 byte order mark: JSON text is UTF-8 (RFC 8259)
    path = tmp_path / "suite" / "doc.json"
    path.parent.mkdir()
    path.write_bytes(b"\xff\xfe{\x00}\x00")
    args = {"bench": ["bench", str(path.parent)],
            "encode": ["encode", "set-cover", str(path), "-o", str(tmp_path / "out.json")],
            "emit-lp": ["emit-lp", str(path), "-o", str(tmp_path / "out.lp")]}
    result = run_cli(args.get(command, [command, str(path)]))
    assert result.returncode == 2
    assert result.stderr == f"error[encoding]: {path} is not UTF-8 text: byte 0: invalid start byte\n"
    assert result.stdout == "" and not (tmp_path / "out.json").exists()


def test_an_input_file_is_read_as_utf_8_in_any_locale(campaign_files, tmp_path):
    gb, _ = campaign_files
    doc = json.loads(gb.read_text())
    doc["actions"][0]["name"] = "café"  # no pair names this action; written as UTF-8
    path = tmp_path / "utf8.json"
    path.write_bytes(json.dumps(doc, ensure_ascii=False).encode("utf-8"))
    env = dict(os.environ, LC_ALL="C", PYTHONUTF8="0")  # an ASCII locale encoding
    result = subprocess.run([sys.executable, "-m", "gops", "validate", str(path)],
                            capture_output=True, text=True, env=env)
    assert (result.returncode, result.stdout, result.stderr) == (0, "ok: gbgop instance\n", "")


_ASCII_LOCALE = {"LC_ALL": "C", "PYTHONUTF8": "0"}


def _renamed_campaign(campaign_files, tmp_path, name):
    """The campaign bmgop document with its action ``nor``, which the
    greedy picks, renamed ``name``; the document is ASCII, its non-ASCII
    characters JSON escapes."""
    _, bm = campaign_files
    doc = json.loads(bm.read_text())
    [action] = [a for a in doc["actions"] if a["name"] == "nor"]
    action["name"] = name
    path = tmp_path / "renamed.json"
    path.write_text(json.dumps(doc), encoding="ascii")
    return path


def _run_bytes(args, cwd, locale=None):
    env = dict(os.environ, PYTHONHASHSEED="1", **(locale or {"PYTHONUTF8": "1"}))
    return subprocess.run([sys.executable, "-m", "gops", *args],
                          capture_output=True, env=env, cwd=cwd)


@pytest.mark.parametrize("flags", [["--trace", "trace.txt"], [], ["--json"]])
def test_reports_and_traces_are_utf_8_in_any_locale(campaign_files, tmp_path, flags):
    # an ASCII locale and UTF-8 mode print the same bytes and write the
    # same trace; neither ends in a traceback
    path = _renamed_campaign(campaign_files, tmp_path, "café")
    outputs = []
    for locale in (_ASCII_LOCALE, None):
        run = tmp_path / ("ascii" if locale else "utf8")
        run.mkdir()
        result = _run_bytes(["solve", str(path), "--method", "approx", *flags], run, locale)
        assert (result.returncode, result.stderr) == (0, b"")
        trace = (run / "trace.txt").read_bytes().decode("utf-8") if flags[:1] == ["--trace"] \
            else None
        outputs.append((result.stdout, trace))
    stdout, trace = outputs[0]
    assert outputs[1] == outputs[0]
    assert ("caf\\u00e9" if flags == ["--json"] else "café") in stdout.decode("utf-8")
    assert trace is None or "chosen=café@" in trace


def test_error_lines_are_utf_8_in_any_locale(campaign_files, tmp_path):
    # an ASCII locale and UTF-8 mode print the same error bytes, the name
    # as UTF-8, not as a backslash escape
    _, bm = campaign_files
    doc = json.loads(bm.read_text())
    doc["ics"][0]["pairs"][0][0] = "café"
    path = tmp_path / "unknown.json"
    path.write_text(json.dumps(doc), encoding="ascii")
    for locale in (_ASCII_LOCALE, None):
        result = _run_bytes(["validate", str(path)], tmp_path, locale)
        assert (result.returncode, result.stdout) == (2, b"")
        assert result.stderr == ("error[unknown-action]: integrity constraint 0: "
                                 "unknown action 'café'\n").encode("utf-8")


def test_a_name_no_utf_8_holds_is_printed_escaped(campaign_files, tmp_path):
    # a JSON "\ud800" escape reads as a lone surrogate, which no UTF-8
    # encodes: the report and the trace show it as a backslash escape
    path = _renamed_campaign(campaign_files, tmp_path, "\ud800")
    for locale in (_ASCII_LOCALE, None):
        result = _run_bytes(["solve", str(path), "--method", "approx", "--trace", "trace.txt"],
                            tmp_path, locale)
        assert (result.returncode, result.stderr) == (0, b"")
        assert b"pairs: \\ud800@(" in result.stdout
        assert "chosen=\\ud800@(" in (tmp_path / "trace.txt").read_bytes().decode("utf-8")


def test_a_file_name_the_locale_cannot_decode_is_printed_as_it_was(tmp_path):
    # an ASCII locale reads the name's UTF-8 bytes as surrogate escapes;
    # the bench report gives the bytes back, not escapes
    suite = tmp_path / "suite"
    suite.mkdir()
    inst = encode_max_k_cover(CoverProblem(universe=(1, 2, 3, 4),
                                           families=(frozenset({1, 2}), frozenset({3, 4})), k=2))
    (suite / "café.json").write_text(serialize_instance(inst), encoding="utf-8")
    result = _run_bytes(["bench", str(suite)], tmp_path, _ASCII_LOCALE)
    assert (result.returncode, result.stderr) == (0, b"")
    assert "\ncafé.json " in result.stdout.decode("utf-8")


def test_encode_refuses_a_bool_k_exit_2(tmp_path):
    problem = tmp_path / "problem.json"
    problem.write_text(json.dumps({"universe": [1, 2], "families": [[1], [2]], "k": True}))
    out = tmp_path / "inst.json"
    result = run_cli(["encode", "max-k-cover", str(problem), "-o", str(out)])
    assert result.returncode == 2
    assert result.stderr == "error[cover-k]: k must be in 1..number of families\n"
    assert not out.exists()


@pytest.mark.parametrize("text,code", [
    ('{"universe": [1], "families": [[1]], "k": ' + "1" * 4301 + "}", "number-range"),
    ("[" * 100000, "too-deep"),
], ids=["4301-digit-integer", "100000-deep-array"])
def test_encode_refuses_a_document_json_cannot_read_exit_2(tmp_path, text, code):
    problem = tmp_path / "problem.json"
    problem.write_text(text)
    out = tmp_path / "inst.json"
    result = run_cli(["encode", "set-cover", str(problem), "-o", str(out)])
    assert result.returncode == 2
    assert result.stderr.startswith(f"error[{code}]: ")
    assert "Traceback" not in result.stderr
    assert not out.exists()


def test_a_solving_process_loads_no_generator_encoder_or_bench_module():
    # gen, encode and bench import their modules themselves; the package
    # loads their names on first use, and `import gops.bench` still works
    code = ("import sys, gops.cli; "
            "print(*(m for m in sys.modules if m.split('.')[0] == 'gops')); "
            "from gops import gen_campaign, CoverProblem, run_bench; import gops.bench; "
            "print(gen_campaign.__module__, CoverProblem.__module__, gops.bench.run_bench is run_bench)")
    result = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert result.returncode == 0, result.stderr
    loaded, names = result.stdout.splitlines()
    assert "gops.core" in loaded.split()
    assert not {"gops.scenarios", "gops.encodings", "gops.bench"} & set(loaded.split())
    assert names == "gops.scenarios gops.encodings True"
    import gops
    with pytest.raises(AttributeError):
        gops.no_such_name
