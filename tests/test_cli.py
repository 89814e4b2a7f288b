import json
import os
import subprocess
import sys

import pytest

from gops.cli import main

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


def test_limit_reached_exit_3(campaign_files):
    _, bm = campaign_files
    result = run_cli(["solve", str(bm), "--method", "exact", "--max-nodes", "10"])
    assert result.returncode == 3
    assert "error[limit-reached]" in result.stderr


def test_solve_ip_deeper_than_the_recursion_limit_exit_3(campaign_files):
    _, bm = campaign_files
    result = run_cli(["solve", str(bm), "--method", "ip", "--max-seconds", "2"])
    assert result.returncode == 3
    assert result.stdout.startswith("method: ip\nstatus: limit_reached\n")
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


def test_capped_run_without_an_assignment_says_so(campaign_files):
    # the search stops before its first leaf, so there is no solution to list
    _, bm = campaign_files
    result = run_cli(["solve", str(bm), "--method", "ip", "--max-seconds", "2"])
    assert result.returncode == 3
    assert result.stdout == ("method: ip\nstatus: limit_reached\n"
                             "solution: none found before the limit\n")
    payload = json.loads(run_cli(["solve", str(bm), "--method", "ip", "--max-seconds", "2",
                                  "--json"]).stdout)
    assert payload["pairs"] == [] and payload["cardinality"] is None
