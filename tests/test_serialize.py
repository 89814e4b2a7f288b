import json

import pytest

from gops import (GbgopInstance, gen_campaign, gen_random, parse_instance,
                  serialize_instance, validate_gbgop)
from gops.errors import InstanceError, ParseError
from gops.serialize import SolutionReport, report_for_bmgop, report_for_gbgop

from helpers import DUPLICATES

MINIMAL = {
    "format": "gop-instance",
    "version": 1,
    "map": {"M": 0, "N": 0},
    "predicates": ["g"],
    "state": [],
    "actions": [],
    "cost": {"default": 0.5, "rules": [], "overrides": []},
    "ics": [],
    "problem": {"type": "gbgop", "budget": 1.0, "theta_in": [], "theta_out": []},
}


def _doc(**changes):
    doc = json.loads(json.dumps(MINIMAL))
    doc.update(changes)
    return json.dumps(doc)


def test_minimal_document_round_trips():
    inst = parse_instance(_doc())
    assert isinstance(inst, GbgopInstance)
    text = serialize_instance(inst)
    again = parse_instance(text)
    assert serialize_instance(again) == text


def test_campaign_round_trips_both_variants():
    scenario = gen_campaign()
    for inst in (scenario.gbgop, scenario.bmgop):
        text = serialize_instance(inst)
        again = parse_instance(text)
        assert serialize_instance(again) == text
    parsed = parse_instance(serialize_instance(scenario.gbgop))
    assert parsed.grid.n_points == 187
    assert len(parsed.actions) == 3


def test_random_instances_round_trip():
    for seed in range(25):
        for problem in ("gbgop", "bmgop"):
            inst = gen_random(seed=seed, width=1, height=2, predicates=3,
                              actions=3, problem=problem)
            text = serialize_instance(inst)
            assert serialize_instance(parse_instance(text)) == text


def test_rejects_goal_overlap_with_code():
    doc = _doc(problem={"type": "gbgop", "budget": 1.0,
                        "theta_in": [["g", [0, 0]]], "theta_out": [["g", [0, 0]]]})
    with pytest.raises(InstanceError) as err:
        parse_instance(doc)
    assert err.value.code == "goal-overlap"


def test_rejects_unknown_keys():
    with pytest.raises(ParseError) as err:
        parse_instance(_doc(surprise=1))
    assert err.value.code == "unknown-key"
    doc = json.loads(_doc())
    doc["map"]["depth"] = 3
    with pytest.raises(ParseError) as err:
        parse_instance(json.dumps(doc))
    assert err.value.code == "unknown-key"
    assert "$.map" in err.value.message


def test_rejects_bad_json_with_position():
    with pytest.raises(ParseError) as err:
        parse_instance("{\n  \"format\": oops\n}")
    assert err.value.code == "bad-json"
    assert "line 2" in err.value.message


def test_rejects_version_and_format_mismatch():
    with pytest.raises(ParseError) as err:
        parse_instance(_doc(version=99))
    assert err.value.code == "version"
    with pytest.raises(ParseError) as err:
        parse_instance(_doc(format="other"))
    assert err.value.code == "format"


def test_rejects_out_of_range_cost_with_code():
    doc = _doc(cost={"default": 1.5, "rules": [], "overrides": []})
    with pytest.raises(InstanceError) as err:
        parse_instance(doc)
    assert err.value.code == "cost-range"


def test_rejects_out_of_bounds_point_with_code():
    doc = _doc(state=[["g", [5, 5]]])
    with pytest.raises(InstanceError) as err:
        parse_instance(doc)
    assert err.value.code == "point-bounds"


def test_rejects_unknown_problem_type():
    doc = _doc(problem={"type": "maximize-vibes"})
    with pytest.raises(ParseError) as err:
        parse_instance(doc)
    assert err.value.code == "problem-type"


def test_benefit_section_rules():
    # goal-based documents must not carry benefits
    doc = _doc(benefit={"per_predicate": {"g": 1.0}})
    with pytest.raises(ParseError) as err:
        parse_instance(doc)
    assert err.value.code == "unknown-key"
    # benefit-maximizing documents require one
    doc = _doc(problem={"type": "bmgop", "k": 1, "budget": 1.0})
    with pytest.raises(ParseError) as err:
        parse_instance(doc)
    assert err.value.code == "missing-key"


@pytest.mark.parametrize("kind", sorted(DUPLICATES))
def test_rejects_duplicate_entries_at_the_repeat(kind):
    # a later entry must not silently replace an earlier one
    text, path = DUPLICATES[kind]
    with pytest.raises(ParseError) as err:
        parse_instance(text)
    assert err.value.code == "duplicate"
    assert err.value.path == path


def test_template_atoms_in_guards_parse():
    doc = json.loads(_doc())
    doc["actions"] = [{"name": "go", "effect": "g",
                       "source_guard": "true",
                       "target_guard": {"not": {"atom": "g"}},
                       "max_distance": 1.0, "metric": "manhattan"}]
    inst = parse_instance(json.dumps(doc))
    assert inst.actions[0].max_distance == 1.0
    text = serialize_instance(inst)
    assert json.loads(text)["actions"][0]["target_guard"] == {"not": {"atom": "g"}}


def test_ground_ic_condition_required():
    doc = json.loads(_doc())
    doc["actions"] = [{"name": "go", "effect": "g", "source_guard": "true",
                       "target_guard": "true"}]
    doc["ics"] = [{"pairs": [["go", [0, 0]]], "condition": {"atom": "g"}}]
    with pytest.raises(InstanceError) as err:
        parse_instance(json.dumps(doc))
    assert err.value.code == "ic-not-ground"


def test_solution_reports_revalidate():
    scenario = gen_campaign()
    from gops import solve_gbgop_exact, bmgop_compute
    sol = solve_gbgop_exact(scenario.gbgop)
    report = report_for_gbgop("exact", "optimal", sol, scenario.gbgop)
    assert validate_gbgop(scenario.gbgop, set(report.pairs)) == []
    payload = report.to_json()
    assert payload["proven_optimal"] is True
    assert payload["cardinality"] == 3

    greedy, trace = bmgop_compute(scenario.bmgop)
    report = report_for_bmgop("approx", "feasible", greedy, scenario.bmgop,
                              trace_path="t.txt")
    payload = report.to_json()
    assert payload["benefit"] == 25.0
    assert payload["trace"] == "t.txt"
    assert "bound" in payload and payload["bound"] is not None


def test_text_report_without_an_assignment():
    capped = SolutionReport(method="ip", status="limit_reached")
    assert capped.to_text() == ("method: ip\nstatus: limit_reached\n"
                                "solution: none found before the limit\n")
    # a capped run with an incumbent, and a genuine empty solution, list their pairs
    incumbent = SolutionReport(method="exact", status="limit_reached", cardinality=0, cost=0.0)
    assert incumbent.to_text() == ("method: exact\nstatus: limit_reached\npairs: \n"
                                   "cardinality: 0\ncost: 0.0\nproven-optimal: no\n")
    empty = SolutionReport(method="exact", status="optimal", cardinality=0, cost=0.0,
                           proven_optimal=True)
    assert empty.to_text() == ("method: exact\nstatus: optimal\npairs: \n"
                               "cardinality: 0\ncost: 0.0\nproven-optimal: yes\n")
