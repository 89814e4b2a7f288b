import hashlib
import json

import pytest

from gops import (GbgopInstance, gen_campaign, gen_random, parse_instance,
                  serialize_instance, validate_gbgop)
from gops.errors import InstanceError, ParseError
from gops.serialize import SolutionReport, report_for_bmgop, report_for_gbgop

from helpers import DUPLICATES, text_at

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


# the sha256 of the corpus below, versions 1 and 2 of each instance in
# turn (as ``legacy_text`` writes them, the bytes the package wrote), and
# of version 3 alone
CORPUS_SHA256 = "632a2be7e845187af0da324f853a500d20e32002b4a2a452666a4a96f4c28552"
CORPUS_V3_SHA256 = "ec5f829e9127373dc11190a8f92fbeef0aac296f5409530e3d3e2137dcadee15"


def test_the_writer_bytes_of_a_seeded_corpus_hold_and_round_trip():
    # 362 instances: the campaign's two, then random maps with overrides and
    # constraints; no byte may depend on the hash seed or on how the writer
    # orders the items
    scenario = gen_campaign()
    corpus = [scenario.gbgop, scenario.bmgop]
    corpus += [gen_random(seed=seed, width=w, height=w, predicates=3, actions=3, radius=2.0,
                          ics=3, problem=problem)
               for seed in range(60) for problem in ("gbgop", "bmgop") for w in (1, 3, 6)]
    digest, v3 = hashlib.sha256(), hashlib.sha256()
    for inst in corpus:
        for version in (1, 2, 3):
            text = text_at(inst, version)
            assert text_at(parse_instance(text), version) == text
            (v3 if version == 3 else digest).update(text.encode())
    assert digest.hexdigest() == CORPUS_SHA256
    assert v3.hexdigest() == CORPUS_V3_SHA256


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


@pytest.mark.parametrize("text,code", [
    (_doc().replace('"M": 0', '"M": ' + "1" * 4301), "number-range"),
    ("[" * 100000, "too-deep"),
], ids=["4301-digit-integer", "100000-deep-array"])
def test_what_json_cannot_read_is_a_parse_error(text, code):
    # json.loads raises ValueError and RecursionError for these
    with pytest.raises(ParseError) as err:
        parse_instance(text)
    assert err.value.code == code


def test_rejects_version_and_format_mismatch():
    with pytest.raises(ParseError) as err:
        parse_instance(_doc(version=99))
    assert err.value.code == "version"
    with pytest.raises(ParseError) as err:
        parse_instance(_doc(format="other"))
    assert err.value.code == "format"


@pytest.mark.parametrize("version", [True, 2.0, 1.0, "2"])
def test_a_version_that_only_equals_a_version_number_is_a_type_error(version):
    with pytest.raises(ParseError) as err:
        parse_instance(_doc(version=version))
    assert (err.value.code, err.value.path) == ("type", "$.version")


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


# a guard, a cost rule and a constraint condition in every documented
# formula form, nested: and, or, not, template and ground atoms, "true"
NESTED = {
    "format": "gop-instance",
    "version": 1,
    "map": {"M": 2, "N": 1},
    "predicates": ["p", "q"],
    "state": [["p", [0, 0]], ["p", [2, 1]], ["q", [1, 0]]],
    "actions": [{"name": "go", "effect": "q",
                 "source_guard": {"or": [{"and": [{"atom": "p"}, {"not": {"atom": "q"}}]},
                                         {"atom": ["q", [1, 0]]}]},
                 "target_guard": {"and": ["true", {"not": {"or": [{"atom": "q"}]}}]},
                 "max_distance": 1.5, "metric": "euclidean"}],
    "cost": {"default": 0.5,
             "rules": [[{"and": [{"atom": "p"}, {"or": [{"atom": ["q", [1, 0]]},
                                                        {"not": "true"}]}]}, 0.25],
                       [{"or": [{"not": {"atom": "p"}}, {"and": []}]}, 0.75]],
             "overrides": []},
    "ics": [{"pairs": [["go", [0, 0]], ["go", [2, 1]]],
             "condition": {"or": [{"not": {"atom": ["q", [0, 0]]}},
                                  {"and": [{"atom": ["p", [2, 1]]}, {"or": []}]}]}}],
    "problem": {"type": "gbgop", "budget": 2.0,
                "theta_in": [["q", [2, 1]]], "theta_out": []},
}


def test_nested_formulas_round_trip_and_ground_alike():
    inst = parse_instance(json.dumps(NESTED))
    text = serialize_instance(inst)
    assert json.loads(text)["actions"][0]["source_guard"] == NESTED["actions"][0]["source_guard"]
    assert json.loads(text)["cost"]["rules"] == NESTED["cost"]["rules"]
    assert json.loads(text)["ics"][0]["condition"] == NESTED["ics"][0]["condition"]
    again = parse_instance(text)
    assert serialize_instance(again) == text
    g, h = inst.grounding, again.grounding
    for table in ("s0_mask", "effects", "costs", "ic_s0", "pair_ics"):
        assert getattr(g, table) == getattr(h, table), table
    assert any(g.effects) and g.ic_s0  # the guards and the condition are not vacuous
    assert len(set(g.costs)) == 2


@pytest.mark.parametrize("formula, code, path", [
    ({"and": [], "or": []}, "bad-formula", "$.actions[0].target_guard"),
    ({"xor": []}, "bad-formula", "$.actions[0].target_guard"),
    ({"and": 5}, "type", "$.actions[0].target_guard.and"),
    ({"not": {"or": ["true", {"nand": []}]}}, "bad-formula",
     "$.actions[0].target_guard.not.or[1]"),
])
def test_malformed_formula_codes_and_paths(formula, code, path):
    doc = json.loads(json.dumps(NESTED))
    doc["actions"][0]["target_guard"] = formula
    with pytest.raises(ParseError) as err:
        parse_instance(json.dumps(doc))
    assert (err.value.code, err.value.path) == (code, path)
