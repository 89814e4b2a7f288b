"""Seeded mutations of valid documents end in a result or a GopsError.

Each mutation changes one to three nodes of a valid instance document: the
campaign and small ``gen_random`` maps, both flavours, written at format
versions 2 and 1 (``legacy_text``). The mutated text then goes through
parse, grounding, the instance writer and a parse of what it wrote, every
solver, the reports and ``emit_lp``; nothing but a
``GopsError`` may escape any of them. Each solver runs under small
``Limits``, so every run is time-boxed. A map's width and height are never
raised, nor copied from elsewhere: a larger map asks for memory that grows
with its area, which this sweep does not test.
"""

import copy
import json
import random

import pytest

from gops import (GbgopInstance, GopsError, Limits, bmgop_compute, build_bmgop_ip,
                  build_gbgop_ip, count_gbgop_solutions, emit_lp, gen_campaign, gen_random,
                  parse_instance, reduce_to_r_star, serialize_instance, solve_bmgop_exact,
                  solve_bmgop_ip, solve_gbgop_exact, solve_gbgop_ip)
from gops.serialize import report_for

from helpers import legacy_text

MUTATIONS = 1500
LIMITS = Limits(max_nodes=300, max_seconds=0.25)
# values a node may become: every JSON type, empty and odd containers,
# out-of-range and non-finite numbers
VALUES = (None, True, False, 0, -1, 1, 2, 3, 0.5, -0.5, 1e308, float("nan"), float("inf"),
          "", "x", "p0", "a0", [], {}, [0], [0, 0], [[0, [0]]], {"x": 0})
# what a map dimension may become: nothing larger than it was
MAP_VALUES = (None, True, 0, -1, 0.5, 1, "", "x", [], {}, float("nan"))


def documents():
    """(name, text) of every base document: campaign and three small
    random maps, each as both flavours, at format versions 2 and 1."""
    campaign = gen_campaign()
    instances = [("campaign-gbgop", campaign.gbgop), ("campaign-bmgop", campaign.bmgop)]
    for seed, size in ((0, 3), (1, 4), (2, 5)):
        for problem in ("gbgop", "bmgop"):
            instances.append((f"r{seed}-{problem}", gen_random(
                seed=seed, width=size, height=size, radius=1.5, ics=2, problem=problem)))
    return [(f"{name}-v{version}", legacy_text(inst, version))
            for name, inst in instances for version in (2, 1)]


def _walk(rng, doc, stop=0.25):
    """A random path into ``doc``: from the root, stop at each container
    with probability ``stop``, else go on into one of its children."""
    path, node = [], doc
    while isinstance(node, (dict, list)) and node and (not path or rng.random() >= stop):
        key = rng.choice(list(node)) if isinstance(node, dict) else rng.randrange(len(node))
        path.append(key)
        node = node[key]
    return path


def mutate(rng, doc):
    """Change one node of ``doc`` in place; returns what was done."""
    kind = rng.choice(("replace", "nudge", "nudge", "delete", "delete", "duplicate", "swap",
                       "add-key"))
    path = _walk(rng, doc, 0 if kind == "nudge" else 0.25)  # a number is a leaf
    if not path:
        return "root kept"
    parent = doc
    for key in path[:-1]:
        parent = parent[key]
    key = path[-1]
    on_map = path[0] == "map"
    value = parent[key]
    if kind == "nudge" and type(value) in (int, float) and not on_map:
        parent[key] = rng.choice((value - 1, value + 1, 0, -value, value * 2, value / 2))
    elif kind == "swap" and isinstance(parent, list):
        other = rng.randrange(len(parent))
        parent[key], parent[other] = parent[other], value
    elif kind == "delete":
        del parent[key]
    elif kind == "duplicate" and isinstance(parent, list) and not on_map:
        parent.insert(key, copy.deepcopy(parent[key]))
    elif kind == "add-key" and isinstance(parent, dict):
        parent[rng.choice(("extra", "name", "k", "version", "benefit"))] = rng.choice(VALUES)
    elif on_map:
        parent[key] = rng.choice(MAP_VALUES)
    elif rng.random() < 0.2:  # a copy of another node of the document
        other = _walk(rng, doc)
        if other[:1] != ["map"]:
            node = doc
            for step in other:
                node = node[step]
            parent[key] = copy.deepcopy(node)
    else:
        parent[key] = copy.deepcopy(rng.choice(VALUES))
    return f"{kind} at {path}"


def _guarded(step, run):
    """Run one pipeline step; a GopsError is a clean end, anything else fails."""
    try:
        return run()
    except GopsError:
        return None
    except Exception as err:  # noqa: BLE001 - this is what the sweep hunts
        pytest.fail(f"{step} raised {type(err).__name__}: {err}")


def run_pipeline(text):
    """Every documented step on one document text; the instance, or None
    when parsing refused it."""
    inst = _guarded("parse", lambda: parse_instance(text))
    if inst is None:
        return None
    if _guarded("grounding", lambda: inst.grounding) is None:
        return inst
    written = _guarded("serialize", lambda: serialize_instance(inst))
    if written is not None:
        _guarded("parse of the written text", lambda: parse_instance(written))
    if isinstance(inst, GbgopInstance):
        _guarded("reduce", lambda: reduce_to_r_star(inst))
        _guarded("count", lambda: count_gbgop_solutions(inst, cap=100))
        solvers = {"exact": lambda: solve_gbgop_exact(inst, limits=LIMITS),
                   "ip": lambda: solve_gbgop_ip(inst, limits=LIMITS)[0]}
        builders = (lambda: build_gbgop_ip(inst), lambda: build_gbgop_ip(inst, use_reduction=True))
    else:
        solvers = {"exact": lambda: solve_bmgop_exact(inst, limits=LIMITS),
                   "ip": lambda: solve_bmgop_ip(inst, limits=LIMITS)[0],
                   "approx": lambda: bmgop_compute(inst)[0]}
        builders = (lambda: build_bmgop_ip(inst),)
    for method, solve in solvers.items():
        sol = _guarded(method, solve)
        if sol is not None:
            report = _guarded(f"{method} report",
                              lambda: report_for(method, "optimal", sol, inst))
            if report is not None:
                _guarded(f"{method} report text", lambda: (report.to_json(), report.to_text()))
    for build in builders:
        model = _guarded("ip build", build)
        if model is not None:
            _guarded("emit_lp", lambda: emit_lp(model))
    return inst


def test_base_documents_pass_the_whole_pipeline():
    for name, text in documents():
        assert run_pipeline(text) is not None, name


def test_mutated_documents_end_in_a_result_or_a_gops_error():
    rng = random.Random("mutation-sweep")
    bases = [(name, json.loads(text)) for name, text in documents()]
    parsed = 0
    for t in range(MUTATIONS):
        name, base = bases[t % len(bases)]
        doc = copy.deepcopy(base)
        done = [mutate(rng, doc) for _ in range(rng.randint(1, 3))]
        text = json.dumps(doc)
        try:
            parsed += run_pipeline(text) is not None
        except pytest.fail.Exception as failure:
            pytest.fail(f"{name}, mutation {t}: {'; '.join(done)}: {failure}")
    # the sweep reaches the solvers, not only the parser's refusals
    assert parsed > MUTATIONS // 20
