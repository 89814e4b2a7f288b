"""The version-2 reader checks and builds a document's explicit actions in
bulk (``serialize._explicit_rules``), and reads the actions one by one only
when a bulk check refuses. Both paths must read every document alike: the
same actions and bytes from a well-formed one, the same error from a
malformed one. Each document here is parsed twice, once as it is and once
with the bulk path forced to refuse."""

import copy
import json
import random

import pytest

from gops import gen_campaign, gen_random, parse_instance, serialize_instance
from gops import serialize
from gops.core import EffectTable
from gops.encodings import (CoverProblem, MonotoneCnf, encode_max_k_cover, encode_monsat,
                            encode_set_cover)
from gops.errors import GopsError


def _campaign():
    scenario = gen_campaign()
    return [scenario.gbgop, scenario.bmgop]


def _mixed():
    """gen_random instances whose actions mix explicit tables and rules."""
    out = []
    for seed in range(40):
        inst = gen_random(seed=seed, width=4, height=3, predicates=3, actions=4, radius=1.5,
                          ics=2, problem=("gbgop", "bmgop")[seed % 2])
        forms = {rule.explicit_effects is None for rule in inst.actions}
        if forms == {True, False}:
            out.append(inst)
    assert len(out) >= 8
    return out


def _encodings():
    rng = random.Random(11)
    universe = tuple(range(10))
    families = tuple(frozenset(rng.sample(universe, rng.randint(1, 4))) for _ in range(7))
    families += (frozenset(universe[:5]), frozenset(universe[5:]))
    return [encode_set_cover(CoverProblem(universe=universe, families=families)),
            encode_max_k_cover(CoverProblem(universe=universe, families=families, k=3)),
            encode_monsat(MonotoneCnf(("x0", "x1", "x2"),
                                      (frozenset({"x0", "x1"}), frozenset({"x2"}),
                                       frozenset({"x1", "x2"}))))]


def _actions_of(inst):
    """Each action's name and form, its table's rows or its rule."""
    return [(rule.name, "explicit", rule.explicit_effects.rows)
            if rule.explicit_effects is not None else (rule.name, "rule", rule)
            for rule in inst.actions]


def _outcome(text):
    """What parsing ``text`` gives: the instance's actions and bytes, or
    the error's class, code, path and message."""
    try:
        inst = parse_instance(text)
    except GopsError as err:
        return ("error", type(err), err.code, getattr(err, "path", None), err.message)
    return ("instance", _actions_of(inst), serialize_instance(inst, version=2))


def _both(text, monkeypatch):
    """The outcome of ``text`` by the bulk path, and with it refused."""
    bulk = _outcome(text)
    with monkeypatch.context() as patch:
        patch.setattr(serialize, "_explicit_rules", lambda *args: None)
        one_by_one = _outcome(text)
    return bulk, one_by_one


@pytest.mark.parametrize("corpus", [_campaign, _mixed, _encodings])
def test_both_paths_read_well_formed_documents_alike(corpus, monkeypatch):
    accepted = []
    real = serialize._explicit_rules

    def spy(*args):
        rules = real(*args)
        accepted.append(rules is not None)
        return rules

    monkeypatch.setattr(serialize, "_explicit_rules", spy)
    for inst in corpus():
        text = serialize_instance(inst, version=2)
        bulk, one_by_one = _both(text, monkeypatch)
        assert bulk[0] == "instance" and bulk == one_by_one
        assert bulk[2] == text
        for rule in parse_instance(text).actions:
            if rule.explicit_effects is not None:
                assert type(rule.explicit_effects) is EffectTable
    assert accepted and all(accepted)  # the bulk path read every document


# index-shaped values that are not a valid index somewhere
_BAD_INDICES = (True, False, 1.0, 0.5, -1, 2 ** 70, "0", None, [0], {})
_ANY_VALUES = (True, 1.5, -1, 0, "x", "", None, [], [0], [[0, []]], {}, {"a": 1}, "ab")
_EXTRA_KEYS = (("metric", "euclidean"), ("effect", "p0"), ("max_distance", 1.0),
               ("source_guard", "true"), ("other", 1))


def _nodes(value, path=()):
    """Every node of a JSON value, as (path from the value, node)."""
    yield path, value
    if isinstance(value, list):
        for i, item in enumerate(value):
            yield from _nodes(item, path + (i,))
    elif isinstance(value, dict):
        for key, item in value.items():
            yield from _nodes(item, path + (key,))


def _set(doc, path, value):
    holder = doc
    for key in path[:-1]:
        holder = holder[key]
    holder[path[-1]] = value


def _mutate(doc, rng):
    """One one-node change of ``doc``'s actions, often in its last one."""
    actions = doc["actions"]
    explicit = [i for i, a in enumerate(actions) if "explicit" in a]
    i = len(actions) - 1 if rng.random() < 0.3 else rng.choice(explicit or range(len(actions)))
    action = actions[i]
    path, node = rng.choice(list(_nodes(action)))
    kind = rng.random()
    if isinstance(node, dict) and kind < 0.5:
        if rng.random() < 0.5 and node:
            del node[rng.choice(sorted(node))]
        else:
            key, value = rng.choice(_EXTRA_KEYS)
            node[key] = value
    elif isinstance(node, list) and node and path and path[-1] == "explicit" and kind < 0.5:
        # repeat a point, with the same or another row
        entry = copy.deepcopy(rng.choice(node))
        if isinstance(entry, list) and entry and rng.random() < 0.5:
            entry[-1] = []
        node.insert(rng.randrange(len(node) + 1), entry)
    elif type(node) is int and kind < 0.7:
        n_points = (doc["map"]["M"] + 1) * (doc["map"]["N"] + 1)
        bad = _BAD_INDICES + (n_points, n_points * len(doc["predicates"]), float(node))
        # or a valid point or atom index, which may repeat a point or an atom
        _set(actions, (i,) + path, rng.choice(bad + (rng.randrange(n_points),) * 4))
    elif not path:
        actions[i] = rng.choice(_ANY_VALUES)
    else:
        _set(actions, (i,) + path, rng.choice(_ANY_VALUES))


def test_both_paths_give_the_same_instance_or_error_under_mutation(monkeypatch):
    rng = random.Random(2024)
    bases = [json.loads(serialize_instance(inst, version=2))
             for inst in _mixed()[:6] + _encodings()]
    kinds = {"instance": 0, "error": 0}
    codes = set()
    for n in range(400):
        doc = copy.deepcopy(bases[n % len(bases)])
        _mutate(doc, rng)
        text = json.dumps(doc)
        bulk, one_by_one = _both(text, monkeypatch)
        assert bulk == one_by_one, (n, text)
        kinds[bulk[0]] += 1
        if bulk[0] == "error":
            codes.add(bulk[2])
    # the sweep reaches both outcomes and the reader's codes
    assert min(kinds.values()) >= 40
    assert {"type", "index-range", "duplicate", "unknown-key", "missing-key"} <= codes
