"""Version 3 of the instance format: version 2 with every explicit action
written as ``{"name": ..., "explicit": true}`` and all explicit rows of a
document in one top-level ``explicit`` table of three flat lists
(``ExplicitRows``): ``pairs``, the canonical pair indices ``k * n_points +
point``, strictly ascending; ``ends``, each row's end in ``atoms``,
ascending; and ``atoms``, each row's atom indices, strictly ascending.

Every instance written at versions 1, 2 and 3 (the older two by
``legacy_text``) parses to equal instances, and each version round-trips
to its own bytes. A version-3 table's views equal the tables the
entry-by-entry version-2 reader builds, and its grounding
(``effect``, ``meeting``, ``producers`` and the filled ``effects``) equals
the set-based ``action_effects`` for every pair. Every malformed
version-3 document ends in a ``ParseError`` with a code and the path of
its first faulty item, whether the C-level checks or the row-by-row
reader find it."""

import copy
import dataclasses
import hashlib
import json
import random

import pytest

from gops import (parse_instance, reduce_to_r_star, serialize, serialize_instance,
                  solve_gbgop_exact, solve_gbgop_ip)
from gops.core import EffectTable
from gops.errors import GopsError, ParseError, UncoverableAtomsError
from gops.serialize import instance_to_json

from helpers import (cover_rows_by_scan, golden_corpus, goal_corpus, legacy_text,
                     reference_grounding_of, text_at)

GROUNDING_TABLES = ("s0_mask", "effects", "costs", "benefits", "ic_s0", "pair_ics")
CORPUS = list(golden_corpus())


def _one_by_one(monkeypatch, text):
    """``text`` parsed with ``_rows_fit`` refusing: a version-3 table read
    row by row."""
    with monkeypatch.context() as patch:
        patch.setattr(serialize, "_rows_fit", lambda *args: False)
        return parse_instance(text)


def test_the_three_versions_parse_to_equal_instances_and_round_trip():
    tables = 0
    for inst in CORPUS:
        texts = {version: text_at(inst, version) for version in (1, 2, 3)}
        read = {version: parse_instance(text) for version, text in texts.items()}
        for version, again in read.items():
            assert json.loads(texts[version])["version"] == version
            assert again.s0 == inst.s0 and list(again.s0) == list(inst.s0)
            assert again.actions == inst.actions
            assert (again.cost_model, again.ics) == (inst.cost_model, inst.ics)
            assert again.explicit_rows == inst.explicit_rows
            for name in GROUNDING_TABLES:
                assert getattr(again.grounding, name) == getattr(inst.grounding, name), name
            # each read writes every version's bytes
            for other, text in texts.items():
                assert text_at(again, other) == text
        tables += sum(rule.explicit_effects is not None for rule in inst.actions)
    assert tables > 300


def test_the_views_equal_the_tables_the_one_by_one_reader_builds():
    views = 0
    for inst in CORPUS:
        v3 = parse_instance(serialize_instance(inst))
        v2 = parse_instance(legacy_text(inst, 2))  # read entry by entry
        for view, table in zip(v3.actions, v2.actions):
            if table.explicit_effects is None:
                assert view.explicit_effects is None
                continue
            view, table = view.explicit_effects, table.explicit_effects
            assert type(view) is type(table) is EffectTable
            assert view._part[0] is v3.explicit_rows and table._part is None
            assert view.rows == table.rows and list(view.rows) == sorted(table.rows)
            assert view == table and dict(view) == dict(table) and len(view) == len(table)
            views += 1
    assert views > 300


def test_the_row_by_row_reader_reads_what_the_checks_accept(monkeypatch):
    for inst in CORPUS[::5]:
        text = serialize_instance(inst)
        again = _one_by_one(monkeypatch, text)
        assert again.actions == inst.actions and again.explicit_rows == inst.explicit_rows
        assert serialize_instance(again) == text


def _masks(inst, g, rng):
    atoms = range(g.n_atoms)
    masks = [0, (1 << g.n_atoms) - 1, inst.theta_in_mask, inst.theta_out_mask]
    masks += [sum(1 << a for a in rng.sample(atoms, rng.randint(1, min(6, len(atoms)))))
              for _ in range(4)]
    return masks


@pytest.mark.parametrize("flavor", ["gbgop", "bmgop"])
def test_a_version_3_grounding_equals_the_set_based_effects(flavor):
    rng = random.Random(3)
    checked = 0
    for inst in CORPUS:
        if flavor not in type(inst).__name__.lower():
            continue
        read = parse_instance(serialize_instance(inst))
        full = reference_grounding_of(inst)["effects"]  # action_effects, pair by pair
        g = read.grounding
        if flavor == "gbgop":
            masks = _masks(read, g, rng)
        else:
            masks = [sum(1 << a for a in rng.sample(range(g.n_atoms), min(5, g.n_atoms)))]
        indices = sorted(rng.sample(range(g.n_pairs), (g.n_pairs + 1) // 2))
        for filled in (False, True):  # before and after the table is read
            assert g._filled or not filled
            assert list(map(g.effect, range(g.n_pairs))) == full
            for mask in masks:
                assert list(g.meeting(mask).items()) == [(i, e & mask) for i, e in enumerate(full)
                                                         if e & mask]
                want = cover_rows_by_scan(full, indices, mask, g.n_atoms)
                got = g.producers(indices, mask)
                assert {a: [indices[j] for j in pos] for a, pos in got.items()} \
                    == {a: rows for a, rows in want.items() if rows}
            assert g.effects == full
        checked += 1
    assert checked == len(CORPUS) // 2


def _gbgop_ops(inst):
    for run in (solve_gbgop_exact, solve_gbgop_ip, reduce_to_r_star):
        try:
            run(inst)
        except UncoverableAtomsError:
            pass


def test_a_goal_based_op_on_a_version_3_document_builds_only_the_rows_it_reads():
    # a gbgop op reads ``effect`` and ``meeting``; each explicit row they
    # return has its mask built once, kept as its entry of the table, and no
    # other entry is filled until ``effects`` is first read
    corpus = [inst for inst in goal_corpus(range(40), widths=(3, 7, 12))
              if inst.explicit_rows.pairs]
    assert len(corpus) > 40
    filled = total = 0
    for inst in corpus:
        read = parse_instance(serialize_instance(inst))
        g = read.grounding
        returned = set()
        meeting, effect = g.meeting, g.effect

        def read_meeting(mask):
            out = meeting(mask)
            returned.update(out)
            return out

        def read_effect(i):
            returned.add(i)
            return effect(i)

        g.meeting, g.effect = read_meeting, read_effect
        _gbgop_ops(read)
        full = reference_grounding_of(inst)["effects"]
        entries = {i for i, e in enumerate(g._effects) if e}
        assert entries <= returned and all(g._effects[i] == full[i] for i in entries)
        rows = set(read.explicit_rows.pairs)
        assert entries <= rows  # no rule-form block is filled
        filled, total = filled + len(entries), total + len(rows)
        assert g.effects == full
    assert 0 < filled < total / 4, (filled, total)


def test_the_version_3_layout():
    inst = CORPUS[13]
    doc = instance_to_json(inst)
    v2 = json.loads(legacy_text(inst, 2))
    keys = [*v2]
    keys.insert(keys.index("actions") + 1, "explicit")
    assert [*doc] == keys
    assert all(doc[key] == v2[key] for key in v2 if key not in ("version", "actions"))
    n_points = inst.grid.n_points
    pairs, ends, atoms = doc["explicit"]["pairs"], doc["explicit"]["ends"], doc["explicit"]["atoms"]
    rows = []
    for k, (rule, action, old) in enumerate(zip(inst.actions, doc["actions"], v2["actions"])):
        if rule.explicit_effects is None:
            assert action == old
            continue
        assert action == {"name": rule.name, "explicit": True}
        rows += [[k * n_points + point, row] for point, row in old["explicit"]]
    assert rows and pairs == [pair for pair, _ in rows]
    assert ends == [sum(len(row) for _, row in rows[:r + 1]) for r in range(len(rows))]
    assert atoms == [atom for _, row in rows for atom in row]
    # one top-level key a line, each value on its line as json.dumps writes it
    lines = serialize_instance(inst).split("\n")
    assert lines[0] == "{" and lines[-2:] == ["}", ""]
    assert lines[1:-2] == [f"  {json.dumps(key)}: {json.dumps(value)}" + ("," if i < len(doc) - 1
                                                                           else "")
                           for i, (key, value) in enumerate(doc.items())]


# A 3 x 3 map (9 points, 27 pairs for three actions) with predicates a, b
# (18 atoms): explicit action "e" (pairs 0-8), rule-form action "r" (pairs
# 9-17) and explicit action "f" (pairs 18-26). Rows: e at point 0 makes
# atoms 4 and 11, e at point 7 atom 15, f at point 4 atoms 1 and 2.
RULE = {"name": "r", "effect": "b", "source_guard": "true", "target_guard": "true",
        "metric": "euclidean"}
BASE = {
    "format": "gop-instance",
    "version": 3,
    "map": {"M": 2, "N": 2},
    "predicates": ["a", "b"],
    "state": [0, 11],
    "actions": [{"name": "e", "explicit": True}, RULE, {"name": "f", "explicit": True}],
    "explicit": {"pairs": [0, 7, 22], "ends": [2, 3, 5], "atoms": [4, 11, 15, 1, 2]},
    "cost": {"default": 0.5, "rules": [], "overrides": []},
    "ics": [],
    "problem": {"type": "gbgop", "budget": 1.0, "theta_in": [["b", [0, 2]]], "theta_out": []},
}


def _document(change=None):
    doc = copy.deepcopy(BASE)
    if change:
        change(doc)
    return json.dumps(doc)


def _rows(doc):
    return doc["explicit"]


def _set(key, i, value):
    return lambda d: _rows(d)[key].__setitem__(i, value)


def test_the_base_document_is_the_writers_own():
    inst = parse_instance(_document())
    assert json.loads(serialize_instance(inst)) == BASE
    e, f = (rule.explicit_effects for rule in inst.actions[::2])
    assert e.rows == {0: [4, 11], 7: [15]} and f.rows == {4: [1, 2]}
    g = inst.grounding
    assert g.effect(0) == 1 << 4 | 1 << 11 and g.effect(22) == 0b110 and g.effect(1) == 0
    assert list(g.meeting(1 << 4 | 1 << 1)) == [0, 22]
    # rule "r" makes every b atom from every point: its pairs fall between
    assert list(g.meeting(1 << 15 | 1 << 1)) == [7, *range(9, 18), 22]


def test_an_empty_row_is_kept_and_written_back():
    doc = json.loads(_document())
    doc["explicit"] = {"pairs": [0, 3, 7, 22], "ends": [2, 2, 3, 5], "atoms": [4, 11, 15, 1, 2]}
    inst = parse_instance(json.dumps(doc))
    assert inst.actions[0].explicit_effects.rows == {0: [4, 11], 3: [], 7: [15]}
    assert json.loads(serialize_instance(inst)) == doc


# case -> (document change, code, JSON path of the first faulty item)
ERRORS = {
    "explicit-missing": (lambda d: d.pop("explicit"), "missing-key", "$"),
    "explicit-in-a-version-2-document": (lambda d: d.update(version=2), "unknown-key", "$"),
    "explicit-not-an-object": (lambda d: d.update(explicit=[[0, 7], [2, 3], [4, 11]]), "type",
                               "$.explicit"),
    "explicit-without-ends": (lambda d: _rows(d).pop("ends"), "missing-key", "$.explicit"),
    "explicit-with-an-extra-key": (lambda d: _rows(d).update(rows=[]), "unknown-key",
                                   "$.explicit"),
    "pairs-not-a-list": (lambda d: _rows(d).update(pairs={"0": 0}), "type", "$.explicit.pairs"),
    "ends-a-string": (lambda d: _rows(d).update(ends="235"), "type", "$.explicit.ends"),
    "atoms-null": (lambda d: _rows(d).update(atoms=None), "type", "$.explicit.atoms"),
    # wrong types: a bool, a float, a string or a list where an index goes
    "pair-true": (_set("pairs", 1, True), "type", "$.explicit.pairs[1]"),
    "pair-float": (_set("pairs", 1, 7.0), "type", "$.explicit.pairs[1]"),
    "pair-string": (_set("pairs", 2, "22"), "type", "$.explicit.pairs[2]"),
    "pair-a-version-2-entry": (_set("pairs", 0, [0, [4, 11]]), "type", "$.explicit.pairs[0]"),
    "end-true": (_set("ends", 0, True), "type", "$.explicit.ends[0]"),
    "end-float": (_set("ends", 1, 3.0), "type", "$.explicit.ends[1]"),
    "atom-true": (_set("atoms", 1, True), "type", "$.explicit.atoms[1]"),
    "atom-false": (_set("atoms", 0, False), "type", "$.explicit.atoms[0]"),
    "atom-float": (_set("atoms", 4, 2.0), "type", "$.explicit.atoms[4]"),
    "atom-a-version-1-atom": (_set("atoms", 2, ["b", [0, 2]]), "type", "$.explicit.atoms[2]"),
    # out of range
    "pair-negative": (_set("pairs", 0, -1), "index-range", "$.explicit.pairs[0]"),
    "pair-is-the-pair-count": (_set("pairs", 2, 27), "index-range", "$.explicit.pairs[2]"),
    "pair-huge": (_set("pairs", 2, 2 ** 70), "index-range", "$.explicit.pairs[2]"),
    "end-negative": (_set("ends", 0, -1), "index-range", "$.explicit.ends[0]"),
    "end-past-the-atoms": (_set("ends", 2, 6), "index-range", "$.explicit.ends[2]"),
    "atom-negative": (_set("atoms", 3, -1), "index-range", "$.explicit.atoms[3]"),
    "atom-is-the-atom-count": (_set("atoms", 2, 18), "index-range", "$.explicit.atoms[2]"),
    "atom-huge": (_set("atoms", 1, 2 ** 70), "index-range", "$.explicit.atoms[1]"),
    # order
    "pair-repeated": (_set("pairs", 1, 0), "order", "$.explicit.pairs[1]"),
    "pairs-descending": (lambda d: _rows(d).update(pairs=[7, 0, 22]), "order",
                         "$.explicit.pairs[1]"),
    "ends-descending": (lambda d: _rows(d).update(ends=[3, 2, 5]), "order", "$.explicit.ends[1]"),
    "atom-repeated-in-a-row": (_set("atoms", 1, 4), "order", "$.explicit.atoms[1]"),
    "atoms-descending-in-a-row": (lambda d: _rows(d).update(atoms=[11, 4, 15, 1, 2]), "order",
                                  "$.explicit.atoms[1]"),
    # the lists' lengths
    "last-end-short-of-the-atoms": (_set("ends", 2, 4), "table-shape", "$.explicit.atoms[4]"),
    "an-atom-after-the-last-end": (lambda d: _rows(d)["atoms"].append(3), "table-shape",
                                   "$.explicit.atoms[5]"),
    "more-ends-than-pairs": (lambda d: _rows(d)["ends"].append(5), "table-shape",
                             "$.explicit.ends[3]"),
    "fewer-ends-than-pairs": (lambda d: _rows(d)["ends"].pop(), "table-shape", "$.explicit.ends"),
    # rows and markers against the actions' forms
    "row-of-a-rule-form-action": (_set("pairs", 1, 12), "action-form", "$.explicit.pairs[1]"),
    "row-beyond-the-last-action": (lambda d: d["actions"].pop(), "index-range",
                                   "$.explicit.pairs[2]"),
    "marker-on-a-rule-form-action": (lambda d: d["actions"][1].update(explicit=True),
                                     "unknown-key", "$.actions[1]"),
    "rule-form-action-that-lost-its-keys": (lambda d: d["actions"].__setitem__(1, {"name": "r"}),
                                            "missing-key", "$.actions[1]"),
    "marker-false": (lambda d: d["actions"][0].update(explicit=False), "type",
                     "$.actions[0].explicit"),
    "marker-one": (lambda d: d["actions"][2].update(explicit=1), "type", "$.actions[2].explicit"),
    "marker-a-version-2-table": (lambda d: d["actions"][0].update(explicit=[[0, [4, 11]]]),
                                 "type", "$.actions[0].explicit"),
    "marked-action-with-an-extra-key": (lambda d: d["actions"][2].update(metric="euclidean"),
                                        "unknown-key", "$.actions[2]"),
    "marked-action-name-not-a-string": (lambda d: d["actions"][2].update(name=5), "type",
                                        "$.actions[2].name"),
    # the first faulty item by row: pair, end, then the row's atoms
    "atom-of-row-0-before-pair-of-row-2": (
        lambda d: _set("pairs", 2, 27)(d) or _set("atoms", 0, True)(d), "type",
        "$.explicit.atoms[0]"),
    "pair-of-row-1-before-atom-of-row-1": (
        lambda d: _set("pairs", 1, 0)(d) or _set("atoms", 2, -1)(d), "order",
        "$.explicit.pairs[1]"),
    "an-action-fault-before-a-table-fault": (
        lambda d: d["actions"][1].update(effect=5) or _set("pairs", 0, -1)(d), "type",
        "$.actions[1].effect"),
}


@pytest.mark.parametrize("case", sorted(ERRORS))
def test_a_malformed_version_3_document_raises_a_parse_error_at_its_path(case):
    change, code, path = ERRORS[case]
    with pytest.raises(ParseError) as err:
        parse_instance(_document(change))
    assert err.value.code == code and err.value.path == path
    assert err.value.message.startswith(f"{path}: ")


# sha256 of the sorted messages (``str(err)``) of every case above, one a
# line; the version-3 reader's messages must not move
ERROR_MESSAGES_SHA256 = "727041ce96ad5579724e0d359d7715b9655e8819fee21d1b0dd7075e33849a00"


def test_malformed_version_3_messages_hold():
    messages = []
    for change, _, _ in ERRORS.values():
        with pytest.raises(ParseError) as err:
            parse_instance(_document(change))
        messages.append(str(err.value))
    text = "\n".join(sorted(messages))
    assert hashlib.sha256(text.encode()).hexdigest() == ERROR_MESSAGES_SHA256, text


def _outcome(text):
    try:
        inst = parse_instance(text)
    except GopsError as err:
        return ("error", type(err), err.code, getattr(err, "path", None), err.message)
    return ("instance", inst.actions, inst.explicit_rows, serialize_instance(inst))


_VALUES = (True, False, 0, 1, -1, 2.0, 0.5, 2 ** 70, "1", None, [], [0], {})


def _mutate(doc, rng):
    """One change to ``doc``'s explicit table: an item set to another
    value, swapped with its neighbour, dropped or repeated."""
    lists = [key for key in ("pairs", "ends", "atoms") if doc["explicit"][key]]
    items = doc["explicit"][rng.choice(lists)]
    i = rng.randrange(len(items))
    kind = rng.random()
    if kind < 0.4:
        items[i] = rng.choice(_VALUES + (items[i] + 1, items[i] - 1, items[-1]))
    elif kind < 0.6 and i + 1 < len(items):
        items[i], items[i + 1] = items[i + 1], items[i]
    elif kind < 0.8:
        del items[i]
    else:
        items.insert(i, items[i])


def test_the_checks_and_the_row_by_row_reader_agree_under_mutation(monkeypatch):
    rng = random.Random(36)
    bases = [json.loads(serialize_instance(inst)) for inst in CORPUS[:40]
             if inst.explicit_rows.pairs]
    kinds, codes = {"instance": 0, "error": 0}, set()
    for n in range(400):
        doc = copy.deepcopy(bases[n % len(bases)])
        _mutate(doc, rng)
        text = json.dumps(doc)
        fast = _outcome(text)
        with monkeypatch.context() as patch:
            patch.setattr(serialize, "_rows_fit", lambda *args: False)
            slow = _outcome(text)
        assert fast == slow, (n, text)
        kinds[fast[0]] += 1
        codes.add(fast[2] if fast[0] == "error" else None)
    # the sweep reaches both outcomes and the reader's codes
    assert min(kinds.values()) >= 20
    assert {"type", "index-range", "order", "table-shape", "action-form"} <= codes


def test_a_parsed_instance_keeps_the_readers_rows_and_a_copy_of_it_equal_ones():
    kept = 0
    for inst in CORPUS[:24]:
        read = parse_instance(serialize_instance(inst))
        if not read.explicit_rows.pairs:
            continue
        assert any(view._part[0] is read.explicit_rows
                   for view in (rule.explicit_effects for rule in read.actions) if view)
        assert read.explicit_rows.owner is None  # validation took them
        again = dataclasses.replace(read)
        assert again.explicit_rows == read.explicit_rows
        assert all(a.explicit_effects is b.explicit_effects
                   for a, b in zip(again.actions, read.actions))
        kept += 1
    assert kept > 12
