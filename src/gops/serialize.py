"""Instance documents: a strict JSON format holding every input of a
placement problem (map, predicates, initial state, actions, costs,
benefits, integrity constraints, goal or benefit problem section).

Parsing is strict: unknown keys are rejected, every error carries a code
and the JSON path of the offender. Three versions are read; the writer
writes version 3 only. They differ only in the initial state and the
explicit effect tables:

- Version 3 writes the state as version 2 does, each explicit action as
  ``{"name": ..., "explicit": true}``, and every explicit row of the
  document in one top-level ``"explicit": {"pairs": [...], "ends":
  [...], "atoms": [...]}`` table (``ExplicitRows``): row ``r`` is the
  effect of canonical pair ``pairs[r]`` (``k * n_points + point`` for
  action ``k``), the atom indices ``atoms[ends[r - 1]:ends[r]]``. Pairs
  ascend strictly, ends ascend to ``len(atoms)`` (an empty row repeats
  the end before it), and each row's atoms ascend strictly. The reader
  checks the three lists in a few C-level passes (``_rows_fit``: types,
  pairwise order, ranges from the ends of ascending runs), keeps them on
  the instance as they are, and makes each explicit action's table a view
  of its block's rows (``EffectTable``); no row may lie in a rule-form
  action's block. When a check refuses, the table is read again row by
  row (``_read_rows``: a row's pair, its end, then its atoms), so the
  ``ParseError`` names the first faulty item's path, e.g.
  ``$.explicit.atoms[7]``. A marker other than ``true`` is a type error,
  and a marked action with rule-form keys an unknown key.
- Version 2 holds the state as the ascending atom indices ``k * (M + 1)
  * (N + 1) + y * (M + 1) + x`` (``k`` the predicate's position), and each
  table in its action as ``[[point index, [atom index, ...]], ...]`` with
  point index ``y * (M + 1) + x``. The reader reads each table entry by
  entry (``_v2_table``), a row's atoms checked in C-level passes and read
  one by one only when those refuse, so the first faulty entry names its
  error. Every index of version 2 or 3 is held to ``core._fits``, the
  package's one integer rule, which instances built in code meet too.
- Version 1 holds every atom as [name, [x, y]]. Each entry shape has one
  reader, for atoms and pairs alike: a point, a [name, [x, y]] item, a
  set of items, a list of [key, value] entries (``_read_entries``, which
  also reads the cost rules and, in either older version, an explicit
  table). A well-formed point or item passes one inline shape check; only
  a malformed one goes through the step-by-step checks that name its
  error, and only then is its path built. The initial state and each
  explicit effect table are read this way, as ``GroundAtom`` objects, and
  the instance indexes the state and each table once as it validates
  them, so version 1 reads several times slower.

``serialize_instance(parse_instance(text))`` rewrites a version-1 or -2
document at version 3. Every other section is the same in all versions.
Serialization is canonical (fixed key order, every item table written from
the canonical indices that validation keeps, in index order, every
coordinate as an integer, shortest round-tripping numbers), so equal
instances produce identical bytes and ``parse(serialize(x))`` reproduces
``x``. Each top-level key is on a line of its own, written by ``json``'s C
encoder.
"""

import json
from bisect import bisect_left
from dataclasses import dataclass
from functools import partial
from itertools import compress, count, repeat
from operator import add, eq, ge, is_, itemgetter, le, lt, mul, sub
from typing import Optional

from .bmgop import BmgopInstance
from .core import (ActionPointPair, ActionRule, AndFormula, AtomFormula, AtomSet,
                   BenefitModel, CostModel, EffectTable, ExplicitRows, Formula, GridMap,
                   GroundAtom, IntegrityConstraint, NotFormula, OrFormula, Point, TRUE,
                   TrueFormula, _block_point, _fit, _fits)
from .errors import ParseError
from .gbgop import GbgopInstance

FORMAT_NAME = "gop-instance"
FORMAT_VERSION = 3  # what the writer writes
VERSIONS = (1, 2, 3)  # what the reader reads


# ---------------------------------------------------------------------------
# Parsing

def _expect(value, kind, path, what):
    if kind is float:
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            raise ParseError("type", f"expected a number for {what}", path)
        try:
            return float(value)
        except OverflowError:
            raise ParseError("number-range", f"{what} is too large", path) from None
    if kind is int:
        if isinstance(value, bool) or not isinstance(value, int):
            raise ParseError("type", f"expected an integer for {what}", path)
        return value
    if not isinstance(value, kind):
        raise ParseError("type", f"expected {kind.__name__} for {what}", path)
    return value


def _require_keys(obj, path, required, optional=()):
    for key in obj:
        if key not in required and key not in optional:
            raise ParseError("unknown-key", f"unknown key {key!r}", path)
    for key in required:
        if key not in obj:
            raise ParseError("missing-key", f"missing key {key!r}", path)


# builds a well-formed point, atom or pair without the NamedTuple
# constructor's Python-level frame; parse_instance on 44 x 44 gen_random
# documents takes about a tenth less time with it
_new = tuple.__new__


def _at(path, index):
    """The JSON path of item ``index`` of the list at ``path``, or of
    ``path`` itself when ``index`` is None."""
    return path if index is None else f"{path}[{index}]"


def _parse_point(value, path, index=None) -> Point:
    """The point of an [x, y] list; an entry of list ``path`` when
    ``index`` is given, so the path is built only for an error."""
    if type(value) is list and len(value) == 2:
        x, y = value
        if type(x) is int and type(y) is int:
            return _new(Point, (x, y))
    path = _at(path, index)
    value = _expect(value, list, path, "a point")
    if len(value) != 2:
        raise ParseError("type", "a point is a two-element [x, y] list", path)
    return Point(_expect(value[0], int, path, "x"), _expect(value[1], int, path, "y"))


# kind -> (what one is, the name it starts with, what that name is)
_NAMED = {GroundAtom: ("a ground atom", "predicate", "a predicate name"),
          ActionPointPair: ("an action-point pair", "action", "an action name")}


def _parse_named(kind, value, path, index=None):
    """The ``kind`` (GroundAtom or ActionPointPair) of a [name, [x, y]]
    list; ``path`` and ``index`` as for ``_parse_point``."""
    if type(value) is list and len(value) == 2:
        name, point = value
        if type(name) is str and type(point) is list and len(point) == 2:
            x, y = point
            if type(x) is int and type(y) is int:
                return _new(kind, (name, _new(Point, (x, y))))
    path = _at(path, index)
    what, head, name_what = _NAMED[kind]
    value = _expect(value, list, path, what)
    if len(value) != 2:
        raise ParseError("type", f"{what} is [{head}, [x, y]]", path)
    return kind(_expect(value[0], str, path, name_what), _parse_point(value[1], path))


def _parse_set(kind, value, path, what) -> frozenset:
    """The ``kind`` items of the [name, [x, y]] list ``value`` at ``path``,
    as a frozenset; ``what`` names the list in its type error."""
    return frozenset(_parse_named(kind, item, path, i)
                     for i, item in enumerate(_expect(value, list, path, what)))


def _read_entries(entries: list, path: str, what: str, shape: str, read_key, read_value,
                  repeat=None) -> list:
    """The (key, value) of each [key, value] entry of the list ``entries``
    at ``path``, in order: the one loop that reads the cost rules, the
    override tables and the explicit tables read entry by entry. An entry
    that is not a list raises a type error naming ``what``, one of other
    than two items the type error ``shape``; then ``read_key(item, entry
    path)`` reads its key and ``read_value(item, entry path)`` its value.
    Given ``repeat(key)``, a key read twice raises ``duplicate`` with that
    message at the repeat, before its value is read."""
    out, seen = [], set()
    for i, entry in enumerate(entries):
        entry_path = f"{path}[{i}]"
        entry = _expect(entry, list, entry_path, what)
        if len(entry) != 2:
            raise ParseError("type", shape, entry_path)
        key = read_key(entry[0], entry_path)
        if repeat is not None:
            if key in seen:
                raise ParseError("duplicate", repeat(key), entry_path)
            seen.add(key)
        out.append((key, read_value(entry[1], entry_path)))
    return out


def _parse_overrides(kind, section: dict, what: str) -> dict:
    """{``kind`` item: value} from the [[name, [x, y]], value] entries of
    the ``overrides`` list of section ``what`` ("cost" or "benefit"); an
    item given twice raises ``duplicate`` at the repeat."""
    path = f"$.{what}.overrides"
    return dict(_read_entries(
        _expect(section.get("overrides", []), list, path, f"{what} overrides"), path,
        f"a {what} override", f"a {what} override is [[{_NAMED[kind][1]}, [x, y]], {what}]",
        partial(_parse_named, kind), lambda value, at: _expect(value, float, at, f"a {what}"),
        lambda item: f"{item} already has a {what} override"))


def _parse_formula(value, path) -> Formula:
    if value == "true":
        return TRUE
    value = _expect(value, dict, path, "a formula")
    if len(value) != 1:
        raise ParseError("bad-formula", "a formula object has exactly one key", path)
    key, body = next(iter(value.items()))
    if key == "atom":
        if isinstance(body, str):
            return AtomFormula(body, None)
        return AtomFormula(*_parse_named(GroundAtom, body, f"{path}.atom"))
    if key == "not":
        return NotFormula(_parse_formula(body, f"{path}.not"))
    if key in ("and", "or"):
        body = _expect(body, list, f"{path}.{key}", "a formula list")
        children = tuple(_parse_formula(c, f"{path}.{key}[{i}]") for i, c in enumerate(body))
        return AndFormula(children) if key == "and" else OrFormula(children)
    raise ParseError("bad-formula", f"unknown formula kind {key!r}", path)


def _v1_table(entries, path) -> dict:
    """A version-1 ``explicit`` table: a dict of frozensets, read entry by
    entry."""
    return dict(_read_entries(
        _expect(entries, list, path, "an effect table"), path, "an effect table entry", "an effect entry is [[x, y], [atoms...]]",
        _parse_point, lambda atoms, at: _parse_set(GroundAtom, atoms, at, "an atom list"),
        lambda point: f"point {point} already has an effect entry"))


def _rows_fit(rows: ExplicitRows, n_pairs: int, n_atoms: int) -> bool:
    """Whether ``rows`` is well formed (see ``ExplicitRows``), by C-level
    passes: three lists of ints only, as many ends as pairs, pairs strictly
    ascending in ``range(n_pairs)``, ends ascending from 0 to
    ``len(atoms)``, every fall in the atom list at a row's start, and atoms
    in ``range(n_atoms)``. Each range is read from the ends of ascending
    runs: the first and last pair, and the atoms at the rows' starts and
    ends."""
    pairs, ends, atoms = rows
    if set(map(type, rows)) != {list} or len(pairs) != len(ends) or not pairs:
        return not (pairs or ends or atoms) and set(map(type, rows)) == {list}
    if not (set(map(type, pairs)) == set(map(type, ends)) == {int}
            and 0 <= pairs[0] and pairs[-1] < n_pairs and all(map(lt, pairs, pairs[1:]))
            and 0 <= ends[0] and ends[-1] == len(atoms) and all(map(le, ends, ends[1:]))):
        return False
    if not atoms:
        return True
    # with each row ascending, the least atom starts a row and the greatest ends one
    return set(map(type, atoms)) == {int} \
        and set(ends).issuperset(compress(range(1, len(atoms)), map(ge, atoms, atoms[1:]))) \
        and min(map(atoms.__getitem__, [0, *ends[:bisect_left(ends, len(atoms))]])) >= 0 \
        and max(map(atoms.__getitem__, map(sub, ends, repeat(1)))) < n_atoms


# the keys of an explicit action, and of version 3's table; a dict's
# keys() compare equal to them
_EXPLICIT_KEYS = {"name", "explicit"}
_ROW_KEYS = set(ExplicitRows._fields)


def _check_index(value, count: int, path: str, what: str) -> int:
    """``value``, when it is an int in ``range(count)`` (``_fit``)."""
    if not _fit(value, count):
        if type(value) is not int:
            raise ParseError("type", f"expected an integer for {what}", path)
        raise ParseError("index-range", f"{what} {value} is outside 0..{count - 1}", path)
    return value


def _check_indices(values, count: int, path: str) -> list:
    """The atom list ``values`` at ``path``; raise the error of its first
    item that is not an int in ``range(count)``."""
    for i, value in enumerate(_expect(values, list, path, "an atom list")):
        _check_index(value, count, f"{path}[{i}]", "an atom index")
    return values


def _v2_state(state: list, path: str, grid: GridMap, predicates: tuple) -> AtomSet:
    """A version-2 or -3 ``state``: a list of atom indices."""
    if not _fits(state, grid.n_points * len(predicates)):
        _check_indices(state, grid.n_points * len(predicates), path)
    return AtomSet._read(grid, predicates, frozenset(state))


def _v2_table(entries: list, path: str, grid: GridMap, predicates: tuple) -> EffectTable:
    """A version-2 ``explicit`` table of [point index, [atom index, ...]]
    entries, read entry by entry, so the first faulty entry raises its
    ``ParseError``. A row's atoms are checked by ``_fits``, and one by one
    only when it refuses, so the first faulty atom is named."""
    n_points, n_atoms = grid.n_points, grid.n_points * len(predicates)

    def read_row(row, at):
        if type(row) is list and _fits(row, n_atoms):
            return row
        return _check_indices(row, n_atoms, f"{at}[1]")

    return EffectTable(grid, predicates, dict(_read_entries(
        _expect(entries, list, path, "an effect table"), path, "an effect table entry",
        "an effect entry is [point index, [atom index, ...]]",
        lambda point, at: _check_index(point, n_points, f"{at}[0]", "a point index"),
        read_row, lambda point: f"point index {point} already has an effect entry")))


def _owned(actions: tuple) -> tuple:
    """``actions``, whose explicit tables are views of one ``ExplicitRows``
    a reader made, set as those rows' ``owner``, so that the validation of
    the instance built from them takes the rows as they are."""
    for rule in actions:
        if rule.explicit_effects is not None:
            rule.explicit_effects._part[0].owner = actions
            break
    return actions


def _marker(value, path) -> None:
    """Check a version-3 explicit action's marker, which is ``true``."""
    if value is not True:
        raise ParseError("type", "expected true for an explicit action's marker", path)


def _v3_actions(value, table, grid: GridMap, predicates: tuple) -> tuple:
    """A version-3 action list and its ``explicit`` table. The marked
    actions are checked in bulk (exactly the keys ``name`` and
    ``explicit``, a str name, the marker ``true``), the rule-form ones read
    by ``_parse_action``; when the bulk checks refuse, every action is read
    one by one. Then the table gives each explicit action's table
    (``_v3_tables``)."""
    values = _expect(value, list, "$.actions", "the action list")
    marks = list(map(dict.__contains__, values, repeat("explicit"))) \
        if set(map(type, values)) <= {dict} else ()
    marked = list(compress(values, marks))
    if marks and all(map(eq, map(dict.keys, marked), repeat(_EXPLICIT_KEYS))) \
            and set(map(type, map(itemgetter("name"), marked))) <= {str} \
            and all(map(is_, map(itemgetter("explicit"), marked), repeat(True))):
        rules = [a["name"] if mark else _parse_action(a, f"$.actions[{i}]", _marker)
                 for i, (a, mark) in enumerate(zip(values, marks))] if not all(marks) \
            else list(map(itemgetter("name"), marked))
        at = list(compress(count(), marks))
    else:
        rules = [_parse_action(a, f"$.actions[{i}]", _marker) for i, a in enumerate(values)]
        at = [k for k, rule in enumerate(rules) if type(rule) is str]  # an explicit one's name
    explicit = map(ActionRule._read, map(rules.__getitem__, at),
                   _v3_tables(table, grid, predicates, rules, at))
    if len(at) == len(rules):
        return _owned(tuple(explicit))
    for k, rule in zip(at, explicit):
        rules[k] = rule
    return _owned(tuple(rules))


def _v3_tables(value, grid: GridMap, predicates: tuple, rules: list, at: list) -> list:
    """The tables of the explicit actions at the positions ``at`` of
    ``rules`` (an explicit one as its name): views of the document's
    ``explicit`` table, each of its block's rows, found by bisection.
    ``_rows_fit`` checks the table, and the blocks' rows must be all of
    its rows, so none lies in a rule-form block; when either check
    refuses, ``_read_rows`` reads the table again row by row."""
    table = _expect(value, dict, "$.explicit", "the explicit table")
    if table.keys() != _ROW_KEYS:
        _require_keys(table, "$.explicit", ExplicitRows._fields)
    rows = ExplicitRows(*map(table.__getitem__, ExplicitRows._fields))
    n_points = grid.n_points
    if not _rows_fit(rows, n_points * len(rules), n_points * len(predicates)):
        rows = _read_rows(rows, n_points, len(predicates), rules)
    bases = list(map(mul, at, repeat(n_points)))
    los = list(map(bisect_left, repeat(rows.pairs), bases))
    his = list(map(bisect_left, repeat(rows.pairs), map(add, bases, repeat(n_points))))
    if sum(his) - sum(los) != len(rows.pairs):  # a row in a rule-form block
        _read_rows(rows, n_points, len(predicates), rules)
    return list(map(partial(EffectTable._view, grid, predicates, rows), los, his, bases))


def _read_rows(rows: ExplicitRows, n_points: int, n_predicates: int, rules: list) -> ExplicitRows:
    """``rows``, read row by row: row ``r``'s pair, then its end, then its
    atoms, so the first faulty item, in that order, raises its
    ``ParseError`` at its path; then a surplus end or atom."""
    pairs, ends, atoms = (_expect(value, list, f"$.explicit.{key}", f"the {key} list")
                          for key, value in zip(ExplicitRows._fields, rows))
    n_pairs, n_atoms = n_points * len(rules), n_points * n_predicates
    start, last = 0, -1
    for r, pair in enumerate(pairs):
        path = f"$.explicit.pairs[{r}]"
        _check_index(pair, n_pairs, path, "a pair index")
        if pair <= last:
            raise ParseError("order", f"pair index {pair} is not above the one before, {last}: "
                             "pairs ascend strictly", path)
        rule = rules[pair // n_points]
        if type(rule) is not str:
            raise ParseError("action-form",
                             f"pair index {pair} is in rule-form action {rule.name!r}", path)
        last = pair
        if r == len(ends):
            raise ParseError("table-shape", f"row {r} has no end: there are {len(pairs)} pairs "
                             f"and {len(ends)} ends", "$.explicit.ends")
        path = f"$.explicit.ends[{r}]"
        end = _check_index(ends[r], len(atoms) + 1, path, "an end")
        if end < start:
            raise ParseError("order", f"end {end} is below the one before, {start}: ends "
                             "ascend", path)
        prev = -1
        for j in range(start, end):
            path = f"$.explicit.atoms[{j}]"
            atom = _check_index(atoms[j], n_atoms, path, "an atom index")
            if atom <= prev:
                raise ParseError("order", f"atom index {atom} is not above the one before, "
                                 f"{prev}: a row's atoms ascend strictly", path)
            prev = atom
        start = end
    if len(ends) > len(pairs):
        raise ParseError("table-shape", f"end {len(pairs)} has no row: there are {len(pairs)} "
                         f"pairs and {len(ends)} ends", f"$.explicit.ends[{len(pairs)}]")
    if start < len(atoms):
        raise ParseError("table-shape", f"atom {start} is in no row: the last row ends at {start}",
                         f"$.explicit.atoms[{start}]")
    return ExplicitRows(pairs, ends, atoms)


def _parse_actions(value, read_table) -> tuple:
    """The actions of the action list ``value``, read one by one."""
    return tuple(_parse_action(a, f"$.actions[{i}]", read_table)
                 for i, a in enumerate(_expect(value, list, "$.actions", "the action list")))


def _parse_action(value, path, read_table):
    """An action; ``read_table(value, path)`` reads an ``explicit`` value in
    the document's version: a table, or None for a version-3 marker, when
    the action's name is returned in place of the action."""
    value = _expect(value, dict, path, "an action")
    name = _expect(value.get("name"), str, f"{path}.name", "an action name") \
        if "name" in value else None
    if name is None:
        raise ParseError("missing-key", "missing key 'name'", path)
    if "explicit" in value:
        _require_keys(value, path, ("name", "explicit"))
        table = read_table(value["explicit"], f"{path}.explicit")
        return name if table is None else ActionRule(name=name, explicit_effects=table)
    _require_keys(value, path, ("name", "effect", "source_guard", "target_guard"),
                  optional=("max_distance", "metric"))
    max_distance = None
    if "max_distance" in value:
        max_distance = _expect(value["max_distance"], float, f"{path}.max_distance", "a distance")
    return ActionRule(
        name=name,
        effect_predicate=_expect(value["effect"], str, f"{path}.effect", "a predicate name"),
        source_guard=_parse_formula(value["source_guard"], f"{path}.source_guard"),
        target_guard=_parse_formula(value["target_guard"], f"{path}.target_guard"),
        max_distance=max_distance,
        metric=_expect(value.get("metric", "euclidean"), str, f"{path}.metric", "a metric name"))


def read_json(text: str):
    """The JSON value of an external document; ParseError ``bad-json`` (with
    line and column), ``number-range`` (an integer literal longer than
    Python reads) or ``too-deep`` (nested past the recursion limit) if none."""
    try:
        return json.loads(text)
    except json.JSONDecodeError as err:
        raise ParseError("bad-json", f"line {err.lineno} column {err.colno}: {err.msg}") from err
    except ValueError:
        raise ParseError("number-range", "an integer literal has too many digits to read") from None
    except RecursionError:
        raise ParseError("too-deep", "the document nests too deeply to parse") from None


def parse_instance(text: str):
    """Parse an instance document; returns a goal-based or a
    benefit-maximizing instance according to its problem section."""
    try:
        return _parse_document(read_json(text))
    except RecursionError:  # a formula within JSON's depth but beyond the parser's
        raise ParseError("too-deep", "the document nests too deeply to parse") from None


def _parse_document(doc):
    doc = _expect(doc, dict, "$", "the document")
    _require_keys(doc, "$",
                  ("format", "version", "map", "predicates", "state", "actions",
                   "cost", "ics", "problem"),
                  optional=("benefit", "explicit"))
    if doc["format"] != FORMAT_NAME:
        raise ParseError("format", f"unknown format {doc['format']!r}", "$.format")
    # typed first: ``true`` and ``2.0`` equal a version number but are not one
    version = _expect(doc["version"], int, "$.version", "the version")
    if version not in VERSIONS:
        raise ParseError("version", f"unsupported version {version!r}", "$.version")
    if ("explicit" in doc) != (version == 3):  # version 3's table, and no other's
        raise ParseError(*(("missing-key", "missing key 'explicit'") if version == 3
                           else ("unknown-key", "unknown key 'explicit'")), "$")

    map_obj = _expect(doc["map"], dict, "$.map", "the map")
    _require_keys(map_obj, "$.map", ("M", "N"))
    grid = GridMap(_expect(map_obj["M"], int, "$.map.M", "M"),
                   _expect(map_obj["N"], int, "$.map.N", "N"))

    predicates = tuple(_expect(p, str, f"$.predicates[{i}]", "a predicate name")
                       for i, p in enumerate(_expect(doc["predicates"], list, "$.predicates",
                                                     "the predicate list")))

    state = _expect(doc["state"], list, "$.state", "the state")
    if version == 1:
        s0 = _parse_set(GroundAtom, state, "$.state", "the state")
        actions = _parse_actions(doc["actions"], _v1_table)
    else:
        s0 = _v2_state(state, "$.state", grid, predicates)
        if version == 2:
            actions = _parse_actions(doc["actions"],
                                     partial(_v2_table, grid=grid, predicates=predicates))
        else:
            actions = _v3_actions(doc["actions"], doc["explicit"], grid, predicates)

    cost_obj = _expect(doc["cost"], dict, "$.cost", "the cost section")
    _require_keys(cost_obj, "$.cost", ("default",), optional=("rules", "overrides"))
    rules = _read_entries(
        _expect(cost_obj.get("rules", []), list, "$.cost.rules", "cost rules"), "$.cost.rules",
        "a cost rule", "a cost rule is [condition, cost]",
        _parse_formula, lambda cost, at: _expect(cost, float, at, "a cost"))
    overrides = _parse_overrides(ActionPointPair, cost_obj, "cost")
    cost_model = CostModel(default_cost=_expect(cost_obj["default"], float,
                                                "$.cost.default", "the default cost"),
                           state_rules=tuple(rules), overrides=overrides)

    ics = []
    for i, entry in enumerate(_expect(doc["ics"], list, "$.ics", "the constraint list")):
        entry_path = f"$.ics[{i}]"
        entry = _expect(entry, dict, entry_path, "an integrity constraint")
        _require_keys(entry, entry_path, ("pairs", "condition"))
        pairs = _parse_set(ActionPointPair, entry["pairs"], f"{entry_path}.pairs", "a pair list")
        ics.append(IntegrityConstraint(
            pairs=pairs, condition=_parse_formula(entry["condition"], f"{entry_path}.condition")))
    ics = tuple(ics)

    problem = _expect(doc["problem"], dict, "$.problem", "the problem section")
    ptype = _expect(problem.get("type"), str, "$.problem.type", "the problem type") \
        if "type" in problem else None
    if ptype == "gbgop":
        if "benefit" in doc:
            raise ParseError("unknown-key", "goal-based documents take no benefit section",
                             "$.benefit")
        _require_keys(problem, "$.problem", ("type", "budget", "theta_in", "theta_out"))
        theta_in = _parse_set(GroundAtom, problem["theta_in"], "$.problem.theta_in", "goal atoms")
        theta_out = _parse_set(GroundAtom, problem["theta_out"], "$.problem.theta_out",
                               "forbidden atoms")
        return GbgopInstance(grid=grid, predicates=predicates, s0=s0, actions=actions,
                             cost_model=cost_model, ics=ics,
                             budget=_expect(problem["budget"], float, "$.problem.budget", "the budget"),
                             theta_in=theta_in, theta_out=theta_out)
    if ptype == "bmgop":
        if "benefit" not in doc:
            raise ParseError("missing-key", "benefit-maximizing documents need a benefit section", "$")
        benefit_obj = _expect(doc["benefit"], dict, "$.benefit", "the benefit section")
        _require_keys(benefit_obj, "$.benefit", (), optional=("per_predicate", "overrides"))
        per_predicate = {}
        table = _expect(benefit_obj.get("per_predicate", {}), dict,
                        "$.benefit.per_predicate", "the per-predicate table")
        for name, v in table.items():
            per_predicate[name] = _expect(v, float, f"$.benefit.per_predicate.{name}", "a benefit")
        atom_overrides = _parse_overrides(GroundAtom, benefit_obj, "benefit")
        _require_keys(problem, "$.problem", ("type", "k", "budget"))
        return BmgopInstance(grid=grid, predicates=predicates, s0=s0, actions=actions,
                             cost_model=cost_model,
                             benefit_model=BenefitModel(per_predicate=per_predicate,
                                                        per_atom_overrides=atom_overrides),
                             ics=ics, k=_expect(problem["k"], int, "$.problem.k", "k"),
                             budget=_expect(problem["budget"], float, "$.problem.budget", "the budget"))
    raise ParseError("problem-type", f"unknown problem type {ptype!r}", "$.problem.type")


# ---------------------------------------------------------------------------
# Serialization

def _item_json(item):
    """An atom or a pair as [name, [x, y]]."""
    return [item[0], [*item[1]]]


def _index_json(grid: GridMap, names):
    """Canonical atom or pair index -> [name, [x, y]], names from ``names``."""
    def item(i):
        k, point = _block_point(grid, i)
        return [names[k], [*point]]
    return item


def formula_to_json(f: Formula):
    """A formula; a ground atom's coordinates as the integers they equal."""
    if isinstance(f, TrueFormula):
        return "true"
    if isinstance(f, AtomFormula):
        if f.point is None:
            return {"atom": f.predicate}
        return {"atom": [f.predicate, [*map(int, f.point)]]}
    if isinstance(f, NotFormula):
        return {"not": formula_to_json(f.child)}
    if isinstance(f, AndFormula):
        return {"and": [formula_to_json(c) for c in f.children]}
    if isinstance(f, OrFormula):
        return {"or": [formula_to_json(c) for c in f.children]}
    raise TypeError(f"not a formula node: {f!r}")


def _action_json(rule: ActionRule):
    """An action; an explicit one as its name and the marker, its rows
    being in the document's ``explicit`` table."""
    if rule.explicit_effects is not None:
        return {"name": rule.name, "explicit": True}
    out = {"name": rule.name, "effect": rule.effect_predicate,
           "source_guard": formula_to_json(rule.source_guard),
           "target_guard": formula_to_json(rule.target_guard)}
    if rule.max_distance is not None:
        out["max_distance"] = rule.max_distance
    out["metric"] = rule.metric
    return out


def instance_to_json(inst) -> dict:
    """Canonical JSON object for an instance (either kind), in format
    version 3: the state as canonical atom indices, and every explicit
    row in one ``explicit`` table (``Problem.explicit_rows``)."""
    grid, predicates = inst.grid, inst.predicates
    atom, pair = _index_json(grid, predicates), _index_json(grid, [r.name for r in inst.actions])
    doc = {
        "format": FORMAT_NAME,
        "version": FORMAT_VERSION,
        "map": {"M": grid.width_bound, "N": grid.height_bound},
        "predicates": list(predicates),
        "state": sorted(inst.s0.indices),
        "actions": list(map(_action_json, inst.actions)),
        "explicit": dict(zip(ExplicitRows._fields, map(list, inst.explicit_rows))),
        "cost": {
            "default": inst.cost_model.default_cost,
            "rules": [[formula_to_json(cond), value]
                      for cond, value in inst.cost_model.state_rules],
            "overrides": [[pair(i), v] for i, v in inst.cost_override_indices],
        },
    }
    if isinstance(inst, BmgopInstance):
        doc["benefit"] = {
            "per_predicate": {name: inst.benefit_model.per_predicate[name]
                              for name in sorted(inst.benefit_model.per_predicate,
                                                 key=inst.predicates.index)},
            "overrides": [[atom(i), v] for i, v in inst.benefit_override_indices],
        }
    doc["ics"] = [{"pairs": list(map(pair, members)), "condition": formula_to_json(ic.condition)}
                  for ic, members in zip(inst.ics, inst.ic_pair_indices)]
    if isinstance(inst, GbgopInstance):
        doc["problem"] = {
            "type": "gbgop",
            "budget": inst.budget,
            "theta_in": list(map(atom, inst.theta_in_indices)),
            "theta_out": list(map(atom, inst.theta_out_indices)),
        }
    else:
        doc["problem"] = {"type": "bmgop", "k": inst.k, "budget": inst.budget}
    return doc


def serialize_instance(inst) -> str:
    """The canonical document of an instance, in format version 3, each
    top-level key on a line of its own, written by ``json``'s C encoder."""
    return "{\n" + ",\n".join(f"  {json.dumps(key)}: {json.dumps(value)}"
                               for key, value in instance_to_json(inst).items()) + "\n}\n"


# ---------------------------------------------------------------------------
# Solution reports

@dataclass
class SolutionReport:
    """What a solver run produced, in a form that can be re-validated
    against the instance it came from."""

    method: str
    status: str  # "optimal" | "feasible" | "infeasible" | "limit_reached"
    pairs: tuple = ()
    cardinality: Optional[int] = None
    cost: Optional[float] = None
    benefit: Optional[float] = None
    proven_optimal: bool = False
    bound: Optional[float] = None
    trace_path: Optional[str] = None

    def to_json(self) -> dict:
        return {
            "method": self.method,
            "status": self.status,
            "pairs": [_item_json(p) for p in self.pairs],
            "cardinality": self.cardinality,
            "cost": self.cost,
            "benefit": self.benefit,
            "proven_optimal": self.proven_optimal,
            "bound": self.bound,
            "trace": self.trace_path,
            "diagnostics": [],
        }

    def to_text(self) -> str:
        lines = [f"method: {self.method}", f"status: {self.status}"]
        if self.status == "limit_reached" and self.cardinality is None:
            lines.append("solution: none found before the limit")
        elif self.status != "infeasible":
            lines.append("pairs: " + " ".join(str(p) for p in self.pairs))
            if self.cardinality is not None:
                lines.append(f"cardinality: {self.cardinality}")
            if self.cost is not None:
                lines.append(f"cost: {self.cost}")
            if self.benefit is not None:
                lines.append(f"benefit: {self.benefit}")
            if self.bound is not None:
                lines.append(f"bound: {self.bound}")
            lines.append(f"proven-optimal: {'yes' if self.proven_optimal else 'no'}")
        return "\n".join(lines) + "\n"


def report_for(method: str, status: str, sol, inst,
               trace_path: Optional[str] = None) -> SolutionReport:
    """The report of a solver run on an instance of either flavour; ``sol``
    is None when the run found no solution. Its pairs are listed in
    canonical order, by the indices of the instance's grounding. Benefit
    and bound are filled in from benefit-maximizing solutions."""
    if sol is None:
        return SolutionReport(method=method, status=status)
    g = inst.grounding
    return SolutionReport(
        method=method, status=status, pairs=tuple(map(g.pair_at, g.pairs_to_indices(sol.pairs))),
        cardinality=sol.cardinality, cost=sol.total_cost,
        benefit=sol.achieved_benefit,
        proven_optimal=status == "optimal", bound=sol.reported_bound,
        trace_path=trace_path)


report_for_gbgop = report_for_bmgop = report_for
