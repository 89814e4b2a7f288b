"""Instance documents: a strict JSON format holding every input of a
placement problem (map, predicates, initial state, actions, costs,
benefits, integrity constraints, goal or benefit problem section).

Parsing is strict: unknown keys are rejected, every error carries a code
and the JSON path of the offender. Serialization is canonical (fixed key
order, atom lists in canonical order, shortest round-tripping numbers), so
identical instances produce identical bytes and ``parse(serialize(x))``
reproduces ``x``.
"""

import json
from dataclasses import dataclass
from typing import Optional

from .bmgop import BmgopInstance
from .core import (ActionPointPair, ActionRule, AndFormula, AtomFormula,
                   BenefitModel, CostModel, Formula, GridMap, GroundAtom,
                   IntegrityConstraint, NotFormula, OrFormula, Point, TRUE,
                   TrueFormula)
from .errors import ParseError
from .gbgop import GbgopInstance

FORMAT_NAME = "gop-instance"
FORMAT_VERSION = 1


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


def _parse_point(value, path) -> Point:
    value = _expect(value, list, path, "a point")
    if len(value) != 2:
        raise ParseError("type", "a point is a two-element [x, y] list", path)
    return Point(_expect(value[0], int, path, "x"), _expect(value[1], int, path, "y"))


def _parse_atom(value, path) -> GroundAtom:
    value = _expect(value, list, path, "a ground atom")
    if len(value) != 2:
        raise ParseError("type", "a ground atom is [predicate, [x, y]]", path)
    return GroundAtom(_expect(value[0], str, path, "a predicate name"),
                      _parse_point(value[1], path))


def _parse_pair(value, path) -> ActionPointPair:
    value = _expect(value, list, path, "an action-point pair")
    if len(value) != 2:
        raise ParseError("type", "an action-point pair is [action, [x, y]]", path)
    return ActionPointPair(_expect(value[0], str, path, "an action name"),
                           _parse_point(value[1], path))


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
        a = _parse_atom(body, f"{path}.atom")
        return AtomFormula(a.predicate, a.point)
    if key == "not":
        return NotFormula(_parse_formula(body, f"{path}.not"))
    if key in ("and", "or"):
        body = _expect(body, list, f"{path}.{key}", "a formula list")
        children = tuple(_parse_formula(c, f"{path}.{key}[{i}]") for i, c in enumerate(body))
        return AndFormula(children) if key == "and" else OrFormula(children)
    raise ParseError("bad-formula", f"unknown formula kind {key!r}", path)


def _parse_action(value, path) -> ActionRule:
    value = _expect(value, dict, path, "an action")
    name = _expect(value.get("name"), str, f"{path}.name", "an action name") \
        if "name" in value else None
    if name is None:
        raise ParseError("missing-key", "missing key 'name'", path)
    if "explicit" in value:
        _require_keys(value, path, ("name", "explicit"))
        table = {}
        entries = _expect(value["explicit"], list, f"{path}.explicit", "an effect table")
        for i, entry in enumerate(entries):
            entry_path = f"{path}.explicit[{i}]"
            entry = _expect(entry, list, entry_path, "an effect table entry")
            if len(entry) != 2:
                raise ParseError("type", "an effect entry is [[x, y], [atoms...]]", entry_path)
            point = _parse_point(entry[0], entry_path)
            if point in table:
                raise ParseError("duplicate", f"point {point} already has an effect entry",
                                 entry_path)
            atoms = _expect(entry[1], list, entry_path, "an atom list")
            table[point] = frozenset(_parse_atom(a, f"{entry_path}[{j}]")
                                     for j, a in enumerate(atoms))
        return ActionRule(name=name, explicit_effects=table)
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


def parse_instance(text: str):
    """Parse an instance document; returns a goal-based or a
    benefit-maximizing instance according to its problem section."""
    try:
        return _parse_document(text)
    except RecursionError:
        raise ParseError("too-deep", "the document nests too deeply to parse") from None


def _parse_document(text: str):
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as err:
        raise ParseError("bad-json", f"line {err.lineno} column {err.colno}: {err.msg}") from err
    doc = _expect(doc, dict, "$", "the document")
    _require_keys(doc, "$",
                  ("format", "version", "map", "predicates", "state", "actions",
                   "cost", "ics", "problem"),
                  optional=("benefit",))
    if doc["format"] != FORMAT_NAME:
        raise ParseError("format", f"unknown format {doc['format']!r}", "$.format")
    if doc["version"] != FORMAT_VERSION:
        raise ParseError("version", f"unsupported version {doc['version']!r}", "$.version")

    map_obj = _expect(doc["map"], dict, "$.map", "the map")
    _require_keys(map_obj, "$.map", ("M", "N"))
    grid = GridMap(_expect(map_obj["M"], int, "$.map.M", "M"),
                   _expect(map_obj["N"], int, "$.map.N", "N"))

    predicates = tuple(_expect(p, str, f"$.predicates[{i}]", "a predicate name")
                       for i, p in enumerate(_expect(doc["predicates"], list, "$.predicates",
                                                     "the predicate list")))

    s0 = frozenset(_parse_atom(a, f"$.state[{i}]")
                   for i, a in enumerate(_expect(doc["state"], list, "$.state", "the state")))

    actions = tuple(_parse_action(a, f"$.actions[{i}]")
                    for i, a in enumerate(_expect(doc["actions"], list, "$.actions",
                                                  "the action list")))

    cost_obj = _expect(doc["cost"], dict, "$.cost", "the cost section")
    _require_keys(cost_obj, "$.cost", ("default",), optional=("rules", "overrides"))
    rules = []
    for i, entry in enumerate(_expect(cost_obj.get("rules", []), list, "$.cost.rules", "cost rules")):
        entry_path = f"$.cost.rules[{i}]"
        entry = _expect(entry, list, entry_path, "a cost rule")
        if len(entry) != 2:
            raise ParseError("type", "a cost rule is [condition, cost]", entry_path)
        rules.append((_parse_formula(entry[0], entry_path),
                      _expect(entry[1], float, entry_path, "a cost")))
    overrides = {}
    for i, entry in enumerate(_expect(cost_obj.get("overrides", []), list,
                                      "$.cost.overrides", "cost overrides")):
        entry_path = f"$.cost.overrides[{i}]"
        entry = _expect(entry, list, entry_path, "a cost override")
        if len(entry) != 2:
            raise ParseError("type", "a cost override is [[action, [x, y]], cost]", entry_path)
        pair = _parse_pair(entry[0], entry_path)
        if pair in overrides:
            raise ParseError("duplicate", f"pair {pair} already has a cost override", entry_path)
        overrides[pair] = _expect(entry[1], float, entry_path, "a cost")
    cost_model = CostModel(default_cost=_expect(cost_obj["default"], float,
                                                "$.cost.default", "the default cost"),
                           state_rules=tuple(rules), overrides=overrides)

    ics = []
    for i, entry in enumerate(_expect(doc["ics"], list, "$.ics", "the constraint list")):
        entry_path = f"$.ics[{i}]"
        entry = _expect(entry, dict, entry_path, "an integrity constraint")
        _require_keys(entry, entry_path, ("pairs", "condition"))
        pairs = frozenset(_parse_pair(p, f"{entry_path}.pairs[{j}]")
                          for j, p in enumerate(_expect(entry["pairs"], list,
                                                        f"{entry_path}.pairs", "a pair list")))
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
        theta_in = frozenset(_parse_atom(a, f"$.problem.theta_in[{i}]")
                             for i, a in enumerate(_expect(problem["theta_in"], list,
                                                           "$.problem.theta_in", "goal atoms")))
        theta_out = frozenset(_parse_atom(a, f"$.problem.theta_out[{i}]")
                              for i, a in enumerate(_expect(problem["theta_out"], list,
                                                            "$.problem.theta_out", "forbidden atoms")))
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
        atom_overrides = {}
        for i, entry in enumerate(_expect(benefit_obj.get("overrides", []), list,
                                          "$.benefit.overrides", "benefit overrides")):
            entry_path = f"$.benefit.overrides[{i}]"
            entry = _expect(entry, list, entry_path, "a benefit override")
            if len(entry) != 2:
                raise ParseError("type", "a benefit override is [[pred, [x, y]], value]", entry_path)
            a = _parse_atom(entry[0], entry_path)
            if a in atom_overrides:
                raise ParseError("duplicate", f"atom {a} already has a benefit override",
                                 entry_path)
            atom_overrides[a] = _expect(entry[1], float, entry_path, "a benefit")
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

def _atom_key(inst):
    pred_pos = {p: i for i, p in enumerate(inst.predicates)}

    def key(a: GroundAtom):
        return (pred_pos[a.predicate], inst.grid.point_index(a.point))
    return key


def _pair_key(inst):
    action_pos = {rule.name: i for i, rule in enumerate(inst.actions)}

    def key(p: ActionPointPair):
        return (action_pos[p.action], inst.grid.point_index(p.point))
    return key


def _point_json(p: Point):
    return [p.x, p.y]


def _atom_json(a: GroundAtom):
    return [a.predicate, _point_json(a.point)]


def _pair_json(p: ActionPointPair):
    return [p.action, _point_json(p.point)]


def formula_to_json(f: Formula):
    if isinstance(f, TrueFormula):
        return "true"
    if isinstance(f, AtomFormula):
        if f.point is None:
            return {"atom": f.predicate}
        return {"atom": [f.predicate, _point_json(f.point)]}
    if isinstance(f, NotFormula):
        return {"not": formula_to_json(f.child)}
    if isinstance(f, AndFormula):
        return {"and": [formula_to_json(c) for c in f.children]}
    if isinstance(f, OrFormula):
        return {"or": [formula_to_json(c) for c in f.children]}
    raise TypeError(f"not a formula node: {f!r}")


def _action_json(rule: ActionRule, atom_key):
    if rule.explicit_effects is not None:
        entries = sorted(rule.explicit_effects.items(), key=lambda kv: (kv[0].y, kv[0].x))
        return {"name": rule.name,
                "explicit": [[_point_json(p), [_atom_json(a) for a in sorted(es, key=atom_key)]]
                             for p, es in entries]}
    out = {"name": rule.name, "effect": rule.effect_predicate,
           "source_guard": formula_to_json(rule.source_guard),
           "target_guard": formula_to_json(rule.target_guard)}
    if rule.max_distance is not None:
        out["max_distance"] = rule.max_distance
    out["metric"] = rule.metric
    return out


def instance_to_json(inst) -> dict:
    """Canonical JSON object for an instance (either kind)."""
    atom_key = _atom_key(inst)
    pair_key = _pair_key(inst)
    doc = {
        "format": FORMAT_NAME,
        "version": FORMAT_VERSION,
        "map": {"M": inst.grid.width_bound, "N": inst.grid.height_bound},
        "predicates": list(inst.predicates),
        "state": [_atom_json(a) for a in sorted(inst.s0, key=atom_key)],
        "actions": [_action_json(rule, atom_key) for rule in inst.actions],
        "cost": {
            "default": inst.cost_model.default_cost,
            "rules": [[formula_to_json(cond), value]
                      for cond, value in inst.cost_model.state_rules],
            "overrides": [[_pair_json(p), v]
                          for p, v in sorted(inst.cost_model.overrides.items(),
                                             key=lambda kv: pair_key(kv[0]))],
        },
    }
    if isinstance(inst, BmgopInstance):
        pred_pos = {p: i for i, p in enumerate(inst.predicates)}
        doc["benefit"] = {
            "per_predicate": {name: inst.benefit_model.per_predicate[name]
                              for name in sorted(inst.benefit_model.per_predicate,
                                                 key=pred_pos.__getitem__)},
            "overrides": [[_atom_json(a), v]
                          for a, v in sorted(inst.benefit_model.per_atom_overrides.items(),
                                             key=lambda kv: atom_key(kv[0]))],
        }
    doc["ics"] = [{"pairs": [_pair_json(p) for p in sorted(ic.pairs, key=pair_key)],
                   "condition": formula_to_json(ic.condition)}
                  for ic in inst.ics]
    if isinstance(inst, GbgopInstance):
        doc["problem"] = {
            "type": "gbgop",
            "budget": inst.budget,
            "theta_in": [_atom_json(a) for a in sorted(inst.theta_in, key=atom_key)],
            "theta_out": [_atom_json(a) for a in sorted(inst.theta_out, key=atom_key)],
        }
    else:
        doc["problem"] = {"type": "bmgop", "k": inst.k, "budget": inst.budget}
    return doc


def serialize_instance(inst) -> str:
    return json.dumps(instance_to_json(inst), indent=2) + "\n"


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
    diagnostics: tuple = ()

    def to_json(self) -> dict:
        return {
            "method": self.method,
            "status": self.status,
            "pairs": [_pair_json(p) for p in self.pairs],
            "cardinality": self.cardinality,
            "cost": self.cost,
            "benefit": self.benefit,
            "proven_optimal": self.proven_optimal,
            "bound": self.bound,
            "trace": self.trace_path,
            "diagnostics": list(self.diagnostics),
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
        for d in self.diagnostics:
            lines.append(f"note: {d}")
        return "\n".join(lines) + "\n"


def report_for(method: str, status: str, sol, inst, trace_path: Optional[str] = None,
               diagnostics=()) -> SolutionReport:
    """The report of a solver run on an instance of either flavour; ``sol``
    is None when the run found no solution. Benefit and bound are filled
    in from benefit-maximizing solutions."""
    if sol is None:
        return SolutionReport(method=method, status=status, diagnostics=tuple(diagnostics))
    return SolutionReport(
        method=method, status=status, pairs=tuple(sorted(sol.pairs, key=_pair_key(inst))),
        cardinality=sol.cardinality, cost=sol.total_cost,
        benefit=getattr(sol, "achieved_benefit", None),
        proven_optimal=status == "optimal", bound=getattr(sol, "reported_bound", None),
        trace_path=trace_path, diagnostics=tuple(diagnostics))


report_for_gbgop = report_for_bmgop = report_for
