"""Independent oracles and small builders shared by the test modules.

Everything here recomputes results from definitions (exhaustive
enumeration, truth tables, direct set arithmetic) without touching the
solvers' grounding/bitmask machinery, so the oracles stay independent of
the code paths they check.
"""

import itertools
import json
from itertools import product

from gops import (ActionPointPair, ActionRule, AndFormula, AtomFormula,
                  BenefitModel, CostModel, GridMap, GroundAtom, NotFormula,
                  OrFormula, Point, TRUE, TrueFormula, action_effects, appl,
                  atom, benefit_of, cost_of, lnot, satisfies)
from gops.core import formula_atoms


# ---------------------------------------------------------------------------
# Formula oracle: tabulate satisfying assignments over the atom support.

def _eval_under(formula, assignment, at):
    if isinstance(formula, TrueFormula):
        return True
    if isinstance(formula, AtomFormula):
        point = formula.point if formula.point is not None else at
        return assignment[(formula.predicate, point)]
    if isinstance(formula, NotFormula):
        return not _eval_under(formula.child, assignment, at)
    if isinstance(formula, AndFormula):
        return all(_eval_under(c, assignment, at) for c in formula.children)
    if isinstance(formula, OrFormula):
        return any(_eval_under(c, assignment, at) for c in formula.children)
    raise TypeError(formula)


def truth_table_satisfies(state, formula, at=None):
    support = sorted({(a.predicate, a.point if a.point is not None else at)
                      for a in formula_atoms(formula)}, key=str)
    satisfying = set()
    for bits in product((False, True), repeat=len(support)):
        if _eval_under(formula, dict(zip(support, bits)), at):
            satisfying.add(bits)
    actual = tuple(GroundAtom(p, pt) in state for p, pt in support)
    return actual in satisfying


def random_formula(rng, atoms, depth):
    """Random formula of at most the given depth over ``atoms``: ground
    atoms, or atom formulas, where a ``None`` point makes a template."""
    if depth == 0 or rng.random() < 0.3:
        if rng.random() < 0.1:
            return TRUE
        a = rng.choice(atoms)
        return atom(a.predicate, a.point)
    kind = rng.randrange(3)
    if kind == 0:
        return lnot(random_formula(rng, atoms, depth - 1))
    parts = tuple(random_formula(rng, atoms, depth - 1) for _ in range(rng.randint(1, 3)))
    return AndFormula(parts) if kind == 1 else OrFormula(parts)


# ---------------------------------------------------------------------------
# Reference grounding: the per-pair tables from the set-based semantics.

def reference_grounding(grid, predicates, s0, actions, cost_model, ics,
                        benefit_model=None):
    """The tables ``Grounding`` builds, computed pair by pair with
    ``action_effects``, ``cost_of``, ``benefit_of`` and ``satisfies``.
    Returns a dict keyed by the ``Grounding`` attribute names."""
    points = grid.points()
    atoms = [GroundAtom(pred, p) for pred in predicates for p in points]
    atom_index = {a: i for i, a in enumerate(atoms)}
    pairs = [ActionPointPair(rule.name, p) for rule in actions for p in points]
    pair_index = {pair: i for i, pair in enumerate(pairs)}

    def to_mask(atom_set):
        return sum(1 << atom_index[a] for a in set(atom_set))

    rules = {rule.name: rule for rule in actions}
    ic_s0 = [(pos, frozenset(pair_index[p] for p in ic.pairs))
             for pos, ic in enumerate(ics) if satisfies(s0, ic.condition)]
    return dict(
        s0_mask=to_mask(s0),
        effects=[to_mask(action_effects(rules[pair.action], pair.point, s0, grid))
                 for pair in pairs],
        costs=[cost_of(pair, s0, cost_model) for pair in pairs],
        benefits=(None if benefit_model is None
                  else [benefit_of(a, benefit_model) for a in atoms]),
        ic_s0=ic_s0,
        pair_ics=[tuple(j for j, (_, members) in enumerate(ic_s0) if i in members)
                  for i in range(len(pairs))],
    )


def reference_grounding_of(inst):
    return reference_grounding(inst.grid, inst.predicates, inst.s0, inst.actions,
                               inst.cost_model, inst.ics,
                               getattr(inst, "benefit_model", None))


# ---------------------------------------------------------------------------
# Definitional solution checks (no grounding, no bitmasks).

def gbgop_conditions_hold(inst, pairs):
    pairs = frozenset(pairs)
    total = sum(cost_of(p, inst.s0, inst.cost_model) for p in sorted(pairs))
    if total > inst.budget:
        return False
    for ic in inst.ics:
        from gops import satisfies
        if satisfies(inst.s0, ic.condition) and len(ic.pairs & pairs) > 1:
            return False
    final = appl(pairs, inst.s0, inst.grid, inst.actions, s0=inst.s0)
    if not inst.theta_in <= final:
        return False
    if inst.theta_out & final:
        return False
    return True


def brute_min_gbgop(inst, candidates):
    """Smallest valid subset of ``candidates`` by exhaustive search, or
    None. ``candidates`` is a sequence of pairs."""
    candidates = list(candidates)
    for t in range(len(candidates) + 1):
        for combo in itertools.combinations(candidates, t):
            if gbgop_conditions_hold(inst, combo):
                return frozenset(combo)
    return None


def bmgop_benefit(inst, pairs):
    final = appl(frozenset(pairs), inst.s0, inst.grid, inst.actions, s0=inst.s0)
    key = lambda a: (inst.predicates.index(a.predicate), inst.grid.point_index(a.point))
    return sum(benefit_of(a, inst.benefit_model) for a in sorted(final, key=key))


def bmgop_feasible(inst, pairs):
    pairs = frozenset(pairs)
    if len(pairs) > inst.k:
        return False
    if sum(cost_of(p, inst.s0, inst.cost_model) for p in sorted(pairs)) > inst.budget:
        return False
    from gops import satisfies
    for ic in inst.ics:
        if satisfies(inst.s0, ic.condition) and len(ic.pairs & pairs) > 1:
            return False
    return True


def brute_best_bmgop(inst):
    """Exhaustive maximum benefit over all feasible pair subsets."""
    all_pairs = [ActionPointPair(rule.name, p)
                 for rule in inst.actions for p in inst.grid.points()]
    best = bmgop_benefit(inst, ())
    for t in range(1, min(inst.k, len(all_pairs)) + 1):
        for combo in itertools.combinations(all_pairs, t):
            if bmgop_feasible(inst, combo):
                best = max(best, bmgop_benefit(inst, combo))
    return best


# ---------------------------------------------------------------------------
# Classical-problem brute forcers.

def min_set_cover(universe, families):
    universe = set(universe)
    for t in range(len(families) + 1):
        for combo in itertools.combinations(range(len(families)), t):
            covered = set().union(*(families[i] for i in combo)) if combo else set()
            if covered >= universe:
                return t
    return None


def max_k_coverage(families, k):
    best = 0
    for t in range(0, min(k, len(families)) + 1):
        for combo in itertools.combinations(range(len(families)), t):
            covered = set().union(*(families[i] for i in combo)) if combo else set()
            best = max(best, len(covered))
    return best


def monsat_count(atoms, clauses):
    """Number of subsets of ``atoms`` satisfying every clause."""
    count = 0
    for bits in product((False, True), repeat=len(atoms)):
        chosen = {a for a, b in zip(atoms, bits) if b}
        if all(chosen & set(c) for c in clauses):
            count += 1
    return count


# ---------------------------------------------------------------------------
# Documents that repeat an entry the parser must refuse to overwrite.

def _one_point_document(**changes):
    doc = {
        "format": "gop-instance", "version": 1,
        "map": {"M": 1, "N": 0}, "predicates": ["g"], "state": [],
        "actions": [{"name": "drop", "explicit": [[[0, 0], [["g", [0, 0]]]]]}],
        "cost": {"default": 0.5, "rules": [], "overrides": []},
        "ics": [],
        "problem": {"type": "gbgop", "budget": 1.0, "theta_in": [], "theta_out": []},
    }
    doc.update(changes)
    return json.dumps(doc)


# kind -> (document text, JSON path of the repeated entry)
DUPLICATES = {
    "explicit-point": (_one_point_document(actions=[{"name": "drop", "explicit": [
        [[0, 0], [["g", [0, 0]]]], [[0, 0], [["g", [1, 0]]]]]}]),
        "$.actions[0].explicit[1]"),
    "cost-override": (_one_point_document(cost={
        "default": 0.5, "rules": [],
        "overrides": [[["drop", [0, 0]], 0.25], [["drop", [0, 0]], 0.75]]}),
        "$.cost.overrides[1]"),
    "benefit-override": (_one_point_document(
        benefit={"per_predicate": {"g": 1.0},
                 "overrides": [[["g", [0, 0]], 1.0], [["g", [0, 0]], 2.0]]},
        problem={"type": "bmgop", "k": 1, "budget": 1.0}),
        "$.benefit.overrides[1]"),
}


# ---------------------------------------------------------------------------
# Tiny builders.

def explicit_action(name, point, atoms):
    return ActionRule(name=name, explicit_effects={point: frozenset(atoms)})


def tiny_gbgop(**overrides):
    from gops import GbgopInstance
    grid = GridMap(1, 1)
    p00, p10 = Point(0, 0), Point(1, 0)
    defaults = dict(
        grid=grid,
        predicates=("a", "b"),
        s0=frozenset(),
        actions=(explicit_action("mk_a", p00, [GroundAtom("a", p00)]),
                 explicit_action("mk_b", p10, [GroundAtom("b", p10)])),
        cost_model=CostModel(default_cost=0.5),
        ics=(),
        budget=4.0,
        theta_in=frozenset(),
        theta_out=frozenset(),
    )
    defaults.update(overrides)
    return GbgopInstance(**defaults)


def tiny_bmgop(**overrides):
    from gops import BmgopInstance
    grid = GridMap(1, 1)
    p00, p10 = Point(0, 0), Point(1, 0)
    defaults = dict(
        grid=grid,
        predicates=("a", "b"),
        s0=frozenset(),
        actions=(explicit_action("mk_a", p00, [GroundAtom("a", p00)]),
                 explicit_action("mk_b", p10, [GroundAtom("b", p10)])),
        cost_model=CostModel(default_cost=0.5),
        benefit_model=BenefitModel(per_predicate={"a": 1.0, "b": 2.0}),
        ics=(),
        k=2,
        budget=4.0,
    )
    defaults.update(overrides)
    return BmgopInstance(**defaults)


# ---------------------------------------------------------------------------
# Cover-row oracle: a per-atom scan of every pair, the definition the IP
# builders' cover rows must equal.

def cover_rows_by_scan(effects, indices, mask, n_atoms):
    """Producing pair indices per atom of ``mask``, ascending on both: for
    each atom, every pair of ``indices`` is tested for that atom's bit."""
    return {a: [i for i in sorted(indices) if effects[i] >> a & 1]
            for a in range(n_atoms) if mask >> a & 1}
