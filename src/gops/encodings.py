"""Encoders from classical covering and satisfiability problems into
placement instances, all on a single-point map.

These serve as test oracles: a minimum set cover maps to a minimum-size
goal-based solution, a maximum K-coverage to an optimal benefit-maximizing
solution, and monotone-CNF satisfying assignments correspond one-to-one to
goal-based solutions (so solution counts agree).
"""

import re
from dataclasses import dataclass
from typing import Optional

from .bmgop import BmgopInstance
from .core import ActionRule, BenefitModel, CostModel, GridMap, GroundAtom, Point, _fit
from .errors import InstanceError
from .gbgop import GbgopInstance

_IDENT = re.compile(r"[^A-Za-z0-9_]")


@dataclass(frozen=True)
class CoverProblem:
    """Universe of element ids and a family list of subsets; ``k`` is the
    selection bound for the maximum-coverage variant."""

    universe: tuple
    families: tuple
    k: Optional[int] = None

    def __post_init__(self):
        if len(set(self.universe)) != len(self.universe):
            raise InstanceError("cover-universe", "duplicate universe elements")
        elems = set(self.universe)
        for i, fam in enumerate(self.families):
            if not set(fam) <= elems:
                raise InstanceError("cover-family", f"family {i} leaves the universe")
        if self.k is not None and not (_fit(self.k, len(self.families) + 1) and self.k):
            raise InstanceError("cover-k", "k must be in 1..number of families")


@dataclass(frozen=True)
class MonotoneCnf:
    """Atoms plus clauses that are disjunctions of (unnegated) atoms."""

    atoms: tuple
    clauses: tuple

    def __post_init__(self):
        if len(set(self.atoms)) != len(self.atoms):
            raise InstanceError("cnf-atoms", "duplicate atoms")
        names = set(self.atoms)
        for i, clause in enumerate(self.clauses):
            if not clause:
                raise InstanceError("cnf-clause", f"clause {i} is empty")
            if not set(clause) <= names:
                raise InstanceError("cnf-clause", f"clause {i} uses unknown atoms")


def _pred_names(prefix: str, ids) -> list:
    names = []
    seen = set()
    for e in ids:
        name = f"{prefix}_{_IDENT.sub('_', str(e))}"
        if name in seen:
            raise InstanceError("cover-universe", f"element ids collide on name {name!r}")
        seen.add(name)
        names.append(name)
    return names

_ORIGIN = Point(0, 0)


def _single_point_parts(element_ids, families):
    """Shared layout: one predicate per element, one explicit action per
    family placing that family's atoms at the origin."""
    grid = GridMap(0, 0)
    predicates = _pred_names("g", element_ids)
    pred_of = dict(zip(element_ids, predicates))
    actions = []
    for i, fam in enumerate(families):
        effect = frozenset(GroundAtom(pred_of[e], _ORIGIN) for e in fam)
        actions.append(ActionRule(name=f"a{i}", explicit_effects={_ORIGIN: effect}))
    return grid, predicates, pred_of, actions


def encode_set_cover(problem: CoverProblem) -> GbgopInstance:
    """Minimum set cover as a goal-based instance: every element atom must
    become true, unit costs, budget equal to the universe size. Optimal
    cardinality equals the minimum cover size."""
    if problem.k is not None:
        raise InstanceError("cover-k", "set cover takes no selection bound k")
    if not problem.universe:
        raise InstanceError("cover-universe", "empty universe")
    grid, predicates, pred_of, actions = _single_point_parts(problem.universe, problem.families)
    return GbgopInstance(
        grid=grid, predicates=tuple(predicates), s0=frozenset(),
        actions=tuple(actions), cost_model=CostModel(default_cost=1.0), ics=(),
        budget=float(len(problem.universe)),
        theta_in=frozenset(GroundAtom(pred_of[e], _ORIGIN) for e in problem.universe),
        theta_out=frozenset())


def encode_max_k_cover(problem: CoverProblem) -> BmgopInstance:
    """Maximum coverage with ``k`` sets as a benefit-maximizing instance:
    unit benefit per element atom, unit costs, cardinality bound and
    budget both ``k``. Optimal benefit equals the best coverage count."""
    if problem.k is None:
        raise InstanceError("cover-k", "maximum coverage needs a selection bound k")
    grid, predicates, pred_of, actions = _single_point_parts(problem.universe, problem.families)
    return BmgopInstance(
        grid=grid, predicates=tuple(predicates), s0=frozenset(),
        actions=tuple(actions), cost_model=CostModel(default_cost=1.0),
        benefit_model=BenefitModel(per_predicate={p: 1.0 for p in predicates}),
        ics=(), k=problem.k, budget=float(problem.k))


def encode_monsat(cnf: MonotoneCnf) -> GbgopInstance:
    """Monotone-CNF satisfiability as a goal-based instance: one predicate
    per clause, one action per literal adding the atoms of the clauses it
    satisfies, every clause atom a goal. Pair sets that are solutions
    correspond one-to-one to satisfying assignments (chosen literal =
    literal set true), so the solution count equals the model count."""
    grid = GridMap(0, 0)
    predicates = _pred_names("c", range(len(cnf.clauses)))
    actions = []
    for lit in cnf.atoms:
        effect = frozenset(GroundAtom(predicates[j], _ORIGIN)
                           for j, clause in enumerate(cnf.clauses) if lit in clause)
        actions.append(ActionRule(name=f"lit_{_IDENT.sub('_', str(lit))}",
                                  explicit_effects={_ORIGIN: effect}))
    return GbgopInstance(
        grid=grid, predicates=tuple(predicates), s0=frozenset(),
        actions=tuple(actions), cost_model=CostModel(default_cost=1.0), ics=(),
        budget=float(len(cnf.atoms)),
        theta_in=frozenset(GroundAtom(p, _ORIGIN) for p in predicates),
        theta_out=frozenset())
