"""Scenario generators: a fixed election-campaign district used throughout
the tests and docs, and seeded random instances for property suites.
"""

import math
import random
from dataclasses import dataclass
from functools import reduce
from operator import or_

from .bmgop import BmgopInstance
from .core import (ActionPointPair, ActionRule, BenefitModel, CostModel,
                   GridMap, GroundAtom, IntegrityConstraint, Point, Problem,
                   TRUE, atom, lnot)
from .errors import InstanceError
from .gbgop import GbgopInstance


@dataclass(frozen=True)
class CampaignScenario:
    gbgop: GbgopInstance
    bmgop: BmgopInstance


def _plus(x, y):
    return {Point(x, y), Point(x - 1, y), Point(x + 1, y), Point(x, y - 1), Point(x, y + 1)}


def gen_campaign() -> CampaignScenario:
    """A 17 x 11 district (187 points) where a candidate plans campaign
    stops and public appeals to maximize exposure.

    Layout, chosen so the committed quantities hold exactly:

    * two target corridors of populated cells, x=5/y=1..5 and x=10/y=5..9;
      the goal variant asks for exposure exactly there (budget 4),
    * interest group 1 occupies the 3x5 block around its headquarters at
      (4,3); an appeal there exposes all 15 group cells at once,
    * interest group 2 (13 cells) sits around its headquarters at (10,7),
      shares one cell with group 1, and includes four cells of the
      populated cluster at (15,6),
    * two populated plus-shaped clusters at (15,6) and (15,9) are the only
      spots where a plain stop reaches 5 unexposed cells; scattered 2x2
      villages and a high-cost downtown corner fill out the rest,
    * one constraint: the two appeals cannot both run at their
      headquarters (the groups oppose each other).

    Guarantees: 187 points and 561 action-point pairs; the goal variant's
    admissible set reduces from 561 to the 7 pairs that matter (the appeal
    at (4,3) plus six corridor stops); the benefit variant (k=3, budget 2)
    greedily picks the appeal at (4,3) first at cost 0.5, and both loop
    condition modes end with the same three-pair solution.
    """
    grid = GridMap(16, 10)
    predicates = ("hi_cost", "non_pop", "grp1", "grp2", "hq1", "hq2", "exposure")

    strip_a = {Point(5, y) for y in range(1, 6)}
    strip_b = {Point(10, y) for y in range(5, 10)}
    cluster_1 = _plus(15, 6)
    cluster_2 = _plus(15, 9)
    villages = set()
    for bx, by in ((1, 1), (12, 1), (1, 5), (7, 9)):
        villages |= {Point(bx, by), Point(bx + 1, by), Point(bx, by + 1), Point(bx + 1, by + 1)}
    populated = strip_a | strip_b | cluster_1 | cluster_2 | villages

    hi_cost = {Point(x, y) for x in range(0, 3) for y in range(9, 11)}
    grp1 = {Point(x, y) for x in range(4, 7) for y in range(1, 6)}
    grp2 = ({Point(x, y) for x in (9, 10) for y in (6, 7, 8)}
            | {Point(5, 8), Point(6, 5)}
            | {Point(14, 6), Point(15, 5), Point(15, 6), Point(16, 6), Point(15, 7)})
    hq1 = Point(4, 3)
    hq2 = Point(10, 7)

    s0 = set()
    for p in grid.points():
        if p in hi_cost:
            s0.add(GroundAtom("hi_cost", p))
        if p not in populated:
            s0.add(GroundAtom("non_pop", p))
        if p in grp1:
            s0.add(GroundAtom("grp1", p))
        if p in grp2:
            s0.add(GroundAtom("grp2", p))
    s0.add(GroundAtom("hq1", hq1))
    s0.add(GroundAtom("hq2", hq2))

    actions = (
        ActionRule(name="nor", effect_predicate="exposure",
                   target_guard=lnot(atom("non_pop")), max_distance=1.0),
        ActionRule(name="appeal_1", effect_predicate="exposure",
                   source_guard=atom("hq1"), target_guard=atom("grp1")),
        ActionRule(name="appeal_2", effect_predicate="exposure",
                   source_guard=atom("hq2"), target_guard=atom("grp2")),
    )
    cost_model = CostModel(default_cost=0.5, state_rules=((atom("hi_cost"), 1.0),))
    benefit_model = BenefitModel(per_predicate={"exposure": 1.0})
    ics = (IntegrityConstraint(
        pairs=frozenset({ActionPointPair("appeal_1", hq1), ActionPointPair("appeal_2", hq2)}),
        condition=TRUE),)

    theta_in = frozenset(GroundAtom("exposure", p) for p in strip_a | strip_b)

    gbgop = GbgopInstance(grid=grid, predicates=predicates, s0=frozenset(s0),
                          actions=actions, cost_model=cost_model, ics=ics,
                          budget=4.0, theta_in=theta_in, theta_out=frozenset())
    bmgop = BmgopInstance(grid=grid, predicates=predicates, s0=frozenset(s0),
                          actions=actions, cost_model=cost_model,
                          benefit_model=benefit_model, ics=ics, k=3, budget=2.0)
    return CampaignScenario(gbgop=gbgop, bmgop=bmgop)


# Desk-scale guards for the random generator; anything bigger belongs to an
# external solver via the LP emitter.
MAX_POINTS = 2048
MAX_PAIRS = 4096
MAX_ATOMS = 16384

_COSTS = (0.0, 0.125, 0.25, 0.375, 0.5, 0.625, 0.75, 0.875, 1.0)
_BENEFITS = (0.0, 0.5, 1.0, 1.5, 2.0, 3.0)


def gen_random(*, seed: int, width: int = 1, height: int = 1, predicates: int = 3,
               actions: int = 3, radius: float = 1.0, ics: int = 1,
               problem: str = "gbgop"):
    """Seeded random instance; identical seeds give identical instances.

    Benefits and costs are dyadic rationals so float sums stay exact.
    Guard rails reject sizes beyond desk scale and, whatever the seed
    draws, a ``radius`` that is neither None nor finite and non-negative.
    """
    if predicates < 1 or actions < 1:
        raise InstanceError("gen-guard", "need at least one predicate and one action")
    if ics < 0:
        raise InstanceError("gen-guard", "the number of integrity constraints is negative")
    if radius is not None and not 0 <= radius < math.inf:
        raise InstanceError("gen-guard", f"radius {radius} is not a finite non-negative number")
    grid = GridMap(width, height)
    if grid.n_points > MAX_POINTS:
        raise InstanceError("gen-guard", f"too many points ({grid.n_points} > {MAX_POINTS})")
    if grid.n_points * actions > MAX_PAIRS:
        raise InstanceError("gen-guard", "too many action-point pairs")
    if grid.n_points * predicates > MAX_ATOMS:
        raise InstanceError("gen-guard", "too many ground atoms")
    if problem not in ("gbgop", "bmgop"):
        raise InstanceError("problem-type", f"unknown problem type {problem!r}")

    rng = random.Random(seed)
    pred_names = tuple(f"p{i}" for i in range(predicates))
    points = grid.points()

    s0 = frozenset(GroundAtom(pred, p) for pred in pred_names for p in points
                   if rng.random() < 0.3)

    def random_template():
        roll = rng.random()
        if roll < 0.4:
            return TRUE
        if roll < 0.75:
            return atom(rng.choice(pred_names))
        return lnot(atom(rng.choice(pred_names)))

    rules = []
    for i in range(actions):
        if rng.random() < 0.5:
            rules.append(ActionRule(
                name=f"a{i}", effect_predicate=rng.choice(pred_names),
                source_guard=random_template(), target_guard=random_template(),
                max_distance=radius, metric=rng.choice(("euclidean", "manhattan", "chebyshev"))))
        else:
            table = {}
            for p in points:
                if rng.random() < 0.6:
                    size = rng.randint(1, min(3, predicates))
                    table[p] = frozenset(GroundAtom(rng.choice(pred_names), rng.choice(points))
                                         for _ in range(size))
            rules.append(ActionRule(name=f"a{i}", explicit_effects=table))
    rules = tuple(rules)

    overrides = {}
    for _ in range(rng.randint(0, 3)):
        pair = ActionPointPair(f"a{rng.randrange(actions)}", rng.choice(points))
        overrides[pair] = rng.choice(_COSTS)
    state_rules = tuple((atom(rng.choice(pred_names)), rng.choice(_COSTS))
                        for _ in range(rng.randint(0, 2)))
    cost_model = CostModel(default_cost=rng.choice((0.25, 0.5, 0.75, 1.0)),
                           state_rules=state_rules, overrides=overrides)

    ic_list = []
    for _ in range(ics):
        members = {ActionPointPair(f"a{rng.randrange(actions)}", rng.choice(points))
                   for _ in range(rng.randint(2, 3))}
        if len(members) < 2:
            continue
        condition = TRUE if rng.random() < 0.7 else atom(rng.choice(pred_names), rng.choice(points))
        ic_list.append(IntegrityConstraint(pairs=frozenset(members), condition=condition))
    ic_tuple = tuple(ic_list)

    if problem == "bmgop":
        benefit_model = BenefitModel(
            per_predicate={pred: rng.choice(_BENEFITS) for pred in pred_names})
        return BmgopInstance(grid=grid, predicates=pred_names, s0=s0, actions=rules,
                             cost_model=cost_model, benefit_model=benefit_model,
                             ics=ic_tuple, k=rng.randint(1, 4),
                             budget=rng.choice((0.5, 1.0, 1.5, 2.0, 3.0, 4.0)))

    # Bias goal atoms toward producible ones so a good share of instances
    # are feasible; leave some arbitrary picks to exercise infeasibility.
    parts = Problem(grid, pred_names, s0, rules, cost_model, ic_tuple, budget=0.0)
    g = parts.grounding
    producible = g.mask_atoms(reduce(or_, g.effects, 0))  # a fold over every pair: the table
    all_atoms = [GroundAtom(pred, p) for pred in pred_names for p in points]
    theta_in = set()
    for _ in range(rng.randint(1, 3)):
        pool = producible if producible and rng.random() < 0.6 else all_atoms
        theta_in.add(rng.choice(pool))
    theta_out = set()
    for _ in range(rng.randint(0, 2)):
        candidate = rng.choice(all_atoms)
        if candidate not in theta_in and candidate not in s0:
            theta_out.add(candidate)
    # the parts are validated and grounded once: the instance checks only its goals
    return GbgopInstance._from_parts(parts, budget=rng.choice((1.0, 1.5, 2.0, 3.0, 4.0)),
                                     theta_in=frozenset(theta_in), theta_out=frozenset(theta_out))
