"""Goal-based placement problems: given goal atoms that must become true
and forbidden atoms that must stay false, find the fewest action-point
pairs that work within the cost budget and the integrity constraints.

Provides solution validation, the dominance reduction of the admissible
pair set, the covering integer program, an exact iterative-deepening
solver, and a guarded exhaustive solution counter.
"""

import itertools
from dataclasses import dataclass
from functools import cached_property
from typing import Optional

from .core import Problem
from .errors import InstanceError, LimitReachedError, UncoverableAtomsError
from .ip import IpModel, Limits, _solve_for_tags


@dataclass(eq=False)
class GbgopInstance(Problem):
    theta_in: frozenset
    theta_out: frozenset

    def __post_init__(self):
        super().__post_init__()
        self.theta_in = frozenset(self.theta_in)
        self.theta_out = frozenset(self.theta_out)
        if self.theta_in & self.theta_out:
            raise InstanceError("goal-overlap", "theta_in and theta_out must be disjoint")
        for a in self.theta_in | self.theta_out:
            if a.predicate not in self.predicates:
                raise InstanceError("unknown-predicate", f"goal atom {a}: unknown predicate")
            if not self.grid.contains(a.point):
                raise InstanceError("point-bounds", f"goal atom {a}: point outside the map")

    @cached_property
    def theta_in_mask(self) -> int:
        return self.grounding.atoms_to_mask(self.theta_in)

    @cached_property
    def theta_out_mask(self) -> int:
        return self.grounding.atoms_to_mask(self.theta_out)


@dataclass(frozen=True)
class GbgopSolution:
    pairs: frozenset
    total_cost: float
    final_state: frozenset
    cardinality: int


@dataclass(frozen=True)
class Violation:
    code: str
    message: str
    atoms: tuple = ()
    pairs: tuple = ()


def _solution(inst: GbgopInstance, indices) -> GbgopSolution:
    return GbgopSolution(**inst.grounding._selection(indices)[1])


def _needed(inst: GbgopInstance) -> int:
    """Goal atoms that do not hold initially, as a mask."""
    return inst.theta_in_mask & ~inst.grounding.s0_mask


def _admissible(inst: GbgopInstance) -> list:
    """Indices of the pairs whose effects avoid every forbidden atom."""
    out_mask = inst.theta_out_mask
    return [i for i, eff in enumerate(inst.grounding.effects) if not eff & out_mask]


def validate_gbgop(inst: GbgopInstance, sol) -> list:
    """Check a candidate pair set against all solution conditions.

    Returns the empty list when valid, else one Violation per failed
    condition: budget overrun, each violated integrity constraint, goal
    atoms left false, forbidden atoms made (or already) true.
    """
    return _violations(inst, inst.grounding.pairs_to_indices(sol))


def _violations(inst: GbgopInstance, indices) -> list:
    g = inst.grounding
    out = []

    inherent = g.s0_mask & inst.theta_out_mask
    if inherent:
        atoms = g.mask_atoms(inherent)
        out.append(Violation("initial-forbidden",
                             "forbidden atoms already hold in the initial state "
                             "(no action deletes atoms): " + ", ".join(map(str, atoms)),
                             atoms=atoms))

    total = g.cost_sum(indices)
    if total > inst.budget:
        out.append(Violation("cost-exceeded",
                             f"total cost {total} exceeds budget {inst.budget}"))

    for pos, overlap in g.conflicts(indices):
        pairs = tuple(g.pairs[i] for i in overlap)
        out.append(Violation("ic-violated",
                             f"integrity constraint {pos} admits at most one of: "
                             + ", ".join(map(str, pairs)),
                             pairs=pairs))

    final_mask = g.s0_mask | g.union_effects(indices)
    missing = inst.theta_in_mask & ~final_mask
    if missing:
        atoms = g.mask_atoms(missing)
        out.append(Violation("goal-missing",
                             "goal atoms not achieved: " + ", ".join(map(str, atoms)),
                             atoms=atoms))
    produced = inst.theta_out_mask & final_mask & ~g.s0_mask
    if produced:
        atoms = g.mask_atoms(produced)
        out.append(Violation("goal-forbidden",
                             "forbidden atoms produced: " + ", ".join(map(str, atoms)),
                             atoms=atoms))
    return out


def restricted_pairs(inst: GbgopInstance) -> list:
    """Pairs whose effects avoid every forbidden atom, canonical order."""
    pairs = inst.grounding.pairs
    return [pairs[i] for i in _admissible(inst)]


@dataclass(frozen=True)
class ReductionStats:
    r_size: int
    r_star_size: int


def probe_feasibility(inst: GbgopInstance) -> Optional[GbgopSolution]:
    """Cheap probe: execute every admissible pair at once and validate.

    A returned solution proves feasibility (it is rarely small); ``None``
    proves nothing, since the all-pairs set may break cost or integrity
    constraints that a smaller selection would satisfy.
    """
    candidate = _admissible(inst)
    if _violations(inst, candidate):
        return None
    return _solution(inst, candidate)


def reduce_to_r_star(inst: GbgopInstance):
    """Drop admissible pairs that are dominated by a cheaper-or-equal pair
    occurring in no extra active constraints and covering at least the
    same outstanding goal atoms.

    Mutually dominating (equivalent) pairs keep only their canonical-first
    member; a pair never dominates itself. Returns the kept pairs in
    canonical order plus (|R|, |R*|) stats. Quadratic scan.
    """
    pairs = inst.grounding.pairs
    r_indices, kept = _r_star(inst)
    return [pairs[i] for i in kept], ReductionStats(r_size=len(r_indices), r_star_size=len(kept))


def _r_star(inst: GbgopInstance):
    """(indices of R, indices of R*), both in canonical order."""
    g = inst.grounding
    needed = _needed(inst)
    r_indices = _admissible(inst)
    costs = g.costs
    q_sets = [frozenset(g.pair_ics[i]) for i in r_indices]
    affs = [g.effects[i] & needed for i in r_indices]

    kept = []
    n = len(r_indices)
    for a in range(n):
        dominated = False
        ca, qa, fa = costs[r_indices[a]], q_sets[a], affs[a]
        for b in range(n):
            if b == a:
                continue
            cb, qb, fb = costs[r_indices[b]], q_sets[b], affs[b]
            if cb <= ca and qb <= qa and fa & ~fb == 0:
                equivalent = cb == ca and qb == qa and fa == fb
                if not equivalent or b < a:
                    dominated = True
                    break
        if not dominated:
            kept.append(r_indices[a])
    return r_indices, kept


def build_gbgop_ip(inst: GbgopInstance, use_reduction: bool = False) -> IpModel:
    """Covering program: one binary variable per admissible pair (reduced
    set when asked), minimize the number of selected pairs subject to one
    coverage constraint per outstanding goal atom, the cost budget, and
    one at-most-one constraint per active integrity constraint.

    Raises UncoverableAtomsError when some outstanding goal atom has no
    producing pair at all; the program would be trivially infeasible and
    the caller gets the atoms instead of an opaque failure.
    """
    g = inst.grounding
    pairs = g.pairs
    atoms = g.atoms
    indices = _r_star(inst)[1] if use_reduction else _admissible(inst)

    model = IpModel(sense="min")
    var_of = {i: model.add_pair_variable(pairs[i], tag=i) for i in indices}
    model.objective = dict.fromkeys(var_of.values(), 1.0)

    uncoverable = []
    for atom_idx, producers in g.producers(indices, _needed(inst)).items():
        if not producers:
            uncoverable.append(atoms[atom_idx])
            continue
        a = atoms[atom_idx]
        # variables were added in ascending pair order, so these ascend too
        model.add_constraint([(var_of[i], 1.0) for i in producers], ">=", 1.0,
                             f"cover_{a.predicate}_{a.point.x}_{a.point.y}")
    if uncoverable:
        raise UncoverableAtomsError(uncoverable)
    model.add_packing_rows(inst, var_of)
    return model


def solve_gbgop_exact(inst: GbgopInstance, limits: Optional[Limits] = None) -> Optional[GbgopSolution]:
    """Proven minimum-cardinality solution, or None when infeasible.

    Iterative deepening over the reduced pair set: try every subset of
    size 0, 1, ... in canonical order and return the first one that
    validates. The reduction preserves at least one optimal solution, so
    the first hit is a true minimum.
    """
    g = inst.grounding
    if g.s0_mask & inst.theta_out_mask:
        return None
    needed = _needed(inst)

    candidates = _r_star(inst)[1]
    all_effects = g.union_effects(candidates)
    if needed & ~all_effects:
        return None  # some goal atom has no producer

    tick = (limits or Limits())._counter()
    effects = g.effects
    costs = g.costs
    budget = inst.budget

    try:
        for t in range(len(candidates) + 1):
            for combo in itertools.combinations(candidates, t):
                tick()
                if sum(costs[i] for i in combo) > budget:
                    continue
                mask = 0
                for i in combo:
                    mask |= effects[i]
                if needed & ~mask:
                    continue
                if g.conflicts(combo):
                    continue
                return _solution(inst, combo)
    except LimitReachedError as err:
        raise LimitReachedError(f"{err.message} at cardinality {t}") from None
    return None


def solve_gbgop_ip(inst: GbgopInstance, limits: Optional[Limits] = None):
    """Solve via the covering program over the reduced pair set. Returns
    (solution or None, status); status is the underlying assignment
    status, with uncoverable goal atoms reported as plain infeasibility."""
    try:
        model = build_gbgop_ip(inst, use_reduction=True)
    except UncoverableAtomsError:
        return None, "infeasible"
    chosen, status = _solve_for_tags(model, limits)
    if chosen is None:
        return None, status
    return _solution(inst, chosen), status


def count_gbgop_solutions(inst: GbgopInstance, cap: Optional[int] = None) -> int:
    """Exhaustively count the pair sets satisfying all solution conditions.

    Refuses instances with more than 20 action-point pairs: the count is
    #P-hard and, beyond desk scale, not even usefully approximable, so the
    guard is a hard precondition rather than a tunable. ``cap`` aborts the
    count (LimitReachedError) once exceeded.
    """
    g = inst.grounding
    n = len(g.pairs)
    if n > 20:
        raise InstanceError(
            "count-guard",
            f"refusing to count over {n} action-point pairs (limit 20): exact "
            "solution counting is #P-hard and effectively inapproximable, so "
            "enumeration cost is unavoidable")
    if g.s0_mask & inst.theta_out_mask:
        return 0
    needed = _needed(inst)
    # Pairs that produce a forbidden atom are never chosen, so only the
    # admissible ones branch.
    candidates = _admissible(inst)
    m = len(candidates)
    effects = g.effects
    costs = g.costs
    budget = inst.budget
    pair_ics = g.pair_ics
    n_ics = len(g.ic_s0)

    # Suffix unions let us abandon branches that can no longer cover.
    suffix = [0] * (m + 1)
    for t in range(m - 1, -1, -1):
        suffix[t] = suffix[t + 1] | effects[candidates[t]]

    count = 0
    ic_counts = [0] * n_ics

    def rec(t: int, cost: float, mask: int) -> None:
        nonlocal count
        if needed & ~(mask | suffix[t]):
            return
        if t == m:
            if not needed & ~mask:
                count += 1
                if cap is not None and count > cap:
                    raise LimitReachedError(f"solution count exceeded cap {cap}")
            return
        rec(t + 1, cost, mask)
        i = candidates[t]
        c2 = cost + costs[i]
        if c2 > budget:
            return
        for j in pair_ics[i]:
            if ic_counts[j] >= 1:
                return
        for j in pair_ics[i]:
            ic_counts[j] += 1
        rec(t + 1, c2, mask | effects[i])
        for j in pair_ics[i]:
            ic_counts[j] -= 1

    rec(0, 0.0, 0)
    return count
