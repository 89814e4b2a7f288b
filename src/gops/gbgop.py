"""Goal-based placement problems: given goal atoms that must become true
and forbidden atoms that must stay false, find the fewest action-point
pairs that work within the cost budget and the integrity constraints.

Provides solution validation, the dominance reduction of the admissible
pair set, the covering integer program, an exact branch-and-bound
solver, and a guarded exhaustive solution counter.
"""

from bisect import bisect_right
from dataclasses import dataclass
from functools import cached_property
from itertools import accumulate, chain, compress
from operator import itemgetter, or_
from typing import Optional

from .core import Problem, Solution, _mask, _numeral_mask, check_atoms, iter_bits
from .errors import InstanceError, LimitReachedError, UncoverableAtomsError
from .ip import IpModel, Limits, _solve_for_tags


@dataclass(eq=False)
class GbgopInstance(Problem):
    theta_in: frozenset
    theta_out: frozenset

    def __post_init__(self):
        super().__post_init__()
        self._check_goals()

    @classmethod
    def _from_parts(cls, parts: Problem, budget: float, theta_in, theta_out) -> "GbgopInstance":
        """The instance of ``parts``, a Problem already validated, with this
        budget and these goals: only they are checked, and the instance
        shares the parts, what validation kept of them and their grounding
        (which reads no budget)."""
        inst = object.__new__(cls)
        inst.__dict__.update(parts.__dict__)
        inst.budget, inst.theta_in, inst.theta_out = budget, theta_in, theta_out
        inst._check_budget()
        inst._check_goals()
        return inst

    def _check_goals(self):
        self.theta_in = frozenset(self.theta_in)
        self.theta_out = frozenset(self.theta_out)
        if self.theta_in & self.theta_out:
            raise InstanceError("goal-overlap", "theta_in and theta_out must be disjoint")
        self.theta_in_indices = tuple(sorted(check_atoms(
            self.theta_in, self.atom_offsets, self.grid, "goal atoms (theta_in)")))
        self.theta_out_indices = tuple(sorted(check_atoms(
            self.theta_out, self.atom_offsets, self.grid, "forbidden atoms (theta_out)")))

    @cached_property
    def theta_in_mask(self) -> int:
        return _mask(self.theta_in_indices)

    @cached_property
    def theta_out_mask(self) -> int:
        return _mask(self.theta_out_indices)


GbgopSolution = Solution


@dataclass(frozen=True)
class Violation:
    code: str
    message: str
    atoms: tuple = ()
    pairs: tuple = ()


def _needed(inst: GbgopInstance) -> int:
    """Goal atoms that do not hold initially, as a mask."""
    return inst.theta_in_mask & ~inst.grounding.s0_mask


def _admissible(inst: GbgopInstance) -> list:
    """Indices of the pairs whose effects avoid every forbidden atom."""
    g = inst.grounding
    return _complement(g.n_pairs, g.meeting(inst.theta_out_mask))


def _complement(n: int, dropped) -> list:
    """``range(n)`` without ``dropped``, ascending, in C-level passes."""
    keep = bytearray(b"\x01") * n
    for i in dropped:
        keep[i] = 0
    return list(compress(range(n), keep))


def validate_gbgop(inst: GbgopInstance, sol) -> list:
    """Check a candidate pair set against all solution conditions.

    Returns the empty list when valid, else one Violation per failed
    condition: budget overrun, each violated integrity constraint, goal
    atoms left false, forbidden atoms made (or already) true.
    """
    return _violations(inst, inst.grounding.pairs_to_indices(sol))


def _violations(inst: GbgopInstance, indices) -> list:
    g = inst.grounding
    inherent = _initially_forbidden(inst)
    out = [inherent] if inherent else []

    total = g.cost_sum(indices)
    if total > inst.budget:
        out.append(Violation("cost-exceeded",
                             f"total cost {total} exceeds budget {inst.budget}"))

    for pos, overlap in g.conflicts(indices):
        pairs = tuple(map(g.pair_at, overlap))
        out.append(Violation("ic-violated",
                             f"integrity constraint {pos} admits at most one of: "
                             + ", ".join(map(str, pairs)),
                             pairs=pairs))

    final_mask = g.s0_mask | g.union_effects(indices)
    out += filter(None, [
        _atom_violation(g, "goal-missing", "goal atoms not achieved",
                        inst.theta_in_mask & ~final_mask),
        _atom_violation(g, "goal-forbidden", "forbidden atoms produced",
                        inst.theta_out_mask & final_mask & ~g.s0_mask)])
    return out


def _initially_forbidden(inst: GbgopInstance) -> Optional[Violation]:
    """The violation of every selection when forbidden atoms hold initially."""
    g = inst.grounding
    return _atom_violation(g, "initial-forbidden", "forbidden atoms already hold in the "
                           "initial state (no action deletes atoms)",
                           g.s0_mask & inst.theta_out_mask)


def _atom_violation(g, code: str, what: str, mask: int) -> Optional[Violation]:
    """A violation that names the atoms of ``mask``, or None when it has none."""
    atoms = g.mask_atoms(mask)
    return Violation(code, f"{what}: " + ", ".join(map(str, atoms)), atoms=atoms) if atoms else None


def restricted_pairs(inst: GbgopInstance) -> list:
    """Pairs whose effects avoid every forbidden atom, canonical order."""
    return list(map(inst.grounding.pair_at, _admissible(inst)))


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
    inst.grounding.effects  # the fold below reads every pair: fill the table once
    if _violations(inst, candidate):
        return None
    return inst.grounding._selection(candidate)


def reduce_to_r_star(inst: GbgopInstance):
    """Drop admissible pairs that are dominated by a cheaper-or-equal pair
    occurring in no extra active constraints and covering at least the
    same outstanding goal atoms.

    Pairs with the same key (cost, active constraints, outstanding goal
    atoms covered) are equivalent, so only the canonical first of each key
    is kept, and only when no other key dominates it. Dominance between the
    distinct keys is tested bit-parallel, one bit per key in ascending cost
    order: a key's candidate dominators are the keys up to its cost, minus
    itself and the keys in a constraint outside its own set, ANDed with the
    keys covering each of its atoms until none is left. Returns the kept
    pairs in canonical order plus (|R|, |R*|) stats.
    """
    r_indices, kept = _r_star(inst)
    return (list(map(inst.grounding.pair_at, kept)),
            ReductionStats(r_size=len(r_indices), r_star_size=len(kept)))


def _r_star(inst: GbgopInstance):
    """(indices of R, indices of R*), both in canonical order."""
    inadmissible, kept = _reduction(inst)
    return _complement(inst.grounding.n_pairs, inadmissible), kept


def _reduction(inst: GbgopInstance):
    """(the pairs outside R, indices of R*): R is every pair but those
    whose effects meet the forbidden atoms, and R* is in canonical order.

    The keys and their first pairs are found from the goals, not pair by
    pair. One ``meeting`` of the outstanding goal and forbidden atoms gives
    the pairs outside R and the covering pairs. A covering pair of R, or
    one in an active constraint or with a cost override, is keyed from its
    own values. Every other pair of R has the key (its point's cost, (),
    0), and that key's first pair is the lowest point of the cost's point
    mask (``Grounding.cost_classes``) left in the first action that has
    one, once the pairs keyed before and those outside R are taken out.

    The distinct keys are then
    numbered in ascending cost order, bit j standing for key j, and one
    pass builds a mask of keys per active constraint and per outstanding
    goal atom covered (indexed by the atom's low bit). Key j's candidate
    dominators start as the keys costing no more, itself excluded (cost
    prefix); the masks of the constraints outside its own set are cleared
    (constraint exclusion); the cover mask of each of its atoms is ANDed in
    (cover AND), stopping once no candidate is left (early exit). Distinct
    keys never dominate each other both ways, so key j's pair is kept
    exactly when no candidate remains.
    """
    g = inst.grounding
    out_mask = inst.theta_out_mask
    covers = g.meeting(_needed(inst) | out_mask)
    inadmissible = [i for i, hit in covers.items() if hit & out_mask] if out_mask else []
    for i in inadmissible:
        del covers[i]
    # a covering key has atoms and no other has, so the two kinds never share a key
    rest = {i for i, _ in inst.cost_override_indices}.union(*(m for _, m in g.ic_s0))
    rest.difference_update(covers, inadmissible)
    costs, pair_ics = g.costs, g.pair_ics
    first = {}  # pair_ics entries ascend, so equal sets give equal keys
    for i, hit in covers.items():
        first.setdefault((costs[i], pair_ics[i], hit), i)
    for i in sorted(rest):
        first.setdefault((costs[i], pair_ics[i], 0), i)
    if len(covers) + len(rest) + len(inadmissible) < g.n_pairs:  # a pair is left
        # the pairs keyed above and those outside R, as one mask over the pairs
        taken = _numeral_mask(chain(covers, rest, inadmissible), g.n_pairs)
        for value, points in g.cost_classes:
            # the cost's points in every action's block, one numeral per block
            free = int("0" + f"{points:0{g.n_points}b}" * len(g.actions), 2) & ~taken
            if free:
                i = (free & -free).bit_length() - 1
                key = (value, (), 0)
                first[key] = min(first.get(key, i), i)
    keys = sorted(first, key=itemgetter(0))  # the kept set does not depend on the order of ties
    key_costs = [c for c, _, _ in keys]

    in_ic, covering = {}, {}  # constraint / atom low bit -> mask of keys
    for j, (_, q, f) in enumerate(keys):
        bit = 1 << j
        for k in q:
            in_ic[k] = in_ic.get(k, 0) | bit
        while f:
            low = f & -f
            covering[low] = covering.get(low, 0) | bit
            f ^= low

    kept = []
    for j, (c, q, f) in enumerate(keys):
        dominators = ((1 << bisect_right(key_costs, c)) - 1) & ~(1 << j)
        for k, mask in in_ic.items():
            if k not in q:
                dominators &= ~mask
        while f and dominators:
            low = f & -f
            dominators &= covering[low]
            f ^= low
        if not dominators:
            kept.append(first[keys[j]])
    kept.sort()
    return inadmissible, kept


def build_gbgop_ip(inst: GbgopInstance, use_reduction: bool = False) -> IpModel:
    """Covering program: one binary variable per admissible pair (reduced
    set when asked), minimize the number of selected pairs subject to one
    coverage constraint per outstanding goal atom, the cost budget, and
    one at-most-one constraint per active integrity constraint. Names and
    labels are made from the canonical indices (``Grounding.pair_names``/
    ``atom_names``), with no pair or atom object built.

    Raises InstanceError ``initial-forbidden`` when forbidden atoms hold
    initially, and UncoverableAtomsError when an outstanding goal atom has
    no producer, instead of returning a trivially infeasible program.
    """
    g = inst.grounding
    inherent = _initially_forbidden(inst)
    if inherent:
        raise InstanceError(inherent.code, inherent.message)
    indices = _reduction(inst)[1] if use_reduction else _admissible(inst)

    needed = _needed(inst)
    covers = g.producers(indices, needed)
    uncoverable = needed & ~_mask(covers)
    if uncoverable:
        raise UncoverableAtomsError(list(map(g.atom_at, iter_bits(uncoverable))))

    model = IpModel(sense="min")
    x_vars = model.add_variables(g.pair_names("X", indices), indices)
    model.objective = dict.fromkeys(x_vars, 1.0)
    # variable j selects pair indices[j], so the producers' positions are
    # the row's variables, ascending
    model.add_rows(g.atom_names("cover", covers), ">=", 1.0, list(covers.values()))
    model.add_packing_rows(inst, indices)
    return model


def solve_gbgop_exact(inst: GbgopInstance, limits: Optional[Limits] = None) -> Optional[GbgopSolution]:
    """Proven minimum-cardinality solution, or None when infeasible.

    Depth-first branch-and-bound (``Grounding.search``) over the reduced
    pair set in canonical order: a cover is kept when it is smaller than the
    best so far, and a subset is extended only while its extensions could be
    smaller and could still cover every goal. So the first minimum cover in
    lexicographic order wins; the reduction keeps at least one optimum. A
    limit carries the smallest cover so far, if any, not proven minimal.
    """
    g = inst.grounding
    if _initially_forbidden(inst):
        return None
    needed = _needed(inst)
    candidates = _reduction(inst)[1]
    suffix = _suffix_unions(g, candidates)
    best = None
    smaller_than = len(candidates) + 1  # a kept cover must have fewer pairs

    def visit(chosen, mask, pos):
        nonlocal best, smaller_than
        if not needed & ~mask:
            if len(chosen) < smaller_than:
                best = list(chosen)
                smaller_than = len(chosen)
            return False
        return len(chosen) + 1 < smaller_than and not needed & ~(mask | suffix[pos])

    g.search(candidates, inst.budget, len(candidates), limits, visit, lambda: best)
    return None if best is None else g._selection(best)


def _suffix_unions(g, candidates) -> list:
    """suffix[t]: the union of the effects of ``candidates[t:]``."""
    return [*accumulate(map(g.effect, reversed(candidates)), or_, initial=0)][::-1]


def solve_gbgop_ip(inst: GbgopInstance, limits: Optional[Limits] = None):
    """Solve via the covering program over the reduced pair set. Returns
    (solution or None, status); status is the underlying assignment status,
    with initially forbidden or uncoverable goal atoms as infeasibility."""
    if _initially_forbidden(inst):
        return None, "infeasible"
    try:
        model = build_gbgop_ip(inst, use_reduction=True)
    except UncoverableAtomsError:
        return None, "infeasible"
    chosen, status = _solve_for_tags(model, limits)
    if chosen is None:
        return None, status
    return inst.grounding._selection(chosen), status


def count_gbgop_solutions(inst: GbgopInstance, cap: Optional[int] = None) -> int:
    """Exhaustively count the pair sets satisfying all solution conditions.

    Refuses instances with more than 20 action-point pairs: the count is
    #P-hard and, beyond desk scale, not even usefully approximable, so the
    guard is a hard precondition rather than a tunable. ``cap`` aborts the
    count (LimitReachedError) once exceeded; a negative one is refused.
    """
    if cap is not None and not cap >= 0:
        raise InstanceError("limit-range", f"cap {cap} is not a non-negative number")
    n = inst.grid.n_points * len(inst.actions)  # before grounding, which may be vast
    if n > 20:
        raise InstanceError(
            "count-guard",
            f"refusing to count over {n} action-point pairs (limit 20): exact "
            "solution counting is #P-hard and effectively inapproximable, so "
            "enumeration cost is unavoidable")
    if _initially_forbidden(inst):
        return 0
    g = inst.grounding
    needed = _needed(inst)
    # Pairs that produce a forbidden atom are never chosen, so only the
    # admissible ones branch.
    candidates = _admissible(inst)
    # Suffix unions let us abandon branches that can no longer cover.
    suffix = _suffix_unions(g, candidates)
    most = float("inf") if cap is None else cap
    count = 0

    def visit(chosen, mask, pos):
        nonlocal count
        if count > most or needed & ~(mask | suffix[pos]):
            return False  # past the cap, the search winds down without extending
        if not needed & ~mask:
            count += 1
        return True

    g.search(candidates, inst.budget, len(candidates), None, visit)
    if count > most:
        raise LimitReachedError(f"solution count exceeded cap {cap}")
    return count
