"""Benefit-maximizing placement problems: pick at most ``k`` action-point
pairs within a cost budget and the integrity constraints so that the
summed benefit of the resulting state is as large as possible.

The objective is monotone and submodular, and all constraints are packing
constraints, so a deterministic multiplicative-weights greedy gives a
``1 / (2 + m) ** (1 / (2 - delta))`` guarantee (``m`` active integrity
constraints) whenever ``k`` and the budget are at least ``2 - delta``.
An exact subset-search solver and the exact integer program are provided
for cross-checking and small instances.
"""

import heapq
import math
import sys
from dataclasses import dataclass, field, replace
from itertools import compress, repeat
from typing import Optional

from .core import ActionPointPair, BenefitModel, Problem, Solution, format_number
from .errors import InstanceError
from .ip import IpModel, Limits, _solve_for_tags


@dataclass(eq=False)
class BmgopInstance(Problem):
    benefit_model: BenefitModel
    k: int

    def __post_init__(self):
        super().__post_init__()
        if not isinstance(self.k, int) or self.k < 0:
            raise InstanceError("k-range", "k must be a non-negative integer")
        if self.k > sys.float_info.max:  # the greedy and the program take it as a float
            raise InstanceError("k-range", "k is too large for a float")


BmgopSolution = Solution


@dataclass(frozen=True)
class GreedyIteration:
    index: int
    chosen: ActionPointPair
    ratio: float
    gain: float
    w_prime: float
    w_dprime: float
    ic_weights: tuple
    condition_value: float


@dataclass
class GreedyTrace:
    """Full record of one greedy run.

    Weights and the loop-condition value in each record are the values
    after that iteration's update, i.e. what the next loop test sees.
    ``op_count`` counts candidate gain evaluations: once each pair that
    adds an atom outside the initial state, then each re-evaluation of a
    stale heap top (see ``bmgop_compute``). That is never more than
    rescanning every unpicked pair before each pick.
    """

    delta: float
    lam: float
    mode: str
    ic_count: int
    iterations: list = field(default_factory=list)
    fixup: str = "none"
    op_count: int = 0

    def to_text(self) -> str:
        lines = [f"delta={format_number(self.delta)} lambda={format_number(self.lam)} "
                 f"ics={self.ic_count} mode={self.mode}"]
        for it in self.iterations:
            ws = " ".join(f"w{i + 1}={format_number(w)}" for i, w in enumerate(it.ic_weights))
            ws = f" {ws}" if ws else ""
            lines.append(
                f"iter={it.index} chosen={it.chosen} ratio={format_number(it.ratio)} "
                f"gain={format_number(it.gain)} w'={format_number(it.w_prime)} "
                f"w''={format_number(it.w_dprime)}{ws} cond={format_number(it.condition_value)}")
        lines.append(f"fixup={self.fixup}")
        return "\n".join(lines) + "\n"


def objective_f(inst: BmgopInstance, pairs) -> float:
    """Total benefit of the state reached by executing ``pairs``."""
    return _benefit(inst, inst.grounding.pairs_to_indices(pairs))


def _benefit(inst: BmgopInstance, indices) -> float:
    g = inst.grounding
    return g.benefit_sum(g.s0_mask | g.union_effects(indices))


def validate_bmgop(inst: BmgopInstance, pairs) -> list:
    """Failed solution conditions (cardinality, cost, integrity) as
    human-readable strings; empty when valid."""
    return _violations(inst, inst.grounding.pairs_to_indices(pairs))


def _violations(inst: BmgopInstance, indices) -> list:
    g = inst.grounding
    out = []
    if len(indices) > inst.k:
        out.append(f"cardinality {len(indices)} exceeds k={inst.k}")
    total = g.cost_sum(indices)
    if total > inst.budget:
        out.append(f"total cost {total} exceeds budget {inst.budget}")
    for pos, _ in g.conflicts(indices):
        out.append(f"integrity constraint {pos} admits at most one pair")
    return out


def approx_bound(inst: BmgopInstance, delta: float = 0.001) -> float:
    """Guaranteed fraction of the optimum for the greedy, as a closed form
    in the number of active integrity constraints."""
    _check_delta(delta)
    m = len(inst.grounding.ic_s0)
    return 1.0 / (2.0 + m) ** (1.0 / (2.0 - delta))


def bound_applicable(inst: BmgopInstance, delta: float = 0.001) -> bool:
    """The guarantee only holds when both packing capacities are at least
    2 - delta."""
    _check_delta(delta)
    return inst.k >= 2.0 - delta and inst.budget >= 2.0 - delta


def _check_delta(delta: float) -> None:
    if not 0.0 < delta < 1.0:
        raise InstanceError("delta-range", f"delta must lie strictly in (0, 1), got {delta}")


def bmgop_compute(inst: BmgopInstance, delta: float = 0.001,
                  condition_mode: str = "weighted"):
    """Multiplicative-weights greedy. Returns (solution, trace).

    Repeatedly picks the pair with the smallest weight-to-marginal-gain
    ratio, inflating the weight of every capacity the pick consumes, until
    the weight total crosses ``lam``. ``condition_mode`` selects the loop
    test: "weighted" compares ``k*w' + c*w'' + (2-delta)*sum(w_i)`` against
    ``lam``; "plain" compares the bare sum ``w' + w'' + sum(w_i)``, which
    runs longer and leans on the repair step. Zero-gain pairs are never
    picked (their ratio is undefined); ratio ties break to the canonical
    smallest pair.

    Gains are evaluated lazily (Minoux 1978; CELF, Leskovec et al. 2007):
    every pair that adds an atom outside the initial state (no other has
    a gain) is evaluated once into a heap keyed by ``(ratio, index)``,
    and after a pick only the heap top is evaluated again, until a pair
    evaluated since that pick is on top. A pick raises every weight and
    never raises a gain (benefits are non-negative, and float sums and
    products are monotone), so a stale key is a lower bound on the current
    one, and the top is the pair a rescan of every pair would pick, ties
    included. Gains are ``Grounding.benefit_sum`` of the atoms a pair adds.

    If the assembled set is invalid, the repair step keeps either the
    prefix or the last pick, whichever has the larger objective; if that
    still is not valid, picks are dropped in reverse insertion order until
    it is. The returned solution is always valid.
    """
    _check_delta(delta)
    if condition_mode not in ("weighted", "plain"):
        raise InstanceError("condition-mode", f"unknown condition mode {condition_mode!r}")
    if inst.k <= 0:
        raise InstanceError("k-range", "the greedy needs k >= 1")
    if inst.budget <= 0:
        raise InstanceError("budget-range", "the greedy needs a positive budget")

    g = inst.grounding
    n = g.n_pairs
    m = len(g.ic_s0)
    k = inst.k
    budget = inst.budget

    lam = math.exp(2.0 - delta) * (2.0 + m)
    w_prime = 1.0 / k
    w_dprime = 1.0 / budget
    ic_w = [1.0 / (2.0 - delta)] * m
    step_prime = lam ** (1.0 / k)
    step_ic = lam ** (1.0 / (2.0 - delta))

    trace = GreedyTrace(delta=delta, lam=lam, mode=condition_mode, ic_count=m)

    effects = g.effects
    costs = g.costs
    pair_ics = g.pair_ics

    def condition():
        if condition_mode == "weighted":
            return k * w_prime + budget * w_dprime + (2.0 - delta) * sum(ic_w)
        return w_prime + w_dprime + sum(ic_w)

    cur_mask = g.s0_mask
    order = []  # insertion order of picked pair indices

    def evaluate(j):
        """Pair ``j``'s (ratio, j, gain, picks so far), or None without gain."""
        trace.op_count += 1
        gain = g.benefit_sum(effects[j] & ~cur_mask)
        if gain <= 0.0:
            return None
        numerator = w_prime + w_dprime * costs[j]
        for i in pair_ics[j]:
            numerator += ic_w[i]
        return numerator / gain, j, gain, len(order)

    # a pair without gain never regains it, so it leaves the heap for good;
    # one that adds no atom outside s0 has none and is not evaluated
    cond = condition()
    fresh = ((1 << g.n_atoms) - 1) & ~cur_mask
    heap = [entry for entry in map(evaluate, compress(range(n), map(fresh.__and__, effects)))
            if entry] if cond <= lam else []
    heapq.heapify(heap)
    while heap and cond <= lam:
        ratio, best_j, gain, stamp = heap[0]
        if stamp < len(order):  # stale: evaluate again, then look at the top anew
            entry = evaluate(best_j)
            if entry:
                heapq.heapreplace(heap, entry)
            else:
                heapq.heappop(heap)
            continue
        heapq.heappop(heap)
        order.append(best_j)
        cur_mask |= effects[best_j]
        w_prime *= step_prime
        w_dprime *= lam ** (costs[best_j] / budget)
        for i in pair_ics[best_j]:
            ic_w[i] *= step_ic
        cond = condition()
        trace.iterations.append(GreedyIteration(
            index=len(order), chosen=g.pair_at(best_j), ratio=ratio,
            gain=gain, w_prime=w_prime, w_dprime=w_dprime,
            ic_weights=tuple(ic_w), condition_value=cond))

    if order and _violations(inst, order):
        last = order[-1]
        if _benefit(inst, order[:-1]) >= _benefit(inst, [last]):
            order = order[:-1]
            trace.fixup = "drop-last"
        else:
            order = [last]
            trace.fixup = "keep-last"
        dropped = 0
        while order and _violations(inst, order):
            order.pop()
            dropped += 1
        if dropped:
            trace.fixup += f"+forced-drop({dropped})"

    bound = approx_bound(inst, delta) if bound_applicable(inst, delta) else None
    return replace(g._selection(order), reported_bound=bound), trace


def build_bmgop_ip(inst: BmgopInstance) -> IpModel:
    """Exact program: a selection variable per pair, an indicator variable
    per atom outside the initial state, benefit-weighted indicators in the
    objective (initial-state benefit enters as a constant), and linking,
    cardinality, budget and integrity packing constraints.

    Variable ``i`` selects pair ``i``. Names and labels are made from the
    canonical indices (``Grounding.pair_names``/``atom_names``), and the
    map's pairs and atoms are never built as objects."""
    g = inst.grounding
    benefits = g.benefits
    n = g.n_pairs
    model = IpModel(sense="max")
    x_vars = model.add_variables(g.pair_names("X", range(n)), zip(repeat("pair"), range(n)))

    model.constant = g.benefit_sum(g.s0_mask)
    outside_s0 = ((1 << g.n_atoms) - 1) & ~g.s0_mask
    covers = g.producers(range(n), outside_s0)
    y_vars = model.add_variables(g.atom_names("Y", covers), zip(repeat("atom"), covers))
    rows = list(covers.values())
    # a cover row weighs its producers 1.0 and y -1.0; rows of one length
    # share their list of coefficients
    weights = {k: [1.0] * k + [-1.0] for k in set(map(len, rows))}
    coeffs = list(map(weights.__getitem__, map(len, rows)))
    for y, atom_idx, row in zip(y_vars, covers, rows):
        if benefits[atom_idx] != 0:
            model.objective[y] = benefits[atom_idx]
        # producers ascend and every X variable precedes y: already in variable order
        row.append(y)
    model.add_rows(g.atom_names("cover", covers), ">=", 0.0, rows, coeffs)

    model.add_rows(["card"], "<=", float(inst.k), [x_vars])
    model.add_packing_rows(inst, dict(zip(x_vars, x_vars)))
    return model


def solve_bmgop_exact(inst: BmgopInstance, limits: Optional[Limits] = None) -> BmgopSolution:
    """Proven maximum-benefit selection of at most ``k`` pairs within the
    budget and the integrity constraints; ties go to the smaller selection,
    then to the lexicographically smaller one (by canonical pair index).

    Depth-first branch-and-bound (``Grounding.search``) over the pairs that
    add benefit to the initial state, largest gain first. The objective is
    monotone and submodular, so a selection's benefit plus the ``k - size``
    largest current gains of later pairs bounds all its extensions
    (Nemhauser, Wolsey & Fisher 1978); they are searched only when that
    bound could beat the best so far or tie it with fewer pairs. A limit
    carries the best selection so far, not proven optimal.
    """
    g = inst.grounding
    # the atoms with a non-zero benefit; summing over these alone gives the same floats
    paying = int("0" + "".join(["1" if b else "0" for b in reversed(g.benefits)]), 2)
    gain = [g.benefit_sum(e & paying & ~g.s0_mask) for e in g.effects]
    order = sorted((i for i, v in enumerate(gain) if v > 0), key=lambda i: (-gain[i], i))
    # room for the rounding of the k + 2 sums of at most n_atoms terms in the bound test
    slack = 2.0 ** -51 * sum(g.benefits) * (min(inst.k, len(order)) + 2) * (g.n_atoms + 1)
    best_value, best = g.benefit_sum(g.s0_mask & paying), []

    def visit(chosen, mask, pos):
        nonlocal best_value, best
        value = g.benefit_sum(mask & paying)
        size = len(chosen)
        if value > best_value or value == best_value and (size, sorted(chosen)) < (len(best), best):
            best_value, best = value, sorted(chosen)
        room = inst.k - size
        top = []  # min-heap of the ``room`` largest current gains of later pairs
        for j in order[pos:] if room else ():
            if len(top) == room and gain[j] <= top[0]:
                break  # later pairs gain no more than gain[j], now or after
            heapq.heappush(top, g.benefit_sum(g.effects[j] & paying & ~mask))
            if len(top) > room:
                heapq.heappop(top)
        bound = value + sum(top) + slack
        return bound > best_value or bound == best_value and size < len(best)

    g.search(order, inst.budget, inst.k, limits, visit, lambda: best)
    return g._selection(best)


def solve_bmgop_ip(inst: BmgopInstance, limits: Optional[Limits] = None):
    """Solve via the exact program. Returns (solution or None, status)."""
    tags, status = _solve_for_tags(build_bmgop_ip(inst), limits)
    if tags is None:
        return None, status
    return inst.grounding._selection([i for kind, i in tags if kind == "pair"]), status
