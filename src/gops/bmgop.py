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
from itertools import compress, count, repeat
from typing import Optional

from .core import (ActionPointPair, BenefitModel, Problem, Solution, _fit, _numeral_mask,
                   format_number, sums_exact)
from .errors import InstanceError
from .ip import IpModel, Limits, _solve_for_tags


@dataclass(eq=False)
class BmgopInstance(Problem):
    benefit_model: BenefitModel
    k: int

    def __post_init__(self):
        super().__post_init__()
        if not _fit(self.k, math.inf):
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
    stale class top, or of a member that could tie with one (see
    ``bmgop_compute``). That is never more than rescanning every unpicked
    pair before each pick.
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

    Gains are evaluated lazily (Minoux 1978; CELF, Leskovec et al. 2007),
    one heap per numerator class: pairs of one cost and one set of active
    constraints share the numerator ``w' + w''*cost + sum of their w_i``,
    so within a class the smallest ratio belongs to the largest gain. Every
    pair that adds an atom outside the initial state (no other has a gain)
    is evaluated once into its class's heap, keyed by ``(-gain, index)``.
    After a pick, a class's stale top is evaluated again until a pair
    evaluated since that pick is on top, skipping classes whose stale top
    already gives a larger ratio than the best top so far. A pick raises
    every weight and never raises a gain (benefits are non-negative, and
    float sums and products are monotone), so a stale gain bounds a
    current one from above. A smaller gain can round to the top's ratio;
    where it can, the members that could tie are evaluated again, so the
    pick is the pair a rescan of every pair would make, ties included.
    Ratios are the same float operations, in the same order, as a rescan
    takes. Gains are ``Grounding.benefit_sum`` of the atoms a pair adds.

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
    benefit_sum = g.benefit_sum

    def condition():
        if condition_mode == "weighted":
            return k * w_prime + budget * w_dprime + (2.0 - delta) * sum(ic_w)
        return w_prime + w_dprime + sum(ic_w)

    cur_mask = g.s0_mask
    order = []  # insertion order of picked pair indices

    def gain_of(j):
        """Pair ``j``'s current gain, counted as one evaluation."""
        trace.op_count += 1
        return benefit_sum(effects[j] & ~cur_mask)

    def settle(heap, numerator, ratio, below):
        """The entry of the smallest index under ``below`` whose current
        ratio is ``ratio``, in a class whose fresh top has it, or None.
        Gains only fall, so only members whose stale gain still gives
        ``ratio`` can tie; they form a subtree at the root of the heap, and
        those under ``below`` are evaluated again in index order until one
        ties. The heap is repaired after."""
        near, stack = [], [0]
        while stack:
            p = stack.pop()
            if p < len(heap) and numerator / -heap[p][0] == ratio:
                if heap[p][1] < below:
                    near.append(heap[p])
                stack += (2 * p + 1, 2 * p + 2)
        for entry in sorted(near, key=lambda e: e[1]):
            if entry[2] < len(order):
                heap.remove(entry)
                entry = (-gain_of(entry[1]), entry[1], len(order))
                if entry[0]:
                    heap.append(entry)
                heapq.heapify(heap)
            if entry[0] and numerator / -entry[0] == ratio:
                return entry
        return None

    # Pairs of one cost and one constraint set share the numerator
    # w' + w''*cost + the weights of their constraints, so within such a
    # class the smallest ratio belongs to the largest gain. Each class keeps
    # a heap of (-gain, index, picks at evaluation) over its pairs with gain:
    # a pair without gain never regains it, and one that adds no atom
    # outside s0 has none and is not evaluated.
    classes = {}
    cond = condition()
    if cond <= lam:
        fresh = ((1 << g.n_atoms) - 1) & ~cur_mask
        added = list(map(fresh.__and__, effects))
        candidates = list(compress(range(n), added))
        trace.op_count = len(candidates)
        for j, gain in zip(candidates, map(benefit_sum, compress(added, added))):
            if gain > 0.0:
                classes.setdefault((costs[j], pair_ics[j]), []).append((-gain, j, 0))
        for heap in classes.values():
            heapq.heapify(heap)
    # on the bit-loop path a gain that is not a float, such as a large int,
    # can round to the float of a larger one, so every tie is settled there
    settle_every_tie = (g.benefit_classes is None
                        and not all(type(b) is float for b in g.benefits))
    while classes and cond <= lam:
        best, tied = math.inf, []  # the smallest ratio, and the classes whose top has it
        for key, heap in classes.items():
            numerator = w_prime + w_dprime * key[0]
            for i in key[1]:
                numerator += ic_w[i]
            if numerator / -heap[0][0] > best:
                continue  # the top's stale gain bounds every member's gain
            while heap and heap[0][2] < len(order):  # a stale top: evaluate it again
                gain = gain_of(heap[0][1])
                if gain > 0.0:
                    heapq.heapreplace(heap, (-gain, heap[0][1], len(order)))
                else:
                    heapq.heappop(heap)
            if heap:
                ratio = numerator / -heap[0][0]
                if ratio < best:
                    best, tied = ratio, []
                if ratio == best:
                    tied.append((heap, numerator))
        if not tied:
            break
        heap = min((h for h, _ in tied), key=lambda h: h[0][1])
        entry = heap[0]  # the smallest index among the tied tops
        for h, numerator in tied:  # a smaller gain may round to the same ratio
            if settle_every_tie or numerator / math.nextafter(-h[0][0], 0.0) == best:
                found = settle(h, numerator, best, entry[1])
                if found:
                    heap, entry = h, found
        if heap[0] is entry:
            heapq.heappop(heap)
        else:
            heap.remove(entry)
            heapq.heapify(heap)
        classes = {key: h for key, h in classes.items() if h}
        gain, best_j = -entry[0], entry[1]
        order.append(best_j)
        cur_mask |= effects[best_j]
        w_prime *= step_prime
        w_dprime *= lam ** (costs[best_j] / budget)
        for i in pair_ics[best_j]:
            ic_w[i] *= step_ic
        cond = condition()
        trace.iterations.append(GreedyIteration(
            index=len(order), chosen=g.pair_at(best_j), ratio=best,
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
    """Exact program: a selection variable X per pair that adds an atom
    outside the initial state, an indicator variable Y per atom that one of
    those pairs adds, benefit-weighted indicators in the objective
    (initial-state benefit enters as a constant), and linking, cardinality,
    budget and integrity packing constraints over the X variables.

    This is the paper's program presolved (Savelsbergh 1994): an X of a
    pair that adds nothing can only spend capacity, and a Y of an atom no
    pair adds is held at 0 by its linking row, so both are 0 in the
    lexicographically smallest optimum and are left out with their rows;
    an integrity row left without a member is left out too. X variable
    ``j`` selects the ``j``-th kept pair in canonical order, and its tag
    is ``("pair", index)``; Y variables follow in ascending atom order,
    tagged ``("atom", index)``. Names and labels are made from the
    canonical indices (``Grounding.pair_names``/``atom_names``), and the
    map's pairs and atoms are never built as objects.

    The model's ``start`` is BMGOP-Compute's selection, which the greedy
    works out only when a solver asks for it; it is None when ``k`` or the
    budget is 0, where the greedy does not run."""
    g = inst.grounding
    benefits = g.benefits
    model = IpModel(sense="max")
    model.constant = g.benefit_sum(g.s0_mask)
    outside_s0 = ((1 << g.n_atoms) - 1) & ~g.s0_mask
    kept = list(compress(range(g.n_pairs), map(outside_s0.__and__, g.effects)))
    x_vars = model.add_variables(g.pair_names("X", kept), zip(repeat("pair"), kept))

    covers = g.producers(kept, outside_s0)
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
    model.add_packing_rows(inst, kept)
    if inst.k > 0 and inst.budget > 0:  # what the greedy needs
        def start() -> list:
            """X of BMGOP-Compute's pairs, and Y of the atoms outside the
            initial state that they add. The greedy picks only pairs with a
            gain, and so only kept pairs."""
            picked = g.pairs_to_indices(bmgop_compute(inst)[0].pairs)
            added = g.union_effects(picked)
            x_of = dict(zip(kept, x_vars))
            return [x_of[i] for i in picked] + [y for y, atom in zip(y_vars, covers)
                                                if added >> atom & 1]
        model.start = start
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
    paying = _numeral_mask(compress(count(), g.benefits), g.n_atoms)
    effects = g.effects
    gain = [g.benefit_sum(e & paying & ~g.s0_mask) for e in effects]
    order = sorted((i for i, v in enumerate(gain) if v > 0), key=lambda i: (-gain[i], i))
    # the bound adds a value and at most ``depth`` gains, each a sum over the
    # atoms: it is exact when every partial sum with each atom counted
    # depth + 1 times is; otherwise leave room for the rounding of the
    # depth + 2 sums of at most n_atoms terms
    depth = min(inst.k, len(order))
    if g.benefit_classes is not None and sums_exact(
            (value, (depth + 1) * members.bit_count()) for value, members in g.benefit_classes):
        slack = 0.0
    else:
        slack = 2.0 ** -51 * sum(g.benefits) * (depth + 2) * (g.n_atoms + 1)
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
            heapq.heappush(top, g.benefit_sum(effects[j] & paying & ~mask))
            if len(top) > room:
                heapq.heappop(top)
        bound = value + sum(top) + slack
        return bound > best_value or bound == best_value and size < len(best)

    g.search(order, inst.budget, inst.k, limits, visit, lambda: best)
    return g._selection(best)


def solve_bmgop_ip(inst: BmgopInstance, limits: Optional[Limits] = None):
    """Solve via the exact program. Returns (solution or None, status).
    The program's start is BMGOP-Compute's selection; when the root proves
    it optimal, it is the solution returned."""
    tags, status = _solve_for_tags(build_bmgop_ip(inst), limits)
    if tags is None:
        return None, status
    return inst.grounding._selection([i for kind, i in tags if kind == "pair"]), status
