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

import itertools
import math
from dataclasses import dataclass, field
from typing import Optional

from .core import (ActionPointPair, BenefitModel, Problem, format_number,
                   iter_bits)
from .errors import InstanceError, LimitReachedError
from .ip import IpModel, Limits, _solve_for_tags


@dataclass(eq=False)
class BmgopInstance(Problem):
    benefit_model: BenefitModel
    k: int

    def __post_init__(self):
        super().__post_init__()
        if not isinstance(self.k, int) or self.k < 0:
            raise InstanceError("k-range", "k must be a non-negative integer")

    def _benefit_model(self) -> BenefitModel:
        return self.benefit_model


@dataclass(frozen=True)
class BmgopSolution:
    pairs: frozenset
    total_cost: float
    cardinality: int
    final_state: frozenset
    achieved_benefit: float
    reported_bound: Optional[float] = None


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
    ``op_count`` counts candidate gain evaluations.
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


def _solution(inst: BmgopInstance, indices, bound: Optional[float]) -> BmgopSolution:
    g = inst.grounding
    final_mask, fields = g._selection(indices)
    return BmgopSolution(**fields, achieved_benefit=g.benefit_sum(final_mask),
                         reported_bound=bound)


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
    n = len(g.pairs)
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
    benefits = g.benefits

    def condition():
        if condition_mode == "weighted":
            return k * w_prime + budget * w_dprime + (2.0 - delta) * sum(ic_w)
        return w_prime + w_dprime + sum(ic_w)

    cur_mask = g.s0_mask
    in_sol = [False] * n
    order = []  # insertion order of picked pair indices

    while condition() <= lam and len(order) < n:
        best_ratio = None
        best_j = -1
        best_gain = 0.0
        for j in range(n):
            if in_sol[j]:
                continue
            trace.op_count += 1
            new = effects[j] & ~cur_mask
            if not new:
                continue
            gain = sum(benefits[i] for i in iter_bits(new))
            if gain <= 0.0:
                continue
            numerator = w_prime + w_dprime * costs[j]
            for i in pair_ics[j]:
                numerator += ic_w[i]
            ratio = numerator / gain
            if best_ratio is None or ratio < best_ratio:
                best_ratio = ratio
                best_j = j
                best_gain = gain
        if best_j < 0:
            break
        in_sol[best_j] = True
        order.append(best_j)
        cur_mask |= effects[best_j]
        w_prime *= step_prime
        w_dprime *= lam ** (costs[best_j] / budget)
        for i in pair_ics[best_j]:
            ic_w[i] *= step_ic
        trace.iterations.append(GreedyIteration(
            index=len(order), chosen=g.pairs[best_j], ratio=best_ratio,
            gain=best_gain, w_prime=w_prime, w_dprime=w_dprime,
            ic_weights=tuple(ic_w), condition_value=condition()))

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
    return _solution(inst, order, bound), trace


def build_bmgop_ip(inst: BmgopInstance) -> IpModel:
    """Exact program: a selection variable per pair, an indicator variable
    per atom outside the initial state, benefit-weighted indicators in the
    objective (initial-state benefit enters as a constant), and linking,
    cardinality, budget and integrity packing constraints."""
    g = inst.grounding
    pairs = g.pairs
    atoms = g.atoms
    benefits = g.benefits
    n = len(pairs)
    model = IpModel(sense="max")
    x_of = {i: model.add_pair_variable(pair, tag=("pair", i)) for i, pair in enumerate(pairs)}

    model.constant = g.benefit_sum(g.s0_mask)
    outside_s0 = ((1 << g.n_atoms) - 1) & ~g.s0_mask
    for atom_idx, producers in g.producers(range(n), outside_s0).items():
        a = atoms[atom_idx]
        y = model.add_variable(f"Y_{a.predicate}_{a.point.x}_{a.point.y}", tag=("atom", atom_idx))
        if benefits[atom_idx] != 0:
            model.objective[y] = benefits[atom_idx]
        # producers ascend and every X variable precedes y: already in variable order
        coeffs = [(x_of[i], 1.0) for i in producers]
        coeffs.append((y, -1.0))
        model.add_constraint(coeffs, ">=", 0.0, f"cover_{a.predicate}_{a.point.x}_{a.point.y}")

    model.add_constraint({x_of[i]: 1.0 for i in range(n)}, "<=", float(inst.k), "card")
    model.add_packing_rows(inst, x_of)
    return model


def solve_bmgop_exact(inst: BmgopInstance, limits: Optional[Limits] = None) -> BmgopSolution:
    """Exhaustive search over pair subsets of size at most ``k`` meeting
    cost and integrity constraints; maximal benefit, ties to the canonical
    first subset (by size, then lexicographic)."""
    g = inst.grounding
    n = len(g.pairs)
    costs = g.costs
    effects = g.effects
    tick = (limits or Limits())._counter()

    best_value = g.benefit_sum(g.s0_mask)
    best_combo = ()
    try:
        for t in range(1, min(inst.k, n) + 1):
            for combo in itertools.combinations(range(n), t):
                tick()
                if sum(costs[i] for i in combo) > inst.budget:
                    continue
                if g.conflicts(combo):
                    continue
                mask = g.s0_mask
                for i in combo:
                    mask |= effects[i]
                value = g.benefit_sum(mask)
                if value > best_value:
                    best_value = value
                    best_combo = combo
    except LimitReachedError as err:
        raise LimitReachedError(f"{err.message} at size {t}",
                                best=_solution(inst, best_combo, None)) from None
    return _solution(inst, best_combo, None)


def solve_bmgop_ip(inst: BmgopInstance, limits: Optional[Limits] = None):
    """Solve via the exact program. Returns (solution or None, status)."""
    tags, status = _solve_for_tags(build_bmgop_ip(inst), limits)
    if tags is None:
        return None, status
    return _solution(inst, [i for kind, i in tags if kind == "pair"], None), status
