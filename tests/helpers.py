"""Independent oracles and small builders shared by the test modules.

Everything here recomputes results from definitions (exhaustive
enumeration, truth tables, direct set arithmetic) without touching the
solvers' grounding/bitmask machinery, so the oracles stay independent of
the code paths they check. The one exception is ``eager_bmgop_compute``,
the greedy's former full rescan, kept as the oracle of its lazy form.
``quadratic_r_star`` is the dominance reduction's former scan of every
admissible pair against every other, run on the reference grounding.
``lp_name`` and ``reference_emit_lp`` are the IP builders' former naming
of atom and pair objects and ``emit_lp``'s former term-by-term text, and
``per_row_half_widths`` the ball's former row-by-row half-width scan.
``reference_bmgop_ip`` is the benefit program before the builder's
presolve, built on the grounding's tables and the per-atom cover scan.
``reference_branch_and_bound`` is ``solve_branch_and_bound``'s search
without a start, written as a recursion, kept as the oracle of its nodes:
0 before 1 in both senses, so the first optimum found is the
lexicographically smallest, and once one is found a node must beat it by
the objective's granularity q (``objective_granularity``, worked out
from exact rationals) to be expanded, since a later tie cannot replace
it; with q 0, when the objective's sums can round, ties are searched.
``reference_root_fixed`` counts the root's fixed variables by the rule
read from the flat rows.
``ground`` is a builder, not an oracle: it grounds loose instance parts;
``golden_corpus`` is an input corpus, the one the serialize golden pins,
``legacy_text`` writes an instance at format version 1 or 2, which the
package reads but no longer writes, for the older versions' reader tests
(``text_at`` at any version),
``planted_cover`` draws the benchmark's max-k-cover shape, and
``goal_cases`` and ``goal_corpus`` are the goal-based instances whose
goal-driven reads (``Grounding.meeting``/``effect``, the reduction) are
held to the full table.
"""

import itertools
import json
import math
import re
from dataclasses import replace
from fractions import Fraction
from itertools import product

from gops import (ActionPointPair, ActionRule, AndFormula, AtomFormula,
                  BenefitModel, BmgopInstance, CostModel, GridMap, GroundAtom,
                  Grounding, IpModel, NotFormula, OrFormula, Point, TRUE, TrueFormula,
                  action_effects, appl, atom, benefit_of, cost_of, gen_random, lnot,
                  satisfies)
from gops.bmgop import (GreedyIteration, GreedyTrace, _benefit, _violations,
                        approx_bound, bmgop_compute, bound_applicable)
from gops.core import (Problem, _block_point, format_number, formula_atoms, iter_bits,
                       within_distance)
from gops.serialize import instance_to_json, serialize_instance


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
    ``action_effects``, ``cost_of``, ``benefit_of`` and ``satisfies``,
    on ``s0`` as a plain frozenset, never on the runtime ``AtomSet``.
    Returns a dict keyed by the ``Grounding`` attribute names."""
    s0 = frozenset(s0)
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
# Reduction oracle: the dominance test between every two admissible pairs.

def quadratic_r_star(inst):
    """(indices of R, indices of R*) of a goal-based instance, both in
    canonical order, from the reference grounding: a pair is dropped when
    another pair costs no more, is in no extra active constraint and
    covers at least its outstanding goal atoms; of mutually dominating
    pairs only the canonical first stays."""
    ref = reference_grounding_of(inst)
    atoms = [GroundAtom(pred, p) for pred in inst.predicates for p in inst.grid.points()]

    def to_mask(atom_set):
        return sum(1 << i for i, a in enumerate(atoms) if a in atom_set)

    needed = to_mask(inst.theta_in - frozenset(inst.s0))
    out_mask = to_mask(inst.theta_out)
    r_indices = [i for i, eff in enumerate(ref["effects"]) if not eff & out_mask]
    costs = ref["costs"]
    q_sets = [frozenset(ref["pair_ics"][i]) for i in r_indices]
    affs = [ref["effects"][i] & needed for i in r_indices]

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


# ---------------------------------------------------------------------------
# Definitional solution checks (no grounding, no bitmasks).

def gbgop_conditions_hold(inst, pairs):
    pairs = frozenset(pairs)
    s0 = frozenset(inst.s0)
    total = sum(cost_of(p, s0, inst.cost_model) for p in sorted(pairs))
    if total > inst.budget:
        return False
    for ic in inst.ics:
        from gops import satisfies
        if satisfies(s0, ic.condition) and len(ic.pairs & pairs) > 1:
            return False
    final = appl(pairs, s0, inst.grid, inst.actions, s0=s0)
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
    s0 = frozenset(inst.s0)
    final = appl(frozenset(pairs), s0, inst.grid, inst.actions, s0=s0)
    key = lambda a: (inst.predicates.index(a.predicate), inst.grid.point_index(a.point))
    return sum(benefit_of(a, inst.benefit_model) for a in sorted(final, key=key))


def bmgop_feasible(inst, pairs):
    pairs = frozenset(pairs)
    if len(pairs) > inst.k:
        return False
    s0 = frozenset(inst.s0)
    if sum(cost_of(p, s0, inst.cost_model) for p in sorted(pairs)) > inst.budget:
        return False
    from gops import satisfies
    for ic in inst.ics:
        if satisfies(s0, ic.condition) and len(ic.pairs & pairs) > 1:
            return False
    return True


def brute_best_bmgop(inst):
    """Exhaustive (maximum benefit, winning pair set) over all feasible pair
    subsets, under the documented tie rule: the higher benefit, then the
    smaller set, then the lexicographically first in canonical pair order."""
    all_pairs = [ActionPointPair(rule.name, p)
                 for rule in inst.actions for p in inst.grid.points()]
    best, best_combo = bmgop_benefit(inst, ()), ()
    # sizes ascend and combinations come in lexicographic order, so keeping
    # only strictly higher benefits applies the tie rule
    for t in range(1, min(inst.k, len(all_pairs)) + 1):
        for combo in itertools.combinations(all_pairs, t):
            if bmgop_feasible(inst, combo):
                value = bmgop_benefit(inst, combo)
                if value > best:
                    best, best_combo = value, combo
    return best, frozenset(best_combo)


def exhaustive_optimum(model):
    """(optimal objective, lexicographically smallest optimal 0/1 vector)
    over all 2^n assignments, each row summed left to right; None when
    infeasible."""
    n = len(model.variables)
    rows = model.constraints
    best = None
    for bits in itertools.product((0, 1), repeat=n):  # lexicographic order
        ok = True
        for c in rows:
            lhs = sum(co * bits[i] for i, co in c.coeffs)
            if c.sense == "<=" and lhs > c.rhs:
                ok = False
                break
            if c.sense == ">=" and lhs < c.rhs:
                ok = False
                break
        if not ok:
            continue
        value = model.constant + sum(co * bits[i] for i, co in model.objective.items())
        if best is None or (value > best[0] if model.sense == "max" else value < best[0]):
            best = (value, bits)
    return best


def objective_granularity(model):
    """The largest power of two of which the constant and every objective
    coefficient are integer multiples, by exact rational arithmetic; inf
    when all are zero, and 0 when one is not a finite int, float or bool,
    or when some sum of them can round: when their magnitudes, in units of
    the finest power of two among them, add up to 2^53 or more."""
    values = list(model.objective.values()) + [model.constant]
    if any(type(v) not in (int, float, bool) or not math.isfinite(v) for v in values):
        return 0
    exact = [Fraction(v) for v in values]
    finest = Fraction(1, max(f.denominator for f in exact))
    if sum(map(abs, exact)) / finest >= 2 ** 53:
        return 0
    twos = []
    for f in exact:
        if f:
            num, den = abs(f.numerator), f.denominator
            twos.append((num & -num).bit_length() - den.bit_length())
    return 2.0 ** min(twos) if twos else math.inf


def reference_branch_and_bound(model, max_nodes=None, cut_ties=True):
    """(status, values by name, objective, nodes) of the depth-first search
    ``solve_branch_and_bound`` runs on a model without a start, by its
    rules: variables in model order, 0 before 1, so leaves come in
    ascending lexicographic order and the first optimum found, the
    lexicographically smallest, is kept; rows read as ``<=``, each with the
    smallest left-hand side it can still reach (its negative terms summed
    in row order, then each fix's raise added); a node counted on entry, a
    node past ``max_nodes`` ending the search with ``limit_reached``; a
    child tried unless its fix breaks a row; a node expanded only if its
    objective plus every still-improving coefficient beats the best found
    by ``q`` (``objective_granularity``): every leaf still to come lies
    above the best's vector, so a tie cannot replace it. With ``q`` 0 (sums
    that can round), or with ``cut_ties`` False, the test is strict: a node
    is expanded unless it falls strictly short of the best, which is the
    whole rule of the search before it cut ties (that search tried 1 first
    when maximizing, so only its minimizing nodes are the same)."""
    n = len(model.variables)
    maximize = model.sense == "max"
    q = objective_granularity(model) if cut_ties else 0
    obj = [model.objective.get(i, 0.0) for i in range(n)]
    rows = []  # (terms as (variable, <= coefficient), right-hand side)
    for c in model.constraints:
        flip = -1 if c.sense == ">=" else 1
        rows.append(([(i, flip * co) for i, co in c.coeffs], flip * c.rhs))
    low = []
    for terms, _ in rows:
        lo = 0.0
        for _, a in terms:
            if a < 0:
                lo += a
        low.append(lo)
    if any(lo > r for lo, (_, r) in zip(low, rows)):
        return "infeasible", {}, None, 0
    gain = [co if (co > 0 if maximize else co < 0) else 0.0 for co in obj]
    rest = list(itertools.accumulate(gain, lambda a, b: a - b, initial=sum(gain)))
    values = [0] * n
    state = {"best": None, "vec": None, "nodes": 0}

    class Stop(Exception):
        pass

    def visit(depth, cur):
        if max_nodes is not None and state["nodes"] == max_nodes:
            raise Stop
        state["nodes"] += 1
        best = state["best"]
        if depth == n:
            total = cur + model.constant
            if best is None or (total > best if maximize else total < best):
                state["best"], state["vec"] = total, values.copy()
            return
        bound = cur + rest[depth] + model.constant
        if best is not None and (bound < best + q if maximize else bound > best - q):
            return
        for val in (0, 1):
            values[depth] = val
            saved = low.copy()
            ok = True
            for k, (terms, r) in enumerate(rows):
                for i, a in terms:
                    if i == depth and (a > 0 if val else a < 0):
                        low[k] += abs(a)
                        ok = ok and low[k] <= r
            if ok:
                visit(depth + 1, cur + obj[depth] * val)
            low[:] = saved

    try:
        visit(0, 0.0)
        status = "optimal" if state["vec"] is not None else "infeasible"
    except Stop:
        status = "limit_reached"
    vec = state["vec"]
    values = {} if vec is None else {v.name: b for v, b in zip(model.variables, vec)}
    return status, values, state["best"], state["nodes"]


def reference_root_fixed(model):
    """How many variables the root of ``solve_branch_and_bound`` fixes in a
    model with a start, by its rule read from the flat rows: with each row
    read as ``<=`` (a ``>=`` row negated) and its smallest left-hand side
    the sum of its negative terms in row order, a term whose value alone
    lifts that above the right-hand side fixes its variable."""
    fixed = set()
    for c in model.constraints:
        flip = -1 if c.sense == ">=" else 1
        terms = [(i, flip * co) for i, co in c.coeffs if co]
        lo = 0.0
        for _, a in terms:
            if a < 0:
                lo += a
        fixed.update(i for i, a in terms if lo + abs(a) > flip * c.rhs)
    return len(fixed)


# ---------------------------------------------------------------------------
# Greedy oracle: the multiplicative-weights greedy as a full rescan of every
# unpicked pair before each pick, gains summed bit by bit.

def eager_bmgop_compute(inst, delta=0.001, condition_mode="weighted"):
    """What ``bmgop_compute`` returns, for valid arguments, computed by
    rescanning every unpicked pair before each pick; ``op_count`` counts
    the rescans' gain evaluations."""
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
    effects, costs, pair_ics, benefits = g.effects, g.costs, g.pair_ics, g.benefits

    def condition():
        if condition_mode == "weighted":
            return k * w_prime + budget * w_dprime + (2.0 - delta) * sum(ic_w)
        return w_prime + w_dprime + sum(ic_w)

    cur_mask = g.s0_mask
    in_sol = [False] * n
    order = []

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
            index=len(order), chosen=g.pair_at(best_j), ratio=best_ratio,
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
    return replace(g._selection(order), reported_bound=bound), trace


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

def ground(grid, predicates, s0, actions, cost_model, ics, benefit_model=None):
    """``Grounding`` of the validated instance of these parts: a plain
    Problem, or a BmgopInstance when a benefit model is given. Grounding
    reads neither the budget nor ``k``, so both are 0."""
    parts = dict(grid=grid, predicates=predicates, s0=s0, actions=actions,
                 cost_model=cost_model, ics=ics, budget=0.0)
    if benefit_model is None:
        return Grounding(Problem(**parts))
    return Grounding(BmgopInstance(**parts, benefit_model=benefit_model, k=0))


def golden_corpus():
    """The ``gen_random`` instances behind the serialize golden digest: 40
    seeds, four size settings, both flavours, in seed, setting, flavour
    order."""
    for seed in range(40):
        for width, height, actions, radius, ics in ((0, 0, 3, 1.0, 1), (3, 2, 3, 1.5, 2),
                                                    (8, 8, 3, 3.0, 2), (12, 5, 4, 0.0, 3)):
            for problem in ("gbgop", "bmgop"):
                yield gen_random(seed=seed, width=width, height=height, actions=actions,
                                 radius=radius, ics=ics, problem=problem)


def legacy_text(inst, version):
    """The document of ``inst`` at format version 1 or 2, byte for byte as
    the package wrote those versions: version 3's document without its
    ``explicit`` table, indented by two spaces at every level. Version 2
    writes each explicit table in its action as [[point index, [atom
    index, ...]], ...]; version 1 writes those points as [x, y] and every
    atom of the state and the tables as [name, [x, y]]. Points and each
    row's atoms ascend."""
    if version not in (1, 2):
        raise ValueError(f"no legacy writer for version {version!r}")
    grid, predicates = inst.grid, inst.predicates
    doc = instance_to_json(inst)
    doc["version"] = version
    del doc["explicit"]

    def atom(i):
        k, point = _block_point(grid, i)
        return [predicates[k], [*point]]

    def entry(point, row):
        row = sorted(set(row))
        if version == 2:
            return [point, row]
        return [[*_block_point(grid, point)[1]], list(map(atom, row))]

    for rule, action in zip(inst.actions, doc["actions"]):
        if rule.explicit_effects is not None:
            action["explicit"] = [entry(point, row)
                                  for point, row in sorted(rule.explicit_effects.rows.items())]
    if version == 1:
        doc["state"] = list(map(atom, doc["state"]))
    return json.dumps(doc, indent=2) + "\n"


def text_at(inst, version):
    """The document of ``inst`` at format version 1, 2 or 3: the package's
    writer at version 3, ``legacy_text`` at the others."""
    return serialize_instance(inst) if version == 3 else legacy_text(inst, version)


def planted_cover(rng, planted, block, decoys):
    """``planted`` disjoint blocks covering the universe plus ``decoys``
    random families of the block size, shuffled: the benchmark's max-k-cover
    shape, whose equal-size families make ratio ties common."""
    universe = tuple(range(planted * block))
    elems = list(universe)
    rng.shuffle(elems)
    families = [frozenset(elems[i::planted]) for i in range(planted)]
    families += [frozenset(rng.sample(universe, block)) for _ in range(decoys)]
    rng.shuffle(families)
    return universe, tuple(families)


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


def reference_bmgop_ip(inst):
    """The paper's benefit program before presolve, the shape
    ``build_bmgop_ip`` had: an X per pair, a Y per atom outside the initial
    state with a linking row from the per-atom scan (just ``-Y >= 0`` for
    an atom no pair produces), and card, budget and IC rows over every X.
    Its start is BMGOP-Compute's selection, as the builder's is."""
    g = inst.grounding
    n = g.n_pairs
    model = IpModel(sense="max", constant=g.benefit_sum(g.s0_mask))
    x_vars = model.add_variables(g.pair_names("X", range(n)),
                                 zip(itertools.repeat("pair"), range(n)))
    outside_s0 = ((1 << g.n_atoms) - 1) & ~g.s0_mask
    covers = cover_rows_by_scan(g.effects, range(n), outside_s0, g.n_atoms)
    y_vars = model.add_variables(g.atom_names("Y", covers), zip(itertools.repeat("atom"), covers))
    for y, label, (a, producers) in zip(y_vars, g.atom_names("cover", covers), covers.items()):
        if g.benefits[a] != 0:
            model.objective[y] = g.benefits[a]
        model.add_constraint([(i, 1.0) for i in producers] + [(y, -1.0)], ">=", 0.0, label)
    model.add_rows(["card"], "<=", float(inst.k), [x_vars])
    model.add_packing_rows(inst, range(n))
    if inst.k > 0 and inst.budget > 0:
        def start():
            picked = g.pairs_to_indices(bmgop_compute(inst)[0].pairs)
            added = g.union_effects(picked)
            return picked + [y for y, a in zip(y_vars, covers) if added >> a & 1]
        model.start = start
    return model


# ---------------------------------------------------------------------------
# IP naming and LP text oracles: the object path and the term-by-term
# emitter that the index-arithmetic names and the cached signed prefixes
# of ``gops.ip.emit_lp`` replaced.

def lp_name(prefix, item):
    """The LP name ``<prefix>_<name>_<x>_<y>`` of an atom or a pair object."""
    name, point = item
    return f"{prefix}_{name}_{point.x}_{point.y}"


def _reference_unique(names):
    taken = {}
    for name in names:
        unique, n = name, 0
        while unique in taken:
            n += 1
            unique = f"{name}_{n}"
        taken[unique] = None
    return list(taken)


def _reference_expr(terms, names, constant=0.0):
    parts = []
    for i, co in [*terms, (None, constant)]:  # the constant is one more signed piece
        if co == 0:
            continue
        mag = abs(co)
        piece = format_number(mag) if i is None else names[i] if mag == 1 else f"{format_number(mag)} {names[i]}"
        if co > 0:
            parts.append(f"+ {piece}" if parts else piece)
        else:
            parts.append(f"- {piece}")
    return " ".join(parts) or "0"


def reference_emit_lp(model):
    """LP text of ``model``, every term signed and formatted on its own."""
    model.validate()
    bad = re.compile(r"[^A-Za-z0-9_]")
    names = _reference_unique("v_" + name if not name or name[0] in "0123456789eE" else name
                              for name in [bad.sub("_", v.name) for v in model.variables])
    labels = _reference_unique(bad.sub("_", c.label) or "c" for c in model.constraints)
    lines = ["\\ binary integer program"]
    lines.append("Maximize" if model.sense == "max" else "Minimize")
    lines.append(" obj: " + _reference_expr(sorted(model.objective.items()), names, model.constant))
    lines.append("Subject To")
    for label, c in zip(labels, model.constraints):
        lines.append(f" {label}: {_reference_expr(c.coeffs, names)} {c.sense} {format_number(c.rhs)}")
    lines.append("Binary")
    for name in names:
        lines.append(f" {name}")
    lines.append("End")
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# Ball half-width oracle: each row offset scanned from dx = 0 up.

def per_row_half_widths(grid, metric, bound):
    """Half-width of the ball at each row offset, each row scanned on its
    own from ``dx = 0`` until a point falls outside ``bound``."""
    origin = Point(0, 0)
    reach = math.floor(bound)
    max_dx = min(grid.width_bound, reach)
    out = []
    for dy in range(min(grid.height_bound, reach) + 1):
        dx = -1
        while dx < max_dx and within_distance(metric, origin, Point(dx + 1, dy), bound):
            dx += 1
        if dx < 0:
            break
        out.append(dx)
    return out


# ---------------------------------------------------------------------------
# Goal-based instances for the reads that start from the goals

GOAL_RADII = (None, 0, 0.5, 1, 1.5, 2, 3, 30)


def goal_corpus(seeds, widths=(1, 2, 4, 7, 12)):
    """Seeded ``gen_random`` goal-based instances: every radius in
    ``GOAL_RADII`` (30 reaches past every map here), square maps of the
    given widths and 0-3 constraints."""
    for seed in seeds:
        for radius in GOAL_RADII:
            width = widths[seed % len(widths)]
            yield gen_random(seed=seed, width=width, height=width, predicates=3, actions=3,
                             radius=radius, ics=seed % 4, problem="gbgop")


def goal_cases():
    """(name, goal-based instance) built in code on a 7x6 map with two ball
    rules, an unbounded rule and an explicit action: a cost override on a
    covering pair, active and inactive constraints, a forbidden atom on a
    covering pair, nothing needed, and a forbidden atom that holds
    initially."""
    from gops import GbgopInstance, IntegrityConstraint
    grid = GridMap(6, 5)
    site = {Point(1, 1), Point(3, 3), Point(4, 3), Point(5, 0)}
    s0 = frozenset(GroundAtom("site", p) for p in site) | {GroundAtom("wet", Point(6, 5))}
    lit, wet = (lambda x, y: GroundAtom("lit", Point(x, y))), (lambda x, y: GroundAtom("wet", Point(x, y)))
    actions = (
        ActionRule(name="lamp", effect_predicate="lit", source_guard=atom("site"),
                   max_distance=1.5),
        ActionRule(name="hose", effect_predicate="wet", target_guard=lnot(atom("site")),
                   max_distance=1, metric="manhattan"),
        ActionRule(name="flood", effect_predicate="wet", source_guard=atom("site", Point(5, 0)),
                   target_guard=atom("site")),
        ActionRule(name="sign", explicit_effects={Point(2, 2): frozenset({lit(2, 2), wet(3, 2)}),
                                                  Point(4, 3): frozenset({lit(4, 4)})}),
    )
    costs = CostModel(default_cost=0.5, state_rules=((atom("site"), 0.25),))
    parts = dict(grid=grid, predicates=("site", "lit", "wet"), s0=s0, actions=actions,
                 cost_model=costs, ics=(), budget=2.0, theta_in=frozenset({lit(3, 4), wet(2, 1)}),
                 theta_out=frozenset())
    pair = ActionPointPair
    yield "override-on-covering-pair", GbgopInstance(**dict(parts, cost_model=replace(
        costs, overrides={pair("lamp", Point(3, 3)): 0.125, pair("lamp", Point(4, 3)): 1.0,
                          pair("hose", Point(0, 0)): 0.0})))
    yield "active-and-inactive-constraints", GbgopInstance(**dict(parts, ics=(
        IntegrityConstraint(pairs=frozenset({pair("lamp", Point(3, 3)), pair("hose", Point(2, 2))})),
        IntegrityConstraint(pairs=frozenset({pair("lamp", Point(4, 3)), pair("sign", Point(4, 3))}),
                            condition=atom("site", Point(0, 0))),
        IntegrityConstraint(pairs=frozenset({pair("hose", Point(0, 0)), pair("flood", Point(5, 0))}),
                            condition=atom("site", Point(5, 0))))))
    yield "forbidden-on-covering-pair", GbgopInstance(**dict(
        parts, theta_out=frozenset({lit(4, 4), wet(1, 1)})))
    yield "nothing-needed", GbgopInstance(**dict(
        parts, theta_in=frozenset({GroundAtom("site", Point(3, 3)), wet(6, 5)}),
        theta_out=frozenset({lit(0, 0)})))
    yield "initially-forbidden", GbgopInstance(**dict(parts, theta_out=frozenset({wet(6, 5)})))
