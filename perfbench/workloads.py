"""Inputs and ops of the benchmark workloads, built from the run seed with
gops.scenarios and gops.encodings, and the checks on every op's output.

An op is one user request: instance JSON text -> parse_instance -> solver
-> report JSON (or LP text, or the reduction's member list). Every op
parses afresh, so no Grounding is reused across ops. With a Tracer the op
records one span per public call and splits composite calls, so each gops
module's self time is its own.
"""

import hashlib
import json
import random
from contextlib import nullcontext
from dataclasses import dataclass, field
from typing import Optional

from gops import (BmgopSolution, CoverProblem, GbgopInstance, GbgopSolution,
                  LimitReachedError, Limits, MonotoneCnf, UncoverableAtomsError,
                  approx_bound, bmgop_compute, bound_applicable, build_bmgop_ip,
                  build_gbgop_ip, emit_lp, encode_max_k_cover, encode_monsat,
                  encode_set_cover, gen_campaign, gen_random, objective_f,
                  parse_instance, reduce_to_r_star, restricted_pairs, satisfies,
                  serialize_instance, solve_bmgop_exact, solve_bmgop_ip,
                  solve_branch_and_bound, solve_gbgop_exact, solve_gbgop_ip,
                  validate_bmgop, validate_gbgop)
from gops.serialize import report_for_bmgop, report_for_gbgop

from measure import BELOW_BOUND, CAPPED, CRASHED, OK, WRONG

_SLACK = 1e-9


@dataclass(frozen=True)
class Instance:
    name: str
    text: str
    optimum: Optional[float] = None  # known by construction: benefit or cardinality


@dataclass(frozen=True)
class Op:
    index: int
    instance: Instance
    method: str  # exact | ip | approx | reduce | lp | lp-full | lp-reduced

    @property
    def key(self) -> str:
        return f"{self.instance.name}:{self.method}"


@dataclass
class Result:
    """What one op produced: its answer, plus the objects the public calls
    returned, which feed the checks and the work counts."""

    status: str = OK
    seconds: float = 0.0
    output: str = ""  # report JSON, LP text or reduction JSON; digested
    trace_text: str = ""
    error: str = ""
    inst: object = None
    sol: object = None
    proven: bool = False  # sol is a proven optimum (None: proven infeasible)
    reduction: Optional[tuple] = None  # what reduce_to_r_star returned
    redone: list = field(default_factory=list)  # traced spans that redo the reduction
    greedy: object = None  # GreedyTrace
    model: object = None   # IpModel
    bnb: str = ""          # branch-and-bound status, or "crashed"


# ---------------------------------------------------------------------------
# Inputs

def _rng(seed, *parts) -> random.Random:
    return random.Random("/".join(str(p) for p in (seed,) + parts))


def _planted_cover(rng, planted: int, block: int, decoys: int):
    """A universe of ``planted * block`` elements and a shuffled family list:
    ``planted`` disjoint blocks that cover the universe exactly, plus
    ``decoys`` random subsets of the block size. So ``planted`` families
    cover everything, and no fewer can when decoys are not bigger."""
    universe = tuple(range(planted * block))
    elems = list(universe)
    rng.shuffle(elems)
    families = [frozenset(elems[i::planted]) for i in range(planted)]
    families += [frozenset(rng.sample(universe, block)) for _ in range(decoys)]
    rng.shuffle(families)
    return universe, tuple(families)


def _setup_span(tracer, name):
    return tracer.span(-1, name) if tracer else nullcontext()


def _ball(metric: str, radius: float) -> int:
    """Lattice offsets within ``radius`` of a point under ``metric``."""
    r = int(radius)
    within = {"euclidean": lambda dx, dy: dx * dx + dy * dy <= radius * radius,
              "manhattan": lambda dx, dy: abs(dx) + abs(dy) <= radius,
              "chebyshev": lambda dx, dy: max(abs(dx), abs(dy)) <= radius}[metric]
    return sum(within(dx, dy) for dx in range(-r, r + 1) for dy in range(-r, r + 1))


def rule_work(inst) -> float:
    """Grounding work of an instance's rule-form actions, from its
    definition alone: target checks over placement points that pass the
    source guard, as a share of the most its map and action count allow."""
    points = inst.grid.points()
    work, most = 0, 0
    for rule in inst.actions:
        radius = rule.max_distance or 0.0
        most = max(most, _ball("chebyshev", radius))
        if rule.explicit_effects is None:
            passing = sum(satisfies(inst.s0, rule.source_guard, at=p) for p in points)
            work += passing * _ball(rule.metric, radius)
    return work / (len(points) * len(inst.actions) * most) if most else 0.0


def _stratum(value: float, edges) -> int:
    return sum(value >= edge for edge in edges)


def ladder_maps(seed: int, size: int, actions: int, gen: dict, edges, count: int,
                tracer=None) -> list:
    """(seed, bmgop instance) of ``count`` random maps of one rung,
    stratified by rule_work: map j comes from stratum ``j % (len(edges) + 1)``.
    Candidates come from the run seed in order, so the same seed gives the
    same maps, and every seed gets the same mix of cheap and costly
    groundings."""
    rng = _rng(seed, "ladder", size)
    waiting = [[] for _ in range(len(edges) + 1)]
    out = []
    for j in range(count):
        want = j % len(waiting)
        for _ in range(_MAX_CANDIDATES):
            if waiting[want]:
                break
            candidate = rng.randrange(2 ** 32)
            with _setup_span(tracer, "scenarios.gen"):
                inst = gen_random(seed=candidate, width=size, height=size, actions=actions,
                                  problem="bmgop", **gen)
            waiting[_stratum(rule_work(inst), edges)].append((candidate, inst))
        else:
            raise RuntimeError(f"no map of stratum {want} among {_MAX_CANDIDATES} candidates")
        out.append(waiting[want].pop(0))
    return out


_MAX_CANDIDATES = 1000


def ladder_instances(seed: int, ladder: dict, tracer=None) -> list:
    """Each stratified map posed as both flavors, as the campaign is."""
    gen = ladder["generator"]
    out = []
    for rung in ladder["rungs"]:
        size, actions = rung["size"], rung["actions"]
        maps = ladder_maps(seed, size, actions, gen, ladder["strata"],
                           ladder["maps_per_rung"][str(size)], tracer)
        for j, (map_seed, bm) in enumerate(maps):
            with _setup_span(tracer, "scenarios.gen"):
                gb = gen_random(seed=map_seed, width=size, height=size, actions=actions,
                                problem="gbgop", **gen)
            out.append(Instance(f"r{size}-{j}-bmgop", serialize_instance(bm)))
            out.append(Instance(f"r{size}-{j}-gbgop", serialize_instance(gb)))
    return out


def campaign_instances(tracer=None) -> list:
    with _setup_span(tracer, "scenarios.gen"):
        scenario = gen_campaign()
    return [Instance("campaign-bmgop", serialize_instance(scenario.bmgop)),
            Instance("campaign-gbgop", serialize_instance(scenario.gbgop))]


def search_instances(seed: int, spec: dict, tracer=None) -> dict:
    """Encoded one-point instances of search-mix, by part name."""
    parts = {}
    p = spec["set_cover"]
    parts["set_cover"] = []
    for j in range(p["count"]):
        universe, families = _planted_cover(_rng(seed, "setcover", j), p["planted"],
                                            p["block"], p["decoys"])
        with _setup_span(tracer, "encodings.encode"):
            inst = encode_set_cover(CoverProblem(universe, families))
        parts["set_cover"].append(
            Instance(f"setcover-{j}", serialize_instance(inst), optimum=float(p["planted"])))

    p = spec["monsat"]
    parts["monsat"] = []
    for j in range(p["count"]):
        rng = _rng(seed, "monsat", j)
        atoms = tuple(f"x{i}" for i in range(p["atoms"]))
        clauses = tuple(frozenset(rng.sample(atoms, rng.randint(*p["clause_size"])))
                        for _ in range(p["clauses"]))
        with _setup_span(tracer, "encodings.encode"):
            inst = encode_monsat(MonotoneCnf(atoms, clauses))
        parts["monsat"].append(Instance(f"monsat-{j}", serialize_instance(inst)))

    p = spec["max_k_cover_small"]
    parts["max_k_cover_small"] = []
    for j in range(p["count"]):
        universe, families = _planted_cover(_rng(seed, "maxk-small", j), p["k"],
                                            p["block"], p["decoys"])
        with _setup_span(tracer, "encodings.encode"):
            inst = encode_max_k_cover(CoverProblem(universe, families, p["k"]))
        parts["max_k_cover_small"].append(
            Instance(f"maxk-small-{j}", serialize_instance(inst), optimum=float(len(universe))))

    p = spec["max_k_cover_large"]
    parts["max_k_cover_large"] = []
    for k in p["k"]:
        universe, families = _planted_cover(_rng(seed, "maxk-large", k), k,
                                            p["block"], p["families"] - k)
        with _setup_span(tracer, "encodings.encode"):
            inst = encode_max_k_cover(CoverProblem(universe, families, k))
        parts["max_k_cover_large"].append(
            Instance(f"maxk-large-k{k}", serialize_instance(inst), optimum=float(len(universe))))

    p = spec["reduce"]
    parts["reduce"] = []
    for j in range(p["count"]):
        rng = _rng(seed, "reduce", j)
        universe = tuple(range(p["universe"]))
        families = tuple(frozenset(rng.sample(universe, rng.randint(*p["family_size"])))
                         for _ in range(p["families"]))
        with _setup_span(tracer, "encodings.encode"):
            inst = encode_set_cover(CoverProblem(universe, families))
        parts["reduce"].append(Instance(f"reduce-{j}", serialize_instance(inst)))
    return parts


def build_ops(name: str, seed: int, spec: dict, tracer=None) -> list:
    """The fixed op list of one pass of workload ``name``; exact before ip
    before approx on each instance, so a proven optimum is known when the
    greedy's bound is checked."""
    wl = spec["workloads"][name]
    plan = []  # (instance, methods)
    for inst in campaign_instances(tracer):
        plan.append((inst, wl["campaign"][inst.name.split("-")[1]]))
    if "ladder" in wl:
        base = spec["workloads"][wl["ladder"].get("same_as", name)]["ladder"]
        ladder = dict(base, **wl["ladder"])
        for inst in ladder_instances(seed, ladder, tracer):
            plan.append((inst, ladder[inst.name.rsplit("-", 1)[1]]))
    else:
        parts = search_instances(seed, wl, tracer)
        for part, instances in parts.items():
            methods = wl[part].get("methods", ["reduce"])
            for inst in instances:
                plan.append((inst, methods))
    ops = []
    for inst, methods in plan:
        for method in methods:
            ops.append(Op(len(ops), inst, method))
    return ops


# ---------------------------------------------------------------------------
# Running one op

def _span(tracer, op, name):
    return tracer.span(op.index, name) if tracer else nullcontext()


def _solution_from_model(inst, model, values):
    """The solution solve_*_ip builds from a branch-and-bound assignment."""
    gbgop = isinstance(inst, GbgopInstance)
    indices = []
    for var in model.variables:
        if values.get(var.name) == 1:
            if gbgop:
                indices.append(var.tag)
            elif var.tag[0] == "pair":
                indices.append(var.tag[1])
    indices.sort()
    g = inst.grounding
    final = g.s0_mask | g.union_effects(indices)
    pairs = frozenset(g.pairs[i] for i in indices)
    state = frozenset(g.mask_atoms(final))
    if gbgop:
        return GbgopSolution(pairs=pairs, total_cost=g.cost_sum(indices),
                             final_state=state, cardinality=len(indices))
    return BmgopSolution(pairs=pairs, total_cost=g.cost_sum(indices), cardinality=len(indices),
                         final_state=state, achieved_benefit=g.benefit_sum(final))


def _reduces_inside(inst) -> bool:
    """solve_gbgop_exact runs the reduction unless a forbidden atom holds
    initially."""
    return not inst.grounding.s0_mask & inst.theta_out_mask


def _build_model(op, inst, tracer, res):
    """build_*_ip in its own span, which redoes the reduction when
    build_gbgop_ip reduces. Raises UncoverableAtomsError like it."""
    gbgop = isinstance(inst, GbgopInstance)
    reduced = op.method in ("ip", "lp-reduced")
    with _span(tracer, op, "gbgop.ip_build" if gbgop else "bmgop.ip_build") as span:
        if not gbgop:
            res.model = build_bmgop_ip(inst)
        else:
            if tracer and reduced:
                res.redone.append(span)
            res.model = build_gbgop_ip(inst, use_reduction=reduced)
    return res.model


def _traced_ip(op, inst, limits, tracer, res):
    """solve_*_ip split into build_*_ip and solve_branch_and_bound."""
    try:
        model = _build_model(op, inst, tracer, res)
    except UncoverableAtomsError:
        return None, "infeasible"  # as solve_gbgop_ip reports it
    res.bnb = "crashed"
    with tracer.span(op.index, "ip.bnb"):
        result = solve_branch_and_bound(model, limits=limits)
    res.bnb = result.status
    if result.status == "infeasible" or not result.values and result.objective_value is None:
        return None, result.status
    return _solution_from_model(inst, model, result.values), result.status


def _solve(op, inst, limits, tracer, res):
    """The solver step of a solve op. Returns (solution, status)."""
    method = op.method
    if isinstance(inst, GbgopInstance):
        if method == "exact":
            with _span(tracer, op, "gbgop.exact") as span:
                if tracer and _reduces_inside(inst):
                    res.redone.append(span)
                sol = solve_gbgop_exact(inst, limits=limits)
            return sol, "optimal" if sol is not None else "infeasible"
        if tracer:
            return _traced_ip(op, inst, limits, tracer, res)
        return solve_gbgop_ip(inst, limits=limits)
    if method == "approx":
        with _span(tracer, op, "bmgop.greedy"):
            sol, res.greedy = bmgop_compute(inst)
        res.trace_text = res.greedy.to_text()
        return sol, "feasible"
    if method == "exact":
        with _span(tracer, op, "bmgop.exact"):
            return solve_bmgop_exact(inst, limits=limits), "optimal"
    if tracer:
        return _traced_ip(op, inst, limits, tracer, res)
    return solve_bmgop_ip(inst, limits=limits)


def _work(op, limits, tracer, res: Result) -> None:
    """The op itself: fills ``res`` and lets the program's exceptions out.
    With a tracer, grounding and the reduction get spans of their own
    first; the solvers then reuse the cached grounding."""
    with _span(tracer, op, "serialize.parse"):
        inst = res.inst = parse_instance(op.instance.text)
    gbgop = isinstance(inst, GbgopInstance)
    if tracer:
        with tracer.span(op.index, "core.ground"):
            inst.grounding
            if gbgop:  # the goal masks are grounding too
                inst.theta_in_mask, inst.theta_out_mask
    if op.method == "reduce" or tracer and gbgop and op.method != "lp-full":
        with _span(tracer, op, "gbgop.reduce"):
            res.reduction = reduce_to_r_star(inst)

    if op.method == "reduce":
        with _span(tracer, op, "gbgop.reduce"):
            restricted_pairs(inst)  # `gops reduce` computes it too
        r_star, stats = res.reduction
        with _span(tracer, op, "serialize.report"):
            res.output = json.dumps(
                {"r_size": stats.r_size, "r_star_size": stats.r_star_size,
                 "members": [[p.action, [p.point.x, p.point.y]] for p in r_star]})
        return
    if op.method.startswith("lp"):
        model = _build_model(op, inst, tracer, res)
        with _span(tracer, op, "ip.emit_lp"):
            res.output = emit_lp(model)
        return

    sol, status = _solve(op, inst, limits, tracer, res)
    with _span(tracer, op, "serialize.report"):
        if gbgop:
            report = report_for_gbgop(op.method, status, sol, inst)
        else:
            report = report_for_bmgop(op.method, status, sol, inst)
        res.output = json.dumps(report.to_json())
    res.sol = sol
    res.proven = status in ("optimal", "infeasible")
    if status == "limit_reached":
        res.status = CAPPED


def run_op(op: Op, limits: Limits, clock, tracer=None) -> Result:
    """Run one op, timed from request text to answer, and classify how it
    ended. An exception ends the op as the program's failure."""
    res = Result()
    start = clock()
    try:
        with _span(tracer, op, "op"):
            _work(op, limits, tracer, res)
    except LimitReachedError:
        res.status, res.error = CAPPED, "LimitReachedError"
    except UncoverableAtomsError as err:
        # build_gbgop_ip's documented answer when nothing produces a goal atom
        res.output = "uncoverable: " + " ".join(map(str, err.atoms))
    except Exception as err:  # the op boundary: record the failure, go on
        res.status, res.error = CRASHED, type(err).__name__
    res.seconds = clock() - start
    if tracer:
        for span in res.redone:  # timed after the op, as warm as the redo inside it
            start = clock()
            reduce_to_r_star(res.inst)
            tracer.repeated(op.index, "repeat.gbgop.reduce", clock() - start, span)
    return res


COUNT_NAMES = ("serialize.parse_mb", "core.pairs", "core.atoms", "core.effect_bits",
               "gbgop.r_size", "gbgop.r_star_size", "bmgop.greedy_evals",
               "bmgop.greedy_picks", "ip.vars", "ip.constraints", "ip.nonzeros",
               "ip.limit_hits", "ip.crashes", "ip.lp_mb")


def layer_counts(op: Op, res: Result) -> dict:
    """Deterministic work counts of one op, read from what the public calls
    returned."""
    counts = dict.fromkeys(COUNT_NAMES, 0)
    counts["serialize.parse_mb"] = len(op.instance.text) / 1e6
    if res.inst is None:
        return counts
    g = res.inst.grounding
    counts["core.pairs"] = len(g.pairs)
    counts["core.atoms"] = g.n_atoms
    counts["core.effect_bits"] = sum(e.bit_count() for e in g.effects)
    if res.reduction is not None:
        counts["gbgop.r_size"] = res.reduction[1].r_size
        counts["gbgop.r_star_size"] = res.reduction[1].r_star_size
    if res.greedy is not None:
        counts["bmgop.greedy_evals"] = res.greedy.op_count
        counts["bmgop.greedy_picks"] = len(res.greedy.iterations)
    if res.model is not None:
        counts["ip.vars"] = len(res.model.variables)
        counts["ip.constraints"] = len(res.model.constraints)
        counts["ip.nonzeros"] = sum(len(c.coeffs) for c in res.model.constraints)
    counts["ip.limit_hits"] = int(res.bnb == "limit_reached")
    counts["ip.crashes"] = int(res.bnb == "crashed")
    if op.method.startswith("lp") and res.status == OK:
        counts["ip.lp_mb"] = len(res.output) / 1e6
    return counts


# ---------------------------------------------------------------------------
# Checks

class Checker:
    """Output checks over the ops of one run. ``check`` returns the failed
    checks of one op as (status, message) pairs, none when the answer
    holds: WRONG for an invalid or inconsistent answer, BELOW_BOUND for a
    valid greedy answer under the guarantee approx_bound states."""

    def __init__(self):
        self.proven = {}   # instance name -> (method, proven optimum; None if infeasible)
        self.outputs = {}  # op index -> digest of the first answer seen
        self.greedy_ratios = {}  # op index -> greedy benefit / optimum

    def check(self, op: Op, res: Result) -> list:
        wrong = []
        digest = hashlib.sha256(
            "\0".join((res.status, res.output, res.trace_text)).encode()).hexdigest()
        if self.outputs.setdefault(op.index, digest) != digest:
            wrong.append("answer differs from an earlier repeat of the op")
        inst, sol = res.inst, res.sol
        if res.status != OK or op.method == "reduce":
            pass
        elif op.method.startswith("lp"):
            if res.output.startswith("uncoverable"):
                wrong += _check_uncoverable(inst, res.output)
        else:
            value = None
            if sol is not None and isinstance(inst, GbgopInstance):
                wrong += [v.message for v in validate_gbgop(inst, sol.pairs)]
                value = sol.cardinality
            elif sol is not None:
                wrong += validate_bmgop(inst, sol.pairs)
                value = sol.achieved_benefit
                if abs(objective_f(inst, sol.pairs) - value) > _SLACK:
                    wrong.append("objective_f differs from the reported benefit")
            if res.proven:
                wrong += self._check_optimum(op, value)
            if op.method == "approx":
                miss = self._check_greedy(op, inst, value)
                if miss:
                    return [(WRONG, m) for m in wrong] + [(BELOW_BOUND, miss)]
        return [(WRONG, m) for m in wrong]

    def _check_optimum(self, op, value) -> list:
        method, optimum = self.proven.setdefault(op.instance.name, (op.method, value))
        out = []
        if optimum != value:
            out.append(f"{op.method} optimum {value} differs from {method} optimum {optimum}")
        if op.instance.optimum is not None and value != op.instance.optimum:
            out.append(f"{op.method} optimum {value} differs from the planted "
                       f"optimum {op.instance.optimum}")
        return out

    def _check_greedy(self, op, inst, value) -> str:
        optimum = op.instance.optimum
        if optimum is None:
            optimum = self.proven.get(op.instance.name, (None, None))[1]
        if not optimum:
            return ""
        self.greedy_ratios[op.index] = value / optimum
        if bound_applicable(inst) and value < approx_bound(inst) * optimum - _SLACK:
            return (f"greedy benefit {value} is below approx_bound "
                    f"{approx_bound(inst):.4f} of optimum {optimum}")
        return ""


def _check_uncoverable(inst, output) -> list:
    g = inst.grounding
    produced = g.union_effects(g.pairs_to_indices(restricted_pairs(inst)))
    missing = inst.theta_in_mask & ~g.s0_mask & ~produced
    expected = "uncoverable: " + " ".join(map(str, g.mask_atoms(missing)))
    return [] if missing and expected == output else ["uncoverable atoms misreported"]

