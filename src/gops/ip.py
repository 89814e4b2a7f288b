"""Binary integer programs: model container, an exact branch-and-bound
solver for desk-scale models, and an LP-format text emitter for handing
models to an external solver.
"""

import re
import time
from dataclasses import dataclass, field
from itertools import accumulate, repeat
from operator import sub
from typing import NamedTuple, Optional

from .core import format_number
from .errors import InstanceError, LimitReachedError


class IpVariable(NamedTuple):
    name: str
    tag: object = None  # opaque payload, e.g. a pair or atom index


@dataclass(frozen=True)
class IpConstraint:
    coeffs: tuple  # ((var_index, coefficient), ...) in variable order
    sense: str     # "<=" or ">="
    rhs: float
    label: str


@dataclass
class IpModel:
    """A linear objective and linear constraints over binary variables.

    The paper's builders add their variables in bulk (``add_variables``),
    named from canonical indices by ``Grounding.pair_names``/``atom_names``.
    ``validate`` checks a model; ``solve_branch_and_bound`` and ``emit_lp``
    both run it first."""

    sense: str  # "min" or "max"
    variables: list = field(default_factory=list)
    objective: dict = field(default_factory=dict)  # var index -> coefficient
    constant: float = 0.0
    constraints: list = field(default_factory=list)

    def add_variable(self, name: str, tag: object = None) -> int:
        self.variables.append(IpVariable(name, tag))
        return len(self.variables) - 1

    def add_variables(self, names, tags) -> range:
        """One variable per name, tagged by the matching item of ``tags``;
        returns their indices."""
        start = len(self.variables)
        self.variables += map(tuple.__new__, repeat(IpVariable), zip(names, tags))
        return range(start, len(self.variables))

    def add_constraint(self, coeffs, sense: str, rhs: float, label: str) -> None:
        if isinstance(coeffs, dict):
            coeffs = sorted(coeffs.items())
        self.constraints.append(IpConstraint(tuple(coeffs), sense, rhs, label))

    def add_packing_rows(self, inst, var_of) -> None:
        """The ``budget`` row over the selection variables ``var_of`` (pair
        index -> variable, both ascending in insertion order) of a problem
        instance, then one ``ic_<pos>`` row per constraint active in its
        initial state with members among them."""
        g = inst.grounding
        costs = g.costs
        self.add_constraint([(v, costs[i]) for i, v in var_of.items()], "<=", inst.budget, "budget")
        for pos, members in g.ic_s0:
            present = sorted(members & var_of.keys())
            if present:
                self.add_constraint([(var_of[i], 1.0) for i in present], "<=", 1.0, f"ic_{pos}")

    def validate(self) -> None:
        if self.sense not in ("min", "max"):
            raise InstanceError("ip-sense", f"unknown objective sense {self.sense!r}")
        names = set()
        for v in self.variables:
            if v.name in names:
                raise InstanceError("ip-duplicate-variable", f"duplicate variable {v.name!r}")
            names.add(v.name)
        n = len(self.variables)
        for i in self.objective:
            if not 0 <= i < n:
                raise InstanceError("ip-bad-variable", f"objective references variable {i}")
        for c in self.constraints:
            if c.sense not in ("<=", ">="):
                raise InstanceError("ip-bad-sense", f"constraint {c.label!r}: sense {c.sense!r}")
            for i, _ in c.coeffs:
                if not 0 <= i < n:
                    raise InstanceError("ip-bad-variable", f"constraint {c.label!r} references variable {i}")


@dataclass
class IpAssignment:
    status: str  # "optimal" | "infeasible" | "limit_reached"
    values: dict  # variable name -> 0/1
    objective_value: Optional[float]


@dataclass(frozen=True)
class Limits:
    """Node and time budget of one search; None is no limit. A negative
    or NaN value, which no count or clock reading would pass, is refused."""

    max_nodes: Optional[int] = None
    max_seconds: Optional[float] = None

    def __post_init__(self):
        if self.max_nodes is not None and not self.max_nodes >= 0:
            raise InstanceError("limit-range",
                                f"max_nodes {self.max_nodes} is not a non-negative number")
        if self.max_seconds is not None and not self.max_seconds >= 0:
            raise InstanceError("limit-range",
                                f"max_seconds {self.max_seconds} is not a non-negative number")

    def _counter(self):
        """Start the clock for one search (``Grounding.search`` and
        ``solve_branch_and_bound`` start one per run); returns a function to
        call once per node. It raises LimitReachedError on the node after the
        ``max_nodes``-th, and once ``max_seconds`` have passed (the clock is
        read every 4096 nodes)."""
        max_nodes = self.max_nodes
        deadline = None if self.max_seconds is None else time.monotonic() + self.max_seconds
        nodes = 0

        def tick() -> None:
            nonlocal nodes
            nodes += 1
            if max_nodes is not None and nodes > max_nodes:
                raise LimitReachedError("node budget exhausted")
            if deadline is not None and nodes % 4096 == 0 and time.monotonic() > deadline:
                raise LimitReachedError("time budget exhausted")
        return tick


def solve_branch_and_bound(model: IpModel, limits: Optional[Limits] = None) -> IpAssignment:
    """Exact optimum of a binary model by depth-first search.

    Variables are fixed in model order, trying 1 first when maximizing and
    0 first when minimizing, one ``tick`` per node. Every row is read as
    ``<=`` (a ``>=`` row negated) and carries the smallest left-hand side
    it can still reach; a fix that lifts that above the right-hand side
    kills the subtree. A node whose objective plus every still-improving
    free coefficient cannot reach the best so far is not expanded. Both
    prunes are strict, so all optima stay reachable and ties resolve to
    the lexicographically smallest assignment vector.

    The search keeps an explicit stack, so depth is not limited. A fix
    saves the row sums it raises and writes them back when the search
    leaves it, so each sum depends only on the variables fixed so far,
    added in model order: a budget row adds its costs as ``cost_sum`` does,
    for any costs. (A row with negative terms, a ``>=`` row's included,
    starts from their sum, so with non-integer terms its test can round
    apart from a left-to-right sum of the chosen terms.) When the limits
    are hit the search stops with status ``limit_reached`` and keeps its
    best assignment so far, if any.
    """
    model.validate()
    n = len(model.variables)
    maximize = model.sense == "max"
    obj = [model.objective.get(i, 0.0) for i in range(n)]

    rhs = [-c.rhs if c.sense == ">=" else c.rhs for c in model.constraints]
    low = [0.0] * len(rhs)  # per row: the smallest left-hand side still reachable
    moves = [([], []) for _ in range(n)]  # moves[i][v]: (row, raise) of fixing x_i = v
    for k, c in enumerate(model.constraints):
        for i, co in c.coeffs:
            a = -co if c.sense == ">=" else co
            if a > 0:
                moves[i][1].append((k, a))
            elif a < 0:
                low[k] += a
                moves[i][0].append((k, -a))
    if any(lo > r for lo, r in zip(low, rhs)):
        return IpAssignment("infeasible", {}, None)

    # rest[d]: the most that fixing variables d.. can still add to (max) or
    # subtract from (min) the objective
    gain = [co if (co > 0 if maximize else co < 0) else 0.0 for co in obj]
    rest = list(accumulate(gain, sub, initial=sum(gain)))

    order = (1, 0) if maximize else (0, 1)
    values = [0] * n
    best_obj = best_vec = None
    tick = (limits or Limits())._counter()

    def expand(depth: int, cur: float) -> bool:
        """Count the node that fixed ``values[:depth]``, score it if it is a
        leaf, and say whether its children are worth trying."""
        nonlocal best_obj, best_vec
        tick()
        if depth == n:
            total = cur + model.constant
            if best_obj is None or (total > best_obj if maximize else total < best_obj):
                best_obj, best_vec = total, values.copy()
            elif total == best_obj and values < best_vec:
                best_vec = values.copy()
            return False
        bound = cur + rest[depth] + model.constant
        return best_obj is None or not (bound < best_obj if maximize else bound > best_obj)

    try:
        if expand(0, 0.0):
            # per node being expanded (its depth is its stack position): the
            # objective so far, the values left for its variable, and the
            # row sums its current fix overwrote
            stack = [(0.0, iter(order), [])]
            while stack:
                cur, untried, saved = stack[-1]
                for k, old in saved:
                    low[k] = old
                val = next(untried, None)
                if val is None:
                    stack.pop()
                    continue
                depth = len(stack) - 1
                values[depth] = val
                raised = moves[depth][val]
                saved[:] = [(k, low[k]) for k, _ in raised]
                for k, r in raised:
                    low[k] += r
                child = cur + obj[depth] * val
                if all(low[k] <= rhs[k] for k, _ in raised) and expand(depth + 1, child):
                    stack.append((child, iter(order), []))
        status = "optimal" if best_vec is not None else "infeasible"
    except LimitReachedError:
        status = "limit_reached"
    if best_vec is None:
        return IpAssignment(status, {}, None)
    return IpAssignment(status, {model.variables[i].name: best_vec[i] for i in range(n)}, best_obj)


def _solve_for_tags(model: IpModel, limits: Optional[Limits]):
    """Branch-and-bound on ``model``. Returns (tags of the variables set to
    1, or None when the search ended without an assignment; status)."""
    result = solve_branch_and_bound(model, limits=limits)
    if result.objective_value is None:
        return None, result.status
    return [v.tag for v in model.variables if result.values.get(v.name) == 1], result.status


# ---------------------------------------------------------------------------
# LP text emission

_NAME_RE = re.compile(r"[^A-Za-z0-9_]")


def _unique(names) -> list:
    """``names`` (a list) in order, a repeat taking the first free ``_<n>``
    suffix."""
    if len(set(names)) == len(names):
        return names
    taken = {}  # insertion-ordered
    for name in names:
        unique, n = name, 0
        while unique in taken:
            n += 1
            unique = f"{name}_{n}"
        taken[unique] = None
    return list(taken)


class _Signed(dict):
    """Coefficient -> the signed text written before a variable's name:
    ``"+ "``, ``"- "``, ``"+ 2.5 "``; each distinct coefficient is worked
    out once per model."""

    def __missing__(self, co) -> str:
        mag = abs(co)
        text = self[co] = ("+ " if co > 0 else "- ") + ("" if mag == 1 else f"{format_number(mag)} ")
        return text


def _expr(terms, names, signed: _Signed, constant: float = 0.0) -> str:
    pieces = [signed[co] + names[i] for i, co in terms if co]
    if constant:  # one more signed piece, without a name
        pieces.append(("+ " if constant > 0 else "- ") + format_number(abs(constant)))
    text = " ".join(pieces)
    return text[2:] if text.startswith("+ ") else text or "0"


def emit_lp(model: IpModel) -> str:
    """CPLEX-style LP text. Byte-identical for identical models: terms in
    variable order, coefficients at up to 12 significant digits, zero
    terms left out. Names and labels are sanitized to ``[A-Za-z0-9_]``,
    with a ``v_`` prefix on an empty name or one that starts like a number
    and ``c`` for an empty label, then made unique by ``_unique``.

    The model is validated first. Each distinct coefficient's signed text
    is made once (``_Signed``), so equal coefficients must print alike, as
    equal ints, floats and bools do."""
    model.validate()
    raw = [v.name for v in model.variables]
    if _NAME_RE.search("".join(raw)):
        raw = [_NAME_RE.sub("_", name) for name in raw]
    names = _unique(["v_" + name if not name or name[0] in "0123456789eE" else name
                     for name in raw])
    labels = _unique([_NAME_RE.sub("_", c.label) or "c" for c in model.constraints])
    signed = _Signed()
    lines = ["\\ binary integer program"]
    lines.append("Maximize" if model.sense == "max" else "Minimize")
    obj_terms = sorted(model.objective.items())
    lines.append(" obj: " + _expr(obj_terms, names, signed, model.constant))
    lines.append("Subject To")
    for label, c in zip(labels, model.constraints):
        lines.append(f" {label}: {_expr(c.coeffs, names, signed)} {c.sense} {format_number(c.rhs)}")
    lines.append("Binary")
    lines += [" " + name for name in names]
    lines.append("End")
    return "\n".join(lines) + "\n"
