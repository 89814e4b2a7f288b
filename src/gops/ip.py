"""Binary integer programs: model container, an exact branch-and-bound
solver for desk-scale models, and an LP-format text emitter for handing
models to an external solver.
"""

import re
import time
from dataclasses import dataclass, field
from typing import Optional

from .core import format_number
from .errors import InstanceError, LimitReachedError


@dataclass(frozen=True)
class IpVariable:
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
    """A linear objective and linear constraints over binary variables."""

    sense: str  # "min" or "max"
    variables: list = field(default_factory=list)
    objective: dict = field(default_factory=dict)  # var index -> coefficient
    constant: float = 0.0
    constraints: list = field(default_factory=list)

    def add_variable(self, name: str, tag: object = None) -> int:
        self.variables.append(IpVariable(name, tag))
        return len(self.variables) - 1

    def add_constraint(self, coeffs, sense: str, rhs: float, label: str) -> None:
        if isinstance(coeffs, dict):
            coeffs = sorted(coeffs.items())
        self.constraints.append(IpConstraint(tuple(coeffs), sense, rhs, label))

    def add_pair_variable(self, pair, tag: object) -> int:
        """The selection variable ``X_<action>_<x>_<y>`` of an action-point pair."""
        return self.add_variable(f"X_{pair.action}_{pair.point.x}_{pair.point.y}", tag=tag)

    def add_packing_rows(self, inst, var_of) -> None:
        """The ``budget`` row over the selection variables ``var_of`` (pair
        index -> variable) of a problem instance, then one ``ic_<pos>`` row
        per constraint active in its initial state with members among them."""
        g = inst.grounding
        self.add_constraint({v: g.costs[i] for i, v in var_of.items()}, "<=", inst.budget, "budget")
        for pos, members in g.ic_s0:
            present = sorted(members & var_of.keys())
            if present:
                self.add_constraint({var_of[i]: 1.0 for i in present}, "<=", 1.0, f"ic_{pos}")

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
    max_nodes: Optional[int] = None
    max_seconds: Optional[float] = None

    def _counter(self):
        """Start the clock for one search; returns a function to call once
        per search node. It raises LimitReachedError on the node after the
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


def solve_branch_and_bound(model: IpModel, limits: Optional[Limits] = None,
                           use_bound: bool = True) -> IpAssignment:
    """Exact optimum of a binary model by depth-first search.

    Variables are fixed in model order, trying 1 first when maximizing and
    0 first when minimizing. Two prunes keep the search honest but small:
    a feasibility check (a <=-constraint whose smallest achievable
    left-hand side already exceeds the bound, or a >=-constraint whose
    largest achievable side falls short, kills the subtree) and an
    optimistic objective bound (current value plus every still-improving
    free coefficient). Both prunes are strict, so all optima stay
    reachable and ties resolve to the lexicographically smallest
    assignment vector. ``use_bound=False`` disables the objective prune.

    The search recurses once per variable. When the limits are hit, or
    when a model has more variables than Python's recursion depth allows,
    the search stops with status ``limit_reached`` and keeps its best
    assignment so far, if any.
    """
    model.validate()
    n = len(model.variables)
    m = len(model.constraints)
    maximize = model.sense == "max"
    obj = [model.objective.get(i, 0.0) for i in range(n)]

    sense_le = [c.sense == "<=" for c in model.constraints]
    rhs = [c.rhs for c in model.constraints]
    touching = [[] for _ in range(n)]
    fixed = [0.0] * m
    free_min = [0.0] * m
    free_max = [0.0] * m
    for k, c in enumerate(model.constraints):
        for i, co in c.coeffs:
            touching[i].append((k, co))
            if co < 0:
                free_min[k] += co
            else:
                free_max[k] += co

    def constraint_ok(k: int) -> bool:
        if sense_le[k]:
            return fixed[k] + free_min[k] <= rhs[k]
        return fixed[k] + free_max[k] >= rhs[k]

    if not all(constraint_ok(k) for k in range(m)):
        return IpAssignment("infeasible", {}, None)

    # Per-variable optimistic improvement; rest[d] bounds what depths >= d
    # can still add to (max) or subtract from (min) the objective.
    if maximize:
        gain = [co if co > 0 else 0.0 for co in obj]
    else:
        gain = [co if co < 0 else 0.0 for co in obj]

    order = (1, 0) if maximize else (0, 1)
    values = [0] * n
    best_obj = None
    best_vec = None
    tick = (limits or Limits())._counter()

    def rec(depth: int, cur: float, rest: float) -> None:
        nonlocal best_obj, best_vec
        tick()
        if depth == n:
            total = cur + model.constant
            if best_obj is None or (total > best_obj if maximize else total < best_obj):
                best_obj = total
                best_vec = values.copy()
            elif total == best_obj and values < best_vec:
                best_vec = values.copy()
            return
        if use_bound and best_obj is not None:
            bound = cur + rest + model.constant
            if maximize and bound < best_obj:
                return
            if not maximize and bound > best_obj:
                return
        touched = touching[depth]
        for val in order:
            values[depth] = val
            for k, co in touched:
                fixed[k] += co * val
                if co < 0:
                    free_min[k] -= co
                else:
                    free_max[k] -= co
            if all(constraint_ok(k) for k, _ in touched):
                rec(depth + 1, cur + obj[depth] * val, rest - gain[depth])
            for k, co in touched:
                fixed[k] -= co * val
                if co < 0:
                    free_min[k] += co
                else:
                    free_max[k] += co

    try:
        rec(0, 0.0, sum(gain))
        status = "optimal" if best_vec is not None else "infeasible"
    except (LimitReachedError, RecursionError):
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


def _sanitize_names(variables) -> list:
    seen = {}
    out = []
    for v in variables:
        name = _NAME_RE.sub("_", v.name)
        if not name or name[0].isdigit() or name[0] in "eE.":
            name = "v_" + name
        if name in seen:
            seen[name] += 1
            name = f"{name}_{seen[name]}"
        seen.setdefault(name, 0)
        out.append(name)
    return out


def _expr(terms, names, constant: float = 0.0) -> str:
    parts = []
    for i, co in terms:
        if co == 0:
            continue
        mag = abs(co)
        piece = names[i] if mag == 1 else f"{format_number(mag)} {names[i]}"
        if not parts:
            parts.append(piece if co > 0 else f"- {piece}")
        else:
            parts.append(f"+ {piece}" if co > 0 else f"- {piece}")
    if constant != 0:
        value = format_number(abs(constant))
        if not parts:
            parts.append(value if constant > 0 else f"- {value}")
        else:
            parts.append(f"+ {value}" if constant > 0 else f"- {value}")
    return " ".join(parts) if parts else "0"


def emit_lp(model: IpModel) -> str:
    """CPLEX-style LP text. Byte-identical for identical models: terms in
    variable order, coefficients at up to 12 significant digits, names
    sanitized to ``[A-Za-z0-9_]``."""
    model.validate()
    names = _sanitize_names(model.variables)
    lines = ["\\ binary integer program"]
    lines.append("Maximize" if model.sense == "max" else "Minimize")
    obj_terms = sorted(model.objective.items())
    lines.append(" obj: " + _expr(obj_terms, names, model.constant))
    lines.append("Subject To")
    seen_labels = {}
    for c in model.constraints:
        label = _NAME_RE.sub("_", c.label) or "c"
        if label in seen_labels:
            seen_labels[label] += 1
            label = f"{label}_{seen_labels[label]}"
        seen_labels.setdefault(label, 0)
        lines.append(f" {label}: {_expr(c.coeffs, names)} {c.sense} {format_number(c.rhs)}")
    lines.append("Binary")
    for name in names:
        lines.append(f" {name}")
    lines.append("End")
    return "\n".join(lines) + "\n"
