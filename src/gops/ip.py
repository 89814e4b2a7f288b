"""Binary integer programs: a model container that keeps its variables and
rows as flat arrays, an exact branch-and-bound solver with a Lagrangian
root for desk-scale models, and an LP-format text emitter for handing
models to an external solver.
"""

import math
import re
import time
from collections import Counter
from dataclasses import dataclass, field
from functools import reduce
from itertools import accumulate, chain, compress, count, repeat
from operator import add, itemgetter, mul, not_, sub
from typing import Callable, NamedTuple, Optional

from .core import _fit, _fits, format_number, sums_exact
from .errors import InstanceError, LimitReachedError


class IpVariable(NamedTuple):  # an item of ``IpModel.variables``
    name: str
    tag: object = None  # opaque payload, e.g. a pair or atom index


@dataclass(frozen=True)
class IpConstraint:
    """One row of an ``IpModel``, as its ``constraints`` view gives it."""

    coeffs: tuple  # ((var_index, coefficient), ...) in variable order
    sense: str     # "<=" or ">="
    rhs: float
    label: str


@dataclass
class IpModel:
    """A linear objective and linear constraints over binary variables.

    The paper's builders add their variables in bulk (``add_variables``),
    named from canonical indices by ``Grounding.pair_names``/``atom_names``.
    Variables and rows are stored as flat arrays, the compressed-row layout
    of MPS/LP writers: variable ``i`` is named ``names[i]`` and tagged
    ``tags[i]``; row ``r`` is labelled ``labels[r]``, reads ``senses[r]``
    (``"<="`` or ``">="``) ``rhs[r]``, and its terms are
    ``cols[starts[r]:starts[r + 1]]`` (variable indices, in variable order)
    with coefficients ``vals[starts[r]:starts[r + 1]]``. A family of rows,
    such as the cover, card, budget or IC rows, goes in through one
    ``add_rows``; ``variables`` and ``constraints`` are views derived from
    the arrays. ``validate`` checks a model; ``solve_branch_and_bound`` and
    ``emit_lp`` both run it first.

    ``start``, when set, works like a MIP start: a function of no arguments
    that returns the indices of the variables set to 1 in a feasible
    assignment. It is called only by ``solve_branch_and_bound``, which
    refuses a start that breaks a row, tries to prove it optimal at the
    root and otherwise takes it as its first incumbent; ``emit_lp`` and
    ``validate`` never call it."""

    sense: str  # "min" or "max"
    objective: dict = field(default_factory=dict)  # var index -> coefficient
    constant: float = 0.0
    start: Optional[Callable[[], object]] = field(default=None, repr=False, compare=False)
    names: list = field(default_factory=list, init=False)
    tags: list = field(default_factory=list, init=False)
    labels: list = field(default_factory=list, init=False)
    senses: list = field(default_factory=list, init=False)
    rhs: list = field(default_factory=list, init=False)
    starts: list = field(default_factory=lambda: [0], init=False)
    cols: list = field(default_factory=list, init=False)
    vals: list = field(default_factory=list, init=False)

    def add_variable(self, name: str, tag: object = None) -> int:
        return self.add_variables([name], [tag])[0]

    def add_variables(self, names, tags) -> range:
        """One variable per name, tagged by the matching item of ``tags``;
        returns their indices. ValueError, with the model unchanged, when
        the two are not of one length."""
        names, tags = list(names), list(tags)
        if len(names) != len(tags):
            raise ValueError("add_variables needs one tag per name")
        start = len(self.names)
        self.names += names
        self.tags += tags
        return range(start, len(self.names))

    @property
    def variables(self) -> tuple:
        """The variables as ``IpVariable``s, built from the arrays on each read."""
        return tuple(map(IpVariable, self.names, self.tags))

    def add_rows(self, labels, sense: str, rhs: float, rows, coeffs=None) -> None:
        """A family of rows that share ``sense`` and ``rhs``: row ``r`` is
        labelled ``labels[r]``, its terms are the variables ``rows[r]`` (in
        variable order) and their coefficients ``coeffs[r]``, or 1.0 each
        when ``coeffs`` is None. All three are sequences of one length, and
        ``coeffs[r]`` is as long as ``rows[r]``; ValueError otherwise, with
        the model unchanged."""
        lengths = list(map(len, rows))
        if len(labels) != len(lengths) or coeffs is not None and list(map(len, coeffs)) != lengths:
            raise ValueError("add_rows needs one label and one coefficient per term of each row")
        self.labels += labels
        self.senses += repeat(sense, len(lengths))
        self.rhs += repeat(rhs, len(lengths))
        starts = self.starts
        # the model's last start is the family's first
        starts += accumulate(lengths, initial=starts.pop())
        self.cols += chain.from_iterable(rows)
        if coeffs is None:
            self.vals += repeat(1.0, starts[-1] - len(self.vals))
        else:
            self.vals += chain.from_iterable(coeffs)

    def add_constraint(self, coeffs, sense: str, rhs: float, label: str) -> None:
        """One row from ``(variable, coefficient)`` pairs in variable order,
        or from a dict of them."""
        terms = sorted(coeffs.items()) if isinstance(coeffs, dict) else list(coeffs)
        self.add_rows([label], sense, rhs, [[i for i, _ in terms]], [[co for _, co in terms]])

    @property
    def constraints(self) -> tuple:
        """The rows as ``IpConstraint``s, built from the arrays on each read."""
        starts, cols, vals = self.starts, self.cols, self.vals
        return tuple(IpConstraint(tuple(zip(cols[s:e], vals[s:e])), sense, rhs, label)
                     for s, e, sense, rhs, label
                     in zip(starts, starts[1:], self.senses, self.rhs, self.labels))

    def add_packing_rows(self, inst, indices) -> None:
        """The ``budget`` row over the selection variables of a problem
        instance, variable ``j`` selecting pair ``indices[j]`` (ascending),
        then one ``ic_<pos>`` row per constraint active in its initial state
        with members among them; a constraint without one gets no row."""
        g = inst.grounding
        var_of = dict(zip(indices, count()))
        self.add_rows(["budget"], "<=", inst.budget, [list(var_of.values())],
                      [list(map(g.costs.__getitem__, var_of))])
        labels, rows = [], []
        for pos, members in g.ic_s0:
            present = sorted(members & var_of.keys())
            if present:
                labels.append(f"ic_{pos}")
                rows.append(list(map(var_of.__getitem__, present)))
        self.add_rows(labels, "<=", 1.0, rows)

    def validate(self) -> None:
        """Raise InstanceError at the first fault: an unknown objective sense,
        a repeated variable name, an objective term outside the variables,
        then, row by row, a sense other than ``<=``/``>=`` or a term outside
        the variables; an index that is not an int (``0.0``) is outside them.

        Whole-array checks run first; the item-by-item loops run only when
        one of them fails, to name that first fault."""
        if self.sense not in ("min", "max"):
            raise InstanceError("ip-sense", f"unknown objective sense {self.sense!r}")
        n = len(self.names)
        if len(set(self.names)) != n:
            seen = set()
            for name in self.names:
                if name in seen:
                    raise InstanceError("ip-duplicate-variable", f"duplicate variable {name!r}")
                seen.add(name)
        if not _fits(self.objective, n):
            for i in self.objective:
                if not _fit(i, n):
                    raise InstanceError("ip-bad-variable", f"objective references variable {i!r}")
        if not (set(self.senses) <= {"<=", ">="} and _fits(self.cols, n)):
            starts, cols = self.starts, self.cols
            for s, e, sense, label in zip(starts, starts[1:], self.senses, self.labels):
                if sense not in ("<=", ">="):
                    raise InstanceError("ip-bad-sense", f"constraint {label!r}: sense {sense!r}")
                for i in cols[s:e]:
                    if not _fit(i, n):
                        raise InstanceError("ip-bad-variable",
                                            f"constraint {label!r} references variable {i!r}")


PRUNE_KINDS = ("row", "bound", "tie")


@dataclass
class IpAssignment:
    """What ``solve_branch_and_bound`` found, and the work it took: the
    search nodes, the subgradient steps at the root, the variables fixed
    there, the root's bound on the objective value (an upper bound when
    maximizing, a lower bound when minimizing; None without a start), and
    the search's prunes by kind (``PRUNE_KINDS``): children a fix's row
    broke, and nodes whose bound fell short of the incumbent or only
    reached it where ties may be cut."""

    status: str  # "optimal" | "infeasible" | "limit_reached"
    values: dict  # variable name -> 0/1
    objective_value: Optional[float]
    nodes: int = 0
    steps: int = 0
    fixed: int = 0
    root_bound: Optional[float] = None
    prunes: dict = field(default_factory=lambda: dict.fromkeys(PRUNE_KINDS, 0))


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
        ``solve_branch_and_bound`` start one per run); returns a function
        ``tick(step=False)`` to call once per node, or with ``step=True``
        once per root step, which returns the count so far. It raises
        LimitReachedError on the node after the ``max_nodes``-th, and once
        ``max_seconds`` have passed. A root step may take milliseconds, so
        every step reads the clock; a search node takes microseconds, so
        the first node reads it and then every ``2 ** j``-th node, ``j``
        sized at each reading from the node time measured since the last
        one, so that readings come about ``_CLOCK_GAP`` seconds apart.
        ``max_seconds=0`` still stops at the first node or step."""
        max_nodes = self.max_nodes
        last = time.monotonic()  # the time of the last reading
        deadline = None if self.max_seconds is None else last + self.max_seconds
        nodes = read = 0  # the count so far, and at the last reading
        due = 1  # the count at which a node next reads the clock

        def tick(step: bool = False) -> int:
            nonlocal nodes, read, due, last
            nodes += 1
            if max_nodes is not None and nodes > max_nodes:
                raise LimitReachedError("node budget exhausted")
            if deadline is not None and (step or nodes >= due):
                now = time.monotonic()
                if now > deadline:
                    raise LimitReachedError("time budget exhausted")
                per_node = (now - last) / (nodes - read)
                stride = 1 if step or not per_node else \
                    1 << min(_MAX_STRIDE_LOG, max(0, int(_CLOCK_GAP / per_node).bit_length() - 1))
                last, read, due = now, nodes, nodes + stride
            return nodes
        return tick


# the time between two clock readings that ``Limits._counter`` aims at, and
# the most nodes (as a power of two) it lets pass between them
_CLOCK_GAP = 0.002
_MAX_STRIDE_LOG = 16


def _granularity(values) -> float:
    """The largest power of two of which every item of ``values`` is an
    integer multiple, when every sum of them is exact (``sums_exact``): inf
    when all are zero, and 0.0 when there is no such power or the sums can
    round."""
    copies = Counter(values)  # equal values have one ratio, whatever their types
    if not (set(map(type, values)) <= {int, float, bool}
            and all(type(v) is not float or math.isfinite(v) for v in copies)
            and sums_exact((abs(v), n) for v, n in copies.items())):
        return 0.0
    exponents = []
    for v in copies:
        if v:
            num, den = abs(v).as_integer_ratio()  # den is a power of two
            exponents.append((num & -num).bit_length() - den.bit_length())
    return 2.0 ** min(exponents) if exponents else math.inf


def solve_branch_and_bound(model: IpModel, limits: Optional[Limits] = None) -> IpAssignment:
    """Exact optimum of a binary model by depth-first search.

    Variables are fixed in model order, 0 before 1, one ``tick`` per node,
    so leaves are reached in ascending lexicographic order of the
    assignment vector. Every row is read as ``<=`` (a ``>=`` row negated)
    and carries the smallest left-hand side it can still reach; a fix that
    lifts that above the right-hand side kills the subtree (a ``row``
    prune). A node's bound is its objective plus every still-improving
    free coefficient; a node whose bound cannot reach the incumbent is not
    expanded (a ``bound`` prune). A leaf replaces the incumbent when it
    beats it, or ties it from below in lexicographic order, so the answer
    is the lexicographically smallest optimum.

    Every objective value is a multiple of the objective's granularity
    ``q`` (``_granularity`` over the coefficients and the constant) when
    their sums are exact. Once the search has met a leaf of the
    incumbent's value (the incumbent's own, or one above it), every leaf
    still to come lies above the incumbent's vector, so no tie can replace
    it, and a node must beat the incumbent by ``q`` to be expanded (a
    ``tie`` prune when it only reaches it). A start's own leaf is met
    before any node above it, as neither a row nor a bound cuts its path.
    Before such a leaf, and whenever ``q`` is 0 (the sums can round), the
    test stays strict, so no tie that could replace the incumbent is cut.
    ``IpAssignment.prunes`` counts the three kinds.

    The search keeps an explicit stack, so depth is not limited. A fix
    saves the row sums it raises and writes them back when the search
    leaves it, so each sum depends only on the variables fixed so far,
    added in model order: a budget row adds its costs as ``cost_sum`` does,
    for any costs. (A row with negative terms, a ``>=`` row's included,
    starts from their sum, so with non-integer terms its test can round
    apart from a left-to-right sum of the chosen terms.) When the limits
    are hit the search stops with status ``limit_reached`` and keeps its
    best assignment so far, if any.

    A model with a ``start`` is first tried at the root (``root_proof``).
    The start must pass every row by the search's own sums, or
    InstanceError ``ip-start`` is raised. Every variable whose other value
    alone breaks a row is fixed, and subgradient steps on the rows
    seek a Lagrangian bound below the start's value plus ``q``; when one is
    found, no assignment can beat the start, and the start is returned as
    it is, ``optimal``, whichever optimum it is. Otherwise the search above
    runs with the start as its first incumbent: it visits a subset of the
    nodes it visits without one, and ends with the same answer when it
    completes. Each step is one ``tick``; a limit hit during the steps
    returns the start, ``limit_reached``.

    A NaN right-hand side is refused with InstanceError ``ip-bad-rhs``: no
    sum is above or below it, so the start's check would keep such a row
    and the search would break it.
    """
    model.validate()
    for label, r in zip(model.labels, model.rhs):
        if r != r:
            raise InstanceError("ip-bad-rhs", f"constraint {label!r}: right-hand side is NaN")
    n = len(model.names)
    maximize = model.sense == "max"
    obj = [model.objective.get(i, 0.0) for i in range(n)]

    starts, cols, vals = model.starts, model.cols, model.vals
    rhs = []
    low = []  # per row: the smallest left-hand side still reachable
    moves = [([], []) for _ in range(n)]  # moves[i][v]: (row, raise) of fixing x_i = v
    for k, (s, e, sense, r) in enumerate(zip(starts, starts[1:], model.senses, model.rhs)):
        ge = sense == ">="
        rhs.append(-r if ge else r)
        lo = 0.0
        for i, co in zip(cols[s:e], vals[s:e]):
            a = -co if ge else co
            if a > 0:
                moves[i][1].append((k, a))
            elif a < 0:
                lo += a
                moves[i][0].append((k, -a))
        low.append(lo)

    # The search reads the objective as a maximization: negating a float
    # sum negates each of its roundings, so it takes the same decisions in
    # either sense, and the value is negated back at the end.
    up = obj if maximize else [-co for co in obj]
    const = model.constant if maximize else -model.constant
    q = _granularity(obj + [model.constant])
    tick = (limits or Limits())._counter()
    prunes = dict.fromkeys(PRUNE_KINDS, 0)
    best = vec = None
    nodes = steps = fixed = 0
    root_bound = None
    if model.start is not None:
        vec = start_vector(model, rhs, low, moves)
        cur = reduce(add, map(mul, obj, vec), 0.0)  # as a leaf of the search sums it
        best = (cur if maximize else -cur) + const
        verdict, steps, fixed, root_bound = root_proof(model, obj, rhs, low, moves, cur, q, tick)
        if verdict:
            return IpAssignment(verdict, _named(model, vec), _value(best, maximize),
                                0, steps, fixed, root_bound, prunes)
    elif any(lo > r for lo, r in zip(low, rhs)):
        return IpAssignment("infeasible", {}, None, prunes=prunes)

    # rest[d]: the most that fixing variables d.. can still add
    gain = [co if co > 0 else 0.0 for co in up]
    rest = list(accumulate(gain, sub, initial=sum(gain)))

    # A node is expanded only if its bound reaches ``cut``: the incumbent,
    # or the incumbent plus q once a leaf of the incumbent's value has been
    # met, as that leaf is the incumbent or lies above it, and every later
    # leaf lies above that one, so no tie can replace the incumbent. No row
    # cuts a start's path, whose sums are the search's own, and when q > 0
    # no bound does either, as each is exactly at least the start's value;
    # so the search meets the start's own leaf before any node above it.
    cut = best
    values = [0] * n

    def expand(depth: int, cur: float) -> bool:
        """Count the node that fixed ``values[:depth]``, score it if it is a
        leaf, and say whether its children are worth trying."""
        nonlocal best, vec, nodes, cut
        nodes = tick() - steps
        if depth == n:
            total = cur + const
            if best is None or total > best or total == best and values < vec:
                best, vec = total, values.copy()
            if total == best:  # every leaf still to come lies above this one
                cut = best + q
            return False
        bound = cur + rest[depth] + const
        if best is None or not bound < cut:
            return True
        prunes["bound" if bound < best else "tie"] += 1
        return False

    try:
        if expand(0, 0.0):
            # per node being expanded (its depth is its stack position): the
            # objective so far, the values left for its variable, and the
            # row sums its current fix overwrote
            stack = [(0.0, iter((0, 1)), [])]
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
                broken = False
                for k, r in raised:
                    low[k] += r
                    if not low[k] <= rhs[k]:
                        broken = True
                child = cur + up[depth] * val
                if broken:
                    prunes["row"] += 1
                elif expand(depth + 1, child):
                    stack.append((child, iter((0, 1)), []))
        status = "optimal" if vec is not None else "infeasible"
    except LimitReachedError:
        status = "limit_reached"
    return IpAssignment(status, _named(model, vec), _value(best, maximize),
                        nodes, steps, fixed, root_bound, prunes)


def start_vector(model, rhs: list, low: list, moves: list) -> list:
    """The 0/1 vector of ``model.start()``, checked against every row by
    the sums a leaf of the search takes; InstanceError ``ip-start`` when it
    names something other than a variable index or breaks a row."""
    n = len(moves)
    vec = [0] * n
    for i in model.start():
        if not _fit(i, n):
            raise InstanceError("ip-start", f"start sets {i!r}, which is not a variable index")
        vec[i] = 1
    sums = low.copy()
    for i, v in enumerate(vec):
        for k, r in moves[i][v]:
            sums[k] += r
    for k, (total, r) in enumerate(zip(sums, rhs)):
        if total > r:
            raise InstanceError("ip-start", f"start breaks constraint {model.labels[k]!r}")
    return vec


_BOUND_SLACK = 1e-9  # relative to the summed magnitudes that make up a bound
_STEP_SIZE = 2.0  # Polyak's theta, halved after every _PATIENCE steps in a row that do not
_PATIENCE = 3     # lower the bound; after two halvings in a row the bound has stalled


def root_proof(model, obj, rhs, low, moves, start_cur, q, tick) -> tuple:
    """(verdict, steps, fixed variables, bound) of the root of a model with
    a start, whose objective without the constant is ``start_cur``. The
    verdict is ``"optimal"`` when no assignment beats the start,
    ``"limit_reached"`` when ``tick`` raised LimitReachedError first, and
    None otherwise. The start is proven optimal when the Lagrangian bound
    of Held & Karp (1971) and Fisher (1981), lowered toward the start by
    Polyak subgradient steps, falls below the start's value plus the
    objective's granularity ``q`` (``_granularity`` over the coefficients
    and the constant): every objective value is a multiple of q, so none
    then lies above the start's.

    The model is read as a maximization, its rows as the search reads them
    (``rhs``, ``low``, ``moves``). First every variable one of whose values
    alone lifts a row's smallest left-hand side above its right-hand side
    is fixed to its other value, which is the start's (the start passed the
    same sums). Then the rows are relaxed with multipliers lam >= 0: for
    each lam, the objective of every assignment that passes the rows is at
    most ``fixed objective + lam . b + sum of the positive reduced costs``,
    ``b`` being each row's right-hand side less its terms fixed to 1. A
    float bound counts only with a slack of 1e-9 of the magnitudes summed
    into it, far above their rounding. The bound is in the model's own
    sense, with the constant; None before the first step."""
    sign = 1.0 if model.sense == "max" else -1.0
    fixed = {}
    for i, raises in enumerate(moves):
        for v, raised in enumerate(raises):
            if any(low[k] + r > rhs[k] for k, r in raised):
                fixed[i] = 1 - v

    # Per row, in variable order: the sum of its terms fixed to 1 and the
    # magnitudes of all its terms; per live variable, its gain and its
    # column, rows ascending, all with <= signs. A free variable with no
    # gain and no negative term is not live: its reduced cost is at most 0
    # at every lam, so the relaxation keeps it at 0 and no column is read.
    # A row with no live term keeps lam = 0: its subgradient is its b, which
    # is not negative, as the start passes the row and its other terms are
    # of variables fixed to 0 or of free ones with no negative term.
    ones = [0] * len(rhs)
    mags = [[] for _ in rhs]
    columns = []
    for i, (c, (down, up)) in enumerate(zip(obj, moves)):
        terms = sorted(chain(up, ((k, -r) for k, r in down)))
        one = fixed.get(i) == 1
        for k, a in terms:
            mags[k].append(abs(a))
            if one:
                ones[k] += a
        if i not in fixed and (sign * c > 0 or down):
            columns.append((sign * c, [k for k, _ in terms], [a for _, a in terms]))
    b = list(map(sub, rhs, ones))
    sizes = [abs(r) + sum(m) for r, m in zip(rhs, mags)]
    base = sign * reduce(add, (obj[i] for i, v in fixed.items() if v), 0.0)
    size0 = abs(base) + sum(map(abs, obj))
    target = sign * start_cur

    lam = [0.0] * len(b)
    best = math.inf
    theta, since, steps = _STEP_SIZE, 0, 0
    verdict = None
    try:
        while True:
            steps = tick(True)
            at = lam.__getitem__
            reduced = [c - sum(map(mul, map(at, rs), cs)) for c, rs, cs in columns]
            bound = base + sum(map(mul, lam, b)) + sum(c for c in reduced if c > 0.0)
            bound += _BOUND_SLACK * (size0 + sum(map(mul, lam, sizes)))
            if bound < best:
                best, since = bound, 0
            else:
                since += 1
                if since % _PATIENCE == 0:
                    theta /= 2.0
            if best < target + q:
                verdict = "optimal"
                break
            if since == 2 * _PATIENCE or not q:  # without a granularity no bound proves
                break                            # the start: one is worked out, for the record
            # the subgradient at lam, each row's slack at the relaxation's
            # optimum, summed over the columns it sets to 1, projected onto lam >= 0
            hits = [[] for _ in b]
            for c, (_, rows, coeffs) in zip(reduced, columns):
                if c > 0.0:
                    for k, a in zip(rows, coeffs):
                        hits[k].append(a)
            grad = [r - sum(h) for r, h in zip(b, hits)]
            grad = [0.0 if m == 0.0 and g > 0.0 else g for m, g in zip(lam, grad)]
            norm = sum(g * g for g in grad)
            if not norm:
                break  # the relaxation's optimum is the bound's: it cannot fall
            t = theta * (bound - target) / norm
            lam = [max(0.0, m - t * g) for m, g in zip(lam, grad)]
    except LimitReachedError:
        verdict = "limit_reached"
    bound = model.constant + sign * best if best < math.inf else None
    return verdict, steps, len(fixed), bound


def _value(best: Optional[float], maximize: bool) -> Optional[float]:
    """The model's objective value of the search's maximized ``best``
    (``0.0 -`` gives 0.0, not -0.0, for a zero)."""
    return best if maximize or best is None else 0.0 - best


def _named(model: IpModel, vec) -> dict:
    """Variable name -> value of a 0/1 vector; empty for None."""
    return {} if vec is None else dict(zip(model.names, vec))


def _solve_for_tags(model: IpModel, limits: Optional[Limits]):
    """Branch-and-bound on ``model``. Returns (tags of the variables set to
    1, or None when the search ended without an assignment; status)."""
    result = solve_branch_and_bound(model, limits=limits)
    if result.objective_value is None:
        return None, result.status
    return list(compress(model.tags, map(result.values.__getitem__, model.names))), result.status


# ---------------------------------------------------------------------------
# LP text emission

_NAME_RE = re.compile(r"[^A-Za-z0-9_]")
_NUMBER_START = frozenset("0123456789eE")  # a name starting so gets a "v_" prefix


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


class _Texts(dict):
    """Value -> ``text(value)``, each distinct value worked out once. Keys
    are values, so equal values must print alike, as equal ints, floats
    and bools do under ``format_number``."""

    def __init__(self, text):
        super().__init__()
        self.text = text

    def __missing__(self, value) -> str:
        text = self[value] = self.text(value)
        return text


def _signed(co) -> str:
    """The text written before a variable's name: ``"+ "``, ``"- "``,
    ``"+ 2.5 "``."""
    mag = abs(co)
    return ("+ " if co > 0 else "- ") + ("" if mag == 1 else f"{format_number(mag)} ")


def _sanitized(raw: list) -> list:
    """``raw`` with every character outside ``[A-Za-z0-9_]`` replaced by
    ``_``; ``raw`` itself when there is none."""
    if _NAME_RE.search("".join(raw)):
        return [_NAME_RE.sub("_", name) for name in raw]
    return raw


def _terms(cols, vals, names: list, signed: _Texts) -> list:
    """Each term's text, ``"+ x"`` or ``"- 2.5 y"``, signed and named in one
    pass over ``vals`` and ``cols``; ``""`` for a zero coefficient, which
    is left out."""
    terms = list(map(add, map(signed.__getitem__, vals), map(names.__getitem__, cols)))
    if not all(vals):
        for k in compress(count(), map(not_, vals)):
            terms[k] = ""
    return terms


def _row_exprs(model: IpModel, names: list, signed: _Texts) -> list:
    """Each row's terms as LP text, a join of its slice of ``_terms``."""
    starts, vals = model.starts, model.vals
    terms = _terms(model.cols, vals, names, signed)
    bounds = zip(starts, starts[1:])
    if all(vals):
        return [" ".join(terms[s:e]).removeprefix("+ ") or "0" for s, e in bounds]
    return [" ".join(filter(None, terms[s:e])).removeprefix("+ ") or "0" for s, e in bounds]


def emit_lp(model: IpModel) -> str:
    """CPLEX-style LP text. Byte-identical for identical models: terms in
    variable order, coefficients at up to 12 significant digits, zero
    terms left out. Names and labels are sanitized to ``[A-Za-z0-9_]``,
    with a ``v_`` prefix on an empty name or one that starts like a number
    and ``c`` for an empty label, then made unique by ``_unique``.

    The model is validated first. Each distinct coefficient's signed text
    and each distinct right-hand side's text is made once (``_Texts``)."""
    model.validate()
    raw = _sanitized(model.names)
    if "" in raw or not _NUMBER_START.isdisjoint(map(itemgetter(0), raw)):
        raw = ["v_" + name if not name or name[0] in _NUMBER_START else name for name in raw]
    names = _unique(raw)
    labels = _sanitized(model.labels)
    if "" in labels:
        labels = [label or "c" for label in labels]
    labels = _unique(labels)
    signed = _Texts(_signed)
    lines = ["\\ binary integer program"]
    lines.append("Maximize" if model.sense == "max" else "Minimize")
    keys = sorted(model.objective)
    terms = _terms(keys, list(map(model.objective.__getitem__, keys)), names, signed)
    constant = model.constant
    if constant:  # one more signed piece, without a name
        terms.append(("+ " if constant > 0 else "- ") + format_number(abs(constant)))
    lines.append(" obj: " + (" ".join(filter(None, terms)).removeprefix("+ ") or "0"))
    lines.append("Subject To")
    lines += map(" {}: {} {} {}".format, labels, _row_exprs(model, names, signed), model.senses,
                 map(_Texts(format_number).__getitem__, model.rhs))
    lines.append("Binary")
    if names:
        lines.append(" " + "\n ".join(names))
    lines.append("End")
    return "\n".join(lines) + "\n"
