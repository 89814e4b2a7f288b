"""Discrete-map action formalism.

A problem instance lives on the integer lattice ``[0..M] x [0..N]``. Unary
predicates applied to lattice points form ground atoms; a state is the set
of atoms currently true. Actions placed at points add atoms (they never
delete), their effect sets are frozen against the initial state, and every
action-point pair carries a cost in ``[0, 1]``. Integrity constraints
forbid executing more than one pair from a declared conflict set whenever
the constraint's condition holds.

All values are immutable after construction and safe to share across
threads. Enumerations of points, atoms and action-point pairs follow one
canonical order everywhere: declaration order major, row-major point order
minor. Solvers depend on that order for deterministic tie-breaking and
represent atom sets as integer bitmasks over the canonical atom indices.

``Problem`` holds what both problem flavours share: the map, predicates,
initial state, actions, cost model, integrity constraints and budget,
their validation, and the cached ``Grounding``. The goal-based and
benefit-maximizing instances subclass it and add only their objective.
``validate_instance_parts`` and ``Grounding`` both take the Problem; the
grounding repeats none of validation's checks.

``Grounding`` builds those bitmask tables without visiting point pairs:
each guard is evaluated once into a point mask, a rule's effect at ``p``
is the metric ball around ``p`` AND the target-guard mask (gated by bit
``p`` of the source-guard mask), and the result is shifted into the
effect predicate's block of atom indices. A rule-form action's block is
filled only on the first read of ``Grounding.effects``, and an explicit
row only then or when it is first read; the goal-based solvers read
``effect`` and ``meeting`` and never fill a rule-form block. Atom and pair
indices are arithmetic (block offset + ``y * (M + 1) + x``), so grounding
keeps no per-atom or per-pair object tables: atoms and pairs are made only
for the indices a caller asks about, and the full lists only on first
use. ``_fits`` (``_fit`` for one value) is the one rule for an index, a
map bound or ``k``, in a document or in code: an int in range, where a
coordinate may be any value equal to an integer (``_integral``). One
indexer, ``item_indices``, kept here so the index formula lives in one
module, turns (name, point) items into those indices item by item:
validation (``check_atoms``), and grounding's lookups of the items its
callers pass in. Each item of an instance is indexed once, by validation;
of several bad items, the least by ``repr`` is named. Every ``Problem``
keeps its initial state as atom indices in a read-only ``AtomSet`` of its
own map and predicates, every explicit row in one ``ExplicitRows`` (three
flat lists), and each explicit effect table as an ``EffectTable`` of its
map and predicates, a view of its action's rows: one of its own is taken
as it is (version-2 and -3 documents carry the indices, range-checked by
the parser, and the rows of a parsed document are kept as the reader's
lists), and any other is indexed once by validation's pass and its rows
copied once into the lists. Validation keeps the rest of what
it indexes too: each override table as (index, value) pairs in index
order, each constraint's pair indices and the goal and forbidden atoms'
indices, ascending. Grounding, the goal masks and the writer read only
those indices. The set-based
functions (``satisfies``, ``action_effects``, ``appl``, ``cost_of``,
``benefit_of``, ``ground_ics_for_state``, ``check_ics``) are reference
semantics only: no solver calls them, and the tests hold the tables and
solvers equal to them.
"""

import math
import sys
from bisect import bisect_left, bisect_right
from collections import defaultdict
from collections.abc import Set
from dataclasses import dataclass, field, fields, replace
from functools import cached_property, reduce
from itertools import accumulate, chain, compress, count, repeat
from operator import or_, sub
from typing import Iterable, Mapping, NamedTuple, Optional, Sequence

from .errors import InstanceError, LimitReachedError


class Point(NamedTuple):
    x: int
    y: int

    def __str__(self):
        return f"({self.x},{self.y})"


class GroundAtom(NamedTuple):
    predicate: str
    point: Point

    def __str__(self):
        return f"{self.predicate}{self.point}"


class ActionPointPair(NamedTuple):
    action: str
    point: Point

    def __str__(self):
        return f"{self.action}@{self.point}"


State = frozenset  # a state is a frozenset of GroundAtom


@dataclass(frozen=True)
class GridMap:
    """Lattice ``[0..width_bound] x [0..height_bound]``; both bounds inclusive."""

    width_bound: int
    height_bound: int

    def __post_init__(self):
        if not (_fit(self.width_bound, math.inf) and _fit(self.height_bound, math.inf)):
            raise InstanceError("map-bounds", "map bounds must be non-negative integers")

    @property
    def n_points(self) -> int:
        return (self.width_bound + 1) * (self.height_bound + 1)

    def contains(self, p: Point) -> bool:
        return self.point_index(p) is not None

    def points(self) -> list:
        """All points in canonical (row-major) order."""
        return [Point(x, y)
                for y in range(self.height_bound + 1)
                for x in range(self.width_bound + 1)]

    def point_index(self, p: Point) -> Optional[int]:
        """Row-major index of ``p``, or None when it is not a map point: off
        the map, or with a coordinate that equals no integer (one that does,
        such as ``True`` or ``1.0``, counts as that integer; see
        ``_integral``)."""
        x, y = p
        if type(x) is not int or type(y) is not int:
            x, y = _integral(x), _integral(y)
            if x is None or y is None:
                return None
        if 0 <= x <= self.width_bound and 0 <= y <= self.height_bound:
            return y * (self.width_bound + 1) + x
        return None

    def box_around(self, p: Point, radius: float) -> list:
        """In-bounds points of the axis-aligned box of the given radius,
        row-major. A superset of every supported metric ball."""
        r = int(math.floor(radius))
        return [Point(x, y)
                for y in range(max(0, p.y - r), min(self.height_bound, p.y + r) + 1)
                for x in range(max(0, p.x - r), min(self.width_bound, p.x + r) + 1)]


# ---------------------------------------------------------------------------
# Formulas

class Formula:
    """Base class for formula nodes; see the concrete node types below."""

    __slots__ = ()


@dataclass(frozen=True)
class TrueFormula(Formula):
    pass


@dataclass(frozen=True)
class AtomFormula(Formula):
    """Predicate applied to a point. ``point=None`` makes this a template
    atom over an implicit point, supplied at evaluation time (used in
    action guards and cost rules)."""

    predicate: str
    point: Optional[Point] = None


@dataclass(frozen=True)
class NotFormula(Formula):
    child: Formula


@dataclass(frozen=True)
class AndFormula(Formula):
    children: tuple


@dataclass(frozen=True)
class OrFormula(Formula):
    children: tuple


TRUE = TrueFormula()


def atom(predicate: str, point: Optional[Point] = None) -> AtomFormula:
    return AtomFormula(predicate, Point(*point) if point is not None else None)


def land(*children: Formula) -> Formula:
    return AndFormula(tuple(children))


def lor(*children: Formula) -> Formula:
    return OrFormula(tuple(children))


def lnot(child: Formula) -> Formula:
    return NotFormula(child)


def satisfies(state: State, formula: Formula, at: Optional[Point] = None) -> bool:
    """Structural satisfaction of ``formula`` in ``state``.

    ``at`` supplies the implicit point for template atoms; evaluating a
    template without it is an error.
    """
    if isinstance(formula, TrueFormula):
        return True
    if isinstance(formula, AtomFormula):
        point = formula.point if formula.point is not None else at
        if point is None:
            raise ValueError(f"template atom {formula.predicate}(.) evaluated without a point")
        return GroundAtom(formula.predicate, point) in state
    if isinstance(formula, NotFormula):
        return not satisfies(state, formula.child, at)
    if isinstance(formula, AndFormula):
        return all(satisfies(state, c, at) for c in formula.children)
    if isinstance(formula, OrFormula):
        return any(satisfies(state, c, at) for c in formula.children)
    raise TypeError(f"not a formula node: {formula!r}")


def formula_atoms(formula: Formula):
    """Yield every AtomFormula leaf (templates included)."""
    if isinstance(formula, AtomFormula):
        yield formula
    elif isinstance(formula, NotFormula):
        yield from formula_atoms(formula.child)
    elif isinstance(formula, (AndFormula, OrFormula)):
        for c in formula.children:
            yield from formula_atoms(c)


def is_ground(formula: Formula) -> bool:
    return all(a.point is not None for a in formula_atoms(formula))


# ---------------------------------------------------------------------------
# Actions

METRICS = ("euclidean", "manhattan", "chebyshev")


def within_distance(metric: str, p: Point, q: Point, bound: float) -> bool:
    dx = abs(p.x - q.x)
    dy = abs(p.y - q.y)
    if metric == "euclidean":
        return dx * dx + dy * dy <= bound * bound
    if metric == "manhattan":
        return dx + dy <= bound
    if metric == "chebyshev":
        return max(dx, dy) <= bound
    raise InstanceError("metric", f"unknown metric {metric!r}")


@dataclass(frozen=True)
class ActionRule:
    """An action: a fixed mapping from placement points to effect atom sets.

    Rule form: placing the action at ``p`` adds ``effect_predicate(q)`` for
    every map point ``q`` such that the initial state satisfies
    ``source_guard`` at ``p`` and ``target_guard`` at ``q``, and
    ``dist(p, q) <= max_distance`` when a distance bound is set.

    Explicit form: ``explicit_effects`` maps placement points directly to
    effect atom sets (missing points mean no effect). Exactly one of the
    two forms may be used.
    """

    name: str
    effect_predicate: Optional[str] = None
    source_guard: Formula = TRUE
    target_guard: Formula = TRUE
    max_distance: Optional[float] = None
    metric: str = "euclidean"
    explicit_effects: Optional[Mapping[Point, frozenset]] = None

    def __post_init__(self):
        rule_form = self.effect_predicate is not None
        explicit = self.explicit_effects is not None
        if rule_form == explicit:
            raise InstanceError(
                "action-form",
                f"action {self.name!r} must use exactly one of effect_predicate / explicit_effects")
        if self.metric not in METRICS:
            raise InstanceError("metric", f"action {self.name!r}: unknown metric {self.metric!r}")
        if self.max_distance is not None:
            if not -math.inf < self.max_distance < math.inf:
                raise InstanceError("distance-not-finite",
                                    f"action {self.name!r}: max_distance {self.max_distance} is not finite")
            if self.max_distance < 0:
                raise InstanceError("distance-negative", f"action {self.name!r}: negative max_distance")

    @classmethod
    def _read(cls, name: str, table: "EffectTable") -> "ActionRule":
        """The explicit action of a name and table a reader has
        checked."""
        rule = object.__new__(cls)
        values = rule.__dict__
        values.update(_RULE_DEFAULTS)
        values["name"], values["explicit_effects"] = name, table
        return rule


# every ActionRule field with its default (``name`` has none, and _read sets it)
_RULE_DEFAULTS = {f.name: f.default for f in fields(ActionRule)}


def action_effects(rule: ActionRule, point: Point, s0: State, grid: GridMap) -> frozenset:
    """Effect atoms of placing ``rule`` at ``point``, judged against ``s0``."""
    if rule.explicit_effects is not None:
        return frozenset(rule.explicit_effects.get(point, ()))
    if not satisfies(s0, rule.source_guard, at=point):
        return frozenset()
    if rule.max_distance is None:
        candidates = grid.points()
    else:
        candidates = grid.box_around(point, rule.max_distance)
    out = []
    for q in candidates:
        if rule.max_distance is not None and not within_distance(rule.metric, point, q, rule.max_distance):
            continue
        if satisfies(s0, rule.target_guard, at=q):
            out.append(GroundAtom(rule.effect_predicate, q))
    return frozenset(out)


def _action_lookup(actions) -> Mapping[str, ActionRule]:
    if isinstance(actions, Mapping):
        return actions
    return {rule.name: rule for rule in actions}


def appl(pairs: Iterable[ActionPointPair], state: State, grid: GridMap, actions,
         s0: Optional[State] = None) -> frozenset:
    """State after executing ``pairs`` in ``state``.

    Effect sets are judged against ``s0`` when given, else against
    ``state`` itself. Solvers always pass the instance's initial state so
    effects stay frozen; with that convention the operation is monotone
    and idempotent in ``pairs``.
    """
    lookup = _action_lookup(actions)
    base = state if s0 is None else s0
    out = set(state)
    for name, point in pairs:
        out |= action_effects(lookup[name], point, base, grid)
    return frozenset(out)


# ---------------------------------------------------------------------------
# Costs and benefits

@dataclass(frozen=True)
class CostModel:
    """Per-pair execution cost in ``[0, 1]``.

    Resolution order: an exact ``(action, point)`` override wins, else the
    first ``state_rules`` entry whose condition holds at the placement
    point (judged against the initial state), else ``default_cost``.
    """

    default_cost: float = 0.0
    state_rules: tuple = ()
    overrides: Mapping[ActionPointPair, float] = field(default_factory=dict)

    def __post_init__(self):
        values = [self.default_cost]
        values += [c for _, c in self.state_rules]
        values += list(self.overrides.values())
        for v in values:
            if not (0.0 <= v <= 1.0):
                raise InstanceError("cost-range", f"cost {v} outside [0, 1]")


def cost_of(pair: ActionPointPair, s0: State, model: CostModel) -> float:
    override = model.overrides.get(pair)
    if override is not None:
        return override
    for condition, value in model.state_rules:
        if satisfies(s0, condition, at=pair.point):
            return value
    return model.default_cost


@dataclass(frozen=True)
class BenefitModel:
    """Non-negative per-atom benefit: an atom override wins, else the
    atom's predicate value, else 0."""

    per_predicate: Mapping[str, float] = field(default_factory=dict)
    per_atom_overrides: Mapping[GroundAtom, float] = field(default_factory=dict)

    def __post_init__(self):
        for v in list(self.per_predicate.values()) + list(self.per_atom_overrides.values()):
            if not (0 <= v < math.inf):
                raise InstanceError("benefit-range", f"benefit {v} is not a finite non-negative number")


def benefit_of(a: GroundAtom, model: BenefitModel) -> float:
    override = model.per_atom_overrides.get(a)
    if override is not None:
        return override
    return model.per_predicate.get(a.predicate, 0.0)


# ---------------------------------------------------------------------------
# Integrity constraints

@dataclass(frozen=True)
class IntegrityConstraint:
    """``pairs`` is the conflict set; when ``condition`` holds in the
    state, at most one member of ``pairs`` may be executed. Conditions
    must be ground."""

    pairs: frozenset
    condition: Formula = TRUE

    def __post_init__(self):
        if not self.pairs:
            raise InstanceError("ic-empty", "integrity constraint with empty pair set")
        if not is_ground(self.condition):
            raise InstanceError("ic-not-ground", "integrity constraint condition must be ground")


def ground_ics_for_state(ics: Sequence[IntegrityConstraint], state: State) -> list:
    """The constraints whose condition holds in ``state``, input order kept."""
    return [ic for ic in ics if satisfies(state, ic.condition)]


def check_ics(state: State, sol: Iterable[ActionPointPair],
              ics: Sequence[IntegrityConstraint]):
    """True plus the empty list when every active constraint admits at most
    one chosen pair, else False plus the violated constraints."""
    chosen = frozenset(sol)
    violated = [ic for ic in ground_ics_for_state(ics, state)
                if len(ic.pairs & chosen) > 1]
    return not violated, violated


# ---------------------------------------------------------------------------
# Canonical enumeration and grounding

def enumerate_ground_atoms(grid: GridMap, predicates: Sequence[str]) -> list:
    """All ground atoms in canonical order: predicate-major, row-major."""
    pts = grid.points()
    return [GroundAtom(pred, p) for pred in predicates for p in pts]


def enumerate_pairs(grid: GridMap, actions: Sequence[ActionRule]) -> list:
    """All action-point pairs in canonical order: action-major, row-major."""
    pts = grid.points()
    return [ActionPointPair(rule.name, p) for rule in actions for p in pts]


def iter_bits(mask: int):
    """Ascending indices of the set bits of ``mask``."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def _mask(indices: Iterable[int]) -> int:
    """The bitmask with the bits of ``indices`` set."""
    mask = 0
    for i in indices:
        mask |= 1 << i
    return mask


def _numeral_mask(indices: Iterable[int], width: int) -> int:
    """``_mask`` of many ``indices``, all in ``range(width)``, read from a
    binary numeral written in a bytearray by C-level passes: linear in
    ``width``, where OR-ing one bit at a time into a growing mask is not."""
    digits = bytearray(b"0") * width  # digit i stands for bit i, reversed below
    for _ in map(digits.__setitem__, indices, repeat(ord("1"))):
        pass
    return int(digits[::-1], 2) if width else 0


# bytes.translate table from the digits of a binary numeral to bit values
_BIT_VALUES = bytes.maketrans(b"01", b"\x00\x01")


def _bits(mask: int, width: int) -> bytes:
    """Bit ``i`` of ``mask`` at position ``i``, for ``i`` in
    ``range(width)``, as one byte 0 or 1 each: a ``compress`` selector."""
    return f"{mask:0{width}b}"[::-1].encode().translate(_BIT_VALUES)


def format_number(x: float) -> str:
    """Up to 12 significant digits; integral values print without a dot."""
    if x == 0:
        x = 0.0
    return f"{x:.12g}"


def _fits(values, count) -> bool:
    """Whether every item of ``values`` (a list, set or dict, read up to
    three times) is an int in ``range(count)``, by C-level passes; ``True``
    and ``1.0`` are not ints here."""
    return not values or (set(map(type, values)) == {int}
                          and min(values) >= 0 and max(values) < count)


def _fit(value, count) -> bool:
    """``_fits`` of the one value ``value``."""
    return type(value) is int and 0 <= value < count


def _integral(v) -> Optional[int]:
    """``v`` as an int when it equals one, else None. Equal numbers are one
    dict key, so ``True``, ``1.0`` and ``numpy.int64(1)`` all name the
    coordinate 1, as they would in a lookup keyed by ``Point(1, ...)``."""
    try:
        i = int(v)
    except (TypeError, ValueError, OverflowError):
        return None
    return i if i == v else None


def sums_exact(counted: Iterable[tuple]) -> bool:
    """Whether every partial sum of a multiset of non-negative numbers, given
    as ``(value, copies)``, is exact in floating point, and so the same in
    any order. Only ints, floats and bools qualify. Every float is dyadic;
    with ``2 ** -e`` the finest step among the values, every partial sum is
    exact when ``sum(value * copies * 2 ** e) < 2 ** 53``."""
    ratios = []
    for value, copies in counted:
        if type(value) not in (int, float, bool):
            return False
        ratios.append((value.as_integer_ratio(), copies))
    e = max((den.bit_length() for (_, den), _ in ratios), default=1) - 1  # den = 2 ** d
    return sum(num * ((1 << e) // den) * copies for (num, den), copies in ratios) < 1 << 53


def block_offsets(names: Iterable[str], grid: GridMap) -> dict:
    """Where each name's block of canonical indices starts on ``grid``: the
    atoms of the ``k``-th predicate, or the pairs of the ``k``-th action,
    are ``k * n_points`` onward, in row-major point order."""
    n_points = grid.n_points
    return {name: k * n_points for k, name in enumerate(names)}


def item_indices(items: Iterable, offsets: Mapping[str, int], grid: GridMap, error) -> list:
    """The canonical index of each (name, point) item, atom or pair, in
    order: ``offsets[name] + grid.point_index(point)``, with ``offsets``
    from ``block_offsets``. This is the lenient indexer, for items built in
    code: ``point_index`` takes a coordinate equal to an integer (``True``,
    ``1.0``) as that integer. Items without an index (an unknown name, a
    point off the map, no (name, point) shape) are collected, and
    ``error(item)`` is raised for the least of them by ``repr``, so the
    item named does not depend on the iteration order of a set."""
    point_index = grid.point_index
    out, bad = [], []
    for item in items:
        try:
            name, point = item
            out.append(offsets[name] + point_index(point))
        except (KeyError, TypeError, ValueError):
            bad.append(item)
    if bad:
        raise error(min(bad, key=repr))
    return out


def _block_point(grid: GridMap, i: int) -> tuple:
    """(block, point) of canonical atom or pair index ``i`` on ``grid``:
    which predicate's or action's block it is in, and where."""
    k, rest = divmod(i, grid.n_points)
    y, x = divmod(rest, grid.width_bound + 1)
    return k, Point(x, y)


class ExplicitRows:
    """Every explicit effect row of an instance, as three flat lists. Row
    ``r`` is the effect of canonical pair ``pairs[r]`` (``k * n_points +
    point`` for action ``k``): the atom indices ``atoms[ends[r - 1]:ends[r]]``
    (from 0 for the first row). Pairs ascend strictly, ends ascend (an
    empty row repeats the end before it, and the last is ``len(atoms)``),
    and each row's atoms ascend strictly. ``Problem.explicit_rows`` holds
    one, and version 3 of the instance format writes it as it is. It
    unpacks and compares as the three lists. ``owner`` is the actions
    tuple whose tables a reader made as views of these rows, until
    validation takes the rows for those very actions and clears it, so no
    reference cycle outlives the parse."""

    __slots__ = ("pairs", "ends", "atoms", "owner")
    _fields = ("pairs", "ends", "atoms")

    def __init__(self, pairs: list, ends: list, atoms: list):
        self.pairs, self.ends, self.atoms, self.owner = pairs, ends, atoms, None

    def __iter__(self):
        return iter((self.pairs, self.ends, self.atoms))

    def __eq__(self, other) -> bool:
        return type(other) is ExplicitRows and tuple(self) == tuple(other)

    __hash__ = None

    def __repr__(self) -> str:
        return f"ExplicitRows(pairs={self.pairs!r}, ends={self.ends!r}, atoms={self.atoms!r})"


class EffectTable(Mapping):
    """A read-only explicit effect table, point -> frozenset of GroundAtom,
    stored as atom indices.

    ``rows`` maps a point's row-major index on ``grid`` to the indices of
    its effect atoms, numbered as ``Grounding`` numbers the atoms of
    ``grid`` and ``predicates``: ``k * n_points + y * (M + 1) + x`` for
    predicate ``k``. The store grows with the entries, not with the map,
    and a point's atom set is built each time it is read. The table equals,
    as a Mapping, the dict of frozensets it stands for. It is the form of
    every ``Problem``'s explicit tables: an instance on the same grid and
    predicates keeps it as it is (``_is_own``), and validation reads any
    other table through this interface into one of its own. The
    constructor copies ``rows``; it refuses any index ``_fits`` refuses.

    A table that a reader or validation made is a view (``_view``) of its
    action's slice of an ``ExplicitRows``, and builds ``rows`` on first
    read."""

    __slots__ = ("grid", "predicates", "_rows", "_part")

    def __init__(self, grid: GridMap, predicates: Sequence[str],
                 rows: Mapping[int, Sequence[int]]):
        self.grid = grid
        self.predicates = tuple(predicates)
        self._rows = dict(rows)
        self._part = None
        if not (_fits(self._rows, grid.n_points) and _fits(
                [*chain.from_iterable(self._rows.values())], grid.n_points * len(self.predicates))):
            raise InstanceError("point-bounds", "effect table index not an int in range")

    @classmethod
    def _view(cls, grid: GridMap, predicates: tuple, flat: ExplicitRows, lo: int, hi: int,
              base: int) -> "EffectTable":
        """The table of rows ``lo`` to ``hi - 1`` of ``flat``, those of the
        pairs ``base`` to ``base + n_points - 1``: its ``_part``."""
        table = object.__new__(cls)
        table.grid, table.predicates, table._rows = grid, predicates, None
        table._part = (flat, lo, hi, base)
        return table

    @property
    def rows(self) -> dict:
        if self._rows is None:
            (pairs, ends, atoms), lo, hi, base = self._part
            starts = [ends[lo - 1] if lo else 0, *ends[lo:hi - 1]]
            self._rows = dict(zip(map(sub, pairs[lo:hi], repeat(base)),
                                  map(atoms.__getitem__, map(slice, starts, ends[lo:hi]))))
        return self._rows

    def __getitem__(self, point) -> frozenset:
        try:
            indices = self.rows[self.grid.point_index(point)]
        except (KeyError, TypeError, ValueError):
            raise KeyError(point) from None
        predicates = self.predicates
        atoms = []
        for i in indices:
            k, p = _block_point(self.grid, i)
            atoms.append(GroundAtom(predicates[k], p))
        return frozenset(atoms)

    def __iter__(self):
        for i in self.rows:
            yield _block_point(self.grid, i)[1]

    def __len__(self) -> int:
        return len(self.rows)

    def __repr__(self) -> str:
        return f"EffectTable({dict(self)!r})"


class AtomSet(Set):
    """A read-only set of GroundAtom, stored as a frozenset of atom indices
    on ``grid`` and ``predicates``, numbered as in ``EffectTable``.
    Membership is index arithmetic; iteration builds atoms in index order.
    It equals and hashes as the frozenset of its atoms, and set operations
    with frozensets give frozensets. It is the form of every ``Problem``'s
    initial state, which an instance on the same grid and predicates keeps
    as it is (``_is_own``). The constructor refuses any index ``_fits``
    refuses; ``_read``, for indices already checked, does not check."""

    __slots__ = ("grid", "predicates", "indices")

    def __init__(self, grid: GridMap, predicates: Sequence[str], indices: Iterable[int]):
        self.grid = grid
        self.predicates = tuple(predicates)
        self.indices = frozenset(indices)
        if not _fits(self.indices, grid.n_points * len(self.predicates)):
            raise InstanceError("point-bounds", "atom index not an int in range")

    @classmethod
    def _read(cls, grid: GridMap, predicates: tuple, indices: frozenset) -> "AtomSet":
        atoms = object.__new__(cls)
        atoms.grid, atoms.predicates, atoms.indices = grid, predicates, indices
        return atoms

    @classmethod
    def _from_iterable(cls, it) -> frozenset:
        return frozenset(it)

    def __contains__(self, item) -> bool:
        # only a (name, (x, y)) tuple can equal an atom
        if not (isinstance(item, tuple) and len(item) == 2 and isinstance(item[1], tuple)):
            return False
        name, point = item
        try:
            k = self.predicates.index(name)
            i = self.grid.point_index(point)
        except ValueError:  # not a predicate, or not two coordinates
            return False
        return i is not None and k * self.grid.n_points + i in self.indices

    def __iter__(self):
        predicates = self.predicates
        for i in sorted(self.indices):
            k, point = _block_point(self.grid, i)
            yield GroundAtom(predicates[k], point)

    def __len__(self) -> int:
        return len(self.indices)

    __hash__ = Set._hash

    def __repr__(self) -> str:
        return f"AtomSet({{{', '.join(map(repr, self))}}})"


def _is_own(view, cls: type, grid: GridMap, predicates: Sequence[str]) -> bool:
    """Whether ``view`` is a ``cls`` (``EffectTable`` or ``AtomSet``) built
    for ``grid`` and ``predicates``: its indices then are this instance's
    atom indices, and its points and atoms this instance's own."""
    return type(view) is cls \
        and (view.grid is grid or view.grid == grid) \
        and (view.predicates is predicates or view.predicates == tuple(predicates))


def check_atoms(items, offsets: Mapping[str, int], grid: GridMap, where: str,
                code: str = "unknown-predicate") -> list:
    """The canonical index of each (name, point) item, atom or pair, in
    order; raise InstanceError unless every item has a name in ``offsets``
    and a point on ``grid``: an unknown name raises ``code``
    ("unknown-predicate" or "unknown-action"), a point off the map
    "point-bounds". One pass through ``item_indices``, which names the
    least bad item."""
    def error(item):
        name, point = item
        if name not in offsets:
            return InstanceError(code, f"{where}: {code.replace('-', ' ')} {name!r}")
        return InstanceError("point-bounds", f"{where}: point {point} outside the map")

    return item_indices(items, offsets, grid, error)


def validate_instance_parts(problem: "Problem") -> None:
    """Cross-checks between the parts of ``problem``; raises InstanceError.

    Atom and pair sets are checked item by item by ``check_atoms`` (an
    action's effect sets entry by entry), except an initial state or
    effect table of this instance's own indices (``_is_own``). Repeated
    action names are found by one set of all the names; only then does a
    loop look for the first repeat, which is reported after the checks of
    the actions before it.

    Keeps on ``problem`` what the checks index (see ``Problem``), and the
    normalised ``s0`` and ``actions``: a state or table that is not this
    instance's ``AtomSet`` or ``EffectTable`` already is kept as the
    indices its check computed, a table as a view of the instance's
    ``explicit_rows`` in a copy of its rule (``_explicit_rows``); the
    actions tuple is rebuilt only when a table was indexed."""
    grid, predicates, actions = problem.grid, problem.predicates, problem.actions
    cost_model, benefit_model = problem.cost_model, getattr(problem, "benefit_model", None)
    problem.atom_offsets = known = block_offsets(predicates, grid)
    if len(known) < len(predicates):  # a name repeats: find the first repeat
        seen = set()
        for name in predicates:
            if name in seen:
                raise InstanceError("predicate-duplicate", f"duplicate predicate {name!r}")
            seen.add(name)

    def check_formula(f: Formula, where: str):
        for leaf in formula_atoms(f):
            if leaf.predicate not in known:
                raise InstanceError("unknown-predicate", f"{where}: unknown predicate {leaf.predicate!r}")
            if leaf.point is not None and grid.point_index(leaf.point) is None:
                raise InstanceError("point-bounds", f"{where}: point {leaf.point} outside the map")

    if not _is_own(problem.s0, AtomSet, grid, predicates):
        problem.s0 = AtomSet._read(grid, predicates, frozenset(
            check_atoms(problem.s0, known, grid, "initial state")))

    names = [rule.name for rule in actions]
    problem.pair_offsets = action_offsets = block_offsets(names, grid)
    first_repeat = None
    if len(set(names)) < len(names):
        seen = set()
        for first_repeat, name in enumerate(names):
            if name in seen:
                break
            seen.add(name)
    shared = _shared_rows(actions, grid, predicates)
    indexed = {}  # position -> the rows of a table that is not this instance's EffectTable
    for pos, rule in enumerate(actions[:first_repeat]):  # those before a repeat are checked first
        if rule.explicit_effects is not None:
            table = rule.explicit_effects
            if shared is not None or _is_own(table, EffectTable, grid, predicates):
                continue  # built from this instance's own map points and predicates
            # the table's points are those of the action's pairs, indexed in a block at 0
            points = check_atoms([(rule.name, p) for p in table], {rule.name: 0}, grid,
                                 f"action {rule.name!r}", "unknown-action")
            effects = list(table.values())
            atoms = check_atoms([a for effect in effects for a in effect], known, grid,
                                f"action {rule.name!r} effects")
            ends = [*accumulate(map(len, effects))]
            indexed[pos] = {i: atoms[start:end] for i, start, end in zip(points, [0, *ends], ends)}
        else:
            if rule.effect_predicate not in known:
                raise InstanceError("unknown-predicate",
                                    f"action {rule.name!r}: unknown effect predicate {rule.effect_predicate!r}")
            check_formula(rule.source_guard, f"action {rule.name!r} source guard")
            check_formula(rule.target_guard, f"action {rule.name!r} target guard")
    if first_repeat is not None:
        raise InstanceError("action-duplicate", f"duplicate action {names[first_repeat]!r}")
    if shared is None:
        shared, views = _explicit_rows(actions, indexed, grid, predicates)
        if views:
            problem.actions = tuple(replace(rule, explicit_effects=views[pos]) if pos in views
                                    else rule for pos, rule in enumerate(actions))
    problem.explicit_rows = shared

    overrides = cost_model.overrides
    problem.cost_override_indices = tuple(sorted(zip(check_atoms(
        overrides, action_offsets, grid, "cost override", "unknown-action"), overrides.values())))
    for condition, _ in cost_model.state_rules:
        check_formula(condition, "cost rule")

    if benefit_model is not None:
        for name in benefit_model.per_predicate:
            if name not in known:
                raise InstanceError("unknown-predicate", f"benefit table: unknown predicate {name!r}")
        overrides = benefit_model.per_atom_overrides
        problem.benefit_override_indices = tuple(sorted(zip(check_atoms(
            overrides, known, grid, "benefit override"), overrides.values())))

    ic_pairs = []
    for i, ic in enumerate(problem.ics):
        ic_pairs.append(tuple(sorted(check_atoms(
            ic.pairs, action_offsets, grid, f"integrity constraint {i}", "unknown-action"))))
        check_formula(ic.condition, f"integrity constraint {i}")  # ground: see IntegrityConstraint
    problem.ic_pair_indices = tuple(ic_pairs)


def _shared_rows(actions: tuple, grid: GridMap, predicates: tuple) -> Optional[ExplicitRows]:
    """The ``ExplicitRows`` whose ``owner`` is ``actions`` itself, and so
    which every explicit table of ``actions`` views, made for ``grid`` and
    ``predicates`` themselves: the rows a reader checked. None otherwise."""
    for rule in actions:
        table = rule.explicit_effects
        if table is not None:
            part = getattr(table, "_part", None)  # a table built in code has none
            if part is not None and part[0].owner is actions \
                    and table.grid is grid and table.predicates is predicates:
                part[0].owner = None
                return part[0]
            return None
    return None


def _explicit_rows(actions: tuple, indexed: dict, grid: GridMap, predicates: tuple) -> tuple:
    """(a new ``ExplicitRows`` of ``actions``' explicit tables, {position:
    a view of those rows} for each table in ``indexed``, the rows
    validation read from a table that was not this instance's own): every
    table's rows are copied into the lists once, with each row's atoms
    sorted."""
    n_points = grid.n_points
    at = [pos for pos, rule in enumerate(actions) if rule.explicit_effects is not None]
    flat = ExplicitRows([], [], [])
    pairs, ends, atoms = flat
    views = {}
    for pos in at:
        rows = indexed[pos] if pos in indexed else actions[pos].explicit_effects.rows
        lo, base = len(pairs), pos * n_points
        for i in sorted(rows):
            pairs.append(base + i)
            atoms += sorted(set(rows[i]))
            ends.append(len(atoms))
        if pos in indexed:
            views[pos] = EffectTable._view(grid, predicates, flat, lo, len(pairs), base)
    return flat, views


def _point_mask(formula: Formula, s0_mask: int, offsets: Mapping[str, int], grid: GridMap,
                full: int) -> int:
    """The points at which ``formula`` holds in the state ``s0_mask``, as a
    mask with one bit per point: the bitmask form of ``satisfies``.

    A template atom is its predicate's block of ``s0_mask`` (``offsets``
    gives where each block starts); a ground atom holds at all points or
    none. ``full`` has every point bit set.
    """
    if isinstance(formula, TrueFormula):
        return full
    if isinstance(formula, AtomFormula):
        offset = offsets[formula.predicate]
        if formula.point is None:
            return s0_mask >> offset & full
        return full if s0_mask >> offset + grid.point_index(formula.point) & 1 else 0
    if isinstance(formula, NotFormula):
        return full & ~_point_mask(formula.child, s0_mask, offsets, grid, full)
    if isinstance(formula, AndFormula):
        mask = full
        for c in formula.children:
            mask &= _point_mask(c, s0_mask, offsets, grid, full)
        return mask
    if isinstance(formula, OrFormula):
        mask = 0
        for c in formula.children:
            mask |= _point_mask(c, s0_mask, offsets, grid, full)
        return mask
    raise TypeError(f"not a formula node: {formula!r}")


def _half_widths(grid: GridMap, metric: str, bound: float) -> list:
    """The half-width of the ball of radius ``bound`` at each row offset
    ``dy = 0, 1, ...``: the largest ``dx`` inside the box of
    ``GridMap.box_around`` with ``(dx, dy)`` within ``bound`` of the origin,
    by ``within_distance`` itself, so the float comparisons and the
    candidates are the ones ``action_effects`` has. The list stops at the
    first offset with no point in the ball, or at the map's extent.

    Every metric is monotone in ``|dx|`` and ``|dy|``, so half-widths never
    grow with ``dy``: each row's scan walks down from the previous row's
    width, and the whole scan makes O(W + R) distance calls, not O(W * R).
    """
    origin = Point(0, 0)
    reach = math.floor(bound)
    dx = min(grid.width_bound, reach)
    out = []
    for dy in range(min(grid.height_bound, reach) + 1):
        while dx >= 0 and not within_distance(metric, origin, Point(dx, dy), bound):
            dx -= 1
        if dx < 0:
            break
        out.append(dx)
    return out


def _ball(grid: GridMap, metric: str, bound: float):
    """Function from a point index ``i`` to the point mask of the map
    points within ``bound`` of point ``i``.

    The ball is one contiguous run of columns per row, of the half-width
    that ``_half_widths`` gives for the row offset ``|dy|``. Offsets stop
    at the map's extent, so a radius larger than the map costs no more
    than one as large as the map.

    With ``R`` the largest row offset, each column ``x`` has one stack: the
    runs around ``x`` for rows ``-R..R``, as a mask of ``2R + 1`` map rows.
    The ball around ``(x, y)`` is that stack moved to start at row
    ``y - R``, with the rows above row 0 shifted out and those below the
    map masked off: one shift and one AND per point. A column's stack is
    built, by halving its rows, the first time a point in that column asks
    for its ball, and kept: a rule with sources in ``c`` columns holds
    ``c`` stacks of ``(2R + 1) * (M + 1)`` bits, so a sparse rule pays for
    the columns it uses and a dense one builds each stack once.
    """
    half_widths = _half_widths(grid, metric, bound)
    width = grid.width_bound + 1
    last_col = grid.width_bound
    full = (1 << grid.n_points) - 1
    r = len(half_widths) - 1
    stack_widths = half_widths[:0:-1] + half_widths  # of rows -R..R
    stacks = {}

    def rows(x: int, lo: int, hi: int) -> int:
        # stack rows lo..hi-1 of column x, from row lo; halving keeps the
        # ORs to about log2(2R + 1) passes over the stack's bits
        if hi - lo == 1:
            h = stack_widths[lo]
            low = max(0, x - h)
            return ((1 << (min(last_col, x + h) - low + 1)) - 1) << low
        mid = (lo + hi) // 2
        return rows(x, lo, mid) | rows(x, mid, hi) << (mid - lo) * width

    def ball(i: int) -> int:
        y, x = divmod(i, width)
        stack = stacks.get(x)
        if stack is None:
            stack = stacks[x] = rows(x, 0, len(stack_widths))
        top = (y - r) * width
        if top >= 0:
            return stack << top & full
        return stack >> -top & full

    return ball


_OF_THIS_INSTANCE = {"unknown-atom": "a ground atom", "unknown-pair": "an action-point pair"}


@dataclass(frozen=True)
class Solution:
    """A selection of action-point pairs and what it reaches. For a
    benefit-maximizing instance it also holds the benefit achieved and the
    guarantee the method reports, when one applies; both stay None for a
    goal-based one."""

    pairs: frozenset
    total_cost: float
    cardinality: int
    final_state: Set
    achieved_benefit: Optional[float] = None
    reported_bound: Optional[float] = None


class Grounding:
    """Canonical index tables plus frozen per-pair effect, cost and benefit
    caches for one validated ``Problem``, whose checks it does not repeat:
    building raises only ``map-size``, for more points or atoms than a mask
    has bits (``sys.maxsize``). Built once, then read-only, but for the
    rule-form blocks of the effect table (below), which the first read of
    ``effects`` fills in place; a second filling writes the same values,
    so a grounding may still be shared across threads.

    Atom sets are integer bitmasks over canonical atom indices, which gives
    O(1) membership and fast union/difference in the solvers' inner loops.

    Indices are arithmetic, not looked up: predicate ``k``'s atom at point
    ``(x, y)`` has index ``k * n_points + y * (M + 1) + x``, and action
    ``k``'s pair at ``(x, y)`` the same in the pair order. So grounding
    builds no per-atom or per-pair objects: ``atom_at``/``pair_at`` and
    ``mask_atoms`` make objects only for the indices they are asked for,
    ``atom_names``/``pair_names`` make the integer programs' names from the
    indices alone, ``atoms_to_mask`` and ``pairs_to_indices`` serve only
    the items callers pass in (the instance's own come indexed from
    validation), and the full ``pairs`` list is built on first use, for
    the callers that need every pair. The initial state's indices (the
    Problem's ``AtomSet``) give ``s0_mask``, and each solution's final
    state is an ``AtomSet`` too.

    Effects and costs are derived with mask algebra, never per pair, and
    written in place: the effect table is allocated once, ``n_pairs``
    zeros, and action ``k``'s effect at point ``i`` is set at
    ``k * n_points + i``:

    * every guard (source, target, cost-rule and constraint condition) is
      evaluated once into a point mask, one bit per map point in row-major
      order (``_point_mask``);
    * a rule-form action placed at ``p`` whose source mask has bit ``p``
      gets the metric ball around ``p`` AND the target mask, shifted into
      the effect predicate's block of atom indices; ``_ball`` makes each
      ball with one shift of a per-column mask, and without a distance
      bound the ball is the whole map;
    * a pair's cost is its override, else the value of the first cost rule
      whose condition mask has bit ``p``, else the default; ``cost_classes``
      keeps the point mask of each distinct cost before overrides;
    * an explicit row, one of the Problem's ``ExplicitRows``, holds atom
      indices, and its pair's mask is set from them.

    A rule-form block keeps its source and target masks and its ball, and
    is filled, with every explicit row, only when a caller first reads
    ``effects``: the benefit solvers and any caller that folds over every
    pair. The goal-based solvers read ``effect(i)``, one pair's effect, and
    ``meeting(mask)``, the pairs whose effects meet a few goal or forbidden
    atoms, which a rule-form block answers from the balls around those
    atoms and the explicit rows from their flat atom list; so their work
    and memory grow with the goals, not with pairs times atoms. An
    explicit row's mask is built when one of these first returns it, and
    kept as its entry of the table; once every row is in and no
    rule-form block waits, the table counts as full.

    Benefits are grouped the same way: each predicate's block plus the
    overridden atoms give ``benefit_classes``, one atom mask per distinct
    benefit, over which ``benefit_sum`` counts bits instead of walking them.

    The set-based functions (``satisfies``, ``action_effects``, ``cost_of``,
    ``benefit_of``) remain the reference semantics these tables must equal.
    """

    def __init__(self, problem: "Problem"):
        self.grid = grid = problem.grid
        self.predicates = problem.predicates
        self.actions = problem.actions
        self.n_points = n_points = grid.n_points
        self.n_atoms = n_points * len(self.predicates)
        self.n_pairs = n_points * len(self.actions)
        if max(n_points, self.n_atoms) > sys.maxsize:
            raise InstanceError("map-size", f"{n_points} points are too many for one bit mask")
        self.atom_offsets = offsets = problem.atom_offsets
        self.pair_offsets = problem.pair_offsets
        self._pairs = None  # built on first use

        self.s0 = problem.s0
        self.s0_mask = _numeral_mask(self.s0.indices, self.n_atoms)
        full = (1 << n_points) - 1

        def where(formula: Formula) -> int:
            return _point_mask(formula, self.s0_mask, offsets, grid, full)

        self._effects = [0] * self.n_pairs
        self._rows = problem.explicit_rows
        # action k -> (source, target, shift, ball) of a rule-form block not
        # yet in the table; ball is None without a distance bound
        self._unfilled = {
            k: (where(rule.source_guard), where(rule.target_guard),
                offsets[rule.effect_predicate],
                None if rule.max_distance is None else _ball(grid, rule.metric, rule.max_distance))
            for k, rule in enumerate(self.actions) if rule.explicit_effects is None}
        self._rule_blocks = tuple(self._unfilled)
        self._filled = not (self._unfilled or self._rows.pairs)

        default_cost = problem.cost_model.default_cost
        point_costs = [default_cost] * n_points
        classes = {}  # cost -> the points that have it
        unresolved = full
        for condition, value in problem.cost_model.state_rules:
            hit = where(condition) & unresolved
            for i in compress(range(n_points), _bits(hit, n_points)):
                point_costs[i] = value
            classes[value] = classes.get(value, 0) | hit
            unresolved &= ~hit
        classes[default_cost] = classes.get(default_cost, 0) | unresolved
        self.cost_classes = [(value, points) for value, points in classes.items() if points]
        self.costs = point_costs * len(self.actions)
        for i, value in problem.cost_override_indices:
            self.costs[i] = value

        benefit_model = getattr(problem, "benefit_model", None)  # a flavour's own part
        if benefit_model is None:
            self.benefits = self.benefit_classes = None
        else:
            per_predicate = benefit_model.per_predicate
            block_values = [per_predicate.get(pred, 0.0) for pred in self.predicates]
            self.benefits = [value for value in block_values for _ in range(n_points)]
            for i, value in problem.benefit_override_indices:
                self.benefits[i] = value
            overridden = {i for i, _ in problem.benefit_override_indices}
            self.benefit_classes = self._benefit_classes(block_values, overridden)

        # Constraints active in the initial state, as (position in ics, pair
        # index set); plus the inverse map from pair index to positions.
        # Conditions are ground, so their point mask is all points or none.
        self.ic_s0 = [(pos, frozenset(members))
                      for pos, (ic, members) in enumerate(zip(problem.ics, problem.ic_pair_indices))
                      if where(ic.condition)]
        self.pair_ics = [()] * self.n_pairs
        for j, (_, members) in enumerate(self.ic_s0):
            for i in members:
                self.pair_ics[i] += (j,)

    def _indices(self, offsets: Mapping[str, int], items: Iterable, code: str) -> list:
        """``item_indices`` of (name, point) items among the blocks that
        ``offsets`` starts; one not of this instance raises InstanceError
        ``code``."""
        return item_indices(items, offsets, self.grid, lambda item: InstanceError(
            code, f"not {_OF_THIS_INSTANCE[code]} of this instance: {item}"))

    def atoms_to_mask(self, atoms: Iterable[GroundAtom]) -> int:
        return _mask(self._indices(self.atom_offsets, atoms, "unknown-atom"))

    def pairs_to_indices(self, pairs: Iterable[ActionPointPair]) -> list:
        return sorted(self._indices(self.pair_offsets, pairs, "unknown-pair"))

    def atom_at(self, i: int) -> GroundAtom:
        """The ground atom of canonical index ``i``."""
        k, point = _block_point(self.grid, i)
        return GroundAtom(self.predicates[k], point)

    def pair_at(self, i: int) -> ActionPointPair:
        """The action-point pair of canonical index ``i``."""
        k, point = _block_point(self.grid, i)
        return ActionPointPair(self.actions[k].name, point)

    def mask_atoms(self, mask: int) -> tuple:
        return tuple(map(self.atom_at, iter_bits(mask)))

    def atom_names(self, prefix: str, indices: Iterable[int]) -> list:
        """``<prefix>_<predicate>_<x>_<y>`` of each canonical atom index."""
        return self._names(prefix, self.predicates, indices)

    def pair_names(self, prefix: str, indices: Iterable[int]) -> list:
        """``<prefix>_<action>_<x>_<y>`` of each canonical pair index."""
        return self._names(prefix, [rule.name for rule in self.actions], indices)

    def _names(self, prefix: str, blocks: Sequence[str], indices: Iterable[int]) -> list:
        # the arithmetic of ``_block_point``, with no item built: index i is
        # in block i // n_points, at x = i % (M + 1) (n_points is a multiple
        # of M + 1) and y = i % n_points // (M + 1)
        n_points, width = self.n_points, self.grid.width_bound + 1
        heads = [f"{prefix}_{name}_" for name in blocks]
        xs = [f"{x}_" for x in range(width)]
        ys = [str(y) for y in range(self.grid.height_bound + 1)]
        return [heads[i // n_points] + xs[i % width] + ys[i % n_points // width] for i in indices]

    @property
    def pairs(self) -> list:
        """Every action-point pair in canonical order, built on first use."""
        if self._pairs is None:
            self._pairs = enumerate_pairs(self.grid, self.actions)
        return self._pairs

    @property
    def effects(self) -> list:
        """Every pair's effect mask, in canonical pair order. The first read
        fills the explicit rows and the rule-form blocks; a caller that
        folds over every pair reads this once, and one that asks about a
        few pairs or atoms calls ``effect`` or ``meeting`` instead."""
        if not self._filled:
            effects, n_points = self._effects, self.n_points
            self._fill_rows()
            for k, (source, target, shift, ball) in self._unfilled.items():
                base = k * n_points
                if ball is None:
                    shifted = target << shift  # one int shared by every source point
                    for i in iter_bits(source):
                        effects[base + i] = shifted
                else:
                    for i in iter_bits(source):
                        effects[base + i] = (ball(i) & target) << shift
            # every entry is written before a reader can see the table as full
            self._filled = True
            self._unfilled = {}
        return self._effects

    def _fill_rows(self) -> None:
        """Write every explicit row's mask into the table."""
        effects, (pairs, ends, atoms) = self._effects, self._rows
        for i, start, end in zip(pairs, [0, *ends], ends):
            effects[i] = _mask(atoms[start:end])

    def effect(self, i: int) -> int:
        """The effect mask of pair ``i``: from the table once it is full,
        and before that from the pair's explicit row or rule."""
        if self._filled:
            return self._effects[i]
        k, p = divmod(i, self.n_points)
        rule = self._unfilled.get(k)
        if rule is not None:
            source, target, shift, ball = rule
            if not source >> p & 1:
                return 0
            return (target if ball is None else ball(p) & target) << shift
        # a row read before, or a rule-form block filled since the test above
        if self._effects[i]:
            return self._effects[i]
        pairs = self._rows.pairs
        r = bisect_left(pairs, i)
        return self._row_masks((r,))[0] if r < len(pairs) and pairs[r] == i else 0

    def meeting(self, mask: int) -> dict:
        """``{i: effect(i) & mask}`` for every pair whose effect meets
        ``mask``, in ascending pair order.

        Once the table is full, it is scanned in C-level passes. Before
        that, the explicit rows are found by testing the flat atom list
        against the mask's atoms and bisecting the row ends, and a rule-form
        block is read from the atoms of ``mask``: its pairs that reach
        target atom ``q`` are its sources in ``ball(q)``, since every
        metric's ball is symmetric. So the work is the mask's atoms times
        the ball, plus one pass over the explicit atoms, not the pairs. A
        mask that holds every explicit atom meets every row, so all rows are
        read at once, and the table is full when no rule-form block waits."""
        if not mask:
            return {}
        if self._filled:
            return self._scan({}, mask, 0, self.n_pairs)
        pairs, ends, atoms = self._rows
        wanted = set(iter_bits(mask)) if pairs else set()
        if pairs and wanted.issuperset(atoms):
            self._fill_rows()
            if not self._unfilled:
                self._filled = True
                return self._scan({}, mask, 0, self.n_pairs)
            rows = range(len(pairs))
        else:  # the rows of the atoms that the mask holds, ascending
            rows = [*dict.fromkeys(map(bisect_right, repeat(ends),
                                       compress(count(), map(wanted.__contains__, atoms))))]
        hits = list(map(mask.__and__, self._row_masks(rows)))
        out = dict(zip(compress(map(pairs.__getitem__, rows), hits), filter(None, hits)))
        unfilled = self._unfilled
        ruled, n_points = {}, self.n_points
        for k in self._rule_blocks:
            base = k * n_points
            rule = unfilled.get(k)
            if rule is None:  # filled since the test above
                self._scan(ruled, mask, base, base + n_points)
                continue
            source, target, shift, ball = rule
            local = mask >> shift & target  # the target points of the mask's atoms
            if not local:
                continue
            if ball is None:
                ruled.update(zip(map(base.__add__, iter_bits(source)), repeat(local << shift)))
                continue
            reach = 0
            for q in iter_bits(local):
                reach |= ball(q)
            for p in iter_bits(reach & source):
                ruled[base + p] = (ball(p) & local) << shift
        if out and ruled:
            return dict(sorted({**out, **ruled}.items()))
        return out or ruled

    def _row_masks(self, rows: Iterable[int]) -> list:
        """The masks of the explicit rows ``rows``, each built on its first
        read and kept as its pair's entry of the table, which the full
        table holds too."""
        pairs, ends, atoms = self._rows
        effects, out = self._effects, []
        for r in rows:
            mask = effects[pairs[r]]
            if not mask:
                mask = effects[pairs[r]] = _mask(atoms[ends[r - 1] if r else 0:ends[r]])
            out.append(mask)
        return out

    def _scan(self, out: dict, mask: int, start: int, end: int) -> dict:
        """Add ``{i: effects[i] & mask}`` to ``out`` for the pairs ``start``
        to ``end - 1`` of the table that meet ``mask``, in C-level passes;
        return ``out``."""
        hits = list(map(mask.__and__, self._effects[start:end]))
        out.update(zip(compress(range(start, end), hits), filter(None, hits)))
        return out

    def union_effects(self, indices: Iterable[int]) -> int:
        return reduce(or_, map(self.effect, indices), 0)

    def producers(self, indices: Sequence[int], mask: int) -> dict:
        """Atom index -> the positions within ``indices`` (ascending) of the
        pairs whose effects hold that atom, for every atom of ``mask`` that
        one of them holds, in ascending atom order; atoms no pair produces
        are left out. A builder whose variable ``j`` selects pair
        ``indices[j]`` takes each list as its cover row's variables,
        already ascending.

        Once the table holds every block, one pass walks the pairs' effect
        bits inside ``mask``; before that, the pairs are those of
        ``meeting(mask)``, each found among ``indices`` by bisection, so a
        goal-based program grounds no rule-form block. Either way the work
        is the entries, not atoms times pairs, for a dense mask (every atom
        outside the initial state) as for a sparse one."""
        if not self._filled:
            n = len(indices)
            hits = ((bisect_left(indices, i), i, hit) for i, hit in self.meeting(mask).items())
            found = ((pos, hit) for pos, i, hit in hits if pos < n and indices[pos] == i)
        else:
            found = zip(count(), map(mask.__and__, map(self._effects.__getitem__, indices)))
        out = defaultdict(list)
        for pos, hit in found:
            while hit:  # most pairs miss a small mask and skip the loop
                low = hit & -hit
                out[low.bit_length() - 1].append(pos)
                hit ^= low
        return {atom: out[atom] for atom in sorted(out)}

    def cost_sum(self, indices: Iterable[int]) -> float:
        costs = self.costs
        return sum(costs[i] for i in sorted(indices))

    def _benefit_classes(self, block_values: Sequence, overridden: set) -> Optional[list]:
        """``(value, mask)`` per distinct benefit, from the predicates' blocks
        and the overridden atoms; None unless every partial sum of benefits
        is exact.

        Classes are keyed by value and by whether it is a float, so ``1``
        and ``1.0`` stay apart and a ``0.0`` class is kept: a popcount sum
        then has the bit loop's type as well as its value. Exactness is
        ``sums_exact`` over every atom's benefit."""
        n_points = self.n_points
        block = (1 << n_points) - 1
        free = ~sum(1 << i for i in overridden)
        items = [(value, (block << k * n_points) & free) for k, value in enumerate(block_values)]
        items += [(self.benefits[i], 1 << i) for i in overridden]
        values, masks = {}, {}
        for value, mask in items:
            key = (type(value) is float, value)
            values.setdefault(key, value)
            masks[key] = masks.get(key, 0) | mask
        classes = [(values[key], mask) for key, mask in masks.items()]
        if not sums_exact((value, mask.bit_count()) for value, mask in classes):
            return None
        return [(value, mask) for value, mask in classes if mask]

    def benefit_sum(self, mask: int) -> float:
        """Summed benefit of the atoms of ``mask``: the sum over its set bits
        in ascending order. When that sum is exact (``benefit_classes`` is
        not None) it is taken by popcount, ``sum(value * popcount(mask &
        members))`` over the classes the mask meets, which gives the same
        number of the same type; otherwise (benefits such as 0.1) the bits
        are summed in order."""
        classes = self.benefit_classes
        if classes is None:
            benefits = self.benefits
            return sum(benefits[i] for i in iter_bits(mask))
        total = 0
        for value, members in classes:
            count = (mask & members).bit_count()
            if count:
                total += value * count
        return total

    def conflicts(self, indices) -> list:
        """(position in ics, chosen members in ascending order) for each
        constraint active in the initial state that more than one of the
        selected pair indices belongs to."""
        chosen = set(indices)
        out = []
        for pos, members in self.ic_s0:
            overlap = members & chosen
            if len(overlap) > 1:
                out.append((pos, sorted(overlap)))
        return out

    def search(self, candidates: Sequence[int], budget: float, max_size: int,
               limits, visit, best=lambda: None) -> None:
        """Depth-first walk over the subsets of pair indices ``candidates``
        within ``budget``, ``max_size`` and the active integrity constraints.
        Each is visited once, prefixes first and siblings in ``candidates``
        order, by ``visit(chosen, mask, pos)`` (its pairs as taken,
        ``s0_mask`` plus their effects, where extensions start), and
        extended only if that returns true. Each visit is one node against
        ``limits`` (None: no limit); a limit is raised with the size reached
        and, as its ``best``, the selection of ``best()``, the driver's best
        pair indices so far (or None). The budget test agrees with
        validation exactly: costs are kept as a running sum where that is
        the sum ``cost_sum`` takes in canonical order, when the candidates
        ascend or every partial sum of their costs is exact, and are summed
        again in canonical order otherwise."""
        tick = (lambda: None) if limits is None else limits._counter()
        effects = list(map(self.effect, candidates))
        costs = [self.costs[i] for i in candidates]
        running = (all(a < b for a, b in zip(candidates, candidates[1:]))
                   or sums_exact(zip(costs, repeat(1))))
        occupies = [sum(1 << j for j in self.pair_ics[i]) for i in candidates]
        n = len(candidates)
        chosen = []
        try:
            tick()
            if not visit(chosen, self.s0_mask, 0) or max_size < 1:
                return
            # per subset being extended: remaining positions, cost, mask, occupancy
            stack = [(iter(range(n)), 0.0, self.s0_mask, 0)]
            while stack:
                rest, cost, mask, occupied = stack[-1]
                for j in rest:
                    total = cost + costs[j] if running else self.cost_sum([*chosen, candidates[j]])
                    if total > budget or occupied & occupies[j]:
                        continue
                    chosen.append(candidates[j])
                    tick()
                    grown = mask | effects[j]
                    if visit(chosen, grown, j + 1) and len(chosen) < max_size and j + 1 < n:
                        stack.append((iter(range(j + 1, n)), total, grown, occupied | occupies[j]))
                        break
                    chosen.pop()
                else:
                    stack.pop()
                    if chosen:
                        chosen.pop()
        except LimitReachedError as err:
            found = best()
            raise LimitReachedError(f"{err.message} at size {len(chosen)}",
                                    None if found is None else self._selection(found)) from None

    def _selection(self, indices) -> Solution:
        """The solution of the selected pair indices. Its final state is the
        initial one plus the bits the pairs add, an AtomSet; its benefit is
        filled in when this grounding has benefits."""
        indices = sorted(indices)
        final_mask = self.s0_mask | self.union_effects(indices)
        added = final_mask & ~self.s0_mask
        return Solution(pairs=frozenset(map(self.pair_at, indices)),
                        total_cost=self.cost_sum(indices), cardinality=len(indices),
                        final_state=AtomSet._read(self.grid, self.predicates,
                                                  self.s0.indices.union(iter_bits(added))),
                        achieved_benefit=None if self.benefits is None
                        else self.benefit_sum(final_mask))


@dataclass(eq=False)
class Problem:
    """The parts of an instance both problem flavours share, normalised to
    tuples and frozensets and validated on construction, with their
    ``Grounding`` built on first use. Subclasses add their objective's
    fields and checks after calling ``__post_init__``; a flavour's benefit
    table, its ``benefit_model``, is validated and grounded here too.
    ``s0`` is an AtomSet of this grid and these predicates, and each
    explicit action's table an EffectTable of them: one given is kept as
    it is, and any other is kept as the indices that validation reads it
    into, a table in a copy of its action (``validate_instance_parts``).
    Validation keeps the rest of what it indexes: ``explicit_rows``, every
    explicit row of the instance (``ExplicitRows``), ``atom_offsets`` and
    ``pair_offsets``, ``cost_override_indices`` and (with a benefit table)
    ``benefit_override_indices`` as (index, value) pairs in index order,
    and ``ic_pair_indices``, and a goal-based instance ``theta_in_indices``
    and ``theta_out_indices``, ascending."""

    grid: GridMap
    predicates: tuple
    s0: Set
    actions: tuple
    cost_model: CostModel
    ics: tuple
    budget: float

    def __post_init__(self):
        self.predicates = tuple(self.predicates)
        self.actions = tuple(self.actions)
        self.ics = tuple(self.ics)
        validate_instance_parts(self)
        self._check_budget()

    def _check_budget(self):
        if not (0 <= self.budget < math.inf):
            raise InstanceError("budget-range", "budget must be a finite non-negative number")

    @cached_property
    def grounding(self) -> Grounding:
        return Grounding(self)
