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

``Grounding`` builds those bitmask tables without visiting point pairs:
each guard is evaluated once into a point mask, a rule's effect at ``p``
is the metric ball around ``p`` AND the target-guard mask (gated by bit
``p`` of the source-guard mask), and the result is shifted into the
effect predicate's block of atom indices. The set-based functions
(``satisfies``, ``action_effects``, ``appl``, ``cost_of``, ``benefit_of``,
``ground_ics_for_state``, ``check_ics``) are reference semantics only: no
solver calls them, and the tests hold the tables and solvers equal to them.
"""

import math
from dataclasses import dataclass, field
from functools import cached_property
from typing import Iterable, Mapping, NamedTuple, Optional, Sequence

from .errors import InstanceError


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
        if self.width_bound < 0 or self.height_bound < 0:
            raise InstanceError("map-bounds", "map bounds must be non-negative")

    @property
    def n_points(self) -> int:
        return (self.width_bound + 1) * (self.height_bound + 1)

    def contains(self, p: Point) -> bool:
        return 0 <= p.x <= self.width_bound and 0 <= p.y <= self.height_bound

    def points(self) -> list:
        """All points in canonical (row-major) order."""
        return [Point(x, y)
                for y in range(self.height_bound + 1)
                for x in range(self.width_bound + 1)]

    def point_index(self, p: Point) -> int:
        return p.y * (self.width_bound + 1) + p.x

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


def format_number(x: float) -> str:
    """Up to 12 significant digits; integral values print without a dot."""
    if x == 0:
        x = 0.0
    return f"{x:.12g}"


def validate_instance_parts(grid: GridMap, predicates: Sequence[str], s0: State,
                            actions: Sequence[ActionRule], cost_model: CostModel,
                            ics: Sequence[IntegrityConstraint],
                            benefit_model: Optional[BenefitModel] = None) -> None:
    """Cross-checks between the parts of an instance; raises InstanceError."""
    known = set()
    for name in predicates:
        if name in known:
            raise InstanceError("predicate-duplicate", f"duplicate predicate {name!r}")
        known.add(name)

    def check_atom(a: GroundAtom, where: str):
        if a.predicate not in known:
            raise InstanceError("unknown-predicate", f"{where}: unknown predicate {a.predicate!r}")
        if not grid.contains(a.point):
            raise InstanceError("point-bounds", f"{where}: point {a.point} outside the map")

    def check_formula(f: Formula, where: str, require_ground: bool = False):
        for leaf in formula_atoms(f):
            if leaf.predicate not in known:
                raise InstanceError("unknown-predicate", f"{where}: unknown predicate {leaf.predicate!r}")
            if leaf.point is not None and not grid.contains(leaf.point):
                raise InstanceError("point-bounds", f"{where}: point {leaf.point} outside the map")
            if require_ground and leaf.point is None:
                raise InstanceError("ic-not-ground", f"{where}: template atom in a ground context")

    for a in s0:
        check_atom(a, "initial state")

    action_names = set()
    for rule in actions:
        if rule.name in action_names:
            raise InstanceError("action-duplicate", f"duplicate action {rule.name!r}")
        action_names.add(rule.name)
        if rule.explicit_effects is not None:
            for p, effect in rule.explicit_effects.items():
                if not grid.contains(p):
                    raise InstanceError("point-bounds", f"action {rule.name!r}: point {p} outside the map")
                for a in effect:
                    check_atom(a, f"action {rule.name!r} effects")
        else:
            if rule.effect_predicate not in known:
                raise InstanceError("unknown-predicate",
                                    f"action {rule.name!r}: unknown effect predicate {rule.effect_predicate!r}")
            check_formula(rule.source_guard, f"action {rule.name!r} source guard")
            check_formula(rule.target_guard, f"action {rule.name!r} target guard")

    def check_pair(pair: ActionPointPair, where: str):
        if pair.action not in action_names:
            raise InstanceError("unknown-action", f"{where}: unknown action {pair.action!r}")
        if not grid.contains(pair.point):
            raise InstanceError("point-bounds", f"{where}: point {pair.point} outside the map")

    for pair in cost_model.overrides:
        check_pair(pair, "cost override")
    for condition, _ in cost_model.state_rules:
        check_formula(condition, "cost rule")

    if benefit_model is not None:
        for name in benefit_model.per_predicate:
            if name not in known:
                raise InstanceError("unknown-predicate", f"benefit table: unknown predicate {name!r}")
        for a in benefit_model.per_atom_overrides:
            check_atom(a, "benefit override")

    for i, ic in enumerate(ics):
        for pair in ic.pairs:
            check_pair(pair, f"integrity constraint {i}")
        check_formula(ic.condition, f"integrity constraint {i}", require_ground=True)


def _point_mask(formula: Formula, s0_mask: int, offsets: Mapping[str, int],
                atom_index: Mapping[GroundAtom, int], full: int) -> int:
    """The points at which ``formula`` holds in the state ``s0_mask``, as a
    mask with one bit per point: the bitmask form of ``satisfies``.

    A template atom is its predicate's block of ``s0_mask`` (``offsets``
    gives where each block starts); a ground atom holds at all points or
    none. ``full`` has every point bit set.
    """
    if isinstance(formula, TrueFormula):
        return full
    if isinstance(formula, AtomFormula):
        if formula.point is None:
            offset = offsets.get(formula.predicate)
            return 0 if offset is None else s0_mask >> offset & full
        i = atom_index.get(GroundAtom(formula.predicate, formula.point))
        return full if i is not None and s0_mask >> i & 1 else 0
    if isinstance(formula, NotFormula):
        return full & ~_point_mask(formula.child, s0_mask, offsets, atom_index, full)
    if isinstance(formula, AndFormula):
        mask = full
        for c in formula.children:
            mask &= _point_mask(c, s0_mask, offsets, atom_index, full)
        return mask
    if isinstance(formula, OrFormula):
        mask = 0
        for c in formula.children:
            mask |= _point_mask(c, s0_mask, offsets, atom_index, full)
        return mask
    raise TypeError(f"not a formula node: {formula!r}")


def _ball(grid: GridMap, metric: str, bound: float):
    """Function from a point ``p`` to the point mask of the map points
    within ``bound`` of ``p``.

    The ball is one contiguous run of columns per row. The run's
    half-width at each row offset ``|dy|`` comes from ``within_distance``
    on the offset itself, called once per offset inside the box of
    ``GridMap.box_around``, so the float comparisons and the candidates
    are the ones ``action_effects`` has. Offsets also stop at the map's
    extent, so a radius larger than the map costs no more than one as
    large as the map.
    """
    origin = Point(0, 0)
    reach = math.floor(bound)
    max_dx = min(grid.width_bound, reach)
    half_widths = []
    for dy in range(min(grid.height_bound, reach) + 1):
        dx = -1
        while dx < max_dx and within_distance(metric, origin, Point(dx + 1, dy), bound):
            dx += 1
        if dx < 0:
            break  # the metrics are monotone in |dy| too
        half_widths.append(dx)
    width = grid.width_bound + 1
    last_row = grid.height_bound
    last_col = grid.width_bound
    # runs[h][x]: the row mask of the columns within h of column x
    runs = {h: [((1 << (min(last_col, x + h) - max(0, x - h) + 1)) - 1) << max(0, x - h)
                for x in range(width)]
            for h in set(half_widths)}
    rows = [(dy, runs[h]) for dy, h in enumerate(half_widths)]

    def ball(p: Point) -> int:
        mask = 0
        for dy, run in rows:
            segment = run[p.x]
            if p.y >= dy:
                mask |= segment << ((p.y - dy) * width)
            if dy and p.y + dy <= last_row:
                mask |= segment << ((p.y + dy) * width)
        return mask

    return ball


class Grounding:
    """Canonical index tables plus frozen per-pair effect, cost and benefit
    caches for one instance. Built once, then read-only.

    Atom sets are integer bitmasks over canonical atom indices, which gives
    O(1) membership and fast union/difference in the solvers' inner loops.

    Effects and costs are derived with mask algebra, never per pair:

    * every guard (source, target, cost-rule and constraint condition) is
      evaluated once into a point mask, one bit per map point in row-major
      order (``_point_mask``);
    * a rule-form action placed at ``p`` whose source mask has bit ``p``
      gets the metric ball around ``p`` (``_ball``) AND the target mask,
      shifted into the effect predicate's block of atom indices; without a
      distance bound the ball is the whole map;
    * a pair's cost is its override, else the value of the first cost rule
      whose condition mask has bit ``p``, else the default.

    The set-based functions (``satisfies``, ``action_effects``, ``cost_of``,
    ``benefit_of``) remain the reference semantics these tables must equal.
    """

    def __init__(self, grid: GridMap, predicates: Sequence[str], s0: State,
                 actions: Sequence[ActionRule], cost_model: CostModel,
                 ics: Sequence[IntegrityConstraint],
                 benefit_model: Optional[BenefitModel] = None):
        self.grid = grid
        self.predicates = tuple(predicates)
        self.actions = tuple(actions)
        self.points = points = grid.points()
        n_points = len(points)

        self.atoms = [GroundAtom(pred, p) for pred in self.predicates for p in points]
        self.atom_index = {a: i for i, a in enumerate(self.atoms)}
        self.n_atoms = len(self.atoms)

        self.pairs = [ActionPointPair(rule.name, p) for rule in self.actions for p in points]
        self.pair_index = {p: i for i, p in enumerate(self.pairs)}

        self.s0_mask = self.atoms_to_mask(s0)

        offsets = {pred: k * n_points for k, pred in enumerate(self.predicates)}
        full = (1 << n_points) - 1

        def where(formula: Formula) -> int:
            return _point_mask(formula, self.s0_mask, offsets, self.atom_index, full)

        self.effects = []
        for rule in self.actions:
            if rule.explicit_effects is not None:
                table = rule.explicit_effects
                self.effects += [self.atoms_to_mask(table.get(p, ())) for p in points]
                continue
            source = where(rule.source_guard)
            target = where(rule.target_guard)
            shift = offsets[rule.effect_predicate]
            row = [0] * n_points
            if rule.max_distance is None:
                for i in iter_bits(source):
                    row[i] = target << shift
            else:
                ball = _ball(grid, rule.metric, rule.max_distance)
                for i in iter_bits(source):
                    row[i] = (ball(points[i]) & target) << shift
            self.effects += row

        point_costs = [cost_model.default_cost] * n_points
        unresolved = full
        for condition, value in cost_model.state_rules:
            hit = where(condition) & unresolved
            for i in iter_bits(hit):
                point_costs[i] = value
            unresolved &= ~hit
        self.costs = point_costs * len(self.actions)
        for pair, value in cost_model.overrides.items():
            i = self.pair_index.get(pair)
            if i is not None:
                self.costs[i] = value

        if benefit_model is None:
            self.benefits = None
        else:
            per_predicate = benefit_model.per_predicate
            self.benefits = [value for pred in self.predicates
                             for value in [per_predicate.get(pred, 0.0)] * n_points]
            for a, value in benefit_model.per_atom_overrides.items():
                i = self.atom_index.get(a)
                if i is not None:
                    self.benefits[i] = value

        # Constraints active in the initial state, as (position in ics, pair
        # index set); plus the inverse map from pair index to positions.
        # Conditions are ground, so their point mask is all points or none.
        self.ic_s0 = []
        for pos, ic in enumerate(ics):
            if where(ic.condition):
                members = frozenset(self.pair_index[p] for p in ic.pairs)
                self.ic_s0.append((pos, members))
        self.pair_ics = [()] * len(self.pairs)
        for j, (_, members) in enumerate(self.ic_s0):
            for i in members:
                self.pair_ics[i] += (j,)

    def atoms_to_mask(self, atoms: Iterable[GroundAtom]) -> int:
        mask = 0
        index = self.atom_index
        for a in atoms:
            mask |= 1 << index[a]
        return mask

    def mask_atoms(self, mask: int) -> tuple:
        atoms = self.atoms
        return tuple(atoms[i] for i in iter_bits(mask))

    def pairs_to_indices(self, pairs: Iterable[ActionPointPair]) -> list:
        index = self.pair_index
        out = []
        for p in pairs:
            if p not in index:
                raise InstanceError("unknown-pair", f"not an action-point pair of this instance: {p}")
            out.append(index[p])
        out.sort()
        return out

    def union_effects(self, indices: Iterable[int]) -> int:
        mask = 0
        effects = self.effects
        for i in indices:
            mask |= effects[i]
        return mask

    def producers(self, indices: Iterable[int], mask: int) -> dict:
        """Atom index -> the pair indices among ``indices`` whose effects
        hold that atom, for every atom of ``mask``, both ascending; atoms no
        pair produces map to an empty list.

        One pass over the pairs' effect bits inside ``mask``, so the work
        is the number of entries, not atoms times pairs."""
        out = {a: [] for a in iter_bits(mask)}
        effects = self.effects
        for i in sorted(indices):
            hit = effects[i] & mask
            if hit:  # most pairs miss a small mask; skip their bit loop
                for a in iter_bits(hit):
                    out[a].append(i)
        return out

    def cost_sum(self, indices: Iterable[int]) -> float:
        costs = self.costs
        return sum(costs[i] for i in sorted(indices))

    def benefit_sum(self, mask: int) -> float:
        benefits = self.benefits
        return sum(benefits[i] for i in iter_bits(mask))

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

    def _selection(self, indices):
        """(final-state mask, the solution fields both problem flavors
        share) for the selected pair indices."""
        indices = sorted(indices)
        final_mask = self.s0_mask | self.union_effects(indices)
        return final_mask, dict(pairs=frozenset(self.pairs[i] for i in indices),
                                total_cost=self.cost_sum(indices),
                                cardinality=len(indices),
                                final_state=frozenset(self.mask_atoms(final_mask)))


@dataclass(eq=False)
class Problem:
    """The parts of an instance both problem flavours share, normalised to
    tuples and frozensets and validated on construction, with their
    ``Grounding`` built on first use. Subclasses add their objective's
    fields and checks after calling ``__post_init__``."""

    grid: GridMap
    predicates: tuple
    s0: frozenset
    actions: tuple
    cost_model: CostModel
    ics: tuple
    budget: float

    def __post_init__(self):
        self.predicates = tuple(self.predicates)
        self.s0 = frozenset(self.s0)
        self.actions = tuple(self.actions)
        self.ics = tuple(self.ics)
        validate_instance_parts(self.grid, self.predicates, self.s0, self.actions,
                                self.cost_model, self.ics, self._benefit_model())
        if not (0 <= self.budget < math.inf):
            raise InstanceError("budget-range", "budget must be a finite non-negative number")

    def _benefit_model(self) -> Optional[BenefitModel]:
        """The benefit table to validate and ground, for flavours with one."""
        return None

    @cached_property
    def grounding(self) -> Grounding:
        return Grounding(self.grid, self.predicates, self.s0, self.actions,
                         self.cost_model, self.ics, self._benefit_model())
