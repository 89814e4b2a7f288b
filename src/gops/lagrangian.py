"""The root of a branch-and-bound search from a start (``IpModel.start``):
the start's check against the rows, fixing the variables a row decides,
and the Lagrangian bound that can prove the start optimal there."""

import math
from functools import reduce
from itertools import count
from operator import add, mul

from .errors import InstanceError, LimitReachedError


def start_vector(model, rhs: list, low: list, moves: list) -> list:
    """The 0/1 vector of ``model.start()``, checked against every row by
    the sums a leaf of the search takes; InstanceError ``ip-start`` when it
    names something other than a variable index or breaks a row."""
    n = len(moves)
    vec = [0] * n
    for i in model.start():
        if type(i) is not int or not 0 <= i < n:
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
    objective's granularity ``q`` (``ip._granularity`` over the
    coefficients and the constant): every objective value is a multiple of
    q, so none then lies above the start's.

    The model is read as a maximization. First every variable whose value
    alone lifts a row's smallest left-hand side above its right-hand side
    is fixed to its other value, which is the start's (the start passed the
    same sums). The rows left with a free term are relaxed with multipliers
    lam >= 0: for each lam, the objective of every assignment that passes
    the rows is at most ``fixed objective + lam . b + sum of the positive
    reduced costs``, ``b`` being each row's right-hand side less its fixed
    terms. A float bound counts only with a slack of 1e-9 of the magnitudes
    summed into it, far above their rounding. The bound is in the model's
    own sense, with the constant; None before the first step."""
    sign = 1.0 if model.sense == "max" else -1.0
    starts, cols, vals = model.starts, model.cols, model.vals
    flips = [-1.0 if sense == ">=" else 1.0 for sense in model.senses]
    fixed = {}
    for s, e, flip, lo, r in zip(starts, starts[1:], flips, low, rhs):
        # a row none of whose raises can break it is passed over whole
        if s < e and lo + max(map(abs, vals[s:e])) > r:
            for i, co in zip(cols[s:e], vals[s:e]):
                if co and lo + abs(co) > r:
                    fixed[i] = 0 if flip * co > 0 else 1

    # The relaxed rows in <= form: each one's terms over the live variables,
    # by position among them, its right-hand side less its fixed terms (b)
    # and the magnitudes summed into its part of a bound; and each live
    # variable's column. A free variable with no gain and no negative term
    # is not live: its reduced cost is at most 0 at every lam, so the
    # relaxation keeps it at 0, and it is left out, as is a row without a
    # live term (the start passes it, so it holds with those at 0).
    live = [i for i, (c, (down, _)) in enumerate(zip(obj, moves))
            if i not in fixed and (sign * c > 0 or down)]
    position = dict(zip(live, count()))
    ones = {i for i, v in fixed.items() if v}
    row_terms, b, sizes = [], [], []
    col_rows = [[] for _ in live]
    col_coeffs = [[] for _ in live]
    for s, e, flip, r in zip(starts, starts[1:], flips, rhs):
        row_cols, row_vals = cols[s:e], vals[s:e]
        terms = [(position[i], flip * co) for i, co in zip(row_cols, row_vals)
                 if co and i in position]
        if terms:
            rest = r
            if not ones.isdisjoint(row_cols):
                rest -= flip * reduce(add, (co for i, co in zip(row_cols, row_vals) if i in ones))
            for p, a in terms:
                col_rows[p].append(len(b))
                col_coeffs[p].append(a)
            row_terms.append(([p for p, _ in terms], [a for _, a in terms]))
            b.append(rest)
            sizes.append(abs(r) + sum(map(abs, row_vals)))
    costs = [sign * obj[i] for i in live]
    columns = list(zip(costs, col_rows, col_coeffs))
    base = sign * reduce(add, (obj[i] for i, v in fixed.items() if v), 0.0)
    size0 = abs(base) + sum(map(abs, obj))
    target = sign * start_cur

    lam = [0.0] * len(b)
    best = math.inf
    theta, since, steps = _STEP_SIZE, 0, 0
    verdict = None
    try:
        while True:
            steps = tick()
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
            # optimum, projected onto lam >= 0
            x = [1.0 if c > 0.0 else 0.0 for c in reduced]
            grad = [r - sum(map(mul, coeffs, map(x.__getitem__, positions)))
                    for (positions, coeffs), r in zip(row_terms, b)]
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
