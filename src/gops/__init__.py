"""Geospatial action placement: exact and approximate optimization of
which actions to take where on a discrete grid map.

Two problem flavors share one formalism. Goal-based instances ask for the
fewest action-point pairs that make a set of atoms true without touching
forbidden ones; benefit-maximizing instances pick at most ``k`` pairs to
maximize the summed benefit of the resulting state. Both respect per-pair
costs, a cost budget, and at-most-one integrity constraints.
"""

import importlib

from .core import (ActionPointPair, ActionRule, AndFormula, AtomFormula,
                   BenefitModel, CostModel, Formula, GridMap, GroundAtom,
                   Grounding, IntegrityConstraint, NotFormula, OrFormula,
                   Point, State, TRUE, TrueFormula, action_effects, appl,
                   atom, benefit_of, check_ics, cost_of,
                   enumerate_ground_atoms, enumerate_pairs,
                   ground_ics_for_state, land, lnot, lor, satisfies)
from .errors import (BoundViolationError, GopsError, InstanceError,
                     LimitReachedError, ParseError, UncoverableAtomsError)
from .gbgop import (GbgopInstance, GbgopSolution, Violation, build_gbgop_ip,
                    count_gbgop_solutions, probe_feasibility, reduce_to_r_star,
                    restricted_pairs, solve_gbgop_exact, solve_gbgop_ip,
                    validate_gbgop)
from .bmgop import (BmgopInstance, BmgopSolution, GreedyTrace, approx_bound,
                    bmgop_compute, bound_applicable, build_bmgop_ip,
                    objective_f, solve_bmgop_exact, solve_bmgop_ip,
                    validate_bmgop)
from .ip import (IpAssignment, IpConstraint, IpModel, IpVariable, Limits,
                 emit_lp, solve_branch_and_bound)
from .serialize import (SolutionReport, instance_to_json, parse_instance,
                        serialize_instance)

__version__ = "0.1.0"

# names of the modules that solving needs none of, loaded on first use
# (PEP 562), so that a process that only solves does not compile them
_LAZY = {
    **dict.fromkeys(("CoverProblem", "MonotoneCnf", "encode_max_k_cover", "encode_monsat",
                     "encode_set_cover"), "encodings"),
    **dict.fromkeys(("CampaignScenario", "gen_campaign", "gen_random"), "scenarios"),
    **dict.fromkeys(("BenchRecord", "BenchReport", "run_bench"), "bench"),
}


def __getattr__(name: str):
    if name in _LAZY.values():
        return importlib.import_module(f".{name}", __name__)
    if name not in _LAZY:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{_LAZY[name]}", __name__), name)
    globals()[name] = value
    return value
