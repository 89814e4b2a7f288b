"""Command-line surface tying the solvers together.

Exit codes: 0 success, 1 infeasible / no solution / failed bound,
2 input or usage error, 3 node or time limit reached.
"""

import argparse
import json
import os
import sys
from pathlib import Path

from . import bench as bench_mod
from .bmgop import BmgopInstance, bmgop_compute, build_bmgop_ip, solve_bmgop_exact, solve_bmgop_ip
from .encodings import CoverProblem, MonotoneCnf, encode_max_k_cover, encode_monsat, encode_set_cover
from .errors import BoundViolationError, GopsError, LimitReachedError, ParseError
from .gbgop import (GbgopInstance, build_gbgop_ip, count_gbgop_solutions,
                    reduce_to_r_star, solve_gbgop_exact, solve_gbgop_ip)
from .ip import Limits, emit_lp
from .scenarios import gen_campaign, gen_random
from .serialize import _item_json, parse_instance, read_json, report_for, serialize_instance

EXIT_OK = 0
EXIT_INFEASIBLE = 1
EXIT_INPUT = 2
EXIT_LIMIT = 3
_ERROR_EXITS = {BoundViolationError: EXIT_INFEASIBLE, LimitReachedError: EXIT_LIMIT}


def _read_text(path) -> str:
    """The text of an input file, read as UTF-8, the encoding of JSON
    (RFC 8259), whatever the locale."""
    try:
        return Path(path).read_text(encoding="utf-8")
    except UnicodeDecodeError as err:
        raise GopsError("encoding", f"{path} is not UTF-8 text: byte {err.start}: "
                                    f"{err.reason}") from None


def _write_text(path, text: str) -> None:
    """Write an output file as UTF-8 whatever the locale; a name no UTF-8
    can hold is escaped as ``_emit`` escapes it."""
    Path(path).write_text(text, encoding="utf-8", errors="backslashreplace")


def _read_instance(path: str):
    return parse_instance(_read_text(path))


def _limits(args) -> Limits:
    return Limits(max_nodes=args.max_nodes, max_seconds=args.max_seconds)


def _utf8(text: str) -> bytes:
    """``text`` as UTF-8: a file name's undecodable bytes as they were, and
    a lone surrogate, which no UTF-8 can hold, as a backslash escape."""
    try:
        return text.encode("utf-8", "surrogateescape")
    except UnicodeEncodeError:
        return text.encode("utf-8", "backslashreplace")


def _error(code: str, message) -> None:
    """Print an ``error[...]`` line to stderr as UTF-8, as ``_emit`` prints
    a report, whatever the locale."""
    sys.stderr.flush()
    sys.stderr.buffer.write(_utf8(f"error[{code}]: {message}\n"))
    sys.stderr.buffer.flush()


def _emit(args, payload: dict, text: str) -> None:
    """Print a command's report as UTF-8, the encoding of every output
    file, whatever the locale. A name the locale cannot encode is printed
    as it is, a file name's undecodable bytes as they were, and a name no
    UTF-8 can hold (a lone surrogate that a JSON ``\\ud800`` escape can
    make) as a backslash escape: none ends in a UnicodeEncodeError."""
    out = json.dumps(payload, indent=2) + "\n" if args.json else text
    try:
        sys.stdout.buffer.write(_utf8(out))
        sys.stdout.buffer.flush()
    except BrokenPipeError:
        # The reader has gone (``| head``): send the rest, and the flush at
        # exit, nowhere, and end with the command's own exit code.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())


def _cmd_validate(args) -> int:
    inst = _read_instance(args.file)
    kind = "gbgop" if isinstance(inst, GbgopInstance) else "bmgop"
    _emit(args, {"ok": True, "problem": kind}, f"ok: {kind} instance\n")
    return EXIT_OK


def _cmd_solve(args) -> int:
    inst = _read_instance(args.file)
    limits = _limits(args)  # checked for every method, though approx runs unlimited
    gbgop = isinstance(inst, GbgopInstance)
    trace_path = limit = None
    if args.method == "approx":
        if gbgop:
            raise GopsError("method", "no approximation method for goal-based instances")
        sol, trace = bmgop_compute(inst, delta=args.delta, condition_mode=args.condition)
        status = "feasible"
        trace_path = args.trace
        if trace_path:
            _write_text(trace_path, trace.to_text())
    elif args.method == "exact":
        try:
            sol = (solve_gbgop_exact if gbgop else solve_bmgop_exact)(inst, limits=limits)
            status = "optimal" if sol is not None else "infeasible"
        except LimitReachedError as err:
            sol, status, limit = err.best, "limit_reached", err
    else:
        sol, status = (solve_gbgop_ip if gbgop else solve_bmgop_ip)(inst, limits=limits)
    report = report_for(args.method, status, sol, inst, trace_path=trace_path)
    _emit(args, report.to_json(), report.to_text())
    if limit is not None:
        raise limit  # main prints it and exits 3
    if report.status == "infeasible":
        return EXIT_INFEASIBLE
    if report.status == "limit_reached":
        return EXIT_LIMIT
    return EXIT_OK


def _cmd_reduce(args) -> int:
    inst = _read_instance(args.file)
    if not isinstance(inst, GbgopInstance):
        raise GopsError("method", "the reduction is defined for goal-based instances")
    r_star, stats = reduce_to_r_star(inst)
    payload = {"r_size": stats.r_size, "r_star_size": stats.r_star_size,
               "members": [_item_json(p) for p in r_star]}
    text = [f"|R| = {stats.r_size}, |R*| = {stats.r_star_size}"]
    text += [str(p) for p in r_star]
    _emit(args, payload, "\n".join(text) + "\n")
    return EXIT_OK


def _cmd_emit_lp(args) -> int:
    inst = _read_instance(args.file)
    if isinstance(inst, GbgopInstance):
        model = build_gbgop_ip(inst, use_reduction=args.reduced)
    else:
        model = build_bmgop_ip(inst)
    _write_text(args.output, emit_lp(model))
    return EXIT_OK


def _cmd_count(args) -> int:
    inst = _read_instance(args.file)
    if not isinstance(inst, GbgopInstance):
        raise GopsError("method", "counting is defined for goal-based instances")
    count = count_gbgop_solutions(inst, cap=args.cap)
    _emit(args, {"count": count}, f"{count}\n")
    return EXIT_OK


def _cmd_encode(args) -> int:
    doc = read_json(_read_text(args.file))
    if not isinstance(doc, dict):
        raise ParseError("type", "expected an object", "$")
    try:
        if args.kind == "monsat":
            problem = MonotoneCnf(atoms=tuple(doc["atoms"]),
                                  clauses=tuple(frozenset(c) for c in doc["clauses"]))
            inst = encode_monsat(problem)
        else:
            problem = CoverProblem(universe=tuple(doc["universe"]),
                                   families=tuple(frozenset(f) for f in doc["families"]),
                                   k=doc.get("k"))
            inst = encode_set_cover(problem) if args.kind == "set-cover" else encode_max_k_cover(problem)
    except (KeyError, TypeError) as err:
        raise ParseError("encode-input", f"malformed problem file: {err}") from err
    _write_text(args.output, serialize_instance(inst))
    return EXIT_OK


def _cmd_gen(args) -> int:
    if args.kind == "campaign":
        scenario = gen_campaign()
        inst = scenario.gbgop if args.variant == "gbgop" else scenario.bmgop
    else:
        inst = gen_random(seed=args.seed, width=args.width, height=args.height,
                          predicates=args.predicates, actions=args.actions,
                          radius=args.radius, ics=args.ics, problem=args.problem)
    _write_text(args.output, serialize_instance(inst))
    return EXIT_OK


def _cmd_bench(args) -> int:
    # iterdir, unlike glob, fails on a missing path or one that is not a directory
    paths = sorted(p for p in Path(args.directory).iterdir() if p.match("*.json"))
    suite = []
    for path in paths:
        inst = parse_instance(_read_text(path))
        if not isinstance(inst, BmgopInstance):
            raise GopsError("method", f"{path.name} is not a benefit-maximizing instance")
        suite.append((path.name, inst))
    failure = None
    try:
        report = bench_mod.run_bench(suite, delta=args.delta, limits=_limits(args))
    except BoundViolationError as err:
        report, failure = err.report, err
    except LimitReachedError as err:
        report, failure = err.best, err  # the records of the instances finished
    if args.output:
        _write_text(args.output, json.dumps(report.to_json(), indent=2) + "\n")
    _emit(args, report.to_json(), report.to_text())
    if failure is not None:
        raise failure
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="gops",
        description="Exact and approximate solvers for action placement on discrete maps.")
    sub = parser.add_subparsers(dest="command", required=True)

    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--json", action="store_true", help="machine-readable output")

    limits = argparse.ArgumentParser(add_help=False)
    limits.add_argument("--max-nodes", type=int, default=None)
    limits.add_argument("--max-seconds", type=float, default=None)

    p = sub.add_parser("validate", parents=[common], help="parse and check an instance file")
    p.add_argument("file")
    p.set_defaults(func=_cmd_validate)

    p = sub.add_parser("solve", parents=[common, limits], help="solve an instance")
    p.add_argument("file")
    p.add_argument("--method", choices=("exact", "ip", "approx"), default="exact")
    p.add_argument("--delta", type=float, default=0.001)
    p.add_argument("--condition", choices=("weighted", "plain"), default="weighted")
    p.add_argument("--trace", default=None, help="write the greedy trace to this file")
    p.set_defaults(func=_cmd_solve)

    p = sub.add_parser("reduce", parents=[common],
                       help="show the admissible pair set and its reduction")
    p.add_argument("file")
    p.set_defaults(func=_cmd_reduce)

    p = sub.add_parser("emit-lp", parents=[common], help="write the instance's program as LP text")
    p.add_argument("file")
    p.add_argument("-o", "--output", required=True)
    p.add_argument("--reduced", action="store_true",
                   help="build the goal-based program over the reduced pair set")
    p.set_defaults(func=_cmd_emit_lp)

    p = sub.add_parser("count", parents=[common], help="count all solutions (guarded)")
    p.add_argument("file")
    p.add_argument("--cap", type=int, default=None)
    p.set_defaults(func=_cmd_count)

    p = sub.add_parser("encode", parents=[common],
                       help="encode a classical problem file as an instance")
    p.add_argument("kind", choices=("set-cover", "max-k-cover", "monsat"))
    p.add_argument("file")
    p.add_argument("-o", "--output", required=True)
    p.set_defaults(func=_cmd_encode)

    p = sub.add_parser("gen", parents=[common], help="generate a scenario instance")
    p.add_argument("kind", choices=("campaign", "random"))
    p.add_argument("-o", "--output", required=True)
    p.add_argument("--variant", choices=("gbgop", "bmgop"), default="bmgop",
                   help="campaign flavor to write")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--width", type=int, default=1)
    p.add_argument("--height", type=int, default=1)
    p.add_argument("--predicates", type=int, default=3)
    p.add_argument("--actions", type=int, default=3)
    p.add_argument("--radius", type=float, default=1.0)
    p.add_argument("--ics", type=int, default=1)
    p.add_argument("--problem", choices=("gbgop", "bmgop"), default="gbgop")
    p.set_defaults(func=_cmd_gen)

    p = sub.add_parser("bench", parents=[common, limits],
                       help="compare exact and greedy over a directory of instances")
    p.add_argument("directory")
    p.add_argument("-o", "--output", default=None)
    p.add_argument("--delta", type=float, default=0.001)
    p.set_defaults(func=_cmd_bench)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as err:
        return EXIT_INPUT if err.code else EXIT_OK
    try:
        return args.func(args)
    except GopsError as err:
        _error(err.code, err.message)
        return _ERROR_EXITS.get(type(err), EXIT_INPUT)
    except FileNotFoundError as err:
        _error("no-such-file", err)
        return EXIT_INPUT
    except OSError as err:
        _error("io", err)
        return EXIT_INPUT
    except MemoryError:
        # grounding's tables grow with pairs x atoms, so a small document
        # with a large map can ask for more than the process can have
        _error("out-of-memory", "the instance needs more memory than this process can have")
        return EXIT_INPUT


if __name__ == "__main__":
    sys.exit(main())
