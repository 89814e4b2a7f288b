"""Benchmark of the gops pipeline: parse, grounding, reduction, greedy,
exact search, branch-and-bound, report and LP text.

    python3 perfbench/run.py [--workload map-ladder|search-mix|lp-export|all]
                             [--seed N] [--seconds S] [--trace 0|1]

Runs from the root of a source tree and imports gops from its ``src``
directory. Inputs come from ``--seed`` (workloads.json says how). Each
workload is a closed loop with one caller: whole passes over a fixed op
list until ``--seconds`` have passed, then the CLI children one at a time.
Every answer is checked. Times are scaled by a reference kernel run
beside them, since the machine's speed may change while the benchmark
runs; raw times are printed too. The tables go to standard output, and
the last line is one JSON object: the end-to-end metrics with
``--trace 0``, or, with ``--trace 1``, the per-layer metrics of a traced
run that follows the untraced one.
"""

import argparse
import gc
import hashlib
import json
import math
import os
import resource
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((HERE / "workloads.json").read_text())

END_TO_END = {"op_s.p50": "s", "op_s.p90": "s", "ops_per_s": "1/s", "ok_share": "share",
              "cli_s.p50": "s", "peak_rss_mb": "MB", "setup_s": "s"}

_TIMES = ("serialize.parse_s", "serialize.report_s", "core.ground_s", "gbgop.reduce_s",
          "gbgop.exact_s", "gbgop.ip_build_s", "bmgop.greedy_s", "bmgop.exact_s",
          "bmgop.ip_build_s", "ip.bnb_s", "ip.emit_lp_s")
_COUNTS = {"serialize.parse_mb": "MB", "core.pairs": "count", "core.atoms": "count",
           "core.effect_bits": "count", "gbgop.r_size": "count", "gbgop.r_star_size": "count",
           "bmgop.greedy_evals": "count", "bmgop.greedy_picks": "count",
           "bmgop.greedy_pick_ratio": "ratio", "ip.vars": "count", "ip.constraints": "count",
           "ip.nonzeros": "count", "ip.limit_hits": "count", "ip.crashes": "count",
           "ip.lp_mb": "MB"}
_SETUP_AND_CLI = ("cli.process_s", "cli.import_s", "scenarios.gen_s", "encodings.encode_s")
_TRACE = ("trace.op_s", "trace.remainder_s", "trace.overhead_s")
PER_LAYER = dict({name: "s" for name in _TIMES + _SETUP_AND_CLI + _TRACE}, **_COUNTS)


def import_gops():
    """Put this tree's ``src`` first on the path; refuse to run without it,
    so no other copy of gops is ever measured."""
    src = ROOT / "src"
    if not (src / "gops" / "__init__.py").is_file():
        sys.exit(f"error: no gops sources at {src}")
    sys.path.insert(0, str(src))
    import gops
    if Path(gops.__file__).resolve().parent != (src / "gops").resolve():
        sys.exit(f"error: imported gops from {gops.__file__}, not from {src}")


def interpreter_state() -> dict:
    """Interpreter settings that change how fast all Python code runs, the
    reference kernel's too. gops must leave them alone, or scaling by the
    kernel would hide what they cost."""
    return {"trace hook": sys.gettrace(), "profile hook": sys.getprofile(),
            "gc enabled": gc.isenabled(), "gc thresholds": gc.get_threshold()}


INTERPRETER = interpreter_state()
import_gops()

from gops import Limits  # noqa: E402
from measure import (BELOW_BOUND, CAPPED, CRASHED, OK, WRONG, Outcome, Tracer,  # noqa: E402
                     fold, median, reference_kernel, scaled, self_times, summarize)
from workloads import Checker, build_ops, layer_counts, run_op  # noqa: E402

CAP = Limits(max_nodes=SPEC["cap"]["max_nodes"], max_seconds=SPEC["cap"]["max_seconds"])
CAP_S = SPEC["cap"]["max_seconds"]
CLI_CAP_S = SPEC["cli_cap_s"]
REFERENCE_S = SPEC["reference_s"]
clock = time.perf_counter


def kernel_seconds() -> float:
    start = clock()
    reference_kernel()
    return clock() - start


class Run:
    """One workload at one seed: set-up, timed passes, CLI children.
    Every timing is taken with a reference kernel run just before it and
    is reported scaled to the reference speed; raw figures are kept too."""

    def __init__(self, name: str, seed: int, seconds: float, workdir: Path):
        self.name = name
        self.seed = seed
        self.seconds = seconds
        self.workdir = workdir
        self.spec = SPEC["workloads"][name]
        self.checker = Checker()
        self.problems = {}  # (where, status, failed check) -> times seen
        self.wrong = 0  # attempts whose answer was invalid or inconsistent
        self.attempted = 0
        self.ops = []

    def note(self, where: str, status: str, message: str) -> None:
        key = (where, status, message)
        self.problems[key] = self.problems.get(key, 0) + 1

    def check_interpreter(self) -> None:
        now = interpreter_state()
        for what, value in INTERPRETER.items():
            if now[what] != value:
                self.wrong += 1
                self.note("interpreter", WRONG, f"{what} changed from {value!r} to {now[what]!r}")

    # -- set-up -------------------------------------------------------------

    def setup(self, tracer=None) -> tuple:
        """Generate and serialize the inputs, write the CLI files, and warm
        up every code path on the small instances. Returns its (scaled, raw)
        seconds."""
        self.ops = []  # the previous set-up's inputs go before new ones come
        before = kernel_seconds()
        start = clock()
        self.ops = build_ops(self.name, self.seed, SPEC, tracer)
        beyond = len(self.ops) - math.ceil(0.9 * len(self.ops))
        if beyond < SPEC["min_beyond_p90"]:
            sys.exit(f"error: {self.name} has {len(self.ops)} ops a pass, so only "
                     f"{beyond} lie beyond p90")
        wanted = {inst for inst, _ in self.spec["cli"]}
        for op in self.ops:
            if op.instance.name in wanted:
                (self.workdir / f"{op.instance.name}.json").write_text(op.instance.text)
        warm = set(self.spec["warmup"])
        for op in self.ops:
            if op.instance.name in warm:
                run_op(op, CAP, clock)
        raw = clock() - start
        return scaled([raw], [before, kernel_seconds()], REFERENCE_S, half_window=1)[0], raw

    # -- timed passes -------------------------------------------------------

    def passes(self, tracer=None) -> dict:
        """Whole passes over the op list until ``--seconds`` have passed and
        at least ``min_passes`` ran. Each op's sample is its median pass."""
        repeats = [[] for _ in self.ops]
        raw_repeats = [[] for _ in self.ops]
        counts, answers, errors = {}, {}, {}
        digest = hashlib.sha256()
        cli_keys = {f"{inst}:{method}" for inst, method in self.spec["cli"]}
        start = clock()
        n_pass = 0
        while n_pass < SPEC["min_passes"] or clock() - start < self.seconds:
            kernels, results = [], []
            for op in self.ops:
                kernels.append(kernel_seconds())
                res = run_op(op, CAP, clock, tracer)
                self.attempted += 1
                problems = self.checker.check(op, res)
                for status, message in problems:
                    self.note(op.key, status, message)
                if problems:
                    res.status = BELOW_BOUND
                    if any(status == WRONG for status, _ in problems):
                        res.status = WRONG
                        self.wrong += 1
                results.append((res.status, res.seconds))
                if n_pass == 0:
                    for part in (op.key, res.status, res.output, res.trace_text):
                        digest.update(part.encode() + b"\0")
                    errors[op.index] = res.error
                    if op.key in cli_keys:
                        answers[op.key] = res
                    if tracer:
                        for key, value in layer_counts(op, res).items():
                            counts[key] = counts.get(key, 0) + value
            raw = [seconds for _, seconds in results]
            for i, ((status, seconds), ref) in enumerate(
                    zip(results, scaled(raw, kernels, REFERENCE_S))):
                repeats[i].append(Outcome(status, ref, CAP_S))
                raw_repeats[i].append(Outcome(status, seconds, CAP_S))
            n_pass += 1
            self.check_interpreter()
        outcomes = [fold(r) for r in repeats]
        return {"outcomes": outcomes, "raw": [fold(r) for r in raw_repeats], "passes": n_pass,
                "digest": digest.hexdigest(), "answers": answers, "counts": counts,
                "failures": [(op.key, o.status, errors[op.index])
                             for op, o in zip(self.ops, outcomes) if not o.ok]}

    # -- CLI children -------------------------------------------------------

    def cli(self, answers: dict, probe_import: bool = False) -> dict:
        """Run the workload's CLI children one at a time, ``cli_repeats``
        rounds, each checked against the in-process answer of its op. With
        ``probe_import``, each child is preceded by a bare ``import gops``."""
        env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
        entries = self.spec["cli"]
        repeats = [[] for _ in entries]
        raw_repeats = [[] for _ in entries]
        imports = [[] for _ in entries]
        for _ in range(SPEC["cli_repeats"]):
            kernels, results = [], []
            for i, (inst, method) in enumerate(entries):
                if probe_import:
                    seconds, _ = _child([sys.executable, "-c", "import gops"], env, self.workdir)
                    imports[i].append(seconds)
                args = _cli_args(inst, method)
                kernels.append(kernel_seconds())
                seconds, proc = _child([sys.executable, "-m", "gops"] + args, env, self.workdir)
                self.attempted += 1
                status = _cli_status(proc, inst, method, answers.get(f"{inst}:{method}"),
                                     self.workdir)
                if status == WRONG:
                    self.wrong += 1
                    self.note(f"cli {' '.join(args)}", WRONG, "differs from the in-process answer")
                results.append((status, seconds))
            raw = [seconds for _, seconds in results]
            for i, ((status, seconds), ref) in enumerate(
                    zip(results, scaled(raw, kernels, REFERENCE_S))):
                repeats[i].append(Outcome(status, ref, CLI_CAP_S))
                raw_repeats[i].append(Outcome(status, seconds, CLI_CAP_S))
        outcomes = [fold(r) for r in repeats]
        return {"outcomes": outcomes, "raw": [fold(r) for r in raw_repeats],
                "import_s": sum(median(t) for t in imports) if probe_import else 0.0,
                "failures": [(f"cli gops {' '.join(_cli_args(*e))}", o.status, "")
                             for e, o in zip(entries, outcomes) if not o.ok]}


def _cli_args(inst: str, method: str) -> list:
    path = f"{inst}.json"
    if method == "reduce":
        return ["reduce", path, "--json"]
    if method.startswith("lp"):
        return ["emit-lp", path, "-o", f"{inst}.{method}.lp"] + (
            ["--reduced"] if method == "lp-reduced" else [])
    return ["solve", path, "--method", method, "--json",
            "--max-nodes", str(CAP.max_nodes), "--max-seconds", str(CAP.max_seconds)]


def _child(cmd, env, cwd):
    """Run one child to its end; returns (wall seconds, CompletedProcess or
    None on time-out). subprocess.run kills and reaps it on time-out."""
    start = clock()
    try:
        proc = subprocess.run(cmd, env=env, cwd=cwd, capture_output=True, text=True,
                              timeout=CLI_CAP_S)
    except subprocess.TimeoutExpired:
        proc = None
    return clock() - start, proc


def _cli_status(proc, inst, method, answer, workdir) -> str:
    """A child fails on time-out, exit code 3 (limit reached), a traceback
    or an exit code outside 0-3; otherwise its answer must match the
    in-process one."""
    if proc is None or proc.returncode == 3:
        return CAPPED
    if "Traceback (most recent call last)" in proc.stderr or proc.returncode not in (0, 1, 2):
        return CRASHED
    if answer is None or answer.status not in (OK, BELOW_BOUND):
        return WRONG  # the child answered where the in-process op failed
    if answer.output.startswith("uncoverable"):
        ok = proc.returncode == 2 and "error[uncoverable-atoms]" in proc.stderr
    elif method.startswith("lp"):
        lp = workdir / f"{inst}.{method}.lp"
        ok = proc.returncode == 0 and lp.is_file() and lp.read_text() == answer.output
    else:
        try:
            ok = proc.returncode in (0, 1) and json.loads(proc.stdout) == json.loads(answer.output)
        except ValueError:
            ok = False
    return answer.status if ok else WRONG  # the same answer misses the same bound


# ---------------------------------------------------------------------------
# Metrics

def end_to_end(run: Run, setups: list, loop: dict, cli: dict) -> dict:
    """The end-to-end figures, each as (value, samples, note); times are
    scaled to the reference speed, and the notes give them raw."""
    s, raw = summarize(loop["outcomes"]), summarize(loop["raw"])
    n_ops, n_cli = len(run.ops), len(cli["outcomes"])
    ok_share = (s["ok"] + sum(o.ok for o in cli["outcomes"])) / (n_ops + n_cli)
    cli_raw = median([o.latency for o in cli["raw"]])
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    return {
        "op_s.p50": (s["p50"], s["n"], f"ops at their median pass; raw {raw['p50']:.6f}"),
        "op_s.p90": (s["p90"], s["n"], f"{s['beyond_p90']} beyond; raw {raw['p90']:.6f}"),
        "ops_per_s": (s["ok_per_s"], s["n"], f"{s['ok']} ok ops; raw {raw['ok_per_s']:.4f}"),
        "ok_share": (ok_share, n_ops + n_cli,
                     f"{n_ops} ops + {n_cli} CLI children; fail_share {1 - ok_share:.6f}"),
        "cli_s.p50": (median([o.latency for o in cli["outcomes"]]), n_cli,
                      f"children at their median round; raw {cli_raw:.6f}"),
        "peak_rss_mb": (rss_mb, 1, "ru_maxrss after the timed passes"),
        "setup_s": (median([ref for ref, _ in setups]), len(setups),
                    f"median set-up; raw {median([raw for _, raw in setups]):.6f}"),
    }


def per_layer(untraced: dict, traced: dict, tracer: Tracer, cli: dict) -> dict:
    """Self time per layer per pass, counts of one pass, and what the
    tracing itself cost."""
    passes = traced["passes"]
    selfs = self_times(tracer.spans)
    out = {}
    for name in _TIMES:
        out[name] = (selfs.get(name[:-2], 0.0) / passes, "")
    op_s = sum(sp.seconds for sp in tracer.spans if sp.name == "op") / passes
    layered = sum(value for value, _ in out.values())
    out["trace.op_s"] = (op_s, "traced op time per pass")
    out["trace.remainder_s"] = (op_s - layered, "op time outside layer spans, "
                                "incl. repeated reductions")
    overhead = summarize(traced["outcomes"])["p50"] - summarize(untraced["outcomes"])["p50"]
    out["trace.overhead_s"] = (overhead, "traced minus untraced op_s.p50")
    out["cli.process_s"] = (sum(o.seconds for o in cli["outcomes"]), "all CLI children")
    out["cli.import_s"] = (cli["import_s"], "one `import gops` child per CLI child")
    out["scenarios.gen_s"] = (selfs.get("scenarios.gen", 0.0), "one set-up")
    out["encodings.encode_s"] = (selfs.get("encodings.encode", 0.0), "one set-up")
    counts = traced["counts"]
    for name in _COUNTS:
        if name == "bmgop.greedy_pick_ratio":
            evals = counts["bmgop.greedy_evals"]
            counts[name] = counts["bmgop.greedy_picks"] / evals if evals else 0.0
        out[name] = (counts[name], "one pass")
    return out


# ---------------------------------------------------------------------------
# Driver

def run_workload(name: str, seed: int, seconds: float, trace: bool) -> dict:
    workdir = Path(tempfile.mkdtemp(prefix=".perfbench-", dir=ROOT))
    try:
        run = Run(name, seed, seconds, workdir)
        setups = [run.setup() for _ in range(SPEC["setup_repeats"])]
        loop = run.passes()
        cli = run.cli(loop["answers"])
        metrics = end_to_end(run, setups, loop, cli)
        greedy = sorted(run.checker.greedy_ratios.values())
        layers = None
        if trace:
            tracer = Tracer(clock)
            run.setup(tracer)
            traced = run.passes(tracer)  # the checker holds it to the untraced answers
            traced_cli = run.cli(loop["answers"], probe_import=True)
            layers = per_layer(loop, traced, tracer, traced_cli)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    return {"name": name, "seed": seed, "run": run, "loop": loop, "cli": cli,
            "metrics": metrics, "layers": layers, "greedy": greedy}


def print_report(r: dict) -> None:
    run, loop = r["run"], r["loop"]
    print(f"== {r['name']}  seed {r['seed']}  passes {loop['passes']}  "
          f"ops/pass {len(run.ops)}  cli children {len(r['cli']['outcomes'])}")
    print("end-to-end")
    for name, (value, n, note) in r["metrics"].items():
        print(f"  {name:<18} {value:>14.6f} {END_TO_END[name]:<6} n={n:<6} {note}")
    greedy = r["greedy"]
    if greedy:
        print(f"  {'greedy_ratio.min':<18} {greedy[0]:>14.6f} {'ratio':<6} n={len(greedy):<6} "
              "approx ops with a known optimum")
    else:
        print(f"  {'greedy_ratio.min':<18} {'undefined':>14} {'ratio':<6} n=0      "
              "no approx op with a known optimum")
    print(f"outputs digest {loop['digest']}")
    for key, status, error in loop["failures"] + r["cli"]["failures"]:
        print(f"failed op: {key} {status} {error}".rstrip())
    for (where, status, message), times in run.problems.items():
        print(f"check failed ({status}, {times}x): {where}: {message}")
    if r["layers"]:
        op_s = r["layers"]["trace.op_s"][0]
        print("per layer (traced run; times are self time per pass)")
        for name, (value, note) in r["layers"].items():
            unit = PER_LAYER[name]
            share = f"{100 * value / op_s:5.1f}% of op time" if name in _TIMES else ""
            print(f"  {name:<24} {value:>14.6f} {unit:<6} {share} {note}")


def result_line(results: list, trace: bool) -> dict:
    attempted = sum(r["run"].attempted for r in results)
    failed = sum(r["run"].wrong for r in results)
    metrics = {}
    for r in results:
        prefix = "" if len(results) == 1 else r["name"] + "."
        if trace:
            items = {name: (value, PER_LAYER[name]) for name, (value, _) in r["layers"].items()}
        else:
            items = {name: (value, END_TO_END[name]) for name, (value, *_) in r["metrics"].items()}
        for name, (value, unit) in items.items():
            metrics[prefix + name] = {"value": value, "unit": unit}
    return {"correct": failed == 0, "attempted": attempted, "failed": failed,
            "metrics": metrics}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", default="all", choices=list(SPEC["workloads"]) + ["all"])
    parser.add_argument("--seed", type=int, default=SPEC["default_seed"])
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    names = list(SPEC["workloads"]) if args.workload == "all" else [args.workload]
    results = []
    for name in names:
        results.append(run_workload(name, args.seed, args.seconds, bool(args.trace)))
        print_report(results[-1])
    print(json.dumps(result_line(results, bool(args.trace))))
    return 0


if __name__ == "__main__":
    sys.exit(main())
