"""Exact-checked benchmark of tablehgm.

    python3 perfbench/run.py --workload cold-4x4 --seed 1 --seconds 25 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 25

One workload runs in one process: a closed loop with one caller and one
`evaluate()` at a time.  `--seconds` sets the amount of work: the run
takes draws from the workload's seeded stream until round(seconds *
answers_per_s) of them are answered, which the current code measures in
about that time, so a given seed and `--seconds` always attempt the same
problems.  A run that falls far behind
stops early rather than overrun.  `--workload all` runs every workload in a
fresh interpreter, one after the other.

Before a draw is timed, a separate copy of the package maps it and runs the
genericity check (`minors.check_in_X`) on it, untimed; a draw the check
flags is skipped and counted in `screened_ratio`, so the timed loop asks
only for answers the program gives.  Every answer is compared with `==`
against an exact reference (exact.py), outside the timed region.  A refusal
(any `TableHgmError`) that gets past the screen is a failed operation; a
mismatch is a failed operation and makes the exit code 1.

Set-up (a fresh import of the package, the input stream and one untimed
warm-up call, the first at the workload's shape; on refit workloads, at the
fixed margins) is repeated and its median reported as `setup_s`.  With `--trace 1` a second, traced copy of the package
evaluates every draw after the untraced copy (spans.py); the run reports the
per-layer metrics, checks that both copies give equal outputs, and writes
the spans under perfbench/out/.  The last line of standard output is the
result as one JSON object.
"""

from __future__ import annotations

import argparse
import importlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import traceback
from fractions import Fraction
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
sys.path.insert(0, str(HERE))

import exact  # noqa: E402
from problems import WORKLOADS, draws, warm_up_draws  # noqa: E402
from spans import Tracer  # noqa: E402

END_TO_END_UNITS = {"solve_s": "s", "solved_per_min": "1/min", "setup_s": "s", "peak_rss_mib": "MiB"}
PER_LAYER_UNITS = {
    "contiguity.up_s": "s",
    "contiguity.down_s": "s",
    "contiguity.down_step_ms": "ms",
    "contiguity.up_steps": "count",
    "contiguity.down_steps": "count",
    "contiguity.max_bits": "bits",
    "contiguity.matrix_calls": "count",
    "linalg.solve_calls": "count",
    "engine.readout_s": "s",
    "minors.generic_s": "s",
    "series.start_s": "s",
    "engine.map_s": "s",
    "engine.path_s": "s",
    "engine.expect_s": "s",
    "engine.path_len": "count",
    "engine.self_s": "s",
    "screened_ratio": "ratio",
    "cache.hit_ratio": "ratio",
    "cache.entries": "count",
    "trace.overhead_s": "s",
}
CACHED = (
    ("minors", "minor"),
    ("minors", "build_xtilde"),
    ("contiguity", "_left_factor"),
    ("contiguity", "_right_factor"),
    ("gauss_manin", "M_J"),
    ("gauss_manin", "v_J"),
    ("intersection", "matrix_C"),
    ("intersection", "inverse_C"),
    ("intersection", "inverse_P"),
    ("intersection", "matrix_Q"),
)
MODULES = ("engine", "contiguity", "linalg", "minors", "gauss_manin", "intersection", "series", "rationals")
SET_UP_REPEATS = 3
DRAWS_PER_ANSWER = 4  # the stream's length: the screen may skip up to 3 of 4 draws
STOP_FACTOR = 2.5  # stop drawing once the loop has run this many times its budget
MAX_LOOP_S = 120.0


class Copy:
    """One freshly imported copy of the package, with empty module caches."""

    def __init__(self, workload):
        for name in [n for n in sys.modules if n == "tablehgm" or n.startswith("tablehgm.")]:
            del sys.modules[name]
        self.package = importlib.import_module("tablehgm")
        self.modules = {m: importlib.import_module(f"tablehgm.{m}") for m in MODULES}
        if Path(self.package.__file__).resolve().parent != SRC / "tablehgm":
            raise ImportError(f"tablehgm imported from {self.package.__file__}, not {SRC}")
        self.options = self.package.EvalOptions(gradients=workload.gradients)

    def problem(self, draw):
        return self.package.TableProblem.of(draw.row_sums, draw.col_sums, draw.weights)

    def evaluate(self, problem):
        return self.package.evaluate(problem, self.options)

    def warm_up(self, workload, seed):
        """The first call at the workload's shape, on a draw the program answers."""
        for draw in warm_up_draws(workload, seed):
            try:
                return self.evaluate(self.problem(draw))
            except self.package.TableHgmError:
                if draw.index >= 50:
                    raise

    def flagged(self, draw):
        """Whether the genericity check flags the draw.  The copy's caches
        are emptied afterwards, so screening keeps no memory."""
        x = self.package.map_problem(self.problem(draw))[1]
        vanishing = self.modules["minors"].check_in_X(x)
        for module, fn in CACHED:
            getattr(getattr(self.modules[module], fn, None), "cache_clear", lambda: None)()
        return bool(vanishing)

    def cache_counters(self):
        """{"module.fn": (hits, misses, entries)} for the caches that exist."""
        out = {}
        for module, fn in CACHED:
            info = getattr(getattr(self.modules[module], fn, None), "cache_info", None)
            if info is not None:
                c = info()
                out[f"{module}.{fn}"] = (c.hits, c.misses, c.currsize)
        return out


def set_up(workload, seed, count):
    t0 = perf_counter()
    stream = draws(workload, seed, count)
    copy = Copy(workload)
    copy.warm_up(workload, seed)
    return perf_counter() - t0, stream, copy


def raising_layer(exc):
    """Innermost package module in the traceback, e.g. "engine"."""
    layer = None
    tb = exc.__traceback__
    while tb is not None:
        name = tb.tb_frame.f_globals.get("__name__", "")
        if name.startswith("tablehgm."):
            layer = name[len("tablehgm."):]
        tb = tb.tb_next
    return layer


def attempt(copy, problem, call=None):
    """(seconds, result or None, failure or None) for one evaluate() call."""
    t0 = perf_counter()
    try:
        result = call(copy.evaluate, problem) if call else copy.evaluate(problem)
        failure = None
    except copy.package.TableHgmError as exc:
        result, failure = None, {"error": type(exc).__name__, "layer": raising_layer(exc), "refusal": True}
    except Exception as exc:  # a crash on valid input: record it, keep measuring
        result, failure = None, {"error": type(exc).__name__, "layer": raising_layer(exc), "refusal": False,
                                 "detail": "".join(traceback.format_exception(exc)[-3:])}
    return perf_counter() - t0, result, failure


def agree(result, failure, twin, twin_failure):
    """Whether the traced copy gave the untraced copy's answer or refusal."""
    if result is None or twin is None:
        return result is None and twin is None and failure["error"] == twin_failure["error"]
    return (result.Z, result.expectations, result.gradients) == (twin.Z, twin.expectations, twin.gradients)


def percentile_line(values):
    """Median and the highest percentile with at least ten samples above it."""
    n = len(values)
    line = f"median {statistics.median(values):.6g}" if values else "median -"
    if n > 10:
        ordered = sorted(values)
        line += f"  p{100 * (n - 10) // n} {ordered[n - 11]:.6g}"
    return line + f"  (n={n})"


def commit():
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def run(workload, seed, seconds, traced):
    """Run one workload; returns the report as a dict."""
    target = max(1, round(seconds * workload.answers_per_s))
    count = DRAWS_PER_ANSWER * target
    screen = Copy(workload)
    set_up_s = []
    for _ in range(SET_UP_REPEATS):
        seconds_taken, stream, plain = set_up(workload, seed, count)
        set_up_s.append(seconds_taken)
    if traced:
        _, _, shadow = set_up(workload, seed, count)
        before = shadow.cache_counters()
        tracer = Tracer()
        tracer.install(shadow.modules)

    budget = seconds * (2 if traced else 1)
    deadline = perf_counter() + min(STOP_FACTOR * budget, MAX_LOOP_S)
    records, traced_times = [], []
    answered = screened = 0
    for draw in stream:
        if answered == target or perf_counter() > deadline:
            break
        if screen.flagged(draw):
            screened += 1
            continue
        seconds_taken, result, failure = attempt(plain, plain.problem(draw))
        record = {"draw": draw.index, "rows": draw.row_sums, "cols": draw.col_sums, "seconds": seconds_taken}
        if result is not None:
            probs = [[Fraction(v) for v in row] for row in draw.weights]
            expected = exact.reference(
                draw.row_sums, draw.col_sums, probs, workload.gradients, plain.modules["series"]
            )
            detail = exact.mismatch(result, expected, workload.gradients)
            if detail:
                failure = {"error": "Mismatch", "layer": None, "refusal": False, "detail": detail}
        if traced:
            traced_s, twin, twin_failure = attempt(
                shadow, shadow.problem(draw),
                lambda evaluate, p: tracer.evaluate(draw.index, evaluate, p),
            )
            traced_times.append(traced_s)
            if not agree(result, failure, twin, twin_failure) and (failure is None or failure["refusal"]):
                failure = {"error": "TraceMismatch", "layer": None, "refusal": False,
                           "detail": "traced and untraced outputs differ"}
        if failure:
            record["failure"] = failure
        else:
            answered += 1
        records.append(record)

    solve_times = [r["seconds"] for r in records if "failure" not in r]
    failures = [r["failure"] for r in records if "failure" in r]
    attempted = len(records)
    timed = sum(r["seconds"] for r in records)
    report = {
        "env": {
            "workload": workload.name,
            "seed": seed,
            "seconds": seconds,
            "trace": int(traced),
            "answers": target,
            "python": platform.python_version(),
            "gmpy2": getattr(plain.modules["rationals"], "HAVE_GMPY2", None),
            "nproc": len(os.sched_getaffinity(0)),
            "commit": commit(),
        },
        "attempted": attempted,
        "failed": len(failures),
        "mismatches": sum(not f["refusal"] for f in failures),
        "stopped_early": answered < target,
        "fail_ratio": len(failures) / attempted if attempted else 0.0,
        "screened": screened,
        "screened_ratio": screened / (screened + attempted) if screened + attempted else 0.0,
        "failures": failures,
        "solve_times": solve_times,
        "set_up_s": set_up_s,
        "end_to_end": {
            "solve_s": statistics.median(solve_times) if solve_times else 0.0,
            "solved_per_min": 60.0 * answered / timed if timed else 0.0,
            "setup_s": statistics.median(set_up_s),
            "peak_rss_mib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        },
        "records": records,
    }
    if traced:
        report["per_layer"] = layer_metrics(tracer, before, shadow.cache_counters())
        report["per_layer"]["screened_ratio"] = report["screened_ratio"]
        report["per_layer"]["trace.overhead_s"] = (sum(traced_times) - timed) / attempted
        report["layers"] = {
            name: {"calls": calls, "total_s": total, "self_s": own}
            for name, (calls, total, own, _) in tracer.layers().items()
        }
        report["tracer"] = tracer
    return report


def layer_metrics(tracer, before, after):
    """The tracer's summary plus cache counters over the measured calls:
    per cache (absent when the package no longer has that cache) and summed
    over every cache present."""
    out = tracer.summary()
    hits = misses = 0
    for name, (h, m, entries) in after.items():
        h0, m0, _ = before.get(name, (0, 0, 0))
        h, m = h - h0, m - m0
        hits, misses = hits + h, misses + m
        out[f"cache.{name}.hit_ratio"] = h / (h + m) if h + m else None
        out[f"cache.{name}.entries"] = entries
    out["cache.hit_ratio"] = hits / (hits + misses) if hits + misses else 0.0
    out["cache.entries"] = sum(entries for _, _, entries in after.values())
    return out


def print_report(report):
    name = report["env"]["workload"]
    print("env " + json.dumps(report["env"]))
    e2e = report["end_to_end"]
    print(f"{name} solve_s {percentile_line(report['solve_times'])} s")
    for metric in ("solved_per_min", "setup_s", "peak_rss_mib"):
        print(f"{name} {metric} {e2e[metric]:.6g} {END_TO_END_UNITS[metric]}")
    kinds = {}
    for f in report["failures"]:
        key = f"{f['error']}@{f['layer']}"
        kinds[key] = kinds.get(key, 0) + 1
    print(
        f"{name} fail_ratio {report['fail_ratio']:.6g} ratio "
        f"({report['failed']} of {report['attempted']}: {kinds or 'none'})"
    )
    print(
        f"{name} screened_ratio {report['screened_ratio']:.6g} ratio "
        f"({report['screened']} draws flagged by check_in_X and skipped)"
    )
    if report["stopped_early"]:
        print(f"{name} stopped early after {report['attempted']} draws")
    for f in report["failures"]:
        if not f["refusal"]:
            print(f"{name} FAILED {f['error']}: {f.get('detail', '')}")
    if "per_layer" in report:
        for metric, value in report["per_layer"].items():
            print(f"{name} {metric} {value if value is None else format(value, '.6g')}")
        total = report["layers"]["engine.evaluate"]["total_s"] or 1.0
        print(f"{name} layer  calls  total_s  self_s  share_of_evaluate")
        for layer, row in report["layers"].items():
            print(
                f"{name}   {layer:<20} {row['calls']:>6} {row['total_s']:9.4f} "
                f"{row['self_s']:9.4f} {row['total_s'] / total:7.1%}"
            )


def result_line(report, traced):
    values = report["per_layer"] if traced else report["end_to_end"]
    units = PER_LAYER_UNITS if traced else END_TO_END_UNITS
    return json.dumps(
        {
            "correct": report["mismatches"] == 0,
            "attempted": report["attempted"],
            "failed": report["failed"],
            "metrics": {k: {"value": values[k], "unit": u} for k, u in units.items()},
        }
    )


def save(report):
    """Write the report (and the spans of a traced run) under perfbench/out/."""
    OUT.mkdir(exist_ok=True)
    env = report["env"]
    stem = OUT / f"{env['workload']}-seed{env['seed']}-trace{env['trace']}"
    tracer = report.pop("tracer", None)
    if tracer is not None:
        tracer.write(stem.with_suffix(".spans.jsonl"))
    with open(stem.with_suffix(".json"), "w") as fh:
        json.dump(report, fh, indent=1)


def run_all(args):
    """Each workload in a fresh interpreter, one after the other."""
    code = 0
    for name in WORKLOADS:
        argv = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
                "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]
        sys.stdout.flush()
        code = max(code, subprocess.run(argv, check=False).returncode)
    return code


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS) + ["all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=25)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    if not (SRC / "tablehgm" / "__init__.py").is_file():
        print(f"no package source at {SRC / 'tablehgm'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    traced = bool(args.trace)
    report = run(WORKLOADS[args.workload], args.seed, args.seconds, traced)
    line = result_line(report, traced)
    save(report)
    print_report(report)
    print(line)
    return 0 if report["mismatches"] == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
