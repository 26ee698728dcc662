"""Benchmark of the avor3 checkout this file sits in.

    python3 perfbench/run.py --workload paper-cli --seed 0 --seconds 25 --trace 0

Workloads (one caller, closed loop, one process or child at a time):

  paper-cli      fresh `python -m avor3.cli betti avor3`, then fresh
                 `python -m avor3.cli verify all --format json`: what a user runs
                 to reproduce the paper, cold, as they pay it on every run.
  random-groups  seeded finite matrix groups through group_closure,
                 exterior_invariant_dims (Molien) and the projector oracle.
  random-pages   seeded spectral-sequence pages through resolve, with the purity
                 filter off and on, and abutment on every limit page.

The program is run from `src` of this checkout, never from an installed copy.
Timings are taken from outside the program. With --trace 0 the workload runs
for --seconds and the last stdout line holds the end-to-end metrics. With
--trace 1 it runs a fixed amount of work instead, whatever the machine's
speed: four rounds of the same inputs, untraced, traced, traced, untraced,
so that the per-layer totals measure the same work on every commit and the
tracing overhead compares means that see the same linear drift of the host.
The last line then holds the per-layer metrics, the mean of the two traced
rounds, and the overhead. The line before it describes the run: code
version, interpreter, sample counts and any failures.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import threading
from importlib import metadata
from time import perf_counter

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
SRC = os.path.join(ROOT, "src")
WORKER = os.path.join(BENCH, "worker.py")
EXPECTED = os.path.join(BENCH, "expected_seed0.json")

sys.path.insert(0, BENCH)
import inputs  # noqa: E402
import speed  # noqa: E402
from worker import TRACE_PREFIX  # noqa: E402  (worker imports avor3 only on use)

WORKLOADS = ("paper-cli", "random-groups", "random-pages")
DEFAULT_SEED = 0
SETUP_RUNS = 7
CHILD_TIMEOUT_S = 170
SETUP_CODE = ("import avor3.cli\n"
              "from avor3.registry import load_registry\n"
              "load_registry()\n")

BETTI_ARGS = ("betti", "avor3")
VERIFY_ARGS = ("verify", "all", "--format", "json")
# The published Betti vector of the second Voronoi compactification of A_3.
EXPECTED_BETTI = "1 0 2 0 4 0 6 0 4 0 2 0 1\n"
VERIFY_CHECKS = 12
# A pair takes about 25 s on a 2-vCPU host, so one run rarely fits two in its
# --seconds; two pairs let a run average over more of the host's slow minutes.
PAPER_MIN_PAIRS = 2
# Whole cycles of slots in each round of a traced in-process run: 9 to 13 s
# of untraced loop on a 2-vCPU host at the seed commit.
TRACE_CYCLES = {"random-groups": 10, "random-pages": 50}

# Names of the checks in avor3.verify.ALL_CHECKS; each gets a traced span.
CHECK_NAMES = ("betti_vector", "main_page_resolution", "orbit_census",
               "local_cone_symmetries", "distinguished_dim4_symmetry",
               "stratum_invariants", "rank_one_pipeline", "rank_two_pipeline",
               "rank_three_attribution", "torus_coordinates", "product_symmetry",
               "conservation_properties")


class BenchError(RuntimeError):
    """The benchmark cannot produce a result (missing program, crashed child)."""


# --- child processes ------------------------------------------------------------

def child_env():
    env = dict(os.environ)
    env.pop("VORONOI_STRATA_REGISTRY", None)  # always the packaged registry
    paths = [SRC] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    env["PYTHONPATH"] = os.pathsep.join(paths)
    return env


class Child:
    """One finished child process: wall time, its own peak RSS, exit code, output."""

    def __init__(self, argv):
        t0 = perf_counter()
        proc = subprocess.Popen(argv, cwd=ROOT, env=child_env(),
                                stdout=subprocess.PIPE, stderr=subprocess.PIPE)
        watchdog = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
        watchdog.start()
        err = []
        reader = threading.Thread(target=lambda: err.append(proc.stderr.read()))
        reader.start()
        try:
            out = proc.stdout.read()
            reader.join()
            # wait4 reports this child's own rusage; RUSAGE_CHILDREN would keep
            # the running maximum over every child reaped so far.
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            watchdog.cancel()
            proc.stdout.close()
            proc.stderr.close()
        proc.returncode = os.waitstatus_to_exitcode(status)
        self.wall_s = perf_counter() - t0
        self.peak_rss_mib = usage.ru_maxrss / 1024.0  # Linux reports KiB
        self.code = proc.returncode
        self.stdout = out.decode()
        self.stderr = err[0].decode() if err else ""


def python_child(*args):
    return Child([sys.executable, *args])


def measure_setup():
    """Wall times of interpreter start, `import avor3.cli` and load_registry()."""
    times = []
    for _ in range(SETUP_RUNS):
        child = python_child("-c", SETUP_CODE)
        if child.code != 0:
            raise BenchError("set-up failed: %s" % child.stderr.strip()[-500:])
        times.append(child.wall_s)
    return times


# --- paper-cli -------------------------------------------------------------------

def check_betti(child):
    if child.code != 0:
        return "betti exited %d: %s" % (child.code, child.stderr.strip()[-300:])
    if child.stdout != EXPECTED_BETTI:
        return "betti printed %r" % child.stdout[:200]
    return ""


def check_verify(child):
    if child.code != 0:
        return "verify exited %d: %s" % (child.code, child.stderr.strip()[-300:])
    try:
        results = json.loads(child.stdout)
    except ValueError:
        return "verify printed no JSON"
    names = {r.get("name") for r in results if isinstance(r, dict)}
    if len(results) != VERIFY_CHECKS or len(names) != VERIFY_CHECKS:
        return "verify reported %d checks" % len(results)
    failed = [r["name"] for r in results if r.get("ok") is not True]
    return "verify failed %s" % ", ".join(failed) if failed else ""


def trace_of(child):
    lines = [line for line in child.stderr.splitlines() if line.startswith(TRACE_PREFIX)]
    if not lines:
        raise BenchError("traced command left no trace: %s" % child.stderr.strip()[-300:])
    return json.loads(lines[-1][len(TRACE_PREFIX):])


def paper_pair(prefix, outputs=None):
    """One cold reproduction: `betti`, then `verify`, each in a fresh process.

    Returns the operation record and the two finished children, each with
    `scaled_s`, its wall time scaled to nominal machine speed by reference
    samples taken while it ran. `outputs`, when given, are the stdout of both
    commands in an earlier pair, which this pair must repeat.
    """
    children = []
    for args in (BETTI_ARGS, VERIFY_ARGS):
        sampler = speed.Sampler()
        child = python_child(*prefix, *args)
        child.ref = sampler.stop()
        child.scaled_s = speed.scale(child.wall_s, child.ref)
        children.append(child)
    betti, verify = children
    why = check_betti(betti) or check_verify(verify)
    if not why and outputs is not None and (betti.stdout, verify.stdout) != outputs:
        why = "output differs from the first untraced run's"
    op = {"t": betti.scaled_s + verify.scaled_s, "ok": not why, "why": why}
    return op, betti, verify


def run_paper_cli(seed, seconds):
    """Cold reproductions of the paper; the inputs are fixed, so the seed is unused.

    At least PAPER_MIN_PAIRS reproductions run, more while --seconds last.
    """
    ops, rss = [], []
    extra = {"betti_s": [], "verify_s": [], "raw_op_p50_ms": [], "speed": []}
    start = perf_counter()
    while len(ops) < PAPER_MIN_PAIRS or perf_counter() - start < seconds:
        op, betti, verify = paper_pair(("-m", "avor3.cli"))
        ops.append(op)
        rss += [betti.peak_rss_mib, verify.peak_rss_mib]
        extra["betti_s"].append(betti.scaled_s)
        extra["verify_s"].append(verify.scaled_s)
        extra["raw_op_p50_ms"].append((betti.wall_s + verify.wall_s) * 1000.0)
        extra["speed"] += [speed.NOMINAL_S / betti.ref, speed.NOMINAL_S / verify.ref]
    return {"ops": ops, "peak_rss_mib": max(rss), "extra": extra}


def alternate(untraced, traced):
    """Rounds in the order untraced, traced, traced, untraced.

    Each callable returns (operation records, trace report or None). The
    means of the two untraced and the two traced rounds see the same linear
    drift of the machine's speed, so their difference is the tracing overhead.
    """
    rounds = [untraced(), traced(), traced(), untraced()]
    plain, spans = [rounds[0], rounds[3]], [rounds[1], rounds[2]]
    overhead = (sum(round_time(ops) for ops, _ in spans)
                - sum(round_time(ops) for ops, _ in plain)) / 2
    ops = [op for round_ops, _ in rounds for op in round_ops]
    return {"ops": ops, "trace": merge_traces([r for _, r in spans], rounds=2),
            "overhead_s": overhead}


def round_time(ops):
    return sum(op["t"] for op in ops if op["t"] is not None)


def trace_paper_cli():
    """Two untraced and two traced reproductions, alternated."""
    first = []

    def untraced():
        op, betti, verify = paper_pair(("-m", "avor3.cli"), first[0] if first else None)
        first.append((betti.stdout, verify.stdout))
        return [op], None

    def traced():
        op, betti, verify = paper_pair((WORKER, "cli"), first[0])
        return [op], merge_traces([trace_of(betti), trace_of(verify)])

    return alternate(untraced, traced)


def merge_traces(reports, rounds=1):
    """Spans and counts summed over `reports`, then divided by `rounds`."""
    spans, counts = {}, {}
    for report in reports:
        for name, (calls, total, own) in report["spans"].items():
            acc = spans.setdefault(name, [0, 0.0, 0.0])
            acc[0] += calls / rounds
            acc[1] += total / rounds
            acc[2] += own / rounds
        for name, n in report["counts"].items():
            counts[name] = counts.get(name, 0) + n / rounds
    return {"spans": spans, "counts": counts,
            "import_s": statistics.mean(r["import_s"] for r in reports)}


# --- random-groups and random-pages ------------------------------------------------

def load_expected(workload, seed):
    """Outputs frozen from the seed commit, for the default seed only."""
    if seed != DEFAULT_SEED:
        return []
    with open(EXPECTED, encoding="utf-8") as fh:
        return json.load(fh)[workload]


def run_worker(workload, seed, seconds=None, count=None, trace=False):
    args = [WORKER, "ops", "--workload", workload, "--seed", str(seed)]
    args += ["--count", str(count)] if count is not None else ["--seconds", str(seconds)]
    child = python_child(*args, *(["--trace"] if trace else []))
    if child.code != 0:
        raise BenchError("worker exited %d: %s" % (child.code, child.stderr.strip()[-500:]))
    return child, json.loads(child.stdout.strip().splitlines()[-1])


def check_outputs(ops, expected, why):
    """Fail each passing operation whose output differs from `expected`'s."""
    for op, out in zip(ops, expected):
        if op["ok"] and op["out"] != out:
            op.update(ok=False, why="output %r, %s %r" % (op["out"], why, out))


def scale_ops(ops):
    """Scale each operation's time to nominal machine speed; return the measured times."""
    measured = []
    for op in ops:
        if op["t"] is not None:
            measured.append(op["t"])
            op["t"] = speed.scale(op["t"], op["ref"])
    return measured


def run_in_process(workload, seed, seconds):
    child, data = run_worker(workload, seed, seconds=seconds)
    ops = data["ops"]
    measured = scale_ops(ops)
    check_outputs(ops, load_expected(workload, seed), "frozen reference")
    extra = {"raw_op_p50_ms": [t * 1000.0 for t in measured],
             "speed": [speed.NOMINAL_S / op["ref"] for op in ops if op["t"] is not None]}
    return {"ops": ops, "peak_rss_mib": child.peak_rss_mib, "extra": extra}


def trace_in_process(workload, seed):
    """TRACE_CYCLES whole cycles, two rounds untraced and two traced, alternated."""
    slots = inputs.GROUP_SLOTS if workload == "random-groups" else inputs.PAGE_SLOTS
    count = TRACE_CYCLES[workload] * len(slots)
    first = []

    def one_round(trace):
        _, data = run_worker(workload, seed, count=count, trace=trace)
        ops = data["ops"]
        scale_ops(ops)
        check_outputs(ops, load_expected(workload, seed), "frozen reference")
        if first:
            check_outputs(ops, [op["out"] for op in first], "first untraced run gave")
        else:
            first.extend(ops)
        return ops, dict(data["trace"], import_s=data["import_s"]) if trace else None

    return alternate(lambda: one_round(False), lambda: one_round(True))


# --- metrics -------------------------------------------------------------------------

def end_to_end(result, setup):
    """End-to-end metrics of the untraced operations.

    With one caller in a closed loop, ops_per_s is the inverse of the mean
    operation time: unlike op_p50_ms it weights the slow operations.
    """
    times = [op["t"] for op in result["ops"] if op["t"] is not None]
    if not times:
        raise BenchError("no operation completed")
    p90 = statistics.quantiles(times, n=10, method="inclusive")[-1] if len(times) > 1 else times[0]
    return {
        "setup_s": (statistics.median(setup), "s"),
        "op_p50_ms": (statistics.median(times) * 1000.0, "ms"),
        "op_p90_ms": (p90 * 1000.0, "ms"),
        "ops_per_s": (len(times) / sum(times), "1/s"),
        "peak_rss_mb": (result["peak_rss_mib"], "MiB"),
    }


def _span(name, field):
    """Field 0 (calls) or 1 (total time) of a span; KeyError if it was not wrapped."""
    return lambda spans, counts: spans[name][field]


def _count(span, name):
    """A counter read from `span`'s return values."""
    def value(spans, counts):
        spans[span]  # KeyError: the function is gone
        return counts.get(name, 0)
    return value


def _ratio(num, den):
    def value(spans, counts):
        d = den(spans, counts)
        return counts.get(num, 0) / d if d else 0.0
    return value


def _module(module, field):
    """Field 0 (calls) or 2 (self time) summed over all of a module's spans."""
    def value(spans, counts):
        values = [v[field] for k, v in spans.items() if k.startswith(module + ".")]
        if not values:
            raise KeyError(module)
        return sum(values)
    return value


# (metric, unit, value from the merged trace). Times named after a function are
# the total time of its outermost spans; `<module>.self_s` is the self time of
# all of a module's spans (time in that module's code, not in other layers').
LAYER_METRICS = (
    ("fan.classify_orbits_s", "s", _span("fan.classify_orbits", 1)),
    ("fan.equivalent_s", "s", _span("fan.equivalent", 1)),
    ("fan.equivalent.calls", "count", _span("fan.equivalent", 0)),
    ("fan.equivalent.match_ratio", "ratio",
     _ratio("fan.equivalent.matches", _span("fan.equivalent", 0))),
    ("fan.stabilizer_s", "s", _span("fan.stabilizer", 1)),
    ("fan.stabilizer.elements", "count", _count("fan.stabilizer", "fan.stabilizer.elements")),
    ("fan.char_lattice_s", "s", _span("fan.stratum_character_lattice", 1)),
    ("fan.self_s", "s", _module("fan", 2)),
) + tuple(("verify.%s_s" % c, "s", _span("verify." + c, 1)) for c in CHECK_NAMES) + (
    ("verify.self_s", "s", _module("verify", 2)),
    ("forms.act_on_form_s", "s", _span("forms.act_on_form", 1)),
    ("forms.act_on_form.calls", "count", _span("forms.act_on_form", 0)),
    ("forms.self_s", "s", _module("forms", 2)),
    ("linalg.self_s", "s", _module("linalg", 2)),
    ("linalg.calls", "count", _module("linalg", 0)),
    ("equivariant.closure_s", "s", _span("equivariant.group_closure", 1)),
    ("equivariant.closure.elements", "count",
     _count("equivariant.group_closure", "equivariant.closure.elements")),
    ("equivariant.molien_s", "s", _span("equivariant.exterior_invariant_dims", 1)),
    ("equivariant.oracle_s", "s", _span("equivariant.fixed_subspace_dims_bruteforce", 1)),
    ("equivariant.self_s", "s", _module("equivariant", 2)),
    ("ssengine.resolve_s", "s", _span("ssengine.resolve", 1)),
    ("ssengine.resolve.enumerated", "count",
     _count("ssengine.resolve", "ssengine.resolve.enumerated")),
    ("ssengine.resolve.kept_ratio", "ratio",
     _ratio("ssengine.resolve.kept",
            _count("ssengine.resolve", "ssengine.resolve.enumerated"))),
    ("ssengine.resolve.unique", "count", _count("ssengine.resolve", "ssengine.resolve.unique")),
    ("ssengine.resolve.ambiguous", "count",
     _count("ssengine.resolve", "ssengine.resolve.ambiguous")),
    ("ssengine.resolve.none", "count", _count("ssengine.resolve", "ssengine.resolve.none")),
    ("ssengine.self_s", "s", _module("ssengine", 2)),
    ("strata.rank_three_s", "s", _span("strata.rank_three_locus", 1)),
    ("strata.rank_two_s", "s", _span("strata.rank_two_locus", 1)),
    ("strata.rank_one_s", "s", _span("strata.rank_one_locus", 1)),
    ("strata.main_page_s", "s", _span("strata.main_first_page", 1)),
    ("strata.self_s", "s", _module("strata", 2)),
    ("registry.load_s", "s", _span("registry.load_registry", 1)),
)


def per_layer(result):
    trace = result["trace"]
    metrics, absent = {}, []
    for name, unit, value in LAYER_METRICS:
        try:
            metrics[name] = (value(trace["spans"], trace["counts"]), unit)
        except KeyError:  # the program no longer has the traced function
            absent.append(name)
    metrics["setup.import_s"] = (trace["import_s"], "s")
    metrics["trace.overhead_s"] = (result["overhead_s"], "s")
    return metrics, absent


# --- run description ---------------------------------------------------------------

def code_version():
    """Git sha and dirtiness of the checkout, when it is a git work tree."""
    if not os.path.isdir(os.path.join(ROOT, ".git")):
        return None, None
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=os.path.dirname(ROOT))
    try:
        sha = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=env,
                             capture_output=True, text=True, check=True).stdout.strip()
        dirty = subprocess.run(["git", "status", "--porcelain", "--", "src"], cwd=ROOT,
                               env=env, capture_output=True, text=True,
                               check=True).stdout.strip() != ""
    except (OSError, subprocess.CalledProcessError):
        return None, None
    return sha, dirty


def environment():
    sha, dirty = code_version()
    try:
        numpy_version = metadata.version("numpy")
    except metadata.PackageNotFoundError:
        numpy_version = None
    return {"git_sha": sha, "src_dirty": dirty, "python": platform.python_version(),
            "numpy": numpy_version, "nproc": os.cpu_count()}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        if not os.path.isfile(os.path.join(SRC, "avor3", "cli.py")):
            raise BenchError("no avor3 sources under %s" % SRC)
        if args.trace:
            setup = []
            if args.workload == "paper-cli":
                result = trace_paper_cli()
            else:
                result = trace_in_process(args.workload, args.seed)
            metrics, absent = per_layer(result)
        else:
            setup = measure_setup()
            if args.workload == "paper-cli":
                result = run_paper_cli(args.seed, args.seconds)
            else:
                result = run_in_process(args.workload, args.seed, args.seconds)
            metrics, absent = end_to_end(result, setup), []
    except BenchError as exc:
        print("perfbench: %s" % exc, file=sys.stderr)
        return 1
    ops = result["ops"]
    failed = [op for op in ops if not op["ok"]]
    info = dict(environment(), workload=args.workload, seed=args.seed,
                seconds=args.seconds, trace=args.trace, samples=len(ops),
                setup_samples=len(setup), fail_ratio=len(failed) / len(ops),
                failures=[op["why"] for op in failed[:5]], absent=absent,
                **{k: statistics.median(v) for k, v in result.get("extra", {}).items() if v})
    print(json.dumps({"perfbench": info}, sort_keys=True))
    print(json.dumps({
        "correct": not failed,
        "attempted": len(ops),
        "failed": len(failed),
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
