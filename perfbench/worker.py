"""Child process of the benchmark: the only code here that imports avor3.

    python perfbench/worker.py ops --workload random-groups --seed 0 --seconds 25
    python perfbench/worker.py ops --workload random-pages --seed 0 --count 130 --trace
    python perfbench/worker.py cli betti avor3

`ops` runs one in-process workload in a closed loop with a single caller. It
runs whole cycles of the workload's slots, until --seconds have passed or at
least --count operations are done, and prints one JSON line: the import time,
then for each operation its time, the reference time of the machine around it
(see speed.py), whether its output passed the checks and a summary of the
output. `cli` runs the avor3 command line under the tracer and writes the
trace to stderr after the command's own output.

Run it with the checked-out `src` first on PYTHONPATH.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import sys
from time import perf_counter

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import inputs  # noqa: E402
import speed  # noqa: E402
from tracer import Tracer, install  # noqa: E402

TRACE_PREFIX = "PERFBENCH-TRACE "


# --- random-groups -----------------------------------------------------------

def group_op(item):
    from avor3 import equivariant
    data = item["rep"]
    t0 = perf_counter()
    rep = equivariant.LinearRep(
        data["dimension"],
        tuple(tuple(tuple(row) for row in g) for g in data["generators"]),
        tuple(data["signs"]) if "signs" in data else None)
    order = len(equivariant.group_closure(rep))
    molien = list(equivariant.exterior_invariant_dims(rep))
    oracle = list(equivariant.fixed_subspace_dims_bruteforce(rep))
    return perf_counter() - t0, [order, molien, oracle]


def check_group(item, out):
    """Return (problem or "", output summary) for one group."""
    order, molien, oracle = out
    if order != item["order"]:
        return "group order %d, reference closure gives %d" % (order, item["order"]), out
    if molien != oracle:
        return "Molien %r differs from the projector oracle %r" % (molien, oracle), out
    if len(molien) != item["rep"]["dimension"] + 1:
        return "expected one invariant count per exterior power", out
    return "", out


# --- random-pages ------------------------------------------------------------

def page_op(item):
    from avor3 import ssengine
    t0 = perf_counter()
    results = []
    for purity in (False, True):
        page = ssengine.SSPage.from_json_dict(item["page"], abutment_smooth_proper=purity)
        try:
            limit, report = ssengine.resolve(page)
            kind, limits = "unique", [limit]
        except ssengine.AmbiguousResolution as exc:
            final = exc.report.final_page
            kind = "ambiguous"
            limits = [ssengine.SSPage(final, c.entries) for c in exc.report.candidates]
        except ssengine.NoConsistentAssignment:
            kind, limits = "none", []
        results.append((kind, [(lim, ssengine.abutment(lim)) for lim in limits]))
    return perf_counter() - t0, results


def check_page(item, out):
    """Check both resolutions of a page; return (problem or "", output summary).

    Each limit page must keep the input's Euler characteristic, its abutment
    must have the dimensions of its diagonals, purity-filtered limits must be
    pure and must also be limits without the filter.
    """
    euler = inputs.page_euler(item["page"]["entries"])
    summary, keys, problem = [], [], ""
    for (kind, limits), purity in zip(out, (False, True)):
        if (kind == "ambiguous") != (len(limits) > 1) or (kind == "none") != (not limits):
            problem = problem or "%s resolution with %d limit pages" % (kind, len(limits))
        forms = []
        for limit, table in limits:
            entries = sorted([p, q, v.to_classes()] for (p, q), v in limit.entries)
            degrees = sorted([k, v.to_classes()] for k, v in table.entries)
            by_degree = {}
            for p, q, c in entries:
                by_degree[p + q] = by_degree.get(p + q, 0) + inputs.class_dimension(c)
            if sum((-1) ** k * d for k, d in by_degree.items()) != euler:
                problem = problem or "a limit page does not conserve the Euler characteristic"
            if {k: d for k, d in by_degree.items() if d} != {
                    k: inputs.class_dimension(c) for k, c in degrees if c}:
                problem = problem or "abutment dimensions differ from the limit page's diagonals"
            if purity and any(w != p + q for p, q, c in entries for w in inputs.weights_of(c)):
                problem = problem or "a purity-filtered limit page is not pure"
            forms.append((inputs.canonical(entries), inputs.canonical(degrees)))
        keys.append({e for e, _ in forms})
        digest = hashlib.sha256(b"\n".join(e + b"|" + d for e, d in sorted(forms)))
        summary += [kind, len(limits), digest.hexdigest()[:16]]
    if not keys[1] <= keys[0]:
        problem = problem or "purity-on limit pages are not a subset of the purity-off ones"
    return problem, summary


WORKLOADS = {
    "random-groups": (inputs.make_group, group_op, check_group, len(inputs.GROUP_SLOTS)),
    "random-pages": (inputs.make_page, page_op, check_page, len(inputs.PAGE_SLOTS)),
}


def run_ops(workload, seed, seconds, count, trace):
    make, op, check, cycle = WORKLOADS[workload]
    t0 = perf_counter()
    import avor3.cli  # noqa: F401  (the same import a user's command pays)
    import_s = perf_counter() - t0
    tracer = None
    if trace:
        tracer = Tracer()
        install(tracer)
    from avor3 import registry
    registry.load_registry()

    records = []
    ref = speed.sample()
    start = perf_counter()
    while count is None and perf_counter() - start < seconds or len(records) < (count or 0):
        # A whole cycle at a time, its inputs made before any of its operations,
        # between two samples of the machine's speed.
        first = len(records)
        for item in [make(seed, i) for i in range(first, first + cycle)]:
            try:
                dt, out = op(item)
            except Exception as exc:  # a crashed operation is a failed one
                records.append({"t": None, "ok": False, "out": None,
                                "why": "raised %s: %s" % (type(exc).__name__, exc)})
                continue
            why, summary = check(item, out)
            records.append({"t": dt, "ok": not why, "why": why, "out": summary})
        ref, before = speed.sample(), ref
        for record in records[first:]:
            record["ref"] = (before + ref) / 2
    result = {"import_s": import_s, "cycle": cycle, "ops": records}
    if tracer is not None:
        result["trace"] = tracer.report()
    return result


def run_cli(argv):
    t0 = perf_counter()
    import avor3.cli as cli
    import_s = perf_counter() - t0
    tracer = Tracer()
    install(tracer)
    code = cli.main(argv)
    sys.stdout.flush()
    report = tracer.report()
    report["import_s"] = import_s
    sys.stderr.write(TRACE_PREFIX + json.dumps(report) + "\n")
    return code


def main(argv=None):
    argv = sys.argv[1:] if argv is None else argv
    if argv and argv[0] == "cli":
        return run_cli(argv[1:])
    parser = argparse.ArgumentParser(prog="worker.py")
    parser.add_argument("mode", choices=("ops",))
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=0.0)
    parser.add_argument("--count", type=int, default=None)
    parser.add_argument("--trace", action="store_true")
    args = parser.parse_args(argv)
    result = run_ops(args.workload, args.seed, args.seconds, args.count, args.trace)
    sys.stdout.write(json.dumps(result) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
