"""Benchmark of the charp package: one workload, one seed, one result line.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload reciprocity --seed 3 --seconds 25 --trace 0

The run generates its inputs from the seed, then runs *passes*: each pass is
a fixed number of items processed by a fresh worker process, so the
package's memo caches start empty, as they do for a user.  Passes repeat
until ``--seconds`` have gone by, at least twice, and until the run holds
enough items for its tail percentile (``workloads.TAIL``).  With ``--trace 0`` the last
line of standard output carries the end-to-end metrics; with ``--trace 1``
every pass runs twice, untraced and traced, and the last line carries the
per-layer metrics.  Every item is checked, and the outputs of a fixed set of
default-seed items are compared with the digests in ``expected.json``; a
wrong answer or a digest mismatch makes the run fail with exit code 1.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import workloads as wl  # noqa: E402

SETUP_PROBES = 15         # extra set-up-only processes per run
WORKER_TIMEOUT_S = 170


def metric_units(section):
    """Metric name -> unit, in the order ``BENCHMARK.json`` lists them."""
    with open(os.path.join(HERE, os.pardir, "BENCHMARK.json")) as fh:
        return {m["name"]: m["unit"] for m in json.load(fh)[section]}


class BenchError(RuntimeError):
    """The benchmark could not run (not a wrong answer of the program)."""


def run_worker(root, job):
    job = dict(job, root=root, spawned=time.clock_gettime(time.CLOCK_MONOTONIC))
    proc = subprocess.Popen([sys.executable, os.path.join(HERE, "worker.py")],
                            stdin=subprocess.PIPE, stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE, cwd=root)
    try:
        out, err = proc.communicate(json.dumps(job).encode(), timeout=WORKER_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise BenchError("worker timed out after %d s" % WORKER_TIMEOUT_S)
    if proc.returncode != 0:
        raise BenchError("worker exited with %d: %s"
                         % (proc.returncode, err.decode(errors="replace")[-2000:]))
    return json.loads(out.decode().strip().splitlines()[-1])


def percentile(values, q):
    """Nearest-rank percentile."""
    ordered = sorted(values)
    rank = max(1, -(-len(ordered) * q // 100))
    return ordered[min(rank, len(ordered)) - 1]


def measure(root, workload, seed, seconds, trace, items_per_pass=None):
    """Run one benchmark run; returns the report dict (see ``main``)."""
    gen = wl.GENERATORS[workload]
    count = items_per_pass or wl.PASS_ITEMS[workload]
    tail_q, tail_items = wl.TAIL[workload]
    min_passes = 1 if trace else 2
    if items_per_pass is None and not trace:
        min_passes = max(min_passes, -(-tail_items // count))
    setups = []
    first = gen(seed, 0, count)
    # set-up probes go before the first passes, so that they sample the
    # machine over the run rather than over a few seconds
    probes_per_pass = -(-SETUP_PROBES // min_passes)
    passes, traced = [], []
    started = time.monotonic()
    while True:
        while len(setups) < min(SETUP_PROBES, probes_per_pass * (len(passes) + 1)):
            setups.append(run_worker(root, {"workload": workload, "items": first,
                                            "setup_only": True})["setup_s"])
        items = first if not passes else gen(seed, len(passes), count)
        passes.append(run_worker(root, {"workload": workload, "items": items}))
        if trace:
            traced.append(run_worker(root, {"workload": workload, "items": items,
                                            "trace": True}))
        if time.monotonic() - started >= seconds and len(passes) >= min_passes:
            break

    failures = []
    attempted = 0
    for index, rec in enumerate(passes + traced):
        attempted += len(rec["latencies_s"])
        failures += [[index] + f for f in rec["failures"]]
    gate = digest_gate(root, workload, seed, count, passes + traced)
    latencies = [x for rec in passes for x in rec["latencies_s"]]
    setups += [rec["setup_s"] for rec in passes]
    e2e = {
        "setup_s": statistics.median(setups),
        # a mean, not a median: the host switches between a fast and a slow
        # speed for seconds at a time, and a median of few passes jumps
        # between the two where a mean follows their share of the run
        "wall_s": statistics.fmean(rec["wall_s"] for rec in passes),
        "latency_p50_ms": 1000 * statistics.median(latencies),
        "latency_tail_ms": 1000 * percentile(latencies, tail_q),
        "peak_rss_mb": statistics.median(rec["peak_rss_mb"] for rec in passes),
    }
    report = {
        "workload": workload, "seed": seed, "trace": int(bool(trace)),
        "passes": len(passes), "items_per_pass": count,
        "samples": {"setup_s": len(setups), "wall_s": len(passes),
                    "latency": len(latencies), "peak_rss_mb": len(passes)},
        "tail_percentile": tail_q,
        "end_to_end": e2e,
        "pass_wall_s": [rec["wall_s"] for rec in passes],
        "setups_s": setups,
        "attempted": attempted, "failed": len(failures),
        "failures": failures[:20], "gate": gate,
        "correct": not failures and not gate["problems"],
    }
    if trace:
        report["per_layer"], report["absent"] = layer_metrics(passes, traced)
    return report


def layer_metrics(passes, traced):
    """Median over traced passes of each per-layer metric."""
    values = {name: statistics.median(rec["trace"][name] for rec in traced)
              for name in traced[0]["trace"]}
    values["trace.wall_s"] = statistics.median(rec["wall_s"] for rec in traced)
    values["trace.overhead_ratio"] = statistics.median(
        t["wall_s"] / u["wall_s"] for t, u in zip(traced, passes))
    absent = {}
    for rec in traced:
        absent.update(rec["trace_absent"])
    return values, absent


def digest_gate(root, workload, seed, count, records):
    """Compare canonical-output digests with the ones recorded for the
    default seed.  Returns the digests seen and any mismatch."""
    with open(os.path.join(HERE, "expected.json")) as fh:
        want = json.load(fh).get(workload, {})
    gate = {"checked": [], "problems": []}

    def compare(label, got, ref):
        gate["checked"].append(label)
        if got != ref:
            gate["problems"].append("%s digest %s, expected %s" % (label, got, ref))

    if workload == "multivariate":
        # every pass sees the same inputs, so every digest must match
        variant = wl.mv_names(seed)
        key = ",".join(variant)
        if count == wl.PASS_ITEMS[workload] and key in want.get("variants", {}):
            for rec in records:
                compare("variant %s" % key, rec["digest"], want["variants"][key])
        elif len({rec["digest"] for rec in records}) > 1:
            gate["problems"].append("passes over the same inputs disagree")
        return gate
    canary_count = wl.CANARY_ITEMS[workload]
    canary = run_worker(root, {"workload": workload,
                               "items": wl.GENERATORS[workload](wl.DEFAULT_SEED, 0,
                                                                canary_count)})
    compare("canary", canary["digest"], want.get("canary"))
    if canary["failures"]:
        gate["problems"].append("canary items failed: %s" % canary["failures"])
    if seed == wl.DEFAULT_SEED and count == wl.PASS_ITEMS[workload]:
        compare("default seed pass 0", records[0]["digest"], want.get("pass0"))
    return gate


def machine_info(root):
    sha = "unknown"
    head = os.path.join(root, ".git", "HEAD")
    if os.path.isfile(head):
        with open(head) as fh:
            ref = fh.read().strip()
        sha = ref
        if ref.startswith("ref: "):
            path = os.path.join(root, ".git", ref[5:])
            if os.path.isfile(path):
                with open(path) as fh:
                    sha = fh.read().strip()
    return {"machine": platform.machine(), "platform": platform.platform(),
            "processor": platform.processor(), "nproc": len(os.sched_getaffinity(0)),
            "python": platform.python_version(), "git_sha": sha}


def result_line(report):
    section = "per_layer" if report["trace"] else "end_to_end"
    units, values = metric_units(section), report[section]
    return {"correct": report["correct"], "attempted": report["attempted"],
            "failed": report["failed"],
            "metrics": {name: {"value": values[name], "unit": units[name]}
                        for name in units}}


def print_report(report):
    print("workload %s, seed %d, %d passes of %d items, closed loop, one caller"
          % (report["workload"], report["seed"], report["passes"],
             report["items_per_pass"]))
    samples = report["samples"]
    units = metric_units("end_to_end")
    for name, value in report["end_to_end"].items():
        n = samples["latency" if name.startswith("latency") else name]
        extra = ""
        if name == "latency_tail_ms":
            extra = " (p%g)" % report["tail_percentile"]
        print("  %-16s %12.4f %-3s n=%d%s" % (name, value, units[name], n, extra))
    print("  failure_ratio    %d/%d" % (report["failed"], report["attempted"]))
    for f in report["failures"]:
        print("  FAILED pass %d item %d: %s" % tuple(f))
    for p in report["gate"]["problems"]:
        print("  GATE: %s" % p)
    if report["trace"]:
        for name, unit in metric_units("per_layer").items():
            print("  %-42s %14.6g %s" % (name, report["per_layer"][name], unit))
        for name, reason in sorted(report["absent"].items()):
            print("  absent %s: %s" % (name, reason))


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=wl.WORKLOADS)
    ap.add_argument("--seed", type=int, default=wl.DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=25)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--items", type=int, default=None,
                    help="items per pass (default: the workload's fixed size)")
    ap.add_argument("--out", default=None,
                    help="append the full report as one JSON line to this file")
    args = ap.parse_args(argv)
    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "charp", "__init__.py")):
        sys.stderr.write("run from the root of a charp checkout: no src/charp here\n")
        return 2
    try:
        report = measure(root, args.workload, args.seed, args.seconds,
                         args.trace, args.items)
    except BenchError as err:
        sys.stderr.write("benchmark failed: %s\n" % err)
        return 2
    if args.out:
        with open(args.out, "a") as fh:
            fh.write(json.dumps(dict(report, machine=machine_info(root))) + "\n")
    print_report(report)
    print(json.dumps(result_line(report)))
    return 0 if report["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
