"""One workload process: set up, run a pass of items, report as JSON.

Run by ``run.py`` with the job as JSON on standard input; the result is the
last line of standard output.  Every pass is a fresh process, so the
package's module-level memo dicts start empty, as they do for a user.
"""

import time

_STARTED = time.clock_gettime(time.CLOCK_MONOTONIC)

import hashlib  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402


def main() -> int:
    job = json.loads(sys.stdin.read())
    src = os.path.join(job["root"], "src")
    if not os.path.isfile(os.path.join(src, "charp", "__init__.py")):
        sys.stderr.write("no charp sources under %s\n" % src)
        return 2
    sys.path.insert(0, src)
    import workloads

    result = run_job(job, workloads)
    sys.stdout.write(json.dumps(result) + "\n")
    return 0


def run_job(job, workloads) -> dict:
    """Set up, run every item in order, then check every output; the timed
    phase covers only the program's calls."""
    import charp
    if not os.path.realpath(charp.__file__).startswith(
            os.path.realpath(os.path.join(job["root"], "src")) + os.sep):
        raise RuntimeError("charp imported from %s, not from the checkout"
                           % charp.__file__)
    name = job["workload"]
    items = job["items"]
    ctx = workloads.setup(name, items)
    setup_s = time.clock_gettime(time.CLOCK_MONOTONIC) - job.get("spawned", _STARTED)
    if job.get("setup_only"):
        return {"setup_s": setup_s}
    tracer = None
    if job.get("trace"):
        from layertrace import Tracer
        tracer = Tracer()
        tracer.install()
    runner = workloads.RUNNERS[name]
    check = workloads.CHECKS[name]
    clock = time.perf_counter
    latencies, results, failures = [], [], []
    begin = clock()
    if tracer is not None:
        tracer.reset(begin)
    for item in items:
        start = clock()
        try:
            results.append(runner(ctx, item))
        except Exception as err:  # a failed item is recorded, not fatal
            results.append(err)
        latencies.append(clock() - start)
    wall_s = clock() - begin
    if tracer is not None:
        tracer.uninstall()
    outputs = []
    for index, (item, out) in enumerate(zip(items, results)):
        if isinstance(out, Exception):
            failures.append([index, "%s: %s" % (type(out).__name__, out)])
            outputs.append("error")
            continue
        outputs.append(out["output"])
        try:
            problem = check(item, out)
        except (KeyError, ValueError, StopIteration) as err:
            problem = "unreadable output (%s: %s)" % (type(err).__name__, err)
        if problem is not None:
            failures.append([index, problem])
    result = {
        "setup_s": setup_s,
        "wall_s": wall_s,
        "latencies_s": latencies,
        "failures": failures,
        "digest": digest(outputs),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    if tracer is not None:
        result["trace"] = tracer.metrics()
        result["trace_outside_s"] = tracer.outside_s
        result["trace_absent"] = tracer.absent_metrics()
    return result


def digest(outputs) -> str:
    """SHA-256 over the canonical outputs, in item order."""
    h = hashlib.sha256()
    for text in outputs:
        data = text.encode()
        h.update(b"%d:" % len(data))
        h.update(data)
    return h.hexdigest()


if __name__ == "__main__":
    sys.exit(main())
