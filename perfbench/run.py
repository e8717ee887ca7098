"""Benchmark of the sgdtors torsor-classification stack.

Run from the repository root:

    python3 perfbench/run.py --workload circle-iso --seed 1 --seconds 40 --trace 0

With ``--trace 0`` the run makes one pass over the workload's operations,
then more while the next pass should end within ``--seconds``, and
reports the end-to-end metrics, its times in reference seconds (see
hostspeed.py).  With ``--trace 1`` it runs one pass with every layer
wrapped and reports the per-layer metrics, its times in wall seconds.
The last line of standard output is one JSON object: ``correct``,
``attempted``, ``failed`` and ``metrics``.  Progress and failures go to
standard error.  See README.md beside this file for the workloads and
metrics.
"""

from __future__ import annotations

import argparse
import importlib
import json
import os
import pkgutil
import resource
import signal
import statistics
import sys
from pathlib import Path
from time import perf_counter

# String hashing is randomised per process unless pinned.  Pin it, by
# replacing this process with a pinned one, so that every run lays out
# its dicts and sets alike and runs differ only in host speed.
if __name__ == "__main__" and os.environ.get("PYTHONHASHSEED") != "0":
    os.environ["PYTHONHASHSEED"] = "0"
    os.execv(sys.executable, [sys.executable, *sys.argv])

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import hostspeed  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

# Set-up runs this many times before every pass and as many times after
# the last, so its median samples the host across the whole run.
SETUP_REPEATS = 3
# No pass starts, and no operation runs on, past this many seconds from
# process start, so a run ends well inside three minutes.
RUN_LIMIT_S = 150.0
OP_TIMEOUT_S = 90.0

END_TO_END = {
    "wall_s": "s",
    "slowest_op_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "success_ratio": "ratio",
}


class OpTimeout(Exception):
    pass


def _on_alarm(signum, frame):
    raise OpTimeout()


def fresh_import():
    """Import every sgdtors module anew; returns them by name."""
    for name in [m for m in sys.modules if m == "sgdtors" or m.startswith("sgdtors.")]:
        del sys.modules[name]
    package = importlib.import_module("sgdtors")
    modules = {"sgdtors": package}
    for info in pkgutil.iter_modules(package.__path__):
        name = f"sgdtors.{info.name}"
        modules[name] = importlib.import_module(name)
    return modules


def set_up(workload, seed, times, host):
    """Set up SETUP_REPEATS times, appending each one's reference
    seconds to times; returns the modules and operations of the last."""
    for _ in range(SETUP_REPEATS):
        mark = host.begin()
        modules = fresh_import()
        ops = workloads.WORKLOADS[workload](seed)
        times.append(host.end(mark)[0])
    return modules, ops


def run_pass(ops, t0, tracer=None, host=None):
    """One pass; returns [(name, seconds, failure or None)], in
    reference seconds if host is given and wall seconds if not."""
    results = []
    for i, (name, run) in enumerate(ops):
        if tracer is not None:
            tracer.op = i
        limit = min(OP_TIMEOUT_S, RUN_LIMIT_S - (perf_counter() - t0))
        mark = host.begin() if host is not None else None
        start = perf_counter()
        try:
            if limit <= 0:
                raise OpTimeout()
            signal.setitimer(signal.ITIMER_REAL, limit)
            try:
                failure = run()
            finally:
                signal.setitimer(signal.ITIMER_REAL, 0)
        except OpTimeout:
            failure = "timed out"
        except Exception as exc:  # any exception is a failed operation
            failure = f"raised {type(exc).__name__}: {exc}"
        seconds = perf_counter() - start if host is None else host.end(mark)[0]
        results.append((name, seconds, failure))
        if failure:
            print(f"FAILED {name}: {failure}", file=sys.stderr)
    return results


def traced_run(workload, seed, modules, ops, t0):
    """One pass with every layer wrapped; returns (passes, metrics)."""
    tracer = tracing.Tracer()
    tracer.install(modules)
    start = perf_counter()
    passes = [run_pass(ops, t0, tracer)]
    metrics = tracer.metrics(workload, perf_counter() - start)
    workloads.WORK.mkdir(parents=True, exist_ok=True)
    tracer.write(workloads.WORK / f"spans-{workload}-{seed}.json", [name for name, _ in ops])
    return passes, metrics


def timed_run(workload, seed, seconds, setup_times, ops, t0, host):
    """Untraced passes, each after a fresh set-up; returns (passes,
    end-to-end metrics)."""
    passes, walls = [], []
    start = perf_counter()
    # start another pass only if it should end inside the run's seconds
    while not passes or (
        perf_counter() - start + walls[-1] <= seconds
        and perf_counter() - t0 + walls[-1] < RUN_LIMIT_S
    ):
        if passes:
            _, ops = set_up(workload, seed, setup_times, host)
        wall, cpu, probes = perf_counter(), os.times(), len(host.samples)
        passes.append(run_pass(ops, t0, host=host))
        walls.append(perf_counter() - wall)
        now = os.times()
        print(json.dumps({
            "pass": len(passes), "wall_s": walls[-1],
            "user_s": now.user - cpu.user, "sys_s": now.system - cpu.system,
            "probe_s": statistics.fmean(host.samples[probes:]),
            "ops_ref_s": {name: t for name, t, _ in passes[-1]},
        }), file=sys.stderr)
    set_up(workload, seed, setup_times, host)
    attempted = sum(len(p) for p in passes)
    passed = sum(f is None for p in passes for _, _, f in p)
    return passes, {
        "wall_s": statistics.median(sum(t for _, t, _ in p) for p in passes),
        "slowest_op_s": statistics.median(max(t for _, t, _ in p) for p in passes),
        "setup_s": statistics.median(setup_times),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "success_ratio": passed / attempted,
    }


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args(argv)
    t0 = perf_counter()
    signal.signal(signal.SIGALRM, _on_alarm)
    setup_times = []
    host = hostspeed.HostSpeed()
    try:
        modules, ops = set_up(args.workload, args.seed, setup_times, host)
    except ImportError as exc:
        print(f"cannot import the program: {exc}", file=sys.stderr)
        return 2
    if args.trace:
        try:
            passes, metrics = traced_run(args.workload, args.seed, modules, ops, t0)
        except tracing.CoverageError as exc:
            print(f"trace coverage: {exc}", file=sys.stderr)
            return 3
        units = tracing.metric_units()
    else:
        host.start()
        passes, metrics = timed_run(args.workload, args.seed, args.seconds, setup_times,
                                    ops, t0, host)
        host.stop()
        units = END_TO_END
    failed = sum(f is not None for p in passes for _, _, f in p)
    print(json.dumps({
        "correct": failed == 0,
        "attempted": sum(len(p) for p in passes),
        "failed": failed,
        "metrics": {k: {"value": metrics[k], "unit": u} for k, u in units.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
