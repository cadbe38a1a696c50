"""Benchmark of p3wkb: Stokes scans, Voros contour checks, scalar eta-series
solves and Borel-Laplace checks.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

NAME is one of stokes_scan, voros_oracle, series_scalar, borel_laplace, or
``all`` (each workload in turn, each in its own interpreter).  Run it from
the root of a source checkout; the package is imported from ``src/``.

``--trace 0`` runs as many closed-loop tasks as take about S seconds at
the workload's nominal rate, always the same number for a given S, and
prints the end-to-end metrics.  ``--trace 1`` runs a third of that number,
first untraced in a fresh interpreter and then traced in this one, and
prints the per-layer metrics and the tracing overhead.  So a run's inputs,
its failures and its traced counts repeat exactly for a given seed and S.
``--tasks K`` runs the first K tasks instead.  Task and set-up times are
scaled to a reference host speed (see ``HostClock``).

Every task is checked against an oracle; the last line of standard
output is one JSON object with the keys correct, attempted, failed and
metrics.  ``correct`` says every attempted task was checked; a task whose
check failed, or that raised, is counted in ``failed``.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import resource
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
SPAN_DIR = os.path.join(ROOT, ".perfbench_out")
SETUP_REPEATS = 7
TAIL_LADDER = (99, 95, 90, 80, 75, 50)
PROBE_LOOPS = 2000
#: The probe's time at the reference host speed: that of the 2-core host the
#: baselines in README.md were measured on, at its usual speed.
PROBE_NOMINAL_S = 4.0e-4
#: How strongly interpreter-bound work follows the probe: when the host
#: slows the probe by a factor x, it slows such work by about x ** 0.8.
#: Fitted, like each workload's ``host_exponent``, on same-seed runs.
INTERPRETER_EXPONENT = 0.8


def fail(message: str) -> None:
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def host_probe() -> float:
    """Seconds of a fixed pure-Python loop, the best of three: the host's
    speed at this moment.  The loop is the benchmark's own code, so no
    change to the package moves it."""
    best = math.inf
    for _ in range(3):
        start = time.perf_counter()
        acc, slots = 0.0, {}
        for i in range(PROBE_LOOPS):
            acc += (i * 0.5) ** 2
            slots[i & 63] = acc
        best = min(best, time.perf_counter() - start)
    return best


class HostClock:
    """Wall times scaled to the reference host speed.

    The shared host's speed drifts by up to 1.6x in phases of seconds, and
    it moves every workload's times with it.  So a probe runs after each timed
    interval, and the interval is scaled by PROBE_NOMINAL_S over the mean of
    the two probes that bracket it, raised to ``exponent``: how strongly the
    timed work follows the probe.  Raw wall times are kept for the
    report."""

    def __init__(self, exponent: float):
        self.exponent = exponent
        self.probes = [host_probe()]
        self.walls = []

    def add(self, wall: float) -> None:
        self.walls.append(wall)
        self.probes.append(host_probe())

    def scales(self) -> list:
        return [(2 * PROBE_NOMINAL_S / (a + b)) ** self.exponent
                for a, b in zip(self.probes, self.probes[1:])]

    def scaled(self) -> list:
        return [wall * k for wall, k in zip(self.walls, self.scales())]


def measure_setup() -> float:
    """Median time, scaled to the reference host speed, of fresh
    interpreters that import p3wkb and finish its lazy first-call set-up
    (the Laplace kernel gate)."""
    clock = HostClock(INTERPRETER_EXPONENT)
    for _ in range(SETUP_REPEATS):
        start = time.perf_counter()
        subprocess.run([sys.executable, os.path.join(HERE, "setup_probe.py")],
                       check=True)
        clock.add(time.perf_counter() - start)
    return statistics.median(clock.scaled())


def tail(times: list) -> tuple:
    """(value, percentile, tasks beyond it): the highest percentile of the
    ladder with at least ten tasks beyond it, by nearest rank; the maximum
    when there are too few tasks for any."""
    xs = sorted(times)
    n = len(xs)
    for pct in TAIL_LADDER:
        rank = math.ceil(pct / 100 * n)
        if n - rank >= 10:
            return xs[rank - 1], pct, n - rank
    return xs[-1], 100, 0


def run_tasks(workload, tasks, tracer=None) -> dict:
    """Closed loop over ``tasks``.  Only ``run`` is timed, and scaled to the
    reference host speed; the probes and the gate run untraced."""
    fails, digits, errors, details = 0, [], {}, []
    clock = HostClock(workload.host_exponent)
    for i, task in enumerate(tasks):
        if tracer is not None:
            tracer.task, tracer.active = i, True
        t0 = time.perf_counter()
        try:
            out = workload.run(task)
        except Exception as exc:           # a task that raises is a failed task
            out = exc
        dt = time.perf_counter() - t0
        if tracer is not None:
            tracer.active = False
        clock.add(dt)
        if isinstance(out, Exception):
            name = f"{type(out).__module__.removeprefix('p3wkb.')}.{type(out).__name__}"
            errors[name] = errors.get(name, 0) + 1
            fails += 1
            details.append(f"{task.label}: {name}: {out}")
            continue
        verdict = workload.check(task, out)
        if not verdict.ok:
            fails += 1
            errors["bench.gate_miss"] = errors.get("bench.gate_miss", 0) + 1
            details.append(f"{task.label}: {verdict.detail}")
        elif verdict.digits is not None:
            digits.append(verdict.digits)
    return {"times": clock.scaled(), "failed": fails, "digits": digits,
            "errors": errors, "details": details, "clock": clock}


def end_to_end(workload, result, setup_s) -> dict:
    times = result["times"]
    n = len(times)
    tail_s, pct, beyond = tail(times)
    # The median, not the worst: the worst passing check is floored by the
    # gate's own tolerance and swings with single draws; both are reported.
    digits = statistics.median(result["digits"]) if result["digits"] else 0.0
    return {
        "setup_s": (setup_s, "s"),
        "task_s_p50": (statistics.median(times), "s"),
        "task_s_tail": (tail_s, "s"),
        "tasks_per_s": (n / sum(times), "1/s"),
        "passed_share": ((n - result["failed"]) / n, "share"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
        "accuracy_digits": (digits, "digits"),
    }, f"p{pct}, {beyond} of {n} tasks beyond it"


def report(workload, seed, result, metrics, notes: dict) -> None:
    n, failed = len(result["times"]), result["failed"]
    clock = result["clock"]
    scales = clock.scales()
    print(f"workload {workload.name}  seed {seed}  tasks {n}  failed {failed}")
    print(f"  times scaled to the reference host speed; raw median task "
          f"{statistics.median(clock.walls):.6g} s; scale factor median "
          f"{statistics.median(scales):.3f}, range {min(scales):.3f}-{max(scales):.3f}")
    for name, (value, unit) in metrics.items():
        note = f"  ({notes[name]})" if name in notes else ""
        print(f"  {name:<40} {value:>14.6g} {unit}{note}")
    if result["digits"]:
        ds = sorted(result["digits"])
        print(f"  {workload.digits_name}: worst {ds[0]:.3f}, p10 {ds[len(ds) // 10]:.3f}, "
              f"median {statistics.median(ds):.3f} digits over {len(ds)} passing checks")
    for line in result["details"]:
        print(f"  failed: {line}")
    for name, count in sorted(result["errors"].items()):
        print(f"  {name}.count = {count}")


def emit(result, metrics) -> None:
    n = len(result["times"])
    print(json.dumps({
        "correct": True,
        "attempted": n,
        "failed": result["failed"],
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))


def untraced_reference(args, count: int) -> dict:
    """The same first ``count`` tasks, untraced, in a fresh interpreter."""
    cmd = [sys.executable, os.path.abspath(__file__), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", "0", "--tasks", str(count)]
    out = subprocess.run(cmd, check=True, stdout=subprocess.PIPE, text=True).stdout
    return json.loads(out.strip().splitlines()[-1])["metrics"]


def traced(args, workload) -> None:
    from tracing import Tracer

    # Untraced and traced passes together take about the run's seconds.
    count = args.tasks or max(1, math.floor(args.seconds * workload.rate / 3))
    reference = untraced_reference(args, count)
    tasks = workload.tasks(args.seed, count)
    tracer = Tracer()
    tracer.install()
    result = run_tasks(workload, tasks, tracer)
    metrics = tracer.layer_metrics(result["errors"])
    untraced_s = count / reference["tasks_per_s"]["value"]
    overhead = sum(result["times"]) - untraced_s
    metrics["trace.overhead_s"] = (overhead, "s")
    metrics["trace.overhead_share"] = (overhead / untraced_s, "share")
    metrics["bench.gate_miss.count"] = (result["errors"].get("bench.gate_miss", 0), "count")
    os.makedirs(SPAN_DIR, exist_ok=True)
    path = os.path.join(SPAN_DIR, f"spans-{workload.name}-seed{args.seed}.jsonl")
    tracer.write_spans(path)
    report(workload, args.seed, result, metrics,
           {"trace.overhead_s": f"traced minus untraced task time over {count} tasks"})
    print(f"  spans: {len(tracer.spans)} stored in {os.path.relpath(path, ROOT)}")
    emit(result, metrics)


def run_all(args) -> None:
    """Every workload in turn, each in its own interpreter."""
    from workloads import WORKLOADS

    merged, correct, attempted, failed = {}, True, 0, 0
    for name in WORKLOADS:
        cmd = [sys.executable, os.path.abspath(__file__), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        if args.tasks:
            cmd += ["--tasks", str(args.tasks)]
        lines = subprocess.run(cmd, check=True, stdout=subprocess.PIPE,
                               text=True).stdout.strip().splitlines()
        print("\n".join(lines[:-1]))
        res = json.loads(lines[-1])
        correct &= res["correct"]
        attempted += res["attempted"]
        failed += res["failed"]
        merged.update({f"{name}.{k}": v for k, v in res["metrics"].items()})
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": merged}))


def main(argv=None) -> None:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--tasks", type=int, default=0,
                    help="run exactly this many tasks instead of --seconds")
    args = ap.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "p3wkb", "__init__.py")):
        fail(f"no package source under {SRC}; run from a source checkout")
    sys.path[:0] = [SRC, HERE]
    if args.workload == "all":
        run_all(args)
        return

    import setup_probe
    setup_probe.prepare()
    from workloads import WORKLOADS, run_size

    if args.workload not in WORKLOADS:
        fail(f"unknown workload {args.workload!r}; choose from {', '.join(WORKLOADS)} or all")
    workload = WORKLOADS[args.workload]
    if args.trace:
        traced(args, workload)
        return
    setup_s = measure_setup()
    count = args.tasks or run_size(workload, args.seconds)
    result = run_tasks(workload, workload.tasks(args.seed, count))
    if not result["times"]:
        fail("no task ran")
    metrics, tail_note = end_to_end(workload, result, setup_s)
    report(workload, args.seed, result, metrics,
           {"task_s_tail": tail_note, "setup_s": f"median of {SETUP_REPEATS} fresh interpreters",
            "accuracy_digits": f"median {workload.digits_name} of passing checks"})
    emit(result, metrics)


if __name__ == "__main__":
    main()
