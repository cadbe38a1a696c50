"""Self-test of the benchmark: output shape and live gates.

    python3 perfbench/selftest.py

Run from the root of a source checkout.  It checks that

1. every workload, run at the smallest size (two tasks) untraced and traced,
   prints as its last line every metric BENCHMARK.json names, with its unit;
2. every gate accepts the real output of sample tasks and rejects the same
   output perturbed (a closed form scaled by 1 + 1e-3, a slot of the series
   scaled, a degeneration added or removed, a curve moved off its level
   set), so that no gate is vacuous;
3. voros_oracle refuses an input list that repeats an oracle cache key, and
   the chamber-V reproducer is reported as failing (a known defect; a line
   says so if it starts to pass).

Exits with 1 if any check fails.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path[:0] = [os.path.join(ROOT, "src"), HERE]

problems = []


def expect(ok: bool, what: str) -> None:
    print(f"{'ok  ' if ok else 'FAIL'} {what}")
    if not ok:
        problems.append(what)


def check_output_shape(spec: dict, names) -> None:
    for trace, key in ((0, "end_to_end"), (1, "per_layer")):
        want = {m["name"]: m["unit"] for m in spec[key]}
        for name in names:
            cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", name,
                   "--seed", "1", "--seconds", "1", "--trace", str(trace), "--tasks", "2"]
            out = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, cwd=ROOT)
            last = json.loads(out.stdout.strip().splitlines()[-1])
            got = {k: v["unit"] for k, v in last["metrics"].items()}
            expect(out.returncode == 0 and got == want
                   and set(last) == {"correct", "attempted", "failed", "metrics"},
                   f"{name} --trace {trace}: exit {out.returncode}, every {key} "
                   f"metric printed with its unit")


def check_gates() -> None:
    import workloads as w

    d7 = 2 + 1j                      # the D7 point of tests/test_voros.py
    samples = {
        w.StokesScan: w.StokesScan.tasks(1, 2),          # W1, a chamber-I draw
        w.VorosOracle: w.VorosOracle.tasks(1, 2)[1:] + [  # P_GEN inf1
            w.Task("d7", f"d7:zero_c:+ c={d7}", (w.EndpointSpec("d7", "zero_c", +1), d7)),
            w.Task("d7_inf", f"d7:inf1:+ c={d7}", (w.EndpointSpec("d7", "inf1", +1), d7))],
        w.SeriesScalar: w.SeriesScalar.tasks(1, 4)[::3],  # D6 N=4, D7 N=4
        w.BorelLaplace: w.BorelLaplace.tasks(1, 2),      # F and G on the real axis
    }
    for workload, tasks in samples.items():
        for task in tasks:
            out = workload.run(task)
            expect(workload.check(task, out).ok, f"{workload.name}: gate accepts {task.label}")
            expect(not workload.check(task, workload.perturb(task, out)).ok,
                   f"{workload.name}: gate rejects perturbed {task.label}")
            if workload is w.StokesScan:
                expect(not workload.check(task, workload.perturb_drift(out)).ok,
                       f"{workload.name}: drift gate rejects a curve moved off its level set")

    repro = w.VorosOracle.tasks(1, 1)[0]
    verdict = w.VorosOracle.check(repro, w.VorosOracle.run(repro))
    print(f"note {repro.label}: " + (f"fails as recorded ({verdict.detail})" if not verdict.ok
                                     else "now passes; the recorded defect is gone"))
    try:
        w.reject_repeated_keys([repro, repro])
        expect(False, "voros_oracle refuses a repeated cache key")
    except ValueError:
        expect(True, "voros_oracle refuses a repeated cache key")


def main() -> None:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    names = [wl["name"] for wl in spec["workloads"]]
    check_output_shape(spec, names)
    check_gates()
    print(f"{len(problems)} problem(s)")
    sys.exit(1 if problems else 0)


if __name__ == "__main__":
    main()
