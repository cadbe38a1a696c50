"""The W_2 sweep: the largest relative error of the contour oracle's W_2
against the closed form over the benchmark's Voros checks.

    PYTHONPATH=src python tests/w2_sweep.py

It scores max |W_2 - closed| / |closed| over ``VorosOracle.tasks(seed, 60)``
of ``perfbench/workloads.py`` for seeds 101-110, skipping the D7 u =
infinity checks (``d7_inf``, whose closed form vanishes), and prints the
figure with the seed and label of the check that sets it, and the nodes of
those checks summed by the read that gave B_2n there: off the family table
in float64, off it again in 80 bits, or from the node solve (the oracle's
``diagnostics``: ``nodes``, ``wide_nodes``, ``node_solves``), and the
largest batch of nodes one check sends to the node solve, with the count of
checks that send any.  The task count
fixes the list: it sets the number of rounds, and so which D7 draws come
before the D6 draws.  The workloads file is read as ``test_perfbench_api``
reads it, leaving no bytecode cache in ``perfbench/``.  pytest does not
collect this file.
"""

import importlib.util
import pathlib
import sys
import time

SEEDS, COUNT = range(101, 111), 60


def _workloads():
    path = pathlib.Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("perfbench_workloads", path)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module       # dataclasses look their module up here
    dont_write, sys.dont_write_bytecode = sys.dont_write_bytecode, True
    try:
        spec.loader.exec_module(module)
    finally:
        sys.dont_write_bytecode = dont_write
    return module


def sweep() -> tuple:
    """((error, seed, label) of the worst W_2 check, the nodes summed over
    the checks as (float64 table, 80-bit table, node solve), (nodes, seed,
    label) of the largest node-solve batch, (checks with node solves,
    checks))."""
    oracle = _workloads().VorosOracle
    worst, reads = (-1.0, None, None), [0, 0, 0]
    largest, solving, checks = (0, None, None), 0, 0
    for seed in SEEDS:
        for task in oracle.tasks(seed, COUNT):
            if task.kind == "d7_inf":
                continue
            closed, values, diagnostics = oracle.run(task)
            worst = max(worst, (abs(values[2] - closed[2]) / abs(closed[2]), seed, task.label))
            d = diagnostics[2]
            if d["node_solves"] > largest[0]:
                largest = (d["node_solves"], seed, task.label)
            solving, checks = solving + (d["node_solves"] > 0), checks + 1
            for i, count in enumerate((d["nodes"] - d["wide_nodes"] - d["node_solves"],
                                       d["wide_nodes"], d["node_solves"])):
                reads[i] += count
    return worst, tuple(reads), largest, (solving, checks)


if __name__ == "__main__":
    start = time.perf_counter()
    (err, seed, label), (table, wide, solved), (batch, b_seed, b_label), (solving, checks) = sweep()
    print(f"max |W_2 - closed| / |closed| = {err:.3e}  (seed {seed}, {label})"
          f"  [{time.perf_counter() - start:.1f} s]")
    print(f"nodes: {table} float64 table, {wide} 80-bit table, {solved} node solve")
    print(f"largest node-solve batch: {batch} nodes (seed {b_seed}, {b_label});"
          f" {solving} of {checks} checks solve nodes")
