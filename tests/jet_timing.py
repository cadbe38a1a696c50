"""Timings of the eta-series solves on ``numerics.DenseJets``: batch solves
and residuals, and one-node solves at high N with cold and warm tables.

    PYTHONPATH=src python tests/jet_timing.py

Every figure is the best of 5 wall times, in ms.  The model is D6 at
``Parameters(3 + 1j, 1 + 0.5j)`` (the tests' ``P_GEN``), solved along
+1; the nodes are seeded points t0 in the square 0.8 + 0.6i + [0, 0.4]^2,
each on branch k mod 3 of lambda_0 (the recipe of
``tests/test_jet_orders.py``).  It prints:

- a batch ``zero_param_solution`` plus ``riccati_solution`` at 17 nodes
  (N = 4, K = 8), 400 nodes (N = 4, K = 4 and N = 12, K = 16) and 2,752
  nodes (N = 4, K = 6), and both residuals (``main_equation_residual``
  plus ``riccati_residual``) on the 2,752-node solve;
- the one-node solve (``zero_param_solution`` plus ``riccati_solution``,
  K = N + 4) and its two residuals at N = 40 and N = 80, cold (every
  ``lru_cache`` table of ``numerics`` and ``series`` cleared before the
  call, so that it builds its index tables) and warm, in turn;
- the warm one-node solve in the shapes of the ``series_scalar`` benchmark
  workload: D6 at ``Parameters(3 + 1j, 1 + 0.5j)`` and D7 at c = 2 + i,
  N = 4, 8, 12 and K = N + 4, each the best of 5 means over 20 solves,
  with the ``DenseJets`` kernel calls one solve makes (every call of
  ``products``, ``slots`` (``slot`` where there is no ``slots``), ``mul``,
  ``divide``, ``sqrt``, ``derive``, ``times_t`` and ``t_power``, also
  those made inside another kernel);
- the process's peak RSS.

pytest does not collect this file.
"""

import resource
import time

import numpy as np

from p3wkb import numerics, series
from p3wkb.algebra import BranchPoint, Parameters

MODEL = series.D6Model(Parameters(3 + 1j, 1 + 0.5j))
D7_MODEL = series.D7Model(2 + 1j)
BATCHES = ((17, 4, 8), (400, 4, 4), (2752, 4, 6), (400, 12, 16))
ONE_NODE = (40, 80)
SCALAR_N = (4, 8, 12)
KERNELS = ("products", "slots", "mul", "divide", "sqrt", "derive", "times_t", "t_power")
REPEAT = 5


def nodes(count: int, model=MODEL):
    """``count`` seeded base points and their lambda_0 branch points."""
    rng = np.random.default_rng(count)
    ts = 0.8 + 0.6j + 0.4 * (rng.random(count) + 1j * rng.random(count))
    lams = np.array([model.branches(complex(t))[k % 3].lambda0 for k, t in enumerate(ts)])
    return ts, BranchPoint(ts, lams)


def solve(t0, branch, N: int, K: int, model=MODEL):
    zp = series.zero_param_solution(t0, branch, N=N, K=K, model=model)
    return zp, series.riccati_solution(zp, +1)


def kernel_calls(call) -> dict:
    """The ``DenseJets`` kernel calls of ``KERNELS`` that ``call()`` makes,
    by name."""
    names = [n if n != "slots" or hasattr(numerics.DenseJets, n) else "slot" for n in KERNELS]
    saved = {name: vars(numerics.DenseJets)[name] for name in names}
    counts = dict.fromkeys(names, 0)

    def counted(name, f):
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return f(*args, **kwargs)
        return wrapper

    try:
        for name, member in saved.items():
            if isinstance(member, staticmethod):
                member = staticmethod(counted(name, member.__func__))
            else:
                member = counted(name, member)
            setattr(numerics.DenseJets, name, member)
        call()
    finally:
        for name, member in saved.items():
            setattr(numerics.DenseJets, name, member)
    return counts


def residuals(zp, ric):
    return series.main_equation_residual(zp), series.riccati_residual(ric.R, zp)


def ms(call) -> float:
    """The best of ``REPEAT`` wall times of ``call()``, in ms."""
    best = float("inf")
    for _ in range(REPEAT):
        start = time.perf_counter()
        call()
        best = min(best, time.perf_counter() - start)
    return 1e3 * best


def cold_and_warm(call) -> tuple:
    """The best of ``REPEAT`` wall times of ``call()`` with its tables
    cleared first (cold) and of the call right after (warm), in ms.  The
    two alternate, so that a change in the host's speed reaches both."""
    cold = warm = float("inf")
    for _ in range(REPEAT):
        clear_tables()
        start = time.perf_counter()
        call()
        middle = time.perf_counter()
        call()
        cold, warm = min(cold, middle - start), min(warm, time.perf_counter() - middle)
    return 1e3 * cold, 1e3 * warm


def clear_tables():
    """Empty every ``lru_cache`` of ``numerics`` and ``series``."""
    for module in (numerics, series):
        for value in vars(module).values():
            if hasattr(value, "cache_clear"):
                value.cache_clear()


def main():
    for count, N, K in BATCHES:
        ts, branch = nodes(count)
        print(f"batch {count:5d} nodes, N = {N:2d}, K = {K:2d}: solve + Riccati "
              f"{ms(lambda: solve(ts, branch, N, K)):8.2f} ms")
        if count == 2752:
            out = solve(ts, branch, N, K)
            print(f"batch {count:5d} nodes, N = {N:2d}, K = {K:2d}: both residuals "
                  f"{ms(lambda: residuals(*out)):8.2f} ms")
    ts, branch = nodes(1)
    t0, one = complex(ts[0]), BranchPoint(complex(ts[0]), complex(branch.lambda0[0]))
    for N in ONE_NODE:
        cold, warm = cold_and_warm(lambda: solve(t0, one, N, N + 4))
        out = solve(t0, one, N, N + 4)
        cold_res, warm_res = cold_and_warm(lambda: residuals(*out))
        print(f"one node, N = {N}: solve + Riccati cold {cold:8.1f} ms, warm {warm:8.1f} ms; "
              f"both residuals cold {cold_res:8.1f} ms, warm {warm_res:8.1f} ms")
    for model in (MODEL, D7_MODEL):
        ts, branch = nodes(1, model)
        t0, one = complex(ts[0]), BranchPoint(complex(ts[0]), complex(branch.lambda0[0]))
        for N in SCALAR_N:
            def twenty():
                for _ in range(20):
                    solve(t0, one, N, N + 4, model)
            calls = kernel_calls(lambda: solve(t0, one, N, N + 4, model))
            print(f"one node, {type(model).__name__[:2]}, N = {N:2d}, K = {N + 4:2d}: warm solve + "
                  f"Riccati {ms(twenty) / 20:6.3f} ms, {sum(calls.values())} kernel calls ("
                  + ", ".join(f"{name} {n}" for name, n in calls.items()) + ")")
    print(f"peak RSS {resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024:.0f} MB")


if __name__ == "__main__":
    main()
