"""Seeded inputs, tasks and correctness gates of the four workloads.

Every workload is a closed loop with one caller: a task starts when the
previous one has finished and been checked.  A task is timed on its own
(``run``); its gate (``check``) runs outside the timed region and compares
the output with an oracle the package already has.  A gate miss or an
exception is a failed task: it is counted, never retried and never
replaced by another draw.

The package is reached only through module attributes (``voros.f(...)``,
never ``from voros import f``), so the traced run sees every call.
"""

from __future__ import annotations

import cmath
import math
import random
from dataclasses import dataclass, replace

import numpy as np

from p3wkb import borel, geometry, series, voros, walls
from p3wkb.algebra import (AlgebraError, Parameters, d7_lambda0_branches,
                           lambda0_branches)
from p3wkb.voros import EndpointSpec

N_MAX = 2                 # Voros orders checked; the regime the tests claim
ORACLE_TOL = 1e-5         # tests/test_voros.py
D7_INF_TOL = {1: 1e-8, 2: 1e-5}
RESIDUAL_TOL = 1e-9       # tests/test_series.py, relative to the slot size
LAPLACE_TOL = 1e-8        # tests/test_borel.py
DRIFT_TOL = 1e-6          # geometry.EPS_TRACE, as in tests/test_geometry.py
DIGITS_CAP = 17.0         # an error of exactly zero reads as 17 digits

#: One representative per wall, from tests/test_walls.py (WALL_POINTS).
WALL_POINTS = {
    "W1": Parameters(2 + 1j, 3j),
    "W2": Parameters(2, 2 - 1j),
    "W3": Parameters(1j, 3 + 0.5j),
    "W4": Parameters(-2 + 1j, 2 + 0.5j),
    "W5": Parameters(-3 + 1j, 0.5j),
    "W6": Parameters(-2 + 1j, -2 + 0.5j),
    "W7": Parameters(1j, -3 + 0.5j),
    "W8": Parameters(2 + 1j, -2 + 0.5j),
}
ROMAN = ["I", "II", "III", "IV", "V", "VI", "VII", "VIII"]

#: Degeneration each wall's jumping coefficient forces (tests/test_walls.py).
EXPECTED_DEGENERATION = {
    "G(c_0)": ("loop", "zero_c0"),
    "G(c_inf)": ("loop", "zero_cinf"),
    "F(c_m)": ("triangle", None),
    "F(c_p)": ("triangle", None),
}

#: P_GEN of tests/test_voros.py.
P_GEN = Parameters(3 + 1j, 1 + 0.5j)

#: Chamber-V point where the oracle's W_2 at d6:inf1:+ misses the closed form
#: by 2.6 relative while its own diagnostics are clean (a known defect).
REPRODUCER = (EndpointSpec("d6", "inf1", +1),
              Parameters(-2.28992598346274 + 0.3078450670676809j,
                         -1.8157789096795514 + 0.23112540915714153j))

D6_TARGETS = ("inf1", "inf2", "inf3", "inf4", "zero_cinf", "zero_c0")


def run_size(workload, seconds: float) -> int:
    """Tasks in a run of about ``seconds`` at the workload's nominal rate:
    the leading fixed tasks plus whole rounds, at least one.  A run's size
    depends only on ``seconds``, so its tasks, and which of them fail, are
    the same on every run with the same seed."""
    rounds = round((seconds * workload.rate - workload.lead) / workload.round_size)
    return workload.lead + max(1, rounds) * workload.round_size


def stratified(rng: random.Random, n: int) -> list:
    """n numbers in [0, 1), one in each of n equal strata, in seeded order:
    a seeded draw whose spread over a run does not depend on the seed."""
    order = list(range(n))
    rng.shuffle(order)
    return [(k + rng.random()) / n for k in order]


def digits(err: float) -> float:
    """Decimal digits of agreement, -log10(err), capped for err == 0."""
    return DIGITS_CAP if err <= 0 else min(DIGITS_CAP, -math.log10(err))


def chamber_sample(rng: random.Random, k: int) -> Parameters:
    """Generic parameter strictly inside chamber k (0-based): the recipe of
    ``_chamber_sample`` in tests/test_walls.py.  Draws the Parameters
    constructor rejects as degenerate are drawn again, as there."""
    while True:
        theta = math.radians(45 * k + rng.uniform(6.0, 39.0))
        r = rng.uniform(0.8, 3.0)
        try:
            return Parameters(complex(r * math.cos(theta), rng.uniform(-1, 1)),
                              complex(r * math.sin(theta), rng.uniform(-1, 1)))
        except AlgebraError:
            continue


@dataclass(frozen=True)
class Task:
    kind: str          # workload-specific sub-kind, used by the gates
    label: str         # human-readable description of the input
    args: tuple


@dataclass
class Verdict:
    ok: bool
    digits: float | None     # accuracy of a passing check, None if n/a
    detail: str = ""


# ---------------------------------------------------------------------------
# stokes_scan: walls.classify + geometry.stokes_diagram
# ---------------------------------------------------------------------------

class StokesScan:
    name = "stokes_scan"
    digits_name = "drift_digits"
    rate = 3.5             # nominal tasks/s at the seed commit; sizes the runs
    round_size, lead = 9, 0
    host_exponent = 0.8    # interpreter-bound: see run.HostClock

    @staticmethod
    def tasks(seed: int, count: int) -> list:
        """Rounds of one draw per chamber plus one wall representative, the
        walls cycling W1..W8, so every run sees all chambers in equal share
        and the walls in a fixed order."""
        rng = random.Random(seed)
        walls_cycle = sorted(WALL_POINTS)
        out = []
        r = 0
        while len(out) < count:
            label = walls_cycle[r % 8]
            out.append(Task("wall", label, (label, WALL_POINTS[label])))
            for k in range(8):
                p = chamber_sample(rng, k)
                out.append(Task("chamber", f"chamber {ROMAN[k]} {p}", (ROMAN[k], p)))
            r += 1
        return out[:count]

    @staticmethod
    def run(task: Task):
        p = task.args[1]
        return walls.classify(p), geometry.stokes_diagram(p)

    @staticmethod
    def check(task: Task, out) -> Verdict:
        stratum, diagram = out
        label = task.args[0]
        if task.kind == "chamber":
            if stratum != walls.Stratum("chamber", label):
                return Verdict(False, None, f"classified {stratum}")
            if diagram.degenerations:
                return Verdict(False, None, f"degenerations {diagram.degenerations}")
        else:
            if stratum != walls.Stratum("wall", label):
                return Verdict(False, None, f"classified {stratum}")
            (coefficient,) = walls.jumping_coefficients(stratum)
            kind, pole = EXPECTED_DEGENERATION[coefficient]
            if not any(g.kind == kind and (pole is None or pole in g.participants)
                       for g in diagram.degenerations):
                return Verdict(False, None, f"no {kind} degeneration")
        worst = max((escape_drift(diagram.chart, c) for c in diagram.curves
                     if c.terminus == "inf12"), default=None)
        if worst is None:
            return Verdict(True, None)
        if not worst < DRIFT_TOL:
            return Verdict(False, None, f"drift {worst:.2e}")
        return Verdict(True, digits(worst))

    @staticmethod
    def perturb(task: Task, out):
        """Break what the gate checks: a chamber diagram gains a degeneration,
        a wall diagram loses its degenerations."""
        stratum, diagram = out
        fake = replace(diagram, degenerations=[] if task.kind == "wall" else
                       [geometry.DegenerationRecord("loop", ["tp0", "zero_c0"], 0.0)])
        return stratum, fake

    @staticmethod
    def perturb_drift(out):
        """Move one escaping curve a little off its level set."""
        stratum, diagram = out
        curves = list(diagram.curves)
        for i, c in enumerate(curves):
            if c.terminus == "inf12":
                pts = np.array(c.points)
                pts[len(pts) // 2:] += 1e-3j * (1 + abs(pts[len(pts) // 2]))
                curves[i] = replace(c, points=pts)
                break
        return stratum, replace(diagram, curves=curves)


_GL_X, _GL_W = np.polynomial.legendre.leggauss(8)


def escape_drift(chart, curve) -> float:
    """|Im int sqrt(q) du| / (1 + arc length), worst along the polyline.

    Independent of the tracer's own ``im_drift``: the integral is redone
    with 8-point Gauss-Legendre on every chord and the square-root branch
    continued along the node sequence; the overall sign does not change
    |Im|.  The first polyline point is the turning point itself, where
    sqrt(q) vanishes; it is skipped, as in tests/test_geometry.py."""
    pts = np.asarray(curve.points)[1:]
    a, b = pts[:-1], pts[1:]
    half = (b - a) / 2
    nodes = (a + b)[:, None] / 2 + half[:, None] * _GL_X[None, :]
    raw = np.sqrt(np.asarray(chart.q(nodes.ravel()), dtype=complex))
    flips = np.where((raw[1:] * np.conj(raw[:-1])).real < 0, -1.0, 1.0)
    signs = np.concatenate([[1.0], np.cumprod(flips)])
    vals = (signs * raw).reshape(nodes.shape)
    cum = np.cumsum(half * (vals @ _GL_W))
    return float(np.max(np.abs(cum.imag)) / (1 + curve.arc_length))


# ---------------------------------------------------------------------------
# voros_oracle: voros_closed_form + voros_numeric_oracle at one endpoint
# ---------------------------------------------------------------------------

class VorosOracle:
    name = "voros_oracle"
    digits_name = "oracle_digits"
    rate = 2.8
    round_size, lead = 10, 7
    host_exponent = 0.8

    @staticmethod
    def tasks(seed: int, count: int) -> list:
        """The chamber-V reproducer, then the tests' P_GEN at all six D6
        endpoints, then rounds of the six D6 endpoints, three D7 zero_c and
        one D7 inf1.  Every seeded check draws its own point (D6: chambers
        in turn; D7: |c| in [0.8, 3], any phase), so a run of about sixty
        checks sees about sixty independent points.  The D7 draws are
        stratified over the rounds of the run, each of the four D7 slots
        on its own: the cost of a D7 inf1 check depends on the phase of c,
        and it sets the tail with the D6 u = infinity checks.

        The u = infinity checks (D6 inf1, inf2, D7 inf1) cost two to four
        times the others.  With three cheap D7 zero_c checks per round the
        median task falls in the middle of the finite D6 endpoints, where
        task times are dense, rather than at the edge of the gap below the
        costly ones, which made the median jump from run to run."""
        rng = random.Random(seed)
        spec, p = REPRODUCER
        out = [Task("d6", f"reproducer {spec} {p}", (spec, p))]
        out += [Task("d6", f"P_GEN d6:{t}:+", (EndpointSpec("d6", t, +1), P_GEN))
                for t in D6_TARGETS]
        d7_slots = 3 * (("d7", "zero_c"),) + (("d7_inf", "inf1"),)
        rounds = max(1, -(-(count - len(out)) // VorosOracle.round_size))
        d7_draws = [list(zip(stratified(rng, rounds), stratified(rng, rounds)))
                    for _ in d7_slots]
        k = 0
        for r in range(rounds):
            for t in D6_TARGETS:
                p = chamber_sample(rng, k % 8)
                out.append(Task("d6", f"chamber {ROMAN[k % 8]} d6:{t}:+ {p}",
                                (EndpointSpec("d6", t, +1), p)))
                k += 1
            for (kind, target), draws in zip(d7_slots, d7_draws):
                a, b = draws[r]
                c = cmath.rect(0.8 + 2.2 * a, math.pi * (2 * b - 1))
                out.append(Task(kind, f"d7:{target}:+ c={c}",
                                (EndpointSpec("d7", target, +1), c)))
        out = out[:count]
        reject_repeated_keys(out)
        return out

    @staticmethod
    def run(task: Task):
        spec, p = task.args
        closed = voros.voros_closed_form(spec, p, N_MAX)
        oracle = voros.voros_numeric_oracle(spec, p, n_max=N_MAX)
        return closed, oracle.values, oracle.diagnostics

    @staticmethod
    def check(task: Task, out) -> Verdict:
        closed, values, _ = out
        errs = []
        for n in range(1, N_MAX + 1):
            if task.kind == "d7_inf":          # the closed form vanishes
                err, tol = abs(values[n]), D7_INF_TOL[n]
            else:
                err, tol = abs(values[n] - closed[n]) / abs(closed[n]), ORACLE_TOL
            if not err < tol:
                return Verdict(False, None, f"W_{n} error {err:.2e} (tol {tol:.0e})")
            errs.append(err)
        return Verdict(True, digits(max(errs)))

    @staticmethod
    def perturb(task: Task, out):
        closed, values, diags = out
        if task.kind == "d7_inf":
            values = {n: v + 1e-3 for n, v in values.items()}
        else:
            closed = {n: v * (1 + 1e-3) for n, v in closed.items()}
        return closed, values, diags


def reject_repeated_keys(tasks: list) -> None:
    """voros caches oracle results per (spec, params, n_max) for the life of
    the process, so a repeated key would time a dict lookup.  Refuse such
    input lists."""
    seen = set()
    for t in tasks:
        spec, p = t.args
        key = str(spec), (complex(p),) if spec.equation == "d7" else (p.c_inf, p.c_0), N_MAX
        if key in seen:
            raise ValueError(f"voros_oracle input repeats the cache key {key}")
        seen.add(key)


# ---------------------------------------------------------------------------
# series_scalar: zero_param_solution + riccati_solution at one base point
# ---------------------------------------------------------------------------

class SeriesScalar:
    name = "series_scalar"
    digits_name = "residual_digits"
    rate = 7.5
    round_size, lead = 6, 0
    host_exponent = 0.8

    @staticmethod
    def tasks(seed: int, count: int) -> list:
        """Rounds over (family, N) in {d6, d7} x {4, 8, 12}; each draw takes
        a seeded base point, seeded parameters (D6 from the chamber recipe)
        and a seeded branch of lambda_0."""
        rng = random.Random(seed)
        out = []
        r = 0
        while len(out) < count:
            for family in ("d6", "d7"):
                for N in (4, 8, 12):
                    t0 = cmath.rect(rng.uniform(0.5, 2.0), rng.uniform(-math.pi, math.pi))
                    if family == "d6":
                        p = chamber_sample(rng, r % 8)
                        model, branches = series.D6Model(p), lambda0_branches(t0, p)
                    else:
                        c = cmath.rect(rng.uniform(0.8, 3.0), rng.uniform(-math.pi, math.pi))
                        model, branches = series.D7Model(c), d7_lambda0_branches(t0, c)
                    b = rng.randrange(len(branches))
                    out.append(Task(family, f"{family} N={N} t0={t0:.4f} branch {b} {model}",
                                    (t0, branches[b], N, model)))
            r += 1
        return out[:count]

    @staticmethod
    def run(task: Task):
        t0, branch, N, model = task.args
        zp = series.zero_param_solution(t0, branch, N=N, model=model)
        return zp, series.riccati_solution(zp, +1)

    @staticmethod
    def check(task: Task, out) -> Verdict:
        """Both residuals vanish on every slot the solve determined (powers
        eta^2 .. eta^(2-N)), relative to the largest slot of the solution."""
        zp, ric = out
        worst = 0.0
        for res, sol in ((series.main_equation_residual(zp), zp.lam),
                         (series.riccati_residual(ric.R, zp), ric.R)):
            size = 1.0 + max(abs(v) for v in sol.slot_values().values())
            err = max(abs(v) for pw, v in res.slot_values().items()
                      if pw >= 2 - zp.N) / size
            if not err < RESIDUAL_TOL:
                return Verdict(False, None, f"residual {err:.2e}")
            worst = max(worst, err)
        return Verdict(True, digits(worst))

    @staticmethod
    def perturb(task: Task, out):
        """Scale the determined slot lambda_2 by 1 + 1e-3."""
        zp, ric = out
        slots = {pw: zp.lam.slot(pw) for pw in zp.lam.powers()}
        slots[-2] = slots[-2] * (1 + 1e-3)
        lam = series.EtaSeries.from_slots(slots, zp.t0, zp.K)
        return replace(zp, lam=lam), ric


# ---------------------------------------------------------------------------
# borel_laplace: borel_sum_F/G + laplace_oracle at one z
# ---------------------------------------------------------------------------

#: |Im z| / Re z bands; one F and one G draw per band per round.
RATIO_BANDS = ((0.0, 0.0), (0.0, 0.3), (0.3, 1.0), (1.0, 3.0),
               (3.0, 10.0), (10.0, 30.0), (30.0, 100.0))


class BorelLaplace:
    name = "borel_laplace"
    digits_name = "laplace_digits"
    rate = 47.0
    round_size, lead = 2 * len(RATIO_BANDS), 0
    host_exponent = 1.0    # numpy-bound: slows with the host as the probe does

    @staticmethod
    def tasks(seed: int, count: int) -> list:
        """Rounds of one F and one G draw per band of |Im z| / Re z.  Re z
        is log-uniform on [0.05, 5] (the small end reaches the expm1
        overflow warnings) and the ratio uniform in its band, both
        stratified over the rounds of the run: a task's cost grows with the
        ratio, 1.6 ms below 1 to 90 ms near 100, so free draws would let the
        few costly tasks of a run set its throughput by the seed."""
        rng = random.Random(seed)
        rounds = -(-count // BorelLaplace.round_size)
        draws = {(band, kind): list(zip(stratified(rng, rounds), stratified(rng, rounds)))
                 for band in RATIO_BANDS for kind in ("F", "G")}
        out = []
        for r in range(rounds):
            for lo, hi in RATIO_BANDS:
                for kind in ("F", "G"):
                    a, b = draws[(lo, hi), kind][r]
                    x = 0.05 * 100.0 ** a
                    y = x * (lo + b * (hi - lo)) * rng.choice((-1, 1))
                    z = complex(x, y)
                    out.append(Task(kind, f"{kind} z={z:.6g}", (kind, z)))
        return out[:count]

    @staticmethod
    def run(task: Task):
        kind, z = task.args
        fn = borel.borel_sum_F if kind == "F" else borel.borel_sum_G
        return fn(z, 1.0).value, borel.laplace_oracle(kind, z, 1.0)

    @staticmethod
    def check(task: Task, out) -> Verdict:
        closed, direct = out
        err = abs(direct - closed) / max(1.0, abs(closed))
        if not err < LAPLACE_TOL:
            return Verdict(False, None, f"error {err:.2e}")
        return Verdict(True, digits(err))

    @staticmethod
    def perturb(task: Task, out):
        closed, direct = out
        return closed * (1 + 1e-3), direct


WORKLOADS = {w.name: w for w in (StokesScan, VorosOracle, SeriesScalar, BorelLaplace)}
