"""The eta-series solved at 80-bit base points as the oracle of the
complex128 solve.

The solvers take their number type from the base points, so base points
of type ``np.clongdouble`` run the same code in 80-bit extended precision
(eps 1.1e-19), and the difference of the two solves is the complex128
error of each slot.  The bounds hold for every slot of lambda, mu and R
through N = 12, per node relative to 1 + the largest slot of the series
in the 80-bit solve; each is at most ten times the largest error measured
at its points (given next to it).
"""

import cmath

import numpy as np
import pytest

from p3wkb.algebra import BranchPoint, D6Chart, Parameters
from p3wkb.numerics import DenseJets
from p3wkb.series import (
    ConditioningError,
    D6Model,
    D7Model,
    main_equation_residual,
    riccati_residual,
    riccati_solution,
    zero_param_solution,
)
from chart_reference import turning_points
from series_reference import HIGH_PRECISION

_EPS = np.finfo(np.longdouble).eps
needs_80_bit = pytest.mark.skipif(
    _EPS >= 1e-18, reason=f"numpy's longdouble is {np.dtype(np.longdouble).name} here "
    f"(eps {_EPS:.1e}), no wider than complex128's parts")

P = Parameters(2 + 1j, 3)
C7 = 2 + 1j
T_BATCH = np.array([0.8 + 0.6j, -1.7 + 0.2j, 0.3 - 0.5j, 2.4 + 2.1j, -0.6 - 1.1j])
MODELS = {"d6": D6Model(P), "d6-b1": D6Model(P).backlund_shifted(1),
          "d6-b2": D6Model(P).backlund_shifted(2),
          "d7": D7Model(C7), "d7-b1": D7Model(C7).backlund_shifted(1)}


def _solve(model, ts, lams, dtype, N=12, K=None):
    zp = zero_param_solution(np.asarray(ts, dtype), BranchPoint(ts, lams),
                             model=model, N=N, K=K)
    return zp, riccati_solution(zp, +1)


def _slot_errors(model, ts, lams):
    """The complex128 error of lambda, mu and R, shape (3, nodes): per
    node the largest slot error, relative to 1 + the largest slot of the
    80-bit solve; and that solve."""
    wide = _solve(model, ts, lams, np.clongdouble)
    assert all(s.coeffs.dtype == np.clongdouble for s in _series(*wide))
    errs = []
    for got, ref in zip(_series(*_solve(model, ts, lams, np.complex128)), _series(*wide)):
        ref = ref.coeffs[:, 0]
        errs.append(np.max(np.abs(got.coeffs[:, 0] - ref), axis=0)
                    / (1 + np.max(np.abs(ref), axis=0)))
    return np.array(errs, dtype=float), wide


def _series(zp, ric):
    return zp.lam, zp.mu, ric.R


def _residuals(zp, ric):
    """Per node, the main and Riccati residuals on the slots the solve
    determines (eta^2 .. eta^(2-N)), relative to 1 + the largest slot."""
    out = []
    for res, sol in ((main_equation_residual(zp), zp.lam), (riccati_residual(ric.R, zp), ric.R)):
        kept = res.coeffs[:res.offset - (2 - zp.N) + 1, 0]
        out.append(np.max(np.abs(kept), axis=0) / (1 + np.max(np.abs(sol.coeffs[:, 0]), axis=0)))
    return np.array(out, dtype=float)


def _group_errors(model, groups):
    """Solve the nodes {group: [(t, lambda_0), ...]} as one batch; per
    group, the largest complex128 slot error (see _slot_errors); and the
    80-bit solve."""
    keys = [key for key, nodes in groups.items() for _ in nodes]
    ts, lams = map(np.array, zip(*(node for nodes in groups.values() for node in nodes)))
    errs, wide = _slot_errors(model, ts, lams)
    return {key: errs[:, [k == key for k in keys]].max() for key in groups}, wide


@needs_80_bit
@pytest.mark.parametrize("distance", [1e-2, 1e-4, 1e-6])
def test_u_jets_keep_their_digits_next_to_the_simple_pole(distance):
    # u0 next to u = -1, where t'(u) has the simple zero of its factor u + 1:
    # the jets carry that factor's value, so they keep their relative
    # digits; a jet of the multiplied-out polynomial loses 1/distance ulps
    # (3.5e-10 relative at 1e-6).  Measured at most 2.5e-15.
    chart = D6Chart(P)
    us = -1 + distance * np.exp(1j * np.array([0.3, 1.9, 4.0]))
    ts, lams = chart.t_of_u(us), chart.lambda0_of_u(us)
    jets = [D6Chart.lambda0_u_jets((P.c_inf, P.c_0), DenseJets(np.asarray(ts, dtype), 8),
                                   np.asarray(lams, dtype)[None])
            for dtype in (np.complex128, np.clongdouble)]
    for got, ref in zip(*jets):
        assert np.all(np.abs(got - ref) <= 1e-14 * np.abs(ref))


# Every branch at two points of T_BATCH; measured 6.4e-15 (D6), 2.9e-13
# and 2.7e-13 (shifted), 9.6e-14 (D7) and 4.7e-13 (shifted).  The largest
# errors are on the branches whose later slots fall far below lambda_0.
GENERIC_TOL = {"d6": 5e-14, "d6-b1": 2e-12, "d6-b2": 2e-12, "d7": 5e-13, "d7-b1": 3e-12}


@needs_80_bit
@pytest.mark.parametrize("name", MODELS)
def test_slots_at_generic_points_against_80_bit(name):
    model = MODELS[name]
    nodes = [(t, b.lambda0) for t in T_BATCH[:2] for b in model.branches(t)]
    errs, wide = _group_errors(model, {"generic": nodes})
    assert errs["generic"] <= GENERIC_TOL[name]
    if name in ("d6-b2", "d7-b1"):
        # The 80-bit solve solves both equations to its own rounding.
        assert _residuals(*wide).max() <= 1e-16


# The two sheets that meet at every turning point, at relative distance d
# from it; the error grows about like 1/d: up to 5.6e-14, 4.0e-13 and
# 7.6e-12 at d = 1e-1, 1e-2 and 1e-3.
TURNING_TOL = {1e-1: 3e-13, 1e-2: 3e-12, 1e-3: 4e-11}


@needs_80_bit
@pytest.mark.parametrize("name", ["d6-b1", "d7"])
def test_slots_near_turning_points_against_80_bit(name):
    model = MODELS[name]
    groups = {d: [] for d in TURNING_TOL}
    for tp in turning_points(P if name.startswith("d6") else C7):
        for d, nodes in groups.items():
            t = tp.t * (1 + d * cmath.exp(0.3j))
            near = sorted(model.branches(t), key=lambda b: abs(b.lambda0 - tp.lambda0))
            nodes += [(t, b.lambda0) for b in near[:2]]
    errs = _group_errors(model, groups)[0]
    for d, tol in TURNING_TOL.items():
        assert errs[d] <= tol, d


#: lambda_0's leading terms as t -> 0 on the branches that end at each
#: pole over t = 0: the double poles zero_cinf and zero_c0 of D6 and
#: zero_c of D7, and the simple pole, where lambda_0 ~ sqrt(t).
_LEADS = {
    "d6:zero_cinf": lambda t: [P.c_inf],
    "d6:zero_c0": lambda t: [t / P.c_0],
    "d6:simple": lambda t: [s * cmath.sqrt(P.c_0 * t / P.c_inf) for s in (1, -1)],
    "d7:zero_c": lambda t: [t / C7],
    "d7:simple": lambda t: [s * cmath.sqrt(C7 * t / 2) for s in (1, -1)],
}

# (branches, |t|): bounds unshifted and shifted.  zero_c0 and zero_c are
# taken at 3e-2 here; test_zero_c_branches_near_t_zero_against_80_bit takes
# them nearer.  On the simple-pole branches the error grows fast as t
# nears 0: up to 2.6e-6 at 1e-2 (at 1e-4 it reaches the size of mu's
# slots).  Measured, unshifted and shifted: zero_cinf 2.7e-13, 6.5e-14
# at 1e-2 and 6.7e-13, 1.7e-12 at 1e-4; zero_c0 9.6e-15, 1.2e-11; D6's
# simple pole 3.1e-7, 3.4e-7; zero_c 4.0e-13, 9.7e-11; D7's simple pole
# 2.0e-6, 2.6e-6.
NEAR_ZERO_TOL = {("d6:zero_cinf", 1e-2): (2e-12, 1e-12),
                 ("d6:zero_cinf", 1e-4): (5e-12, 1.5e-11),
                 ("d6:zero_c0", 3e-2): (5e-14, 5e-11),
                 ("d6:simple", 1e-2): (2e-6, 4e-6),
                 ("d7:zero_c", 3e-2): (3e-12, 5e-10),
                 ("d7:simple", 1e-2): (4e-6, 8e-6)}


@needs_80_bit
@pytest.mark.parametrize("shifted", [False, True])
@pytest.mark.parametrize("family", ["d6", "d7"])
def test_slots_near_t_zero_against_80_bit(family, shifted):
    model = MODELS[family + ("-b1" if shifted else "")]
    groups = {key: [] for key in NEAR_ZERO_TOL if key[0].startswith(family)}
    for (branches, radius), nodes in groups.items():
        t = radius * cmath.exp(0.3j)
        nodes += [(t, min((b.lambda0 for b in model.branches(t)), key=lambda v: abs(v - lead)))
                  for lead in _LEADS[branches](t)]
    errs = _group_errors(model, groups)[0]
    for key in groups:
        assert errs[key] <= NEAR_ZERO_TOL[key][shifted], key


#: (family, |t|): bounds on lambda, mu and R, unshifted and shifted, on the
#: branch lambda_0 ~ t/c_0 (D6) or t/c (D7) in six directions around t = 0.
#: Measured (lambda, mu, R), unshifted / shifted:
#:   d6 1e-2: 5.7e-19, 4.7e-14, 1.2e-14 / 9.0e-16, 5.7e-11, 1.1e-12
#:   d6 1e-3: 6.0e-20, 3.5e-13, 1.4e-14 / 6.1e-17, 3.8e-10, 8.8e-13
#:   d7 1e-2: 1.2e-17, 4.4e-13, 2.7e-13 / 3.3e-14, 1.3e-9, 4.0e-11
#:   d7 1e-3: 1.1e-19, 4.4e-13, 3.8e-13 / 3.1e-15, 5.6e-9, 1.6e-11
ZERO_C_TOL = {("d6", 1e-2): ((5e-18, 4e-13, 1e-13), (8e-15, 5e-10, 1e-11)),
              ("d6", 1e-3): ((5e-19, 3e-12, 1e-13), (5e-16, 3e-9, 8e-12)),
              ("d7", 1e-2): ((1e-16, 4e-12, 2e-12), (3e-13, 1e-8, 4e-10)),
              ("d7", 1e-3): ((1e-18, 4e-12, 3e-12), (3e-14, 5e-8, 1.5e-10))}


@needs_80_bit
@pytest.mark.parametrize("shifted", [False, True])
@pytest.mark.parametrize("family, radius", sorted(ZERO_C_TOL))
def test_zero_c_branches_near_t_zero_against_80_bit(family, radius, shifted):
    # At N = 12 the jet Newton for lambda_0 failed its gate at every one of
    # these groups (D6: ratios up to 2.3 at 1e-3); read off the u-chart,
    # lambda_0's jet solves them.
    model = MODELS[family + ("-b1" if shifted else "")]
    c = P.c_0 if family == "d6" else C7
    ts = radius * np.exp(1j * (0.3 + np.pi / 3 * np.arange(6)))
    lams = np.array([min((b.lambda0 for b in model.branches(t)), key=lambda v: abs(v - t / c))
                     for t in ts])
    errs = _slot_errors(model, ts, lams)[0].max(axis=1)
    assert np.all(errs <= ZERO_C_TOL[family, radius][shifted]), errs


@needs_80_bit
@pytest.mark.parametrize("name, repeat", [("d6", 1), ("d7-b1", 4)])
def test_80_bit_batch_matches_one_node_solves(name, repeat):
    # Five nodes and twenty run the product kernels of one node and give
    # its bits; the test holds twenty within 5e-14 of the largest
    # coefficient.
    model = MODELS[name]
    lams = [model.branches(t)[k % 3].lambda0 for k, t in enumerate(T_BATCH)]
    ts, lams = np.tile(T_BATCH, repeat), np.tile(lams, repeat)
    batch = _series(*_solve(model, ts, lams, np.clongdouble, N=6))
    for node in range(5):
        one = _series(*_solve(model, ts[node], lams[node], np.clongdouble, N=6))
        for batched, series in zip(batch, one):
            assert batched.coeffs.dtype == series.coeffs.dtype == np.clongdouble
            err = np.max(np.abs(batched.coeffs[..., node] - series.coeffs))
            assert err == 0 if repeat == 1 else err <= 5e-14 * np.max(np.abs(series.coeffs))


@needs_80_bit
@pytest.mark.parametrize("family", ["d6", "d7"])
def test_80_bit_base_point_at_a_turning_point_is_refused(family):
    model = MODELS[family]
    for tp in turning_points(P if family == "d6" else C7):
        lam = min((b.lambda0 for b in model.branches(tp.t)), key=lambda v: abs(v - tp.lambda0))
        with pytest.raises(ConditioningError):
            _solve(model, tp.t, lam, np.clongdouble, N=4)


@needs_80_bit
def test_ill_conditioned_case_against_80_bit():
    # The HIGH_PRECISION case: D7 shifted, branch 0, N = 12.  The 80-bit
    # solve has residuals at 1.8e-19 of the slot scale and does not move
    # with K (16, 20 or 28); the complex128 solve is within 6.8e-13 of it.
    # The 40-digit literals of series_reference, solved independently, are
    # within 4.0e-17 of it: the literals' own rounding to complex128.
    model = MODELS["d7-b1"]
    t0 = 0.8 + 0.6j
    lam = model.branches(t0)[0].lambda0
    errs, wide = _slot_errors(model, t0, lam)
    assert errs.max() <= 2e-12
    assert _residuals(*wide).max() <= 1e-18
    for a, b in zip(_series(*_solve(model, t0, lam, np.clongdouble, K=28)), _series(*wide)):
        assert np.array_equal(a.coeffs[:, 0], b.coeffs[:, 0])
    for name, series in zip(("lam", "mu", "R"), _series(*wide)):
        ref = series.coeffs[:, 0]
        literal_err = np.max(np.abs(np.array(HIGH_PRECISION[name]) - ref)) / (1 + np.max(np.abs(ref)))
        assert literal_err <= 4e-16, name


@pytest.mark.parametrize("t0", [np.complex64(0.75 + 0.5j), 0.75, np.float32(0.75), 2])
def test_narrow_base_points_solve_in_complex128(t0):
    # Base points narrower than complex128 widen to it, never below: the
    # solve is the complex128 solve bit for bit.
    model = MODELS["d6-b1"]
    b = model.branches(complex(t0))[1]
    got = zero_param_solution(t0, b, model=model, N=6)
    want = zero_param_solution(complex(t0), b, model=model, N=6)
    for a, w in ((got.lam, want.lam), (got.mu, want.mu), (got.delta0, want.delta0),
                 (riccati_solution(got).R, riccati_solution(want).R)):
        assert a.coeffs.dtype == np.complex128
        assert np.array_equal(a.coeffs, w.coeffs)
