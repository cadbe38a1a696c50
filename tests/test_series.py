"""Tests of the eta-series layer: formal solutions, Riccati hierarchy,
Hamiltonians, and parameter-shift transformations."""

import cmath
import os
import re
import subprocess
import sys
import warnings
from dataclasses import replace
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from p3wkb import series
from p3wkb.algebra import (
    BranchPoint,
    D6Chart,
    D7Chart,
    Parameters,
    d7_lambda0_branches,
    lambda0_branches,
    u_chart,
)
from p3wkb.numerics import Jet
from p3wkb.series import (
    ConditioningError,
    D6Model,
    D7Model,
    EtaSeries,
    OrderBudgetError,
    backlund_apply,
    hamilton_residual,
    hamiltonian,
    instanton1_prefactor,
    lowest_jet_order,
    main_equation_residual,
    odd_slot_ratios,
    riccati_residual,
    riccati_solution,
    x_factor,
    zero_param_solution,
)
from chart_reference import UNIT_DATA, mu0, turning_points
from series_reference import ENGINE, HIGH_PRECISION

P = Parameters(2 + 1j, 3)
T0 = 0.8 + 0.6j


@pytest.fixture(scope="module")
def zp():
    return zero_param_solution(T0, lambda0_branches(T0, P)[0], model=D6Model(P), N=6)


@pytest.fixture(scope="module")
def ric(zp):
    return riccati_solution(zp, +1)


# ---------------------------------------------------------------------------
# Zero-parameter solution
# ---------------------------------------------------------------------------

def test_main_equation_residual_vanishes(zp):
    res = main_equation_residual(zp)
    for power, val in res.slot_values().items():
        assert abs(val) < 1e-9, f"residual at eta^{power}: {abs(val)}"


def test_odd_slots_exactly_zero(zp):
    for m in (1, 3, 5):
        jet = zp.lam.slot(-m)
        assert all(c == 0 for c in jet.coeffs)


def test_mu_leading_matches_branch(zp):
    b = zp.branch
    assert abs(zp.mu.slot_value(0) - mu0(b, P)) < 1e-12


def test_lambda2_printed_formula(zp):
    lam0 = zp.lam.slot(0)
    t = zp.t_jet
    direct = (lam0.derive().derive() - lam0.derive() * lam0.derive() / lam0
              + lam0.derive() / t) / zp.delta0
    assert abs(direct.value() - zp.lam.slot_value(-2)) < 1e-10


def test_lambda4_printed_formula(zp):
    lam0, lam2 = zp.lam.slot(0), zp.lam.slot(-2)
    t = zp.t_jet
    ci = P.c_inf
    direct = (lam2.derive().derive()
              - 2 * lam0.derive() * lam2.derive() / lam0
              + lam2 * lam0.derive() * lam0.derive() / (lam0 * lam0)
              + lam2.derive() / t
              - 3 * lam0 * lam2 * lam2 / (t * t)
              + ci * lam2 * lam2 / (t * t)
              + lam2 * lam2 / (lam0 * lam0 * lam0)) / zp.delta0
    assert abs(direct.value() - zp.lam.slot_value(-4)) < 1e-10


def test_tiny_delta_from_rescaling_is_accepted():
    # Rescaling (t, c) -> (r^-2 t, r^-1 c) scales Delta by r^2 and slot 2k
    # of lambda by r^(2k-1), leaving the turning-point ratio unchanged.
    # At r = 1e-5, |Delta| ~ 5e-10 is far from any turning point and solves
    # as accurately as the unscaled point.
    r = 1e-5
    ps = Parameters(P.c_inf / r, P.c_0 / r)
    ts = T0 / r ** 2
    one = zero_param_solution(T0, lambda0_branches(T0, P)[0], model=D6Model(P), N=4)
    scaled = zero_param_solution(ts, lambda0_branches(ts, ps)[0], model=D6Model(ps), N=4)
    assert scaled.diagnostics["delta_min"] < 1e-8
    assert scaled.diagnostics["delta_ratio"] == pytest.approx(one.diagnostics["delta_ratio"],
                                                              rel=1e-12)
    for k in range(3):
        want = one.lam.slot_value(-2 * k) * r ** (2 * k - 1)
        assert abs(scaled.lam.slot_value(-2 * k) - want) < 1e-12 * abs(want)


def test_order_budget_gate():
    # The lowest K leaves slot N of some series Taylor order 0: K = N on D6,
    # K = N + 1 once the parameters shift by eta^-1.  One less is refused,
    # naming that slot, its series and the order it would keep.
    b = lambda0_branches(T0, P)[0]
    for model, lowest, kind in ((D6Model(P), 6, "lambda"),
                                (D6Model(P).backlund_shifted(1), 7, "mu")):
        assert lowest_jet_order(6, model.shifted) == lowest
        with pytest.raises(OrderBudgetError, match=rf"K={lowest - 1} too small for N=6: slot 6 "
                                                   rf"of {kind} would keep Taylor order -1"):
            zero_param_solution(T0, b, model=model, N=6, K=lowest - 1)
        zp = zero_param_solution(T0, b, model=model, N=6, K=lowest)
        assert zp.lam.orders.min() >= 0 and zp.mu.orders.min() >= 0
        assert riccati_solution(zp, +1).R.orders[-1] == 0


@pytest.mark.parametrize("N", range(6))
@pytest.mark.parametrize("family", ["d6", "d6-shifted", "d7", "d7-shifted"])
def test_residuals_below_k_n_plus_2_refuse_or_match(family, N):
    # Below K = N + 2 a residual that runs out of t-derivatives raises
    # OrderBudgetError and returns no number; at the lowest K (N >= 1) both
    # do.  One with a derivative left on every slot (odd N, or N = 0)
    # returns the values of the K = N + 4 solve bit for bit, never fewer
    # or truncated ones.
    model = D6Model(P) if family.startswith("d6") else D7Model(C7)
    if family.endswith("shifted"):
        model = model.backlund_shifted(1)
    b = model.branches(T0)[0]

    def residuals(K):
        zp = zero_param_solution(T0, b, model=model, N=N, K=K)
        return (lambda: main_equation_residual(zp),
                lambda: riccati_residual(riccati_solution(zp, +1).R, zp))

    want = [res() for res in residuals(N + 4)]
    lowest = lowest_jet_order(N, model.shifted)
    for K in range(lowest, N + 2):
        for res, full in zip(residuals(K), want):
            try:
                got = res()
            except OrderBudgetError as exc:
                assert "jet order exhausted" in str(exc)
                continue
            assert K > lowest or N == 0
            assert got.n_slots == full.n_slots
            assert all(got.slot_value(p) == full.slot_value(p) for p in full.powers())


def test_base_point_independence(zp):
    delta_t = 0.004
    t1 = T0 + delta_t
    b1 = min(lambda0_branches(t1, P), key=lambda bb: abs(bb.lambda0 - zp.branch.lambda0))
    fresh = zero_param_solution(t1, b1, model=D6Model(P), N=6)
    for power in range(0, -7, -2):
        a, b_ = zp.lam.slot(power)(t1 - T0), fresh.lam.slot_value(power)
        assert abs(a - b_) < 1e-8 * max(1.0, abs(b_))


# ---------------------------------------------------------------------------
# Riccati hierarchy
# ---------------------------------------------------------------------------

def test_riccati_residual_vanishes(ric):
    res = riccati_residual(ric.R, ric.zp)
    for power, val in res.slot_values().items():
        assert abs(val) < 1e-9, f"residual at eta^{power}: {abs(val)}"


def test_riccati_leading_is_sqrt_delta(zp, ric):
    assert abs(ric.R.slot_value(1) ** 2 - zp.delta0.value()) < 1e-12


def test_r0_printed_formula(zp, ric):
    lam0, t = zp.lam.slot(0), zp.t_jet
    rm1 = ric.R.slot(1)
    direct = -rm1.derive() / (2 * rm1) + lam0.derive() / lam0 \
        - Jet.constant(0.5 + 0j, zp.t0, t.order) / t
    assert abs(direct.value() - ric.R.slot_value(0)) < 1e-10


def test_r1_printed_formula(zp, ric):
    lam0, lam2, t = zp.lam.slot(0), zp.lam.slot(-2), zp.t_jet
    rm1, r0 = ric.R.slot(1), ric.R.slot(0)
    half = Jet.constant(0.5 + 0j, zp.t0, t.order)
    second = 6 * lam0 / (t * t) - 2 * P.c_inf / (t * t) - 2 / (lam0 * lam0 * lam0)
    direct = (half / rm1) * (-r0 * r0 - r0.derive()
                             + (2 * lam0.derive() / lam0 - 1 / t) * r0
                             + second * lam2
                             - (lam0.derive() / lam0) ** 2)
    assert abs(direct.value() - ric.R.slot_value(-1)) < 1e-10


def test_sign_flip_equals_parity_flip(zp, ric):
    other = riccati_solution(zp, -1)
    flipped = ric.R.parity_part(0) - ric.r_odd
    for power in ric.R.powers():
        assert abs(other.R.slot_value(power) - flipped.slot_value(power)) < 1e-12


def test_riccati_rejects_a_sign_other_than_plus_or_minus_one(zp):
    # sign = 0 used to return the + branch labelled sign=0.
    for sign in (0, 2, -0.5):
        with pytest.raises(ValueError, match="sign must be"):
            riccati_solution(zp, sign)


def test_even_part_determined_by_odd_part(zp, ric):
    t = zp.t_jet
    half_over_t = Jet.constant(0.5 + 0j, zp.t0, t.order) / t
    dual = (ric.r_odd.derive() / ric.r_odd) * (-0.5) + zp.lam.derive() / zp.lam \
        - EtaSeries.lift(half_over_t, zp.lam)
    for power in (0, -2, -4):
        assert abs(dual.slot_value(power) - ric.R.parity_part(0).slot_value(power)) < 1e-10


# ---------------------------------------------------------------------------
# One-instanton factors
# ---------------------------------------------------------------------------

def test_prefactor_leading(zp, ric):
    q = instanton1_prefactor(ric)
    expected = zp.branch.lambda0 / cmath.sqrt(zp.t0 * ric.R.slot_value(1))
    assert abs(q.slot_value(0) - expected) < 1e-12


def test_x_factor_leading(zp, ric):
    lam0, t = zp.lam.slot(0), zp.t_jet
    rm1 = ric.R.slot(1)
    direct = rm1 * t / (2 * lam0 * lam0) - P.c_0 / (2 * lam0 * lam0) \
        + t / (lam0 * lam0 * lam0)
    x = x_factor(ric)
    assert abs(x.slot_value(0) - direct.value()) < 1e-12


# ---------------------------------------------------------------------------
# Hamiltonian structure
# ---------------------------------------------------------------------------

def test_hamilton_equations_hold(zp):
    res = hamilton_residual(zp.model, zp.lam, zp.mu, zp.t_jet)
    for power, val in res.slot_values().items():
        assert abs(val) < 1e-9


def test_hamiltonian_series_finite(zp):
    h = hamiltonian(zp)
    assert all(abs(v) < 1e3 for v in h.slot_values().values())


@pytest.mark.parametrize("family", ["d6", "d7"])
def test_t_hamiltonian_dlam_is_the_lambda_derivative(request, family):
    # tH is quadratic in lambda, so the central difference is its derivative
    # up to rounding (measured 9e-13 for D6 and 2e-13 for D7 at this step).
    zp = request.getfixturevalue("zp" if family == "d6" else "zp7")
    model, lam, mu, t, step = zp.model, zp.lam, zp.mu, zp.t_jet, 1e-3
    diff = (model.t_hamiltonian(lam + step, mu, t)
            - model.t_hamiltonian(lam - step, mu, t)) * (0.5 / step)
    exact = model.t_hamiltonian_dlam(lam, mu, t)
    for power, val in exact.slot_values().items():
        assert abs(diff.slot_value(power) - val) < 1e-10 * max(1.0, abs(val))


# ---------------------------------------------------------------------------
# Parameter-shift transformations
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("which", [1, 2])
def test_backlund_matches_shifted_solution(zp, which):
    lam_t, mu_t = backlund_apply(zp, which)
    shifted = zp.model.backlund_shifted(which)
    fresh = zero_param_solution(zp.t0, zp.branch, model=shifted, N=6)
    for power in range(0, -5, -1):
        assert abs(lam_t.slot_value(power) - fresh.lam.slot_value(power)) < 1e-9
        assert abs(mu_t.slot_value(power) - fresh.mu.slot_value(power)) < 1e-9


@pytest.mark.parametrize("which", [1, 2])
def test_backlund_shifted_hamiltonian_residual(zp, which):
    lam_t, mu_t = backlund_apply(zp, which)
    shifted = zp.model.backlund_shifted(which)
    res = hamilton_residual(shifted, lam_t, mu_t, zp.t_jet)
    for power, val in res.slot_values().items():
        if power >= -4:
            assert abs(val) < 1e-9


def test_second_transformation_leading_identity(zp):
    b = zp.branch
    m0 = mu0(b, P)
    lhs = 2 * zp.t0 * (m0 - 1) / (2 * b.lambda0 * (m0 - 1) + (P.c_inf - P.c_0))
    assert abs(lhs - b.lambda0) < 1e-12


@pytest.mark.parametrize("sign", [+1, -1])
def test_shift_difference_identity_first(zp, sign):
    # R at shifted parameters minus R equals d/dt log(t * G1), with the same
    # square-root sign convention on both sides.
    lam, mu, t = zp.lam, zp.mu, zp.t_jet
    em = EtaSeries.inverse_eta(lam)
    ci, c0 = zp.model.c_series(lam)
    r = riccati_solution(zp, sign)
    x = x_factor(r)
    shifted = zero_param_solution(zp.t0, zp.branch, model=zp.model.backlund_shifted(1), N=6)
    r_shift = riccati_solution(shifted, sign)
    num = 4 * lam * (mu - 1) + (ci - c0 + em) + 2 * (lam * lam) * x
    den = 2 * (lam * lam) * (mu - 1) + (ci - c0 + em) * lam + 2 * t
    g1 = (lam * lam).inverse() - (ci + c0 + em) * num * (den * den).inverse()
    rhs = EtaSeries.lift(Jet.constant(1.0 + 0j, zp.t0, t.order) / t, lam) \
        + g1.derive() / g1
    diff = r_shift.R - r.R
    for power in range(1, -4, -1):
        assert abs(diff.slot_value(power) - rhs.slot_value(power)) < 1e-9


@pytest.mark.parametrize("sign", [+1, -1])
def test_shift_difference_identity_second(zp, sign):
    lam, mu, t = zp.lam, zp.mu, zp.t_jet
    em = EtaSeries.inverse_eta(lam)
    ci, c0 = zp.model.c_series(lam)
    r = riccati_solution(zp, sign)
    x = x_factor(r)
    shifted = zero_param_solution(zp.t0, zp.branch, model=zp.model.backlund_shifted(2), N=6)
    r_shift = riccati_solution(shifted, sign)
    g2 = -2 * (mu - 1) * (mu - 1) + (ci - c0 + em) * x
    g3 = 2 * lam * (mu - 1) + (ci - c0 + em)
    rhs = EtaSeries.lift(Jet.constant(1.0 + 0j, zp.t0, t.order) / t, lam) \
        + g2.derive() / g2 - 2 * (g3.derive() / g3)
    diff = r_shift.R - r.R
    for power in range(1, -4, -1):
        assert abs(diff.slot_value(power) - rhs.slot_value(power)) < 1e-9


# ---------------------------------------------------------------------------
# Homogeneity: (t, c_inf, c_0, eta) -> (r^-2 t, r^-1 c_inf, r^-1 c_0, r eta)
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("r", [2.0, 1 / 3])
def test_series_homogeneity(zp, r):
    ps = Parameters(P.c_inf / r, P.c_0 / r)
    ts = T0 / r ** 2
    bs = min(lambda0_branches(ts, ps),
             key=lambda bb: abs(bb.lambda0 - zp.branch.lambda0 / r))
    zps = zero_param_solution(ts, bs, model=D6Model(ps), N=6)
    for m in range(0, 7):
        ref = zp.lam.slot_value(-m)
        scl = zps.lam.slot_value(-m)
        assert abs(scl - r ** (m - 1) * ref) < 1e-10 * max(1.0, abs(ref))
        ref_mu = zp.mu.slot_value(-m)
        scl_mu = zps.mu.slot_value(-m)
        assert abs(scl_mu - r ** m * ref_mu) < 1e-10 * max(1.0, abs(ref_mu))
    ric = riccati_solution(zp, +1)
    rs = riccati_solution(zps, +1)
    # Align the square-root sign through the leading slot.
    flip = -1 if abs(rs.R.slot_value(1) - r ** 1 * ric.R.slot_value(1)) > 1e-6 else 1
    for k in range(-1, 6):
        ref = ric.R.slot_value(-k)
        scl = rs.R.slot_value(-k) * (flip if k % 2 else 1)
        assert abs(scl - r ** (k + 2) * ref) < 1e-9 * max(1.0, abs(ref))


# ---------------------------------------------------------------------------
# Degenerate family
# ---------------------------------------------------------------------------

C7 = 2 + 1j


@pytest.fixture(scope="module")
def zp7():
    b = d7_lambda0_branches(T0, C7)[0]
    return zero_param_solution(T0, b, model=D7Model(C7), N=6)


def test_d7_residuals(zp7):
    for val in main_equation_residual(zp7).slot_values().values():
        assert abs(val) < 1e-9
    ric = riccati_solution(zp7, +1)
    for val in riccati_residual(ric.R, zp7).slot_values().values():
        assert abs(val) < 1e-9
    hres = hamilton_residual(zp7.model, zp7.lam, zp7.mu, zp7.t_jet)
    for val in hres.slot_values().values():
        assert abs(val) < 1e-9


def test_d7_mu_leading(zp7):
    lam0, t0 = zp7.branch.lambda0, zp7.t0
    assert abs(zp7.mu.slot_value(0) - (C7 * lam0 - t0) / (2 * lam0 ** 2)) < 1e-12


def test_d7_x_factor_leading(zp7):
    ric = riccati_solution(zp7, +1)
    lam0, t = zp7.lam.slot(0), zp7.t_jet
    direct = ric.R.slot(1) * t / (2 * lam0 * lam0) - C7 / (2 * lam0 * lam0) \
        + t / (lam0 * lam0 * lam0)
    assert abs(x_factor(ric).slot_value(0) - direct.value()) < 1e-12


def test_d7_backlund(zp7):
    lam_t, mu_t = backlund_apply(zp7, 1)
    shifted = zp7.model.backlund_shifted(1)
    fresh = zero_param_solution(zp7.t0, zp7.branch, model=shifted, N=6)
    for power in range(0, -5, -1):
        assert abs(lam_t.slot_value(power) - fresh.lam.slot_value(power)) < 1e-9
        assert abs(mu_t.slot_value(power) - fresh.mu.slot_value(power)) < 1e-9
    res = hamilton_residual(shifted, lam_t, mu_t, zp7.t_jet)
    for power, val in res.slot_values().items():
        if power >= -4:
            assert abs(val) < 1e-9


def test_d7_odd_slots_vanish(zp7):
    for m in (1, 3, 5):
        assert all(c == 0 for c in zp7.lam.slot(-m).coeffs)


# ---------------------------------------------------------------------------
# The slot recursions against recorded values
# ---------------------------------------------------------------------------

def _reference_case(case):
    if case.startswith("d6"):
        model, branch = D6Model(P), lambda0_branches(T0, P)[0]
    else:
        model, branch = D7Model(C7), d7_lambda0_branches(T0, C7)[1]
    if case.endswith("backlund2"):
        model = model.backlund_shifted(2)
    elif case.endswith(("backlund1", "shifted")):
        model = model.backlund_shifted(1)
    return model, branch


def _max_slot_error(series, values):
    want = np.array(values)
    return np.max(np.abs(series.coeffs[:, 0] - want)) / np.max(np.abs(want))


@pytest.mark.parametrize("case,N", sorted(ENGINE))
def test_slots_match_the_elimination_engine(case, N):
    model, branch = _reference_case(case)
    zp = zero_param_solution(T0, branch, model=model, N=N)
    ric = riccati_solution(zp, +1)
    for name, series in (("lam", zp.lam), ("mu", zp.mu), ("R", ric.R)):
        offset, _, orders, values = ENGINE[case, N][name]
        assert series.offset == offset, name
        assert [series.slot(p).order for p in series.powers()] == orders, name
        assert _max_slot_error(series, values) < 1e-12, name


def test_ill_conditioned_slots_match_high_precision():
    # On branch 0 of D7 the shifted slots fall to 1e-6 of lambda_0 by
    # N = 12.  The literals come from an independent 40-digit mpmath solve
    # (series_reference.py) and agree with the 80-bit run to its rounding
    # (test_series_80bit.py).  The solve differs from them by up to 1.4e-13
    # (lam), 7.6e-13 (mu) and 9.7e-13 (R) of the largest slot: complex128
    # rounding, amplified as the slots fall.
    zp = zero_param_solution(T0, d7_lambda0_branches(T0, C7)[0],
                             model=D7Model(C7).backlund_shifted(1), N=12)
    ric = riccati_solution(zp, +1)
    for name, series in (("lam", zp.lam), ("mu", zp.mu), ("R", ric.R)):
        assert _max_slot_error(series, HIGH_PRECISION[name]) < 1e-12, name


# ---------------------------------------------------------------------------
# Batched solves
# ---------------------------------------------------------------------------

T_BATCH = np.array([0.8 + 0.6j, -1.7 + 0.2j, 0.3 - 0.5j, 2.4 + 2.1j, -0.6 - 1.1j])


def _batch_case(family):
    if family == "d6":
        model = D6Model(P)
        lams = [lambda0_branches(t, P)[k % 4].lambda0 for k, t in enumerate(T_BATCH)]
    else:
        model = D7Model(C7).backlund_shifted(1)
        lams = [d7_lambda0_branches(t, C7)[k % 3].lambda0 for k, t in enumerate(T_BATCH)]
    return model, np.array(lams)


@pytest.mark.parametrize("repeat", [1, 4])
@pytest.mark.parametrize("family", ["d6", "d7"])
def test_batched_solve_equals_scalar_solves(family, repeat):
    # Five base points solved at once give each node's scalar solve byte for
    # byte, and so do twenty: every batch size runs the same product kernels.
    model, lams = _batch_case(family)
    ts, lams = np.tile(T_BATCH, repeat), np.tile(lams, repeat)
    zp = zero_param_solution(ts, BranchPoint(ts, lams), model=model, N=6)
    ric = riccati_solution(zp, +1)
    for node in range(len(ts)):
        one = zero_param_solution(complex(ts[node]), BranchPoint(ts[node], lams[node]),
                                  model=model, N=6)
        for batched, series in zip((zp.lam, zp.mu, ric.R),
                                   (one.lam, one.mu, riccati_solution(one, +1).R)):
            assert np.array_equal(batched.orders, series.orders)
            assert batched.coeffs[..., node].tobytes() == series.coeffs.tobytes()
    delta = np.abs(zp.delta0.value())
    assert zp.diagnostics["delta_node"] == int(np.argmin(delta))
    assert zp.diagnostics["delta_min"] == pytest.approx(delta.min(), rel=1e-15)
    assert 0 <= zp.diagnostics["newton_ratio"] < 1e-8


@pytest.mark.parametrize("family", ["d6", "d7"])
def test_a_40_node_batch_gives_the_bytes_of_one_node_solves(family):
    # Forty distinct base points solved at once: lambda, mu and R at each
    # node are byte for byte those of the node solved alone.
    model = _batch_case(family)[0]
    rng = np.random.default_rng(40)
    ts = 0.8 + 0.6j + 0.4 * (rng.random(40) + 1j * rng.random(40))
    lams = np.array([model.branches(complex(t))[k % 3].lambda0 for k, t in enumerate(ts)])
    zp = zero_param_solution(ts, BranchPoint(ts, lams), model=model, N=6)
    batch = (zp.lam, zp.mu, riccati_solution(zp, +1).R)
    for node in range(len(ts)):
        one = zero_param_solution(complex(ts[node]), BranchPoint(ts[node], lams[node]),
                                  model=model, N=6)
        for name, batched, series in zip(("lam", "mu", "R"), batch,
                                         (one.lam, one.mu, riccati_solution(one, +1).R)):
            assert batched.coeffs[..., node].tobytes() == series.coeffs.tobytes(), (name, node)


def test_slot_jets_are_read_only():
    # A slot is a view of the series' own array: a write into it must
    # raise, not change the series.
    model, lams = _batch_case("d6")
    zp = zero_param_solution(T_BATCH, BranchPoint(T_BATCH, lams), model=model, N=4)
    before = zp.lam.coeffs.copy()
    for jet in (zp.lam.slot(0), zp.delta0, zp.t_jet):
        with pytest.raises(ValueError, match="read-only"):
            jet.coeffs[0] = 0
        with pytest.raises(ValueError, match="read-only"):
            jet.coeffs[0] += 1
    assert np.array_equal(zp.lam.coeffs, before)


@pytest.mark.parametrize("family", ["d6", "d7"])
def test_solution_keeps_only_its_own_arrays(family):
    # lambda is solved inside the stack of its powers; a view of that stack
    # would keep all of it alive for as long as the solution lives.
    model, lams = _batch_case(family)
    ts, lams = np.tile(T_BATCH, 4), np.tile(lams, 4)
    zp = zero_param_solution(ts, BranchPoint(ts, lams), model=model, N=6)
    for a in (zp.lam.coeffs, zp.mu.coeffs, zp.delta0.coeffs, riccati_solution(zp, +1).R.coeffs):
        assert a.base is None or a.base.nbytes <= a.nbytes


def test_batch_with_a_node_at_a_turning_point_raises():
    tp = turning_points(P)[0]
    ts = np.append(T_BATCH, tp.t)
    lams = np.append(_batch_case("d6")[1], tp.lambda0)
    zero_param_solution(T_BATCH, BranchPoint(T_BATCH, lams[:-1]), model=D6Model(P), N=4)
    with pytest.raises(ConditioningError, match="at node 5,"):
        zero_param_solution(ts, BranchPoint(ts, lams), model=D6Model(P), N=4)


def test_diagnostics_record_the_gates(zp):
    assert zp.diagnostics["delta_min"] == pytest.approx(abs(zp.delta0.value()), rel=1e-15)
    assert zp.diagnostics["delta_node"] == zp.diagnostics["newton_node"] == 0
    assert 0 <= zp.diagnostics["newton_ratio"] < 1e-8


@pytest.mark.parametrize("family", ["d6", "d7"])
def test_a_negative_slot_count_is_refused_by_name(family):
    # N = 0 solves lambda_0 alone; N = -1 has no slot to solve.
    model, lams = _batch_case(family)
    t0, branch = complex(T_BATCH[0]), BranchPoint(T_BATCH[0], lams[0])
    zp = zero_param_solution(t0, branch, model=model, N=0)
    assert zp.lam.n_slots == riccati_solution(zp, +1).R.n_slots == 1
    with pytest.raises(ValueError, match="N=-1"):
        zero_param_solution(t0, branch, model=model, N=-1)


@pytest.mark.parametrize("n_max", [0, -1])
@pytest.mark.parametrize("params", [P, C7])
def test_odd_slot_ratios_without_a_slot_are_refused_by_name(params, n_max):
    with pytest.raises(ValueError, match=f"n_max={n_max}"):
        odd_slot_ratios(params, n_max)


@pytest.mark.parametrize("k", range(3))
def test_base_point_at_a_turning_point_is_refused(k):
    # At a turning point lambda_0 is a double root of P; the gate refuses it
    # before any jet step divides by P'(lambda_0).
    tp = turning_points(P)[k]
    tau = tp.t
    lam = min((b.lambda0 for b in lambda0_branches(tau, P)), key=lambda v: abs(v - tp.lambda0))
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        for N in (4, 8):
            with pytest.raises(ConditioningError):
                zero_param_solution(tau, BranchPoint(tau, lam), model=D6Model(P), N=N)


def test_a_node_exactly_at_a_turning_point_is_refused_by_name():
    # At c = 3 the D7 turning point t = 2c^3/27 = 2, lambda_0 = c^2/9 = 1 is
    # exact: P and P' vanish there, Newton's 0/0 leaves a NaN root and so a
    # NaN gate ratio, which the gate must refuse, alone or in a batch.
    model = D7Model(3)
    ts = np.array([0.8 + 0.6j, 2, -1.7 + 0.2j])
    lams = np.array([model.branches(ts[0])[0].lambda0, 1, model.branches(ts[2])[1].lambda0])
    for t, lam, node in ((ts[1], lams[1], 0), (ts, lams, 1)):
        with pytest.raises(ConditioningError, match=re.escape(f"at node {node}, t0=(2+0j):")):
            zero_param_solution(t, BranchPoint(t, lam), model=model, N=4)


def test_diagnostics_record_the_turning_point_ratio(zp):
    lam, t = zp.lam.slot(0).value(), zp.t0
    terms = [abs(a * lam ** d * t ** p) for d, e, a, p in zp.model.lam_poly() if e == 0]
    dP = sum(d * a * lam ** (d - 1) * t ** p for d, e, a, p in zp.model.lam_poly()
             if e == 0 and d > 0)
    assert zp.diagnostics["delta_ratio"] == pytest.approx(abs(lam * dP) / max(terms), rel=1e-9)
    assert zp.diagnostics["delta_ratio"] >= 1e-6
    assert zp.diagnostics["delta_ratio_node"] == 0


# ---------------------------------------------------------------------------
# mu, built on first access
# ---------------------------------------------------------------------------

def _mu_by_series_arithmetic(zp):
    """Reference: mu from 2 lam^2 mu = eta^-1 t lam' + Q(lam), with Q the
    model's mu_poly, in EtaSeries arithmetic."""
    lam, t = zp.lam, zp.t_jet
    num = (lam.derive() * t).shift_eta(-1)
    for d, e, a, p in zp.model.mu_poly():
        term = EtaSeries.lift(a * t ** p, lam)
        for _ in range(d):
            term = term * lam
        num = num + term.shift_eta(-e)
    return num / (2 * (lam * lam))


def test_mu_is_built_only_when_read(zp):
    fresh = zero_param_solution(T0, zp.branch, model=D6Model(P), N=6)
    riccati_solution(fresh, +1)
    assert "mu" not in vars(fresh)
    assert fresh.mu is fresh.mu


@pytest.mark.parametrize("shifted", [False, True])
@pytest.mark.parametrize("family", ["d6", "d7"])
def test_mu_matches_its_defining_relation(family, shifted):
    # Twenty nodes (the shifted-row product kernel), relative to the
    # node's largest coefficient: slot values within 1e-14, and every kept
    # Taylor coefficient within 1e-12 (the reference's products lose more
    # in the top orders at small |t|).
    lams = _batch_case(family)[1]
    model = D6Model(P) if family == "d6" else D7Model(C7)
    if shifted:
        model = model.backlund_shifted(1)
    ts, lams = np.tile(T_BATCH, 4), np.tile(lams, 4)
    zp = zero_param_solution(ts, BranchPoint(ts, lams), model=model, N=6)
    want_mu = _mu_by_series_arithmetic(zp)
    got = [np.array(zp.mu.slot(p).coeffs) for p in zp.mu.powers()]
    want = [np.array(want_mu.slot(p).coeffs) for p in want_mu.powers()]
    scale = np.max([np.abs(w).max(axis=0) for w in want], axis=0)
    for g, w in zip(got, want):
        assert np.all(np.abs(g[0] - w[0]) <= 1e-14 * scale)
        assert np.all(np.abs(g - w[:len(g)]).max(axis=0) <= 1e-12 * scale)


def test_replaced_lam_gets_its_own_mu():
    first, second = (zero_param_solution(T0, b, model=D6Model(P), N=6)
                     for b in lambda0_branches(T0, P)[:2])
    stale = first.mu
    moved = replace(first, lam=second.lam)
    assert np.array_equal(moved.mu.coeffs, second.mu.coeffs)
    assert moved.mu.slot_value(0) != stale.slot_value(0)


@pytest.mark.parametrize("family", ["d6", "d7"])
def test_replaced_lam_gets_its_own_riccati_series(family):
    # A solve keeps its jets and 1 / lambda_0 for R; a copy made with another
    # branch's lam and Delta derives its own, so its R is that branch's R byte
    # for byte, though the first solve's R was built before the copy.
    model = D6Model(P) if family == "d6" else D7Model(2 + 1j)
    first, second = (zero_param_solution(T0, b, model=model, N=6) for b in model.branches(T0)[:2])
    riccati_solution(first, +1)
    moved = replace(first, lam=second.lam, delta0=second.delta0)
    for sign in (1, -1):
        assert (riccati_solution(moved, sign).R.coeffs.tobytes()
                == riccati_solution(second, sign).R.coeffs.tobytes())


# ---------------------------------------------------------------------------
# The odd Riccati slots as rational functions on the u-chart
# ---------------------------------------------------------------------------

def _d7_b2(v):
    """B_2 at c = 1, derived exactly from the slot recursions."""
    return -(v - 1) * (9 * v ** 3 - 27 * v ** 2 + 3 * v - 1) / (8 * v * (3 * v - 2) ** 5)


def _d7_b4(v):
    """B_4 at c = 1, derived exactly from the slot recursions."""
    poly = (2025 * v ** 7 - 29727 * v ** 6 + 54189 * v ** 5 - 19659 * v ** 4
            - 5573 * v ** 3 - 1789 * v ** 2 + 303 * v - 25)
    return -(v - 1) * poly / (128 * v ** 2 * (3 * v - 2) ** 10)


@pytest.mark.parametrize("c", [1.0, 2 + 1j, -0.7 + 1.3j])
def test_d7_odd_slot_ratios_are_the_exact_literals(c):
    # R_{eta^-1} = c^-2 B_2(u/c) sqrt(Delta) and R_{eta^-3} = c^-4 B_4(u/c)
    # sqrt(Delta): the builder's values and the node solve's slots both lie
    # within 3e-14 relative of the literals.
    chart = u_chart(c)
    us = (0.9 + 0.55j + 0.4 * np.exp(2j * np.pi * np.arange(12) / 12)) * c
    ts, lams = chart.t_of_u(us), chart.lambda0_of_u(us)
    R = riccati_solution(zero_param_solution(ts, BranchPoint(ts, lams), N=4,
                                             model=D7Model(c)), +1).R
    ratios = odd_slot_ratios(c, 2)(us)
    for n, literal in ((1, _d7_b2), (2, _d7_b4)):
        want = c ** (-2 * n) * literal(us / c)
        assert np.all(np.abs(ratios[n - 1] - want) <= 3e-14 * np.abs(want))
        slot = R.slot_value(1 - 2 * n) / R.slot_value(1)
        assert np.all(np.abs(slot - want) <= 3e-14 * np.abs(want))


@pytest.mark.parametrize("chart_cls", [D6Chart, D7Chart], ids=["d6", "d7"])
def test_unit_data_read_off_the_declared_maps_equal_the_typed_out_data(chart_cls):
    # Exactly, shapes included: the family table is built from these.
    family, lam0 = series._FamilyRationals(chart_cls), chart_cls.lambda0_map
    got = {"lambda0": family.unit(lam0), "t_over_lambda0": family.unit(chart_cls.t_map / lam0),
           "theta": family.h, "turning": family.base["T"],
           "double_poles": family.double_poles, "delta_power": family.a}
    for name, want in UNIT_DATA[chart_cls.equation].items():
        if name == "delta_power":
            assert got[name] == want
            continue
        rows, lo = want if name in ("lambda0", "t_over_lambda0", "theta") else (want, 0)
        exact = got[name]
        assert exact.lo == lo, name
        assert [[Fraction(v, exact.den) for v in row] for row in exact.c.tolist()] \
            == [[Fraction(v) for v in row] for row in rows], name


def test_d6_tables_have_the_columns_homogeneity_allows():
    # M_n is homogeneous of degree 8n in (c_p, c_m) and even in c_m: the
    # powers c_m^2k, k <= 4n, and no odd power.  Each float entry is its
    # exact entry rounded to nearest.
    exact = series._exact_numerators(D6Chart, series.D6Model, 4)
    table = series._slot_table(D6Chart, series.D6Model, 4, np.float64)
    for n, (M, (P, _)) in enumerate(zip(exact, table), 1):
        assert P.shape[1] <= 4 * n + 1, n
        assert M.lo == 0 and not M.c[:, 1::2].any(), n
        assert P.tolist() == [[float(Fraction(v, M.den)) for v in row[::2]] for row in M.c.tolist()]


def _is_nearest(v, want: Fraction) -> bool:
    """No neighbour of v in its type lies nearer want, and at a tie v's
    mantissa is even."""
    gap = abs(Fraction(*v.as_integer_ratio()) - want)
    real = type(v)
    even = np.ldexp(np.frexp(v)[0], np.finfo(real).nmant + 1) % 2 == 0
    return all(gap < other or gap == other and even for other in (
        abs(Fraction(*np.nextafter(v, real(side)).as_integer_ratio()) - want)
        for side in (np.inf, -np.inf)))


def test_the_80_bit_table_is_the_exact_table_rounded_to_nearest():
    # float64 holds M_n exactly through n = 3 (at most 43 significant bits
    # over a power of 2); D6's M_4 has up to 66, so there the 80-bit table is
    # not the float64 one widened, and one entry of 65 bits is a tie.
    exact = series._exact_numerators(D6Chart, D6Model, 4)
    table = series._slot_table(D6Chart, D6Model, 4, np.longdouble)
    narrow = series._slot_table(D6Chart, D6Model, 4, np.float64)
    assert not np.array_equal(table[-1][0], narrow[-1][0])
    for M, (P, size) in zip(exact, table):
        assert P.dtype == size.dtype == np.longdouble and P.shape == M.c[:, ::2].shape
        for v, want in zip(P.ravel(), M.padded(0)[:, ::2].ravel()):
            assert _is_nearest(v, Fraction(want, M.den))


@pytest.mark.parametrize("real", [np.float64, np.longdouble])
def test_rounding_to_a_binary_type_is_to_nearest_ties_to_even(real):
    bits = np.finfo(real).nmant
    rng = np.random.default_rng(7)
    cases = [((-1) ** k * int(rng.integers(1, 2 ** 62)) << int(rng.integers(0, 80)),
              int(rng.integers(1, 2 ** 40))) for k in range(300)]
    # Halfway between two numbers of the type: 2^bits + j + 1/2.
    cases += [((-1) ** j * (2 ** (bits + 1) + 2 * j + 1), 2) for j in range(4)]
    for p, q in cases:
        m, s = series._rounded(p, q, bits)
        assert _is_nearest(np.ldexp(real(m), -s), Fraction(p, q)), (p, q)


def _eta0_terms(model) -> dict:
    """{(d, p): a} of the eta^0 terms of model.lam_poly()."""
    out = {}
    for d, e, a, p in model.lam_poly():
        if e == 0 and a:
            out[d, p] = out.get((d, p), 0) + a
    return out


def _unit_terms(model_cls, X) -> dict:
    """{(d, p): a} of model_cls.unit_lam_poly, each a at the family's free
    ratio X (D6: c_m = X at c_p = 1; D7: no ratio)."""
    out = {}
    for d, a, p in model_cls.unit_lam_poly:
        value = sum(Fraction(c) * X ** j for j, c in enumerate(a))
        if value:
            out[d, p] = out.get((d, p), 0) + value
    return out


_UNIT_RATIOS = [Fraction(1, 2), Fraction(-3, 4), Fraction(5, 8), Fraction(3)]


def test_each_model_states_its_unit_data():
    # unit_lam_poly, from which the family tables are built, is lam_poly's
    # eta^0 part at unit scale: D6 at c_inf = 1 + X, c_0 = 1 - X (c_p = 1,
    # c_m = X; binary fractions X, so the parameters are exact), D7 at c = 1.
    for X in _UNIT_RATIOS:
        assert _eta0_terms(D6Model(Parameters(1 + X, 1 - X))) == _unit_terms(D6Model, X), X
    assert _eta0_terms(D7Model(1)) == _unit_terms(D7Model, 0)


@pytest.mark.parametrize("wrong", [
    ((3, (-2,), 0), (1, (1,), 1), (0, (-2,), 2)),     # t^2 term -2 for -1
    ((3, (-2,), 0), (1, (2,), 1), (0, (-1,), 2)),     # t lambda term 2 for 1
    ((3, (-3,), 0), (1, (1,), 1), (0, (-1,), 2))],    # lambda^3 term -3 for -2
    ids=["t2", "t-lambda", "lambda3"])
def test_a_d7_model_with_wrong_unit_data_is_refused(wrong):
    # The exact structure checks let these through (D7's numerators have
    # no finite point over t = infinity and one double pole to test); the
    # comparison with lam_poly does not.
    model_cls = type("WrongD7Model", (D7Model,), {"unit_lam_poly": wrong})
    series._exact_numerators(D7Chart, model_cls, 2)
    assert _eta0_terms(model_cls(1)) != _unit_terms(model_cls, 0)


def test_the_table_build_names_the_slot_whose_structure_fails():
    # A wrong eta^0 term of lam_poly, which lambda_0 no longer solves: the
    # exact build refuses B_2's numerator, which keeps odd powers of c_m.
    wrong = ((4, (1,), 0), (3, (-1, -1), 0), (1, (1, -1), 1), (0, (-2,), 2))
    model = type("WrongModel", (series.D6Model,), {"unit_lam_poly": wrong})
    with pytest.raises(series.SlotStructureError, match="M_1 has an odd power"):
        series._exact_numerators(D6Chart, model, 1)


def test_d7_numerators_are_the_exact_literals():
    # B_2n = (u - 1) M_n(u) / (u^n (3u - 2)^5n) at c = 1, M_n of degree 4n - 1:
    # equal to the literal, exactly, at more than 4n points, M_n is its numerator.
    for n, (M, literal) in enumerate(zip(series._exact_numerators(D7Chart, series.D7Model, 2),
                                         (_d7_b2, _d7_b4)), 1):
        assert (M.lo, len(M.c)) == (0, 4 * n)
        for v in (Fraction(k, 7) for k in range(-4 * n, 4 * n + 3) if k not in (0, 7)):
            m = sum(Fraction(a, M.den) * v ** j for j, a in enumerate(M.c[:, 0]))
            assert (v - 1) * m / (v ** n * (3 * v - 2) ** (5 * n)) == literal(v), (n, v)


def test_import_loads_numpy_only_and_builds_no_table():
    # p3wkb depends on numpy alone, and the family tables of odd_slot_ratios
    # are built on their first use, not on import.
    import p3wkb

    code = ("import sys, p3wkb, p3wkb.borel, p3wkb.geometry, p3wkb.voros, p3wkb.walls\n"
            "from p3wkb import series\n"
            "print(sorted({m.split('.')[0] for m in sys.modules} & {'sympy', 'mpmath', 'scipy'}),"
            " series._slot_table.cache_info().currsize)")
    src = str(Path(p3wkb.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env,
                         check=True, timeout=60)
    assert out.stdout.split() == ["[]", "0"]
