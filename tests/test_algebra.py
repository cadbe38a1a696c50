"""Tests of the algebraic layer: branches, turning points, u-chart, residues."""

import cmath

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from p3wkb.algebra import (
    BranchPoint,
    D6Chart,
    D7Chart,
    DegenerateParametersError,
    NearDegenerateWarning,
    Parameters,
    delta,
    lambda0_branches,
    mu0,
    residues,
    turning_points,
    u_chart,
)
from p3wkb.geometry import emanation_directions
from p3wkb.numerics import Jet

from asymptotics_reference import _classify_branch

P_GEN = Parameters(2 + 1j, 3)
P_ALT = Parameters(2, 2 - 1j)


def _complexes(lo=-3.0, hi=3.0):
    floats = st.floats(lo, hi, allow_nan=False, allow_infinity=False)
    return st.builds(complex, floats, floats)


def _generic_params(c_inf, c_0):
    s = max(abs(c_inf), abs(c_0))
    return (s > 0.1
            and abs(c_inf) > 1e-2 * s
            and abs(c_0) > 1e-2 * s
            and abs(c_inf ** 2 - c_0 ** 2) > 1e-2 * s * s
            and abs(c_inf ** 2 + c_0 ** 2) > 1e-2 * s * s)


# ---------------------------------------------------------------------------
# Parameters
# ---------------------------------------------------------------------------

def test_parameter_combinations():
    p = Parameters(2 + 1j, 3)
    assert p.c_p == pytest.approx((5 + 1j) / 2)
    assert p.c_m == pytest.approx((-1 + 1j) / 2)


@pytest.mark.parametrize("c_inf,c_0", [
    (0, 3), (2, 0), (2, 2), (2, -2), (1j, 1), (1j, -1),
])
def test_degenerate_parameters_rejected(c_inf, c_0):
    with pytest.raises(DegenerateParametersError):
        Parameters(c_inf, c_0)


def test_near_degenerate_parameters_warn():
    with pytest.warns(NearDegenerateWarning):
        Parameters(2, 2 + 1e-8)


# ---------------------------------------------------------------------------
# Branches of lambda0
# ---------------------------------------------------------------------------

@given(_complexes(), _complexes(), _complexes(0.2, 2.0))
@settings(deadline=None, max_examples=60)
def test_branches_satisfy_vieta(c_inf, c_0, t):
    if not _generic_params(c_inf, c_0) or abs(t) < 0.3:
        return
    p = Parameters(c_inf, c_0)
    roots = [b.lambda0 for b in lambda0_branches(t, p)]
    scale = max(1.0, max(abs(r) for r in roots)) ** 4
    assert abs(sum(roots) - c_inf) < 1e-9 * scale
    e2 = sum(roots[i] * roots[j] for i in range(4) for j in range(i + 1, 4))
    assert abs(e2) < 1e-9 * scale
    e3 = sum(roots[i] * roots[j] * roots[k]
             for i in range(4) for j in range(i + 1, 4) for k in range(j + 1, 4))
    assert abs(e3 + c_0 * t) < 1e-9 * scale
    prod = roots[0] * roots[1] * roots[2] * roots[3]
    assert abs(prod + t * t) < 1e-9 * scale


def test_branches_reject_t_zero():
    from p3wkb.algebra import AlgebraError
    with pytest.raises(AlgebraError):
        lambda0_branches(0, P_GEN)


def test_large_t_branch_clustering():
    t = 1e6 + 0.3j
    tags = sorted(_classify_branch(b, P_GEN)
                  for b in lambda0_branches(t, P_GEN))
    assert tags == ["inf1", "inf2", "inf3", "inf4"]


def test_small_t_branch_realization():
    t = 1e-6 * (1 + 0.2j)
    tags = sorted(_classify_branch(b, P_GEN)
                  for b in lambda0_branches(t, P_GEN))
    assert tags == ["simple_pole", "simple_pole", "zero_c0", "zero_cinf"]


# ---------------------------------------------------------------------------
# Turning points
# ---------------------------------------------------------------------------

def test_turning_points_annihilate_delta():
    tps = turning_points(P_GEN)
    assert len(tps.taus) == 3
    assert tps.tau_sp == 0
    for tau, lam in tps.taus:
        b = BranchPoint(tau, lam)
        # Double root of the quartic: both the quartic and Delta vanish.
        assert b.residual(P_GEN) < 1e-6 * max(1.0, abs(tau) ** 2)
        assert abs(delta(b, P_GEN)) < 1e-6


def test_turning_points_cubic_roots():
    ci, c0 = P_ALT.c_inf, P_ALT.c_0
    for tau in turning_points(P_ALT).t_values():
        val = (-256 * tau ** 3 + 192 * ci * c0 * tau ** 2
               + (6 * ci ** 2 * c0 ** 2 - 27 * ci ** 4 - 27 * c0 ** 4) * tau
               + 4 * ci ** 3 * c0 ** 3)
        assert abs(val) < 1e-8 * max(1.0, abs(tau)) ** 3


# ---------------------------------------------------------------------------
# u-chart
# ---------------------------------------------------------------------------

def test_u_chart_roundtrip_all_branches():
    chart = u_chart(P_GEN)
    t = 0.7 - 0.4j
    for b in lambda0_branches(t, P_GEN):
        m = mu0(b, P_GEN)
        u = (1 - m) / m                  # the D6 chart's u, so mu0 = 1/(1+u)
        assert abs(chart.t_of_u(u) - t) < 1e-9 * max(1.0, abs(t))
        assert abs(chart.lambda0_of_u(u) - b.lambda0) < 1e-9 * max(1.0, abs(b.lambda0))
        assert abs(1 / (1 + u) - m) < 1e-10


@given(_complexes(), _complexes(), _complexes(0.3, 1.5))
@settings(deadline=None, max_examples=60)
def test_q_matches_delta(c_inf, c_0, u):
    if not _generic_params(c_inf, c_0):
        return
    p = Parameters(c_inf, c_0)
    chart = u_chart(p)
    if min(abs(u - s) for s in chart.singular_points()) < 0.2 or abs(u) < 0.2:
        return
    t = chart.t_of_u(u)
    if abs(t) < 1e-3:
        return
    b = BranchPoint(complex(t), complex(chart.lambda0_of_u(u)))
    dtdu = chart.dt_du(u)
    lhs = chart.q(u) / dtdu ** 2
    rhs = delta(b, p)
    assert abs(lhs - rhs) < 1e-8 * max(1.0, abs(rhs))


def test_q_zero_and_pole_orders():
    chart = u_chart(P_GEN)
    p = P_GEN
    # Order-3 zeros at the three turning points.
    for utp in chart.turning_points_u:
        jet = chart.q(Jet.variable(utp, 4))
        scale = abs(jet.coeffs[3])
        assert scale > 1e-10
        assert abs(jet.coeffs[0]) < 1e-9 * scale
        assert abs(jet.coeffs[1]) < 1e-9 * scale
        assert abs(jet.coeffs[2]) < 1e-9 * scale
    # Simple pole at u = -1 with leading coefficient -4 c_inf c_0.
    eps = 1e-7
    lead = (chart.q(-1 + eps) * eps)
    assert abs(lead - (-4 * p.c_inf * p.c_0)) < 1e-4
    # Double poles at +/- c_m/c_p with (u - u0)^2 q -> c_inf^2, c_0^2.
    for label, expect in [("zero_cinf", p.c_inf ** 2), ("zero_c0", p.c_0 ** 2)]:
        u0 = chart.double_poles_u[label]
        val = chart.q(u0 + eps) * eps ** 2
        assert abs(val - expect) < 1e-4
    # Order-4 pole at u = 0: u^4 q -> 4 c_m^2; constant 4 c_p^2 at infinity.
    assert abs(chart.q(eps) * eps ** 4 - 4 * p.c_m ** 2) < 1e-4
    assert abs(chart.q(1e6) - 4 * p.c_p ** 2) < 1e-3


def test_q_invariant_under_parameter_swap():
    chart1 = u_chart(P_GEN)
    chart2 = u_chart(P_GEN.swapped())
    for u in (0.4 + 0.2j, -0.6 + 1.1j, 2.3 - 0.7j):
        assert abs(chart1.q(u) - chart2.q(u)) < 1e-12 * abs(chart1.q(u))


def test_residue_closed_forms_confirmed_by_contours():
    res = residues(P_GEN)
    assert res["inf12"] == pytest.approx(P_GEN.c_p)
    assert res["inf34"] == pytest.approx(P_GEN.c_m)
    assert res["zero_cinf"] == pytest.approx(P_GEN.c_inf)
    assert res["zero_c0"] == pytest.approx(P_GEN.c_0)
    residues(P_ALT)  # second chamber, same oracle
    # D7: +/- c at the double pole u = c, no residue at u = infinity.
    for c in (2 + 1j, 1j, -0.7638629002045076 + 1.259755939720333j):
        assert residues(c, tol=1e-12) == {"escaped": 0, "zero_c": c}


@pytest.mark.parametrize("p", [P_GEN, P_ALT])
def test_residues_under_parameter_swap(p):
    # c_inf <-> c_0 keeps c_p, negates c_m and exchanges the two double poles
    # over t = 0; the contours confirm the swapped closed forms too.
    res = residues(p)
    assert residues(p.swapped()) == {"inf12": res["inf12"], "inf34": -res["inf34"],
                                     "zero_cinf": res["zero_c0"], "zero_c0": res["zero_cinf"]}


# ---------------------------------------------------------------------------
# Homogeneity under (t, c_inf, c_0) -> (r^-2 t, r^-1 c_inf, r^-1 c_0)
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("r", [2.0, 1 / 3])
def test_homogeneity_of_branch_data(r):
    p = P_GEN
    ps = Parameters(p.c_inf / r, p.c_0 / r)
    t = 0.9 + 0.5j
    lams = sorted((b.lambda0 for b in lambda0_branches(t, p)),
                  key=lambda z: (round(z.real, 6), round(z.imag, 6)))
    lams_s = sorted((b.lambda0 for b in lambda0_branches(t / r ** 2, ps)),
                    key=lambda z: (round((z * r).real, 6), round((z * r).imag, 6)))
    for lam, lam_s in zip(lams, lams_s):
        assert abs(lam_s - lam / r) < 1e-10 * max(1.0, abs(lam))
        b = BranchPoint(t, lam)
        bs = BranchPoint(t / r ** 2, lam_s)
        assert abs(delta(bs, ps) - r ** 2 * delta(b, p)) < 1e-8 * abs(delta(b, p))
        assert abs(mu0(bs, ps) - mu0(b, p)) < 1e-10
    taus = sorted(turning_points(p).t_values(), key=lambda z: cmath.phase(z))
    taus_s = sorted(turning_points(ps).t_values(), key=lambda z: cmath.phase(z * r ** 2))
    for tau, tau_s in zip(taus, taus_s):
        assert abs(tau_s - tau / r ** 2) < 1e-10 * max(1.0, abs(tau))


# ---------------------------------------------------------------------------
# Degenerate-family chart
# ---------------------------------------------------------------------------

def test_d7_chart_consistency():
    c = 2 + 1j
    chart = D7Chart(c)
    for u in (0.5 + 0.3j, -1.2 + 0.8j, 3.1 - 0.4j):
        lam, t = chart.lambda0_of_u(u), chart.t_of_u(u)
        assert abs(2 * lam ** 3 - c * t * lam + t * t) < 1e-10 * max(1.0, abs(t)) ** 2
        assert abs(1 / u - (c * lam - t) / (2 * lam ** 2)) < 1e-12     # mu0 = 1/u
        dtdu = chart.dt_du(u)
        rhs = -4 * lam / t ** 2 + 1 / lam ** 2
        assert abs(chart.q(u) / dtdu ** 2 - rhs) < 1e-9 * max(1.0, abs(rhs))


def test_d7_distinguished_points():
    c = 2 + 1j
    chart = D7Chart(c)
    (utp,) = chart.turning_points_u
    assert utp == pytest.approx(2 * c / 3)
    assert chart.t_of_u(utp) == pytest.approx(2 * c ** 3 / 27)
    jet = chart.q(Jet.variable(utp, 4))
    assert abs(jet.coeffs[0]) < 1e-12
    assert abs(jet.coeffs[1]) < 1e-12
    assert abs(jet.coeffs[2]) < 1e-12
    assert abs(jet.coeffs[3]) > 1e-6
    eps = 1e-6
    assert abs(chart.q(eps) * eps - (-8 * c)) < 1e-4        # simple pole at u = 0
    assert abs(chart.q(c + eps) * eps ** 2 - c ** 2) < 1e-4  # double pole at u = c
    assert abs(chart.q(1e8) - 27) < 1e-5                     # regular at infinity
    assert abs(chart.t_of_u(0)) == 0                         # both over t = 0


def test_d7_rejects_zero_parameter():
    with pytest.raises(DegenerateParametersError):
        D7Chart(0)


@pytest.mark.parametrize("chart", [D6Chart(P_GEN), D7Chart(2 + 1j)], ids=["d6", "d7"])
def test_chart_maps_on_node_arrays_equal_the_scalar_maps(chart):
    us = np.array([0.5 + 0.5j, -2 + 0.3j, 1.5 - 1j, 3 + 2j, -0.4 - 1.3j, 0.2 + 0.05j, 40 - 25j])
    ws = 1 / us
    for name in ("t_of_u", "lambda0_of_u", "dt_du"):
        chart_map = getattr(chart, name)
        got = chart_map(us)
        want = np.array([complex(chart_map(complex(u))) for u in us])
        assert np.all(np.abs(got - want) <= 1e-14 * np.abs(want)), name
    # dt/dw at w = 1/u, as the oracle's leg to u = infinity takes it.
    got = chart.t_of_u(1 / Jet.variable(ws, 1)).coeffs[1]
    want = np.array([chart.t_of_u(1 / Jet.variable(complex(w), 1)).coeffs[1] for w in ws])
    assert np.all(np.abs(got - want) <= 1e-14 * np.abs(want))


@pytest.mark.parametrize("chart", [D6Chart(P_GEN), D6Chart(P_ALT), D7Chart(2 + 1j),
                                   D7Chart(-0.7 + 1.3j)], ids=["d6", "d6-alt", "d7", "d7-alt"])
def test_closed_form_local_data_match_jets(chart):
    # The chart's closed forms against jets pushed through its own maps:
    # dt/du, q's (u - u_tp)^3 lead at each turning point and q's residue
    # at the simple pole, all within 1e-13 relative.
    rng = np.random.default_rng(20130315)
    us = chart.scale * (rng.uniform(-2, 2, 40) + 1j * rng.uniform(-2, 2, 40))
    want = chart.t_of_u(Jet.variable(us, 1)).coeffs[1]
    assert np.all(np.abs(chart.dt_du(us) - want) <= 1e-13 * np.abs(want))
    for u, w in zip(us, want):
        assert abs(chart.dt_du(complex(u)) - w) <= 1e-13 * abs(w)
    # dt/dw at w = 1/u, the Jacobian of the oracle's leg to u = infinity.
    ws = 1 / us
    want = chart.t_of_u(1 / Jet.variable(ws, 1)).coeffs[1]
    assert np.all(np.abs(-chart.dt_du(1 / ws) / ws ** 2 - want) <= 1e-13 * np.abs(want))

    for u_tp, lead in zip(chart.turning_points_u, chart.turning_point_leads):
        want = chart.q(Jet.variable(u_tp, 4)).coeffs[3]
        assert lead == chart.q_leading(u_tp)
        assert abs(lead - want) <= 1e-13 * abs(want)

    # (u - u_sp) q(u) is analytic inside a circle that holds no other
    # singular point, so its mean over the circle is q's residue at u_sp.
    u_sp = chart.simple_pole_u
    us = u_sp + 0.1 * chart.special_gap(u_sp) * np.exp(2j * np.pi * np.arange(64) / 64)
    want = np.mean((us - u_sp) * chart.q(us))
    assert abs(chart.simple_pole_lead - want) <= 1e-13 * abs(want)
    # Along the simple pole's ray d, q du^2 ~ simple_pole_lead * d / r dr^2 > 0.
    (d,) = emanation_directions(u_sp, chart)
    z = chart.simple_pole_lead * d
    assert z.real > 0 and abs(z.imag) <= 1e-15 * abs(z)


def test_branch_point_rejects_a_sign_other_than_plus_or_minus_one():
    # With sign = 0, geometry.phi_primitive returned 0j without complaint.
    b = lambda0_branches(0.8 + 0.6j, P_GEN)[0]
    for sign in (0, 2, -1.5):
        with pytest.raises(ValueError, match="sign must be"):
            BranchPoint(b.t, b.lambda0, sign=sign)
