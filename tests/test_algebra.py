"""Tests of the algebraic layer: branches, turning points, u-chart, residues."""

import cmath

import mpmath as mp
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from p3wkb import algebra
from p3wkb.algebra import (
    AlgebraError,
    BranchPoint,
    D6Chart,
    D7Chart,
    DegenerateParametersError,
    NearDegenerateWarning,
    Parameters,
    lambda0_branches,
    u_chart,
)
from p3wkb.geometry import emanation_directions
from p3wkb.numerics import Jet

from asymptotics_reference import _classify_branch, phi_primitive
from chart_reference import delta, mu0, turning_points
from residue_reference import residues
from test_walls import WALL_POINTS, _turned

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


@pytest.mark.parametrize("c", [1e5, 1e8])
def test_d7_branches_at_large_c_follow_the_homogeneity(c):
    # 2 lam^3 - c t lam + t^2 is homogeneous under (c, t, lam) -> (s c, s^3 t,
    # s^2 lam).  At large c the roots are gated against the cubic's own terms,
    # not an absolute scale, and equal the roots at c = 1 scaled by s = c
    # (measured within 8.5e-16).
    t = 1 + 0.5j
    roots = [b.lambda0 for b in algebra.d7_lambda0_branches(t, c)]
    ref = [c ** 2 * b.lambda0 for b in algebra.d7_lambda0_branches(t / c ** 3, 1.0)]
    assert len(roots) == 3
    for r in roots:
        assert min(abs(r - q) for q in ref) < 1e-13 * abs(r)


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

def _d6_quartic(b, p):
    t, lam = b.t, b.lambda0
    return lam ** 4 - p.c_inf * lam ** 3 + p.c_0 * t * lam - t * t


def test_turning_points_annihilate_delta():
    tps = turning_points(P_GEN)
    assert len(tps) == 3
    for b in tps:
        # Double root of the quartic: both the quartic and Delta vanish.
        assert abs(_d6_quartic(b, P_GEN)) < 1e-6 * max(1.0, abs(b.t) ** 2)
        assert abs(delta(b, P_GEN)) < 1e-6


def _seeded_d6_params(seed, count):
    rng = np.random.default_rng(seed)
    out = []
    while len(out) < count:
        c_inf, c_0 = rng.uniform(-3, 3, 2) + 1j * rng.uniform(-3, 3, 2)
        if _generic_params(c_inf, c_0):
            out.append(Parameters(c_inf, c_0))
    return out


def test_turning_points_cubic_roots():
    # The t where the quartic has a double root solve the reduced discriminant
    # cubic; its roots, found independently here, match the chart's points
    # one to one, and lambda0 is the double root there.
    for p in [P_ALT] + _seeded_d6_params(24, 20):
        ci, c0 = p.c_inf, p.c_0
        cubic = [-256, 192 * ci * c0, 6 * ci ** 2 * c0 ** 2 - 27 * ci ** 4 - 27 * c0 ** 4,
                 4 * ci ** 3 * c0 ** 3]
        roots = np.roots(cubic)
        tps = turning_points(p)
        nearest = [int(np.argmin(abs(roots - b.t))) for b in tps]
        assert sorted(nearest) == [0, 1, 2]
        for b, k in zip(tps, nearest):
            assert abs(b.t - roots[k]) < 1e-12 * abs(roots[k])
            lam, t = b.lambda0, b.t
            size = max(abs(t) ** 2, abs(lam) ** 4, abs(ci * lam ** 3))
            assert abs(_d6_quartic(b, p)) < 1e-12 * size
            assert abs(4 * lam ** 3 - 3 * ci * lam ** 2 + c0 * t) < 1e-12 * size / abs(lam)


@pytest.mark.parametrize("c", [complex(x, y) for x, y in
                               np.random.default_rng(7).uniform(-3, 3, (10, 2))])
def test_d7_turning_point_is_the_double_root_of_the_cubic(c):
    (b,) = turning_points(c)
    assert abs(b.t - 2 * c ** 3 / 27) < 1e-14 * abs(c) ** 3
    assert abs(b.lambda0 - c ** 2 / 9) < 1e-14 * abs(c) ** 2
    t, lam = b.t, b.lambda0
    size = max(abs(t) ** 2, abs(lam) ** 3, abs(c * t * lam))
    assert abs(2 * lam ** 3 - c * t * lam + t * t) < 1e-14 * size
    assert abs(6 * lam ** 2 - c * t) < 1e-14 * size / abs(lam)


@pytest.mark.parametrize("chart", [D6Chart(P_GEN), D7Chart(2 + 1j)], ids=["d6", "d7"])
def test_simple_pole_lies_over_t_zero(chart):
    assert chart.t_of_u(chart.simple_pole_u) == 0


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


@pytest.mark.parametrize("params, label", [(P_GEN, "inf12"), (P_GEN, "inf34"),
                                           (P_GEN, "zero_cinf"), (P_GEN, "zero_c0"),
                                           (2 + 1j, "zero_c")])
def test_residues_refuse_a_wrong_closed_form(monkeypatch, params, label):
    # A closed form off by 1e-6 relative is 100 times the default tolerance;
    # the one contour around that pole must catch it.
    chart = u_chart(params)
    chart.pole_residues = {**chart.pole_residues,
                           label: chart.pole_residues[label] * (1 + 1e-6)}
    monkeypatch.setattr(algebra, "u_chart", lambda _: chart)
    with pytest.raises(AlgebraError, match=f"residue at {label}:"):
        residues(params)


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
    taus = sorted((b.t for b in turning_points(p)), key=lambda z: cmath.phase(z))
    taus_s = sorted((b.t for b in turning_points(ps)), key=lambda z: cmath.phase(z * r ** 2))
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


# ---------------------------------------------------------------------------
# The closed-form primitive Phi of sqrt(q) du
# ---------------------------------------------------------------------------

PHI_CHARTS = [D6Chart(P_GEN), D6Chart(P_ALT), D6Chart(Parameters(3j, 1 - 2j)),
              D7Chart(2 + 1j), D7Chart(-0.7 + 1.3j)]
PHI_IDS = ["d6", "d6-alt", "d6-loop", "d7", "d7-alt"]


def _sqrt_q(chart, u, ref):
    v = cmath.sqrt(chart.q(u))
    return -v if abs(v - ref) > abs(v + ref) else v


def _no_logs(chart):
    """Phi's logarithms, all zero: a start from which ``phi`` returns
    their principal values."""
    return chart.origin_logs(chart.simple_pole_u)


@pytest.mark.parametrize("chart", PHI_CHARTS, ids=PHI_IDS)
def test_phi_derivative_is_sqrt_q(chart):
    rng = np.random.default_rng(1303)
    us = chart.scale * (rng.uniform(-2, 2, 12) + 1j * rng.uniform(-2, 2, 12))
    for u in map(complex, us):
        sq = cmath.sqrt(chart.q(u))
        logs = chart.phi(u, sq, _no_logs(chart))[1]
        h0 = 1e-3 * min(abs(u - s) for s in chart.singular_points())

        def diff(h):
            ahead = chart.phi(u + h, _sqrt_q(chart, u + h, sq), logs)[0]
            behind = chart.phi(u - h, _sqrt_q(chart, u - h, sq), logs)[0]
            return (ahead - behind) / (2 * h)

        richardson = (4 * diff(h0 / 2) - diff(h0)) / 3
        assert abs(richardson - sq) <= 1e-8 * abs(sq)


@pytest.mark.parametrize("chart", PHI_CHARTS, ids=PHI_IDS)
def test_phi_logarithms_carry_the_pole_residues(chart):
    # Once round each pole of sqrt(q) du (u = infinity on a circle holding
    # every finite singular point), Phi with its logarithms continued
    # changes by 2 pi i times the chart's residue there, up to sign.
    for label, res in chart.pole_residues.items():
        if label == chart.escape_label:
            center, radius = 0j, 2 * chart.scale
        else:
            center = chart.capture_points()[label]
            radius = 0.3 * chart.special_gap(center)
        path = center + radius * np.exp(2j * np.pi * np.arange(257) / 256)
        sq = cmath.sqrt(chart.q(path[0]))
        start, logs = chart.phi(path[0], sq, _no_logs(chart))
        for u in path[1:]:
            sq = _sqrt_q(chart, u, sq)
            end, logs = chart.phi(u, sq, logs)
        jump, period = end - start, 2j * np.pi * res
        assert min(abs(jump - period), abs(jump + period)) <= 1e-12 * max(1.0, abs(start)), label


def _q_30_digits(chart, u):
    if isinstance(chart, D6Chart):
        cp, cm = mp.mpc(chart.p.c_p), mp.mpc(chart.p.c_m)
        return 4 * (cp ** 2 * u ** 3 + cm ** 2) ** 3 / ((u + 1) * u ** 4 * (cp ** 2 * u ** 2 - cm ** 2) ** 2)
    c = mp.mpc(chart.c)
    return (3 * u - 2 * c) ** 3 / (u * (u - c) ** 2)


@pytest.mark.parametrize("chart", PHI_CHARTS, ids=PHI_IDS)
def test_phi_keeps_its_digits_near_the_double_poles(chart):
    # Phi(u2) - Phi(u1) for u1, u2 at 1 and 2 times dist from a double pole
    # against 40-node Gauss-Legendre in 30-digit arithmetic: within 1e-12
    # relative, beyond what rounding u itself moves Phi, eps |u sqrt(q)|
    # (four times over: the product c_p u rounds before c_m is taken off).
    # Log quotients formed from their own rounded sides missed by 1e-11 to
    # 3e-9 relative at dist = 1e-3, and by up to 6e-7 at 1e-4.
    x, w = np.polynomial.legendre.leggauss(40)
    eps = np.finfo(float).eps
    with mp.workdps(30):
        for pole in chart.double_poles_u.values():
            for dist in (1e-2, 1e-3, 1e-4, 1e-5, 1e-6):
                u1 = pole + dist * cmath.exp(0.3j)
                u2 = pole + 2 * dist * cmath.exp(1.3j)
                sq1 = cmath.sqrt(chart.q(u1))
                phi1, logs = chart.phi(u1, sq1, _no_logs(chart))
                total, ref = mp.mpc(0), mp.mpc(sq1)
                for xk, wk in zip(x, w):
                    u = mp.mpc(u1) + (mp.mpc(u2) - mp.mpc(u1)) * (1 + mp.mpf(xk)) / 2
                    v = mp.sqrt(_q_30_digits(chart, u))
                    ref = -v if abs(v - ref) > abs(v + ref) else v
                    total += wk * ref
                integral = complex(total * (mp.mpc(u2) - mp.mpc(u1)) / 2)
                sq2 = _sqrt_q(chart, u2, complex(ref))
                phi2 = chart.phi(u2, sq2, logs)[0]
                rounding = 4 * eps * (abs(u1 * sq1) + abs(u2 * sq2))
                assert abs(phi2 - phi1 - integral) <= 1e-12 * abs(integral) + rounding, dist


@pytest.mark.parametrize("params", [P_GEN, Parameters(3j, 1 - 2j)], ids=["d6", "d6-loop"])
def test_phi_matches_the_t_form_primitive_along_a_path(params):
    # The t-form phi_primitive at t(u), lambda0(u) and R_{-1} = sqrt(q)/(dt/du)
    # is an independent primitive of the same form; its logarithms are
    # principal, so the two differ by a constant plus multiples of pi i c_inf
    # and pi i c_0, which it takes on crossing its branch cuts.
    chart = D6Chart(params)
    rng = np.random.default_rng(2013)
    angles = np.sort(rng.uniform(0, 2 * np.pi, 300))
    radii = 0.7 + 0.05 * rng.standard_normal(300)
    sq, logs, first, jumps = None, _no_logs(chart), None, set()
    basis = np.array([[params.c_inf.real, params.c_0.real],
                      [params.c_inf.imag, params.c_0.imag]])
    for u in map(complex, radii * np.exp(1j * angles)):
        sq = cmath.sqrt(chart.q(u)) if sq is None else _sqrt_q(chart, u, sq)
        phi, logs = chart.phi(u, sq, logs)
        r = sq / chart.dt_du(u)
        t, lam = chart.t_of_u(u), chart.lambda0_of_u(u)
        sign = 1 if abs(cmath.sqrt(delta(BranchPoint(t, lam), params)) - r) < abs(r) else -1
        gap = phi - phi_primitive(BranchPoint(t, lam, sign=sign), params)
        first = gap if first is None else first
        k = (gap - first) / (1j * np.pi)
        m, n = np.linalg.solve(basis, [k.real, k.imag])
        assert abs(m - round(m)) < 1e-9 and abs(n - round(n)) < 1e-9
        jumps.add((round(m), round(n)))
    assert len(jumps) > 1       # the path crosses a branch cut of the t-form


def test_branch_point_rejects_a_sign_other_than_plus_or_minus_one():
    # With sign = 0, the t-form phi_primitive returned 0j without complaint.
    b = lambda0_branches(0.8 + 0.6j, P_GEN)[0]
    for sign in (0, 2, -1.5):
        with pytest.raises(ValueError, match="sign must be"):
            BranchPoint(b.t, b.lambda0, sign=sign)


# ---------------------------------------------------------------------------
# Chart data read once: singular points and gaps, the divisor of q, the
# leads at its poles, their end domains and the expansions at the origins
# ---------------------------------------------------------------------------

END_CHARTS = PHI_CHARTS + [D6Chart(Parameters(-3 + 1j, 1 + 0.5j)), D7Chart(1j),
                           D6Chart(Parameters(-1.3447470589763546 + 0.8018009835012454j,
                                              1.776090862600697 - 0.7735880706937113j))]
END_IDS = PHI_IDS + ["d6-chamber-IV", "d7-loop", "d6-large-cm"]


# Charts whose double pole has its residue just off the imaginary axis, where
# the wall-side radius of its end domain is the larger one.
WALL_SIDE_CHARTS = ([D7Chart(cmath.rect(1.0, np.radians(90 + off)))
                     for off in (0.3, -0.3, 0.01, -0.01)]
                    + [D6Chart(_turned(WALL_POINTS[label], off)) for label in ("W1", "W3")
                       for off in (0.01, -0.01)])
WALL_SIDE_IDS = [f"d7-{off:+g}deg" for off in (0.3, -0.3, 0.01, -0.01)] + [
    f"{label}-{off:+g}deg" for label in ("W1", "W3") for off in (0.01, -0.01)]
#: Ein(log(3/2)) = int_0^log(3/2) (e^y - 1) dy / y, which bounds I(R*).
EIN = float(mp.quad(lambda y: mp.expm1(y) / y, [0, mp.log(1.5)]))
_GL64_X, _GL64_W = np.polynomial.legendre.leggauss(64)


@pytest.mark.parametrize("chart", PHI_CHARTS, ids=PHI_IDS)
def test_singular_points_and_gaps_are_shared_read_only_values(chart):
    # Built once per chart; a caller can read them but not change the copy
    # every other caller reads.
    points = chart.singular_points()
    assert points is chart.singular_points()
    with pytest.raises(TypeError):
        points[0] = 0j
    with pytest.raises(AttributeError):
        points.append(0j)
    gaps = chart.special_gaps
    assert gaps is chart.special_gaps
    with pytest.raises(TypeError):
        gaps[points[0]] = 1.0
    assert points == chart.singular_points()
    for s in points:
        assert chart.special_gap(s) == min(abs(t - s) for t in points if t != s)
    u = 0.123 + 0.456j
    assert chart.special_gap(u) == min(abs(t - u) for t in points)


@pytest.mark.parametrize("chart", PHI_CHARTS, ids=PHI_IDS)
def test_divisor_gives_q_up_to_a_constant(chart):
    # q is a constant times prod (u - z)^m over the divisor, and the orders
    # sum to 0: q tends to that constant at u = infinity.
    assert [z for z, _ in chart.divisor] == list(chart.singular_points())
    assert sum(m for _, m in chart.divisor) == 0
    rng = np.random.default_rng(30)
    us = chart.scale * (rng.uniform(-2, 2, 8) + 1j * rng.uniform(-2, 2, 8))
    ratios = [chart.q(u) / np.prod([(u - z) ** m for z, m in chart.divisor]) for u in us]
    assert max(abs(r / ratios[0] - 1) for r in ratios) < 1e-12


@pytest.mark.parametrize("chart", PHI_CHARTS, ids=PHI_IDS)
def test_pole_leads_are_the_leading_terms_of_sqrt_q(chart):
    # sqrt(q) (u - p)^k / lead -> +-1 at a pole p of q of order 2k, and
    # sqrt(q) / lead -> +-1 at u = infinity, the defect falling with the
    # distance; a double pole's lead is its residue.
    captures = chart.capture_points()
    for label, lead in chart.pole_leads.items():
        defects = []
        for r in (1e-4, 1e-5):
            if label == chart.escape_label:
                u = chart.scale / r * cmath.exp(0.7j)
                ratio = cmath.sqrt(chart.q(u)) / lead
            else:
                pole = captures[label]
                k = 1 if label in chart.double_poles_u else 2
                v = r * chart.special_gap(pole) * cmath.exp(0.7j)
                ratio = cmath.sqrt(chart.q(pole + v)) * v ** k / lead
            defects.append(min(abs(ratio - 1), abs(ratio + 1)))
        assert defects[1] < 2e-4 and defects[1] < 0.2 * defects[0] + 1e-12, label
        if label in chart.double_poles_u:
            assert lead == chart.pole_residues[label]
    assert set(chart.pole_leads) == set(chart.pole_residues)


def _continued(values):
    """values times the signs that keep them continuous from the first."""
    out = [values[0]]
    for v in values[1:]:
        out.append(-v if abs(v + out[-1]) < abs(v - out[-1]) else v)
    return out


def _levels(chart, pole, res, vs):
    """log|v| + Re(h(v) / res) at the points vs, h(v) = int_0^v (sqrt(q) -
    res / w) dw along the ray from the pole, by 64-point Gauss-Legendre, the
    square root continued out along the ray from res / w.  On a trajectory
    it is Re(Phi / res), Phi = int sqrt(q) du, up to a constant."""
    ts = (_GL64_X + 1) / 2
    w = np.asarray(vs)[:, None] * ts[None, :]
    g = np.sqrt(chart.q(pole + w)) * w / res          # -> +-1 at the pole
    prev = np.ones(len(vs), complex)
    for k in range(len(ts)):
        g[:, k] = np.where(np.abs(g[:, k] + prev) < np.abs(g[:, k] - prev), -g[:, k], g[:, k])
        prev = g[:, k]
    return np.log(np.abs(vs)) + ((g - 1) / ts[None, :] @ (_GL64_W / 2)).real


@pytest.mark.parametrize("chart", END_CHARTS + WALL_SIDE_CHARTS, ids=END_IDS + WALL_SIDE_IDS)
def test_end_domains_hold_the_curves_that_enter_them(chart):
    # Sampled from q itself, not from the divisor bound the chart sizes the
    # domains with.  Order 2, for the branch whose residue res has Re <= 0:
    # either the field conj(sqrt q) points into the pole on the disc (Re((u
    # - p) sqrt(q)) < 0), or the disc is the wall-side one, on whose circle
    # the level L = log|v| + Re(h/res), which falls along a trajectory
    # where Re res < 0 and holds where Re res = 0, stays below its least
    # value on the circle e^(2 Ein(log(3/2))) times as wide, inside the
    # pole's gap: what enters the disc never gets that far out.  The disc is
    # the wall-side one exactly where the residue lies within 1 % of the
    # imaginary axis (on the walls and in WALL_SIDE_CHARTS).
    # Order 4: on every circle |zeta| >= depth, g = sqrt(q) / (lead
    # zeta^2) (sqrt(q) / lead at infinity), continued round it, has Re g >
    # 0, so the field advances Re(lead zeta).
    angles = np.exp(2j * np.pi * np.arange(513) / 512)    # closed: the last is the first
    wall_side = []
    for d in chart.end_domains:
        assert d.radius > 0
        if d.order == 2:
            res = d.lead if d.lead.real <= 0 else -d.lead
            v = (d.radius * np.arange(1, 9) / 8)[:, None] * angles
            s = np.sqrt(chart.q(d.pole + v))
            s = np.where((s * v / res).real < 0, -s, s)
            if np.all((v * s).real < 0):
                continue
            outer = d.radius * np.exp(2 * EIN)
            assert outer < chart.special_gap(d.pole), d.label
            assert (_levels(chart, d.pole, res, d.radius * angles).max()
                    < _levels(chart, d.pole, res, outer * angles).min()), d.label
            wall_side.append(d.label)
            continue
        depth = d.radius if d.pole is None else 1 / d.radius
        for x in depth * np.array([1.0, 1.1, 1.5, 3.0, 10.0]):
            zetas = x * angles
            us = zetas if d.pole is None else d.pole - 1 / zetas
            scale = np.ones_like(zetas) if d.pole is None else zetas ** 2
            g = _continued([cmath.sqrt(chart.q(u)) / (d.lead * k) for u, k in zip(us, scale)])
            g = np.asarray(g) * (1 if g[0].real > 0 else -1)
            assert np.all(g.real > 0), (d.label, x)
            assert abs(g[-1] - g[0]) < 1e-9 * abs(g[0])    # single-valued round the circle
    near_axis = [label for label in chart.double_poles_u
                 if abs(chart.pole_residues[label].real) < 0.01 * abs(chart.pole_residues[label])]
    assert sorted(wall_side) == sorted(near_axis)


@pytest.mark.parametrize("family", ["d6", "d7"])
def test_wall_side_radius_integral_stays_below_ein(family):
    # The wall-side radius e^(-2 Ein) R* of a double pole's end domain takes
    # I(R*) = int_0^R* (e^B(x) - 1) dx / x <= Ein(log(3/2)) from B(R*) =
    # log(3/2) and B convex; here I(R*) by 64-point Gauss-Legendre, B the
    # divisor bound at the pole, on seeded charts of both families.
    if family == "d6":
        charts = [D6Chart(p) for p in _seeded_d6_params(35, 12)]
    else:
        rng = np.random.default_rng(35)
        charts = [D7Chart(cmath.rect(rng.uniform(0.3, 3.5), rng.uniform(-np.pi, np.pi)))
                  for _ in range(12)]
    for chart in charts:
        for label, pole in chart.double_poles_u.items():
            others = [(1 / (pole - z), m) for z, m in chart.divisor
                      if not chart.same_point(z, pole)]
            kappa = abs(sum(b * m for b, m in others)) / 2
            terms = [(abs(m) / 2, abs(b)) for b, m in others]

            def bound(x):
                return kappa * x + sum(w * (-np.log1p(-b * x) - b * x) for w, b in terms)

            r_star = algebra._arg_bound_radius(kappa, terms, np.log(1.5))
            assert bound(r_star) <= np.log(1.5)
            x = r_star * (_GL64_X + 1) / 2
            integral = r_star / 2 * np.sum(_GL64_W * np.expm1(bound(x)) / x)
            assert 0 < integral <= EIN, label
            domain = next(d for d in chart.end_domains if d.label == label)
            assert domain.radius >= np.exp(-2 * EIN) * r_star * (1 - 1e-12)


@pytest.mark.parametrize("chart", PHI_CHARTS, ids=PHI_IDS)
def test_origin_expansions_sum_to_sqrt_q(chart):
    # sqrt(q(u0 + v)) = +-sqrt(lead) v^e sum_n g_n v^n, to rounding at a
    # tenth of the origin's gap (the first point's distance), every way out.
    for u0, (center, e, lead, g) in chart.origin_expansions.items():
        assert abs(center - u0) < 1e-14 * chart.scale
        for w in np.exp(2j * np.pi * np.arange(7) / 7):
            v = complex(0.1 * chart.special_gap(u0) * w)
            series = cmath.sqrt(lead) * v ** e * sum(gn * v ** n for n, gn in enumerate(g))
            exact = cmath.sqrt(chart.q(center + v))
            assert min(abs(exact - series), abs(exact + series)) <= 1e-14 * abs(exact)
