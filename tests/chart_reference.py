"""The chart's turning points in the (t, lambda0) plane, for the tests that
place base points at or beside them; the leading terms Delta and mu0 of
the D6 series at a branch point, for the tests that check the solvers and
the chart against them; the expansion of sqrt(q) at an origin by the
recursion on its logarithmic derivative, for the test that checks the
chart's binomial products against it; and the families' unit-scale data,
typed out by hand, for the test that reads them off the declared maps."""

from p3wkb.algebra import AlgebraError, BranchPoint, Parameters, u_chart


def turning_points(params) -> tuple:
    """The turning points (t, lambda0) where two lambda0 sheets meet, read
    off the chart's order-3 zeros of q: three for D6 (``Parameters``), one
    for D7 (a complex c: t = 2c^3/27, lambda0 = c^2/9)."""
    chart = u_chart(params)
    return tuple(BranchPoint(chart.t_of_u(u), chart.lambda0_of_u(u))
                 for u in chart.turning_points_u)


def delta(b: BranchPoint, p: Parameters) -> complex:
    """Delta = dF/dlambda at (lambda0, t); its square root is R_{-1}."""
    if b.lambda0 == 0:
        raise AlgebraError("Delta undefined at lambda0 = 0")
    t, lam = b.t, b.lambda0
    return 3 * lam ** 2 / t ** 2 - 2 * p.c_inf * lam / t ** 2 + 1 / lam ** 2


def mu0(b: BranchPoint, p: Parameters) -> complex:
    """Leading term of the conjugate momentum: 1/2 + c_0/(2 lambda0) - t/(2 lambda0^2)."""
    if b.lambda0 == 0:
        raise AlgebraError("mu0 undefined at lambda0 = 0")
    t, lam = b.t, b.lambda0
    return 0.5 + p.c_0 / (2 * lam) - t / (2 * lam ** 2)


def recursive_origin_series(chart, u0: complex, terms: int) -> list:
    """g_0 .. g_(terms-1) of ``UChart.origin_expansions`` at u0: g is the
    product of (1 + v / (u0 - z_i))^(m_i / 2) over the rest of the divisor,
    here by the recursion (n + 1) g_(n+1) = sum_k c_k g_(n-k) on its
    logarithmic derivative sum_k c_k v^k, c_k = sum_i (m_i / 2) a_i (-a_i)^k
    with a_i = 1 / (u0 - z_i)."""
    c = [0j] * terms
    for z, m in chart.divisor:
        if chart.same_point(z, u0):
            continue
        a = 1 / (u0 - z)
        term, neg = m / 2 * a, -a
        for k in range(terms):
            c[k] += term
            term *= neg
    g = [1 + 0j]
    for n in range(1, terms):
        acc = 0j
        for ck, gk in zip(c, reversed(g)):
            acc += ck * gk
        g.append(acc / n)
    return g


#: Per family, at unit scale (D6: c_p = 1, columns the powers of c_m; D7: c
#: = 1), as (rows, lo) with rows the powers of u from u^lo, or as rows from
#: u^0: lambda_0; t / lambda_0 = (u + 1)(u - c_m) / (2u) on D6, u on D7; h
#: with t / t'(u) = (u - u_s) h(u) / T(u); T, u^3 + c_m^2 and 3u - 2; the
#: monic polynomial of the double poles, u^2 - c_m^2 and u - 1; and a with
#: t^2 Delta = u^a (u - u_s) T(u).
UNIT_DATA = {
    "d6": {"lambda0": (((0, 0.5), (0.5, 0.5), (0.5, 0)), -1),
           "t_over_lambda0": (((0, -0.5), (0.5, -0.5), (0.5, 0)), -1),
           "theta": (((0, 0, -0.5), (0, 0, 0), (0.5, 0, 0)), 1),
           "turning": ((0, 0, 1), (0, 0, 0), (0, 0, 0), (1, 0, 0)),
           "double_poles": ((0, 0, -1), (0, 0, 0), (1, 0, 0)),
           "delta_power": -2},
    "d7": {"lambda0": (((0.5,), (-0.5,)), 1),
           "t_over_lambda0": (((1,),), 1),
           "theta": (((-1,), (1,)), 0),
           "turning": ((-2,), (3,)),
           "double_poles": ((-1,), (1,)),
           "delta_power": 0},
}
