"""The chart's turning points in the (t, lambda0) plane, for the tests that
place base points at or beside them, and the leading terms Delta and mu0 of
the D6 series at a branch point, for the tests that check the solvers and
the chart against them."""

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
