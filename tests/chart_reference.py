"""The chart's turning points in the (t, lambda0) plane, for the tests that
place base points at or beside them."""

from p3wkb.algebra import BranchPoint, u_chart


def turning_points(params) -> tuple:
    """The turning points (t, lambda0) where two lambda0 sheets meet, read
    off the chart's order-3 zeros of q: three for D6 (``Parameters``), one
    for D7 (a complex c: t = 2c^3/27, lambda0 = c^2/9)."""
    chart = u_chart(params)
    return tuple(BranchPoint(chart.t_of_u(u), chart.lambda0_of_u(u))
                 for u in chart.turning_points_u)
