"""Stokes geometry: emanating rays, curve tracing, degeneration detection,
the t-form phase primitive of the test reference, and diagram rendering."""

import cmath
import json
import math
import random
import time
import xml.etree.ElementTree as ET

import mpmath as mp
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from p3wkb import geometry
from p3wkb.algebra import (
    AlgebraError,
    BranchPoint,
    D6Chart,
    D7Chart,
    Parameters,
    lambda0_branches,
    u_chart,
)
from p3wkb.geometry import (
    EPS_TRACE,
    START_FRACTION,
    TraceError,
    emanation_directions,
    render,
    stokes_diagram,
    trace_curve,
)
from p3wkb.walls import on_imaginary_axis

from asymptotics_reference import BranchCutError, phi_primitive
from chart_reference import delta
from test_walls import WALL_POINTS, _chamber_sample, _turned
from trace_reference import TRACES

P_GEN = Parameters(2 + 1j, 3)


def _diagram(params):
    return stokes_diagram(params)


def _terminus_multiset(diagram):
    out = {}
    for c in diagram.curves:
        key = c.terminus.split(":")[0]
        out[key] = out.get(key, 0) + 1
    return out


# ---------------------------------------------------------------------------
# Emanating rays
# ---------------------------------------------------------------------------

def test_turning_point_rays_count_and_spacing():
    ch = D6Chart(P_GEN)
    for u_tp in ch.turning_points_u:
        dirs = emanation_directions(u_tp, ch)
        assert len(dirs) == 5
        for d in dirs:
            assert abs(abs(d) - 1) < 1e-12
        for a, b in zip(dirs, dirs[1:]):
            assert abs(b / a - cmath.exp(2j * cmath.pi / 5)) < 1e-9


def test_simple_pole_has_one_ray():
    ch = D6Chart(P_GEN)
    dirs = emanation_directions(ch.simple_pole_u, ch)
    assert len(dirs) == 1
    assert abs(abs(dirs[0]) - 1) < 1e-12


def test_d7_ray_counts():
    ch = D7Chart(2 + 1j)
    assert len(emanation_directions(ch.turning_points_u[0], ch)) == 5
    assert len(emanation_directions(ch.simple_pole_u, ch)) == 1


def test_ray_set_does_not_depend_on_the_sign_of_a_lead_on_the_cut():
    # At the wall corner, tp0's lead of q lies on the negative real axis up
    # to an imaginary part of rounding size.  Ray 0 lies at -arg(lead)/5, arg
    # in (-pi, pi], so flipping that part's sign rotates the labels by one
    # ray and leaves the set of five rays as it is.
    p = Parameters(1j, 0.5j)
    chart, flipped = u_chart(p), u_chart(p)
    lead = chart.turning_point_leads[0]
    assert lead.real < 0 and abs(lead.imag) < 1e-12 * abs(lead)
    flipped.turning_point_leads = (lead.conjugate(),) + chart.turning_point_leads[1:]
    u0 = chart.turning_points_u[0]
    rays, turned = emanation_directions(u0, chart), emanation_directions(u0, flipped)
    assert any(all(abs(turned[(k + s) % 5] - rays[k]) < 1e-12 for k in range(5))
               for s in (1, -1))


def test_emanation_rejects_non_origin():
    ch = D6Chart(P_GEN)
    with pytest.raises(AlgebraError):
        emanation_directions(0.123 + 0.456j, ch)


def test_trace_rejects_bad_ray():
    ch = D6Chart(P_GEN)
    with pytest.raises(AlgebraError):
        trace_curve(ch.simple_pole_u, 3, ch)


def test_trace_gives_up_on_a_drift_it_cannot_project_away(monkeypatch):
    # A start that leaves Im phi at |phi_1|.  The projection refuses a
    # shift of 0.2 of the step, so the first step (half the distance back
    # to the origin) can cancel at most 0.51 |phi_1| (measured by bisection
    # on the drift), and every halved step less: the tracer must stop with
    # the partial polyline, not crawl on at a millionth of a step until the
    # arc budget is spent.
    # The drift enters through the offset that turns the chart's primitive
    # into the integral from the origin, so every step's phi carries it.
    first_point = geometry._first_point

    def drifting(*args):
        u, sq, phi, logs, offset = first_point(*args)
        drift = 1j * abs(phi)
        return u, sq, phi + drift, logs, offset + drift

    monkeypatch.setattr(geometry, "_first_point", drifting)
    ch = D6Chart(P_GEN)
    began = time.perf_counter()
    with pytest.raises(TraceError, match="after 20 step halvings") as err:
        trace_curve(ch.turning_points_u[0], 0, ch)
    assert time.perf_counter() - began < 5
    assert len(err.value.partial) >= 2


def test_origin_a_rounding_error_away_traces_the_same_curves():
    # An origin within the matching tolerance of a turning point (or of the
    # simple pole) is that point, not a target its own curves run into.
    ch = D6Chart(P_GEN)
    nudge = 1e-11 * ch.scale
    for u0, rays in [(ch.turning_points_u[0], range(5)), (ch.simple_pole_u, [0])]:
        for ray in rays:
            exact, nudged = (trace_curve(u, ray, ch) for u in (u0, u0 + nudge))
            assert nudged.terminus == exact.terminus
            assert np.array_equal(nudged.points, exact.points)


def test_option_defaults():
    assert EPS_TRACE == 1e-6
    assert START_FRACTION == 0.3
    assert geometry._CAPTURE_RADIUS == 1e-3
    assert geometry._TP_RADIUS == 1e-3
    assert (geometry._STEP_FACTOR, geometry._MIN_STEP) == (0.5, 1e-9)
    assert (geometry._ESCAPE_FACTOR, geometry._ARC_BUDGET_FACTOR) == (25.0, 200.0)


@pytest.mark.parametrize("params, chart_cls, calls", [(P_GEN, D6Chart, 3), (2 + 1j, D7Chart, 1)],
                         ids=["d6", "d7"])
def test_rays_need_one_q_leading_per_turning_point(monkeypatch, params, chart_cls, calls):
    # Every ray of a turning point reads the chart's cached leading
    # coefficient of q; it is computed once per turning point, not per ray.
    seen = []
    q_leading = chart_cls.q_leading

    def counted(self, *args):
        seen.append(args)
        return q_leading(self, *args)

    monkeypatch.setattr(chart_cls, "q_leading", counted)
    stokes_diagram(params)
    assert len(seen) == calls


@pytest.mark.parametrize("params, calls", [(P_GEN, 4), (2 + 1j, 2)], ids=["d6", "d7"])
def test_rays_are_found_once_per_origin_per_diagram(monkeypatch, params, calls):
    # The curves of a diagram share one tracing plan of their chart, which
    # finds the rays of each origin once, not once per curve (16 and 6 calls).
    seen = []
    directions = geometry.emanation_directions

    def counted(*args):
        seen.append(args)
        return directions(*args)

    monkeypatch.setattr(geometry, "emanation_directions", counted)
    stokes_diagram(params)
    assert len(seen) == calls


def test_tracing_plan_cannot_be_written_by_its_readers():
    # Every curve of a chart reads the same plan, so no reader may change
    # what the next one reads: its containers are tuples and read-only maps.
    chart = u_chart(P_GEN)
    plan = geometry._tracing_plan(chart)
    assert geometry._tracing_plan(chart) is plan
    start = plan.starts[chart.turning_points_u[0]]
    with pytest.raises(TypeError):
        plan.starts[0j] = start
    for container in (plan.specials, plan.captures, plan.domains, start.directions,
                      start.firsts, start.firsts[0], start.logs, start.is_origin):
        with pytest.raises(TypeError):
            container[0] = None
    with pytest.raises(AttributeError):
        plan.reach = 0.0


# ---------------------------------------------------------------------------
# Reference figures: curve counts, terminus multisets, degeneration verdicts
# ---------------------------------------------------------------------------

# Expected values frozen from validated runs of the tracer; the degeneration
# verdicts (loop / triangle / none, and which double pole a loop surrounds)
# are the published ones for these parameter values.
FIGURE_CASES = [
    ("d6_generic", Parameters(2 + 1j, 3),
     {"inf12": 7, "inf34": 6, "zero_c0": 2, "zero_cinf": 1}, None),
    ("d6_loop_c0_A", Parameters(2 + 1j, 3j),
     {"inf12": 5, "inf34": 5, "simple_pole": 1, "turning_point": 3,
      "zero_cinf": 2}, ("loop", "zero_c0")),
    ("d6_flank_left", Parameters(1.9, 2 - 1j),
     {"inf12": 7, "inf34": 6, "zero_c0": 2, "zero_cinf": 1}, None),
    ("d6_triangle_A", Parameters(2, 2 - 1j),
     {"inf12": 4, "inf34": 4, "turning_point": 6, "zero_c0": 1,
      "zero_cinf": 1}, ("triangle", None)),
    ("d6_flank_right", Parameters(2.1, 2 - 1j),
     {"inf12": 7, "inf34": 6, "zero_c0": 1, "zero_cinf": 2}, None),
    ("d6_loop_c0_B", Parameters(5 + 1j, 2j),
     {"inf12": 5, "inf34": 5, "simple_pole": 1, "turning_point": 3,
      "zero_cinf": 2}, ("loop", "zero_c0")),
    ("d6_loop_cinf_A", Parameters(3j, 1 - 2j),
     {"inf12": 5, "inf34": 5, "simple_pole": 1, "turning_point": 3,
      "zero_c0": 2}, ("loop", "zero_cinf")),
    ("d6_triangle_W4", Parameters(-2 + 1j, 2 + 0.5j),
     {"inf12": 4, "inf34": 4, "turning_point": 6, "zero_c0": 1,
      "zero_cinf": 1}, ("triangle", None)),
    ("d6_W4_flank_right", Parameters(-1.9 + 1j, 2 + 0.5j),
     {"inf12": 6, "inf34": 7, "zero_c0": 2, "zero_cinf": 1}, None),
    ("d6_W4_flank_left", Parameters(-2.1 + 1j, 2 + 0.5j),
     {"inf12": 6, "inf34": 7, "zero_c0": 1, "zero_cinf": 2}, None),
    ("d6_loop_cinf_W3", Parameters(1j, 3 + 0.5j),
     {"inf12": 5, "inf34": 5, "simple_pole": 1, "turning_point": 3,
      "zero_c0": 2}, ("loop", "zero_cinf")),
    ("d6_W3_flank_right", Parameters(0.2 + 1j, 3 + 0.5j),
     {"inf12": 7, "inf34": 6, "zero_c0": 2, "zero_cinf": 1}, None),
    ("d6_W3_flank_left", Parameters(-0.2 + 1j, 3 + 0.5j),
     {"inf12": 6, "inf34": 7, "zero_c0": 2, "zero_cinf": 1}, None),
    ("d6_triangle_W2", Parameters(2 + 1j, 2 + 0.5j),
     {"inf12": 4, "inf34": 4, "turning_point": 6, "zero_c0": 1,
      "zero_cinf": 1}, ("triangle", None)),
    ("d6_chamber_II", Parameters(1 + 1j, 3 + 0.5j),
     {"inf12": 7, "inf34": 6, "zero_c0": 2, "zero_cinf": 1}, None),
    ("d6_chamber_III", Parameters(-1 + 1j, 3 + 0.5j),
     {"inf12": 6, "inf34": 7, "zero_c0": 2, "zero_cinf": 1}, None),
    ("d6_chamber_IV", Parameters(-3 + 1j, 1 + 0.5j),
     {"inf12": 6, "inf34": 7, "zero_c0": 1, "zero_cinf": 2}, None),
    ("d6_loop_c0_W5", Parameters(-3 + 1j, 0.5j),
     {"inf12": 5, "inf34": 5, "simple_pole": 1, "turning_point": 3,
      "zero_cinf": 2}, ("loop", "zero_c0")),
    ("d6_chamber_V", Parameters(-3 + 1j, -1 + 0.5j),
     {"inf12": 7, "inf34": 6, "zero_c0": 1, "zero_cinf": 2}, None),
    ("d6_triangle_W6", Parameters(-2 + 1j, -2 + 0.5j),
     {"inf12": 4, "inf34": 4, "turning_point": 6, "zero_c0": 1,
      "zero_cinf": 1}, ("triangle", None)),
    ("d7_flank_right", 0.2 + 1j, {"escaped": 5, "zero_c": 1}, None),
    ("d7_loop", 1j, {"escaped": 2, "simple_pole": 1, "turning_point": 3},
     ("loop", "zero_c")),
    ("d7_flank_left", -0.2 + 1j, {"escaped": 5, "zero_c": 1}, None),
]


@pytest.mark.parametrize("name,params,termini,verdict",
                         FIGURE_CASES, ids=[c[0] for c in FIGURE_CASES])
def test_reference_figure(name, params, termini, verdict):
    diag = _diagram(params)
    n_expected = 16 if isinstance(params, Parameters) else 6
    assert len(diag.curves) == n_expected
    assert _terminus_multiset(diag) == termini
    for c in diag.curves:
        assert c.im_drift < EPS_TRACE * (1 + c.arc_length)
    kinds = {d.kind for d in diag.degenerations}
    if verdict is None:
        assert kinds == set()
    else:
        kind, pole = verdict
        assert kinds == {kind}
        rec = diag.degenerations[0]
        if kind == "loop":
            assert rec.participants[0].startswith("tp")
            assert rec.participants[1] == pole
            assert on_imaginary_axis(diag.chart.pole_residues[pole])
        else:
            assert rec.participants == [[0, 1], [0, 2], [1, 2]]
            assert rec.diagnostic < EPS_TRACE * 100


#: The cases of trace_reference.TRACES, which re-records them from this list.
TRACE_CASES = ([(c[0], c[1]) for c in FIGURE_CASES]
               + [("d6_wall_corner", Parameters(1j, 0.5j))])


@pytest.mark.parametrize("name,params", TRACE_CASES, ids=[c[0] for c in TRACE_CASES])
def test_traces_match_recorded_curves(name, params):
    # Termini and point counts exactly; end points, phi_end and im_drift
    # within 1e-12 relative of the recorded tracer.
    diag = _diagram(params)
    assert len(diag.curves) == len(TRACES[name])
    for c, (terminus, count, last, phi_end, im_drift) in zip(diag.curves, TRACES[name]):
        assert (c.terminus, len(c.points)) == (terminus, count)
        assert abs(c.points[-1] - last) <= 1e-12 * abs(last)
        assert abs(c.phi_end - phi_end) <= 1e-12 * abs(phi_end)
        assert abs(c.im_drift - im_drift) <= 1e-12 * im_drift
        # phi is exact at every step, so what the projection leaves of its
        # imaginary part is rounding.
        assert c.im_drift <= 1e-12 * (1 + abs(c.phi_end))


@pytest.mark.parametrize("name,params", TRACE_CASES, ids=[c[0] for c in TRACE_CASES])
def test_diagram_curves_equal_lone_curves_on_fresh_charts(name, params):
    # The curves of a diagram share their chart's tracing plan; each one,
    # traced alone on a chart of its own, is the same bit for bit.
    for c in stokes_diagram(params).curves:
        chart = u_chart(params)
        u0 = (chart.simple_pole_u if c.origin == "simple_pole"
              else chart.turning_points_u[int(c.origin[2:])])
        alone = trace_curve(u0, c.ray, chart)
        assert (alone.origin, alone.ray, alone.terminus) == (c.origin, c.ray, c.terminus)
        assert alone.points.tobytes() == c.points.tobytes()
        assert repr((alone.phi_end, alone.im_drift, alone.arc_length)) == \
            repr((c.phi_end, c.im_drift, c.arc_length))


def test_steps_cost_at_most_eight_q_calls(monkeypatch):
    # Every step evaluates the chart's primitive once, at the RK4 end point:
    # between two of those come the previous step's Newton projection (at
    # most 4 evaluations of q: Simpson's rule on the first shift, the
    # trapezoid rule on two more), RK4 (3) and the end point (1).  The cost
    # is bounded per curve, not per polyline point, which would reward a
    # tracer that crawls: on the reference figures a curve takes 51.4
    # evaluations of q (the bound leaves 8 % over that), 69.8 when curves
    # started a tenth of the way to the nearest other special point, 114.0
    # when curves ran on to 25 chart scales, to 1/25 of u = 0's gap and into
    # the double poles' capture discs, and 170.2 with steps of 0.3 of the
    # distance to the nearest special point.
    events = []
    for cls in (D6Chart, D7Chart):
        for name in ("q", "phi"):
            method = getattr(cls, name)

            def counted(self, *args, _method=method, _name=name):
                events.append(_name)
                return _method(self, *args)

            monkeypatch.setattr(cls, name, counted)
    curves = sum(len(stokes_diagram(params).curves) for _, params in TRACE_CASES)
    runs = "".join("p" if e == "phi" else "q" for e in events).split("p")
    assert max(map(len, runs)) <= 8
    assert events.count("q") <= 55 * curves


def _continued_roots(chart, pts):
    """sqrt(q) at each polyline point after the first, on the branch whose
    field conj(sqrt q) points along the chord that arrives there."""
    out = []
    for a, b in zip(pts[:-1], pts[1:]):
        s = cmath.sqrt(chart.q(b))
        out.append(-s if (s * (b - a)).real < 0 else s)
    return out


@pytest.mark.parametrize("params", [P_GEN, 2 + 1j, Parameters(-3 + 1j, 1 + 0.5j)],
                         ids=["d6", "d7", "d6_chamber_IV"])
def test_curves_end_at_their_first_point_in_an_end_domain(params):
    # A curve ends at a pole of q of order 2 or 4 at the first point inside
    # the pole's end domain: the last point lies in it and no earlier one in
    # any (tests/test_algebra.py checks on q itself that a domain holds
    # what enters it).  A domain lies within its pole's gap, so every curve
    # ending at a finite pole ends inside that gap, and escaping curves
    # end before 3.3 chart scales or at their first point beyond (they
    # took 7 points beyond 3.3 scales when they ran on to 25).  Every step
    # after the first spans at most _STEP_FACTOR of the distance from its
    # start to the nearest singular point (measured up to 0.4999999995),
    # so none can pass over one.
    diag = _diagram(params)
    chart = diag.chart
    domains = chart.end_domains
    assert not any(d.order == 2 and on_imaginary_axis(d.lead) for d in domains)
    assert geometry._tracing_plan(chart).domains == domains
    poles = {d.label: d for d in domains}
    specials = np.asarray(chart.singular_points())
    for c in diag.curves:
        pts = np.asarray(c.points)
        roots = _continued_roots(chart, pts[1:])
        labels = [geometry._sealed(domains, u, s) for u, s in zip(pts[2:], roots)]
        if c.terminus in poles:
            assert labels == [None] * (len(labels) - 1) + [c.terminus]
            d = poles[c.terminus]
            if d.pole is not None:
                assert abs(pts[-1] - d.pole) < d.radius < chart.special_gap(d.pole)
        else:
            assert labels == [None] * len(labels)
        if c.terminus == chart.escape_label:
            assert np.sum(np.abs(pts) > 3.3 * chart.scale) <= 1
        start, end = pts[1:-1], pts[2:]
        nearest = np.min(np.abs(start[:, None] - specials[None, :]), axis=1)
        assert np.all(np.abs(end - start) <= geometry._STEP_FACTOR * (1 + 1e-6) * nearest)
    for label in poles:
        assert any(c.terminus == label for c in diag.curves)


def test_spiral_terminus_ends_a_curve_past_its_arc_budget(monkeypatch):
    # With the budget cut to 0.03 arc_scale, tp0's ray 0 outruns it after a
    # few points (measured 0.094 against 0.076, after 6 points; the whole
    # curve, sealed at zero_cinf, spans 0.055 arc_scale).
    monkeypatch.setattr(geometry, "_ARC_BUDGET_FACTOR", 0.03)
    chart = D6Chart(P_GEN)
    curve = trace_curve(chart.turning_points_u[0], 0, chart)
    assert curve.terminus == "spiral"
    assert curve.arc_length > 0.03 * chart.arc_scale


def test_closure_terminus_reports_loop(monkeypatch):
    # At W1 moved off the wall by 3e-11 of |c_0|, inside WALL_TOL, the curve
    # from tp1 comes round the double pole and misses tp1 by about 8e-5, to
    # the side of its own first ray.  With a turning-point capture radius
    # too small to catch that, it ends "closed" once it has turned once round
    # zero_c0, whose residue is imaginary.  (On the wall itself the exact
    # level set runs back into tp1.)
    monkeypatch.setattr(geometry, "_TP_RADIUS", 1e-6)
    diag = stokes_diagram(Parameters(2 + 1j, -1e-10 + 3j))
    closed = [c for c in diag.curves if c.terminus == "closed"]
    assert [(c.origin, c.ray) for c in closed] == [("tp1", 1)]
    assert [(d.kind, d.participants) for d in diag.degenerations] == \
        [("loop", ["tp1", "zero_c0"])]


def test_triangle_connections_are_direction_symmetric():
    diag = _diagram(Parameters(2, 2 - 1j))
    links = set()
    for c in diag.curves:
        if c.origin.startswith("tp") and c.terminus.startswith("turning_point:"):
            links.add((int(c.origin[2:]), int(c.terminus.split(":")[1])))
    assert {(j, i) for i, j in links} == links
    assert {tuple(sorted(l)) for l in links} == {(0, 1), (0, 2), (1, 2)}


def test_loop_curve_winds_once_around_named_pole():
    diag = _diagram(Parameters(2 + 1j, 3j))
    rec = diag.degenerations[0]
    pole = diag.chart.double_poles_u[rec.participants[1]]
    looped = [c for c in diag.curves
              if c.origin == rec.participants[0]
              and c.terminus == f"turning_point:{c.origin[2:]}"]
    assert looped
    pts = np.asarray(looped[0].points)
    rel = pts - pole
    winding = float(np.sum(np.angle(rel[1:] / rel[:-1]))) / (2 * np.pi)
    assert abs(abs(winding) - 1) < 0.05


LOOP_CASES = [c for c in FIGURE_CASES if c[3] is not None and c[3][0] == "loop"]


@pytest.mark.parametrize("name,params,termini,verdict",
                         LOOP_CASES, ids=[c[0] for c in LOOP_CASES])
def test_simple_pole_curve_spans_half_the_loop_period(name, params, termini, verdict):
    # On a loop wall the closed curve round the double pole has period
    # 2 pi |res| (res of sqrt(q) du there), and the simple-pole curve runs
    # into that loop's turning point with half of it.  The integral from the
    # pole to the curve's first point belongs to phi_end.
    diag = _diagram(params)
    (c,) = [c for c in diag.curves if c.origin == "simple_pole"]
    assert c.terminus.startswith("turning_point:")
    half_period = np.pi * abs(diag.chart.pole_residues[verdict[1]])
    assert abs(abs(c.phi_end) - half_period) <= 1e-5 * half_period


@pytest.mark.parametrize("params", [
    Parameters(2 + 1j, 3),
    Parameters(1 + 1j, 3 + 0.5j),
    Parameters(-3 + 1j, 1 + 0.5j),
])
def test_parameter_swap_relabels_double_poles(params):
    # The quadratic differential depends on c_m only through c_m^2, so
    # swapping c_inf <-> c_0 keeps every curve and exchanges the two
    # double-pole labels.
    a = _terminus_multiset(_diagram(params))
    b = _terminus_multiset(_diagram(params.swapped()))
    b["zero_cinf"], b["zero_c0"] = b.get("zero_c0", 0), b.get("zero_cinf", 0)
    assert a == {k: v for k, v in b.items() if v}


def test_wall_corner_traces_and_reports_degenerations():
    # (i, i/2) sits on all four wall lines at once (every Re vanishes); the
    # tracer must still produce a full diagram and flag the degeneracies.
    diag = _diagram(Parameters(1j, 0.5j))
    assert len(diag.curves) == 16
    assert len(diag.degenerations) >= 2


@pytest.mark.parametrize("r", [0.3, 1.0, 3.5])
@pytest.mark.parametrize("wall", [90, -90], ids=["+90deg", "-90deg"])
@pytest.mark.parametrize("off", [1, -1], ids=["+1deg", "-1deg"])
def test_d7_one_degree_off_its_wall_ends_one_curve_at_the_double_pole(r, wall, off):
    # D7's walls are arg c = +-pi/2, where a curve closes around the double
    # pole.  A degree off, the double-pole curve still spirals into it
    # however long the steps are: one curve ends at zero_c, none is taken
    # for closed or outruns its arc budget, and there is no degeneration.
    diag = _diagram(cmath.rect(r, math.radians(wall + off)))
    termini = sorted(c.terminus for c in diag.curves)
    assert termini == ["escaped"] * 4 + ["simple_pole", "zero_c"]
    assert not diag.degenerations


def test_escaping_curves_outlast_the_arc_budget_at_large_c_m_over_c_p(monkeypatch):
    # A chamber III draw with |c_m/c_p| about 8: the fallback escape radius
    # 25 * scale lies beyond 200 * |c_p|, so the arc budget has to grow
    # with the chart scale or, with the seals off, five escaping curves end
    # as "spiral".
    p = Parameters(-1.3447470589763546 + 0.8018009835012454j,
                   1.776090862600697 - 0.7735880706937113j)
    expected = {"inf12": 6, "inf34": 7, "zero_c0": 2, "zero_cinf": 1}
    assert _terminus_multiset(_diagram(p)) == expected
    monkeypatch.setattr(geometry, "_sealed", lambda *args: None)
    assert _terminus_multiset(_diagram(p)) == expected


# ---------------------------------------------------------------------------
# The end-domain seal against the tracer without it
# ---------------------------------------------------------------------------

def _oracle_params(group):
    rng = random.Random(1303)
    if group == "d6_chambers":           # 13 seeded draws in each of the 8 chambers
        return [_chamber_sample(rng, k) for k in range(8) for _ in range(13)]
    if group == "walls":
        return list(WALL_POINTS.values())
    if group == "d7":                    # 56 seeded draws, any phase
        return [cmath.rect(rng.uniform(0.3, 3.5), rng.uniform(-math.pi, math.pi))
                for _ in range(56)]
    return [params for _, params in TRACE_CASES]


def _termini(params):
    return [c.terminus for c in stokes_diagram(params).curves]


@pytest.mark.parametrize("group", ["d6_chambers", "walls", "d7", "reference"])
def test_seals_move_no_terminus(monkeypatch, group):
    # Every curve's terminus is the one the tracer gives with the seal
    # switched off, which follows the curve on to the capture discs of the
    # finite poles and to the fallback escape radius: on 104 D6 chamber
    # draws, the 8 wall points, 56 D7 draws and the 354 reference curves.
    params = _oracle_params(group)
    sealed = [_termini(p) for p in params]
    monkeypatch.setattr(geometry, "_sealed", lambda *args: None)
    assert [_termini(p) for p in params] == sealed


NEAR_WALL = ([(cmath.rect(1.0, math.radians(wall + off)), off) for wall in (90, -90)
              for off in (0.3, -0.3, 0.1, -0.1, 0.01, -0.01)]
             + [(_turned(WALL_POINTS[label], off), off) for label in ("W1", "W3", "W5", "W7")
                for off in (0.01, -0.01)])


@pytest.mark.parametrize("params, off", NEAR_WALL, ids=[
    f"d7_{wall:+d}_{off:+g}deg" for wall in (90, -90) for off in (0.3, -0.3, 0.1, -0.1, 0.01, -0.01)
] + [f"{label}_{off:+g}deg" for label in ("W1", "W3", "W5", "W7") for off in (0.01, -0.01)])
def test_curves_near_loop_walls_end_at_their_double_poles(monkeypatch, params, off):
    # Near a loop wall (D7's arg c = +-pi/2, D6's W1/W3/W5/W7 with the
    # imaginary parameter turned) a double pole's residue lies just off the
    # imaginary axis.  There q du^2 has no closed trajectory: the pole's end
    # domain (its wall-side radius) seals, and no curve ends "closed".  From
    # 0.1 degrees off, a curve ends at every double pole, and every terminus
    # is the one the tracer gives with the seals off and no arc budget,
    # which follows the spiral on to the pole's capture disc.  At 0.01
    # degrees the spiral shrinks by 0.11 % a turn, and the curve into a pole
    # may outrun its arc budget on the way: it ends "spiral" in that pole's
    # gap.
    chart = u_chart(params)
    assert not any(on_imaginary_axis(chart.pole_residues[label]) for label in chart.double_poles_u)
    curves = stokes_diagram(params).curves
    termini = [c.terminus for c in curves]
    assert "closed" not in termini
    spirals = [c.points[-1] for c in curves if c.terminus == "spiral"]
    for label, pole in chart.double_poles_u.items():
        if label not in termini:
            assert abs(off) < 0.1
            assert any(abs(u - pole) < chart.special_gap(pole) for u in spirals), label
    assert len(spirals) == 0 or abs(off) < 0.1
    if abs(off) >= 0.1:
        monkeypatch.setattr(geometry, "_sealed", lambda *args: None)
        monkeypatch.setattr(geometry, "_ARC_BUDGET_FACTOR", math.inf)
        assert _termini(params) == termini


# ---------------------------------------------------------------------------
# Trace invariants
# ---------------------------------------------------------------------------

_GL_X, _GL_W = np.polynomial.legendre.leggauss(16)


def _reintegrate(chart, pts):
    """Independent cumulative int sqrt(q) du along a polyline: 16-point
    Gauss-Legendre on every chord, the square-root branch continued along
    the node sequence and oriented so the first chord has positive real
    contribution (the tracer's orientation)."""
    a, b = pts[:-1], pts[1:]
    half = (b - a) / 2
    nodes = (a + b)[:, None] / 2 + half[:, None] * _GL_X[None, :]
    raw = np.sqrt(np.asarray(chart.q(nodes.ravel()), dtype=complex))
    flips = np.where((raw[1:] * np.conj(raw[:-1])).real < 0, -1.0, 1.0)
    signs = np.concatenate([[1.0], np.cumprod(flips)])
    vals = (signs * raw).reshape(nodes.shape)
    cum = np.concatenate([[0j], np.cumsum(half * (vals @ _GL_W))])
    return cum if cum[1].real > 0 else -cum


def test_real_part_monotone_along_curves():
    diag = _diagram(P_GEN)
    for c in diag.curves[:6]:
        pts = np.asarray(c.points)[1:]
        cum = _reintegrate(diag.chart, pts)
        steps = np.diff(cum.real)
        assert np.all(steps > -1e-9 * (1 + np.abs(cum.real[:-1])))


def test_imaginary_drift_small_against_independent_quadrature():
    # Re-integrate a curve escaping to u = infinity (the integrand stays
    # smooth along it, so the reference quadrature itself converges) and
    # confirm the traced level set really is Im = 0, far inside the spec
    # tolerance EPS_TRACE.
    diag = _diagram(P_GEN)
    c = next(c for c in diag.curves if c.terminus == "inf12")
    pts = np.asarray(c.points)[1:]
    cum = _reintegrate(diag.chart, pts)
    assert np.max(np.abs(cum.imag)) < 1e-12 * (1 + c.arc_length)


@pytest.mark.parametrize("params", [P_GEN, Parameters(3j, 1 - 2j), 1j, -0.2 + 1j],
                         ids=["P_GEN", "d6_loop_cinf_A", "d7_loop", "d7_flank_left"])
def test_first_point_lies_on_the_exact_level_set(params):
    # Every curve's first point lies START_FRACTION of the way from its
    # origin to the nearest other special point, and the integral from the
    # origin to it is real by an independent 64-point Gauss-Legendre rule in
    # tau, u = origin + (points[1] - origin) tau^2, in which the (5/2)- and
    # (1/2)-power behaviour at the origin is analytic.
    diag = _diagram(params)
    x, w = np.polynomial.legendre.leggauss(64)
    tau = (1 + x) / 2
    for c in diag.curves:
        origin, span = c.points[0], c.points[1] - c.points[0]
        d0 = min(abs(s - origin) for s in diag.chart.singular_points() if s != origin)
        assert abs(abs(span) - START_FRACTION * d0) <= 0.01 * START_FRACTION * d0
        raw = np.sqrt(np.asarray(diag.chart.q(origin + span * tau ** 2), dtype=complex))
        flips = np.where((raw[1:] * np.conj(raw[:-1])).real < 0, -1.0, 1.0)
        signs = np.concatenate([[1.0], np.cumprod(flips)])
        integral = span * np.sum(w * tau * signs * raw)
        assert abs(integral.imag) <= 1e-10 * abs(integral)


@pytest.mark.parametrize("params", [P_GEN, Parameters(3j, 1 - 2j), 2 + 1j, 1j],
                         ids=["P_GEN", "d6_loop_cinf_A", "d7", "d7_loop"])
def test_start_integral_matches_the_tau_rule(params):
    # Phi(u1) - Phi(origin) against 16-point Gauss-Legendre in tau,
    # u = origin + (u1 - origin) tau^2, in which the (5/2)- and (1/2)-power
    # behaviour at the origin is analytic: at every origin, on every ray.
    # Three tenths of the way to the nearest other special point, an 8-point
    # rule misses by up to 1.3e-9 relative (16 points: 9.5e-14).
    chart = u_chart(params)
    x, w = np.polynomial.legendre.leggauss(16)
    tau = (1 + x) / 2
    for origin in list(chart.turning_points_u) + [chart.simple_pole_u]:
        for direction in emanation_directions(origin, chart):
            u1, _, phi, _, _ = geometry._first_point(chart, origin, direction)
            raw = np.sqrt(np.asarray(chart.q(origin + (u1 - origin) * tau ** 2), dtype=complex))
            ref = direction.conjugate()
            vals = np.where(np.abs(raw - ref) > np.abs(raw + ref), -raw, raw)
            rule = (u1 - origin) * np.sum(w * tau * vals)
            assert abs(phi - rule) <= 1e-12 * abs(rule)


def _q_mp(params, u):
    cp, cm = mp.mpc(params.c_p), mp.mpc(params.c_m)
    return 4 * (cp ** 2 * u ** 3 + cm ** 2) ** 3 / ((u + 1) * u ** 4 * (cp ** 2 * u ** 2 - cm ** 2) ** 2)


def test_first_point_phi_matches_a_30_digit_integral():
    # On P_GEN's 15 turning-point rays, the start's phi against mpmath's
    # 30-digit quadrature of sqrt(q) from the origin in tau, u = origin +
    # (u1 - origin) tau^2: within 1e-14 relative (measured 6.8e-15), where
    # Phi(u1) - Phi(origin) cancelled to 6e-13.
    chart = D6Chart(P_GEN)
    with mp.workdps(30):
        for origin in chart.turning_points_u:
            for direction in emanation_directions(origin, chart):
                u1, _, phi, _, _ = geometry._first_point(chart, origin, direction)
                span = mp.mpc(u1) - mp.mpc(origin)

                def integrand(tau):
                    s = mp.sqrt(_q_mp(P_GEN, mp.mpc(origin) + span * tau ** 2))
                    return 2 * span * tau * (s if mp.re(s * span) > 0 else -s)

                ref = complex(mp.quad(integrand, [0, 1]))
                assert abs(phi - ref) <= 1e-14 * abs(ref)


def test_first_point_reads_q_and_phi_once(monkeypatch):
    # The start sums phi from the origin's expansion, so on the reference
    # figures no curve evaluates q or Phi more than 3 times before its
    # first step (once each, measured), where the Newton iteration on
    # Phi(u1) - Phi(origin) took 5 of each on 927 of 1,152 curves.  The
    # expansions themselves read q once per origin, once per chart.
    calls = []
    for cls in (D6Chart, D7Chart):
        for name in ("q", "phi"):
            method = getattr(cls, name)

            def counted(self, *args, _method=method):
                calls.append(1)
                return _method(self, *args)

            monkeypatch.setattr(cls, name, counted)
    counts = []
    for _, params in TRACE_CASES:
        chart = u_chart(params)
        calls.clear()
        chart.origin_expansions
        assert len(calls) == len(chart.turning_points_u) + 1
        for origin in list(chart.turning_points_u) + [chart.simple_pole_u]:
            for direction in emanation_directions(origin, chart):
                calls.clear()
                geometry._first_point(chart, origin, direction)
                counts.append(len(calls))
    assert len(counts) == 354 and max(counts) <= 3


# ---------------------------------------------------------------------------
# The t-form phase primitive (tests/asymptotics_reference.py)
# ---------------------------------------------------------------------------

def _matched_branch(t, p, lam_ref):
    return min(lambda0_branches(t, p), key=lambda b: abs(b.lambda0 - lam_ref))


@pytest.mark.parametrize("branch_index", [0, 1, 2, 3])
@pytest.mark.parametrize("sign", [+1, -1])
def test_phi_primitive_derivative_is_leading_slot(branch_index, sign):
    p = P_GEN
    t0 = 1.3 + 0.4j
    b0 = lambda0_branches(t0, p)[branch_index]
    exact = sign * cmath.sqrt(delta(b0, p))

    def diff(h):
        bp = _matched_branch(t0 + h, p, b0.lambda0)
        bm = _matched_branch(t0 - h, p, b0.lambda0)
        fp = phi_primitive(BranchPoint(bp.t, bp.lambda0, sign=sign), p)
        fm = phi_primitive(BranchPoint(bm.t, bm.lambda0, sign=sign), p)
        return (fp - fm) / (2 * h)

    richardson = (4 * diff(5e-6) - diff(1e-5)) / 3
    assert abs(richardson - exact) / abs(exact) < 1e-8


def test_phi_primitive_homogeneity():
    p = P_GEN
    r = 2.0
    p_scaled = Parameters(p.c_inf / r, p.c_0 / r)
    t0 = 1.3 + 0.4j
    for b0 in lambda0_branches(t0, p):
        b2 = _matched_branch(t0 / r ** 2, p_scaled, b0.lambda0 / r)
        v1 = phi_primitive(BranchPoint(b0.t, b0.lambda0, sign=+1), p)
        v2 = phi_primitive(BranchPoint(b2.t, b2.lambda0, sign=+1), p_scaled)
        assert abs(v2 - v1 / r) < 1e-10 * max(1.0, abs(v1))


def test_phi_primitive_differences_real_along_stokes_curve():
    p = P_GEN
    ch = D6Chart(p)
    curve = trace_curve(ch.turning_points_u[0], 3, ch)
    pts = np.asarray(curve.points)[5:-5]
    sign = +1
    prev_r = None
    prev_phi = None
    defects = []
    for u in pts:
        t = ch.t_of_u(complex(u))
        lam = ch.lambda0_of_u(complex(u))
        b = BranchPoint(t, lam, sign=sign)
        r = sign * cmath.sqrt(delta(b, p))
        if prev_r is not None and abs(r - prev_r) > abs(r + prev_r):
            sign, r = -sign, -r
            b = BranchPoint(t, lam, sign=sign)
        phi = phi_primitive(b, p)
        if prev_phi is not None and abs(phi - prev_phi) > 0:
            defects.append(abs((phi - prev_phi).imag) / abs(phi - prev_phi))
        prev_phi, prev_r = phi, r
    defects = np.asarray(defects)
    # principal-log jumps are isolated; away from them the difference is
    # real.  One jump is crossed (1 of 13 differences), so the bound is a
    # count, as strict at any number of points as a share is not.
    assert np.median(defects) < 1e-10
    assert np.sum(defects >= 1e-6) <= 1


def test_phi_primitive_raises_on_vanishing_log_argument():
    p = P_GEN
    t0 = 1.0
    lam = (p.c_inf + cmath.sqrt(p.c_inf ** 2 + 4 * t0)) / 2
    for sign in (+1, -1):
        with pytest.raises(BranchCutError):
            phi_primitive(BranchPoint(t0, lam, sign=sign), p)


# ---------------------------------------------------------------------------
# Rendering
# ---------------------------------------------------------------------------

def test_render_json_roundtrip():
    diag = _diagram(P_GEN)
    data = json.loads(render(diag, "json"))
    assert data == diag.to_dict()
    assert sorted(data.keys()) == ["curves", "degenerations", "parameters",
                                   "turning_points_u"]
    assert sorted(data["parameters"].keys()) == ["c_0", "c_inf"]
    assert len(data["turning_points_u"]) == 3
    assert len(data["curves"]) == 16
    for c in data["curves"]:
        assert sorted(c.keys()) == ["origin", "points", "ray", "terminus"]
        assert all(len(pt) == 2 for pt in c["points"])


def test_render_json_d7_parameter_key():
    data = json.loads(render(_diagram(1j), "json"))
    assert sorted(data["parameters"].keys()) == ["c"]
    assert len(data["curves"]) == 6
    assert data["degenerations"][0]["kind"] == "loop"


def test_render_svg_well_formed():
    diag = _diagram(Parameters(2, 2 - 1j))
    svg = render(diag, "svg")
    root = ET.fromstring(svg)
    assert root.tag.endswith("svg")
    assert root.attrib["width"] == "800"
    body = svg.decode()
    assert body.count("polyline") >= 16 or body.count("path") >= 16


def test_render_rejects_unknown_format():
    with pytest.raises(ValueError):
        render(_diagram(P_GEN), "pdf")


# ---------------------------------------------------------------------------
# Randomized structural check
# ---------------------------------------------------------------------------

_ALLOWED_D6 = {"inf12", "inf34", "zero_cinf", "zero_c0", "simple_pole", "turning_point"}


@settings(max_examples=8, deadline=None)
@given(st.tuples(
    st.floats(min_value=0.6, max_value=2.5),
    st.floats(min_value=0.3, max_value=1.2),
    st.floats(min_value=0.6, max_value=2.5),
    st.floats(min_value=-1.2, max_value=-0.3),
))
def test_random_generic_diagrams_are_complete(vals):
    a, b, c, d = vals
    params = Parameters(complex(a, b), complex(c, d))
    diag = _diagram(params)
    assert len(diag.curves) == 16
    for curve in diag.curves:
        assert curve.terminus.split(":")[0] in _ALLOWED_D6
        assert curve.im_drift < EPS_TRACE * (1 + curve.arc_length)
