"""Stokes geometry: emanating rays, curve tracing, degeneration detection,
the closed-form phase primitive, and diagram rendering."""

import cmath
import json
import time
import xml.etree.ElementTree as ET

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
    UChart,
    delta,
    lambda0_branches,
)
from p3wkb.geometry import (
    EPS_TRACE,
    START_FRACTION,
    BranchCutError,
    TraceError,
    emanation_directions,
    phi_primitive,
    render,
    stokes_diagram,
    trace_curve,
)
from p3wkb.walls import on_imaginary_axis

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


def test_emanation_rejects_non_origin():
    ch = D6Chart(P_GEN)
    with pytest.raises(AlgebraError):
        emanation_directions(0.123 + 0.456j, ch)


def test_trace_rejects_bad_ray():
    ch = D6Chart(P_GEN)
    with pytest.raises(AlgebraError):
        trace_curve(ch.simple_pole_u, 3, ch)


def test_trace_gives_up_on_a_drift_it_cannot_project_away(monkeypatch):
    # A start that leaves Im phi at 0.3 |phi_1|.  The projection refuses a
    # shift of 0.2 of the step, so on the first step it can cancel about
    # 0.15 |phi_1|, and less on every halved step: the tracer must stop
    # with the partial polyline, not crawl on at a millionth of a step
    # until the arc budget is spent.
    start_integral = geometry._start_integral

    def drifting(*args):
        phi, sq = start_integral(*args)
        return complex(phi.real, 0.3 * abs(phi)), sq

    monkeypatch.setattr(geometry, "_start_integral", drifting)
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
    assert geometry._CAPTURE_RADIUS == 1e-3
    assert geometry._TP_RADIUS == 1e-3
    assert (geometry._STEP_FACTOR, geometry._MAX_STEP, geometry._MIN_STEP) == (0.3, 1.0, 1e-9)
    assert (geometry._ESCAPE_FACTOR, geometry._ARC_BUDGET_FACTOR) == (1e3, 200.0)
    assert geometry._CLOSURE_COSINE == 0.99


@pytest.mark.parametrize("params, calls", [(P_GEN, 3), (2 + 1j, 1)], ids=["d6", "d7"])
def test_rays_need_one_q_leading_per_turning_point(monkeypatch, params, calls):
    # Every ray of a turning point reads the chart's cached leading
    # coefficient of q; it is expanded once per turning point, not per ray.
    seen = []
    q_leading = UChart.q_leading

    def counted(self, *args):
        seen.append(args)
        return q_leading(self, *args)

    monkeypatch.setattr(UChart, "q_leading", counted)
    stokes_diagram(params)
    assert len(seen) == calls


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


def test_closure_terminus_reports_loop(monkeypatch):
    # At W1 with a turning-point capture radius too small to catch the
    # self-connection, the curve from tp1 comes round the double pole and
    # ends on its own earlier segment.
    monkeypatch.setattr(geometry, "_TP_RADIUS", 1e-6)
    diag = stokes_diagram(Parameters(2 + 1j, 3j))
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


def test_escaping_curves_outlast_the_arc_budget_at_large_c_m_over_c_p():
    # A chamber III draw with |c_m/c_p| about 8: the far-out radius
    # 25 * scale lies beyond 200 * |c_p|, so the arc budget has to grow
    # with the chart scale or five escaping curves end as "spiral".
    p = Parameters(-1.3447470589763546 + 0.8018009835012454j,
                   1.776090862600697 - 0.7735880706937113j)
    assert _terminus_multiset(_diagram(p)) == \
        {"inf12": 6, "inf34": 7, "zero_c0": 2, "zero_cinf": 1}


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


# ---------------------------------------------------------------------------
# Closed-form phase primitive
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
    # principal-log jumps are isolated; away from them the difference is real
    assert np.median(defects) < 1e-10
    assert np.mean(defects < 1e-6) > 0.95


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

_ALLOWED_D6 = {"inf12", "inf34", "zero_cinf", "zero_c0", "simple_pole",
               "turning_point", "closed"}


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
