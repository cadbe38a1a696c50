"""Stokes geometry on the u-plane: emanating directions, curve tracing,
degeneration detection, a closed-form phase primitive, and diagram
serialization (SVG / JSON).

Curves are integral curves of Im int sqrt(q) du = 0, traced with the
unit-speed field conj(sqrt q)/|sqrt q| (so Re of the integral increases
monotonically), and a continuation sign chained along the curve.  The five
rays of a turning point come from q's leading coefficient there, which the
chart expands once for all of them (``UChart.turning_point_leads``).  A curve
starts on its exact level set a tenth of the way from its origin to the
nearest other special point: the integral from the origin is an 8-point
Gauss-Legendre rule in tau, u = origin + (u1 - origin) tau^2, in which the
local (5/2)- or (1/2)-power behaviour is analytic.  Each step is an RK4
predictor over 0.3 of the distance to the nearest special point, an
8-point Gauss-Legendre integral over the chord, and a Newton projection
back onto Im of the integral = 0.  Every step does the same work however
long the curve already is: at most 15 evaluations of q, and a scan of the
earlier segments for closure only once the curve has turned through 1.5 pi
since one of them.
"""

from __future__ import annotations

import cmath
import json
import math
from dataclasses import dataclass, field

import numpy as np

from .algebra import AlgebraError, BranchPoint, Parameters, delta, u_chart
from .numerics import _nearer_negated
from .walls import on_imaginary_axis

__all__ = [
    "TraceError",
    "BranchCutError",
    "TracedCurve",
    "DegenerationRecord",
    "StokesDiagram",
    "emanation_directions",
    "trace_curve",
    "stokes_diagram",
    "detect_degenerations",
    "phi_primitive",
    "render",
]

#: A step is halved while the drift of Im phi exceeds this, times 1 + arc + step.
EPS_TRACE = 1e-6
#: Step halvings the tracer tries on a drift before it gives up.
_MAX_HALVINGS = 20
# The tracer's constants; they give the termini of the reference pictures.
_STEP_FACTOR = 0.3           # of the distance to the nearest special point (origin included)
_MAX_STEP = 1.0              # times the chart scale
_MIN_STEP = 1e-9             # times the chart scale; a shorter step raises TraceError
_CAPTURE_RADIUS = 1e-3       # scaled by the local pole size
_TP_RADIUS = 1e-3            # scaled by the chart scale, for hitting another turning point
_ESCAPE_FACTOR = 1e3         # times the chart's escape_scale
_ARC_BUDGET_FACTOR = 200.0   # times the chart's arc_scale
_CLOSURE_COSINE = 0.99       # least alignment of a revisit with the earlier segment


class TraceError(RuntimeError):
    """Curve integration failed (step underflow near an unexpected
    singularity); carries the partial polyline."""

    def __init__(self, message, partial=None):
        super().__init__(message)
        self.partial = partial


class BranchCutError(AlgebraError):
    """A logarithm in the closed-form primitive hit its branch point."""


@dataclass
class TracedCurve:
    origin: str                      # "tp0".."tp2" | "simple_pole"
    ray: int
    points: np.ndarray               # complex u-samples
    terminus: str
    phi_end: complex = 0j            # int sqrt(q) du from the origin to the last point
    im_drift: float = 0.0            # worst |Im| of the accumulated integral
    arc_length: float = 0.0


@dataclass
class DegenerationRecord:
    kind: str                        # "triangle" | "loop"
    participants: list
    diagnostic: float


@dataclass
class StokesDiagram:
    chart: object
    curves: list = field(default_factory=list)
    degenerations: list = field(default_factory=list)

    def to_dict(self) -> dict:
        return {
            "parameters": self.chart.parameter_dict(),
            "turning_points_u": [[u.real, u.imag] for u in self.chart.turning_points_u],
            "curves": [{
                "origin": c.origin,
                "ray": c.ray,
                "points": [[u.real, u.imag] for u in c.points],
                "terminus": c.terminus,
            } for c in self.curves],
            "degenerations": [{
                "kind": d.kind,
                "participants": d.participants,
                "diagnostic": d.diagnostic,
            } for d in self.degenerations],
        }


# ---------------------------------------------------------------------------
# Emanating directions
# ---------------------------------------------------------------------------

def _trace_origin(origin: complex, chart) -> tuple:
    """(label, u) of the turning point ("tp0".."tp2") or the simple pole
    ("simple_pole") of the chart at ``origin``."""
    origins = [(f"tp{k}", u_tp) for k, u_tp in enumerate(chart.turning_points_u)]
    for label, u in origins + [("simple_pole", chart.simple_pole_u)]:
        if abs(origin - u) < 1e-9 * chart.scale:
            return label, u
    raise AlgebraError(f"{origin} is neither a turning point nor the simple pole")


def emanation_directions(origin: complex, chart) -> list:
    """Unit directions of the Stokes rays at a turning point (five, from the
    local (5/2)-power primitive, by the chart's ``turning_point_leads``) or
    at the simple pole over t = 0 (one, from the local (1/2)-power
    primitive) of a u-plane chart."""
    label, u0 = _trace_origin(complex(origin), chart)
    if label == "simple_pole":
        # q ~ res/(u - u_sp): evaluate (u - u_sp) q(u) at +/- eps and average
        # to cancel the linear term of the analytic part.
        eps = 1e-5 * chart.scale
        res = (eps * chart.q(u0 + eps) - eps * chart.q(u0 - eps)) / 2
        return [cmath.exp(-1j * cmath.phase(res))]
    lead = chart.turning_point_leads[chart.turning_points_u.index(u0)]
    base = -cmath.phase(lead) / 5.0
    return [cmath.exp(1j * (base + 2 * math.pi * k / 5)) for k in range(5)]


# ---------------------------------------------------------------------------
# Curve tracing
# ---------------------------------------------------------------------------

def _sqrt_q(chart, u: complex, ref: complex) -> complex:
    """Branch of sqrt(q(u)) closest in direction to ref (continuation)."""
    v = cmath.sqrt(chart.q(u))
    return -v if _nearer_negated(v, ref) else v


# Python floats: the chord loop runs on complex scalars.
_GL8 = [(float(x), float(w)) for x, w in zip(*np.polynomial.legendre.leggauss(8))]

#: A curve's first point lies this fraction of the way from its origin to
#: the nearest other special point.
START_FRACTION = 0.1
# The same rule on [0, 1] in tau, where u = origin + (u1 - origin) tau^2:
# (tau^2, weight times tau), so that du = 2 (u1 - origin) tau dtau.
_GL8_START = [((1 + x) ** 2 / 4, w * (1 + x) / 2) for x, w in _GL8]


def _start_integral(chart, origin: complex, u1: complex, ref: complex) -> tuple:
    """(int_origin^u1 sqrt(q) du, sqrt(q(u1))), the branch at every node
    the one nearer ``ref``.  In tau the integrand is analytic both at a
    turning point (q ~ (u - u_tp)^3) and at the simple pole
    (q ~ res/(u - u_sp)), and every other special point lies at
    |tau| >= 1/sqrt(START_FRACTION), so 8 nodes give it to rounding."""
    span = u1 - origin
    phi = 0j
    for tau2, w in _GL8_START:
        phi += w * _sqrt_q(chart, origin + span * tau2, ref)
    return span * phi, _sqrt_q(chart, u1, ref)


# A closure needs the sub-path since the revisited segment to have turned
# through more than _CLOSURE_TURN.  The tracer keeps a running sum of the
# turning angle, so the segment scan waits until some arc-separated segment
# lies that far behind, less a margin far above the rounding between the
# running sum and the scan's own sum over the same angles.
_CLOSURE_TURN = 1.5 * math.pi
_TURN_MARGIN = 1e-6


def trace_curve(origin: complex, ray: int, chart) -> TracedCurve:
    """Trace one Stokes curve from a turning point (rays 0-4) or the simple
    pole (ray 0), following Im int sqrt(q) du = 0 with Re increasing.

    The first point lies START_FRACTION (0.1) of the distance d0 from the
    origin to the nearest other special point, along the ray, and the
    running integral starts at the exact int sqrt(q) du from the origin
    to it (8-point Gauss-Legendre in tau, u = origin + (u1 - origin) tau^2,
    exact to rounding).  Newton iteration moves that point along the
    ray's normal until the integral is real to 1e-14 of itself, at most
    4 times: 3 times on most curves, with shifts of up to 0.15, 1e-3 and
    3e-7 of 0.1 d0.  Each integral costs 9 evaluations of q, so the start
    costs 36 on most curves and at most 45.

    Each step costs the same however long the curve already is: at most 15
    evaluations of q (3 for RK4, whose first stage reuses the square root
    at the current point, 8 for the Gauss-Legendre chord, 1 at the end
    point and 1 to 3 for the Newton projection onto Im phi = 0), and a
    scan of the earlier segments for closure only once the curve has
    turned through 1.5 pi since one of them.  The projection shifts the
    end point along the normal by -Im phi / |sqrt q| and adds the
    trapezoid rule over the shift, until the shift is below 1e-6 of the
    step; it refuses shifts of 0.2 of the step or more."""
    # Start from the chart's own point, so the origin is not taken for a target.
    origin_label, origin = _trace_origin(complex(origin), chart)
    specials = chart.singular_points()
    scale = chart.scale
    directions = emanation_directions(origin, chart)
    if not 0 <= ray < len(directions):
        raise AlgebraError(f"ray {ray} out of range for {origin_label}")
    direction = directions[ray]

    escape = _ESCAPE_FACTOR * chart.escape_scale
    budget = _ARC_BUDGET_FACTOR * chart.arc_scale
    max_h, min_h = _MAX_STEP * scale, _MIN_STEP * scale
    # Later entries win where capture discs overlap (see UChart.capture_points).
    captures = [(label, pole, _CAPTURE_RADIUS * max(1.0, abs(pole)))
                for label, pole in chart.capture_points().items()]
    sp = chart.simple_pole_u
    sp_radius = _CAPTURE_RADIUS * max(1.0, abs(sp))
    sp_is_origin = abs(sp - origin) < 1e-12 * scale
    tp_radius = _TP_RADIUS * scale
    tp_targets = [(k, u_tp, abs(u_tp - origin) < 1e-12 * scale)
                  for k, u_tp in enumerate(chart.turning_points_u)]
    sep_arc = 20 * _CAPTURE_RADIUS * scale
    hit_tol = 1e-5 * scale

    # The first point: START_FRACTION of the distance d0 to the nearest
    # other special point out along the ray, moved along the ray's normal
    # by Newton iteration until the exact integral from the origin is real.
    # The branch is the one whose unit-speed field points along the ray:
    # sqrt(q) nearer conj(direction).
    d0 = min([abs(origin - s) for s in specials
              if not abs(s - origin) < 1e-12 * (1 + abs(origin))])
    u = origin + START_FRACTION * d0 * direction
    phi, sq = _start_integral(chart, origin, u, direction.conjugate())
    for _ in range(4):
        if abs(phi.imag) <= 1e-14 * abs(phi):
            break
        # d(Im phi)/ds = Re(sqrt(q) direction) along u + 1j * direction * s.
        u -= 1j * direction * (phi.imag / (sq * direction).real)
        phi, sq = _start_integral(chart, origin, u, direction.conjugate())
    points = [origin, u]
    arc = abs(u - origin)
    arcs = [0.0, arc]   # cumulative arc length at each polyline point
    im_worst = abs(phi.imag)
    terminus = None
    # Capture checks at the origin itself stay off until the curve has left
    # its neighborhood (else the first step "terminates" immediately).
    leave_radius = 3 * max(_TP_RADIUS, _CAPTURE_RADIUS) * scale
    left_origin = False
    # Running turning angle: turns[i] is the angle turned from the first
    # step through step i (points[i] -> points[i+1]); lo and hi bound it
    # over the first n_sep steps, the arc-separated ones.
    last_step = u - origin
    turn_exact = last_step != 0
    turn, turns = 0.0, [0.0]
    n_sep, lo, hi = 0, math.inf, -math.inf

    def field_at(v: complex, ref: complex) -> tuple:
        s = _sqrt_q(chart, v, ref)
        return s.conjugate() / abs(s), s

    step_shrink = 0
    while terminus is None:
        d_near = min([abs(u - s) for s in specials])
        h = min(max_h, _STEP_FACTOR * max(d_near, 1e-12))
        h /= 2 ** step_shrink
        if h < min_h:
            raise TraceError(f"step underflow at u={u:.6g}", partial=points)

        # RK4 on the unit-speed field, with sign continuation via sq, which
        # is already the continued square root at u.
        try:
            k1 = sq.conjugate() / abs(sq)
            k2, s2 = field_at(u + 0.5 * h * k1, sq)
            k3, s3 = field_at(u + 0.5 * h * k2, s2)
            k4, s4 = field_at(u + h * k3, s3)
        except ZeroDivisionError:
            raise TraceError(f"vanishing q at u={u:.6g}", partial=points) from None
        u_next = u + (h / 6) * (k1 + 2 * k2 + 2 * k3 + k4)
        # Gauss-Legendre accumulation of int sqrt(q) du over the chord;
        # exact saddle connections need the primitive accurate well below
        # the turning-point capture scale.
        half = (u_next - u) / 2
        mid = (u + u_next) / 2
        ref = sq
        dphi = 0j
        for x, w in _GL8:
            ref = _sqrt_q(chart, mid + half * x, ref)
            dphi += w * ref
        dphi *= half
        sq_next = _sqrt_q(chart, u_next, ref)

        # Newton projection onto Im phi = 0: a normal shift that cancels
        # the imaginary drift to first order, the trapezoid rule over the
        # shift, repeated until the shift is negligible against the step.
        for _ in range(3):
            drift = (phi + dphi).imag
            denom = abs(sq_next)
            if not (denom > 0 and abs(drift) > 0):
                break
            shift = -1j * (sq_next.conjugate() / denom) * (drift / denom)
            if abs(shift) >= 0.2 * h:
                break
            u_corr = u_next + shift
            sq_corr = _sqrt_q(chart, u_corr, sq_next)
            dphi += (u_corr - u_next) / 2 * (sq_next + sq_corr)
            u_next, sq_next = u_corr, sq_corr
            if abs(shift) < 1e-6 * h:
                break

        new_im = abs((phi + dphi).imag)
        if new_im > EPS_TRACE * (1 + arc + h):
            if step_shrink == _MAX_HALVINGS:
                # A drift the projection cannot cancel even on the shortest
                # step tried: shorter steps would only crawl on.
                raise TraceError(f"drift {new_im:.3g} left after {_MAX_HALVINGS} step "
                                 f"halvings at u={u:.6g}", partial=points)
            step_shrink += 1
            continue
        step_shrink = max(0, step_shrink - 1)

        phi += dphi
        step = u_next - u
        arc += abs(step)
        u, sq = u_next, sq_next
        points.append(u)
        arcs.append(arc)
        im_worst = max(im_worst, abs(phi.imag))
        if turn_exact:
            bend = cmath.phase(step / last_step) if step else math.nan
            if abs(bend) < 3.0:
                turn += bend
                last_step = step
            else:
                # A zero step, or a near-reversal whose rounded angle may
                # flip between +pi and -pi: scan on every step from here.
                turn_exact = False
        turns.append(turn)

        # --- terminus checks -------------------------------------------
        if not left_origin and abs(u - origin) > leave_radius:
            left_origin = True
        # Far outside every special point the field is a constant direction
        # (q tends to its leading coefficient), so the fate is sealed well
        # before the hard escape radius.
        far_out = abs(u) > 25 * scale and (u.real * k1.real + u.imag * k1.imag) > 0
        if abs(u) > escape or far_out:
            terminus = chart.escape_label
            break
        for label, pole, radius in captures:
            if abs(u - pole) < radius:
                terminus = label
        if terminus:
            break
        if (left_origin or not sp_is_origin) and abs(u - sp) < sp_radius:
            terminus = "simple_pole"
            break
        for k, u_tp, tp_is_origin in tp_targets:
            if (left_origin or not tp_is_origin) and abs(u - u_tp) < tp_radius:
                terminus = f"turning_point:{k}"
                break
        if terminus:
            break
        if arc > budget:
            terminus = "spiral"
            break
        # Closure: revisiting an early portion of the polyline going the
        # same way.  Candidates must be arc-separated (a curve lingering
        # near a pole leaves many recent points close by), the revisit must
        # land on the earlier segment itself (perpendicular distance at the
        # integration-accuracy scale, far below any spiral's arm gap), and
        # the intervening sub-path must have turned through a full loop.
        if arc > sep_arc and len(points) > 20:
            while n_sep < len(points) - 1 and arcs[n_sep] < arc - sep_arc:
                lo, hi = min(lo, turns[n_sep]), max(hi, turns[n_sep])
                n_sep += 1
            behind = max(turn - lo, hi - turn)
            if n_sep and (not turn_exact or behind > _CLOSURE_TURN - _TURN_MARGIN):
                pts = np.asarray(points)
                a = pts[:n_sep]
                seg = pts[1:n_sep + 1] - a
                L2 = np.abs(seg) ** 2
                tpar = np.clip(((u - a) * np.conj(seg)).real /
                               np.maximum(L2, 1e-300), 0.0, 1.0)
                d = np.abs(u - (a + tpar * seg))
                j = int(np.argmin(d))
                if d[j] < hit_tol * (1 + arc):
                    seg_dir = seg[j]
                    dirs = np.diff(pts[j:])
                    dirs = dirs[np.abs(dirs) > 0]
                    turning = abs(float(np.sum(np.angle(dirs[1:] / dirs[:-1]))))
                    cosine = (step / abs(step) *
                              (seg_dir / abs(seg_dir)).conjugate()).real
                    if cosine > _CLOSURE_COSINE and turning > _CLOSURE_TURN:
                        terminus = "closed"
                        break

    return TracedCurve(origin_label, ray, np.array(points), terminus,
                       phi_end=phi, im_drift=im_worst, arc_length=arc)


# ---------------------------------------------------------------------------
# Full diagram and degenerations
# ---------------------------------------------------------------------------

def stokes_diagram(params) -> StokesDiagram:
    """Trace every Stokes curve (five per turning point plus one from the
    simple pole) and detect degenerations."""
    chart = u_chart(params)
    curves = []
    for u_tp in chart.turning_points_u:
        for ray in range(5):
            curves.append(trace_curve(u_tp, ray, chart))
    curves.append(trace_curve(chart.simple_pole_u, 0, chart))
    diagram = StokesDiagram(chart, curves)
    diagram.degenerations = detect_degenerations(diagram)
    return diagram


def _winding_number(points: np.ndarray, center: complex) -> float:
    rel = points - center
    angles = np.angle(rel[1:] / rel[:-1])
    return float(np.sum(angles) / (2 * math.pi))


def detect_degenerations(diagram: StokesDiagram) -> list:
    """Triangle records (all three turning-point pairs connected) and loop
    records (a curve from a turning point back to itself, or closed, winding
    once around exactly one double pole whose residue is purely imaginary in
    the sense of ``walls.on_imaginary_axis``, the test that puts the
    parameters on a wall)."""
    chart = diagram.chart
    tps = list(chart.turning_points_u)
    records = []

    # Pairwise turning-point connections.
    connected = {}
    for c in diagram.curves:
        if not c.origin.startswith("tp") or not c.terminus.startswith("turning_point:"):
            continue
        i = int(c.origin[2:])
        j = int(c.terminus.split(":")[1])
        if i == j:
            continue
        pair = tuple(sorted((i, j)))
        d = abs(c.phi_end.imag)
        if pair not in connected or d < connected[pair]:
            connected[pair] = d
    if len(tps) == 3 and len(connected) == 3:
        records.append(DegenerationRecord(
            "triangle", [list(p) for p in sorted(connected)],
            max(connected.values())))

    # Loops around a double pole.
    for c in diagram.curves:
        self_loop = (c.origin.startswith("tp") and
                     c.terminus == f"turning_point:{c.origin[2:]}")
        if not (self_loop or c.terminus == "closed"):
            continue
        hits = []
        for label, pole in chart.double_poles_u.items():
            w = _winding_number(c.points, pole)
            if abs(abs(w) - 1) < 0.2:
                hits.append((label, pole))
        if len(hits) != 1:
            continue
        label, pole = hits[0]
        res = chart.pole_residues[label]
        if on_imaginary_axis(res):
            rec = DegenerationRecord("loop", [c.origin, label], abs(res.real) / abs(res))
            if not any(r.kind == "loop" and r.participants[1] == label
                       for r in records):
                records.append(rec)
    return records


# ---------------------------------------------------------------------------
# Closed-form phase primitive
# ---------------------------------------------------------------------------

def phi_primitive(b: BranchPoint, p: Parameters) -> complex:
    """Closed-form primitive of the leading Riccati slot along a branch:
    its t-derivative is R_{-1}.  Uses principal logarithms; continuity along
    a path is the caller's concern (evaluate pointwise and chain)."""
    t, lam = complex(b.t), complex(b.lambda0)
    r = b.sign * cmath.sqrt(delta(b, p))
    ci, c0 = p.c_inf, p.c_0
    a1 = 2 * lam - ci + t * r
    a2 = 2 * lam - ci - t * r
    b1 = 2 * t * t - c0 * t * lam + t * t * lam * r
    b2 = 2 * t * t - c0 * t * lam - t * t * lam * r
    amax = max(abs(a1), abs(a2), abs(b1), abs(b2), 1.0)
    if min(abs(a1), abs(a2)) < 1e-14 * amax or min(abs(b1), abs(b2)) < 1e-14 * amax:
        raise BranchCutError("logarithm argument vanishes in the phase primitive")
    return 0.5 * (4 * t * r - ci * cmath.log(a1 / a2) - c0 * cmath.log(b1 / b2))


# ---------------------------------------------------------------------------
# Rendering
# ---------------------------------------------------------------------------

def render(diagram: StokesDiagram, format: str = "svg") -> bytes:
    """Serialize: deterministic JSON (schema fixed) or an 800x800 SVG with
    curves, x = turning points, filled dots = double poles, triangle = the
    simple pole."""
    if format == "json":
        return json.dumps(diagram.to_dict(), indent=1, sort_keys=True).encode()
    if format != "svg":
        raise ValueError(f"unknown format {format!r}")

    chart = diagram.chart
    tps = list(chart.turning_points_u)
    centroid = sum(tps) / len(tps)
    specials = chart.singular_points()
    span = max([abs(s - centroid) for s in specials] + [1e-3]) * 2.8
    half = 400.0

    def to_px(u: complex):
        return (half + (u.real - centroid.real) / span * 2 * half,
                half - (u.imag - centroid.imag) / span * 2 * half)

    parts = ['<svg xmlns="http://www.w3.org/2000/svg" width="800" height="800" '
             'viewBox="0 0 800 800">',
             '<rect width="800" height="800" fill="white"/>']
    for c in diagram.curves:
        pts = [to_px(u) for u in c.points if abs(u - centroid) < 1.2 * span]
        if len(pts) < 2:
            continue
        path = "M " + " L ".join(f"{x:.2f} {y:.2f}" for x, y in pts)
        parts.append(f'<path d="{path}" fill="none" stroke="black" stroke-width="1"/>')
    for u in tps:
        x, y = to_px(u)
        parts.append(f'<path d="M {x-5:.2f} {y-5:.2f} L {x+5:.2f} {y+5:.2f} '
                     f'M {x-5:.2f} {y+5:.2f} L {x+5:.2f} {y-5:.2f}" '
                     'stroke="red" stroke-width="2"/>')
    for u in chart.double_poles_u.values():
        x, y = to_px(u)
        parts.append(f'<circle cx="{x:.2f}" cy="{y:.2f}" r="4" fill="blue"/>')
    x, y = to_px(chart.simple_pole_u)
    parts.append(f'<path d="M {x:.2f} {y-6:.2f} L {x-5:.2f} {y+4:.2f} '
                 f'L {x+5:.2f} {y+4:.2f} Z" fill="green"/>')
    parts.append("</svg>")
    return "\n".join(parts).encode()
