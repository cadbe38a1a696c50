"""Stokes geometry on the u-plane: emanating directions, curve tracing and
degeneration detection.

Curves are integral curves of Im int sqrt(q) du = 0, traced with the
unit-speed field conj(sqrt q)/|sqrt q| (so Re of the integral increases
monotonically), and a continuation sign chained along the curve.  The five
rays of a turning point come from q's (u - u_tp)^3 lead there, the ray of
the simple pole from q's residue there; the chart gives both in closed form
(``UChart.turning_point_leads``, ``UChart.simple_pole_lead``), and the
integral as well (``UChart.phi``).  What the curves read of the chart
alone (the rays, the expansion of sqrt(q) at each origin, the capture
discs and end domains) is worked out once per chart, on its first curve.
A curve starts on its exact level set three tenths of the way out from
its origin to the nearest other special point, the integral summed from the
expansion.  Each step is an RK4 predictor over half the distance to the
nearest special point, the chart's primitive at its end point, and a
Newton projection back onto Im of the integral = 0: at most 8 evaluations
of q however long the curve already is.  Steps have no cap: none passes
over a special point.  A curve ends as soon as it enters the end domain
of a pole of q of order 2 or 4 (u = infinity, D6's u = 0, the double
poles): a region, read off the pole's closed-form leading term and the
divisor of q (``UChart.end_domains``), that no trajectory entering it
leaves before it reaches the pole.  It also ends at a turning point or
the simple pole it runs into.  Off the walls q du^2 has no closed
trajectory; on a loop wall a double pole with an imaginary residue does
not seal, and a curve that turns once round it ends "closed".  One that
outruns its arc budget ends "spiral".  The poles' capture discs and the
escape radius end the curves with the seals off.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass, field
from functools import lru_cache
from types import MappingProxyType
from typing import NamedTuple

import numpy as np

from .algebra import START_FRACTION, AlgebraError, u_chart
from .numerics import _continued_sqrt
from .walls import on_imaginary_axis

__all__ = [
    "TraceError",
    "TracedCurve",
    "DegenerationRecord",
    "StokesDiagram",
    "emanation_directions",
    "trace_curve",
    "stokes_diagram",
    "detect_degenerations",
]

#: A step is halved while the drift of Im phi exceeds this, times 1 + arc + step.
EPS_TRACE = 1e-6
#: Step halvings the tracer tries on a drift before it gives up.
_MAX_HALVINGS = 20
# The tracer's constants; they give the termini of the reference pictures.
_STEP_FACTOR = 0.5           # of the distance to the nearest special point (origin included)
_MIN_STEP = 1e-9             # times the chart scale; a shorter step raises TraceError
_CAPTURE_RADIUS = 1e-3       # scaled by the local pole size: where a double pole on a
                             # loop wall, or any pole with the seals off, ends a curve
_TP_RADIUS = 1e-3            # scaled by the chart scale, for hitting another turning point
_ESCAPE_FACTOR = 25.0        # times the chart scale: ends a curve at u = infinity with
                             # the seals off
_ARC_BUDGET_FACTOR = 200.0   # times the chart's arc_scale


class TraceError(RuntimeError):
    """Curve integration failed (step underflow near an unexpected
    singularity); carries the partial polyline."""

    def __init__(self, message, partial=None):
        super().__init__(message)
        self.partial = partial


@dataclass
class TracedCurve:
    origin: str                      # "tp0".."tp2" | "simple_pole"
    ray: int
    points: np.ndarray               # complex u-samples
    terminus: str
    phi_end: complex = 0j            # int sqrt(q) du from the origin to the last point
    im_drift: float = 0.0            # worst |Im phi| the projection left at a point
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


# ---------------------------------------------------------------------------
# Emanating directions
# ---------------------------------------------------------------------------

def _trace_origin(origin: complex, chart) -> tuple:
    """(label, u) of the turning point ("tp0".."tp2") or the simple pole
    ("simple_pole") of the chart at ``origin``."""
    origins = [(f"tp{k}", u_tp) for k, u_tp in enumerate(chart.turning_points_u)]
    for label, u in origins + [("simple_pole", chart.simple_pole_u)]:
        if chart.same_point(origin, u):
            return label, u
    raise AlgebraError(f"{origin} is neither a turning point nor the simple pole")


def emanation_directions(origin: complex, chart) -> list:
    """Unit directions of the Stokes rays at a turning point (five, from the
    local (5/2)-power primitive, by the chart's ``turning_point_leads``) or
    at the simple pole over t = 0 (one, from the local (1/2)-power
    primitive, by the chart's ``simple_pole_lead``) of a u-plane chart.

    Ray k of a turning point lies at (2 pi k - arg(lead)) / 5, with arg in
    (-pi, pi] (``cmath.phase``), so ray 0 lies at -arg(lead) / 5.  At a
    lead on the negative real axis the sign of its imaginary part (there
    often rounding) takes arg near pi or near -pi: it rotates the labels by
    one ray but never changes the set of five rays."""
    label, u0 = _trace_origin(complex(origin), chart)
    if label == "simple_pole":
        return [cmath.exp(-1j * cmath.phase(chart.simple_pole_lead))]
    lead = chart.turning_point_leads[chart.turning_points_u.index(u0)]
    base = -cmath.phase(lead) / 5.0
    return [cmath.exp(1j * (base + 2 * math.pi * k / 5)) for k in range(5)]


# ---------------------------------------------------------------------------
# Curve tracing
# ---------------------------------------------------------------------------

class _Start(NamedTuple):
    """What every curve leaving one origin reads of it (see ``_tracing_plan``)."""

    label: str             # "tp0".."tp2" | "simple_pole"
    u: complex
    directions: tuple      # ``emanation_directions``, by ray
    firsts: tuple          # by ray: (u1, phi, sqrt(q) of the series at u1) (``_start_points``)
    logs: tuple            # ``UChart.origin_logs``
    is_origin: tuple       # per turning point, then the simple pole: whether it is u


class _Plan(NamedTuple):
    """The data a Stokes curve reads of its chart alone (see ``_tracing_plan``)."""

    starts: MappingProxyType   # u of each turning point and of the simple pole -> _Start
    specials: tuple            # turning points, simple pole, capture points: the nearest
                               # sets a step, the others count if it lies within reach
    captures: tuple            # (label, pole, radius); later ones win where discs overlap
    sp_radius: float           # the simple pole's capture radius
    domains: tuple             # the end domains that may seal a curve
    reach: float               # the largest capture radius, the simple pole's included
    loop_poles: tuple          # u of each double pole with an imaginary residue


@lru_cache(maxsize=1)
def _tracing_plan(chart) -> _Plan:
    """What ``trace_curve`` reads of ``chart`` alone, worked out on its
    first curve and kept for the others: per origin its rays (one call of
    ``emanation_directions``) and where each ray's curve starts, all rays
    solved at once (``_start_points``); the capture discs, and the end
    domains that may seal: all but those of the double poles whose residue
    is imaginary in the sense of ``walls.on_imaginary_axis`` (a loop wall),
    which the plan lists.  Data only, in tuples and read-only maps."""
    tps, sp = chart.turning_points_u, chart.simple_pole_u
    origins = [(f"tp{k}", u) for k, u in enumerate(tps)] + [("simple_pole", sp)]
    rays = [tuple(emanation_directions(u0, chart)) for _, u0 in origins]
    firsts = iter(_start_points(chart, rays))
    starts = {u0: _Start(label, u0, directions, tuple(next(firsts) for _ in directions),
                         chart.origin_logs(u0), tuple(chart.same_point(s, u0) for s in tps + (sp,)))
              for (label, u0), directions in zip(origins, rays)}
    captures = tuple((label, pole, _CAPTURE_RADIUS * max(1.0, abs(pole)))
                     for label, pole in chart.capture_points().items())
    sp_radius = _CAPTURE_RADIUS * max(1.0, abs(sp))
    on_wall = tuple(d for d in chart.end_domains if d.order == 2 and on_imaginary_axis(d.lead))
    return _Plan(MappingProxyType(starts), tps + (sp,) + tuple(p for _, p, _ in captures),
                 captures, sp_radius, tuple(d for d in chart.end_domains if d not in on_wall),
                 max([sp_radius] + [r for _, _, r in captures]), tuple(d.pole for d in on_wall))


def _start_points(chart, rays) -> list:
    """(u1, phi, root) of every ray of ``rays`` (the directions at each
    origin, in the order of ``UChart.origin_expansions``), all at once.
    With sqrt(q) = amp (v/d)^e g(v) / d there, v = u - center, d the ray and
    amp > 0, phi = int_origin^u1 sqrt(q) du = amp t^(e+1) h(v), t = v / d,
    h_n = g_n / (n + e + 1).  u1 = center + t d lies on the circle |t| = r,
    START_FRACTION of the origin's gap, at the theta = arg t where phi is
    real: Newton's method on (e + 1) theta + arg h(v), of derivative
    Re(g(v) / h(v)), from the root of its linear term, -Im(c) / (e + 1 +
    Re(c)) with c = r d h_1 / h_0, until it is below 1e-15.  root = amp t^e
    g(v) / d is sqrt(q) at u1 on the branch whose field points along the ray."""
    expansions = chart.origin_expansions
    counts = [len(directions) for directions in rays]
    center, e, lead, g = (np.repeat(col, counts, axis=0)
                          for col in map(np.array, zip(*expansions.values())))
    r = np.repeat([START_FRACTION * chart.special_gap(u0) for u0 in expansions], counts)
    d = np.concatenate(rays)
    n = np.arange(g.shape[1])
    gh = np.stack([g, g / (n + e[:, None] + 1)], axis=1)
    # amp is real and positive (up to rounding) by the choice of the rays.
    amp = np.sqrt(lead) * d ** (e + 1)
    amp[amp.real < 0] *= -1
    c = r * d * gh[:, 1, 1] / gh[:, 1, 0]
    theta = -c.imag / (e + 1 + c.real)
    for _ in range(8):
        t = r * np.exp(1j * theta)
        g_sum, h_sum = (gh @ ((t * d)[:, None] ** n)[..., None])[..., 0].T
        level = (e + 1) * theta + np.angle(h_sum)
        if np.max(np.abs(level)) <= 1e-15:
            break
        theta -= level / (g_sum / h_sum).real
    power = amp * t ** e
    return list(zip((center + t * d).tolist(), (power * t * h_sum).tolist(),
                    (power * g_sum / d).tolist()))


def _first_point(chart, origin: complex, direction: complex) -> tuple:
    """(u1, sqrt(q(u1)), phi, logs, offset) of a curve leaving ``origin``
    along ``direction``, one of its rays: u1 and phi = int_origin^u1
    sqrt(q) du, real there, are the plan's (``_start_points``), so the start
    reads q and the primitive Phi once, at u1: sqrt(q) is the branch nearer
    the expansion's, whose field points along the ray, and offset = phi -
    Phi(u1) turns Phi into the integral from the origin."""
    start = _tracing_plan(chart).starts[origin]
    u, phi, root = start.firsts[start.directions.index(direction)]
    sq = _continued_sqrt(chart.q(u), root)
    big_phi, logs = chart.phi(u, sq, start.logs)
    return u, sq, phi, logs, phi - big_phi


def _sealed(domains, u: complex, sq: complex):
    """The label of the end domain (``UChart.end_domains``) that holds u,
    where the continued square root of q is sq, or None.  Inside one, the
    curve's fate is settled: its pole's leading term decides it."""
    for label, pole, order, lead, radius in domains:
        if pole is None:                 # u = infinity: zeta = u, sqrt(q) ~ lead
            if abs(u) <= radius:
                continue
            zeta, root, depth = u, sq, radius
        else:
            v = u - pole
            if abs(v) >= radius:
                continue
            if order == 2:               # sqrt(q) ~ lead / v: lead is the residue
                if ((sq * v * lead.conjugate()).real > 0) == (lead.real < 0):
                    return label
                continue
            # zeta = -1/v, sqrt(q) ~ lead zeta^2
            zeta, root, depth = -1 / v, sq * v * v, 1 / radius
        if (root * lead.conjugate()).real < 0:
            lead = -lead
        if (lead * zeta).real > abs(lead) * depth:
            return label
    return None


def trace_curve(origin: complex, ray: int, chart) -> TracedCurve:
    """Trace one Stokes curve from a turning point (rays 0-4) or the simple
    pole (ray 0), following Im int sqrt(q) du = 0 with Re increasing.

    Once per chart (``_tracing_plan``): the origin's rays and first points,
    the capture discs and the end domains.  Once per curve: the first point
    (``_first_point``), which fixes offset in phi = Phi(u) + offset, Phi the
    chart's closed-form primitive with its logarithms continued along the
    curve.  Once per step, the same however long the curve already is: at
    most 8 evaluations of q (3 for RK4, whose first stage reuses the square
    root at the current point, 1 at the end point and up to 4 for the
    Newton projection onto Im phi = 0; 51.4 per curve on the reference
    figures), one of Phi, at the RK4 end point, the distances to the
    singular points and the end-domain test.  A step spans half the
    distance to the nearest special point, halved while the projection
    leaves too much drift, and has no cap.  The projection shifts the end point along the normal by
    -Im phi / |sqrt q| and adds the integral over the shift, by Simpson's
    rule on the first shift (as long as RK4's error) and the trapezoid rule
    on later ones, until the shift is below 1e-6 of the step; it refuses
    shifts of 0.2 of the step or more.  A last first-order shift, which
    needs no q, cancels the Im phi that leaves.  The next step's Phi is
    exact again, so the quadrature errors do not accumulate.

    A curve ends at a pole of q of order 2 or 4 at the first point inside
    its end domain (``UChart.end_domains``, tested by ``_sealed``); at a
    turning point or the simple pole inside its capture disc; "closed" once
    it has turned once round a double pole whose residue is imaginary (a
    loop wall: off the walls no trajectory is closed); "spiral" once its arc
    outruns _ARC_BUDGET_FACTOR arc scales.  The poles' capture discs
    (_CAPTURE_RADIUS) and the escape radius (_ESCAPE_FACTOR) end the curves
    that the seals would not: at those double poles, and with them off."""
    # Start from the chart's own point, so the origin is not taken for a target.
    starts, specials, captures, sp_radius, domains, reach, loop_poles = _tracing_plan(chart)
    start = starts[_trace_origin(complex(origin), chart)[1]]
    origin, is_origin = start.u, start.is_origin
    if not 0 <= ray < len(start.directions):
        raise AlgebraError(f"ray {ray} out of range for {start.label}")
    direction = start.directions[ray]

    scale = chart.scale
    escape = _ESCAPE_FACTOR * scale
    budget = _ARC_BUDGET_FACTOR * chart.arc_scale
    min_h = _MIN_STEP * scale
    tp_radius = _TP_RADIUS * scale
    n_tp = len(is_origin) - 1
    reach = max(reach, tp_radius)       # with the turning points' radius

    u, sq, phi, logs, offset = _first_point(chart, origin, direction)
    points = [origin, u]
    arc = abs(u - origin)
    im_worst = abs(phi.imag)
    terminus = None
    # Capture checks at the origin itself stay off until the curve has left
    # its neighborhood (else the first step "terminates" immediately).
    leave_radius = 3 * max(_TP_RADIUS, _CAPTURE_RADIUS) * scale
    left_origin = False
    # The angle the curve has turned round each on-axis double pole: a step
    # spans at most half the distance to one, so it turns less than pi.
    windings = [cmath.phase((u - p) / (origin - p)) for p in loop_poles]

    # The loop's calls, bound once: q and Phi of the chart, the continued
    # square root and the end-domain test.
    q, phi_of, root, sealed = chart.q, chart.phi, _continued_sqrt, _sealed
    step_shrink = 0
    dists = [abs(u - s) for s in specials]
    d_near = min(dists)
    while terminus is None:
        h = _STEP_FACTOR * (1e-12 if d_near < 1e-12 else d_near) / 2 ** step_shrink
        if h < min_h:
            raise TraceError(f"step underflow at u={u:.6g}", partial=points)

        # RK4 on the unit-speed field conj(s)/|s|, each stage's square root
        # s continued from the previous stage's; the first stage reuses sq,
        # already the continued square root at u.
        try:
            k1 = sq.conjugate() / abs(sq)
            s2 = root(q(u + 0.5 * h * k1), sq)
            k2 = s2.conjugate() / abs(s2)
            s3 = root(q(u + 0.5 * h * k2), s2)
            k3 = s3.conjugate() / abs(s3)
            s4 = root(q(u + h * k3), s3)
            k4 = s4.conjugate() / abs(s4)
        except ZeroDivisionError:
            raise TraceError(f"vanishing q at u={u:.6g}", partial=points) from None
        u_next = u + (h / 6) * (k1 + 2 * k2 + 2 * k3 + k4)
        # The integral from the origin, exact at the RK4 end point: the
        # chart's primitive with its logarithms continued from u.
        sq_next = root(q(u_next), s4)
        big_phi, logs_next = phi_of(u_next, sq_next, logs)
        phi_next = big_phi + offset

        # Newton projection onto Im phi = 0: a normal shift that cancels
        # the imaginary drift to first order, a quadrature over the shift,
        # repeated until the shift is negligible against the step.
        for newton in range(3):
            drift = phi_next.imag
            denom = abs(sq_next)
            if not (denom > 0 and abs(drift) > 0):
                break
            shift = -1j * (sq_next.conjugate() / denom) * (drift / denom)
            if abs(shift) >= 0.2 * h:
                break
            u_corr = u_next + shift
            if newton == 0:
                # The first shift is the longest, as long as RK4's error,
                # and the trapezoid rule's error grows as its cube:
                # Simpson's rule, with one more q at the midpoint.
                sq_mid = root(q(u_next + 0.5 * shift), sq_next)
                sq_corr = root(q(u_corr), sq_mid)
                phi_next += (u_corr - u_next) / 6 * (sq_next + 4 * sq_mid + sq_corr)
            else:
                sq_corr = root(q(u_corr), sq_next)
                phi_next += (u_corr - u_next) / 2 * (sq_next + sq_corr)
            u_next, sq_next = u_corr, sq_corr
            if abs(shift) < 1e-6 * h:
                break

        new_im = abs(phi_next.imag)
        if new_im > EPS_TRACE * (1 + arc + h):
            if step_shrink == _MAX_HALVINGS:
                # A drift the projection cannot cancel even on the shortest
                # step tried: shorter steps would only crawl on.
                raise TraceError(f"drift {new_im:.3g} left after {_MAX_HALVINGS} step "
                                 f"halvings at u={u:.6g}", partial=points)
            step_shrink += 1
            continue
        if step_shrink:
            step_shrink -= 1
        # The projection stops once its shift is below 1e-6 of the step,
        # which leaves an Im phi of second order in that shift (up to 1e-13
        # of phi); one more first-order shift, along sq_next, cancels it
        # without another q.
        drift = phi_next.imag
        if drift and sq_next:
            shift = -1j * sq_next.conjugate() * (drift / abs(sq_next) ** 2)
            u_next += shift
            phi_next += shift * sq_next

        arc += abs(u_next - u)
        for k, p in enumerate(loop_poles):
            windings[k] += cmath.phase((u_next - p) / (u - p))
        u, sq, phi, logs = u_next, sq_next, phi_next, logs_next
        points.append(u)
        if abs(phi.imag) > im_worst:
            im_worst = abs(phi.imag)

        # --- terminus checks -------------------------------------------
        if not left_origin and abs(u - origin) > leave_radius:
            left_origin = True
        terminus = sealed(domains, u, sq)
        if terminus:
            break
        if abs(u) > escape:
            terminus = chart.escape_label
            break
        dists = [abs(u - s) for s in specials]
        d_near = min(dists)
        if d_near < reach:
            for (label, _, radius), d in zip(captures, dists[n_tp + 1:]):
                if d < radius:
                    terminus = label
            if terminus:
                break
            if (left_origin or not is_origin[n_tp]) and dists[n_tp] < sp_radius:
                terminus = "simple_pole"
                break
            for k, d in enumerate(dists[:n_tp]):
                if (left_origin or not is_origin[k]) and d < tp_radius:
                    terminus = f"turning_point:{k}"
                    break
            if terminus:
                break
        if arc > budget:
            terminus = "spiral"
            break
        if loop_poles and max(map(abs, windings)) >= 2 * math.pi:
            terminus = "closed"

    return TracedCurve(start.label, ray, np.array(points), terminus,
                       phi_end=phi, im_drift=im_worst, arc_length=arc)


# ---------------------------------------------------------------------------
# Full diagram and degenerations
# ---------------------------------------------------------------------------

def stokes_diagram(params) -> StokesDiagram:
    """Trace every Stokes curve (five per turning point plus one from the
    simple pole) and detect degenerations."""
    chart = u_chart(params)
    curves = [trace_curve(u_tp, ray, chart)
              for u_tp in chart.turning_points_u for ray in range(5)]
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
