"""Voros coefficients of the distinguished endpoints: closed forms built
from two Bernoulli-coefficient series, difference equations under the
eta^-1 parameter shifts, and an independent numerical contour oracle.

Closed forms use two model series in a single variable z (standing for
c eta with the relevant parameter combination substituted):

    F(z) = sum_{n>=1} (2^{1-2n} - 1) / (2n(2n-1)) B_{2n} z^{1-2n}
    G(z) = sum_{n>=1} B_{2n} / (2n(2n-1)) z^{1-2n}

Every supported endpoint's Voros series is a signed integer combination of
F and G evaluated at c_p, c_m, c_inf, c_0 (or c for the degenerate family).
They live in one endpoint table, ``_ENDPOINTS``, keyed by family and then
by target, whose rows also say where each endpoint sits in the u-chart and
how the oracle reads the endpoint's +/- convention there.

The numerical oracle integrates rho_n = B_2n(u) sqrt(q(u)) du, the odd
Riccati slot of eta^(1-2n) in the u-chart, along a dumbbell contour in the
u-plane: a circle around a turning point, resolved mode-by-mode through an
FFT (each half-odd Puiseux mode has an elementary primitive, so the circle
plus the escaping leg can be assembled without cancellation), plus a
numerically integrated leg to the endpoint.  B_2n is read off a table
built once per family and rescaled per chart (``series.odd_slot_ratios``):
in float64, in 80 bits where the float64 read cancels, and, where that
read cancels too, from the t-jet series solve at the node.
"""

from __future__ import annotations

import cmath
import math
from collections import namedtuple
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from .algebra import BranchPoint, _finite, u_chart
from .numerics import ExactLaurent, _chain_signs, _nearer_negated, bernoulli
from .series import (D6Model, D7Model, lowest_jet_order, model_for, odd_slot_ratios,
                     riccati_solution, zero_param_solution)

__all__ = [
    "PathError",
    "EndpointSpec",
    "f_coefficient",
    "g_coefficient",
    "f_series",
    "g_series",
    "voros_symbolic",
    "voros_closed_form",
    "f_difference_rhs",
    "g_difference_rhs",
    "verify_difference_equation",
    "reconstruct_from_difference",
    "shift_decomposition",
    "voros_increment",
    "voros_increment_printed",
    "increments_match",
    "cycle_symbolic",
    "OracleResult",
    "voros_numeric_oracle",
]


class PathError(RuntimeError):
    """A contour for the numerical oracle could not be validated."""


# ---------------------------------------------------------------------------
# Endpoint specifications
# ---------------------------------------------------------------------------

#: A row of the endpoint table: the F/G combination {variable: (multiple,
#: "F" | "G")} for the '+' sign; the chart's capture label at the endpoint
#: (None: u = infinity); and the limit of lambda_0 R_{-1} at a t = infinity
#: endpoint, which fixes its +/- convention (None: at a double pole
#: t R_{-1} tends to the chart's residue instead).
_Endpoint = namedtuple("_Endpoint", "combination capture lam_r_limit", defaults=(None, None))

#: family -> target -> row.  The D7 infinity branches meet at u = infinity,
#: where W vanishes in both conventions.
_ENDPOINTS = {
    "d6": {"inf1": _Endpoint({"c_p": (1, "F")}, None, 2.0),
           "inf2": _Endpoint({"c_p": (1, "F")}, None, 2.0),
           "inf3": _Endpoint({"c_m": (1, "F")}, "inf34", -2.0),
           "inf4": _Endpoint({"c_m": (1, "F")}, "inf34", -2.0),
           "zero_cinf": _Endpoint({"c_p": (1, "F"), "c_m": (1, "F"), "c_inf": (-3, "G")},
                                  "zero_cinf"),
           "zero_c0": _Endpoint({"c_p": (1, "F"), "c_m": (-1, "F"), "c_0": (-3, "G")},
                                "zero_c0")},
    "d7": {"inf1": _Endpoint({}), "inf2": _Endpoint({}), "inf3": _Endpoint({}),
           "zero_c": _Endpoint({"c": (-3, "G")}, "zero_c")},
}

#: family -> (model, the eta^-1 shift of each closed-form variable in a shifted model).
_SHIFTS = {
    "d6": (D6Model, lambda m: {"c_inf": m.shift_inf, "c_0": m.shift_0,
                               "c_p": (m.shift_inf + m.shift_0) // 2,
                               "c_m": (m.shift_inf - m.shift_0) // 2}),
    "d7": (D7Model, lambda m: {"c": m.shift}),
}


@dataclass(frozen=True)
class EndpointSpec:
    """An endpoint of the Voros integral: equation family, target branch
    label, and the +/- square-root convention."""

    equation: str   # "d6" | "d7"
    target: str
    sign: int = +1

    def __post_init__(self):
        if self.equation not in _ENDPOINTS:
            raise ValueError(f"unknown equation family {self.equation!r}")
        if self.target not in _ENDPOINTS[self.equation]:
            raise ValueError(f"unknown target {self.target!r} for {self.equation}")
        if self.sign not in (+1, -1):
            raise ValueError("sign must be +1 or -1")

    def __str__(self):
        return f"{self.equation}:{self.target}:{'+' if self.sign > 0 else '-'}"

    @property
    def row(self) -> _Endpoint:
        return _ENDPOINTS[self.equation][self.target]


# ---------------------------------------------------------------------------
# The two model series
# ---------------------------------------------------------------------------

def f_coefficient(n: int) -> Fraction:
    """Coefficient of z^(1-2n) in F."""
    if n < 1:
        raise ValueError("n >= 1")
    return (Fraction(2) ** (1 - 2 * n) - 1) / (2 * n * (2 * n - 1)) * bernoulli(2 * n)


def g_coefficient(n: int) -> Fraction:
    """Coefficient of z^(1-2n) in G."""
    if n < 1:
        raise ValueError("n >= 1")
    return bernoulli(2 * n) / (2 * n * (2 * n - 1))


def f_series(depth: int = 21) -> ExactLaurent:
    """F through z^-depth."""
    return _series({1 - 2 * n: f_coefficient(n) for n in range(1, (depth + 1) // 2 + 1)})


def g_series(depth: int = 21) -> ExactLaurent:
    """G through z^-depth."""
    return _series({1 - 2 * n: g_coefficient(n) for n in range(1, (depth + 1) // 2 + 1)})


# ---------------------------------------------------------------------------
# Closed forms
# ---------------------------------------------------------------------------

def voros_symbolic(spec: EndpointSpec) -> dict:
    """The endpoint's Voros series as {variable: (integer multiple, kind)}
    with kind "F" or "G"; the spec's sign is already folded in.

    Variables are "c_p", "c_m", "c_inf", "c_0" for the two-parameter family
    and "c" for the degenerate one."""
    return {var: (spec.sign * mult, kind)
            for var, (mult, kind) in spec.row.combination.items()}


def cycle_symbolic() -> dict:
    """The loop-cycle Voros coefficient (difference of the two infinity
    families), used by the shift lemmas."""
    return {"c_m": (1, "F")}


def _variable_value(var: str, params) -> complex:
    return _finite("c", params) if var == "c" else getattr(params, var)


def voros_closed_form(spec: EndpointSpec, params, n_max: int = 6) -> dict:
    """{n: W_n} with W = sum_n W_n eta^(1-2n): the closed-form coefficient
    values at the given parameters."""
    sym = voros_symbolic(spec)
    out = {}
    for n in range(1, n_max + 1):
        acc = 0j
        for var, (mult, kind) in sym.items():
            coeff = f_coefficient(n) if kind == "F" else g_coefficient(n)
            acc += mult * complex(coeff) * _variable_value(var, params) ** (1 - 2 * n)
        out[n] = acc
    return out


# ---------------------------------------------------------------------------
# Difference equations
# ---------------------------------------------------------------------------
#
# The model series, their shifts and the right-hand sides are ExactLaurent
# polynomials in z with one X column, each cut below the z^-depth that its
# builder was given, so two of them are equal when their difference is zero.

def _series(coeffs: dict) -> ExactLaurent:
    """sum_p coeffs[p] z^p, from {power: rational}."""
    den = math.lcm(*(Fraction(a).denominator for a in coeffs.values()))
    powers = range(min(coeffs, default=0), max(coeffs, default=0) + 1)
    return ExactLaurent([[int(coeffs.get(p, 0) * den)] for p in powers], powers[0], den)


def _cut(L: ExactLaurent, depth: int) -> ExactLaurent:
    """L without its powers below z^-depth."""
    k = max(-depth - L.lo, 0)
    return ExactLaurent(L.c[k:], L.lo + k, L.den)


def _coefficient(L: ExactLaurent, power: int) -> Fraction:
    i = power - L.lo
    return Fraction(L.c[i, 0], L.den) if 0 <= i < len(L.c) else Fraction(0)


def _first_mismatch(a: ExactLaurent, b) -> int | None:
    """The highest power at which a and b differ, or None."""
    d = a - b
    return d.lo + len(d.c) - 1 if d else None


def _log1p_over(a, depth: int) -> ExactLaurent:
    """log(1 + a/z) = sum_{k>=1} (-1)^(k+1) (a/z)^k / k through z^-depth."""
    return _series({-k: (-1) ** (k + 1) * Fraction(a) ** k / k for k in range(1, depth + 1)})


def _shifted(L: ExactLaurent, a, depth: int) -> ExactLaurent:
    """L(z + a) through z^-depth: (z + a)^p = sum_j binom(p, j) a^j z^(p-j),
    so the powers through z^-depth read only L's powers through z^-depth."""
    a, out = Fraction(a), {}
    for i, c in enumerate(L.c[:, 0]):
        if not c:
            continue
        p, binom = L.lo + i, Fraction(c, L.den)
        for j in range(p + depth + 1):
            out[p - j] = out.get(p - j, 0) + binom * a ** j
            binom *= Fraction(p - j, j + 1)
    return _series(out)


def _printed_block(depth: int, *, a_log: Fraction, z_coeff: Fraction) -> ExactLaurent:
    """(z + z_coeff) log(1 + a_log/z) through z^-depth, its constant term
    kept: the building block of the right-hand sides."""
    return _cut(_series({1: 1, 0: z_coeff}) * _log1p_over(a_log, depth + 1), depth)


def f_difference_rhs(depth: int = 21) -> ExactLaurent:
    """1 - (z+1) log(1 + 1/z) + log(1 + 1/(2z))."""
    return _log1p_over(Fraction(1, 2), depth) \
        - _printed_block(depth, a_log=Fraction(1), z_coeff=Fraction(1)) + 1


def g_difference_rhs(depth: int = 21) -> ExactLaurent:
    """1 - (z + 1/2) log(1 + 1/z)."""
    return 1 - _printed_block(depth, a_log=Fraction(1), z_coeff=Fraction(1, 2))


def verify_difference_equation(kind: str, depth: int = 21):
    """Check the exact difference equation for the model series:

        F(z+1) - F(z) = 1 - (z+1) log(1+1/z) + log(1+1/(2z))
        G(z+1) - G(z) = 1 - (z+1/2) log(1+1/z)

    Returns (ok, first_mismatch_power_or_None)."""
    if kind == "F":
        series, rhs = f_series(depth), f_difference_rhs(depth)
    elif kind == "G":
        series, rhs = g_series(depth), g_difference_rhs(depth)
    else:
        raise ValueError("kind must be 'F' or 'G'")
    mismatch = _first_mismatch(_shifted(series, 1, depth) - series, rhs)
    return mismatch is None, mismatch


def reconstruct_from_difference(rhs: ExactLaurent, depth: int = 21) -> ExactLaurent:
    """The unique inverse-power series Phi = sum_{m>=1} a_m z^-m, through
    z^-depth, with Phi(z+1) - Phi(z) = rhs.  rhs holds only powers z^-2 and
    below, and must be known through z^-(depth+1); its lower powers are not
    read.  The solve is the triangular system that makes Phi unique:
    a_m z^-m adds -m a_m z^-(m+1) and lower powers to the difference, so
    a_m is read off what is left of rhs at z^-(m+1)."""
    top = _first_mismatch(rhs, 0)
    if top is not None and top > -2:
        raise ValueError(f"difference of a decaying series has no z^{top} part")
    left, phi = _cut(rhs, depth + 1), ExactLaurent([[0]])
    for m in range(1, depth + 1):
        term = ExactLaurent([[1]], -m) * (_coefficient(left, -m - 1) / -m)
        left -= _shifted(term, 1, depth + 1) - term
        phi += term
    return phi


# ---------------------------------------------------------------------------
# Shift lemmas for the endpoint Voros series
# ---------------------------------------------------------------------------

def shift_decomposition(which: int, equation: str = "d6") -> dict:
    """Integer shifts of each closed-form variable under the eta^-1
    parameter shift, read off the model's ``backlund_shifted``: which=1
    moves (c_inf, c_0) by (+1, +1) in units of eta^-1, which=2 by (+1, -1),
    and c_p, c_m = (c_inf +/- c_0)/2 follow; the degenerate family moves c
    by +1."""
    model, shifts = _SHIFTS[equation]
    # The shifts do not depend on the parameters, so none are supplied.
    return shifts(model(None).backlund_shifted(which))


def _series_increment(kind: str, delta: int, depth: int) -> ExactLaurent:
    base = f_series(depth) if kind == "F" else g_series(depth)
    return _shifted(base, delta, depth) - base


def voros_increment(symbolic: dict, which: int, equation: str = "d6",
                    depth: int = 21) -> dict:
    """W(shifted parameters) - W as {variable: Laurent}, computed from the
    model series and their shifts.  Each entry is a difference of decaying
    series, so its constant term is exactly zero."""
    shifts = shift_decomposition(which, equation)
    parts = {}
    for var, (mult, kind) in symbolic.items():
        delta = shifts.get(var, 0)
        if delta == 0:
            continue
        parts[var] = _series_increment(kind, delta, depth) * Fraction(mult)
    return parts


def voros_increment_printed(endpoint_key: str, which: int, depth: int = 21):
    """The literal right-hand sides of the shift lemmas, as
    (bare constant, {variable: Laurent including its expansion constant});
    covers the loop cycle, the four infinity endpoints, and the t=0
    endpoints, in the '+' sign convention (the '-' version is the
    negative).  Total constant terms cancel, matching the decaying
    left-hand side."""
    # -(z+1) log(1+1/z) + log(1+1/(2z))
    F_var = _log1p_over(Fraction(1, 2), depth) \
        - _printed_block(depth, a_log=Fraction(1), z_coeff=Fraction(1))
    G_up3 = _printed_block(depth, a_log=Fraction(1), z_coeff=Fraction(1, 2)) * Fraction(3)
    G_dn3 = _printed_block(depth, a_log=Fraction(-1), z_coeff=Fraction(-1, 2)) * Fraction(3)

    if endpoint_key == "cycle":
        if which == 1:
            return Fraction(0), {}
        return Fraction(1), {"c_m": F_var}
    if endpoint_key in ("inf1", "inf2"):
        if which == 1:
            return Fraction(1), {"c_p": F_var}
        return Fraction(0), {}
    if endpoint_key in ("inf3", "inf4"):
        if which == 1:
            return Fraction(0), {}
        return Fraction(1), {"c_m": F_var}
    if endpoint_key == "zero_cinf":
        # -2 - (z+1) log(1+1/z) + log(1+1/(2z)) at c_p (or c_m for the
        # second shift), plus 3 (z+1/2) log(1+1/z) at c_inf.
        var = "c_p" if which == 1 else "c_m"
        return Fraction(-2), {var: F_var, "c_inf": G_up3}
    if endpoint_key == "zero_c0":
        if which == 1:
            return Fraction(-2), {"c_p": F_var, "c_0": G_up3}
        # +2 + (z+1) log(1+1/z) - log(1+1/(2z)) at c_m,
        # plus 3 (z-1/2) log(1-1/z) at c_0 (the downward shift).
        return Fraction(2), {"c_m": -F_var, "c_0": G_dn3}
    if endpoint_key == "zero_c":
        # degenerate family: -3 (G(z+1) - G(z)) = -3 + 3 (z+1/2) log(1+1/z)
        return Fraction(-3), {"c": G_up3}
    raise ValueError(f"no printed lemma for {endpoint_key!r}")


def increments_match(computed: dict, printed) -> tuple[bool, str]:
    """Compare a computed increment against a printed right-hand side.
    Per-variable decaying parts must agree exactly, and the printed bare
    constant must cancel the expansion constants of its log blocks."""
    bare, printed_parts = printed
    if set(computed) != set(printed_parts):
        return False, f"variables differ: {sorted(computed)} vs {sorted(printed_parts)}"
    total_const = Fraction(bare)
    for var, block in printed_parts.items():
        const = _coefficient(block, 0)
        total_const += const
        mm = _first_mismatch(computed[var], block - const)
        if mm is not None:
            return False, f"{var}: first mismatch at power {mm}"
    if total_const != 0:
        return False, f"constants do not cancel: total {total_const}"
    return True, "ok"


# ---------------------------------------------------------------------------
# Numerical contour oracle
# ---------------------------------------------------------------------------
#
# The Voros coefficient W_n is half the integral of the odd Riccati slot of
# eta^(1-2n) along a path that runs from the endpoint to a turning point, once
# around it, and back on the other sheet.  That slot is B_2n sqrt(Delta), and
# q du^2 = Delta dt^2, so in the u-chart the integrand is
#
#   rho_n(u) = B_2n(u) sqrt(q(u)) du,   sqrt(q) = sqrt(Delta) t'(u),
#
# with B_2n rational (series.odd_slot_ratios) and the root continued along
# the path by its sign chain.  The path is a dumbbell: a leg from a staging
# point P on a circle around the turning point out to the endpoint, plus the
# circle itself.  Near the turning point the integrand has a convergent
# half-odd-power Puiseux expansion, so the circle part is resolved mode by
# mode with an FFT over one turn: each mode has an elementary primitive,
# which sidesteps the catastrophic cancellation a naive contour integral
# suffers from the high-order pole.
#
#   rho_n(u) / du = sum_j a_j (u - u_tp)^{s_j},
#   s_j half-odd,   W_n = orient * [ sum_j c_j (P - u_tp)/(s_j + 1) + leg ],
#
# where c_j = a_j (P - u_tp)^{s_j}.  On the circle u = u_tp + (P - u_tp)
# e^{i theta}, rho_n e^{-i theta/2} = sum_j c_j e^{i (s_j - 1/2) theta} holds
# integer powers only, so c_j is exactly bin k = s_j - 1/2 of its one-turn
# DFT.  leg integrates rho_n from P to the endpoint on the branch fixed at P.
# The samples' modes are half-odd only when the root flips after one turn,
# that is when a branch point lies inside the circle; the oracle checks that
# flip once, on the step from the last sample back to the first.
#
# The leg is 16-point Gauss-Legendre on panels graded by the distance to the
# nearest special point of the chart, so they are short only where the
# integrand's nearest singularity is near.  Each panel's error is estimated
# from its own Legendre tail: the integrand's coefficients a_14 and a_15 on
# the panel, read off its 16 values by _TAIL_ROWS, times the panel's length.
# The grading is also what keeps a leg accurate where it passes near a special
# point, so the leg is straight: it takes one waypoint only to step round a
# point that lies on it.
#
# The circle's radius is r = _RADIUS_FACTOR times the distance d from the
# turning point to the nearest other point of chart.singular_points(), which
# include the other turning points, so with r < 1 the Puiseux expansion
# converges on the circle and its modes decay like r^{s_j}.  Two error terms
# set the pair of constants:
#
#   aliasing:      the M bins of one turn hold the modes up to |s| = M/2,
#                  so the first folded mode is about r^{M/2} of the largest
#                  (0.6^64 = 6e-15 at M = 128);
#   cancellation:  mode_sum and leg cancel in W_n by a factor kappa that falls
#                  as r grows, because the pole modes shrink and the leg
#                  starts further out (W_2 on 600 seeded checks: median
#                  kappa 1.7e6 at r = 0.3, 5.2e3 at r = 0.6).
#
# The bins with |s| > 0.4 M are checked against the largest (tail_ratio),
# so a circle too wide for its samples is refused rather than aliased.  Each
# sample is rounded at its node, so mode_sum carries rounding of about
# rounding_scale = rho rms|f| / sqrt(M), which W_n's error tracks.
#
# B_2n's numerator is a polynomial in u of degree up to 12n - 2 whose
# coefficients sum table terms.  Where the moduli of all its terms exceed
# |B_2n| (or 1) by more than _RATIO_CONDITION (OddSlotRatios.evaluate's
# ``condition``), their rounding in float64 would show in the slot.  So B_2n
# has up to three reads per node (_table_reads):
#
#   float64:   the family table in complex128, at every node;
#   80 bits:   the table rounded to clongdouble and read again, at the nodes
#              where the float64 read is ill-conditioned, mostly on D6
#              contours near u = -c_m/c_p.  Horner's forward error grows with
#              the unit roundoff, so the read is taken where its condition is
#              at most _RATIO_CONDITION * eps(float64) / eps(clongdouble)
#              (614,400 on x86-64), which keeps the same float64 bound;
#   node solve: the t-jet series solve (_node_ratios), at the nodes beyond
#              that gate too.  Where clongdouble is no wider than complex128
#              the gate is _RATIO_CONDITION and it takes every ill node.

_CIRCLE_SAMPLES = 128      # on one turn
_RADIUS_FACTOR = 0.6
_GL_NODES, _GL_WEIGHTS = np.polynomial.legendre.leggauss(16)
#: Rows k = 14, 15 of the map from a panel's 16 integrand values to its
#: Legendre coefficients a_k = (2k+1)/2 sum_i P_k(x_i) w_i f(x_i).
_TAIL_ROWS = ((2 * np.arange(14, 16) + 1) / 2)[:, None] \
    * np.polynomial.legendre.legvander(_GL_NODES, 15)[:, 14:].T * _GL_WEIGHTS
#: A leg panel spans this share of the distance from its start to the
#: nearest special point.  A segment that passes 1e-9 of its length from
#: one takes about 165 panels; _MAX_PANELS bounds the panels of a segment.
_PANEL_FRACTION = 0.25
_MAX_PANELS = 400
#: Nodes where OddSlotRatios.condition of the float64 read exceeds this
#: read B_2n again in 80 bits, under the bound scaled by the ratio of unit
#: roundoffs, and beyond that take it from the node solve.
_RATIO_CONDITION = 300.0


def _half_odd_modes(f: np.ndarray):
    """The half-odd modes of samples at theta_j = 2 pi j / M, j < M, on one
    turn (the last axis of f): (s, c_s) with f(theta) = sum_s c_s e^{i s
    theta}, read off bin k = s - 1/2 of the DFT of f e^{-i theta / 2}."""
    M = f.shape[-1]
    s = np.fft.fftfreq(M, d=1.0 / M) + 0.5
    return s, np.fft.fft(f * np.exp(-1j * math.pi * np.arange(M) / M)) / M


@dataclass
class OracleResult:
    """Contour-integral values of the Voros coefficients at one endpoint."""

    endpoint: EndpointSpec
    values: dict                  # n -> W_n for the endpoint's sign
    label_sign: int               # sign label the raw contour integrated to
    turning_point_u: complex
    diagnostics: dict = field(default_factory=dict)


def _target_of(chart, spec: EndpointSpec):
    """The endpoint's position u* in the u-chart; None for u = infinity."""
    capture = spec.row.capture
    return None if capture is None else chart.capture_points()[capture]


def _gl_rule(edges: np.ndarray):
    """Gauss-Legendre nodes and complex weights over the panels between
    consecutive edges, ordered along the edges."""
    mid, half = (edges[:-1] + edges[1:]) / 2, (edges[1:] - edges[:-1]) / 2
    return ((mid[:, None] + half[:, None] * _GL_NODES).ravel(),
            (half[:, None] * _GL_WEIGHTS).ravel())


def _graded_edges(a: complex, b: complex, specials: np.ndarray, tiny: float) -> np.ndarray:
    """Panel edges from a to b.  Each panel spans _PANEL_FRACTION of the
    distance from its start to the nearest special point, where 16-point
    Gauss-Legendre converges like 13.9^-32; a last panel shorter than half
    the one before is merged into it, so no panel exceeds 1.5 times that
    share of the distance.  Raises PathError when the segment passes within
    ``tiny`` of a special point, or needs more than _MAX_PANELS panels."""
    seg = b - a
    if np.min(_distances_to_segment(a, b, specials), initial=math.inf) < tiny:
        raise PathError(f"leg segment {a} -> {b} passes through a special point")
    s, out = 0.0, [0.0]
    while s < 1.0:
        h = _PANEL_FRACTION * np.min(np.abs(specials - (a + s * seg)), initial=math.inf) / abs(seg)
        s = 1.0 if s + 1.5 * h >= 1.0 else s + h
        out.append(s)
        if len(out) > _MAX_PANELS:
            raise PathError(f"leg segment {a} -> {b} needs over {_MAX_PANELS} panels")
    return a + seg * np.array(out)


def _distances_to_segment(a: complex, b, points: np.ndarray) -> np.ndarray:
    """The distance from each of ``points`` to the segment a -> b; for an
    array of ends b of shape (m, 1), from each point to each segment, shape
    (m, len(points)).  |b - a| is taken by hypot, as abs takes it of one
    complex number: numpy's vector abs can differ from it in the last bit."""
    seg = b - a
    feet = np.clip(((points - a) * np.conjugate(seg)).real / np.hypot(seg.real, seg.imag) ** 2,
                   0.0, 1.0)
    return np.abs(points - (a + feet * seg))


def _chart_specials(chart, specials: np.ndarray, in_w: bool):
    """(special points, tiny) in the u-chart, or in the w-chart w = 1/u: a
    segment passes through a point when it comes within tiny of it, 1e-9 of
    ``chart.scale`` in u and of 1/``chart.scale`` in w."""
    if in_w:
        return 1 / specials[np.abs(specials) > 1e-9], 1e-9 / chart.scale
    return specials, 1e-9 * chart.scale


def _straight_run(a: complex, b: complex, specials: np.ndarray, tiny: float) -> list:
    """Waypoints of the straight run from a to b: [a, b], unless the segment
    passes within ``tiny`` of a special point, which _graded_edges would
    refuse.  Then one waypoint steps off to the segment's left, 0.48 d from
    that point, d being its distance to the nearest special point more
    than ``tiny`` from it.
    A near pass needs no detour: the graded panels shorten towards the
    point, so the quadrature stays accurate there."""
    gaps = _distances_to_segment(a, b, specials)
    if np.min(gaps, initial=math.inf) >= tiny:
        return [a, b]
    o, seg = specials[np.argmin(gaps)], b - a
    apart = np.abs(specials - o)
    return [a, o + 0.48 * np.min(apart[apart > tiny]) * 1j * seg / abs(seg), b]


def _leg_waypoints(chart, spec: EndpointSpec, u_tp: complex, P: complex):
    """(u-chart waypoints, w-chart waypoints) for the leg from P to the
    endpoint; the w list is empty for finite targets.  The leg runs straight
    from P to a finite endpoint u*; to u = infinity it runs straight from P
    to a large radius u_big, then from 1/u_big to w = 0 in the w-chart.  A
    run gets one more waypoint only where it would pass through a special
    point (see _straight_run)."""
    u_star = _target_of(chart, spec)
    specials = _leg_specials(chart, spec)
    in_u = _chart_specials(chart, specials, False)
    if u_star is not None:
        return _straight_run(P, u_star, *in_u), []

    # Target u = infinity: out to the large radius whose run clears the
    # special points widest (the first such), then w = 1/u to zero.
    ends = [u_tp + 12.0 * chart.scale * cmath.exp(1j * (2 * math.pi * m / 24)) for m in range(24)]
    clear = np.min(_distances_to_segment(P, np.array(ends)[:, None], specials), axis=1)
    u_big = ends[int(np.argmax(clear))]
    return (_straight_run(P, u_big, *in_u),
            _straight_run(1 / u_big, 0j, *_chart_specials(chart, specials, True)))


def _leg_specials(chart, spec: EndpointSpec) -> np.ndarray:
    """The points of the u-chart that grade the leg's panels: the chart's
    singular points, which hold every turning point, without the finite
    endpoint (the leg ends there, and its integrand is integrable up to it)."""
    u_star = _target_of(chart, spec)
    return np.array([s for s in chart.singular_points()
                     if u_star is None or not chart.same_point(s, u_star)])


def _leg_quadrature(chart, u_pts: list, w_pts: list, specials: np.ndarray):
    """Gauss-Legendre data (x, dt/dx, weights in x, in_w) for the leg, with
    x = u along the u-chart waypoints and then x = w = 1/u along the
    w-chart ones (in_w True).  Node order runs from the staging point to
    the endpoint, 16 nodes to a panel.

    The panels are graded by the distance to the nearest of ``specials``
    (in the w-chart, to their images 1/s).  A segment may not pass through
    a special point (see _chart_specials)."""
    groups = []
    for pts, in_w in ((u_pts, False), (w_pts, True)):
        if len(pts) < 2:
            continue
        pole_pts, tiny = _chart_specials(chart, specials, in_w)
        x, wts = (np.concatenate(arrays) for arrays in zip(*(
            _gl_rule(_graded_edges(a, b, pole_pts, tiny))
            for a, b in zip(pts, pts[1:]))))
        jac = -chart.dt_du(1 / x) / (x * x) if in_w else chart.dt_du(x)
        groups.append((x, jac, wts, np.full(len(x), in_w)))
    return tuple(np.concatenate(arrays) for arrays in zip(*groups))


def _table_reads(chart, params, n_max: int, xs: np.ndarray, k: int) -> tuple:
    """(B_2n, read) at the nodes x = u, and x = w = 1/u from node k on, read
    off the family's table: every node in complex128, then the nodes where
    that read is ill-conditioned again in clongdouble.  A read in a type of
    unit roundoff eps is taken where its condition is at most
    _RATIO_CONDITION float64 eps / eps, so that it keeps within about
    _RATIO_CONDITION float64 ulps of max(1, |B_2n|).  ``read`` holds per
    node the read taken: 0 for complex128, 1 for clongdouble, 2 for neither
    (B_2n is left 0 there for the node solve)."""
    b = np.zeros((n_max, len(xs)), complex)
    read = np.full(len(xs), 2)
    for i, dtype in enumerate((np.complex128, np.clongdouble)):
        left = np.flatnonzero(read == 2)
        if not len(left):
            break
        ratios = odd_slot_ratios(params, n_max, chart, dtype)
        values, cond = (np.concatenate(parts, axis=-1) for parts in zip(*(
            ratios.evaluate(xs[part], inverted)
            for inverted, part in ((False, left[left < k]), (True, left[left >= k])) if len(part))))
        taken = cond <= _RATIO_CONDITION * np.finfo(float).eps / np.finfo(dtype).eps
        b[:, left[taken]], read[left[taken]] = values[:, taken], i
    return b, read


def _node_ratios(chart, params, us: np.ndarray, n_max: int) -> np.ndarray:
    """B_2n at u-chart points as the ratios of R's slots eta^(1-2n) and
    eta^1, solved at each point's t at the lowest jet order that certifies
    the slot values (see ``series.lowest_jet_order``)."""
    ts, N = chart.t_of_u(us), 2 * n_max
    model = model_for(params)
    R = riccati_solution(zero_param_solution(ts, BranchPoint(ts, chart.lambda0_of_u(us)), N=N,
                                             K=lowest_jet_order(N, model.shifted), model=model)).R
    return np.array([R.slot_value(1 - 2 * n) for n in range(1, n_max + 1)]) / R.slot_value(1)


def _anchor_label(spec: EndpointSpec, chart, t_end, lam_end, r_end) -> int:
    """Which +/- convention the continued branch at the endpoint matches."""
    row = spec.row
    if row.lam_r_limit is not None:
        a, ref = lam_end * r_end, row.lam_r_limit
    elif row.capture is not None:
        a, ref = t_end * r_end, chart.pole_residues[row.capture]
    else:
        return +1          # both conventions give the same (vanishing) W
    return -1 if _nearer_negated(a, ref) else +1


def _select_turning_point(chart, spec: EndpointSpec) -> complex:
    """The turning point adjacent to the endpoint: nearest in the u-chart
    (for u = infinity endpoints the one whose escape direction is cleanest,
    which for the symmetric triple is the same as picking any; use the one
    of maximal real part for determinism)."""
    u_star = _target_of(chart, spec)
    tps = list(chart.turning_points_u)
    if u_star is not None:
        return min(tps, key=lambda v: abs(v - u_star))
    return max(tps, key=lambda v: (v.real, v.imag))


def _staging_angle(chart, spec: EndpointSpec, u_tp: complex) -> float:
    """theta_P, the direction from u_tp to the staging point P where the
    oracle's circle meets its leg: toward the endpoint u*, 0 at u = oo."""
    u_star = _target_of(chart, spec)
    return 0.0 if u_star is None else cmath.phase(u_star - u_tp)


def voros_numeric_oracle(spec: EndpointSpec, params, n_max: int = 2) -> OracleResult:
    """Contour-integral evaluation of W_1..W_{n_max} at an endpoint,
    independent of the closed forms: rho_n = B_2n sqrt(q) du, B_2n the odd
    Riccati slots over sqrt(Delta) read off the family's table, is integrated
    along a dumbbell around the adjacent turning point with FFT mode
    extraction on the circle.  B_2n is read at the circle's nodes and the
    leg's u-chart nodes as it stands, at its w-chart nodes from the reversed
    numerators: off the table in float64; where that read is
    ill-conditioned, off the table again in 80 bits (clongdouble), taken
    where its condition is within _RATIO_CONDITION scaled by the ratio of
    the two types' unit roundoffs; and from the series solve at the nodes
    beyond that too.  Raises PathError when a consistency check fails.

    The leg's panels each span a quarter of the distance from their start
    to the nearest singular point or turning point (the finite endpoint
    aside).  The leg is refused when its error estimate, summed over the
    panels from each panel's Legendre tail, exceeds both 1e-6 of the leg
    and 1e-9 of max(1, |mode_sum|).

    The circle is refused when the square root does not flip after one
    turn (no branch point inside) or its high-frequency modes exceed 1e-10
    of the largest mode (the samples alias the Puiseux modes).

    ``diagnostics[n]`` holds the circle's high-frequency mode ratio
    (``tail_ratio``) and ``rounding_scale``, the leg's error estimate
    relative to the leg (``leg_rel_err``), the two parts of W_n before the
    sign label (``mode_sum`` and ``leg``), and ``cancellation`` =
    (|mode_sum| + |leg|) / |W_n| >= 1, the factor by which rounding in
    either part is amplified in W_n, ``nodes`` (circle and leg), ``panels``
    (the leg's), ``wide_nodes``, the nodes that took B_2n from the 80-bit
    read of the table, and ``node_solves``, the nodes that took it from the
    series solve; the other nodes took the float64 read.  ``even_ratio`` is
    0.0 on every returned result: the one-turn modes hold no integer powers,
    and the key stays only because the benchmark's tracer reads it."""
    if n_max < 1:
        raise ValueError(f"n_max={n_max}: the oracle evaluates W_1..W_n_max, n_max >= 1")
    chart = u_chart(params)
    if chart.equation != spec.equation:
        raise ValueError(f"endpoint {spec} does not belong to parameters {params!r}")
    u_tp = _select_turning_point(chart, spec)
    rho = _RADIUS_FACTOR * chart.special_gap(u_tp)

    theta_P = _staging_angle(chart, spec, u_tp)
    M = _CIRCLE_SAMPLES
    turn = u_tp + rho * np.exp(1j * (theta_P + 2 * math.pi * np.arange(M) / M))
    P = turn[0]

    u_pts, w_pts = _leg_waypoints(chart, spec, u_tp, P)
    leg_x, leg_jac, leg_wts, in_w = _leg_quadrature(chart, u_pts, w_pts, _leg_specials(chart, spec))
    # A panel's weights are its half-length times those of [-1, 1], which sum
    # to 2: their moduli sum to the panel's length.
    panel_len = np.abs(leg_wts).reshape(-1, 16).sum(axis=1)

    # B_2n on every node: the circle and the u-leg in u, then the w-leg,
    # whose nodes come last, in w; R_{-1} = sqrt(Delta), Delta = q / t'(u)^2,
    # on the principal branch per node.
    xs = np.concatenate([turn, leg_x])
    k = M + np.count_nonzero(~in_w)
    us = np.concatenate([xs[:k], 1 / xs[k:]])
    b, read = _table_reads(chart, params, n_max, xs, k)
    solved = read == 2
    if np.any(solved):
        b[:, solved] = _node_ratios(chart, params, us[solved], n_max)
    sqrtD = np.sqrt(chart.q(us) / chart.dt_du(us) ** 2)

    sig_circle = _chain_signs(sqrtD[:M])
    if not _nearer_negated(sqrtD[0], sig_circle[-1] * sqrtD[M - 1]):
        raise PathError("the square root does not flip after one turn: "
                        "no branch point inside the circle")
    sig_leg = _chain_signs(np.concatenate([[sqrtD[0]], sqrtD[M:]]), start=sqrtD[0])[1:]

    # rho_n = B_2n sqrt(q) du, one row per n: on the circle, and on the leg
    # in x = u or w.
    f_circle = b[:, :M] * (sig_circle * sqrtD[:M] * chart.dt_du(turn))
    f_legs = b[:, M:] * (sig_leg * sqrtD[M:] * leg_jac)
    s, modes = _half_odd_modes(f_circle)
    tail = np.abs(s) > 0.4 * M

    values, diags = {}, {}
    for n in range(1, n_max + 1):
        chat, f_leg = modes[n - 1], f_legs[n - 1]
        amp = np.max(np.abs(chat))
        tail_ratio = float(np.max(np.abs(chat[tail])) / amp) if amp > 0 else 0.0
        if tail_ratio > 1e-10:
            raise PathError(f"high-frequency modes present (ratio {tail_ratio:.2e}): "
                            "circle samples alias the Puiseux modes")
        mode_sum = np.sum(chat * (P - u_tp) / (s + 1))

        leg = np.sum(leg_wts * f_leg)
        a_tail = f_leg.reshape(-1, 16) @ _TAIL_ROWS.T     # a_14, a_15 of each panel
        est = float(panel_len @ np.abs(a_tail).sum(axis=1))
        leg_err = est / max(abs(leg), 1e-30)
        if leg_err > 1e-6 and est > 1e-9 * max(1.0, abs(mode_sum)):
            raise PathError(f"leg quadrature not converged (rel {leg_err:.2e})")

        # The assembly's orientation is the labelled one for every endpoint of
        # both families, as the degenerate-family closed form pins (see tests).
        w_n = mode_sum + leg
        values[n] = w_n
        diags[n] = {"even_ratio": 0.0, "tail_ratio": tail_ratio,
                    "rounding_scale": float(rho * np.sqrt(np.mean(np.abs(f_circle[n - 1]) ** 2) / M)),
                    "leg_rel_err": leg_err, "mode_sum": mode_sum, "leg": leg,
                    "cancellation": float((abs(mode_sum) + abs(leg)) / abs(w_n))
                    if w_n else math.inf,
                    "nodes": len(us), "panels": len(panel_len),
                    "wide_nodes": int(np.count_nonzero(read == 1)),
                    "node_solves": int(np.count_nonzero(solved))}

    u_end = us[-1]
    label = _anchor_label(spec, chart, chart.t_of_u(u_end), chart.lambda0_of_u(u_end),
                          sig_leg[-1] * sqrtD[-1])
    if label != spec.sign:
        values = {n: -v for n, v in values.items()}
    return OracleResult(spec, values, label, u_tp, diags)
