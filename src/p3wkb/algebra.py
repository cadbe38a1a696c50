"""Algebraic layer of the D6 and D7 equations: parameters with genericity
checks, branches of the leading algebraic functions, the u-plane charts of
both families with their quadratic differentials, and the data read off the
charts: turning points and the residues of sqrt(q) du at its poles.

The leading-order equation is the quartic

    lambda^4 - c_inf lambda^3 + c_0 t lambda - t^2 = 0,

equivalently F(lambda, t) = lambda^3/t^2 - c_inf lambda^2/t^2 + c_0/t
- 1/lambda = 0; the degenerate (D7) family has the cubic
2 lambda^3 - c t lambda + t^2 = 0 (``D7Chart``, ``d7_lambda0_branches``).
Each u-plane chart pulls the whole many-sheeted picture back to a single
plane where the quadratic differential q(u) du^2 has polynomial zeros; all
Stokes tracing happens there.

Each chart class states its maps lambda_0, t, dt/du and q once, as a
constant times integer powers of u and of named polynomials in u formed
from the parameters (``Factored``); dt/du, the turning polynomial, the
u-jets of the eta-series solver and, expanded exactly at the exact
``unit_args`` (``numerics.ExactLaurent``), the family's unit-scale data for
the odd Riccati slots (``series``) are read off it.  Hand-written beside it stay
q, t_of_u, lambda0_of_u and phi, on whose bits the tracer and its
references depend; the leads and residues, which a product over the
divisor misses by up to 7e-14, enough to flip the sign of a vanishing
imaginary part and so the labels of the Stokes rays; and the turning
points, as eigenvalues, which a Newton polish would move.

Chart maps take a scalar u or a numpy array of nodes.  Each chart also
gives its local data in closed form: q's (u - u_tp)^3 lead at each turning
point (``turning_point_leads``, which fix the Stokes rays), q's residue at
the simple pole (``simple_pole_lead``), the residues of sqrt(q) du at its
poles (``pole_residues``), the leading terms of sqrt(q) at the poles of q
of order 2 and 4 (``pole_leads``), and a primitive of sqrt(q) du
(``phi``).  Read off these and the divisor of q (``divisor``), once per
chart: the expansions of sqrt(q) at the turning points and the simple pole
(``origin_expansions``), and the end domain of each pole of order 2 or 4,
which no trajectory entering it leaves (``end_domains``).  Its label maps
are read-only, as their readers cache what they derive.
"""

from __future__ import annotations

import cmath
import math
import warnings
from dataclasses import dataclass
from functools import cached_property, reduce
from types import MappingProxyType
from typing import NamedTuple

import numpy as np

from .numerics import ExactLaurent, _nearer_negated, poly_roots

__all__ = [
    "AlgebraError",
    "DegenerateParametersError",
    "NearDegenerateWarning",
    "Parameters",
    "BranchPoint",
    "Factored",
    "UChart",
    "EndDomain",
    "D6Chart",
    "D7Chart",
    "lambda0_branches",
    "d7_lambda0_branches",
    "u_chart",
]


class AlgebraError(ValueError):
    pass


class DegenerateParametersError(AlgebraError):
    pass


class NearDegenerateWarning(UserWarning):
    pass


_GENERICITY_HARD = 1e-12
_GENERICITY_WARN = 1e-6


def _finite(name: str, value) -> complex:
    """value as a complex number; AlgebraError naming the parameter unless finite."""
    value = complex(value)
    if not cmath.isfinite(value):
        raise AlgebraError(f"parameter {name} = {value} is not finite")
    return value


@dataclass(frozen=True)
class Parameters:
    """The parameter pair (c_inf, c_0) with the derived combinations
    c_p = (c_inf + c_0)/2 and c_m = (c_inf - c_0)/2.

    Genericity demands c_inf, c_0, c_inf^2 - c_0^2, c_inf^2 + c_0^2 all
    nonzero; violation at 1e-12 relative is a hard error, within 1e-6 a
    warning."""

    c_inf: complex
    c_0: complex

    def __post_init__(self):
        object.__setattr__(self, "c_inf", _finite("c_inf", self.c_inf))
        object.__setattr__(self, "c_0", _finite("c_0", self.c_0))
        s = max(abs(self.c_inf), abs(self.c_0))
        if s == 0:
            raise DegenerateParametersError("c_inf = c_0 = 0")
        checks = [
            ("c_inf", self.c_inf, s),
            ("c_0", self.c_0, s),
            ("c_inf^2 - c_0^2", self.c_inf ** 2 - self.c_0 ** 2, s * s),
            ("c_inf^2 + c_0^2", self.c_inf ** 2 + self.c_0 ** 2, s * s),
        ]
        for name, val, scale in checks:
            if abs(val) <= _GENERICITY_HARD * scale:
                raise DegenerateParametersError(f"degenerate parameters: {name} = 0")
            if abs(val) <= _GENERICITY_WARN * scale:
                warnings.warn(f"near-degenerate parameters: |{name}| ~ {abs(val):.2e}",
                              NearDegenerateWarning, stacklevel=3)

    @property
    def c_p(self) -> complex:
        return (self.c_inf + self.c_0) / 2

    @property
    def c_m(self) -> complex:
        return (self.c_inf - self.c_0) / 2

    def swapped(self) -> "Parameters":
        """c_inf <-> c_0 (the quadratic differential is invariant under this)."""
        return Parameters(self.c_0, self.c_inf)


@dataclass(frozen=True)
class BranchPoint:
    """A point (t, lambda0) on one sheet of the leading algebraic function,
    carrying the +/- choice of R_{-1} = +/- sqrt(Delta)."""

    t: complex
    lambda0: complex
    sign: int = +1

    def __post_init__(self):
        if self.sign not in (1, -1):
            raise ValueError(f"sign must be +1 or -1, got {self.sign!r}")


# ---------------------------------------------------------------------------
# Branches
# ---------------------------------------------------------------------------

def lambda0_branches(t: complex, p: Parameters) -> list[BranchPoint]:
    """The four branches of lambda0 over a regular point t != 0, the roots
    of the leading quartic lambda^4 - c_inf lambda^3 + c_0 t lambda - t^2."""
    return _branches(t, lambda t: [-t * t, p.c_0 * t, 0.0, -p.c_inf, 1.0], "quartic")


def _branches(t, coeffs_of, what: str) -> list[BranchPoint]:
    """The branches over t != 0 of the roots of sum_k a_k lambda^k, a_k =
    coeffs_of(t).  A root's residual may be at most 1e-10 of max(1, each
    |a_k root^k|): its own terms set the scale, however large c or |t|."""
    t = complex(t)
    if t == 0:
        raise AlgebraError("t = 0 is the singular point; branches are classified separately")
    coeffs = coeffs_of(t)
    out = []
    for r in poly_roots(coeffs):
        terms = [a * r ** k for k, a in enumerate(coeffs)]
        res = abs(sum(terms))
        if res > 1e-10 * max(1.0, *map(abs, terms)):
            raise AlgebraError(f"{what} root residual too large at t={t}: {res}")
        out.append(BranchPoint(t, r))
    return out


# ---------------------------------------------------------------------------
# u-plane charts
# ---------------------------------------------------------------------------

class Factored:
    """A chart map stated once: const prod_f f(u)^e over the {f: e} of
    ``powers``, f a polynomial factor of the chart class (``UChart.factors``)
    or "u", u itself.  Maps multiply, divide and take integer powers."""

    def __init__(self, const, **powers):
        self.const, self.powers = const, MappingProxyType({f: e for f, e in powers.items() if e})

    def __mul__(self, other: "Factored") -> "Factored":
        powers = {f: self.powers.get(f, 0) + other.powers.get(f, 0)
                  for f in {**self.powers, **other.powers}}
        return Factored(self.const * other.const, **powers)

    def __pow__(self, k: int) -> "Factored":
        return Factored(self.const ** k, **{f: k * e for f, e in self.powers.items()})

    def __truediv__(self, other: "Factored") -> "Factored":
        return self * other ** -1

    def value(self, factors: dict, u):
        """The map at u, each of the chart's ``factors`` by Horner's rule."""
        out = self.const
        for f, e in self.powers.items():
            x = u if f == "u" else reduce(lambda acc, c: acc * u + c, reversed(factors[f]))
            x = x ** abs(e) if abs(e) > 1 else x          # numpy's x ** 1 is no free copy
            out = out * x if e > 0 else out / x
        return out

    def polynomials(self, factors: dict, sign: int) -> list:
        """The factors with powers of this sign, each as often as its power
        and u as (0, 1): coefficient lists from u^0 up."""
        return [(0, 1) if f == "u" else factors[f]
                for f, e in self.powers.items() for _ in range(sign * e)]

    def expand(self, factors: dict) -> tuple:
        """(N, j), the map being u^j N(u), N from u^0 up: for a map whose
        factors other than u have positive powers.  N is exact for factors
        with exact coefficients, such as those of ``unit_args``."""
        polys = [factors[f] for f, e in self.powers.items() if f != "u" for _ in range(e)]
        return reduce(np.convolve, polys, [self.const]), self.powers.get("u", 0)


class UChart:
    """Shared structure of the u-plane uniformization: positions of the
    distinguished points and the quadratic differential q(u) with q du^2
    equal to Delta dt^2.  Concrete charts declare the rational maps, write
    q, t_of_u and lambda0_of_u out by hand, and carry everything in which
    the two equations differ, so the tracer and the oracle run one code
    path for both."""

    equation: str                 # "d6" | "d7"
    escape_label: str             # terminus of a curve running off to u = infinity

    # Declared per class over the polynomials ``factors(*args)``, "T" the turning
    # polynomial, args the parameters (D6: c_inf, c_0; D7: c) or ``unit_args``,
    # the parameters at unit scale as exact constants in X (ExactLaurent):
    lambda0_map: Factored
    t_map: Factored
    dt_du_map: Factored
    q_map: Factored
    unit_args: tuple

    # Concrete classes set these (in __init__ where they vary):
    turning_points_u: tuple
    simple_pole_u: complex
    simple_pole_lead: complex     # q ~ simple_pole_lead / (u - simple_pole_u)
    double_poles_u: MappingProxyType       # label -> u position
    finite_infinities_u: MappingProxyType  # label -> u of a t = infinity branch (u = 0)
    pole_residues: MappingProxyType  # terminus label -> residue of sqrt(q) du there (up
                                     # to sign); the escape label stands for u = infinity
    pole_leads: MappingProxyType  # terminus label -> lead of sqrt(q) ~ lead (u - pole)^(-k)
                                  # at a pole of q of order 2k (up to sign; at u = infinity
                                  # sqrt(q) ~ lead); a double pole's lead is its residue
    arc_scale: float              # arc budget per unit of the tracer's budget factor

    def __init__(self, *args):
        self._factors = self.factors(*args)
        self.turning_polynomial = np.array(self._factors["T"])    # from u^0 up, read-only
        self.turning_polynomial.setflags(write=False)

    def dt_du(self, u):
        return self.dt_du_map.value(self._factors, u)

    def q_leading(self, u_tp: complex) -> complex:
        raise NotImplementedError

    @classmethod
    def lambda0_u_jets(cls, args, jets, lam) -> tuple:
        """The u-jets of dlambda0/du and 1/t'(u), of order K - 1 in v = u - u0,
        at u0 = ``u_of`` (t0, lam), t0 the base points of the DenseJets
        ``jets`` and lam (shape (1, *batch)) roots of the leading equation:
        read off the declared maps at the parameters ``args`` in the base
        points' number type.  dlambda0/du is a Laurent polynomial: Horner
        steps for its powers u^j >= 0, the binomial series of (u0 + v)^j for
        j < 0; 1/t'(u) is one division of the jets of t''s factors."""
        factors = cls.factors(*(np.asarray(a, jets.dtype) for a in args))
        u, K = cls.u_of(factors, jets.t0[None], lam), jets.K
        num, lo = cls.lambda0_map.expand(factors)
        terms = {lo + i - 1: (lo + i) * c for i, c in enumerate(num) if lo + i}
        dlam = _product_jet(1, [[terms.get(j, 0) for j in range(max(terms) + 1)]], u, K)
        for j, c in terms.items():
            if j < 0:
                # (-1)^k u0^(j - k).  np.cumprod rounds a run of two rows with other
                # bits than a longer run; three or more give each row the same bits.
                geo = np.empty((max(K, 3),) + u.shape[1:], u.dtype)
                geo[:1], geo[1:] = (1 / u) ** -j, -1 / u
                binomial = np.reshape([math.comb(k - j - 1, k) for k in range(K)],
                                      (-1,) + (1,) * (u.ndim - 1))
                dlam += c * binomial * geo.cumprod(axis=0, out=geo)[:K]
        dt = cls.dt_du_map
        return dlam, jets.divide(_product_jet(1 / dt.const, dt.polynomials(factors, -1), u, K),
                                 _product_jet(1, dt.polynomials(factors, 1), u, K))

    def phi(self, u: complex, sq: complex, logs: tuple) -> tuple:
        """(Phi(u), its logarithms): Phi a primitive of sqrt(q) du on the
        branch sq of sqrt(q(u)), its logarithms continued from ``logs``."""
        raise NotImplementedError

    def origin_logs(self, u0: complex) -> tuple:
        """``phi``'s logarithms at a turning point or the simple pole u0,
        from which a curve leaving u0 continues them."""
        raise NotImplementedError

    # -- derived ------------------------------------------------------------

    @cached_property
    def divisor(self) -> tuple:
        """(u, order) of each finite zero and pole of q: 3 at a turning
        point, -1 at the simple pole, -2 at a double pole and -4 at a finite
        point over t = infinity, in the order of ``singular_points``.  The
        orders sum to 0, so q tends to a nonzero constant at u = infinity,
        where q du^2 has a pole of order 4."""
        return tuple([(u, 3) for u in self.turning_points_u] + [(self.simple_pole_u, -1)]
                     + [(u, -2) for u in self.double_poles_u.values()]
                     + [(u, -4) for u in self.finite_infinities_u.values()])

    @cached_property
    def _singular_points(self) -> tuple:
        return tuple(u for u, _ in self.divisor)

    def singular_points(self) -> tuple:
        """The turning points, the simple pole, the double poles and the
        finite points over t = infinity: one tuple per chart."""
        return self._singular_points

    @cached_property
    def turning_point_leads(self) -> tuple:
        """Per turning point u_tp, the coefficient lead of q ~ lead (u - u_tp)^3,
        which fixes the directions of its five Stokes rays.  Computed once per
        chart, however many rays are traced from it."""
        return tuple(self.q_leading(u) for u in self.turning_points_u)

    @cached_property
    def scale(self) -> float:
        """Length scale of the chart: the largest |u| of a singular point, at least 1."""
        return max([1.0] + [abs(s) for s in self.singular_points()])

    def same_point(self, a: complex, b: complex) -> bool:
        """Whether a and b are one point of the chart: within 1e-9 of its scale."""
        return abs(a - b) < 1e-9 * self.scale

    @cached_property
    def special_gaps(self) -> MappingProxyType:
        """Read-only map from each singular point to ``special_gap`` there."""
        return MappingProxyType({s: self._gap(s) for s in self.singular_points()})

    def special_gap(self, u: complex) -> float:
        """The distance from u to the nearest singular point other than u."""
        gap = self.special_gaps.get(u)
        return self._gap(u) if gap is None else gap

    def _gap(self, u: complex) -> float:
        tol = 1e-9 * self.scale          # same_point's
        return min(d for d in (abs(s - u) for s in self.singular_points()) if d >= tol)

    def capture_points(self) -> dict:
        """label -> u of the finite points where a Stokes curve ends.  The
        double poles come last, so they win where capture discs overlap."""
        return {**self.finite_infinities_u, **self.double_poles_u}

    @cached_property
    def end_domains(self) -> tuple:
        """One ``EndDomain`` per pole of q of order 2 or 4 (``pole_leads``):
        a region that every trajectory of q du^2 entering it with Re of
        int sqrt(q) du growing stays in, and ends at the pole.

        Near a finite pole p of order 2k, sqrt(q) = lead_s v^-k g with v =
        u - p, lead_s the sign of lead continued along the curve, and g the
        product of (1 + b_i v)^(m_i/2), b_i = 1 / (p - z_i), over the rest of
        the divisor (at u = infinity: sqrt(q) = lead_s g, with b_i = -z_i and
        1/u for v).  So log g = kappa v + sum_i m_i/2 (log(1 + b_i v) - b_i v),
        kappa = sum_i m_i b_i / 2, and for |v| <= s

            |arg g| <= |log g| <= B(s) = |kappa| s + sum_i |m_i|/2 (-log(1 - |b_i| s) - |b_i| s).

        * Order 2 (lead = the residue r): d|v|/ds has the sign of
          Re(lead_s g), so with Re(lead_s) < 0 and B(|v|) below
          arcsin(|Re r| / |r|), |v| falls: the log spiral into the pole.
          For any arg r, on a trajectory Phi = s + iC, log|v| = Re((s +
          iC - h) / lead_s), h = lead_s int_0^v (g - 1) dw / w, so |h| <=
          |r| I(|v|), I(R) = int_0^R (e^B(x) - 1) dx / x.  With Re(lead_s) < 0
          it falls with s, up to 2 I, so a curve entering |v| < R e^(-2 I(R))
          never leaves |v| < R.  The best R has B(R*) = log(3/2), and B is
          convex, so I(R*) <= Ein(log(3/2)) = 0.45057, Ein(x) = int_0^x
          (e^y - 1) dy / y.  ``radius`` is the larger disc, that of arcsin
          or e^(-2 Ein) R* = 0.40611 R*.
        * Order 4: in zeta = u at infinity, or zeta = -1/v, sqrt(q) du =
          lead_s g dzeta, so d Re(lead_s zeta)/ds has the sign of Re g,
          positive where B(1/|zeta|) < pi/2.  The half-plane Re(lead_s zeta)
          > |lead| / s of that s lies there, and a curve in it runs on to
          the pole.  ``radius`` is s (the disc |v| < s about p), or 1/s at
          infinity (the outside of the circle |u| = 1/s).

        Read once per chart from the closed-form leads and the divisor."""
        domains = []
        captures = self.capture_points()
        for label, lead in self.pole_leads.items():
            pole = None if label == self.escape_label else captures[label]
            if pole is None:
                order, others = 4, [(-z, m) for z, m in self.divisor]
            else:
                order = -dict(self.divisor)[pole]
                others = [(1 / (pole - z), m) for z, m in self.divisor
                          if not self.same_point(z, pole)]
            kappa = abs(sum(b * m for b, m in others)) / 2
            terms = [(abs(m) / 2, abs(b)) for b, m in others]
            margin = math.asin(abs(lead.real) / abs(lead)) if order == 2 else math.pi / 2
            radius = _arg_bound_radius(kappa, terms, margin)
            if order == 2:
                radius = max(radius, _WALL_SIDE_SHRINK * _arg_bound_radius(kappa, terms, _LOG_3_2))
            if pole is None:
                radius = 1 / radius
            domains.append(EndDomain(label, pole, order, lead, radius))
        return tuple(domains)

    @cached_property
    def origin_expansions(self) -> MappingProxyType:
        """u0 -> (center, e, lead, g) at each turning point (e = 3/2, lead
        from ``turning_point_leads``) and at the simple pole (e = -1/2,
        ``simple_pole_lead``): sqrt(q) = +-sqrt(lead) v^e sum_n g_n v^n, v =
        u - center, with _EXPANSION_TERMS coefficients in a read-only array,
        g_0 = 1: the product over the rest of the divisor of the binomial
        series of (1 + v / (u0 - z_i))^(m_i / 2), each the cumulative product
        of its term ratios (m_i/2 - k) / ((k + 1) (u0 - z_i)), multiplied out
        by truncated convolutions.  Converges for |v| < ``special_gap(u0)``,
        and to rounding for |v| up to START_FRACTION of it.

        center is where q has its zero or pole, which the rounded u0 can
        miss by ten ulps (a turning point found as an eigenvalue): enough
        to move sqrt(q) by 1e-14 a tenth of the gap away.  It is read off q
        there, at u0 + w, where q / (lead w^2e g(w)^2) = (1 + (u0 -
        center) / w)^2e to first order."""
        k = np.arange(_EXPANSION_TERMS)
        u0 = np.array(self.turning_points_u + (self.simple_pole_u,))
        e = np.array([1.5] * len(self.turning_points_u) + [-0.5])
        lead = np.array(self.turning_point_leads + (self.simple_pole_lead,))
        z, m = np.array(self.divisor).T
        offsets = u0[:, None] - z
        others = ~self.same_point(u0[:, None], z)
        ratios = ((m.real[:, None] / 2 - k[:-1]) / k[1:]
                  * np.divide(1, offsets, out=np.zeros_like(offsets), where=others)[..., None])
        binomials = np.cumprod(np.concatenate([np.ones_like(ratios[..., :1]), ratios], -1), -1)
        g = np.array([reduce(lambda x, y: np.convolve(x, y)[:_EXPANSION_TERMS], series[rest])
                      for series, rest in zip(binomials, others)])
        g.flags.writeable = False
        w = 0.1 * np.array([self.special_gap(u) for u in u0])
        g_w = np.sum(g * w[:, None] ** k, axis=1)
        ratio = np.array([self.q(u) for u in (u0 + w).tolist()]) / (lead * w ** (2 * e) * g_w ** 2)
        center = u0 - w * (ratio ** (0.5 / e) - 1)
        return MappingProxyType(dict(zip(u0.tolist(), zip(center.tolist(), e.tolist(),
                                                           lead.tolist(), g))))


#: Stokes curves start this fraction of the way from their origin to the nearest
#: other special point (``geometry``), where ``UChart.origin_expansions`` sum to
#: rounding: they run to the first n with START_FRACTION^n < 2^-54 (32 at 0.3).
START_FRACTION = 0.3
_EXPANSION_TERMS = math.ceil(math.log(2.0 ** -54) / math.log(START_FRACTION))
#: e^(-2 Ein(log(3/2))), Ein(x) = sum_k x^k / (k k!): see ``UChart.end_domains``.
_LOG_3_2 = math.log(1.5)
_WALL_SIDE_SHRINK = math.exp(-2 * sum(_LOG_3_2 ** k / (k * math.factorial(k))
                                      for k in range(1, 20)))


class EndDomain(NamedTuple):
    """The end domain of one pole of q (see ``UChart.end_domains``)."""

    label: str            # terminus label of the pole
    pole: complex | None  # its u, None for u = infinity
    order: int            # 2 (a double pole) or 4
    lead: complex         # sqrt(q) ~ lead (u - pole)^(-order/2); lead at u = infinity
    radius: float         # of the disc about the pole, or of the circle outside
                          # which the domain lies at u = infinity


def _arg_bound_radius(kappa: float, terms, target: float) -> float:
    """The largest s < 1 / max |b|, to 2 % of itself, with B(s) = kappa s +
    sum w (-log(1 - |b| s) - |b| s) <= target over the (w, |b|) of
    ``terms``; 0 if target <= 0.  B grows with s, and -log(1 - x) - x lies
    between x^2/2 and x^2 for x <= 1/2, so s lies between the roots of
    kappa s + A s^2 = target and kappa s + A s^2 / 2 = target, A = sum w
    |b|^2, which bisection narrows."""
    if target <= 0:
        return 0.0
    cap = 1 / max(b for _, b in terms)
    a = sum(w * b * b for w, b in terms)
    lo = min(cap / 2, 2 * target / (kappa + math.sqrt(kappa * kappa + 4 * a * target)))
    hi = min(cap, 2 * target / (kappa + math.sqrt(kappa * kappa + 2 * a * target)))
    for _ in range(6):                  # hi / lo <= 2
        mid = (lo + hi) / 2
        x = kappa * mid + sum(w * (-math.log1p(-b * mid) - b * mid) for w, b in terms)
        if x <= target:
            lo = mid
        else:
            hi = mid
    return lo


class D6Chart(UChart):
    """u-plane chart of the D6 equation, u = (1 - mu0)/mu0, so mu0 = 1/(1+u).

    Distinguished points: three order-3 zeros of q (turning points), the
    simple pole u = -1 (the simple-pole branch over t = 0), double poles
    u = +/- c_m/c_p (the 0_{c_inf} / 0_{c_0} branches over t = 0), an
    order-4 pole at u = 0 (t -> infinity on the inf3/inf4 branches) and at
    u = infinity (inf1/inf2 branches).
    """

    equation = "d6"
    escape_label = "inf12"
    simple_pole_u = -1.0 + 0j
    finite_infinities_u = MappingProxyType({"inf34": 0j})
    lambda0_map = Factored(0.5, s=1, b=1, u=-1)
    t_map = Factored(0.25, s=2, a=1, b=1, u=-2)
    dt_du_map = Factored(0.5, s=1, T=1, u=-3)
    q_map = Factored(4, T=3, s=-1, a=-2, b=-2, u=-4)
    unit_args = (ExactLaurent([[1, 1]]), ExactLaurent([[1, -1]]))   # c_p = 1, c_m = X

    @staticmethod
    def factors(c_inf, c_0) -> dict:
        cp, cm = (c_inf + c_0) / 2, (c_inf - c_0) / 2
        return {"s": (1, 1), "a": (-cm, cp), "b": (cm, cp), "T": (cm ** 2, 0, 0, cp ** 2)}

    @classmethod
    def u_of(cls, factors, t, lam):
        """c_m lam / (lam^2 - t - c_m lam), then two Newton steps on t(u) = t."""
        cm = factors["b"][0]                     # b = c_p u + c_m
        u = cm * lam / (lam * lam - t - cm * lam)
        for _ in range(2):
            u = u - (cls.t_map.value(factors, u) - t) / cls.dt_du_map.value(factors, u)
        return u

    def __init__(self, p: Parameters):
        super().__init__(p.c_inf, p.c_0)
        self.p = p
        cp, cm = p.c_p, p.c_m
        cp2, cm2 = cp ** 2, cm ** 2
        self.turning_points_u = tuple(poly_roots(self.turning_polynomial))
        self.simple_pole_lead = -4 * p.c_inf * p.c_0
        self.double_poles_u = MappingProxyType({"zero_cinf": cm / cp, "zero_c0": -cm / cp})
        self.pole_residues = MappingProxyType({"inf12": p.c_p, "inf34": p.c_m,
                                               "zero_cinf": p.c_inf, "zero_c0": p.c_0})
        # q -> 4 c_p^2 at u = infinity, q ~ 4 c_m^2 / u^4 at u = 0.
        self.pole_leads = MappingProxyType({"inf12": 2 * cp, "inf34": 2 * cm,
                                            "zero_cinf": p.c_inf, "zero_c0": p.c_0})
        # At least scale/5, so a budget of 200 outlasts the tracer's fallback
        # escape radius of 25 scales.
        self.arc_scale = max(1.0, abs(cp), self.scale / 5)
        self._cp, self._cm, self._cp2, self._cm2 = cp, cm, cp2, cm2

    def numerator_scales(self, n, rows, cols, dtype=np.complex128):
        """c_p^(8n - 2k) c_m^(2k) for column k, in the number type ``dtype``:
        M_n = c_p^(8n) M_n(1, c_m / c_p)."""
        cp, cm = dtype(self._cp), dtype(self._cm)
        return cp ** (8 * n - 2 * np.arange(cols)[None]) * (cm * cm) ** np.arange(cols)[None]

    def t_of_u(self, u):
        cp, cm = self._cp, self._cm
        v = u + 1
        return v * v * (cp * cp * u * u - cm * cm) / (4 * u * u)

    def lambda0_of_u(self, u):
        cp, cm = self._cp, self._cm
        return (u + 1) * (cp * u + cm) / (2 * u)

    def q(self, u):
        # Integer powers as products in the association of complex ** (u ** 3
        # is u * (u * u), u ** 4 is (u * u) * (u * u)): the same bits without
        # the power's call.  Here, in phi and in D7Chart.q.
        cp2, cm2 = self._cp2, self._cm2
        uu = u * u
        num = cp2 * (u * uu) + cm2
        w = cp2 * u * u - cm2
        return 4 * (num * (num * num)) / ((u + 1) * (uu * uu) * (w * w))

    def q_leading(self, u_tp):
        den = (u_tp + 1) * u_tp ** 4 * (self._cp2 * u_tp ** 2 - self._cm2) ** 2
        return 108 * self._cp2 ** 3 * u_tp ** 6 / den

    def phi(self, u, sq, logs):
        """Phi = 2s/u - (c_inf/2) log((c_p u^2 + c_m + s)/(c_p u^2 + c_m - s))
                     - (c_0/2) log((c_p u^2 - c_m + s)/(c_p u^2 - c_m - s)),
        s = (u+1) sq u^2 (c_p^2 u^2 - c_m^2) / (2 (c_p^2 u^3 + c_m^2)), taken as
        the root of s^2 = (u+1)(c_p^2 u^3 + c_m^2) with that sign, for the
        quotient loses digits near the double poles.  Each log's two sides
        multiply to -u (c_p u -+ c_m)^2.  s, and so Phi, is 0 at every origin."""
        cp, cm, cp2, cm2 = self._cp, self._cm, self._cp2, self._cm2
        uu = u * u
        n = cp2 * uu * u + cm2
        s = cmath.sqrt((u + 1) * n)
        if _nearer_negated(2 * n * s, (u + 1) * sq * uu * (cp2 * uu - cm2)):
            s = -s
        a, b = cp * uu + cm, cp * uu - cm
        x_inf, x_0 = cp * u - cm, cp * u + cm
        l_inf = _continued_log_quotient(a + s, a - s, -u * (x_inf * x_inf), logs[0])
        l_0 = _continued_log_quotient(b + s, b - s, -u * (x_0 * x_0), logs[1])
        return 2 * s / u - (self.p.c_inf * l_inf + self.p.c_0 * l_0) / 2, (l_inf, l_0)

    def origin_logs(self, u0):
        return 0j, 0j


class D7Chart(UChart):
    """u-plane chart of the degenerate (D7) equation, whose leading equation
    is the cubic 2 lambda0^3 - c t lambda0 + t^2 = 0: u = 1/mu0, mu0 =
    (c lambda0 - t)/(2 lambda0^2).

    One turning point u = 2c/3, simple pole u = 0, double pole u = c; all
    three branches over t = infinity meet the single order-structure at
    u = infinity, where q -> 27 and sqrt(q) du has no residue.
    """

    equation = "d7"
    escape_label = "escaped"
    simple_pole_u = 0j
    finite_infinities_u = MappingProxyType({})
    lambda0_map = Factored(-0.5, u=1, d=1)
    t_map = Factored(-0.5, u=2, d=1)
    dt_du_map = Factored(-0.5, u=1, T=1)
    q_map = Factored(1, T=3, u=-1, d=-2)
    unit_args = (ExactLaurent([[1]]),)            # c = 1

    @staticmethod
    def factors(c) -> dict:
        return {"d": (-c, 1), "T": (-2 * c, 3)}

    @staticmethod
    def u_of(factors, t, lam):
        return t / lam

    def __init__(self, c: complex):
        c = _finite("c", c)
        if abs(c) <= 1e-12:
            raise DegenerateParametersError("D7 requires c != 0")
        super().__init__(c)
        self.c = c
        self.turning_points_u = (2 * c / 3,)
        self.simple_pole_lead = -8 * c
        self.double_poles_u = MappingProxyType({"zero_c": c})
        self.pole_residues = MappingProxyType({"escaped": 0j, "zero_c": c})
        self.pole_leads = MappingProxyType({"escaped": math.sqrt(27) + 0j, "zero_c": c})
        self.arc_scale = max(1.0, abs(c))

    def numerator_scales(self, n, rows, cols, dtype=np.complex128):
        """c^(4n - 1 - j) for row j, in the number type ``dtype``:
        M_n(u; c) = c^(4n - 1) M_n(u / c; 1)."""
        return (dtype(self.c) ** (4 * n - 1 - np.arange(rows)))[:, None]

    def t_of_u(self, u):
        return u * u * (self.c - u) / 2

    def lambda0_of_u(self, u):
        return u * (self.c - u) / 2

    def q(self, u):
        a, b = 3 * u - 2 * self.c, u - self.c
        return a * (a * a) / (u * (b * b))

    def q_leading(self, u_tp):
        return 27 / (u_tp * (u_tp - self.c) ** 2)

    def phi(self, u, sq, logs):
        """Phi = 3uv + c log((v - 1)/(v + 1)), v = sq (u - c)/(3u - 2c), so
        v^2 - 1 = 2 (u - c)/u.  Phi(0) = 0; Phi(2c/3) = i pi c, as v = 0 there."""
        c = self.c
        v = sq * (u - c) / (3 * u - 2 * c)
        log = _continued_log_quotient(v - 1, v + 1, 2 * (u - c) / u, logs[0])
        return 3 * u * v + c * log, (log,)

    def origin_logs(self, u0):
        return (0j if self.same_point(u0, self.simple_pole_u) else 1j * math.pi,)


def _product_jet(const, polys, u, K: int):
    """The jet of order K - 1 in v of const prod_p p(u + v), the p of
    ``polys`` coefficient lists from u^0 up, at the points u (shape
    (1, *batch)).  A linear factor multiplies by its value at u plus its
    slope times v, so the jet keeps the digits of a factor near its root;
    any other by Horner's rule."""
    out = np.zeros((K,) + u.shape[1:], u.dtype)
    out[0] = const
    for p in polys:
        if len(p) == 2:
            out = _times_linear(out, p[0] + p[1] * u, p[1])
            continue
        acc = p[-1] * out
        for c in p[-2::-1]:
            acc = _times_linear(acc, u) + c * out
        out = acc
    return out


def _times_linear(a, b, slope=1):
    """The jet a times (b + slope v), truncated to the order of a."""
    out = a * b
    out[1:] += slope * a[:-1]
    return out


def _continued_log_quotient(x: complex, y: complex, xy: complex, prev: complex) -> complex:
    """log(x/y) plus the 2 pi i k that brings it nearest ``prev``.  The
    smaller of x, y may have lost its digits to cancellation, so the
    quotient is formed from the larger one and xy, given in closed form."""
    log = cmath.log(x * x / xy if abs(x) >= abs(y) else xy / (y * y))
    return log + 1j * math.tau * ((prev.imag - log.imag + math.pi) // math.tau)


def u_chart(params) -> UChart:
    """The u-plane chart of the equation ``params`` belongs to: D6 for
    :class:`Parameters`, D7 for the single complex parameter c."""
    if isinstance(params, Parameters):
        return D6Chart(params)
    return D7Chart(params)


def d7_lambda0_branches(t: complex, c: complex) -> list[BranchPoint]:
    """The three branches of the degenerate family's leading cubic
    2 lambda0^3 - c t lambda0 + t^2 = 0 over t != 0."""
    return _branches(t, lambda t: [t * t, -c * t, 0.0, 2.0], "cubic")
