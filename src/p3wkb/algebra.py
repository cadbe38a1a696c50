"""Algebraic layer of the D6 and D7 equations: parameters with genericity
checks, branches of the leading algebraic functions, turning points, and the
u-plane charts of both families with their quadratic differentials.

The leading-order equation is the quartic

    lambda^4 - c_inf lambda^3 + c_0 t lambda - t^2 = 0,

equivalently F(lambda, t) = lambda^3/t^2 - c_inf lambda^2/t^2 + c_0/t
- 1/lambda = 0; the degenerate (D7) family has the cubic
2 lambda^3 - c t lambda + t^2 = 0 (``D7Chart``, ``d7_lambda0_branches``).
Each u-plane chart pulls the whole many-sheeted picture back to a single
plane where the quadratic differential q(u) du^2 has polynomial zeros; all
Stokes tracing happens there.

Chart functions are duck-typed over scalars, numpy arrays and jets: passing
a ``numerics.Jet`` in u through ``t_of_u`` / ``q`` yields u-derivatives,
which is how dt/du and q's leading coefficient at each turning point (the
chart's ``turning_point_leads``, computed once per chart, which fix the
Stokes rays) are obtained.  An array of u, or a jet at a batch of base
points, evaluates a whole set of nodes in one call.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .numerics import Jet, _chain_signs, _nearer_negated, poly_roots

__all__ = [
    "AlgebraError",
    "DegenerateParametersError",
    "NearDegenerateWarning",
    "Parameters",
    "BranchPoint",
    "TurningPointSet",
    "UChart",
    "D6Chart",
    "D7Chart",
    "quartic_coeffs",
    "lambda0_branches",
    "d7_lambda0_branches",
    "delta",
    "mu0",
    "turning_points",
    "u_chart",
    "residues",
]


class AlgebraError(ValueError):
    pass


class DegenerateParametersError(AlgebraError):
    pass


class NearDegenerateWarning(UserWarning):
    pass


_GENERICITY_HARD = 1e-12
_GENERICITY_WARN = 1e-6


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
        object.__setattr__(self, "c_inf", complex(self.c_inf))
        object.__setattr__(self, "c_0", complex(self.c_0))
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

    def residual(self, p: Parameters) -> float:
        t, lam = self.t, self.lambda0
        return abs(lam ** 4 - p.c_inf * lam ** 3 + p.c_0 * t * lam - t * t)


@dataclass(frozen=True)
class TurningPointSet:
    """The three turning points (with the colliding lambda0 values) and the
    simple-pole marker at t = 0."""

    taus: tuple          # 3 x (t, lambda0)
    tau_sp: complex = 0.0

    def t_values(self) -> list[complex]:
        return [t for t, _ in self.taus]


# ---------------------------------------------------------------------------
# Branches, Delta, mu0
# ---------------------------------------------------------------------------

def quartic_coeffs(t: complex, p: Parameters) -> list[complex]:
    """Ascending coefficients of the leading quartic in lambda."""
    return [-t * t, p.c_0 * t, 0.0, -p.c_inf, 1.0]


def lambda0_branches(t: complex, p: Parameters) -> list[BranchPoint]:
    """The four branches of lambda0 over a regular point t != 0."""
    t = complex(t)
    if t == 0:
        raise AlgebraError("t = 0 is the singular point; branches are classified separately")
    roots = poly_roots(quartic_coeffs(t, p))
    out = []
    for r in roots:
        b = BranchPoint(t, r)
        # Gate against the quartic's own term sizes at this root, so large
        # parameters or large |t| are judged at their natural float scale.
        scale = max(1.0, abs(t) ** 2, abs(r) ** 4, abs(p.c_inf * r ** 3),
                    abs(p.c_0 * t * r))
        if b.residual(p) > 1e-10 * scale:
            raise AlgebraError(f"quartic root residual too large at t={t}: {b.residual(p)}")
        out.append(b)
    return out


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


# ---------------------------------------------------------------------------
# Turning points
# ---------------------------------------------------------------------------

def _cubic_discriminant(coeffs) -> complex:
    a0, a1, a2, a3 = coeffs
    return (18 * a3 * a2 * a1 * a0 - 4 * a2 ** 3 * a0 + a2 ** 2 * a1 ** 2
            - 4 * a3 * a1 ** 3 - 27 * a3 ** 2 * a0 ** 2)


def turning_points(p: Parameters) -> TurningPointSet:
    """The three simple roots of the reduced discriminant cubic

        -256 t^3 + 192 c_inf c_0 t^2 + (6 c_inf^2 c_0^2 - 27 c_inf^4
        - 27 c_0^4) t + 4 c_inf^3 c_0^3 = 0,

    each paired with the colliding lambda0 (the quartic's double root)."""
    ci, c0 = p.c_inf, p.c_0
    coeffs = [
        4 * ci ** 3 * c0 ** 3,
        6 * ci ** 2 * c0 ** 2 - 27 * ci ** 4 - 27 * c0 ** 4,
        192 * ci * c0,
        -256.0,
    ]
    # Internal consistency: the cubic's own discriminant has the closed form
    # -20155392 (c_inf^2 - c_0^2)^4 (c_inf^2 + c_0^2)^2, nonzero under genericity.
    disc = _cubic_discriminant(coeffs)
    expected = -20155392 * (ci ** 2 - c0 ** 2) ** 4 * (ci ** 2 + c0 ** 2) ** 2
    if abs(disc - expected) > 1e-6 * max(abs(disc), abs(expected)):
        raise AlgebraError("discriminant-cubic consistency check failed")
    taus = []
    for tau in poly_roots(coeffs):
        roots = poly_roots(quartic_coeffs(tau, p))
        best = None
        for i in range(4):
            for j in range(i + 1, 4):
                d = abs(roots[i] - roots[j])
                if best is None or d < best[0]:
                    best = (d, (roots[i] + roots[j]) / 2)
        taus.append((tau, best[1]))
    return TurningPointSet(tuple(taus))


# ---------------------------------------------------------------------------
# u-plane charts
# ---------------------------------------------------------------------------

class UChart:
    """Shared structure of the u-plane uniformization: positions of the
    distinguished points and the quadratic differential q(u) with q du^2
    equal to Delta dt^2.  Concrete charts implement the rational maps and
    carry everything in which the two equations differ, so the tracer and
    the oracle run one code path for both."""

    equation: str                 # "d6" | "d7"
    escape_label: str             # terminus of a curve running off to u = infinity

    # Concrete classes set these in __init__:
    turning_points_u: tuple
    simple_pole_u: complex
    double_poles_u: dict          # label -> u position
    finite_infinities_u: dict     # label -> u position of a t = infinity branch
    pole_residues: dict           # terminus label -> residue of sqrt(q) du there (up
                                  # to sign); the escape label stands for u = infinity
    escape_scale: float           # escape radius per unit of the tracer's escape factor
    arc_scale: float              # arc budget per unit of the tracer's budget factor

    def t_of_u(self, u):
        raise NotImplementedError

    def lambda0_of_u(self, u):
        raise NotImplementedError

    def q(self, u):
        raise NotImplementedError

    # -- derived ------------------------------------------------------------

    def dt_du(self, u):
        """dt/du at a point u, or elementwise on an array of points."""
        if not isinstance(u, np.ndarray):
            u = complex(u)
        return self.t_of_u(Jet.variable(u, 1)).coeffs[1]

    def q_leading(self, u_center: complex, order: int, k: int) -> complex:
        """Coefficient of (u - u_center)^k of q around u_center via a jet."""
        jet = self.q(Jet.variable(u_center, order))
        return jet.coeffs[k]

    def singular_points(self) -> list[complex]:
        return (list(self.turning_points_u) + [self.simple_pole_u]
                + list(self.double_poles_u.values())
                + list(self.finite_infinities_u.values()))

    @cached_property
    def turning_point_leads(self) -> tuple:
        """Per turning point u_tp, the coefficient lead of q ~ lead (u - u_tp)^3,
        which fixes the directions of its five Stokes rays.  Computed once per
        chart, however many rays are traced from it."""
        return tuple(self.q_leading(u, 4, 3) for u in self.turning_points_u)

    @cached_property
    def scale(self) -> float:
        """Length scale of the chart: the largest |u| of a singular point, at least 1."""
        return max([1.0] + [abs(s) for s in self.singular_points()])

    def capture_points(self) -> dict:
        """label -> u of the finite points where a Stokes curve ends.  The
        double poles come last, so they win where capture discs overlap."""
        return {**self.finite_infinities_u, **self.double_poles_u}


class D6Chart(UChart):
    """u-plane chart of the D6 equation.

    u = (1 - mu0)/mu0, so mu0 = 1/(1+u), and

        lambda0(u) = (u+1)(c_p u + c_m)/(2u)
        t(u)       = (u+1)^2 (c_p^2 u^2 - c_m^2)/(4 u^2)
        q(u)       = 4 (c_p^2 u^3 + c_m^2)^3 / ((u+1) u^4 (c_p^2 u^2 - c_m^2)^2)

    Distinguished points: three order-3 zeros of q (turning points), the
    simple pole u = -1 (the simple-pole branch over t = 0), double poles
    u = +/- c_m/c_p (the 0_{c_inf} / 0_{c_0} branches over t = 0), an
    order-4 pole at u = 0 (t -> infinity on the inf3/inf4 branches) and at
    u = infinity (inf1/inf2 branches).
    """

    equation = "d6"
    escape_label = "inf12"

    def __init__(self, p: Parameters):
        self.p = p
        cp, cm = p.c_p, p.c_m
        self.turning_points_u = tuple(poly_roots([cm ** 2, 0.0, 0.0, cp ** 2]))
        self.simple_pole_u = -1.0 + 0j
        self.double_poles_u = {
            "zero_cinf": cm / cp,
            "zero_c0": -cm / cp,
        }
        self.finite_infinities_u = {"inf34": 0j}
        self.pole_residues = {"inf12": p.c_p, "inf34": p.c_m,
                              "zero_cinf": p.c_inf, "zero_c0": p.c_0}
        self.escape_scale = max(1.0, abs(cm / cp))
        # At least scale/5, so the arc budget outlasts the far-out radius.
        self.arc_scale = max(1.0, abs(cp), self.scale / 5)
        self._cp2, self._cm2 = cp ** 2, cm ** 2      # q's coefficients

    def t_of_u(self, u):
        cp, cm = self.p.c_p, self.p.c_m
        v = u + 1
        return v * v * (cp * cp * u * u - cm * cm) / (4 * u * u)

    def lambda0_of_u(self, u):
        cp, cm = self.p.c_p, self.p.c_m
        return (u + 1) * (cp * u + cm) / (2 * u)

    def q(self, u):
        cp2, cm2 = self._cp2, self._cm2
        num = cp2 * u ** 3 + cm2
        den = (u + 1) * u ** 4 * (cp2 * u * u - cm2) ** 2
        return 4 * num ** 3 / den

    def parameter_dict(self) -> dict:
        p = self.p
        return {"c_inf": [p.c_inf.real, p.c_inf.imag], "c_0": [p.c_0.real, p.c_0.imag]}


class D7Chart(UChart):
    """u-plane chart of the degenerate (D7) equation.

    The leading equation is the cubic 2 lambda0^3 - c t lambda0 + t^2 = 0;
    with mu0 = (c lambda0 - t)/(2 lambda0^2) and u = 1/mu0:

        lambda0(u) = u (c - u)/2
        t(u)       = u^2 (c - u)/2
        q(u)       = (3u - 2c)^3 / (u (u - c)^2)

    One turning point u = 2c/3, simple pole u = 0, double pole u = c; all
    three branches over t = infinity meet the single order-structure at
    u = infinity, where q -> 27 and sqrt(q) du has no residue.
    """

    equation = "d7"
    escape_label = "escaped"

    def __init__(self, c: complex):
        c = complex(c)
        if abs(c) <= 1e-12:
            raise DegenerateParametersError("D7 requires c != 0")
        self.c = c
        self.turning_points_u = (2 * c / 3,)
        self.simple_pole_u = 0j
        self.double_poles_u = {"zero_c": c}
        self.finite_infinities_u = {}
        self.pole_residues = {"escaped": 0j, "zero_c": c}
        self.escape_scale = 1.0
        self.arc_scale = max(1.0, abs(c))

    def t_of_u(self, u):
        return u * u * (self.c - u) / 2

    def lambda0_of_u(self, u):
        return u * (self.c - u) / 2

    def q(self, u):
        c = self.c
        return (3 * u - 2 * c) ** 3 / (u * (u - c) ** 2)

    def parameter_dict(self) -> dict:
        return {"c": [self.c.real, self.c.imag]}


def u_chart(params) -> UChart:
    """The u-plane chart of the equation ``params`` belongs to: D6 for
    :class:`Parameters`, D7 for the single complex parameter c."""
    if isinstance(params, Parameters):
        return D6Chart(params)
    return D7Chart(params)


# ---------------------------------------------------------------------------
# Residues of sqrt(q) du, with numeric contour confirmation
# ---------------------------------------------------------------------------

def _contour_residue(f, center: complex, radius: float, samples: int = 1024) -> complex:
    """(1/2 pi i) * contour integral of f around |u - center| = radius,
    with sign-continuous square-root values supplied by f (f returns the
    principal value; continuity is enforced here)."""
    theta = 2 * np.pi * np.arange(samples) / samples
    z = center + radius * np.exp(1j * theta)
    vals = np.array([f(zz) for zz in z])
    vals = vals * _chain_signs(vals)
    if _nearer_negated(vals[-1], vals[0]):
        raise AlgebraError("residue contour did not close (odd branching inside)")
    return complex(radius / samples * np.sum(vals * np.exp(1j * theta)))


def residues(p, tol: float = 1e-8) -> dict:
    """Residues of the 1-form sqrt(q) du at its poles (up to overall sign),
    keyed like the chart's ``pole_residues``.  For D6 (``Parameters``):

        u = infinity        -> +/- c_p        ("inf12")
        u = 0               -> +/- c_m        ("inf34")
        u = +c_m/c_p        -> +/- c_inf      ("zero_cinf")
        u = -c_m/c_p        -> +/- c_0        ("zero_c0")

    and for D7 (a complex c): 0 at u = infinity ("escaped"), +/- c at u = c
    ("zero_c").  Each closed form is confirmed by numerical contour
    integration; the contour radius shrinks on failure before giving up."""
    chart = u_chart(p)
    specials = chart.singular_points()
    for label, expect in chart.pole_residues.items():
        if label == chart.escape_label:      # u = infinity, integrated in w = 1/u
            center, base = 0j, 0.2 / max(abs(s) for s in specials)
            f = lambda w: np.sqrt(complex(chart.q(1 / w))) / w ** 2
        else:
            center = chart.capture_points()[label]
            base = 0.3 * min(abs(s - center) for s in specials if abs(s - center) > 1e-12)
            f = lambda u: np.sqrt(complex(chart.q(u)))
        for shrink in (1.0, 0.5, 0.25):
            try:
                val = _contour_residue(f, center, base * shrink)
            except AlgebraError as e:
                last_err = e
                continue
            if min(abs(val - expect), abs(val + expect)) < tol * max(1.0, abs(expect)):
                break
            last_err = AlgebraError(
                f"residue at {label}: contour {val} vs closed form +/-{expect}")
        else:
            raise last_err
    return dict(chart.pole_residues)


def d7_lambda0_branches(t: complex, c: complex) -> list[BranchPoint]:
    """The three branches of the degenerate family's leading cubic
    2 lambda0^3 - c t lambda0 + t^2 = 0 over t != 0."""
    t = complex(t)
    if t == 0:
        raise AlgebraError("t = 0 is the singular point; branches are classified separately")
    out = []
    for r in poly_roots([t * t, -c * t, 0.0, 2.0]):
        res = abs(2 * r ** 3 - c * t * r + t * t)
        if res > 1e-10 * max(1.0, abs(t)) ** 2:
            raise AlgebraError(f"cubic root residual too large at t={t}: {res}")
        out.append(BranchPoint(t, r))
    return out
