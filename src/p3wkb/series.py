"""Formal power series in the large parameter: eta-expansions whose
coefficients are jets in t.

An :class:`EtaSeries` stores coefficients of eta^(offset), eta^(offset-1),
... as jets at a common base point.  On top of that sit:

* the zero-parameter formal solution lambda^(0) = lambda_0 + eta^-2 lambda_2
  + ... of the second-order equation, built by a Newton jet solve for
  lambda_0 followed by slot-by-slot elimination of the residual,
* the Riccati series R = eta R_{-1} + R_0 + eta^-1 R_1 + ... attached to
  the linearization along lambda^(0),
* the conjugate-momentum series, Hamiltonians, and the parameter-shift
  (Backlund) transformations,
* the analogous objects for the degenerate family (one parameter c).

Parameter shifts by multiples of eta^-1 are first-class: models carry
integer shift amounts, so a "solution at shifted parameters" is an ordinary
eta-series and can be compared termwise against a transformed solution.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .algebra import (
    BranchPoint,
    Parameters,
    d7_lambda0_branches,
    lambda0_branches,
)
from .numerics import Jet

__all__ = [
    "ConditioningError",
    "OrderBudgetError",
    "EtaSeries",
    "D6Model",
    "D7Model",
    "ZeroParamSolution",
    "RiccatiSolution",
    "zero_param_solution",
    "riccati_solution",
    "instanton1_prefactor",
    "x_factor",
    "hamiltonian",
    "hamilton_residual",
    "backlund_apply",
    "backlund_model",
    "main_equation_residual",
    "riccati_residual",
    "model_for",
]


class ConditioningError(ArithmeticError):
    """The expansion point is too close to a turning point for the requested
    series to be trustworthy."""


class OrderBudgetError(ArithmeticError):
    """A derivative or slot was requested beyond what the jet order K supports."""


_EXACT_WIDTH_CAP = 24


@dataclass(frozen=True)
class EtaSeries:
    """sum_k terms[k] * eta^(offset - k), with Jet coefficients at a common
    base point.

    ``exact=True`` marks a finite eta-polynomial (no truncation tail); an
    inexact series is known modulo O(eta^(offset - len(terms)))."""

    offset: int
    terms: tuple
    exact: bool = False

    # -- basic access -------------------------------------------------------

    @property
    def n_slots(self) -> int:
        return len(self.terms)

    @property
    def lowest_power(self) -> int:
        return self.offset - self.n_slots + 1

    def slot(self, power: int) -> Jet:
        idx = self.offset - power
        if 0 <= idx < self.n_slots:
            return self.terms[idx]
        if self.exact or idx < 0:
            ref = self.terms[0]
            return Jet.constant(0j, ref.base_point, ref.order)
        raise OrderBudgetError(f"eta^{power} slot not available (series known "
                               f"down to eta^{self.lowest_power})")

    def slot_value(self, power: int) -> complex:
        return self.slot(power).value()

    def powers(self):
        return range(self.offset, self.lowest_power - 1, -1)

    @staticmethod
    def from_slots(pairs: dict, base_point: complex, jet_order: int,
                   exact: bool = False) -> "EtaSeries":
        """Build from a {power: Jet | scalar} mapping; gaps become zeros."""
        hi = max(pairs)
        lo = min(pairs)
        terms = []
        for p in range(hi, lo - 1, -1):
            v = pairs.get(p, 0j)
            if not isinstance(v, Jet):
                v = Jet.constant(complex(v), base_point, jet_order)
            terms.append(v)
        return EtaSeries(hi, tuple(terms), exact=exact)

    @staticmethod
    def lift(value, template: "EtaSeries") -> "EtaSeries":
        """Coerce a Jet or scalar to an exact one-slot series at eta^0."""
        if isinstance(value, EtaSeries):
            return value
        ref = template.terms[0]
        if not isinstance(value, Jet):
            value = Jet.constant(complex(value), ref.base_point, ref.order)
        return EtaSeries(0, (value,), exact=True)

    def _pmin(self):
        return None if self.exact else self.lowest_power

    def _zero_jet(self, order=None) -> Jet:
        ref = self.terms[0]
        return Jet.constant(0j, ref.base_point, ref.order if order is None else order)

    # -- ring operations ----------------------------------------------------

    def __add__(self, other):
        other = EtaSeries.lift(other, self)
        off = max(self.offset, other.offset)
        pmins = [p for p in (self._pmin(), other._pmin()) if p is not None]
        if pmins:
            lo = max(pmins)
            exact = False
        else:
            lo = min(self.lowest_power, other.lowest_power)
            exact = True
        terms = tuple(self.slot(p) + other.slot(p) for p in range(off, lo - 1, -1))
        return EtaSeries(off, terms, exact=exact)

    __radd__ = __add__

    def __neg__(self):
        return EtaSeries(self.offset, tuple(-t for t in self.terms), exact=self.exact)

    def __sub__(self, other):
        return self + (-EtaSeries.lift(other, self))

    def __rsub__(self, other):
        return EtaSeries.lift(other, self) + (-self)

    def __mul__(self, other):
        if not isinstance(other, EtaSeries):
            return EtaSeries(self.offset, tuple(t * other for t in self.terms),
                             exact=self.exact)
        off = self.offset + other.offset
        if self.exact and other.exact:
            n = min(self.n_slots + other.n_slots - 1, _EXACT_WIDTH_CAP)
            exact = self.n_slots + other.n_slots - 1 <= _EXACT_WIDTH_CAP
        elif self.exact:
            n = other.n_slots
            exact = False
        elif other.exact:
            n = self.n_slots
            exact = False
        else:
            n = min(self.n_slots, other.n_slots)
            exact = False
        terms = []
        for k in range(n):
            acc = None
            for i in range(k + 1):
                if i < self.n_slots and (k - i) < other.n_slots:
                    prod = self.terms[i] * other.terms[k - i]
                    acc = prod if acc is None else acc + prod
            terms.append(acc if acc is not None else self._zero_jet())
        return EtaSeries(off, tuple(terms), exact=exact)

    __rmul__ = __mul__

    def inverse(self, n_slots: int | None = None) -> "EtaSeries":
        n = n_slots or self.n_slots
        if self.exact and n_slots is None:
            raise ValueError("inverse of an exact series needs an explicit width")
        lead = self.terms[0]
        if float(np.min(np.abs(lead.value()))) == 0:
            raise ZeroDivisionError("eta-series with vanishing leading jet")
        inv0 = Jet.constant(1.0 + 0j, lead.base_point, lead.order) / lead
        out = [inv0]
        for k in range(1, n):
            acc = None
            for j in range(1, k + 1):
                sj = self.terms[j] if j < self.n_slots else None
                if sj is None:
                    if self.exact:
                        continue
                    break
                prod = sj * out[k - j]
                acc = prod if acc is None else acc + prod
            out.append(-(inv0 * acc) if acc is not None else self._zero_jet())
        return EtaSeries(-self.offset, tuple(out), exact=False)

    def __truediv__(self, other):
        if not isinstance(other, EtaSeries):
            return self * (1.0 / other) if not isinstance(other, Jet) else self * _jet_inverse(other)
        return self * other.inverse(self.n_slots if other.exact else None)

    def __rtruediv__(self, other):
        return EtaSeries.lift(other, self) / self

    def sqrt(self) -> "EtaSeries":
        if self.offset % 2:
            raise ValueError("square root needs an even leading power of eta")
        s0 = self.terms[0].sqrt()
        out = [s0]
        half = Jet.constant(0.5 + 0j, s0.base_point, s0.order)
        inv2s0 = half / s0
        for k in range(1, self.n_slots):
            acc = self.terms[k]
            for j in range(1, k):
                acc = acc - out[j] * out[k - j]
            out.append(inv2s0 * acc)
        return EtaSeries(self.offset // 2, tuple(out), exact=False)

    def derive(self) -> "EtaSeries":
        if any(t.order < 1 for t in self.terms):
            raise OrderBudgetError("jet order exhausted; rebuild the series with larger K")
        return EtaSeries(self.offset, tuple(t.derive() for t in self.terms),
                         exact=self.exact)

    def shift_eta(self, k: int) -> "EtaSeries":
        """Multiply by eta^k."""
        return EtaSeries(self.offset + k, self.terms, exact=self.exact)

    def map_jets(self, fn) -> "EtaSeries":
        return EtaSeries(self.offset, tuple(fn(t) for t in self.terms), exact=self.exact)

    def rebase(self, new_base: complex) -> "EtaSeries":
        return self.map_jets(lambda j: j.rebase(new_base))

    def parity_part(self, rem: int) -> "EtaSeries":
        """Keep slots whose eta-power is congruent to rem mod 2, zeroing others."""
        terms = tuple(t if (self.offset - k) % 2 == rem % 2 else self._zero_jet(t.order)
                      for k, t in enumerate(self.terms))
        return EtaSeries(self.offset, terms, exact=self.exact)

    def slot_values(self) -> dict:
        return {p: self.slot(p).value() for p in self.powers()}

    def __repr__(self):
        bits = ", ".join(f"eta^{p}: {self.slot(p).value():.6g}" for p in self.powers())
        return f"EtaSeries({bits})"


def _jet_inverse(j: Jet) -> Jet:
    return Jet.constant(1.0 + 0j, j.base_point, j.order) / j


def _eta_inverse(template: EtaSeries) -> EtaSeries:
    """The exact series eta^-1, with jets shaped like the template's."""
    ref = template.terms[0]
    return EtaSeries.from_slots({-1: 1.0}, ref.base_point, ref.order, exact=True)


# ---------------------------------------------------------------------------
# Equation models
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class D6Model:
    """The two-parameter equation, with optional eta^-1 parameter shifts
    (c_inf -> c_inf + shift_inf eta^-1 and likewise for c_0).

    Both models offer the same methods, so the solvers, the one-instanton
    factors, the Hamiltonians and the parameter shifts below run one code
    path for either equation."""

    p: Parameters
    shift_inf: int = 0
    shift_0: int = 0

    #: t scales like c^t_weight under the homogeneity of the equation.
    t_weight = 2

    @property
    def shifted(self) -> bool:
        return bool(self.shift_inf or self.shift_0)

    def branches(self, t):
        return lambda0_branches(t, self.p)

    def newton_poly(self, lam, t):
        return (lam ** 4 - self.p.c_inf * lam ** 3 + self.p.c_0 * t * lam - t * t,
                4 * lam ** 3 - 3 * self.p.c_inf * lam ** 2 + self.p.c_0 * t)

    def c_series(self, template: EtaSeries):
        ref = template.terms[0]
        ci = EtaSeries.from_slots({0: self.p.c_inf, -1: self.shift_inf},
                                  ref.base_point, ref.order, exact=True)
        c0 = EtaSeries.from_slots({0: self.p.c_0, -1: self.shift_0},
                                  ref.base_point, ref.order, exact=True)
        return ci, c0

    def coupling(self, template: EtaSeries) -> EtaSeries:
        """The parameter series entering mu and X next to eta^-1: c_0."""
        return self.c_series(template)[1]

    def scaled(self, r: float) -> "D6Model":
        """The unshifted model at the parameters r * (c_inf, c_0)."""
        return D6Model(Parameters(self.p.c_inf * r, self.p.c_0 * r))

    def F(self, lam: EtaSeries, t: Jet) -> EtaSeries:
        ci, c0 = self.c_series(lam)
        t2 = _jet_inverse(t * t)
        return (lam * lam * lam) * t2 - ci * (lam * lam) * t2 \
            + c0 * _jet_inverse(t) - lam.inverse()

    def dF(self, lam: EtaSeries, t: Jet) -> EtaSeries:
        ci, _ = self.c_series(lam)
        t2 = _jet_inverse(t * t)
        inv = lam.inverse()
        return (3 * (lam * lam)) * t2 - 2 * ci * lam * t2 + inv * inv

    def delta_jet(self, lam0: Jet, t: Jet) -> Jet:
        inv = _jet_inverse(lam0)
        return (3 * lam0 * lam0 - 2 * self.p.c_inf * lam0) * _jet_inverse(t * t) + inv * inv

    def mu(self, lam: EtaSeries, t: Jet) -> EtaSeries:
        """(eta^-1 t lam' + lam^2 + (c_0 - eta^-1) lam - t) / (2 lam^2)."""
        c0 = self.coupling(lam)
        eminus = _eta_inverse(lam)
        num = eminus * (lam.derive() * t) + lam * lam + (c0 - eminus) * lam - t
        return num / (2 * (lam * lam))

    def t_hamiltonian(self, lam: EtaSeries, mu: EtaSeries, t: Jet) -> EtaSeries:
        ci, c0 = self.c_series(lam)
        em = _eta_inverse(lam)
        lam2 = lam * lam
        return (lam2 * (mu * mu) - (lam2 + (c0 - em) * lam - t) * mu
                + 0.5 * (ci + c0 - em) * lam)

    def t_hamiltonian_dlam(self, lam: EtaSeries, mu: EtaSeries, t: Jet) -> EtaSeries:
        ci, c0 = self.c_series(lam)
        em = _eta_inverse(lam)
        return (2 * lam * (mu * mu) - (2 * lam + (c0 - em)) * mu
                + 0.5 * (ci + c0 - em))

    def backlund(self, lam: EtaSeries, mu: EtaSeries, t: Jet, which: int) -> tuple:
        ci, c0 = self.c_series(lam)
        em = _eta_inverse(lam)
        if which == 1:
            den = 2 * (lam * lam) * (mu - 1) + (ci - c0 + em) * lam + 2 * t
            Lam = -EtaSeries.lift(t, lam) * lam.inverse() + (ci + c0 + em) * t * den.inverse()
            M = (lam * lam) * (mu - 1) / EtaSeries.lift(t, lam) \
                + (ci - c0 + em) * lam * _jet_inverse(2 * t) + 1
            return Lam, M
        if which == 2:
            den = 2 * lam * (mu - 1) + (ci - c0 + em)
            Lam = 2 * t * (mu - 1) * den.inverse()
            shifted = lam + (ci - c0 + em) * (2 * (mu - 1)).inverse()
            M = ((ci + c0 - em) * 0.5 * shifted - (shifted * shifted) * mu) \
                / EtaSeries.lift(t, lam)
            return Lam, M
        raise ValueError("which must be 1 or 2")

    def backlund_shifted(self, which: int) -> "D6Model":
        if which == 1:
            return replace(self, shift_inf=self.shift_inf + 1, shift_0=self.shift_0 + 1)
        if which == 2:
            return replace(self, shift_inf=self.shift_inf + 1, shift_0=self.shift_0 - 1)
        raise ValueError("which must be 1 or 2")


@dataclass(frozen=True)
class D7Model:
    """The one-parameter degenerate equation, optional shift c -> c + shift eta^-1."""

    c: complex
    shift: int = 0

    t_weight = 3

    @property
    def shifted(self) -> bool:
        return bool(self.shift)

    def branches(self, t):
        return d7_lambda0_branches(t, self.c)

    def newton_poly(self, lam, t):
        return (2 * lam ** 3 - self.c * t * lam + t * t,
                6 * lam ** 2 - self.c * t)

    def c_series(self, template: EtaSeries):
        ref = template.terms[0]
        return EtaSeries.from_slots({0: self.c, -1: self.shift},
                                    ref.base_point, ref.order, exact=True)

    coupling = c_series

    def scaled(self, r: float) -> "D7Model":
        return D7Model(self.c * r)

    def F(self, lam: EtaSeries, t: Jet) -> EtaSeries:
        c = self.c_series(lam)
        return -2 * (lam * lam) * _jet_inverse(t * t) + c * _jet_inverse(t) - lam.inverse()

    def dF(self, lam: EtaSeries, t: Jet) -> EtaSeries:
        inv = lam.inverse()
        return -4 * lam * _jet_inverse(t * t) + inv * inv

    def delta_jet(self, lam0: Jet, t: Jet) -> Jet:
        inv = _jet_inverse(lam0)
        return -4 * lam0 * _jet_inverse(t * t) + inv * inv

    def mu(self, lam: EtaSeries, t: Jet) -> EtaSeries:
        """(eta^-1 t lam' + (c - eta^-1) lam - t) / (2 lam^2)."""
        c = self.c_series(lam)
        eminus = _eta_inverse(lam)
        num = eminus * (lam.derive() * t) + (c - eminus) * lam - t
        return num / (2 * (lam * lam))

    def t_hamiltonian(self, lam: EtaSeries, mu: EtaSeries, t: Jet) -> EtaSeries:
        c = self.c_series(lam)
        return lam * lam * (mu * mu) - (c - _eta_inverse(lam)) * lam * mu + t * mu + lam

    def t_hamiltonian_dlam(self, lam: EtaSeries, mu: EtaSeries, t: Jet) -> EtaSeries:
        c = self.c_series(lam)
        return 2 * lam * (mu * mu) - (c - _eta_inverse(lam)) * mu + 1

    def backlund(self, lam: EtaSeries, mu: EtaSeries, t: Jet, which: int) -> tuple:
        """c -> c + eta^-1 (``which`` is ignored)."""
        c = self.c_series(lam)
        inv_lam = lam.inverse()
        Lam = -(mu * t) + c * t * inv_lam - (inv_lam * inv_lam) * (t * t)
        M = lam / EtaSeries.lift(t, lam)
        return Lam, M

    def backlund_shifted(self, which: int) -> "D7Model":
        return replace(self, shift=self.shift + 1)


def model_for(params):
    """The equation model of ``params``: D6 for :class:`Parameters`, D7 for
    the single complex parameter c."""
    if isinstance(params, Parameters):
        return D6Model(params)
    return D7Model(complex(params))


# ---------------------------------------------------------------------------
# Zero-parameter solution
# ---------------------------------------------------------------------------

def _newton_jet_root(model, t: Jet, seed: complex) -> Jet:
    lam = Jet.constant(seed, t.base_point, t.order)
    for _ in range(6 + t.order.bit_length()):
        val, dval = model.newton_poly(lam, t)
        lam = lam - val / dval
    val, dval = model.newton_poly(lam, t)
    # Gate the residual per node against the size of the polynomial's own
    # terms (lam * P'(lam) dominates the leading monomial), so batches that
    # mix very different |t| scales are judged each at their own scale.
    res = np.maximum.reduce([np.abs(np.asarray(c)) for c in val.coeffs])
    lead = lam * dval
    scale = np.maximum.reduce([np.abs(np.asarray(c)) for c in lead.coeffs])
    scale = np.maximum(1.0, np.maximum(scale, np.abs(np.asarray(t.value())) ** 2))
    if np.any(res > 1e-8 * scale):
        raise ConditioningError("jet Newton iteration for lambda_0 did not converge")
    return lam


def _equation_residual(model, lam: EtaSeries, t: Jet) -> EtaSeries:
    """lam'' - lam'^2/lam + lam'/t - eta^2 F(lam), as an eta-series."""
    d1 = lam.derive()
    d2 = d1.derive()
    return d2 - (d1 * d1) / lam + d1 * _jet_inverse(t) - model.F(lam, t).shift_eta(2)


@dataclass(frozen=True)
class ZeroParamSolution:
    """The formal solution pair (lambda-series, mu-series) at a base point."""

    model: object
    t0: complex
    branch: BranchPoint
    N: int
    K: int
    t_jet: Jet
    lam: EtaSeries
    mu: EtaSeries
    delta0: Jet

    @property
    def lambda0_jet(self) -> Jet:
        return self.lam.slot(0)

    def residual(self) -> EtaSeries:
        return _equation_residual(self.model, self.lam, self.t_jet)


def zero_param_solution(t0: complex, branch: BranchPoint, p=None, N: int = 6,
                        K: int | None = None, model=None) -> ZeroParamSolution:
    """Build the zero-parameter solution along ``branch`` at ``t0``: jets of
    lambda_0, lambda_2, ..., lambda_N (odd slots vanish identically unless the
    model shifts parameters by eta^-1) plus the matching mu-series.

    K is the jet order of lambda_0; each eta-slot costs two derivatives, so
    K >= N + 2 is required (default N + 4)."""
    if model is None:
        model = D6Model(p)
    if K is None:
        K = N + 4
    if K < N + 2:
        raise OrderBudgetError(f"jet order K={K} too small for N={N}; need K >= N + 2")
    if not isinstance(t0, np.ndarray):
        t0 = complex(t0)
    t = Jet.variable(t0, K)
    lam0 = _newton_jet_root(model, t, branch.lambda0)
    delta0 = model.delta_jet(lam0, t)
    delta_min = float(np.min(np.abs(delta0.value())))
    if delta_min < 1e-8:
        raise ConditioningError(
            f"|Delta| = {delta_min:.2e} at t0={t0}: too close to a turning point")
    step = 1 if model.shifted else 2
    slots = {0: lam0}
    for m in range(1, N + 1):
        slots[-m] = Jet.constant(0j, t0, K)
    lam = EtaSeries.from_slots(slots, t0, K)
    for m in range(step, N + 1, step):
        res = _equation_residual(model, lam, t)
        num = res.slot(2 - m)
        slots[-m] = num / delta0
        lam = EtaSeries.from_slots(slots, t0, K)
    mu = model.mu(lam, t)
    return ZeroParamSolution(model, t0, branch, N, K, t, lam, mu, delta0)


def main_equation_residual(zp: ZeroParamSolution) -> EtaSeries:
    return zp.residual()


# ---------------------------------------------------------------------------
# Riccati series
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class RiccatiSolution:
    """R = sign * eta sqrt(Delta) + R_0 + eta^-1 R_1 + ...; the odd-index
    part flips with ``sign`` while the even-index part is shared."""

    zp: ZeroParamSolution
    sign: int
    R: EtaSeries

    @property
    def r_odd(self) -> EtaSeries:
        return self.R.parity_part(1)

    @property
    def r_even(self) -> EtaSeries:
        return self.R.parity_part(0)

    def flipped(self) -> "RiccatiSolution":
        Rf = self.r_even - self.r_odd
        return replace(self, sign=-self.sign, R=Rf)

    def residual(self) -> EtaSeries:
        return riccati_residual(self.R, self.zp)


def _riccati_coefficients(zp: ZeroParamSolution):
    lam, t = zp.lam, zp.t_jet
    dlam = lam.derive()
    ratio = dlam / lam
    G = 2 * ratio - EtaSeries.lift(_jet_inverse(t), lam)
    H = zp.model.dF(lam, t).shift_eta(2) - ratio * ratio
    return G, H


def _riccati_defect(R: EtaSeries, G: EtaSeries, H: EtaSeries) -> EtaSeries:
    return R * R + R.derive() - G * R - H


def riccati_residual(R: EtaSeries, zp: ZeroParamSolution) -> EtaSeries:
    """R^2 + R' - (2 lam'/lam - 1/t) R - (eta^2 dF(lam) - (lam'/lam)^2)."""
    return _riccati_defect(R, *_riccati_coefficients(zp))


def riccati_solution(zp: ZeroParamSolution, sign: int = +1) -> RiccatiSolution:
    """Solve the Riccati recursion along zp; slots run from eta^1 down to
    eta^-(N-1)."""
    N = zp.N
    t0, K = zp.t0, zp.K
    r_m1 = zp.delta0.sqrt()
    if sign < 0:
        r_m1 = -r_m1
    slots = {1: r_m1}
    for m in range(0, N):
        slots[-m] = Jet.constant(0j, t0, K)
    R = EtaSeries.from_slots(slots, t0, K)
    inv2r = Jet.constant(-0.5 + 0j, t0, r_m1.order) / r_m1
    G, H = _riccati_coefficients(zp)
    for m in range(0, N):
        res = _riccati_defect(R, G, H)
        slots[-m] = inv2r * res.slot(1 - m)
        R = EtaSeries.from_slots(slots, t0, K)
    return RiccatiSolution(zp, sign, R)


# ---------------------------------------------------------------------------
# One-instanton building blocks
# ---------------------------------------------------------------------------

def instanton1_prefactor(ric: RiccatiSolution) -> EtaSeries:
    """Q with lambda^(1) = alpha eta^-1/2 Q exp(integral of R_odd): the
    non-exponential factor lambda^(0) / sqrt(t R_odd), with the overall
    eta^-1/2 pulled out so Q has integer eta-powers."""
    zp = ric.zp
    base = (ric.r_odd * zp.t_jet).shift_eta(-1)
    return zp.lam / base.sqrt()


def x_factor(ric: RiccatiSolution) -> EtaSeries:
    """The factor X with mu^(1) = X lambda^(1):

        X = eta^-1 t R/(2 lam^2) - eta^-1 t lam'/lam^3 - (c_0 - eta^-1)/(2 lam^2)
            + t/lam^3

    (the degenerate family has the same shape with c in place of c_0; both
    equal d(mu)/d(lam) + eta^-1 t R/(2 lam^2))."""
    zp = ric.zp
    lam, t = zp.lam, zp.t_jet
    em = _eta_inverse(lam)
    lam2 = lam * lam
    inv_lam2 = lam2.inverse()
    inv_lam3 = (lam2 * lam).inverse()
    common = em * (ric.R * t) * inv_lam2 * 0.5 - em * (lam.derive() * t) * inv_lam3
    return common - (zp.model.coupling(lam) - em) * inv_lam2 * 0.5 + t * inv_lam3


# ---------------------------------------------------------------------------
# Hamiltonians
# ---------------------------------------------------------------------------

def hamiltonian(zp: ZeroParamSolution) -> EtaSeries:
    """H with t H the polynomial Hamiltonian evaluated on (lam, mu)."""
    return zp.model.t_hamiltonian(zp.lam, zp.mu, zp.t_jet) / EtaSeries.lift(zp.t_jet, zp.lam)


def hamilton_residual(model, lam: EtaSeries, mu: EtaSeries, t: Jet) -> EtaSeries:
    """t mu' + eta d(tH)/d(lam): vanishes iff (lam, mu) solves the system."""
    return (mu.derive() * t) + model.t_hamiltonian_dlam(lam, mu, t).shift_eta(1)


# ---------------------------------------------------------------------------
# Parameter-shift transformations
# ---------------------------------------------------------------------------

def backlund_apply(zp: ZeroParamSolution, which: int) -> tuple:
    """Apply the parameter-shift transformation to (lam, mu):

    which=1: (c_inf, c_0) -> (c_inf + eta^-1, c_0 + eta^-1)
    which=2: (c_inf, c_0) -> (c_inf + eta^-1, c_0 - eta^-1)
    degenerate family (which ignored): c -> c + eta^-1, via
        Lam = -t mu + c t/lam - t^2/lam^2,  M = lam/t.

    Returns (Lam, M) as eta-series."""
    return zp.model.backlund(zp.lam, zp.mu, zp.t_jet, which)


def backlund_model(model, which: int):
    """The parameter-shifted model matched to backlund_apply."""
    return model.backlund_shifted(which)
