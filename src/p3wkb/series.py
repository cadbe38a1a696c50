"""Formal power series in the large parameter: eta-expansions whose
coefficients are jets in t.

An :class:`EtaSeries` stores the coefficients of eta^(offset),
eta^(offset-1), ... as one array of jets at one base point or a batch of
them, of the number type ``DenseJets`` takes from the base points, and
computes with the ``DenseJets`` kernels.  On it sit:

* the zero-parameter formal solution lambda^(0) = lambda_0 + eta^-2 lambda_2
  + ... of the second-order equation: lambda_0's value by Newton's method,
  its t-derivatives by the chain rule from the u-chart, on which lambda_0
  and t are rational, and every later slot by the term-by-term recursion,
  in which the new slot enters linearly,
* the Riccati series R = eta R_{-1} + R_0 + eta^-1 R_1 + ... attached to
  the linearization along lambda^(0), by the same kind of recursion,
* the conjugate-momentum series, Hamiltonians, and the parameter-shift
  (Backlund) transformations,
* the analogous objects for the degenerate family (one parameter c),
* the odd Riccati slots over sqrt(Delta) as rational functions on the
  u-chart, built once per family by the same recursions on polynomial
  numerators and rescaled per chart (``odd_slot_ratios``).

Parameter shifts by multiples of eta^-1 are first-class: models carry
integer shift amounts, so a "solution at shifted parameters" is an ordinary
eta-series and can be compared termwise against a transformed solution.

The two solvers run slot recursions on those arrays, shape (slots, K+1,
*batch), and return them as EtaSeries.  The residual functions evaluate
the equations with EtaSeries arithmetic, whole series at a time, and serve
as independent checks: no solver calls them.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from fractions import Fraction
from functools import cached_property, lru_cache

import numpy as np

from .algebra import (
    BranchPoint,
    D6Chart,
    D7Chart,
    Factored,
    Parameters,
    _d7_parameter,
    u_chart,
)
from .numerics import DenseJets, ExactLaurent, Jet, _read_only

__all__ = [
    "ConditioningError",
    "OrderBudgetError",
    "SlotStructureError",
    "EtaSeries",
    "D6Model",
    "D7Model",
    "ZeroParamSolution",
    "RiccatiSolution",
    "zero_param_solution",
    "lowest_jet_order",
    "riccati_solution",
    "OddSlotRatios",
    "odd_slot_ratios",
    "instanton1_prefactor",
    "x_factor",
    "hamiltonian",
    "hamilton_residual",
    "backlund_apply",
    "main_equation_residual",
    "riccati_residual",
    "model_for",
]


class ConditioningError(ArithmeticError):
    """The expansion point is too close to a turning point for the requested
    series to be trustworthy."""


class OrderBudgetError(ArithmeticError):
    """A derivative or slot was requested beyond what the jet order K supports."""


@dataclass(frozen=True, eq=False)
class EtaSeries:
    """sum_m coeffs[m] * eta^(offset - m) at the base points t0, known
    modulo O(eta^(offset - slots)).  ``coeffs`` is a stack of jets of shape
    (slots, K+1, *batch) as in :class:`DenseJets`; slot m is certified
    through Taylor order ``orders[m]`` (its coefficients above that order
    carry no meaning).  Scalars, per-node arrays, Jets and parameters
    c + s eta^-1 enter sums as series at eta^0 (:meth:`lift`), and a
    factor eta^-1 is ``shift_eta(-1)``."""

    offset: int
    coeffs: np.ndarray
    orders: np.ndarray
    t0: object

    @property
    def n_slots(self) -> int:
        return len(self.coeffs)

    @property
    def K(self) -> int:
        return self.coeffs.shape[1] - 1

    @property
    def lowest_power(self) -> int:
        return self.offset - self.n_slots + 1

    def powers(self):
        return range(self.offset, self.lowest_power - 1, -1)

    def slot(self, power: int) -> Jet:
        """The coefficient of eta^power, a Jet of its certified order."""
        m = self.offset - power
        if m >= self.n_slots:
            raise OrderBudgetError(f"eta^{power} slot not available (series known "
                                   f"down to eta^{self.lowest_power})")
        if m < 0:
            return Jet.constant(0j, self.t0, self.K)
        return Jet(self.t0, self.coeffs[m, :self.orders[m] + 1])

    def slot_value(self, power: int):
        return self.slot(power).value()

    def slot_values(self) -> dict:
        return {p: self.slot_value(p) for p in self.powers()}

    @staticmethod
    def from_slots(pairs: dict, base_point, jet_order: int) -> "EtaSeries":
        """Build from a {power: Jet | scalar} mapping; gaps become zeros."""
        hi = max(pairs)
        coeffs = DenseJets(base_point, jet_order).zeros(hi - min(pairs) + 1)
        orders = np.full(len(coeffs), jet_order)
        for p, v in pairs.items():
            if isinstance(v, Jet):
                orders[hi - p] = min(v.order, jet_order)
                coeffs[hi - p, :orders[hi - p] + 1] = v.coeffs[:jet_order + 1]
            else:
                coeffs[hi - p, 0] = v
        return EtaSeries(hi, coeffs, orders, base_point)

    @staticmethod
    def lift(value, template: "EtaSeries", shift=0) -> "EtaSeries":
        """value + shift eta^-1, for a scalar, per-node array or Jet value,
        as a series at eta^0 that reaches at least as far down as template."""
        if isinstance(value, EtaSeries):
            return value
        n = max(template.n_slots, 1 - template.lowest_power)
        return EtaSeries.from_slots({1 - n: 0, -1: shift, 0: value}, template.t0, template.K)

    @staticmethod
    def inverse_eta(template: "EtaSeries") -> "EtaSeries":
        """eta^-1, lifted like ``template``: the unit of a parameter shift."""
        return EtaSeries.lift(0, template, 1)

    # -- ring operations ----------------------------------------------------

    def __add__(self, other):
        other = EtaSeries.lift(other, self)
        hi, lo = max(self.offset, other.offset), max(self.lowest_power, other.lowest_power)
        K = min(self.K, other.K)
        coeffs = np.zeros((hi - lo + 1, K + 1) + self.coeffs.shape[2:],
                          np.result_type(self.coeffs, other.coeffs))
        orders = np.full(len(coeffs), K)
        for s in (self, other):         # the powers hi..lo of each; zero above its offset
            top, n = hi - s.offset, max(0, s.offset - lo + 1)
            coeffs[top:top + n] += s.coeffs[:n, :K + 1]
            orders[top:top + n] = np.minimum(orders[top:top + n], s.orders[:n])
        return EtaSeries(hi, coeffs, orders, self.t0)

    __radd__ = __add__

    def __neg__(self):
        return replace(self, coeffs=-self.coeffs)

    def __sub__(self, other):
        return self + (-EtaSeries.lift(other, self))

    def __rsub__(self, other):
        return EtaSeries.lift(other, self) + (-self)

    def __mul__(self, other):
        if isinstance(other, Jet):      # slot by slot, not as a lifted series
            K = min(self.K, other.order)
            return EtaSeries(self.offset, DenseJets.products(self.coeffs, other.coeffs[None], K),
                             np.minimum(self.orders, K), self.t0)
        if not isinstance(other, EtaSeries):
            return replace(self, coeffs=self.coeffs * other)
        n, K = min(self.n_slots, other.n_slots), min(self.K, other.K)
        orders = np.minimum.accumulate(np.minimum(self.orders[:n], other.orders[:n]).clip(max=K))
        coeffs = DenseJets.mul(self.coeffs[:n, :K + 1], other.coeffs[:n, :K + 1], orders=orders)
        return EtaSeries(self.offset + other.offset, coeffs, orders, self.t0)

    __rmul__ = __mul__

    def inverse(self) -> "EtaSeries":
        """1 / self; a vanishing leading value raises SingularJetError."""
        orders = np.minimum.accumulate(self.orders)
        return EtaSeries(-self.offset, DenseJets.inverse(self.coeffs, orders=orders), orders,
                         self.t0)

    def __truediv__(self, other):
        return self * (other.inverse() if isinstance(other, EtaSeries) else 1.0 / other)

    def sqrt(self) -> "EtaSeries":
        """The series S with S^2 = self and the principal root as the value
        of S_0: S_k = (A_k - sum_{0<j<k} S_j S_{k-j}) / (2 S_0)."""
        if self.offset % 2:
            raise ValueError("square root needs an even leading power of eta")
        jets = DenseJets(self.t0, self.K)
        orders = np.minimum.accumulate(self.orders)
        out = np.zeros_like(self.coeffs)
        out[0] = jets.sqrt(self.coeffs[0])
        half = jets.divide(jets.constant(0.5), out[0])[None]
        for k, q in enumerate(orders[1:], 1):
            acc = self.coeffs[k, :q + 1] - jets.slot(out, out, k, 1, k - 1, order=q)
            out[k, :q + 1] = jets.products(acc[None], half, q)[0]
        return EtaSeries(self.offset // 2, out, orders, self.t0)

    def derive(self) -> "EtaSeries":
        if np.min(self.orders) < 1:
            raise OrderBudgetError("jet order exhausted; rebuild the series with larger K")
        return EtaSeries(self.offset, DenseJets(self.t0, self.K).derive(self.coeffs),
                         self.orders - 1, self.t0)

    def shift_eta(self, k: int) -> "EtaSeries":
        """Multiply by eta^k."""
        return replace(self, offset=self.offset + k)

    def parity_part(self, rem: int) -> "EtaSeries":
        """Keep slots whose eta-power is congruent to rem mod 2, zeroing others."""
        keep = (self.offset - np.arange(self.n_slots)) % 2 == rem % 2
        return replace(self, coeffs=np.where(
            keep.reshape((-1,) + (1,) * (self.coeffs.ndim - 1)), self.coeffs, 0))


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
    chart = D6Chart       # its maps give lambda_0's jets, at these parameters:
    chart_args = property(lambda self: (self.p.c_inf, self.p.c_0))

    @property
    def shifted(self) -> bool:
        return bool(self.shift_inf or self.shift_0)

    def lam_poly(self) -> tuple:
        """P = lam t^2 F(lam) as terms (d, e, a, p), each a t^p lam^d eta^-e: the
        chart's ``leading`` at eta^0, then the eta^-1 shifts of c_inf and c_0."""
        return (*((d, 0, a, p) for d, a, p in self.chart.leading(*self.chart_args)),
                (3, 1, -self.shift_inf, 0), (1, 1, self.shift_0, 1))

    def mu_poly(self) -> tuple:
        """2 lam^2 mu - eta^-1 t lam' = lam^2 + (c_0 - eta^-1) lam - t, as
        terms like those of lam_poly."""
        return ((2, 0, 1, 0), (1, 0, self.p.c_0, 0), (1, 1, self.shift_0 - 1, 0),
                (0, 0, -1, 1))

    def c_series(self, template: EtaSeries):
        """c_inf and c_0 with their eta^-1 shifts, lifted like ``template``."""
        return (EtaSeries.lift(self.p.c_inf, template, self.shift_inf),
                EtaSeries.lift(self.p.c_0, template, self.shift_0))

    def coupling(self, template: EtaSeries) -> EtaSeries:
        """The parameter series entering mu and X next to eta^-1: c_0."""
        return self.c_series(template)[1]

    def F(self, lam: EtaSeries, t: Jet) -> EtaSeries:
        ci, c0 = self.c_series(lam)
        lam2 = lam * lam
        return (lam2 * lam - ci * lam2) / (t * t) + c0 / t - lam.inverse()

    def dF(self, lam: EtaSeries, t: Jet) -> EtaSeries:
        ci, _ = self.c_series(lam)
        inv = lam.inverse()
        return (3 * (lam * lam) - 2 * ci * lam) / (t * t) + inv * inv

    def t_hamiltonian(self, lam: EtaSeries, mu: EtaSeries, t: Jet) -> EtaSeries:
        ci, c0 = self.c_series(lam)
        em = EtaSeries.inverse_eta(lam)
        lam2 = lam * lam
        return (lam2 * (mu * mu) - (lam2 + (c0 - em) * lam - t) * mu
                + 0.5 * (ci + c0 - em) * lam)

    def t_hamiltonian_dlam(self, lam: EtaSeries, mu: EtaSeries, t: Jet) -> EtaSeries:
        ci, c0 = self.c_series(lam)
        em = EtaSeries.inverse_eta(lam)
        return (2 * lam * (mu * mu) - (2 * lam + (c0 - em)) * mu
                + 0.5 * (ci + c0 - em))

    def backlund(self, lam: EtaSeries, mu: EtaSeries, t: Jet, which: int) -> tuple:
        ci, c0 = self.c_series(lam)
        em = EtaSeries.inverse_eta(lam)
        if which == 1:
            den = 2 * (lam * lam) * (mu - 1) + (ci - c0 + em) * lam + 2 * t
            Lam = -(lam.inverse() * t) + (ci + c0 + em) * t * den.inverse()
            return Lam, (lam * lam) * (mu - 1) / t + (ci - c0 + em) * lam / (2 * t) + 1
        if which == 2:
            den = 2 * lam * (mu - 1) + (ci - c0 + em)
            Lam = 2 * t * (mu - 1) * den.inverse()
            shifted = lam + (ci - c0 + em) * (2 * (mu - 1)).inverse()
            return Lam, ((ci + c0 - em) * 0.5 * shifted - (shifted * shifted) * mu) / t
        raise ValueError("which must be 1 or 2")

    def backlund_shifted(self, which: int) -> "D6Model":
        if which == 1:
            return replace(self, shift_inf=self.shift_inf + 1, shift_0=self.shift_0 + 1)
        if which == 2:
            return replace(self, shift_inf=self.shift_inf + 1, shift_0=self.shift_0 - 1)
        raise ValueError("which must be 1 or 2")


@dataclass(frozen=True)
class D7Model:
    """The one-parameter degenerate equation, optional shift c -> c + shift
    eta^-1; c is refused where ``D7Chart`` refuses it."""

    c: complex
    shift: int = 0
    chart = D7Chart
    chart_args = property(lambda self: (self.c,))

    def __post_init__(self):
        object.__setattr__(self, "c", _d7_parameter(self.c))

    @property
    def shifted(self) -> bool:
        return bool(self.shift)

    def lam_poly(self) -> tuple:
        """P as (d, e, a, p) terms: ``leading``, then the eta^-1 shift of c."""
        return (*((d, 0, a, p) for d, a, p in self.chart.leading(self.c)), (1, 1, self.shift, 1))

    def mu_poly(self) -> tuple:
        """2 lam^2 mu - eta^-1 t lam' = (c - eta^-1) lam - t, as terms."""
        return ((1, 0, self.c, 0), (1, 1, self.shift - 1, 0), (0, 0, -1, 1))

    def c_series(self, template: EtaSeries):
        """c with its eta^-1 shift, lifted like ``template``."""
        return EtaSeries.lift(self.c, template, self.shift)

    coupling = c_series

    def F(self, lam: EtaSeries, t: Jet) -> EtaSeries:
        c = self.c_series(lam)
        return -2 * (lam * lam) / (t * t) + c / t - lam.inverse()

    def dF(self, lam: EtaSeries, t: Jet) -> EtaSeries:
        inv = lam.inverse()
        return -4 * lam / (t * t) + inv * inv

    def t_hamiltonian(self, lam: EtaSeries, mu: EtaSeries, t: Jet) -> EtaSeries:
        c = self.c_series(lam)
        em = EtaSeries.inverse_eta(lam)
        return lam * lam * (mu * mu) - (c - em) * lam * mu + t * mu + lam

    def t_hamiltonian_dlam(self, lam: EtaSeries, mu: EtaSeries, t: Jet) -> EtaSeries:
        c = self.c_series(lam)
        return 2 * lam * (mu * mu) - (c - EtaSeries.inverse_eta(lam)) * mu + 1

    def backlund(self, lam: EtaSeries, mu: EtaSeries, t: Jet, which: int) -> tuple:
        """c -> c + eta^-1 (``which`` is ignored)."""
        c = self.c_series(lam)
        inv_lam = lam.inverse()
        Lam = -(mu * t) + c * t * inv_lam - (inv_lam * inv_lam) * (t * t)
        return Lam, lam / t

    def backlund_shifted(self, which: int) -> "D7Model":
        return replace(self, shift=self.shift + 1)


def model_for(params):
    """The equation model of ``params``: D6 for :class:`Parameters`, D7 for
    the single complex parameter c."""
    if isinstance(params, Parameters):
        return D6Model(params)
    return D7Model(params)


def _eta_shift(A: np.ndarray, e: int) -> np.ndarray:
    """eta^-e times a stack, truncated to its length."""
    if e == 0:
        return A
    out = np.zeros_like(A)
    out[e:] = A[:-e]
    return out


def _by_t_power(jets: DenseJets, groups: dict, order: int | None = None) -> np.ndarray:
    """sum of t^p * groups[p] over the powers p present, through Taylor
    order ``order`` (default K)."""
    q = jets.K if order is None else order
    return sum(jets.products(g, jets.t_power(p)[None], q) if p else g[:, :q + 1]
               for p, g in groups.items())


def _step(model) -> int:
    """Slots of lambda that can be nonzero are the multiples of this: every
    one when the model shifts parameters by eta^-1, else every other one."""
    return 1 if model.shifted else 2


@lru_cache(maxsize=None)
def _slot_orders(K: int, N: int, shifted: bool):
    """Taylor orders kept per slot of lambda, mu and R (read-only: every
    solve shares them).

    Each is what truncated jet arithmetic certifies through the elimination
    of the full residual, slot by slot: two orders per eta-step of lambda
    (two t-derivatives), one per eta-step of mu and R (one derivative).
    The outputs keep these so that a slot's order does not depend on the
    engine.  The recursions compute each slot only through them and leave
    it zero above: through its own order a slot reads slots at or before it,
    which the orders certify at least as far, and t-derivatives of
    earlier slots, which they certify one order further per derivative.
    So every kept coefficient adds the same terms, in the same order, as
    products through the full jet order K would."""
    m = np.arange(N + 1)
    if shifted:
        return _read_only(K - 2 * ((m + 1) // 2), K - 1 - m, np.where(m == 0, K, K - 1 - m))
    return _read_only(np.where(m % 2, K, K - m), K - np.maximum(m, 1), K - m)


@lru_cache(maxsize=None)
def lowest_jet_order(N: int, shifted: bool) -> int:
    """The smallest jet order K at which ``zero_param_solution`` solves
    through slot N: no slot of lambda, mu or R is left with a negative
    Taylor order.  Each order ``_slot_orders`` keeps is K less a deficit
    that depends only on the slot, so this is the largest deficit: N (and
    at least 1) for a model that keeps its parameters, N + 1 for one that
    shifts them by eta^-1 (``shifted``).  At this K every slot value is
    certified.  N < 0 is refused."""
    if N < 0:
        raise ValueError(f"N={N}: the series runs through slot N >= 0")
    return -min(int(kept.min()) for kept in _slot_orders(0, N, shifted))


# ---------------------------------------------------------------------------
# Zero-parameter solution
# ---------------------------------------------------------------------------

def _lambda0_jet(model, jets: DenseJets, seed):
    """The jet of lambda_0, the root of P(lam) = lam t^2 F(lam) at
    eta^-1 = 0 through ``seed``, with P'(lambda_0) and per node the
    residual gate's ratio and the turning-point gate's ratio.  A gate's
    error names the failing node by its index in the flattened base
    points; a ratio that is NaN fails its gate.

    The value is the root after two Newton steps on the values.  The
    t-derivatives come from the model's u-chart, on which lambda_0 and t
    are rational in u: with D = (1/t'(u)) d/du, the chain rule gives
    lambda_k = (D^k lambda_0)(u_0)/k!, K products of falling order of the
    u-jets of dlambda_0/du and 1/t'(u) at u_0 (``UChart.lambda0_u_jets``)."""
    coeff = jets.zeros(1 + max(d for d, *_ in model.lam_poly()))
    for d, e, a, p in model.lam_poly():
        if e == 0:
            coeff[d] += a * jets.t_power(p) if p else jets.constant(a)
    top = len(coeff) - 1

    def horner(lam):
        """P(lam) and P'(lam) for jets of the order of lam."""
        q1 = lam.shape[0]
        vd = np.zeros((2,) + lam.shape, lam.dtype)
        vd[1] = coeff[top, :q1]
        for d in range(top - 1, -1, -1):
            nxt = jets.products(vd, lam[None])
            nxt[0] += vd[1]
            nxt[1] += coeff[d, :q1]
            vd = nxt
        return vd[1], vd[0]

    def values(lam):
        """``horner`` for values (shape (1, *batch)): the same sums, without
        the jet products' overhead."""
        val, dval = coeff[top, :1], 0
        for d in range(top - 1, -1, -1):
            dval = dval * lam + val
            val = val * lam + coeff[d, :1]
        return val, dval

    lam = np.asarray(seed, jets.dtype)[None]
    with np.errstate(divide="ignore", invalid="ignore"):   # the gate refuses a NaN root
        for _ in range(2):
            val, dval = values(lam)
            lam = lam - val / dval
    # At a turning point lambda_0 is a double root, P'(lambda_0) is rounding
    # next to the terms of P, and t'(u_0) vanishes with it.  The gate is
    # relative to the largest monomial |a lam^d t^p| of P at the node.
    terms = np.abs([a * lam[0] ** d * jets.t0 ** p
                    for d, e, a, p in model.lam_poly() if e == 0])
    delta_ratio = np.abs(lam[0] * values(lam)[1][0]) / terms.max(axis=0)
    if not (delta_ratio >= 1e-6).all():
        node = int(np.argmin(delta_ratio))
        raise ConditioningError(
            f"|lambda_0 P'(lambda_0)| is {np.ravel(delta_ratio)[node]:.2e} of P's largest "
            f"term at node {node}, t0={np.ravel(jets.t0)[node]}: "
            "too close to a turning point")
    K = jets.K
    dlam, inv_dt = model.chart.lambda0_u_jets(model.chart_args, jets, lam)
    out = jets.zeros()
    out[:1] = lam
    for k in range(1, K + 1):
        # dlam: the u-jet of d/du D^(k-1) lambda_0, then of D^k lambda_0
        # through order K - k, whose value is k! lambda_k.
        dlam = jets.products(inv_dt[None, :K + 1 - k], dlam[None])[0]
        out[k] = dlam[0]
        dlam = dlam[1:] * jets._kfac[:K - k]
    out[1:] /= jets._kfac.astype(jets.t0.real.dtype).cumprod(axis=0)
    val, dval = horner(out)
    # Gate the residual per node against the size of the polynomial's own
    # terms (lam * P'(lam) dominates the leading monomial), so batches that
    # mix very different |t| scales are judged each at their own scale.
    res = np.abs(val).max(axis=0)
    scale = np.abs(jets.products(out[None], dval[None])[0]).max(axis=0)
    ratio = res / np.maximum(1.0, np.maximum(scale, np.abs(jets.t0) ** 2))
    failed = ~(ratio <= 1e-8)
    if failed.any():
        node = int(np.argmax(np.where(failed, ratio, 0.0)))
        raise ConditioningError(
            f"the jet of lambda_0 leaves a residual of P at node {node}, "
            f"t0={np.ravel(jets.t0)[node]}: {np.ravel(ratio)[node]:.2e} of its scale "
            "(gate 1e-8)")
    return out, dval, ratio, delta_ratio


def _lambda_slots(model, jets: DenseJets, lam0, linv, N: int):
    """The stack of the slots lambda_0..lambda_N; linv is 1 / P'(lambda_0).

    Multiplied by lam t^2, the equation reads eta^2 P(lam) = lam theta^2 lam
    - (theta lam)^2.  At eta^(2-m) the left side is linear in lambda_m with
    coefficient P'(lambda_0) = lambda_0 t^2 Delta, and the right side holds
    only slots up to m - 2.  The powers of lam keep running slots, so slot m
    of lam^d is one sum of O(m) jet products; theta lam = t lam' and theta^2
    lam share their buffer, so slot m of lam^2 and both theta sums are one
    gather, and lam^d, d >= 3, follows in turn.  Slot m of lam and of the
    powers is computed through the order ``_slot_orders`` certifies for
    lambda_m and is zero above it."""
    terms = [term for term in model.lam_poly() if term[2] != 0]
    top = max(d for d, *_ in terms)
    step = _step(model)
    orders = _slot_orders(jets.K, N, model.shifted)[0].tolist()
    th1, th2 = top + 1, top + 2         # rows of theta lam and theta^2 lam
    buf = jets.zeros(top + 3, N + 1)
    pw, lam = buf[:th1], buf[1]
    pw[0, 0, 0] = 1.0
    pw[1, 0] = lam0
    for d in range(2, top + 1):
        pw[d, 0] = jets.products(pw[d - 1, :1], lam0[None])[0]
    # d lambda_0^(d-1): how slot m of lam^d moves with lambda_m, d = 2..D.
    grow = np.arange(2, top + 1).reshape((-1,) + (1,) * (1 + len(jets.batch))) * pw[1:top, 0]
    buf[th1, 0] = jets.theta(lam0)
    buf[th2, 0] = jets.theta(buf[th1, 0])
    for m in range(step, N + 1, step):
        q = orders[m]
        # lam^2 (lambda_m still 0) and, from m = 2, both theta sums
        theta = ((1, th2, m - 2, 0, m - 2, step, q), (th1, th1, m - 2, 0, m - 2, step, q))
        sums = jets.slots(buf, buf, ((1, 1, m, step, m, step, q),) + (theta if m >= 2 else ()))
        pw[2, m, :q + 1] = sums[0]
        for d in range(3, top + 1):
            pw[d, m, :q + 1] = jets.slot(pw[d - 1], lam, m, step, m, step, order=q)
        groups = {}
        for d, e, a, p in terms:
            # Skip slots m - e of lam^d that are zero here: below slot 0,
            # lambda_m itself (not yet solved), and every slot but 0 of lam^0.
            if m < e or (d == 1 and e == 0) or (d == 0 and e != m):
                continue
            groups[p] = groups.get(p, 0) + a * pw[d, m - e:m - e + 1]
        rhs = -_by_t_power(jets, groups, q)[0]
        if m >= 2:
            rhs += sums[1] - sums[2]
        lam[m, :q + 1] = jets.products(rhs[None], linv[None], q)[0]
        buf[th1, m] = jets.theta(lam[m])
        buf[th2, m] = jets.theta(buf[th1, m])
        pw[2:, m, :q + 1] += jets.products(grow, lam[m][None], q)
    return lam.copy()      # not the view, which would keep all of buf alive


@dataclass(frozen=True)
class ZeroParamSolution:
    """The formal solution pair (lambda-series, mu-series) at the base
    points ``t0`` (one number, or an array solved as one batch), in their
    number type: complex128, or clongdouble for clongdouble ones.  ``lam``
    holds lambda_0 .. lambda_N, each slot of it and of mu zero above the
    order ``_slot_orders`` certifies, which is 0 or more as K is at least
    ``lowest_jet_order(N, model.shifted)``; ``t_jet`` and ``delta0`` are
    the jets of t and of Delta, all of order K.

    Only lambda is solved eagerly.  ``mu`` follows from lambda and the
    model and is built on first access, so solves whose callers read only
    lambda or R (the Voros oracle among them) never pay for it.  Its
    ``DenseJets`` (t-powers shared by mu and R) and 1 / lambda_0 (divided
    with Delta, read by R) are cached properties too: a copy made with
    ``dataclasses.replace`` derives its own from its own fields.

    ``diagnostics`` records what the conditioning gates measured: the worst
    ratio of P's residual at lambda_0's jet to its scale (``newton_ratio``,
    gate 1e-8) at node ``newton_node``; the smallest turning-point ratio
    |lambda_0 P'(lambda_0)| / max |a lambda_0^d t^p| over the monomials
    of P (``delta_ratio``, gate 1e-6) at node ``delta_ratio_node``; and,
    ungated, the smallest |Delta| (``delta_min``) at node ``delta_node``.
    Nodes index the flattened base points (0 for one base point)."""

    model: object
    t0: complex
    branch: BranchPoint
    N: int
    K: int
    t_jet: Jet
    lam: EtaSeries
    delta0: Jet
    diagnostics: dict = field(default_factory=dict, compare=False)

    _jets = cached_property(lambda self: DenseJets(self.t0, self.K))
    _lam0_inverse = cached_property(    # 1 / lambda_0 through order K
        lambda self: self._jets.divide(self._jets.constant(1.0), self.lam.coeffs[0]))

    @cached_property
    def mu(self) -> EtaSeries:
        """The mu-series from lam: mu = (eta^-1 theta lam + Q(lam)) / (2 lam^2),
        Q from the model's table.  Its products stop at the orders
        ``_slot_orders`` certifies for mu."""
        model, lam, jets = self.model, self.lam.coeffs, self._jets
        step = _step(model)
        orders = _slot_orders(self.K, self.N, model.shifted)[1]
        one = jets.zeros(len(lam))
        one[0, 0] = 1.0
        powers = (one, lam, jets.mul(lam, lam, step, step, orders))
        groups = {}
        for d, e, a, p in model.mu_poly():
            groups[p] = groups.get(p, 0) + a * _eta_shift(powers[d], e)
        mu = jets.mul(_eta_shift(jets.theta(lam), 1) + _by_t_power(jets, groups),
                      jets.inverse(2 * powers[2], step, orders), 1, step, orders)
        return EtaSeries(0, mu, orders, self.t0)


def zero_param_solution(t0: complex, branch: BranchPoint, *, model, N: int = 6,
                        K: int | None = None) -> ZeroParamSolution:
    """Build the zero-parameter solution of ``model`` along ``branch`` at
    ``t0``: jets of lambda_0, lambda_2, ..., lambda_N (odd slots vanish
    identically unless the model shifts parameters by eta^-1); the matching
    mu-series is built when first read.

    ``t0`` and ``branch.lambda0`` may be arrays of base points, solved in
    one batch.  K is the jet order of lambda_0 (default N + 4).  Each slot
    keeps the Taylor order ``_slot_orders`` certifies, and a K that would
    leave a slot of lambda, mu or R a negative order is refused: K >=
    ``lowest_jet_order(N, model.shifted)``, where every slot's value is
    certified.
    The residuals differentiate the slots and refuse a series with no order
    left to differentiate; the default leaves them every slot."""
    if K is None:
        K = N + 4
    lowest = lowest_jet_order(N, model.shifted)
    if K < lowest:
        name, kept = next((name, kept) for name, kept in zip(
            ("lambda", "mu", "R"), _slot_orders(K, N, model.shifted)) if kept.min() < 0)
        m = int(np.argmin(kept))
        raise OrderBudgetError(f"jet order K={K} too small for N={N}: slot {m} of {name} "
                               f"would keep Taylor order {kept[m]}; need K >= {lowest}")
    jets = DenseJets(t0, K)
    t0 = jets.t0[()]        # a scalar for one base point
    lam0, dP, newton_ratio, delta_ratio = _lambda0_jet(
        model, jets, np.broadcast_to(branch.lambda0, np.shape(t0)))
    # 1 / P'(lambda_0), Delta = P'(lambda_0) / (t^2 lambda_0) and 1 / lambda_0: one division
    one, t2lam0 = jets.constant(1.0), jets.times_t(jets.times_t(lam0))
    stacked = jets.divide(np.stack([one, dP, one], -1), np.stack([dP, t2lam0, lam0], -1))
    linv, delta0, inv_lam0 = (stacked[..., i].copy() for i in range(3))
    delta_abs = np.abs(delta0[0])
    newton_node, delta_node = int(newton_ratio.argmax()), int(delta_abs.argmin())
    ratio_node = int(delta_ratio.argmin())
    zp = ZeroParamSolution(
        model, t0, branch, N, K, Jet.variable(t0, K),
        EtaSeries(0, _lambda_slots(model, jets, lam0, linv, N),
                  _slot_orders(K, N, model.shifted)[0], t0),
        Jet(t0, delta0),
        {"newton_ratio": float(newton_ratio.ravel()[newton_node]),
         "newton_node": newton_node,
         "delta_ratio": float(delta_ratio.ravel()[ratio_node]),
         "delta_ratio_node": ratio_node,
         "delta_min": float(delta_abs.ravel()[delta_node]),
         "delta_node": delta_node})
    vars(zp).update(_jets=jets, _lam0_inverse=inv_lam0)     # the cached properties' values
    return zp


def main_equation_residual(zp: ZeroParamSolution) -> EtaSeries:
    """lam'' - lam'^2/lam + lam'/t - eta^2 F(lam), as an eta-series."""
    d1 = zp.lam.derive()
    return d1.derive() - (d1 * d1) / zp.lam + d1 / zp.t_jet \
        - zp.model.F(zp.lam, zp.t_jet).shift_eta(2)


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


def riccati_residual(R: EtaSeries, zp: ZeroParamSolution) -> EtaSeries:
    """R^2 + R' - (2 lam'/lam - 1/t) R - (eta^2 dF(lam) - (lam'/lam)^2)."""
    lam, t = zp.lam, zp.t_jet
    ratio = lam.derive() / lam
    return R * R + R.derive() - (2 * ratio - 1 / t) * R \
        - (zp.model.dF(lam, t).shift_eta(2) - ratio * ratio)


def _riccati_terms(model, jets: DenseJets, lam: np.ndarray, step: int, orders, inv_lam0):
    """G = 2 lam'/lam - 1/t (slot k at eta^-k) and H = eta^2 dF(lam) -
    (lam'/lam)^2 (slot n at eta^(2-n)) as stacks.  With P = lam t^2 F,
    dF = t^-2 sum (d - 1) a t^p lam^(d-2) eta^-e over the terms of P.
    Their eta-products stop at ``orders``, the orders of R's slots: R_n
    reads slot n of H and slots below n of G, and no deeper order.  1/lam
    starts from the solve's 1 / lambda_0, ``inv_lam0``."""
    terms = [term for term in model.lam_poly() if term[2] != 0 and term[0] != 1]
    one = jets.zeros(len(lam))
    one[0, 0] = 1.0
    inv = jets.inverse(lam, step, orders, inv_lam0)
    ratio = jets.mul(jets.derive(lam), inv, step, step, orders)
    g = 2 * ratio
    g[0] -= jets.t_power(-1)
    powers = {-2: jets.mul(inv, inv, step, step, orders), -1: inv, 0: one, 1: lam}
    for k in range(2, max(d for d, *_ in terms) - 1):
        powers[k] = jets.mul(powers[k - 1], lam, step, step, orders)
    groups = {}
    for d, e, a, p in terms:
        term = (d - 1) * a * _eta_shift(powers[d - 2], e)
        groups[p - 2] = groups.get(p - 2, 0) + term
    h = _by_t_power(jets, groups)
    h[2:] -= jets.mul(ratio[:-2], ratio[:-2], step, step, orders[2:])
    return g, h


def riccati_solution(zp: ZeroParamSolution, sign: int = +1) -> RiccatiSolution:
    """Solve the Riccati equation along zp slot by slot; slots run from eta^1
    down to eta^-(N-1).  With R = sum R_n eta^(1-n), R_0 = sign sqrt(Delta)
    and, from the slot eta^(2-n) of R^2 + R' - G R - H = 0,

        R_n = -(sum_{0<i<n} R_i R_{n-i} + R_{n-1}' - (G R)_{n-1} - H_n) / (2 R_0).
    """
    if sign not in (1, -1):
        raise ValueError(f"sign must be +1 or -1, got {sign!r}")
    N, K, jets = zp.N, zp.K, zp._jets
    step = _step(zp.model)
    orders = _slot_orders(K, N, zp.model.shifted)[2]
    g, h = _riccati_terms(zp.model, jets, zp.lam.coeffs, step, orders, zp._lam0_inverse)
    buf = jets.zeros(2, N + 1)          # R, then G: both sums of R_n are one gather
    r, buf[1] = buf[0], g
    r[0] = jets.sqrt(zp.delta0.coeffs)
    if sign < 0:
        r[0] = -r[0]
    inv2r = jets.divide(jets.constant(-0.5), r[0])[None]
    for n, q in enumerate(orders.tolist()[1:], 1):
        rr, gr = jets.slots(buf, buf, ((0, 0, n, 1, n - 1, 1, q),
                                       (1, 0, n - 1, 0, n - 1, step, q)))
        acc = rr + jets.derive(r[n - 1])[:q + 1] - gr - h[n, :q + 1]
        r[n, :q + 1] = jets.products(acc[None], inv2r, q)[0]
    return RiccatiSolution(zp, sign, EtaSeries(1, r.copy(), orders, zp.t0))


# ---------------------------------------------------------------------------
# The odd Riccati slots as rational functions on the u-chart
# ---------------------------------------------------------------------------
#
# The slots of R at eta^1, eta^-1, eta^-3, ... flip with the sign of
# sqrt(Delta), and each is B_2n(u) sqrt(Delta) with B_2n rational on the
# u-chart (B_0 = 1).  With theta = t d/dt = (t / t'(u)) d/du, the equation
# for lambda times lambda t^2 reads lambda^2 theta^2 log lambda = eta^2
# P(lambda), P = lambda t^2 F.  Write lambda = lambda_0 G, G = 1 + sum_k g_k
# eta^-2k, and P(lambda) / lambda^2 = sum_j m_j G^j, m_j the sum of a t^p
# lambda_0^(d-2) over the terms of P with d - 2 = j:
#
#     theta^2 log lambda_0 + theta^2 log G = eta^2 sum_j m_j G^j.        (1)
#
# sum_j m_j = P(lambda_0) / lambda_0^2 = 0 and sum_j j m_j = P'(lambda_0) /
# lambda_0 = t^2 Delta = W_0 = u^a (u - u_s) T(u), so slot eta^(2-2k) of (1)
# gives g_k over W_0, and theta log lambda_0 = -sum p a t^p lambda_0^(d-2) /
# W_0 (theta t = t).  Neither has a pole at u_s: the division leaves a
# factor u - u_s in the numerator, which is divided out.  V = t R - theta log
# lambda turns the Riccati equation into V^2 + theta V = eta^2 U, U = sum_j j
# m_j G^j by (1), whose odd part t R_odd = eta sigma_0 B, sigma_0^2 = W_0,
# B = 1 + sum_k B_2k eta^-2k, solves
#
#     W_0 B^2 = U + eta^-2 (theta L / 2 - L^2 / 4),   L = theta log W_0 / 2 + theta log B.
#
# Each quantity is kept exact as a Laurent polynomial in u times powers of
# u - u_s and T (_FamilyRationals).  B_2n comes out over (u - u_s)^n
# T^(5n); its numerator has degree (5 deg T - 1) n, a zero of order 2n at a
# finite point over t = infinity (D6's u = 0) and a simple zero at each
# double pole, which are divided out so that B_2n keeps its digits there.
#
# This runs once per family and n_max (_exact_numerators), at unit scale and
# in exact rational arithmetic (``ExactLaurent``, columns the powers of the
# family's free ratio X; D6: c_p = 1, c_m = X; D7: c = 1, one column), from
# the chart class alone: its P (``leading``, which the models and branches
# also read) and its maps, at its exact ``unit_args``.  Each factor that
# must divide a numerator leaves a zero remainder, and each coefficient that
# must vanish is zero, or SlotStructureError names the slot.  The table is
# rounded to nearest once per number type (_slot_table): to float64 for
# every chart, and to the 80 bits of np.clongdouble for the charts where the
# float64 read cancels at some node (the contour oracle's second read).
# B_2n is homogeneous and even in c_m (c_inf <-> c_0 maps lambda to t /
# lambda), so a chart evaluates the table at (c_m / c_p)^2 and rescales it
# in the table's number type (``numerator_scales`` of the charts).


class SlotStructureError(ArithmeticError):
    """An exact identity of the odd-slot recursions fails at unit scale: a
    factor that must divide a numerator leaves a remainder, or a coefficient
    that must vanish does not."""


class _FamilyRationals:
    """Exact arithmetic, at unit scale, on the rational functions of a
    family's u-chart with poles at u = 0, at the simple pole u_s and at the
    zeros of T only: each is a tuple (L, s, g) for L(u) (u - u_s)^s T(u)^g,
    L an ``ExactLaurent``.  A sum brings its terms to the smallest s and g;
    theta = (t / t'(u)) d/du = (u - u_s) h(u) / T(u) d/du maps the family
    into itself.  u - u_s, the double poles and T are q's factors of power
    -1, -2 and 3, t^2 Delta = t^2 q / t'^2 = u^a (u - u_s) T."""

    def __init__(self, chart_cls):
        t, dt, q = chart_cls.t_map, chart_cls.dt_du_map, chart_cls.q_map
        f, double, T = (Factored(1, **{name: 1 for name, e in q.powers.items() if e == k})
                        for k in (-1, -2, 3))
        self.a = (t * t * q / (dt * dt * f * T)).powers.get("u", 0)
        self._factors = chart_cls.factors(*chart_cls.unit_args)
        self.h, self.double_poles, f, T = (self.unit(m) for m in (t / dt / f * T, double, f, T))
        self.base = {"f": f, "T": T}
        self.f_over_u, self.over_u_a = f * ExactLaurent([[1]], -1), ExactLaurent([[1]], -self.a)
        self.f_dT = self.f_over_u * T.theta()
        self._powers = {"f": [ExactLaurent([[1]])], "T": [ExactLaurent([[1]])]}

    def unit(self, m) -> ExactLaurent:
        """The declared map m at unit scale, with no negative power but of u."""
        num, lo = m.expand(self._factors)
        return sum(a * ExactLaurent([[1]], lo + i) for i, a in enumerate(num))

    def power(self, name: str, k: int) -> ExactLaurent:
        powers = self._powers[name]
        while len(powers) <= k:
            powers.append(powers[-1] * self.base[name])
        return powers[k]

    @staticmethod
    def mul(x, y):
        return x[0] * y[0], x[1] + y[1], x[2] + y[2]

    @staticmethod
    def scale(x, a):
        return x[0] * a, x[1], x[2]

    def add(self, *xs):
        if not xs:
            return ExactLaurent([[0]]), 0, 0
        s, g = min(x[1] for x in xs), min(x[2] for x in xs)
        terms = []
        for L, f_exp, t_exp in xs:
            if f_exp != s:
                L = L * self.power("f", f_exp - s)
            if t_exp != g:
                L = L * self.power("T", t_exp - g)
            terms.append(L)
        return sum(terms[1:], terms[0]), s, g

    def theta(self, x):
        """theta L f^s T^g = h f^s T^(g-2) (T (f L' + s L) + g f T' L), with
        T^(g-1) and no T' term for g = 0."""
        L, s, g = x
        inner = self.f_over_u * L.theta() + s * L
        if g:
            inner = self.base["T"] * inner + g * self.f_dT * L
        return self.h * inner, s, g - 2 if g else g - 1

    def over_w0(self, x, deflate: str | None = None):
        """x / W_0, W_0 = u^a (u - u_s) T; with ``deflate``, the name of an
        x / W_0 without a pole at u_s, with the factor u - u_s divided out."""
        L, s, g = x
        if deflate is None:
            return L * self.over_u_a, s - 1, g - 1
        L, exact = L.divide(self.base["f"])
        if not exact:
            raise SlotStructureError(f"u - u_s does not divide the numerator of {deflate}")
        return L * self.over_u_a, s, g - 1


@dataclass(frozen=True)
class OddSlotRatios:
    """B_2, ..., B_2N of one u-chart: the slot of R at eta^(1-2n) is B_2n(u)
    sqrt(Delta(u)), and the integrand of the Voros coefficient W_n is
    B_2n(u) sqrt(q(u)) du.

        B_2n(u) = prod_z (u - z) M_n(u) / ((u - u_s)^n T(u)^(5n)),

    z over ``zeros[n - 1]``: 2n times each finite point over t = infinity,
    and each double pole once.  ``numerators[n - 1]`` holds M_n from u^0 up,
    as does ``coefficients[0, n - 1]`` padded (reversed in ``coefficients[1]``),
    with the moduli of each one's table terms summed in ``weights``; read-only.
    The stacks are in one complex number type: complex128, or clongdouble
    for the copy a chart builds where its complex128 read is ill-conditioned
    (``odd_slot_ratios``'s ``dtype``); ``evaluate`` computes in that type."""

    simple_pole_u: complex
    turning_polynomial: np.ndarray
    numerators: tuple
    zeros: tuple
    coefficients: np.ndarray
    weights: np.ndarray

    def __call__(self, x, inverted: bool = False) -> np.ndarray:
        """B_2n at u = x, or at u = 1/x with ``inverted``: shape (N, len(x))."""
        return self.evaluate(x, inverted)[0]

    def evaluate(self, x, inverted: bool = False) -> tuple:
        """(B_2n, condition) at the points u = x of a 1-d array, or u = 1/x
        with ``inverted``, where the reversed numerators are read in x, so
        that no power of a large u is formed; both in the stacks' number
        type.  ``condition`` holds per point the largest over n of sum_j w_j
        |u^j| |prod_z (u - z)| / |(u - u_s)^n T^5n| over max(1, |B_2n|), w_j
        the ``weights`` of M_n: the factor by which the rounding of the
        table's terms grows in B_2n there, relative to 1 or B_2n, counting
        every term where they cancel."""
        stack, weights = self.coefficients[int(inverted)], self.weights[int(inverted)]
        x = np.asarray(x, stack.dtype)
        ax = np.abs(x)
        T = self.turning_polynomial
        if inverted:
            f, tx = 1 - self.simple_pole_u * x, np.polyval(T, x)
        else:
            f, tx = x - self.simple_pole_u, np.polyval(T[::-1], x)
        # One Horner pass in x for the numerators and in |x| for the sums of
        # their terms' moduli, these as complex numbers of imaginary part 0,
        # which take the same roundings as in real arithmetic.
        N = len(stack)
        var = np.empty((2 * N, len(x)), stack.dtype)
        var[:N], var[N:] = x, ax
        acc = np.zeros_like(var)
        for m in np.concatenate([stack, weights]).T[::-1, :, None]:
            acc *= var
            acc += m
        value, terms = acc[:N], acc[N:].real
        values, condition = [], np.zeros(len(x), ax.dtype)
        for n, (M, zeros) in enumerate(zip(self.numerators, self.zeros), 1):
            if inverted:
                # The powers of u in numerator and denominator leave x^(2n).
                power = n * (1 + 5 * (len(T) - 1)) - len(zeros) - (len(M) - 1)
                factor = x ** power * (1 - np.multiply.outer(x, zeros)).prod(-1)
            else:
                factor = np.subtract.outer(x, zeros).prod(-1)
            factor = factor / (f ** n * tx ** (5 * n))
            values.append(value[n - 1] * factor)
            condition = np.maximum(condition, terms[n - 1] * np.abs(factor)
                                   / np.maximum(1.0, np.abs(values[-1])))
        return np.array(values, stack.dtype), condition


def odd_slot_ratios(params, n_max: int = 2, chart=None, dtype=np.complex128) -> OddSlotRatios:
    """B_2n(u) for n = 1..n_max on the u-chart of ``params`` (``chart`` if
    given): the family's table rounded to the complex number type ``dtype``
    (complex128 or clongdouble) and rescaled by ``chart.numerator_scales``
    in that type.  The first call per family builds the table exactly, and
    raises SlotStructureError where a factor that must divide a numerator
    leaves a remainder or a coefficient that must vanish does not."""
    if n_max < 1:
        raise ValueError(f"n_max={n_max}: B_2n runs over n = 1..n_max, n_max >= 1")
    if chart is None:
        chart = u_chart(params)
    real = np.finfo(dtype).dtype.type
    table = _slot_table(type(chart), n_max, real)
    width = len(table[-1][0])
    coefficients, weights = np.zeros((2, n_max, width), dtype), np.zeros((2, n_max, width), real)
    for n, (P, size) in enumerate(table, 1):
        scales = chart.numerator_scales(n, *P.shape, dtype)
        for out, row in ((coefficients, (P * scales).sum(1)),
                         (weights, (size * np.abs(scales)).sum(1))):
            out[0, n - 1, :len(row)], out[1, n - 1, :len(row)] = row, row[::-1]
    _read_only(coefficients, weights)
    zeros = tuple(np.array([*chart.finite_infinities_u.values()] * (2 * n)
                           + [*chart.double_poles_u.values()], complex)
                  for n in range(1, n_max + 1))
    return OddSlotRatios(chart.simple_pole_u, chart.turning_polynomial,
                         tuple(coefficients[0, n, :len(P)] for n, (P, _) in enumerate(table)),
                         zeros, coefficients, weights)


@lru_cache(maxsize=None)
def _slot_table(chart_cls, n_max: int, real) -> tuple:
    """Per n, (P, |P|), read-only: P[j, k] is the coefficient of u^j
    ratio^(2k) in M_n at unit scale, ``_exact_numerators`` rounded to
    nearest in the binary real number type ``real``."""
    bits, out = np.finfo(real).nmant, []
    for M in _exact_numerators(chart_cls, n_max):
        num = M.padded(0)[:, ::2]
        m, s = zip(*(_rounded(p, M.den, bits) for p in num.ravel()))
        P = np.ldexp(np.array(m, real), -np.array(s)).reshape(num.shape)
        out.append(_read_only(P, np.abs(P)))
    return tuple(out)


def _rounded(p: int, q: int, bits: int) -> tuple:
    """(m, s) with m 2^-s the number nearest p / q, q > 0, whose mantissa has
    ``bits`` bits after the point, ties to even (subnormals aside): for p !=
    0, |m| is the integer nearest |p| 2^s / q in [2^bits, 2^(bits + 1)]."""
    a = abs(p)
    e = a.bit_length() - q.bit_length()          # 2^(e - 1) < a / q < 2^(e + 1)
    if a << max(-e, 0) < q << max(e, 0):
        e -= 1                                   # now 2^e <= a / q < 2^(e + 1)
    s = bits - e
    den = q << max(-s, 0)
    m, r = divmod(a << max(s, 0), den)
    m += 2 * r > den or 2 * r == den and m % 2
    return (m if p > 0 else -m), s


@lru_cache(maxsize=None)
def _exact_numerators(chart_cls, n_max: int) -> tuple:
    """M_1, ..., M_n_max (see ``OddSlotRatios``) at unit scale, exactly, from
    the chart class's declared maps and its ``leading`` P at ``unit_args``."""
    A = _FamilyRationals(chart_cls)
    m, dm = {}, []
    for d, a, p in chart_cls.leading(*chart_cls.unit_args):
        term = a * A.unit(chart_cls.lambda0_map ** (d - 2) * chart_cls.t_map ** p)
        m.setdefault(d - 2, []).append((term, 0, 0))
        dm.append((term * p, 0, 0))
    m = {j: A.add(*terms) for j, terms in m.items()}
    theta_log_lam0 = A.over_w0(A.scale(A.add(*dm), -1), deflate="theta log lambda_0")

    one = ExactLaurent([[1]]), 0, 0
    g, logs = [one], [A.add()]
    g_powers = {j: [one] for j in m}
    for k in range(1, n_max + 1):
        for j, pw in g_powers.items():   # [G^j]_k without g_k: J. C. P. Miller's recurrence
            pw.append(A.add(*(A.scale(A.mul(g[i], pw[k - i]), Fraction((j + 1) * i - k, k))
                              for i in range(1, k))))
        rhs = A.theta(theta_log_lam0 if k == 1 else A.theta(logs[k - 1]))
        g.append(A.over_w0(A.add(rhs, *(A.scale(A.mul(m[j], pw[k]), -1)
                                        for j, pw in g_powers.items())), deflate=f"g_{k}"))
        for j, pw in g_powers.items():
            pw[k] = A.add(pw[k], A.scale(g[k], j))
        logs.append(_log_slot(A, logs, g, k))

    half, quarter = Fraction(1, 2), Fraction(1, 4)
    w0 = ExactLaurent([[1]], A.a), 1, 1
    L0 = A.scale(A.over_w0(A.theta(w0)), half)
    B, logs, dlogs = [one], [A.add()], [None]
    for k in range(1, n_max + 1):
        U = A.add(*(A.scale(A.mul(m[j], pw[k]), j) for j, pw in g_powers.items()))
        if k == 1:
            V = (A.scale(A.theta(L0), half), A.scale(A.mul(L0, L0), -quarter))
        else:
            V = (A.scale(A.theta(dlogs[k - 1]), half), A.scale(A.mul(L0, dlogs[k - 1]), -half),
                 *(A.scale(A.mul(dlogs[i], dlogs[k - 1 - i]), -quarter) for i in range(1, k - 1)))
        B.append(A.add(A.scale(A.over_w0(A.add(U, *V)), half),
                       *(A.scale(A.mul(B[i], B[k - i]), -half) for i in range(1, k))))
        logs.append(_log_slot(A, logs, B, k))
        dlogs.append(A.theta(logs[k]))
    return tuple(_numerator(A, chart_cls, B[n], n) for n in range(1, n_max + 1))


def _log_slot(A, logs, series, k):
    """Slot k of log of 1 + sum_i series[i] eta^-2i, from the slots below it."""
    return A.add(series[k], *(A.scale(A.mul(logs[i], series[k - i]), Fraction(-i, k))
                              for i in range(1, k)))


def _numerator(A, chart_cls, b, n: int) -> ExactLaurent:
    """M_n of B_2n = b (see ``OddSlotRatios``): b's numerator, with powers
    of u from u^low to u^deg only, over u^low and the double poles; its odd
    powers of the ratio vanish."""
    L, s, g = b
    if (s, g) != (-n, -5 * n):
        raise SlotStructureError(f"B_{2 * n} is not over (u - u_s)^{n} T^{5 * n}")
    T = A.base["T"]
    deg, low = (5 * (T.lo + len(T.c) - 1) - 1) * n, 2 * n * len(chart_cls.finite_infinities_u)
    if L.lo < low or L.lo + len(L.c) - 1 > deg:
        raise SlotStructureError(f"B_{2 * n}'s numerator has powers of u outside u^{low}..u^{deg}")
    M, exact = (L * ExactLaurent([[1]], -low)).divide(A.double_poles)
    if not exact:
        raise SlotStructureError(f"the double poles do not divide B_{2 * n}'s numerator")
    if M.c[:, 1::2].any():
        raise SlotStructureError(f"M_{n} has an odd power of the ratio")
    return M


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
    lam2 = lam * lam
    inv_lam2 = lam2.inverse()
    inv_lam3 = (lam2 * lam).inverse()
    common = ((ric.R * t) * inv_lam2 * 0.5 - (lam.derive() * t) * inv_lam3).shift_eta(-1)
    coupling = zp.model.coupling(lam) - EtaSeries.inverse_eta(lam)
    return common - coupling * inv_lam2 * 0.5 + t * inv_lam3


# ---------------------------------------------------------------------------
# Hamiltonians
# ---------------------------------------------------------------------------

def hamiltonian(zp: ZeroParamSolution) -> EtaSeries:
    """H with t H the polynomial Hamiltonian evaluated on (lam, mu)."""
    return zp.model.t_hamiltonian(zp.lam, zp.mu, zp.t_jet) / zp.t_jet


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
