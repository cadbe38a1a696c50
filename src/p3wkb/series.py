"""Formal power series in the large parameter: eta-expansions whose
coefficients are jets in t.

An :class:`EtaSeries` stores the coefficients of eta^(offset),
eta^(offset-1), ... as one complex array of jets at one base point or a
batch of them, and computes with the ``DenseJets`` kernels.  On it sit:

* the zero-parameter formal solution lambda^(0) = lambda_0 + eta^-2 lambda_2
  + ... of the second-order equation: lambda_0 by Newton's method, on its
  value and then on jets of doubling order, and every later slot by the
  term-by-term recursion, in which the new slot enters linearly,
* the Riccati series R = eta R_{-1} + R_0 + eta^-1 R_1 + ... attached to
  the linearization along lambda^(0), by the same kind of recursion,
* the conjugate-momentum series, Hamiltonians, and the parameter-shift
  (Backlund) transformations,
* the analogous objects for the degenerate family (one parameter c).

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
from functools import cached_property, lru_cache, partial

import numpy as np

from .algebra import (
    BranchPoint,
    Parameters,
    d7_lambda0_branches,
    lambda0_branches,
)
from .numerics import DenseJets, Jet, _read_only

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


def _jet_rows(jet: Jet, batch) -> np.ndarray:
    """A Jet's coefficients as one array of shape (order + 1, *batch)."""
    rows = np.empty((jet.order + 1,) + batch, complex)
    for k, c in enumerate(jet.coeffs):
        rows[k] = c
    return rows


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
        row = self.coeffs[m, :self.orders[m] + 1]
        return Jet(self.t0, tuple(row.tolist() if row.ndim == 1 else row))

    def slot_value(self, power: int):
        return self.slot(power).value()

    def slot_values(self) -> dict:
        return {p: self.slot_value(p) for p in self.powers()}

    @staticmethod
    def from_slots(pairs: dict, base_point, jet_order: int) -> "EtaSeries":
        """Build from a {power: Jet | scalar} mapping; gaps become zeros."""
        hi, batch = max(pairs), np.shape(base_point)
        coeffs = np.zeros((hi - min(pairs) + 1, jet_order + 1) + batch, complex)
        orders = np.full(len(coeffs), jet_order)
        for p, v in pairs.items():
            if isinstance(v, Jet):
                orders[hi - p] = min(v.order, jet_order)
                coeffs[hi - p, :orders[hi - p] + 1] = _jet_rows(v, batch)[:jet_order + 1]
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

    # -- ring operations ----------------------------------------------------

    def __add__(self, other):
        other = EtaSeries.lift(other, self)
        hi, lo = max(self.offset, other.offset), max(self.lowest_power, other.lowest_power)
        K = min(self.K, other.K)
        coeffs = np.zeros((hi - lo + 1, K + 1) + self.coeffs.shape[2:], complex)
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
            return EtaSeries(self.offset, DenseJets(self.t0, K).products(
                self.coeffs[:, :K + 1], _jet_rows(other, np.shape(self.t0))[None, :K + 1]),
                np.minimum(self.orders, K), self.t0)
        if not isinstance(other, EtaSeries):
            return replace(self, coeffs=self.coeffs * other)
        n, K = min(self.n_slots, other.n_slots), min(self.K, other.K)
        orders = np.minimum(np.minimum.accumulate(self.orders[:n]),
                            np.minimum.accumulate(other.orders[:n]))
        orders = np.minimum(orders, K)
        coeffs = DenseJets(self.t0, K).mul(self.coeffs[:n, :K + 1], other.coeffs[:n, :K + 1],
                                           orders=orders)
        return EtaSeries(self.offset + other.offset, coeffs, orders, self.t0)

    __rmul__ = __mul__

    def inverse(self) -> "EtaSeries":
        """1 / self; a vanishing leading value raises SingularJetError."""
        orders = np.minimum.accumulate(self.orders)
        return EtaSeries(-self.offset, DenseJets(self.t0, self.K).inverse(self.coeffs, orders=orders),
                         orders, self.t0)

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

    @property
    def shifted(self) -> bool:
        return bool(self.shift_inf or self.shift_0)

    def branches(self, t):
        return lambda0_branches(t, self.p)

    def lam_poly(self) -> tuple:
        """lam t^2 F(lam) = lam^4 - c_inf lam^3 + c_0 t lam - t^2 as terms
        (d, e, a, p), each a t^p lam^d eta^-e."""
        return ((4, 0, 1, 0), (3, 0, -self.p.c_inf, 0), (3, 1, -self.shift_inf, 0),
                (1, 0, self.p.c_0, 1), (1, 1, self.shift_0, 1), (0, 0, -1, 2))

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
        em = EtaSeries.lift(0, lam, 1)
        lam2 = lam * lam
        return (lam2 * (mu * mu) - (lam2 + (c0 - em) * lam - t) * mu
                + 0.5 * (ci + c0 - em) * lam)

    def t_hamiltonian_dlam(self, lam: EtaSeries, mu: EtaSeries, t: Jet) -> EtaSeries:
        ci, c0 = self.c_series(lam)
        em = EtaSeries.lift(0, lam, 1)
        return (2 * lam * (mu * mu) - (2 * lam + (c0 - em)) * mu
                + 0.5 * (ci + c0 - em))

    def backlund(self, lam: EtaSeries, mu: EtaSeries, t: Jet, which: int) -> tuple:
        ci, c0 = self.c_series(lam)
        em = EtaSeries.lift(0, lam, 1)
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
    """The one-parameter degenerate equation, optional shift c -> c + shift eta^-1."""

    c: complex
    shift: int = 0

    @property
    def shifted(self) -> bool:
        return bool(self.shift)

    def branches(self, t):
        return d7_lambda0_branches(t, self.c)

    def lam_poly(self) -> tuple:
        """lam t^2 F(lam) = -2 lam^3 + c t lam - t^2 as (d, e, a, p) terms."""
        return ((3, 0, -2, 0), (1, 0, self.c, 1), (1, 1, self.shift, 1), (0, 0, -1, 2))

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
        em = EtaSeries.lift(0, lam, 1)
        return lam * lam * (mu * mu) - (c - em) * lam * mu + t * mu + lam

    def t_hamiltonian_dlam(self, lam: EtaSeries, mu: EtaSeries, t: Jet) -> EtaSeries:
        c = self.c_series(lam)
        return 2 * lam * (mu * mu) - (c - EtaSeries.lift(0, lam, 1)) * mu + 1

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
    return D7Model(complex(params))


#: Larger batches are solved in chunks of this many base points, which
#: bounds the solvers' working arrays while keeping the passes of the slot
#: recursions, whose numpy calls cost per pass, few.  Measured on the Voros
#: oracle's largest batch (2,752 nodes at N = 4, K = 6): the oracle call
#: peaks at 14 MB of allocations with chunks of 1024, 23 MB with 2048.
_CHUNK_NODES = 1024


def _by_chunks(solve, t0, *per_node):
    """``solve(t0, *per_node)`` over chunks of at most ``_CHUNK_NODES``
    base points, its arrays joined again.  Per-node arrays (in and out)
    end in the batch axes of t0.  Chunks bound the working memory of large
    batches; one base point is one chunk."""
    if not isinstance(t0, np.ndarray):
        return solve(t0, *per_node)
    nb = t0.ndim
    flat = [np.reshape(a, np.shape(a)[:np.ndim(a) - nb] + (-1,)) for a in per_node]
    parts = [solve(t0.reshape(-1)[i:i + _CHUNK_NODES], *(a[..., i:i + _CHUNK_NODES] for a in flat))
             for i in range(0, t0.size, _CHUNK_NODES)]
    return tuple(np.concatenate(arrays, axis=-1).reshape(arrays[0].shape[:-1] + t0.shape)
                 for arrays in zip(*parts))


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


# ---------------------------------------------------------------------------
# Zero-parameter solution
# ---------------------------------------------------------------------------

def _lambda0_jet(model, jets: DenseJets, seed, index):
    """The jet of lambda_0, the root of P(lam) = lam t^2 F(lam) at
    eta^-1 = 0 through ``seed``, with P'(lambda_0) and per node the Newton
    gate's residual-to-scale ratio and the turning-point gate's ratio.
    ``index`` holds each base point's flat index in the whole batch, by
    which a gate's error names the failing node.

    Newton runs on the values first; then each jet step doubles the order
    (from a root correct through order q, one step is correct through
    2q + 1) until it reaches K."""
    coeff = jets.zeros(1 + max(d for d, *_ in model.lam_poly()))
    for d, e, a, p in model.lam_poly():
        if e == 0:
            coeff[d] += a * jets.t_power(p)
    top = len(coeff) - 1

    def horner(lam):
        """P(lam) and P'(lam) for jets of the order of lam."""
        q1 = lam.shape[0]
        vd = np.stack([np.zeros_like(lam), coeff[top, :q1]])
        for d in range(top - 1, -1, -1):
            nxt = jets.products(vd, lam[None])
            nxt[0] += vd[1]
            nxt[1] += coeff[d, :q1]
            vd = nxt
        return vd[1], vd[0]

    lam = np.asarray(seed, complex)[None]
    for _ in range(6):
        val, dval = horner(lam)
        lam = lam - val / dval
    # At a turning point lambda_0 is a double root, P'(lambda_0) is rounding
    # next to the terms of P, and the jet steps would divide by it.  The gate
    # is relative to the largest monomial |a lam^d t^p| of P at the node.
    terms = np.abs([a * lam[0] ** d * jets.t0 ** p
                    for d, e, a, p in model.lam_poly() if e == 0])
    delta_ratio = np.abs(lam[0] * horner(lam)[1][0]) / terms.max(axis=0)
    if np.min(delta_ratio) < 1e-6:
        node = int(np.argmin(delta_ratio))
        raise ConditioningError(
            f"|lambda_0 P'(lambda_0)| is {np.min(delta_ratio):.2e} of P's largest term "
            f"at node {np.ravel(index)[node]}, t0={np.ravel(jets.t0)[node]}: "
            "too close to a turning point")
    q = 0
    while q < jets.K:
        q = min(2 * q + 1, jets.K)
        grown = np.zeros((q + 1,) + jets.batch, complex)
        grown[:len(lam)] = lam
        val, dval = horner(grown)
        lam = grown - jets.divide(val, dval)
    val, dval = horner(lam)
    # Gate the residual per node against the size of the polynomial's own
    # terms (lam * P'(lam) dominates the leading monomial), so batches that
    # mix very different |t| scales are judged each at their own scale.
    res = np.abs(val).max(axis=0)
    scale = np.abs(jets.products(lam[None], dval[None])[0]).max(axis=0)
    ratio = res / np.maximum(1.0, np.maximum(scale, np.abs(jets.t0) ** 2))
    failed = ratio > 1e-8
    if np.any(failed):
        node = int(np.argmax(np.where(failed, ratio, 0.0)))
        raise ConditioningError(
            f"jet Newton iteration for lambda_0 did not converge at node "
            f"{np.ravel(index)[node]}, t0={np.ravel(jets.t0)[node]}: residual "
            f"{np.ravel(ratio)[node]:.2e} of its scale (gate 1e-8)")
    return lam, dval, ratio, delta_ratio


def _lambda_slots(model, jets: DenseJets, lam0, dP, N: int):
    """The stack of the slots lambda_0..lambda_N.

    Multiplied by lam t^2, the equation reads eta^2 P(lam) = lam theta^2 lam
    - (theta lam)^2.  At eta^(2-m) the left side is linear in lambda_m with
    coefficient P'(lambda_0) = lambda_0 t^2 Delta, and the right side holds
    only slots up to m - 2.  The powers of lam keep running slots, so each
    new slot costs O(m) jet products; theta lam = t lam' is kept the same way.
    Slot m of lam and of the powers is computed through the order
    ``_slot_orders`` certifies for lambda_m and is zero above it."""
    terms = [term for term in model.lam_poly() if term[2] != 0]
    top = max(d for d, *_ in terms)
    step = _step(model)
    orders = _slot_orders(jets.K, N, model.shifted)[0]
    pw = jets.zeros(top + 1, N + 1)
    pw[0, 0, 0] = 1.0
    pw[1, 0] = lam0
    for d in range(2, top + 1):
        pw[d, 0] = jets.products(pw[d - 1, :1], lam0[None])[0]
    # d lambda_0^(d-1): how slot m of lam^d moves with lambda_m, d = 2..D.
    grow = np.arange(2, top + 1).reshape((-1,) + (1,) * (1 + len(jets.batch))) * pw[1:top, 0]
    lam = pw[1]
    th1, th2 = jets.zeros(N + 1), jets.zeros(N + 1)
    th1[0] = jets.theta(lam0)
    th2[0] = jets.theta(th1[0])
    linv = jets.divide(jets.constant(1.0), dP)[None]
    for m in range(step, N + 1, step):
        q = orders[m]
        for d in range(2, top + 1):
            pw[d, m, :q + 1] = jets.slot(pw[d - 1], lam, m, step, m, step, order=q)   # lambda_m still 0
        groups = {}
        for d, e, a, p in terms:
            if m >= e:
                groups[p] = groups.get(p, 0) + a * pw[d, m - e:m - e + 1]
        rhs = -_by_t_power(jets, groups, q)[0]
        if m >= 2:
            rhs += jets.slot(lam, th2, m - 2, 0, m - 2, step, order=q) \
                - jets.slot(th1, th1, m - 2, 0, m - 2, step, order=q)
        lam[m, :q + 1] = jets.products(rhs[None], linv, q)[0]
        th1[m] = jets.theta(lam[m])
        th2[m] = jets.theta(th1[m])
        pw[2:, m, :q + 1] += jets.products(grow, lam[m][None], q)
    return lam


@dataclass(frozen=True)
class ZeroParamSolution:
    """The formal solution pair (lambda-series, mu-series) at the base
    points ``t0`` (one complex, or an array solved as one batch): ``lam``
    holds lambda_0 .. lambda_N, each slot of it and of mu zero above the
    order ``_slot_orders`` certifies; ``t_jet`` and ``delta0`` are the
    jets of t and of Delta, all of order K.

    Only lambda is solved eagerly.  ``mu`` follows from lambda and the
    model and is built on first access, so solves whose callers read only
    lambda or R (the Voros oracle among them) never pay for it; a copy
    made with ``dataclasses.replace`` derives its own mu from its own lam.

    ``diagnostics`` records what the conditioning gates measured: the worst
    Newton residual-to-scale ratio of lambda_0 (``newton_ratio``, gate
    1e-8) at node ``newton_node``; the smallest turning-point ratio
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

    @property
    def lambda0_jet(self) -> Jet:
        return self.lam.slot(0)

    @cached_property
    def mu(self) -> EtaSeries:
        """The mu-series, solved from lam chunk by chunk like lam itself."""
        mu, = _by_chunks(partial(_mu_arrays, self.model, self.K), self.t0, self.lam.coeffs)
        return EtaSeries(0, mu, _slot_orders(self.K, self.N, self.model.shifted)[1], self.t0)


def _zero_param_arrays(model, N: int, K: int, t0, seed, index):
    """The stack of lambda, the jet of Delta, and per node the Newton
    residual-to-scale ratio, the turning-point ratio and |Delta|, for base
    points t0 (flat indices ``index`` in the whole batch)."""
    jets = DenseJets(t0, K)
    lam0, dP, newton_ratio, delta_ratio = _lambda0_jet(model, jets, seed, index)
    delta0 = jets.divide(dP, jets.times_t(jets.times_t(lam0)))
    lam = _lambda_slots(model, jets, lam0, dP, N)
    return lam, delta0, newton_ratio, delta_ratio, np.abs(delta0[0])


def _mu_arrays(model, K: int, t0, lam):
    """The stack of mu for base points t0 from the stack of lambda:
    mu = (eta^-1 theta lam + Q(lam)) / (2 lam^2), Q from the model's table.
    Its products stop at the orders ``_slot_orders`` certifies for mu."""
    jets = DenseJets(t0, K)
    step = _step(model)
    orders = _slot_orders(K, len(lam) - 1, model.shifted)[1]
    one = jets.zeros(len(lam))
    one[0, 0] = 1.0
    powers = (one, lam, jets.mul(lam, lam, step, step, orders))
    groups = {}
    for d, e, a, p in model.mu_poly():
        groups[p] = groups.get(p, 0) + a * _eta_shift(powers[d], e)
    return (jets.mul(_eta_shift(jets.theta(lam), 1) + _by_t_power(jets, groups),
                     jets.inverse(2 * powers[2], step, orders), 1, step, orders),)


def zero_param_solution(t0: complex, branch: BranchPoint, p=None, N: int = 6,
                        K: int | None = None, model=None) -> ZeroParamSolution:
    """Build the zero-parameter solution along ``branch`` at ``t0``: jets of
    lambda_0, lambda_2, ..., lambda_N (odd slots vanish identically unless the
    model shifts parameters by eta^-1); the matching mu-series is built when
    first read.

    ``t0`` and ``branch.lambda0`` may be arrays of base points, solved in
    one batch.  K is the jet order of lambda_0; each eta-slot costs two
    derivatives, so K >= N + 2 is required (default N + 4)."""
    if model is None:
        model = D6Model(p)
    if K is None:
        K = N + 4
    if K < N + 2:
        raise OrderBudgetError(f"jet order K={K} too small for N={N}; need K >= N + 2")
    if not isinstance(t0, np.ndarray):
        t0 = complex(t0)
    lam, delta0, newton_ratio, delta_ratio, delta_abs = _by_chunks(
        partial(_zero_param_arrays, model, N, K), t0,
        np.broadcast_to(branch.lambda0, np.shape(t0)),
        np.arange(np.size(t0)).reshape(np.shape(t0)))
    newton_node, delta_node = int(np.argmax(newton_ratio)), int(np.argmin(delta_abs))
    ratio_node = int(np.argmin(delta_ratio))
    return ZeroParamSolution(
        model, t0, branch, N, K, Jet.variable(t0, K),
        EtaSeries(0, lam, _slot_orders(K, N, model.shifted)[0], t0),
        EtaSeries(0, delta0[None], np.array([K]), t0).slot(0),
        {"newton_ratio": float(np.ravel(newton_ratio)[newton_node]),
         "newton_node": newton_node,
         "delta_ratio": float(np.ravel(delta_ratio)[ratio_node]),
         "delta_ratio_node": ratio_node,
         "delta_min": float(np.ravel(delta_abs)[delta_node]),
         "delta_node": delta_node})


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

    @property
    def r_even(self) -> EtaSeries:
        return self.R.parity_part(0)

    def flipped(self) -> "RiccatiSolution":
        Rf = self.r_even - self.r_odd
        return replace(self, sign=-self.sign, R=Rf)


def riccati_residual(R: EtaSeries, zp: ZeroParamSolution) -> EtaSeries:
    """R^2 + R' - (2 lam'/lam - 1/t) R - (eta^2 dF(lam) - (lam'/lam)^2)."""
    lam, t = zp.lam, zp.t_jet
    ratio = lam.derive() / lam
    return R * R + R.derive() - (2 * ratio - 1 / t) * R \
        - (zp.model.dF(lam, t).shift_eta(2) - ratio * ratio)


def _riccati_terms(model, jets: DenseJets, lam: np.ndarray, step: int, orders):
    """G = 2 lam'/lam - 1/t (slot k at eta^-k) and H = eta^2 dF(lam) -
    (lam'/lam)^2 (slot n at eta^(2-n)) as stacks.  With P = lam t^2 F,
    dF = t^-2 sum (d - 1) a t^p lam^(d-2) eta^-e over the terms of P.
    Their eta-products stop at ``orders``, the orders of R's slots: R_n
    reads slot n of H and slots below n of G, and no deeper order."""
    terms = [term for term in model.lam_poly() if term[2] != 0 and term[0] != 1]
    one = jets.zeros(len(lam))
    one[0, 0] = 1.0
    inv = jets.inverse(lam, step, orders)
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
    h[2:] -= jets.mul(ratio, ratio, step, step, orders)[:-2]
    return g, h


def riccati_solution(zp: ZeroParamSolution, sign: int = +1) -> RiccatiSolution:
    """Solve the Riccati equation along zp slot by slot; slots run from eta^1
    down to eta^-(N-1).  With R = sum R_n eta^(1-n), R_0 = sign sqrt(Delta)
    and, from the slot eta^(2-n) of R^2 + R' - G R - H = 0,

        R_n = -(sum_{0<i<n} R_i R_{n-i} + R_{n-1}' - (G R)_{n-1} - H_n) / (2 R_0).
    """
    N, K = zp.N, zp.K
    r, = _by_chunks(partial(_riccati_arrays, zp.model, N, K, sign), zp.t0,
                    zp.lam.coeffs, np.array(zp.delta0.coeffs))
    return RiccatiSolution(zp, sign, EtaSeries(1, r, _slot_orders(K, N, zp.model.shifted)[2], zp.t0))


def _riccati_arrays(model, N: int, K: int, sign: int, t0, lam, delta0):
    """The stack of R for base points t0, from the stacks of lambda and Delta."""
    jets = DenseJets(t0, K)
    step = _step(model)
    orders = _slot_orders(K, N, model.shifted)[2]
    g, h = _riccati_terms(model, jets, lam, step, orders)
    r = jets.zeros(N + 1)
    r[0] = jets.sqrt(delta0)
    if sign < 0:
        r[0] = -r[0]
    inv2r = jets.divide(jets.constant(-0.5), r[0])[None]
    for n in range(1, N + 1):
        q = orders[n]
        acc = jets.slot(r, r, n, 1, n - 1, order=q) + jets.derive(r[n - 1])[:q + 1] \
            - jets.slot(g, r, n - 1, 0, n - 1, step, order=q) - h[n, :q + 1]
        r[n, :q + 1] = jets.products(acc[None], inv2r, q)[0]
    return (r,)


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
    coupling = zp.model.coupling(lam) - EtaSeries.lift(0, lam, 1)
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


def backlund_model(model, which: int):
    """The parameter-shifted model matched to backlund_apply."""
    return model.backlund_shifted(which)
