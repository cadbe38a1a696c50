"""Foundational arithmetic: Bernoulli numbers, truncated Taylor jets, Laurent
series at infinity, polynomial roots, Binet's function ``binet`` and the
complex ``log_gamma`` built on it, and the sign chain that continues a square
root along a path.

Everything in this module but ``DenseJets`` is a pure function over immutable
values.  A ``Jet`` holds the Taylor coefficients of one function in the local
coordinate ``s = t - t0``, and its arithmetic is exact truncation to the jet
order; coefficients are plain ``complex``, or ``numpy`` arrays of one shape
when a batch of base points is processed at once (the chart maps and the
contour quadratures use it).  ``DenseJets`` is the one arithmetic of the
series layer: stacks of jets held as one complex array, on which both the
series solvers and ``series.EtaSeries`` compute.  The ``Jet`` loops are the
independent reference its kernels are tested against.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

import numpy as np

__all__ = [
    "DenseJets",
    "Jet",
    "LaurentAtInfinity",
    "SingularJetError",
    "bernoulli",
    "binet",
    "poly_roots",
    "log_gamma",
]

class SingularJetError(ValueError):
    """Division / sqrt / log of a jet whose constant term vanishes."""


# ---------------------------------------------------------------------------
# Bernoulli numbers
# ---------------------------------------------------------------------------

#: B_0, B_1, ... as far as any caller has asked: an immutable tuple that
#: :func:`bernoulli` replaces by a longer one, never changes in place.
_BERNOULLI = (Fraction(1),)


def bernoulli(n: int) -> Fraction:
    """Bernoulli number B_n for even n >= 2, as an exact rational.

    Convention: w/(e^w - 1) = 1 - w/2 + sum_{n>=1} B_{2n} w^{2n} / (2n)!.
    """
    global _BERNOULLI
    if n < 2 or n % 2 != 0:
        raise ValueError(f"bernoulli(n) requires even n >= 2, got {n}")
    table = _BERNOULLI
    if len(table) <= n:
        # the recurrence sum_{k<=m} C(m+1,k) B_k = 0, continued up to n
        table = list(table)
        for m in range(len(table), n + 1):
            table.append(-sum(math.comb(m + 1, k) * table[k] for k in range(m)) / (m + 1))
        _BERNOULLI = table = tuple(table)
    return table[n]


# ---------------------------------------------------------------------------
# Polynomial roots (low degree, polished)
# ---------------------------------------------------------------------------

def poly_roots(coeffs) -> list[complex]:
    """All complex roots of sum_k coeffs[k] * x^k, leading coefficient last.

    Roots come from the companion matrix (``numpy.roots``) and are then
    polished by a few Newton steps; the target residual is
    1e-13 * max|coeff| * max(1, |root|)^deg per root.  Intended for the
    degree <= 4 work of the algebraic layer, but not restricted to it.
    """
    c = [complex(x) for x in coeffs]
    while c and c[-1] == 0:
        c.pop()
    if len(c) < 2:
        raise ValueError("poly_roots needs degree >= 1 with nonzero leading coefficient")
    deg = len(c) - 1
    scale = max(abs(x) for x in c)

    def p(x: complex) -> complex:
        acc = 0j
        for a in reversed(c):
            acc = acc * x + a
        return acc

    def dp(x: complex) -> complex:
        acc = 0j
        for k in range(deg, 0, -1):
            acc = acc * x + k * c[k]
        return acc

    roots = [complex(r) for r in np.roots(c[::-1])]
    polished = []
    for r in roots:
        for _ in range(12):
            res = p(r)
            if abs(res) <= 1e-13 * scale * max(1.0, abs(r)) ** deg:
                break
            d = dp(r)
            if d == 0:
                break
            step = res / d
            if abs(step) > 1.0 + abs(r):
                break
            r = r - step
        polished.append(r)
    return polished


# ---------------------------------------------------------------------------
# Binet's function and log Gamma
# ---------------------------------------------------------------------------

_HALF_LOG_2PI = 0.5 * math.log(2.0 * math.pi)

#: B_{2n} / (2n (2n - 1)), n = 1..12: the Stirling series of J, summed where
#: |w| >= _STIRLING_RADIUS and Re w >= 0 (there the 13th term is below 1e-16
#: of the first, and rounding is the only error).
_STIRLING = tuple(float(bernoulli(2 * n) / (2 * n * (2 * n - 1))) for n in range(1, 13))
_STIRLING_RADIUS = 7.0

#: 1/(2k+1), k = 29..1: atanh(t)/t - 1 = sum_{k>=1} t^{2k}/(2k+1), in Horner
#: order; the last n of them reach 1e-17 relative once |t|^{2n} < 1e-17.
_ATANH_SERIES = tuple(1.0 / (2 * k + 1) for k in range(29, 0, -1))
_LOG_1E17 = 17.0 * math.log(10.0)


def _atanh_excess(t: complex) -> complex:
    """atanh(t)/t - 1 for |t| < 1/2, summed as a series, so without the
    cancellation against 1, and to as many terms as |t| needs."""
    t2 = t * t
    r = abs(t2)
    n = math.ceil(_LOG_1E17 / -math.log(r)) if r > 1e-17 else 1
    acc = 0j
    for c in _ATANH_SERIES[-n:]:
        acc = acc * t2 + c
    return acc * t2


def _binet_step(w: complex) -> complex:
    """J(w) - J(w+1) = (w + 1/2) log1p(1/w) - 1 for Re w >= 0.

    With t = 1/(2w + 1), log1p(1/w) = 2 atanh(t) and the step is
    atanh(t)/t - 1 = t^2/3 + ..., summed as a series where |t| < 1/2.
    Nearer w = 0 the step is of order one and is formed from
    log((w + 1)/w) directly, which keeps small w accurate."""
    a = 2.0 * w + 1.0
    if abs(a) > 2.0:
        return _atanh_excess(1.0 / a)
    return 0.5 * a * cmath.log((w + 1.0) / w) - 1.0


def _log1mexp(a: float, b: float) -> complex:
    """log(1 - e^{a + ib}) for a <= 0, principal branch, accurate both near
    the zeros a = 0, b = 0 (through expm1) and where e^a is small
    (through log1p)."""
    ea = math.exp(a)
    one_minus = complex(2.0 * math.sin(0.5 * b) ** 2 - math.expm1(a) * math.cos(b),
                        -ea * math.sin(b))
    if ea < 0.5:
        return complex(0.5 * math.log1p(ea * (ea - 2.0 * math.cos(b))), cmath.phase(one_minus))
    return cmath.log(one_minus)


def binet(w: complex) -> complex:
    """Binet's function J(w) = log Gamma(w) - (w - 1/2) log w + w - log(2 pi)/2.

    Principal branches, so J is analytic on C minus (-inf, 0]; on the cut
    the sign of the zero imaginary part picks the lip.  Its asymptotic
    series sum_n B_{2n}/(2n(2n-1)) w^{1-2n} (DLMF 5.11.1) is the series G of
    the Voros coefficients.  J is evaluated:

    * by that series where |w| >= 7 and Re w >= 0;
    * elsewhere in Re w >= 0 by the upward shift J(w) = J(w+1) + (w + 1/2)
      log1p(1/w) - 1 (:func:`_binet_step`) until |w| >= 7;
    * in Re w < 0 by the reflection J(w) = -J(-w) - log(1 - e^{2 pi i s w}),
      s the sign of Im w, which follows from Gamma(w) Gamma(1-w) =
      pi / sin(pi w).  The real part of s w is reduced mod 1 exactly, so
      the phase carries no rounding of |Re w|.

    No step subtracts quantities of the size of w log w, so J keeps its
    relative accuracy: within 3e-15 of 30-digit mpmath for |w| from 1e-3
    to 1e3.  Raises ``ValueError`` at the poles w = 0, -1, -2, ... of Gamma.
    """
    w = complex(w)
    if w.imag == 0 and w.real <= 0 and w.real.is_integer():
        raise ValueError(f"log Gamma pole at w = {w}")
    if w.real < 0:
        x = math.copysign(1.0, w.imag) * w.real
        return -binet(-w) - _log1mexp(-2.0 * math.pi * abs(w.imag),
                                      2.0 * math.pi * (x - round(x)))
    shift = 0j
    while abs(w) < _STIRLING_RADIUS:
        shift += _binet_step(w)
        w += 1.0
    u = 1.0 / (w * w)
    acc = 0j
    for c in reversed(_STIRLING):
        acc = acc * u + c
    return shift + acc / w


def log_gamma(z: complex) -> complex:
    """Principal branch of log Gamma(z), continuous on C minus (-inf, 0].

    On the cut the sign of the zero imaginary part picks the lip: the upper
    lip, Im z = +0, is the limit from Im z > 0, so log_gamma(-2.5 + 0j) has
    imaginary part -3 pi and the lower lip +3 pi.  Raises ``ValueError`` at
    the poles z = 0, -1, -2, ...
    """
    z = complex(z)
    return binet(z) + (z - 0.5) * cmath.log(z) - z + _HALF_LOG_2PI


# ---------------------------------------------------------------------------
# Square-root sign chain
# ---------------------------------------------------------------------------

def _nearer_negated(v, ref) -> bool:
    """The continuation rule for a square root: True when -v lies closer
    than v to ``ref``, the signed value at the previous point."""
    return abs(v - ref) > abs(v + ref)


def _chain_signs(values, start=None) -> np.ndarray:
    """Signs (+1/-1) that continue a square root along an ordered list of
    values: each signed value is the one nearer its signed predecessor,
    the first one nearer ``start`` (default: the first value itself).

    Negating the predecessor negates the rule's verdict, so the signs are
    the running product of the rule's flips between consecutive unsigned
    values.  An exact tie, |v - r| = |v + r| (or a NaN), keeps the sign
    whichever way r points, which breaks that symmetry; then the values
    are chained one by one."""
    values = np.asarray(values)
    refs = np.concatenate([[values[0] if start is None else start], values[:-1]])
    flips = _nearer_negated(values, refs)
    if np.all(flips | _nearer_negated(values, -refs)):
        return np.cumprod(np.where(flips, -1.0, 1.0))
    signs = np.ones(len(values))
    prev = refs[0]
    for k, v in enumerate(values):
        if _nearer_negated(v, prev):
            signs[k] = -1.0
        prev = signs[k] * v
    return signs


# ---------------------------------------------------------------------------
# Jets
# ---------------------------------------------------------------------------

def _sqrt(x):
    return np.sqrt(x) if isinstance(x, np.ndarray) else complex(np.sqrt(complex(x)))


def _log(x):
    return np.log(x) if isinstance(x, np.ndarray) else complex(np.log(complex(x)))


def _is_zero_const(x) -> bool:
    if isinstance(x, np.ndarray):
        return bool(np.any(x == 0))
    return x == 0


@dataclass(frozen=True)
class Jet:
    """Truncated Taylor series sum_k coeffs[k] * s^k at s = t - base_point.

    ``order`` is len(coeffs) - 1.  Arithmetic truncates to the smaller order
    of the operands; ``derive`` drops one order (callers budget for this).
    """

    base_point: complex
    coeffs: tuple

    # -- constructors -------------------------------------------------------

    @staticmethod
    def constant(value, base_point: complex, order: int) -> "Jet":
        zero = value * 0
        return Jet(base_point, (value,) + (zero,) * order)

    @staticmethod
    def variable(base_point: complex, order: int) -> "Jet":
        """The jet of t itself: t = base_point + s."""
        if order < 1:
            raise ValueError("variable jet needs order >= 1")
        one = np.ones_like(base_point) if isinstance(base_point, np.ndarray) else complex(1)
        return Jet(base_point, (base_point, one) + (one * 0,) * (order - 1))

    # -- structure ----------------------------------------------------------

    @property
    def order(self) -> int:
        return len(self.coeffs) - 1

    def truncate(self, order: int) -> "Jet":
        if order >= self.order:
            return self
        return Jet(self.base_point, self.coeffs[: order + 1])

    def __getitem__(self, k: int):
        return self.coeffs[k]

    # -- ring operations ----------------------------------------------------

    @staticmethod
    def _scalar_like(other) -> bool:
        return isinstance(other, (int, float, complex, np.number, np.ndarray))

    def _coerce(self, other):
        if isinstance(other, Jet):
            return other
        return Jet.constant(other + 0j if not isinstance(other, np.ndarray) else other,
                            self.base_point, self.order)

    def __add__(self, other) -> "Jet":
        if not isinstance(other, Jet) and not Jet._scalar_like(other):
            return NotImplemented
        o = self._coerce(other)
        n = min(self.order, o.order)
        return Jet(self.base_point,
                   tuple(self.coeffs[k] + o.coeffs[k] for k in range(n + 1)))

    __radd__ = __add__

    def __neg__(self) -> "Jet":
        return Jet(self.base_point, tuple(-a for a in self.coeffs))

    def __sub__(self, other) -> "Jet":
        if not isinstance(other, Jet) and not Jet._scalar_like(other):
            return NotImplemented
        return self + (-self._coerce(other))

    def __rsub__(self, other) -> "Jet":
        return (-self) + other

    def __mul__(self, other) -> "Jet":
        if not isinstance(other, Jet):
            if not Jet._scalar_like(other):
                return NotImplemented
            return Jet(self.base_point, tuple(a * other for a in self.coeffs))
        n = min(self.order, other.order)
        out = []
        for k in range(n + 1):
            acc = self.coeffs[0] * other.coeffs[k]
            for i in range(1, k + 1):
                acc = acc + self.coeffs[i] * other.coeffs[k - i]
            out.append(acc)
        return Jet(self.base_point, tuple(out))

    __rmul__ = __mul__

    def __truediv__(self, other) -> "Jet":
        if not isinstance(other, Jet):
            if not Jet._scalar_like(other):
                return NotImplemented
            return self * (1.0 / other)
        if _is_zero_const(other.coeffs[0]):
            raise SingularJetError("jet division by zero constant term")
        n = min(self.order, other.order)
        inv0 = 1.0 / other.coeffs[0]
        out = [self.coeffs[0] * inv0]
        for k in range(1, n + 1):
            acc = self.coeffs[k]
            for j in range(k):
                acc = acc - out[j] * other.coeffs[k - j]
            out.append(acc * inv0)
        return Jet(self.base_point, tuple(out))

    def __rtruediv__(self, other) -> "Jet":
        return self._coerce(other) / self

    def __pow__(self, m: int) -> "Jet":
        if not isinstance(m, int):
            raise TypeError("jet ** requires an integer exponent")
        if m < 0:
            return 1 / (self ** (-m))
        out = Jet.constant(self.coeffs[0] * 0 + 1.0, self.base_point, self.order)
        base = self
        k = m
        while k:
            if k & 1:
                out = out * base
            base = base * base
            k >>= 1
        return out

    # -- analytic operations ------------------------------------------------

    def sqrt(self) -> "Jet":
        if _is_zero_const(self.coeffs[0]):
            raise SingularJetError("jet sqrt of zero constant term")
        s0 = _sqrt(self.coeffs[0])
        out = [s0]
        half = 0.5 / s0
        for k in range(1, self.order + 1):
            acc = self.coeffs[k]
            for j in range(1, k):
                acc = acc - out[j] * out[k - j]
            out.append(acc * half)
        return Jet(self.base_point, tuple(out))

    def log(self) -> "Jet":
        if _is_zero_const(self.coeffs[0]):
            raise SingularJetError("jet log of zero constant term")
        # log(a)' = a'/a, integrated termwise; constant term is principal log.
        n = self.order
        out = [_log(self.coeffs[0])]
        if n == 0:
            return Jet(self.base_point, tuple(out))
        da = self.derive()
        ratio = da / self.truncate(n - 1)
        for k in range(1, n + 1):
            out.append(ratio.coeffs[k - 1] / k)
        return Jet(self.base_point, tuple(out))

    def derive(self) -> "Jet":
        """d/dt, dropping one order."""
        if self.order == 0:
            raise ValueError("cannot differentiate an order-0 jet")
        return Jet(self.base_point,
                   tuple((k + 1) * self.coeffs[k + 1] for k in range(self.order)))

    # -- evaluation ---------------------------------------------------------

    def __call__(self, s):
        """Evaluate at offset s from the base point (Horner)."""
        acc = self.coeffs[-1]
        for a in reversed(self.coeffs[:-1]):
            acc = acc * s + a
        return acc

    def value(self):
        return self.coeffs[0]

    def rebase(self, new_base: complex) -> "Jet":
        """Re-expand around a new base point (exact polynomial shift)."""
        h = new_base - self.base_point
        out = list(self.coeffs)
        n = self.order
        # Repeated synthetic division by (s - h).
        for j in range(n):
            for k in range(n - 1, j - 1, -1):
                out[k] = out[k] + h * out[k + 1]
        return Jet(new_base, tuple(out))


# ---------------------------------------------------------------------------
# Dense jets: stacks of jets as complex arrays
# ---------------------------------------------------------------------------

#: Up to this many base points, jets multiply through one outer product of
#: their coefficient vectors: few numpy calls, all (K+1)^2 terms.  Larger
#: batches add shifted rows over the coefficient index instead: K+1 calls
#: but half the terms, which is what counts once arithmetic sets the cost.
_OUTER_PRODUCT_NODES = 16

@lru_cache(maxsize=None)
def _antidiagonals(K: int):
    """Flat indices of the cells (j, l) with j + l <= K of a (K+1) x (K+1)
    outer product, grouped by j + l, and the start of each group."""
    j, l = np.divmod(np.arange((K + 1) ** 2), K + 1)
    cells = np.flatnonzero(j + l <= K)
    cells = cells[np.argsort((j + l)[cells], kind="stable")]
    return _read_only(cells, np.searchsorted((j + l)[cells], np.arange(K + 1)))


@lru_cache(maxsize=None)
def _cauchy_pairs(n: int, step_a: int, step_b: int):
    """The slot pairs (i, j) with i + j < n, i a multiple of step_a and j of
    step_b, grouped by m = i + j: (i's, j's, group starts, the m's)."""
    pairs = sorted((i + j, i, j) for i in range(0, n, step_a)
                   for j in range(0, n - i, step_b))
    ms = np.array([m for m, _, _ in pairs])
    starts = np.flatnonzero(np.diff(ms, prepend=-1))
    return _read_only(np.array([i for _, i, _ in pairs]), np.array([j for _, _, j in pairs]),
                      starts, ms[starts])


@lru_cache(maxsize=None)
def _cauchy_by_order(n: int, step_a: int, step_b: int, orders: tuple):
    """The pairs of ``_cauchy_pairs`` split by the order q = orders[m] of
    their product slot m: per q, (q, i's, j's, group starts, the m's)."""
    first, second, starts, ms = _cauchy_pairs(n, step_a, step_b)
    sizes = np.diff(np.append(starts, len(first)))
    out = []
    for q in sorted({orders[m] for m in ms}, reverse=True):
        keep = np.array([orders[m] == q for m in ms])
        rows = np.repeat(keep, sizes)
        out.append((q,) + _read_only(first[rows], second[rows],
                                     np.cumsum(sizes[keep]) - sizes[keep], ms[keep]))
    return tuple(out)


@lru_cache(maxsize=None)
def _cauchy_cells(n: int, step_a: int, step_b: int, K: int, orders: tuple):
    """The outer-product path of ``DenseJets.mul`` through order orders[m]
    of each product slot m: the pairs of ``_cauchy_pairs``; the flat
    indices of the cells (pair, j, l) of their (K+1) x (K+1) outer
    products with j + l = k <= orders[m], in runs of one (m, k, pair),
    j rising, the start of each run, the start of each (m, k) block of
    runs, and each block's flat index m (K+1) + k in the product stack."""
    first, second, starts, ms = _cauchy_pairs(n, step_a, step_b)
    bounds = np.append(starts, len(first))
    cells, runs, blocks, targets = [], [], [], []
    for g, m in enumerate(ms):
        for k in range(orders[m] + 1):
            blocks.append(len(runs))
            targets.append(m * (K + 1) + k)
            for pair in range(bounds[g], bounds[g + 1]):
                runs.append(len(cells))
                cells.extend(pair * (K + 1) ** 2 + j * (K + 1) + k - j for j in range(k + 1))
    return (first, second) + _read_only(*map(np.array, (cells, runs, blocks, targets)))


def _read_only(*arrays) -> tuple:
    """The arrays, locked: cached index arrays are shared by every caller."""
    for a in arrays:
        a.flags.writeable = False
    return arrays


def _refuse_zero_constant(a: np.ndarray, what: str):
    """Refuse a jet with a zero constant term, naming the first such node."""
    zero = np.flatnonzero(a[0] == 0)
    if len(zero):
        raise SingularJetError(f"jet {what} of a zero constant term at node {zero[0]}")


def _running_sum(terms: np.ndarray):
    """The sum over the leading axis, added in order and kept as a one-row
    slice.  Summed plainly, one base point (a 1-d array) would pair its
    terms differently than a batch, and numpy scalars round differently
    than arrays; this way one node and many give the same bits."""
    return terms.cumsum(axis=0)[-1:] if len(terms) else 0.0


class DenseJets:
    """Truncated Taylor arithmetic of order K at the base points t0.

    A jet is an array whose axis -1 - t0.ndim holds its K+1 coefficients
    in s = t - t0, followed by the batch axes of t0 (none for one base
    point).  An eta-series is a stack of jets, shape (slots, K+1, *batch),
    slot m holding the coefficient of eta^(offset - m).  One base point
    and a batch of them share every line below."""

    def __init__(self, t0, K: int):
        self.K = K
        self.t0 = np.asarray(t0, complex)   # one arithmetic for one node or many
        self.batch = np.shape(t0)
        self.small = int(np.prod(self.batch)) <= _OUTER_PRODUCT_NODES
        tail = (slice(None),) * len(self.batch)
        self._hi = (Ellipsis, slice(1, None)) + tail
        self._lo = (Ellipsis, slice(None, -1)) + tail
        self._kfac = np.arange(1, K + 1).reshape((-1,) + (1,) * len(self.batch))
        self._t_powers = {}

    def zeros(self, *lead) -> np.ndarray:
        return np.zeros(lead + (self.K + 1,) + self.batch, complex)

    def constant(self, value) -> np.ndarray:
        out = self.zeros()
        out[0] = value
        return out

    def t_power(self, p: int) -> np.ndarray:
        """The jet of t^p: binomial coefficients of (t0 + s)^p."""
        if p not in self._t_powers:
            fac = np.ones((self.K + 1,) + self.batch, complex)
            k = np.arange(1, self.K + 1)
            fac[1:] = ((p - k + 1) / k).reshape(self._kfac.shape) / self.t0
            self._t_powers[p] = self.t0 ** p * np.cumprod(fac, axis=0)
        return self._t_powers[p]

    # -- t-operations on jets or stacks -------------------------------------

    def derive(self, a: np.ndarray) -> np.ndarray:
        """d/dt; the top coefficient, which d/dt cannot know, becomes 0."""
        out = np.zeros_like(a)
        out[self._lo] = a[self._hi] * self._kfac
        return out

    def times_t(self, a: np.ndarray) -> np.ndarray:
        out = a * self.t0
        out[self._hi] += a[self._lo]
        return out

    def theta(self, a: np.ndarray) -> np.ndarray:
        """t d/dt."""
        return self.times_t(self.derive(a))

    # -- products: the one (eta, t) Cauchy kernel ---------------------------

    def products(self, X: np.ndarray, Y: np.ndarray, order: int | None = None) -> np.ndarray:
        """Truncated jet products X[i] * Y[i] along the leading axis of two
        stacks (a stack of one broadcasts), through Taylor order ``order``,
        the result holding order + 1 coefficients.  Coefficient k adds the
        same terms in the same order whatever the order, so a product
        stopped at the order its slot is certified to is bit-identical
        below it.  Without ``order`` it is read off X, so lower-order
        stacks work too."""
        if order is not None:
            X, Y = X[:, :order + 1], Y[:, :order + 1]
        K1 = X.shape[1]
        if K1 == 1:
            return X * Y
        if self.small:
            M = X[:, :, None] * Y[:, None, :]
            cells, starts = _antidiagonals(K1 - 1)
            M = M.reshape((M.shape[0], K1 * K1) + M.shape[3:])[:, cells]
            return np.add.reduceat(M, starts, axis=1)
        out = X[:, :1] * Y
        for j in range(1, K1):
            out[:, j:] += X[:, j:j + 1] * Y[:, :K1 - j]
        return out

    def slot(self, A: np.ndarray, B: np.ndarray, m: int, lo: int, hi: int,
             step: int = 1, *, order: int | None = None) -> np.ndarray:
        """sum of A[i] * B[m - i] over i = lo, lo + step, ... <= hi, a jet
        of order ``order`` (default: the stacks' order): the order the
        caller's slot is certified to, so no term above it is computed.
        The terms are added in turn whatever the order.  ``sum`` does so
        along the node axis of a large batch, but would add one node's
        terms of one coefficient pairwise; few base points take the
        running sum."""
        q = A.shape[1] - 1 if order is None else order
        i = np.arange(lo, hi + 1, step)
        if not len(i):
            return np.zeros((q + 1,) + self.batch, complex)
        terms = self.products(A[i, :q + 1], B[m - i, :q + 1])
        return _running_sum(terms)[0] if self.small else terms.sum(axis=0)

    def mul(self, A: np.ndarray, B: np.ndarray, step_a: int = 1, step_b: int = 1,
            orders=None) -> np.ndarray:
        """The eta-product of two stacks of equal length, truncated to it;
        A (B) is nonzero only on slots that are multiples of step_a (step_b).
        Product slot m stops at Taylor order orders[m] (default: the
        stacks' order), the order it is certified to, and is zero above.

        With few base points one gather picks, from the pairs' outer
        products, the cells of every kept order of every slot, and two
        reductions add each antidiagonal and then each slot's pairs, in
        the order the full product adds them.  A large batch runs the
        shifted rows of ``products`` once per distinct order."""
        K = A.shape[1] - 1
        orders = (K,) * len(A) if orders is None else tuple(np.minimum(orders, K).tolist())
        out = np.zeros(A.shape, complex)
        if self.small:
            first, second, cells, runs, blocks, targets = _cauchy_cells(
                len(A), step_a, step_b, K, orders)
            M = A[first][:, :, None] * B[second][:, None, :]
            sums = np.add.reduceat(M.reshape((-1,) + M.shape[3:])[cells], runs, axis=0)
            out.reshape((-1,) + out.shape[2:])[targets] = np.add.reduceat(sums, blocks, axis=0)
            return out
        for q, first, second, starts, ms in _cauchy_by_order(len(A), step_a, step_b, orders):
            out[ms, :q + 1] = np.add.reduceat(
                self.products(A[first, :q + 1], B[second, :q + 1]), starts, axis=0)
        return out

    def inverse(self, A: np.ndarray, step: int = 1, orders=None) -> np.ndarray:
        """The eta-series 1 / A, for A nonzero only on slots that are
        multiples of ``step`` (and so is the result).  Slot m stops at
        Taylor order orders[m] (default: the stack's order) and is zero
        above; it reads only slots of A and of the result at or below m,
        so orders that do not rise with m leave every kept coefficient
        as the full-order inverse computes it."""
        K = A.shape[1] - 1
        orders = [K] * len(A) if orders is None else np.minimum(orders, K).tolist()
        out = np.zeros(A.shape, complex)
        q = orders[0]
        out[0, :q + 1] = self.divide(self.constant(1.0)[:q + 1], A[0, :q + 1])
        for m in range(step, len(A), step):
            q = orders[m]
            out[m, :q + 1] = -self.products(self.slot(A, out, m, step, m, step, order=q)[None],
                                            out[:1], q)[0]
        return out

    # -- single jets --------------------------------------------------------

    @staticmethod
    def divide(x: np.ndarray, y: np.ndarray) -> np.ndarray:
        _refuse_zero_constant(y, "division")
        inv0 = 1.0 / y[:1]
        out = np.empty(np.broadcast_shapes(x.shape, y.shape), complex)
        out[:1] = x[:1] * inv0
        for k in range(1, len(out)):
            out[k:k + 1] = (x[k:k + 1] - _running_sum(out[:k] * y[k:0:-1])) * inv0
        return out

    @staticmethod
    def sqrt(a: np.ndarray) -> np.ndarray:
        """The jet whose square is a, with the principal root as value."""
        _refuse_zero_constant(a, "square root")
        out = np.empty_like(a)
        out[:1] = np.sqrt(a[:1])
        half = 0.5 / out[:1]
        for k in range(1, len(a)):
            out[k:k + 1] = (a[k:k + 1] - _running_sum(out[1:k] * out[k - 1:0:-1])) * half
        return out


# ---------------------------------------------------------------------------
# Laurent series at infinity with exact rational coefficients
# ---------------------------------------------------------------------------

class LaurentAtInfinity:
    """Finite Laurent series sum_p a_p z^p, powers bounded above, truncated
    below at z^{-depth}: coefficients for powers < -depth are dropped but the
    truncation depth is remembered so identities are only asserted through it.

    Coefficients are exact rationals; the class backs the difference-equation
    verification, where 'equal' means coefficientwise equality of Fractions
    through the common depth.
    """

    __slots__ = ("coeffs", "depth")

    def __init__(self, coeffs: dict[int, Fraction], depth: int):
        self.depth = int(depth)
        self.coeffs = {
            int(p): Fraction(a)
            for p, a in coeffs.items()
            if p >= -self.depth and a != 0
        }

    # -- constructors -------------------------------------------------------

    @staticmethod
    def monomial(power: int, coeff, depth: int) -> "LaurentAtInfinity":
        return LaurentAtInfinity({power: Fraction(coeff)}, depth)

    @staticmethod
    def log1p_over_z(a, depth: int) -> "LaurentAtInfinity":
        """log(1 + a/z) = sum_{k>=1} (-1)^{k+1} (a/z)^k / k, exact."""
        a = Fraction(a)
        coeffs = {}
        for k in range(1, depth + 1):
            coeffs[-k] = Fraction((-1) ** (k + 1), k) * a ** k
        return LaurentAtInfinity(coeffs, depth)

    # -- arithmetic ---------------------------------------------------------

    def _common(self, other: "LaurentAtInfinity") -> int:
        return min(self.depth, other.depth)

    def __add__(self, other) -> "LaurentAtInfinity":
        if not isinstance(other, LaurentAtInfinity):
            other = LaurentAtInfinity.monomial(0, other, self.depth)
        depth = self._common(other)
        out = dict(self.coeffs)
        for p, a in other.coeffs.items():
            out[p] = out.get(p, Fraction(0)) + a
        return LaurentAtInfinity(out, depth)

    __radd__ = __add__

    def __neg__(self) -> "LaurentAtInfinity":
        return LaurentAtInfinity({p: -a for p, a in self.coeffs.items()}, self.depth)

    def __sub__(self, other) -> "LaurentAtInfinity":
        if not isinstance(other, LaurentAtInfinity):
            other = LaurentAtInfinity.monomial(0, other, self.depth)
        return self + (-other)

    def __rsub__(self, other) -> "LaurentAtInfinity":
        return (-self) + other

    def __mul__(self, other) -> "LaurentAtInfinity":
        if not isinstance(other, LaurentAtInfinity):
            f = Fraction(other)
            return LaurentAtInfinity({p: a * f for p, a in self.coeffs.items()}, self.depth)
        depth = self._common(other)
        out: dict[int, Fraction] = {}
        for p, a in self.coeffs.items():
            for q, b in other.coeffs.items():
                r = p + q
                if r >= -depth:
                    out[r] = out.get(r, Fraction(0)) + a * b
        return LaurentAtInfinity(out, depth)

    __rmul__ = __mul__

    def shift(self, a) -> "LaurentAtInfinity":
        """Substitute z -> z + a, expanded at infinity through the depth."""
        a = Fraction(a)
        out: dict[int, Fraction] = {}
        for p, c in self.coeffs.items():
            if p >= 0:
                # Finite binomial expansion.
                for j in range(p + 1):
                    out[p - j] = out.get(p - j, Fraction(0)) + c * math.comb(p, j) * a ** j
            else:
                # (z+a)^p = z^p * sum_j C(p, j) (a/z)^j, infinite; truncate.
                binom = Fraction(1)
                for j in range(0, self.depth + p + 1):
                    if j > 0:
                        binom = binom * Fraction(p - j + 1, j)
                    out[p - j] = out.get(p - j, Fraction(0)) + c * binom * a ** j
        return LaurentAtInfinity(out, self.depth)

    # -- inspection ---------------------------------------------------------

    def coefficient(self, power: int) -> Fraction:
        return self.coeffs.get(power, Fraction(0))

    def __eq__(self, other) -> bool:
        if not isinstance(other, LaurentAtInfinity):
            return NotImplemented
        depth = self._common(other)
        powers = {p for p in self.coeffs if p >= -depth} | {p for p in other.coeffs if p >= -depth}
        return all(self.coefficient(p) == other.coefficient(p) for p in powers)

    def __hash__(self):
        return hash((self.depth, tuple(sorted(self.coeffs.items()))))

    def first_mismatch(self, other: "LaurentAtInfinity") -> int | None:
        """Highest power where the two series disagree, or None."""
        depth = self._common(other)
        powers = sorted(
            {p for p in self.coeffs if p >= -depth} | {p for p in other.coeffs if p >= -depth},
            reverse=True,
        )
        for p in powers:
            if self.coefficient(p) != other.coefficient(p):
                return p
        return None

    def __repr__(self):
        terms = ", ".join(f"z^{p}: {a}" for p, a in sorted(self.coeffs.items(), reverse=True))
        return f"LaurentAtInfinity({{{terms}}}, depth={self.depth})"
