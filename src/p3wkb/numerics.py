"""Foundational arithmetic: Bernoulli numbers, truncated Taylor jets, exact
Laurent polynomials in one variable and X, polynomial roots, Binet's
function ``binet``, and the sign chain that continues a square root along a
path.

Everything in this module but ``DenseJets`` is a pure function over immutable
values.  ``DenseJets`` is the one truncated Taylor arithmetic: stacks of jets
in ``s = t - t0``, at one base point or a batch of them, held as one array,
on which the series solvers and ``series.EtaSeries`` compute, and in u,
on which the charts' maps are multiplied out (``product_of``).  An instance
holds the base points and their number type, complex128 or, for clongdouble
base points, 80-bit ``clongdouble``; the Cauchy products are static and take
their operands' type.  They form only the terms a truncated product keeps
(Griewank & Walther, *Evaluating Derivatives*, 2nd ed., 2008, ch. 13).
Every eta-slot sum, a slot of an eta-product included, runs through one
index plan (``slots``), built once per shape and cached read-only, which
gathers both factors of each term; the sums of one recursion step share a
gather.  A ``Jet`` is one jet, read-only, with operators on the same
kernels; only ``series`` uses it.  The tests check the kernels against
numpy's polynomial arithmetic and the plans against loops.
"""

from __future__ import annotations

import cmath
import math
import operator
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache, reduce

import numpy as np

__all__ = [
    "DenseJets",
    "ExactLaurent",
    "Jet",
    "SingularJetError",
    "bernoulli",
    "binet",
    "poly_roots",
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
# Polynomial roots
# ---------------------------------------------------------------------------

def poly_roots(coeffs) -> list[complex]:
    """All complex roots of sum_k coeffs[k] * x^k, leading coefficient last:
    the eigenvalues of the companion matrix (``numpy.roots``), unpolished.
    They are backward stable (Edelman & Murakami, *Math. Comp.* 64, 1995);
    a caller that needs a residual gates it (``algebra._branches``).
    Intended for the degree <= 4 work of the algebraic layer, but not
    restricted to it.
    """
    c = [complex(x) for x in coeffs]
    while c and c[-1] == 0:
        c.pop()
    if len(c) < 2:
        raise ValueError("poly_roots needs degree >= 1 with nonzero leading coefficient")
    return [complex(r) for r in np.roots(c[::-1])]


# ---------------------------------------------------------------------------
# Binet's function
# ---------------------------------------------------------------------------

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


# ---------------------------------------------------------------------------
# Square-root sign chain
# ---------------------------------------------------------------------------

def _nearer_negated(v, ref) -> bool:
    """The continuation rule for a square root: True when -v lies closer
    than v to ``ref``, the signed value at the previous point."""
    return abs(v - ref) > abs(v + ref)


def _continued_sqrt(z, ref) -> complex:
    """cmath.sqrt(z) continued from ``ref``, the signed square root at the
    previous point: negated where ``_nearer_negated`` says so."""
    s = cmath.sqrt(z)
    return -s if _nearer_negated(s, ref) else s


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
# Dense jets: stacks of jets as complex arrays
# ---------------------------------------------------------------------------

def _ragged(counts):
    """For runs of the given lengths laid end to end: each entry's run and
    its offset in the run."""
    run = np.repeat(np.arange(len(counts)), counts)
    return run, np.arange(len(run)) - (np.cumsum(counts) - counts)[run]


def _factor_runs(lengths, x0, y0):
    """Runs of terms X[x] Y[y] laid end to end, run r taking x = x0[r] + j
    and y = y0[r] - j for j = 0 .. lengths[r] - 1: (x's, y's, the start of
    each run)."""
    starts = np.cumsum(lengths) - lengths
    j = np.arange(np.sum(lengths))
    return np.repeat(x0 - starts, lengths) + j, np.repeat(y0 + starts, lengths) - j, starts


@lru_cache(maxsize=None)
def _product_factors(q: int):
    """``DenseJets.products``' terms X[j] Y[k - j], k <= q, in runs of one
    k, j rising: the indices of both factors and the start of each run."""
    k = np.arange(q + 1)
    return _read_only(*_factor_runs(k + 1, 0 * k, k))


@lru_cache(maxsize=None)
def _slot_factors(sums: tuple, rows_x: int, rows_y: int, K1: int):
    """``DenseJets.slots``' plan: per sum (a, b, m, lo, hi, step, q) and
    k <= q, the terms X[a, i, j] Y[b, m - i, k - j] over i = lo, lo + step,
    ... <= hi and j <= k, in one run per (sum, k), pair by pair, j rising.
    The flat indices of both factors in stacks of K1 coefficients, the
    start of each run, each run's cell s * width + k in the result, and
    the width, 1 + max q."""
    a, b, m, lo, hi, step, q = np.array(sums, np.intp).reshape(-1, 7).T
    if (q >= K1).any():
        raise ValueError(f"order {q.max()} above the stacks' order {K1 - 1}")
    pairs = np.maximum((hi - lo) // step + 1, 0)
    s, k = _ragged(q + 1)                       # cells (sum, k)
    size = pairs[s] * (k + 1)
    c, p = _ragged(pairs[s])                    # runs (sum, k, pair)
    i = lo[s[c]] + p * step[s[c]]
    xs, ys, _ = _factor_runs(k[c] + 1, (a[s[c]] * rows_x + i) * K1,
                             (b[s[c]] * rows_y + m[s[c]] - i) * K1 + k[c])
    width = int(q.max(initial=-1)) + 1
    kept = size > 0
    return _read_only(xs, ys, (np.cumsum(size) - size)[kept], (s * width + k)[kept]) + (width,)


@lru_cache(maxsize=None)
def _product_sums(step_a: int, step_b: int, orders: tuple) -> tuple:
    """``DenseJets.mul``'s sums: product slot m through order orders[m]
    adds A[i] B[m - i] over the multiples i of step_a with m - i a multiple
    of step_b, which follow each other lcm(step_a, step_b) apart."""
    sums = []
    for m, q in enumerate(orders):
        lo = next((i for i in range(0, m + 1, step_a) if (m - i) % step_b == 0), m + 1)
        sums.append((0, 0, m, lo, m, math.lcm(step_a, step_b), q))
    return tuple(sums)


def _read_only(*arrays) -> tuple:
    """The arrays, locked: cached index arrays are shared by every caller."""
    for a in arrays:
        a.flags.writeable = False
    return arrays


def _refuse_zero_constant(a: np.ndarray, what: str):
    """Refuse a jet with a zero constant term, naming the first such node."""
    if np.count_nonzero(a[:1]) < a[:1].size:        # cheaper than np.all
        raise SingularJetError(f"jet {what} of a zero constant term at node "
                               f"{np.flatnonzero(a[:1] == 0)[0]}")


class DenseJets:
    """Truncated Taylor arithmetic of order K at the base points t0 of t (u on the charts).

    A jet is an array whose axis -1 - t0.ndim holds its K+1 coefficients
    in s = t - t0, followed by the batch axes of t0 (none for one base
    point).  An eta-series is a stack of jets, shape (slots, K+1, *batch),
    slot m holding the coefficient of eta^(offset - m).  One base point
    and a batch of any size share every line below and give the same bits:
    every eta-slot sum, alone, fused with others or as a slot of ``mul``,
    gathers the two factors of each term it keeps through ``slots``' plan,
    multiplies them (numpy writes a large product into the first gather)
    and adds the terms with ``reduceat``, one run per coefficient, which
    adds each node's terms alike whatever the batch.  The same holds for
    ``products`` and for divisions stacked on a trailing axis."""

    def __init__(self, t0, K: int):
        self.K = K
        self.t0 = np.asarray(t0, np.result_type(t0, np.complex128))
        self.dtype = self.t0.dtype
        self.batch = np.shape(t0)
        tail = (slice(None),) * len(self.batch)
        self._hi = (Ellipsis, slice(1, None)) + tail
        self._lo = (Ellipsis, slice(None, -1)) + tail
        self._kfac = np.arange(1, K + 1).reshape((-1,) + (1,) * len(self.batch))
        self._t_powers = {}

    def zeros(self, *lead) -> np.ndarray:
        return np.zeros(lead + (self.K + 1,) + self.batch, self.dtype)

    def constant(self, value) -> np.ndarray:
        out = self.zeros()
        out[0] = value
        return out

    def t_power(self, p: int) -> np.ndarray:
        """The jet of t^p: binomial coefficients of (t0 + s)^p, cached
        read-only (every computation on these jets shares it)."""
        if p not in self._t_powers:
            fac = np.ones((self.K + 1,) + self.batch, self.dtype)
            k = np.arange(1, self.K + 1, dtype=self.t0.real.dtype)
            fac[1:] = ((p - k + 1) / k).reshape(self._kfac.shape) / self.t0
            self._t_powers[p] = _read_only(self.t0 ** p * fac.cumprod(axis=0))[0]
        return self._t_powers[p]

    def product_of(self, const, polys) -> np.ndarray:
        """The jet of const prod_p p(t), ``polys`` the p's coefficients from t^0 up.  A
        linear factor enters by its value at t0 plus its slope times s, so the jet keeps
        its digits next to the factor's root; any other by Horner's rule."""
        out = self.constant(const)
        for p in polys:
            if len(p) == 2:
                acc = out * (p[0] + p[1] * self.t0)
                acc[self._hi] += p[1] * out[self._lo]
            else:
                acc = p[-1] * out
                for c in p[-2::-1]:
                    acc = self.times_t(acc) + c * out
            out = acc
        return out

    # -- t-operations on jets or stacks -------------------------------------

    def derive(self, a: np.ndarray) -> np.ndarray:
        """d/dt; the top coefficient, which d/dt cannot know, becomes 0."""
        out = np.zeros(a.shape, a.dtype)        # np.zeros_like costs four times as much
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

    @staticmethod
    def slots(X: np.ndarray, Y: np.ndarray, sums: tuple) -> np.ndarray:
        """For each (a, b, m, lo, hi, step, q) of ``sums``, the jet sum of
        X[a, i] * Y[b, m - i] over i = lo, lo + step, ... <= hi (zero if
        hi < lo) through Taylor order q: shape (len(sums), 1 + max q,
        *batch), each sum zero above its q.  One gather of each factor, one
        multiply and one ``reduceat`` serve all sums, each coefficient of
        each sum one run, pair by pair, j rising: alike for one sum or
        many, one node or several.  Orders above the stacks' are refused."""
        xs, ys, starts, cells, width = _slot_factors(sums, X.shape[1], Y.shape[1], X.shape[2])
        batch = X.shape[3:]
        terms = X.reshape((-1,) + batch)[xs] * Y.reshape((-1,) + batch)[ys]
        done = np.add.reduceat(terms, starts, axis=0)
        if len(cells) < len(sums) * width:      # empty sums, or orders below the width
            out = np.zeros((len(sums) * width,) + batch, done.dtype)
            out[cells] = done
            done = out
        return done.reshape((len(sums), width) + batch)

    @staticmethod
    def products(X: np.ndarray, Y: np.ndarray, order: int | None = None) -> np.ndarray:
        """Truncated jet products X[i] * Y[i] along the leading axis of two
        stacks (a stack of one broadcasts), through Taylor order ``order``
        (default: X's), the result holding order + 1 coefficients.
        Coefficient k adds the same terms in the same order whatever the
        order, so a product stopped at its slot's certified order is
        bit-identical below it.  Orders above the jets' are refused."""
        q = X.shape[1] - 1 if order is None else order
        if q >= min(X.shape[1], Y.shape[1]):
            raise ValueError(f"order {q} above the jets' order {min(X.shape[1], Y.shape[1]) - 1}")
        if q == 0:
            return X[:, :1] * Y[:, :1]
        xs, ys, starts = _product_factors(q)
        return np.add.reduceat(X.take(xs, axis=1) * Y.take(ys, axis=1), starts, axis=1)

    @staticmethod
    def slot(A: np.ndarray, B: np.ndarray, m: int, lo: int, hi: int,
             step: int = 1, *, order: int | None = None) -> np.ndarray:
        """``slots``' one sum of A[i] * B[m - i] over i = lo, lo + step, ...
        <= hi, for two stacks of jets, through order ``order`` (A's)."""
        q = A.shape[1] - 1 if order is None else order
        return DenseJets.slots(A[None], B[None], ((0, 0, m, lo, hi, step, q),))[0]

    @staticmethod
    def mul(A: np.ndarray, B: np.ndarray, step_a: int = 1, step_b: int = 1,
            orders=None) -> np.ndarray:
        """The eta-product of two stacks of equal length, truncated to it;
        A (B) is nonzero only on slots that are multiples of step_a (step_b).
        Product slot m is ``slots``' sum over its pairs (``_product_sums``)
        through Taylor order orders[m] (default, and at most: the stacks'
        order), the order it is certified to, and is zero above."""
        K = A.shape[1] - 1
        orders = (K,) * len(A) if orders is None else tuple(np.minimum(orders, K).tolist())
        done = DenseJets.slots(A[None], B[None], _product_sums(step_a, step_b, orders))
        if done.shape[1] == K + 1:
            return done
        out = np.zeros(A.shape, done.dtype)     # every order below the stacks'
        out[:, :done.shape[1]] = done
        return out

    @staticmethod
    def inverse(A: np.ndarray, step: int = 1, orders=None, first=None) -> np.ndarray:
        """The eta-series 1 / A, for A nonzero only on slots that are
        multiples of ``step`` (and so is the result).  Slot m stops at
        Taylor order orders[m] (default: the stack's order) and is zero
        above; it reads only slots of A and of the result at or below m,
        so orders that do not rise with m leave every kept coefficient
        as the full-order inverse computes it.  ``first`` is 1 / A[0]
        through orders[0] where the caller has divided already."""
        K = A.shape[1] - 1
        orders = [K] * len(A) if orders is None else np.minimum(orders, K).tolist()
        out = np.zeros(A.shape, A.dtype)
        q = orders[0]
        if first is None:
            out[0, 0] = 1.0         # the jet 1, then divided by A[0]
            first = DenseJets.divide(out[0, :q + 1], A[0, :q + 1])
        out[0, :q + 1] = first[:q + 1]
        for m in range(step, len(A), step):
            q = orders[m]
            out[m, :q + 1] = -DenseJets.products(
                DenseJets.slot(A, out, m, step, m, step, order=q)[None], out[:1], q)[0]
        return out

    # -- single jets: each order adds its products in turn (a cumsum) in
    # one-row slices, so one node rounds as a batch does; a plain sum or a
    # numpy scalar would not.

    @staticmethod
    def divide(x: np.ndarray, y: np.ndarray) -> np.ndarray:
        """x / y; a trailing axis of both may stack several divisions, which
        cost little more than one, as every step reads contiguous rows."""
        _refuse_zero_constant(y, "division")
        inv0 = 1.0 / y[:1]
        out = np.empty(np.broadcast(x, y).shape, np.result_type(x, y))
        out[:1] = x[:1] * inv0
        rev, K = y[:0:-1].copy(), len(out) - 1         # y_K .. y_1
        for k in range(1, K + 1):
            out[k:k + 1] = (x[k:k + 1] - (out[:k] * rev[K - k:]).cumsum(axis=0)[-1:]) * inv0
        return out

    @staticmethod
    def sqrt(a: np.ndarray) -> np.ndarray:
        """The jet whose square is a, with the principal root as value."""
        _refuse_zero_constant(a, "square root")
        out = np.empty_like(a)
        out[:1] = np.sqrt(a[:1])
        half = 0.5 / out[:1]
        out[1:2] = a[1:2] * half
        for k in range(2, len(a)):
            out[k:k + 1] = (a[k:k + 1] - (out[1:k] * out[k - 1:0:-1]).cumsum(axis=0)[-1:]) * half
        return out


# ---------------------------------------------------------------------------
# Jets: one jet of DenseJets with operators
# ---------------------------------------------------------------------------

@dataclass(frozen=True, eq=False)
class Jet:
    """Truncated Taylor series sum_k coeffs[k] * s^k at s = t - base_point.

    One jet of :class:`DenseJets`: ``coeffs`` is a read-only complex array
    of shape (order + 1, *batch), batch the shape of ``base_point`` (none
    for one base point), made from any sequence of coefficients or of
    per-node arrays.  Products, quotients, square roots, logarithms and
    derivatives run on the ``DenseJets`` kernels.  Arithmetic truncates to
    the smaller order of the operands; ``derive`` drops one order (callers
    budget for this).
    """

    base_point: complex
    coeffs: np.ndarray

    def __post_init__(self):
        coeffs = np.asarray(self.coeffs)
        coeffs = coeffs.astype(np.result_type(self.base_point, coeffs, np.complex128),
                               copy=False).view()
        coeffs.flags.writeable = False
        object.__setattr__(self, "coeffs", coeffs)

    # -- constructors -------------------------------------------------------

    @staticmethod
    def constant(value, base_point: complex, order: int) -> "Jet":
        return Jet(base_point, DenseJets(base_point, order).constant(value))

    @staticmethod
    def variable(base_point: complex, order: int) -> "Jet":
        """The jet of t itself: t = base_point + s."""
        if order < 1:
            raise ValueError("variable jet needs order >= 1")
        coeffs = DenseJets(base_point, order).zeros()
        coeffs[0], coeffs[1] = base_point, 1.0
        return Jet(base_point, coeffs)

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

    def _coerce(self, other) -> "Jet":
        return other if isinstance(other, Jet) else Jet.constant(other, self.base_point, self.order)

    def __add__(self, other) -> "Jet":
        if not isinstance(other, Jet) and not Jet._scalar_like(other):
            return NotImplemented
        o = self._coerce(other)
        n = min(self.order, o.order) + 1
        return Jet(self.base_point, self.coeffs[:n] + o.coeffs[:n])

    __radd__ = __add__

    def __neg__(self) -> "Jet":
        return Jet(self.base_point, -self.coeffs)

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
            return Jet(self.base_point, self.coeffs * other)
        n = min(self.order, other.order)
        return Jet(self.base_point,
                   DenseJets.products(self.coeffs[None], other.coeffs[None], n)[0])

    __rmul__ = __mul__

    def __truediv__(self, other) -> "Jet":
        if not isinstance(other, Jet):
            if not Jet._scalar_like(other):
                return NotImplemented
            return self * (1.0 / other)
        n = min(self.order, other.order) + 1
        return Jet(self.base_point, DenseJets.divide(self.coeffs[:n], other.coeffs[:n]))

    def __rtruediv__(self, other) -> "Jet":
        return self._coerce(other) / self

    def __pow__(self, m: int) -> "Jet":
        if not isinstance(m, int):
            raise TypeError("jet ** requires an integer exponent")
        if m < 0:
            return 1 / (self ** (-m))
        out = Jet.constant(1.0, self.base_point, self.order)
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
        return Jet(self.base_point, DenseJets.sqrt(self.coeffs))

    def log(self) -> "Jet":
        """The principal log of the value, and the integral of a'/a above it."""
        _refuse_zero_constant(self.coeffs, "log")
        out = np.empty_like(self.coeffs)
        out[0] = np.log(self.coeffs[0])
        if self.order:
            ratio = self.derive() / self.truncate(self.order - 1)
            out[1:] = ratio.coeffs / DenseJets(self.base_point, self.order)._kfac
        return Jet(self.base_point, out)

    def derive(self) -> "Jet":
        """d/dt, dropping one order."""
        if self.order == 0:
            raise ValueError("cannot differentiate an order-0 jet")
        return Jet(self.base_point, DenseJets(self.base_point, self.order).derive(self.coeffs)[:-1])

    # -- evaluation ---------------------------------------------------------

    def __call__(self, s):
        """Evaluate at offset s from the base point (Horner)."""
        acc = self.coeffs[-1]
        for a in self.coeffs[-2::-1]:
            acc = acc * s + a
        return acc

    def value(self):
        return self.coeffs[0]


# ---------------------------------------------------------------------------
# Exact Laurent polynomials in one variable with polynomial coefficients in X
# ---------------------------------------------------------------------------

class ExactLaurent:
    """sum_ij c[i, j] u^(lo+i) X^j / den, exactly, in one variable: u on
    the charts (``series``), or z at infinity with one X column (``voros``'s
    model series and difference equations).  ``c`` is a read-only object
    array of Python ints, rows the powers of u from u^lo and columns the
    powers of X, in lowest terms with the positive int ``den``; its first
    and last rows and last column are nonzero (zero is [[0]] at lo = 0).
    Scalars are ints, Fractions and floats, a float at its exact binary
    value (the constants of the declared chart maps).  ``theta`` is u d/du;
    ``divide`` divides by a monic polynomial in u."""

    __slots__ = ("c", "lo", "den")

    def __init__(self, c, lo: int = 0, den: int = 1):
        """c[i][j] an int, den times the coefficient of u^(lo+i) X^j: rows of
        ints, or an object array of Python ints, which is taken over."""
        if not isinstance(c, np.ndarray):
            c = np.array([[operator.index(a) for a in row] for row in c], object)
        rows, cols = np.nonzero(c)
        if not len(rows):
            c, lo = np.zeros((1, 1), object), 0
        elif rows[0] or rows[-1] + 1 < len(c) or cols.max() + 1 < c.shape[1]:
            c, lo = c[rows[0]:rows[-1] + 1, :cols.max() + 1], lo + int(rows[0])
        g = math.gcd(den, *c.flat) if den > 1 else 1
        self.c, self.lo, self.den = c // g if g > 1 else c, lo, den // g
        self.c.flags.writeable = False

    def padded(self, lo: int) -> np.ndarray:
        """``c`` with rows from u^lo, lo <= self.lo: a writable copy."""
        return np.concatenate([np.zeros((self.lo - lo, self.c.shape[1]), object), self.c])

    def __add__(self, other) -> "ExactLaurent":
        if not isinstance(other, ExactLaurent):
            other = Fraction(other)
            other = ExactLaurent([[other.numerator]], 0, other.denominator)
        lo, den = min(self.lo, other.lo), math.lcm(self.den, other.den)
        c = np.zeros((max(self.lo + len(self.c), other.lo + len(other.c)) - lo,
                      max(self.c.shape[1], other.c.shape[1])), object)
        for x in (self, other):
            c[x.lo - lo:x.lo - lo + len(x.c), :x.c.shape[1]] += x.c * (den // x.den)
        return ExactLaurent(c, lo, den)

    def __mul__(self, other) -> "ExactLaurent":
        if not isinstance(other, ExactLaurent):
            a = Fraction(other)
            return ExactLaurent(self.c * a.numerator, self.lo, self.den * a.denominator)
        # Each product of two nonzero terms, added at the sum of their powers.
        (i, j), (k, l) = np.nonzero(self.c), np.nonzero(other.c)
        c = np.zeros((len(self.c) + len(other.c) - 1, self.c.shape[1] + other.c.shape[1] - 1),
                     object)
        np.add.at(c, (np.add.outer(i, k), np.add.outer(j, l)),
                  np.multiply.outer(self.c[i, j], other.c[k, l]))
        return ExactLaurent(c, self.lo + other.lo, self.den * other.den)

    __radd__, __rmul__ = __add__, __mul__

    def __bool__(self) -> bool:
        return bool(self.c.size > 1 or self.c[0, 0])

    def __neg__(self) -> "ExactLaurent":
        return self * -1

    def __sub__(self, other) -> "ExactLaurent":
        return self + -other

    def __rsub__(self, other) -> "ExactLaurent":
        return -self + other

    def __truediv__(self, a) -> "ExactLaurent":
        return self * (1 / Fraction(a))

    def __pow__(self, k: int) -> "ExactLaurent":
        if k < 0:
            raise ValueError(f"a power must be nonnegative, got {k}")
        return reduce(operator.mul, [self] * k, ExactLaurent([[1]]))

    def theta(self) -> "ExactLaurent":
        """u d/du."""
        powers = np.arange(self.lo, self.lo + len(self.c)).astype(object)
        return ExactLaurent(self.c * powers[:, None], self.lo, self.den)

    def divide(self, z: "ExactLaurent") -> tuple:
        """(q, exact) for self = u^m P(u), m = min(lo, 0) and P a polynomial,
        and z a polynomial in u with integer coefficients and leading
        coefficient 1: q is u^m times the quotient of P by z, and ``exact``
        whether the remainder is zero, that is, whether self = z q."""
        zc = z.padded(0)
        if z.den != 1 or zc[-1, 0] != 1 or zc[-1, 1:].any():
            raise ValueError("the divisor is not monic in u")
        m, d = min(self.lo, 0), len(zc) - 1
        work = self.padded(m)
        q = np.zeros((max(len(work) - d, 1), work.shape[1]), object)
        for i in range(len(work) - d - 1, -1, -1):
            q[i] = work[i + d]
            for l in range(d):
                work[i + l] -= np.convolve(q[i], zc[l])[:work.shape[1]]
        q = ExactLaurent(q, m, self.den)
        return q, not self - z * q
