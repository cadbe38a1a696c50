"""Foundational arithmetic: Bernoulli numbers, truncated Taylor jets, Laurent
series at infinity, polynomial roots, complex log-Gamma, and the sign chain
that continues a square root along a path.

Everything in this module is a pure function over immutable values.  Jets are
the substrate for all t-differentiation in the series layer: a ``Jet`` holds
Taylor coefficients of a function in the local coordinate ``s = t - t0``, and
arithmetic is exact truncation to the jet order.  Coefficients are duck-typed:
plain ``complex`` for scalar work, or ``numpy`` arrays of identical shape when
many base points are processed in one batch (the contour quadratures do this).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

import numpy as np
import scipy.special

__all__ = [
    "Jet",
    "LaurentAtInfinity",
    "SingularJetError",
    "bernoulli",
    "poly_roots",
    "log_gamma",
]

class SingularJetError(ValueError):
    """Division / sqrt / log of a jet whose constant term vanishes."""


# ---------------------------------------------------------------------------
# Bernoulli numbers
# ---------------------------------------------------------------------------

@lru_cache(maxsize=None)
def _bernoulli_table(n_max: int) -> tuple[Fraction, ...]:
    """B_0 .. B_{n_max} via the recurrence sum_{k<=m} C(m+1,k) B_k = 0."""
    table = [Fraction(1)]
    for m in range(1, n_max + 1):
        acc = Fraction(0)
        for k in range(m):
            acc += math.comb(m + 1, k) * table[k]
        table.append(-acc / (m + 1))
    return tuple(table)


def bernoulli(n: int) -> Fraction:
    """Bernoulli number B_n for even n >= 2, as an exact rational.

    Convention: w/(e^w - 1) = 1 - w/2 + sum_{n>=1} B_{2n} w^{2n} / (2n)!.
    """
    if n < 2 or n % 2 != 0:
        raise ValueError(f"bernoulli(n) requires even n >= 2, got {n}")
    return _bernoulli_table(n)[n]


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
# log Gamma
# ---------------------------------------------------------------------------

def log_gamma(z: complex) -> complex:
    """Principal branch of log Gamma(z), continuous on C minus (-inf, 0]."""
    z = complex(z)
    if z.imag == 0 and z.real <= 0 and z.real == int(z.real):
        raise ValueError(f"log_gamma pole at z = {z}")
    return complex(scipy.special.loggamma(z))


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
    the first one nearer ``start`` (default: the first value itself)."""
    signs = np.ones(len(values))
    prev = values[0] if start is None else start
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
        one = complex(1)
        b = base_point if not isinstance(base_point, np.ndarray) else base_point
        if isinstance(base_point, np.ndarray):
            one = np.ones_like(base_point)
        return Jet(base_point, (b, one) + tuple(one * 0 for _ in range(order - 1)))

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
