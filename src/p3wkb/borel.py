"""Lateral Borel sums of the two model series F and G.

With z = c eta, the formal series

    F(z) = sum_{n>=1} (2^{1-2n} - 1) / (2n(2n-1)) B_{2n} z^{1-2n}
    G(z) = sum_{n>=1} B_{2n} / (2n(2n-1)) z^{1-2n}

are Borel summable precisely when z is not purely imaginary, and the sums
taken on either side of the imaginary axis have Gamma-function closed
forms (principal branches throughout, arg z in (-pi, pi]; on the cut
Re z < 0, Im z = 0 the sums use arg z = +pi whatever the sign of the zero
imaginary part, and ``BorelSumValue.argument`` reports that normalised z):

    S-[F](z) =  log Gamma( z + 1/2) - (1/2) log 2 pi - z (log z - 1)
    S+[F](z) = -log Gamma(-z + 1/2) + (1/2) log 2 pi - z (log z - 1) + pi i z
    S-[G](z) =  log Gamma( z)       - (1/2) log 2 pi - z (log z - 1) + (1/2) log z
    S+[G](z) = -log Gamma(-z)       + (1/2) log 2 pi - z (log z - 1)
                                                     - (1/2) log z + pi i (z + 1/2)

The minus side is the natural one for Re z > 0 (S-[G] is Binet's first
log-Gamma formula), the plus side for Re z < 0.  Crossing the imaginary
axis produces the exponentiated jumps

    exp(S+[F] - S-[F]) = 1 + e^{2 pi i z}
    exp(S+[G] - S-[G]) = 1 - e^{2 pi i z}

which feed the connection multipliers attached to the degeneration walls:
the Stokes multiplier of a formal solution changes by one of these
factors (evaluated at the jumping parameter combination) when the
parameters cross a wall, with the active factor depending on where the
independent variable sits relative to the degenerate curve.

An independent Laplace-integral oracle evaluates the same sums directly,

    S-[K](z) = int_0^infty e^{-z y} k_K(y) dy,       Re z > 0,
    k_G(y) = (1/(e^y - 1) - 1/y + 1/2) / y,
    k_F(y) = (1/2) k_G(y/2) - k_G(y),

after passing a mandatory exact-rational gate: the Taylor coefficients of
the kernels at y = 0, computed by power-series inversion of (e^y - 1)/y
in Fractions (no Bernoulli numbers), must reproduce the series
coefficients F_n/(2n-2)! and G_n/(2n-2)! exactly.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .algebra import Parameters
from .numerics import log_gamma
from .voros import f_coefficient, g_coefficient
from .walls import on_imaginary_axis

__all__ = [
    "GammaPoleError",
    "KernelGateError",
    "UnsupportedCaseError",
    "BorelSumValue",
    "ConnectionMultiplier",
    "borel_sum_F",
    "borel_sum_G",
    "jump_factor",
    "laplace_oracle",
    "summability_report",
    "connection_multiplier",
]

_HALF_LOG_2PI = 0.5 * math.log(2.0 * math.pi)


class GammaPoleError(ValueError):
    """The requested lateral sum sits on a pole of its Gamma factor."""


class KernelGateError(RuntimeError):
    """The Laplace kernels failed their exact-rational coefficient gate."""


class UnsupportedCaseError(RuntimeError):
    """A wall/position combination with no known connection multiplier."""


# ---------------------------------------------------------------------------
# Lateral sums in closed form
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class BorelSumValue:
    """One lateral Borel sum.

    ``value`` is ``None`` exactly when ``summable`` is false, i.e. when the
    argument z = c eta is purely imaginary (``walls.on_imaginary_axis``)
    and no lateral sum is defined.
    """

    value: complex | None
    side: str            # "plus" | "minus"
    summable: bool
    kind: str            # "F" | "G"
    argument: complex    # z = c eta


def _gamma_term(w: complex) -> complex:
    """log Gamma(w), raising :class:`GammaPoleError` at a pole (w = 0, -1,
    -2, ...).  Next to a pole log Gamma is large but finite and accurate."""
    try:
        return log_gamma(w)
    except ValueError as exc:
        raise GammaPoleError(f"log Gamma pole at w = {w}") from exc


def _lateral_sum(kind: str, z: complex, side: str) -> complex:
    base = -z * (cmath.log(z) - 1.0)
    if kind == "F":
        if side == "minus":
            return _gamma_term(z + 0.5) - _HALF_LOG_2PI + base
        return -_gamma_term(-z + 0.5) + _HALF_LOG_2PI + base + 1j * math.pi * z
    if side == "minus":
        return _gamma_term(z) - _HALF_LOG_2PI + base + 0.5 * cmath.log(z)
    return (-_gamma_term(-z) + _HALF_LOG_2PI + base - 0.5 * cmath.log(z)
            + 1j * math.pi * (z + 0.5))


def _borel_sum(kind: str, c: complex, eta: complex, side: str) -> BorelSumValue:
    if side not in ("plus", "minus"):
        raise ValueError(f"side must be 'plus' or 'minus', got {side!r}")
    z = complex(c) * complex(eta)
    # A -0.0 imaginary part becomes +0.0: log z honours the zero's sign but
    # the shifted log Gamma argument z + 1/2 drops it, so without this the
    # terms of one sum would sit on opposite lips of the cut.
    z = complex(z.real, z.imag + 0.0)
    if on_imaginary_axis(z):
        return BorelSumValue(None, side, False, kind, z)
    return BorelSumValue(_lateral_sum(kind, z, side), side, True, kind, z)


def borel_sum_F(c: complex, eta: complex, side: str = "minus") -> BorelSumValue:
    """Lateral Borel sum of F(c eta) on the requested side of Re(c eta) = 0."""
    return _borel_sum("F", c, eta, side)


def borel_sum_G(c: complex, eta: complex, side: str = "minus") -> BorelSumValue:
    """Lateral Borel sum of G(c eta) on the requested side of Re(c eta) = 0."""
    return _borel_sum("G", c, eta, side)


def jump_factor(kind: str, c: complex, eta: complex) -> complex:
    """Predicted ratio exp(S+ - S-) for the exponentiated series.

    Equals 1 + e^{2 pi i c eta} for F and 1 - e^{2 pi i c eta} for G.
    """
    if kind not in ("F", "G"):
        raise ValueError(f"kind must be 'F' or 'G', got {kind!r}")
    e = cmath.exp(2j * math.pi * complex(c) * complex(eta))
    return 1.0 + e if kind == "F" else 1.0 - e


# ---------------------------------------------------------------------------
# Laplace-integral oracle
# ---------------------------------------------------------------------------

_KERNEL_DEPTH = 24          # Taylor terms kept for the small-y evaluation
_KERNEL_GATE_ORDERS = 8     # exact coefficient matches demanded per kernel
_KERNEL_CACHE: np.ndarray | None = None


def _kernel_table(n_terms: int) -> list[Fraction]:
    """Taylor coefficients of k_G at y = 0, in exact rationals.

    Computed by power-series inversion of (e^y - 1)/y = sum y^k/(k+1)!,
    deliberately avoiding the Bernoulli-number route used by the series
    coefficients so the gate compares two independent derivations.
    """
    order = n_terms + 2
    expy = [Fraction(1, math.factorial(k + 1)) for k in range(order)]
    inv = [Fraction(1)]
    for k in range(1, order):
        inv.append(-sum(expy[j] * inv[k - j] for j in range(1, k + 1)))
    # 1/(e^y-1) - 1/y + 1/2 = sum_{k>=2} inv[k] y^{k-1}, so dividing by y
    # makes inv[m+2] the coefficient of y^m in k_G.
    if inv[1] != Fraction(-1, 2):
        raise KernelGateError("series inversion lost the -1/2 constant term")
    return inv[2:order]


def _validate_kernels(f_coeff=f_coefficient, g_coeff=g_coefficient,
                      n_max: int = _KERNEL_GATE_ORDERS) -> list[Fraction]:
    """Exact-rational gate tying both kernels to the series coefficients.

    The coefficient of y^{2n-2} in k_G must equal G_n/(2n-2)!; composing
    k_F(y) = (1/2) k_G(y/2) - k_G(y) multiplies it by 2^{1-2n} - 1, which
    must equal F_n/(2n-2)!.  Odd coefficients must vanish.  Any mismatch
    aborts the oracle.
    """
    table = _kernel_table(max(_KERNEL_DEPTH, 2 * n_max))
    for n in range(1, n_max + 1):
        m = 2 * n - 2
        fact = Fraction(math.factorial(m))
        if table[m] != g_coeff(n) / fact:
            raise KernelGateError(
                f"k_G coefficient of y^{m} disagrees with G_{n}/({m})!")
        if table[m] * (Fraction(1, 2 ** (m + 1)) - 1) != f_coeff(n) / fact:
            raise KernelGateError(
                f"k_F coefficient of y^{m} disagrees with F_{n}/({m})!")
        if table[m + 1] != 0:
            raise KernelGateError(f"odd kernel coefficient of y^{m + 1} nonzero")
    return table


def _kernel_series() -> np.ndarray:
    """Float Taylor coefficients of k_G, validated once per process."""
    global _KERNEL_CACHE
    if _KERNEL_CACHE is None:
        _KERNEL_CACHE = np.array([float(a) for a in _validate_kernels()])
    return _KERNEL_CACHE


def _k_G(y: np.ndarray, series: np.ndarray) -> np.ndarray:
    # The Taylor series converges for |y| < 2 pi; the test is on |y| so that
    # complex y far from the origin takes the direct formula.
    out = np.empty_like(y)
    small = np.abs(y) < 0.1
    out[small] = np.polynomial.polynomial.polyval(y[small], series)
    yl = y[~small]
    out[~small] = (1.0 / np.expm1(yl) - 1.0 / yl + 0.5) / yl
    return out


def _kernel_values(kind: str, y: np.ndarray, series: np.ndarray) -> np.ndarray:
    if kind == "G":
        return _k_G(y, series)
    return 0.5 * _k_G(0.5 * y, series) - _k_G(y, series)


def laplace_oracle(kind: str, c: complex, eta: complex) -> complex:
    """Evaluate the minus-side sum by direct Laplace quadrature.

    Requires Re(c eta) > 0.  The integrand is sampled on Gauss-Legendre
    panels: a uniform block out to y = 10/Re(z) (refined against the
    oscillation e^{-i Im(z) y}) continued by geometrically growing panels
    to y = 60/Re(z), where the dropped tail is below
    e^{-60} * (1/(2 y) + 1/y^2)/Re(z) < 1e-26 for every admissible z.
    """
    if kind not in ("F", "G"):
        raise ValueError(f"kind must be 'F' or 'G', got {kind!r}")
    z = complex(c) * complex(eta)
    if z.real <= 0.0:
        raise ValueError(f"Laplace oracle needs Re(c eta) > 0, got z = {z}")
    series = _kernel_series()

    x = z.real
    y_split = 10.0 / x
    y_max = 60.0 / x
    osc = 1.0 + abs(z.imag) / x
    n_lin = max(8, math.ceil(4.0 * osc))
    edges = list(np.linspace(0.0, y_split, n_lin + 1))
    width_cap = 6.0 / abs(z.imag) if z.imag else math.inf
    while edges[-1] < y_max:
        edges.append(min(edges[-1] * 1.6, edges[-1] + width_cap, y_max))

    nodes, weights = np.polynomial.legendre.leggauss(32)
    total = 0.0j
    for a, b in zip(edges[:-1], edges[1:]):
        half = 0.5 * (b - a)
        ys = 0.5 * (a + b) + half * nodes
        kv = _kernel_values(kind, ys, series)
        total += half * np.sum(weights * kv * np.exp(-z * ys))
    return complex(total)


# ---------------------------------------------------------------------------
# Summability report and connection multipliers
# ---------------------------------------------------------------------------

def summability_report(p: Parameters) -> dict[str, bool]:
    """Which of the four endpoint Voros series are Borel summable at ``p``.

    A series fails exactly when its argument is purely imaginary
    (``walls.on_imaginary_axis``), i.e. when ``p`` sits on the matching wall.
    """
    return {
        "F(c_p)": not on_imaginary_axis(p.c_p),
        "F(c_m)": not on_imaginary_axis(p.c_m),
        "G(c_inf)": not on_imaginary_axis(p.c_inf),
        "G(c_0)": not on_imaginary_axis(p.c_0),
    }


@dataclass(frozen=True)
class ConnectionMultiplier:
    """Factor relating a Stokes multiplier across a degeneration wall."""

    wall: str
    position: str
    expression: str
    value: complex


_WALLS = {f"W{k}" for k in range(1, 9)}
#: walls whose degeneration is a loop (argument of a G series imaginary).
_LOOP_WALLS = {"W1", "W3", "W5", "W7"}
_POSITIONS = {
    "t0", "t1", "outside-triangle", "inside-triangle",
    "outside-loop", "inside-loop",
}


def connection_multiplier(wall: str, position: str, p: Parameters,
                          eta: complex, *, sign: int = 1) -> ConnectionMultiplier:
    """Multiplier picked up by a Stokes multiplier across ``wall``.

    ``position`` locates the independent variable relative to the
    degenerate curve.  On the triangle wall W2 the two distinguished base
    points are ``"t0"`` (inside the triangle, nontrivial factor) and
    ``"t1"`` (outside, trivial).  On W4 the nontrivial factor appears
    outside the triangle and carries an exponent ``sign`` in {+1, -1}
    reflecting the choice of square-root branch of the discriminant.  On
    the loop wall W3 the region outside the loop is trivial; inside the
    loop infinitely many curves spiral into the double pole and no
    multiplier is known -- that case raises :class:`UnsupportedCaseError`,
    as does every combination not listed.
    """
    if wall not in _WALLS:
        raise ValueError(f"unknown wall label {wall!r}")
    if position not in _POSITIONS:
        raise ValueError(f"unknown position {position!r}")
    if sign not in (1, -1):
        raise ValueError(f"sign must be +1 or -1, got {sign!r}")

    key = (wall, position)
    if key == ("W2", "t0"):
        value = 1.0 + cmath.exp(1j * math.pi * (p.c_inf - p.c_0) * eta)
        expr = "1 + exp(pi*i*(c_inf - c_0)*eta)"
    elif key == ("W2", "t1"):
        value, expr = 1.0 + 0.0j, "1"
    elif key == ("W4", "outside-triangle"):
        base = 1.0 + cmath.exp(1j * math.pi * (p.c_inf + p.c_0) * eta)
        value = base if sign > 0 else 1.0 / base
        expr = f"(1 + exp(pi*i*(c_inf + c_0)*eta))**({sign:+d})"
    elif key == ("W4", "inside-triangle"):
        value, expr = 1.0 + 0.0j, "1"
    elif key == ("W3", "outside-loop"):
        value, expr = 1.0 + 0.0j, "1"
    elif wall in _LOOP_WALLS and position == "inside-loop":
        raise UnsupportedCaseError(
            f"{wall} at position 'inside-loop': infinitely many curves spiral "
            "into the enclosed double pole and no connection multiplier is "
            "available")
    else:
        raise UnsupportedCaseError(
            f"no connection multiplier is available for wall {wall} at "
            f"position {position!r}")
    return ConnectionMultiplier(wall, position, expr, complex(value))
