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
log-Gamma formula), the plus side for Re z < 0.  The sums are evaluated
through Binet's function J(w) = log Gamma(w) - (w - 1/2) log w + w -
(1/2) log 2 pi (``numerics.binet``), whose asymptotic series is G itself:

    S-[G](z) = J(z)
    S-[F](z) = J(z + 1/2) + z log1p(1/(2z)) - 1/2
    S+[K](z) = -S-[K](-z) + 2 pi i m (z + 1/2 for G, z for F)

with m = 1 where arg(-z) > arg z and 0 otherwise.  On the real axis both
plus sides are the limits from Im z > 0, the lip of the normalised +0
imaginary part: S+[F](x) and S+[G](x) at real x > 0 are the values just
above the axis, and the lips of their Gamma factors at -x follow.  So no
terms of size |z log z| are added to leave a sum of size 1/(12 z), and
the sums keep their relative accuracy at large |z|.  Crossing the
imaginary axis produces the exponentiated jumps

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
from .numerics import _atanh_excess, _read_only, binet
from .voros import f_coefficient, g_coefficient
from .walls import _JUMPING, WALL_TABLE, on_imaginary_axis

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
    """Binet's J(w) = log Gamma(w) - (w - 1/2) log w + w - (1/2) log 2 pi
    (:func:`numerics.binet`), raising :class:`GammaPoleError` at a pole of
    Gamma (w = 0, -1, -2, ...).  Next to a pole J is large but finite and
    accurate.  J is log Gamma less its Stirling part, so the closed forms
    built on it add no terms of size |w log w|."""
    try:
        return binet(w)
    except ValueError as exc:
        raise GammaPoleError(f"log Gamma pole at w = {w}") from exc


def _minus_sum(kind: str, z: complex) -> complex:
    """S-[G](z) = J(z), and S-[F](z) = J(z + 1/2) + z log1p(1/(2z)) - 1/2.

    For F, with t = 1/(4z + 1), z log1p(1/(2z)) - 1/2 is
    ((atanh(t)/t - 1) - atanh(t))/2, which is free of cancellation where
    |t| < 1/2; nearer the origin the two logs are taken apart.  The shift
    z + 1/2 keeps the sign of a zero imaginary part (adding a float would
    make it +0), so J(z + 1/2), log(z + 1/2) and log z take one lip."""
    if kind == "G":
        return _gamma_term(z)
    shifted = complex(z.real + 0.5, z.imag)
    a = 4.0 * z + 1.0
    if abs(a) > 2.0:
        t = 1.0 / a
        excess = _atanh_excess(t)
        rest = 0.5 * (excess - t * (1.0 + excess))
    else:
        rest = z * (cmath.log(shifted) - cmath.log(z)) - 0.5
    return _gamma_term(shifted) + rest


def _lateral_sum(kind: str, z: complex, side: str) -> complex:
    if side == "minus":
        return _minus_sum(kind, z)
    # S+[K](z) = -S-[K](u) + 2 pi i m (z + 1/2 for G), u = -z: the Gamma
    # factor of S+ is Gamma(u) for G and Gamma(u + 1/2) for F, and
    # log u - log z + pi i = 2 pi i m.  On the real axis z carries +0, so
    # u = -z carries -0 and both kinds take the limit from Im z > 0.  The
    # arguments come from atan2, which unlike cmath.phase does not raise
    # when a subnormal imaginary part makes the angle underflow.
    u = -z
    m = math.atan2(u.imag, u.real) > math.atan2(z.imag, z.real)
    return -_minus_sum(kind, u) + 2j * math.pi * m * (z + 0.5 if kind == "G" else z)


def _borel_sum(kind: str, c: complex, eta: complex, side: str) -> BorelSumValue:
    if side not in ("plus", "minus"):
        raise ValueError(f"side must be 'plus' or 'minus', got {side!r}")
    z = complex(c) * complex(eta)
    # A -0.0 imaginary part becomes +0.0: J(z) and log z honour the zero's
    # sign but the shifted argument z + 1/2 drops it, so without this the
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

_GL_NODES, _GL_WEIGHTS = np.polynomial.legendre.leggauss(32)
_BLOCK_PANELS = 256         # panels evaluated together, bounding the memory
_MAX_PANELS = 10 ** 6       # grids beyond this are refused, not allocated


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
    """Float Taylor coefficients of k_G, validated once per process.  The
    array is shared by every caller, so it is read-only."""
    global _KERNEL_CACHE
    if _KERNEL_CACHE is None:
        (_KERNEL_CACHE,) = _read_only(np.array([float(a) for a in _validate_kernels()]))
    return _KERNEL_CACHE


def _k_G(y: np.ndarray, series: np.ndarray) -> np.ndarray:
    # The Taylor series converges for |y| < 2 pi; the test is on |y| so that
    # complex y far from the origin takes the direct formula.
    out = np.empty_like(y)
    small = np.abs(y) < 0.1
    if small.any():
        out[small] = np.polynomial.polynomial.polyval(y[small], series)
    # k_G is even, so the direct formula is taken on Re y >= 0, where
    # 1/(e^y - 1) = -e^{-y}/expm1(-y) cannot overflow.
    yl = y[~small]
    yl = np.where(yl.real < 0.0, -yl, yl)
    out[~small] = (-np.exp(-yl) / np.expm1(-yl) - 1.0 / yl + 0.5) / yl
    return out


def _kernel_values(kind: str, y: np.ndarray, series: np.ndarray) -> np.ndarray:
    if kind == "G":
        return _k_G(y, series)
    return 0.5 * _k_G(0.5 * y, series) - _k_G(y, series)


def _panel_edges(z: complex) -> np.ndarray:
    """Edges of the Gauss-Legendre panels of :func:`laplace_oracle`.

    The edge after e is min(1.6 e, e + 6/|Im z|, 60/Re z) beyond the
    uniform block [0, 10/Re z].  Since 1.6**4 > 6, at most four geometric
    steps precede either the end or the width cap, after which every panel
    has the capped width.  Both runs are built by accumulation, so each
    edge carries the rounding of the step-by-step rule.  The panel count is
    known before anything large is allocated; above ``_MAX_PANELS`` the
    grid is refused with a ``ValueError``.
    """
    x, w = z.real, abs(z.imag)
    y_split, y_max = 10.0 / x, 60.0 / x
    cap = 6.0 / w if w else math.inf
    geo = np.multiply.accumulate(np.r_[y_split, np.full(4, 1.6)])
    # m geometric edges lie below y_max; from geo[m] on, the cap or the end rules
    m = int(np.argmax((geo[1:] > geo[:-1] + cap) | (geo[1:] >= y_max)))
    start = geo[m]
    capped = geo[m + 1] > start + cap
    n_lin = max(8.0, 4.0 * (1.0 + w / x))
    n_capped = (y_max - start) / cap if capped else 0.0
    n_panels = n_lin + m + n_capped + 1.0    # within 2 of the count; nan or inf if runaway
    if not (n_panels <= _MAX_PANELS and y_max < math.inf):
        raise ValueError(f"Laplace oracle at z = {z} needs about {n_panels:.4g} "
                         f"quadrature panels out to y = {y_max:.4g}, beyond the "
                         f"ceiling of {_MAX_PANELS} panels or the float range")
    run = np.add.accumulate(np.r_[start, np.full(int(n_capped) + 1, cap)])
    run = run[1:np.searchsorted(run, y_max)]
    return np.concatenate((np.linspace(0.0, y_split, math.ceil(n_lin) + 1), geo[1:m + 1],
                           run, [y_max]))


def laplace_oracle(kind: str, c: complex, eta: complex) -> complex:
    """Evaluate the minus-side sum by direct Laplace quadrature.

    Requires Re(c eta) > 0.  The integrand is sampled on 32-point
    Gauss-Legendre panels (:func:`_panel_edges`): a uniform block of
    max(8, ceil(4 (1 + |Im z|/Re z))) panels out to y = 10/Re(z), refined
    against the oscillation e^{-i Im(z) y}, continued by panels growing by
    a factor 1.6 but at most 6/|Im z| wide, out to y = 60/Re(z), where the
    dropped tail is below e^{-60} * (1/(2 y) + 1/y^2)/Re(z) < 1e-26 for
    every admissible z.  A grid of more than ``_MAX_PANELS`` panels (Re z
    tiny against |Im z|) raises ``ValueError`` before it is built.

    The kernel and e^{-z y} are evaluated on blocks of at most
    ``_BLOCK_PANELS`` panels, each reduced by one weighted sum, so memory
    stays bounded whatever the oscillation.  The kernel is evaluated on
    Re y >= 0 through its evenness, where it cannot overflow.
    """
    if kind not in ("F", "G"):
        raise ValueError(f"kind must be 'F' or 'G', got {kind!r}")
    z = complex(c) * complex(eta)
    if z.real <= 0.0:
        raise ValueError(f"Laplace oracle needs Re(c eta) > 0, got z = {z}")
    edges = _panel_edges(z)
    series = _kernel_series()

    total = 0.0j
    for lo in range(0, len(edges) - 1, _BLOCK_PANELS):
        block = edges[lo:lo + _BLOCK_PANELS + 1]
        a, b = block[:-1], block[1:]
        half = 0.5 * (b - a)
        ys = (0.5 * (a + b))[:, None] + half[:, None] * _GL_NODES
        integrand = _kernel_values(kind, ys, series) * np.exp(-z * ys)
        total += half @ (integrand @ _GL_WEIGHTS)
    return complex(total)


# ---------------------------------------------------------------------------
# Summability report and connection multipliers
# ---------------------------------------------------------------------------

def summability_report(p: Parameters) -> dict[str, bool]:
    """Which of the four endpoint Voros series are Borel summable at ``p``.

    A series fails exactly when its argument is purely imaginary
    (``walls.on_imaginary_axis``), i.e. when ``p`` sits on the matching wall.
    """
    return {block: not on_imaginary_axis(getattr(p, quantity))
            for quantity, block in _JUMPING.items()}


@dataclass(frozen=True)
class ConnectionMultiplier:
    """Factor relating a Stokes multiplier across a degeneration wall."""

    wall: str
    position: str
    expression: str
    value: complex


_WALLS = set(WALL_TABLE)
#: walls whose degeneration is a loop (argument of a G series imaginary).
_LOOP_WALLS = {w for w, (vanishing, *_) in WALL_TABLE.items() if vanishing in ("c_inf", "c_0")}
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
